//! Deterministic retry/backoff policy and per-host circuit breakers.
//!
//! [`RetryPolicy`] classifies failures (via [`FetchError::is_retryable`] and
//! 5xx statuses), schedules capped exponential backoff with seed-hashed
//! jitter, and bounds work with a per-domain retry budget. [`FetchSession`]
//! threads the policy through a [`Client`] clone and adds a per-host
//! circuit breaker (Closed → Open → HalfOpen) driven by a **simulated
//! clock**: latency, backoff, and politeness delays advance the clock, so
//! breaker cool-downs are a pure function of the request sequence and the
//! seed — no wall time, no cross-thread state.
//!
//! Sessions are deliberately *not* shared between worker threads: each
//! domain crawl owns one, which keeps the workspace's byte-identical
//! determinism contract intact across worker counts.

use crate::fault::unit_hash;
use crate::transport::{Client, FetchError, FetchResult};
use crate::url::Url;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Retry and circuit-breaker knobs for one guarded fetch path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per request, counting the first (1 = no retries).
    pub max_attempts: u32,
    /// First backoff step in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff cap in milliseconds.
    pub max_backoff_ms: u64,
    /// Upper bound on hash-derived backoff jitter in milliseconds.
    pub jitter_ms: u64,
    /// Total retries allowed per domain per session.
    pub domain_budget: u32,
    /// Consecutive failures before the per-host breaker opens.
    pub breaker_threshold: u32,
    /// Simulated milliseconds an open breaker waits before half-opening.
    pub breaker_cooldown_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // max_attempts must exceed FaultConfig::default().burst_max so every
        // default-config transient episode is recovered.
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 250,
            max_backoff_ms: 4_000,
            jitter_ms: 200,
            domain_budget: 12,
            breaker_threshold: 4,
            breaker_cooldown_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// The pre-resilience behavior: one attempt, no breaker. Used as the
    /// baseline the retry layer is measured against.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_ms: 0,
            domain_budget: 0,
            breaker_threshold: u32::MAX,
            breaker_cooldown_ms: 0,
        }
    }

    /// Backoff before retry number `retry` (1-based): capped exponential
    /// plus jitter hashed from `(seed, domain, retry)` — deterministic, but
    /// decorrelated across domains so synchronized retry storms cannot
    /// happen even in simulation.
    pub fn backoff_ms(&self, seed: u64, domain: &str, retry: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << (retry.saturating_sub(1)).min(16))
            .min(self.max_backoff_ms);
        let key = format!("{domain}#{retry}");
        let jitter = (unit_hash(seed, &key, "backoff") * self.jitter_ms as f64) as u64;
        exp + jitter
    }
}

/// Circuit-breaker state for one host, observable for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are refused until the cool-down elapses.
    Open,
    /// Cool-down elapsed; the next request is a probe.
    HalfOpen,
}

#[derive(Debug, Default, Clone)]
struct HostState {
    consecutive_failures: u32,
    open_until_ms: Option<u64>,
    half_open: bool,
    retries_spent: u32,
}

/// One guarded fetch path: a [`Client`] clone plus retry/breaker state and
/// a simulated clock. Single-threaded by design; create one per domain
/// crawl (or per chatbot conversation) so determinism is independent of
/// worker scheduling.
pub struct FetchSession {
    client: Client,
    policy: RetryPolicy,
    seed: u64,
    clock_ms: u64,
    hosts: BTreeMap<String, HostState>,
}

impl FetchSession {
    /// Wrap `client` with `policy`, seeding backoff jitter from `seed`.
    pub fn new(client: Client, seed: u64, policy: RetryPolicy) -> FetchSession {
        FetchSession {
            client,
            policy,
            seed,
            clock_ms: 0,
            hosts: BTreeMap::new(),
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The wrapped client.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Advance the simulated clock (e.g. for politeness delays). The clock
    /// saturates at `u64::MAX` rather than wrapping, so a hostile delay
    /// (a robots `Crawl-delay` of `1e300`) cannot turn time back.
    pub fn advance(&mut self, ms: u64) {
        self.clock_ms = self.clock_ms.saturating_add(ms);
    }

    /// Retries spent against `domain` so far.
    pub fn retries_spent(&self, domain: &str) -> u32 {
        self.hosts.get(domain).map_or(0, |h| h.retries_spent)
    }

    /// Total retries spent across every host this session touched.
    pub fn total_retries(&self) -> u64 {
        self.hosts
            .values()
            .map(|h| u64::from(h.retries_spent))
            .sum()
    }

    /// Current breaker state for `domain`.
    pub fn breaker_state(&self, domain: &str) -> BreakerState {
        match self.hosts.get(domain) {
            None => BreakerState::Closed,
            Some(h) => match h.open_until_ms {
                Some(until) if self.clock_ms < until => BreakerState::Open,
                Some(_) => BreakerState::HalfOpen,
                None if h.half_open => BreakerState::HalfOpen,
                None => BreakerState::Closed,
            },
        }
    }

    /// Fetch `url` through the retry policy and breaker.
    ///
    /// Retryable failures (resets, timeouts, 429s) and 5xx responses are
    /// retried with backoff while attempts and the domain budget allow;
    /// 429s wait at least their `Retry-After`. A host whose breaker is open
    /// is refused without touching the transport, which is what bounds
    /// traffic to a dead host.
    pub fn fetch(&mut self, url: &Url) -> Result<FetchResult, FetchError> {
        let domain = url.domain();
        {
            let host = self.hosts.entry(domain.clone()).or_default();
            if let Some(until) = host.open_until_ms {
                if self.clock_ms < until {
                    return Err(FetchError::CircuitOpen(domain));
                }
                // Cool-down elapsed: half-open, let one probe through.
                host.open_until_ms = None;
                host.half_open = true;
            }
        }
        let mut attempt = 0u32;
        loop {
            let outcome = self.client.fetch_attempt(url, attempt);
            match outcome {
                Ok(res) if res.response.status.is_server_error() => {
                    self.advance(res.latency_ms);
                    if self.try_schedule_retry(&domain, attempt, None) {
                        attempt += 1;
                        continue;
                    }
                    // Out of attempts or budget: deliver the 5xx as-is so
                    // the caller can degrade gracefully.
                    self.record_failure(&domain);
                    return Ok(res);
                }
                Ok(res) => {
                    self.advance(res.latency_ms);
                    self.record_success(&domain);
                    return Ok(res);
                }
                Err(err) if err.is_retryable() => {
                    let wait_floor = match &err {
                        FetchError::RateLimited { retry_after_ms, .. } => Some(*retry_after_ms),
                        _ => None,
                    };
                    if self.try_schedule_retry(&domain, attempt, wait_floor) {
                        attempt += 1;
                        continue;
                    }
                    self.record_failure(&domain);
                    return Err(err);
                }
                Err(err) => {
                    self.record_failure(&domain);
                    return Err(err);
                }
            }
        }
    }

    /// If policy allows another attempt, charge the budget, advance the
    /// clock by backoff (respecting a `Retry-After` floor), and return true.
    fn try_schedule_retry(&mut self, domain: &str, attempt: u32, wait_floor: Option<u64>) -> bool {
        if attempt + 1 >= self.policy.max_attempts {
            return false;
        }
        let host = self.hosts.entry(domain.to_string()).or_default();
        if host.retries_spent >= self.policy.domain_budget {
            self.client.with_metrics(|m| m.budget_exhausted += 1);
            return false;
        }
        host.retries_spent += 1;
        let retry = attempt + 1;
        let backoff = self.policy.backoff_ms(self.seed, domain, retry);
        self.advance(backoff.max(wait_floor.unwrap_or(0)));
        self.client.with_metrics(|m| m.retries += 1);
        true
    }

    fn record_success(&mut self, domain: &str) {
        let host = self.hosts.entry(domain.to_string()).or_default();
        host.consecutive_failures = 0;
        host.half_open = false;
        host.open_until_ms = None;
    }

    fn record_failure(&mut self, domain: &str) {
        let cooldown = self.policy.breaker_cooldown_ms;
        let threshold = self.policy.breaker_threshold;
        let clock = self.clock_ms;
        let host = self.hosts.entry(domain.to_string()).or_default();
        host.consecutive_failures = host.consecutive_failures.saturating_add(1);
        let reopen = host.half_open;
        host.half_open = false;
        if reopen || host.consecutive_failures >= threshold {
            host.open_until_ms = Some(clock.saturating_add(cooldown));
            self.client.with_metrics(|m| m.breaker_opens += 1);
        }
    }
}

impl Client {
    /// A guarded fetch session over this client. One session per domain
    /// crawl keeps retry/breaker state thread-local and deterministic.
    pub fn session(&self, seed: u64, policy: RetryPolicy) -> FetchSession {
        FetchSession::new(self.clone(), seed, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::host::{Internet, StaticSite};
    use crate::http::{Response, Status};

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn client_with(cfg: FaultConfig) -> Client {
        let net = Internet::new();
        net.register("a.com", StaticSite::new().page("/", Response::html("up")));
        Client::new(net, FaultInjector::new(0, cfg))
    }

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        let p = RetryPolicy {
            base_backoff_ms: 100,
            max_backoff_ms: 450,
            jitter_ms: 50,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff_ms(7, "a.com", 1);
        let b2 = p.backoff_ms(7, "a.com", 2);
        let b9 = p.backoff_ms(7, "a.com", 9);
        assert!((100..150).contains(&b1), "b1={b1}");
        assert!((200..250).contains(&b2), "b2={b2}");
        assert!((450..500).contains(&b9), "capped: b9={b9}");
        assert_eq!(b1, p.backoff_ms(7, "a.com", 1));
        assert_ne!(
            p.backoff_ms(7, "a.com", 1),
            p.backoff_ms(7, "b.com", 1),
            "jitter should decorrelate domains"
        );
    }

    #[test]
    fn no_retry_policy_gives_single_attempt() {
        let cfg = FaultConfig {
            conn_reset: 1.0,
            burst_max: 1,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        let mut session = client.session(1, RetryPolicy::no_retry());
        assert!(session.fetch(&url("https://a.com/")).is_err());
        assert_eq!(client.metrics().requests, 1);
        assert_eq!(client.metrics().retries, 0);
    }

    #[test]
    fn session_recovers_transient_burst() {
        let cfg = FaultConfig {
            conn_reset: 1.0,
            burst_max: 2,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        let mut session = client.session(1, RetryPolicy::default());
        let res = session.fetch(&url("https://a.com/")).unwrap();
        assert_eq!(res.response.body_text(), "up");
        let m = client.metrics();
        assert!(m.retries >= 1, "{m:?}");
        assert!(m.is_conserved(), "{m:?}");
        assert_eq!(session.breaker_state("a.com"), BreakerState::Closed);
    }

    #[test]
    fn rate_limit_waits_at_least_retry_after() {
        let cfg = FaultConfig {
            rate_limit: 1.0,
            burst_max: 1,
            retry_after_ms: 5_000,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        let mut session = client.session(1, RetryPolicy::default());
        let res = session.fetch(&url("https://a.com/")).unwrap();
        assert!(res.response.status.is_success());
        assert!(
            session.clock_ms >= 5_000,
            "clock {} ignored Retry-After",
            session.clock_ms
        );
    }

    #[test]
    fn server_error_burst_retries_then_succeeds() {
        let cfg = FaultConfig {
            flaky_5xx: 1.0,
            burst_max: 2,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        let mut session = client.session(1, RetryPolicy::default());
        let res = session.fetch(&url("https://a.com/")).unwrap();
        assert_eq!(res.response.status, Status::OK);
        assert!(client.metrics().server_errors >= 1);
    }

    #[test]
    fn breaker_caps_requests_to_dead_host() {
        let cfg = FaultConfig {
            connect_failure: 1.0,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        let policy = RetryPolicy {
            breaker_threshold: 4,
            breaker_cooldown_ms: 60_000,
            ..RetryPolicy::default()
        };
        let mut session = client.session(1, policy);
        let mut circuit_open = 0;
        for _ in 0..50 {
            match session.fetch(&url("https://a.com/")) {
                Err(FetchError::CircuitOpen(_)) => circuit_open += 1,
                Err(_) => {}
                Ok(_) => panic!("dead host served a response"),
            }
        }
        let m = client.metrics();
        assert_eq!(
            m.requests, 4,
            "breaker must cap transport requests at the threshold"
        );
        assert_eq!(circuit_open, 46);
        assert_eq!(m.breaker_opens, 1);
        assert_eq!(session.breaker_state("a.com"), BreakerState::Open);
        assert!(m.is_conserved(), "{m:?}");
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_recloses_on_success() {
        let cfg = FaultConfig {
            conn_reset: 1.0,
            burst_max: 3,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        // One attempt per fetch so each fetch is one failure; threshold 2.
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown_ms: 1_000,
            ..RetryPolicy::default()
        };
        let mut session = client.session(1, policy);
        let target = url("https://a.com/");
        assert!(session.fetch(&target).is_err());
        assert!(session.fetch(&target).is_err());
        assert_eq!(session.breaker_state("a.com"), BreakerState::Open);
        assert!(matches!(
            session.fetch(&target),
            Err(FetchError::CircuitOpen(_))
        ));
        // Cool-down elapses on the simulated clock; the half-open probe
        // still hits the reset (each fetch is attempt 0 of its own burst),
        // and one failed probe re-opens the breaker immediately.
        session.advance(1_000);
        assert_eq!(session.breaker_state("a.com"), BreakerState::HalfOpen);
        assert!(session.fetch(&target).is_err());
        assert_eq!(session.breaker_state("a.com"), BreakerState::Open);
        assert_eq!(client.metrics().breaker_opens, 2);
    }

    #[test]
    fn domain_budget_bounds_total_retries() {
        let cfg = FaultConfig {
            conn_reset: 1.0,
            burst_max: 32,
            ..FaultConfig::none()
        };
        let client = client_with(cfg);
        let policy = RetryPolicy {
            max_attempts: 10,
            domain_budget: 3,
            breaker_threshold: u32::MAX,
            ..RetryPolicy::default()
        };
        let mut session = client.session(1, policy);
        assert!(session.fetch(&url("https://a.com/")).is_err());
        let m = client.metrics();
        assert_eq!(m.retries, 3, "{m:?}");
        assert_eq!(m.requests, 4, "{m:?}");
        assert_eq!(m.budget_exhausted, 1, "{m:?}");
        assert_eq!(session.retries_spent("a.com"), 3);
    }

    #[test]
    fn default_policy_clears_default_config_bursts() {
        let policy = RetryPolicy::default();
        let cfg = FaultConfig::default();
        assert!(
            policy.max_attempts > cfg.burst_max,
            "default retries must out-last default bursts"
        );
        assert!(policy.domain_budget >= cfg.burst_max);
    }
}
