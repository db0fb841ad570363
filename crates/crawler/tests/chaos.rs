//! Chaos harness for the crawl stack: sweep arbitrary fault and retry
//! configurations with proptest and check the resilience invariants the
//! design demands — no panics, transport counter conservation, and
//! byte-identical results regardless of worker count. A deterministic
//! breaker-bound scenario rides along.

use aipan_crawler::{crawl_all_with, crawl_domain_with, CrawlOptions, DomainCrawl, PoolConfig};
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::host::StaticSite;
use aipan_net::http::Response;
use aipan_net::{Client, Internet, RetryPolicy};
use proptest::prelude::*;

fn make_net(n: usize) -> (Internet, Vec<String>) {
    let net = Internet::new();
    let mut domains = Vec::new();
    for i in 0..n {
        let domain = format!("chaos{i}.com");
        net.register(
            &domain,
            StaticSite::new()
                .page(
                    "/",
                    Response::html("<footer><a href=\"/privacy\">Privacy Policy</a></footer>"),
                )
                .page(
                    "/privacy",
                    Response::html("<p>We collect your email address.</p>"),
                ),
        );
        domains.push(domain);
    }
    (net, domains)
}

/// Fault config from integer percentages (the vendored proptest has no
/// float strategies): `(connect%, 5xx%, reset%, ratelimit%)` plus burst and
/// Retry-After knobs.
fn faults_from(rates: (u64, u64, u64, u64), burst_max: u32, retry_after_ms: u64) -> FaultConfig {
    let (connect, flaky, reset, limit) = rates;
    FaultConfig {
        connect_failure: connect as f64 / 100.0,
        flaky_5xx: flaky as f64 / 100.0,
        conn_reset: reset as f64 / 100.0,
        rate_limit: limit as f64 / 100.0,
        burst_max,
        retry_after_ms,
        ..FaultConfig::default()
    }
}

fn options_from(retry: (u32, u64, u64, u32), seed: u64) -> CrawlOptions {
    let (max_attempts, base_backoff_ms, jitter_ms, domain_budget) = retry;
    CrawlOptions {
        retry: RetryPolicy {
            max_attempts,
            base_backoff_ms,
            jitter_ms,
            domain_budget,
            ..RetryPolicy::default()
        },
        seed,
    }
}

/// A stable, comparable fingerprint of a crawl result (DomainCrawl holds
/// page bodies and is deliberately not PartialEq).
fn fingerprint(crawls: &[DomainCrawl]) -> Vec<String> {
    crawls
        .iter()
        .map(|c| {
            let pages: Vec<String> = c
                .pages
                .iter()
                .map(|p| {
                    format!(
                        "{}|{}|{:?}|{}",
                        p.final_url.path,
                        p.status.0,
                        p.via,
                        p.body.len()
                    )
                })
                .collect();
            format!(
                "{} {:?} attempts={} retries={} robots={}/{} delay={} pages=[{}]",
                c.domain,
                c.outcome,
                c.fetch_attempts,
                c.retries,
                c.robots_skipped,
                c.robots_blocked,
                c.politeness_delay_ms,
                pages.join(", ")
            )
        })
        .collect()
}

proptest! {
    // Any fault/retry configuration: the crawl completes without panics,
    // every domain is accounted for, and the transport counters conserve
    // (requests == responses + every failure class).
    #[test]
    fn chaos_crawl_never_panics_and_conserves_counters(
        rates in (0u64..25, 0u64..40, 0u64..30, 0u64..25),
        burst in (1u32..5, 0u64..3000),
        retry in (1u32..5, 0u64..1000, 0u64..400, 2u32..20),
        run in (0u64..1_000_000, 0u64..1_000_000, 1usize..6),
    ) {
        let (burst_max, retry_after_ms) = burst;
        let (fault_seed, session_seed, workers) = run;
        let faults = faults_from(rates, burst_max, retry_after_ms);
        let options = options_from(retry, session_seed);
        let (net, domains) = make_net(8);
        let client = Client::new(net, FaultInjector::new(fault_seed, faults));
        let crawls = crawl_all_with(&client, &domains, PoolConfig { workers }, &options);
        prop_assert_eq!(crawls.len(), domains.len());
        let m = client.metrics();
        prop_assert!(m.is_conserved(), "unbalanced transport counters: {:?}", m);
    }

    // Results and shared transport metrics are byte-identical for any two
    // worker counts under any fault/retry configuration.
    #[test]
    fn chaos_crawl_identical_across_worker_counts(
        rates in (0u64..25, 0u64..40, 0u64..30, 0u64..25),
        burst in (1u32..5, 0u64..3000),
        retry in (1u32..5, 0u64..1000, 0u64..400, 2u32..20),
        run in (0u64..1_000_000, 0u64..1_000_000, 1usize..5, 5usize..9),
    ) {
        let (burst_max, retry_after_ms) = burst;
        let (fault_seed, session_seed, workers_a, workers_b) = run;
        let faults = faults_from(rates, burst_max, retry_after_ms);
        let options = options_from(retry, session_seed);
        let (net, domains) = make_net(10);
        let client_a = Client::new(net.clone(), FaultInjector::new(fault_seed, faults));
        let client_b = Client::new(net, FaultInjector::new(fault_seed, faults));
        let a = crawl_all_with(&client_a, &domains, PoolConfig { workers: workers_a }, &options);
        let b = crawl_all_with(&client_b, &domains, PoolConfig { workers: workers_b }, &options);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(client_a.metrics(), client_b.metrics());
    }
}

/// The circuit breaker bounds the number of transport requests a dead host
/// can absorb, even when the caller keeps hammering it.
#[test]
fn breaker_bounds_requests_to_dead_host() {
    let net = Internet::new();
    // Not registering the domain → every fetch is a DNS failure.
    let client = Client::new(net, FaultInjector::new(3, FaultConfig::none()));
    let options = CrawlOptions::default();
    for _ in 0..25 {
        let crawl = crawl_domain_with(&client, "dead.example", &options);
        assert!(!crawl.is_success());
    }
    let m = client.metrics();
    // Each crawl opens a fresh session; the breaker threshold caps the
    // requests any single session can send to the dead host, so the total
    // is bounded by crawls × threshold rather than crawls × attempts.
    let per_session_cap = options.retry.breaker_threshold as u64 + 1;
    assert!(
        m.requests <= 25 * per_session_cap,
        "dead host absorbed {} requests",
        m.requests
    );
    assert!(m.is_conserved(), "unbalanced transport counters: {m:?}");
}
