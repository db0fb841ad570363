//! Whole-universe crawling on one scoped worker pool.
//!
//! Every multi-domain drive goes through [`stream_all_supervised`]: one
//! worker body (crawl → process → result or dead letter) runs
//! inline on the caller's thread when `workers <= 1`, and otherwise on
//! `workers` scoped threads that each take the next domain from a shared
//! atomic cursor over the caller's slice. Workers hand back their results,
//! dead letters and state when joined, and results are re-sorted by domain
//! so output order is deterministic regardless of scheduling.
//! [`crawl_all_with`] is that driver with a `process` that returns the
//! crawl.

use crate::crawl::{crawl_domain_with, CrawlOptions, DomainCrawl};
use aipan_net::Client;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of crawler worker threads.
    pub workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(16))
            .unwrap_or(4);
        PoolConfig { workers }
    }
}

/// Crawl every domain in `domains` with default [`CrawlOptions`] and return
/// the results sorted by domain.
pub fn crawl_all(client: &Client, domains: &[String], config: PoolConfig) -> Vec<DomainCrawl> {
    crawl_all_with(client, domains, config, &CrawlOptions::default())
}

/// Crawl every domain in `domains` and return the results sorted by domain.
///
/// Each domain crawl owns its own fetch session seeded from `options`, so
/// results are byte-identical for any worker count. The crawl runs on
/// [`stream_all_supervised`]; if a domain's crawl panics, the first dead
/// letter (by domain) is re-raised on the caller's thread once the pool
/// has drained, instead of returning a silently truncated result set.
pub fn crawl_all_with(
    client: &Client,
    domains: &[String],
    config: PoolConfig,
    options: &CrawlOptions,
) -> Vec<DomainCrawl> {
    let outcome = stream_all_supervised(
        client,
        domains,
        config,
        options,
        || (),
        |_state: &mut (), crawl: DomainCrawl| crawl,
        |_state: &mut ()| {},
        |_letter: &DeadLetter| {},
    );
    if let Some(letter) = outcome.dead_letters.into_iter().next() {
        std::panic::resume_unwind(Box::new(letter.message));
    }
    outcome
        .results
        .into_iter()
        .map(|(_, crawl)| crawl)
        .collect()
}

/// Stage of the per-domain chain a supervised panic was caught in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailStage {
    /// The crawl itself (fetching pages over the virtual transport).
    Crawl,
    /// The caller's `process` closure (extract / segment / annotate /
    /// journal).
    Process,
}

impl FailStage {
    /// Stable lowercase label used in dead-letter records and health
    /// reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FailStage::Crawl => "crawl",
            FailStage::Process => "process",
        }
    }
}

/// A per-domain panic captured by [`stream_all_supervised`]: which domain
/// died, in which stage of its chain, and the rendered panic message.
///
/// Dead letters are deterministic for a deterministic workload: whether a
/// given domain panics (and in which stage) is a pure function of the
/// domain, so the dead-letter set is worker-count invariant even though
/// which *worker* absorbs the panic is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Domain whose chain panicked.
    pub domain: String,
    /// Chain stage that panicked.
    pub stage: FailStage,
    /// Panic payload (`String`/`&str` payloads verbatim, an opaque marker
    /// otherwise).
    pub message: String,
}

/// Everything a supervised streaming drive returns.
pub struct SupervisedOutcome<R, S> {
    /// Per-domain results of the surviving domains, sorted by domain.
    pub results: Vec<(String, R)>,
    /// One record per panicking domain, sorted by domain.
    pub dead_letters: Vec<DeadLetter>,
    /// Every worker's final state (in unspecified order: fold worker
    /// states commutatively).
    pub states: Vec<S>,
}

/// Render a caught panic payload into a dead-letter message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome of one supervised per-domain chain.
enum ChainOutcome<R> {
    Done(R),
    Died(FailStage, String),
}

/// Run one domain's crawl → process chain with each stage under
/// `catch_unwind`, so the caught stage can be attributed in the dead
/// letter. `AssertUnwindSafe` is sound here because the caller repairs
/// `state` through its `recover` hook before reusing it after a panic.
fn run_chain<S, R>(
    client: &Client,
    domain: &str,
    options: &CrawlOptions,
    state: &mut S,
    process: &(impl Fn(&mut S, DomainCrawl) -> R + Sync),
) -> ChainOutcome<R> {
    let crawl = match catch_unwind(AssertUnwindSafe(|| {
        crawl_domain_with(client, domain, options)
    })) {
        Ok(crawl) => crawl,
        Err(payload) => return ChainOutcome::Died(FailStage::Crawl, panic_message(payload)),
    };
    match catch_unwind(AssertUnwindSafe(|| process(state, crawl))) {
        Ok(result) => ChainOutcome::Done(result),
        Err(payload) => ChainOutcome::Died(FailStage::Process, panic_message(payload)),
    }
}

/// Drive every domain through the **whole** per-domain chain on the worker
/// pool: each worker crawls a domain and immediately hands the finished
/// crawl to `process`, so generate → crawl → extract → annotate run
/// end-to-end inside one worker task. `process` takes the crawl by value —
/// page bodies can be dropped the moment the domain is done, which is what
/// bounds a streaming run's memory by in-flight domains rather than the
/// universe.
///
/// `init` builds one private state value per worker (scratch arenas,
/// per-worker tallies); `process` may mutate it freely without locks.
///
/// The drive is supervised: a panic anywhere in one domain's chain does
/// not kill the run. The panic is caught per-domain, rendered into a
/// [`DeadLetter`] (handed to `on_dead_letter` at the moment it happens,
/// e.g. to quarantine it in a journal), the worker's state is repaired
/// through `recover` — reset scratch buffers, keep commutative tallies —
/// and the worker moves on to the next domain. Workers never die, so the
/// result set is never truncated: it is exactly the surviving domains,
/// sorted by domain, and byte-identical for any worker count because each
/// domain's work is a pure function of the domain.
///
/// With `workers <= 1` the worker body runs on the caller's thread.
/// Otherwise `workers` scoped threads share one atomic cursor into
/// `domains`, so each domain is dispatched exactly once; every worker's
/// final state comes back (in unspecified order: fold worker states
/// commutatively), including those of workers that found nothing left to
/// take.
///
#[allow(clippy::too_many_arguments)]
pub fn stream_all_supervised<S, R, I, F, G, D>(
    client: &Client,
    domains: &[String],
    config: PoolConfig,
    options: &CrawlOptions,
    init: I,
    process: F,
    recover: G,
    on_dead_letter: D,
) -> SupervisedOutcome<R, S>
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, DomainCrawl) -> R + Sync,
    G: Fn(&mut S) + Sync,
    D: Fn(&DeadLetter) + Sync,
{
    let workers = config.workers.max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done: Vec<Result<(String, R), DeadLetter>> =
            Vec::with_capacity(domains.len().div_ceil(workers));
        // Relaxed: the cursor publishes nothing but an index into the
        // immutable `domains` slice.
        let next = || domains.get(cursor.fetch_add(1, Ordering::Relaxed));
        for domain in std::iter::from_fn(next) {
            let outcome = run_chain(client, domain, options, &mut state, &process);
            done.push(match outcome {
                ChainOutcome::Done(result) => Ok((domain.clone(), result)),
                ChainOutcome::Died(stage, message) => {
                    recover(&mut state);
                    let letter = DeadLetter {
                        domain: domain.clone(),
                        stage,
                        message,
                    };
                    on_dead_letter(&letter);
                    Err(letter)
                }
            });
        }
        (done, state)
    };
    let harvests = if workers == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            // Workers catch every per-domain panic, so a join failure can
            // only come from the supervisor scaffolding or the caller's
            // `init`/`recover`/`on_dead_letter` hooks — re-raise it.
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect::<Vec<_>>()
        })
    };

    let mut outcome = SupervisedOutcome {
        results: Vec::with_capacity(domains.len()),
        dead_letters: Vec::new(),
        states: Vec::with_capacity(workers),
    };
    for (done, state) in harvests {
        for item in done {
            match item {
                Ok(pair) => outcome.results.push(pair),
                Err(letter) => outcome.dead_letters.push(letter),
            }
        }
        outcome.states.push(state);
    }
    outcome.results.sort_by(|a, b| a.0.cmp(&b.0));
    outcome.dead_letters.sort_by(|a, b| a.domain.cmp(&b.domain));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_net::fault::{FaultConfig, FaultInjector};
    use aipan_net::host::StaticSite;
    use aipan_net::http::Response;
    use aipan_net::Internet;

    fn make_net(n: usize) -> (Internet, Vec<String>) {
        let net = Internet::new();
        let mut domains = Vec::new();
        for i in 0..n {
            let domain = format!("site{i}.com");
            net.register(
                &domain,
                StaticSite::new()
                    .page(
                        "/",
                        Response::html("<footer><a href=\"/privacy\">Privacy Policy</a></footer>"),
                    )
                    .page("/privacy", Response::html("<p>policy</p>")),
            );
            domains.push(domain);
        }
        (net, domains)
    }

    #[test]
    fn crawls_all_domains_sorted() {
        let (net, mut domains) = make_net(37);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let results = crawl_all(&client, &domains, PoolConfig { workers: 4 });
        assert_eq!(results.len(), 37);
        domains.sort();
        let got: Vec<_> = results.iter().map(|r| r.domain.clone()).collect();
        assert_eq!(got, domains);
        assert!(results.iter().all(|r| r.is_success()));
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let (net, domains) = make_net(12);
        let client1 = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
        let client8 = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let a = crawl_all(&client1, &domains, PoolConfig { workers: 1 });
        let b = crawl_all(&client8, &domains, PoolConfig { workers: 8 });
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.pages.len(), y.pages.len());
        }
    }

    #[test]
    fn empty_domain_list() {
        let (net, _) = make_net(1);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let results = crawl_all(&client, &[], PoolConfig::default());
        assert!(results.is_empty());
    }

    #[test]
    #[should_panic(expected = "host exploded")]
    fn worker_panic_propagates_instead_of_truncating_results() {
        let (net, mut domains) = make_net(6);
        net.register("boom.com", |_req: &aipan_net::Request| -> Response {
            panic!("host exploded")
        });
        domains.push("boom.com".to_string());
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        // Without propagation this returns 6 quietly-wrong results.
        crawl_all(&client, &domains, PoolConfig { workers: 3 });
    }

    #[test]
    fn transient_faults_do_not_disturb_worker_determinism() {
        let (net, domains) = make_net(20);
        let cfg = FaultConfig {
            flaky_5xx: 0.3,
            conn_reset: 0.2,
            rate_limit: 0.1,
            burst_max: 2,
            ..FaultConfig::none()
        };
        let client1 = Client::new(net.clone(), FaultInjector::new(5, cfg));
        let client6 = Client::new(net, FaultInjector::new(5, cfg));
        let options = CrawlOptions::default();
        let a = crawl_all_with(&client1, &domains, PoolConfig { workers: 1 }, &options);
        let b = crawl_all_with(&client6, &domains, PoolConfig { workers: 6 }, &options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.retries, y.retries);
            assert_eq!(x.fetch_attempts, y.fetch_attempts);
        }
        assert_eq!(client1.metrics(), client6.metrics());
    }

    /// [`stream_all_supervised`] with no-op `recover`/`on_dead_letter`
    /// hooks.
    fn stream<S: Send, R: Send>(
        client: &Client,
        domains: &[String],
        workers: usize,
        init: impl Fn() -> S + Sync,
        process: impl Fn(&mut S, DomainCrawl) -> R + Sync,
    ) -> SupervisedOutcome<R, S> {
        stream_all_supervised(
            client,
            domains,
            PoolConfig { workers },
            &CrawlOptions::default(),
            init,
            process,
            |_state: &mut S| {},
            |_letter: &DeadLetter| {},
        )
    }

    #[test]
    fn streaming_results_invariant_across_worker_counts() {
        // 15 domains outnumber every worker count; 3 domains leave 5 and 8
        // workers with nothing to take.
        for n in [15usize, 3] {
            let (net, domains) = make_net(n);
            let mut baseline: Option<Vec<(String, usize)>> = None;
            for workers in [1usize, 2, 5, 8] {
                let client = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
                let outcome = stream(
                    &client,
                    &domains,
                    workers,
                    || 0usize,
                    |count: &mut usize, crawl: DomainCrawl| {
                        *count += 1;
                        crawl.pages.len()
                    },
                );
                assert_eq!(outcome.states.len(), workers);
                // The per-worker counters sum to the domain count: the
                // cursor dispatches each domain exactly once.
                assert_eq!(
                    outcome.states.iter().sum::<usize>(),
                    n,
                    "n={n} workers={workers}"
                );
                match &baseline {
                    None => baseline = Some(outcome.results),
                    Some(expected) => assert_eq!(&outcome.results, expected),
                }
            }
        }
    }

    #[test]
    fn streaming_empty_domain_list_yields_worker_states() {
        let (net, _) = make_net(1);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let outcome = stream(&client, &[], 3, || 7u32, |_state: &mut u32, _crawl| ());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.states, vec![7, 7, 7]);
    }

    #[test]
    fn streaming_funnels_merge_to_batch_report() {
        use crate::report::{CrawlFunnel, CrawlReport};
        let (net, mut domains) = make_net(10);
        domains.push("ghost.com".to_string());
        let client = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
        let batch = CrawlReport::new(crawl_all(&client, &domains, PoolConfig { workers: 1 }));
        let outcome = stream(
            &client,
            &domains,
            4,
            CrawlFunnel::default,
            |funnel: &mut CrawlFunnel, crawl: DomainCrawl| funnel.absorb(&crawl),
        );
        let mut merged = CrawlFunnel::default();
        for funnel in &outcome.states {
            merged.merge(funnel);
        }
        assert_eq!(merged, batch.funnel);
    }

    #[test]
    fn supervised_crawl_panic_becomes_dead_letter_not_truncation() {
        let (net, mut domains) = make_net(6);
        net.register("boom.com", |_req: &aipan_net::Request| -> Response {
            panic!("host exploded")
        });
        domains.push("boom.com".to_string());
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let outcome = stream_all_supervised(
            &client,
            &domains,
            PoolConfig { workers: 3 },
            &CrawlOptions::default(),
            || 0usize,
            |count: &mut usize, crawl: DomainCrawl| {
                *count += 1;
                crawl.pages.len()
            },
            |_count: &mut usize| {},
            |_letter: &DeadLetter| {},
        );
        assert_eq!(outcome.results.len(), 6, "survivors all present");
        assert_eq!(
            outcome.dead_letters,
            vec![DeadLetter {
                domain: "boom.com".to_string(),
                stage: FailStage::Crawl,
                message: "host exploded".to_string(),
            }]
        );
    }

    #[test]
    fn supervised_process_panic_attributed_and_state_recovered() {
        let (net, domains) = make_net(8);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let recoveries = std::sync::atomic::AtomicUsize::new(0);
        let observed = std::sync::Mutex::new(Vec::<String>::new());
        for workers in [1usize, 3] {
            recoveries.store(0, Ordering::SeqCst);
            observed.lock().unwrap().clear();
            let outcome = stream_all_supervised(
                &client,
                &domains,
                PoolConfig { workers },
                &CrawlOptions::default(),
                || 0usize,
                |count: &mut usize, crawl: DomainCrawl| {
                    if crawl.domain == "site3.com" {
                        panic!("annotator exploded");
                    }
                    *count += 1;
                },
                |_count: &mut usize| {
                    recoveries.fetch_add(1, Ordering::SeqCst);
                },
                |letter: &DeadLetter| {
                    observed.lock().unwrap().push(letter.domain.clone());
                },
            );
            assert_eq!(outcome.results.len(), 7, "workers={workers}");
            assert_eq!(outcome.dead_letters.len(), 1);
            assert_eq!(outcome.dead_letters[0].stage, FailStage::Process);
            assert_eq!(outcome.dead_letters[0].stage.as_str(), "process");
            assert_eq!(outcome.dead_letters[0].message, "annotator exploded");
            assert_eq!(recoveries.load(Ordering::SeqCst), 1);
            assert_eq!(&*observed.lock().unwrap(), &["site3.com".to_string()]);
            assert_eq!(outcome.states.iter().sum::<usize>(), 7);
        }
    }

    #[test]
    fn supervised_dead_letters_worker_count_invariant() {
        let (net, mut domains) = make_net(12);
        for bad in ["kaboom.com", "fizzle.com"] {
            net.register(bad, |_req: &aipan_net::Request| -> Response {
                panic!("host exploded")
            });
            domains.push(bad.to_string());
        }
        let mut baseline = None;
        for workers in [1usize, 2, 5, 8] {
            let client = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
            let outcome = stream_all_supervised(
                &client,
                &domains,
                PoolConfig { workers },
                &CrawlOptions::default(),
                || (),
                |_state: &mut (), crawl: DomainCrawl| crawl.pages.len(),
                |_state: &mut ()| {},
                |_letter: &DeadLetter| {},
            );
            match &baseline {
                None => baseline = Some((outcome.results, outcome.dead_letters)),
                Some((results, letters)) => {
                    assert_eq!(&outcome.results, results, "workers={workers}");
                    assert_eq!(&outcome.dead_letters, letters, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn unknown_domains_reported_as_failures() {
        let (net, mut domains) = make_net(3);
        domains.push("ghost.com".to_string());
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let results = crawl_all(&client, &domains, PoolConfig { workers: 2 });
        let ghost = results.iter().find(|r| r.domain == "ghost.com").unwrap();
        assert!(!ghost.is_success());
    }
}
