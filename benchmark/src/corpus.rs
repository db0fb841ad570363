//! The corpus workloads: `corpus_stream` and `resume_recrawl_chaos`.
//!
//! Untraced runs time `ShardedJournal::open` → `run_pipeline_sharded` →
//! `ShardedJournal::consolidate`, exactly as a caller of the library would.
//! Traced runs drive the same per-domain chain from this file instead —
//! one thread per worker, each taking the next domain of a closed batch —
//! and time every layer call in the order `run_pipeline_sharded` makes it:
//! `crawl_domain_with` → `Pipeline::english_privacy_pages` → `segment` →
//! `annotate_policy_in` → `ShardedJournal::record`. The traced chain's
//! dataset and funnels must be byte-identical to the untraced run's.

use crate::calib::Calibration;
use crate::stats::{median, ms, percentile, repeat_for, reset_peak_rss, timed};
use crate::trace::{Inner, TimingChatbot, TimingHost};
use crate::{alloc, Outcome, WORKERS};
use aipan_chatbot::SimulatedChatbot;
use aipan_core::annotate::annotate_policy_in;
use aipan_core::segment::{self, Method, SegmentedPolicy};
use aipan_core::{
    run_pipeline_sharded, segment_path, AnnotateArena, AnnotatedPolicy, Dataset, ExtractionFunnel,
    JournalEntry, Pipeline, PipelineConfig, RunJournal, SegmentationMethod, ShardedJournal,
    DEFAULT_SHARDS,
};
use aipan_crawler::{crawl_domain_with, CrawlFunnel};
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::{Client, ContentType, TransportMetrics, VirtualHost};
use aipan_taxonomy::Sector;
use aipan_webgen::{build_world, build_world_lazy, World, WorldConfig};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A corpus workload's fixed definition; only the seed varies.
pub struct CorpusSpec {
    /// Universe size (companies; a few share a domain).
    pub companies: usize,
    /// Resume an eager world (every site rendered at set-up) under
    /// `FaultConfig::chaotic()` from a journal that already holds every
    /// domain, instead of streaming a lazy world (sites rendered on first
    /// fetch, released per domain) under the default faults into an empty
    /// journal.
    pub resume: bool,
}

/// Stream a lazy world into an empty journal.
pub const CORPUS_STREAM: CorpusSpec = CorpusSpec {
    companies: 800,
    resume: false,
};

/// Re-crawl an eager chaotic world against a complete journal.
pub const RESUME_RECRAWL_CHAOS: CorpusSpec = CorpusSpec {
    companies: 1000,
    resume: true,
};

/// Extra world builds ahead of each untraced repetition; `setup_s` is the
/// median of every build of a run. Spreading them over the run, rather than
/// making them all at the start, keeps a few seconds of host slowdown from
/// deciding the median.
const SETUP_PER_REP: usize = 3;

/// Fewest timed repetitions per phase, whatever the time budget.
const MIN_REPS: usize = 3;

fn build(spec: &CorpusSpec, seed: u64) -> World {
    let mut config = WorldConfig::small(seed, spec.companies);
    if spec.resume {
        config.faults = FaultConfig::chaotic();
        build_world(config)
    } else {
        config.faults = FaultConfig::default();
        build_world_lazy(config)
    }
}

/// Seconds one more build of the world takes (the world is dropped).
fn setup_sample(spec: &CorpusSpec, seed: u64) -> f64 {
    let (world, took) = timed(|| build(spec, seed));
    drop(world);
    took.as_secs_f64()
}

/// Length and FNV-1a hash of a byte stream: what a run keeps of an output
/// it must reproduce byte for byte, so the benchmark holds no copy of it.
#[derive(PartialEq, Clone, Copy)]
struct Fingerprint(usize, u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0, 0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fingerprint {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &byte in buf {
            self.1 ^= u64::from(byte);
            self.1 = self.1.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Fingerprint {
    /// Of a JSON rendering (empty when rendering failed).
    fn of_json(text: serde_json::Result<String>) -> Fingerprint {
        let mut fingerprint = Fingerprint::default();
        let _ = fingerprint.write(text.unwrap_or_default().as_bytes());
        fingerprint
    }

    /// Of the file at `path` (empty when it cannot be read), hashed as it
    /// is read.
    fn of_file(path: &Path) -> Fingerprint {
        let mut fingerprint = Fingerprint::default();
        if let Ok(mut file) = std::fs::File::open(path) {
            let _ = std::io::copy(&mut file, &mut fingerprint);
        }
        fingerprint
    }
}

/// The serialised outputs that must not change between runs of one
/// workload and seed.
#[derive(PartialEq)]
struct Output {
    dataset: Fingerprint,
    crawl_funnel: Fingerprint,
    extraction: Fingerprint,
}

impl Output {
    fn of(dataset: &Dataset, crawl: &CrawlFunnel, extraction: &ExtractionFunnel) -> Output {
        Output {
            dataset: Fingerprint::of_json(dataset.to_json()),
            crawl_funnel: Fingerprint::of_json(serde_json::to_string(crawl)),
            extraction: Fingerprint::of_json(serde_json::to_string(extraction)),
        }
    }
}

/// One untraced run.
struct Rep {
    run_s: f64,
    /// `VmHWM` from the start of the run to the end of `consolidate`.
    peak_rss_mb: f64,
    output: Output,
    domains: u64,
    quarantined: u64,
    write_errors: u64,
    verdict: String,
    chatbot_calls: u64,
}

/// Empty `dir` (the journal of a fresh run).
fn clear(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// The consolidated journals of a run's repetitions: every one must leave
/// the same bytes at `base`, and the last is parsed back once at the end,
/// after every timing and memory reading.
struct JournalCheck {
    first: Option<Fingerprint>,
    /// The latest repetition's journal and its domain count.
    last: Option<(ShardedJournal, usize)>,
}

impl JournalCheck {
    /// Compare the file a repetition left at `base` with the first one,
    /// and keep `journal` for [`JournalCheck::finish`].
    fn check(&mut self, out: &mut Outcome, base: &Path, journal: ShardedJournal, domains: usize) {
        let fingerprint = Fingerprint::of_file(base);
        match self.first {
            Some(expected) => out.gate(fingerprint == expected, || {
                "consolidated journal differs between runs of one seed".to_string()
            }),
            None => self.first = Some(fingerprint),
        }
        self.last = Some((journal, domains));
    }

    /// Parse the last consolidated journal back: one entry per domain,
    /// equal to that run's in-memory merge. The earlier ones left the same
    /// bytes, so this checks them all.
    fn finish(self, out: &mut Outcome, base: &Path) {
        let Some((journal, domains)) = self.last else {
            return;
        };
        let on_disk = RunJournal::from_jsonl(&std::fs::read_to_string(base).unwrap_or_default());
        out.gate(on_disk == journal.merged(), || {
            "consolidated journal differs from the run's journal".to_string()
        });
        out.gate(on_disk.len() == domains, || {
            format!(
                "consolidated journal holds {} entries for {domains} domains",
                on_disk.len()
            )
        });
    }
}

/// One untraced run: open, `run_pipeline_sharded`, consolidate. The
/// process's peak resident set is reset at the start and read when
/// `consolidate` returns, before any check of the benchmark runs.
fn pipeline_rep(
    out: &mut Outcome,
    world: &World,
    config: &PipelineConfig,
    base: &Path,
    journals: &mut JournalCheck,
) -> Result<Rep, String> {
    // The previous repetition's journal goes before the reset.
    journals.last = None;
    if let Err(e) = reset_peak_rss() {
        out.note_once(e);
    }
    let start = Instant::now();
    let journal = ShardedJournal::open(base, DEFAULT_SHARDS);
    let run = run_pipeline_sharded(world, config.clone(), &journal);
    journal
        .consolidate(base)
        .map_err(|e| format!("consolidate: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let domains = run.crawl_funnel.domains_total;
    journals.check(out, base, journal, domains);
    Ok(Rep {
        run_s,
        peak_rss_mb,
        output: Output::of(&run.dataset, &run.crawl_funnel, &run.extraction),
        domains: domains as u64,
        quarantined: run.health.quarantine.len() as u64,
        write_errors: run.health.journal_write_errors,
        verdict: run.health.verdict.clone(),
        chatbot_calls: run.usage.iter().map(|(_, usage)| usage.calls).sum(),
    })
}

fn config_for(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        workers: WORKERS,
        ..PipelineConfig::default()
    }
}

/// Run a corpus workload: end-to-end metrics, or per-layer ones when
/// `traced`.
pub fn run(
    spec: &CorpusSpec,
    seed: u64,
    budget: Duration,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = build(spec, seed);
    let config = config_for(seed);
    let base = work.join("journal.jsonl");
    let mut journals = JournalCheck {
        first: None,
        last: None,
    };

    // The resume workload's journal: one untimed run of the same
    // configuration, whose dataset every resumed run must reproduce.
    let mut reference: Option<Output> = None;
    if spec.resume {
        clear(work)?;
        let seeding = pipeline_rep(&mut out, &world, &config, &base, &mut journals)?;
        out.gate(seeding.quarantined + seeding.write_errors == 0, || {
            "the seeding run lost domains".to_string()
        });
        out.notes.push(format!(
            "seeding run: {} domains in {:.3} s",
            seeding.domains, seeding.run_s
        ));
        reference = Some(seeding.output);
    }

    // The timed phase. Each repetition times the library's entry points;
    // a traced run follows each with one drive of the traced chain, so
    // drift on a shared host hits both alike and `trace.overhead_share`
    // compares like with like. An untraced repetition is bracketed by
    // calibration samples, which scale its times (see `calib.rs`).
    let mut calibration = Calibration::new();
    let mut run_times: Vec<f64> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut traced_reps: Vec<TracedRep> = Vec::new();
    let mut failure: Option<String> = None;
    let fresh_journal = || if spec.resume { Ok(()) } else { clear(work) };
    repeat_for(budget, MIN_REPS, || {
        if !traced {
            calibration.open_bracket();
            for _ in 0..SETUP_PER_REP {
                calibration.setup(setup_sample(spec, seed));
            }
        }
        let rep = match fresh_journal()
            .and_then(|()| pipeline_rep(&mut out, &world, &config, &base, &mut journals))
        {
            Ok(rep) => rep,
            Err(e) => {
                failure = Some(e);
                return false;
            }
        };
        out.attempted += rep.domains;
        out.failed += rep.quarantined + rep.write_errors;
        if spec.resume {
            out.gate(rep.chatbot_calls == 0, || {
                format!(
                    "resumed run made {} chatbot calls; expected none",
                    rep.chatbot_calls
                )
            });
        } else {
            out.gate(rep.verdict == "ok" && rep.quarantined == 0, || {
                format!(
                    "verdict {:?} with {} quarantined domain(s); expected ok and none",
                    rep.verdict, rep.quarantined
                )
            });
        }
        match &reference {
            Some(expected) => out.gate(rep.output == *expected, || {
                if spec.resume {
                    "resumed dataset differs from the seeding run's".to_string()
                } else {
                    "dataset differs between runs of one seed".to_string()
                }
            }),
            None => reference = Some(rep.output),
        }
        run_times.push(rep.run_s);
        peaks.push(rep.peak_rss_mb);
        if !traced {
            calibration.run(rep.run_s, rep.domains as f64);
            return true;
        }

        if let Err(e) = fresh_journal() {
            failure = Some(e);
            return false;
        }
        let originals = install_timing_hosts(&world);
        alloc::set_counting(true);
        let result = traced_rep(&mut out, &world, &config, &base, &mut journals);
        alloc::set_counting(false);
        restore_hosts(&world, originals);
        match result {
            Ok(traced) => {
                out.gate(reference.as_ref() == Some(&traced.output), || {
                    "traced chain's dataset or funnels differ from run_pipeline_sharded's"
                        .to_string()
                });
                out.attempted += traced.layers.domains;
                traced_reps.push(traced);
                true
            }
            Err(e) => {
                failure = Some(e);
                false
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    journals.finish(&mut out, &base);
    let untraced_run_s = median(&run_times);
    out.notes.push(format!(
        "{} untraced run(s): median {:.4} s, {} domains each, {} worker(s); runs {:.4?}",
        run_times.len(),
        untraced_run_s,
        world.universe.unique_domains().len(),
        WORKERS,
        run_times
    ));
    if traced {
        report_layers(&mut out, &world, &traced_reps, untraced_run_s);
        return Ok(out);
    }
    let scaled = calibration.finish();
    out.notes.push(format!(
        "calibration sample: median {:.4} s; scaled runs {:.4?}",
        scaled.calibration_s, scaled.runs
    ));
    out.set("run_s", scaled.run_s);
    out.set("items_per_s", scaled.items_per_s);
    out.set("setup_s", scaled.setup_s);
    out.set("peak_rss_mb", median(&peaks));
    out.notes.push(format!(
        "failed_share {:.6} ({} of {} domains)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    Ok(out)
}

/// Register a [`TimingHost`] over every site of `world`; returns the
/// hosts it replaced.
fn install_timing_hosts(world: &World) -> Vec<(String, Arc<dyn VirtualHost>)> {
    let mut originals = Vec::new();
    for company in world.universe.unique_domains() {
        let domain = &company.domain;
        if let Some(host) = world.internet.resolve(domain) {
            let lazy = world.lazy_hosts.get(domain).cloned();
            world
                .internet
                .register_shared(domain, Arc::new(TimingHost::new(host.clone(), lazy)));
            originals.push((domain.clone(), host));
        }
    }
    originals
}

/// Put back the hosts [`install_timing_hosts`] replaced.
fn restore_hosts(world: &World, originals: Vec<(String, Arc<dyn VirtualHost>)>) {
    for (domain, host) in originals {
        world.internet.register_shared(&domain, host);
    }
}

/// Layer totals of one traced run, summed over workers.
#[derive(Default, Clone)]
struct Layers {
    inner: Inner,
    domains: u64,
    crawl_self_ns: u64,
    crawl_allocs: u64,
    crawl_success: u64,
    pages: u64,
    body_bytes: u64,
    html_ns: u64,
    html_allocs: u64,
    html_pages_in: u64,
    html_bytes_in: u64,
    english_pages: u64,
    segment_self_ns: u64,
    segment_allocs: u64,
    policies_segmented: u64,
    headings: u64,
    annotate_self_ns: u64,
    annotate_allocs: u64,
    annotate_first_attempts: u64,
    annotate_malformed_first: u64,
    annotations: u64,
    fallbacks: u64,
    hallucinations: u64,
    record_ns: u64,
    record_allocs: u64,
    records: u64,
    busy_ns: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.inner.add(o.inner);
        self.domains += o.domains;
        self.crawl_self_ns += o.crawl_self_ns;
        self.crawl_allocs += o.crawl_allocs;
        self.crawl_success += o.crawl_success;
        self.pages += o.pages;
        self.body_bytes += o.body_bytes;
        self.html_ns += o.html_ns;
        self.html_allocs += o.html_allocs;
        self.html_pages_in += o.html_pages_in;
        self.html_bytes_in += o.html_bytes_in;
        self.english_pages += o.english_pages;
        self.segment_self_ns += o.segment_self_ns;
        self.segment_allocs += o.segment_allocs;
        self.policies_segmented += o.policies_segmented;
        self.headings += o.headings;
        self.annotate_self_ns += o.annotate_self_ns;
        self.annotate_allocs += o.annotate_allocs;
        self.annotate_first_attempts += o.annotate_first_attempts;
        self.annotate_malformed_first += o.annotate_malformed_first;
        self.annotations += o.annotations;
        self.fallbacks += o.fallbacks;
        self.hallucinations += o.hallucinations;
        self.record_ns += o.record_ns;
        self.record_allocs += o.record_allocs;
        self.records += o.records;
        self.busy_ns += o.busy_ns;
    }
}

/// One worker's share of a traced run.
#[derive(Default)]
struct WorkerOut {
    layers: Layers,
    funnel: CrawlFunnel,
    chain_ms: Vec<f64>,
}

/// One traced run.
struct TracedRep {
    run_s: f64,
    output: Output,
    layers: Layers,
    chain_ms: Vec<f64>,
    idle_ns: u64,
    open_ns: u64,
    consolidate_ns: u64,
    bytes_written: u64,
    disk_retries: u64,
    net: TransportMetrics,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Wall time and the wrapper and allocation totals of one layer call on
/// this thread.
struct Span {
    start: Instant,
    inner: Inner,
    allocs: u64,
}

impl Span {
    fn open() -> Span {
        Span {
            inner: Inner::now(),
            allocs: alloc::thread_count(),
            start: Instant::now(),
        }
    }

    /// `(self ns, self allocs, wrapped calls)`: the call's wall time and
    /// allocations minus those of the wrapped host and chatbot calls
    /// inside it, and the totals of those wrapped calls.
    fn close(self) -> (u64, u64, Inner) {
        let wall = nanos(self.start.elapsed());
        let allocs = alloc::thread_count() - self.allocs;
        let inner = Inner::now().since(self.inner);
        (
            wall.saturating_sub(inner.host_ns + inner.chat_ns),
            allocs.saturating_sub(inner.host_allocs + inner.chat_allocs),
            inner,
        )
    }
}

/// One domain's chain, layer by layer, as `run_pipeline_sharded`'s worker
/// closure and `Pipeline::process_domain_arena` run it.
#[allow(clippy::too_many_arguments)]
fn chain_domain(
    w: &mut WorkerOut,
    arena: &mut AnnotateArena,
    domain: &str,
    world: &World,
    config: &PipelineConfig,
    client: &Client,
    pipeline: &Pipeline,
    chatbot: &TimingChatbot,
    journal: &ShardedJournal,
) {
    let l = &mut w.layers;
    l.domains += 1;
    let span = Span::open();
    let crawl = crawl_domain_with(client, domain, &config.crawl);
    let (ns, allocs, _) = span.close();
    l.crawl_self_ns += ns;
    l.crawl_allocs += allocs;
    l.crawl_success += u64::from(crawl.is_success());
    l.pages += crawl.pages.len() as u64;
    l.body_bytes += crawl.pages.iter().map(|p| p.body.len() as u64).sum::<u64>();
    w.funnel.absorb(&crawl);

    if !journal.contains(&crawl.domain) {
        let sector = world
            .company(&crawl.domain)
            .map(|c| c.sector)
            .unwrap_or(Sector::Industrials);
        let mut english_privacy_pages = 0;
        let mut policy = None;
        if crawl.is_success() {
            for page in crawl.privacy_pages() {
                if page.content_type == ContentType::Html {
                    l.html_pages_in += 1;
                    l.html_bytes_in += page.body.len() as u64;
                }
            }
            let span = Span::open();
            let pages = pipeline.english_privacy_pages(&crawl);
            let (ns, allocs, _) = span.close();
            l.html_ns += ns;
            l.html_allocs += allocs;
            english_privacy_pages = pages.len();
            l.english_pages += pages.len() as u64;
            let best = pages.into_iter().max_by_key(|(doc, _)| doc.word_count());
            if let Some((doc, path)) = best {
                let span = Span::open();
                let seg = if config.use_segmentation {
                    segment::segment(chatbot, &doc)
                } else {
                    SegmentedPolicy::whole_text(&doc)
                };
                let (ns, allocs, _) = span.close();
                l.segment_self_ns += ns;
                l.segment_allocs += allocs;
                l.policies_segmented += 1;
                l.headings += u64::from(seg.method == Method::Headings);
                if seg.is_successful_extraction(&doc) {
                    let span = Span::open();
                    let outcome = annotate_policy_in(chatbot, &doc, &seg, config.annotate, arena);
                    let (ns, allocs, calls) = span.close();
                    l.annotate_first_attempts += calls.chat_calls - calls.reprompts;
                    l.annotate_malformed_first += calls.first_reprompts;
                    l.annotate_self_ns += ns;
                    l.annotate_allocs += allocs;
                    l.annotations += outcome.annotations.len() as u64;
                    l.fallbacks += outcome.fallbacks.len() as u64;
                    l.hallucinations += outcome.hallucinations_removed as u64;
                    policy = Some(AnnotatedPolicy {
                        domain: crawl.domain.clone(),
                        sector,
                        annotations: outcome.annotations,
                        fallbacks: outcome.fallbacks,
                        hallucinations_removed: outcome.hallucinations_removed,
                        core_word_count: seg.core_word_count(&doc),
                        segmentation: match seg.method {
                            Method::Headings => SegmentationMethod::Headings,
                            Method::TextAnalysis => SegmentationMethod::TextAnalysis,
                        },
                        policy_path: path,
                    });
                }
            }
        }
        let entry = JournalEntry {
            domain: crawl.domain.clone(),
            english_privacy_pages,
            policy,
        };
        let span = Span::open();
        journal.record(entry);
        let (ns, allocs, _) = span.close();
        l.record_ns += ns;
        l.record_allocs += allocs;
        l.records += 1;
    }
    world.release_site(&crawl.domain);
}

/// One traced run: open, the chain on `WORKERS` threads, assembly,
/// consolidate.
fn traced_rep(
    out: &mut Outcome,
    world: &World,
    config: &PipelineConfig,
    base: &Path,
    journals: &mut JournalCheck,
) -> Result<TracedRep, String> {
    journals.last = None;
    let start = Instant::now();
    let (journal, open) = timed(|| ShardedJournal::open(base, DEFAULT_SHARDS));
    let pipeline = Pipeline::new(config.clone());
    let chatbot = TimingChatbot::new(SimulatedChatbot::new(config.profile.clone(), config.seed));
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let poisoned = journal.poisoned_domains(config.supervisor.max_kills);
    let domains: Vec<String> = world
        .universe
        .unique_domains()
        .into_iter()
        .map(|c| c.domain.clone())
        .filter(|d| poisoned.binary_search(d).is_err())
        .collect();

    let next = AtomicUsize::new(0);
    let chain_start = Instant::now();
    let workers: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut w = WorkerOut::default();
                    let mut arena = AnnotateArena::new();
                    let inner_at_start = Inner::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(domain) = domains.get(i) else { break };
                        let began = Instant::now();
                        chain_domain(
                            &mut w, &mut arena, domain, world, config, &client, &pipeline,
                            &chatbot, &journal,
                        );
                        let took = began.elapsed();
                        w.layers.busy_ns += nanos(took);
                        w.chain_ms.push(ms(took));
                    }
                    w.layers.inner = Inner::now().since(inner_at_start);
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let window_ns = nanos(chain_start.elapsed());

    // Assemble the dataset and funnels from the journal in domain order,
    // as `run_pipeline_sharded` does.
    let mut layers = Layers::default();
    let mut crawl_funnel = CrawlFunnel::default();
    let mut chain_ms = Vec::new();
    for w in &workers {
        layers.add(&w.layers);
        crawl_funnel.merge(&w.funnel);
        chain_ms.extend_from_slice(&w.chain_ms);
    }
    let mut policies: Vec<AnnotatedPolicy> = Vec::with_capacity(domains.len());
    let mut extraction = ExtractionFunnel {
        domains_total: crawl_funnel.domains_total,
        crawl_success: crawl_funnel.crawl_success,
        ..ExtractionFunnel::default()
    };
    for domain in &domains {
        if let Some(entry) = journal.get(domain) {
            extraction.english_privacy_pages += entry.english_privacy_pages;
            if let Some(policy) = entry.policy {
                policies.push(policy);
            }
        }
    }
    let mut words: Vec<usize> = Vec::with_capacity(policies.len());
    for policy in &policies {
        extraction.extraction_success += 1;
        extraction.annotated += usize::from(!policy.annotations.is_empty());
        extraction.missing_any_aspect += usize::from(!policy.missing_aspects().is_empty());
        extraction.policies_with_fallback += usize::from(!policy.fallbacks.is_empty());
        extraction.hallucinations_removed += policy.hallucinations_removed;
        words.push(policy.core_word_count);
    }
    words.sort_unstable();
    extraction.median_core_words = words.get(words.len() / 2).copied().unwrap_or(0);
    let dataset = Dataset { policies };

    let bytes_written: u64 = (0..journal.shard_count())
        .filter_map(|i| std::fs::metadata(segment_path(base, i)).ok())
        .map(|m| m.len())
        .sum();
    let (consolidated, consolidate) = timed(|| journal.consolidate(base));
    consolidated.map_err(|e| format!("consolidate: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();
    let disk_retries = journal.disk_retries() as u64;
    journals.check(out, base, journal, domains.len());

    let idle_ns = workers
        .iter()
        .map(|w| window_ns.saturating_sub(w.layers.busy_ns))
        .sum();
    Ok(TracedRep {
        run_s,
        output: Output::of(&dataset, &crawl_funnel, &extraction),
        layers,
        chain_ms,
        idle_ns,
        open_ns: nanos(open),
        consolidate_ns: nanos(consolidate),
        bytes_written,
        disk_retries,
        net: client.metrics(),
    })
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Per-layer metrics of one traced run.
fn layer_metrics(world: &World, rep: &TracedRep) -> Vec<(&'static str, f64)> {
    let l = &rep.layers;
    let i = &l.inner;
    let per_domain = |allocs: u64| ratio(allocs, l.domains);
    let nms = |ns: u64| ns as f64 / 1e6;
    let sites_built = if world.is_lazy() {
        i.sites_built
    } else {
        // The eager world renders every site at set-up.
        world.universe.unique_domains().len() as u64
    };
    vec![
        ("webgen.host_ms", nms(i.host_ns)),
        ("webgen.sites_built", sites_built as f64),
        (
            "webgen.peak_site_bytes",
            world.site_memory.peak_bytes() as f64,
        ),
        ("webgen.alloc", per_domain(i.host_allocs)),
        ("net.fetch_attempts", rep.net.requests as f64),
        ("net.retries", rep.net.retries as f64),
        ("net.breaker_opens", rep.net.breaker_opens as f64),
        ("net.retry_ratio", ratio(rep.net.retries, rep.net.requests)),
        ("crawler.self_ms", nms(l.crawl_self_ns)),
        ("crawler.pages", l.pages as f64),
        ("crawler.body_bytes", l.body_bytes as f64),
        ("crawler.success_ratio", ratio(l.crawl_success, l.domains)),
        ("crawler.alloc", per_domain(l.crawl_allocs)),
        ("html.extract_ms", nms(l.html_ns)),
        ("html.pages_in", l.html_pages_in as f64),
        ("html.bytes_in", l.html_bytes_in as f64),
        ("html.english_pages", l.english_pages as f64),
        ("html.alloc", per_domain(l.html_allocs)),
        ("segment.self_ms", nms(l.segment_self_ns)),
        ("segment.policies", l.policies_segmented as f64),
        (
            "segment.headings_share",
            ratio(l.headings, l.policies_segmented),
        ),
        ("segment.alloc", per_domain(l.segment_allocs)),
        ("chatbot.ms", nms(i.chat_ns)),
        ("chatbot.calls", i.chat_calls as f64),
        ("chatbot.input_bytes", i.input_bytes as f64),
        ("chatbot.output_bytes", i.output_bytes as f64),
        ("chatbot.reprompts", i.reprompts as f64),
        (
            "chatbot.wellformed_ratio",
            ratio(
                l.annotate_first_attempts - l.annotate_malformed_first,
                l.annotate_first_attempts,
            ),
        ),
        ("chatbot.alloc", per_domain(i.chat_allocs)),
        ("annotate.self_ms", nms(l.annotate_self_ns)),
        ("annotate.annotations", l.annotations as f64),
        ("annotate.fallbacks", l.fallbacks as f64),
        (
            "annotate.kept_ratio",
            ratio(l.annotations, l.annotations + l.hallucinations),
        ),
        ("annotate.alloc", per_domain(l.annotate_allocs)),
        ("journal.record_ms", nms(l.record_ns)),
        ("journal.records", l.records as f64),
        ("journal.bytes_written", rep.bytes_written as f64),
        ("journal.open_ms", nms(rep.open_ns)),
        ("journal.consolidate_ms", nms(rep.consolidate_ns)),
        ("journal.disk_retries", rep.disk_retries as f64),
        ("journal.alloc", per_domain(l.record_allocs)),
        ("pool.idle_ms", nms(rep.idle_ns)),
    ]
}

/// Per-metric medians over the traced runs, pooled chain percentiles, the
/// tracing overhead, and the layer split.
fn report_layers(out: &mut Outcome, world: &World, reps: &[TracedRep], untraced_run_s: f64) {
    let per_rep: Vec<Vec<(&str, f64)>> = reps.iter().map(|r| layer_metrics(world, r)).collect();
    if let Some(first) = per_rep.first() {
        for (k, (name, _)) in first.iter().enumerate() {
            let values: Vec<f64> = per_rep.iter().map(|m| m[k].1).collect();
            out.set(name, median(&values));
        }
    }
    let chain: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.chain_ms.iter().copied())
        .collect();
    out.set("chain.p50_ms", percentile(&chain, 50.0));
    out.set("chain.p99_ms", percentile(&chain, 99.0));
    out.set("chain.samples", chain.len() as f64);
    let traced_run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    out.set("trace.overhead_share", traced_run_s / untraced_run_s - 1.0);

    let get = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    let annotate_side = get("chatbot.ms") + get("segment.self_ms") + get("annotate.self_ms");
    let layer_sum = annotate_side
        + get("webgen.host_ms")
        + get("crawler.self_ms")
        + get("html.extract_ms")
        + get("journal.record_ms");
    let note = format!(
        "{} traced run(s): median {:.4} s; chatbot+segment+annotate {:.1} % of {:.1} ms summed layer time",
        reps.len(),
        traced_run_s,
        100.0 * ratio_f(annotate_side, layer_sum),
        layer_sum
    );
    out.notes.push(note);
}

fn ratio_f(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}
