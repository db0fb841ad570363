//! One benchmark for AIPAN-RS: three workloads, end-to-end and per-layer
//! metrics, and correctness gates.
//!
//! ```text
//! aipan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of a checkout (the lint workload scans the
//! workspace found there, and scratch journals go to `.bench_work/`):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload corpus_stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (every one runs `WORKERS` = 2 workers, fixed here rather than
//! read from the host):
//!
//! * `corpus_stream` — a lazy world under default faults streamed through
//!   `run_pipeline_sharded` into an empty on-disk `ShardedJournal`, then
//!   consolidated. Chatbot, segment and annotate dominate.
//! * `resume_recrawl_chaos` — an eager world under `FaultConfig::chaotic()`,
//!   resumed from a journal that already holds every domain: every domain
//!   is re-crawled through retry, backoff and the breaker, none is
//!   re-annotated. Crawler, net and the journal's read path dominate.
//! * `lint_cold` — a full `aipan_lint::scan::run` over the workspace with
//!   its `lint.allow`.
//!
//! With `--trace 0` the timed runs call the program's entry points
//! untouched and the benchmark prints the end-to-end metrics. With
//! `--trace 1` it re-runs the same work from its own code, layer
//! by layer, and prints the per-layer metrics (see `corpus.rs` and
//! `lint.rs`). The last line of a finished run's standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. A failed correctness
//! gate prints that line with `"correct": false` and exits 1; bad
//! arguments or a workload that cannot run exit 2 without a result.

mod alloc;
mod calib;
mod corpus;
mod lint;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Worker threads for every workload (the `nproc` of the host the
/// benchmark was defined on). Fixed so runs on other hosts do the same
/// work.
pub const WORKERS: usize = 2;

/// End-to-end metrics, printed with `--trace 0` (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Graph passes that `aipan_lint::scan` runs after the shared models are
/// built, in its order; each gets a `lint.check.<pass>_ms` metric.
pub const LINT_CHECKS: &[&str] = &[
    "layering",
    "error_flow",
    "lock_order",
    "panic_reach",
    "taint",
    "cost",
    "guards",
    "retention",
    "sharing",
    "numeric",
    "atomics",
    "effects",
    "dead_pub",
    "invariants",
];

/// Per-layer metrics, printed with `--trace 1` (name, unit). A layer that
/// a workload never calls reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("webgen.host_ms", "ms"),
        ("webgen.sites_built", "count"),
        ("webgen.peak_site_bytes", "bytes"),
        ("webgen.alloc", "count/domain"),
        ("net.fetch_attempts", "count"),
        ("net.retries", "count"),
        ("net.breaker_opens", "count"),
        ("net.retry_ratio", "ratio"),
        ("crawler.self_ms", "ms"),
        ("crawler.pages", "count"),
        ("crawler.body_bytes", "bytes"),
        ("crawler.success_ratio", "ratio"),
        ("crawler.alloc", "count/domain"),
        ("html.extract_ms", "ms"),
        ("html.pages_in", "count"),
        ("html.bytes_in", "bytes"),
        ("html.english_pages", "count"),
        ("html.alloc", "count/domain"),
        ("segment.self_ms", "ms"),
        ("segment.policies", "count"),
        ("segment.headings_share", "ratio"),
        ("segment.alloc", "count/domain"),
        ("chatbot.ms", "ms"),
        ("chatbot.calls", "count"),
        ("chatbot.input_bytes", "bytes"),
        ("chatbot.output_bytes", "bytes"),
        ("chatbot.reprompts", "count"),
        ("chatbot.wellformed_ratio", "ratio"),
        ("chatbot.alloc", "count/domain"),
        ("annotate.self_ms", "ms"),
        ("annotate.annotations", "count"),
        ("annotate.fallbacks", "count"),
        ("annotate.kept_ratio", "ratio"),
        ("annotate.alloc", "count/domain"),
        ("journal.record_ms", "ms"),
        ("journal.records", "count"),
        ("journal.bytes_written", "bytes"),
        ("journal.open_ms", "ms"),
        ("journal.consolidate_ms", "ms"),
        ("journal.disk_retries", "count"),
        ("journal.alloc", "count/domain"),
        ("chain.p50_ms", "ms"),
        ("chain.p99_ms", "ms"),
        ("chain.samples", "count"),
        ("pool.idle_ms", "ms"),
        ("trace.overhead_share", "ratio"),
        ("lint.lex_ms", "ms"),
        ("lint.token_rules_ms", "ms"),
        ("lint.parse_ms", "ms"),
        ("lint.callgraph_ms", "ms"),
        ("lint.cost_ms", "ms"),
        ("lint.types_ms", "ms"),
        ("lint.effects_ms", "ms"),
        ("lint.files", "count"),
        ("lint.source_bytes", "bytes"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        LINT_CHECKS
            .iter()
            .map(|pass| (format!("lint.check.{pass}_ms"), "ms")),
    );
    out
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Units of work attempted (domains, or lint scans).
    pub attempted: u64,
    /// Units that failed (quarantined domains plus journal write errors,
    /// or errored scans).
    pub failed: u64,
    /// Broken correctness gates; empty when the run is correct.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Add `note` unless an equal one is there already.
    pub fn note_once(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    /// Record a broken gate unless `ok`.
    pub fn gate(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    // The `run_seconds` of BENCHMARK.json.
    let mut seconds = 30u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch directory for one run's journals, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// JSON rendering of a finite number (non-finite values become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aipan-benchmark: {e}");
            eprintln!(
                "usage: aipan-benchmark --workload corpus_stream|resume_recrawl_chaos|lint_cold \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("aipan-benchmark: cannot create {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    let budget = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "corpus_stream" => corpus::run(
            &corpus::CORPUS_STREAM,
            args.seed,
            budget,
            args.trace,
            &work.0,
        ),
        "resume_recrawl_chaos" => corpus::run(
            &corpus::RESUME_RECRAWL_CHAOS,
            args.seed,
            budget,
            args.trace,
            &work.0,
        ),
        "lint_cold" => lint::run(root, budget, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("aipan-benchmark: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<28} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    for problem in &outcome.problems {
        eprintln!("aipan-benchmark: GATE FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
