//! The `lint_cold` workload: a full `aipan_lint::scan::run` over the
//! workspace at the checkout root, with its `lint.allow`.
//!
//! Untraced runs time `scan::run`. Traced runs drive the same passes from
//! this file, in `scan::run`'s order, timing each one; their sorted
//! findings must render to the same report as `scan::run`'s.

use crate::calib::Calibration;
use crate::stats::{median, ms, repeat_for, reset_peak_rss, timed};
use crate::{Outcome, LINT_CHECKS};
use aipan_lint::callgraph::CallGraph;
use aipan_lint::findings::{sort_findings, Finding};
use aipan_lint::graph::Workspace;
use aipan_lint::scan::{self, read_sources, Report};
use aipan_lint::{
    atomics, cost, effects, error_flow, guards, invariants, lexer, locks, numeric, panic_reach,
    report, retain, rules, share, taint, types, Allowlist, Config,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Configuration loads per batch; one set-up sample is a batch's mean, and
/// one batch runs ahead of each untraced scan, so the samples spread over
/// the run and `setup_s`, their median, does not hang on a few seconds of
/// host slowdown.
const SETUP_BATCH: usize = 200;

/// Fewest timed repetitions per phase, whatever the time budget.
const MIN_REPS: usize = 3;

/// Read and parse `lint.toml` and `lint.allow` at `root` (the set-up).
/// Returns the allowlist text: every scan parses it afresh, since an
/// `Allowlist` records which entries matched.
fn load(root: &Path) -> Result<String, String> {
    let config_text = std::fs::read_to_string(root.join("lint.toml")).unwrap_or_default();
    Config::parse(&config_text).map_err(|e| format!("lint.toml: {e}"))?;
    let allow_text = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    Allowlist::parse(&allow_text).map_err(|e| format!("lint.allow: {e}"))?;
    Ok(allow_text)
}

fn allowlist(allow_text: &str) -> Allowlist {
    Allowlist::parse(allow_text).unwrap_or_default()
}

/// Run the lint workload.
pub fn run(root: &Path, budget: Duration, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !root.join("crates").is_dir() {
        return Err("no workspace to lint: run from the root of a checkout".to_string());
    }
    let allow_text = load(root)?;

    // The timed phase: each repetition times `scan::run`; a traced run
    // follows each with one pass-by-pass scan, so drift on a shared host
    // hits both alike. An untraced repetition is bracketed by calibration
    // samples, which scale its times (see `calib.rs`).
    let mut calibration = Calibration::new();
    let mut run_times = Vec::new();
    let mut peaks = Vec::new();
    let mut reference: Option<String> = None;
    let mut files = 0usize;
    let mut passes: Vec<Timings> = Vec::new();
    let mut traced_times = Vec::new();
    let mut failure = None;
    repeat_for(budget, MIN_REPS, || {
        if !traced {
            calibration.open_bracket();
            let start = Instant::now();
            for _ in 0..SETUP_BATCH {
                if let Err(e) = load(root) {
                    failure = Some(e);
                    return false;
                }
            }
            calibration.setup(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        }
        let allow = allowlist(&allow_text);
        out.attempted += 1;
        if let Err(e) = reset_peak_rss() {
            out.note_once(e);
        }
        let (result, took) = timed(|| scan::run(root, allow));
        peaks.push(crate::stats::peak_rss_mb());
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("scan::run failed: {e}"));
                return false;
            }
        };
        files = report.files_scanned;
        out.gate(report.files_scanned > 0, || {
            "scan found no source files".to_string()
        });
        let json = report::json(&report);
        match &reference {
            Some(expected) => out.gate(json == *expected, || {
                "lint report differs between scans of one tree".to_string()
            }),
            None => reference = Some(json.clone()),
        }
        run_times.push(took.as_secs_f64());
        if !traced {
            calibration.run(took.as_secs_f64(), report.files_scanned as f64);
            return true;
        }

        out.attempted += 1;
        match traced_scan(root, allowlist(&allow_text)) {
            Ok((traced_report, run_s, timings)) => {
                out.gate(report::json(&traced_report) == json, || {
                    "passes driven one by one disagree with scan::run".to_string()
                });
                traced_times.push(run_s);
                passes.push(timings);
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
    let untraced_run_s = median(&run_times);
    out.notes.push(format!(
        "{} scan(s) of {files} files: median {untraced_run_s:.4} s; scans {run_times:.4?}",
        run_times.len()
    ));
    if !traced {
        let scaled = calibration.finish();
        out.notes.push(format!(
            "calibration sample: median {:.4} s; scaled scans {:.4?}",
            scaled.calibration_s, scaled.runs
        ));
        out.set("run_s", scaled.run_s);
        out.set("items_per_s", scaled.items_per_s);
        out.set("setup_s", scaled.setup_s);
        out.set("peak_rss_mb", median(&peaks));
        out.notes.push(format!(
            "failed_share {:.6} ({} of {} scans)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        return Ok(out);
    }
    if let Some(first) = passes.first() {
        for (k, (name, _)) in first.0.iter().enumerate() {
            let values: Vec<f64> = passes.iter().map(|p| p.0[k].1).collect();
            out.set(name, median(&values));
        }
    }
    let traced_run_s = median(&traced_times);
    out.set("trace.overhead_share", traced_run_s / untraced_run_s - 1.0);
    out.notes.push(format!(
        "{} traced scan(s): median {traced_run_s:.4} s",
        traced_times.len()
    ));
    Ok(out)
}

/// Per-pass wall times (and input sizes) of one traced scan.
struct Timings(Vec<(String, f64)>);

impl Timings {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (value, took) = timed(f);
        self.0.push((name.to_string(), ms(took)));
        value
    }

    fn check(&mut self, raw: &mut Vec<Finding>, pass: &str, f: impl FnOnce() -> Vec<Finding>) {
        let found = self.time(&format!("lint.check.{pass}_ms"), f);
        raw.extend(found);
    }
}

/// `scan::run`, pass by pass. Returns the report, the wall time of the
/// work `scan::run` does (dropping its models included), and every metric
/// of the traced scan.
fn traced_scan(root: &Path, mut allow: Allowlist) -> Result<(Report, f64, Timings), String> {
    let mut t = Timings(Vec::new());
    // Outside the timed scan: the lexer alone over every file (the token
    // rules below include one lex per file), and the input size.
    let sources = read_sources(root, |_| true).map_err(|e| format!("read sources: {e}"))?;
    t.time("lint.lex_ms", || {
        for (_, src) in &sources {
            std::hint::black_box(lexer::lex(src));
        }
    });
    t.0.push(("lint.files".to_string(), sources.len() as f64));
    let bytes: usize = sources.iter().map(|(_, src)| src.len()).sum();
    t.0.push(("lint.source_bytes".to_string(), bytes as f64));
    drop(sources);

    let start = Instant::now();
    let sources = read_sources(root, |_| true).map_err(|e| format!("read sources: {e}"))?;
    let mut raw: Vec<Finding> = Vec::new();
    t.time("lint.token_rules_ms", || {
        for (rel, src) in &sources {
            raw.extend(rules::lint_source(rel, src));
        }
    });
    {
        let ws = t.time("lint.parse_ms", || Workspace::build(&sources));
        let config_path = root.join("lint.toml");
        let mut layering_error = None;
        t.check(&mut raw, LINT_CHECKS[0], || {
            if !config_path.is_file() {
                return Vec::new();
            }
            let text = std::fs::read_to_string(&config_path).unwrap_or_default();
            match Config::parse(&text) {
                Ok(config) => ws.check_layering(&config),
                Err(e) => {
                    layering_error = Some(e.to_string());
                    Vec::new()
                }
            }
        });
        if let Some(e) = layering_error {
            return Err(format!("lint.toml: {e}"));
        }
        let graph = t.time("lint.callgraph_ms", || CallGraph::build(&ws));
        let model = t.time("lint.cost_ms", || cost::CostModel::build(&ws, &graph));
        let index = t.time("lint.types_ms", || types::TypeIndex::build(&ws));
        let effect_model = t.time("lint.effects_ms", || {
            effects::EffectModel::build(&ws, &graph)
        });
        t.check(&mut raw, "error_flow", || {
            error_flow::check_with_graph(&ws, &graph)
        });
        t.check(&mut raw, "lock_order", || locks::check_lock_order(&ws));
        t.check(&mut raw, "panic_reach", || {
            panic_reach::check_panic_reach(&ws, &graph)
        });
        t.check(&mut raw, "taint", || taint::check_taint(&ws, &graph));
        t.check(&mut raw, "cost", || cost::check_cost(&ws, &graph, &model));
        t.check(&mut raw, "guards", || {
            guards::check_guards(&ws, &graph, &model)
        });
        t.check(&mut raw, "retention", || {
            retain::check_retention(&ws, &graph, &model)
        });
        t.check(&mut raw, "sharing", || {
            share::check_sharing(&ws, &graph, &model)
        });
        t.check(&mut raw, "numeric", || {
            numeric::check_numeric(&ws, &graph, &model, &index)
        });
        t.check(&mut raw, "atomics", || {
            atomics::check_atomics(&ws, &graph, &index)
        });
        t.check(&mut raw, "effects", || {
            effects::check_effects(&ws, &graph, &model, &effect_model)
        });
        t.check(&mut raw, "dead_pub", || ws.check_dead_pub());
        t.check(&mut raw, "invariants", invariants::check_all);
        // The models drop here, inside the timed scan, as in `scan::run`.
    }

    // Allowlist partition, unused-entry findings and sorting, as
    // `scan::run` finishes.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for finding in raw {
        if allow.permits(&finding) {
            suppressed.push(finding);
        } else {
            findings.push(finding);
        }
    }
    findings.extend(allow.unused());
    sort_findings(&mut findings);
    sort_findings(&mut suppressed);
    let report = Report {
        findings,
        suppressed,
        files_scanned: sources.len(),
    };
    drop(sources);
    let run_s = start.elapsed().as_secs_f64();
    Ok((report, run_s, t))
}
