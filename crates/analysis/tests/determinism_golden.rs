//! Golden determinism test: two fully independent pipeline runs from the
//! same seed must produce byte-identical rendered artifacts. This is the
//! end-to-end check behind lint rule D2 — no hash-ordered iteration (or
//! wall-clock/entropy input, rule D1) may leak into any emitted table,
//! report, or serialized dataset.

use aipan_analysis::{insights, tables};
use aipan_core::{run_pipeline, PipelineConfig};
use aipan_webgen::{build_world, WorldConfig};

/// Render every artifact the paper reproduction emits into one byte string.
fn render_everything(seed: u64, companies: usize, workers: usize) -> String {
    let world = build_world(WorldConfig::small(seed, companies));
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed,
            workers,
            ..Default::default()
        },
    );

    let mut out = String::new();
    // Crawl funnel (§3.1) — crates/crawler/src/report.rs counters.
    out.push_str(&format!("{:?}\n", run.crawl_funnel));
    out.push_str(&format!("{:?}\n", run.extraction));
    // Tables 1–6 — crates/analysis/src/tables.rs.
    out.push_str(&tables::render_table1(&tables::table1(&run.dataset, 10)));
    out.push_str(&tables::render_breakdown(
        "Table 2a",
        &tables::table2a(&run.dataset),
    ));
    out.push_str(&tables::render_breakdown(
        "Table 2b",
        &tables::table2b(&run.dataset),
    ));
    out.push_str(&tables::render_table3(&tables::table3(&run.dataset)));
    out.push_str(&tables::render_breakdown(
        "Table 5",
        &tables::table5(&run.dataset),
    ));
    out.push_str(&tables::render_table6(&tables::table6(
        &world,
        &run.dataset,
        3,
        seed,
    )));
    // Narrative insights.
    out.push_str(&insights::Insights::compute(&run.dataset).render());
    // Serialized dataset (JSON map ordering must be stable too).
    out.push_str(&serde_json::to_string(&run.dataset).unwrap_or_default());
    out
}

#[test]
fn two_runs_are_byte_identical() {
    let a = render_everything(11, 180, 4);
    let b = render_everything(11, 180, 4);
    assert!(
        a == b,
        "two identically-seeded runs diverged; first differing byte at {}",
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()))
    );
}

#[test]
fn worker_count_does_not_change_output() {
    let serial = render_everything(12, 120, 1);
    let parallel = render_everything(12, 120, 6);
    assert!(
        serial == parallel,
        "output depends on worker scheduling; first differing byte at {}",
        serial
            .bytes()
            .zip(parallel.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(serial.len().min(parallel.len()))
    );
}
