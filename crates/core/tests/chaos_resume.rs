//! Chaos harness for the pipeline's checkpoint/resume layer, driven
//! through the durable path `aipan run --resume` takes
//! (`ShardedJournal::open` → `run_pipeline_sharded` → `consolidate`): under
//! elevated transient fault rates, a run resumed from any prefix of its
//! consolidated journal — including a journal torn mid-write — produces a
//! byte-identical dataset, identical funnels and a byte-identical
//! consolidated journal, at any worker count.

use aipan_core::{
    run_pipeline, run_pipeline_sharded, JournalEntry, PipelineConfig, PipelineRun, RunJournal,
    ShardedJournal, DEFAULT_SHARDS,
};
use aipan_net::fault::FaultConfig;
use aipan_webgen::{build_world, WorldConfig};
use std::fs;
use std::path::{Path, PathBuf};

fn chaos_world(seed: u64, n: usize) -> aipan_webgen::World {
    let mut config = WorldConfig::small(seed, n);
    config.faults = FaultConfig {
        flaky_5xx: 0.10,
        conn_reset: 0.06,
        rate_limit: 0.04,
        latency_spike: 0.08,
        ..config.faults
    };
    build_world(config)
}

fn pipeline_config(seed: u64, workers: usize) -> PipelineConfig {
    PipelineConfig {
        seed,
        workers,
        ..Default::default()
    }
}

fn dataset_bytes(run: &PipelineRun) -> String {
    serde_json::to_string(&run.dataset).expect("dataset serializes")
}

/// A fresh per-test scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aipan-chaos-resume-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Open the journal at `base`, run the pipeline into it and consolidate.
/// Returns the run and how many domains the journal held when opened.
fn durable_run(
    world: &aipan_webgen::World,
    config: &PipelineConfig,
    base: &Path,
) -> (PipelineRun, usize) {
    let journal = ShardedJournal::open(base, DEFAULT_SHARDS);
    let resumed_from = journal.len();
    let run = run_pipeline_sharded(world, config.clone(), &journal);
    assert_eq!(journal.write_errors(), 0);
    journal.consolidate(base).expect("consolidate");
    (run, resumed_from)
}

#[test]
fn resume_is_byte_identical_at_every_kill_point() {
    let world = chaos_world(23, 60);
    let config = pipeline_config(23, 4);
    let reference = run_pipeline(&world, config.clone());
    let reference_bytes = dataset_bytes(&reference);
    assert!(
        !reference.dataset.is_empty(),
        "chaos world must still yield policies"
    );
    let dir = scratch_dir("kill");

    // A journaled uninterrupted run matches the plain run and journals
    // every crawled domain.
    let full_base = dir.join("full.jsonl");
    let (journaled, _) = durable_run(&world, &config, &full_base);
    assert_eq!(dataset_bytes(&journaled), reference_bytes);
    let jsonl = fs::read_to_string(&full_base).expect("consolidated journal");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), reference.crawl_funnel.domains_total);

    // Kill the run at three different points (journal prefixes), then at a
    // torn final line (process died mid-write). Every resume must produce
    // the same dataset bytes, the same funnels and the same journal.
    let kill_points = [lines.len() / 4, lines.len() / 2, lines.len() * 9 / 10];
    for &k in &kill_points {
        let base = dir.join(format!("prefix{k}.jsonl"));
        fs::write(&base, lines[..k].join("\n")).expect("write prefix");
        let (resumed, resumed_from) = durable_run(&world, &config, &base);
        assert_eq!(resumed_from, k, "prefix journal loads losslessly");
        assert_eq!(
            dataset_bytes(&resumed),
            reference_bytes,
            "resume from kill point {k} diverged"
        );
        assert_eq!(resumed.extraction, reference.extraction);
        assert_eq!(resumed.crawl_funnel, reference.crawl_funnel);
        assert_eq!(
            fs::read_to_string(&base).expect("consolidated journal"),
            jsonl,
            "journal must converge"
        );
    }

    // Torn tail: keep half the bytes of the final journaled line.
    let keep = lines[..lines.len() - 1].join("\n");
    let last = lines[lines.len() - 1];
    let half = (0..=last.len() / 2)
        .rev()
        .find(|&i| last.is_char_boundary(i))
        .unwrap_or(0);
    let base = dir.join("torn.jsonl");
    fs::write(&base, format!("{keep}\n{}", &last[..half])).expect("write torn journal");
    let (resumed, resumed_from) = durable_run(&world, &config, &base);
    assert_eq!(resumed_from, lines.len() - 1, "torn line dropped");
    assert_eq!(dataset_bytes(&resumed), reference_bytes);
    assert_eq!(fs::read_to_string(&base).expect("consolidated"), jsonl);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chaos_pipeline_identical_across_worker_counts() {
    let world = chaos_world(31, 40);
    let serial = run_pipeline(&world, pipeline_config(31, 1));
    let parallel = run_pipeline(&world, pipeline_config(31, 6));
    assert_eq!(dataset_bytes(&serial), dataset_bytes(&parallel));
    assert_eq!(serial.extraction, parallel.extraction);
    assert_eq!(serial.crawl_funnel, parallel.crawl_funnel);
}

#[test]
fn stale_journal_domains_do_not_leak_into_the_run() {
    let world = chaos_world(37, 20);
    let config = pipeline_config(37, 2);
    let reference = run_pipeline(&world, config.clone());

    let dir = scratch_dir("stale");
    let base = dir.join("journal.jsonl");
    let mut stale = RunJournal::new();
    stale.insert(JournalEntry {
        domain: "not-in-this-world.example".to_string(),
        english_privacy_pages: 9,
        policy: None,
    });
    fs::write(&base, stale.to_jsonl()).expect("write stale journal");
    let (run, resumed_from) = durable_run(&world, &config, &base);
    assert_eq!(resumed_from, 1);
    assert_eq!(dataset_bytes(&run), dataset_bytes(&reference));
    assert_eq!(run.extraction, reference.extraction);
    let _ = fs::remove_dir_all(&dir);
}
