//! Properties of the streaming engine: a lazy world driven through
//! `run_pipeline_sharded` is byte-identical to the eager monolithic run at
//! every worker count and seed, releases every materialized site,
//! resumes from a mid-shard kill point (torn segment tail, lost segment)
//! without diverging, and keeps the supervisor's contract under network,
//! disk and worker-killing faults at once.

use aipan_core::{
    run_pipeline, run_pipeline_sharded, segment_path, DiskFaultConfig, DiskFaultInjector,
    PipelineConfig, PipelineRun, ShardedJournal, DEFAULT_SHARDS,
};
use aipan_net::fault::FaultConfig;
use aipan_net::http::{Request, Response};
use aipan_webgen::{build_world, build_world_lazy, World, WorldConfig};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn world_config(seed: u64, domains: usize, chaos: bool) -> WorldConfig {
    let mut config = WorldConfig::small(seed, domains);
    if chaos {
        config.faults = FaultConfig {
            flaky_5xx: 0.10,
            conn_reset: 0.06,
            rate_limit: 0.04,
            latency_spike: 0.08,
            ..config.faults
        };
    }
    config
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

fn streaming_run(world: &World, config: PipelineConfig) -> PipelineRun {
    let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
    run_pipeline_sharded(world, config, &journal)
}

/// Every materialized site must have been released by the time the run
/// returns: resident memory is bounded by in-flight domains, not the
/// universe.
fn assert_all_sites_released(world: &World) {
    // Both checks below pass vacuously on an eager world.
    assert!(world.is_lazy(), "only a lazy world releases its sites");
    assert_eq!(
        world.site_memory.current_bytes(),
        0,
        "streaming run left sites resident"
    );
    assert!(
        world.lazy_hosts.values().all(|host| !host.is_built()),
        "streaming run left a lazy site materialized"
    );
}

// The headline determinism contract of the streaming refactor: lazy
// generation + per-worker domain chains + sharded journal produce exactly
// the bytes of the eager monolithic run, for any seed, any universe size,
// and any worker count 1..=8. Cases are drawn from the deterministic
// proptest generator, but the loop is hand-rolled so the worker count
// sweeps 1..=8 exhaustively (twice) instead of being sampled — and so the
// case count stays proportional to the cost of a full double pipeline run.
#[test]
fn streaming_equals_eager_bytes_for_any_seed_and_worker_count() {
    let mut gen = Gen::from_name("streaming_equals_eager_bytes");
    for case in 0..16usize {
        let seed = Strategy::generate(&(0u64..1000), &mut gen);
        let domains = Strategy::generate(&(8usize..20), &mut gen);
        let workers = case % 8 + 1;

        let eager_world = build_world(world_config(seed, domains, false));
        let reference = run_pipeline(&eager_world, pipeline_config(seed, 1));
        let reference_bytes = dataset_bytes(&reference);

        let lazy_world = build_world_lazy(world_config(seed, domains, false));
        let streamed = streaming_run(&lazy_world, pipeline_config(seed, workers));

        let tag = format!("case {case}: seed {seed}, {domains} domains, {workers} worker(s)");
        assert_eq!(dataset_bytes(&streamed), reference_bytes, "{tag}");
        assert_eq!(streamed.extraction, reference.extraction, "{tag}");
        assert_eq!(streamed.crawl_funnel, reference.crawl_funnel, "{tag}");
        assert_all_sites_released(&lazy_world);
    }
}

#[test]
fn streaming_matches_eager_under_chaos_at_every_worker_count() {
    let seed = 47;
    let eager_world = build_world(world_config(seed, 50, true));
    let reference = run_pipeline(&eager_world, pipeline_config(seed, 4));
    let reference_bytes = dataset_bytes(&reference);
    assert!(
        !reference.dataset.is_empty(),
        "chaos world must still yield policies"
    );

    for workers in 1..=8 {
        let lazy_world = build_world_lazy(world_config(seed, 50, true));
        let streamed = streaming_run(&lazy_world, pipeline_config(seed, workers));
        assert_eq!(
            dataset_bytes(&streamed),
            reference_bytes,
            "streaming run with {workers} worker(s) diverged"
        );
        assert_eq!(streamed.extraction, reference.extraction);
        assert_eq!(streamed.crawl_funnel, reference.crawl_funnel);
        assert_all_sites_released(&lazy_world);
    }
}

/// Scratch directory for durable-segment tests; callers pick a unique tag.
fn scratch_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aipan-streaming-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("journal.jsonl")
}

#[test]
fn resume_from_mid_shard_kill_point_is_byte_identical() {
    let seed = 53;
    let config = pipeline_config(seed, 4);
    let eager_world = build_world(world_config(seed, 60, true));
    let reference = run_pipeline(&eager_world, config.clone());
    let reference_bytes = dataset_bytes(&reference);

    // Complete streaming run with durable segments: this is the on-disk
    // state an interrupted process would have been appending to.
    let base = scratch_base("kill");
    let lazy_world = build_world_lazy(world_config(seed, 60, true));
    {
        let journal = ShardedJournal::open(&base, DEFAULT_SHARDS);
        let full = run_pipeline_sharded(&lazy_world, config.clone(), &journal);
        assert_eq!(journal.write_errors(), 0);
        assert_eq!(dataset_bytes(&full), reference_bytes);
    }

    // Simulate the kill: one segment loses half a line (the write the
    // process died inside), another segment is gone entirely (never
    // flushed past creation), a third is truncated to a prefix of whole
    // lines (that shard's workers were behind).
    let seg0 = segment_path(&base, 0);
    let torn = fs::read_to_string(&seg0).expect("segment 0 exists");
    assert!(!torn.is_empty(), "segment 0 journaled at least one domain");
    let cut = torn.len() - torn.len() / 3;
    let cut = (0..=cut).rev().find(|&i| torn.is_char_boundary(i)).unwrap();
    fs::write(&seg0, &torn[..cut]).expect("tear segment 0");

    let seg1 = segment_path(&base, 1);
    fs::remove_file(&seg1).expect("segment 1 exists");

    let seg2 = segment_path(&base, 2);
    let behind = fs::read_to_string(&seg2).expect("segment 2 exists");
    let lines: Vec<&str> = behind.lines().collect();
    let keep = lines.len() / 2;
    let prefix: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    fs::write(&seg2, prefix).expect("truncate segment 2");

    // Resume: the reopened journal tolerates the torn tail, re-processes
    // everything the dead segments lost, and converges to the reference.
    let resumed_world = build_world_lazy(world_config(seed, 60, true));
    let journal = ShardedJournal::open(&base, DEFAULT_SHARDS);
    assert!(
        journal.len() < reference.crawl_funnel.domains_total,
        "kill point must actually lose checkpoints"
    );
    let resumed = run_pipeline_sharded(&resumed_world, config, &journal);
    assert_eq!(dataset_bytes(&resumed), reference_bytes);
    assert_eq!(resumed.extraction, reference.extraction);
    assert_eq!(resumed.crawl_funnel, reference.crawl_funnel);
    assert_eq!(journal.len(), reference.crawl_funnel.domains_total);

    // Consolidation folds the segments back into one sorted JSONL file.
    journal.consolidate(&base).expect("consolidate");
    let merged = fs::read_to_string(&base).expect("consolidated journal");
    assert_eq!(merged.lines().count(), journal.len());
    assert!(!segment_path(&base, 0).exists(), "segments removed");
    let _ = fs::remove_dir_all(base.parent().unwrap());
}

/// A virtual host that kills whichever worker touches it: the supervisor
/// must catch the unwind mid-crawl and dead-letter the domain. (Panics are
/// injected from the test, never from library code.)
fn panicking_host() -> impl Fn(&Request) -> Response + Send + Sync {
    |_request: &Request| -> Response { panic!("injected: host melted mid-request") }
}

/// Re-register `victim` so any request to it panics the crawling worker.
fn poison_domain(world: &World, victim: &str) {
    world.internet.register(victim, panicking_host());
}

// Panic-injection chaos sweep: worlds with worker-killing hosts still
// complete, and the quarantine (dead-letter set) and dataset are
// worker-count invariant — fault isolation must not depend on which worker
// happens to pick up the doomed domain.
#[test]
fn panic_injection_dead_letters_are_worker_count_invariant() {
    let mut gen = Gen::from_name("panic_injection_dead_letters");
    for case in 0..4usize {
        let seed = Strategy::generate(&(0u64..1000), &mut gen);
        let domains = Strategy::generate(&(12usize..24), &mut gen);
        let mut reference: Option<(Vec<aipan_core::QuarantineRecord>, String)> = None;
        for workers in [1usize, 2, 5, 8] {
            let world = build_world_lazy(world_config(seed, domains, true));
            let all: Vec<String> = world
                .universe
                .unique_domains()
                .iter()
                .map(|c| c.domain.clone())
                .collect();
            let victims = [all[0].clone(), all[all.len() / 2].clone()];
            for victim in &victims {
                poison_domain(&world, victim);
            }
            let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
            let run = run_pipeline_sharded(&world, pipeline_config(seed, workers), &journal);

            let tag = format!("case {case}: seed {seed}, {domains} domains, {workers} worker(s)");
            let quarantine = journal.quarantine_records();
            assert_eq!(quarantine.len(), victims.len(), "{tag}");
            for record in &quarantine {
                assert!(victims.contains(&record.domain), "{tag}");
                assert_eq!(record.stage, "crawl", "{tag}");
                assert_eq!(record.kills, 1, "{tag}");
            }
            assert_eq!(run.health.verdict, "degraded", "{tag}");
            assert_eq!(run.health.quarantine, quarantine, "{tag}");
            assert_all_sites_released(&world);

            let bytes = dataset_bytes(&run);
            match &reference {
                None => reference = Some((quarantine, bytes)),
                Some((ref_quarantine, ref_bytes)) => {
                    assert_eq!(
                        &quarantine, ref_quarantine,
                        "{tag}: dead-letter set diverged"
                    );
                    assert_eq!(&bytes, ref_bytes, "{tag}: dataset diverged");
                }
            }
        }
    }
}

// The poison contract end-to-end: a domain that kills its worker in two
// consecutive runs (the default `max_kills`) is skipped outright on the
// third, and that resumed run is byte-identical to a clean run over the
// universe minus the poisoned domain.
#[test]
fn resume_after_quarantine_matches_clean_run_minus_poisoned() {
    let seed = 71;
    let size = 40;
    let config = pipeline_config(seed, 4);
    let eager = build_world(world_config(seed, size, false));
    let reference = run_pipeline(&eager, config.clone());
    let victim = reference.dataset.policies[0].domain.clone();
    let mut minus = reference.dataset.clone();
    minus.policies.retain(|p| p.domain != victim);
    let minus_bytes = serde_json::to_string(&minus).expect("dataset serializes");
    assert_ne!(
        minus_bytes,
        dataset_bytes(&reference),
        "victim must carry a policy for the test to mean anything"
    );

    let base = scratch_base("quarantine");
    // Two runs in which the victim panics its worker: each one dead-letters
    // the domain, accumulating kills across the reopened journal.
    for prior_kills in 0..2u32 {
        let world = build_world_lazy(world_config(seed, size, false));
        poison_domain(&world, &victim);
        let journal = ShardedJournal::open(&base, DEFAULT_SHARDS);
        let run = run_pipeline_sharded(&world, config.clone(), &journal);
        let quarantine = journal.quarantine_records();
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine[0].domain, victim);
        assert_eq!(quarantine[0].kills, prior_kills + 1);
        assert_eq!(quarantine[0].stage, "crawl");
        assert_eq!(run.health.verdict, "degraded");
        assert!(run.health.poisoned_skipped.is_empty());
        // The panicking domain contributes no record either way.
        assert_eq!(dataset_bytes(&run), minus_bytes);
        assert_all_sites_released(&world);
    }

    // Third run: kills reached `max_kills`, so the victim is poisoned and
    // never dispatched — the panicking host is still registered but nothing
    // touches it.
    let world = build_world_lazy(world_config(seed, size, false));
    poison_domain(&world, &victim);
    let journal = ShardedJournal::open(&base, DEFAULT_SHARDS);
    let resumed = run_pipeline_sharded(&world, config.clone(), &journal);
    assert_eq!(resumed.health.poisoned_skipped, vec![victim.clone()]);
    assert_eq!(resumed.health.verdict, "degraded");
    assert_eq!(dataset_bytes(&resumed), minus_bytes);
    assert_eq!(
        resumed.crawl_funnel.domains_total,
        reference.crawl_funnel.domains_total - 1,
        "poisoned domain must not be dispatched at all"
    );
    assert_eq!(
        journal.quarantine_records()[0].kills,
        2,
        "skipping must not accrue further kills"
    );
    assert_all_sites_released(&world);
    let _ = fs::remove_dir_all(base.parent().unwrap());
}

// The full chaos stack at once — network faults (5xx/resets/rate limits),
// the chatbot's seeded error models, and injected disk faults on the
// journal's append path — then a kill point on top: the resumed run is
// still byte-identical to the in-memory reference.
#[test]
fn combined_network_chatbot_disk_chaos_resume_is_byte_identical() {
    let seed = 83;
    let size = 50;
    let config = pipeline_config(seed, 4);
    let ref_world = build_world_lazy(world_config(seed, size, true));
    let reference = streaming_run(&ref_world, config.clone());
    let reference_bytes = dataset_bytes(&reference);

    let base = scratch_base("diskchaos");
    let chaotic = || DiskFaultInjector::new(seed, DiskFaultConfig::chaotic());
    {
        let world = build_world_lazy(world_config(seed, size, true));
        let journal = ShardedJournal::open_with(&base, DEFAULT_SHARDS, chaotic());
        let run = run_pipeline_sharded(&world, config.clone(), &journal);
        assert_eq!(dataset_bytes(&run), reference_bytes);
        assert_eq!(
            journal.write_errors(),
            0,
            "bounded retries must absorb every injected disk fault"
        );
        assert!(
            journal.disk_retries() > 0,
            "chaotic disk config must actually inject faults"
        );
    }

    // Kill point: one segment torn mid-line, another lost entirely. The
    // resume keeps running against the same injected disk faults.
    let seg0 = segment_path(&base, 0);
    let torn = fs::read_to_string(&seg0).expect("segment 0 exists");
    let cut = torn.len() - torn.len() / 4;
    let cut = (0..=cut).rev().find(|&i| torn.is_char_boundary(i)).unwrap();
    fs::write(&seg0, &torn[..cut]).expect("tear segment 0");
    let seg1 = segment_path(&base, 1);
    fs::remove_file(&seg1).expect("segment 1 exists");

    let world = build_world_lazy(world_config(seed, size, true));
    let journal = ShardedJournal::open_with(&base, DEFAULT_SHARDS, chaotic());
    assert!(
        journal.len() < reference.crawl_funnel.domains_total,
        "kill point must actually lose checkpoints"
    );
    let resumed = run_pipeline_sharded(&world, config, &journal);
    assert_eq!(dataset_bytes(&resumed), reference_bytes);
    assert_eq!(resumed.extraction, reference.extraction);
    assert_eq!(resumed.crawl_funnel, reference.crawl_funnel);
    assert_eq!(journal.write_errors(), 0);
    assert_all_sites_released(&world);
    journal.consolidate(&base).expect("consolidate");
    let _ = fs::remove_dir_all(base.parent().unwrap());
}

// The supervised contract with every fault injected at once: chaotic
// network transients, disk faults on the journal's append path, and one
// worker-killing host. The run completes `degraded` with exactly the
// killing host quarantined, the bounded write retries absorb every disk
// fault, and `RunHealth` carries the journal's retry count.
#[test]
fn supervised_run_under_full_chaos_quarantines_only_the_killing_host() {
    let seed = 7;
    let mut config = WorldConfig::small(seed, 100);
    config.faults = FaultConfig::chaotic();
    let world = build_world_lazy(config);
    let victim = world.universe.unique_domains()[0].domain.clone();
    poison_domain(&world, &victim);

    let base = scratch_base("supervised");
    let journal = ShardedJournal::open_with(
        &base,
        DEFAULT_SHARDS,
        DiskFaultInjector::new(seed, DiskFaultConfig::chaotic()),
    );
    let run = run_pipeline_sharded(&world, pipeline_config(seed, 4), &journal);

    assert_eq!(run.health.verdict, "degraded");
    let quarantine: Vec<(&str, u32, &str)> = run
        .health
        .quarantine
        .iter()
        .map(|r| (r.domain.as_str(), r.kills, r.stage.as_str()))
        .collect();
    assert_eq!(quarantine, [(victim.as_str(), 1, "crawl")]);
    assert_eq!(
        run.health.journal_write_errors, 0,
        "bounded retries must absorb every injected disk fault"
    );
    assert!(
        run.health.disk_retries > 0,
        "chaotic disk config must actually inject faults"
    );
    assert_eq!(run.health.disk_retries, journal.disk_retries() as u64);
    assert_all_sites_released(&world);
    let _ = fs::remove_dir_all(base.parent().unwrap());
}
