//! `aipan` — the command-line interface to the AIPAN-RS stack.
//!
//! ```text
//! aipan run      [--seed N] [--size N] [--out FILE] [--resume JOURNAL] [--health-out FILE]
//!                                                     run the pipeline, write the dataset JSON;
//!                                                     with --resume, append per-domain results to
//!                                                     sharded JSONL journal segments as they finish
//!                                                     (consolidated into JOURNAL on success) and
//!                                                     skip already-journaled domains next time;
//!                                                     with --health-out, write the supervisor's
//!                                                     RunHealth report (verdict, per-stage error
//!                                                     taxonomy, quarantine list) as sorted JSON
//! aipan audit    <domain> [--seed N] [--size N]       crawl + annotate one company
//! aipan tables   [--seed N] [--size N]                print Tables 1–5 from a fresh run
//! aipan validate [--seed N] [--size N]                run the §4 validation harness
//! aipan analyze  <dataset.json>                       analyze a previously exported dataset
//! ```
//!
//! An unknown option, an option without its value or a `--seed`/`--size`
//! that is not a number prints the usage text and exits 2 before any world
//! is built.

use aipan::analysis::validation::{FailureAudit, MissingAspectAudit, PrecisionReport};
use aipan::analysis::{insights::Insights, tables, trends};
use aipan::core::pipeline::Pipeline;
use aipan::core::{
    run_pipeline, run_pipeline_sharded, Dataset, PipelineConfig, ShardedJournal, DEFAULT_SHARDS,
};
use aipan::crawler::crawl_domain;
use aipan::net::fault::FaultInjector;
use aipan::net::Client;
use aipan::taxonomy::datatypes::DataTypeMeta;
use aipan::taxonomy::purposes::PurposeMeta;
use aipan::taxonomy::sector::Sector;
use aipan::webgen::{build_world, SearchIndex, World, WorldConfig};
use std::collections::BTreeMap;

struct Args {
    command: String,
    positional: Vec<String>,
    seed: u64,
    size: usize,
    out: Option<String>,
    sector: Option<String>,
    resume: Option<String>,
    health_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        positional: Vec::new(),
        seed: 42,
        size: 600,
        out: None,
        sector: None,
        resume: None,
        health_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--sector" => args.sector = Some(value(&arg, iter.next())?),
            "--seed" => args.seed = number(&arg, iter.next())?,
            "--size" => args.size = number(&arg, iter.next())?,
            "--out" => args.out = Some(value(&arg, iter.next())?),
            "--resume" => args.resume = Some(value(&arg, iter.next())?),
            "--health-out" => args.health_out = Some(value(&arg, iter.next())?),
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other if args.command.is_empty() => args.command = other.to_string(),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

/// The argument after `flag`, which must be there.
fn value(flag: &str, next: Option<String>) -> Result<String, String> {
    next.ok_or_else(|| format!("{flag} needs a value"))
}

/// The number after `flag`, which must be there.
fn number<T: std::str::FromStr>(flag: &str, next: Option<String>) -> Result<T, String> {
    let value = next.ok_or_else(|| format!("{flag} needs a number"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

fn usage() -> ! {
    eprintln!(
        "usage: aipan <run|audit|tables|validate|analyze> [args]\n\
         \n\
         run      [--seed N] [--size N] [--out FILE] [--resume JOURNAL] [--health-out FILE]\n\
         \x20                                              run the pipeline, export dataset JSON;\n\
         \x20                                              checkpoint/resume via a JSONL journal;\n\
         \x20                                              --health-out writes the RunHealth report\n\
         \x20                                              (verdict, error taxonomy, quarantine)\n\
         audit    <domain>   [--seed N] [--size N]     crawl + annotate one company\n\
         tables              [--seed N] [--size N]     print Tables 1-5\n\
         validate            [--seed N] [--size N]     run the §4 validation harness\n\
         analyze  <dataset.json> [--sector ABBREV]     analyze an exported dataset"
    );
    std::process::exit(2);
}

fn build(args: &Args) -> World {
    eprintln!(
        "building world (seed {}, {} constituents)...",
        args.seed, args.size
    );
    build_world(WorldConfig {
        seed: args.seed,
        universe_size: args.size,
        ..Default::default()
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("aipan: {e}");
        usage()
    });
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "audit" => cmd_audit(&args),
        "tables" => cmd_tables(&args),
        "validate" => cmd_validate(&args),
        "analyze" => cmd_analyze(&args),
        _ => usage(),
    }
}

fn cmd_run(args: &Args) {
    let world = build(args);
    let fates: Vec<String> = world
        .fate_histogram()
        .iter()
        .map(|(fate, n)| format!("{fate:?} {n}"))
        .collect();
    println!("company fates: {}", fates.join(", "));
    let config = PipelineConfig {
        seed: args.seed,
        ..Default::default()
    };
    let run = match &args.resume {
        Some(path) => {
            // Durable streaming checkpoints: every finished domain is
            // appended to one of the journal's shard segments immediately,
            // so a killed run resumes losing at most one torn line per
            // segment. On success the segments are consolidated back into
            // the single JSONL file at `path`.
            let base = std::path::Path::new(path);
            let journal = ShardedJournal::open(base, DEFAULT_SHARDS);
            let resumed_from = journal.len();
            println!(
                "journal: {} segment(s), {resumed_from} checkpointed domain(s)",
                journal.shard_count()
            );
            let run = run_pipeline_sharded(&world, config, &journal);
            if journal.write_errors() > 0 {
                eprintln!(
                    "journal: {} segment append(s) failed; affected domains will re-process on resume",
                    journal.write_errors()
                );
            }
            journal.consolidate(base).expect("consolidate journal");
            println!(
                "journal: resumed {resumed_from} domains, {} entries now in {path}",
                journal.len()
            );
            run
        }
        None => run_pipeline(&world, config),
    };
    println!(
        "crawled {} domains ({} ok), annotated {} policies",
        run.crawl_funnel.domains_total, run.crawl_funnel.crawl_success, run.extraction.annotated
    );
    println!(
        "health: {} ({} quarantined, {} poisoned skipped, {} backpressure stall(s))",
        run.health.verdict,
        run.health.quarantine.len(),
        run.health.poisoned_skipped.len(),
        run.health.backpressure_stalls
    );
    for reason in &run.health.reasons {
        println!("  - {reason}");
    }
    if let Some(path) = &args.health_out {
        let json = run.health.to_json();
        std::fs::write(path, &json).expect("write health report");
        println!("health report written to {path} ({} bytes)", json.len());
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "aipan-dataset.json".to_string());
    let json = run.dataset.to_json().expect("serialize dataset");
    std::fs::write(&out, &json).expect("write dataset");
    println!("dataset written to {out} ({} bytes)", json.len());
}

fn cmd_audit(args: &Args) {
    let Some(target) = args.positional.first() else {
        usage()
    };
    let world = build(args);
    let domain = match world.company(target) {
        Some(_) => target.clone(),
        None => {
            // Not a domain in this world — treat the argument as a company
            // name and resolve it the way the paper does: first search
            // result, corrected by manual review.
            let index = SearchIndex::build(args.seed, &world.universe);
            let Some(hit) = index.first_result(target) else {
                eprintln!(
                    "{target} is neither a domain nor a company name in this world \
                     (seed {}, size {})",
                    args.seed, args.size
                );
                std::process::exit(1);
            };
            println!(
                "search: {target} → {}{}",
                hit.domain,
                if hit.needed_review {
                    " (misleading first result corrected by manual review)"
                } else {
                    ""
                }
            );
            hit.domain
        }
    };
    let domain = domain.as_str();
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let crawl = crawl_domain(&client, domain);
    println!(
        "crawl: {:?}, {} pages, {} privacy pages, robots skipped {}",
        crawl.outcome,
        crawl.pages.len(),
        crawl.privacy_pages().len(),
        crawl.robots_skipped
    );
    for page in &crawl.pages {
        println!(
            "  {:?} {} [{}] via {:?}",
            page.status,
            page.url,
            page.content_type.mime(),
            page.via
        );
    }
    let pipeline = Pipeline::new(PipelineConfig {
        seed: args.seed,
        ..Default::default()
    });
    let sector = world.company(domain).expect("checked").sector;
    match pipeline.process_domain(&crawl, sector) {
        Some(policy) => {
            println!(
                "policy at {} ({} words): {} annotations, fallbacks {:?}",
                policy.policy_path,
                policy.core_word_count,
                policy.annotations.len(),
                policy.fallbacks
            );
            for ann in &policy.annotations {
                println!("  L{:>3} {:?} ← {:?}", ann.line, ann.payload, ann.text);
            }
        }
        None => println!("no extractable policy (fate {:?})", world.fate(domain)),
    }
}

fn cmd_tables(args: &Args) {
    let world = build(args);
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed: args.seed,
            ..Default::default()
        },
    );
    println!(
        "{}",
        tables::render_table1(&tables::table1(&run.dataset, 3))
    );
    println!(
        "{}",
        tables::render_breakdown(
            "Table 2a — data-type meta-categories",
            &tables::table2a(&run.dataset)
        )
    );
    println!(
        "{}",
        tables::render_breakdown("Table 2b — purposes", &tables::table2b(&run.dataset))
    );
    println!("{}", tables::render_table3(&tables::table3(&run.dataset)));
    println!(
        "{}",
        tables::render_breakdown(
            "Table 5 — all data-type categories",
            &tables::table5(&run.dataset)
        )
    );
    println!("{}", Insights::compute(&run.dataset).render());
}

fn cmd_validate(args: &Args) {
    let world = build(args);
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed: args.seed,
            ..Default::default()
        },
    );
    println!(
        "{}",
        FailureAudit::run(&world, &run.dataset, 50, args.seed).render()
    );
    println!(
        "{}",
        MissingAspectAudit::run(&world, &run.dataset, 20, args.seed).render()
    );
    println!(
        "{}",
        PrecisionReport::run(&world, &run.dataset, args.seed).render()
    );
}

fn cmd_analyze(args: &Args) {
    let Some(path) = args.positional.first() else {
        usage()
    };
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut dataset = Dataset::from_json(&json).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    if let Some(abbrev) = &args.sector {
        let Some(sector) = Sector::from_abbrev(abbrev) else {
            eprintln!("unknown sector abbreviation: {abbrev}");
            std::process::exit(2);
        };
        dataset.policies.retain(|p| p.sector == sector);
        println!("sector filter: {abbrev} ({sector:?})");
    }
    println!(
        "{} policies, {} annotated",
        dataset.len(),
        dataset.annotated().count()
    );
    let counts = trends::aspect_counts(&dataset);
    let rendered: Vec<String> = counts
        .iter()
        .map(|(kind, n)| format!("{kind:?} {n}"))
        .collect();
    println!("annotations per aspect: {}", rendered.join(", "));
    let mut type_meta: BTreeMap<DataTypeMeta, usize> = BTreeMap::new();
    let mut purpose_meta: BTreeMap<PurposeMeta, usize> = BTreeMap::new();
    for policy in dataset.annotated() {
        for ann in &policy.annotations {
            if let Some(meta) = ann.payload.datatype_meta() {
                *type_meta.entry(meta).or_default() += 1;
            }
            if let Some(meta) = ann.payload.purpose_meta() {
                *purpose_meta.entry(meta).or_default() += 1;
            }
        }
    }
    println!("data-type annotations by meta-category:");
    for (meta, n) in &type_meta {
        println!("  {meta:?}: {n}");
    }
    println!("purpose annotations by meta-category:");
    for (meta, n) in &purpose_meta {
        println!("  {meta:?}: {n}");
    }
    println!("{}", tables::render_table1(&tables::table1(&dataset, 3)));
    println!("{}", Insights::compute(&dataset).render());
}
