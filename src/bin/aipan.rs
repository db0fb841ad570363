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
//! aipan repro    [--seed N] [--size N] [experiment ...]
//!                                                     regenerate the paper's tables and figures:
//!                                                     fig1 funnel tab1 tab2a tab2b tab3 tab5 tab6
//!                                                     val-crawl val-miss val-prec sec5 sec6 usage,
//!                                                     or all (the default)
//! aipan analyze  <dataset.json> [--sector ABBREV]     analyze a previously exported dataset
//! ```
//!
//! `repro` defaults to seed 42 and the paper's 2916 constituents; `run` and
//! `audit` default to seed 42 and 600. An unknown command, experiment or
//! option, an option the subcommand does not read, a missing or extra
//! positional argument, an option without its value, a `--seed`/`--size`
//! that is not a number, a `--size` below 8 or an unknown `--sector`
//! abbreviation prints the usage text and exits 2 before any world is built
//! or dataset read.

use aipan::analysis::{insights::Insights, tables, validation};
use aipan::chatbot::ModelProfile;
use aipan::core::pipeline::Pipeline;
use aipan::core::{
    run_pipeline, run_pipeline_sharded, Dataset, PipelineConfig, PipelineRun, ShardedJournal,
    DEFAULT_SHARDS,
};
use aipan::crawler::crawl_domain;
use aipan::net::fault::FaultInjector;
use aipan::net::Client;
use aipan::taxonomy::datatypes::DataTypeMeta;
use aipan::taxonomy::normalize::Normalizer;
use aipan::taxonomy::purposes::PurposeMeta;
use aipan::taxonomy::records::AspectKind;
use aipan::taxonomy::sector::Sector;
use aipan::webgen::universe::{MIN_UNIVERSE_SIZE, UNIVERSE_SIZE};
use aipan::webgen::{build_world_lazy, SearchIndex, World, WorldConfig};
use std::collections::BTreeMap;

/// Every `repro` experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 14] = [
    "fig1",
    "funnel",
    "tab1",
    "tab2a",
    "tab2b",
    "tab3",
    "tab5",
    "tab6",
    "val-crawl",
    "val-miss",
    "val-prec",
    "sec5",
    "sec6",
    "usage",
];

struct Args {
    command: String,
    positional: Vec<String>,
    seed: u64,
    size: usize,
    out: Option<String>,
    sector: Option<Sector>,
    resume: Option<String>,
    health_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        positional: Vec::new(),
        seed: 42,
        size: 0,
        out: None,
        sector: None,
        resume: None,
        health_out: None,
    };
    let mut size = None;
    let mut given = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--sector" => {
                let abbrev = value(&arg, iter.next())?;
                let sector = Sector::from_abbrev(&abbrev)
                    .ok_or_else(|| format!("unknown sector abbreviation `{abbrev}`"))?;
                args.sector = Some(sector);
            }
            "--seed" => args.seed = number(&arg, iter.next())?,
            "--size" => size = Some(number(&arg, iter.next())?),
            "--out" => args.out = Some(value(&arg, iter.next())?),
            "--resume" => args.resume = Some(value(&arg, iter.next())?),
            "--health-out" => args.health_out = Some(value(&arg, iter.next())?),
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other if args.command.is_empty() => args.command = other.to_string(),
            other => args.positional.push(other.to_string()),
        }
        if arg.starts_with("--") {
            given.push(arg);
        }
    }

    // What each subcommand reads; anything else on its command line is an
    // error rather than silently ignored.
    let (options, positionals): (&[&str], &[&str]) = match args.command.as_str() {
        "run" => (
            &["--seed", "--size", "--out", "--resume", "--health-out"],
            &[],
        ),
        "audit" => (&["--seed", "--size"], &["<domain>"]),
        "repro" => (&["--seed", "--size"], &[]),
        "analyze" => (&["--sector"], &["<dataset.json>"]),
        "" => return Err("no command given".to_string()),
        other => return Err(format!("unknown command `{other}`")),
    };
    if let Some(flag) = given.iter().find(|f| !options.contains(&f.as_str())) {
        return Err(format!("`{}` does not take {flag}", args.command));
    }
    if args.command == "repro" {
        if let Some(other) = args
            .positional
            .iter()
            .find(|e| *e != "all" && !EXPERIMENTS.contains(&e.as_str()))
        {
            return Err(format!("unknown experiment `{other}`"));
        }
        if args.positional.is_empty() {
            args.positional.push("all".to_string());
        }
    } else if let Some(extra) = args.positional.get(positionals.len()) {
        return Err(format!("unexpected argument `{extra}`"));
    } else if let Some(missing) = positionals.get(args.positional.len()) {
        return Err(format!("`{}` needs {missing}", args.command));
    }

    let default_size = if args.command == "repro" {
        UNIVERSE_SIZE
    } else {
        600
    };
    args.size = size.unwrap_or(default_size);
    if args.size < MIN_UNIVERSE_SIZE {
        return Err(format!(
            "--size needs at least {MIN_UNIVERSE_SIZE}, got {}",
            args.size
        ));
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
        "usage: aipan <run|audit|repro|analyze> [args]\n\
         \n\
         run      [--seed N] [--size N] [--out FILE] [--resume JOURNAL] [--health-out FILE]\n\
         \x20                                              run the pipeline, export dataset JSON;\n\
         \x20                                              checkpoint/resume via a JSONL journal;\n\
         \x20                                              --health-out writes the RunHealth report\n\
         \x20                                              (verdict, error taxonomy, quarantine)\n\
         audit    <domain>   [--seed N] [--size N]     crawl + annotate one company\n\
         repro    [--seed N] [--size N] [experiment ...]\n\
         \x20                                              regenerate the paper's tables and figures\n\
         analyze  <dataset.json> [--sector ABBREV]     analyze an exported dataset\n\
         \n\
         --seed defaults to 42; --size defaults to 600 (repro: {UNIVERSE_SIZE}) and is at least {MIN_UNIVERSE_SIZE}\n\
         experiments: {} all (default all)",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn build(args: &Args) -> World {
    eprintln!(
        "building world (seed {}, {} constituents)...",
        args.seed, args.size
    );
    build_world_lazy(WorldConfig {
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
        "repro" => cmd_repro(&args),
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
        "health: {} ({} quarantined, {} poisoned skipped)",
        run.health.verdict,
        run.health.quarantine.len(),
        run.health.poisoned_skipped.len()
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
    let target = &args.positional[0]; // `parse_args` checked it is there
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

fn cmd_repro(args: &Args) {
    let world = build(args);
    eprintln!("running pipeline...");
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed: args.seed,
            ..Default::default()
        },
    );
    let vocab = Normalizer::new();
    eprintln!(
        "glossary: {} data-type surfaces, {} purpose surfaces",
        vocab.datatype_surface_count(),
        vocab.purpose_surface_count()
    );
    eprintln!(
        "pipeline done: {} policies annotated\n",
        run.dataset.annotated().count()
    );
    for experiment in &args.positional {
        run_experiment(experiment, &world, &run, args.seed);
    }
}

fn run_experiment(experiment: &str, world: &World, run: &PipelineRun, seed: u64) {
    match experiment {
        "fig1" => fig1(run),
        "funnel" => funnel(run),
        "tab1" => println!(
            "{}",
            tables::render_table1(&tables::table1(&run.dataset, 3))
        ),
        "tab2a" => println!(
            "{}",
            tables::render_breakdown(
                "Table 2a — Collected data types (meta-categories)",
                &tables::table2a(&run.dataset)
            )
        ),
        "tab2b" => println!(
            "{}",
            tables::render_breakdown(
                "Table 2b — Data collection purposes",
                &tables::table2b(&run.dataset)
            )
        ),
        "tab3" => println!("{}", tables::render_table3(&tables::table3(&run.dataset))),
        "tab6" => println!(
            "{}",
            tables::render_table6(&tables::table6(world, &run.dataset, 4, seed))
        ),
        "tab5" => println!(
            "{}",
            tables::render_breakdown(
                "Table 5 — Collected data types (all categories)",
                &tables::table5(&run.dataset)
            )
        ),
        "val-crawl" => println!(
            "{}",
            validation::FailureAudit::run(world, &run.dataset, 50, seed).render()
        ),
        "val-miss" => println!(
            "{}",
            validation::MissingAspectAudit::run(world, &run.dataset, 20, seed).render()
        ),
        "val-prec" => println!(
            "{}",
            validation::PrecisionReport::run(world, &run.dataset, seed).render()
        ),
        "sec5" => println!("{}", Insights::compute(&run.dataset).render()),
        "sec6" => sec6(world, seed),
        "usage" => token_usage(run),
        "all" => {
            for e in EXPERIMENTS {
                run_experiment(e, world, run, seed);
            }
        }
        other => unreachable!("experiment `{other}` passed parse_args"),
    }
}

fn fig1(run: &PipelineRun) {
    let f = &run.crawl_funnel;
    let e = &run.extraction;
    println!("Figure 1 — Pipeline overview (stage counts)");
    println!("  company list        → {} unique domains", f.domains_total);
    println!(
        "  web crawler         → {} domains with ≥1 privacy page",
        f.crawl_success
    );
    println!(
        "  text extraction     → {} policies with aspect text",
        e.extraction_success
    );
    println!(
        "  chatbot annotation  → {} policies with ≥1 annotation",
        e.annotated
    );
    let total: usize = run
        .dataset
        .policies
        .iter()
        .map(|p| p.annotations.len())
        .sum();
    println!("  labeled annotations → {total} unique annotations\n");
}

fn funnel(run: &PipelineRun) {
    let f = &run.crawl_funnel;
    let e = &run.extraction;
    println!("Section 3 funnel (measured vs [paper])");
    println!(
        "  domains                    {:>6}   [2892]",
        f.domains_total
    );
    println!(
        "  crawl success              {:>6} ({:.1}%)   [2648, 91.6%]",
        f.crawl_success,
        100.0 * f.success_rate()
    );
    println!(
        "  /privacy-policy exists      {:>5.1}%   [54.5%]",
        100.0 * f.policy_path_rate()
    );
    println!(
        "  /privacy exists             {:>5.1}%   [48.6%]",
        100.0 * f.privacy_path_rate()
    );
    println!(
        "  avg pages crawled           {:>5.2}   [5.1]",
        f.avg_pages_crawled()
    );
    println!(
        "  privacy pages per domain    {:>5.2}   [1.8]",
        e.avg_english_privacy_pages()
    );
    println!(
        "  extraction success         {:>6} ({:.1}% all, {:.1}% of crawled)   [2545, 88%, 96.1%]",
        e.extraction_success,
        100.0 * e.extraction_rate(),
        100.0 * e.extraction_rate_of_crawled()
    );
    println!("  ≥1 annotation              {:>6}   [2529]", e.annotated);
    println!(
        "  missing ≥1 aspect          {:>6}   [375]",
        e.missing_any_aspect
    );
    println!(
        "  fallback activated         {:>6}   [708]",
        e.policies_with_fallback
    );
    println!(
        "  median core words          {:>6}   [2671]",
        e.median_core_words
    );
    println!(
        "  hallucinations removed     {:>6}",
        e.hallucinations_removed
    );
    println!(
        "  robots: {} fetches skipped, {} domains fully blocked, {:.1} h politeness delay\n",
        f.robots_skipped,
        f.robots_blocked_domains,
        f.politeness_delay_ms as f64 / 3_600_000.0
    );
}

fn sec6(world: &World, seed: u64) {
    let profiles = vec![
        ModelProfile::gpt4_turbo(),
        ModelProfile::llama31(),
        ModelProfile::gpt35_turbo(),
    ];
    println!(
        "{}",
        validation::ModelComparison::run(world, &profiles, 20, seed).render()
    );
}

fn token_usage(run: &PipelineRun) {
    println!("Token usage per task:");
    let mut total = 0u64;
    for (task, u) in &run.usage {
        println!(
            "  {:<22} calls={:<6} prompt={:<9} input={:<10} output={:<9} total={}",
            task,
            u.calls,
            u.prompt_tokens,
            u.input_tokens,
            u.output_tokens,
            u.total()
        );
        total += u.total();
    }
    println!("  total tokens: {total}\n");
}

fn cmd_analyze(args: &Args) {
    let path = &args.positional[0]; // `parse_args` checked it is there
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut dataset = Dataset::from_json(&json).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    if let Some(sector) = args.sector {
        dataset.policies.retain(|p| p.sector == sector);
        println!("sector filter: {} ({sector:?})", sector.abbrev());
    }
    println!(
        "{} policies, {} annotated",
        dataset.len(),
        dataset.annotated().count()
    );
    let rendered: Vec<String> = AspectKind::ALL
        .iter()
        .map(|&kind| format!("{kind:?} {}", dataset.annotation_count(kind)))
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
