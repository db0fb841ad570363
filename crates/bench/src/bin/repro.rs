//! Regenerate every table and figure of the paper from a full simulated-
//! world pipeline run.
//!
//! Usage: `repro [experiment ...]` where experiment is one of
//! `fig1 funnel tab1 tab2a tab2b tab3 tab5 tab6 val-crawl val-miss val-prec
//! sec5 sec6 usage all` (default `all`).
//!
//! Optional flags: `--seed N` (default 42), `--size N` (universe size,
//! default 2916). An unknown experiment or option, or a `--seed`/`--size`
//! that is not a number, prints the usage text and exits 2 before the world
//! is built.

use aipan_analysis::{insights::Insights, tables, validation};
use aipan_chatbot::ModelProfile;
use aipan_core::{run_pipeline, PipelineConfig, PipelineRun};
use aipan_taxonomy::normalize::Normalizer;
use aipan_webgen::{build_world, World, WorldConfig};

/// Every experiment, in the order `all` runs them.
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
    seed: u64,
    size: usize,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        size: aipan_webgen::universe::UNIVERSE_SIZE,
        experiments: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => args.seed = number(&arg, iter.next())?,
            "--size" => args.size = number(&arg, iter.next())?,
            other if other == "all" || EXPERIMENTS.contains(&other) => {
                args.experiments.push(other.to_string())
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => return Err(format!("unknown experiment `{other}`")),
        }
    }
    if args.experiments.is_empty() {
        args.experiments.push("all".to_string());
    }
    Ok(args)
}

/// The number after `flag`, which must be there.
fn number<T: std::str::FromStr>(flag: &str, next: Option<String>) -> Result<T, String> {
    let value = next.ok_or_else(|| format!("{flag} needs a number"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

fn main() {
    let Args {
        seed,
        size,
        experiments,
    } = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "repro: {e}\n\
             usage: repro [--seed N] [--size N] [experiment ...]\n\
             experiments: {} all",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    });

    eprintln!("building world (seed {seed}, {size} constituents)...");
    let world = build_world(WorldConfig {
        seed,
        universe_size: size,
        ..Default::default()
    });
    eprintln!("running pipeline...");
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed,
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

    for experiment in &experiments {
        run_experiment(experiment, &world, &run, seed);
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
        "usage" => usage(run),
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

fn usage(run: &PipelineRun) {
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
