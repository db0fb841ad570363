//! The §3.2.2 design choices, each switched off in turn over one small
//! fixed world, with the sign and rough size of its effect checked:
//!
//! * segmentation first: annotating the whole text instead of each
//!   aspect's section costs at least twice the chatbot input tokens;
//! * the full-text fallback: without it no policy falls back and the
//!   run keeps strictly fewer annotations;
//! * verbatim verification: without it nothing is removed, and the rows
//!   verification would have dropped stay in the dataset.
//!
//! EXPERIMENTS.md ("Ablation checks") gives the measured values each band
//! was set from.

use aipan::core::annotate::AnnotateOptions;
use aipan::core::{run_pipeline, PipelineConfig, PipelineRun};
use aipan::webgen::{build_world, World, WorldConfig};
use std::sync::OnceLock;

const SEED: u64 = 5;
const SIZE: usize = 60;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| build_world(WorldConfig::small(SEED, SIZE)))
}

fn run(use_segmentation: bool, fallback: bool, verify: bool) -> PipelineRun {
    run_pipeline(
        world(),
        PipelineConfig {
            seed: SEED,
            use_segmentation,
            annotate: AnnotateOptions {
                fallback,
                verify,
                ..AnnotateOptions::default()
            },
            ..Default::default()
        },
    )
}

/// The default run: every switch on.
fn baseline() -> &'static PipelineRun {
    static RUN: OnceLock<PipelineRun> = OnceLock::new();
    RUN.get_or_init(|| run(true, true, true))
}

fn input_tokens(run: &PipelineRun) -> u64 {
    run.usage.iter().map(|(_, u)| u.input_tokens).sum()
}

fn annotations(run: &PipelineRun) -> usize {
    run.dataset
        .policies
        .iter()
        .map(|p| p.annotations.len())
        .sum()
}

#[test]
fn whole_text_annotation_costs_at_least_twice_the_input_tokens() {
    let sectioned = input_tokens(baseline());
    let whole = input_tokens(&run(false, true, true));
    assert!(sectioned > 0, "the sectioned run made no chatbot calls");
    assert!(
        whole >= 2 * sectioned,
        "whole text {whole} input tokens vs sectioned {sectioned}: below 2x"
    );
}

#[test]
fn fallback_off_loses_annotations() {
    let on = baseline();
    assert!(
        on.extraction.policies_with_fallback >= 1,
        "precondition: the world must exercise the fallback"
    );
    let off = run(true, false, true);
    assert_eq!(off.extraction.policies_with_fallback, 0);
    assert!(
        annotations(&off) < annotations(on),
        "fallback off kept {} annotations, on {}",
        annotations(&off),
        annotations(on)
    );
}

#[test]
fn verify_off_keeps_the_rows_verification_drops() {
    let on = baseline();
    let removed = on.extraction.hallucinations_removed;
    assert!(
        removed >= 1,
        "precondition: the world must plant a hallucination"
    );
    let off = run(true, true, false);
    assert_eq!(off.extraction.hallucinations_removed, 0);
    // Not `== on + removed` by construction: a kept hallucination can still
    // fail normalization or deduplicate against a real mention.
    assert!(
        annotations(&off) > annotations(on),
        "verify off kept {} annotations, on {} ({removed} removed)",
        annotations(&off),
        annotations(on)
    );
}
