//! Integration tests for the beyond-the-paper extensions: longitudinal
//! trends and risk scoring.

use aipan::analysis::risk;
use aipan::analysis::trends::{peer_gaps, TrendReport};
use aipan::core::{run_pipeline, PipelineConfig};
use aipan::webgen::{build_world, WorldConfig};
use std::sync::OnceLock;

const SEED: u64 = 777;
const SIZE: usize = 250;

fn snapshot(revision: u32) -> aipan::core::PipelineRun {
    let world = build_world(WorldConfig::small(SEED, SIZE).at_revision(revision));
    run_pipeline(
        &world,
        PipelineConfig {
            seed: SEED,
            ..Default::default()
        },
    )
}

fn fixture() -> &'static (aipan::core::PipelineRun, aipan::core::PipelineRun) {
    static FIX: OnceLock<(aipan::core::PipelineRun, aipan::core::PipelineRun)> = OnceLock::new();
    FIX.get_or_init(|| (snapshot(0), snapshot(2)))
}

#[test]
fn trend_report_detects_policy_evolution() {
    let (v0, v2) = fixture();
    let report = TrendReport::diff(&v0.dataset, &v2.dataset);
    assert!(
        report.companies_compared > 150,
        "{}",
        report.companies_compared
    );
    // Two update cycles must change a nontrivial but minority share.
    let churn = report.churn_rate();
    assert!((0.05..0.95).contains(&churn), "churn {churn}");
    // Flux totals must agree with the per-company diffs.
    let added_total: usize = report.diffs.iter().map(|d| d.added.len()).sum();
    let flux_added: usize = report.practice_flux.values().map(|(a, _)| a).sum();
    assert_eq!(added_total, flux_added);
    assert!(report.render(5).contains("Trend report"));
}

#[test]
fn same_revision_diff_is_empty() {
    let (v0, _) = fixture();
    let report = TrendReport::diff(&v0.dataset, &v0.dataset);
    assert!(report.diffs.is_empty());
    assert_eq!(report.disappeared, 0);
    assert_eq!(report.appeared, 0);
}

#[test]
fn risk_scores_cover_dataset_and_are_bounded() {
    let (v0, _) = fixture();
    let scores = risk::rank(&v0.dataset);
    assert_eq!(scores.len(), v0.dataset.annotated().count());
    for s in &scores {
        assert!(
            (0.0..=100.0).contains(&s.score),
            "{} scored {}",
            s.domain,
            s.score
        );
    }
    // Ranked descending.
    for pair in scores.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
    // Spread: the riskiest must be meaningfully above the safest.
    let spread = scores.first().unwrap().score - scores.last().unwrap().score;
    assert!(spread > 15.0, "risk spread only {spread}");
}

#[test]
fn peer_gaps_only_report_safeguard_practices() {
    let (v0, _) = fixture();
    let domain = &v0.dataset.annotated().next().unwrap().domain.clone();
    let gaps = peer_gaps(&v0.dataset, domain, 0.5).expect("domain in dataset");
    for gap in &gaps {
        assert!(
            gap.starts_with("choice:")
                || gap.starts_with("access:")
                || gap.starts_with("protection:")
                || gap.starts_with("retention:"),
            "unexpected gap kind {gap}"
        );
    }
}
