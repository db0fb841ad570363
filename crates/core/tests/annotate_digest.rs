//! Pins the pipeline's annotation output on a small world.
//!
//! Runs `run_pipeline` over a 200-company world and folds the dataset JSON
//! and the run's `hallucinations_removed` total into one FNV-1a digest, once
//! per model profile. GPT-4's profile is the default; GPT-3.5's higher
//! hallucination rate sends rows the verbatim check cannot find on their
//! cited line down the whole-document scan. The pinned values were computed
//! before verification started checking the cited line first; a deliberate
//! change to annotation output re-pins them in the same change.

use aipan_chatbot::ModelProfile;
use aipan_core::{run_pipeline, PipelineConfig};
use aipan_webgen::{build_world, WorldConfig};

const SEED: u64 = 1;
const COMPANIES: usize = 200;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(hallucinations removed, digest)` of one run.
fn annotate_digest(profile: ModelProfile) -> (usize, String) {
    let world = build_world(WorldConfig::small(SEED, COMPANIES));
    let run = run_pipeline(
        &world,
        PipelineConfig {
            profile,
            ..PipelineConfig::default()
        },
    );
    let removed = run.extraction.hallucinations_removed;
    let json = run.dataset.to_json().expect("serialize dataset");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut hash, json.as_bytes());
    fnv1a(&mut hash, &(removed as u64).to_le_bytes());
    (removed, format!("{hash:016x}"))
}

#[test]
fn gpt4_annotations_match_the_pinned_digest() {
    assert_eq!(
        annotate_digest(ModelProfile::gpt4_turbo()),
        (1, "28a769645c030021".to_string()),
        "annotation output under the GPT-4 profile changed"
    );
}

#[test]
fn gpt35_annotations_match_the_pinned_digest() {
    assert_eq!(
        annotate_digest(ModelProfile::gpt35_turbo()),
        (12, "145d88ea15c56d6b".to_string()),
        "annotation output under the GPT-3.5 profile changed"
    );
}
