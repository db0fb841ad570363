//! Model error profiles.
//!
//! Each profile parameterizes the simulated model's failure modes, with
//! values calibrated so the pipeline's measured quality reproduces the
//! paper: GPT-4-Turbo's per-aspect annotation precision (§4: 89.7% types /
//! 94.3% purposes / 97.5% handling / 90.5% rights, with ~40% of rights
//! errors in "Do not use"), the §6 extraction-precision comparison
//! (GPT-4 96.2% vs Llama-3.1 83.2%, Llama extracting negated contexts),
//! and GPT-3.5-Turbo's overall unsuitability.

use serde::{Deserialize, Serialize};

/// Error-model parameters for a simulated chatbot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model identifier string.
    pub id: String,
    /// Probability a true mention is extracted (per mention).
    pub extraction_recall: f64,
    /// Probability a *negated* mention is wrongly extracted anyway.
    pub negation_error: f64,
    /// Probability (per input line) of extracting a spurious non-data-type
    /// span ("context confusion", e.g. GPT-3.5 mistaking ActiveCampaign for
    /// a data type).
    pub spurious_rate: f64,
    /// Probability (per extraction call) of emitting a fabricated mention
    /// not present in the text at all — removed by the pipeline's
    /// hallucination verification.
    pub hallucination_rate: f64,
    /// Probability a data-type normalization is assigned a wrong category.
    pub type_confusion: f64,
    /// Probability a purpose annotation is assigned a wrong
    /// descriptor/category.
    pub purpose_confusion: f64,
    /// Probability a handling label is wrong.
    pub handling_confusion: f64,
    /// Probability a rights label is wrong (excluding the "Do not use"
    /// special case).
    pub rights_confusion: f64,
    /// Probability (per candidate boilerplate line) of a spurious
    /// "Do not use" annotation — the category the paper found hardest.
    pub spurious_do_not_use: f64,
    /// Probability a heading/segment label is corrupted to `other`.
    pub segmentation_noise: f64,
    /// Probability (per aspect per document) that whole-text segmentation
    /// consistently fails to recognize an aspect's lines, leaving its
    /// section empty (this drives the paper's 708-policy full-text fallback
    /// rate).
    pub line_label_noise: f64,
    /// Probability a completion is well-formed JSON (below 1.0, the model
    /// sometimes returns malformed output the pipeline must tolerate).
    pub instruction_following: f64,
    /// Probability (per call) the model refuses the task outright
    /// ("I cannot assist…") — the LLM-side analogue of a bot wall.
    pub refusal_rate: f64,
    /// Probability (per call) the completion is cut off mid-stream,
    /// yielding truncated (hence unparsable) JSON.
    pub truncation_rate: f64,
}

impl ModelProfile {
    /// OpenAI `gpt-4-turbo-2024-04-09`, the paper's production model.
    pub fn gpt4_turbo() -> ModelProfile {
        ModelProfile {
            id: "gpt-4-turbo-2024-04-09".to_string(),
            extraction_recall: 0.97,
            negation_error: 0.04,
            spurious_rate: 0.012,
            hallucination_rate: 0.01,
            type_confusion: 0.062,
            purpose_confusion: 0.040,
            handling_confusion: 0.012,
            rights_confusion: 0.055,
            spurious_do_not_use: 0.005,
            segmentation_noise: 0.08,
            line_label_noise: 0.25,
            instruction_following: 1.0,
            refusal_rate: 0.01,
            truncation_rate: 0.01,
        }
    }

    /// OpenAI GPT-3.5-Turbo (§6: "unsatisfactory performance").
    pub fn gpt35_turbo() -> ModelProfile {
        ModelProfile {
            id: "gpt-3.5-turbo".to_string(),
            extraction_recall: 0.55,
            negation_error: 0.40,
            spurious_rate: 0.30,
            hallucination_rate: 0.08,
            type_confusion: 0.35,
            purpose_confusion: 0.30,
            handling_confusion: 0.20,
            rights_confusion: 0.25,
            spurious_do_not_use: 0.20,
            segmentation_noise: 0.15,
            line_label_noise: 0.50,
            instruction_following: 0.85,
            refusal_rate: 0.02,
            truncation_rate: 0.02,
        }
    }

    /// Llama-3.1 (§6: comparable to GPT-4 but extracts negated contexts;
    /// 83.2% extraction precision vs GPT-4's 96.2%).
    pub fn llama31() -> ModelProfile {
        ModelProfile {
            id: "llama-3.1".to_string(),
            extraction_recall: 0.93,
            negation_error: 0.70,
            spurious_rate: 0.048,
            hallucination_rate: 0.02,
            type_confusion: 0.12,
            purpose_confusion: 0.10,
            handling_confusion: 0.05,
            rights_confusion: 0.10,
            spurious_do_not_use: 0.12,
            segmentation_noise: 0.05,
            line_label_noise: 0.40,
            instruction_following: 0.97,
            refusal_rate: 0.02,
            truncation_rate: 0.01,
        }
    }

    /// A perfect oracle (no errors) — used by tests to isolate pipeline
    /// behaviour from model noise.
    pub fn oracle() -> ModelProfile {
        ModelProfile {
            id: "oracle".to_string(),
            extraction_recall: 1.0,
            negation_error: 0.0,
            spurious_rate: 0.0,
            hallucination_rate: 0.0,
            type_confusion: 0.0,
            purpose_confusion: 0.0,
            handling_confusion: 0.0,
            rights_confusion: 0.0,
            spurious_do_not_use: 0.0,
            segmentation_noise: 0.0,
            line_label_noise: 0.0,
            instruction_following: 1.0,
            refusal_rate: 0.0,
            truncation_rate: 0.0,
        }
    }
}

/// Deterministic error decision: uniform hash of `(seed, parts…)` compared
/// against `p`. Stable across runs, threads, and call order.
pub fn decide(seed: u64, parts: &[&str], p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    unit(seed, parts) < p
}

/// Uniform float in [0,1) from `(seed, parts…)`.
pub fn unit(seed: u64, parts: &[&str]) -> f64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    for p in parts {
        p.hash(&mut h);
    }
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// Pick a deterministic index in `0..n` from `(seed, parts…)`.
pub fn pick(seed: u64, parts: &[&str], n: usize) -> usize {
    debug_assert!(n > 0);
    (unit(seed, parts) * n as f64) as usize % n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_ordered_by_quality() {
        let gpt4 = ModelProfile::gpt4_turbo();
        let llama = ModelProfile::llama31();
        let gpt35 = ModelProfile::gpt35_turbo();
        assert!(gpt4.extraction_recall > gpt35.extraction_recall);
        assert!(gpt4.negation_error < llama.negation_error);
        assert!(
            llama.negation_error > 0.5,
            "llama must extract negated contexts"
        );
        assert!(gpt4.spurious_rate < llama.spurious_rate);
        assert!(llama.spurious_rate < gpt35.spurious_rate);
    }

    #[test]
    fn oracle_is_perfect() {
        let o = ModelProfile::oracle();
        assert_eq!(o.extraction_recall, 1.0);
        assert_eq!(o.type_confusion, 0.0);
        assert_eq!(o.instruction_following, 1.0);
    }

    #[test]
    fn decide_deterministic_and_rate_accurate() {
        let n = 20_000;
        let hits = (0..n)
            .filter(|i| decide(9, &["test", &i.to_string()], 0.25))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert_eq!(decide(9, &["a", "b"], 0.5), decide(9, &["a", "b"], 0.5));
    }

    #[test]
    fn decide_extremes() {
        assert!(!decide(1, &["x"], 0.0));
        assert!(decide(1, &["x"], 1.0));
    }

    #[test]
    fn pick_in_range() {
        for i in 0..100 {
            let k = pick(3, &["p", &i.to_string()], 7);
            assert!(k < 7);
        }
    }
}
