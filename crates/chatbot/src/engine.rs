//! The simulated chatbot: dispatches task prompts to the task
//! implementations, applies the instruction-following error model, and
//! accounts tokens.

use crate::profile::{decide, ModelProfile};
use crate::prompt::{TaskKind, TaskPrompt};
use crate::tasks;
use crate::tokens::{TokenUsage, UsageLedger};
use crate::{protocol, Chatbot};

/// A deterministic simulated chatbot with a given error profile.
///
/// Cheap to clone; clones share the usage ledger.
///
/// ```
/// use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
/// use aipan_chatbot::{protocol, Chatbot, ModelProfile, SimulatedChatbot};
///
/// let bot = SimulatedChatbot::new(ModelProfile::oracle(), 7);
/// let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
/// let input = protocol::number_lines(["We collect your email address."]);
/// let rows = protocol::parse_extractions(&bot.complete(prompt, &input));
/// assert_eq!(rows, Some(vec![(1, "email address".to_string())]));
/// ```
#[derive(Clone)]
pub struct SimulatedChatbot {
    profile: ModelProfile,
    seed: u64,
    ledger: UsageLedger,
}

impl SimulatedChatbot {
    /// Create a chatbot with `profile`, seeded by `seed`.
    pub fn new(profile: ModelProfile, seed: u64) -> SimulatedChatbot {
        SimulatedChatbot {
            profile,
            seed,
            ledger: UsageLedger::new(),
        }
    }

    /// GPT-4-Turbo-profile chatbot (the paper's production configuration).
    pub fn gpt4(seed: u64) -> SimulatedChatbot {
        SimulatedChatbot::new(ModelProfile::gpt4_turbo(), seed)
    }

    /// The error profile in effect.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Per-task usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// Simulate a mid-stream cutoff: drop the tail of the completion at a
    /// hash-derived point, yielding unparsable JSON a re-prompt can redraw.
    fn maybe_truncate(&self, prompt: &TaskPrompt, doc: &str, tag: &str, output: String) -> String {
        use crate::profile::unit;
        let parts = [
            self.profile.id.as_str(),
            "truncate",
            prompt.kind.name(),
            doc,
            tag,
        ];
        if output.len() < 4 || !decide(self.seed, &parts, self.profile.truncation_rate) {
            return output;
        }
        let frac = 0.25 + 0.5 * unit(self.seed, &[&parts[..], &["cut"]].concat());
        let cut = fractional_cut(output.len(), frac).max(2);
        let cut = (0..=cut).rev().find(|&i| output.is_char_boundary(i));
        output[..cut.unwrap_or(0)].to_string()
    }
}

/// Deterministic cut index for the truncation fault: `floor(n * frac)`.
///
/// The float round-trip is the intended semantics — the fault model drops
/// a hash-derived *fraction* of the completion — and `n` is one
/// response's byte length, bounded per document (f64 is exact far beyond
/// it), so the truncating conversion cannot wrap.
fn fractional_cut(n: usize, frac: f64) -> usize {
    (n as f64 * frac) as usize
}

impl Chatbot for SimulatedChatbot {
    fn complete(&self, prompt: &TaskPrompt, input: &str) -> String {
        self.complete_attempt(prompt, input, 0)
    }

    fn complete_attempt(&self, prompt: &TaskPrompt, input: &str, attempt: u32) -> String {
        // LLM-side transient faults, keyed on (task, doc, attempt) so a
        // re-prompt redraws them: refusals, malformed output (GPT-3.5
        // exhibits these; GPT-4 effectively never), and mid-stream
        // truncation. The document is hashed once here; the task keys its
        // own decisions on the same key.
        let doc = tasks::doc_key(input);
        let tag = attempt.to_string();
        let (profile, seed) = (&self.profile, self.seed);
        let output = if decide(
            seed,
            &[&profile.id, "refuse", prompt.kind.name(), &doc, &tag],
            profile.refusal_rate,
        ) {
            "I cannot assist with analyzing this document.".to_string()
        } else if !decide(
            seed,
            &[&profile.id, "follow", prompt.kind.name(), &doc, &tag],
            profile.instruction_following,
        ) {
            "I'm sorry, here are the results you asked for:\n[[1, \"".to_string()
        } else {
            match prompt.kind {
                TaskKind::LabelHeadings => {
                    protocol::encode_labels(&tasks::run_label_headings(profile, seed, &doc, input))
                }
                TaskKind::SegmentText => {
                    protocol::encode_labels(&tasks::run_segment_text(profile, seed, &doc, input))
                }
                TaskKind::ExtractDataTypes => protocol::encode_extractions(
                    &tasks::run_extract_datatypes(profile, seed, &doc, input),
                ),
                TaskKind::NormalizeDataTypes => protocol::encode_normalizations(
                    &tasks::run_normalize_datatypes(profile, seed, &doc, input),
                ),
                TaskKind::AnnotatePurposes => protocol::encode_purposes(
                    &tasks::run_annotate_purposes(profile, seed, &doc, input),
                ),
                TaskKind::AnnotateHandling => protocol::encode_handling(
                    &tasks::run_annotate_handling(profile, seed, &doc, input),
                ),
                TaskKind::AnnotateRights => {
                    protocol::encode_rights(&tasks::run_annotate_rights(profile, seed, &doc, input))
                }
            }
        };
        let output = self.maybe_truncate(prompt, &doc, &tag, output);
        self.ledger
            .record(prompt.kind.name(), prompt.tokens(), input, &output);
        output
    }

    fn model_id(&self) -> &str {
        &self.profile.id
    }

    fn usage(&self) -> TokenUsage {
        self.ledger.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{number_lines, parse_extractions};

    #[test]
    fn completes_extraction_task_via_trait() {
        let bot = SimulatedChatbot::new(ModelProfile::oracle(), 1);
        let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
        let input = number_lines(["We collect your email address."]);
        let output = bot.complete(prompt, &input);
        let rows = parse_extractions(&output);
        assert_eq!(rows, Some(vec![(1, "email address".to_string())]));
    }

    #[test]
    fn usage_accounted_per_task() {
        let bot = SimulatedChatbot::gpt4(2);
        let input = number_lines(["We collect your name."]);
        bot.complete(TaskPrompt::build(TaskKind::ExtractDataTypes), &input);
        bot.complete(TaskPrompt::build(TaskKind::AnnotateRights), &input);
        let usage = bot.usage();
        assert_eq!(usage.calls, 2);
        assert!(usage.prompt_tokens > 0);
        assert!(bot.ledger().task_usage("extract_data_types").calls == 1);
        assert_eq!(bot.model_id(), "gpt-4-turbo-2024-04-09");
    }

    #[test]
    fn gpt35_sometimes_returns_malformed_output() {
        let bot = SimulatedChatbot::new(ModelProfile::gpt35_turbo(), 3);
        let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
        let mut malformed = 0;
        for i in 0..200 {
            let input = number_lines([format!("We collect your name, case {i}.").as_str()]);
            let out = bot.complete(prompt, &input);
            if serde_json::from_str::<serde_json::Value>(&out).is_err() {
                malformed += 1;
            }
        }
        let rate = malformed as f64 / 200.0;
        assert!((rate - 0.15).abs() < 0.08, "malformed rate {rate}");
    }

    #[test]
    fn transient_llm_faults_redraw_across_attempts() {
        // With aggressive fault rates, some call fails on attempt 0 but
        // recovers within a few re-prompts — faults are keyed on attempt.
        let mut profile = ModelProfile::gpt35_turbo();
        profile.refusal_rate = 0.3;
        profile.truncation_rate = 0.3;
        profile.instruction_following = 0.7;
        let bot = SimulatedChatbot::new(profile, 11);
        let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
        let mut failed_then_recovered = 0;
        for i in 0..60 {
            let input = number_lines([format!("We collect your email, case {i}.").as_str()]);
            let first = bot.complete_attempt(prompt, &input, 0);
            if parse_extractions(&first).is_some() {
                continue;
            }
            if (1..4).any(|a| parse_extractions(&bot.complete_attempt(prompt, &input, a)).is_some())
            {
                failed_then_recovered += 1;
            }
        }
        assert!(
            failed_then_recovered > 5,
            "re-prompts should recover transient faults, got {failed_then_recovered}"
        );
    }

    #[test]
    fn refusals_and_truncations_are_deterministic_and_malformed() {
        let mut profile = ModelProfile::oracle();
        profile.refusal_rate = 1.0;
        let bot = SimulatedChatbot::new(profile, 5);
        let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
        let input = number_lines(["We collect your name."]);
        let out = bot.complete(prompt, &input);
        assert!(out.starts_with("I cannot assist"));
        assert_eq!(parse_extractions(&out), None);
        assert_eq!(out, bot.complete(prompt, &input));

        let mut profile = ModelProfile::oracle();
        profile.truncation_rate = 1.0;
        let bot = SimulatedChatbot::new(profile, 5);
        let full_bot = SimulatedChatbot::new(ModelProfile::oracle(), 5);
        let full = full_bot.complete(prompt, &input);
        let cut = bot.complete(prompt, &input);
        assert!(cut.len() < full.len(), "cut={cut:?} full={full:?}");
        assert!(full.starts_with(&cut), "truncation must be a prefix");
        assert_eq!(parse_extractions(&cut), None);
    }

    #[test]
    fn clones_share_ledger() {
        let bot = SimulatedChatbot::gpt4(4);
        let clone = bot.clone();
        clone.complete(
            TaskPrompt::build(TaskKind::ExtractDataTypes),
            &number_lines(["We collect your name."]),
        );
        assert_eq!(bot.usage().calls, 1);
    }

    #[test]
    fn deterministic_completions() {
        let a = SimulatedChatbot::gpt4(5);
        let b = SimulatedChatbot::gpt4(5);
        let prompt = TaskPrompt::build(TaskKind::AnnotateHandling);
        let input = number_lines(["We retain your data for two (2) years."]);
        assert_eq!(a.complete(prompt, &input), b.complete(prompt, &input));
    }
}
