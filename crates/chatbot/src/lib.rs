//! # aipan-chatbot
//!
//! The AI-chatbot annotation engine — AIPAN-RS's stand-in for the OpenAI
//! `gpt-4-turbo-2024-04-09` chatbot the paper drives with task prompts.
//!
//! The paper's protocol is preserved end to end:
//!
//! * every task is a **prompt** (role statement + numbered instructions +
//!   glossary + input/output example, as in Figure 2) built by [`prompt`];
//! * the model consumes **numbered text lines** (`[123] …`) and returns a
//!   **JSON-formatted string** of tuples, encoded and parsed by
//!   [`protocol`];
//! * prompt/input/output **token usage** is accounted per task by
//!   [`tokens`].
//!
//! A completion reads its input once and its answer once: the engine
//! hashes the input into its decision key once, the task borrows its lines
//! from the input, the answer is written row by row, and the caller's
//! single parse both decodes the rows and decides whether to re-prompt.
//!
//! The model itself is simulated: [`engine::SimulatedChatbot`] implements
//! the [`Chatbot`] trait with a deterministic glossary/knowledge-based
//! annotator whose *error models* ([`profile::ModelProfile`]) are calibrated
//! to the paper's measurements — GPT-4-Turbo's per-aspect precision
//! (89.7% / 94.3% / 97.5% / 90.5%, §4), Llama-3.1's negated-context
//! mistakes and 83.2% extraction precision, and GPT-3.5-Turbo's failure to
//! cope with policy text (§6). The simulated model "knows" more vocabulary
//! than the prompt glossary (the [`aipan_taxonomy::zeroshot`] terms),
//! reproducing the pipeline's open-vocabulary (zero-shot) annotations.
//!
//! Task implementations live in [`tasks`]: heading labeling and full-text
//! segmentation (Appendix B), data-type extraction + normalization,
//! purpose annotation, and handling/rights labeling.

#![warn(missing_docs)]

pub mod engine;
pub mod matcher;
pub mod profile;
pub mod prompt;
pub mod protocol;
pub mod tasks;
pub mod tokens;

pub use engine::SimulatedChatbot;
pub use profile::ModelProfile;
pub use prompt::{TaskKind, TaskPrompt};
pub use tokens::{TokenUsage, UsageLedger};

/// A chatbot that completes task prompts.
///
/// `complete` receives the rendered [`TaskPrompt`] and the task input (the
/// numbered-line document) and returns the model's raw text output — for
/// well-behaved models, a JSON-formatted string per the task instructions.
pub trait Chatbot: Send + Sync {
    /// Complete `prompt` against `input`, returning raw model output.
    fn complete(&self, prompt: &TaskPrompt, input: &str) -> String;

    /// Complete `prompt` against `input` as re-prompt attempt `attempt`
    /// (0-based). Implementations with transient failure modes (refusals,
    /// truncation, malformed output) key those on the attempt so a bounded
    /// re-prompt loop can recover; the default ignores the attempt.
    fn complete_attempt(&self, prompt: &TaskPrompt, input: &str, attempt: u32) -> String {
        let _ = attempt;
        self.complete(prompt, input)
    }

    /// The model identifier (e.g. `"gpt-4-turbo-2024-04-09"`).
    fn model_id(&self) -> &str;

    /// Cumulative token usage.
    fn usage(&self) -> TokenUsage;
}
