//! Token accounting.
//!
//! The paper notes that sectioning the policy "helps … minimize token usage
//! for subsequent annotation tasks"; `tests/ablations.rs` checks that claim,
//! so usage must be tracked per task. Tokens are estimated with the
//! standard ~4-characters-per-token heuristic for English text.
//!
//! Every completion is counted once: the constant prompt's estimate is
//! taken when the prompt is rendered ([`crate::TaskPrompt::tokens`]) and
//! passed to [`UsageLedger::record`] as a number, and the input and output
//! are each read once by [`estimate_tokens`].

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Estimate the token count of `text` (≈ 4 characters per token, with a
/// floor of the whitespace word count — legal text is word-dense).
///
/// Equal to `(text.chars().count() / 4).max(text.split_whitespace().count())`,
/// counted in one pass over the bytes. An ASCII byte is one char, and
/// whitespace when it is one of ` \t\n\x0B\x0C\r`, so ASCII text is never
/// decoded. A UTF-8 continuation byte belongs to the char before it, and
/// only a non-ASCII lead byte decodes its char to ask
/// [`char::is_whitespace`].
pub fn estimate_tokens(text: &str) -> u64 {
    let mut chars = 0u64;
    let mut words = 0u64;
    let mut in_word = false;
    for (i, &b) in text.as_bytes().iter().enumerate() {
        let word = if b.is_ascii() {
            !is_ascii_space(b)
        } else if b < 0xC0 {
            continue;
        } else {
            !text
                .get(i..)
                .and_then(|rest| rest.chars().next())
                .is_some_and(char::is_whitespace)
        };
        chars += 1;
        words += u64::from(word & !in_word);
        in_word = word;
    }
    (chars / 4).max(words)
}

/// `char::is_whitespace` for an ASCII byte: space, `\t`, `\n`, `\x0B`,
/// `\x0C` or `\r`.
fn is_ascii_space(b: u8) -> bool {
    b == b' ' || b.wrapping_sub(b'\t') < 5
}

/// Cumulative token usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenUsage {
    /// Tokens in rendered prompts.
    pub prompt_tokens: u64,
    /// Tokens in task inputs (the numbered documents).
    pub input_tokens: u64,
    /// Tokens in model outputs.
    pub output_tokens: u64,
    /// Number of completions issued.
    pub calls: u64,
}

impl TokenUsage {
    /// Total tokens across prompt, input, and output.
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.input_tokens + self.output_tokens
    }

    /// Accumulate another usage record.
    pub fn add(&mut self, other: TokenUsage) {
        self.prompt_tokens += other.prompt_tokens;
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
        self.calls += other.calls;
    }
}

/// Lock-free per-task counter slot: each field accumulates with relaxed
/// atomic adds, which are commutative, so totals are deterministic for any
/// worker interleaving.
#[derive(Debug, Default)]
struct TaskCounters {
    prompt_tokens: AtomicU64,
    input_tokens: AtomicU64,
    output_tokens: AtomicU64,
    calls: AtomicU64,
}

impl TaskCounters {
    fn add(&self, usage: TokenUsage) {
        self.prompt_tokens
            .fetch_add(usage.prompt_tokens, Ordering::Relaxed);
        self.input_tokens
            .fetch_add(usage.input_tokens, Ordering::Relaxed);
        self.output_tokens
            .fetch_add(usage.output_tokens, Ordering::Relaxed);
        self.calls.fetch_add(usage.calls, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TokenUsage {
        TokenUsage {
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed),
            input_tokens: self.input_tokens.load(Ordering::Relaxed),
            output_tokens: self.output_tokens.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// Thread-safe per-task usage ledger, shared across clones.
///
/// The hot path — [`UsageLedger::record`], called once per chatbot
/// completion by every annotate worker — takes only a read lock on the
/// task index and then accumulates into per-task atomic counters, so
/// concurrent workers never serialize on a shared mutex. The write lock is
/// taken once per *task name* (a handful per run) to install the slot.
/// Snapshots read with relaxed ordering: they are exact once recording has
/// quiesced (end of run), which is when the pipeline reads them.
#[derive(Debug, Clone, Default)]
pub struct UsageLedger {
    tasks: Arc<RwLock<BTreeMap<String, Arc<TaskCounters>>>>,
}

impl UsageLedger {
    /// New empty ledger.
    pub fn new() -> UsageLedger {
        UsageLedger::default()
    }

    /// Record one completion for `task` whose prompt estimates to
    /// `prompt_tokens` (a [`crate::TaskPrompt`] carries its estimate, so the
    /// constant prompt text is not re-counted per call).
    pub fn record(&self, task: &str, prompt_tokens: u64, input: &str, output: &str) {
        let usage = TokenUsage {
            prompt_tokens,
            input_tokens: estimate_tokens(input),
            output_tokens: estimate_tokens(output),
            calls: 1,
        };
        if let Some(counters) = self.tasks.read().get(task).cloned() {
            counters.add(usage);
            return;
        }
        // Slow path, once per task name: allocate the key before taking
        // the write lock so the held region is just the map insert.
        let key = task.to_string();
        let mut tasks = self.tasks.write();
        let counters = Arc::clone(tasks.entry(key).or_default());
        drop(tasks);
        counters.add(usage);
    }

    /// Usage for one task.
    pub fn task_usage(&self, task: &str) -> TokenUsage {
        self.tasks
            .read()
            .get(task)
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// Total usage across tasks.
    pub fn total(&self) -> TokenUsage {
        let mut total = TokenUsage::default();
        for counters in self.tasks.read().values() {
            total.add(counters.snapshot());
        }
        total
    }

    /// Per-task usage snapshot, sorted by task name (the index is a
    /// `BTreeMap`, so iteration order is already deterministic).
    pub fn breakdown(&self) -> Vec<(String, TokenUsage)> {
        let tasks = self.tasks.read();
        let mut out = Vec::with_capacity(tasks.len());
        for (task, counters) in tasks.iter() {
            out.push((task.clone(), counters.snapshot()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass definition the one-pass count replaces.
    fn two_pass(text: &str) -> u64 {
        let chars = text.chars().count() as u64;
        let words = text.split_whitespace().count() as u64;
        (chars / 4).max(words)
    }

    proptest! {
        #[test]
        fn estimate_equals_two_pass_definition(text in ".{0,200}") {
            prop_assert_eq!(estimate_tokens(&text), two_pass(&text));
        }

        // All-ASCII text, every ASCII whitespace kind included.
        #[test]
        fn estimate_equals_two_pass_definition_on_ascii(
            text in "( |\t|\n|\r|\x0B|\x0C|\x1C|[ -~]{1,6}){0,60}"
        ) {
            prop_assert!(text.is_ascii());
            prop_assert_eq!(estimate_tokens(&text), two_pass(&text), "{:?}", text);
        }

        // Every ASCII and non-ASCII whitespace kind between words of every
        // UTF-8 width.
        #[test]
        fn estimate_equals_two_pass_definition_on_whitespace_soup(
            text in "( |\t|\n|\r|\x0B|\x0C|\x1C|\u{85}|\u{a0}|\u{1680}|\u{2028}|\u{2029}|\u{3000}|\u{feff}|a|Z|é|中|😀|[ -~]{1,6}){0,60}"
        ) {
            prop_assert_eq!(estimate_tokens(&text), two_pass(&text), "{:?}", text);
        }
    }

    #[test]
    fn estimates_scale_with_length() {
        assert_eq!(estimate_tokens(""), 0);
        let short = estimate_tokens("hello world");
        let long = estimate_tokens(&"hello world ".repeat(100));
        assert!(long > short * 50);
    }

    #[test]
    fn word_floor_applies() {
        // Many tiny words: word count exceeds chars/4.
        let text = "a b c d e f g h";
        assert_eq!(estimate_tokens(text), 8);
    }

    #[test]
    fn ledger_accumulates_per_task() {
        let ledger = UsageLedger::new();
        ledger.record("extract", 4, "input body", "output");
        ledger.record("extract", 4, "more input", "out");
        ledger.record("segment", 1, "i", "o");
        assert_eq!(ledger.task_usage("extract").calls, 2);
        assert_eq!(ledger.task_usage("segment").calls, 1);
        assert_eq!(ledger.total().calls, 3);
        assert!(ledger.total().total() > 0);
        assert_eq!(ledger.breakdown().len(), 2);
    }

    #[test]
    fn ledger_shared_across_clones() {
        let ledger = UsageLedger::new();
        let clone = ledger.clone();
        clone.record("t", 1, "i", "o");
        assert_eq!(ledger.task_usage("t").calls, 1);
    }

    #[test]
    fn concurrent_records_sum_exactly() {
        // Worker-count invariance of the sharded ledger: interleaved
        // records from many threads must sum to exactly the serial total
        // (atomic adds are commutative).
        let ledger = UsageLedger::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let ledger = ledger.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let task = if (t + i) % 2 == 0 {
                            "extract"
                        } else {
                            "segment"
                        };
                        ledger.record(task, 3, "input body", "out");
                    }
                });
            }
        });
        assert_eq!(ledger.total().calls, 400);
        assert_eq!(
            ledger.task_usage("extract").calls + ledger.task_usage("segment").calls,
            400
        );
        let breakdown = ledger.breakdown();
        assert_eq!(breakdown.len(), 2);
        assert!(breakdown[0].0 < breakdown[1].0, "breakdown sorted");
    }

    #[test]
    fn usage_total_and_add() {
        let mut a = TokenUsage {
            prompt_tokens: 1,
            input_tokens: 2,
            output_tokens: 3,
            calls: 1,
        };
        a.add(TokenUsage {
            prompt_tokens: 10,
            input_tokens: 20,
            output_tokens: 30,
            calls: 2,
        });
        assert_eq!(a.total(), 66);
        assert_eq!(a.calls, 3);
    }
}
