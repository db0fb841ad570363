//! Fold-once text engine shared by the annotation pipeline.
//!
//! The paper's §3.2 annotate-and-verify loop touches every policy line many
//! times: vocabulary scanning per task, substring verification per candidate
//! row, and normalization folds per mention. This crate centralizes the
//! data structures that let the pipeline do each of those passes exactly
//! once:
//!
//! * [`AcAutomaton`] — a classic Aho–Corasick automaton (goto/fail/output
//!   tables) over `u32` symbol streams. Symbols are whatever the caller
//!   interns: byte values for substring search, token identifiers for
//!   vocabulary phrase matching. One scan of a document yields *every*
//!   occurrence of *every* pattern.
//! * [`CueSet`] — a dense byte automaton over a few dozen short ASCII
//!   cues that answers, in one pass over a line, which of them occur (the
//!   simulated chatbot's whole-text segmentation reads each line once
//!   through it instead of once per cue).
//! * [`FoldedDoc`] — a policy document folded exactly once through the
//!   taxonomy normalization ([`aipan_taxonomy::normalize::fold`]) into a single
//!   buffer with per-line spans. Verification ([`FoldedDoc::verify_batch`])
//!   checks each row inside the span of the line the model cited, with the
//!   needle folded into one buffer reused across the batch ([`fold_into`]).
//!   These line checks read at most one document's worth of bytes per
//!   batch, each charged up to the end of its match or, on a miss, the
//!   whole line. Only the rows not found on their line, or past that
//!   budget, go to one batched byte-automaton scan of the whole buffer,
//!   with their needles folded incrementally into the trie
//!   ([`fold_bytes`]).
//! * [`word`] — the one home of the word-character decision (alphanumeric,
//!   `-`, `/`, `&`, `'`): ASCII bytes are classified and lower-cased by a
//!   table ([`fold_byte`]), and a non-ASCII char is decoded only to ask
//!   `char::is_alphanumeric` ([`is_word_char`]). The fold and the
//!   chatbot's vocabulary tokenizer both read their bytes through it.
//!
//! The folding helpers ([`fold_into`], [`fold_bytes`], and the build of a
//! [`FoldedDoc`]) are byte-exact re-expressions of
//! [`aipan_taxonomy::normalize::fold`] — property-tested against it in
//! `tests/fold_props.rs` — differing only in where the output goes
//! (appended to a reused buffer / streamed as bytes) and in how it is
//! computed (an all-ASCII line in one byte loop), rather than in what it
//! is.

pub mod ac;
pub mod cues;
pub mod doc;
pub mod fold;
pub mod word;

pub use ac::{AcAutomaton, AcBuilder};
pub use cues::CueSet;
pub use doc::{FoldArena, FoldedDoc};
pub use fold::{fold_bytes, fold_into, FoldBytes};
pub use word::{fold_byte, is_word_char};
