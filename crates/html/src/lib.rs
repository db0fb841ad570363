//! # aipan-html
//!
//! HTML parsing and text extraction for the AIPAN-RS pipeline — the
//! stand-in for the `inscriptis` HTML-to-text library used by the paper
//! (§3.2.1) plus the heading/bold detection of Appendix B.
//!
//! Extraction is one pass over the input with two parts:
//!
//! 1. [`tokenizer`] — a forgiving HTML tokenizer (tags, attributes, text,
//!    comments, raw-text elements like `<script>`) yielding tokens borrowed
//!    from the input. Malformed markup never panics; it degrades to text.
//!    Each text run is found eight bytes per step and borrowed as it is
//!    unless it holds an `&`, so only such a run is read twice.
//! 2. [`text`] — the streaming inscriptis-style renderer. An explicit stack
//!    of open elements applies the implicit-close rules needed for
//!    real-world pages (`<p>`, `<li>`, void elements) and reports the tree
//!    in document order, each tag name resolved once to a small tag id that
//!    these rules and the renderer match on; the renderer lays it out into
//!    numbered lines, detects headings (`<h1>`–`<h6>` plus bold text on its
//!    own line, per Appendix B), extracts anchors with page-region
//!    attribution (header/body/footer), and extracts the title. No tree is
//!    built.
//!
//! [`links`] runs the same renderer with a layout that only counts lines:
//! it returns exactly `extract(html).links`, line numbers and regions
//! included, without building any line text or the title. The crawler
//! reads its §3.1 links from it.
//!
//! The contract, for input that may be hostile: [`extract`] and [`links`]
//! never panic, do work linear in the size of their input plus their output
//! (a tag whose name no rule mentions also costs a lookup in a map of the
//! open elements with such names), and never recurse, so nesting depth
//! cannot overflow the stack. Output can grow faster than input only
//! through nested anchors, each of which records the text of everything
//! inside it.
//!
//! [`lang`] adds the stop-word-based English detector used to drop
//! non-English policies, and [`entity`] decodes character references.

#![warn(missing_docs)]

pub mod entity;
pub mod lang;
pub mod text;
pub mod tokenizer;
mod tree;

pub use lang::english_score;
pub use text::{extract, links, ExtractedDoc, HeadingLevel, Line, LineKind, PageLink, PageRegion};
