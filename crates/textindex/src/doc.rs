//! `FoldedDoc`: a policy document folded exactly once.
//!
//! The verification step of the paper's §3.2 loop asks, per candidate row,
//! "does the folded policy contain the folded candidate text?". A
//! [`FoldedDoc`] folds the document once at annotation start and keeps each
//! line's span in that buffer. [`FoldedDoc::verify_batch`] takes each row
//! with the line the model cited for it and looks inside that line's folded
//! span first, where almost every real mention is found. Only the rows not
//! found there go to one Aho–Corasick scan of the whole buffer, with their
//! needles folded incrementally into the automaton trie. The line checks of
//! a batch read at most one document's worth of bytes, so no citation
//! pattern makes a batch cost more than two reads of the document plus its
//! needles.

use crate::ac::AcBuilder;
use crate::fold::{fold_bytes, fold_into};

/// A document folded once: `fold(line) + ' '` per line, concatenated —
/// byte-identical to folding and joining the lines individually.
#[derive(Debug, Clone)]
pub struct FoldedDoc {
    buf: String,
    line_spans: Vec<(usize, usize)>,
}

/// Reusable backing buffers for [`FoldedDoc`]s.
///
/// A worker that folds many documents in sequence threads one arena
/// through all of them ([`FoldedDoc::from_lines_in`] to build,
/// [`FoldArena::recycle`] to hand the buffers back), so the fold buffer
/// and span table are allocated once per worker and grown to the largest
/// document, instead of allocated fresh for every policy.
#[derive(Debug, Default)]
pub struct FoldArena {
    buf: String,
    line_spans: Vec<(usize, usize)>,
}

impl FoldArena {
    /// An empty arena (first use allocates like [`FoldedDoc::from_lines`]).
    pub fn new() -> FoldArena {
        FoldArena::default()
    }

    /// Take a finished document's buffers back for the next
    /// [`FoldedDoc::from_lines_in`] call. Dropping the doc instead is not
    /// an error — the next fold simply allocates fresh buffers.
    pub fn recycle(&mut self, doc: FoldedDoc) {
        self.buf = doc.buf;
        self.line_spans = doc.line_spans;
    }
}

fn fill<'a>(
    mut buf: String,
    mut line_spans: Vec<(usize, usize)>,
    lines: impl Iterator<Item = &'a str>,
) -> FoldedDoc {
    buf.clear();
    line_spans.clear();
    // Folding never grows a line; ~64 bytes per line is a safe start. On a
    // recycled arena with enough capacity these reserves are no-ops.
    buf.reserve(lines.size_hint().0.saturating_mul(64));
    line_spans.reserve(lines.size_hint().0);
    for line in lines {
        let start = buf.len();
        fold_into(&mut buf, line);
        line_spans.push((start, buf.len()));
        buf.push(' ');
    }
    FoldedDoc { buf, line_spans }
}

impl FoldedDoc {
    /// Fold each line once into the shared buffer.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> FoldedDoc {
        fill(String::new(), Vec::new(), lines.into_iter())
    }

    /// [`FoldedDoc::from_lines`], but built in `arena`'s recycled buffers:
    /// byte-identical output, no fresh allocation when the arena's last
    /// document was at least as large.
    pub fn from_lines_in<'a>(
        arena: &mut FoldArena,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> FoldedDoc {
        fill(
            std::mem::take(&mut arena.buf),
            std::mem::take(&mut arena.line_spans),
            lines.into_iter(),
        )
    }

    /// The whole folded buffer.
    pub fn folded(&self) -> &str {
        &self.buf
    }

    /// Number of source lines.
    pub fn line_count(&self) -> usize {
        self.line_spans.len()
    }

    /// Byte span of line `idx`'s folded text within [`Self::folded`]
    /// (excludes the joining space).
    pub fn line_span(&self, idx: usize) -> Option<(usize, usize)> {
        self.line_spans.get(idx).copied()
    }

    /// For each `(line, needle)` row, whether `fold(needle)` occurs as a
    /// substring of the folded buffer: the batched equivalent of
    /// `self.folded().contains(&fold(needle))` per row. `line` is the
    /// 1-based line the row cites, as the chatbot protocol prints it; it
    /// only decides where the answer is looked for first, never the answer.
    ///
    /// Each row is first checked inside the cited line's folded span, with
    /// the needle folded into one buffer reused across the batch. The rows
    /// not found there (line 0, a line past the end, a wrong line, a
    /// mention spanning two lines, a hallucination) are answered together
    /// by one automaton scan of the whole buffer, and a batch with no such
    /// row scans nothing. The line checks of one batch read at most
    /// `folded().len()` bytes in total: a check reads up to the end of the
    /// match, or the whole line when the needle is not on it, and a row
    /// whose line no longer fits in what is left goes to the scan. So a
    /// batch costs at most two reads of the document plus its needles.
    /// Needles that fold to the empty string are trivially present,
    /// matching `str::contains("")`.
    pub fn verify_batch<'a>(&self, rows: impl IntoIterator<Item = (usize, &'a str)>) -> Vec<bool> {
        let rows = rows.into_iter();
        let mut present = Vec::with_capacity(rows.size_hint().0);
        let mut unresolved: Vec<(usize, &'a str)> = Vec::new();
        let mut needle = String::new();
        let mut budget = self.buf.len();
        for (line, text) in rows {
            needle.clear();
            fold_into(&mut needle, text);
            let span = line.checked_sub(1).and_then(|idx| self.line_span(idx));
            let found = needle.is_empty()
                || match span {
                    Some((start, end)) if end - start <= budget => {
                        let at = self
                            .buf
                            .get(start..end)
                            .and_then(|folded_line| folded_line.find(needle.as_str()));
                        match at {
                            Some(at) => budget -= at + needle.len(),
                            None => budget -= end - start,
                        }
                        at.is_some()
                    }
                    _ => false,
                };
            if !found {
                unresolved.push((present.len(), text));
            }
            present.push(found);
        }
        if !unresolved.is_empty() {
            let found = self.scan_whole(unresolved.iter().map(|&(_, text)| text));
            for ((idx, _), hit) in unresolved.into_iter().zip(found) {
                if let Some(slot) = present.get_mut(idx) {
                    *slot = hit;
                }
            }
        }
        present
    }

    /// For each needle, whether `fold(needle)` occurs anywhere in the
    /// folded buffer, answered with a single byte-automaton scan that stops
    /// once every needle has been seen.
    fn scan_whole<'a>(&self, needles: impl IntoIterator<Item = &'a str>) -> Vec<bool> {
        let mut builder = AcBuilder::new();
        let pats: Vec<Option<u32>> = needles
            .into_iter()
            .map(|needle| builder.add(fold_bytes(needle).map(u32::from)))
            .collect();
        let ac = builder.build();
        let mut found = vec![false; ac.pattern_count()];
        let mut remaining = found.len();
        ac.scan(self.buf.bytes().map(u32::from), &mut |_, pat| {
            let Some(slot) = found.get_mut(pat as usize) else {
                return true;
            };
            if !*slot {
                *slot = true;
                remaining -= 1;
            }
            remaining > 0
        });
        pats.into_iter()
            .map(|pat| match pat {
                None => true,
                Some(id) => found.get(id as usize).copied().unwrap_or(false),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_taxonomy::normalize::fold;

    const LINES: [&str; 4] = [
        "We collect your Email Address.",
        "",
        "  Third parties: analytics, advertising!  ",
        "We do not sell biometric data.",
    ];

    fn doc() -> FoldedDoc {
        FoldedDoc::from_lines(LINES)
    }

    #[test]
    fn buffer_is_fold_per_line_plus_space() {
        let mut expected = String::new();
        for line in LINES {
            expected.push_str(&fold(line));
            expected.push(' ');
        }
        assert_eq!(doc().folded(), expected);
    }

    #[test]
    fn line_spans_slice_back_to_folds() {
        let d = doc();
        assert_eq!(d.line_count(), LINES.len());
        for (i, line) in LINES.iter().enumerate() {
            let (start, end) = d.line_span(i).unwrap();
            assert_eq!(&d.folded()[start..end], fold(line));
        }
        assert_eq!(d.line_span(LINES.len()), None);
    }

    #[test]
    fn verify_batch_matches_contains_of_fold() {
        let d = doc();
        let needles = [
            "email address",
            "EMAIL, address",
            "biometric data",
            "postal address",
            "analytics advertising",
            "",
            "!!!",
            "collect your email address third",
            "advertising! We do not",
        ];
        // Every needle under every citation: its own line, a wrong one,
        // line 0 and a line past the end.
        let rows: Vec<(usize, &str)> = (0..=LINES.len() + 1)
            .flat_map(|line| needles.iter().map(move |&n| (line, n)))
            .collect();
        let got = d.verify_batch(rows.iter().copied());
        let expected: Vec<bool> = rows
            .iter()
            .map(|(_, n)| d.folded().contains(&fold(n)))
            .collect();
        assert_eq!(got, expected);
        assert_eq!(
            d.verify_batch([(3, "advertising! We do not"), (4, "advertising! We do not")]),
            vec![true, true],
            "a mention spanning two lines is found by the whole-buffer scan"
        );
    }

    #[test]
    fn duplicate_needles_verify_independently() {
        let d = doc();
        let got = d.verify_batch([(1, "email address"), (1, "email address"), (1, "nope")]);
        assert_eq!(got, vec![true, true, false]);
    }

    #[test]
    fn arena_reuse_is_byte_identical_and_keeps_capacity() {
        let mut arena = FoldArena::new();
        let big = FoldedDoc::from_lines_in(&mut arena, LINES);
        assert_eq!(big.folded(), doc().folded());
        let grown_capacity = big.buf.capacity();
        arena.recycle(big);
        // A smaller follow-up document reuses the grown buffer.
        let small = FoldedDoc::from_lines_in(&mut arena, ["tiny line"]);
        assert_eq!(
            small.folded(),
            FoldedDoc::from_lines(["tiny line"]).folded()
        );
        assert!(small.buf.capacity() >= grown_capacity);
        assert_eq!(small.line_count(), 1);
    }

    #[test]
    fn empty_document_contains_only_empty_folds() {
        let d = FoldedDoc::from_lines(std::iter::empty());
        assert_eq!(d.folded(), "");
        assert_eq!(d.line_count(), 0);
        assert_eq!(d.verify_batch([(1, "x"), (0, " ; ")]), vec![false, true]);
    }
}
