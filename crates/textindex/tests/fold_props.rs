//! Property tests: the allocation-free fold re-expressions are byte-exact
//! against `aipan_taxonomy::normalize::fold`, and `FoldedDoc::verify_batch` agrees
//! with the per-needle `contains(&fold(needle))` check whatever line a row
//! cites.
//!
//! `.` draws a non-ASCII char about once in 25, so most of its longer
//! lines hold one and take the char loop. The byte loop that folds an
//! all-ASCII line is reached through two more inputs: all-ASCII lines with
//! separator runs at both ends ([`SEPARATORS`], [`ASCII`]), and the same
//! lines with one non-ASCII char ([`NON_ASCII`]) inserted anywhere.

use aipan_taxonomy::normalize::fold;
use aipan_textindex::{fold_bytes, fold_into, FoldedDoc};
use proptest::prelude::*;

/// A run of ASCII separators of every class: the controls (`\x0B` and
/// `\x1C` among them), space, every punctuation byte but `-` `/` `&` `'`,
/// and `\x7F`.
const SEPARATORS: &str = "[\x00-\x1F !-%(-,.:-@\\[-`{-\x7F]{0,4}";
/// Any ASCII bytes, word and separator bytes alike.
const ASCII: &str = "[\x00-\x7F]{0,32}";
/// One non-ASCII char: word chars of every UTF-8 width (U+212A KELVIN SIGN
/// and U+0130 among them) and separators.
const NON_ASCII: &str = "[éßİ\u{212A}中Ⅻ\u{a0}\u{2028}\u{3000}…😀]";

/// An all-ASCII line of 0–40 bytes: separators, any ASCII, separators.
type AsciiParts = (String, String, String);

fn ascii_line((head, body, tail): AsciiParts) -> String {
    head + &body + &tail
}

/// An all-ASCII line with one non-ASCII char inserted at `at` (modulo its
/// length plus one).
fn one_non_ascii((parts, ch, at): (AsciiParts, String, usize)) -> String {
    let mut line = ascii_line(parts);
    line.insert_str(at % (line.len() + 1), &ch);
    line
}

/// `FoldedDoc::from_lines(lines)` against folding each line alone.
fn check_doc(lines: &[String]) -> Result<(), String> {
    let doc = FoldedDoc::from_lines(lines.iter().map(String::as_str));
    let mut expected = String::new();
    for line in lines {
        expected.push_str(&fold(line));
        expected.push(' ');
    }
    prop_assert_eq!(doc.folded(), expected.as_str(), "lines={:?}", lines);
    prop_assert_eq!(doc.line_count(), lines.len());
    for (i, line) in lines.iter().enumerate() {
        let span = doc.line_span(i);
        prop_assert!(span.is_some());
        if let Some((start, end)) = span {
            let folded_line = fold(line);
            prop_assert_eq!(&doc.folded()[start..end], folded_line.as_str());
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn fold_into_appends_exactly_fold(
        s in ".{0,120}",
        ascii in (SEPARATORS, ASCII, SEPARATORS),
        mixed in ((SEPARATORS, ASCII, SEPARATORS), NON_ASCII, 0usize..41),
    ) {
        for s in [s, ascii_line(ascii), one_non_ascii(mixed)] {
            let mut buf = String::from("⟨seed⟩");
            fold_into(&mut buf, &s);
            prop_assert_eq!(buf, format!("⟨seed⟩{}", fold(&s)), "s={:?}", s);
        }
    }

    #[test]
    fn fold_bytes_streams_exactly_fold(s in ".{0,120}") {
        let streamed: Vec<u8> = fold_bytes(&s).collect();
        prop_assert_eq!(streamed, fold(&s).into_bytes());
    }

    #[test]
    fn folded_doc_buffer_equals_per_line_folds(
        lines in proptest::collection::vec(".{0,60}", 0..8),
        ascii in proptest::collection::vec((SEPARATORS, ASCII, SEPARATORS), 0..8),
        mixed in proptest::collection::vec(
            ((SEPARATORS, ASCII, SEPARATORS), NON_ASCII, 0usize..41),
            0..8
        ),
    ) {
        let ascii: Vec<String> = ascii.into_iter().map(ascii_line).collect();
        let mixed: Vec<String> = mixed.into_iter().map(one_non_ascii).collect();
        // Each kind alone, then all three interleaved in one document, so
        // the byte loop and the char loop append to the same buffer.
        let mut interleaved = Vec::new();
        for i in 0..8 {
            for kind in [&lines, &ascii, &mixed] {
                interleaved.extend(kind.get(i).cloned());
            }
        }
        for doc in [&lines, &ascii, &mixed, &interleaved] {
            check_doc(doc)?;
        }
    }

    #[test]
    fn verify_batch_equals_contains_fold(
        lines in proptest::collection::vec(
            "(we|do not|collect|email address|ip|[a-z]{1,8}|[ -~]{0,20}| )(, | )?(data|info|address)?",
            0..6
        ),
        needles in proptest::collection::vec(
            (
                "(email address|ip|data|info|[a-z]{0,6}|[ -~]{0,12})",
                0usize..16,
                0usize..4,
                (0usize..8, 0usize..12, 0usize..12),
            ),
            0..10
        ),
    ) {
        let doc = FoldedDoc::from_lines(lines.iter().map(String::as_str));
        // Each row cites a line in `0..=lines + 1`; a quarter of the needles
        // are cut across the join of two adjacent lines instead.
        let rows: Vec<(usize, String)> = needles
            .iter()
            .map(|(needle, cite, shape, (first, tail, head))| {
                let line = cite % (lines.len() + 2);
                let text = match lines.len().checked_sub(1) {
                    Some(joins) if joins > 0 && *shape == 0 => {
                        let upper = first % joins;
                        spanning(&lines[upper], &lines[upper + 1], *tail, *head)
                    }
                    _ => needle.clone(),
                };
                (line, text)
            })
            .collect();
        let got = doc.verify_batch(rows.iter().map(|(line, text)| (*line, text.as_str())));
        let expected: Vec<bool> = rows
            .iter()
            .map(|(_, text)| doc.folded().contains(&fold(text)))
            .collect();
        prop_assert_eq!(got, expected, "lines={:?} rows={:?}", lines, rows);
    }
}

/// The last `tail` chars of `upper`, a space, and the first `head` chars of
/// `lower`: a mention that starts on one line and ends on the next.
fn spanning(upper: &str, lower: &str, tail: usize, head: usize) -> String {
    let skip = upper.chars().count().saturating_sub(tail);
    let mut needle: String = upper.chars().skip(skip).collect();
    needle.push(' ');
    needle.extend(lower.chars().take(head));
    needle
}
