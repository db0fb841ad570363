//! Property tests: the allocation-free fold re-expressions are byte-exact
//! against `aipan_taxonomy::normalize::fold`, and `FoldedDoc::verify_batch` agrees
//! with the per-needle `contains(&fold(needle))` check whatever line a row
//! cites.

use aipan_taxonomy::normalize::fold;
use aipan_textindex::{fold_bytes, fold_into, FoldedDoc};
use proptest::prelude::*;

proptest! {
    #[test]
    fn fold_into_appends_exactly_fold(s in ".{0,120}") {
        let mut buf = String::from("⟨seed⟩");
        fold_into(&mut buf, &s);
        prop_assert_eq!(buf, format!("⟨seed⟩{}", fold(&s)));
    }

    #[test]
    fn fold_bytes_streams_exactly_fold(s in ".{0,120}") {
        let streamed: Vec<u8> = fold_bytes(&s).collect();
        prop_assert_eq!(streamed, fold(&s).into_bytes());
    }

    #[test]
    fn folded_doc_buffer_equals_per_line_folds(
        lines in proptest::collection::vec(".{0,60}", 0..8)
    ) {
        let doc = FoldedDoc::from_lines(lines.iter().map(String::as_str));
        let mut expected = String::new();
        for line in &lines {
            expected.push_str(&fold(line));
            expected.push(' ');
        }
        prop_assert_eq!(doc.folded(), expected.as_str());
        prop_assert_eq!(doc.line_count(), lines.len());
        for (i, line) in lines.iter().enumerate() {
            let span = doc.line_span(i);
            prop_assert!(span.is_some());
            if let Some((start, end)) = span {
                let folded_line = fold(line);
                prop_assert_eq!(&doc.folded()[start..end], folded_line.as_str());
            }
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
