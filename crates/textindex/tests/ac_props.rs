//! Differential property tests: the Aho–Corasick automaton reports exactly
//! the occurrence set of a naive per-pattern sliding-window search, and the
//! dense cue automaton exactly the cues `contains` finds in the ASCII
//! lower-cased text, over deliberately small alphabets so overlaps,
//! nestings, and shared prefixes are dense.

use aipan_textindex::{AcBuilder, CueSet};
use proptest::prelude::*;

/// Every `(end_index, pattern_index)` occurrence, the naive way.
fn naive_occurrences(patterns: &[String], text: &str) -> Vec<(usize, u32)> {
    let text: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    for (pi, pat) in patterns.iter().enumerate() {
        let pat: Vec<char> = pat.chars().collect();
        if pat.is_empty() {
            continue;
        }
        for end in (pat.len() - 1)..text.len() {
            let start = end + 1 - pat.len();
            if text[start..=end] == pat[..] {
                out.push((end, pi as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

fn ac_occurrences(patterns: &[String], text: &str) -> Vec<(usize, u32)> {
    let mut builder = AcBuilder::new();
    // Map automaton pattern ids back to input indices (empty patterns are
    // rejected by the builder and simply never occur).
    let mut index_of: Vec<u32> = Vec::new();
    for (pi, pat) in patterns.iter().enumerate() {
        if builder.add(pat.chars().map(u32::from)).is_some() {
            index_of.push(pi as u32);
        }
    }
    let ac = builder.build();
    let mut out = Vec::new();
    ac.scan(text.chars().map(u32::from), &mut |end, pat| {
        out.push((end, index_of[pat as usize]));
        true
    });
    out.sort_unstable();
    out
}

/// Bit `i` set when cue `i` occurs in the ASCII lower-cased text.
fn contains_bits(cues: &[String], text: &str) -> u128 {
    let lower = text.to_ascii_lowercase();
    cues.iter()
        .enumerate()
        .filter(|(_, cue)| lower.contains(cue.as_str()))
        .fold(0, |bits, (i, _)| bits | 1 << i)
}

proptest! {
    #[test]
    fn cue_set_equals_contains_on_lowercased_text(
        cues in proptest::collection::vec("[ab -]{0,5}", 1..40),
        text in "[abcAB é-]{0,60}",
    ) {
        let refs: Vec<&str> = cues.iter().map(String::as_str).collect();
        prop_assert_eq!(
            CueSet::new(&refs).scan(text.as_bytes()),
            contains_bits(&cues, &text),
            "cues={:?} text={:?}", cues, text
        );
    }

    #[test]
    fn automaton_equals_naive_search(
        patterns in proptest::collection::vec("[ab]{0,4}", 1..8),
        text in "[abc]{0,40}",
    ) {
        prop_assert_eq!(
            ac_occurrences(&patterns, &text),
            naive_occurrences(&patterns, &text),
            "patterns={:?} text={:?}", patterns, text
        );
    }

    #[test]
    fn automaton_equals_naive_search_wide_alphabet(
        patterns in proptest::collection::vec("[a-f]{1,6}", 1..10),
        text in "[a-h ]{0,60}",
    ) {
        prop_assert_eq!(
            ac_occurrences(&patterns, &text),
            naive_occurrences(&patterns, &text),
            "patterns={:?} text={:?}", patterns, text
        );
    }
}
