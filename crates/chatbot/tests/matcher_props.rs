//! Property-based tests for the vocabulary matcher, the task layer and the
//! JSON tuple protocol that model output arrives in.

use aipan_chatbot::matcher::VocabMatcher;
use aipan_chatbot::tasks::{classify_heading, classify_line, doc_key, parse_numbered};
use aipan_chatbot::{protocol, ModelProfile};
use aipan_taxonomy::Aspect;
use proptest::prelude::*;
use serde_json::Value;

/// Row text built from what a JSON string must escape or carry as
/// multibyte UTF-8: quotes, backslashes, newlines, tabs, control chars,
/// `é`, `中` and `😀`, between plain ASCII.
const HOSTILE_TEXT: &str =
    "(\"|\\\\|\n|\t|\r|\u{0}|\u{1}|\u{1f}|\u{7f}|é|中|😀|a|Z| |/|\\[|\\]|,|:){0,16}";

/// Text shaped like broken protocol output: JSON punctuation, escapes
/// (including surrogate halves), literals and numbers in any order.
const JSON_SOUP: &str =
    "(\\[|\\]|\\{|\\}|,|:|\"|\\\\|\\\\u|D83D|DE00|null|true|-|0|17|e|\\.| |é|😀){0,60}";

/// Every protocol parser on one output: none panics, and each says the
/// output is well-formed exactly when it is a top-level JSON array (the
/// definition the re-prompt loop has always retried on).
fn parse_all(output: &str) -> Result<(), String> {
    let well_formed = matches!(
        serde_json::from_str::<Value>(output.trim()),
        Ok(Value::Array(_))
    );
    let parsed = [
        protocol::parse_labels(output).is_some(),
        protocol::parse_extractions(output).is_some(),
        protocol::parse_normalizations(output).is_some(),
        protocol::parse_purposes(output).is_some(),
        protocol::parse_handling(output).is_some(),
        protocol::parse_rights(output).is_some(),
    ];
    prop_assert_eq!(parsed, [well_formed; 6], "output {:?}", output);
    Ok(())
}

/// No proper prefix of `encoded` is well-formed under `parse`: a
/// completion truncated anywhere must be caught by the re-prompt loop.
fn no_prefix_well_formed<T>(
    encoded: &str,
    parse: impl Fn(&str) -> Option<Vec<T>>,
) -> Result<(), String> {
    for (cut, _) in encoded.char_indices() {
        let prefix = &encoded[..cut];
        prop_assert!(parse(prefix).is_none(), "prefix {:?}", prefix);
    }
    prop_assert!(parse(encoded).is_some(), "{:?}", encoded);
    Ok(())
}

/// The `serde_json::Value` rendering the streaming encoders replace: an
/// array of rows, each an array of the given fields.
fn value_rendering(rows: impl Iterator<Item = Vec<Value>>) -> String {
    Value::Array(rows.map(Value::Array).collect()).to_string()
}

fn text(s: &str) -> Value {
    Value::from(s)
}

proptest! {
    #[test]
    fn scan_never_panics_and_spans_valid(line in ".{0,200}") {
        let m = VocabMatcher::for_datatypes();
        for hit in m.scan_line(&line) {
            prop_assert!(hit.span.0 <= hit.span.1);
            prop_assert!(hit.span.1 <= line.len());
            // The reported text is exactly the span slice.
            prop_assert_eq!(hit.text.as_str(), &line[hit.span.0..hit.span.1]);
        }
    }

    #[test]
    fn purpose_scan_never_panics_and_spans_valid(line in ".{0,200}") {
        let m = VocabMatcher::for_purposes();
        for hit in m.scan_line(&line) {
            prop_assert!(hit.span.0 <= hit.span.1);
            prop_assert!(hit.span.1 <= line.len());
            prop_assert_eq!(hit.text.as_str(), &line[hit.span.0..hit.span.1]);
        }
    }

    #[test]
    fn matches_never_overlap(words in proptest::collection::vec(
        "(email address|bank account info|account info|ip address|the|we|collect|your)",
        0..25
    )) {
        let line = words.join(" ");
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line(&line);
        for pair in hits.windows(2) {
            prop_assert!(pair[0].span.1 <= pair[1].span.0, "overlap in {:?}", line);
        }
    }

    #[test]
    fn classifiers_never_panic(text in ".{0,200}") {
        let _ = classify_heading(&text);
        let aspects = classify_line(&text);
        prop_assert!(!aspects.is_empty(), "every line gets at least one label");
    }

    #[test]
    fn extraction_is_deterministic_under_profile(
        lines in proptest::collection::vec("[ -~&&[^\\[\\]]]{0,60}", 1..6),
        seed in 0u64..100,
    ) {
        let doc = protocol::number_lines(lines.iter().map(String::as_str));
        let profile = ModelProfile::gpt4_turbo();
        let key = doc_key(&doc);
        let a = aipan_chatbot::tasks::run_extract_datatypes(&profile, seed, &key, &doc);
        let b = aipan_chatbot::tasks::run_extract_datatypes(&profile, seed, &key, &doc);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parse_numbered_tolerates_arbitrary_input(input in ".{0,300}") {
        for (_, text) in parse_numbered(&input) {
            prop_assert!(input.contains(text));
        }
    }

    #[test]
    fn protocol_parsers_never_panic_on_arbitrary_text(text in ".{0,200}") {
        parse_all(&text)?;
    }

    #[test]
    fn protocol_parsers_never_panic_on_json_soup(soup in JSON_SOUP) {
        parse_all(&soup)?;
        parse_all(&format!("[{soup}]"))?;
        parse_all(&format!("[[1,\"{soup}\"]]"))?;
    }

    #[test]
    fn protocol_parsers_never_panic_on_deep_nesting(
        depth in 0usize..8,
        shape in 0usize..4,
        soup in JSON_SOUP,
    ) {
        // Around the reader's nesting cap, and far past what a recursive
        // reader survives on a test thread's 2 MiB stack.
        let depth = [1, 2, 126, 127, 128, 129, 5_000, 100_000][depth];
        let (open, close) = ("[".repeat(depth), "]".repeat(depth));
        let output = match shape {
            0 => open,
            1 => format!("{open}{close}"),
            2 => format!("[[1,\"x\"],{}{soup}{}]", "{\"a\":".repeat(depth), "}".repeat(depth)),
            _ => format!("[[1,{open}\"{soup}\"{close}]]"),
        };
        parse_all(&output)?;
        if shape == 1 {
            let well_formed = serde_json::from_str::<Value>(&output).is_ok();
            prop_assert_eq!(well_formed, depth <= serde::MAX_DEPTH);
        }
    }

    #[test]
    fn labels_roundtrip_and_truncations_rejected(rows in proptest::collection::vec(
        (0usize..100_000, proptest::collection::vec(0usize..Aspect::ALL.len(), 0..4)),
        0..6,
    )) {
        let rows: Vec<protocol::LabelRow> = rows
            .into_iter()
            .map(|(n, aspects)| (n, aspects.into_iter().map(|i| Aspect::ALL[i]).collect()))
            .collect();
        let encoded = protocol::encode_labels(&rows);
        prop_assert_eq!(
            &encoded,
            &value_rendering(rows.iter().map(|(n, aspects)| {
                vec![
                    Value::from(*n),
                    Value::Array(aspects.iter().map(|a| text(a.key())).collect()),
                ]
            }))
        );
        prop_assert_eq!(protocol::parse_labels(&encoded), Some(rows));
        no_prefix_well_formed(&encoded, protocol::parse_labels)?;
    }

    #[test]
    fn extractions_roundtrip_hostile_text(rows in proptest::collection::vec(
        (0usize..100_000, HOSTILE_TEXT),
        0..5,
    )) {
        let encoded = protocol::encode_extractions(&rows);
        prop_assert_eq!(
            &encoded,
            &value_rendering(rows.iter().map(|(n, t)| vec![Value::from(*n), text(t)]))
        );
        prop_assert_eq!(protocol::parse_extractions(&encoded), Some(rows));
        no_prefix_well_formed(&encoded, protocol::parse_extractions)?;
    }

    #[test]
    fn normalizations_roundtrip_hostile_text(rows in proptest::collection::vec(
        (0usize..100_000, HOSTILE_TEXT, HOSTILE_TEXT),
        0..5,
    )) {
        let encoded = protocol::encode_normalizations(&rows);
        prop_assert_eq!(
            &encoded,
            &value_rendering(rows.iter().map(|(n, d, c)| vec![Value::from(*n), text(d), text(c)]))
        );
        prop_assert_eq!(protocol::parse_normalizations(&encoded), Some(rows));
        no_prefix_well_formed(&encoded, protocol::parse_normalizations)?;
    }

    #[test]
    fn purposes_roundtrip_hostile_text(rows in proptest::collection::vec(
        (0usize..100_000, HOSTILE_TEXT, HOSTILE_TEXT, HOSTILE_TEXT),
        0..5,
    )) {
        let encoded = protocol::encode_purposes(&rows);
        prop_assert_eq!(
            &encoded,
            &value_rendering(rows.iter().map(|(n, t, d, c)| {
                vec![Value::from(*n), text(t), text(d), text(c)]
            }))
        );
        prop_assert_eq!(protocol::parse_purposes(&encoded), Some(rows));
        no_prefix_well_formed(&encoded, protocol::parse_purposes)?;
    }

    #[test]
    fn handling_roundtrip_hostile_text(rows in proptest::collection::vec(
        (0usize..100_000, HOSTILE_TEXT, HOSTILE_TEXT, HOSTILE_TEXT),
        0..5,
    )) {
        // Even line numbers carry a period, odd ones `null`.
        let rows: Vec<protocol::HandlingRow> = rows
            .into_iter()
            .map(|(n, text, label, period)| (n, text, label, (n % 2 == 0).then_some(period)))
            .collect();
        let encoded = protocol::encode_handling(&rows);
        prop_assert_eq!(
            &encoded,
            &value_rendering(rows.iter().map(|(n, t, l, p)| {
                vec![
                    Value::from(*n),
                    text(t),
                    text(l),
                    p.as_deref().map(text).unwrap_or(Value::Null),
                ]
            }))
        );
        prop_assert_eq!(protocol::parse_handling(&encoded), Some(rows));
        no_prefix_well_formed(&encoded, protocol::parse_handling)?;
    }

    #[test]
    fn rights_roundtrip_hostile_text(rows in proptest::collection::vec(
        (0usize..100_000, HOSTILE_TEXT, HOSTILE_TEXT),
        0..5,
    )) {
        let encoded = protocol::encode_rights(&rows);
        prop_assert_eq!(
            &encoded,
            &value_rendering(rows.iter().map(|(n, t, l)| vec![Value::from(*n), text(t), text(l)]))
        );
        prop_assert_eq!(protocol::parse_rights(&encoded), Some(rows));
        no_prefix_well_formed(&encoded, protocol::parse_rights)?;
    }
}
