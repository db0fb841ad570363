//! Cross-crate property-based tests (proptest): robustness of the parsing
//! layers on arbitrary input and invariants of the core data structures.

use aipan::chatbot::protocol;
use aipan::html::entity;
use aipan::net::Url;
use aipan::taxonomy::normalize::fold;
use aipan::taxonomy::{Aspect, Normalizer, Sector};
use aipan::webgen::GroundTruth;
use proptest::prelude::*;

proptest! {
    // ---- HTML layer ----

    #[test]
    fn html_extract_never_panics(input in ".{0,800}") {
        let doc = aipan::html::extract(&input);
        prop_assert_eq!(aipan::html::links(&input), doc.links);
    }

    #[test]
    fn html_extract_never_panics_on_taggy_soup(
        parts in proptest::collection::vec(
            "(<[a-zA-Z]{1,8}>?|</[a-zA-Z]{0,8}>|[a-zA-Z ]{1,12}|.{0,12}|<!--|-->|&[a-zA-Z#0-9]{0,7};?|[<>/=\"' ]|\u{a0})",
            0..120,
        )
    ) {
        let input: String = parts.concat();
        let doc = aipan::html::extract(&input);
        // Lines are trimmed and never empty; a link points at an existing
        // line or the one after the last.
        for line in &doc.lines {
            prop_assert!(!line.text.is_empty());
            prop_assert_eq!(line.text.trim(), line.text.as_str());
        }
        for link in &doc.links {
            prop_assert!(link.line >= 1 && link.line <= doc.lines.len() + 1);
        }
        // The links-only pass returns exactly the same links.
        prop_assert_eq!(aipan::html::links(&input), doc.links);
    }

    #[test]
    fn entity_escape_roundtrips(input in "[ -~]{0,200}") {
        let escaped = entity::escape(&input);
        prop_assert_eq!(entity::decode(&escaped), input);
    }

    #[test]
    fn extracted_text_contains_no_tags(words in proptest::collection::vec("[a-z]{1,10}", 1..20)) {
        let html = format!("<div><p>{}</p></div>", words.join(" "));
        let doc = aipan::html::extract(&html);
        prop_assert!(!doc.text().contains('<'));
        prop_assert_eq!(doc.word_count(), words.len());
    }

    // ---- URL layer ----

    #[test]
    fn url_join_never_panics(base_path in "(/[a-z0-9.-]{0,12}){0,4}", reference in ".{0,60}") {
        let base = Url::parse(&format!("https://example.com{}", base_path)).unwrap();
        let _ = base.join(&reference);
    }

    #[test]
    fn url_join_same_scheme_for_relative(path in "[a-z0-9/.-]{0,40}") {
        let base = Url::parse("https://acme.com/a/b").unwrap();
        if let Ok(joined) = base.join(&path) {
            // Protocol-relative ("//host/...") and absolute references may
            // legitimately change the host.
            if !path.contains("://") && !path.starts_with("//") {
                prop_assert_eq!(joined.scheme.as_str(), "https");
                prop_assert_eq!(joined.host.as_str(), "acme.com");
            }
        }
    }

    #[test]
    fn url_parse_display_roundtrip(host in "[a-z]{1,10}\\.(com|org|net)", path in "(/[a-z0-9-]{1,8}){0,4}") {
        let url = Url::parse(&format!("https://{host}{path}")).unwrap();
        let reparsed = Url::parse(&url.to_string()).unwrap();
        prop_assert_eq!(url, reparsed);
    }

    // ---- Taxonomy / normalization ----

    #[test]
    fn fold_is_idempotent(input in ".{0,120}") {
        let once = fold(&input);
        prop_assert_eq!(fold(&once), once);
    }

    #[test]
    fn normalizer_is_case_and_space_insensitive(extra_spaces in 1usize..4) {
        let n = Normalizer::new();
        let spaced = format!("Mailing{}Address", " ".repeat(extra_spaces));
        let hit = n.datatype(&spaced);
        prop_assert!(hit.is_some());
        prop_assert_eq!(hit.unwrap().descriptor, "postal address");
    }

    // ---- Chatbot protocol ----

    #[test]
    fn protocol_parse_tolerates_arbitrary_output(output in ".{0,300}") {
        let _ = protocol::parse_labels(&output);
        let _ = protocol::parse_extractions(&output);
        let _ = protocol::parse_normalizations(&output);
        let _ = protocol::parse_purposes(&output);
        let _ = protocol::parse_handling(&output);
        let _ = protocol::parse_rights(&output);
    }

    #[test]
    fn protocol_extraction_roundtrip(
        rows in proptest::collection::vec((1usize..1000, "[ -~&&[^\"\\\\]]{0,40}"), 0..20)
    ) {
        let rows: Vec<(usize, String)> = rows;
        let encoded = protocol::encode_extractions(&rows);
        prop_assert_eq!(protocol::parse_extractions(&encoded), Some(rows));
    }

    #[test]
    fn protocol_label_roundtrip(
        rows in proptest::collection::vec(
            (1usize..500, proptest::collection::vec(0usize..9, 0..4)),
            0..12
        )
    ) {
        let rows: Vec<(usize, Vec<Aspect>)> = rows
            .into_iter()
            .map(|(n, idxs)| (n, idxs.into_iter().map(|i| Aspect::ALL[i]).collect()))
            .collect();
        let encoded = protocol::encode_labels(&rows);
        prop_assert_eq!(protocol::parse_labels(&encoded), Some(rows));
    }

    #[test]
    fn numbered_lines_parse_back(lines in proptest::collection::vec("[ -~&&[^\\[\\]]]{0,40}", 0..15)) {
        let doc = protocol::number_lines(lines.iter().map(String::as_str));
        let parsed: Vec<_> = aipan::chatbot::tasks::parse_numbered(&doc).collect();
        prop_assert_eq!(parsed.len(), lines.len());
        for ((n, text), (i, original)) in parsed.iter().zip(lines.iter().enumerate()) {
            prop_assert_eq!(*n, i + 1);
            prop_assert_eq!(text.trim_end(), original.trim());
        }
    }

    // ---- Ground truth invariants ----

    #[test]
    fn groundtruth_invariants(seed in 0u64..500, sector_idx in 0usize..11) {
        let sector = Sector::ALL[sector_idx];
        let t = GroundTruth::sample(seed, "prop.com", sector);
        // Unique positive descriptors.
        let mut seen = std::collections::HashSet::new();
        for m in &t.types {
            prop_assert!(seen.insert(m.descriptor.clone()), "dup {}", m.descriptor);
        }
        // Negated mentions never overlap positives.
        for neg in &t.negated_types {
            prop_assert!(t.types.iter().all(|p| p.descriptor != neg.descriptor));
        }
        // Stated retention always carries a sane period.
        for r in &t.retention {
            match r.label {
                aipan::taxonomy::RetentionLabel::Stated => {
                    let days = r.period_days.expect("stated has period");
                    prop_assert!((1..=18_250).contains(&days));
                }
                _ => prop_assert!(r.period_days.is_none()),
            }
        }
        // Labels are unique.
        let labels: Vec<_> = t.retention.iter().map(|r| r.label).collect();
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        prop_assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn policy_rendering_always_english_and_nonempty(seed in 0u64..200) {
        let t = GroundTruth::sample(seed, "render.com", Sector::HealthCare);
        let style = aipan::webgen::policy::PolicyStyle::sample(seed, "render.com");
        let html = aipan::webgen::policy::render_policy(&t, &style, "Render Corp", seed);
        let doc = aipan::html::extract(&html);
        prop_assert!(doc.word_count() > 100);
        prop_assert!(aipan::html::lang::is_english(&doc.text()));
    }
}
