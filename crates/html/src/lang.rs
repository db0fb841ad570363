//! A lightweight English-language detector.
//!
//! The pipeline discards non-English privacy pages (§3.1: "we then remove
//! duplicates and non-English pages"). We score text by the fraction of
//! tokens that are common English stop words; legal English is extremely
//! stop-word dense, so a low threshold separates it cleanly from other
//! languages (and from pages that mix several languages, which the paper's
//! pre-processing also discards).

/// Common English stop words; privacy-policy legalese is saturated with
/// these.
const STOPWORDS: &[&str] = &[
    "the",
    "of",
    "and",
    "to",
    "a",
    "in",
    "that",
    "is",
    "we",
    "you",
    "your",
    "for",
    "on",
    "with",
    "as",
    "are",
    "this",
    "be",
    "or",
    "by",
    "our",
    "it",
    "from",
    "at",
    "an",
    "not",
    "may",
    "will",
    "can",
    "have",
    "has",
    "us",
    "if",
    "any",
    "other",
    "such",
    "use",
    "when",
    "how",
    "do",
    "about",
    "information",
    "data",
    "privacy",
    "policy",
    "collect",
    "personal",
];

/// Fraction of tokens in `text` that are English stop words (0.0–1.0).
///
/// Tokens are alphabetic runs, matched without regard to ASCII case.
/// Returns 0.0 for empty input.
pub fn english_score(text: &str) -> f64 {
    score_lines([text])
}

/// [`english_score`] of lines taken together. Tokens never span a line
/// break, so this equals the score of the lines joined by newlines, without
/// joining them.
fn score_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> f64 {
    let mut total = 0usize;
    let mut hits = 0usize;
    for line in lines {
        for token in line
            .split(|c: char| !c.is_alphabetic())
            .filter(|t| !t.is_empty())
        {
            total += 1;
            if STOPWORDS.iter().any(|w| w.eq_ignore_ascii_case(token)) {
                hits += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Decision threshold: text at or above this score is considered English.
pub const ENGLISH_THRESHOLD: f64 = 0.18;

/// Whether `text` is (predominantly) English.
pub fn is_english(text: &str) -> bool {
    english_score(text) >= ENGLISH_THRESHOLD
}

/// Whether lines taken together — an extracted page's, say — are
/// (predominantly) English: [`is_english`] of the lines joined by newlines,
/// without joining them.
pub fn is_english_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> bool {
    score_lines(lines) >= ENGLISH_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_legalese_scores_high() {
        let text = "We collect personal information about you when you use our services, \
                    and we may share this data with our partners as described in this policy.";
        assert!(english_score(text) > 0.3, "score={}", english_score(text));
        assert!(is_english(text));
    }

    #[test]
    fn german_scores_low() {
        let text = "Wir erheben personenbezogene Daten über Sie, wenn Sie unsere Dienste \
                    nutzen, und geben diese gegebenenfalls an unsere Partner weiter.";
        assert!(
            english_score(text) < ENGLISH_THRESHOLD,
            "score={}",
            english_score(text)
        );
        assert!(!is_english(text));
    }

    #[test]
    fn french_scores_low() {
        let text = "Nous collectons des données personnelles vous concernant lorsque vous \
                    utilisez nos services et pouvons les partager avec nos partenaires.";
        assert!(!is_english(text));
    }

    #[test]
    fn empty_and_symbolic_input() {
        assert_eq!(english_score(""), 0.0);
        assert_eq!(english_score("12345 !!! ###"), 0.0);
        assert!(!is_english(""));
    }

    #[test]
    fn lines_score_like_their_joined_text() {
        let lines = [
            "Wir erheben personenbezogene Daten",
            "We collect THE information",
            "of-the-AND",
            "Übersicht: privacy POLICY",
        ];
        let mut joined = String::new();
        for line in lines {
            joined.push_str(line);
            joined.push('\n');
        }
        assert_eq!(score_lines(lines), english_score(&joined));
        assert_eq!(is_english_lines(lines), is_english(&joined));
        assert!(!is_english_lines([]));
    }

    #[test]
    fn mixed_language_page_scores_between() {
        let en = "We collect personal information about you when you use our services and this is the policy.";
        let de = "Wir erheben personenbezogene Daten über Sie wenn Sie unsere Dienste nutzen und weitergeben.";
        let mixed = format!("{de} {de} {de} {en}");
        let s = english_score(&mixed);
        assert!(s < english_score(en));
        assert!(s > english_score(de));
    }
}
