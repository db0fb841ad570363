//! A lightweight English-language detector.
//!
//! The pipeline discards non-English privacy pages (§3.1: "we then remove
//! duplicates and non-English pages"). We score text by the fraction of
//! tokens that are common English stop words; legal English is extremely
//! stop-word dense, so a low threshold separates it cleanly from other
//! languages (and from pages that mix several languages, which the paper's
//! pre-processing also discards).
//!
//! Scoring walks each line's bytes once. An ASCII byte is classified
//! without decoding, and a non-ASCII char is decoded only to ask whether it
//! is alphabetic. A token no longer than the longest stop word is
//! lower-cased into a small buffer and tested with one `match`.

/// Length in bytes of the longest stop word, "information".
const MAX_STOPWORD_LEN: usize = 11;

/// Whether `token` is a common English stop word without regard to ASCII
/// case; privacy-policy legalese is saturated with these. The stop words
/// are ASCII, so a token with a non-ASCII letter never is one.
fn is_stopword(token: &[u8]) -> bool {
    let mut buf = [0u8; MAX_STOPWORD_LEN];
    let Some(lower) = buf.get_mut(..token.len()) else {
        return false;
    };
    for (l, b) in lower.iter_mut().zip(token) {
        *l = b.to_ascii_lowercase();
    }
    matches!(
        &*lower,
        b"the"
            | b"of"
            | b"and"
            | b"to"
            | b"a"
            | b"in"
            | b"that"
            | b"is"
            | b"we"
            | b"you"
            | b"your"
            | b"for"
            | b"on"
            | b"with"
            | b"as"
            | b"are"
            | b"this"
            | b"be"
            | b"or"
            | b"by"
            | b"our"
            | b"it"
            | b"from"
            | b"at"
            | b"an"
            | b"not"
            | b"may"
            | b"will"
            | b"can"
            | b"have"
            | b"has"
            | b"us"
            | b"if"
            | b"any"
            | b"other"
            | b"such"
            | b"use"
            | b"when"
            | b"how"
            | b"do"
            | b"about"
            | b"information"
            | b"data"
            | b"privacy"
            | b"policy"
            | b"collect"
            | b"personal"
    )
}

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
        let bytes = line.as_bytes();
        // The token being read starts at byte `start`.
        let mut start = 0;
        let mut i = 0;
        loop {
            // The width of the char at `i` if it ends the token: a char that
            // is not a letter, or 0 at the end of the line.
            let width = match bytes.get(i) {
                Some(b) if b.is_ascii_alphabetic() => {
                    i += 1;
                    continue;
                }
                Some(b) if b.is_ascii() => 1,
                Some(_) => match line.get(i..).and_then(|rest| rest.chars().next()) {
                    Some(c) if c.is_alphabetic() => {
                        i += c.len_utf8();
                        continue;
                    }
                    Some(c) => c.len_utf8(),
                    None => 0,
                },
                None => 0,
            };
            if let Some(token) = bytes.get(start..i).filter(|token| !token.is_empty()) {
                total += 1;
                if is_stopword(token) {
                    hits += 1;
                }
            }
            if width == 0 {
                break;
            }
            i += width;
            start = i;
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

/// The `split`-based scorer this module used before it walked bytes, kept
/// as the oracle of `tests::score_lines_matches_legacy_oracle`.
#[cfg(test)]
mod legacy {
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

    pub fn score_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> f64 {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fragments a line is glued from with no separator between them, so
    /// letters of each kind meet: stop words in mixed case, tokens up to
    /// and past the longest stop word, non-ASCII letters (among them the
    /// Kelvin sign U+212A and `İ` U+0130, whose Unicode lower case starts
    /// with an ASCII letter), and separators that are not letters.
    const FRAGMENTS: &str = "(the|The|THE|tHe|of|OF|a|A|an|we|We|you|YOUR|Our|it|If|\
        information|Information|INFORMATION|informations|informational|\
        personalinformation|theinformation|privacy|Privacy|policy|collect|personal|\
        data|about|such|other|é|É|ü|ß|中|中文|\u{212a}|\u{130}|\u{130}f|\u{212a}an|ın|\
        [a-z]{1,14}|[A-Za-z]{1,12}| |  |-|'|’|0|42|3rd|\u{a0}|\u{3000}|\t|\n|,|.|;)";

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

    proptest! {
        #[test]
        fn score_lines_matches_legacy_oracle(
            lines in proptest::collection::vec(
                proptest::collection::vec(FRAGMENTS, 0..40),
                0..4,
            )
        ) {
            let lines: Vec<String> = lines.iter().map(|parts| parts.concat()).collect();
            for line in &lines {
                prop_assert_eq!(
                    english_score(line).to_bits(),
                    legacy::score_lines([line.as_str()]).to_bits(),
                    "line={:?}", line
                );
            }
            let lines = || lines.iter().map(String::as_str);
            prop_assert_eq!(
                score_lines(lines()).to_bits(),
                legacy::score_lines(lines()).to_bits(),
                "lines={:?}", lines().collect::<Vec<_>>()
            );
        }
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
