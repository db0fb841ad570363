//! Vocabulary scanning: the simulated model's "reading" of policy text.
//!
//! A [`VocabMatcher`] covers every surface form the model knows — the
//! glossary vocabulary *plus* the zero-shot terms of
//! [`aipan_taxonomy::zeroshot`] (an LLM's world knowledge exceeds the
//! prompt glossary) — with longest-match precedence, recording the verbatim
//! matched text (for the pipeline's hallucination verification) and whether
//! the mention sits in a negated context ("we do not collect …").
//!
//! Since PR 3 the scanning runs on a single shared Aho–Corasick automaton
//! ([`aipan_textindex::AcAutomaton`]) built once over *both* vocabularies
//! with per-pattern vocabulary tags: one pass over a line's tokens yields
//! every data-type and purpose occurrence at once ([`scan_line_dual`]),
//! which the task layer uses to avoid scanning each line twice. A caller
//! that only needs to know *whether* each vocabulary occurs — whole-text
//! segmentation labels a line `types` or `purposes` on that alone — asks
//! `vocab_presence`, which streams the line's tokens through the same
//! automaton without resolving matches or building match strings. The
//! original token-walk scanner is preserved under `#[cfg(test)]` as the
//! oracle for a differential property test: both scanners must agree
//! exactly — text, target, span, and negation — on arbitrary lines.

use aipan_taxonomy::datatypes::DATA_TYPE_DESCRIPTORS;
use aipan_taxonomy::purposes::PURPOSE_DESCRIPTORS;
use aipan_taxonomy::zeroshot::{ZERO_SHOT_DATA_TYPES, ZERO_SHOT_PURPOSES};
use aipan_taxonomy::{DataTypeCategory, PurposeCategory};
use aipan_textindex::{AcAutomaton, AcBuilder};
use std::collections::HashMap;
use std::sync::OnceLock;

/// What a matched surface form refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchTarget {
    /// A collected data type.
    DataType {
        /// Normalized descriptor.
        descriptor: &'static str,
        /// Category.
        category: DataTypeCategory,
        /// Whether the term is outside the prompt glossary.
        zero_shot: bool,
    },
    /// A data-collection purpose.
    Purpose {
        /// Normalized descriptor.
        descriptor: &'static str,
        /// Category.
        category: PurposeCategory,
        /// Whether the term is outside the prompt glossary.
        zero_shot: bool,
    },
}

/// One vocabulary hit on a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocabMatch {
    /// The verbatim matched text, sliced from the original line.
    pub text: String,
    /// What it refers to.
    pub target: MatchTarget,
    /// Whether the mention is in a negated context on this line.
    pub negated: bool,
    /// Byte span of the match within the line.
    pub span: (usize, usize),
}

impl VocabMatch {
    /// Whether this match's span is strictly contained in `other`'s span.
    pub fn contained_in(&self, other: &(usize, usize)) -> bool {
        self.span.0 >= other.0
            && self.span.1 <= other.1
            && (self.span.1 - self.span.0) < (other.1 - other.0)
    }
}

/// Which vocabulary a pattern (or a matcher view) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vocab {
    DataTypes,
    Purposes,
}

/// Both vocabularies' hits from one pass over a line.
#[derive(Debug, Clone, Default)]
pub struct DualScan {
    /// Data-type hits, in line order.
    pub datatypes: Vec<VocabMatch>,
    /// Purpose hits, in line order.
    pub purposes: Vec<VocabMatch>,
}

/// Scan a line against both vocabularies in a single tokenization and
/// automaton pass. Equivalent to
/// `(for_datatypes().scan_line(line), for_purposes().scan_line(line))` but
/// roughly half the work — the task layer's per-line classify/extract
/// paths always need both sides (each side suppresses hits nested inside
/// the other's longer phrases).
pub fn scan_line_dual(line: &str) -> DualScan {
    engine().scan(line)
}

/// Which vocabularies occur on a line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VocabPresence {
    /// Some data-type surface form occurs.
    pub datatypes: bool,
    /// Some purpose surface form occurs.
    pub purposes: bool,
}

/// Whether each vocabulary occurs on `line`. Equal to
/// `!scan_line_dual(line).datatypes.is_empty()` and
/// `!scan_line_dual(line).purposes.is_empty()`: longest-match resolution
/// walks the tokens from the left and emits the longest pattern at every
/// token it visits, so it always emits a match at the first token where
/// any pattern of a vocabulary starts. Answered from the raw occurrences
/// instead, with no resolution, no match strings and no token buffer, and
/// the scan stops once both vocabularies are seen.
pub(crate) fn vocab_presence(line: &str) -> VocabPresence {
    engine().presence(line)
}

/// Longest-match vocabulary scanner (one vocabulary view over the shared
/// engine).
pub struct VocabMatcher {
    vocab: Vocab,
}

impl VocabMatcher {
    /// Matcher over all data-type surface forms (glossary + zero-shot).
    pub fn for_datatypes() -> VocabMatcher {
        VocabMatcher {
            vocab: Vocab::DataTypes,
        }
    }

    /// Matcher over all purpose surface forms (glossary + zero-shot).
    pub fn for_purposes() -> VocabMatcher {
        VocabMatcher {
            vocab: Vocab::Purposes,
        }
    }

    /// Scan one line; matches do not overlap (longest match consumes its
    /// tokens).
    ///
    /// Negation scope is line-granular: once a negation cue appears, the
    /// remainder of the line is treated as negated context. The synthetic
    /// corpus renders negated statements as their own paragraphs, so this
    /// never clips a positive mention there; external HTML that packs a
    /// negated sentence and a positive one into a single block could lose
    /// the positive mention to the stricter reading.
    pub fn scan_line(&self, line: &str) -> Vec<VocabMatch> {
        let dual = engine().scan(line);
        match self.vocab {
            Vocab::DataTypes => dual.datatypes,
            Vocab::Purposes => dual.purposes,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared engine
// ---------------------------------------------------------------------------

/// Token symbol for words outside every vocabulary pattern.
const NO_SYM: u32 = u32::MAX;

/// The shared automaton: every surface form of both vocabularies, one
/// pattern per insertion (duplicates keep distinct ids so insertion order
/// still breaks ties exactly like the legacy stable longest-first sort).
struct Engine {
    ac: AcAutomaton,
    /// Lower-cased word token → interned symbol.
    symbols: HashMap<String, u32>,
    /// Per-pattern vocabulary tag and match target, indexed by pattern id.
    targets: Vec<(Vocab, MatchTarget)>,
}

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::build)
}

/// One scanned token: byte span in the line, interned symbol (or
/// [`NO_SYM`]), and whether it is a negation cue.
struct Tok {
    start: u32,
    end: u32,
    sym: u32,
    neg: bool,
}

impl Engine {
    fn build() -> Engine {
        let mut symbols = HashMap::new();
        let mut builder = AcBuilder::new();
        let mut targets = Vec::new();
        // Insertion order per vocabulary mirrors the legacy matcher's
        // (glossary names, glossary surfaces, then zero-shot terms) so
        // pattern-id order reproduces its tie-breaking.
        for spec in DATA_TYPE_DESCRIPTORS {
            let target = MatchTarget::DataType {
                descriptor: spec.name,
                category: spec.category,
                zero_shot: false,
            };
            add_pattern(
                &mut builder,
                &mut symbols,
                &mut targets,
                spec.name,
                Vocab::DataTypes,
                target,
            );
            for s in spec.surfaces {
                add_pattern(
                    &mut builder,
                    &mut symbols,
                    &mut targets,
                    s,
                    Vocab::DataTypes,
                    target,
                );
            }
        }
        for z in ZERO_SHOT_DATA_TYPES {
            add_pattern(
                &mut builder,
                &mut symbols,
                &mut targets,
                z.term,
                Vocab::DataTypes,
                MatchTarget::DataType {
                    descriptor: z.term,
                    category: z.category,
                    zero_shot: true,
                },
            );
        }
        for spec in PURPOSE_DESCRIPTORS {
            let target = MatchTarget::Purpose {
                descriptor: spec.name,
                category: spec.category,
                zero_shot: false,
            };
            add_pattern(
                &mut builder,
                &mut symbols,
                &mut targets,
                spec.name,
                Vocab::Purposes,
                target,
            );
            for s in spec.surfaces {
                add_pattern(
                    &mut builder,
                    &mut symbols,
                    &mut targets,
                    s,
                    Vocab::Purposes,
                    target,
                );
            }
        }
        for z in ZERO_SHOT_PURPOSES {
            add_pattern(
                &mut builder,
                &mut symbols,
                &mut targets,
                z.term,
                Vocab::Purposes,
                MatchTarget::Purpose {
                    descriptor: z.term,
                    category: z.category,
                    zero_shot: true,
                },
            );
        }
        Engine {
            ac: builder.build(),
            symbols,
            targets,
        }
    }

    fn presence(&self, line: &str) -> VocabPresence {
        let mut found = VocabPresence::default();
        self.ac
            .scan(Tokens::new(self, line).map(|t| t.sym), &mut |_, pat| {
                match self.targets.get(pat as usize) {
                    Some((Vocab::DataTypes, _)) => found.datatypes = true,
                    Some((Vocab::Purposes, _)) => found.purposes = true,
                    None => {}
                }
                !(found.datatypes && found.purposes)
            });
        found
    }

    fn scan(&self, line: &str) -> DualScan {
        let toks: Vec<Tok> = Tokens::new(self, line).collect();
        if toks.is_empty() {
            return DualScan::default();
        }
        // Best (longest, then first-inserted) pattern starting at each
        // token index, per vocabulary: (length, pattern id).
        let mut best = [
            vec![(0u32, 0u32); toks.len()],
            vec![(0u32, 0u32); toks.len()],
        ];
        self.ac.scan(toks.iter().map(|t| t.sym), &mut |end, pat| {
            let len = u32::try_from(self.ac.pattern_len(pat)).unwrap_or(u32::MAX);
            let start = end + 1 - len as usize;
            let slot = &mut best[vocab_index(self.targets[pat as usize].0)][start];
            if len > slot.0 {
                *slot = (len, pat);
            }
            true
        });
        DualScan {
            datatypes: self.resolve(line, &toks, &best[vocab_index(Vocab::DataTypes)]),
            purposes: self.resolve(line, &toks, &best[vocab_index(Vocab::Purposes)]),
        }
    }

    /// Replay the legacy token walk over the occurrence table: visit tokens
    /// left to right, track negation cues on *visited* tokens only, emit
    /// the longest match starting at each visited token, and skip the
    /// tokens it consumed.
    fn resolve(&self, line: &str, toks: &[Tok], best: &[(u32, u32)]) -> Vec<VocabMatch> {
        let mut out = Vec::new();
        let mut i = 0usize;
        let mut negation_seen = false;
        while i < toks.len() {
            if toks[i].neg {
                negation_seen = true;
            }
            let (len, pat) = best[i];
            if len > 0 {
                let start = toks[i].start as usize;
                let end = toks[i + len as usize - 1].end as usize;
                out.push(VocabMatch {
                    text: line[start..end].to_string(),
                    target: self.targets[pat as usize].1,
                    negated: negation_seen,
                    span: (start, end),
                });
                i += len as usize;
            } else {
                i += 1;
            }
        }
        out
    }

    /// One token's symbol and negation flag, interned without allocating
    /// per token: a lower-case ASCII token is looked up as a line slice,
    /// and any other is lower-cased with Unicode rules into `scratch`.
    fn token(
        &self,
        line: &str,
        start: usize,
        end: usize,
        needs_fold: bool,
        scratch: &mut String,
    ) -> Tok {
        let word: &str = if needs_fold {
            scratch.clear();
            for ch in line[start..end].chars() {
                for lc in ch.to_lowercase() {
                    scratch.push(lc);
                }
            }
            scratch
        } else {
            &line[start..end]
        };
        Tok {
            start: start as u32,
            end: end as u32,
            sym: self.symbols.get(word).copied().unwrap_or(NO_SYM),
            neg: is_negation_token(word),
        }
    }
}

/// A line's tokens, produced lazily with the legacy character classes and
/// Unicode lower-casing.
struct Tokens<'a> {
    engine: &'a Engine,
    line: &'a str,
    chars: std::str::CharIndices<'a>,
    /// Fold buffer for [`Engine::token`]; allocated on the first token
    /// that needs folding, reused for the rest of the line.
    scratch: String,
}

impl<'a> Tokens<'a> {
    fn new(engine: &'a Engine, line: &'a str) -> Tokens<'a> {
        Tokens {
            engine,
            line,
            chars: line.char_indices(),
            scratch: String::new(),
        }
    }
}

impl Iterator for Tokens<'_> {
    type Item = Tok;

    fn next(&mut self) -> Option<Tok> {
        let (start, first) = self.chars.by_ref().find(|&(_, ch)| is_token_char(ch))?;
        let mut fold = needs_fold(first);
        let mut end = self.line.len();
        for (idx, ch) in self.chars.by_ref() {
            if !is_token_char(ch) {
                end = idx;
                break;
            }
            fold |= needs_fold(ch);
        }
        Some(
            self.engine
                .token(self.line, start, end, fold, &mut self.scratch),
        )
    }
}

/// The legacy token character classes.
fn is_token_char(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '-' || ch == '/' || ch == '&' || ch == '\''
}

/// Whether a token holding `ch` must be lower-cased before lookup.
fn needs_fold(ch: char) -> bool {
    ch.is_ascii_uppercase() || !ch.is_ascii()
}

fn vocab_index(vocab: Vocab) -> usize {
    match vocab {
        Vocab::DataTypes => 0,
        Vocab::Purposes => 1,
    }
}

fn add_pattern(
    builder: &mut AcBuilder,
    symbols: &mut HashMap<String, u32>,
    targets: &mut Vec<(Vocab, MatchTarget)>,
    surface: &str,
    vocab: Vocab,
    target: MatchTarget,
) {
    let tokens = tokenize_words(surface);
    if tokens.is_empty() {
        return;
    }
    let syms: Vec<u32> = tokens
        .into_iter()
        .map(|t| {
            let next = u32::try_from(symbols.len()).unwrap_or(u32::MAX);
            *symbols.entry(t).or_insert(next)
        })
        .collect();
    if builder.add(syms).is_some() {
        targets.push((vocab, target));
    }
}

fn is_negation_token(word: &str) -> bool {
    matches!(
        word,
        "not" | "never" | "don't" | "doesn't" | "won't" | "neither" | "nor"
    )
}

/// Lower-cased word tokens (same character classes as the taxonomy fold).
fn tokenize_words(s: &str) -> Vec<String> {
    tokenize_with_spans(s)
        .into_iter()
        .map(|(w, _, _)| w)
        .collect()
}

/// Tokens with byte spans `(word, start, end)` into the original string.
fn tokenize_with_spans(s: &str) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut start = 0usize;
    for (idx, ch) in s.char_indices() {
        if is_token_char(ch) {
            if current.is_empty() {
                start = idx;
            }
            for lc in ch.to_lowercase() {
                current.push(lc);
            }
        } else if !current.is_empty() {
            out.push((std::mem::take(&mut current), start, idx));
        }
    }
    if !current.is_empty() {
        out.push((current, start, s.len()));
    }
    out
}

// ---------------------------------------------------------------------------
// Legacy oracle (tests only)
// ---------------------------------------------------------------------------

/// The pre-automaton token-walk scanner, kept verbatim as the differential
/// oracle: `tests::automaton_matches_legacy_oracle_*` require the automaton
/// scan to reproduce its output exactly on arbitrary lines.
#[cfg(test)]
mod legacy {
    use super::*;

    struct Entry {
        tokens: Vec<String>,
        target: MatchTarget,
    }

    /// Token-indexed longest-match scanner (HashMap-bucketed by first
    /// token, longest-first stable order within a bucket).
    pub struct LegacyMatcher {
        by_first: HashMap<String, Vec<Entry>>,
    }

    impl LegacyMatcher {
        pub fn for_datatypes() -> LegacyMatcher {
            let mut m = LegacyMatcher {
                by_first: HashMap::new(),
            };
            for spec in DATA_TYPE_DESCRIPTORS {
                let target = MatchTarget::DataType {
                    descriptor: spec.name,
                    category: spec.category,
                    zero_shot: false,
                };
                m.add(spec.name, target);
                for s in spec.surfaces {
                    m.add(s, target);
                }
            }
            for z in ZERO_SHOT_DATA_TYPES {
                m.add(
                    z.term,
                    MatchTarget::DataType {
                        descriptor: z.term,
                        category: z.category,
                        zero_shot: true,
                    },
                );
            }
            m.sort_entries();
            m
        }

        pub fn for_purposes() -> LegacyMatcher {
            let mut m = LegacyMatcher {
                by_first: HashMap::new(),
            };
            for spec in PURPOSE_DESCRIPTORS {
                let target = MatchTarget::Purpose {
                    descriptor: spec.name,
                    category: spec.category,
                    zero_shot: false,
                };
                m.add(spec.name, target);
                for s in spec.surfaces {
                    m.add(s, target);
                }
            }
            for z in ZERO_SHOT_PURPOSES {
                m.add(
                    z.term,
                    MatchTarget::Purpose {
                        descriptor: z.term,
                        category: z.category,
                        zero_shot: true,
                    },
                );
            }
            m.sort_entries();
            m
        }

        fn add(&mut self, surface: &str, target: MatchTarget) {
            let tokens = tokenize_words(surface);
            if tokens.is_empty() {
                return;
            }
            self.by_first
                .entry(tokens[0].clone())
                .or_default()
                .push(Entry { tokens, target });
        }

        fn sort_entries(&mut self) {
            for entries in self.by_first.values_mut() {
                // Longest first for longest-match precedence.
                entries.sort_by_key(|e| std::cmp::Reverse(e.tokens.len()));
            }
        }

        pub fn scan_line(&self, line: &str) -> Vec<VocabMatch> {
            let tokens = tokenize_with_spans(line);
            let mut out: Vec<VocabMatch> = Vec::new();
            let mut i = 0;
            let mut negation_seen = false;
            while i < tokens.len() {
                let word = &tokens[i].0;
                if is_negation_token(word) {
                    negation_seen = true;
                }
                if let Some(entries) = self.by_first.get(word.as_str()) {
                    let mut matched = false;
                    for entry in entries {
                        let n = entry.tokens.len();
                        if i + n <= tokens.len()
                            && tokens[i..i + n]
                                .iter()
                                .map(|(w, _, _)| w)
                                .eq(entry.tokens.iter())
                        {
                            let start = tokens[i].1;
                            let end = tokens[i + n - 1].2;
                            out.push(VocabMatch {
                                text: line[start..end].to_string(),
                                target: entry.target,
                                negated: negation_seen,
                                span: (start, end),
                            });
                            i += n;
                            matched = true;
                            break;
                        }
                    }
                    if matched {
                        continue;
                    }
                }
                i += 1;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyMatcher;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_simple_surface() {
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line("We may collect your email address and phone number.");
        let descs: Vec<&str> = hits
            .iter()
            .map(|h| match h.target {
                MatchTarget::DataType { descriptor, .. } => descriptor,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(descs, vec!["email address", "phone number"]);
        assert!(hits.iter().all(|h| !h.negated));
    }

    #[test]
    fn synonym_maps_to_descriptor_with_verbatim_text() {
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line("Please provide your Mailing Address for delivery.");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text, "Mailing Address");
        match hits[0].target {
            MatchTarget::DataType {
                descriptor,
                category,
                ..
            } => {
                assert_eq!(descriptor, "postal address");
                assert_eq!(category, DataTypeCategory::ContactInfo);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn longest_match_wins() {
        let m = VocabMatcher::for_datatypes();
        // "health insurance" (InsuranceInfo) must beat any shorter overlap.
        let hits = m.scan_line("We collect health insurance details.");
        assert_eq!(hits.len(), 1);
        match hits[0].target {
            MatchTarget::DataType { descriptor, .. } => assert_eq!(descriptor, "health insurance"),
            _ => panic!(),
        }
    }

    #[test]
    fn negated_context_flagged() {
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line("We do not collect biometric data from users.");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].negated);
        let hits2 = m.scan_line("This privacy notice does not apply to medical info we may hold.");
        assert!(hits2.iter().all(|h| h.negated));
    }

    #[test]
    fn negation_only_applies_after_cue() {
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line("We collect your name. We do not collect fingerprint data.");
        let by_desc: Vec<(bool, &str)> = hits
            .iter()
            .map(|h| match h.target {
                MatchTarget::DataType { descriptor, .. } => (h.negated, descriptor),
                _ => unreachable!(),
            })
            .collect();
        assert!(by_desc.contains(&(false, "name")));
        assert!(by_desc.contains(&(true, "fingerprint")));
    }

    #[test]
    fn zero_shot_terms_matched() {
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line("We analyze podcast listening habits to improve audio.");
        assert_eq!(hits.len(), 1);
        match hits[0].target {
            MatchTarget::DataType {
                descriptor,
                zero_shot,
                ..
            } => {
                assert_eq!(descriptor, "podcast listening habits");
                assert!(zero_shot);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn purposes_matcher_works() {
        let m = VocabMatcher::for_purposes();
        let hits = m.scan_line("We use your information to prevent fraud and for analytics.");
        let descs: Vec<&str> = hits
            .iter()
            .map(|h| match h.target {
                MatchTarget::Purpose { descriptor, .. } => descriptor,
                _ => unreachable!(),
            })
            .collect();
        assert!(descs.contains(&"fraud prevention"));
        assert!(descs.contains(&"analytics"));
    }

    #[test]
    fn no_matches_on_clean_boilerplate() {
        let m = VocabMatcher::for_datatypes();
        let hits = m.scan_line(
            "Please read this policy carefully and reach out with any concerns you have.",
        );
        assert!(hits.is_empty(), "unexpected hits: {hits:?}");
    }

    #[test]
    fn word_boundaries_respected() {
        let m = VocabMatcher::for_datatypes();
        // "aged" must not match "age"; "names" must not match "name".
        let hits = m.scan_line("Well-aged processes and filenames are irrelevant here.");
        assert!(hits.is_empty(), "unexpected: {hits:?}");
    }

    #[test]
    fn matches_do_not_overlap() {
        let m = VocabMatcher::for_datatypes();
        // "bank account info" contains "account info" — only one hit.
        let hits = m.scan_line("We store your bank account info securely.");
        assert_eq!(hits.len(), 1);
        match hits[0].target {
            MatchTarget::DataType { descriptor, .. } => {
                assert_eq!(descriptor, "bank account info");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn dual_scan_equals_both_single_scans() {
        let line = "We do not use your email address for direct marketing or analytics.";
        let dual = scan_line_dual(line);
        assert_eq!(
            dual.datatypes,
            VocabMatcher::for_datatypes().scan_line(line)
        );
        assert_eq!(dual.purposes, VocabMatcher::for_purposes().scan_line(line));
        assert!(!dual.datatypes.is_empty());
        assert!(!dual.purposes.is_empty());
    }

    /// Word pool for stitched lines: real vocabulary surfaces, negation
    /// cues, near-miss noise, punctuation, and the occasional arbitrary
    /// chunk — dense enough that longest-match, consumption, and negation
    /// interplay all trigger.
    const WORD_POOL: &str =
        "(email address|bank account info|account info|ip address|health insurance|\
          insurance|phone number|name|names|fingerprint|biometric data|analytics|\
          fraud prevention|direct marketing|access control|media access control address|\
          podcast listening habits|not|never|don't|doesn't|nor|we|do|collect|your|and|\
          for|the|of|to|WE|Email Address|ANALYTICS|Not|[a-z]{1,7}|[ -~]{0,10}|\
          [,.;:!?()\"]{1,3}|é|ß|中文)";

    proptest! {
        #[test]
        fn automaton_matches_legacy_oracle_datatypes(
            words in proptest::collection::vec(WORD_POOL, 0..20)
        ) {
            let line = words.join(" ");
            let oracle = LegacyMatcher::for_datatypes();
            prop_assert_eq!(
                VocabMatcher::for_datatypes().scan_line(&line),
                oracle.scan_line(&line),
                "line={:?}", line
            );
        }

        #[test]
        fn automaton_matches_legacy_oracle_purposes(
            words in proptest::collection::vec(WORD_POOL, 0..20)
        ) {
            let line = words.join(" ");
            let oracle = LegacyMatcher::for_purposes();
            prop_assert_eq!(
                VocabMatcher::for_purposes().scan_line(&line),
                oracle.scan_line(&line),
                "line={:?}", line
            );
        }

        #[test]
        fn presence_equals_dual_scan_emptiness(
            words in proptest::collection::vec(WORD_POOL, 0..20),
            tail in ".{0,40}",
        ) {
            for line in [words.join(" "), format!("{} {tail}", words.join(" "))] {
                let dual = scan_line_dual(&line);
                prop_assert_eq!(
                    vocab_presence(&line),
                    VocabPresence {
                        datatypes: !dual.datatypes.is_empty(),
                        purposes: !dual.purposes.is_empty(),
                    },
                    "line={:?}", line
                );
            }
        }

        #[test]
        fn automaton_matches_legacy_oracle_arbitrary(line in ".{0,160}") {
            let dual = scan_line_dual(&line);
            prop_assert_eq!(
                dual.datatypes,
                LegacyMatcher::for_datatypes().scan_line(&line),
                "dt line={:?}", line
            );
            prop_assert_eq!(
                dual.purposes,
                LegacyMatcher::for_purposes().scan_line(&line),
                "p line={:?}", line
            );
        }
    }
}
