//! Vocabulary scanning: the simulated model's "reading" of policy text.
//!
//! A [`VocabMatcher`] covers every surface form the model knows — the
//! glossary vocabulary *plus* the zero-shot terms of
//! [`aipan_taxonomy::zeroshot`] (an LLM's world knowledge exceeds the
//! prompt glossary) — with longest-match precedence, recording the verbatim
//! matched text (for the pipeline's hallucination verification) and whether
//! the mention sits in a negated context ("we do not collect …").
//!
//! The scanning runs on a single shared Aho–Corasick automaton
//! ([`aipan_textindex::AcAutomaton`]) built once over *both* vocabularies
//! with per-pattern vocabulary tags: one pass over a line's tokens yields
//! every data-type and purpose occurrence at once ([`scan_line_dual`]),
//! which the task layer uses to avoid scanning each line twice. A caller
//! that only needs to know *whether* each vocabulary occurs — whole-text
//! segmentation labels a line `types` or `purposes` on that alone — asks
//! `vocab_presence`, which streams the line's tokens through the same
//! automaton without resolving matches or building match strings.
//!
//! A token is a run of word chars, as [`aipan_textindex::word`] decides
//! them, and its automaton symbol comes from the engine's word table: the
//! lower-cased vocabulary words and the negation cues, in an
//! open-addressing table built once with the automaton. An ASCII token is
//! hashed as its bytes are read and compared with the table's words in
//! place, so it costs no `String` and no map lookup; a token with a
//! non-ASCII char is lower-cased with Unicode rules into a reused buffer
//! first. The original token-walk scanner is preserved under `#[cfg(test)]`
//! as the oracle for a differential property test: both scanners must agree
//! exactly — text, target, span, and negation — on arbitrary lines.

use aipan_taxonomy::datatypes::DATA_TYPE_DESCRIPTORS;
use aipan_taxonomy::purposes::PURPOSE_DESCRIPTORS;
use aipan_taxonomy::zeroshot::{ZERO_SHOT_DATA_TYPES, ZERO_SHOT_PURPOSES};
use aipan_taxonomy::{DataTypeCategory, PurposeCategory};
use aipan_textindex::{fold_byte, is_word_char, AcAutomaton, AcBuilder};
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
    /// Every vocabulary word with its symbol, and the negation cues.
    words: WordTable,
    /// Per-pattern vocabulary tag and match target, indexed by pattern id.
    targets: Vec<(Vocab, MatchTarget)>,
}

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::build)
}

/// One scanned token: byte span in the line, symbol (or [`NO_SYM`]), and
/// whether it is a negation cue.
struct Tok {
    start: usize,
    end: usize,
    sym: u32,
    neg: bool,
}

impl Engine {
    fn build() -> Engine {
        let mut build = EngineBuilder::default();
        // Insertion order per vocabulary mirrors the legacy matcher's
        // (glossary names, glossary surfaces, then zero-shot terms) so
        // pattern-id order reproduces its tie-breaking.
        for spec in DATA_TYPE_DESCRIPTORS {
            let target = MatchTarget::DataType {
                descriptor: spec.name,
                category: spec.category,
                zero_shot: false,
            };
            for surface in std::iter::once(&spec.name).chain(spec.surfaces) {
                build.add(surface, Vocab::DataTypes, target);
            }
        }
        for z in ZERO_SHOT_DATA_TYPES {
            let target = MatchTarget::DataType {
                descriptor: z.term,
                category: z.category,
                zero_shot: true,
            };
            build.add(z.term, Vocab::DataTypes, target);
        }
        for spec in PURPOSE_DESCRIPTORS {
            let target = MatchTarget::Purpose {
                descriptor: spec.name,
                category: spec.category,
                zero_shot: false,
            };
            for surface in std::iter::once(&spec.name).chain(spec.surfaces) {
                build.add(surface, Vocab::Purposes, target);
            }
        }
        for z in ZERO_SHOT_PURPOSES {
            let target = MatchTarget::Purpose {
                descriptor: z.term,
                category: z.category,
                zero_shot: true,
            };
            build.add(z.term, Vocab::Purposes, target);
        }
        build.build()
    }

    fn presence(&self, line: &str) -> VocabPresence {
        let mut found = VocabPresence::default();
        self.ac.scan(
            Tokens::new(&self.words, line).map(|t| t.sym),
            &mut |_, pat| {
                match self.targets.get(pat as usize) {
                    Some((Vocab::DataTypes, _)) => found.datatypes = true,
                    Some((Vocab::Purposes, _)) => found.purposes = true,
                    None => {}
                }
                !(found.datatypes && found.purposes)
            },
        );
        found
    }

    fn scan(&self, line: &str) -> DualScan {
        let toks: Vec<Tok> = Tokens::new(&self.words, line).collect();
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
                let start = toks[i].start;
                let end = toks[i + len as usize - 1].end;
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
}

/// Build-time state of the [`Engine`]: the automaton under construction
/// and the words interned so far. Once every pattern is in, the words move
/// into the engine's [`WordTable`] and the map is dropped.
#[derive(Default)]
struct EngineBuilder {
    ac: AcBuilder,
    symbols: HashMap<String, u32>,
    targets: Vec<(Vocab, MatchTarget)>,
}

impl EngineBuilder {
    fn add(&mut self, surface: &str, vocab: Vocab, target: MatchTarget) {
        let tokens = tokenize_words(surface);
        if tokens.is_empty() {
            return;
        }
        let syms: Vec<u32> = tokens
            .into_iter()
            .map(|t| {
                let next = u32::try_from(self.symbols.len()).unwrap_or(NO_SYM);
                *self.symbols.entry(t).or_insert(next)
            })
            .collect();
        if self.ac.add(syms).is_some() {
            self.targets.push((vocab, target));
        }
    }

    fn build(self) -> Engine {
        // In symbol order, so the table's layout does not depend on the
        // map's iteration order.
        let mut words: Vec<(String, u32)> = self.symbols.into_iter().collect();
        words.sort_unstable_by_key(|&(_, sym)| sym);
        Engine {
            ac: self.ac.build(),
            words: WordTable::new(words),
            targets: self.targets,
        }
    }
}

/// The tokens that put the rest of their line in negated context.
const NEGATION_CUES: [&str; 7] = [
    "not", "never", "don't", "doesn't", "won't", "neither", "nor",
];

/// The engine's words — every lower-cased vocabulary token with its
/// symbol, plus the [`NEGATION_CUES`] — in an open-addressing table with
/// linear probing, at most half full.
///
/// A token is hashed as its bytes are read ([`hash_step`]). The hash only
/// picks the slot a probe starts from, and a hit is an exact comparison of
/// the word's bytes, so a lookup answers exactly what a map keyed by the
/// word would, whatever the hash; no hash reaches an output. Only the
/// program's own vocabulary is ever inserted, so no text can lengthen a
/// probe past the longest run of occupied slots the build left.
struct WordTable {
    /// Per slot: one plus the index of its word in `words`, or 0 if empty.
    slots: Vec<u32>,
    words: Vec<Word>,
}

struct Word {
    text: String,
    sym: u32,
    neg: bool,
}

impl WordTable {
    /// The table over the interned `vocab` words and every negation cue
    /// not among them, which gets [`NO_SYM`].
    fn new(vocab: Vec<(String, u32)>) -> WordTable {
        let mut words: Vec<Word> = vocab
            .into_iter()
            .map(|(text, sym)| Word {
                neg: NEGATION_CUES.contains(&text.as_str()),
                text,
                sym,
            })
            .collect();
        for cue in NEGATION_CUES {
            if !words.iter().any(|w| w.text == cue) {
                words.push(Word {
                    text: cue.to_string(),
                    sym: NO_SYM,
                    neg: true,
                });
            }
        }
        let mut slots = vec![0u32; words.len().saturating_mul(2).next_power_of_two()];
        let mask = slots.len() - 1;
        for (word, id) in words.iter().zip(1u32..) {
            let mut at = word_hash(word.text.as_bytes()) as usize;
            while let Some(slot) = slots.get_mut(at & mask) {
                if *slot == 0 {
                    *slot = id;
                    break;
                }
                at = at.wrapping_add(1);
            }
        }
        WordTable { slots, words }
    }

    /// The word whose bytes `is_word` accepts, probing from `hash`, the
    /// [`word_hash`] of the lower-cased bytes looked up. The table is at
    /// most half full, so the probe ends at an empty slot on a miss.
    fn get(&self, hash: u32, is_word: impl Fn(&[u8]) -> bool) -> Option<&Word> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize;
        loop {
            let id = *self.slots.get(at & mask)?;
            let word = self.words.get(id.checked_sub(1)? as usize)?;
            if is_word(word.text.as_bytes()) {
                return Some(word);
            }
            at = at.wrapping_add(1);
        }
    }
}

const HASH_START: u32 = 0x811c_9dc5;

/// One byte of FNV-1a.
fn hash_step(hash: u32, b: u8) -> u32 {
    (hash ^ u32::from(b)).wrapping_mul(0x0100_0193)
}

fn word_hash(bytes: &[u8]) -> u32 {
    bytes.iter().fold(HASH_START, |hash, &b| hash_step(hash, b))
}

/// A line's tokens: runs of word chars, each looked up in the
/// [`WordTable`] under its Unicode lower case. ASCII bytes are classified
/// and lower-cased by [`fold_byte`], and an ASCII token is hashed as it is
/// read and compared in place; only a token with a non-ASCII char is
/// lower-cased into a buffer first.
struct Tokens<'a> {
    words: &'a WordTable,
    line: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
    /// Lower-case buffer for tokens with a non-ASCII char; allocated on
    /// the first one, reused for the rest of the line.
    scratch: String,
}

impl<'a> Tokens<'a> {
    fn new(words: &'a WordTable, line: &'a str) -> Tokens<'a> {
        Tokens {
            words,
            line,
            pos: 0,
            scratch: String::new(),
        }
    }

    fn char_at(&self, at: usize) -> Option<char> {
        self.line.get(at..)?.chars().next()
    }
}

impl Iterator for Tokens<'_> {
    type Item = Tok;

    fn next(&mut self) -> Option<Tok> {
        let bytes = self.line.as_bytes();
        let mut pos = self.pos;
        loop {
            let folded = fold_byte(*bytes.get(pos)?);
            if folded == b' ' {
                pos += 1;
            } else if folded < 0x80 {
                break;
            } else {
                let ch = self.char_at(pos)?;
                if is_word_char(ch) {
                    break;
                }
                pos += ch.len_utf8();
            }
        }
        let start = pos;
        let mut hash = HASH_START;
        let mut ascii = true;
        while let Some(&b) = bytes.get(pos) {
            let folded = fold_byte(b);
            if folded == b' ' {
                break;
            } else if folded < 0x80 {
                hash = hash_step(hash, folded);
                pos += 1;
            } else {
                match self.char_at(pos) {
                    Some(ch) if is_word_char(ch) => {
                        ascii = false;
                        pos += ch.len_utf8();
                    }
                    _ => break,
                }
            }
        }
        self.pos = pos;
        let word = if ascii {
            let token = bytes.get(start..pos).unwrap_or_default();
            self.words
                .get(hash, |word| word.eq_ignore_ascii_case(token))
        } else {
            self.scratch.clear();
            let token = self.line.get(start..pos).unwrap_or_default();
            self.scratch
                .extend(token.chars().flat_map(char::to_lowercase));
            let lower = self.scratch.as_bytes();
            self.words.get(word_hash(lower), |word| word == lower)
        };
        Some(Tok {
            start,
            end: pos,
            sym: word.map_or(NO_SYM, |w| w.sym),
            neg: word.is_some_and(|w| w.neg),
        })
    }
}

fn vocab_index(vocab: Vocab) -> usize {
    match vocab {
        Vocab::DataTypes => 0,
        Vocab::Purposes => 1,
    }
}

/// The legacy oracle's negation test.
#[cfg(test)]
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
        if is_word_char(ch) {
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

    fn title_case(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut word_start = true;
        for ch in s.chars() {
            if word_start {
                out.extend(ch.to_uppercase());
            } else {
                out.push(ch);
            }
            word_start = ch == ' ';
        }
        out
    }

    /// Every surface form the engine knows and every negation cue, in
    /// lower, upper and title case, alone and inside a sentence. A word
    /// the table probes wrongly, or a hash collision the byte comparison
    /// lets through, shows here even where a random word pool never draws
    /// it.
    #[test]
    fn every_vocabulary_surface_scans_as_the_legacy_oracle() {
        let datatypes = LegacyMatcher::for_datatypes();
        let purposes = LegacyMatcher::for_purposes();
        let surfaces: Vec<&str> =
            DATA_TYPE_DESCRIPTORS
                .iter()
                .flat_map(|spec| std::iter::once(spec.name).chain(spec.surfaces.iter().copied()))
                .chain(ZERO_SHOT_DATA_TYPES.iter().map(|z| z.term))
                .chain(PURPOSE_DESCRIPTORS.iter().flat_map(|spec| {
                    std::iter::once(spec.name).chain(spec.surfaces.iter().copied())
                }))
                .chain(ZERO_SHOT_PURPOSES.iter().map(|z| z.term))
                .chain(NEGATION_CUES)
                .collect();
        assert!(surfaces.len() > 500, "{} surfaces", surfaces.len());
        for surface in surfaces {
            for form in [
                surface.to_lowercase(),
                surface.to_uppercase(),
                title_case(surface),
            ] {
                for line in [form.clone(), format!("We collect {form} today.")] {
                    let dual = scan_line_dual(&line);
                    assert_eq!(dual.datatypes, datatypes.scan_line(&line), "{line:?}");
                    assert_eq!(dual.purposes, purposes.scan_line(&line), "{line:?}");
                    assert_eq!(
                        vocab_presence(&line),
                        VocabPresence {
                            datatypes: !dual.datatypes.is_empty(),
                            purposes: !dual.purposes.is_empty(),
                        },
                        "{line:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_table_holds_each_word_once_under_its_own_symbol() {
        let table = &engine().words;
        let mut syms = std::collections::BTreeSet::new();
        for word in &table.words {
            let text = word.text.as_bytes();
            let found = table.get(word_hash(text), |w| w == text);
            assert!(
                found.is_some_and(|f| std::ptr::eq(f, word)),
                "{:?} not found at its own entry",
                word.text
            );
            assert_eq!(word.neg, is_negation_token(&word.text), "{:?}", word.text);
            if word.sym != NO_SYM {
                assert!(syms.insert(word.sym), "symbol {} twice", word.sym);
            }
            // A longer or shorter word probes to a miss or to another word.
            for other in [format!("{}x", word.text), word.text[1..].to_string()] {
                let hit = table.get(word_hash(other.as_bytes()), |w| w == other.as_bytes());
                assert!(hit.is_none_or(|h| h.text == other), "{other:?}");
            }
        }
        assert_eq!(
            syms.len(),
            table.words.iter().filter(|w| w.sym != NO_SYM).count()
        );
        assert!(NEGATION_CUES
            .iter()
            .all(|cue| table.words.iter().any(|w| w.text == *cue && w.neg)));
        assert!(table.slots.len() >= 2 * table.words.len());
    }

    #[test]
    fn non_ascii_tokens_lower_case_into_vocabulary_words() {
        // U+212A KELVIN SIGN lower-cases to ASCII `k` under Unicode rules,
        // so "BAN\u{212A}" is the token "bank"; U+0130 lower-cases to `i`
        // plus a combining dot, which no vocabulary word holds.
        let table = &engine().words;
        let sym_of = |line: &str| -> Vec<u32> { Tokens::new(table, line).map(|t| t.sym).collect() };
        assert_eq!(sym_of("BAN\u{212A}"), sym_of("bank"));
        assert_ne!(sym_of("bank"), vec![NO_SYM]);
        assert_eq!(sym_of("\u{130}P"), vec![NO_SYM]);
        assert_eq!(sym_of("NOT"), sym_of("not"));
        assert!(Tokens::new(table, "N\u{212A}OT don't").all(|t| t.neg == (t.start > 0)));
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
