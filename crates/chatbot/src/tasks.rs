//! Simulated implementations of the seven chatbot tasks.
//!
//! Each function consumes a numbered-line input document and produces
//! protocol rows, applying the [`ModelProfile`]'s error models. All error
//! decisions are keyed by `(seed, model, task, document-hash, line, item)`
//! so runs are deterministic but errors are uncorrelated across policies
//! (the same boilerplate sentence can be mislabeled for one company and
//! labeled correctly for another, as with a real sampled model).
//!
//! Every task reads its input once: the engine hashes the document into
//! its [`doc_key`] and hands it in, [`parse_numbered`] yields the lines as
//! slices of the input. Whole-text segmentation classifies every line of
//! a policy in one pass: its keyword cues ("retain", "opt out", "third
//! part", …) compile into one [`CueSet`], a dense byte automaton that
//! answers which cues occur in the lower-cased line, and the vocabulary
//! automaton is asked only whether each vocabulary occurs
//! (`matcher::vocab_presence`). The `contains` classifier this replaces is
//! kept under `#[cfg(test)]` as the oracle of a differential property
//! test.

use crate::matcher::{scan_line_dual, vocab_presence, MatchTarget};
use crate::profile::{decide, pick, ModelProfile};
use crate::protocol::{ExtractRow, HandlingRow, LabelRow, NormalizeRow, PurposeRow, RightsRow};
use aipan_taxonomy::zeroshot::{ZeroShotDataType, ZERO_SHOT_DATA_TYPES};
use aipan_taxonomy::{
    AccessLabel, Aspect, ChoiceLabel, DataTypeCategory, Normalizer, ProtectionLabel, RetentionLabel,
};
use aipan_textindex::CueSet;
use std::collections::HashMap;
use std::sync::OnceLock;

fn normalizer() -> &'static Normalizer {
    static N: OnceLock<Normalizer> = OnceLock::new();
    N.get_or_init(Normalizer::new)
}

/// Parse a numbered-line document (`[n] text`) into `(n, text)` pairs
/// borrowed from `input`; lines without a `[number]` prefix are skipped.
pub fn parse_numbered(input: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    input.lines().filter_map(|line| {
        let rest = line.trim_end().strip_prefix('[')?;
        let (num, text) = rest.split_once(']')?;
        let n = num.trim().parse::<usize>().ok()?;
        Some((n, text.trim_start()))
    })
}

/// Short stable key for a document (decision keying). The engine computes
/// it once per completion and passes it to the task as `doc`.
pub fn doc_key(input: &str) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    input.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// The cues of `set` occurring in `text` lower-cased. A [`CueSet`] folds
/// ASCII case itself, so an ASCII line is scanned as it is; any other line
/// is lower-cased with Unicode rules first, since a few non-ASCII
/// characters lower-case to ASCII ones (`K` U+212A to `k`, `İ` U+0130 to
/// `i` plus a combining dot).
fn scan_lowered(set: &CueSet, text: &str) -> u128 {
    if text.is_ascii() {
        set.scan(text.as_bytes())
    } else {
        set.scan(text.to_lowercase().as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Heading labeling and text segmentation (Appendix B)
// ---------------------------------------------------------------------------

/// Classify a section heading into aspects (keyword rules standing in for
/// the LLM's reading of the heading glossary).
pub fn classify_heading(text: &str) -> Vec<Aspect> {
    let t = text.to_lowercase();
    let mut aspects = Vec::new();
    let has = |needle: &str| t.contains(needle);

    if has("how we collect") || has("collection method") || has("sources of") {
        aspects.push(Aspect::Methods);
    } else if has("we collect")
        || has("information collected")
        || has("data collected")
        || has("categories of personal")
        || has("what information")
    {
        aspects.push(Aspect::Types);
    }
    if has("how we use") || has("use of ") || has("why we") || has("purposes") {
        aspects.push(Aspect::Purposes);
    }
    if has("retention")
        || has("security")
        || has("how long")
        || has("protect")
        || has("storage")
        || has("safeguard")
    {
        aspects.push(Aspect::Handling);
    }
    if has("share") || has("sharing") || has("disclos") || has("third part") {
        aspects.push(Aspect::Sharing);
    }
    if has("rights")
        || has("choices")
        || has("opt-out")
        || has("opt out")
        || has("access and correction")
    {
        aspects.push(Aspect::Rights);
    }
    if has("california")
        || has("children")
        || has("minors")
        || has("european")
        || has("audiences")
        || has("nevada")
        || has("gdpr")
        || has("ccpa")
    {
        aspects.push(Aspect::Audiences);
    }
    if has("changes") || has("updates to") || has("amendment") {
        aspects.push(Aspect::Changes);
    }
    if aspects.is_empty() {
        aspects.push(Aspect::Other);
    }
    aspects
}

/// Label a table of contents (input lines are headings). `doc` is the
/// input's [`doc_key`].
pub fn run_label_headings(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<LabelRow> {
    parse_numbered(input)
        .map(|(n, text)| {
            let mut aspects = classify_heading(text);
            if decide(
                seed,
                &[&profile.id, "seg-noise", doc, &n.to_string()],
                profile.segmentation_noise,
            ) {
                aspects = vec![Aspect::Other];
            }
            (n, aspects)
        })
        .collect()
}

/// The whole-text segmentation rules, in label order: a line gets an
/// aspect when any of the aspect's cues occurs in the lower-cased line.
/// `types` and `purposes` also fire when a vocabulary surface form of
/// theirs occurs.
const LINE_RULES: [(Aspect, &[&str]); 8] = [
    (
        Aspect::Handling,
        &[
            "retain",
            "retention",
            "indefinitely",
            "safeguard",
            "encrypt",
            "need to know",
            "privacy program",
            "two-factor",
            "audited",
        ],
    ),
    (
        Aspect::Rights,
        &[
            "opt out",
            "opt-out",
            "consent",
            "update or correct",
            "delete your account",
            "access to review",
            "copy of your",
            "deactivate",
            "privacy settings",
            "deletion of certain",
            "discontinue use",
        ],
    ),
    (
        Aspect::Sharing,
        &["share", "disclos", "unaffiliated", "third part"],
    ),
    (
        Aspect::Changes,
        &[
            "update this policy",
            "changes to this",
            "revise the date",
            "material update",
        ],
    ),
    (
        Aspect::Audiences,
        &["california", "minors", "children", "european"],
    ),
    (
        Aspect::Methods,
        &[
            "how we collect",
            "obtain information directly",
            "automated technolog",
        ],
    ),
    (
        Aspect::Types,
        &[
            "we collect",
            "we may collect",
            "categories of personal information",
            "information we collect includes",
        ],
    ),
    (
        Aspect::Purposes,
        &["we use the information", "following purposes"],
    ),
];

/// [`LINE_RULES`] compiled: one cue automaton over every rule's cues, and
/// each aspect's mask of its cues' bits.
struct LineCues {
    set: CueSet,
    rules: Vec<(Aspect, u128)>,
}

fn line_cues() -> &'static LineCues {
    static CUES: OnceLock<LineCues> = OnceLock::new();
    CUES.get_or_init(|| {
        let mut cues = Vec::new();
        let rules = LINE_RULES
            .iter()
            .map(|&(aspect, rule)| {
                let first = cues.len();
                cues.extend_from_slice(rule);
                let mask = (first..cues.len()).fold(0u128, |mask, bit| {
                    mask | 1u128
                        .checked_shl(u32::try_from(bit).unwrap_or(u32::MAX))
                        .unwrap_or(0)
                });
                (aspect, mask)
            })
            .collect();
        LineCues {
            set: CueSet::new(&cues),
            rules,
        }
    })
}

/// Classify one body line into aspects (the whole-text segmentation rules,
/// `LINE_RULES`): one cue pass over the line, then the vocabulary
/// occurrence check only if `types` or `purposes` is still open.
pub fn classify_line(text: &str) -> Vec<Aspect> {
    let cues = line_cues();
    let found = scan_lowered(&cues.set, text);
    let mut vocab = None;
    let mut aspects = Vec::new();
    for &(aspect, mask) in &cues.rules {
        let fires = found & mask != 0
            || match aspect {
                Aspect::Types => vocab.get_or_insert_with(|| vocab_presence(text)).datatypes,
                Aspect::Purposes => vocab.get_or_insert_with(|| vocab_presence(text)).purposes,
                _ => false,
            };
        if fires {
            aspects.push(aspect);
        }
    }
    if aspects.is_empty() {
        aspects.push(Aspect::Other);
    }
    aspects
}

/// Segment whole text into labeled lines (Appendix B step 2). `doc` is the
/// input's [`doc_key`].
///
/// Whole-text labeling is noisy: with probability `line_label_noise` *per
/// aspect per document*, the model consistently fails to recognize that
/// aspect's lines (they fall to `other`). A wiped aspect leaves its section
/// empty, which is what later forces the §3.2.2 full-text annotation
/// fallback on real models. The wipe is per-aspect-consistent rather than
/// per-line so that sections are either intact or empty — mirroring how a
/// model that misreads a topic misreads all of it.
pub fn run_segment_text(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<LabelRow> {
    let wiped: Vec<Aspect> = Aspect::ALL
        .iter()
        .copied()
        .filter(|a| {
            decide(
                seed,
                &[&profile.id, "seg2-wipe", doc, a.key()],
                profile.line_label_noise,
            )
        })
        .collect();
    parse_numbered(input)
        .map(|(n, text)| {
            let mut aspects = classify_line(text);
            aspects.retain(|a| !wiped.contains(a));
            if aspects.is_empty() {
                aspects.push(Aspect::Other);
            }
            (n, aspects)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Data-type extraction and normalization
// ---------------------------------------------------------------------------

/// Extract verbatim data-type mentions (Figure 2b task). `doc` is the
/// input's [`doc_key`].
pub fn run_extract_datatypes(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<ExtractRow> {
    let mut rows = Vec::new();
    for (n, text) in parse_numbered(input) {
        // Suppress data-type hits strictly inside a longer purpose phrase
        // (e.g. "email" inside "email newsletters"): a competent reader
        // attributes the span to the larger unit. One dual scan yields
        // both sides.
        let scan = scan_line_dual(text);
        let purpose_spans: Vec<(usize, usize)> =
            scan.purposes.into_iter().map(|h| h.span).collect();
        let hits = scan
            .datatypes
            .into_iter()
            .filter(|h| !purpose_spans.iter().any(|s| h.contained_in(s)));
        for (idx, hit) in hits.enumerate() {
            let item = format!("{n}:{idx}:{}", hit.text);
            if !reports_hit(profile, seed, doc, &item, hit.negated, ["neg", "recall"]) {
                continue;
            }
            rows.push((n, hit.text));
        }
        // Context confusion: a span that is not a data type.
        if decide(
            seed,
            &[&profile.id, "spurious", doc, &n.to_string()],
            profile.spurious_rate,
        ) {
            if let Some(span) = spurious_span(seed, profile, doc, n, text) {
                rows.push((n, span));
            }
        }
    }
    // Hallucination: fabricated text absent from the document (caught by
    // the pipeline's verbatim verification).
    if decide(
        seed,
        &[&profile.id, "hallucinate", doc],
        profile.hallucination_rate,
    ) {
        rows.push((1, "telepathic preference signals".to_string()));
    }
    rows
}

/// Whether the model reports one vocabulary hit. The prompt says to
/// ignore negated contexts; weaker models report a negated hit anyway at
/// `negation_error` (the Llama-3.1 failure of §6). Any other hit survives
/// at `extraction_recall`. `draws` name the two decisions, negated first;
/// each is keyed `[model, draw, doc, item]`.
fn reports_hit(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    item: &str,
    negated: bool,
    [negated_draw, recall_draw]: [&str; 2],
) -> bool {
    let (draw, rate) = if negated {
        (negated_draw, profile.negation_error)
    } else {
        (recall_draw, profile.extraction_recall)
    };
    decide(seed, &[&profile.id, draw, doc, item], rate)
}

/// Pick a plausible-looking non-vocabulary span from a line.
fn spurious_span(
    seed: u64,
    profile: &ModelProfile,
    doc: &str,
    n: usize,
    text: &str,
) -> Option<String> {
    let words: Vec<&str> = text
        .split_whitespace()
        .filter(|w| w.len() >= 5 && w.chars().all(|c| c.is_alphabetic()))
        .collect();
    if words.is_empty() {
        return None;
    }
    let idx = pick(
        seed,
        &[&profile.id, "span", doc, &n.to_string()],
        words.len(),
    );
    words.get(idx).map(|w| w.to_string())
}

/// Normalize extracted mentions into descriptors + categories. `doc` is
/// the input's [`doc_key`].
pub fn run_normalize_datatypes(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<NormalizeRow> {
    let norm = normalizer();
    let mut rows = Vec::new();
    for (n, text) in parse_numbered(input) {
        let (descriptor, category) = if let Some(hit) = norm.datatype(text) {
            (hit.descriptor.to_string(), hit.category)
        } else if let Some(z) = lookup_zero_shot(text) {
            // The model's world knowledge exceeds the glossary: it can
            // still categorize and emits the term as an open descriptor.
            (z.term.to_string(), z.category)
        } else {
            // Fully unknown span: generate an open descriptor and guess a
            // plausible (prior-weighted) category.
            let guess = weighted_pick(
                seed,
                &[&profile.id, "guess-cat", doc, text],
                &DataTypeCategory::ALL,
                category_prior,
            );
            (text.to_lowercase(), guess)
        };
        let category = if decide(
            seed,
            &[&profile.id, "confuse", doc, &n.to_string(), text],
            profile.type_confusion,
        ) {
            confuse_category(seed, profile, doc, text, category)
        } else {
            category
        };
        rows.push((n, descriptor, category.name().to_string()));
    }
    rows
}

/// Approximate prevalence prior for each data-type category (fraction of
/// policies mentioning it, per the paper's Table 5) — the simulated model's
/// prior when guessing a category for an unknown term or when it confuses
/// categories. Real models err toward *plausible* categories, not uniformly.
pub fn category_prior(cat: DataTypeCategory) -> f64 {
    use DataTypeCategory::*;
    match cat {
        ContactInfo => 0.864,
        PersonalIdentifier => 0.895,
        ProfessionalInfo => 0.590,
        DemographicInfo => 0.499,
        EducationalInfo => 0.279,
        VehicleInfo => 0.050,
        DeviceInfo => 0.744,
        OnlineIdentifier => 0.809,
        AccountInfo => 0.500,
        NetworkConnectivity => 0.295,
        SocialMediaData => 0.233,
        ExternalData => 0.124,
        MedicalInfo => 0.283,
        BiometricData => 0.164,
        PhysicalCharacteristic => 0.112,
        FitnessHealth => 0.035,
        FinancialInfo => 0.539,
        LegalInfo => 0.287,
        FinancialCapability => 0.215,
        InsuranceInfo => 0.148,
        PreciseLocation => 0.509,
        ApproximateLocation => 0.333,
        TravelData => 0.066,
        PhysicalInteraction => 0.028,
        InternetUsage => 0.728,
        TrackingData => 0.467,
        ProductServiceUsage => 0.508,
        TransactionInfo => 0.439,
        Preferences => 0.491,
        ContentGeneration => 0.328,
        CommunicationData => 0.338,
        FeedbackData => 0.253,
        ContentConsumption => 0.267,
        DiagnosticData => 0.143,
    }
}

/// Prevalence prior for purpose categories (Table 2b coverage).
pub fn purpose_prior(cat: aipan_taxonomy::PurposeCategory) -> f64 {
    use aipan_taxonomy::PurposeCategory::*;
    match cat {
        BasicFunctioning => 0.951,
        UserExperience => 0.865,
        AnalyticsResearch => 0.813,
        LegalCompliance => 0.732,
        Security => 0.725,
        AdvertisingSales => 0.780,
        DataSharing => 0.261,
    }
}

/// Prior-weighted pick among candidates, keyed deterministically.
fn weighted_pick<T: Copy>(
    seed: u64,
    parts: &[&str],
    candidates: &[T],
    weight: impl Fn(T) -> f64,
) -> T {
    debug_assert!(!candidates.is_empty());
    let total: f64 = candidates.iter().map(|&c| weight(c)).sum();
    let mut target = crate::profile::unit(seed, parts) * total;
    for &c in candidates {
        target -= weight(c);
        if target <= 0.0 {
            return c;
        }
    }
    candidates[candidates.len() - 1]
}

/// Folded-term index over [`ZERO_SHOT_DATA_TYPES`], built once. First
/// occurrence wins on duplicate terms, matching the linear scan this
/// replaces.
fn zero_shot_index() -> &'static HashMap<&'static str, &'static ZeroShotDataType> {
    static IDX: OnceLock<HashMap<&'static str, &'static ZeroShotDataType>> = OnceLock::new();
    IDX.get_or_init(|| {
        let mut idx = HashMap::new();
        for z in ZERO_SHOT_DATA_TYPES {
            idx.entry(z.term).or_insert(z);
        }
        idx
    })
}

fn lookup_zero_shot(text: &str) -> Option<&'static ZeroShotDataType> {
    let folded = aipan_taxonomy::normalize::fold(text);
    zero_shot_index().get(folded.as_str()).copied()
}

fn confuse_category(
    seed: u64,
    profile: &ModelProfile,
    doc: &str,
    text: &str,
    correct: DataTypeCategory,
) -> DataTypeCategory {
    // Models confuse a category with a *plausible sibling* (same
    // meta-category, prior-weighted), not with an arbitrary one.
    let siblings: Vec<DataTypeCategory> = correct
        .meta()
        .categories()
        .iter()
        .copied()
        .filter(|&c| c != correct)
        .collect();
    weighted_pick(
        seed,
        &[&profile.id, "confuse-pick", doc, text],
        &siblings,
        category_prior,
    )
}

// ---------------------------------------------------------------------------
// Purposes
// ---------------------------------------------------------------------------

/// Extract and normalize data-collection purposes. `doc` is the input's
/// [`doc_key`].
pub fn run_annotate_purposes(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<PurposeRow> {
    let mut rows = Vec::new();
    for (n, text) in parse_numbered(input) {
        // Suppress purpose hits strictly inside a longer data-type phrase
        // (e.g. "access control" inside "media access control address").
        let scan = scan_line_dual(text);
        let dt_spans: Vec<(usize, usize)> = scan.datatypes.into_iter().map(|h| h.span).collect();
        let hits = scan
            .purposes
            .into_iter()
            .filter(|h| !dt_spans.iter().any(|s| h.contained_in(s)));
        for (idx, hit) in hits.enumerate() {
            let item = format!("{n}:{idx}:{}", hit.text);
            if !reports_hit(profile, seed, doc, &item, hit.negated, ["pneg", "precall"]) {
                continue;
            }
            let MatchTarget::Purpose {
                descriptor,
                category,
                ..
            } = hit.target
            else {
                continue;
            };
            let category = if decide(
                seed,
                &[&profile.id, "pconfuse", doc, &item],
                profile.purpose_confusion,
            ) {
                let others: Vec<aipan_taxonomy::PurposeCategory> =
                    aipan_taxonomy::PurposeCategory::ALL
                        .iter()
                        .copied()
                        .filter(|&c| c != category)
                        .collect();
                weighted_pick(
                    seed,
                    &[&profile.id, "pconfuse-pick", doc, &item],
                    &others,
                    purpose_prior,
                )
            } else {
                category
            };
            rows.push((
                n,
                hit.text,
                descriptor.to_string(),
                category.name().to_string(),
            ));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Handling (retention + protection)
// ---------------------------------------------------------------------------

/// Classify one line's retention practice, if any.
pub fn classify_retention(text: &str) -> Option<(RetentionLabel, Option<String>)> {
    let t = text.to_lowercase();
    if !(t.contains("retain") || t.contains("retention") || t.contains("we keep")) {
        return None;
    }
    if t.contains("indefinitely") {
        return Some((RetentionLabel::Indefinitely, None));
    }
    if let Some(period) = parse_period(&t) {
        return Some((RetentionLabel::Stated, Some(period)));
    }
    if t.contains("as long as necessary") || t.contains("no longer than necessary") {
        return Some((RetentionLabel::Limited, None));
    }
    None
}

/// Find a stated period like "two (2) years", "90 days", "six months".
/// Returns a normalized "N unit" string.
pub fn parse_period(lower: &str) -> Option<String> {
    let tokens: Vec<&str> = lower
        .split(|c: char| !(c.is_alphanumeric() || c == '-'))
        .filter(|s| !s.is_empty())
        .collect();
    for window in tokens.windows(2) {
        let [a, b] = window else { continue };
        let unit = match *b {
            "day" | "days" => "days",
            "month" | "months" => "months",
            "year" | "years" => "years",
            _ => continue,
        };
        if let Ok(n) = a.parse::<u32>() {
            return Some(format!("{n} {unit}"));
        }
    }
    None
}

/// Classify one line's protection practices (possibly several).
pub fn classify_protection(text: &str) -> Vec<ProtectionLabel> {
    let t = text.to_lowercase();
    let has = |needle: &str| t.contains(needle);
    let mut out = Vec::new();
    if has("need to know") || has("need-to-know") {
        out.push(ProtectionLabel::AccessLimit);
    }
    if has("in transit") || has("ssl") || has("tls") || has("secure socket") {
        out.push(ProtectionLabel::SecureTransfer);
    }
    if has("encrypted database") || has("at rest") || has("encrypted format") {
        out.push(ProtectionLabel::SecureStorage);
    }
    if has("privacy program") || has("data protection officer") {
        out.push(ProtectionLabel::PrivacyProgram);
    }
    if has("audited") || has("regularly reviewed") {
        out.push(ProtectionLabel::PrivacyReview);
    }
    if has("two-factor") || has("2fa") || has("multi-factor") || has("encrypted credentials") {
        out.push(ProtectionLabel::SecureAuthentication);
    }
    if out.is_empty() && (has("safeguard") || has("commercially reasonable")) {
        out.push(ProtectionLabel::Generic);
    }
    out
}

/// Annotate data retention/protection practices. `doc` is the input's
/// [`doc_key`].
pub fn run_annotate_handling(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<HandlingRow> {
    let mut rows = Vec::new();
    for (n, text) in parse_numbered(input) {
        if let Some((label, period)) = classify_retention(text) {
            let label = maybe_confuse(
                seed,
                [&profile.id, "hconfuse-r", doc, &n.to_string()],
                "hpick-r",
                profile.handling_confusion,
                &RetentionLabel::ALL,
                label,
            );
            let period = if label == RetentionLabel::Stated {
                period
            } else {
                None
            };
            rows.push((n, text.to_string(), label.name().to_string(), period));
        }
        for (idx, label) in classify_protection(text).into_iter().enumerate() {
            let label = maybe_confuse(
                seed,
                [&profile.id, "hconfuse-p", doc, &format!("{n}:{idx}")],
                "hpick-p",
                profile.handling_confusion,
                &ProtectionLabel::ALL,
                label,
            );
            rows.push((n, text.to_string(), label.name().to_string(), None));
        }
    }
    rows
}

/// Label confusion, one rule for every label family: the decision keyed
/// `key` (`[model, draw, doc, item]`) comes up at `rate`, and the model
/// then answers a uniform pick from `all`, keyed the same with `pick_draw`
/// as its draw and stepped past `label`, so a confusion always changes
/// the label.
fn maybe_confuse<T: Copy + PartialEq>(
    seed: u64,
    key: [&str; 4],
    pick_draw: &str,
    rate: f64,
    all: &[T],
    label: T,
) -> T {
    if !decide(seed, &key, rate) {
        return label;
    }
    let [model, _, doc, item] = key;
    let mut i = pick(seed, &[model, pick_draw, doc, item], all.len());
    if all.get(i) == Some(&label) {
        i = (i + 1) % all.len().max(1);
    }
    all.get(i).copied().unwrap_or(label)
}

// ---------------------------------------------------------------------------
// Rights (choices + access)
// ---------------------------------------------------------------------------

/// Classify one line's user-choice practices.
pub fn classify_choices(text: &str) -> Vec<ChoiceLabel> {
    let t = text.to_lowercase();
    let has = |needle: &str| t.contains(needle);
    let mut out = Vec::new();
    let opt_out = has("opt out") || has("opt-out");
    if opt_out && (has("contact us") || has("privacy@") || has("email us")) {
        out.push(ChoiceLabel::OptOutViaContact);
    } else if opt_out && (has("unsubscribe") || has("click") || has("link")) {
        out.push(ChoiceLabel::OptOutViaLink);
    }
    if has("privacy settings") || has("through your account settings") {
        out.push(ChoiceLabel::PrivacySettings);
    }
    if has("obtain your consent") || has("prior consent") || has("with your consent before") {
        out.push(ChoiceLabel::OptIn);
    }
    if has("discontinue use") || (has("do not agree") && has("use")) || has("not use our services")
    {
        out.push(ChoiceLabel::DoNotUse);
    }
    out
}

/// Classify one line's user-access practices.
pub fn classify_access(text: &str) -> Vec<AccessLabel> {
    let t = text.to_lowercase();
    let has = |needle: &str| t.contains(needle);
    let mut out = Vec::new();
    if has("update or correct")
        || has("modify, correct")
        || has("correct your personal")
        || has("update certain of your personal")
        || has("update your personal information through")
    {
        out.push(AccessLabel::Edit);
    }
    if has("delete your account and all") || (has("delete") && has("all associated")) {
        out.push(AccessLabel::FullDelete);
    }
    if has("access to review") || has("access to view") || has("request access to") {
        out.push(AccessLabel::View);
    }
    if has("copy of your personal information") || has("machine-readable") || has("portable") {
        out.push(AccessLabel::Export);
    }
    if has("deletion of certain") || (has("delete") && has("retain some")) {
        out.push(AccessLabel::PartialDelete);
    }
    if has("deactivate") {
        out.push(AccessLabel::Deactivate);
    }
    out
}

/// Annotate user choices/access practices. `doc` is the input's
/// [`doc_key`].
pub fn run_annotate_rights(
    profile: &ModelProfile,
    seed: u64,
    doc: &str,
    input: &str,
) -> Vec<RightsRow> {
    let mut rows = Vec::new();
    for (n, text) in parse_numbered(input) {
        let mut produced = false;
        for (idx, label) in classify_choices(text).into_iter().enumerate() {
            produced = true;
            let label = maybe_confuse(
                seed,
                [&profile.id, "rconfuse-c", doc, &format!("{n}:{idx}")],
                "rpick-c",
                profile.rights_confusion,
                &ChoiceLabel::ALL,
                label,
            );
            rows.push((n, text.to_string(), label.name().to_string()));
        }
        for (idx, label) in classify_access(text).into_iter().enumerate() {
            produced = true;
            let label = maybe_confuse(
                seed,
                [&profile.id, "rconfuse-a", doc, &format!("{n}:{idx}")],
                "rpick-a",
                profile.rights_confusion,
                &AccessLabel::ALL,
                label,
            );
            rows.push((n, text.to_string(), label.name().to_string()));
        }
        // Spurious "Do not use": boilerplate containing negations is the
        // category the paper found hardest to annotate accurately.
        let lower = text.to_lowercase();
        if !produced
            && (lower.contains("not ") || lower.contains("only "))
            && decide(
                seed,
                &[&profile.id, "spur-dnu", doc, &n.to_string()],
                profile.spurious_do_not_use,
            )
        {
            rows.push((
                n,
                text.to_string(),
                ChoiceLabel::DoNotUse.name().to_string(),
            ));
        }
    }
    rows
}

/// The `to_lowercase().contains` classifier the cue automaton replaces,
/// kept verbatim as the differential oracle:
/// `tests::cue_classifier_equals_contains_oracle*` require the cue-bitset
/// classifier to reproduce it exactly on arbitrary lines.
#[cfg(test)]
mod legacy {
    use super::*;

    pub fn classify_line(text: &str) -> Vec<Aspect> {
        let t = text.to_lowercase();
        let has = |needle: &str| t.contains(needle);
        let mut aspects = Vec::new();

        if has("retain")
            || has("retention")
            || has("indefinitely")
            || has("safeguard")
            || has("encrypt")
            || has("need to know")
            || has("privacy program")
            || has("two-factor")
            || has("audited")
        {
            aspects.push(Aspect::Handling);
        }
        if has("opt out")
            || has("opt-out")
            || has("consent")
            || has("update or correct")
            || has("delete your account")
            || has("access to review")
            || has("copy of your")
            || has("deactivate")
            || has("privacy settings")
            || has("deletion of certain")
            || has("discontinue use")
        {
            aspects.push(Aspect::Rights);
        }
        if has("share") || has("disclos") || has("unaffiliated") || has("third part") {
            aspects.push(Aspect::Sharing);
        }
        if has("update this policy")
            || has("changes to this")
            || has("revise the date")
            || has("material update")
        {
            aspects.push(Aspect::Changes);
        }
        if has("california") || has("minors") || has("children") || has("european") {
            aspects.push(Aspect::Audiences);
        }
        if has("how we collect") || has("obtain information directly") || has("automated technolog")
        {
            aspects.push(Aspect::Methods);
        }
        let vocab = scan_line_dual(text);
        if !vocab.datatypes.is_empty()
            || has("we collect")
            || has("we may collect")
            || has("categories of personal information")
            || has("information we collect includes")
        {
            aspects.push(Aspect::Types);
        }
        if !vocab.purposes.is_empty() || has("we use the information") || has("following purposes")
        {
            aspects.push(Aspect::Purposes);
        }
        if aspects.is_empty() {
            aspects.push(Aspect::Other);
        }
        aspects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::number_lines;
    use proptest::prelude::*;

    fn oracle() -> ModelProfile {
        ModelProfile::oracle()
    }

    /// Every cue of [`LINE_RULES`], some in upper case, next to
    /// vocabulary, `İ` (U+0130, lower-cases to `i` plus a combining dot),
    /// `K` (U+212A, lower-cases to `k`) and other non-ASCII letters.
    const CUE_WORDS: &[&str] = &[
        "retain",
        "Retention",
        "INDEFINITELY",
        "safeguard",
        "encrypt",
        "need to know",
        "need to \u{212a}now",
        "privacy program",
        "two-factor",
        "audited",
        "opt out",
        "Opt-Out",
        "consent",
        "update or correct",
        "delete your account",
        "access to review",
        "copy of your",
        "deactivate",
        "privacy settings",
        "deletion of certain",
        "discontinue use",
        "share",
        "disclos",
        "unaffiliated",
        "third part",
        "update this policy",
        "changes to this",
        "revise the date",
        "material update",
        "california",
        "minors",
        "children",
        "european",
        "how we collect",
        "obtain information directly",
        "automated technolog",
        "we collect",
        "we may collect",
        "categories of personal information",
        "information we collect includes",
        "we use the information",
        "following purposes",
        "email address",
        "analytics",
        "fraud prevention",
        "\u{130}",
        "\u{130}2",
        "\u{212a}",
        "\u{1e9e}",
        "é",
        "中",
    ];

    /// A word pool for stitched lines: [`CUE_WORDS`] (none has a regex
    /// metacharacter) plus separators and noise.
    fn cue_pool() -> String {
        format!("({}| |, |\\.|[a-z]{{1,6}}|.{{0,6}})", CUE_WORDS.join("|"))
    }

    /// The cue-bitset classifier against its `contains` oracle on `line`.
    fn same_as_oracle(line: &str) -> Result<(), String> {
        prop_assert_eq!(
            classify_line(line),
            legacy::classify_line(line),
            "line {:?}",
            line
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn cue_classifier_equals_contains_oracle(
            words in proptest::collection::vec(cue_pool(), 0..12)
        ) {
            // Every suffix, spaced and run together: a dozen lines a case.
            for start in 0..=words.len() {
                let tail = words.get(start..).unwrap_or_default();
                same_as_oracle(&tail.concat())?;
                same_as_oracle(&tail.join(" "))?;
            }
        }

        #[test]
        fn cue_classifier_equals_contains_oracle_arbitrary(line in ".{0,160}") {
            same_as_oracle(&line)?;
        }
    }

    #[test]
    fn cue_classifier_equals_contains_oracle_on_every_pair() {
        for a in CUE_WORDS {
            for b in CUE_WORDS {
                for line in [format!("{a} {b}"), format!("{a}{b}")] {
                    if let Err(e) = same_as_oracle(&line) {
                        panic!("{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn cues_that_only_unicode_lowercasing_reveals() {
        // `K` (Kelvin sign) lower-cases to `k`: "\u{212a}NOW" reads "know".
        let line = "Access is limited to staff with a NEED TO \u{212a}NOW.";
        assert_eq!(classify_line(line), [Aspect::Handling]);
        for line in [
            line,
            "We retain your data for \u{130}2 years.",
            "We retain your data for \u{130}2 years.\u{212a}",
            "WE SHARE \u{130}T WITH THIRD PARTIES",
        ] {
            if let Err(e) = same_as_oracle(line) {
                panic!("{e}");
            }
        }
    }

    #[test]
    fn parse_numbered_roundtrip() {
        let doc = number_lines(["alpha", "beta"]);
        assert_eq!(
            parse_numbered(&doc).collect::<Vec<_>>(),
            [(1, "alpha"), (2, "beta")]
        );
        assert_eq!(parse_numbered("no brackets here").count(), 0);
        assert_eq!(
            parse_numbered("[7] seven\njunk\n[ 9 ]   nine  \r\n").collect::<Vec<_>>(),
            [(7, "seven"), (9, "nine")]
        );
    }

    #[test]
    fn heading_classification() {
        assert_eq!(
            classify_heading("Information We Collect"),
            vec![Aspect::Types]
        );
        assert_eq!(
            classify_heading("How We Collect Information"),
            vec![Aspect::Methods]
        );
        assert_eq!(
            classify_heading("How We Use Your Information"),
            vec![Aspect::Purposes]
        );
        assert_eq!(
            classify_heading("Data Retention and Security"),
            vec![Aspect::Handling]
        );
        assert_eq!(
            classify_heading("How We Share Your Information"),
            vec![Aspect::Sharing]
        );
        assert_eq!(
            classify_heading("Your Rights and Choices"),
            vec![Aspect::Rights]
        );
        assert_eq!(
            classify_heading("Specific Audiences"),
            vec![Aspect::Audiences]
        );
        assert_eq!(
            classify_heading("Changes to This Policy"),
            vec![Aspect::Changes]
        );
        assert_eq!(classify_heading("Contact Us"), vec![Aspect::Other]);
        assert_eq!(
            classify_heading("Additional Information"),
            vec![Aspect::Other]
        );
    }

    #[test]
    fn oracle_extraction_finds_planted_and_skips_negated() {
        let doc = number_lines([
            "We may collect your email address and browsing history.",
            "We do not collect biometric data.",
        ]);
        let rows = run_extract_datatypes(&oracle(), 1, &doc_key(&doc), &doc);
        let texts: Vec<&str> = rows.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, vec!["email address", "browsing history"]);
    }

    #[test]
    fn llama_profile_extracts_negated_more_often() {
        let mut negated_hits = 0;
        let llama = ModelProfile::llama31();
        for i in 0..200 {
            let doc = format!("[1] policy {i}\n[2] We do not collect biometric data.\n");
            let rows = run_extract_datatypes(&llama, 5, &doc_key(&doc), &doc);
            if rows.iter().any(|(_, t)| t == "biometric data") {
                negated_hits += 1;
            }
        }
        let rate = negated_hits as f64 / 200.0;
        assert!((rate - llama.negation_error).abs() < 0.12, "rate {rate}");
    }

    #[test]
    fn normalization_maps_synonyms_and_zero_shot() {
        let input = number_lines(["mailing address", "podcast listening habits", "blorfable"]);
        let rows = run_normalize_datatypes(&oracle(), 2, &doc_key(&input), &input);
        assert_eq!(rows[0].1, "postal address");
        assert_eq!(rows[0].2, "Contact info");
        assert_eq!(rows[1].1, "podcast listening habits");
        assert_eq!(rows[1].2, "Content consumption");
        // Unknown term: open descriptor, some category guessed.
        assert_eq!(rows[2].1, "blorfable");
        assert!(aipan_taxonomy::DataTypeCategory::from_name(&rows[2].2).is_some());
    }

    #[test]
    fn purposes_annotated_with_categories() {
        let doc = number_lines(["We use your information to prevent fraud and for analytics."]);
        let rows = run_annotate_purposes(&oracle(), 3, &doc_key(&doc), &doc);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|r| r.2 == "fraud prevention" && r.3 == "Security"));
        assert!(rows
            .iter()
            .any(|r| r.2 == "analytics" && r.3 == "Analytics & research"));
    }

    #[test]
    fn retention_classification() {
        assert_eq!(
            classify_retention(
                "We retain your personal information only for as long as necessary to fulfill."
            ),
            Some((RetentionLabel::Limited, None))
        );
        assert_eq!(
            classify_retention("We retain your personal information for two (2) years after."),
            Some((RetentionLabel::Stated, Some("2 years".to_string())))
        );
        assert_eq!(
            classify_retention("Certain records may be retained indefinitely where permitted."),
            Some((RetentionLabel::Indefinitely, None))
        );
        assert_eq!(classify_retention("We like dogs."), None);
    }

    #[test]
    fn period_parsing_forms() {
        assert_eq!(
            parse_period("for two (2) years after"),
            Some("2 years".to_string())
        );
        assert_eq!(parse_period("for 90 days"), Some("90 days".to_string()));
        assert_eq!(parse_period("six (6) months"), Some("6 months".to_string()));
        assert_eq!(
            parse_period("fifty (50) years"),
            Some("50 years".to_string())
        );
        assert_eq!(parse_period("for a while"), None);
    }

    #[test]
    fn protection_classification() {
        use ProtectionLabel::*;
        let cases: [(&str, ProtectionLabel); 7] = [
            (
                "We maintain commercially reasonable safeguards designed to protect.",
                Generic,
            ),
            (
                "Access restricted to personnel with a need to know.",
                AccessLimit,
            ),
            (
                "Protected in transit using Secure Socket Layer (SSL) encryption.",
                SecureTransfer,
            ),
            (
                "Stored in encrypted databases in controlled facilities.",
                SecureStorage,
            ),
            (
                "We maintain a comprehensive privacy program.",
                PrivacyProgram,
            ),
            (
                "Practices are regularly reviewed and audited.",
                PrivacyReview,
            ),
            ("We offer two-factor authentication.", SecureAuthentication),
        ];
        for (text, expected) in cases {
            let got = classify_protection(text);
            assert!(
                got.contains(&expected),
                "{text:?} → {got:?}, want {expected:?}"
            );
        }
        assert!(classify_protection("We like dogs.").is_empty());
    }

    #[test]
    fn choices_and_access_classification() {
        assert_eq!(
            classify_choices("To opt out of marketing, please contact us at privacy@x.com."),
            vec![ChoiceLabel::OptOutViaContact]
        );
        assert_eq!(
            classify_choices("You may opt out by clicking the unsubscribe link."),
            vec![ChoiceLabel::OptOutViaLink]
        );
        assert_eq!(
            classify_choices("Manage your choices through the privacy settings page."),
            vec![ChoiceLabel::PrivacySettings]
        );
        assert_eq!(
            classify_choices("We will obtain your consent before we collect."),
            vec![ChoiceLabel::OptIn]
        );
        assert_eq!(
            classify_choices("Your sole remedy is to discontinue use of the feature."),
            vec![ChoiceLabel::DoNotUse]
        );
        assert_eq!(
            classify_access("You may update or correct your personal information."),
            vec![AccessLabel::Edit]
        );
        assert_eq!(
            classify_access("Request that we delete your account and all associated data."),
            vec![AccessLabel::FullDelete]
        );
        assert_eq!(
            classify_access("You may request access to review the information we hold."),
            vec![AccessLabel::View]
        );
        assert_eq!(
            classify_access("Request a copy of your personal information in a portable format."),
            vec![AccessLabel::Export]
        );
        assert_eq!(
            classify_access(
                "Request deletion of certain personal information; we may retain some."
            ),
            vec![AccessLabel::PartialDelete]
        );
        assert_eq!(
            classify_access("You may deactivate your account at any time."),
            vec![AccessLabel::Deactivate]
        );
    }

    #[test]
    fn oracle_rights_has_no_spurious_do_not_use() {
        let doc = number_lines([
            "We will not discriminate against you for exercising any right.",
            "Our services are not directed to minors.",
        ]);
        let rows = run_annotate_rights(&oracle(), 7, &doc_key(&doc), &doc);
        assert!(
            rows.is_empty(),
            "oracle must not produce spurious rows: {rows:?}"
        );
    }

    #[test]
    fn gpt4_produces_spurious_do_not_use_at_low_rate() {
        let gpt4 = ModelProfile::gpt4_turbo();
        let mut spurious = 0;
        for i in 0..300 {
            let doc = format!(
                "[1] policy variant {i}\n[2] We will not discriminate against you for exercising any right.\n"
            );
            let rows = run_annotate_rights(&gpt4, 11, &doc_key(&doc), &doc);
            if rows.iter().any(|r| r.2 == "Do not use") {
                spurious += 1;
            }
        }
        let rate = spurious as f64 / 300.0;
        assert!(
            (rate - gpt4.spurious_do_not_use).abs() < 0.06,
            "spurious do-not-use rate {rate}"
        );
    }

    #[test]
    fn segmentation_classifies_core_lines() {
        let lines = [
            (
                "We retain your data for as long as necessary.",
                Aspect::Handling,
            ),
            ("You may opt out by contacting us.", Aspect::Rights),
            ("We may collect your email address.", Aspect::Types),
            ("We use data for fraud prevention.", Aspect::Purposes),
            ("We may share records with third parties.", Aspect::Sharing),
            (
                "California residents have additional rights.",
                Aspect::Audiences,
            ),
            (
                "We may update this policy from time to time.",
                Aspect::Changes,
            ),
            ("Thank you for visiting.", Aspect::Other),
        ];
        for (text, expected) in lines {
            let got = classify_line(text);
            assert!(
                got.contains(&expected),
                "{text:?} → {got:?}, want {expected:?}"
            );
        }
    }

    #[test]
    fn deterministic_outputs() {
        let doc = number_lines(["We collect your name and ip address for analytics."]);
        let gpt4 = ModelProfile::gpt4_turbo();
        let key = doc_key(&doc);
        assert_eq!(
            run_extract_datatypes(&gpt4, 13, &key, &doc),
            run_extract_datatypes(&gpt4, 13, &key, &doc)
        );
        assert_eq!(
            run_annotate_purposes(&gpt4, 13, &key, &doc),
            run_annotate_purposes(&gpt4, 13, &key, &doc)
        );
    }
}
