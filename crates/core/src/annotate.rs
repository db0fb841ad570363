//! Per-aspect annotation with full-text fallback and hallucination
//! verification (§3.2.2).
//!
//! Each studied aspect is annotated from its own section text; if that
//! yields nothing, the task re-runs over the **entire** text (the fallback
//! the paper activates for 708 of 2545 policies). Every resulting
//! annotation then passes the programmatic check that its verbatim text is
//! actually present in the policy — fabricated (hallucinated) mentions are
//! dropped and counted.

use crate::segment::SegmentedPolicy;
use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
use aipan_chatbot::{protocol, Chatbot};
use aipan_html::ExtractedDoc;
use aipan_taxonomy::records::{Annotation, AnnotationPayload, AspectKind};
use aipan_taxonomy::{
    AccessLabel, Aspect, ChoiceLabel, DataTypeCategory, ProtectionLabel, PurposeCategory,
    RetentionLabel,
};
use aipan_textindex::{fold_into, FoldArena, FoldedDoc};

/// Annotation options (the §3.2.2 ablations in `tests/ablations.rs` turn
/// `fallback` and `verify` off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotateOptions {
    /// Whether to fall back to the full text when a section yields nothing
    /// (§3.2.2).
    pub fallback: bool,
    /// Whether to run the verbatim hallucination check.
    pub verify: bool,
    /// Bounded re-prompt budget: how many times a task is re-issued when
    /// the completion is not well-formed JSON (refusal, truncation,
    /// malformed prefix). `0` disables re-prompting.
    pub reprompt_retries: u32,
}

impl Default for AnnotateOptions {
    fn default() -> Self {
        AnnotateOptions {
            fallback: true,
            verify: true,
            reprompt_retries: 2,
        }
    }
}

/// The result of annotating one policy.
#[derive(Debug, Clone)]
pub struct AnnotationOutcome {
    /// Verified annotations (all aspects), deduplicated per §3.2's
    /// "unique annotations" rule.
    pub annotations: Vec<Annotation>,
    /// Aspects for which the full-text fallback was activated.
    pub fallbacks: Vec<AspectKind>,
    /// Hallucinated annotations removed by the verbatim check.
    pub hallucinations_removed: usize,
    /// Re-prompts issued because a completion was not well-formed JSON
    /// (each is one extra chatbot call within the bounded retry budget).
    pub reprompts: usize,
}

impl AnnotationOutcome {
    /// Annotations belonging to one aspect stream.
    pub fn for_aspect(&self, kind: AspectKind) -> impl Iterator<Item = &Annotation> {
        self.annotations
            .iter()
            .filter(move |a| a.aspect_kind() == kind)
    }

    /// Whether any annotation exists for `kind`.
    pub fn has_aspect(&self, kind: AspectKind) -> bool {
        self.for_aspect(kind).next().is_some()
    }
}

/// Annotate a segmented policy with default options.
pub fn annotate_policy(
    chatbot: &dyn Chatbot,
    doc: &ExtractedDoc,
    seg: &SegmentedPolicy,
) -> AnnotationOutcome {
    annotate_policy_with(chatbot, doc, seg, AnnotateOptions::default())
}

/// Reusable per-worker scratch for [`annotate_policy_in`]: the rendered
/// full-text prompt input and the [`FoldArena`] backing the policy's
/// [`FoldedDoc`]. One arena threaded through a worker's policies means the
/// two largest per-policy allocations happen once per worker, sized by the
/// largest policy, instead of once per policy.
#[derive(Debug, Default)]
pub struct AnnotateArena {
    full_text: String,
    fold: FoldArena,
}

impl AnnotateArena {
    /// An empty arena (first use allocates like [`annotate_policy_with`]).
    pub fn new() -> AnnotateArena {
        AnnotateArena::default()
    }
}

/// Annotate a segmented policy with explicit options.
pub fn annotate_policy_with(
    chatbot: &dyn Chatbot,
    doc: &ExtractedDoc,
    seg: &SegmentedPolicy,
    options: AnnotateOptions,
) -> AnnotationOutcome {
    annotate_policy_in(chatbot, doc, seg, options, &mut AnnotateArena::new())
}

/// [`annotate_policy_with`], with the scratch buffers drawn from (and
/// returned to) `arena`. The outcome is identical; only the allocation
/// pattern differs.
pub fn annotate_policy_in(
    chatbot: &dyn Chatbot,
    doc: &ExtractedDoc,
    seg: &SegmentedPolicy,
    options: AnnotateOptions,
    arena: &mut AnnotateArena,
) -> AnnotationOutcome {
    // Rough upper bound: a handful of annotations per document line.
    let mut annotations = Vec::with_capacity(doc.lines.len());
    let mut fallbacks = Vec::new();
    let mut reprompts = 0usize;

    protocol::number_lines_into(
        &mut arena.full_text,
        doc.lines.iter().map(|l| l.text.as_str()),
    );
    let full_text_input: &str = &arena.full_text;
    // Fold the policy exactly once; every verbatim-presence check below
    // looks in this buffer, on the row's cited line first.
    let folded_policy =
        FoldedDoc::from_lines_in(&mut arena.fold, doc.lines.iter().map(|l| l.text.as_str()));

    // --- Data types: extract (section → fallback), then normalize. ---
    let (mut rows, used_fallback) = extract_with_fallback(
        chatbot,
        TaskKind::ExtractDataTypes,
        seg.text_for(Aspect::Types, doc),
        full_text_input,
        &options,
        &mut reprompts,
        protocol::parse_extractions,
    );
    if used_fallback {
        fallbacks.push(AspectKind::Types);
    }
    // Verify verbatim presence before normalization (the paper's
    // hallucination check).
    let before = rows.len();
    if options.verify {
        let present =
            folded_policy.verify_batch(rows.iter().map(|(line, text)| (*line, text.as_str())));
        let mut idx = 0;
        rows.retain(|_| {
            let keep = present.get(idx).copied().unwrap_or(false);
            idx += 1;
            keep
        });
    }
    let mut hallucinations_removed = before - rows.len();

    if !rows.is_empty() {
        // Unique mention texts, order-preserving (hash-set guarded; the
        // index also serves the descriptor join below).
        let mut unique: Vec<String> = Vec::with_capacity(rows.len());
        let mut unique_index: std::collections::HashMap<String, usize> = Default::default();
        for (_, text) in &rows {
            if !unique_index.contains_key(text.as_str()) {
                unique_index.insert(text.clone(), unique.len());
                unique.push(text.clone());
            }
        }
        let norm_input = protocol::number_lines(unique.iter().map(String::as_str));
        let norm_rows = complete_parsed(
            chatbot,
            TaskPrompt::build(TaskKind::NormalizeDataTypes),
            &norm_input,
            options.reprompt_retries,
            &mut reprompts,
            protocol::parse_normalizations,
        );
        // index (1-based) → (descriptor, category)
        let mut normalized: Vec<Option<(String, DataTypeCategory)>> = vec![None; unique.len()];
        for (idx, descriptor, category_name) in norm_rows {
            if idx >= 1 && idx <= unique.len() {
                if let Some(cat) = DataTypeCategory::from_name(&category_name) {
                    normalized[idx - 1] = Some((descriptor, cat));
                }
            }
        }
        for (line, text) in rows {
            let Some(idx) = unique_index.get(text.as_str()).copied() else {
                continue;
            };
            if let Some(Some((descriptor, category))) = normalized.get(idx) {
                annotations.push(Annotation::new(
                    AnnotationPayload::DataType {
                        descriptor: descriptor.clone(),
                        category: *category,
                    },
                    text,
                    line,
                ));
            }
        }
    }

    // --- Purposes. ---
    let (purpose_rows, used_fallback) = extract_with_fallback(
        chatbot,
        TaskKind::AnnotatePurposes,
        seg.text_for(Aspect::Purposes, doc),
        full_text_input,
        &options,
        &mut reprompts,
        protocol::parse_purposes,
    );
    if used_fallback {
        fallbacks.push(AspectKind::Purposes);
    }
    let present = options.verify.then(|| {
        folded_policy.verify_batch(
            purpose_rows
                .iter()
                .map(|(line, text, _, _)| (*line, text.as_str())),
        )
    });
    for (i, (line, text, descriptor, category_name)) in purpose_rows.into_iter().enumerate() {
        if let Some(p) = &present {
            if !p.get(i).copied().unwrap_or(false) {
                hallucinations_removed = hallucinations_removed.saturating_add(1);
                continue;
            }
        }
        if let Some(category) = PurposeCategory::from_name(&category_name) {
            annotations.push(Annotation::new(
                AnnotationPayload::Purpose {
                    descriptor,
                    category,
                },
                text,
                line,
            ));
        }
    }

    // --- Handling. ---
    let (handling_rows, used_fallback) = extract_with_fallback(
        chatbot,
        TaskKind::AnnotateHandling,
        seg.text_for(Aspect::Handling, doc),
        full_text_input,
        &options,
        &mut reprompts,
        protocol::parse_handling,
    );
    if used_fallback {
        fallbacks.push(AspectKind::Handling);
    }
    let present = options.verify.then(|| {
        folded_policy.verify_batch(
            handling_rows
                .iter()
                .map(|(line, text, _, _)| (*line, text.as_str())),
        )
    });
    for (i, (line, text, label_name, period)) in handling_rows.into_iter().enumerate() {
        if let Some(p) = &present {
            if !p.get(i).copied().unwrap_or(false) {
                hallucinations_removed = hallucinations_removed.saturating_add(1);
                continue;
            }
        }
        if let Some(label) = RetentionLabel::from_name(&label_name) {
            let period_days = period.as_deref().and_then(parse_period_days);
            annotations.push(Annotation::new(
                AnnotationPayload::Retention { label, period_days },
                text,
                line,
            ));
        } else if let Some(label) = ProtectionLabel::from_name(&label_name) {
            annotations.push(Annotation::new(
                AnnotationPayload::Protection { label },
                text,
                line,
            ));
        }
    }

    // --- Rights. ---
    let (rights_rows, used_fallback) = extract_with_fallback(
        chatbot,
        TaskKind::AnnotateRights,
        seg.text_for(Aspect::Rights, doc),
        full_text_input,
        &options,
        &mut reprompts,
        protocol::parse_rights,
    );
    if used_fallback {
        fallbacks.push(AspectKind::Rights);
    }
    let present = options.verify.then(|| {
        folded_policy.verify_batch(
            rights_rows
                .iter()
                .map(|(line, text, _)| (*line, text.as_str())),
        )
    });
    for (i, (line, text, label_name)) in rights_rows.into_iter().enumerate() {
        if let Some(p) = &present {
            if !p.get(i).copied().unwrap_or(false) {
                hallucinations_removed = hallucinations_removed.saturating_add(1);
                continue;
            }
        }
        if let Some(label) = ChoiceLabel::from_name(&label_name) {
            annotations.push(Annotation::new(
                AnnotationPayload::Choice { label },
                text,
                line,
            ));
        } else if let Some(label) = AccessLabel::from_name(&label_name) {
            annotations.push(Annotation::new(
                AnnotationPayload::Access { label },
                text,
                line,
            ));
        }
    }

    // Dedup repeated mentions of the same term (Table 1's "unique
    // annotations" rule), keeping the first mention. Data types and
    // purposes dedup by normalized descriptor; handling and rights labels
    // dedup by (label, mention text), since the paper counts each distinct
    // phrasing of a practice.
    let mut seen = std::collections::HashSet::new();
    annotations.retain(|a| {
        let mut key = a.payload.dedup_key();
        if !matches!(
            &a.payload,
            AnnotationPayload::DataType { .. } | AnnotationPayload::Purpose { .. }
        ) {
            key.push('|');
            fold_into(&mut key, &a.text);
        }
        seen.insert(key)
    });

    // Hand the folded buffers back so the next document on this worker
    // reuses their capacity.
    arena.fold.recycle(folded_policy);

    AnnotationOutcome {
        annotations,
        fallbacks,
        hallucinations_removed,
        reprompts,
    }
}

/// Complete `prompt` with a bounded re-prompt loop and parse the answer.
/// Each completion is parsed once: `parse` returns `None` when it is not
/// well-formed protocol output (refusal, truncation, malformed JSON), and
/// the task is re-issued with an incremented attempt number — up to
/// `retries` extra attempts — so transient LLM faults are redrawn. A task
/// still malformed after the budget is spent yields no rows.
fn complete_parsed<T>(
    chatbot: &dyn Chatbot,
    prompt: &TaskPrompt,
    input: &str,
    retries: u32,
    reprompts: &mut usize,
    parse: impl Fn(&str) -> Option<Vec<T>>,
) -> Vec<T> {
    for attempt in 0..=retries {
        if attempt > 0 {
            *reprompts += 1;
        }
        if let Some(rows) = parse(&chatbot.complete_attempt(prompt, input, attempt)) {
            return rows;
        }
    }
    Vec::new()
}

/// Run `task` on the aspect's section text; if it parses to nothing, run it
/// again over the full text. Returns the rows and whether fallback fired.
/// Both calls go through the bounded re-prompt loop, so a transient
/// refusal or truncation does not masquerade as an empty section and
/// needlessly trigger the (much more expensive) full-text fallback.
fn extract_with_fallback<T>(
    chatbot: &dyn Chatbot,
    task: TaskKind,
    section: Vec<(usize, &str)>,
    full_text_input: &str,
    options: &AnnotateOptions,
    reprompts: &mut usize,
    parse: impl Fn(&str) -> Option<Vec<T>>,
) -> (Vec<T>, bool) {
    let prompt = TaskPrompt::build(task);
    if !section.is_empty() {
        let input = protocol::number_lines_with(section);
        let rows = complete_parsed(
            chatbot,
            prompt,
            &input,
            options.reprompt_retries,
            reprompts,
            &parse,
        );
        if !rows.is_empty() || !options.fallback {
            return (rows, false);
        }
    } else if !options.fallback {
        return (Vec::new(), false);
    }
    let rows = complete_parsed(
        chatbot,
        prompt,
        full_text_input,
        options.reprompt_retries,
        reprompts,
        parse,
    );
    (rows, true)
}

/// Convert a normalized "N unit" period string to days; `None` when the
/// string is not a period or the day count does not fit a `u32` (the
/// number is model output: "20000000 years" must not wrap).
pub fn parse_period_days(period: &str) -> Option<u32> {
    let mut parts = period.split_whitespace();
    let n: u32 = parts.next()?.parse().ok()?;
    let unit = parts.next()?;
    match unit {
        "day" | "days" => Some(n),
        "month" | "months" => n.checked_mul(30),
        "year" | "years" => n.checked_mul(365),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment;
    use aipan_chatbot::{ModelProfile, SimulatedChatbot};
    use aipan_html::extract;

    fn oracle() -> SimulatedChatbot {
        SimulatedChatbot::new(ModelProfile::oracle(), 1)
    }

    fn annotate_html(html: &str) -> AnnotationOutcome {
        let bot = oracle();
        let doc = extract(html);
        let seg = segment(&bot, &doc);
        annotate_policy(&bot, &doc, &seg)
    }

    #[test]
    fn full_policy_annotated_across_aspects() {
        let out = annotate_html(
            "<h2>Overview</h2><p>Hello.</p>\
             <h2>Information We Collect</h2>\
             <p>We may collect your email address and mailing address.</p>\
             <h2>How We Use Your Information</h2>\
             <p>We use the information for fraud prevention and analytics.</p>\
             <h2>Data Retention and Security</h2>\
             <p>We retain your personal information for two (2) years after your last visit.</p>\
             <h2>Your Rights and Choices</h2>\
             <p>You may update or correct your personal information.</p>\
             <h2>Changes to This Policy</h2><p>We may revise this.</p>\
             <h2>Contact Us</h2><p>Say hi.</p>",
        );
        assert!(out.has_aspect(AspectKind::Types));
        assert!(out.has_aspect(AspectKind::Purposes));
        assert!(out.has_aspect(AspectKind::Handling));
        assert!(out.has_aspect(AspectKind::Rights));
        assert!(
            out.fallbacks.is_empty(),
            "no fallback expected: {:?}",
            out.fallbacks
        );

        // Normalization: "mailing address" → "postal address".
        let descriptors: Vec<String> = out
            .for_aspect(AspectKind::Types)
            .filter_map(|a| match &a.payload {
                AnnotationPayload::DataType { descriptor, .. } => Some(descriptor.clone()),
                _ => None,
            })
            .collect();
        assert!(descriptors.contains(&"email address".to_string()));
        assert!(descriptors.contains(&"postal address".to_string()));

        // Retention period extracted.
        let period = out
            .for_aspect(AspectKind::Handling)
            .find_map(|a| match a.payload {
                AnnotationPayload::Retention { period_days, .. } => period_days,
                _ => None,
            });
        assert_eq!(period, Some(730));
    }

    #[test]
    fn fallback_fires_when_aspect_inline() {
        // No handling section; retention sentence hides under a generic
        // heading — but enough headings exist for the heading path. The
        // merged segmentation finds it via text analysis; if the section
        // were mislabeled entirely, the annotate fallback would still
        // recover it from the full text.
        let out = annotate_html(
            "<h2>Introduction</h2><p>Hi there.</p>\
             <h2>Information We Collect</h2><p>We collect your name.</p>\
             <h2>How We Use Your Information</h2><p>We use data for analytics.</p>\
             <h2>How We Share Your Information</h2><p>Nothing shared.</p>\
             <h2>Specific Audiences</h2><p>California residents have rights.</p>\
             <h2>Changes to This Policy</h2><p>We may revise the date.</p>\
             <h2>Contact Us</h2>\
             <p>We retain your personal information for as long as necessary to operate.</p>\
             <p>You may update or correct your personal information.</p>",
        );
        assert!(out.has_aspect(AspectKind::Handling));
        assert!(out.has_aspect(AspectKind::Rights));
    }

    #[test]
    fn negated_mentions_not_annotated_by_oracle() {
        let out = annotate_html(
            "<p>We collect your email address.</p>\
             <p>We do not collect biometric data.</p>\
             <p>We use data for analytics.</p>\
             <p>We retain data as long as necessary; we retain it carefully.</p>",
        );
        let descriptors: Vec<String> = out
            .for_aspect(AspectKind::Types)
            .filter_map(|a| match &a.payload {
                AnnotationPayload::DataType { descriptor, .. } => Some(descriptor.clone()),
                _ => None,
            })
            .collect();
        assert!(descriptors.contains(&"email address".to_string()));
        assert!(!descriptors.contains(&"biometric data".to_string()));
    }

    #[test]
    fn hallucinations_removed_by_verification() {
        // A model that fabricates every extraction: verification must strip
        // them all.
        struct Liar;
        impl Chatbot for Liar {
            fn complete(&self, prompt: &TaskPrompt, _input: &str) -> String {
                match prompt.kind {
                    TaskKind::ExtractDataTypes => {
                        protocol::encode_extractions(&[(1, "made up mention".to_string())])
                    }
                    TaskKind::NormalizeDataTypes => protocol::encode_normalizations(&[(
                        1,
                        "made up mention".to_string(),
                        "Contact info".to_string(),
                    )]),
                    _ => "[]".to_string(),
                }
            }
            fn model_id(&self) -> &str {
                "liar"
            }
            fn usage(&self) -> aipan_chatbot::TokenUsage {
                aipan_chatbot::TokenUsage::default()
            }
        }
        let doc = extract("<p>We collect your email address.</p>");
        let seg = segment(&oracle(), &doc);
        let out = annotate_policy(&Liar, &doc, &seg);
        assert!(out.annotations.is_empty());
        assert!(out.hallucinations_removed >= 1);
    }

    #[test]
    fn verification_answers_do_not_depend_on_the_cited_line() {
        // A model that cites line 0 or the wrong line: a mention that is in
        // the policy is kept, one that is not is removed and counted.
        struct MisCiting;
        impl Chatbot for MisCiting {
            fn complete(&self, prompt: &TaskPrompt, _input: &str) -> String {
                match prompt.kind {
                    TaskKind::ExtractDataTypes => protocol::encode_extractions(&[
                        (0, "email address".to_string()),
                        (2, "postal address".to_string()),
                    ]),
                    TaskKind::NormalizeDataTypes => protocol::encode_normalizations(&[(
                        1,
                        "email address".to_string(),
                        "Contact info".to_string(),
                    )]),
                    TaskKind::AnnotatePurposes => protocol::encode_purposes(&[
                        (
                            1,
                            "prevent fraud".to_string(),
                            "fraud prevention".to_string(),
                            "Security".to_string(),
                        ),
                        (
                            0,
                            "verify your identity".to_string(),
                            "identity verification".to_string(),
                            "Security".to_string(),
                        ),
                    ]),
                    _ => "[]".to_string(),
                }
            }
            fn model_id(&self) -> &str {
                "mis-citing"
            }
            fn usage(&self) -> aipan_chatbot::TokenUsage {
                aipan_chatbot::TokenUsage::default()
            }
        }
        let doc =
            extract("<p>We collect your email address.</p><p>We use data to prevent fraud.</p>");
        let seg = segment(&oracle(), &doc);
        let out = annotate_policy(&MisCiting, &doc, &seg);
        let kept: Vec<(usize, &str)> = out
            .annotations
            .iter()
            .map(|a| (a.line, a.text.as_str()))
            .collect();
        assert_eq!(kept, [(0, "email address"), (1, "prevent fraud")]);
        assert_eq!(out.hallucinations_removed, 2);
    }

    #[test]
    fn reprompt_recovers_transient_refusals() {
        // A model that refuses every first attempt but answers correctly on
        // re-prompt: the bounded retry loop must recover every task, and
        // the outcome must record how many re-prompts were spent.
        struct FlakyOracle(SimulatedChatbot);
        impl Chatbot for FlakyOracle {
            fn complete(&self, prompt: &TaskPrompt, input: &str) -> String {
                self.complete_attempt(prompt, input, 0)
            }
            fn complete_attempt(&self, prompt: &TaskPrompt, input: &str, attempt: u32) -> String {
                if attempt == 0 {
                    "I cannot assist with analyzing this document.".to_string()
                } else {
                    self.0.complete(prompt, input)
                }
            }
            fn model_id(&self) -> &str {
                self.0.model_id()
            }
            fn usage(&self) -> aipan_chatbot::TokenUsage {
                self.0.usage()
            }
        }
        let html = "<p>We collect your email address.</p>\
             <p>We use data for analytics.</p>\
             <p>We retain data for two (2) years.</p>\
             <p>You may update or correct your personal information.</p>";
        let flaky = FlakyOracle(oracle());
        let doc = extract(html);
        let seg = segment(&oracle(), &doc);
        let out = annotate_policy(&flaky, &doc, &seg);
        let baseline = annotate_html(html);
        assert_eq!(out.annotations, baseline.annotations);
        assert!(out.reprompts > 0, "retries must be accounted");

        // With the budget disabled, every task sees only the refusal.
        let none = annotate_policy_with(
            &flaky,
            &doc,
            &seg,
            AnnotateOptions {
                reprompt_retries: 0,
                ..AnnotateOptions::default()
            },
        );
        assert!(none.annotations.is_empty());
        assert_eq!(none.reprompts, 0);
    }

    #[test]
    fn repeated_mentions_deduplicated() {
        let out = annotate_html(
            "<p>We collect your email address when you register.</p>\
             <p>Your email address is also collected at checkout.</p>",
        );
        let emails = out
            .for_aspect(AspectKind::Types)
            .filter(|a| matches!(&a.payload, AnnotationPayload::DataType { descriptor, .. } if descriptor == "email address"))
            .count();
        assert_eq!(emails, 1, "same term must be deduplicated");
    }

    #[test]
    fn period_days_parsing() {
        assert_eq!(parse_period_days("2 years"), Some(730));
        assert_eq!(parse_period_days("90 days"), Some(90));
        assert_eq!(parse_period_days("6 months"), Some(180));
        assert_eq!(parse_period_days("soon"), None);
        assert_eq!(parse_period_days(""), None);
        // Day counts past `u32::MAX` are not periods, not wrapped values.
        assert_eq!(parse_period_days("20000000 years"), None);
        assert_eq!(parse_period_days("143165577 months"), None);
        assert_eq!(parse_period_days("11767033 years"), Some(4_294_967_045));
        assert_eq!(parse_period_days("4294967295 days"), Some(u32::MAX));
    }

    #[test]
    fn absurd_stated_period_is_kept_without_a_day_count() {
        // The model reports the period as stated; its day count overflows
        // a `u32`, so the annotation keeps its label and drops the count.
        let out = annotate_html(
            "<p>We retain your personal information for 20000000 years after your last visit.</p>",
        );
        let retention: Vec<(RetentionLabel, Option<u32>)> = out
            .for_aspect(AspectKind::Handling)
            .filter_map(|a| match a.payload {
                AnnotationPayload::Retention { label, period_days } => Some((label, period_days)),
                _ => None,
            })
            .collect();
        assert_eq!(retention, [(RetentionLabel::Stated, None)]);
    }

    #[test]
    fn zero_shot_terms_flow_through_open_vocabulary() {
        let out = annotate_html(
            "<p>We collect your email address and analyze podcast listening habits.</p>",
        );
        let descriptors: Vec<String> = out
            .for_aspect(AspectKind::Types)
            .filter_map(|a| match &a.payload {
                AnnotationPayload::DataType { descriptor, .. } => Some(descriptor.clone()),
                _ => None,
            })
            .collect();
        assert!(descriptors.contains(&"podcast listening habits".to_string()));
    }
}
