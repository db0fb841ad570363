//! Two-step policy segmentation (Appendix B).
//!
//! **Step 1 — heading-based.** Headings are detected from the extracted
//! lines (`<h1>`–`<h6>` plus bold-on-own-line, via `aipan-html`). If a page
//! has more than five headings, a table of contents (indented by heading
//! rank) is labeled by the chatbot, and every body line is assigned the
//! aspects of its nearest preceding heading.
//!
//! **Step 2 — text analysis.** If step 1 is inapplicable (five or fewer
//! headings) or yields no text for one of the four studied aspects, the
//! entire text is fed to the chatbot's segmentation task and the per-line
//! labels are merged in (step-1 assignments keep priority for the aspects
//! they found).

use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
use aipan_chatbot::{protocol, Chatbot};
use aipan_html::{ExtractedDoc, LineKind};
use aipan_taxonomy::records::AspectKind;
use aipan_taxonomy::Aspect;
use std::collections::BTreeMap;

/// Minimum heading count for the heading-based path ("If a page contains
/// more than five headings…").
pub const MIN_HEADINGS: usize = 6;

/// How a policy was segmented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Heading-based (Appendix B step 1).
    Headings,
    /// Whole-text analysis (Appendix B step 2), possibly merged on top of a
    /// partial heading-based result.
    TextAnalysis,
}

/// A segmented policy: per-aspect line assignments over the extracted doc.
#[derive(Debug, Clone)]
pub struct SegmentedPolicy {
    /// For each aspect, the (1-based) line numbers assigned to it,
    /// ascending.
    pub aspect_lines: BTreeMap<Aspect, Vec<usize>>,
    /// Which path produced the segmentation.
    pub method: Method,
}

impl SegmentedPolicy {
    /// A degenerate segmentation assigning every line to every studied
    /// aspect (the no-segmentation ablation: each task reads the whole
    /// text).
    pub fn whole_text(doc: &ExtractedDoc) -> SegmentedPolicy {
        let all: Vec<usize> = (1..=doc.lines.len()).collect();
        let mut aspect_lines = BTreeMap::new();
        for aspect in [
            Aspect::Types,
            Aspect::Purposes,
            Aspect::Handling,
            Aspect::Rights,
        ] {
            aspect_lines.insert(aspect, all.clone());
        }
        SegmentedPolicy {
            aspect_lines,
            method: Method::TextAnalysis,
        }
    }

    /// Line numbers for `aspect` (empty if none).
    pub fn lines_for(&self, aspect: Aspect) -> &[usize] {
        self.aspect_lines
            .get(&aspect)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Non-heading text lines for `aspect`, as (line number, text) pairs.
    pub fn text_for<'d>(&self, aspect: Aspect, doc: &'d ExtractedDoc) -> Vec<(usize, &'d str)> {
        self.lines_for(aspect)
            .iter()
            .filter_map(|&n| {
                let line = doc.lines.get(n - 1)?;
                if matches!(line.kind, LineKind::Heading(_)) {
                    None
                } else {
                    Some((n, line.text.as_str()))
                }
            })
            .collect()
    }

    /// Whether the extraction is *successful* per §3.2.1: text exists for
    /// some aspect other than audiences, changes, or other.
    pub fn is_successful_extraction(&self, doc: &ExtractedDoc) -> bool {
        [
            Aspect::Types,
            Aspect::Methods,
            Aspect::Purposes,
            Aspect::Handling,
            Aspect::Sharing,
            Aspect::Rights,
        ]
        .iter()
        .any(|&a| !self.text_for(a, doc).is_empty())
    }

    /// Word count over the policy's core aspects (excluding audiences,
    /// changes, other — the measure behind the paper's 2671-word median).
    pub fn core_word_count(&self, doc: &ExtractedDoc) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut words = 0usize;
        for &aspect in &[
            Aspect::Types,
            Aspect::Methods,
            Aspect::Purposes,
            Aspect::Handling,
            Aspect::Sharing,
            Aspect::Rights,
        ] {
            for &n in self.lines_for(aspect) {
                if seen.insert(n) {
                    if let Some(line) = doc.lines.get(n - 1) {
                        words += line.word_count();
                    }
                }
            }
        }
        words
    }

    /// Whether any of the four annotated aspects has no text.
    pub fn missing_studied_aspect(&self, doc: &ExtractedDoc) -> bool {
        [
            AspectKind::Types,
            AspectKind::Purposes,
            AspectKind::Handling,
            AspectKind::Rights,
        ]
        .iter()
        .any(|k| self.text_for(aspect_of(*k), doc).is_empty())
    }
}

fn aspect_of(kind: AspectKind) -> Aspect {
    match kind {
        AspectKind::Types => Aspect::Types,
        AspectKind::Purposes => Aspect::Purposes,
        AspectKind::Handling => Aspect::Handling,
        AspectKind::Rights => Aspect::Rights,
    }
}

/// Segment `doc` using the two-step process.
pub fn segment(chatbot: &dyn Chatbot, doc: &ExtractedDoc) -> SegmentedPolicy {
    let heading_lines: Vec<(usize, &aipan_html::Line)> = doc
        .lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l.kind {
            LineKind::Heading(_) => Some((i + 1, l)),
            LineKind::Text => None,
        })
        .collect();

    let heading_seg = if heading_lines.len() >= MIN_HEADINGS {
        Some(segment_by_headings(chatbot, doc, &heading_lines))
    } else {
        None
    };

    match heading_seg {
        Some(seg) if !seg.missing_studied_aspect(doc) => seg,
        Some(seg) => merge(seg, segment_by_text(chatbot, doc), doc),
        None => segment_by_text(chatbot, doc),
    }
}

/// Step 1: label the table of contents, assign body lines to the nearest
/// preceding heading.
fn segment_by_headings(
    chatbot: &dyn Chatbot,
    doc: &ExtractedDoc,
    headings: &[(usize, &aipan_html::Line)],
) -> SegmentedPolicy {
    // Build the TOC preserving original line numbers (the hierarchy implied
    // by heading ranks is cosmetic for the simulated model).
    let toc_input =
        protocol::number_lines_with(headings.iter().map(|(n, line)| (*n, line.text.as_str())));
    let prompt = TaskPrompt::build(TaskKind::LabelHeadings);
    let output = chatbot.complete(prompt, &toc_input);
    // A malformed completion labels nothing (every line falls to `other`).
    let labels = protocol::parse_labels(&output).unwrap_or_default();
    let label_map: BTreeMap<usize, Vec<Aspect>> = labels.into_iter().collect();

    let mut aspect_lines: BTreeMap<Aspect, Vec<usize>> = BTreeMap::new();
    let mut current: &[Aspect] = &[Aspect::Other];
    for (idx, line) in doc.lines.iter().enumerate() {
        let n = idx + 1;
        if matches!(line.kind, LineKind::Heading(_)) {
            current = label_map
                .get(&n)
                .map(Vec::as_slice)
                .unwrap_or(&[Aspect::Other]);
        }
        for &aspect in current {
            aspect_lines.entry(aspect).or_default().push(n);
        }
    }
    SegmentedPolicy {
        aspect_lines,
        method: Method::Headings,
    }
}

/// Step 2: whole-text line labeling.
fn segment_by_text(chatbot: &dyn Chatbot, doc: &ExtractedDoc) -> SegmentedPolicy {
    let input = protocol::number_lines(doc.lines.iter().map(|l| l.text.as_str()));
    let prompt = TaskPrompt::build(TaskKind::SegmentText);
    let output = chatbot.complete(prompt, &input);
    let mut aspect_lines: BTreeMap<Aspect, Vec<usize>> = BTreeMap::new();
    // The model's line numbers are input: keep only lines the doc has.
    let lines = 1..=doc.lines.len();
    for (n, aspects) in protocol::parse_labels(&output).unwrap_or_default() {
        if !lines.contains(&n) {
            continue;
        }
        for aspect in aspects {
            aspect_lines.entry(aspect).or_default().push(n);
        }
    }
    for lines in aspect_lines.values_mut() {
        lines.sort_unstable();
        lines.dedup();
    }
    SegmentedPolicy {
        aspect_lines,
        method: Method::TextAnalysis,
    }
}

/// Merge: keep the heading-based assignment for aspects it found; take the
/// text-analysis assignment for aspects it missed.
fn merge(
    heading_seg: SegmentedPolicy,
    text_seg: SegmentedPolicy,
    doc: &ExtractedDoc,
) -> SegmentedPolicy {
    let mut merged = heading_seg;
    for (aspect, lines) in text_seg.aspect_lines {
        if merged.text_for(aspect, doc).is_empty() {
            merged.aspect_lines.insert(aspect, lines);
        }
    }
    merged.method = Method::TextAnalysis;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_chatbot::{ModelProfile, SimulatedChatbot};
    use aipan_html::extract;

    fn oracle() -> SimulatedChatbot {
        SimulatedChatbot::new(ModelProfile::oracle(), 1)
    }

    fn heading_policy_html() -> String {
        "<h2>Introduction</h2><p>Welcome to our policy.</p>\
         <h2>Information We Collect</h2><p>We collect your email address.</p>\
         <h2>How We Use Your Information</h2><p>We use data for analytics.</p>\
         <h2>Data Retention and Security</h2><p>We retain data for as long as necessary.</p>\
         <h2>Your Rights and Choices</h2><p>You may update or correct your information.</p>\
         <h2>Changes to This Policy</h2><p>We may update this policy.</p>\
         <h2>Contact Us</h2><p>Reach out any time.</p>"
            .to_string()
    }

    #[test]
    fn heading_segmentation_assigns_bodies() {
        let doc = extract(&heading_policy_html());
        assert!(doc.heading_count() >= MIN_HEADINGS);
        let seg = segment(&oracle(), &doc);
        assert_eq!(seg.method, Method::Headings);
        let types = seg.text_for(Aspect::Types, &doc);
        assert_eq!(types.len(), 1);
        assert!(types[0].1.contains("email address"));
        let rights = seg.text_for(Aspect::Rights, &doc);
        assert!(rights[0].1.contains("update or correct"));
        assert!(seg.is_successful_extraction(&doc));
    }

    #[test]
    fn short_policy_uses_text_analysis() {
        let doc = extract(
            "<p>We collect your email address.</p>\
             <p>We use data for analytics.</p>\
             <p>We retain data for as long as necessary.</p>\
             <p>You may update or correct your information.</p>",
        );
        assert!(doc.heading_count() < MIN_HEADINGS);
        let seg = segment(&oracle(), &doc);
        assert_eq!(seg.method, Method::TextAnalysis);
        assert!(!seg.text_for(Aspect::Types, &doc).is_empty());
        assert!(!seg.text_for(Aspect::Handling, &doc).is_empty());
        assert!(seg.is_successful_extraction(&doc));
    }

    #[test]
    fn heading_segmentation_falls_back_for_missing_aspects() {
        // Headings exist, but handling/rights content hides under a generic
        // "Additional Information" heading → step 2 must recover it.
        let html = "<h2>Introduction</h2><p>Welcome.</p>\
             <h2>Information We Collect</h2><p>We collect your email address.</p>\
             <h2>How We Use Your Information</h2><p>We use data for analytics.</p>\
             <h2>How We Share Your Information</h2><p>We do not sell records.</p>\
             <h2>Changes to This Policy</h2><p>We may update this policy.</p>\
             <h2>Additional Information</h2>\
             <p>We retain your data for as long as necessary.</p>\
             <p>You may update or correct your information.</p>\
             <h2>Contact Us</h2><p>Write to us.</p>";
        let doc = extract(html);
        let seg = segment(&oracle(), &doc);
        assert_eq!(seg.method, Method::TextAnalysis, "merged result");
        assert!(!seg.text_for(Aspect::Handling, &doc).is_empty());
        assert!(!seg.text_for(Aspect::Rights, &doc).is_empty());
        // Heading-based assignment retained for types.
        assert!(seg
            .text_for(Aspect::Types, &doc)
            .iter()
            .any(|(_, t)| t.contains("email address")));
    }

    #[test]
    fn empty_doc_fails_extraction() {
        let doc = extract("<div id=\"root\"></div><script>app()</script>");
        let seg = segment(&oracle(), &doc);
        assert!(!seg.is_successful_extraction(&doc));
    }

    #[test]
    fn text_analysis_drops_lines_the_doc_does_not_have() {
        // A model that labels line 0 and the line past the end, next to one
        // real line.
        struct OffByOne(usize);
        impl Chatbot for OffByOne {
            fn complete(&self, _prompt: &TaskPrompt, _input: &str) -> String {
                protocol::encode_labels(&[
                    (0, vec![Aspect::Types]),
                    (self.0 + 1, vec![Aspect::Types, Aspect::Rights]),
                    (1, vec![Aspect::Purposes]),
                ])
            }
            fn model_id(&self) -> &str {
                "off-by-one"
            }
            fn usage(&self) -> aipan_chatbot::TokenUsage {
                aipan_chatbot::TokenUsage::default()
            }
        }
        let doc = extract(
            "<p>We collect your email address.</p>\
             <p>You may update or correct your information.</p>",
        );
        let seg = segment(&OffByOne(doc.lines.len()), &doc);
        assert_eq!(seg.method, Method::TextAnalysis);
        // Line 0 once made these subtract with overflow in a debug build.
        assert!(seg.text_for(Aspect::Types, &doc).is_empty());
        assert_eq!(seg.core_word_count(&doc), 5);
        assert_eq!(seg.lines_for(Aspect::Types), &[] as &[usize]);
        assert_eq!(seg.lines_for(Aspect::Rights), &[] as &[usize]);
        assert_eq!(seg.lines_for(Aspect::Purposes), &[1]);
    }

    #[test]
    fn core_word_count_excludes_changes_and_other() {
        let doc = extract(&heading_policy_html());
        let seg = segment(&oracle(), &doc);
        let core = seg.core_word_count(&doc);
        let total = doc.word_count();
        assert!(core > 0 && core < total, "core {core} vs total {total}");
    }
}
