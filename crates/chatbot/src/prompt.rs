//! Task prompts (Figure 2 of the paper).
//!
//! Each prompt follows the paper's structure: a role statement ("Assume the
//! role of a data privacy expert…"), numbered instructions, an attached
//! glossary compiled from the taxonomy, and an input/output example. The
//! rendered text is what gets token-accounted and handed to the model; the
//! [`TaskKind`] tag is what a simulated model dispatches on (a real LLM
//! would read the instructions). The prompts are constant, so each is
//! rendered, and its tokens estimated, once per process.

use crate::tokens::estimate_tokens;
use aipan_taxonomy::glossary;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The seven chatbot tasks of §3.2 and Appendix B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Label a table of contents' headings with aspects (Appendix B step 1).
    LabelHeadings,
    /// Divide raw text into labeled sections (Appendix B step 2).
    SegmentText,
    /// Extract verbatim mentions of collected data types (Figure 2b).
    ExtractDataTypes,
    /// Normalize extracted data-type mentions into descriptors+categories.
    NormalizeDataTypes,
    /// Extract and normalize data-collection purposes.
    AnnotatePurposes,
    /// Label data retention/protection practices.
    AnnotateHandling,
    /// Label user choices/access practices.
    AnnotateRights,
}

impl TaskKind {
    /// All tasks.
    pub const ALL: [TaskKind; 7] = [
        TaskKind::LabelHeadings,
        TaskKind::SegmentText,
        TaskKind::ExtractDataTypes,
        TaskKind::NormalizeDataTypes,
        TaskKind::AnnotatePurposes,
        TaskKind::AnnotateHandling,
        TaskKind::AnnotateRights,
    ];

    /// Stable name used for usage accounting.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::LabelHeadings => "label_headings",
            TaskKind::SegmentText => "segment_text",
            TaskKind::ExtractDataTypes => "extract_data_types",
            TaskKind::NormalizeDataTypes => "normalize_data_types",
            TaskKind::AnnotatePurposes => "annotate_purposes",
            TaskKind::AnnotateHandling => "annotate_handling",
            TaskKind::AnnotateRights => "annotate_rights",
        }
    }
}

/// A rendered task prompt. Only [`TaskPrompt::build`] makes one and its
/// text cannot be edited afterwards, so its token estimate always matches
/// its text.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPrompt {
    /// The task this prompt instructs.
    pub kind: TaskKind,
    /// The full rendered prompt text.
    text: String,
    /// [`estimate_tokens`] of `text`, counted once when it is rendered.
    tokens: u64,
}

impl TaskPrompt {
    /// The prompt for `kind` with the standard glossaries attached. The
    /// prompts are constant, so each is rendered once, on first use, and
    /// shared from then on.
    pub fn build(kind: TaskKind) -> &'static TaskPrompt {
        static LABEL_HEADINGS: OnceLock<TaskPrompt> = OnceLock::new();
        static SEGMENT_TEXT: OnceLock<TaskPrompt> = OnceLock::new();
        static EXTRACT_DATA_TYPES: OnceLock<TaskPrompt> = OnceLock::new();
        static NORMALIZE_DATA_TYPES: OnceLock<TaskPrompt> = OnceLock::new();
        static ANNOTATE_PURPOSES: OnceLock<TaskPrompt> = OnceLock::new();
        static ANNOTATE_HANDLING: OnceLock<TaskPrompt> = OnceLock::new();
        static ANNOTATE_RIGHTS: OnceLock<TaskPrompt> = OnceLock::new();
        let (prompt, render): (&OnceLock<TaskPrompt>, fn() -> String) = match kind {
            TaskKind::LabelHeadings => (&LABEL_HEADINGS, label_headings_prompt),
            TaskKind::SegmentText => (&SEGMENT_TEXT, segment_text_prompt),
            TaskKind::ExtractDataTypes => (&EXTRACT_DATA_TYPES, extract_data_types_prompt),
            TaskKind::NormalizeDataTypes => (&NORMALIZE_DATA_TYPES, normalize_data_types_prompt),
            TaskKind::AnnotatePurposes => (&ANNOTATE_PURPOSES, annotate_purposes_prompt),
            TaskKind::AnnotateHandling => (&ANNOTATE_HANDLING, annotate_handling_prompt),
            TaskKind::AnnotateRights => (&ANNOTATE_RIGHTS, annotate_rights_prompt),
        };
        prompt.get_or_init(|| {
            let text = render();
            TaskPrompt {
                kind,
                tokens: estimate_tokens(&text),
                text,
            }
        })
    }

    /// The full rendered prompt text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The prompt's token estimate: [`estimate_tokens`] of its text.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }
}

const ROLE: &str =
    "Task: Assume the role of a data privacy expert tasked with analyzing website privacy \
     policies.";

const LINE_FORMAT: &str =
    "The input is formatted with each line starting with a line number enclosed in \
     brackets (e.g., \"[123]\").";

const JSON_ONLY: &str =
    "Print only the JSON-formatted string in your output without adding any extra \
     information.";

fn label_headings_prompt() -> String {
    format!(
        "{ROLE} Use the provided glossary to label a list of section headings according to \
         the nine aspect categories.\n\
         \n### Instructions:\n\
         (1) Carefully and thoroughly read the section headings provided in the next \
         message. {LINE_FORMAT} The headings are indented to reflect the hierarchy of \
         sections.\n\
         (2) Label each heading according to the aspect categories. Use the glossary below \
         as examples of terms relevant to each category. If multiple categories apply to a \
         section, report all of them.\n\
         (3) Report labels for all headings as a JSON string containing a list of tuples, \
         each tuple holding the heading's line number and its assigned label(s). {JSON_ONLY}\n\
         \n### Glossary:\n{}\n\
         \n### Example:\n\
         Input:\n[1] Information We Collect\n[8] How We Use Data\n\
         Output:\n[[1, [\"types\"]], [8, [\"purposes\"]]]\n",
        glossary::heading_glossary()
    )
}

fn segment_text_prompt() -> String {
    format!(
        "{ROLE} Divide the provided privacy policy text into sections and label each \
         section according to the nine aspect categories.\n\
         \n### Instructions:\n\
         (1) Carefully and thoroughly read the privacy policy text provided in the next \
         message. {LINE_FORMAT}\n\
         (2) Divide the text into contiguous sections discussing the same aspect, and \
         label each section. Use the glossary below as a guide.\n\
         (3) Report the output as a JSON string containing a list of tuples, each tuple \
         holding a line number and the aspect label(s) applying from that line onward. \
         {JSON_ONLY}\n\
         \n### Glossary:\n{}\n\
         \n### Example:\n\
         Input:\n[1] We collect your contact details.\n[2] We use them to provide service.\n\
         Output:\n[[1, [\"types\"]], [2, [\"purposes\"]]]\n",
        glossary::heading_glossary()
    )
}

fn extract_data_types_prompt() -> String {
    format!(
        "{ROLE} Meticulously extract and catalog specific data types that are mentioned as \
         being collected.\n\
         \n### Instructions:\n\
         (1) Carefully and thoroughly read the privacy policy text provided in the next \
         message. {LINE_FORMAT}\n\
         (2) Identify all explicit mentions of specific data types or categories that are \
         potentially collected (see the glossary for examples). Identify all mentions \
         regardless of how many times they are repeated throughout the text. Focus on \
         identifying the collected data types and not how they are collected and/or used. \
         Ignore mentions in hypothetical or negated contexts, e.g., \"we do not collect \
         ...\". Separate lists into individual items. Pinpoint the exact word(s) used in \
         the text to describe each data type.\n\
         (3) Report the identified data types as a JSON string containing a list of \
         tuples, each tuple holding the line number where the data type is mentioned and \
         the exact word(s) used to describe it. {JSON_ONLY}\n\
         \n### Glossary:\n{}\n\
         \n### Example:\n\
         Input:\n[4] We collect your email address and browsing history.\n\
         Output:\n[[4, \"email address\"], [4, \"browsing history\"]]\n",
        glossary::datatype_glossary(8)
    )
}

fn normalize_data_types_prompt() -> String {
    format!(
        "{ROLE} Categorize extracted data-type mentions and generate normalized \
         descriptors.\n\
         \n### Instructions:\n\
         (1) Read the list of extracted data-type mentions provided in the next message, \
         one per line. {LINE_FORMAT}\n\
         (2) For each mention, produce a normalized descriptor (e.g., map both \"mailing \
         address\" and \"home address\" to \"postal address\") and assign one of the 34 \
         categories from the glossary. For data types not listed in the glossary, \
         generate an appropriate descriptor of your own and assign the closest category.\n\
         (3) Report the output as a JSON string containing a list of tuples, each tuple \
         holding the line number, the normalized descriptor, and the category name. \
         {JSON_ONLY}\n\
         \n### Glossary:\n{}\n\
         \n### Example:\n\
         Input:\n[1] mailing address\n\
         Output:\n[[1, \"postal address\", \"Contact info\"]]\n",
        glossary::datatype_glossary(8)
    )
}

fn annotate_purposes_prompt() -> String {
    format!(
        "{ROLE} Extract specific purposes for which data is collected or used, and \
         normalize them.\n\
         \n### Instructions:\n\
         (1) Carefully read the privacy policy text provided in the next message. \
         {LINE_FORMAT}\n\
         (2) Identify all explicit mentions of purposes for data collection or use. \
         Ignore hypothetical or negated contexts. For each mention, produce a normalized \
         descriptor and assign one of the 7 categories from the glossary; generate your \
         own descriptor for purposes not listed.\n\
         (3) Report the output as a JSON string containing a list of tuples, each tuple \
         holding the line number, the exact words used, the normalized descriptor, and \
         the category name. {JSON_ONLY}\n\
         \n### Glossary:\n{}\n\
         \n### Example:\n\
         Input:\n[2] We use your information to prevent fraud.\n\
         Output:\n[[2, \"prevent fraud\", \"fraud prevention\", \"Security\"]]\n",
        glossary::purpose_glossary(6)
    )
}

fn annotate_handling_prompt() -> String {
    format!(
        "{ROLE} Identify and label data retention and data protection practices.\n\
         \n### Instructions:\n\
         (1) Carefully read the privacy policy text provided in the next message. \
         {LINE_FORMAT}\n\
         (2) Identify mentions of data retention periods and label them Limited (limited \
         but unspecified), Stated (a concrete period is given — also extract the period), \
         or Indefinitely. Identify mentions of data protection measures and label them \
         with one of: Generic, Access limit, Secure transfer, Secure storage, Privacy \
         program, Privacy review, Secure authentication.\n\
         (3) Report the output as a JSON string containing a list of tuples, each tuple \
         holding the line number, the exact words used, the label, and (for Stated \
         retention) the period. {JSON_ONLY}\n\
         \n### Example:\n\
         Input:\n[3] We retain your data for two (2) years.\n\
         Output:\n[[3, \"retain your data for two (2) years\", \"Stated\", \"2 years\"]]\n"
    )
}

fn annotate_rights_prompt() -> String {
    format!(
        "{ROLE} Identify and label user choices and user access practices.\n\
         \n### Instructions:\n\
         (1) Carefully read the privacy policy text provided in the next message. \
         {LINE_FORMAT}\n\
         (2) Identify mentions of user choices and label them with one of: Opt-out via \
         contact, Opt-out via link, Privacy settings, Opt-in, Do not use. Identify \
         mentions of user access and label them with one of: Edit, Full delete, View, \
         Export, Partial delete, Deactivate.\n\
         (3) Report the output as a JSON string containing a list of tuples, each tuple \
         holding the line number, the exact words used, and the label. {JSON_ONLY}\n\
         \n### Example:\n\
         Input:\n[5] You may update or correct your information at any time.\n\
         Output:\n[[5, \"update or correct your information\", \"Edit\"]]\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_prompts_render_nonempty() {
        for kind in TaskKind::ALL {
            let p = TaskPrompt::build(kind);
            assert_eq!(p.kind, kind);
            assert!(p.text().len() > 200, "{kind:?} prompt too short");
            assert!(p.text().contains("data privacy expert"));
            assert!(p.text().contains("JSON"));
            assert_eq!(p.tokens(), estimate_tokens(p.text()));
        }
    }

    #[test]
    fn extraction_prompt_contains_negation_instruction() {
        let p = TaskPrompt::build(TaskKind::ExtractDataTypes);
        assert!(p.text().contains("negated contexts"));
        assert!(p.text().contains("we do not collect"));
    }

    #[test]
    fn glossaries_attached() {
        assert!(TaskPrompt::build(TaskKind::ExtractDataTypes)
            .text()
            .contains("email address"));
        assert!(TaskPrompt::build(TaskKind::NormalizeDataTypes)
            .text()
            .contains("postal address"));
        assert!(TaskPrompt::build(TaskKind::AnnotatePurposes)
            .text()
            .contains("fraud prevention"));
        assert!(TaskPrompt::build(TaskKind::LabelHeadings)
            .text()
            .contains("Information we collect"));
    }

    #[test]
    fn task_names_unique() {
        let mut names: Vec<_> = TaskKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TaskKind::ALL.len());
    }
}
