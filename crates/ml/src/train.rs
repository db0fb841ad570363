//! Building distillation corpora: the chatbot labels policy lines (teacher),
//! producing training data for offline student models.

use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
use aipan_chatbot::{protocol, Chatbot};
use aipan_webgen::policy::render_policy;
use aipan_webgen::{CompanyFate, World};
use serde::{Deserialize, Serialize};

/// One training example: a policy line and its teacher-assigned label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledLine {
    /// The line's text.
    pub text: String,
    /// Teacher label (aspect key, rights label name, or "none").
    pub label: String,
    /// Source domain (for leakage-free train/test splits by company).
    pub domain: String,
}

/// Render the extracted text lines of every Normal-fate policy in the world
/// (sorted by domain, capped at `limit` policies).
fn policy_lines(world: &World, limit: usize) -> Vec<(String, Vec<String>)> {
    let mut domains: Vec<&String> = world
        .fates
        .iter()
        .filter(|(_, f)| **f == CompanyFate::Normal)
        .map(|(d, _)| d)
        .collect();
    domains.sort();
    domains.truncate(limit);
    domains
        .into_iter()
        .filter_map(|domain| {
            let truth = world.truth(domain)?;
            let style = world.styles.get(domain)?;
            let name = &world.company(domain)?.name;
            let html = render_policy(truth, style, name, world.config.seed);
            let doc = aipan_html::extract(&html);
            let lines = doc.lines.into_iter().map(|l| l.text).collect();
            Some((domain.clone(), lines))
        })
        .collect()
}

/// Build a line → aspect corpus: the teacher is the chatbot's whole-text
/// segmentation task. Lines with multiple labels contribute their first.
pub fn build_aspect_corpus(world: &World, teacher: &dyn Chatbot, limit: usize) -> Vec<LabeledLine> {
    let prompt = TaskPrompt::build(TaskKind::SegmentText);
    let mut corpus = Vec::new();
    for (domain, lines) in policy_lines(world, limit) {
        let input = protocol::number_lines(lines.iter().map(String::as_str));
        let labels = protocol::parse_labels(&teacher.complete(prompt, &input));
        for (n, aspects) in labels {
            let Some(text) = lines.get(n - 1) else {
                continue;
            };
            let Some(aspect) = aspects.first() else {
                continue;
            };
            corpus.push(LabeledLine {
                text: text.clone(),
                label: aspect.key().to_string(),
                domain: domain.clone(),
            });
        }
    }
    corpus
}

/// Build a line → rights-label corpus: the teacher is the chatbot's rights
/// annotation task; unlabeled lines become the `"none"` class.
pub fn build_rights_corpus(world: &World, teacher: &dyn Chatbot, limit: usize) -> Vec<LabeledLine> {
    let prompt = TaskPrompt::build(TaskKind::AnnotateRights);
    let mut corpus = Vec::new();
    for (domain, lines) in policy_lines(world, limit) {
        let input = protocol::number_lines(lines.iter().map(String::as_str));
        let rows = protocol::parse_rights(&teacher.complete(prompt, &input));
        let mut labels: Vec<Option<String>> = vec![None; lines.len()];
        for (n, _, label) in rows {
            if n >= 1 && n <= lines.len() {
                labels[n - 1].get_or_insert(label);
            }
        }
        for (text, label) in lines.into_iter().zip(labels) {
            corpus.push(LabeledLine {
                text,
                label: label.unwrap_or_else(|| "none".to_string()),
                domain: domain.clone(),
            });
        }
    }
    corpus
}

/// Split a corpus into train/test by *domain* hash (no company appears in
/// both halves — the leakage-free split a real study needs).
pub fn split_by_domain(corpus: &[LabeledLine]) -> (Vec<&LabeledLine>, Vec<&LabeledLine>) {
    use std::hash::{Hash, Hasher};
    let mut train = Vec::new();
    let mut test = Vec::new();
    for example in corpus {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        example.domain.hash(&mut h);
        if h.finish().is_multiple_of(2) {
            train.push(example);
        } else {
            test.push(example);
        }
    }
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_chatbot::{ModelProfile, SimulatedChatbot};
    use aipan_webgen::{build_world, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| build_world(WorldConfig::small(3, 120)))
    }

    #[test]
    fn aspect_corpus_covers_core_aspects() {
        let teacher = SimulatedChatbot::new(ModelProfile::oracle(), 3);
        let corpus = build_aspect_corpus(world(), &teacher, 30);
        assert!(corpus.len() > 300, "corpus too small: {}", corpus.len());
        for key in ["types", "purposes", "handling", "rights", "other"] {
            assert!(
                corpus.iter().any(|l| l.label == key),
                "no examples labeled {key}"
            );
        }
    }

    #[test]
    fn rights_corpus_has_none_majority_and_labels() {
        let teacher = SimulatedChatbot::new(ModelProfile::oracle(), 3);
        let corpus = build_rights_corpus(world(), &teacher, 30);
        let none = corpus.iter().filter(|l| l.label == "none").count();
        assert!(none * 2 > corpus.len(), "'none' should dominate");
        assert!(corpus.iter().any(|l| l.label != "none"));
    }

    #[test]
    fn split_is_by_domain_and_stable() {
        let teacher = SimulatedChatbot::new(ModelProfile::oracle(), 3);
        let corpus = build_aspect_corpus(world(), &teacher, 30);
        let (train, test) = split_by_domain(&corpus);
        assert!(!train.is_empty() && !test.is_empty());
        let train_domains: std::collections::HashSet<&str> =
            train.iter().map(|l| l.domain.as_str()).collect();
        for example in &test {
            assert!(
                !train_domains.contains(example.domain.as_str()),
                "domain {} leaked across split",
                example.domain
            );
        }
    }
}
