//! The merged snapshot of a run's checkpoint journal.
//!
//! The streaming engine checkpoints every processed domain's
//! [`DomainOutcome`](crate::pipeline::DomainOutcome) as a [`JournalEntry`]
//! in a [`ShardedJournal`]. A [`RunJournal`] is that journal's merged view
//! ([`ShardedJournal::merged`]) and its consolidated on-disk format: sorted
//! JSONL, one domain per line, ordered by domain. [`ShardedJournal::open`]
//! seeds from a consolidated file, so an interrupted run can be resumed:
//! domains already journaled are replayed from their recorded outcome
//! instead of re-annotated, and — because every per-domain outcome is a
//! pure function of `(world, config)` — the resumed run's dataset is
//! byte-identical to an uninterrupted one.
//!
//! Every reader of journal text goes through one per-line parser
//! (`JournalEntry::from_line`): each line stands alone, so a malformed
//! line — a truncated final line from an interrupted write, a line that is
//! not valid UTF-8, or one nested far too deep — is dropped, not fatal
//! (that domain is re-processed on resume), and every other line still
//! loads. Lines are read straight into typed entries, with no JSON tree in
//! between, and no line takes more stack than a shallow one, however
//! deeply it nests.
//!
//! [`ShardedJournal`]: crate::ShardedJournal
//! [`ShardedJournal::merged`]: crate::ShardedJournal::merged
//! [`ShardedJournal::open`]: crate::ShardedJournal::open

use crate::dataset::AnnotatedPolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One journaled domain outcome: the domain's §3.2 funnel contribution and
/// its annotated policy (if extraction succeeded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The crawled domain.
    pub domain: String,
    /// English, HTML, deduplicated privacy pages found on the domain.
    pub english_privacy_pages: usize,
    /// The annotated policy, when one was extracted.
    pub policy: Option<AnnotatedPolicy>,
}

impl JournalEntry {
    /// Parse one journal line. Surrounding whitespace is ignored; a blank
    /// or malformed line is `None`.
    pub(crate) fn from_line(line: &str) -> Option<JournalEntry> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        serde_json::from_str(line).ok()
    }
}

/// A checkpoint journal: domain → outcome, kept sorted by domain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunJournal {
    entries: BTreeMap<String, JournalEntry>,
}

impl RunJournal {
    /// An empty journal (a fresh, non-resumed run).
    pub fn new() -> RunJournal {
        RunJournal::default()
    }

    /// Parse a journal from JSONL text. Malformed lines — including a
    /// truncated final line from an interrupted write — are dropped, not
    /// fatal: the affected domains are simply re-processed.
    pub fn from_jsonl(text: &str) -> RunJournal {
        let mut journal = RunJournal::new();
        for entry in text.split('\n').filter_map(JournalEntry::from_line) {
            journal.insert(entry);
        }
        journal
    }

    /// Serialize to JSONL, one entry per line, sorted by domain.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.entries.values() {
            entry.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Whether `domain` has a journaled outcome.
    pub fn contains(&self, domain: &str) -> bool {
        self.entries.contains_key(domain)
    }

    /// The journaled outcome for `domain`, if any.
    pub fn get(&self, domain: &str) -> Option<&JournalEntry> {
        self.entries.get(domain)
    }

    /// Record (or overwrite) an outcome.
    pub fn insert(&mut self, entry: JournalEntry) {
        self.entries.insert(entry.domain.clone(), entry);
    }

    /// Number of journaled domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in domain order.
    pub fn iter(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.values()
    }

    /// Consume the journal, yielding its entries in domain order.
    pub fn into_entries(self) -> impl Iterator<Item = JournalEntry> {
        self.entries.into_values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(domain: &str, pages: usize) -> JournalEntry {
        JournalEntry {
            domain: domain.to_string(),
            english_privacy_pages: pages,
            policy: None,
        }
    }

    #[test]
    fn jsonl_roundtrip_is_sorted_and_lossless() {
        let mut j = RunJournal::new();
        j.insert(entry("zeta.com", 2));
        j.insert(entry("alpha.com", 1));
        j.insert(entry("mid.com", 0));
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("alpha.com"));
        assert!(lines[2].contains("zeta.com"));
        assert_eq!(RunJournal::from_jsonl(&text), j);
    }

    #[test]
    fn torn_tail_dropped_not_fatal() {
        let mut j = RunJournal::new();
        j.insert(entry("a.com", 1));
        j.insert(entry("b.com", 2));
        let text = j.to_jsonl();
        // Simulate a kill mid-write: truncate inside the last line.
        let cut = text.len() - 7;
        let torn = &text[..cut];
        let loaded = RunJournal::from_jsonl(torn);
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains("a.com"));
        assert!(!loaded.contains("b.com"));
    }

    #[test]
    fn insert_overwrites() {
        let mut j = RunJournal::new();
        j.insert(entry("a.com", 1));
        j.insert(entry("a.com", 5));
        assert_eq!(j.len(), 1);
        assert_eq!(j.get("a.com").unwrap().english_privacy_pages, 5);
    }

    #[test]
    fn empty_and_blank_lines_ignored() {
        let j = RunJournal::from_jsonl("\n\n   \nnot json\n");
        assert!(j.is_empty());
    }
}
