//! Journal lines under hostile and rewritten text.
//!
//! `entry_text_rewrites_read_back` pins how a journal line is read: any
//! JSON text that means the same entry — members in another order, extra
//! unknown members, whitespace between tokens, ASCII written as `\u00XX`
//! escapes — reads back as that entry.
//!
//! The rest hold `ShardedJournal::open` to its promise that a malformed
//! line is dropped, not fatal: a line nested 50,000 levels deep, a byte
//! that is not UTF-8, or arbitrary bytes among real lines cost only their
//! own line, on a 2 MiB stack, and `open` keeps exactly the entries a
//! plain per-line reader keeps.

use aipan_core::shard::{quarantine_path, segment_path, shard_of};
use aipan_core::{AnnotatedPolicy, JournalEntry, RunJournal, SegmentationMethod, ShardedJournal};
use aipan_taxonomy::records::{Annotation, AnnotationPayload, AspectKind};
use aipan_taxonomy::{
    AccessLabel, ChoiceLabel, DataTypeCategory, ProtectionLabel, PurposeCategory, RetentionLabel,
    Sector,
};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Characters journal strings are drawn from: plain ASCII, what JSON must
/// escape (quote, backslash, control characters) and multibyte UTF-8.
fn text_char(g: &mut Gen) -> char {
    match g.below(12) {
        0 => '"',
        1 => '\\',
        2 => char::from(g.below(0x20) as u8),
        3 => char::from(0x7f),
        4 => ['é', '中', '😀', '/'][g.below(4)],
        5 => ' ',
        _ => char::from(b'a' + g.below(26) as u8),
    }
}

fn text(g: &mut Gen, max: usize) -> String {
    (0..g.below(max + 1)).map(|_| text_char(g)).collect()
}

fn count(g: &mut Gen) -> usize {
    match g.below(4) {
        0 => 0,
        1 => g.below(10),
        2 => g.below(1_000_000),
        _ => g.next_u64() as usize,
    }
}

fn pick<T: Copy>(g: &mut Gen, all: &[T]) -> T {
    all[g.below(all.len())]
}

fn annotation(g: &mut Gen) -> Annotation {
    let payload = match g.below(6) {
        0 => AnnotationPayload::DataType {
            descriptor: text(g, 16),
            category: pick(g, &DataTypeCategory::ALL),
        },
        1 => AnnotationPayload::Purpose {
            descriptor: text(g, 16),
            category: pick(g, &PurposeCategory::ALL),
        },
        2 => AnnotationPayload::Retention {
            label: pick(g, &RetentionLabel::ALL),
            period_days: (g.below(2) == 0).then(|| g.next_u64() as u32),
        },
        3 => AnnotationPayload::Protection {
            label: pick(g, &ProtectionLabel::ALL),
        },
        4 => AnnotationPayload::Choice {
            label: pick(g, &ChoiceLabel::ALL),
        },
        _ => AnnotationPayload::Access {
            label: pick(g, &AccessLabel::ALL),
        },
    };
    Annotation::new(payload, text(g, 24), count(g))
}

/// An arbitrary journal entry whose domain is `domain`.
fn entry_for(g: &mut Gen, domain: String) -> JournalEntry {
    let policy = (g.below(4) != 0).then(|| AnnotatedPolicy {
        domain: text(g, 12),
        sector: pick(g, &Sector::ALL),
        annotations: (0..g.below(6)).map(|_| annotation(g)).collect(),
        fallbacks: (0..g.below(3)).map(|_| pick(g, &AspectKind::ALL)).collect(),
        hallucinations_removed: count(g),
        core_word_count: count(g),
        segmentation: pick(
            g,
            &[
                SegmentationMethod::Headings,
                SegmentationMethod::TextAnalysis,
            ],
        ),
        policy_path: text(g, 20),
    });
    JournalEntry {
        domain,
        english_privacy_pages: count(g),
        policy,
    }
}

/// Strategy: an arbitrary [`JournalEntry`].
struct Entries;

impl Strategy for Entries {
    type Value = JournalEntry;
    fn generate(&self, g: &mut Gen) -> JournalEntry {
        let domain = text(g, 12);
        entry_for(g, domain)
    }
}

/// JSON whitespace, sometimes none.
fn whitespace(g: &mut Gen, out: &mut String) {
    for _ in 0..g.below(3) {
        out.push([' ', '\t', '\n', '\r'][g.below(4)]);
    }
}

/// `s` as a JSON string literal in which some ASCII characters (and every
/// character that must be escaped) are written as `\u00XX` escapes.
fn rewrite_string(s: &str, g: &mut Gen, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let must = c == '"' || c == '\\' || (c as u32) < 0x20;
        if c.is_ascii() && (must || g.below(4) == 0) {
            out.push('\\');
            if g.below(2) == 0 {
                let _ = write!(out, "u{:04x}", c as u32);
            } else {
                let _ = write!(out, "u{:04X}", c as u32);
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

/// A key no journal type has a member of that name.
fn unknown_key(g: &mut Gen) -> String {
    format!("x_{}", text(g, 6))
}

/// Any JSON value, nested up to `depth` levels.
fn junk(g: &mut Gen, depth: usize) -> Value {
    match g.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(g.below(2) == 0),
        2 => serde_json::from_str(pick(
            g,
            &["-0", "1.5e3", "-7", "0.25", "18446744073709551616"],
        ))
        .unwrap_or(Value::Null),
        3 => Value::String(text(g, 8)),
        4 => Value::Array((0..g.below(4)).map(|_| junk(g, depth - 1)).collect()),
        _ => Value::Object(
            (0..g.below(4))
                .map(|_| (unknown_key(g), junk(g, depth - 1)))
                .collect(),
        ),
    }
}

/// Render `v` as JSON text that means the same journal value: whitespace
/// between tokens, escaped ASCII, and every object except an enum
/// variant's one-member wrapper shuffled and given unknown members.
fn rewrite(v: &Value, g: &mut Gen, out: &mut String) {
    whitespace(g, out);
    match v {
        Value::String(s) => rewrite_string(s, g, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                rewrite(item, g, out);
                whitespace(g, out);
            }
            whitespace(g, out);
            out.push(']');
        }
        Value::Object(members) => {
            let mut members = members.clone();
            let variant =
                members.len() == 1 && members[0].0.starts_with(|c: char| c.is_ascii_uppercase());
            if !variant {
                for i in (1..members.len()).rev() {
                    members.swap(i, g.below(i + 1));
                }
                for _ in 0..g.below(3) {
                    let at = g.below(members.len() + 1);
                    members.insert(at, (unknown_key(g), junk(g, 3)));
                }
            }
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(g, out);
                rewrite_string(key, g, out);
                whitespace(g, out);
                out.push(':');
                rewrite(value, g, out);
                whitespace(g, out);
            }
            whitespace(g, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

proptest! {
    #[test]
    fn entry_text_rewrites_read_back(entry in Entries, seed in 0u64..1_000_000_000) {
        let line = serde_json::to_string(&entry).expect("entry serializes");
        let back: JournalEntry = serde_json::from_str(&line).expect("own line reads back");
        prop_assert_eq!(&back, &entry);
        let tree: Value = serde_json::from_str(&line).expect("line is JSON");
        let mut g = Gen::from_name(&seed.to_string());
        for _ in 0..4 {
            let mut text = String::new();
            rewrite(&tree, &mut g, &mut text);
            whitespace(&mut g, &mut text);
            let read = serde_json::from_str::<JournalEntry>(&text);
            prop_assert_eq!(read.as_ref().ok(), Some(&entry), "rewritten as {}", text);
        }
    }
}

/// Run `f` on a thread with a 2 MiB stack and return its result.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("no panic, no overflow")
}

/// A fresh, empty directory for one journal.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aipan-journal-props-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the journal dir");
    dir
}

fn plain_entry(domain: &str, pages: usize) -> JournalEntry {
    JournalEntry {
        domain: domain.to_string(),
        english_privacy_pages: pages,
        policy: None,
    }
}

fn line_of(entry: &JournalEntry) -> String {
    serde_json::to_string(entry).expect("entry serializes") + "\n"
}

/// `count` domains that all hash to shard `shard` of `shards`.
fn domains_in_shard(shard: usize, shards: usize, count: usize) -> Vec<String> {
    (0..)
        .map(|i| format!("site{i}.com"))
        .filter(|d| shard_of(d, shards) == shard)
        .take(count)
        .collect()
}

/// Lines nested 50,000 levels deep: bare, after a valid member, and inside
/// an unclosed unknown member.
fn deep_lines() -> Vec<String> {
    let deep = "[".repeat(50_000);
    vec![
        format!("{deep}\n"),
        format!("{{\"domain\":\"deep.com\",\"english_privacy_pages\":{deep}\n"),
        format!("{{\"domain\":\"deep.com\",\"x\":{deep}\n"),
    ]
}

#[test]
fn deep_lines_drop_alone_on_a_small_stack() {
    let dir = fresh_dir("deep");
    let base = dir.join("run.jsonl");
    let deep = deep_lines().concat();
    let in_shard = domains_in_shard(2, 4, 2);
    let base_text = line_of(&plain_entry("a.com", 1)) + &deep + &line_of(&plain_entry("b.com", 2));
    std::fs::write(&base, base_text).unwrap();
    let segment =
        line_of(&plain_entry(&in_shard[0], 3)) + &deep + &line_of(&plain_entry(&in_shard[1], 4));
    std::fs::write(segment_path(&base, 2), segment).unwrap();
    let record = |domain: &str| {
        format!("{{\"domain\":\"{domain}\",\"kills\":2,\"message\":\"m\",\"stage\":\"crawl\"}}\n")
    };
    std::fs::write(
        quarantine_path(&base),
        record("q1.com") + &deep + &record("q2.com"),
    )
    .unwrap();

    let (len, poisoned) = on_small_stack(move || {
        let journal = ShardedJournal::open(&base, 4);
        (journal.len(), journal.poisoned_domains(2))
    });
    assert_eq!(len, 4, "every valid entry kept");
    assert_eq!(poisoned, vec!["q1.com".to_string(), "q2.com".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_bad_byte_costs_one_entry() {
    let dir = fresh_dir("badbyte");
    let base = dir.join("run.jsonl");
    let mut journal = RunJournal::new();
    for i in 0..10 {
        journal.insert(plain_entry(&format!("d{i}.com"), i));
    }
    let mut bytes = journal.to_jsonl().into_bytes();
    // `d4.com` is the fifth line: corrupt the `4` of its domain.
    let at = bytes
        .windows(6)
        .position(|w| w == b"d4.com")
        .expect("d4.com journaled");
    bytes[at + 1] = 0xff;
    std::fs::write(&base, &bytes).unwrap();

    let reopened = ShardedJournal::open(&base, 4);
    assert_eq!(reopened.len(), 9);
    assert!(!reopened.contains("d4.com"));
    assert!(reopened.contains("d3.com") && reopened.contains("d5.com"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_byte_in_one_quarantine_record_keeps_the_rest() {
    let dir = fresh_dir("badquarantine");
    let base = dir.join("run.jsonl");
    let mut bytes = Vec::new();
    for (domain, message) in [("a.com", "ok"), ("b.com", "bad?"), ("c.com", "ok")] {
        let line = format!(
            "{{\"domain\":\"{domain}\",\"kills\":3,\"message\":\"{message}\",\"stage\":\"crawl\"}}\n"
        );
        bytes.extend(line.bytes().map(|b| if b == b'?' { 0xfe } else { b }));
    }
    std::fs::write(quarantine_path(&base), bytes).unwrap();
    let journal = ShardedJournal::open(&base, 4);
    assert_eq!(
        journal.poisoned_domains(1),
        vec!["a.com".to_string(), "c.com".to_string()]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_4_mib_hostile_segment_opens_on_a_2_mib_stack() {
    let dir = fresh_dir("big");
    let base = dir.join("run.jsonl");
    let mut domains = domains_in_shard(0, 4, 3);
    domains.sort();
    let half = 1 << 21;
    let mut segment = line_of(&plain_entry(&domains[0], 1));
    // An unclosed line, 4 MiB deep.
    segment.push_str(&"[".repeat(2 * half));
    segment.push('\n');
    // A valid entry whose unknown member nests 2 Mi levels deep.
    let mut deep = serde_json::to_string(&plain_entry(&domains[1], 2)).unwrap();
    deep.pop();
    deep.push_str(",\"x\":");
    deep.push_str(&"[".repeat(half));
    deep.push_str(&"]".repeat(half));
    deep.push_str("}\n");
    segment.push_str(&deep);
    segment.push_str(&line_of(&plain_entry(&domains[2], 3)));
    assert!(segment.len() > 4 << 20);
    std::fs::write(segment_path(&base, 0), segment).unwrap();

    let kept = on_small_stack(move || {
        let journal = ShardedJournal::open(&base, 4);
        journal
            .merged()
            .iter()
            .map(|e| e.domain.clone())
            .collect::<Vec<_>>()
    });
    assert_eq!(kept, domains);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One line of a hostile journal file: arbitrary bytes, a real entry's
/// line, or a real line mutated by truncation, a byte flip, a duplicated
/// member, an unknown member or deep nesting.
fn hostile_line(g: &mut Gen) -> Vec<u8> {
    let domain = format!("site{}.com", g.below(6));
    let line = serde_json::to_string(&entry_for(g, domain)).expect("entry serializes");
    let mut bytes = line.clone().into_bytes();
    match g.below(8) {
        0 => (0..g.below(40)).map(|_| g.next_u64() as u8).collect(),
        1 => bytes,
        2 => {
            bytes.truncate(g.below(bytes.len()));
            bytes
        }
        3 => {
            let at = g.below(bytes.len());
            bytes[at] ^= 1 + g.below(255) as u8;
            bytes
        }
        4 => {
            // A duplicate member, before or after the original.
            let member = format!("\"domain\":\"site{}.com\"", g.below(6));
            if g.below(2) == 0 {
                format!("{{{member},{}", &line[1..]).into_bytes()
            } else {
                format!("{},{member}}}", &line[..line.len() - 1]).into_bytes()
            }
        }
        5 => {
            let mut junk_text = String::new();
            rewrite(&junk(g, 3), g, &mut junk_text);
            format!("{{\"x_{}\":{junk_text},{}", g.below(100), &line[1..]).into_bytes()
        }
        6 => {
            let depth = 1 + g.below(100_000);
            let closed = g.below(2) == 0;
            let nest = "[".repeat(depth)
                + &(if closed {
                    "]".repeat(depth)
                } else {
                    String::new()
                });
            format!("{{\"x\":{nest},{}", &line[1..]).into_bytes()
        }
        _ => "[".repeat(1 + g.below(100_000)).into_bytes(),
    }
}

/// A journal file of hostile lines.
struct HostileFile;

impl Strategy for HostileFile {
    type Value = Vec<u8>;
    fn generate(&self, g: &mut Gen) -> Vec<u8> {
        let mut file = Vec::new();
        for _ in 0..g.below(8) {
            file.extend(hostile_line(g));
            file.push(b'\n');
        }
        if g.below(2) == 0 {
            file.pop();
        }
        file
    }
}

/// The entries a plain per-line reader keeps from `files`, read in order:
/// each line is checked as UTF-8, trimmed and parsed on its own, and a
/// later line for a domain replaces an earlier one.
fn per_line_reference(files: &[Vec<u8>]) -> BTreeMap<String, JournalEntry> {
    let mut kept = BTreeMap::new();
    for file in files {
        for line in file.split(|&b| b == b'\n') {
            let Ok(text) = std::str::from_utf8(line) else {
                continue;
            };
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            if let Ok(entry) = serde_json::from_str::<JournalEntry>(text) {
                kept.insert(entry.domain.clone(), entry);
            }
        }
    }
    kept
}

/// Write `files` as the consolidated file and the segments of a journal
/// in a fresh directory and open it (on a 2 MiB stack).
fn open_files(files: &[Vec<u8>]) -> (Vec<JournalEntry>, PathBuf) {
    let dir = fresh_dir("prop");
    let base = dir.join("run.jsonl");
    let write =
        |path: &Path, bytes: &[u8]| std::fs::write(path, bytes).expect("write journal file");
    write(&base, &files[0]);
    for (index, segment) in files[1..].iter().enumerate() {
        write(&segment_path(&base, index), segment);
    }
    let shards = files.len() - 1;
    let opened = on_small_stack(move || {
        let journal = ShardedJournal::open(&base, shards);
        journal.merged().into_entries().collect()
    });
    (opened, dir)
}

proptest! {
    #[test]
    fn open_keeps_exactly_the_lines_a_per_line_reader_keeps(
        base in HostileFile,
        segments in proptest::collection::vec(HostileFile, 1..4),
    ) {
        let mut files = vec![base];
        files.extend(segments);
        let (opened, dir) = open_files(&files);
        let expected: Vec<JournalEntry> = per_line_reference(&files).into_values().collect();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(opened, expected);
    }
}
