//! Sharded, incrementally-written journal segments.
//!
//! A single-file journal written at the end of a run would lose every
//! domain of a process killed mid-run. A [`ShardedJournal`] instead
//! assigns each domain to one of `N` segments by a stable hash of its name
//! and **appends** the domain's entry to that segment's JSONL file the
//! moment it is processed; only [`ShardedJournal::consolidate`] folds them
//! into the single sorted [`RunJournal`] file.
//! Streaming workers touch disjoint locks most of the time (different
//! domains usually hash to different shards), and a kill at any instant
//! costs at most the one torn line per segment that the journal's
//! per-line parser already drops.
//!
//! The shard assignment is a pure function of the domain name, so segment
//! contents are deterministic and worker-count-invariant; the merged view
//! ([`ShardedJournal::merged`]) is the same sorted journal a serial run
//! would have produced.
//!
//! Neither end of a run holds a whole journal file in memory.
//! [`ShardedJournal::open`] reads the consolidated file, each segment and
//! the quarantine file line by line as bytes through one reused line
//! buffer, checks each line's UTF-8 on its own and parses it straight into
//! its domain's shard, so one bad line costs only itself.
//! [`ShardedJournal::consolidate`] writes each entry straight from the
//! locked shards, merged in domain order, through a buffered writer over
//! the temporary file that then replaces the consolidated one.

use crate::journal::{JournalEntry, RunJournal};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default segment count: enough that eight streaming workers rarely
/// collide on one shard lock, few enough that a run directory stays tidy.
pub const DEFAULT_SHARDS: usize = 8;

/// Stable shard assignment for `domain` (FNV-1a over the name). A pure
/// function of the domain, so segment contents do not depend on worker
/// count or scheduling.
pub fn shard_of(domain: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in domain.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// Path of segment `index` for journal base path `base`
/// (`<base>.shard007.jsonl`).
pub fn segment_path(base: &Path, index: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index:03}.jsonl"));
    PathBuf::from(name)
}

/// Path of the quarantine segment for journal base path `base`
/// (`<base>.quarantine.jsonl`): one JSONL line per dead letter, each the
/// full cumulative [`QuarantineRecord`] for its domain (last line per
/// domain wins on load, torn tails tolerated like any segment).
pub fn quarantine_path(base: &Path) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".quarantine.jsonl");
    PathBuf::from(name)
}

/// One quarantined domain: how many times its chain has killed a worker,
/// and the stage/message of the most recent panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// The quarantined domain.
    pub domain: String,
    /// Cumulative worker kills attributed to this domain (across resumes).
    pub kills: u32,
    /// Rendered panic message of the most recent panic.
    pub message: String,
    /// Chain stage of the most recent panic (`"crawl"` or `"process"`).
    pub stage: String,
}

/// Deterministic fault model for the journal's append path: short (torn)
/// writes and transient ENOSPC-style rejections, keyed on
/// `(seed, stream, record_index)` so every run — and every retry schedule —
/// sees the same faults at the same records regardless of worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultConfig {
    /// Probability a record's first append tears mid-line.
    pub short_write: f64,
    /// Probability a record's first append is rejected outright
    /// (no-space-style: nothing reaches the file).
    pub enospc: f64,
    /// Maximum consecutive faulty attempts per record. Keep `<=`
    /// `write_retries` and every episode is absorbed by the retry path.
    pub burst_max: u32,
    /// Bounded retry budget per record append.
    pub write_retries: u32,
}

impl DiskFaultConfig {
    /// No injected faults; appends still retry real transient errors.
    pub fn none() -> DiskFaultConfig {
        DiskFaultConfig {
            short_write: 0.0,
            enospc: 0.0,
            burst_max: 0,
            write_retries: 3,
        }
    }

    /// Elevated fault rates whose episodes still fit the retry budget —
    /// a run under this config degrades nothing, it just works harder.
    pub fn chaotic() -> DiskFaultConfig {
        DiskFaultConfig {
            short_write: 0.15,
            enospc: 0.10,
            burst_max: 2,
            write_retries: 3,
        }
    }
}

impl Default for DiskFaultConfig {
    fn default() -> DiskFaultConfig {
        DiskFaultConfig::none()
    }
}

/// What the injector does to one append attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskFault {
    /// Write a torn prefix of the line (no trailing newline) and fail.
    ShortWrite,
    /// Reject the attempt before anything reaches the file.
    NoSpace,
}

/// Seeded decision function for [`DiskFaultConfig`]: a pure function of
/// `(seed, stream, record_index, attempt)`, so fault placement is
/// reproducible and independent of scheduling.
#[derive(Debug, Clone, Copy)]
pub struct DiskFaultInjector {
    seed: u64,
    config: DiskFaultConfig,
}

impl DiskFaultInjector {
    /// An injector for `seed` under `config`.
    pub fn new(seed: u64, config: DiskFaultConfig) -> DiskFaultInjector {
        DiskFaultInjector { seed, config }
    }

    /// An inert injector (no faults ever fire).
    pub fn none() -> DiskFaultInjector {
        DiskFaultInjector::new(0, DiskFaultConfig::none())
    }

    /// Uniform draw in `[0, 1)` keyed on the fault coordinates (FNV-1a
    /// over the little-endian words, like the shard hash above).
    fn unit(&self, stream: u64, record_index: u64, salt: u64) -> f64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [self.seed, stream, record_index, salt] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (hash >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fault (if any) injected into `attempt` of appending record
    /// `record_index` to `stream`. Episodes are transient: a faulted
    /// record fails its first `burst` attempts (`1..=burst_max`, drawn
    /// from the same key) and then succeeds.
    fn fault(&self, stream: u64, record_index: u64, attempt: u32) -> Option<DiskFault> {
        if self.config.burst_max == 0 {
            return None;
        }
        let roll = self.unit(stream, record_index, 0);
        let kind = if roll < self.config.short_write {
            DiskFault::ShortWrite
        } else if roll < self.config.short_write + self.config.enospc {
            DiskFault::NoSpace
        } else {
            return None;
        };
        let span = self.unit(stream, record_index, 1);
        let burst = 1 + (span * f64::from(self.config.burst_max)) as u32;
        let burst = burst.min(self.config.burst_max);
        if attempt < burst {
            Some(kind)
        } else {
            None
        }
    }
}

struct Shard {
    entries: BTreeMap<String, JournalEntry>,
    writer: Option<File>,
    /// Records appended to this segment so far — the `record_index` key of
    /// the disk-fault injector.
    appended: u64,
}

/// In-memory quarantine state plus its (lazily created) segment writer.
struct QuarantineStore {
    records: BTreeMap<String, QuarantineRecord>,
    writer: Option<File>,
    /// Segment path for durable journals; `None` for in-memory ones. The
    /// writer is only created on the first dead letter, so fault-free runs
    /// leave no empty quarantine file behind.
    path: Option<PathBuf>,
    /// Dead letters appended so far (the injector's `record_index`).
    appended: u64,
}

/// A journal split into independently locked, incrementally appended
/// segments. Thread-safe: streaming workers record finished domains
/// concurrently through `&self`.
pub struct ShardedJournal {
    shards: Vec<Mutex<Shard>>,
    quarantine: Mutex<QuarantineStore>,
    faults: DiskFaultInjector,
    write_errors: AtomicUsize,
    disk_retries: AtomicUsize,
}

impl ShardedJournal {
    /// An in-memory sharded journal (no segment files): the checkpoint
    /// store of a run that needs no durability
    /// ([`run_pipeline`](crate::run_pipeline)).
    pub fn in_memory(shards: usize) -> ShardedJournal {
        let shards = shards.max(1);
        ShardedJournal {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: Default::default(),
                        writer: None,
                        appended: 0,
                    })
                })
                .collect(),
            quarantine: Mutex::new(QuarantineStore {
                records: BTreeMap::new(),
                writer: None,
                path: None,
                appended: 0,
            }),
            faults: DiskFaultInjector::none(),
            write_errors: AtomicUsize::new(0),
            disk_retries: AtomicUsize::new(0),
        }
    }

    /// Open (or create) a durable sharded journal rooted at `base`.
    ///
    /// Seeds the in-memory state from the consolidated journal at `base`
    /// (if present), then from every existing segment file in index order,
    /// and from the quarantine segment — line by line, each line parsed on
    /// its own, so torn, non-UTF-8 or otherwise malformed lines drop
    /// without costing their neighbours — then opens each segment for
    /// append. Every entry lands in its domain's shard, and a later line
    /// for a domain replaces an earlier one, so segment entries override
    /// the consolidated file's. A segment that cannot be opened for writing
    /// degrades to memory-only (counted in
    /// [`ShardedJournal::write_errors`]); the run still completes.
    pub fn open(base: &Path, shards: usize) -> ShardedJournal {
        ShardedJournal::open_with(base, shards, DiskFaultInjector::none())
    }

    /// [`ShardedJournal::open`], with appends filtered through a
    /// deterministic disk-fault injector (chaos testing: torn writes and
    /// transient no-space rejections absorbed by the bounded retry path).
    pub fn open_with(base: &Path, shards: usize, faults: DiskFaultInjector) -> ShardedJournal {
        let mut journal = ShardedJournal::in_memory(shards);
        journal.faults = faults;
        let mut line = Vec::new();
        journal.load(base, &mut line);
        for (index, shard) in journal.shards.iter().enumerate() {
            let path = segment_path(base, index);
            journal.load(&path, &mut line);
            match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(file) => shard.lock().writer = Some(file),
                Err(_) => {
                    journal.write_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        {
            let mut store = journal.quarantine.lock();
            let path = quarantine_path(base);
            // Cumulative records: the last well-formed line per domain is
            // the newest; torn tails drop like any segment line.
            for_each_line(&path, &mut line, |bytes| {
                if let Some(record) = std::str::from_utf8(bytes)
                    .ok()
                    .and_then(|text| serde_json::from_str::<QuarantineRecord>(text).ok())
                {
                    store.records.insert(record.domain.clone(), record);
                }
            });
            store.path = Some(path);
        }
        journal
    }

    /// Parse each line of the journal file at `path` into its domain's
    /// shard, reading through `line`.
    fn load(&self, path: &Path, line: &mut Vec<u8>) {
        for_each_line(path, line, |bytes| {
            if let Some(entry) = std::str::from_utf8(bytes)
                .ok()
                .and_then(JournalEntry::from_line)
            {
                self.insert_in_memory(entry);
            }
        });
    }

    /// Record a finished domain: insert it into its shard and append one
    /// JSONL line to the shard's segment file (if durable). The line is
    /// serialized *before* the shard lock is taken; transient append
    /// failures (injected or real) are retried within the bounded
    /// [`DiskFaultConfig::write_retries`] budget, and a record that
    /// exhausts it stays memory-only (the current run is unaffected, the
    /// domain re-processes on a future resume) and bumps
    /// [`ShardedJournal::write_errors`].
    pub fn record(&self, entry: JournalEntry) {
        let index = shard_of(&entry.domain, self.shards.len());
        let mut line = String::new();
        entry.write_json(&mut line);
        let Some(shard) = self.shards.get(index) else {
            return;
        };
        let mut shard = shard.lock();
        let record_index = shard.appended;
        shard.appended = shard.appended.saturating_add(1);
        let mut failed = false;
        if let Some(writer) = shard.writer.as_mut() {
            failed = !self.append_with_retry(writer, index as u64, record_index, &line);
        }
        shard.entries.insert(entry.domain.clone(), entry);
        drop(shard);
        if failed {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append `line` + newline to `writer`, absorbing injected and real
    /// transient failures within the bounded retry budget. After a torn
    /// attempt the garbage prefix is terminated with a lone newline before
    /// the whole line is retried, so the tolerant JSONL parser sees one
    /// droppable malformed line instead of the prefix glued onto the
    /// retried record. Returns whether the full line landed.
    fn append_with_retry(
        &self,
        writer: &mut File,
        stream: u64,
        record_index: u64,
        line: &str,
    ) -> bool {
        let mut torn = false;
        for attempt in 0..=self.faults.config.write_retries {
            if attempt > 0 {
                self.disk_retries.fetch_add(1, Ordering::Relaxed);
            }
            if torn {
                if writer.write_all(b"\n").is_err() {
                    continue;
                }
                torn = false;
            }
            match self.faults.fault(stream, record_index, attempt) {
                Some(DiskFault::ShortWrite) => {
                    let half = line.as_bytes().get(..line.len() / 2).unwrap_or(b"");
                    let _short = writer.write_all(half);
                    torn = true;
                    continue;
                }
                Some(DiskFault::NoSpace) => continue,
                None => {}
            }
            match writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
            {
                Ok(()) => return true,
                Err(_) => {
                    // A failed write_all may have landed a prefix; treat
                    // it as torn so the next attempt terminates it.
                    torn = true;
                }
            }
        }
        false
    }

    /// Record one dead letter against `domain`: bump its cumulative kill
    /// count, remember the panicking stage and message, and append the
    /// updated [`QuarantineRecord`] to the quarantine segment (created
    /// lazily on the first dead letter). Returns the new kill count —
    /// callers compare it against their poison threshold.
    pub fn record_dead_letter(&self, domain: &str, stage: &str, message: &str) -> u32 {
        let mut store = self.quarantine.lock();
        let record = store
            .records
            .entry(domain.to_string())
            .or_insert_with(|| QuarantineRecord {
                domain: domain.to_string(),
                kills: 0,
                stage: String::new(),
                message: String::new(),
            });
        record.kills = record.kills.saturating_add(1);
        record.stage = stage.to_string();
        record.message = message.to_string();
        let kills = record.kills;
        let mut line = String::new();
        record.write_json(&mut line);
        let mut open_failed = false;
        if store.writer.is_none() {
            if let Some(path) = store.path.clone() {
                match OpenOptions::new().create(true).append(true).open(&path) {
                    Ok(file) => store.writer = Some(file),
                    Err(_) => open_failed = true,
                }
            }
        }
        let record_index = store.appended;
        store.appended = store.appended.saturating_add(1);
        let mut failed = false;
        if let Some(writer) = store.writer.as_mut() {
            // The quarantine is one more append stream; give it the
            // stream id just past the shard segments.
            failed = !self.append_with_retry(writer, self.shards.len() as u64, record_index, &line);
        }
        drop(store);
        if open_failed || failed {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        kills
    }

    /// Every quarantined domain's record, sorted by domain.
    pub fn quarantine_records(&self) -> Vec<QuarantineRecord> {
        self.quarantine.lock().records.values().cloned().collect()
    }

    /// Domains whose cumulative kill count has reached `min_kills`, sorted:
    /// the set a resuming run skips outright.
    pub fn poisoned_domains(&self, min_kills: u32) -> Vec<String> {
        self.quarantine
            .lock()
            .records
            .values()
            .filter(|r| r.kills >= min_kills)
            .map(|r| r.domain.clone())
            .collect()
    }

    /// Append attempts that had to be retried (injected faults plus real
    /// transient errors). Purely informational: a non-zero count with zero
    /// [`ShardedJournal::write_errors`] means every fault was absorbed.
    pub fn disk_retries(&self) -> usize {
        self.disk_retries.load(Ordering::Relaxed)
    }

    fn insert_in_memory(&self, entry: JournalEntry) {
        let index = shard_of(&entry.domain, self.shards.len());
        if let Some(shard) = self.shards.get(index) {
            shard.lock().entries.insert(entry.domain.clone(), entry);
        }
    }

    /// Whether `domain` has a journaled outcome.
    pub fn contains(&self, domain: &str) -> bool {
        let index = shard_of(domain, self.shards.len());
        self.shards
            .get(index)
            .is_some_and(|shard| shard.lock().entries.contains_key(domain))
    }

    /// The journaled outcome for `domain`, if any (cloned out of the
    /// shard's lock).
    pub fn get(&self, domain: &str) -> Option<JournalEntry> {
        let index = shard_of(domain, self.shards.len());
        self.shards
            .get(index)
            .and_then(|shard| shard.lock().entries.get(domain).cloned())
    }

    /// Total journaled domains across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().entries.len())
            .sum()
    }

    /// Whether no domain is journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Appends that failed (plus segments that could not be opened for
    /// writing). Non-zero means durability is degraded — affected domains
    /// will re-process on resume — but never that the current run's
    /// results are wrong.
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Merge every shard into one sorted [`RunJournal`] — identical to the
    /// journal a serial, single-file run would have produced.
    pub fn merged(&self) -> RunJournal {
        let mut merged = RunJournal::new();
        for shard in &self.shards {
            for entry in shard.lock().entries.values() {
                merged.insert(entry.clone());
            }
        }
        merged
    }

    /// Replace the single file at `base` with the merged journal and
    /// delete the segment files: the end-of-run consolidation that keeps
    /// the on-disk artifact format of pre-sharding runs. The quarantine
    /// segment is compacted, not deleted — poisoned domains must stay
    /// skipped on resume.
    pub fn consolidate(&self, base: &Path) -> std::io::Result<()> {
        self.consolidate_until(base, ConsolidateStep::Complete)
    }

    /// [`ShardedJournal::consolidate`], stopping at `stop` — the kill-point
    /// hook for crash-window tests. The merged journal replaces `base`
    /// (temp file, fsync, rename, directory fsync) before any segment is
    /// deleted, so a crash at any point leaves the old consolidated file or
    /// the new one whole, plus every segment until the new file is durable.
    /// `base` is never rewritten in place: on a resumed run, every entry of
    /// the previous run lives only there.
    pub fn consolidate_until(&self, base: &Path, stop: ConsolidateStep) -> std::io::Result<()> {
        replace_file(base, |out| self.write_merged(out))?;
        if stop == ConsolidateStep::AfterSync {
            return Ok(());
        }
        for index in 0..self.shards.len() {
            let path = segment_path(base, index);
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
        }
        self.compact_quarantine()
    }

    /// Write the bytes of [`RunJournal::to_jsonl`] of the
    /// [`merged`](ShardedJournal::merged) journal to `out`, straight from
    /// the locked shards: every domain lives in one shard, so a merge of
    /// the shards' sorted entries is the journal in domain order.
    fn write_merged(&self, out: &mut impl Write) -> std::io::Result<()> {
        let shards: Vec<_> = self.shards.iter().map(|shard| shard.lock()).collect();
        let mut heads: Vec<_> = shards
            .iter()
            .map(|shard| shard.entries.values().peekable())
            .collect();
        let mut line = String::new();
        loop {
            let mut next: Option<(usize, &JournalEntry)> = None;
            for (index, head) in heads.iter_mut().enumerate() {
                if let Some(&entry) = head.peek() {
                    if next.is_none_or(|(_, first)| entry.domain < first.domain) {
                        next = Some((index, entry));
                    }
                }
            }
            let Some((index, entry)) = next else {
                return Ok(());
            };
            if let Some(head) = heads.get_mut(index) {
                head.next();
            }
            write_line(out, &mut line, entry)?;
        }
    }

    /// Rewrite the quarantine segment to one line per domain (the run
    /// appends a cumulative record per dead letter), or remove it when no
    /// domain is quarantined.
    fn compact_quarantine(&self) -> std::io::Result<()> {
        let mut store = self.quarantine.lock();
        let Some(path) = store.path.clone() else {
            return Ok(());
        };
        store.writer = None;
        if store.records.is_empty() {
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            return Ok(());
        }
        replace_file(&path, |out| {
            let mut line = String::new();
            store
                .records
                .values()
                .try_for_each(|record| write_line(out, &mut line, record))
        })?;
        store.writer = OpenOptions::new().append(true).open(&path).ok();
        store.appended = 0;
        Ok(())
    }
}

/// Write `value` to `out` as one JSONL line, serialized into `line`.
fn write_line(
    out: &mut impl Write,
    line: &mut String,
    value: &impl Serialize,
) -> std::io::Result<()> {
    line.clear();
    value.write_json(line);
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Bytes a journal file is read and written in at a time.
const IO_CHUNK: usize = 64 * 1024;

/// Call `each` with every line of the file at `path`, without its `\n`,
/// the last one even when no `\n` ends it. Lines are read as bytes into
/// `line`, which is reused from one line (and one file) to the next. A
/// missing or unreadable file has no lines; a read error ends the file.
fn for_each_line(path: &Path, line: &mut Vec<u8>, mut each: impl FnMut(&[u8])) {
    let Ok(file) = File::open(path) else {
        return;
    };
    let mut reader = BufReader::with_capacity(IO_CHUNK, file);
    loop {
        line.clear();
        match reader.read_until(b'\n', line) {
            Ok(0) | Err(_) => return,
            Ok(_) => each(line.strip_suffix(b"\n").unwrap_or(line)),
        }
    }
}

/// Atomically replace the file at `path` with the bytes `write` produces:
/// write them through a buffer to a sibling `<path>.tmp`, fsync it, rename
/// it over `path`, then fsync the parent directory so the rename itself is
/// durable. A crash at any step leaves either the old file or the new one
/// whole at `path`.
fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = BufWriter::with_capacity(IO_CHUNK, File::create(&tmp)?);
    write(&mut out)?;
    let file = out.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Where [`ShardedJournal::consolidate_until`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsolidateStep {
    /// Stop after the consolidated file is durable in place of the old
    /// one, before any segment is deleted: the crash window the durability
    /// ordering protects.
    AfterSync,
    /// Run consolidation to completion.
    Complete,
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

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aipan-shard-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in [1usize, 2, 8, 13] {
            for domain in ["a.com", "b.com", "walmart.com", ""] {
                let s = shard_of(domain, n);
                assert!(s < n);
                assert_eq!(s, shard_of(domain, n), "must be deterministic");
            }
        }
        // FNV actually spreads: 100 domains over 8 shards hit every shard.
        let mut seen = [false; 8];
        for i in 0..100 {
            seen[shard_of(&format!("company{i}.com"), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn in_memory_roundtrip_matches_runjournal() {
        let journal = ShardedJournal::in_memory(4);
        assert!(journal.is_empty());
        for (i, domain) in ["z.com", "a.com", "m.com"].iter().enumerate() {
            journal.record(entry(domain, i));
        }
        assert_eq!(journal.len(), 3);
        assert!(journal.contains("a.com"));
        assert!(!journal.contains("q.com"));
        assert_eq!(journal.get("m.com").unwrap().english_privacy_pages, 2);
        let merged = journal.merged();
        let domains: Vec<&str> = merged.iter().map(|e| e.domain.as_str()).collect();
        assert_eq!(domains, vec!["a.com", "m.com", "z.com"]);
        assert_eq!(journal.write_errors(), 0);
    }

    #[test]
    fn durable_segments_survive_reopen_and_tolerate_torn_tail() {
        let dir = scratch_dir("reopen");
        let base = dir.join("run.jsonl");
        {
            let journal = ShardedJournal::open(&base, 4);
            for i in 0..20 {
                journal.record(entry(&format!("site{i}.com"), i));
            }
            assert_eq!(journal.write_errors(), 0);
        }
        // Simulate a kill mid-append: truncate one non-empty segment
        // inside its final line.
        let victim = (0..4)
            .map(|i| segment_path(&base, i))
            .find(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .expect("some non-empty segment");
        let bytes = std::fs::read(&victim).unwrap();
        let torn_entry_domain = {
            let text = String::from_utf8(bytes.clone()).unwrap();
            let last = text.trim_end().lines().last().unwrap();
            serde_json::from_str::<JournalEntry>(last).unwrap().domain
        };
        std::fs::write(&victim, &bytes[..bytes.len() - 5]).unwrap();

        let reopened = ShardedJournal::open(&base, 4);
        assert_eq!(reopened.len(), 19, "torn line dropped, rest recovered");
        assert!(!reopened.contains(&torn_entry_domain));
        // Re-recording the torn domain completes the journal again.
        reopened.record(entry(&torn_entry_domain, 99));
        assert_eq!(reopened.len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_seeds_from_legacy_single_file() {
        let dir = scratch_dir("legacy");
        let base = dir.join("run.jsonl");
        let mut legacy = RunJournal::new();
        legacy.insert(entry("old.com", 3));
        legacy.insert(entry("older.com", 1));
        std::fs::write(&base, legacy.to_jsonl()).unwrap();

        let journal = ShardedJournal::open(&base, 4);
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.get("old.com").unwrap().english_privacy_pages, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consolidate_rewrites_single_file_and_removes_segments() {
        let dir = scratch_dir("consolidate");
        let base = dir.join("run.jsonl");
        let journal = ShardedJournal::open(&base, 4);
        for i in 0..10 {
            journal.record(entry(&format!("d{i}.com"), i));
        }
        journal.consolidate(&base).expect("consolidate");
        for i in 0..4 {
            assert!(!segment_path(&base, i).exists());
        }
        let text = std::fs::read_to_string(&base).unwrap();
        assert_eq!(RunJournal::from_jsonl(&text), journal.merged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consolidate_kill_point_after_sync_loses_nothing() {
        let dir = scratch_dir("killpoint");
        let base = dir.join("run.jsonl");
        let journal = ShardedJournal::open(&base, 4);
        for i in 0..15 {
            journal.record(entry(&format!("d{i}.com"), i));
        }
        // Crash in the durability window: the consolidated file is synced
        // but no segment has been deleted yet.
        journal
            .consolidate_until(&base, ConsolidateStep::AfterSync)
            .expect("consolidate to kill point");
        drop(journal);

        // The window is benign in *both* directions: the consolidated file
        // already holds everything, and the segments still exist, so a
        // reopen (which seeds from the legacy file and the segments) sees
        // every domain exactly once.
        let reopened = ShardedJournal::open(&base, 4);
        assert_eq!(reopened.len(), 15, "no loss, no duplication");
        for i in 0..15 {
            assert!(reopened.contains(&format!("d{i}.com")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consolidate_replaces_old_journal_instead_of_rewriting_it() {
        let dir = scratch_dir("replace");
        let base = dir.join("run.jsonl");
        let journal = ShardedJournal::open(&base, 4);
        for i in 0..6 {
            journal.record(entry(&format!("d{i}.com"), i));
        }
        journal.consolidate(&base).expect("first consolidate");
        drop(journal);
        let old = std::fs::read(&base).unwrap();
        // A hard link keeps the first consolidated file's inode reachable:
        // rewriting `base` in place would change the link's bytes too.
        let link = dir.join("old.jsonl");
        std::fs::hard_link(&base, &link).unwrap();

        // A resumed run: everything so far lives only in `base`.
        let resumed = ShardedJournal::open(&base, 4);
        resumed.record(entry("late.com", 7));
        resumed.consolidate(&base).expect("second consolidate");

        assert_eq!(
            std::fs::read(&link).unwrap(),
            old,
            "old journal rewritten in place"
        );
        let merged = RunJournal::from_jsonl(&std::fs::read_to_string(&base).unwrap());
        assert_eq!(merged.len(), 7, "base holds every entry");
        assert_eq!(merged, resumed.merged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_disk_faults_absorbed_by_bounded_retries() {
        let dir = scratch_dir("diskchaos");
        let base = dir.join("run.jsonl");
        let chaos = DiskFaultInjector::new(11, DiskFaultConfig::chaotic());
        let retries_first = {
            let journal = ShardedJournal::open_with(&base, 4, chaos);
            for i in 0..60 {
                journal.record(entry(&format!("site{i}.com"), i));
            }
            assert_eq!(journal.write_errors(), 0, "every episode fits the budget");
            assert!(
                journal.disk_retries() > 0,
                "chaotic config must actually fire"
            );
            journal.disk_retries()
        };
        // Everything survives reopen: torn prefixes were terminated into
        // droppable lines, every record eventually landed whole.
        let reopened = ShardedJournal::open(&base, 4);
        assert_eq!(reopened.len(), 60);
        // And the fault schedule is a pure function of its key: a second
        // run under the same seed retries exactly as often.
        let dir2 = scratch_dir("diskchaos2");
        let base2 = dir2.join("run.jsonl");
        let journal2 = ShardedJournal::open_with(&base2, 4, chaos);
        for i in 0..60 {
            journal2.record(entry(&format!("site{i}.com"), i));
        }
        assert_eq!(journal2.disk_retries(), retries_first);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn quarantine_accumulates_persists_and_survives_consolidation() {
        let dir = scratch_dir("quarantine");
        let base = dir.join("run.jsonl");
        {
            let journal = ShardedJournal::open(&base, 4);
            assert!(
                !quarantine_path(&base).exists(),
                "no dead letters, no quarantine file"
            );
            assert_eq!(
                journal.record_dead_letter("boom.com", "crawl", "host exploded"),
                1
            );
            assert_eq!(
                journal.record_dead_letter("fizzle.com", "process", "oom"),
                1
            );
            assert_eq!(
                journal.record_dead_letter("boom.com", "crawl", "host exploded"),
                2
            );
            journal.record(entry("ok.com", 1));
        }
        let journal = ShardedJournal::open(&base, 4);
        let records = journal.quarantine_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].domain, "boom.com");
        assert_eq!(records[0].kills, 2);
        assert_eq!(records[0].stage, "crawl");
        assert_eq!(records[1].domain, "fizzle.com");
        assert_eq!(records[1].kills, 1);
        assert_eq!(journal.poisoned_domains(2), vec!["boom.com".to_string()]);
        assert_eq!(
            journal.poisoned_domains(1),
            vec!["boom.com".to_string(), "fizzle.com".to_string()]
        );

        // Consolidation compacts the quarantine (3 appended lines → 2
        // records) but must not delete it: the poison set survives.
        journal.consolidate(&base).expect("consolidate");
        let text = std::fs::read_to_string(quarantine_path(&base)).expect("quarantine kept");
        assert_eq!(text.lines().count(), 2);
        let reopened = ShardedJournal::open(&base, 4);
        assert_eq!(reopened.poisoned_domains(2), vec!["boom.com".to_string()]);
        // ...and further dead letters keep accumulating after compaction.
        assert_eq!(
            reopened.record_dead_letter("fizzle.com", "process", "oom"),
            2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_quarantine_counts_without_files() {
        let journal = ShardedJournal::in_memory(4);
        assert_eq!(journal.record_dead_letter("boom.com", "crawl", "x"), 1);
        assert_eq!(journal.record_dead_letter("boom.com", "process", "y"), 2);
        let records = journal.quarantine_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].stage, "process", "latest stage wins");
        assert_eq!(journal.write_errors(), 0);
    }

    #[test]
    fn concurrent_records_from_many_threads() {
        let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let journal = &journal;
                scope.spawn(move || {
                    for i in 0..25usize {
                        journal.record(entry(&format!("t{t}-d{i}.com"), i));
                    }
                });
            }
        });
        assert_eq!(journal.len(), 200);
    }
}
