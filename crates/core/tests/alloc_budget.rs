//! Allocation budget for the crawl, extract, segment, chatbot, annotate and
//! journal stages.
//!
//! Crawls a small fixed-seed world, then extracts each domain's privacy
//! pages and segments and annotates its main English policy exactly as
//! `Pipeline::process_domain_arena` does, through a chatbot wrapper that
//! counts its calls, its input bytes and the allocations made inside each
//! call. A thread-local counting global allocator attributes every
//! allocation to the test thread, so the counts do not depend on timing or
//! on the test harness.
//!
//! Calls and input bytes are pinned exactly: they are the work the
//! protocol asks for, and no speedup changes them; so are the domains,
//! pages and policies each stage takes in. Allocations are pinned as
//! budgets — crawl allocations per domain, extract allocations per HTML
//! privacy page, chatbot allocations per call, and segment and annotate
//! allocations per policy with the chatbot calls made inside `segment` and
//! `annotate_policy_in` taken out — each at the measured value plus
//! [`SLACK`], so a change that makes a stage allocate more per unit of
//! work fails here instead of only showing in the benchmark's traced
//! `crawler.alloc`, `html.alloc`, `segment.alloc`, `chatbot.alloc` and
//! `annotate.alloc`.
//!
//! The journal stage takes every domain's outcome through a durable
//! `ShardedJournal` as a run and a resume do: `record` each one, then
//! `consolidate`, then `open` the consolidated file again. It pins the
//! allocations per entry of each step, and the largest single allocation
//! `consolidate` makes, which stays one I/O buffer rather than growing
//! with the journal.
//!
//! The counts are the same in debug and release builds; the slack covers
//! small differences in how the standard library grows buffers between
//! toolchains. Tables built lazily on first use are counted by the test
//! thread that builds them, so each pin is the count a test reads when it
//! runs alone, and a test that runs after another reads at most that. A
//! change that lowers a count re-pins it in the same change.

use aipan_chatbot::{Chatbot, SimulatedChatbot, TaskPrompt, TokenUsage};
use aipan_core::annotate::{annotate_policy_in, AnnotateArena};
use aipan_core::segment::{segment, Method};
use aipan_core::{
    AnnotatedPolicy, JournalEntry, Pipeline, PipelineConfig, SegmentationMethod, ShardedJournal,
    DEFAULT_SHARDS,
};
use aipan_crawler::crawl_domain_with;
use aipan_net::fault::FaultInjector;
use aipan_net::http::ContentType;
use aipan_net::Client;
use aipan_webgen::{build_world, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 1;
const COMPANIES: usize = 80;

/// Domains crawled: every domain of the world.
const DOMAINS: u64 = 80;
/// Allocations per domain crawl: 23,118 over 80 domains. It was 46,940
/// (586.75, debug build) while the crawler rendered every homepage and
/// seed page to text to read its links, and 24,482 (306.02) while the tree
/// builder cloned each open tag name into a map and robots.txt parsing
/// copied every key and value.
const CRAWL_ALLOCS_PER_DOMAIN: f64 = 288.98;
/// HTML privacy pages of the successful crawls, each extracted once.
const HTML_PAGES: u64 = 124;
/// Allocations per HTML privacy page of `english_privacy_pages` (extract
/// and the language check): 13,122 over 124 pages. It was 14,186 (114.4)
/// while `privacy_pages` deduplicated through two hash sets.
const EXTRACT_ALLOCS_PER_PAGE: f64 = 105.82;
/// Policies segmented: each domain's longest English privacy page.
const SEGMENTED: u64 = 66;
/// Allocations per segmented policy outside the chatbot calls: 24,172
/// over 66 policies.
const SEGMENT_ALLOCS_PER_POLICY: f64 = 366.24;

/// Chatbot completions (segmentation and annotation, re-prompts included).
const CALLS: u64 = 439;
/// Bytes of task input sent to the chatbot.
const INPUT_BYTES: u64 = 2_344_014;
/// Policies segmented and annotated.
const POLICIES: u64 = 65;
/// Allocations per chatbot call: 88,261 over 439 calls. It was 95,164
/// (216.8) while the vocabulary tokenizer lower-cased every token with an
/// upper-case letter into a `String` and interned words in a `HashMap`.
const CHATBOT_ALLOCS_PER_CALL: f64 = 201.05;
/// Allocations per annotated policy outside the chatbot calls: 97,323
/// over 65 policies. It was 100,487 (1546.0) while `fold_into` pushed one
/// char at a time, growing the dedup keys as it went.
const ANNOTATE_ALLOCS_PER_POLICY: f64 = 1497.28;
/// Journal entries: one per domain of the world.
const ENTRIES: u64 = 80;
/// Allocations per `ShardedJournal::record`: 889 over 80 entries.
const RECORD_ALLOCS_PER_ENTRY: f64 = 11.12;
/// Allocations per entry of `open` on the consolidated journal: 10,105
/// over 80 entries.
const OPEN_ALLOCS_PER_ENTRY: f64 = 126.32;
/// Allocations per entry of `consolidate`: 42 over 80 entries.
const CONSOLIDATE_ALLOCS_PER_ENTRY: f64 = 0.53;
/// The largest single allocation `consolidate` makes, in bytes: its write
/// buffer.
const CONSOLIDATE_LARGEST_ALLOC: f64 = 65_536.0;
/// How far a per-unit allocation count may grow past its pin.
const SLACK: f64 = 0.05;

/// The system allocator, counting allocations per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with` fails only while the thread tears down its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// The largest allocation since the last call, in bytes.
fn take_largest() -> usize {
    LARGEST.try_with(|n| n.replace(0)).unwrap_or(0)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only touches a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The simulated chatbot, counting calls, input bytes and the allocations
/// made inside each call (the returned completion included).
struct CountingChatbot {
    inner: SimulatedChatbot,
    calls: AtomicU64,
    input_bytes: AtomicU64,
    allocs: AtomicU64,
}

impl Chatbot for CountingChatbot {
    fn complete(&self, prompt: &TaskPrompt, input: &str) -> String {
        self.complete_attempt(prompt, input, 0)
    }

    fn complete_attempt(&self, prompt: &TaskPrompt, input: &str, attempt: u32) -> String {
        let before = allocs();
        let output = self.inner.complete_attempt(prompt, input, attempt);
        self.allocs.fetch_add(allocs() - before, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.input_bytes
            .fetch_add(input.len() as u64, Ordering::Relaxed);
        output
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }
}

/// Allocation counts of segment + annotate over the world's policies, and
/// the journal entries of the world's domains.
#[derive(Debug)]
struct Counts {
    domains: u64,
    crawl_allocs: u64,
    html_pages: u64,
    extract_allocs: u64,
    segmented: u64,
    segment_allocs: u64,
    calls: u64,
    input_bytes: u64,
    policies: u64,
    chatbot_allocs: u64,
    annotate_allocs: u64,
    entries: Vec<JournalEntry>,
}

fn measure() -> Counts {
    let world = build_world(WorldConfig::small(SEED, COMPANIES));
    let config = PipelineConfig::default();
    let pipeline = Pipeline::new(config.clone());
    let bot = CountingChatbot {
        inner: SimulatedChatbot::new(config.profile.clone(), config.seed),
        calls: AtomicU64::new(0),
        input_bytes: AtomicU64::new(0),
        allocs: AtomicU64::new(0),
    };
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let mut arena = AnnotateArena::new();
    let (mut domains, mut crawl_allocs) = (0u64, 0u64);
    let (mut html_pages, mut extract_allocs) = (0u64, 0u64);
    let (mut segmented, mut segment_allocs) = (0u64, 0u64);
    let mut policies = 0u64;
    let mut annotate_allocs = 0u64;
    let mut entries = Vec::new();
    for company in world.universe.unique_domains() {
        let before = allocs();
        let crawl = crawl_domain_with(&client, &company.domain, &config.crawl);
        crawl_allocs += allocs() - before;
        domains += 1;
        let mut entry = JournalEntry {
            domain: company.domain.clone(),
            english_privacy_pages: 0,
            policy: None,
        };
        if crawl.is_success() {
            html_pages += crawl
                .privacy_pages()
                .iter()
                .filter(|p| p.content_type == ContentType::Html)
                .count() as u64;
            let before = allocs();
            let pages = pipeline.english_privacy_pages(&crawl);
            extract_allocs += allocs() - before;
            entry.english_privacy_pages = pages.len();
            let best = pages.into_iter().max_by_key(|(doc, _)| doc.word_count());
            if let Some((doc, path)) = best {
                let chat_before = bot.allocs.load(Ordering::Relaxed);
                let before = allocs();
                let seg = segment(&bot, &doc);
                let total = allocs() - before;
                segment_allocs += total - (bot.allocs.load(Ordering::Relaxed) - chat_before);
                segmented += 1;
                if seg.is_successful_extraction(&doc) {
                    let chat_before = bot.allocs.load(Ordering::Relaxed);
                    let before = allocs();
                    let outcome = annotate_policy_in(&bot, &doc, &seg, config.annotate, &mut arena);
                    let total = allocs() - before;
                    annotate_allocs += total - (bot.allocs.load(Ordering::Relaxed) - chat_before);
                    policies += 1;
                    entry.policy = Some(AnnotatedPolicy {
                        domain: company.domain.clone(),
                        sector: company.sector,
                        annotations: outcome.annotations,
                        fallbacks: outcome.fallbacks,
                        hallucinations_removed: outcome.hallucinations_removed,
                        core_word_count: seg.core_word_count(&doc),
                        segmentation: match seg.method {
                            Method::Headings => SegmentationMethod::Headings,
                            Method::TextAnalysis => SegmentationMethod::TextAnalysis,
                        },
                        policy_path: path,
                    });
                }
            }
        }
        entries.push(entry);
    }
    Counts {
        domains,
        crawl_allocs,
        html_pages,
        extract_allocs,
        segmented,
        segment_allocs,
        calls: bot.calls.load(Ordering::Relaxed),
        input_bytes: bot.input_bytes.load(Ordering::Relaxed),
        policies,
        chatbot_allocs: bot.allocs.load(Ordering::Relaxed),
        annotate_allocs,
        entries,
    }
}

/// Allocations of the journal stage over `entries`.
#[derive(Debug)]
struct JournalCounts {
    entries: u64,
    record: u64,
    consolidate: u64,
    consolidate_largest: usize,
    open: u64,
}

fn measure_journal(entries: Vec<JournalEntry>) -> JournalCounts {
    let dir = std::env::temp_dir().join(format!("aipan-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let base = dir.join("run.jsonl");
    let count = entries.len() as u64;
    let journal = ShardedJournal::open(&base, DEFAULT_SHARDS);
    let before = allocs();
    for entry in entries {
        journal.record(entry);
    }
    let record = allocs() - before;
    take_largest();
    let before = allocs();
    journal.consolidate(&base).expect("consolidate");
    let consolidate = allocs() - before;
    let consolidate_largest = take_largest();
    drop(journal);
    let before = allocs();
    let reopened = ShardedJournal::open(&base, DEFAULT_SHARDS);
    let open = allocs() - before;
    assert_eq!(reopened.len() as u64, count, "every entry reopens");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    JournalCounts {
        entries: count,
        record,
        consolidate,
        consolidate_largest,
        open,
    }
}

#[test]
fn chatbot_and_annotate_stay_within_their_allocation_budgets() {
    let mut counts = measure();
    counts.entries.clear();
    eprintln!("{counts:?}");
    assert_eq!(
        (counts.calls, counts.input_bytes, counts.policies),
        (CALLS, INPUT_BYTES, POLICIES),
        "the work changed: chatbot calls, input bytes or policies"
    );
    let per_call = counts.chatbot_allocs as f64 / counts.calls as f64;
    let per_policy = counts.annotate_allocs as f64 / counts.policies as f64;
    eprintln!("chatbot allocs/call {per_call:.2}, annotate allocs/policy {per_policy:.2}");
    let budget = CHATBOT_ALLOCS_PER_CALL * (1.0 + SLACK);
    assert!(
        per_call <= budget,
        "chatbot allocations per call grew: {per_call:.2} > budget {budget:.2}"
    );
    let budget = ANNOTATE_ALLOCS_PER_POLICY * (1.0 + SLACK);
    assert!(
        per_policy <= budget,
        "annotate allocations per policy grew: {per_policy:.2} > budget {budget:.2}"
    );
}

#[test]
fn crawl_extract_and_segment_stay_within_their_allocation_budgets() {
    let mut counts = measure();
    counts.entries.clear();
    eprintln!("{counts:?}");
    assert_eq!(
        (counts.domains, counts.html_pages, counts.segmented),
        (DOMAINS, HTML_PAGES, SEGMENTED),
        "the work changed: domains crawled, pages extracted or policies segmented"
    );
    for (stage, allocs, units, pin) in [
        (
            "crawl allocations per domain",
            counts.crawl_allocs,
            counts.domains,
            CRAWL_ALLOCS_PER_DOMAIN,
        ),
        (
            "extract allocations per page",
            counts.extract_allocs,
            counts.html_pages,
            EXTRACT_ALLOCS_PER_PAGE,
        ),
        (
            "segment allocations per policy",
            counts.segment_allocs,
            counts.segmented,
            SEGMENT_ALLOCS_PER_POLICY,
        ),
    ] {
        let measured = allocs as f64 / units as f64;
        eprintln!("{stage}: {measured:.2}");
        let budget = pin * (1.0 + SLACK);
        assert!(
            measured <= budget,
            "{stage} grew: {measured:.2} > budget {budget:.2}"
        );
    }
}

#[test]
fn journal_stays_within_its_allocation_budget() {
    let journal = measure_journal(measure().entries);
    eprintln!("{journal:?}");
    assert_eq!(journal.entries, ENTRIES, "the journal's work changed");
    let per_entry = |n: u64| n as f64 / journal.entries as f64;
    for (step, measured, pin) in [
        ("record", per_entry(journal.record), RECORD_ALLOCS_PER_ENTRY),
        ("open", per_entry(journal.open), OPEN_ALLOCS_PER_ENTRY),
        (
            "consolidate",
            per_entry(journal.consolidate),
            CONSOLIDATE_ALLOCS_PER_ENTRY,
        ),
        (
            "consolidate's largest allocation",
            journal.consolidate_largest as f64,
            CONSOLIDATE_LARGEST_ALLOC,
        ),
    ] {
        eprintln!("journal {step}: {measured:.2}");
        let budget = pin * (1.0 + SLACK);
        assert!(
            measured <= budget,
            "journal {step} grew: {measured:.2} > budget {budget:.2}"
        );
    }
}
