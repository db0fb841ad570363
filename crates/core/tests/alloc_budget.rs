//! Allocation budget for the chatbot and annotate stages.
//!
//! Crawls a small fixed-seed world, then segments and annotates each
//! domain's main English policy exactly as `Pipeline::process_domain_arena`
//! does, through a chatbot wrapper that counts its calls, its input bytes
//! and the allocations made inside each call. A thread-local counting
//! global allocator attributes every allocation to the test thread, so the
//! counts do not depend on timing or on the test harness.
//!
//! Calls and input bytes are pinned exactly: they are the work the
//! protocol asks for, and no speedup changes them. Allocations are pinned
//! as budgets — chatbot allocations per call, and annotate allocations per
//! policy with the chatbot calls made inside `annotate_policy_in` taken
//! out — each at the measured value plus [`SLACK`], so a change that makes
//! either stage allocate more per unit of work fails here instead of only
//! showing in the benchmark's traced `chatbot.alloc` and `annotate.alloc`.
//! The counts are the same in debug and release builds; the slack covers
//! small differences in how the standard library grows buffers between
//! toolchains. A change that lowers a count re-pins it in the same change.

use aipan_chatbot::{Chatbot, SimulatedChatbot, TaskPrompt, TokenUsage};
use aipan_core::annotate::{annotate_policy_in, AnnotateArena};
use aipan_core::segment::segment;
use aipan_core::{Pipeline, PipelineConfig};
use aipan_crawler::crawl_domain_with;
use aipan_net::fault::FaultInjector;
use aipan_net::Client;
use aipan_webgen::{build_world, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 1;
const COMPANIES: usize = 80;

/// Chatbot completions (segmentation and annotation, re-prompts included).
const CALLS: u64 = 439;
/// Bytes of task input sent to the chatbot.
const INPUT_BYTES: u64 = 2_344_014;
/// Policies segmented and annotated.
const POLICIES: u64 = 65;
/// Allocations per chatbot call: 95,164 over 439 calls.
const CHATBOT_ALLOCS_PER_CALL: f64 = 216.8;
/// Allocations per annotated policy outside the chatbot calls: 122,754
/// over 65 policies.
const ANNOTATE_ALLOCS_PER_POLICY: f64 = 1888.6;
/// How far a per-unit allocation count may grow past its pin.
const SLACK: f64 = 0.05;

/// The system allocator, counting allocations per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with` fails only while the thread tears down its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only touches a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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

/// Allocation counts of segment + annotate over the world's policies.
#[derive(Debug)]
struct Counts {
    calls: u64,
    input_bytes: u64,
    policies: u64,
    chatbot_allocs: u64,
    annotate_allocs: u64,
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
    let mut policies = 0u64;
    let mut annotate_allocs = 0u64;
    for company in world.universe.unique_domains() {
        let crawl = crawl_domain_with(&client, &company.domain, &config.crawl);
        if !crawl.is_success() {
            continue;
        }
        let best = pipeline
            .english_privacy_pages(&crawl)
            .into_iter()
            .max_by_key(|(doc, _)| doc.word_count());
        let Some((doc, _)) = best else { continue };
        let seg = segment(&bot, &doc);
        if !seg.is_successful_extraction(&doc) {
            continue;
        }
        let chat_before = bot.allocs.load(Ordering::Relaxed);
        let before = allocs();
        let outcome = annotate_policy_in(&bot, &doc, &seg, config.annotate, &mut arena);
        let total = allocs() - before;
        annotate_allocs += total - (bot.allocs.load(Ordering::Relaxed) - chat_before);
        drop(outcome);
        policies += 1;
    }
    Counts {
        calls: bot.calls.load(Ordering::Relaxed),
        input_bytes: bot.input_bytes.load(Ordering::Relaxed),
        policies,
        chatbot_allocs: bot.allocs.load(Ordering::Relaxed),
        annotate_allocs,
    }
}

#[test]
fn chatbot_and_annotate_stay_within_their_allocation_budgets() {
    let counts = measure();
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
