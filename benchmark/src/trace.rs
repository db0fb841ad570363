//! Timing wrappers for the traced chain.
//!
//! [`TimingChatbot`] wraps the simulated chatbot and [`TimingHost`] wraps
//! each registered virtual host. Both are called synchronously on the
//! worker thread that runs the enclosing layer, so each adds its time and
//! counts to that thread's [`Inner`] totals. The chain snapshots those
//! totals around every layer call; the difference is the wrapper time
//! inside the call, which turns the call's wall time into self time.

use crate::alloc;
use aipan_chatbot::{Chatbot, SimulatedChatbot, TaskPrompt, TokenUsage};
use aipan_net::{Request, Response, VirtualHost};
use aipan_webgen::site::LazySite;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Per-thread totals of the wrapped calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inner {
    /// Nanoseconds inside host calls.
    pub host_ns: u64,
    /// Allocations inside host calls.
    pub host_allocs: u64,
    /// Lazy sites materialised by a host call.
    pub sites_built: u64,
    /// Nanoseconds inside chatbot calls.
    pub chat_ns: u64,
    /// Allocations inside chatbot calls.
    pub chat_allocs: u64,
    /// Chatbot completions, re-prompts included.
    pub chat_calls: u64,
    /// Completions issued as a re-prompt (attempt > 0).
    pub reprompts: u64,
    /// Completions issued as the first re-prompt (attempt 1). The
    /// annotate tasks re-prompt exactly when a completion is not
    /// well-formed, so each one marks a malformed first attempt.
    pub first_reprompts: u64,
    /// Prompt-input bytes sent to the chatbot.
    pub input_bytes: u64,
    /// Output bytes returned by the chatbot.
    pub output_bytes: u64,
}

impl Inner {
    const ZERO: Inner = Inner {
        host_ns: 0,
        host_allocs: 0,
        sites_built: 0,
        chat_ns: 0,
        chat_allocs: 0,
        chat_calls: 0,
        reprompts: 0,
        first_reprompts: 0,
        input_bytes: 0,
        output_bytes: 0,
    };

    /// This thread's totals so far.
    pub fn now() -> Inner {
        INNER.with(Cell::get)
    }

    /// Totals accrued since `earlier` (a snapshot from the same thread).
    pub fn since(self, earlier: Inner) -> Inner {
        Inner {
            host_ns: self.host_ns - earlier.host_ns,
            host_allocs: self.host_allocs - earlier.host_allocs,
            sites_built: self.sites_built - earlier.sites_built,
            chat_ns: self.chat_ns - earlier.chat_ns,
            chat_allocs: self.chat_allocs - earlier.chat_allocs,
            chat_calls: self.chat_calls - earlier.chat_calls,
            reprompts: self.reprompts - earlier.reprompts,
            first_reprompts: self.first_reprompts - earlier.first_reprompts,
            input_bytes: self.input_bytes - earlier.input_bytes,
            output_bytes: self.output_bytes - earlier.output_bytes,
        }
    }

    /// Add `other` to these totals.
    pub fn add(&mut self, other: Inner) {
        self.host_ns += other.host_ns;
        self.host_allocs += other.host_allocs;
        self.sites_built += other.sites_built;
        self.chat_ns += other.chat_ns;
        self.chat_allocs += other.chat_allocs;
        self.chat_calls += other.chat_calls;
        self.reprompts += other.reprompts;
        self.first_reprompts += other.first_reprompts;
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
    }
}

thread_local! {
    static INNER: Cell<Inner> = const { Cell::new(Inner::ZERO) };
}

fn update(f: impl FnOnce(&mut Inner)) {
    INNER.with(|cell| {
        let mut inner = cell.get();
        f(&mut inner);
        cell.set(inner);
    });
}

/// Nanoseconds since `start`, saturating.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The simulated chatbot, timed and counted per call.
pub struct TimingChatbot {
    inner: SimulatedChatbot,
}

impl TimingChatbot {
    /// Wrap `inner`.
    pub fn new(inner: SimulatedChatbot) -> TimingChatbot {
        TimingChatbot { inner }
    }
}

impl Chatbot for TimingChatbot {
    fn complete(&self, prompt: &TaskPrompt, input: &str) -> String {
        self.complete_attempt(prompt, input, 0)
    }

    fn complete_attempt(&self, prompt: &TaskPrompt, input: &str, attempt: u32) -> String {
        let allocs = alloc::thread_count();
        let start = Instant::now();
        let output = self.inner.complete_attempt(prompt, input, attempt);
        let ns = ns_since(start);
        let allocs = alloc::thread_count() - allocs;
        update(|t| {
            t.chat_ns += ns;
            t.chat_allocs += allocs;
            t.chat_calls += 1;
            t.reprompts += u64::from(attempt > 0);
            t.first_reprompts += u64::from(attempt == 1);
            t.input_bytes += input.len() as u64;
            t.output_bytes += output.len() as u64;
        });
        output
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }
}

/// A registered virtual host, timed per request. For a lazy world it also
/// sees whether the request materialised the site.
pub struct TimingHost {
    inner: Arc<dyn VirtualHost>,
    lazy: Option<Arc<LazySite>>,
}

impl TimingHost {
    /// Wrap `inner`; `lazy` is the same host's lazy-site handle, if any.
    pub fn new(inner: Arc<dyn VirtualHost>, lazy: Option<Arc<LazySite>>) -> TimingHost {
        TimingHost { inner, lazy }
    }
}

impl VirtualHost for TimingHost {
    fn handle(&self, request: &Request) -> Response {
        let was_built = self.lazy.as_ref().is_none_or(|site| site.is_built());
        let allocs = alloc::thread_count();
        let start = Instant::now();
        let response = self.inner.handle(request);
        let ns = ns_since(start);
        let allocs = alloc::thread_count() - allocs;
        let built = !was_built && self.lazy.as_ref().is_some_and(|site| site.is_built());
        update(|t| {
            t.host_ns += ns;
            t.host_allocs += allocs;
            t.sites_built += u64::from(built);
        });
        response
    }
}
