//! Heap budget for what a lazy world holds.
//!
//! A lazy world keeps the universe, the search index and one host per
//! domain, and nothing else per domain: a domain's fate, planted truth,
//! style and policy path are computed when asked, and its pages when they
//! are first fetched. This test pins that. A thread-local counting global
//! allocator, as in `crates/lint/tests/alloc_budget.rs`, counts the live
//! heap bytes that `build_world_lazy` leaves behind on the building thread,
//! per unique domain. Nothing is timed.
//!
//! The budget is the measured value plus 5 %. Keeping each domain's
//! planted truth again costs about 7.5 KB per domain, so it fails here.

use aipan_webgen::{build_world_lazy, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live heap bytes per unique domain after `build_world_lazy(small(1,
/// 800))`: measured 583.2 (463,076 over 794 domains). It was 8,432.9
/// while the world kept every domain's fate, truth, style and policy path.
const BYTES_PER_DOMAIN: f64 = 612.4;

/// The system allocator, counting live bytes per thread.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: usize, sign: i64) {
    let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
    // `try_with` fails only while the thread tears down its locals.
    let _ = LIVE.try_with(|n| n.set(n.get() + sign * bytes));
}

fn live() -> i64 {
    LIVE.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only touches a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), -1);
        note(new_size, 1);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), -1);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_lazy_world_holds_no_per_domain_metadata() {
    let before = live();
    let world = build_world_lazy(WorldConfig::small(1, 800));
    let held = live() - before;
    let domains = world.universe.unique_domains().len();
    assert_eq!(domains, 794);
    let per_domain = held as f64 / domains as f64;
    assert!(
        per_domain <= BYTES_PER_DOMAIN,
        "build_world_lazy left {held} live bytes for {domains} domains: {per_domain:.1} per \
         domain, budget {BYTES_PER_DOMAIN}"
    );
    // Nothing is rendered until a page is fetched.
    assert_eq!(world.site_memory.current_bytes(), 0);
}
