//! Counting global allocator for traced runs.
//!
//! Every allocation made while counting is enabled bumps a counter private
//! to the allocating thread. A traced chain snapshots its own thread's
//! counter around each layer call, which attributes the allocations to the
//! layer call in progress without any probe inside the program. Counting
//! is on only while a traced repetition runs, so untraced repetitions pay
//! one relaxed load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator plus per-thread allocation counts.
pub struct CountingAlloc;

/// Whether allocations are counted (a statistic: publishes no other data).
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread tears down its locals;
        // an allocation made then is simply not counted.
        let _ = COUNT.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; `note` only
// touches a const-initialised thread-local `Cell`, which never allocates.
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

/// Turn counting on (around a traced repetition) or off (for everything
/// else, the untraced repetitions of a traced run included).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted on the current thread so far.
pub fn thread_count() -> u64 {
    COUNT.try_with(Cell::get).unwrap_or(0)
}
