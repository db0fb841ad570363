//! Allocation budget for a lint scan of this workspace.
//!
//! The syntax model borrows the source text: every name, path segment,
//! type token, literal and format capture in a parsed file is a slice of
//! the text `read_sources` returned, so building a `Workspace` allocates
//! per tree node and never per name, and the models built over it (call
//! graph, cost, types, effects) and the passes that read them copy no
//! names either. This test pins that: a thread-local counting global
//! allocator, as in `crates/chatbot/tests/protocol_alloc.rs`, counts the
//! allocations `Workspace::build` and the whole `scan::run` make over this
//! workspace, per KiB of source scanned. Nothing is timed.
//!
//! Each budget is the measured value plus 5 %, so an owned `String` per
//! name creeping back into the tree or a model fails here: copying the
//! identifiers the parser reads costs more than that on its own. The
//! counts are the same in debug and release builds. A change that lowers
//! a count re-pins it in the same change.

use aipan_lint::allow::Allowlist;
use aipan_lint::graph::Workspace;
use aipan_lint::scan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Allocations per KiB of source in `Workspace::build`: measured 83.6
/// (146,546 over this workspace's 139 files, 1,754 KiB). It was 306.0
/// while the tree held an owned `String` per name.
const BUILD_PER_KIB: f64 = 87.8;

/// Allocations per KiB of source in the whole `scan::run`: measured 205.3
/// (360,018). It was 569.7 while the tree and the models over it owned
/// their names.
const SCAN_PER_KIB: f64 = 215.6;

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

fn workspace_root() -> PathBuf {
    scan::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace")
}

/// The workspace's sources and their size in KiB.
fn sources() -> (Vec<(String, String)>, f64) {
    let sources = scan::read_sources(&workspace_root(), |_| true).expect("read the workspace");
    let bytes: usize = sources.iter().map(|(_, src)| src.len()).sum();
    (sources, bytes as f64 / 1024.0)
}

/// Allocations `f` makes on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let value = f();
    (value, allocs() - before)
}

#[test]
fn workspace_build_allocates_per_node_not_per_name() {
    let (sources, kib) = sources();
    let (ws, n) = count(|| Workspace::build(&sources));
    assert!(ws.files.len() > 30, "scanned {} files", ws.files.len());
    let per_kib = n as f64 / kib;
    assert!(
        per_kib <= BUILD_PER_KIB,
        "Workspace::build made {n} allocations over {kib:.0} KiB: {per_kib:.1} per KiB, \
         budget {BUILD_PER_KIB}"
    );
}

#[test]
fn scan_allocates_within_budget() {
    let (sources, kib) = sources();
    drop(sources);
    let (report, n) = count(|| scan::run(&workspace_root(), Allowlist::default()));
    let report = report.expect("scan the workspace");
    assert!(report.files_scanned > 30);
    let per_kib = n as f64 / kib;
    assert!(
        per_kib <= SCAN_PER_KIB,
        "scan::run made {n} allocations over {kib:.0} KiB: {per_kib:.1} per KiB, \
         budget {SCAN_PER_KIB}"
    );
}
