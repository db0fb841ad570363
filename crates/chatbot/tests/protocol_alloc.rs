//! Bounded work for the protocol parsers: each `protocol::parse_*` makes
//! at most `PER_VALUE × values + FIXED` allocations on any completion,
//! where `values` counts the JSON values the completion starts.
//!
//! The parsers read a completion into the `serde_json` stand-in's `Value`
//! tree and move the rows' fields out of it, so their allocations grow
//! with the number of values (arrays, strings, the row vectors) and with
//! nothing else: not with nesting the tree refuses, not with rows that do
//! not decode, not with where a truncated completion stops. A thread-local
//! counting global allocator, as in `crates/core/tests/alloc_budget.rs`,
//! counts each call; nothing is timed. The inputs are well-formed rows of
//! every row type, rows nested to depths 127 (accepted) and 129 (refused,
//! past `serde::MAX_DEPTH`), long strings full of escapes, 10,000 empty
//! rows, and every proper prefix of one completion.
//!
//! `PER_VALUE` and `FIXED` pin the tree parser: a parser that builds no
//! tree should lower them in the same change. A string's buffer grows by
//! doubling while escapes are decoded into it, so an escaped string costs
//! about log2 of its length in allocations; `FIXED` covers the 16 KiB
//! strings used here. The counts are the same in debug and release builds.

use aipan_chatbot::protocol::{
    encode_extractions, encode_handling, encode_labels, encode_normalizations, encode_purposes,
    encode_rights, parse_extractions, parse_handling, parse_labels, parse_normalizations,
    parse_purposes, parse_rights,
};
use aipan_taxonomy::Aspect;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per JSON value the completion starts: 1,816 allocations on
/// 1,501 values for 300 purpose rows with escaped strings, and at most
/// 1.305 per value past [`FIXED`] on any input here.
const PER_VALUE: f64 = 1.31;
/// Allocations on top of the per-value share: a purpose row of three 16 KiB
/// escaped strings makes 39 allocations on 6 values.
const FIXED: f64 = 32.0;

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

/// The JSON values `text` starts, well-formed or not: each `[` and `{`,
/// each string (an object key counts as one), each number, and each run
/// of lower-case letters (`true`, `false`, `null`, or a word of a refusal).
/// Other bytes start nothing.
fn values(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let mut count = 0;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        i += 1;
        match b {
            b'[' | b'{' => count += 1,
            b'"' => {
                count += 1;
                while let Some(&c) = bytes.get(i) {
                    i += if c == b'\\' { 2 } else { 1 };
                    if c == b'"' {
                        break;
                    }
                }
            }
            b'-' | b'0'..=b'9' | b'a'..=b'z' => {
                count += 1;
                while bytes
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b".+-".contains(c))
                {
                    i += 1;
                }
            }
            _ => {}
        }
    }
    count
}

/// Every parser, by name, with the completion's rows dropped after the
/// count.
type Parser = (&'static str, fn(&str) -> usize);

const PARSERS: [Parser; 6] = [
    ("parse_labels", |s| parse_labels(s).map_or(0, |r| r.len())),
    ("parse_extractions", |s| {
        parse_extractions(s).map_or(0, |r| r.len())
    }),
    ("parse_normalizations", |s| {
        parse_normalizations(s).map_or(0, |r| r.len())
    }),
    ("parse_purposes", |s| {
        parse_purposes(s).map_or(0, |r| r.len())
    }),
    ("parse_handling", |s| {
        parse_handling(s).map_or(0, |r| r.len())
    }),
    ("parse_rights", |s| parse_rights(s).map_or(0, |r| r.len())),
];

/// A string of about `len` bytes in which every other char needs an
/// escape in JSON, or is a non-ASCII char written as a `\u` escape pair.
fn escaped_text(len: usize) -> String {
    "a\"b\\c\nd\te/\u{e9}\u{1F600}\u{1}"
        .chars()
        .cycle()
        .take(len / 2)
        .collect()
}

/// One completion of every row type, a few rows each, with escapes.
fn well_formed() -> Vec<String> {
    let text = escaped_text(40);
    let mut out = Vec::new();
    for rows in [0usize, 1, 7, 300] {
        out.push(encode_labels(
            &(1..=rows)
                .map(|n| (n, vec![Aspect::Types, Aspect::Purposes]))
                .collect::<Vec<_>>(),
        ));
        out.push(encode_extractions(
            &(1..=rows).map(|n| (n, text.clone())).collect::<Vec<_>>(),
        ));
        out.push(encode_normalizations(
            &(1..=rows)
                .map(|n| (n, text.clone(), "Contact info".to_string()))
                .collect::<Vec<_>>(),
        ));
        out.push(encode_purposes(
            &(1..=rows)
                .map(|n| (n, text.clone(), "analytics".into(), "Analytics".into()))
                .collect::<Vec<_>>(),
        ));
        out.push(encode_handling(
            &(1..=rows)
                .map(|n| {
                    let period = (n % 2 == 0).then(|| "2 years".to_string());
                    (n, text.clone(), "Stated".to_string(), period)
                })
                .collect::<Vec<_>>(),
        ));
        out.push(encode_rights(
            &(1..=rows)
                .map(|n| (n, text.clone(), "Edit".to_string()))
                .collect::<Vec<_>>(),
        ));
    }
    out
}

/// Nesting `depth` arrays deep, alone and as a row's last field.
fn nested(depth: usize) -> Vec<String> {
    let deep = "[".repeat(depth) + &"]".repeat(depth);
    let inner = depth.saturating_sub(2);
    let row = format!("[[1,\"x\",{}{}]]", "[".repeat(inner), "]".repeat(inner));
    vec![deep, row]
}

/// Rows with 16 KiB strings of escapes.
fn long_escapes() -> Vec<String> {
    let text = escaped_text(16 * 1024);
    vec![
        encode_extractions(&[(1, text.clone())]),
        encode_purposes(&[(2, text.clone(), text.clone(), text.clone())]),
        encode_handling(&[(3, text.clone(), "Stated".into(), Some(text))]),
    ]
}

/// 10,000 empty rows.
fn empty_rows() -> String {
    format!("[{}[]]", "[],".repeat(9_999))
}

/// Every proper prefix of one completion, cut at each char boundary.
fn prefixes() -> Vec<String> {
    let whole = encode_handling(&[
        (3, escaped_text(24), "Stated".into(), Some("2 years".into())),
        (5, "as long as necessary".into(), "Limited".into(), None),
    ]);
    whole
        .char_indices()
        .map(|(at, _)| whole[..at].to_string())
        .collect()
}

#[test]
fn protocol_parsers_allocate_within_a_bound_per_json_value() {
    let mut inputs = well_formed();
    inputs.extend(nested(127));
    inputs.extend(nested(129));
    inputs.extend(long_escapes());
    inputs.push(empty_rows());
    inputs.extend(prefixes());
    let mut worst: Option<(f64, &str, usize, u64, u64)> = None;
    for (name, parse) in PARSERS {
        for input in &inputs {
            let n = values(input);
            let before = allocs();
            std::hint::black_box(parse(std::hint::black_box(input)));
            let made = allocs() - before;
            let budget = PER_VALUE * n as f64 + FIXED;
            let over = made as f64 - budget;
            if worst.is_none_or(|w| over > w.0) {
                worst = Some((over, name, input.len(), n, made));
            }
            assert!(
                made as f64 <= budget,
                "{name} made {made} allocations on {n} values ({} bytes) > budget {budget}: {:?}",
                input.len(),
                input.get(..input.len().min(80))
            );
        }
    }
    eprintln!("closest to the budget (over, parser, bytes, values, allocations): {worst:?}");
}

#[test]
fn the_value_count_sees_every_kind_of_value() {
    assert_eq!(values(""), 0);
    assert_eq!(values("[]"), 1);
    assert_eq!(values(r#"[[1,"a\"b",null,-2.5e3,true]]"#), 7);
    assert_eq!(values(r#"{"k":[false]}"#), 4);
    assert_eq!(values(r#"[[1, "trunc"#), 4);
    assert_eq!(values("I cannot assist."), 2);
}
