//! `extract` and `links` on hostile input: work linear in the input, and no
//! recursion.
//!
//! The first three cases each hit a path whose work once grew with the
//! square of the input (the extractor then took minutes on them in a debug
//! build); they assert the output, not a time. The last one nests deeper
//! than a recursive walk of the document could go on a worker thread's
//! stack.

use aipan_html::{extract, links, HeadingLevel, LineKind, PageRegion};

#[test]
fn raw_text_elements_do_not_rescan_the_rest_of_the_document() {
    // Finding each `</script>` once lowercased everything after the
    // `<script>`.
    let n = 100_000;
    let doc = extract(&"<script></script>x".repeat(n));
    assert_eq!(doc.lines.len(), 1);
    assert_eq!(doc.lines[0].text, "x".repeat(n));
}

#[test]
fn unmatched_end_tags_do_not_scan_the_open_elements() {
    // Each `</span>` with no open `<span>` once searched all open elements.
    // The nesting sits in a `<noscript>`, which renders nothing, and
    // `</noscript>` closes it all.
    let (depth, misses) = (5_000, 2_000_000);
    let html = format!(
        "<noscript>{}hidden{}</noscript>after",
        "<div>".repeat(depth),
        "</span>".repeat(misses)
    );
    let doc = extract(&html);
    let lines: Vec<_> = doc.lines.iter().map(|l| l.text.as_str()).collect();
    assert_eq!(lines, ["after"]);
}

#[test]
fn unmatched_unknown_end_tags_do_not_scan_the_open_elements() {
    // The same with names no rule mentions, which the open elements count
    // by name rather than by tag, nested and missed in both cases.
    let (depth, misses) = (5_000, 2_000_000);
    let html = format!(
        "<noscript>{}{}hidden{}{}</noscript>after",
        "<x-div>".repeat(depth),
        "<X-Div>".repeat(depth),
        "</x-span>".repeat(misses),
        "</X-SPAN>".repeat(misses / 4)
    );
    let doc = extract(&html);
    let lines: Vec<_> = doc.lines.iter().map(|l| l.text.as_str()).collect();
    assert_eq!(lines, ["after"]);
}

#[test]
fn deep_nesting_does_not_overflow_a_worker_stack() {
    // 2 MiB is the default stack of the pool's `std::thread::scope` workers;
    // a panic inside them can be quarantined, a stack overflow aborts.
    let depth = 200_000;
    let mut html = String::new();
    for open in ["<div>", "<b>", "<a href=\"/deep\">"] {
        html.push_str(&open.repeat(depth));
    }
    html.push_str("policy text");
    let (doc, links_only) = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || (extract(&html), links(&html)))
        .expect("spawn extraction thread")
        .join()
        .expect("extraction thread finished");
    assert_eq!(doc.lines.len(), 1);
    assert_eq!(doc.lines[0].text, "policy text");
    assert_eq!(doc.lines[0].kind, LineKind::Heading(HeadingLevel::Bold));
    assert_eq!(doc.links.len(), depth);
    assert!(doc.links.iter().all(|l| l.href == "/deep"
        && l.text == "policy text"
        && l.line == 1
        && l.region == PageRegion::Header));
    assert_eq!(links_only, doc.links, "links-only pass");
}
