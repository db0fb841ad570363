//! Pins `extract` output on a fixed-seed tag-soup corpus.
//!
//! The corpus draws fragments covering every tag the renderer or the tree
//! rules special-case, in lower and upper case and in self-closing form,
//! plus stray `<`, character references (`&nbsp;` among them), a literal
//! U+00A0, comments, doctypes and unclosed raw text. The pinned digest was
//! computed with the extractor as it stood before its one-pass rewrite; a
//! deliberate change to extractor output re-pins it in the same change.
//! Every document also checks that `links` returns exactly `extract`'s
//! links.

use proptest::Gen;

/// Every tag name with a rule of its own: skipped subtrees, head/title,
/// details/summary, anchors, bold, regions, headings, blocks, void
/// elements, implicit closes and raw text.
const TAGS: &str = "script style noscript template iframe svg head title textarea details \
    summary br img input hr meta link base area col embed param source track wbr a b strong \
    header nav footer h1 h2 h3 h4 h5 h6 p div section article aside main ul ol li table tr td \
    th thead tbody tfoot blockquote pre form fieldset figure figcaption address dl dt dd body \
    html option span em";

/// Fragments other than plain open/close/self-closing tags.
const OTHER: &[&str] = &[
    "privacy",
    "We collect your data.",
    "Datenschutz ü é 中文 😀",
    " ",
    "  \n\t",
    "\u{a0}",
    " \u{a0}x\u{a0} ",
    "&amp;",
    "&amp",
    "&lt;",
    "&gt",
    "&quot;",
    "&nbsp;",
    "&nbsp",
    "&copy;",
    "&#65;",
    "&#x42;",
    "&#X2014;",
    "&#1114112;",
    "&#",
    "&bogus;",
    "&",
    "AT&T",
    "<",
    "< p>",
    "<3",
    "</>",
    "</ div >",
    "</p/>",
    "<!-- comment -->",
    "<!--",
    "-->",
    "<!DOCTYPE html>",
    "<?xml version='1.0'?>",
    "<a href=\"/privacy\">",
    "<a href='/Privacy-Policy' class=x>",
    "<A HREF=/legal>",
    "<a href=\"\">",
    "<a href=\"/x?a=1&amp;b=2\">",
    "<a href=\"/unterminated",
    "<details open>",
    "<DETAILS OPEN=\"\">",
    "<div class=\"a>b\">",
    "<img src=x alt=\"alt text\">",
    "<div / class=y>",
    "<p =x>",
    "<script>var a = '</scr' + 'ipt>';",
    "<style>p { color: red }",
    "<title>Policy &amp; Terms",
    "<head><title>Acme Privacy</title></head>",
    "<HEAD><TITLE> Spaced  Title </TITLE>",
    "<head><title></title><title>Second</title></head>",
    "<head><noscript><title>Nested</title></noscript>",
    "<title/>",
    "<details><summary>More</summary>",
    "<details><div><b><summary>Deep summary</summary></b>",
    "<details open><summary>Open</summary>",
    "<a href=/p><b>Bold</b> link <i>text</i></a>",
    "</SCRIPT>",
    "</sCrIpT foo>",
];

fn fragment(gen: &mut Gen, tags: &[&str], out: &mut String) {
    if gen.below(5) < 2 {
        out.push_str(OTHER[gen.below(OTHER.len())]);
        return;
    }
    let tag = tags[gen.below(tags.len())];
    let upper = gen.below(4) == 0;
    let name = if upper {
        tag.to_ascii_uppercase()
    } else {
        tag.to_string()
    };
    match gen.below(7) {
        0..=2 => out.push_str(&format!("<{name}>")),
        3..=4 => out.push_str(&format!("</{name}>")),
        5 => out.push_str(&format!("<{name}/>")),
        _ => out.push_str(&format!("<{name} />")),
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn tag_soup_corpus_matches_the_pinned_digest() {
    let tags: Vec<&str> = TAGS.split_whitespace().collect();
    let mut gen = Gen::from_name("aipan-html tag-soup corpus");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lines = 0usize;
    let mut links = 0usize;
    let mut titles = 0usize;
    for _ in 0..4000 {
        let mut doc = String::new();
        for _ in 0..gen.usize_in(0..48) {
            fragment(&mut gen, &tags, &mut doc);
        }
        let out = aipan_html::extract(&doc);
        assert_eq!(aipan_html::links(&doc), out.links, "links of {doc:?}");
        lines += out.lines.len();
        links += out.links.len();
        titles += usize::from(out.title.is_some());
        fnv1a(&mut hash, format!("{out:?}").as_bytes());
    }
    assert_eq!(
        (lines, links, titles, format!("{hash:016x}")),
        (5141, 1345, 728, "ed6c1ce216922224".to_string()),
        "extract output over the tag-soup corpus changed"
    );
}
