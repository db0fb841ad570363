//! Inscriptis-style layout-aware text extraction.
//!
//! Renders a page into a sequence of numbered [`Line`]s, the representation
//! the annotation prompts consume (each input line is prefixed `[123]` by
//! the prompt builder). The renderer consumes the tree's events in one pass
//! and keeps what each open element means for its content (bold, heading,
//! region, hidden) on a stack of frames, so it neither recurses nor looks
//! ahead into subtrees. What it does with the text it lays out is up to a
//! layout: [`extract`] builds the lines, while [`links`] only counts them,
//! which is all an anchor's line number and region need. Along the
//! way it records the two signals Appendix B needs for segmentation:
//!
//! * heading lines — text inside `<h1>`–`<h6>`, **plus bold text
//!   (`<b>`/`<strong>`) that appears on a line of its own** (not inline with
//!   non-bold text), exactly as the paper defines heading detection;
//! * anchors — with their text, target, and page region (header/body/footer),
//!   which drive the §3.1 crawler link heuristics.
//!
//! Content of `<script>`, `<style>`, `<noscript>`, `<template>`, and
//! collapsed `<details>` elements is not rendered — the latter reproduces the
//! paper's observed failure mode of policies hidden under expandable
//! elements. Image `alt` text is likewise not rendered (image-based
//! policies yield no text).

use crate::tokenizer::Attrs;
use crate::tree::{self, Event};
use serde::{Deserialize, Serialize};

/// Heading level of a heading line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HeadingLevel {
    /// `<h1>` … `<h6>`.
    H1,
    /// `<h2>`.
    H2,
    /// `<h3>`.
    H3,
    /// `<h4>`.
    H4,
    /// `<h5>`.
    H5,
    /// `<h6>`.
    H6,
    /// Bold text on its own line (ranked below `<h6>` per Appendix B).
    Bold,
}

impl HeadingLevel {
    /// Numeric rank for hierarchy purposes: H1=1 … H6=6, Bold=7.
    pub fn rank(self) -> u8 {
        match self {
            HeadingLevel::H1 => 1,
            HeadingLevel::H2 => 2,
            HeadingLevel::H3 => 3,
            HeadingLevel::H4 => 4,
            HeadingLevel::H5 => 5,
            HeadingLevel::H6 => 6,
            HeadingLevel::Bold => 7,
        }
    }

    fn from_tag(tag: &str) -> Option<HeadingLevel> {
        Some(match tag {
            "h1" => HeadingLevel::H1,
            "h2" => HeadingLevel::H2,
            "h3" => HeadingLevel::H3,
            "h4" => HeadingLevel::H4,
            "h5" => HeadingLevel::H5,
            "h6" => HeadingLevel::H6,
            _ => return None,
        })
    }
}

/// Classification of an extracted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineKind {
    /// A heading line (explicit heading tag or bold-on-own-line).
    Heading(HeadingLevel),
    /// Ordinary flowing text.
    Text,
}

/// One extracted text line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Line {
    /// The line's text (whitespace-normalized, entity-decoded).
    pub text: String,
    /// Heading or body text.
    pub kind: LineKind,
}

/// Page region an anchor was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageRegion {
    /// Inside `<header>`/`<nav>`, or in the top of the page.
    Header,
    /// Main content.
    Body,
    /// Inside `<footer>`, or in the bottom of the page.
    Footer,
}

/// An anchor extracted from the page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageLink {
    /// Raw `href` attribute value.
    pub href: String,
    /// Anchor text (whitespace-normalized).
    pub text: String,
    /// 1-based line the anchor text starts on (0 if the anchor produced no
    /// text and no line existed yet).
    pub line: usize,
    /// Region attribution.
    pub region: PageRegion,
}

impl PageLink {
    /// Whether the anchor text or the href contains `needle`, comparing
    /// ASCII letters without regard to case: the §3.1 crawler's "contains
    /// the word privacy" test.
    pub fn mentions(&self, needle: &str) -> bool {
        contains_ignore_ascii_case(&self.text, needle)
            || contains_ignore_ascii_case(&self.href, needle)
    }
}

/// The result of extracting a page.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractedDoc {
    /// Document title (`<title>`), if present.
    pub title: Option<String>,
    /// Extracted lines in document order; line numbers are index+1.
    pub lines: Vec<Line>,
    /// Extracted anchors in document order.
    pub links: Vec<PageLink>,
}

impl ExtractedDoc {
    /// Full text, one line per extracted line.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(&line.text);
            out.push('\n');
        }
        out
    }

    /// Total number of whitespace-separated words across all lines.
    pub fn word_count(&self) -> usize {
        self.lines
            .iter()
            .map(|l| l.text.split_whitespace().count())
            .sum()
    }

    /// Number of heading lines (used by Appendix B's ">5 headings" rule).
    pub fn heading_count(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l.kind, LineKind::Heading(_)))
            .count()
    }

    /// Links whose anchor text or href contains `needle` (ASCII
    /// case-insensitive).
    pub fn links_containing<'s>(&'s self, needle: &'s str) -> impl Iterator<Item = &'s PageLink> {
        self.links.iter().filter(move |l| l.mentions(needle))
    }
}

/// Whether `needle` occurs in `haystack`, comparing ASCII letters without
/// regard to case.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Extract a page: parse `html` and render it to lines + links.
///
/// ```
/// let doc = aipan_html::extract(
///     "<h2>Information We Collect</h2><p>We collect your email address.</p>",
/// );
/// assert_eq!(doc.lines.len(), 2);
/// assert_eq!(doc.heading_count(), 1);
/// assert!(doc.text().contains("email address"));
/// ```
pub fn extract(html: &str) -> ExtractedDoc {
    let (layout, links) = render::<Lines>(html);
    ExtractedDoc {
        title: layout.title,
        lines: layout.lines,
        links,
    }
}

/// The anchors of a page: exactly `extract(html).links`, line numbers and
/// regions included, from a pass that counts the lines instead of building
/// them. It holds [`extract`]'s contract: it never panics, does work linear
/// in its input plus its output, and never recurses.
///
/// ```
/// let html = "<header><a href='/privacy'>Privacy</a></header><p>We collect data.</p>";
/// assert_eq!(aipan_html::links(html), aipan_html::extract(html).links);
/// ```
pub fn links(html: &str) -> Vec<PageLink> {
    render::<LineCount>(html).1
}

/// Parse `html` and render it into a layout `L`, returning the layout and
/// the page's anchors.
fn render<L: Layout + Default>(html: &str) -> (L, Vec<PageLink>) {
    let mut r = Renderer::<L>::default();
    tree::build(html, |event| r.event(event));
    r.finish()
}

/// Fraction of lines from the top considered "header" when no semantic
/// `<header>`/`<nav>` ancestor exists.
const HEADER_FRACTION: f64 = 0.2;
/// Fraction of lines from the bottom considered "footer" when no semantic
/// `<footer>` ancestor exists.
const FOOTER_FRACTION: f64 = 0.2;

/// What the enclosing elements say about the text inside them.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    bold: bool,
    heading: Option<HeadingLevel>,
    region: Option<PageRegion>,
}

/// How an open element renders.
#[derive(Debug)]
struct Frame {
    /// The context this element's children render in; `None` when they are
    /// not rendered.
    ctx: Option<Ctx>,
    /// What closing the element does.
    close: Close,
}

impl Frame {
    fn shown(ctx: Ctx, close: Close) -> Frame {
        Frame {
            ctx: Some(ctx),
            close,
        }
    }

    fn hidden(close: Close) -> Frame {
        Frame { ctx: None, close }
    }
}

#[derive(Debug, Clone, Copy)]
enum Close {
    Nothing,
    /// End the current line (blocks, headings, regions, a shown summary).
    Flush,
    /// Record the innermost open anchor.
    Link,
    /// Stop the search a `<head>` or collapsed `<details>` started.
    EndSearch,
    /// Set the document title from the text read inside `<title>`.
    Title,
}

/// A hidden subtree looks for one element: `<head>` for its first
/// `<title>`, a collapsed `<details>` for its first `<summary>`, whose
/// content renders in the details' context. Only one search can be active:
/// nothing inside a hidden subtree renders until its search succeeds.
#[derive(Debug, Clone, Copy, Default)]
enum Search {
    #[default]
    None,
    Title,
    Summary(Ctx),
}

/// What the renderer does with the text it lays out. The frame, anchor,
/// hidden-subtree and region rules are the [`Renderer`]'s alone; a layout
/// only sees the rendered text runs, the line ends and the title.
trait Layout {
    /// A rendered text run joins the current line.
    fn push_text(&mut self, raw: &str, ctx: &Ctx);
    /// The current line ends; a line with no text is dropped.
    fn flush_line(&mut self);
    /// Lines kept so far.
    fn line_count(&self) -> usize;
    /// A text node inside the `<title>` being read.
    fn push_title(&mut self, text: &str);
    /// The `<title>` being read closes.
    fn end_title(&mut self);
}

/// [`extract`]'s layout: the lines and the title.
#[derive(Debug, Default)]
struct Lines {
    lines: Vec<Line>,
    // Current line state.
    buf: String,
    buf_heading: Option<HeadingLevel>,
    buf_has_bold: bool,
    buf_has_plain: bool,
    /// Text of the `<title>` being read.
    title_text: String,
    title: Option<String>,
}

/// [`links`]'s layout: how many lines [`Lines`] would keep, and no text.
#[derive(Debug, Default)]
struct LineCount {
    lines: usize,
    /// Whether a run of the current line has a char that is not whitespace,
    /// which is what makes [`Lines`] keep the line.
    has_text: bool,
}

#[derive(Debug, Default)]
struct Renderer<L> {
    layout: L,
    links: Vec<PendingLink>,
    /// Open elements, innermost last (the document itself is implicit).
    frames: Vec<Frame>,
    /// Open anchors that will be recorded, innermost last; each collects
    /// all the text inside it, rendered or not.
    anchors: Vec<PendingLink>,
    /// Whether a `<title>` is being read.
    in_title: bool,
    search: Search,
}

#[derive(Debug)]
struct PendingLink {
    href: String,
    text: String,
    line: usize,
    region: Option<PageRegion>,
}

/// End of the run of chars starting at byte `from` of `s` that all are
/// (`space`) or all are not whitespace, as `char::is_whitespace` defines it.
fn run_end(s: &str, from: usize, space: bool) -> usize {
    let bytes = s.as_bytes();
    let mut i = from;
    while let Some(&b) = bytes.get(i) {
        let (is_space, len) = if b.is_ascii() {
            (matches!(b, b'\t'..=b'\r' | b' '), 1)
        } else {
            match s.get(i..).and_then(|r| r.chars().next()) {
                Some(c) => (c.is_whitespace(), c.len_utf8()),
                None => break,
            }
        };
        if is_space != space {
            break;
        }
        i += len;
    }
    i
}

/// Append a text node to an element's text content: trimmed pieces joined
/// by single spaces.
fn push_content(out: &mut String, text: &str) {
    if !out.is_empty() && !out.ends_with(' ') {
        out.push(' ');
    }
    out.push_str(text.trim());
}

/// Drop the trailing separator `push_content` may leave (pieces are
/// trimmed, so there is never leading whitespace).
fn finish_content(out: &mut String) {
    out.truncate(out.trim_end().len());
}

impl<L: Layout> Renderer<L> {
    fn event(&mut self, event: Event<'_, '_>) {
        match event {
            Event::Enter(name, attrs) => {
                let frame = match self.ctx() {
                    Some(ctx) => self.enter(name, attrs, ctx),
                    None => self.enter_hidden(name),
                };
                self.frames.push(frame);
            }
            Event::Text(text) => {
                for anchor in &mut self.anchors {
                    push_content(&mut anchor.text, text);
                }
                if self.in_title {
                    self.layout.push_title(text);
                }
                if let Some(ctx) = self.ctx() {
                    self.layout.push_text(text, &ctx);
                }
            }
            Event::Exit => self.exit(),
        }
    }

    /// The context of the innermost open element's content.
    fn ctx(&self) -> Option<Ctx> {
        self.frames.last().map_or(Some(Ctx::default()), |f| f.ctx)
    }

    /// An element opens where content renders.
    fn enter(&mut self, name: &str, attrs: Attrs<'_>, ctx: Ctx) -> Frame {
        match name {
            "script" | "style" | "noscript" | "template" | "iframe" | "svg" => {
                Frame::hidden(Close::Nothing)
            }
            "head" => {
                // Head is skipped except we still want the title.
                self.search = Search::Title;
                Frame::hidden(Close::EndSearch)
            }
            "details" if attrs.get("open").is_none() => {
                // Collapsed expandable content: render only the <summary>.
                self.search = Search::Summary(ctx);
                Frame::hidden(Close::EndSearch)
            }
            "br" => {
                self.layout.flush_line();
                Frame::hidden(Close::Nothing)
            }
            "img" | "input" | "hr" | "meta" | "link" | "base" => Frame::hidden(Close::Nothing),
            "a" => {
                let href = attrs.get("href").unwrap_or_default();
                if href.is_empty() {
                    return Frame::shown(ctx, Close::Nothing);
                }
                self.anchors.push(PendingLink {
                    href: href.into_owned(),
                    text: String::new(),
                    line: self.layout.line_count() + 1,
                    region: ctx.region,
                });
                Frame::shown(ctx, Close::Link)
            }
            "b" | "strong" => Frame::shown(Ctx { bold: true, ..ctx }, Close::Nothing),
            "header" | "nav" => self.block(Ctx {
                region: Some(PageRegion::Header),
                ..ctx
            }),
            "footer" => self.block(Ctx {
                region: Some(PageRegion::Footer),
                ..ctx
            }),
            _ => match HeadingLevel::from_tag(name) {
                Some(level) => self.block(Ctx {
                    heading: Some(level),
                    ..ctx
                }),
                None if is_block(name) => self.block(ctx),
                None => Frame::shown(ctx, Close::Nothing),
            },
        }
    }

    /// An element opens inside a hidden subtree: it renders nothing unless
    /// it is what the subtree's search looks for.
    fn enter_hidden(&mut self, name: &str) -> Frame {
        match (self.search, name) {
            (Search::Title, "title") => {
                self.search = Search::None;
                self.in_title = true;
                Frame::hidden(Close::Title)
            }
            (Search::Summary(ctx), "summary") => {
                self.search = Search::None;
                self.layout.flush_line();
                Frame::shown(ctx, Close::Flush)
            }
            _ => Frame::hidden(Close::Nothing),
        }
    }

    fn block(&mut self, ctx: Ctx) -> Frame {
        self.layout.flush_line();
        Frame::shown(ctx, Close::Flush)
    }

    fn exit(&mut self) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        match frame.close {
            Close::Nothing => {}
            Close::Flush => self.layout.flush_line(),
            Close::Link => {
                if let Some(mut link) = self.anchors.pop() {
                    finish_content(&mut link.text);
                    self.links.push(link);
                }
            }
            Close::EndSearch => self.search = Search::None,
            Close::Title => {
                self.in_title = false;
                self.layout.end_title();
            }
        }
    }

    /// End the last line and give every anchor without a region ancestor
    /// the region of its line's position in the page.
    fn finish(mut self) -> (L, Vec<PageLink>) {
        self.layout.flush_line();
        let total = self.layout.line_count().max(1) as f64;
        let links = self
            .links
            .into_iter()
            .map(|p| {
                let region = p.region.unwrap_or_else(|| {
                    let frac = (p.line.max(1) - 1) as f64 / total;
                    if frac < HEADER_FRACTION {
                        PageRegion::Header
                    } else if frac >= 1.0 - FOOTER_FRACTION {
                        PageRegion::Footer
                    } else {
                        PageRegion::Body
                    }
                });
                PageLink {
                    href: p.href,
                    text: p.text,
                    line: p.line,
                    region,
                }
            })
            .collect();
        (self.layout, links)
    }
}

impl Layout for Lines {
    /// Append a text node to the current line, collapsing each whitespace
    /// run to one space; a leading run is dropped at the start of a line or
    /// after a space. Text between runs that need no change — a lone `' '`
    /// between words — is copied whole.
    fn push_text(&mut self, raw: &str, ctx: &Ctx) {
        let lead = run_end(raw, 0, true);
        if lead > 0 && !self.buf.is_empty() && !self.buf.ends_with(' ') {
            self.buf.push(' ');
        }
        if lead == raw.len() {
            // Whitespace only: at most the pending space above.
            return;
        }
        let mut copied = lead;
        let mut word_end = run_end(raw, lead, false);
        while word_end < raw.len() {
            let space_end = run_end(raw, word_end, true);
            let lone_space = space_end == word_end + 1
                && raw.as_bytes().get(word_end) == Some(&b' ')
                && space_end < raw.len();
            if !lone_space {
                self.buf.push_str(&raw[copied..word_end]);
                self.buf.push(' ');
                copied = space_end;
            }
            word_end = run_end(raw, space_end, false);
        }
        self.buf.push_str(&raw[copied..]);
        if let Some(h) = ctx.heading {
            self.buf_heading = Some(match self.buf_heading {
                Some(existing) if existing.rank() <= h.rank() => existing,
                _ => h,
            });
        }
        if ctx.bold {
            self.buf_has_bold = true;
        } else {
            self.buf_has_plain = true;
        }
    }

    fn flush_line(&mut self) {
        let heading = self.buf_heading.take();
        let has_bold = std::mem::take(&mut self.buf_has_bold);
        let has_plain = std::mem::take(&mut self.buf_has_plain);
        // Spaces only ever follow text, so trimming the end trims the line.
        let text = self.buf.trim_end();
        if !text.is_empty() {
            let kind = if let Some(h) = heading {
                LineKind::Heading(h)
            } else if has_bold && !has_plain {
                LineKind::Heading(HeadingLevel::Bold)
            } else {
                LineKind::Text
            };
            self.lines.push(Line {
                text: text.to_string(),
                kind,
            });
        }
        self.buf.clear();
    }

    fn line_count(&self) -> usize {
        self.lines.len()
    }

    fn push_title(&mut self, text: &str) {
        push_content(&mut self.title_text, text);
    }

    fn end_title(&mut self) {
        finish_content(&mut self.title_text);
        if !self.title_text.is_empty() {
            self.title = Some(std::mem::take(&mut self.title_text));
        }
    }
}

impl Layout for LineCount {
    fn push_text(&mut self, raw: &str, _: &Ctx) {
        if !self.has_text {
            self.has_text = run_end(raw, 0, true) < raw.len();
        }
    }

    fn flush_line(&mut self) {
        self.lines += usize::from(std::mem::take(&mut self.has_text));
    }

    fn line_count(&self) -> usize {
        self.lines
    }

    fn push_title(&mut self, _: &str) {}

    fn end_title(&mut self) {}
}

fn is_block(name: &str) -> bool {
    matches!(
        name,
        "p" | "div"
            | "section"
            | "article"
            | "aside"
            | "main"
            | "ul"
            | "ol"
            | "li"
            | "table"
            | "tr"
            | "td"
            | "th"
            | "thead"
            | "tbody"
            | "tfoot"
            | "blockquote"
            | "pre"
            | "form"
            | "fieldset"
            | "figure"
            | "figcaption"
            | "address"
            | "dl"
            | "dt"
            | "dd"
            | "summary"
            | "details"
            | "body"
            | "html"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragraphs_become_lines() {
        let doc = extract("<p>one two</p><p>three</p>");
        assert_eq!(doc.lines.len(), 2);
        assert_eq!(doc.lines[0].text, "one two");
        assert_eq!(doc.lines[1].text, "three");
        assert_eq!(doc.lines[0].kind, LineKind::Text);
    }

    #[test]
    fn headings_detected_with_level() {
        let doc = extract("<h1>Top</h1><h3>Sub</h3><p>body</p>");
        assert_eq!(doc.lines[0].kind, LineKind::Heading(HeadingLevel::H1));
        assert_eq!(doc.lines[1].kind, LineKind::Heading(HeadingLevel::H3));
        assert_eq!(doc.lines[2].kind, LineKind::Text);
        assert_eq!(doc.heading_count(), 2);
    }

    #[test]
    fn bold_on_own_line_is_heading() {
        let doc = extract("<p><b>Information We Collect</b></p><p>We collect stuff.</p>");
        assert_eq!(doc.lines[0].kind, LineKind::Heading(HeadingLevel::Bold));
        assert_eq!(doc.lines[1].kind, LineKind::Text);
    }

    #[test]
    fn bold_inline_with_text_is_not_heading() {
        let doc = extract("<p>We collect <b>everything</b> about you.</p>");
        assert_eq!(doc.lines.len(), 1);
        assert_eq!(doc.lines[0].kind, LineKind::Text);
        assert_eq!(doc.lines[0].text, "We collect everything about you.");
    }

    #[test]
    fn strong_counts_as_bold() {
        let doc = extract("<div><strong>Your Rights</strong></div>");
        assert_eq!(doc.lines[0].kind, LineKind::Heading(HeadingLevel::Bold));
    }

    #[test]
    fn inline_elements_flow() {
        let doc = extract("<p>one <span>two</span> <em>three</em></p>");
        assert_eq!(doc.lines.len(), 1);
        assert_eq!(doc.lines[0].text, "one two three");
    }

    #[test]
    fn script_and_style_skipped() {
        let doc = extract("<style>p{}</style><script>var x;</script><p>visible</p>");
        assert_eq!(doc.text().trim(), "visible");
    }

    #[test]
    fn title_extracted_not_rendered() {
        let doc = extract("<head><title>Acme Privacy</title></head><body><p>x</p></body>");
        assert_eq!(doc.title.as_deref(), Some("Acme Privacy"));
        assert_eq!(doc.text().trim(), "x");
    }

    #[test]
    fn links_with_regions_semantic() {
        let html = r#"
            <header><a href="/top">Privacy Center</a></header>
            <main><p>text</p><a href="/mid">Privacy</a></main>
            <footer><a href="/privacy">Privacy Policy</a></footer>
        "#;
        let doc = extract(html);
        let by_href = |h: &str| doc.links.iter().find(|l| l.href == h).unwrap().region;
        assert_eq!(by_href("/top"), PageRegion::Header);
        assert_eq!(by_href("/privacy"), PageRegion::Footer);
    }

    #[test]
    fn links_region_positional_fallback() {
        // 20 body lines, link on the last line → footer by position.
        let mut html = String::from("<a href='/first'>first link here</a>");
        for i in 0..20 {
            html.push_str(&format!("<p>filler line number {i}</p>"));
        }
        html.push_str("<p><a href='/last'>last link</a></p>");
        let doc = extract(&html);
        let first = doc.links.iter().find(|l| l.href == "/first").unwrap();
        let last = doc.links.iter().find(|l| l.href == "/last").unwrap();
        assert_eq!(first.region, PageRegion::Header);
        assert_eq!(last.region, PageRegion::Footer);
    }

    #[test]
    fn links_equal_extracts_links() {
        // Whitespace-only text (U+00A0 and U+3000 included) makes no line,
        // so it must move neither a link's line nor its positional region.
        let mut positional = String::from("<a href='/first'>first</a>");
        for i in 0..10 {
            positional.push_str(&format!(
                "<p>line {i}</p><div> \u{a0}\n</div><p>\u{3000}</p>"
            ));
        }
        positional.push_str("<p><a href='/last'>last</a></p>");
        for html in [
            positional.as_str(),
            "<head><title>T</title></head><header><a href='/h'>Privacy</a></header>\
             <p>body</p><footer><a href='/f'>x</a></footer>",
            "<a href='/outer'>outer <a href='/inner'>inner</a></a>",
            "<b><details><a href='/d'>hidden</a><summary><a href='/s'>More</a></summary>\
             </details></b>",
            "<p>a<br>b<br> <br><a href='/br'>c</a></p>",
            "<a href='/empty'></a>",
            "",
        ] {
            assert_eq!(links(html), extract(html).links, "{html}");
        }
    }

    #[test]
    fn links_containing_matches_text_and_href() {
        let doc = extract(
            r#"<a href="/legal">Privacy Notice</a><a href="/privacy-policy">Legal</a>
               <a href="/about">About</a>"#,
        );
        let hits: Vec<_> = doc
            .links_containing("privacy")
            .map(|l| l.href.as_str())
            .collect();
        assert_eq!(hits, vec!["/legal", "/privacy-policy"]);
    }

    #[test]
    fn collapsed_details_hidden_open_details_shown() {
        let closed = extract("<details><summary>More</summary><p>secret policy text</p></details>");
        assert!(!closed.text().contains("secret policy text"));
        assert!(closed.text().contains("More"));
        let open =
            extract("<details open><summary>More</summary><p>secret policy text</p></details>");
        assert!(open.text().contains("secret policy text"));
    }

    #[test]
    fn image_alt_not_rendered() {
        let doc =
            extract(r#"<p>before</p><img src="policy.png" alt="full policy text"><p>after</p>"#);
        assert!(!doc.text().contains("full policy text"));
    }

    #[test]
    fn word_count_counts_words() {
        let doc = extract("<p>one two three</p><p>four five</p>");
        assert_eq!(doc.word_count(), 5);
    }

    #[test]
    fn br_splits_lines() {
        let doc = extract("<p>line one<br>line two</p>");
        assert_eq!(doc.lines.len(), 2);
    }

    #[test]
    fn nested_lists_render_items_as_lines() {
        let doc = extract("<ul><li>alpha</li><li>beta</li><li>gamma</li></ul>");
        let texts: Vec<_> = doc.lines.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(texts, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn text_content_joins_with_spaces() {
        let doc = extract("<a href='/x'>Hello <b>dear</b>\n world </a>");
        assert_eq!(doc.links[0].text, "Hello dear world");
    }

    #[test]
    fn nested_anchors_recorded_innermost_first() {
        let doc = extract("<a href='/outer'>outer <a href='/inner'>inner</a></a>");
        let links: Vec<_> = doc
            .links
            .iter()
            .map(|l| (l.href.as_str(), l.text.as_str()))
            .collect();
        assert_eq!(links, [("/inner", "inner"), ("/outer", "outer inner")]);
    }

    #[test]
    fn collapsed_details_render_first_summary_in_their_own_context() {
        // The first <summary> anywhere inside renders, with the details'
        // context (bold here), not that of the elements around it.
        let doc = extract(
            "<b><details><i><summary>More</summary></i><summary>Other</summary>secret\
             </details></b>after",
        );
        let lines: Vec<_> = doc
            .lines
            .iter()
            .map(|l| (l.text.as_str(), l.kind))
            .collect();
        assert_eq!(
            lines,
            [
                ("More", LineKind::Heading(HeadingLevel::Bold)),
                ("after", LineKind::Text)
            ]
        );
    }

    #[test]
    fn only_the_first_title_in_head_counts() {
        let doc =
            extract("<head><title></title><title>Second</title></head><title>Body title</title>");
        assert_eq!(doc.title, None);
        assert_eq!(doc.text(), "Body title\n");
    }

    #[test]
    fn empty_page() {
        let doc = extract("");
        assert!(doc.lines.is_empty());
        assert!(doc.links.is_empty());
        assert_eq!(doc.word_count(), 0);
    }
}
