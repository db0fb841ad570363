//! Tree construction as a stream of events, over an explicit stack of open
//! elements.
//!
//! Implements the subset of the HTML tree-construction rules that matters
//! for content extraction: void elements never take children, `<p>` and
//! `<li>`-style elements implicitly close their predecessors, an end tag
//! closes its nearest open namesake and everything opened inside it, and
//! unmatched end tags are ignored. Instead of building a tree, [`build`]
//! reports each element's opening and closing and each text run as they
//! happen, which is the tree's document (pre-)order. Each tag name is
//! resolved once, to a [`Tag`] that these rules and the renderer match on.
//! Counts of the open elements per tag (an array for the listed tags, a map
//! for the names of `Other` elements) tell an end tag in one lookup whether
//! it closes anything, so an unmatched end tag costs no scan of the open
//! elements.

use crate::tokenizer::{Attrs, Token, Tokenizer};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// An element's tag: each name a tree or render rule mentions has its own
/// variant, and every other name is `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    A,
    Address,
    Area,
    Article,
    Aside,
    B,
    Base,
    Blockquote,
    Body,
    Br,
    Col,
    Dd,
    Details,
    Div,
    Dl,
    Dt,
    Embed,
    Fieldset,
    Figcaption,
    Figure,
    Footer,
    Form,
    H1,
    H2,
    H3,
    H4,
    H5,
    H6,
    Head,
    Header,
    Hr,
    Html,
    Iframe,
    Img,
    Input,
    Li,
    Link,
    Main,
    Meta,
    Nav,
    Noscript,
    Ol,
    Option,
    P,
    Param,
    Pre,
    Script,
    Section,
    Source,
    Strong,
    Style,
    Summary,
    Svg,
    Table,
    Tbody,
    Td,
    Template,
    Tfoot,
    Th,
    Thead,
    Title,
    Tr,
    Track,
    Ul,
    Wbr,
    /// A name no rule mentions.
    Other,
}

/// How many tags have a variant of their own: `Other` comes last, so every
/// other tag is a valid index below it.
const LISTED: usize = Tag::Other as usize;

impl Tag {
    /// The tag of an element name, which the tokenizer gives in lower case.
    fn of(name: &str) -> Tag {
        match name.as_bytes() {
            b"a" => Tag::A,
            b"address" => Tag::Address,
            b"area" => Tag::Area,
            b"article" => Tag::Article,
            b"aside" => Tag::Aside,
            b"b" => Tag::B,
            b"base" => Tag::Base,
            b"blockquote" => Tag::Blockquote,
            b"body" => Tag::Body,
            b"br" => Tag::Br,
            b"col" => Tag::Col,
            b"dd" => Tag::Dd,
            b"details" => Tag::Details,
            b"div" => Tag::Div,
            b"dl" => Tag::Dl,
            b"dt" => Tag::Dt,
            b"embed" => Tag::Embed,
            b"fieldset" => Tag::Fieldset,
            b"figcaption" => Tag::Figcaption,
            b"figure" => Tag::Figure,
            b"footer" => Tag::Footer,
            b"form" => Tag::Form,
            b"h1" => Tag::H1,
            b"h2" => Tag::H2,
            b"h3" => Tag::H3,
            b"h4" => Tag::H4,
            b"h5" => Tag::H5,
            b"h6" => Tag::H6,
            b"head" => Tag::Head,
            b"header" => Tag::Header,
            b"hr" => Tag::Hr,
            b"html" => Tag::Html,
            b"iframe" => Tag::Iframe,
            b"img" => Tag::Img,
            b"input" => Tag::Input,
            b"li" => Tag::Li,
            b"link" => Tag::Link,
            b"main" => Tag::Main,
            b"meta" => Tag::Meta,
            b"nav" => Tag::Nav,
            b"noscript" => Tag::Noscript,
            b"ol" => Tag::Ol,
            b"option" => Tag::Option,
            b"p" => Tag::P,
            b"param" => Tag::Param,
            b"pre" => Tag::Pre,
            b"script" => Tag::Script,
            b"section" => Tag::Section,
            b"source" => Tag::Source,
            b"strong" => Tag::Strong,
            b"style" => Tag::Style,
            b"summary" => Tag::Summary,
            b"svg" => Tag::Svg,
            b"table" => Tag::Table,
            b"tbody" => Tag::Tbody,
            b"td" => Tag::Td,
            b"template" => Tag::Template,
            b"tfoot" => Tag::Tfoot,
            b"th" => Tag::Th,
            b"thead" => Tag::Thead,
            b"title" => Tag::Title,
            b"tr" => Tag::Tr,
            b"track" => Tag::Track,
            b"ul" => Tag::Ul,
            b"wbr" => Tag::Wbr,
            _ => Tag::Other,
        }
    }
}

/// One step of the document in tree order.
pub(crate) enum Event<'t, 'a> {
    /// An element opens; its content follows until the matching `Exit`.
    Enter(Tag, Attrs<'a>),
    /// Character data inside the innermost open element.
    Text(&'t str),
    /// The innermost open element closes.
    Exit,
}

/// Elements that never have children.
fn is_void(tag: Tag) -> bool {
    matches!(
        tag,
        Tag::Area
            | Tag::Base
            | Tag::Br
            | Tag::Col
            | Tag::Embed
            | Tag::Hr
            | Tag::Img
            | Tag::Input
            | Tag::Link
            | Tag::Meta
            | Tag::Param
            | Tag::Source
            | Tag::Track
            | Tag::Wbr
    )
}

/// When `incoming` starts, which open elements does it implicitly close?
fn implicitly_closes(incoming: Tag, open: Tag) -> bool {
    match incoming {
        Tag::P
        | Tag::H1
        | Tag::H2
        | Tag::H3
        | Tag::H4
        | Tag::H5
        | Tag::H6
        | Tag::Ul
        | Tag::Ol
        | Tag::Table
        | Tag::Div
        | Tag::Section
        | Tag::Article
        | Tag::Header
        | Tag::Footer
        | Tag::Nav
        | Tag::Blockquote
        | Tag::Pre => open == Tag::P,
        Tag::Li => open == Tag::Li,
        Tag::Tr => matches!(open, Tag::Tr | Tag::Td | Tag::Th),
        Tag::Td | Tag::Th => matches!(open, Tag::Td | Tag::Th),
        Tag::Option => open == Tag::Option,
        Tag::Dt | Tag::Dd => matches!(open, Tag::Dt | Tag::Dd),
        _ => false,
    }
}

/// The open elements, innermost last, and how many are open per tag.
struct OpenElements<'a> {
    stack: Vec<Tag>,
    /// The names of the open `Other` elements, innermost last.
    other_names: Vec<Cow<'a, str>>,
    /// Open elements per listed tag, indexed by the tag.
    counts: [usize; LISTED],
    /// Open `Other` elements per name.
    other_counts: BTreeMap<Cow<'a, str>, usize>,
}

impl<'a> OpenElements<'a> {
    fn new() -> Self {
        OpenElements {
            stack: Vec::new(),
            other_names: Vec::new(),
            counts: [0; LISTED],
            other_counts: BTreeMap::new(),
        }
    }

    fn push(&mut self, tag: Tag, name: Cow<'a, str>) {
        // `Other` is the one tag past the end of `counts`.
        if let Some(count) = self.counts.get_mut(tag as usize) {
            *count += 1;
        } else {
            *self.other_counts.entry(name.clone()).or_default() += 1;
            self.other_names.push(name);
        }
        self.stack.push(tag);
    }

    /// Close the innermost open element, returning its tag and, for an
    /// `Other` element, its name.
    fn pop(&mut self) -> Option<(Tag, Option<Cow<'a, str>>)> {
        let tag = self.stack.pop()?;
        if let Some(count) = self.counts.get_mut(tag as usize) {
            *count -= 1;
            return Some((tag, None));
        }
        let name = self.other_names.pop();
        if let Some(count) = name
            .as_ref()
            .and_then(|name| self.other_counts.get_mut(name.as_ref()))
        {
            *count -= 1;
        }
        Some((tag, name))
    }

    /// Whether an element `tag` named `name` is open.
    fn is_open(&self, tag: Tag, name: &str) -> bool {
        match self.counts.get(tag as usize) {
            Some(&count) => count > 0,
            None => self.other_counts.get(name).is_some_and(|&count| count > 0),
        }
    }
}

/// Parse `html`, reporting the resulting tree to `sink` in document order.
pub(crate) fn build<'a>(html: &'a str, mut sink: impl FnMut(Event<'_, 'a>)) {
    let mut open = OpenElements::new();
    for token in Tokenizer::new(html) {
        match token {
            Token::Text(text) => sink(Event::Text(&text)),
            Token::Comment(_) | Token::Doctype(_) => {}
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                let tag = Tag::of(&name);
                while open
                    .stack
                    .last()
                    .is_some_and(|&top| implicitly_closes(tag, top))
                {
                    open.pop();
                    sink(Event::Exit);
                }
                sink(Event::Enter(tag, attrs));
                if self_closing || is_void(tag) {
                    sink(Event::Exit);
                } else {
                    open.push(tag, name);
                }
            }
            Token::EndTag { name } => {
                // Close the nearest open namesake; ignore the tag if none.
                let tag = Tag::of(&name);
                if open.is_open(tag, &name) {
                    while let Some((closed, closed_name)) = open.pop() {
                        sink(Event::Exit);
                        if closed == tag && closed_name.is_none_or(|closed| closed == name) {
                            break;
                        }
                    }
                }
            }
        }
    }
    while open.pop().is_some() {
        sink(Event::Exit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event stream in a compact form: `+name` for an element opening,
    /// `-` for one closing, quoted text. Each `Enter` takes the name of the
    /// next start tag, which must resolve to the event's tag.
    fn events(html: &str) -> Vec<String> {
        let mut names = Tokenizer::new(html).filter_map(|token| match token {
            Token::StartTag { name, .. } => Some(name),
            _ => None,
        });
        let mut out = Vec::new();
        build(html, |event| {
            out.push(match event {
                Event::Enter(tag, _) => {
                    let name = names.next().expect("one start tag per element");
                    assert_eq!(tag, Tag::of(&name), "{name}");
                    format!("+{name}")
                }
                Event::Text(text) => format!("'{text}'"),
                Event::Exit => "-".to_string(),
            })
        });
        out
    }

    /// Every name a rule mentions, in the order of `Tag`'s variants.
    const LISTED_NAMES: [(&str, Tag); LISTED] = [
        ("a", Tag::A),
        ("address", Tag::Address),
        ("area", Tag::Area),
        ("article", Tag::Article),
        ("aside", Tag::Aside),
        ("b", Tag::B),
        ("base", Tag::Base),
        ("blockquote", Tag::Blockquote),
        ("body", Tag::Body),
        ("br", Tag::Br),
        ("col", Tag::Col),
        ("dd", Tag::Dd),
        ("details", Tag::Details),
        ("div", Tag::Div),
        ("dl", Tag::Dl),
        ("dt", Tag::Dt),
        ("embed", Tag::Embed),
        ("fieldset", Tag::Fieldset),
        ("figcaption", Tag::Figcaption),
        ("figure", Tag::Figure),
        ("footer", Tag::Footer),
        ("form", Tag::Form),
        ("h1", Tag::H1),
        ("h2", Tag::H2),
        ("h3", Tag::H3),
        ("h4", Tag::H4),
        ("h5", Tag::H5),
        ("h6", Tag::H6),
        ("head", Tag::Head),
        ("header", Tag::Header),
        ("hr", Tag::Hr),
        ("html", Tag::Html),
        ("iframe", Tag::Iframe),
        ("img", Tag::Img),
        ("input", Tag::Input),
        ("li", Tag::Li),
        ("link", Tag::Link),
        ("main", Tag::Main),
        ("meta", Tag::Meta),
        ("nav", Tag::Nav),
        ("noscript", Tag::Noscript),
        ("ol", Tag::Ol),
        ("option", Tag::Option),
        ("p", Tag::P),
        ("param", Tag::Param),
        ("pre", Tag::Pre),
        ("script", Tag::Script),
        ("section", Tag::Section),
        ("source", Tag::Source),
        ("strong", Tag::Strong),
        ("style", Tag::Style),
        ("summary", Tag::Summary),
        ("svg", Tag::Svg),
        ("table", Tag::Table),
        ("tbody", Tag::Tbody),
        ("td", Tag::Td),
        ("template", Tag::Template),
        ("tfoot", Tag::Tfoot),
        ("th", Tag::Th),
        ("thead", Tag::Thead),
        ("title", Tag::Title),
        ("tr", Tag::Tr),
        ("track", Tag::Track),
        ("ul", Tag::Ul),
        ("wbr", Tag::Wbr),
    ];

    #[test]
    fn every_listed_name_resolves_to_its_tag() {
        for (i, &(name, tag)) in LISTED_NAMES.iter().enumerate() {
            assert_eq!(Tag::of(name), tag, "{name}");
            // In variant order, so each variant is listed exactly once.
            assert_eq!(tag as usize, i, "{name}");
        }
        for name in ["", "span", "i", "x-a", "h7", "aa", "Div", "TITLE", "tablex"] {
            assert_eq!(Tag::of(name), Tag::Other, "{name}");
        }
    }

    #[test]
    fn unknown_and_upper_case_names_nest_and_close() {
        assert_eq!(
            events("<x-a><x-b>t</x-a>u"),
            ["+x-a", "+x-b", "'t'", "-", "-", "'u'"]
        );
        assert_eq!(
            events("<X-A><x-a>t</X-a>u</x-A>v"),
            ["+x-a", "+x-a", "'t'", "-", "'u'", "-", "'v'"]
        );
        // An unknown end tag closes only its namesake, a listed one only
        // its own, whatever the case.
        assert_eq!(
            events("<DIV><x-a><Span>t</x-b></SPAN>u</div>v"),
            ["+div", "+x-a", "+span", "'t'", "-", "'u'", "-", "-", "'v'"]
        );
        assert_eq!(
            events("<x-p><P>a<x-p>b</x-P>c</p>d"),
            ["+x-p", "+p", "'a'", "+x-p", "'b'", "-", "'c'", "-", "'d'", "-"]
        );
        // Once its namesakes are closed, an end tag closes nothing.
        assert_eq!(
            events("<div><x-a>a</x-a>b</x-a><i>c</i></i>d</div>e"),
            ["+div", "+x-a", "'a'", "-", "'b'", "+i", "'c'", "-", "'d'", "-", "'e'"]
        );
        assert_eq!(
            events("<div><b>a</b>b</b><p>c</p></p>d</div>e"),
            ["+div", "+b", "'a'", "-", "'b'", "+p", "'c'", "-", "'d'", "-", "'e'"]
        );
    }

    #[test]
    fn builds_nested_tree() {
        assert_eq!(
            events("<div><p>one</p><p>two</p></div>"),
            ["+div", "+p", "'one'", "-", "+p", "'two'", "-", "-"]
        );
    }

    #[test]
    fn p_implicitly_closed_by_p() {
        assert_eq!(
            events("<p>one<p>two"),
            ["+p", "'one'", "-", "+p", "'two'", "-"]
        );
    }

    #[test]
    fn li_implicitly_closed() {
        // No nesting: each li's text is exactly its own.
        assert_eq!(
            events("<ul><li>a<li>b<li>c</ul>"),
            ["+ul", "+li", "'a'", "-", "+li", "'b'", "-", "+li", "'c'", "-", "-"]
        );
    }

    #[test]
    fn void_elements_take_no_children() {
        assert_eq!(
            events("<p>a<br>b</p>"),
            ["+p", "'a'", "+br", "-", "'b'", "-"]
        );
        assert_eq!(events("<div/>x"), ["+div", "-", "'x'"]);
    }

    #[test]
    fn unmatched_end_tag_ignored() {
        assert_eq!(events("<div>x</span></div>"), ["+div", "'x'", "-"]);
        // A miss leaves the open elements as they were: both those already
        // open and those opened later still close.
        assert_eq!(
            events("<div><p>x</span><i>y</i></p>z</div>"),
            ["+div", "+p", "'x'", "+i", "'y'", "-", "-", "'z'", "-"]
        );
    }

    #[test]
    fn end_tag_closes_intervening_elements() {
        // </div> force-closes <b>.
        assert_eq!(
            events("<div><b>bold text</div>after"),
            ["+div", "+b", "'bold text'", "-", "-", "'after'"]
        );
        // Nested namesakes: the innermost one closes.
        assert_eq!(
            events("<div><div><i>x</div>y</div>"),
            ["+div", "+div", "+i", "'x'", "-", "-", "'y'", "-"]
        );
    }

    #[test]
    fn descendants_in_document_order() {
        let enters: Vec<_> = events("<div><p>a</p><span>b</span></div>")
            .into_iter()
            .filter(|e| e.starts_with('+'))
            .collect();
        assert_eq!(enters, ["+div", "+p", "+span"]);
    }

    #[test]
    fn malformed_soup_never_panics() {
        for s in [
            "<<<>>>",
            "<div><div><div>",
            "</p></p>",
            "<a <b> c>",
            "<p>x</",
            "<table><tr><td>a<td>b<tr><td>c</table>",
        ] {
            let events = events(s);
            let enters = events.iter().filter(|e| e.starts_with('+')).count();
            let exits = events.iter().filter(|e| *e == "-").count();
            assert_eq!(enters, exits, "{s}: {events:?}");
        }
    }
}
