//! Tree construction as a stream of events, over an explicit stack of open
//! elements.
//!
//! Implements the subset of the HTML tree-construction rules that matters
//! for content extraction: void elements never take children, `<p>` and
//! `<li>`-style elements implicitly close their predecessors, an end tag
//! closes its nearest open namesake and everything opened inside it, and
//! unmatched end tags are ignored. Instead of building a tree, [`build`]
//! reports each element's opening and closing and each text run as they
//! happen, which is the tree's document (pre-)order. Per-name counts of the
//! open elements tell an end tag in one lookup whether it closes anything,
//! so an unmatched end tag costs no scan of the open elements.

use crate::tokenizer::{Attrs, Token, Tokenizer};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One step of the document in tree order.
pub(crate) enum Event<'t, 'a> {
    /// An element opens; its content follows until the matching `Exit`.
    Enter(&'t str, Attrs<'a>),
    /// Character data inside the innermost open element.
    Text(&'t str),
    /// The innermost open element closes.
    Exit,
}

/// Elements that never have children.
fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// When `incoming` starts, which open elements does it implicitly close?
fn implicitly_closes(incoming: &str, open: &str) -> bool {
    match incoming {
        "p" | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" | "ul" | "ol" | "table" | "div"
        | "section" | "article" | "header" | "footer" | "nav" | "blockquote" | "pre" => open == "p",
        "li" => open == "li",
        "tr" => matches!(open, "tr" | "td" | "th"),
        "td" | "th" => matches!(open, "td" | "th"),
        "option" => open == "option",
        "dt" | "dd" => matches!(open, "dt" | "dd"),
        _ => false,
    }
}

/// The open elements, innermost last, and how many are open per name.
#[derive(Default)]
struct OpenElements<'a> {
    stack: Vec<Cow<'a, str>>,
    counts: BTreeMap<Cow<'a, str>, usize>,
}

impl<'a> OpenElements<'a> {
    fn push(&mut self, name: Cow<'a, str>) {
        *self.counts.entry(name.clone()).or_default() += 1;
        self.stack.push(name);
    }

    fn pop(&mut self) -> Option<Cow<'a, str>> {
        let name = self.stack.pop()?;
        if let Some(count) = self.counts.get_mut(name.as_ref()) {
            *count -= 1;
        }
        Some(name)
    }

    /// Whether an element named `name` is open.
    fn is_open(&self, name: &str) -> bool {
        self.counts.get(name).is_some_and(|&count| count > 0)
    }
}

/// Parse `html`, reporting the resulting tree to `sink` in document order.
pub(crate) fn build<'a>(html: &'a str, mut sink: impl FnMut(Event<'_, 'a>)) {
    let mut open = OpenElements::default();
    for token in Tokenizer::new(html) {
        match token {
            Token::Text(text) => sink(Event::Text(&text)),
            Token::Comment(_) | Token::Doctype(_) => {}
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                while open
                    .stack
                    .last()
                    .is_some_and(|top| implicitly_closes(&name, top))
                {
                    open.pop();
                    sink(Event::Exit);
                }
                sink(Event::Enter(&name, attrs));
                if self_closing || is_void(&name) {
                    sink(Event::Exit);
                } else {
                    open.push(name);
                }
            }
            Token::EndTag { name } => {
                // Close the nearest open namesake; ignore the tag if none.
                if open.is_open(&name) {
                    while let Some(closed) = open.pop() {
                        sink(Event::Exit);
                        if closed == name {
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
    /// `-` for one closing, quoted text.
    fn events(html: &str) -> Vec<String> {
        let mut out = Vec::new();
        build(html, |event| {
            out.push(match event {
                Event::Enter(name, _) => format!("+{name}"),
                Event::Text(text) => format!("'{text}'"),
                Event::Exit => "-".to_string(),
            })
        });
        out
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
