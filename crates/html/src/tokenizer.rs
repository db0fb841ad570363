//! A forgiving HTML tokenizer.
//!
//! [`Tokenizer`] yields a flat stream of [`Token`]s borrowed from the input:
//! start tags (with their attributes, looked up on demand in [`Attrs`]), end
//! tags, text, comments, and doctype. Raw-text elements (`<script>`,
//! `<style>`, `<textarea>`, `<title>`) swallow their content until the
//! matching close tag, as per the HTML parsing algorithm. Malformed input
//! never panics — stray `<` become text, unterminated constructs run to
//! end-of-input. Every byte of the input is scanned a bounded number of
//! times, so work is linear in input size.
//!
//! Text is most of a page's bytes, and every page the crawler fetches
//! passes through here (both [`crate::links`] and [`crate::extract`] read
//! it). A text run ends at the next `<`: one pass over the run, eight
//! bytes per step (one `u64` in which a mask flags the `<` and `&` bytes),
//! finds that `<` and whether an `&` comes before it. A run without an
//! `&` is borrowed as it is; only a run with one is read again, by
//! [`entity::decode`]. The two-pass scan this replaced, `find('<')` and
//! then `decode`'s own search for `&`, is the oracle of its tests.

use crate::entity;
use std::borrow::Cow;

/// The attributes of a start tag: the source between the tag name and its
/// closing `>`, parsed when asked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attrs<'a>(&'a str);

impl<'a> Attrs<'a> {
    /// Entity-decoded value of the first attribute named `name` (given in
    /// lower case; attribute names match without regard to ASCII case).
    /// A bare attribute has the value "".
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        let mut scan = Scan::new(self.0, 0);
        while let Some(item) = scan.next_item() {
            if let Item::Attr(n, value) = item {
                if !n.is_empty() && n.eq_ignore_ascii_case(name) {
                    return Some(entity::decode(value));
                }
            }
        }
        None
    }
}

/// One token from the input stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<name attr=...>`; `self_closing` reflects a `/` among the attributes.
    StartTag {
        /// Tag name (lower-case).
        name: Cow<'a, str>,
        /// Attributes.
        attrs: Attrs<'a>,
        /// Whether the tag contained a `/` outside attribute values, as in
        /// `<br/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Tag name (lower-case).
        name: Cow<'a, str>,
    },
    /// Character data: entity-decoded, except inside raw-text elements.
    Text(Cow<'a, str>),
    /// `<!-- ... -->` (content, undecoded).
    Comment(&'a str),
    /// `<!DOCTYPE ...>` (content after `<!`, undecoded).
    Doctype(&'a str),
}

/// Elements whose content is raw text (no nested markup).
fn is_raw_text(name: &str) -> bool {
    matches!(name, "script" | "style" | "textarea" | "title")
}

fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Iterator over the tokens of an HTML document.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// A raw-text element just opened; its content comes next.
    raw: Option<Cow<'a, str>>,
    /// The end tag that closes raw text already yielded.
    raw_end: Option<Cow<'a, str>>,
}

impl<'a> Tokenizer<'a> {
    /// Tokenize `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            raw: None,
            raw_end: None,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// `self.pos` is at a `<`. Consume one markup construct, returning its
    /// token if it produces one.
    fn markup(&mut self) -> Option<Token<'a>> {
        let rest = self.rest();
        let after = &rest[1..];

        if let Some(comment) = after.strip_prefix("!--") {
            // Comment: until -->
            return Some(match comment.find("-->") {
                Some(end) => {
                    self.pos += 1 + 3 + end + 3;
                    Token::Comment(&comment[..end])
                }
                None => {
                    self.pos = self.input.len();
                    Token::Comment(comment)
                }
            });
        }
        if after.starts_with('!') || after.starts_with('?') {
            // Doctype / processing instruction: until '>'.
            return Some(match after.find('>') {
                Some(end) => {
                    self.pos += 1 + end + 1;
                    Token::Doctype(&after[1..end])
                }
                None => {
                    self.pos = self.input.len();
                    Token::Doctype(&after[1..])
                }
            });
        }
        if let Some(close) = after.strip_prefix('/') {
            // End tag.
            let Some(end) = close.find('>') else {
                self.pos = self.input.len();
                return None;
            };
            self.pos += 2 + end + 1;
            let name = close[..end].trim().trim_end_matches('/');
            return (!name.is_empty()).then(|| Token::EndTag {
                name: lowercase(name),
            });
        }
        if !after.starts_with(|c: char| c.is_ascii_alphabetic()) {
            // Stray '<': emit as text.
            self.pos += 1;
            return Some(Token::Text(Cow::Borrowed(&rest[..1])));
        }
        // Start tag.
        let bytes = rest.as_bytes();
        let mut i = 1; // skip '<'
        while i < bytes.len()
            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b':')
        {
            i += 1;
        }
        let name = lowercase(&rest[1..i]);
        let mut scan = Scan::new(rest, i);
        let mut self_closing = false;
        while let Some(item) = scan.next_item() {
            self_closing |= matches!(item, Item::Slash);
        }
        if scan.i >= rest.len() {
            // Unterminated tag; drop the rest.
            self.pos = self.input.len();
            return None;
        }
        self.pos += scan.i + 1;
        if is_raw_text(&name) && !self_closing {
            self.raw = Some(name.clone());
        }
        Some(Token::StartTag {
            name,
            attrs: Attrs(&rest[i..scan.i]),
            self_closing,
        })
    }

    /// After a raw-text start tag, consume content until `</name` (ASCII
    /// case-insensitive) and the `>` after it: the content as one Text token
    /// (undecoded, as the HTML spec treats raw text), then the end tag.
    fn raw_text(&mut self, name: Cow<'a, str>) -> Option<Token<'a>> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let close = rest.match_indices("</").map(|(idx, _)| idx).find(|&idx| {
            bytes
                .get(idx + 2..idx + 2 + name.len())
                .is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()))
        });
        let Some(idx) = close else {
            self.pos = self.input.len();
            return (!rest.is_empty()).then_some(Token::Text(Cow::Borrowed(rest)));
        };
        // Find the '>' terminating the close tag.
        let after = &rest[idx..];
        let end = after.find('>').map(|e| e + 1).unwrap_or(after.len());
        self.pos += idx + end;
        if idx == 0 {
            return Some(Token::EndTag { name });
        }
        self.raw_end = Some(name);
        Some(Token::Text(Cow::Borrowed(&rest[..idx])))
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(name) = self.raw_end.take() {
            return Some(Token::EndTag { name });
        }
        if let Some(name) = self.raw.take() {
            if let Some(token) = self.raw_text(name) {
                return Some(token);
            }
        }
        while self.pos < self.input.len() {
            let (len, text) = text_run(self.rest());
            if len > 0 {
                self.pos += len;
                return Some(Token::Text(text));
            }
            if let Some(token) = self.markup() {
                return Some(token);
            }
        }
        None
    }
}

/// The text at the start of `rest`, up to its first `<` or its end: the
/// run's length and the run entity-decoded. One pass finds both the `<`
/// and whether an `&` comes before it, so a run without one (nearly every
/// run) is borrowed as it is and only a run with one is read again, by
/// [`entity::decode`].
fn text_run(rest: &str) -> (usize, Cow<'_, str>) {
    let (len, amp) = scan_text(rest.as_bytes());
    let run = rest.get(..len).unwrap_or(rest);
    let text = if amp {
        entity::decode(run)
    } else {
        Cow::Borrowed(run)
    };
    (len, text)
}

/// One in each byte of a `u64`.
const ONES: u64 = 0x0101_0101_0101_0101;
/// The high bit of each byte of a `u64`.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The position of the first `<` in `bytes` (their length if there is
/// none) and whether an `&` comes before it, reading eight bytes per step.
fn scan_text(bytes: &[u8]) -> (usize, bool) {
    let (chunks, tail) = bytes.as_chunks::<8>();
    let mut amp = false;
    for (i, chunk) in chunks.iter().enumerate() {
        let word = u64::from_le_bytes(*chunk);
        let amps = bytes_equal(word, b'&');
        let lts = bytes_equal(word, b'<');
        if lts != 0 {
            // The bits below the first `<`'s flag cover the bytes before it.
            let before = (lts & lts.wrapping_neg()) - 1;
            let at = i * 8 + (lts.trailing_zeros() / 8) as usize;
            return (at, amp || amps & before != 0);
        }
        amp |= amps != 0;
    }
    let at = chunks.len() * 8;
    for (i, &b) in tail.iter().enumerate() {
        if b == b'<' {
            return (at + i, amp);
        }
        amp |= b == b'&';
    }
    (bytes.len(), amp)
}

/// The high bit of each byte of `word` (first byte lowest) that equals
/// `b`, and possibly of bytes above such a byte: a borrow out of a match
/// can flag the byte above it, so the lowest flag is always a match.
fn bytes_equal(word: u64, b: u8) -> u64 {
    let x = word ^ (ONES * u64::from(b));
    x.wrapping_sub(ONES) & !x & HIGH_BITS
}

/// The two passes [`text_run`] replaced, kept as the oracle of its tests:
/// `find('<')`, then [`entity::decode`]'s own search for `&`.
#[cfg(test)]
mod legacy {
    use crate::entity;
    use std::borrow::Cow;

    pub(super) fn text_run(rest: &str) -> (usize, Cow<'_, str>) {
        let lt = rest.find('<').unwrap_or(rest.len());
        (lt, entity::decode(&rest[..lt]))
    }
}

/// One step of the attribute scanner.
enum Item<'a> {
    /// An attribute's raw name (possibly empty, as in `=x`) and raw value
    /// ("" for a bare attribute).
    Attr(&'a str, &'a str),
    /// A `/` outside any attribute value.
    Slash,
}

/// Scans the attribute area of a start tag up to its closing `>` or the
/// end of `src`. The tokenizer runs it once over the rest of the input to
/// find the tag's end; [`Attrs`] runs it again over just the attribute
/// area, where the end of the slice stands in for the `>`.
struct Scan<'a> {
    src: &'a str,
    i: usize,
}

impl<'a> Scan<'a> {
    fn new(src: &'a str, i: usize) -> Self {
        Scan { src, i }
    }

    fn skip_whitespace(&mut self) {
        let bytes = self.src.as_bytes();
        while self.i < bytes.len() && bytes[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    /// The next attribute or `/`; `None` at the closing `>` (where `i` is
    /// left) or at the end of `src`.
    fn next_item(&mut self) -> Option<Item<'a>> {
        let bytes = self.src.as_bytes();
        loop {
            self.skip_whitespace();
            match bytes.get(self.i)? {
                b'>' => return None,
                b'/' => {
                    self.i += 1;
                    return Some(Item::Slash);
                }
                b'"' | b'\'' => {
                    // Stray quote; skip.
                    self.i += 1;
                }
                _ => break,
            }
        }
        let name_start = self.i;
        while self.i < bytes.len()
            && !bytes[self.i].is_ascii_whitespace()
            && !matches!(bytes[self.i], b'=' | b'>' | b'/')
        {
            self.i += 1;
        }
        let name = &self.src[name_start..self.i];
        self.skip_whitespace();
        if bytes.get(self.i) != Some(&b'=') {
            return Some(Item::Attr(name, ""));
        }
        self.i += 1;
        self.skip_whitespace();
        let value = match bytes.get(self.i) {
            Some(&quote @ (b'"' | b'\'')) => {
                self.i += 1;
                let start = self.i;
                while self.i < bytes.len() && bytes[self.i] != quote {
                    self.i += 1;
                }
                let value = &self.src[start..self.i];
                if self.i < bytes.len() {
                    self.i += 1; // closing quote
                }
                value
            }
            _ => {
                let start = self.i;
                while self.i < bytes.len()
                    && !bytes[self.i].is_ascii_whitespace()
                    && bytes[self.i] != b'>'
                {
                    self.i += 1;
                }
                &self.src[start..self.i]
            }
        };
        Some(Item::Attr(name, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(input: &str) -> Vec<Token<'_>> {
        Tokenizer::new(input).collect()
    }

    fn start(name: &str) -> Token<'_> {
        Token::StartTag {
            name: name.into(),
            attrs: Attrs::default(),
            self_closing: false,
        }
    }

    fn attrs<'a>(token: &Token<'a>) -> Attrs<'a> {
        match token {
            Token::StartTag { attrs, .. } => *attrs,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simple_document() {
        let toks = tokenize("<p>Hello</p>");
        assert_eq!(
            toks,
            vec![
                start("p"),
                Token::Text("Hello".into()),
                Token::EndTag { name: "p".into() },
            ]
        );
    }

    #[test]
    fn attributes_quoted_and_bare() {
        let toks = tokenize(r#"<a href="/privacy" class='x' hidden data-n=5>"#);
        assert!(
            matches!(&toks[0], Token::StartTag { name, self_closing: false, .. } if name == "a")
        );
        let attrs = attrs(&toks[0]);
        assert_eq!(attrs.get("href").as_deref(), Some("/privacy"));
        assert_eq!(attrs.get("class").as_deref(), Some("x"));
        assert_eq!(attrs.get("hidden").as_deref(), Some(""));
        assert_eq!(attrs.get("data-n").as_deref(), Some("5"));
    }

    #[test]
    fn attr_lookup() {
        let toks = tokenize(r#"<a HREF="/privacy-policy" rel=nofollow href=/second =x>"#);
        let attrs = attrs(&toks[0]);
        assert_eq!(attrs.get("href").as_deref(), Some("/privacy-policy"));
        assert_eq!(attrs.get("rel").as_deref(), Some("nofollow"));
        assert_eq!(attrs.get("missing"), None);
        assert_eq!(attrs.get(""), None);
    }

    #[test]
    fn self_closing() {
        let toks = tokenize("<br/><img src=x />");
        assert!(
            matches!(&toks[0], Token::StartTag { name, self_closing: true, .. } if name == "br")
        );
        assert!(
            matches!(&toks[1], Token::StartTag { name, self_closing: true, .. } if name == "img")
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = tokenize(r#"<a title="Ben &amp; Jerry">&copy; 2024</a>"#);
        assert_eq!(attrs(&toks[0]).get("title").as_deref(), Some("Ben & Jerry"));
        assert_eq!(toks[1], Token::Text("© 2024".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- hi --><p>x</p>");
        assert!(
            matches!(&toks[0], Token::Doctype(d) if d.contains("DOCTYPE") || d.contains("html"))
        );
        assert_eq!(toks[1], Token::Comment(" hi "));
    }

    #[test]
    fn script_raw_text_not_parsed() {
        let toks = tokenize("<script>if (a < b) { x(); }</script><p>y</p>");
        assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "script"));
        assert_eq!(toks[1], Token::Text("if (a < b) { x(); }".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
    }

    #[test]
    fn script_case_insensitive_close() {
        let toks = tokenize("<SCRIPT>var x=1;</ScRiPt>done");
        assert_eq!(toks[1], Token::Text("var x=1;".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(toks[3], Token::Text("done".into()));
    }

    #[test]
    fn stray_lt_is_text() {
        let toks = tokenize("1 < 2 and <b>bold</b>");
        let text: String = toks
            .iter()
            .filter_map(|t| match t {
                Token::Text(s) => Some(s.as_ref()),
                _ => None,
            })
            .collect();
        assert!(text.contains("1 < 2 and "));
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        for s in [
            "<p",
            "<!-- open",
            "<a href=\"x",
            "</",
            "<script>never closed",
        ] {
            let _ = tokenize(s);
        }
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    /// Equal length and text, and borrowed exactly when the legacy run is:
    /// a run holding an `&` that decodes to itself still counts.
    fn assert_run_like_legacy(s: &str) {
        let (len, text) = text_run(s);
        let (legacy_len, legacy_text) = legacy::text_run(s);
        assert_eq!(
            (len, matches!(text, Cow::Borrowed(_)), text),
            (
                legacy_len,
                matches!(legacy_text, Cow::Borrowed(_)),
                legacy_text
            ),
            "{s:?}"
        );
    }

    #[test]
    fn text_run_matches_legacy_at_every_offset() {
        let controls = (0u8..0x20).map(char::from);
        let mut specials: Vec<String> = controls.map(String::from).collect();
        specials.extend(["\"", "\\", "\x7f", "<", "&", "&amp;", "é", "€", "😀"].map(String::from));
        for len in 0..=24 {
            for offset in 0..=len.min(16) {
                for special in &specials {
                    let mut s = "a".repeat(len);
                    s.insert_str(offset, special);
                    assert_run_like_legacy(&s);
                }
                // An entity and a `<` at every pair of offsets, either first.
                for other in 0..=len.min(16) {
                    let mut s = "a".repeat(len);
                    s.insert(offset, '<');
                    s.insert_str(other, "&lt;");
                    assert_run_like_legacy(&s);
                }
            }
        }
    }

    /// A char drawn from `v`: mostly letters, then any ASCII byte (the
    /// specials included) and 2-, 3- and 4-byte chars.
    fn char_of(v: u32) -> char {
        let pick = v >> 4;
        match v & 15 {
            0 => char::from_u32(0x80 + pick % 0x780),
            1 => char::from_u32(0xE000 + pick % 0x1000),
            2 => char::from_u32(0x1_0000 + pick),
            3..=6 => char::from_u32(pick % 0x80),
            _ => char::from_u32(u32::from(b'a') + pick % 26),
        }
        .unwrap_or('a')
    }

    proptest::proptest! {
        #[test]
        fn text_run_matches_legacy(
            chars in proptest::collection::vec(0u32..0x1_0000, 0..80),
            entity in 0usize..3,
        ) {
            let s: String = chars.iter().copied().map(char_of).collect();
            // Make `<` and `&` common enough to meet each other.
            let s = s.replace('x', "<").replace('y', ["&", "&lt;", "&amp;"][entity]);
            assert_run_like_legacy(&s);
        }
    }
}
