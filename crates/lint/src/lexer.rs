//! A minimal, forgiving Rust lexer.
//!
//! Produces a flat stream of [`Token`]s that concatenate back to the exact
//! input (`lex(src).iter().map(|t| t.text).collect::<String>() == src`).
//! That round-trip property is what the rule passes rely on: every byte of
//! the file is attributed to exactly one token, so comments, string
//! literals, and code are never confused with each other.
//!
//! The lexer follows the same scanner idiom as the HTML tokenizer in
//! `crates/html`: a cursor over the source with small `starts_with`-driven
//! dispatch, and no panics on malformed input — unterminated constructs run
//! to end-of-input, unknown bytes become one-byte [`TokenKind::Unknown`]
//! tokens.

/// Classification of one source token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#type`, ...).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Integer or float literal, including suffixes (`0xFF`, `1_000u32`, `1.5e3`).
    Number,
    /// String-ish literal: `"..."`, `r"..."`, `r#"..."#`, `b"..."`, `'c'`, `b'c'`.
    Literal,
    /// `// ...` comment, including doc comments (`///`, `//!`). Text excludes
    /// the trailing newline (that is emitted as whitespace).
    LineComment,
    /// `/* ... */` comment, nesting-aware.
    BlockComment,
    /// Run of whitespace.
    Whitespace,
    /// Single punctuation byte (`.`, `:`, `!`, `(`, ...). Multi-byte operators
    /// appear as consecutive `Punct` tokens, which is all the rule matchers need.
    Punct,
    /// Byte the lexer does not recognize (kept for round-trip fidelity).
    Unknown,
}

/// One lexed token: its kind, exact source text, and 1-based position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token classification.
    pub kind: TokenKind,
    /// Exact source slice; concatenating all token texts reproduces the input.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the token's first byte.
    pub col: u32,
}

/// Lex `src` into a token stream covering every byte.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        pos: 0,
        line: 1,
        col: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.src.len() {
            let rest = &self.src[self.pos..];
            let first = rest.as_bytes()[0];
            if first.is_ascii_whitespace() {
                self.whitespace(rest);
            } else if rest.starts_with("//") {
                self.line_comment(rest);
            } else if rest.starts_with("/*") {
                self.block_comment(rest);
            } else if let Some(len) = raw_string_len(rest) {
                self.emit(TokenKind::Literal, len);
            } else if rest.starts_with("b\"") {
                let len = 1 + quoted_len(&rest[1..], b'"');
                self.emit(TokenKind::Literal, len);
            } else if rest.starts_with("b'") {
                let len = 1 + quoted_len(&rest[1..], b'\'');
                self.emit(TokenKind::Literal, len);
            } else if first == b'"' {
                self.emit(TokenKind::Literal, quoted_len(rest, b'"'));
            } else if first == b'\'' {
                self.quote_or_lifetime(rest);
            } else if first.is_ascii_digit() {
                self.emit(TokenKind::Number, number_len(rest));
            } else if is_ident_start(first) || !first.is_ascii() {
                self.ident(rest);
            } else {
                let kind = if first.is_ascii_punctuation() {
                    TokenKind::Punct
                } else {
                    TokenKind::Unknown
                };
                self.emit(kind, 1);
            }
        }
        self.tokens
    }

    fn whitespace(&mut self, rest: &str) {
        let len = rest
            .as_bytes()
            .iter()
            .take_while(|b| b.is_ascii_whitespace())
            .count();
        self.emit(TokenKind::Whitespace, len);
    }

    fn line_comment(&mut self, rest: &str) {
        let len = rest.find('\n').unwrap_or(rest.len());
        self.emit(TokenKind::LineComment, len);
    }

    fn block_comment(&mut self, rest: &str) {
        let mut depth = 0usize;
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i..].starts_with(b"/*") {
                depth += 1;
                i += 2;
            } else if bytes[i..].starts_with(b"*/") {
                depth -= 1;
                i += 2;
                if depth == 0 {
                    break;
                }
            } else {
                i += 1;
            }
        }
        self.emit(TokenKind::BlockComment, i.min(rest.len()));
    }

    /// Disambiguate `'a` (lifetime) from `'a'` / `'\n'` (char literal): a
    /// quote followed by identifier bytes is a lifetime unless the run is
    /// closed by another quote.
    fn quote_or_lifetime(&mut self, rest: &str) {
        let bytes = rest.as_bytes();
        if bytes.len() >= 2 && is_ident_start(bytes[1]) {
            let ident_end = 1 + bytes[1..]
                .iter()
                .take_while(|&&b| is_ident_continue(b))
                .count();
            if bytes.get(ident_end) != Some(&b'\'') {
                self.emit(TokenKind::Lifetime, ident_end);
                return;
            }
        }
        self.emit(TokenKind::Literal, quoted_len(rest, b'\''));
    }

    fn ident(&mut self, rest: &str) {
        // `r#ident` raw identifiers lex as one token (raw strings were
        // already handled before this point).
        let mut start = 0;
        if rest.starts_with("r#") {
            start = 2;
        }
        let len = start
            + rest.as_bytes()[start..]
                .iter()
                .take_while(|&&b| is_ident_continue(b) || !b.is_ascii())
                .count();
        self.emit(TokenKind::Ident, len.max(1));
    }

    fn emit(&mut self, kind: TokenKind, len: usize) {
        let len = len.max(1).min(self.src.len() - self.pos);
        // Never split a UTF-8 code point: extend to the next char boundary.
        let mut end = self.pos + len;
        while end < self.src.len() && !self.src.is_char_boundary(end) {
            end += 1;
        }
        let text = &self.src[self.pos..end];
        self.tokens.push(Token {
            kind,
            text,
            line: self.line,
            col: self.col,
        });
        for b in text.bytes() {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.pos = end;
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length of a `"..."`-style literal starting at `rest[0] == quote`,
/// honoring backslash escapes; runs to end-of-input if unterminated.
fn quoted_len(rest: &str, quote: u8) -> usize {
    let bytes = rest.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b if b == quote => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Length of a raw string literal (`r"..."`, `r#"..."#`, `br##"..."##`) if
/// `rest` starts with one.
fn raw_string_len(rest: &str) -> Option<usize> {
    let bytes = rest.as_bytes();
    let mut i = 0;
    if bytes.first() == Some(&b'b') {
        i += 1;
    }
    if bytes.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let hash_start = i;
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    let hashes = i - hash_start;
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    while i < bytes.len() {
        if bytes[i..].starts_with(&closer) {
            return Some(i + closer.len());
        }
        i += 1;
    }
    Some(bytes.len())
}

/// Length of a numeric literal at the start of `rest` (first byte is a digit).
fn number_len(rest: &str) -> usize {
    let bytes = rest.as_bytes();
    let mut i = 0;
    if rest.starts_with("0x") || rest.starts_with("0o") || rest.starts_with("0b") {
        i = 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return i;
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    // Fractional part: `1.5` but not `1.max(2)` or `1..2`.
    if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
            i += 1;
        }
    }
    // Exponent: `1e9`, `2.5E-3`.
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix: `u32`, `f64`, `usize`.
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let joined: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src, "lexer must cover every byte");
    }

    #[test]
    fn covers_every_byte_of_typical_code() {
        let src = r##"
            fn main() {
                let s = "str with \" escape";
                let r = r#"raw "inner" text"#;
                let c = '\n';
                let l: &'static str = "x";
                // line comment
                /* block /* nested */ comment */
                let n = 0xFF_u32 + 1.5e3 + 1..2;
            }
        "##;
        roundtrip(src);
    }

    #[test]
    fn distinguishes_lifetime_from_char() {
        let toks = lex("'a 'a' '\\n' 'static");
        let kinds: Vec<TokenKind> = toks
            .iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Lifetime,
                TokenKind::Literal,
                TokenKind::Literal,
                TokenKind::Lifetime
            ]
        );
    }

    #[test]
    fn comments_swallow_code_like_text() {
        let toks = lex("// let x = y.unwrap();\nlet z = 1;");
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert!(toks[0].text.contains("unwrap"));
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, vec!["let", "z"]);
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = lex("a\n  bb\n");
        let bb = toks.iter().find(|t| t.text == "bb").unwrap();
        assert_eq!((bb.line, bb.col), (2, 3));
    }

    #[test]
    fn unterminated_constructs_reach_eof_without_panic() {
        roundtrip("\"never closed");
        roundtrip("/* never closed");
        roundtrip("r#\"never closed");
        roundtrip("'x");
    }

    #[test]
    fn raw_strings_hide_quotes_and_hashes() {
        let toks = lex(r###"r##"a "quoted" b"## + 1"###);
        assert_eq!(toks[0].kind, TokenKind::Literal);
        assert_eq!(toks[0].text, r###"r##"a "quoted" b"##"###);
    }

    #[test]
    fn byte_and_raw_byte_strings_lex_as_single_literals() {
        for src in [
            "b\"bytes \\\" esc\"",
            "b'x'",
            r###"br#"raw "bytes""#"###,
            r#"br"plain""#,
            r####"br##"double "# fence"##"####,
        ] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src} must be one literal, got {toks:?}");
            assert_eq!(toks[0].kind, TokenKind::Literal, "{src}");
        }
        // The `b` prefix must not glue onto following code.
        let idents: Vec<&str> = lex("b\"x\" y")
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, vec!["y"]);
    }

    #[test]
    fn hash_fenced_raw_string_stops_at_matching_fence() {
        // A shorter fence (`"#`) inside the literal must not close `r##`.
        let src = r####"r##"quote " one-fence "# still inside"## tail"####;
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::Literal);
        assert_eq!(
            toks[0].text,
            r####"r##"quote " one-fence "# still inside"##"####
        );
        assert!(toks.iter().any(|t| t.text == "tail"));
        roundtrip(src);
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let toks = lex("/* a /* b /* c */ */ */ x");
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[0].text, "/* a /* b /* c */ */ */");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, vec!["x"], "code after the comment must survive");
        // An inner `*/` at depth > 0 must not terminate the comment early.
        let toks = lex("/* outer /* inner */ let x = 1; */ done");
        assert_eq!(toks[0].text, "/* outer /* inner */ let x = 1; */");
    }

    #[test]
    fn number_forms() {
        for src in ["0xDEAD_BEEF", "1_000u64", "3.25", "1e9", "2.5E-3", "7usize"] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].kind, TokenKind::Number, "{src}");
        }
        // Method calls and ranges on integers must not absorb the dot.
        let toks = lex("1.max(2)");
        assert_eq!(toks[0].text, "1");
        let toks = lex("0..10");
        assert_eq!(toks[0].text, "0");
    }
}
