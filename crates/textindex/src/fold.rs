//! Byte-exact re-expressions of [`aipan_taxonomy::normalize::fold`].
//!
//! `fold` returns a fresh `String` per call and pushes one char at a time,
//! which is fine at vocabulary build time but shows up hot when the
//! pipeline folds every policy line and thousands of candidate rows per
//! corpus. These helpers produce the *same bytes* — property-tested
//! against `fold` in `tests/fold_props.rs` — without the per-call
//! allocation: [`fold_into`] appends to a caller-reused buffer, and
//! [`fold_bytes`] streams the folded UTF-8 bytes one at a time (used to
//! insert verification needles straight into an automaton trie).
//!
//! The fold itself: ASCII-lowercase; keep word characters (alphanumerics
//! plus `-` `/` `&` `'`, decided by [`crate::word`]); collapse every
//! separator run to a single space; no leading or trailing space.
//!
//! An all-ASCII line, which is every line of the simulated corpus, is
//! folded by one byte loop with no `push` per char: each byte's fold is
//! written right after what has been kept so far, and the kept length
//! advances past a word byte and past the first space after one, so the
//! next write overwrites any further separator. A line with a non-ASCII
//! byte is folded one char at a time.

use crate::word::{fold_byte, is_word_char};

/// Append `fold(s)` onto `dst` without allocating a fresh `String`.
///
/// An all-ASCII `s` is folded by the byte loop into `dst`'s bytes, and the
/// whole buffer is checked as UTF-8 once on the way back, so this suits
/// the short buffers it is used with (needles, dedup keys); a whole
/// document is folded by [`crate::FoldedDoc`], which checks its buffer
/// once. Any other `s` is pushed onto `dst` one char at a time.
pub fn fold_into(dst: &mut String, s: &str) {
    if s.is_ascii() {
        let mut bytes = std::mem::take(dst).into_bytes();
        fold_ascii(&mut bytes, s.as_bytes());
        *dst = into_string(bytes);
    } else {
        fold_chars(s, |ch| dst.push(ch));
    }
}

/// Append the bytes of `fold(line)` onto `dst`.
pub(crate) fn fold_line(dst: &mut Vec<u8>, line: &str) {
    if line.is_ascii() {
        fold_ascii(dst, line.as_bytes());
    } else {
        // As `String::push` does: one byte for an ASCII char.
        fold_chars(line, |ch| match u8::try_from(ch) {
            Ok(b) if b.is_ascii() => dst.push(b),
            _ => dst.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes()),
        });
    }
}

/// The byte loop for an all-ASCII line. Folding never grows a line, so
/// `dst` is grown by the line's length up front, each byte's fold is
/// written at the end of what is kept so far, and `dst` is trimmed to
/// what was kept at the end.
fn fold_ascii(dst: &mut Vec<u8>, line: &[u8]) {
    let start = dst.len();
    dst.resize(start + line.len(), 0);
    let Some(out) = dst.get_mut(start..) else {
        return;
    };
    let mut kept = 0;
    let mut after_word = false;
    for &b in line {
        let folded = fold_byte(b);
        let word = folded != b' ';
        // `kept` never passes the index of the byte being read, so the
        // slot always exists.
        if let Some(slot) = out.get_mut(kept) {
            *slot = folded;
        }
        kept += usize::from(word | after_word);
        after_word = word;
    }
    // A separator run after the last word kept one space: drop it.
    kept -= usize::from(!after_word && kept > 0);
    dst.truncate(start + kept);
}

/// The char loop for a line with a non-ASCII byte: `push` receives the
/// folded chars.
fn fold_chars(s: &str, mut push: impl FnMut(char)) {
    let mut pending_space = false;
    let mut emitted = false;
    for ch in s.chars() {
        let ch = ch.to_ascii_lowercase();
        if is_word_char(ch) {
            if pending_space {
                push(' ');
                pending_space = false;
            }
            push(ch);
            emitted = true;
        } else if emitted {
            pending_space = true;
        }
    }
}

/// Folded bytes back as a `String`. Every byte was written by the byte
/// loop or the char loop — ASCII, or a whole char's UTF-8 — onto a buffer
/// that was UTF-8 already, so the check passes and the fallback never
/// runs.
pub(crate) fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

/// Stream the UTF-8 bytes of `fold(s)` without materializing it.
pub fn fold_bytes(s: &str) -> FoldBytes<'_> {
    FoldBytes {
        chars: s.chars(),
        buf: [0; 4],
        buf_len: 0,
        buf_pos: 0,
        pending_space: false,
        emitted: false,
    }
}

/// Iterator state for [`fold_bytes`].
#[derive(Debug, Clone)]
pub struct FoldBytes<'a> {
    chars: std::str::Chars<'a>,
    /// UTF-8 bytes of the current folded char still to be yielded.
    buf: [u8; 4],
    buf_len: u8,
    buf_pos: u8,
    /// A separator run was seen after at least one kept char; emit one
    /// space if another kept char follows (never trailing).
    pending_space: bool,
    emitted: bool,
}

impl Iterator for FoldBytes<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.buf_pos < self.buf_len {
            let b = self.buf[self.buf_pos as usize];
            self.buf_pos += 1;
            return Some(b);
        }
        loop {
            let ch = self.chars.next()?.to_ascii_lowercase();
            if is_word_char(ch) {
                let encoded = ch.encode_utf8(&mut self.buf);
                self.buf_len = u8::try_from(encoded.len()).unwrap_or(u8::MAX);
                self.buf_pos = 1;
                self.emitted = true;
                if self.pending_space {
                    self.pending_space = false;
                    self.buf_pos = 0;
                    return Some(b' ');
                }
                return Some(self.buf[0]);
            }
            if self.emitted {
                self.pending_space = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_taxonomy::normalize::fold;

    fn folded_via_bytes(s: &str) -> Vec<u8> {
        fold_bytes(s).collect()
    }

    #[test]
    fn matches_taxonomy_fold_on_representative_inputs() {
        for s in [
            "",
            "   ",
            "  E-Mail   Address!! ",
            "IP, address.",
            "zip/postal code",
            "We do NOT sell data…",
            "café résumé 中文 data",
            "a",
            "!?",
            "trailing space ",
            " leading",
        ] {
            let expected = fold(s);
            let mut appended = String::from("prefix·");
            fold_into(&mut appended, s);
            assert_eq!(appended, format!("prefix·{expected}"), "fold_into({s:?})");
            assert_eq!(
                folded_via_bytes(s),
                expected.as_bytes().to_vec(),
                "fold_bytes({s:?})"
            );
        }
    }

    #[test]
    fn fold_into_appends_without_separator() {
        let mut buf = String::new();
        fold_into(&mut buf, "One!");
        fold_into(&mut buf, "Two?");
        // Appends are raw concatenation; callers insert their own joins.
        assert_eq!(buf, "onetwo");
    }

    #[test]
    fn multibyte_kept_chars_stream_all_their_bytes() {
        // '中' is alphanumeric (Unicode letter) and 3 bytes in UTF-8.
        assert_eq!(folded_via_bytes("中"), "中".as_bytes().to_vec());
        assert_eq!(folded_via_bytes("a 中 b"), "a 中 b".as_bytes().to_vec());
    }
}
