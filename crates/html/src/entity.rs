//! HTML character-reference decoding.
//!
//! Supports the named entities that occur in practice on corporate sites plus
//! decimal/hex numeric references. Unknown references are passed through
//! verbatim (the forgiving behaviour browsers exhibit).

use std::borrow::Cow;

/// Named entities recognized by [`decode`]. Kept small on purpose: corporate
/// privacy pages overwhelmingly use this subset.
const NAMED: &[(&str, &str)] = &[
    ("amp", "&"),
    ("lt", "<"),
    ("gt", ">"),
    ("quot", "\""),
    ("apos", "'"),
    ("nbsp", "\u{a0}"),
    ("copy", "©"),
    ("reg", "®"),
    ("trade", "™"),
    ("mdash", "—"),
    ("ndash", "–"),
    ("hellip", "…"),
    ("lsquo", "\u{2018}"),
    ("rsquo", "\u{2019}"),
    ("ldquo", "\u{201c}"),
    ("rdquo", "\u{201d}"),
    ("bull", "•"),
    ("middot", "·"),
    ("sect", "§"),
    ("para", "¶"),
    ("eacute", "é"),
    ("egrave", "è"),
    ("agrave", "à"),
    ("uuml", "ü"),
    ("ouml", "ö"),
    ("auml", "ä"),
    ("ccedil", "ç"),
    ("ntilde", "ñ"),
];

/// Decode all character references in `input`.
///
/// * `&amp;` → `&`, `&#65;` → `A`, `&#x41;` → `A`.
/// * References may omit the trailing semicolon only for `&amp`, `&lt`,
///   `&gt`, `&quot`, `&nbsp` (the legacy forms browsers accept).
/// * Anything unrecognized is emitted unchanged.
///
/// Input without `&` is returned borrowed; otherwise the runs between
/// `&`s are copied whole.
pub fn decode(input: &str) -> Cow<'_, str> {
    let Some(first) = input.find('&') else {
        return Cow::Borrowed(input);
    };
    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first]);
    let mut rest = &input[first + 1..];
    loop {
        // `rest` starts just after an `&`.
        match decode_one(rest, &mut out) {
            Some(consumed) => rest = &rest[consumed..],
            None => out.push('&'),
        }
        match rest.find('&') {
            Some(amp) => {
                out.push_str(&rest[..amp]);
                rest = &rest[amp + 1..];
            }
            None => {
                out.push_str(rest);
                return Cow::Owned(out);
            }
        }
    }
}

/// Attempt to decode a single reference starting just after `&`, appending
/// it to `out`. Returns the number of bytes consumed (excluding the `&`).
fn decode_one(rest: &str, out: &mut String) -> Option<usize> {
    if let Some(num) = rest.strip_prefix('#') {
        // Numeric reference.
        let (digits, radix): (&str, u32) =
            if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
                (hex, 16)
            } else {
                (num, 10)
            };
        let end = digits
            .char_indices()
            .take_while(|(_, c)| c.is_digit(radix))
            .map(|(i, c)| i + c.len_utf8())
            .last()?;
        let code = u32::from_str_radix(&digits[..end], radix).ok()?;
        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
        let prefix_len = rest.len() - digits.len(); // "#" or "#x"
        let mut consumed = prefix_len + end;
        if rest[consumed..].starts_with(';') {
            consumed += 1;
        }
        return Some(consumed);
    }
    // Named reference: letters only, then optional ';'.
    let name_end = rest
        .char_indices()
        .take_while(|(_, c)| c.is_ascii_alphanumeric())
        .map(|(i, c)| i + c.len_utf8())
        .last()?;
    let name = &rest[..name_end];
    let has_semi = rest[name_end..].starts_with(';');
    let (n, v) = NAMED.iter().find(|(n, _)| *n == name)?;
    let consumed = if has_semi {
        name_end + 1
    } else if matches!(*n, "amp" | "lt" | "gt" | "quot" | "nbsp") {
        // Legacy semicolon-less forms.
        name_end
    } else {
        return None;
    };
    out.push_str(v);
    Some(consumed)
}

/// Escape text for inclusion in HTML content (used by the site generator).
pub fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_named() {
        assert_eq!(decode("a &amp; b"), "a & b");
        assert_eq!(decode("&lt;tag&gt;"), "<tag>");
        assert_eq!(decode("&copy; 2024"), "© 2024");
    }

    #[test]
    fn numeric() {
        assert_eq!(decode("&#65;&#x42;&#X43;"), "ABC");
        assert_eq!(decode("&#8212;"), "—");
    }

    #[test]
    fn numeric_without_semicolon() {
        assert_eq!(decode("&#65 rest"), "A rest");
    }

    #[test]
    fn legacy_semicolonless() {
        assert_eq!(decode("Ben &amp Jerry"), "Ben & Jerry");
        assert_eq!(decode("a&nbsp b"), "a\u{a0} b");
    }

    #[test]
    fn unknown_passthrough() {
        assert_eq!(decode("&bogus; &"), "&bogus; &");
        assert_eq!(decode("AT&T"), "AT&T");
    }

    #[test]
    fn invalid_codepoint_replaced() {
        assert_eq!(decode("&#x110000;"), "\u{fffd}");
    }

    #[test]
    fn escape_roundtrip() {
        let s = "a<b> & \"c\"";
        assert_eq!(decode(&escape(s)), s);
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(decode("héllo — wörld"), "héllo — wörld");
    }
}
