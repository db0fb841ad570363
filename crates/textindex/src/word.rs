//! The word-character decision, made in one place.
//!
//! A word character is alphanumeric (in the Unicode sense) or one of `-`,
//! `/`, `&` and `'`; every other char separates words. The taxonomy fold
//! ([`aipan_taxonomy::normalize::fold`], the reference definition) keeps
//! word characters and collapses each separator run to one space, and the
//! chatbot's vocabulary tokenizer splits a line into runs of word
//! characters. Both read their input through this module: an ASCII byte is
//! classified and lower-cased by one table lookup ([`fold_byte`]), and only
//! a non-ASCII char is decoded, to ask [`char::is_alphanumeric`]
//! ([`is_word_char`]).

/// [`fold_byte`] for every byte value.
static FOLD: [u8; 256] = fold_table();

const fn fold_table() -> [u8; 256] {
    let mut table = [b' '; 256];
    let mut b: u8 = 0;
    loop {
        let word = b.is_ascii_alphanumeric() || matches!(b, b'-' | b'/' | b'&' | b'\'');
        table[b as usize] = if b >= 0x80 {
            b
        } else if word {
            b.to_ascii_lowercase()
        } else {
            b' '
        };
        if b == u8::MAX {
            return table;
        }
        b += 1;
    }
}

/// One byte through the fold: an ASCII word byte lower-cased, `b' '` for
/// any other ASCII byte, and a byte of a non-ASCII char (`0x80` and up)
/// unchanged, for the caller to decode the char and ask [`is_word_char`].
///
/// So a result below `0x80` other than `b' '` is a word byte, and a result
/// of `0x80` or more means "decode".
#[inline]
pub fn fold_byte(b: u8) -> u8 {
    FOLD.get(usize::from(b)).copied().unwrap_or(b)
}

/// Whether `ch` is a word character: alphanumeric, `-`, `/`, `&` or `'`.
#[inline]
pub fn is_word_char(ch: char) -> bool {
    match u8::try_from(ch) {
        Ok(b) if b.is_ascii() => fold_byte(b) != b' ',
        _ => ch.is_alphanumeric(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_taxonomy::normalize::fold;

    #[test]
    fn every_ascii_byte_folds_as_the_reference_fold() {
        for b in 0..0x80u8 {
            let reference = fold(&char::from(b).to_string());
            let expected = reference.bytes().next().unwrap_or(b' ');
            assert_eq!(fold_byte(b), expected, "byte {b:#04x}");
        }
    }

    #[test]
    fn non_ascii_bytes_are_left_for_decoding() {
        for b in 0x80..=u8::MAX {
            assert_eq!(fold_byte(b), b);
        }
    }

    #[test]
    fn every_char_is_classified_as_the_reference_fold() {
        for ch in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            let mut buf = [0; 4];
            let reference = !fold(ch.encode_utf8(&mut buf)).is_empty();
            assert_eq!(is_word_char(ch), reference, "{ch:?}");
        }
    }
}
