//! Property tests for the item parser: on arbitrary Rust-like token soup,
//! parsing never panics and every item span round-trips through the lexer's
//! significant-token stream without overlap — siblings are disjoint and
//! ordered, children nest strictly inside their parent, and every span stays
//! within the file's significant-token count.

use aipan_lint::parser::{parse_file, Item};
use proptest::prelude::*;

/// Check the span invariants for one sibling list, recursing into children.
fn check_siblings(items: &[Item], bound: (usize, usize)) -> Result<(), String> {
    let mut prev_end: Option<usize> = None;
    for item in items {
        let (start, end) = item.span;
        prop_assert!(
            start <= end,
            "inverted span {:?} on `{}`",
            item.span,
            item.name
        );
        prop_assert!(
            bound.0 <= start && end <= bound.1,
            "span {:?} of `{}` escapes enclosing bound {:?}",
            item.span,
            item.name,
            bound
        );
        if let Some(prev) = prev_end {
            prop_assert!(
                start > prev,
                "sibling `{}` at {:?} overlaps previous sibling ending at {}",
                item.name,
                item.span,
                prev
            );
        }
        prev_end = Some(end);
        check_siblings(&item.children, (start, end))?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn item_spans_nest_without_overlap(
        src in r"((pub|fn|struct|enum|impl|trait|mod|use|const|let|match|if|self|Self|crate)|[a-z]{1,5}|[0-9]{1,3}|[{}()\[\];:,.<>&=#!'-]|[ \n]){0,60}"
    ) {
        let parsed = parse_file("crates/x/src/soup.rs", &src);
        if parsed.sig_len == 0 {
            prop_assert!(parsed.items.is_empty());
            return Ok(());
        }
        check_siblings(&parsed.items, (0, parsed.sig_len - 1))?;
    }

    #[test]
    fn parse_never_panics_on_arbitrary_ascii(src in "[ -~\t\n]{0,120}") {
        let parsed = parse_file("crates/x/src/any.rs", &src);
        // Weak sanity: the flattened item list is finite and spans are sane.
        for item in parsed.all_items() {
            prop_assert!(item.span.0 <= item.span.1);
            prop_assert!(parsed.sig_len == 0 || item.span.1 < parsed.sig_len);
        }
    }

    #[test]
    fn realistic_items_cover_their_bodies(
        name in "[a-z][a-z0-9_]{0,8}",
        body in r"(let [a-z]{1,4} = [0-9]{1,3};| self\.[a-z]{1,4}\(\);){0,4}"
    ) {
        let src = format!("pub fn {name}(&self) {{ {body} }}\npub struct After;\n");
        let parsed = parse_file("crates/x/src/gen.rs", &src);
        prop_assert_eq!(parsed.items.len(), 2, "fn + struct: {:?}", parsed.items);
        check_siblings(&parsed.items, (0, parsed.sig_len - 1))?;
        prop_assert_eq!(parsed.items[0].name, name.as_str());
        prop_assert_eq!(parsed.items[1].name, "After");
    }
}
