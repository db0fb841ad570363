//! Property tests for the local type inference in `types.rs`: the
//! per-fn analysis is a forward dataflow whose facts at the exit node
//! must depend only on what each binding's initializer proves, never on
//! statement order. Reordering independent `let` statements (none
//! references another's binding) is therefore fact-preserving — the
//! stability the `N1`/`N2` rules rely on when an edit moves code around,
//! such as hoisting a loop-invariant `let` out of a loop.

use aipan_lint::graph::Workspace;
use aipan_lint::parser::{parse_file, ItemKind};
use aipan_lint::types::{exit_types, TypeIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Initializers that exercise every inference source — suffixed and
/// unsuffixed literals, `.len()` scale seeding, an index-resolved free
/// fn, and a cast — without referencing any other generated binding.
const INITS: &[&str] = &[
    "7u64",
    "3u32",
    "1.5",
    "true",
    "0",
    "xs.len()",
    "read()",
    "9u64 as u16",
    "xs.len() * 2",
];

/// Distinct binding names (disjoint from everything in `INITS`).
const NAMES: &[&str] = &["a", "b", "c", "d", "e", "g", "h", "k"];

/// Exit-node type facts of a generated `fn f` holding `stmts` in order,
/// each rendered with `{:?}` so the map outlives the source it borrows.
fn exit_of(stmts: &[String]) -> BTreeMap<String, String> {
    let body = stmts.join("\n    ");
    let src = format!("fn read() -> u32 {{ 4 }}\nfn f(xs: &[u8]) {{\n    {body}\n}}\n");
    let files = [("crates/x/src/gen.rs", src.as_str())];
    let ws = Workspace::build(&files);
    let index = TypeIndex::build(&ws);
    let parsed = parse_file("crates/x/src/gen.rs", &src);
    let info = parsed
        .items
        .iter()
        .find_map(|item| match &item.kind {
            ItemKind::Fn(info) if item.name == "f" => Some(info),
            _ => None,
        })
        .expect("generated source parses to fn f");
    exit_types(&index, None, info)
        .into_iter()
        .map(|(name, fact)| (name.to_string(), format!("{fact:?}")))
        .collect()
}

// Any rotation or reversal of independent bindings leaves the exit
// facts identical: inference is order-free when dataflow is.
proptest! {
    #[test]
    fn reordering_independent_lets_keeps_exit_types(
        picks in proptest::collection::vec(0usize..INITS.len(), 1..8),
        rot in 0usize..8,
    ) {
        let stmts: Vec<String> = picks
            .iter()
            .enumerate()
            .map(|(i, &j)| format!("let {} = {};", NAMES[i], INITS[j]))
            .collect();
        let base = exit_of(&stmts);
        // Params ride along in the exit fact; every generated binding
        // must have its own entry besides them.
        for name in &NAMES[..stmts.len()] {
            prop_assert!(base.contains_key(*name), "missing fact for `{}`", name);
        }

        let mut rotated = stmts.clone();
        let n = rotated.len();
        rotated.rotate_left(rot % n);
        prop_assert_eq!(exit_of(&rotated), base.clone());

        let mut reversed = stmts;
        reversed.reverse();
        prop_assert_eq!(exit_of(&reversed), base);
    }
}
