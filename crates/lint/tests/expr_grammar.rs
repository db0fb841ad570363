//! Expression-grammar regressions: token shapes that historically break
//! hand-rolled Rust parsers — `>>` closing two generic lists at once,
//! turbofish inside method chains, `|` alternatives in guarded match
//! arms, and `move` closures (whose leading `move |` must not read as a
//! pattern or an or-operator).

use aipan_lint::expr::{Expr, ExprKind, Pat, Stmt};
use aipan_lint::parser::{parse_file, ItemKind};

/// Parse `src` and return the body of the first fn named `name`.
fn fn_body<'src>(src: &'src str, name: &str) -> Vec<Stmt<'src>> {
    let parsed = parse_file("crates/x/src/lib.rs", src);
    parsed
        .items
        .iter()
        .find_map(|item| match &item.kind {
            ItemKind::Fn(info) if item.name == name => Some(info.body.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("fixture must contain fn `{name}`"))
}

/// The tail expression of a body (final statement without `;`).
fn tail<'b, 'src>(body: &'b [Stmt<'src>]) -> &'b Expr<'src> {
    match body.last() {
        Some(Stmt::Expr { expr, semi: false }) => expr,
        other => panic!("fixture must end in a tail expression, got {other:?}"),
    }
}

#[test]
fn nested_generic_close_splits_shift_right() {
    let body = fn_body(
        "pub fn f() { let m: Vec<Vec<u32>> = Vec::new(); touch(&m); }",
        "f",
    );
    let Some(Stmt::Let { ty, init, .. }) = body.first() else {
        panic!("first statement must be the let: {body:?}");
    };
    // `>>` must arrive as two `>` tokens, closing both lists.
    assert_eq!(
        *ty,
        ["Vec", "<", "Vec", "<", "u32", ">", ">"],
        "nested-generic type annotation"
    );
    assert!(init.is_some(), "initializer survives the annotation");
}

#[test]
fn turbofish_in_method_chain_is_captured() {
    let body = fn_body(
        "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }",
        "f",
    );
    let ExprKind::MethodCall {
        name, turbofish, ..
    } = &tail(&body).kind
    else {
        panic!("tail must be the sum call");
    };
    assert_eq!(*name, "sum");
    assert_eq!(turbofish, &["f64"], "turbofish type token");
}

#[test]
fn turbofish_with_nested_generics_keeps_chaining() {
    let body = fn_body(
        "pub fn f(xs: &[u32]) -> usize { xs.iter().collect::<Vec<Vec<u32>>>().len() }",
        "f",
    );
    // The chain must keep going *past* the turbofish: tail is `.len()`
    // whose receiver is the collect with the nested turbofish.
    let ExprKind::MethodCall { recv, name, .. } = &tail(&body).kind else {
        panic!("tail must be the len call");
    };
    assert_eq!(*name, "len");
    let ExprKind::MethodCall {
        name: inner,
        turbofish,
        ..
    } = &recv.kind
    else {
        panic!("receiver must be the collect call");
    };
    assert_eq!(*inner, "collect");
    assert_eq!(
        *turbofish,
        ["Vec", "<", "Vec", "<", "u32", ">", ">"],
        "nested turbofish tokens (>>> split into three closers)"
    );
}

#[test]
fn guarded_or_pattern_arm_keeps_pipe_out_of_the_guard() {
    let body = fn_body(
        "pub fn f(x: u32, flag: bool) -> u32 {\n\
         \x20   match x {\n\
         \x20       1 | 2 if flag => 10,\n\
         \x20       _ => 0,\n\
         \x20   }\n\
         }",
        "f",
    );
    let ExprKind::Match { arms, .. } = &tail(&body).kind else {
        panic!("tail must be the match");
    };
    assert_eq!(arms.len(), 2);
    let Pat::Or(alts) = &arms[0].pat else {
        panic!("`1 | 2` must fold into Pat::Or, got {:?}", arms[0].pat);
    };
    assert_eq!(alts.len(), 2, "both alternatives kept");
    let guard = arms[0].guard.as_ref().expect("guard must be recognized");
    assert_eq!(
        guard.plain_path().as_deref(),
        Some(&["flag"][..]),
        "guard is the bare flag, not a pipe-mangled expression"
    );
    assert!(arms[1].guard.is_none());
}

#[test]
fn guard_with_logical_or_is_not_an_or_pattern() {
    let body = fn_body(
        "pub fn f(x: u32, flag: bool) -> u32 {\n\
         \x20   match x {\n\
         \x20       1 | 2 if flag || x > 1 => 10,\n\
         \x20       _ => 0,\n\
         \x20   }\n\
         }",
        "f",
    );
    let ExprKind::Match { arms, .. } = &tail(&body).kind else {
        panic!("tail must be the match");
    };
    let guard = arms[0].guard.as_ref().expect("guard present");
    let ExprKind::Binary { op, .. } = &guard.kind else {
        panic!("guard must be the `||` expression, got {:?}", guard.kind);
    };
    assert_eq!(*op, "||", "`||` in a guard stays one logical operator");
    assert!(matches!(arms[0].pat, Pat::Or(_)));
}

#[test]
fn move_closure_is_a_closure_not_a_pattern() {
    let body = fn_body(
        "pub fn f() -> u32 { let g = move |a: u32| a + 1; g(1) }",
        "f",
    );
    let Some(Stmt::Let {
        init: Some(init), ..
    }) = body.first()
    else {
        panic!("first statement must bind the closure");
    };
    let ExprKind::Closure {
        moves,
        params,
        body: cbody,
    } = &init.kind
    else {
        panic!("initializer must parse as a closure, got {:?}", init.kind);
    };
    assert!(*moves, "`move` captured");
    assert_eq!(params.len(), 1);
    assert!(
        matches!(&cbody.kind, ExprKind::Binary { op, .. } if *op == "+"),
        "closure body is the sum"
    );

    // Without `move`, same shape, moves = false.
    let body = fn_body("pub fn g() -> u32 { let h = |a: u32| a + 1; h(2) }", "g");
    let Some(Stmt::Let {
        init: Some(init), ..
    }) = body.first()
    else {
        panic!("first statement must bind the closure");
    };
    assert!(
        matches!(&init.kind, ExprKind::Closure { moves: false, .. }),
        "plain closure is not move"
    );
}
