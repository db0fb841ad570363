//! `aipan-lint`: the workspace's own static-analysis pass.
//!
//! Reproducibility is a first-class claim of this codebase: the paper's
//! pipeline must produce byte-identical tables and reports across runs and
//! machines. This crate enforces the determinism contract (and a few hygiene
//! rules) over the workspace's own Rust sources, plus *data invariants* over
//! the taxonomy vocabulary that the whole measurement rests on.
//!
//! Analysis runs in three layers over the same file set:
//!
//! 1. **Token rules** (see [`rules`]) on the [`lexer`] stream: `D1`
//!    wall-clock/entropy, `D2` hash-order iteration feeding output, `R1`
//!    panics in library code, `O1` stray stdio in library code, `H1`
//!    untracked to-do markers.
//! 2. **Graph rules** on the workspace item graph: every file through the
//!    recursive-descent item [`parser`], assembled into a
//!    [`graph::Workspace`], then `L1` crate layering against the
//!    `lint.toml` contract (see [`config`]), `E1` discarded `Result`s from
//!    fallible workspace fns (see [`error_flow`]), `K1` lock-acquisition
//!    cycles (see [`locks`]), and `P1` unreferenced pub items (see
//!    [`graph`]).
//! 3. **Dataflow rules** on per-fn CFGs ([`expr`] → [`cfg`](mod@cfg) →
//!    [`dataflow`]): `X1` interprocedural panic-reachability (see
//!    [`panic_reach`]), `D3` determinism taint (see [`taint`]), the
//!    hot-path allocation rule `H2` over the interprocedural cost model
//!    (see [`cost`]), the lock-guard liveness rule `M1` (see [`guards`]),
//!    the retention rule `S1` (see [`retain`]), the worker-sharing rule
//!    `W1` (see [`share`]), and the type- and effect-aware rules over the
//!    workspace type index (see [`types`]): `N1`/`N2` numeric safety
//!    (see [`numeric`]), `A1` atomic commutativity (see [`atomics`]),
//!    and `F1` filesystem-I/O confinement (see [`effects`]).
//!
//! Data invariants (see [`invariants`]): `T1` normalization closure, `T2`
//! canonical-name uniqueness, `T3` nine-aspect coverage.
//!
//! Two entry points:
//! - `cargo run -p aipan-lint` (or `cargo lint`): CLI with human diff-style
//!   or `--format json` output, `--deny-warnings` for CI strictness, and
//!   `--explain RULE` for a rule's catalog entry (see [`catalog`]). It
//!   reports; every fix is made at the source by hand, guided by the
//!   remedy each finding's message names.
//! - `crates/lint/tests/workspace_clean.rs`: tier-1 test failing on any
//!   non-allowlisted finding, so `cargo test` alone enforces the contract.
//!
//! Vetted exceptions live in `lint.allow` at the workspace root (see
//! [`allow`]); every entry carries a mandatory justification, and entries
//! that stop matching anything are themselves reported (`A0`).

pub mod allow;
pub mod atomics;
pub mod callgraph;
pub mod catalog;
pub mod cfg;
pub mod config;
pub mod cost;
pub mod dataflow;
pub mod effects;
pub mod error_flow;
pub mod expr;
pub mod findings;
pub mod graph;
pub mod guards;
pub mod invariants;
pub mod lexer;
pub mod locks;
pub mod numeric;
pub mod panic_reach;
pub mod parser;
pub mod report;
pub mod retain;
pub mod rules;
pub mod scan;
pub mod share;
pub mod taint;
pub mod types;

pub use allow::{Allowlist, ParseError};
pub use config::{Config, ConfigError};
pub use findings::{Finding, Severity};
pub use rules::lint_source;
pub use scan::{run, run_filtered, Report};
