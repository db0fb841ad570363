//! The embedded rule catalog behind `cargo lint --explain <RULE>`.
//!
//! One [`RuleDoc`] per rule id, compiled into the binary so the
//! explanation a developer reads is the one the running lint actually
//! enforces (no doc/version skew). [`explain`] renders a single entry;
//! the `--explain` flag in `main.rs` is the only consumer besides tests.

use crate::findings::Severity;

/// Catalog entry for one rule: what it fires on, why it exists, and a
/// minimal example of a violation.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Rule id as it appears in findings (`"X1"`).
    pub id: &'static str,
    /// Severity the rule reports at.
    pub severity: Severity,
    /// One-line description of what the rule catches.
    pub summary: &'static str,
    /// Why the rule exists, in terms of the pipeline's guarantees.
    pub rationale: &'static str,
    /// A minimal violating snippet (or data shape, for `T*`/`A0`).
    pub example: &'static str,
}

/// Every rule the lint enforces, in catalog order (token rules, graph
/// rules, dataflow rules, data invariants, bookkeeping).
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "D1",
        severity: Severity::Deny,
        summary: "wall-clock or entropy source outside crates/bench",
        rationale: "Every pipeline stage must be replayable byte-for-byte from its seed. \
                    `SystemTime::now`, `Instant::now`, `thread_rng`, and `from_entropy` \
                    smuggle ambient state into output that is diffed against golden files.",
        example: "let started = std::time::Instant::now(); // D1: time-dependent",
    },
    RuleDoc {
        id: "D2",
        severity: Severity::Warn,
        summary: "HashMap/HashSet iteration in a file that writes ordered output",
        rationale: "Hash iteration order varies per process (SipHash keys are randomized), \
                    so any report or serialization fed from it differs run to run. \
                    Iterate a BTree collection or sort first.",
        example: "for (k, v) in &counts { writeln!(out, \"{k}: {v}\")?; } // counts: HashMap",
    },
    RuleDoc {
        id: "R1",
        severity: Severity::Deny,
        summary: ".unwrap() / .expect(..) / panic! in library code",
        rationale: "A panic in a library path aborts the whole crawl-annotate-analyze run; \
                    every fallible step must surface a Result the pipeline can record and \
                    route around. Tests and benches are exempt.",
        example: "let url = parse(input).unwrap(); // R1: return the error instead",
    },
    RuleDoc {
        id: "O1",
        severity: Severity::Warn,
        summary: "println!/eprintln! in library code",
        rationale: "Library stages return or write their output through the report layer; \
                    stray prints interleave with real output and break golden-file diffs.",
        example: "println!(\"processed {n} domains\"); // O1: use the report writer",
    },
    RuleDoc {
        id: "H1",
        severity: Severity::Warn,
        summary: "to-do marker without an issue tag",
        rationale: "Untracked to-dos rot. A marker must carry a `TODO(#NNN)`-style tag so \
                    the backlog stays enumerable from the source tree.",
        example: "// TODO: handle the German pages   (H1: needs TODO(#123))",
    },
    RuleDoc {
        id: "B1",
        severity: Severity::Warn,
        summary: "fetch/complete call inside a loop/while with no visible retry bound",
        rationale: "An unbounded retry loop around a transport or chatbot call turns one \
                    slow host into a hung pipeline. Every such loop must show its cap — an \
                    attempt counter, a tries/budget variable, or a bounded `for` — or \
                    delegate to the RetryPolicy/FetchSession layer, which owns backoff, \
                    budgets, and the circuit breaker.",
        example: "loop {\n    if let Ok(p) = client.fetch_page(url) { return p; }\n} // B1: no attempt cap",
    },
    RuleDoc {
        id: "L1",
        severity: Severity::Deny,
        summary: "cross-crate reference the lint.toml layering contract does not grant",
        rationale: "The workspace layers (taxonomy -> core -> analysis, ...) keep the \
                    reproduction auditable; an undeclared edge is either a design change \
                    (update lint.toml) or an accident (remove the reference).",
        example: "use aipan_analysis::stats; // L1: webgen may not depend on analysis",
    },
    RuleDoc {
        id: "E1",
        severity: Severity::Warn,
        summary: "Result from a fallible workspace fn discarded",
        rationale: "An error silently dropped between verification layers turns a measured \
                    number into a guess. Calls are resolved through the import-aware call \
                    graph, so only genuinely fallible workspace callees count.",
        example: "let _ = crawl_domain(&cfg); // E1: the crawl error vanishes",
    },
    RuleDoc {
        id: "K1",
        severity: Severity::Deny,
        summary: "inconsistent lock-acquisition order across the workspace",
        rationale: "Lock-order inversion deadlocks are invisible per-file: each fn looks \
                    correct and only the global acquisition graph shows the cycle.",
        example: "fn a() { let _s = self.stats.lock(); let _q = self.queue.lock(); }\n\
                  fn b() { let _q = self.queue.lock(); let _s = self.stats.lock(); } // K1",
    },
    RuleDoc {
        id: "P1",
        severity: Severity::Warn,
        summary: "pub item no other workspace file mentions",
        rationale: "Dead public surface accumulates silently because rustc only warns on \
                    dead *private* items. Either a caller is coming (add it) or the item \
                    should be private or deleted.",
        example: "pub fn legacy_export(&self) -> String { .. } // P1: nothing calls it",
    },
    RuleDoc {
        id: "X1",
        severity: Severity::Deny,
        summary: "pub library fn from which a panic is reachable",
        rationale: "A transitively reachable panic is invisible at the call site. Seeds \
                    (unproven indexing, possibly-zero integer divisors, unwrap/expect, \
                    panic-family macros) propagate backward over the call graph; an \
                    intraprocedural bounds dataflow discharges indexes proved in range, \
                    and float arithmetic is exempt (it yields inf/NaN, not a panic).",
        example: "pub fn get(xs: &[u32], i: usize) -> u32 { xs[i] } // X1: use xs.get(i)",
    },
    RuleDoc {
        id: "D3",
        severity: Severity::Deny,
        summary: "hash-order value reaches an output sink through bindings",
        rationale: "D2 catches `map.iter()` feeding `writeln!` in one expression; D3 tracks \
                    the same hazard through `let` chains with a may-dataflow over the fn's \
                    CFG. Taint dies at a sort or a BTree collect; it must not reach \
                    write/serde sinks or a returned collection.",
        example: "let ks: Vec<_> = map.keys().collect();\n\
                  for k in ks { writeln!(out, \"{k}\")?; } // D3: sort ks first",
    },
    RuleDoc {
        id: "H2",
        severity: Severity::Warn,
        summary: "growable collection built element-by-element inside a hot loop",
        rationale: "The interprocedural cost model marks every fn reachable from a \
                    pipeline entry (run_pipeline*, crawl_all*, the annotate surface) as \
                    hot. A `Vec::new()`/`String::new()` grown one `push` at a time inside \
                    a loop there reallocates O(log n) times per iteration set; each \
                    finding carries the entry->fn witness path. Pre-size with \
                    `with_capacity` or build outside the loop.",
        example: "let mut out = Vec::new();\nfor d in domains {\n    out.push(annotate(d)); // H2: Vec::new grown in a hot loop\n}",
    },
    RuleDoc {
        id: "C2",
        severity: Severity::Warn,
        summary: "clone of a loop-invariant value re-done every iteration",
        rationale: "A `.clone()`/`.to_string()`/`.to_owned()`/`.to_vec()` whose source is \
                    proven unmodified inside the loop (by a may-modified dataflow over \
                    the fn's CFG) allocates the same bytes once per iteration. Hoist the \
                    clone above the loop; where the rewrite is provably safe the finding \
                    carries a machine-applicable fix.",
        example: "for row in rows {\n    let hdr = header.clone(); // C2: header never changes in the loop\n    emit(&hdr, row);\n}",
    },
    RuleDoc {
        id: "M1",
        severity: Severity::Deny,
        summary: "lock guard held across an expensive call",
        rationale: "A guard live across a fetch/complete/annotate-family call — or any \
                    callee the cost model prices above the hot threshold — serializes the \
                    whole worker pool on one slow host. Guard liveness is tracked by a \
                    forward dataflow over the fn's CFG, honoring drops, rebinding, and \
                    lexical scope ends. Copy what you need out of the guard, drop it, \
                    then call.",
        example: "let jobs = self.queue.lock()?;\nlet page = client.fetch_page(&jobs[0])?; // M1: lock held across fetch",
    },
    RuleDoc {
        id: "M2",
        severity: Severity::Warn,
        summary: "lock guard acquired outside a loop but only used inside it",
        rationale: "A guard bound before a loop whose every use sits inside the loop body \
                    pins the lock for the full iteration when per-iteration acquisition \
                    would do. Either move the acquisition into the loop or document the \
                    batch-hold by touching the guard outside it.",
        example: "let stats = self.stats.lock()?;\nfor d in domains {\n    stats.record(d); // M2: guard only ever used inside the loop\n}",
    },
    RuleDoc {
        id: "S1",
        severity: Severity::Warn,
        summary: "corpus-scale accumulator escapes a hot fn whose sole consumer iterates it once",
        rationale: "A collection grown across the whole corpus inside a hot fn, returned to \
                    exactly one caller that only ever walks it front to back, retains the \
                    entire corpus in memory for no reason: the producer could yield items \
                    as they are built (an iterator, a callback, a channel) and peak \
                    residency drops from O(corpus) to O(1). Each finding carries the \
                    entry->fn witness path from the cost model.",
        example: "fn load_all(&self) -> Vec<Page> {\n    let mut pages = Vec::new();\n    for d in &self.domains { pages.push(self.fetch(d)); }\n    pages // S1: only caller is `for p in load_all()` — stream instead\n}",
    },
    RuleDoc {
        id: "S2",
        severity: Severity::Warn,
        summary: "collection grown in a loop with no bound derived from a sized input",
        rationale: "A `while`/`loop` (or an open-range `for`) that keeps pushing into a \
                    collection without a visible cap — a `len`/`limit`/`budget`-style \
                    bound in the condition, a guarded break, or a draining iteration — \
                    grows without limit when the input misbehaves; on a hot path that is \
                    an OOM seeded by one pathological domain. Make the bound explicit.",
        example: "let mut seen = Vec::new();\nwhile let Some(url) = frontier.pop() {\n    seen.push(url);\n    frontier.extend(discover(&seen)); // S2: frontier re-fed, no bound\n}",
    },
    RuleDoc {
        id: "W1",
        severity: Severity::Deny,
        summary: "worker-reachable mutable state accessed outside any lock region",
        rationale: "A closure spawned per worker iteration that mutates a captured place \
                    shared across iterations (not rebound per worker, not a \
                    lock/atomic/channel operation) is a data race the borrow checker only \
                    rules out for `std::thread`; for pool abstractions and unsafe \
                    adapters it is the analysis's job. Move the state behind a lock or \
                    give each worker its own clone.",
        example: "let mut tally = BTreeMap::new();\nfor w in 0..workers {\n    pool.spawn(move || tally.insert(w, crawl(w))); // W1: unsynchronized shared write\n}",
    },
    RuleDoc {
        id: "W2",
        severity: Severity::Warn,
        summary: "lock acquired inside a corpus-scale hot loop with non-trivial held cost",
        rationale: "Acquiring a lock once per corpus element and holding it across \
                    allocating work serializes the worker pool exactly where the pipeline \
                    fans out. The held cost counts the allocation sites inside the \
                    region; worker-dispatch and constant-bounded loops are exempt.",
        example: "for page in &corpus {\n    let mut ledger = self.usage.lock()?; // W2: per-page acquire\n    ledger.record(expensive_breakdown(page));\n}",
    },
    RuleDoc {
        id: "N1",
        severity: Severity::Deny,
        summary: "lossy `as` cast on a corpus-scale quantity",
        rationale: "A page or byte count that fits `u32` on the paper's 56-domain corpus \
                    silently wraps at the 10-100x scale the pipeline targets, and `as` \
                    hides the truncation. The rule fires only when local type inference \
                    proves the operand's type AND its corpus-scale provenance \
                    (`.len()`/`.count()` results, counter-family names); provably \
                    lossless widenings with an exact std `From` impl are reported at \
                    Warn with a machine-applicable `Dst::from(..)` rewrite instead.",
        example: "let pages = corpus.len();\nreport.total = pages as u32; // N1: wraps past 4Gi pages",
    },
    RuleDoc {
        id: "N2",
        severity: Severity::Warn,
        summary: "unchecked compound arithmetic on a corpus-scale counter in a hot fn",
        rationale: "Debug builds panic on overflow and release builds wrap silently, so a \
                    serialized counter that overflows corrupts every downstream report \
                    without an error. On hot-path counters of provable integer type the \
                    overflow policy must be visible at the site: `saturating_add` / \
                    `checked_add`, not bare `+=`.",
        example: "fn absorb(&mut self, other: &Funnel) {\n    self.pages_total += other.pages_total; // N2: use saturating_add\n}",
    },
    RuleDoc {
        id: "A1",
        severity: Severity::Deny,
        summary: "non-commutative or inconsistent atomic access pattern",
        rationale: "The streaming pipeline's lock-free counters are correct only while \
                    every concurrent update is a single commutative RMW (`fetch_add`, \
                    `fetch_max`, or a CAS retry loop): with relaxed ordering and racing \
                    workers, anything else makes the final value depend on interleaving. \
                    The rule denies load-then-store update splits (lost updates), bare \
                    `swap`/`compare_exchange` under `Relaxed` outside a retry loop, and \
                    mixed memory orderings on one field workspace-wide.",
        example: "let v = self.peak.load(Ordering::Relaxed);\nself.peak.store(v.max(n), Ordering::Relaxed); // A1: use fetch_max",
    },
    RuleDoc {
        id: "F1",
        severity: Severity::Warn,
        summary: "filesystem I/O inside a corpus-scale hot loop outside the journal/shard layer",
        rationale: "PR 8 confined durable writes to the sharded journal so the per-domain \
                    hot loop performs bounded syscalls. A direct `fs::*` call — or a call \
                    into any fn whose inferred effect set includes unsanctioned \
                    filesystem I/O — inside a hot loop reintroduces an open/write per \
                    corpus element. Findings carry the cost model's entry->fn witness \
                    chain; effects originating in `journal.rs`/`shard.rs` are sanctioned.",
        example: "for d in domains {\n    std::fs::write(out.join(d), render(d))?; // F1: route through the journal\n}",
    },
    RuleDoc {
        id: "T1",
        severity: Severity::Deny,
        summary: "taxonomy normalization closure broken",
        rationale: "Every surface form must fold to a key owned by exactly one canonical \
                    descriptor, and canonical names must resolve to themselves; otherwise \
                    annotation counts drift between runs of the same corpus.",
        example: "(\"email address\" folds to a key claimed by two descriptors) // T1",
    },
    RuleDoc {
        id: "T2",
        severity: Severity::Deny,
        summary: "duplicate canonical name across vocabularies",
        rationale: "Datatype, purpose, rights, and handling tables share one reporting \
                    namespace; a duplicated canonical name makes table rows ambiguous.",
        example: "(\"Account Data\" appears in both datatype and purpose tables) // T2",
    },
    RuleDoc {
        id: "T3",
        severity: Severity::Deny,
        summary: "paper aspect coverage broken",
        rationale: "The reproduction tracks the paper's nine aspects; a missing aspect or a \
                    key that does not round-trip through Aspect::from_key silently drops a \
                    whole results column.",
        example: "(aspect key \"retention\" missing from the table) // T3",
    },
    RuleDoc {
        id: "A0",
        severity: Severity::Warn,
        summary: "allowlist entry that no longer matches any finding",
        rationale: "lint.allow entries are vetted exceptions; one that stops matching is \
                    dead weight that hides typos and keeps false confidence alive.",
        example: "[[allow]]\nrule = \"R1\"\nfile = \"crates/net/src/url.rs\" # A0: fixed long ago",
    },
];

/// Look up a rule by id, case-insensitively.
pub fn find(id: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// Render one catalog entry for `--explain`, or a pointer at the valid
/// ids when the rule is unknown.
pub fn explain(id: &str) -> Result<String, String> {
    match find(id) {
        Some(rule) => {
            let mut out = String::new();
            out.push_str(&format!(
                "{} ({})\n  {}\n\nWhy:\n  {}\n\nExample:\n",
                rule.id,
                rule.severity.name(),
                rule.summary,
                rule.rationale
            ));
            for line in rule.example.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
            Ok(out)
        }
        None => {
            let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
            Err(format!(
                "unknown rule `{id}` (known rules: {})",
                ids.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_rule_id_is_documented() {
        // The ids the passes actually emit, kept in sync by hand; a new
        // rule without a catalog entry fails here.
        let emitted = [
            "D1", "D2", "R1", "O1", "H1", "B1", "L1", "E1", "K1", "P1", "X1", "D3", "H2", "C2",
            "M1", "M2", "S1", "S2", "W1", "W2", "N1", "N2", "A1", "F1", "T1", "T2", "T3", "A0",
        ];
        for id in emitted {
            assert!(find(id).is_some(), "rule {id} missing from catalog");
        }
        assert_eq!(
            RULES.len(),
            emitted.len(),
            "catalog has undocumented extras"
        );
    }

    #[test]
    fn ids_are_unique_and_lookup_is_case_insensitive() {
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
        assert_eq!(find("x1").map(|r| r.id), Some("X1"));
    }

    #[test]
    fn explain_renders_id_severity_and_example() {
        let text = explain("X1").expect("X1 is documented");
        assert!(text.starts_with("X1 (deny)"), "{text}");
        assert!(text.contains("Why:"), "{text}");
        assert!(text.contains("Example:"), "{text}");
        assert!(text.contains("xs.get(i)"), "{text}");
    }

    #[test]
    fn unknown_rule_lists_valid_ids() {
        let err = explain("Z9").expect_err("Z9 is not a rule");
        assert!(err.contains("Z9"), "{err}");
        assert!(err.contains("X1") && err.contains("D3"), "{err}");
    }
}
