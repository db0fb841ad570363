//! The supervisor's self-report: what went wrong during a run, how much
//! of it was absorbed, and whether the result can be trusted.
//!
//! A [`RunHealth`] folds the per-stage error taxonomy, the quarantine
//! list, the transport-resilience rollups, and the journal's durability
//! counters into one verdict: `ok` (nothing lost), `degraded` (the run
//! completed but some domains were quarantined, skipped as poisoned, or
//! journaled memory-only), or `failed` (no domain produced a usable
//! crawl). Serialization is byte-stable — fields are declared in sorted
//! member order, maps are `BTreeMap`s, and lists are sorted — so a health
//! report is as diffable and goldens-friendly as the dataset itself.

use crate::pipeline::ExtractionFunnel;
use crate::shard::QuarantineRecord;
use aipan_crawler::CrawlFunnel;
use aipan_net::TransportMetrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version stamp of the health JSON schema: bumped whenever a member is
/// added, removed, or changes meaning.
pub const HEALTH_SCHEMA_VERSION: u32 = 2;

/// The overall verdict, as an inspectable enum (see
/// [`RunHealth::classify`]; the serialized form is the lowercase `verdict`
/// string plus the sorted `reasons` list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every attempted domain ran clean: nothing quarantined, nothing
    /// skipped, every journal append durable.
    Ok,
    /// The run completed, but the listed reasons cost coverage or
    /// durability (quarantined domains, poisoned skips, memory-only
    /// journal entries).
    Degraded {
        /// Human-readable, deterministic explanations, sorted.
        reasons: Vec<String>,
    },
    /// No attempted domain produced a usable crawl — the output is empty
    /// or meaningless.
    Failed {
        /// Human-readable, deterministic explanations, sorted.
        reasons: Vec<String>,
    },
}

impl Verdict {
    /// The lowercase label stored in the `verdict` member.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Degraded { .. } => "degraded",
            Verdict::Failed { .. } => "failed",
        }
    }

    /// The reasons behind a non-`ok` verdict (empty for `ok`).
    pub fn reasons(&self) -> &[String] {
        match self {
            Verdict::Ok => &[],
            Verdict::Degraded { reasons } | Verdict::Failed { reasons } => reasons,
        }
    }
}

/// Retry/breaker/budget rollup folded from [`TransportMetrics`]: the
/// resilience-relevant slice of the transport counters, in sorted member
/// order. Worker-count invariant, like the metrics it is folded from.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportRollup {
    /// Times a per-host circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Retries denied because a domain's retry budget was spent.
    pub budget_exhausted: u64,
    /// 429 rate-limit rejections.
    pub rate_limited: u64,
    /// Requests issued (including each redirect hop).
    pub requests: u64,
    /// Successful fetches (a response was delivered, any status).
    pub responses: u64,
    /// Retries issued by the guarded fetch path.
    pub retries: u64,
    /// 5xx responses delivered (a subset of `responses`).
    pub server_errors: u64,
    /// Timeouts.
    pub timeouts: u64,
}

impl TransportRollup {
    /// Fold the resilience counters out of a metrics snapshot.
    pub fn from_metrics(metrics: &TransportMetrics) -> TransportRollup {
        TransportRollup {
            breaker_opens: metrics.breaker_opens,
            budget_exhausted: metrics.budget_exhausted,
            rate_limited: metrics.rate_limited,
            requests: metrics.requests,
            responses: metrics.responses,
            retries: metrics.retries,
            server_errors: metrics.server_errors,
            timeouts: metrics.timeouts,
        }
    }
}

/// Everything [`RunHealth::assess`] folds into a report; gathered by the
/// pipeline at the end of a run.
pub struct HealthInputs {
    /// The §3.1 crawl funnel of the surviving (non-quarantined) domains.
    pub crawl: CrawlFunnel,
    /// The §3.2 extraction/annotation funnel.
    pub extraction: ExtractionFunnel,
    /// Every quarantined domain's record (cumulative across resumes).
    pub quarantine: Vec<QuarantineRecord>,
    /// Domains skipped outright because they reached the poison threshold.
    pub poisoned_skipped: Vec<String>,
    /// Journal appends that exhausted the write-retry budget.
    pub journal_write_errors: usize,
    /// Journal append attempts that were retried (and absorbed).
    pub disk_retries: usize,
    /// Transport metrics snapshot of the run's shared client.
    pub transport: TransportMetrics,
}

/// The serialized health report. Members are declared in sorted order and
/// every collection is sorted, so rendering is byte-stable for a given
/// run — health reports golden-test like datasets do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHealth {
    /// Journal append attempts that were retried and absorbed.
    pub disk_retries: u64,
    /// Domains whose chain ran to completion (the funnel's attempt count;
    /// crawl-stage quarantined domains never reach the funnel).
    pub domains_total: u64,
    /// Per-stage error taxonomy. Every key is always present (zeros
    /// included) so reports diff structurally.
    pub errors: BTreeMap<String, u64>,
    /// Journal appends that exhausted the write-retry budget (affected
    /// domains re-process on resume).
    pub journal_write_errors: u64,
    /// Domains skipped outright at the poison threshold, sorted.
    pub poisoned_skipped: Vec<String>,
    /// Every quarantined domain's record, sorted by domain.
    pub quarantine: Vec<QuarantineRecord>,
    /// Deterministic explanations behind a non-`ok` verdict, sorted.
    pub reasons: Vec<String>,
    /// [`HEALTH_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Retry/breaker/budget rollups from the transport layer.
    pub transport: TransportRollup,
    /// `"ok"`, `"degraded"`, or `"failed"` (see [`RunHealth::classify`]).
    pub verdict: String,
}

impl RunHealth {
    /// Fold the run's counters into a report and derive the verdict.
    pub fn assess(inputs: HealthInputs) -> RunHealth {
        let HealthInputs {
            crawl,
            extraction,
            mut quarantine,
            mut poisoned_skipped,
            journal_write_errors,
            disk_retries,
            transport,
        } = inputs;
        quarantine.sort_by(|a, b| a.domain.cmp(&b.domain));
        poisoned_skipped.sort();

        let mut errors: BTreeMap<String, u64> = BTreeMap::new();
        errors.insert(
            "annotate/hallucinations_removed".to_string(),
            extraction.hallucinations_removed as u64,
        );
        errors.insert(
            "annotate/missing_aspect".to_string(),
            extraction.missing_any_aspect as u64,
        );
        errors.insert(
            "crawl/no_privacy_page".to_string(),
            crawl.no_privacy_page as u64,
        );
        errors.insert(
            "crawl/transport_failure".to_string(),
            crawl.transport_failures as u64,
        );
        errors.insert(
            "extract/failed".to_string(),
            extraction
                .crawl_success
                .saturating_sub(extraction.extraction_success) as u64,
        );
        errors.insert(
            "journal/write_errors".to_string(),
            journal_write_errors as u64,
        );
        let stage_count =
            |stage: &str| -> u64 { quarantine.iter().filter(|r| r.stage == stage).count() as u64 };
        errors.insert("panic/crawl".to_string(), stage_count("crawl"));
        errors.insert("panic/process".to_string(), stage_count("process"));

        let mut reasons: Vec<String> = Vec::new();
        if !quarantine.is_empty() {
            reasons.push(format!(
                "{} domain(s) quarantined after worker panics",
                quarantine.len()
            ));
        }
        if !poisoned_skipped.is_empty() {
            reasons.push(format!(
                "{} poisoned domain(s) skipped",
                poisoned_skipped.len()
            ));
        }
        if journal_write_errors > 0 {
            reasons.push(format!(
                "{journal_write_errors} journal append(s) exhausted the write-retry budget"
            ));
        }
        let attempted_anything = crawl.domains_total > 0 || !quarantine.is_empty();
        let failed = attempted_anything && crawl.crawl_success == 0;
        if failed {
            reasons.push("no domain crawled successfully".to_string());
        }
        reasons.sort();
        let verdict = if failed {
            "failed"
        } else if reasons.is_empty() {
            "ok"
        } else {
            "degraded"
        };

        RunHealth {
            disk_retries: disk_retries as u64,
            domains_total: crawl.domains_total as u64,
            errors,
            journal_write_errors: journal_write_errors as u64,
            poisoned_skipped,
            quarantine,
            reasons,
            schema_version: HEALTH_SCHEMA_VERSION,
            transport: TransportRollup::from_metrics(&transport),
            verdict: verdict.to_string(),
        }
    }

    /// The verdict as an inspectable enum.
    pub fn classify(&self) -> Verdict {
        match self.verdict.as_str() {
            "failed" => Verdict::Failed {
                reasons: self.reasons.clone(),
            },
            "degraded" => Verdict::Degraded {
                reasons: self.reasons.clone(),
            },
            _ => Verdict::Ok,
        }
    }

    /// Render the report as pretty-printed JSON with a trailing newline —
    /// byte-stable for a given run (sorted members, sorted collections).
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).unwrap_or_default();
        json.push('\n');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_inputs() -> HealthInputs {
        HealthInputs {
            crawl: CrawlFunnel {
                domains_total: 10,
                crawl_success: 9,
                transport_failures: 1,
                ..Default::default()
            },
            extraction: ExtractionFunnel {
                domains_total: 10,
                crawl_success: 9,
                extraction_success: 8,
                ..Default::default()
            },
            quarantine: Vec::new(),
            poisoned_skipped: Vec::new(),
            journal_write_errors: 0,
            disk_retries: 0,
            transport: TransportMetrics::default(),
        }
    }

    #[test]
    fn clean_run_is_ok_with_full_taxonomy() {
        let health = RunHealth::assess(clean_inputs());
        assert_eq!(health.classify(), Verdict::Ok);
        assert_eq!(health.verdict, "ok");
        assert!(health.reasons.is_empty());
        assert_eq!(health.schema_version, HEALTH_SCHEMA_VERSION);
        // Every taxonomy key present even when zero.
        for key in [
            "annotate/hallucinations_removed",
            "annotate/missing_aspect",
            "crawl/no_privacy_page",
            "crawl/transport_failure",
            "extract/failed",
            "journal/write_errors",
            "panic/crawl",
            "panic/process",
        ] {
            assert!(health.errors.contains_key(key), "missing {key}");
        }
        assert_eq!(health.errors["crawl/transport_failure"], 1);
        assert_eq!(health.errors["extract/failed"], 1);
    }

    #[test]
    fn quarantine_and_write_errors_degrade() {
        let mut inputs = clean_inputs();
        inputs.quarantine = vec![QuarantineRecord {
            domain: "boom.com".to_string(),
            kills: 1,
            stage: "crawl".to_string(),
            message: "host exploded".to_string(),
        }];
        inputs.journal_write_errors = 2;
        let health = RunHealth::assess(inputs);
        assert_eq!(health.verdict, "degraded");
        assert_eq!(health.classify().label(), "degraded");
        assert_eq!(health.classify().reasons().len(), 2);
        assert_eq!(health.errors["panic/crawl"], 1);
        assert_eq!(health.errors["panic/process"], 0);
    }

    #[test]
    fn zero_crawl_success_fails() {
        let mut inputs = clean_inputs();
        inputs.crawl.crawl_success = 0;
        inputs.extraction.crawl_success = 0;
        inputs.extraction.extraction_success = 0;
        let health = RunHealth::assess(inputs);
        assert_eq!(health.verdict, "failed");
        assert!(matches!(health.classify(), Verdict::Failed { .. }));
    }

    #[test]
    fn empty_universe_is_ok_not_failed() {
        let mut inputs = clean_inputs();
        inputs.crawl = CrawlFunnel::default();
        inputs.extraction = ExtractionFunnel::default();
        let health = RunHealth::assess(inputs);
        assert_eq!(health.verdict, "ok");
    }

    #[test]
    fn json_roundtrips() {
        let health = RunHealth::assess(clean_inputs());
        let json = health.to_json();
        let back: RunHealth = serde_json::from_str(json.trim_end()).expect("parse health");
        assert_eq!(back, health);
    }
}
