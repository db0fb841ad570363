//! Snapshot of the `RunHealth` JSON surface (`aipan run --health-out`).
//! Operators diff health reports across runs and CI parses the verdict,
//! so the schema — sorted member order, the always-present error-taxonomy
//! keys, verdict spelling, pretty-printing, `schema_version` — is a
//! compatibility contract. A diff here is an intentional schema change:
//! bump [`aipan_core::HEALTH_SCHEMA_VERSION`], update the snapshot, and
//! update whatever consumes the JSON.

use aipan_core::health::HealthInputs;
use aipan_core::pipeline::ExtractionFunnel;
use aipan_core::{QuarantineRecord, RunHealth, HEALTH_SCHEMA_VERSION};
use aipan_crawler::CrawlFunnel;
use aipan_net::TransportMetrics;

/// A representative degraded run: one domain quarantined at each stage,
/// one poisoned skip, absorbed disk retries, and non-trivial transport
/// resilience counters.
fn sample_health() -> RunHealth {
    RunHealth::assess(HealthInputs {
        crawl: CrawlFunnel {
            domains_total: 12,
            crawl_success: 10,
            transport_failures: 1,
            no_privacy_page: 1,
            ..Default::default()
        },
        extraction: ExtractionFunnel {
            domains_total: 12,
            crawl_success: 10,
            extraction_success: 9,
            annotated: 8,
            missing_any_aspect: 2,
            hallucinations_removed: 3,
            ..Default::default()
        },
        quarantine: vec![
            QuarantineRecord {
                domain: "unwind.example".to_string(),
                kills: 1,
                message: "injected: annotation arena poisoned".to_string(),
                stage: "process".to_string(),
            },
            QuarantineRecord {
                domain: "meltdown.example".to_string(),
                kills: 2,
                message: "injected: host melted mid-request".to_string(),
                stage: "crawl".to_string(),
            },
        ],
        poisoned_skipped: vec!["meltdown.example".to_string()],
        journal_write_errors: 1,
        disk_retries: 4,
        transport: TransportMetrics {
            requests: 140,
            responses: 131,
            timeouts: 2,
            rate_limited: 3,
            server_errors: 5,
            retries: 9,
            breaker_opens: 1,
            budget_exhausted: 1,
            ..Default::default()
        },
    })
}

/// The full rendered document, byte for byte — `schema_version` 2.
const SNAPSHOT: &str = r#"{
  "disk_retries": 4,
  "domains_total": 12,
  "errors": {
    "annotate/hallucinations_removed": 3,
    "annotate/missing_aspect": 2,
    "crawl/no_privacy_page": 1,
    "crawl/transport_failure": 1,
    "extract/failed": 1,
    "journal/write_errors": 1,
    "panic/crawl": 1,
    "panic/process": 1
  },
  "journal_write_errors": 1,
  "poisoned_skipped": [
    "meltdown.example"
  ],
  "quarantine": [
    {
      "domain": "meltdown.example",
      "kills": 2,
      "message": "injected: host melted mid-request",
      "stage": "crawl"
    },
    {
      "domain": "unwind.example",
      "kills": 1,
      "message": "injected: annotation arena poisoned",
      "stage": "process"
    }
  ],
  "reasons": [
    "1 journal append(s) exhausted the write-retry budget",
    "1 poisoned domain(s) skipped",
    "2 domain(s) quarantined after worker panics"
  ],
  "schema_version": 2,
  "transport": {
    "breaker_opens": 1,
    "budget_exhausted": 1,
    "rate_limited": 3,
    "requests": 140,
    "responses": 131,
    "retries": 9,
    "server_errors": 5,
    "timeouts": 2
  },
  "verdict": "degraded"
}
"#;

#[test]
fn health_report_renders_byte_identically() {
    assert_eq!(sample_health().to_json(), SNAPSHOT);
}

#[test]
fn snapshot_version_matches_schema_constant() {
    assert_eq!(HEALTH_SCHEMA_VERSION, 2, "schema bumped: refresh SNAPSHOT");
    assert!(SNAPSHOT.contains("\"schema_version\": 2"));
}

#[test]
fn snapshot_parses_back_to_the_same_report() {
    let parsed: RunHealth = serde_json::from_str(SNAPSHOT.trim_end()).expect("parse snapshot");
    assert_eq!(parsed, sample_health());
}
