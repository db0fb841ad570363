//! # aipan-core
//!
//! The end-to-end AIPAN pipeline (Figure 1 of the paper): acquisition →
//! crawl → text extraction → segmentation → chatbot annotation →
//! hallucination verification → structured dataset.
//!
//! * [`mod@segment`] — the two-step segmentation of Appendix B: heading-based
//!   (when a page has more than five detected headings) with labeled
//!   tables of contents, falling back to whole-text analysis.
//! * [`annotate`] — per-aspect annotation (§3.2.2): each of the four
//!   studied aspects is annotated from its own section text, **falling back
//!   to the entire text** when the section yields nothing; includes the
//!   programmatic verbatim-presence check that removes hallucinations.
//! * [`dataset`] — [`dataset::AnnotatedPolicy`] records and the
//!   serializable [`dataset::Dataset`] (the AIPAN-3k-like artifact).
//! * [`pipeline`] — whole-universe orchestration over a
//!   [`aipan_webgen::World`]: crawl funnel, per-domain processing, and the
//!   §3.1/§3.2 funnel statistics.
//! * [`shard`] — the checkpoint journal of the streaming engine
//!   ([`pipeline::run_pipeline_sharded`]): independently locked,
//!   incrementally appended JSONL segments, durable at per-domain
//!   granularity, with a quarantine segment for dead-lettered domains and
//!   deterministic disk-fault injection on the append path. Interrupted
//!   runs resume from their journaled per-domain outcomes and produce
//!   byte-identical datasets.
//! * [`journal`] — the journal's merged, sorted-JSONL snapshot
//!   ([`journal::RunJournal`]): what [`shard::ShardedJournal::merged`]
//!   returns and [`shard::ShardedJournal::consolidate`] writes.
//! * [`health`] — the supervisor's self-report ([`health::RunHealth`]):
//!   per-stage error taxonomy, quarantine list, transport rollups, and an
//!   `ok | degraded | failed` verdict, serialized to byte-stable JSON.

#![warn(missing_docs)]

pub mod annotate;
pub mod dataset;
pub mod health;
pub mod journal;
pub mod pipeline;
pub mod segment;
pub mod shard;

pub use annotate::{annotate_policy, AnnotateArena, AnnotationOutcome};
pub use dataset::{AnnotatedPolicy, Dataset, SegmentationMethod};
pub use health::{RunHealth, TransportRollup, Verdict, HEALTH_SCHEMA_VERSION};
pub use journal::{JournalEntry, RunJournal};
pub use pipeline::{
    run_pipeline, run_pipeline_sharded, ExtractionFunnel, Pipeline, PipelineConfig, PipelineRun,
    SupervisorPolicy,
};
pub use segment::{segment, SegmentedPolicy};
pub use shard::{
    quarantine_path, segment_path, shard_of, ConsolidateStep, DiskFaultConfig, DiskFaultInjector,
    QuarantineRecord, ShardedJournal, DEFAULT_SHARDS,
};
