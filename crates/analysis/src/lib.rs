//! # aipan-analysis
//!
//! Statistical analysis, validation, and table regeneration over AIPAN
//! datasets — the machinery behind the paper's evaluation:
//!
//! * [`stats`] — coverage / mean±SD aggregation over policies, overall and
//!   per sector.
//! * [`tables`] — regenerates Table 1 (annotation counts + top descriptors),
//!   Table 2a/2b (data types and purposes with sector breakdowns), Table 3
//!   (handling and rights), and Table 5 (all 34 data-type categories).
//! * [`insights`] — the §5 headline findings (category-count distribution,
//!   retention extremes, protection specificity, read/write access,
//!   data-for-sale companies).
//! * [`validation`] — the §4 validation: crawl-failure audit,
//!   missing-aspect audit, stratified annotation precision (measured
//!   against the synthetic world's planted ground truth), and the §6
//!   GPT-4 / GPT-3.5 / Llama-3.1 comparison.

#![warn(missing_docs)]

pub mod insights;
pub mod stats;
pub mod tables;
pub mod validation;

pub use insights::Insights;
pub use stats::{CategoryStats, SectorBreakdown};
pub use validation::{FailureAudit, MissingAspectAudit, ModelComparison, PrecisionReport};
