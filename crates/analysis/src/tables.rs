//! Regeneration of the paper's tables.
//!
//! Each `table*` function computes the table's rows from a [`Dataset`];
//! each `render_table*` function formats them in the paper's layout so the
//! output can be eyeballed against the original (EXPERIMENTS.md records the
//! comparison).

use crate::stats::{self, CategoryStats, SectorBreakdown};
use aipan_core::dataset::Dataset;
use aipan_taxonomy::records::{AnnotationPayload, AspectKind};
use aipan_taxonomy::{
    AccessLabel, ChoiceLabel, DataTypeCategory, DataTypeMeta, ProtectionLabel, PurposeCategory,
    PurposeMeta, RetentionLabel,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Table 1 / Table 4: annotation counts and top descriptors
// ---------------------------------------------------------------------------

/// One Table 1/4 row: a category with its count and top descriptors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Meta-category name.
    pub meta: String,
    /// Category name.
    pub category: String,
    /// Unique-annotation count for the category.
    pub count: usize,
    /// Top descriptors with within-category share (descending).
    pub top_descriptors: Vec<(String, f64)>,
}

/// The Table 1/4 data: per-aspect totals plus per-category rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Total unique data-type annotations (paper: 108,748).
    pub types_total: usize,
    /// Total unique purpose annotations (paper: 77,360).
    pub purposes_total: usize,
    /// Total retention annotations (paper: 4,550).
    pub retention_total: usize,
    /// Total protection annotations (paper: 5,464).
    pub protection_total: usize,
    /// Total choice annotations (paper: 7,484).
    pub choices_total: usize,
    /// Total access annotations (paper: 9,121).
    pub access_total: usize,
    /// Data-type category rows (all 34; Table 4).
    pub datatype_rows: Vec<Table1Row>,
    /// Purpose category rows (all 7).
    pub purpose_rows: Vec<Table1Row>,
    /// Per-label counts for retention, protection, choices, access.
    pub label_counts: Vec<(String, String, usize)>,
}

/// Compute Table 1/4 (top-`k` descriptors per category).
pub fn table1(dataset: &Dataset, k: usize) -> Table1 {
    let mut datatype_rows = Vec::new();
    for category in DataTypeCategory::ALL {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut total = 0usize;
        for policy in dataset.annotated() {
            for ann in &policy.annotations {
                if let AnnotationPayload::DataType {
                    descriptor,
                    category: c,
                } = &ann.payload
                {
                    if *c == category {
                        *counts.entry(descriptor.clone()).or_insert(0) += 1;
                        total += 1;
                    }
                }
            }
        }
        datatype_rows.push(Table1Row {
            meta: category.meta().name().to_string(),
            category: category.name().to_string(),
            count: total,
            top_descriptors: top_k(counts, total, k),
        });
    }
    let mut purpose_rows = Vec::new();
    for category in PurposeCategory::ALL {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut total = 0usize;
        for policy in dataset.annotated() {
            for ann in &policy.annotations {
                if let AnnotationPayload::Purpose {
                    descriptor,
                    category: c,
                } = &ann.payload
                {
                    if *c == category {
                        *counts.entry(descriptor.clone()).or_insert(0) += 1;
                        total += 1;
                    }
                }
            }
        }
        purpose_rows.push(Table1Row {
            meta: category.meta().name().to_string(),
            category: category.name().to_string(),
            count: total,
            top_descriptors: top_k(counts, total, k),
        });
    }

    let mut label_counts = Vec::new();
    for label in RetentionLabel::ALL {
        let s = stats::stats_for(dataset, stats::is_retention(label));
        label_counts.push((
            "Data retention".to_string(),
            label.name().to_string(),
            s.total_mentions,
        ));
    }
    for label in ProtectionLabel::ALL {
        let s = stats::stats_for(dataset, stats::is_protection(label));
        label_counts.push((
            "Data protection".to_string(),
            label.name().to_string(),
            s.total_mentions,
        ));
    }
    for label in ChoiceLabel::ALL {
        let s = stats::stats_for(dataset, stats::is_choice(label));
        label_counts.push((
            "User choices".to_string(),
            label.name().to_string(),
            s.total_mentions,
        ));
    }
    for label in AccessLabel::ALL {
        let s = stats::stats_for(dataset, stats::is_access(label));
        label_counts.push((
            "User access".to_string(),
            label.name().to_string(),
            s.total_mentions,
        ));
    }

    Table1 {
        types_total: dataset.annotation_count(AspectKind::Types),
        purposes_total: dataset.annotation_count(AspectKind::Purposes),
        retention_total: RetentionLabel::ALL
            .iter()
            .map(|&l| stats::stats_for(dataset, stats::is_retention(l)).total_mentions)
            .sum(),
        protection_total: ProtectionLabel::ALL
            .iter()
            .map(|&l| stats::stats_for(dataset, stats::is_protection(l)).total_mentions)
            .sum(),
        choices_total: ChoiceLabel::ALL
            .iter()
            .map(|&l| stats::stats_for(dataset, stats::is_choice(l)).total_mentions)
            .sum(),
        access_total: AccessLabel::ALL
            .iter()
            .map(|&l| stats::stats_for(dataset, stats::is_access(l)).total_mentions)
            .sum(),
        datatype_rows,
        purpose_rows,
        label_counts,
    }
}

fn top_k(counts: BTreeMap<String, usize>, total: usize, k: usize) -> Vec<(String, f64)> {
    let mut v: Vec<(String, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.into_iter()
        .take(k)
        .map(|(d, c)| {
            (
                d,
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                },
            )
        })
        .collect()
}

/// Render Table 1/4 as text.
pub fn render_table1(t: &Table1) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1/4 — AI-generated annotations (types {}, purposes {}, retention {}, \
         protection {}, choices {}, access {})",
        t.types_total,
        t.purposes_total,
        t.retention_total,
        t.protection_total,
        t.choices_total,
        t.access_total
    );
    let mut last_meta = String::new();
    for row in t.datatype_rows.iter().chain(t.purpose_rows.iter()) {
        if row.meta != last_meta {
            let _ = writeln!(out, "  {}", row.meta);
            last_meta = row.meta.clone();
        }
        let tops: Vec<String> = row
            .top_descriptors
            .iter()
            .map(|(d, f)| format!("{d} ({:.1}%)", f * 100.0))
            .collect();
        let _ = writeln!(
            out,
            "    {:<26} {:>7}  {}",
            row.category,
            row.count,
            tops.join(", ")
        );
    }
    let _ = writeln!(out, "  Handling & rights labels");
    for (group, label, count) in &t.label_counts {
        let _ = writeln!(out, "    {:<16} {:<22} {:>6}", group, label, count);
    }
    out
}

// ---------------------------------------------------------------------------
// Tables 2a / 2b / 5 — coverage, mean±SD, sector breakdowns
// ---------------------------------------------------------------------------

/// One row of Tables 2a/2b/5: a grouping with overall and sector statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Grouping name (meta-category, category, or label).
    pub name: String,
    /// Overall statistics.
    pub overall: CategoryStats,
    /// Sector breakdown (ranked by coverage).
    pub sectors: SectorBreakdown,
}

impl BreakdownRow {
    fn compute(
        dataset: &Dataset,
        name: &str,
        matches: impl Fn(&AnnotationPayload) -> bool + Copy,
    ) -> BreakdownRow {
        BreakdownRow {
            name: name.to_string(),
            overall: stats::stats_for(dataset, matches),
            sectors: SectorBreakdown::compute(dataset, matches),
        }
    }
}

/// Table 2a: data-type meta-category rows.
pub fn table2a(dataset: &Dataset) -> Vec<BreakdownRow> {
    DataTypeMeta::ALL
        .iter()
        .map(|&meta| BreakdownRow::compute(dataset, meta.name(), stats::is_datatype_meta(meta)))
        .collect()
}

/// Table 2b: purpose meta-categories and categories (meta rows are prefixed
/// with their name; category rows with "- ").
pub fn table2b(dataset: &Dataset) -> Vec<BreakdownRow> {
    let mut rows = Vec::new();
    for meta in PurposeMeta::ALL {
        rows.push(BreakdownRow::compute(
            dataset,
            meta.name(),
            stats::is_purpose_meta(meta),
        ));
        for &category in meta.categories() {
            rows.push(BreakdownRow::compute(
                dataset,
                &format!("- {}", category.name()),
                stats::is_purpose_category(category),
            ));
        }
    }
    rows
}

/// Table 5: all 34 data-type category rows.
pub fn table5(dataset: &Dataset) -> Vec<BreakdownRow> {
    DataTypeCategory::ALL
        .iter()
        .map(|&c| BreakdownRow::compute(dataset, c.name(), stats::is_datatype_category(c)))
        .collect()
}

/// Table 3: handling and rights label rows (coverage focus).
pub fn table3(dataset: &Dataset) -> Vec<(String, BreakdownRow)> {
    let mut rows = Vec::new();
    for label in RetentionLabel::ALL {
        rows.push((
            "Data retention".to_string(),
            BreakdownRow::compute(dataset, label.name(), stats::is_retention(label)),
        ));
    }
    for label in ProtectionLabel::ALL {
        rows.push((
            "Data protection".to_string(),
            BreakdownRow::compute(dataset, label.name(), stats::is_protection(label)),
        ));
    }
    for label in ChoiceLabel::ALL {
        rows.push((
            "User choices".to_string(),
            BreakdownRow::compute(dataset, label.name(), stats::is_choice(label)),
        ));
    }
    for label in AccessLabel::ALL {
        rows.push((
            "User access".to_string(),
            BreakdownRow::compute(dataset, label.name(), stats::is_access(label)),
        ));
    }
    rows
}

/// Render a breakdown table (2a/2b/5 layout).
pub fn render_breakdown(title: &str, rows: &[BreakdownRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>11}   {:<18} {:<18} {:<18} {:<18}",
        "Category", "Coverage", "Mean±SD", "Highest", "2nd", "3rd", "Lowest"
    );
    for row in rows {
        let sector_cell = |entry: Option<&(aipan_taxonomy::Sector, CategoryStats)>| -> String {
            match entry {
                Some((sector, s)) => format!(
                    "{} {:.1}% {:.1}±{:.1}",
                    sector.abbrev(),
                    s.coverage() * 100.0,
                    s.mean,
                    s.sd
                ),
                None => "-".to_string(),
            }
        };
        let top = row.sectors.top(3);
        let _ = writeln!(
            out,
            "  {:<28} {:>7.1}% {:>5.1}±{:<4.1}   {:<18} {:<18} {:<18} {:<18}",
            row.name,
            row.overall.coverage() * 100.0,
            row.overall.mean,
            row.overall.sd,
            sector_cell(top.first()),
            sector_cell(top.get(1)),
            sector_cell(top.get(2)),
            sector_cell(row.sectors.lowest()),
        );
    }
    out
}

/// Render Table 3 (coverage + highest/2nd/lowest sectors, as in the paper).
pub fn render_table3(rows: &[(String, BreakdownRow)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — Data handling and user rights annotations");
    let _ = writeln!(
        out,
        "  {:<16} {:<22} {:>7}   {:<12} {:<12} {:<12}",
        "Meta-category", "Category", "Cov.", "Highest", "2nd highest", "Lowest"
    );
    let mut last_group = String::new();
    for (group, row) in rows {
        let group_cell = if *group == last_group {
            ""
        } else {
            group.as_str()
        };
        last_group = group.clone();
        let cell = |entry: Option<&(aipan_taxonomy::Sector, CategoryStats)>| match entry {
            Some((sector, s)) => {
                format!("{} {:.1}%", sector.abbrev(), s.coverage() * 100.0)
            }
            None => "-".to_string(),
        };
        let top = row.sectors.top(2);
        let _ = writeln!(
            out,
            "  {:<16} {:<22} {:>6.1}%   {:<12} {:<12} {:<12}",
            group_cell,
            row.name,
            row.overall.coverage() * 100.0,
            cell(top.first()),
            cell(top.get(1)),
            cell(row.sectors.lowest()),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Table 6 — examples of validated annotations with context
// ---------------------------------------------------------------------------

/// One Table 6 row: an annotation with the verbatim mention and the policy
/// line that contains it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Row {
    /// Aspect stream ("Types", "Purposes", "Handling", "Rights").
    pub aspect: String,
    /// Category or label name.
    pub category: String,
    /// Normalized descriptor or label.
    pub descriptor: String,
    /// Verbatim extracted text.
    pub text: String,
    /// The policy line containing the mention (the validation context).
    pub context: String,
    /// Source domain.
    pub domain: String,
}

/// Regenerate Table 6: sampled annotations with their validation context,
/// recovered by re-rendering each sampled company's policy.
pub fn table6(
    world: &aipan_webgen::World,
    dataset: &Dataset,
    per_aspect: usize,
    seed: u64,
) -> Vec<Table6Row> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rows = Vec::new();
    let mut policies: Vec<&aipan_core::dataset::AnnotatedPolicy> = dataset.annotated().collect();
    policies.sort_by(|a, b| a.domain.cmp(&b.domain));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x7ab1e6);
    policies.shuffle(&mut rng);

    let mut taken = [0usize; 4];
    for policy in policies {
        if taken.iter().all(|&t| t >= per_aspect) {
            break;
        }
        let Some(truth) = world.truth(&policy.domain) else {
            continue;
        };
        let Some(style) = world.style(&policy.domain) else {
            continue;
        };
        let Some(company) = world.company(&policy.domain) else {
            continue;
        };
        let html =
            aipan_webgen::policy::render_policy(&truth, &style, &company.name, world.config.seed);
        let doc = aipan_html::extract(&html);
        for ann in &policy.annotations {
            let idx = match ann.aspect_kind() {
                AspectKind::Types => 0,
                AspectKind::Purposes => 1,
                AspectKind::Handling => 2,
                AspectKind::Rights => 3,
            };
            if taken.get(idx).is_some_and(|&t| t >= per_aspect) {
                continue;
            }
            // Context: the rendered line containing the verbatim mention.
            let folded = aipan_taxonomy::normalize::fold(&ann.text);
            let Some(context) = doc
                .lines
                .iter()
                .find(|l| aipan_taxonomy::normalize::fold(&l.text).contains(&folded))
            else {
                continue;
            };
            let (aspect, category, descriptor) = describe_payload(&ann.payload);
            rows.push(Table6Row {
                aspect,
                category,
                descriptor,
                text: ann.text.clone(),
                context: context.text.clone(),
                domain: policy.domain.clone(),
            });
            if let Some(t) = taken.get_mut(idx) {
                *t += 1;
            }
        }
    }
    rows.sort_by(|a, b| a.aspect.cmp(&b.aspect).then(a.category.cmp(&b.category)));
    rows
}

fn describe_payload(payload: &AnnotationPayload) -> (String, String, String) {
    match payload {
        AnnotationPayload::DataType {
            descriptor,
            category,
        } => ("Types".into(), category.name().into(), descriptor.clone()),
        AnnotationPayload::Purpose {
            descriptor,
            category,
        } => (
            "Purposes".into(),
            category.name().into(),
            descriptor.clone(),
        ),
        AnnotationPayload::Retention { label, .. } => (
            "Handling".into(),
            "Data retention".into(),
            label.name().into(),
        ),
        AnnotationPayload::Protection { label } => (
            "Handling".into(),
            "Data protection".into(),
            label.name().into(),
        ),
        AnnotationPayload::Choice { label } => {
            ("Rights".into(), "User choices".into(), label.name().into())
        }
        AnnotationPayload::Access { label } => {
            ("Rights".into(), "User access".into(), label.name().into())
        }
    }
}

/// Render Table 6 as text.
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6 — Examples of validated AI-generated annotations and context"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  [{}] {} → {:?}\n    text:    {:?}\n    context: {:?}  ({})",
            row.aspect, row.category, row.descriptor, row.text, row.context, row.domain
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_core::dataset::{AnnotatedPolicy, SegmentationMethod};
    use aipan_taxonomy::records::Annotation;
    use aipan_taxonomy::Sector;

    fn mk_policy(domain: &str, sector: Sector) -> AnnotatedPolicy {
        AnnotatedPolicy {
            domain: domain.into(),
            sector,
            annotations: vec![
                Annotation::new(
                    AnnotationPayload::DataType {
                        descriptor: "email address".into(),
                        category: DataTypeCategory::ContactInfo,
                    },
                    "email address",
                    1,
                ),
                Annotation::new(
                    AnnotationPayload::DataType {
                        descriptor: "postal address".into(),
                        category: DataTypeCategory::ContactInfo,
                    },
                    "mailing address",
                    2,
                ),
                Annotation::new(
                    AnnotationPayload::Purpose {
                        descriptor: "analytics".into(),
                        category: PurposeCategory::AnalyticsResearch,
                    },
                    "analytics",
                    3,
                ),
                Annotation::new(
                    AnnotationPayload::Retention {
                        label: RetentionLabel::Limited,
                        period_days: None,
                    },
                    "as long as necessary",
                    4,
                ),
                Annotation::new(
                    AnnotationPayload::Choice {
                        label: ChoiceLabel::OptIn,
                    },
                    "obtain your consent",
                    5,
                ),
            ],
            fallbacks: vec![],
            hallucinations_removed: 0,
            core_word_count: 500,
            segmentation: SegmentationMethod::Headings,
            policy_path: "/privacy".into(),
        }
    }

    fn ds() -> Dataset {
        Dataset {
            policies: vec![
                mk_policy("a.com", Sector::Energy),
                mk_policy("b.com", Sector::Financials),
            ],
        }
    }

    #[test]
    fn table1_counts_and_tops() {
        let t = table1(&ds(), 3);
        assert_eq!(t.types_total, 4);
        assert_eq!(t.purposes_total, 2);
        assert_eq!(t.retention_total, 2);
        assert_eq!(t.choices_total, 2);
        let contact = t
            .datatype_rows
            .iter()
            .find(|r| r.category == "Contact info")
            .unwrap();
        assert_eq!(contact.count, 4);
        assert_eq!(contact.top_descriptors.len(), 2);
        assert!((contact.top_descriptors[0].1 - 0.5).abs() < 1e-9);
        assert_eq!(t.datatype_rows.len(), 34);
        assert_eq!(t.purpose_rows.len(), 7);
        assert_eq!(t.label_counts.len(), 3 + 7 + 5 + 6);
    }

    #[test]
    fn table2a_has_six_rows_with_coverage() {
        let rows = table2a(&ds());
        assert_eq!(rows.len(), 6);
        let phys = &rows[0];
        assert_eq!(phys.name, "Physical profile");
        assert!((phys.overall.coverage() - 1.0).abs() < 1e-9);
        assert!((phys.overall.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table2b_rows_meta_then_categories() {
        let rows = table2b(&ds());
        assert_eq!(rows.len(), 3 + 7);
        assert_eq!(rows[0].name, "Operations");
        assert!(rows[1].name.starts_with("- "));
    }

    #[test]
    fn table5_has_34_rows() {
        assert_eq!(table5(&ds()).len(), 34);
    }

    #[test]
    fn table3_has_21_rows() {
        let rows = table3(&ds());
        assert_eq!(rows.len(), 3 + 7 + 5 + 6);
        let opt_in = rows.iter().find(|(_, r)| r.name == "Opt-in").unwrap();
        assert!((opt_in.1.overall.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renderers_do_not_panic_and_mention_key_entries() {
        let d = ds();
        let t1 = render_table1(&table1(&d, 3));
        assert!(t1.contains("Contact info"));
        let t2a = render_breakdown("Table 2a", &table2a(&d));
        assert!(t2a.contains("Physical profile"));
        let t3 = render_table3(&table3(&d));
        assert!(t3.contains("Opt-in"));
        let t5 = render_breakdown("Table 5", &table5(&d));
        assert!(t5.contains("Diagnostic data"));
    }

    #[test]
    fn empty_dataset_renders() {
        let empty = Dataset::default();
        let _ = render_table1(&table1(&empty, 3));
        let _ = render_breakdown("t", &table2a(&empty));
        let _ = render_table3(&table3(&empty));
    }
}
