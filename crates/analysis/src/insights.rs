//! The §5 headline findings.

use crate::stats;
use aipan_core::dataset::Dataset;
use aipan_taxonomy::records::AnnotationPayload;
use aipan_taxonomy::{
    AccessLabel, ChoiceLabel, DataTypeCategory, ProtectionLabel, RetentionLabel, Sector,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The §5 statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Insights {
    /// Analysis population (companies with ≥1 annotation; paper: 2529).
    pub population: usize,
    /// Companies collecting from ≥3 data-type categories (paper: 93.5%).
    pub cats_ge_3: usize,
    /// Companies collecting from >13 categories (paper: 52.8%).
    pub cats_gt_13: usize,
    /// Companies collecting from >22 categories (paper: 13.0%).
    pub cats_gt_22: usize,
    /// Companies collecting from >25 categories (paper: 4.8%).
    pub cats_gt_25: usize,
    /// Stated retention periods: median days (paper: 2 years).
    pub retention_median_days: u32,
    /// Stated retention minimum (days) and the domains stating it
    /// (paper: 1 day at arescre.com and pg.com).
    pub retention_min: (u32, Vec<String>),
    /// Stated retention maximum (days) and the domains stating it
    /// (paper: 50 years at bms.com).
    pub retention_max: (u32, Vec<String>),
    /// Companies with any generic protection mention (paper: >70%).
    pub protection_any_generic: usize,
    /// Companies with at least one *specific* protection practice
    /// (paper: 39.9%).
    pub protection_specific: usize,
    /// Companies with read/write access — edit, partial or full delete
    /// (paper: 77.5%).
    pub access_read_write: usize,
    /// Companies with read-only access — only view/export (paper: 0.5%).
    pub access_read_only: usize,
    /// Companies with no access mention at all (paper: 22.0%).
    pub access_none: usize,
    /// Companies with any opt-out choice (paper: ~two-thirds).
    pub optout_any: usize,
    /// Companies with opt-in (paper: <20%).
    pub optin: usize,
    /// Companies whose policy mentions selling data ("data sharing →
    /// data for sale"; paper: 26).
    pub data_for_sale: Vec<String>,
    /// The most active sector by average distinct categories (paper:
    /// consumer discretionary, 16.3 categories / 48.8 descriptors).
    pub most_active_sector: (Sector, f64, f64),
}

impl Insights {
    /// Compute the §5 insights over a dataset.
    pub fn compute(dataset: &Dataset) -> Insights {
        let population = dataset.annotated().count();

        // Distinct data-type categories per company.
        let mut cats_ge_3 = 0;
        let mut cats_gt_13 = 0;
        let mut cats_gt_22 = 0;
        let mut cats_gt_25 = 0;
        for policy in dataset.annotated() {
            let distinct: BTreeSet<DataTypeCategory> = policy
                .annotations
                .iter()
                .filter_map(|a| match &a.payload {
                    AnnotationPayload::DataType { category, .. } => Some(*category),
                    _ => None,
                })
                .collect();
            let n = distinct.len();
            if n >= 3 {
                cats_ge_3 += 1;
            }
            if n > 13 {
                cats_gt_13 += 1;
            }
            if n > 22 {
                cats_gt_22 += 1;
            }
            if n > 25 {
                cats_gt_25 += 1;
            }
        }

        // Stated retention periods.
        let mut periods: Vec<(u32, String)> = Vec::new();
        for policy in dataset.annotated() {
            for ann in &policy.annotations {
                if let AnnotationPayload::Retention {
                    label: RetentionLabel::Stated,
                    period_days: Some(days),
                } = &ann.payload
                {
                    periods.push((*days, policy.domain.clone()));
                }
            }
        }
        let mut days_only: Vec<u32> = periods.iter().map(|(d, _)| *d).collect();
        let retention_median_days = stats::median(&mut days_only);
        let min_days = periods.iter().map(|(d, _)| *d).min().unwrap_or(0);
        let max_days = periods.iter().map(|(d, _)| *d).max().unwrap_or(0);
        let domains_for = |target: u32| -> Vec<String> {
            let mut v: Vec<String> = periods
                .iter()
                .filter(|(d, _)| *d == target)
                .map(|(_, dom)| dom.clone())
                .collect();
            v.sort();
            v.dedup();
            v
        };

        // Protection specificity.
        let mut protection_any_generic = 0;
        let mut protection_specific = 0;
        for policy in dataset.annotated() {
            let mut generic = false;
            let mut specific = false;
            for ann in &policy.annotations {
                if let AnnotationPayload::Protection { label } = &ann.payload {
                    if *label == ProtectionLabel::Generic {
                        generic = true;
                    } else {
                        specific = true;
                    }
                }
            }
            if generic {
                protection_any_generic += 1;
            }
            if specific {
                protection_specific += 1;
            }
        }

        // Access split.
        let mut access_read_write = 0;
        let mut access_read_only = 0;
        let mut access_none = 0;
        for policy in dataset.annotated() {
            let labels: BTreeSet<AccessLabel> = policy
                .annotations
                .iter()
                .filter_map(|a| match &a.payload {
                    AnnotationPayload::Access { label } => Some(*label),
                    _ => None,
                })
                .collect();
            if labels.is_empty() {
                access_none += 1;
            } else if labels.iter().any(|l| l.is_write()) {
                access_read_write += 1;
            } else if labels.contains(&AccessLabel::View) || labels.contains(&AccessLabel::Export) {
                access_read_only += 1;
            } else {
                // Deactivate only: neither read/write nor read-only.
            }
        }

        // Choices.
        let mut optout_any = 0;
        let mut optin = 0;
        for policy in dataset.annotated() {
            let mut any_optout = false;
            let mut any_optin = false;
            for ann in &policy.annotations {
                if let AnnotationPayload::Choice { label } = &ann.payload {
                    match label {
                        ChoiceLabel::OptOutViaContact | ChoiceLabel::OptOutViaLink => {
                            any_optout = true
                        }
                        ChoiceLabel::OptIn => any_optin = true,
                        _ => {}
                    }
                }
            }
            if any_optout {
                optout_any += 1;
            }
            if any_optin {
                optin += 1;
            }
        }

        // Data for sale.
        let mut data_for_sale: Vec<String> = dataset
            .annotated()
            .filter(|p| {
                p.annotations.iter().any(|a| {
                    matches!(&a.payload, AnnotationPayload::Purpose { descriptor, .. }
                        if descriptor == "data for sale")
                })
            })
            .map(|p| p.domain.clone())
            .collect();
        data_for_sale.sort();

        // Most active sector: average distinct categories and descriptors.
        let mut most_active = (Sector::Energy, 0.0, 0.0);
        for sector in Sector::ALL {
            let mut cat_counts: Vec<f64> = Vec::new();
            let mut desc_counts: Vec<f64> = Vec::new();
            for policy in dataset.annotated().filter(|p| p.sector == sector) {
                let cats: BTreeSet<DataTypeCategory> = policy
                    .annotations
                    .iter()
                    .filter_map(|a| match &a.payload {
                        AnnotationPayload::DataType { category, .. } => Some(*category),
                        _ => None,
                    })
                    .collect();
                let descs = policy
                    .annotations
                    .iter()
                    .filter(|a| matches!(a.payload, AnnotationPayload::DataType { .. }))
                    .count();
                cat_counts.push(cats.len() as f64);
                desc_counts.push(descs as f64);
            }
            let (cat_mean, _) = stats::mean_sd(&cat_counts);
            let (desc_mean, _) = stats::mean_sd(&desc_counts);
            if cat_mean > most_active.1 {
                most_active = (sector, cat_mean, desc_mean);
            }
        }

        Insights {
            population,
            cats_ge_3,
            cats_gt_13,
            cats_gt_22,
            cats_gt_25,
            retention_median_days,
            retention_min: (min_days, domains_for(min_days)),
            retention_max: (max_days, domains_for(max_days)),
            protection_any_generic,
            protection_specific,
            access_read_write,
            access_read_only,
            access_none,
            optout_any,
            optin,
            data_for_sale,
            most_active_sector: most_active,
        }
    }

    /// Render as text with the paper's reference values.
    pub fn render(&self) -> String {
        let pct = |n: usize| {
            if self.population == 0 {
                0.0
            } else {
                n as f64 / self.population as f64 * 100.0
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "Section 5 insights (population {})", self.population);
        let _ = writeln!(
            out,
            "  ≥3 data-type categories:  {:>6} ({:.1}%)   [paper: 93.5%]",
            self.cats_ge_3,
            pct(self.cats_ge_3)
        );
        let _ = writeln!(
            out,
            "  >13 categories:           {:>6} ({:.1}%)   [paper: 52.8%]",
            self.cats_gt_13,
            pct(self.cats_gt_13)
        );
        let _ = writeln!(
            out,
            "  >22 categories:           {:>6} ({:.1}%)   [paper: 13.0%]",
            self.cats_gt_22,
            pct(self.cats_gt_22)
        );
        let _ = writeln!(
            out,
            "  >25 categories:           {:>6} ({:.1}%)   [paper: 4.8%]",
            self.cats_gt_25,
            pct(self.cats_gt_25)
        );
        if self.retention_max.1.is_empty() {
            // No policy states a period: the median and extremes are only
            // placeholders.
            let _ = writeln!(
                out,
                "  retention:                no policy in the population states a period   [paper: median 2 years]"
            );
        } else {
            let _ = writeln!(
                out,
                "  retention median:         {} days (~{:.1} years)   [paper: 2 years]",
                self.retention_median_days,
                self.retention_median_days as f64 / 365.0
            );
            let _ = writeln!(
                out,
                "  retention min:            {} day(s) at {:?}   [paper: 1 day, arescre.com & pg.com]",
                self.retention_min.0, self.retention_min.1
            );
            let _ = writeln!(
                out,
                "  retention max:            {} days (~{:.0} years) at {:?}   [paper: 50 years, bms.com]",
                self.retention_max.0,
                self.retention_max.0 as f64 / 365.0,
                self.retention_max.1
            );
        }
        let _ = writeln!(
            out,
            "  generic protection:       {:>6} ({:.1}%)   [paper: >70%]",
            self.protection_any_generic,
            pct(self.protection_any_generic)
        );
        let _ = writeln!(
            out,
            "  specific protection:      {:>6} ({:.1}%)   [paper: 39.9%]",
            self.protection_specific,
            pct(self.protection_specific)
        );
        let _ = writeln!(
            out,
            "  read/write access:        {:>6} ({:.1}%)   [paper: 77.5%]",
            self.access_read_write,
            pct(self.access_read_write)
        );
        let _ = writeln!(
            out,
            "  read-only access:         {:>6} ({:.1}%)   [paper: 0.5%]",
            self.access_read_only,
            pct(self.access_read_only)
        );
        let _ = writeln!(
            out,
            "  no access mention:        {:>6} ({:.1}%)   [paper: 22.0%]",
            self.access_none,
            pct(self.access_none)
        );
        let _ = writeln!(
            out,
            "  any opt-out:              {:>6} ({:.1}%)   [paper: ~66%]",
            self.optout_any,
            pct(self.optout_any)
        );
        let _ = writeln!(
            out,
            "  opt-in:                   {:>6} ({:.1}%)   [paper: <20%]",
            self.optin,
            pct(self.optin)
        );
        let _ = writeln!(
            out,
            "  data-for-sale companies:  {:>6}   [paper: 26]",
            self.data_for_sale.len()
        );
        let _ = writeln!(
            out,
            "  most active sector:       {} ({:.1} categories, {:.1} descriptors)   [paper: CD, 16.3 / 48.8]",
            self.most_active_sector.0.name(),
            self.most_active_sector.1,
            self.most_active_sector.2
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_core::dataset::{AnnotatedPolicy, SegmentationMethod};
    use aipan_taxonomy::records::Annotation;
    use aipan_taxonomy::PurposeCategory;

    fn policy(domain: &str, annotations: Vec<Annotation>) -> AnnotatedPolicy {
        AnnotatedPolicy {
            domain: domain.into(),
            sector: Sector::ConsumerDiscretionary,
            annotations,
            fallbacks: vec![],
            hallucinations_removed: 0,
            core_word_count: 100,
            segmentation: SegmentationMethod::Headings,
            policy_path: "/privacy".into(),
        }
    }

    fn retention(days: u32) -> Annotation {
        Annotation::new(
            AnnotationPayload::Retention {
                label: RetentionLabel::Stated,
                period_days: Some(days),
            },
            "period",
            1,
        )
    }

    #[test]
    fn retention_extremes_with_domains() {
        let ds = Dataset {
            policies: vec![
                policy("short.com", vec![retention(1)]),
                policy("mid.com", vec![retention(730)]),
                policy("long.com", vec![retention(18250)]),
            ],
        };
        let ins = Insights::compute(&ds);
        assert_eq!(ins.retention_min, (1, vec!["short.com".to_string()]));
        assert_eq!(ins.retention_max, (18250, vec!["long.com".to_string()]));
        assert_eq!(ins.retention_median_days, 730);
    }

    #[test]
    fn render_says_when_no_policy_states_a_period() {
        let limited = Annotation::new(
            AnnotationPayload::Retention {
                label: RetentionLabel::Limited,
                period_days: None,
            },
            "as long as necessary",
            1,
        );
        let ds = Dataset {
            policies: vec![policy("limited.com", vec![limited])],
        };
        let text = Insights::compute(&ds).render();
        assert!(text.contains("no policy in the population states a period"));
        assert!(!text.contains("retention median"), "{text}");
        assert!(!text.contains("retention min"), "{text}");
        assert!(!text.contains("retention max"), "{text}");
    }

    #[test]
    fn access_split() {
        let rw = policy(
            "rw.com",
            vec![Annotation::new(
                AnnotationPayload::Access {
                    label: AccessLabel::Edit,
                },
                "edit",
                1,
            )],
        );
        let ro = policy(
            "ro.com",
            vec![Annotation::new(
                AnnotationPayload::Access {
                    label: AccessLabel::View,
                },
                "view",
                1,
            )],
        );
        let none = policy(
            "none.com",
            vec![Annotation::new(
                AnnotationPayload::Choice {
                    label: ChoiceLabel::OptIn,
                },
                "consent",
                1,
            )],
        );
        let ds = Dataset {
            policies: vec![rw, ro, none],
        };
        let ins = Insights::compute(&ds);
        assert_eq!(ins.access_read_write, 1);
        assert_eq!(ins.access_read_only, 1);
        assert_eq!(ins.access_none, 1);
        assert_eq!(ins.optin, 1);
    }

    #[test]
    fn data_for_sale_detection() {
        let seller = policy(
            "seller.com",
            vec![Annotation::new(
                AnnotationPayload::Purpose {
                    descriptor: "data for sale".into(),
                    category: PurposeCategory::DataSharing,
                },
                "sell your personal information",
                1,
            )],
        );
        let ds = Dataset {
            policies: vec![seller],
        };
        let ins = Insights::compute(&ds);
        assert_eq!(ins.data_for_sale, vec!["seller.com".to_string()]);
    }

    #[test]
    fn category_count_thresholds() {
        let mut anns = Vec::new();
        for cat in DataTypeCategory::ALL.iter().take(26) {
            anns.push(Annotation::new(
                AnnotationPayload::DataType {
                    descriptor: format!("d-{}", cat.name()),
                    category: *cat,
                },
                "d",
                1,
            ));
        }
        let ds = Dataset {
            policies: vec![policy("wide.com", anns)],
        };
        let ins = Insights::compute(&ds);
        assert_eq!(ins.cats_ge_3, 1);
        assert_eq!(ins.cats_gt_25, 1);
    }

    #[test]
    fn render_contains_reference_values() {
        let ds = Dataset {
            policies: vec![policy("a.com", vec![retention(730)])],
        };
        let text = Insights::compute(&ds).render();
        assert!(text.contains("paper: 93.5%"));
        assert!(text.contains("retention median"));
    }
}
