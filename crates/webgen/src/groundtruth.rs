//! Sampling the planted ground truth for each company's policy.
//!
//! A [`GroundTruth`] is the exact annotation set a policy is authored from.
//! Sampling is driven by the calibration targets of [`crate::calibration`]
//! (per-category coverage and unique-descriptor counts, sector-adjusted) and
//! is fully deterministic per `(seed, domain)`.

use crate::calibration;
use crate::rng;
use aipan_taxonomy::datatypes::descriptors_for;
use aipan_taxonomy::purposes::purposes_for;
use aipan_taxonomy::zeroshot::{ZERO_SHOT_DATA_TYPES, ZERO_SHOT_PURPOSES};
use aipan_taxonomy::{
    AccessLabel, ChoiceLabel, DataTypeCategory, ProtectionLabel, PurposeCategory, RetentionLabel,
    Sector,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A planted data-type mention.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedMention {
    /// Canonical descriptor (or the zero-shot term itself).
    pub descriptor: String,
    /// Category.
    pub category: DataTypeCategory,
    /// The surface form the policy text uses.
    pub surface: String,
    /// Whether the term is outside the built-in glossary.
    pub zero_shot: bool,
}

/// A planted purpose mention.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedPurpose {
    /// Canonical descriptor (or the zero-shot term itself).
    pub descriptor: String,
    /// Category.
    pub category: PurposeCategory,
    /// The surface form the policy text uses.
    pub surface: String,
    /// Whether the term is outside the built-in glossary.
    pub zero_shot: bool,
}

/// A planted retention mention.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedRetention {
    /// Retention label.
    pub label: RetentionLabel,
    /// Stated period in days (only for [`RetentionLabel::Stated`]).
    pub period_days: Option<u32>,
}

/// The full planted annotation set for one company's policy.
///
/// ```
/// use aipan_taxonomy::Sector;
/// use aipan_webgen::GroundTruth;
///
/// let truth = GroundTruth::sample(42, "example.com", Sector::HealthCare);
/// assert!(!truth.types.is_empty());
/// // Sampling is deterministic per (seed, domain, sector).
/// assert_eq!(truth, GroundTruth::sample(42, "example.com", Sector::HealthCare));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The company's domain.
    pub domain: String,
    /// The company's sector.
    pub sector: Sector,
    /// Collected data types the policy asserts.
    pub types: Vec<PlantedMention>,
    /// Data types mentioned only in *negated* contexts ("we do not collect
    /// ..."); correct pipelines must not annotate these.
    pub negated_types: Vec<PlantedMention>,
    /// Data-collection purposes.
    pub purposes: Vec<PlantedPurpose>,
    /// Retention practices.
    pub retention: Vec<PlantedRetention>,
    /// Protection practices.
    pub protection: Vec<ProtectionLabel>,
    /// User choices.
    pub choices: Vec<ChoiceLabel>,
    /// User access rights.
    pub access: Vec<AccessLabel>,
}

/// Gaussian-copula correlation of data-type category coverage with the
/// per-company appetite factor: drives the §5 heavy tail (companies
/// collecting from >22 or >25 categories) while preserving exact marginal
/// coverage.
const RHO_TYPES: f64 = 0.72;
/// Copula correlation for purpose categories.
const RHO_PURPOSES: f64 = 0.68;
/// Copula correlation for retention/protection labels (drives the paper's
/// 39.9% specific-protection overlap and the missing-handling rate).
const RHO_HANDLING: f64 = 0.54;
/// Copula correlation for choice labels (drives the paper's two-thirds
/// any-opt-out rate through opt-out co-occurrence).
const RHO_CHOICES: f64 = 0.72;
/// Copula correlation for access labels: high, because real policies that
/// grant any access right tend to grant several (paper: only 0.5% read-only,
/// 22% with no access mention at all).
const RHO_ACCESS: f64 = 0.88;
/// Probability a company's policy plants zero-shot data-type terms.
const ZERO_SHOT_TYPE_RATE: f64 = 0.10;
/// Probability a company's policy plants a zero-shot purpose term.
const ZERO_SHOT_PURPOSE_RATE: f64 = 0.05;
/// Probability a company's policy contains negated data-type mentions.
const NEGATION_RATE: f64 = 0.30;
/// Multiplier applied to sampled unique-descriptor counts before clamping,
/// compensating for the truncation at the per-category vocabulary size
/// (keeps the measured Table 5 means on target).
const COUNT_INFLATION: f64 = 1.15;
/// Subtracted from planted coverage to leave head-room for the chatbot's
/// category-confusion noise inflow (keeps measured coverage on target).
const COVERAGE_HEADROOM: f64 = 0.015;

impl GroundTruth {
    /// Whether this ground truth has any mention at all for `kind`-like
    /// aspects (used by missing-aspect accounting).
    pub fn has_types(&self) -> bool {
        !self.types.is_empty()
    }

    /// Whether the policy discusses purposes.
    pub fn has_purposes(&self) -> bool {
        !self.purposes.is_empty()
    }

    /// Whether the policy discusses handling (retention or protection).
    pub fn has_handling(&self) -> bool {
        !self.retention.is_empty() || !self.protection.is_empty()
    }

    /// Whether the policy discusses rights (choices or access).
    pub fn has_rights(&self) -> bool {
        !self.choices.is_empty() || !self.access.is_empty()
    }

    /// Sample the ground truth for `(domain, sector)` under `seed`.
    ///
    /// Coverage decisions use a one-factor Gaussian copula: a per-company
    /// *appetite* factor `z` shifts every category's latent variable, so
    /// data-hungry companies collect broadly (the §5 heavy tail) while each
    /// category's marginal coverage stays exactly on its calibration target.
    pub fn sample(seed: u64, domain: &str, sector: Sector) -> GroundTruth {
        let mut r = rng::stream(seed, "groundtruth", domain);
        // Appetite factor: negative z → broader collection. Choices use an
        // independent factor so opt-out practices and access rights are not
        // artificially co-absent (the paper's 22% no-access companies still
        // mostly offer opt-outs).
        let z = box_muller(&mut r);
        let z_choices = box_muller(&mut r);
        let covered_with = |r: &mut rand_chacha::ChaCha8Rng, factor: f64, rho: f64, p: f64| {
            let p = p.clamp(0.002, 0.995);
            let u = box_muller(r);
            rho * factor + (1.0 - rho * rho).sqrt() * u < inv_norm_cdf(p)
        };
        let covered =
            |r: &mut rand_chacha::ChaCha8Rng, rho: f64, p: f64| covered_with(r, z, rho, p);

        // --- Data types ---
        let mut types = Vec::new();
        for category in DataTypeCategory::ALL {
            let cal = calibration::datatype_calibration(category);
            let p = (cal.sector_coverage(sector) - COVERAGE_HEADROOM).max(0.005);
            if !covered(&mut r, RHO_TYPES, p) {
                continue;
            }
            let specs: Vec<_> = descriptors_for(category).collect();
            let count = sample_count(&mut r, cal.sector_mean(sector), cal.sd, specs.len());
            for spec in weighted_sample(&mut r, &specs, count, |s| s.weight) {
                let surface = pick_surface(&mut r, spec.name, spec.surfaces);
                types.push(PlantedMention {
                    descriptor: spec.name.to_string(),
                    category,
                    surface,
                    zero_shot: false,
                });
            }
        }
        // Zero-shot plants.
        if r.gen::<f64>() < ZERO_SHOT_TYPE_RATE && !ZERO_SHOT_DATA_TYPES.is_empty() {
            let n = r.gen_range(1..=2usize);
            for _ in 0..n {
                let z = ZERO_SHOT_DATA_TYPES[r.gen_range(0..ZERO_SHOT_DATA_TYPES.len())];
                if types.iter().any(|t| t.descriptor == z.term) {
                    continue;
                }
                types.push(PlantedMention {
                    descriptor: z.term.to_string(),
                    category: z.category,
                    surface: z.term.to_string(),
                    zero_shot: true,
                });
            }
        }
        // Negated mentions: descriptors *not* positively collected.
        let mut negated_types = Vec::new();
        if r.gen::<f64>() < NEGATION_RATE {
            let n = r.gen_range(1..=2usize);
            let mut attempts = 0;
            while negated_types.len() < n && attempts < 20 {
                attempts += 1;
                let cat = DataTypeCategory::ALL[r.gen_range(0..DataTypeCategory::ALL.len())];
                let specs: Vec<_> = descriptors_for(cat).collect();
                let spec = specs[r.gen_range(0..specs.len())];
                if types.iter().any(|t| t.descriptor == spec.name)
                    || negated_types
                        .iter()
                        .any(|t: &PlantedMention| t.descriptor == spec.name)
                {
                    continue;
                }
                let surface = pick_surface(&mut r, spec.name, spec.surfaces);
                negated_types.push(PlantedMention {
                    descriptor: spec.name.to_string(),
                    category: cat,
                    surface,
                    zero_shot: false,
                });
            }
        }

        // --- Purposes ---
        let mut purposes = Vec::new();
        for category in PurposeCategory::ALL {
            let cal = calibration::purpose_calibration(category);
            if !covered(&mut r, RHO_PURPOSES, cal.sector_coverage(sector)) {
                continue;
            }
            // "Data for sale" is rare and deliberate (the paper found just
            // 26 companies); only explicit sellers plant it.
            let seller = rng::unit(seed, "data-seller", domain) < 0.085;
            let specs: Vec<_> = purposes_for(category)
                .filter(|p| p.name != "data for sale" || seller)
                .collect();
            let count = sample_count(&mut r, cal.sector_mean(sector), cal.sd, specs.len());
            for spec in weighted_sample(&mut r, &specs, count, |s| s.weight) {
                let surface = pick_surface(&mut r, spec.name, spec.surfaces);
                purposes.push(PlantedPurpose {
                    descriptor: spec.name.to_string(),
                    category,
                    surface,
                    zero_shot: false,
                });
            }
        }
        if r.gen::<f64>() < ZERO_SHOT_PURPOSE_RATE && !ZERO_SHOT_PURPOSES.is_empty() {
            let z = ZERO_SHOT_PURPOSES[r.gen_range(0..ZERO_SHOT_PURPOSES.len())];
            purposes.push(PlantedPurpose {
                descriptor: z.term.to_string(),
                category: z.category,
                surface: z.term.to_string(),
                zero_shot: true,
            });
        }

        // --- Retention ---
        let mut retention = Vec::new();
        for label in RetentionLabel::ALL {
            let cal = calibration::retention_calibration(label);
            if covered(&mut r, RHO_HANDLING, cal.sector_coverage(sector)) {
                let period = if label == RetentionLabel::Stated {
                    Some(sample_period_days(&mut r))
                } else {
                    None
                };
                retention.push(PlantedRetention {
                    label,
                    period_days: period,
                });
            }
        }
        // Planted retention extremes (§5: arescre.com & pg.com at 1 day,
        // bms.com at 50 years).
        match domain {
            "arescre.com" | "pg.com" => {
                retention.retain(|p| p.label != RetentionLabel::Stated);
                retention.push(PlantedRetention {
                    label: RetentionLabel::Stated,
                    period_days: Some(1),
                });
            }
            "bms.com" => {
                retention.retain(|p| p.label != RetentionLabel::Stated);
                retention.push(PlantedRetention {
                    label: RetentionLabel::Stated,
                    period_days: Some(50 * 365),
                });
            }
            _ => {}
        }

        // --- Protection / choices / access ---
        let mut protection = Vec::new();
        for label in ProtectionLabel::ALL {
            let cal = calibration::protection_calibration(label);
            if covered(&mut r, RHO_HANDLING, cal.sector_coverage(sector)) {
                protection.push(label);
            }
        }
        let mut choices = Vec::new();
        for label in ChoiceLabel::ALL {
            let cal = calibration::choice_calibration(label);
            if covered_with(&mut r, z_choices, RHO_CHOICES, cal.sector_coverage(sector)) {
                choices.push(label);
            }
        }
        let mut access = Vec::new();
        for label in AccessLabel::ALL {
            let cal = calibration::access_calibration(label);
            if covered(&mut r, RHO_ACCESS, cal.sector_coverage(sector)) {
                access.push(label);
            }
        }

        GroundTruth {
            domain: domain.to_string(),
            sector,
            types,
            negated_types,
            purposes,
            retention,
            protection,
            choices,
            access,
        }
    }
}

/// Sample a unique-descriptor count: rounded Gaussian, clamped to
/// `[1, available]`.
fn sample_count(r: &mut impl Rng, mean: f64, sd: f64, available: usize) -> usize {
    let z = box_muller(r);
    let v = (COUNT_INFLATION * mean + sd * z).round();
    (v.max(1.0) as usize).min(available.max(1))
}

/// Inverse standard-normal CDF (Acklam's rational approximation, |err| <
/// 1.15e-9) — used by the coverage copula.
pub fn inv_norm_cdf(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p) && p > 0.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// One standard-normal draw (Box–Muller).
fn box_muller(r: &mut impl Rng) -> f64 {
    let u1: f64 = r.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = r.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Weighted sampling without replacement of `count` items.
fn weighted_sample<'a, T>(
    r: &mut impl Rng,
    items: &[&'a T],
    count: usize,
    weight: impl Fn(&T) -> f32,
) -> Vec<&'a T> {
    let mut pool: Vec<(&'a T, f64)> = items.iter().map(|&t| (t, weight(t) as f64)).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count.min(items.len()) {
        let total: f64 = pool.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            break;
        }
        let mut pick = r.gen::<f64>() * total;
        let mut idx = pool.len() - 1;
        for (i, (_, w)) in pool.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
        }
        out.push(pool.swap_remove(idx).0);
    }
    out
}

/// Choose the surface form: the canonical name half the time, otherwise a
/// uniform synonym.
fn pick_surface(r: &mut impl Rng, name: &str, surfaces: &[&str]) -> String {
    if surfaces.is_empty() || r.gen::<f64>() < 0.5 {
        name.to_string()
    } else {
        surfaces[r.gen_range(0..surfaces.len())].to_string()
    }
}

/// Sample a stated retention period in days: log-normal with median ~2
/// years, clamped to [1 day, 50 years] (the §5 analysis reports exactly
/// this median and range).
fn sample_period_days(r: &mut impl Rng) -> u32 {
    const MENU: [u32; 16] = [
        30, 60, 90, 180, 365, 548, 730, 1095, 1460, 1825, 2190, 2555, 3650, 4380, 5475, 7300,
    ];
    let z = box_muller(r);
    let days = (730.0_f64 * (0.9 * z).exp()).clamp(7.0, 18_250.0);
    // Real policies state round periods: snap to the nearest common unit.
    MENU.iter()
        .copied()
        .min_by_key(|&m| (m as f64 - days).abs() as u64)
        .unwrap_or(730)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(seed: u64, domain: &str, sector: Sector) -> GroundTruth {
        GroundTruth::sample(seed, domain, sector)
    }

    #[test]
    fn deterministic() {
        let a = truth(1, "acme.com", Sector::InformationTechnology);
        let b = truth(1, "acme.com", Sector::InformationTechnology);
        assert_eq!(a, b);
    }

    #[test]
    fn negated_disjoint_from_positive() {
        for i in 0..50 {
            let t = truth(2, &format!("d{i}.com"), Sector::ConsumerDiscretionary);
            for neg in &t.negated_types {
                assert!(
                    t.types.iter().all(|p| p.descriptor != neg.descriptor),
                    "negated {} also positive",
                    neg.descriptor
                );
            }
        }
    }

    #[test]
    fn coverage_rates_close_to_calibration() {
        let n = 1500;
        let sector = Sector::InformationTechnology;
        let mut contact = 0usize;
        let mut medical = 0usize;
        for i in 0..n {
            let t = truth(3, &format!("c{i}.com"), sector);
            if t.types
                .iter()
                .any(|m| m.category == DataTypeCategory::ContactInfo && !m.zero_shot)
            {
                contact += 1;
            }
            if t.types
                .iter()
                .any(|m| m.category == DataTypeCategory::MedicalInfo && !m.zero_shot)
            {
                medical += 1;
            }
        }
        let contact_rate = contact as f64 / n as f64;
        let medical_rate = medical as f64 / n as f64;
        let contact_target = calibration::datatype_calibration(DataTypeCategory::ContactInfo)
            .sector_coverage(sector);
        let medical_target = calibration::datatype_calibration(DataTypeCategory::MedicalInfo)
            .sector_coverage(sector);
        assert!(
            (contact_rate - contact_target).abs() < 0.04,
            "{contact_rate} vs {contact_target}"
        );
        assert!(
            (medical_rate - medical_target).abs() < 0.04,
            "{medical_rate} vs {medical_target}"
        );
    }

    #[test]
    fn unique_descriptors_within_company() {
        for i in 0..30 {
            let t = truth(4, &format!("u{i}.com"), Sector::Financials);
            let mut seen = std::collections::HashSet::new();
            for m in &t.types {
                assert!(seen.insert(m.descriptor.clone()), "dup {}", m.descriptor);
            }
            let mut access = std::collections::HashSet::new();
            for l in &t.access {
                assert!(access.insert(*l), "dup access label {l:?}");
            }
            let mut choices = std::collections::HashSet::new();
            for l in &t.choices {
                assert!(choices.insert(*l), "dup choice label {l:?}");
            }
            let mut protection = std::collections::HashSet::new();
            for l in &t.protection {
                assert!(protection.insert(*l), "dup protection label {l:?}");
            }
        }
    }

    #[test]
    fn planted_retention_extremes() {
        let ares = truth(5, "arescre.com", Sector::RealEstate);
        let stated: Vec<_> = ares
            .retention
            .iter()
            .filter(|p| p.label == RetentionLabel::Stated)
            .collect();
        assert_eq!(stated.len(), 1);
        assert_eq!(stated[0].period_days, Some(1));
        let bms = truth(5, "bms.com", Sector::HealthCare);
        assert!(bms
            .retention
            .iter()
            .any(|p| p.period_days == Some(50 * 365)));
    }

    #[test]
    fn stated_periods_in_bounds_with_sane_median() {
        let mut periods: Vec<u32> = Vec::new();
        for i in 0..3000 {
            let t = truth(6, &format!("p{i}.com"), Sector::InformationTechnology);
            for p in &t.retention {
                if let Some(d) = p.period_days {
                    periods.push(d);
                }
            }
        }
        assert!(periods.len() > 100, "got {}", periods.len());
        periods.sort_unstable();
        let median = periods[periods.len() / 2];
        assert!((300..1500).contains(&median), "median {median}");
        assert!(*periods.first().unwrap() >= 1);
        assert!(*periods.last().unwrap() <= 18_250);
    }

    #[test]
    fn zero_shot_rate_near_target() {
        let n = 2000;
        let with_zs = (0..n)
            .filter(|i| {
                truth(7, &format!("z{i}.com"), Sector::ConsumerStaples)
                    .types
                    .iter()
                    .any(|m| m.zero_shot)
            })
            .count();
        let rate = with_zs as f64 / n as f64;
        assert!((rate - ZERO_SHOT_TYPE_RATE).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn missing_aspect_rate_plausible() {
        // §4: 375/2545 (≈15%) of successfully extracted policies lack at
        // least one of the four aspects; our planted truth should produce a
        // broadly similar rate (most of it from handling/rights).
        let n = 2000;
        let missing = (0..n)
            .filter(|i| {
                let t = truth(8, &format!("m{i}.com"), Sector::Industrials);
                !(t.has_types() && t.has_purposes() && t.has_handling() && t.has_rights())
            })
            .count();
        let rate = missing as f64 / n as f64;
        assert!((0.02..0.30).contains(&rate), "missing-aspect rate {rate}");
    }
}
