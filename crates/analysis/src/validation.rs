//! The §4 validation harness and §6 model comparison.
//!
//! The paper validated by manual inspection; AIPAN-RS validates against the
//! synthetic world's **planted ground truth**, which makes every audit
//! exact and repeatable while keeping the paper's protocol (sample sizes,
//! stratification, and reported metrics).

use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
use aipan_chatbot::{protocol, Chatbot, ModelProfile, SimulatedChatbot};
use aipan_core::dataset::Dataset;
use aipan_crawler::crawl_domain;
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::Client;
use aipan_taxonomy::normalize::fold;
use aipan_taxonomy::records::{AnnotationPayload, AspectKind};
#[cfg(test)]
use aipan_taxonomy::DataTypeCategory;
use aipan_taxonomy::{ChoiceLabel, Normalizer};
use aipan_webgen::{CompanyFate, GroundTruth, World};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn sample_rng(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(salt))
}

// ---------------------------------------------------------------------------
// Crawl/extraction failure audit (§4, first paragraph)
// ---------------------------------------------------------------------------

/// Classification of an audited failure, following the paper's classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FailureClass {
    /// The site has no privacy policy (paper: 27/50).
    NoPolicy,
    /// Crawler exception/timeout (paper: 6).
    CrawlerException,
    /// Blocked crawl — bot wall (paper: 3, combined with robots below).
    BlockedCrawl,
    /// robots.txt disallows all crawling (honored by the crawler).
    RobotsBlocked,
    /// Dynamic JavaScript-loaded content (paper: 2).
    DynamicContent,
    /// Relevant link without the word "privacy" (paper: 3).
    LinkWithoutPrivacy,
    /// Link triggering a JavaScript action (paper: 1).
    JavaScriptLink,
    /// Link only in a consent box (paper: 1).
    ConsentBoxLink,
    /// PDF policy (paper: 5).
    PdfPolicy,
    /// Non-English website (paper: 2).
    NonEnglish,
    /// Mixed-language policy discarded in pre-processing.
    MixedLanguage,
    /// Policy as an image or behind expandable elements.
    UnextractableContent,
}

/// The audit of a sample of failed domains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureAudit {
    /// Total failed domains (crawl or extraction; paper: 244 + 103).
    pub failed_total: usize,
    /// Sample size audited (paper: 50).
    pub sample_size: usize,
    /// Counts per failure class in the sample.
    pub counts: Vec<(FailureClass, usize)>,
}

impl FailureAudit {
    /// Audit `sample_size` randomly selected failed domains.
    pub fn run(world: &World, dataset: &Dataset, sample_size: usize, seed: u64) -> FailureAudit {
        let mut failed: Vec<String> = world
            .universe
            .unique_domains()
            .iter()
            .map(|c| c.domain.clone())
            .filter(|d| dataset.by_domain(d).is_none())
            .collect();
        failed.sort();
        let failed_total = failed.len();
        let mut rng = sample_rng(seed, 0xFA11);
        failed.shuffle(&mut rng);
        failed.truncate(sample_size);

        let injector = FaultInjector::new(world.config.seed, world.config.faults);
        let mut histogram: BTreeMap<FailureClass, usize> = BTreeMap::new();
        for domain in &failed {
            let class = classify_failure(world, &injector, domain);
            *histogram.entry(class).or_insert(0) += 1;
        }
        let mut counts: Vec<(FailureClass, usize)> = histogram.into_iter().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        FailureAudit {
            failed_total,
            sample_size: failed.len(),
            counts,
        }
    }

    /// Render with the paper's reference breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Failure audit: {} failed domains, {} sampled \
             [paper: 347 failed, 50 sampled → 27 no policy, 11 crawler-related, \
             5 link detection, 5 PDF, 2 non-English]",
            self.failed_total, self.sample_size
        );
        for (class, count) in &self.counts {
            let _ = writeln!(out, "  {:<24} {}", format!("{class:?}"), count);
        }
        out
    }
}

fn classify_failure(world: &World, injector: &FaultInjector, domain: &str) -> FailureClass {
    use aipan_net::fault::FaultKind;
    if aipan_webgen::site::robots_blocks_all(world.config.seed, domain) {
        return FailureClass::RobotsBlocked;
    }
    match injector.fate(domain) {
        FaultKind::ConnectFailure | FaultKind::Timeout => return FailureClass::CrawlerException,
        FaultKind::Blocked => return FailureClass::BlockedCrawl,
        FaultKind::None => {}
    }
    match world.fate(domain) {
        CompanyFate::NoPolicy => FailureClass::NoPolicy,
        CompanyFate::HiddenLegalLink => FailureClass::LinkWithoutPrivacy,
        CompanyFate::JsActionLink => FailureClass::JavaScriptLink,
        CompanyFate::ConsentBoxLink => FailureClass::ConsentBoxLink,
        CompanyFate::PdfPolicy => FailureClass::PdfPolicy,
        CompanyFate::NonEnglish => FailureClass::NonEnglish,
        CompanyFate::MixedLanguage => FailureClass::MixedLanguage,
        CompanyFate::JsLoadedPolicy => FailureClass::DynamicContent,
        CompanyFate::ImagePolicy | CompanyFate::ExpandablePolicy => {
            FailureClass::UnextractableContent
        }
        // A Normal site that still failed: treat as crawler-related.
        CompanyFate::Normal => FailureClass::CrawlerException,
    }
}

// ---------------------------------------------------------------------------
// Missing-aspect audit (§4, second paragraph)
// ---------------------------------------------------------------------------

/// Audit of policies that miss annotations for ≥1 studied aspect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MissingAspectAudit {
    /// Policies missing ≥1 aspect (paper: 375).
    pub missing_total: usize,
    /// Sample size (paper: 20).
    pub sample_size: usize,
    /// Sampled policies whose missing aspects are genuinely absent from the
    /// planted truth (paper: 16/20).
    pub truly_absent: usize,
    /// Sampled policies where the aspect exists in truth but the pipeline
    /// missed it (paper: 4/20 — extraction artifacts).
    pub pipeline_miss: usize,
}

impl MissingAspectAudit {
    /// Audit a deterministic sample of missing-aspect policies.
    pub fn run(
        world: &World,
        dataset: &Dataset,
        sample_size: usize,
        seed: u64,
    ) -> MissingAspectAudit {
        let mut missing: Vec<&str> = dataset
            .annotated()
            .filter(|p| !p.missing_aspects().is_empty())
            .map(|p| p.domain.as_str())
            .collect();
        missing.sort();
        let missing_total = missing.len();
        let mut rng = sample_rng(seed, 0x3155);
        missing.shuffle(&mut rng);
        missing.truncate(sample_size);

        let mut truly_absent = 0;
        let mut pipeline_miss = 0;
        for domain in &missing {
            let Some(policy) = dataset.by_domain(domain) else {
                continue;
            };
            let Some(truth) = world.truth(domain) else {
                pipeline_miss += 1;
                continue;
            };
            let all_absent = policy.missing_aspects().iter().all(|kind| match kind {
                AspectKind::Types => !truth.has_types(),
                AspectKind::Purposes => !truth.has_purposes(),
                AspectKind::Handling => !truth.has_handling(),
                AspectKind::Rights => !truth.has_rights(),
            });
            if all_absent {
                truly_absent += 1;
            } else {
                pipeline_miss += 1;
            }
        }
        MissingAspectAudit {
            missing_total,
            sample_size: missing.len(),
            truly_absent,
            pipeline_miss,
        }
    }

    /// Render with the paper's reference values.
    pub fn render(&self) -> String {
        format!(
            "Missing-aspect audit: {} policies missing ≥1 aspect [paper: 375]; sampled {}: \
             {} genuinely absent, {} pipeline misses [paper: 16 vs 4 of 20]\n",
            self.missing_total, self.sample_size, self.truly_absent, self.pipeline_miss
        )
    }
}

// ---------------------------------------------------------------------------
// Annotation precision (§4, third paragraph)
// ---------------------------------------------------------------------------

/// Stratified annotation-precision estimates per aspect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrecisionReport {
    /// (sampled, correct) for data types (paper: 340 sampled, 89.7%).
    pub types: (usize, usize),
    /// (sampled, correct) for purposes (paper: 175 sampled, 94.3%).
    pub purposes: (usize, usize),
    /// (sampled, correct) for handling (paper: 200 sampled, 97.5%).
    pub handling: (usize, usize),
    /// (sampled, correct) for rights (paper: 220 sampled, 90.5%).
    pub rights: (usize, usize),
    /// Of the rights errors, how many are "Do not use" annotations
    /// (paper: ~40% of errors).
    pub rights_errors_do_not_use: usize,
}

impl PrecisionReport {
    /// Sample and grade annotations against the planted ground truth.
    ///
    /// Stratification mirrors the paper: up to `per_type` (10) per data-type
    /// category, `per_purpose` (25) per purpose category, 20 per handling
    /// label, and 20 per rights label.
    pub fn run(world: &World, dataset: &Dataset, seed: u64) -> PrecisionReport {
        Self::run_with(world, dataset, seed, 10, 25, 20, 20)
    }

    /// Like [`PrecisionReport::run`] with explicit strata sizes.
    pub fn run_with(
        world: &World,
        dataset: &Dataset,
        seed: u64,
        per_type: usize,
        per_purpose: usize,
        per_handling: usize,
        per_rights: usize,
    ) -> PrecisionReport {
        // Collect (domain, payload) pools per stratum key.
        let mut pools: BTreeMap<String, Vec<(&str, &AnnotationPayload)>> = BTreeMap::new();
        for policy in dataset.annotated() {
            for ann in &policy.annotations {
                let key = stratum_key(&ann.payload);
                pools
                    .entry(key)
                    .or_default()
                    .push((policy.domain.as_str(), &ann.payload));
            }
        }

        let mut types = (0usize, 0usize);
        let mut purposes = (0usize, 0usize);
        let mut handling = (0usize, 0usize);
        let mut rights = (0usize, 0usize);
        let mut rights_errors_do_not_use = 0usize;

        let mut keys: Vec<&String> = pools.keys().collect();
        keys.sort();
        for key in keys {
            let Some(pool) = pools.get(key) else {
                continue;
            };
            let quota = if key.starts_with("dt:") {
                per_type
            } else if key.starts_with("pu:") {
                per_purpose
            } else if key.starts_with("re:") || key.starts_with("pr:") {
                per_handling
            } else {
                per_rights
            };
            let mut indices: Vec<usize> = (0..pool.len()).collect();
            let mut rng = sample_rng(seed, hash_key(key));
            indices.shuffle(&mut rng);
            for &i in indices.iter().take(quota) {
                let Some(&(domain, payload)) = pool.get(i) else {
                    continue;
                };
                let correct = world
                    .truth(domain)
                    .map(|t| payload_correct(t, payload))
                    .unwrap_or(false);
                match payload.aspect_kind() {
                    AspectKind::Types => bump(&mut types, correct),
                    AspectKind::Purposes => bump(&mut purposes, correct),
                    AspectKind::Handling => bump(&mut handling, correct),
                    AspectKind::Rights => {
                        bump(&mut rights, correct);
                        if !correct
                            && matches!(
                                payload,
                                AnnotationPayload::Choice {
                                    label: ChoiceLabel::DoNotUse
                                }
                            )
                        {
                            rights_errors_do_not_use += 1;
                        }
                    }
                }
            }
        }

        PrecisionReport {
            types,
            purposes,
            handling,
            rights,
            rights_errors_do_not_use,
        }
    }

    /// Precision for one aspect tuple.
    pub fn precision(pair: (usize, usize)) -> f64 {
        if pair.0 == 0 {
            0.0
        } else {
            pair.1 as f64 / pair.0 as f64
        }
    }

    /// Render with the paper's reference values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Annotation precision vs planted ground truth:");
        let row = |name: &str, pair: (usize, usize), paper: &str| {
            format!(
                "  {:<12} {:>4} sampled, {:>4} correct → {:>5.1}%   [paper: {paper}]\n",
                name,
                pair.0,
                pair.1,
                Self::precision(pair) * 100.0
            )
        };
        out.push_str(&row("types", self.types, "89.7%"));
        out.push_str(&row("purposes", self.purposes, "94.3%"));
        out.push_str(&row("handling", self.handling, "97.5%"));
        out.push_str(&row("rights", self.rights, "90.5%"));
        let rights_errors = self.rights.0 - self.rights.1;
        let share = if rights_errors == 0 {
            0.0
        } else {
            self.rights_errors_do_not_use as f64 / rights_errors as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "  rights errors in 'Do not use': {}/{} ({:.0}%)   [paper: ~40%]",
            self.rights_errors_do_not_use, rights_errors, share
        );
        out
    }
}

fn bump(pair: &mut (usize, usize), correct: bool) {
    pair.0 += 1;
    if correct {
        pair.1 += 1;
    }
}

fn stratum_key(payload: &AnnotationPayload) -> String {
    match payload {
        AnnotationPayload::DataType { category, .. } => format!("dt:{}", category.index()),
        AnnotationPayload::Purpose { category, .. } => format!("pu:{}", category.index()),
        AnnotationPayload::Retention { label, .. } => format!("re:{}", label.index()),
        AnnotationPayload::Protection { label } => format!("pr:{}", label.index()),
        AnnotationPayload::Choice { label } => format!("ch:{}", label.index()),
        AnnotationPayload::Access { label } => format!("ac:{}", label.index()),
    }
}

fn hash_key(key: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Whether an annotation payload agrees with the planted truth.
pub fn payload_correct(truth: &GroundTruth, payload: &AnnotationPayload) -> bool {
    match payload {
        AnnotationPayload::DataType {
            descriptor,
            category,
        } => truth
            .types
            .iter()
            .any(|m| m.descriptor == *descriptor && m.category == *category),
        AnnotationPayload::Purpose {
            descriptor,
            category,
        } => truth
            .purposes
            .iter()
            .any(|m| m.descriptor == *descriptor && m.category == *category),
        AnnotationPayload::Retention { label, .. } => {
            truth.retention.iter().any(|r| r.label == *label)
        }
        AnnotationPayload::Protection { label } => truth.protection.contains(label),
        AnnotationPayload::Choice { label } => truth.choices.contains(label),
        AnnotationPayload::Access { label } => truth.access.contains(label),
    }
}

// ---------------------------------------------------------------------------
// Model comparison (§6)
// ---------------------------------------------------------------------------

/// Extraction-precision comparison across model profiles on a sample of
/// policies (the paper's 20-policy GPT-4 / GPT-3.5 / Llama-3.1 study).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelComparison {
    /// Policies compared (paper: 20).
    pub policies: usize,
    /// Per model: (id, extractions, correct, negated-context extractions).
    pub results: Vec<(String, usize, usize, usize)>,
}

impl ModelComparison {
    /// Run the comparison over `n` randomly selected Normal-fate domains.
    pub fn run(world: &World, profiles: &[ModelProfile], n: usize, seed: u64) -> ModelComparison {
        let mut candidates: Vec<String> = world
            .fates
            .iter()
            .filter(|(_, f)| f.expect_extraction())
            .map(|(d, _)| d.clone())
            .collect();
        candidates.sort();
        let mut rng = sample_rng(seed, 0x6C39);
        candidates.shuffle(&mut rng);
        candidates.truncate(n);

        // Fetch each policy's extracted text once (fault-free client: the
        // comparison is about the models, not the crawl).
        let client = Client::new(
            world.internet.clone(),
            FaultInjector::new(0, FaultConfig::none()),
        );
        let normalizer = Normalizer::new();
        let mut docs: Vec<(String, String)> = Vec::new(); // (domain, numbered text)
        for domain in &candidates {
            let crawl = crawl_domain(&client, domain);
            let Some(path) = world.policy_paths.get(domain) else {
                continue;
            };
            let Some(page) = crawl
                .privacy_pages()
                .into_iter()
                .find(|p| p.final_url.path == *path)
            else {
                continue;
            };
            let doc = aipan_html::extract(&page.body);
            let input = protocol::number_lines(doc.lines.iter().map(|l| l.text.as_str()));
            docs.push((domain.clone(), input));
        }

        let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
        let mut results = Vec::new();
        for profile in profiles {
            let bot = SimulatedChatbot::new(profile.clone(), seed);
            let mut extracted = 0usize;
            let mut correct = 0usize;
            let mut negated = 0usize;
            for (domain, input) in &docs {
                let Some(truth) = world.truth(domain) else {
                    continue;
                };
                // A malformed completion extracts nothing.
                let rows = protocol::parse_extractions(&bot.complete(prompt, input));
                for (_, text) in rows.unwrap_or_default() {
                    extracted += 1;
                    let folded = fold(&text);
                    let planted_positive = truth.types.iter().any(|m| {
                        fold(&m.surface) == folded || normalized_matches(&normalizer, &folded, m)
                    });
                    let planted_negated = truth
                        .negated_types
                        .iter()
                        .any(|m| fold(&m.surface) == folded);
                    if planted_positive {
                        correct += 1;
                    } else if planted_negated {
                        negated += 1;
                    }
                }
            }
            results.push((profile.id.clone(), extracted, correct, negated));
        }
        ModelComparison {
            policies: docs.len(),
            results,
        }
    }

    /// Render with the paper's reference values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Model comparison over {} policies [paper: 20 policies; GPT-4 96.2% vs \
             Llama-3.1 83.2% extraction precision; GPT-3.5 unsatisfactory; Llama extracts \
             negated contexts]",
            self.policies
        );
        for (id, extracted, correct, negated) in &self.results {
            let precision = if *extracted == 0 {
                0.0
            } else {
                *correct as f64 / *extracted as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>5} extracted, {:>5} correct → {:>5.1}% precision \
                 ({} negated-context extractions)",
                id, extracted, correct, precision, negated
            );
        }
        out
    }
}

/// Whether a folded extraction corresponds to `m` after normalization (the
/// extraction may use a different surface of the same descriptor).
fn normalized_matches(
    normalizer: &Normalizer,
    folded: &str,
    m: &aipan_webgen::PlantedMention,
) -> bool {
    normalizer
        .datatype(folded)
        .map(|hit| hit.descriptor == m.descriptor)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_core::{run_pipeline, PipelineConfig};
    use aipan_webgen::{build_world, WorldConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (World, Dataset) {
        static FIX: OnceLock<(World, Dataset)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = build_world(WorldConfig::small(3, 400));
            let run = run_pipeline(
                &world,
                PipelineConfig {
                    seed: 3,
                    ..Default::default()
                },
            );
            (world, run.dataset)
        })
    }

    #[test]
    fn failure_audit_classifies_sample() {
        let (world, dataset) = fixture();
        let audit = FailureAudit::run(world, dataset, 50, 1);
        assert!(audit.failed_total > 0);
        assert!(audit.sample_size <= 50);
        let total: usize = audit.counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, audit.sample_size);
        // NoPolicy should dominate, as in the paper.
        assert_eq!(audit.counts[0].0, FailureClass::NoPolicy);
    }

    #[test]
    fn missing_aspect_audit_mostly_truly_absent() {
        let (world, dataset) = fixture();
        let audit = MissingAspectAudit::run(world, dataset, 20, 2);
        assert!(audit.missing_total > 0);
        assert_eq!(audit.truly_absent + audit.pipeline_miss, audit.sample_size);
        assert!(
            audit.truly_absent * 2 >= audit.sample_size,
            "most sampled misses should be genuine: {audit:?}"
        );
    }

    #[test]
    fn precision_in_plausible_band() {
        let (world, dataset) = fixture();
        let report = PrecisionReport::run(world, dataset, 5);
        let types_p = PrecisionReport::precision(report.types);
        let handling_p = PrecisionReport::precision(report.handling);
        assert!(
            report.types.0 > 50,
            "types sample too small: {:?}",
            report.types
        );
        assert!((0.75..=1.0).contains(&types_p), "types precision {types_p}");
        assert!(handling_p >= types_p - 0.1, "handling should be cleaner");
    }

    #[test]
    fn payload_correct_grades_properly() {
        let (world, _) = fixture();
        let (domain, truth) = world.truths.iter().next().unwrap();
        let _ = domain;
        if let Some(m) = truth.types.first() {
            let good = AnnotationPayload::DataType {
                descriptor: m.descriptor.clone(),
                category: m.category,
            };
            assert!(payload_correct(truth, &good));
            let bad = AnnotationPayload::DataType {
                descriptor: m.descriptor.clone(),
                category: if m.category == DataTypeCategory::ContactInfo {
                    DataTypeCategory::DeviceInfo
                } else {
                    DataTypeCategory::ContactInfo
                },
            };
            assert!(!payload_correct(truth, &bad));
        }
    }

    #[test]
    fn model_comparison_orders_models() {
        let (world, _) = fixture();
        let profiles = vec![ModelProfile::gpt4_turbo(), ModelProfile::llama31()];
        let cmp = ModelComparison::run(world, &profiles, 20, 7);
        assert!(cmp.policies >= 10, "not enough policies: {}", cmp.policies);
        let gpt4 = &cmp.results[0];
        let llama = &cmp.results[1];
        let p = |r: &(String, usize, usize, usize)| r.2 as f64 / r.1.max(1) as f64;
        assert!(
            p(gpt4) > p(llama),
            "gpt4 {:.3} should beat llama {:.3}",
            p(gpt4),
            p(llama)
        );
        assert!(
            llama.3 > gpt4.3,
            "llama should extract more negated contexts"
        );
    }

    #[test]
    fn renders_contain_reference_values() {
        let (world, dataset) = fixture();
        let audit = FailureAudit::run(world, dataset, 50, 1).render();
        assert!(audit.contains("paper"));
        let prec = PrecisionReport::run(world, dataset, 5).render();
        assert!(prec.contains("89.7%"));
    }
}
