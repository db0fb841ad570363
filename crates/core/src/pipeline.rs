//! Whole-universe pipeline orchestration (Figure 1).

use crate::annotate::{annotate_policy_in, AnnotateArena, AnnotateOptions};
use crate::dataset::{AnnotatedPolicy, Dataset, SegmentationMethod};
use crate::health::{HealthInputs, RunHealth};
use crate::journal::JournalEntry;
use crate::segment::{self, Method, SegmentedPolicy};
use crate::shard::{ShardedJournal, DEFAULT_SHARDS};
use aipan_chatbot::{ModelProfile, SimulatedChatbot, TokenUsage};
use aipan_crawler::{
    stream_all_supervised, CrawlFunnel, CrawlOptions, DeadLetter, DomainCrawl, PoolConfig,
    SupervisorOptions,
};
use aipan_html::{extract, lang, ExtractedDoc};
use aipan_net::fault::FaultInjector;
use aipan_net::http::ContentType;
use aipan_net::Client;
use aipan_taxonomy::Sector;
use aipan_webgen::World;
use serde::{Deserialize, Serialize};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Seed for the chatbot's error models.
    pub seed: u64,
    /// Crawler/annotation worker threads.
    pub workers: usize,
    /// Chatbot error profile.
    pub profile: ModelProfile,
    /// Annotation options (fallback/verification ablations).
    pub annotate: AnnotateOptions,
    /// Whether to segment before annotating (ablation: `false` feeds the
    /// whole text to every aspect's task).
    pub use_segmentation: bool,
    /// Crawl resilience options: retry/backoff policy, fetch-session seed,
    /// and the optional per-domain crawl deadline.
    pub crawl: CrawlOptions,
    /// Streaming-supervisor policy: poison threshold and memory
    /// backpressure cap.
    pub supervisor: SupervisorPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: 42,
            workers: PoolConfig::default().workers,
            profile: ModelProfile::gpt4_turbo(),
            annotate: AnnotateOptions::default(),
            use_segmentation: true,
            crawl: CrawlOptions::default(),
            supervisor: SupervisorPolicy::default(),
        }
    }
}

/// Fault-isolation and backpressure policy of the streaming supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Cumulative worker kills after which a domain is poisoned — skipped
    /// outright by [`run_pipeline_sharded`] when resuming from a journal
    /// that quarantined it. The default of 2 gives every panicking domain
    /// exactly one retry on resume before it is written off.
    pub max_kills: u32,
    /// Site-memory cap (bytes, against the world's
    /// [`aipan_webgen::MemoryGauge`]) above which admission of new domains
    /// blocks until in-flight domains release. `None` disables
    /// backpressure.
    pub memory_cap_bytes: Option<usize>,
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            max_kills: 2,
            memory_cap_bytes: None,
        }
    }
}

/// The §3.2 extraction/annotation funnel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractionFunnel {
    /// Domains attempted.
    pub domains_total: usize,
    /// Domains with a successful crawl.
    pub crawl_success: usize,
    /// Domains with a successful text extraction (§3.2.1 definition).
    pub extraction_success: usize,
    /// Domains receiving at least one annotation (the paper's 2529).
    pub annotated: usize,
    /// Domains missing annotations for ≥1 studied aspect (the paper's 375).
    pub missing_any_aspect: usize,
    /// Policies where the full-text fallback fired at least once (708).
    pub policies_with_fallback: usize,
    /// English, deduplicated potential privacy pages (drives the 1.8/domain
    /// average).
    pub english_privacy_pages: usize,
    /// Median core word count of extracted policies (paper: 2671).
    pub median_core_words: usize,
    /// Hallucinated annotations removed by verification.
    pub hallucinations_removed: usize,
}

impl ExtractionFunnel {
    /// Extraction success over all domains (paper: 88%).
    pub fn extraction_rate(&self) -> f64 {
        ratio(self.extraction_success, self.domains_total)
    }

    /// Extraction success over crawled domains (paper: 96.1%).
    pub fn extraction_rate_of_crawled(&self) -> f64 {
        ratio(self.extraction_success, self.crawl_success)
    }

    /// English privacy pages per successful domain (paper: 1.8).
    pub fn avg_english_privacy_pages(&self) -> f64 {
        ratio(self.english_privacy_pages, self.crawl_success)
    }
}

fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Result of a full pipeline run.
pub struct PipelineRun {
    /// Crawl funnel (§3.1).
    pub crawl_funnel: CrawlFunnel,
    /// Extraction/annotation funnel (§3.2).
    pub extraction: ExtractionFunnel,
    /// The structured dataset.
    pub dataset: Dataset,
    /// Per-task token usage.
    pub usage: Vec<(String, TokenUsage)>,
    /// The supervisor's health report: error taxonomy, quarantine list,
    /// transport rollups, and the overall verdict.
    pub health: RunHealth,
}

/// The pipeline: a configured chatbot plus processing logic.
pub struct Pipeline {
    config: PipelineConfig,
    chatbot: SimulatedChatbot,
}

impl Pipeline {
    /// Build a pipeline from `config`.
    pub fn new(config: PipelineConfig) -> Pipeline {
        let chatbot = SimulatedChatbot::new(config.profile.clone(), config.seed);
        Pipeline { config, chatbot }
    }

    /// The chatbot in use.
    pub fn chatbot(&self) -> &SimulatedChatbot {
        &self.chatbot
    }

    /// Process one crawled domain into an annotated policy.
    ///
    /// Returns `None` when the crawl failed, when no page survives the
    /// content/language filters, or when text extraction fails per the
    /// §3.2.1 success definition.
    pub fn process_domain(&self, crawl: &DomainCrawl, sector: Sector) -> Option<AnnotatedPolicy> {
        self.process_domain_arena(crawl, sector, &mut AnnotateArena::new())
            .policy
    }

    /// Process one crawled domain, returning its funnel contributions
    /// alongside the policy: the pages are extracted exactly once and both
    /// the `english_privacy_pages` count and the policy-page selection come
    /// from that single pass. Annotation scratch buffers are drawn from
    /// `arena`; a streaming worker threads one arena through every domain
    /// it processes, so the per-policy full-text and fold allocations
    /// happen once per worker instead of once per policy.
    pub fn process_domain_arena(
        &self,
        crawl: &DomainCrawl,
        sector: Sector,
        arena: &mut AnnotateArena,
    ) -> DomainOutcome {
        if !crawl.is_success() {
            return DomainOutcome {
                english_privacy_pages: 0,
                policy: None,
            };
        }
        let pages = self.english_privacy_pages(crawl);
        let english_privacy_pages = pages.len();
        // Choose the main policy page: the English privacy page with the
        // most words (privacy centers and supplemental notices are shorter
        // than the policy itself).
        let policy = pages
            .into_iter()
            .max_by_key(|(doc, _)| doc.word_count())
            .and_then(|(doc, path)| self.annotate_page(crawl, sector, &doc, path, arena));
        DomainOutcome {
            english_privacy_pages,
            policy,
        }
    }

    fn annotate_page(
        &self,
        crawl: &DomainCrawl,
        sector: Sector,
        doc: &ExtractedDoc,
        path: String,
        arena: &mut AnnotateArena,
    ) -> Option<AnnotatedPolicy> {
        let seg = if self.config.use_segmentation {
            segment::segment(&self.chatbot, doc)
        } else {
            SegmentedPolicy::whole_text(doc)
        };
        if !seg.is_successful_extraction(doc) {
            return None;
        }
        let outcome = annotate_policy_in(&self.chatbot, doc, &seg, self.config.annotate, arena);
        Some(AnnotatedPolicy {
            domain: crawl.domain.clone(),
            sector,
            annotations: outcome.annotations,
            fallbacks: outcome.fallbacks,
            hallucinations_removed: outcome.hallucinations_removed,
            core_word_count: seg.core_word_count(doc),
            segmentation: match seg.method {
                Method::Headings => SegmentationMethod::Headings,
                Method::TextAnalysis => SegmentationMethod::TextAnalysis,
            },
            policy_path: path,
        })
    }

    /// English, HTML, deduplicated privacy pages of a crawl.
    pub fn english_privacy_pages(&self, crawl: &DomainCrawl) -> Vec<(ExtractedDoc, String)> {
        crawl
            .privacy_pages()
            .into_iter()
            .filter(|p| p.content_type == ContentType::Html)
            .filter_map(|p| {
                let doc = extract(&p.body);
                // Lines are trimmed and never empty, so no lines means no text.
                if doc.lines.is_empty()
                    || !lang::is_english_lines(doc.lines.iter().map(|l| l.text.as_str()))
                {
                    None
                } else {
                    Some((doc, p.final_url.path.clone()))
                }
            })
            .collect()
    }
}

/// One domain's contribution to the §3.2 funnel, from a single extraction
/// pass (see [`Pipeline::process_domain_arena`]).
#[derive(Debug)]
pub struct DomainOutcome {
    /// English, HTML, deduplicated privacy pages found on the domain.
    pub english_privacy_pages: usize,
    /// The annotated policy, if one was extracted.
    pub policy: Option<AnnotatedPolicy>,
}

/// Run the full pipeline over a simulated world, checkpointing into a
/// throwaway in-memory journal. Callers that want durable, resumable runs
/// use [`run_pipeline_sharded`] with [`ShardedJournal::open`].
pub fn run_pipeline(world: &World, config: PipelineConfig) -> PipelineRun {
    run_pipeline_sharded(world, config, &ShardedJournal::in_memory(DEFAULT_SHARDS))
}

/// The streaming pipeline engine: every domain flows through
/// generate → crawl → extract → segment → annotate → journal inside **one**
/// worker task ([`stream_all_supervised`]), instead of crawling the whole
/// universe first and annotating it second.
///
/// Streaming is what bounds memory: a crawl's page bodies are dropped the
/// moment its domain is journaled, and on a lazy world
/// ([`aipan_webgen::build_world_lazy`]) the generated site itself is
/// released again ([`World::release_site`]), so peak residency scales with
/// in-flight domains — O(workers + shard) — rather than with the universe.
/// Each worker carries a private [`AnnotateArena`] (scratch buffers reused
/// across its policies) and a private [`CrawlFunnel`] (merged commutatively
/// afterwards, so the totals match a serial run exactly).
///
/// Already-journaled domains are re-crawled (cheap, and the crawl funnel is
/// not journaled state) but not re-annotated. Because each per-domain
/// outcome is a pure deterministic function of `(world, config)`, a run
/// resumed from any prefix of a prior run's journal produces a
/// byte-identical dataset and funnel — only token usage differs (replayed
/// domains cost no chatbot calls). Results are also worker-count-invariant:
/// the dataset, funnels, and journal contents are byte-identical for any
/// `config.workers`.
///
/// The drive is *supervised*: a panic anywhere in one domain's chain is
/// caught, dead-lettered into the journal's quarantine segment, and the
/// run continues — the panicking domain simply produces no journal entry
/// (so a resume retries it), and a domain whose cumulative kill count
/// reaches [`SupervisorPolicy::max_kills`] is poisoned: filtered out of the
/// dispatch list entirely, making the resumed run byte-identical to a
/// clean run over the universe minus the poisoned domains. When
/// [`SupervisorPolicy::memory_cap_bytes`] is set, admission of new domains
/// additionally blocks on the world's site-memory gauge (deadlock-free: an
/// over-cap run degrades to one domain at a time). The run's [`RunHealth`]
/// report is returned on the [`PipelineRun`].
pub fn run_pipeline_sharded(
    world: &World,
    config: PipelineConfig,
    journal: &ShardedJournal,
) -> PipelineRun {
    let pipeline = Pipeline::new(config.clone());
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let poisoned = journal.poisoned_domains(config.supervisor.max_kills);
    let unique = world.universe.unique_domains();
    let mut domains: Vec<String> = Vec::with_capacity(unique.len());
    let mut poisoned_skipped: Vec<String> = Vec::with_capacity(poisoned.len());
    for company in unique {
        let domain = company.domain.clone();
        if poisoned.binary_search(&domain).is_ok() {
            poisoned_skipped.push(domain);
        } else {
            domains.push(domain);
        }
    }

    struct WorkerState {
        arena: AnnotateArena,
        funnel: CrawlFunnel,
    }

    let probe = || world.site_memory.current_bytes();
    let supervisor = SupervisorOptions {
        memory_cap_bytes: config.supervisor.memory_cap_bytes,
        memory_probe: Some(&probe),
    };

    let pipeline_ref = &pipeline;
    let outcome = stream_all_supervised(
        &client,
        &domains,
        PoolConfig {
            workers: config.workers,
        },
        &config.crawl,
        &supervisor,
        || WorkerState {
            arena: AnnotateArena::new(),
            funnel: CrawlFunnel::default(),
        },
        |state: &mut WorkerState, crawl: DomainCrawl| {
            state.funnel.absorb(&crawl);
            if !journal.contains(&crawl.domain) {
                let sector = world
                    .company(&crawl.domain)
                    .map(|c| c.sector)
                    .unwrap_or(Sector::Industrials);
                let outcome = pipeline_ref.process_domain_arena(&crawl, sector, &mut state.arena);
                journal.record(JournalEntry {
                    domain: crawl.domain.clone(),
                    english_privacy_pages: outcome.english_privacy_pages,
                    policy: outcome.policy,
                });
            }
            // Lazily generated sites are released once the domain is done;
            // `crawl` (and its page bodies) drops here.
            world.release_site(&crawl.domain);
        },
        // Repair, don't rebuild: the annotation arena may be mid-mutation
        // from the panic, so it is replaced; the crawl funnel is kept —
        // it only ever advances by whole-domain `absorb` calls, which
        // complete before any panic-prone annotate work begins, so its
        // tallies stay exactly what a clean worker would have counted.
        |state: &mut WorkerState| {
            state.arena = AnnotateArena::new();
        },
        |letter: &DeadLetter| {
            let _kills =
                journal.record_dead_letter(&letter.domain, letter.stage.as_str(), &letter.message);
            // The chain died before its release step; release here so the
            // all-sites-released invariant survives quarantined domains.
            world.release_site(&letter.domain);
        },
    );
    let (processed, states) = (outcome.results, outcome.states);

    let mut crawl_funnel = CrawlFunnel::default();
    for state in &states {
        crawl_funnel.merge(&state.funnel);
    }

    // Assemble from the journal in crawl order (sorted by domain), using
    // only entries for domains in this run — a stale journal from another
    // world cannot leak extra policies in.
    let mut english_privacy_pages = 0usize;
    let mut policies: Vec<AnnotatedPolicy> = Vec::with_capacity(processed.len());
    for (domain, ()) in &processed {
        if let Some(entry) = journal.get(domain) {
            english_privacy_pages += entry.english_privacy_pages;
            if let Some(policy) = entry.policy {
                policies.push(policy);
            }
        }
    }

    let mut extraction = ExtractionFunnel {
        domains_total: crawl_funnel.domains_total,
        crawl_success: crawl_funnel.crawl_success,
        english_privacy_pages,
        ..Default::default()
    };
    let mut words: Vec<usize> = Vec::with_capacity(policies.len());
    for policy in &policies {
        extraction.extraction_success += 1;
        if !policy.annotations.is_empty() {
            extraction.annotated += 1;
        }
        if !policy.missing_aspects().is_empty() {
            extraction.missing_any_aspect += 1;
        }
        if !policy.fallbacks.is_empty() {
            extraction.policies_with_fallback += 1;
        }
        extraction.hallucinations_removed += policy.hallucinations_removed;
        words.push(policy.core_word_count);
    }
    words.sort_unstable();
    extraction.median_core_words = words.get(words.len() / 2).copied().unwrap_or(0);

    let health = RunHealth::assess(HealthInputs {
        crawl: crawl_funnel.clone(),
        extraction: extraction.clone(),
        quarantine: journal.quarantine_records(),
        poisoned_skipped,
        backpressure_stalls: outcome.backpressure_stalls,
        journal_write_errors: journal.write_errors(),
        disk_retries: journal.disk_retries(),
        transport: client.metrics(),
    });

    PipelineRun {
        crawl_funnel,
        extraction,
        dataset: Dataset { policies },
        usage: pipeline.chatbot.ledger().breakdown(),
        health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_webgen::{build_world, CompanyFate, WorldConfig};

    fn small_run(seed: u64, n: usize) -> (PipelineRun, aipan_webgen::World) {
        let world = build_world(WorldConfig::small(seed, n));
        let run = run_pipeline(
            &world,
            PipelineConfig {
                seed,
                ..Default::default()
            },
        );
        (run, world)
    }

    #[test]
    fn small_world_end_to_end() {
        let (run, world) = small_run(5, 120);
        assert!(run.crawl_funnel.crawl_success > 0);
        assert!(run.extraction.extraction_success > 0);
        assert!(run.extraction.annotated > 0);
        assert!(!run.dataset.is_empty());
        assert!(run
            .usage
            .iter()
            .any(|(task, u)| task == "extract_data_types" && u.calls > 0));
        // Every annotated domain must be a real domain of the world.
        for p in &run.dataset.policies {
            assert!(world.fates.contains_key(&p.domain));
        }
    }

    #[test]
    fn normal_sites_generally_annotated() {
        let (run, world) = small_run(7, 150);
        let normal_domains: Vec<&String> = world
            .fates
            .iter()
            .filter(|(_, f)| **f == CompanyFate::Normal)
            .map(|(d, _)| d)
            .collect();
        let annotated: usize = normal_domains
            .iter()
            .filter(|d| run.dataset.by_domain(d).is_some())
            .count();
        let rate = annotated as f64 / normal_domains.len() as f64;
        assert!(rate > 0.9, "only {rate} of normal sites annotated");
    }

    #[test]
    fn failure_fates_not_annotated() {
        let (run, world) = small_run(9, 400);
        for (domain, fate) in &world.fates {
            let bad = matches!(
                fate,
                CompanyFate::NoPolicy
                    | CompanyFate::PdfPolicy
                    | CompanyFate::NonEnglish
                    | CompanyFate::MixedLanguage
                    | CompanyFate::JsLoadedPolicy
                    | CompanyFate::ImagePolicy
                    | CompanyFate::HiddenLegalLink
                    | CompanyFate::JsActionLink
                    | CompanyFate::ConsentBoxLink
            );
            if bad {
                assert!(
                    run.dataset.by_domain(domain).is_none(),
                    "{domain} ({fate:?}) should not be annotated"
                );
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let (a, _) = small_run(11, 80);
        let (b, _) = small_run(11, 80);
        assert_eq!(a.dataset.len(), b.dataset.len());
        for (x, y) in a.dataset.policies.iter().zip(&b.dataset.policies) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.annotations, y.annotations);
        }
        assert_eq!(a.extraction, b.extraction);
    }

    #[test]
    fn policy_page_selection_prefers_longest_english_page() {
        use aipan_net::fault::{FaultConfig, FaultInjector};
        use aipan_net::host::StaticSite;
        use aipan_net::http::Response;
        use aipan_net::{Client, Internet};

        let net = Internet::new();
        net.register(
            "pick.com",
            StaticSite::new()
                .page(
                    "/",
                    Response::html(
                        "<footer><a href=\"/privacy\">Privacy Center</a>\
                         <a href=\"/privacy-notice-full\">Privacy Policy</a></footer>",
                    ),
                )
                // Short hub page.
                .page("/privacy", Response::html("<p>Short privacy hub page.</p>"))
                // Long real policy.
                .page(
                    "/privacy-notice-full",
                    Response::html(
                        "<h2>Information We Collect</h2>\
                         <p>We collect your email address and phone number when you register \
                         for the services and when you communicate with our team.</p>\
                         <p>We retain records for as long as necessary to provide support.</p>",
                    ),
                ),
        );
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let crawl = aipan_crawler::crawl_domain(&client, "pick.com");
        let pipeline = Pipeline::new(PipelineConfig::default());
        let policy = pipeline
            .process_domain(&crawl, Sector::InformationTechnology)
            .expect("policy extracted");
        assert_eq!(policy.policy_path, "/privacy-notice-full");
    }

    #[test]
    fn non_english_pages_filtered_before_selection() {
        use aipan_net::fault::{FaultConfig, FaultInjector};
        use aipan_net::host::StaticSite;
        use aipan_net::http::Response;
        use aipan_net::{Client, Internet};

        // The only privacy page is German → extraction must fail.
        let net = Internet::new();
        net.register(
            "de.com",
            StaticSite::new()
                .page(
                    "/",
                    Response::html("<footer><a href=\"/privacy\">Privacy Policy</a></footer>"),
                )
                .page(
                    "/privacy",
                    Response::html(aipan_webgen::policy::render_policy_german("Müller AG")),
                ),
        );
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let crawl = aipan_crawler::crawl_domain(&client, "de.com");
        assert!(crawl.is_success(), "crawl itself succeeds");
        let pipeline = Pipeline::new(PipelineConfig::default());
        assert!(pipeline.process_domain(&crawl, Sector::Energy).is_none());
    }

    #[test]
    fn pdf_pages_never_selected() {
        use aipan_net::fault::{FaultConfig, FaultInjector};
        use aipan_net::host::StaticSite;
        use aipan_net::http::Response;
        use aipan_net::{Client, Internet};

        let net = Internet::new();
        net.register(
            "pdf.com",
            StaticSite::new()
                .page(
                    "/",
                    Response::html(
                        "<footer><a href=\"/privacy-policy.pdf\">Privacy Policy</a></footer>",
                    ),
                )
                .page(
                    "/privacy-policy.pdf",
                    Response::pdf("%PDF-1.7 long policy text here"),
                ),
        );
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let crawl = aipan_crawler::crawl_domain(&client, "pdf.com");
        assert!(
            crawl.is_success(),
            "PDF still counts as a potential privacy page"
        );
        let pipeline = Pipeline::new(PipelineConfig::default());
        assert!(pipeline.process_domain(&crawl, Sector::Materials).is_none());
    }

    #[test]
    fn sector_attached_from_universe() {
        let (run, world) = small_run(13, 100);
        for p in &run.dataset.policies {
            let company = world.company(&p.domain).unwrap();
            assert_eq!(p.sector, company.sector);
        }
    }
}
