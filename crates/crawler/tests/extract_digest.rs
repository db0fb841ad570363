//! Pins `aipan_html::extract` output on the pages a real crawl fetches.
//!
//! Crawls every domain of a small chaotic world — the fault mix the
//! `resume_recrawl_chaos` benchmark workload runs — and folds the `Debug`
//! rendering of `extract` over every fetched body into one FNV-1a digest.
//! Each domain is crawled twice: with the default retry policy, as the
//! pipeline does, and with no retries, so that 503 bodies from transient
//! server-error bursts reach the page list next to the 403 bot walls. The
//! pinned value was computed with the extractor as it stood before its
//! one-pass rewrite; a deliberate change to extractor output re-pins it in
//! the same change.
//!
//! On every page, `links` must return exactly `extract`'s links: the
//! crawler follows links from the former, the digest pins the latter. A
//! second crawl covers every company fate, so the pages also include the
//! policy pages of the §3.1 failure fates: a PDF, a JavaScript shell, an
//! image and a German policy.

use aipan_crawler::{crawl_domain_with, CrawlOptions, CrawledPage};
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::Client;
use aipan_webgen::{build_world, build_world_lazy, CompanyFate, WorldConfig};
use std::collections::{BTreeMap, BTreeSet};

const SEED: u64 = 1;
const COMPANIES: usize = 200;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `extract` of `page`, after checking that `links` returns its links.
fn extract_checking_links(page: &CrawledPage) -> aipan_html::ExtractedDoc {
    let doc = aipan_html::extract(&page.body);
    assert_eq!(
        aipan_html::links(&page.body),
        doc.links,
        "links of {}",
        page.final_url
    );
    doc
}

#[test]
fn extract_over_a_chaotic_crawl_matches_the_pinned_digest() {
    let mut config = WorldConfig::small(SEED, COMPANIES);
    config.faults = FaultConfig::chaotic();
    let world = build_world(config);
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut pages = 0usize;
    let mut statuses = BTreeSet::new();
    for company in world.universe.unique_domains() {
        for options in [CrawlOptions::default(), CrawlOptions::no_retry()] {
            let crawl = crawl_domain_with(&client, &company.domain, &options);
            for page in &crawl.pages {
                let doc = extract_checking_links(page);
                fnv1a(&mut hash, format!("{doc:?}").as_bytes());
                pages += 1;
                statuses.insert(page.status.0);
            }
        }
    }
    assert!(
        statuses.contains(&403) && statuses.contains(&503),
        "the world no longer serves error pages: {statuses:?}"
    );
    assert_eq!(
        (pages, format!("{hash:016x}")),
        (1585, "88e8057b6c7c835d".to_string()),
        "extract output over the crawl changed"
    );
}

#[test]
fn links_match_extract_on_the_pages_of_every_company_fate() {
    // The 200-company world above has no JavaScript-shell or image policy;
    // the paper-size world has every fate. One domain per fate is crawled,
    // and the lazy world builds only the sites that are fetched.
    let world = build_world_lazy(WorldConfig::small(SEED, 2916));
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let mut first_domain: BTreeMap<CompanyFate, &str> = BTreeMap::new();
    for (domain, fate) in &world.fates {
        first_domain.entry(*fate).or_insert(domain);
    }
    let mut policy_pages = BTreeSet::new();
    for (fate, domain) in first_domain {
        let crawl = crawl_domain_with(&client, domain, &CrawlOptions::default());
        for page in &crawl.pages {
            extract_checking_links(page);
            if page.status.is_success()
                && world.policy_paths.get(domain) == Some(&page.final_url.path)
            {
                policy_pages.insert(fate);
            }
        }
    }
    for fate in [
        CompanyFate::PdfPolicy,
        CompanyFate::JsLoadedPolicy,
        CompanyFate::ImagePolicy,
        CompanyFate::NonEnglish,
    ] {
        assert!(
            policy_pages.contains(&fate),
            "no {fate:?} policy page was crawled: {policy_pages:?}"
        );
    }
}
