//! Crawl-funnel accounting, mirroring the §3.1 statistics.

use crate::crawl::{CrawlOutcome, DomainCrawl};
use serde::{Deserialize, Serialize};

/// Aggregate crawl statistics (the §3.1 funnel).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrawlFunnel {
    /// Domains attempted.
    pub domains_total: usize,
    /// Domains with ≥1 potential privacy page (status < 400).
    pub crawl_success: usize,
    /// Domains whose homepage was unreachable at the transport level.
    pub transport_failures: usize,
    /// Domains reachable but with no privacy page found.
    pub no_privacy_page: usize,
    /// Domains where `/privacy-policy` points to an existing page.
    pub policy_path_hits: usize,
    /// Domains where `/privacy` points to an existing page.
    pub privacy_path_hits: usize,
    /// Total pages fetched (including homepages).
    pub total_pages_crawled: usize,
    /// Total deduplicated potential privacy pages.
    pub total_privacy_pages: usize,
    /// Fetches skipped due to robots.txt disallow rules.
    pub robots_skipped: usize,
    /// Domains whose robots.txt disallowed the entire site.
    pub robots_blocked_domains: usize,
    /// Total simulated politeness delay honored (ms), saturating at
    /// `u64::MAX`.
    pub politeness_delay_ms: u64,
    /// Transport retries spent across all domain crawls.
    pub retries: u64,
    /// Domains that hit their crawl deadline and salvaged a partial page
    /// set.
    pub salvaged_domains: usize,
}

impl CrawlFunnel {
    /// Crawl success rate (paper: 91.6%).
    pub fn success_rate(&self) -> f64 {
        ratio(self.crawl_success, self.domains_total)
    }

    /// `/privacy-policy` existence rate (paper: 54.5%).
    pub fn policy_path_rate(&self) -> f64 {
        ratio(self.policy_path_hits, self.domains_total)
    }

    /// `/privacy` existence rate (paper: 48.6%).
    pub fn privacy_path_rate(&self) -> f64 {
        ratio(self.privacy_path_hits, self.domains_total)
    }

    /// Average pages crawled per domain (paper: 5.1, including homepage).
    pub fn avg_pages_crawled(&self) -> f64 {
        ratio(self.total_pages_crawled, self.domains_total)
    }

    /// Average deduplicated privacy pages per *successful* domain
    /// (paper: 1.8 after duplicate/language filtering).
    pub fn avg_privacy_pages(&self) -> f64 {
        ratio(self.total_privacy_pages, self.crawl_success)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Full crawl report: the per-domain results plus the funnel.
pub struct CrawlReport {
    /// Per-domain crawls, sorted by domain.
    pub crawls: Vec<DomainCrawl>,
    /// Aggregate funnel.
    pub funnel: CrawlFunnel,
}

impl CrawlFunnel {
    /// Fold one domain's crawl into the funnel — counts only, so the
    /// crawl's page bodies need not be retained. [`CrawlReport::new`] and
    /// the streaming pipeline share this accounting.
    pub fn absorb(&mut self, crawl: &DomainCrawl) {
        self.domains_total += 1;
        match &crawl.outcome {
            CrawlOutcome::Success => self.crawl_success += 1,
            CrawlOutcome::NoPrivacyPage => self.no_privacy_page += 1,
            CrawlOutcome::TransportFailure(_) => self.transport_failures += 1,
        }
        if crawl.policy_path_exists() {
            self.policy_path_hits += 1;
        }
        if crawl.privacy_path_exists() {
            self.privacy_path_hits += 1;
        }
        self.total_pages_crawled += crawl.pages.len();
        self.total_privacy_pages += crawl.privacy_pages().len();
        self.robots_skipped += crawl.robots_skipped;
        self.robots_blocked_domains += usize::from(crawl.robots_blocked);
        self.politeness_delay_ms = self
            .politeness_delay_ms
            .saturating_add(crawl.politeness_delay_ms);
        self.retries = self.retries.saturating_add(crawl.retries);
        self.salvaged_domains += usize::from(crawl.deadline_hit);
    }

    /// Merge another funnel's counts into this one. Every field is an
    /// additive tally, so workers can accumulate private funnels and merge
    /// them in any order with an identical result.
    pub fn merge(&mut self, other: &CrawlFunnel) {
        self.domains_total += other.domains_total;
        self.crawl_success += other.crawl_success;
        self.transport_failures += other.transport_failures;
        self.no_privacy_page += other.no_privacy_page;
        self.policy_path_hits += other.policy_path_hits;
        self.privacy_path_hits += other.privacy_path_hits;
        self.total_pages_crawled += other.total_pages_crawled;
        self.total_privacy_pages += other.total_privacy_pages;
        self.robots_skipped += other.robots_skipped;
        self.robots_blocked_domains += other.robots_blocked_domains;
        self.politeness_delay_ms = self
            .politeness_delay_ms
            .saturating_add(other.politeness_delay_ms);
        self.retries = self.retries.saturating_add(other.retries);
        self.salvaged_domains += other.salvaged_domains;
    }
}

impl CrawlReport {
    /// Build a report from per-domain crawls.
    pub fn new(crawls: Vec<DomainCrawl>) -> CrawlReport {
        let mut funnel = CrawlFunnel::default();
        for crawl in &crawls {
            funnel.absorb(crawl);
        }
        CrawlReport { crawls, funnel }
    }

    /// Domains whose crawl failed (for the §4 failure audit).
    pub fn failed_domains(&self) -> impl Iterator<Item = &DomainCrawl> {
        self.crawls.iter().filter(|c| !c.is_success())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{crawl_domain, CrawledPage, LinkSource};
    use aipan_net::fault::{FaultConfig, FaultInjector};
    use aipan_net::host::StaticSite;
    use aipan_net::http::{ContentType, Response, Status};
    use aipan_net::{Client, Internet, Url};

    fn fake_page(via: LinkSource, status: Status, path: &str, body: &str) -> CrawledPage {
        let url = Url::parse(&format!("https://x.com{path}")).unwrap();
        CrawledPage {
            url: url.clone(),
            final_url: url,
            status,
            content_type: ContentType::Html,
            body: body.to_string(),
            via,
        }
    }

    #[test]
    fn funnel_counts() {
        let ok = DomainCrawl {
            domain: "a.com".into(),
            outcome: CrawlOutcome::Success,
            pages: vec![
                fake_page(LinkSource::Homepage, Status::OK, "/", "home"),
                fake_page(
                    LinkSource::ProbePolicyPath,
                    Status::OK,
                    "/privacy-policy",
                    "p",
                ),
                fake_page(
                    LinkSource::ProbePrivacyPath,
                    Status::NOT_FOUND,
                    "/privacy",
                    "",
                ),
            ],
            fetch_attempts: 3,
            robots_skipped: 0,
            robots_blocked: false,
            politeness_delay_ms: 1000,
            retries: 2,
            deadline_hit: false,
        };
        let fail = DomainCrawl {
            domain: "b.com".into(),
            outcome: CrawlOutcome::TransportFailure("timeout".into()),
            pages: vec![],
            fetch_attempts: 1,
            robots_skipped: 0,
            robots_blocked: false,
            politeness_delay_ms: 0,
            retries: 3,
            deadline_hit: true,
        };
        let report = CrawlReport::new(vec![ok, fail]);
        let f = &report.funnel;
        assert_eq!(f.domains_total, 2);
        assert_eq!(f.crawl_success, 1);
        assert_eq!(f.transport_failures, 1);
        assert_eq!(f.policy_path_hits, 1);
        assert_eq!(f.privacy_path_hits, 0);
        assert_eq!(f.total_privacy_pages, 1);
        assert_eq!(f.retries, 5);
        assert_eq!(f.salvaged_domains, 1);
        assert!((f.success_rate() - 0.5).abs() < 1e-9);
        assert_eq!(report.failed_domains().count(), 1);
    }

    #[test]
    fn empty_report() {
        let report = CrawlReport::new(vec![]);
        assert_eq!(report.funnel.success_rate(), 0.0);
        assert_eq!(report.funnel.avg_pages_crawled(), 0.0);
    }

    #[test]
    fn end_to_end_small_site() {
        let net = Internet::new();
        net.register(
            "a.com",
            StaticSite::new()
                .page(
                    "/",
                    Response::html("<footer><a href=\"/privacy\">Privacy Policy</a></footer>"),
                )
                .page("/privacy", Response::html("<p>policy</p>")),
        );
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let crawl = crawl_domain(&client, "a.com");
        let report = CrawlReport::new(vec![crawl]);
        assert_eq!(report.funnel.crawl_success, 1);
        assert_eq!(report.funnel.privacy_path_hits, 1);
        assert!(report.funnel.avg_pages_crawled() >= 2.0);
    }
}
