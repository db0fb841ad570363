//! The single-domain crawl procedure (§3.1 navigation policy).

use crate::robots::RobotsPolicy;
use aipan_html::{links, PageLink, PageRegion};
use aipan_net::http::ContentType;
use aipan_net::retry::{FetchSession, RetryPolicy};
use aipan_net::{Client, Status, Url};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Maximum pages fetched per site (1 homepage + 3 footer links + 2 probes +
/// 5×5 header links = 31, as stated in §3.1).
pub const MAX_PAGES: usize = 31;
/// Footer privacy links followed from the homepage.
pub const MAX_FOOTER_LINKS: usize = 3;
/// Header privacy links followed from each seed page.
pub const MAX_HEADER_LINKS: usize = 5;

/// Link-target extensions that cannot be privacy-policy documents; the
/// crawler skips them before spending a fetch. The simulated internet only
/// serves text pages, so on simulated worlds this is a fetch-budget guard
/// rather than a behavior change.
const SKIP_EXTENSIONS: &[&str] = &[
    "css", "gif", "ico", "jpeg", "jpg", "js", "mp4", "png", "svg", "webp", "zip",
];

/// Whether a link target's file extension marks it as a non-document asset.
fn is_binary_link(url: &Url) -> bool {
    url.extension()
        .map_or(false, |ext| SKIP_EXTENSIONS.contains(&ext.as_str()))
}

/// The first `max` links in `region` whose text or target mentions
/// "privacy", in page order.
fn privacy_links(
    links: &[PageLink],
    region: PageRegion,
    max: usize,
) -> impl Iterator<Item = &PageLink> {
    links
        .iter()
        .filter(move |l| l.region == region && l.mentions("privacy"))
        .take(max)
}

/// How a page was discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkSource {
    /// The homepage itself.
    Homepage,
    /// A "privacy" link from the bottom of the homepage.
    FooterLink,
    /// The `/privacy-policy` probe.
    ProbePolicyPath,
    /// The `/privacy` probe.
    ProbePrivacyPath,
    /// A "privacy" link from the top of a seed page.
    HeaderLink,
}

/// One fetched page.
#[derive(Debug, Clone)]
pub struct CrawledPage {
    /// The URL requested.
    pub url: Url,
    /// The URL that served the response (post-redirects).
    pub final_url: Url,
    /// Response status.
    pub status: Status,
    /// Response content type.
    pub content_type: ContentType,
    /// Response body (HTML text or raw bytes as lossy UTF-8).
    pub body: String,
    /// How the page was discovered.
    pub via: LinkSource,
}

impl CrawledPage {
    /// Whether this is a *potential privacy page*: a successfully fetched
    /// non-homepage page.
    pub fn is_potential_privacy_page(&self) -> bool {
        self.via != LinkSource::Homepage && self.status.is_success()
    }
}

/// Outcome classification for a domain crawl.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlOutcome {
    /// At least one potential privacy page was fetched with status < 400.
    Success,
    /// The homepage was reachable but no privacy page was found.
    NoPrivacyPage,
    /// The homepage fetch failed at the transport level.
    TransportFailure(String),
}

/// Per-crawl resilience knobs: the retry policy behind every fetch plus an
/// optional deadline on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrawlOptions {
    /// Retry/backoff/breaker policy for this crawl's fetch session.
    pub retry: RetryPolicy,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
    /// Per-domain crawl deadline in simulated milliseconds. When the
    /// session clock (latency + backoff + politeness) passes it, the crawl
    /// stops fetching and salvages the pages collected so far.
    pub deadline_ms: Option<u64>,
}

impl Default for CrawlOptions {
    fn default() -> Self {
        CrawlOptions {
            retry: RetryPolicy::default(),
            seed: 0,
            deadline_ms: None,
        }
    }
}

impl CrawlOptions {
    /// The pre-resilience behavior: one attempt per fetch, no deadline.
    pub fn no_retry() -> CrawlOptions {
        CrawlOptions {
            retry: RetryPolicy::no_retry(),
            ..CrawlOptions::default()
        }
    }
}

/// The result of crawling one domain.
#[derive(Debug, Clone)]
pub struct DomainCrawl {
    /// The crawled domain.
    pub domain: String,
    /// Outcome classification.
    pub outcome: CrawlOutcome,
    /// All fetched pages (including the homepage), in fetch order.
    pub pages: Vec<CrawledPage>,
    /// Number of fetch attempts (successful or not). Retries are counted
    /// separately in [`DomainCrawl::retries`].
    pub fetch_attempts: usize,
    /// Fetches skipped because robots.txt disallowed the path.
    pub robots_skipped: usize,
    /// Whether robots.txt disallowed the entire site.
    pub robots_blocked: bool,
    /// Simulated politeness delay honored across the crawl (ms), from
    /// robots `Crawl-delay` (default 500 ms between fetches), saturating
    /// at `u64::MAX`.
    pub politeness_delay_ms: u64,
    /// Transport retries spent by this crawl's fetch session.
    pub retries: u64,
    /// Whether the crawl hit its deadline and salvaged a partial page set.
    pub deadline_hit: bool,
}

impl DomainCrawl {
    /// Whether the crawl succeeded (paper definition).
    pub fn is_success(&self) -> bool {
        self.outcome == CrawlOutcome::Success
    }

    /// Potential privacy pages, deduplicated by final URL and body content.
    pub fn privacy_pages(&self) -> Vec<&CrawledPage> {
        let mut seen_urls = HashSet::new();
        let mut seen_bodies = HashSet::new();
        let mut out = Vec::new();
        for page in &self.pages {
            if !page.is_potential_privacy_page() {
                continue;
            }
            if !seen_urls.insert(page.final_url.clone()) {
                continue;
            }
            let body_key = hash_body(&page.body);
            if !seen_bodies.insert(body_key) {
                continue;
            }
            out.push(page);
        }
        out
    }

    /// Whether the `/privacy-policy` probe hit an existing page.
    pub fn policy_path_exists(&self) -> bool {
        self.probe_hit(LinkSource::ProbePolicyPath)
    }

    /// Whether the `/privacy` probe hit an existing page.
    pub fn privacy_path_exists(&self) -> bool {
        self.probe_hit(LinkSource::ProbePrivacyPath)
    }

    fn probe_hit(&self, via: LinkSource) -> bool {
        self.pages
            .iter()
            .any(|p| p.via == via && p.status.is_success())
    }
}

fn hash_body(body: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Default politeness delay between fetches when robots declares none.
pub const DEFAULT_POLITENESS_MS: u64 = 500;

/// The crawler's user-agent string (matched against robots groups).
pub const USER_AGENT: &str = "aipan-crawler/0.1 (headless)";

/// Mutable crawl bookkeeping threaded through the fetch stages.
struct CrawlState {
    pages: Vec<CrawledPage>,
    fetch_attempts: usize,
    robots_skipped: usize,
    deadline_hit: bool,
    delay_per_fetch: u64,
}

impl CrawlState {
    fn new() -> CrawlState {
        CrawlState {
            pages: Vec::new(),
            fetch_attempts: 0,
            robots_skipped: 0,
            deadline_hit: false,
            delay_per_fetch: DEFAULT_POLITENESS_MS,
        }
    }

    /// Whether the simulated clock has passed the crawl deadline.
    fn over_deadline(&mut self, session: &FetchSession, options: &CrawlOptions) -> bool {
        if let Some(deadline) = options.deadline_ms {
            if session.elapsed_ms() >= deadline {
                self.deadline_hit = true;
                return true;
            }
        }
        false
    }

    /// Count one logical fetch, honoring politeness between fetches on the
    /// session clock.
    fn before_fetch(&mut self, session: &mut FetchSession) {
        if self.fetch_attempts > 0 {
            session.advance(self.delay_per_fetch);
        }
        self.fetch_attempts += 1;
    }

    fn finish(
        self,
        domain: &str,
        outcome: CrawlOutcome,
        robots_blocked: bool,
        retries: u64,
    ) -> DomainCrawl {
        DomainCrawl {
            domain: domain.to_string(),
            outcome,
            politeness_delay_ms: self
                .delay_per_fetch
                .saturating_mul(self.fetch_attempts.saturating_sub(1) as u64),
            pages: self.pages,
            fetch_attempts: self.fetch_attempts,
            robots_skipped: self.robots_skipped,
            robots_blocked,
            retries,
            deadline_hit: self.deadline_hit,
        }
    }
}

/// Crawl one domain with the §3.1 navigation policy, honoring robots.txt,
/// using the default retry policy and no deadline.
pub fn crawl_domain(client: &Client, domain: &str) -> DomainCrawl {
    crawl_domain_with(client, domain, &CrawlOptions::default())
}

/// Crawl one domain with explicit resilience options. All fetches go
/// through one [`FetchSession`] (retry/backoff/breaker on a simulated
/// clock); if the deadline passes mid-crawl, the pages fetched so far are
/// salvaged instead of discarding the domain.
pub fn crawl_domain_with(client: &Client, domain: &str, options: &CrawlOptions) -> DomainCrawl {
    let mut state = CrawlState::new();
    let mut session = client.session(options.seed, options.retry);
    let mut visited: HashSet<Url> = HashSet::new();

    let home_url = match Url::parse(&format!("https://{domain}/")) {
        Ok(u) => u,
        Err(e) => {
            return state.finish(
                domain,
                CrawlOutcome::TransportFailure(format!("bad domain: {e}")),
                false,
                0,
            )
        }
    };

    // 0. robots.txt (not counted as a crawled page).
    let robots = fetch_robots(&mut session, &home_url);
    state.delay_per_fetch = robots
        .crawl_delay_ms(USER_AGENT)
        .unwrap_or(DEFAULT_POLITENESS_MS);
    if robots.blocks_everything(USER_AGENT) {
        let retries = session.total_retries();
        return state.finish(domain, CrawlOutcome::NoPrivacyPage, true, retries);
    }
    let allowed = |url: &Url| robots.is_allowed(USER_AGENT, &url.path);

    // 1. Homepage.
    state.before_fetch(&mut session);
    let home = match session.fetch(&home_url) {
        Ok(res) => res,
        Err(e) => {
            let retries = session.total_retries();
            return state.finish(
                domain,
                CrawlOutcome::TransportFailure(e.to_string()),
                false,
                retries,
            );
        }
    };
    visited.insert(home_url.clone());
    visited.insert(home.final_url.clone());
    let home_ok = home.response.status.is_success();
    let home_page = CrawledPage {
        url: home_url.clone(),
        final_url: home.final_url,
        status: home.response.status,
        content_type: home.response.content_type,
        body: home.response.body_text(),
        via: LinkSource::Homepage,
    };
    let home_links = if home_ok {
        links(&home_page.body)
    } else {
        Vec::new()
    };
    state.pages.push(home_page);

    if !home_ok {
        let retries = session.total_retries();
        return state.finish(domain, CrawlOutcome::NoPrivacyPage, false, retries);
    }

    // 2. Up to three "privacy" links from the bottom of the homepage.
    let mut seed_targets: Vec<(Url, LinkSource)> = Vec::with_capacity(MAX_FOOTER_LINKS + 2);
    for link in privacy_links(&home_links, PageRegion::Footer, MAX_FOOTER_LINKS) {
        if let Ok(url) = home_url.join(&link.href) {
            if url.same_site(&home_url) && !is_binary_link(&url) {
                seed_targets.push((url, LinkSource::FooterLink));
            }
        }
    }
    // 3. Standard path probes.
    if let Ok(u) = home_url.join("/privacy-policy") {
        seed_targets.push((u, LinkSource::ProbePolicyPath));
    }
    if let Ok(u) = home_url.join("/privacy") {
        seed_targets.push((u, LinkSource::ProbePrivacyPath));
    }

    // Fetch the seed pages; collect header links from each.
    let mut header_targets: Vec<(Url, LinkSource)> = Vec::with_capacity(seed_targets.len());
    for (url, via) in seed_targets {
        if state.pages.len() >= MAX_PAGES || state.over_deadline(&session, options) {
            break;
        }
        // Footer-link targets are skipped if already visited; the two path
        // probes are deliberately always attempted (and recorded) even when
        // a footer link pointed at the same URL — the probe-hit statistics
        // of §3.1 are defined over the probes themselves. privacy_pages()
        // deduplicates by final URL, so annotation is unaffected.
        if visited.contains(&url)
            && !matches!(
                via,
                LinkSource::ProbePolicyPath | LinkSource::ProbePrivacyPath
            )
        {
            continue;
        }
        if !allowed(&url) {
            state.robots_skipped += 1;
            continue;
        }
        state.before_fetch(&mut session);
        let fetched = match session.fetch(&url) {
            Ok(res) => res,
            Err(_) => continue,
        };
        visited.insert(url.clone());
        visited.insert(fetched.final_url.clone());
        let body = fetched.response.body_text();
        if fetched.response.status.is_success()
            && fetched.response.content_type == ContentType::Html
        {
            let page_links = links(&body);
            for link in privacy_links(&page_links, PageRegion::Header, MAX_HEADER_LINKS) {
                if let Ok(target) = fetched.final_url.join(&link.href) {
                    if target.same_site(&home_url)
                        && !is_binary_link(&target)
                        && !visited.contains(&target)
                    {
                        header_targets.push((target, LinkSource::HeaderLink));
                    }
                }
            }
        }
        state.pages.push(CrawledPage {
            url,
            final_url: fetched.final_url,
            status: fetched.response.status,
            content_type: fetched.response.content_type,
            body,
            via,
        });
    }

    // 4. Header "privacy" links from the seed pages.
    for (url, via) in header_targets {
        if state.pages.len() >= MAX_PAGES || state.over_deadline(&session, options) {
            break;
        }
        if visited.contains(&url) {
            continue;
        }
        if !allowed(&url) {
            state.robots_skipped += 1;
            continue;
        }
        state.before_fetch(&mut session);
        let fetched = match session.fetch(&url) {
            Ok(res) => res,
            Err(_) => continue,
        };
        visited.insert(url.clone());
        visited.insert(fetched.final_url.clone());
        state.pages.push(CrawledPage {
            url,
            final_url: fetched.final_url,
            status: fetched.response.status,
            content_type: fetched.response.content_type,
            body: fetched.response.body_text(),
            via,
        });
    }

    let outcome = if state.pages.iter().any(|p| p.is_potential_privacy_page()) {
        CrawlOutcome::Success
    } else {
        CrawlOutcome::NoPrivacyPage
    };
    let retries = session.total_retries();
    state.finish(domain, outcome, false, retries)
}

/// Fetch and parse robots.txt; any failure (absent file, transport error,
/// non-HTML content type aside) yields the allow-everything policy.
fn fetch_robots(session: &mut FetchSession, home_url: &Url) -> RobotsPolicy {
    let Ok(robots_url) = home_url.join("/robots.txt") else {
        return RobotsPolicy::default();
    };
    match session.fetch(&robots_url) {
        Ok(res) if res.response.status.is_success() => {
            RobotsPolicy::parse(&res.response.body_text())
        }
        _ => RobotsPolicy::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrawlFunnel;
    use aipan_net::fault::{FaultConfig, FaultInjector};
    use aipan_net::host::StaticSite;
    use aipan_net::http::Response;
    use aipan_net::Internet;

    fn client_for(net: Internet) -> Client {
        Client::new(net, FaultInjector::new(0, FaultConfig::none()))
    }

    fn home_with_footer(links: &str) -> Response {
        Response::html(format!(
            "<html><body><main><p>welcome to our homepage</p></main>\
             <footer>{links}</footer></body></html>"
        ))
    }

    #[test]
    fn binary_asset_links_are_recognized() {
        let binary = Url::parse("https://a.com/assets/privacy-banner.PNG").unwrap();
        assert!(is_binary_link(&binary), "case-insensitive extension match");
        for path in [
            "/privacy-policy",
            "/privacy.html",
            "/privacy.pdf",
            "/v2.1/privacy",
        ] {
            let url = Url::parse(&format!("https://a.com{path}")).unwrap();
            assert!(!is_binary_link(&url), "{path} must stay crawlable");
        }
    }

    #[test]
    fn binary_footer_links_are_not_fetched() {
        let net = Internet::new();
        net.register(
            "a.com",
            StaticSite::new().page(
                "/",
                home_with_footer("<a href=\"/privacy-seal.png\">Privacy Seal</a>"),
            ),
        );
        let crawl = crawl_domain(&client_for(net), "a.com");
        assert!(
            crawl.pages.iter().all(|p| p.via != LinkSource::FooterLink),
            "the .png link must be skipped before fetching"
        );
    }

    #[test]
    fn finds_policy_via_footer_link() {
        let net = Internet::new();
        net.register(
            "a.com",
            StaticSite::new()
                .page(
                    "/",
                    home_with_footer("<a href=\"/legal/pp\">Privacy Policy</a>"),
                )
                .page(
                    "/legal/pp",
                    Response::html("<h1>Privacy</h1><p>policy text</p>"),
                ),
        );
        let crawl = crawl_domain(&client_for(net), "a.com");
        assert!(crawl.is_success());
        assert!(crawl
            .pages
            .iter()
            .any(|p| p.via == LinkSource::FooterLink && p.status.is_success()));
        // Probes 404 but were attempted.
        assert!(!crawl.policy_path_exists());
        assert!(!crawl.privacy_path_exists());
    }

    #[test]
    fn finds_policy_via_probe_without_any_link() {
        let net = Internet::new();
        net.register(
            "b.com",
            StaticSite::new()
                .page("/", home_with_footer(""))
                .page("/privacy-policy", Response::html("<p>the policy</p>")),
        );
        let crawl = crawl_domain(&client_for(net), "b.com");
        assert!(crawl.is_success());
        assert!(crawl.policy_path_exists());
        assert!(!crawl.privacy_path_exists());
    }

    #[test]
    fn follows_header_links_from_privacy_center() {
        let net = Internet::new();
        net.register(
            "c.com",
            StaticSite::new()
                .page(
                    "/",
                    home_with_footer("<a href=\"/privacy\">Privacy Center</a>"),
                )
                .page(
                    "/privacy",
                    Response::html(
                        "<header><a href=\"/privacy/full\">Privacy Policy</a></header>\
                         <main><p>center</p></main>",
                    ),
                )
                .page("/privacy/full", Response::html("<p>full policy text</p>")),
        );
        let crawl = crawl_domain(&client_for(net), "c.com");
        assert!(crawl.is_success());
        let deep = crawl
            .pages
            .iter()
            .find(|p| p.via == LinkSource::HeaderLink)
            .expect("followed header link");
        assert_eq!(deep.final_url.path, "/privacy/full");
    }

    #[test]
    fn no_privacy_page_when_nothing_exists() {
        let net = Internet::new();
        net.register("d.com", StaticSite::new().page("/", home_with_footer("")));
        let crawl = crawl_domain(&client_for(net), "d.com");
        assert_eq!(crawl.outcome, CrawlOutcome::NoPrivacyPage);
        assert!(!crawl.is_success());
    }

    #[test]
    fn transport_failure_reported() {
        let net = Internet::new(); // d.com unregistered → DNS failure.
        let crawl = crawl_domain(&client_for(net), "missing.com");
        assert!(matches!(crawl.outcome, CrawlOutcome::TransportFailure(_)));
    }

    #[test]
    fn javascript_links_ignored() {
        let net = Internet::new();
        net.register(
            "e.com",
            StaticSite::new().page(
                "/",
                home_with_footer("<a href=\"javascript:openPrivacy()\">Privacy Policy</a>"),
            ),
        );
        let crawl = crawl_domain(&client_for(net), "e.com");
        assert_eq!(crawl.outcome, CrawlOutcome::NoPrivacyPage);
    }

    #[test]
    fn offsite_links_ignored() {
        let net = Internet::new();
        net.register(
            "f.com",
            StaticSite::new().page(
                "/",
                home_with_footer("<a href=\"https://other.com/privacy\">Privacy Policy</a>"),
            ),
        );
        net.register(
            "other.com",
            StaticSite::new().page("/privacy", Response::html("x")),
        );
        let crawl = crawl_domain(&client_for(net), "f.com");
        assert_eq!(crawl.outcome, CrawlOutcome::NoPrivacyPage);
    }

    #[test]
    fn footer_links_capped_at_three() {
        let net = Internet::new();
        let footer: String = (0..6)
            .map(|i| format!("<a href=\"/privacy{i}\">Privacy {i}</a>"))
            .collect();
        let mut site = StaticSite::new().page("/", home_with_footer(&footer));
        for i in 0..6 {
            site = site.page(&format!("/privacy{i}"), Response::html("<p>p</p>"));
        }
        net.register("g.com", site);
        let crawl = crawl_domain(&client_for(net), "g.com");
        let footer_fetches = crawl
            .pages
            .iter()
            .filter(|p| p.via == LinkSource::FooterLink)
            .count();
        assert_eq!(footer_fetches, MAX_FOOTER_LINKS);
    }

    #[test]
    fn page_budget_never_exceeded() {
        // A pathological site where every page links five more privacy pages.
        let net = Internet::new();
        let mut site = StaticSite::new();
        let footer: String = (0..3)
            .map(|i| format!("<a href=\"/privacy-hub{i}\">Privacy hub {i}</a>"))
            .collect();
        site = site.page("/", home_with_footer(&footer));
        for i in 0..3 {
            let header: String = (0..5)
                .map(|j| format!("<a href=\"/privacy-leaf{i}{j}\">Privacy leaf</a>"))
                .collect();
            site = site.page(
                &format!("/privacy-hub{i}"),
                Response::html(format!("<header>{header}</header><main><p>hub</p></main>")),
            );
            for j in 0..5 {
                site = site.page(
                    &format!("/privacy-leaf{i}{j}"),
                    Response::html("<p>leaf</p>"),
                );
            }
        }
        net.register("h.com", site);
        let crawl = crawl_domain(&client_for(net), "h.com");
        assert!(
            crawl.pages.len() <= MAX_PAGES,
            "{} pages",
            crawl.pages.len()
        );
        assert!(crawl.fetch_attempts <= MAX_PAGES + 2);
    }

    #[test]
    fn privacy_pages_deduplicated_by_redirect_target() {
        let net = Internet::new();
        net.register(
            "i.com",
            StaticSite::new()
                .page(
                    "/",
                    home_with_footer("<a href=\"/privacy-policy\">Privacy Policy</a>"),
                )
                .page("/privacy-policy", Response::html("<p>one true policy</p>"))
                .page(
                    "/privacy",
                    Response::redirect(Status::MOVED_PERMANENTLY, "/privacy-policy"),
                ),
        );
        let crawl = crawl_domain(&client_for(net), "i.com");
        assert!(crawl.policy_path_exists());
        assert!(crawl.privacy_path_exists());
        assert_eq!(
            crawl.privacy_pages().len(),
            1,
            "redirected duplicate merged"
        );
    }

    #[test]
    fn robots_disallow_all_blocks_crawl() {
        let net = Internet::new();
        net.register(
            "r.com",
            StaticSite::new()
                .page(
                    "/robots.txt",
                    Response {
                        status: Status::OK,
                        content_type: ContentType::Plain,
                        body: "User-agent: *\nDisallow: /\n".into(),
                        location: None,
                    },
                )
                .page(
                    "/",
                    home_with_footer("<a href=\"/privacy\">Privacy Policy</a>"),
                )
                .page("/privacy", Response::html("<p>policy</p>")),
        );
        let crawl = crawl_domain(&client_for(net), "r.com");
        assert!(crawl.robots_blocked);
        assert_eq!(crawl.outcome, CrawlOutcome::NoPrivacyPage);
        assert!(crawl.pages.is_empty(), "nothing may be fetched");
    }

    #[test]
    fn robots_path_rules_skip_disallowed_targets() {
        let net = Internet::new();
        net.register(
            "s.com",
            StaticSite::new()
                .page(
                    "/robots.txt",
                    Response {
                        status: Status::OK,
                        content_type: ContentType::Plain,
                        body: "User-agent: *\nDisallow: /privacy-policy\nCrawl-delay: 2\n".into(),
                        location: None,
                    },
                )
                .page(
                    "/",
                    home_with_footer("<a href=\"/privacy\">Privacy Policy</a>"),
                )
                .page("/privacy", Response::html("<p>the policy text</p>"))
                .page("/privacy-policy", Response::html("<p>forbidden copy</p>")),
        );
        let crawl = crawl_domain(&client_for(net), "s.com");
        assert!(crawl.is_success(), "allowed path still crawled");
        assert!(crawl.robots_skipped >= 1, "disallowed probe skipped");
        assert!(
            crawl
                .pages
                .iter()
                .all(|p| p.final_url.path != "/privacy-policy"),
            "disallowed path must not be fetched"
        );
        // Crawl-delay: 2 → 2000 ms between fetches.
        assert!(crawl.politeness_delay_ms >= 2000);
    }

    #[test]
    fn hostile_crawl_delay_saturates_instead_of_overflowing() {
        // `1e300` s is past `u64` milliseconds and saturates, `inf` counts
        // as no delay, and `1e15` s (1e18 ms) fits one crawl but not eight
        // summed in the funnel. None may overflow the session clock, a
        // crawl's politeness total or the funnel's.
        let crawl_with_delay = |value: &str| {
            let net = Internet::new();
            net.register(
                "x.com",
                StaticSite::new()
                    .page(
                        "/robots.txt",
                        Response {
                            status: Status::OK,
                            content_type: ContentType::Plain,
                            body: format!("User-agent: *\nCrawl-delay: {value}\n").into(),
                            location: None,
                        },
                    )
                    .page(
                        "/",
                        home_with_footer("<a href=\"/privacy\">Privacy Policy</a>"),
                    )
                    .page("/privacy", Response::html("<p>policy</p>"))
                    .page("/privacy-policy", Response::html("<p>policy</p>")),
            );
            crawl_domain(&client_for(net), "x.com")
        };
        let mut funnel = CrawlFunnel::default();
        for (value, per_fetch) in [
            ("1e300", u64::MAX),
            ("inf", DEFAULT_POLITENESS_MS),
            ("1e15", 1_000_000_000_000_000_000),
        ] {
            let crawl = crawl_with_delay(value);
            assert!(crawl.is_success(), "{value}: {:?}", crawl.outcome);
            // Homepage, footer link and both probes: three waits.
            assert_eq!(crawl.fetch_attempts, 4, "{value}");
            assert_eq!(
                crawl.politeness_delay_ms,
                per_fetch.saturating_mul(3),
                "{value}"
            );
            if value == "1e15" {
                for _ in 0..8 {
                    funnel.absorb(&crawl);
                }
            }
        }
        assert_eq!(funnel.politeness_delay_ms, u64::MAX);
        let mut merged = funnel.clone();
        merged.merge(&funnel);
        assert_eq!(merged.politeness_delay_ms, u64::MAX);
    }

    #[test]
    fn missing_robots_allows_everything() {
        let net = Internet::new();
        net.register(
            "t.com",
            StaticSite::new()
                .page("/", home_with_footer(""))
                .page("/privacy", Response::html("<p>p</p>")),
        );
        let crawl = crawl_domain(&client_for(net), "t.com");
        assert!(crawl.is_success());
        assert!(!crawl.robots_blocked);
        assert_eq!(crawl.robots_skipped, 0);
    }

    #[test]
    fn retries_recover_domains_the_no_retry_baseline_loses() {
        // The homepage resets for a burst of 2 attempts: the default policy
        // (3 attempts) recovers, the no-retry baseline reports a transport
        // failure. This is the success-rate improvement in miniature.
        let net = Internet::new();
        net.register(
            "flaky.com",
            StaticSite::new()
                .page("/", home_with_footer("<a href=\"/privacy\">Privacy</a>"))
                .page("/privacy", Response::html("<p>policy</p>")),
        );
        let cfg = FaultConfig {
            conn_reset: 1.0,
            burst_max: 2,
            ..FaultConfig::none()
        };
        let retrying = Client::new(net.clone(), FaultInjector::new(0, cfg));
        let crawl = crawl_domain_with(&retrying, "flaky.com", &CrawlOptions::default());
        assert!(crawl.is_success(), "{:?}", crawl.outcome);
        assert!(crawl.retries >= 1, "retries={}", crawl.retries);

        let baseline = Client::new(net, FaultInjector::new(0, cfg));
        let crawl = crawl_domain_with(&baseline, "flaky.com", &CrawlOptions::no_retry());
        assert!(
            matches!(crawl.outcome, CrawlOutcome::TransportFailure(_)),
            "{:?}",
            crawl.outcome
        );
        assert_eq!(crawl.retries, 0);
    }

    #[test]
    fn deadline_salvages_partial_page_set() {
        // Every fetch costs 1000 ms; a 1500 ms deadline lets the homepage
        // and the first footer target through robots+homepage latency, then
        // stops. The salvaged set still counts as a crawl result.
        let net = Internet::new();
        let mut site = StaticSite::new().page(
            "/",
            home_with_footer(
                "<a href=\"/privacy0\">Privacy 0</a>\
                 <a href=\"/privacy1\">Privacy 1</a>\
                 <a href=\"/privacy2\">Privacy 2</a>",
            ),
        );
        for i in 0..3 {
            site = site.page(&format!("/privacy{i}"), Response::html("<p>p</p>"));
        }
        net.register("slow.com", site);
        let cfg = FaultConfig {
            base_latency_ms: 1000,
            ..FaultConfig::none()
        };
        let client = Client::new(net.clone(), FaultInjector::new(0, cfg));
        let options = CrawlOptions {
            deadline_ms: Some(1_500),
            ..CrawlOptions::default()
        };
        let crawl = crawl_domain_with(&client, "slow.com", &options);
        assert!(crawl.deadline_hit, "deadline should have fired");
        assert!(
            crawl.pages.len() < 6,
            "crawl should stop early, got {} pages",
            crawl.pages.len()
        );
        assert!(
            !crawl.pages.is_empty(),
            "partial pages must be salvaged, not discarded"
        );

        // Without a deadline the same site yields the full page set.
        let unbounded = Client::new(net, FaultInjector::new(0, cfg));
        let full = crawl_domain_with(&unbounded, "slow.com", &CrawlOptions::default());
        assert!(!full.deadline_hit);
        assert!(full.pages.len() > crawl.pages.len());
    }

    #[test]
    fn blocked_site_yields_no_success() {
        let net = Internet::new();
        net.register(
            "j.com",
            StaticSite::new().page("/", home_with_footer("<a href=\"/privacy\">Privacy</a>")),
        );
        let cfg = FaultConfig {
            block_crawlers: 1.0,
            ..FaultConfig::none()
        };
        let client = Client::new(net, FaultInjector::new(0, cfg));
        let crawl = crawl_domain(&client, "j.com");
        // The bot wall serves 403s: homepage not successful → no privacy page.
        assert_eq!(crawl.outcome, CrawlOutcome::NoPrivacyPage);
    }
}
