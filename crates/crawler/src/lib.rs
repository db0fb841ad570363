//! # aipan-crawler
//!
//! The privacy-page crawler — AIPAN-RS's stand-in for the paper's
//! Crawlee/Playwright crawler, implementing the §3.1 navigation policy
//! exactly:
//!
//! 1. fetch the homepage;
//! 2. follow up to **three** links containing the word "privacy" from the
//!    *bottom* of the homepage;
//! 3. probe `/privacy-policy` and `/privacy`;
//! 4. follow up to **five** links containing "privacy" from the *top* of
//!    each of those five pages (finding policies behind dedicated privacy
//!    center pages);
//! 5. never fetch more than **31** pages per site.
//!
//! A domain crawl *succeeds* when at least one potential privacy page
//! (a non-homepage page reached via the heuristics) returns an HTTP status
//! below 400.
//!
//! The crawler reads only anchors from a page, so it takes them from
//! [`aipan_html::links`], the links-only pass of the renderer: the same
//! links, line numbers and regions as `aipan_html::extract`, without
//! laying out any text. A link is followed when its text or target
//! mentions "privacy" ([`aipan_html::PageLink::mentions`]). Each page is
//! rendered to text only later, by the pipeline's extract stage, and only
//! if it is a privacy page.
//!
//! The crawler honors robots.txt ([`robots`]): it fetches and parses the
//! exclusion policy before crawling, skips disallowed paths, and accounts
//! the politeness delay implied by `Crawl-delay`.
//!
//! Modules: [`crawl`] (single-domain procedure), [`pool`] (the one
//! supervised worker pool behind every whole-universe crawl and streaming
//! run: scoped threads sharing an atomic domain cursor, per-domain panic
//! isolation), [`report`] (funnel accounting matching §3.1/§4).

#![warn(missing_docs)]

pub mod crawl;
pub mod pool;
pub mod report;
pub mod robots;

pub use crawl::{
    crawl_domain, crawl_domain_with, CrawlOptions, CrawlOutcome, CrawledPage, DomainCrawl,
    LinkSource, MAX_PAGES,
};
pub use pool::{
    crawl_all, crawl_all_with, stream_all_supervised, DeadLetter, FailStage, PoolConfig,
    SupervisedOutcome, SupervisorOptions,
};
pub use report::{CrawlFunnel, CrawlReport};
pub use robots::RobotsPolicy;
