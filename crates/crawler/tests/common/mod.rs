//! Helpers shared by the crawler's integration tests.

use aipan_crawler::DomainCrawl;

/// A stable, comparable fingerprint of a crawl result (DomainCrawl holds
/// page bodies and is deliberately not PartialEq).
pub fn fingerprint(crawls: &[DomainCrawl]) -> Vec<String> {
    crawls
        .iter()
        .map(|c| {
            let pages: Vec<String> = c
                .pages
                .iter()
                .map(|p| {
                    format!(
                        "{}|{}|{:?}|{}",
                        p.final_url.path,
                        p.status.0,
                        p.via,
                        p.body.len()
                    )
                })
                .collect();
            format!(
                "{} {:?} attempts={} retries={} robots={}/{} delay={} pages=[{}]",
                c.domain,
                c.outcome,
                c.fetch_attempts,
                c.retries,
                c.robots_skipped,
                c.robots_blocked,
                c.politeness_delay_ms,
                pages.join(", ")
            )
        })
        .collect()
}
