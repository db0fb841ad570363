//! robots.txt parsing and evaluation.
//!
//! The paper's crawler (Crawlee) honors robots exclusion; so does ours. The
//! parser implements the de-facto standard: user-agent groups, `Disallow`
//! and `Allow` prefix rules (longest match wins, `Allow` beats `Disallow`
//! on ties), and `Crawl-delay`.

use serde::{Deserialize, Serialize};

/// One user-agent group's rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Group {
    /// The group's user agents, in ASCII lower case.
    agents: Vec<String>,
    allow: Vec<String>,
    disallow: Vec<String>,
    crawl_delay_ms: Option<u64>,
}

impl Group {
    fn is_wildcard(&self) -> bool {
        self.agents.iter().any(|a| a == "*")
    }

    fn matches_agent(&self, user_agent: &str) -> bool {
        self.agents
            .iter()
            .any(|a| a == "*" || contains_ignore_ascii_case(user_agent, a))
    }
}

/// Whether `needle` occurs in `haystack`, comparing ASCII letters without
/// regard to case.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// A parsed robots.txt policy.
///
/// ```
/// use aipan_crawler::RobotsPolicy;
///
/// let policy = RobotsPolicy::parse("User-agent: *\nDisallow: /admin\nCrawl-delay: 1");
/// assert!(policy.is_allowed("aipan-crawler", "/privacy-policy"));
/// assert!(!policy.is_allowed("aipan-crawler", "/admin/console"));
/// assert_eq!(policy.crawl_delay_ms("aipan-crawler"), Some(1000));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RobotsPolicy {
    groups: Vec<Group>,
}

impl RobotsPolicy {
    /// Parse robots.txt content. Unknown directives are ignored; a missing
    /// or empty file allows everything.
    pub fn parse(content: &str) -> RobotsPolicy {
        // Real robots.txt files carry a handful of agent groups.
        let mut groups: Vec<Group> = Vec::with_capacity(4);
        let mut current: Option<Group> = None;
        let mut last_was_agent = false;
        for raw_line in content.lines() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            if key.eq_ignore_ascii_case("user-agent") {
                if last_was_agent {
                    // Consecutive user-agent lines share one group.
                    if let Some(g) = current.as_mut() {
                        g.agents.push(value.to_ascii_lowercase());
                    }
                } else {
                    if let Some(g) = current.take() {
                        groups.push(g);
                    }
                    current = Some(Group {
                        agents: vec![value.to_ascii_lowercase()],
                        ..Group::default()
                    });
                }
                last_was_agent = true;
                continue;
            }
            last_was_agent = false;
            let Some(g) = current.as_mut() else {
                continue;
            };
            if key.eq_ignore_ascii_case("disallow") {
                if !value.is_empty() {
                    g.disallow.push(value.to_string());
                }
            } else if key.eq_ignore_ascii_case("allow") {
                if !value.is_empty() {
                    g.allow.push(value.to_string());
                }
            } else if key.eq_ignore_ascii_case("crawl-delay") {
                // A delay that is not a finite, non-negative number (`inf`,
                // `NaN`, `-1`) counts as absent, like an unparseable one;
                // one too long for `u64` milliseconds saturates.
                match value.parse::<f64>() {
                    Ok(secs) if secs.is_finite() && secs >= 0.0 => {
                        g.crawl_delay_ms = Some((secs * 1000.0) as u64);
                    }
                    _ => {}
                }
            }
        }
        if let Some(g) = current.take() {
            groups.push(g);
        }
        RobotsPolicy { groups }
    }

    /// The group applying to `user_agent`: the first specific match, else
    /// the `*` group, else none.
    fn group_for(&self, user_agent: &str) -> Option<&Group> {
        self.groups
            .iter()
            .find(|g| g.matches_agent(user_agent) && !g.is_wildcard())
            .or_else(|| self.groups.iter().find(|g| g.is_wildcard()))
    }

    /// Whether `user_agent` may fetch `path`. Longest matching rule wins;
    /// `Allow` beats `Disallow` on equal length.
    pub fn is_allowed(&self, user_agent: &str, path: &str) -> bool {
        let Some(group) = self.group_for(user_agent) else {
            return true;
        };
        let best_disallow = group
            .disallow
            .iter()
            .filter(|rule| path.starts_with(rule.as_str()))
            .map(|rule| rule.len())
            .max();
        let best_allow = group
            .allow
            .iter()
            .filter(|rule| path.starts_with(rule.as_str()))
            .map(|rule| rule.len())
            .max();
        match (best_allow, best_disallow) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(d)) => a >= d,
        }
    }

    /// Crawl delay for `user_agent`, if declared.
    pub fn crawl_delay_ms(&self, user_agent: &str) -> Option<u64> {
        self.group_for(user_agent).and_then(|g| g.crawl_delay_ms)
    }

    /// Whether everything is disallowed for `user_agent`.
    pub fn blocks_everything(&self, user_agent: &str) -> bool {
        !self.is_allowed(user_agent, "/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UA: &str = "aipan-crawler/0.1 (headless)";

    #[test]
    fn empty_allows_everything() {
        let p = RobotsPolicy::parse("");
        assert!(p.is_allowed(UA, "/privacy"));
        assert!(!p.blocks_everything(UA));
        assert_eq!(p.crawl_delay_ms(UA), None);
    }

    #[test]
    fn disallow_all() {
        let p = RobotsPolicy::parse("User-agent: *\nDisallow: /");
        assert!(!p.is_allowed(UA, "/"));
        assert!(!p.is_allowed(UA, "/privacy-policy"));
        assert!(p.blocks_everything(UA));
    }

    #[test]
    fn prefix_rules() {
        let p = RobotsPolicy::parse("User-agent: *\nDisallow: /admin\nDisallow: /cart");
        assert!(!p.is_allowed(UA, "/admin/settings"));
        assert!(!p.is_allowed(UA, "/cart"));
        assert!(p.is_allowed(UA, "/privacy"));
    }

    #[test]
    fn allow_overrides_disallow_when_longer_or_equal() {
        let p = RobotsPolicy::parse("User-agent: *\nDisallow: /legal\nAllow: /legal/privacy");
        assert!(!p.is_allowed(UA, "/legal/terms"));
        assert!(p.is_allowed(UA, "/legal/privacy-notice"));
    }

    #[test]
    fn specific_agent_group_preferred() {
        let p = RobotsPolicy::parse(
            "User-agent: aipan-crawler\nDisallow: /private\n\nUser-agent: *\nDisallow: /",
        );
        assert!(p.is_allowed(UA, "/privacy"));
        assert!(!p.is_allowed(UA, "/private/x"));
        // Another bot falls into the * group.
        assert!(!p.is_allowed("googlebot", "/privacy"));
    }

    #[test]
    fn crawl_delay_parsed() {
        let p = RobotsPolicy::parse("User-agent: *\nCrawl-delay: 2.5\nDisallow: /tmp");
        assert_eq!(p.crawl_delay_ms(UA), Some(2500));
        // Only a finite, non-negative delay counts; one too long for `u64`
        // milliseconds saturates.
        let delay = |value: &str| {
            RobotsPolicy::parse(&format!("User-agent: *\nCrawl-delay: {value}")).crawl_delay_ms(UA)
        };
        for absent in ["inf", "-inf", "infinity", "NaN", "-1", "-0.5", "soon"] {
            assert_eq!(delay(absent), None, "{absent}");
        }
        assert_eq!(delay("-0"), Some(0));
        assert_eq!(delay("1e15"), Some(1_000_000_000_000_000_000));
        assert_eq!(delay("1e300"), Some(u64::MAX));
    }

    #[test]
    fn comments_and_junk_ignored() {
        let p = RobotsPolicy::parse(
            "# robots\nUser-agent: * # all\nSitemap: https://x.com/sitemap.xml\n\
             Nonsense line\nDisallow: /x # comment",
        );
        assert!(!p.is_allowed(UA, "/x/y"));
        assert!(p.is_allowed(UA, "/privacy"));
    }

    #[test]
    fn consecutive_agents_share_group() {
        let p = RobotsPolicy::parse("User-agent: a\nUser-agent: b\nDisallow: /z");
        assert!(!p.is_allowed("a", "/z"));
        assert!(!p.is_allowed("b", "/z"));
    }

    #[test]
    fn agents_and_keys_match_without_regard_to_case() {
        let p = RobotsPolicy::parse(
            "USER-AGENT: AIPAN-Crawler\nDISALLOW: /Private\nallow: /Private/Policy\n\
             CRAWL-DELAY: 3\n\nUser-Agent: *\nDisAllow: /",
        );
        for ua in [
            UA,
            "AIPAN-CRAWLER/0.1",
            "Mozilla (compatible; Aipan-Crawler)",
        ] {
            assert!(p.is_allowed(ua, "/privacy"), "{ua}");
            assert!(!p.is_allowed(ua, "/Private/x"), "{ua}");
            assert!(p.is_allowed(ua, "/Private/Policy"), "{ua}");
            assert!(
                p.is_allowed(ua, "/private/x"),
                "paths keep their case: {ua}"
            );
            assert_eq!(p.crawl_delay_ms(ua), Some(3000), "{ua}");
            assert!(!p.blocks_everything(ua), "{ua}");
        }
        assert!(p.blocks_everything("Googlebot"));
        assert_eq!(p.crawl_delay_ms("aipan"), None);
    }

    #[test]
    fn empty_disallow_means_allow_all() {
        let p = RobotsPolicy::parse("User-agent: *\nDisallow:");
        assert!(p.is_allowed(UA, "/anything"));
    }
}
