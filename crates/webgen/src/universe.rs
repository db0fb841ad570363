//! The synthetic company universe: a Russell-3000-like index constituent
//! list with tickers, names, S&P sectors, and Internet domains.
//!
//! Matches the paper's acquisition numbers (§3.1): 2916 constituents whose
//! domains deduplicate to 2892 (duplicate tickers of one issuer — the
//! GOOG/GOOGL situation — share a domain). Three real-world companies the
//! paper names for its retention extremes (arescre.com, pg.com, bms.com)
//! are planted so the §5 retention analysis can reference them.

use crate::rng;
use aipan_taxonomy::Sector;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One index constituent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Company {
    /// Ticker symbol (unique).
    pub ticker: String,
    /// Company name.
    pub name: String,
    /// S&P sector.
    pub sector: Sector,
    /// Internet domain (shared between duplicate tickers of one issuer).
    pub domain: String,
}

/// The full constituent universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Universe {
    /// Constituents in index order.
    pub companies: Vec<Company>,
}

/// Number of constituents, as in the paper (Vanguard Russell 3000 ETF,
/// 2024-03-31).
pub const UNIVERSE_SIZE: usize = 2916;
/// Unique domains after deduplication, as in the paper.
pub const UNIQUE_DOMAINS: usize = 2892;
/// The smallest universe size [`Universe::generate_sized`] accepts.
pub const MIN_UNIVERSE_SIZE: usize = 8;
/// Names a (head, core) pair takes before the generator moves on to other
/// pairs, as long as any pair has room.
const NAMES_PER_PAIR: u32 = 3;

const NAME_HEADS: &[&str] = &[
    "Apex",
    "Blue",
    "Cedar",
    "Delta",
    "Echo",
    "First",
    "Global",
    "Harbor",
    "Iron",
    "Jade",
    "Keystone",
    "Lake",
    "Meridian",
    "North",
    "Omni",
    "Pioneer",
    "Quantum",
    "River",
    "Summit",
    "Titan",
    "Union",
    "Vertex",
    "West",
    "Zenith",
    "Atlas",
    "Beacon",
    "Crown",
    "Dynamo",
    "Evergreen",
    "Frontier",
    "Granite",
    "Horizon",
    "Ivory",
    "Juniper",
    "Kinetic",
    "Liberty",
    "Monarch",
    "Nova",
    "Orchard",
    "Paragon",
    "Redwood",
    "Sterling",
    "Trident",
    "Vanguard",
    "Willow",
    "Amber",
    "Bolt",
    "Cascade",
    "Drift",
    "Ember",
    "Falcon",
    "Grove",
    "Helix",
    "Inlet",
    "Jet",
    "Krypton",
    "Lumen",
    "Mosaic",
    "Nimbus",
    "Onyx",
    "Pinnacle",
    "Quarry",
    "Ridge",
    "Slate",
    "Terra",
    "Ultra",
    "Vista",
    "Wave",
    "Xenon",
    "Yield",
    "Zephyr",
];

const NAME_CORES: &[&str] = &[
    "Tech",
    "Health",
    "Energy",
    "Financial",
    "Consumer",
    "Industrial",
    "Material",
    "Media",
    "Realty",
    "Utility",
    "Data",
    "Micro",
    "Bio",
    "Pharma",
    "Retail",
    "Logistics",
    "Capital",
    "Grid",
    "Steel",
    "Foods",
    "Brands",
    "Systems",
    "Networks",
    "Dynamics",
    "Analytica",
    "Therapeutics",
    "Diagnostics",
    "Petroleum",
    "Mining",
    "Properties",
    "Bancorp",
    "Insurance",
    "Aerospace",
    "Motors",
    "Chemical",
    "Paper",
    "Water",
    "Power",
    "Telecom",
    "Broadcast",
    "Software",
    "Semiconductor",
    "Robotics",
    "Marine",
    "Rail",
    "Apparel",
    "Hospitality",
    "Gaming",
    "Fitness",
    "Education",
];

const NAME_TAILS: &[&str] = &[
    "Inc",
    "Corp",
    "Group",
    "Holdings",
    "Partners",
    "Industries",
    "Enterprises",
    "Company",
    "International",
    "Solutions",
    "Labs",
    "Trust",
    "PLC",
    "Co",
];

impl Universe {
    /// Generate the standard universe for `seed`.
    pub fn generate(seed: u64) -> Universe {
        Universe::generate_sized(seed, UNIVERSE_SIZE)
    }

    /// Generate a universe of `n` constituents, for any `n` of at least
    /// [`MIN_UNIVERSE_SIZE`].
    ///
    /// Duplicate-share pairs scale proportionally so that
    /// `unique_domains() ≈ n - 24·n/2916`.
    pub fn generate_sized(seed: u64, n: usize) -> Universe {
        assert!(n >= MIN_UNIVERSE_SIZE, "universe too small");
        let mut rng = rng::stream(seed, "universe", "companies");
        let mut used_names: HashMap<String, u32> = HashMap::new();
        let mut companies: Vec<Company> = Vec::with_capacity(n);

        // Sector quota allocation by share, largest remainder.
        let quotas = sector_quotas(n);

        // Planted real-name companies (retention-extreme references in §5).
        let planted: &[(&str, &str, Sector, &str)] = &[
            (
                "ACRE",
                "Ares Commercial Real Estate",
                Sector::RealEstate,
                "arescre.com",
            ),
            ("PG", "Procter & Gamble", Sector::ConsumerStaples, "pg.com"),
            ("BMY", "Bristol-Myers Squibb", Sector::HealthCare, "bms.com"),
        ];
        // Once every (head, core) pair holds `NAMES_PER_PAIR` names, every
        // draw is accepted, so a universe of any size can be generated.
        let capacity =
            planted.len() + NAME_HEADS.len() * NAME_CORES.len() * NAMES_PER_PAIR as usize;
        let mut remaining = quotas;
        for (ticker, name, sector, domain) in planted {
            companies.push(Company {
                ticker: ticker.to_string(),
                name: name.to_string(),
                sector: *sector,
                domain: domain.to_string(),
            });
            let idx = sector.index();
            if let Some(slot) = remaining.get_mut(idx) {
                *slot = slot.saturating_sub(1);
            }
        }

        // Duplicate-ticker issuers: 24 per 2916 constituents.
        let dup_pairs = (n * (UNIVERSE_SIZE - UNIQUE_DOMAINS) / UNIVERSE_SIZE.max(1))
            .max(if n >= 200 { 1 } else { 0 });

        for (sector_idx, &quota) in remaining.iter().enumerate() {
            let Some(sector) = Sector::ALL.get(sector_idx).copied() else {
                continue;
            };
            for _ in 0..quota {
                if companies.len() >= n {
                    break;
                }
                let (name, domain, ticker) =
                    fresh_company(&mut rng, &mut used_names, companies.len() >= capacity);
                companies.push(Company {
                    ticker,
                    name,
                    sector,
                    domain,
                });
            }
        }
        // Top up (rounding slack) with random sectors.
        while companies.len() < n {
            // Same draw as `choose`, but indexing a non-empty const array
            // cannot fail.
            let sector = Sector::ALL[rng.gen_range(0..Sector::ALL.len())];
            let (name, domain, ticker) =
                fresh_company(&mut rng, &mut used_names, companies.len() >= capacity);
            companies.push(Company {
                ticker,
                name,
                sector,
                domain,
            });
        }

        // Create duplicate-ticker share classes: clone an existing company
        // under a new ticker, same domain (replacing the tail entries so the
        // total count stays n).
        for d in 0..dup_pairs {
            let src_idx = 3 + d; // skip planted
            if src_idx >= companies.len() || companies.len() < 2 {
                break;
            }
            let src = companies[src_idx].clone();
            let tail = companies.len() - 1 - d;
            if tail <= src_idx {
                break;
            }
            if let Some(slot) = companies.get_mut(tail) {
                *slot = Company {
                    ticker: format!("{}.B", src.ticker),
                    name: format!("{} Class B", src.name),
                    sector: src.sector,
                    domain: src.domain.clone(),
                };
            }
        }

        // Deterministic shuffle so sectors are interleaved like a real index
        // listing.
        companies.shuffle(&mut rng);
        Universe { companies }
    }

    /// Unique domains in the universe, sorted.
    pub fn unique_domains(&self) -> Vec<&Company> {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<&Company> = Vec::new();
        let mut sorted: Vec<&Company> = self.companies.iter().collect();
        sorted.sort_by(|a, b| a.domain.cmp(&b.domain).then(a.ticker.cmp(&b.ticker)));
        for c in sorted {
            if seen.insert(c.domain.as_str()) {
                out.push(c);
            }
        }
        out
    }

    /// Number of constituents.
    pub fn len(&self) -> usize {
        self.companies.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.companies.is_empty()
    }

    /// Look up a company by domain (the share class with the lowest
    /// ticker, the one [`Universe::unique_domains`] keeps), by a linear
    /// scan: the oracle for `World::company`'s index.
    #[cfg(test)]
    pub(crate) fn by_domain(&self, domain: &str) -> Option<&Company> {
        self.companies
            .iter()
            .filter(|c| c.domain == domain)
            .min_by(|a, b| a.ticker.cmp(&b.ticker))
    }
}

/// Sector quotas by universe share, largest-remainder rounding.
fn sector_quotas(n: usize) -> [usize; 11] {
    let mut quotas = [0usize; 11];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(11);
    let mut assigned = 0usize;
    for (i, s) in Sector::ALL.iter().enumerate() {
        let exact = s.universe_share() * n as f64;
        let floor = exact.floor() as usize;
        if let Some(slot) = quotas.get_mut(i) {
            *slot = floor;
        }
        assigned += floor;
        remainders.push((i, exact - exact.floor()));
    }
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (i, _) in remainders.into_iter().take(n.saturating_sub(assigned)) {
        if let Some(slot) = quotas.get_mut(i) {
            *slot += 1;
        }
    }
    quotas
}

/// A fresh (name, domain, ticker). A name's suffix is its (head, core)
/// pair's draw count, so names and domains never repeat; until `full`, a
/// draw of a pair that already holds [`NAMES_PER_PAIR`] names is redrawn.
fn fresh_company(
    rng: &mut impl Rng,
    used: &mut HashMap<String, u32>,
    full: bool,
) -> (String, String, String) {
    loop {
        let head = NAME_HEADS[rng.gen_range(0..NAME_HEADS.len())];
        let core = NAME_CORES[rng.gen_range(0..NAME_CORES.len())];
        let tail = NAME_TAILS[rng.gen_range(0..NAME_TAILS.len())];
        let base = format!("{head} {core}");
        let count = used.entry(base.clone()).or_insert(0);
        *count += 1;
        let (name, slug) = if *count == 1 {
            (
                format!("{base} {tail}"),
                format!("{}{}", head.to_lowercase(), core.to_lowercase()),
            )
        } else if *count <= NAMES_PER_PAIR || full {
            (
                format!("{base} {tail} {count}"),
                format!("{}{}{}", head.to_lowercase(), core.to_lowercase(), count),
            )
        } else {
            continue;
        };
        let domain = format!("{slug}.com");
        let ticker = make_ticker(&name, used);
        return (name, domain, ticker);
    }
}

fn make_ticker(name: &str, used: &mut HashMap<String, u32>) -> String {
    let letters: String = name
        .chars()
        .filter(|c| c.is_ascii_uppercase())
        .take(4)
        .collect();
    let base = if letters.len() >= 2 {
        letters
    } else {
        "XX".to_string()
    };
    let key = format!("ticker:{base}");
    let count = used.entry(key).or_insert(0);
    *count += 1;
    if *count == 1 {
        base
    } else {
        format!("{base}{count}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_universe_counts_match_paper() {
        let u = Universe::generate(42);
        assert_eq!(u.len(), UNIVERSE_SIZE);
        let unique = u.unique_domains().len();
        assert_eq!(unique, UNIQUE_DOMAINS, "unique domains {unique}");
    }

    #[test]
    fn deterministic_across_calls() {
        let a = Universe::generate_sized(7, 300);
        let b = Universe::generate_sized(7, 300);
        assert_eq!(a.companies, b.companies);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate_sized(1, 300);
        let b = Universe::generate_sized(2, 300);
        assert_ne!(a.companies, b.companies);
    }

    #[test]
    fn tickers_unique() {
        let u = Universe::generate(3);
        let mut seen = std::collections::HashSet::new();
        for c in &u.companies {
            assert!(seen.insert(&c.ticker), "duplicate ticker {}", c.ticker);
        }
    }

    #[test]
    fn sector_proportions_approximate_shares() {
        let u = Universe::generate(5);
        for s in Sector::ALL {
            let count = u.companies.iter().filter(|c| c.sector == s).count();
            let share = count as f64 / u.len() as f64;
            assert!(
                (share - s.universe_share()).abs() < 0.02,
                "{s}: {share} vs {}",
                s.universe_share()
            );
        }
    }

    #[test]
    fn planted_companies_present() {
        let u = Universe::generate(11);
        for d in ["arescre.com", "pg.com", "bms.com"] {
            assert!(u.by_domain(d).is_some(), "missing planted {d}");
        }
        assert_eq!(
            u.by_domain("pg.com").unwrap().sector,
            Sector::ConsumerStaples
        );
    }

    #[test]
    fn duplicate_tickers_share_domain_and_sector() {
        let u = Universe::generate(9);
        let mut by_domain: HashMap<&str, Vec<&Company>> = HashMap::new();
        for c in &u.companies {
            by_domain.entry(&c.domain).or_default().push(c);
        }
        let dups: Vec<_> = by_domain.values().filter(|v| v.len() > 1).collect();
        assert_eq!(dups.len(), UNIVERSE_SIZE - UNIQUE_DOMAINS);
        for group in dups {
            let sector = group[0].sector;
            assert!(group.iter().all(|c| c.sector == sector));
        }
    }

    #[test]
    fn domains_and_tickers_stay_unique_past_the_name_pairs() {
        // 3 planted companies and 3 names for each of the 71 × 50 (head,
        // core) pairs hold 10,653 companies; past that, names repeat a pair.
        let u = Universe::generate_sized(1, 100_000);
        assert_eq!(u.len(), 100_000);
        let mut tickers = std::collections::HashSet::new();
        let mut owners: HashMap<&str, &str> = HashMap::new();
        for c in &u.companies {
            assert!(tickers.insert(&c.ticker), "duplicate ticker {}", c.ticker);
            // A domain belongs to one issuer: only its `.B` share class
            // may repeat it.
            let issuer = c.name.trim_end_matches(" Class B");
            let owner = *owners.entry(&c.domain).or_insert(issuer);
            assert_eq!(owner, issuer, "{} is shared by two issuers", c.domain);
        }
    }

    #[test]
    fn small_universe_generation() {
        let u = Universe::generate_sized(1, 50);
        assert_eq!(u.len(), 50);
        assert!(u.unique_domains().len() <= 50);
    }
}
