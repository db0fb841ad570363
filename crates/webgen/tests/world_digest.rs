//! Digests of what a world generates and answers.
//!
//! A domain's fate, policy path, style and planted truth are computed when
//! asked, and a universe of any size can be generated. These digests pin
//! both to the values the generator gave while the world still sampled
//! every domain's metadata at build time and the universe stopped growing
//! at 10,653 companies, so a refactor of either must leave them as they
//! are. Each digest is FNV-1a over one `Debug` line per domain or company.

use aipan_webgen::universe::Universe;
use aipan_webgen::{build_world, build_world_lazy, World, WorldConfig};

fn fnv1a(lines: impl IntoIterator<Item = String>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for byte in line.bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Every domain's (fate, policy path, style, truth), in domain order.
fn metadata_digest(world: &World) -> String {
    let unique = world.universe.unique_domains();
    fnv1a(unique.iter().map(|company| {
        let d = company.domain.as_str();
        let answer = (
            world.fate(d),
            world.policy_path(d),
            world.style(d),
            world.truth(d),
        );
        format!("{d} {answer:?}")
    }))
}

#[test]
fn a_lazy_world_answers_the_pinned_metadata() {
    let world = build_world_lazy(WorldConfig::small(1, 800));
    assert_eq!(world.universe.unique_domains().len(), 794);
    assert_eq!(metadata_digest(&world), "14d57dfe8ead6017");
}

#[test]
fn an_eager_world_answers_the_pinned_metadata() {
    let world = build_world(WorldConfig::small(17, 200));
    assert_eq!(world.universe.unique_domains().len(), 199);
    assert_eq!(metadata_digest(&world), "deae8e5fabbfc989");
}

#[test]
fn the_largest_universe_with_fresh_name_pairs_is_unchanged() {
    let universe = Universe::generate_sized(1, 10_653);
    assert_eq!(universe.len(), 10_653);
    let lines = universe.companies.iter().map(|c| format!("{c:?}"));
    assert_eq!(fnv1a(lines), "d754d00a015e2bb0");
}
