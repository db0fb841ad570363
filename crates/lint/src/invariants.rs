//! Data-invariant checks over the taxonomy crate's static vocabulary.
//!
//! These are lint-time validations of *data*, not code:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `T1` | normalization closure: every surface form folds to a key owned by exactly one canonical descriptor, and canonical names resolve to themselves through [`aipan_taxonomy::Normalizer`] |
//! | `T2` | no duplicate canonical names across the datatype, purpose, rights, and handling vocabularies |
//! | `T3` | aspect coverage: all nine paper aspects present, keys unique and round-tripping through `Aspect::from_key` |
//!
//! Each check takes its vocabulary as a value (built by `workspace_vocab`
//! for the real tables), so tests can corrupt a copy in memory and watch the
//! corresponding finding appear without touching the taxonomy crate.

use crate::findings::Finding;
use aipan_taxonomy::normalize::fold;
use aipan_taxonomy::{
    AccessLabel, Aspect, ChoiceLabel, Normalizer, ProtectionLabel, RetentionLabel,
    DATA_TYPE_DESCRIPTORS, PURPOSE_DESCRIPTORS,
};
use std::collections::BTreeMap;

/// One canonical vocabulary entry: its name, alias surface forms, and the
/// taxonomy source file that declares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VocabEntry {
    /// Canonical descriptor or label name.
    pub name: String,
    /// Alias surface forms that normalize onto `name` (may be empty).
    pub surfaces: Vec<String>,
    /// Declaring file, workspace-relative.
    pub source: &'static str,
}

const DATATYPES_RS: &str = "crates/taxonomy/src/datatypes.rs";
const PURPOSES_RS: &str = "crates/taxonomy/src/purposes.rs";
const RIGHTS_RS: &str = "crates/taxonomy/src/rights.rs";
const HANDLING_RS: &str = "crates/taxonomy/src/handling.rs";
const ASPECT_RS: &str = "crates/taxonomy/src/aspect.rs";

/// Snapshot the real taxonomy tables into checkable form.
pub(crate) fn workspace_vocab() -> Vec<VocabEntry> {
    let mut entries = Vec::new();
    for spec in DATA_TYPE_DESCRIPTORS {
        entries.push(VocabEntry {
            name: spec.name.to_string(),
            surfaces: spec.surfaces.iter().map(|s| s.to_string()).collect(),
            source: DATATYPES_RS,
        });
    }
    for spec in PURPOSE_DESCRIPTORS {
        entries.push(VocabEntry {
            name: spec.name.to_string(),
            surfaces: spec.surfaces.iter().map(|s| s.to_string()).collect(),
            source: PURPOSES_RS,
        });
    }
    let label = |name: &str, source: &'static str| VocabEntry {
        name: name.to_string(),
        surfaces: Vec::new(),
        source,
    };
    for l in ChoiceLabel::ALL {
        entries.push(label(l.name(), RIGHTS_RS));
    }
    for l in AccessLabel::ALL {
        entries.push(label(l.name(), RIGHTS_RS));
    }
    for l in RetentionLabel::ALL {
        entries.push(label(l.name(), HANDLING_RS));
    }
    for l in ProtectionLabel::ALL {
        entries.push(label(l.name(), HANDLING_RS));
    }
    entries
}

/// `T1`: normalization closure over the given vocabulary.
///
/// Every folded surface key must be owned by exactly one canonical name, no
/// surface may fold to the empty key, and no alias may collide with another
/// entry's canonical name.
pub(crate) fn check_normalization_closure(entries: &[VocabEntry]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // folded key -> sorted set of (canonical, source) that claim it.
    let mut claims: BTreeMap<String, Vec<(&str, &'static str)>> = BTreeMap::new();
    for entry in entries {
        for surface in std::iter::once(&entry.name).chain(&entry.surfaces) {
            let key = fold(surface);
            if key.is_empty() {
                findings.push(Finding::for_data(
                    "T1",
                    entry.source,
                    format!(
                        "surface form {surface:?} of `{}` folds to the empty key and can \
                         never be matched",
                        entry.name
                    ),
                    format!("surfaces: {:?}", entry.surfaces),
                ));
                continue;
            }
            let owners = claims.entry(key).or_default();
            if !owners.iter().any(|&(name, _)| name == entry.name) {
                owners.push((entry.name.as_str(), entry.source));
            }
        }
    }
    for (key, owners) in &claims {
        if owners.len() > 1 {
            let names: Vec<&str> = owners.iter().map(|&(n, _)| n).collect();
            findings.push(Finding::for_data(
                "T1",
                owners[0].1,
                format!(
                    "folded surface key {key:?} is claimed by {} canonicals: {}; \
                     normalization of that surface is ambiguous",
                    owners.len(),
                    names.join(", ")
                ),
                format!("fold(surface) = {key:?}"),
            ));
        }
    }
    findings
}

/// `T1` (live half): the built [`Normalizer`] must resolve every canonical
/// name and every alias of the *real* tables back to its declared canonical.
pub(crate) fn check_normalizer_agrees() -> Vec<Finding> {
    let mut findings = Vec::new();
    let n = Normalizer::new();
    for spec in DATA_TYPE_DESCRIPTORS {
        for surface in std::iter::once(&spec.name).chain(spec.surfaces) {
            match n.datatype(surface) {
                Some(hit) if hit.descriptor == spec.name => {}
                got => findings.push(Finding::for_data(
                    "T1",
                    DATATYPES_RS,
                    format!(
                        "Normalizer resolves datatype surface {surface:?} to {:?}, expected \
                         canonical `{}`",
                        got.map(|h| h.descriptor),
                        spec.name
                    ),
                    String::new(),
                )),
            }
        }
    }
    for spec in PURPOSE_DESCRIPTORS {
        for surface in std::iter::once(&spec.name).chain(spec.surfaces) {
            match n.purpose(surface) {
                Some(hit) if hit.descriptor == spec.name => {}
                got => findings.push(Finding::for_data(
                    "T1",
                    PURPOSES_RS,
                    format!(
                        "Normalizer resolves purpose surface {surface:?} to {:?}, expected \
                         canonical `{}`",
                        got.map(|h| h.descriptor),
                        spec.name
                    ),
                    String::new(),
                )),
            }
        }
    }
    findings
}

/// `T2`: canonical names must be unique across all four vocabulary files.
pub(crate) fn check_duplicate_canonicals(entries: &[VocabEntry]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: BTreeMap<&str, Vec<&'static str>> = BTreeMap::new();
    for entry in entries {
        seen.entry(&entry.name).or_default().push(entry.source);
    }
    for (name, sources) in &seen {
        if sources.len() > 1 {
            findings.push(Finding::for_data(
                "T2",
                sources[0],
                format!(
                    "canonical name `{name}` is declared {} times (in {}); names must be \
                     unique across the taxonomy vocabularies",
                    sources.len(),
                    sources.join(", ")
                ),
                String::new(),
            ));
        }
    }
    findings
}

/// `T3`: aspect coverage over a `(key, round_tripped)` snapshot, where
/// `round_tripped` is whether `Aspect::from_key(key)` returned the aspect
/// the key came from.
pub(crate) fn check_aspect_keys(keys: &[(String, bool)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if keys.len() != 9 {
        findings.push(Finding::for_data(
            "T3",
            ASPECT_RS,
            format!(
                "the paper defines nine privacy-policy aspects; Aspect::ALL has {}",
                keys.len()
            ),
            String::new(),
        ));
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for (key, _) in keys {
        *seen.entry(key).or_default() += 1;
    }
    for (key, count) in &seen {
        if *count > 1 {
            findings.push(Finding::for_data(
                "T3",
                ASPECT_RS,
                format!("aspect key `{key}` appears {count} times in Aspect::ALL"),
                String::new(),
            ));
        }
    }
    for (key, round_tripped) in keys {
        if !round_tripped {
            findings.push(Finding::for_data(
                "T3",
                ASPECT_RS,
                format!(
                    "Aspect::from_key({key:?}) does not return the aspect that key() came from"
                ),
                String::new(),
            ));
        }
    }
    findings
}

/// Snapshot the real `Aspect::ALL` table for [`check_aspect_keys`].
pub(crate) fn workspace_aspect_keys() -> Vec<(String, bool)> {
    Aspect::ALL
        .iter()
        .map(|a| {
            let key = a.key().to_string();
            let round_tripped = Aspect::from_key(&key) == Some(*a);
            (key, round_tripped)
        })
        .collect()
}

/// Run every data-invariant check against the live workspace taxonomy.
pub fn check_all() -> Vec<Finding> {
    let vocab = workspace_vocab();
    let mut findings = check_normalization_closure(&vocab);
    findings.extend(check_normalizer_agrees());
    findings.extend(check_duplicate_canonicals(&vocab));
    findings.extend(check_aspect_keys(&workspace_aspect_keys()));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_taxonomy_passes_all_invariants() {
        let findings = check_all();
        assert!(
            findings.is_empty(),
            "taxonomy invariant violations: {findings:#?}"
        );
    }

    #[test]
    fn corrupting_an_alias_in_memory_trips_t1() {
        let mut vocab = workspace_vocab();
        assert!(check_normalization_closure(&vocab).is_empty());
        // Steal another entry's canonical name as an alias: "Email Address!"
        // folds onto whatever key `email address` owns.
        let victim = vocab
            .iter()
            .position(|e| e.name == "postal address")
            .expect("canonical from the paper's example");
        vocab[victim].surfaces.push("Email Address!".to_string());
        let findings = check_normalization_closure(&vocab);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "T1");
        assert!(
            findings[0].message.contains("email address"),
            "{}",
            findings[0].message
        );
        assert!(findings[0].message.contains("postal address"));
    }

    #[test]
    fn empty_fold_trips_t1() {
        let mut vocab = workspace_vocab();
        vocab[0].surfaces.push("?!,.".to_string());
        let findings = check_normalization_closure(&vocab);
        assert!(findings
            .iter()
            .any(|f| f.rule == "T1" && f.message.contains("empty key")));
    }

    #[test]
    fn duplicate_canonical_trips_t2() {
        let mut vocab = workspace_vocab();
        let stolen = vocab[0].name.clone();
        vocab.push(VocabEntry {
            name: stolen,
            surfaces: Vec::new(),
            source: "crates/taxonomy/src/rights.rs",
        });
        let findings = check_duplicate_canonicals(&vocab);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "T2");
        assert!(findings[0].message.contains("declared 2 times"));
    }

    #[test]
    fn missing_or_duplicate_aspect_trips_t3() {
        let mut keys = workspace_aspect_keys();
        assert!(check_aspect_keys(&keys).is_empty());
        let dropped = keys.pop().expect("nine aspects");
        assert!(check_aspect_keys(&keys)
            .iter()
            .any(|f| f.rule == "T3" && f.message.contains("has 8")));
        keys.push(dropped);
        keys[0].0 = keys[1].0.clone();
        assert!(check_aspect_keys(&keys)
            .iter()
            .any(|f| f.message.contains("appears 2 times")));
    }

    #[test]
    fn broken_round_trip_trips_t3() {
        let mut keys = workspace_aspect_keys();
        keys[3].1 = false;
        assert!(check_aspect_keys(&keys)
            .iter()
            .any(|f| f.message.contains("from_key")));
    }
}
