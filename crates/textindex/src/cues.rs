//! Dense byte automaton answering which of a small set of cues occur.
//!
//! The simulated chatbot's whole-text segmentation asks, for each line,
//! whether each of a few dozen short ASCII cues ("retain", "opt out",
//! "third part", …) occurs in the lower-cased line. Probing them one
//! `contains` at a time reads the line once per cue; a [`CueSet`] reads it
//! once for all of them and returns a bitset with bit `i` set when cue `i`
//! occurs.
//!
//! Unlike [`crate::AcAutomaton`], which keeps sparse `BTreeMap` goto
//! tables and reports every occurrence, a [`CueSet`] is a complete DFA:
//! bytes map to equivalence classes (the distinct bytes of the cues, plus
//! one class for every other byte), every state has a transition for every
//! class, and each state carries the bitset of cues that end there or at
//! any suffix state. A scan is one class lookup, one table read and one OR
//! per byte, with no failure-link walk and no callback.

/// Sentinel for "no trie edge yet" while the table is being built.
const NONE: u32 = u32::MAX;

/// A dense Aho–Corasick DFA over bytes reporting which cues occur.
///
/// Matching is ASCII-case-insensitive: scanning `text` reports the same
/// cues as scanning `text.to_ascii_lowercase()` with lower-case cues. A
/// caller that wants the cues of a line lower-cased with Unicode rules
/// scans ASCII lines as they are and other lines after
/// [`str::to_lowercase`].
#[derive(Debug, Clone)]
pub struct CueSet {
    /// Byte → equivalence class; bytes that no cue contains share class 0,
    /// and each ASCII upper-case letter shares its lower-case class.
    classes: [u8; 256],
    /// Classes per state (the row length of `next`).
    stride: usize,
    /// `next[state * stride + class]`: the successor state.
    next: Vec<u32>,
    /// Cues ending at each state or at any state on its failure chain.
    hits: Vec<u128>,
}

impl CueSet {
    /// The most cues one set reports: one bit each in a `u128`.
    pub const MAX_CUES: usize = 128;

    /// Build the automaton over `cues`; cue `i` is reported as bit `i`.
    /// Cues past [`CueSet::MAX_CUES`] are ignored. An empty cue occurs in
    /// every text, as with [`str::contains`].
    pub fn new(cues: &[&str]) -> CueSet {
        debug_assert!(cues.len() <= CueSet::MAX_CUES, "{} cues", cues.len());
        let cues = cues.get(..CueSet::MAX_CUES).unwrap_or(cues);

        // Classes: 0 for bytes in no cue, then one per distinct lower-cased
        // cue byte. Upper-case ASCII never gets a class of its own, so at
        // most 256 - 26 classes exist and each id fits a `u8`.
        let mut classes = [0u8; 256];
        let mut stride = 1usize;
        for b in cues.iter().flat_map(|c| c.bytes()) {
            if let Some(slot) = classes.get_mut(usize::from(b.to_ascii_lowercase())) {
                if *slot == 0 {
                    *slot = u8::try_from(stride).unwrap_or(u8::MAX);
                    stride += 1;
                }
            }
        }
        for upper in b'A'..=b'Z' {
            let lower = classes
                .get(usize::from(upper.to_ascii_lowercase()))
                .copied()
                .unwrap_or(0);
            if let Some(slot) = classes.get_mut(usize::from(upper)) {
                *slot = lower;
            }
        }
        let class_of = |b: u8| usize::from(classes.get(usize::from(b)).copied().unwrap_or(0));

        // The trie, with rows of `NONE` where no cue continues.
        let mut next = vec![NONE; stride];
        let mut hits = vec![0u128];
        for (i, cue) in cues.iter().enumerate() {
            let mut state = 0usize;
            for b in cue.bytes() {
                let idx = state * stride + class_of(b);
                let child = match next.get(idx).copied() {
                    Some(NONE) | None => {
                        let child = u32::try_from(hits.len()).unwrap_or(NONE);
                        if let Some(slot) = next.get_mut(idx) {
                            *slot = child;
                        }
                        next.resize(next.len() + stride, NONE);
                        hits.push(0);
                        child
                    }
                    Some(child) => child,
                };
                state = child as usize;
            }
            if let Some(h) = hits.get_mut(state) {
                *h |= 1u128 << i;
            }
        }

        // Breadth-first: fill every missing edge with the failure state's
        // edge and fold each state's failure-chain cues into its own. A
        // failure state is strictly shallower, so its row and bitset are
        // final by the time a deeper state reads them.
        let mut fail = vec![0u32; hits.len()];
        let mut queue: Vec<u32> = Vec::with_capacity(hits.len());
        for slot in next.iter_mut().take(stride) {
            if *slot == NONE {
                *slot = 0;
            } else {
                queue.push(*slot);
            }
        }
        let mut head = 0usize;
        while let Some(&state) = queue.get(head) {
            head += 1;
            let state = state as usize;
            let f = fail.get(state).copied().unwrap_or(0) as usize;
            let inherited = hits.get(f).copied().unwrap_or(0);
            if let Some(h) = hits.get_mut(state) {
                *h |= inherited;
            }
            for class in 0..stride {
                let via_fail = next.get(f * stride + class).copied().unwrap_or(0);
                let Some(slot) = next.get_mut(state * stride + class) else {
                    continue;
                };
                if *slot == NONE {
                    *slot = via_fail;
                } else {
                    let child = *slot;
                    if let Some(cf) = fail.get_mut(child as usize) {
                        *cf = via_fail;
                    }
                    queue.push(child);
                }
            }
        }
        CueSet {
            classes,
            stride,
            next,
            hits,
        }
    }

    /// The cues occurring in `haystack`, as a bitset (bit `i` = cue `i`).
    pub fn scan(&self, haystack: &[u8]) -> u128 {
        let mut state = 0usize;
        let mut found = self.hits.first().copied().unwrap_or(0);
        for &b in haystack {
            let class = usize::from(self.classes.get(usize::from(b)).copied().unwrap_or(0));
            state = self
                .next
                .get(state * self.stride + class)
                .map_or(0, |&s| s as usize);
            found |= self.hits.get(state).copied().unwrap_or(0);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitset the naive per-cue probes give.
    fn naive(cues: &[&str], text: &str) -> u128 {
        let lower = text.to_ascii_lowercase();
        cues.iter()
            .enumerate()
            .filter(|(_, c)| lower.contains(*c))
            .fold(0, |bits, (i, _)| bits | 1 << i)
    }

    #[test]
    fn reports_each_cue_once_whatever_the_overlap() {
        let cues = ["he", "she", "his", "hers"];
        let set = CueSet::new(&cues);
        assert_eq!(set.scan(b"ushers"), 0b1011);
        assert_eq!(set.scan(b"ushers"), naive(&cues, "ushers"));
        assert_eq!(set.scan(b"his his"), 0b0100);
        assert_eq!(set.scan(b""), 0);
    }

    #[test]
    fn matching_folds_ascii_case_only() {
        let cues = ["opt out", "third part", "2fa"];
        let set = CueSet::new(&cues);
        assert_eq!(
            set.scan(b"You may OPT OUT of Third Parties via 2FA."),
            0b111
        );
        // Non-ASCII bytes are never part of a cue and break a match.
        assert_eq!(set.scan("opt\u{a0}out".as_bytes()), 0);
    }

    #[test]
    fn suffix_cues_reported_through_the_failure_chain() {
        let cues = ["retain some", "retain", "in some"];
        let set = CueSet::new(&cues);
        for text in ["we retain some", "we retain", "in some cases", "retai", "x"] {
            assert_eq!(set.scan(text.as_bytes()), naive(&cues, text), "{text}");
        }
    }

    #[test]
    fn empty_cue_occurs_everywhere() {
        let set = CueSet::new(&["", "a"]);
        assert_eq!(set.scan(b""), 0b01);
        assert_eq!(set.scan(b"a"), 0b11);
    }

    #[test]
    fn a_full_set_of_cues_uses_every_bit() {
        let owned: Vec<String> = (0..CueSet::MAX_CUES).map(|i| format!("<{i}>")).collect();
        let cues: Vec<&str> = owned.iter().map(String::as_str).collect();
        let set = CueSet::new(&cues);
        let text: String = owned.concat();
        assert_eq!(set.scan(text.as_bytes()), u128::MAX);
        assert_eq!(set.scan(b"<127>"), 1 << 127);
    }
}
