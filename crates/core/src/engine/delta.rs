//! Release deltas: what changed between consecutive publications.
//!
//! Consecutive windows of a sliding stream publish strongly-correlated
//! releases — the republication rule even pins most sanitized values
//! verbatim. A [`ReleaseDelta`] captures just the difference (added,
//! re-perturbed, removed itemsets), so the serve layer can ship `O(churn)`
//! bytes per window instead of the full snapshot, with periodic full
//! `release` snapshots letting late subscribers join mid-stream.
//!
//! The invariant the differential tests pin: for consecutive releases
//! `prev → next`, `delta.apply(prev) == next` exactly — same entries, same
//! publication order.

use crate::release::{SanitizedItemset, SanitizedRelease};
use bfly_common::ItemsetId;
use std::collections::HashMap;

/// The difference between one sanitized release and its predecessor.
///
/// `added` and `changed` are in publication order (FEC support ascending,
/// members lexicographic); `removed` is in lexicographic itemset order —
/// all deterministic, so two engines producing the same releases produce
/// byte-identical deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReleaseDelta {
    /// Itemsets published now but absent from the previous release.
    pub added: Vec<SanitizedItemset>,
    /// Itemsets present in both whose (true, sanitized) pair changed —
    /// i.e. re-perturbed or support-shifted.
    pub changed: Vec<SanitizedItemset>,
    /// Itemsets in the previous release that vanished from this one.
    pub removed: Vec<ItemsetId>,
}

impl ReleaseDelta {
    /// True when the release is identical to its predecessor (every value
    /// republished, nothing entered or left).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.changed.is_empty() && self.removed.is_empty()
    }

    /// Total number of difference records.
    pub fn len(&self) -> usize {
        self.added.len() + self.changed.len() + self.removed.len()
    }

    /// Diff two releases. The engine computes deltas inline during publish;
    /// this standalone form is the differential oracle the tests compare
    /// against, and what batch callers use to retrofit deltas.
    pub fn between(prev: &SanitizedRelease, next: &SanitizedRelease) -> ReleaseDelta {
        let prev_map: HashMap<ItemsetId, (u64, i64)> = prev
            .iter()
            .map(|e| (e.id, (e.true_support, e.sanitized)))
            .collect();
        let mut delta = ReleaseDelta::default();
        let mut seen: HashMap<ItemsetId, ()> = HashMap::with_capacity(next.len());
        for e in next.iter() {
            seen.insert(e.id, ());
            match prev_map.get(&e.id) {
                None => delta.added.push(*e),
                Some(&(t, s)) if (t, s) != (e.true_support, e.sanitized) => delta.changed.push(*e),
                Some(_) => {}
            }
        }
        let mut removed: Vec<ItemsetId> = prev
            .iter()
            .map(|e| e.id)
            .filter(|id| !seen.contains_key(id))
            .collect();
        removed.sort_unstable_by(|a, b| a.resolve().cmp(b.resolve()));
        delta.removed = removed;
        delta
    }

    /// Reconstruct the next release from the previous one. Exact inverse of
    /// the diff: `ReleaseDelta::between(p, n).apply(p) == n`.
    pub fn apply(&self, prev: &SanitizedRelease) -> SanitizedRelease {
        let mut map: HashMap<ItemsetId, SanitizedItemset> =
            prev.iter().map(|e| (e.id, *e)).collect();
        for id in &self.removed {
            map.remove(id);
        }
        for e in self.added.iter().chain(&self.changed) {
            map.insert(e.id, *e);
        }
        let mut entries: Vec<SanitizedItemset> = map.into_values().collect();
        // Publication order: FEC support ascending, members lexicographic.
        // Supports are unique per FEC, so this total order reproduces it.
        entries.sort_unstable_by(|a, b| {
            a.true_support
                .cmp(&b.true_support)
                .then_with(|| a.itemset().cmp(b.itemset()))
        });
        SanitizedRelease::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::ItemSet;

    fn entry(s: &str, t: u64, sanitized: i64) -> SanitizedItemset {
        SanitizedItemset {
            id: ItemsetId::intern(&s.parse::<ItemSet>().unwrap()),
            true_support: t,
            sanitized,
        }
    }

    #[test]
    fn identical_releases_produce_an_empty_delta() {
        let r = SanitizedRelease::new(vec![entry("a", 30, 27), entry("ab", 40, 44)]);
        let d = ReleaseDelta::between(&r, &r);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.apply(&r), r);
    }

    #[test]
    fn between_and_apply_round_trip() {
        let prev = SanitizedRelease::new(vec![
            entry("a", 30, 27),
            entry("b", 30, 27),
            entry("c", 45, 46),
        ]);
        let next = SanitizedRelease::new(vec![
            entry("a", 30, 27), // unchanged: republished
            entry("b", 31, 33), // support shifted: re-perturbed
            entry("d", 50, 48), // new arrival
        ]);
        let d = ReleaseDelta::between(&prev, &next);
        assert_eq!(d.added, vec![entry("d", 50, 48)]);
        assert_eq!(d.changed, vec![entry("b", 31, 33)]);
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.removed[0].resolve(), &"c".parse::<ItemSet>().unwrap());
        assert_eq!(d.apply(&prev), next);
    }

    #[test]
    fn apply_restores_publication_order() {
        // The reconstructed release must interleave surviving and added
        // entries in FEC-ascending, member-lexicographic order.
        let prev = SanitizedRelease::new(vec![entry("b", 30, 28), entry("c", 45, 46)]);
        let next = SanitizedRelease::new(vec![
            entry("a", 28, 26),
            entry("b", 30, 28),
            entry("bc", 45, 46),
            entry("c", 45, 46),
        ]);
        let d = ReleaseDelta::between(&prev, &next);
        assert_eq!(d.apply(&prev), next);
    }
}
