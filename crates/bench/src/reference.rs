//! The oracles the release engine is held to, linked only into tests:
//!
//! * [`publish_from_scratch`] — one window's release composed from the
//!   public stage functions with nothing carried between windows but the
//!   previous release;
//! * [`delta_between`] and [`apply_delta`] — the two-release diff the
//!   pipeline's one-pass delta must equal, and its inverse, the
//!   reconstruction a subscriber performs.
//!
//! `tests/release_engine.rs` uses all three.

use bfly_common::ItemsetId;
use bfly_core::{
    partition_into_fecs, seeded_noise, BiasScheme, PrivacySpec, ReleaseDelta, SanitizedItemset,
    SanitizedRelease,
};
use bfly_mining::FrequentItemsets;
use std::collections::{HashMap, HashSet};

/// Publish `frequent` as publication `position` (releases emitted before
/// it), after `previous`: rebuild the FEC partition, solve the biases cold,
/// draw each FEC's noise keyed on `(seed, position, support)`, and republish
/// an itemset's previous sanitized value while its true support is
/// unchanged.
pub fn publish_from_scratch(
    spec: &PrivacySpec,
    scheme: &BiasScheme,
    seed: u64,
    position: u64,
    previous: &SanitizedRelease,
    frequent: &FrequentItemsets,
) -> SanitizedRelease {
    let fecs = partition_into_fecs(frequent);
    let biases = scheme.biases(&fecs, spec);
    let pins: HashMap<_, _> = previous
        .iter()
        .map(|e| (e.id.clone(), (e.true_support, e.sanitized)))
        .collect();
    let mut entries = Vec::with_capacity(frequent.len());
    for (fec, &bias) in fecs.iter().zip(&biases) {
        let fresh =
            fec.support() as i64 + seeded_noise(seed, position, fec.support(), bias, spec.alpha());
        for id in fec.members(frequent).iter().map(|e| &e.id) {
            let sanitized = match pins.get(id) {
                Some(&(t, pinned)) if t == fec.support() => pinned,
                _ => fresh,
            };
            entries.push(SanitizedItemset {
                id: id.clone(),
                true_support: fec.support(),
                sanitized,
            });
        }
    }
    SanitizedRelease::new(entries)
}

/// Diff two releases: the entries of `next` absent from `prev` (`added`) or
/// present with another `(true, sanitized)` pair (`changed`), both in
/// publication order, and the itemsets of `prev` absent from `next`
/// (`removed`), in lexicographic order.
pub fn delta_between(prev: &SanitizedRelease, next: &SanitizedRelease) -> ReleaseDelta {
    let prev_map: HashMap<ItemsetId, (u64, i64)> = prev
        .iter()
        .map(|e| (e.id.clone(), (e.true_support, e.sanitized)))
        .collect();
    let mut delta = ReleaseDelta::default();
    for e in next.iter() {
        match prev_map.get(&e.id) {
            None => delta.added.push(e.clone()),
            Some(&pair) if pair != (e.true_support, e.sanitized) => delta.changed.push(e.clone()),
            Some(_) => {}
        }
    }
    let seen: HashSet<&ItemsetId> = next.iter().map(|e| &e.id).collect();
    delta.removed = prev
        .iter()
        .map(|e| &e.id)
        .filter(|id| !seen.contains(id))
        .cloned()
        .collect();
    delta.removed.sort_unstable();
    delta
}

/// Reconstruct the next release from `prev` and `delta`, sorted into
/// publication order (true support ascending, members lexicographic).
/// Exact inverse of the diff: `apply_delta(p, &delta_between(p, n)) == n`.
pub fn apply_delta(prev: &SanitizedRelease, delta: &ReleaseDelta) -> SanitizedRelease {
    let mut map: HashMap<ItemsetId, SanitizedItemset> =
        prev.iter().map(|e| (e.id.clone(), e.clone())).collect();
    for id in &delta.removed {
        map.remove(id);
    }
    for e in delta.added.iter().chain(&delta.changed) {
        map.insert(e.id.clone(), e.clone());
    }
    let mut entries: Vec<SanitizedItemset> = map.into_values().collect();
    entries.sort_unstable_by(|a, b| {
        a.true_support
            .cmp(&b.true_support)
            .then_with(|| a.itemset().cmp(b.itemset()))
    });
    SanitizedRelease::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(s: &str, t: u64, sanitized: i64) -> SanitizedItemset {
        SanitizedItemset {
            id: ItemsetId::new(s.parse().unwrap()),
            true_support: t,
            sanitized,
        }
    }

    #[test]
    fn identical_releases_produce_an_empty_delta() {
        let r = SanitizedRelease::new(vec![entry("a", 30, 27), entry("ab", 40, 44)]);
        let d = delta_between(&r, &r);
        assert_eq!(d, ReleaseDelta::default());
        assert_eq!(apply_delta(&r, &d), r);
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
        let d = delta_between(&prev, &next);
        assert_eq!(d.added, vec![entry("d", 50, 48)]);
        assert_eq!(d.changed, vec![entry("b", 31, 33)]);
        assert_eq!(d.removed, vec![entry("c", 0, 0).id]);
        assert_eq!(apply_delta(&prev, &d), next);
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
        assert_eq!(apply_delta(&prev, &delta_between(&prev, &next)), next);
    }
}
