//! Frequent-itemset hiding by suppression.
//!
//! The hiding literature (surveyed by the Frequent Itemset Hiding Toolbox,
//! arXiv:1802.10543) protects sensitive knowledge not by perturbing counts
//! but by making the sensitive patterns *unmineable* — here, by removing
//! itemsets from the release instead of distorting them. Everything that
//! survives is published at its exact support.
//!
//! The sensitive set is exactly what the repo's attack engine derives:
//! every vulnerable pattern (support `< K`) an adversary could reconstruct
//! from the release via the derivation lattice
//! ([`find_intra_window_breaches`]). For each such breach the defense
//! suppresses the breach's *span* — the published superset whose presence
//! completes the derivation — and re-runs the attack on the reduced
//! release until no breach survives. Removing entries only ever removes
//! derivation paths, so the loop is monotone and terminates.
//!
//! Side-effect accounting: hiding is free on the counts it keeps but pays
//! in coverage (suppressed itemsets are utility lost — "side effects" in
//! hiding terminology). [`SuppressionStats`] ledgers that cost so the
//! cross-defense bench can put it next to the perturbation schemes'
//! precision loss.
//!
//! Scope: the defense closes the *intra-window* derivation channel. The
//! inter-window channel (differencing overlapping windows) is out of scope
//! for a per-release filter and stays open — deliberately measurable in
//! the defense matrix rather than hidden.

use crate::config::PrivacySpec;
use crate::defense::{DefenseKind, PrivacyDefense};
use crate::history::PublicationHistory;
use crate::release::{SanitizedItemset, SanitizedRelease};
use bfly_inference::find_intra_window_breaches;
use bfly_mining::FrequentItemsets;

/// Cumulative side-effect ledger for a suppression defense: monitoring
/// only, counted from the defense's construction (a restarted stream's
/// ledger starts again at zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuppressionStats {
    /// Windows published.
    pub windows: u64,
    /// Breaches the attack engine found across all suppression rounds.
    pub breaches_found: u64,
    /// Itemsets removed from releases (the utility side effect).
    pub suppressed: u64,
    /// Itemsets that survived and were published exactly.
    pub published: u64,
}

/// Suppression/hiding defense: publish exact supports, minus the spanning
/// itemsets that would let an adversary derive a vulnerable pattern.
#[derive(Clone, Debug)]
pub struct SuppressionDefense {
    spec: PrivacySpec,
    stats: SuppressionStats,
}

impl SuppressionDefense {
    /// Create a defense enforcing `spec`'s vulnerability threshold `K`.
    pub fn new(spec: PrivacySpec) -> Self {
        SuppressionDefense {
            spec,
            stats: SuppressionStats::default(),
        }
    }
}

impl PrivacyDefense for SuppressionDefense {
    fn kind(&self) -> DefenseKind {
        DefenseKind::Suppression
    }

    fn spec(&self) -> &PrivacySpec {
        &self.spec
    }

    fn publish(
        &mut self,
        frequent: &FrequentItemsets,
        _history: &PublicationHistory,
    ) -> SanitizedRelease {
        // Run the same attack the adversary would, suppress every breach's
        // span, and repeat on the reduced view until the attack comes back
        // empty. Each round only removes entries, so this terminates.
        let mut view = frequent.as_map().clone();
        loop {
            let breaches = find_intra_window_breaches(&view, self.spec.k());
            if breaches.is_empty() {
                break;
            }
            self.stats.breaches_found += breaches.len() as u64;
            let before = view.len();
            for breach in &breaches {
                if view.remove(&breach.span).is_some() {
                    self.stats.suppressed += 1;
                }
            }
            if view.len() == before {
                // Defensive: a breach whose span is not a published entry
                // cannot be closed by suppression; don't spin on it.
                break;
            }
        }

        let mut entries: Vec<SanitizedItemset> = frequent
            .entries()
            .iter()
            .filter(|e| view.contains_key(&e.id))
            .map(|e| SanitizedItemset {
                id: e.id.clone(),
                true_support: e.support,
                sanitized: e.support as i64,
            })
            .collect();
        entries.sort_unstable_by(|a, b| {
            a.true_support
                .cmp(&b.true_support)
                .then_with(|| a.itemset().cmp(b.itemset()))
        });
        self.stats.windows += 1;
        self.stats.published += entries.len() as u64;
        SanitizedRelease::new(entries)
    }

    fn suppression_stats(&self) -> Option<SuppressionStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::ItemSet;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0)
    }

    fn window(supports: &[(&str, u64)]) -> FrequentItemsets {
        FrequentItemsets::new(supports.iter().map(|&(s, t)| (iset(s), t)))
    }

    fn publish(d: &mut SuppressionDefense, w: &FrequentItemsets) -> SanitizedRelease {
        d.publish(w, &PublicationHistory::default())
    }

    /// A window publishing the full lattice over `abc`, where
    /// `T(ab¬c) = 30−28 = 2` and `T(ac¬b) = 29−28 = 1` are derivable
    /// vulnerable patterns (< K = 5) with span `abc`; every other pattern
    /// sits at support ≥ 7.
    fn breachy() -> FrequentItemsets {
        window(&[
            ("a", 40),
            ("b", 38),
            ("c", 36),
            ("ab", 30),
            ("ac", 29),
            ("bc", 28),
            ("abc", 28),
        ])
    }

    #[test]
    fn clears_every_intra_window_breach() {
        let w = breachy();
        assert!(
            !find_intra_window_breaches(w.as_map(), spec().k()).is_empty(),
            "fixture must be breachable before suppression"
        );
        let mut d = SuppressionDefense::new(spec());
        let release = publish(&mut d, &w);
        let truth: std::collections::HashMap<_, _> = release
            .iter()
            .map(|e| (e.id.clone(), e.true_support))
            .collect();
        assert!(
            find_intra_window_breaches(&truth, spec().k()).is_empty(),
            "published release still breachable"
        );
        // The span (abc) is gone; the bases survive untouched.
        assert!(release.get(&iset("abc")).is_none());
        assert_eq!(release.get(&iset("ab")).unwrap().sanitized, 30);
        assert_eq!(release.len(), 6);
    }

    #[test]
    fn survivors_keep_exact_supports() {
        let w = window(&[("a", 40), ("b", 33), ("c", 61)]);
        let mut d = SuppressionDefense::new(spec());
        let release = publish(&mut d, &w);
        assert_eq!(release.len(), 3, "nothing to hide, nothing suppressed");
        for e in release.iter() {
            assert_eq!(e.sanitized, e.true_support as i64);
        }
    }

    #[test]
    fn ledger_accounts_for_side_effects() {
        let clean = window(&[("a", 40), ("b", 33)]);
        let mut d = SuppressionDefense::new(spec());
        publish(&mut d, &breachy());
        publish(&mut d, &clean);
        let stats = d.suppression_stats().unwrap();
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.breaches_found, 2); // ab¬c and ac¬b, both span abc
        assert_eq!(stats.suppressed, 1); // one span closes both
        assert_eq!(stats.published, 6 + 2); // breachy loses abc, clean intact
    }

    #[test]
    fn deterministic_with_no_seed_at_all() {
        // Suppression is noise-free: any two instances agree byte for byte.
        let mut d1 = SuppressionDefense::new(spec());
        let mut d2 = SuppressionDefense::new(spec());
        assert_eq!(publish(&mut d1, &breachy()), publish(&mut d2, &breachy()));
    }
}
