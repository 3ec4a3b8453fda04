//! PrivBasis-style ε-differentially-private top-k release.
//!
//! PrivBasis (Li, Qardaji, Su, Cao — VLDB 2012) releases the k most
//! frequent itemsets under ε-DP by first *selecting* which itemsets to
//! publish through a noisy mechanism (their basis construction) and then
//! releasing Laplace-noised counts for the selection. This backend keeps
//! that two-phase shape over the miner's closed-itemset candidates: the
//! mining output stands in for the basis-generated candidate pool, half
//! the per-window budget pays for noisy top-k selection and half for the
//! published counts.
//!
//! Budget accounting (sequential composition, add/remove-one sensitivity
//! 1 per support query):
//!
//! * selection: each of the `k` winners is charged `ε_sel / k` with the
//!   factor-2 scale of one-sided report-noisy-max peeling, so selection
//!   noise is `Laplace(2k / ε_sel)` per candidate;
//! * counts: each published support gets `Laplace(k / ε_cnt)`.
//!
//! with `ε_sel = ε_cnt = ε_w / 2`. This is the honest one-shot treatment,
//! not a continual-observation mechanism — overlapping windows re-spend ε_w
//! each publication, and the cross-defense bench exists precisely to show
//! what that worst-case-guarantee framing costs in utility next to
//! Butterfly's targeted contract.
//!
//! Determinism: noise is a pure function of `(seed, window index, itemset
//! content)`. Every draw seeds [`SmallRng::split_stream`] from the FNV-1a
//! hash of the itemset's item ids — *never* from [`ItemsetId`], which is a
//! process-local intern index whose numbering depends on interleaving —
//! so the same stream replayed in-process or over the wire publishes
//! identical bytes.

use crate::config::PrivacySpec;
use crate::defense::{DefenseKind, PrivacyDefense};
use crate::engine::ReleaseDelta;
use crate::release::{SanitizedItemset, SanitizedRelease};
use bfly_common::rng::{Rng, SmallRng};
use bfly_common::ItemSet;
use bfly_mining::FrequentItemsets;

/// A Laplace(0, b) sampler (inverse-CDF).
#[derive(Clone, Copy, Debug)]
struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Create a sampler with scale `b > 0`.
    ///
    /// # Panics
    /// If `scale` is not positive and finite.
    fn new(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "Laplace scale must be positive"
        );
        Laplace { scale }
    }

    /// Draw one real-valued sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: u ∈ (−1/2, 1/2]; x = −b·sgn(u)·ln(1 − 2|u|).
        let u: f64 = rng.gen_f64() - 0.5;
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }
}

/// ε-DP top-k release: noisy selection over the mined candidates, then
/// Laplace-noised counts for the winners. See the module docs for the
/// budget split and the determinism contract.
#[derive(Clone, Debug)]
pub struct PrivBasisDefense {
    spec: PrivacySpec,
    epsilon_window: f64,
    top_k: usize,
    seed: u64,
    windows_published: u64,
    prev: SanitizedRelease,
}

impl PrivBasisDefense {
    /// Create a defense with per-window budget `ε_w` and release cap `k`.
    ///
    /// # Panics
    /// If the budget is not positive and finite, or `k` is zero.
    pub fn new(spec: PrivacySpec, epsilon_window: f64, top_k: usize, seed: u64) -> Self {
        assert!(
            epsilon_window.is_finite() && epsilon_window > 0.0,
            "PrivBasis budget must be positive"
        );
        assert!(top_k > 0, "PrivBasis top-k must be positive");
        PrivBasisDefense {
            spec,
            epsilon_window,
            top_k,
            seed,
            windows_published: 0,
            prev: SanitizedRelease::default(),
        }
    }

    /// The per-window budget `ε_w`.
    pub fn epsilon_window(&self) -> f64 {
        self.epsilon_window
    }

    /// The release-size cap `k`.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// One itemset's noise source for the current window: seeded from the
    /// content hash so it is stable across processes, split by window index
    /// so republished windows redraw (there is deliberately no
    /// republication pinning here — under DP, pinning would be free, but
    /// the honest sequential-composition story re-spends the budget, and
    /// the averaging leak that creates is part of what the cross-defense
    /// bench measures).
    fn rng_for(&self, itemset: &ItemSet) -> SmallRng {
        SmallRng::split_stream(self.seed ^ content_hash(itemset), self.windows_published)
    }
}

/// FNV-1a over the itemset's item ids. [`ItemsetId`] is a process-local
/// intern index and must never reach a seed; the content hash is what makes
/// PrivBasis output reproducible across runs. Shares the
/// [`bfly_common::hash`] implementation with serve's key routing, so the
/// pinned vectors there also pin these noise seeds.
fn content_hash(itemset: &ItemSet) -> u64 {
    let mut h = bfly_common::hash::Fnv1a::new();
    for item in itemset.items() {
        h.write(&item.id().to_le_bytes());
    }
    h.finish()
}

impl PrivacyDefense for PrivBasisDefense {
    fn kind(&self) -> DefenseKind {
        DefenseKind::PrivBasis
    }

    fn spec(&self) -> &PrivacySpec {
        &self.spec
    }

    fn publish_with_delta(
        &mut self,
        frequent: &FrequentItemsets,
    ) -> (SanitizedRelease, ReleaseDelta) {
        let k_eff = self.top_k.min(frequent.len()).max(1);
        let sel_noise = Laplace::new(2.0 * k_eff as f64 / (self.epsilon_window / 2.0));
        let cnt_noise = Laplace::new(k_eff as f64 / (self.epsilon_window / 2.0));

        // Phase 1 — noisy selection: score every candidate with selection
        // noise, keep the k best. Per-candidate rngs draw selection noise
        // first, count noise second, so the two phases stay coupled to one
        // deterministic stream per (window, itemset).
        let mut scored: Vec<(f64, &'static ItemSet, SanitizedItemset)> = frequent
            .iter()
            .map(|e| {
                let itemset = e.itemset();
                let mut rng = self.rng_for(itemset);
                let score = e.support as f64 + sel_noise.sample(&mut rng);
                let sanitized = (e.support as f64 + cnt_noise.sample(&mut rng)).round() as i64;
                (
                    score,
                    itemset,
                    SanitizedItemset {
                        id: e.id,
                        true_support: e.support,
                        sanitized,
                    },
                )
            })
            .collect();
        scored.sort_unstable_by(|a, b| {
            b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)) // score desc, lex tiebreak
        });
        scored.truncate(k_eff);

        // Phase 2 — publish the winners in the shared publication order
        // (true support ascending, members lexicographic): the order
        // ReleaseDelta::apply reconstructs, so deltas round-trip.
        let mut entries: Vec<SanitizedItemset> = scored.into_iter().map(|(_, _, e)| e).collect();
        entries.sort_unstable_by(|a, b| {
            a.true_support
                .cmp(&b.true_support)
                .then_with(|| a.itemset().cmp(b.itemset()))
        });
        let release = SanitizedRelease::new(entries);
        let delta = ReleaseDelta::between(&self.prev, &release);
        self.prev = release.clone();
        self.windows_published += 1;
        (release, delta)
    }

    fn reset(&mut self) {
        self.windows_published = 0;
        self.prev = SanitizedRelease::default();
    }

    fn restore(&mut self, published: u64, previous: &SanitizedRelease) {
        // The window index is the only thing the noise stream keys on, and
        // `prev` is only the delta base — both come straight from the
        // recovered release, so post-restore publishes redraw exactly the
        // noise the uncrashed process would have.
        self.windows_published = published;
        self.prev = previous.clone();
    }

    fn boxed_clone(&self) -> Box<dyn PrivacyDefense> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0)
    }

    fn window(supports: &[(&str, u64)]) -> FrequentItemsets {
        FrequentItemsets::new(supports.iter().map(|&(s, t)| (iset(s), t)))
    }

    #[test]
    fn laplace_moments() {
        // Variance of Laplace(0, b) is 2b².
        let lap = Laplace::new(3.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| lap.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 18.0).abs() / 18.0 < 0.05, "var {var}");
    }

    #[test]
    fn seeded_runs_are_identical_and_seeds_matter() {
        let w = window(&[("a", 40), ("b", 38), ("ab", 30), ("c", 55), ("d", 29)]);
        let publish_all = |seed: u64| {
            let mut d = PrivBasisDefense::new(spec(), 1.0, 3, seed);
            (d.publish(&w), d.publish(&w), d.publish(&w))
        };
        assert_eq!(publish_all(9), publish_all(9), "same seed must replay");
        assert_ne!(
            publish_all(9).0,
            publish_all(10).0,
            "different seeds should perturb differently"
        );
    }

    #[test]
    fn windows_redraw_noise() {
        // No republication pinning: the same window at two publication
        // indices draws fresh noise (the DP budget is re-spent).
        let w = window(&[("a", 40), ("b", 38)]);
        let mut d = PrivBasisDefense::new(spec(), 1.0, 5, 4);
        let first = d.publish(&w);
        let second = d.publish(&w);
        assert_ne!(first, second, "window index must split the noise stream");
    }

    #[test]
    fn respects_top_k_and_orders_for_delta_apply() {
        let w = window(&[
            ("a", 40),
            ("b", 38),
            ("ab", 30),
            ("c", 55),
            ("d", 29),
            ("e", 61),
        ]);
        let mut d = PrivBasisDefense::new(spec(), 8.0, 3, 2);
        let r = d.publish(&w);
        assert_eq!(r.len(), 3, "release must be capped at k");
        let entries: Vec<_> = r.iter().collect();
        for pair in entries.windows(2) {
            assert!(
                (pair[0].true_support, pair[0].itemset())
                    <= (pair[1].true_support, pair[1].itemset()),
                "publication order violated"
            );
        }
        // With a generous budget the noisy top-k is the true top-k.
        let mut published: Vec<&ItemSet> = r.iter().map(|e| e.itemset() as &ItemSet).collect();
        published.sort();
        let mut expect = [iset("e"), iset("c"), iset("a")];
        expect.sort();
        assert_eq!(published, expect.iter().collect::<Vec<_>>());
    }

    #[test]
    fn noise_is_keyed_by_content_not_intern_order() {
        // Two defenses over permuted-but-equal windows publish identical
        // releases: per-itemset noise depends only on (seed, window index,
        // item ids), never on iteration or intern order.
        let forward = window(&[("a", 40), ("b", 38), ("ab", 30)]);
        let backward = window(&[("ab", 30), ("b", 38), ("a", 40)]);
        let mut d1 = PrivBasisDefense::new(spec(), 1.0, 5, 6);
        let mut d2 = PrivBasisDefense::new(spec(), 1.0, 5, 6);
        assert_eq!(d1.publish(&forward), d2.publish(&backward));
    }

    #[test]
    fn counts_are_noisy_but_unbiased() {
        let w = window(&[("a", 40)]);
        let n = 3000;
        let mean = (0..n)
            .map(|seed| {
                let mut d = PrivBasisDefense::new(spec(), 2.0, 1, seed);
                d.publish(&w).iter().next().unwrap().sanitized as f64
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 40.0).abs() < 0.5, "biased counts: {mean}");
    }

    #[test]
    fn reset_rewinds_the_window_index() {
        let w = window(&[("a", 40), ("b", 38)]);
        let mut d = PrivBasisDefense::new(spec(), 1.0, 5, 3);
        let first = d.publish(&w);
        d.publish(&w);
        d.reset();
        assert_eq!(d.publish(&w), first);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        PrivBasisDefense::new(spec(), 0.0, 5, 0);
    }
}
