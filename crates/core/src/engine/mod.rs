//! The staged release engine: partition → budget → bias → noise → publish.
//!
//! One window's publication is five explicit stages, each a small function
//! testable on its own, and each run afresh on every window:
//!
//! 1. **partition** — the mined itemsets into FECs
//!    ([`partition_into_fecs`]);
//! 2. **budget** — per-FEC `β^m` ranges ([`stage_budget`]);
//! 3. **bias** — the [`BiasScheme`]'s one bias per FEC (Algorithm 1 for the
//!    order-preserving component, cold every window);
//! 4. **noise** — each FEC's draw is a pure function of `(seed, support,
//!    bias)` ([`seeded_noise`]), so noise does not depend on iteration
//!    order;
//! 5. **publish** — applies the republication rule and emits both the full
//!    [`SanitizedRelease`] and the [`ReleaseDelta`] against the previous
//!    publication.
//!
//! The only state carried between windows is the republication pin map.
//! `tests/release_engine.rs` pins the engine to the from-scratch composition
//! of the public stage functions (`bfly_bench::publish_from_scratch`): same
//! itemsets, same perturbed supports, same deltas.

mod delta;

pub use delta::ReleaseDelta;

use crate::config::PrivacySpec;
use crate::fec::{partition_into_fecs, Fec};
use crate::noise::NoiseRegion;
use crate::order::OrderScratch;
use crate::release::{SanitizedItemset, SanitizedRelease};
use crate::scheme::BiasScheme;
use bfly_common::rng::SmallRng;
use bfly_common::{ItemsetId, SanitizedSupport, Support};
use bfly_mining::FrequentItemsets;
use std::collections::HashMap;

// Frozen shape: `benchmark/src/trace.rs:216,524` stores one of these and
// `benchmark/src/tracerun.rs:213-224` reads the five `dp_*` fields, and a PR
// may not edit `benchmark/`. Nothing is cached between windows, so three of
// them are constant 0. Goes with the `core.engine.dp_*` metrics (ROADMAP 1(a)).
/// Publication work counters.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Windows published.
    pub windows: u64,
    /// Always 0.
    pub dp_full_reuse: u64,
    /// Always 0.
    pub dp_warm_starts: u64,
    /// Windows on which Algorithm 1 ran (`γ > 0`, at least two FECs).
    pub dp_full_solves: u64,
    /// Always 0.
    pub dp_layers_reused: u64,
    /// DP layers expanded.
    pub dp_layers_computed: u64,
}

/// Publishes sanitized windows: partitions the mined itemsets into FECs,
/// asks the [`BiasScheme`] for one bias per FEC, draws one noise value per
/// FEC from the shared-width region, and applies **Prior Knowledge 2's
/// republication rule**: an itemset whose true support is unchanged since
/// the previous window republishes its previous sanitized value verbatim,
/// so repeated observation gives the adversary nothing to average over.
///
/// A FEC's perturbation is a pure function of `(seed, support, bias)`, never
/// of iteration order, and the pins are the only state carried from one
/// window to the next.
///
/// ```
/// use bfly_core::{BiasScheme, PrivacySpec, Publisher};
/// use bfly_mining::FrequentItemsets;
///
/// let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
/// let mut publisher = Publisher::new(spec, BiasScheme::Basic, 42);
/// let mined = FrequentItemsets::new(vec![("ab".parse().unwrap(), 40u64)]);
/// let release = publisher.publish(&mined);
/// let entry = release.get(&"ab".parse().unwrap()).unwrap();
/// // The sanitized support is within the α-wide noise region of the truth…
/// assert!((entry.sanitized - 40).unsigned_abs() <= spec.alpha() / 2 + 1);
/// // …and republishes identically while the true support is unchanged.
/// assert_eq!(publisher.publish(&mined), release);
/// ```
#[derive(Clone, Debug)]
pub struct Publisher {
    spec: PrivacySpec,
    scheme: BiasScheme,
    seed: u64,
    /// interned itemset → (true support at last publication, sanitized value
    /// then): the republication-rule state and the delta base.
    values: HashMap<ItemsetId, (Support, SanitizedSupport)>,
    stats: EngineStats,
    /// Algorithm 1's buffers, kept for their capacity only.
    scratch: OrderScratch,
}

impl Publisher {
    /// Create a publisher with a deterministic seed.
    pub fn new(spec: PrivacySpec, scheme: BiasScheme, seed: u64) -> Self {
        Publisher {
            spec,
            scheme,
            seed,
            values: HashMap::new(),
            stats: EngineStats::default(),
            scratch: OrderScratch::default(),
        }
    }

    // Frozen name: `benchmark/src/trace.rs:287` constructs its publisher
    // through it, and a PR may not edit `benchmark/`. No other caller.
    #[doc(hidden)]
    pub fn new_incremental(spec: PrivacySpec, scheme: BiasScheme, seed: u64) -> Self {
        Publisher::new(spec, scheme, seed)
    }

    /// The privacy/precision contract.
    pub fn spec(&self) -> &PrivacySpec {
        &self.spec
    }

    /// The bias scheme in force.
    pub fn scheme(&self) -> &BiasScheme {
        &self.scheme
    }

    // Frozen name: `benchmark/src/trace.rs:524`. See [`EngineStats`].
    #[doc(hidden)]
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Sanitize one window's mining output.
    pub fn publish(&mut self, frequent: &FrequentItemsets) -> SanitizedRelease {
        self.publish_with_delta(frequent).0
    }

    /// Run all five stages over one window's mining output. Returns the full
    /// release and what changed against the previous publication (the serve
    /// layer's `release_delta` payload).
    pub fn publish_with_delta(
        &mut self,
        frequent: &FrequentItemsets,
    ) -> (SanitizedRelease, ReleaseDelta) {
        self.stats.windows += 1;
        let fecs = partition_into_fecs(frequent);
        let budgets = stage_budget(&fecs, &self.spec);
        let biases = self.stage_bias(&fecs);
        debug_assert_eq!(biases.len(), fecs.len());
        debug_assert!(
            biases
                .iter()
                .zip(&budgets)
                .all(|(b, m)| b.abs() <= m + 1e-9),
            "stage 3 exceeded a stage-2 budget"
        );
        let noises = self.stage_noise(&fecs, &biases);
        let (entries, delta, next) = stage_publish(&fecs, &noises, &self.values);
        // Itemsets absent from this window lose their pin: continuity over
        // *consecutive* windows is what the republication rule requires.
        self.values = next;
        (SanitizedRelease::new(entries), delta)
    }

    /// Reinstate the cross-window publication state from a previous release,
    /// as if `windows` publications had already run and the last one emitted
    /// `previous`.
    ///
    /// This is the WAL-recovery hook. A fresh publish cannot substitute for
    /// it: the republication rule may have pinned a sanitized value drawn
    /// under an *earlier* window's bias, and only the `(true, sanitized)`
    /// pairs of the previous release carry those pins forward.
    pub fn restore(&mut self, windows: u64, previous: &SanitizedRelease) {
        self.reset();
        self.stats.windows = windows;
        self.values = previous
            .iter()
            .map(|e| (e.id, (e.true_support, e.sanitized)))
            .collect();
    }

    /// Drop all cross-window state (e.g. when retargeting to a new stream).
    pub fn reset(&mut self) {
        self.values.clear();
        self.stats = EngineStats::default();
    }

    /// Stage 3: one bias per FEC.
    fn stage_bias(&mut self, fecs: &[Fec]) -> Vec<f64> {
        let biases = self.scheme.biases_with(fecs, &self.spec, &mut self.scratch);
        let layers = self.scratch.layers_expanded() as u64;
        self.stats.dp_full_solves += u64::from(layers > 0);
        self.stats.dp_layers_computed += layers;
        biases
    }

    /// Stage 4: one noise draw per FEC (members share it, so the class's
    /// internal equalities survive sanitization exactly).
    fn stage_noise(&self, fecs: &[Fec], biases: &[f64]) -> Vec<i64> {
        fecs.iter()
            .zip(biases)
            .map(|(f, &bias)| seeded_noise(self.seed, f.support(), bias, self.spec.alpha()))
            .collect()
    }
}

/// Stage 2: per-FEC bias budgets `β^m` (the spec's maximum adjustable
/// range). Trivial, but split out so the budget a release was produced
/// under is assertable stage-by-stage.
pub fn stage_budget(fecs: &[Fec], spec: &PrivacySpec) -> Vec<f64> {
    fecs.iter().map(|f| spec.max_bias(f.support())).collect()
}

/// A FEC's noise draw as a pure function of `(seed, support, bias, α)`: the
/// support identifies the class by content (not by position or handle, both
/// of which vary with iteration and intern order), and the draw comes from a
/// [`SmallRng::split_stream`] keyed on it. Two engines with the same seed
/// that agree on a FEC's support and bias agree on its noise — regardless of
/// which other FECs exist or in what order they were processed.
pub fn seeded_noise(seed: u64, support: Support, bias: f64, alpha: u64) -> i64 {
    NoiseRegion::centered(bias, alpha).sample(&mut SmallRng::split_stream(seed, support))
}

/// Stage 5 (pure): apply the republication rule against the previous
/// publication state, emit the entries in publication order, the delta, and
/// the next publication state.
#[allow(clippy::type_complexity)]
fn stage_publish(
    fecs: &[Fec],
    noises: &[i64],
    prev: &HashMap<ItemsetId, (Support, SanitizedSupport)>,
) -> (
    Vec<SanitizedItemset>,
    ReleaseDelta,
    HashMap<ItemsetId, (Support, SanitizedSupport)>,
) {
    let total: usize = fecs.iter().map(Fec::size).sum();
    let mut entries = Vec::with_capacity(total);
    let mut next = HashMap::with_capacity(total);
    let mut delta = ReleaseDelta::default();
    for (fec, &noise) in fecs.iter().zip(noises) {
        for &member in fec.members() {
            let previous = prev.get(&member).copied();
            let sanitized = match previous {
                // Republication rule: unchanged true support in the directly
                // preceding window ⇒ identical sanitized value.
                Some((prev_true, prev_sanitized)) if prev_true == fec.support() => prev_sanitized,
                _ => fec.support() as SanitizedSupport + noise,
            };
            let entry = SanitizedItemset {
                id: member,
                true_support: fec.support(),
                sanitized,
            };
            match previous {
                None => delta.added.push(entry),
                Some(pair) if pair != (entry.true_support, entry.sanitized) => {
                    delta.changed.push(entry)
                }
                Some(_) => {}
            }
            next.insert(member, (fec.support(), sanitized));
            entries.push(entry);
        }
    }
    let mut removed: Vec<ItemsetId> = prev
        .keys()
        .filter(|id| !next.contains_key(*id))
        .copied()
        .collect();
    removed.sort_unstable_by(|a, b| a.resolve().cmp(b.resolve()));
    delta.removed = removed;
    (entries, delta, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::ItemSet;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0) // α=12, σ²=14
    }

    fn window(supports: &[(&str, u64)]) -> FrequentItemsets {
        FrequentItemsets::new(supports.iter().map(|&(s, t)| (iset(s), t)))
    }

    #[test]
    fn seeded_noise_is_a_pure_content_function() {
        let s = spec();
        for support in [25u64, 40, 173] {
            for bias in [-3.0, 0.0, 2.5] {
                let a = seeded_noise(42, support, bias, s.alpha());
                let b = seeded_noise(42, support, bias, s.alpha());
                assert_eq!(a, b);
                let region = NoiseRegion::centered(bias, s.alpha());
                assert!(a >= region.lo() && a <= region.hi());
            }
        }
        // Distinct seeds and distinct supports give decorrelated draws
        // somewhere in a modest sweep (not a proof — a smoke check).
        assert!((0..32).any(|t| {
            seeded_noise(1, 40 + t, 0.0, s.alpha()) != seeded_noise(2, 40 + t, 0.0, s.alpha())
        }));
    }

    #[test]
    fn stage_budget_is_the_spec_budget() {
        let f = partition_into_fecs(&window(&[("a", 30), ("b", 60)]));
        let s = spec();
        assert_eq!(stage_budget(&f, &s), vec![s.max_bias(30), s.max_bias(60)]);
    }

    #[test]
    fn noise_stays_within_region_of_bias() {
        let mut p = Publisher::new(spec(), BiasScheme::Basic, 7);
        let f = window(&[("a", 40), ("b", 31), ("ab", 29)]);
        let r = p.publish(&f);
        assert_eq!(r.len(), 3);
        for e in r.iter() {
            let noise = e.sanitized - e.true_support as i64;
            // Basic: bias 0, region ⊂ [−α/2−1, α/2+1].
            assert!(
                noise.abs() <= spec().alpha() as i64 / 2 + 1,
                "noise {noise}"
            );
        }
    }

    #[test]
    fn fec_members_share_one_draw() {
        let mut p = Publisher::new(spec(), BiasScheme::RatioPreserving, 3);
        let f = window(&[("a", 30), ("b", 30), ("cd", 30), ("x", 55)]);
        let r = p.publish(&f);
        let s_a = r.get(&iset("a")).unwrap().sanitized;
        assert_eq!(r.get(&iset("b")).unwrap().sanitized, s_a);
        assert_eq!(r.get(&iset("cd")).unwrap().sanitized, s_a);
    }

    #[test]
    fn republication_pins_unchanged_supports() {
        let mut p = Publisher::new(spec(), BiasScheme::Basic, 11);
        let f = window(&[("a", 40), ("b", 32)]);
        let first = p.publish(&f);
        // Same supports for 50 windows: sanitized values must never move.
        for _ in 0..50 {
            let again = p.publish(&f);
            assert_eq!(again, first, "republication rule violated");
        }
        // Support change ⇒ fresh perturbation around the new value.
        let changed = window(&[("a", 41), ("b", 32)]);
        let third = p.publish(&changed);
        let a = third.get(&iset("a")).unwrap();
        assert_eq!(a.true_support, 41);
        assert!((a.sanitized - 41).abs() <= spec().alpha() as i64 / 2 + 1);
        // b unchanged: still pinned.
        assert_eq!(
            third.get(&iset("b")).unwrap().sanitized,
            first.get(&iset("b")).unwrap().sanitized
        );
    }

    #[test]
    fn dropping_out_breaks_the_pin_eligibility() {
        let mut p = Publisher::new(spec(), BiasScheme::Basic, 5);
        let f = window(&[("a", 40)]);
        let first = p.publish(&f);
        // a vanishes for one window...
        p.publish(&window(&[("b", 33)]));
        // ...and returns with the same support: a fresh draw is allowed
        // (consecutiveness broken). We can't assert inequality (the new draw
        // may collide with the old one), but the cache must have been
        // rebuilt.
        let third = p.publish(&f);
        assert_eq!(third.get(&iset("a")).unwrap().true_support, 40);
        let _ = first;
    }

    #[test]
    fn expected_precision_meets_epsilon_budget() {
        // Average pred over many fresh draws ≤ ε (Inequation 1).
        let s = spec();
        for scheme in BiasScheme::paper_variants(2) {
            let mut total = 0.0;
            let mut count = 0u64;
            for seed in 0..300 {
                let mut p = Publisher::new(s, scheme, seed);
                let f = window(&[("a", 25), ("b", 40), ("c", 80), ("d", 81)]);
                let r = p.publish(&f);
                for e in r.iter() {
                    let err = e.sanitized as f64 - e.true_support as f64;
                    total += (err * err) / (e.true_support as f64).powi(2);
                    count += 1;
                }
            }
            let avg_pred = total / count as f64;
            assert!(
                avg_pred <= s.epsilon() * 1.05,
                "{}: empirical pred {avg_pred} exceeds ε={}",
                scheme.name(),
                s.epsilon()
            );
        }
    }

    #[test]
    fn warm_dp_matches_constraints_and_reuses_work() {
        let s = spec();
        let scheme = BiasScheme::OrderPreserving { gamma: 2 };
        let mut p = Publisher::new(s, scheme, 21);
        let w1 = window(&[("a", 30), ("b", 32), ("c", 60)]);
        let w2 = window(&[("a", 30), ("b", 32), ("c", 60)]); // unchanged
        let w3 = window(&[("a", 30), ("b", 33), ("c", 60)]); // local change
        for w in [&w1, &w2, &w3] {
            let r = p.publish(w);
            for e in r.iter() {
                let err = (e.sanitized - e.true_support as i64).unsigned_abs();
                let budget =
                    (s.epsilon().sqrt() * e.true_support as f64).ceil() as u64 + s.alpha() / 2 + 1;
                assert!(err <= budget);
            }
        }
    }

    #[test]
    fn seeded_noise_is_iteration_order_independent() {
        // Feed the same logical window with entries arriving in different
        // orders: content-seeded noise must give identical releases.
        let s = spec();
        let forward = window(&[("a", 30), ("b", 32), ("c", 60)]);
        let backward = window(&[("c", 60), ("b", 32), ("a", 30)]);
        let mut p1 = Publisher::new(s, BiasScheme::Basic, 13);
        let mut p2 = Publisher::new(s, BiasScheme::Basic, 13);
        assert_eq!(p1.publish(&forward), p2.publish(&backward));
        // And dropping an unrelated FEC leaves the others' draws untouched.
        let mut p3 = Publisher::new(s, BiasScheme::Basic, 13);
        let smaller = p3.publish(&window(&[("a", 30), ("c", 60)]));
        let full = p1.publish(&forward); // republished values, same draws
        assert_eq!(
            smaller.get(&iset("c")).unwrap().sanitized,
            full.get(&iset("c")).unwrap().sanitized
        );
    }

    #[test]
    fn deltas_chain_back_to_full_releases() {
        let s = spec();
        let mut p = Publisher::new(s, BiasScheme::Basic, 3);
        let mut prev = SanitizedRelease::default();
        for w in [
            window(&[("a", 30), ("b", 45)]),
            window(&[("a", 31), ("b", 45), ("c", 50)]),
            window(&[("b", 45), ("c", 50)]),
        ] {
            let (release, delta) = p.publish_with_delta(&w);
            assert_eq!(delta.apply(&prev), release);
            assert_eq!(delta, ReleaseDelta::between(&prev, &release));
            prev = release;
        }
    }

    #[test]
    fn unchanged_window_yields_an_empty_delta() {
        let s = spec();
        let mut p = Publisher::new(s, BiasScheme::RatioPreserving, 11);
        let w = window(&[("a", 30), ("b", 30), ("c", 55)]);
        let (first, d0) = p.publish_with_delta(&w);
        assert_eq!(d0.len(), first.len(), "everything is new at window 1");
        let (second, d1) = p.publish_with_delta(&w);
        assert_eq!(second, first, "republication rule violated");
        assert!(d1.is_empty(), "{d1:?}");
    }

    #[test]
    fn reset_clears_pins() {
        let mut p = Publisher::new(spec(), BiasScheme::Basic, 9);
        let f = window(&[("a", 40)]);
        p.publish(&f);
        p.reset();
        // After reset the next publish may re-draw; the cache is empty so
        // the entry is recomputed rather than replayed.
        let r = p.publish(&f);
        assert_eq!(r.get(&iset("a")).unwrap().true_support, 40);
    }

    #[test]
    fn reset_clears_state_and_counters() {
        let s = spec();
        let mut p = Publisher::new(s, BiasScheme::OrderPreserving { gamma: 2 }, 5);
        let w = window(&[("a", 30), ("b", 33)]);
        p.publish(&w);
        p.publish(&w);
        let stats = p.engine_stats();
        assert_eq!(
            (
                stats.windows,
                stats.dp_full_solves,
                stats.dp_layers_computed
            ),
            (2, 2, 4)
        );
        p.reset();
        assert_eq!(p.engine_stats(), EngineStats::default());
        // Post-reset the first publish re-perturbs everything: full delta.
        let (release, delta) = p.publish_with_delta(&w);
        assert_eq!(delta.len(), release.len());
    }
}
