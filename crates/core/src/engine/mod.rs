//! The staged release engine: partition → budget → bias → noise → publish.
//!
//! One window's publication is five explicit stages, each a small function
//! testable on its own, and each run afresh on every window:
//!
//! 1. **partition** — the mined itemsets into FECs
//!    ([`partition_into_fecs`]);
//! 2. **budget** — per-FEC `β^m` ranges (`PrivacySpec::max_bias`), which
//!    debug builds hold stage 3 to;
//! 3. **bias** — the [`BiasScheme`]'s one bias per FEC (Algorithm 1 for the
//!    order-preserving component, cold every window);
//! 4. **noise** — each FEC's draw is a pure function of `(seed,
//!    publication index, support, bias)` ([`seeded_noise`]);
//! 5. **publish** — applies the republication rule against the stream's
//!    [`PublicationHistory`] and emits the [`SanitizedRelease`], one entry
//!    per member of each FEC's run of the mining result, sharing its `Arc`.
//!
//! The engine keeps nothing between windows: the history it reads is the
//! caller's ([`crate::StreamPipeline`] owns one per stream), and so is the
//! one pass that turns a release into the next history and its
//! [`ReleaseDelta`]. `tests/release_engine.rs` pins the engine to the
//! from-scratch composition of the public stage functions
//! (`bfly_bench::publish_from_scratch`): same itemsets, same perturbed
//! supports, same deltas.

mod delta;

pub use delta::ReleaseDelta;

use crate::config::PrivacySpec;
use crate::fec::{partition_into_fecs, Fec};
use crate::history::PublicationHistory;
use crate::noise::seeded_noise;
use crate::order::OrderScratch;
use crate::release::{SanitizedItemset, SanitizedRelease};
use crate::scheme::BiasScheme;
use bfly_common::SanitizedSupport;
use bfly_mining::FrequentItemsets;

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
/// the previous release republishes its previous sanitized value verbatim,
/// so repeated observation gives the adversary nothing to average over.
///
/// A FEC's perturbation is a pure function of `(seed, publication index,
/// support, bias)`, never of iteration order; the index and the previous
/// release come from the stream's [`PublicationHistory`], the caller's.
///
/// ```
/// use bfly_core::{BiasScheme, PrivacySpec, PublicationHistory, Publisher};
/// use bfly_mining::FrequentItemsets;
///
/// let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
/// let mut publisher = Publisher::new(spec, BiasScheme::Basic, 42);
/// let mut history = PublicationHistory::default();
/// let mined = FrequentItemsets::new(vec![("ab".parse().unwrap(), 40u64)]);
/// let release = publisher.publish(&mined, &history);
/// let entry = release.get(&"ab".parse().unwrap()).unwrap();
/// // The sanitized support is within the α-wide noise region of the truth…
/// assert!((entry.sanitized - 40).unsigned_abs() <= spec.alpha() / 2 + 1);
/// // …and republishes identically while the true support is unchanged.
/// history.record(&release, 1);
/// assert_eq!(publisher.publish(&mined, &history), release);
/// ```
#[derive(Clone, Debug)]
pub struct Publisher {
    spec: PrivacySpec,
    scheme: BiasScheme,
    seed: u64,
    stats: EngineStats,
    /// Algorithm 1's buffers, kept for their capacity only.
    scratch: OrderScratch,
    /// Read and written only by the frozen [`Publisher::publish_with_delta`].
    history: PublicationHistory,
}

impl Publisher {
    /// Create a publisher with a deterministic seed.
    pub fn new(spec: PrivacySpec, scheme: BiasScheme, seed: u64) -> Self {
        Publisher {
            spec,
            scheme,
            seed,
            stats: EngineStats::default(),
            scratch: OrderScratch::default(),
            history: PublicationHistory::default(),
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

    // Frozen name: `benchmark/src/trace.rs:524`. See [`EngineStats`].
    #[doc(hidden)]
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Run all five stages over one window's mining output, pinning against
    /// `history`, the stream's previous release.
    pub fn publish(
        &mut self,
        frequent: &FrequentItemsets,
        history: &PublicationHistory,
    ) -> SanitizedRelease {
        self.stats.windows += 1;
        let fecs = partition_into_fecs(frequent);
        let biases = self.stage_bias(&fecs);
        debug_assert_eq!(biases.len(), fecs.len());
        debug_assert!(
            (fecs.iter().zip(&biases))
                .all(|(f, b)| b.abs() <= self.spec.max_bias(f.support()) + 1e-9),
            "stage 3 exceeded a stage-2 budget"
        );
        let noises = self.stage_noise(&fecs, &biases, history.published());
        SanitizedRelease::new(stage_publish(frequent, &fecs, &noises, history))
    }

    // Frozen: `benchmark/src/trace.rs:433` publishes through it, and a PR
    // may not edit `benchmark/` (ROADMAP 1(b)). The history it holds is the
    // only one outside a `StreamPipeline`; its position counts windows.
    #[doc(hidden)]
    pub fn publish_with_delta(
        &mut self,
        frequent: &FrequentItemsets,
    ) -> (SanitizedRelease, ReleaseDelta) {
        let mut history = std::mem::take(&mut self.history);
        let release = self.publish(frequent, &history);
        let delta = history.record(&release, self.stats.windows);
        self.history = history;
        (release, delta)
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
    fn stage_noise(&self, fecs: &[Fec], biases: &[f64], position: u64) -> Vec<i64> {
        let alpha = self.spec.alpha();
        fecs.iter()
            .zip(biases)
            .map(|(f, &bias)| seeded_noise(self.seed, position, f.support(), bias, alpha))
            .collect()
    }
}

/// Stage 5 (pure): apply the republication rule against `history` and emit
/// the entries in publication order. A pinned member keeps its previous
/// value, so members of one FEC may differ only where pins hold.
fn stage_publish(
    frequent: &FrequentItemsets,
    fecs: &[Fec],
    noises: &[i64],
    history: &PublicationHistory,
) -> Vec<SanitizedItemset> {
    let mut entries = Vec::with_capacity(frequent.len());
    for (fec, &noise) in fecs.iter().zip(noises) {
        let fresh = fec.support() as SanitizedSupport + noise;
        for member in fec.members(frequent) {
            entries.push(SanitizedItemset {
                id: member.id.clone(),
                true_support: fec.support(),
                sanitized: history.pinned(&member.id, fec.support()).unwrap_or(fresh),
            });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseRegion;
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

    /// One stream: a publisher and the history it publishes against.
    struct Stream {
        publisher: Publisher,
        history: PublicationHistory,
    }

    impl Stream {
        fn new(scheme: BiasScheme, seed: u64) -> Self {
            Stream {
                publisher: Publisher::new(spec(), scheme, seed),
                history: PublicationHistory::default(),
            }
        }

        fn publish(&mut self, w: &FrequentItemsets) -> SanitizedRelease {
            let release = self.publisher.publish(w, &self.history);
            let at = self.history.stream_len() + 1;
            self.history.record(&release, at);
            release
        }
    }

    #[test]
    fn seeded_noise_is_a_pure_function_of_seed_position_support_and_bias() {
        let s = spec();
        for position in [0u64, 1, 97] {
            for support in [25u64, 40, 173] {
                for bias in [-3.0, 0.0, 2.5] {
                    let a = seeded_noise(42, position, support, bias, s.alpha());
                    let b = seeded_noise(42, position, support, bias, s.alpha());
                    assert_eq!(a, b);
                    let region = NoiseRegion::centered(bias, s.alpha());
                    assert!(a >= region.lo() && a <= region.hi());
                }
            }
        }
        // Distinct seeds, and distinct positions under one seed, give
        // decorrelated draws somewhere in a modest sweep (not a proof — a
        // smoke check).
        let draw = |seed, position, t: u64| seeded_noise(seed, position, 40 + t, 0.0, s.alpha());
        assert!((0..32).any(|t| draw(1, 0, t) != draw(2, 0, t)));
        assert!((0..32).any(|t| draw(1, 0, t) != draw(1, 1, t)));
    }

    #[test]
    fn noise_stays_within_region_of_bias() {
        let mut p = Stream::new(BiasScheme::Basic, 7);
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
        let mut p = Stream::new(BiasScheme::RatioPreserving, 3);
        let f = window(&[("a", 30), ("b", 30), ("cd", 30), ("x", 55)]);
        let r = p.publish(&f);
        let s_a = r.get(&iset("a")).unwrap().sanitized;
        assert_eq!(r.get(&iset("b")).unwrap().sanitized, s_a);
        assert_eq!(r.get(&iset("cd")).unwrap().sanitized, s_a);
    }

    #[test]
    fn republication_pins_unchanged_supports() {
        let mut p = Stream::new(BiasScheme::Basic, 11);
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
        let mut p = Stream::new(BiasScheme::Basic, 5);
        let f = window(&[("a", 40)]);
        p.publish(&f);
        // a vanishes for one window...
        p.publish(&window(&[("b", 33)]));
        // ...and returns with the same support: nothing pins it.
        let third = p.publish(&f);
        assert_eq!(third.get(&iset("a")).unwrap().true_support, 40);

        // A support that returns after a change is drawn afresh: no
        // codebook maps a support to one value for the stream's life. A
        // fresh draw repeats the first by chance, about 1 time in α + 1.
        let value = |r: &SanitizedRelease| r.get(&iset("a")).unwrap().sanitized;
        let repeats = (0..64)
            .filter(|&seed| {
                let mut p = Stream::new(BiasScheme::Basic, seed);
                let first = value(&p.publish(&window(&[("a", 40)])));
                p.publish(&window(&[("a", 41)]));
                value(&p.publish(&window(&[("a", 40)]))) == first
            })
            .count();
        assert!(
            repeats <= 16,
            "{repeats}/64 returns repeated the first value"
        );
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
                let r = p.publish(&f, &PublicationHistory::default());
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
        let mut p = Stream::new(BiasScheme::OrderPreserving { gamma: 2 }, 21);
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
        let forward = window(&[("a", 30), ("b", 32), ("c", 60)]);
        let backward = window(&[("c", 60), ("b", 32), ("a", 30)]);
        let mut p1 = Stream::new(BiasScheme::Basic, 13);
        let mut p2 = Stream::new(BiasScheme::Basic, 13);
        assert_eq!(p1.publish(&forward), p2.publish(&backward));
        // And dropping an unrelated FEC leaves the others' draws untouched.
        let mut p3 = Stream::new(BiasScheme::Basic, 13);
        let smaller = p3.publish(&window(&[("a", 30), ("c", 60)]));
        let full = p1.publish(&forward); // republished values, same draws
        assert_eq!(
            smaller.get(&iset("c")).unwrap().sanitized,
            full.get(&iset("c")).unwrap().sanitized
        );
    }

    #[test]
    fn unchanged_window_yields_an_empty_delta() {
        let mut p = Publisher::new(spec(), BiasScheme::RatioPreserving, 11);
        let w = window(&[("a", 30), ("b", 30), ("c", 55)]);
        let (first, d0) = p.publish_with_delta(&w);
        assert_eq!(d0.added.len(), first.len(), "everything is new at window 1");
        let (second, d1) = p.publish_with_delta(&w);
        assert_eq!(second, first, "republication rule violated");
        assert_eq!(d1, ReleaseDelta::default());
    }

    #[test]
    fn engine_stats_count_windows_and_dp_solves() {
        let mut p = Stream::new(BiasScheme::OrderPreserving { gamma: 2 }, 5);
        let w = window(&[("a", 30), ("b", 33)]);
        p.publish(&w);
        p.publish(&w);
        let stats = p.publisher.engine_stats();
        assert_eq!(
            (
                stats.windows,
                stats.dp_full_solves,
                stats.dp_layers_computed
            ),
            (2, 2, 4)
        );
    }
}
