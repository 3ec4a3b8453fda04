//! The staged release engine: partition → budget → bias → noise → publish.
//!
//! One window's publication used to live in a single opaque loop inside the
//! publisher. The engine splits it into five explicit stages, each a small
//! function testable on its own, and makes the expensive ones incremental
//! across windows:
//!
//! 1. **partition** — FECs come from the delta-maintained [`FecIndex`]
//!    (O(churn) per window) instead of a from-scratch rebuild;
//! 2. **budget** — per-FEC `β^m` ranges ([`stage_budget`]);
//! 3. **bias** — the order-preserving DP is warm-started from the previous
//!    window's layers ([`WarmOrderDp`]): common-prefix layers are reused
//!    verbatim, and later layers are spliced from the cache wherever
//!    normalization proves them equal (see `warm.rs`);
//! 4. **noise** — each FEC's draw is a pure function of `(seed, support,
//!    bias)` ([`seeded_noise`]), so noise no longer depends on iteration
//!    order — the property that makes incremental and batch paths agree
//!    bit for bit;
//! 5. **publish** — applies the republication rule and emits both the full
//!    [`SanitizedRelease`] and the [`ReleaseDelta`] against the previous
//!    publication.
//!
//! Every incremental shortcut is pinned to the batch path by differential
//! tests (`tests/release_engine.rs`): same itemsets, same perturbed
//! supports, same FEC partition, same deltas, at 1/2/8 threads.

mod delta;
mod fec_index;
mod warm;

pub use delta::ReleaseDelta;
pub use fec_index::{FecChurn, FecIndex};
pub use warm::WarmOrderDp;

use crate::config::PrivacySpec;
use crate::fec::{partition_into_fecs, Fec};
use crate::noise::NoiseRegion;
use crate::ratio::ratio_preserving_biases;
use crate::release::{SanitizedItemset, SanitizedRelease};
use crate::scheme::BiasScheme;
use bfly_common::rng::SmallRng;
use bfly_common::{ItemsetId, SanitizedSupport, Support};
use bfly_mining::FrequentItemsets;
use std::collections::HashMap;

/// How stage 4 derives each FEC's noise draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseMode {
    /// Each FEC's draw is a pure function of `(seed, FEC support, bias)` via
    /// [`seeded_noise`] — independent of iteration order and of what other
    /// FECs exist, so delta-driven and batch publication agree exactly.
    Seeded,
    /// Legacy stream: one shared generator sampled once per FEC in ascending
    /// support order — exactly the pre-engine publisher's draws, kept for
    /// fixtures pinned to the old stream.
    Sequential,
}

/// Cross-window work counters: how much churn the index absorbed and how
/// often the warm-started DP engaged versus fell back to a full recompute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Windows published.
    pub windows: u64,
    /// Itemsets that entered the frequent set, across all windows.
    pub itemsets_added: u64,
    /// Itemsets that left the frequent set.
    pub itemsets_removed: u64,
    /// Itemsets whose support moved between classes.
    pub supports_shifted: u64,
    /// Windows whose DP layers were reused wholesale (identical skeleton).
    pub dp_full_reuse: u64,
    /// Windows where the DP recomputed only a changed suffix.
    pub dp_warm_starts: u64,
    /// Windows where a changed prefix forced a full DP recompute.
    pub dp_full_solves: u64,
    /// DP layers served from cache.
    pub dp_layers_reused: u64,
    /// DP layers actually expanded.
    pub dp_layers_computed: u64,
}

/// The staged publication engine. [`crate::Publisher`] is a thin wrapper
/// around one of these; the engine itself is public so tests, benches, and
/// ablations can drive individual stages and read the work counters.
#[derive(Clone, Debug)]
pub struct ReleaseEngine {
    spec: PrivacySpec,
    scheme: BiasScheme,
    seed: u64,
    /// Drawn from only in [`NoiseMode::Sequential`].
    rng: SmallRng,
    noise_mode: NoiseMode,
    /// interned itemset → (true support at last publication, sanitized value
    /// then): the republication-rule state and the delta base.
    values: HashMap<ItemsetId, (Support, SanitizedSupport)>,
    incremental: Option<IncrementalState>,
    windows: u64,
    churn: FecChurn,
}

#[derive(Clone, Debug, Default)]
struct IncrementalState {
    index: FecIndex,
    warm: WarmOrderDp,
}

impl ReleaseEngine {
    /// A batch engine: every stage recomputes from scratch (content-seeded
    /// noise, so its output still matches an incremental engine exactly).
    pub fn new(spec: PrivacySpec, scheme: BiasScheme, seed: u64) -> Self {
        ReleaseEngine {
            spec,
            scheme,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            noise_mode: NoiseMode::Seeded,
            values: HashMap::new(),
            incremental: None,
            windows: 0,
            churn: FecChurn::default(),
        }
    }

    /// An incremental engine: FECs delta-maintained, order DP warm-started.
    pub fn incremental(spec: PrivacySpec, scheme: BiasScheme, seed: u64) -> Self {
        let mut e = Self::new(spec, scheme, seed);
        e.incremental = Some(IncrementalState::default());
        e
    }

    /// Switch the noise derivation (before the first publish).
    pub fn with_noise_mode(mut self, mode: NoiseMode) -> Self {
        self.noise_mode = mode;
        self
    }

    /// The privacy/precision contract.
    pub fn spec(&self) -> &PrivacySpec {
        &self.spec
    }

    /// The bias scheme in force.
    pub fn scheme(&self) -> &BiasScheme {
        &self.scheme
    }

    /// Is the delta-maintained path active?
    pub fn is_incremental(&self) -> bool {
        self.incremental.is_some()
    }

    /// Work counters accumulated since construction (or [`reset`](Self::reset)).
    pub fn stats(&self) -> EngineStats {
        let mut s = EngineStats {
            windows: self.windows,
            itemsets_added: self.churn.added as u64,
            itemsets_removed: self.churn.removed as u64,
            supports_shifted: self.churn.shifted as u64,
            ..EngineStats::default()
        };
        if let Some(inc) = &self.incremental {
            let (reuse, warm, full) = inc.warm.solve_counters();
            s.dp_full_reuse = reuse;
            s.dp_warm_starts = warm;
            s.dp_full_solves = full;
            let (lr, lc) = inc.warm.layer_counters();
            s.dp_layers_reused = lr;
            s.dp_layers_computed = lc;
        }
        s
    }

    /// Run all five stages over one window's mining output. Returns the full
    /// release and its delta against the previous publication.
    pub fn publish(&mut self, frequent: &FrequentItemsets) -> (SanitizedRelease, ReleaseDelta) {
        self.windows += 1;
        let fecs = self.stage_partition(frequent);
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
    /// pairs of the previous release carry those pins forward. The
    /// incremental FEC index and warm DP stay empty — both are perf-only
    /// caches whose from-empty update is pinned equal to the batch path.
    pub fn restore(&mut self, windows: u64, previous: &SanitizedRelease) {
        self.reset();
        self.windows = windows;
        self.values = previous
            .iter()
            .map(|e| (e.id, (e.true_support, e.sanitized)))
            .collect();
    }

    /// Drop all cross-window state (stream retarget). The sequential noise
    /// stream, if any, keeps its position — matching the pre-engine
    /// publisher's reset semantics.
    pub fn reset(&mut self) {
        self.values.clear();
        self.windows = 0;
        self.churn = FecChurn::default();
        if let Some(inc) = &mut self.incremental {
            inc.index.clear();
            inc.warm.reset();
        }
    }

    /// Stage 1: the FEC partition — delta-maintained when incremental,
    /// rebuilt when batch. The two are pinned equal in debug builds.
    fn stage_partition(&mut self, frequent: &FrequentItemsets) -> Vec<Fec> {
        let Some(inc) = &mut self.incremental else {
            return partition_into_fecs(frequent);
        };
        let churn = inc.index.update(frequent);
        self.churn.added += churn.added;
        self.churn.removed += churn.removed;
        self.churn.shifted += churn.shifted;
        let fecs = inc.index.fecs();
        debug_assert_eq!(
            fecs,
            partition_into_fecs(frequent),
            "delta-maintained FEC index diverged from the batch partition"
        );
        fecs
    }

    /// Stage 3: one bias per FEC. Incremental engines warm-start the order
    /// DP; the ratio component (stateless, linear) always recomputes.
    fn stage_bias(&mut self, fecs: &[Fec]) -> Vec<f64> {
        let Some(inc) = &mut self.incremental else {
            return self.scheme.biases(fecs, &self.spec);
        };
        match self.scheme {
            BiasScheme::OrderPreserving { gamma } => inc.warm.solve(fecs, &self.spec, gamma),
            BiasScheme::Hybrid { lambda, gamma } => {
                assert!(
                    (0.0..=1.0).contains(&lambda),
                    "hybrid λ must be in [0,1], got {lambda}"
                );
                let op = inc.warm.solve(fecs, &self.spec, gamma);
                let rp = ratio_preserving_biases(fecs, &self.spec);
                op.iter()
                    .zip(&rp)
                    .map(|(o, r)| lambda * o + (1.0 - lambda) * r)
                    .collect()
            }
            _ => self.scheme.biases(fecs, &self.spec),
        }
    }

    /// Stage 4: one noise draw per FEC (members share it, so the class's
    /// internal equalities survive sanitization exactly).
    fn stage_noise(&mut self, fecs: &[Fec], biases: &[f64]) -> Vec<i64> {
        match self.noise_mode {
            NoiseMode::Seeded => fecs
                .iter()
                .zip(biases)
                .map(|(f, &bias)| seeded_noise(self.seed, f.support(), bias, self.spec.alpha()))
                .collect(),
            // The legacy shared-rng stream consumes draws in FEC order.
            NoiseMode::Sequential => fecs
                .iter()
                .zip(biases)
                .map(|(_, &bias)| {
                    NoiseRegion::centered(bias, self.spec.alpha()).sample(&mut self.rng)
                })
                .collect(),
        }
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

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0) // α=12
    }

    fn window(supports: &[(&str, u64)]) -> FrequentItemsets {
        FrequentItemsets::new(
            supports
                .iter()
                .map(|&(s, t)| (s.parse::<ItemSet>().unwrap(), t)),
        )
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
    fn batch_and_incremental_engines_agree_per_window() {
        let s = spec();
        let scheme = BiasScheme::Hybrid {
            lambda: 0.4,
            gamma: 2,
        };
        let mut batch = ReleaseEngine::new(s, scheme, 7);
        let mut inc = ReleaseEngine::incremental(s, scheme, 7);
        let windows = [
            window(&[("a", 30), ("b", 32), ("c", 60)]),
            window(&[("a", 30), ("b", 32), ("c", 60)]),
            window(&[("a", 30), ("b", 33), ("c", 60), ("d", 61)]),
            window(&[("b", 33), ("c", 60), ("d", 61)]),
        ];
        for w in &windows {
            let (rb, db) = batch.publish(w);
            let (ri, di) = inc.publish(w);
            assert_eq!(rb, ri);
            assert_eq!(db, di);
        }
        let stats = inc.stats();
        assert_eq!(stats.windows, 4);
        assert!(stats.dp_full_reuse >= 1, "{stats:?}");
    }

    #[test]
    fn deltas_chain_back_to_full_releases() {
        let s = spec();
        let mut e = ReleaseEngine::incremental(s, BiasScheme::Basic, 3);
        let mut prev = SanitizedRelease::default();
        for w in [
            window(&[("a", 30), ("b", 45)]),
            window(&[("a", 31), ("b", 45), ("c", 50)]),
            window(&[("b", 45), ("c", 50)]),
        ] {
            let (release, delta) = e.publish(&w);
            assert_eq!(delta.apply(&prev), release);
            assert_eq!(delta, ReleaseDelta::between(&prev, &release));
            prev = release;
        }
    }

    #[test]
    fn unchanged_window_yields_an_empty_delta() {
        let s = spec();
        let mut e = ReleaseEngine::new(s, BiasScheme::RatioPreserving, 11);
        let w = window(&[("a", 30), ("b", 30), ("c", 55)]);
        let (first, d0) = e.publish(&w);
        assert_eq!(d0.len(), first.len(), "everything is new at window 1");
        let (second, d1) = e.publish(&w);
        assert_eq!(second, first, "republication rule violated");
        assert!(d1.is_empty(), "{d1:?}");
    }

    #[test]
    fn sequential_mode_reproduces_the_legacy_draw_stream() {
        // The legacy publisher drew one sample per FEC in ascending support
        // order from a single seeded generator. Replay that exact loop here
        // and pin the engine's Sequential mode to it.
        let s = spec();
        let seed = 19;
        let w = window(&[("a", 30), ("b", 30), ("c", 41), ("d", 55)]);
        let mut engine =
            ReleaseEngine::new(s, BiasScheme::Basic, seed).with_noise_mode(NoiseMode::Sequential);
        let (release, _) = engine.publish(&w);

        let mut rng = SmallRng::seed_from_u64(seed);
        let fecs = partition_into_fecs(&w);
        for fec in &fecs {
            let noise = NoiseRegion::centered(0.0, s.alpha()).sample(&mut rng);
            for &member in fec.members() {
                let got = release
                    .iter()
                    .find(|e| e.id == member)
                    .expect("member published");
                assert_eq!(got.sanitized, fec.support() as i64 + noise);
            }
        }
    }

    #[test]
    fn reset_clears_state_but_not_the_sequential_stream() {
        let s = spec();
        let mut e = ReleaseEngine::incremental(s, BiasScheme::OrderPreserving { gamma: 2 }, 5);
        let w = window(&[("a", 30), ("b", 33)]);
        e.publish(&w);
        e.publish(&w);
        assert!(e.stats().windows == 2 && e.stats().dp_full_reuse == 1);
        e.reset();
        let stats = e.stats();
        assert_eq!(stats.windows, 0);
        assert_eq!(
            stats.dp_full_reuse + stats.dp_warm_starts + stats.dp_full_solves,
            0
        );
        // Post-reset the first publish re-perturbs everything: full delta.
        let (release, delta) = e.publish(&w);
        assert_eq!(delta.len(), release.len());
    }
}
