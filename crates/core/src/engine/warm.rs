//! Warm-started order-preserving DP (Algorithm 1 across windows).
//!
//! Each DP layer `i` is a pure function of the candidate grids and the
//! `(support, size)` skeleton of FECs `0..=i` (see
//! [`crate::order::dp_next_layer`]). Between windows the solver keeps its
//! layers and reuses them two ways; since everything reused runs through —
//! or is proven equal to — the very same layer function a cold solve would
//! execute, the warm-started bias vector is **bit-identical** to a full
//! recompute, and the differential tests pin this.
//!
//! 1. **Prefix reuse.** Layer `i` survives as long as `skeleton[0..=i]` is
//!    unchanged, so the solve restarts from the first changed position.
//! 2. **Suffix splice.** On a sliding stream, churn concentrates near the
//!    support threshold — the *front* of the support-ascending order — so
//!    the surviving prefix alone is short. But layers are normalized
//!    ([`crate::order::dp_next_layer`] subtracts each layer's minimum cost
//!    and Σ|β| — exactly, in integer arithmetic), so a local perturbation's
//!    influence on a layer's *relative* values washes out once the chain
//!    passes a stretch of non-interacting FECs. The solver detects that
//!    re-convergence — a recomputed layer whose `(state, cost, Σ|β|)`
//!    values equal the cached one, with the surrounding skeleton window
//!    aligned — and from there *copies* cached layers instead of
//!    re-expanding them, until the next skeleton mismatch. The copy is
//!    exact by construction: a layer is spliced only when every input that
//!    [`crate::order::dp_next_layer`] reads (previous layer values and
//!    positions, candidate grid, the γ-window of the skeleton) is verified
//!    equal, so the speedup is opportunistic but the output never depends
//!    on whether convergence happened.
//!
//! When the first skeleton position changed the solve is counted as a full
//! recompute (no prefix survived), though spliced suffixes may still cut
//! its cost; the counters report both views.

use crate::config::PrivacySpec;
use crate::fec::Fec;
use crate::order::{
    bias_candidates_for, dp_backtrack, dp_first_layer, dp_next_layer, layers_value_equal, Chain,
    Grid, Layer, Spare,
};
use bfly_common::Support;

/// The cross-window order-DP solver. Holds the previous window's skeleton
/// and DP layers; [`WarmOrderDp::solve`] is a drop-in for
/// [`crate::order::order_preserving_biases`] with identical output.
///
/// The spec must stay fixed across calls (the engine owns one spec per
/// stream); a `gamma` change resets the cache.
#[derive(Clone, Debug, Default)]
pub struct WarmOrderDp {
    gamma: usize,
    skeleton: Vec<(Support, usize)>,
    layers: Vec<Layer>,
    /// Candidate grids of the current skeleton, one per FEC.
    grids: Vec<Grid>,
    /// The previous window's skeleton, and its layers past the kept prefix
    /// (`None` once spliced into the new chain). Only meaningful inside
    /// [`WarmOrderDp::solve`]; fields so their buffers carry over.
    old_skeleton: Vec<(Support, usize)>,
    old_layers: Vec<Option<Layer>>,
    /// Layers the last solve neither kept nor spliced: the next solve
    /// builds its new layers in their buffers.
    spare: Spare,
    /// False until a non-trivial solve has populated the cache.
    primed: bool,
    full_reuse: u64,
    warm_starts: u64,
    full_solves: u64,
    layers_reused: u64,
    layers_computed: u64,
}

impl WarmOrderDp {
    /// A cold solver.
    pub fn new() -> Self {
        WarmOrderDp::default()
    }

    /// Solve Algorithm 1 for this window, reusing every cached layer whose
    /// skeleton prefix is unchanged and splicing cached suffix layers back
    /// in wherever the normalized DP provably re-converges. Output equals
    /// `order_preserving_biases(fecs, spec, gamma)` exactly.
    pub fn solve(&mut self, fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> Vec<f64> {
        if gamma != self.gamma {
            self.invalidate();
            self.gamma = gamma;
        }
        let n = fecs.len();
        if n == 0 || gamma == 0 || n == 1 {
            // Trivial solutions bypass the DP entirely; the cache no longer
            // describes a usable prefix for the next window.
            self.invalidate();
            return vec![0.0; n];
        }
        let was_primed = self.primed;
        std::mem::swap(&mut self.skeleton, &mut self.old_skeleton);
        self.skeleton.clear();
        self.skeleton
            .extend(fecs.iter().map(|f| (f.support(), f.size())));
        self.grids.clear();
        self.grids.extend(
            fecs.iter()
                .map(|f| bias_candidates_for(spec.max_bias(f.support()))),
        );
        let (skeleton, old_skeleton) = (&self.skeleton, &self.old_skeleton);
        let old_n = old_skeleton.len();
        let chain = Chain {
            fecs,
            grids: &self.grids,
            alpha: spec.alpha() as i64,
            gamma,
        };

        // Prefix: layer i is valid iff skeleton[0..=i] is unchanged, i.e.
        // for all i < lcp.
        let lcp = if was_primed {
            old_skeleton
                .iter()
                .zip(skeleton)
                .take_while(|(a, b)| a == b)
                .count()
        } else {
            0
        };
        let kept = lcp.min(n);
        if kept == 0 {
            self.full_solves += 1;
        } else if kept == n {
            self.full_reuse += 1;
        } else {
            self.warm_starts += 1;
        }

        // The surviving prefix stays where it is; `old_layers[j]` now holds
        // the cached layer for *original* position `j + kept`.
        self.old_layers.clear();
        self.old_layers.extend(self.layers.drain(kept..).map(Some));
        let mut reused = kept as u64;
        let mut computed = 0u64;
        if self.layers.is_empty() {
            self.layers
                .push(dp_first_layer(&self.grids[0], &mut self.spare));
            computed += 1;
        }

        // Suffix splice. Positions are aligned across windows by a small
        // set of candidate shifts: the net length change (exact for the
        // suffix past the last insertion/deletion), zero (in-place support
        // moves), and their ±1/±2 neighbours (segments *between* scattered
        // indels, whose local shift differs from the net one). Any shift
        // that passes both gates yields an exact copy — the gates, not the
        // alignment heuristic, carry the correctness. `known_prev =
        // Some(oi)` records that the newest layer is value-equal to cached
        // layer `oi` without re-comparing — and keeps splice runs correct
        // after a copied layer has been moved out.
        let net = old_n as isize - n as isize;
        let mut shifts: Vec<isize> = Vec::with_capacity(7);
        for cand in [net, 0, net - 1, net + 1, net - 2, net + 2] {
            if !shifts.contains(&cand) {
                shifts.push(cand);
            }
        }
        let mut known_prev: Option<usize> = if was_primed && kept > 0 {
            Some(kept - 1)
        } else {
            None
        };
        while self.layers.len() < n {
            let i = self.layers.len();
            let mut copied = false;
            if was_primed {
                for &shift in &shifts {
                    let oi = i as isize + shift;
                    if oi < 1 || (oi as usize) >= old_n {
                        continue;
                    }
                    let oi = oi as usize;
                    // dp_next_layer reads fecs[max(0, i−γ)..=i]: supports
                    // for the chain and distance terms, sizes for the
                    // weights, and grids (pure functions of
                    // skeleton[j].support given the fixed spec).
                    let window_ok = (i.saturating_sub(gamma)..=i).all(|j| {
                        let jo = j as isize + shift;
                        jo >= 0 && (jo as usize) < old_n && skeleton[j] == old_skeleton[jo as usize]
                    });
                    if !window_ok {
                        continue;
                    }
                    let prev_ok = known_prev == Some(oi - 1)
                        || (oi > kept
                            && self.old_layers[oi - 1 - kept]
                                .as_ref()
                                .is_some_and(|old| layers_value_equal(&self.layers[i - 1], old)));
                    if !prev_ok {
                        continue;
                    }
                    // A run at another shift may already have moved this
                    // layer out; then there is nothing to copy here.
                    if let Some(cached) = self.old_layers[oi - kept].take() {
                        self.layers.push(cached);
                        known_prev = Some(oi);
                        reused += 1;
                        copied = true;
                        break;
                    }
                }
            }
            if !copied {
                let next = dp_next_layer(&chain, &self.layers[i - 1], i, &mut self.spare);
                self.layers.push(next);
                known_prev = None;
                computed += 1;
            }
        }
        for unused in self.old_layers.drain(..).flatten() {
            self.spare.retire(unused);
        }
        self.layers_reused += reused;
        self.layers_computed += computed;
        self.primed = true;
        dp_backtrack(&self.layers, &self.grids)
    }

    /// `(full_reuse, warm_starts, full_solves)` — how often a window's DP
    /// was entirely cached, suffix-patched, or recomputed from scratch.
    pub fn solve_counters(&self) -> (u64, u64, u64) {
        (self.full_reuse, self.warm_starts, self.full_solves)
    }

    /// `(layers_reused, layers_computed)` — the per-layer work ledger behind
    /// [`WarmOrderDp::solve_counters`].
    pub fn layer_counters(&self) -> (u64, u64) {
        (self.layers_reused, self.layers_computed)
    }

    /// Drop cache and counters (stream retarget).
    pub fn reset(&mut self) {
        *self = WarmOrderDp::default();
    }

    fn invalidate(&mut self) {
        self.skeleton.clear();
        for layer in self.layers.drain(..) {
            self.spare.retire(layer);
        }
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::partition_into_fecs;
    use crate::order::order_preserving_biases;
    use bfly_common::rng::{Rng, SmallRng};
    use bfly_common::ItemSet;
    use bfly_mining::FrequentItemsets;

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0) // α=12
    }

    fn fecs_of(supports: &[u64]) -> Vec<Fec> {
        partition_into_fecs(&FrequentItemsets::new(
            supports
                .iter()
                .enumerate()
                .map(|(i, &s)| (ItemSet::from_ids([i as u32]), s)),
        ))
    }

    /// Property: across a random window sequence with arbitrary churn, the
    /// warm-started solver and a cold Algorithm 1 agree bit for bit.
    #[test]
    fn warm_start_equals_full_recompute_on_random_sequences() {
        let s = spec();
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut warm = WarmOrderDp::new();
            let mut supports: Vec<u64> = (0..12).map(|i| 25 + i * 4).collect();
            for _ in 0..60 {
                // Random churn: shift a few supports, occasionally drop/add.
                for _ in 0..rng.gen_range_usize(4) {
                    let i = rng.gen_range_usize(supports.len());
                    supports[i] = 25 + rng.gen_below(80);
                }
                supports.sort_unstable();
                supports.dedup();
                let fecs = fecs_of(&supports);
                for gamma in [2usize, 3] {
                    let cold = order_preserving_biases(&fecs, &s, gamma);
                    let hot = warm.solve(&fecs, &s, gamma);
                    assert_eq!(hot, cold, "diverged at supports {supports:?} γ={gamma}");
                }
            }
        }
    }

    #[test]
    fn identical_window_is_a_pure_reuse() {
        let s = spec();
        let fecs = fecs_of(&[30, 33, 36, 60]);
        let mut warm = WarmOrderDp::new();
        let first = warm.solve(&fecs, &s, 2);
        let second = warm.solve(&fecs, &s, 2);
        assert_eq!(first, second);
        assert_eq!(warm.solve_counters(), (1, 0, 1));
        let (reused, computed) = warm.layer_counters();
        assert_eq!(reused, 4);
        assert_eq!(computed, 4);
    }

    #[test]
    fn suffix_change_engages_warm_start() {
        let s = spec();
        let mut warm = WarmOrderDp::new();
        warm.solve(&fecs_of(&[30, 33, 36, 60]), &s, 2);
        // Only the last support moves: the three-layer prefix survives.
        let fecs = fecs_of(&[30, 33, 36, 61]);
        let hot = warm.solve(&fecs, &s, 2);
        assert_eq!(hot, order_preserving_biases(&fecs, &s, 2));
        assert_eq!(warm.solve_counters(), (0, 1, 1));
        let (reused, computed) = warm.layer_counters();
        assert_eq!((reused, computed), (3, 5));
    }

    #[test]
    fn prefix_change_falls_back_to_full_recompute() {
        let s = spec();
        let mut warm = WarmOrderDp::new();
        warm.solve(&fecs_of(&[30, 33, 36, 60]), &s, 2);
        let fecs = fecs_of(&[29, 33, 36, 60]);
        let hot = warm.solve(&fecs, &s, 2);
        assert_eq!(hot, order_preserving_biases(&fecs, &s, 2));
        assert_eq!(warm.solve_counters(), (0, 0, 2));
    }

    #[test]
    fn shrinking_chain_with_shared_prefix_is_a_reuse() {
        let s = spec();
        let mut warm = WarmOrderDp::new();
        warm.solve(&fecs_of(&[30, 33, 36, 60, 63]), &s, 2);
        // Same first three FECs, two fewer at the top: the kept prefix is the
        // whole new problem; only the backtrack re-runs.
        let fecs = fecs_of(&[30, 33, 36]);
        let hot = warm.solve(&fecs, &s, 2);
        assert_eq!(hot, order_preserving_biases(&fecs, &s, 2));
        assert_eq!(warm.solve_counters(), (1, 0, 1));
    }

    #[test]
    fn gamma_change_resets_the_cache() {
        let s = spec();
        let fecs = fecs_of(&[30, 33, 36, 60]);
        let mut warm = WarmOrderDp::new();
        warm.solve(&fecs, &s, 2);
        let hot = warm.solve(&fecs, &s, 3);
        assert_eq!(hot, order_preserving_biases(&fecs, &s, 3));
        // The γ switch cannot reuse γ=2 layers: it must be a fresh solve.
        assert_eq!(warm.solve_counters(), (0, 0, 2));
    }

    #[test]
    fn trivial_windows_clear_but_do_not_poison_the_cache() {
        let s = spec();
        let mut warm = WarmOrderDp::new();
        assert!(warm.solve(&[], &s, 2).is_empty());
        assert_eq!(warm.solve(&fecs_of(&[40]), &s, 2), vec![0.0]);
        let fecs = fecs_of(&[30, 33]);
        assert_eq!(warm.solve(&fecs, &s, 0), vec![0.0, 0.0]);
        // After the trivial runs, a real solve is a full (correct) one.
        let hot = warm.solve(&fecs, &s, 2);
        assert_eq!(hot, order_preserving_biases(&fecs, &s, 2));
        assert_eq!(warm.solve_counters(), (0, 0, 1));
    }
}
