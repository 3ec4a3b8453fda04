//! Order-preserving bias setting — Algorithm 1 (§VI-A).
//!
//! Two FECs can swap order in the sanitized output only when their
//! uncertainty regions overlap; the overlap of regions of width `α` whose
//! centres (estimators `e_i = t_i + β_i`) are `d` apart costs
//! `(s_i + s_j)(α + 1 − d)²` for `d < α + 1` and nothing otherwise. The
//! biases are chosen to minimize the summed cost subject to the chain
//! constraint `e_1 < e_2 < … < e_n` (the paper's relaxation that yields the
//! optimal-substructure property of Lemma 2) and the per-FEC budget
//! `|β_i| ≤ β_i^m`.
//!
//! The dynamic program keys states on the bias choices of the previous `γ`
//! FECs, costing interactions only inside that window — the paper's
//! approximation, accurate whenever FECs are not extremely dense (verified
//! empirically by Fig 6's knee at `γ ≈ 2–3`).
//!
//! **Representation.** A DP state — the bias choices of the trailing
//! `min(γ, i+1)` FECs — is stored as the mixed-radix code of each bias's
//! *rank* in its FEC's ascending candidate grid, oldest FEC most
//! significant, so integer order on codes is the lexicographic order on
//! bias vectors. A `Layer` is four parallel arrays (`code / cost / abs /
//! parent`) over the *reachable* states only, ascending by code; an entry's
//! predecessor is a `u32` index into the previous layer, so backtracking
//! walks indices. Expanding a layer allocates nothing per transition: the
//! pair costs `(s_i + s_j)(α + 1 − d)²` are tabulated once per layer
//! (`≤ γ·13·13` entries), and once states are `γ` long the successors that
//! differ only in the dropped oldest bias are min-merged by a k-way merge
//! over the `≤ 13` runs of the previous layer that share an oldest rank
//! (each run is already sorted by the remaining digits). Visiting the runs
//! in ascending order and replacing only on a strictly smaller
//! `(cost, Σ|β|)` keeps the smallest parent index on exact ties — the total
//! tie-break `(cost, Σ|β|, parent)` the byte-identity suites pin. The kernel
//! is serial: per-stream parallelism lives one level up, across shards.

use crate::config::PrivacySpec;
use crate::fec::Fec;

/// Bias-grid resolution: candidate biases per FEC are at most this many,
/// evenly spaced over `[−β^m, β^m]` and always including 0. Controls DP
/// cost (`grid^γ` states); 13 keeps γ=3 runs instant while exhausting the
/// integer grid entirely at the paper's support scales.
const MAX_GRID: usize = 13;

/// Deepest DP interaction window a [`crate::BiasScheme`] may ask for. A
/// layer holds up to `MAX_GRID^γ` states, so γ is a memory bound before it
/// is a quality knob: Fig 6's knee is at γ ≈ 2–3 and its sweep — the
/// deepest this repo runs — stops here.
pub const MAX_GAMMA: usize = 6;

/// One FEC's candidate biases in ascending order, held inline so a chain's
/// grids are one flat buffer. A bias's index here is its *rank* — the digit
/// the state codes are built from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grid {
    len: usize,
    vals: [i64; MAX_GRID],
}

impl Grid {
    pub(crate) fn as_slice(&self) -> &[i64] {
        &self.vals[..self.len]
    }
}

/// One DP layer: the reachable states of the trailing `digits` FECs as
/// parallel arrays ascending by `code`, with the best cost / precision
/// reaching each state and the index of its predecessor in the previous
/// layer (meaningless in layer 0).
#[derive(Clone, Debug, Default)]
struct Layer {
    /// State length `min(γ, i+1)`.
    digits: usize,
    code: Vec<u64>,
    cost: Vec<f64>,
    /// Σ|β| along the best path — the lexicographic tie-break that makes
    /// isolated FECs keep β = 0.
    abs: Vec<u64>,
    parent: Vec<u32>,
}

impl Layer {
    fn len(&self) -> usize {
        self.code.len()
    }

    fn push(&mut self, code: u64, cost: f64, abs: u64, parent: u32) {
        self.code.push(code);
        self.cost.push(cost);
        self.abs.push(abs);
        self.parent.push(parent);
    }
}

/// Buffers the layer kernel reuses instead of allocating: the previous
/// solve's layers (their four arrays keep their capacity) and the pair-cost
/// table.
#[derive(Clone, Debug, Default)]
struct Spare {
    layers: Vec<Layer>,
    pair: Vec<f64>,
}

impl Spare {
    fn empty_layer(&mut self, digits: usize) -> Layer {
        let mut layer = self.layers.pop().unwrap_or_default();
        layer.digits = digits;
        layer.code.clear();
        layer.cost.clear();
        layer.abs.clear();
        layer.parent.clear();
        layer
    }
}

/// What a layer expansion reads besides the previous layer: the chain's
/// FECs (supports and sizes), their candidate grids, and the two DP
/// parameters.
#[derive(Clone, Copy)]
struct Chain<'a> {
    fecs: &'a [Fec],
    grids: &'a [Grid],
    alpha: i64,
    gamma: usize,
}

/// The buffers one Algorithm 1 solve works in. Capacity only: every solve
/// clears them before it reads anything, so a retained scratch (the
/// [`crate::Publisher`]'s, which saves the per-window allocations) and a
/// fresh one (behind [`order_preserving_biases`]) run the same code on the
/// same inputs.
#[derive(Clone, Debug, Default)]
pub(crate) struct OrderScratch {
    grids: Vec<Grid>,
    layers: Vec<Layer>,
    spare: Spare,
}

impl OrderScratch {
    /// Algorithm 1 for one window: one bias per FEC (`fecs` sorted ascending
    /// by support).
    pub(crate) fn solve(&mut self, fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> Vec<f64> {
        // `empty_layer` clears each buffer as it hands it out again.
        self.spare.layers.append(&mut self.layers);
        let n = fecs.len();
        if gamma == 0 || n <= 1 {
            // No pairwise terms: smallest |bias| (= 0) is optimal.
            return vec![0.0; n];
        }
        self.grids.clear();
        self.grids.extend(
            fecs.iter()
                .map(|f| bias_candidates_for(spec.max_bias(f.support()))),
        );

        // DP over states = bias choices of the trailing min(γ, i+1) FECs.
        // The value is (inversion cost, Σ|bias| so far) compared
        // lexicographically: among equal-cost settings the most precise
        // (smallest total |bias|) wins.
        let chain = Chain {
            fecs,
            grids: &self.grids,
            alpha: spec.alpha() as i64,
            gamma,
        };
        self.layers
            .push(dp_first_layer(&self.grids[0], &mut self.spare));
        for i in 1..n {
            let next = dp_next_layer(&chain, &self.layers[i - 1], i, &mut self.spare);
            self.layers.push(next);
        }
        dp_backtrack(&self.layers, &self.grids)
    }

    /// Layers the last solve expanded: 0 when it was trivial (`γ = 0` or
    /// fewer than two FECs).
    pub(crate) fn layers_expanded(&self) -> usize {
        self.layers.len()
    }
}

/// Compute order-preserving biases for `fecs` (sorted ascending by support).
///
/// Returns one bias per FEC. `gamma = 0` degenerates to all-zero biases
/// (no interactions are costed, and zero bias is the tie-break winner).
pub fn order_preserving_biases(fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> Vec<f64> {
    OrderScratch::default().solve(fecs, spec, gamma)
}

/// Layer 0 of the DP: one entry per candidate bias of the first FEC. A pure
/// function of the candidate grid.
fn dp_first_layer(grid: &Grid, spare: &mut Spare) -> Layer {
    let mut first = spare.empty_layer(1);
    for (rank, b) in grid.as_slice().iter().enumerate() {
        first.push(rank as u64, 0.0, b.unsigned_abs(), u32::MAX);
    }
    first
}

/// Expand layer `i` from layer `i − 1`. A pure function of the previous
/// layer and the `(support, size)` skeleton of `fecs[..=i]`. The layer is
/// never empty: supports ascend strictly and every grid holds 0, so the
/// all-zero path always satisfies the chain constraint.
///
/// # Panics
/// If the state codes of this layer do not fit a `u64` — seventeen
/// consecutive full 13-point grids inside one γ-window, far past the point
/// where a layer could be held in memory.
fn dp_next_layer(chain: &Chain<'_>, prev: &Layer, i: usize, spare: &mut Spare) -> Layer {
    let Chain {
        fecs,
        grids,
        alpha,
        gamma,
    } = *chain;
    // prev's digits are the ranks of FECs first .. i−1, oldest first. Once
    // states are γ long the oldest digit is dropped and its run merged.
    let held = prev.digits;
    let first = i - held;
    let merge = held == gamma;
    let radix = |k: usize| grids[first + k].len as u64;
    let cands = grids[i].as_slice();
    let n_i = cands.len() as u64;
    let span = (usize::from(merge)..held)
        .try_fold(n_i, |acc, k| acc.checked_mul(radix(k)))
        .expect("order-DP state codes exceed u64: γ-window of candidate grids too wide")
        / n_i;
    let mut out = spare.empty_layer(if merge { held } else { held + 1 });

    // pair[(k·G + d)·G + r]: cost between FEC first+k at rank d and FEC i at
    // rank r; rows are padded to G with zeros.
    let pair = &mut spare.pair;
    pair.clear();
    pair.resize(held * MAX_GRID * MAX_GRID, 0.0);
    let t_i = fecs[i].support() as i64;
    for k in 0..held {
        let j = first + k;
        let weight = (fecs[i].size() + fecs[j].size()) as f64;
        for (d, &bj) in grids[j].as_slice().iter().enumerate() {
            let e_j = fecs[j].support() as i64 + bj;
            let row = &mut pair[(k * MAX_GRID + d) * MAX_GRID..][..MAX_GRID];
            for (cell, &b) in row.iter_mut().zip(cands) {
                let dist = t_i + b - e_j;
                if dist <= alpha {
                    let gap = (alpha + 1 - dist) as f64;
                    *cell = weight * gap * gap;
                }
            }
        }
    }
    // Chain constraint e_{i−1} < e_i: candidates ascend, so per rank of
    // FEC i−1 the admissible ranks of FEC i are a suffix starting here.
    let mut admissible = [0usize; MAX_GRID];
    for (from, &b_last) in admissible.iter_mut().zip(grids[i - 1].as_slice()) {
        let e_last = fecs[i - 1].support() as i64 + b_last;
        *from = cands.partition_point(|&b| t_i + b <= e_last);
    }
    // All transitions out of prev entry `p`: the added cost per candidate
    // rank, and the first rank the chain admits.
    let transitions = |p: usize, added: &mut [f64; MAX_GRID]| -> usize {
        *added = [0.0; MAX_GRID];
        let mut code = prev.code[p];
        let mut last = 0;
        for k in (0..held).rev() {
            let d = (code % radix(k)) as usize;
            code /= radix(k);
            if k + 1 == held {
                last = d;
            }
            let row = &pair[(k * MAX_GRID + d) * MAX_GRID..][..MAX_GRID];
            for (a, c) in added.iter_mut().zip(row) {
                *a += c;
            }
        }
        admissible[last]
    };

    let mut added = [0.0; MAX_GRID];
    if !merge {
        // States still growing: every transition is its own state, and
        // (parent, rank) order is code order.
        for p in 0..prev.len() {
            for r in transitions(p, &mut added)..cands.len() {
                out.push(
                    prev.code[p] * n_i + r as u64,
                    prev.cost[p] + added[r],
                    prev.abs[p] + cands[r].unsigned_abs(),
                    p as u32,
                );
            }
        }
    } else {
        // prev splits into one run per oldest rank, each ascending by the
        // remaining digits (the suffix, `code mod span`). Merge the runs by
        // suffix; all entries sharing one feed the same ≤ 13 successors.
        let runs = radix(0) as usize;
        let mut cursor = [0usize; MAX_GRID + 1];
        for (r0, c) in cursor.iter_mut().enumerate().take(runs + 1) {
            *c = prev.code.partition_point(|&code| code < r0 as u64 * span);
        }
        let end = cursor;
        let head = |cursor: &[usize; MAX_GRID + 1], r0: usize| {
            (cursor[r0] < end[r0 + 1]).then(|| prev.code[cursor[r0]] - r0 as u64 * span)
        };
        while let Some(suffix) = (0..runs).filter_map(|r0| head(&cursor, r0)).min() {
            let mut best_cost = [f64::INFINITY; MAX_GRID];
            let mut best_abs = [0u64; MAX_GRID];
            let mut best_parent = [0u32; MAX_GRID];
            for r0 in 0..runs {
                if head(&cursor, r0) != Some(suffix) {
                    continue;
                }
                let p = cursor[r0];
                cursor[r0] += 1;
                for r in transitions(p, &mut added)..cands.len() {
                    let reached = (
                        prev.cost[p] + added[r],
                        prev.abs[p] + cands[r].unsigned_abs(),
                    );
                    if reached < (best_cost[r], best_abs[r]) {
                        (best_cost[r], best_abs[r]) = reached;
                        best_parent[r] = p as u32;
                    }
                }
            }
            for r in 0..cands.len() {
                if best_cost[r] < f64::INFINITY {
                    out.push(
                        suffix * n_i + r as u64,
                        best_cost[r],
                        best_abs[r],
                        best_parent[r],
                    );
                }
            }
        }
    }
    out
}

/// Pick the best entry of the final layer and walk parent indices back to
/// recover one bias per FEC. On exact `(cost, Σ|β|)` ties the smallest
/// state wins because layers ascend by code.
fn dp_backtrack(layers: &[Layer], grids: &[Grid]) -> Vec<f64> {
    let last = layers.last().expect("n ≥ 1 layers");
    let mut best = 0usize;
    for idx in 1..last.len() {
        if (last.cost[idx], last.abs[idx]) < (last.cost[best], last.abs[best]) {
            best = idx;
        }
    }

    // Walk the parent indices backwards; entry i's lowest digit is bias i.
    let mut biases = vec![0.0; layers.len()];
    let mut idx = best;
    for (i, layer) in layers.iter().enumerate().rev() {
        let grid = grids[i].as_slice();
        biases[i] = grid[(layer.code[idx] % grid.len() as u64) as usize] as f64;
        idx = layer.parent[idx] as usize;
    }
    biases
}

/// Integer bias candidates for a budget `β^m`: an odd, symmetric grid over
/// `[−⌊β^m⌋, ⌊β^m⌋]` including 0, ascending. Shared with the exhaustive
/// optimizer in [`crate::exact`] so the two search the same space.
pub(crate) fn bias_candidates_for(max_bias: f64) -> Grid {
    let mut grid = Grid {
        len: 1,
        vals: [0; MAX_GRID],
    };
    let m = max_bias.floor() as i64;
    if m <= 0 {
        return grid;
    }
    let half = (MAX_GRID - 1) / 2;
    let step = (m as usize).div_ceil(half).max(1);
    // step, 2·step, … up to m, closed with m itself when the multiples stop
    // short of it: ⌈m / step⌉ ≤ half values on each side of zero.
    let side = (m as usize).div_ceil(step);
    grid.len = 2 * side + 1;
    for p in 1..=side {
        let v = ((p * step) as i64).min(m);
        grid.vals[side + p] = v;
        grid.vals[side - p] = -v;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::partition_into_fecs;
    use bfly_common::ItemSet;
    use bfly_mining::FrequentItemsets;

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0) // α=12, σ²=14
    }

    fn fecs_with_supports(supports: &[u64]) -> Vec<Fec> {
        // One singleton itemset per support (distinct items).
        let f = FrequentItemsets::new(
            supports
                .iter()
                .enumerate()
                .map(|(i, &s)| (ItemSet::from_ids([i as u32]), s)),
        );
        partition_into_fecs(&f)
    }

    fn estimators(fecs: &[Fec], biases: &[f64]) -> Vec<f64> {
        fecs.iter()
            .zip(biases)
            .map(|(f, b)| f.support() as f64 + b)
            .collect()
    }

    #[test]
    fn respects_budget_and_chain_constraint() {
        let fecs = fecs_with_supports(&[25, 26, 28, 29, 31, 60, 61, 100]);
        let s = spec();
        for gamma in [1usize, 2, 3] {
            let biases = order_preserving_biases(&fecs, &s, gamma);
            assert_eq!(biases.len(), fecs.len());
            for (f, b) in fecs.iter().zip(&biases) {
                assert!(
                    b.abs() <= s.max_bias(f.support()) + 1e-9,
                    "budget exceeded at t={} (β={b}, γ={gamma})",
                    f.support()
                );
            }
            let e = estimators(&fecs, &biases);
            for pair in e.windows(2) {
                assert!(pair[0] < pair[1], "chain violated (γ={gamma}): {e:?}");
            }
        }
    }

    #[test]
    fn spreads_crowded_fecs_apart() {
        // Supports packed within α of each other: zero biases leave heavy
        // overlap; the DP must strictly reduce the inversion cost.
        let fecs = fecs_with_supports(&[50, 52, 54, 56, 58]);
        let s = spec();
        let biases = order_preserving_biases(&fecs, &s, 2);
        let cost = |bs: &[f64]| -> f64 {
            let e = estimators(&fecs, bs);
            let alpha = s.alpha() as f64;
            let mut total = 0.0;
            for i in 0..e.len() {
                for j in (i + 1)..e.len() {
                    let d = e[j] - e[i];
                    if d <= alpha {
                        let w = (fecs[i].size() + fecs[j].size()) as f64;
                        total += w * (alpha + 1.0 - d) * (alpha + 1.0 - d);
                    }
                }
            }
            total
        };
        let zero = vec![0.0; fecs.len()];
        assert!(
            cost(&biases) < cost(&zero),
            "DP did not improve on zero biases: {} vs {}",
            cost(&biases),
            cost(&zero)
        );
    }

    #[test]
    fn well_separated_fecs_get_zero_bias() {
        // Gaps far exceed α+1: no overlap, zero bias is optimal (tie-break).
        let fecs = fecs_with_supports(&[30, 100, 200, 400]);
        let biases = order_preserving_biases(&fecs, &spec(), 2);
        assert!(biases.iter().all(|b| *b == 0.0), "{biases:?}");
    }

    #[test]
    fn gamma_zero_and_singleton_are_zero() {
        let fecs = fecs_with_supports(&[30, 31]);
        assert_eq!(order_preserving_biases(&fecs, &spec(), 0), vec![0.0, 0.0]);
        let one = fecs_with_supports(&[30]);
        assert_eq!(order_preserving_biases(&one, &spec(), 2), vec![0.0]);
        assert!(order_preserving_biases(&[], &spec(), 2).is_empty());
    }

    #[test]
    fn deeper_gamma_never_hurts_much_on_dense_chain() {
        // Fig 6's premise: γ=2 already captures most of the benefit. Here we
        // only assert monotonic-ish behaviour: γ=3 cost ≤ γ=1 cost.
        let fecs = fecs_with_supports(&[40, 42, 44, 46, 48, 50, 52]);
        let s = spec();
        let cost_of = |gamma: usize| {
            let biases = order_preserving_biases(&fecs, &s, gamma);
            let e = estimators(&fecs, &biases);
            let alpha = s.alpha() as f64;
            let mut total = 0.0;
            for i in 0..e.len() {
                for j in (i + 1)..e.len() {
                    let d = e[j] - e[i];
                    if d <= alpha {
                        let w = (fecs[i].size() + fecs[j].size()) as f64;
                        total += w * (alpha + 1.0 - d) * (alpha + 1.0 - d);
                    }
                }
            }
            total
        };
        assert!(cost_of(3) <= cost_of(1) + 1e-9);
    }

    #[test]
    fn long_chain_stress_backtracks_correctly() {
        // 120 FECs with mixed density: the DP's parent-index reconstruction
        // must produce exactly one bias per FEC, all constraints intact.
        let supports: Vec<u64> = (0..120u64)
            .map(|i| 25 + i * 3 + (i % 2)) // strictly increasing, uneven gaps
            .collect();
        let fecs = fecs_with_supports(&supports);
        assert_eq!(fecs.len(), 120, "supports must be distinct");
        let s = spec();
        for gamma in [1usize, 2] {
            let biases = order_preserving_biases(&fecs, &s, gamma);
            assert_eq!(biases.len(), 120);
            let mut prev_e = f64::NEG_INFINITY;
            for (f, b) in fecs.iter().zip(&biases) {
                assert!(b.abs() <= s.max_bias(f.support()) + 1e-9);
                let e = f.support() as f64 + b;
                assert!(e > prev_e);
                prev_e = e;
            }
        }
    }

    #[test]
    fn candidate_grid_is_the_old_set_in_ascending_order() {
        assert_eq!(
            bias_candidates_for(7.9).as_slice(),
            [-7, -6, -4, -2, 0, 2, 4, 6, 7]
        );
        assert_eq!(bias_candidates_for(0.4).as_slice(), [0]);
        // Same set as the parent's |value|-ordered grid at every budget the
        // grid logic distinguishes (step 1, exact multiples, a closing ±m).
        for m in 0..200 {
            let mut old = reference::bias_candidates_for(m as f64 + 0.5);
            old.sort_unstable();
            assert_eq!(bias_candidates_for(m as f64 + 0.5).as_slice(), old, "m={m}");
            assert!(old.len() <= MAX_GRID);
        }
    }

    /// The sort-based layer kernel this one replaced, kept verbatim (minus
    /// the thread pool, whose `par_map` was order-preserving, and the
    /// infeasibility error only pinned candidates could raise):
    /// heap-allocated state vectors, full transition list, sort by `(state,
    /// cost, Σ|β|, parent)`, dedup. The production kernel is pinned to it
    /// below.
    mod reference {
        use super::super::{Fec, MAX_GRID};

        type State = Vec<i64>;

        #[derive(Clone, Debug)]
        pub(super) struct LayerEntry {
            state: State,
            cost: f64,
            abs: u64,
            parent: u32,
        }

        pub(super) fn solve(
            fecs: &[Fec],
            candidates: &[Vec<i64>],
            alpha: i64,
            gamma: usize,
        ) -> Vec<f64> {
            let mut layers: Vec<Vec<LayerEntry>> = Vec::with_capacity(fecs.len());
            layers.push(dp_first_layer(&candidates[0]));
            for (i, cands) in candidates.iter().enumerate().skip(1) {
                let prev = layers.last().expect("at least one layer");
                layers.push(dp_next_layer(prev, i, fecs, cands, alpha, gamma));
            }
            dp_backtrack(&layers)
        }

        fn dp_first_layer(cands: &[i64]) -> Vec<LayerEntry> {
            let mut first: Vec<LayerEntry> = cands
                .iter()
                .map(|&b| LayerEntry {
                    state: vec![b],
                    cost: 0.0,
                    abs: b.unsigned_abs(),
                    parent: u32::MAX,
                })
                .collect();
            first.sort_unstable_by(|a, b| a.state.cmp(&b.state));
            normalize_layer(&mut first);
            first
        }

        fn normalize_layer(layer: &mut [LayerEntry]) {
            let min_cost = layer.iter().map(|e| e.cost).fold(f64::INFINITY, f64::min);
            let min_abs = layer.iter().map(|e| e.abs).min().expect("non-empty layer");
            for e in layer {
                e.cost -= min_cost;
                e.abs -= min_abs;
            }
        }

        fn dp_next_layer(
            prev: &[LayerEntry],
            i: usize,
            fecs: &[Fec],
            cands: &[i64],
            alpha: i64,
            gamma: usize,
        ) -> Vec<LayerEntry> {
            let mut raw = expand_range(prev, 0, i, fecs, cands, alpha, gamma);
            raw.sort_unstable_by(|a, b| {
                a.state
                    .cmp(&b.state)
                    .then(a.cost.total_cmp(&b.cost))
                    .then(a.abs.cmp(&b.abs))
                    .then(a.parent.cmp(&b.parent))
            });
            raw.dedup_by(|a, b| a.state == b.state);
            normalize_layer(&mut raw);
            raw
        }

        fn dp_backtrack(layers: &[Vec<LayerEntry>]) -> Vec<f64> {
            let n = layers.len();
            let last = layers.last().expect("n ≥ 1 layers");
            let mut best = 0usize;
            for (idx, e) in last.iter().enumerate().skip(1) {
                let b = &last[best];
                if e.cost.total_cmp(&b.cost).then(e.abs.cmp(&b.abs)) == std::cmp::Ordering::Less {
                    best = idx;
                }
            }
            let mut biases = vec![0.0; n];
            let mut idx = best;
            for i in (0..n).rev() {
                let e = &layers[i][idx];
                biases[i] = *e.state.last().expect("states are non-empty") as f64;
                idx = e.parent as usize;
            }
            biases
        }

        fn expand_range(
            prev: &[LayerEntry],
            base: usize,
            i: usize,
            fecs: &[Fec],
            cands: &[i64],
            alpha: i64,
            gamma: usize,
        ) -> Vec<LayerEntry> {
            let mut out = Vec::with_capacity(prev.len() * cands.len());
            for (offset, entry) in prev.iter().enumerate() {
                // entry.state holds biases of FECs i−L .. i−1 (L = state len).
                let window_start = i - entry.state.len();
                let e_prev = fecs[i - 1].support() as i64
                    + entry.state.last().expect("states are non-empty");
                for &b in cands {
                    let e_i = fecs[i].support() as i64 + b;
                    if e_i <= e_prev {
                        continue; // chain constraint e_{i−1} < e_i
                    }
                    let mut cost = entry.cost;
                    for (k, &bj) in entry.state.iter().enumerate() {
                        let j = window_start + k;
                        let e_j = fecs[j].support() as i64 + bj;
                        let d = e_i - e_j;
                        if d <= alpha {
                            let gap = (alpha + 1 - d) as f64;
                            let weight = (fecs[i].size() + fecs[j].size()) as f64;
                            cost += weight * gap * gap;
                        }
                    }
                    let keep = entry.state.len().min(gamma.saturating_sub(1));
                    let mut state: State = Vec::with_capacity(keep + 1);
                    state.extend_from_slice(&entry.state[entry.state.len() - keep..]);
                    state.push(b);
                    out.push(LayerEntry {
                        state,
                        cost,
                        abs: entry.abs + b.unsigned_abs(),
                        parent: (base + offset) as u32,
                    });
                }
            }
            out
        }

        /// The parent's grid: same set, ordered by |value|.
        pub(super) fn bias_candidates_for(max_bias: f64) -> Vec<i64> {
            let m = max_bias.floor() as i64;
            if m <= 0 {
                return vec![0];
            }
            let half = (MAX_GRID - 1) / 2;
            let step = ((m as usize).div_ceil(half)).max(1) as i64;
            let mut values = vec![0i64];
            let mut v = step;
            while v <= m {
                values.push(v);
                values.push(-v);
                v += step;
            }
            if *values.iter().max().expect("non-empty") < m {
                values.push(m);
                values.push(-m);
            }
            values
        }
    }

    /// FECs with the given `(support, class size)` skeleton.
    fn fecs_with_sizes(skeleton: &[(u64, usize)]) -> Vec<Fec> {
        let mut item = 0u32;
        let f = FrequentItemsets::new(skeleton.iter().flat_map(|&(support, size)| {
            let ids: Vec<u32> = (item..item + size as u32).collect();
            item += size as u32;
            ids.into_iter()
                .map(move |id| (ItemSet::from_ids([id]), support))
        }));
        partition_into_fecs(&f)
    }

    #[test]
    fn kernel_equals_the_reference_on_random_chains() {
        use bfly_common::rng::{Rng, SmallRng};
        let specs = [
            PrivacySpec::new(25, 5, 0.04, 1.0),
            PrivacySpec::new(25, 5, 0.016, 0.4),
            PrivacySpec::new(20, 5, 0.016, 0.4),
            PrivacySpec::new(400, 5, 0.016, 0.4),
            // β^m < 1 at t = C: the chain opens on single-candidate grids.
            PrivacySpec::new(19, 5, 0.016, 0.4),
        ];
        let mut singleton_grids = 0;
        for (which, spec) in specs.iter().enumerate() {
            for seed in 0..40u64 {
                let mut rng = SmallRng::seed_from_u64(seed * 4 + which as u64);
                // Strictly increasing supports from C up, gaps mixing dense
                // stretches (inside α) with breaks the DP forgets across.
                let n = 2 + rng.gen_range_usize(14);
                let mut support = spec.c() + rng.gen_below(6);
                let skeleton: Vec<(u64, usize)> = (0..n)
                    .map(|_| {
                        let here = support;
                        support += 1 + if rng.gen_bool(0.2) {
                            rng.gen_below(3 * spec.alpha())
                        } else {
                            rng.gen_below(4)
                        };
                        (here, 1 + rng.gen_range_usize(4))
                    })
                    .collect();
                let fecs = fecs_with_sizes(&skeleton);
                let candidates: Vec<Vec<i64>> = fecs
                    .iter()
                    .map(|f| reference::bias_candidates_for(spec.max_bias(f.support())))
                    .collect();
                singleton_grids += candidates.iter().filter(|c| c.len() == 1).count();
                for gamma in 1..=4usize {
                    let old = reference::solve(&fecs, &candidates, spec.alpha() as i64, gamma);
                    let new = order_preserving_biases(&fecs, spec, gamma);
                    assert_eq!(new, old, "{skeleton:?} γ={gamma}");
                }
            }
        }
        assert!(singleton_grids > 0);
    }

    /// One scratch kept across a random window sequence — chains that grow,
    /// shrink and pass through the trivial sizes, γ switching between
    /// solves — answers as a fresh one does every time: nothing a previous
    /// solve left in the buffers is ever read.
    #[test]
    fn retained_scratch_equals_a_fresh_solve_on_random_sequences() {
        use bfly_common::rng::{Rng, SmallRng};
        let s = spec();
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut scratch = OrderScratch::default();
            let mut supports: Vec<u64> = (0..12).map(|i| 25 + i * 4).collect();
            for round in 0..60 {
                // Random churn: shift a few supports (a collision drops a
                // class), sometimes add one.
                for _ in 0..rng.gen_range_usize(4) {
                    let i = rng.gen_range_usize(supports.len());
                    supports[i] = 25 + rng.gen_below(80);
                }
                if rng.gen_bool(0.4) {
                    supports.push(25 + rng.gen_below(80));
                }
                supports.sort_unstable();
                supports.dedup();
                // Every tenth window is empty or a single class.
                let n = match round % 10 {
                    4 => 0,
                    9 => 1,
                    _ => supports.len(),
                };
                let fecs = fecs_with_supports(&supports[..n]);
                for gamma in [2usize, 0, 3] {
                    assert_eq!(
                        scratch.solve(&fecs, &s, gamma),
                        order_preserving_biases(&fecs, &s, gamma),
                        "diverged at supports {:?} γ={gamma}",
                        &supports[..n]
                    );
                    let expanded = if gamma == 0 || n <= 1 { 0 } else { n };
                    assert_eq!(scratch.layers_expanded(), expanded);
                }
            }
        }
    }
}
