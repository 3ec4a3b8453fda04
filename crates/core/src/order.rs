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
//! `min(γ, i+1)` FECs — is the *rank* of each bias in its FEC's ascending
//! candidate grid. A layer is laid out as **rows × slots**: a row is every
//! state sharing all digits but the newest, keyed by the mixed-radix code of
//! those digits (oldest FEC most significant, so integer order on keys is
//! the lexicographic order on bias vectors), and holds one dense slot per
//! rank of the newest FEC, `cost = ∞` where the chain constraint excludes
//! it. Only rows with a reachable state exist, in ascending key order; at
//! `γ = 2` a layer is a `≤ 13 × 13` table whose keys are the ranks
//! themselves, at `γ = 1` it is one row.
//!
//! **Expansion.** The pair costs `(s_i + s_j)(α + 1 − d)²` are tabulated
//! once per layer (`≤ γ·13·13` entries; `∞` where the two estimators would
//! tie or swap, which is the chain constraint). Once states are `γ` long
//! the oldest digit is dropped, and the rows of the previous layer that
//! differ only in it — found by one k-way merge over its `≤ 13` oldest-rank
//! runs per *group of rows* sharing the middle digits — feed the same new
//! rows, one per newest rank `l` they hold. The cost of the digits a new row
//! shares is summed once for the row; what differs between its predecessors
//! is their own cost and the pair cost of the dropped FEC against the new
//! one. Candidates ascend, so for a new rank `r` the dropped ranks that
//! cannot overlap it (pair cost 0) are a *prefix*, and the prefix only grows
//! with `r`: they are folded, in ascending order and on strictly smaller
//! `(cost, Σ|β|)` only, into one running minimum, and only the overlapping
//! corner is evaluated rank by rank after it. That visits the predecessors
//! in ascending order with a strict `<`, so on exact ties the smallest
//! dropped rank — the smallest predecessor — wins: the total tie-break
//! `(cost, Σ|β|, parent)` the byte-identity suites pin. It is exact, not
//! approximately so, because every cost is an integer-valued `f64` far
//! below 2⁵³: adding the shared sum after the minimum instead of before
//! changes no comparison and no stored value.
//!
//! **Retention.** `(cost, Σ|β|)` exists for two layers at a time (two
//! rolling `Front`s). What a solve keeps per layer is its row keys and one
//! `u8` per state — the oldest rank its best predecessor dropped — from
//! which backtracking rebuilds the predecessor's key and binary-searches its
//! row: at most `13·8 + 169` bytes a layer at `γ = 2`, under 17 KB for a
//! 60-FEC chain. The kernel is serial: per-stream parallelism lives one
//! level up, across shards.

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

/// One slot per rank of a FEC's grid, padded to the widest grid.
type Slots<T> = [T; MAX_GRID];

/// The part of a layer the next one is expanded from: its row keys,
/// ascending, and row-major over `rows × grid len of the newest FEC` the
/// best `(cost, Σ|β|)` reaching each state (`cost = ∞`: unreachable). Σ|β|
/// along the best path is the lexicographic tie-break that makes isolated
/// FECs keep β = 0.
#[derive(Clone, Debug, Default)]
struct Front {
    keys: Vec<u64>,
    reach: Vec<(f64, u64)>,
}

/// One predecessor of a new row: the value of the state it extends and the
/// rank that state holds for the FEC the new row drops.
#[derive(Clone, Copy, Default)]
struct Member {
    cost: f64,
    abs: u64,
    rank: u8,
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
    /// The layer being expanded from and the one being built.
    prev: Front,
    next: Front,
    pair: Vec<Slots<f64>>,
    /// What backtracking reads, every layer end to end: the row keys, and
    /// per state of layers `1..` the oldest rank its best predecessor
    /// dropped (0 while states still grow and nothing is dropped).
    keys: Vec<u64>,
    dropped: Vec<u8>,
    /// Per layer, where its rows end in `keys` and its states in `dropped`.
    ends: Vec<(usize, usize)>,
}

impl OrderScratch {
    /// Algorithm 1 for one window: one bias per FEC (`fecs` sorted ascending
    /// by support).
    pub(crate) fn solve(&mut self, fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> Vec<f64> {
        self.keys.clear();
        self.dropped.clear();
        self.ends.clear();
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
        for i in 0..n {
            match i {
                0 => dp_first_layer(&self.grids[0], &mut self.next),
                _ => dp_next_layer(
                    &chain,
                    i,
                    &self.prev,
                    &mut self.next,
                    &mut self.dropped,
                    &mut self.pair,
                ),
            }
            self.keys.extend_from_slice(&self.next.keys);
            self.ends.push((self.keys.len(), self.dropped.len()));
            std::mem::swap(&mut self.prev, &mut self.next);
        }
        self.backtrack(gamma)
    }

    /// Layers the last solve expanded: 0 when it was trivial (`γ = 0` or
    /// fewer than two FECs).
    pub(crate) fn layers_expanded(&self) -> usize {
        self.ends.len()
    }

    /// Pick the best state of the final layer (`prev` after the last swap)
    /// and walk the dropped ranks back to recover one bias per FEC. On exact
    /// `(cost, Σ|β|)` ties the smallest state wins because rows ascend by key
    /// and slots by rank.
    fn backtrack(&self, gamma: usize) -> Vec<f64> {
        let last = &self.prev.reach;
        let mut best = 0usize;
        for idx in 1..last.len() {
            if last[idx] < last[best] {
                best = idx;
            }
        }
        let n = self.ends.len();
        let width = self.grids[n - 1].len;
        let (mut row, mut slot) = (best / width, best % width);
        let mut biases = vec![0.0; n];
        for i in (1..n).rev() {
            let grid = self.grids[i].as_slice();
            biases[i] = grid[slot] as f64;
            let (rows_from, states_from) = self.ends[i - 1];
            let key = self.keys[rows_from + row];
            let dropped = self.dropped[states_from + row * grid.len() + slot] as u64;
            // The predecessor holds the dropped rank as its oldest digit,
            // above the digits this row kept; its slot is this row's newest
            // digit. At γ = 1 a state is one rank: what was dropped *is* the
            // predecessor's slot.
            let stride = self.grids[i - 1].len as u64;
            let kept: u64 = (i.saturating_sub(gamma) + 1..i - 1)
                .map(|j| self.grids[j].len as u64)
                .product();
            let (prev_key, prev_slot) = if gamma == 1 {
                (0, dropped)
            } else {
                (dropped * kept + key / stride, key % stride)
            };
            let prev_rows = &self.keys[if i > 1 { self.ends[i - 2].0 } else { 0 }..rows_from];
            row = prev_rows
                .binary_search(&prev_key)
                .expect("a state's best predecessor is a state of the layer before");
            slot = prev_slot as usize;
        }
        biases[0] = self.grids[0].as_slice()[slot] as f64;
        biases
    }
}

/// Compute order-preserving biases for `fecs` (sorted ascending by support).
///
/// Returns one bias per FEC. `gamma = 0` degenerates to all-zero biases
/// (no interactions are costed, and zero bias is the tie-break winner).
pub fn order_preserving_biases(fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> Vec<f64> {
    OrderScratch::default().solve(fecs, spec, gamma)
}

/// Layer 0 of the DP: one row, one state per candidate bias of the first
/// FEC. A pure function of the candidate grid.
fn dp_first_layer(grid: &Grid, out: &mut Front) {
    out.keys.clear();
    out.keys.push(0);
    out.reach.clear();
    out.reach
        .extend(grid.as_slice().iter().map(|b| (0.0, b.unsigned_abs())));
}

/// `(cost, Σ|β|)` strictly below the incumbent's: the only replacement the
/// tie-break allows. Spelled out because the tuple `<` goes through
/// `partial_cmp` and measured ≈ 8 % of a γ = 2 solve.
#[inline]
fn improves(cost: f64, abs: u64, on: &Member) -> bool {
    cost < on.cost || (cost == on.cost && abs < on.abs)
}

/// Expand layer `i` into `out` from layer `i − 1` and append its dropped
/// ranks to `dropped`. A pure function of the previous layer and the
/// `(support, size)` skeleton of `fecs[..=i]`. The layer is never empty:
/// supports ascend strictly and every grid holds 0, so the all-zero path
/// always satisfies the chain constraint.
///
/// # Panics
/// If the row keys of this layer do not fit a `u64` — eighteen consecutive
/// full 13-point grids inside one γ-window, far past the point where a
/// layer could be held in memory.
fn dp_next_layer(
    chain: &Chain<'_>,
    i: usize,
    prev: &Front,
    out: &mut Front,
    dropped: &mut Vec<u8>,
    pair: &mut Vec<Slots<f64>>,
) {
    let Chain {
        fecs,
        grids,
        alpha,
        gamma,
    } = *chain;
    // prev's digits are the ranks of FECs first .. i−1, oldest first: all
    // but the newest in the row key, the newest as the slot. Once states
    // are γ long the oldest digit is dropped and its run merged.
    let held = gamma.min(i);
    let first = i - held;
    let merge = held == gamma;
    let radix = |k: usize| grids[first + k].len;
    let cands = grids[i].as_slice();
    let width = cands.len();
    let stride = radix(held - 1);

    // pair[k·G + d][r]: cost between FEC first+k at rank d and FEC i at rank
    // r, ∞ where e_i ≤ e_j (between i−1 and i that is the chain constraint;
    // further back the chain has excluded it already); rows are padded to G
    // with zeros.
    pair.clear();
    pair.resize(held * MAX_GRID, [0.0; MAX_GRID]);
    let t_i = fecs[i].support() as i64;
    for k in 0..held {
        let j = first + k;
        let weight = (fecs[i].size() + fecs[j].size()) as f64;
        for (d, &bj) in grids[j].as_slice().iter().enumerate() {
            let e_j = fecs[j].support() as i64 + bj;
            for (cell, &b) in pair[k * MAX_GRID + d].iter_mut().zip(cands) {
                let dist = t_i + b - e_j;
                if dist > alpha {
                    break; // candidates ascend: no later rank overlaps either
                }
                *cell = if dist <= 0 {
                    f64::INFINITY
                } else {
                    let gap = (alpha + 1 - dist) as f64;
                    weight * gap * gap
                };
            }
        }
    }
    let pair = &pair[..];
    // Per new rank, how many of the dropped FEC's ranks cannot overlap it.
    // Growing states drop nothing: one stand-in rank that never overlaps.
    let runs = if merge { radix(0) } else { 1 };
    let mut clear: Slots<u8> = [1; MAX_GRID];
    if merge {
        for (r, n) in clear.iter_mut().enumerate().take(width) {
            *n = (0..runs).take_while(|&d| pair[d][r] == 0.0).count() as u8;
        }
    }

    out.keys.clear();
    out.reach.clear();
    // One new row: slots `lo..` from the predecessors `members` (ascending
    // by dropped rank), `shared[r]` being what every one of them adds.
    let mut push_row = |key: u64, members: &[Member], shared: &Slots<f64>, lo: usize| {
        let mut row: Slots<(f64, u64)> = [(f64::INFINITY, 0); MAX_GRID];
        let mut from: Slots<u8> = [0; MAX_GRID];
        let mut best = Member {
            cost: f64::INFINITY,
            ..Member::default()
        };
        let mut folded = 0;
        for r in lo..width {
            while folded < members.len() && members[folded].rank < clear[r] {
                let m = &members[folded];
                if improves(m.cost, m.abs, &best) {
                    best = *m;
                }
                folded += 1;
            }
            let mut win = best;
            for m in &members[folded..] {
                let reached = m.cost + pair[m.rank as usize][r];
                if improves(reached, m.abs, &win) {
                    win = Member {
                        cost: reached,
                        ..*m
                    };
                }
            }
            row[r] = (win.cost + shared[r], win.abs + cands[r].unsigned_abs());
            from[r] = win.rank;
        }
        out.keys.push(key);
        out.reach.extend_from_slice(&row[..width]);
        dropped.extend_from_slice(&from[..width]);
    };

    let mut members = [Member::default(); MAX_GRID];
    if gamma == 1 {
        // A state is one rank, so the rank dropped is the slot itself: one
        // row in, one row out, nothing shared.
        let mut n = 0;
        for (rank, &(cost, abs)) in prev.reach.iter().enumerate() {
            if cost < f64::INFINITY {
                members[n] = Member {
                    cost,
                    abs,
                    rank: rank as u8,
                };
                n += 1;
            }
        }
        push_row(0, &members[..n], &[0.0; MAX_GRID], 0);
        return;
    }

    // prev's rows split into one run per oldest rank, each ascending by the
    // digits the new rows keep (`key mod kept`). Merge the runs by those
    // digits; the rows sharing them are one group.
    let oldest = usize::from(merge);
    let kept = (oldest..held)
        .try_fold(1u64, |acc, k| acc.checked_mul(radix(k) as u64))
        .expect("order-DP row keys exceed u64: γ-window of candidate grids too wide")
        / stride as u64;
    let mut cursor = [0usize; MAX_GRID + 1];
    for (r0, c) in cursor.iter_mut().enumerate().take(runs + 1).skip(1) {
        *c = prev.keys.partition_point(|&key| key < r0 as u64 * kept);
    }
    let end = cursor;
    let head = |cursor: &[usize; MAX_GRID + 1], r0: usize| {
        (cursor[r0] < end[r0 + 1]).then(|| prev.keys[cursor[r0]] - r0 as u64 * kept)
    };
    while let Some(suffix) = (0..runs).filter_map(|r0| head(&cursor, r0)).min() {
        let mut group = [(0u8, 0usize); MAX_GRID];
        let mut rows = 0;
        for r0 in 0..runs {
            if head(&cursor, r0) == Some(suffix) {
                group[rows] = (r0 as u8, cursor[r0] * stride);
                rows += 1;
                cursor[r0] += 1;
            }
        }
        // What the kept key digits add, whichever slot follows them.
        let mut middle = [0.0; MAX_GRID];
        let mut code = suffix;
        for k in (oldest..held - 1).rev() {
            let d = (code % radix(k) as u64) as usize;
            code /= radix(k) as u64;
            for (a, c) in middle.iter_mut().zip(&pair[k * MAX_GRID + d]) {
                *a += c;
            }
        }
        for l in 0..stride {
            // Chain constraint e_{i−1} < e_i: candidates ascend, so the
            // ranks of FEC i that rank l of FEC i−1 admits are a suffix.
            let newest = &pair[(held - 1) * MAX_GRID + l];
            let lo = newest.iter().take_while(|c| **c == f64::INFINITY).count();
            if lo == width {
                continue;
            }
            let mut n = 0;
            for &(rank, at) in &group[..rows] {
                let (cost, abs) = prev.reach[at + l];
                if cost < f64::INFINITY {
                    members[n] = Member { cost, abs, rank };
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let mut shared = middle;
            for (a, c) in shared.iter_mut().zip(newest) {
                *a += c;
            }
            push_row(
                suffix * stride as u64 + l as u64,
                &members[..n],
                &shared,
                lo,
            );
        }
    }
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

    /// A plain map-based run of the recurrence, for what neither kernel
    /// exposes: per layer the number of reachable states, and over the chain
    /// how many states are reached at their best `(cost, Σ|β|)` from two
    /// different predecessors.
    fn census(fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> (Vec<usize>, usize) {
        use std::collections::BTreeMap;
        let grids: Vec<Grid> = fecs
            .iter()
            .map(|f| bias_candidates_for(spec.max_bias(f.support())))
            .collect();
        let e = |j: usize, b: i64| fecs[j].support() as i64 + b;
        let mut layer: BTreeMap<Vec<i64>, (i64, u64)> = grids[0]
            .as_slice()
            .iter()
            .map(|&b| (vec![b], (0, b.unsigned_abs())))
            .collect();
        let mut sizes = vec![layer.len()];
        let mut ties = 0;
        for i in 1..fecs.len() {
            let mut reached: BTreeMap<Vec<i64>, Vec<(i64, u64)>> = BTreeMap::new();
            for (state, &(cost, abs)) in &layer {
                let first = i - state.len();
                for &b in grids[i].as_slice() {
                    if e(i, b) <= e(i - 1, state[state.len() - 1]) {
                        continue;
                    }
                    let added: i64 = (first..i)
                        .zip(state)
                        .map(|(j, &bj)| {
                            let gap = (spec.alpha() as i64 + 1 - (e(i, b) - e(j, bj))).max(0);
                            (fecs[i].size() + fecs[j].size()) as i64 * gap * gap
                        })
                        .sum();
                    let mut next = state[state.len().saturating_sub(gamma - 1)..].to_vec();
                    next.push(b);
                    let value = (cost + added, abs + b.unsigned_abs());
                    reached.entry(next).or_default().push(value);
                }
            }
            layer = reached
                .into_iter()
                .map(|(state, mut values)| {
                    values.sort_unstable();
                    ties += usize::from(values.len() > 1 && values[0] == values[1]);
                    (state, values[0])
                })
                .collect();
            sizes.push(layer.len());
        }
        (sizes, ties)
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
        let mut ties = 0;
        for (which, spec) in specs.iter().enumerate() {
            for seed in 0..50u64 {
                let mut rng = SmallRng::seed_from_u64(seed * 4 + which as u64);
                // Strictly increasing supports from C up, gaps mixing dense
                // stretches (inside α) with breaks the DP forgets across.
                // The last ten chains are tie-heavy instead: one class size
                // throughout and gaps of 1–3, so mirrored candidates reach a
                // state at exactly equal (cost, Σ|β|).
                let tie_heavy = seed >= 40;
                let n = 2 + rng.gen_range_usize(14);
                let mut support = spec.c() + rng.gen_below(6);
                let skeleton: Vec<(u64, usize)> = (0..n)
                    .map(|_| {
                        let here = support;
                        support += 1 + if tie_heavy {
                            rng.gen_below(3)
                        } else if rng.gen_bool(0.2) {
                            rng.gen_below(3 * spec.alpha())
                        } else {
                            rng.gen_below(4)
                        };
                        let size = if tie_heavy {
                            2
                        } else {
                            1 + rng.gen_range_usize(4)
                        };
                        (here, size)
                    })
                    .collect();
                let fecs = fecs_with_sizes(&skeleton);
                let candidates: Vec<Vec<i64>> = fecs
                    .iter()
                    .map(|f| reference::bias_candidates_for(spec.max_bias(f.support())))
                    .collect();
                singleton_grids += candidates.iter().filter(|c| c.len() == 1).count();
                // The reference holds every transition of a layer at once:
                // deep windows get the head of every tenth chain.
                let deepest = if seed % 10 == 0 { 6 } else { 4 };
                for gamma in 1..=deepest {
                    let n = if gamma >= 5 { n.min(8) } else { n };
                    let old =
                        reference::solve(&fecs[..n], &candidates[..n], spec.alpha() as i64, gamma);
                    let new = order_preserving_biases(&fecs[..n], spec, gamma);
                    assert_eq!(new, old, "{skeleton:?} γ={gamma}");
                }
                if tie_heavy {
                    ties += census(&fecs, spec, 2).1 + census(&fecs, spec, 3).1;
                }
            }
        }
        assert!(singleton_grids > 0);
        // The smallest-parent rule was exercised, not merely permitted.
        assert!(ties > 0, "no state was reached at an exact tie");
    }

    /// What separates rows of reachable states from a dense `13^γ` box: on a
    /// dense chain at γ = 5 a layer never holds more than a grid's worth of
    /// slots per reachable state, where the box over the same five grids is
    /// far larger.
    #[test]
    fn deep_gamma_layers_hold_reachable_rows_only() {
        let supports: Vec<u64> = (0..40).map(|i| 25 + i).collect();
        let fecs = fecs_with_supports(&supports);
        let s = spec();
        let (reachable, _) = census(&fecs, &s, 5);
        let mut scratch = OrderScratch::default();
        scratch.solve(&fecs, &s, 5);
        let mut rows_from = 0;
        for (i, &(rows_to, _)) in scratch.ends.iter().enumerate() {
            let held = (rows_to - rows_from) * scratch.grids[i].len;
            assert!(held >= reachable[i]);
            assert!(held <= MAX_GRID * reachable[i], "layer {i}");
            rows_from = rows_to;
        }
        let dense: usize = scratch.grids[35..40].iter().map(|g| g.len).product();
        assert!(dense > 4 * MAX_GRID * reachable[39]);
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
