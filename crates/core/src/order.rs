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
//! rank of the newest FEC, unreached where the chain constraint excludes
//! it. Only rows with a reachable state exist, in ascending key order; at
//! `γ = 2` a layer is a `≤ 13 × 13` table whose keys are the ranks
//! themselves, at `γ = 1` it is one row. A state's value `(cost, Σ|β|)` is
//! one `u64`, `cost << shift | Σ|β| << 4`, `shift` leaving room for the
//! chain's largest possible `Σ|β|`, so integer order is the lexicographic
//! order the DP minimizes. The low four bits carry a rank: a candidate
//! predecessor is compared with the rank it drops or-ed in, so the smallest
//! candidate is the best value and, on an exact tie, the smallest
//! predecessor — the total tie-break `(cost, Σ|β|, parent)` the
//! byte-identity suites pin, in one unsigned `min`. Every cost is an
//! integer (class sizes times squared integer gaps), so the packing is
//! exact; a solve whose worst-case path would not fit the word panics
//! before its first layer, in release builds too.
//!
//! **Expansion.** Each pair cost `(s_i + s_j)(α + 1 − d)²` against the
//! new FEC is computed where a state reads it; only the middle digits'
//! (`γ ≥ 3`) are tabulated, once per layer. Once states are `γ` long the
//! oldest digit is dropped, and the rows of the previous layer that differ
//! only in it — found by one k-way merge over its `≤ 13` oldest-rank runs
//! per *group of rows* sharing the middle digits, or at once when no middle
//! digit is kept (`γ = 2`) — feed the same new rows, one per newest rank `l`
//! they hold. Candidates ascend, so two-pointer passes over the grids give,
//! per layer, the ranks of the new FEC that rank `l` of FEC `i − 1` admits
//! under the chain constraint (a suffix), per new rank `r` the dropped ranks
//! it overlaps (a window sliding up with `r`: below it the ranks too far
//! away to cost anything, above it those the chain constraint excludes),
//! and per `l` the dropped ranks a predecessor can hold at all (`cap`:
//! its own chain puts them below `e_{i−1}`, and below the oldest kept
//! digit's estimator once one is kept). The cost of the digits a new row
//! shares is computed once per row and slot; what differs between its
//! predecessors is their own value and the pair cost of the dropped FEC
//! against the new one. A row folds its predecessors below `cap` into
//! prefix minima once — and is not made when none is reached — and each
//! slot costs only its window, cut at `cap`. Adding the shared cost after
//! the minimum instead of before changes no comparison, because the sum is
//! exact.
//!
//! **Retention.** Values exist for two layers at a time (two rolling
//! `Front`s), each group's rows written into room for one per newest rank.
//! What a solve keeps per layer is one `u8` per state — the oldest rank its
//! best predecessor dropped — and per row the slot its predecessors share
//! and where its group's row indices start, so backtracking indexes the
//! predecessor's row directly: at most `169 + 13·8 + 13·4` bytes a layer
//! at `γ = 2`. The kernel is serial: per-stream
//! parallelism lives one level up, across shards.

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

/// The best `(cost, Σ|β|)` reaching a state, packed as `cost << shift |
/// Σ|β| << 4` (see [`value_shift`]). Σ|β| along the best path is the
/// lexicographic tie-break that makes isolated FECs keep β = 0. The low four
/// bits are free for a rank (`MAX_GRID ≤ 16`): a candidate predecessor is
/// its value with the rank it dropped or-ed in, so the smallest candidate is
/// the best value, and of equal values the smallest rank.
type Value = u64;

/// The value of a state no chain-consistent path reaches. It absorbs any
/// rank or-ed into it and, added with saturation, any cost, so the kernel
/// carries unreached predecessors along instead of branching on them.
const UNREACHED: Value = Value::MAX;

/// The bits below a [`Value`]'s `Σ|β|` that hold a rank.
const RANK_BITS: u32 = 4;
const RANK_MASK: Value = (1 << RANK_BITS) - 1;

/// The part of a layer the next one is expanded from: its row keys,
/// ascending, and row-major over `rows × grid len of the newest FEC` the
/// value of each state.
#[derive(Clone, Debug, Default)]
struct Front {
    keys: Vec<u64>,
    reach: Vec<Value>,
}

/// Where the states of one row came from: their predecessors all hold
/// `slot` as their newest rank, and the predecessor that dropped rank `d`
/// is row `links[link + d]` of the layer before.
#[derive(Clone, Copy, Debug, Default)]
struct RowParent {
    link: u32,
    slot: u8,
}

/// What a layer expansion reads besides the previous layer: the chain's
/// FECs (supports and sizes), their candidate grids, the two DP parameters
/// and the value packing.
#[derive(Clone, Copy)]
struct Chain<'a> {
    fecs: &'a [Fec],
    grids: &'a [Grid],
    alpha: i64,
    gamma: usize,
    shift: u32,
}

impl Chain<'_> {
    /// FEC `j`'s estimator `t_j + β` at each rank of its grid.
    fn estimators(&self, j: usize) -> Slots<i64> {
        let t = self.fecs[j].support() as i64;
        let mut e = [0; MAX_GRID];
        for (e, b) in e.iter_mut().zip(self.grids[j].as_slice()) {
            *e = t + b;
        }
        e
    }

    /// The pair weight `s_i + s_j`.
    fn weight(&self, i: usize, j: usize) -> u64 {
        (self.fecs[i].size() + self.fecs[j].size()) as u64
    }
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
    /// What backtracking reads, every layer end to end: per row its
    /// [`RowParent`] (layer 0's one row has none to name), per group the
    /// predecessors' row indices by dropped rank, and per state of layers
    /// `1..` the oldest rank its best predecessor dropped (0 while states
    /// still grow and nothing is dropped).
    rows: Vec<RowParent>,
    links: Vec<u32>,
    dropped: Vec<u8>,
    /// Per layer, where its rows end in `rows` and its states in `dropped`.
    ends: Vec<(usize, usize)>,
    /// The layer being built's pair costs against the kept key digits
    /// other than the newest: per digit and rank, one cost per new rank.
    middle: Vec<Slots<u64>>,
}

/// Where a layer expansion appends what backtracking reads.
struct Parents<'a> {
    rows: &'a mut Vec<RowParent>,
    links: &'a mut Vec<u32>,
    dropped: &'a mut Vec<u8>,
}

impl OrderScratch {
    /// Algorithm 1 for one window: one bias per FEC (`fecs` sorted ascending
    /// by support).
    ///
    /// # Panics
    /// If the chain's worst-case `(cost, Σ|β|)` does not fit one `u64` (see
    /// [`value_shift`]), or its row keys do not fit one (see
    /// [`dp_next_layer`]).
    pub(crate) fn solve(&mut self, fecs: &[Fec], spec: &PrivacySpec, gamma: usize) -> Vec<f64> {
        self.rows.clear();
        self.links.clear();
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
        let (abs_bound, cost_bound) = value_bounds(fecs, &self.grids, spec.alpha(), gamma);
        let shift = value_shift(abs_bound, cost_bound)
            .expect("order-DP (cost, Σ|β|) exceeds 64 bits: supports, class sizes or α too large");

        // DP over states = bias choices of the trailing min(γ, i+1) FECs.
        // The value is (inversion cost, Σ|bias| so far) compared
        // lexicographically: among equal-cost settings the most precise
        // (smallest total |bias|) wins.
        let chain = Chain {
            fecs,
            grids: &self.grids,
            alpha: spec.alpha() as i64,
            gamma,
            shift,
        };
        for i in 0..n {
            match i {
                0 => {
                    dp_first_layer(&self.grids[0], &mut self.next);
                    self.rows.push(RowParent::default());
                }
                _ => dp_next_layer(
                    &chain,
                    i,
                    &self.prev,
                    &mut self.next,
                    &mut self.middle,
                    Parents {
                        rows: &mut self.rows,
                        links: &mut self.links,
                        dropped: &mut self.dropped,
                    },
                ),
            }
            self.ends.push((self.rows.len(), self.dropped.len()));
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
    /// and walk the parents back to recover one bias per FEC. On exact
    /// `(cost, Σ|β|)` ties the smallest state wins because rows ascend by key
    /// and slots by rank.
    fn backtrack(&self, gamma: usize) -> Vec<f64> {
        let last = &self.prev.reach;
        let best = (1..last.len()).fold(0, |b, s| if last[s] < last[b] { s } else { b });
        let n = self.ends.len();
        let width = self.grids[n - 1].len;
        let (mut row, mut slot) = (best / width, best % width);
        let mut biases = vec![0.0; n];
        for i in (1..n).rev() {
            let width = self.grids[i].len;
            biases[i] = self.grids[i].vals[slot] as f64;
            let (rows_from, states_from) = self.ends[i - 1];
            let dropped = self.dropped[states_from + row * width + slot] as usize;
            // At γ = 1 a state is one rank: what was dropped *is* the
            // predecessor's slot in the layer's one row.
            (row, slot) = if gamma == 1 {
                (0, dropped)
            } else {
                let parent = self.rows[rows_from + row];
                (
                    self.links[parent.link as usize + dropped] as usize,
                    parent.slot as usize,
                )
            };
        }
        biases[0] = self.grids[0].vals[slot] as f64;
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

/// Upper bounds on what a path through the chain can sum: `Σ|β|` (every
/// FEC at its widest bias) and the cost (every costed pair at the largest
/// overlap a chain-consistent pair can have, `d = 1`). Saturating, so a
/// chain past any bound reads as too large rather than wrapping.
fn value_bounds(fecs: &[Fec], grids: &[Grid], alpha: u64, gamma: usize) -> (u128, u128) {
    let abs_bound = grids.iter().map(|g| g.vals[g.len - 1] as u128).sum();
    let mut weights = 0u128;
    for i in 1..fecs.len() {
        for j in i.saturating_sub(gamma)..i {
            weights = weights.saturating_add((fecs[i].size() + fecs[j].size()) as u128);
        }
    }
    let per_pair = (alpha as u128).saturating_mul(alpha as u128);
    (abs_bound, weights.saturating_mul(per_pair))
}

/// The shift that packs `(cost, Σ|β|)` into one [`Value`] for sums up to
/// these bounds: the rank bits plus the bits `abs_bound` needs, so Σ|β|
/// never carries into the cost nor a rank into Σ|β|. `None` when the
/// largest packed value, any rank or-ed in, would reach [`UNREACHED`].
fn value_shift(abs_bound: u128, cost_bound: u128) -> Option<u32> {
    let shift = RANK_BITS + u128::BITS - abs_bound.leading_zeros();
    if shift >= u64::BITS {
        return None;
    }
    let top = cost_bound
        .checked_mul(1 << shift)?
        .checked_add(abs_bound << RANK_BITS | u128::from(RANK_MASK))?;
    (top < u128::from(UNREACHED)).then_some(shift)
}

/// Layer 0 of the DP: one row, one state per candidate bias of the first
/// FEC. A pure function of the candidate grid.
fn dp_first_layer(grid: &Grid, out: &mut Front) {
    out.keys.clear();
    out.keys.push(0);
    out.reach.clear();
    out.reach.extend(
        grid.as_slice()
            .iter()
            .map(|b| b.unsigned_abs() << RANK_BITS),
    );
}

/// Expand layer `i` into `out` from layer `i − 1` and append its parents. A
/// pure function of the previous layer and the `(support, size)` skeleton
/// of `fecs[..=i]`. The layer is never empty: supports ascend strictly and
/// every grid holds 0, so the all-zero path always satisfies the chain
/// constraint.
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
    middle: &mut Vec<Slots<u64>>,
    mut parents: Parents<'_>,
) {
    let layer = Expansion::new(chain, i, middle);
    out.keys.clear();
    out.reach.clear();
    if chain.gamma == 1 {
        // A state is one rank, so the rank dropped is the slot itself: one
        // row in, one row out, nothing shared.
        let mut from = [UNREACHED; MAX_GRID];
        for (d, (f, &value)) in from.iter_mut().zip(&prev.reach).enumerate() {
            *f = value | d as Value;
        }
        out.keys.push(0);
        parents.rows.push(RowParent::default());
        out.reach.resize(layer.width, UNREACHED);
        let at = parents.dropped.len();
        parents.dropped.resize(at + layer.width, 0);
        let reached = layer.fill_row(
            &from,
            &[0; MAX_GRID],
            0,
            layer.runs as u8,
            &mut out.reach,
            &mut parents.dropped[at..],
        );
        debug_assert!(reached, "a layer is never empty");
        return;
    }

    // prev's rows split into one run per oldest rank, each ascending by the
    // digits the new rows keep (`key mod kept`). Merge the runs by those
    // digits; the rows sharing them are one group.
    let (runs, stride) = (layer.runs, layer.stride);
    // The new rows' keys are `suffix · stride + l`, below `kept · stride`.
    let kept = (layer.oldest..layer.held - 1)
        .try_fold(1u64, |acc, k| acc.checked_mul(layer.radix(k) as u64))
        .filter(|kept| kept.checked_mul(stride as u64).is_some())
        .expect("order-DP row keys exceed u64: γ-window of candidate grids too wide");
    let mut group = [(0u8, 0u32); MAX_GRID];
    if kept == 1 {
        // No digit is kept but the newest (γ = 2 once states are full, or
        // every middle grid has one candidate): a row's key is its oldest
        // rank and the whole layer is one group.
        for (g, (row, &key)) in group.iter_mut().zip(prev.keys.iter().enumerate()) {
            *g = (key as u8, row as u32);
        }
        layer.expand_group(prev, 0, &group[..prev.keys.len()], out, &mut parents);
        return;
    }
    let mut cursor = [0usize; MAX_GRID + 1];
    for (r0, c) in cursor.iter_mut().enumerate().take(runs + 1).skip(1) {
        *c = prev.keys.partition_point(|&key| key < r0 as u64 * kept);
    }
    let end = cursor;
    let head = |cursor: &[usize; MAX_GRID + 1], r0: usize| {
        (cursor[r0] < end[r0 + 1]).then(|| prev.keys[cursor[r0]] - r0 as u64 * kept)
    };
    while let Some(suffix) = (0..runs).filter_map(|r0| head(&cursor, r0)).min() {
        let mut rows = 0;
        for r0 in 0..runs {
            if head(&cursor, r0) == Some(suffix) {
                group[rows] = (r0 as u8, cursor[r0] as u32);
                rows += 1;
                cursor[r0] += 1;
            }
        }
        layer.expand_group(prev, suffix, &group[..rows], out, &mut parents);
    }
}

/// One rank `r` of the new FEC `i` as its layer reads it.
#[derive(Clone, Copy, Default)]
struct NewRank {
    /// `α + 1 − e_i`: the overlap gap against an estimator `e < e_i` is
    /// `gap + e`, positive exactly where the two overlap.
    gap: i64,
    /// `|β|`, shifted to where a value holds it.
    abs: Value,
    /// The dropped ranks `r` overlaps, `clear..hi`: below are the ranks too
    /// far away to cost anything, from `hi` on those the chain constraint
    /// excludes.
    clear: u8,
    hi: u8,
}

/// What one layer's rows read besides their predecessors. prev's digits are
/// the ranks of FECs `first .. i−1`, oldest first: all but the newest in
/// the row key, the newest as the slot. Once states are `γ` long the oldest
/// digit is dropped and its runs merged; before, nothing is dropped and
/// every row has one predecessor, held as a stand-in rank that never
/// overlaps.
struct Expansion<'a> {
    chain: &'a Chain<'a>,
    first: usize,
    /// Digits held by prev's states, and the first of them a new row keeps.
    held: usize,
    oldest: usize,
    /// Ranks of the dropped FEC (1 while nothing is dropped), and of FEC
    /// `i − 1`, the newest digit.
    runs: usize,
    stride: usize,
    width: usize,
    new: Slots<NewRank>,
    /// Against the dropped FEC: its estimators and the pair weight.
    e_old: Slots<i64>,
    w_old: u64,
    /// Against the kept digits other than the newest: per digit `k`, from
    /// `middle[mid_at[k]]` on, one row of costs per rank.
    middle: &'a [Slots<u64>],
    mid_at: [usize; MAX_GAMMA],
    /// Against FEC `i − 1`: its estimators, the pair weight and, per rank
    /// `l`, the first new rank the chain constraint `e_{i−1} < e_i` admits
    /// and how many dropped ranks a state holding `l` can hold (its own
    /// chain puts them below `e_{i−1}`).
    e_last: Slots<i64>,
    w_last: u64,
    lo: Slots<u8>,
    cap: Slots<u8>,
}

impl<'a> Expansion<'a> {
    fn new(chain: &'a Chain<'a>, i: usize, middle: &'a mut Vec<Slots<u64>>) -> Self {
        let held = chain.gamma.min(i);
        let first = i - held;
        let merge = held == chain.gamma;
        let width = chain.grids[i].len;
        let e_new = chain.estimators(i);
        let e_old = chain.estimators(first);
        // At γ = 1 FEC i − 1 is the dropped FEC and costed as such: as the
        // newest digit it admits every rank and adds nothing.
        let (e_last, w_last) = if chain.gamma == 1 {
            ([i64::MIN / 2; MAX_GRID], 0)
        } else {
            (chain.estimators(i - 1), chain.weight(i, i - 1))
        };
        let runs = if merge { chain.grids[first].len } else { 1 };
        let stride = chain.grids[i - 1].len;
        // Candidates ascend, so each bound is a two-pointer pass: the
        // overlapped window of dropped ranks slides up with the new rank,
        // and the admitted suffix of new ranks starts later as l grows.
        let mut new = [NewRank::default(); MAX_GRID];
        let (mut d, mut h) = (0, 0);
        for (r, nr) in new.iter_mut().enumerate().take(width) {
            if merge {
                while d < runs && e_new[r] - e_old[d] > chain.alpha {
                    d += 1;
                }
                while h < runs && e_old[h] < e_new[r] {
                    h += 1;
                }
            } else {
                (d, h) = (1, 1);
            }
            *nr = NewRank {
                gap: chain.alpha + 1 - e_new[r],
                abs: chain.grids[i].vals[r].unsigned_abs() << RANK_BITS,
                clear: d as u8,
                hi: h as u8,
            };
        }
        let mut lo: Slots<u8> = [0; MAX_GRID];
        let mut cap: Slots<u8> = [runs as u8; MAX_GRID];
        let (mut r, mut d) = (0, 0);
        for l in 0..stride {
            while r < width && e_new[r] <= e_last[l] {
                r += 1;
            }
            lo[l] = r as u8;
            if merge && chain.gamma > 1 {
                while d < runs && e_old[d] < e_last[l] {
                    d += 1;
                }
                cap[l] = d as u8;
            }
        }
        // The kept digits other than the newest: what each of their ranks
        // adds at each new rank. A rank whose estimator reaches e_i adds
        // nothing: no chain-consistent row reads that slot.
        let oldest = usize::from(merge);
        middle.clear();
        let mut mid_at = [0; MAX_GAMMA];
        for (k, at) in mid_at.iter_mut().enumerate().take(held - 1).skip(oldest) {
            *at = middle.len();
            let j = first + k;
            let w = chain.weight(i, j);
            for e_j in chain.estimators(j).into_iter().take(chain.grids[j].len) {
                let mut costs = [0; MAX_GRID];
                for (c, nr) in costs.iter_mut().zip(&new[..width]) {
                    let gap = nr.gap + e_j;
                    if gap <= 0 {
                        break; // candidates ascend: no later rank overlaps either
                    }
                    if gap <= chain.alpha {
                        *c = w * (gap * gap) as u64;
                    }
                }
                middle.push(costs);
            }
        }
        Expansion {
            chain,
            first,
            held,
            oldest,
            runs,
            stride,
            width,
            new,
            e_old,
            w_old: chain.weight(i, first),
            middle,
            mid_at,
            e_last,
            w_last,
            lo,
            cap,
        }
    }

    /// Grid length of the FEC at digit `k` of prev's states.
    fn radix(&self, k: usize) -> usize {
        self.chain.grids[self.first + k].len
    }

    /// The new rows of one group: prev's rows `group` (`(oldest rank, row)`,
    /// ascending by rank) share the kept digits `suffix`, and feed one new
    /// row per newest rank `l` they reach.
    fn expand_group(
        &self,
        prev: &Front,
        suffix: u64,
        group: &[(u8, u32)],
        out: &mut Front,
        parents: &mut Parents<'_>,
    ) {
        let width = self.width;
        let link = parents.links.len();
        parents.links.resize(link + self.runs, u32::MAX);
        for &(rank, row) in group {
            parents.links[link + usize::from(rank)] = row;
        }
        // What the kept key digits other than the newest add, whichever
        // slot follows them.
        let mut middle = [0u64; MAX_GRID];
        let mut code = suffix;
        // Once a digit is dropped, the dropped ranks a predecessor can hold
        // lie below the oldest kept digit's estimator, as they lie below
        // FEC i − 1's (`cap`).
        let mut cap = self.runs as u8;
        for k in (self.oldest..self.held - 1).rev() {
            // The oldest kept digit is what the others leave: no division.
            let d = if k == self.oldest {
                if self.oldest == 1 {
                    let e = self.chain.fecs[self.first + k].support() as i64
                        + self.chain.grids[self.first + k].vals[code as usize];
                    cap = self.e_old[..self.runs]
                        .iter()
                        .take_while(|&&x| x < e)
                        .count() as u8;
                }
                code as usize
            } else {
                let radix = self.radix(k) as u64;
                let d = code % radix;
                code /= radix;
                d as usize
            };
            for (a, c) in middle.iter_mut().zip(&self.middle[self.mid_at[k] + d]) {
                *a += c;
            }
        }
        // The group's rows are written into room for one per newest rank,
        // cut back to the rows it made.
        let (at, at_dropped) = (out.reach.len(), parents.dropped.len());
        let room = self.stride * width;
        out.reach.resize(at + room, UNREACHED);
        parents.dropped.resize(at_dropped + room, 0);
        // The group's states by newest rank, each row dense by dropped rank
        // with the rank or-ed in.
        let mut by_slot = [[UNREACHED; MAX_GRID]; MAX_GRID];
        for &(rank, row) in group {
            let at = row as usize * self.stride;
            let states = &prev.reach[at..at + self.stride];
            for (from, &value) in by_slot.iter_mut().zip(states) {
                from[usize::from(rank)] = value | Value::from(rank);
            }
        }
        let mut made = 0;
        for (l, from) in by_slot.iter().enumerate().take(self.stride) {
            if usize::from(self.lo[l]) == width {
                continue;
            }
            let row = made * width..(made + 1) * width;
            if self.fill_row(
                from,
                &middle,
                l,
                cap,
                &mut out.reach[at..][row.clone()],
                &mut parents.dropped[at_dropped..][row],
            ) {
                out.keys.push(suffix * self.stride as u64 + l as u64);
                parents.rows.push(RowParent {
                    link: link as u32,
                    slot: l as u8,
                });
                made += 1;
            }
        }
        out.reach.truncate(at + made * width);
        parents.dropped.truncate(at_dropped + made * width);
    }

    /// Fill one new row, the one whose predecessors hold rank `l` for FEC
    /// `i − 1`: slots `lo[l]..` from the predecessors `from`, dense by
    /// dropped rank and each or-ed with its rank ([`UNREACHED`] where a rank
    /// has none). What every one of them adds at rank `r` is `middle[r]`
    /// plus the pair cost of `l` against `r`. The ranks below a new rank's
    /// overlap window are folded into prefix minima once for the row; only
    /// the window is costed rank by rank. Candidates are compared with their
    /// rank or-ed in, so on exact ties the smallest dropped rank — the
    /// smallest predecessor — wins. Only the ranks below `cap[l]` can hold a
    /// predecessor; `false`, and nothing written, when none does.
    #[inline(always)]
    fn fill_row(
        &self,
        from: &Slots<Value>,
        middle: &Slots<u64>,
        l: usize,
        cap: u8,
        row: &mut [Value],
        dropped: &mut [u8],
    ) -> bool {
        let width = self.width;
        let shift = self.chain.shift;
        let (e_last, cap) = (self.e_last[l], self.cap[l].min(cap));
        // best[d]: the smallest of from[..d].
        let mut best = [UNREACHED; MAX_GRID + 1];
        for d in 0..usize::from(cap) {
            best[d + 1] = best[d].min(from[d]);
        }
        if best[usize::from(cap)] == UNREACHED {
            return false;
        }
        for (r, nr) in self.new[..width]
            .iter()
            .enumerate()
            .skip(usize::from(self.lo[l]))
        {
            let start = nr.clear.min(cap);
            let mut win = best[usize::from(start)];
            let window = usize::from(start)..usize::from(nr.hi.min(cap));
            for (&candidate, &e_old) in from[window.clone()].iter().zip(&self.e_old[window]) {
                // 0 < e_i − e_d ≤ α here: the overlap cost, unconditionally.
                let gap = (nr.gap + e_old) as u64;
                win = win.min(candidate.saturating_add((self.w_old * gap * gap) << shift));
            }
            // e_i > e_{i−1} here; the cost is zero from α on.
            let gap = (nr.gap + e_last).max(0) as u64;
            let shared = middle[r] + self.w_last * gap * gap;
            if win != UNREACHED {
                row[r] = (win & !RANK_MASK) + (shared << shift) + nr.abs;
            }
            dropped[r] = (win & RANK_MASK) as u8;
        }
        true
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
        let grids = grids_of(spec, fecs);
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

    /// The FEC chains a shard publishing `profile` at a served contract
    /// hands the kernel: Moment over a window of `window` transactions,
    /// settled and read out every `every` arrivals once the window is full.
    fn served_chains(
        profile: bfly_datagen::DatasetProfile,
        window: u64,
        c: u64,
        every: u64,
        chains: usize,
    ) -> Vec<Vec<Fec>> {
        use bfly_mining::{MinerBackend, MomentMiner};
        let stream = profile
            .source(7)
            .take_vec((window + every * chains as u64) as usize);
        let items = |tid: u64| stream[tid as usize - 1].items().items();
        let mut miner = MomentMiner::new(c);
        for tid in 1..=window {
            miner.insert(tid, items(tid));
        }
        let mut tid = window;
        (0..chains)
            .map(|_| {
                for _ in 0..every {
                    tid += 1;
                    miner.remove(tid - window);
                    miner.insert(tid, items(tid));
                }
                miner.settle();
                partition_into_fecs(&miner.closed_frequent())
            })
            .collect()
    }

    /// The pattern the kernel is tuned for, which synthetic skeletons lack:
    /// dense low-support runs of 3–5-point grids next to sparse 13-point
    /// ones, on the chains `publish_live` (WebView1 W 2000 C 25 every 100)
    /// and `mine_pos` (POS W 500 C 20 every 250) solve, ε 0.016, δ 0.4.
    #[test]
    fn kernel_equals_the_reference_on_mined_chains() {
        use bfly_datagen::DatasetProfile;
        for (profile, window, c, every) in [
            (DatasetProfile::WebView1, 2000, 25, 100),
            (DatasetProfile::Pos, 500, 20, 250),
        ] {
            let spec = PrivacySpec::new(c, 5, 0.016, 0.4);
            let (mut narrow, mut full) = (0, 0);
            for fecs in served_chains(profile, window, c, every, 4) {
                let candidates: Vec<Vec<i64>> = fecs
                    .iter()
                    .map(|f| reference::bias_candidates_for(spec.max_bias(f.support())))
                    .collect();
                narrow += candidates
                    .iter()
                    .filter(|c| (3..=5).contains(&c.len()))
                    .count();
                full += candidates.iter().filter(|c| c.len() == MAX_GRID).count();
                for gamma in 1..=3 {
                    assert_eq!(
                        order_preserving_biases(&fecs, &spec, gamma),
                        reference::solve(&fecs, &candidates, spec.alpha() as i64, gamma),
                        "{} γ={gamma}",
                        profile.name()
                    );
                }
            }
            assert!(
                narrow > 0 && full > 0,
                "{}: {narrow} narrow, {full} full",
                profile.name()
            );
        }
    }

    #[test]
    fn value_packing_refuses_exactly_past_its_width() {
        // Σ|β| below 2²⁰ takes 20 bits above the 4 rank bits; a cost of
        // 2⁴⁰ − 2 then tops out at 2⁶⁴ − 2²⁴ − 1, one more reaches 2⁶⁴ − 1.
        assert_eq!(value_shift((1 << 20) - 1, (1 << 40) - 2), Some(24));
        assert_eq!(value_shift((1 << 20) - 1, (1 << 40) - 1), None);
        assert_eq!(value_shift(1 << 20, 0), Some(25));
        assert_eq!(value_shift(0, 0), Some(RANK_BITS));
        assert_eq!(value_shift(1 << 60, 0), None);
        assert_eq!(value_shift(0, u128::MAX), None);
    }

    /// Three classes from `C = K + 1`: a window of width `α ≈ 1.55 K` and
    /// budgets `β^m ≈ 0.55 K`, so a value needs about `3 log₂ K` bits.
    fn wide_chain(k: u64) -> (PrivacySpec, Vec<Fec>) {
        let spec = PrivacySpec::new(k + 1, k, 0.5, 0.4);
        (spec, fecs_with_sizes(&[(k + 1, 3), (k + 2, 2), (k + 4, 3)]))
    }

    fn grids_of(spec: &PrivacySpec, fecs: &[Fec]) -> Vec<Grid> {
        fecs.iter()
            .map(|f| bias_candidates_for(spec.max_bias(f.support())))
            .collect()
    }

    /// `(cost, Σ|β|)` of a bias vector, exact in `u128`.
    fn exact_value(spec: &PrivacySpec, fecs: &[Fec], biases: &[i64]) -> (u128, u128) {
        let e: Vec<i128> = fecs
            .iter()
            .zip(biases)
            .map(|(f, &b)| f.support() as i128 + b as i128)
            .collect();
        let alpha = spec.alpha() as i128;
        let mut cost = 0;
        for j in 0..e.len() {
            for i in j + 1..e.len() {
                let gap = (alpha + 1 - (e[i] - e[j])).max(0) as u128;
                cost += (fecs[i].size() + fecs[j].size()) as u128 * gap * gap;
            }
        }
        (cost, biases.iter().map(|b| b.unsigned_abs() as u128).sum())
    }

    /// The largest power-of-two `K` whose [`wide_chain`] still packs, and
    /// the next, which does not.
    fn widest_packing_k() -> (u64, u64) {
        let fits = |k: u64| {
            let (spec, fecs) = wide_chain(k);
            let (abs_bound, cost_bound) =
                value_bounds(&fecs, &grids_of(&spec, &fecs), spec.alpha(), 2);
            value_shift(abs_bound, cost_bound).is_some()
        };
        let k = (4..40)
            .map(|b| 1u64 << b)
            .take_while(|&k| fits(k))
            .last()
            .expect("a small K packs");
        (k, 2 * k)
    }

    /// At the width limit the values are far past `f64`'s 53 exact bits,
    /// and the kernel still returns the exact optimum: on three classes at
    /// γ = 2 every pair is costed, so the exhaustive search over all grid
    /// combinations, in `u128`, is the same problem.
    #[test]
    fn values_at_the_width_limit_stay_exact() {
        let (k, _) = widest_packing_k();
        let (spec, fecs) = wide_chain(k);
        let grids = grids_of(&spec, &fecs);
        let (abs_bound, cost_bound) = value_bounds(&fecs, &grids, spec.alpha(), 2);
        let shift = value_shift(abs_bound, cost_bound).expect("packs");
        let top_bits = u128::BITS - (cost_bound << shift).leading_zeros();
        assert!(top_bits > 60, "K = {k}: top needs only {top_bits} bits");
        let mut best: Option<(u128, u128)> = None;
        for &b0 in grids[0].as_slice() {
            for &b1 in grids[1].as_slice() {
                for &b2 in grids[2].as_slice() {
                    let e = |i: usize, b: i64| fecs[i].support() as i64 + b;
                    if e(0, b0) < e(1, b1) && e(1, b1) < e(2, b2) {
                        let v = exact_value(&spec, &fecs, &[b0, b1, b2]);
                        best = Some(best.map_or(v, |best| best.min(v)));
                    }
                }
            }
        }
        let biases: Vec<i64> = order_preserving_biases(&fecs, &spec, 2)
            .iter()
            .map(|&b| b as i64)
            .collect();
        assert_eq!(Some(exact_value(&spec, &fecs, &biases)), best, "K = {k}");
    }

    #[test]
    #[should_panic(expected = "exceeds 64 bits")]
    fn a_chain_past_the_width_limit_is_refused() {
        let (_, k) = widest_packing_k();
        let (spec, fecs) = wide_chain(k);
        order_preserving_biases(&fecs, &spec, 2);
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
