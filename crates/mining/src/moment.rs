//! Moment-style sliding-window miner of closed frequent itemsets.
//!
//! Re-implements the system the paper hosts Butterfly on (Chi, Wang, Yu &
//! Muntz, *Moment: Maintaining closed frequent itemsets over a stream
//! sliding window*, ICDM 2004): a **closed enumeration tree** (CET) whose
//! nodes carry exact tidsets and one of four types —
//!
//! * **infrequent gateway** — support below `C`; children not explored;
//! * **unpromising gateway** — frequent, but some *skipped* item (an item
//!   ordered before the node's extension item and absent from the itemset)
//!   occurs in every supporting transaction, so every closed superset is
//!   enumerated on an earlier branch (the LCM/DCI prefix-preservation test);
//! * **intermediate** — frequent and promising but some child has equal
//!   support (its closure extends rightward);
//! * **closed** — frequent, promising, and no equal-support child.
//!
//! Insertions and deletions walk only the nodes whose itemset is contained
//! in the arriving/leaving transaction, flipping node types locally and
//! re-exploring subtrees only on gateway→promising transitions — the
//! property that makes the miner incremental. Where our implementation
//! differs from the original (tidsets instead of the paper's FP-tree-backed
//! counters), the observable behaviour is identical; differential tests
//! against [`RescanMiner`](crate::RescanMiner) enforce that on
//! randomized streams.

use crate::backend::MinerBackend;
use crate::closed::expand_closed;
use crate::result::FrequentItemsets;
use bfly_common::{Item, ItemSet, Support, TidBitmap, Transaction, VerticalIndex, WindowDelta};
use std::collections::{BTreeMap, BTreeSet, HashMap};

type Tid = u64;

/// Starting ring size for the miner's vertical index; doubled (and the CET
/// remapped) whenever the live tid range outgrows it.
const INITIAL_RING: usize = 64;

/// The four CET node types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKind {
    InfrequentGateway,
    UnpromisingGateway,
    Intermediate,
    Closed,
}

/// One CET node. The node's itemset is implicit: the path of extension
/// items from the root (strictly increasing by item id).
#[derive(Clone, Debug)]
struct CetNode {
    /// Extension item that created this node; `None` only for the root.
    item: Option<Item>,
    /// Exact tidset of the node's itemset within the current window, as a
    /// bitmap over the miner's ring slots (cached popcount: `support()` is
    /// O(1)).
    tids: TidBitmap,
    kind: NodeKind,
    /// Children keyed by extension item (all `> self.item`).
    children: BTreeMap<Item, CetNode>,
}

impl CetNode {
    fn root(capacity: usize) -> Self {
        CetNode {
            item: None,
            tids: TidBitmap::new(capacity),
            // The root is permanently treated as promising so updates always
            // descend into the singleton layer; it is never output.
            kind: NodeKind::Intermediate,
            children: BTreeMap::new(),
        }
    }

    fn support(&self) -> Support {
        self.tids.count() as Support
    }

    fn is_root(&self) -> bool {
        self.item.is_none()
    }

    /// Does `candidate` extend this node (strictly increasing path order)?
    fn extends(&self, candidate: Item) -> bool {
        self.item.is_none_or(|own| candidate > own)
    }
}

/// Shared lookup state the recursive CET operations borrow immutably while
/// the tree itself is borrowed mutably.
struct Ctx<'a> {
    min_support: Support,
    txs: &'a HashMap<Tid, ItemSet>,
    index: &'a VerticalIndex,
}

impl Ctx<'_> {
    /// LCM prefix-preservation test: is some skipped item (ordered before
    /// `own_item`, not in `itemset`) present in *every* supporting
    /// transaction? Candidates are read off one supporting transaction
    /// (such an item must occur in all of them, so in particular the first);
    /// the "every" check is a word-level bitmap subset test.
    fn is_unpromising(&self, itemset: &ItemSet, own_item: Item, tids: &TidBitmap) -> bool {
        let Some(witness_slot) = tids.first_slot() else {
            return false;
        };
        let witness = self.index.slot_tid(witness_slot);
        for cand in self.txs[&witness].iter() {
            if cand >= own_item {
                break; // transaction items are ascending
            }
            if itemset.contains(cand) {
                continue;
            }
            if let Some(cand_tids) = self.index.item_bits(cand) {
                if tids.is_subset_of(cand_tids) {
                    return true;
                }
            }
        }
        false
    }
}

/// Rebuild `node`'s subtree from its (correct) tidset. Precondition: the
/// node is frequent and promising. Sets the node's closed/intermediate kind.
fn explore(node: &mut CetNode, itemset: &ItemSet, ctx: &Ctx) {
    node.children.clear();
    // Candidate extension items come from the supporting transactions; each
    // child's exact tidset is then one AND with the item's bitmap.
    let mut cand_items: BTreeSet<Item> = BTreeSet::new();
    for slot in node.tids.iter_slots() {
        let tid = ctx.index.slot_tid(slot);
        for item in ctx.txs[&tid].iter() {
            if node.extends(item) {
                cand_items.insert(item);
            }
        }
    }
    for item in cand_items {
        let item_bits = ctx
            .index
            .item_bits(item)
            .expect("candidate item occurs in a live transaction");
        let mut tids = TidBitmap::new(node.tids.capacity());
        tids.assign_and(&node.tids, item_bits);
        let child_itemset = itemset.with(item);
        let mut child = CetNode {
            item: Some(item),
            tids,
            kind: NodeKind::InfrequentGateway,
            children: BTreeMap::new(),
        };
        classify_and_build(&mut child, &child_itemset, ctx);
        node.children.insert(item, child);
    }
    refresh_closure(node);
}

/// Decide a node's kind from scratch (and build its subtree if promising).
fn classify_and_build(node: &mut CetNode, itemset: &ItemSet, ctx: &Ctx) {
    if node.support() < ctx.min_support {
        node.kind = NodeKind::InfrequentGateway;
        node.children.clear();
    } else if ctx.is_unpromising(itemset, node.item.expect("non-root"), &node.tids) {
        node.kind = NodeKind::UnpromisingGateway;
        node.children.clear();
    } else {
        explore(node, itemset, ctx);
    }
}

/// Recompute closed-vs-intermediate from the children's supports.
fn refresh_closure(node: &mut CetNode) {
    let support = node.tids.count();
    node.kind = if node.children.values().any(|c| c.tids.count() == support) {
        NodeKind::Intermediate
    } else {
        NodeKind::Closed
    };
}

/// Insert the transaction at ring slot `slot` (with itemset `t`) into every
/// CET node whose itemset it supports. Precondition: the node's itemset ⊆ `t`.
fn insert_rec(node: &mut CetNode, itemset: &ItemSet, t: &ItemSet, slot: usize, ctx: &Ctx) {
    node.tids.set(slot);
    match node.kind {
        NodeKind::InfrequentGateway | NodeKind::UnpromisingGateway => {
            if node.support() >= ctx.min_support {
                // Newly frequent, or the arriving transaction may lack the
                // subsuming skipped item and revive an unpromising subtree:
                // classify fully. Cheap when nothing changed (no explore).
                classify_and_build(node, itemset, ctx);
            } else {
                // An unpromising gateway whose support decayed below C while
                // parked is really just infrequent; normalize so the
                // frequency transition above re-classifies it later.
                node.kind = NodeKind::InfrequentGateway;
            }
        }
        NodeKind::Intermediate | NodeKind::Closed => {
            // Promising stays promising under insertion (a subsumption that
            // failed before still has its failing witness tid). Descend and
            // create children for extension items seen for the first time.
            for item in t.iter() {
                if !node.extends(item) {
                    continue;
                }
                let child_itemset = itemset.with(item);
                match node.children.get_mut(&item) {
                    Some(child) => insert_rec(child, &child_itemset, t, slot, ctx),
                    None => {
                        // Every earlier supporting transaction lacked this
                        // item (children are exhaustive for a promising
                        // node), so the child's tidset is exactly {slot}.
                        let mut tids = TidBitmap::new(ctx.index.capacity());
                        tids.set(slot);
                        let mut child = CetNode {
                            item: Some(item),
                            tids,
                            kind: NodeKind::InfrequentGateway,
                            children: BTreeMap::new(),
                        };
                        classify_and_build(&mut child, &child_itemset, ctx);
                        node.children.insert(item, child);
                    }
                }
            }
            if !node.is_root() {
                refresh_closure(node);
            }
        }
    }
}

/// Remove the transaction at ring slot `slot` (itemset `t`) from every CET
/// node whose itemset it supports.
fn delete_rec(node: &mut CetNode, itemset: &ItemSet, t: &ItemSet, slot: usize, ctx: &Ctx) {
    node.tids.clear(slot);
    match node.kind {
        // Gateways only shrink further under deletion; their kinds are
        // stable (infrequent stays infrequent; a subsumption over a smaller
        // tidset still holds).
        NodeKind::InfrequentGateway | NodeKind::UnpromisingGateway => {}
        NodeKind::Intermediate | NodeKind::Closed => {
            if !node.is_root() {
                if node.support() < ctx.min_support {
                    node.kind = NodeKind::InfrequentGateway;
                    node.children.clear();
                    return;
                }
                // A shrinking tidset can newly satisfy a subsumption.
                if ctx.is_unpromising(itemset, node.item.expect("non-root"), &node.tids) {
                    node.kind = NodeKind::UnpromisingGateway;
                    node.children.clear();
                    return;
                }
            }
            for item in t.iter() {
                if !node.extends(item) {
                    continue;
                }
                if let Some(child) = node.children.get_mut(&item) {
                    let child_itemset = itemset.with(item);
                    delete_rec(child, &child_itemset, t, slot, ctx);
                }
            }
            if !node.is_root() {
                refresh_closure(node);
            }
        }
    }
}

/// CET node-type census (see [`MomentMiner::node_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CetStats {
    /// Nodes parked below the support threshold.
    pub infrequent_gateways: usize,
    /// Nodes pruned by the prefix-preservation test.
    pub unpromising_gateways: usize,
    /// Frequent, promising, but not closed.
    pub intermediate: usize,
    /// The output: closed frequent itemsets.
    pub closed: usize,
}

impl CetStats {
    /// Total live nodes.
    pub fn total(&self) -> usize {
        self.infrequent_gateways + self.unpromising_gateways + self.intermediate + self.closed
    }
}

/// Incremental closed-frequent-itemset miner over a sliding window.
///
/// Drive it with [`MinerBackend::apply`] and a [`bfly_common::WindowDelta`];
/// query with [`MinerBackend::closed_frequent`] at any point. All supports
/// are exact.
///
/// ```
/// use bfly_common::SlidingWindow;
/// use bfly_mining::{MinerBackend, MomentMiner};
///
/// let mut window = SlidingWindow::new(8);
/// let mut miner = MomentMiner::new(4);
/// for t in bfly_common::fixtures::fig2_stream() {
///     miner.apply(&window.slide(t));
/// }
/// // In Ds(12, 8) of the paper's Fig. 2, ac is closed with support 5.
/// let closed = miner.closed_frequent();
/// assert_eq!(closed.support(&"ac".parse().unwrap()), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct MomentMiner {
    min_support: Support,
    txs: HashMap<Tid, ItemSet>,
    /// Vertical view of the window: per-item tid bitmaps over a ring whose
    /// capacity doubles (remapping the CET) when the live tid range outgrows
    /// it — O(log max-window) rebuilds over a run, O(1) slides otherwise.
    index: VerticalIndex,
    root: CetNode,
}

impl MomentMiner {
    /// Create a miner with absolute minimum support `C`.
    ///
    /// # Panics
    /// If `min_support == 0`.
    pub fn new(min_support: Support) -> Self {
        assert!(min_support > 0, "min_support must be positive");
        MomentMiner {
            min_support,
            txs: HashMap::new(),
            index: VerticalIndex::new(INITIAL_RING),
            root: CetNode::root(INITIAL_RING),
        }
    }

    /// Grow the ring until `tid`'s slot is free, remapping every CET bitmap
    /// old-slot → tid → new-slot. Called before `tid` enters `txs`/`index`.
    fn ensure_slot_free(&mut self, tid: Tid) {
        if !self.index.occupied().contains(self.index.slot_of(tid)) {
            return;
        }
        // Find a capacity where every live tid plus the newcomer lands on a
        // distinct slot. Live tids span a contiguous window range, so a few
        // doublings always suffice.
        let mut cap = self.index.capacity();
        'grow: loop {
            cap *= 2;
            let mut seen = vec![false; cap];
            for t in self.txs.keys().copied().chain([tid]) {
                let slot = (t % cap as u64) as usize;
                if seen[slot] {
                    continue 'grow;
                }
                seen[slot] = true;
            }
            break;
        }
        let old = std::mem::replace(&mut self.index, VerticalIndex::new(cap));
        for (&t, items) in &self.txs {
            self.index.insert_items(t, items);
        }
        fn remap(node: &mut CetNode, old: &VerticalIndex, new: &VerticalIndex) {
            let mut tids = TidBitmap::new(new.capacity());
            for slot in node.tids.iter_slots() {
                tids.set(new.slot_of(old.slot_tid(slot)));
            }
            node.tids = tids;
            for child in node.children.values_mut() {
                remap(child, old, new);
            }
        }
        remap(&mut self.root, &old, &self.index);
    }

    /// Number of transactions currently in the window.
    pub fn window_len(&self) -> usize {
        self.txs.len()
    }

    /// Number of live CET nodes — the miner's working-set size, reported by
    /// the efficiency experiments.
    pub fn node_count(&self) -> usize {
        fn count(node: &CetNode) -> usize {
            1 + node.children.values().map(count).sum::<usize>()
        }
        count(&self.root) - 1 // exclude the root sentinel
    }

    /// Per-type CET node counts `(infrequent gateways, unpromising
    /// gateways, intermediate, closed)` — the structural statistic the
    /// Moment paper uses to argue the CET stays compact: the boundary
    /// (gateway) nodes dominate while the closed core stays small.
    pub fn node_stats(&self) -> CetStats {
        fn walk(node: &CetNode, stats: &mut CetStats) {
            for child in node.children.values() {
                match child.kind {
                    NodeKind::InfrequentGateway => stats.infrequent_gateways += 1,
                    NodeKind::UnpromisingGateway => stats.unpromising_gateways += 1,
                    NodeKind::Intermediate => stats.intermediate += 1,
                    NodeKind::Closed => stats.closed += 1,
                }
                walk(child, stats);
            }
        }
        let mut stats = CetStats::default();
        walk(&self.root, &mut stats);
        stats
    }

    /// All frequent itemsets (closed ones expanded), with exact supports.
    pub fn all_frequent(&self) -> FrequentItemsets {
        expand_closed(&self.closed_frequent())
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            min_support: self.min_support,
            txs: &self.txs,
            index: &self.index,
        }
    }

    /// A transaction entered the window.
    ///
    /// # Panics
    /// If its tid is already in the window.
    fn insert(&mut self, t: &Transaction) {
        let tid = t.tid();
        assert!(!self.txs.contains_key(&tid), "tid {tid} inserted twice");
        self.ensure_slot_free(tid);
        self.txs.insert(tid, t.items().clone());
        self.index.insert_items(tid, t.items());
        let slot = self.index.slot_of(tid);
        // Split borrows: the tree is mutated while the lookup state is read.
        let mut root = std::mem::replace(&mut self.root, CetNode::root(1));
        insert_rec(&mut root, &ItemSet::empty(), t.items(), slot, &self.ctx());
        self.root = root;
    }

    /// A transaction left the window.
    ///
    /// # Panics
    /// If it is not in the window.
    fn delete(&mut self, t: &Transaction) {
        let tid = t.tid();
        let stored = self
            .txs
            .remove(&tid)
            .expect("deleting a transaction that is not in the window");
        let slot = self.index.slot_of(tid);
        self.index.evict_items(tid, &stored);
        // The checks must see the post-delete item bitmaps, and the stored
        // itemset (not the caller's copy) is the ground truth. The deletion
        // walk itself never resolves the departing slot through Ctx: each
        // node clears it from its bitmap before any subsumption check runs.
        let mut root = std::mem::replace(&mut self.root, CetNode::root(1));
        delete_rec(&mut root, &ItemSet::empty(), &stored, slot, &self.ctx());
        self.root = root;
    }
}

impl MinerBackend for MomentMiner {
    fn apply(&mut self, delta: &WindowDelta) {
        if let Some(evicted) = &delta.evicted {
            self.delete(evicted);
        }
        self.insert(&delta.added);
    }

    fn frequent(&self) -> FrequentItemsets {
        self.all_frequent()
    }

    fn closed_frequent(&self) -> FrequentItemsets {
        let mut out: Vec<(ItemSet, Support)> = Vec::new();
        fn walk(node: &CetNode, itemset: &ItemSet, out: &mut Vec<(ItemSet, Support)>) {
            for (item, child) in &node.children {
                let child_itemset = itemset.with(*item);
                if child.kind == NodeKind::Closed {
                    out.push((child_itemset.clone(), child.support()));
                }
                if matches!(child.kind, NodeKind::Closed | NodeKind::Intermediate) {
                    walk(child, &child_itemset, out);
                }
            }
        }
        walk(&self.root, &ItemSet::empty(), &mut out);
        FrequentItemsets::new(out)
    }

    fn min_support(&self) -> Support {
        self.min_support
    }

    fn name(&self) -> &'static str {
        "moment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RescanMiner;
    use bfly_common::fixtures::fig2_stream;
    use bfly_common::SlidingWindow;
    use bfly_datagen::{QuestConfig, QuestGenerator};

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn matches_oracle_on_fig2_stream() {
        for c in [1u64, 2, 3, 4, 5] {
            let mut w = SlidingWindow::new(8);
            let mut moment = MomentMiner::new(c);
            let mut oracle = RescanMiner::new(c);
            for t in fig2_stream() {
                let delta = w.slide(t);
                moment.apply(&delta);
                oracle.apply(&delta);
                assert_eq!(
                    moment.closed_frequent(),
                    oracle.closed_frequent(),
                    "divergence at C={c}, N={}",
                    w.stream_len()
                );
            }
        }
    }

    #[test]
    fn fig3_closed_sets_in_both_windows() {
        // Drive to N=11, check, then N=12 (the paper's two windows, C=4).
        let mut w = SlidingWindow::new(8);
        let mut m = MomentMiner::new(4);
        let stream = fig2_stream();
        for t in &stream[..11] {
            m.apply(&w.slide(t.clone()));
        }
        let at11 = m.closed_frequent();
        assert_eq!(at11.support(&iset("abc")), Some(4));
        assert_eq!(at11.support(&iset("c")), Some(8));
        m.apply(&w.slide(stream[11].clone()));
        let at12 = m.closed_frequent();
        assert!(
            !at12.contains(&iset("abc")),
            "abc dropped below C in Ds(12,8)"
        );
        assert_eq!(at12.support(&iset("ac")), Some(5));
        assert_eq!(at12.support(&iset("bc")), Some(5));
    }

    #[test]
    fn differential_random_streams() {
        let cfg = QuestConfig {
            n_items: 30,
            n_patterns: 10,
            avg_pattern_len: 3.0,
            avg_transaction_len: 5.0,
            max_transaction_len: 10,
            ..QuestConfig::default()
        };
        for seed in 0..6u64 {
            let stream = QuestGenerator::new(cfg.clone(), seed).generate(120);
            for c in [3u64, 8] {
                let mut w = SlidingWindow::new(40);
                let mut moment = MomentMiner::new(c);
                let mut oracle = RescanMiner::new(c);
                for (step, t) in stream.iter().enumerate() {
                    let delta = w.slide(t.clone());
                    moment.apply(&delta);
                    oracle.apply(&delta);
                    // Checking every step is the point: transitions are where
                    // the CET maintenance can go wrong.
                    assert_eq!(
                        moment.closed_frequent(),
                        oracle.closed_frequent(),
                        "divergence seed={seed} C={c} step={step}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_frequent_matches_apriori() {
        let mut w = SlidingWindow::new(8);
        let mut m = MomentMiner::new(3);
        for t in fig2_stream() {
            m.apply(&w.slide(t));
        }
        let expected = crate::apriori::Apriori::new(3).mine(&w.database());
        assert_eq!(m.all_frequent(), expected);
    }

    #[test]
    fn emptying_the_window_resets_cleanly() {
        let mut m = MomentMiner::new(2);
        let stream = fig2_stream();
        for t in &stream[..4] {
            m.insert(t);
        }
        assert!(!m.closed_frequent().is_empty());
        for t in &stream[..4] {
            m.delete(t);
        }
        assert!(m.closed_frequent().is_empty());
        assert_eq!(m.window_len(), 0);
        // And the structure is still usable afterwards.
        for t in &stream[4..8] {
            m.insert(t);
        }
        let db = bfly_common::Database::from_records(stream[4..8].to_vec());
        let expected = crate::closed::closed_subset(&crate::apriori::Apriori::new(2).mine(&db));
        assert_eq!(m.closed_frequent(), expected);
    }

    #[test]
    fn node_count_is_bounded_and_positive() {
        let mut m = MomentMiner::new(2);
        for t in fig2_stream() {
            m.insert(&t);
        }
        let n = m.node_count();
        assert!(n > 0);
        // CET is far smaller than the powerset of the alphabet per window.
        assert!(n < 100, "unexpectedly large CET: {n} nodes");
    }

    #[test]
    fn node_stats_census_matches_output() {
        let mut m = MomentMiner::new(4);
        let mut w = SlidingWindow::new(8);
        for t in fig2_stream() {
            m.apply(&w.slide(t));
        }
        let stats = m.node_stats();
        assert_eq!(stats.total(), m.node_count());
        // The closed census equals the mined output size.
        assert_eq!(stats.closed, m.closed_frequent().len());
        // Boundary nodes exist on this window (abc is infrequent at C=4).
        assert!(stats.infrequent_gateways > 0);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_tid_rejected() {
        let mut m = MomentMiner::new(2);
        let t = Transaction::new(1, iset("ab"));
        m.insert(&t);
        m.insert(&t);
    }

    #[test]
    fn ring_grow_then_shrink_back_preserves_supports_exactly() {
        // Remap-correctness in isolation: fill the initial ring completely,
        // snapshot the mined answer, force a capacity doubling by inserting
        // the one tid that collides with a live slot, then delete it again.
        // The window contents are back to the pre-grow set, so any
        // difference in the answer can only come from a corrupted remap.
        let cfg = QuestConfig {
            n_items: 25,
            avg_transaction_len: 4.0,
            ..QuestConfig::default()
        };
        let stream = QuestGenerator::new(cfg, 99).generate(INITIAL_RING + 1);
        let mut m = MomentMiner::new(3);
        for t in &stream[..INITIAL_RING] {
            m.insert(t);
        }
        assert_eq!(
            m.index.capacity(),
            INITIAL_RING,
            "grew before the ring filled"
        );
        let before = m.closed_frequent();
        // tid INITIAL_RING collides with tid 0's slot (both ≡ 0 mod capacity).
        m.insert(&stream[INITIAL_RING]);
        assert!(
            m.index.capacity() > INITIAL_RING,
            "colliding insert did not grow the ring"
        );
        m.delete(&stream[INITIAL_RING]);
        assert_eq!(
            m.closed_frequent(),
            before,
            "grow + remap changed supports of an identical window"
        );
    }

    #[test]
    fn ring_doubling_mid_stream_property() {
        // Property test over random streams whose window exceeds the
        // initial ring: capacity must grow mid-stream, live tids must wrap
        // both the old and the grown ring, and the mined answer must equal
        // the rescan oracle at every slide through it all.
        let cfg = QuestConfig {
            n_items: 30,
            n_patterns: 10,
            avg_pattern_len: 3.0,
            avg_transaction_len: 5.0,
            max_transaction_len: 10,
            ..QuestConfig::default()
        };
        for seed in 0..4u64 {
            let window = INITIAL_RING + 32; // forces at least one doubling
            let stream = QuestGenerator::new(cfg.clone(), seed).generate(3 * window);
            let mut w = SlidingWindow::new(window);
            let mut moment = MomentMiner::new(4);
            let mut oracle = RescanMiner::new(4);
            let mut grew_at = None;
            for (step, t) in stream.iter().enumerate() {
                let cap_before = moment.index.capacity();
                let delta = w.slide(t.clone());
                moment.apply(&delta);
                oracle.apply(&delta);
                if moment.index.capacity() > cap_before {
                    grew_at = Some(step);
                }
                assert_eq!(
                    moment.closed_frequent(),
                    oracle.closed_frequent(),
                    "divergence seed={seed} step={step} (ring grew at {grew_at:?})"
                );
            }
            let grew_at = grew_at.expect("window > INITIAL_RING never grew the ring");
            // The stream ran long enough past the grow that tids wrapped the
            // grown ring too (tid range spans > final capacity).
            assert!(
                stream.len() - grew_at > moment.index.capacity(),
                "stream too short to wrap the grown ring (grew at {grew_at})"
            );
        }
    }
}
