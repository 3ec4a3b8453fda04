//! Moment-style sliding-window miner of closed frequent itemsets.
//!
//! Re-implements the system the paper hosts Butterfly on (Chi, Wang, Yu &
//! Muntz, *Moment: Maintaining closed frequent itemsets over a stream
//! sliding window*, ICDM 2004): a **closed enumeration tree** (CET) whose
//! nodes carry exact supports and one of four types —
//!
//! * **infrequent gateway** — support below `C`; children not explored
//!   (below the root: an item below `C` is no node);
//! * **unpromising gateway** — frequent, but some *skipped* item (an item
//!   ordered before the node's extension item and absent from the itemset)
//!   occurs in every supporting transaction, so every closed superset is
//!   enumerated on an earlier branch (the LCM/DCI prefix-preservation test);
//! * **intermediate** — frequent and promising but some child has equal
//!   support (its closure extends rightward);
//! * **closed** — frequent, promising, and no equal-support child.
//!
//! Insertions and deletions update the window's ring, item bitmaps and
//! counts at once but only *queue* the tree's change; [`MomentMiner::settle`]
//! applies the whole queue in one walk from the root, visiting only the
//! nodes whose itemset some queued transaction contains, each once, with
//! every transaction that reaches it (LCM's occurrence deliver). It flips
//! node types locally and re-explores subtrees only on net gateway→promising
//! transitions — the property that makes the miner incremental. Once the
//! queue holds as many transactions as the window, the walk would deliver
//! at least the occurrences a rebuild from the root tallies, so such a
//! settle rebuilds instead, as the turnover re-rank does. The layout
//! (DESIGN.md, "The Moment CET") keeps that walk in cache: items are
//! enumerated **rarest first** by dense code, re-ranked from the live window
//! at each rebuild, at least once per turnover; a **gateway is only an
//! entry** in its promising parent's sorted array; the **root is the item
//! table**: its entries are the items whose window count (exact after every
//! insert and remove) is at least `C`, so a rebuild reads them off the
//! counts and a walk passes over an item that stays below `C`, however many
//! of those a client sends;
//! **no node stores a tidset** (the walk re-derives them, one AND a level);
//! tables are **indexed by code**, never by a client-chosen item id.
//! Differential tests against an [`Eclat`](crate::Eclat) re-mine of the
//! window enforce that none of it is observable.

use crate::backend::MinerBackend;
use crate::closed::expand_closed;
use crate::result::FrequentItemsets;
use bfly_common::tidmap::{iter_slots, kernel};
use bfly_common::transaction::Tid;
use bfly_common::{Item, ItemSet, Support, WindowDelta};
use std::collections::HashMap;

/// Starting ring size; doubled whenever the live tid range outgrows it, so
/// always a power of two.
const INITIAL_RING: usize = 64;

/// A ring slot's code buffer shrinks to fit its new occupant when its
/// capacity exceeds both this many codes and four times the occupant's
/// length.
const SLOT_FLOOR: usize = 64;

/// Lines of the id → code cache in front of `code_of`; a power of two.
const RECENT: usize = 1024;

/// `Entry::child` of a gateway; `Touch::bucket` of an extension the walk
/// does not descend into.
const NONE: u32 = u32::MAX;

/// Free records are filed by [`class_of`] their buffer's capacity.
const CLASSES: usize = usize::BITS as usize + 1;

/// Class `k > 0` holds capacities in `[2^(k-1), 2^k)`; class 0, capacity 0.
fn class_of(capacity: usize) -> usize {
    (usize::BITS - capacity.leading_zeros()) as usize
}

/// One child of a promising node: its itemset extended by item `key as u32`.
/// A frequent entry owns a `child` record (promising) or failed the prefix-
/// preservation test the last time a settle brought it an arrival.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Rank bit ‖ item code ([`MomentMiner::key`]); entries are sorted by it.
    key: u64,
    /// Exact support of the extended itemset in the window.
    support: u32,
    /// Arena index of the promising node's record, or [`NONE`].
    child: u32,
}

/// An entry as it is created: a gateway nothing supports yet.
const GATEWAY: Entry = Entry {
    key: 0,
    support: 0,
    child: NONE,
};

/// What the miner keeps per item code; ordered rarest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Coded {
    /// Live transactions containing the item.
    count: u32,
    item: Item,
    /// The item has a root entry: its count was at least `C` at the last
    /// settle or rebuild.
    rooted: bool,
}

/// A queued transaction reaching the node the walk stands on: its codes
/// after that node's, `queued_codes[from..to]`, and which way it moved.
#[derive(Clone, Copy, Debug, Default)]
struct Occ {
    from: u32,
    to: u32,
    arrival: bool,
}

/// One extension of the node the walk stands on that queued transactions
/// reach: how many arrived and departed through it, how many of those hold
/// items past it, its entry's index once merged, and (if the walk will
/// recurse into it) its bucket of `occs`, those onward occurrences.
#[derive(Clone, Copy, Debug)]
struct Touch {
    key: u64,
    arrivals: u32,
    departures: u32,
    onward: u32,
    at: u32,
    bucket: u32,
}

/// A touch as it is created: nothing counted, no bucket.
const UNTOUCHED: Touch = Touch {
    key: 0,
    arrivals: 0,
    departures: 0,
    onward: 0,
    at: 0,
    bucket: NONE,
};

/// One ring slot: its transaction's tid, and its items as codes sorted by
/// key — kept when it leaves, for the next occupant's buffer.
#[derive(Clone, Debug, Default)]
struct Slot {
    tid: Option<Tid>,
    codes: Vec<u32>,
}

/// CET node-type census (see [`MomentMiner::node_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CetStats {
    /// Nodes parked below the support threshold (none at depth one: the
    /// root holds the frequent items only).
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
/// Drive it with [`MomentMiner::insert`] and [`MomentMiner::remove`] by tid
/// and bring the tree up to date with [`MomentMiner::settle`] before reading
/// it (what the stream pipeline does at each publication: its ring is the
/// window's one copy), or with [`MinerBackend::apply`] and a
/// [`bfly_common::WindowDelta`], which settles every slide, as the tests
/// drive it. All supports are exact.
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
    /// Raw item id → code: the one table keyed by what a client chooses.
    code_of: HashMap<Item, u32>,
    /// Line `id mod RECENT` → the last item looked up there and its code
    /// ([`NONE`]: none), so a repeated id skips `code_of`'s SipHash; ids a
    /// client picks to collide only miss, and a miss is one lookup.
    recent: Vec<(Item, u32)>,
    /// Per-code table; the last rebuild numbered the codes below `ranked`.
    coded: Vec<Coded>,
    ranked: u32,
    /// `explore`'s and `settle_under`'s scratch per code, zero between calls.
    tally: Vec<u32>,
    /// The rebuild's scratch: the live codes' entries with their old code,
    /// sorted into the new order, and old code → new code.
    order: Vec<(Coded, u32)>,
    recode: Vec<u32>,
    /// Inserts left until the order is re-derived (counted down from the
    /// window length the last rebuild saw: observed, not configured).
    until_rerank: usize,
    /// Tree rebuilds so far (see [`MomentMiner::rebuilds`]).
    rebuilds: u64,
    /// Work so far (see [`MomentMiner::visits`]).
    visits: u64,
    /// Code → bitmap (`words` words) of the slots whose transaction has it.
    bits: Vec<u64>,
    words: usize,
    /// The ring: slot `tid mod len` → transaction; `len` is a power of two.
    slots: Vec<Slot>,
    /// Arena of the promising nodes' entries. `nodes[0]` is the root (the
    /// empty itemset, never output): one entry per item whose count is at
    /// least `C`, and nothing else. Freed records are empty, on `free`,
    /// filed by their buffer's capacity so a node gets one it fits in.
    nodes: Vec<Vec<Entry>>,
    free: [Vec<u32>; CLASSES],
    /// `explore`'s extensions, before they move into the record they fit.
    found: Vec<Entry>,
    /// Where the walk stands: its itemset's codes, and the tidset of each
    /// prefix (`words` words a level; level 0, the live slots, persists).
    path: Vec<u32>,
    tids: Vec<u64>,
    /// The changes not yet in the tree: each queued transaction's codes,
    /// sorted by key, copied here (its slot may be reused before the settle).
    queued_codes: Vec<u32>,
    /// The settle walk's occurrence stack; between settles it is the queue,
    /// one occurrence per queued transaction, the root's.
    occs: Vec<Occ>,
    /// The settle walk's touched extensions, one run per level.
    touches: Vec<Touch>,
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
            code_of: HashMap::new(),
            recent: vec![(Item(0), NONE); RECENT],
            coded: Vec::new(),
            ranked: 0,
            tally: Vec::new(),
            order: Vec::new(),
            recode: Vec::new(),
            until_rerank: 0,
            rebuilds: 0,
            visits: 0,
            bits: Vec::new(),
            words: INITIAL_RING / 64,
            slots: vec![Slot::default(); INITIAL_RING],
            nodes: vec![Vec::new()],
            free: std::array::from_fn(|_| Vec::new()),
            found: Vec::new(),
            path: Vec::new(),
            tids: vec![0; INITIAL_RING / 64],
            queued_codes: Vec::new(),
            occs: Vec::new(),
            touches: Vec::new(),
        }
    }

    /// Number of transactions currently in the window.
    pub fn window_len(&self) -> usize {
        kernel::popcount(&self.tids[..self.words]) as usize
    }

    /// Tree rebuilds so far: turnover re-ranks in [`MomentMiner::insert`]
    /// and settles that rebuilt instead of walking alike.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The tree's work so far, in codes: each queued transaction's code a
    /// settle walk visits at a node it reaches, plus each code `explore`
    /// tallies when it builds a node's record (the rebuilds' subtrees and
    /// those a walk re-explores). The root reads its entries off the item
    /// counts, so an item below `C` costs it nothing. A function of the
    /// stream and the settle points, like [`MomentMiner::node_count`].
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Number of live CET nodes (every entry is one; the root is not) —
    /// the working-set size the efficiency experiments report. The root
    /// holds the frequent items only: an item below `C` is counted by the
    /// item table, not by a node, so unlike Moment's paper tree this one
    /// has no infrequent gateway at depth one.
    ///
    /// # Panics
    /// With changes queued since the last [`MomentMiner::settle`], as every
    /// read of the tree does.
    pub fn node_count(&self) -> usize {
        self.assert_settled();
        self.nodes.iter().map(Vec::len).sum()
    }

    /// Per-type CET node counts — the Moment paper's structural statistic:
    /// the boundary (gateway) nodes dominate, the closed core stays small.
    ///
    /// # Panics
    /// With changes queued since the last [`MomentMiner::settle`].
    pub fn node_stats(&self) -> CetStats {
        self.assert_settled();
        let mut stats = CetStats::default();
        for entry in self.nodes.iter().flatten() {
            *match (self.is_frequent(entry.support), entry.child != NONE) {
                (false, _) => &mut stats.infrequent_gateways,
                (true, false) => &mut stats.unpromising_gateways,
                (true, true) if self.is_closed(entry) => &mut stats.closed,
                (true, true) => &mut stats.intermediate,
            } += 1;
        }
        stats
    }

    /// All frequent itemsets (closed ones expanded), with exact supports.
    pub fn all_frequent(&self) -> FrequentItemsets {
        expand_closed(&self.closed_frequent())
    }

    /// A tree read with changes queued would be a stale release, so it is
    /// refused in every build.
    fn assert_settled(&self) {
        assert!(
            self.occs.is_empty(),
            "Moment's tree read with changes queued: settle first"
        );
    }

    fn is_frequent(&self, support: u32) -> bool {
        Support::from(support) >= self.min_support
    }

    /// A promising entry is closed unless an extension has its support.
    fn is_closed(&self, entry: &Entry) -> bool {
        let extensions = &self.nodes[entry.child as usize];
        extensions.iter().all(|e| e.support != entry.support)
    }

    /// Position of `code` in the enumeration order: items new since the last
    /// rebuild (rare by construction) by arrival, then the ranked, rarest first.
    fn key(&self, code: u32) -> u64 {
        u64::from(code) | u64::from(code < self.ranked) << 32
    }

    fn slot_of(&self, tid: Tid) -> usize {
        (tid & (self.slots.len() as u64 - 1)) as usize
    }

    /// Step the walk onto the extension of its itemset by `code`: AND the
    /// tidset on top of the stack with the item's bitmap into a new level.
    fn descend(&mut self, code: u32, support: u32) {
        let (w, depth) = (self.words, self.path.len());
        self.tids.resize(self.tids.len().max((depth + 2) * w), 0);
        let (above, below) = self.tids.split_at_mut((depth + 1) * w);
        let bits = &self.bits[code as usize * w..][..w];
        let count = kernel::assign_and_count(&mut below[..w], &above[depth * w..], bits);
        debug_assert_eq!(count, u64::from(support), "entry counter drifted");
        self.path.push(code);
    }

    /// LCM prefix-preservation test where the walk stands: does some skipped
    /// item (ordered before the last path item, not on the path) occur in
    /// *every* supporting transaction? Candidates are read off the first one
    /// and rejected by their item count before any word is touched.
    fn is_unpromising(&self, support: u32) -> bool {
        let w = self.words;
        let tids = &self.tids[self.path.len() * w..][..w];
        let witness = iter_slots(tids).next().expect("a frequent itemset");
        let own = self.key(*self.path.last().expect("below the root"));
        let skipped = self.slots[witness].codes.iter();
        skipped
            .take_while(|&&c| self.key(c) < own)
            .filter(|c| !self.path.contains(c))
            .any(|&c| {
                self.coded[c as usize].count >= support
                    && kernel::is_subset(tids, &self.bits[c as usize * w..][..w])
            })
    }

    /// Entry `idx` of `node` (the node the walk stands on) is frequent and
    /// has no record: build its subtree unless a skipped item subsumes it.
    fn classify(&mut self, node: usize, idx: usize) {
        let Entry { key, support, .. } = self.nodes[node][idx];
        self.descend(key as u32, support);
        if !self.is_unpromising(support) {
            let child = self.explore();
            self.nodes[node][idx].child = child;
        }
        self.path.pop();
    }

    /// Build the record of the promising node the walk stands on, below the
    /// root: tally its supporting transactions' later items into a record
    /// they fit in, classify the frequent ones, return the record.
    fn explore(&mut self) -> u32 {
        let mut entries = std::mem::take(&mut self.found);
        entries.clear();
        self.tally.resize(self.coded.len(), 0);
        let floor = self.key(*self.path.last().expect("below the root")) + 1;
        let w = self.words;
        for slot in iter_slots(&self.tids[self.path.len() * w..][..w]) {
            for &code in self.slots[slot].codes.iter().rev() {
                let key = self.key(code);
                if key < floor {
                    break;
                }
                let tally = &mut self.tally[code as usize];
                if *tally == 0 {
                    entries.push(Entry { key, ..GATEWAY });
                }
                *tally += 1;
            }
        }
        entries.sort_unstable_by_key(|e| e.key);
        let mut tallied = 0;
        for entry in &mut entries {
            entry.support = std::mem::take(&mut self.tally[entry.key as u32 as usize]);
            tallied += u64::from(entry.support);
        }
        self.visits += tallied;
        let node = self.take_record(entries.len());
        self.nodes[node as usize].extend_from_slice(&entries);
        self.found = entries;
        self.classify_frequent(node as usize);
        node
    }

    /// Classify every frequent entry of `node`, where the walk stands.
    fn classify_frequent(&mut self, node: usize) {
        for idx in 0..self.nodes[node].len() {
            if self.is_frequent(self.nodes[node][idx].support) {
                self.classify(node, idx);
            }
        }
    }

    /// A free record whose buffer takes `n` entries without growing, the
    /// smallest one filed that does; else the largest free one, else a new
    /// one (either grows).
    fn take_record(&mut self, n: usize) -> u32 {
        let fits = |k: &usize| {
            let last = self.free[*k].last();
            last.is_some_and(|&r| self.nodes[r as usize].capacity() >= n)
        };
        let largest = || (0..CLASSES).rev().find(|&k| !self.free[k].is_empty());
        match (class_of(n)..CLASSES).find(fits).or_else(largest) {
            Some(k) => self.free[k].pop().expect("a filed record"),
            None => {
                self.nodes.push(Vec::new());
                self.nodes.len() as u32 - 1
            }
        }
    }

    /// File `record`, emptied, on the free list.
    fn file_free(&mut self, record: u32) {
        let class = class_of(self.nodes[record as usize].capacity());
        self.free[class].push(record);
    }

    /// Return `node`'s record and every record below it to the free list.
    fn release(&mut self, node: u32) {
        while let Some(entry) = self.nodes[node as usize].pop() {
            if entry.child != NONE {
                self.release(entry.child);
            }
        }
        self.file_free(node);
    }

    /// Apply the queued transactions `occs[lo..hi]`, those reaching `node`
    /// (where the walk stands), to every entry under it that they reach.
    ///
    /// Occurrence deliver: one pass counts each extension's arrivals and
    /// departures, the new extensions merge into the sorted entries as
    /// gateways, a second pass buckets each promising extension's onward
    /// occurrences (those holding items past it), and each touched entry is
    /// then settled once, against the window as it stands now.
    ///
    /// The root (`node` 0) holds an entry for an item exactly when its count
    /// is at least `C`, so there the walk visits a code only if its item has
    /// an entry or is frequent now; an entry takes its support from the
    /// count, and one that falls below `C` leaves the root.
    fn settle_under(&mut self, node: usize, lo: usize, hi: usize) {
        let root = node == 0;
        // `tally[code]` is its touch's index + 1 (0: not touched), in the
        // order the touches are pushed while counting, then once sorted.
        let first = self.touches.len();
        for i in lo..hi {
            let Occ { from, to, arrival } = self.occs[i];
            for at in from as usize..to as usize {
                let code = self.queued_codes[at] as usize;
                if self.tally[code] == 0 {
                    let Coded { count, rooted, .. } = self.coded[code];
                    if root && !(rooted || self.is_frequent(count)) {
                        continue;
                    }
                    let key = self.key(code as u32);
                    self.touches.push(Touch { key, ..UNTOUCHED });
                    self.tally[code] = self.touches.len() as u32;
                }
                let touch = &mut self.touches[self.tally[code] as usize - 1];
                if arrival {
                    touch.arrivals += 1;
                } else {
                    touch.departures += 1;
                }
                touch.onward += u32::from(at + 1 < to as usize);
            }
        }
        let last = self.touches.len();
        let touched = &mut self.touches[first..];
        self.visits += touched
            .iter()
            .map(|t| u64::from(t.arrivals + t.departures))
            .sum::<u64>();
        touched.sort_unstable_by_key(|t| t.key);

        // Find each touched extension's entry; a new one (every earlier
        // supporting transaction lacked it: entries are exhaustive for a
        // promising node; at the root, the item was below `C` at the last
        // settle) is merged in from the back as a gateway.
        let entries = &mut self.nodes[node];
        let (mut at, mut missing) = (0, 0);
        for touch in &mut self.touches[first..] {
            at += entries[at..].partition_point(|e| e.key < touch.key);
            touch.at = at as u32;
            if entries.get(at).is_some_and(|e| e.key == touch.key) {
                at += 1;
            } else {
                debug_assert!(touch.arrivals > 0, "a departing transaction was counted");
                missing += 1;
            }
        }
        let (mut read, mut write) = (entries.len(), entries.len() + missing);
        entries.resize(write, GATEWAY);
        for touch in self.touches[first..].iter_mut().rev() {
            if read == write {
                break;
            }
            while read > 0 && entries[read - 1].key > touch.key {
                (read, write) = (read - 1, write - 1);
                entries[write] = entries[read];
            }
            write -= 1;
            entries[write] = if read > 0 && entries[read - 1].key == touch.key {
                read -= 1;
                entries[read]
            } else {
                Entry {
                    key: touch.key,
                    ..GATEWAY
                }
            };
            touch.at = write as u32;
        }

        // Bucket the onward occurrences of each promising extension, filled
        // back to front so each bucket ends at its start.
        let base = self.occs.len();
        let mut end = base;
        for (k, touch) in (first..last).zip(&mut self.touches[first..]) {
            let code = touch.key as u32 as usize;
            self.tally[code] = k as u32 + 1;
            if touch.onward > 0 && self.nodes[node][touch.at as usize].child != NONE {
                end += touch.onward as usize;
                touch.bucket = end as u32;
            }
        }
        if end > base {
            self.occs.resize(end, Occ::default());
            for i in lo..hi {
                let Occ { from, to, arrival } = self.occs[i];
                for at in from..to {
                    let code = self.queued_codes[at as usize] as usize;
                    let Some(k) = self.tally[code].checked_sub(1) else {
                        continue;
                    };
                    let touch = &mut self.touches[k as usize];
                    if touch.bucket != NONE && at + 1 < to {
                        touch.bucket -= 1;
                        let from = at + 1;
                        self.occs[touch.bucket as usize] = Occ { from, to, arrival };
                    }
                }
            }
        }
        for touch in &self.touches[first..] {
            self.tally[touch.key as u32 as usize] = 0;
        }

        // An entry below `keep` leaves: at support 0 it names nothing, and
        // the root keeps the frequent items only.
        let keep = if root { self.min_support } else { 1 };
        let mut emptied = false;
        for k in first..last {
            let touch = self.touches[k];
            let at = touch.at as usize;
            let code = touch.key as u32 as usize;
            let entry = &mut self.nodes[node][at];
            entry.support = if root {
                // `index_slot` keeps the count exact; a new entry was merged
                // in at 0, not at the support it had before the queue.
                self.coded[code].count
            } else {
                entry.support + touch.arrivals - touch.departures
            };
            let Entry { support, child, .. } = *entry;
            let gone = Support::from(support) < keep;
            emptied |= gone;
            if root {
                self.coded[code].rooted = !gone;
            }
            if child == NONE {
                // A gateway only departures reached keeps its kind: below C
                // it shrank further, and a subsumption over a smaller tidset
                // still holds. One an arrival reached may be newly frequent,
                // or the arrival may lack the item that subsumed it.
                if touch.arrivals > 0 && self.is_frequent(support) {
                    self.classify(node, at);
                }
            } else if !self.is_frequent(support) {
                self.release(child);
                self.nodes[node][at].child = NONE;
            } else {
                // Promising stays promising if only arrivals reached it (a
                // subsumption that failed keeps its failing witness tid);
                // a departure can make a subsumption newly hold. Below it
                // only the onward occurrences change anything.
                if touch.departures == 0 && touch.onward == 0 {
                    continue;
                }
                self.descend(touch.key as u32, support);
                if touch.departures > 0 && self.is_unpromising(support) {
                    self.release(child);
                    self.nodes[node][at].child = NONE;
                } else if touch.onward > 0 {
                    let start = touch.bucket as usize;
                    self.settle_under(child as usize, start, start + touch.onward as usize);
                }
                self.path.pop();
            }
        }
        if emptied {
            self.nodes[node].retain(|e| Support::from(e.support) >= keep);
        }
        self.touches.truncate(first);
        self.occs.truncate(base);
    }

    /// Add (`delta` = 1) or remove (−1) the transaction in `slot` to/from
    /// the item bitmaps and counts and the live-slot set.
    fn index_slot(&mut self, slot: usize, delta: i32) {
        let (word, mask) = (slot / 64, 1u64 << (slot % 64));
        self.tids[word] ^= mask;
        for &code in &self.slots[slot].codes {
            self.bits[code as usize * self.words + word] ^= mask;
            let count = &mut self.coded[code as usize].count;
            *count = count.wrapping_add_signed(delta);
        }
    }

    /// Rebuild what `index_slot` maintains, after the ring or the codes
    /// changed, into the buffers it had.
    fn reslot(&mut self) {
        self.bits.clear();
        self.bits.resize(self.coded.len() * self.words, 0);
        self.tids.clear();
        self.tids.resize(self.words, 0);
        self.coded.iter_mut().for_each(|c| c.count = 0);
        for slot in 0..self.slots.len() {
            if self.slots[slot].tid.is_some() {
                self.index_slot(slot, 1);
            }
        }
    }

    /// Double the ring. Live tids distinct modulo its length stay distinct
    /// modulo twice that, each in its old slot or one old length further.
    fn double_ring(&mut self) {
        let cap = self.slots.len();
        self.slots.resize(2 * cap, Slot::default());
        for slot in 0..cap {
            let moved = |tid| self.slot_of(tid) != slot;
            if self.slots[slot].tid.is_some_and(moved) {
                self.slots.swap(slot, slot + cap);
            }
        }
        self.words = 2 * cap / 64;
        self.reslot();
    }

    /// Renumber the live items by `(window count, item)` ascending, dropping
    /// the dead codes, and rebuild the tree from the root: a function of the
    /// window's content alone, which covers every queued change. The root's
    /// entries are read off the item counts, and `explore` tallies only
    /// below them. Every table and record is refilled in the buffer it had,
    /// so a warmed miner allocates nothing here.
    fn rebuild(&mut self) {
        let live = (0..).zip(&self.coded).filter(|(_, c)| c.count > 0);
        self.order.clear();
        self.order.extend(live.map(|(old, &c)| (c, old)));
        self.order.sort_unstable();
        self.recode.clear();
        self.recode.resize(self.coded.len(), NONE);
        self.coded.clear();
        for (new, &(c, old)) in (0..).zip(&self.order) {
            self.recode[old as usize] = new;
            let rooted = self.is_frequent(c.count);
            self.coded.push(Coded { rooted, ..c });
        }
        let recode = &self.recode;
        self.code_of.retain(|_, code| {
            *code = recode[*code as usize];
            *code != NONE
        });
        for (_, code) in self.recent.iter_mut().filter(|(_, c)| *c != NONE) {
            *code = recode[*code as usize];
        }
        self.ranked = self.coded.len() as u32;
        for slot in self.slots.iter_mut().filter(|s| s.tid.is_some()) {
            slot.codes.iter_mut().for_each(|c| *c = recode[*c as usize]);
            slot.codes.sort_unstable();
        }
        self.reslot();
        // Every record goes back on the free list, its buffer kept.
        self.nodes.iter_mut().for_each(Vec::clear);
        self.free.iter_mut().for_each(Vec::clear);
        for record in 1..self.nodes.len() as u32 {
            self.file_free(record);
        }
        self.queued_codes.clear();
        self.occs.clear();
        for code in 0..self.coded.len() as u32 {
            let Coded { count, rooted, .. } = self.coded[code as usize];
            if rooted {
                let (key, support) = (self.key(code), count);
                self.nodes[0].push(Entry {
                    key,
                    support,
                    ..GATEWAY
                });
            }
        }
        self.classify_frequent(0);
        self.until_rerank = self.window_len();
        self.rebuilds += 1;
        debug_assert!(self.root_is_the_item_table(), "root entries drifted");
    }

    /// Queue the transaction in `slot`, which arrived or departed, for the
    /// next settle.
    fn enqueue(&mut self, slot: usize, arrival: bool) {
        let from = self.queued_codes.len() as u32;
        self.queued_codes.extend_from_slice(&self.slots[slot].codes);
        let to = self.queued_codes.len() as u32;
        self.occs.push(Occ { from, to, arrival });
    }

    /// Bring the tree up to date with every arrival and departure since the
    /// last settle: in one walk from the root, or, once the queue holds at
    /// least as many transactions as the window, by the re-rank's rebuild.
    /// The walk would deliver each queued transaction's occurrences, and
    /// those of a window's worth are at least the occurrences the rebuild
    /// tallies, so the rebuild is never the slower path there. Either way
    /// the closed sets are the window's; the tree's shape is a function of
    /// the window's content, arrival order and which settles rebuilt.
    /// Reading it ([`MinerBackend::closed_frequent`],
    /// [`MomentMiner::node_count`], [`MomentMiner::node_stats`]) with
    /// changes queued panics.
    pub fn settle(&mut self) {
        if self.occs.is_empty() {
            return;
        }
        if self.occs.len() >= self.window_len() {
            self.rebuild();
            return;
        }
        self.tally.resize(self.coded.len(), 0);
        self.settle_under(0, 0, self.occs.len());
        self.queued_codes.clear();
        self.occs.clear();
        debug_assert!(self.root_is_the_item_table(), "root entries drifted");
    }

    /// The root's invariant after a settle or rebuild: an item has a root
    /// entry, with its count as support, exactly when its count is at least
    /// `C`.
    fn root_is_the_item_table(&self) -> bool {
        let root = &self.nodes[0];
        let frequent = |c: &Coded| self.is_frequent(c.count);
        self.coded.iter().all(|c| c.rooted == frequent(c))
            && root.len() == self.coded.iter().filter(|c| frequent(c)).count()
            && root.windows(2).all(|pair| pair[0].key < pair[1].key)
            && root.iter().all(|e| {
                let code = e.key as u32;
                let coded = self.coded[code as usize];
                e.key == self.key(code) && coded.rooted && coded.count == e.support
            })
    }

    /// Transaction `tid`, with `items`, entered the window. `items` must
    /// hold no item twice (an itemset's, or an ingest chunk's transaction):
    /// the bitmaps are maintained by XOR. The tree's change is queued for
    /// [`MomentMiner::settle`], unless a window's length of arrivals has
    /// passed since the last rebuild: then the arrival re-derives the item
    /// order, whose rebuild settles everything. That turnover re-rank bounds
    /// the code table and the queue whatever the settle cadence.
    ///
    /// # Panics
    /// If `tid` is already in the window.
    pub fn insert(&mut self, tid: Tid, items: &[Item]) {
        while let Some(held) = self.slots[self.slot_of(tid)].tid {
            assert!(held != tid, "tid {tid} inserted twice");
            self.double_ring();
        }
        let slot = self.slot_of(tid);
        let mut codes = std::mem::take(&mut self.slots[slot].codes);
        codes.clear();
        // A slot keeps its buffer across occupants, but not the capacity of
        // the longest transaction that ever held it.
        if codes.capacity() > SLOT_FLOOR && codes.capacity() > 4 * items.len() {
            codes.shrink_to(items.len());
        }
        for &item in items {
            codes.push(self.code(item));
        }
        codes.sort_unstable_by_key(|&c| self.key(c));
        self.slots[slot].codes = codes;
        self.slots[slot].tid = Some(tid);
        self.index_slot(slot, 1);
        if self.until_rerank <= 1 {
            self.rebuild();
        } else {
            self.until_rerank -= 1;
            self.enqueue(slot, true);
        }
    }

    /// `item`'s code, numbering it if it is new: from the cache line its id
    /// falls on, else from `code_of`, the line then taking it.
    fn code(&mut self, item: Item) -> u32 {
        let line = item.index() & (RECENT - 1);
        match self.recent[line] {
            (held, code) if held == item && code != NONE => code,
            _ => {
                let next = self.coded.len() as u32;
                let code = *self.code_of.entry(item).or_insert(next);
                if code == next {
                    self.coded.push(Coded {
                        count: 0,
                        item,
                        rooted: false,
                    });
                    self.bits.resize(self.bits.len() + self.words, 0);
                }
                self.recent[line] = (item, code);
                code
            }
        }
    }

    /// Transaction `tid` left the window; its items are read back from the
    /// ring, which is the window's one copy. The tree's change is queued for
    /// [`MomentMiner::settle`].
    ///
    /// # Panics
    /// If `tid` is not in the window.
    pub fn remove(&mut self, tid: Tid) {
        let slot = self.slot_of(tid);
        assert!(
            self.slots[slot].tid == Some(tid),
            "deleting a transaction that is not in the window"
        );
        self.slots[slot].tid = None;
        self.index_slot(slot, -1);
        self.enqueue(slot, false);
    }

    /// Append the closed itemsets below `node` (itself `path`) as `ItemSet`s.
    fn closed_under(&self, node: usize, path: &mut Vec<Item>, out: &mut Vec<(ItemSet, Support)>) {
        for entry in self.nodes[node].iter().filter(|e| e.child != NONE) {
            path.push(self.coded[entry.key as u32 as usize].item);
            if self.is_closed(entry) {
                out.push((ItemSet::new(path.iter().copied()), entry.support.into()));
            }
            self.closed_under(entry.child as usize, path, out);
            path.pop();
        }
    }
}

impl MinerBackend for MomentMiner {
    fn apply(&mut self, delta: &WindowDelta) {
        if let Some(evicted) = &delta.evicted {
            self.remove(evicted.tid());
        }
        self.insert(delta.added.tid(), delta.added.items().items());
        self.settle();
    }

    fn closed_frequent(&self) -> FrequentItemsets {
        self.assert_settled();
        let mut out = Vec::new();
        self.closed_under(0, &mut Vec::new(), &mut out);
        FrequentItemsets::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed::closed_subset;
    use crate::Eclat;
    use bfly_common::fixtures::fig2_stream;
    use bfly_common::{Database, SlidingWindow, Transaction};
    use bfly_datagen::{QuestConfig, QuestGenerator};
    use std::collections::BTreeMap;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    /// The oracle: the window's closed frequent itemsets, re-mined.
    fn remine(window: &SlidingWindow, c: Support) -> FrequentItemsets {
        closed_subset(&Eclat::new(c).mine(&window.database()))
    }

    /// Transaction `tid`'s item ids, ascending, read back from the ring, or
    /// `None` when `tid` is not in the window.
    fn ids_of(m: &MomentMiner, tid: Tid) -> Option<Vec<u32>> {
        let slot = &m.slots[m.slot_of(tid)];
        (slot.tid == Some(tid)).then(|| {
            let mut ids: Vec<u32> = slot
                .codes
                .iter()
                .map(|&c| m.coded[c as usize].item.id())
                .collect();
            ids.sort_unstable();
            ids
        })
    }

    #[test]
    fn matches_oracle_on_fig2_stream() {
        for c in [1u64, 2, 3, 4, 5] {
            let mut w = SlidingWindow::new(8);
            let mut moment = MomentMiner::new(c);
            for t in fig2_stream() {
                moment.apply(&w.slide(t));
                assert_eq!(
                    moment.closed_frequent(),
                    remine(&w, c),
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
                for (step, t) in stream.iter().enumerate() {
                    moment.apply(&w.slide(t.clone()));
                    // Checking every step is the point: transitions are where
                    // the CET maintenance can go wrong.
                    assert_eq!(
                        moment.closed_frequent(),
                        remine(&w, c),
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
            m.insert(t.tid(), t.items().items());
        }
        m.settle();
        assert!(!m.closed_frequent().is_empty());
        for t in &stream[..4] {
            m.remove(t.tid());
        }
        m.settle();
        assert!(m.closed_frequent().is_empty());
        assert_eq!(m.window_len(), 0);
        // And the structure is still usable afterwards.
        for t in &stream[4..8] {
            m.insert(t.tid(), t.items().items());
        }
        m.settle();
        let db = bfly_common::Database::from_records(stream[4..8].to_vec());
        let expected = crate::closed::closed_subset(&crate::apriori::Apriori::new(2).mine(&db));
        assert_eq!(m.closed_frequent(), expected);
    }

    #[test]
    fn node_count_is_bounded_and_positive() {
        let mut m = MomentMiner::new(2);
        for t in fig2_stream() {
            m.insert(t.tid(), t.items().items());
        }
        m.settle();
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
    fn dead_items_leave_no_entry_and_no_code_behind() {
        // One evergreen item and two never-repeated ones per transaction:
        // 40 001 distinct items over the run, 201 of them live at any time.
        // Before entries were dropped at support 0 this stream ended at
        // node_count() == 80 001 — a client choosing item ids could grow a
        // shard without bound.
        const W: usize = 100;
        let mut w = SlidingWindow::new(W);
        let mut m = MomentMiner::new(5);
        for i in 0..20_000u32 {
            let items = ItemSet::from_ids([0, 1000 + 2 * i, 1001 + 2 * i]);
            m.apply(&w.slide(Transaction::new(0, items)));
            // The code table is bounded by the distinct items of the last
            // two windows (2 · 2W one-off items and the evergreen one).
            assert!(m.coded.len() <= 4 * W + 1, "{} codes", m.coded.len());
            // The root holds the frequent items only, and the one-off items
            // never reach C: the tree is the evergreen item's root entry once
            // it is frequent, and nothing else (it ranks last, so it has no
            // extensions).
            let evergreen = m.window_len() >= 5;
            assert_eq!(m.node_count(), usize::from(evergreen), "step {i}");
            if (i + 1) % 1000 == 0 {
                assert_eq!(m.window_len(), W);
                assert_eq!(m.closed_frequent().len(), 1);
            }
        }
    }

    #[test]
    fn an_item_crossing_c_enters_and_leaves_the_root_on_walks() {
        // Item 100, ranked, sits at C − 1, reaches C, and falls back; item
        // 200, first seen after the last re-rank, becomes frequent at the
        // root and falls back. Every settle walks, each checked against a
        // re-mine of the window; the probe reads (item 100's count, whether
        // 100 has a root entry with a subtree, the same for 200 once seen).
        const C: u64 = 3;
        type Live = BTreeMap<Tid, ItemSet>;
        let background = |i: u32| ItemSet::from_ids([i % 7, 7 + i % 5, 12 + i % 3]);
        let (mut m, mut live, mut tid) = (MomentMiner::new(C), Live::new(), 0);
        let mut add = |m: &mut MomentMiner, live: &mut Live, items: ItemSet| {
            tid += 1;
            m.insert(tid, items.items());
            live.insert(tid, items);
            tid
        };
        let evict = |m: &mut MomentMiner, live: &mut Live, tid| {
            m.remove(tid);
            live.remove(&tid);
        };
        let evict_oldest = |m: &mut MomentMiner, live: &mut Live| {
            m.remove(live.pop_first().unwrap().0);
        };
        (0..28).for_each(|i| _ = add(&mut m, &mut live, background(i)));
        let x1 = add(&mut m, &mut live, ItemSet::from_ids([1, 8, 100]));
        add(&mut m, &mut live, ItemSet::from_ids([1, 9, 100]));
        // The re-rank at the 32nd arrival ranks item 100; the next is 32
        // arrivals later, beyond this test's.
        (28..38).for_each(|i| _ = add(&mut m, &mut live, background(i)));
        m.settle();
        assert!(m.code_of[&Item(100)] < m.ranked, "item 100 is not ranked");
        let before = m.rebuilds();
        let probe = |m: &mut MomentMiner, live: &Live| {
            m.settle();
            assert_eq!(m.rebuilds(), before, "a settle rebuilt");
            let window = (1..)
                .zip(live.values())
                .map(|(t, items)| Transaction::new(t, items.clone()));
            let oracle = Eclat::new(C).mine(&Database::from_records(window.collect()));
            assert_eq!(m.closed_frequent(), closed_subset(&oracle));
            assert_eq!(m.node_stats().total(), m.node_count());
            assert!(m.root_is_the_item_table());
            let entry = |item: u32| {
                let code = *m.code_of.get(&Item(item))?;
                let root = m.nodes[0].iter().find(|e| e.key as u32 == code);
                Some(root.map(|e| e.child != NONE))
            };
            let count = live.values().filter(|t| t.contains(Item(100))).count() as u64;
            (count, entry(100).flatten(), entry(200))
        };
        assert_eq!(probe(&mut m, &live), (C - 1, None, None));
        // Up to C: the entry is merged in at its count and explored.
        evict_oldest(&mut m, &mut live);
        add(&mut m, &mut live, ItemSet::from_ids([1, 8, 9, 100]));
        assert_eq!(probe(&mut m, &live), (C, Some(true), None));
        // A new item reaches C among one settle's arrivals.
        for extra in [[2, 200], [1, 200], [8, 200]] {
            evict_oldest(&mut m, &mut live);
            add(&mut m, &mut live, ItemSet::from_ids(extra));
        }
        assert!(m.code_of[&Item(200)] >= m.ranked, "item 200 was ranked");
        assert_eq!(probe(&mut m, &live), (C, Some(true), Some(Some(true))));
        // Back to C − 1: the entry and its subtree go.
        evict(&mut m, &mut live, x1);
        add(&mut m, &mut live, ItemSet::from_ids([2, 8]));
        assert_eq!(probe(&mut m, &live), (C - 1, None, Some(Some(true))));
        // 200 falls below C as 100 comes back, in one settle.
        let last_200 = live.iter().rev().find(|(_, t)| t.contains(Item(200)));
        let last_200 = *last_200.unwrap().0;
        evict(&mut m, &mut live, last_200);
        add(&mut m, &mut live, ItemSet::from_ids([9, 100]));
        assert_eq!(probe(&mut m, &live), (C, Some(true), Some(None)));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_tid_rejected() {
        let mut m = MomentMiner::new(2);
        m.insert(1, iset("ab").items());
        m.insert(1, iset("ab").items());
    }

    #[test]
    #[should_panic(expected = "not in the window")]
    fn deleting_an_absent_tid_rejected() {
        let mut m = MomentMiner::new(2);
        m.insert(1, iset("ab").items());
        // Same ring slot as tid 1, but not the transaction living there.
        m.remove(1 + INITIAL_RING as u64);
    }

    #[test]
    fn reading_the_tree_with_changes_queued_panics() {
        // A stale read would publish the last settle's supports as this
        // window's: `assert!`, so release builds refuse it too.
        let mut m = MomentMiner::new(2);
        let stream = fig2_stream();
        for t in &stream[..4] {
            m.insert(t.tid(), t.items().items());
        }
        m.remove(stream[0].tid());
        let reads: [fn(&MomentMiner); 3] = [
            |m| {
                let _ = m.closed_frequent();
            },
            |m| {
                let _ = m.node_count();
            },
            |m| {
                let _ = m.node_stats();
            },
        ];
        for read in reads {
            let err = std::panic::catch_unwind(|| read(&m)).expect_err("a stale read");
            let msg = err.downcast_ref::<&str>().expect("a static message");
            assert!(msg.contains("settle first"), "{msg}");
        }
        m.settle();
        reads.iter().for_each(|read| read(&m));
        // What the window holds is exact throughout, queued or not.
        assert_eq!(m.window_len(), 3);
    }

    #[test]
    fn the_queue_never_outgrows_two_windows() {
        // Nothing settles: the re-rank, once per turnover, is what clears
        // the queue, so it holds at most a turnover's arrivals and the
        // departures beside them.
        const W: u64 = 100;
        let stream = QuestGenerator::new(QuestConfig::default(), 5).generate(4 * W as usize);
        let mut m = MomentMiner::new(4);
        let mut peak = 0;
        for (tid, t) in (1..).zip(&stream) {
            if tid > W {
                m.remove(tid - W);
            }
            m.insert(tid, t.items().items());
            assert!(
                m.occs.len() <= 2 * W as usize,
                "tid {tid}: {}",
                m.occs.len()
            );
            peak = peak.max(m.occs.len());
        }
        assert!(peak > W as usize, "the queue never held a turnover: {peak}");
        m.settle();
        let mut w = SlidingWindow::new(W as usize);
        for t in &stream {
            w.slide(t.clone());
        }
        assert_eq!(m.closed_frequent(), remine(&w, 4));
    }

    #[test]
    fn a_settle_rebuilds_once_the_queue_holds_a_window() {
        // (window, slides, departures alone, rebuilds?): 20 slides queue 40
        // changes, a whole window of 40 but one fewer than a window of 41;
        // removing 20 of 40 leaves 20 behind it, removing 19 leaves 21.
        let stream = QuestGenerator::new(QuestConfig::default(), 7).generate(200);
        let c = 3;
        for (w, slides, departures, rebuilds) in [
            (40, 20, 0, true),
            (41, 20, 0, false),
            (40, 0, 20, true),
            (40, 0, 19, false),
        ] {
            let case = (w, slides, departures);
            let mut m = MomentMiner::new(c);
            let mut live = std::collections::VecDeque::new();
            let mut feed = (1..).zip(&stream);
            for (tid, t) in feed.by_ref().take(w) {
                m.insert(tid, t.items().items());
                live.push_back((tid, t.clone()));
            }
            m.settle();
            let before = m.rebuilds();
            for (tid, t) in feed.by_ref().take(slides) {
                m.remove(live.pop_front().unwrap().0);
                m.insert(tid, t.items().items());
                live.push_back((tid, t.clone()));
            }
            for _ in 0..departures {
                m.remove(live.pop_front().unwrap().0);
            }
            assert_eq!(m.rebuilds(), before, "{case:?}: a turnover re-rank");
            m.settle();
            assert_eq!(m.rebuilds() - before, u64::from(rebuilds), "{case:?}");
            let window = Database::from_records(live.iter().map(|(_, t)| t.clone()).collect());
            let oracle = closed_subset(&Eclat::new(c).mine(&window));
            assert_eq!(m.closed_frequent(), oracle, "{case:?}");
            assert_eq!(m.node_stats().total(), m.node_count(), "{case:?}");
        }
    }

    #[test]
    fn at_half_window_cadence_every_settle_rebuilds_and_nothing_else_does() {
        // A rebuild restarts the turnover countdown, so when each settle
        // rebuilds the re-rank in `insert` never fires: one rebuild per
        // publication, as a shard at every = W/2 runs it.
        const W: u64 = 60;
        let stream = QuestGenerator::new(QuestConfig::default(), 8).generate(12 * W as usize);
        let mut m = MomentMiner::new(4);
        let mut w = SlidingWindow::new(W as usize);
        for (tid, t) in (1..).zip(&stream) {
            w.slide(t.clone());
            if tid > W {
                m.remove(tid - W);
            }
            m.insert(tid, t.items().items());
            if tid >= 2 * W && tid % (W / 2) == 0 {
                let before = m.rebuilds();
                m.settle();
                assert_eq!(m.rebuilds(), before + 1, "tid {tid}");
                assert_eq!(m.closed_frequent(), remine(&w, 4), "tid {tid}");
            } else if tid > 2 * W {
                assert_eq!(m.occs.len() as u64, 2 * (tid % (W / 2)), "tid {tid}");
            }
        }
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
            m.insert(t.tid(), t.items().items());
        }
        assert_eq!(m.slots.len(), INITIAL_RING, "grew before the ring filled");
        m.settle();
        let before = m.closed_frequent();
        // tid INITIAL_RING collides with tid 0's slot (both ≡ 0 mod capacity).
        let last = &stream[INITIAL_RING];
        m.insert(last.tid(), last.items().items());
        assert!(
            m.slots.len() > INITIAL_RING,
            "colliding insert did not grow the ring"
        );
        m.remove(last.tid());
        m.settle();
        assert_eq!(
            m.closed_frequent(),
            before,
            "grow + remap changed supports of an identical window"
        );
    }

    #[test]
    fn ring_slots_shrink_back_to_their_occupants() {
        // One window of 1 000-id transactions, then one of 3-id ones: each
        // slot's buffer falls back with its occupant, so the ring holds
        // about the live codes, not the longest transaction's capacity.
        const W: u64 = 256; // a power of two: the ring is exactly W slots
        let mut m = MomentMiner::new(W + 1);
        for tid in 1..=2 * W {
            if tid > W {
                m.remove(tid - W);
            }
            let len = if tid <= W { 1000 } else { 3 };
            let mut items: Vec<Item> = (0..len)
                .map(|i| Item(((tid * 7 + i) % 1500) as u32))
                .collect();
            items.sort_unstable();
            m.insert(tid, &items);
        }
        assert_eq!(m.slots.len(), W as usize);
        let occupied = || m.slots.iter().filter(|s| s.tid.is_some());
        let live: usize = occupied().map(|s| s.codes.len()).sum();
        let held: usize = m.slots.iter().map(|s| s.codes.capacity()).sum();
        assert_eq!(live, 3 * W as usize);
        assert!(held <= 2 * live, "ring holds {held} codes for {live} live");
    }

    #[test]
    fn ring_doubling_mid_stream_property() {
        // Property test over random streams whose window exceeds the
        // initial ring: capacity must grow mid-stream, live tids must wrap
        // both the old and the grown ring, and the mined answer must equal
        // the re-mine oracle at every slide through it all.
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
            let mut grew_at = None;
            for (step, t) in stream.iter().enumerate() {
                let cap_before = moment.slots.len();
                moment.apply(&w.slide(t.clone()));
                if moment.slots.len() > cap_before {
                    grew_at = Some(step);
                }
                // The ring is the window's one copy: every record reads back.
                for r in w.records() {
                    let want: Vec<u32> = r.items().iter().map(|i| i.id()).collect();
                    assert_eq!(ids_of(&moment, r.tid()), Some(want));
                }
                assert_eq!(ids_of(&moment, w.stream_len() + 1), None);
                assert_eq!(
                    moment.closed_frequent(),
                    remine(&w, 4),
                    "divergence seed={seed} step={step} (ring grew at {grew_at:?})"
                );
            }
            let grew_at = grew_at.expect("window > INITIAL_RING never grew the ring");
            // The stream ran long enough past the grow that tids wrapped the
            // grown ring too (tid range spans > final capacity).
            assert!(
                stream.len() - grew_at > moment.slots.len(),
                "stream too short to wrap the grown ring (grew at {grew_at})"
            );
        }
    }
}
