//! Vertical tid-bitmap support counting (Eclat's representation,
//! Zaki 2000, adapted to the paper's sliding-window stream model).
//!
//! Every layer of the pipeline ultimately pays for support counting: the
//! miners test candidate itemsets against transactions, and the inference
//! side re-derives ground-truth supports of negation patterns (§III-A's
//! generalized patterns) by the same subset scans. This module turns both
//! into word-level bit operations:
//!
//! * [`TidBitmap`] — a dense `u64` bitmap over **window positions** (ring
//!   slots). The window is a FIFO of capacity `H`, so a transaction's slot
//!   is `tid mod H`: a slide clears the evicted record's bit and sets the
//!   arriving one's — O(1) per item, no rebuild — and slots are recycled as
//!   the stream wraps around the ring.
//! * [`VerticalIndex`] — item → `TidBitmap`, maintained incrementally from
//!   [`WindowDelta`]s. Support of a positive itemset is intersect-and-
//!   popcount; support of a pattern *with negations* (the hard-vulnerable
//!   patterns of the intra-window attack) is AND/AND-NOT + popcount.
//! * [`TidScratch`] — a caller-owned scratch word buffer so the hot loops
//!   do zero allocation.
//! * [`SupportMemo`] — a per-window memo of already-counted supports keyed
//!   by itemset value, shared between the miner and the attack evaluator so
//!   the same support is never counted twice in one window.
//!
//! Counting costs `O(|I| · H/64)` per itemset instead of `O(H · |I|)`
//! comparisons with branchy merges; `BENCH_support.json` tracks the ratio.
//!
//! The word loops themselves live in [`kernel`]: explicitly unrolled
//! `u64x8` lanes, inlined into their callers, and cache-blocked
//! multi-operand intersection. Every in-place op maintains the invariant
//! that bits past `capacity` are zero (debug-asserted after each one), so
//! the cached popcount can never be inflated by a stale tail word.

pub mod kernel;

use crate::transaction::Tid;
use crate::{Database, Item, ItemSet, ItemsetId, Pattern, Support, Transaction, WindowDelta};
use std::collections::HashMap;

/// A dense bitmap over the ring slots of one window. Bit `s` is set when
/// the transaction currently occupying slot `s` supports the indexed item
/// (or, for scratch results, survives the intersection so far).
///
/// The popcount is cached and maintained by [`TidBitmap::set`] /
/// [`TidBitmap::clear`], so [`TidBitmap::count`] is O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TidBitmap {
    words: Vec<u64>,
    capacity: usize,
    ones: u32,
}

impl TidBitmap {
    /// The empty bitmap over `capacity` ring slots.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tid bitmap capacity must be positive");
        TidBitmap {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            ones: 0,
        }
    }

    /// Number of ring slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of set slots (cached popcount, O(1)).
    #[inline]
    pub fn count(&self) -> usize {
        self.ones as usize
    }

    /// True when no slot is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// The backing words (low slot = low bit of word 0).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Set slot `slot`; no-op if already set.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        debug_assert!(slot < self.capacity, "slot {slot} out of ring");
        let word = &mut self.words[slot / 64];
        let mask = 1u64 << (slot % 64);
        self.ones += u32::from(*word & mask == 0);
        *word |= mask;
    }

    /// Clear slot `slot`; no-op if already clear.
    #[inline]
    pub fn clear(&mut self, slot: usize) {
        debug_assert!(slot < self.capacity, "slot {slot} out of ring");
        let word = &mut self.words[slot / 64];
        let mask = 1u64 << (slot % 64);
        self.ones -= u32::from(*word & mask != 0);
        *word &= !mask;
    }

    /// Is slot `slot` set?
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        slot < self.capacity && self.words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Mask covering the valid bits of the last word (all-ones when the
    /// capacity is word-aligned).
    #[inline]
    fn tail_mask(&self) -> u64 {
        match self.capacity % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// Debug invariant: no bit past `capacity` is set and the cached
    /// popcount matches the words. Checked after every in-place op.
    #[inline]
    fn debug_assert_tail_clear(&self) {
        debug_assert!(
            self.words.last().is_none_or(|w| w & !self.tail_mask() == 0),
            "bits past capacity {} are set",
            self.capacity
        );
        debug_assert_eq!(
            kernel::popcount(&self.words),
            self.ones as u64,
            "cached popcount diverged from the words"
        );
    }

    /// Overwrite with `self = a & b` in one fused pass (the Eclat DFS step:
    /// copy-then-intersect was two passes over the scratch buffer).
    pub fn assign_and(&mut self, a: &TidBitmap, b: &TidBitmap) {
        debug_assert_eq!(self.capacity, a.capacity, "ring capacity mismatch");
        debug_assert_eq!(self.capacity, b.capacity, "ring capacity mismatch");
        self.ones = kernel::assign_and_count(&mut self.words, &a.words, &b.words) as u32;
        self.debug_assert_tail_clear();
    }

    /// `|self & other|` without mutating either side.
    pub fn and_count(&self, other: &TidBitmap) -> usize {
        debug_assert_eq!(self.capacity, other.capacity, "ring capacity mismatch");
        kernel::and_count(&self.words, &other.words) as usize
    }

    /// Subset test `self ⊆ other`, early-exiting on the first 8-word lane
    /// step with a bit of `self` not covered by `other`.
    pub fn is_subset_of(&self, other: &TidBitmap) -> bool {
        debug_assert_eq!(self.capacity, other.capacity, "ring capacity mismatch");
        if self.ones > other.ones {
            return false;
        }
        kernel::is_subset(&self.words, &other.words)
    }
}

/// The set slots of a bitmap's words ([`TidBitmap::words`], or a raw slice
/// the [`kernel`] functions produced), in ascending order.
pub fn iter_slots(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * 64 + bit)
            }
        })
    })
}

/// Caller-owned scratch buffer for intersect/subtract chains: one word
/// vector reused across every counting query, so the hot loops allocate
/// nothing after the first call at a given ring capacity.
#[derive(Clone, Debug, Default)]
pub struct TidScratch {
    words: Vec<u64>,
}

impl TidScratch {
    /// A fresh (empty) scratch buffer.
    pub fn new() -> Self {
        TidScratch::default()
    }

    /// Resize for `n_words` words (keeps the allocation when big enough).
    fn prepare(&mut self, n_words: usize) -> &mut [u64] {
        if self.words.len() < n_words {
            self.words.resize(n_words, 0);
        }
        &mut self.words[..n_words]
    }
}

/// The vertical (transposed) view of one sliding window: each item maps to
/// the bitmap of ring slots whose current transaction contains it, plus an
/// `occupied` bitmap of live slots (needed while the window is filling and
/// as the base of purely-negative patterns).
///
/// Maintained incrementally from [`WindowDelta`]s: an insert sets one bit
/// per item of the arriving transaction, an evict clears them — O(|t|) per
/// slide, never a rebuild. Slots are `tid mod capacity`; correctness needs
/// every live tid to map to a distinct slot, which a FIFO window of size
/// `H ≤ capacity` guarantees (live tids span a contiguous range ≤ `H`).
#[derive(Clone, Debug)]
pub struct VerticalIndex {
    capacity: usize,
    items: HashMap<Item, TidBitmap>,
    occupied: TidBitmap,
    /// Slot → tid of the transaction currently occupying it (stale entries
    /// are masked by `occupied`): what lets [`VerticalIndex::evict`] refuse
    /// a tid that shares its slot with the live one.
    slot_tids: Vec<Tid>,
}

impl VerticalIndex {
    /// An empty index over a ring of `capacity` slots (the window size `H`,
    /// or anything larger).
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        VerticalIndex {
            capacity,
            items: HashMap::new(),
            occupied: TidBitmap::new(capacity),
            slot_tids: vec![0; capacity],
        }
    }

    /// Transpose a whole database at once (capacity = record count). The
    /// batch miners use this per mining pass; streams maintain an index
    /// with [`VerticalIndex::apply`] instead.
    pub fn of_database(db: &Database) -> Self {
        let mut index = VerticalIndex::new(db.len().max(1));
        for record in db.records() {
            index.insert(record);
        }
        index
    }

    /// Ring size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.occupied.count()
    }

    /// True when no transaction is indexed.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// The ring slot of `tid`.
    #[inline]
    pub fn slot_of(&self, tid: Tid) -> usize {
        (tid % self.capacity as u64) as usize
    }

    /// The bitmap of slots whose transaction contains `item` (`None` when
    /// no live transaction does).
    pub fn item_bits(&self, item: Item) -> Option<&TidBitmap> {
        self.items.get(&item)
    }

    /// Items with at least one live occurrence, in ascending order (for
    /// deterministic enumeration by the miners).
    pub fn live_items(&self) -> Vec<Item> {
        let mut items: Vec<Item> = self.items.keys().copied().collect();
        items.sort_unstable();
        items
    }

    /// Index one arriving transaction.
    ///
    /// # Panics
    /// If the transaction's slot is already occupied — the window outgrew
    /// the ring (insert without evict), which is a caller bug.
    pub fn insert(&mut self, t: &Transaction) {
        let slot = self.slot_of(t.tid());
        assert!(
            !self.occupied.contains(slot),
            "ring slot {slot} already occupied: window exceeds capacity {}",
            self.capacity
        );
        self.occupied.set(slot);
        self.slot_tids[slot] = t.tid();
        for item in t.items().iter() {
            self.items
                .entry(item)
                .or_insert_with(|| TidBitmap::new(self.capacity))
                .set(slot);
        }
    }

    /// Remove one evicted transaction.
    ///
    /// # Panics
    /// If the slot does not hold this tid (evicting something never
    /// inserted, or inserted and already evicted).
    pub fn evict(&mut self, t: &Transaction) {
        let tid = t.tid();
        let slot = self.slot_of(tid);
        assert!(
            self.occupied.contains(slot) && self.slot_tids[slot] == tid,
            "evicting tid {tid} that does not occupy its ring slot"
        );
        self.occupied.clear(slot);
        for item in t.items().iter() {
            if let Some(bits) = self.items.get_mut(&item) {
                bits.clear(slot);
                if bits.is_empty() {
                    self.items.remove(&item);
                }
            }
        }
    }

    /// Apply a full window movement (evict + insert).
    pub fn apply(&mut self, delta: &WindowDelta) {
        if let Some(evicted) = &delta.evicted {
            self.evict(evicted);
        }
        self.insert(&delta.added);
    }

    /// Support `T(I)` of a positive itemset: intersect the item bitmaps in
    /// `scratch` and popcount. The empty itemset is supported by every live
    /// transaction, matching [`Database::support`].
    ///
    /// Two items take one fused AND+popcount pass with no scratch write;
    /// wider probes run the cache-blocked [`kernel::and_many_count`], which
    /// streams each scratch block through every operand while it is hot
    /// instead of re-walking the full width once per item.
    pub fn support(&self, itemset: &ItemSet, scratch: &mut TidScratch) -> Support {
        let items = itemset.items();
        match items {
            [] => self.len() as Support,
            [single] => self
                .item_bits(*single)
                .map_or(0, |bits| bits.count() as Support),
            [a, b] => {
                let (Some(a), Some(b)) = (self.item_bits(*a), self.item_bits(*b)) else {
                    return 0;
                };
                kernel::and_count(a.words(), b.words())
            }
            [first, rest @ ..] => {
                let Some(first_bits) = self.item_bits(*first) else {
                    return 0;
                };
                let mut operands: Vec<&[u64]> = Vec::with_capacity(rest.len());
                for item in rest {
                    let Some(bits) = self.item_bits(*item) else {
                        return 0;
                    };
                    operands.push(bits.words());
                }
                let words = scratch.prepare(first_bits.words().len());
                kernel::and_many_count(words, first_bits.words(), &operands)
            }
        }
    }

    /// Support `T(p)` of a generalized pattern: AND the positive items,
    /// AND-NOT the negative ones, popcount — both stages cache-blocked.
    /// Matches [`Database::pattern_support`] exactly.
    pub fn pattern_support(&self, pattern: &Pattern, scratch: &mut TidScratch) -> Support {
        // Negatives subtract; an item with no live occurrence excludes
        // nothing.
        let mut negative_words: Vec<&[u64]> = Vec::with_capacity(pattern.negatives().len());
        for item in pattern.negatives().iter() {
            if let Some(bits) = self.item_bits(item) {
                negative_words.push(bits.words());
            }
        }
        // Base: the positives' intersection, or every live slot when the
        // pattern is purely negative; the negative chain and final popcount
        // run fused without materializing the difference.
        if pattern.positives().is_empty() {
            return kernel::masked_count(self.occupied.words(), &negative_words);
        }
        let mut iter = pattern.positives().iter();
        let first = iter.next().expect("non-empty positives");
        let Some(first_bits) = self.item_bits(first) else {
            return 0;
        };
        let mut positives: Vec<&[u64]> = Vec::new();
        for item in iter {
            let Some(bits) = self.item_bits(item) else {
                return 0;
            };
            positives.push(bits.words());
        }
        if positives.is_empty() && negative_words.is_empty() {
            return first_bits.count() as Support;
        }
        let words = scratch.prepare(first_bits.words().len());
        if kernel::and_many_count(words, first_bits.words(), &positives) == 0 {
            return 0;
        }
        kernel::masked_count(words, &negative_words)
    }
}

/// Per-window memo of already-counted itemset supports, keyed by itemset
/// value. The miner seeds it with the supports it computed anyway (sharing
/// its [`ItemsetId`]s); the attack evaluator (and any later consumer in the
/// same window) reads those back instead of re-counting, and adds what it
/// derives itself. A window is identified by its stream position `N`;
/// advancing clears the memo, and with it every itemset it held.
#[derive(Clone, Debug, Default)]
pub struct SupportMemo {
    version: u64,
    counts: HashMap<ItemsetId, Support>,
    hits: u64,
    misses: u64,
}

impl SupportMemo {
    /// Fresh, empty memo (version 0).
    pub fn new() -> Self {
        SupportMemo::default()
    }

    /// Move to window `version`, clearing the memo if the window changed.
    /// Counts survive repeated `advance` calls with the same version, which
    /// is what lets the miner and the evaluator share one memo per window.
    pub fn advance(&mut self, version: u64) {
        if self.version != version {
            self.version = version;
            self.counts.clear();
        }
    }

    /// The window version the memo is valid for.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of memoized supports.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `(hits, misses)` since construction — the "never counted twice"
    /// contract made observable for tests and bench output.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Record a support computed elsewhere (e.g. by the miner).
    pub fn seed(&mut self, id: ItemsetId, support: Support) {
        self.counts.insert(id, support);
    }

    /// The memoized support of `itemset`, or `count()`'s result (memoized
    /// for the rest of the window).
    pub fn get_or_count(&mut self, itemset: &ItemSet, count: impl FnOnce() -> Support) -> Support {
        if let Some(&s) = self.counts.get(itemset) {
            self.hits += 1;
            return s;
        }
        self.misses += 1;
        let s = count();
        self.counts.insert(ItemsetId::new(itemset.clone()), s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlidingWindow;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn bitmap_set_clear_count() {
        let mut b = TidBitmap::new(130);
        assert!(b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        b.set(64); // idempotent
        assert_eq!(b.count(), 3);
        assert!(b.contains(64));
        assert_eq!(iter_slots(b.words()).next(), Some(0));
        b.clear(0);
        b.clear(0); // idempotent
        assert_eq!(b.count(), 2);
        assert_eq!(iter_slots(b.words()).next(), Some(64));
        assert_eq!(iter_slots(b.words()).collect::<Vec<_>>(), vec![64, 129]);
    }

    #[test]
    fn bitmap_inplace_ops_maintain_cached_count() {
        let mut a = TidBitmap::new(100);
        let mut b = TidBitmap::new(100);
        for s in [1, 5, 64, 70] {
            a.set(s);
        }
        for s in [5, 64, 99] {
            b.set(s);
        }
        assert_eq!(a.and_count(&b), 2);
        let mut i = TidBitmap::new(100);
        i.set(3); // overwritten, not kept
        i.assign_and(&a, &b);
        assert_eq!(iter_slots(i.words()).collect::<Vec<_>>(), vec![5, 64]);
        assert_eq!(i.count(), 2);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn index_counts_match_database_scans() {
        let db = crate::fixtures::fig2_window(12);
        let index = VerticalIndex::of_database(&db);
        let mut scratch = TidScratch::new();
        assert_eq!(index.len(), db.len());
        for s in ["a", "b", "c", "d", "ab", "ac", "abc", "abcd", "", "e"] {
            let i = iset(s);
            assert_eq!(index.support(&i, &mut scratch), db.support(&i), "T({s})");
        }
        for p in ["c¬a¬b", "a¬c", "¬a", "ab¬c¬d", "¬a¬b¬c¬d"] {
            let p: Pattern = p.parse().unwrap();
            assert_eq!(
                index.pattern_support(&p, &mut scratch),
                db.pattern_support(&p),
                "T({p})"
            );
        }
    }

    #[test]
    fn delta_maintenance_tracks_the_window_across_wraps() {
        // Window of 8 over 30 records: tids wrap the ring almost four times.
        let mut window = SlidingWindow::new(8);
        let mut index = VerticalIndex::new(8);
        let stream = crate::fixtures::fig2_stream();
        let mut scratch = TidScratch::new();
        for step in 0..30 {
            let t = stream[step % stream.len()].clone();
            let delta = window.slide(t);
            index.apply(&delta);
            let db = window.database();
            assert_eq!(index.len(), db.len(), "live count at step {step}");
            for s in ["a", "ab", "abc", "cd"] {
                let i = iset(s);
                assert_eq!(
                    index.support(&i, &mut scratch),
                    db.support(&i),
                    "T({s}) at step {step}"
                );
            }
            let p: Pattern = "c¬a".parse().unwrap();
            assert_eq!(
                index.pattern_support(&p, &mut scratch),
                db.pattern_support(&p),
                "pattern at step {step}"
            );
        }
    }

    #[test]
    fn empty_and_absent_cases() {
        let index = VerticalIndex::new(4);
        let mut scratch = TidScratch::new();
        assert!(index.is_empty());
        assert_eq!(index.support(&iset("a"), &mut scratch), 0);
        assert_eq!(index.support(&ItemSet::new([]), &mut scratch), 0);
        let p: Pattern = "¬a".parse().unwrap();
        assert_eq!(index.pattern_support(&p, &mut scratch), 0);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn overfilling_the_ring_panics() {
        let mut index = VerticalIndex::new(2);
        index.insert(&Transaction::new(1, iset("a")));
        index.insert(&Transaction::new(2, iset("b")));
        index.insert(&Transaction::new(3, iset("c"))); // 3 mod 2 == 1: occupied
    }

    #[test]
    #[should_panic(expected = "does not occupy")]
    fn evicting_absent_tid_panics() {
        let mut index = VerticalIndex::new(4);
        index.insert(&Transaction::new(1, iset("a")));
        index.evict(&Transaction::new(5, iset("a"))); // same slot, wrong tid
    }

    #[test]
    fn memo_shares_counts_within_a_window_only() {
        let mut memo = SupportMemo::new();
        memo.advance(8);
        let xyz = iset("xyz");
        memo.seed(ItemsetId::new(xyz.clone()), 7);
        assert_eq!(memo.get_or_count(&xyz, || panic!("must not recount")), 7);
        assert_eq!(memo.stats(), (1, 0));
        // Same window again: still shared.
        memo.advance(8);
        assert_eq!(memo.len(), 1);
        // New window: invalidated, recounted once, then memoized.
        memo.advance(9);
        assert!(memo.is_empty());
        assert_eq!(memo.get_or_count(&xyz, || 3), 3);
        assert_eq!(memo.get_or_count(&xyz, || panic!("recounted")), 3);
        assert_eq!(memo.stats(), (2, 1));
    }
}
