//! Ground-truth support oracle over the current window, backed by the
//! vertical tid-bitmap index.
//!
//! Attack evaluation keeps asking the same two questions of the raw window:
//! "what is `T(I)`?" (to check an estimate) and "what is `T(p)`?" for a
//! generalized pattern `I(J\I)̄` (to decide whether a derived breach is
//! real). Answering them by per-transaction subset scans is `O(H·|I|)` per
//! query; [`GroundTruth`] answers by AND/AND-NOT + popcount over a
//! [`VerticalIndex`] maintained incrementally from [`WindowDelta`]s, and
//! memoizes positive-itemset supports per window in a [`SupportMemo`] keyed
//! by itemset value — a support the miner already published is seeded into
//! the memo (sharing the miner's [`ItemsetId`]) and never counted again
//! within that window. The memo clears on every delta, so it holds no
//! itemset past its window.

use bfly_common::{
    Database, ItemSet, ItemsetId, Pattern, Support, SupportMemo, TidScratch, VerticalIndex,
    WindowDelta,
};

/// Exact support oracle for one sliding window, with cross-window delta
/// maintenance and per-window memoization.
///
/// ```
/// use bfly_common::fixtures::fig2_window;
/// use bfly_inference::GroundTruth;
///
/// let mut truth = GroundTruth::of_database(&fig2_window(12));
/// assert_eq!(truth.support(&"ac".parse().unwrap()), 5);
/// // Example 3's hard vulnerable pattern:
/// assert_eq!(truth.pattern_support(&"c¬a¬b".parse().unwrap()), 1);
/// ```
#[derive(Clone, Debug)]
pub struct GroundTruth {
    index: VerticalIndex,
    scratch: TidScratch,
    memo: SupportMemo,
    /// Monotone window version: bumped on every delta so the memo
    /// invalidates exactly when the window contents change.
    version: u64,
}

impl GroundTruth {
    /// An empty oracle over a ring of `capacity` slots (the window size `H`).
    pub fn new(capacity: usize) -> Self {
        GroundTruth {
            index: VerticalIndex::new(capacity.max(1)),
            scratch: TidScratch::new(),
            memo: SupportMemo::new(),
            version: 0,
        }
    }

    /// Snapshot oracle over a fixed database (capacity = record count).
    pub fn of_database(db: &Database) -> Self {
        GroundTruth {
            index: VerticalIndex::of_database(db),
            scratch: TidScratch::new(),
            memo: SupportMemo::new(),
            version: 0,
        }
    }

    /// Advance to the next window: O(|added| + |evicted|) bit updates, and
    /// the per-window memo is invalidated.
    pub fn apply(&mut self, delta: &WindowDelta) {
        self.index.apply(delta);
        self.version += 1;
        self.memo.advance(self.version);
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no transaction is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The underlying vertical index (read-only).
    pub fn index(&self) -> &VerticalIndex {
        &self.index
    }

    /// `(hits, misses)` of the per-window memo — observability for the
    /// "never counted twice" contract.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.stats()
    }

    /// Seed the current window's memo with supports computed elsewhere —
    /// typically the miner's published `(ItemsetId, Support)` pairs, which
    /// the attack evaluator then reads back for free.
    pub fn seed_supports<I: IntoIterator<Item = (ItemsetId, Support)>>(&mut self, supports: I) {
        for (id, support) in supports {
            self.memo.seed(id, support);
        }
    }

    /// Exact support `T(I)` of a positive itemset, memoized for the rest of
    /// the current window.
    pub fn support(&mut self, itemset: &ItemSet) -> Support {
        let index = &self.index;
        let scratch = &mut self.scratch;
        self.memo
            .get_or_count(itemset, || index.support(itemset, scratch))
    }

    /// Exact support `T(p)` of a generalized pattern. Pure positive
    /// patterns go through the memoized itemset path; genuine negations are
    /// counted directly (AND/AND-NOT + popcount) — they are queried once
    /// per breach candidate, so memoizing them would only grow the map.
    pub fn pattern_support(&mut self, pattern: &Pattern) -> Support {
        if !pattern.has_negation() {
            return self.support(pattern.positives());
        }
        self.index.pattern_support(pattern, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::{fig2_stream, fig2_window};
    use bfly_common::SlidingWindow;

    #[test]
    fn matches_database_scans_on_fig2() {
        let db = fig2_window(12);
        let mut truth = GroundTruth::of_database(&db);
        for s in ["a", "b", "c", "ab", "ac", "abc", "abcd", "d"] {
            let i: ItemSet = s.parse().unwrap();
            assert_eq!(truth.support(&i), db.support(&i), "T({s})");
        }
        for p in ["c¬a¬b", "ab¬c", "¬a¬b", "ac"] {
            let p: Pattern = p.parse().unwrap();
            assert_eq!(truth.pattern_support(&p), db.pattern_support(&p), "T({p})");
        }
    }

    #[test]
    fn delta_maintenance_and_memo_invalidation() {
        let mut window = SlidingWindow::new(8);
        let mut truth = GroundTruth::new(8);
        let ac: ItemSet = "ac".parse().unwrap();
        let p: Pattern = "c¬a¬b".parse().unwrap();
        for t in fig2_stream() {
            truth.apply(&window.slide(t));
            let db = window.database();
            assert_eq!(truth.support(&ac), db.support(&ac));
            assert_eq!(truth.pattern_support(&p), db.pattern_support(&p));
        }
        // Fig. 3 / Example 3 values in Ds(12, 8); the second read of T(ac)
        // is a memo hit.
        assert_eq!(truth.support(&ac), 5);
        assert_eq!(truth.pattern_support(&p), 1);
        let (hits, _) = truth.memo_stats();
        assert!(hits >= 1, "repeated same-window query must hit the memo");
    }

    #[test]
    fn seeded_supports_are_not_recounted() {
        let db = fig2_window(12);
        let mut truth = GroundTruth::of_database(&db);
        let c: ItemSet = "c".parse().unwrap();
        truth.seed_supports([(ItemsetId::new(c.clone()), 8)]);
        let (_, misses_before) = truth.memo_stats();
        assert_eq!(truth.support(&c), 8);
        let (_, misses_after) = truth.memo_stats();
        assert_eq!(misses_before, misses_after, "seeded support was recounted");
    }
}
