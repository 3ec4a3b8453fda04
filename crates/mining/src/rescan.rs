//! The brute-force window miner the incremental one is validated against.

use crate::backend::MinerBackend;
use crate::closed::expand_closed;
use crate::result::FrequentItemsets;
use bfly_common::{Transaction, WindowDelta};

/// Oracle implementation: keeps the window contents and re-mines from
/// scratch on every query via the vertical Eclat engine (word-level tid
/// bitmaps). Exact but does `O(window)` work per query; exists to validate
/// [`crate::MomentMiner`] and to serve as the non-incremental cost baseline.
/// (FP-Growth remains independently cross-validated against the same
/// outputs in the backend-matrix and miner-equivalence tests.)
#[derive(Clone, Debug)]
pub struct RescanMiner {
    min_support: bfly_common::Support,
    window: Vec<Transaction>,
}

impl RescanMiner {
    /// Create an oracle miner with minimum support `C`.
    pub fn new(min_support: bfly_common::Support) -> Self {
        assert!(min_support > 0, "min_support must be positive");
        RescanMiner {
            min_support,
            window: Vec::new(),
        }
    }

    /// Current number of transactions held.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// A transaction entered the window.
    fn insert(&mut self, t: &Transaction) {
        self.window.push(t.clone());
    }

    /// A transaction left the window.
    ///
    /// # Panics
    /// If it is not in the window.
    fn delete(&mut self, t: &Transaction) {
        let pos = self
            .window
            .iter()
            .position(|w| w.tid() == t.tid())
            .expect("deleting a transaction that is not in the window");
        self.window.remove(pos);
    }
}

impl MinerBackend for RescanMiner {
    fn apply(&mut self, delta: &WindowDelta) {
        if let Some(evicted) = &delta.evicted {
            self.delete(evicted);
        }
        self.insert(&delta.added);
    }

    fn frequent(&self) -> FrequentItemsets {
        expand_closed(&self.closed_frequent())
    }

    fn closed_frequent(&self) -> FrequentItemsets {
        let db = bfly_common::Database::from_records(self.window.clone());
        let all = crate::eclat::Eclat::new(self.min_support).mine(&db);
        crate::closed::closed_subset(&all)
    }

    fn min_support(&self) -> bfly_common::Support {
        self.min_support
    }

    fn name(&self) -> &'static str {
        "closed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::fig2_stream;
    use bfly_common::SlidingWindow;

    #[test]
    fn rescan_tracks_window_through_deltas() {
        let mut w = SlidingWindow::new(8);
        let mut miner = RescanMiner::new(4);
        for t in fig2_stream() {
            let delta = w.slide(t);
            miner.apply(&delta);
        }
        assert_eq!(miner.window_len(), 8);
        let closed = miner.closed_frequent();
        // In Ds(12,8) at C=4: c(8), ac(5), bc(5), a(5), b(5), d(4) are the
        // frequent itemsets; among them the closed ones. ac ⊃ a with
        // different support, a(5)=ac(5)? T(a)=5 and T(ac)=5 → a not closed.
        assert!(closed.contains(&"ac".parse().unwrap()));
        assert!(closed.contains(&"bc".parse().unwrap()));
        assert!(!closed.contains(&"a".parse().unwrap()));
        assert!(closed.contains(&"c".parse().unwrap()));
    }

    #[test]
    #[should_panic(expected = "not in the window")]
    fn deleting_absent_transaction_panics() {
        let mut miner = RescanMiner::new(1);
        miner.delete(&Transaction::new(99, "a".parse().unwrap()));
    }
}
