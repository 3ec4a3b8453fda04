//! One window-miner interface: the production miner and its oracles.
//!
//! The paper's deployment (Fig. 1) is stream → miner → publisher, and its
//! host miner is Moment: the stream pipeline owns a [`MomentMiner`] and
//! nothing else. [`MinerBackend`] is the window → mine interface Moment
//! shares with the other miners of this crate — batch (Apriori, Eclat,
//! FP-Growth, Charm, rescan-closed) and the approximate FP-stream — so the
//! tests, soak run and benches can drive every one of them over the same
//! window and hold Moment to their answers. [`BackendKind`] enumerates
//! them for those matrices.
//!
//! Semantics: [`MinerBackend::frequent`] returns **all** frequent itemsets;
//! [`MinerBackend::closed_frequent`] (what Butterfly publishes, §III-A)
//! defaults to deriving the closed subset and is overridden by miners that
//! maintain closed sets natively. Exact miners produce identical results
//! on the same window — the backend-matrix test in `tests/` holds them to
//! that; FP-stream ([`MinerBackend::is_exact`] `== false`) trades exactness
//! for bounded state and is exempt.

use crate::closed::{closed_subset, expand_closed};
use crate::result::FrequentItemsets;
use crate::{Apriori, Charm, Eclat, FpGrowth, FpStream, FpStreamConfig, MomentMiner, RescanMiner};
use bfly_common::{Database, Support, Transaction, WindowDelta};

/// A miner driven by window deltas and queried for frequent itemsets.
///
/// `Send + Sync` is part of the contract, so a boxed miner from
/// [`BackendKind::build`] can cross threads as the concrete ones can, and
/// queries take `&self`. Every miner in this crate is plain owned data, so
/// the bound costs implementors nothing.
pub trait MinerBackend: Send + Sync {
    /// Apply one window movement (arrival + optional eviction).
    fn apply(&mut self, delta: &WindowDelta);

    /// All frequent itemsets of the current window, with supports.
    fn frequent(&self) -> FrequentItemsets;

    /// The closed frequent itemsets — what Butterfly publishes. Derived
    /// from [`MinerBackend::frequent`] by default; miners that maintain
    /// closed sets natively override this.
    fn closed_frequent(&self) -> FrequentItemsets {
        closed_subset(&self.frequent())
    }

    /// The minimum support `C` the miner enforces.
    fn min_support(&self) -> Support;

    /// Stable backend name (matches [`BackendKind::name`]).
    fn name(&self) -> &'static str;

    /// Whether results are exact window counts. The approximate FP-stream
    /// returns `false` and is excluded from exactness checks.
    fn is_exact(&self) -> bool {
        true
    }
}

/// A stateless full-database miner usable per-query by [`BatchBackend`].
pub trait BatchMiner {
    /// Mine all frequent itemsets of `db`.
    fn mine_all(&self, db: &Database) -> FrequentItemsets;

    /// The minimum support `C`.
    fn min_support(&self) -> Support;

    /// Stable miner name.
    fn name(&self) -> &'static str;
}

impl BatchMiner for Apriori {
    fn mine_all(&self, db: &Database) -> FrequentItemsets {
        self.mine(db)
    }

    fn min_support(&self) -> Support {
        Apriori::min_support(self)
    }

    fn name(&self) -> &'static str {
        "apriori"
    }
}

impl BatchMiner for Eclat {
    fn mine_all(&self, db: &Database) -> FrequentItemsets {
        self.mine(db)
    }

    fn min_support(&self) -> Support {
        Eclat::min_support(self)
    }

    fn name(&self) -> &'static str {
        "eclat"
    }
}

impl BatchMiner for FpGrowth {
    fn mine_all(&self, db: &Database) -> FrequentItemsets {
        self.mine(db)
    }

    fn min_support(&self) -> Support {
        FpGrowth::min_support(self)
    }

    fn name(&self) -> &'static str {
        "fpgrowth"
    }
}

impl BatchMiner for Charm {
    fn mine_all(&self, db: &Database) -> FrequentItemsets {
        expand_closed(&self.mine_closed(db))
    }

    fn min_support(&self) -> Support {
        Charm::min_support(self)
    }

    fn name(&self) -> &'static str {
        "charm"
    }
}

/// Adapter running a [`BatchMiner`] as a window backend: it mirrors the
/// window contents and re-mines on every query. Exact, `O(window)` work per
/// query — the cost baseline the incremental miners are measured against.
#[derive(Clone, Debug)]
pub struct BatchBackend<M> {
    miner: M,
    window: Vec<Transaction>,
}

impl<M: BatchMiner> BatchBackend<M> {
    /// Wrap a batch miner.
    pub fn new(miner: M) -> Self {
        BatchBackend {
            miner,
            window: Vec::new(),
        }
    }

    /// Current number of transactions mirrored.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

impl<M: BatchMiner + Send + Sync> MinerBackend for BatchBackend<M> {
    fn apply(&mut self, delta: &WindowDelta) {
        if let Some(evicted) = &delta.evicted {
            let pos = self
                .window
                .iter()
                .position(|t| t.tid() == evicted.tid())
                .expect("evicting a transaction that is not in the window");
            self.window.remove(pos);
        }
        self.window.push(delta.added.clone());
    }

    fn frequent(&self) -> FrequentItemsets {
        self.miner
            .mine_all(&Database::from_records(self.window.clone()))
    }

    fn min_support(&self) -> Support {
        self.miner.min_support()
    }

    fn name(&self) -> &'static str {
        self.miner.name()
    }
}

/// FP-stream as a backend: approximate supports over tilted-time windows.
/// Evictions are ignored — the tilted-time structure ages batches out
/// logarithmically instead of by a sharp window edge.
#[derive(Clone, Debug)]
pub struct FpStreamBackend {
    stream: FpStream,
    min_support: Support,
}

impl FpStreamBackend {
    /// Wrap an FP-stream miner; `min_support` is applied as a post-filter
    /// on the approximate counts.
    pub fn new(stream: FpStream, min_support: Support) -> Self {
        assert!(min_support > 0, "min_support must be positive");
        FpStreamBackend {
            stream,
            min_support,
        }
    }
}

impl MinerBackend for FpStreamBackend {
    fn apply(&mut self, delta: &WindowDelta) {
        self.stream.push(delta.added.clone());
    }

    fn frequent(&self) -> FrequentItemsets {
        // Flush a clone so a query never mutates batch alignment.
        let mut snapshot = self.stream.clone();
        snapshot.flush();
        let horizon = snapshot.batches();
        snapshot
            .frequent_over(horizon)
            .filter_min_support(self.min_support)
    }

    fn min_support(&self) -> Support {
        self.min_support
    }

    fn name(&self) -> &'static str {
        "fpstream"
    }

    fn is_exact(&self) -> bool {
        false
    }
}

/// Every miner behind [`MinerBackend`], for the oracle matrices (the
/// equivalence tests and the per-slide bench). The pipeline does not
/// consult it: it always runs Moment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Level-wise batch miner (test oracle).
    Apriori,
    /// Vertical tidset batch miner.
    Eclat,
    /// FP-tree batch miner.
    FpGrowth,
    /// Vertical closed-itemset batch miner, expanded to all frequent.
    Charm,
    /// Rescan-on-query closed miner (FP-Growth + closed subset).
    Closed,
    /// Incremental CET sliding-window closed miner (the paper's host).
    Moment,
    /// FP-stream with tilted-time windows (approximate).
    FpStream,
}

impl BackendKind {
    /// Every backend, in registry order.
    pub const ALL: [BackendKind; 7] = [
        BackendKind::Apriori,
        BackendKind::Eclat,
        BackendKind::FpGrowth,
        BackendKind::Charm,
        BackendKind::Closed,
        BackendKind::Moment,
        BackendKind::FpStream,
    ];

    /// The backends whose results are exact window counts (and therefore
    /// must agree pairwise on every window).
    pub const EXACT: [BackendKind; 6] = [
        BackendKind::Apriori,
        BackendKind::Eclat,
        BackendKind::FpGrowth,
        BackendKind::Charm,
        BackendKind::Closed,
        BackendKind::Moment,
    ];

    /// Stable name (matches [`MinerBackend::name`]; labels test failures
    /// and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Apriori => "apriori",
            BackendKind::Eclat => "eclat",
            BackendKind::FpGrowth => "fpgrowth",
            BackendKind::Charm => "charm",
            BackendKind::Closed => "closed",
            BackendKind::Moment => "moment",
            BackendKind::FpStream => "fpstream",
        }
    }

    /// Construct the backend with minimum support `C`. FP-stream gets
    /// fixed stream parameters; use its concrete constructor for full
    /// control.
    pub fn build(self, min_support: Support) -> Box<dyn MinerBackend> {
        assert!(min_support > 0, "min_support must be positive");
        match self {
            BackendKind::Apriori => Box::new(BatchBackend::new(Apriori::new(min_support))),
            BackendKind::Eclat => Box::new(BatchBackend::new(Eclat::new(min_support))),
            BackendKind::FpGrowth => Box::new(BatchBackend::new(FpGrowth::new(min_support))),
            BackendKind::Charm => Box::new(BatchBackend::new(Charm::new(min_support))),
            BackendKind::Closed => Box::new(RescanMiner::new(min_support)),
            BackendKind::Moment => Box::new(MomentMiner::new(min_support)),
            BackendKind::FpStream => {
                let config = FpStreamConfig {
                    batch_size: 32,
                    sigma: 0.05,
                    epsilon: 0.01,
                };
                Box::new(FpStreamBackend::new(FpStream::new(config), min_support))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::fig2_stream;
    use bfly_common::SlidingWindow;

    #[test]
    fn exact_backends_agree_on_the_paper_window() {
        let mut backends: Vec<Box<dyn MinerBackend>> =
            BackendKind::EXACT.into_iter().map(|k| k.build(4)).collect();
        let mut window = SlidingWindow::new(8);
        for t in fig2_stream() {
            let delta = window.slide(t);
            for b in &mut backends {
                b.apply(&delta);
            }
        }
        let reference_all = backends[0].frequent();
        let reference_closed = backends[0].closed_frequent();
        assert!(!reference_all.is_empty());
        for b in &backends[1..] {
            assert!(b.is_exact());
            assert_eq!(b.frequent(), reference_all, "{} disagrees", b.name());
            assert_eq!(
                b.closed_frequent(),
                reference_closed,
                "{} closed sets disagree",
                b.name()
            );
        }
    }

    #[test]
    fn approximate_backends_run_and_flag_themselves() {
        let mut backend = BackendKind::FpStream.build(2);
        assert!(!backend.is_exact());
        let mut window = SlidingWindow::new(8);
        for t in fig2_stream() {
            let delta = window.slide(t);
            backend.apply(&delta);
        }
        // An approximate miner may differ from the exact window counts, but
        // it must produce a well-formed result honouring C.
        let f = backend.frequent();
        assert!(f.iter().all(|e| e.support >= 2));
        assert_eq!(backend.min_support(), 2);
    }

    #[test]
    fn batch_backend_mirrors_evictions() {
        let mut backend = BatchBackend::new(Apriori::new(1));
        let mut window = SlidingWindow::new(4);
        for t in fig2_stream() {
            let delta = window.slide(t);
            backend.apply(&delta);
        }
        assert_eq!(backend.window_len(), 4);
    }
}
