//! The window-miner interface the pipeline drives Moment through.
//!
//! The paper's deployment (Fig. 1) is stream → miner → publisher, and its
//! host miner is Moment: the stream pipeline owns a [`MomentMiner`] and
//! nothing else, which is also this trait's only implementor. The trait is
//! kept because the serve benchmark under `benchmark/` drives Moment through
//! [`MinerBackend::apply`] and [`MinerBackend::closed_frequent`].
//!
//! [`MomentMiner`]: crate::MomentMiner

use crate::result::FrequentItemsets;
use bfly_common::WindowDelta;

/// A miner driven by window deltas and queried for the closed frequent
/// itemsets of its window.
///
/// `Send + Sync` is part of the contract, so a miner can cross threads. A
/// read takes `&mut self`: Moment keeps the `Arc` of each closed set it
/// hands out, so the next read shares it.
pub trait MinerBackend: Send + Sync {
    /// Apply one window movement (arrival + optional eviction).
    fn apply(&mut self, delta: &WindowDelta);

    /// The closed frequent itemsets of the current window, with exact
    /// supports — what Butterfly publishes (§III-A).
    fn closed_frequent(&mut self) -> FrequentItemsets;
}
