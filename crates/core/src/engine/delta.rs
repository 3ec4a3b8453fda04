//! Release deltas: what changed between consecutive publications.
//!
//! Consecutive windows of a sliding stream publish strongly-correlated
//! releases — the republication rule even pins most sanitized values
//! verbatim. A [`ReleaseDelta`] captures just the difference (added,
//! re-perturbed, removed itemsets), so the serve layer can ship `O(churn)`
//! bytes per window instead of the full snapshot, with periodic full
//! `release` snapshots letting late subscribers join mid-stream.
//!
//! A delta is made in one place: the pass over each release against the
//! stream's [`crate::PublicationHistory`]. `tests/release_engine.rs` holds
//! it to a two-release diff and checks that applying it to the previous
//! release reconstructs the next one exactly — same entries, same
//! publication order (both oracles are `bfly_bench::reference`'s).

use crate::release::SanitizedItemset;
use bfly_common::ItemsetId;

/// The difference between one sanitized release and its predecessor.
///
/// `added` and `changed` are in publication order (FEC support ascending,
/// members lexicographic); `removed` is in lexicographic itemset order —
/// all deterministic, so two engines producing the same releases produce
/// byte-identical deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReleaseDelta {
    /// Itemsets published now but absent from the previous release.
    pub added: Vec<SanitizedItemset>,
    /// Itemsets present in both whose (true, sanitized) pair changed —
    /// i.e. re-perturbed or support-shifted.
    pub changed: Vec<SanitizedItemset>,
    /// Itemsets in the previous release that vanished from this one.
    pub removed: Vec<ItemsetId>,
}
