//! Sanitized output: what Butterfly publishes instead of raw supports.
//!
//! Entries share their itemsets with the mining result they came from (an
//! [`ItemsetId`] is an `Arc<ItemSet>`), so a release copies no itemset and
//! its itemsets are freed with the last release, history or delta holding
//! them.

use bfly_common::{ItemSet, ItemsetId, SanitizedSupport, Support};
use std::collections::HashMap;

/// One published itemset: its sanitized support, plus (for evaluation only —
/// a deployment would not ship it) the true support. Carries the shared
/// itemset, so a release entry is three machine words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanitizedItemset {
    /// The shared frequent itemset.
    pub id: ItemsetId,
    /// Ground-truth support, retained for measuring `pred`/`prig`.
    pub true_support: Support,
    /// The published, perturbed support. May dip below zero for small
    /// supports under zero-bias noise; kept raw so adversary estimates stay
    /// unbiased (what the paper's analysis assumes).
    pub sanitized: SanitizedSupport,
}

impl SanitizedItemset {
    /// The itemset.
    pub fn itemset(&self) -> &ItemSet {
        &self.id
    }

    /// The value a UI would display: the sanitized support clamped at zero.
    pub fn display_support(&self) -> Support {
        self.sanitized.max(0) as Support
    }
}

/// A full sanitized release for one window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizedRelease {
    entries: Vec<SanitizedItemset>,
}

impl SanitizedRelease {
    /// Build from entries (kept in the order the publisher produced — FEC
    /// ascending, members lexicographic).
    pub fn new(entries: Vec<SanitizedItemset>) -> Self {
        SanitizedRelease { entries }
    }

    /// Number of published itemsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in publication order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &SanitizedItemset> {
        self.entries.iter()
    }

    /// The adversary's view: itemset → sanitized support.
    pub fn view(&self) -> HashMap<ItemsetId, SanitizedSupport> {
        self.entries
            .iter()
            .map(|e| (e.id.clone(), e.sanitized))
            .collect()
    }

    /// Lookup one entry by itemset value.
    pub fn get(&self, itemset: &ItemSet) -> Option<&SanitizedItemset> {
        self.entries.iter().find(|e| e.itemset() == itemset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn release() -> SanitizedRelease {
        SanitizedRelease::new(vec![
            SanitizedItemset {
                id: ItemsetId::new(iset("a")),
                true_support: 30,
                sanitized: 27,
            },
            SanitizedItemset {
                id: ItemsetId::new(iset("ab")),
                true_support: 26,
                sanitized: -1,
            },
        ])
    }

    #[test]
    fn views_split_truth_from_publication() {
        let r = release();
        assert_eq!(r.len(), 2);
        assert_eq!(r.view()[&iset("a")], 27);
        assert_eq!(r.get(&iset("a")).unwrap().true_support, 30);
        assert_eq!(r.view()[&iset("ab")], -1);
    }

    #[test]
    fn display_support_clamps() {
        let r = release();
        assert_eq!(r.get(&iset("ab")).unwrap().display_support(), 0);
        assert_eq!(r.get(&iset("a")).unwrap().display_support(), 27);
        assert!(r.get(&ItemSet::from_ids([6_543_210])).is_none());
    }
}
