//! Closed-itemset utilities.
//!
//! A frequent itemset is *closed* when no proper superset has the same
//! support. Closed itemsets are a lossless compression of the frequent ones:
//! `T(I) = max { T(c) : c closed, c ⊇ I }`. Moment (the paper's host miner)
//! emits closed itemsets; these helpers convert between the two views.

use crate::result::FrequentItemsets;
use bfly_common::{ItemSet, Support};
use std::collections::HashMap;

/// Filter a complete frequent-itemset result down to its closed members.
pub fn closed_subset(frequent: &FrequentItemsets) -> FrequentItemsets {
    FrequentItemsets::from_ids(
        frequent
            .entries()
            .iter()
            .filter(|e| {
                !frequent.entries().iter().any(|other| {
                    other.support == e.support && e.itemset().is_proper_subset_of(other.itemset())
                })
            })
            .map(|e| (e.id.clone(), e.support)),
    )
}

/// Expand closed frequent itemsets back to *all* frequent itemsets with
/// exact supports, using `T(I) = max{T(c) : c ⊇ I}`.
///
/// # Panics
/// If any closed itemset has more than 24 items (subset enumeration blows
/// up; never happens at the paper's support thresholds).
pub fn expand_closed(closed: &FrequentItemsets) -> FrequentItemsets {
    let mut supports: HashMap<ItemSet, Support> = HashMap::new();
    // Descending support (the canonical order) means first write wins:
    // the first closed superset seen for a subset is the max-support one.
    for entry in closed.entries() {
        let n = entry.itemset().len();
        assert!(
            n <= 24,
            "closed itemset with {n} items: expansion too large"
        );
        for mask in 1u64..(1 << n) {
            let sub = entry.itemset().subset_by_mask(mask as u32);
            supports.entry(sub).or_insert(entry.support);
        }
    }
    FrequentItemsets::new(supports)
}

/// True when `itemset` is closed w.r.t. the complete frequent output.
pub fn is_closed(frequent: &FrequentItemsets, itemset: &ItemSet) -> bool {
    let Some(support) = frequent.support(itemset) else {
        return false;
    };
    !frequent
        .entries()
        .iter()
        .any(|other| other.support == support && itemset.is_proper_subset_of(other.itemset()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::eclat::Eclat;
    use bfly_common::fixtures::fig2_window;
    use bfly_common::Database;
    use bfly_datagen::{QuestConfig, QuestGenerator};

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn closed_of_fig2_at_c3() {
        let db = fig2_window(12);
        let all = Apriori::new(3).mine(&db);
        let closed = closed_subset(&all);
        // abc (3) is closed; ab (3) is not (abc has same support).
        assert!(closed.support(&iset("abc")).is_some());
        assert!(closed.support(&iset("ab")).is_none());
        assert!(all.support(&iset("ab")).is_some());
        // c (8) is closed: no superset reaches 8.
        assert!(closed.support(&iset("c")).is_some());
        for e in closed.entries() {
            assert!(is_closed(&all, e.itemset()));
        }
    }

    #[test]
    fn expansion_inverts_compression() {
        let cfg = QuestConfig {
            n_items: 30,
            n_patterns: 10,
            avg_pattern_len: 3.0,
            avg_transaction_len: 5.0,
            max_transaction_len: 12,
            ..QuestConfig::default()
        };
        for seed in 0..4u64 {
            let txs = QuestGenerator::new(cfg.clone(), seed).generate(250);
            let db = Database::from_records(txs);
            let all = Eclat::new(8).mine(&db);
            let closed = closed_subset(&all);
            let expanded = expand_closed(&closed);
            assert_eq!(expanded, all, "expansion lost information (seed {seed})");
            assert!(closed.len() <= all.len());
        }
    }

    #[test]
    fn is_closed_rejects_unknown_itemset() {
        let db = fig2_window(12);
        let all = Apriori::new(3).mine(&db);
        assert!(!is_closed(&all, &iset("z")));
    }

    #[test]
    fn empty_inputs() {
        let empty = FrequentItemsets::default();
        assert!(closed_subset(&empty).is_empty());
        assert!(expand_closed(&empty).is_empty());
    }
}
