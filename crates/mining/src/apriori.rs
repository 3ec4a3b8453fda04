//! Level-wise Apriori miner — the correctness oracle for the other miners.

use crate::result::FrequentItemsets;
use bfly_common::{Database, ItemSet, Support, TidScratch, VerticalIndex};
use std::collections::HashSet;

/// Classic Apriori (Agrawal & Srikant 1994): generate candidates level by
/// level, prune by the downward-closure property, count by a database scan.
///
/// Deliberately simple — every other miner in this crate is validated
/// against it on randomized inputs.
#[derive(Clone, Copy, Debug)]
pub struct Apriori {
    min_support: Support,
}

impl Apriori {
    /// Create a miner with minimum support `C` (an absolute count, as in the
    /// paper where `C = 25`).
    ///
    /// # Panics
    /// If `min_support == 0` (every itemset incl. the infinite lattice of
    /// absent ones would qualify).
    pub fn new(min_support: Support) -> Self {
        assert!(min_support > 0, "min_support must be positive");
        Apriori { min_support }
    }

    /// The configured minimum support.
    pub fn min_support(&self) -> Support {
        self.min_support
    }

    /// Mine all frequent itemsets of `db` with their exact supports.
    pub fn mine(&self, db: &Database) -> FrequentItemsets {
        let mut out: Vec<(ItemSet, Support)> = Vec::new();

        // One pass transposes the database; all counting below is
        // intersect-and-popcount on the vertical index.
        let index = VerticalIndex::of_database(db);

        // Level 1 straight off the item bitmaps.
        let mut level: Vec<ItemSet> = index
            .live_items()
            .into_iter()
            .filter_map(|item| {
                let count = index.item_bits(item).map_or(0, |b| b.count() as Support);
                (count >= self.min_support).then(|| {
                    out.push((ItemSet::singleton(item), count));
                    ItemSet::singleton(item)
                })
            })
            .collect();
        level.sort_unstable();

        let mut scratch = TidScratch::new();
        while !level.is_empty() {
            let candidates = self.generate_candidates(&level);
            if candidates.is_empty() {
                break;
            }
            let mut next: Vec<ItemSet> = Vec::new();
            for cand in candidates {
                let support = index.support(&cand, &mut scratch);
                if support >= self.min_support {
                    out.push((cand.clone(), support));
                    next.push(cand);
                }
            }
            next.sort_unstable();
            level = next;
        }
        FrequentItemsets::new(out)
    }

    /// Join step + prune step: pairs of level-k itemsets sharing a (k-1)
    /// prefix, kept only if every k-subset is frequent.
    fn generate_candidates(&self, level: &[ItemSet]) -> Vec<ItemSet> {
        let frequent: HashSet<&ItemSet> = level.iter().collect();
        let mut candidates = Vec::new();
        for (idx, a) in level.iter().enumerate() {
            for b in &level[idx + 1..] {
                // level is sorted lexicographically: shared-prefix pairs are
                // adjacent-ish; check prefix equality explicitly.
                let k = a.len();
                if k >= 1 && a.items()[..k - 1] != b.items()[..k - 1] {
                    break; // no later b shares the prefix either
                }
                let joined = a.union(b);
                if joined.len() != k + 1 {
                    continue;
                }
                if joined
                    .immediate_subsets()
                    .all(|sub| frequent.contains(&sub))
                {
                    candidates.push(joined);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::fig2_window;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn mines_fig2_window_at_c4() {
        // Ds(12,8) with C=4 (the setting of the paper's Example 5).
        let db = fig2_window(12);
        let f = Apriori::new(4).mine(&db);
        assert_eq!(f.support(&iset("c")), Some(8));
        assert_eq!(f.support(&iset("ac")), Some(5));
        assert_eq!(f.support(&iset("bc")), Some(5));
        assert_eq!(f.support(&iset("a")), Some(5));
        assert_eq!(f.support(&iset("b")), Some(5));
        assert_eq!(f.support(&iset("d")), Some(4));
        // abc has support 3 < 4: correctly absent.
        assert!(f.support(&iset("abc")).is_none());
    }

    #[test]
    fn exhaustive_against_brute_force() {
        let db = fig2_window(12);
        let f = Apriori::new(2).mine(&db);
        // Brute force over all itemsets of the alphabet.
        let alphabet = db.alphabet();
        let n = alphabet.len();
        let mut expected = 0;
        for mask in 1u32..(1 << n) {
            let cand = alphabet.subset_by_mask(mask);
            let support = db.support(&cand);
            if support >= 2 {
                expected += 1;
                assert_eq!(f.support(&cand), Some(support), "wrong support for {cand}");
            } else {
                assert!(f.support(&cand).is_none(), "{cand} should be infrequent");
            }
        }
        assert_eq!(f.len(), expected);
    }

    #[test]
    fn empty_database_yields_nothing() {
        let f = Apriori::new(1).mine(&Database::new());
        assert!(f.is_empty());
    }

    #[test]
    fn min_support_above_db_size_yields_nothing() {
        let db = fig2_window(12);
        assert!(Apriori::new(9).mine(&db).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_min_support_rejected() {
        Apriori::new(0);
    }
}
