//! Eclat (Zaki, 2000): depth-first frequent-itemset mining over vertical
//! tidsets — the crate's one batch miner. Every static database the shipped
//! code mines goes through it, and re-mining the window with it is the
//! oracle Moment is tested against; Apriori is the reference it is held to.

use crate::result::FrequentItemsets;
use bfly_common::{Database, Item, ItemSet, Support, TidBitmap, VerticalIndex};

/// Eclat miner: equivalence-class decomposition with tidset intersection.
///
/// The database is transposed once into per-item [`TidBitmap`]s; the search
/// then extends prefixes depth-first, computing each candidate's support as
/// a word-level AND + popcount — no further database scans, and no
/// allocation inside the recursion (one scratch bitmap per search depth,
/// allocated up front).
#[derive(Clone, Copy, Debug)]
pub struct Eclat {
    min_support: Support,
}

impl Eclat {
    /// Create a miner with absolute minimum support `C`.
    ///
    /// # Panics
    /// If `min_support == 0`.
    pub fn new(min_support: Support) -> Self {
        assert!(min_support > 0, "min_support must be positive");
        Eclat { min_support }
    }

    /// The configured minimum support.
    pub fn min_support(&self) -> Support {
        self.min_support
    }

    /// Mine all frequent itemsets of `db`.
    pub fn mine(&self, db: &Database) -> FrequentItemsets {
        // Transpose once into the vertical index, keep the frequent atoms.
        let index = VerticalIndex::of_database(db);
        let atoms: Vec<(Item, TidBitmap)> = index
            .live_items()
            .into_iter()
            .filter_map(|item| {
                let bits = index.item_bits(item)?;
                (bits.count() as Support >= self.min_support).then(|| (item, bits.clone()))
            })
            .collect();

        // One scratch bitmap per possible search depth: the prefix can grow
        // by at most one atom per level, so `atoms.len()` buffers cover the
        // deepest branch and the recursion never allocates.
        let mut bufs = vec![TidBitmap::new(index.capacity()); atoms.len()];

        let mut out: Vec<(ItemSet, Support)> = Vec::new();
        for (idx, (item, tids)) in atoms.iter().enumerate() {
            let prefix = ItemSet::singleton(*item);
            out.push((prefix.clone(), tids.count() as Support));
            self.extend(&prefix, tids, &atoms[idx + 1..], &mut bufs, &mut out);
        }
        FrequentItemsets::new(out)
    }

    /// Depth-first extension of `prefix` (with tid bitmap `tids`) by each
    /// remaining atom; `bufs` holds one scratch bitmap per remaining depth.
    fn extend(
        &self,
        prefix: &ItemSet,
        tids: &TidBitmap,
        rest: &[(Item, TidBitmap)],
        bufs: &mut [TidBitmap],
        out: &mut Vec<(ItemSet, Support)>,
    ) {
        if rest.is_empty() {
            return;
        }
        let (buf, deeper) = bufs
            .split_first_mut()
            .expect("one scratch bitmap per depth");
        for (idx, (item, item_tids)) in rest.iter().enumerate() {
            buf.assign_and(tids, item_tids);
            let support = buf.count() as Support;
            if support >= self.min_support {
                let extended = prefix.with(*item);
                out.push((extended.clone(), support));
                self.extend(&extended, buf, &rest[idx + 1..], deeper, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use bfly_common::fixtures::fig2_window;
    use bfly_datagen::{QuestConfig, QuestGenerator};

    #[test]
    fn agrees_with_apriori_on_fig2() {
        let db = fig2_window(12);
        for c in [1u64, 2, 3, 4, 8] {
            assert_eq!(
                Eclat::new(c).mine(&db),
                Apriori::new(c).mine(&db),
                "mismatch at C={c}"
            );
        }
    }

    #[test]
    fn agrees_with_apriori_on_synthetic_data() {
        let cfg = QuestConfig {
            n_items: 40,
            n_patterns: 12,
            avg_pattern_len: 3.0,
            avg_transaction_len: 6.0,
            max_transaction_len: 14,
            ..QuestConfig::default()
        };
        for seed in 0..4u64 {
            let db = Database::from_records(QuestGenerator::new(cfg.clone(), seed).generate(300));
            for c in [6u64, 20] {
                assert_eq!(
                    Eclat::new(c).mine(&db),
                    Apriori::new(c).mine(&db),
                    "mismatch seed={seed} C={c}"
                );
            }
        }
    }

    #[test]
    fn empty_database() {
        assert!(Eclat::new(1).mine(&Database::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_min_support_rejected() {
        Eclat::new(0);
    }
}
