//! Miner output vocabulary.
//!
//! Entries carry interned [`ItemsetId`] handles rather than owned
//! `ItemSet`s: a mining pass interns each result once, and every
//! downstream layer (FEC partitioning, the publisher's republication
//! cache, attack views) passes the copyable id instead of cloning the
//! itemset.

use bfly_common::{ItemSet, ItemsetId, Support};
use std::collections::HashMap;
use std::fmt;

/// One mined itemset with its exact support in the mined window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrequentItemset {
    /// Interned handle to the itemset.
    pub id: ItemsetId,
    /// Its support `T(X)` in the mined database/window.
    pub support: Support,
}

impl FrequentItemset {
    /// The itemset behind the handle.
    pub fn itemset(&self) -> &'static ItemSet {
        self.id.resolve()
    }
}

/// The complete output of a mining pass: itemsets with supports, in a
/// canonical order (descending support, then lexicographic itemset) so that
/// two miners producing the same logical result compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrequentItemsets {
    entries: Vec<FrequentItemset>,
    index: HashMap<ItemsetId, Support>,
}

impl FrequentItemsets {
    /// Build from (itemset, support) pairs; interns each itemset and
    /// canonicalizes order.
    ///
    /// # Panics
    /// If the same itemset appears twice — a miner bug worth failing fast on.
    pub fn new<I: IntoIterator<Item = (ItemSet, Support)>>(pairs: I) -> Self {
        Self::from_ids(
            pairs
                .into_iter()
                .map(|(itemset, support)| (ItemsetId::intern(&itemset), support)),
        )
    }

    /// Build from already-interned (id, support) pairs; canonicalizes order.
    ///
    /// # Panics
    /// If the same id appears twice.
    pub fn from_ids<I: IntoIterator<Item = (ItemsetId, Support)>>(pairs: I) -> Self {
        let mut entries: Vec<FrequentItemset> = pairs
            .into_iter()
            .map(|(id, support)| FrequentItemset { id, support })
            .collect();
        entries.sort_unstable_by(|a, b| {
            b.support
                .cmp(&a.support)
                .then_with(|| a.itemset().cmp(b.itemset()))
        });
        let mut index = HashMap::with_capacity(entries.len());
        for e in &entries {
            let prev = index.insert(e.id, e.support);
            assert!(
                prev.is_none(),
                "duplicate itemset {} in miner output",
                e.itemset()
            );
        }
        FrequentItemsets { entries, index }
    }

    /// Number of itemsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no itemset was mined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &FrequentItemset> {
        self.entries.iter()
    }

    /// Entries as a slice.
    pub fn entries(&self) -> &[FrequentItemset] {
        &self.entries
    }

    /// Support lookup for a specific itemset (by value).
    pub fn support(&self, itemset: &ItemSet) -> Option<Support> {
        ItemsetId::get(itemset).and_then(|id| self.index.get(&id).copied())
    }

    /// Does the output contain this exact itemset?
    pub fn contains(&self, itemset: &ItemSet) -> bool {
        self.support(itemset).is_some()
    }

    /// The support map (interned id → support).
    pub fn as_map(&self) -> &HashMap<ItemsetId, Support> {
        &self.index
    }

    /// Keep only entries with `support >= min_support`.
    pub fn filter_min_support(&self, min_support: Support) -> FrequentItemsets {
        FrequentItemsets::from_ids(
            self.entries
                .iter()
                .filter(|e| e.support >= min_support)
                .map(|e| (e.id, e.support)),
        )
    }

    /// The maximum itemset size present.
    pub fn max_len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.itemset().len())
            .max()
            .unwrap_or(0)
    }
}

impl FromIterator<(ItemSet, Support)> for FrequentItemsets {
    fn from_iter<T: IntoIterator<Item = (ItemSet, Support)>>(iter: T) -> Self {
        FrequentItemsets::new(iter)
    }
}

impl fmt::Display for FrequentItemsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{} ({})", e.itemset(), e.support)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_order_is_support_desc_then_lex() {
        let f = FrequentItemsets::new(vec![(iset("b"), 3), (iset("a"), 5), (iset("ab"), 3)]);
        let order: Vec<&ItemSet> = f.iter().map(|e| e.itemset()).collect();
        assert_eq!(order, vec![&iset("a"), &iset("ab"), &iset("b")]);
    }

    #[test]
    fn lookup_and_filter() {
        let f = FrequentItemsets::new(vec![(iset("a"), 5), (iset("b"), 2)]);
        assert_eq!(f.support(&iset("a")), Some(5));
        assert_eq!(f.support(&ItemSet::from_ids([7_654_321])), None);
        assert!(f.contains(&iset("b")));
        let g = f.filter_min_support(3);
        assert_eq!(g.len(), 1);
        assert!(g.contains(&iset("a")));
    }

    #[test]
    fn id_lookup_matches_value_lookup() {
        let f = FrequentItemsets::new(vec![(iset("ab"), 4)]);
        let id = ItemsetId::get(&iset("ab")).expect("interned by the constructor");
        assert_eq!(f.as_map().get(&id), Some(&4));
        assert_eq!(f.entries()[0].id, id);
    }

    #[test]
    #[should_panic(expected = "duplicate itemset")]
    fn duplicates_rejected() {
        FrequentItemsets::new(vec![(iset("a"), 5), (iset("a"), 4)]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let f = FrequentItemsets::new(vec![(iset("a"), 1), (iset("b"), 2)]);
        let g = FrequentItemsets::new(vec![(iset("b"), 2), (iset("a"), 1)]);
        assert_eq!(f, g);
    }

    #[test]
    fn display_lists_entries() {
        let f = FrequentItemsets::new(vec![(iset("ab"), 4)]);
        assert_eq!(f.to_string(), "ab (4)\n");
        assert_eq!(f.max_len(), 2);
    }
}
