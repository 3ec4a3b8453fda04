//! Miner output vocabulary.
//!
//! Entries carry shared [`ItemsetId`]s (`Arc<ItemSet>`): the miner hands
//! out one `Arc` per itemset (Moment keeps one per closed node for the
//! node's life), and every downstream layer (FEC partitioning, the stream's
//! publication history, release deltas, attack views) clones the `Arc`
//! instead of the itemset. An itemset lives exactly as long as the last
//! miner node, result, release, history or view holding it.
//!
//! The support index by itemset is built on the first lookup: the live
//! publication path reads only [`FrequentItemsets::entries`], and the
//! offline tools and `suppress` that look itemsets up pay for it once.

use bfly_common::hash::Fnv1a;
use bfly_common::{Item, ItemSet, ItemsetId, Support};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// One mined itemset with its exact support in the mined window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The shared itemset.
    pub id: ItemsetId,
    /// Its support `T(X)` in the mined database/window.
    pub support: Support,
}

impl FrequentItemset {
    /// The itemset.
    pub fn itemset(&self) -> &ItemSet {
        &self.id
    }
}

/// The complete output of a mining pass: itemsets with supports, in a
/// canonical order (descending support, then lexicographic itemset) so that
/// two miners producing the same logical result compare equal.
#[derive(Clone, Debug, Default)]
pub struct FrequentItemsets {
    entries: Vec<FrequentItemset>,
    /// Itemset → support, built on the first lookup.
    index: OnceLock<HashMap<ItemsetId, Support>>,
}

impl PartialEq for FrequentItemsets {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for FrequentItemsets {}

impl FrequentItemsets {
    /// Build from (itemset, support) pairs; shares each itemset (no copy)
    /// and canonicalizes order.
    ///
    /// # Panics
    /// If the same itemset appears twice — a miner bug worth failing fast on.
    pub fn new<I: IntoIterator<Item = (ItemSet, Support)>>(pairs: I) -> Self {
        Self::from_ids(
            pairs
                .into_iter()
                .map(|(itemset, support)| (ItemsetId::new(itemset), support)),
        )
    }

    /// Build from already-shared (id, support) pairs; canonicalizes order.
    ///
    /// # Panics
    /// If the same itemset appears twice, in every build.
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
        assert_distinct(entries.iter().map(|e| e.itemset().items()));
        FrequentItemsets::canonical(entries)
    }

    /// Wrap entries a miner already put in canonical order and checked for
    /// duplicates.
    pub(crate) fn canonical(entries: Vec<FrequentItemset>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| {
                let (a, b) = (&w[0], &w[1]);
                (b.support, a.itemset()) < (a.support, b.itemset())
            }),
            "entries out of canonical order"
        );
        FrequentItemsets {
            entries,
            index: OnceLock::new(),
        }
    }

    /// Number of itemsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no itemset was mined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in canonical order, by value (one `Arc` clone each); read
    /// [`FrequentItemsets::entries`] to borrow them.
    pub fn iter(&self) -> impl Iterator<Item = FrequentItemset> + '_ {
        self.entries.iter().cloned()
    }

    /// Entries as a slice.
    pub fn entries(&self) -> &[FrequentItemset] {
        &self.entries
    }

    /// Support lookup for a specific itemset (by value).
    pub fn support(&self, itemset: &ItemSet) -> Option<Support> {
        self.as_map().get(itemset).copied()
    }

    /// The support map (itemset → support), built on the first call.
    pub fn as_map(&self) -> &HashMap<ItemsetId, Support> {
        self.index.get_or_init(|| {
            (self.entries.iter())
                .map(|e| (e.id.clone(), e.support))
                .collect()
        })
    }
}

/// Panic if two of `itemsets` are equal: a miner bug worth failing fast on,
/// in every build. Each itemset is reduced to a 64-bit fingerprint and the
/// fingerprints are sorted, which costs less than a hash index; only equal
/// fingerprints (a duplicate, or a collision an adversary may force) fall
/// back to a set of the itemsets themselves.
pub(crate) fn assert_distinct<'a>(itemsets: impl ExactSizeIterator<Item = &'a [Item]> + Clone) {
    distinct_by(itemsets, fingerprint);
}

fn distinct_by<'a>(
    itemsets: impl ExactSizeIterator<Item = &'a [Item]> + Clone,
    print: impl Fn(&[Item]) -> u64,
) {
    let mut prints: Vec<u64> = itemsets.clone().map(print).collect();
    prints.sort_unstable();
    if prints.windows(2).all(|pair| pair[0] != pair[1]) {
        return;
    }
    let mut seen = HashSet::with_capacity(itemsets.len());
    for items in itemsets {
        assert!(
            seen.insert(items),
            "duplicate itemset {} in miner output",
            ItemSet::new(items.iter().copied())
        );
    }
}

/// The FNV-1a hash of the item ids (the one PrivBasis seeds its noise
/// with): cheap, and equal for equal itemsets, which is all
/// [`assert_distinct`] asks of it.
fn fingerprint(items: &[Item]) -> u64 {
    let mut h = Fnv1a::new();
    for item in items {
        h.write(&item.id().to_le_bytes());
    }
    h.finish()
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
        let order: Vec<&ItemSet> = f.entries().iter().map(|e| e.itemset()).collect();
        assert_eq!(order, vec![&iset("a"), &iset("ab"), &iset("b")]);
    }

    #[test]
    fn lookup() {
        let f = FrequentItemsets::new(vec![(iset("a"), 5), (iset("b"), 2)]);
        assert_eq!(f.support(&iset("a")), Some(5));
        assert_eq!(f.support(&ItemSet::from_ids([7_654_321])), None);
        assert_eq!(f.as_map().len(), 2);
    }

    #[test]
    fn map_lookup_matches_value_lookup() {
        let f = FrequentItemsets::new(vec![(iset("ab"), 4)]);
        assert_eq!(f.as_map().get(&iset("ab")), Some(&4));
        assert_eq!(*f.entries()[0].id, iset("ab"));
    }

    #[test]
    #[should_panic(expected = "duplicate itemset")]
    fn duplicates_rejected() {
        FrequentItemsets::new(vec![(iset("a"), 5), (iset("a"), 4)]);
    }

    #[test]
    #[should_panic(expected = "duplicate itemset ab")]
    fn duplicates_rejected_across_supports_among_many() {
        let mut pairs: Vec<(ItemSet, Support)> = (0..200)
            .map(|i| (ItemSet::from_ids([i, i + 1000]), 30 + u64::from(i % 7)))
            .collect();
        pairs.push((iset("ab"), 90));
        pairs.push((iset("ab"), 31));
        FrequentItemsets::new(pairs);
    }

    #[test]
    fn equal_fingerprints_fall_back_to_the_itemsets() {
        // Every fingerprint colliding: distinct itemsets pass, and a
        // duplicate is still named.
        let f = FrequentItemsets::new(vec![(iset("a"), 5), (iset("b"), 5), (iset("ab"), 3)]);
        fn items(e: &FrequentItemset) -> &[Item] {
            e.itemset().items()
        }
        distinct_by(f.entries().iter().map(items), |_| 0);
        let dup = [f.entries()[0].clone(), f.entries()[0].clone()];
        let caught = std::panic::catch_unwind(|| distinct_by(dup.iter().map(items), |_| 0));
        assert!(caught.is_err());
    }

    #[test]
    fn the_index_is_built_on_first_lookup_and_equality_ignores_it() {
        let f = FrequentItemsets::new(vec![(iset("a"), 5), (iset("b"), 2)]);
        let g = f.clone();
        assert_eq!(f.support(&iset("b")), Some(2));
        assert!(f.index.get().is_some() && g.index.get().is_none());
        assert_eq!(f, g);
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
    }
}
