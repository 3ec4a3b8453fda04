//! Sorted itemsets and their algebra.

use crate::{Error, Item, Result};
use std::fmt;

/// An itemset `I ⊆ 𝕀`: a set of items kept as a strictly-sorted vector.
///
/// The sorted representation makes the operations the miners and the
/// inference engine live on — subset test, union, difference, intersection —
/// linear-time merges with no hashing, and gives itemsets a total order
/// (lexicographic on ids) for free, which the lattice code uses to enumerate
/// `X_I^J` deterministically.
///
/// ```
/// use bfly_common::ItemSet;
///
/// let ab: ItemSet = "ab".parse().unwrap();
/// let bc = ItemSet::from_ids([1, 2]);
/// assert_eq!(ab.union(&bc).to_string(), "abc");
/// assert_eq!(ab.intersection(&bc).to_string(), "b");
/// assert!(ab.is_subset_of(&"abc".parse().unwrap()));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemSet(Vec<Item>);

impl ItemSet {
    /// The empty itemset.
    pub const fn empty() -> Self {
        ItemSet(Vec::new())
    }

    /// Build from any iterable of items; sorts and deduplicates.
    pub fn new<I: IntoIterator<Item = Item>>(items: I) -> Self {
        let mut v: Vec<Item> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ItemSet(v)
    }

    /// Build from raw ids; sorts and deduplicates.
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::new(ids.into_iter().map(Item))
    }

    /// Build from a vector that the caller promises is strictly sorted.
    ///
    /// # Errors
    /// Returns [`Error::Unsorted`] if the promise is broken, so corrupted
    /// miner internals surface immediately instead of as wrong supports.
    pub fn from_sorted(v: Vec<Item>) -> Result<Self> {
        if v.windows(2).all(|w| w[0] < w[1]) {
            Ok(ItemSet(v))
        } else {
            Err(Error::Unsorted)
        }
    }

    /// Single-item itemset.
    pub fn singleton(item: Item) -> Self {
        ItemSet(vec![item])
    }

    /// Number of items, `|I|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when this is the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Items in ascending order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.0
    }

    /// Iterate items in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.0.iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Subset test `self ⊆ other` via a linear merge.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        is_sorted_subset(&self.0, &other.0)
    }

    /// Proper-subset test `self ⊂ other`.
    pub fn is_proper_subset_of(&self, other: &ItemSet) -> bool {
        self.0.len() < other.0.len() && self.is_subset_of(other)
    }

    /// Union `self ∪ other` (written `IJ` in the paper).
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        ItemSet(out)
    }

    /// Difference `self \ other`.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        ItemSet(
            self.0
                .iter()
                .copied()
                .filter(|it| !other.contains(*it))
                .collect(),
        )
    }

    /// Intersection `self ∩ other`.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ItemSet(out)
    }

    /// `self ∪ {item}`.
    pub fn with(&self, item: Item) -> ItemSet {
        match self.0.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = self.0.clone();
                v.insert(pos, item);
                ItemSet(v)
            }
        }
    }

    /// `self \ {item}`.
    pub fn without(&self, item: Item) -> ItemSet {
        match self.0.binary_search(&item) {
            Ok(pos) => {
                let mut v = self.0.clone();
                v.remove(pos);
                ItemSet(v)
            }
            Err(_) => self.clone(),
        }
    }

    /// All non-empty proper subsets, in lexicographic order of their
    /// characteristic bitmask. Exponential — callers guard on `len()`.
    pub fn proper_subsets(&self) -> Vec<ItemSet> {
        let n = self.0.len();
        assert!(n <= 20, "proper_subsets on an itemset of {n} items");
        let mut out = Vec::with_capacity((1usize << n).saturating_sub(2));
        for mask in 1..((1u32 << n) - 1) {
            out.push(self.subset_by_mask(mask));
        }
        out
    }

    /// The subset selected by `mask` over this itemset's sorted positions.
    pub fn subset_by_mask(&self, mask: u32) -> ItemSet {
        ItemSet(
            self.0
                .iter()
                .enumerate()
                .filter(|(pos, _)| mask & (1 << pos) != 0)
                .map(|(_, it)| *it)
                .collect(),
        )
    }

    /// All immediate sub-itemsets (`self` minus one item).
    pub fn immediate_subsets(&self) -> impl Iterator<Item = ItemSet> + '_ {
        self.0.iter().map(move |it| self.without(*it))
    }
}

/// True iff sorted slice `a` is a subset of sorted slice `b`.
pub(crate) fn is_sorted_subset(a: &[Item], b: &[Item]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    'outer: for &x in a {
        while j < b.len() {
            match b[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        ItemSet::new(iter)
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "∅");
        }
        for (idx, item) in self.0.iter().enumerate() {
            if idx > 0 && (item.0 >= 26 || self.0[idx - 1].0 >= 26) {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

/// Parse the compact display form, e.g. `"abc"` or `"i26 i30"`.
impl std::str::FromStr for ItemSet {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        if s == "∅" || s.is_empty() {
            return Ok(ItemSet::empty());
        }
        let mut items = Vec::new();
        if s.contains(' ') {
            for tok in s.split_whitespace() {
                items.push(tok.parse::<Item>()?);
            }
        } else {
            for ch in s.chars() {
                items.push(ch.to_string().parse::<Item>()?);
            }
        }
        Ok(ItemSet::new(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn new_sorts_and_dedups() {
        let i = ItemSet::from_ids([3, 1, 2, 1, 3]);
        assert_eq!(i.items(), &[Item(1), Item(2), Item(3)]);
    }

    #[test]
    fn from_sorted_rejects_unsorted_and_dup() {
        assert!(ItemSet::from_sorted(vec![Item(1), Item(3)]).is_ok());
        assert!(ItemSet::from_sorted(vec![Item(3), Item(1)]).is_err());
        assert!(ItemSet::from_sorted(vec![Item(1), Item(1)]).is_err());
    }

    #[test]
    fn subset_relations() {
        assert!(iset("ab").is_subset_of(&iset("abc")));
        assert!(iset("ab").is_proper_subset_of(&iset("abc")));
        assert!(!iset("abc").is_proper_subset_of(&iset("abc")));
        assert!(iset("abc").is_subset_of(&iset("abc")));
        assert!(!iset("ad").is_subset_of(&iset("abc")));
        assert!(ItemSet::empty().is_subset_of(&iset("a")));
    }

    #[test]
    fn union_difference_intersection() {
        assert_eq!(iset("ac").union(&iset("bc")), iset("abc"));
        assert_eq!(iset("abc").difference(&iset("b")), iset("ac"));
        assert_eq!(iset("abc").intersection(&iset("bcd")), iset("bc"));
        assert_eq!(iset("abc").difference(&iset("abc")), ItemSet::empty());
    }

    #[test]
    fn with_without() {
        assert_eq!(iset("ac").with(Item(1)), iset("abc"));
        assert_eq!(iset("ac").with(Item(0)), iset("ac"));
        assert_eq!(iset("abc").without(Item(1)), iset("ac"));
        assert_eq!(iset("ac").without(Item(1)), iset("ac"));
    }

    #[test]
    fn proper_subsets_of_three() {
        let subs = iset("abc").proper_subsets();
        assert_eq!(subs.len(), 6); // 2^3 - 2
        assert!(subs.contains(&iset("a")));
        assert!(subs.contains(&iset("bc")));
        assert!(!subs.contains(&iset("abc")));
        assert!(!subs.contains(&ItemSet::empty()));
    }

    #[test]
    fn immediate_subsets_of_three() {
        let subs: Vec<_> = iset("abc").immediate_subsets().collect();
        assert_eq!(subs, vec![iset("bc"), iset("ac"), iset("ab")]);
    }

    #[test]
    fn display_parse_round_trip() {
        for s in ["abc", "a", "∅"] {
            assert_eq!(iset(s).to_string(), s);
        }
        let big = ItemSet::from_ids([26, 30]);
        assert_eq!(big.to_string(), "i26 i30");
        assert_eq!("i26 i30".parse::<ItemSet>().unwrap(), big);
    }
}
