//! The aggregation lattice `X_I^J = { X : I ⊆ X ⊆ J }` (§IV-A, Fig. 3).

use bfly_common::{Error, ItemSet, Result};

/// The lattice between a base itemset `I` and a full itemset `J ⊇ I`.
/// Enumeration order is deterministic: by the bitmask of `J\I` members, so
/// `I` first and `J` last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lattice {
    base: ItemSet,
    diff: ItemSet,
}

impl Lattice {
    /// Build `X_I^J`.
    ///
    /// # Errors
    /// [`Error::NotSubset`] unless `I ⊆ J`; also rejects `|J\I| > 20`
    /// (2^20 nodes — beyond anything the attacks enumerate).
    pub fn new(base: &ItemSet, full: &ItemSet) -> Result<Self> {
        if !base.is_subset_of(full) {
            return Err(Error::NotSubset);
        }
        let diff = full.difference(base);
        if diff.len() > 20 {
            return Err(Error::Parse(format!(
                "lattice J\\I of {} items is too large",
                diff.len()
            )));
        }
        Ok(Lattice {
            base: base.clone(),
            diff,
        })
    }

    /// The base itemset `I`.
    pub fn base(&self) -> &ItemSet {
        &self.base
    }

    /// The full itemset `J`.
    pub fn full(&self) -> ItemSet {
        self.base.union(&self.diff)
    }

    /// `|J \ I|` — the lattice's height.
    pub fn height(&self) -> usize {
        self.diff.len()
    }

    /// Number of lattice members, `2^{|J\I|}`.
    pub fn len(&self) -> usize {
        1 << self.diff.len()
    }

    /// True only for the degenerate lattice `I = J` (a single node).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate `(X, |X \ I|)` over all members.
    pub fn members(&self) -> impl Iterator<Item = (ItemSet, usize)> + '_ {
        (0..self.len() as u32).map(move |mask| {
            let extra = self.diff.subset_by_mask(mask);
            (self.base.union(&extra), extra.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn fig3_lattice_c_abc() {
        let lat = Lattice::new(&iset("c"), &iset("abc")).unwrap();
        assert_eq!(lat.height(), 2);
        assert_eq!(lat.len(), 4);
        let members: Vec<ItemSet> = lat.members().map(|(x, _)| x).collect();
        assert!(members.contains(&iset("c")));
        assert!(members.contains(&iset("ac")));
        assert!(members.contains(&iset("bc")));
        assert!(members.contains(&iset("abc")));
        assert_eq!(lat.full(), iset("abc"));
    }

    #[test]
    fn parity_tracks_distance_from_base() {
        let lat = Lattice::new(&iset("c"), &iset("abc")).unwrap();
        for (x, d) in lat.members() {
            assert_eq!(d, x.len() - 1, "distance wrong for {x}");
        }
    }

    #[test]
    fn degenerate_lattice_is_single_node() {
        let lat = Lattice::new(&iset("ab"), &iset("ab")).unwrap();
        assert_eq!(lat.len(), 1);
        assert_eq!(lat.height(), 0);
        let members: Vec<_> = lat.members().collect();
        assert_eq!(members, vec![(iset("ab"), 0)]);
    }

    #[test]
    fn rejects_non_subset() {
        assert!(Lattice::new(&iset("ad"), &iset("abc")).is_err());
    }

    #[test]
    fn rejects_oversized() {
        let big = ItemSet::from_ids(0..25);
        assert!(Lattice::new(&ItemSet::empty(), &big).is_err());
    }
}
