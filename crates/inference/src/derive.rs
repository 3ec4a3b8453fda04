//! Deriving pattern support by inclusion–exclusion (§IV-A).

use crate::lattice::Lattice;
use bfly_common::{ItemSet, ItemsetId, Pattern, Result};
use std::collections::HashMap;

/// A view of published supports the adversary works from. Implemented for
/// maps keyed by [`ItemSet`] or by shared [`ItemsetId`] (exact or
/// sanitized); `bfly-mining`'s result type plugs in via its map accessor.
pub trait SupportView {
    /// The published support of `itemset`, if it was published.
    fn get(&self, itemset: &ItemSet) -> Option<f64>;
}

impl SupportView for HashMap<ItemSet, u64> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        HashMap::get(self, itemset).map(|&v| v as f64)
    }
}

impl SupportView for HashMap<ItemSet, i64> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        HashMap::get(self, itemset).map(|&v| v as f64)
    }
}

impl SupportView for HashMap<ItemSet, f64> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        HashMap::get(self, itemset).copied()
    }
}

impl SupportView for HashMap<ItemsetId, u64> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        HashMap::get(self, itemset).map(|&v| v as f64)
    }
}

impl SupportView for HashMap<ItemsetId, i64> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        HashMap::get(self, itemset).map(|&v| v as f64)
    }
}

impl SupportView for HashMap<ItemsetId, f64> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        HashMap::get(self, itemset).copied()
    }
}

impl<V: SupportView> SupportView for &V {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        (*self).get(itemset)
    }
}

/// Derive `T(p)` for the pattern `p = I(J\I)̄` by inclusion–exclusion:
///
/// `T(p) = Σ_{X ∈ X_I^J} (−1)^{|X\I|} T(X)`.
///
/// Returns `None` when any lattice member's support is missing from the
/// view — the adversary cannot complete the sum (she may still resort to
/// [`crate::bounds::support_bounds`] to fill gaps first).
///
/// Over an exact view this yields the exact (integral, non-negative) pattern
/// support; over a perturbed view it yields the adversary's linear estimate,
/// whose variance is the sum of the member variances (Lemma 1's best guess).
///
/// ```
/// use bfly_common::fixtures::fig2_window;
/// use bfly_inference::derive::derive_pattern_support;
/// use bfly_mining::Apriori;
///
/// // The paper's Example 3: published supports of Ds(12,8) derive the
/// // hidden pattern c¬a¬b to support 1.
/// let released = Apriori::new(3).mine(&fig2_window(12));
/// let derived = derive_pattern_support(
///     released.as_map(),
///     &"c".parse().unwrap(),
///     &"abc".parse().unwrap(),
/// ).unwrap();
/// assert_eq!(derived, Some(1));
/// ```
pub fn derive_pattern_support_f64<V: SupportView>(
    view: &V,
    base: &ItemSet,
    full: &ItemSet,
) -> Result<Option<f64>> {
    let lattice = Lattice::new(base, full)?;
    let mut total = 0.0;
    for (member, dist) in lattice.members() {
        match view.get(&member) {
            Some(support) => {
                if dist % 2 == 0 {
                    total += support;
                } else {
                    total -= support;
                }
            }
            None => return Ok(None),
        }
    }
    Ok(Some(total))
}

/// Exact-arithmetic variant for unperturbed integer supports: derives the
/// pattern support as an `i64` (always ≥ 0 when the view is consistent with
/// a real database). Takes the view a mining result exposes via
/// `as_map()`.
pub fn derive_pattern_support(
    view: &HashMap<ItemsetId, u64>,
    base: &ItemSet,
    full: &ItemSet,
) -> Result<Option<i64>> {
    let lattice = Lattice::new(base, full)?;
    let mut total = 0i64;
    for (member, dist) in lattice.members() {
        match view.get(&member) {
            Some(&support) => {
                let signed = support as i64;
                if dist % 2 == 0 {
                    total += signed;
                } else {
                    total -= signed;
                }
            }
            None => return Ok(None),
        }
    }
    Ok(Some(total))
}

/// The pattern a `(base, full)` derivation uncovers, for reporting.
pub fn derived_pattern(base: &ItemSet, full: &ItemSet) -> Result<Pattern> {
    Pattern::from_lattice(base, full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::fig2_window;
    use bfly_common::Database;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn view_of(db: &Database, sets: &[&str]) -> HashMap<ItemsetId, u64> {
        sets.iter()
            .map(|s| {
                let i: ItemSet = s.parse().unwrap();
                let sup = db.support(&i);
                (ItemsetId::new(i), sup)
            })
            .collect()
    }

    #[test]
    fn example3_derives_support_one() {
        // Example 3: lattice X_c^{abc} over Ds(12,8) derives T(c¬a¬b) = 1.
        let db = fig2_window(12);
        let view = view_of(&db, &["c", "ac", "bc", "abc"]);
        let derived = derive_pattern_support(&view, &iset("c"), &iset("abc"))
            .unwrap()
            .expect("lattice complete");
        assert_eq!(derived, 1);
        // And it matches ground truth.
        let p = derived_pattern(&iset("c"), &iset("abc")).unwrap();
        assert_eq!(db.pattern_support(&p), 1);
    }

    #[test]
    fn derivation_matches_ground_truth_everywhere() {
        let db = fig2_window(12);
        let alphabet = db.alphabet();
        let n = alphabet.len() as u32;
        // Full view of every itemset.
        let mut view = HashMap::new();
        for mask in 1u32..(1 << n) {
            let x = alphabet.subset_by_mask(mask);
            let sup = db.support(&x);
            view.insert(ItemsetId::new(x), sup);
        }
        for full_mask in 1u32..(1 << n) {
            let full = alphabet.subset_by_mask(full_mask);
            for base in full.proper_subsets() {
                let derived = derive_pattern_support(&view, &base, &full)
                    .unwrap()
                    .unwrap();
                let p = derived_pattern(&base, &full).unwrap();
                assert_eq!(
                    derived,
                    db.pattern_support(&p) as i64,
                    "pattern {p} mis-derived"
                );
            }
        }
    }

    #[test]
    fn incomplete_lattice_returns_none() {
        let db = fig2_window(12);
        let view = view_of(&db, &["c", "ac", "bc"]); // abc withheld
        assert_eq!(
            derive_pattern_support(&view, &iset("c"), &iset("abc")).unwrap(),
            None
        );
    }

    #[test]
    fn float_view_derivation() {
        let mut view: HashMap<ItemSet, f64> = HashMap::new();
        view.insert(iset("c"), 8.3);
        view.insert(iset("ac"), 5.1);
        view.insert(iset("bc"), 4.9);
        view.insert(iset("abc"), 3.0);
        let est = derive_pattern_support_f64(&view, &iset("c"), &iset("abc"))
            .unwrap()
            .unwrap();
        assert!((est - (8.3 - 5.1 - 4.9 + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn invalid_lattice_is_error() {
        let view: HashMap<ItemsetId, u64> = HashMap::new();
        assert!(derive_pattern_support(&view, &iset("d"), &iset("abc")).is_err());
    }
}
