//! Breach enumeration: the analysis program of §VII-B ("finding all possible
//! vulnerable patterns that can be inferred through either intra-window or
//! inter-window inferences"), built from §IV's two attack techniques.

use crate::bounds::{support_bounds, SupportBounds};
use bfly_common::{ItemSet, ItemsetId, Pattern, Support};
use std::collections::HashMap;

/// How a breach was uncovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreachKind {
    /// Derived from one window's output alone (Example 3).
    IntraWindow,
    /// Required combining consecutive windows' outputs (Example 5).
    InterWindow,
}

/// A hard vulnerable pattern the adversary can pin down exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Breach {
    /// The uncovered pattern `I(J\I)̄`.
    pub pattern: Pattern,
    /// The positive part `I`.
    pub base: ItemSet,
    /// The spanning itemset `J`.
    pub span: ItemSet,
    /// The derived (exact) support, in `1..=K`.
    pub support: Support,
    /// Which inference uncovered it.
    pub kind: BreachKind,
}

/// Largest spanning itemset the enumerators will analyse. Published itemsets
/// at the paper's thresholds are far smaller; bigger spans are skipped (the
/// adversary could analyse them too, at exponential cost).
const MAX_SPAN: usize = 16;

/// Enumerate all intra-window breaches: patterns `p = I(J\I)̄` with derived
/// support in `1..=k`, over every published itemset `J` whose full subset
/// lattice is published (always the case for a complete frequent-itemset
/// release, by the Apriori property).
///
/// Implementation: per spanning itemset `J`, one superset Möbius transform
/// over `J`'s subset lattice computes the derived support of *every* base at
/// once in `O(2^{|J|}·|J|)` — the inclusion–exclusion sums share almost all
/// their terms. Spans are visited in sorted order, so the breach order (and
/// everything downstream) is a pure function of the view, never of `HashMap`
/// iteration order.
pub fn find_intra_window_breaches(view: &HashMap<ItemsetId, Support>, k: Support) -> Vec<Breach> {
    eligible_spans(view)
        .into_iter()
        .flat_map(|span| collect_span_breaches(view, span, k, BreachKind::IntraWindow, None))
        .collect()
}

/// The spanning itemsets of `view` worth analysing, in canonical (sorted)
/// order so enumeration results never depend on hash iteration order.
fn eligible_spans(view: &HashMap<ItemsetId, Support>) -> Vec<&ItemSet> {
    let mut spans: Vec<&ItemSet> = view
        .keys()
        .map(|id| &**id)
        .filter(|s| s.len() >= 2 && s.len() <= MAX_SPAN)
        .collect();
    spans.sort_unstable();
    spans
}

/// Möbius-transform breach collection for one spanning itemset. When
/// `must_use` is given, only patterns whose lattice contains one of those
/// itemsets are reported (used to isolate purely inter-window breaches).
fn collect_span_breaches(
    view: &HashMap<ItemsetId, Support>,
    span: &ItemSet,
    k: Support,
    kind: BreachKind,
    must_use: Option<&HashMap<ItemsetId, Support>>,
) -> Vec<Breach> {
    let mut out = Vec::new();
    let n = span.len();
    let full_mask = (1u32 << n) - 1;
    // Gather the lattice; bail if any subset is unpublished (the empty
    // itemset's "support" |D| is not published, so base masks of 0 are
    // excluded later; the transform still needs f over non-empty masks only
    // because bases are non-empty).
    let mut f = vec![0i64; 1 << n];
    for mask in 1..=full_mask {
        let subset = span.subset_by_mask(mask);
        match view.get(&subset) {
            Some(&s) => f[mask as usize] = s as i64,
            None => return out,
        }
    }
    // Superset Möbius transform: g[m] = Σ_{m ⊆ x} (−1)^{|x\m|} f[x], i.e.
    // the support of the pattern (subset(m))(span\subset(m))̄.
    for bit in 0..n {
        for mask in 0..=full_mask {
            if mask & (1 << bit) == 0 {
                let (lo, hi) = split_mut(&mut f, mask as usize, (mask | (1 << bit)) as usize);
                *lo -= *hi;
            }
        }
    }
    for mask in 1..full_mask {
        let derived = f[mask as usize];
        if derived < 1 || derived as Support > k {
            continue;
        }
        let base = span.subset_by_mask(mask);
        if let Some(required) = must_use {
            // The pattern's inference consumes every lattice member between
            // base and span; it is inter-window-only if one of them is an
            // augmented (not directly published) itemset.
            let uses_augmented = crate::lattice::Lattice::new(&base, span)
                .expect("base ⊂ span")
                .members()
                .any(|(x, _)| required.contains_key(&x));
            if !uses_augmented {
                continue;
            }
        }
        let pattern = Pattern::from_lattice(&base, span).expect("base ⊂ span");
        out.push(Breach {
            pattern,
            base,
            span: span.clone(),
            support: derived as Support,
            kind,
        });
    }
    out
}

/// Disjoint mutable access to two vector slots.
fn split_mut(v: &mut [i64], a: usize, b: usize) -> (&mut i64, &mut i64) {
    debug_assert!(a < b);
    let (left, right) = v.split_at_mut(b);
    (&mut left[a], &mut right[0])
}

/// "Completing missing mosaics": itemsets on the negative border of the
/// released output (a published itemset extended by one published item)
/// whose support the bounds pin down exactly, given that unpublished means
/// `T < C`. Returns the augmented entries.
pub fn complete_negative_border(
    view: &HashMap<ItemsetId, Support>,
    min_support: Support,
) -> HashMap<ItemsetId, Support> {
    let singles: Vec<&ItemSet> = view
        .keys()
        .map(|id| &**id)
        .filter(|i| i.len() == 1)
        .collect();
    let mut augmented = HashMap::new();
    for itemset in view.keys() {
        for single in &singles {
            let item = single.items()[0];
            if itemset.contains(item) {
                continue;
            }
            let candidate = itemset.with(item);
            if candidate.len() > MAX_SPAN {
                continue;
            }
            // A candidate already in either map is settled.
            if view.contains_key(&candidate) || augmented.contains_key(&candidate) {
                continue;
            }
            let Some(b) = support_bounds(view, &candidate) else {
                continue;
            };
            let capped = SupportBounds {
                lower: 0,
                upper: min_support as i64 - 1,
            };
            if let Some(tight) = b.intersect(&capped) {
                if tight.is_tight() && tight.lower >= 0 {
                    augmented.insert(ItemsetId::new(candidate), tight.lower as Support);
                }
            }
        }
    }
    augmented
}

/// Enumerate inter-window breaches against the *current* window: combine
/// the previous window's published supports with the current ones via the
/// slide-transition constraint `|T_curr(X) − T_prev(X)| ≤ slide`, the
/// negative-border constraint `T_curr(X) < C` for unpublished `X`, and the
/// lattice bounds — exactly the two-staged strategy of §IV-C. Only breaches
/// that genuinely need the previous window (i.e. use an augmented support)
/// are reported; intra-window ones are found by
/// [`find_intra_window_breaches`].
pub fn find_inter_window_breaches(
    prev: &HashMap<ItemsetId, Support>,
    curr: &HashMap<ItemsetId, Support>,
    min_support: Support,
    slide: u64,
    k: Support,
) -> Vec<Breach> {
    // Stage 1: pin down supports that dropped out of the current release.
    // Each pin is a pure function of its itemset and the two views, so the
    // augmented map does not depend on `prev`'s iteration order.
    let augmented: HashMap<ItemsetId, Support> = prev
        .iter()
        .filter(|(id, _)| !curr.contains_key(*id) && id.len() <= MAX_SPAN)
        .filter_map(|(id, &prev_support)| {
            let transition = SupportBounds {
                lower: prev_support as i64 - slide as i64,
                upper: prev_support as i64 + slide as i64,
            };
            let unpublished = SupportBounds {
                lower: 0,
                upper: min_support as i64 - 1,
            };
            let mut combined = transition.intersect(&unpublished)?;
            if let Some(lattice_bounds) = support_bounds(curr, id) {
                // An empty intersection is inconsistent (shouldn't happen on
                // real data); treat it as "not pinned".
                combined = combined.intersect(&lattice_bounds)?;
            }
            (combined.is_tight() && combined.lower >= 0)
                .then(|| (id.clone(), combined.lower as Support))
        })
        .collect();
    if augmented.is_empty() {
        return Vec::new();
    }

    // Stage 2: derive vulnerable patterns over the augmented view, keeping
    // only derivations that consume an augmented support.
    let mut full_view = curr.clone();
    full_view.extend(augmented.iter().map(|(i, &s)| (i.clone(), s)));
    eligible_spans(&full_view)
        .into_iter()
        .flat_map(|span| {
            collect_span_breaches(
                &full_view,
                span,
                k,
                BreachKind::InterWindow,
                Some(&augmented),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::fig2_window;
    use bfly_common::Database;
    use bfly_mining::Apriori;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    /// The full frequent output of a window at threshold `c`, as a view.
    fn release(db: &Database, c: Support) -> HashMap<ItemsetId, Support> {
        Apriori::new(c).mine(db).as_map().clone()
    }

    fn view_has(view: &HashMap<ItemsetId, Support>, itemset: &ItemSet) -> bool {
        view.contains_key(itemset)
    }

    #[test]
    fn intra_breach_of_example3() {
        // At C=3 the window Ds(12,8) publishes abc(3); the lattice X_c^{abc}
        // is complete, deriving T(c¬a¬b)=1 ≤ K=1.
        let db = fig2_window(12);
        let view = release(&db, 3);
        let breaches = find_intra_window_breaches(&view, 1);
        let expected: Pattern = "c¬a¬b".parse().unwrap();
        let hit = breaches
            .iter()
            .find(|b| b.pattern == expected)
            .expect("Example 3 breach not found");
        assert_eq!(hit.support, 1);
        assert_eq!(hit.kind, BreachKind::IntraWindow);
        assert_eq!(hit.span, iset("abc"));
    }

    #[test]
    fn intra_breaches_match_ground_truth() {
        let db = fig2_window(12);
        for (c, k) in [(3u64, 1u64), (3, 2), (4, 2), (2, 1)] {
            let view = release(&db, c);
            let breaches = find_intra_window_breaches(&view, k);
            // Every reported breach is correct.
            for b in &breaches {
                assert_eq!(
                    db.pattern_support(&b.pattern),
                    b.support,
                    "wrong derived support for {}",
                    b.pattern
                );
                assert!(b.support >= 1 && b.support <= k);
                assert!(view_has(&view, &b.span));
            }
            // And complete: every vulnerable pattern spanned by a published
            // itemset is found.
            for span in view.keys() {
                if span.len() < 2 {
                    continue;
                }
                for base in span.proper_subsets() {
                    let p = Pattern::from_lattice(&base, span).unwrap();
                    let truth = db.pattern_support(&p);
                    let reported = breaches.iter().any(|b| b.base == base && b.span == **span);
                    assert_eq!(
                        reported,
                        truth >= 1 && truth <= k,
                        "completeness violated for {p} (support {truth}, C={c}, K={k})"
                    );
                }
            }
        }
    }

    #[test]
    fn no_breaches_when_k_zero_support_patterns_only() {
        // A perfectly uniform database has no low-support negated patterns.
        let db = Database::parse(["abc", "abc", "abc", "abc"]);
        let view = release(&db, 2);
        assert!(find_intra_window_breaches(&view, 1).is_empty());
    }

    #[test]
    fn example5_inter_window_breach() {
        // The paper's Example 5 with C=4, K=1: in Ds(12,8) the itemset abc
        // is unpublished and intra-bounds give only [2,5]; combining with
        // Ds(11,8)'s published T(abc)=4 and the slide constraint pins
        // T_12(abc)=3, uncovering c¬a¬b with support 1.
        let prev = release(&fig2_window(11), 4);
        let curr_db = fig2_window(12);
        let curr = release(&curr_db, 4);
        assert_eq!(prev.get(&iset("abc")), Some(&4));
        assert!(!view_has(&curr, &iset("abc")));

        // No intra breach at K=1 in the current window alone.
        assert!(find_intra_window_breaches(&curr, 1).is_empty());

        let inter = find_inter_window_breaches(&prev, &curr, 4, 1, 1);
        let expected: Pattern = "c¬a¬b".parse().unwrap();
        let hit = inter
            .iter()
            .find(|b| b.pattern == expected)
            .expect("Example 5 breach not found");
        assert_eq!(hit.support, 1);
        assert_eq!(hit.kind, BreachKind::InterWindow);
        assert_eq!(curr_db.pattern_support(&hit.pattern), 1);
    }

    #[test]
    fn inter_breaches_are_sound() {
        // Whatever the inter-window engine reports must match ground truth.
        let prev = release(&fig2_window(11), 4);
        let curr_db = fig2_window(12);
        let curr = release(&curr_db, 4);
        for b in find_inter_window_breaches(&prev, &curr, 4, 1, 2) {
            assert_eq!(curr_db.pattern_support(&b.pattern), b.support);
        }
    }

    #[test]
    fn negative_border_completion_is_sound() {
        let db = fig2_window(12);
        let view = release(&db, 4);
        let aug = complete_negative_border(&view, 4);
        for (itemset, support) in &aug {
            assert_eq!(
                db.support(itemset),
                *support,
                "mosaic completion wrong for {itemset}"
            );
            assert!(*support < 4, "completed itemset should be below C");
        }
    }

    #[test]
    fn empty_views_yield_nothing() {
        let empty: HashMap<ItemsetId, Support> = HashMap::new();
        assert!(find_intra_window_breaches(&empty, 5).is_empty());
        assert!(find_inter_window_breaches(&empty, &empty, 5, 1, 5).is_empty());
        assert!(complete_negative_border(&empty, 5).is_empty());
    }
}
