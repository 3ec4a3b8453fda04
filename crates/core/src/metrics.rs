//! The evaluation metrics of §VII-B: `avg_pred`, `avg_prig`, `ropp`, `rrpp`.

use crate::release::SanitizedRelease;
use bfly_common::{ItemSet, ItemsetId, SanitizedSupport, Support};
use bfly_inference::adversary::squared_relative_deviation;
use bfly_inference::attack::Breach;
use bfly_inference::derive::{derive_pattern_support_f64, SupportView};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Per-window metric bundle.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowMetrics {
    /// Mean squared relative support error over published itemsets.
    pub avg_pred: f64,
    /// Mean squared relative estimation error over inferable vulnerable
    /// patterns (`None` when the window exposes no breach to measure).
    pub avg_prig: Option<f64>,
    /// Rate of order-preserved pairs.
    pub ropp: f64,
    /// Rate of (k,1/k) ratio-preserved pairs.
    pub rrpp: f64,
}

/// `avg_pred = Σ (T̃(I) − T(I))² / (T(I)² · |I|)` over the release.
pub fn avg_pred(release: &SanitizedRelease) -> f64 {
    let mut total = 0.0;
    let mut count = 0u64;
    for e in release.iter() {
        let err = e.sanitized as f64 - e.true_support as f64;
        let t = e.true_support as f64;
        total += (err * err) / (t * t);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// A support view that consults `primary` first, then `fallback` — the
/// adversary attacking an inter-window breach completes the lattice with the
/// previous window's sanitized values (her best transition estimate).
pub struct ChainView<'a> {
    primary: &'a HashMap<ItemsetId, SanitizedSupport>,
    fallback: Option<&'a HashMap<ItemsetId, SanitizedSupport>>,
}

impl<'a> ChainView<'a> {
    /// Build a chained view over sanitized views (the shape
    /// [`SanitizedRelease::view`] produces).
    ///
    /// [`SanitizedRelease::view`]: crate::release::SanitizedRelease::view
    pub fn new(
        primary: &'a HashMap<ItemsetId, SanitizedSupport>,
        fallback: Option<&'a HashMap<ItemsetId, SanitizedSupport>>,
    ) -> Self {
        ChainView { primary, fallback }
    }
}

impl SupportView for ChainView<'_> {
    fn get(&self, itemset: &ItemSet) -> Option<f64> {
        self.primary
            .get(itemset)
            .or_else(|| self.fallback.and_then(|f| f.get(itemset)))
            .map(|&v| v as f64)
    }
}

/// `avg_prig`: mean of `(T(p) − T̂(p))²/T(p)²` over the breaches, with the
/// adversary's estimate `T̂(p)` formed by inclusion–exclusion over the
/// sanitized view (current window, falling back to the previous window's
/// sanitized values for inter-window lattice members). Breaches whose
/// lattice the adversary cannot complete even with the fallback count as
/// perfectly protected and are skipped (she has no estimator at all).
pub fn avg_prig(
    breaches: &[Breach],
    current: &HashMap<ItemsetId, SanitizedSupport>,
    previous: Option<&HashMap<ItemsetId, SanitizedSupport>>,
) -> Option<f64> {
    let view = ChainView::new(current, previous);
    let mut total = 0.0;
    let mut count = 0u64;
    for breach in breaches {
        let estimate = derive_pattern_support_f64(&view, &breach.base, &breach.span)
            .expect("breach bases are subsets of their spans");
        if let Some(est) = estimate {
            total += squared_relative_deviation(breach.support, est);
            count += 1;
        }
    }
    (count > 0).then(|| total / count as f64)
}

/// Group the release's entries by `(true support, sanitized value)` — the
/// granularity at which pair preservation is decidable. Pinned republished
/// members can carry a different sanitized value than their FEC's fresh
/// draw, so this is finer than the FEC partition.
fn pair_groups(release: &SanitizedRelease) -> Vec<(Support, SanitizedSupport, u64)> {
    let mut groups: BTreeMap<(Support, SanitizedSupport), u64> = BTreeMap::new();
    for e in release.iter() {
        *groups.entry((e.true_support, e.sanitized)).or_insert(0) += 1;
    }
    groups.into_iter().map(|((t, s), c)| (t, s, c)).collect()
}

/// Rate of order-preserved pairs over all unordered pairs of published
/// itemsets: a pair with `T(I) < T(J)` is preserved when `T̃(I) ≤ T̃(J)`;
/// a tied pair (same FEC) when the sanitized values are also tied.
pub fn ropp(release: &SanitizedRelease) -> f64 {
    let groups = pair_groups(release);
    let n: u64 = groups.iter().map(|&(_, _, c)| c).sum();
    if n < 2 {
        return 1.0;
    }
    let mut preserved = 0u64;
    for (i, &(t_i, s_i, c_i)) in groups.iter().enumerate() {
        // Within-group pairs: identical truth and sanitized value.
        preserved += c_i * (c_i - 1) / 2;
        for &(t_j, s_j, c_j) in &groups[i + 1..] {
            let ok = if t_i == t_j {
                s_i == s_j
            } else if t_i < t_j {
                s_i <= s_j
            } else {
                s_j <= s_i
            };
            if ok {
                preserved += c_i * c_j;
            }
        }
    }
    preserved as f64 / (n * (n - 1) / 2) as f64
}

/// Rate of (k,1/k) ratio-preserved pairs: for `T(I) ≤ T(J)` the pair is
/// preserved when `k·T(I)/T(J) ≤ T̃(I)/T̃(J) ≤ (1/k)·T(I)/T(J)`. Pairs whose
/// sanitized values are non-positive cannot preserve a ratio.
pub fn rrpp(release: &SanitizedRelease, k: f64) -> f64 {
    assert!((0.0..1.0).contains(&k), "k must be in (0,1)");
    let groups = pair_groups(release);
    let n: u64 = groups.iter().map(|&(_, _, c)| c).sum();
    if n < 2 {
        return 1.0;
    }
    let mut preserved = 0u64;
    for (i, &(t_i, s_i, c_i)) in groups.iter().enumerate() {
        // Within-group: sanitized ratio is exactly 1 = true ratio.
        if s_i > 0 {
            preserved += c_i * (c_i - 1) / 2;
        }
        for &(t_j, s_j, c_j) in &groups[i + 1..] {
            if s_i <= 0 || s_j <= 0 {
                continue;
            }
            // Order so that t_lo ≤ t_hi.
            let (t_lo, s_lo, t_hi, s_hi) = if t_i <= t_j {
                (t_i, s_i, t_j, s_j)
            } else {
                (t_j, s_j, t_i, s_i)
            };
            let true_ratio = t_lo as f64 / t_hi as f64;
            let sanitized_ratio = s_lo as f64 / s_hi as f64;
            if k * true_ratio <= sanitized_ratio && sanitized_ratio <= true_ratio / k {
                preserved += c_i * c_j;
            }
        }
    }
    preserved as f64 / (n * (n - 1) / 2) as f64
}

/// Bundle all four metrics for one window.
pub fn window_metrics(
    release: &SanitizedRelease,
    breaches: &[Breach],
    previous_view: Option<&HashMap<ItemsetId, SanitizedSupport>>,
    ratio_k: f64,
) -> WindowMetrics {
    let view = release.view();
    WindowMetrics {
        avg_pred: avg_pred(release),
        avg_prig: avg_prig(breaches, &view, previous_view),
        ropp: ropp(release),
        rrpp: rrpp(release, ratio_k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::SanitizedItemset;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn entry(s: &str, t: Support, sanitized: SanitizedSupport) -> SanitizedItemset {
        SanitizedItemset {
            id: ItemsetId::new(iset(s)),
            true_support: t,
            sanitized,
        }
    }

    #[test]
    fn avg_pred_exact() {
        let r = SanitizedRelease::new(vec![entry("a", 10, 12), entry("b", 20, 20)]);
        // ((2/10)² + 0)/2 = 0.02
        assert!((avg_pred(&r) - 0.02).abs() < 1e-12);
        assert_eq!(avg_pred(&SanitizedRelease::default()), 0.0);
    }

    #[test]
    fn ropp_counts_inversions() {
        // Truth order a(10) < b(20) < c(30); sanitized inverts b and c.
        let r = SanitizedRelease::new(vec![
            entry("a", 10, 11),
            entry("b", 20, 31),
            entry("c", 30, 29),
        ]);
        // pairs: (a,b) ok, (a,c) ok, (b,c) inverted → 2/3.
        assert!((ropp(&r) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ropp_ties_need_equal_sanitized() {
        let same = SanitizedRelease::new(vec![entry("a", 10, 12), entry("b", 10, 12)]);
        assert_eq!(ropp(&same), 1.0);
        let split = SanitizedRelease::new(vec![entry("a", 10, 12), entry("b", 10, 9)]);
        assert_eq!(ropp(&split), 0.0);
    }

    #[test]
    fn rrpp_window() {
        // true ratio 10/20 = 0.5; sanitized 11/21 ≈ 0.524; k=0.95 →
        // bounds [0.475, 0.526]: preserved.
        let r = SanitizedRelease::new(vec![entry("a", 10, 11), entry("b", 20, 21)]);
        assert_eq!(rrpp(&r, 0.95), 1.0);
        // sanitized 14/21 ≈ 0.667: outside.
        let bad = SanitizedRelease::new(vec![entry("a", 10, 14), entry("b", 20, 21)]);
        assert_eq!(rrpp(&bad, 0.95), 0.0);
        // Non-positive sanitized value can't preserve a ratio.
        let neg = SanitizedRelease::new(vec![entry("a", 10, -1), entry("b", 20, 21)]);
        assert_eq!(rrpp(&neg, 0.95), 0.0);
    }

    #[test]
    fn single_entry_release_is_trivially_preserved() {
        let r = SanitizedRelease::new(vec![entry("a", 10, 12)]);
        assert_eq!(ropp(&r), 1.0);
        assert_eq!(rrpp(&r, 0.95), 1.0);
    }

    #[test]
    fn avg_prig_uses_adversary_estimate() {
        use bfly_common::Pattern;
        use bfly_inference::attack::{Breach, BreachKind};
        // Lattice X_c^{abc} sanitized to 9, 4, 6, 2 → estimate 1; truth 1.
        let mut view: HashMap<ItemsetId, SanitizedSupport> = HashMap::new();
        view.insert(ItemsetId::new(iset("c")), 9);
        view.insert(ItemsetId::new(iset("ac")), 4);
        view.insert(ItemsetId::new(iset("bc")), 6);
        view.insert(ItemsetId::new(iset("abc")), 2);
        let breach = Breach {
            pattern: "c¬a¬b".parse::<Pattern>().unwrap(),
            base: iset("c"),
            span: iset("abc"),
            support: 1,
            kind: BreachKind::IntraWindow,
        };
        let prig = avg_prig(std::slice::from_ref(&breach), &view, None).unwrap();
        assert_eq!(prig, 0.0); // estimate happens to hit the truth
                               // Remove a lattice member: the adversary has no estimator at all.
        view.remove(&iset("abc"));
        assert_eq!(avg_prig(std::slice::from_ref(&breach), &view, None), None);
        // But a previous window's sanitized value completes the lattice.
        let mut prev = HashMap::new();
        prev.insert(ItemsetId::new(iset("abc")), 4i64);
        let prig = avg_prig(&[breach], &view, Some(&prev)).unwrap();
        // estimate = 9−4−6+4 = 3; deviation (1−3)²/1 = 4.
        assert_eq!(prig, 4.0);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn rrpp_rejects_bad_k() {
        rrpp(&SanitizedRelease::default(), 1.5);
    }

    #[test]
    fn window_metrics_bundles_all_four() {
        let r = SanitizedRelease::new(vec![entry("a", 10, 11), entry("b", 20, 21)]);
        let m = window_metrics(&r, &[], None, 0.95);
        assert!((m.avg_pred - ((0.1f64).powi(2) + (0.05f64).powi(2)) / 2.0).abs() < 1e-12);
        assert_eq!(m.avg_prig, None); // no breaches supplied
        assert_eq!(m.ropp, 1.0); // 11 ≤ 21 preserves the order
        assert_eq!(m.rrpp, 1.0); // 11/21 ≈ 0.524 within [0.475, 0.526]
    }
}
