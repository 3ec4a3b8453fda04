//! Association rules over mined itemsets.
//!
//! §VI of the paper motivates *ratio preservation* by rule confidence:
//! `conf(A ⇒ B) = T(AB)/T(A)` is a support ratio, so a perturbation that
//! preserves pairwise ratios preserves the confidences downstream
//! applications compute from the published output. This module generates
//! the rules and measures exactly that.

use crate::result::FrequentItemsets;
use bfly_common::{ItemSet, ItemsetId, Support};
use std::collections::HashMap;
use std::fmt;

/// An association rule `antecedent ⇒ consequent` with its exact support and
/// confidence in the mined window.
#[derive(Clone, Debug, PartialEq)]
pub struct AssociationRule {
    /// Left-hand side `A` (non-empty).
    pub antecedent: ItemSet,
    /// Right-hand side `B` (non-empty, disjoint from `A`).
    pub consequent: ItemSet,
    /// `T(A ∪ B)`.
    pub support: Support,
    /// `T(A ∪ B) / T(A)`.
    pub confidence: f64,
}

impl fmt::Display for AssociationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ⇒ {} (sup {}, conf {:.3})",
            self.antecedent, self.consequent, self.support, self.confidence
        )
    }
}

/// Generate all association rules with `confidence ≥ min_confidence` from a
/// complete frequent-itemset result (Agrawal–Srikant rule generation: both
/// sides of every rule are frequent because the union is).
///
/// # Panics
/// If `min_confidence` is outside `(0, 1]`, or an itemset exceeds 20 items
/// (the subset enumeration would blow up).
pub fn generate_rules(frequent: &FrequentItemsets, min_confidence: f64) -> Vec<AssociationRule> {
    assert!(
        min_confidence > 0.0 && min_confidence <= 1.0,
        "min_confidence must be in (0,1]"
    );
    let mut rules = Vec::new();
    for entry in frequent.entries() {
        let n = entry.itemset().len();
        if n < 2 {
            continue;
        }
        assert!(n <= 20, "rule generation over an itemset of {n} items");
        for mask in 1u32..((1 << n) - 1) {
            let antecedent = entry.itemset().subset_by_mask(mask);
            let t_a = frequent
                .support(&antecedent)
                .expect("subsets of frequent itemsets are frequent");
            let confidence = entry.support as f64 / t_a as f64;
            if confidence >= min_confidence {
                rules.push(AssociationRule {
                    consequent: entry.itemset().difference(&antecedent),
                    antecedent,
                    support: entry.support,
                    confidence,
                });
            }
        }
    }
    rules.sort_unstable_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("confidences are finite")
            .then_with(|| b.support.cmp(&a.support))
            .then_with(|| a.antecedent.cmp(&b.antecedent))
    });
    rules
}

/// Recompute a rule's confidence from a (possibly sanitized) support view.
/// Returns `None` when either side is unpublished or the antecedent's
/// sanitized support is non-positive.
pub fn confidence_under_view(
    rule: &AssociationRule,
    view: &HashMap<ItemsetId, i64>,
) -> Option<f64> {
    let union = rule.antecedent.union(&rule.consequent);
    let t_ab = *view.get(&union)?;
    let t_a = *view.get(&rule.antecedent)?;
    (t_a > 0).then(|| t_ab as f64 / t_a as f64)
}

/// Fraction of rules whose confidence, recomputed from the sanitized view,
/// stays within `tolerance` (relative) of the true confidence — the
/// downstream-utility measure ratio preservation is designed for.
pub fn confidence_preservation_rate(
    rules: &[AssociationRule],
    view: &HashMap<ItemsetId, i64>,
    tolerance: f64,
) -> f64 {
    assert!(tolerance > 0.0, "tolerance must be positive");
    if rules.is_empty() {
        return 1.0;
    }
    let preserved = rules
        .iter()
        .filter(|r| {
            confidence_under_view(r, view)
                .map(|c| (c - r.confidence).abs() / r.confidence <= tolerance)
                .unwrap_or(false)
        })
        .count();
    preserved as f64 / rules.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use bfly_common::fixtures::fig2_window;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    #[test]
    fn rules_from_fig2_have_exact_confidence() {
        let db = fig2_window(12);
        let frequent = Apriori::new(3).mine(&db);
        let rules = generate_rules(&frequent, 0.5);
        // a ⇒ c: T(ac)/T(a) = 5/5 = 1.0.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == iset("a") && r.consequent == iset("c"))
            .expect("a ⇒ c missing");
        assert_eq!(rule.confidence, 1.0);
        assert_eq!(rule.support, 5);
        // c ⇒ a: 5/8.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == iset("c") && r.consequent == iset("a"))
            .expect("c ⇒ a missing");
        assert!((rule.confidence - 5.0 / 8.0).abs() < 1e-12);
        // Sorted by confidence descending.
        for pair in rules.windows(2) {
            assert!(pair[0].confidence >= pair[1].confidence);
        }
        // Min-confidence is respected.
        assert!(rules.iter().all(|r| r.confidence >= 0.5));
    }

    #[test]
    fn sides_are_disjoint_and_nonempty() {
        let db = fig2_window(12);
        let rules = generate_rules(&Apriori::new(3).mine(&db), 0.1);
        for r in &rules {
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
            assert!(r.antecedent.intersection(&r.consequent).is_empty());
        }
    }

    #[test]
    fn confidence_under_perturbed_view() {
        let rule = AssociationRule {
            antecedent: iset("a"),
            consequent: iset("b"),
            support: 50,
            confidence: 0.5,
        };
        let mut view: HashMap<ItemsetId, i64> = HashMap::new();
        view.insert(ItemsetId::new(iset("a")), 98);
        view.insert(ItemsetId::new(iset("ab")), 51);
        let c = confidence_under_view(&rule, &view).unwrap();
        assert!((c - 51.0 / 98.0).abs() < 1e-12);
        // Missing member → None; non-positive antecedent → None.
        view.remove(&iset("ab"));
        assert_eq!(confidence_under_view(&rule, &view), None);
        view.insert(ItemsetId::new(iset("ab")), 51);
        view.insert(ItemsetId::new(iset("a")), 0);
        assert_eq!(confidence_under_view(&rule, &view), None);
    }

    #[test]
    fn preservation_rate_bounds() {
        let rule = AssociationRule {
            antecedent: iset("a"),
            consequent: iset("b"),
            support: 50,
            confidence: 0.5,
        };
        let mut view: HashMap<ItemsetId, i64> = HashMap::new();
        view.insert(ItemsetId::new(iset("a")), 100);
        view.insert(ItemsetId::new(iset("ab")), 50);
        assert_eq!(
            confidence_preservation_rate(std::slice::from_ref(&rule), &view, 0.05),
            1.0
        );
        view.insert(ItemsetId::new(iset("ab")), 80);
        assert_eq!(confidence_preservation_rate(&[rule], &view, 0.05), 0.0);
        assert_eq!(confidence_preservation_rate(&[], &view, 0.05), 1.0);
    }

    #[test]
    #[should_panic(expected = "min_confidence")]
    fn bad_confidence_rejected() {
        generate_rules(&FrequentItemsets::default(), 1.5);
    }
}
