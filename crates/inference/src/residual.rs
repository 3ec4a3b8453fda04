//! Residual-breach evaluation: what can the adversary still *confidently*
//! claim after Butterfly?
//!
//! The `prig` metric measures her mean squared error; this module asks the
//! operational question behind the paper's "zero-indistinguishability"
//! remark (§V-C.2): from the sanitized output, for which patterns would a
//! rational adversary still assert "this is a hard vulnerable pattern with
//! support in 1..=K"? We model her as a thresholding classifier on the
//! inclusion–exclusion estimate and score her with precision/recall against
//! ground truth — turning the privacy guarantee into an attack ROC point.

use crate::derive::{derive_pattern_support_f64, SupportView};
use bfly_common::{Database, ItemSet, Pattern, Support};
use std::collections::HashMap;

/// The adversary's claim about one candidate pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct BreachClaim {
    /// The claimed vulnerable pattern.
    pub pattern: Pattern,
    /// Positive part `I`.
    pub base: ItemSet,
    /// Spanning itemset `J`.
    pub span: ItemSet,
    /// Her point estimate of the support.
    pub estimate: f64,
}

/// Run the thresholding adversary over every base of every published span:
/// she claims a breach when her estimate falls inside `[0.5, K + 0.5]` —
/// the maximum-likelihood decision for integer supports under symmetric
/// noise. Spans above `max_span` items are skipped (cost guard).
pub fn claim_breaches<V: SupportView>(
    view: &V,
    spans: &[ItemSet],
    k: Support,
    max_span: usize,
) -> Vec<BreachClaim> {
    let mut claims = Vec::new();
    for span in spans {
        let n = span.len();
        if n < 2 || n > max_span {
            continue;
        }
        for mask in 1u32..((1 << n) - 1) {
            let base = span.subset_by_mask(mask);
            let Ok(Some(estimate)) = derive_pattern_support_f64(view, &base, span) else {
                continue;
            };
            if estimate >= 0.5 && estimate <= k as f64 + 0.5 {
                claims.push(BreachClaim {
                    pattern: Pattern::from_lattice(&base, span).expect("base ⊂ span"),
                    base,
                    span: span.clone(),
                    estimate,
                });
            }
        }
    }
    claims
}

/// Attack quality against ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AttackScore {
    /// Claims whose pattern truly has support in `1..=K`.
    pub true_positives: usize,
    /// Claims that are wrong (support 0 or > K).
    pub false_positives: usize,
    /// Truly vulnerable patterns (among the evaluated spans) she missed.
    pub false_negatives: usize,
}

impl AttackScore {
    /// Precision `TP/(TP+FP)`; 1.0 when she made no claims.
    pub fn precision(&self) -> f64 {
        let claimed = self.true_positives + self.false_positives;
        if claimed == 0 {
            1.0
        } else {
            self.true_positives as f64 / claimed as f64
        }
    }

    /// Recall `TP/(TP+FN)`; 1.0 when nothing was there to find.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / actual as f64
        }
    }
}

/// Score a claim set against the window's ground truth: every claim is
/// verified against the vertical tid-bitmap oracle (one transposition of
/// the window, then AND/AND-NOT + popcount per pattern), and missed
/// vulnerable patterns are counted over the same candidate space
/// (`spans` × proper bases).
pub fn score_claims(
    claims: &[BreachClaim],
    db: &Database,
    spans: &[ItemSet],
    k: Support,
    max_span: usize,
) -> AttackScore {
    let mut truth_oracle = crate::truth::GroundTruth::of_database(db);
    let mut score = AttackScore::default();
    let mut claimed: HashMap<(ItemSet, ItemSet), bool> = HashMap::new();
    for claim in claims {
        let truth = truth_oracle.pattern_support(&claim.pattern);
        let correct = truth >= 1 && truth <= k;
        if correct {
            score.true_positives += 1;
        } else {
            score.false_positives += 1;
        }
        claimed.insert((claim.base.clone(), claim.span.clone()), correct);
    }
    for span in spans {
        let n = span.len();
        if n < 2 || n > max_span {
            continue;
        }
        for mask in 1u32..((1 << n) - 1) {
            let base = span.subset_by_mask(mask);
            if claimed.contains_key(&(base.clone(), span.clone())) {
                continue;
            }
            let pattern = Pattern::from_lattice(&base, span).expect("base ⊂ span");
            let truth = truth_oracle.pattern_support(&pattern);
            if truth >= 1 && truth <= k {
                score.false_negatives += 1;
            }
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::fixtures::fig2_window;
    use bfly_mining::Apriori;

    fn spans_of(released: &bfly_mining::FrequentItemsets) -> Vec<ItemSet> {
        released
            .entries()
            .iter()
            .map(|e| e.itemset().clone())
            .collect()
    }

    #[test]
    fn exact_view_attack_is_perfect() {
        // Over the unperturbed release the thresholding adversary is exactly
        // the breach enumerator: precision = recall = 1.
        let db = fig2_window(12);
        let released = Apriori::new(3).mine(&db);
        let spans = spans_of(&released);
        let claims = claim_breaches(released.as_map(), &spans, 1, 12);
        let score = score_claims(&claims, &db, &spans, 1, 12);
        assert!(score.true_positives > 0);
        assert_eq!(score.false_positives, 0);
        assert_eq!(score.false_negatives, 0);
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 1.0);
    }

    #[test]
    fn perturbed_view_degrades_the_attack() {
        // Shift supports by +3 on odd-sized itemsets and −3 on even-sized
        // ones: on the breach lattice X_c^{abc} every member then
        // contributes +3 to the inclusion–exclusion sum, pushing the
        // estimate of the real breach (support 1) to 13 — far outside the
        // claim band, so the adversary must lose it.
        let db = fig2_window(12);
        let released = Apriori::new(3).mine(&db);
        let spans = spans_of(&released);
        let mut noisy: HashMap<ItemSet, i64> = HashMap::new();
        for e in released.entries() {
            let shift = if e.itemset().len() % 2 == 1 { 3 } else { -3 };
            noisy.insert(e.itemset().clone(), e.support as i64 + shift);
        }
        let claims = claim_breaches(&noisy, &spans, 1, 12);
        let c: ItemSet = "c".parse().unwrap();
        let abc: ItemSet = "abc".parse().unwrap();
        assert!(
            !claims.iter().any(|cl| cl.base == c && cl.span == abc),
            "adversary still claims the Example 3 breach through the noise"
        );
        let score = score_claims(&claims, &db, &spans, 1, 12);
        assert!(score.false_negatives >= 1, "breach not counted as missed");
    }

    #[test]
    fn score_edge_cases() {
        let empty = AttackScore::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        let s = AttackScore {
            true_positives: 1,
            false_positives: 3,
            false_negatives: 1,
        };
        assert_eq!(s.precision(), 0.25);
        assert_eq!(s.recall(), 0.5);
    }

    #[test]
    fn oversized_spans_are_skipped() {
        let db = fig2_window(12);
        let released = Apriori::new(3).mine(&db);
        let spans = spans_of(&released);
        let claims = claim_breaches(released.as_map(), &spans, 1, 2);
        // Only 2-item spans are analysed; abc-span claims are gone.
        assert!(claims.iter().all(|c| c.span.len() <= 2));
    }
}
