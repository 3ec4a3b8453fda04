//! Discrete-uniform perturbation regions (§V-C, Definition 6), and
//! [`noise_rng`], the one rule every publication-noise draw is keyed by:
//! the stream's secret seed, the publication index and a class, never
//! iteration order, so a class published afresh never reuses a value.

use bfly_common::rng::{Rng, SmallRng};
use bfly_common::{ItemSet, Support};

/// The noise source for one class (a FEC's support, an itemset's content
/// hash) at one publication (`position` releases emitted before it).
pub fn noise_rng(seed: u64, position: u64, class: u64) -> SmallRng {
    SmallRng::split_stream(seed ^ class, position)
}

/// A Butterfly FEC's noise: one draw from the region of width `alpha`
/// centred on `bias`, its class the FEC's true support. FEC-mates share it.
pub fn seeded_noise(seed: u64, position: u64, support: Support, bias: f64, alpha: u64) -> i64 {
    NoiseRegion::centered(bias, alpha).sample(&mut noise_rng(seed, position, support))
}

/// FNV-1a over the itemset's item ids ([`bfly_common::hash`], pinned
/// there): the class of a draw keyed by content.
pub(crate) fn content_hash(itemset: &ItemSet) -> u64 {
    let mut h = bfly_common::hash::Fnv1a::new();
    for item in itemset.items() {
        h.write(&item.id().to_le_bytes());
    }
    h.finish()
}

/// A discrete uniform noise region: integers `l ..= l+α`, i.e. width `α`,
/// centred as closely as integrality allows on the requested bias `β`.
/// The *uncertainty region* of a FEC with support `t` is then
/// `t+l ..= t+l+α` (Definition 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseRegion {
    lo: i64,
    alpha: u64,
}

impl NoiseRegion {
    /// Region of width `alpha` whose mean is the closest half-integer to
    /// `bias`: `l = round(β − α/2)`.
    pub fn centered(bias: f64, alpha: u64) -> Self {
        let lo = (bias - alpha as f64 / 2.0).round() as i64;
        NoiseRegion { lo, alpha }
    }

    /// Inclusive lower edge `l`.
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Inclusive upper edge `u = l + α`.
    pub fn hi(&self) -> i64 {
        self.lo + self.alpha as i64
    }

    /// Width `α = u − l`.
    pub fn alpha(&self) -> u64 {
        self.alpha
    }

    /// Realized bias `E[r] = (l+u)/2`.
    pub fn bias(&self) -> f64 {
        (self.lo + self.hi()) as f64 / 2.0
    }

    /// Variance `((α+1)² − 1)/12` of the discrete uniform over `l..=u`.
    pub fn variance(&self) -> f64 {
        let n = self.alpha + 1;
        ((n * n - 1) as f64) / 12.0
    }

    /// Draw one noise value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        rng.gen_range_i64(self.lo, self.hi())
    }

    /// Number of integers in the region (`α + 1`).
    pub fn len(&self) -> u64 {
        self.alpha + 1
    }

    /// A noise region is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Exact inversion probability `P[T̃_i ≥ T̃_j]` for two FECs with true
/// supports `t_i < t_j` perturbed by independent draws from `region_i` and
/// `region_j` (Definition 6's uncertainty-region overlap, §VI-A.1).
///
/// This is the quantity Algorithm 1's `(α+1−d)²` cost is a surrogate for;
/// the tests verify the surrogate is order-consistent with the exact value.
pub fn inversion_probability(
    t_i: i64,
    region_i: &NoiseRegion,
    t_j: i64,
    region_j: &NoiseRegion,
) -> f64 {
    // T̃_i = t_i + U_i, T̃_j = t_j + U_j. Count pairs with t_i+u ≥ t_j+v.
    let n_i = region_i.len() as f64;
    let n_j = region_j.len() as f64;
    let mut favorable = 0u64;
    for u in region_i.lo()..=region_i.hi() {
        // u + t_i ≥ v + t_j  ⇔  v ≤ u + t_i − t_j.
        let v_max = u + t_i - t_j;
        if v_max >= region_j.hi() {
            favorable += region_j.len();
        } else if v_max >= region_j.lo() {
            favorable += (v_max - region_j.lo() + 1) as u64;
        }
    }
    favorable as f64 / (n_i * n_j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centering_and_edges() {
        let r = NoiseRegion::centered(0.0, 8);
        assert_eq!(r.lo(), -4);
        assert_eq!(r.hi(), 4);
        assert_eq!(r.bias(), 0.0);
        assert_eq!(r.len(), 9);

        let shifted = NoiseRegion::centered(3.0, 8);
        assert_eq!(shifted.lo(), -1);
        assert_eq!(shifted.hi(), 7);
        assert_eq!(shifted.bias(), 3.0);
    }

    #[test]
    fn odd_width_bias_is_half_integral() {
        let r = NoiseRegion::centered(0.0, 5);
        // l = round(−2.5) = −2 (round half away from zero): bias 0.5 — off
        // by at most 1/2 from requested, which the tests below tolerate.
        assert!((r.bias() - 0.0).abs() <= 0.5);
        assert_eq!(r.alpha(), 5);
    }

    #[test]
    fn variance_formula() {
        // α = 12 → ((13)²−1)/12 = 14.
        assert!((NoiseRegion::centered(0.0, 12).variance() - 14.0).abs() < 1e-12);
        // α = 1 → (4−1)/12 = 0.25.
        assert!((NoiseRegion::centered(0.0, 1).variance() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_in_region_and_hit_edges() {
        let r = NoiseRegion::centered(2.0, 6);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen_lo = false;
        let mut seen_hi = false;
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let v = r.sample(&mut rng);
            assert!(v >= r.lo() && v <= r.hi());
            seen_lo |= v == r.lo();
            seen_hi |= v == r.hi();
            sum += v as f64;
        }
        assert!(seen_lo && seen_hi, "edges never sampled");
        let mean = sum / n as f64;
        assert!(
            (mean - r.bias()).abs() < 0.1,
            "empirical mean {mean} vs bias {}",
            r.bias()
        );
    }

    #[test]
    fn inversion_probability_basics() {
        let r = NoiseRegion::centered(0.0, 4); // [-2, 2], 5 values
                                               // Identical supports: P[T̃_i ≥ T̃_j] counts u ≥ v pairs = 15/25.
        assert!((inversion_probability(10, &r, 10, &r) - 0.6).abs() < 1e-12);
        // Disjoint regions (gap > α): inversion impossible.
        assert_eq!(inversion_probability(10, &r, 20, &r), 0.0);
        // Certain inversion the other way.
        assert_eq!(inversion_probability(20, &r, 10, &r), 1.0);
        // Monotone in the gap.
        let p1 = inversion_probability(10, &r, 11, &r);
        let p3 = inversion_probability(10, &r, 13, &r);
        assert!(p1 > p3 && p3 > 0.0);
    }

    #[test]
    fn inversion_probability_matches_simulation() {
        let ri = NoiseRegion::centered(1.0, 6);
        let rj = NoiseRegion::centered(-1.0, 8);
        let exact = inversion_probability(50, &ri, 53, &rj);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 200_000;
        let mut hits = 0u64;
        for _ in 0..trials {
            if 50 + ri.sample(&mut rng) >= 53 + rj.sample(&mut rng) {
                hits += 1;
            }
        }
        let empirical = hits as f64 / trials as f64;
        assert!(
            (exact - empirical).abs() < 0.01,
            "exact {exact} vs empirical {empirical}"
        );
    }

    #[test]
    fn dp_cost_surrogate_is_order_consistent() {
        // Algorithm 1 minimizes (α+1−d)²; check it ranks pairs the same way
        // the exact inversion probability does, over the d range with
        // overlap.
        let alpha = 8u64;
        let region = NoiseRegion::centered(0.0, alpha);
        let mut last_p = f64::INFINITY;
        let mut last_cost = f64::INFINITY;
        for d in 1..=(alpha as i64 + 1) {
            let p = inversion_probability(100, &region, 100 + d, &region);
            let gap = (alpha as i64 + 1 - d).max(0) as f64;
            let cost = gap * gap;
            assert!(p <= last_p + 1e-12, "P not monotone at d={d}");
            assert!(cost <= last_cost, "cost not monotone at d={d}");
            last_p = p;
            last_cost = cost;
        }
        // Both hit zero once the regions separate.
        assert_eq!(
            inversion_probability(100, &region, 100 + alpha as i64 + 1, &region),
            0.0
        );
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let r = NoiseRegion::centered(0.0, 12);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.sample(&mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(
            (var - r.variance()).abs() / r.variance() < 0.05,
            "empirical var {var} vs theoretical {}",
            r.variance()
        );
    }
}
