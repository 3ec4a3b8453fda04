//! The four Butterfly bias-setting schemes (§V-C, §VI-A/B/C).

use crate::config::PrivacySpec;
use crate::fec::Fec;
use crate::order::{OrderScratch, MAX_GAMMA};
use crate::ratio::ratio_preserving_biases;

/// Which bias-setting strategy a [`crate::Publisher`] applies per window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BiasScheme {
    /// β = 0 everywhere: the basic Butterfly with minimum ppr (§V-C).
    Basic,
    /// Algorithm 1's inversion-minimizing DP with window depth `γ` (§VI-A).
    OrderPreserving {
        /// DP interaction depth (the paper's γ; 2 suffices on real data).
        gamma: usize,
    },
    /// Algorithm 2's bottom-up proportional biases (§VI-B).
    RatioPreserving,
    /// `β = λ·β_OP + (1−λ)·β_RP` (§VI-C). `lambda = 1` ≡ order-preserving,
    /// `lambda = 0` ≡ ratio-preserving.
    Hybrid {
        /// Blend weight toward order preservation, in `[0, 1]`.
        lambda: f64,
        /// γ for the order-preserving component.
        gamma: usize,
    },
}

impl BiasScheme {
    /// The paper's figure-legend name for this variant, as an
    /// allocation-free [`std::fmt::Display`] adapter: fixed variants write
    /// a `&'static str`, and the parameterized Hybrid name is formatted
    /// straight into whatever the caller is already writing to. Callers
    /// that genuinely need an owned `String` (table rows, file names) call
    /// `.to_string()` at that one point instead of every caller paying an
    /// allocation for a log line.
    pub fn name(&self) -> SchemeName {
        SchemeName(*self)
    }

    /// Reject parameters no publisher can run with, in the style of
    /// [`PrivacySpec::checked`]: external configuration (CLI flags, the
    /// serve config) is refused with a message at parse time instead of
    /// panicking a worker at its first full window.
    ///
    /// # Errors
    /// A hybrid `λ` that is not a finite value in `[0, 1]`, or a `γ` above
    /// [`MAX_GAMMA`] (a DP layer holds up to `13^γ` states).
    pub fn checked(self) -> Result<Self, String> {
        let gamma = match self {
            BiasScheme::Basic | BiasScheme::RatioPreserving => return Ok(self),
            BiasScheme::OrderPreserving { gamma } => gamma,
            BiasScheme::Hybrid { lambda, gamma } => {
                if !(0.0..=1.0).contains(&lambda) {
                    return Err(format!("hybrid λ must be in [0,1], got {lambda}"));
                }
                gamma
            }
        };
        if gamma > MAX_GAMMA {
            return Err(format!("γ must be at most {MAX_GAMMA}, got {gamma}"));
        }
        Ok(self)
    }

    /// Compute one bias per FEC (`fecs` sorted ascending by support), each
    /// within its `β^m` budget.
    ///
    /// # Panics
    /// On parameters [`BiasScheme::checked`] rejects.
    pub fn biases(&self, fecs: &[Fec], spec: &PrivacySpec) -> Vec<f64> {
        self.biases_with(fecs, spec, &mut OrderScratch::default())
    }

    /// [`BiasScheme::biases`] with Algorithm 1 working in the caller's
    /// buffers (the publisher keeps one scratch per stream).
    pub(crate) fn biases_with(
        &self,
        fecs: &[Fec],
        spec: &PrivacySpec,
        scratch: &mut OrderScratch,
    ) -> Vec<f64> {
        if let Err(e) = self.checked() {
            panic!("{e}");
        }
        match *self {
            BiasScheme::Basic => vec![0.0; fecs.len()],
            BiasScheme::OrderPreserving { gamma } => scratch.solve(fecs, spec, gamma),
            BiasScheme::RatioPreserving => ratio_preserving_biases(fecs, spec),
            BiasScheme::Hybrid { lambda, gamma } => {
                let op = scratch.solve(fecs, spec, gamma);
                let rp = ratio_preserving_biases(fecs, spec);
                op.iter()
                    .zip(&rp)
                    .map(|(o, r)| lambda * o + (1.0 - lambda) * r)
                    .collect()
            }
        }
    }

    /// The four variants the paper's experiments compare, in figure order.
    pub fn paper_variants(gamma: usize) -> [BiasScheme; 4] {
        [
            BiasScheme::Basic,
            BiasScheme::OrderPreserving { gamma },
            BiasScheme::Hybrid { lambda: 0.4, gamma },
            BiasScheme::RatioPreserving,
        ]
    }
}

/// Allocation-free display adapter for [`BiasScheme::name`]. `Copy`, so it
/// drops into format args as-is; compare against string literals directly
/// (`scheme.name() == "Basic"`) without materializing a `String`.
#[derive(Clone, Copy, PartialEq)]
pub struct SchemeName(BiasScheme);

impl std::fmt::Display for SchemeName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            BiasScheme::Basic => f.write_str("Basic"),
            BiasScheme::OrderPreserving { .. } => f.write_str("Opt λ=1"),
            BiasScheme::RatioPreserving => f.write_str("Opt λ=0"),
            BiasScheme::Hybrid { lambda, .. } => write!(f, "Opt λ={lambda}"),
        }
    }
}

impl std::fmt::Debug for SchemeName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl PartialEq<&str> for SchemeName {
    fn eq(&self, other: &&str) -> bool {
        // Stream the Display output through a consuming comparator: equal
        // iff every written fragment is the next prefix of `other` and the
        // whole of `other` is consumed — no buffer, no allocation.
        struct CmpWriter<'a> {
            rest: &'a str,
            matched: bool,
        }
        impl std::fmt::Write for CmpWriter<'_> {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                if self.matched && self.rest.starts_with(s) {
                    self.rest = &self.rest[s.len()..];
                } else {
                    self.matched = false;
                }
                Ok(())
            }
        }
        let mut w = CmpWriter {
            rest: other,
            matched: true,
        };
        let _ = std::fmt::write(&mut w, format_args!("{self}"));
        w.matched && w.rest.is_empty()
    }
}

impl PartialEq<SchemeName> for &str {
    fn eq(&self, other: &SchemeName) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::partition_into_fecs;
    use bfly_common::ItemSet;
    use bfly_mining::FrequentItemsets;

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0)
    }

    fn fecs(supports: &[u64]) -> Vec<Fec> {
        partition_into_fecs(&FrequentItemsets::new(
            supports
                .iter()
                .enumerate()
                .map(|(i, &s)| (ItemSet::from_ids([i as u32]), s)),
        ))
    }

    #[test]
    fn basic_is_all_zero() {
        let f = fecs(&[25, 30, 40]);
        assert_eq!(BiasScheme::Basic.biases(&f, &spec()), vec![0.0; 3]);
    }

    #[test]
    fn hybrid_endpoints_match_components() {
        let f = fecs(&[25, 27, 29, 60]);
        let s = spec();
        let op = BiasScheme::OrderPreserving { gamma: 2 }.biases(&f, &s);
        let rp = BiasScheme::RatioPreserving.biases(&f, &s);
        let h1 = BiasScheme::Hybrid {
            lambda: 1.0,
            gamma: 2,
        }
        .biases(&f, &s);
        let h0 = BiasScheme::Hybrid {
            lambda: 0.0,
            gamma: 2,
        }
        .biases(&f, &s);
        for i in 0..f.len() {
            assert!((h1[i] - op[i]).abs() < 1e-12);
            assert!((h0[i] - rp[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn hybrid_blend_is_convex_and_within_budget() {
        let f = fecs(&[25, 27, 29, 60, 200]);
        let s = spec();
        let h = BiasScheme::Hybrid {
            lambda: 0.4,
            gamma: 2,
        }
        .biases(&f, &s);
        for (fec, b) in f.iter().zip(&h) {
            // A convex combination of two in-budget biases is in budget.
            assert!(b.abs() <= s.max_bias(fec.support()) + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "λ must be in")]
    fn hybrid_rejects_bad_lambda() {
        BiasScheme::Hybrid {
            lambda: 1.5,
            gamma: 2,
        }
        .biases(&fecs(&[25]), &spec());
    }

    #[test]
    fn checked_rejects_what_no_publisher_can_run() {
        for scheme in BiasScheme::paper_variants(MAX_GAMMA) {
            assert_eq!(scheme.checked(), Ok(scheme));
        }
        for lambda in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = BiasScheme::Hybrid { lambda, gamma: 2 }
                .checked()
                .unwrap_err();
            assert!(err.contains("λ must be in [0,1]"), "{err}");
        }
        for scheme in [
            BiasScheme::OrderPreserving {
                gamma: MAX_GAMMA + 1,
            },
            BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 40,
            },
        ] {
            let err = scheme.checked().unwrap_err();
            assert!(err.contains(&format!("at most {MAX_GAMMA}")), "{err}");
        }
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(BiasScheme::Basic.name(), "Basic");
        assert_eq!(BiasScheme::OrderPreserving { gamma: 2 }.name(), "Opt λ=1");
        assert_eq!(BiasScheme::RatioPreserving.name(), "Opt λ=0");
        assert_eq!(
            BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2
            }
            .name(),
            "Opt λ=0.4"
        );
        assert_eq!(BiasScheme::paper_variants(2).len(), 4);
    }
}
