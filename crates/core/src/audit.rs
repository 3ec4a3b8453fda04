//! Release auditing: verify a sanitized release against its contract before
//! it leaves the process.
//!
//! Perturbation bugs are privacy bugs, so a deployment wants a cheap,
//! independent invariant check between the publisher and the wire. The
//! audit makes two checks, both per entry and both independent of bias
//! scheme and republication history:
//!
//! * the true support is at least `C` (the miner emitted nothing below the
//!   threshold);
//! * the sanitized value lies inside the widest region any scheme could
//!   legally have used (`|T̃ − T| ≤ β^m(T) + α/2 + 1`).
//!
//! It checks one release at a time. Whether FEC-mates share one value and
//! whether an unchanged support keeps its republished value are
//! cross-window facts no release-build check covers yet (ROADMAP item 3(a)).

use crate::config::PrivacySpec;
use crate::release::SanitizedRelease;
use std::fmt;

/// An audit violation.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditError {
    /// An entry's sanitized value is outside any legal perturbation region.
    OutOfRegion {
        /// Display form of the offending itemset.
        itemset: String,
        /// True support.
        truth: u64,
        /// Published value.
        sanitized: i64,
        /// Maximum legal |deviation|.
        allowed: f64,
    },
    /// An entry's true support is below the mining threshold `C` — the
    /// publisher was handed something the miner should never emit.
    BelowMinSupport {
        /// Display form of the offending itemset.
        itemset: String,
        /// Its (illegal) true support.
        truth: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::OutOfRegion {
                itemset,
                truth,
                sanitized,
                allowed,
            } => write!(
                f,
                "{itemset}: sanitized {sanitized} deviates from true {truth} by more than {allowed:.1}"
            ),
            AuditError::BelowMinSupport { itemset, truth } => {
                write!(f, "{itemset}: true support {truth} is below the mining threshold")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Audit one release against `spec`. Returns every violation (empty = pass).
pub fn audit_release(spec: &PrivacySpec, release: &SanitizedRelease) -> Vec<AuditError> {
    let mut errors = Vec::new();
    let half_region = spec.alpha() as f64 / 2.0 + 1.0;
    for entry in release.iter() {
        if entry.true_support < spec.c() {
            errors.push(AuditError::BelowMinSupport {
                itemset: entry.itemset().to_string(),
                truth: entry.true_support,
            });
            continue;
        }
        let allowed = spec.max_bias(entry.true_support) + half_region;
        let deviation = (entry.sanitized - entry.true_support as i64).abs() as f64;
        if deviation > allowed {
            errors.push(AuditError::OutOfRegion {
                itemset: entry.itemset().to_string(),
                truth: entry.true_support,
                sanitized: entry.sanitized,
                allowed,
            });
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Publisher;
    use crate::release::SanitizedItemset;
    use crate::scheme::BiasScheme;
    use bfly_mining::FrequentItemsets;

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0)
    }

    #[test]
    fn real_publishers_always_pass() {
        let s = spec();
        let mined = FrequentItemsets::new(vec![
            ("a".parse().unwrap(), 25u64),
            ("b".parse().unwrap(), 27),
            ("ab".parse().unwrap(), 25),
            ("c".parse().unwrap(), 90),
        ]);
        for scheme in BiasScheme::paper_variants(2) {
            for seed in 0..50 {
                let mut p = Publisher::new(s, scheme, seed);
                let release = p.publish(&mined);
                let errors = audit_release(&s, &release);
                assert!(errors.is_empty(), "{}: {errors:?}", scheme.name());
            }
        }
    }

    #[test]
    fn detects_out_of_region_values() {
        let s = spec();
        let release = SanitizedRelease::new(vec![SanitizedItemset {
            id: bfly_common::ItemsetId::intern(&"a".parse().unwrap()),
            true_support: 30,
            sanitized: 300,
        }]);
        let errors = audit_release(&s, &release);
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0], AuditError::OutOfRegion { .. }));
        assert!(errors[0].to_string().contains("deviates"));
    }

    #[test]
    fn detects_sub_threshold_leakage() {
        let s = spec();
        let release = SanitizedRelease::new(vec![SanitizedItemset {
            id: bfly_common::ItemsetId::intern(&"a".parse().unwrap()),
            true_support: 3, // a vulnerable support leaked into the release!
            sanitized: 3,
        }]);
        let errors = audit_release(&s, &release);
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0], AuditError::BelowMinSupport { .. }));
    }

    #[test]
    fn empty_release_passes() {
        assert!(audit_release(&spec(), &SanitizedRelease::default()).is_empty());
    }
}
