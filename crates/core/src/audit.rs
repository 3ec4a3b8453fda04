//! Release auditing: verify a sanitized release against its contract before
//! it leaves the process.
//!
//! Perturbation bugs are privacy bugs, so a deployment wants a cheap,
//! independent invariant check between the publisher and the wire.
//! [`audit_release`] makes two checks per entry, independent of bias scheme
//! and history: the true support is at least `C` (the miner emitted nothing
//! below the threshold), and the sanitized value lies inside the widest
//! region any scheme could legally have used (`|T̃ − T| ≤ β^m(T) + α/2 + 1`).
//!
//! The pin audit checks the two rules that read the previous release, inside
//! the pass over each release against the stream's
//! [`crate::PublicationHistory`]: an unchanged true support keeps its
//! previous sanitized value (Prior Knowledge 2), and unpinned entries with
//! one true support (one FEC, a run in publication order) share one value.
//! [`crate::StreamPipeline`] runs both, in every build, on each release of a
//! [`crate::DefenseKind::Butterfly`] defense, and withholds a release that
//! fails either.

use crate::config::PrivacySpec;
use crate::release::{SanitizedItemset, SanitizedRelease};
use bfly_common::{ItemsetId, SanitizedSupport, Support};
use std::fmt;

/// An audit violation. `itemset` is the offending itemset's display form.
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
    /// An unchanged true support whose value moved off its pin.
    Unpinned {
        itemset: String,
        truth: u64,
        pinned: i64,
        sanitized: i64,
    },
    /// A FEC whose unpinned members do not share one value, reported under
    /// its first unpinned member.
    SplitClass {
        itemset: String,
        truth: u64,
        shared: i64,
        other: i64,
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
            AuditError::Unpinned { itemset, truth, pinned, sanitized } => write!(
                f,
                "{itemset}: true support {truth} is unchanged but {sanitized} replaced the pinned {pinned}"
            ),
            AuditError::SplitClass { itemset, truth, shared, other } => write!(
                f,
                "{itemset}: its FEC (support {truth}) publishes {shared} and {other}, not one shared value"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

impl AuditError {
    /// Display form of the offending itemset.
    pub(crate) fn itemset(&self) -> &str {
        match self {
            AuditError::OutOfRegion { itemset, .. }
            | AuditError::BelowMinSupport { itemset, .. }
            | AuditError::Unpinned { itemset, .. }
            | AuditError::SplitClass { itemset, .. } => itemset,
        }
    }
}

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

/// The FEC the pin audit is walking: its true support, and its first
/// unpinned member with that member's value once seen.
pub(crate) type ClassWalk = (Support, Option<(ItemsetId, SanitizedSupport)>);

/// Hold one entry, visited in publication order (one FEC is one run of a
/// true support), to the pin rules, given its `(true, sanitized)` pair in
/// the previous release.
pub(crate) fn audit_pin(
    errors: &mut Vec<AuditError>,
    e: &SanitizedItemset,
    previous: Option<(Support, SanitizedSupport)>,
    class: &mut Option<ClassWalk>,
) {
    let truth = e.true_support;
    if !matches!(class, Some((t, _)) if *t == truth) {
        *class = Some((truth, None));
    }
    let (_, first) = class.as_mut().expect("set above");
    match (previous, first.as_ref()) {
        (Some((t, pinned)), _) if t == truth && pinned != e.sanitized => {
            errors.push(AuditError::Unpinned {
                itemset: e.itemset().to_string(),
                truth,
                pinned,
                sanitized: e.sanitized,
            })
        }
        (Some((t, _)), _) if t == truth => {}
        (_, None) => *first = Some((e.id.clone(), e.sanitized)),
        (_, Some((id, shared))) if *shared != e.sanitized => errors.push(AuditError::SplitClass {
            itemset: id.to_string(),
            truth,
            shared: *shared,
            other: e.sanitized,
        }),
        _ => {}
    }
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
                let release = p.publish(&mined, &crate::PublicationHistory::default());
                let errors = audit_release(&s, &release);
                assert!(errors.is_empty(), "{}: {errors:?}", scheme.name());
            }
        }
    }

    #[test]
    fn detects_out_of_region_values() {
        let s = spec();
        let release = SanitizedRelease::new(vec![SanitizedItemset {
            id: bfly_common::ItemsetId::new("a".parse().unwrap()),
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
            id: bfly_common::ItemsetId::new("a".parse().unwrap()),
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

    #[test]
    fn pin_rules_flag_moved_pins_and_split_classes() {
        let entry = |s: &str, t: u64, sanitized: i64| SanitizedItemset {
            id: bfly_common::ItemsetId::new(s.parse().unwrap()),
            true_support: t,
            sanitized,
        };
        let audit = |entries: &[(SanitizedItemset, Option<(u64, i64)>)]| {
            let mut errors = Vec::new();
            let mut class = None;
            for (e, previous) in entries {
                audit_pin(&mut errors, e, *previous, &mut class);
            }
            errors
        };
        // A FEC at 30: `a` pinned to 27, `b` and `c` unpinned sharing 33;
        // `d` (40) pinned at another support, so free.
        let honest = [
            (entry("a", 30, 27), Some((30, 27))),
            (entry("b", 30, 33), None),
            (entry("c", 30, 33), Some((29, 20))),
            (entry("d", 40, 41), Some((39, 41))),
        ];
        assert!(audit(&honest).is_empty());

        let mut moved = honest.clone();
        moved[0].0.sanitized = 28;
        assert!(matches!(
            audit(&moved)[..],
            [AuditError::Unpinned { pinned: 27, .. }]
        ));

        let mut split = honest.clone();
        split[2].0.sanitized = 34;
        let errors = audit(&split);
        assert!(matches!(
            errors[..],
            [AuditError::SplitClass {
                shared: 33,
                other: 34,
                ..
            }]
        ));
        assert!(
            errors[0].to_string().starts_with("b: its FEC"),
            "{}",
            errors[0]
        );
    }
}
