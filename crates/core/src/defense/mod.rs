//! Pluggable output-privacy defenses for the publication path.
//!
//! Butterfly's bias/noise perturbation is one point in the output-privacy
//! design space. [`PrivacyDefense`] is the seam that makes the publication
//! stage replaceable (the miner is not: every pipeline runs Moment): the
//! stream pipeline hands each full window's (closed) frequent itemsets to
//! the defense, and the defense decides what the outside world sees.
//! [`DefenseKind`] is the runtime registry behind CLI `--defense`, the
//! serve config, and the wire protocol's per-stream `bind`.
//!
//! Three backends ship today, chosen for being architecturally different —
//! which is what keeps the trait honest instead of a rename of
//! [`BiasScheme`]:
//!
//! * **butterfly** ([`Publisher`]) — the paper's FEC partition + bias +
//!   shared-noise-region scheme with the republication rule. The default,
//!   bit-identical to the pre-trait publication path.
//! * **privbasis** ([`PrivBasisDefense`]) — an ε-differentially-private
//!   top-k release in the spirit of PrivBasis (Li et al., VLDB 2012):
//!   Laplace-noised selection of the k most frequent itemsets, then
//!   Laplace-noised counts, under sequential composition of a per-window
//!   budget. Perturbation, but with a worst-case guarantee instead of
//!   Butterfly's targeted (ε, δ) contract.
//! * **suppress** ([`SuppressionDefense`]) — frequent-itemset hiding by
//!   suppression: publishes exact supports but removes the spanning
//!   itemsets whose lattices let the adversary derive a vulnerable
//!   pattern. Removal instead of perturbation, with side-effect
//!   accounting.
//!
//! Every defense publishes [`SanitizedRelease`]s in the shared publication
//! order (true support ascending, members lexicographic) and reports a
//! [`ReleaseDelta`] against its previous release, so the serve layer's
//! snapshot/delta wire cadence works unchanged for all of them.

mod privbasis;
mod suppress;

pub use privbasis::PrivBasisDefense;
pub use suppress::{SuppressionDefense, SuppressionStats};

use crate::config::PrivacySpec;
use crate::engine::{Publisher, ReleaseDelta};
use crate::release::SanitizedRelease;
use crate::scheme::BiasScheme;
use bfly_mining::FrequentItemsets;
use std::fmt;

/// A publication-stage defense the stream pipeline can drive: consume one
/// window's mining output, emit the sanitized release the outside world
/// sees plus what changed against the previous one.
///
/// Contract:
/// * **Determinism** — output is a pure function of `(construction
///   parameters, seed, publish-call sequence)`; never of wall clock,
///   iteration order, or thread count. This is what makes CLI runs
///   byte-reproducible and serve releases bit-identical to in-process
///   replays.
/// * **Publication order** — release entries are sorted by true support
///   ascending, then lexicographic itemset, the order
///   [`ReleaseDelta::apply`] reconstructs; deltas therefore round-trip for
///   every backend, which is what the serve layer's snapshot/delta cadence
///   relies on.
/// * **Stateful across windows** — a defense may carry republication
///   caches or previous releases; [`PrivacyDefense::reset`] drops that
///   state when retargeting to a new stream.
pub trait PrivacyDefense: Send + fmt::Debug {
    /// Which registry entry this defense is.
    fn kind(&self) -> DefenseKind;

    /// The privacy/precision contract parameters the defense was built
    /// with (every backend keys its behaviour off `C` and `K` even when it
    /// ignores Butterfly's ε/δ semantics).
    fn spec(&self) -> &PrivacySpec;

    /// Sanitize one window's mining output and report what changed against
    /// the previous publication.
    fn publish_with_delta(
        &mut self,
        frequent: &FrequentItemsets,
    ) -> (SanitizedRelease, ReleaseDelta);

    /// Sanitize one window's mining output.
    fn publish(&mut self, frequent: &FrequentItemsets) -> SanitizedRelease {
        self.publish_with_delta(frequent).0
    }

    /// Drop all cross-window state (e.g. when retargeting to a new stream).
    fn reset(&mut self);

    /// Reinstate cross-window state from a recovered previous release, as
    /// if `published` windows had already been released and the last one
    /// was `previous` — followed by live publishes, the stream must be
    /// bit-identical to one that never restarted.
    ///
    /// Every shipped defense implements this (it is what makes WAL crash
    /// recovery exact); the default drops state so a hypothetical stateless
    /// defense — whose output depends only on the window — stays correct.
    fn restore(&mut self, published: u64, previous: &SanitizedRelease) {
        let _ = (published, previous);
        self.reset();
    }

    /// Whether releases honour Butterfly's audit contract (noise within the
    /// α-region of an in-budget bias, republication pinning). The pipeline
    /// only runs [`crate::audit::audit_release`] on defenses that claim it.
    fn honors_butterfly_contract(&self) -> bool {
        false
    }

    /// Side-effect ledger for removal-based backends (how much utility the
    /// hiding cost), if this defense keeps one.
    fn suppression_stats(&self) -> Option<SuppressionStats> {
        None
    }

    /// Clone into a box — what lets `Box<dyn PrivacyDefense>` (and the
    /// pipelines holding one) be `Clone` like every concrete defense.
    fn boxed_clone(&self) -> Box<dyn PrivacyDefense>;
}

impl Clone for Box<dyn PrivacyDefense> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

impl PrivacyDefense for Box<dyn PrivacyDefense> {
    fn kind(&self) -> DefenseKind {
        (**self).kind()
    }

    fn spec(&self) -> &PrivacySpec {
        (**self).spec()
    }

    fn publish_with_delta(
        &mut self,
        frequent: &FrequentItemsets,
    ) -> (SanitizedRelease, ReleaseDelta) {
        (**self).publish_with_delta(frequent)
    }

    fn publish(&mut self, frequent: &FrequentItemsets) -> SanitizedRelease {
        (**self).publish(frequent)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn restore(&mut self, published: u64, previous: &SanitizedRelease) {
        (**self).restore(published, previous)
    }

    fn honors_butterfly_contract(&self) -> bool {
        (**self).honors_butterfly_contract()
    }

    fn suppression_stats(&self) -> Option<SuppressionStats> {
        (**self).suppression_stats()
    }

    fn boxed_clone(&self) -> Box<dyn PrivacyDefense> {
        (**self).boxed_clone()
    }
}

/// Butterfly itself, behind the seam it used to *be*: the [`Publisher`] is
/// the default [`PrivacyDefense`], and routing it through the trait changes
/// nothing — output stays bit-identical to driving the publisher directly
/// (pinned by the release differential and serve byte-identity suites).
impl PrivacyDefense for Publisher {
    fn kind(&self) -> DefenseKind {
        DefenseKind::Butterfly
    }

    fn spec(&self) -> &PrivacySpec {
        Publisher::spec(self)
    }

    fn publish_with_delta(
        &mut self,
        frequent: &FrequentItemsets,
    ) -> (SanitizedRelease, ReleaseDelta) {
        Publisher::publish_with_delta(self, frequent)
    }

    fn reset(&mut self) {
        Publisher::reset(self)
    }

    fn restore(&mut self, published: u64, previous: &SanitizedRelease) {
        Publisher::restore(self, published, previous)
    }

    fn honors_butterfly_contract(&self) -> bool {
        true
    }

    fn boxed_clone(&self) -> Box<dyn PrivacyDefense> {
        Box::new(self.clone())
    }
}

/// Registry of every defense the workspace ships, for runtime selection
/// (CLI `--defense`, the serve config, the wire protocol's `bind` op).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// The paper's FEC + bias + noise-region perturbation (default).
    Butterfly,
    /// ε-DP top-k release with Laplace-noised selection and counts.
    PrivBasis,
    /// Sensitive-itemset suppression (exact supports, removed spans).
    Suppression,
}

impl DefenseKind {
    /// Every defense, in registry order.
    pub const ALL: [DefenseKind; 3] = [
        DefenseKind::Butterfly,
        DefenseKind::PrivBasis,
        DefenseKind::Suppression,
    ];

    /// Stable name (what `--defense` and the `bind` op accept).
    pub fn name(self) -> &'static str {
        match self {
            DefenseKind::Butterfly => "butterfly",
            DefenseKind::PrivBasis => "privbasis",
            DefenseKind::Suppression => "suppress",
        }
    }

    /// Reverse of [`DefenseKind::name`].
    pub fn from_name(name: &str) -> Option<DefenseKind> {
        DefenseKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The valid names, comma-joined — every rejection of an unknown
    /// defense (CLI flag, wire `bind`) quotes this list, mirroring the
    /// unknown-flag UX.
    pub fn valid_names() -> String {
        DefenseKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DefenseKind {
    type Err = bfly_common::Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DefenseKind::from_name(s).ok_or_else(|| {
            bfly_common::Error::Parse(format!(
                "unknown defense {s:?} (valid: {})",
                DefenseKind::valid_names()
            ))
        })
    }
}

/// A runtime defense selection plus the knobs the non-Butterfly backends
/// need — the value CLI flags and the serve config reduce to, and the
/// single construction path every deployment goes through
/// ([`DefenseSpec::build`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DefenseSpec {
    /// Which backend to build.
    pub kind: DefenseKind,
    /// PrivBasis per-window privacy budget ε_w (ignored by the others).
    pub dp_budget: f64,
    /// PrivBasis release-size cap k (ignored by the others).
    pub dp_top_k: usize,
}

impl DefenseSpec {
    /// A selection with the default knobs (ε_w = 1, k = 50).
    pub fn new(kind: DefenseKind) -> Self {
        DefenseSpec {
            kind,
            dp_budget: 1.0,
            dp_top_k: 50,
        }
    }

    /// The default: Butterfly.
    pub fn butterfly() -> Self {
        DefenseSpec::new(DefenseKind::Butterfly)
    }

    /// Reject knob values the selected backend cannot run with — the same
    /// bind-time validation UX as [`PrivacySpec::checked`]: errors at
    /// config time, not panics at the first record.
    pub fn validate(&self) -> Result<(), String> {
        if self.kind == DefenseKind::PrivBasis {
            if !(self.dp_budget.is_finite() && self.dp_budget > 0.0) {
                return Err(format!(
                    "dp-budget must be positive and finite, got {}",
                    self.dp_budget
                ));
            }
            if self.dp_top_k == 0 {
                return Err("dp-top-k must be positive".into());
            }
        }
        Ok(())
    }

    /// Construct the selected defense.
    ///
    /// # Panics
    /// On knob values [`DefenseSpec::validate`] rejects.
    pub fn build(
        &self,
        spec: PrivacySpec,
        scheme: BiasScheme,
        seed: u64,
    ) -> Box<dyn PrivacyDefense> {
        match self.kind {
            DefenseKind::Butterfly => Box::new(Publisher::new(spec, scheme, seed)),
            DefenseKind::PrivBasis => Box::new(PrivBasisDefense::new(
                spec,
                self.dp_budget,
                self.dp_top_k,
                seed,
            )),
            DefenseKind::Suppression => Box::new(SuppressionDefense::new(spec)),
        }
    }
}

impl Default for DefenseSpec {
    fn default() -> Self {
        DefenseSpec::butterfly()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::ItemSet;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn spec() -> PrivacySpec {
        PrivacySpec::new(25, 5, 0.04, 1.0)
    }

    fn window(supports: &[(&str, u64)]) -> FrequentItemsets {
        FrequentItemsets::new(supports.iter().map(|&(s, t)| (iset(s), t)))
    }

    #[test]
    fn names_round_trip_and_errors_list_valid_names() {
        for kind in DefenseKind::ALL {
            assert_eq!(DefenseKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<DefenseKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!(DefenseKind::from_name("nope").is_none());
        let err = "nope".parse::<DefenseKind>().unwrap_err().to_string();
        assert!(err.contains("unknown defense"), "got {err}");
        for kind in DefenseKind::ALL {
            assert!(err.contains(kind.name()), "{err} missing {kind}");
        }
    }

    #[test]
    fn spec_validation_guards_privbasis_knobs() {
        assert!(DefenseSpec::butterfly().validate().is_ok());
        let mut d = DefenseSpec::new(DefenseKind::PrivBasis);
        assert!(d.validate().is_ok());
        d.dp_budget = 0.0;
        assert!(d.validate().is_err());
        d.dp_budget = 1.0;
        d.dp_top_k = 0;
        assert!(d.validate().is_err());
        // Butterfly ignores the DP knobs entirely.
        let b = DefenseSpec {
            dp_budget: -1.0,
            dp_top_k: 0,
            ..DefenseSpec::butterfly()
        };
        assert!(b.validate().is_ok());
    }

    #[test]
    fn publisher_behind_the_trait_is_bit_identical() {
        // The tentpole invariant at unit scale: the boxed trait path and
        // the direct Publisher produce the same releases and deltas.
        let windows = [
            window(&[("a", 30), ("b", 32), ("c", 60)]),
            window(&[("a", 30), ("b", 33), ("c", 60), ("d", 62)]),
            window(&[("a", 31), ("c", 60)]),
        ];
        let mut direct = Publisher::new(spec(), BiasScheme::RatioPreserving, 7);
        let mut boxed = DefenseSpec::butterfly().build(spec(), BiasScheme::RatioPreserving, 7);
        assert_eq!(boxed.kind(), DefenseKind::Butterfly);
        assert!(boxed.honors_butterfly_contract());
        for w in &windows {
            let (rd, dd) = direct.publish_with_delta(w);
            let (rb, db) = boxed.publish_with_delta(w);
            assert_eq!(rd, rb, "release diverged");
            assert_eq!(dd, db, "delta diverged");
        }
    }

    #[test]
    fn boxed_clone_preserves_republication_state() {
        let mut boxed = DefenseSpec::butterfly().build(spec(), BiasScheme::Basic, 3);
        let w = window(&[("a", 40), ("b", 31)]);
        let first = boxed.publish(&w);
        let mut cloned = boxed.clone();
        // The clone carries the pin cache: republication holds across it.
        assert_eq!(cloned.publish(&w), first);
        assert_eq!(boxed.publish(&w), first);
    }

    #[test]
    fn every_kind_builds_and_reports_itself() {
        for kind in DefenseKind::ALL {
            let d = DefenseSpec::new(kind).build(spec(), BiasScheme::Basic, 1);
            assert_eq!(d.kind(), kind);
            assert_eq!(d.spec().c(), 25);
            assert_eq!(
                d.honors_butterfly_contract(),
                kind == DefenseKind::Butterfly
            );
        }
    }

    #[test]
    fn every_defense_round_trips_deltas() {
        // The serve layer's wire invariant, for every backend:
        // delta.apply(prev) == next, entry order included.
        let windows = [
            window(&[("a", 30), ("b", 32), ("c", 60), ("ab", 28)]),
            window(&[("a", 30), ("b", 34), ("c", 60), ("d", 62)]),
            window(&[("b", 34), ("d", 61)]),
        ];
        for kind in DefenseKind::ALL {
            let mut d = DefenseSpec::new(kind).build(spec(), BiasScheme::Basic, 11);
            let mut prev = SanitizedRelease::default();
            for w in &windows {
                let (release, delta) = d.publish_with_delta(w);
                assert_eq!(
                    delta.apply(&prev),
                    release,
                    "{kind}: delta does not reconstruct the release"
                );
                prev = release;
            }
        }
    }

    #[test]
    fn reset_restarts_every_defense_from_scratch() {
        let windows = [
            window(&[("a", 30), ("b", 32), ("c", 60)]),
            window(&[("a", 31), ("b", 32), ("c", 59)]),
        ];
        for kind in DefenseKind::ALL {
            let mut d = DefenseSpec::new(kind).build(spec(), BiasScheme::Basic, 5);
            let first: Vec<_> = windows.iter().map(|w| d.publish(w)).collect();
            d.reset();
            let again: Vec<_> = windows.iter().map(|w| d.publish(w)).collect();
            assert_eq!(first, again, "{kind}: reset did not restart the stream");
        }
    }
}
