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
//! order (true support ascending, members lexicographic) and reads the
//! stream's past from the [`PublicationHistory`] the pipeline owns, so the
//! pipeline's one delta and WAL recovery work unchanged for all of them.

mod privbasis;
mod suppress;

pub use privbasis::PrivBasisDefense;
pub use suppress::{SuppressionDefense, SuppressionStats};

use crate::config::PrivacySpec;
use crate::engine::Publisher;
use crate::history::PublicationHistory;
use crate::release::SanitizedRelease;
use crate::scheme::BiasScheme;
use bfly_mining::FrequentItemsets;
use std::fmt;

/// A publication-stage defense the stream pipeline can drive: consume one
/// window's mining output and the stream's history, emit the sanitized
/// release the outside world sees.
///
/// Contract:
/// * **Determinism** — output is a pure function of `(construction
///   parameters, seed, window, history)`; never of wall clock, iteration
///   order, or thread count. Every random draw comes from
///   [`crate::noise::noise_rng`], keyed on the seed (the stream's secret),
///   the history's publication index and a class. This is what makes runs
///   under one seed byte-reproducible, serve releases bit-identical to
///   in-process replays, and WAL recovery exact: restoring the history
///   restores the stream. Without the seed, the draws cannot be replayed.
/// * **Publication order** — release entries are sorted by true support
///   ascending, then lexicographic itemset, the order a subscriber's
///   reconstruction sorts into, so deltas round-trip for every backend.
/// * **History is read, never kept** — the previous release and the count
///   of releases emitted come from the [`PublicationHistory`] passed in;
///   what a defense keeps (buffers, a ledger) must not change its output.
pub trait PrivacyDefense: Send + fmt::Debug {
    /// Which registry entry this defense is.
    fn kind(&self) -> DefenseKind;

    /// The privacy/precision contract parameters the defense was built
    /// with (every backend keys its behaviour off `C` and `K` even when it
    /// ignores Butterfly's ε/δ semantics).
    fn spec(&self) -> &PrivacySpec;

    /// Sanitize one window's mining output, published after the releases
    /// `history` describes.
    fn publish(
        &mut self,
        frequent: &FrequentItemsets,
        history: &PublicationHistory,
    ) -> SanitizedRelease;

    /// Side-effect ledger for removal-based backends (how much utility the
    /// hiding cost), if this defense keeps one.
    fn suppression_stats(&self) -> Option<SuppressionStats> {
        None
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

    fn publish(
        &mut self,
        frequent: &FrequentItemsets,
        history: &PublicationHistory,
    ) -> SanitizedRelease {
        Publisher::publish(self, frequent, history)
    }
}

/// Registry of every defense the workspace ships, for runtime selection
/// (CLI `--defense`, the serve config, the wire protocol's `bind` op).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// The paper's FEC + bias + noise-region perturbation (default). The
    /// pipeline audits every release of a defense of this kind, in every
    /// build, and withholds one that fails ([`crate::audit`]): each entry's
    /// true support is at least `C` and its value inside the α-region of an
    /// in-budget bias; an unchanged true support keeps its pinned value,
    /// and unpinned FEC-mates share one value.
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

    /// Publish `windows` in order through `defense`, recording each release
    /// in one history as the pipeline would; returns the releases.
    fn run(
        defense: &mut dyn PrivacyDefense,
        windows: &[FrequentItemsets],
    ) -> Vec<SanitizedRelease> {
        let mut history = PublicationHistory::default();
        windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let release = defense.publish(w, &history);
                history.record(&release, i as u64 + 1);
                release
            })
            .collect()
    }

    #[test]
    fn publisher_behind_the_trait_is_bit_identical() {
        // The boxed trait path and the direct Publisher produce the same
        // releases over the same history.
        let windows = [
            window(&[("a", 30), ("b", 32), ("c", 60)]),
            window(&[("a", 30), ("b", 33), ("c", 60), ("d", 62)]),
            window(&[("a", 31), ("c", 60)]),
        ];
        let mut direct = Publisher::new(spec(), BiasScheme::RatioPreserving, 7);
        let mut boxed = DefenseSpec::butterfly().build(spec(), BiasScheme::RatioPreserving, 7);
        assert_eq!(boxed.kind(), DefenseKind::Butterfly);
        assert_eq!(run(&mut direct, &windows), run(boxed.as_mut(), &windows));
    }

    #[test]
    fn every_kind_builds_and_reports_itself() {
        for kind in DefenseKind::ALL {
            let d = DefenseSpec::new(kind).build(spec(), BiasScheme::Basic, 1);
            assert_eq!(d.kind(), kind);
            assert_eq!(d.spec().c(), 25);
        }
    }

    #[test]
    fn an_empty_history_restarts_every_defense_from_scratch() {
        let windows = [
            window(&[("a", 30), ("b", 32), ("c", 60)]),
            window(&[("a", 31), ("b", 32), ("c", 59)]),
        ];
        for kind in DefenseKind::ALL {
            let mut d = DefenseSpec::new(kind).build(spec(), BiasScheme::Basic, 5);
            let first = run(d.as_mut(), &windows);
            let again = run(d.as_mut(), &windows);
            assert_eq!(
                first, again,
                "{kind}: an empty history did not restart the stream"
            );
        }
    }
}
