//! The attack engine: everything §IV of the paper says an adversary can do
//! with published mining output.
//!
//! * [`lattice`] — the multi-attribute aggregation lattice `X_I^J`.
//! * [`mod@derive`] — **deriving pattern support**: the inclusion–exclusion
//!   identity `T(I(J\I)̄) = Σ_{X ∈ X_I^J} (−1)^{|X\I|} T(X)` over exact or
//!   perturbed support views.
//! * [`bounds`] — **estimating itemset support**: the non-derivable-itemset
//!   upper/lower bounds on `T(J)` from its subsets' supports.
//! * [`attack`] — intra-window breach enumeration (Example 3) and
//!   inter-window inference combining slide-transition, negative-border and
//!   lattice bounds (Example 5).
//! * [`adversary`] — the best-effort estimator an adversary runs against
//!   *Butterfly-perturbed* output, used to measure the achieved privacy
//!   guarantee (`prig`).
//! * [`knowledge`] — knowledge points (Prior Knowledge 3) and the variance
//!   compensation that restores the privacy floor under side information.
//! * [`truth`] — the exact support oracle the evaluations compare against:
//!   vertical tid-bitmap counting with cross-window delta maintenance and
//!   per-window memoization.

pub mod adversary;
pub mod attack;
pub mod bounds;
pub mod derive;
pub mod knowledge;
pub mod lattice;
pub mod residual;
pub mod truth;

pub use attack::{find_inter_window_breaches, find_intra_window_breaches, Breach};
pub use bounds::support_bounds;
pub use derive::{derive_pattern_support, derive_pattern_support_f64, SupportView};
pub use knowledge::KnowledgeModel;
pub use lattice::Lattice;
pub use residual::{claim_breaches, score_claims, AttackScore, BreachClaim};
pub use truth::GroundTruth;
