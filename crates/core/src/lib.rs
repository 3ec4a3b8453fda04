//! **Butterfly** — the paper's contribution: output-privacy perturbation for
//! stream frequent-pattern mining (§V–§VI).
//!
//! The pipeline: a window's (closed) frequent itemsets are partitioned into
//! [`fec`] *frequency equivalence classes*; a [`scheme`] assigns each FEC a
//! bias within its maximum adjustable range; a [`noise`] region of fixed
//! integer width `α` (variance `σ² ≥ δK²/2`) centred on that bias perturbs
//! each support; the [`Publisher`] applies the republication rule that pins
//! sanitized values across windows while the true support is unchanged
//! (defeating averaging attacks); and [`metrics`] measures exactly what the
//! paper's §VII measures: `avg_pred`, `avg_prig`, `ropp`, `rrpp`.
//!
//! Scheme zoo (§V-C, §VI):
//! * **Basic** — zero bias everywhere, minimum precision–privacy ratio.
//! * **Order-preserving** — Algorithm 1's dynamic program minimizing
//!   weighted pairwise inversion probability over a depth-`γ` window.
//! * **Ratio-preserving** — Algorithm 2's bottom-up proportional biases.
//! * **Hybrid(λ)** — the linear blend of the two.

pub mod audit;
pub mod config;
pub mod defense;
pub mod engine;
#[cfg(test)]
mod exact;
pub mod fec;
pub mod metrics;
pub mod noise;
pub mod order;
pub mod pipeline;
pub mod ratio;
pub mod release;
pub mod scheme;

pub use audit::{audit_release, AuditError};
pub use config::PrivacySpec;
pub use defense::{
    DefenseKind, DefenseSpec, PrivBasisDefense, PrivacyDefense, SuppressionDefense,
    SuppressionStats,
};
pub use engine::{seeded_noise, EngineStats, Publisher, ReleaseDelta};
pub use fec::{partition_into_fecs, Fec};
pub use metrics::WindowMetrics;
pub use noise::NoiseRegion;
pub use pipeline::{StreamPipeline, WindowRelease};
pub use release::{SanitizedItemset, SanitizedRelease};
pub use scheme::{BiasScheme, SchemeName};
