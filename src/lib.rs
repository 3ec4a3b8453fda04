//! # butterfly-repro
//!
//! A from-scratch Rust reproduction of **"Butterfly: Protecting Output
//! Privacy in Stream Mining"** (Ting Wang & Ling Liu, ICDE 2008).
//!
//! This facade crate re-exports the workspace's public API so examples and
//! downstream users have a single import surface:
//!
//! * [`common`] — itemsets, patterns with negation, transactions, sliding
//!   windows ([`bfly_common`]).
//! * [`datagen`] — synthetic BMS-WebView-1 / BMS-POS stand-in stream
//!   generators ([`bfly_datagen`]).
//! * [`mining`] — Moment (sliding-window closed itemsets), Eclat (the
//!   batch miner), Apriori (the reference), FP-stream ([`bfly_mining`]).
//! * [`inference`] — the attack engine: inclusion–exclusion derivation,
//!   support bounds, intra-/inter-window breach detection
//!   ([`bfly_inference`]).
//! * [`butterfly`] — the paper's contribution: basic / order-preserving /
//!   ratio-preserving / hybrid output perturbation and the stream publisher
//!   ([`bfly_core`]).
//! * [`serve`] — the sharded multi-tenant TCP stream service: per-key
//!   pipelines, bounded-queue backpressure, subscriber fan-out
//!   ([`bfly_serve`]).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```text
//! stream → StreamPipeline: MomentMiner (its ring is the window Ds(N, H))
//!        → Butterfly publisher → sanitized output
//!                ↑
//!   (ε, δ, C, K) privacy/precision contract
//! ```

pub use bfly_common as common;
pub use bfly_core as butterfly;
pub use bfly_datagen as datagen;
pub use bfly_inference as inference;
pub use bfly_mining as mining;
pub use bfly_serve as serve;
