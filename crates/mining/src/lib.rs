//! Frequent-itemset miners for the Butterfly reproduction.
//!
//! The paper hosts Butterfly on top of *Moment* (Chi et al., ICDM 2004), a
//! sliding-window miner of **closed** frequent itemsets; its repro target
//! also names *FP-stream* (Giannella et al.), the tilted-time-window stream
//! miner. This crate implements both, plus one batch miner and the
//! reference they are validated against:
//!
//! * [`moment`] — an incremental closed-enumeration-tree (CET) miner over a
//!   sliding window, maintaining exact closed frequent itemsets under both
//!   insertions and deletions; the pipeline's one miner.
//! * [`eclat`] — the vertical (tidset) batch miner: every static database
//!   the shipped code mines (`butterfly mine`, `rules`, `attack`, the figure
//!   runner, FP-stream's per-batch pass), and the re-mine Moment is tested
//!   against.
//! * [`apriori`] — the level-wise baseline; trivially correct, the one
//!   reference everything else is held to.
//! * [`fpstream`] — FP-stream with logarithmic tilted-time windows for
//!   approximate frequent itemsets over long stream histories.
//! * [`closed`] — closed-itemset derivation and frequent-set expansion.
//! * [`rules`] — association-rule generation and confidence preservation,
//!   the downstream-utility measure motivating ratio preservation (§VI-B).
//!
//! All miners agree on [`FrequentItemsets`] as their output vocabulary.

pub mod apriori;
pub mod backend;
pub mod closed;
pub mod eclat;
pub mod fpstream;
pub mod moment;
pub mod result;
pub mod rules;

pub use apriori::Apriori;
pub use backend::MinerBackend;
pub use eclat::Eclat;
pub use fpstream::{FpStream, FpStreamConfig};
pub use moment::MomentMiner;
pub use result::{FrequentItemset, FrequentItemsets};
pub use rules::{generate_rules, AssociationRule};
