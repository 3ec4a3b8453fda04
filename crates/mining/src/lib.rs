//! Frequent-itemset miners for the Butterfly reproduction.
//!
//! The paper hosts Butterfly on top of *Moment* (Chi et al., ICDM 2004), a
//! sliding-window miner of **closed** frequent itemsets; its repro target
//! also names *FP-stream* (Giannella et al.), the tilted-time-window stream
//! miner. This crate implements both, plus the static miners they are
//! validated against:
//!
//! * [`apriori`] — the level-wise baseline; trivially correct, used as the
//!   test oracle for everything else.
//! * [`fpgrowth`] — FP-tree based miner; the per-batch engine of FP-stream.
//! * [`closed`] — closed-itemset derivation and frequent-set expansion.
//! * [`moment`] — an incremental closed-enumeration-tree (CET) miner over a
//!   sliding window, maintaining exact closed frequent itemsets under both
//!   insertions and deletions.
//! * [`fpstream`] — FP-stream with logarithmic tilted-time windows for
//!   approximate frequent itemsets over long stream histories.
//! * [`eclat`] / [`charm`] — vertical (tidset) miners for all / closed
//!   frequent itemsets: structurally independent cross-validation paths.
//! * [`rules`] — association-rule generation and confidence preservation,
//!   the downstream-utility measure motivating ratio preservation (§VI-B).
//!
//! All miners agree on [`FrequentItemsets`] as their output vocabulary.

pub mod apriori;
pub mod backend;
pub mod charm;
pub mod closed;
pub mod eclat;
pub mod fpgrowth;
pub mod fpstream;
pub mod fptree;
pub mod moment;
pub mod rescan;
pub mod result;
pub mod rules;

pub use apriori::Apriori;
pub use backend::{BackendKind, BatchBackend, BatchMiner, FpStreamBackend, MinerBackend};
pub use charm::Charm;
pub use eclat::Eclat;
pub use fpgrowth::FpGrowth;
pub use fpstream::{FpStream, FpStreamConfig};
pub use moment::MomentMiner;
pub use rescan::RescanMiner;
pub use result::{FrequentItemset, FrequentItemsets};
pub use rules::{generate_rules, AssociationRule};
