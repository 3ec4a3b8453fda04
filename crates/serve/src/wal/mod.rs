//! Durable per-shard write-ahead release log (DESIGN.md §11).
//!
//! Each shard worker owns one append-only log under
//! `wal_dir/shard-<idx>/`, recording everything that shaped its streams:
//! key materializations (`open`), accepted transaction chunks (`ingest`,
//! logged before the pipeline advances), sanitized publications
//! (`release`, logged before fan-out), and periodic full-state
//! `snapshot`s that let compaction drop history. The building blocks:
//!
//! * [`record`] — the checksummed, sequence-numbered record format;
//!   `ingest`/`release` payloads are exactly the wire protocol's binary
//!   frame payloads, so the log doubles as a byte-exact replay feed.
//! * [`segment`] — segment file naming and listing; append-only while
//!   live, immutable once rotated.
//! * [`writer`] — the shard-thread append path: sync policy
//!   (`--wal-sync always|interval:<n>|never`), snapshot-keyed rotation,
//!   coverage-based compaction.
//! * [`replay`] — startup recovery (re-execute and *verify* the log,
//!   truncating a torn tail) and the log-based catch-up scan serving
//!   `subscribe {"from": ...}`.

pub mod record;
pub mod segment;
pub mod writer;

pub mod replay;

pub use record::{StreamSnapshot, WalRecord};
pub use replay::{recover_shard, scan_catchup, RecoveredShard, RecoveredStream};
pub use writer::{WalWriter, WriterPosition};
