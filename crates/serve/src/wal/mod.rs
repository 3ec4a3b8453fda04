//! Durable per-shard write-ahead release log (DESIGN.md §11).
//!
//! Each shard worker owns one append-only log under
//! `wal_dir/shard-<idx>/`, recording everything that shaped its streams:
//! key materializations (`open`), accepted transaction chunks (`ingest`,
//! logged before the pipeline advances), sanitized publications
//! (`release`, logged before fan-out), and periodic `snapshot`s that let
//! compaction drop history: a stream's counters and previous release, its
//! window named by position among the ingest records the log already
//! holds, so each transaction is logged once. The building blocks:
//!
//! * [`record`] — the checksummed, sequence-numbered record format;
//!   `ingest`/`release` payloads are exactly the wire protocol's binary
//!   frame payloads, so the log doubles as a byte-exact replay feed.
//! * `segment` — the storage seam: every file-system call of the log sits
//!   behind its `SegmentStore` (segment naming and listing, create-or-open
//!   with the directory syncs a creation owes, append, sync, `read_at`,
//!   truncate, remove), and its `SegmentReader` is the one way to walk a
//!   segment's records, one block at a time.
//! * [`secret`] — the deployment's base seed, stored once beside the shard
//!   directories before any shard opens.
//! * [`writer`] — the shard-thread append path: sync policy
//!   (`--wal-sync always|interval:<n>|never`), snapshot-keyed rotation,
//!   coverage-based compaction.
//! * [`replay`] — two policies over the reader: startup recovery
//!   (re-execute and *verify* the log, truncating a torn tail) and the
//!   log-based catch-up scan serving `subscribe {"from": ...}`.
//!
//! A failed append or sync does not kill the shard worker: the shard turns
//! read-only (see the `shard` module), and tests drive every path above
//! through an in-memory store that fails, tears and crashes on cue.

pub mod record;
pub mod secret;
pub(crate) mod segment;
pub mod writer;

pub mod replay;

#[cfg(test)]
pub(crate) mod fault;

pub use record::{StreamSnapshot, WalRecord};
pub use replay::{recover_shard, scan_catchup, RecoveredShard};
pub use writer::{WalWriter, WriterPosition};
