//! Per-shard counters, exposed through the `stats` protocol verb.

use bfly_common::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Live counters for one shard. All relaxed atomics — they are monitoring
/// data, not synchronization; the queue itself orders the work.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Transactions accepted into the ingress queue.
    pub ingested: AtomicU64,
    /// Transactions shed because the ingress queue was full.
    pub shed: AtomicU64,
    /// Transactions the worker has finished processing.
    pub processed: AtomicU64,
    /// Sanitized windows published (cadence + final flushes).
    pub published: AtomicU64,
    /// Microseconds the worker spent inside `publish_now` — Moment's settle
    /// over every arrival and departure since the last publication (the
    /// walk, or the rebuild when they number a window), the closed-set
    /// read-out and the defense, withheld releases included — so
    /// `publish_us / published` is the live per-window cost of mining and
    /// publishing a window.
    pub publish_us: AtomicU64,
    /// The slowest single `publish_now`, in microseconds.
    pub publish_us_max: AtomicU64,
    /// Microseconds the worker spent logging and advancing ingest chunks —
    /// the log append and Moment's ring, item bitmaps and queue, plus the
    /// turnover re-rank's rebuild when an arrival fires it, but not the
    /// settle — publications excluded (`publish_us` has those and the
    /// settle), so `ingest_us / processed` is the live per-transaction
    /// ingest cost. Timed per chunk, never per transaction.
    pub ingest_us: AtomicU64,
    /// The slowest single chunk, in microseconds.
    pub ingest_us_max: AtomicU64,
    /// Moment tree rebuilds on this shard's streams since it started:
    /// turnover re-ranks (in `ingest_us`) and settles whose queue held a
    /// whole window (in `publish_us`). At `every ≥ W/2` each publication
    /// rebuilds and the re-rank never fires.
    pub moment_rebuilds: AtomicU64,
    /// Moment's work on this shard's streams since it started, in codes
    /// (`MomentMiner::visits`: the codes the settle walks visit plus those
    /// `explore` tallies), summed per chunk like `moment_rebuilds`.
    pub moment_visits: AtomicU64,
    /// Current ingress queue depth (accepted minus dequeued).
    pub queue_depth: AtomicU64,
    /// Release entries that failed the contract audit; every release
    /// holding one was withheld from the log and the fan-out.
    pub audit_violations: AtomicU64,
    /// Distinct stream keys this shard owns.
    pub keys: AtomicU64,
    /// Subscriber connections dropped for falling behind the fan-out.
    pub subscriber_drops: AtomicU64,
    /// Chunked submissions into the ingress queue (one channel op each).
    pub batch_submits: AtomicU64,
    /// Transactions carried by those submissions (`batch_tx /
    /// batch_submits` is the realized mean chunk size).
    pub batch_tx: AtomicU64,
    /// Set once, by the first failed log append or sync: why the shard
    /// turned read-only. Every later ingest is refused with it.
    pub read_only: OnceLock<String>,
}

impl ShardStats {
    /// Snapshot as a JSON object (one row of the `stats` reply).
    pub fn to_json(&self, shard: usize) -> Json {
        Json::obj([
            ("shard", Json::from(shard as u64)),
            (
                "ingested",
                Json::from(self.ingested.load(Ordering::Relaxed)),
            ),
            ("shed", Json::from(self.shed.load(Ordering::Relaxed))),
            (
                "processed",
                Json::from(self.processed.load(Ordering::Relaxed)),
            ),
            (
                "published",
                Json::from(self.published.load(Ordering::Relaxed)),
            ),
            (
                "publish_us",
                Json::from(self.publish_us.load(Ordering::Relaxed)),
            ),
            (
                "publish_us_max",
                Json::from(self.publish_us_max.load(Ordering::Relaxed)),
            ),
            (
                "ingest_us",
                Json::from(self.ingest_us.load(Ordering::Relaxed)),
            ),
            (
                "ingest_us_max",
                Json::from(self.ingest_us_max.load(Ordering::Relaxed)),
            ),
            (
                "moment_rebuilds",
                Json::from(self.moment_rebuilds.load(Ordering::Relaxed)),
            ),
            (
                "moment_visits",
                Json::from(self.moment_visits.load(Ordering::Relaxed)),
            ),
            (
                "queue_depth",
                Json::from(self.queue_depth.load(Ordering::Relaxed)),
            ),
            (
                "audit_violations",
                Json::from(self.audit_violations.load(Ordering::Relaxed)),
            ),
            ("keys", Json::from(self.keys.load(Ordering::Relaxed))),
            (
                "subscriber_drops",
                Json::from(self.subscriber_drops.load(Ordering::Relaxed)),
            ),
            (
                "batch_submits",
                Json::from(self.batch_submits.load(Ordering::Relaxed)),
            ),
            (
                "batch_tx",
                Json::from(self.batch_tx.load(Ordering::Relaxed)),
            ),
            ("read_only", Json::Bool(self.read_only.get().is_some())),
        ])
    }

    /// Bump a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Live counters for the reactor event loop (reactor io mode only),
/// reported under the server stats' `"reactor"` key.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// File descriptors currently registered with epoll (listener, wake
    /// pipe, and one per live connection). A gauge, not a counter.
    pub fds: AtomicU64,
    /// Connections accepted over the reactor's lifetime.
    pub accepted_conns: AtomicU64,
    /// `epoll_wait` returns that delivered at least one readiness event.
    pub wakeups: AtomicU64,
    /// Socket writes that could not take a full buffered chunk (the peer's
    /// window filled; the rest waits for write readiness).
    pub partial_writes: AtomicU64,
}

impl ReactorStats {
    /// Snapshot as the `"reactor"` object of the server stats reply.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fds", Json::from(self.fds.load(Ordering::Relaxed))),
            (
                "accepted_conns",
                Json::from(self.accepted_conns.load(Ordering::Relaxed)),
            ),
            ("wakeups", Json::from(self.wakeups.load(Ordering::Relaxed))),
            (
                "partial_writes",
                Json::from(self.partial_writes.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Live counters for the write-ahead log, aggregated across all shard
/// writers and reported under the server stats' `"wal"` key. Recovery
/// counters are filled once by startup replay; the rest tick per append.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Record bytes appended (headers + payloads), across all shards.
    pub bytes_appended: AtomicU64,
    /// Records appended.
    pub records_appended: AtomicU64,
    /// Bytes of `snapshot` records among `bytes_appended`: the snapshots'
    /// share of the log. Each is its header plus the previous release's
    /// entries; its window is named by position, not copied.
    pub snapshot_bytes: AtomicU64,
    /// `fsync` calls issued by the sync policy.
    pub fsyncs: AtomicU64,
    /// Live segment files across all shards (a gauge: created minus
    /// compacted).
    pub segments: AtomicU64,
    /// Segments deleted by snapshot-coverage compaction.
    pub segments_compacted: AtomicU64,
    /// Publications rebuilt by startup replay (the over-the-wire signal
    /// that a restart recovered state instead of starting fresh).
    pub recovered_windows: AtomicU64,
    /// Torn tails truncated by startup replay (at most one per shard per
    /// recovery — a torn record can only be the last thing written).
    pub truncated_tails: AtomicU64,
    /// Bytes those truncations dropped.
    pub truncated_bytes: AtomicU64,
}

impl WalStats {
    /// Snapshot as the `"wal"` object of the server stats reply.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "bytes_appended",
                Json::from(self.bytes_appended.load(Ordering::Relaxed)),
            ),
            (
                "records_appended",
                Json::from(self.records_appended.load(Ordering::Relaxed)),
            ),
            (
                "snapshot_bytes",
                Json::from(self.snapshot_bytes.load(Ordering::Relaxed)),
            ),
            ("fsyncs", Json::from(self.fsyncs.load(Ordering::Relaxed))),
            (
                "segments",
                Json::from(self.segments.load(Ordering::Relaxed)),
            ),
            (
                "segments_compacted",
                Json::from(self.segments_compacted.load(Ordering::Relaxed)),
            ),
            (
                "recovered_windows",
                Json::from(self.recovered_windows.load(Ordering::Relaxed)),
            ),
            (
                "truncated_tails",
                Json::from(self.truncated_tails.load(Ordering::Relaxed)),
            ),
            (
                "truncated_bytes",
                Json::from(self.truncated_bytes.load(Ordering::Relaxed)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_every_counter() {
        let s = ShardStats::default();
        ShardStats::add(&s.ingested, 5);
        ShardStats::add(&s.shed, 2);
        ShardStats::add(&s.published, 1);
        ShardStats::add(&s.publish_us, 160);
        s.publish_us_max.fetch_max(90, Ordering::Relaxed);
        ShardStats::add(&s.moment_rebuilds, 4);
        ShardStats::add(&s.moment_visits, 9);
        let v = s.to_json(3);
        assert_eq!(v.get("moment_rebuilds").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("moment_visits").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ingested").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("shed").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("published").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("publish_us").unwrap().as_u64(), Some(160));
        assert_eq!(v.get("publish_us_max").unwrap().as_u64(), Some(90));
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("audit_violations").unwrap().as_u64(), Some(0));
    }
}
