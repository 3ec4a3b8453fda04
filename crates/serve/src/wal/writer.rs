//! The per-shard append path: one [`WalWriter`] owned by one shard worker
//! thread (no locking — the shard's single-threaded event order *is* the
//! log order).
//!
//! **Durability** is governed by [`WalSyncPolicy`]: every record is handed
//! to the OS with one `write` call (so concurrent catch-up readers only
//! ever observe whole records or a clean tail), and `fsync` runs per the
//! policy — after every record, every `n` records, or never.
//!
//! **Rotation** is keyed to snapshots: a segment is cut once it has
//! absorbed `snapshot_every` snapshot records *and* reached the configured
//! byte floor (tiny segments are all file-system overhead), or
//! unconditionally at the byte ceiling. Because rotation only happens after
//! snapshots, every rotated-away segment chain is eventually *covered*: all
//! state it describes is reconstructible from snapshots in newer segments.
//!
//! **Compaction** exploits that: after each rotation, the writer computes
//! the coverage floor — for every live stream, the oldest segment still
//! needed to rebuild it (its latest snapshot's segment, or its `open`
//! segment if it has never snapshotted) — and deletes segments strictly
//! below the floor, minus a `keep_segments` grace tail retained as
//! catch-up horizon for late subscribers.

use crate::config::{WalConfig, WalSyncPolicy};
use crate::stats::WalStats;
use crate::wal::record::{self, WalRecord, OP_INGEST, OP_OPEN, OP_SNAPSHOT};
use crate::wal::segment::{segment_file_name, shard_dir};
use bfly_common::{IngestChunk, Result};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where the log picks up writing after replay — everything the writer
/// cannot rediscover cheaply on its own.
#[derive(Debug, Default)]
pub struct WriterPosition {
    /// Highest segment index on disk (the append target).
    pub seg_idx: u64,
    /// Bytes already in that segment (after any tail truncation).
    pub seg_bytes: u64,
    /// Snapshot records already in that segment.
    pub seg_snapshots: u32,
    /// Sequence number the next record must carry.
    pub next_seq: u64,
    /// Per-stream coverage: the oldest segment index still needed to
    /// rebuild each live stream.
    pub coverage: HashMap<String, u64>,
    /// Per-stream segment of the last `ingest` record — the coverage
    /// anchor for the next snapshot (see [`WalWriter::append`]).
    pub ingest_segs: HashMap<String, u64>,
    /// Total segments on disk (feeds the `segments` gauge).
    pub segments_on_disk: u64,
}

/// Append half of one shard's write-ahead log.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    cfg: WalConfig,
    /// Snapshot records per segment before rotation fires.
    rotate_snapshots: u32,
    stats: Arc<WalStats>,
    file: File,
    seg_idx: u64,
    seg_bytes: u64,
    seg_snapshots: u32,
    next_seq: u64,
    appends_since_sync: u32,
    coverage: HashMap<String, u64>,
    ingest_segs: HashMap<String, u64>,
    /// The record being appended, laid out in place; reused by every append.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Open the shard's log for appending at `pos` (a fresh log passes
    /// `WriterPosition::default()` — segment 0, sequence 0). Creates the
    /// shard directory and the append segment if missing.
    pub fn open(
        root: &Path,
        shard: usize,
        cfg: WalConfig,
        snapshot_every: usize,
        stats: Arc<WalStats>,
        pos: WriterPosition,
    ) -> Result<WalWriter> {
        let dir = shard_dir(root, shard);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(segment_file_name(pos.seg_idx));
        let existed = path.exists();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if !existed {
            stats.segments.fetch_add(1, Ordering::Relaxed);
        } else {
            // Replay counted segments_on_disk; make the gauge match it once.
            let on_disk = pos.segments_on_disk;
            let gauge = stats.segments.load(Ordering::Relaxed);
            if gauge < on_disk {
                stats.segments.fetch_add(on_disk - gauge, Ordering::Relaxed);
            }
        }
        Ok(WalWriter {
            dir,
            cfg,
            rotate_snapshots: snapshot_every.max(1) as u32,
            stats,
            file,
            seg_idx: pos.seg_idx,
            seg_bytes: pos.seg_bytes,
            seg_snapshots: pos.seg_snapshots,
            next_seq: pos.next_seq,
            appends_since_sync: 0,
            coverage: pos.coverage,
            ingest_segs: pos.ingest_segs,
            buf: Vec::new(),
        })
    }

    /// Append one record, then run the sync policy and (maybe) rotation.
    /// Durable-before-visible is the caller's contract: the shard worker
    /// appends the `release` record *before* fanning the release out to
    /// subscribers, and the `ingest` record before advancing the pipeline.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        rec.encode_into(&mut self.buf, self.next_seq);
        self.commit(rec.stream())
    }

    /// [`WalWriter::append`] of the ingest record for `chunk` (`base` is
    /// the stream position before its first transaction), encoded straight
    /// from the chunk: the bytes of the equivalent [`WalRecord::Ingest`].
    pub fn append_ingest(&mut self, stream: &str, base: u64, chunk: &IngestChunk) -> Result<()> {
        record::encode_ingest(&mut self.buf, self.next_seq, stream, base, chunk);
        self.commit(stream)
    }

    /// Write the record laid out in `buf` (for `stream`), then the
    /// bookkeeping, the sync policy and (maybe) rotation.
    fn commit(&mut self, stream: &str) -> Result<()> {
        self.file.write_all(&self.buf)?;
        let len = self.buf.len() as u64;
        self.next_seq += 1;
        self.seg_bytes += len;
        self.stats.bytes_appended.fetch_add(len, Ordering::Relaxed);
        self.stats.records_appended.fetch_add(1, Ordering::Relaxed);
        match self.buf[1] {
            OP_OPEN => {
                // Birth segment is the coverage anchor until a snapshot
                // supersedes it.
                self.coverage
                    .entry(stream.to_string())
                    .or_insert(self.seg_idx);
            }
            OP_INGEST => set(&mut self.ingest_segs, stream, self.seg_idx),
            OP_SNAPSHOT => {
                // A snapshot's basis is not just itself: the worker logs a
                // whole chunk before advancing it, so when the snapshot
                // lands mid-chunk, the chunk's post-snapshot tail records
                // live in the *chunk's* segment — which a byte-ceiling
                // rotation may have sealed before this snapshot. Anchor
                // coverage there, never past it, or compaction could eat
                // records replay still needs.
                let anchor = self
                    .ingest_segs
                    .get(stream)
                    .copied()
                    .unwrap_or(self.seg_idx);
                set(&mut self.coverage, stream, anchor);
                self.seg_snapshots += 1;
            }
            _ => {}
        }
        match self.cfg.sync {
            WalSyncPolicy::Always => self.fsync()?,
            WalSyncPolicy::Interval(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n {
                    self.fsync()?;
                }
            }
            WalSyncPolicy::Never => {}
        }
        let snapshots_ready = self.seg_snapshots >= self.rotate_snapshots
            && self.seg_bytes >= self.cfg.segment_min_bytes;
        let over_ceiling =
            self.cfg.segment_max_bytes > 0 && self.seg_bytes >= self.cfg.segment_max_bytes;
        if snapshots_ready || over_ceiling {
            self.rotate()?;
        }
        Ok(())
    }

    /// Force everything buffered to stable storage (shutdown/drain hook;
    /// also the rotation barrier — a segment is finalized durable).
    pub fn sync(&mut self) -> Result<()> {
        self.fsync()
    }

    fn fsync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        // Finalize the old segment durably before the new one exists, so a
        // crash between the two never leaves a later segment preceding an
        // unsynced earlier one.
        self.fsync()?;
        self.seg_idx += 1;
        let path = self.dir.join(segment_file_name(self.seg_idx));
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.seg_bytes = 0;
        self.seg_snapshots = 0;
        self.stats.segments.fetch_add(1, Ordering::Relaxed);
        self.compact()
    }

    /// Delete segments below the coverage floor, keeping `keep_segments`
    /// of grace below it as catch-up horizon. A stream that has never
    /// snapshotted pins the floor at its `open` segment, so its full
    /// history survives.
    fn compact(&mut self) -> Result<()> {
        let Some(&floor) = self.coverage.values().min() else {
            return Ok(()); // no live streams: nothing is safe to judge
        };
        let delete_below = floor.saturating_sub(self.cfg.keep_segments as u64);
        if delete_below == 0 {
            return Ok(());
        }
        for (idx, path) in crate::wal::segment::list_segments(&self.dir)? {
            if idx >= delete_below {
                break; // sorted ascending: nothing further qualifies
            }
            std::fs::remove_file(&path)?;
            self.stats.segments.fetch_sub(1, Ordering::Relaxed);
            self.stats
                .segments_compacted
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The sequence number the next append will carry (test hook).
    #[cfg(test)]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// `map[stream] = value`, allocating the key only the first time.
fn set(map: &mut HashMap<String, u64>, stream: &str, value: u64) {
    match map.get_mut(stream) {
        Some(v) => *v = value,
        None => {
            map.insert(stream.to_string(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::record::{scan_one, Scan, SnapshotEntry, StreamSnapshot};
    use crate::wal::segment::list_segments;
    use bfly_core::defense::DefenseKind;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bfly-wal-writer-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snap(stream: &str, n: u64) -> WalRecord {
        WalRecord::Snapshot(StreamSnapshot {
            stream: stream.into(),
            kind: DefenseKind::Butterfly,
            stream_len: n,
            published: 1,
            last_len: n,
            prev_release: vec![SnapshotEntry {
                ids: vec![1],
                true_support: 5,
                sanitized: 5,
            }],
            window: vec![vec![1]; 4],
        })
    }

    fn ingest(stream: &str) -> WalRecord {
        WalRecord::Ingest {
            stream: stream.into(),
            base: 0,
            batch: vec!["ab".parse().unwrap()],
        }
    }

    fn tiny_cfg(root: &Path) -> WalConfig {
        let mut cfg = WalConfig::new(root);
        cfg.segment_min_bytes = 1; // rotate on every snapshot
        cfg.keep_segments = 0; // no grace: compaction is observable fast
        cfg
    }

    #[test]
    fn appends_are_scannable_with_increasing_seqs() {
        let root = tmp_root("scan");
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            WalConfig::new(&root),
            4,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        w.append(&WalRecord::Open {
            stream: "s".into(),
            kind: DefenseKind::Butterfly,
        })
        .unwrap();
        w.append(&ingest("s")).unwrap();
        w.append(&ingest("s")).unwrap();
        assert_eq!(w.next_seq(), 3);
        let buf = std::fs::read(shard_dir(&root, 0).join(segment_file_name(0))).unwrap();
        let mut pos = 0;
        for want_seq in 0..3 {
            match scan_one(&buf, pos) {
                Scan::Record { seq, end, .. } => {
                    assert_eq!(seq, want_seq);
                    pos = end;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(scan_one(&buf, pos), Scan::End));
        assert_eq!(stats.records_appended.load(Ordering::Relaxed), 3);
        assert_eq!(
            stats.bytes_appended.load(Ordering::Relaxed),
            buf.len() as u64
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sync_policies_fsync_when_promised() {
        for (policy, records, want_fsyncs) in [
            (WalSyncPolicy::Always, 3u32, 3u64),
            (WalSyncPolicy::Interval(2), 5, 2),
            (WalSyncPolicy::Never, 4, 0),
        ] {
            let root = tmp_root(&format!("sync-{policy}"));
            let mut cfg = WalConfig::new(&root);
            cfg.sync = policy;
            let stats = Arc::new(WalStats::default());
            let mut w = WalWriter::open(&root, 0, cfg, 4, stats.clone(), WriterPosition::default())
                .unwrap();
            for _ in 0..records {
                w.append(&ingest("s")).unwrap();
            }
            assert_eq!(
                stats.fsyncs.load(Ordering::Relaxed),
                want_fsyncs,
                "policy {policy}"
            );
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn rotation_cuts_on_snapshots_and_compaction_respects_coverage() {
        let root = tmp_root("rotate");
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            tiny_cfg(&root),
            1,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        w.append(&WalRecord::Open {
            stream: "s".into(),
            kind: DefenseKind::Butterfly,
        })
        .unwrap();
        // Each snapshot rotates; each rotation may compact everything below
        // the latest snapshot's segment.
        for round in 0u64..3 {
            w.append(&ingest("s")).unwrap();
            w.append(&snap("s", 4 + round)).unwrap();
        }
        let segs = list_segments(&shard_dir(&root, 0)).unwrap();
        let idxs: Vec<u64> = segs.iter().map(|s| s.0).collect();
        // Snapshot in seg 2 covers stream s; segs 0 and 1 are compacted.
        assert_eq!(idxs, vec![2, 3], "live segments: {idxs:?}");
        assert_eq!(stats.segments_compacted.load(Ordering::Relaxed), 2);
        assert_eq!(stats.segments.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsnapshotted_stream_pins_compaction() {
        let root = tmp_root("pin");
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            tiny_cfg(&root),
            1,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        // Stream "old" opens in segment 0 and never snapshots: its history
        // must survive any amount of snapshotting by "hot".
        w.append(&WalRecord::Open {
            stream: "old".into(),
            kind: DefenseKind::Butterfly,
        })
        .unwrap();
        w.append(&WalRecord::Open {
            stream: "hot".into(),
            kind: DefenseKind::Butterfly,
        })
        .unwrap();
        for round in 0u64..4 {
            w.append(&snap("hot", 4 + round)).unwrap();
        }
        let segs = list_segments(&shard_dir(&root, 0)).unwrap();
        assert_eq!(segs[0].0, 0, "segment 0 must survive while old is live");
        assert_eq!(stats.segments_compacted.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn byte_ceiling_rotates_without_snapshots() {
        let root = tmp_root("ceiling");
        let mut cfg = WalConfig::new(&root);
        cfg.segment_min_bytes = 1;
        cfg.segment_max_bytes = 256;
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(&root, 0, cfg, 4, stats, WriterPosition::default()).unwrap();
        for _ in 0..64 {
            w.append(&ingest("s")).unwrap();
        }
        let segs = list_segments(&shard_dir(&root, 0)).unwrap();
        assert!(segs.len() > 1, "ceiling never rotated: {segs:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
