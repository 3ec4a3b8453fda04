//! The per-shard append path: one [`WalWriter`] owned by one shard worker
//! thread (no locking — the shard's single-threaded event order *is* the
//! log order).
//!
//! **Durability** is governed by [`WalSyncPolicy`]: every record is handed
//! to the OS with one `write` call (so concurrent catch-up readers only
//! ever observe whole records or a clean tail), and `fsync` runs per the
//! policy — after every record, every `n` records, or never. A segment's
//! directory entry is synced when the segment is created, so under
//! `always` a record acknowledged in a fresh segment cannot vanish with
//! the segment's name. Every byte goes through the shard's segment store;
//! the writer never touches a file itself.
//!
//! **Rotation** is keyed to snapshots: a segment is cut once it has
//! absorbed `snapshot_every` snapshot records *and* reached the configured
//! byte floor (tiny segments are all file-system overhead), or
//! unconditionally at the byte ceiling. Because rotation only happens after
//! snapshots, every rotated-away segment chain is eventually *covered*: all
//! state it describes is reconstructible from newer snapshots and the
//! ingest records they name.
//!
//! **Compaction** exploits that: after each rotation, the writer deletes
//! the segments below the oldest one some live stream still needs, minus a
//! `keep_segments` grace tail kept as catch-up horizon. What each stream
//! needs is one ledger, `Coverage`, which the writer and replay apply
//! every record to through `Coverage::apply`: a restarted writer
//! compacts as the crashed one would have.

use crate::config::{WalConfig, WalSyncPolicy};
use crate::stats::WalStats;
use crate::wal::record::{self, SnapshotHead, WalRecord};
use crate::wal::segment::{FsStore, SegmentHandle, SegmentId, SegmentStore};
use bfly_common::{Error, IngestChunk, Result};
use bfly_core::defense::DefenseKind;
use bfly_core::SanitizedRelease;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
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
    /// What the log must keep, as replay rebuilt it.
    pub(crate) coverage: Coverage,
    /// Total segments on disk (feeds the `segments` gauge).
    pub segments_on_disk: u64,
}

/// The ledger of what one shard's log must keep: for every stream, the
/// oldest segment still needed to rebuild it (its anchor) and where its
/// logged ingest chunks sit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Coverage(HashMap<String, StreamCoverage>);

/// One stream's entry in the [`Coverage`] ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct StreamCoverage {
    /// None until the stream opens or snapshots.
    anchor: Option<u64>,
    /// `(base, segment)` of the first chunk logged in each segment the
    /// stream logged one in, oldest first: the record at position `p` sits
    /// in the segment of the last run whose base is below `p`.
    runs: VecDeque<(u64, u64)>,
}

/// What a record changes in its stream's coverage.
pub(crate) enum Mark {
    Open,
    /// An ingest chunk with this `base`.
    Ingest(u64),
    Snapshot(Basis),
    Release,
}

/// How a snapshot holds its window, which decides its coverage anchor;
/// each holds the position before the window's first record.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Basis {
    /// Named by position: the logged records past this position.
    Named(u64),
    Carried(u64),
}

impl Basis {
    /// The one rule for both callers: a snapshot at `stream_len` carrying
    /// `carried` window records starts its window that many records back,
    /// one carrying none `window` back, if the caller knows `W`.
    fn of(
        stream: &str,
        stream_len: u64,
        carried: usize,
        window: Option<usize>,
    ) -> std::result::Result<Basis, String> {
        let len = match carried {
            0 => window.ok_or_else(|| {
                format!(
                    "snapshot for {stream:?} names its window by position, which only \
                     WalWriter::append_snapshot can size"
                )
            })?,
            n => n,
        };
        let base = stream_len.checked_sub(len as u64).ok_or_else(|| {
            format!(
                "snapshot for {stream:?} names {len} window records beyond stream_len {stream_len}"
            )
        })?;
        Ok(match carried {
            0 => Basis::Named(base),
            _ => Basis::Carried(base),
        })
    }
}

impl Mark {
    /// What `rec` changes, in a log whose windows hold `window` records
    /// (`None` where that is unknown, as in [`WalWriter::append`]).
    pub(crate) fn of(rec: &WalRecord, window: Option<usize>) -> std::result::Result<Mark, String> {
        Ok(match rec {
            WalRecord::Open { .. } => Mark::Open,
            WalRecord::Ingest { base, .. } => Mark::Ingest(*base),
            WalRecord::Release { .. } => Mark::Release,
            WalRecord::Snapshot(s) => {
                Mark::Snapshot(Basis::of(&s.stream, s.stream_len, s.window.len(), window)?)
            }
        })
    }
}

impl Coverage {
    /// Apply `mark`, a record of `stream` logged in `seg`. An `open`
    /// anchors a stream at its birth segment until it snapshots. A snapshot
    /// naming its window is anchored at the chunk holding the window's first
    /// record: the window, and the chunk tail past the snapshot, sit there
    /// or later. One carrying it needs only the stream's last chunk, whose
    /// tail may sit in a segment sealed before the snapshot's.
    pub(crate) fn apply(&mut self, stream: &str, mark: Mark, seg: u64) {
        if let Mark::Release = mark {
            return;
        }
        if !self.0.contains_key(stream) {
            self.0.insert(stream.to_string(), StreamCoverage::default());
        }
        let s = self.0.get_mut(stream).expect("just inserted");
        match mark {
            Mark::Open => {
                s.anchor.get_or_insert(seg);
            }
            Mark::Ingest(base) => {
                if s.runs.back().is_none_or(|&(_, at)| at != seg) {
                    s.runs.push_back((base, seg));
                }
            }
            Mark::Snapshot(Basis::Named(base)) => {
                while s.runs.len() > 1 && s.runs[1].0 <= base {
                    s.runs.pop_front();
                }
                s.anchor = Some(s.runs.front().map_or(seg, |&(_, at)| at));
            }
            Mark::Snapshot(Basis::Carried(base)) => {
                let at = s.runs.back().map_or(seg, |&(_, at)| at);
                s.runs.clear();
                s.runs.push_back((base, at));
                s.anchor = Some(at);
            }
            Mark::Release => {}
        }
    }

    /// The oldest segment some stream still needs, if any is anchored.
    fn floor(&self) -> Option<u64> {
        self.0.values().filter_map(|s| s.anchor).min()
    }
}

/// Append half of one shard's write-ahead log.
pub struct WalWriter {
    store: Arc<dyn SegmentStore>,
    shard: usize,
    cfg: WalConfig,
    /// Snapshot records per segment before rotation fires.
    rotate_snapshots: u32,
    stats: Arc<WalStats>,
    /// The append segment.
    seg: Box<dyn SegmentHandle>,
    seg_idx: u64,
    seg_bytes: u64,
    seg_snapshots: u32,
    next_seq: u64,
    appends_since_sync: u32,
    coverage: Coverage,
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
        let store = Arc::new(FsStore::new(root));
        WalWriter::open_in(store, shard, cfg, snapshot_every, stats, pos)
    }

    /// [`WalWriter::open`] over `store`.
    pub(crate) fn open_in(
        store: Arc<dyn SegmentStore>,
        shard: usize,
        cfg: WalConfig,
        snapshot_every: usize,
        stats: Arc<WalStats>,
        pos: WriterPosition,
    ) -> Result<WalWriter> {
        let (seg, created) = store.open_append(SegmentId {
            shard,
            idx: pos.seg_idx,
        })?;
        if created {
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
            store,
            shard,
            cfg,
            rotate_snapshots: snapshot_every.max(1) as u32,
            stats,
            seg,
            seg_idx: pos.seg_idx,
            seg_bytes: pos.seg_bytes,
            seg_snapshots: pos.seg_snapshots,
            next_seq: pos.next_seq,
            appends_since_sync: 0,
            coverage: pos.coverage,
            buf: Vec::new(),
        })
    }

    /// Append one record, then run the sync policy and (maybe) rotation.
    /// Durable-before-visible is the caller's contract: the shard worker
    /// appends the `release` record *before* fanning the release out to
    /// subscribers, and the `ingest` record before advancing the pipeline.
    /// A snapshot whose window reaches past its stream's start, or which
    /// names it by position, is refused unwritten.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let mark = Mark::of(rec, None).map_err(Error::Parse)?;
        rec.encode_into(&mut self.buf, self.next_seq);
        self.commit(rec.stream(), mark)
    }

    /// [`WalWriter::append`] of the ingest record for `chunk` (`base` is
    /// the stream position before its first transaction), encoded straight
    /// from the chunk: the bytes of the equivalent [`WalRecord::Ingest`].
    pub fn append_ingest(&mut self, stream: &str, base: u64, chunk: &IngestChunk) -> Result<()> {
        record::encode_ingest(&mut self.buf, self.next_seq, stream, base, chunk);
        self.commit(stream, Mark::Ingest(base))
    }

    /// [`WalWriter::append`] of the `release` record of `stream` whose wire
    /// frame is `frame`: the bytes of the equivalent [`WalRecord::Release`],
    /// copied from the frame laid out for the subscribers.
    pub(crate) fn append_release(&mut self, stream: &str, frame: &[u8]) -> Result<()> {
        record::encode_release(&mut self.buf, self.next_seq, frame);
        self.commit(stream, Mark::Release)
    }

    /// [`WalWriter::append`] of the snapshot record of `stream`, bound to
    /// `kind`, at the publication `release` made at `stream_len` (the
    /// `published`-th), naming its window — the `window` logged records
    /// ending at `stream_len` — by position: the bytes of the equivalent
    /// [`WalRecord::Snapshot`] with an empty `window`, encoded straight from
    /// the release the shard holds.
    pub fn append_snapshot(
        &mut self,
        stream: &str,
        kind: DefenseKind,
        stream_len: u64,
        published: u64,
        release: &SanitizedRelease,
        window: usize,
    ) -> Result<()> {
        let head = SnapshotHead {
            stream,
            kind,
            stream_len,
            published,
            last_len: stream_len,
        };
        let basis = Basis::of(stream, stream_len, 0, Some(window)).map_err(Error::Parse)?;
        record::encode_snapshot(&mut self.buf, self.next_seq, &head, release);
        self.commit(stream, Mark::Snapshot(basis))
    }

    /// Write the record laid out in `buf` (for `stream`), then the
    /// bookkeeping, the sync policy and (maybe) rotation.
    fn commit(&mut self, stream: &str, mark: Mark) -> Result<()> {
        self.seg.append(&self.buf)?;
        let len = self.buf.len() as u64;
        self.next_seq += 1;
        self.seg_bytes += len;
        self.stats.bytes_appended.fetch_add(len, Ordering::Relaxed);
        self.stats.records_appended.fetch_add(1, Ordering::Relaxed);
        if let Mark::Snapshot(_) = mark {
            self.seg_snapshots += 1;
            self.stats.snapshot_bytes.fetch_add(len, Ordering::Relaxed);
        }
        self.coverage.apply(stream, mark, self.seg_idx);
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
        self.seg.sync()?;
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
        (self.seg, _) = self.store.open_append(SegmentId {
            shard: self.shard,
            idx: self.seg_idx,
        })?;
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
        let Some(floor) = self.coverage.floor() else {
            return Ok(()); // no live streams: nothing is safe to judge
        };
        let delete_below = floor.saturating_sub(self.cfg.keep_segments as u64);
        if delete_below == 0 {
            return Ok(());
        }
        for idx in self.store.list(self.shard)? {
            if idx >= delete_below {
                break; // sorted ascending: nothing further qualifies
            }
            self.store.remove(SegmentId {
                shard: self.shard,
                idx,
            })?;
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

    /// The writer's coverage ledger (test hook).
    #[cfg(test)]
    pub(crate) fn coverage(&self) -> &Coverage {
        &self.coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::record::{scan_one, Decode, Scan, SnapshotEntry, StreamSnapshot};
    use crate::wal::segment::{segment_file_name, shard_dir};
    use std::path::PathBuf;

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
            match scan_one(&buf, pos, Decode::All) {
                Scan::Record { seq, end, .. } => {
                    assert_eq!(seq, want_seq);
                    pos = end;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(scan_one(&buf, pos, Decode::All), Scan::End));
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
        let idxs = FsStore::new(&root).list(0).unwrap();
        // Snapshot in seg 2 covers stream s; segs 0 and 1 are compacted.
        assert_eq!(idxs, vec![2, 3], "live segments: {idxs:?}");
        assert_eq!(stats.segments_compacted.load(Ordering::Relaxed), 2);
        assert_eq!(stats.segments.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A snapshot that names its window keeps the segment holding the
    /// window's first record; one that carries it keeps only its last
    /// chunk's.
    #[test]
    fn a_named_window_anchors_at_its_first_records_segment() {
        let release = SanitizedRelease::new(Vec::new());
        for named in [true, false] {
            let root = tmp_root(&format!("anchor-{named}"));
            let stats = Arc::new(WalStats::default());
            let pos = WriterPosition::default();
            let mut w = WalWriter::open(&root, 0, tiny_cfg(&root), 1, stats, pos).unwrap();
            w.append(&WalRecord::Open {
                stream: "s".into(),
                kind: DefenseKind::Butterfly,
            })
            .unwrap();
            // One record a chunk; from the fourth on, a snapshot of the
            // window of four after each, which rotates: record `n > 4`
            // sits alone in segment `n - 4`.
            for n in 1u64..=10 {
                w.append(&WalRecord::Ingest {
                    stream: "s".into(),
                    base: n - 1,
                    batch: vec!["ab".parse().unwrap()],
                })
                .unwrap();
                if n < 4 {
                    continue;
                }
                if named {
                    w.append_snapshot("s", DefenseKind::Butterfly, n, n, &release, 4)
                        .unwrap();
                } else {
                    w.append(&snap("s", n)).unwrap();
                }
            }
            let segs = FsStore::new(&root).list(0).unwrap();
            // The window ending at 10 starts at 7, in segment 3; a carried
            // one needs only its last chunk's segment, 6.
            let want: Vec<u64> = if named { (3..=7).collect() } else { vec![6, 7] };
            assert_eq!(segs, want, "named {named}");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    /// A snapshot `append` cannot anchor is refused before a byte is
    /// written: one whose carried window reaches past its stream's start,
    /// and one naming its window by position, whose length `append` does
    /// not know.
    #[test]
    fn a_snapshot_append_cannot_anchor_is_refused() {
        let root = tmp_root("refuse");
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let mut w =
            WalWriter::open(&root, 0, WalConfig::new(&root), 4, stats.clone(), pos).unwrap();
        let WalRecord::Snapshot(mut by_position) = snap("s", 8) else {
            unreachable!("snap builds a snapshot")
        };
        by_position.window.clear();
        for (rec, want) in [
            (snap("s", 2), "names 4 window records beyond stream_len 2"),
            (
                WalRecord::Snapshot(by_position),
                "only WalWriter::append_snapshot can size",
            ),
        ] {
            let err = w.append(&rec).unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
        }
        assert_eq!(w.next_seq(), 0);
        assert_eq!(stats.bytes_appended.load(Ordering::Relaxed), 0);
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
        let segs = FsStore::new(&root).list(0).unwrap();
        assert_eq!(segs[0], 0, "segment 0 must survive while old is live");
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
        let segs = FsStore::new(&root).list(0).unwrap();
        assert!(segs.len() > 1, "ceiling never rotated: {segs:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
