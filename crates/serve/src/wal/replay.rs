//! Startup recovery: scan a shard's segments oldest-to-newest and rebuild
//! every stream's pipeline to bit-identical publisher state.
//!
//! The log *is* the publication schedule: replay re-executes it rather than
//! trusting it. The worker logs a whole `ingest` chunk *before* advancing
//! it while publications land mid-chunk, so the log runs ahead of the
//! pipeline: replay buffers each chunk's records (their absolute positions
//! come from the record's `base`) and a `release` record drains the buffer
//! up to its `stream_len`, publishes **now**, and verifies the recomputed
//! sanitized entries byte-equal the logged ones — seeded noise (the
//! publisher's per-key seed, PrivBasis's content-hash splits) makes that
//! exact, so any divergence means the log and the code disagree about
//! history and starting up would silently fork the stream. That is a hard
//! error, never a truncation.
//!
//! Records still buffered when the log ends are the crashed worker's last
//! strides: replay re-advances them with the worker's own cadence checks,
//! so a publication whose `release` record was torn off the tail is
//! re-executed — and re-logged, before the server accepts a single
//! connection — rather than silently skipped.
//!
//! Two ways a stream comes into being during replay:
//!
//! * an `open` record — the stream's birth survived compaction; replay
//!   builds a fresh pipeline and re-feeds everything;
//! * a `snapshot` record for an unknown stream — the birth was compacted;
//!   replay rebuilds from the snapshot alone: restart the stream counter
//!   at `stream_len - window_count`, re-feed the window contents, zero the
//!   cadence counter (the snapshot sits at a publication point), and
//!   reinstate the defense's cross-window state via
//!   [`bfly_core::defense::PrivacyDefense::restore`] — including the
//!   previous release's `(true_support, sanitized)` pairs, because
//!   Butterfly's republication rule pins unchanged supports to values a
//!   fresh publish could not regenerate.
//!
//! `release` records for *unknown* streams are skipped, not errors: they
//! are the compacted prefix — records older than the stream's adopted
//! snapshot that happen to share a retained segment with it. `ingest`
//! records for unknown streams are buffered like any other: adoption drops
//! the buffered records the snapshot already covers (position `<=` the
//! snapshot's `stream_len`) and keeps the tail, because a chunk logged
//! before the snapshot can carry records the snapshot does not cover.
//!
//! Corruption policy: an incomplete or checksum-failing record in the
//! **last** segment is a torn tail — the crash interrupted the final write —
//! so replay truncates the segment at the last clean record and continues.
//! An invalid record anywhere else means storage corrupted data that was
//! once durable; replay refuses to start rather than serve a forked history.
//! So does, in any segment and with the file left untouched, a
//! checksum-clean record that fails to decode or whose sequence number does
//! not follow its predecessor's: it was written whole, a torn write cannot
//! have produced it, and truncating there would take every later durable
//! record along.

use crate::config::{ServeConfig, WalConfig};
use crate::protocol::binary_entry;
use crate::stats::WalStats;
use crate::wal::record::{scan_one, Scan, SnapshotEntry, StreamSnapshot, WalRecord};
use crate::wal::segment::{list_segments, shard_dir};
use crate::wal::writer::{WalWriter, WriterPosition};
use bfly_common::{BinaryEntry, Error, ItemSet, ItemsetId, Result, Transaction};
use bfly_core::defense::{DefenseKind, PrivacyDefense};
use bfly_core::{SanitizedItemset, SanitizedRelease, StreamPipeline};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The pipeline type the serve layer runs everywhere: Moment under a
/// defense bound per key at runtime.
pub type DynPipeline = StreamPipeline<Box<dyn PrivacyDefense>>;

/// One stream's logged-but-not-yet-applied records, each at its absolute
/// stream position (record at position `p` brings `stream_len` to `p`).
/// The log runs ahead of the pipeline — a chunk is appended whole before
/// any of its records advance — so replay stages records here and drains
/// them as `release` records (or the end of the log) demand.
type Pending = VecDeque<(u64, ItemSet)>;

/// One stream rebuilt by replay, ready to drop into a shard worker.
pub struct RecoveredStream {
    /// The defense the stream was bound to.
    pub kind: DefenseKind,
    /// The pipeline, advanced to exactly the pre-crash stream position.
    pub pipe: DynPipeline,
    /// Publications made before the crash.
    pub published: u64,
    /// Stream position of the latest publication.
    pub last_len: u64,
}

/// Everything recovery hands the shard: its streams and a writer positioned
/// to append the next record.
pub struct RecoveredShard {
    /// Rebuilt streams by key.
    pub streams: HashMap<String, RecoveredStream>,
    /// The log, open for appending after the last clean record.
    pub writer: WalWriter,
    /// Publications re-verified during replay (also accumulated into
    /// [`WalStats::recovered_windows`]).
    pub recovered_windows: u64,
}

/// Capture one stream's state as a snapshot record — the worker calls this
/// right after a publication, so `release` is the stream's latest release
/// and the cadence counter is zero.
pub fn snapshot_of(
    stream: &str,
    kind: DefenseKind,
    pipe: &DynPipeline,
    published: u64,
    release: &SanitizedRelease,
) -> StreamSnapshot {
    let stream_len = pipe.stream_len();
    StreamSnapshot {
        stream: stream.to_string(),
        kind,
        stream_len,
        published,
        last_len: stream_len,
        prev_release: release
            .iter()
            .map(|e| SnapshotEntry {
                ids: e.itemset().items().iter().map(|i| i.id()).collect(),
                true_support: e.true_support,
                sanitized: e.sanitized,
            })
            .collect(),
        window: pipe
            .window()
            .records()
            .map(|set| set.iter().map(|i| i.id()).collect())
            .collect(),
    }
}

fn wire_entries(release: &SanitizedRelease) -> Vec<BinaryEntry> {
    release.iter().map(binary_entry).collect()
}

fn corrupt(path: &Path, reason: &str) -> Error {
    Error::Parse(format!(
        "wal segment {} is corrupt mid-log ({reason}); refusing to start on a forked history \
         (move the wal dir aside to start fresh)",
        path.display()
    ))
}

/// Replay one shard's log. See the module docs for the full contract.
///
/// # Errors
/// I/O failures, corruption outside the torn tail, or a recomputed release
/// diverging from the logged bytes.
pub fn recover_shard(
    cfg: &ServeConfig,
    wal: &WalConfig,
    shard: usize,
    stats: &Arc<WalStats>,
) -> Result<RecoveredShard> {
    let dir = shard_dir(&wal.dir, shard);
    let segs = list_segments(&dir)?;
    let mut state = ReplayState::default();
    let mut expected_seq: Option<u64> = None;
    let mut pos = WriterPosition {
        segments_on_disk: segs.len() as u64,
        ..WriterPosition::default()
    };

    for (nth, &(seg_idx, ref path)) in segs.iter().enumerate() {
        let buf = std::fs::read(path)?;
        let last_segment = nth == segs.len() - 1;
        let mut off = 0usize;
        let mut seg_snapshots = 0u32;
        loop {
            match scan_one(&buf, off) {
                Scan::End => break,
                Scan::Record { rec, seq, end } => {
                    if let Some(want) = expected_seq {
                        if seq != want {
                            // A torn write cannot leave a checksum-clean
                            // record carrying the wrong sequence number:
                            // records went missing from durable storage, in
                            // whichever segment.
                            let reason = format!("sequence gap: expected {want}, found {seq}");
                            return Err(corrupt(path, &reason));
                        }
                    }
                    expected_seq = Some(seq + 1);
                    if matches!(rec, WalRecord::Snapshot(_)) {
                        seg_snapshots += 1;
                    }
                    apply(cfg, rec, seg_idx, path, &mut state)?;
                    off = end;
                }
                Scan::Corrupt { reason } => {
                    if last_segment {
                        truncate_tail(path, off as u64, stats)?;
                        break;
                    }
                    return Err(corrupt(path, &reason));
                }
                Scan::Undecodable { reason } => return Err(corrupt(path, &reason)),
            }
        }
        if last_segment {
            pos.seg_idx = seg_idx;
            pos.seg_bytes = std::fs::metadata(path)?.len();
            pos.seg_snapshots = seg_snapshots;
        }
    }

    pos.next_seq = expected_seq.unwrap_or(0);
    pos.coverage = state.coverage;
    pos.ingest_segs = state.ingest_segs;
    let mut writer = WalWriter::open(
        &wal.dir,
        shard,
        wal.clone(),
        cfg.snapshot_every,
        stats.clone(),
        pos,
    )?;

    // Drain what the log accepted but no logged release consumed: the
    // crash landed after a chunk's append and before its next publication.
    // Re-advance with the worker's own cadence checks — a publication
    // whose release record was torn off the tail is re-executed and
    // re-logged here, before the server accepts a connection, so
    // durable-before-visible holds across the crash. Sorted key order so
    // the regenerated records land deterministically.
    let mut keys: Vec<String> = state.streams.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let st = state.streams.get_mut(&key).expect("key just listed");
        let Some(q) = state.pending.remove(&key) else {
            continue;
        };
        for (p, items) in q {
            let at = st.pipe.stream_len();
            if p != at + 1 {
                return Err(Error::Parse(format!(
                    "wal for shard {shard} is corrupt: stream {key:?} has a logged record at \
                     position {p} but replay stopped at {at} (move the wal dir aside to start \
                     fresh)"
                )));
            }
            st.pipe.advance(Transaction::new(0, items));
            if st.pipe.window().is_full() && st.pipe.since_publish() >= cfg.every {
                // Same rule as the live worker: a release failing the
                // contract audit is withheld and only moves the delta base.
                let rel = match st.pipe.publish_now() {
                    Ok(rel) => rel,
                    Err(Error::ContractViolation { stream_len, .. }) => {
                        st.last_len = stream_len;
                        continue;
                    }
                    Err(e) => panic!("full window cannot be partial: {e}"),
                };
                writer.append(&WalRecord::Release {
                    stream: key.clone(),
                    stream_len: rel.stream_len,
                    entries: wire_entries(&rel.release),
                })?;
                if cfg.snapshot_every <= 1 || st.published.is_multiple_of(cfg.snapshot_every as u64)
                {
                    writer.append(&WalRecord::Snapshot(snapshot_of(
                        &key,
                        st.kind,
                        &st.pipe,
                        st.published + 1,
                        &rel.release,
                    )))?;
                }
                st.published += 1;
                st.last_len = rel.stream_len;
                state.recovered_windows += 1;
            }
        }
    }
    // Pending for streams that never opened or adopted can only be the
    // residue of closed, forgotten streams in the compaction grace tail —
    // nothing live depends on them.

    stats
        .recovered_windows
        .fetch_add(state.recovered_windows, Ordering::Relaxed);
    Ok(RecoveredShard {
        streams: state.streams,
        writer,
        recovered_windows: state.recovered_windows,
    })
}

fn truncate_tail(path: &Path, keep: u64, stats: &Arc<WalStats>) -> Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    let dropped = f.metadata()?.len().saturating_sub(keep);
    f.set_len(keep)?;
    f.sync_data()?;
    eprintln!(
        "wal: truncated torn tail of {}: dropped {dropped} bytes at offset {keep}",
        path.display()
    );
    stats.truncated_tails.fetch_add(1, Ordering::Relaxed);
    stats.truncated_bytes.fetch_add(dropped, Ordering::Relaxed);
    Ok(())
}

/// Everything the scan accumulates: the rebuilt streams, the staging
/// buffers the log runs ahead with, and the compaction bookkeeping that
/// seeds the writer's position.
#[derive(Default)]
struct ReplayState {
    streams: HashMap<String, RecoveredStream>,
    pending: HashMap<String, Pending>,
    coverage: HashMap<String, u64>,
    ingest_segs: HashMap<String, u64>,
    recovered_windows: u64,
}

fn apply(
    cfg: &ServeConfig,
    rec: WalRecord,
    seg_idx: u64,
    path: &Path,
    state: &mut ReplayState,
) -> Result<()> {
    let ReplayState {
        streams,
        pending,
        coverage,
        ingest_segs,
        recovered_windows,
    } = state;
    match rec {
        WalRecord::Open { stream, kind } => {
            if streams.contains_key(&stream) {
                return Err(corrupt(
                    path,
                    &format!("duplicate open for stream {stream:?}"),
                ));
            }
            coverage.entry(stream.clone()).or_insert(seg_idx);
            streams.insert(
                stream.clone(),
                RecoveredStream {
                    kind,
                    pipe: cfg.pipeline_with(&stream, kind),
                    published: 0,
                    last_len: 0,
                },
            );
        }
        WalRecord::Ingest {
            stream,
            base,
            batch,
        } => {
            // Stage the chunk; nothing advances until a release (or the
            // end of the log) demands it. The base must continue exactly
            // where the staged-or-replayed stream stands — an offset
            // between checksum-clean records means a forked history.
            let q = pending.entry(stream.clone()).or_default();
            let at = q
                .back()
                .map(|&(p, _)| p)
                .or_else(|| streams.get(&stream).map(|st| st.pipe.stream_len()));
            if let Some(at) = at {
                if base != at {
                    return Err(corrupt(
                        path,
                        &format!(
                            "ingest chunk for {stream:?} claims base {base} but the replayed \
                             stream stands at {at}"
                        ),
                    ));
                }
            }
            for (i, items) in batch.into_iter().enumerate() {
                q.push_back((base + 1 + i as u64, items));
            }
            ingest_segs.insert(stream, seg_idx);
        }
        WalRecord::Release {
            stream,
            stream_len,
            entries,
        } => {
            let Some(st) = streams.get_mut(&stream) else {
                // Compacted prefix: the adopting snapshot covers whatever
                // this release consumed — drop it from the staging buffer
                // so adoption starts at the snapshot's edge.
                if let Some(q) = pending.get_mut(&stream) {
                    while q.front().is_some_and(|&(p, _)| p <= stream_len) {
                        q.pop_front();
                    }
                }
                return Ok(());
            };
            let q = pending.entry(stream.clone()).or_default();
            while st.pipe.stream_len() < stream_len {
                let Some((p, items)) = q.pop_front() else {
                    return Err(corrupt(
                        path,
                        &format!(
                            "logged release for {stream:?} at {stream_len} outruns the logged \
                             ingests (replay stopped at {})",
                            st.pipe.stream_len()
                        ),
                    ));
                };
                debug_assert_eq!(p, st.pipe.stream_len() + 1);
                st.pipe.advance(Transaction::new(0, items));
            }
            let rel = st.pipe.publish_now().map_err(|e| {
                corrupt(
                    path,
                    &format!("logged release at {stream_len} is unpublishable on replay: {e}"),
                )
            })?;
            if rel.stream_len != stream_len || wire_entries(&rel.release) != entries {
                return Err(corrupt(
                    path,
                    &format!(
                        "recomputed release for {stream:?} at stream_len {} diverges from the \
                         logged publication at {stream_len}",
                        rel.stream_len
                    ),
                ));
            }
            st.published += 1;
            st.last_len = stream_len;
            *recovered_windows += 1;
        }
        WalRecord::Snapshot(s) => {
            // Same anchor rule as the writer: the snapshot's basis includes
            // the staged tail of the chunk it landed inside, which may sit
            // in an earlier segment.
            let anchor = ingest_segs.get(&s.stream).copied().unwrap_or(seg_idx);
            coverage.insert(s.stream.clone(), anchor);
            if let Some(st) = streams.get(&s.stream) {
                // Already live (its open survived): the snapshot is purely a
                // compaction barrier, but it is also a free consistency
                // tripwire.
                if st.pipe.stream_len() != s.stream_len || st.published != s.published {
                    return Err(corrupt(
                        path,
                        &format!(
                            "snapshot for live stream {:?} disagrees with replayed state \
                             (stream_len {} vs {}, published {} vs {})",
                            s.stream,
                            s.stream_len,
                            st.pipe.stream_len(),
                            s.published,
                            st.published
                        ),
                    ));
                }
                return Ok(());
            }
            // Adoption: records the snapshot already covers leave the
            // staging buffer; the chunk tail past the snapshot stays and
            // drains at later releases (or the end-of-log drain).
            if let Some(q) = pending.get_mut(&s.stream) {
                while q.front().is_some_and(|&(p, _)| p <= s.stream_len) {
                    q.pop_front();
                }
            }
            streams.insert(s.stream.clone(), adopt(cfg, path, s)?);
        }
    }
    Ok(())
}

/// Rebuild a stream from a snapshot alone (its earlier records were
/// compacted away).
fn adopt(cfg: &ServeConfig, path: &Path, s: StreamSnapshot) -> Result<RecoveredStream> {
    let count = s.window.len() as u64;
    let base = s.stream_len.checked_sub(count).ok_or_else(|| {
        corrupt(
            path,
            &format!(
                "snapshot for {:?} holds {count} window records beyond stream_len {}",
                s.stream, s.stream_len
            ),
        )
    })?;
    let mut pipe = cfg.pipeline_with(&s.stream, s.kind);
    pipe.set_stream_base(base);
    for ids in &s.window {
        pipe.advance(Transaction::new(0, ItemSet::from_ids(ids.iter().copied())));
    }
    pipe.reset_cadence();
    let prev = SanitizedRelease::new(
        s.prev_release
            .iter()
            .map(|e| SanitizedItemset {
                id: ItemsetId::intern(&ItemSet::from_ids(e.ids.iter().copied())),
                true_support: e.true_support,
                sanitized: e.sanitized,
            })
            .collect(),
    );
    pipe.restore_defense(s.published, &prev);
    Ok(RecoveredStream {
        kind: s.kind,
        pipe,
        published: s.published,
        last_len: s.last_len,
    })
}

/// Scan a shard's retained log for `release` records of one stream with
/// `stream_len >= min_len` — the log-based catch-up feed for late
/// subscribers.
///
/// This runs on connection threads while the shard's writer is appending,
/// so it is deliberately tolerant: an invalid record stops the scan (it is
/// the live tail or a racing compaction), a vanished segment file is
/// skipped. The horizon is whatever compaction retained; callers get every
/// release still on disk, oldest first.
pub fn scan_catchup(
    root: &Path,
    shard: usize,
    stream: &str,
    min_len: u64,
) -> Vec<(u64, Vec<BinaryEntry>)> {
    let dir = shard_dir(root, shard);
    let Ok(segs) = list_segments(&dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    'segments: for (_, path) in segs {
        let Ok(buf) = std::fs::read(&path) else {
            continue; // compacted underneath us
        };
        let mut off = 0usize;
        loop {
            match scan_one(&buf, off) {
                Scan::End => break,
                Scan::Corrupt { .. } | Scan::Undecodable { .. } => break 'segments, // live tail
                Scan::Record { rec, end, .. } => {
                    if let WalRecord::Release {
                        stream: s,
                        stream_len,
                        entries,
                    } = rec
                    {
                        if s == stream && stream_len >= min_len {
                            out.push((stream_len, entries));
                        }
                    }
                    off = end;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WalConfig;
    use bfly_common::SanitizedSupport;
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bfly-wal-replay-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            shards: 1,
            window: 8,
            c: 2,
            k: 1,
            epsilon: 0.2,
            every: 2,
            snapshot_every: 3,
            seed: 1,
            ..ServeConfig::default()
        }
    }

    /// A deterministic record stream with enough support churn to exercise
    /// pins, additions, and removals.
    fn record(i: u64) -> ItemSet {
        let mut ids: Vec<u32> = vec![(i % 3) as u32];
        if i.is_multiple_of(2) {
            ids.push(3);
        }
        if i.is_multiple_of(5) {
            ids.push(4);
        }
        ids.sort_unstable();
        ItemSet::from_ids(ids)
    }

    /// Drive one stream exactly the way the shard worker does, logging to
    /// `writer` — the test twin of the production write points.
    struct Harness {
        pipe: DynPipeline,
        published: u64,
        releases: Vec<(u64, Vec<BinaryEntry>)>,
    }

    fn entries(rel: &SanitizedRelease) -> Vec<BinaryEntry> {
        wire_entries(rel)
    }

    impl Harness {
        fn open(cfg: &ServeConfig, key: &str, writer: &mut WalWriter) -> Harness {
            writer
                .append(&WalRecord::Open {
                    stream: key.into(),
                    kind: DefenseKind::Butterfly,
                })
                .unwrap();
            Harness {
                pipe: cfg.pipeline_with(key, DefenseKind::Butterfly),
                published: 0,
                releases: Vec::new(),
            }
        }

        fn resume(rec: RecoveredStream) -> Harness {
            Harness {
                pipe: rec.pipe,
                published: rec.published,
                releases: Vec::new(),
            }
        }

        /// Feed records in chunks of `chunk`, logging each whole chunk
        /// before advancing any of it — exactly the worker's write order,
        /// so publications land mid-chunk and replay must interleave.
        fn feed(
            &mut self,
            cfg: &ServeConfig,
            key: &str,
            writer: Option<&mut WalWriter>,
            range: std::ops::Range<u64>,
            chunk: usize,
        ) {
            let mut writer = writer;
            let idx: Vec<u64> = range.collect();
            for part in idx.chunks(chunk.max(1)) {
                if let Some(w) = writer.as_deref_mut() {
                    w.append(&WalRecord::Ingest {
                        stream: key.into(),
                        base: self.pipe.stream_len(),
                        batch: part.iter().map(|&i| record(i)).collect(),
                    })
                    .unwrap();
                }
                for &i in part {
                    self.pipe.advance(Transaction::new(0, record(i)));
                    if self.pipe.window().is_full() && self.pipe.since_publish() >= cfg.every {
                        let rel = self.pipe.publish_now().unwrap();
                        let wire = entries(&rel.release);
                        if let Some(w) = writer.as_deref_mut() {
                            w.append(&WalRecord::Release {
                                stream: key.into(),
                                stream_len: rel.stream_len,
                                entries: wire.clone(),
                            })
                            .unwrap();
                            if self.published.is_multiple_of(cfg.snapshot_every as u64) {
                                w.append(&WalRecord::Snapshot(snapshot_of(
                                    key,
                                    DefenseKind::Butterfly,
                                    &self.pipe,
                                    self.published + 1,
                                    &rel.release,
                                )))
                                .unwrap();
                            }
                        }
                        self.published += 1;
                        self.releases.push((rel.stream_len, wire));
                    }
                }
            }
        }
    }

    fn wal_cfg(root: &Path) -> WalConfig {
        WalConfig::new(root)
    }

    #[test]
    fn replay_rebuilds_bit_identical_publisher_state() {
        let root = tmp_root("exact");
        let cfg = tiny_cfg();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());

        // Reference: uncrashed, 60 records straight through, no WAL.
        let mut reference = Harness {
            pipe: cfg.pipeline_with("k", DefenseKind::Butterfly),
            published: 0,
            releases: Vec::new(),
        };
        reference.feed(&cfg, "k", None, 0..60, 7);

        // Crashed twin: logs 35 records, then the process "dies" (writer
        // dropped without any shutdown path).
        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut crashed = Harness::open(&cfg, "k", &mut w);
        crashed.feed(&cfg, "k", Some(&mut w), 0..35, 7);
        let before_crash = crashed.releases.clone();
        drop(w);
        drop(crashed);

        let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
        assert_eq!(rec.recovered_windows, before_crash.len() as u64);
        let st = rec.streams.remove("k").expect("stream recovered");
        assert_eq!(st.pipe.stream_len(), 35);
        assert_eq!(st.last_len, before_crash.last().unwrap().0);
        let mut resumed = Harness::resume(st);
        resumed.feed(&cfg, "k", Some(&mut rec.writer), 35..60, 7);

        let full: Vec<_> = before_crash.into_iter().chain(resumed.releases).collect();
        assert_eq!(
            full, reference.releases,
            "restarted stream must publish byte-identical releases"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn undecodable_record_in_the_last_segment_refuses_the_start() {
        let root = tmp_root("undecodable");
        let cfg = tiny_cfg();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        h.feed(&cfg, "k", Some(&mut w), 0..20, 7);
        drop(w);

        // A checksum-clean record that does not decode, then one more valid
        // record: truncating at the first would silently drop the second.
        let seg = shard_dir(&root, 0).join(crate::wal::segment::segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let (mut next, mut off) = (0, 0);
        while let Scan::Record { seq, end, .. } = scan_one(&bytes, off) {
            (next, off) = (seq + 1, end);
        }
        bytes.extend_from_slice(&crate::wal::record::tests::undecodable_open(next));
        bytes.extend_from_slice(
            &WalRecord::Ingest {
                stream: "k".into(),
                base: 20,
                batch: vec![record(20)],
            }
            .encode(next + 1),
        );
        std::fs::write(&seg, &bytes).unwrap();

        let err = match recover_shard(&cfg, &wal, 0, &stats) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("an undecodable record must refuse the start"),
        };
        assert!(err.contains(&seg.display().to_string()), "{err}");
        assert!(err.contains("unknown defense"), "{err}");
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), bytes.len() as u64);
        assert_eq!(stats.truncated_tails.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sequence_gap_in_the_last_segment_refuses_the_start() {
        let root = tmp_root("gap");
        let cfg = tiny_cfg();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        h.feed(&cfg, "k", Some(&mut w), 0..20, 7);
        drop(w);

        // Cut one whole record out of the middle: every record left is
        // checksum-clean, and truncating at the gap would silently drop the
        // durable ones after it.
        let seg = shard_dir(&root, 0).join(crate::wal::segment::segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        let mut bounds = vec![(0, 0)];
        while let Scan::Record { seq, end, .. } = scan_one(&bytes, bounds[bounds.len() - 1].1) {
            bounds.push((seq, end));
        }
        assert!(bounds.len() > 4, "need records either side of the cut");
        let cut = bounds.len() / 2;
        let (missing, next) = (bounds[cut].0, bounds[cut + 1].0);
        let mut gapped = bytes[..bounds[cut - 1].1].to_vec();
        gapped.extend_from_slice(&bytes[bounds[cut].1..]);
        std::fs::write(&seg, &gapped).unwrap();

        let err = match recover_shard(&cfg, &wal, 0, &stats) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a sequence gap between clean records must refuse the start"),
        };
        assert!(err.contains(&seg.display().to_string()), "{err}");
        assert!(
            err.contains(&format!("expected {missing}, found {next}")),
            "{err}"
        );
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), gapped.len() as u64);
        assert_eq!(stats.truncated_tails.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_continues() {
        let root = tmp_root("torn");
        let cfg = tiny_cfg();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        h.feed(&cfg, "k", Some(&mut w), 0..20, 7);
        drop(w);

        // Tear the tail: a half-written record (valid prefix, cut payload).
        let seg = shard_dir(&root, 0).join(crate::wal::segment::segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let torn = WalRecord::Ingest {
            stream: "k".into(),
            base: 20,
            batch: vec![record(99)],
        }
        .encode(9999);
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&seg, &bytes).unwrap();

        let rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
        assert_eq!(stats.truncated_tails.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.truncated_bytes.load(Ordering::Relaxed),
            (torn.len() / 2) as u64
        );
        assert_eq!(rec.streams["k"].pipe.stream_len(), 20);
        // The truncated file must now replay clean.
        let stats2 = Arc::new(WalStats::default());
        drop(rec);
        recover_shard(&cfg, &wal, 0, &stats2).unwrap();
        assert_eq!(stats2.truncated_tails.load(Ordering::Relaxed), 0);
        assert_eq!(stats2.truncated_bytes.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bit_flip_in_a_sealed_segment_refuses_to_start() {
        let root = tmp_root("flip");
        let cfg = tiny_cfg();
        let mut wal = wal_cfg(&root);
        wal.segment_min_bytes = 1; // rotate aggressively → several segments
        wal.keep_segments = 100; // retain everything: flip a sealed one
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        h.feed(&cfg, "k", Some(&mut w), 0..40, 7);
        drop(w);

        let segs = list_segments(&shard_dir(&root, 0)).unwrap();
        assert!(segs.len() >= 2, "need a sealed segment, got {segs:?}");
        let sealed = &segs[0].1;
        let mut bytes = std::fs::read(sealed).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(sealed, &bytes).unwrap();

        let err = match recover_shard(&cfg, &wal, 0, &stats) {
            Err(e) => e,
            Ok(_) => panic!("recovery accepted a bit-flipped sealed segment"),
        };
        assert!(
            err.to_string().contains("corrupt mid-log"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_adoption_survives_compaction_of_the_stream_birth() {
        let root = tmp_root("adopt");
        let cfg = tiny_cfg();
        let mut wal = wal_cfg(&root);
        wal.segment_min_bytes = 1;
        wal.keep_segments = 0; // compact hard: the open record must die
        let stats = Arc::new(WalStats::default());

        let mut reference = Harness {
            pipe: cfg.pipeline_with("k", DefenseKind::Butterfly),
            published: 0,
            releases: Vec::new(),
        };
        reference.feed(&cfg, "k", None, 0..80, 7);

        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut crashed = Harness::open(&cfg, "k", &mut w);
        crashed.feed(&cfg, "k", Some(&mut w), 0..60, 7);
        let before = crashed.releases.clone();
        drop(w);

        let segs = list_segments(&shard_dir(&root, 0)).unwrap();
        assert!(segs[0].0 > 0, "compaction never dropped the birth segment");

        let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
        let st = rec.streams.remove("k").expect("adopted from snapshot");
        assert_eq!(st.pipe.stream_len(), 60);
        // The pin map must have survived: continuing the stream publishes
        // exactly what the uncrashed run publishes, including republication
        // pins chosen windows before the snapshot.
        let mut resumed = Harness::resume(st);
        resumed.feed(&cfg, "k", Some(&mut rec.writer), 60..80, 7);
        let full: Vec<_> = before.into_iter().chain(resumed.releases).collect();
        assert_eq!(full, reference.releases);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The crash window the lazy drain exists for: a chunk's `ingest`
    /// record made it to disk, the publications its records trigger did
    /// not. Recovery must re-execute those publications — with the
    /// worker's own cadence rule — and re-log them, so catch-up readers
    /// see them without any live publication having happened.
    #[test]
    fn torn_release_is_regenerated_and_relogged() {
        let root = tmp_root("regen");
        let cfg = tiny_cfg();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());

        let mut reference = Harness {
            pipe: cfg.pipeline_with("k", DefenseKind::Butterfly),
            published: 0,
            releases: Vec::new(),
        };
        reference.feed(&cfg, "k", None, 0..20, 7);

        let mut w = WalWriter::open(
            &root,
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut crashed = Harness::open(&cfg, "k", &mut w);
        crashed.feed(&cfg, "k", Some(&mut w), 0..9, 9);
        assert_eq!(crashed.releases.len(), 1, "one publication at 8");
        // The next chunk crosses the cadence points at 10 and 12, but the
        // process dies right after the chunk's append: the log holds the
        // records and neither release.
        w.append(&WalRecord::Ingest {
            stream: "k".into(),
            base: 9,
            batch: (9..12).map(record).collect(),
        })
        .unwrap();
        drop(w);

        let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
        assert_eq!(
            rec.recovered_windows, 3,
            "one verified release plus two regenerated ones"
        );
        let st = rec.streams.remove("k").expect("stream recovered");
        assert_eq!(st.pipe.stream_len(), 12);
        assert_eq!(st.published, 3);
        assert_eq!(st.last_len, 12);
        // The regenerated publications are back in the log: catch-up sees
        // all three, byte-equal to the uncrashed run's first three.
        let logged = scan_catchup(&root, 0, "k", 0);
        assert_eq!(logged, reference.releases[..3].to_vec());
        // And the stream continues byte-identically from there.
        let mut resumed = Harness::resume(st);
        resumed.feed(&cfg, "k", Some(&mut rec.writer), 12..20, 7);
        let full: Vec<_> = logged.into_iter().chain(resumed.releases).collect();
        assert_eq!(full, reference.releases);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn catchup_scan_returns_logged_releases_from_a_floor() {
        let root = tmp_root("catchup");
        let cfg = tiny_cfg();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(
            &root,
            0,
            wal,
            cfg.snapshot_every,
            stats,
            WriterPosition::default(),
        )
        .unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        // A second stream interleaved: the scan must filter it out.
        let mut other = Harness::open(&cfg, "other", &mut w);
        h.feed(&cfg, "k", Some(&mut w), 0..30, 7);
        other.feed(&cfg, "other", Some(&mut w), 0..10, 7);
        drop(w);

        let all = scan_catchup(&root, 0, "k", 0);
        assert_eq!(all, h.releases, "earliest catch-up must be the full log");
        let floor = h.releases[2].0;
        let late = scan_catchup(&root, 0, "k", floor);
        assert_eq!(late, h.releases[2..].to_vec());
        assert!(scan_catchup(&root, 0, "nobody", 0).is_empty());
        // Sanity: supports is the sanitized value, not the true one.
        let _: SanitizedSupport = all[0].1[0].support;
        std::fs::remove_dir_all(&root).unwrap();
    }
}
