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
//! A stream comes into being at its `open` record (its birth survived
//! compaction: a fresh pipeline re-fed everything) or is adopted from a
//! `snapshot` record (the birth was compacted): the stream counter restarts
//! at `stream_len - W`, the window's `W` records are fed, and the stream's
//! one piece of history is restored
//! ([`StreamPipeline::restore`]), the previous release's
//! `(true_support, sanitized)` pairs, its position and the release count,
//! which Butterfly's republication rule pins. The live writer names a
//! snapshot's window by position (an empty window list: the `W` logged
//! records ending at `stream_len`), and replay stages every `ingest` record
//! it walks, an unknown stream's included, so such a snapshot's window is
//! fed straight from the staged records; one whose window is not all
//! staged is compacted history, skipped for a later snapshot of the stream.
//! A snapshot that carries its window (older logs, the benchmark's trace)
//! is adopted from its own records. Adoption keeps the staged records past
//! the snapshot, which a chunk logged before it can carry, and a `release`
//! of an unknown stream drops only the staged records older than the window
//! ending at it. A stream with records but neither opened nor adopted when
//! the log ends refuses the start: compaction keeps every stream's open or
//! latest window. Every record walked is applied to the writer's coverage
//! ledger by the method the writer applies it with, so the restarted writer
//! compacts as the crashed one would have.
//!
//! A publication the contract audit withheld left no record and no trace in
//! the pipeline's history, so replay steps over its position like any
//! other unpublished one and recomputes the later releases exactly.
//!
//! Recovery walks every segment through one `SegmentReader`
//! (`wal/segment.rs`) — one block plus the largest record in memory,
//! never a whole segment — and so does the catch-up scan; the two differ
//! in what an invalid record means, and in what they decode: recovery
//! every record, catch-up only the `release` records it serves.
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
use crate::protocol::release_binary;
use crate::stats::WalStats;
use crate::wal::record::{Decode, Scan, StreamSnapshot, WalRecord};
use crate::wal::segment::{FsStore, SegmentId, SegmentReader, SegmentStore};
use crate::wal::writer::{Coverage, Mark, WalWriter, WriterPosition};
use bfly_common::{BinaryEntry, BinaryFrame, Error, Item, ItemSet, ItemsetId, Result};
use bfly_core::{PublicationHistory, SanitizedItemset, StreamPipeline, WindowRelease};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stream's logged-but-not-yet-applied records, each at its absolute
/// stream position (record at position `p` brings `stream_len` to `p`).
/// The log runs ahead of the pipeline — a chunk is appended whole before
/// any of its records advance — so replay stages records here and drains
/// them as `release` records (or the end of the log) demand.
type Pending = VecDeque<(u64, ItemSet)>;

/// What one [`publish_and_log`] step did.
pub(crate) enum Step {
    /// Published, logged (given a log) and counted.
    Published(Box<Publication>),
    /// Failed the contract audit with this many violating entries: withheld
    /// from the log and from every subscriber, and the stream's history is
    /// as it was, so the next delta's base is the last release emitted.
    Withheld(usize),
}

/// One logged publication, ready to fan out.
pub(crate) struct Publication {
    /// The defense's release and delta.
    pub(crate) window: WindowRelease,
    /// The binary `release` frame: the bytes binary subscribers get and the
    /// log's `release` record carries.
    pub(crate) frame: Vec<u8>,
    /// Stream position of the previous publication: the delta's `base_len`.
    pub(crate) base_len: u64,
    /// On the snapshot cadence: the log took a `snapshot` record and
    /// subscribers get the full `release`.
    pub(crate) snapshot: bool,
}

/// Publish `pipe`'s full window and log it: the one publication step of
/// the shard worker and of replay, which also re-runs each logged release
/// through it (without a log) to verify it. A release failing the contract
/// audit is withheld and changes nothing. Otherwise the `release` record is
/// appended, plus a `snapshot` when due, before the publication is handed
/// back to fan out: durable before visible. Also returns the time spent
/// inside `publish_now`.
///
/// # Errors
/// A window that is not full, or a failed log append.
pub(crate) fn publish_and_log(
    pipe: &mut StreamPipeline,
    cfg: &ServeConfig,
    key: &str,
    log: Option<&mut WalWriter>,
) -> Result<(Duration, Step)> {
    let history = pipe.history();
    let (published, base_len) = (history.published(), history.stream_len());
    let started = Instant::now();
    let outcome = pipe.publish_now();
    let took = started.elapsed();
    let window = match outcome {
        Err(Error::ContractViolation { violations, .. }) => {
            return Ok((took, Step::Withheld(violations)));
        }
        outcome => outcome?,
    };
    let snapshot = cfg.snapshot_every <= 1 || published.is_multiple_of(cfg.snapshot_every as u64);
    let frame = release_binary(key, window.stream_len, &window.release);
    if let Some(log) = log {
        log.append_release(key, &frame)?;
        if snapshot {
            // Taken at a publication point, so everything a restart needs
            // beside the window, which the log already holds, is this
            // release's (true, sanitized) pairs.
            log.append_snapshot(
                key,
                pipe.defense().kind(),
                window.stream_len,
                published + 1,
                &window.release,
                pipe.window().len(),
            )?;
        }
    }
    let publication = Publication {
        window,
        frame,
        base_len,
        snapshot,
    };
    Ok((took, Step::Published(Box::new(publication))))
}

/// Everything recovery hands the shard: its streams and a writer positioned
/// to append the next record.
pub struct RecoveredShard {
    /// Rebuilt streams' pipelines by key, each advanced to exactly its
    /// pre-crash stream position.
    pub streams: HashMap<String, StreamPipeline>,
    /// The log, open for appending after the last clean record.
    pub writer: WalWriter,
    /// Publications re-verified during replay (also accumulated into
    /// [`WalStats::recovered_windows`]).
    pub recovered_windows: u64,
}

/// Advance `pipe` by the staged record at position `p`, which must be the
/// next one: anything else is a forked history, refused in every build.
fn advance_staged(
    pipe: &mut StreamPipeline,
    stream: &str,
    p: u64,
    items: &ItemSet,
) -> std::result::Result<(), String> {
    let at = pipe.stream_len();
    if p != at + 1 {
        return Err(format!(
            "stream {stream:?} has a logged record at position {p} but replay stopped at {at}"
        ));
    }
    pipe.advance_items(items.items());
    Ok(())
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
    recover_shard_in(Arc::new(FsStore::new(&wal.dir)), cfg, wal, shard, stats)
}

/// [`recover_shard`] over `store`, whose writer the returned shard appends
/// through. Walks every segment with one [`SegmentReader`] under the strict
/// policy: sequence continuity everywhere, a torn tail of the last segment
/// truncated, any other invalid record refusing the start.
pub(crate) fn recover_shard_in(
    store: Arc<dyn SegmentStore>,
    cfg: &ServeConfig,
    wal: &WalConfig,
    shard: usize,
    stats: &Arc<WalStats>,
) -> Result<RecoveredShard> {
    let segs = store.list(shard)?;
    let mut state = ReplayState::default();
    let mut expected_seq: Option<u64> = None;
    let mut pos = WriterPosition {
        segments_on_disk: segs.len() as u64,
        ..WriterPosition::default()
    };
    let mut reader = SegmentReader::new();

    for (nth, &seg_idx) in segs.iter().enumerate() {
        let seg = SegmentId {
            shard,
            idx: seg_idx,
        };
        let path = store.path(seg);
        reader.open(store.as_ref(), seg)?;
        let last_segment = nth == segs.len() - 1;
        let mut seg_snapshots = 0u32;
        loop {
            match reader.next(Decode::All)? {
                Scan::End => break,
                Scan::Skipped { .. } => unreachable!("recovery decodes every record"),
                Scan::Record { rec, seq, .. } => {
                    if let Some(want) = expected_seq {
                        if seq != want {
                            // A torn write cannot leave a checksum-clean
                            // record carrying the wrong sequence number:
                            // records went missing from durable storage, in
                            // whichever segment.
                            let reason = format!("sequence gap: expected {want}, found {seq}");
                            return Err(corrupt(&path, &reason));
                        }
                    }
                    expected_seq = Some(seq + 1);
                    if matches!(rec, WalRecord::Snapshot(_)) {
                        seg_snapshots += 1;
                    }
                    apply(cfg, rec, seg_idx, &path, &mut state)?;
                }
                Scan::Corrupt { reason } => {
                    if last_segment {
                        truncate_tail(store.as_ref(), seg, &reader, stats)?;
                        break;
                    }
                    return Err(corrupt(&path, &reason));
                }
                Scan::Undecodable { reason } => return Err(corrupt(&path, &reason)),
            }
        }
        if last_segment {
            pos.seg_idx = seg_idx;
            pos.seg_bytes = reader.offset();
            pos.seg_snapshots = seg_snapshots;
        }
    }

    // A stream with retained records that was neither opened nor adopted
    // lost the segment its open or its window sat in: compaction keeps
    // both, so the log is missing history it promised to keep.
    let mut orphans: Vec<_> = state
        .unadopted
        .iter()
        .filter(|(key, _)| !state.streams.contains_key(*key))
        .collect();
    orphans.sort();
    if let Some((key, (path, snapshot))) = orphans.first() {
        let reason = match snapshot {
            Some(stream_len) => format!(
                "snapshot for {key:?} at {stream_len} names the {} logged records ending there, \
                 and the log no longer holds them",
                cfg.window
            ),
            None => format!(
                "stream {key:?} has logged records here, but neither its open nor a snapshot \
                 of it survives"
            ),
        };
        return Err(corrupt(path, &reason));
    }

    pos.next_seq = expected_seq.unwrap_or(0);
    pos.coverage = state.coverage;
    let mut writer = WalWriter::open_in(
        store,
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
            advance_staged(st, &key, p, &items).map_err(|e| {
                Error::Parse(format!(
                    "wal for shard {shard} is corrupt: {e} (move the wal dir aside to start fresh)"
                ))
            })?;
            if st.due(cfg.every) {
                if let (_, Step::Published(_)) = publish_and_log(st, cfg, &key, Some(&mut writer))?
                {
                    state.recovered_windows += 1;
                }
            }
        }
    }

    stats
        .recovered_windows
        .fetch_add(state.recovered_windows, Ordering::Relaxed);
    Ok(RecoveredShard {
        streams: state.streams,
        writer,
        recovered_windows: state.recovered_windows,
    })
}

/// Cut `seg` at the end of the last whole record `reader` returned.
fn truncate_tail(
    store: &dyn SegmentStore,
    seg: SegmentId,
    reader: &SegmentReader,
    stats: &Arc<WalStats>,
) -> Result<()> {
    let keep = reader.offset();
    let dropped = reader.len() - keep;
    store.truncate(seg, keep)?;
    eprintln!(
        "wal: truncated torn tail of {}: dropped {dropped} bytes at offset {keep}",
        store.path(seg).display()
    );
    stats.truncated_tails.fetch_add(1, Ordering::Relaxed);
    stats.truncated_bytes.fetch_add(dropped, Ordering::Relaxed);
    Ok(())
}

/// Everything the scan accumulates: the rebuilt streams, the staging
/// buffers the log runs ahead with, and the coverage ledger that seeds the
/// writer's position.
#[derive(Default)]
struct ReplayState {
    streams: HashMap<String, StreamPipeline>,
    pending: HashMap<String, Pending>,
    coverage: Coverage,
    /// Streams with records but not yet opened or adopted: the segment of
    /// their first record, or of their latest snapshot that could not
    /// adopt (its window was compacted) and its position.
    unadopted: HashMap<String, (PathBuf, Option<u64>)>,
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
        unadopted,
        recovered_windows,
    } = state;
    let mark = Mark::of(&rec, Some(cfg.window)).map_err(|e| corrupt(path, &e))?;
    coverage.apply(rec.stream(), mark, seg_idx);
    if let WalRecord::Ingest { stream, .. } | WalRecord::Release { stream, .. } = &rec {
        if !streams.contains_key(stream) && !unadopted.contains_key(stream) {
            unadopted.insert(stream.clone(), (path.to_path_buf(), None));
        }
    }
    match rec {
        WalRecord::Open { stream, kind } => {
            if streams.contains_key(&stream) {
                return Err(corrupt(
                    path,
                    &format!("duplicate open for stream {stream:?}"),
                ));
            }
            let pipe = cfg.pipeline_with(&stream, kind);
            streams.insert(stream, pipe);
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
                .or_else(|| streams.get(&stream).map(StreamPipeline::stream_len));
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
        }
        WalRecord::Release {
            stream,
            stream_len,
            entries,
        } => {
            let Some(st) = streams.get_mut(&stream) else {
                // Compacted prefix: a snapshot here names the window ending
                // at this release, so only the staged records older than
                // that window leave the buffer.
                if let Some(q) = pending.get_mut(&stream) {
                    let floor = stream_len.saturating_sub(cfg.window as u64);
                    while q.front().is_some_and(|&(p, _)| p <= floor) {
                        q.pop_front();
                    }
                }
                return Ok(());
            };
            let q = pending.entry(stream.clone()).or_default();
            while st.stream_len() < stream_len {
                let Some((p, items)) = q.pop_front() else {
                    return Err(corrupt(
                        path,
                        &format!(
                            "logged release for {stream:?} at {stream_len} outruns the logged \
                             ingests (replay stopped at {})",
                            st.stream_len()
                        ),
                    ));
                };
                advance_staged(st, &stream, p, &items).map_err(|e| corrupt(path, &e))?;
            }
            let logged = BinaryFrame::Release {
                stream: stream.clone(),
                stream_len,
                entries,
            };
            match publish_and_log(st, cfg, &stream, None) {
                Ok((_, Step::Published(p))) if p.frame == logged.encode() => {
                    *recovered_windows += 1
                }
                Ok(_) => {
                    return Err(corrupt(
                        path,
                        &format!(
                            "recomputed release for {stream:?} diverges from the logged \
                             publication at {stream_len}"
                        ),
                    ))
                }
                Err(e) => {
                    return Err(corrupt(
                        path,
                        &format!("logged release at {stream_len} is unpublishable on replay: {e}"),
                    ))
                }
            }
        }
        WalRecord::Snapshot(s) => {
            if let Some(st) = streams.get(&s.stream) {
                // Already live (its open survived): the snapshot is purely a
                // compaction barrier, but it is also a free consistency
                // tripwire.
                let published = st.history().published();
                if st.stream_len() != s.stream_len || published != s.published {
                    return Err(corrupt(
                        path,
                        &format!(
                            "snapshot for live stream {:?} disagrees with replayed state \
                             (stream_len {} vs {}, published {} vs {})",
                            s.stream,
                            s.stream_len,
                            st.stream_len(),
                            s.published,
                            published
                        ),
                    ));
                }
                return Ok(());
            }
            // Adoption: records before the window leave the staging buffer,
            // a named window's records are fed from it, and the chunk tail
            // past the snapshot stays and drains at later releases (or the
            // end-of-log drain). `Mark::of` refused a window reaching past
            // the stream's start.
            let q = pending.entry(s.stream.clone()).or_default();
            let staged = if s.window.is_empty() { cfg.window } else { 0 };
            let covered = s.stream_len - staged as u64;
            while q.front().is_some_and(|&(p, _)| p <= covered) {
                q.pop_front();
            }
            let whole = q.front().is_some_and(|&(p, _)| p == covered + 1) && q.len() >= staged;
            if staged > 0 && !whole {
                // Compacted history: a later snapshot adopts.
                unadopted.insert(s.stream.clone(), (path.to_path_buf(), Some(s.stream_len)));
                return Ok(());
            }
            let st = adopt(cfg, path, &s, q.drain(..staged))?;
            unadopted.remove(&s.stream);
            streams.insert(s.stream, st);
        }
    }
    Ok(())
}

/// Rebuild a stream from snapshot `s` (its earlier records were compacted
/// away), its window the `staged` records, or the snapshot's own when it
/// carries them. Every itemset the snapshot holds must be strictly
/// ascending, as every writer logs them: one that is not was never written
/// by this log, so the start is refused rather than the itemset
/// canonicalized.
fn adopt(
    cfg: &ServeConfig,
    path: &Path,
    s: &StreamSnapshot,
    staged: impl ExactSizeIterator<Item = (u64, ItemSet)>,
) -> Result<StreamPipeline> {
    let base = s.stream_len - (staged.len() + s.window.len()) as u64;
    let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
    let bad_record = s.window.iter().position(|ids| !ascending(ids));
    let bad_entry = s.prev_release.iter().position(|e| !ascending(&e.ids));
    if let Some((what, at)) = bad_record
        .map(|i| ("window record", i))
        .or(bad_entry.map(|i| ("release entry", i)))
    {
        return Err(corrupt(
            path,
            &format!(
                "snapshot for {:?} holds {what} {at} whose ids are not strictly ascending",
                s.stream
            ),
        ));
    }
    let mut pipe = cfg.pipeline_with(&s.stream, s.kind);
    pipe.set_stream_base(base);
    for (_, items) in staged {
        pipe.advance_items(items.items());
    }
    let mut items = Vec::new();
    for ids in &s.window {
        items.clear();
        items.extend(ids.iter().map(|&id| Item(id)));
        pipe.advance_items(&items);
    }
    let previous = s.prev_release.iter().map(|e| SanitizedItemset {
        id: ItemsetId::new(ItemSet::from_ids(e.ids.iter().copied())),
        true_support: e.true_support,
        sanitized: e.sanitized,
    });
    pipe.restore(PublicationHistory::restored(
        s.published,
        s.last_len,
        previous,
    ));
    Ok(pipe)
}

/// Scan a shard's retained log for `release` records of one stream with
/// `stream_len >= min_len` — the log-based catch-up feed for late
/// subscribers.
///
/// This runs on the reactor thread (`server::dispatch` →
/// `NodeCore::catchup`) while the shard's writer is appending, so it is
/// deliberately tolerant: a record failing its checksum, or a release of
/// `stream` failing to decode, stops the scan (it is the live tail or a
/// racing compaction), a vanished segment file is skipped. Every other
/// record is checksummed and stepped over undecoded. The horizon is
/// whatever compaction retained; callers get every release still on disk,
/// oldest first.
pub fn scan_catchup(
    root: &Path,
    shard: usize,
    stream: &str,
    min_len: u64,
) -> Vec<(u64, Vec<BinaryEntry>)> {
    let mut out = Vec::new();
    catchup_in(&FsStore::new(root), shard, stream, min_len, |len, e| {
        out.push((len, e))
    });
    out
}

/// [`scan_catchup`] over `store`, handing each release to `each` as the
/// reader yields it instead of collecting them.
pub(crate) fn catchup_in(
    store: &dyn SegmentStore,
    shard: usize,
    stream: &str,
    min_len: u64,
    mut each: impl FnMut(u64, Vec<BinaryEntry>),
) {
    let Ok(segs) = store.list(shard) else {
        return;
    };
    let mut reader = SegmentReader::new();
    for idx in segs {
        if reader.open(store, SegmentId { shard, idx }).is_err() {
            continue; // compacted underneath us
        }
        loop {
            match reader.next(Decode::ReleasesOf(stream)) {
                Ok(Scan::End) | Err(_) => break,
                Ok(Scan::Corrupt { .. } | Scan::Undecodable { .. }) => return, // live tail
                Ok(Scan::Skipped { .. }) => {}
                Ok(Scan::Record { rec, .. }) => {
                    if let WalRecord::Release {
                        stream: s,
                        stream_len,
                        entries,
                    } = rec
                    {
                        if s == stream && stream_len >= min_len {
                            each(stream_len, entries);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{WalConfig, WalSyncPolicy};
    use crate::protocol::binary_entries;
    use crate::wal::fault::FaultStore;
    use crate::wal::record::tests::{undecodable_open, undecodable_release, w2000_snapshot};
    use crate::wal::record::{scan_one, SnapshotEntry, HEADER_LEN};
    use crate::wal::segment::FsStore;
    use crate::wal::segment::{shard_dir, BLOCK};
    use bfly_common::{IngestChunk, SanitizedSupport, Transaction};
    use bfly_core::DefenseKind;
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
    /// `writer` through the worker's own publication step.
    struct Harness {
        pipe: StreamPipeline,
        releases: Vec<(u64, Vec<BinaryEntry>)>,
        /// Log snapshots that carry their window, through
        /// `WalRecord::Snapshot`, as logs written before snapshots named
        /// it by position do.
        carried: bool,
    }

    impl Harness {
        fn new(cfg: &ServeConfig, key: &str) -> Harness {
            Harness::resume(cfg.pipeline_with(key, DefenseKind::Butterfly))
        }

        fn open(cfg: &ServeConfig, key: &str, writer: &mut WalWriter) -> Harness {
            writer
                .append(&WalRecord::Open {
                    stream: key.into(),
                    kind: DefenseKind::Butterfly,
                })
                .unwrap();
            Harness::new(cfg, key)
        }

        fn resume(pipe: StreamPipeline) -> Harness {
            Harness {
                pipe,
                releases: Vec::new(),
                carried: false,
            }
        }

        /// Publish the full window, logging it the way a log that carries
        /// its snapshots' windows was written: the release record, then on
        /// the snapshot cadence the window's records in the snapshot.
        fn publish_carried(&mut self, cfg: &ServeConfig, key: &str, w: &mut WalWriter) -> Step {
            let (_, step) = publish_and_log(&mut self.pipe, cfg, key, None).unwrap();
            let Step::Published(p) = &step else {
                return step;
            };
            w.append(&WalRecord::Release {
                stream: key.into(),
                stream_len: p.window.stream_len,
                entries: binary_entries(p.window.release.iter()),
            })
            .unwrap();
            if p.snapshot {
                let ids = |set: &ItemSet| set.iter().map(|i| i.id()).collect();
                let n = p.window.stream_len;
                w.append(&WalRecord::Snapshot(StreamSnapshot {
                    stream: key.into(),
                    kind: self.pipe.defense().kind(),
                    stream_len: n,
                    published: self.pipe.history().published(),
                    last_len: n,
                    prev_release: p
                        .window
                        .release
                        .iter()
                        .map(|e| SnapshotEntry {
                            ids: ids(e.itemset()),
                            true_support: e.true_support,
                            sanitized: e.sanitized,
                        })
                        .collect(),
                    window: (n - cfg.window as u64..n)
                        .map(|i| ids(&record(i)))
                        .collect(),
                }))
                .unwrap();
            }
            step
        }

        /// Feed records in chunks of `chunk`, logging each whole chunk
        /// before advancing any of it — exactly the worker's write order,
        /// so publications land mid-chunk and replay must interleave. A
        /// stream logging carried windows logs its chunks through the
        /// `WalRecord` encoder, any other through the worker's appender.
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
                let base = self.pipe.stream_len();
                let batch: Vec<ItemSet> = part.iter().map(|&i| record(i)).collect();
                match writer.as_deref_mut() {
                    Some(w) if self.carried => w.append(&WalRecord::Ingest {
                        stream: key.into(),
                        base,
                        batch,
                    }),
                    Some(w) => w.append_ingest(key, base, &IngestChunk::from_itemsets(&batch)),
                    None => Ok(()),
                }
                .unwrap();
                for &i in part {
                    self.pipe.advance(Transaction::new(0, record(i)));
                    if self.pipe.due(cfg.every) {
                        let step = match writer.as_deref_mut() {
                            Some(w) if self.carried => self.publish_carried(cfg, key, w),
                            w => publish_and_log(&mut self.pipe, cfg, key, w).unwrap().1,
                        };
                        let Step::Published(p) = step else {
                            panic!("an honest defense withheld a release");
                        };
                        let payload = &p.frame[bfly_common::frame::HEADER_LEN..];
                        let Ok(BinaryFrame::Release { entries, .. }) =
                            BinaryFrame::decode_payload(p.frame[1], payload)
                        else {
                            panic!("a release step built {:?}", p.frame);
                        };
                        self.releases.push((p.window.stream_len, entries));
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
        let mut reference = Harness::new(&cfg, "k");
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
        assert_eq!(st.stream_len(), 35);
        assert_eq!(st.history().stream_len(), before_crash.last().unwrap().0);
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
        while let Scan::Record { seq, end, .. } = scan_one(&bytes, off, Decode::All) {
            (next, off) = (seq + 1, end);
        }
        bytes.extend_from_slice(&undecodable_open(next));
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
        while let Scan::Record { seq, end, .. } =
            scan_one(&bytes, bounds[bounds.len() - 1].1, Decode::All)
        {
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

    /// An adopted stream whose staged chunk starts past the snapshot's
    /// edge: the release after the snapshot would advance the record at 21
    /// as if it sat at 11. Refused in every build, naming both positions.
    #[test]
    fn a_staged_record_past_the_adopted_edge_refuses_the_start() {
        let root = tmp_root("misplaced");
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
        // The stream's birth was compacted: an ingest chunk at 21..=25,
        // then a snapshot at 10 holding records 3..=10, then a release.
        w.append(&WalRecord::Ingest {
            stream: "k".into(),
            base: 20,
            batch: (20..25).map(record).collect(),
        })
        .unwrap();
        w.append(&WalRecord::Snapshot(StreamSnapshot {
            stream: "k".into(),
            kind: DefenseKind::Butterfly,
            stream_len: 10,
            published: 1,
            last_len: 10,
            prev_release: Vec::new(),
            window: (2..10)
                .map(|i| record(i).iter().map(|item| item.id()).collect())
                .collect(),
        }))
        .unwrap();
        w.append(&WalRecord::Release {
            stream: "k".into(),
            stream_len: 12,
            entries: Vec::new(),
        })
        .unwrap();
        drop(w);

        let seg = shard_dir(&root, 0).join(crate::wal::segment::segment_file_name(0));
        let err = match recover_shard(&cfg, &wal, 0, &stats) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a misplaced staged record must refuse the start"),
        };
        assert!(err.contains(&seg.display().to_string()), "{err}");
        assert!(
            err.contains("record at position 21 but replay stopped at 10"),
            "{err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A checksum-clean `release` record whose entries the replayed
    /// publication does not reproduce: the log and the code disagree about
    /// history.
    #[test]
    fn a_logged_release_replay_cannot_reproduce_refuses_the_start() {
        let root = tmp_root("diverged");
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
        Harness::open(&cfg, "k", &mut w).feed(&cfg, "k", Some(&mut w), 0..8, 8);
        // The publication at 10, one sanitized support off.
        let mut reference = Harness::new(&cfg, "k");
        reference.feed(&cfg, "k", None, 0..10, 10);
        let (stream_len, mut entries) = reference.releases.pop().unwrap();
        assert_eq!(stream_len, 10);
        entries[0].support += 1;
        w.append(&WalRecord::Ingest {
            stream: "k".into(),
            base: 8,
            batch: (8..10).map(record).collect(),
        })
        .unwrap();
        w.append(&WalRecord::Release {
            stream: "k".into(),
            stream_len,
            entries,
        })
        .unwrap();
        drop(w);

        let err = match recover_shard(&cfg, &wal, 0, &stats) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a release replay cannot reproduce must refuse the start"),
        };
        assert!(
            err.contains("diverges from the logged publication at 10"),
            "{err}"
        );
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

        // Tear the tail: a half-written record (valid prefix, cut payload);
        // a snapshot longer than a block cut on both sides of the reader's
        // block boundary; a bare header claiming a `u32::MAX` payload.
        let seg = shard_dir(&root, 0).join(crate::wal::segment::segment_file_name(0));
        let clean = std::fs::read(&seg).unwrap();
        let torn = WalRecord::Ingest {
            stream: "k".into(),
            base: 20,
            batch: vec![record(99)],
        }
        .encode(9999);
        let big = w2000_snapshot().encode(9999);
        assert!(big.len() > BLOCK && clean.len() < BLOCK);
        let mut tails = vec![torn[..torn.len() / 2].to_vec()];
        let to_boundary = BLOCK - clean.len();
        for cut in [
            1,
            HEADER_LEN + 1,
            to_boundary - 1,
            to_boundary,
            to_boundary + 1,
        ] {
            tails.push(big[..cut].to_vec());
        }
        tails.push(big[..big.len() - 1].to_vec());
        let mut huge = big[..HEADER_LEN].to_vec();
        huge[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        tails.push(huge);

        for tail in tails {
            let bytes = [&clean[..], &tail].concat();
            std::fs::write(&seg, &bytes).unwrap();
            // The reader holds one block, plus room for the longest record
            // it returned, whatever the tail claims.
            let mut reader = SegmentReader::new();
            reader
                .open(&FsStore::new(&root), SegmentId { shard: 0, idx: 0 })
                .unwrap();
            let (mut at, mut longest) = (0, 0);
            while let Scan::Record { end, .. } = reader.next(Decode::All).unwrap() {
                longest = longest.max(end as u64 - at);
                at = end as u64;
            }
            assert!(reader.capacity() as u64 <= BLOCK as u64 + longest);

            let stats = Arc::new(WalStats::default());
            let rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
            assert_eq!(stats.truncated_tails.load(Ordering::Relaxed), 1);
            assert_eq!(
                stats.truncated_bytes.load(Ordering::Relaxed),
                tail.len() as u64
            );
            assert_eq!(rec.streams["k"].stream_len(), 20);
            // The truncated file must now replay clean.
            let stats2 = Arc::new(WalStats::default());
            drop(rec);
            recover_shard(&cfg, &wal, 0, &stats2).unwrap();
            assert_eq!(stats2.truncated_tails.load(Ordering::Relaxed), 0);
            assert_eq!(stats2.truncated_bytes.load(Ordering::Relaxed), 0);
            assert_eq!(std::fs::read(&seg).unwrap(), clean);
        }
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

        let segs = FsStore::new(&root).list(0).unwrap();
        assert!(segs.len() >= 2, "need a sealed segment, got {segs:?}");
        let sealed = FsStore::new(&root).path(SegmentId {
            shard: 0,
            idx: segs[0],
        });
        let clean = std::fs::read(&sealed).unwrap();
        // A flipped bit mid-segment; a record header mid-segment claiming a
        // `u32::MAX` payload, more than the segment holds.
        let mut flipped = clean.clone();
        flipped[clean.len() / 2] ^= 0x40;
        let mut claims_max = clean.clone();
        let mut at = 0;
        while at < clean.len() / 2 {
            let Scan::Record { end, .. } = scan_one(&clean, at, Decode::All) else {
                panic!("the sealed segment is clean");
            };
            at = end;
        }
        claims_max[at + 2..at + 6].copy_from_slice(&u32::MAX.to_le_bytes());

        for (bytes, why) in [(flipped, "checksum"), (claims_max, "runs past the segment")] {
            std::fs::write(&sealed, &bytes).unwrap();
            let err = match recover_shard(&cfg, &wal, 0, &stats) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("recovery accepted a corrupt sealed segment ({why})"),
            };
            assert!(err.contains("corrupt mid-log"), "unexpected error: {err}");
            assert!(err.contains(&sealed.display().to_string()), "{err}");
            assert!(err.contains(why), "{err}");
            assert_eq!(std::fs::read(&sealed).unwrap(), bytes, "left untouched");
        }
        assert_eq!(stats.truncated_tails.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Log records `0..n` of `"k"` in chunks of `chunk` under hard
    /// compaction (one segment per `cfg.snapshot_every` snapshots, no
    /// grace), snapshots carrying their window or naming it, and crash: the
    /// birth segment is gone.
    fn crashed_log(
        root: &Path,
        cfg: &ServeConfig,
        carried: bool,
        n: u64,
        chunk: usize,
    ) -> (WalConfig, Harness) {
        let mut wal = wal_cfg(root);
        wal.segment_min_bytes = 1;
        wal.keep_segments = 0; // compact hard: the open record must die
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let mut w = WalWriter::open(root, 0, wal.clone(), cfg.snapshot_every, stats, pos).unwrap();
        let mut crashed = Harness::open(cfg, "k", &mut w);
        crashed.carried = carried;
        crashed.feed(cfg, "k", Some(&mut w), 0..n, chunk);
        drop(w);
        let segs = FsStore::new(root).list(0).unwrap();
        assert!(segs[0] > 0, "compaction never dropped the birth segment");
        (wal, crashed)
    }

    /// Every snapshot in `root`'s log, by segment.
    fn snapshots(root: &Path) -> Vec<(u64, StreamSnapshot)> {
        let store = FsStore::new(root);
        let mut out = Vec::new();
        let mut reader = SegmentReader::new();
        for idx in store.list(0).unwrap() {
            reader.open(&store, SegmentId { shard: 0, idx }).unwrap();
            while let Scan::Record { rec, .. } = reader.next(Decode::All).unwrap() {
                if let WalRecord::Snapshot(s) = rec {
                    out.push((idx, s));
                }
            }
        }
        out
    }

    #[test]
    fn snapshot_adoption_survives_compaction_of_the_stream_birth() {
        // Chunks of 7 with a segment per three snapshots; and one record a
        // chunk with a segment per snapshot, so a window spans four
        // segments when compaction runs, before and after the restart.
        let every_snapshot = ServeConfig {
            snapshot_every: 1,
            ..tiny_cfg()
        };
        for (cfg, chunk) in [(tiny_cfg(), 7), (every_snapshot, 1)] {
            let root = tmp_root(&format!("adopt-{chunk}"));
            let stats = Arc::new(WalStats::default());

            let mut reference = Harness::new(&cfg, "k");
            reference.feed(&cfg, "k", None, 0..100, chunk);

            let (wal, crashed) = crashed_log(&root, &cfg, false, 60, chunk);
            // The live writer names every window by position.
            let logged = snapshots(&root);
            assert!(!logged.is_empty() && logged.iter().all(|(_, s)| s.window.is_empty()));
            let mut releases = crashed.releases.clone();

            let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
            let st = rec.streams.remove("k").expect("adopted from snapshot");
            assert_eq!(st.stream_len(), 60);
            // The snapshot and the window's logged records restore the
            // history the logging stream held.
            assert_eq!(st.history(), crashed.pipe.history());
            // The pin map and the window must have survived: continuing the
            // stream publishes exactly what the uncrashed run publishes,
            // including republication pins chosen windows before the
            // snapshot. The restarted writer compacts by the anchors replay
            // rebuilt — its first snapshots name records logged before the
            // restart — and the log it leaves recovers in turn.
            let mut resumed = Harness::resume(st);
            resumed.feed(&cfg, "k", Some(&mut rec.writer), 60..64, chunk);
            releases.extend(resumed.releases);
            drop(rec);
            let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
            let st = rec.streams.remove("k").expect("adopted again");
            assert_eq!(st.stream_len(), 64);
            let mut resumed = Harness::resume(st);
            resumed.feed(&cfg, "k", Some(&mut rec.writer), 64..100, chunk);
            releases.extend(resumed.releases);
            assert_eq!(releases, reference.releases, "chunks of {chunk}");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    /// A log whose snapshots carry their window, as logs written before
    /// snapshots named it by position do, adopts from them and continues
    /// byte-identically; the writer it hands back names its windows by
    /// position, and that mixed log recovers byte-identically in turn.
    #[test]
    fn a_log_whose_snapshots_carry_their_window_recovers_byte_identically() {
        let root = tmp_root("carried");
        let cfg = tiny_cfg();
        let stats = Arc::new(WalStats::default());

        let mut reference = Harness::new(&cfg, "k");
        reference.feed(&cfg, "k", None, 0..140, 7);

        let (wal, crashed) = crashed_log(&root, &cfg, true, 60, 7);
        let logged = snapshots(&root);
        assert!(logged.iter().all(|(_, s)| s.window.len() == cfg.window));
        let mut releases = crashed.releases.clone();

        let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
        let st = rec.streams.remove("k").expect("adopted from snapshot");
        assert_eq!(st.history(), crashed.pipe.history());
        let mut resumed = Harness::resume(st);
        resumed.feed(&cfg, "k", Some(&mut rec.writer), 60..100, 7);
        releases.extend(resumed.releases);
        drop(rec);
        // Compaction past the carried snapshots leaves by-position ones.
        let logged = snapshots(&root);
        assert!(logged.iter().any(|(_, s)| s.window.is_empty()));

        let mut rec = recover_shard(&cfg, &wal, 0, &stats).unwrap();
        let st = rec.streams.remove("k").expect("adopted from snapshot");
        assert_eq!(st.stream_len(), 100);
        let mut resumed = Harness::resume(st);
        resumed.feed(&cfg, "k", Some(&mut rec.writer), 100..140, 7);
        releases.extend(resumed.releases);
        assert_eq!(releases, reference.releases);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The segment holding the window a by-position snapshot names, deleted
    /// by hand: the snapshot names records the log no longer holds, so the
    /// start is refused, naming the snapshot's segment, rather than the
    /// stream silently left out. So is a log whose every snapshot and open
    /// of a stream went with the deleted segment.
    #[test]
    fn a_snapshot_whose_window_segment_is_gone_refuses_the_start() {
        let root = tmp_root("window-gone");
        let cfg = tiny_cfg();
        let store = FsStore::new(&root);
        let recover =
            |wal: &WalConfig| match recover_shard(&cfg, wal, 0, &Arc::new(WalStats::default())) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("a stream whose history is gone must refuse the start"),
            };

        // Chunks of 20 straddle the rotations: the last snapshot, at 44,
        // sits in segment 2 and names records 37..=44 of the chunk logged
        // in segment 1.
        let (wal, _) = crashed_log(&root, &cfg, false, 48, 20);
        assert_eq!(store.list(0).unwrap(), vec![1, 2]);
        let (last_seg, last) = snapshots(&root).last().unwrap().clone();
        assert_eq!((last_seg, last.stream_len), (2, 44));
        store.remove(SegmentId { shard: 0, idx: 1 }).unwrap();
        let err = recover(&wal);
        let seg = store.path(SegmentId { shard: 0, idx: 2 });
        assert!(err.contains(&seg.display().to_string()), "{err}");
        assert!(err.contains("corrupt mid-log"), "{err}");
        let want = format!(
            "snapshot for \"k\" at 44 names the {} logged records ending there, and the log \
             no longer holds them",
            cfg.window
        );
        assert!(err.contains(&want), "{err}");

        // Chunks of 7: the last snapshot shares the oldest segment with its
        // window; deleting it leaves only the stream's later records.
        std::fs::remove_dir_all(&root).unwrap();
        let (wal, _) = crashed_log(&root, &cfg, false, 60, 7);
        let segs = store.list(0).unwrap();
        let (last_seg, _) = snapshots(&root).last().unwrap().clone();
        assert_eq!(last_seg, segs[0]);
        store
            .remove(SegmentId {
                shard: 0,
                idx: segs[0],
            })
            .unwrap();
        let err = recover(&wal);
        let seg = store.path(SegmentId {
            shard: 0,
            idx: segs[1],
        });
        assert!(err.contains(&seg.display().to_string()), "{err}");
        assert!(
            err.contains("\"k\" has logged records here, but neither its open nor a snapshot"),
            "{err}"
        );

        // A lone release of a stream the log never opened.
        std::fs::remove_dir_all(&root).unwrap();
        let wal = wal_cfg(&root);
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let mut w = WalWriter::open(&root, 0, wal.clone(), 3, stats, pos).unwrap();
        w.append(&WalRecord::Release {
            stream: "z".into(),
            stream_len: 9,
            entries: Vec::new(),
        })
        .unwrap();
        drop(w);
        let err = recover(&wal);
        assert!(err.contains("\"z\" has logged records here"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A checksum-clean snapshot holding an itemset whose ids are not
    /// strictly ascending was never written by this log: adoption refuses
    /// the start, naming the segment, rather than canonicalize it.
    #[test]
    fn a_snapshot_with_unsorted_ids_refuses_the_start() {
        let cfg = tiny_cfg();
        let recover = |s: StreamSnapshot| {
            let store = FaultStore::new(2);
            let wal = wal_cfg(store.root());
            let stats = Arc::new(WalStats::default());
            let pos = WriterPosition::default();
            let mut w =
                WalWriter::open_in(store.clone(), 0, wal.clone(), 3, stats.clone(), pos).unwrap();
            w.append(&WalRecord::Snapshot(s)).unwrap();
            drop(w);
            let seg = store.path(SegmentId { shard: 0, idx: 0 });
            (recover_shard_in(store, &cfg, &wal, 0, &stats), seg)
        };
        let snapshot = StreamSnapshot {
            stream: "k".into(),
            kind: DefenseKind::Butterfly,
            stream_len: 10,
            published: 1,
            last_len: 10,
            prev_release: Vec::new(),
            window: (2..10)
                .map(|i| record(i).iter().map(|item| item.id()).collect())
                .collect(),
        };
        let mut unsorted = snapshot.clone();
        unsorted.window[3] = vec![4, 0];
        let mut repeated = snapshot.clone();
        repeated.window[5] = vec![3, 3];
        let mut bad_entry = snapshot.clone();
        bad_entry.prev_release = vec![SnapshotEntry {
            ids: vec![2, 1],
            true_support: 4,
            sanitized: 4,
        }];
        for (s, what) in [
            (unsorted, "window record 3"),
            (repeated, "window record 5"),
            (bad_entry, "release entry 0"),
        ] {
            let err = match recover(s) {
                (Err(e), seg) => {
                    let e = e.to_string();
                    assert!(e.contains(&seg.display().to_string()), "{e}");
                    e
                }
                (Ok(_), _) => panic!("an unsorted snapshot must refuse the start"),
            };
            let want = format!("{what} whose ids are not strictly ascending");
            assert!(err.contains(&want), "{err}");
        }
        // The canonical snapshot adopts.
        let (rec, _) = recover(snapshot);
        assert_eq!(rec.unwrap().streams["k"].stream_len(), 10);
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

        let mut reference = Harness::new(&cfg, "k");
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
        assert_eq!(st.stream_len(), 12);
        assert_eq!(st.history().published(), 3);
        assert_eq!(st.history().stream_len(), 12);
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

    /// Under `always`, power loss right after a rotation keeps every record
    /// the writer acknowledged, the one in the fresh segment included:
    /// creating a segment syncs the directory that names it.
    #[test]
    fn a_crash_right_after_a_rotation_recovers_every_acknowledged_record() {
        let cfg = tiny_cfg();
        let store = FaultStore::new(11);
        let mut wal = wal_cfg(store.root());
        wal.sync = WalSyncPolicy::Always;
        wal.segment_min_bytes = 1; // rotate on the snapshot cadence
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open_in(
            store.clone(),
            0,
            wal.clone(),
            cfg.snapshot_every,
            stats.clone(),
            WriterPosition::default(),
        )
        .unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        let mut fed = 0;
        while store.list(0).unwrap().len() < 2 {
            h.feed(&cfg, "k", Some(&mut w), fed..fed + 1, 1);
            fed += 1;
        }
        // The fresh segment holds nothing yet; acknowledge one record in it.
        h.feed(&cfg, "k", Some(&mut w), fed..fed + 1, 1);
        fed += 1;
        drop(w);
        store.crash();

        let rec = recover_shard_in(store.clone(), &cfg, &wal, 0, &stats).unwrap();
        assert_eq!(rec.streams["k"].stream_len(), fed);
        let mut logged = Vec::new();
        catchup_in(&*store, 0, "k", 0, |len, e| logged.push((len, e)));
        assert_eq!(logged, h.releases);
    }

    /// Under `always`, power loss right after a rotation that follows a
    /// by-position snapshot, with compaction past the stream's birth: the
    /// retained segments still hold the window the snapshot names, and
    /// every acknowledged record recovers.
    #[test]
    fn a_crash_after_a_rotation_past_a_by_position_snapshot_recovers_everything() {
        let cfg = tiny_cfg();
        let store = FaultStore::new(13);
        let mut wal = wal_cfg(store.root());
        wal.sync = WalSyncPolicy::Always;
        wal.segment_min_bytes = 1;
        wal.keep_segments = 0;
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let mut w =
            WalWriter::open_in(store.clone(), 0, wal.clone(), 3, stats.clone(), pos).unwrap();
        let mut h = Harness::open(&cfg, "k", &mut w);
        let mut fed = 0;
        let compacted = || stats.segments_compacted.load(Ordering::Relaxed);
        while compacted() == 0 {
            h.feed(&cfg, "k", Some(&mut w), fed..fed + 1, 1);
            fed += 1;
        }
        // Right after that rotation, acknowledge one record in the fresh
        // segment, then lose power.
        h.feed(&cfg, "k", Some(&mut w), fed..fed + 1, 1);
        fed += 1;
        drop(w);
        store.crash();

        let rec = recover_shard_in(store.clone(), &cfg, &wal, 0, &stats).unwrap();
        assert_eq!(rec.streams["k"].stream_len(), fed);
        assert_eq!(rec.streams["k"].history(), h.pipe.history());
        let mut logged = Vec::new();
        catchup_in(&*store, 0, "k", 0, |len, e| logged.push((len, e)));
        assert!(!logged.is_empty());
        assert_eq!(logged, h.releases[h.releases.len() - logged.len()..]);
        let mut reference = Harness::new(&cfg, "k");
        reference.feed(&cfg, "k", None, 0..fed + 20, 1);
        let mut resumed = Harness::resume(rec.streams.into_values().next().unwrap());
        let mut writer = rec.writer;
        resumed.feed(&cfg, "k", Some(&mut writer), fed..fed + 20, 3);
        let full: Vec<_> = h.releases.iter().cloned().chain(resumed.releases).collect();
        assert_eq!(full, reference.releases);
    }

    /// The writer recovery hands back holds the coverage ledger the
    /// crashed writer held: one stream logged through the live appenders,
    /// its snapshots naming their window, one whose snapshots carry it,
    /// compaction past both births. The carried stream goes quiet and holds
    /// the floor, so segments below the named stream's anchor stay and
    /// replay must anchor it exactly: one record a chunk and a segment per
    /// snapshot put a segment's first record at the start of a window.
    /// `append` refuses a snapshot naming its window by position, which it
    /// cannot size.
    #[test]
    fn recovery_rebuilds_the_crashed_writers_coverage_ledger() {
        let cfg = ServeConfig {
            snapshot_every: 1,
            ..tiny_cfg()
        };
        let store = FaultStore::new(17);
        let mut wal = wal_cfg(store.root());
        wal.sync = WalSyncPolicy::Always;
        wal.segment_min_bytes = 1;
        wal.keep_segments = 0;
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let mut w =
            WalWriter::open_in(store.clone(), 0, wal.clone(), 1, stats.clone(), pos).unwrap();
        let mut named = Harness::open(&cfg, "named", &mut w);
        let mut carried = Harness::open(&cfg, "carried", &mut w);
        carried.carried = true;
        for from in (0..60).step_by(5) {
            named.feed(&cfg, "named", Some(&mut w), from..from + 5, 1);
            if from < 40 {
                carried.feed(&cfg, "carried", Some(&mut w), from..from + 5, 2);
            }
        }
        assert!(
            store.list(0).unwrap()[0] > 0,
            "the births were never compacted"
        );

        let by_position = WalRecord::Snapshot(StreamSnapshot {
            stream: "named".into(),
            kind: DefenseKind::Butterfly,
            stream_len: 60,
            published: named.pipe.history().published(),
            last_len: 60,
            prev_release: Vec::new(),
            window: Vec::new(),
        });
        let err = w.append(&by_position).unwrap_err().to_string();
        assert!(err.contains("WalWriter::append_snapshot"), "{err}");

        let crashed = w.coverage().clone();
        drop(w);
        store.crash();
        let rec = recover_shard_in(store, &cfg, &wal, 0, &stats).unwrap();
        assert_eq!(rec.streams["named"].stream_len(), 60);
        assert_eq!(rec.streams["carried"].stream_len(), 40);
        assert_eq!(rec.writer.coverage(), &crashed);
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

        // Catch-up checks every record's checksum but decodes only the
        // releases it serves: a checksum-clean record it does not serve is
        // stepped over however it decodes, and one of its stream's releases
        // that fails to decode stops the scan like a live tail.
        let seg = shard_dir(&root, 0).join(crate::wal::segment::segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let (mut next, mut off) = (0, 0);
        while let Scan::Record { seq, end, .. } = scan_one(&bytes, off, Decode::All) {
            (next, off) = (seq + 1, end);
        }
        let release = |stream_len: u64, seq: u64| {
            WalRecord::Release {
                stream: "k".into(),
                stream_len,
                entries: Vec::new(),
            }
            .encode(seq)
        };
        let tail = [
            undecodable_open(next),
            undecodable_release("other", next + 1),
            release(1000, next + 2),
            undecodable_release("k", next + 3),
            release(2000, next + 4),
        ];
        bytes.extend(tail.concat());
        std::fs::write(&seg, &bytes).unwrap();
        let mut want = h.releases.clone();
        want.push((1000, Vec::new()));
        assert_eq!(scan_catchup(&root, 0, "k", 0), want);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
