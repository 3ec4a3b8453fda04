//! Shard workers: each owns the pipelines of the stream keys hashed to it.
//!
//! A shard is one worker thread behind one bounded ingress queue. Connection
//! handlers `try_send` jobs into the queue — a full queue is the shard's
//! load-shed signal, surfaced to the client as an `overloaded` reply — and
//! the worker drains it in arrival order, advancing the per-key
//! [`StreamPipeline`]s and fanning sanitized releases out through the
//! subscriber registry.
//!
//! **Batching.** A job carries a chunk of transactions for one stream key
//! (up to [`ServeConfig::effective_ingest_chunk`]), so the channel cost —
//! one send, one wakeup — is paid per chunk rather than per record. The
//! chunk is the [`IngestChunk`] the connection decoded: the worker logs it,
//! encoding the record straight from it, and advances the pipeline over
//! its borrowed transactions, so nothing is allocated per record. The
//! shed budget stays denominated in *transactions*: `queue_depth` tracks
//! enqueued records, and a chunk is accepted only if the whole chunk fits
//! under `queue_cap`, reserved with a compare-exchange so concurrent
//! connections cannot oversubscribe the queue.
//!
//! **Ordering and determinism.** A stream key lives on exactly one shard,
//! so one stream's records are processed in the order its clients' ingests
//! were accepted, by one thread — the same total order an in-process
//! pipeline would see; chunking changes how many records ride one channel
//! message, never their order. Cross-key interleaving inside a shard does
//! not matter: pipelines share no state, and each key's publisher noise is
//! seeded from `(base seed, key)` alone.
//!
//! **Drain.** When the server shuts down it drops the ingress senders; the
//! worker consumes every already-accepted job (the mpsc channel delivers
//! buffered messages before reporting disconnect), then flushes each
//! pipeline — publishing any full window with records pending since its
//! last release — and closes the key's subscribers with a `closed` event.
//!
//! **Read-only.** A failed log append or sync does not kill the worker. It
//! records why in [`ShardStats::read_only`] and from then on neither
//! appends nor advances: the chunk whose `ingest` record failed is not
//! applied, a release whose record failed is not fanned out, later jobs
//! are drained unapplied, and the drain publishes nothing and does not
//! sync. It never retries — after a failed `fsync` the kernel may already
//! have dropped the dirty pages, so a retry could report success over lost
//! data. [`ShardIngress::offer`] refuses every later chunk with that
//! reason, and log catch-up keeps serving the durable prefix; a restart
//! recovers it.

use crate::binding::DefenseBindings;
use crate::config::ServeConfig;
use crate::fanout::{json_line, OutBytes, SubscriberRegistry};
use crate::protocol::{closed_event, frame_bytes, release_delta_frame, release_frame_bytes};
use crate::stats::ShardStats;
use crate::wal::replay::{Publication, Step};
use crate::wal::{RecoveredShard, RecoveredStream, WalRecord, WalWriter};
use bfly_common::{FrameMode, IngestChunk};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of shard work: a chunk of accepted transactions for one
/// stream key.
pub(crate) struct Job {
    /// Stream key (shared, not cloned per record).
    key: Arc<str>,
    /// The chunk's transactions, in arrival order.
    chunk: IngestChunk,
}

/// Why [`ShardIngress::offer`] turned a chunk away.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refused<'a> {
    /// The queue budget is spent: load shedding, counted in `shed`.
    Shed,
    /// The shard's log failed; the reason, for the client.
    ReadOnly(&'a str),
}

/// The sending side of a shard: its ingress queue plus its counters.
#[derive(Clone)]
pub(crate) struct ShardIngress {
    tx: SyncSender<Job>,
    stats: Arc<ShardStats>,
    /// Queue capacity in *transactions* — the shed budget.
    cap: usize,
}

impl ShardIngress {
    /// Try to enqueue one chunk of transactions: accepted whole, shed
    /// because it does not fit in the remaining queue budget, or refused
    /// because the shard is read-only. All-or-nothing per chunk: the caller
    /// sizes chunks via [`ServeConfig::effective_ingest_chunk`], which never
    /// exceeds the budget, so an empty queue always accepts a full chunk.
    pub(crate) fn offer(&self, key: &Arc<str>, chunk: IngestChunk) -> Result<(), Refused<'_>> {
        if let Some(why) = self.stats.read_only.get() {
            return Err(Refused::ReadOnly(why));
        }
        let n = chunk.len() as u64;
        if chunk.is_empty() {
            return Ok(());
        }
        // Reserve the chunk's budget before touching the channel: depth is
        // shared by every connection handler, and the compare-exchange makes
        // reservation atomic — two handlers cannot both claim the last slot.
        let mut depth = self.stats.queue_depth.load(Ordering::Relaxed);
        loop {
            if depth + n > self.cap as u64 {
                ShardStats::add(&self.stats.shed, n);
                return Err(Refused::Shed);
            }
            match self.stats.queue_depth.compare_exchange_weak(
                depth,
                depth + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => depth = seen,
            }
        }
        // Channel capacity is `queue_cap` jobs and every job carries ≥ 1
        // reserved transaction, so a reserved chunk cannot find the channel
        // full — only disconnected (server draining).
        match self.tx.try_send(Job {
            key: key.clone(),
            chunk,
        }) {
            Ok(()) => {
                ShardStats::add(&self.stats.ingested, n);
                ShardStats::add(&self.stats.batch_submits, 1);
                ShardStats::add(&self.stats.batch_tx, n);
                Ok(())
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_depth.fetch_sub(n, Ordering::Relaxed);
                ShardStats::add(&self.stats.shed, n);
                Err(Refused::Shed)
            }
        }
    }
}

/// Spawn shard `idx`'s worker thread. Returns the ingress handle and the
/// join handle; the worker exits after draining once every ingress clone is
/// dropped.
pub(crate) fn spawn_shard(
    idx: usize,
    cfg: ServeConfig,
    registry: Arc<SubscriberRegistry>,
    stats: Arc<ShardStats>,
    bindings: Arc<DefenseBindings>,
    wal: Option<RecoveredShard>,
) -> (ShardIngress, JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(cfg.queue_cap);
    let ingress = ShardIngress {
        tx,
        stats: stats.clone(),
        cap: cfg.queue_cap,
    };
    let handle = std::thread::Builder::new()
        .name(format!("bfly-shard-{idx}"))
        .spawn(move || worker(idx, cfg, rx, registry, stats, bindings, wal))
        .expect("spawn shard worker");
    (ingress, handle)
}

/// Fan one logged publication out to the key's subscribers under the
/// configured cadence: with `snapshot_every = 1` a full `release` snapshot
/// every time (the legacy wire, byte-identical to before deltas existed);
/// with `N > 1` a `release_delta` on every publication — emitted first, so a
/// synced subscriber advances before any snapshot line — plus the full
/// snapshot on every `N`-th publication (including the first, so early
/// subscribers sync immediately). Each frame is built at most once and
/// serialized at most once per frame mode actually subscribed.
fn emit_publication(
    cfg: &ServeConfig,
    registry: &SubscriberRegistry,
    stats: &Arc<ShardStats>,
    key: &Arc<str>,
    p: &Publication,
) {
    if cfg.snapshot_every > 1 {
        let mut delta = None;
        registry.publish_with(key, stats, |mode| {
            let frame = delta.get_or_insert_with(|| {
                release_delta_frame(key, p.window.stream_len, p.base_len, &p.window.delta)
            });
            frame_bytes(mode, frame)
        });
    }
    if p.snapshot {
        registry.publish_with(key, stats, |mode| match mode {
            FrameMode::Binary => OutBytes::from(&p.frame[..]),
            FrameMode::Json => {
                release_frame_bytes(mode, key, p.window.stream_len, &p.window.release)
            }
        });
    }
    ShardStats::add(&stats.published, 1);
    ShardStats::add(&stats.released_entries, p.window.release.len() as u64);
}

/// Publish `state`'s full window through the step replay shares
/// ([`RecoveredStream::publish_and_log`]: Moment settled, the defense run,
/// the release logged before anyone sees it), then fan it out. Returns the
/// wall time it took, Moment's settle, logging and fan-out included — the
/// share of a chunk's time its `ingest_us` leaves out. A release that fails
/// the contract audit is counted and withheld, so no violating byte reaches
/// a subscriber, live or through log catch-up. It leaves no trace: no log
/// record, and the stream's history is as it was, so the next delta is
/// based on the last release a subscriber saw and a restart's replay steps
/// over the withheld position and re-derives every later release exactly.
///
/// A failed `release` (or `snapshot`) append is returned before anything
/// fans out — durable before visible — for the worker to turn the shard
/// read-only.
fn publish(
    cfg: &ServeConfig,
    log: Option<&mut WalWriter>,
    registry: &SubscriberRegistry,
    stats: &Arc<ShardStats>,
    key: &Arc<str>,
    state: &mut RecoveredStream,
) -> Result<Duration, LogFailure> {
    let started = Instant::now();
    let (took, step) = state
        .publish_and_log(cfg, key, log)
        .map_err(|e| LogFailure("release append", e))?;
    let us = took.as_micros() as u64;
    ShardStats::add(&stats.publish_us, us);
    stats.publish_us_max.fetch_max(us, Ordering::Relaxed);
    match step {
        Step::Published(p) => emit_publication(cfg, registry, stats, key, &p),
        Step::Withheld(violations) => {
            ShardStats::add(&stats.audit_violations, violations as u64);
        }
    }
    Ok(started.elapsed())
}

/// A failed log operation — which one, and its error.
#[derive(Debug)]
struct LogFailure(&'static str, bfly_common::Error);

impl LogFailure {
    /// Turn shard `idx` read-only for good, with this failure as the
    /// reason every later ingest is refused with.
    fn make_read_only(self, idx: usize, stats: &ShardStats) {
        let LogFailure(what, e) = self;
        let why = format!("shard {idx} is read-only: wal {what} failed: {e}");
        eprintln!("{why}");
        let _ = stats.read_only.set(why);
    }
}

/// What a shard worker threads through every job.
struct Shard {
    idx: usize,
    cfg: ServeConfig,
    registry: Arc<SubscriberRegistry>,
    stats: Arc<ShardStats>,
    bindings: Arc<DefenseBindings>,
    log: Option<WalWriter>,
    pipelines: HashMap<Arc<str>, RecoveredStream>,
}

impl Shard {
    /// Log and apply one chunk for `key`: its `open` record if the key is
    /// new, the `ingest` record, then each transaction, publishing on the
    /// cadence. Stops at the first failed log operation: nothing after it
    /// is applied.
    fn ingest(&mut self, key: &Arc<str>, chunk: &IngestChunk) -> Result<(), LogFailure> {
        let cfg = &self.cfg;
        if !self.pipelines.contains_key(key) {
            // First ingest materializes the pipeline and seals the key's
            // bind window: a recorded override wins, else the config's
            // default defense applies.
            let kind = self.bindings.materialize(key).unwrap_or(cfg.defense.kind);
            if let Some(w) = self.log.as_mut() {
                let open = WalRecord::Open {
                    stream: key.to_string(),
                    kind,
                };
                w.append(&open).map_err(|e| LogFailure("open append", e))?;
            }
            ShardStats::add(&self.stats.keys, 1);
            self.pipelines.insert(
                key.clone(),
                RecoveredStream {
                    kind,
                    pipe: cfg.pipeline_with(key, kind),
                },
            );
        }
        let state = self.pipelines.get_mut(key).expect("key just ensured");
        let started = Instant::now();
        let moment = moment_work(state);
        let mut publishing = Duration::ZERO;
        // Accepted-before-advanced: the chunk is durable (per the sync
        // policy) before any of its records can shape a release.
        if let Some(w) = self.log.as_mut() {
            w.append_ingest(key, state.pipe.stream_len(), chunk)
                .map_err(|e| LogFailure("ingest append", e))?;
        }
        // The publish cadence is checked per record, not per chunk:
        // chunking amortizes the queue, it must not move or merge
        // publication positions.
        let mut outcome = Ok(());
        let mut advanced = 0;
        for items in chunk.iter() {
            // The pipeline assigns the tid from the stream position.
            state.pipe.advance_items(items);
            advanced += 1;
            if state.pipe.due(cfg.every) {
                let log = self.log.as_mut();
                match publish(cfg, log, &self.registry, &self.stats, key, state) {
                    Ok(took) => publishing += took,
                    Err(failure) => {
                        outcome = Err(failure);
                        break;
                    }
                }
            }
        }
        let stats = &self.stats;
        ShardStats::add(&stats.processed, advanced);
        add_moment_work(stats, state, moment);
        let us = started.elapsed().saturating_sub(publishing).as_micros() as u64;
        ShardStats::add(&stats.ingest_us, us);
        stats.ingest_us_max.fetch_max(us, Ordering::Relaxed);
        outcome
    }

    /// The shutdown drain: publish every full window with records pending
    /// since its last release, close each key's subscribers, and sync the
    /// log. A read-only shard only closes.
    fn drain(&mut self) {
        // In sorted key order, so drain output is deterministic.
        let mut keys: Vec<Arc<str>> = self.pipelines.keys().cloned().collect();
        keys.sort();
        for key in keys {
            let state = self.pipelines.get_mut(&key).expect("key just listed");
            if self.stats.read_only.get().is_none() && state.pipe.owes() {
                let moment = moment_work(state);
                let log = self.log.as_mut();
                let published = publish(&self.cfg, log, &self.registry, &self.stats, &key, state);
                add_moment_work(&self.stats, state, moment);
                if let Err(failure) = published {
                    failure.make_read_only(self.idx, &self.stats);
                }
            }
            let closed = json_line(&closed_event(&key));
            self.registry.close_stream(&key, closed);
        }
        // Whatever the sync policy deferred goes down with the drain: a
        // clean shutdown never owes recovery a torn tail. A read-only
        // shard's log is never touched again.
        if let Some(w) = self.log.as_mut() {
            if self.stats.read_only.get().is_none() {
                if let Err(e) = w.sync() {
                    LogFailure("sync", e).make_read_only(self.idx, &self.stats);
                }
            }
        }
    }
}

/// Moment's rebuilds, visits and itemsets allocated so far on `state`'s
/// stream.
fn moment_work(state: &RecoveredStream) -> [u64; 3] {
    let miner = state.pipe.miner();
    [miner.rebuilds(), miner.visits(), miner.itemsets_allocated()]
}

/// Add what Moment did on `state`'s stream since it stood at `before`.
fn add_moment_work(stats: &ShardStats, state: &RecoveredStream, before: [u64; 3]) {
    let [rebuilds, visits, allocated] = moment_work(state);
    ShardStats::add(&stats.moment_rebuilds, rebuilds - before[0]);
    ShardStats::add(&stats.moment_visits, visits - before[1]);
    ShardStats::add(&stats.itemsets_allocated, allocated - before[2]);
}

fn worker(
    idx: usize,
    cfg: ServeConfig,
    rx: Receiver<Job>,
    registry: Arc<SubscriberRegistry>,
    stats: Arc<ShardStats>,
    bindings: Arc<DefenseBindings>,
    wal: Option<RecoveredShard>,
) {
    // Replayed streams slot in exactly where the crashed (or cleanly
    // restarted) process left them; the writer continues the same log.
    let (log, recovered) = match wal {
        Some(r) => (Some(r.writer), r.streams),
        None => (None, HashMap::new()),
    };
    let pipelines: HashMap<Arc<str>, RecoveredStream> = recovered
        .into_iter()
        .map(|(key, s)| {
            ShardStats::add(&stats.keys, 1);
            (Arc::from(key.as_str()), s)
        })
        .collect();
    let mut shard = Shard {
        idx,
        cfg,
        registry,
        stats,
        bindings,
        log,
        pipelines,
    };
    while let Ok(Job { key, chunk }) = rx.recv() {
        let stats = &shard.stats;
        stats
            .queue_depth
            .fetch_sub(chunk.len() as u64, Ordering::Relaxed);
        if stats.read_only.get().is_some() {
            continue; // drained, never applied
        }
        if let Err(failure) = shard.ingest(&key, &chunk) {
            failure.make_read_only(shard.idx, &shard.stats);
        }
    }
    // Every ingress sender is gone and the buffered jobs above are all
    // processed.
    shard.drain();
}

// The subscriber sinks below need the reactor's mailbox, which exists
// where it does.
#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use crate::config::stream_seed;
    use crate::config::{WalConfig, WalSyncPolicy};
    use crate::fanout::OutBytes;
    use crate::protocol::catchup_release_frame_bytes;
    use crate::protocol::SubscriberState;
    use crate::reactor::test_sink;
    use crate::stats::WalStats;
    use crate::wal::fault::{Fault, FaultStore, Op};
    use crate::wal::replay::{catchup_in, recover_shard_in};
    use crate::wal::segment::SegmentStore;
    use bfly_common::Json;
    use bfly_core::{DefenseKind, PrivacyDefense, StreamPipeline};
    use std::sync::mpsc::sync_channel;

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            shards: 1,
            window: 8,
            c: 2,
            k: 1,
            epsilon: 0.2,
            delta: 0.5,
            scheme: bfly_core::BiasScheme::Basic,
            defense: bfly_core::DefenseSpec::butterfly(),
            every: 2,
            snapshot_every: 1,
            queue_cap: 64,
            seed: 1,
            ..ServeConfig::default()
        }
    }

    fn chunk_of(txs: &[&[u32]]) -> IngestChunk {
        let sets: Vec<bfly_common::ItemSet> = txs
            .iter()
            .map(|ids| bfly_common::ItemSet::from_ids(ids.iter().copied()))
            .collect();
        IngestChunk::from_itemsets(&sets)
    }

    /// Every frame the sink's mailbox holds, as text lines.
    fn lines_of(rx: impl Fn() -> Result<OutBytes, ()>) -> Vec<String> {
        std::iter::from_fn(|| rx().ok())
            .map(|b| {
                String::from_utf8(b.to_vec())
                    .unwrap()
                    .trim_end()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn worker_publishes_on_cadence_and_flushes_on_drain() {
        let cfg = tiny_cfg();
        let registry = Arc::new(SubscriberRegistry::new());
        let stats = Arc::new(ShardStats::default());
        let (ingress, handle) = spawn_shard(
            0,
            cfg,
            registry.clone(),
            stats.clone(),
            Arc::new(DefenseBindings::default()),
            None,
        );
        let (sub_tx, sub_rx) = test_sink(64);
        registry.subscribe("k", 1, FrameMode::Json, sub_tx);

        let key: Arc<str> = Arc::from("k");
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        // 11 records, window 8, every 2: cadence publishes at 8 and 10;
        // the drain flush owes one more at 11.
        for _ in 0..11 {
            let items = src.next_transaction().into_items();
            assert_eq!(
                ingress.offer(&key, IngestChunk::from_itemsets(&[items])),
                Ok(())
            );
        }
        drop(ingress);
        handle.join().expect("worker paniced");

        let lines = lines_of(|| sub_rx.try_recv());
        let releases: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"release\""))
            .collect();
        assert_eq!(releases.len(), 3, "lines: {lines:#?}");
        assert!(releases[0].contains("\"stream_len\":8"));
        assert!(releases[1].contains("\"stream_len\":10"));
        assert!(releases[2].contains("\"stream_len\":11"));
        assert!(
            lines.last().unwrap().contains("\"event\":\"closed\""),
            "drain must close the stream"
        );
        assert_eq!(stats.processed.load(Ordering::Relaxed), 11);
        assert_eq!(stats.published.load(Ordering::Relaxed), 3);
        assert_eq!(stats.keys.load(Ordering::Relaxed), 1);
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(stats.batch_submits.load(Ordering::Relaxed), 11);
        assert_eq!(stats.batch_tx.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn ingest_time_is_counted_per_chunk_apart_from_publication() {
        let cfg = tiny_cfg();
        let root = std::env::temp_dir().join(format!("bfly-shard-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let wal_cfg = crate::config::WalConfig::new(&root);
        let wal_stats = Arc::new(crate::stats::WalStats::default());
        let recovered =
            crate::wal::recover_shard(&cfg, &wal_cfg, 0, &wal_stats).expect("empty wal");
        let stats = Arc::new(ShardStats::default());
        let (ingress, handle) = spawn_shard(
            0,
            cfg,
            Arc::new(SubscriberRegistry::new()),
            stats.clone(),
            Arc::new(DefenseBindings::default()),
            Some(recovered),
        );
        let key: Arc<str> = Arc::from("k");
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        let batch: Vec<_> = (0..60)
            .map(|_| src.next_transaction().into_items())
            .collect();
        assert_eq!(
            ingress.offer(&key, IngestChunk::from_itemsets(&batch)),
            Ok(())
        );
        drop(ingress);
        handle.join().expect("worker paniced");
        assert_eq!(stats.processed.load(Ordering::Relaxed), 60);
        assert!(stats.published.load(Ordering::Relaxed) > 0);
        let (total, max) = (
            stats.ingest_us.load(Ordering::Relaxed),
            stats.ingest_us_max.load(Ordering::Relaxed),
        );
        assert!(
            total > 0 && max > 0,
            "ingest_us {total}, ingest_us_max {max}"
        );
        // One chunk: the whole figure is its own.
        assert_eq!(total, max);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn moment_rebuilds_count_the_shards_miners_rebuilds() {
        // every = W/2: past the fill, each publication's settle holds a
        // window of changes and rebuilds. Two keys, chunks of 3, and the
        // drain's flush: the counter is the sum of the two pipelines'.
        let cfg = ServeConfig {
            every: 4,
            queue_cap: 128,
            ..tiny_cfg()
        };
        let stats = Arc::new(ShardStats::default());
        let (ingress, handle) = spawn_shard(
            0,
            cfg.clone(),
            Arc::new(SubscriberRegistry::new()),
            stats.clone(),
            Arc::new(DefenseBindings::default()),
            None,
        );
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        let batch: Vec<_> = (0..41)
            .map(|_| src.next_transaction().into_items())
            .collect();
        let mut rebuilds = 0;
        for key in ["a", "b"] {
            for part in batch.chunks(3) {
                assert_eq!(
                    ingress.offer(&Arc::from(key), IngestChunk::from_itemsets(part)),
                    Ok(())
                );
            }
            let mut pipe = cfg.pipeline_for(key);
            for items in &batch {
                pipe.advance_items(items.items());
                if pipe.due(cfg.every) {
                    pipe.publish_now().expect("a full window");
                }
            }
            pipe.flush().expect("the drain owes one");
            rebuilds += pipe.miner().rebuilds();
        }
        drop(ingress);
        handle.join().expect("worker paniced");
        // Per key: re-ranks at 1, 2, 4 and 8 while filling, then the
        // publications at 12, 16, …, 40; the one at 8 finds nothing queued
        // and the drain's at 41 holds one slide, so it walks.
        assert_eq!(rebuilds, 2 * (4 + 8));
        assert_eq!(stats.moment_rebuilds.load(Ordering::Relaxed), rebuilds);
    }

    #[test]
    fn moment_work_counts_repeat_exactly_when_a_stream_is_run_again() {
        // W 40, C 4, every 5: the settles walk, and the drain owes the last
        // three. One stream through two fresh shards in chunks of 7 reads
        // the same counts both times — Moment's visits, the itemsets its
        // read-outs allocated and the entries released — the counts an
        // in-process pipeline reads.
        let cfg = ServeConfig {
            window: 40,
            c: 4,
            every: 5,
            queue_cap: 128,
            ..tiny_cfg()
        };
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(5);
        let batch: Vec<_> = (0..123)
            .map(|_| src.next_transaction().into_items())
            .collect();
        let run = || {
            let stats = Arc::new(ShardStats::default());
            let (ingress, handle) = spawn_shard(
                0,
                cfg.clone(),
                Arc::new(SubscriberRegistry::new()),
                stats.clone(),
                Arc::new(DefenseBindings::default()),
                None,
            );
            for part in batch.chunks(7) {
                let chunk = IngestChunk::from_itemsets(part);
                assert_eq!(ingress.offer(&Arc::from("k"), chunk), Ok(()));
            }
            drop(ingress);
            handle.join().expect("worker paniced");
            let counters = [
                &stats.moment_visits,
                &stats.itemsets_allocated,
                &stats.released_entries,
            ];
            counters.map(|c| c.load(Ordering::Relaxed))
        };
        let mut pipe = cfg.pipeline_for("k");
        let mut released = 0;
        for items in &batch {
            pipe.advance_items(items.items());
            if pipe.due(cfg.every) {
                released += pipe.publish_now().expect("a full window").release.len() as u64;
            }
        }
        released += pipe.flush().expect("the drain owes one").release.len() as u64;
        let miner = pipe.miner();
        let counts = [miner.visits(), miner.itemsets_allocated(), released];
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
        assert!(counts[1] < counts[2], "{counts:?}: each entry allocated");
        assert_eq!([run(), run()], [counts; 2]);
    }

    /// Claims the Butterfly contract and breaks it on its `lie_on`-th
    /// publication: one entry lands far outside any legal region.
    #[derive(Clone, Debug)]
    struct LiesOn {
        inner: Box<dyn PrivacyDefense>,
        lie_on: u64,
        calls: u64,
    }

    impl LiesOn {
        fn pipeline(cfg: &ServeConfig, key: &str, lie_on: u64) -> crate::wal::replay::DynPipeline {
            let inner = cfg
                .defense
                .build(cfg.spec(), cfg.scheme, stream_seed(cfg.seed, key));
            let liar = LiesOn {
                inner,
                lie_on,
                calls: 0,
            };
            StreamPipeline::new(cfg.window, Box::new(liar))
        }
    }

    impl PrivacyDefense for LiesOn {
        fn kind(&self) -> DefenseKind {
            DefenseKind::Butterfly
        }
        fn spec(&self) -> &bfly_core::PrivacySpec {
            self.inner.spec()
        }
        fn publish(
            &mut self,
            frequent: &bfly_mining::FrequentItemsets,
            history: &bfly_core::PublicationHistory,
        ) -> bfly_core::SanitizedRelease {
            let release = self.inner.publish(frequent, history);
            self.calls += 1;
            if self.calls != self.lie_on {
                return release;
            }
            let mut entries: Vec<_> = release.iter().cloned().collect();
            entries[0].sanitized += 10_000;
            bfly_core::SanitizedRelease::new(entries)
        }
        fn honors_butterfly_contract(&self) -> bool {
            true
        }
        fn boxed_clone(&self) -> Box<dyn PrivacyDefense> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn a_release_failing_the_audit_reaches_neither_the_log_nor_a_subscriber() {
        let cfg = tiny_cfg();
        let root = std::env::temp_dir().join(format!("bfly-shard-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let wal_stats = Arc::new(crate::stats::WalStats::default());
        let mut log = WalWriter::open(
            &root,
            0,
            crate::config::WalConfig::new(&root),
            cfg.snapshot_every,
            wal_stats.clone(),
            Default::default(),
        )
        .expect("open wal");
        let registry = SubscriberRegistry::new();
        let stats = Arc::new(ShardStats::default());
        let (sub_tx, sub_rx) = test_sink(64);
        registry.subscribe("k", 1, FrameMode::Json, sub_tx);
        let key: Arc<str> = Arc::from("k");
        let mut state = RecoveredStream {
            kind: DefenseKind::Butterfly,
            pipe: LiesOn::pipeline(&cfg, "k", 1),
        };
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        for _ in 0..8 {
            state.pipe.advance(src.next_transaction());
        }
        publish(&cfg, Some(&mut log), &registry, &stats, &key, &mut state).unwrap();
        assert_eq!(stats.audit_violations.load(Ordering::Relaxed), 1);
        assert_eq!(state.pipe.audit_violations(), 1);
        assert_eq!(stats.published.load(Ordering::Relaxed), 0);
        assert_eq!(wal_stats.records_appended.load(Ordering::Relaxed), 0);
        assert!(sub_rx.try_recv().is_err(), "a violating release fanned out");
        // Nothing emitted, so the history still stands at the start.
        let history = state.pipe.history();
        assert_eq!((history.published(), history.stream_len()), (0, 0));

        // The next publication is honest and flows as usual.
        for _ in 0..2 {
            state.pipe.advance(src.next_transaction());
        }
        publish(&cfg, Some(&mut log), &registry, &stats, &key, &mut state).unwrap();
        assert_eq!(stats.audit_violations.load(Ordering::Relaxed), 1);
        assert_eq!(stats.published.load(Ordering::Relaxed), 1);
        assert!(wal_stats.records_appended.load(Ordering::Relaxed) > 0);
        let line = String::from_utf8(sub_rx.try_recv().expect("release").to_vec()).unwrap();
        assert!(line.contains("\"stream_len\":10"), "{line}");
        assert!(stats.to_json(0).get("audit_violations").unwrap().as_u64() == Some(1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_delta_after_a_withheld_publication_applies_to_the_last_emitted_release() {
        // Emitted at 8 (snapshot), withheld at 10, emitted at 12 (delta
        // only) and at 14 (delta and snapshot).
        let cfg = ServeConfig {
            snapshot_every: 2,
            ..tiny_cfg()
        };
        let registry = SubscriberRegistry::new();
        let stats = Arc::new(ShardStats::default());
        let (sub_tx, sub_rx) = test_sink(64);
        registry.subscribe("k", 1, FrameMode::Json, sub_tx);
        let key: Arc<str> = Arc::from("k");
        let mut state = RecoveredStream {
            kind: DefenseKind::Butterfly,
            pipe: LiesOn::pipeline(&cfg, "k", 2),
        };
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        for n in [8, 2, 2, 2] {
            for _ in 0..n {
                state.pipe.advance(src.next_transaction());
            }
            publish(&cfg, None, &registry, &stats, &key, &mut state).unwrap();
        }
        assert_eq!(stats.audit_violations.load(Ordering::Relaxed), 1);
        assert_eq!(stats.published.load(Ordering::Relaxed), 3);
        let lines: Vec<Json> = lines_of(|| sub_rx.try_recv())
            .iter()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        let field = |j: &Json, f: &str| j.get(f).and_then(Json::as_u64);
        let deltas: Vec<(Option<u64>, Option<u64>)> = lines
            .iter()
            .filter(|j| j.get("event").and_then(Json::as_str) == Some("release_delta"))
            .map(|j| (field(j, "base_len"), field(j, "stream_len")))
            .collect();
        assert_eq!(
            deltas,
            [
                (Some(0), Some(8)),
                (Some(8), Some(12)),
                (Some(12), Some(14))
            ]
        );
        // A subscriber synced on the first snapshot rides both later deltas
        // and finds the last snapshot equal to what it rebuilt.
        let first_snapshot = lines
            .iter()
            .position(|j| j.get("event").and_then(Json::as_str) == Some("release"))
            .unwrap();
        let mut sub = SubscriberState::new();
        for j in &lines[first_snapshot..] {
            sub.observe(j).unwrap();
        }
        assert_eq!(
            (
                sub.snapshots,
                sub.deltas_applied,
                sub.deltas_skipped,
                sub.verified
            ),
            (1, 2, 0, 1)
        );
        assert_eq!(sub.stream_len(), Some(14));
    }

    #[test]
    fn a_restart_replays_past_a_withheld_publication() {
        // Hybrid, so a FEC's fresh draw depends on the whole chain: a
        // release pinned against the withheld one could not be re-derived.
        let cfg = ServeConfig {
            window: 20,
            scheme: bfly_core::BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            ..tiny_cfg()
        };
        let txs = transactions(42);
        // Publications at 20, 22, …; the one at 22 is withheld.
        let run = |store: &Arc<FaultStore>, restart_at: Option<usize>| {
            let wal = WalConfig::new(store.root());
            let shard = |recovered: Option<RecoveredShard>| {
                let (log, streams) = match recovered {
                    Some(r) => (r.writer, r.streams),
                    None => {
                        let stats = Arc::new(WalStats::default());
                        let log = WalWriter::open_in(
                            store.clone(),
                            0,
                            wal.clone(),
                            cfg.snapshot_every,
                            stats,
                            Default::default(),
                        )
                        .unwrap();
                        (log, HashMap::new())
                    }
                };
                Shard {
                    idx: 0,
                    cfg: cfg.clone(),
                    registry: Arc::new(SubscriberRegistry::new()),
                    stats: Arc::new(ShardStats::default()),
                    bindings: Arc::new(DefenseBindings::default()),
                    log: Some(log),
                    pipelines: streams
                        .into_iter()
                        .map(|(k, s)| (Arc::from(k.as_str()), s))
                        .collect(),
                }
            };
            let key: Arc<str> = Arc::from("k");
            let mut live = shard(None);
            live.log
                .as_mut()
                .unwrap()
                .append(&WalRecord::Open {
                    stream: "k".into(),
                    kind: DefenseKind::Butterfly,
                })
                .unwrap();
            let stream = RecoveredStream {
                kind: DefenseKind::Butterfly,
                pipe: LiesOn::pipeline(&cfg, "k", 2),
            };
            live.pipelines.insert(key.clone(), stream);
            let split = restart_at.unwrap_or(txs.len());
            for part in txs[..split].chunks(3) {
                live.ingest(&key, &IngestChunk::from_itemsets(part))
                    .unwrap();
            }
            assert_eq!(live.stats.audit_violations.load(Ordering::Relaxed), 1);
            if restart_at.is_some() {
                live.drain();
                drop(live);
                let stats = Arc::new(WalStats::default());
                let recovered = recover_shard_in(store.clone(), &cfg, &wal, 0, &stats)
                    .expect("replay steps over the withheld publication");
                live = shard(Some(recovered));
                for part in txs[split..].chunks(3) {
                    live.ingest(&key, &IngestChunk::from_itemsets(part))
                        .unwrap();
                }
            }
            live.drain();
        };
        let uninterrupted = FaultStore::new(0);
        run(&uninterrupted, None);
        let reference = logged(&uninterrupted);
        assert_eq!(reference.len(), 11, "publications at 20, 24, 26, …, 42");
        for restart_at in [24, 30, 36] {
            let restarted = FaultStore::new(0);
            run(&restarted, Some(restart_at));
            assert_eq!(logged(&restarted), reference, "restarted at {restart_at}");
        }
    }

    /// Run one shard over the cadence test's 11-record stream and collect
    /// every line a subscriber of `"k"` sees. `chunk` sizes the offers: 1
    /// reproduces the historical record-at-a-time submission.
    fn drive_chunked(cfg: ServeConfig, chunk: usize) -> Vec<String> {
        let registry = Arc::new(SubscriberRegistry::new());
        let stats = Arc::new(ShardStats::default());
        let (ingress, handle) = spawn_shard(
            0,
            cfg,
            registry.clone(),
            stats.clone(),
            Arc::new(DefenseBindings::default()),
            None,
        );
        let (sub_tx, sub_rx) = test_sink(64);
        registry.subscribe("k", 1, FrameMode::Json, sub_tx);
        let key: Arc<str> = Arc::from("k");
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        let mut pending = Vec::new();
        for _ in 0..11 {
            pending.push(src.next_transaction().into_items());
            if pending.len() == chunk {
                let offered = IngestChunk::from_itemsets(&std::mem::take(&mut pending));
                assert_eq!(ingress.offer(&key, offered), Ok(()));
            }
        }
        if !pending.is_empty() {
            assert_eq!(
                ingress.offer(&key, IngestChunk::from_itemsets(&pending)),
                Ok(())
            );
        }
        drop(ingress);
        handle.join().expect("worker paniced");
        lines_of(|| sub_rx.try_recv())
    }

    fn drive(cfg: ServeConfig) -> Vec<String> {
        drive_chunked(cfg, 1)
    }

    #[test]
    fn chunked_submission_preserves_publication_bytes() {
        // Chunk size is a queueing detail: the published wire bytes must be
        // identical whether records arrive one per job or many.
        let per_record = drive_chunked(tiny_cfg(), 1);
        for chunk in [3, 11] {
            assert_eq!(
                drive_chunked(tiny_cfg(), chunk),
                per_record,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn snapshot_every_n_interleaves_deltas_and_snapshots() {
        let delta_lines = drive(ServeConfig {
            snapshot_every: 3,
            ..tiny_cfg()
        });
        let snap_lines = drive(tiny_cfg());

        // Publications land at stream_len 8, 10, and 11 (drain flush); only
        // the first falls on the every-3rd snapshot cadence.
        let events: Vec<String> = delta_lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("event")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            events,
            vec![
                "release_delta",
                "release",
                "release_delta",
                "release_delta",
                "closed"
            ],
            "lines: {delta_lines:#?}"
        );

        // A subscriber reconstructs: skips the pre-sync delta, adopts the
        // snapshot, rides the two later deltas.
        let mut sub = SubscriberState::new();
        for l in &delta_lines {
            sub.observe(&Json::parse(l).unwrap()).unwrap();
        }
        assert_eq!(sub.snapshots, 1);
        assert_eq!(sub.deltas_skipped, 1);
        assert_eq!(sub.deltas_applied, 2);
        assert_eq!(sub.stream_len(), Some(11));

        // The reconstruction must equal what the legacy snapshot-only wire
        // says the state at stream_len 11 is.
        let mut oracle = SubscriberState::new();
        for l in &snap_lines {
            oracle.observe(&Json::parse(l).unwrap()).unwrap();
        }
        assert_eq!(oracle.stream_len(), Some(11));
        assert_eq!(sub.entries(), oracle.entries());
    }

    #[test]
    fn delta_cadence_reconstructs_under_every_defense() {
        // Satellite invariant: the snapshot/delta wire cadence is defense-
        // agnostic. For each defense, a mixed delta+snapshot subscriber must
        // reconstruct exactly the state a snapshot-only subscriber sees.
        for kind in bfly_core::DefenseKind::ALL {
            let base = ServeConfig {
                defense: bfly_core::DefenseSpec::new(kind),
                ..tiny_cfg()
            };
            let delta_lines = drive(ServeConfig {
                snapshot_every: 3,
                ..base.clone()
            });
            let snap_lines = drive(base);
            let mut sub = SubscriberState::new();
            for l in &delta_lines {
                sub.observe(&Json::parse(l).unwrap()).unwrap();
            }
            let mut oracle = SubscriberState::new();
            for l in &snap_lines {
                oracle.observe(&Json::parse(l).unwrap()).unwrap();
            }
            assert_eq!(oracle.stream_len(), Some(11), "{kind}: wrong cadence");
            assert_eq!(sub.stream_len(), oracle.stream_len(), "{kind}");
            assert_eq!(
                sub.entries(),
                oracle.entries(),
                "{kind}: delta reconstruction diverged from snapshots"
            );
            assert!(sub.deltas_applied >= 1, "{kind}: no deltas ridden");
        }
    }

    /// `n` transactions of the cadence tests' stream.
    fn transactions(n: usize) -> Vec<bfly_common::ItemSet> {
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        (0..n)
            .map(|_| src.next_transaction().into_items())
            .collect()
    }

    /// What one shard run over a log on a [`FaultStore`] did.
    struct FaultRun {
        stats: Arc<ShardStats>,
        /// The release lines a JSON subscriber of `"k"` saw.
        releases: Vec<String>,
        /// The refusal that stopped the feed, if one did.
        refused: Option<String>,
        /// `(appends, syncs)` the store had served when the refusal came,
        /// and when the worker had joined.
        calls_at_refusal: (u64, u64),
        calls_at_join: (u64, u64),
    }

    /// Recover the log on `store`, arm faults, then run one shard over it,
    /// offering `txs` to key `"k"` three at a time and waiting for each
    /// chunk, until the first refusal.
    fn run_on(
        store: &Arc<FaultStore>,
        wal: &WalConfig,
        txs: &[bfly_common::ItemSet],
        arm: impl FnOnce(),
    ) -> FaultRun {
        let cfg = tiny_cfg();
        let wal_stats = Arc::new(WalStats::default());
        let recovered = recover_shard_in(store.clone(), &cfg, wal, 0, &wal_stats).unwrap();
        arm();
        let registry = Arc::new(SubscriberRegistry::new());
        let stats = Arc::new(ShardStats::default());
        let (sub_tx, sub_rx) = test_sink(256);
        registry.subscribe("k", 1, FrameMode::Json, sub_tx);
        let (ingress, handle) = spawn_shard(
            0,
            cfg,
            registry,
            stats.clone(),
            Arc::new(DefenseBindings::default()),
            Some(recovered),
        );
        let calls = || (store.calls(Op::Append), store.calls(Op::Sync));
        let key: Arc<str> = Arc::from("k");
        let (mut offered, mut refused, mut calls_at_refusal) = (0, None, (0, 0));
        for part in txs.chunks(3) {
            match ingress.offer(&key, IngestChunk::from_itemsets(part)) {
                Ok(()) => offered += part.len() as u64,
                Err(Refused::ReadOnly(why)) => {
                    (refused, calls_at_refusal) = (Some(why.to_string()), calls());
                    break;
                }
                Err(Refused::Shed) => panic!("shed below the queue cap"),
            }
            let started = Instant::now();
            while stats.processed.load(Ordering::Relaxed) < offered
                && stats.read_only.get().is_none()
            {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "worker stalled"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(ingress);
        handle.join().expect("worker paniced");
        let releases = lines_of(|| sub_rx.try_recv())
            .into_iter()
            .filter(|l| l.contains("\"event\":\"release\""))
            .collect();
        FaultRun {
            stats,
            releases,
            refused,
            calls_at_refusal,
            calls_at_join: calls(),
        }
    }

    /// Every release in `store`'s log for `"k"`, as catch-up reads it.
    fn logged(store: &FaultStore) -> Vec<(u64, Vec<bfly_common::BinaryEntry>)> {
        let mut out = Vec::new();
        catchup_in(store, 0, "k", 0, |len, entries| out.push((len, entries)));
        out
    }

    #[test]
    fn a_failed_log_operation_turns_the_shard_read_only() {
        use std::io::ErrorKind::{Other, StorageFull};
        let txs = transactions(30);
        let clean = FaultStore::new(0);
        let wal = WalConfig {
            sync: WalSyncPolicy::Always,
            ..WalConfig::new(clean.root())
        };
        run_on(&clean, &wal, &txs, || {});
        let reference = logged(&clean);
        assert_eq!(reference.len(), 12, "publications at 8, 10, …, 30");

        // Appends: 0 `open`, 1–3 the first three chunks' `ingest`, 4 the
        // `release` at 8 (its `snapshot` is 5). Under `always` each append
        // syncs once, so sync 2 is the second chunk's.
        for (op, k, fault, power_loss, what) in [
            (Op::Append, 0, Fault::Fail(StorageFull), true, "open append"),
            (
                Op::Append,
                2,
                Fault::Fail(StorageFull),
                true,
                "ingest append",
            ),
            (
                Op::Append,
                4,
                Fault::Fail(StorageFull),
                true,
                "release append",
            ),
            (Op::Append, 3, Fault::Tear, false, "ingest append"),
            (Op::Sync, 2, Fault::Fail(Other), true, "ingest append"),
        ] {
            let store = FaultStore::new(k);
            let run = run_on(&store, &wal, &txs, || store.inject(op, k, fault));
            let why = run.refused.expect("a refusal after the failure");
            let prefix = format!("shard 0 is read-only: wal {what} failed: io error: ");
            assert!(why.starts_with(&prefix), "{why}");
            let row = run.stats.to_json(0);
            assert_eq!(row.get("read_only"), Some(&Json::Bool(true)));
            // No retry, no drain sync: the log was not touched again.
            assert_eq!(run.calls_at_join, run.calls_at_refusal, "{what}");
            // Durable before visible: the subscriber saw exactly the
            // releases the log holds.
            let logged_lines: Vec<String> = logged(&store)
                .iter()
                .map(|(len, entries)| {
                    let b = catchup_release_frame_bytes(FrameMode::Json, "k", *len, entries);
                    String::from_utf8(b.to_vec())
                        .unwrap()
                        .trim_end()
                        .to_string()
                })
                .collect();
            assert_eq!(run.releases, logged_lines, "{what}");

            // Restart: on the durable prefix, then the rest of the stream.
            if power_loss {
                store.crash();
            }
            let cfg = tiny_cfg();
            let wal_stats = Arc::new(WalStats::default());
            let rec = recover_shard_in(store.clone(), &cfg, &wal, 0, &wal_stats).unwrap();
            let durable = rec.streams.get("k").map_or(0, |s| s.pipe.stream_len());
            drop(rec);
            run_on(&store, &wal, &txs[durable as usize..], || {});
            assert_eq!(logged(&store), reference, "{what}: restarted at {durable}");
        }
    }

    /// A durable shard logs each transaction once: every snapshot record is
    /// its header plus the previous release's entries, with no window
    /// bytes, and the log's counts repeat exactly for one seeded stream run
    /// twice.
    #[test]
    fn snapshots_carry_no_window_and_log_counts_repeat() {
        use crate::wal::record::tests::by_position_len;
        use crate::wal::record::{Decode, Scan, HEADER_LEN};
        use crate::wal::segment::{SegmentId, SegmentReader};
        use crate::wal::WalRecord;

        let txs = transactions(60);
        let run = || {
            let store = FaultStore::new(21);
            let wal = WalConfig::new(store.root());
            let cfg = tiny_cfg();
            let wal_stats = Arc::new(WalStats::default());
            let recovered = recover_shard_in(store.clone(), &cfg, &wal, 0, &wal_stats).unwrap();
            let (ingress, handle) = spawn_shard(
                0,
                cfg,
                Arc::new(SubscriberRegistry::new()),
                Arc::new(ShardStats::default()),
                Arc::new(DefenseBindings::default()),
                Some(recovered),
            );
            for part in txs.chunks(5) {
                let chunk = IngestChunk::from_itemsets(part);
                assert_eq!(ingress.offer(&Arc::from("k"), chunk), Ok(()));
            }
            drop(ingress);
            handle.join().expect("worker paniced");

            let (mut snapshots, mut bytes) = (0, 0);
            let mut reader = SegmentReader::new();
            for idx in store.list(0).unwrap() {
                reader.open(&*store, SegmentId { shard: 0, idx }).unwrap();
                let mut at = 0;
                while let Scan::Record { rec, end, .. } = reader.next(Decode::All).unwrap() {
                    if let WalRecord::Snapshot(s) = rec {
                        assert!(
                            s.window.is_empty(),
                            "a snapshot at {} carries its window",
                            s.stream_len
                        );
                        let widths = s.prev_release.iter().map(|e| e.ids.len());
                        let want = by_position_len(&s.stream, s.kind, widths);
                        assert_eq!(end - at, HEADER_LEN + want, "snapshot at {}", s.stream_len);
                        snapshots += 1;
                    }
                    at = end;
                }
                bytes += at as u64;
            }
            let appended = wal_stats.bytes_appended.load(Ordering::Relaxed);
            assert_eq!(appended, bytes);
            // Publications at 8, 10, …, 60, each snapshotted.
            assert_eq!(snapshots, 27);
            (appended, wal_stats.records_appended.load(Ordering::Relaxed))
        };
        let first = run();
        assert_eq!(run(), first);
    }

    #[test]
    fn full_queue_sheds() {
        let cfg = ServeConfig {
            queue_cap: 2,
            ..tiny_cfg()
        };
        let registry = Arc::new(SubscriberRegistry::new());
        let stats = Arc::new(ShardStats::default());
        // Build the ingress without a worker: the queue can only fill.
        let (tx, _rx_keepalive) = sync_channel(cfg.queue_cap);
        let ingress = ShardIngress {
            tx,
            stats: stats.clone(),
            cap: cfg.queue_cap,
        };
        let key: Arc<str> = Arc::from("k");
        let accepted = (0..5)
            .filter(|_| ingress.offer(&key, chunk_of(&[&[1, 2]])).is_ok())
            .count();
        assert_eq!(accepted, 2, "queue cap must bound acceptance");
        assert_eq!(stats.shed.load(Ordering::Relaxed), 3);
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 2);
        drop(registry);
    }

    #[test]
    fn chunk_budget_is_denominated_in_transactions() {
        let stats = Arc::new(ShardStats::default());
        let (tx, _rx_keepalive) = sync_channel(4);
        let ingress = ShardIngress {
            tx,
            stats: stats.clone(),
            cap: 4,
        };
        let key: Arc<str> = Arc::from("k");
        // 3 fit, then a chunk of 2 would oversubscribe (3+2 > 4) and is shed
        // whole, then a chunk of 1 still fits in the remaining budget.
        assert_eq!(ingress.offer(&key, chunk_of(&[&[1], &[1], &[1]])), Ok(()));
        assert_eq!(
            ingress.offer(&key, chunk_of(&[&[1], &[1]])),
            Err(Refused::Shed)
        );
        assert_eq!(ingress.offer(&key, chunk_of(&[&[1]])), Ok(()));
        assert_eq!(stats.ingested.load(Ordering::Relaxed), 4);
        assert_eq!(stats.shed.load(Ordering::Relaxed), 2);
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 4);
        assert_eq!(stats.batch_submits.load(Ordering::Relaxed), 2);
        assert_eq!(stats.batch_tx.load(Ordering::Relaxed), 4);
    }
}
