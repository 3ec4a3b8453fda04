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

use crate::binding::DefenseBindings;
use crate::config::ServeConfig;
use crate::fanout::{json_line, SubscriberRegistry};
use crate::protocol::{closed_event, frame_bytes, release_delta_frame};
use crate::stats::ShardStats;
use crate::wal::replay::{Publication, Step};
use crate::wal::{RecoveredShard, RecoveredStream, WalRecord, WalWriter};
use bfly_common::IngestChunk;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of shard work.
pub(crate) enum Job {
    /// A chunk of accepted transactions for one stream key.
    Ingest {
        /// Stream key (shared, not cloned per record).
        key: Arc<str>,
        /// The chunk's transactions, in arrival order.
        chunk: IngestChunk,
    },
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
    /// Try to enqueue one chunk of transactions; `true` if the whole chunk
    /// was accepted, `false` if it was shed because it does not fit in the
    /// remaining queue budget. All-or-nothing per chunk: the caller sizes
    /// chunks via [`ServeConfig::effective_ingest_chunk`], which never
    /// exceeds the budget, so an empty queue always accepts a full chunk.
    pub(crate) fn offer(&self, key: &Arc<str>, chunk: IngestChunk) -> bool {
        let n = chunk.len() as u64;
        if chunk.is_empty() {
            return true;
        }
        // Reserve the chunk's budget before touching the channel: depth is
        // shared by every connection handler, and the compare-exchange makes
        // reservation atomic — two handlers cannot both claim the last slot.
        let mut depth = self.stats.queue_depth.load(Ordering::Relaxed);
        loop {
            if depth + n > self.cap as u64 {
                ShardStats::add(&self.stats.shed, n);
                return false;
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
        match self.tx.try_send(Job::Ingest {
            key: key.clone(),
            chunk,
        }) {
            Ok(()) => {
                ShardStats::add(&self.stats.ingested, n);
                ShardStats::add(&self.stats.batch_submits, 1);
                ShardStats::add(&self.stats.batch_tx, n);
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_depth.fetch_sub(n, Ordering::Relaxed);
                ShardStats::add(&self.stats.shed, n);
                false
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
        .spawn(move || worker(cfg, rx, registry, stats, bindings, wal))
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
        registry.publish_with(key, stats, |mode| frame_bytes(mode, &p.frame));
    }
    ShardStats::add(&stats.published, 1);
}

/// Publish `state`'s full window through the step replay shares
/// ([`RecoveredStream::publish_and_log`]: Moment settled, the defense run,
/// the release logged before anyone sees it), then fan it out. Returns the
/// wall time it took, Moment's settle, logging and fan-out included — the
/// share of a chunk's time its `ingest_us` leaves out. A release that fails
/// the contract audit is counted and withheld, so no violating byte reaches
/// a subscriber, live or through log catch-up. The log has no record of
/// the withheld publication; a restart that re-derives a later release
/// differently refuses the log rather than serve a stream it cannot
/// reproduce.
///
/// A WAL append failure is a broken durability contract, not a degraded
/// mode: the worker dies loudly rather than silently serving an
/// unrecoverable stream.
fn publish(
    cfg: &ServeConfig,
    log: Option<&mut WalWriter>,
    registry: &SubscriberRegistry,
    stats: &Arc<ShardStats>,
    key: &Arc<str>,
    state: &mut RecoveredStream,
) -> Duration {
    let started = Instant::now();
    let (took, step) = state
        .publish_and_log(cfg, key, log)
        .expect("wal release append failed");
    let us = took.as_micros() as u64;
    ShardStats::add(&stats.publish_us, us);
    stats.publish_us_max.fetch_max(us, Ordering::Relaxed);
    match step {
        Step::Published(p) => emit_publication(cfg, registry, stats, key, &p),
        Step::Withheld(violations) => {
            ShardStats::add(&stats.audit_violations, violations as u64);
        }
    }
    started.elapsed()
}

fn worker(
    cfg: ServeConfig,
    rx: Receiver<Job>,
    registry: Arc<SubscriberRegistry>,
    stats: Arc<ShardStats>,
    bindings: Arc<DefenseBindings>,
    wal: Option<RecoveredShard>,
) {
    // Replayed streams slot in exactly where the crashed (or cleanly
    // restarted) process left them; the writer continues the same log.
    let (mut log, recovered) = match wal {
        Some(r) => (Some(r.writer), r.streams),
        None => (None, HashMap::new()),
    };
    let mut pipelines: HashMap<Arc<str>, RecoveredStream> = recovered
        .into_iter()
        .map(|(key, s)| {
            ShardStats::add(&stats.keys, 1);
            (Arc::from(key.as_str()), s)
        })
        .collect();
    while let Ok(job) = rx.recv() {
        match job {
            Job::Ingest { key, chunk } => {
                stats
                    .queue_depth
                    .fetch_sub(chunk.len() as u64, Ordering::Relaxed);
                if !pipelines.contains_key(&key) {
                    ShardStats::add(&stats.keys, 1);
                    // First ingest materializes the pipeline and seals the
                    // key's bind window: a recorded override wins, else the
                    // config's default defense applies.
                    let kind = bindings.materialize(&key).unwrap_or(cfg.defense.kind);
                    if let Some(w) = log.as_mut() {
                        w.append(&WalRecord::Open {
                            stream: key.to_string(),
                            kind,
                        })
                        .expect("wal open append failed");
                    }
                    pipelines.insert(
                        key.clone(),
                        RecoveredStream {
                            kind,
                            pipe: cfg.pipeline_with(&key, kind),
                            published: 0,
                            last_len: 0,
                        },
                    );
                }
                let state = pipelines.get_mut(&key).expect("key just ensured");
                let started = Instant::now();
                let rebuilds = state.pipe.miner().rebuilds();
                let mut publishing = Duration::ZERO;
                // Accepted-before-advanced: the chunk is durable (per the
                // sync policy) before any of its records can shape a
                // release.
                if let Some(w) = log.as_mut() {
                    w.append_ingest(&key, state.pipe.stream_len(), &chunk)
                        .expect("wal ingest append failed");
                }
                // The publish cadence is checked per record, not per chunk:
                // chunking amortizes the queue, it must not move or merge
                // publication positions.
                for items in chunk.iter() {
                    // The pipeline assigns the tid from the stream position.
                    state.pipe.advance_items(items);
                    if state.pipe.window().is_full() && state.pipe.since_publish() >= cfg.every {
                        publishing += publish(&cfg, log.as_mut(), &registry, &stats, &key, state);
                    }
                }
                ShardStats::add(&stats.processed, chunk.len() as u64);
                let rebuilt = state.pipe.miner().rebuilds() - rebuilds;
                ShardStats::add(&stats.moment_rebuilds, rebuilt);
                let us = started.elapsed().saturating_sub(publishing).as_micros() as u64;
                ShardStats::add(&stats.ingest_us, us);
                stats.ingest_us_max.fetch_max(us, Ordering::Relaxed);
            }
        }
    }
    // Every ingress sender is gone and the buffered jobs above are all
    // processed: final flush, in sorted key order so drain output is
    // deterministic.
    let mut keys: Vec<Arc<str>> = pipelines.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let state = pipelines.get_mut(&key).expect("key just listed");
        // The drain owes a release iff records arrived since the last one.
        if state.pipe.window().is_full() && state.pipe.since_publish() > 0 {
            let rebuilds = state.pipe.miner().rebuilds();
            publish(&cfg, log.as_mut(), &registry, &stats, &key, state);
            let rebuilt = state.pipe.miner().rebuilds() - rebuilds;
            ShardStats::add(&stats.moment_rebuilds, rebuilt);
        }
        registry.close_stream(&key, json_line(&closed_event(&key)));
    }
    // Whatever the sync policy deferred goes down with the drain: a clean
    // shutdown never owes recovery a torn tail.
    if let Some(w) = log.as_mut() {
        let _ = w.sync();
    }
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
    use crate::fanout::OutBytes;
    use crate::protocol::SubscriberState;
    use crate::reactor::test_sink;
    use bfly_common::{FrameMode, Json};
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
            out_queue_cap: 64,
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
            assert!(ingress.offer(&key, IngestChunk::from_itemsets(&[items])));
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
        assert!(ingress.offer(&key, IngestChunk::from_itemsets(&batch)));
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
                assert!(ingress.offer(&Arc::from(key), IngestChunk::from_itemsets(part)));
            }
            let mut pipe = cfg.pipeline_for(key);
            for items in &batch {
                pipe.advance_items(items.items());
                if pipe.window().is_full() && pipe.since_publish() >= cfg.every {
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

    /// Claims the Butterfly contract and breaks it on its first
    /// publication: one entry lands far outside any legal region.
    #[derive(Clone, Debug)]
    struct LiesOnce {
        inner: Box<dyn PrivacyDefense>,
        lied: bool,
    }

    impl PrivacyDefense for LiesOnce {
        fn kind(&self) -> DefenseKind {
            DefenseKind::Butterfly
        }
        fn spec(&self) -> &bfly_core::PrivacySpec {
            self.inner.spec()
        }
        fn publish_with_delta(
            &mut self,
            frequent: &bfly_mining::FrequentItemsets,
        ) -> (bfly_core::SanitizedRelease, bfly_core::ReleaseDelta) {
            let (release, delta) = self.inner.publish_with_delta(frequent);
            if std::mem::replace(&mut self.lied, true) {
                return (release, delta);
            }
            let mut entries: Vec<_> = release.iter().cloned().collect();
            entries[0].sanitized += 10_000;
            (bfly_core::SanitizedRelease::new(entries), delta)
        }
        fn reset(&mut self) {
            self.inner.reset();
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
        let liar = LiesOnce {
            inner: cfg.defense.build(cfg.spec(), cfg.scheme, 1),
            lied: false,
        };
        let mut state = RecoveredStream {
            kind: DefenseKind::Butterfly,
            pipe: StreamPipeline::new(cfg.window, Box::new(liar)),
            published: 0,
            last_len: 0,
        };
        let mut src = bfly_datagen::DatasetProfile::WebView1.source(3);
        for _ in 0..8 {
            state.pipe.advance(src.next_transaction());
        }
        publish(&cfg, Some(&mut log), &registry, &stats, &key, &mut state);
        assert_eq!(stats.audit_violations.load(Ordering::Relaxed), 1);
        assert_eq!(state.pipe.audit_violations(), 1);
        assert_eq!(stats.published.load(Ordering::Relaxed), 0);
        assert_eq!(wal_stats.records_appended.load(Ordering::Relaxed), 0);
        assert!(sub_rx.try_recv().is_err(), "a violating release fanned out");
        assert_eq!((state.published, state.last_len), (0, 8));

        // The next publication is honest and flows as usual.
        for _ in 0..2 {
            state.pipe.advance(src.next_transaction());
        }
        publish(&cfg, Some(&mut log), &registry, &stats, &key, &mut state);
        assert_eq!(stats.audit_violations.load(Ordering::Relaxed), 1);
        assert_eq!(stats.published.load(Ordering::Relaxed), 1);
        assert!(wal_stats.records_appended.load(Ordering::Relaxed) > 0);
        let line = String::from_utf8(sub_rx.try_recv().expect("release").to_vec()).unwrap();
        assert!(line.contains("\"stream_len\":10"), "{line}");
        assert!(stats.to_json(0).get("audit_violations").unwrap().as_u64() == Some(1));
        let _ = std::fs::remove_dir_all(&root);
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
                assert!(ingress.offer(&key, offered));
            }
        }
        if !pending.is_empty() {
            assert!(ingress.offer(&key, IngestChunk::from_itemsets(&pending)));
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
            .filter(|_| ingress.offer(&key, chunk_of(&[&[1, 2]])))
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
        assert!(ingress.offer(&key, chunk_of(&[&[1], &[1], &[1]])));
        assert!(!ingress.offer(&key, chunk_of(&[&[1], &[1]])));
        assert!(ingress.offer(&key, chunk_of(&[&[1]])));
        assert_eq!(stats.ingested.load(Ordering::Relaxed), 4);
        assert_eq!(stats.shed.load(Ordering::Relaxed), 2);
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 4);
        assert_eq!(stats.batch_submits.load(Ordering::Relaxed), 2);
        assert_eq!(stats.batch_tx.load(Ordering::Relaxed), 4);
    }
}
