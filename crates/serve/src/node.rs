//! The node layer: everything that *owns streams*, behind one facade.
//!
//! Before federation this was interleaved through `server.rs` — shard
//! workers, ingress queues, the WAL, defense bindings, and per-shard stats
//! all wired inline in `Server::bind` and consulted inline in the dispatch
//! arms. [`NodeCore`] is that same machinery extracted whole, so the
//! connection/framing layer is generic over *what owns a stream*: a
//! [`crate::server::Shared`] holds a `NodeCore` when this process mines,
//! and the reactor hands a router's requests to [`crate::router::Router`]
//! instead.
//!
//! A node routes keys to its local shards through the degenerate one-node
//! [`ClusterMap`] — the same placement function the router uses over N
//! nodes, specialized to `fnv1a(key) % shards`. That keeps exactly one
//! placement implementation in the codebase, and the degenerate map is
//! pinned byte-identical to the historical routing by the placement tests.
//! Which local shard a key lands on only picks the worker thread that owns
//! it; release bytes depend on `(config, seed, key, record order)`, so a
//! node behind a router needs no knowledge of the cluster to publish
//! byte-identical releases.

use crate::binding::DefenseBindings;
use crate::config::ServeConfig;
use crate::fanout::{OutBytes, SubscriberRegistry};
use crate::placement::ClusterMap;
use crate::protocol::{catchup_release_frame_bytes, error_reply, ingest_ok, ingest_overloaded};
use crate::shard::{spawn_shard, Refused, ShardIngress};
use crate::stats::{ShardStats, WalStats};
use crate::wal;
use crate::wal::segment::{FsStore, SegmentStore};
use bfly_common::{FrameMode, IngestChunk, Json, Result};
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// The stream-owning half of a serve process: shard workers and their
/// ingress queues, the write-ahead log, defense bindings, and per-shard
/// telemetry. One per [`crate::config::ServeRole::Node`] process; absent on
/// a router.
pub(crate) struct NodeCore {
    /// This node's local placement: the degenerate one-node map over its
    /// shard count.
    map: ClusterMap,
    /// `None` once shutdown began: dropping the senders is what tells the
    /// shard workers to drain and exit.
    ingress: RwLock<Option<Vec<ShardIngress>>>,
    pub(crate) stats: Vec<Arc<ShardStats>>,
    pub(crate) bindings: Arc<DefenseBindings>,
    /// WAL telemetry, shared by every shard writer (zeros when the WAL is
    /// off; the `stats` reply includes the block only when it is on).
    pub(crate) wal_stats: Arc<WalStats>,
    /// The log's storage, shared by every shard's writer and by catch-up;
    /// `None` without a WAL.
    store: Option<Arc<dyn SegmentStore>>,
}

impl NodeCore {
    /// Recover the WAL (if configured), spawn one worker per shard, and
    /// return the core plus the worker handles for [`crate::Server::join`].
    ///
    /// # Errors
    /// WAL recovery failures ([`bfly_common::Error::Io`] /
    /// [`bfly_common::Error::Parse`]): a bind error or corrupt mid-log
    /// refuses startup instead of killing a worker thread later.
    pub(crate) fn start(
        cfg: &ServeConfig,
        registry: &Arc<SubscriberRegistry>,
    ) -> Result<(NodeCore, Vec<JoinHandle<()>>)> {
        let store = cfg
            .wal
            .as_ref()
            .map(|w| Arc::new(FsStore::new(&w.dir)) as Arc<dyn SegmentStore>);
        NodeCore::start_in(cfg, registry, store)
    }

    /// [`NodeCore::start`] over `store`; the log's secret is checked against
    /// `cfg.seed`, or stored, before any shard opens.
    pub(crate) fn start_in(
        cfg: &ServeConfig,
        registry: &Arc<SubscriberRegistry>,
        store: Option<Arc<dyn SegmentStore>>,
    ) -> Result<(NodeCore, Vec<JoinHandle<()>>)> {
        if let Some(store) = &store {
            wal::secret::bind_secret(store.as_ref(), cfg.shards, Some(cfg.seed))?;
        }
        let bindings = Arc::new(DefenseBindings::default());
        let wal_stats = Arc::new(WalStats::default());
        let stats: Vec<Arc<ShardStats>> = (0..cfg.shards)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        let mut ingress = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        for (i, shard_stats) in stats.iter().enumerate() {
            // Recovery happens before the worker spawns, so a bind error or
            // corrupt mid-log refuses startup instead of killing a thread.
            let recovered = match (&cfg.wal, &store) {
                (Some(w), Some(store)) => {
                    let rec = wal::replay::recover_shard_in(store.clone(), cfg, w, i, &wal_stats)?;
                    for key in rec.streams.keys() {
                        // Recovered streams are live: seal their bind
                        // windows so a post-restart `bind` is rejected the
                        // same way it would have been without the crash.
                        let _ = bindings.materialize(key);
                    }
                    Some(rec)
                }
                _ => None,
            };
            let (handle, worker) = spawn_shard(
                i,
                cfg.clone(),
                registry.clone(),
                shard_stats.clone(),
                bindings.clone(),
                recovered,
            );
            ingress.push(handle);
            workers.push(worker);
        }
        let core = NodeCore {
            map: ClusterMap::single(cfg.shards),
            ingress: RwLock::new(Some(ingress)),
            stats,
            bindings,
            wal_stats,
            store,
        };
        Ok((core, workers))
    }

    /// The shard that owns `stream` on this node (the degenerate placement
    /// decision).
    pub(crate) fn shard_of(&self, stream: &str) -> usize {
        self.map.owner_of(stream).shard
    }

    /// Drop the ingress senders — the signal shard workers drain on.
    pub(crate) fn on_shutdown(&self) {
        *self.ingress.write().expect("ingress poisoned") = None;
    }

    /// Submit one decoded ingest chunk to the owning shard and build the
    /// reply: coarse chunked submission, all-or-nothing shedding per chunk,
    /// still counted in transactions. A chunk within the configured size —
    /// what a well-sized client sends — moves to the shard whole. A
    /// read-only shard refuses the ingest with the log failure that made it
    /// so.
    pub(crate) fn ingest(&self, cfg: &ServeConfig, stream: &str, chunk: IngestChunk) -> Json {
        let guard = self.ingress.read().expect("ingress poisoned");
        match guard.as_ref() {
            None => error_reply("shutting-down"),
            Some(shards) => {
                let shard = &shards[self.shard_of(stream)];
                let key: Arc<str> = Arc::from(stream);
                // Coarse submission: one queue operation per chunk, not per
                // transaction. An oversized chunk is cut from the back, so
                // each piece's transactions are copied once, then offered
                // front first.
                let chunk_size = cfg.effective_ingest_chunk();
                let mut head = chunk;
                let mut tails = Vec::new();
                while head.len() > chunk_size {
                    tails.push(head.split_off((head.len() - 1) / chunk_size * chunk_size));
                }
                let mut accepted = 0;
                let mut shed = 0;
                for piece in std::iter::once(head).chain(tails.into_iter().rev()) {
                    let n = piece.len();
                    match shard.offer(&key, piece) {
                        Ok(()) => accepted += n,
                        Err(Refused::Shed) => shed += n,
                        Err(Refused::ReadOnly(why)) => return error_reply(why),
                    }
                }
                if shed == 0 {
                    ingest_ok(accepted)
                } else {
                    ingest_overloaded(accepted, shed)
                }
            }
        }
    }

    /// Bind one stream to a non-default defense and build the reply. The
    /// defense name already parsed; what can still fail is the timing — the
    /// stream's pipeline must not exist yet.
    pub(crate) fn bind(&self, stream: &str, defense: bfly_core::DefenseKind) -> Json {
        match self.bindings.bind(stream, defense) {
            Ok(()) => Json::obj([
                ("ok", Json::Bool(true)),
                ("stream", Json::from(stream)),
                ("defense", Json::from(defense.name())),
            ]),
            Err(e) => error_reply(&e),
        }
    }

    /// Replay a stream's logged releases (positions `>= min_len`) through
    /// `reply`, encoded in the subscriber's negotiated mode, each as the
    /// log reader reaches it. Nothing without a WAL.
    pub(crate) fn catchup(
        &self,
        stream: &str,
        frame: FrameMode,
        min_len: u64,
        reply: &mut dyn FnMut(OutBytes),
    ) {
        let Some(store) = &self.store else {
            return;
        };
        let shard = self.shard_of(stream);
        wal::replay::catchup_in(store.as_ref(), shard, stream, min_len, |len, entries| {
            reply(catchup_release_frame_bytes(frame, stream, len, &entries))
        });
    }

    /// The node-owned fields of the `stats` reply (the shared envelope —
    /// `draining`, `uptime_ms` — is the server's).
    pub(crate) fn stats_fields(&self, cfg: &ServeConfig) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("shards", Json::from(cfg.shards as u64)),
            (
                "per_shard",
                Json::Arr(
                    self.stats
                        .iter()
                        .enumerate()
                        .map(|(i, s)| s.to_json(i))
                        .collect(),
                ),
            ),
            (
                "recovered_windows",
                Json::from(self.wal_stats.recovered_windows.load(Ordering::Relaxed)),
            ),
        ];
        if cfg.wal.is_some() {
            fields.push(("wal", self.wal_stats.to_json()));
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WalConfig;
    use crate::wal::record::{Decode, Scan};
    use crate::wal::segment::{FsStore, SegmentId, SegmentReader};
    use bfly_common::ItemSet;
    use std::time::{Duration, Instant};

    fn drain(core: NodeCore, workers: Vec<JoinHandle<()>>) {
        core.on_shutdown();
        for w in workers {
            w.join().expect("shard worker paniced");
        }
    }

    #[test]
    fn oversized_ingest_reaches_the_shard_in_order() {
        let root = std::env::temp_dir().join(format!("bfly-node-split-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = ServeConfig {
            shards: 1,
            wal: Some(WalConfig::new(&root)),
            ..ServeConfig::default()
        };
        // Three pieces at the default chunk, all within the queue and the
        // window.
        let n = 2 * cfg.effective_ingest_chunk() + 88;
        assert!(n <= cfg.queue_cap && n <= cfg.window);
        let sent: Vec<ItemSet> = (0..n as u32)
            .map(|i| ItemSet::from_ids([i, 100 + i]))
            .collect();
        let (core, workers) = NodeCore::start(&cfg, &Arc::new(SubscriberRegistry::new())).unwrap();
        let reply = core.ingest(&cfg, "k", IngestChunk::from_itemsets(&sent));
        assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(n as u64));
        drain(core, workers);

        // The log holds the pieces in order, and replays to the stream.
        let mut logged = Vec::new();
        let mut reader = SegmentReader::new();
        reader
            .open(&FsStore::new(&root), SegmentId { shard: 0, idx: 0 })
            .unwrap();
        while let Scan::Record { rec, .. } = reader.next(Decode::All).unwrap() {
            if let wal::WalRecord::Ingest { base, batch, .. } = rec {
                assert_eq!(base, logged.len() as u64);
                logged.extend(batch);
            }
        }
        assert_eq!(logged, sent);
        let wal_cfg = cfg.wal.as_ref().unwrap();
        let rec = wal::recover_shard(&cfg, wal_cfg, 0, &Arc::new(WalStats::default())).unwrap();
        assert_eq!(rec.streams["k"].stream_len(), n as u64);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn splitting_a_frame_of_empty_transactions_is_linear() {
        // The most transactions a default-capped frame can carry: a 3-byte
        // key, a count, then two bytes per empty transaction. Cut into
        // pieces of 16, a split that re-copied the remainder would move
        // ~8.6e9 end offsets; a linear one moves each once.
        let n = (bfly_common::frame::MAX_FRAME_BYTES - 7) / 2;
        let mut payload = vec![1, 0, b'k'];
        payload.extend_from_slice(&(n as u32).to_le_bytes());
        payload.resize(payload.len() + 2 * n, 0);
        let mut chunk = IngestChunk::new();
        chunk.decode(&payload).unwrap();
        assert_eq!(chunk.len(), n);

        let cfg = ServeConfig {
            shards: 1,
            queue_cap: 16,
            ..ServeConfig::default()
        };
        let (core, workers) = NodeCore::start(&cfg, &Arc::new(SubscriberRegistry::new())).unwrap();
        let t0 = Instant::now();
        let reply = core.ingest(&cfg, "k", chunk);
        let took = t0.elapsed();
        drain(core, workers);
        let count = |k| reply.get(k).and_then(Json::as_u64).unwrap_or(0);
        assert_eq!(count("accepted") + count("shed"), n as u64, "{reply:?}");
        assert!(
            took < Duration::from_secs(2),
            "splitting {n} transactions took {took:?}"
        );
    }
}
