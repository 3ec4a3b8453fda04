//! Server configuration: the privacy contract plus the service shape.

use bfly_common::Support;
use bfly_core::{BiasScheme, DefenseKind, DefenseSpec, PrivacySpec, StreamPipeline};

/// When the write-ahead log forces appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// `fsync` after every appended record: a crash loses nothing the
    /// server acknowledged (the durability the paper's republication rule
    /// actually needs — see DESIGN.md §11).
    Always,
    /// `fsync` every `n` appended records: bounded loss, amortized cost.
    Interval(u32),
    /// Never `fsync`; the OS page cache decides. Survives process crashes
    /// (the file contents are already in the kernel) but not power loss.
    Never,
}

impl WalSyncPolicy {
    /// Wire/CLI name.
    pub fn name(self) -> String {
        match self {
            WalSyncPolicy::Always => "always".into(),
            WalSyncPolicy::Interval(n) => format!("interval:{n}"),
            WalSyncPolicy::Never => "never".into(),
        }
    }
}

impl std::str::FromStr for WalSyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<WalSyncPolicy, String> {
        if let Some(n) = s.strip_prefix("interval:") {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("bad wal-sync interval {n:?} (want a positive integer)"))?;
            if n == 0 {
                return Err("wal-sync interval must be positive".into());
            }
            return Ok(WalSyncPolicy::Interval(n));
        }
        match s {
            "always" => Ok(WalSyncPolicy::Always),
            "never" => Ok(WalSyncPolicy::Never),
            other => Err(format!(
                "unknown wal-sync policy {other:?} (valid: always, interval:<n>, never)"
            )),
        }
    }
}

impl std::fmt::Display for WalSyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Durability knobs for the per-shard write-ahead release log. Present ⇒
/// every shard logs ingests and publications under `dir/shard-<idx>/` and
/// replays them on startup (see [`crate::wal`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WalConfig {
    /// Root directory; each shard owns the `shard-<idx>` subdirectory.
    pub dir: std::path::PathBuf,
    /// When appended records reach stable storage.
    pub sync: WalSyncPolicy,
    /// Rotation floor: a segment is not cut before it holds at least this
    /// many bytes, even once it has the snapshots rotation wants. Keeps
    /// tiny-window test configs from spraying one segment per publication.
    pub segment_min_bytes: u64,
    /// Rotation ceiling: a segment this large is cut regardless of snapshot
    /// count, bounding replay read size per segment.
    pub segment_max_bytes: u64,
    /// Compaction grace: fully-covered segments below the coverage floor
    /// are deleted only beyond the newest `keep_segments` of them, which is
    /// what bounds how far back `subscribe from:` can reach.
    pub keep_segments: usize,
}

impl WalConfig {
    /// A WAL rooted at `dir` with the default policy (`interval:64`) and
    /// rotation bounds.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            sync: WalSyncPolicy::Interval(64),
            segment_min_bytes: 32 * 1024,
            segment_max_bytes: 8 * 1024 * 1024,
            keep_segments: 2,
        }
    }
}

/// What one `serve` process *is* in a deployment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeRole {
    /// A mining node: owns shard workers, pipelines, the WAL, and stats —
    /// the only role before federation, and still the whole service when a
    /// deployment is one process.
    #[default]
    Node,
    /// A stateless routing tier: terminates client connections, consults
    /// the [`crate::placement::ClusterMap`] built from `--nodes`, and
    /// forwards every stream-owning op to the owning node.
    Router,
}

impl ServeRole {
    /// Wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ServeRole::Node => "node",
            ServeRole::Router => "router",
        }
    }
}

impl std::str::FromStr for ServeRole {
    type Err = String;
    fn from_str(s: &str) -> Result<ServeRole, String> {
        match s {
            "node" => Ok(ServeRole::Node),
            "router" => Ok(ServeRole::Router),
            other => Err(format!("unknown role {other:?} (valid: node, router)")),
        }
    }
}

impl std::fmt::Display for ServeRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parse a `--nodes` address list (comma-separated `ip:port`). Rejects the
/// shapes that would silently misroute: an empty list (a router with no
/// owners), an unparsable address, and duplicates (the same node listed
/// twice would own two slot ranges and double-count every forward).
pub fn parse_node_list(s: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    let mut nodes = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!(
                "empty entry in --nodes {s:?} (want a comma-separated list of ip:port addresses)"
            ));
        }
        let addr: std::net::SocketAddr = part.parse().map_err(|_| {
            format!("bad node address {part:?} in --nodes (want ip:port, e.g. 127.0.0.1:7878)")
        })?;
        if nodes.contains(&addr) {
            return Err(format!("duplicate node address {addr} in --nodes"));
        }
        nodes.push(addr);
    }
    if nodes.is_empty() {
        return Err("--nodes must list at least one ip:port address".into());
    }
    Ok(nodes)
}

/// Per-connection outbound queue capacity (replies + subscription events):
/// a subscriber that falls this far behind is disconnected rather than
/// buffered without bound.
pub(crate) const OUT_QUEUE_CAP: usize = 256;

/// Decoded ingest transactions are submitted to shard workers in chunks of
/// up to this many (clamped to `queue_cap`), amortizing one channel
/// operation per chunk instead of per transaction.
const INGEST_CHUNK: usize = 256;

/// Everything a [`crate::Server`] needs to know: the Butterfly deployment
/// parameters applied to every tenant stream, and the service's own knobs
/// (shard count, queue bounds).
///
/// One config serves every stream key — a multi-tenant deployment where all
/// tenants share a privacy contract. Per-key publisher rngs are decorrelated
/// by [`stream_seed`], so tenants never share a noise sequence.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of shards; each is one worker thread owning the pipelines of
    /// the stream keys that hash to it.
    pub shards: usize,
    /// Sliding-window size `H` of every stream.
    pub window: usize,
    /// Minimum support `C`.
    pub c: Support,
    /// Vulnerable support `K`.
    pub k: Support,
    /// Precision bound ε.
    pub epsilon: f64,
    /// Privacy floor δ.
    pub delta: f64,
    /// Perturbation scheme applied at every publication (Butterfly only).
    pub scheme: BiasScheme,
    /// Default privacy defense for every stream (clients may override one
    /// stream's defense with a `bind` request before its first ingest).
    pub defense: DefenseSpec,
    /// Publish each stream every this many of its records (once its window
    /// is full).
    pub every: usize,
    /// Delta wire cadence: `1` publishes a full `release` snapshot every
    /// time (the legacy protocol, no deltas); `N > 1` publishes a
    /// `release_delta` event on every publication plus a full snapshot every
    /// `N`-th one, so late subscribers sync from the next snapshot and then
    /// ride the O(churn) deltas.
    pub snapshot_every: usize,
    /// Per-shard ingress queue capacity; a full queue sheds with an explicit
    /// `overloaded` reply instead of buffering without bound.
    pub queue_cap: usize,
    /// Frame cap in bytes, enforced on both wire encodings: an NDJSON line
    /// this long without a newline, or a binary header announcing a payload
    /// over it, is fatal for the connection.
    pub max_frame_bytes: usize,
    /// Base seed, the deployment's secret: combined with each stream key by
    /// [`stream_seed`], it keys every noise draw of every stream. The CLI
    /// draws it from the OS unless `--seed` is given, and a node with a WAL
    /// stores it beside the log ([`crate::wal::secret`]); whoever holds it
    /// can replay the noise.
    pub seed: u64,
    /// Per-shard write-ahead release log; `None` keeps all state in memory
    /// (the pre-WAL behaviour — a restart re-randomizes, which is exactly
    /// the averaging channel the WAL exists to close).
    pub wal: Option<WalConfig>,
    /// What this process is: a mining [`ServeRole::Node`] (the default — the
    /// whole pre-federation service) or a stateless [`ServeRole::Router`]
    /// forwarding to `nodes`.
    pub role: ServeRole,
    /// Addresses of the mining nodes a router forwards to, in slot order
    /// (the [`crate::placement::ClusterMap`] is built from this list, so its
    /// order is part of the placement contract). Must be empty for a node.
    pub nodes: Vec<std::net::SocketAddr>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            window: 2000,
            c: 25,
            k: 5,
            epsilon: 0.016,
            delta: 0.4,
            scheme: BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            defense: DefenseSpec::butterfly(),
            every: 100,
            snapshot_every: 1,
            queue_cap: 1024,
            max_frame_bytes: bfly_common::frame::MAX_FRAME_BYTES,
            seed: 0,
            wal: None,
            role: ServeRole::Node,
            nodes: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// Validate the knobs a zero would break.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("shards", self.shards),
            ("window", self.window),
            ("every", self.every),
            ("snapshot-every", self.snapshot_every),
            ("queue-cap", self.queue_cap),
            ("max-frame-bytes", self.max_frame_bytes),
        ] {
            if v == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        match self.role {
            ServeRole::Node => {
                if !self.nodes.is_empty() {
                    return Err("--nodes requires --role router (valid roles: node, router)".into());
                }
            }
            ServeRole::Router => {
                if self.nodes.is_empty() {
                    return Err("--role router requires --nodes <addr,addr,...>".into());
                }
                for (i, a) in self.nodes.iter().enumerate() {
                    if self.nodes[..i].contains(a) {
                        return Err(format!("duplicate node address {a} in --nodes"));
                    }
                }
                if self.wal.is_some() {
                    return Err(
                        "--wal-dir conflicts with --role router: the router is stateless; \
                         durability lives on the nodes (start each node with its own --wal-dir)"
                            .into(),
                    );
                }
            }
        }
        if let Some(wal) = &self.wal {
            if wal.dir.as_os_str().is_empty() {
                return Err("wal-dir must not be empty".into());
            }
            if wal.segment_max_bytes == 0 || wal.segment_max_bytes < wal.segment_min_bytes {
                return Err(format!(
                    "wal segment bounds invalid: min {} max {}",
                    wal.segment_min_bytes, wal.segment_max_bytes
                ));
            }
        }
        // An infeasible privacy contract or an unrunnable scheme must be
        // rejected at bind time, not discovered as a shard-worker panic at
        // the first full window.
        PrivacySpec::checked(self.c, self.k, self.epsilon, self.delta)?;
        self.scheme.checked()?;
        self.defense.validate()?;
        Ok(())
    }

    /// The privacy contract every stream is published under.
    pub fn spec(&self) -> PrivacySpec {
        PrivacySpec::new(self.c, self.k, self.epsilon, self.delta)
    }

    /// Build the pipeline for one stream key under the config's default
    /// defense — the single construction path shared by the shard workers
    /// and the network determinism test, so "same config, same key, same
    /// seed" provably means the same releases in-process and over the wire.
    pub fn pipeline_for(&self, key: &str) -> StreamPipeline {
        self.pipeline_with(key, self.defense.kind)
    }

    /// [`ServeConfig::pipeline_for`] with the defense kind overridden — the
    /// path a per-stream `bind` takes. The non-Butterfly defenses keep the
    /// config's DP knobs. The pipeline makes each publication's delta only
    /// if the config ships deltas (`snapshot_every > 1`).
    pub fn pipeline_with(&self, key: &str, kind: DefenseKind) -> StreamPipeline {
        let dspec = DefenseSpec {
            kind,
            ..self.defense
        };
        let defense = dspec.build(self.spec(), self.scheme, stream_seed(self.seed, key));
        StreamPipeline::new(self.window, defense).with_deltas(self.snapshot_every > 1)
    }

    /// The ingest submission chunk actually used: 256 transactions, clamped
    /// to the queue capacity so a single chunk can always be accepted by an
    /// empty queue.
    pub fn effective_ingest_chunk(&self) -> usize {
        INGEST_CHUNK.min(self.queue_cap).max(1)
    }
}

/// FNV-1a hash of a stream key — the routing function mapping keys onto
/// cluster slots (degenerately, `fnv1a(key) % shards` in one process; see
/// [`crate::placement::ClusterMap`]). Re-exported from [`bfly_common::hash`]
/// so every process — node, router, or in-process test — provably hashes
/// identically.
pub use bfly_common::hash::fnv1a;

/// Derive the publisher seed for one stream key from the server's base
/// seed: splitmix64-finalized mix of the base with the key hash. Distinct
/// keys get decorrelated noise streams; the same `(base, key)` always gets
/// the same one, which is what the determinism test pins. The function is
/// public; the noise stays secret only while the base seed does.
pub fn stream_seed(base: u64, key: &str) -> u64 {
    let mut z = base ^ fnv1a(key);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_knobs_rejected() {
        for field in 0..6 {
            let mut cfg = ServeConfig::default();
            match field {
                0 => cfg.shards = 0,
                1 => cfg.window = 0,
                2 => cfg.every = 0,
                3 => cfg.snapshot_every = 0,
                4 => cfg.queue_cap = 0,
                _ => cfg.max_frame_bytes = 0,
            }
            assert!(cfg.validate().is_err(), "field {field} accepted zero");
        }
    }

    #[test]
    fn infeasible_privacy_contract_rejected_at_validate() {
        let cfg = ServeConfig {
            c: 8,
            k: 3,
            epsilon: 0.016, // ε·C² = 1.024 < realized σ² = 2
            delta: 0.4,
            ..ServeConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("infeasible"), "got {err:?}");
    }

    #[test]
    fn unrunnable_scheme_rejected_at_validate() {
        for (scheme, want) in [
            (
                BiasScheme::Hybrid {
                    lambda: 2.0,
                    gamma: 2,
                },
                "λ must be in [0,1]",
            ),
            (
                BiasScheme::OrderPreserving { gamma: 40 },
                "γ must be at most",
            ),
        ] {
            let cfg = ServeConfig {
                scheme,
                ..ServeConfig::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(want), "got {err:?}");
        }
    }

    #[test]
    fn stream_seed_is_stable_and_key_sensitive() {
        assert_eq!(stream_seed(7, "tenant-a"), stream_seed(7, "tenant-a"));
        assert_ne!(stream_seed(7, "tenant-a"), stream_seed(7, "tenant-b"));
        assert_ne!(stream_seed(7, "tenant-a"), stream_seed(8, "tenant-a"));
    }

    #[test]
    fn routing_spreads_keys_across_shards() {
        let shards = 4;
        let mut per_shard = vec![0usize; shards];
        for i in 0..64 {
            per_shard[(fnv1a(&format!("stream-{i}")) % shards as u64) as usize] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "a shard got no keys: {per_shard:?}"
        );
    }

    #[test]
    fn pipeline_for_matches_config() {
        let cfg = ServeConfig {
            window: 16,
            ..ServeConfig::default()
        };
        let pipe = cfg.pipeline_for("k");
        assert_eq!(pipe.window().capacity(), 16);
        assert_eq!(pipe.defense().kind(), DefenseKind::Butterfly);
    }

    #[test]
    fn pipeline_with_overrides_only_the_kind() {
        let cfg = ServeConfig {
            window: 16,
            ..ServeConfig::default()
        };
        let pipe = cfg.pipeline_with("k", DefenseKind::Suppression);
        assert_eq!(pipe.defense().kind(), DefenseKind::Suppression);
        assert_eq!(pipe.window().capacity(), 16);
    }

    #[test]
    fn only_a_config_shipping_deltas_makes_them() {
        // At `snapshot_every = 1` every publication ships its full release
        // and no delta, so the pipeline clones no entry into one; at 3 the
        // first delta adds every entry of the first release.
        let stream = bfly_datagen::DatasetProfile::WebView1
            .source(4)
            .take_vec(320);
        for snapshot_every in [1, 3] {
            let cfg = ServeConfig {
                window: 200,
                c: 8,
                k: 3,
                epsilon: 0.05,
                every: 40,
                snapshot_every,
                ..ServeConfig::default()
            };
            let mut pipe = cfg.pipeline_for("k");
            let (mut published, mut cloned) = (0, 0);
            for t in &stream {
                pipe.advance_items(t.items().items());
                if pipe.due(cfg.every) {
                    let window = pipe.publish_now().expect("the release passes");
                    let delta = &window.delta;
                    assert!(!window.release.is_empty());
                    published += 1;
                    cloned += delta.added.capacity() + delta.changed.capacity();
                    cloned += delta.removed.capacity();
                }
            }
            assert_eq!(published, 4, "snapshot_every {snapshot_every}");
            assert_eq!(cloned == 0, snapshot_every == 1, "{cloned} entries");
        }
    }

    #[test]
    fn ingest_chunk_clamps_to_queue_cap() {
        let cfg = ServeConfig {
            queue_cap: 4,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.effective_ingest_chunk(), 4);
        assert_eq!(
            ServeConfig::default().effective_ingest_chunk(),
            INGEST_CHUNK
        );
    }

    #[test]
    fn wal_sync_policy_parses_and_rejects_garbage() {
        assert_eq!(
            "always".parse::<WalSyncPolicy>().unwrap(),
            WalSyncPolicy::Always
        );
        assert_eq!(
            "never".parse::<WalSyncPolicy>().unwrap(),
            WalSyncPolicy::Never
        );
        assert_eq!(
            "interval:64".parse::<WalSyncPolicy>().unwrap(),
            WalSyncPolicy::Interval(64)
        );
        for bad in ["", "sometimes", "interval:", "interval:0", "interval:x"] {
            assert!(bad.parse::<WalSyncPolicy>().is_err(), "{bad:?} accepted");
        }
        for p in [
            WalSyncPolicy::Always,
            WalSyncPolicy::Interval(7),
            WalSyncPolicy::Never,
        ] {
            assert_eq!(p.name().parse::<WalSyncPolicy>().unwrap(), p);
        }
    }

    #[test]
    fn serve_role_parses_and_rejects_unknown_with_valid_set() {
        assert_eq!("node".parse::<ServeRole>().unwrap(), ServeRole::Node);
        assert_eq!("router".parse::<ServeRole>().unwrap(), ServeRole::Router);
        let err = "proxy".parse::<ServeRole>().unwrap_err();
        assert!(err.contains("node") && err.contains("router"), "{err}");
        for r in [ServeRole::Node, ServeRole::Router] {
            assert_eq!(r.name().parse::<ServeRole>().unwrap(), r);
        }
    }

    #[test]
    fn node_list_parses_and_rejects_malformed() {
        let nodes = parse_node_list("127.0.0.1:7001, 127.0.0.1:7002 ,127.0.0.1:7003").unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1], "127.0.0.1:7002".parse().unwrap());
        for bad in [
            "",
            ",",
            "127.0.0.1:7001,,127.0.0.1:7002",
            "127.0.0.1:7001,",
            "not-an-addr",
            "127.0.0.1",
            "127.0.0.1:notaport",
            "127.0.0.1:7001,127.0.0.1:7001",
        ] {
            assert!(parse_node_list(bad).is_err(), "{bad:?} accepted");
        }
        let err = parse_node_list("bogus").unwrap_err();
        assert!(err.contains("ip:port"), "error must name the shape: {err}");
        let err = parse_node_list("127.0.0.1:7001,127.0.0.1:7001").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn role_validation_rules() {
        let node_addrs = || vec!["127.0.0.1:7001".parse().unwrap()];
        // A plain node must not carry a node list.
        let cfg = ServeConfig {
            nodes: node_addrs(),
            ..ServeConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("--role router"), "{err}");
        // A router needs a node list...
        let cfg = ServeConfig {
            role: ServeRole::Router,
            ..ServeConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        // ...rejects duplicates in one...
        let cfg = ServeConfig {
            role: ServeRole::Router,
            nodes: vec![
                "127.0.0.1:7001".parse().unwrap(),
                "127.0.0.1:7001".parse().unwrap(),
            ],
            ..ServeConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("duplicate"));
        // ...and is stateless (no WAL).
        let cfg = ServeConfig {
            role: ServeRole::Router,
            nodes: node_addrs(),
            wal: Some(WalConfig::new("/tmp/router-wal")),
            ..ServeConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("--wal-dir") && err.contains("stateless"),
            "{err}"
        );
        // The valid router shape passes.
        let cfg = ServeConfig {
            role: ServeRole::Router,
            nodes: node_addrs(),
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn wal_config_bounds_validated() {
        let mut cfg = ServeConfig {
            wal: Some(WalConfig::new("/tmp/wal")),
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_ok());
        let wal = cfg.wal.as_mut().unwrap();
        wal.segment_max_bytes = wal.segment_min_bytes - 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_defense_knobs_rejected_at_validate() {
        let cfg = ServeConfig {
            defense: DefenseSpec {
                dp_budget: 0.0,
                ..DefenseSpec::new(DefenseKind::PrivBasis)
            },
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
