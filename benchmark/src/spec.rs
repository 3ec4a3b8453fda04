//! What the benchmark runs and what it reports: the four workloads, the
//! five end-to-end metrics and the per-layer metric names. `BENCHMARK.json`
//! at the repository root repeats these names; `tests/names.rs` holds the
//! two lists together.

use bfly_core::BiasScheme;
use bfly_datagen::DatasetProfile;
use bfly_serve::{FrameMode, ServeConfig, WalConfig, WalSyncPolicy};
use std::path::Path;

/// Noise seed every server runs with. The benchmark's `--seed` shapes the
/// *inputs* only; the program's own configuration is the same on every run.
pub const SERVER_SEED: u64 = 7;

/// Slides of release credit in the closed loop: slide `i + CREDIT` is
/// written only after release `i` arrived. `CREDIT * every` must not exceed
/// the default `queue_cap` (1024 tx), so nothing is ever shed.
pub const CREDIT: usize = 4;

/// Incarnations (fresh server processes on the same bytes) per run.
pub const INCARNATIONS: usize = 3;

/// `run_seconds` of BENCHMARK.json: saturated-phase seconds per run, over
/// all incarnations, on a quiet host.
pub const RUN_SECONDS: f64 = 18.0;

/// One named workload. Everything that decides the work is here; nothing is
/// read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (repeated in BENCHMARK.json).
    pub why: &'static str,
    pub profile: DatasetProfile,
    /// Seed of the Quest pattern table — the dataset's identity. The stream
    /// replayed is one fixed period of this dataset; `--seed` picks the
    /// item relabelling, the phase at which replay enters the period and the
    /// stream keys (see `data.rs` for why the table itself stays fixed).
    pub table_seed: u64,
    pub window: usize,
    pub min_support: u64,
    pub every: usize,
    /// Stream period `L` in transactions (a multiple of `every`, > window).
    pub period: usize,
    /// Slides between two drained edges (divides `period / every`). Short
    /// segments are what let a measurement land between two disturbances.
    pub segment_slides: usize,
    pub keys: usize,
    /// NDJSON ingest and NDJSON release events (otherwise binary frames).
    pub json: bool,
    /// Through `serve --role router --io blocking` over two 1-shard nodes.
    pub routed: bool,
    /// `--wal-dir` (sync policy `interval:64`, the server's default); set-up
    /// is a restart on a killed log.
    pub durable: bool,
    pub snapshot_every: usize,
    /// Warm cycles inside set-up, sized so set-up lasts at least a second.
    pub warm_cycles: usize,
    /// Periods the untimed seeding incarnation logs before it is killed
    /// (durable only).
    pub seed_cycles: usize,
    /// A rate this workload sustains even while the host is disturbed
    /// (about 70 % of its quiet closed-loop floor), tx/s. The open-loop
    /// ladder of `trace` runs at 25/50/75 % of it.
    pub committed_tx_per_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "publish_live",
        why: "WebView1 W2000 C25 every 100, binary, 1 key: the paper's default contract; publication is ~80% of server CPU, mining under 20%",
        profile: DatasetProfile::WebView1,
        table_seed: 1,
        window: 2000,
        min_support: 25,
        every: 100,
        period: 4000,
        segment_slides: 2,
        keys: 1,
        json: false,
        routed: false,
        durable: false,
        snapshot_every: 1,
        warm_cycles: 6,
        seed_cycles: 0,
        committed_tx_per_s: 16_000.0,
    },
    Workload {
        name: "mine_pos",
        why: "POS W500 C20 every 250, binary: Moment + ground truth are about 80% of server CPU, publication about 20%; a release-engine gain must barely move it",
        profile: DatasetProfile::Pos,
        table_seed: 1,
        window: 500,
        min_support: 20,
        every: 250,
        period: 2000,
        segment_slides: 1,
        keys: 1,
        json: false,
        routed: false,
        durable: false,
        snapshot_every: 1,
        warm_cycles: 9,
        seed_cycles: 0,
        committed_tx_per_s: 14_000.0,
    },
    Workload {
        name: "ingest_routed_json",
        why: "WebView1 W2000 C400 every 250, NDJSON through a blocking router over two nodes, 2 keys: the JSON parse, placement, forward, re-encode, relay path; almost nothing to publish",
        profile: DatasetProfile::WebView1,
        table_seed: 1,
        window: 2000,
        min_support: 400,
        every: 250,
        period: 20_000,
        segment_slides: 4,
        keys: 2,
        json: true,
        routed: true,
        durable: false,
        snapshot_every: 1,
        warm_cycles: 7,
        seed_cycles: 0,
        committed_tx_per_s: 130_000.0,
    },
    Workload {
        name: "ingest_durable_bin",
        why: "same stream shape, one node, binary frames, delta releases, WAL at the default sync policy: the ingest layers used the other way plus the log; set-up is crash recovery",
        profile: DatasetProfile::WebView1,
        table_seed: 1,
        window: 2000,
        min_support: 400,
        every: 250,
        period: 20_000,
        segment_slides: 8,
        keys: 1,
        json: false,
        routed: false,
        durable: true,
        snapshot_every: 8,
        warm_cycles: 10,
        seed_cycles: 4,
        committed_tx_per_s: 130_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn slides_per_cycle(&self) -> usize {
        self.period / self.every
    }

    pub fn segments_per_cycle(&self) -> usize {
        assert!(self.slides_per_cycle().is_multiple_of(self.segment_slides));
        self.slides_per_cycle() / self.segment_slides
    }

    /// Cycles in a saturated phase meant to last `secs` on a quiet host. A count, not a deadline: every run then does the same work and
    /// takes the floor over the same number of repetitions.
    pub fn cycles_for(&self, secs: f64) -> usize {
        let quiet_rate = self.committed_tx_per_s / 0.7;
        ((secs * quiet_rate / self.tx_per_cycle() as f64).round() as usize).max(2)
    }

    pub fn fill_slides(&self) -> usize {
        self.window / self.every
    }

    /// The encoding of this workload's ingest requests and release events.
    pub fn frame_mode(&self) -> FrameMode {
        if self.json {
            FrameMode::Json
        } else {
            FrameMode::Binary
        }
    }

    /// Transactions one cycle feeds, over all keys.
    pub fn tx_per_cycle(&self) -> usize {
        self.period * self.keys
    }

    /// The configuration every node of this workload runs — the single
    /// source for both the `butterfly serve` flags and the in-process
    /// oracle, so the two cannot drift apart.
    pub fn serve_config(&self, wal_dir: Option<&Path>) -> ServeConfig {
        assert!(self.period.is_multiple_of(self.every) && self.window.is_multiple_of(self.every));
        assert!(self.period > self.window);
        let cfg = ServeConfig {
            shards: 1,
            window: self.window,
            c: self.min_support,
            k: 5,
            epsilon: 0.016,
            delta: 0.4,
            scheme: BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            every: self.every,
            snapshot_every: self.snapshot_every,
            seed: SERVER_SEED,
            wal: wal_dir.map(|dir| WalConfig {
                sync: WalSyncPolicy::Interval(64),
                ..WalConfig::new(dir)
            }),
            ..ServeConfig::default()
        };
        assert!(CREDIT * cfg.every <= cfg.queue_cap, "credit would shed");
        cfg
    }
}

/// `butterfly serve` flags that reproduce `cfg` (pipeline knobs only; the
/// caller adds `--addr`, `--port-file`, role flags).
pub fn serve_flags(cfg: &ServeConfig) -> Vec<String> {
    let BiasScheme::Hybrid { lambda, gamma } = cfg.scheme else {
        panic!("benchmark workloads run the hybrid scheme");
    };
    let mut flags: Vec<String> = [
        ("--shards", cfg.shards.to_string()),
        ("--window", cfg.window.to_string()),
        ("--min-support", cfg.c.to_string()),
        ("--vulnerable", cfg.k.to_string()),
        ("--epsilon", cfg.epsilon.to_string()),
        ("--delta", cfg.delta.to_string()),
        ("--scheme", "hybrid".to_string()),
        ("--lambda", lambda.to_string()),
        ("--gamma", gamma.to_string()),
        ("--every", cfg.every.to_string()),
        ("--snapshot-every", cfg.snapshot_every.to_string()),
        ("--seed", cfg.seed.to_string()),
    ]
    .into_iter()
    .flat_map(|(k, v)| [k.to_string(), v])
    .collect();
    if let Some(wal) = &cfg.wal {
        flags.extend([
            "--wal-dir".to_string(),
            wal.dir.to_str().expect("utf-8 wal dir").to_string(),
            "--wal-sync".to_string(),
            wal.sync.name(),
        ]);
    }
    flags
}

/// A metric as BENCHMARK.json declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Bounds are what this host can honour (see README, "Bounds"): same-code
/// quartile spreads read 1–6 % through a quiet half hour and 5–18 % through
/// a disturbed one, with nothing changed on our side.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("tx_per_s", "tx/s", true, 0.25),
    e2e("release_lag_p50_ms", "ms", false, 0.25),
    e2e("server_cpu_s_per_mtx", "CPU-s/Mtx", false, 0.25),
    e2e("server_peak_rss_mb", "MiB", false, 0.20),
];

pub const PER_LAYER: [MetricDef; 53] = [
    layer("common.frame.decode_us_per_tx", "us/tx", false),
    layer("common.frame.encode_us_per_tx", "us/tx", false),
    layer("serve.protocol.request_parse_us_per_tx", "us/tx", false),
    layer("serve.placement.owner_of_ns_per_key", "ns/key", false),
    layer("common.window.slide_us_per_tx", "us/tx", false),
    layer("mining.moment.apply_us_per_tx", "us/tx", false),
    layer(
        "mining.moment.closed_frequent_us_per_window",
        "us/window",
        false,
    ),
    layer("mining.moment.cet_nodes", "count", false),
    layer("inference.truth.apply_us_per_tx", "us/tx", false),
    layer("inference.truth.seed_us_per_window", "us/window", false),
    layer("core.defense.publish_us_per_window", "us/window", false),
    layer("core.engine.dp_full_solves", "count", false),
    layer("core.engine.dp_warm_starts", "count", true),
    layer("core.engine.dp_full_reuse", "count", true),
    layer("core.engine.dp_layers_reused_frac", "ratio", true),
    layer("core.fec.fecs_per_window", "count", false),
    layer("core.release.itemsets_per_window", "count", false),
    layer("core.audit.audit_us_per_window", "us/window", false),
    layer("core.audit.violations", "count", false),
    layer(
        "serve.protocol.encode_release_us_per_window",
        "us/window",
        false,
    ),
    layer("serve.protocol.release_bytes_per_window", "B/window", false),
    layer("serve.shard.batch_tx_per_submit", "tx", true),
    layer("serve.shard.shed", "count", false),
    layer("serve.reactor.wakeups_per_ktx", "1/ktx", false),
    layer("serve.reactor.partial_writes", "count", false),
    layer("serve.router.forwards_per_ktx", "1/ktx", false),
    layer("serve.router.cpu_share", "ratio", false),
    layer("serve.wal.append_us_per_record", "us/record", false),
    layer("serve.wal.sync_us_per_call", "us/call", false),
    layer("serve.wal.bytes_per_window", "B/window", false),
    layer("serve.wal.appends_per_window", "count", false),
    layer("serve.wal.fsyncs_per_window", "count", false),
    layer("serve.wal.recover_ms_per_window", "ms/window", false),
    layer("serve.wal.catchup_us_per_window", "us/window", false),
    layer("oracle.inprocess_us_per_slide", "us/slide", false),
    layer("driver.tx_per_s_median_cycle", "tx/s", true),
    layer("driver.tx_per_s_worst_cycle", "tx/s", true),
    layer("driver.release_lag_p90_ms", "ms", false),
    layer("driver.release_lag_p99_ms", "ms", false),
    layer("driver.send_us_per_tx", "us/tx", false),
    layer("driver.release_decode_us_per_window", "us/window", false),
    layer("driver.paced25_lag_p50_ms", "ms", false),
    layer("driver.paced50_lag_p50_ms", "ms", false),
    layer("driver.paced75_lag_p50_ms", "ms", false),
    layer("driver.paced50_lag_p99_ms", "ms", false),
    layer("driver.generator_late_max_ms", "ms", false),
    layer("host.alu_ms", "ms", false),
    layer("host.mem_chase_ms", "ms", false),
    layer("host.wakeup_us", "us", false),
    layer("host.cores", "count", true),
    layer("host.wal_fs", "count", true),
    layer("trace.coverage_ratio", "ratio", true),
    layer("trace.overhead_frac", "ratio", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, list: &str) -> Vec<(String, String, bool, Option<f64>)> {
        doc.get(list)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{list} is a list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                let higher = match text("better").as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => panic!("better is {other:?}"),
                };
                (
                    text("name"),
                    text("unit"),
                    higher,
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// What `bench` prints is `END_TO_END`, `PER_LAYER` and `WORKLOADS`;
    /// BENCHMARK.json must declare exactly that.
    #[test]
    fn printed_names_equal_benchmark_json() {
        let doc = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.higher,
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.higher, None))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let text = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (text("name"), text("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn workloads_are_well_formed() {
        for w in &WORKLOADS {
            let cfg = w.serve_config(None);
            assert!(cfg.validate().is_ok(), "{}", w.name);
            assert!(w.segments_per_cycle() >= 1);
            assert_eq!(serve_flags(&cfg).len() % 2, 0);
        }
    }
}
