//! `bench trace`: the per-layer numbers of one workload.
//!
//! Spans and exact counts come from the in-process replay (`trace.rs`);
//! counters from the `stats` op of one live incarnation; the driver's own
//! share and the open-loop ladder from that same incarnation; host probes
//! from before and after. Where a layer does no work on a workload (no
//! router, no log, no JSON) its cells read 0: that is the measurement, not a
//! guess.

use crate::drive::{node_docs, Tally};
use crate::host::{self, HostProbe};
use crate::oracle;
use crate::procs::TempDir;
use crate::run::{self, shard_sum, Budget, Env, RunResult};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::percentile;
use crate::trace::{self, names::*};
use bfly_common::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Periods each in-process replay runs: one to warm, the rest measured, the
/// floor over them reported.
const REPLAY_PERIODS: usize = 15;

pub struct TraceResult {
    /// One value per `spec::PER_LAYER` entry, in that order.
    pub values: Vec<f64>,
    pub tally: Tally,
    pub first_failure: Option<String>,
    /// Things worth a line in the log that are not metrics.
    pub notes: Vec<String>,
}

/// Spans that are on the workload's request path (the rest are priced but
/// left out of the coverage sum).
fn on_path(w: &Workload) -> Vec<&'static str> {
    let mut names = vec![
        OWNER_OF,
        WINDOW_SLIDE,
        MOMENT_APPLY,
        TRUTH_APPLY,
        MOMENT_CLOSED,
        TRUTH_SEED,
        PUBLISH,
        ENCODE_RELEASE,
    ];
    names.push(if w.json { REQUEST_PARSE } else { FRAME_DECODE });
    if w.routed {
        names.extend([FRAME_ENCODE, FRAME_DECODE]);
    }
    if w.durable {
        names.extend([WAL_APPEND, WAL_SYNC]);
    }
    names
}

fn sum_field(docs: &[&Json], block: &str, field: &str) -> f64 {
    docs.iter()
        .filter_map(|d| d.get(block)?.get(field)?.as_u64())
        .sum::<u64>() as f64
}

pub fn trace_workload(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<TraceResult, String> {
    let before = host::probe();
    let data = crate::data::generate(w, seed);
    let mut notes = Vec::new();
    let mut extra = Tally::default();
    let mut first_failure = None;

    // In-process: the oracle as baseline, then the separated layers with
    // spans on (the trace) and off (what the spans cost).
    let periods = if quick { 2 } else { REPLAY_PERIODS };
    let baseline = oracle::replay(w, &data, periods, periods - 1, false);
    let wal_on = TempDir::new(&env.out, "trace-wal");
    let wal_off = TempDir::new(&env.out, "trace-wal");
    let wal_of = |dir: &TempDir| w.durable.then(|| dir.path().to_path_buf());
    let traced = trace::replay(w, &data, periods, true, wal_of(&wal_on).as_deref())?;
    let untraced = trace::replay(w, &data, periods, false, wal_of(&wal_off).as_deref())?;
    for (k, key) in baseline.keys.iter().enumerate() {
        let same = traced.slide_digests[k] == key.slide_digests
            && untraced.slide_digests[k] == key.slide_digests;
        if !extra.check(same) && first_failure.is_none() {
            first_failure = Some(format!(
                "key {k}: the layer-by-layer replay's releases differ from the oracle's"
            ));
        }
    }
    let trace_file = env.out.join(format!("trace-{}.json", w.name));
    traced
        .tracer
        .write_json(&trace_file)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        traced.tracer.spans.len(),
        trace_file.display()
    ));
    let (recover_ms_per_window, catchup_us_per_window) = if w.durable {
        trace::wal_read_side(w, &data, wal_on.path())?
    } else {
        (0.0, 0.0)
    };

    let map = crate::data::two_node_map();
    let owner_of_ns = {
        let key = &data.streams[0].key;
        let calls = 200_000u32;
        let t0 = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(map.owner_of(std::hint::black_box(key)));
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    };

    // Live: one incarnation, saturated phase then the open-loop ladder.
    let budget = if quick {
        Budget {
            ladder_rung_s: Some(0.2),
            ..Budget::quick()
        }
    } else {
        Budget {
            ladder_rung_s: Some(seconds / 12.0),
            // One incarnation, and two thirds of a `run` incarnation's
            // phase: the time goes to the in-process periods instead.
            ..Budget::for_seconds(w, seconds * 2.0 / 3.0)
        }
    };
    let live: RunResult = run::run_workload(env, w, seed, budget, 1)?;
    let after = host::probe();

    let inc = &live.incarnations[0];
    let docs = node_docs(&inc.stats);
    let self_times = traced.tracer.self_floors(
        traced.measured_from,
        traced.period_slides,
        &[WAL_APPEND, WAL_SYNC],
    );
    let self_ns = |name: &str| self_times.get(name).map_or(0.0, |(ns, _)| *ns);
    let c = &traced.counts;
    let (tx, windows) = (c.tx as f64, c.windows as f64);
    let phase_tx = (inc.cycles.len() * w.tx_per_cycle()) as f64;
    let ingested = shard_sum(&inc.stats, "ingested").unwrap_or(0) as f64;
    let published = shard_sum(&inc.stats, "published").unwrap_or(0) as f64;
    let forwards = inc
        .stats
        .get("forward")
        .and_then(Json::as_array)
        .map_or(0.0, |links| {
            links
                .iter()
                .filter_map(|l| l.get("requests")?.as_u64())
                .sum::<u64>() as f64
        });
    let on_path_ns: f64 = on_path(w).iter().map(|n| self_ns(n)).sum();
    let live_cpu_ns_per_slide = live.cpu_s_per_mtx(w) * 1e3 * w.every as f64;
    let host: HostProbe = before.worst(after);
    let paced = |rung: usize, p: f64| {
        inc.paced
            .get(rung)
            .map_or(0.0, |r| percentile(&r.lags_ms, p))
    };
    let late_max = inc.paced.iter().map(|r| r.late_max_ms).fold(0.0, f64::max);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // One binary decode per transaction wherever there is any: at the edge
    // on binary paths, at the node behind the router on the routed one.
    m.insert(
        "common.frame.decode_us_per_tx",
        self_ns(FRAME_DECODE) / 1e3 / tx,
    );
    m.insert(
        "common.frame.encode_us_per_tx",
        self_ns(FRAME_ENCODE) / 1e3 / tx,
    );
    m.insert(
        "serve.protocol.request_parse_us_per_tx",
        self_ns(REQUEST_PARSE) / 1e3 / tx,
    );
    m.insert("serve.placement.owner_of_ns_per_key", owner_of_ns);
    m.insert(
        "common.window.slide_us_per_tx",
        self_ns(WINDOW_SLIDE) / 1e3 / tx,
    );
    m.insert(
        "mining.moment.apply_us_per_tx",
        self_ns(MOMENT_APPLY) / 1e3 / tx,
    );
    m.insert(
        "mining.moment.closed_frequent_us_per_window",
        self_ns(MOMENT_CLOSED) / 1e3 / windows,
    );
    m.insert("mining.moment.cet_nodes", traced.cet_nodes as f64);
    m.insert(
        "inference.truth.apply_us_per_tx",
        self_ns(TRUTH_APPLY) / 1e3 / tx,
    );
    m.insert(
        "inference.truth.seed_us_per_window",
        self_ns(TRUTH_SEED) / 1e3 / windows,
    );
    m.insert(
        "core.defense.publish_us_per_window",
        self_ns(PUBLISH) / 1e3 / windows,
    );
    let e = traced.engine;
    m.insert("core.engine.dp_full_solves", e.dp_full_solves as f64);
    m.insert("core.engine.dp_warm_starts", e.dp_warm_starts as f64);
    m.insert("core.engine.dp_full_reuse", e.dp_full_reuse as f64);
    m.insert("core.engine.dp_layers_reused_frac", {
        let layers = (e.dp_layers_reused + e.dp_layers_computed) as f64;
        if layers == 0.0 {
            0.0
        } else {
            e.dp_layers_reused as f64 / layers
        }
    });
    m.insert("core.fec.fecs_per_window", c.fecs as f64 / windows);
    m.insert(
        "core.release.itemsets_per_window",
        c.itemsets as f64 / windows,
    );
    m.insert(
        "core.audit.audit_us_per_window",
        self_ns(AUDIT) / 1e3 / windows,
    );
    m.insert(
        "core.audit.violations",
        (c.audit_violations + baseline.audit_violations) as f64,
    );
    m.insert(
        "serve.protocol.encode_release_us_per_window",
        self_ns(ENCODE_RELEASE) / 1e3 / windows,
    );
    m.insert(
        "serve.protocol.release_bytes_per_window",
        c.release_bytes as f64 / windows,
    );
    m.insert("serve.shard.batch_tx_per_submit", {
        let submits = shard_sum(&inc.stats, "batch_submits").unwrap_or(0) as f64;
        shard_sum(&inc.stats, "batch_tx").unwrap_or(0) as f64 / submits.max(1.0)
    });
    m.insert(
        "serve.shard.shed",
        shard_sum(&inc.stats, "shed").unwrap_or(0) as f64,
    );
    m.insert(
        "serve.reactor.wakeups_per_ktx",
        sum_field(&docs, "reactor", "wakeups") / (ingested / 1e3),
    );
    m.insert(
        "serve.reactor.partial_writes",
        sum_field(&docs, "reactor", "partial_writes"),
    );
    m.insert("serve.router.forwards_per_ktx", forwards / (ingested / 1e3));
    m.insert(
        "serve.router.cpu_share",
        if w.routed {
            live.front_cpu_share()
        } else {
            0.0
        },
    );
    let per_span = |name: &str| {
        let (ns, spans) = self_times.get(name).copied().unwrap_or((0.0, 0.0));
        if spans == 0.0 {
            0.0
        } else {
            ns / 1e3 / spans
        }
    };
    m.insert("serve.wal.append_us_per_record", per_span(WAL_APPEND));
    m.insert("serve.wal.sync_us_per_call", per_span(WAL_SYNC));
    m.insert(
        "serve.wal.bytes_per_window",
        sum_field(&docs, "wal", "bytes_appended") / published.max(1.0),
    );
    m.insert(
        "serve.wal.appends_per_window",
        sum_field(&docs, "wal", "records_appended") / published.max(1.0),
    );
    m.insert(
        "serve.wal.fsyncs_per_window",
        sum_field(&docs, "wal", "fsyncs") / published.max(1.0),
    );
    m.insert("serve.wal.recover_ms_per_window", recover_ms_per_window);
    m.insert("serve.wal.catchup_us_per_window", catchup_us_per_window);
    m.insert(
        "oracle.inprocess_us_per_slide",
        baseline.period_floor.as_secs_f64() * 1e6 / traced.period_slides as f64,
    );
    m.insert(
        "driver.tx_per_s_median_cycle",
        live.tx_per_s_median_cycle(w),
    );
    m.insert("driver.tx_per_s_worst_cycle", live.tx_per_s_worst_cycle(w));
    m.insert("driver.release_lag_p90_ms", live.lag_ms(90.0));
    m.insert("driver.release_lag_p99_ms", live.lag_ms(99.0));
    m.insert("driver.send_us_per_tx", inc.send_ns as f64 / 1e3 / phase_tx);
    m.insert(
        "driver.release_decode_us_per_window",
        inc.decode_ns as f64 / 1e3 / inc.releases.max(1) as f64,
    );
    m.insert("driver.paced25_lag_p50_ms", paced(0, 50.0));
    m.insert("driver.paced50_lag_p50_ms", paced(1, 50.0));
    m.insert("driver.paced75_lag_p50_ms", paced(2, 50.0));
    m.insert("driver.paced50_lag_p99_ms", paced(1, 99.0));
    m.insert("driver.generator_late_max_ms", late_max);
    m.insert("host.alu_ms", host.alu_ms);
    m.insert("host.mem_chase_ms", host.mem_chase_ms);
    m.insert("host.wakeup_us", host.wakeup_us);
    m.insert("host.cores", env.cpus.cores as f64);
    m.insert("host.wal_fs", host::on_tmpfs(&env.out) as f64);
    m.insert(
        "trace.coverage_ratio",
        on_path_ns / traced.period_slides as f64 / live_cpu_ns_per_slide,
    );
    m.insert(
        "trace.overhead_frac",
        traced.period_floor_ns as f64 / untraced.period_floor_ns as f64 - 1.0,
    );

    // Shares the workloads were sized for, for the log.
    let share = |names: &[&str]| names.iter().map(|n| self_ns(n)).sum::<f64>() / on_path_ns;
    notes.push(format!(
        "in-process shares of the request path: publication {:.1}%  Moment+truth {:.1}%  WAL {:.1}%  ingest decode/parse {:.1}%",
        100.0 * share(&[PUBLISH]),
        100.0 * share(&[MOMENT_APPLY, MOMENT_CLOSED, TRUTH_APPLY, TRUTH_SEED, WINDOW_SLIDE]),
        100.0 * if w.durable { share(&[WAL_APPEND, WAL_SYNC]) } else { 0.0 },
        100.0 * share(&[FRAME_DECODE, REQUEST_PARSE]),
    ));
    if let Some((n, took)) = inc.catchup {
        notes.push(format!(
            "timed `from: earliest` read over the wire: {n} windows in {:.2} ms ({:.1} us/window)",
            took.as_secs_f64() * 1e3,
            took.as_secs_f64() * 1e6 / n as f64
        ));
    }
    notes.push(format!("host before {before:?}  after {after:?}",));

    let mut tally = live.tally;
    tally.add(extra);
    Ok(TraceResult {
        values: PER_LAYER
            .iter()
            .map(|def| {
                *m.get(def.name)
                    .unwrap_or_else(|| panic!("no value for {}", def.name))
            })
            .collect(),
        tally,
        first_failure: first_failure.or(live.first_failure),
        notes,
    })
}
