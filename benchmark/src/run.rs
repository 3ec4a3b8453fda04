//! One workload run: three incarnations on the same bytes, each set-up then
//! a saturated phase of drained segments.
//!
//! The estimator is the *floor*: segment `p` of the period is the same work
//! every time it comes round, so its cost is the lowest of all its
//! repetitions, over all cycles of all three incarnations, and a cycle costs
//! the sum of its segments' floors. On this host a disturbance only ever
//! adds time, lasts anything from a few milliseconds to minutes, and moves
//! quartiles by tens of percent; the floor is what repeats.

use crate::data::{self, Dataset};
use crate::drive::{node_docs, release_len, Cluster, Finished, Live, Paced, Segment, Tally};
use crate::oracle::{self, Oracle};
use crate::procs::{copy_tree, CpuPlan, TempDir};
use crate::spec::{Workload, INCARNATIONS};
use crate::stats::{median, percentile};
use bfly_common::{Frame, FrameCodec, Json};
use bfly_serve::protocol::{binary_event_json, SubscriberState};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where things are, fixed for the life of the process.
pub struct Env {
    pub out: PathBuf,
    /// The built `butterfly` binary.
    pub bin: PathBuf,
    pub cpus: CpuPlan,
}

/// How much to measure.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Saturated-phase cycles per incarnation: a count, so that every run
    /// does the same work and takes its floors over as many repetitions.
    pub cycles: usize,
    /// The phase stops early (at a cycle edge, never below `MIN_CYCLES`) once
    /// it has lasted this long: a disturbed host must not push a run past
    /// the time the contract allows it.
    pub phase_cap_s: f64,
    pub warm_cycles: usize,
    /// Seconds per open-loop rung (25/50/75 % of the committed rate) run
    /// after the saturated phase; `trace` asks for them, `run` does not.
    pub ladder_rung_s: Option<f64>,
}

/// Fewest cycles a saturated phase may have.
const MIN_CYCLES: usize = 2;

impl Budget {
    /// `seconds` of saturated phase in all, split over the incarnations.
    pub fn for_seconds(w: &Workload, seconds: f64) -> Budget {
        let phase_s = seconds / INCARNATIONS as f64;
        Budget {
            cycles: w.cycles_for(phase_s),
            phase_cap_s: 1.4 * phase_s,
            warm_cycles: w.warm_cycles,
            ladder_rung_s: None,
        }
    }

    /// Smoke-test sizing: every code path, no usable numbers.
    pub fn quick() -> Budget {
        Budget {
            cycles: MIN_CYCLES,
            phase_cap_s: 0.0,
            warm_cycles: 1,
            ladder_rung_s: None,
        }
    }
}

/// Everything one incarnation measured.
pub struct Incarnation {
    pub setup_s: f64,
    /// `[cycle][segment position]`.
    pub cycles: Vec<Vec<Segment>>,
    /// Release lag of every slide of the saturated phase, ms.
    pub lags_ms: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Driver time writing requests and reading replies, saturated phase.
    pub send_ns: u64,
    /// The open-loop rungs, when asked for (`trace`).
    pub paced: Vec<Paced>,
    /// Release slides this incarnation's requests owe, per key.
    pub slides_released: usize,
    pub stats: Json,
    /// Subscriber-thread time splitting and hashing frames, whole life.
    pub decode_ns: u64,
    pub releases: u64,
    /// Timed `from: earliest` read (durable only): windows read, time.
    pub catchup: Option<(usize, Duration)>,
    /// The raw release frames that read returned.
    pub catchup_frames: Vec<Vec<u8>>,
}

pub struct RunResult {
    pub incarnations: Vec<Incarnation>,
    pub tally: Tally,
    /// First failure in words, for the log.
    pub first_failure: Option<String>,
}

impl RunResult {
    fn all_cycles(&self) -> impl Iterator<Item = &Vec<Segment>> {
        self.incarnations.iter().flat_map(|i| i.cycles.iter())
    }

    /// Per segment position, the lowest `f` over every repetition.
    fn floors(&self, f: impl Fn(&Segment) -> f64) -> Vec<f64> {
        let positions = self.incarnations[0].cycles[0].len();
        (0..positions)
            .map(|p| {
                self.all_cycles()
                    .map(|c| f(&c[p]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Whole-cycle wall times, every cycle of every incarnation, seconds.
    fn cycle_walls(&self) -> Vec<f64> {
        self.all_cycles()
            .map(|c| c.iter().map(|s| s.wall_ns as f64).sum::<f64>() / 1e9)
            .collect()
    }

    /// `tx per cycle / sum of segment wall floors`.
    pub fn tx_per_s(&self, w: &Workload) -> f64 {
        let floor_s = self.floors(|s| s.wall_ns as f64).iter().sum::<f64>() / 1e9;
        w.tx_per_cycle() as f64 / floor_s
    }

    pub fn tx_per_s_median_cycle(&self, w: &Workload) -> f64 {
        w.tx_per_cycle() as f64 / median(&self.cycle_walls())
    }

    pub fn tx_per_s_worst_cycle(&self, w: &Workload) -> f64 {
        w.tx_per_cycle() as f64 / self.cycle_walls().into_iter().fold(0.0, f64::max)
    }

    /// Sum of segment CPU floors (all threads of all server processes), per
    /// 10^6 tx.
    pub fn cpu_s_per_mtx(&self, w: &Workload) -> f64 {
        let floor_s = self.floors(|s| s.cpu_ns as f64).iter().sum::<f64>() / 1e9;
        floor_s / (w.tx_per_cycle() as f64 / 1e6)
    }

    /// Mean over segment positions of the floor of the segment's median
    /// release lag: the p50 lag of an undisturbed, loaded cycle. (A mean,
    /// like the sums above, so that one position's luck averages out.)
    pub fn lag_p50_ms(&self) -> f64 {
        let floors = self.floors(|s| s.lag_p50_ms);
        floors.iter().sum::<f64>() / floors.len() as f64
    }

    /// A percentile over every slide of every saturated phase (no floor).
    pub fn lag_ms(&self, p: f64) -> f64 {
        let all: Vec<f64> = self
            .incarnations
            .iter()
            .flat_map(|i| i.lags_ms.iter().copied())
            .collect();
        percentile(&all, p)
    }

    /// Share of server CPU spent in the front process (the router).
    pub fn front_cpu_share(&self) -> f64 {
        let (front, all) = self
            .all_cycles()
            .flatten()
            .fold((0u64, 0u64), |(f, a), s| (f + s.front_cpu_ns, a + s.cpu_ns));
        front as f64 / all as f64
    }

    pub fn lowest_of(&self, f: impl Fn(&Incarnation) -> f64) -> f64 {
        self.incarnations
            .iter()
            .map(f)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn median_of(&self, f: impl Fn(&Incarnation) -> f64) -> f64 {
        median(&self.incarnations.iter().map(f).collect::<Vec<_>>())
    }

    /// The five end-to-end metrics, in `spec::END_TO_END` order.
    pub fn end_to_end(&self, w: &Workload) -> [f64; 5] {
        [
            self.lowest_of(|i| i.setup_s),
            self.tx_per_s(w),
            self.lag_p50_ms(),
            self.cpu_s_per_mtx(w),
            self.median_of(|i| i.peak_rss_mib),
        ]
    }
}

struct Checker {
    tally: Tally,
    first_failure: Option<String>,
}

impl Checker {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !self.tally.check(ok) && self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// The live per-slide digests of each key against the oracle's, from
    /// absolute release `base` on, for as many slides as the oracle covers.
    fn check_digests(&mut self, what: &str, live: &[Vec<u64>], oracle: &Oracle, base: usize) {
        for (k, (got, want)) in live.iter().zip(&oracle.keys).enumerate() {
            let want = want.slide_digests.get(base..).unwrap_or(&[]);
            let n = got.len().min(want.len());
            self.check(n > 0, || format!("{what}: key {k} has nothing to compare"));
            for i in 0..n {
                self.check(got[i] == want[i], || {
                    format!(
                        "{what}: key {k} release {} differs from the oracle",
                        base + i
                    )
                });
            }
        }
    }
}

/// Run `incarnations` incarnations of `w` on the inputs of `seed`.
pub fn run_workload(
    env: &Env,
    w: &Workload,
    seed: u64,
    budget: Budget,
    incarnations: usize,
) -> Result<RunResult, String> {
    let data = data::generate(w, seed);
    let seeded = if w.durable { w.seed_cycles } else { 0 };
    // The oracle covers the stream through the end of set-up.
    let oracle = oracle::replay(w, &data, seeded + budget.warm_cycles, 0, w.durable);
    let mut chk = Checker {
        tally: Tally::default(),
        first_failure: None,
    };
    chk.check(oracle.audit_violations == 0, || {
        format!("audit_release found {} violations", oracle.audit_violations)
    });

    // Durable: an untimed incarnation writes the log the timed ones recover.
    let mut seeded_releases = 0;
    let seed_wal = if w.durable {
        let wal = TempDir::new(&env.out, "wal-seed");
        let cluster = Cluster::spawn(&env.bin, env.cpus, w, &env.out, Some(wal.path()))?;
        let mut live = Live::attach(w, &data, cluster, 0, false)?;
        live.fill()?;
        for _ in 0..seeded {
            live.cycle()?;
        }
        chk.tally.add(live.tally);
        let mut sub = live.kill();
        // SIGKILL lands right after the last release's first frame; the
        // snapshot frame that may follow it is not owed to anyone.
        for digests in &mut sub.slide_digests {
            digests.pop();
        }
        chk.check_digests("seeding", &sub.slide_digests, &oracle, 0);
        seeded_releases = 1 + seeded * w.slides_per_cycle();
        Some(wal)
    } else {
        None
    };

    let mut done = Vec::new();
    let mut stream_digests: Vec<Vec<Vec<u64>>> = Vec::new();
    for n in 0..incarnations {
        let wal = match &seed_wal {
            Some(seed_wal) => {
                let wal = TempDir::new(&env.out, "wal");
                copy_tree(seed_wal.path(), wal.path()).map_err(|e| format!("copy wal: {e}"))?;
                Some(wal)
            }
            None => None,
        };
        let (mut inc, fin) = incarnate(env, w, &data, wal.as_ref().map(TempDir::path), budget)?;
        if w.durable {
            let frames = std::mem::take(&mut inc.catchup_frames);
            check_catchup(&mut chk, &frames, &fin.subscriber.frames, &oracle);
        }
        chk.tally.add(fin.tally);
        if let Some(e) = &fin.subscriber.error {
            chk.check(false, || format!("incarnation {n}: {e}"));
        }
        chk.check_digests(
            &format!("incarnation {n}"),
            &fin.subscriber.slide_digests,
            &oracle,
            seeded_releases,
        );
        let expected = inc.slides_released;
        for (k, d) in fin.subscriber.slide_digests.iter().enumerate() {
            chk.check(d.len() == expected, || {
                format!(
                    "incarnation {n}: key {k} got {} releases for {expected} slides",
                    d.len()
                )
            });
        }
        chk.check(fin.subscriber.closed_events == w.keys, || {
            format!(
                "incarnation {n}: {} closed events",
                fin.subscriber.closed_events
            )
        });
        chk.check(shard_sum(&fin.stats, "shed") == Some(0), || {
            format!("incarnation {n}: shed is not 0 in {}", fin.stats)
        });
        stream_digests.push(fin.subscriber.slide_digests);
        done.push(inc);
    }
    // Same bytes in, same bytes out: every incarnation's stream of release
    // digests must equal the first's, over the slides both lived to see (a
    // capped phase is shorter).
    for (n, d) in stream_digests.iter().enumerate().skip(1) {
        for (mine, first) in d.iter().zip(&stream_digests[0]) {
            let common = mine.len().min(first.len());
            chk.check(mine[..common] == first[..common], || {
                format!("incarnation {n}: release stream differs from incarnation 0")
            });
        }
    }
    Ok(RunResult {
        incarnations: done,
        tally: chk.tally,
        first_failure: chk.first_failure,
    })
}

/// Sum of one per-shard counter over every shard of every node in a `stats`
/// document.
pub fn shard_sum(stats: &Json, field: &str) -> Option<u64> {
    node_docs(stats)
        .iter()
        .map(|doc| {
            doc.get("per_shard")?
                .as_array()?
                .iter()
                .map(|s| s.get(field)?.as_u64())
                .sum::<Option<u64>>()
        })
        .sum()
}

fn incarnate(
    env: &Env,
    w: &Workload,
    data: &Dataset,
    wal: Option<&Path>,
    budget: Budget,
) -> Result<(Incarnation, Finished), String> {
    let start_req = if w.durable {
        w.fill_slides() + w.seed_cycles * w.slides_per_cycle()
    } else {
        0
    };
    // Set-up: first spawn (on the killed log, when durable) to the end of
    // the warm cycles.
    let t0 = Instant::now();
    let cluster = Cluster::spawn(&env.bin, env.cpus, w, &env.out, wal)?;
    let mut live = Live::attach(w, data, cluster, start_req, w.durable)?;
    if !w.durable {
        live.fill()?;
    }
    for _ in 0..budget.warm_cycles {
        live.cycle()?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    live.take_lags();
    let send0 = live.send_ns;

    // Saturated phase.
    let phase = Instant::now();
    let mut cycles = Vec::with_capacity(budget.cycles);
    while cycles.len() < budget.cycles
        && (cycles.len() < MIN_CYCLES || phase.elapsed().as_secs_f64() < budget.phase_cap_s)
    {
        cycles.push(live.cycle()?);
    }
    let lags_ms = live.take_lags();
    let send_ns = live.send_ns - send0;

    let mut paced = Vec::new();
    if let Some(secs) = budget.ladder_rung_s {
        for share in [0.25, 0.50, 0.75] {
            paced.push(live.paced(w.committed_tx_per_s * share, secs)?);
        }
    }
    // Every request from the one that filled the window on owes a release.
    let slides_released = live.position() - start_req.max(w.fill_slides() - 1);

    let catchup_read = if w.durable {
        let last_len = (w.window + (live.position() - w.fill_slides()) * w.every) as u64;
        Some(live.catchup_read(last_len)?)
    } else {
        None
    };
    let fin = live.finish()?;
    let (catchup_frames, catchup) = match catchup_read {
        Some((frames, took)) => {
            let timed = (frames.len(), took);
            (frames, Some(timed))
        }
        None => (Vec::new(), None),
    };
    let inc = Incarnation {
        setup_s,
        cycles,
        lags_ms,
        peak_rss_mib: fin.peak_rss_mib,
        send_ns,
        paced,
        slides_released,
        stats: fin.stats.clone(),
        decode_ns: fin.subscriber.decode_ns,
        releases: fin
            .subscriber
            .slide_digests
            .iter()
            .map(|d| d.len() as u64)
            .sum(),
        catchup,
        catchup_frames,
    };
    Ok((inc, fin))
}

/// Every release the log served must equal what subscribers saw when it was
/// published: byte for byte against the live snapshot frame of the same
/// position (or the oracle's, for history older than this incarnation's
/// subscription), and entry for entry against the state the live deltas
/// reconstruct.
fn check_catchup(chk: &mut Checker, catchup: &[Vec<u8>], live: &[Vec<u8>], oracle: &Oracle) {
    let live_snapshots: HashMap<u64, &[u8]> = live
        .iter()
        .filter_map(|f| Some((release_len(f)?, f.as_slice())))
        .collect();
    let oracle_snapshots: HashMap<u64, &[u8]> = oracle.keys[0]
        .snapshots
        .iter()
        .map(|(len, bytes)| (*len, bytes.as_slice()))
        .collect();
    let event_of = |frame: &[u8]| -> Option<Json> {
        let mut codec = FrameCodec::new();
        codec.extend(frame);
        match codec.next_frame().ok()?? {
            Frame::Binary(b) => binary_event_json(&b),
            Frame::Json(_) => None,
        }
    };
    // The state live deltas reconstruct, at every position they reach.
    let mut reconstructed = HashMap::new();
    let mut state = SubscriberState::new();
    for frame in live {
        let ok = event_of(frame).is_some_and(|ev| state.observe(&ev).is_ok());
        chk.check(ok, || "live feed does not reconstruct".to_string());
        if let Some(len) = state.stream_len() {
            reconstructed
                .entry(len)
                .or_insert_with(|| state.entries().clone());
        }
    }
    chk.check(!catchup.is_empty(), || {
        "catch-up read returned nothing".to_string()
    });
    let mut prev = 0;
    for frame in catchup {
        let Some(len) = release_len(frame) else {
            chk.check(false, || "catch-up frame is not a release".to_string());
            continue;
        };
        chk.check(len > prev, || {
            format!("catch-up position {len} out of order")
        });
        prev = len;
        let mut compared = false;
        for (name, known) in [("live", &live_snapshots), ("oracle", &oracle_snapshots)] {
            if let Some(bytes) = known.get(&len) {
                compared = true;
                chk.check(*bytes == frame.as_slice(), || {
                    format!("catch-up release at {len} differs from the {name} snapshot")
                });
            }
        }
        if let Some(entries) = reconstructed.get(&len) {
            compared = true;
            let mut one = SubscriberState::new();
            let ok = event_of(frame).is_some_and(|ev| one.observe(&ev).is_ok());
            chk.check(ok && one.entries() == entries, || {
                format!("catch-up release at {len} differs from the live reconstruction")
            });
        }
        chk.check(compared, || {
            format!("catch-up release at {len} has nothing to be compared with")
        });
    }
}

/// One incarnation in a line, for the human-readable log.
pub fn describe(w: &Workload, inc: &Incarnation) -> String {
    let walls: Vec<f64> = inc
        .cycles
        .iter()
        .map(|c| c.iter().map(|s| s.wall_ns as f64).sum::<f64>() / 1e9)
        .collect();
    let rate = |secs: f64| w.tx_per_cycle() as f64 / secs;
    format!(
        "setup {:.3}s  {} cycles  best {:.0} tx/s  median {:.0}  worst {:.0}  rss {:.2} MiB",
        inc.setup_s,
        walls.len(),
        rate(walls.iter().copied().fold(f64::INFINITY, f64::min)),
        rate(median(&walls)),
        rate(walls.iter().copied().fold(0.0, f64::max)),
        inc.peak_rss_mib
    )
}
