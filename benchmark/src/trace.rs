//! Per-layer tracing, from the benchmark's own files.
//!
//! One period of the workload is replayed in-process *in hop order*, calling
//! each layer's public functions directly, with a span recorded round every
//! call: name, start, end, the span that caused it, the slide it belongs to.
//! Spans stay in memory and are written to `benchmark/out/trace-<w>.json`
//! when the replay ends. A layer's self time is its span minus the part its
//! children cover. The replay's release bytes must equal the oracle's, or it
//! measured a different computation and the trace is refused.

use crate::data::{two_node_map, Dataset, StreamData};
use crate::oracle::publication_frames;
use crate::spec::Workload;
use bfly_common::hash::Fnv1a;
use bfly_common::{
    BinaryEntry, BinaryFrame, Frame, FrameCodec, ItemSet, Json, SlidingWindow, Transaction,
};
use bfly_core::{audit_release, DefenseKind, Publisher, WindowRelease};
use bfly_inference::GroundTruth;
use bfly_mining::{MinerBackend, MomentMiner};
use bfly_serve::config::stream_seed;
use bfly_serve::protocol::catchup_release_frame_bytes;
use bfly_serve::wal::record::SnapshotEntry;
use bfly_serve::wal::{recover_shard, scan_catchup, StreamSnapshot, WalRecord, WalWriter};
use bfly_serve::{ClusterMap, Request, ServeConfig, WalConfig, WalStats, WalSyncPolicy};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Span names: the layer (module path) plus the call.
pub mod names {
    pub const SLIDE: &str = "slide";
    pub const FRAME_DECODE: &str = "common.frame.decode";
    pub const FRAME_ENCODE: &str = "common.frame.encode";
    pub const REQUEST_PARSE: &str = "serve.protocol.request_parse";
    pub const OWNER_OF: &str = "serve.placement.owner_of";
    pub const WINDOW_SLIDE: &str = "common.window.slide";
    pub const MOMENT_APPLY: &str = "mining.moment.apply";
    pub const MOMENT_CLOSED: &str = "mining.moment.closed_frequent";
    pub const TRUTH_APPLY: &str = "inference.truth.apply";
    pub const TRUTH_SEED: &str = "inference.truth.seed";
    pub const PUBLISH: &str = "core.defense.publish";
    pub const AUDIT: &str = "core.audit.audit";
    pub const ENCODE_RELEASE: &str = "serve.protocol.encode_release";
    pub const WAL_APPEND: &str = "serve.wal.append";
    pub const WAL_SYNC: &str = "serve.wal.sync";
}
use names::*;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub slide: u32,
}

/// In-memory span recorder. Switched off, `enter`/`exit` read no clock: the
/// same replay with spans off is the baseline the tracing overhead is
/// measured against.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, slide: u32) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            slide,
        });
        self.stack.push(id);
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Self time (ns) per name over one period, and spans of that name per
    /// period. Slides `first..` are whole periods of `per_period` slides;
    /// slide position `p` is the same work in every period, so each
    /// (name, position) cell is the lowest self time any period showed —
    /// the floor, as for the end-to-end numbers. Names in `averaged` are
    /// summed over all periods and divided by their number instead (the
    /// log's fsyncs do not fall on the same slides every period).
    pub fn self_floors(
        &self,
        first: u32,
        per_period: u32,
        averaged: &[&str],
    ) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        // (name, position) -> self ns per period
        let mut cells: BTreeMap<(&'static str, u32), BTreeMap<u32, u64>> = BTreeMap::new();
        let mut spans_of: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut periods = 0u32;
        for (s, children) in self.spans.iter().zip(child_ns) {
            if s.slide < first {
                continue;
            }
            let (period, pos) = (
                (s.slide - first) / per_period,
                (s.slide - first) % per_period,
            );
            periods = periods.max(period + 1);
            *cells
                .entry((s.name, pos))
                .or_default()
                .entry(period)
                .or_default() += s.end_ns - s.start_ns - children;
            *spans_of.entry(s.name).or_default() += 1;
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for ((name, _), by_period) in cells {
            let ns = if averaged.contains(&name) {
                by_period.values().sum::<u64>() as f64 / periods as f64
            } else if by_period.len() < periods as usize {
                0.0 // a position that did no such work in some period
            } else {
                *by_period.values().min().expect("a period") as f64
            };
            out.entry(name).or_insert((0.0, 0.0)).0 += ns;
        }
        for (name, n) in spans_of {
            out.entry(name).or_insert((0.0, 0.0)).1 = n as f64 / periods as f64;
        }
        out
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"slide\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.slide
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

/// One stream's layers, held apart so each can be called on its own — the
/// same parts `StreamPipeline` and the shard worker hold together.
struct KeyLayers<'a> {
    stream: &'a StreamData,
    window: SlidingWindow,
    miner: MomentMiner,
    truth: GroundTruth,
    publisher: Publisher,
    since_publish: usize,
    published: u64,
    last_len: u64,
    opened: bool,
}

/// What the replay counted, beyond its spans.
#[derive(Default)]
pub struct Counts {
    pub tx: u64,
    pub windows: u64,
    pub itemsets: u64,
    pub fecs: u64,
    pub release_bytes: u64,
    pub audit_violations: u64,
    pub wal_records: u64,
    pub wal_syncs: u64,
}

pub struct Replay {
    pub tracer: Tracer,
    /// Counts over the last period only.
    pub counts: Counts,
    /// First slide number (over all keys) of the measured periods: all but
    /// the first after the fill.
    pub measured_from: u32,
    /// Slides (over all keys) per period.
    pub period_slides: u32,
    /// Wall time of the fastest measured period, ns.
    pub period_floor_ns: u64,
    pub cet_nodes: usize,
    pub engine: bfly_core::engine::EngineStats,
    /// Per key, one digest per release slide (as the subscriber computes it).
    pub slide_digests: Vec<Vec<u64>>,
}

fn binary_entries(release: &WindowRelease) -> Vec<BinaryEntry> {
    release
        .release
        .iter()
        .map(|e| BinaryEntry {
            ids: e.itemset().items().iter().map(|i| i.id()).collect(),
            support: e.sanitized,
        })
        .collect()
}

/// Replay fill + `cycles` periods through the separated layers, in hop
/// order. The first period warms; the rest are measured. `wal_dir` adds the
/// log's write points (the durable workload's path).
pub fn replay(
    w: &Workload,
    data: &Dataset,
    cycles: usize,
    spans_on: bool,
    wal_dir: Option<&Path>,
) -> Result<Replay, String> {
    let cfg = w.serve_config(None);
    let mode = w.frame_mode();
    let map = if w.routed {
        two_node_map()
    } else {
        ClusterMap::single(1)
    };
    // The sync policy is applied by hand so the append and the fsync get a
    // span each.
    let mut wal = match wal_dir {
        Some(dir) => {
            let policy = w.serve_config(Some(dir)).wal.expect("wal").sync;
            let writer = WalWriter::open(
                dir,
                0,
                WalConfig {
                    sync: WalSyncPolicy::Never,
                    ..WalConfig::new(dir)
                },
                cfg.snapshot_every,
                Arc::new(WalStats::default()),
                Default::default(),
            )
            .map_err(|e| format!("open trace wal: {e}"))?;
            Some(TracedWal {
                writer,
                appended: 0,
                sync_every: match policy {
                    WalSyncPolicy::Interval(n) => n as u64,
                    WalSyncPolicy::Always => 1,
                    WalSyncPolicy::Never => u64::MAX,
                },
            })
        }
        None => None,
    };

    let mut keys: Vec<KeyLayers> = data
        .streams
        .iter()
        .map(|stream| KeyLayers {
            stream,
            window: SlidingWindow::new(cfg.window),
            miner: MomentMiner::new(cfg.c),
            truth: GroundTruth::new(cfg.window),
            publisher: Publisher::new_incremental(
                cfg.spec(),
                cfg.scheme,
                stream_seed(cfg.seed, &stream.key),
            ),
            since_publish: 0,
            published: 0,
            last_len: 0,
            opened: false,
        })
        .collect();

    assert!(cycles >= 2, "one warm period, at least one measured");
    let total = w.fill_slides() + cycles * w.slides_per_cycle();
    let measured_first = w.fill_slides() + w.slides_per_cycle();
    let last_first = total - w.slides_per_cycle();
    let mut out = Replay {
        tracer: Tracer::new(spans_on),
        counts: Counts::default(),
        measured_from: (measured_first * data.streams.len()) as u32,
        period_slides: (w.slides_per_cycle() * data.streams.len()) as u32,
        period_floor_ns: u64::MAX,
        cet_nodes: 0,
        engine: Default::default(),
        slide_digests: vec![Vec::new(); data.streams.len()],
    };
    let mut period_start = Instant::now();
    let mut slide_no = 0u32;
    for slide in 0..total {
        if slide >= measured_first && (slide - measured_first).is_multiple_of(w.slides_per_cycle())
        {
            if slide > measured_first {
                out.period_floor_ns = out
                    .period_floor_ns
                    .min(period_start.elapsed().as_nanos() as u64);
            }
            period_start = Instant::now();
        }
        // Counts are per period: taken over the last one.
        let measured = slide >= last_first;
        for (k, key) in keys.iter_mut().enumerate() {
            let tr = &mut out.tracer;
            let request = &key.stream.requests[slide % w.slides_per_cycle()];
            tr.enter(SLIDE, slide_no);

            // Client edge: bytes off the socket become a request.
            let (stream, batch) = if w.json {
                tr.enter(REQUEST_PARSE, slide_no);
                let text = std::str::from_utf8(request).map_err(|e| e.to_string())?;
                let parsed = Json::parse(text.trim_end())
                    .and_then(|v| Request::from_json(&v))
                    .map_err(|e| format!("request parse: {e}"))?;
                tr.exit();
                match parsed {
                    Request::Ingest { stream, batch } => (stream, batch),
                    other => return Err(format!("not an ingest: {other:?}")),
                }
            } else {
                decode_ingest(tr, slide_no, request)?
            };
            tr.enter(OWNER_OF, slide_no);
            std::hint::black_box(map.owner_of(std::hint::black_box(&stream)));
            tr.exit();
            // The router re-encodes the batch as a binary frame for the
            // owning node, which decodes it again. Off the routed path the
            // encode is still priced (it is what a binary client pays).
            let frame = BinaryFrame::Ingest {
                stream: stream.clone(),
                batch: batch.clone(),
            };
            tr.enter(FRAME_ENCODE, slide_no);
            let forwarded = frame.encode();
            tr.exit();
            let (stream, batch) = if w.routed {
                decode_ingest(tr, slide_no, &forwarded)?
            } else {
                (stream, batch)
            };

            // Shard worker: log the chunk, then advance the pipeline.
            if !key.opened {
                key.opened = true;
                wal_append(
                    tr,
                    slide_no,
                    &mut wal,
                    &mut out.counts,
                    measured,
                    &WalRecord::Open {
                        stream: stream.clone(),
                        kind: DefenseKind::Butterfly,
                    },
                )?;
            }
            wal_append(
                tr,
                slide_no,
                &mut wal,
                &mut out.counts,
                measured,
                &WalRecord::Ingest {
                    stream: stream.clone(),
                    base: key.window.stream_len(),
                    batch: batch.clone(),
                },
            )?;
            let n = batch.len();
            tr.enter(WINDOW_SLIDE, slide_no);
            let deltas: Vec<_> = batch
                .into_iter()
                .map(|items| key.window.slide(Transaction::new(0, items)))
                .collect();
            tr.exit();
            tr.enter(MOMENT_APPLY, slide_no);
            for d in &deltas {
                key.miner.apply(d);
            }
            tr.exit();
            tr.enter(TRUTH_APPLY, slide_no);
            for d in &deltas {
                key.truth.apply(d);
            }
            tr.exit();
            key.since_publish += n;
            if measured {
                out.counts.tx += n as u64;
            }

            if key.window.is_full() && key.since_publish >= cfg.every {
                // Slides are `every` records and the window a whole number
                // of slides, so the cadence always fires on a slide's last
                // record — the same positions the shard worker publishes at.
                assert_eq!(
                    key.since_publish % cfg.every,
                    0,
                    "cadence off the slide edge"
                );
                key.since_publish = 0;
                tr.enter(MOMENT_CLOSED, slide_no);
                let closed = key.miner.closed_frequent();
                tr.exit();
                tr.enter(TRUTH_SEED, slide_no);
                key.truth
                    .seed_supports(closed.iter().map(|e| (e.id, e.support)));
                tr.exit();
                tr.enter(PUBLISH, slide_no);
                let (release, delta) = key.publisher.publish_with_delta(&closed);
                tr.exit();
                tr.enter(AUDIT, slide_no);
                let violations = audit_release(&cfg.spec(), &release).len() as u64;
                tr.exit();
                let release = WindowRelease {
                    stream_len: key.window.stream_len(),
                    closed,
                    release,
                    delta,
                };
                wal_append(
                    tr,
                    slide_no,
                    &mut wal,
                    &mut out.counts,
                    measured,
                    &WalRecord::Release {
                        stream: stream.clone(),
                        stream_len: release.stream_len,
                        entries: binary_entries(&release),
                    },
                )?;
                if cfg.snapshot_every <= 1 || key.published % cfg.snapshot_every as u64 == 0 {
                    let snapshot = StreamSnapshot {
                        stream: stream.clone(),
                        kind: DefenseKind::Butterfly,
                        stream_len: release.stream_len,
                        published: key.published + 1,
                        last_len: release.stream_len,
                        prev_release: release
                            .release
                            .iter()
                            .map(|e| SnapshotEntry {
                                ids: e.itemset().items().iter().map(|i| i.id()).collect(),
                                true_support: e.true_support,
                                sanitized: e.sanitized,
                            })
                            .collect(),
                        window: key
                            .window
                            .records()
                            .map(|t| t.items().items().iter().map(|i| i.id()).collect())
                            .collect(),
                    };
                    wal_append(
                        tr,
                        slide_no,
                        &mut wal,
                        &mut out.counts,
                        measured,
                        &WalRecord::Snapshot(snapshot),
                    )?;
                }
                tr.enter(ENCODE_RELEASE, slide_no);
                let frames =
                    publication_frames(&cfg, mode, &stream, key.published, key.last_len, &release);
                tr.exit();
                let mut hasher = Fnv1a::new();
                for f in &frames {
                    hasher.write(f);
                }
                out.slide_digests[k].push(hasher.finish());
                if measured {
                    out.counts.windows += 1;
                    out.counts.itemsets += release.release.len() as u64;
                    out.counts.fecs += release
                        .release
                        .iter()
                        .map(|e| e.true_support)
                        .collect::<HashSet<_>>()
                        .len() as u64;
                    out.counts.release_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
                    out.counts.audit_violations += violations;
                }
                key.published += 1;
                key.last_len = release.stream_len;
            }
            tr.exit();
            slide_no += 1;
        }
    }
    out.period_floor_ns = out
        .period_floor_ns
        .min(period_start.elapsed().as_nanos() as u64);
    if let Some(wal) = &mut wal {
        wal.writer
            .sync()
            .map_err(|e| format!("trace wal sync: {e}"))?;
    }
    out.cet_nodes = keys.iter().map(|k| k.miner.node_count()).sum();
    out.engine = keys[0].publisher.engine_stats();
    Ok(out)
}

fn decode_ingest(
    tr: &mut Tracer,
    slide_no: u32,
    bytes: &[u8],
) -> Result<(String, Vec<ItemSet>), String> {
    tr.enter(FRAME_DECODE, slide_no);
    let mut codec = FrameCodec::new();
    codec.extend(bytes);
    let frame = codec.next_frame();
    tr.exit();
    match frame {
        Ok(Some(Frame::Binary(BinaryFrame::Ingest { stream, batch }))) => Ok((stream, batch)),
        other => Err(format!("not a binary ingest frame: {other:?}")),
    }
}

/// The log under trace: the writer plus the sync policy applied by hand.
struct TracedWal {
    writer: WalWriter,
    appended: u64,
    sync_every: u64,
}

fn wal_append(
    tr: &mut Tracer,
    slide_no: u32,
    wal: &mut Option<TracedWal>,
    counts: &mut Counts,
    measured: bool,
    rec: &WalRecord,
) -> Result<(), String> {
    let Some(wal) = wal else { return Ok(()) };
    tr.enter(WAL_APPEND, slide_no);
    let r = wal.writer.append(rec);
    tr.exit();
    r.map_err(|e| format!("trace wal append: {e}"))?;
    wal.appended += 1;
    if measured {
        counts.wal_records += 1;
    }
    if wal.appended % wal.sync_every == 0 {
        tr.enter(WAL_SYNC, slide_no);
        let r = wal.writer.sync();
        tr.exit();
        r.map_err(|e| format!("trace wal sync: {e}"))?;
        if measured {
            counts.wal_syncs += 1;
        }
    }
    Ok(())
}

/// Read side of the log the replay wrote: recover it (re-executing and
/// verifying every logged release) and scan it for catch-up. Returns
/// `(recover ms per recovered window, catch-up us per window served)`.
pub fn wal_read_side(w: &Workload, data: &Dataset, wal_dir: &Path) -> Result<(f64, f64), String> {
    let cfg: ServeConfig = w.serve_config(Some(wal_dir));
    let wal_cfg = cfg.wal.clone().expect("wal");
    let key = &data.streams[0].key;
    let mode = w.frame_mode();
    let t0 = Instant::now();
    let caught = scan_catchup(wal_dir, 0, key, 0);
    let mut bytes = 0usize;
    for (len, entries) in &caught {
        bytes += catchup_release_frame_bytes(mode, key, *len, entries).len();
    }
    std::hint::black_box(bytes);
    let catchup_ns = t0.elapsed().as_nanos() as f64;
    if caught.is_empty() {
        return Err("catch-up scan found no release".into());
    }
    let stats = Arc::new(WalStats::default());
    let t0 = Instant::now();
    let recovered =
        recover_shard(&cfg, &wal_cfg, 0, &stats).map_err(|e| format!("recover trace wal: {e}"))?;
    let recover_ns = t0.elapsed().as_nanos() as f64;
    let windows = stats.recovered_windows.load(Ordering::Relaxed).max(1);
    drop(recovered);
    Ok((
        recover_ns / 1e6 / windows as f64,
        catchup_ns / 1e3 / caught.len() as f64,
    ))
}
