//! Heap allocations on the ingest path, counted: a warmed stream's ingest
//! frames, binary and NDJSON, are decoded, logged and advanced through the
//! pipeline as the connection, the shard worker and the miner do it, and
//! the whole path must stay under one allocation per twenty transactions —
//! the chunk's own buffers, not one allocation per transaction. Publication
//! is priced apart (`publish_us` in `stats`); what it is held to here is
//! the live heap: a publishing pipeline keeps only what its window and its
//! last release need, however many distinct itemsets the stream has shown.
//!
//! Its own test binary: the counting allocator is global to the binary.

use butterfly_repro::common::{BinaryFrame, FrameCodec, Inbound, ItemSet, Transaction};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::MomentMiner;
use butterfly_repro::serve::wal::WalWriter;
use butterfly_repro::serve::{Request, ServeConfig, WalConfig, WalStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed, and the most
    /// that difference reached since [`take_peak`] last read it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so concurrently running tests
/// cannot disturb the count.
struct Counting;

fn count(grown: i64) {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    live(grown);
}

fn live(grown: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are const-initialized thread-local `Cell`s, which neither allocate nor
// need a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The peak of this thread's live bytes since the last call, restarting
/// the peak at the bytes live now.
fn take_peak() -> i64 {
    let now = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.replace(now))
}

#[test]
fn warmed_ingest_path_allocates_per_chunk_not_per_transaction() {
    // The durable ingest shape: WebView1, W 2000, C 400, chunks of 250,
    // sent as binary frames and as NDJSON lines.
    let cfg = ServeConfig {
        shards: 1,
        window: 2000,
        c: 400,
        k: 5,
        epsilon: 0.016,
        delta: 0.4,
        every: 250,
        ..ServeConfig::default()
    };
    let batches: Vec<Vec<ItemSet>> = DatasetProfile::WebView1
        .source(3)
        .take_vec(80_000)
        .chunks(cfg.every)
        .map(|part| part.iter().map(|t| t.items().clone()).collect())
        .collect();
    let binary: Vec<Vec<u8>> = batches
        .iter()
        .map(|batch| {
            BinaryFrame::Ingest {
                stream: "k".into(),
                batch: batch.clone(),
            }
            .encode()
        })
        .collect();
    let ndjson: Vec<Vec<u8>> = batches
        .iter()
        .map(|batch| {
            let req = Request::Ingest {
                stream: "k".into(),
                batch: batch.clone(),
            };
            format!("{}\n", req.to_json()).into_bytes()
        })
        .collect();
    for (name, frames) in [("binary", &binary), ("ndjson", &ndjson)] {
        let per_tx = warmed_allocs_per_tx(&cfg, name, frames);
        assert!(
            per_tx < 0.05,
            "{name}: {per_tx:.3} heap allocations per transaction over 40 000 transactions"
        );
    }
}

/// Heap allocations per transaction of ingests 161–320 of `frames`, each
/// decoded by `next_inbound`, logged and advanced through a pipeline.
fn warmed_allocs_per_tx(cfg: &ServeConfig, name: &str, frames: &[Vec<u8>]) -> f64 {
    let dir = std::env::temp_dir().join(format!("bfly-ingest-alloc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut codec = FrameCodec::new();
    let mut log = WalWriter::open(
        &dir,
        0,
        WalConfig::new(&dir),
        cfg.snapshot_every,
        Arc::new(WalStats::default()),
        Default::default(),
    )
    .expect("open wal");
    let mut pipe = cfg.pipeline_for("k");

    // Twenty windows warm every reused buffer: the codec's, the log's, and
    // the code list of each of Moment's ring slots, which grows only when
    // the slot meets a transaction longer than any it held (the slow part:
    // 0.17 allocations per transaction after one window, 0.04 after
    // fifteen). The next twenty windows are counted; what Moment still
    // allocates there is amortized per window (re-deriving its item order
    // once per turnover rebuilds the tree).
    let (warm, counted) = frames.split_at(160);
    let mut ingest = |frame: &[u8]| {
        codec.extend(frame);
        let Some(Inbound::Ingest { stream, chunk }) = codec.next_inbound().expect("decodes") else {
            panic!("not an ingest frame");
        };
        log.append_ingest(&stream, pipe.stream_len(), &chunk)
            .expect("wal append");
        for items in chunk.iter() {
            pipe.advance_items(items);
        }
        chunk.len() as u64
    };
    for frame in warm {
        ingest(frame);
    }
    let before = allocs();
    let tx: u64 = counted.iter().map(|f| ingest(f)).sum();
    let per_tx = (allocs() - before) as f64 / tx as f64;
    assert_eq!(tx, 40_000);
    let _ = std::fs::remove_dir_all(&dir);
    per_tx
}

#[test]
fn warmed_moment_settling_every_chunk_allocates_per_turnover_not_per_node() {
    // Moment as a shard drives it on the same stream: by tid, settled once
    // per 250 arrivals. The settle walk's queue, occurrence buckets and
    // touch lists are reused from one settle to the next, and the re-rank
    // rebuilds into the arena's old records, so after the same warm-up what
    // is left is a few tables per turnover. At C 25 (the publication
    // contract's; at the ingest test's C 400 the tree has ~160 nodes and
    // the walk visits almost none) one allocation per node the walk visits
    // would read ≈ 0.4 here.
    const W: u64 = 2000;
    let stream = DatasetProfile::WebView1.source(3).take_vec(80_000);
    let mut miner = MomentMiner::new(25);
    let mut tid = 0u64;
    let mut feed = |part: &[Transaction]| {
        for t in part {
            tid += 1;
            if tid > W {
                miner.remove(tid - W);
            }
            miner.insert(tid, t.items().items());
        }
        miner.settle();
        part.len() as u64
    };
    let (warm, counted) = stream.split_at(40_000);
    warm.chunks(250).for_each(|part| {
        feed(part);
    });
    let before = allocs();
    let tx: u64 = counted.chunks(250).map(&mut feed).sum();
    let per_tx = (allocs() - before) as f64 / tx as f64;
    assert!(
        per_tx < 0.05,
        "{per_tx:.3} heap allocations per transaction over {tx} transactions"
    );
}

#[test]
fn warmed_moment_rebuilding_at_every_settle_allocates_less_than_once_a_settle() {
    // The `mine_pos` shape: POS, W 500, C 20, settled every 250 arrivals, so
    // each settle's queue holds a whole window and the settle rebuilds the
    // tree. The rebuild renumbers the codes, re-slots the bitmaps and
    // re-explores into the tables and records the last one filled, each
    // node into a free record whose buffer it fits. What is left allocates
    // only when the tree outgrows every tree before it, which grows rarer
    // as the stream goes on: 1.6 allocations per settle over the 40 settles
    // after 40 000 transactions, 0.05 after 80 000.
    const W: u64 = 500;
    let stream = DatasetProfile::Pos.source(3).take_vec(120_000);
    let mut miner = MomentMiner::new(20);
    let feed = |miner: &mut MomentMiner, txs: &[Transaction], mut tid: u64| {
        for part in txs.chunks(250) {
            for t in part {
                tid += 1;
                if tid > W {
                    miner.remove(tid - W);
                }
                miner.insert(tid, t.items().items());
            }
            miner.settle();
        }
    };
    let (warm, counted) = stream.split_at(80_000);
    feed(&mut miner, warm, 0);
    let (before, rebuilds) = (allocs(), miner.rebuilds());
    feed(&mut miner, counted, warm.len() as u64);
    let settles = counted.len() as u64 / 250;
    assert_eq!(miner.rebuilds() - rebuilds, settles, "a settle walked");
    let per_settle = (allocs() - before) as f64 / settles as f64;
    assert!(
        per_settle < 1.0,
        "{per_settle:.2} heap allocations per settle over {settles} settles"
    );
}

#[test]
fn live_heap_is_bounded_by_live_state_on_a_drifting_stream() {
    // The serve contract (W 2000, C 25, published every 100) over a
    // WebView1 stream whose item ids move to a fresh range every window, so
    // the closed sets keep being new ones: 2·10⁵ transactions, about 2 000
    // publications of itemsets no release will show again. What the
    // pipeline holds is its window, its miner and the previous release, so
    // once the drift is under way the heap stops growing; a store that kept
    // every itemset ever published would grow with each window.
    const TX: usize = 200_000;
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let mut pipe = cfg.pipeline_for("k");
    let mut source = DatasetProfile::WebView1.source(7);
    // WebView1 draws from 497 item ids.
    let shift = |i: usize| (i / cfg.window) as u32 * 512;
    let mut peaks = Vec::with_capacity(TX / cfg.every);
    take_peak();
    for i in 0..TX {
        let t = source.next_transaction();
        let items = ItemSet::from_ids(t.items().iter().map(|item| item.id() + shift(i)));
        pipe.advance_items(items.items());
        if pipe.due(cfg.every) {
            pipe.publish_now().expect("the contract holds");
            peaks.push(take_peak());
        }
    }
    assert_eq!(pipe.audit_violations(), 0);
    let quarter = peaks.len() / 4;
    let peak_of = |q: usize| *peaks[q * quarter..(q + 1) * quarter].iter().max().unwrap();
    let (second, last) = (peak_of(1), peak_of(3));
    assert!(
        last as f64 <= 1.25 * second as f64,
        "live heap grew with history: peak {last} B over the last quarter of {} \
         publications, {second} B over the second",
        peaks.len()
    );
}
