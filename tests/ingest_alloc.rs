//! Heap allocations on the ingest path, counted: a warmed stream's binary
//! ingest frames are decoded, logged and advanced through the pipeline as
//! the connection, the shard worker and the miner do it, and the whole path
//! must stay under one allocation per twenty transactions — the chunk's own
//! buffers, not one allocation per transaction. Publication is priced
//! apart (`publish_us` in `stats`) and is not driven here.
//!
//! Its own test binary: the counting allocator is global to the binary.

use butterfly_repro::common::{BinaryFrame, FrameCodec, Inbound, ItemSet, Transaction};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::MomentMiner;
use butterfly_repro::serve::wal::WalWriter;
use butterfly_repro::serve::{ServeConfig, WalConfig, WalStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so concurrently running tests
/// cannot disturb the count.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a const-initialized thread-local `Cell`, which neither allocates nor
// needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warmed_ingest_path_allocates_per_chunk_not_per_transaction() {
    // The durable ingest shape: WebView1, W 2000, C 400, chunks of 250.
    let dir = std::env::temp_dir().join(format!("bfly-ingest-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
    let frames: Vec<Vec<u8>> = DatasetProfile::WebView1
        .source(3)
        .take_vec(80_000)
        .chunks(cfg.every)
        .map(|part| {
            let batch: Vec<ItemSet> = part.iter().map(|t| t.items().clone()).collect();
            BinaryFrame::Ingest {
                stream: "k".into(),
                batch,
            }
            .encode()
        })
        .collect();
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
    assert!(
        per_tx < 0.05,
        "{per_tx:.3} heap allocations per transaction over {tx} transactions"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
