//! Micro-benchmarks for the mining substrate: the batch miner against its
//! reference on a fixed window, Moment settled every slide and at the
//! served cadences, and FP-stream batch ingestion.

use bfly_bench::bench;
use bfly_common::{Database, SlidingWindow};
use bfly_datagen::DatasetProfile;
use bfly_mining::{Apriori, Eclat, FpStream, FpStreamConfig, MinerBackend, MomentMiner};

fn window_db(n: usize) -> Database {
    let txs = DatasetProfile::WebView1.source(11).take_vec(n);
    Database::from_records(txs)
}

fn bench_static_miners() {
    let db = window_db(2000);
    for &min_support in &[50u64, 25] {
        bench(&format!("static_mine_2000/apriori/{min_support}"), || {
            Apriori::new(min_support).mine(&db)
        });
        bench(&format!("static_mine_2000/eclat/{min_support}"), || {
            Eclat::new(min_support).mine(&db)
        });
    }
}

/// Moment's steady-state per-slide cost: one delete + one insert + settle +
/// extraction, through the `MinerBackend` interface.
fn bench_backend_slide() {
    let ws = 1000usize;
    let mut source = DatasetProfile::WebView1.source(23);
    let mut window = SlidingWindow::new(ws);
    let mut miner = MomentMiner::new(25);
    for _ in 0..ws {
        miner.apply(&window.slide(source.next_transaction()));
    }
    bench("backend_slide_1000/moment", || {
        let delta = window.slide(source.next_transaction());
        miner.apply(&delta);
        miner.closed_frequent()
    });
}

/// Moment at a served cadence: `every` departures and arrivals by tid, then
/// one settle and the closed-set read-out, as a shard publishes (compare
/// `backend_slide_1000/moment`, which settles every slide). The stream is
/// generated up front and replayed in a loop, so only the miner is timed.
fn bench_moment_interval() {
    for (name, profile, window, c, every) in [
        ("pos_w500_c20_every250", DatasetProfile::Pos, 500, 20, 250),
        (
            "webview1_w2000_c25_every100",
            DatasetProfile::WebView1,
            2000,
            25,
            100,
        ),
    ] {
        let stream = profile.source(23).take_vec(20 * window);
        let items = |tid: u64| stream[tid as usize % stream.len()].items().items();
        let window = window as u64;
        let mut miner = MomentMiner::new(c);
        for tid in 1..=window {
            miner.insert(tid, items(tid));
        }
        let mut tid = window;
        bench(&format!("moment_interval/{name}"), || {
            for _ in 0..every {
                tid += 1;
                miner.remove(tid - window);
                miner.insert(tid, items(tid));
            }
            miner.settle();
            miner.closed_frequent()
        });
    }
}

fn bench_fpstream_batch() {
    let mut source = DatasetProfile::WebView1.source(31);
    bench("fpstream_batch_500", || {
        let batch = source.take_vec(500);
        let mut fps = FpStream::new(FpStreamConfig {
            batch_size: 500,
            sigma: 0.05,
            epsilon: 0.01,
        });
        for t in batch {
            fps.push(t);
        }
        fps.batches()
    });
}

fn main() {
    bench_static_miners();
    bench_backend_slide();
    bench_moment_interval();
    bench_fpstream_batch();
}
