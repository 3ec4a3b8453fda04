//! Micro-benchmarks: per-window cost of each Butterfly scheme as the number
//! of published FECs grows (the quantity that dominates the optimized
//! variants — see Fig 8's analysis), and Algorithm 1 alone, on a synthetic
//! chain and on chains mined at the two served contracts.

use bfly_bench::bench;
use bfly_common::ItemSet;
use bfly_core::fec::{partition_into_fecs, Fec};
use bfly_core::order::order_preserving_biases;
use bfly_core::{BiasScheme, PrivacySpec, PublicationHistory, Publisher};
use bfly_datagen::DatasetProfile;
use bfly_mining::{FrequentItemsets, MinerBackend, MomentMiner};
use std::time::{Duration, Instant};

/// A mining result with roughly `n` FECs (supports drawn deterministically
/// with quadratic spacing so FEC density resembles real windows: clustered
/// low supports, sparse high ones).
fn synthetic_output(n_itemsets: usize) -> FrequentItemsets {
    FrequentItemsets::new((0..n_itemsets).map(|i| {
        let support = 25 + ((i * i) / n_itemsets.max(1)) as u64 + (i % 7) as u64;
        (ItemSet::from_ids([i as u32]), support)
    }))
}

fn bench_schemes() {
    let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
    for &n in &[50usize, 200, 800] {
        let output = synthetic_output(n);
        for scheme in BiasScheme::paper_variants(2) {
            let mut publisher = Publisher::new(spec, scheme, 7);
            let label = format!(
                "publish/{}/{n}",
                scheme.name().to_string().replace(' ', "_")
            );
            // An empty history, so every iteration pays the full
            // perturbation cost.
            let history = PublicationHistory::default();
            bench(&label, || publisher.publish(&output, &history));
        }
    }
}

fn bench_order_dp_gamma() {
    let spec = PrivacySpec::new(25, 5, 0.4, 1.0); // roomy budget → wide grids
    let output = synthetic_output(300);
    let fecs = partition_into_fecs(&output);
    for gamma in [1usize, 2, 3] {
        bench(&format!("order_dp/{gamma}"), || {
            order_preserving_biases(&fecs, &spec, gamma)
        });
    }
}

/// The FEC chains a shard publishing `profile` at a served contract hands
/// Algorithm 1: Moment over a window of `window` transactions, settled and
/// read out every `every` arrivals once the window is full, `chains` times.
fn mined_chains(
    profile: DatasetProfile,
    window: u64,
    c: u64,
    every: u64,
    chains: usize,
) -> Vec<Vec<Fec>> {
    let stream = profile
        .source(23)
        .take_vec((window + every * chains as u64) as usize);
    let items = |tid: u64| stream[tid as usize - 1].items().items();
    let mut miner = MomentMiner::new(c);
    for tid in 1..=window {
        miner.insert(tid, items(tid));
    }
    let mut tid = window;
    (0..chains)
        .map(|_| {
            for _ in 0..every {
                tid += 1;
                miner.remove(tid - window);
                miner.insert(tid, items(tid));
            }
            miner.settle();
            partition_into_fecs(&miner.closed_frequent())
        })
        .collect()
}

/// Algorithm 1 on chains mined at the two served contracts (WebView1 W 2000
/// C 25 every 100, `publish_live`'s; POS W 500 C 20 every 250,
/// `mine_pos`'s; both ε 0.016, δ 0.4). Each chain is solved `REPS` times
/// and the report is the sum over chains of each one's fastest solve: the
/// mean per iteration moves by tens of percent between runs on a shared
/// host, the per-chain floor much less.
fn bench_order_dp_mined() {
    const CHAINS: usize = 40;
    const REPS: usize = 40;
    for (name, profile, window, c, every) in [
        ("serve_live", DatasetProfile::WebView1, 2000, 25, 100),
        ("serve_pos", DatasetProfile::Pos, 500, 20, 250),
    ] {
        let spec = PrivacySpec::new(c, 5, 0.016, 0.4);
        let chains = mined_chains(profile, window, c, every, CHAINS);
        let fecs: usize = chains.iter().map(Vec::len).sum();
        for gamma in [1usize, 2, 3] {
            // Rounds over all chains rather than runs of one, so a burst of
            // host noise lands on one rep of many chains, not on every rep
            // of one.
            let mut floors = vec![Duration::MAX; chains.len()];
            for _ in 0..REPS {
                for (fecs, floor) in chains.iter().zip(&mut floors) {
                    let start = Instant::now();
                    std::hint::black_box(order_preserving_biases(fecs, &spec, gamma));
                    *floor = (*floor).min(start.elapsed());
                }
            }
            let floor: Duration = floors.iter().sum();
            println!(
                "{:<44} {:>12.3?}   ({CHAINS} chains, {fecs} FECs, floor of {REPS})",
                format!("order_dp/{name}/{gamma}"),
                floor
            );
        }
    }
}

fn main() {
    bench_schemes();
    bench_order_dp_gamma();
    bench_order_dp_mined();
}
