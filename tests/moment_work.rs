//! Moment's work counters as a golden: `visits`, `rebuilds`, `node_count`
//! and `itemsets_allocated` after a fixed run of publications on each of
//! the four benchmark workloads' mining shapes and on two wide-alphabet
//! shapes, against `tests/golden/moment_work.txt`.
//!
//! Each counter is a function of the stream, the settle points and the
//! read-outs, so a change to how the closed enumeration tree is built or
//! maintained shows here as an exact diff. A change meant to keep the tree
//! leaves the file as it is; one meant to change it commits the fresh
//! lines the test prints, and says why.

use butterfly_repro::common::rng::{Rng, SmallRng};
use butterfly_repro::common::ItemSet;
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::{MinerBackend, MomentMiner};

/// Publications per shape after the one at the window's fill.
const PUBLICATIONS: usize = 24;

/// Where a shape's transactions come from, with its seed.
#[derive(Clone, Copy)]
enum Source {
    Profile(DatasetProfile, u64),
    /// Eight distinct items drawn uniformly from an alphabet of this size.
    Uniform(u64, u64),
}

/// `(name, source, window, C, every)`.
const SHAPES: [(&str, Source, usize, u64, usize); 6] = [
    (
        "publish_live",
        Source::Profile(DatasetProfile::WebView1, 1),
        2000,
        25,
        100,
    ),
    (
        "mine_pos",
        Source::Profile(DatasetProfile::Pos, 1),
        500,
        20,
        250,
    ),
    (
        "ingest_routed_json",
        Source::Profile(DatasetProfile::WebView1, 2),
        2000,
        400,
        250,
    ),
    (
        "ingest_durable_bin",
        Source::Profile(DatasetProfile::WebView1, 3),
        2000,
        400,
        250,
    ),
    (
        "wide_w2000_8_of_500",
        Source::Uniform(500, 1),
        2000,
        25,
        100,
    ),
    ("wide_w500_8_of_150", Source::Uniform(150, 2), 500, 20, 250),
];

fn stream(source: Source, n: usize) -> Vec<ItemSet> {
    match source {
        Source::Profile(profile, seed) => {
            let txs = profile.source(seed).take_vec(n);
            txs.into_iter().map(|t| t.into_items()).collect()
        }
        Source::Uniform(alphabet, seed) => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut draw = || {
                let mut ids = Vec::with_capacity(8);
                while ids.len() < 8 {
                    let id = rng.gen_below(alphabet) as u32;
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                ItemSet::from_ids(ids)
            };
            (0..n).map(|_| draw()).collect()
        }
    }
}

/// One golden line: the shape's counters after its publications, each a
/// settle and a read-out: when the window fills, then every `every`
/// transactions, as a stream pipeline publishes.
fn run(name: &str, source: Source, window: usize, c: u64, every: usize) -> String {
    let txs = stream(source, window + PUBLICATIONS * every);
    let mut miner = MomentMiner::new(c);
    let window = window as u64;
    for (tid, items) in (1..).zip(&txs) {
        if tid > window {
            miner.remove(tid - window);
        }
        miner.insert(tid, items.items());
        if tid >= window && (tid - window).is_multiple_of(every as u64) {
            miner.settle();
            miner.closed_frequent();
        }
    }
    format!(
        "{name} visits={} rebuilds={} node_count={} itemsets_allocated={}",
        miner.visits(),
        miner.rebuilds(),
        miner.node_count(),
        miner.itemsets_allocated()
    )
}

#[test]
fn moment_work_counters_match_the_golden() {
    let lines: Vec<String> = SHAPES
        .iter()
        .map(|&(name, source, window, c, every)| run(name, source, window, c, every))
        .collect();
    let fresh = lines.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/moment_work.txt");
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        fresh == golden,
        "Moment's work moved; if the tree is meant to change, commit to {path}:\n{fresh}"
    );
}
