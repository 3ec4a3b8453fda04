//! Integration: the mining paths agree on streaming windows of realistic
//! synthetic data — Moment (the pipeline's miner, driven through
//! [`MinerBackend`]) and Eclat (the batch miner) against Apriori, the
//! reference, and FP-stream's approximate answer covering the exact one.
//!
//! [`MinerBackend`]: butterfly_repro::mining::MinerBackend

use butterfly_repro::common::rng::{Rng, SmallRng};
use butterfly_repro::common::{Database, ItemSet, SlidingWindow, Transaction};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::closed::{closed_subset, expand_closed};
use butterfly_repro::mining::{
    Apriori, Eclat, FpStream, FpStreamConfig, FrequentItemsets, MinerBackend, MomentMiner,
};

#[test]
fn moment_eclat_apriori_agree_over_a_sliding_stream() {
    let mut src = DatasetProfile::WebView1.source(13);
    let mut window = SlidingWindow::new(400);
    let c = 12u64;
    let mut moment = MomentMiner::new(c);

    for step in 0..900 {
        let delta = window.slide(src.next_transaction());
        moment.apply(&delta);
        // Full checks are expensive; sample the stream at irregular points,
        // always including the window-fill boundary.
        if !(step == 399 || step % 173 == 0 && step > 399) {
            continue;
        }
        let db = window.database();
        let apriori = Apriori::new(c).mine(&db);
        let eclat = Eclat::new(c).mine(&db);
        assert_eq!(apriori, eclat, "static miners disagree at step {step}");
        let closed = closed_subset(&apriori);
        assert_eq!(
            moment.closed_frequent(),
            closed,
            "incremental CET diverged at step {step}"
        );
        assert_eq!(moment.all_frequent(), apriori);
        let _ = expand_closed(&closed);
    }
}

#[test]
fn moment_handles_pos_profile_with_larger_baskets() {
    let mut src = DatasetProfile::Pos.source(29);
    let mut window = SlidingWindow::new(300);
    let c = 15u64;
    let mut moment = MomentMiner::new(c);
    for _ in 0..600 {
        moment.apply(&window.slide(src.next_transaction()));
    }
    let db: Database = window.database();
    let expected = closed_subset(&Eclat::new(c).mine(&db));
    assert_eq!(moment.closed_frequent(), expected);
    assert!(moment.node_count() > 0);
}

#[test]
fn moment_is_indifferent_to_how_the_alphabet_is_labelled() {
    // Moment enumerates in window-frequency order, not item-id order, so a
    // relabelling of the alphabet changes neither the answer (mapped back)
    // nor, beyond how ties between equally frequent items fall, the size
    // of the tree. In item-id order the same five relabellings of this
    // stream (the benchmark's `mine_pos` shape) gave 8 608–14 627 nodes.
    let (c, n_items) = (20u64, DatasetProfile::Pos.config().n_items);
    let stream = DatasetProfile::Pos.source(29).take_vec(2_000);
    let mut runs: Vec<(FrequentItemsets, usize)> = Vec::new();
    for seed in 1..=5u64 {
        // Seeded Fisher–Yates.
        let mut relabel: Vec<u32> = (0..n_items as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..relabel.len()).rev() {
            relabel.swap(i, rng.gen_range_usize(i + 1));
        }
        let mut back = vec![0u32; relabel.len()];
        for (from, &to) in relabel.iter().enumerate() {
            back[to as usize] = from as u32;
        }
        let mut window = SlidingWindow::new(500);
        let mut moment = MomentMiner::new(c);
        for t in &stream {
            let items = ItemSet::from_ids(t.items().iter().map(|i| relabel[i.index()]));
            moment.apply(&window.slide(Transaction::new(0, items)));
        }
        let closed = moment.closed_frequent();
        let mapped_back = closed.entries().iter().map(|e| {
            let items = ItemSet::from_ids(e.itemset().iter().map(|i| back[i.index()]));
            (items, e.support)
        });
        runs.push((mapped_back.collect(), moment.node_count()));
    }
    let closed = &runs[0].0;
    assert!(closed.len() > 100, "only {} closed itemsets", closed.len());
    assert!(runs.iter().all(|(other, _)| other == closed));
    let nodes = runs.iter().map(|&(_, nodes)| nodes);
    let (lo, hi) = (nodes.clone().min().unwrap(), nodes.max().unwrap());
    assert!(
        (hi - lo) * 20 <= lo,
        "tree size moved with the labelling: {lo}–{hi} nodes"
    );
}

#[test]
fn exact_backend_matrix_agrees_over_a_sliding_stream() {
    // Moment, driven through the MinerBackend trait, and an Eclat re-mine of
    // the window must produce Apriori's frequent and closed-frequent results
    // at every sampled point of a realistic sliding stream (including the
    // warm-up boundary and post-eviction steady state).
    let c = 12u64;
    let mut moment = MomentMiner::new(c);
    let mut src = DatasetProfile::WebView1.source(13);
    let mut window = SlidingWindow::new(400);

    for step in 0..700 {
        moment.apply(&window.slide(src.next_transaction()));
        if !(step == 399 || step % 149 == 0 && step > 399) {
            continue;
        }
        let db = window.database();
        let oracle = Apriori::new(c).mine(&db);
        let oracle_closed = closed_subset(&oracle);
        let eclat = Eclat::new(c).mine(&db);
        assert_eq!(eclat, oracle, "eclat diverged at step {step}");
        assert_eq!(
            closed_subset(&eclat),
            oracle_closed,
            "eclat's closed subset diverged at step {step}"
        );
        assert_eq!(
            moment.all_frequent(),
            oracle,
            "moment all_frequent() diverged at step {step}"
        );
        assert_eq!(
            moment.closed_frequent(),
            oracle_closed,
            "moment closed_frequent() diverged at step {step}"
        );
    }
}

#[test]
fn approximate_backends_cover_the_exact_result() {
    // FP-stream is approximate, but its σ/ε error bound errs on the side of
    // over-reporting: every truly frequent itemset appears in its output.
    let c = 15u64;
    let mut src = DatasetProfile::WebView1.source(29);
    let mut window = SlidingWindow::new(300);
    let mut fpstream = FpStream::new(FpStreamConfig {
        batch_size: 32,
        sigma: 0.05,
        epsilon: 0.01,
    });
    let mut truth = MomentMiner::new(c);
    for _ in 0..300 {
        let delta = window.slide(src.next_transaction());
        truth.apply(&delta);
        fpstream.push(delta.added.clone());
    }
    let exact = truth.all_frequent();
    assert!(!exact.is_empty());

    // Query the whole history, its partial last batch included.
    fpstream.flush();
    let reported = fpstream
        .frequent_over(fpstream.batches())
        .filter_min_support(c);
    for e in exact.entries() {
        assert!(
            reported.support(e.itemset()).is_some(),
            "fpstream missed frequent itemset {}",
            e.itemset()
        );
    }
}
