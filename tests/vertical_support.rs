//! Differential test for the vertical tid-bitmap engine: on seeded random
//! sliding windows, [`VerticalIndex`] support counts — positive itemsets and
//! generalized patterns with negations — must equal the naive
//! per-transaction scan of the materialized window database, at every slide,
//! including the evict/insert steady state where tids wrap around the ring
//! boundary (tid % capacity cycles back to slot 0). The memoized
//! [`GroundTruth`] oracle must also count every breach the enumerator
//! derives to its derived support.

use bfly_bench::{collect_truths, ExperimentConfig};
use butterfly_repro::common::rng::{Rng, SmallRng};
use butterfly_repro::common::{
    ItemSet, Pattern, SlidingWindow, SupportMemo, TidScratch, VerticalIndex,
};
use butterfly_repro::datagen::{DatasetProfile, QuestConfig, QuestGenerator};
use butterfly_repro::inference::GroundTruth;

/// Random query itemset of 1..=4 items over `0..universe`.
fn arb_itemset(rng: &mut SmallRng, universe: u32) -> ItemSet {
    let len = 1 + rng.gen_range_usize(4);
    ItemSet::from_ids((0..len).map(|_| rng.gen_range_usize(universe as usize) as u32))
}

/// Compare the maintained index against the scanned database for a batch of
/// random itemset and pattern queries.
fn assert_counts_agree(
    index: &VerticalIndex,
    window: &SlidingWindow,
    rng: &mut SmallRng,
    universe: u32,
    step: usize,
) {
    let db = window.database();
    assert_eq!(index.len(), db.len(), "index size diverged at step {step}");
    let mut scratch = TidScratch::new();
    for _ in 0..12 {
        let q = arb_itemset(rng, universe);
        assert_eq!(
            index.support(&q, &mut scratch),
            db.support(&q),
            "positive support of {q} diverged at step {step}"
        );
    }
    for _ in 0..12 {
        // Random lattice pattern I(J\I)̄: pick J, carve a proper subset I.
        let span = arb_itemset(rng, universe);
        if span.len() < 2 {
            continue;
        }
        let mask = 1 + rng.gen_range_usize((1 << span.len()) - 2) as u32;
        let base = span.subset_by_mask(mask);
        let p = Pattern::from_lattice(&base, &span).expect("base ⊂ span");
        assert_eq!(
            index.pattern_support(&p, &mut scratch),
            db.pattern_support(&p),
            "pattern support of {p} diverged at step {step}"
        );
    }
    // Purely-negative pattern: counted from the occupied mask, not from any
    // item bitmap.
    let neg = arb_itemset(rng, universe);
    let p = Pattern::from_lattice(&ItemSet::new([]), &neg).expect("∅ ⊂ J");
    assert_eq!(
        index.pattern_support(&p, &mut scratch),
        db.pattern_support(&p),
        "purely-negative support of {p} diverged at step {step}"
    );
}

#[test]
fn vertical_matches_scan_on_quest_stream() {
    // Window 24 over 120 slides: tids wrap the ring boundary five times.
    let mut rng = SmallRng::seed_from_u64(0xb1f7);
    let mut gen = QuestGenerator::new(QuestConfig::default(), 404);
    let mut window = SlidingWindow::new(24);
    let mut index = VerticalIndex::new(24);
    for step in 0..120 {
        let delta = window.slide(gen.next_transaction());
        index.apply(&delta);
        assert_counts_agree(&index, &window, &mut rng, 40, step);
    }
}

#[test]
fn vertical_matches_scan_on_dataset_profiles() {
    // Denser, correlated streams; window 64 over 200 slides wraps the ring
    // three times while evict+insert reuse each slot.
    for (profile, seed) in [(DatasetProfile::WebView1, 11u64), (DatasetProfile::Pos, 12)] {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
        let mut source = profile.source(seed);
        let mut window = SlidingWindow::new(64);
        let mut index = VerticalIndex::new(64);
        for step in 0..200 {
            let delta = window.slide(source.next_transaction());
            index.apply(&delta);
            if step % 7 == 0 {
                assert_counts_agree(&index, &window, &mut rng, 60, step);
            }
        }
    }
}

#[test]
fn ground_truth_oracle_matches_scan_with_memo() {
    // The memoized GroundTruth wrapper must agree with the scan too, and
    // repeated queries of the same itemset within a window must hit the memo
    // rather than recounting.
    let mut source = DatasetProfile::WebView1.source(21);
    let mut window = SlidingWindow::new(32);
    let mut truth = GroundTruth::new(32);
    let queries: Vec<ItemSet> = {
        let mut rng = SmallRng::seed_from_u64(7);
        (0..8).map(|_| arb_itemset(&mut rng, 50)).collect()
    };
    for step in 0..96 {
        let delta = window.slide(source.next_transaction());
        truth.apply(&delta);
        let db = window.database();
        for q in &queries {
            let first = truth.support(q);
            assert_eq!(first, db.support(q), "oracle diverged at step {step}");
            assert_eq!(truth.support(q), first, "memoized recount changed");
        }
    }
    let (hits, misses) = truth.memo_stats();
    assert!(hits > 0, "repeated queries never hit the memo");
    assert!(misses > 0, "fresh windows never missed the memo");
}

#[test]
fn vertical_and_scan_agree_on_every_breach_of_collected_truths() {
    // The breach enumerator derives supports through the lattice identity.
    // Replaying the same stream, the memoized vertical oracle (seeded with
    // each window's closed supports, as the pipeline seeds it) and the scan
    // of the materialized window must both count every breach pattern to
    // exactly that support.
    let cfg = ExperimentConfig {
        profile: DatasetProfile::WebView1,
        window: 300,
        c: 10,
        k: 3,
        windows: 8,
        seed: 5,
        threads: 0,
    };
    let truths = collect_truths(&cfg);
    let mut source = cfg.profile.source(cfg.seed);
    let mut window = SlidingWindow::new(cfg.window);
    let mut oracle = GroundTruth::new(cfg.window);
    for _ in 0..cfg.window - 1 {
        oracle.apply(&window.slide(source.next_transaction()));
    }
    let mut verified = 0;
    for t in &truths {
        oracle.apply(&window.slide(source.next_transaction()));
        oracle.seed_supports(t.closed.entries().iter().map(|e| (e.id.clone(), e.support)));
        let db = window.database();
        for b in &t.breaches {
            let vertical = oracle.pattern_support(&b.pattern);
            assert_eq!(vertical, db.pattern_support(&b.pattern), "{}", b.pattern);
            assert_eq!(
                vertical, b.support,
                "breach {} vs the raw window",
                b.pattern
            );
            verified += 1;
        }
    }
    assert!(verified > 0, "no breaches: the check would be vacuous");
}

#[test]
fn support_memo_invalidates_per_window_version() {
    let mut memo = SupportMemo::new();
    memo.advance(1);
    let ab: ItemSet = "ab".parse().unwrap();
    assert_eq!(memo.get_or_count(&ab, || 5), 5);
    assert_eq!(memo.get_or_count(&ab, || 99), 5, "hit must not recount");
    memo.advance(2);
    assert_eq!(
        memo.get_or_count(&ab, || 7),
        7,
        "stale window value survived"
    );
}
