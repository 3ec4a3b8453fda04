//! Property-based tests over the workspace's core invariants, driven by a
//! deterministic seeded generator (no external property-testing dependency:
//! every case is reproducible from its printed seed).

use butterfly_repro::butterfly::fec::partition_into_fecs;
use butterfly_repro::butterfly::metrics::{ropp, rrpp};
use butterfly_repro::butterfly::{
    BiasScheme, NoiseRegion, PrivacySpec, SanitizedItemset, SanitizedRelease,
};
use butterfly_repro::common::rng::{Rng, SmallRng};
use butterfly_repro::common::{Database, ItemSet, ItemsetId, Pattern, SlidingWindow};
use butterfly_repro::inference::derive::derive_pattern_support;
use butterfly_repro::inference::support_bounds;
use butterfly_repro::mining::closed::closed_subset;
use butterfly_repro::mining::fpstream::TiltedTimeWindow;
use butterfly_repro::mining::{Apriori, Eclat, FrequentItemsets};
use std::collections::HashMap;

/// Number of random cases per property.
const CASES: u64 = 48;

/// Deterministic per-case RNG: `property_seed` names the property, `case`
/// indexes the run, so a failure report ("case N") reproduces exactly.
fn case_rng(property_seed: u64, case: u64) -> SmallRng {
    SmallRng::seed_from_u64(property_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

/// Random itemset of 1..6 items over `0..max_item`.
fn arb_itemset(rng: &mut SmallRng, max_item: u32) -> ItemSet {
    let len = 1 + rng.gen_range_usize(5);
    ItemSet::from_ids((0..len).map(|_| rng.gen_range_usize(max_item as usize) as u32))
}

/// Random small database (universe of 8 items so lattices stay enumerable).
fn arb_database(rng: &mut SmallRng) -> Database {
    let n_records = 1 + rng.gen_range_usize(24);
    Database::from_itemsets((0..n_records).map(|_| {
        let len = 1 + rng.gen_range_usize(5);
        ItemSet::from_ids((0..len).map(|_| rng.gen_range_usize(8) as u32))
    }))
}

/// Exhaustive exact view of a small database, keyed by shared itemset.
fn full_view(db: &Database) -> HashMap<ItemsetId, u64> {
    let alphabet = db.alphabet();
    let n = alphabet.len() as u32;
    let mut view = HashMap::new();
    for mask in 1u32..(1 << n) {
        let x = alphabet.subset_by_mask(mask);
        let support = db.support(&x);
        view.insert(ItemsetId::new(x), support);
    }
    view
}

#[test]
fn itemset_algebra_laws() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let a = arb_itemset(&mut rng, 12);
        let b = arb_itemset(&mut rng, 12);
        let union = a.union(&b);
        assert!(a.is_subset_of(&union), "case {case}");
        assert!(b.is_subset_of(&union), "case {case}");
        assert_eq!(union.intersection(&a), a, "case {case}");
        let diff = a.difference(&b);
        assert!(diff.intersection(&b).is_empty(), "case {case}");
        assert_eq!(diff.union(&a.intersection(&b)), a, "case {case}");
        // Display/parse round trip.
        let reparsed: ItemSet = a.to_string().parse().unwrap();
        assert_eq!(reparsed, a, "case {case}");
    }
}

#[test]
fn inclusion_exclusion_matches_scan() {
    // For every pattern spanned by itemsets of ≤ 4 items, the lattice
    // derivation over the exact view equals a direct database scan.
    for case in 0..CASES / 2 {
        let mut rng = case_rng(3, case);
        let db = arb_database(&mut rng);
        let alphabet = db.alphabet();
        if alphabet.len() < 2 || alphabet.len() > 8 {
            continue;
        }
        let view = full_view(&db);
        let n = alphabet.len() as u32;
        for mask in 1u32..(1 << n) {
            let span = alphabet.subset_by_mask(mask);
            if span.len() < 2 || span.len() > 4 {
                continue;
            }
            for base in span.proper_subsets() {
                let derived = derive_pattern_support(&view, &base, &span)
                    .unwrap()
                    .unwrap();
                let p = Pattern::from_lattice(&base, &span).unwrap();
                assert_eq!(derived, db.pattern_support(&p) as i64, "case {case}");
            }
        }
    }
}

#[test]
fn ndi_bounds_contain_truth() {
    for case in 0..CASES / 2 {
        let mut rng = case_rng(4, case);
        let db = arb_database(&mut rng);
        let alphabet = db.alphabet();
        if alphabet.len() < 3 || alphabet.len() > 8 {
            continue;
        }
        let n = alphabet.len() as u32;
        let mut view: HashMap<ItemSet, u64> = HashMap::new();
        for mask in 1u32..(1 << n) {
            let x = alphabet.subset_by_mask(mask);
            let support = db.support(&x);
            view.insert(x, support);
        }
        for mask in 1u32..(1 << n) {
            let j = alphabet.subset_by_mask(mask);
            if j.len() < 2 || j.len() > 4 {
                continue;
            }
            let mut hidden = view.clone();
            hidden.remove(&j);
            if let Some(b) = support_bounds(&hidden, &j) {
                let truth = db.support(&j) as i64;
                assert!(
                    b.lower <= truth && truth <= b.upper,
                    "case {case}: bounds [{},{}] exclude {} for {}",
                    b.lower,
                    b.upper,
                    truth,
                    j
                );
            }
        }
    }
}

/// The oracle Moment is held to: the window's closed frequent itemsets,
/// re-mined with Eclat.
fn remine(window: &SlidingWindow, c: u64) -> FrequentItemsets {
    closed_subset(&Eclat::new(c).mine(&window.database()))
}

#[test]
fn all_four_miners_agree() {
    // The batch miner against the reference, all and closed.
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let db = arb_database(&mut rng);
        let c = 1 + rng.gen_range_usize(5) as u64;
        let apriori = Apriori::new(c).mine(&db);
        let eclat = Eclat::new(c).mine(&db);
        assert_eq!(eclat, apriori, "case {case}");
        assert_eq!(
            closed_subset(&eclat),
            closed_subset(&apriori),
            "case {case}"
        );
    }
}

#[test]
fn rule_confidences_are_exact_ratios() {
    use butterfly_repro::mining::generate_rules;
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let db = arb_database(&mut rng);
        let frequent = Apriori::new(1).mine(&db);
        for rule in generate_rules(&frequent, 0.01) {
            let union = rule.antecedent.union(&rule.consequent);
            let expected = db.support(&union) as f64 / db.support(&rule.antecedent) as f64;
            assert!((rule.confidence - expected).abs() < 1e-12, "case {case}");
            assert_eq!(rule.support, db.support(&union), "case {case}");
        }
    }
}

#[test]
fn noise_region_sample_bounds() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let bias = rng.gen_f64() * 40.0 - 20.0;
        let alpha = 1 + rng.gen_range_usize(39) as u64;
        let region = NoiseRegion::centered(bias, alpha);
        for _ in 0..50 {
            let v = region.sample(&mut rng);
            assert!(v >= region.lo() && v <= region.hi(), "case {case}");
        }
        assert_eq!(region.hi() - region.lo(), alpha as i64, "case {case}");
        assert!((region.bias() - bias).abs() <= 0.5 + 1e-9, "case {case}");
    }
}

#[test]
fn tilted_window_conserves_mass() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let len = 1 + rng.gen_range_usize(119);
        let supports: Vec<u64> = (0..len).map(|_| rng.gen_range_usize(1000) as u64).collect();
        let mut w = TiltedTimeWindow::new();
        for &s in &supports {
            w.push(s);
        }
        assert_eq!(w.total_span(), supports.len() as u64, "case {case}");
        assert_eq!(
            w.total_support(),
            supports.iter().sum::<u64>(),
            "case {case}"
        );
        // Logarithmic compression.
        assert!(w.slots().len() <= 2 * 8 + 2, "case {case}");
    }
}

#[test]
fn schemes_respect_bias_budget() {
    let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let len = 1 + rng.gen_range_usize(29);
        let supports: Vec<u64> = (0..len)
            .map(|_| 25 + rng.gen_range_usize(375) as u64)
            .collect();
        let frequent = FrequentItemsets::new(
            supports
                .iter()
                .enumerate()
                .map(|(i, &s)| (ItemSet::from_ids([i as u32]), s)),
        );
        let fecs = partition_into_fecs(&frequent);
        for scheme in BiasScheme::paper_variants(2) {
            let biases = scheme.biases(&fecs, &spec);
            assert_eq!(biases.len(), fecs.len(), "case {case}");
            for (f, b) in fecs.iter().zip(&biases) {
                assert!(
                    b.abs() <= spec.max_bias(f.support()) + 1e-9,
                    "case {case}: {} exceeded budget at t={}",
                    scheme.name(),
                    f.support()
                );
            }
        }
    }
}

#[test]
fn utility_rates_are_probabilities() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let len = 1 + rng.gen_range_usize(39);
        let release = SanitizedRelease::new(
            (0..len)
                .map(|i| {
                    let t = 25 + rng.gen_range_usize(175) as u64;
                    let noise = rng.gen_range_i64(-10, 9);
                    SanitizedItemset {
                        id: ItemsetId::new(ItemSet::from_ids([i as u32])),
                        true_support: t,
                        sanitized: t as i64 + noise,
                    }
                })
                .collect(),
        );
        let o = ropp(&release);
        let r = rrpp(&release, 0.95);
        assert!((0.0..=1.0).contains(&o), "case {case}");
        assert!((0.0..=1.0).contains(&r), "case {case}");
    }
}

#[test]
fn moment_matches_oracle_on_arbitrary_streams() {
    use butterfly_repro::common::Transaction;
    use butterfly_repro::mining::{MinerBackend, MomentMiner};
    for case in 0..CASES / 2 {
        let mut rng = case_rng(12, case);
        let n_records = 1 + rng.gen_range_usize(59);
        let window_size = 1 + rng.gen_range_usize(19);
        let c = 1 + rng.gen_range_usize(4) as u64;
        let mut window = SlidingWindow::new(window_size);
        let mut moment = MomentMiner::new(c);
        for _ in 0..n_records {
            // Empty transactions are legal window contents.
            let len = rng.gen_range_usize(5);
            let items = ItemSet::from_ids((0..len).map(|_| rng.gen_range_usize(10) as u32));
            moment.apply(&window.slide(Transaction::new(0, items)));
            assert_eq!(moment.closed_frequent(), remine(&window, c), "case {case}");
        }
    }
}

#[test]
fn moment_matches_oracle_while_the_item_order_turns_over() {
    // Moment orders items by window frequency and re-derives the order
    // once per window turnover. Eight turnovers of a stream built to move
    // that order under it: the frequency profile over the 12 base items
    // inverts every two windows, items 0–3 vanish for the middle half and
    // return, and one-off items keep arriving (new codes between re-ranks,
    // recycled at the next). C = 1 makes every entry frequent the moment
    // it is created; C > W makes nothing frequent, ever.
    use butterfly_repro::common::Transaction;
    use butterfly_repro::mining::{MinerBackend, MomentMiner};
    const W: usize = 24;
    for (case, c) in [1u64, 3, 6, W as u64 + 1].into_iter().enumerate() {
        let mut rng = case_rng(15, case as u64);
        let mut window = SlidingWindow::new(W);
        let mut moment = MomentMiner::new(c);
        for step in 0..8 * W {
            let (phase, vanished) = (step / (2 * W), (2 * W..6 * W).contains(&step));
            let mut ids: Vec<u32> = (0..12u32)
                .filter(|&i| !(vanished && i < 4))
                .filter(|&i| {
                    let weight = if phase % 2 == 0 { i + 1 } else { 12 - i };
                    rng.gen_range_usize(16) < weight as usize
                })
                .collect();
            if rng.gen_range_usize(3) == 0 {
                ids.push(100 + step as u32);
            }
            moment.apply(&window.slide(Transaction::new(0, ItemSet::from_ids(ids))));
            assert_eq!(
                moment.closed_frequent(),
                remine(&window, c),
                "C={c} step={step}"
            );
        }
        assert_eq!(c > W as u64, moment.closed_frequent().is_empty(), "C={c}");
    }
}

#[test]
fn moment_settled_after_any_interval_matches_per_slide_settles() {
    // The pipeline settles Moment only when it publishes. Settled after any
    // number of arrivals and departures, its closed sets must be the re-mine
    // oracle's, at intervals of 1, 2, 7, 97, the serve cadence, W/2 − 1,
    // W/2, W − 1, W and 2W. The first interval is W, across the fill: it
    // spans the ring's doubling (W > 64 slots) and the re-ranks at 1, 2, 4,
    // …; each interval of W or more spans a turnover's re-rank. A settle
    // whose queue holds a window (2 · interval ≥ W on a full one) rebuilds
    // the tree in a fresh item order; one that walks must leave the tree a
    // twin settling every slide holds, and the twin restarts from a copy at
    // each rebuild, so it shares the order being walked.
    use butterfly_repro::common::Transaction;
    use butterfly_repro::datagen::{
        MarkovConfig, MarkovSessionGenerator, QuestConfig, QuestGenerator,
    };
    use butterfly_repro::mining::{MinerBackend, MomentMiner};
    const W: usize = 100;
    const EVERY: usize = 25;
    let mut intervals = [1, 2, 7, 97, EVERY, W / 2 - 1, W / 2, W - 1, W, 2 * W];
    let (mut walks, mut rebuilds) = (0, 0);
    for case in 0..8u64 {
        let mut rng = case_rng(16, case);
        let c = 2 + rng.gen_range_usize(6) as u64;
        let stream: Vec<Transaction> = if case % 2 == 0 {
            let cfg = QuestConfig {
                n_items: 40,
                n_patterns: 12,
                avg_pattern_len: 3.0,
                avg_transaction_len: 5.0,
                max_transaction_len: 10,
                ..QuestConfig::default()
            };
            QuestGenerator::new(cfg, rng.next_u64()).generate(10 * W)
        } else {
            let cfg = MarkovConfig {
                n_pages: 60,
                ..MarkovConfig::default()
            };
            MarkovSessionGenerator::new(cfg, rng.next_u64()).generate(10 * W)
        };
        let mut window = SlidingWindow::new(W);
        let (mut moment, mut twin) = (MomentMiner::new(c), MomentMiner::new(c));
        let (mut interval, mut due, mut settles) = (W, W, 0);
        for t in stream {
            let delta = window.slide(t);
            if let Some(evicted) = &delta.evicted {
                moment.remove(evicted.tid());
            }
            moment.insert(delta.added.tid(), delta.added.items().items());
            twin.apply(&delta);
            due -= 1;
            if due > 0 {
                continue;
            }
            let before = moment.rebuilds();
            moment.settle();
            settles += 1;
            let at = (case, c, window.stream_len());
            assert_eq!(
                moment.closed_frequent(),
                remine(&window, c),
                "case/C/N {at:?}"
            );
            if moment.rebuilds() == before {
                walks += 1;
                assert_eq!(moment.node_count(), twin.node_count(), "case/C/N {at:?}");
            } else {
                rebuilds += 1;
                assert!(settles == 1 || 2 * interval >= W, "case/C/N {at:?}");
                let stats = moment.node_stats();
                assert_eq!(stats.total(), moment.node_count(), "case/C/N {at:?}");
                assert_eq!(
                    stats.closed,
                    moment.closed_frequent().len(),
                    "case/C/N {at:?}"
                );
                twin = moment.clone();
            }
            // Every interval once per round, in a fresh order each round.
            let round = (settles - 1) % intervals.len();
            if round == 0 {
                for i in (1..intervals.len()).rev() {
                    intervals.swap(i, rng.gen_range_usize(i + 1));
                }
            }
            interval = intervals[round];
            due = interval;
        }
        assert!(settles > intervals.len(), "case {case}: {settles} settles");
    }
    // Whether a long interval's queue holds a window depends on where the
    // turnover re-rank fell in it, so some cases only walk.
    assert!(
        walks > 0 && rebuilds > 0,
        "{walks} walks, {rebuilds} rebuilds"
    );
}

#[test]
fn publisher_contract_holds_over_random_support_walks() {
    // Drive one itemset's support on a random walk across windows and
    // check every release against the audit invariants, with the
    // republication pin engaged whenever the walk pauses.
    use butterfly_repro::butterfly::{audit_release, PublicationHistory, Publisher};
    let spec = PrivacySpec::new(25, 5, 0.1, 1.0);
    for case in 0..CASES {
        let mut rng = case_rng(13, case);
        let mut publisher = Publisher::new(spec, BiasScheme::RatioPreserving, rng.next_u64());
        let steps = 1 + rng.gen_range_usize(24);
        let mut history = PublicationHistory::default();
        let mut support = 60i64;
        let mut prev: Option<(i64, i64)> = None; // (true, sanitized)
        for step in 1..=steps as u64 {
            support = (support + rng.gen_range_i64(-1, 1)).max(26);
            let mined = FrequentItemsets::new(vec![(ItemSet::from_ids([0]), support as u64)]);
            let release = publisher.publish(&mined, &history);
            history.record(&release, step);
            assert!(audit_release(&spec, &release).is_empty(), "case {case}");
            let entry = release.get(&ItemSet::from_ids([0])).unwrap();
            if let Some((t_prev, s_prev)) = prev {
                if t_prev == support {
                    assert_eq!(entry.sanitized, s_prev, "case {case}: pin broken");
                }
            }
            prev = Some((support, entry.sanitized));
        }
    }
}

#[test]
fn zero_noise_preserves_everything() {
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let len = 2 + rng.gen_range_usize(28);
        let release = SanitizedRelease::new(
            (0..len)
                .map(|i| {
                    let t = 25 + rng.gen_range_usize(175) as u64;
                    SanitizedItemset {
                        id: ItemsetId::new(ItemSet::from_ids([i as u32])),
                        true_support: t,
                        sanitized: t as i64,
                    }
                })
                .collect(),
        );
        assert_eq!(ropp(&release), 1.0, "case {case}");
        assert_eq!(rrpp(&release, 0.95), 1.0, "case {case}");
    }
}
