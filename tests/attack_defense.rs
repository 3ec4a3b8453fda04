//! Integration: the attacks of §IV succeed against raw output and are
//! blunted by Butterfly, including the averaging attack of Prior Knowledge 2.

use butterfly_repro::butterfly::{BiasScheme, PrivacySpec, PublicationHistory, Publisher};
use butterfly_repro::common::fixtures::fig2_window;
use butterfly_repro::common::Database;
use butterfly_repro::common::{ItemSet, Pattern};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::inference::adversary::{averaging_attack, estimate_pattern};
use butterfly_repro::inference::{
    find_inter_window_breaches, find_intra_window_breaches, GroundTruth,
};
use butterfly_repro::mining::{Apriori, FrequentItemsets};

#[test]
fn raw_output_leaks_and_examples_reproduce() {
    // Example 3 (intra) at C=3/K=1 and Example 5 (inter) at C=4/K=1.
    let curr_db = fig2_window(12);
    let intra_view = Apriori::new(3).mine(&curr_db);
    let intra = find_intra_window_breaches(intra_view.as_map(), 1);
    assert!(intra
        .iter()
        .any(|b| b.pattern == "c¬a¬b".parse::<Pattern>().unwrap()));

    let prev_view = Apriori::new(4).mine(&fig2_window(11));
    let curr_view = Apriori::new(4).mine(&curr_db);
    assert!(find_intra_window_breaches(curr_view.as_map(), 1).is_empty());
    let inter = find_inter_window_breaches(prev_view.as_map(), curr_view.as_map(), 4, 1, 1);
    assert!(inter
        .iter()
        .any(|b| b.pattern == "c¬a¬b".parse::<Pattern>().unwrap()));
}

#[test]
fn perturbation_inflates_adversary_error_on_average() {
    // Against raw output the derivation is exact (error 0). Against
    // Butterfly the mean squared relative error must reach the δ floor.
    let db = fig2_window(12);
    let frequent = Apriori::new(3).mine(&db);
    let spec = PrivacySpec::new(3, 1, 0.9, 0.8);
    let base: ItemSet = "c".parse().unwrap();
    let span: ItemSet = "abc".parse().unwrap();
    let truth = 1.0; // T(c¬a¬b)

    let mut total_sq_err = 0.0;
    let trials = 400;
    for seed in 0..trials {
        let mut publisher = Publisher::new(spec, BiasScheme::Basic, seed);
        let release = publisher.publish(&frequent, &PublicationHistory::default());
        let est = estimate_pattern(&release.view(), &base, &span)
            .unwrap()
            .expect("all lattice members published");
        total_sq_err += (truth - est) * (truth - est);
    }
    let mse = total_sq_err / trials as f64;
    // Theory: Var = 4σ² (four lattice members); prig = Var/T² ≥ δ.
    let floor = spec.delta() * truth * truth;
    assert!(
        mse >= floor,
        "adversary MSE {mse} below privacy floor {floor}"
    );
    assert!(
        mse >= 3.0 * spec.sigma2(),
        "uncertainty did not accumulate across the lattice: {mse}"
    );
}

#[test]
fn republication_defeats_averaging_attack() {
    // A publisher that redraws noise every window lets the adversary average
    // her way to the truth; Butterfly's pinned republication does not.
    let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
    let frequent = FrequentItemsets::new(vec![("ab".parse::<ItemSet>().unwrap(), 40u64)]);
    let truth = 40.0;

    // Butterfly: one publisher observed over 200 windows of unchanged data.
    let mut publisher = Publisher::new(spec, BiasScheme::Basic, 5);
    let mut history = PublicationHistory::default();
    let pinned: Vec<i64> = (1..=200)
        .map(|n| {
            let release = publisher.publish(&frequent, &history);
            history.record(&release, n);
            release.get(&"ab".parse().unwrap()).unwrap().sanitized
        })
        .collect();
    assert!(
        pinned.windows(2).all(|w| w[0] == w[1]),
        "sanitized value moved despite unchanged support"
    );

    // Naive redrawing publisher (fresh Publisher per window ≈ no cache).
    let fresh: Vec<i64> = (0..200)
        .map(|seed| {
            Publisher::new(spec, BiasScheme::Basic, 1000 + seed)
                .publish(&frequent, &PublicationHistory::default())
                .get(&"ab".parse().unwrap())
                .unwrap()
                .sanitized
        })
        .collect();

    let err_fresh = (averaging_attack(&fresh) - truth).abs();
    // Fresh noise averages out (law of large numbers); the pinned value's
    // error stays at its single-draw magnitude unless the draw was lucky.
    assert!(
        err_fresh < 0.6,
        "averaging over fresh noise failed: {err_fresh}"
    );
    // The pinned sequence gives the adversary exactly one observation's
    // worth of information: its average equals the first draw.
    assert_eq!(averaging_attack(&pinned), pinned[0] as f64);
}

#[test]
fn stream_scale_breach_hunt_is_sound() {
    // On a real-sized window, every intra-window breach the engine reports
    // must be a true vulnerable pattern of the window database.
    let mut stream = DatasetProfile::WebView1.source(21);
    let txs: Vec<_> = (0..1500).map(|_| stream.next_transaction()).collect();
    let db = Database::from_records(txs);
    let frequent = Apriori::new(25).mine(&db);
    let breaches = find_intra_window_breaches(frequent.as_map(), 5);
    // Verify against the vertical tid-bitmap oracle rather than re-scanning
    // all 1500 records per pattern.
    let mut oracle = GroundTruth::of_database(&db);
    for b in &breaches {
        let truth = oracle.pattern_support(&b.pattern);
        assert_eq!(truth, b.support, "false breach report for {}", b.pattern);
        assert!((1..=5).contains(&truth));
    }
}
