//! Integration: Butterfly is miner-agnostic — it sanitizes FP-stream's
//! *approximate* long-horizon output just as it does Moment's exact
//! sliding-window output. (The paper assumes an exact miner; this is the
//! natural extension to the tilted-time model.)

use butterfly_repro::butterfly::metrics::avg_pred;
use butterfly_repro::butterfly::{
    audit_release, BiasScheme, PrivacySpec, PublicationHistory, Publisher,
};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::{FpStream, FpStreamConfig};

#[test]
fn butterfly_over_fpstream_output() {
    // Mine 10 batches approximately, then sanitize the horizon query.
    let mut fps = FpStream::new(FpStreamConfig {
        batch_size: 400,
        sigma: 0.06,
        epsilon: 0.015,
    });
    let mut stream = DatasetProfile::WebView1.source(31);
    for _ in 0..4000 {
        fps.push(stream.next_transaction());
    }
    let approx = fps.frequent_over(10);
    assert!(!approx.is_empty(), "nothing mined to sanitize");

    // FP-stream estimates at this horizon are ≥ (σ−ε)·N ≈ 180; a contract
    // with C at that floor is feasible and meaningful.
    let c = approx.entries().iter().map(|e| e.support).min().unwrap();
    let spec = PrivacySpec::new(c, 5, 0.02, 0.5);
    let mut publisher = Publisher::new(
        spec,
        BiasScheme::Hybrid {
            lambda: 0.4,
            gamma: 2,
        },
        8,
    );
    let mut history = PublicationHistory::default();
    let release = publisher.publish(&approx, &history);
    assert_eq!(release.len(), approx.len());
    assert!(audit_release(&spec, &release).is_empty());
    assert!(avg_pred(&release) <= spec.epsilon() * 1.5);

    // Republication applies across horizon re-queries too: an unchanged
    // estimate republishes its pinned value.
    history.record(&release, 1);
    let again = publisher.publish(&approx, &history);
    assert_eq!(again, release);
}
