//! Quickstart: protect a mined stream window with Butterfly.
//!
//! Run with `cargo run --example quickstart`.
//!
//! Pipeline: a synthetic clickstream (BMS-WebView-1 stand-in) slides through
//! a window; Moment maintains the closed frequent itemsets; the Butterfly
//! publisher sanitizes each window's supports under an (ε, δ) contract.

use butterfly_repro::butterfly::metrics;
use butterfly_repro::butterfly::{BiasScheme, PrivacySpec, Publisher, StreamPipeline};
use butterfly_repro::datagen::DatasetProfile;

fn main() {
    // The paper's default contract: C = 25, K = 5, ppr = ε/δ = 0.04, δ = 0.4.
    let spec = PrivacySpec::from_ppr(25, 5, 0.04, 0.4);
    println!(
        "contract: C={} K={} ε={:.4} δ={:.2}  →  noise width α={}, σ²={:.2}",
        spec.c(),
        spec.k(),
        spec.epsilon(),
        spec.delta(),
        spec.alpha(),
        spec.sigma2()
    );

    let scheme = BiasScheme::Hybrid {
        lambda: 0.4,
        gamma: 2,
    };
    let publisher = Publisher::new(spec, scheme, 42);
    let mut pipeline = StreamPipeline::new(2000, Box::new(publisher));

    let mut stream = DatasetProfile::WebView1.source(7);
    for _ in 0..2400 {
        pipeline.advance(stream.next_transaction());
    }
    let release = pipeline.publish_now().expect("window filled");

    println!(
        "\nwindow Ds({}, 2000): {} closed frequent itemsets published\n",
        release.stream_len,
        release.release.len()
    );
    println!("{:<28} {:>8} {:>10}", "itemset", "true", "sanitized");
    for entry in release.release.iter().take(15) {
        println!(
            "{:<28} {:>8} {:>10}",
            entry.itemset().to_string(),
            entry.true_support,
            entry.sanitized
        );
    }
    if release.release.len() > 15 {
        println!("... ({} more)", release.release.len() - 15);
    }

    let m = metrics::window_metrics(&release.release, &[], None, 0.95);
    println!(
        "\nutility this window: avg_pred = {:.5} (≤ ε = {:.5}), ropp = {:.3}, rrpp = {:.3}",
        m.avg_pred,
        spec.epsilon(),
        m.ropp,
        m.rrpp
    );
}
