//! FP-stream over a long history: approximate frequency queries at multiple
//! time horizons from one pass, with tilted-time compression.
//!
//! Run with `cargo run --release --example fpstream_history`.

use butterfly_repro::common::Database;
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::{FpStream, FpStreamConfig};

fn main() {
    let config = FpStreamConfig {
        batch_size: 500,
        sigma: 0.05,
        epsilon: 0.01,
    };
    let mut fps = FpStream::new(config);

    // Keep the raw stream only to verify the estimates afterwards — the
    // miner itself never stores transactions beyond the current batch.
    let mut history = Vec::new();
    let mut stream = DatasetProfile::WebView1.source(3);
    for _ in 0..32 * 500 {
        let t = stream.next_transaction();
        history.push(t.clone());
        fps.push(t);
    }
    println!(
        "{} batches processed, {} patterns tracked (stream of {} records)\n",
        fps.batches(),
        fps.tracked_patterns(),
        history.len()
    );

    for horizon in [1u64, 4, 16, 32] {
        let answer = fps.frequent_over(horizon);
        let records = horizon as usize * config.batch_size;
        let db = Database::from_records(history[history.len() - records..].to_vec());
        println!(
            "last {horizon:>2} batches ({records:>5} records): {} patterns ≥ (σ−ε)·N",
            answer.len()
        );
        for e in answer.entries().iter().take(5) {
            let truth = db.support(e.itemset());
            println!(
                "   {:<20} est {:>5}  true {:>5}  (under-count ≤ ε·N = {})",
                e.itemset().to_string(),
                e.support,
                truth,
                (config.epsilon * records as f64).ceil() as u64
            );
        }
    }
    println!(
        "\nthe tilted-time windows keep O(log B) slots per pattern, so the 32-batch \
         history costs barely more memory than a single batch."
    );
}
