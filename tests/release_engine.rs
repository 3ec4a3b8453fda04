//! Differential suite for the incremental `ReleaseEngine`: over 100+
//! published windows of a random stream, the incremental publisher (FEC
//! index delta-maintained across windows, order DP warm-started from the
//! previous window's layers) must be **bit-identical** to the batch
//! publisher — same releases, same deltas, at every thread count — and the
//! delta chain must reconstruct every release exactly.

use butterfly_repro::butterfly::{
    partition_into_fecs, BiasScheme, FecIndex, PrivacySpec, Publisher, ReleaseDelta,
    SanitizedItemset, SanitizedRelease, StreamPipeline,
};
use butterfly_repro::common::{pool, ItemSet, SanitizedSupport, Support};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::FrequentItemsets;

const WINDOW: usize = 150;
const STEP: usize = 5;
const WINDOWS: usize = 104;

fn spec() -> PrivacySpec {
    PrivacySpec::new(10, 3, 0.1, 0.5)
}

fn scheme() -> BiasScheme {
    // Hybrid exercises every incremental stage: the FEC index, the
    // warm-started order DP, and the ratio blend.
    BiasScheme::Hybrid {
        lambda: 0.4,
        gamma: 2,
    }
}

/// Mine the shared window sequence once: the closed frequent itemsets at
/// `WINDOWS` sliding-window positions, `STEP` records apart (~97% overlap).
fn collect_windows() -> Vec<FrequentItemsets> {
    collect(spec(), WINDOW, STEP, WINDOWS)
}

/// The closed frequent itemsets at `count` positions of a `window`-record
/// sliding window over WebView1, `step` records apart.
fn collect(spec: PrivacySpec, window: usize, step: usize, count: usize) -> Vec<FrequentItemsets> {
    let mut pipe = StreamPipeline::new(window, Publisher::new(spec, BiasScheme::Basic, 1));
    let mut src = DatasetProfile::WebView1.source(31);
    for _ in 0..window {
        pipe.advance(src.next_transaction());
    }
    let mut out = vec![pipe.publish_now().expect("window just filled").closed];
    while out.len() < count {
        for _ in 0..step {
            pipe.advance(src.next_transaction());
        }
        out.push(pipe.publish_now().expect("window stays full").closed);
    }
    out
}

type FlatRelease = Vec<(ItemSet, Support, SanitizedSupport)>;
type FlatDelta = (FlatRelease, FlatRelease, Vec<ItemSet>);

fn flat_entries(entries: &[SanitizedItemset]) -> FlatRelease {
    entries
        .iter()
        .map(|e| (e.itemset().clone(), e.true_support, e.sanitized))
        .collect()
}

fn flat_release(r: &SanitizedRelease) -> FlatRelease {
    r.iter()
        .map(|e| (e.itemset().clone(), e.true_support, e.sanitized))
        .collect()
}

fn flat_delta(d: &ReleaseDelta) -> FlatDelta {
    (
        flat_entries(&d.added),
        flat_entries(&d.changed),
        d.removed.iter().map(|id| id.resolve().clone()).collect(),
    )
}

struct Run {
    releases: Vec<FlatRelease>,
    deltas: Vec<FlatDelta>,
    dp_counters: Option<(u64, u64, u64)>,
}

/// Publish every window through one stateful publisher, checking the delta
/// chain invariants as it goes: each delta diffs against the previous
/// release exactly (`between`) and reconstructs the next one exactly
/// (`apply`).
fn run_engine(windows: &[FrequentItemsets], incremental: bool) -> Run {
    run_engine_under(spec(), windows, incremental)
}

fn run_engine_under(spec: PrivacySpec, windows: &[FrequentItemsets], incremental: bool) -> Run {
    let mut publisher = if incremental {
        Publisher::new_incremental(spec, scheme(), 77)
    } else {
        Publisher::new(spec, scheme(), 77)
    };
    let mut releases = Vec::new();
    let mut deltas = Vec::new();
    let mut prev = SanitizedRelease::new(Vec::new());
    for w in windows {
        let (r, d) = publisher.publish_with_delta(w);
        assert_eq!(
            d,
            ReleaseDelta::between(&prev, &r),
            "emitted delta is not the diff against the previous release"
        );
        assert_eq!(
            d.apply(&prev),
            r,
            "delta chain failed to reconstruct the release"
        );
        releases.push(flat_release(&r));
        deltas.push(flat_delta(&d));
        prev = r;
    }
    Run {
        releases,
        deltas,
        dp_counters: publisher.incremental_stats(),
    }
}

/// The tentpole differential: batch and incremental publishers agree on
/// every release and every delta of a 100+-window random stream, at 1, 2,
/// and 8 threads, and the incremental DP cache actually engages.
#[test]
fn incremental_engine_is_bit_identical_to_batch_at_every_thread_count() {
    let windows = collect_windows();
    assert!(windows.len() >= 100, "suite must cover 100+ windows");
    assert!(
        windows.windows(2).any(|w| w[0] != w[1]),
        "stream never churned; the differential would be vacuous"
    );
    assert!(
        windows.iter().all(|w| !w.is_empty()),
        "a window mined nothing; pick a denser profile"
    );

    pool::set_threads(1);
    let base_batch = run_engine(&windows, false);
    let base_incr = run_engine(&windows, true);
    assert_eq!(
        base_batch.releases, base_incr.releases,
        "incremental releases diverged from batch at 1 thread"
    );
    assert_eq!(
        base_batch.deltas, base_incr.deltas,
        "incremental deltas diverged from batch at 1 thread"
    );
    assert!(base_batch.dp_counters.is_none(), "batch has no DP cache");
    let (reuse, warm, full) = base_incr.dp_counters.expect("incremental publisher");
    assert!(
        reuse + warm > 0,
        "DP cache never engaged on a ~97%-overlap stream (reuse {reuse}, warm {warm}, full {full})"
    );

    for threads in [2usize, 8] {
        pool::set_threads(threads);
        let batch = run_engine(&windows, false);
        let incr = run_engine(&windows, true);
        assert_eq!(
            batch.releases, base_batch.releases,
            "batch releases changed at {threads} threads"
        );
        assert_eq!(
            incr.releases, base_incr.releases,
            "incremental releases changed at {threads} threads"
        );
        assert_eq!(
            incr.deltas, base_incr.deltas,
            "incremental deltas changed at {threads} threads"
        );
        assert_eq!(
            incr.dp_counters, base_incr.dp_counters,
            "cache decisions must be thread-count independent"
        );
    }

    // Leave the process-wide pool setting as other tests expect it.
    pool::set_threads(0);
}

/// The serve contract's shape — W 2000, C 25, a slide of 100 — where the
/// sequence above (all but five records shared between neighbours) never
/// goes: a twentieth of the window turns over per publication, the churn
/// sits at the front of the support-ascending chain, and most solves restart
/// from layer 0 with a splice further up. Batch and incremental must still
/// agree on every release and delta.
#[test]
fn incremental_engine_is_bit_identical_to_batch_at_a_slide_of_100() {
    let spec = PrivacySpec::new(25, 5, 0.016, 0.4);
    let windows = collect(spec, 2000, 100, 24);
    assert!(windows.windows(2).all(|w| w[0] != w[1]));
    let batch = run_engine_under(spec, &windows, false);
    let incr = run_engine_under(spec, &windows, true);
    assert_eq!(batch.releases, incr.releases);
    assert_eq!(batch.deltas, incr.deltas);
    let (_, warm, full) = incr.dp_counters.expect("incremental publisher");
    assert!(
        full > 0 && warm > 0,
        "the slide must exercise both restart kinds (warm {warm}, full {full})"
    );
}

/// The delta-maintained FEC index tracks the batch partition over the whole
/// window sequence (release-build coverage for what the engine
/// `debug_assert`s on every publish).
#[test]
fn fec_index_tracks_batch_partition_across_the_stream() {
    let windows = collect_windows();
    let mut idx = FecIndex::new();
    let mut churn_total = 0usize;
    for w in &windows {
        churn_total += idx.update(w).total();
        assert_eq!(idx.fecs(), partition_into_fecs(w));
    }
    assert!(churn_total > 0, "no churn; the maintenance is untested");
}
