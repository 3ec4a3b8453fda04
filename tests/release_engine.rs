//! Differential suite for the release engine: over 100+ published windows
//! of a random stream, the `Publisher` (FEC index delta-maintained across
//! windows, order DP warm-started from the previous window's layers) must be
//! **bit-identical** to the from-scratch reference publication
//! (`bfly_bench::publish_from_scratch`) — same releases, same deltas, under
//! every scheme and at every thread count — the delta chain must
//! reconstruct every release exactly, and a defense restored mid-sequence
//! must continue as if it had never stopped.

use bfly_bench::publish_from_scratch;
use butterfly_repro::butterfly::{
    partition_into_fecs, BiasScheme, DefenseKind, DefenseSpec, EngineStats, FecIndex, PrivacySpec,
    Publisher, ReleaseDelta, SanitizedItemset, SanitizedRelease, StreamPipeline,
};
use butterfly_repro::common::{ItemSet, SanitizedSupport, Support};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::mining::FrequentItemsets;

const WINDOW: usize = 150;
const STEP: usize = 5;
const WINDOWS: usize = 104;
const SEED: u64 = 77;

fn spec() -> PrivacySpec {
    PrivacySpec::new(10, 3, 0.1, 0.5)
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

#[derive(Debug, PartialEq)]
struct Run {
    releases: Vec<FlatRelease>,
    deltas: Vec<FlatDelta>,
}

/// Publish every window through one stateful publisher, checking the delta
/// chain invariants as it goes: each delta diffs against the previous
/// release exactly (`between`) and reconstructs the next one exactly
/// (`apply`).
fn run_engine(
    spec: PrivacySpec,
    scheme: BiasScheme,
    windows: &[FrequentItemsets],
) -> (Run, EngineStats) {
    let mut publisher = Publisher::new(spec, scheme, SEED);
    let mut releases = Vec::new();
    let mut deltas = Vec::new();
    let mut prev = SanitizedRelease::default();
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
    (Run { releases, deltas }, publisher.engine_stats())
}

/// The same sequence through the from-scratch reference, which carries
/// nothing between windows but the previous release.
fn run_reference(spec: PrivacySpec, scheme: BiasScheme, windows: &[FrequentItemsets]) -> Run {
    let mut releases = Vec::new();
    let mut deltas = Vec::new();
    let mut prev = SanitizedRelease::default();
    for w in windows {
        let r = publish_from_scratch(&spec, &scheme, SEED, &prev, w);
        releases.push(flat_release(&r));
        deltas.push(flat_delta(&ReleaseDelta::between(&prev, &r)));
        prev = r;
    }
    Run { releases, deltas }
}

fn runs_the_order_dp(scheme: BiasScheme) -> bool {
    matches!(
        scheme,
        BiasScheme::OrderPreserving { .. } | BiasScheme::Hybrid { .. }
    )
}

/// The tentpole differential: engine and reference agree on every release
/// and every delta of a 100+-window random stream under each of the paper's
/// schemes, and the DP cache actually engages. (The release path is serial;
/// the name dates from when the order DP ran on the pool.)
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

    for scheme in BiasScheme::paper_variants(2) {
        let name = scheme.name();
        let reference = run_reference(spec(), scheme, &windows);
        let (base, base_stats) = run_engine(spec(), scheme, &windows);
        assert_eq!(
            base, reference,
            "{name}: engine diverged from the reference"
        );
        if runs_the_order_dp(scheme) {
            assert!(
                base_stats.dp_full_reuse + base_stats.dp_warm_starts > 0,
                "{name}: DP cache never engaged on a ~97%-overlap stream ({base_stats:?})"
            );
        }
    }
}

/// The serve contract's shape — W 2000, C 25, a slide of 100 — where the
/// sequence above (all but five records shared between neighbours) never
/// goes: a twentieth of the window turns over per publication, the churn
/// sits at the front of the support-ascending chain, and most solves restart
/// from layer 0 with a splice further up. Engine and reference must still
/// agree on every release and delta.
#[test]
fn incremental_engine_is_bit_identical_to_batch_at_a_slide_of_100() {
    let spec = PrivacySpec::new(25, 5, 0.016, 0.4);
    let windows = collect(spec, 2000, 100, 24);
    assert!(windows.windows(2).all(|w| w[0] != w[1]));
    for scheme in BiasScheme::paper_variants(2) {
        let (run, stats) = run_engine(spec, scheme, &windows);
        assert_eq!(
            run,
            run_reference(spec, scheme, &windows),
            "{}",
            scheme.name()
        );
        if runs_the_order_dp(scheme) {
            assert!(
                stats.dp_full_solves > 0 && stats.dp_warm_starts > 0,
                "{}: the slide must exercise both restart kinds ({stats:?})",
                scheme.name()
            );
        }
    }
}

/// What WAL recovery relies on, without a process in between: a fresh
/// defense `restore`d from release *i* publishes the rest of the sequence
/// byte-identically to the one that produced release *i* and kept going.
#[test]
fn a_defense_restored_mid_sequence_continues_byte_identically() {
    let windows = collect_windows();
    let scheme = BiasScheme::Hybrid {
        lambda: 0.4,
        gamma: 2,
    };
    for kind in DefenseKind::ALL {
        let build = || DefenseSpec::new(kind).build(spec(), scheme, SEED);
        let mut uninterrupted = build();
        let published: Vec<(SanitizedRelease, ReleaseDelta)> = windows
            .iter()
            .map(|w| uninterrupted.publish_with_delta(w))
            .collect();
        for stop in [0, WINDOWS / 2] {
            let mut restored = build();
            restored.restore(stop as u64 + 1, &published[stop].0);
            for (i, w) in windows.iter().enumerate().skip(stop + 1) {
                let (r, d) = restored.publish_with_delta(w);
                assert_eq!(
                    (flat_release(&r), flat_delta(&d)),
                    (flat_release(&published[i].0), flat_delta(&published[i].1)),
                    "{kind}: restored after window {stop}, diverged at window {i}"
                );
            }
        }
    }
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
