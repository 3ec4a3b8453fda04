//! Differential suite for the release engine: over 100+ published windows
//! of a random stream, the `Publisher` (one long-lived object keeping
//! Algorithm 1's buffers from window to window, publishing against the
//! stream's `PublicationHistory`) must be **bit-identical** to the
//! from-scratch reference publication (`bfly_bench::publish_from_scratch`)
//! — same releases, same deltas, under every scheme. The delta the
//! history's one pass makes (the pipeline's) must equal the two-release
//! diff (`bfly_bench::delta_between`) and reconstruct every release exactly
//! (`bfly_bench::apply_delta`), for every defense, and a restored history
//! must let a fresh defense continue as if the stream had never stopped.

use bfly_bench::{apply_delta, delta_between, publish_from_scratch};
use butterfly_repro::butterfly::{
    BiasScheme, DefenseKind, DefenseSpec, PrivacySpec, PublicationHistory, Publisher, ReleaseDelta,
    SanitizedItemset, SanitizedRelease, StreamPipeline,
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

/// The paper's contract (W 2000, C 25, ε 0.016).
fn paper_spec() -> PrivacySpec {
    PrivacySpec::new(25, 5, 0.016, 0.4)
}

/// Sixty consecutive windows of the paper's contract, one record apart:
/// neighbours differ in a handful of supports or in none.
fn collect_slide_one() -> Vec<FrequentItemsets> {
    collect(paper_spec(), 2000, 1, 60)
}

/// The closed frequent itemsets at `count` positions of a `window`-record
/// sliding window over WebView1, `step` records apart.
fn collect(spec: PrivacySpec, window: usize, step: usize, count: usize) -> Vec<FrequentItemsets> {
    let mut pipe =
        StreamPipeline::new(window, Box::new(Publisher::new(spec, BiasScheme::Basic, 1)));
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
        d.removed.iter().map(|id| (**id).clone()).collect(),
    )
}

#[derive(Debug, PartialEq)]
struct Run {
    releases: Vec<FlatRelease>,
    deltas: Vec<FlatDelta>,
}

/// Publish every window through one publisher and one history, checking
/// the delta chain invariants as it goes: each delta diffs against the
/// previous release exactly (`delta_between`) and reconstructs the next one
/// exactly (`apply_delta`).
fn run_engine(spec: PrivacySpec, scheme: BiasScheme, windows: &[FrequentItemsets]) -> Run {
    let mut publisher = Publisher::new(spec, scheme, SEED);
    let mut history = PublicationHistory::default();
    let mut releases = Vec::new();
    let mut deltas = Vec::new();
    let mut prev = SanitizedRelease::default();
    for (i, w) in windows.iter().enumerate() {
        let r = publisher.publish(w, &history);
        let d = history.record(&r, i as u64 + 1);
        assert_chains(&prev, &r, &d);
        releases.push(flat_release(&r));
        deltas.push(flat_delta(&d));
        prev = r;
    }
    Run { releases, deltas }
}

/// `delta` is `next`'s diff against `prev` and rebuilds `next` from it.
fn assert_chains(prev: &SanitizedRelease, next: &SanitizedRelease, delta: &ReleaseDelta) {
    assert_eq!(
        *delta,
        delta_between(prev, next),
        "emitted delta is not the diff against the previous release"
    );
    assert_eq!(
        apply_delta(prev, delta),
        *next,
        "delta chain failed to reconstruct the release"
    );
}

/// The same sequence through the from-scratch reference, which carries
/// nothing between windows but the previous release.
fn run_reference(spec: PrivacySpec, scheme: BiasScheme, windows: &[FrequentItemsets]) -> Run {
    let mut releases = Vec::new();
    let mut deltas = Vec::new();
    let mut prev = SanitizedRelease::default();
    for (position, w) in (0u64..).zip(windows) {
        let r = publish_from_scratch(&spec, &scheme, SEED, position, &prev, w);
        releases.push(flat_release(&r));
        deltas.push(flat_delta(&delta_between(&prev, &r)));
        prev = r;
    }
    Run { releases, deltas }
}

/// The tentpole differential: engine and reference agree on every release
/// and every delta of a 100+-window random stream, and of sixty slide-1
/// windows of the paper's contract, under each of the paper's schemes.
#[test]
fn engine_matches_reference_on_random_and_slide_one_streams() {
    let windows = collect_windows();
    assert!(windows.len() >= 100, "suite must cover 100+ windows");
    let slide_one = collect_slide_one();
    for (spec, windows) in [(spec(), &windows), (paper_spec(), &slide_one)] {
        assert!(
            windows.windows(2).any(|w| w[0] != w[1]),
            "stream never churned; the differential would be vacuous"
        );
        assert!(
            windows.iter().all(|w| !w.is_empty()),
            "a window mined nothing; pick a denser profile"
        );
        for scheme in BiasScheme::paper_variants(2) {
            assert_eq!(
                run_engine(spec, scheme, windows),
                run_reference(spec, scheme, windows),
                "{}: engine diverged from the reference",
                scheme.name()
            );
        }
    }
}

/// The serve contract's shape — W 2000, C 25, a slide of 100 — where the
/// sequences above (all but a few records shared between neighbours) never
/// go: a twentieth of the window turns over per publication and the churn
/// sits at the front of the support-ascending chain. Engine and reference
/// must still agree on every release and delta.
#[test]
fn incremental_engine_is_bit_identical_to_batch_at_a_slide_of_100() {
    let spec = paper_spec();
    let windows = collect(spec, 2000, 100, 24);
    assert!(windows.windows(2).all(|w| w[0] != w[1]));
    for scheme in BiasScheme::paper_variants(2) {
        assert_eq!(
            run_engine(spec, scheme, &windows),
            run_reference(spec, scheme, &windows),
            "{}",
            scheme.name()
        );
    }
}

/// What WAL recovery relies on, without a process in between: a fresh
/// defense given the history `restored` from release *i* publishes the rest
/// of the sequence byte-identically to the one that produced release *i*
/// and kept going. Every defense's deltas chain on the way.
#[test]
fn a_defense_restored_mid_sequence_continues_byte_identically() {
    let scheme = BiasScheme::Hybrid {
        lambda: 0.4,
        gamma: 2,
    };
    for (spec, windows) in [
        (spec(), collect_windows()),
        (paper_spec(), collect_slide_one()),
    ] {
        for kind in DefenseKind::ALL {
            let build = || DefenseSpec::new(kind).build(spec, scheme, SEED);
            let mut uninterrupted = build();
            let mut history = PublicationHistory::default();
            let mut prev = SanitizedRelease::default();
            let mut published: Vec<(SanitizedRelease, ReleaseDelta)> = Vec::new();
            for (i, w) in windows.iter().enumerate() {
                let r = uninterrupted.publish(w, &history);
                let d = history.record(&r, i as u64 + 1);
                assert_chains(&prev, &r, &d);
                prev = r.clone();
                published.push((r, d));
            }
            for stop in [0, windows.len() / 2] {
                let mut restored = build();
                let n = stop as u64 + 1;
                let mut history =
                    PublicationHistory::restored(n, n, published[stop].0.iter().cloned());
                for (i, w) in windows.iter().enumerate().skip(stop + 1) {
                    let r = restored.publish(w, &history);
                    let d = history.record(&r, i as u64 + 1);
                    assert_eq!(
                        (flat_release(&r), flat_delta(&d)),
                        (flat_release(&published[i].0), flat_delta(&published[i].1)),
                        "{kind}: restored after window {stop}, diverged at window {i}"
                    );
                }
            }
        }
    }
}
