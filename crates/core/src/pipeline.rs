//! End-to-end stream pipeline: window → Moment → privacy defense → one pass
//! over the release against the stream's [`PublicationHistory`], of which
//! the pipeline is the only owner.

use crate::audit::{audit_release, AuditError};
use crate::defense::{DefenseKind, PrivacyDefense};
use crate::engine::ReleaseDelta;
use crate::history::PublicationHistory;
use crate::release::SanitizedRelease;
use bfly_common::{Error, Item, Result, Transaction};
use bfly_mining::{FrequentItemsets, MinerBackend, MomentMiner};
use std::collections::HashSet;

/// One published window: the miner's (true) closed frequent itemsets and the
/// sanitized release the outside world sees.
#[derive(Clone, Debug)]
pub struct WindowRelease {
    /// Stream position `N` of the window `Ds(N, H)`.
    pub stream_len: u64,
    /// Ground-truth closed frequent itemsets (evaluation only).
    pub closed: FrequentItemsets,
    /// The sanitized publication.
    pub release: SanitizedRelease,
    /// What changed against the previous emitted release of this stream —
    /// the serve layer's `release_delta` payload. Empty from a pipeline
    /// that ships no deltas ([`StreamPipeline::with_deltas`]).
    pub delta: ReleaseDelta,
}

/// Glue object running the full deployment of Fig. 1's last step: the
/// sliding window `Ds(N, H)` feeds the paper's host miner, Moment, which
/// keeps the window's closed frequent itemsets as exact window counts; each
/// full window's itemsets pass through a [`PrivacyDefense`].
///
/// Moment's ring is the window's one copy. The pipeline keeps only the
/// counters `N` and `min(N, H)`: each arrival removes tid `N − H` from the
/// miner and inserts the new transaction under tid `N`, and
/// [`StreamPipeline::window`] reads the contents back from the ring. The
/// miner's tree is settled only at a publication, in one walk for every
/// arrival and departure since the last one.
///
/// Each publication hands the window's itemsets and the history to the
/// defense, then makes one pass over the release against the history: the
/// pin audit, the delta, and the next history, which replaces the old one
/// only if the release passes. So a withheld release leaves no trace: the
/// next delta's base is the last release emitted, and a WAL replay that
/// steps over the withheld position rebuilds the same history.
///
/// The defense is a `Box<dyn PrivacyDefense>`: every deployment picks one
/// at runtime (`--defense`, the serve layer's per-key `bind`), and the one
/// dispatch per publication is noise beside mining and sanitizing a window.
#[derive(Debug)]
pub struct StreamPipeline {
    /// The window size `H`.
    capacity: usize,
    /// Records in the window: `min(N, H)`, counting `N` from the last
    /// [`StreamPipeline::set_stream_base`].
    len: usize,
    /// Records seen, `N`: the tid of the newest.
    stream_len: u64,
    miner: MomentMiner,
    defense: Box<dyn PrivacyDefense>,
    /// The previous emitted release, read by the defense and the delta.
    history: PublicationHistory,
    /// Records fed since the last publication — the cadence counter callers
    /// (CLI `--every`, the serve shards) consult, and what
    /// [`StreamPipeline::flush`] uses to decide whether a drain still owes
    /// the subscribers a release.
    since_publish: usize,
    /// Release entries that failed the contract audit (their releases were
    /// withheld).
    audit_violations: u64,
    /// Whether each publication's [`WindowRelease::delta`] is made.
    deltas: bool,
}

impl StreamPipeline {
    /// Build a pipeline over a window of `window_size` records. The
    /// defense's spec supplies the miner's minimum support `C`.
    ///
    /// # Panics
    /// If `window_size == 0`.
    pub fn new(window_size: usize, defense: Box<dyn PrivacyDefense>) -> Self {
        assert!(window_size > 0, "window capacity must be positive");
        StreamPipeline {
            capacity: window_size,
            len: 0,
            stream_len: 0,
            miner: MomentMiner::new(defense.spec().c()),
            defense,
            history: PublicationHistory::default(),
            since_publish: 0,
            audit_violations: 0,
            deltas: true,
        }
    }

    /// Make each publication's [`WindowRelease::delta`] (the default), or,
    /// for an owner that ships only full releases, leave it empty: the pass
    /// over the release then clones no entry.
    pub fn with_deltas(mut self, deltas: bool) -> Self {
        self.deltas = deltas;
        self
    }

    /// Records seen so far.
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// Feed one transaction without publishing (cheap advance between
    /// publication points). Its tid is assigned from the stream position.
    pub fn advance(&mut self, t: Transaction) {
        self.advance_items(t.items().items());
    }

    /// [`StreamPipeline::advance`] from a borrowed transaction, e.g. one of
    /// an [`bfly_common::IngestChunk`]'s: `items` ascending, no duplicates.
    pub fn advance_items(&mut self, items: &[Item]) {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "transaction not canonical: {items:?}"
        );
        self.stream_len += 1;
        if self.len == self.capacity {
            self.miner.remove(self.stream_len - self.capacity as u64);
        } else {
            self.len += 1;
        }
        self.miner.insert(self.stream_len, items);
        self.since_publish += 1;
    }

    /// Records fed since the last publication (or since the stream began,
    /// before the first one).
    pub fn since_publish(&self) -> usize {
        self.since_publish
    }

    /// The publication cadence: the window is full and at least `every`
    /// records arrived since the last publication. Every cadence-driven
    /// caller publishes exactly when this holds, checked after each record.
    pub fn due(&self, every: usize) -> bool {
        self.window().is_full() && self.since_publish >= every
    }

    /// The drain rule: the window is full and records arrived since the last
    /// publication — the stream still owes its subscribers a release.
    pub fn owes(&self) -> bool {
        self.due(1)
    }

    /// Drain hook: publish the window iff it [`owes`](Self::owes) a
    /// release. Returns `None` both for a window that never filled (partial
    /// windows are unpublishable by design — their supports are not
    /// comparable to full-window ones and would leak the warm-up phase) and
    /// for a stream already published up to date.
    pub fn flush(&mut self) -> Option<WindowRelease> {
        if !self.owes() {
            return None;
        }
        self.publish_now().ok()
    }

    /// Publish the current window: mine it, sanitize it, and audit the
    /// release — the one publication call, behind [`StreamPipeline::flush`]
    /// and every cadence loop. The audit runs in every build on a
    /// [`DefenseKind::Butterfly`] defense: a release with an entry outside
    /// its legal region, or one breaking the republication pins or a FEC's
    /// shared value ([`crate::audit`]), never reaches a caller and leaves
    /// the history as it was.
    ///
    /// # Errors
    /// [`Error::PartialWindow`] when the window has not filled yet — a
    /// partial window's supports are not comparable to full-window ones, so
    /// publishing them would both skew utility and leak the warm-up phase.
    /// [`Error::ContractViolation`] when the defense is Butterfly and its
    /// release fails the audit; the release is withheld and counted in
    /// [`StreamPipeline::audit_violations`].
    pub fn publish_now(&mut self) -> Result<WindowRelease> {
        if !self.window().is_full() {
            return Err(Error::PartialWindow {
                have: self.len,
                need: self.capacity,
            });
        }
        self.since_publish = 0;
        self.miner.settle();
        let closed = self.miner.closed_frequent();
        let release = self.defense.publish(&closed, &self.history);
        let stream_len = self.stream_len;
        let mut errors = (self.defense.kind() == DefenseKind::Butterfly)
            .then(|| audit_release(self.defense.spec(), &release));
        let (delta, followed) = self.history.follow(&release, errors.as_mut(), self.deltas);
        let failing: HashSet<&str> = errors.iter().flatten().map(AuditError::itemset).collect();
        if !failing.is_empty() {
            self.audit_violations += failing.len() as u64;
            return Err(Error::ContractViolation {
                stream_len,
                violations: failing.len(),
            });
        }
        self.history.adopt(&release, stream_len, followed);
        Ok(WindowRelease {
            stream_len,
            closed,
            release,
            delta,
        })
    }

    /// Release entries that failed the contract audit so far; every release
    /// holding one was withheld.
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations
    }

    /// A read-only view of the live window's counters.
    pub fn window(&self) -> WindowView {
        WindowView {
            capacity: self.capacity,
            len: self.len,
            stream_len: self.stream_len,
        }
    }

    /// WAL-recovery hook: restart the stream counter at `base` so the next
    /// record fed is stream position `base + 1`.
    ///
    /// # Panics
    /// If a record was already fed: tids assigned from the old base would
    /// be inconsistent with the new one.
    pub fn set_stream_base(&mut self, base: u64) {
        assert!(
            self.len == 0,
            "set_base requires an empty window (len {})",
            self.len
        );
        self.stream_len = base;
    }

    /// The stream's publication history: releases emitted, the position of
    /// the last, and its `(true, sanitized)` pairs.
    pub fn history(&self) -> &PublicationHistory {
        &self.history
    }

    /// WAL-recovery hook: reinstate the stream's history once the window has
    /// been refilled, and zero the cadence counter. A snapshot is taken at a
    /// publication point (`since_publish == 0`), but the refill goes through
    /// [`StreamPipeline::advance`], which counts its records as pending.
    pub fn restore(&mut self, history: PublicationHistory) {
        self.history = history;
        self.since_publish = 0;
    }

    /// The defense driving the release path (e.g. to read Butterfly's
    /// engine counters or suppression's side-effect ledger after a run).
    pub fn defense(&self) -> &dyn PrivacyDefense {
        self.defense.as_ref()
    }

    /// The host miner (e.g. to read its rebuild count or tree size; its
    /// tree is settled only as of the last publication).
    pub fn miner(&self) -> &MomentMiner {
        &self.miner
    }
}

/// A read-only view of a [`StreamPipeline`]'s window `Ds(N, H)`: its
/// counters. The records are Moment's ring, the window's one copy.
#[derive(Clone, Copy, Debug)]
pub struct WindowView {
    capacity: usize,
    len: usize,
    stream_len: u64,
}

impl WindowView {
    /// The window size `H`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held (`min(N, H)`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the window holds `H` records.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Total records seen so far (`N`).
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrivacySpec;
    use crate::defense::PrivBasisDefense;
    use crate::engine::Publisher;
    use crate::release::SanitizedItemset;
    use crate::scheme::BiasScheme;
    use bfly_common::fixtures::fig2_stream;
    use bfly_datagen::DatasetProfile;

    /// Feed `t`, then publish if the window is full: every full window
    /// publishes.
    fn feed(pipe: &mut StreamPipeline, t: Transaction) -> Option<WindowRelease> {
        pipe.advance(t);
        pipe.flush()
    }

    #[test]
    fn publishes_only_full_windows() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let publisher = Publisher::new(spec, BiasScheme::Basic, 1);
        let mut pipe = StreamPipeline::new(8, Box::new(publisher));
        let mut published = 0;
        for (i, t) in fig2_stream().into_iter().enumerate() {
            match feed(&mut pipe, t) {
                Some(r) => {
                    published += 1;
                    assert!(i >= 7, "published before window filled");
                    assert_eq!(r.stream_len, i as u64 + 1);
                    assert_eq!(r.release.len(), r.closed.len());
                }
                None => assert!(i < 7),
            }
        }
        assert_eq!(published, 5); // N = 8..12
    }

    #[test]
    fn sanitized_supports_track_truth_within_alpha() {
        let spec = PrivacySpec::new(25, 5, 0.04, 0.4);
        let publisher = Publisher::new(
            spec,
            BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            3,
        );
        let mut pipe = StreamPipeline::new(500, Box::new(publisher));
        let mut src = DatasetProfile::WebView1.source(5);
        let mut releases = 0;
        for _ in 0..700 {
            if let Some(r) = feed(&mut pipe, src.next_transaction()) {
                releases += 1;
                for e in r.release.iter() {
                    assert!(e.true_support >= 25, "miner leaked sub-C itemset");
                    let err = (e.sanitized - e.true_support as i64).unsigned_abs();
                    // |bias| ≤ β^m ≤ √ε·t plus half the region width.
                    let budget = (spec.epsilon().sqrt() * e.true_support as f64).ceil() as u64
                        + spec.alpha() / 2
                        + 1;
                    assert!(err <= budget, "error {err} beyond budget {budget}");
                }
            }
        }
        assert!(releases > 0, "no window ever filled");
    }

    #[test]
    fn window_view_matches_the_sliding_window_model() {
        let spec = PrivacySpec::new(25, 5, 0.04, 0.4);
        let mut pipe =
            StreamPipeline::new(50, Box::new(Publisher::new(spec, BiasScheme::Basic, 3)));
        let mut model = bfly_common::SlidingWindow::new(50);
        let mut src = DatasetProfile::WebView1.source(9);
        for _ in 0..180 {
            let t = src.next_transaction();
            model.slide(t.clone());
            pipe.advance(t);
            let view = pipe.window();
            assert_eq!(
                (view.len(), view.is_full(), view.stream_len()),
                (model.len(), model.is_full(), model.stream_len())
            );
        }
    }

    #[test]
    fn publish_now_requires_full_window() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let mut pipe = StreamPipeline::new(8, Box::new(Publisher::new(spec, BiasScheme::Basic, 1)));
        for t in fig2_stream().into_iter().take(3) {
            pipe.advance(t);
        }
        match pipe.publish_now() {
            Err(Error::PartialWindow { have, need }) => {
                assert_eq!((have, need), (3, 8));
            }
            other => panic!("expected PartialWindow, got {other:?}"),
        }
    }

    #[test]
    fn flush_publishes_only_a_full_window_with_pending_records() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let publisher = Publisher::new(spec, BiasScheme::Basic, 1);
        let mut pipe = StreamPipeline::new(8, Box::new(publisher));
        let stream = fig2_stream();
        // Partial window: nothing to flush.
        for t in stream.iter().take(3).cloned() {
            pipe.advance(t);
        }
        assert_eq!(pipe.since_publish(), 3);
        assert!(
            !pipe.owes() && !pipe.due(1),
            "a partial window is never due"
        );
        assert!(pipe.flush().is_none(), "flushed a partial window");
        // Fill past the window without publishing: flush owes a release.
        for t in stream.iter().skip(3).cloned() {
            pipe.advance(t);
        }
        assert_eq!(pipe.since_publish(), stream.len());
        assert!(pipe.owes() && pipe.due(stream.len()) && !pipe.due(stream.len() + 1));
        let r = pipe.flush().expect("full window with pending records");
        assert_eq!(r.stream_len, stream.len() as u64);
        assert_eq!(pipe.since_publish(), 0);
        assert!(!pipe.owes() && pipe.due(0));
        // Published up to date: a second flush owes nothing.
        assert!(pipe.flush().is_none(), "flushed twice with no new records");
    }

    #[test]
    fn cadence_counter_resets_on_every_publication() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let publisher = Publisher::new(spec, BiasScheme::Basic, 1);
        let mut pipe = StreamPipeline::new(8, Box::new(publisher));
        for (i, t) in fig2_stream().into_iter().enumerate() {
            let released = feed(&mut pipe, t).is_some();
            assert_eq!(released, i >= 7);
            if released {
                assert_eq!(pipe.since_publish(), 0);
            } else {
                assert_eq!(pipe.since_publish(), i + 1);
            }
        }
        pipe.advance(Transaction::new(0, "ab".parse().unwrap()));
        assert_eq!(pipe.since_publish(), 1);
        pipe.publish_now().unwrap();
        assert_eq!(pipe.since_publish(), 0);
    }

    /// A defense that claims the Butterfly contract and breaks it on its
    /// `lie_on`-th publication: one entry lands far outside any legal region.
    #[derive(Debug)]
    struct Liar {
        inner: Publisher,
        lie_on: u64,
        calls: u64,
    }

    impl PrivacyDefense for Liar {
        fn kind(&self) -> crate::DefenseKind {
            crate::DefenseKind::Butterfly
        }
        fn spec(&self) -> &PrivacySpec {
            PrivacyDefense::spec(&self.inner)
        }
        fn publish(
            &mut self,
            frequent: &FrequentItemsets,
            history: &PublicationHistory,
        ) -> SanitizedRelease {
            let release = self.inner.publish(frequent, history);
            self.calls += 1;
            if self.calls != self.lie_on {
                return release;
            }
            let mut entries: Vec<_> = release.iter().cloned().collect();
            entries[0].sanitized += 10_000;
            SanitizedRelease::new(entries)
        }
    }

    #[test]
    fn a_release_failing_the_audit_is_withheld_and_counted() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let liar = |lie_on| Liar {
            inner: Publisher::new(spec, BiasScheme::Basic, 1),
            lie_on,
            calls: 0,
        };
        // Every full window: N = 8..12 publish; the second one lies.
        let mut pipe = StreamPipeline::new(8, Box::new(liar(2)));
        let published: Vec<u64> = fig2_stream()
            .into_iter()
            .filter_map(|t| feed(&mut pipe, t))
            .map(|r| r.stream_len)
            .collect();
        assert_eq!(published, [8, 10, 11, 12]);
        assert_eq!(pipe.audit_violations(), 1);
        assert_eq!(pipe.since_publish(), 0);

        // publish_now(): the first publication lies, the next is clean.
        let mut pipe = StreamPipeline::new(8, Box::new(liar(1)));
        for t in fig2_stream().into_iter().take(8) {
            pipe.advance(t);
        }
        match pipe.publish_now() {
            Err(Error::ContractViolation {
                stream_len,
                violations,
            }) => assert_eq!((stream_len, violations), (8, 1)),
            other => panic!("expected ContractViolation, got {other:?}"),
        }
        assert_eq!(pipe.audit_violations(), 1);
        assert!(pipe.publish_now().is_ok());
        assert_eq!(pipe.audit_violations(), 1);
    }

    /// Claims the Butterfly contract but keeps no pins: each window is
    /// published by a fresh [`Publisher`] seeded by its index, over an empty
    /// history, so an unchanged support is redrawn.
    #[derive(Debug)]
    struct Redraws {
        spec: PrivacySpec,
    }

    impl PrivacyDefense for Redraws {
        fn kind(&self) -> crate::DefenseKind {
            crate::DefenseKind::Butterfly
        }
        fn spec(&self) -> &PrivacySpec {
            &self.spec
        }
        fn publish(
            &mut self,
            frequent: &FrequentItemsets,
            history: &PublicationHistory,
        ) -> SanitizedRelease {
            let mut fresh = Publisher::new(self.spec, BiasScheme::Basic, history.published());
            fresh.publish(frequent, &PublicationHistory::default())
        }
    }

    /// Claims the Butterfly contract but draws noise per itemset: every
    /// unpinned entry gets its own draw from the region the [`Publisher`]
    /// would have used, from the noise rule with the itemset's content hash
    /// as its class, so each value stays in range but FEC-mates split.
    #[derive(Debug)]
    struct PerItemset {
        inner: Publisher,
    }

    impl PrivacyDefense for PerItemset {
        fn kind(&self) -> crate::DefenseKind {
            crate::DefenseKind::Butterfly
        }
        fn spec(&self) -> &PrivacySpec {
            PrivacyDefense::spec(&self.inner)
        }
        fn publish(
            &mut self,
            frequent: &FrequentItemsets,
            history: &PublicationHistory,
        ) -> SanitizedRelease {
            let alpha = self.spec().alpha();
            let entries = self
                .inner
                .publish(frequent, history)
                .iter()
                .map(|e| match history.pinned(&e.id, e.true_support) {
                    Some(_) => e.clone(),
                    None => {
                        let class = crate::noise::content_hash(e.itemset());
                        let mut rng = crate::noise::noise_rng(0, history.published(), class);
                        let noise = crate::NoiseRegion::centered(0.0, alpha).sample(&mut rng);
                        SanitizedItemset {
                            sanitized: e.true_support as i64 + noise,
                            ..e.clone()
                        }
                    }
                })
                .collect();
            SanitizedRelease::new(entries)
        }
    }

    /// Feed `stream` into a window of 500 under `defense`, publishing every
    /// 5 records once full: (stream positions emitted, audit findings).
    fn run_audited(
        defense: impl PrivacyDefense + 'static,
        stream: &[Transaction],
    ) -> (Vec<u64>, u64) {
        let mut pipe = StreamPipeline::new(500, Box::new(defense));
        let mut emitted = Vec::new();
        for t in stream {
            pipe.advance(t.clone());
            if pipe.due(5) {
                if let Ok(r) = pipe.publish_now() {
                    assert_eq!(r.release.len(), r.closed.len());
                    emitted.push(r.stream_len);
                }
            }
        }
        (emitted, pipe.audit_violations())
    }

    #[test]
    fn the_pin_audit_withholds_redrawn_pins_and_split_classes() {
        // Runs in release builds too (`cargo test --release`): the audit is
        // not a debug assertion.
        let spec = PrivacySpec::new(25, 5, 0.04, 0.4);
        let mut src = DatasetProfile::WebView1.source(5);
        let stream: Vec<Transaction> = (0..520).map(|_| src.next_transaction()).collect();
        let honest = run_audited(Publisher::new(spec, BiasScheme::Basic, 3), &stream);
        assert_eq!(honest.0, [500, 505, 510, 515, 520]);
        assert_eq!(honest.1, 0);

        // Its first window has no pins to break and passes; every later one
        // redraws supports unchanged since that release.
        let (emitted, findings) = run_audited(Redraws { spec }, &stream);
        assert_eq!(emitted, [500]);
        assert!(findings >= 4, "{findings}");

        // Every window holds a FEC of two or more unpinned members, and
        // with nothing emitted, nothing is ever pinned.
        let inner = Publisher::new(spec, BiasScheme::Basic, 3);
        let (emitted, findings) = run_audited(PerItemset { inner }, &stream);
        assert_eq!(emitted, [] as [u64; 0]);
        assert!(findings >= 5, "{findings}");
    }

    #[test]
    fn only_a_butterfly_kind_release_is_audited() {
        // PrivBasis's Laplace counts promise no α-region, and at a small
        // budget some land outside every Butterfly region; the pipeline
        // emits them all the same.
        let spec = PrivacySpec::new(25, 5, 0.04, 0.4);
        let stream = DatasetProfile::WebView1.source(5).take_vec(520);
        let defense = PrivBasisDefense::new(spec, 0.1, 40, 7);
        let mut pipe = StreamPipeline::new(500, Box::new(defense));
        let mut failing = Vec::new();
        for t in stream {
            pipe.advance(t);
            if pipe.due(5) {
                let r = pipe.publish_now().expect("a PrivBasis release is emitted");
                failing.push(audit_release(&spec, &r.release).len());
            }
        }
        assert_eq!(failing.len(), 5);
        assert!(failing.iter().any(|&n| n > 0), "{failing:?}");
        assert_eq!(pipe.audit_violations(), 0);
    }

    #[test]
    fn a_withheld_release_leaves_the_history_untouched() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let mut pipe = StreamPipeline::new(
            8,
            Box::new(Liar {
                inner: Publisher::new(spec, BiasScheme::Basic, 1),
                lie_on: 2,
                calls: 0,
            }),
        );
        let stream = fig2_stream();
        for t in stream.iter().take(8).cloned() {
            pipe.advance(t);
        }
        let first = pipe.publish_now().unwrap();
        pipe.advance(stream[8].clone());
        assert!(pipe.publish_now().is_err(), "the lie is withheld");
        assert_eq!(
            (pipe.history().published(), pipe.history().stream_len()),
            (1, 8)
        );
        pipe.advance(stream[9].clone());
        let third = pipe.publish_now().unwrap();
        assert_eq!(
            (pipe.history().published(), pipe.history().stream_len()),
            (2, 10)
        );
        // The delta is taken against the last release emitted, not the
        // withheld one.
        let mut expect = PublicationHistory::default();
        expect.record(&first.release, 8);
        assert_eq!(third.delta, expect.record(&third.release, 10));
    }

    /// `release`'s entries, each itemset in a fresh `Arc`.
    fn fresh_arcs(release: &SanitizedRelease) -> Vec<SanitizedItemset> {
        let fresh = |e: &SanitizedItemset| SanitizedItemset {
            id: bfly_common::ItemsetId::new((*e.id).clone()),
            ..e.clone()
        };
        release.iter().map(fresh).collect()
    }

    /// The entries of `next` whose true support is the one `prev` published
    /// them with, counted by whether they hold `prev`'s `Arc` (a pin found
    /// by address) or another one (found by content).
    fn pins_by_path(prev: &SanitizedRelease, next: &SanitizedRelease) -> (usize, usize) {
        let prev: std::collections::HashMap<_, _> = prev.iter().map(|e| (e.itemset(), e)).collect();
        let mut paths = (0, 0);
        for e in next.iter() {
            match prev.get(e.itemset()) {
                Some(p) if p.true_support == e.true_support => {
                    if std::sync::Arc::ptr_eq(&p.id, &e.id) {
                        paths.0 += 1;
                    } else {
                        paths.1 += 1;
                    }
                }
                _ => {}
            }
        }
        paths
    }

    /// Feed `stream` to `pipe` and to `twin`, a pipeline of the same
    /// defense, publishing both every `every` records once full. Before each
    /// publication, `twin`'s history is restored from its last emitted
    /// release in fresh `Arc`s (what WAL recovery does from a snapshot), so
    /// it finds every pin by content, as every lookup did before pins were
    /// found by address. Both must publish the same releases and deltas and
    /// withhold the same windows. Returns the unchanged-support entries
    /// found by address and by content, summed, of `pipe` and of `twin`,
    /// and the releases withheld.
    fn matches_its_content_twin(
        mut pipe: StreamPipeline,
        mut twin: StreamPipeline,
        stream: &[Transaction],
        every: usize,
    ) -> ((usize, usize), (usize, usize), u64) {
        let add = |sum: &mut (usize, usize), (a, c)| *sum = (sum.0 + a, sum.1 + c);
        let (mut ours_paths, mut twin_paths) = ((0, 0), (0, 0));
        let mut last = None::<(SanitizedRelease, SanitizedRelease)>;
        for t in stream {
            pipe.advance(t.clone());
            twin.advance(t.clone());
            if !pipe.due(every) {
                continue;
            }
            if let Some((_, fresh)) = &last {
                let h = twin.history();
                let entries = fresh.iter().cloned();
                twin.restore(PublicationHistory::restored(
                    h.published(),
                    h.stream_len(),
                    entries,
                ));
            }
            match (pipe.publish_now(), twin.publish_now()) {
                (Ok(ours), Ok(theirs)) => {
                    assert_eq!(ours.release, theirs.release, "at {}", ours.stream_len);
                    assert_eq!(ours.delta, theirs.delta, "at {}", ours.stream_len);
                    if let Some((prev, fresh)) = &last {
                        add(&mut ours_paths, pins_by_path(prev, &ours.release));
                        add(&mut twin_paths, pins_by_path(fresh, &theirs.release));
                    }
                    let fresh = SanitizedRelease::new(fresh_arcs(&ours.release));
                    last = Some((ours.release, fresh));
                }
                (Err(_), Err(_)) => {}
                (ours, theirs) => panic!("withheld on one side: {ours:?} / {theirs:?}"),
            }
        }
        assert_eq!(pipe.audit_violations(), twin.audit_violations());
        (ours_paths, twin_paths, pipe.audit_violations())
    }

    fn hybrid() -> BiasScheme {
        BiasScheme::Hybrid {
            lambda: 0.4,
            gamma: 2,
        }
    }

    #[test]
    fn pins_hold_across_moment_rebuilds_by_the_arc_the_rebuild_kept() {
        // POS at W 500, published every 250: each settle rebuilds the tree,
        // and the read-out finds each surviving closed set's `Arc` again.
        let spec = PrivacySpec::new(20, 5, 0.016, 0.4);
        let stream = DatasetProfile::Pos.source(4).take_vec(6_000);
        let pipe = || StreamPipeline::new(500, Box::new(Publisher::new(spec, hybrid(), 9)));
        let ((by_addr, by_content), _, withheld) =
            matches_its_content_twin(pipe(), pipe(), &stream, 250);
        assert_eq!(withheld, 0);
        assert!(by_addr > 100, "{by_addr} pins found by address");
        assert_eq!(
            by_content, 0,
            "a rebuild kept every surviving closed set's Arc"
        );
    }

    #[test]
    fn pins_hold_under_a_new_arc_after_a_restore() {
        // The publish_live shape at W 500: walks and a re-rank a turnover.
        // Between two publications one settle runs, and a closed set that
        // survives it keeps its node, so nearly every pin is found by
        // address (a re-rank between two settles drops the `Arc` of a node
        // it finds unpromising, which the next arrivals may bring back).
        // The twin, restored before each publication as recovery restores
        // a snapshot, finds every pin by content and publishes the same.
        let spec = PrivacySpec::new(25, 5, 0.016, 0.4);
        let stream = DatasetProfile::WebView1.source(4).take_vec(8_000);
        let pipe = || StreamPipeline::new(500, Box::new(Publisher::new(spec, hybrid(), 9)));
        let (ours, twin, _) = matches_its_content_twin(pipe(), pipe(), &stream, 25);
        assert!(ours.0 > 1_000 && ours.1 * 100 < ours.0, "{ours:?}");
        assert_eq!(twin, (0, ours.0 + ours.1));
    }

    #[test]
    fn pins_hold_against_a_history_older_than_the_last_read_out() {
        // Every third publication lies and is withheld: the next one is
        // pinned against the release before it, while Moment read out the
        // withheld window in between. A closed set that was not closed in
        // that window has lost its node, and returns under a new `Arc`.
        #[derive(Debug)]
        struct EveryThird(Liar);
        impl PrivacyDefense for EveryThird {
            fn kind(&self) -> crate::DefenseKind {
                self.0.kind()
            }
            fn spec(&self) -> &PrivacySpec {
                self.0.spec()
            }
            fn publish(
                &mut self,
                frequent: &FrequentItemsets,
                history: &PublicationHistory,
            ) -> SanitizedRelease {
                let release = self.0.publish(frequent, history);
                if self.0.calls == self.0.lie_on {
                    self.0.lie_on += 3;
                }
                release
            }
        }
        let spec = PrivacySpec::new(25, 5, 0.016, 0.4);
        let stream = DatasetProfile::WebView1.source(6).take_vec(6_000);
        let liar = || {
            let inner = Publisher::new(spec, hybrid(), 2);
            let liar = Liar {
                inner,
                lie_on: 3,
                calls: 0,
            };
            StreamPipeline::new(500, Box::new(EveryThird(liar)))
        };
        let ((by_addr, by_content), _, withheld) =
            matches_its_content_twin(liar(), liar(), &stream, 25);
        assert!(withheld >= 60, "{withheld} withheld");
        assert!(by_addr > 500 && by_content > 0, "{by_addr} / {by_content}");
    }

    #[test]
    fn privbasis_and_suppress_releases_follow_the_history_by_address() {
        use crate::defense::SuppressionDefense;
        let spec = PrivacySpec::new(25, 5, 0.016, 0.4);
        let stream = DatasetProfile::WebView1.source(8).take_vec(4_000);
        let privbasis =
            || StreamPipeline::new(500, Box::new(PrivBasisDefense::new(spec, 1.0, 40, 7)));
        let (paths, _, withheld) = matches_its_content_twin(privbasis(), privbasis(), &stream, 50);
        assert!(paths.0 > 100 && withheld == 0, "{paths:?}");
        let suppress = || StreamPipeline::new(500, Box::new(SuppressionDefense::new(spec)));
        let (paths, _, withheld) = matches_its_content_twin(suppress(), suppress(), &stream, 50);
        assert!(paths.0 > 100 && withheld == 0, "{paths:?}");
    }
}
