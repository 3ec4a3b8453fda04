//! End-to-end stream pipeline: window → Moment → privacy defense.

use crate::defense::PrivacyDefense;
use crate::engine::{Publisher, ReleaseDelta};
use crate::release::SanitizedRelease;
use bfly_common::{Error, Item, ItemSet, Result, Transaction};
use bfly_mining::{FrequentItemsets, MinerBackend, MomentMiner};

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
    /// What changed against the previous publication of this stream — the
    /// serve layer's `release_delta` payload.
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
/// The defense is a type parameter so the Butterfly [`Publisher`] pays no
/// dynamic dispatch, while deployments picking one at runtime (`--defense`,
/// the serve layer's per-key `bind`) pass a `Box<dyn PrivacyDefense>`.
#[derive(Clone, Debug)]
pub struct StreamPipeline<D: PrivacyDefense = Publisher> {
    /// The window size `H`.
    capacity: usize,
    /// Records in the window: `min(N, H)`, counting `N` from the last
    /// [`StreamPipeline::set_stream_base`].
    len: usize,
    /// Records seen, `N`: the tid of the newest.
    stream_len: u64,
    miner: MomentMiner,
    defense: D,
    /// Records fed since the last publication — the cadence counter callers
    /// (CLI `--every`, the serve shards) consult, and what
    /// [`StreamPipeline::flush`] uses to decide whether a drain still owes
    /// the subscribers a release.
    since_publish: usize,
    /// Release entries that failed the contract audit (their releases were
    /// withheld).
    audit_violations: u64,
}

impl<D: PrivacyDefense> StreamPipeline<D> {
    /// Build a pipeline over a window of `window_size` records. The
    /// defense's spec supplies the miner's minimum support `C`.
    ///
    /// # Panics
    /// If `window_size == 0`.
    pub fn new(window_size: usize, defense: D) -> Self {
        assert!(window_size > 0, "window capacity must be positive");
        StreamPipeline {
            capacity: window_size,
            len: 0,
            stream_len: 0,
            miner: MomentMiner::new(defense.spec().c()),
            defense,
            since_publish: 0,
            audit_violations: 0,
        }
    }

    /// Records seen so far.
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// Feed one transaction. Returns a release once the window is full
    /// (every subsequent step publishes; callers wanting coarser cadence
    /// subsample). A release that fails the contract audit is withheld —
    /// `None`, counted in [`StreamPipeline::audit_violations`].
    pub fn step(&mut self, t: Transaction) -> Option<WindowRelease> {
        self.advance(t);
        if !self.window().is_full() {
            return None;
        }
        self.publish_full_window().ok()
    }

    /// Mine, sanitize and audit the (full) window. The audit runs in every
    /// build on defenses claiming the Butterfly contract: a release with an
    /// entry outside its legal region never reaches a caller.
    fn publish_full_window(&mut self) -> Result<WindowRelease> {
        self.since_publish = 0;
        self.miner.settle();
        let closed = self.miner.closed_frequent();
        let (release, delta) = self.defense.publish_with_delta(&closed);
        let stream_len = self.stream_len;
        if self.defense.honors_butterfly_contract() {
            let violations = crate::audit::audit_release(self.defense.spec(), &release).len();
            if violations > 0 {
                self.audit_violations += violations as u64;
                return Err(Error::ContractViolation {
                    stream_len,
                    violations,
                });
            }
        }
        Ok(WindowRelease {
            stream_len,
            closed,
            release,
            delta,
        })
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
    /// before the first one). Cadence-driven callers publish when this
    /// reaches their `every` and the window is full.
    pub fn since_publish(&self) -> usize {
        self.since_publish
    }

    /// Drain hook: publish the window iff it is full **and** records arrived
    /// since the last publication — i.e. the stream still owes its
    /// subscribers a release. Returns `None` both for a window that never
    /// filled (partial windows are unpublishable by design — their supports
    /// are not comparable to full-window ones and would leak the warm-up
    /// phase) and for a stream already published up to date.
    pub fn flush(&mut self) -> Option<WindowRelease> {
        if !self.window().is_full() || self.since_publish == 0 {
            return None;
        }
        self.publish_now().ok()
    }

    /// Publish the current window explicitly.
    ///
    /// # Errors
    /// [`Error::PartialWindow`] when the window has not filled yet — a
    /// partial window's supports are not comparable to full-window ones, so
    /// publishing them would both skew utility and leak the warm-up phase.
    /// [`Error::ContractViolation`] when the defense claims the Butterfly
    /// contract and its release fails the audit; the release is withheld
    /// and counted in [`StreamPipeline::audit_violations`].
    pub fn publish_now(&mut self) -> Result<WindowRelease> {
        if !self.window().is_full() {
            return Err(Error::PartialWindow {
                have: self.len,
                need: self.capacity,
            });
        }
        self.publish_full_window()
    }

    /// Release entries that failed the contract audit so far; every release
    /// holding one was withheld.
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations
    }

    /// A read-only view of the live window (e.g. to snapshot its contents).
    pub fn window(&self) -> WindowView<'_> {
        WindowView {
            miner: &self.miner,
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

    /// WAL-recovery hook: reinstate the defense's cross-window publication
    /// state — `published` windows already released, the last of them being
    /// `previous` (see [`PrivacyDefense::restore`]).
    pub fn restore_defense(&mut self, published: u64, previous: &SanitizedRelease) {
        self.defense.restore(published, previous);
    }

    /// WAL-recovery hook: zero the cadence counter. A snapshot is taken at a
    /// publication point (`since_publish == 0`), but replay refills the
    /// window by feeding its contents through [`StreamPipeline::advance`],
    /// which counts them as pending records; this puts the counter back
    /// where the uncrashed process had it.
    pub fn reset_cadence(&mut self) {
        self.since_publish = 0;
    }

    /// The defense driving the release path (e.g. to read Butterfly's
    /// engine counters or suppression's side-effect ledger after a run).
    pub fn defense(&self) -> &D {
        &self.defense
    }

    /// The host miner (e.g. to read its rebuild count or tree size; its
    /// tree is settled only as of the last publication).
    pub fn miner(&self) -> &MomentMiner {
        &self.miner
    }
}

/// A read-only view of a [`StreamPipeline`]'s window `Ds(N, H)`: the
/// counters are the pipeline's, the records are read back from Moment's
/// ring.
#[derive(Clone, Copy, Debug)]
pub struct WindowView<'a> {
    miner: &'a MomentMiner,
    capacity: usize,
    len: usize,
    stream_len: u64,
}

impl<'a> WindowView<'a> {
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

    /// The records' itemsets, oldest first, rebuilt from the ring (one
    /// allocation each: for snapshots, not the hot path).
    pub fn records(&self) -> impl Iterator<Item = ItemSet> + 'a {
        let miner = self.miner;
        (self.stream_len + 1 - self.len as u64..=self.stream_len).map(move |tid| {
            miner
                .itemset_of(tid)
                .expect("every window tid is in the ring")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrivacySpec;
    use crate::scheme::BiasScheme;
    use bfly_common::fixtures::fig2_stream;
    use bfly_datagen::DatasetProfile;

    #[test]
    fn publishes_only_full_windows() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let publisher = Publisher::new(spec, BiasScheme::Basic, 1);
        let mut pipe = StreamPipeline::new(8, publisher);
        let mut published = 0;
        for (i, t) in fig2_stream().into_iter().enumerate() {
            match pipe.step(t) {
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
        let mut pipe = StreamPipeline::new(500, publisher);
        let mut src = DatasetProfile::WebView1.source(5);
        let mut releases = 0;
        for _ in 0..700 {
            if let Some(r) = pipe.step(src.next_transaction()) {
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
        let mut pipe = StreamPipeline::new(50, Publisher::new(spec, BiasScheme::Basic, 3));
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
            let records: Vec<ItemSet> = view.records().collect();
            let want: Vec<ItemSet> = model.records().map(|t| t.items().clone()).collect();
            assert_eq!(records, want);
        }
    }

    #[test]
    fn publish_now_requires_full_window() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let mut pipe = StreamPipeline::new(8, Publisher::new(spec, BiasScheme::Basic, 1));
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
        let mut pipe = StreamPipeline::new(8, publisher);
        let stream = fig2_stream();
        // Partial window: nothing to flush.
        for t in stream.iter().take(3).cloned() {
            pipe.advance(t);
        }
        assert_eq!(pipe.since_publish(), 3);
        assert!(pipe.flush().is_none(), "flushed a partial window");
        // Fill past the window without publishing: flush owes a release.
        for t in stream.iter().skip(3).cloned() {
            pipe.advance(t);
        }
        assert_eq!(pipe.since_publish(), stream.len());
        let r = pipe.flush().expect("full window with pending records");
        assert_eq!(r.stream_len, stream.len() as u64);
        assert_eq!(pipe.since_publish(), 0);
        // Published up to date: a second flush owes nothing.
        assert!(pipe.flush().is_none(), "flushed twice with no new records");
    }

    #[test]
    fn cadence_counter_resets_on_every_publish_path() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let publisher = Publisher::new(spec, BiasScheme::Basic, 1);
        let mut pipe = StreamPipeline::new(8, publisher);
        for (i, t) in fig2_stream().into_iter().enumerate() {
            let released = pipe.step(t).is_some();
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
    #[derive(Clone, Debug)]
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
        fn publish_with_delta(
            &mut self,
            frequent: &FrequentItemsets,
        ) -> (SanitizedRelease, ReleaseDelta) {
            let (release, delta) = self.inner.publish_with_delta(frequent);
            self.calls += 1;
            if self.calls != self.lie_on {
                return (release, delta);
            }
            let mut entries: Vec<_> = release.iter().cloned().collect();
            entries[0].sanitized += 10_000;
            (SanitizedRelease::new(entries), delta)
        }
        fn reset(&mut self) {
            PrivacyDefense::reset(&mut self.inner);
        }
        fn honors_butterfly_contract(&self) -> bool {
            true
        }
        fn boxed_clone(&self) -> Box<dyn PrivacyDefense> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn a_release_failing_the_audit_is_withheld_and_counted_on_both_paths() {
        let spec = PrivacySpec::new(4, 1, 0.2, 0.5);
        let liar = |lie_on| Liar {
            inner: Publisher::new(spec, BiasScheme::Basic, 1),
            lie_on,
            calls: 0,
        };
        // step(): windows N = 8..12 publish; the second one lies.
        let mut pipe = StreamPipeline::new(8, liar(2));
        let published: Vec<u64> = fig2_stream()
            .into_iter()
            .filter_map(|t| pipe.step(t))
            .map(|r| r.stream_len)
            .collect();
        assert_eq!(published, [8, 10, 11, 12]);
        assert_eq!(pipe.audit_violations(), 1);
        assert_eq!(pipe.since_publish(), 0);

        // publish_now(): the first publication lies, the next is clean.
        let mut pipe = StreamPipeline::new(8, liar(1));
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
}
