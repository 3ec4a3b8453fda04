//! FP-stream: approximate frequent itemsets over long stream histories with
//! logarithmic tilted-time windows (Giannella, Han, Pei, Yan & Yu, 2003).
//!
//! Where [`crate::MomentMiner`] maintains *exact* results over one sliding
//! window, FP-stream answers frequency queries over *any* suffix of the
//! stream ("the last n batches") with bounded error, by keeping for every
//! tracked pattern a [`TiltedTimeWindow`]: per-batch supports that are
//! merged coarser and coarser as they age, so a stream of `B` batches costs
//! only `O(log B)` slots per pattern.
//!
//! Per batch, an Eclat pass at the relaxed threshold `ε·|batch|` finds
//! the sub-frequent patterns; their batch supports are pushed into the
//! pattern table, and tail slots that can no longer influence any query
//! above the `σ` threshold are pruned (the paper's type-I tail pruning).
//! The standard guarantee follows: a query for patterns with frequency
//! `≥ σ·N` over the last `N` records returns every truly frequent pattern,
//! and nothing with frequency below `(σ − ε)·N`.

use crate::eclat::Eclat;
use crate::result::FrequentItemsets;
use bfly_common::{Database, ItemSet, Support, Transaction};
use std::collections::HashMap;

/// One aggregated slot of a tilted-time window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Total support across the covered batches.
    pub support: Support,
    /// Number of consecutive batches this slot covers (a power of two).
    pub span: u32,
}

/// A logarithmic tilted-time window: slots ordered newest → oldest with
/// non-decreasing spans; at most two slots per span, merged binary-counter
/// style as batches age.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TiltedTimeWindow {
    slots: Vec<Slot>,
}

impl TiltedTimeWindow {
    /// Empty window.
    pub fn new() -> Self {
        TiltedTimeWindow::default()
    }

    /// Slots, newest first.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Total number of batches covered.
    pub fn total_span(&self) -> u64 {
        self.slots.iter().map(|s| s.span as u64).sum()
    }

    /// Total support across all covered batches.
    pub fn total_support(&self) -> Support {
        self.slots.iter().map(|s| s.support).sum()
    }

    /// Push the newest batch's support, then re-establish the at-most-two-
    /// per-span invariant by merging the two *oldest* slots of any span that
    /// reaches three, cascading like a binary-counter carry.
    pub fn push(&mut self, batch_support: Support) {
        self.slots.insert(
            0,
            Slot {
                support: batch_support,
                span: 1,
            },
        );
        let mut span = 1u32;
        loop {
            let run: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.span == span)
                .map(|(i, _)| i)
                .collect();
            if run.len() < 3 {
                break;
            }
            // Merge the two oldest (largest indices, adjacent by invariant).
            let b = run[run.len() - 1];
            let a = run[run.len() - 2];
            debug_assert_eq!(a + 1, b, "equal-span slots must be adjacent");
            self.slots[a].support += self.slots[b].support;
            self.slots[a].span *= 2;
            self.slots.remove(b);
            span *= 2;
        }
    }

    /// Support summed over the newest slots covering at least `batches`
    /// batches, together with the actual number of batches covered (the
    /// tilted granularity may overshoot the requested horizon).
    pub fn support_over(&self, batches: u64) -> (Support, u64) {
        let mut covered = 0u64;
        let mut support = 0;
        for slot in &self.slots {
            if covered >= batches {
                break;
            }
            covered += slot.span as u64;
            support += slot.support;
        }
        (support, covered)
    }

    /// Drop tail (oldest) slots while they are droppable per FP-stream's
    /// tail-pruning rule: the slot's support is below `epsilon` times the
    /// records it covers, *and* so is every cumulative suffix it belongs to.
    /// Returns true when the window became empty.
    pub fn prune_tail(&mut self, epsilon: f64, batch_size: usize) -> bool {
        while let Some(last) = self.slots.last().copied() {
            let slot_records = last.span as f64 * batch_size as f64;
            if (last.support as f64) < epsilon * slot_records {
                self.slots.pop();
            } else {
                break;
            }
        }
        self.slots.is_empty()
    }
}

/// Configuration of an [`FpStream`] miner.
#[derive(Clone, Copy, Debug)]
pub struct FpStreamConfig {
    /// Transactions per batch.
    pub batch_size: usize,
    /// Target frequency threshold `σ` (fraction of records).
    pub sigma: f64,
    /// Error tolerance `ε < σ` (fraction of records); the per-batch mining
    /// threshold. Smaller ε → fewer false positives, more tracked patterns.
    pub epsilon: f64,
}

impl FpStreamConfig {
    fn validate(&self) {
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(
            0.0 < self.sigma && self.sigma <= 1.0,
            "sigma must be in (0,1]"
        );
        assert!(
            0.0 < self.epsilon && self.epsilon <= self.sigma,
            "epsilon must be in (0, sigma]"
        );
    }
}

/// The FP-stream miner. Feed transactions with [`FpStream::push`]; query
/// with [`FpStream::frequent_over`] or [`FpStream::approx_support`].
#[derive(Clone, Debug)]
pub struct FpStream {
    config: FpStreamConfig,
    buffer: Vec<Transaction>,
    patterns: HashMap<ItemSet, TiltedTimeWindow>,
    batches: u64,
}

impl FpStream {
    /// Create a miner.
    ///
    /// # Panics
    /// On invalid configuration (see [`FpStreamConfig`] field docs).
    pub fn new(config: FpStreamConfig) -> Self {
        config.validate();
        FpStream {
            config,
            buffer: Vec::with_capacity(config.batch_size),
            patterns: HashMap::new(),
            batches: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FpStreamConfig {
        &self.config
    }

    /// Completed batches so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Number of patterns currently tracked (the miner's working set).
    pub fn tracked_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Feed one transaction; processes a batch when the buffer fills.
    pub fn push(&mut self, t: Transaction) {
        self.buffer.push(t);
        if self.buffer.len() == self.config.batch_size {
            self.process_batch();
        }
    }

    /// Force-process a partial batch (e.g. at end of stream). No-op when
    /// the buffer is empty. Partial batches are processed at their actual
    /// size, slightly tightening the relaxed threshold.
    pub fn flush(&mut self) {
        if !self.buffer.is_empty() {
            self.process_batch();
        }
    }

    fn process_batch(&mut self) {
        let batch = std::mem::take(&mut self.buffer);
        let db = Database::from_records(batch);
        let relaxed = ((self.config.epsilon * db.len() as f64).ceil() as Support).max(1);
        let mined = Eclat::new(relaxed).mine(&db);
        self.batches += 1;

        // Push supports: mined patterns get their batch support; previously
        // tracked patterns missing from this batch get an explicit 0 so
        // their tilted windows stay aligned with the batch clock.
        for (itemset, window) in self.patterns.iter_mut() {
            window.push(mined.support(itemset).unwrap_or(0));
        }
        for entry in mined.entries() {
            self.patterns
                .entry(entry.itemset().clone())
                .or_insert_with(|| {
                    let mut w = TiltedTimeWindow::new();
                    w.push(entry.support);
                    w
                });
        }

        // Tail pruning; drop patterns whose windows empty out entirely.
        let eps = self.config.epsilon;
        let bs = self.config.batch_size;
        self.patterns.retain(|_, w| !w.prune_tail(eps, bs));
    }

    /// Approximate support of `itemset` over (at least) the last `batches`
    /// batches: returns `(estimate, batches_actually_covered)`. The estimate
    /// under-counts by at most `ε · covered · batch_size`.
    pub fn approx_support(&self, itemset: &ItemSet, batches: u64) -> (Support, u64) {
        match self.patterns.get(itemset) {
            Some(w) => {
                let (support, covered) = w.support_over(batches);
                (support, covered.max(batches.min(self.batches)))
            }
            None => (0, batches.min(self.batches)),
        }
    }

    /// Patterns whose estimated frequency over the last `batches` batches is
    /// at least `σ − ε` — the FP-stream query guarantee: contains every
    /// pattern with true frequency ≥ σ, nothing with true frequency < σ−2ε.
    pub fn frequent_over(&self, batches: u64) -> FrequentItemsets {
        let horizon = batches.min(self.batches);
        let records = (horizon as usize * self.config.batch_size) as f64;
        let threshold = (self.config.sigma - self.config.epsilon) * records;
        FrequentItemsets::new(self.patterns.iter().filter_map(|(itemset, w)| {
            let (support, _) = w.support_over(horizon);
            (support as f64 >= threshold).then(|| (itemset.clone(), support))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_datagen::{QuestConfig, QuestGenerator};

    #[test]
    fn tilted_window_is_a_binary_counter() {
        let mut w = TiltedTimeWindow::new();
        for k in 1..=200u64 {
            w.push(1);
            assert_eq!(w.total_span(), k, "span lost at push {k}");
            assert_eq!(w.total_support(), k, "support lost at push {k}");
            // Spans are non-decreasing from newest to oldest, powers of two,
            // at most two of each.
            let spans: Vec<u32> = w.slots().iter().map(|s| s.span).collect();
            for pair in spans.windows(2) {
                assert!(pair[0] <= pair[1], "spans out of order: {spans:?}");
            }
            for &s in &spans {
                assert!(s.is_power_of_two());
                assert!(spans.iter().filter(|&&x| x == s).count() <= 2);
            }
            // Logarithmic size.
            assert!(w.slots().len() as u64 <= 2 * (64 - k.leading_zeros() as u64) + 2);
        }
    }

    #[test]
    fn support_over_covers_requested_horizon() {
        let mut w = TiltedTimeWindow::new();
        for i in 1..=10 {
            w.push(i);
        }
        // Newest slot alone covers horizon 1.
        let (s1, c1) = w.support_over(1);
        assert!(c1 >= 1);
        assert!(s1 >= 10); // the newest batch contributed 10
        let (s_all, c_all) = w.support_over(10);
        assert_eq!(c_all, 10);
        assert_eq!(s_all, (1..=10).sum::<u64>());
    }

    #[test]
    fn tail_pruning_drops_stale_low_support() {
        let mut w = TiltedTimeWindow::new();
        w.push(0);
        w.push(0);
        w.push(50);
        // batch_size 100, eps 0.1: tail slots with support 0 < 10 drop; the
        // newest (support 50) stays.
        let emptied = w.prune_tail(0.1, 100);
        assert!(!emptied);
        assert_eq!(w.total_support(), 50);
        let mut empty = TiltedTimeWindow::new();
        empty.push(1);
        assert!(empty.prune_tail(0.5, 100));
    }

    #[test]
    fn no_false_negatives_on_synthetic_stream() {
        let cfg = QuestConfig {
            n_items: 50,
            n_patterns: 15,
            avg_pattern_len: 3.0,
            avg_transaction_len: 6.0,
            max_transaction_len: 14,
            ..QuestConfig::default()
        };
        let stream = QuestGenerator::new(cfg, 3).generate(2000);
        let mut fps = FpStream::new(FpStreamConfig {
            batch_size: 200,
            sigma: 0.10,
            epsilon: 0.02,
        });
        for t in &stream {
            fps.push(t.clone());
        }
        assert_eq!(fps.batches(), 10);

        // Ground truth over the full stream.
        let db = Database::from_records(stream);
        let n = db.len() as f64;
        let truth = Eclat::new((0.10 * n) as Support).mine(&db);
        let answer = fps.frequent_over(10);
        for e in truth.entries() {
            assert!(
                answer.contains(e.itemset()),
                "missed truly frequent {} (support {})",
                e.itemset(),
                e.support
            );
            // Estimate under-counts by at most eps*N.
            let (est, _) = fps.approx_support(e.itemset(), 10);
            assert!(est <= e.support, "over-count for {}", e.itemset());
            assert!(
                e.support - est <= (0.02 * n).ceil() as u64,
                "estimate for {} off by more than eps*N: {} vs {}",
                e.itemset(),
                est,
                e.support
            );
        }
        // Nothing wildly infrequent gets reported.
        for e in answer.entries() {
            let true_support = db.support(e.itemset());
            assert!(
                true_support as f64 >= (0.10 - 2.0 * 0.02) * n,
                "{} reported but true frequency only {}",
                e.itemset(),
                true_support as f64 / n
            );
        }
    }

    #[test]
    fn flush_processes_partial_batch() {
        let mut fps = FpStream::new(FpStreamConfig {
            batch_size: 100,
            sigma: 0.5,
            epsilon: 0.1,
        });
        for i in 0..30 {
            fps.push(Transaction::new(i, "ab".parse().unwrap()));
        }
        assert_eq!(fps.batches(), 0);
        fps.flush();
        assert_eq!(fps.batches(), 1);
        let (est, _) = fps.approx_support(&"ab".parse().unwrap(), 1);
        assert_eq!(est, 30);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_above_sigma_rejected() {
        FpStream::new(FpStreamConfig {
            batch_size: 10,
            sigma: 0.1,
            epsilon: 0.2,
        });
    }
}
