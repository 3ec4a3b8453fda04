//! Frequency equivalence classes (Definition 5).
//!
//! A class is a support and a range of the mining result's entries: the
//! result's canonical order already holds each class as one run, so
//! partitioning copies no itemset and clones no `Arc`.

use bfly_common::Support;
use bfly_mining::{FrequentItemset, FrequentItemsets};
use std::ops::Range;

/// A frequency equivalence class: the frequent itemsets sharing one support
/// value. The optimized Butterfly schemes perturb per-FEC, preserving the
/// equality of members' supports exactly. The members are a run of the
/// mining result's entries, named by position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fec {
    support: Support,
    members: Range<usize>,
}

impl Fec {
    /// The shared support `T(fec)`.
    pub fn support(&self) -> Support {
        self.support
    }

    /// Members, in lexicographic itemset order: the entries of `frequent`,
    /// the result this class was partitioned from, that it spans.
    pub fn members<'a>(&self, frequent: &'a FrequentItemsets) -> &'a [FrequentItemset] {
        &frequent.entries()[self.members.clone()]
    }

    /// Class size `s_i` — the weight in Algorithm 1's inversion cost.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Partition a mining result into FECs, **sorted ascending by support**
/// (`fec_1 ≺ fec_2 ≺ …` as §VI assumes).
///
/// The result's canonical order (support descending, then itemset
/// ascending) already holds every class as one run with its members in
/// order, so the FECs are those runs, last first.
pub fn partition_into_fecs(frequent: &FrequentItemsets) -> Vec<Fec> {
    let mut end = frequent.len();
    let runs = frequent.entries().chunk_by(|a, b| a.support == b.support);
    runs.rev()
        .map(|run| {
            end -= run.len();
            Fec {
                support: run[0].support,
                members: end..end + run.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::ItemSet;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn resolved(fec: &Fec, frequent: &FrequentItemsets) -> Vec<ItemSet> {
        let members = fec.members(frequent).iter();
        members.map(|e| e.itemset().clone()).collect()
    }

    #[test]
    fn partitions_by_support_ascending() {
        let f = FrequentItemsets::new(vec![
            (iset("a"), 5),
            (iset("ab"), 3),
            (iset("b"), 5),
            (iset("c"), 8),
            (iset("bc"), 3),
        ]);
        let fecs = partition_into_fecs(&f);
        assert_eq!(fecs.len(), 3);
        assert_eq!(fecs[0].support(), 3);
        assert_eq!(resolved(&fecs[0], &f), vec![iset("ab"), iset("bc")]);
        assert_eq!(fecs[0].size(), 2);
        assert_eq!(fecs[1].support(), 5);
        assert_eq!(fecs[2].support(), 8);
        assert_eq!(fecs[2].size(), 1);
    }

    #[test]
    fn strictly_increasing_supports() {
        let f = FrequentItemsets::new(vec![(iset("a"), 2), (iset("b"), 9), (iset("c"), 2)]);
        let fecs = partition_into_fecs(&f);
        for pair in fecs.windows(2) {
            assert!(pair[0].support() < pair[1].support());
        }
        // Total members preserved.
        assert_eq!(fecs.iter().map(Fec::size).sum::<usize>(), 3);
    }

    /// The partition as it was built before the runs were read off the
    /// canonical order: grouped through a map, each class sorted again.
    fn partition_through_a_map(frequent: &FrequentItemsets) -> Vec<(Support, Vec<ItemSet>)> {
        use std::collections::BTreeMap;
        let mut by_support: BTreeMap<Support, Vec<ItemSet>> = BTreeMap::new();
        for e in frequent.entries() {
            by_support
                .entry(e.support)
                .or_default()
                .push(e.itemset().clone());
        }
        by_support
            .into_iter()
            .map(|(support, mut members)| {
                members.sort_unstable();
                (support, members)
            })
            .collect()
    }

    #[test]
    fn runs_of_the_canonical_order_equal_the_map_partition() {
        use bfly_common::rng::{Rng, SmallRng};
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Few distinct supports over many itemsets, so classes are
            // large and their members arrive interleaved.
            let spread = 1 + rng.gen_below(12);
            let mut entries: Vec<(ItemSet, u64)> = Vec::new();
            for _ in 0..rng.gen_range_usize(60) {
                let len = 1 + rng.gen_range_usize(4);
                let ids: Vec<u32> = (0..len).map(|_| rng.gen_below(30) as u32).collect();
                let itemset = ItemSet::from_ids(ids);
                if entries.iter().all(|(x, _)| *x != itemset) {
                    entries.push((itemset, 20 + rng.gen_below(spread)));
                }
            }
            let f = FrequentItemsets::new(entries);
            let fecs = partition_into_fecs(&f);
            let runs: Vec<_> = fecs
                .iter()
                .map(|c| (c.support(), resolved(c, &f)))
                .collect();
            assert_eq!(runs, partition_through_a_map(&f), "seed {seed}");
        }
    }

    #[test]
    fn empty_result_gives_no_fecs() {
        assert!(partition_into_fecs(&FrequentItemsets::default()).is_empty());
    }

    /// Regression: itemsets tied exactly at the support boundary `C` must
    /// land in one deterministic class — same membership, same member order —
    /// no matter the order in which the miner reported them.
    #[test]
    fn ties_at_support_boundary_are_arrival_order_independent() {
        let c = 25u64;
        let tied = [iset("ab"), iset("cd"), iset("a"), iset("bcd"), iset("x")];
        let filler = [(iset("q"), c + 3), (iset("qr"), c + 1)];

        // Every rotation of the arrival order, with filler interleaved.
        let mut partitions: Vec<Vec<(Support, Vec<ItemSet>)>> = Vec::new();
        for rot in 0..tied.len() {
            let mut entries: Vec<(ItemSet, u64)> = Vec::new();
            for (k, off) in (0..tied.len()).enumerate() {
                entries.push((tied[(rot + off) % tied.len()].clone(), c));
                if let Some(f) = filler.get(k) {
                    entries.push(f.clone());
                }
            }
            let f = FrequentItemsets::new(entries);
            let fecs = partition_into_fecs(&f);
            partitions.push(
                fecs.iter()
                    .map(|c| (c.support(), resolved(c, &f)))
                    .collect(),
            );
        }
        for p in &partitions[1..] {
            assert_eq!(p, &partitions[0]);
        }
        // The boundary class itself is sorted lexicographically.
        let boundary = &partitions[0][0];
        assert_eq!(boundary.0, c);
        assert_eq!(
            boundary.1,
            vec![iset("a"), iset("ab"), iset("bcd"), iset("cd"), iset("x")]
        );
    }
}
