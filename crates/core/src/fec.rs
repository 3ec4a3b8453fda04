//! Frequency equivalence classes (Definition 5).

use bfly_common::{ItemsetId, Support};
use bfly_mining::FrequentItemsets;

/// A frequency equivalence class: the frequent itemsets sharing one support
/// value. The optimized Butterfly schemes perturb per-FEC, preserving the
/// equality of members' supports exactly. Members are interned handles —
/// partitioning a mining result moves no itemset data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fec {
    support: Support,
    members: Vec<ItemsetId>,
}

impl Fec {
    /// The shared support `T(fec)`.
    pub fn support(&self) -> Support {
        self.support
    }

    /// Members, in lexicographic itemset order.
    pub fn members(&self) -> &[ItemsetId] {
        &self.members
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
    frequent
        .entries()
        .chunk_by(|a, b| a.support == b.support)
        .rev()
        .map(|run| Fec {
            support: run[0].support,
            members: run.iter().map(|e| e.id).collect(),
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

    fn resolved(fec: &Fec) -> Vec<ItemSet> {
        fec.members()
            .iter()
            .map(|id| id.resolve().clone())
            .collect()
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
        assert_eq!(resolved(&fecs[0]), vec![iset("ab"), iset("bc")]);
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
    fn partition_through_a_map(frequent: &FrequentItemsets) -> Vec<Fec> {
        use std::collections::BTreeMap;
        let mut by_support: BTreeMap<Support, Vec<ItemsetId>> = BTreeMap::new();
        for e in frequent.iter() {
            by_support.entry(e.support).or_default().push(e.id);
        }
        by_support
            .into_iter()
            .map(|(support, mut members)| {
                members.sort_unstable_by(|a, b| a.resolve().cmp(b.resolve()));
                Fec { support, members }
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
            assert_eq!(
                partition_into_fecs(&f),
                partition_through_a_map(&f),
                "seed {seed}"
            );
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
        let mut partitions = Vec::new();
        for rot in 0..tied.len() {
            let mut entries: Vec<(ItemSet, u64)> = Vec::new();
            for (k, off) in (0..tied.len()).enumerate() {
                entries.push((tied[(rot + off) % tied.len()].clone(), c));
                if let Some(f) = filler.get(k) {
                    entries.push(f.clone());
                }
            }
            partitions.push(partition_into_fecs(&FrequentItemsets::new(entries)));
        }
        for p in &partitions[1..] {
            assert_eq!(p, &partitions[0]);
        }
        // The boundary class itself is sorted lexicographically.
        let boundary = &partitions[0][0];
        assert_eq!(boundary.support(), c);
        assert_eq!(
            resolved(boundary),
            vec![iset("a"), iset("ab"), iset("bcd"), iset("cd"), iset("x")]
        );
    }
}
