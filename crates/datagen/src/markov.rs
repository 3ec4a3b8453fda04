//! Markov-chain clickstream sessions — an alternative, more mechanistic
//! model of BMS-WebView-1-like data than the Quest generator.
//!
//! A web session is a random walk over a sparse page graph: from each page
//! the visitor follows one of a few outgoing links (popularity-weighted) or
//! leaves. The transaction is the *set* of distinct pages visited. This
//! produces the same first-order statistics as the Quest profile but with
//! genuinely link-structured co-occurrence, which stresses the miners with
//! deeper correlation than pattern superposition does. Used by tests and
//! available to experiments via [`MarkovConfig`].

use bfly_common::rng::{Rng, SmallRng};
use bfly_common::{Item, ItemSet, Transaction};

use crate::zipf::Zipf;

/// Configuration of a [`MarkovSessionGenerator`].
#[derive(Clone, Debug)]
pub struct MarkovConfig {
    /// Number of pages (items).
    pub n_pages: usize,
    /// Outgoing links per page.
    pub out_degree: usize,
    /// Probability of continuing the walk after each page view.
    pub continue_prob: f64,
    /// Hard cap on session length (distinct pages).
    pub max_session_len: usize,
    /// Zipf exponent of entry-page popularity.
    pub entry_zipf_s: f64,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        MarkovConfig {
            n_pages: 497,
            out_degree: 6,
            continue_prob: 0.6,
            max_session_len: 40,
            entry_zipf_s: 1.0,
        }
    }
}

impl MarkovConfig {
    fn validate(&self) {
        assert!(self.n_pages > 1, "need at least two pages");
        assert!(
            self.out_degree >= 1 && self.out_degree < self.n_pages,
            "out_degree must be in 1..n_pages"
        );
        assert!(
            (0.0..1.0).contains(&self.continue_prob),
            "continue_prob must be in [0,1)"
        );
        assert!(self.max_session_len >= 1, "max_session_len must be ≥ 1");
    }
}

/// Seeded generator of session transactions over a fixed random page graph.
#[derive(Clone, Debug)]
pub struct MarkovSessionGenerator {
    config: MarkovConfig,
    rng: SmallRng,
    entry_dist: Zipf,
    /// links[p] = outgoing link targets of page p (popular pages are linked
    /// to more often, giving the long-tailed page-view distribution).
    links: Vec<Vec<u32>>,
    emitted: u64,
}

impl MarkovSessionGenerator {
    /// Build the page graph and generator.
    pub fn new(config: MarkovConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let entry_dist = Zipf::new(config.n_pages, config.entry_zipf_s);
        let links = (0..config.n_pages)
            .map(|page| {
                let mut targets = Vec::with_capacity(config.out_degree);
                let mut guard = 0;
                while targets.len() < config.out_degree && guard < 1000 {
                    guard += 1;
                    let t = entry_dist.sample(&mut rng) as u32;
                    if t as usize != page && !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                targets
            })
            .collect();
        MarkovSessionGenerator {
            config,
            rng,
            entry_dist,
            links,
            emitted: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MarkovConfig {
        &self.config
    }

    /// Generate the next session. Tids count from 1.
    pub fn next_session(&mut self) -> Transaction {
        self.emitted += 1;
        let mut page = self.entry_dist.sample(&mut self.rng) as u32;
        let mut visited = vec![page];
        while visited.len() < self.config.max_session_len
            && self.rng.gen_bool(self.config.continue_prob)
        {
            let out = &self.links[page as usize];
            if out.is_empty() {
                break;
            }
            page = out[self.rng.gen_range_usize(out.len())];
            if !visited.contains(&page) {
                visited.push(page);
            }
        }
        Transaction::new(self.emitted, ItemSet::new(visited.into_iter().map(Item)))
    }

    /// Generate `n` sessions.
    pub fn generate(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_session()).collect()
    }
}

impl Iterator for MarkovSessionGenerator {
    type Item = Transaction;
    fn next(&mut self) -> Option<Transaction> {
        Some(self.next_session())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::Database;

    fn small() -> MarkovConfig {
        MarkovConfig {
            n_pages: 60,
            out_degree: 4,
            continue_prob: 0.55,
            max_session_len: 20,
            entry_zipf_s: 1.0,
        }
    }

    #[test]
    fn deterministic_and_nonempty() {
        let a = MarkovSessionGenerator::new(small(), 5).generate(300);
        let b = MarkovSessionGenerator::new(small(), 5).generate(300);
        assert_eq!(a, b);
        for t in &a {
            assert!(!t.is_empty());
            assert!(t.len() <= 20);
        }
    }

    #[test]
    fn session_lengths_are_geometric_ish() {
        let txs = MarkovSessionGenerator::new(small(), 2).generate(4000);
        let db = Database::from_records(txs);
        // Mean ≈ 1/(1−p) pages minus revisit losses: between 1.3 and 3.5.
        let mean = db.mean_record_len();
        assert!((1.2..3.6).contains(&mean), "mean session length {mean}");
    }

    #[test]
    fn linked_pages_co_occur_more_than_chance() {
        // The structural property the generator exists for: a page and its
        // top outgoing link co-occur far more often than two random pages.
        let mut g = MarkovSessionGenerator::new(small(), 7);
        let popular = 0u32; // rank-0 page: most common entry point
        let linked = g.links[popular as usize][0];
        let txs = g.generate(6000);
        let db = Database::from_records(txs);
        let pair = ItemSet::from_ids([popular, linked]);
        let linked_support = db.support(&pair);
        // Compare against the page paired with an unlinked, similar-rank page.
        let unlinked = (0..60u32)
            .find(|p| *p != popular && !g.links[popular as usize].contains(p) && *p > 40)
            .unwrap();
        let control = db.support(&ItemSet::from_ids([popular, unlinked]));
        assert!(
            linked_support > control * 2,
            "link structure invisible: linked {linked_support} vs control {control}"
        );
    }

    #[test]
    fn miners_handle_markov_data() {
        use bfly_mining::{Apriori, Eclat};
        let txs = MarkovSessionGenerator::new(small(), 3).generate(800);
        let db = Database::from_records(txs);
        assert_eq!(Apriori::new(10).mine(&db), Eclat::new(10).mine(&db));
    }

    #[test]
    #[should_panic(expected = "out_degree")]
    fn bad_degree_rejected() {
        let cfg = MarkovConfig {
            out_degree: 0,
            ..small()
        };
        MarkovSessionGenerator::new(cfg, 0);
    }
}
