//! The from-scratch publication [`bfly_core::Publisher`] is held to: one
//! window's release composed from the public stage functions with nothing
//! carried between windows but the previous release.
//! `tests/release_engine.rs` uses it as the oracle.

use bfly_core::{
    partition_into_fecs, seeded_noise, BiasScheme, PrivacySpec, SanitizedItemset, SanitizedRelease,
};
use bfly_mining::FrequentItemsets;
use std::collections::HashMap;

/// Publish `frequent` after `previous`: rebuild the FEC partition, solve the
/// biases cold, draw each FEC's content-seeded noise, and republish an
/// itemset's previous sanitized value while its true support is unchanged.
pub fn publish_from_scratch(
    spec: &PrivacySpec,
    scheme: &BiasScheme,
    seed: u64,
    previous: &SanitizedRelease,
    frequent: &FrequentItemsets,
) -> SanitizedRelease {
    let fecs = partition_into_fecs(frequent);
    let biases = scheme.biases(&fecs, spec);
    let pins: HashMap<_, _> = previous
        .iter()
        .map(|e| (e.id, (e.true_support, e.sanitized)))
        .collect();
    let mut entries = Vec::with_capacity(frequent.len());
    for (fec, &bias) in fecs.iter().zip(&biases) {
        let fresh = fec.support() as i64 + seeded_noise(seed, fec.support(), bias, spec.alpha());
        for &id in fec.members() {
            let sanitized = match pins.get(&id) {
                Some(&(t, pinned)) if t == fec.support() => pinned,
                _ => fresh,
            };
            entries.push(SanitizedItemset {
                id,
                true_support: fec.support(),
                sanitized,
            });
        }
    }
    SanitizedRelease::new(entries)
}
