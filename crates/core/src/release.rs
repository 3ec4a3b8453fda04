//! Sanitized output: what Butterfly publishes instead of raw supports.

use bfly_common::{ItemSet, ItemsetId, Json, SanitizedSupport, Support};
use std::collections::HashMap;

/// One published itemset: its sanitized support, plus (for evaluation only —
/// a deployment would not ship it) the true support. Carries an interned
/// handle, so a release entry is three machine words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SanitizedItemset {
    /// Interned handle to the frequent itemset.
    pub id: ItemsetId,
    /// Ground-truth support, retained for measuring `pred`/`prig`.
    pub true_support: Support,
    /// The published, perturbed support. May dip below zero for small
    /// supports under zero-bias noise; kept raw so adversary estimates stay
    /// unbiased (what the paper's analysis assumes).
    pub sanitized: SanitizedSupport,
}

impl SanitizedItemset {
    /// The itemset behind the handle.
    pub fn itemset(&self) -> &'static ItemSet {
        self.id.resolve()
    }

    /// The value a UI would display: the sanitized support clamped at zero.
    pub fn display_support(&self) -> Support {
        self.sanitized.max(0) as Support
    }
}

/// A full sanitized release for one window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizedRelease {
    entries: Vec<SanitizedItemset>,
}

impl SanitizedRelease {
    /// Build from entries (kept in the order the publisher produced — FEC
    /// ascending, members lexicographic).
    pub fn new(entries: Vec<SanitizedItemset>) -> Self {
        SanitizedRelease { entries }
    }

    /// Number of published itemsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in publication order.
    pub fn iter(&self) -> impl Iterator<Item = &SanitizedItemset> {
        self.entries.iter()
    }

    /// The adversary's view: interned itemset → sanitized support.
    pub fn view(&self) -> HashMap<ItemsetId, SanitizedSupport> {
        self.entries.iter().map(|e| (e.id, e.sanitized)).collect()
    }

    /// The evaluation oracle's view: interned itemset → true support.
    pub fn truth(&self) -> HashMap<ItemsetId, Support> {
        self.entries
            .iter()
            .map(|e| (e.id, e.true_support))
            .collect()
    }

    /// Lookup one entry by itemset value.
    pub fn get(&self, itemset: &ItemSet) -> Option<&SanitizedItemset> {
        let id = ItemsetId::get(itemset)?;
        self.entries.iter().find(|e| e.id == id)
    }

    /// The release as published across the trust boundary: a JSON array of
    /// `{"itemset": [ids...], "support": sanitized}` objects, with **no**
    /// true supports. This is the shared wire shape of the CLI `protect`
    /// output and the serve layer's `release` events, so the network
    /// determinism test can compare the two byte for byte.
    pub fn wire_itemsets(&self) -> Json {
        wire_entries(&self.entries)
    }
}

/// Wire-shape a slice of sanitized entries: the `{"itemset": [ids...],
/// "support": sanitized}` array shared by full `release` events
/// ([`SanitizedRelease::wire_itemsets`]) and the added/changed lists of
/// `release_delta` events — one format, so subscribers parse one shape.
pub fn wire_entries(entries: &[SanitizedItemset]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|e| {
                Json::obj([
                    (
                        "itemset",
                        Json::Arr(
                            e.itemset()
                                .items()
                                .iter()
                                .map(|i| Json::from(i.id() as u64))
                                .collect(),
                        ),
                    ),
                    ("support", Json::from(e.sanitized)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn release() -> SanitizedRelease {
        SanitizedRelease::new(vec![
            SanitizedItemset {
                id: ItemsetId::intern(&iset("a")),
                true_support: 30,
                sanitized: 27,
            },
            SanitizedItemset {
                id: ItemsetId::intern(&iset("ab")),
                true_support: 26,
                sanitized: -1,
            },
        ])
    }

    #[test]
    fn views_split_truth_from_publication() {
        let r = release();
        assert_eq!(r.len(), 2);
        let a = ItemsetId::intern(&iset("a"));
        let ab = ItemsetId::intern(&iset("ab"));
        assert_eq!(r.view()[&a], 27);
        assert_eq!(r.truth()[&a], 30);
        assert_eq!(r.view()[&ab], -1);
    }

    #[test]
    fn wire_itemsets_hides_true_supports() {
        let wire = release().wire_itemsets().to_string();
        assert!(!wire.contains("true_support"), "leaked truth: {wire}");
        assert_eq!(
            wire,
            "[{\"itemset\":[0],\"support\":27},{\"itemset\":[0,1],\"support\":-1}]"
        );
    }

    #[test]
    fn display_support_clamps() {
        let r = release();
        assert_eq!(r.get(&iset("ab")).unwrap().display_support(), 0);
        assert_eq!(r.get(&iset("a")).unwrap().display_support(), 27);
        assert!(r.get(&ItemSet::from_ids([6_543_210])).is_none());
    }
}
