//! A stream's publication history: the one piece of the past the stream
//! guarantee reads. Prior Knowledge 2's republication rule compares each
//! itemset with the release directly before it, and a `release_delta` is
//! the difference to that same release. [`crate::StreamPipeline`] owns one
//! [`PublicationHistory`] per stream; a [`crate::PrivacyDefense`] reads it
//! and keeps none of it.

use crate::audit::{audit_pin, AuditError};
use crate::engine::ReleaseDelta;
use crate::release::{SanitizedItemset, SanitizedRelease};
use bfly_common::{ItemSet, ItemsetId, SanitizedSupport, Support};
use std::collections::HashMap;

/// The previous **emitted** release of one stream: its `(true, sanitized)`
/// pairs keyed by itemset, its stream position, and the number of releases
/// emitted. [`Default`] is a stream that has published nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PublicationHistory {
    pins: HashMap<ItemsetId, (Support, SanitizedSupport)>,
    stream_len: u64,
    published: u64,
}

impl PublicationHistory {
    /// A stream that has emitted `published` releases, the last being
    /// `previous` at `stream_len` — what WAL recovery rebuilds from a
    /// snapshot. A fresh publish cannot stand in for it: a pin may hold a
    /// value drawn under an earlier window's bias.
    pub fn restored(
        published: u64,
        stream_len: u64,
        previous: impl IntoIterator<Item = SanitizedItemset>,
    ) -> Self {
        let pins = previous
            .into_iter()
            .map(|e| (e.id, (e.true_support, e.sanitized)))
            .collect();
        PublicationHistory {
            pins,
            stream_len,
            published,
        }
    }

    /// Releases emitted so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Stream position of the previous release (0 before the first): the
    /// next delta's `base_len`.
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// The republication rule: the value `itemset` keeps while its true
    /// support is still `support`.
    pub(crate) fn pinned(&self, itemset: &ItemSet, support: Support) -> Option<SanitizedSupport> {
        match self.pins.get(itemset) {
            Some(&(t, sanitized)) if t == support => Some(sanitized),
            _ => None,
        }
    }

    /// Take `release`, emitted at `stream_len`, as the latest and return its
    /// delta: the pipeline's one pass without the audit, for callers that
    /// publish without a [`crate::StreamPipeline`].
    pub fn record(&mut self, release: &SanitizedRelease, stream_len: u64) -> ReleaseDelta {
        let (next, delta) = self.follow(release, stream_len, None);
        *self = next;
        delta
    }

    /// The one pass over `release` against this history: it sorts entries
    /// into the delta's `added` and `changed`, builds the next history and
    /// the delta's `removed`, and, given `audit`, holds every entry to the
    /// pin rules and pushes what fails. The caller adopts the next history.
    pub(crate) fn follow(
        &self,
        release: &SanitizedRelease,
        stream_len: u64,
        mut audit: Option<&mut Vec<AuditError>>,
    ) -> (PublicationHistory, ReleaseDelta) {
        let mut pins = HashMap::with_capacity(release.len());
        let mut delta = ReleaseDelta::default();
        let (mut class, mut kept) = (None, 0);
        for e in release.iter() {
            let previous = self.pins.get(&e.id).copied();
            match previous {
                None => delta.added.push(e.clone()),
                Some(pair) if pair != (e.true_support, e.sanitized) => {
                    delta.changed.push(e.clone())
                }
                Some(_) => {}
            }
            if let Some(errors) = audit.as_deref_mut() {
                audit_pin(errors, e, previous, &mut class);
            }
            let first = pins
                .insert(e.id.clone(), (e.true_support, e.sanitized))
                .is_none();
            kept += usize::from(first && previous.is_some());
        }
        if kept < self.pins.len() {
            let gone = self.pins.keys().filter(|id| !pins.contains_key(*id));
            delta.removed = gone.cloned().collect();
            delta.removed.sort_unstable();
        }
        let next = PublicationHistory {
            pins,
            stream_len,
            published: self.published + 1,
        };
        (next, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(s: &str, t: Support, sanitized: SanitizedSupport) -> SanitizedItemset {
        SanitizedItemset {
            id: ItemsetId::new(s.parse().unwrap()),
            true_support: t,
            sanitized,
        }
    }

    #[test]
    fn record_diffs_against_the_previous_release_and_counts_it() {
        let mut h = PublicationHistory::default();
        let first = SanitizedRelease::new(vec![
            entry("a", 30, 27),
            entry("b", 30, 27),
            entry("c", 45, 46),
        ]);
        let d = h.record(&first, 8);
        assert_eq!(d.added.len(), 3);
        assert!(d.changed.is_empty() && d.removed.is_empty());
        assert_eq!((h.published(), h.stream_len()), (1, 8));

        let next = SanitizedRelease::new(vec![
            entry("a", 30, 27), // republished
            entry("b", 31, 33), // support moved: re-perturbed
            entry("d", 50, 48), // new
        ]);
        let d = h.record(&next, 10);
        assert_eq!(d.added, vec![entry("d", 50, 48)]);
        assert_eq!(d.changed, vec![entry("b", 31, 33)]);
        assert_eq!(d.removed, vec![entry("c", 0, 0).id]);
        assert_eq!((h.published(), h.stream_len()), (2, 10));
        assert_eq!(h.pinned(&"a".parse().unwrap(), 30), Some(27));
        assert_eq!(h.pinned(&"b".parse().unwrap(), 30), None, "support moved");
        let republished = h.record(&next, 12);
        assert_eq!(republished, ReleaseDelta::default());
    }

    #[test]
    fn restored_is_the_history_recording_would_have_built() {
        let release = SanitizedRelease::new(vec![entry("a", 30, 27), entry("ab", 41, 40)]);
        let mut recorded = PublicationHistory::default();
        recorded.record(&release, 20);
        let restored = PublicationHistory::restored(1, 20, release.iter().cloned());
        assert_eq!(restored.pins, recorded.pins);
        assert_eq!(
            (restored.published(), restored.stream_len()),
            (recorded.published(), recorded.stream_len())
        );
    }
}
