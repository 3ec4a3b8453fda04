//! A stream's publication history: the one piece of the past the stream
//! guarantee reads. Prior Knowledge 2's republication rule compares each
//! itemset with the release directly before it, and a `release_delta` is
//! the difference to that same release. [`crate::StreamPipeline`] owns one
//! [`PublicationHistory`] per stream; a [`crate::PrivacyDefense`] reads it
//! and keeps none of it.
//!
//! The previous release's pairs live in a pin table that is changed in
//! place, not rebuilt per publication. A pin is found by its `Arc`'s
//! address first: Moment hands a closed set the same `Arc` for as long as
//! its node lives, which is exactly as long as the republication rule can
//! pin it. Only an `Arc` the table has not seen (a new or re-created node,
//! a history restored from the log, a release withheld while a node was
//! re-created) is looked up by content.

use crate::audit::{audit_pin, AuditError};
use crate::engine::ReleaseDelta;
use crate::release::{SanitizedItemset, SanitizedRelease};
use bfly_common::{ItemsetId, SanitizedSupport, Support};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An itemset's `(true, sanitized)` pair in a release.
type Pair = (Support, SanitizedSupport);

/// The previous **emitted** release of one stream: its `(true, sanitized)`
/// pairs by itemset, its stream position, and the number of releases
/// emitted. [`Default`] is a stream that has published nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PublicationHistory {
    pins: PinTable,
    stream_len: u64,
    published: u64,
}

/// One pinned itemset: the `Arc` it is filed under, its pair, and the last
/// [`PublicationHistory::follow`] that found it.
#[derive(Clone, Debug)]
struct Pin {
    id: ItemsetId,
    pair: Pair,
    seen: u64,
}

/// The previous release's pins, indexed twice.
#[derive(Clone, Debug, Default)]
struct PinTable {
    /// The address of a pin's `Arc` → the pin. The pin holds that `Arc`,
    /// so no address in the table is reused while its pin lives.
    by_addr: HashMap<usize, Pin, BuildHasherDefault<AddrHasher>>,
    /// A pin's itemset → the address it is filed under.
    by_content: HashMap<ItemsetId, usize>,
    /// Follows so far: the mark each one leaves on the pins it finds.
    follows: u64,
}

/// The address an `Arc` points at.
fn addr(id: &ItemsetId) -> usize {
    Arc::as_ptr(id) as usize
}

impl PinTable {
    /// The address the pin of `id`'s itemset is filed under: `id`'s own,
    /// else the one its content names.
    fn address(&self, id: &ItemsetId) -> Option<usize> {
        let at = addr(id);
        if self.by_addr.contains_key(&at) {
            return Some(at);
        }
        self.by_content.get(&**id).copied()
    }

    /// The pin of `id`'s itemset (see [`PinTable::address`]).
    fn find(&self, id: &ItemsetId) -> Option<&Pin> {
        self.by_addr.get(&self.address(id)?)
    }

    /// File a pin the table does not hold under `id`. A second entry for
    /// one itemset in one release updates the first one's pin.
    fn file(&mut self, id: &ItemsetId, pair: Pair) {
        match self.by_content.entry(id.clone()) {
            Entry::Occupied(held) => {
                let at = *held.get();
                self.set(at, pair);
            }
            Entry::Vacant(slot) => {
                slot.insert(addr(id));
                let pin = Pin {
                    id: id.clone(),
                    pair,
                    seen: self.follows,
                };
                self.by_addr.insert(addr(id), pin);
            }
        }
    }

    fn set(&mut self, at: usize, pair: Pair) {
        self.by_addr.get_mut(&at).expect("a filed pin").pair = pair;
    }

    /// Move the pin filed under `at` to `id`, another `Arc` of its
    /// itemset, so the next lookup of `id` hits by address.
    fn refile(&mut self, at: usize, id: &ItemsetId, pair: Pair) {
        self.by_addr.remove(&at);
        self.by_content.remove(&**id);
        self.by_content.insert(id.clone(), addr(id));
        let pin = Pin {
            id: id.clone(),
            pair,
            seen: self.follows,
        };
        self.by_addr.insert(addr(id), pin);
    }
}

impl PartialEq for PinTable {
    /// Equal pairs for equal itemsets, whichever `Arc`s hold them.
    fn eq(&self, other: &Self) -> bool {
        self.by_addr.len() == other.by_addr.len()
            && (self.by_addr.values()).all(|p| other.find(&p.id).is_some_and(|q| q.pair == p.pair))
    }
}

impl Eq for PinTable {}

/// Hashes a heap address, which no client chooses: a multiply, with the
/// high half folded down so the aligned low bits still spread.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(self.0 as usize ^ usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        let h = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// What [`PublicationHistory::follow`] found of a release in the history:
/// per entry, the address of its pin, and how many pins it found. Spent by
/// [`PublicationHistory::adopt`].
pub(crate) struct Followed {
    found: Vec<Option<usize>>,
    kept: usize,
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
        let mut pins = PinTable::default();
        for e in previous {
            pins.file(&e.id, (e.true_support, e.sanitized));
        }
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

    /// The republication rule: the value `id`'s itemset keeps while its
    /// true support is still `support`.
    pub(crate) fn pinned(&self, id: &ItemsetId, support: Support) -> Option<SanitizedSupport> {
        match self.pins.find(id) {
            Some(pin) if pin.pair.0 == support => Some(pin.pair.1),
            _ => None,
        }
    }

    /// Take `release`, emitted at `stream_len`, as the latest and return its
    /// delta: the pipeline's one pass without the audit, for callers that
    /// publish without a [`crate::StreamPipeline`].
    pub fn record(&mut self, release: &SanitizedRelease, stream_len: u64) -> ReleaseDelta {
        let (delta, followed) = self.follow(release, None, true);
        self.adopt(release, stream_len, followed);
        delta
    }

    /// The one pass over `release` against this history: it finds each
    /// entry's pin, given `deltas` sorts the entries into the delta's
    /// `added` and `changed` and lists its `removed` (else the delta stays
    /// empty), and, given `audit`, holds every entry to the pin rules and
    /// pushes what fails. It changes no pin, only marks the ones it finds:
    /// the caller [adopts](Self::adopt) the release, or withholds it and
    /// leaves no trace.
    pub(crate) fn follow(
        &mut self,
        release: &SanitizedRelease,
        mut audit: Option<&mut Vec<AuditError>>,
        deltas: bool,
    ) -> (ReleaseDelta, Followed) {
        let capacity = if deltas { release.len() } else { 0 };
        let mut delta = ReleaseDelta {
            added: Vec::with_capacity(capacity),
            changed: Vec::with_capacity(capacity),
            removed: Vec::new(),
        };
        let mut found = Vec::with_capacity(release.len());
        let (mut class, mut kept) = (None, 0);
        self.pins.follows += 1;
        let mark = self.pins.follows;
        for e in release.iter() {
            let at = self.pins.address(&e.id);
            let pin = at.and_then(|at| self.pins.by_addr.get_mut(&at));
            let previous = pin.map(|pin| {
                kept += usize::from(pin.seen != mark);
                pin.seen = mark;
                pin.pair
            });
            match previous {
                _ if !deltas => {}
                None => delta.added.push(e.clone()),
                Some(pair) if pair != (e.true_support, e.sanitized) => {
                    delta.changed.push(e.clone())
                }
                Some(_) => {}
            }
            if let Some(errors) = audit.as_deref_mut() {
                audit_pin(errors, e, previous, &mut class);
            }
            found.push(at);
        }
        if deltas && kept < self.pins.by_addr.len() {
            let gone = self.pins.by_addr.values().filter(|pin| pin.seen != mark);
            delta.removed = gone.map(|pin| pin.id.clone()).collect();
            delta.removed.sort_unstable();
        }
        (delta, Followed { found, kept })
    }

    /// Take `release`, emitted at `stream_len` and [followed](Self::follow)
    /// against this history, as the latest: drop the pins it lacks, update
    /// the ones it holds in place, file its new itemsets.
    pub(crate) fn adopt(
        &mut self,
        release: &SanitizedRelease,
        stream_len: u64,
        followed: Followed,
    ) {
        let Followed { found, kept } = followed;
        let pins = &mut self.pins;
        if kept < pins.by_addr.len() {
            let (by_content, mark) = (&mut pins.by_content, pins.follows);
            pins.by_addr.retain(|_, pin| {
                let keep = pin.seen == mark;
                if !keep {
                    by_content.remove(&*pin.id);
                }
                keep
            });
        }
        for (e, at) in release.iter().zip(found) {
            let pair = (e.true_support, e.sanitized);
            match at {
                Some(at) if at == addr(&e.id) => pins.set(at, pair),
                Some(at) => pins.refile(at, &e.id, pair),
                None => pins.file(&e.id, pair),
            }
        }
        self.stream_len = stream_len;
        self.published += 1;
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
        assert_eq!(h.pinned(&entry("a", 0, 0).id, 30), Some(27));
        assert_eq!(h.pinned(&entry("b", 0, 0).id, 30), None, "support moved");
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
