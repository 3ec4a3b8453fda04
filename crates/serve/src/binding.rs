//! Per-stream defense bindings: the `bind` wire op's state.
//!
//! A client may bind one stream key to a non-default [`DefenseKind`] —
//! *before* that stream's first accepted ingest. Binding is a creation-time
//! property: a pipeline's defense cannot change mid-stream (the stream's
//! history, which Butterfly pins against and PrivBasis keys its window
//! index on, and suppression's ledger all assume one defense made it), so a
//! bind that arrives after the stream's pipeline exists is rejected with an
//! error naming the conflict instead of silently applying to a suffix.
//!
//! Concurrency: the map is a single mutex shared by the connection handlers
//! (which record binds) and the shard workers (which consume them at
//! pipeline creation). Both touch it once per stream lifetime, not per
//! record, so contention is nil. If a bind and the stream's first ingest
//! race on different connections, whichever reaches the mutex first wins —
//! the same guarantee any first-write-wins registration has.

use bfly_core::DefenseKind;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    /// Keys bound to a non-default defense, not yet materialized.
    overrides: HashMap<String, DefenseKind>,
    /// Keys whose pipeline already exists (bind window closed).
    active: HashSet<String>,
}

/// Registry of per-stream defense overrides (see module docs).
#[derive(Default)]
pub(crate) struct DefenseBindings {
    inner: Mutex<Inner>,
}

impl DefenseBindings {
    /// Record a bind for `key`. Errors if the stream is already active.
    pub(crate) fn bind(&self, key: &str, kind: DefenseKind) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("bindings mutex");
        if inner.active.contains(key) {
            return Err(format!(
                "stream {key:?} is already active; bind must precede its first ingest"
            ));
        }
        inner.overrides.insert(key.to_string(), kind);
        Ok(())
    }

    /// Consume the override for `key` (if any) and close its bind window.
    /// Called by the shard worker exactly once, at pipeline creation.
    pub(crate) fn materialize(&self, key: &str) -> Option<DefenseKind> {
        let mut inner = self.inner.lock().expect("bindings mutex");
        inner.active.insert(key.to_string());
        inner.overrides.remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_applies_once_then_stream_is_sealed() {
        let b = DefenseBindings::default();
        b.bind("s", DefenseKind::PrivBasis).unwrap();
        assert_eq!(b.materialize("s"), Some(DefenseKind::PrivBasis));
        let err = b.bind("s", DefenseKind::Suppression).unwrap_err();
        assert!(err.contains("already active"), "got {err}");
        // Unbound keys materialize to the config default.
        assert_eq!(b.materialize("t"), None);
    }

    #[test]
    fn rebinding_before_first_ingest_takes_the_latest() {
        let b = DefenseBindings::default();
        b.bind("s", DefenseKind::PrivBasis).unwrap();
        b.bind("s", DefenseKind::Suppression).unwrap();
        assert_eq!(b.materialize("s"), Some(DefenseKind::Suppression));
    }
}
