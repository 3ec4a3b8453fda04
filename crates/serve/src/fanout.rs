//! Subscriber registry: stream key → the connections that want its releases.
//!
//! Fan-out must never block a shard worker: every subscriber connection is
//! reached through its bounded [`crate::reactor::EventSink`], which enqueues
//! onto the reactor's mailbox, and the registry only ever try-sends into it.
//! A subscriber whose sink is full (a slow or stalled consumer) is
//! disconnected and counted — bounded memory beats unbounded patience, and
//! the client can reconnect and re-subscribe.
//!
//! Subscribers may speak different frame encodings ([`FrameMode`]); a
//! publication is serialized at most once per mode actually present via
//! [`SubscriberRegistry::publish_with`]'s lazy per-mode cache.

use crate::reactor::EventSink;
use crate::stats::ShardStats;
use bfly_common::FrameMode;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One serialized outbound frame — an NDJSON line (`\n` included) or a
/// binary frame. `Arc` so a release published to many subscribers is
/// serialized once and shared.
pub type OutBytes = Arc<[u8]>;

/// Serialize one JSON document as an NDJSON wire line.
pub fn json_line(v: &bfly_common::Json) -> OutBytes {
    Arc::from(format!("{v}\n").into_bytes().into_boxed_slice())
}

struct Entry {
    conn: u64,
    mode: FrameMode,
    sink: Arc<EventSink>,
}

/// Shared subscriber table. Lock granularity is the whole table, taken
/// briefly at subscribe/unsubscribe and once per published window — a
/// window-rate cost, not a record-rate one.
#[derive(Default)]
pub struct SubscriberRegistry {
    inner: Mutex<HashMap<String, Vec<Entry>>>,
}

impl SubscriberRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        SubscriberRegistry::default()
    }

    /// Register connection `conn`'s sink for `stream`'s releases, encoded
    /// in `mode`.
    pub fn subscribe(&self, stream: &str, conn: u64, mode: FrameMode, sink: Arc<EventSink>) {
        let mut map = self.inner.lock().expect("registry poisoned");
        let subs = map.entry(stream.to_string()).or_default();
        // Re-subscribing the same connection replaces, not duplicates.
        subs.retain(|e| e.conn != conn);
        subs.push(Entry { conn, mode, sink });
    }

    /// Drop every subscription held by connection `conn` (connection
    /// closed).
    pub fn unsubscribe_conn(&self, conn: u64) {
        let mut map = self.inner.lock().expect("registry poisoned");
        map.retain(|_, subs| {
            subs.retain(|e| e.conn != conn);
            !subs.is_empty()
        });
    }

    /// Deliver one publication to every subscriber of `stream`, encoding at
    /// most once per frame mode present (`encode` is called lazily). Never
    /// blocks: a full or disconnected sink drops that subscriber (counted in
    /// `stats.subscriber_drops`).
    pub fn publish_with(
        &self,
        stream: &str,
        stats: &ShardStats,
        mut encode: impl FnMut(FrameMode) -> OutBytes,
    ) {
        let mut map = self.inner.lock().expect("registry poisoned");
        let Some(subs) = map.get_mut(stream) else {
            return;
        };
        let mut cache: [Option<OutBytes>; 2] = [None, None];
        subs.retain(|e| {
            let bytes = cache[e.mode.index()]
                .get_or_insert_with(|| encode(e.mode))
                .clone();
            match e.sink.try_send(bytes) {
                Ok(()) => true,
                Err(()) => {
                    ShardStats::add(&stats.subscriber_drops, 1);
                    false
                }
            }
        });
        if subs.is_empty() {
            map.remove(stream);
        }
    }

    /// Deliver a final frame to `stream`'s subscribers and remove the
    /// stream from the table (shutdown: the owning shard has flushed it).
    /// The frame is the same bytes for every mode — `closed` events are
    /// NDJSON control traffic even to binary subscribers.
    pub fn close_stream(&self, stream: &str, bytes: OutBytes) {
        let mut map = self.inner.lock().expect("registry poisoned");
        if let Some(subs) = map.remove(stream) {
            for e in subs {
                let _ = e.sink.try_send(bytes.clone());
            }
        }
    }

    /// Number of live subscriptions across all streams.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("registry poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Drop every remaining subscription (end of shutdown: streams that
    /// never published).
    pub fn clear(&self) {
        self.inner.lock().expect("registry poisoned").clear();
    }
}

// The sinks below need the reactor's mailbox, which exists where it does.
#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use crate::reactor::test_sink;

    fn bytes(s: &str) -> OutBytes {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    fn text(b: &OutBytes) -> String {
        String::from_utf8(b.to_vec()).unwrap()
    }

    #[test]
    fn publish_reaches_only_that_streams_subscribers() {
        let reg = SubscriberRegistry::new();
        let stats = ShardStats::default();
        let (sink_a, rx_a) = test_sink(4);
        let (sink_b, rx_b) = test_sink(4);
        reg.subscribe("a", 1, FrameMode::Json, sink_a);
        reg.subscribe("b", 2, FrameMode::Json, sink_b);
        reg.publish_with("a", &stats, |_| bytes("ra"));
        assert_eq!(text(&rx_a.try_recv().unwrap()), "ra");
        assert!(rx_b.try_recv().is_err());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn encode_runs_once_per_mode_present() {
        let reg = SubscriberRegistry::new();
        let stats = ShardStats::default();
        let (sink_1, rx_1) = test_sink(4);
        let (sink_2, rx_2) = test_sink(4);
        let (sink_3, rx_3) = test_sink(4);
        reg.subscribe("s", 1, FrameMode::Json, sink_1);
        reg.subscribe("s", 2, FrameMode::Binary, sink_2);
        reg.subscribe("s", 3, FrameMode::Json, sink_3);
        let mut calls = Vec::new();
        reg.publish_with("s", &stats, |mode| {
            calls.push(mode);
            bytes(mode.name())
        });
        assert_eq!(calls.len(), 2, "one encode per mode, not per subscriber");
        assert_eq!(text(&rx_1.try_recv().unwrap()), "json");
        assert_eq!(text(&rx_2.try_recv().unwrap()), "binary");
        assert_eq!(text(&rx_3.try_recv().unwrap()), "json");
    }

    #[test]
    fn slow_subscriber_is_dropped_not_buffered() {
        let reg = SubscriberRegistry::new();
        let stats = ShardStats::default();
        let (sink, _rx) = test_sink(1);
        reg.subscribe("s", 1, FrameMode::Json, sink);
        reg.publish_with("s", &stats, |_| bytes("r1")); // fills the budget
        reg.publish_with("s", &stats, |_| bytes("r2")); // overflows → drop
        assert_eq!(reg.len(), 0, "slow subscriber kept");
        assert_eq!(
            stats
                .subscriber_drops
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn unsubscribe_conn_removes_all_its_streams() {
        let reg = SubscriberRegistry::new();
        let (sink_a, _rx_a) = test_sink(4);
        let (sink_b, _rx_b) = test_sink(4);
        let (sink_c, _rx_c) = test_sink(4);
        reg.subscribe("a", 7, FrameMode::Json, sink_a);
        reg.subscribe("b", 7, FrameMode::Json, sink_b);
        reg.subscribe("a", 8, FrameMode::Json, sink_c);
        reg.unsubscribe_conn(7);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn resubscribe_replaces() {
        let reg = SubscriberRegistry::new();
        let (sink_1, _rx_1) = test_sink(4);
        let (sink_2, _rx_2) = test_sink(4);
        reg.subscribe("a", 7, FrameMode::Json, sink_1);
        reg.subscribe("a", 7, FrameMode::Binary, sink_2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn close_stream_notifies_and_removes() {
        let reg = SubscriberRegistry::new();
        let (sink, rx) = test_sink(4);
        reg.subscribe("a", 1, FrameMode::Json, sink);
        reg.close_stream("a", bytes("closed"));
        assert_eq!(text(&rx.try_recv().unwrap()), "closed");
        assert_eq!(reg.len(), 0);
    }
}
