//! The client wire protocol: NDJSON requests and replies, and release
//! events in the encoding each subscriber negotiated.
//!
//! **Requests** (client → server) are one JSON object per line carrying an
//! `"op"` field (an ingest may instead arrive as a binary frame):
//!
//! | op          | fields                                   | reply |
//! |-------------|------------------------------------------|-------|
//! | `ingest`    | `stream`, `items` *or* `batch`           | `{"ok":true,"accepted":n}` or `{"ok":false,"error":"overloaded","accepted":a,"shed":s}` |
//! | `bind`      | `stream`, `defense`                      | `{"ok":true,"stream":k,"defense":d}`; must precede the stream's first ingest |
//! | `subscribe` | `stream`, optional `frame` (`json`/`binary`), optional `from` (`earliest` / `window:<n>`) | `{"ok":true,"stream":k}`, then events; with `from`, logged releases replay first (requires `--wal-dir`) |
//! | `stats`     | —                                        | per-shard counters |
//! | `ping`      | —                                        | `{"ok":true,"pong":true}` |
//! | `shutdown`  | —                                        | `{"ok":true,"draining":true}`, then drain + exit |
//!
//! Every request gets exactly one reply line, in request order. Clients may
//! pipeline requests; backpressure is the reply stream itself plus the
//! bounded per-shard ingress queue behind it.
//!
//! **An ingest is never a [`Request`] on the serve side.** The server's
//! codec (`bfly_common::FrameCodec::next_inbound`) decodes an ingest line,
//! like a binary ingest frame, straight into an `IngestChunk`, and refuses
//! one that breaks a field rule with the reply [`Request::from_json`]'s
//! error would get: both call the one copy of the rules beside
//! `IngestChunk` (`stream_key`, `choose_source`, `check_width`, `item_id`).
//! [`Request::Ingest`], [`Request::from_json`]'s ingest arm and
//! [`Request::to_json`] serve the [`crate::Client`] and the benchmark.
//!
//! **Events** (server → subscriber) carry an `"event"` field instead:
//!
//! | event           | fields                                              | meaning |
//! |-----------------|-----------------------------------------------------|---------|
//! | `release`       | `stream`, `stream_len`, `itemsets`                  | full sanitized snapshot (same shape as CLI `protect` output) |
//! | `release_delta` | `stream`, `stream_len`, `base_len`, `added`, `changed`, `removed` | what changed vs. the publication at `base_len`; apply to a reconstructed state at `base_len` |
//! | `closed`        | `stream`                                            | stream drained during shutdown; no more releases follow |
//!
//! With `snapshot_every = 1` (the default) only `release` snapshots are
//! emitted — the legacy protocol. With `N > 1` every publication ships a
//! `release_delta`, and every `N`-th additionally ships the full `release`
//! snapshot, so a subscriber joining mid-stream syncs on the next snapshot
//! and rides O(churn) deltas from there ([`SubscriberState`] implements
//! that reconstruction, verifying each snapshot it was already synced for).
//!
//! **One encoding path.** A publication is converted into binary frame
//! entries once ([`binary_entries`]). The log's `release` record, binary
//! subscribers and `from:` catch-up carry those entries; an NDJSON event
//! line is the frame's transcode ([`binary_event_json`]), live and in
//! catch-up alike, and `protect` writes its `itemsets` with the same
//! [`entries_json`].

use bfly_common::{
    BinaryEntry, BinaryFrame, Error, FrameMode, IngestChunk, IngestRefusal, ItemSet, Json, Result,
};
use bfly_core::{DefenseKind, ReleaseDelta, SanitizedItemset, SanitizedRelease};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Feed transactions into a stream. `batch` holds one itemset per
    /// transaction; the single-`items` wire form parses into a batch of one.
    Ingest {
        /// Stream key (tenant id).
        stream: String,
        /// Transactions, in arrival order.
        batch: Vec<ItemSet>,
    },
    /// Bind one stream to a non-default privacy defense. Must arrive before
    /// the stream's first accepted ingest (a pipeline's defense is fixed at
    /// creation); later binds are rejected.
    Bind {
        /// Stream key (tenant id).
        stream: String,
        /// Defense the stream's releases will be published under.
        defense: DefenseKind,
    },
    /// Turn this connection into a subscriber of a stream's releases.
    Subscribe {
        /// Stream key to subscribe to.
        stream: String,
        /// Encoding the subscriber wants its `release`/`release_delta`
        /// events in. Control events (`closed`) stay NDJSON either way.
        frame: FrameMode,
        /// Catch-up request: replay the stream's logged releases (from the
        /// WAL, oldest first) before live events. `None` = live only, the
        /// pre-WAL behavior. Requires the server to run with `--wal-dir`.
        from: Option<CatchUp>,
    },
    /// Ask for per-shard counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain queues, flush full windows, close
    /// subscribers, exit.
    Shutdown,
}

/// How far back a subscriber wants log-served catch-up to reach. The log's
/// horizon is whatever compaction retained — `earliest` means "everything
/// still on disk", not "since the stream began".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatchUp {
    /// Every logged release still retained.
    Earliest,
    /// Logged releases at stream position `>= n`.
    Window(u64),
}

impl CatchUp {
    /// Lowest `stream_len` the subscriber wants replayed.
    pub fn min_len(self) -> u64 {
        match self {
            CatchUp::Earliest => 0,
            CatchUp::Window(n) => n,
        }
    }

    /// The wire spelling (`earliest` / `window:<n>`).
    pub fn wire(self) -> String {
        match self {
            CatchUp::Earliest => "earliest".to_string(),
            CatchUp::Window(n) => format!("window:{n}"),
        }
    }
}

impl std::str::FromStr for CatchUp {
    type Err = Error;

    fn from_str(s: &str) -> Result<CatchUp> {
        if s == "earliest" {
            return Ok(CatchUp::Earliest);
        }
        if let Some(n) = s.strip_prefix("window:") {
            return n
                .parse::<u64>()
                .map(CatchUp::Window)
                .map_err(|_| Error::Parse(format!("bad \"from\" window {n:?}")));
        }
        Err(Error::Parse(format!(
            "bad \"from\" {s:?} (expected \"earliest\" or \"window:<n>\")"
        )))
    }
}

impl Request {
    /// Parse one request frame.
    pub fn from_json(v: &Json) -> Result<Request> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::Parse("request missing \"op\"".into()))?;
        match op {
            // Frozen: `benchmark/src/trace.rs:337` times `Json::parse` and
            // this arm as the NDJSON request parse. A server never comes
            // here for an ingest: its codec decodes the line straight into
            // an `IngestChunk` under the same rules.
            "ingest" => {
                let stream = required_stream(v)?;
                let items = v.get("items").map(std::slice::from_ref);
                let txs =
                    IngestChunk::choose_source(items, v.get("batch").and_then(Json::as_array))?;
                let batch = txs.iter().map(parse_itemset).collect::<Result<_>>()?;
                Ok(Request::Ingest { stream, batch })
            }
            "bind" => {
                let stream = required_stream(v)?;
                let name = v
                    .get("defense")
                    .and_then(Json::as_str)
                    .ok_or_else(|| Error::Parse("bind missing \"defense\"".into()))?;
                // Unknown names die here with the valid list — the wire
                // twin of the CLI's --defense validation.
                let defense = name.parse::<DefenseKind>()?;
                Ok(Request::Bind { stream, defense })
            }
            "subscribe" => {
                let frame = match v.get("frame") {
                    None => FrameMode::default(),
                    Some(f) => f
                        .as_str()
                        .ok_or_else(|| Error::Parse("\"frame\" must be a string".into()))?
                        .parse::<FrameMode>()?,
                };
                let from = match v.get("from") {
                    None => None,
                    Some(f) => Some(
                        f.as_str()
                            .ok_or_else(|| Error::Parse("\"from\" must be a string".into()))?
                            .parse::<CatchUp>()?,
                    ),
                };
                Ok(Request::Subscribe {
                    stream: required_stream(v)?,
                    frame,
                    from,
                })
            }
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Error::Parse(format!("unknown op {other:?}"))),
        }
    }

    /// Encode back to the wire form: clients send it, and a router
    /// re-serialises the bind, stats, shutdown and subscribe requests it
    /// forwards to its nodes.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ingest { stream, batch } => Json::obj([
                ("op", Json::from("ingest")),
                ("stream", Json::from(stream.as_str())),
                (
                    "batch",
                    Json::Arr(batch.iter().map(itemset_to_json).collect()),
                ),
            ]),
            Request::Bind { stream, defense } => Json::obj([
                ("op", Json::from("bind")),
                ("stream", Json::from(stream.as_str())),
                ("defense", Json::from(defense.name())),
            ]),
            Request::Subscribe {
                stream,
                frame,
                from,
            } => {
                // Defaults omit their fields: byte-compatible with the
                // pre-negotiation (and pre-WAL) wire forms.
                let mut fields = vec![
                    ("op", Json::from("subscribe")),
                    ("stream", Json::from(stream.as_str())),
                ];
                if *frame == FrameMode::Binary {
                    fields.push(("frame", Json::from(frame.name())));
                }
                if let Some(from) = from {
                    fields.push(("from", Json::Str(from.wire())));
                }
                Json::obj(fields)
            }
            Request::Stats => Json::obj([("op", Json::from("stats"))]),
            Request::Ping => Json::obj([("op", Json::from("ping"))]),
            Request::Shutdown => Json::obj([("op", Json::from("shutdown"))]),
        }
    }
}

/// The stream key every op that names a stream carries, under the ingest
/// key rule ([`IngestChunk::stream_key`]).
fn required_stream(v: &Json) -> Result<String> {
    Ok(IngestChunk::stream_key(v.get("stream").and_then(Json::as_str))?.to_string())
}

fn parse_itemset(v: &Json) -> Result<ItemSet> {
    let ids = v.as_array().ok_or(IngestRefusal::NotATransaction)?;
    IngestChunk::check_width(ids.len())?;
    let items: Vec<u32> = ids
        .iter()
        .map(|id| {
            id.as_f64()
                .and_then(IngestChunk::item_id)
                .ok_or(IngestRefusal::BadItemId)
        })
        .collect::<std::result::Result<_, _>>()?;
    Ok(ItemSet::from_ids(items))
}

fn itemset_to_json(items: &ItemSet) -> Json {
    Json::Arr(items.iter().map(|i| Json::from(i.id() as u64)).collect())
}

/// Reply to a fully accepted ingest.
pub fn ingest_ok(accepted: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("accepted", Json::from(accepted as u64)),
    ])
}

/// Explicit load-shed reply: the shard's ingress queue was full for `shed`
/// of the batch's transactions. The client knows exactly how much was
/// dropped and can back off.
pub fn ingest_overloaded(accepted: usize, shed: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from("overloaded")),
        ("accepted", Json::from(accepted as u64)),
        ("shed", Json::from(shed as u64)),
    ])
}

/// Generic error reply.
pub fn error_reply(msg: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::from(msg))])
}

/// Stream-drained event: sent to a stream's subscribers after its final
/// flush during shutdown.
pub fn closed_event(stream: &str) -> Json {
    Json::obj([
        ("event", Json::from("closed")),
        ("stream", Json::from(stream)),
    ])
}

/// The one conversion of sanitized entries into wire entries: item ids and
/// the sanitized support, never the true one. Every `release` record,
/// frame, event line and `protect` line is built from its output.
pub fn binary_entries<'a>(
    entries: impl IntoIterator<Item = &'a SanitizedItemset>,
) -> Vec<BinaryEntry> {
    entries
        .into_iter()
        .map(|e| BinaryEntry {
            ids: e.itemset().items().iter().map(|i| i.id()).collect(),
            support: e.sanitized,
        })
        .collect()
}

/// The `release` frame of one publication.
pub(crate) fn release_frame(
    stream: &str,
    stream_len: u64,
    release: &SanitizedRelease,
) -> BinaryFrame {
    BinaryFrame::Release {
        stream: stream.to_string(),
        stream_len,
        entries: binary_entries(release.iter()),
    }
}

/// The `release_delta` frame of one publication against the one at
/// `base_len`.
pub(crate) fn release_delta_frame(
    stream: &str,
    stream_len: u64,
    base_len: u64,
    delta: &ReleaseDelta,
) -> BinaryFrame {
    BinaryFrame::ReleaseDelta {
        stream: stream.to_string(),
        stream_len,
        base_len,
        added: binary_entries(&delta.added),
        changed: binary_entries(&delta.changed),
        removed: delta
            .removed
            .iter()
            .map(|id| id.items().iter().map(|i| i.id()).collect())
            .collect(),
    }
}

/// Serialize one event frame as outbound wire bytes in `mode`: the frame
/// itself, or its NDJSON transcode ([`binary_event_json`]).
pub(crate) fn frame_bytes(mode: FrameMode, frame: &BinaryFrame) -> Arc<[u8]> {
    match mode {
        FrameMode::Json => crate::fanout::json_line(
            &binary_event_json(frame).expect("only event frames are published"),
        ),
        FrameMode::Binary => Arc::from(frame.encode().into_boxed_slice()),
    }
}

/// Serialize one `release` publication as outbound wire bytes in `mode`.
/// Either encoding carries exactly the sanitized entries.
pub fn release_frame_bytes(
    mode: FrameMode,
    stream: &str,
    stream_len: u64,
    release: &SanitizedRelease,
) -> Arc<[u8]> {
    frame_bytes(mode, &release_frame(stream, stream_len, release))
}

/// Serialize one `release_delta` publication as outbound wire bytes in
/// `mode` (see [`release_frame_bytes`]).
pub fn release_delta_frame_bytes(
    mode: FrameMode,
    stream: &str,
    stream_len: u64,
    base_len: u64,
    delta: &ReleaseDelta,
) -> Arc<[u8]> {
    frame_bytes(
        mode,
        &release_delta_frame(stream, stream_len, base_len, delta),
    )
}

/// Serialize one catch-up `release` event from its logged wire entries.
/// The log records the entries the live frame carried, so either encoding
/// is byte-identical to what a live subscriber received when the window
/// was published.
pub fn catchup_release_frame_bytes(
    mode: FrameMode,
    stream: &str,
    stream_len: u64,
    entries: &[BinaryEntry],
) -> Arc<[u8]> {
    let frame = BinaryFrame::Release {
        stream: stream.to_string(),
        stream_len,
        entries: entries.to_vec(),
    };
    frame_bytes(mode, &frame)
}

/// The one JSON writer of wire entries: the `[{"itemset": [ids...],
/// "support": n}, ...]` array of `release` and `release_delta` events and
/// of `protect` lines.
pub fn entries_json(entries: &[BinaryEntry]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("itemset", ids_json(&e.ids)),
                    ("support", Json::from(e.support)),
                ])
            })
            .collect(),
    )
}

fn ids_json(ids: &[u32]) -> Json {
    Json::Arr(ids.iter().map(|&id| Json::from(id as u64)).collect())
}

/// The JSON event document of a binary event frame: the one place a
/// `release` or `release_delta` event is written. NDJSON subscribers get
/// this transcode of the frame a binary subscriber gets, and
/// subscriber-side consumers ([`SubscriberState`], watchers) handle one
/// shape whatever the negotiated encoding. `Ingest` is a request, not an
/// event — `None`.
pub fn binary_event_json(frame: &BinaryFrame) -> Option<Json> {
    match frame {
        BinaryFrame::Ingest { .. } => None,
        BinaryFrame::Release {
            stream,
            stream_len,
            entries,
        } => Some(Json::obj([
            ("event", Json::from("release")),
            ("stream", Json::from(stream.as_str())),
            ("stream_len", Json::from(*stream_len)),
            ("itemsets", entries_json(entries)),
        ])),
        BinaryFrame::ReleaseDelta {
            stream,
            stream_len,
            base_len,
            added,
            changed,
            removed,
        } => Some(Json::obj([
            ("event", Json::from("release_delta")),
            ("stream", Json::from(stream.as_str())),
            ("stream_len", Json::from(*stream_len)),
            ("base_len", Json::from(*base_len)),
            ("added", entries_json(added)),
            ("changed", entries_json(changed)),
            (
                "removed",
                Json::Arr(removed.iter().map(|ids| ids_json(ids)).collect()),
            ),
        ])),
    }
}

/// Client-side reconstruction of a stream's sanitized state from the event
/// feed: sync on the first full `release` snapshot, apply every
/// `release_delta` whose `base_len` matches the reconstructed position, and
/// verify any later snapshot the state was already caught up for. This is
/// how a subscriber that joined mid-stream (missing the early snapshots)
/// catches up under `snapshot_every > 1`.
#[derive(Clone, Debug, Default)]
pub struct SubscriberState {
    /// itemset ids → sanitized support (keyed by the wire id-array, which is
    /// canonical: item ids ascending).
    entries: BTreeMap<Vec<u64>, i64>,
    /// Stream position of the publication the state currently mirrors.
    last_len: Option<u64>,
    /// Full snapshots adopted.
    pub snapshots: u64,
    /// Deltas applied onto a matching base.
    pub deltas_applied: u64,
    /// Deltas skipped (not yet synced, or base mismatch — e.g. the delta
    /// preceding the snapshot we just adopted).
    pub deltas_skipped: u64,
    /// Snapshots that arrived while already caught up and matched the
    /// reconstructed state exactly.
    pub verified: u64,
    /// Snapshots skipped for predating the reconstructed position — WAL
    /// catch-up replay racing a live release can deliver these.
    pub snapshots_stale: u64,
}

impl SubscriberState {
    /// An unsynced subscriber (joined mid-stream, nothing seen yet).
    pub fn new() -> Self {
        SubscriberState::default()
    }

    /// Feed one subscriber event. `release`/`release_delta` update the
    /// state; other events are ignored.
    ///
    /// # Errors
    /// When a snapshot for a position the state was already reconstructed at
    /// does not match — a divergence that should be impossible if the server
    /// honors the delta invariant.
    pub fn observe(&mut self, event: &Json) -> Result<()> {
        match event.get("event").and_then(Json::as_str) {
            Some("release") => self.observe_snapshot(event),
            Some("release_delta") => self.observe_delta(event),
            _ => Ok(()),
        }
    }

    /// The reconstructed `itemset ids → sanitized support` view.
    pub fn entries(&self) -> &BTreeMap<Vec<u64>, i64> {
        &self.entries
    }

    /// Stream position the state mirrors (`None` before the first snapshot).
    pub fn stream_len(&self) -> Option<u64> {
        self.last_len
    }

    /// Has a snapshot been adopted yet?
    pub fn is_synced(&self) -> bool {
        self.last_len.is_some()
    }

    fn observe_snapshot(&mut self, event: &Json) -> Result<()> {
        let len = field_u64(event, "stream_len")?;
        let snapshot = entries_of(event.get("itemsets"), "itemsets")?;
        if self.last_len.is_some_and(|last| len < last) {
            // An older snapshot after a newer one: the tail of a log
            // catch-up replay overlapping a release that beat the
            // subscription. Position only moves forward.
            self.snapshots_stale += 1;
            return Ok(());
        }
        if self.last_len == Some(len) {
            // Already reconstructed this position from deltas: the snapshot
            // is a checksum, not new information.
            if self.entries != snapshot {
                return Err(Error::Parse(format!(
                    "snapshot at stream_len {len} diverges from delta-reconstructed state \
                     ({} vs {} entries)",
                    snapshot.len(),
                    self.entries.len()
                )));
            }
            self.verified += 1;
            return Ok(());
        }
        self.entries = snapshot;
        self.last_len = Some(len);
        self.snapshots += 1;
        Ok(())
    }

    fn observe_delta(&mut self, event: &Json) -> Result<()> {
        let base = field_u64(event, "base_len")?;
        let len = field_u64(event, "stream_len")?;
        if self.last_len != Some(base) {
            // Not synced yet, or this delta's base predates our snapshot.
            self.deltas_skipped += 1;
            return Ok(());
        }
        for ids in id_arrays_of(event.get("removed"), "removed")? {
            self.entries.remove(&ids);
        }
        for field in ["added", "changed"] {
            for (ids, support) in entries_of(event.get(field), field)? {
                self.entries.insert(ids, support);
            }
        }
        self.last_len = Some(len);
        self.deltas_applied += 1;
        Ok(())
    }
}

/// Parse a `[{"itemset": [...], "support": n}, ...]` array into the
/// reconstruction map shape.
fn entries_of(v: Option<&Json>, field: &str) -> Result<BTreeMap<Vec<u64>, i64>> {
    let arr = v
        .and_then(Json::as_array)
        .ok_or_else(|| Error::Parse(format!("event missing \"{field}\"")))?;
    let mut out = BTreeMap::new();
    for entry in arr {
        let ids = id_array(
            entry
                .get("itemset")
                .ok_or_else(|| Error::Parse("entry missing \"itemset\"".into()))?,
        )?;
        let support = entry
            .get("support")
            .and_then(Json::as_i64)
            .ok_or_else(|| Error::Parse("entry missing \"support\"".into()))?;
        out.insert(ids, support);
    }
    Ok(out)
}

/// Parse a `[[ids...], ...]` array (the `removed` field).
fn id_arrays_of(v: Option<&Json>, field: &str) -> Result<Vec<Vec<u64>>> {
    v.and_then(Json::as_array)
        .ok_or_else(|| Error::Parse(format!("event missing \"{field}\"")))?
        .iter()
        .map(id_array)
        .collect()
}

fn id_array(v: &Json) -> Result<Vec<u64>> {
    v.as_array()
        .ok_or_else(|| Error::Parse("itemset must be an id array".into()))?
        .iter()
        .map(|id| {
            id.as_u64()
                .ok_or_else(|| Error::Parse("bad item id".into()))
        })
        .collect()
}

fn field_u64(event: &Json, field: &str) -> Result<u64> {
    event
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| Error::Parse(format!("event missing \"{field}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::ItemsetId;
    use bfly_core::SanitizedItemset;

    fn entry(s: &str, t: u64, sanitized: i64) -> SanitizedItemset {
        SanitizedItemset {
            id: ItemsetId::new(s.parse().unwrap()),
            true_support: t,
            sanitized,
        }
    }

    fn ids(s: &str) -> Vec<u64> {
        s.parse::<ItemSet>()
            .unwrap()
            .iter()
            .map(|i| i.id() as u64)
            .collect()
    }

    #[test]
    fn ingest_round_trips() {
        let req = Request::Ingest {
            stream: "t1".into(),
            batch: vec![ItemSet::from_ids([3, 1, 2]), ItemSet::from_ids([9])],
        };
        let back = Request::from_json(&Json::parse(&req.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn single_items_form_parses_as_batch_of_one() {
        let v = Json::parse("{\"op\":\"ingest\",\"stream\":\"s\",\"items\":[4,2]}").unwrap();
        match Request::from_json(&v).unwrap() {
            Request::Ingest { stream, batch } => {
                assert_eq!(stream, "s");
                assert_eq!(batch, vec![ItemSet::from_ids([2, 4])]);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        for (text, want) in [
            ("{\"op\":\"stats\"}", Request::Stats),
            ("{\"op\":\"ping\"}", Request::Ping),
            ("{\"op\":\"shutdown\"}", Request::Shutdown),
            (
                "{\"op\":\"subscribe\",\"stream\":\"k\"}",
                Request::Subscribe {
                    stream: "k".into(),
                    frame: FrameMode::Json,
                    from: None,
                },
            ),
            (
                "{\"op\":\"subscribe\",\"stream\":\"k\",\"frame\":\"binary\"}",
                Request::Subscribe {
                    stream: "k".into(),
                    frame: FrameMode::Binary,
                    from: None,
                },
            ),
            (
                "{\"op\":\"bind\",\"stream\":\"k\",\"defense\":\"privbasis\"}",
                Request::Bind {
                    stream: "k".into(),
                    defense: DefenseKind::PrivBasis,
                },
            ),
        ] {
            assert_eq!(
                Request::from_json(&Json::parse(text).unwrap()).unwrap(),
                want
            );
        }
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "{}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"ingest\"}",
            "{\"op\":\"ingest\",\"stream\":\"\",\"items\":[1]}",
            "{\"op\":\"ingest\",\"stream\":\"s\"}",
            "{\"op\":\"ingest\",\"stream\":\"s\",\"items\":[-1]}",
            "{\"op\":\"ingest\",\"stream\":\"s\",\"batch\":[7]}",
            "{\"op\":\"subscribe\"}",
            "{\"op\":\"subscribe\",\"stream\":\"k\",\"frame\":\"msgpack\"}",
            "{\"op\":\"bind\",\"stream\":\"k\"}",
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn stream_key_and_transaction_are_bounded_at_the_u16_wire_lengths() {
        let ingest = |key_len: usize, items: u64| {
            let tx = Json::Arr((0..items).map(Json::from).collect());
            Request::from_json(&Json::obj([
                ("op", Json::from("ingest")),
                ("stream", Json::from("k".repeat(key_len).as_str())),
                ("batch", Json::Arr(vec![tx])),
            ]))
        };
        // At the bound both encode: the request survives the binary frame
        // the router forwards and the WAL logs.
        let at = ingest(65_535, 65_535).expect("65 535 is representable");
        let Request::Ingest { stream, batch } = &at else {
            panic!("parsed {at:?}");
        };
        let frame = BinaryFrame::Ingest {
            stream: stream.clone(),
            batch: batch.clone(),
        };
        let (op, payload) = frame.encode_payload();
        assert_eq!(BinaryFrame::decode_payload(op, &payload).unwrap(), frame);
        let err = ingest(65_536, 1).unwrap_err().to_string();
        assert!(err.contains("stream key of 65536 bytes"), "got {err}");
        let err = ingest(1, 65_536).unwrap_err().to_string();
        assert!(err.contains("transaction of 65536 items"), "got {err}");
        // Every op that names a stream goes through the same check.
        let bind = Json::obj([
            ("op", Json::from("bind")),
            ("stream", Json::from("k".repeat(65_536).as_str())),
            ("defense", Json::from("suppress")),
        ]);
        assert!(Request::from_json(&bind).is_err());
    }

    #[test]
    fn bind_round_trips_and_rejects_unknown_defense_with_valid_list() {
        let req = Request::Bind {
            stream: "t1".into(),
            defense: DefenseKind::Suppression,
        };
        let back = Request::from_json(&Json::parse(&req.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, req);

        let bad = Json::parse("{\"op\":\"bind\",\"stream\":\"k\",\"defense\":\"rot13\"}").unwrap();
        let err = Request::from_json(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown defense"), "got {err}");
        for kind in DefenseKind::ALL {
            assert!(err.contains(kind.name()), "{err} missing {kind}");
        }
    }

    #[test]
    fn subscribe_frame_negotiation_round_trips_and_default_is_legacy() {
        let legacy = Request::Subscribe {
            stream: "k".into(),
            frame: FrameMode::Json,
            from: None,
        };
        // Default mode serializes without the field: the pre-negotiation
        // wire bytes, so old servers/clients interoperate.
        assert_eq!(
            legacy.to_json().to_string(),
            "{\"op\":\"subscribe\",\"stream\":\"k\"}"
        );
        let binary = Request::Subscribe {
            stream: "k".into(),
            frame: FrameMode::Binary,
            from: None,
        };
        let back =
            Request::from_json(&Json::parse(&binary.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, binary);
    }

    #[test]
    fn subscribe_from_parses_and_round_trips() {
        for (wire, want) in [
            ("earliest", CatchUp::Earliest),
            ("window:120", CatchUp::Window(120)),
        ] {
            let req = Request::Subscribe {
                stream: "k".into(),
                frame: FrameMode::Json,
                from: Some(want),
            };
            let text = req.to_json().to_string();
            assert!(text.contains(&format!("\"from\":\"{wire}\"")), "{text}");
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, req);
        }
        assert_eq!(CatchUp::Earliest.min_len(), 0);
        assert_eq!(CatchUp::Window(40).min_len(), 40);
        for bad in [
            "{\"op\":\"subscribe\",\"stream\":\"k\",\"from\":\"latest\"}",
            "{\"op\":\"subscribe\",\"stream\":\"k\",\"from\":\"window:\"}",
            "{\"op\":\"subscribe\",\"stream\":\"k\",\"from\":\"window:-3\"}",
            "{\"op\":\"subscribe\",\"stream\":\"k\",\"from\":7}",
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    /// A publication's event document, as an NDJSON subscriber reads it.
    fn release_event(stream: &str, stream_len: u64, release: &SanitizedRelease) -> Json {
        binary_event_json(&release_frame(stream, stream_len, release)).unwrap()
    }

    fn delta_event(stream: &str, stream_len: u64, base_len: u64, delta: &ReleaseDelta) -> Json {
        binary_event_json(&release_delta_frame(stream, stream_len, base_len, delta)).unwrap()
    }

    fn text(bytes: Arc<[u8]>) -> String {
        String::from_utf8(bytes.to_vec()).unwrap()
    }

    fn hex(bytes: Arc<[u8]>) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every wire byte of one `release`, one `release_delta` (a negative
    /// support, nothing removed) and one catch-up `release`, in both
    /// encodings, as literal bytes: an encoder compared only with itself
    /// could drift without a test noticing.
    #[test]
    fn release_wire_bytes_are_pinned() {
        let release = SanitizedRelease::new(vec![entry("b", 26, 25), entry("a", 30, 27)]);
        let delta = ReleaseDelta {
            added: vec![entry("ab", 27, -3)],
            changed: vec![entry("b", 27, 26)],
            removed: vec![],
        };
        let logged = [
            BinaryEntry {
                ids: vec![2],
                support: 0,
            },
            BinaryEntry {
                ids: vec![0, 2],
                support: -1,
            },
        ];
        assert_eq!(
            text(release_frame_bytes(FrameMode::Json, "t0", 4, &release)),
            "{\"event\":\"release\",\"itemsets\":[{\"itemset\":[1],\"support\":25},\
             {\"itemset\":[0],\"support\":27}],\"stream\":\"t0\",\"stream_len\":4}\n"
        );
        assert_eq!(
            text(release_delta_frame_bytes(
                FrameMode::Json,
                "t0",
                6,
                4,
                &delta
            )),
            "{\"added\":[{\"itemset\":[0,1],\"support\":-3}],\"base_len\":4,\
             \"changed\":[{\"itemset\":[1],\"support\":26}],\"event\":\"release_delta\",\
             \"removed\":[],\"stream\":\"t0\",\"stream_len\":6}\n"
        );
        assert_eq!(
            text(catchup_release_frame_bytes(
                FrameMode::Json,
                "t1",
                8,
                &logged
            )),
            "{\"event\":\"release\",\"itemsets\":[{\"itemset\":[2],\"support\":0},\
             {\"itemset\":[0,2],\"support\":-1}],\"stream\":\"t1\",\"stream_len\":8}\n"
        );
        assert_eq!(
            hex(release_frame_bytes(FrameMode::Binary, "t0", 4, &release)),
            "bf022c0000000200743004000000000000000200000001000100000019000000000000000100\
             000000001b00000000000000"
        );
        assert_eq!(
            hex(release_delta_frame_bytes(
                FrameMode::Binary,
                "t0",
                6,
                4,
                &delta
            )),
            "bf034000000002007430060000000000000004000000000000000100000002000000000001000000\
             fdffffffffffffff010000000100010000001a0000000000000000000000"
        );
        assert_eq!(
            hex(catchup_release_frame_bytes(
                FrameMode::Binary,
                "t1",
                8,
                &logged
            )),
            "bf023000000002007431080000000000000002000000010002000000000000000000000002000000\
             000002000000ffffffffffffffff"
        );
    }

    #[test]
    fn stale_snapshots_after_catchup_are_skipped() {
        let mut sub = SubscriberState::new();
        sub.observe(&release_event(
            "t0",
            8,
            &SanitizedRelease::new(vec![entry("a", 30, 27)]),
        ))
        .unwrap();
        // The catch-up tail delivering an older position must not rewind
        // (or error on) the reconstructed state.
        sub.observe(&release_event(
            "t0",
            4,
            &SanitizedRelease::new(vec![entry("b", 26, 25)]),
        ))
        .unwrap();
        assert_eq!(sub.snapshots_stale, 1);
        assert_eq!(sub.stream_len(), Some(8));
        assert_eq!(sub.entries().get(&ids("a")), Some(&27));
    }

    #[test]
    fn reply_shapes() {
        assert_eq!(ingest_ok(3).to_string(), "{\"accepted\":3,\"ok\":true}");
        let shed = ingest_overloaded(1, 2);
        assert_eq!(shed.get("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(shed.get("shed").unwrap().as_u64(), Some(2));
        assert_eq!(shed.get("ok"), Some(&Json::Bool(false)));
        let closed = closed_event("k");
        assert_eq!(closed.get("event").unwrap().as_str(), Some("closed"));
    }

    #[test]
    fn delta_event_wire_shape() {
        let d = ReleaseDelta {
            added: vec![entry("a", 30, 27)],
            changed: vec![entry("ab", 40, 38)],
            removed: vec![ItemsetId::new("b".parse().unwrap())],
        };
        let ev = delta_event("t0", 9, 5, &d);
        assert_eq!(ev.get("event").unwrap().as_str(), Some("release_delta"));
        assert_eq!(ev.get("stream").unwrap().as_str(), Some("t0"));
        assert_eq!(ev.get("stream_len").unwrap().as_u64(), Some(9));
        assert_eq!(ev.get("base_len").unwrap().as_u64(), Some(5));
        for (field, want) in [("added", 1), ("changed", 1), ("removed", 1)] {
            assert_eq!(ev.get(field).unwrap().as_array().unwrap().len(), want);
        }
    }

    #[test]
    fn subscriber_reconstructs_from_snapshot_and_deltas() {
        let mut sub = SubscriberState::new();

        // A delta arriving before any snapshot must be skipped, not
        // misapplied — a mid-stream joiner sees these first.
        let early = delta_event(
            "t0",
            3,
            2,
            &ReleaseDelta {
                added: vec![entry("a", 30, 27)],
                ..ReleaseDelta::default()
            },
        );
        sub.observe(&early).unwrap();
        assert!(!sub.is_synced());
        assert_eq!(sub.deltas_skipped, 1);
        assert!(sub.entries().is_empty());

        // Sync on the first full snapshot.
        let snap = release_event(
            "t0",
            4,
            &SanitizedRelease::new(vec![entry("b", 26, 25), entry("a", 30, 27)]),
        );
        sub.observe(&snap).unwrap();
        assert_eq!(sub.stream_len(), Some(4));
        assert_eq!(sub.snapshots, 1);

        // Apply a matching delta: ab appears, b shifts, c (never published
        // here) is removed as a no-op.
        let d = ReleaseDelta {
            added: vec![entry("ab", 27, 24)],
            changed: vec![entry("b", 27, 26)],
            removed: vec![ItemsetId::new("c".parse().unwrap())],
        };
        sub.observe(&delta_event("t0", 6, 4, &d)).unwrap();
        assert_eq!(sub.deltas_applied, 1);
        assert_eq!(sub.stream_len(), Some(6));
        assert_eq!(sub.entries().get(&ids("a")), Some(&27));
        assert_eq!(sub.entries().get(&ids("b")), Some(&26));
        assert_eq!(sub.entries().get(&ids("ab")), Some(&24));
        assert_eq!(sub.entries().len(), 3);

        // Non-release events are ignored.
        sub.observe(&closed_event("t0")).unwrap();

        // A snapshot for the position we already reconstructed verifies it
        // instead of re-adopting.
        let verify = release_event(
            "t0",
            6,
            &SanitizedRelease::new(vec![
                entry("ab", 27, 24),
                entry("b", 27, 26),
                entry("a", 30, 27),
            ]),
        );
        sub.observe(&verify).unwrap();
        assert_eq!(sub.verified, 1);
        assert_eq!(sub.snapshots, 1);
    }

    #[test]
    fn stale_base_deltas_are_skipped() {
        let mut sub = SubscriberState::new();
        sub.observe(&release_event(
            "t0",
            8,
            &SanitizedRelease::new(vec![entry("a", 30, 27)]),
        ))
        .unwrap();
        let stale = delta_event(
            "t0",
            6,
            4,
            &ReleaseDelta {
                removed: vec![ItemsetId::new("a".parse().unwrap())],
                ..ReleaseDelta::default()
            },
        );
        sub.observe(&stale).unwrap();
        assert_eq!(sub.deltas_skipped, 1);
        assert_eq!(sub.stream_len(), Some(8));
        assert_eq!(sub.entries().get(&ids("a")), Some(&27));
    }

    #[test]
    fn diverging_snapshot_is_an_error() {
        let mut sub = SubscriberState::new();
        sub.observe(&release_event(
            "t0",
            5,
            &SanitizedRelease::new(vec![entry("a", 30, 27)]),
        ))
        .unwrap();
        let wrong = release_event("t0", 5, &SanitizedRelease::new(vec![entry("a", 30, 20)]));
        assert!(sub.observe(&wrong).is_err());
    }
}
