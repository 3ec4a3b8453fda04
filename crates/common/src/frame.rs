//! Mixed NDJSON / binary framing for the workspace's wire protocols.
//!
//! The serve layer historically spoke pure NDJSON: one JSON document per
//! `\n`-terminated line. That stays the control plane, but the hot-path
//! verbs — `ingest` from clients, `release`/`release_delta` to subscribers —
//! can also travel as length-prefixed binary frames, which cost a fraction
//! of the JSON encode/decode on a high-rate stream.
//!
//! **Negotiation is per frame, by first byte.** A frame whose first byte is
//! [`BINARY_MAGIC`] (`0xBF`) is binary; any other first byte starts an
//! NDJSON line (a valid JSON document can never begin with `0xBF`, which is
//! not legal UTF-8 as a leading byte). Both directions may interleave the
//! two freely on one connection: a client can send binary `ingest` frames
//! and JSON `stats` requests back to back, and a binary-subscribed
//! connection still receives its acks and `closed` event as JSON lines.
//!
//! **Binary layout** (all integers little-endian):
//!
//! ```text
//! 0xBF | op:u8 | payload_len:u32 | payload
//!
//! op 0x01 ingest:         key, count:u32, count × itemset
//! op 0x02 release:        key, stream_len:u64, count:u32, count × entry
//! op 0x03 release_delta:  key, stream_len:u64, base_len:u64,
//!                         added:u32 × entry, changed:u32 × entry,
//!                         removed:u32 × itemset
//!
//! key     = len:u16, utf-8 bytes
//! itemset = len:u16, len × item_id:u32   (ids ascending — canonical order)
//! entry   = itemset, support:i64
//! ```
//!
//! **Ingest decodes once, in either encoding.** A client may send an
//! ingest transaction's ids in any order, repeated or not; each transaction
//! is canonicalized as it lands in one item arena, an [`IngestChunk`].
//! [`IngestChunk::decode`] is the one parser of a binary ingest payload,
//! and [`FrameCodec::next_inbound`] lexes an NDJSON line whose `"op"` is
//! `"ingest"` straight into a chunk too — no [`Json`] tree, no itemset per
//! transaction — under the field rules `IngestChunk` keeps
//! ([`IngestChunk::stream_key`], [`IngestChunk::choose_source`],
//! [`IngestChunk::check_width`], [`IngestChunk::item_id`]). A server takes
//! that chunk straight to its shards, its log and its miner;
//! [`FrameCodec::next_frame`] still yields an NDJSON ingest as its
//! [`Frame::Json`] document, and [`BinaryFrame::Ingest`] is the binary
//! parse turned into owned itemsets.
//!
//! **Bounded memory, recoverable errors.** One cap governs both shapes: an
//! NDJSON line longer than the cap without a newline, or a binary header
//! announcing a payload over the cap, is an *oversized* frame — fatal,
//! because the stream cannot be re-synced past it. A malformed frame that
//! stays inside its own boundary (bad JSON before the newline, a binary
//! payload that does not decode to its declared length) is *recoverable*:
//! the decoder consumes exactly that frame and the stream stays aligned.
//!
//! **One layout, two users.** The payload reader [`Cursor`] and the writers
//! [`put_str`], [`put_ids`] and [`put_entries`] are public: the serve
//! crate's write-ahead log lays its own records out through them, under its
//! own checksummed header, so the little-endian layout above is written
//! down here and nowhere else. The log's `ingest` and `release` records
//! carry these payloads byte for byte.

use crate::json::Parser;
use crate::{Error, Item, ItemSet, Json, Result};
use std::borrow::Cow;
use std::fmt;

/// First byte of every binary frame. Not a legal leading UTF-8 byte, so no
/// JSON line can start with it.
pub const BINARY_MAGIC: u8 = 0xBF;

/// `magic + op + payload_len` — the fixed prefix of a binary frame (and of
/// a WAL record, which adds its own fields after it).
pub const HEADER_LEN: usize = 6;

/// Op of a binary `ingest` frame.
pub const OP_INGEST: u8 = 0x01;
/// Op of a binary `release` frame.
pub const OP_RELEASE: u8 = 0x02;
const OP_RELEASE_DELTA: u8 = 0x03;

/// Which encoding a peer speaks for the hot-path verbs. Control traffic is
/// NDJSON in either mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrameMode {
    /// NDJSON lines for everything (the legacy wire).
    #[default]
    Json,
    /// Length-prefixed binary for `ingest`/`release`/`release_delta`.
    Binary,
}

impl FrameMode {
    /// Wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FrameMode::Json => "json",
            FrameMode::Binary => "binary",
        }
    }

    /// Stable small index (used for per-mode encode caches).
    pub fn index(self) -> usize {
        match self {
            FrameMode::Json => 0,
            FrameMode::Binary => 1,
        }
    }
}

impl std::str::FromStr for FrameMode {
    type Err = Error;
    fn from_str(s: &str) -> Result<FrameMode> {
        match s {
            "json" => Ok(FrameMode::Json),
            "binary" => Ok(FrameMode::Binary),
            other => Err(Error::Parse(format!(
                "unknown frame mode {other:?} (valid: json, binary)"
            ))),
        }
    }
}

impl std::fmt::Display for FrameMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One `{itemset, support}` row of a binary release/delta — the binary twin
/// of the `{"itemset": [...], "support": n}` wire entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinaryEntry {
    /// Item ids, ascending (the canonical wire order).
    pub ids: Vec<u32>,
    /// Sanitized support (may be negative under zero-bias noise).
    pub support: i64,
}

/// A decoded binary frame.
#[derive(Clone, Debug, PartialEq)]
pub enum BinaryFrame {
    /// Client → server: transactions for one stream key.
    Ingest {
        /// Stream key (tenant id).
        stream: String,
        /// Transactions in arrival order.
        batch: Vec<ItemSet>,
    },
    /// Server → subscriber: a full sanitized snapshot.
    Release {
        /// Stream key.
        stream: String,
        /// Stream position of the publication.
        stream_len: u64,
        /// Sanitized entries in canonical release order.
        entries: Vec<BinaryEntry>,
    },
    /// Server → subscriber: what changed against the publication at
    /// `base_len`.
    ReleaseDelta {
        /// Stream key.
        stream: String,
        /// Stream position of this publication.
        stream_len: u64,
        /// Stream position of the publication the delta applies to.
        base_len: u64,
        /// Entries new in this release.
        added: Vec<BinaryEntry>,
        /// Entries whose support changed.
        changed: Vec<BinaryEntry>,
        /// Itemsets no longer published.
        removed: Vec<Vec<u32>>,
    },
}

/// One frame off the wire: an NDJSON document or a binary frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A parsed NDJSON line.
    Json(Json),
    /// A decoded binary frame.
    Binary(BinaryFrame),
}

/// One frame off the wire as a server takes it: an ingest, binary or
/// NDJSON, decoded straight into its [`IngestChunk`], any other frame as a
/// [`Frame`].
#[derive(Clone, Debug, PartialEq)]
pub enum Inbound {
    /// A binary `ingest` frame, or an NDJSON line whose `"op"` is
    /// `"ingest"` and whose fields keep the ingest rules.
    Ingest {
        /// Stream key (tenant id).
        stream: String,
        /// The transactions, canonical, in arrival order.
        chunk: IngestChunk,
    },
    /// An NDJSON `ingest` line that parses but breaks a field rule; it is
    /// answered like any refused request, with its [`Error`]'s text.
    Refused(IngestRefusal),
    /// Any other frame.
    Frame(Frame),
}

/// Why an ingest's fields were refused: the one copy of the rules' error
/// texts, shared by the codec's NDJSON ingest decoder and the serve
/// crate's `Request::from_json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestRefusal {
    /// No `"stream"`, a non-string one, or the empty key.
    MissingStream,
    /// A stream key of this many bytes, over the wire's `u16` length.
    LongStream(usize),
    /// Neither an `"items"` nor an array `"batch"`.
    NoTransactions,
    /// A transaction that is not an array.
    NotATransaction,
    /// A transaction of this many ids (before deduplication), over the
    /// wire's `u16` length.
    WideTransaction(usize),
    /// An id that is not an integral number in `u32` range.
    BadItemId,
}

impl fmt::Display for IngestRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestRefusal::MissingStream => f.write_str("request missing \"stream\""),
            IngestRefusal::LongStream(n) => write!(
                f,
                "stream key of {n} bytes exceeds the {WIRE_LEN_MAX}-byte limit"
            ),
            IngestRefusal::NoTransactions => f.write_str("ingest needs \"items\" or \"batch\""),
            IngestRefusal::NotATransaction => {
                f.write_str("transaction must be an array of item ids")
            }
            IngestRefusal::WideTransaction(n) => write!(
                f,
                "transaction of {n} items exceeds the {WIRE_LEN_MAX}-item limit"
            ),
            IngestRefusal::BadItemId => f.write_str("bad item id"),
        }
    }
}

impl From<IngestRefusal> for Error {
    fn from(refusal: IngestRefusal) -> Error {
        Error::Parse(refusal.to_string())
    }
}

/// Longest stream key (bytes) and widest transaction (items) a request may
/// carry: binary frames and WAL records write both lengths as `u16`. NDJSON
/// is the only way in that can exceed it — a binary frame's lengths are
/// already `u16` on the wire.
const WIRE_LEN_MAX: usize = u16::MAX as usize;

/// One ingest chunk, decoded once: every transaction's items in one arena
/// plus each transaction's end offset — two allocations per chunk, none per
/// transaction.
///
/// Every transaction is canonical — ids ascending, no duplicates, exactly
/// as [`ItemSet::from_ids`] makes them — whatever order the client sent:
/// the miner XOR-maintains a bitmap per item, so a repeated item would
/// corrupt it, and the log's bytes must not depend on a client's order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestChunk {
    items: Vec<Item>,
    /// `ends[i]` is one past transaction `i`'s last item in `items`.
    ends: Vec<usize>,
}

impl IngestChunk {
    /// An empty chunk.
    pub fn new() -> IngestChunk {
        IngestChunk::default()
    }

    /// The stream-key rule of every request that names a stream: a
    /// non-empty string of at most 65 535 bytes.
    pub fn stream_key(key: Option<&str>) -> std::result::Result<&str, IngestRefusal> {
        match key {
            None | Some("") => Err(IngestRefusal::MissingStream),
            Some(k) if k.len() > WIRE_LEN_MAX => Err(IngestRefusal::LongStream(k.len())),
            Some(k) => Ok(k),
        }
    }

    /// The `items`/`batch` choice of an NDJSON ingest: a present `items`
    /// (one transaction) wins over any `batch`, even an invalid one, and a
    /// `batch` counts only when it is an array (the caller passes `None`
    /// otherwise). Either way the last duplicate key is the one passed.
    pub fn choose_source<T>(
        items: Option<T>,
        batch: Option<T>,
    ) -> std::result::Result<T, IngestRefusal> {
        items.or(batch).ok_or(IngestRefusal::NoTransactions)
    }

    /// The width rule: a transaction of `ids` ids, counted before
    /// deduplication, fits the wire's `u16` length.
    pub fn check_width(ids: usize) -> std::result::Result<(), IngestRefusal> {
        if ids > WIRE_LEN_MAX {
            return Err(IngestRefusal::WideTransaction(ids));
        }
        Ok(())
    }

    /// The id rule: the item id a JSON number names — an integral value in
    /// `u32` range, however spelled (`7`, `7.0`, `7e0`, `-0`).
    pub fn item_id(n: f64) -> Option<u32> {
        // The cast saturates and truncates, so it round-trips exactly the
        // integral values in range (`-0` as `0`).
        let id = n as u32;
        (f64::from(id) == n).then_some(id)
    }

    /// The chunk holding `batch` (itemsets are canonical already) — what an
    /// NDJSON ingest became before the codec decoded it straight into a
    /// chunk, kept as the reference its tests compare against.
    pub fn from_itemsets(batch: &[ItemSet]) -> IngestChunk {
        let mut chunk = IngestChunk {
            items: Vec::with_capacity(batch.iter().map(ItemSet::len).sum()),
            ends: Vec::with_capacity(batch.len()),
        };
        for set in batch {
            chunk.items.extend_from_slice(set.items());
            chunk.ends.push(chunk.items.len());
        }
        chunk
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the chunk holds no transaction.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The transactions in arrival order, each ascending without duplicates.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Item]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let tx = &self.items[start..end];
            start = end;
            tx
        })
    }

    /// The transactions as owned itemsets (the shape [`BinaryFrame::Ingest`]
    /// carries).
    pub fn to_itemsets(&self) -> Vec<ItemSet> {
        self.iter()
            .map(|tx| ItemSet::from_sorted(tx.to_vec()).expect("chunk transactions are canonical"))
            .collect()
    }

    /// Move the transactions from index `at` on into a chunk of their own.
    ///
    /// # Panics
    /// If `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> IngestChunk {
        let cut = at.checked_sub(1).map_or(0, |last| self.ends[last]);
        let items = self.items.split_off(cut);
        let ends = self
            .ends
            .split_off(at)
            .into_iter()
            .map(|e| e - cut)
            .collect();
        IngestChunk { items, ends }
    }

    /// Decode an ingest payload (`key, count:u32, count × itemset`) into
    /// this chunk, replacing its contents, and return the stream key. Each
    /// transaction is canonicalized as it lands in the arena.
    ///
    /// What is reserved is bounded by the payload's length — every
    /// transaction costs at least its 2-byte length, every item 4 bytes —
    /// never by the count the client announces.
    ///
    /// # Errors
    /// [`Error::Parse`] for a truncated payload, a non-UTF-8 key or
    /// trailing bytes.
    pub fn decode(&mut self, payload: &[u8]) -> Result<String> {
        self.items.clear();
        self.ends.clear();
        let mut c = Cursor::new(payload);
        let stream = c.str()?;
        let count = c.u32()? as usize;
        let rest = payload.len() - c.pos;
        let txs = count.min(rest / 2);
        self.ends.reserve_exact(txs);
        self.items.reserve_exact((rest - 2 * txs) / 4);
        for _ in 0..count {
            let n = c.u16()? as usize;
            let start = self.items.len();
            let ids = c.take(4 * n)?.chunks_exact(4);
            self.items
                .extend(ids.map(|b| Item(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))));
            canonicalize(&mut self.items, start);
            self.ends.push(self.items.len());
        }
        c.finish()?;
        Ok(stream)
    }

    /// Append this chunk's ingest payload for `stream` — byte-identical to
    /// [`BinaryFrame::Ingest`]'s for the same transactions.
    pub fn put_payload(&self, buf: &mut Vec<u8>, stream: &str) {
        put_ingest(buf, stream, self.iter());
    }

    /// The chunk as one binary ingest frame, header included.
    pub fn encode(&self, stream: &str) -> Vec<u8> {
        let len = HEADER_LEN + 2 + stream.len() + 4 + 2 * self.len() + 4 * self.items.len();
        framed(len, |out| {
            self.put_payload(out, stream);
            OP_INGEST
        })
    }

    /// Keep transactions `from..to` only.
    fn retain(&mut self, from: usize, to: usize) {
        let at = |i: usize| i.checked_sub(1).map_or(0, |last| self.ends[last]);
        let (lo, hi) = (at(from), at(to));
        self.items.copy_within(lo..hi, 0);
        self.items.truncate(hi - lo);
        self.ends.truncate(to);
        self.ends.drain(..from);
        for end in &mut self.ends {
            *end -= lo;
        }
    }
}

/// Where one source of an NDJSON ingest's transactions — an `items` or an
/// array `batch` value — landed in the chunk: transactions `from..to`.
#[derive(Clone, Copy)]
struct Source {
    from: usize,
    to: usize,
    /// The first rule its transactions broke, in order.
    refused: Option<IngestRefusal>,
}

/// Decode one NDJSON line — trimmed, non-blank — as an ingest, in one pass
/// over its bytes: `Ok(None)` when it is not one (not an object, or its
/// last `"op"` is not the string `"ingest"`), for the caller to parse like
/// any other line. It accepts exactly what [`Json::parse`] and the serve
/// crate's `Request::from_json` accept, with the same errors: grammar
/// errors come from the one [`Parser`], field errors from the rules above,
/// checked in `from_json`'s order once the whole line has parsed.
///
/// Ids land in the chunk's arena as they are lexed, each transaction
/// canonicalized like [`IngestChunk::decode`]'s. What is reserved is bounded
/// by the line's length — every id costs at least two bytes with its
/// separator, every transaction three — never by a count.
fn decode_ingest_line(text: &str) -> Result<Option<Inbound>> {
    if !text.starts_with('{') {
        return Ok(None);
    }
    let mut chunk = IngestChunk::new();
    let mut p = Parser::new(text);
    let mut ingest = false;
    let mut stream: Option<Cow<'_, str>> = None;
    let (mut items, mut batch) = (None, None);
    p.members(|p, key| {
        match (&*key, p.peek()) {
            ("op", Some(b'"')) => ingest = p.string()? == "ingest",
            ("stream", Some(b'"')) => stream = Some(p.string()?),
            ("items", _) => items = Some(source(p, &mut chunk, text.len(), false)?),
            ("batch", Some(b'[')) => batch = Some(source(p, &mut chunk, text.len(), true)?),
            (key, _) => {
                // Any other value: a non-string op or stream, or a
                // non-array batch, counts as absent.
                p.value()?;
                match key {
                    "op" => ingest = false,
                    "stream" => stream = None,
                    "batch" => batch = None,
                    _ => {}
                }
            }
        }
        Ok(())
    })?;
    p.finish()?;
    if !ingest {
        return Ok(None);
    }
    let stream = match IngestChunk::stream_key(stream.as_deref()) {
        Ok(key) => key.to_string(),
        Err(refusal) => return Ok(Some(Inbound::Refused(refusal))),
    };
    let source = match IngestChunk::choose_source(items, batch) {
        Ok(Source {
            refused: None,
            from,
            to,
        }) => (from, to),
        Ok(Source {
            refused: Some(refusal),
            ..
        })
        | Err(refusal) => return Ok(Some(Inbound::Refused(refusal))),
    };
    if source != (0, chunk.len()) {
        chunk.retain(source.0, source.1);
    }
    // A queued chunk holds what it carries, not the line's reservation: a
    // line padded with an unknown field must not pin its length in a
    // shard's queue once per transaction it carries.
    chunk.items.shrink_to_fit();
    chunk.ends.shrink_to_fit();
    Ok(Some(Inbound::Ingest { stream, chunk }))
}

/// One `items` value (`batch` false: one transaction) or array `batch`
/// value, into `chunk`, whose arena is reserved by the line's length the
/// first time.
fn source(p: &mut Parser<'_>, chunk: &mut IngestChunk, line: usize, batch: bool) -> Result<Source> {
    if chunk.ends.capacity() == 0 {
        chunk.items.reserve_exact(line.div_ceil(2));
        chunk.ends.reserve_exact(line.div_ceil(3));
    }
    let mut src = Source {
        from: chunk.len(),
        to: 0,
        refused: None,
    };
    if batch {
        p.seq(b'[', |p| transaction(p, chunk, &mut src.refused))?;
    } else {
        transaction(p, chunk, &mut src.refused)?;
    }
    src.to = chunk.len();
    Ok(src)
}

/// One transaction value from its first byte. A source's first broken rule
/// refuses it; after that its transactions are only parsed.
fn transaction(
    p: &mut Parser<'_>,
    chunk: &mut IngestChunk,
    refused: &mut Option<IngestRefusal>,
) -> Result<()> {
    if p.peek() != Some(b'[') {
        p.value()?;
        refused.get_or_insert(IngestRefusal::NotATransaction);
        return Ok(());
    }
    let start = chunk.items.len();
    let (mut ids, mut bad) = (0, false);
    let keep = refused.is_none();
    p.seq(b'[', |p| {
        ids += 1;
        let id = match p.peek() {
            Some(b'-' | b'0'..=b'9') => IngestChunk::item_id(p.number()?),
            _ => p.value().map(|_| None)?,
        };
        match id {
            Some(id) if keep => chunk.items.push(Item(id)),
            Some(_) => {}
            None => bad = true,
        }
        Ok(())
    })?;
    if keep {
        let check = IngestChunk::check_width(ids);
        *refused = check.err().or(bad.then_some(IngestRefusal::BadItemId));
    }
    if refused.is_some() {
        chunk.items.truncate(start);
    } else {
        canonicalize(&mut chunk.items, start);
        chunk.ends.push(chunk.items.len());
    }
    Ok(())
}

/// Sort and deduplicate the transaction `items[start..]` in place, as
/// [`ItemSet::from_ids`] does; an already-canonical one is only scanned.
fn canonicalize(items: &mut Vec<Item>, start: usize) {
    let tx = &mut items[start..];
    if tx.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    tx.sort_unstable();
    let mut kept = 1;
    for i in 1..tx.len() {
        if tx[i] != tx[kept - 1] {
            tx[kept] = tx[i];
            kept += 1;
        }
    }
    items.truncate(start + kept);
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append a `key`: its `u16` length, then its bytes.
///
/// # Panics
/// If `s` is longer than 65 535 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "key too long for the wire");
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A whole binary frame: `put` appends the payload and names the op; the
/// header's length is patched in afterwards, so nothing is copied.
fn framed(capacity: usize, put: impl FnOnce(&mut Vec<u8>) -> u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&[BINARY_MAGIC, 0, 0, 0, 0, 0]);
    out[1] = put(&mut out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[2..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out
}

/// The one ingest payload encoder: key, count, then each transaction.
fn put_ingest<'a>(buf: &mut Vec<u8>, stream: &str, txs: impl ExactSizeIterator<Item = &'a [Item]>) {
    put_str(buf, stream);
    buf.extend_from_slice(&(txs.len() as u32).to_le_bytes());
    for tx in txs {
        put_ids(buf, tx.iter().map(|i| i.id()));
    }
}

/// Append an `itemset`: its `u16` length, then each id.
///
/// # Panics
/// If `ids` holds more than 65 535 ids.
pub fn put_ids(buf: &mut Vec<u8>, ids: impl ExactSizeIterator<Item = u32>) {
    assert!(
        ids.len() <= u16::MAX as usize,
        "itemset too wide for the wire"
    );
    buf.extend_from_slice(&(ids.len() as u16).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
}

/// Append a `count:u32` list of `entry`s, each its ids and its support.
pub fn put_entries(
    buf: &mut Vec<u8>,
    entries: impl ExactSizeIterator<Item = (impl ExactSizeIterator<Item = u32>, i64)>,
) {
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (ids, support) in entries {
        put_ids(buf, ids);
        buf.extend_from_slice(&support.to_le_bytes());
    }
}

/// Wire entries as [`put_entries`] takes them.
fn wire(
    entries: &[BinaryEntry],
) -> impl ExactSizeIterator<Item = (impl ExactSizeIterator<Item = u32> + '_, i64)> + Clone + '_ {
    entries.iter().map(|e| (e.ids.iter().copied(), e.support))
}

impl BinaryFrame {
    /// Encode to the full wire form (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        framed(64, |out| self.put_payload(out))
    }

    /// The whole `release` frame of `entries` (each its ids and its
    /// support) in one buffer, sized from the entries before any is
    /// written: the bytes [`BinaryFrame::encode`] gives for the equivalent
    /// [`BinaryFrame::Release`], with no entry built.
    pub fn release_bytes<I, J>(stream: &str, stream_len: u64, entries: I) -> Vec<u8>
    where
        I: ExactSizeIterator<Item = (J, i64)> + Clone,
        J: ExactSizeIterator<Item = u32>,
    {
        let widths = entries.clone().map(|(ids, _)| 2 + 4 * ids.len() + 8);
        let len = HEADER_LEN + 2 + stream.len() + 8 + 4 + widths.sum::<usize>();
        let out = framed(len, |out| {
            BinaryFrame::put_release_payload(out, stream, stream_len, entries);
            OP_RELEASE
        });
        debug_assert_eq!(out.len(), len, "release frame sized wrong");
        out
    }

    /// Encode just the `(op, payload)` pair, without the wire header.
    ///
    /// The WAL embeds frame payloads under its own (checksummed) record
    /// header, so it needs the body separate from the `0xBF` framing.
    pub fn encode_payload(&self) -> (u8, Vec<u8>) {
        let mut payload = Vec::with_capacity(64);
        let op = self.put_payload(&mut payload);
        (op, payload)
    }

    /// Append the payload; returns the op.
    fn put_payload(&self, payload: &mut Vec<u8>) -> u8 {
        match self {
            BinaryFrame::Ingest { stream, batch } => {
                BinaryFrame::put_ingest_payload(payload, stream, batch);
                OP_INGEST
            }
            BinaryFrame::Release {
                stream,
                stream_len,
                entries,
            } => {
                BinaryFrame::put_release_payload(payload, stream, *stream_len, wire(entries));
                OP_RELEASE
            }
            BinaryFrame::ReleaseDelta {
                stream,
                stream_len,
                base_len,
                added,
                changed,
                removed,
            } => {
                put_str(payload, stream);
                payload.extend_from_slice(&stream_len.to_le_bytes());
                payload.extend_from_slice(&base_len.to_le_bytes());
                put_entries(payload, wire(added));
                put_entries(payload, wire(changed));
                payload.extend_from_slice(&(removed.len() as u32).to_le_bytes());
                for ids in removed {
                    put_ids(payload, ids.iter().copied());
                }
                OP_RELEASE_DELTA
            }
        }
    }

    /// Append a [`BinaryFrame::Ingest`] payload built from borrowed parts —
    /// for callers (the WAL) that hold the itemsets but no frame.
    pub fn put_ingest_payload(buf: &mut Vec<u8>, stream: &str, batch: &[ItemSet]) {
        put_ingest(buf, stream, batch.iter().map(ItemSet::items));
    }

    /// Append a [`BinaryFrame::Release`] payload built from borrowed parts:
    /// each entry's ids and support.
    pub fn put_release_payload(
        buf: &mut Vec<u8>,
        stream: &str,
        stream_len: u64,
        entries: impl ExactSizeIterator<Item = (impl ExactSizeIterator<Item = u32>, i64)>,
    ) {
        put_str(buf, stream);
        buf.extend_from_slice(&stream_len.to_le_bytes());
        put_entries(buf, entries);
    }

    /// Decode an `(op, payload)` pair produced by [`BinaryFrame::encode_payload`].
    ///
    /// The public twin of the codec's internal payload decoder, for callers
    /// (the WAL) that frame payloads under their own headers.
    pub fn decode_payload(op: u8, payload: &[u8]) -> Result<BinaryFrame> {
        decode_payload(op, payload)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reader over one binary payload, front to back, in the layout above.
/// Every read is bounds-checked, so a malformed payload — a torn or forged
/// frame, or a damaged log record — dies with [`Error::Parse`], never a
/// panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    /// [`Error::Parse`] if fewer than `n` bytes are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Parse("binary frame truncated inside payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u16`-prefixed byte string, borrowed from the payload.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u16()? as usize;
        self.take(len)
    }

    /// A `key`: a `u16`-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| Error::Parse("binary frame key is not utf-8".into()))
    }

    /// An `itemset`'s ids.
    pub fn ids(&mut self) -> Result<Vec<u32>> {
        let n = self.u16()? as usize;
        let mut ids = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ids.push(self.u32()?);
        }
        Ok(ids)
    }

    /// A `count:u32` list of `entry`s.
    pub fn entries(&mut self) -> Result<Vec<BinaryEntry>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let ids = self.ids()?;
            let support = self.i64()?;
            out.push(BinaryEntry { ids, support });
        }
        Ok(out)
    }

    /// The end of the payload.
    ///
    /// # Errors
    /// [`Error::Parse`] naming the bytes left unread.
    pub fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "binary frame has {} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn decode_payload(op: u8, payload: &[u8]) -> Result<BinaryFrame> {
    let mut c = Cursor::new(payload);
    let frame = match op {
        OP_INGEST => {
            let mut chunk = IngestChunk::new();
            let stream = chunk.decode(payload)?;
            return Ok(BinaryFrame::Ingest {
                stream,
                batch: chunk.to_itemsets(),
            });
        }
        OP_RELEASE => BinaryFrame::Release {
            stream: c.str()?,
            stream_len: c.u64()?,
            entries: c.entries()?,
        },
        OP_RELEASE_DELTA => {
            let stream = c.str()?;
            let stream_len = c.u64()?;
            let base_len = c.u64()?;
            let added = c.entries()?;
            let changed = c.entries()?;
            let nr = c.u32()? as usize;
            let mut removed = Vec::with_capacity(nr.min(4096));
            for _ in 0..nr {
                removed.push(c.ids()?);
            }
            BinaryFrame::ReleaseDelta {
                stream,
                stream_len,
                base_len,
                added,
                changed,
                removed,
            }
        }
        other => return Err(Error::Parse(format!("unknown binary op 0x{other:02x}"))),
    };
    c.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// The incremental decoder
// ---------------------------------------------------------------------------

/// Incremental mixed-frame decoder over a growable byte buffer.
///
/// Feed raw socket bytes with [`FrameCodec::extend`], pull frames with
/// [`FrameCodec::next_frame`] — or, to pass frames on without decoding
/// them, their exact bytes with [`FrameCodec::next_raw`]; both split the
/// stream at the same boundaries under the same cap. `Ok(None)` always
/// means "need more bytes" — end-of-stream semantics belong to the I/O
/// layer, which should treat EOF with [`FrameCodec::is_blank`] false as a
/// truncated stream.
#[derive(Debug)]
pub struct FrameCodec {
    buf: Vec<u8>,
    /// `buf[..start]` was already handed out; it is reclaimed by the next
    /// [`FrameCodec::extend`].
    start: usize,
    /// Bytes of an NDJSON prefix (from `start`) already scanned for `\n`
    /// (resume point).
    scanned: usize,
    max: usize,
}

impl FrameCodec {
    /// A codec with an explicit frame cap in bytes (applies to NDJSON line
    /// length and binary payload length alike).
    pub fn with_max(max: usize) -> FrameCodec {
        FrameCodec {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max,
        }
    }

    /// A codec with the default [`crate::ndjson::MAX_FRAME_BYTES`] cap.
    pub fn new() -> FrameCodec {
        FrameCodec::with_max(crate::ndjson::MAX_FRAME_BYTES)
    }

    /// Feed bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// True when the buffer holds nothing but whitespace — i.e. EOF here is
    /// a clean end of stream, not a truncated frame.
    pub fn is_blank(&self) -> bool {
        self.buf[self.start..].iter().all(u8::is_ascii_whitespace)
    }

    /// Bytes currently buffered (bounded by the cap plus one read).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete frame's exact wire bytes, undecoded: a binary
    /// frame's header and payload, or an NDJSON line through its `\n`.
    /// Inter-frame whitespace is skipped. This is what lets a relay pass
    /// frames on verbatim under the same cap a decoder enforces.
    ///
    /// # Errors
    /// [`Error::Parse`] containing `"oversized"` — fatal; the stream cannot
    /// be re-synced (an unbounded line, or a binary header announcing a
    /// payload over the cap).
    pub fn next_raw(&mut self) -> Result<Option<&[u8]>> {
        let skip = self.buf[self.start..]
            .iter()
            .take_while(|b| b.is_ascii_whitespace())
            .count();
        if skip > 0 {
            self.start += skip;
            self.scanned = 0;
        }
        let pending = &self.buf[self.start..];
        let Some(&first) = pending.first() else {
            return Ok(None);
        };
        let len = if first == BINARY_MAGIC {
            if pending.len() < HEADER_LEN {
                return Ok(None);
            }
            let payload =
                u32::from_le_bytes(pending[2..HEADER_LEN].try_into().expect("4 bytes")) as usize;
            // The cap is checked from the header alone, before any payload
            // is buffered — an adversarial length cannot make us allocate it.
            if payload > self.max {
                return Err(Error::Parse(format!(
                    "oversized frame: binary payload of {payload} bytes (cap {})",
                    self.max
                )));
            }
            if pending.len() < HEADER_LEN + payload {
                return Ok(None);
            }
            HEADER_LEN + payload
        } else {
            // NDJSON: scan the unscanned suffix for the terminator.
            let Some(off) = pending[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = pending.len();
                if pending.len() > self.max {
                    return Err(Error::Parse(format!(
                        "oversized frame: {} bytes without a newline (cap {})",
                        pending.len(),
                        self.max
                    )));
                }
                return Ok(None);
            };
            let end = self.scanned + off;
            // The cap must not depend on how the transport fragmented the
            // line: a terminated line over the cap is just as oversized as
            // an unterminated one.
            if end > self.max {
                return Err(Error::Parse(format!(
                    "oversized frame: {end} byte line (cap {})",
                    self.max
                )));
            }
            end + 1
        };
        let at = self.start;
        self.start += len;
        self.scanned = 0;
        Ok(Some(&self.buf[at..at + len]))
    }

    /// The next complete frame, split but not decoded: a binary frame's op
    /// and payload, or an NDJSON line's trimmed text — empty for a blank
    /// line, which the callers skip.
    fn next_wire(&mut self) -> Result<Option<Wire<'_>>> {
        let Some(raw) = self.next_raw()? else {
            return Ok(None);
        };
        if raw[0] == BINARY_MAGIC {
            return Ok(Some(Wire::Binary(raw[1], &raw[HEADER_LEN..])));
        }
        // A line of Unicode whitespace is blank too.
        let text = std::str::from_utf8(&raw[..raw.len() - 1])
            .map_err(|_| Error::Parse("frame is not utf-8".into()))?
            .trim();
        Ok(Some(Wire::Line(text)))
    }

    /// Decode the next complete frame (the frame [`FrameCodec::next_raw`]
    /// would return).
    ///
    /// # Errors
    /// * [`Error::Parse`] containing `"oversized"` — fatal, as for
    ///   [`FrameCodec::next_raw`].
    /// * Any other [`Error::Parse`] — recoverable; the malformed frame has
    ///   been consumed and the stream stays aligned.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        loop {
            let frame = match self.next_wire()? {
                None => return Ok(None),
                Some(Wire::Line("")) => continue,
                Some(Wire::Line(text)) => Frame::Json(Json::parse(text)?),
                Some(Wire::Binary(op, payload)) => Frame::Binary(decode_payload(op, payload)?),
            };
            return Ok(Some(frame));
        }
    }

    /// [`FrameCodec::next_frame`] for a server: an ingest, binary or NDJSON,
    /// arrives as its [`IngestChunk`], decoded once, with no
    /// per-transaction allocation, and an NDJSON ingest that breaks a field
    /// rule as [`Inbound::Refused`]. Same errors as
    /// [`FrameCodec::next_frame`], and on a line that is not an ingest the
    /// same frame.
    pub fn next_inbound(&mut self) -> Result<Option<Inbound>> {
        loop {
            let inbound = match self.next_wire()? {
                None => return Ok(None),
                Some(Wire::Line("")) => continue,
                Some(Wire::Line(text)) => match decode_ingest_line(text)? {
                    Some(inbound) => inbound,
                    None => Inbound::Frame(Frame::Json(Json::parse(text)?)),
                },
                Some(Wire::Binary(OP_INGEST, payload)) => {
                    let mut chunk = IngestChunk::new();
                    let stream = chunk.decode(payload)?;
                    Inbound::Ingest { stream, chunk }
                }
                Some(Wire::Binary(op, payload)) => {
                    Inbound::Frame(Frame::Binary(decode_payload(op, payload)?))
                }
            };
            return Ok(Some(inbound));
        }
    }
}

/// One frame as [`FrameCodec::next_wire`] splits it.
enum Wire<'a> {
    /// A binary frame's op and payload.
    Binary(u8, &'a [u8]),
    /// An NDJSON line, trimmed; empty when blank.
    Line(&'a str),
}

impl Default for FrameCodec {
    fn default() -> Self {
        FrameCodec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest(stream: &str, sets: &[&[u32]]) -> BinaryFrame {
        BinaryFrame::Ingest {
            stream: stream.into(),
            batch: sets
                .iter()
                .map(|ids| ItemSet::from_ids(ids.iter().copied()))
                .collect(),
        }
    }

    #[test]
    fn binary_round_trips() {
        let frames = [
            ingest("tenant-7", &[&[1, 2, 9], &[4], &[]]),
            BinaryFrame::Release {
                stream: "s".into(),
                stream_len: 1 << 40,
                entries: vec![
                    BinaryEntry {
                        ids: vec![0, 1],
                        support: -3,
                    },
                    BinaryEntry {
                        ids: vec![7],
                        support: i64::MAX,
                    },
                ],
            },
            BinaryFrame::ReleaseDelta {
                stream: "k".into(),
                stream_len: 200,
                base_len: 190,
                added: vec![BinaryEntry {
                    ids: vec![3],
                    support: 12,
                }],
                changed: vec![],
                removed: vec![vec![1, 2], vec![]],
            },
        ];
        let mut codec = FrameCodec::new();
        for f in &frames {
            codec.extend(&f.encode());
        }
        for f in &frames {
            assert_eq!(codec.next_frame().unwrap(), Some(Frame::Binary(f.clone())));
        }
        assert_eq!(codec.next_frame().unwrap(), None);
        assert!(codec.is_blank());
    }

    #[test]
    fn a_release_laid_out_from_its_entries_is_its_encoding_sized_exactly() {
        use crate::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [0, 1, 7, 300] {
            let entries: Vec<BinaryEntry> = (0..n)
                .map(|_| BinaryEntry {
                    ids: (0..rng.gen_range_usize(5))
                        .map(|_| rng.gen_below(1 << 20) as u32)
                        .collect(),
                    support: rng.gen_below(1 << 40) as i64 - (1 << 39),
                })
                .collect();
            let frame = BinaryFrame::Release {
                stream: "key".into(),
                stream_len: 12_345,
                entries: entries.clone(),
            };
            let bytes = BinaryFrame::release_bytes("key", 12_345, wire(&entries));
            assert_eq!(bytes, frame.encode(), "{n} entries");
            assert_eq!(bytes.capacity(), bytes.len(), "{n} entries");
        }
    }

    #[test]
    fn json_and_binary_interleave() {
        let mut codec = FrameCodec::new();
        codec.extend(b"{\"op\":\"ping\"}\n");
        codec.extend(&ingest("s", &[&[5]]).encode());
        codec.extend(b"\n  \n{\"op\":\"stats\"}\n");
        assert!(matches!(codec.next_frame().unwrap(), Some(Frame::Json(_))));
        assert!(matches!(
            codec.next_frame().unwrap(),
            Some(Frame::Binary(BinaryFrame::Ingest { .. }))
        ));
        assert!(matches!(codec.next_frame().unwrap(), Some(Frame::Json(_))));
        assert_eq!(codec.next_frame().unwrap(), None);
    }

    #[test]
    fn partial_binary_frame_waits_for_more() {
        let bytes = ingest("stream", &[&[1, 2, 3]]).encode();
        let mut codec = FrameCodec::new();
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(
                codec.next_frame().unwrap(),
                None,
                "byte {i} of {} completed the frame early",
                bytes.len()
            );
            codec.extend(std::slice::from_ref(b));
        }
        assert!(codec.next_frame().unwrap().is_some());
    }

    #[test]
    fn oversized_binary_header_is_fatal_before_payload_arrives() {
        let mut codec = FrameCodec::with_max(64);
        let mut header = vec![BINARY_MAGIC, OP_INGEST];
        header.extend_from_slice(&(1_000_000u32).to_le_bytes());
        codec.extend(&header);
        match codec.next_frame() {
            Err(Error::Parse(msg)) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("expected oversized error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_binary_payload_is_recoverable() {
        let good = ingest("s", &[&[1]]).encode();
        // A payload of the declared length whose interior is garbage: the
        // count field promises more itemsets than the bytes hold.
        let mut bad = vec![BINARY_MAGIC, OP_INGEST];
        let payload = [1u8, 0, b's', 255, 255, 255, 255];
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&payload);
        let mut codec = FrameCodec::new();
        codec.extend(&bad);
        codec.extend(&good);
        assert!(matches!(codec.next_frame(), Err(Error::Parse(_))));
        assert!(
            matches!(codec.next_frame().unwrap(), Some(Frame::Binary(_))),
            "stream must stay aligned after a malformed binary frame"
        );
    }

    /// An ingest payload written by hand, ids exactly as given.
    fn raw_ingest_payload(stream: &str, txs: &[&[u32]]) -> Vec<u8> {
        let mut p = Vec::new();
        put_str(&mut p, stream);
        p.extend_from_slice(&(txs.len() as u32).to_le_bytes());
        for ids in txs {
            put_ids(&mut p, ids.iter().copied());
        }
        p
    }

    #[test]
    fn chunks_canonicalize_and_encode_like_itemsets() {
        let messy = raw_ingest_payload("k", &[&[9, 2, 9, 4], &[], &[7, 7], &[1, 3]]);
        let mut chunk = IngestChunk::new();
        assert_eq!(chunk.decode(&messy).unwrap(), "k");
        let txs: Vec<&[Item]> = chunk.iter().collect();
        assert_eq!(
            txs,
            [
                &[Item(2), Item(4), Item(9)][..],
                &[],
                &[Item(7)],
                &[Item(1), Item(3)]
            ]
        );
        let canonical = ingest("k", &[&[2, 4, 9], &[], &[7], &[1, 3]]);
        assert_eq!(chunk.encode("k"), canonical.encode());
        let BinaryFrame::Ingest { batch, .. } = &canonical else {
            unreachable!()
        };
        assert_eq!(&chunk.to_itemsets(), batch);
        assert_eq!(IngestChunk::from_itemsets(batch), chunk);
        assert_eq!(
            BinaryFrame::decode_payload(OP_INGEST, &messy).unwrap(),
            canonical
        );

        let tail = chunk.split_off(1);
        assert_eq!(chunk.to_itemsets(), batch[..1]);
        assert_eq!(tail.to_itemsets(), batch[1..]);
    }

    #[test]
    fn decode_reserves_by_payload_length_not_by_announced_count() {
        // 12 bytes on the wire: an empty key and a count of 2^32 - 1.
        let mut hostile = vec![BINARY_MAGIC, OP_INGEST, 6, 0, 0, 0, 0, 0];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(hostile.len(), 12);
        let payload = &hostile[HEADER_LEN..];
        let bounded = |chunk: &IngestChunk, len: usize| {
            chunk.items.capacity() <= len / 4 && chunk.ends.capacity() <= len / 2
        };
        let mut chunk = IngestChunk::new();
        match chunk.decode(payload) {
            Err(Error::Parse(msg)) => assert_eq!(msg, "binary frame truncated inside payload"),
            other => panic!("expected a truncation error, got {other:?}"),
        }
        assert!(bounded(&chunk, payload.len()), "{chunk:?}");

        // Reused after a well-formed chunk: still within the larger payload.
        let good = raw_ingest_payload("k", &[&[1, 2, 3], &[4]]);
        chunk.decode(&good).unwrap();
        assert!(chunk.decode(payload).is_err());
        assert!(bounded(&chunk, good.len()), "{chunk:?}");
        let mut codec = FrameCodec::new();
        codec.extend(&hostile);
        match codec.next_frame() {
            Err(Error::Parse(msg)) => assert_eq!(msg, "binary frame truncated inside payload"),
            other => panic!("expected a truncation error, got {other:?}"),
        }
    }

    #[test]
    fn an_ndjson_chunk_keeps_only_what_it_carries() {
        let pad = "x".repeat(1 << 16);
        let line =
            format!("{{\"op\":\"ingest\",\"stream\":\"k\",\"pad\":\"{pad}\",\"items\":[2,1]}}\n");
        let mut codec = FrameCodec::new();
        codec.extend(line.as_bytes());
        let Some(Inbound::Ingest { chunk, .. }) = codec.next_inbound().unwrap() else {
            panic!("an ingest line");
        };
        assert_eq!(chunk.items, [Item(1), Item(2)]);
        assert!(
            chunk.items.capacity() < 16 && chunk.ends.capacity() < 16,
            "{} items and {} ends reserved for one transaction",
            chunk.items.capacity(),
            chunk.ends.capacity()
        );
    }

    #[test]
    fn unknown_op_and_trailing_bytes_are_recoverable() {
        let mut codec = FrameCodec::new();
        codec.extend(&[BINARY_MAGIC, 0x7f, 0, 0, 0, 0]);
        assert!(matches!(codec.next_frame(), Err(Error::Parse(_))));
        // Frame with 4 junk bytes appended inside its declared payload.
        let mut bad = vec![BINARY_MAGIC, OP_INGEST];
        let mut payload = Vec::new();
        put_str(&mut payload, "s");
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&[9, 9, 9, 9]);
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&payload);
        codec.extend(&bad);
        match codec.next_frame() {
            Err(Error::Parse(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
        codec.extend(b"{\"ok\":true}\n");
        assert!(matches!(codec.next_frame().unwrap(), Some(Frame::Json(_))));
    }
}
