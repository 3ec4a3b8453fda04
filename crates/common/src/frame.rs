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
//! **Ingest decodes once.** A client may send an ingest transaction's ids
//! in any order, repeated or not; [`IngestChunk::decode`] is the one parser
//! of an ingest payload, and it canonicalizes each transaction into one
//! item arena. A server takes that chunk straight from
//! [`FrameCodec::next_inbound`] to its shards, its log and its miner;
//! [`BinaryFrame::Ingest`] is the same parse turned into owned itemsets.
//!
//! **Bounded memory, recoverable errors.** One cap governs both shapes: an
//! NDJSON line longer than the cap without a newline, or a binary header
//! announcing a payload over the cap, is an *oversized* frame — fatal,
//! because the stream cannot be re-synced past it. A malformed frame that
//! stays inside its own boundary (bad JSON before the newline, a binary
//! payload that does not decode to its declared length) is *recoverable*:
//! the decoder consumes exactly that frame and the stream stays aligned.

use crate::{Error, Item, ItemSet, Json, Result};

/// First byte of every binary frame. Not a legal leading UTF-8 byte, so no
/// JSON line can start with it.
pub const BINARY_MAGIC: u8 = 0xBF;

/// `magic + op + payload_len` — the fixed prefix of a binary frame.
const HEADER_LEN: usize = 6;

const OP_INGEST: u8 = 0x01;
const OP_RELEASE: u8 = 0x02;
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

/// One frame off the wire as a server takes it: a binary ingest decoded
/// straight into its [`IngestChunk`], any other frame as a [`Frame`].
#[derive(Clone, Debug, PartialEq)]
pub enum Inbound {
    /// A binary `ingest` frame.
    Ingest {
        /// Stream key (tenant id).
        stream: String,
        /// The transactions, canonical, in arrival order.
        chunk: IngestChunk,
    },
    /// Any other frame.
    Frame(Frame),
}

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

    /// The chunk holding `batch` (itemsets are canonical already): the one
    /// conversion an NDJSON ingest makes.
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
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
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
        framed(|out| {
            self.put_payload(out, stream);
            OP_INGEST
        })
    }
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

fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "key too long for the wire");
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A whole binary frame: `put` appends the payload and names the op; the
/// header's length is patched in afterwards, so nothing is copied.
fn framed(put: impl FnOnce(&mut Vec<u8>) -> u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
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
        put_ids(buf, tx.iter().map(|i| i.id()), tx.len());
    }
}

fn put_ids<I: IntoIterator<Item = u32>>(buf: &mut Vec<u8>, ids: I, len: usize) {
    assert!(len <= u16::MAX as usize, "itemset too wide for the wire");
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
}

fn put_entries(buf: &mut Vec<u8>, entries: &[BinaryEntry]) {
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        put_ids(buf, e.ids.iter().copied(), e.ids.len());
        buf.extend_from_slice(&e.support.to_le_bytes());
    }
}

impl BinaryFrame {
    /// Encode to the full wire form (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        framed(|out| self.put_payload(out))
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
                BinaryFrame::put_release_payload(payload, stream, *stream_len, entries);
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
                put_entries(payload, added);
                put_entries(payload, changed);
                payload.extend_from_slice(&(removed.len() as u32).to_le_bytes());
                for ids in removed {
                    put_ids(payload, ids.iter().copied(), ids.len());
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

    /// Append a [`BinaryFrame::Release`] payload built from borrowed parts.
    pub fn put_release_payload(
        buf: &mut Vec<u8>,
        stream: &str,
        stream_len: u64,
        entries: &[BinaryEntry],
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

/// Cursor over one binary payload; every read is bounds-checked so a
/// malformed frame dies with a parse error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Parse("binary frame truncated inside payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| Error::Parse("binary frame key is not utf-8".into()))
    }

    fn ids(&mut self) -> Result<Vec<u32>> {
        let n = self.u16()? as usize;
        let mut ids = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ids.push(self.u32()?);
        }
        Ok(ids)
    }

    fn entries(&mut self) -> Result<Vec<BinaryEntry>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let ids = self.ids()?;
            let support = self.i64()?;
            out.push(BinaryEntry { ids, support });
        }
        Ok(out)
    }

    fn finish(self) -> Result<()> {
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
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
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

    /// Decode the next complete frame (the frame [`FrameCodec::next_raw`]
    /// would return).
    ///
    /// # Errors
    /// * [`Error::Parse`] containing `"oversized"` — fatal, as for
    ///   [`FrameCodec::next_raw`].
    /// * Any other [`Error::Parse`] — recoverable; the malformed frame has
    ///   been consumed and the stream stays aligned.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        Ok(self.next_inbound()?.map(|inbound| match inbound {
            Inbound::Ingest { stream, chunk } => Frame::Binary(BinaryFrame::Ingest {
                stream,
                batch: chunk.to_itemsets(),
            }),
            Inbound::Frame(frame) => frame,
        }))
    }

    /// [`FrameCodec::next_frame`] for a server: a binary ingest arrives as
    /// its [`IngestChunk`], decoded once, with no per-transaction
    /// allocation. Same errors as [`FrameCodec::next_frame`].
    pub fn next_inbound(&mut self) -> Result<Option<Inbound>> {
        loop {
            let Some(raw) = self.next_raw()? else {
                return Ok(None);
            };
            if raw[0] == BINARY_MAGIC {
                let (op, payload) = (raw[1], &raw[HEADER_LEN..]);
                if op == OP_INGEST {
                    let mut chunk = IngestChunk::new();
                    let stream = chunk.decode(payload)?;
                    return Ok(Some(Inbound::Ingest { stream, chunk }));
                }
                return decode_payload(op, payload).map(|f| Some(Inbound::Frame(Frame::Binary(f))));
            }
            let text = std::str::from_utf8(&raw[..raw.len() - 1])
                .map_err(|_| Error::Parse("frame is not utf-8".into()))?
                .trim();
            // A line of Unicode whitespace is blank too.
            if text.is_empty() {
                continue;
            }
            return Json::parse(text).map(|v| Some(Inbound::Frame(Frame::Json(v))));
        }
    }
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
            put_ids(&mut p, ids.iter().copied(), ids.len());
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
