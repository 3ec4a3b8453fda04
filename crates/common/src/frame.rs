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
//! **Bounded memory, recoverable errors.** One cap governs both shapes: an
//! NDJSON line longer than the cap without a newline, or a binary header
//! announcing a payload over the cap, is an *oversized* frame — fatal,
//! because the stream cannot be re-synced past it. A malformed frame that
//! stays inside its own boundary (bad JSON before the newline, a binary
//! payload that does not decode to its declared length) is *recoverable*:
//! the decoder consumes exactly that frame and the stream stays aligned.

use crate::{Error, ItemSet, Json, Result};

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

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "key too long for the wire");
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
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
        let (op, payload) = self.encode_payload();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.push(BINARY_MAGIC);
        out.push(op);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Encode just the `(op, payload)` pair, without the wire header.
    ///
    /// The WAL embeds frame payloads under its own (checksummed) record
    /// header, so it needs the body separate from the `0xBF` framing.
    pub fn encode_payload(&self) -> (u8, Vec<u8>) {
        let mut payload = Vec::with_capacity(64);
        let op = match self {
            BinaryFrame::Ingest { stream, batch } => {
                BinaryFrame::put_ingest_payload(&mut payload, stream, batch);
                OP_INGEST
            }
            BinaryFrame::Release {
                stream,
                stream_len,
                entries,
            } => {
                BinaryFrame::put_release_payload(&mut payload, stream, *stream_len, entries);
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
                put_str(&mut payload, stream);
                payload.extend_from_slice(&stream_len.to_le_bytes());
                payload.extend_from_slice(&base_len.to_le_bytes());
                put_entries(&mut payload, added);
                put_entries(&mut payload, changed);
                payload.extend_from_slice(&(removed.len() as u32).to_le_bytes());
                for ids in removed {
                    put_ids(&mut payload, ids.iter().copied(), ids.len());
                }
                OP_RELEASE_DELTA
            }
        };
        (op, payload)
    }

    /// Append a [`BinaryFrame::Ingest`] payload built from borrowed parts —
    /// for callers (the WAL) that hold the chunk but no frame.
    pub fn put_ingest_payload(buf: &mut Vec<u8>, stream: &str, batch: &[ItemSet]) {
        put_str(buf, stream);
        buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for items in batch {
            put_ids(buf, items.iter().map(|i| i.id()), items.len());
        }
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
            let stream = c.str()?;
            let count = c.u32()? as usize;
            let mut batch = Vec::with_capacity(count.min(65_536));
            for _ in 0..count {
                batch.push(ItemSet::from_ids(c.ids()?));
            }
            BinaryFrame::Ingest { stream, batch }
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
/// [`FrameCodec::next_frame`]. `Ok(None)` always means "need more bytes" —
/// end-of-stream semantics belong to the I/O layer, which should treat EOF
/// with [`FrameCodec::is_blank`] false as a truncated stream.
#[derive(Debug)]
pub struct FrameCodec {
    buf: Vec<u8>,
    /// Bytes of an NDJSON prefix already scanned for `\n` (resume point).
    scanned: usize,
    max: usize,
}

impl FrameCodec {
    /// A codec with an explicit frame cap in bytes (applies to NDJSON line
    /// length and binary payload length alike).
    pub fn with_max(max: usize) -> FrameCodec {
        FrameCodec {
            buf: Vec::new(),
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
        self.buf.extend_from_slice(bytes);
    }

    /// True when the buffer holds nothing but whitespace — i.e. EOF here is
    /// a clean end of stream, not a truncated frame.
    pub fn is_blank(&self) -> bool {
        self.buf.iter().all(u8::is_ascii_whitespace)
    }

    /// Bytes currently buffered (bounded by the cap plus one read).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame.
    ///
    /// # Errors
    /// * [`Error::Parse`] containing `"oversized"` — fatal; the stream
    ///   cannot be re-synced (an unbounded line, or a binary header
    ///   announcing a payload over the cap).
    /// * Any other [`Error::Parse`] — recoverable; the malformed frame has
    ///   been consumed and the stream stays aligned.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        loop {
            // Skip inter-frame whitespace (blank NDJSON lines).
            let skip = self
                .buf
                .iter()
                .take_while(|b| b.is_ascii_whitespace())
                .count();
            if skip > 0 {
                self.buf.drain(..skip);
                self.scanned = 0;
            }
            let Some(&first) = self.buf.first() else {
                return Ok(None);
            };
            if first == BINARY_MAGIC {
                return self.next_binary();
            }
            // NDJSON branch: scan the unscanned suffix for the terminator.
            if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + off;
                // The cap must not depend on how the transport fragmented the
                // line: a terminated line over the cap is just as oversized as
                // an unterminated one.
                if end > self.max {
                    return Err(Error::Parse(format!(
                        "oversized frame: {} byte line (cap {})",
                        end, self.max
                    )));
                }
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                self.scanned = 0;
                let text = std::str::from_utf8(&line[..line.len() - 1])
                    .map_err(|_| Error::Parse("frame is not utf-8".into()))?
                    .trim();
                if text.is_empty() {
                    continue;
                }
                return Json::parse(text).map(|v| Some(Frame::Json(v)));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max {
                return Err(Error::Parse(format!(
                    "oversized frame: {} bytes without a newline (cap {})",
                    self.buf.len(),
                    self.max
                )));
            }
            return Ok(None);
        }
    }

    fn next_binary(&mut self) -> Result<Option<Frame>> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let op = self.buf[1];
        let len = u32::from_le_bytes(self.buf[2..6].try_into().unwrap()) as usize;
        // The cap is checked from the header alone, before any payload is
        // buffered — an adversarial length cannot make us allocate it.
        if len > self.max {
            return Err(Error::Parse(format!(
                "oversized frame: binary payload of {len} bytes (cap {})",
                self.max
            )));
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf.drain(..HEADER_LEN + len).collect();
        self.scanned = 0;
        decode_payload(op, &payload[HEADER_LEN..]).map(|f| Some(Frame::Binary(f)))
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
