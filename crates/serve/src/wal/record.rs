//! The WAL record format: a checksummed, sequence-numbered superset of the
//! wire protocol's binary frames.
//!
//! ```text
//! 0xBF | op:u8 | payload_len:u32 | seq:u64 | crc32:u32 | payload
//! ```
//!
//! All integers little-endian. `seq` increments by exactly one per record
//! across the whole shard log (spanning segment files), so replay can tell a
//! compacted prefix (the first retained record carries whatever sequence it
//! was written with) from a corrupted middle (a gap). The CRC-32 (IEEE,
//! [`bfly_common::crc32`]) covers the header bytes before the checksum field
//! plus the payload, so a flipped bit anywhere in the record fails closed.
//!
//! Two of the ops carry wire frames: a `release` (0x02) payload is exactly
//! a [`BinaryFrame::encode_payload`] body, which is what lets log-based
//! subscriber catch-up re-emit logged releases byte-identically without
//! re-running any pipeline; an `ingest` (0x01) payload is a `base:u64` —
//! the stream position *before* the chunk's first record — followed by the
//! exact wire ingest payload — which the shard encodes straight from the
//! decoded [`IngestChunk`] it was handed, so a client's raw bytes are never
//! copied (and an unsorted or repeated id never reaches the log: the chunk
//! is canonical). The base is what lets replay place a chunk
//! absolutely: the worker logs a whole chunk before advancing it while
//! publications land mid-chunk, so replay buffers logged records and drains
//! them to each release's position, and a retained chunk from a compacted
//! prefix must know which of its records a later snapshot already covers.
//! The two WAL-only ops use the high bit-range so a WAL record can never be
//! confused for a wire frame op:
//!
//! ```text
//! op 0x10 open:     key, kind            (a stream key materialized)
//! op 0x11 snapshot: key, kind, stream_len:u64, published:u64, last_len:u64,
//!                   prev:u32 × (itemset, true:u64, sanitized:i64),
//!                   window:u32 × itemset
//! ```
//!
//! A `snapshot` carries everything replay needs to rebuild a stream without
//! older records: the window contents (tids are implied — the window's
//! records are stream positions `stream_len - count + 1 ..= stream_len`)
//! and the previous release's `(true_support, sanitized)` pairs, because
//! Butterfly's republication rule pins unchanged supports to sanitized
//! values that may chain back arbitrarily far — a fresh publish could not
//! regenerate them (see [`bfly_core::defense::PrivacyDefense::restore`]).

use bfly_common::crc32::Crc32;
use bfly_common::{BinaryEntry, BinaryFrame, Error, IngestChunk, ItemSet, Result};
use bfly_core::defense::DefenseKind;

/// First byte of every record (shared with the wire's binary frames).
pub const WAL_MAGIC: u8 = 0xBF;

/// `magic + op + payload_len + seq + crc` — the fixed record prefix.
pub const HEADER_LEN: usize = 18;

/// Offset of the checksum field inside the header (everything before it is
/// covered by the checksum; everything after it is payload, also covered).
const CRC_OFFSET: usize = 14;

pub const OP_INGEST: u8 = 0x01;
pub const OP_RELEASE: u8 = 0x02;
pub const OP_OPEN: u8 = 0x10;
pub const OP_SNAPSHOT: u8 = 0x11;

/// One entry of a snapshot's previous release: the full
/// `(itemset, true_support, sanitized)` triple, not just the wire pair,
/// because restoring the republication pin map needs true supports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Item ids, ascending.
    pub ids: Vec<u32>,
    /// Exact support at the pinned publication.
    pub true_support: u64,
    /// The sanitized value the pin republishes.
    pub sanitized: i64,
}

/// The per-stream state a `snapshot` record captures — enough to rebuild
/// the pipeline without any earlier record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// Stream key.
    pub stream: String,
    /// The defense this key is bound to.
    pub kind: DefenseKind,
    /// Stream position `N` at the snapshot (always a publication point).
    pub stream_len: u64,
    /// Publications made so far (including the one at `stream_len`).
    pub published: u64,
    /// Stream position of the latest publication (`== stream_len`; kept
    /// explicit so the record is self-describing).
    pub last_len: u64,
    /// The latest release's entries (the delta base and pin map).
    pub prev_release: Vec<SnapshotEntry>,
    /// Window contents, oldest first; tids implied from `stream_len`.
    pub window: Vec<Vec<u32>>,
}

/// A decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A chunk of transactions accepted for one stream (logged before the
    /// pipeline advances).
    Ingest {
        /// Stream key.
        stream: String,
        /// Stream position before the chunk's first record: record `i` of
        /// the batch sits at absolute position `base + 1 + i`.
        base: u64,
        /// Transactions in arrival order.
        batch: Vec<ItemSet>,
    },
    /// A sanitized publication (logged before fan-out). Replay re-runs the
    /// pipeline at this point and requires bit-identical output.
    Release {
        /// Stream key.
        stream: String,
        /// Stream position of the publication.
        stream_len: u64,
        /// Sanitized entries in canonical release order.
        entries: Vec<BinaryEntry>,
    },
    /// A stream key materialized with a defense binding.
    Open {
        /// Stream key.
        stream: String,
        /// The defense the key bound to.
        kind: DefenseKind,
    },
    /// A full per-stream state snapshot (compaction barrier).
    Snapshot(StreamSnapshot),
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string too long for the log");
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    assert!(ids.len() <= u16::MAX as usize, "itemset too wide");
    buf.extend_from_slice(&(ids.len() as u16).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
}

/// Bounds-checked reader over one payload; malformed bytes surface as
/// parse errors, never panics (the log may be torn or bit-flipped).
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
            .ok_or_else(|| Error::Parse("wal record truncated inside payload".into()))?;
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
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| Error::Parse("wal record string is not utf-8".into()))
    }

    fn ids(&mut self) -> Result<Vec<u32>> {
        let n = self.u16()? as usize;
        let mut ids = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ids.push(self.u32()?);
        }
        Ok(ids)
    }

    fn kind(&mut self) -> Result<DefenseKind> {
        let name = self.str()?;
        DefenseKind::from_name(&name)
            .ok_or_else(|| Error::Parse(format!("wal record names unknown defense {name:?}")))
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "wal record has {} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl WalRecord {
    /// Encode as one log record carrying sequence number `seq`.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out, seq);
        out
    }

    /// [`WalRecord::encode`] into `out`, replacing its contents: the writer
    /// reuses one buffer for every record.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>, seq: u64) {
        framed(out, seq, |p| self.put_payload(p));
    }

    /// Append the payload; returns the op.
    fn put_payload(&self, p: &mut Vec<u8>) -> u8 {
        match self {
            // The wire-frame ops delegate to the frame codec so the logged
            // bytes are exactly what catch-up re-emits; ingest prefixes the
            // frame payload with the chunk's absolute stream position.
            WalRecord::Ingest {
                stream,
                base,
                batch,
            } => {
                p.extend_from_slice(&base.to_le_bytes());
                BinaryFrame::put_ingest_payload(p, stream, batch);
                OP_INGEST
            }
            WalRecord::Release {
                stream,
                stream_len,
                entries,
            } => {
                BinaryFrame::put_release_payload(p, stream, *stream_len, entries);
                OP_RELEASE
            }
            WalRecord::Open { stream, kind } => {
                put_str(p, stream);
                put_str(p, kind.name());
                OP_OPEN
            }
            WalRecord::Snapshot(s) => {
                put_str(p, &s.stream);
                put_str(p, s.kind.name());
                p.extend_from_slice(&s.stream_len.to_le_bytes());
                p.extend_from_slice(&s.published.to_le_bytes());
                p.extend_from_slice(&s.last_len.to_le_bytes());
                p.extend_from_slice(&(s.prev_release.len() as u32).to_le_bytes());
                for e in &s.prev_release {
                    put_ids(p, &e.ids);
                    p.extend_from_slice(&e.true_support.to_le_bytes());
                    p.extend_from_slice(&e.sanitized.to_le_bytes());
                }
                p.extend_from_slice(&(s.window.len() as u32).to_le_bytes());
                for ids in &s.window {
                    put_ids(p, ids);
                }
                OP_SNAPSHOT
            }
        }
    }

    fn decode_payload(op: u8, payload: &[u8]) -> Result<WalRecord> {
        match op {
            OP_INGEST => {
                if payload.len() < 8 {
                    return Err(Error::Parse(
                        "wal ingest record shorter than its base position".into(),
                    ));
                }
                let base = u64::from_le_bytes(payload[..8].try_into().unwrap());
                match BinaryFrame::decode_payload(op, &payload[8..])? {
                    BinaryFrame::Ingest { stream, batch } => Ok(WalRecord::Ingest {
                        stream,
                        base,
                        batch,
                    }),
                    other => Err(Error::Parse(format!(
                        "wal ingest op decoded to unexpected {other:?}"
                    ))),
                }
            }
            OP_RELEASE => match BinaryFrame::decode_payload(op, payload)? {
                BinaryFrame::Release {
                    stream,
                    stream_len,
                    entries,
                } => Ok(WalRecord::Release {
                    stream,
                    stream_len,
                    entries,
                }),
                other => Err(Error::Parse(format!(
                    "wal frame op decoded to unexpected {other:?}"
                ))),
            },
            OP_OPEN => {
                let mut c = Cursor {
                    buf: payload,
                    pos: 0,
                };
                let stream = c.str()?;
                let kind = c.kind()?;
                c.finish()?;
                Ok(WalRecord::Open { stream, kind })
            }
            OP_SNAPSHOT => {
                let mut c = Cursor {
                    buf: payload,
                    pos: 0,
                };
                let stream = c.str()?;
                let kind = c.kind()?;
                let stream_len = c.u64()?;
                let published = c.u64()?;
                let last_len = c.u64()?;
                let np = c.u32()? as usize;
                let mut prev_release = Vec::with_capacity(np.min(4096));
                for _ in 0..np {
                    let ids = c.ids()?;
                    let true_support = c.u64()?;
                    let sanitized = c.i64()?;
                    prev_release.push(SnapshotEntry {
                        ids,
                        true_support,
                        sanitized,
                    });
                }
                let nw = c.u32()? as usize;
                let mut window = Vec::with_capacity(nw.min(65_536));
                for _ in 0..nw {
                    window.push(c.ids()?);
                }
                c.finish()?;
                Ok(WalRecord::Snapshot(StreamSnapshot {
                    stream,
                    kind,
                    stream_len,
                    published,
                    last_len,
                    prev_release,
                    window,
                }))
            }
            other => Err(Error::Parse(format!("unknown wal op 0x{other:02x}"))),
        }
    }

    /// The stream key the record belongs to.
    pub fn stream(&self) -> &str {
        match self {
            WalRecord::Ingest { stream, .. }
            | WalRecord::Release { stream, .. }
            | WalRecord::Open { stream, .. } => stream,
            WalRecord::Snapshot(s) => &s.stream,
        }
    }
}

/// Encode the ingest record of `chunk` into `out`, replacing its contents:
/// the bytes [`WalRecord::Ingest`] encodes to for the same transactions at
/// the same `base`, without building its itemsets.
pub(crate) fn encode_ingest(
    out: &mut Vec<u8>,
    seq: u64,
    stream: &str,
    base: u64,
    chunk: &IngestChunk,
) {
    framed(out, seq, |p| {
        p.extend_from_slice(&base.to_le_bytes());
        chunk.put_payload(p, stream);
        OP_INGEST
    });
}

/// Lay one record out in `out`: the header with its length and checksum
/// left blank, the payload `put` appends (naming the op), then both fields
/// written in place — no payload is built apart and copied.
fn framed(out: &mut Vec<u8>, seq: u64, put: impl FnOnce(&mut Vec<u8>) -> u8) {
    out.clear();
    out.extend_from_slice(&[WAL_MAGIC, 0, 0, 0, 0, 0]);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; HEADER_LEN - CRC_OFFSET]);
    out[1] = put(out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[2..6].copy_from_slice(&len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[..CRC_OFFSET]);
    crc.update(&out[HEADER_LEN..]);
    let crc = crc.finish().to_le_bytes();
    out[CRC_OFFSET..HEADER_LEN].copy_from_slice(&crc);
}

/// Outcome of scanning one record at an offset of a segment buffer.
#[derive(Debug)]
pub enum Scan {
    /// A structurally valid, checksum-clean record ending at `end`.
    Record {
        /// The decoded record.
        rec: WalRecord,
        /// Its sequence number.
        seq: u64,
        /// Offset one past the record (the next scan position).
        end: usize,
    },
    /// Clean end of the segment (offset exactly at the buffer end).
    End,
    /// Bytes at the offset are not a whole record: short header, payload
    /// past the end, bad magic or checksum. At the tail of the last segment
    /// this is a torn write (truncate and continue); anywhere else it is
    /// corruption (refuse to start).
    Corrupt {
        /// What failed, for the error message.
        reason: String,
    },
    /// A whole, checksum-clean record whose payload does not decode. No
    /// crash writes one, so it is never a torn tail: refuse to start
    /// wherever it sits, rather than truncate it and every valid record
    /// after it.
    Undecodable {
        /// What failed, for the error message.
        reason: String,
    },
}

/// Scan the record starting at `pos` in a segment buffer.
pub fn scan_one(buf: &[u8], pos: usize) -> Scan {
    if pos == buf.len() {
        return Scan::End;
    }
    if buf.len() - pos < HEADER_LEN {
        return Scan::Corrupt {
            reason: format!("{} trailing bytes, shorter than a header", buf.len() - pos),
        };
    }
    let h = &buf[pos..pos + HEADER_LEN];
    if h[0] != WAL_MAGIC {
        return Scan::Corrupt {
            reason: format!("bad magic 0x{:02x}", h[0]),
        };
    }
    let op = h[1];
    let payload_len = u32::from_le_bytes(h[2..6].try_into().unwrap()) as usize;
    let seq = u64::from_le_bytes(h[6..14].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(h[CRC_OFFSET..HEADER_LEN].try_into().unwrap());
    let Some(end) = pos
        .checked_add(HEADER_LEN)
        .and_then(|p| p.checked_add(payload_len))
        .filter(|&e| e <= buf.len())
    else {
        return Scan::Corrupt {
            reason: format!("payload of {payload_len} bytes runs past the segment"),
        };
    };
    let payload = &buf[pos + HEADER_LEN..end];
    let mut crc = Crc32::new();
    crc.update(&buf[pos..pos + CRC_OFFSET]);
    crc.update(payload);
    if crc.finish() != stored_crc {
        return Scan::Corrupt {
            reason: format!(
                "checksum mismatch at seq {seq} (stored {stored_crc:#010x}, computed {:#010x})",
                crc.finish()
            ),
        };
    }
    match WalRecord::decode_payload(op, payload) {
        Ok(rec) => Scan::Record { rec, seq, end },
        Err(e) => Scan::Undecodable {
            reason: format!("checksum-clean record failed to decode: {e}"),
        },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An `open` record at `seq` that names a defense this build does not know,
    /// under a valid checksum.
    pub(crate) fn undecodable_open(seq: u64) -> Vec<u8> {
        let mut bytes = WalRecord::Open {
            stream: "s".into(),
            kind: DefenseKind::Suppression,
        }
        .encode(seq);
        let start = bytes.len() - "suppress".len();
        bytes[start..].copy_from_slice(b"suppr3ss");
        let mut crc = Crc32::new();
        crc.update(&bytes[..CRC_OFFSET]);
        crc.update(&bytes[HEADER_LEN..]);
        let fixed = crc.finish().to_le_bytes();
        bytes[CRC_OFFSET..HEADER_LEN].copy_from_slice(&fixed);
        bytes
    }

    fn iset(s: &str) -> ItemSet {
        s.parse().unwrap()
    }

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Open {
                stream: "tenant-a".into(),
                kind: DefenseKind::Butterfly,
            },
            WalRecord::Ingest {
                stream: "tenant-a".into(),
                base: 12_345,
                batch: vec![iset("ab"), iset("c"), ItemSet::from_ids([])],
            },
            WalRecord::Release {
                stream: "tenant-a".into(),
                stream_len: 1 << 33,
                entries: vec![
                    BinaryEntry {
                        ids: vec![1, 2],
                        support: -4,
                    },
                    BinaryEntry {
                        ids: vec![9],
                        support: i64::MAX,
                    },
                ],
            },
            WalRecord::Snapshot(StreamSnapshot {
                stream: "tenant-b".into(),
                kind: DefenseKind::PrivBasis,
                stream_len: 200,
                published: 12,
                last_len: 200,
                prev_release: vec![SnapshotEntry {
                    ids: vec![3, 5],
                    true_support: 40,
                    sanitized: 38,
                }],
                window: vec![vec![1], vec![], vec![2, 7]],
            }),
        ]
    }

    #[test]
    fn records_round_trip_with_sequence_numbers() {
        let mut buf = Vec::new();
        for (i, rec) in samples().iter().enumerate() {
            buf.extend_from_slice(&rec.encode(100 + i as u64));
        }
        let mut pos = 0;
        for (i, want) in samples().iter().enumerate() {
            match scan_one(&buf, pos) {
                Scan::Record { rec, seq, end } => {
                    assert_eq!(&rec, want);
                    assert_eq!(seq, 100 + i as u64);
                    pos = end;
                }
                other => panic!("record {i}: {other:?}"),
            }
        }
        assert!(matches!(scan_one(&buf, pos), Scan::End));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let rec = &samples()[2];
        let clean = rec.encode(7);
        for byte in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 1;
            match scan_one(&bytes, 0) {
                Scan::Corrupt { .. } => {}
                // A flip in the length field can also make the header
                // promise more payload than the buffer holds — still caught,
                // still corrupt. Anything that passes the checksum is a
                // failure.
                other => panic!("flip at byte {byte} went undetected: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_tail_is_corrupt_at_every_cut() {
        let rec = &samples()[3];
        let clean = rec.encode(3);
        for cut in 1..clean.len() {
            match scan_one(&clean[..cut], 0) {
                Scan::Corrupt { .. } => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn ingest_and_release_payloads_carry_wire_frame_payloads() {
        // The contract catch-up relies on: a logged release's payload is the
        // exact frame payload, so re-framing it reproduces the wire bytes.
        let rec = WalRecord::Release {
            stream: "s".into(),
            stream_len: 42,
            entries: vec![BinaryEntry {
                ids: vec![1],
                support: 9,
            }],
        };
        let bytes = rec.encode(0);
        let frame = BinaryFrame::Release {
            stream: "s".into(),
            stream_len: 42,
            entries: vec![BinaryEntry {
                ids: vec![1],
                support: 9,
            }],
        };
        assert_eq!(
            (bytes[1], bytes[HEADER_LEN..].to_vec()),
            frame.encode_payload()
        );

        // An ingest payload is its wire frame payload behind an 8-byte
        // absolute stream position.
        let batch = vec![iset("ab"), ItemSet::empty(), iset("c")];
        let rec = WalRecord::Ingest {
            stream: "s".into(),
            base: 7,
            batch: batch.clone(),
        };
        let bytes = rec.encode(3);
        let (frame_op, frame_payload) = BinaryFrame::Ingest {
            stream: "s".into(),
            batch: batch.clone(),
        }
        .encode_payload();
        assert_eq!(bytes[1], frame_op);
        assert_eq!(&bytes[HEADER_LEN..HEADER_LEN + 8], &7u64.to_le_bytes());
        assert_eq!(&bytes[HEADER_LEN + 8..], &frame_payload[..]);

        // Encoded from the decoded chunk instead, into a reused buffer: the
        // same bytes.
        let mut out = b"stale bytes from an earlier record".to_vec();
        encode_ingest(&mut out, 3, "s", 7, &IngestChunk::from_itemsets(&batch));
        assert_eq!(out, bytes);
    }

    #[test]
    fn unknown_defense_name_is_undecodable_not_torn() {
        // The checksum holds, so only semantic validation can object.
        match scan_one(&undecodable_open(0), 0) {
            Scan::Undecodable { reason } => {
                assert!(reason.contains("unknown defense"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }
}
