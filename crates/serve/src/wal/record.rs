//! The WAL record format: a checksummed, sequence-numbered superset of the
//! wire protocol's binary frames.
//!
//! ```text
//! 0xBF | op:u8 | payload_len:u32 | seq:u64 | crc32:u32 | payload
//! ```
//!
//! The log's layout is the frame codec's plus the log's header: every
//! payload is written through [`bfly_common::frame`]'s writers (`put_str`,
//! `put_ids`, [`BinaryFrame`]'s payload encoders) and read back through its
//! [`Cursor`], and the magic byte and the two wire ops are the codec's
//! constants. This module owns only the header — `seq` and the checksum —
//! and the two WAL-only ops.
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
//! A `snapshot` carries what replay needs to rebuild a stream beside the
//! window: the counters and the previous release's `(true_support,
//! sanitized)` pairs, because Butterfly's republication rule pins unchanged
//! supports to sanitized values that may chain back arbitrarily far — a
//! fresh publish could not regenerate them (see
//! [`bfly_core::PublicationHistory::restored`]). The window itself is the
//! stream's last `W` logged ingest records, so the live writer names it by
//! position: its `window` list is empty, meaning "the `W` records ending at
//! `stream_len`" (unambiguous, since a publication needs a full window).
//! `encode_snapshot` lays that form out from the release the shard holds,
//! with nothing built per record. A snapshot whose list holds the window
//! (records at positions `stream_len - count + 1 ..= stream_len`, each an
//! ascending id list) is what older logs hold and what
//! [`WalRecord::Snapshot`] still encodes; recovery adopts either form from
//! the decoded [`StreamSnapshot`]. Both encoders lay the payload out
//! through one function, so the bytes cannot drift.
//!
//! A scan checks every record's checksum; what it decodes is the caller's
//! `Decode`: recovery decodes everything, catch-up only the `release`
//! records of its stream.

use bfly_common::crc32::Crc32;
use bfly_common::frame::{put_ids, put_str, Cursor, BINARY_MAGIC, OP_INGEST, OP_RELEASE};
use bfly_common::{BinaryEntry, BinaryFrame, Error, IngestChunk, ItemSet, Result};
use bfly_core::defense::DefenseKind;
use bfly_core::SanitizedRelease;

/// `magic + op + payload_len + seq + crc` — the fixed record prefix.
pub(crate) const HEADER_LEN: usize = 18;

/// Offset of the checksum field inside the header (everything before it is
/// covered by the checksum; everything after it is payload, also covered).
const CRC_OFFSET: usize = 14;

pub(crate) const OP_OPEN: u8 = 0x10;
pub(crate) const OP_SNAPSHOT: u8 = 0x11;

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
    /// Window contents, oldest first, tids implied from `stream_len`; empty
    /// when the snapshot names its window by position (the `W` logged
    /// records ending at `stream_len`), as the live writer logs it.
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

/// The fields a `snapshot` payload opens with, before its two lists.
pub(crate) struct SnapshotHead<'a> {
    /// Stream key.
    pub(crate) stream: &'a str,
    /// The defense the key is bound to.
    pub(crate) kind: DefenseKind,
    /// Stream position at the snapshot.
    pub(crate) stream_len: u64,
    /// Publications made so far, the one at `stream_len` included.
    pub(crate) published: u64,
    /// Stream position of the latest publication.
    pub(crate) last_len: u64,
}

/// Append a `snapshot` payload and return its op: the one layout behind
/// both [`WalRecord::Snapshot`] and [`encode_snapshot`], so the two cannot
/// drift. `prev` yields each previous-release entry's
/// `(ids, true_support, sanitized)`; `window` is the carried window, empty
/// for a snapshot that names it by position.
fn put_snapshot<I>(
    p: &mut Vec<u8>,
    head: &SnapshotHead,
    prev: impl ExactSizeIterator<Item = (I, u64, i64)>,
    window: &[Vec<u32>],
) -> u8
where
    I: ExactSizeIterator<Item = u32>,
{
    put_str(p, head.stream);
    put_str(p, head.kind.name());
    p.extend_from_slice(&head.stream_len.to_le_bytes());
    p.extend_from_slice(&head.published.to_le_bytes());
    p.extend_from_slice(&head.last_len.to_le_bytes());
    p.extend_from_slice(&(prev.len() as u32).to_le_bytes());
    for (ids, true_support, sanitized) in prev {
        put_ids(p, ids);
        p.extend_from_slice(&true_support.to_le_bytes());
        p.extend_from_slice(&sanitized.to_le_bytes());
    }
    p.extend_from_slice(&(window.len() as u32).to_le_bytes());
    for ids in window {
        put_ids(p, ids.iter().copied());
    }
    OP_SNAPSHOT
}

/// A `kind`: the name of the defense a stream is bound to.
fn kind(c: &mut Cursor) -> Result<DefenseKind> {
    let name = c.str()?;
    DefenseKind::from_name(&name)
        .ok_or_else(|| Error::Parse(format!("wal record names unknown defense {name:?}")))
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
            WalRecord::Snapshot(s) => put_snapshot(
                p,
                &SnapshotHead {
                    stream: &s.stream,
                    kind: s.kind,
                    stream_len: s.stream_len,
                    published: s.published,
                    last_len: s.last_len,
                },
                s.prev_release
                    .iter()
                    .map(|e| (e.ids.iter().copied(), e.true_support, e.sanitized)),
                &s.window,
            ),
        }
    }

    fn decode_payload(op: u8, payload: &[u8]) -> Result<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match op {
            OP_INGEST => {
                // The base, then the wire ingest payload.
                let base = c.u64()?;
                let mut chunk = IngestChunk::new();
                let stream = chunk.decode(&payload[8..])?;
                return Ok(WalRecord::Ingest {
                    stream,
                    base,
                    batch: chunk.to_itemsets(),
                });
            }
            OP_RELEASE => {
                return match BinaryFrame::decode_payload(op, payload)? {
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
                }
            }
            OP_OPEN => WalRecord::Open {
                stream: c.str()?,
                kind: kind(&mut c)?,
            },
            OP_SNAPSHOT => {
                let stream = c.str()?;
                let kind = kind(&mut c)?;
                let stream_len = c.u64()?;
                let published = c.u64()?;
                let last_len = c.u64()?;
                let np = c.u32()? as usize;
                let mut prev_release = Vec::with_capacity(np.min(4096));
                for _ in 0..np {
                    prev_release.push(SnapshotEntry {
                        ids: c.ids()?,
                        true_support: c.u64()?,
                        sanitized: c.i64()?,
                    });
                }
                let nw = c.u32()? as usize;
                let mut window = Vec::with_capacity(nw.min(65_536));
                for _ in 0..nw {
                    window.push(c.ids()?);
                }
                WalRecord::Snapshot(StreamSnapshot {
                    stream,
                    kind,
                    stream_len,
                    published,
                    last_len,
                    prev_release,
                    window,
                })
            }
            other => return Err(Error::Parse(format!("unknown wal op 0x{other:02x}"))),
        };
        c.finish()?;
        Ok(rec)
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

/// Encode the snapshot record of a stream into `out`, replacing its
/// contents: `release` is the publication at `head.stream_len`, and the
/// window is named by position. The bytes [`WalRecord::Snapshot`] encodes
/// to for the same state with an empty `window`, without building its
/// entries.
pub(crate) fn encode_snapshot(
    out: &mut Vec<u8>,
    seq: u64,
    head: &SnapshotHead,
    release: &SanitizedRelease,
) {
    framed(out, seq, |p| {
        let prev = release.iter().map(|e| {
            let ids = e.itemset().items().iter().map(|i| i.id());
            (ids, e.true_support, e.sanitized)
        });
        put_snapshot(p, head, prev, &[])
    });
}

/// Lay one record out in `out`: the header with its length and checksum
/// left blank, the payload `put` appends (naming the op), then both fields
/// written in place — no payload is built apart and copied.
fn framed(out: &mut Vec<u8>, seq: u64, put: impl FnOnce(&mut Vec<u8>) -> u8) {
    out.clear();
    out.extend_from_slice(&[BINARY_MAGIC, 0, 0, 0, 0, 0]);
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

/// Which checksum-clean records a scan decodes. Every record's checksum is
/// checked either way; one left undecoded comes back [`Scan::Skipped`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Decode<'a> {
    /// Every record: recovery re-executes the whole log.
    All,
    /// Only the `release` records of this stream: what catch-up serves.
    ReleasesOf(&'a str),
}

impl Decode<'_> {
    fn wants(self, op: u8, payload: &[u8]) -> bool {
        match self {
            Decode::All => true,
            // A release payload opens with its key. One too short to hold
            // its key is decoded, and fails.
            Decode::ReleasesOf(stream) => {
                op == OP_RELEASE
                    && Cursor::new(payload)
                        .bytes()
                        .map_or(true, |key| key == stream.as_bytes())
            }
        }
    }
}

/// Outcome of scanning one record at an offset of a segment buffer.
#[derive(Debug)]
pub(crate) enum Scan {
    /// A structurally valid, checksum-clean record ending at `end`.
    Record {
        /// The decoded record.
        rec: WalRecord,
        /// Its sequence number.
        seq: u64,
        /// Offset one past the record (the next scan position).
        end: usize,
    },
    /// A structurally valid, checksum-clean record the scan's [`Decode`]
    /// left undecoded.
    Skipped {
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

/// The length of the record whose header starts `buf` — header plus the
/// payload its length field declares — or `None` if `buf` is shorter than a
/// header or does not start with the magic byte. It vouches for nothing
/// else: [`scan_one`] judges the record.
pub(crate) fn declared_len(buf: &[u8]) -> Option<usize> {
    let h = buf.get(..HEADER_LEN)?;
    let payload_len = u32::from_le_bytes(h[2..6].try_into().unwrap()) as usize;
    (h[0] == BINARY_MAGIC).then(|| HEADER_LEN.saturating_add(payload_len))
}

/// Scan the record starting at `pos` in a segment buffer, decoding it if
/// `decode` wants it.
pub(crate) fn scan_one(buf: &[u8], pos: usize, decode: Decode) -> Scan {
    if pos == buf.len() {
        return Scan::End;
    }
    if buf.len() - pos < HEADER_LEN {
        return Scan::Corrupt {
            reason: format!("{} trailing bytes, shorter than a header", buf.len() - pos),
        };
    }
    let h = &buf[pos..pos + HEADER_LEN];
    if h[0] != BINARY_MAGIC {
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
    if !decode.wants(op, payload) {
        return Scan::Skipped { end };
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
    use crate::wal::fault::FaultStore;
    use crate::wal::segment::{SegmentId, SegmentReader, SegmentStore, BLOCK};
    use std::sync::atomic::Ordering;

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
        reseal(&mut bytes);
        bytes
    }

    /// A `release` record of `stream` at `seq` whose entry count promises an
    /// entry the payload does not hold, under a valid checksum.
    pub(crate) fn undecodable_release(stream: &str, seq: u64) -> Vec<u8> {
        let mut bytes = WalRecord::Release {
            stream: stream.into(),
            stream_len: 99,
            entries: Vec::new(),
        }
        .encode(seq);
        let count = bytes.len() - 4;
        bytes[count..].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut bytes);
        bytes
    }

    /// Rewrite the length and checksum fields of the one record in `bytes`
    /// to match what it holds now.
    fn reseal(bytes: &mut [u8]) {
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[2..6].copy_from_slice(&len.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&bytes[..CRC_OFFSET]);
        crc.update(&bytes[HEADER_LEN..]);
        let fixed = crc.finish().to_le_bytes();
        bytes[CRC_OFFSET..HEADER_LEN].copy_from_slice(&fixed);
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
            match scan_one(&buf, pos, Decode::All) {
                Scan::Record { rec, seq, end } => {
                    assert_eq!(&rec, want);
                    assert_eq!(seq, 100 + i as u64);
                    pos = end;
                }
                other => panic!("record {i}: {other:?}"),
            }
        }
        assert!(matches!(scan_one(&buf, pos, Decode::All), Scan::End));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let rec = &samples()[2];
        let clean = rec.encode(7);
        for byte in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 1;
            match scan_one(&bytes, 0, Decode::All) {
                Scan::Corrupt { .. } => {}
                // A flip in the length field can also make the header
                // promise more payload than the buffer holds — still caught,
                // still corrupt. Anything that passes the checksum is a
                // failure.
                other => panic!("flip at byte {byte} went undetected: {other:?}"),
            }
        }
    }

    /// A snapshot of a W 2000 window of ten-item transactions: a record
    /// longer than one of the segment reader's blocks.
    pub(crate) fn w2000_snapshot() -> WalRecord {
        WalRecord::Snapshot(StreamSnapshot {
            stream: "tenant-w".into(),
            kind: DefenseKind::Butterfly,
            stream_len: 5000,
            published: 30,
            last_len: 5000,
            prev_release: Vec::new(),
            window: (0..2000u32)
                .map(|t| (0..10).map(|i| t % 97 + i * 100).collect())
                .collect(),
        })
    }

    #[test]
    fn truncated_tail_is_corrupt_at_every_cut() {
        // Through `scan_one` over the cut bytes, and through the segment
        // reader over a segment holding them: every cut of a small
        // snapshot, and cuts of one longer than a block on both sides of
        // the block boundary.
        let through_reader = |bytes: &[u8]| {
            let store = FaultStore::new(5);
            let seg = SegmentId { shard: 0, idx: 0 };
            store.open_append(seg).unwrap().0.append(bytes).unwrap();
            let mut reader = SegmentReader::new();
            reader.open(&*store, seg).unwrap();
            let scan = reader.next(Decode::All).unwrap();
            // One block, plus at most the record it returned.
            let room = match scan {
                Scan::Record { .. } => BLOCK + bytes.len(),
                _ => BLOCK,
            };
            assert!(
                reader.capacity() <= room,
                "grew for a record it cannot hold"
            );
            scan
        };
        let small = samples()[3].encode(3);
        let big = w2000_snapshot().encode(3);
        assert!(big.len() > BLOCK);
        let big_cuts = (1..HEADER_LEN + 2)
            .chain((BLOCK - 2..BLOCK + 3).chain((1..big.len()).step_by(997)))
            .chain(big.len() - 2..big.len());
        let cases = (1..small.len())
            .map(|cut| (&small, cut))
            .chain(big_cuts.map(|cut| (&big, cut)));
        for (clean, cut) in cases {
            match (
                scan_one(&clean[..cut], 0, Decode::All),
                through_reader(&clean[..cut]),
            ) {
                (Scan::Corrupt { .. }, Scan::Corrupt { .. }) => {}
                other => panic!("cut at {cut} of {}: {other:?}", clean.len()),
            }
        }
        // Whole, both read it back.
        for clean in [&small, &big] {
            assert!(matches!(
                scan_one(clean, 0, Decode::All),
                Scan::Record { .. }
            ));
            assert!(matches!(through_reader(clean), Scan::Record { .. }));
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

    /// The payload length of a snapshot of `stream` bound to `kind` that
    /// names its window by position: its header, a `(ids, true, sanitized)`
    /// triple per previous-release entry of `widths` ids, and an empty
    /// window list.
    pub(crate) fn by_position_len(
        stream: &str,
        kind: DefenseKind,
        widths: impl Iterator<Item = usize>,
    ) -> usize {
        let head = 2 + stream.len() + 2 + kind.name().len() + 3 * 8;
        let prev: usize = widths.map(|w| 2 + 4 * w + 16).sum();
        head + 4 + prev + 4
    }

    /// The bytes [`crate::wal::WalWriter::append_snapshot`] logs for the
    /// state `s` describes, its previous release built as the publication
    /// step holds one and its window named by position.
    fn appended_snapshot(s: &StreamSnapshot, seq: u64) -> Vec<u8> {
        use crate::config::WalConfig;
        use crate::stats::WalStats;
        use crate::wal::writer::{WalWriter, WriterPosition};
        use bfly_common::ItemsetId;
        use bfly_core::SanitizedItemset;
        use std::sync::Arc;

        let release = SanitizedRelease::new(
            s.prev_release
                .iter()
                .map(|e| SanitizedItemset {
                    id: ItemsetId::new(ItemSet::from_ids(e.ids.iter().copied())),
                    true_support: e.true_support,
                    sanitized: e.sanitized,
                })
                .collect(),
        );
        let store = FaultStore::new(3);
        let pos = WriterPosition {
            next_seq: seq,
            ..WriterPosition::default()
        };
        let stats = Arc::new(WalStats::default());
        let wal = WalConfig::new(store.root());
        let mut w = WalWriter::open_in(store.clone(), 0, wal, 8, stats.clone(), pos).unwrap();
        let window = s.stream_len.min(2000) as usize;
        w.append_snapshot(
            &s.stream,
            s.kind,
            s.stream_len,
            s.published,
            &release,
            window,
        )
        .unwrap();
        let seg = store.open(SegmentId { shard: 0, idx: 0 }).unwrap();
        let mut bytes = vec![0; seg.len().unwrap() as usize];
        assert_eq!(seg.read_at(0, &mut bytes).unwrap(), bytes.len());
        assert_eq!(
            stats.snapshot_bytes.load(Ordering::Relaxed),
            bytes.len() as u64
        );
        bytes
    }

    #[test]
    fn the_direct_snapshot_encoder_is_the_records_layout() {
        // The live writer's snapshot is the record with an empty window:
        // its header and previous release, nothing per window record.
        let head = |stream: &str, kind, stream_len, published| StreamSnapshot {
            stream: stream.into(),
            kind,
            stream_len,
            published,
            last_len: stream_len,
            prev_release: Vec::new(),
            window: Vec::new(),
        };
        let with_prev = StreamSnapshot {
            prev_release: vec![
                SnapshotEntry {
                    ids: vec![3, 105, 7000],
                    true_support: 40,
                    sanitized: 38,
                },
                SnapshotEntry {
                    ids: vec![],
                    true_support: 2000,
                    sanitized: -1,
                },
            ],
            ..head("tenant-w", DefenseKind::Butterfly, 5000, 30)
        };
        let one_entry = StreamSnapshot {
            prev_release: vec![SnapshotEntry {
                ids: vec![1],
                true_support: 3,
                sanitized: 2,
            }],
            ..head("tenant-e", DefenseKind::PrivBasis, 4, 1)
        };
        let empty = head("tenant-0", DefenseKind::Butterfly, 2000, 1);
        for (s, seq) in [(with_prev, 1 << 40), (one_entry, 0), (empty, 7)] {
            let want = WalRecord::Snapshot(s.clone()).encode(seq);
            assert_eq!(appended_snapshot(&s, seq), want, "{}", s.stream);
            let widths = s.prev_release.iter().map(|e| e.ids.len());
            let len = by_position_len(&s.stream, s.kind, widths);
            assert_eq!(want.len(), HEADER_LEN + len, "{}", s.stream);
            match scan_one(&want, 0, Decode::All) {
                Scan::Record {
                    rec: WalRecord::Snapshot(back),
                    ..
                } => assert_eq!(back, s),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn catch_up_decodes_only_its_streams_releases() {
        let release = |stream: &str| WalRecord::Release {
            stream: stream.into(),
            stream_len: 9,
            entries: vec![BinaryEntry {
                ids: vec![1],
                support: 4,
            }],
        };
        let only = Decode::ReleasesOf("k");
        for rec in samples().into_iter().chain([release("kk"), release("")]) {
            let bytes = rec.encode(1);
            assert!(
                matches!(scan_one(&bytes, 0, only), Scan::Skipped { end } if end == bytes.len()),
                "{rec:?}"
            );
        }
        let bytes = release("k").encode(1);
        assert!(
            matches!(scan_one(&bytes, 0, only), Scan::Record { rec, .. } if rec == release("k"))
        );
        // Checksums are checked whatever is decoded.
        let mut flipped = samples()[1].encode(1);
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(scan_one(&flipped, 0, only), Scan::Corrupt { .. }));
        // A release of the stream that fails to decode is reported, as is
        // one too short for the key filter to read its key.
        let bad = undecodable_release("k", 1);
        assert!(matches!(scan_one(&bad, 0, only), Scan::Undecodable { .. }));
        let mut short = bad[..HEADER_LEN + 1].to_vec();
        reseal(&mut short);
        assert!(matches!(
            scan_one(&short, 0, only),
            Scan::Undecodable { .. }
        ));
        let other = undecodable_release("kk", 1);
        assert!(matches!(scan_one(&other, 0, only), Scan::Skipped { .. }));
    }

    #[test]
    fn a_resealed_cut_or_padded_payload_is_undecodable() {
        // The checksum is made to hold, so only the payload reader can
        // object: every cut of each op's payload, and one byte appended.
        // The W 2000 snapshot is cut everywhere within a KiB of either end
        // and every 997 bytes between.
        let resealed = |clean: &[u8], payload_len: usize, extra: &[u8]| {
            let mut bytes = clean[..HEADER_LEN + payload_len].to_vec();
            bytes.extend_from_slice(extra);
            reseal(&mut bytes);
            bytes
        };
        let small = samples().into_iter().map(|rec| (rec, false));
        for (rec, big) in small.chain([(w2000_snapshot(), true)]) {
            let clean = rec.encode(5);
            let len = clean.len() - HEADER_LEN;
            let cuts: Vec<usize> = if big {
                (0..1024)
                    .chain((1024..len - 1024).step_by(997))
                    .chain(len - 1024..len)
                    .collect()
            } else {
                (0..len).collect()
            };
            let cases = cuts
                .into_iter()
                .map(|cut| (cut, resealed(&clean, cut, &[])))
                .chain([(len + 1, resealed(&clean, len, &[0]))]);
            for (at, bytes) in cases {
                match scan_one(&bytes, 0, Decode::All) {
                    Scan::Undecodable { .. } => {}
                    other => panic!("op {:#04x} at {at} of {len}: {other:?}", clean[1]),
                }
            }
        }
    }

    #[test]
    fn unknown_defense_name_is_undecodable_not_torn() {
        // The checksum holds, so only semantic validation can object.
        match scan_one(&undecodable_open(0), 0, Decode::All) {
            Scan::Undecodable { reason } => {
                assert!(reason.contains("unknown defense"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }
}
