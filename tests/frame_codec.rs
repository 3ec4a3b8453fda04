//! Property tests for the mixed NDJSON/binary `FrameCodec`: seeded-random
//! frames must round-trip byte-exactly through arbitrary chunking, every
//! truncation must wait (never panic, never mis-frame), garbage must not
//! break stream alignment, and the frame cap must bind exactly at its
//! boundary for both encodings.

use butterfly_repro::common::rng::{Rng, SmallRng};
use butterfly_repro::common::{BinaryEntry, BinaryFrame, Error, Frame, FrameCodec, ItemSet, Json};

fn random_key(rng: &mut SmallRng) -> String {
    let len = 1 + rng.gen_range_usize(12);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range_usize(26) as u8))
        .collect()
}

fn random_ids(rng: &mut SmallRng) -> Vec<u32> {
    let len = rng.gen_range_usize(6);
    let mut ids: Vec<u32> = (0..len)
        .map(|_| rng.gen_range_i64(0, 10_000) as u32)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn random_entries(rng: &mut SmallRng) -> Vec<BinaryEntry> {
    let n = rng.gen_range_usize(5);
    (0..n)
        .map(|_| BinaryEntry {
            ids: random_ids(rng),
            // Sanitized supports may be negative or extreme.
            support: match rng.gen_range_usize(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range_i64(-1_000, 1_000),
            },
        })
        .collect()
}

/// One random frame of any shape, plus its wire bytes. JSON lines are part
/// of the property: negotiation is per frame, so the codec must re-sync the
/// encoding decision at every frame boundary.
fn random_frame(rng: &mut SmallRng) -> (Frame, Vec<u8>) {
    match rng.gen_range_usize(4) {
        0 => {
            let doc = format!(
                "{{\"op\":\"ping\",\"n\":{},\"s\":\"{}\"}}",
                rng.gen_range_i64(-1 << 40, 1 << 40),
                random_key(rng)
            );
            let frame = Frame::Json(Json::parse(&doc).expect("generated json"));
            (frame, format!("{doc}\n").into_bytes())
        }
        1 => {
            let b = BinaryFrame::Ingest {
                stream: random_key(rng),
                batch: (0..rng.gen_range_usize(4))
                    .map(|_| ItemSet::from_ids(random_ids(rng)))
                    .collect(),
            };
            let bytes = b.encode();
            (Frame::Binary(b), bytes)
        }
        2 => {
            let b = BinaryFrame::Release {
                stream: random_key(rng),
                stream_len: rng.next_u64(),
                entries: random_entries(rng),
            };
            let bytes = b.encode();
            (Frame::Binary(b), bytes)
        }
        _ => {
            let b = BinaryFrame::ReleaseDelta {
                stream: random_key(rng),
                stream_len: rng.next_u64(),
                base_len: rng.next_u64(),
                added: random_entries(rng),
                changed: random_entries(rng),
                removed: (0..rng.gen_range_usize(4))
                    .map(|_| random_ids(rng))
                    .collect(),
            };
            let bytes = b.encode();
            (Frame::Binary(b), bytes)
        }
    }
}

/// Decode everything currently decodable, panicking on any error — used
/// where the property says no error may occur.
fn drain_ok(codec: &mut FrameCodec) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Some(f) = codec.next_frame().expect("well-formed stream") {
        out.push(f);
    }
    out
}

/// Every raw frame currently complete, copied out.
fn drain_raw(codec: &mut FrameCodec) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Some(raw) = codec.next_raw().expect("well-formed stream") {
        out.push(raw.to_vec());
    }
    out
}

/// 100 seeds × ~20 mixed frames each, delivered in random chunk sizes
/// (including 1-byte drip-feeds): the decoded sequence must equal the
/// generated one exactly, independent of how the transport fragments it —
/// and `next_raw`, fed the same chunks, must cut the stream at the same
/// boundaries, handing back each generated frame's bytes exactly.
#[test]
fn random_frames_round_trip_through_arbitrary_chunking() {
    for seed in 0..100u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 5 + rng.gen_range_usize(16);
        let mut expected = Vec::with_capacity(n);
        let mut expected_raw = Vec::with_capacity(n);
        let mut wire = Vec::new();
        for _ in 0..n {
            let (frame, bytes) = random_frame(&mut rng);
            expected.push(frame);
            wire.extend_from_slice(&bytes);
            expected_raw.push(bytes);
        }
        let mut codec = FrameCodec::new();
        let mut raw_codec = FrameCodec::new();
        let mut decoded = Vec::new();
        let mut raw = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let chunk = 1 + rng.gen_range_usize(97.min(wire.len() - pos));
            codec.extend(&wire[pos..pos + chunk]);
            raw_codec.extend(&wire[pos..pos + chunk]);
            pos += chunk;
            decoded.extend(drain_ok(&mut codec));
            raw.extend(drain_raw(&mut raw_codec));
            assert_eq!(raw.len(), decoded.len(), "seed {seed}: boundaries differ");
        }
        assert_eq!(decoded, expected, "seed {seed} diverged");
        assert_eq!(raw, expected_raw, "seed {seed}: raw frames diverged");
        assert!(codec.is_blank(), "seed {seed} left residue");
        assert!(raw_codec.is_blank(), "seed {seed} left raw residue");
    }
}

/// `next_raw` on mixed traffic: an NDJSON line (through its newline), a
/// binary frame, then a partial header that waits — and the cap binds from
/// the header alone, exactly as for the decoder.
#[test]
fn next_raw_splits_mixed_traffic_without_decoding() {
    let bin = BinaryFrame::Ingest {
        stream: "t0".into(),
        batch: vec![ItemSet::from_ids([1u32, 2])],
    }
    .encode();
    let mut codec = FrameCodec::new();
    codec.extend(b"\n {\"ok\":true}\n");
    codec.extend(&bin);
    codec.extend(&bin[..3]);
    assert_eq!(codec.next_raw().unwrap(), Some(&b"{\"ok\":true}\n"[..]));
    assert_eq!(codec.next_raw().unwrap(), Some(&bin[..]));
    assert_eq!(codec.next_raw().unwrap(), None, "partial frame must wait");
    assert_eq!(codec.buffered(), 3);

    let mut capped = FrameCodec::with_max(bin.len() - 7);
    capped.extend(&bin[..6]);
    match capped.next_raw() {
        Err(Error::Parse(msg)) => assert!(msg.contains("oversized"), "{msg}"),
        other => panic!("expected oversized error, got {other:?}"),
    }
}

/// Every strict prefix of a frame stream decodes to a prefix of the full
/// decode and then reports `Ok(None)` ("need more bytes") — truncation is
/// never an error, a panic, or a phantom frame.
#[test]
fn truncation_at_every_prefix_waits_for_more() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut expected = Vec::new();
    let mut expected_raw = Vec::new();
    let mut wire = Vec::new();
    for _ in 0..4 {
        let (frame, bytes) = random_frame(&mut rng);
        expected.push(frame);
        wire.extend_from_slice(&bytes);
        expected_raw.push(bytes);
    }
    for cut in 0..wire.len() {
        let mut codec = FrameCodec::new();
        codec.extend(&wire[..cut]);
        let head = drain_ok(&mut codec);
        assert!(
            head.len() <= expected.len() && head == expected[..head.len()],
            "cut {cut}: prefix decode must be a prefix of the full decode"
        );
        // Feeding the remainder always completes the stream.
        codec.extend(&wire[cut..]);
        let tail = drain_ok(&mut codec);
        assert_eq!(head.len() + tail.len(), expected.len(), "cut {cut}");
        assert_eq!(tail, expected[head.len()..], "cut {cut}");

        // The raw splitter stops at the same frame boundary.
        let mut raw_codec = FrameCodec::new();
        raw_codec.extend(&wire[..cut]);
        let raw_head = drain_raw(&mut raw_codec);
        assert_eq!(raw_head, expected_raw[..head.len()], "cut {cut}");
        raw_codec.extend(&wire[cut..]);
        assert_eq!(
            drain_raw(&mut raw_codec),
            expected_raw[head.len()..],
            "cut {cut}"
        );
    }
}

/// A garbage prefix — random bytes that are neither valid JSON nor a binary
/// frame — costs exactly one recoverable error per garbage line; every
/// well-formed frame after it still decodes. Alignment survives because
/// garbage that does not start with the binary magic is consumed as an
/// NDJSON line up to its newline.
#[test]
fn garbage_prefix_is_recoverable_and_preserves_alignment() {
    for seed in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        // Printable garbage, guaranteed non-JSON by the leading '#', with
        // no newline or binary magic inside.
        let garbage: String = std::iter::once('#')
            .chain(
                (0..rng.gen_range_usize(40))
                    .map(|_| char::from(b' ' + rng.gen_range_usize(0x5e) as u8)),
            )
            .collect();
        let (frame, bytes) = random_frame(&mut rng);
        let mut codec = FrameCodec::new();
        codec.extend(garbage.as_bytes());
        codec.extend(b"\n");
        codec.extend(&bytes);
        match codec.next_frame() {
            Err(Error::Parse(msg)) => {
                assert!(
                    !msg.contains("oversized"),
                    "seed {seed}: must be recoverable"
                )
            }
            other => panic!("seed {seed}: expected a parse error, got {other:?}"),
        }
        assert_eq!(
            codec.next_frame().expect("aligned after garbage"),
            Some(frame),
            "seed {seed}: lost alignment"
        );
        assert_eq!(codec.next_frame().expect("drained"), None);
    }
}

/// The cap binds exactly: a binary payload of exactly `max` bytes decodes,
/// one byte more is an oversized (fatal) error raised from the header alone
/// — before any payload is buffered.
#[test]
fn binary_cap_binds_exactly_at_the_boundary() {
    let frame = BinaryFrame::Ingest {
        stream: "edge".into(),
        batch: vec![ItemSet::from_ids([1u32, 2, 3])],
    };
    let bytes = frame.encode();
    let payload_len = bytes.len() - 6; // magic + op + u32 length prefix
    let mut at_cap = FrameCodec::with_max(payload_len);
    at_cap.extend(&bytes);
    assert_eq!(
        at_cap.next_frame().expect("exactly at the cap is legal"),
        Some(Frame::Binary(frame))
    );
    let mut over_cap = FrameCodec::with_max(payload_len - 1);
    // Header only: the oversized verdict must not wait for payload bytes.
    over_cap.extend(&bytes[..6]);
    match over_cap.next_frame() {
        Err(Error::Parse(msg)) => assert!(msg.contains("oversized"), "{msg}"),
        other => panic!("expected oversized error, got {other:?}"),
    }
}

/// The same cap governs NDJSON: a line that fits (terminator included)
/// parses, while `max + 1` buffered bytes without a newline are oversized —
/// the stream cannot be re-synced past an unbounded line.
#[test]
fn ndjson_cap_binds_exactly_at_the_boundary() {
    let cap = 64;
    let doc = format!("{{\"pad\":\"{}\"}}", "x".repeat(cap - 10));
    assert_eq!(doc.len(), cap);
    let mut codec = FrameCodec::with_max(cap);
    codec.extend(doc.as_bytes());
    assert_eq!(codec.next_frame().expect("still waiting"), None);
    codec.extend(b"\n");
    assert!(matches!(
        codec.next_frame().expect("line at the cap is legal"),
        Some(Frame::Json(_))
    ));

    let mut over = FrameCodec::with_max(cap);
    over.extend(&vec![b'{'; cap + 1]);
    match over.next_frame() {
        Err(Error::Parse(msg)) => assert!(msg.contains("oversized"), "{msg}"),
        other => panic!("expected oversized error, got {other:?}"),
    }

    // The verdict must not depend on transport fragmentation: the same
    // over-cap line delivered complete — newline and all — in a single
    // extend is equally oversized.
    let mut whole = FrameCodec::with_max(cap);
    let long = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(cap));
    whole.extend(long.as_bytes());
    match whole.next_frame() {
        Err(Error::Parse(msg)) => assert!(msg.contains("oversized"), "{msg}"),
        other => panic!("expected oversized error, got {other:?}"),
    }
}
