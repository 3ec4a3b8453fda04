//! Property tests for the mixed NDJSON/binary `FrameCodec`: seeded-random
//! frames must round-trip byte-exactly through arbitrary chunking, every
//! truncation must wait (never panic, never mis-frame), garbage must not
//! break stream alignment, the frame cap must bind exactly at its boundary
//! for both encodings, and the ingest parser must survive hostile payloads.
//! A server's NDJSON ingest decoder must answer every line exactly as the
//! tree parse and `Request::from_json` it replaced.

use butterfly_repro::common::hash::Fnv1a;
use butterfly_repro::common::rng::{Rng, SmallRng};
use butterfly_repro::common::{
    BinaryEntry, BinaryFrame, Error, Frame, FrameCodec, Inbound, IngestChunk, ItemSet, Json,
};
use butterfly_repro::serve::protocol::error_reply;
use butterfly_repro::serve::Request;

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

/// The ingest payload layout decoded from its definition alone (key,
/// count, then `len:u16, len × id:u32` per transaction, nothing after),
/// each transaction made an itemset by [`ItemSet::from_ids`]; `None` for
/// anything malformed.
fn reference_ingest(payload: &[u8]) -> Option<(String, Vec<ItemSet>)> {
    let mut rest = payload;
    let mut take = |n: usize| -> Option<&[u8]> {
        let (head, tail) = rest.split_at_checked(n)?;
        rest = tail;
        Some(head)
    };
    let key_len = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
    let key = String::from_utf8(take(key_len)?.to_vec()).ok()?;
    let count = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let mut batch = Vec::new();
    for _ in 0..count {
        let n = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
        let ids = take(4 * n)?
            .chunks(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
        batch.push(ItemSet::from_ids(ids));
    }
    rest.is_empty().then_some((key, batch))
}

/// A random ingest payload as a careless client writes it: ids in any
/// order, repeated, over a small alphabet; some transactions empty.
fn messy_ingest_payload(rng: &mut SmallRng) -> Vec<u8> {
    let key = random_key(rng);
    let mut p = Vec::new();
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(key.as_bytes());
    let count = rng.gen_range_usize(7);
    p.extend_from_slice(&(count as u32).to_le_bytes());
    for _ in 0..count {
        let n = rng.gen_range_usize(9);
        p.extend_from_slice(&(n as u16).to_le_bytes());
        for _ in 0..n {
            p.extend_from_slice(&(rng.gen_range_usize(6) as u32).to_le_bytes());
        }
    }
    p
}

/// Decode `payload` with the one ingest parser and hold it to the
/// reference: the same verdict, and on success the same transactions,
/// which `BinaryFrame::decode_payload` must also report.
fn check_ingest_parse(payload: &[u8], op: u8, what: &str) {
    let mut chunk = IngestChunk::new();
    let decoded = chunk.decode(payload);
    let frame = BinaryFrame::decode_payload(op, payload);
    match (decoded, reference_ingest(payload)) {
        (Ok(stream), Some((key, batch))) => {
            assert_eq!(stream, key, "{what}");
            assert_eq!(chunk.to_itemsets(), batch, "{what}");
            assert_eq!(
                frame.expect("decode_payload agrees"),
                BinaryFrame::Ingest { stream, batch },
                "{what}"
            );
        }
        (Err(Error::Parse(_)), None) => assert!(frame.is_err(), "{what}"),
        (got, want) => panic!("{what}: parser {got:?}, reference {want:?}"),
    }
}

/// ROADMAP item 2(c)'s ingest fuzzer: 256 seeded payloads with unsorted,
/// repeated and empty transactions, each cut at every prefix and hit by
/// random byte flips. The parser never panics, refuses exactly what the
/// reference refuses, and otherwise yields the reference's canonical
/// transactions.
#[test]
fn ingest_parser_matches_a_reference_decode_on_hostile_payloads() {
    let (op, _) = BinaryFrame::Ingest {
        stream: "k".into(),
        batch: Vec::new(),
    }
    .encode_payload();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x1a6e_57f0 ^ seed);
        let payload = messy_ingest_payload(&mut rng);
        for cut in 0..=payload.len() {
            check_ingest_parse(&payload[..cut], op, &format!("seed {seed} cut {cut}"));
        }
        for flip in 0..32 {
            let mut bytes = payload.clone();
            for _ in 0..1 + rng.gen_range_usize(3) {
                let at = rng.gen_range_usize(bytes.len());
                bytes[at] ^= 1 << rng.gen_range_usize(8);
            }
            check_ingest_parse(&bytes, op, &format!("seed {seed} flip {flip}"));
        }
    }
}

/// Digests of every verdict's bytes over the two corpora below, as the
/// tree parse and `Request::from_json` of a build before the NDJSON ingest
/// decoder gave them: the decoder and the field rules it shares with
/// `from_json` answer every line as that build did.
const HOSTILE_DIGEST: u64 = 0xc2a2_12c8_e8a9_1632;
const EDGE_DIGEST: u64 = 0xe2e9_c1b5_e5e1_3fae;

/// What a server makes of one frame: the reply line it answers with
/// without reaching a shard, the ingest it hands to one, the request it
/// dispatches, or the event frame it refuses.
#[derive(Debug, PartialEq)]
enum Verdict {
    Reply(String),
    Ingest(String, IngestChunk),
    Request(Request),
    Event(BinaryFrame),
}

fn refused(msg: &str) -> Verdict {
    Verdict::Reply(error_reply(msg).to_string())
}

fn request(v: &Json) -> Verdict {
    match Request::from_json(v) {
        Ok(Request::Ingest { stream, batch }) => {
            Verdict::Ingest(stream, IngestChunk::from_itemsets(&batch))
        }
        Ok(other) => Verdict::Request(other),
        Err(e) => refused(&e.to_string()),
    }
}

/// Every frame in `wire` as a server took it before the NDJSON ingest
/// decoder: `next_frame`, then `Request::from_json` on a JSON line, and an
/// ingest's batch made a chunk by `IngestChunk::from_itemsets`.
fn tree_verdicts(wire: &[u8]) -> Vec<Verdict> {
    let mut codec = FrameCodec::new();
    codec.extend(wire);
    let mut out = Vec::new();
    loop {
        out.push(match codec.next_frame() {
            Ok(None) => return out,
            Ok(Some(Frame::Json(v))) => request(&v),
            Ok(Some(Frame::Binary(BinaryFrame::Ingest { stream, batch }))) => {
                Verdict::Ingest(stream, IngestChunk::from_itemsets(&batch))
            }
            Ok(Some(Frame::Binary(frame))) => Verdict::Event(frame),
            Err(Error::Parse(msg)) if msg.contains("oversized") => return out,
            Err(Error::Parse(msg)) => refused(&msg),
            Err(e) => panic!("a codec error other than a parse error: {e}"),
        });
    }
}

/// The same frames through `next_inbound`, as the reactor takes them.
fn inbound_verdicts(wire: &[u8]) -> Vec<Verdict> {
    let mut codec = FrameCodec::new();
    codec.extend(wire);
    let mut out = Vec::new();
    loop {
        out.push(match codec.next_inbound() {
            Ok(None) => return out,
            Ok(Some(Inbound::Ingest { stream, chunk })) => Verdict::Ingest(stream, chunk),
            Ok(Some(Inbound::Refused(refusal))) => refused(&Error::from(refusal).to_string()),
            Ok(Some(Inbound::Frame(Frame::Json(v)))) => {
                let verdict = request(&v);
                assert!(
                    !matches!(verdict, Verdict::Ingest(..)),
                    "an ingest line came through as a JSON frame: {v}"
                );
                verdict
            }
            Ok(Some(Inbound::Frame(Frame::Binary(frame)))) => Verdict::Event(frame),
            Err(Error::Parse(msg)) if msg.contains("oversized") => return out,
            Err(Error::Parse(msg)) => refused(&msg),
            Err(e) => panic!("a codec error other than a parse error: {e}"),
        });
    }
}

/// Hold `next_inbound` to the tree parse on `wire`, and feed the verdicts'
/// bytes — each reply line, ingest frame and request line — to `digest`.
fn check_line(digest: &mut Fnv1a, wire: &[u8], what: &str) {
    let want = tree_verdicts(wire);
    let got = inbound_verdicts(wire);
    assert_eq!(got, want, "{what}: {:?}", String::from_utf8_lossy(wire));
    for verdict in want {
        let (tag, bytes) = match verdict {
            Verdict::Reply(line) => ("R", line.into_bytes()),
            Verdict::Ingest(stream, chunk) => ("I", chunk.encode(&stream)),
            Verdict::Request(req) => ("Q", req.to_json().to_string().into_bytes()),
            Verdict::Event(frame) => ("B", frame.encode()),
        };
        digest.write(tag.as_bytes());
        digest.write(&bytes);
    }
}

/// One field's value as text: mostly what a writer produces, sometimes a
/// spelling or a shape only a careless or hostile client would send.
fn random_value(rng: &mut SmallRng, key: &str) -> String {
    const IDS: &[&str] = &[
        "0",
        "7",
        "42",
        "1.0",
        "1e2",
        "-0",
        "1.5",
        "-1",
        "4294967295",
        "4294967296",
        "1E0",
        "0.5e1",
        "007",
        "2.50e1",
        "1e999",
        "\"3\"",
        "null",
        "[1]",
        "true",
    ];
    let tx = |rng: &mut SmallRng| {
        let ids: Vec<String> = (0..rng.gen_range_usize(6))
            .map(|_| {
                if rng.gen_bool(0.85) {
                    rng.gen_range_usize(40).to_string()
                } else {
                    IDS[rng.gen_range_usize(IDS.len())].to_string()
                }
            })
            .collect();
        format!(
            "[{}]",
            ids.join(if rng.gen_bool(0.8) { "," } else { " , " })
        )
    };
    match (key, rng.gen_range_usize(12)) {
        ("op", 0) => "\"stats\"".into(),
        ("op", 1) => "\"\\u0069ngest\"".into(),
        ("op", 2) => "7".into(),
        ("op", _) => "\"ingest\"".into(),
        ("stream", 0) => "\"\"".into(),
        ("stream", 1) => "5".into(),
        ("stream", 2) => "\"k\\u00e9\\n\"".into(),
        ("stream", _) => Json::from(random_key(rng).as_str()).to_string(),
        ("items", 0) => "null".into(),
        ("items", 1) => "\"1,2\"".into(),
        ("items", _) | ("batch", 0) => tx(rng),
        ("batch", 1) => "{\"a\":[1]}".into(),
        ("batch", 2) => format!("[{},7,{}]", tx(rng), tx(rng)),
        ("batch", 3) => format!("[{},[[1],2]]", tx(rng)),
        ("batch", _) => {
            let txs: Vec<String> = (0..rng.gen_range_usize(5)).map(|_| tx(rng)).collect();
            format!("[{}]", txs.join(","))
        }
        (_, n) => {
            let depth = [1, 127, 128, 129][n % 4];
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        }
    }
}

/// A random ingest-shaped line: its fields in any order, some repeated,
/// some keys spelled with escapes, whitespace here and there.
fn random_ingest_line(rng: &mut SmallRng) -> String {
    const KEYS: &[&str] = &["op", "stream", "batch", "items", "x"];
    let mut fields: Vec<(&str, String)> = Vec::new();
    for &key in KEYS {
        let copies = match key {
            "op" | "stream" | "batch" => [1, 1, 1, 1, 0, 2][rng.gen_range_usize(6)],
            _ => [0, 0, 0, 1, 2][rng.gen_range_usize(5)],
        };
        for _ in 0..copies {
            fields.push((key, random_value(rng, key)));
        }
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.gen_range_usize(i + 1));
    }
    let ws = |rng: &mut SmallRng| if rng.gen_bool(0.1) { " \t" } else { "" };
    let members: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let key = if *key == "batch" && rng.gen_bool(0.1) {
                "b\\u0061tch"
            } else {
                key
            };
            format!("{}\"{key}\"{}:{}{value}", ws(rng), ws(rng), ws(rng))
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// ROADMAP item 2(c)'s NDJSON ingest fuzzer: 300 seeded lines — writer output
/// and hand-spelled fields, keys permuted and repeated, `items` beside
/// `batch`, odd id spellings, deep unknown fields, non-ingest ops carrying a
/// `batch` — each cut at every prefix and hit by bit flips, byte inserts and
/// spliced tokens. `next_inbound` never panics and gives every line the
/// chunk or the reply bytes the tree parse gives it.
#[test]
fn ndjson_ingest_decoder_matches_the_tree_parse_on_hostile_lines() {
    const TOKENS: &[&str] = &[
        "[",
        "]",
        "{",
        "}",
        ",",
        ":",
        "\"",
        "\\",
        "-",
        ".",
        "e",
        "0",
        "null",
        "\"op\":\"ingest\",",
        "\"items\":[1],",
        "\"batch\":",
        "\\u",
    ];
    let mut digest = Fnv1a::new();
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(0x1d_7e57 ^ seed);
        let line = if seed % 4 == 0 {
            let batch = (0..rng.gen_range_usize(4))
                .map(|_| ItemSet::from_ids(random_ids(&mut rng)))
                .collect();
            let req = Request::Ingest {
                stream: random_key(&mut rng),
                batch,
            };
            req.to_json().to_string()
        } else {
            random_ingest_line(&mut rng)
        };
        let bytes = format!("{line}\n").into_bytes();
        check_line(&mut digest, &bytes, &format!("seed {seed}"));
        for cut in 0..bytes.len() {
            let mut cut_line = bytes[..cut].to_vec();
            cut_line.push(b'\n');
            check_line(&mut digest, &cut_line, &format!("seed {seed} cut {cut}"));
        }
        for round in 0..48 {
            let mut mutated = bytes[..bytes.len() - 1].to_vec();
            let at = rng.gen_range_usize(mutated.len() + 1);
            match round % 3 {
                0 if !mutated.is_empty() => {
                    let at = at.min(mutated.len() - 1);
                    mutated[at] ^= 1 << rng.gen_range_usize(8);
                }
                1 => mutated.insert(at, rng.next_u64() as u8),
                _ => {
                    let token = TOKENS[rng.gen_range_usize(TOKENS.len())];
                    mutated.splice(at..at, token.bytes());
                }
            }
            mutated.push(b'\n');
            check_line(&mut digest, &mutated, &format!("seed {seed} round {round}"));
        }
    }
    assert_eq!(digest.finish(), HOSTILE_DIGEST, "the replies moved");
}

/// The edges the random lines reach rarely or never: the `u16` bounds on
/// either side, a transaction's width counted before deduplication, the
/// last duplicate key winning, `items` beating an invalid `batch`, and the
/// nesting bound inside an unknown field.
#[test]
fn ndjson_ingest_decoder_matches_the_tree_parse_at_the_edges() {
    let ids = |n: usize, id: &str| vec![id; n].join(",");
    let long_key = |n: usize| "k".repeat(n);
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let lines = [
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"k\",\"items\":[{}]}}",
            ids(65_535, "3")
        ),
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"k\",\"items\":[{}]}}",
            ids(65_536, "3")
        ),
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1],[{}]]}}",
            ids(65_536, "-1")
        ),
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"{}\",\"batch\":[[1]]}}",
            long_key(65_535)
        ),
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"{}\",\"batch\":[[1]]}}",
            long_key(65_536)
        ),
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]],\"x\":{}}}",
            nest(127)
        ),
        format!(
            "{{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]],\"x\":{}}}",
            nest(128)
        ),
        format!(
            "{{\"batch\":[[1,{}]],\"op\":\"ingest\",\"stream\":\"k\"}}",
            nest(126)
        ),
        format!(
            "{{\"batch\":[[1,{}]],\"op\":\"ingest\",\"stream\":\"k\"}}",
            nest(127)
        ),
        "{\"batch\":[[2,1,2]],\"op\":\"ingest\",\"stream\":\"k\"}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]],\"batch\":[[2],[3]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]],\"batch\":7}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]],\"items\":[5,4]}".into(),
        "{\"items\":[5],\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]],\"items\":[6]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[\"x\"],\"items\":[9]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"items\":7,\"batch\":[[1]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"\",\"batch\":[7]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"stream\":\"\",\"batch\":[[1]]}".into(),
        "{\"op\":\"stats\",\"batch\":[[1]]}".into(),
        "{\"op\":\"ingest\",\"op\":\"ping\",\"batch\":[[1]],\"stream\":\"k\"}".into(),
        "{\"op\":\"ping\",\"op\":\"ingest\",\"batch\":[[1]],\"stream\":\"k\"}".into(),
        "{\"op\":\"subscribe\",\"stream\":\"k\",\"batch\":[[1,-1]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1.0,1e2,-0,2E0]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1.5]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[4294967296]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[4294967295,0]]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[[1]]} x".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\",\"batch\":[]}".into(),
        "{\"op\":\"ingest\",\"stream\":\"k\"}".into(),
        "{\"op\":\"ingest\"}".into(),
        "{}".into(),
        "[1]".into(),
    ];
    let mut digest = Fnv1a::new();
    for (i, line) in lines.iter().enumerate() {
        check_line(
            &mut digest,
            format!("{line}\n").as_bytes(),
            &format!("edge {i}"),
        );
    }
    assert_eq!(digest.finish(), EDGE_DIGEST, "the replies moved");
}

/// `next_frame` — what `bfly_serve::Client` and the serve benchmark read
/// with — still yields an NDJSON ingest as its JSON document; only
/// `next_inbound` decodes it into a chunk.
#[test]
fn next_frame_still_yields_an_ndjson_ingest_as_json() {
    let line = "{\"batch\":[[3,1],[2]],\"op\":\"ingest\",\"stream\":\"k\"}\n";
    let mut codec = FrameCodec::new();
    codec.extend(line.as_bytes());
    assert_eq!(
        codec.next_frame().unwrap(),
        Some(Frame::Json(Json::parse(line.trim()).unwrap()))
    );
    codec.extend(line.as_bytes());
    let Some(Inbound::Ingest { stream, chunk }) = codec.next_inbound().unwrap() else {
        panic!("an NDJSON ingest line must decode to its chunk");
    };
    assert_eq!(stream, "k");
    assert_eq!(
        chunk.to_itemsets(),
        [ItemSet::from_ids([1u32, 3]), ItemSet::from_ids([2u32])]
    );
}
