//! Newline-delimited JSON framing for the workspace's wire protocols.
//!
//! The serve layer (`bfly_serve`) and its clients speak NDJSON: one JSON
//! document per line, `\n`-terminated. This module provides the shared
//! framer so both sides agree on the two properties that matter for a
//! network boundary:
//!
//! * **Bounded memory.** A frame longer than the reader's cap is rejected
//!   with a parse error instead of buffering without limit — a misbehaving
//!   (or adversarial) peer cannot make the server allocate unboundedly.
//! * **Timeout transparency.** When the underlying stream has a read
//!   timeout, a partial line survives the `WouldBlock`/`TimedOut` error and
//!   parsing resumes on the next call, so servers can poll a shutdown flag
//!   between reads without corrupting the frame stream.

use crate::frame::{Frame, FrameCodec};
use crate::{Error, Json, Result};
use std::io::{Read, Write};

/// Default frame cap: far above any release line the publisher emits, far
/// below anything that could pressure memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Incremental frame reader over any [`Read`].
///
/// Decoding is delegated to [`FrameCodec`], so short reads, read timeouts,
/// and frames spanning multiple reads all compose; blank lines are skipped
/// (mirroring the `.dat` reader's tolerance). [`FrameReader::next_frame`]
/// keeps the historical JSON-only contract; [`FrameReader::next_any`] also
/// accepts binary frames (negotiated by first byte — see [`crate::frame`]).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    codec: FrameCodec,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a reader with the default [`MAX_FRAME_BYTES`] cap.
    pub fn new(inner: R) -> Self {
        FrameReader::with_max(inner, MAX_FRAME_BYTES)
    }

    /// Wrap a reader with an explicit frame cap in bytes.
    pub fn with_max(inner: R, max: usize) -> Self {
        FrameReader {
            inner,
            codec: FrameCodec::with_max(max),
        }
    }

    /// Next NDJSON frame: `Ok(Some(json))` per document, `Ok(None)` at clean
    /// EOF. A binary frame on the wire is a recoverable [`Error::Parse`]
    /// (the frame is consumed; the stream stays aligned).
    ///
    /// # Errors
    /// * [`Error::Io`] with kind `WouldBlock`/`TimedOut` when the underlying
    ///   read timed out before a full frame arrived — call again to resume.
    /// * [`Error::Parse`] for malformed JSON (the stream stays framed; the
    ///   caller may keep reading), for an oversized frame (the stream cannot
    ///   be re-synced; close the connection), or for EOF mid-frame.
    pub fn next_frame(&mut self) -> Result<Option<Json>> {
        match self.next_any()? {
            Some(Frame::Json(v)) => Ok(Some(v)),
            Some(Frame::Binary(_)) => Err(Error::Parse(
                "unexpected binary frame on a JSON-only stream".into(),
            )),
            None => Ok(None),
        }
    }

    /// Next frame of either encoding: NDJSON line or binary frame.
    ///
    /// Same error contract as [`FrameReader::next_frame`], minus the
    /// JSON-only restriction.
    pub fn next_any(&mut self) -> Result<Option<Frame>> {
        loop {
            match self.codec.next_frame() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.codec.is_blank() {
                        return Ok(None);
                    }
                    return Err(Error::Parse("eof inside a frame".into()));
                }
                Ok(n) => self.codec.extend(&chunk[..n]),
                Err(e) => return Err(Error::Io(e)),
            }
        }
    }
}

/// Write one NDJSON frame (`{json}\n`). Does not flush — batch frames and
/// flush at a protocol boundary.
pub fn write_frame<W: Write>(writer: &mut W, value: &Json) -> Result<()> {
    writeln!(writer, "{value}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_frames_and_skips_blanks() {
        let input = b"{\"a\":1}\n\n  \n[2,3]\n".to_vec();
        let mut r = FrameReader::new(&input[..]);
        assert_eq!(
            r.next_frame().unwrap().unwrap().get("a").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            r.next_frame().unwrap().unwrap(),
            Json::Arr(vec![Json::from(2u64), Json::from(3u64)])
        );
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn frame_spanning_reads_survives() {
        // A reader that returns one byte at a time forces maximal resumption.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut r = FrameReader::new(OneByte(b"{\"k\":\"vv\"}\n"));
        let v = r.next_frame().unwrap().unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("vv"));
    }

    #[test]
    fn timeout_preserves_partial_line() {
        struct Timing<'a> {
            parts: Vec<&'a [u8]>,
            blocked: bool,
        }
        impl Read for Timing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.blocked {
                    self.blocked = true;
                    return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
                }
                self.blocked = false;
                match self.parts.pop() {
                    Some(p) => {
                        buf[..p.len()].copy_from_slice(p);
                        Ok(p.len())
                    }
                    None => Ok(0),
                }
            }
        }
        let mut r = FrameReader::new(Timing {
            parts: vec![b":2}\n", b"{\"n\""],
            blocked: false,
        });
        let mut timeouts = 0;
        loop {
            match r.next_frame() {
                Ok(Some(v)) => {
                    assert_eq!(v.get("n").unwrap().as_u64(), Some(2));
                    break;
                }
                Ok(None) => panic!("hit eof before the frame completed"),
                Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(timeouts > 0, "the blocking reader never blocked");
    }

    #[test]
    fn oversized_frame_rejected() {
        let big = [b'x'; 64];
        let mut r = FrameReader::with_max(&big[..], 16);
        match r.next_frame() {
            Err(Error::Parse(msg)) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("expected oversized error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_line_keeps_stream_framed() {
        let input = b"{oops\n{\"ok\":true}\n".to_vec();
        let mut r = FrameReader::new(&input[..]);
        assert!(matches!(r.next_frame(), Err(Error::Parse(_))));
        let v = r.next_frame().unwrap().unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let input = b"{\"a\":1".to_vec();
        let mut r = FrameReader::new(&input[..]);
        assert!(matches!(r.next_frame(), Err(Error::Parse(_))));
    }

    #[test]
    fn write_frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj([("x", Json::from(7u64))])).unwrap();
        write_frame(&mut buf, &Json::Bool(false)).unwrap();
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(
            r.next_frame().unwrap().unwrap().get("x").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(r.next_frame().unwrap().unwrap(), Json::Bool(false));
        assert!(r.next_frame().unwrap().is_none());
    }
}
