//! A minimal blocking client for the wire protocol — shared by the
//! integration tests and anything else that talks to a [`crate::Server`]
//! without hand-rolling sockets.

use crate::protocol::{binary_event_json, Request};
use bfly_common::{BinaryFrame, Error, Frame, FrameCodec, FrameMode, Json, Result};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a Butterfly stream server.
pub struct Client {
    stream: TcpStream,
    /// Splits the server's bytes into frames, under the server's own cap.
    codec: FrameCodec,
    frame: FrameMode,
}

impl Client {
    /// Connect to `addr` (anything `ToSocketAddrs` accepts). Requests go
    /// out as NDJSON until [`Client::set_frame`] switches the encoding.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            codec: FrameCodec::new(),
            frame: FrameMode::Json,
        })
    }

    /// Choose the wire encoding for subsequent ingests. Negotiation is per
    /// frame (the server keys off the first byte), so this can change at
    /// any time; control requests stay NDJSON either way.
    pub fn set_frame(&mut self, mode: FrameMode) {
        self.frame = mode;
    }

    /// Send a request without waiting for its reply (pipelining). Callers
    /// owe one [`Client::next_line`] per send. In binary mode, `ingest`
    /// requests ship as binary frames; everything else is one NDJSON line.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn send(&mut self, req: &Request) -> Result<()> {
        if self.frame == FrameMode::Binary {
            if let Request::Ingest { stream, batch } = req {
                let frame = BinaryFrame::Ingest {
                    stream: stream.clone(),
                    batch: batch.clone(),
                };
                self.stream.write_all(&frame.encode())?;
                return Ok(());
            }
        }
        writeln!(self.stream, "{}", req.to_json())?;
        Ok(())
    }

    /// Send one request and block for its reply line.
    ///
    /// # Errors
    /// Socket failures, or [`Error::Parse`] if the server hung up before
    /// replying.
    pub fn request(&mut self, req: &Request) -> Result<Json> {
        self.send(req)?;
        self.next_line()?
            .ok_or_else(|| Error::Parse("server closed before replying".into()))
    }

    /// Block for the next NDJSON line from the server — a pipelined reply
    /// or, on a JSON-mode subscriber connection, an event. `None` means the
    /// server closed the connection. A binary frame on the wire is an
    /// error; subscribers in binary mode read [`Client::next_event`].
    ///
    /// # Errors
    /// Socket failures or a malformed server line.
    pub fn next_line(&mut self) -> Result<Option<Json>> {
        match self.next_frame()? {
            Some(Frame::Json(v)) => Ok(Some(v)),
            Some(Frame::Binary(_)) => Err(Error::Parse(
                "unexpected binary frame on a JSON-only stream".into(),
            )),
            None => Ok(None),
        }
    }

    /// Block for the next frame of either encoding, surfaced as the event's
    /// JSON document — binary `release`/`release_delta` frames convert to
    /// the identical shape NDJSON subscribers see, so one consumer handles
    /// both negotiated modes. `None` means the server closed the
    /// connection.
    ///
    /// # Errors
    /// Socket failures, a malformed frame, or a binary frame that is not an
    /// event (the server never sends binary requests).
    pub fn next_event(&mut self) -> Result<Option<Json>> {
        match self.next_frame()? {
            None => Ok(None),
            Some(Frame::Json(v)) => Ok(Some(v)),
            Some(Frame::Binary(b)) => binary_event_json(&b)
                .map(Some)
                .ok_or_else(|| Error::Parse("unexpected binary request frame from server".into())),
        }
    }

    /// The next frame, reading until one is whole; blank lines are skipped.
    /// `None` at a clean close: EOF with nothing but whitespace buffered.
    ///
    /// # Errors
    /// Socket failures, a malformed or oversized frame, or
    /// [`Error::Parse`] for EOF inside a frame.
    fn next_frame(&mut self) -> Result<Option<Frame>> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.codec.next_frame()? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut chunk)? {
                0 if self.codec.is_blank() => return Ok(None),
                0 => return Err(Error::Parse("eof inside a frame".into())),
                n => self.codec.extend(&chunk[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::thread;

    /// A one-connection peer on localhost: reads `lines` request lines,
    /// answers with `reply` and hangs up. Joining yields what it read.
    fn peer(
        lines: usize,
        reply: &'static [u8],
    ) -> (std::net::SocketAddr, thread::JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut read = String::new();
            for _ in 0..lines {
                reader.read_line(&mut read).expect("read");
            }
            conn.write_all(reply).expect("write");
            read
        });
        (addr, handle)
    }

    #[test]
    fn requests_go_out_as_lines_and_replies_skip_blank_lines() {
        let (addr, peer) = peer(2, b"{\"a\":1}\n\n  \n[2,3]\n");
        let mut client = Client::connect(addr).expect("connect");
        client.send(&Request::Ping).unwrap();
        client.send(&Request::Stats).unwrap();
        let line = client.next_line().unwrap().unwrap();
        assert_eq!(line.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            client.next_line().unwrap(),
            Some(Json::Arr(vec![Json::from(2u64), Json::from(3u64)]))
        );
        assert_eq!(client.next_line().unwrap(), None, "a clean close");
        let sent = format!(
            "{}\n{}\n",
            Request::Ping.to_json(),
            Request::Stats.to_json()
        );
        assert_eq!(peer.join().unwrap(), sent);
    }

    #[test]
    fn eof_inside_a_frame_is_a_parse_error() {
        let (addr, peer) = peer(1, b"{\"a\":1");
        let mut client = Client::connect(addr).expect("connect");
        match client.request(&Request::Ping) {
            Err(Error::Parse(msg)) => assert!(msg.contains("eof inside a frame"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
        peer.join().unwrap();
    }
}
