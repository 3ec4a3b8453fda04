//! A minimal blocking client for the wire protocol — shared by the
//! integration tests and anything else that talks to a [`crate::Server`]
//! without hand-rolling sockets.

use crate::protocol::{binary_event_json, Request};
use bfly_common::{BinaryFrame, Error, Frame, FrameMode, FrameReader, Json, Result};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a Butterfly stream server.
pub struct Client {
    frames: FrameReader<TcpStream>,
    writer: TcpStream,
    frame: FrameMode,
}

impl Client {
    /// Connect to `addr` (anything `ToSocketAddrs` accepts). Requests go
    /// out as NDJSON until [`Client::set_frame`] switches the encoding.
    ///
    /// # Errors
    /// Propagates connect/clone failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            frames: FrameReader::new(stream),
            writer,
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
    /// requests ship as binary frames; everything else is NDJSON.
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
                self.writer.write_all(&frame.encode())?;
                return Ok(());
            }
        }
        bfly_common::ndjson::write_frame(&mut self.writer, &req.to_json())?;
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
        self.frames.next_frame()
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
        match self.frames.next_any()? {
            None => Ok(None),
            Some(Frame::Json(v)) => Ok(Some(v)),
            Some(Frame::Binary(b)) => binary_event_json(&b)
                .map(Some)
                .ok_or_else(|| Error::Parse("unexpected binary request frame from server".into())),
        }
    }
}
