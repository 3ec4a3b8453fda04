//! The TCP server: accept/readiness plumbing, request dispatch, shard
//! wiring, and graceful shutdown.
//!
//! Two io modes share one protocol brain (`dispatch_frame`):
//!
//! * **Reactor** (default where supported): one thread owns accept and
//!   every connection through a nonblocking readiness loop — see
//!   `reactor.rs`. Replies append to per-connection write buffers;
//!   subscriber fan-out arrives through the reactor mailbox.
//! * **Blocking** (legacy, and the fallback elsewhere): one accept thread,
//!   and per connection a reader (handler) plus a writer (pump). The pump
//!   is the only thread writing to a connection, so frames never interleave
//!   mid-frame; it drains a bounded queue, which is what lets shard workers
//!   fan out releases without ever blocking on a slow client.
//!
//! Shutdown (the `shutdown` verb or [`Server::shutdown`]) runs the drain
//! protocol in either mode:
//!
//! 1. the shutdown flag flips and the shard ingress senders are dropped —
//!    new ingests get a `shutting-down` reply; the listener stops accepting;
//! 2. each shard worker consumes its already-accepted queue, flushes every
//!    pipeline whose full window still owes a release, publishes those, and
//!    sends each of its streams' subscribers a `closed` event — delivered by
//!    the pump or the reactor loop independently of [`Server::join`], so a
//!    subscriber that itself issued `shutdown` still receives its drain
//!    events;
//! 3. connections close: blocking handlers notice the flag at their poll
//!    tick (subscribers only once the drain has closed their streams); the
//!    reactor flushes every write buffer after the final
//!    `reactor::Mail::Finalize`;
//! 4. [`Server::join`] reaps every thread. No buffer anywhere is unbounded
//!    at any point in this sequence.

use crate::config::{IoMode, ServeConfig, ServeRole};
use crate::fanout::{json_line, OutBytes, SubscriberRegistry, SubscriberSink};
use crate::node::NodeCore;
use crate::protocol::{error_reply, Request};
use crate::reactor;
use crate::router::RouterCore;
use crate::stats::ReactorStats;
use bfly_common::{BinaryFrame, Error, Frame, FrameReader, Json, Result};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked connection reads wake to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// Writes slower than this mean a dead peer; the pump gives up rather than
/// wedging shutdown.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// What this process *is*: the stream-owning core of a mining node, or the
/// forwarding core of a router. Everything else in [`Shared`] — listener,
/// connection plumbing, framing, shutdown — is role-agnostic; the io loops
/// and [`dispatch_frame`] are generic over "what owns a stream" through
/// this enum.
pub(crate) enum RoleCore {
    Node(NodeCore),
    Router(RouterCore),
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
    /// The role-specific half: shard workers + WAL on a node, forwarding
    /// links + relays on a router.
    pub(crate) role: RoleCore,
    pub(crate) registry: Arc<SubscriberRegistry>,
    pub(crate) conn_seq: AtomicU64,
    pub(crate) conns: Mutex<Vec<JoinHandle<()>>>,
    /// Reactor telemetry (zeros in blocking mode).
    pub(crate) reactor: Arc<ReactorStats>,
    /// When this process bound the listener. Feeds `uptime_ms` from a
    /// *monotonic* clock ([`Instant`], never wall time — a clock step must
    /// not fake a restart), which is how the crash-recovery tests tell a
    /// restart from the original.
    pub(crate) started: Instant,
}

impl Shared {
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        match &self.role {
            RoleCore::Node(node) => node.on_shutdown(),
            RoleCore::Router(router) => router.on_shutdown(),
        }
        // Wake whichever io loop is blocked on the listener so it observes
        // the flag (the reactor also polls it on its wait tick).
        let _ = TcpStream::connect(self.addr);
    }

    pub(crate) fn stats_json(&self) -> Json {
        let draining = self.shutdown.load(Ordering::SeqCst);
        let uptime_ms = self.started.elapsed().as_millis() as u64;
        match &self.role {
            RoleCore::Node(node) => {
                let mut fields = vec![
                    ("ok", Json::Bool(true)),
                    ("role", Json::from(ServeRole::Node.name())),
                    ("subscribers", Json::from(self.registry.len() as u64)),
                    ("draining", Json::Bool(draining)),
                    ("io", Json::from(self.cfg.io.name())),
                    ("uptime_ms", Json::from(uptime_ms)),
                ];
                fields.extend(node.stats_fields(&self.cfg));
                if self.cfg.io == IoMode::Reactor {
                    fields.push(("reactor", self.reactor.to_json()));
                }
                Json::obj(fields)
            }
            RoleCore::Router(router) => router.stats_json(
                draining,
                self.cfg.io.name(),
                uptime_ms,
                self.registry.len() as u64,
            ),
        }
    }
}

/// The io-mode-specific runtime half of a [`Server`].
enum IoRuntime {
    Blocking { accept: Option<JoinHandle<()>> },
    Reactor { runtime: Option<reactor::Runtime> },
}

/// A running Butterfly stream service.
pub struct Server {
    shared: Arc<Shared>,
    io: IoRuntime,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawn the
    /// shard workers and the configured io loop, and return immediately.
    ///
    /// # Errors
    /// [`Error::Parse`] for an invalid config, [`Error::Io`] for bind
    /// failures.
    pub fn bind(addr: &str, cfg: ServeConfig) -> Result<Server> {
        cfg.validate()
            .map_err(|e| Error::Parse(format!("config: {e}")))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(SubscriberRegistry::new());
        // The role core is the only part of startup that differs: a node
        // recovers its WAL and spawns shard workers, a router builds its
        // cluster map and node links (and owns no worker threads at all).
        let (role, workers) = match cfg.role {
            ServeRole::Node => {
                let (core, workers) = NodeCore::start(&cfg, &registry)?;
                (RoleCore::Node(core), workers)
            }
            ServeRole::Router => (RoleCore::Router(RouterCore::new(&cfg)), Vec::new()),
        };
        let shared = Arc::new(Shared {
            cfg,
            addr,
            shutdown: AtomicBool::new(false),
            role,
            registry,
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            reactor: Arc::new(ReactorStats::default()),
            started: Instant::now(),
        });
        let io = match shared.cfg.io {
            IoMode::Blocking => {
                let accept_shared = shared.clone();
                let accept = std::thread::Builder::new()
                    .name("bfly-accept".into())
                    .spawn(move || accept_loop(listener, accept_shared))
                    .expect("spawn accept loop");
                IoRuntime::Blocking {
                    accept: Some(accept),
                }
            }
            IoMode::Reactor => IoRuntime::Reactor {
                runtime: Some(reactor::spawn(listener, shared.clone())?),
            },
        };
        Ok(Server {
            shared,
            io,
            workers,
        })
    }

    /// The bound address (read the ephemeral port back from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin graceful shutdown (idempotent; also reachable via the
    /// `shutdown` protocol verb).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Wait for shutdown to be triggered — by a client's `shutdown` verb or
    /// another thread calling [`Server::shutdown`] — then drain and reap
    /// every thread. This is the CLI `serve` main loop.
    pub fn run_until_shutdown(self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Reap every thread after shutdown. Triggers shutdown itself if no one
    /// has yet, so `server.join()` alone is a valid full stop.
    pub fn join(mut self) {
        self.shared.trigger_shutdown();
        if let IoRuntime::Blocking { accept } = &mut self.io {
            if let Some(accept) = accept.take() {
                let _ = accept.join();
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // A router's subscription relays are its "workers": after a
        // forwarded shutdown they drain each node's final events through to
        // subscribers, then see EOF and exit.
        if let RoleCore::Router(router) = &self.shared.role {
            router.join_relays();
        }
        // Workers closed the streams they owned; drop whatever subscribers
        // remain (streams that never ingested a record).
        self.shared.registry.clear();
        match &mut self.io {
            IoRuntime::Blocking { .. } => {
                let conns: Vec<JoinHandle<()>> =
                    std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
                for c in conns {
                    let _ = c.join();
                }
            }
            IoRuntime::Reactor { runtime } => {
                // Every drain publication was mailed before this point
                // (workers are joined); Finalize rides behind them in FIFO
                // order, so the reactor flushes everything, then exits.
                if let Some(rt) = runtime.take() {
                    rt.shared.push(reactor::Mail::Finalize);
                    let _ = rt.thread.join();
                }
            }
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are small and the pump writes them one at a time: with
        // Nagle on, a pipelining client's second reply waits out the
        // peer's delayed ACK of the first.
        let _ = stream.set_nodelay(true);
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let shared_conn = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bfly-conn-{conn_id}"))
            .spawn(move || handle_conn(conn_id, stream, shared_conn))
            .expect("spawn connection handler");
        shared.conns.lock().expect("conns poisoned").push(handle);
    }
}

/// Serialize a reply and enqueue it on the connection's outbound queue,
/// blocking if the pump is behind (per-request backpressure). `Err` means
/// the pump died — the connection is gone.
fn send_line(out: &SyncSender<OutBytes>, value: Json) -> std::result::Result<(), ()> {
    out.send(json_line(&value)).map_err(|_| ())
}

fn handle_conn(conn_id: u64, stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
    let (out_tx, out_rx) = sync_channel::<OutBytes>(shared.cfg.out_queue_cap);
    let pump = std::thread::Builder::new()
        .name(format!("bfly-pump-{conn_id}"))
        .spawn(move || writer_pump(out_rx, write_half))
        .expect("spawn writer pump");

    let mut frames = FrameReader::with_max(stream, shared.cfg.max_frame_bytes);
    loop {
        // During shutdown a plain connection exits at the next poll tick,
        // but a subscriber must stay until the drain closes its streams
        // (the flush releases and `closed` events ride its pump queue).
        if shared.shutdown.load(Ordering::SeqCst) && !shared.registry.has_conn(conn_id) {
            break;
        }
        match frames.next_any() {
            Ok(Some(frame)) => {
                let ok = dispatch_frame(
                    conn_id,
                    frame,
                    &shared,
                    &mut |bytes| out_tx.send(bytes).is_ok(),
                    &mut || SubscriberSink::Channel(out_tx.clone()),
                );
                if !ok {
                    break;
                }
            }
            Ok(None) => break, // clean EOF
            Err(Error::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll tick; partial frame state is preserved
            }
            Err(Error::Io(_)) => break,
            Err(Error::Parse(msg)) => {
                // A malformed frame is recoverable (the framer stays
                // aligned); an oversized one is not — the tail of the huge
                // frame would parse as garbage frames.
                let fatal = msg.contains("oversized");
                if send_line(&out_tx, error_reply(&msg)).is_err() || fatal {
                    break;
                }
            }
            Err(e) => {
                let _ = send_line(&out_tx, error_reply(&e.to_string()));
                break;
            }
        }
    }
    shared.registry.unsubscribe_conn(conn_id);
    drop(out_tx);
    let _ = pump.join();
}

/// Handle one decoded frame of either encoding. `reply` emits one reply
/// frame and reports whether the connection can still be written; `false`
/// from `dispatch_frame` ends the connection. `make_sink` builds this
/// connection's subscriber sink on demand (a pump queue clone in blocking
/// mode, an [`crate::reactor::EventSink`] in reactor mode) — the one seam
/// where the io modes differ.
pub(crate) fn dispatch_frame(
    conn_id: u64,
    frame: Frame,
    shared: &Shared,
    reply: &mut dyn FnMut(OutBytes) -> bool,
    make_sink: &mut dyn FnMut() -> SubscriberSink,
) -> bool {
    let mut send = |value: Json| reply(json_line(&value));
    let request = match frame {
        Frame::Json(v) => match Request::from_json(&v) {
            Ok(r) => r,
            Err(e) => return send(error_reply(&e.to_string())),
        },
        // Binary ingest is the one client→server binary frame; it joins the
        // JSON path here, so everything downstream is encoding-agnostic.
        Frame::Binary(BinaryFrame::Ingest { stream, batch }) => Request::Ingest { stream, batch },
        Frame::Binary(_) => {
            // Release frames flow server→subscriber only; a client sending
            // one is confused, not fatal (the codec stays aligned).
            return send(error_reply("unexpected event frame from a client"));
        }
    };
    match request {
        Request::Ping => send(Json::obj([
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
        ])),
        Request::Stats => send(shared.stats_json()),
        Request::Subscribe {
            stream,
            frame,
            from,
        } => {
            let node = match &shared.role {
                RoleCore::Node(node) => node,
                RoleCore::Router(router) => {
                    return router.subscribe(
                        conn_id,
                        &shared.registry,
                        stream,
                        frame,
                        from,
                        reply,
                        make_sink,
                    );
                }
            };
            let Some(wal_dir) = shared.cfg.wal.as_ref().map(|w| w.dir.clone()) else {
                if from.is_some() {
                    return send(error_reply(
                        "catch-up subscribe requires a write-ahead log (start with --wal-dir)",
                    ));
                }
                shared
                    .registry
                    .subscribe(&stream, conn_id, frame, make_sink());
                return send(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("stream", Json::from(stream.as_str())),
                ]));
            };
            // Register live *before* scanning the log so no release falls in
            // the gap between them. A release published during the scan can
            // then arrive both live and in the catch-up tail; positions only
            // move forward, so [`crate::protocol::SubscriberState`] skips the
            // stale copy.
            shared
                .registry
                .subscribe(&stream, conn_id, frame, make_sink());
            let ok = send(Json::obj([
                ("ok", Json::Bool(true)),
                ("stream", Json::from(stream.as_str())),
            ]));
            if !ok {
                return false;
            }
            match from {
                Some(from) => node.catchup(&wal_dir, &stream, frame, from.min_len(), reply),
                None => true,
            }
        }
        Request::Bind { stream, defense } => match &shared.role {
            RoleCore::Node(node) => send(node.bind(&stream, defense)),
            RoleCore::Router(router) => reply(router.bind(stream, defense)),
        },
        Request::Ingest { stream, batch } => match &shared.role {
            RoleCore::Node(node) => send(node.ingest(&shared.cfg, &stream, batch)),
            RoleCore::Router(router) => reply(router.ingest(stream, batch)),
        },
        Request::Shutdown => {
            let sent = send(Json::obj([
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ]));
            // A router propagates the drain to its nodes *before* stopping
            // itself, so its subscription relays (already in drain mode)
            // ride every node's final releases and `closed` events through
            // to subscribers before exiting at upstream EOF.
            if let RoleCore::Router(router) = &shared.role {
                router.shutdown_nodes();
            }
            shared.trigger_shutdown();
            // Keep the connection alive: in blocking mode the handler's loop
            // condition closes a plain connection at the next poll tick but
            // lets a subscriber linger until the drain has closed its
            // streams; the reactor keeps every connection until Finalize —
            // issuing `shutdown` must not cut off your own events.
            sent
        }
    }
}

/// The single writer for one connection (blocking mode): drains the
/// outbound queue into the socket, flushing at queue boundaries so
/// pipelined frames coalesce.
fn writer_pump(rx: Receiver<OutBytes>, stream: TcpStream) {
    let mut w = BufWriter::new(stream);
    'outer: while let Ok(bytes) = rx.recv() {
        if w.write_all(&bytes).is_err() {
            break;
        }
        while let Ok(more) = rx.try_recv() {
            if w.write_all(&more).is_err() {
                break 'outer;
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
}
