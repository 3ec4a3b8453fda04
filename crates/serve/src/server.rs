//! The TCP server: request dispatch, shard wiring, and graceful shutdown.
//!
//! One reactor thread (`reactor.rs`) owns accept and every connection
//! through a nonblocking readiness loop. Replies append to per-connection
//! write buffers; subscriber fan-out arrives through the reactor mailbox.
//! A node answers each request in place (`dispatch`); a router forwards
//! it from the same loop (`router.rs`).
//!
//! Shutdown (the `shutdown` verb or [`Server::shutdown`]) runs the drain
//! protocol:
//!
//! 1. the shutdown flag flips and the shard ingress senders are dropped —
//!    new ingests get a `shutting-down` reply; the listener stops accepting;
//! 2. each shard worker consumes its already-accepted queue, flushes every
//!    pipeline whose full window still owes a release, publishes those, and
//!    sends each of its streams' subscribers a `closed` event — delivered by
//!    the reactor loop independently of [`Server::join`], so a subscriber
//!    that itself issued `shutdown` still receives its drain events;
//! 3. connections close: the reactor flushes every write buffer after the
//!    final `reactor::Mail::Finalize` (a router first lets its draining
//!    subscriptions reach upstream EOF);
//! 4. [`Server::join`] reaps every thread. No buffer anywhere is unbounded
//!    at any point in this sequence.

use crate::config::{ServeConfig, ServeRole};
use crate::fanout::{json_line, OutBytes, SubscriberRegistry};
use crate::node::NodeCore;
use crate::protocol::{error_reply, Request};
use crate::reactor::{self, EventSink};
use crate::stats::ReactorStats;
use bfly_common::{Error, Frame, Json, Result};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What this process *is*: the stream-owning core of a mining node, or a
/// router, whose forwarding state lives on the reactor thread. Everything
/// else in [`Shared`] — listener, connection plumbing, framing, shutdown —
/// is role-agnostic.
pub(crate) enum RoleCore {
    Node(NodeCore),
    Router,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) shutdown: AtomicBool,
    /// The role-specific half: shard workers + WAL on a node.
    pub(crate) role: RoleCore,
    pub(crate) registry: Arc<SubscriberRegistry>,
    /// Reactor telemetry.
    pub(crate) reactor: ReactorStats,
    /// When this process bound the listener. Feeds `uptime_ms` from a
    /// *monotonic* clock ([`Instant`], never wall time — a clock step must
    /// not fake a restart), which is how the crash-recovery tests tell a
    /// restart from the original.
    pub(crate) started: Instant,
}

impl Shared {
    /// Flip the shutdown flag (once) and start the node's drain; the
    /// reactor observes the flag on its next pass.
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let RoleCore::Node(node) = &self.role {
            node.on_shutdown();
        }
    }

    /// `draining` and `uptime_ms`, the envelope fields every `stats` reply
    /// carries.
    pub(crate) fn envelope(&self) -> [(&'static str, Json); 2] {
        [
            ("draining", Json::Bool(self.shutdown.load(Ordering::SeqCst))),
            (
                "uptime_ms",
                Json::from(self.started.elapsed().as_millis() as u64),
            ),
        ]
    }

    fn node_stats(&self, node: &NodeCore) -> Json {
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("role", Json::from(ServeRole::Node.name())),
            ("subscribers", Json::from(self.registry.len() as u64)),
        ];
        fields.extend(self.envelope());
        fields.extend(node.stats_fields(&self.cfg));
        fields.push(("reactor", self.reactor.to_json()));
        Json::obj(fields)
    }
}

/// A running Butterfly stream service.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: reactor::Runtime,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawn the
    /// shard workers (on a node) and the reactor, and return immediately.
    ///
    /// # Errors
    /// [`Error::Parse`] for an invalid config, [`Error::Io`] for bind
    /// failures (and on platforms without the reactor).
    pub fn bind(addr: &str, cfg: ServeConfig) -> Result<Server> {
        cfg.validate()
            .map_err(|e| Error::Parse(format!("config: {e}")))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(SubscriberRegistry::new());
        // The role core is the only part of startup that differs: a node
        // recovers its WAL and spawns shard workers; a router owns no
        // thread of its own.
        let (role, workers) = match cfg.role {
            ServeRole::Node => {
                let (core, workers) = NodeCore::start(&cfg, &registry)?;
                (RoleCore::Node(core), workers)
            }
            ServeRole::Router => (RoleCore::Router, Vec::new()),
        };
        let shared = Arc::new(Shared {
            cfg,
            shutdown: AtomicBool::new(false),
            role,
            registry,
            reactor: ReactorStats::default(),
            started: Instant::now(),
        });
        let reactor = reactor::spawn(listener, shared.clone())?;
        Ok(Server {
            shared,
            addr,
            reactor,
            workers,
        })
    }

    /// The bound address (read the ephemeral port back from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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
    pub fn join(self) {
        self.shared.trigger_shutdown();
        for w in self.workers {
            let _ = w.join();
        }
        // Workers closed the streams they owned; drop whatever subscribers
        // remain (streams that never ingested a record).
        self.shared.registry.clear();
        // Every drain publication was mailed before this point (workers are
        // joined); Finalize rides behind them in FIFO order, so the reactor
        // flushes everything, then exits.
        self.reactor.shared.push(reactor::Mail::Finalize);
        let _ = self.reactor.thread.join();
    }
}

/// Parse one NDJSON request other than an ingest; `Err` is the error
/// reply. No ingest comes here, binary or NDJSON: the codec decodes either
/// straight into a `bfly_common::IngestChunk` (`bfly_common::Inbound::
/// Ingest`), and refuses an NDJSON ingest that breaks a field rule itself
/// (`bfly_common::Inbound::Refused`).
pub(crate) fn request_of(frame: Frame) -> std::result::Result<Request, Json> {
    match frame {
        Frame::Json(v) => Request::from_json(&v).map_err(|e| error_reply(&e.to_string())),
        // Release frames flow server→subscriber only; a client sending one
        // is confused, not fatal (the codec stays aligned).
        Frame::Binary(_) => Err(error_reply("unexpected event frame from a client")),
    }
}

/// The `ping` reply.
pub(crate) fn pong() -> Json {
    Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))])
}

/// The `shutdown` reply.
pub(crate) fn draining() -> Json {
    Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))])
}

/// Handle one request on a node, emitting its reply frames (a catch-up
/// subscribe also emits the logged releases) through `reply`. `sink` is
/// the connection's subscriber sink.
pub(crate) fn dispatch(
    conn_id: u64,
    request: Request,
    shared: &Shared,
    node: &NodeCore,
    sink: &Arc<EventSink>,
    reply: &mut dyn FnMut(OutBytes),
) {
    match request {
        Request::Ping => reply(json_line(&pong())),
        Request::Stats => reply(json_line(&shared.node_stats(node))),
        Request::Subscribe {
            stream,
            frame,
            from,
        } => {
            if from.is_some() && shared.cfg.wal.is_none() {
                return reply(json_line(&error_reply(
                    "catch-up subscribe requires a write-ahead log (start with --wal-dir)",
                )));
            }
            // Register live *before* scanning the log so no release falls in
            // the gap between them. A release published during the scan can
            // then arrive both live and in the catch-up tail; positions only
            // move forward, so [`crate::protocol::SubscriberState`] skips the
            // stale copy.
            shared
                .registry
                .subscribe(&stream, conn_id, frame, sink.clone());
            reply(json_line(&Json::obj([
                ("ok", Json::Bool(true)),
                ("stream", Json::from(stream.as_str())),
            ])));
            if let Some(from) = from {
                node.catchup(&stream, frame, from.min_len(), reply);
            }
        }
        Request::Bind { stream, defense } => reply(json_line(&node.bind(&stream, defense))),
        Request::Shutdown => {
            // The connection stays open: the reactor keeps every connection
            // until Finalize — issuing `shutdown` must not cut off your own
            // drain events.
            reply(json_line(&draining()));
            shared.trigger_shutdown();
        }
        // An ingest, in either encoding, reaches the node as the chunk the
        // codec decoded it into (`Inbound::Ingest`), never as a request.
        _ => unreachable!("the codec decodes every ingest"),
    }
}
