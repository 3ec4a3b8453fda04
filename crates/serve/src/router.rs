//! The router tier: a stateless serve process that terminates client
//! connections and forwards every stream-owning op to the node that owns
//! the key.
//!
//! A router speaks the exact client protocol on its listener — the same
//! frames, the same reply order — and consults the federated
//! [`ClusterMap`] built from `--nodes` to pick an owner per key. It runs on
//! the reactor thread like everything else: its links to the nodes are
//! nonblocking sockets in the same epoll instance, and a client connection
//! with a forwarded request outstanding is *parked* (the reactor decodes
//! nothing more from it until [`Loop::answer`]), which is what keeps each
//! connection's replies in request order. Three forwarding shapes cover
//! the protocol:
//!
//! * **Request/reply ops** (`ingest`, `bind`): pipelined on one pooled
//!   connection per node, replies matched in order to a FIFO of waiters.
//!   Ingest is re-encoded as a *binary* frame regardless of how the client
//!   sent it (the cheap encoding for the hot path) — a binary ingest from
//!   its decoded chunk, an NDJSON one from its batch, through the one
//!   ingest encoder; the node's reply line is
//!   relayed to the client **verbatim** — raw bytes, never re-serialized —
//!   so a client cannot distinguish a router from a node by reply bytes.
//! * **`stats`**: forwarded to every node; the replies are merged under a
//!   `nodes` array next to the router's own placement and forwarding
//!   counters.
//! * **`subscribe`**: proxied over a *dedicated* upstream connection per
//!   subscription. After the ack, everything the node sends on it is event
//!   traffic for that one stream, so each whole raw frame
//!   ([`FrameCodec::next_raw`]: the boundary rule and cap every decoder
//!   uses) is copied into the client's write buffer untouched, under the
//!   same event budget a node's fan-out spends — byte-identity for proxied
//!   releases is structural, not re-encoded. WAL catch-up (`from:`) rides
//!   the same path: the node serves it, the router just relays.
//!
//! **Failure semantics.** The router never waits on a node: connects,
//! writes and reads are readiness-driven, and every forward carries a
//! deadline ([`FORWARD_TIMEOUT`]) the loop sweeps. A node that is dead,
//! refuses, answers garbage, or stays silent past the deadline surfaces as
//! explicit per-key unavailability — request forwards reply
//! `{"ok":false,"error":"node <addr> unavailable..."}` and bump the key's
//! counter in the router's `stats`; a proxied subscription emits a final
//! `{"event":"unavailable","stream":...}` line and ends (while the cluster
//! drains, upstream EOF is a relay's normal end instead). A hung node
//! stalls only its own keys. The router itself holds no stream state, so
//! a restarted node rejoins by replaying its own WAL and the router
//! reconnects on the next forward — no rebalancing, no handoff.

use crate::config::ServeRole;
use crate::fanout::{json_line, OutBytes};
use crate::placement::ClusterMap;
use crate::protocol::{error_reply, CatchUp, Request};
use crate::server::{draining, pong, Shared};
use bfly_common::{BinaryFrame, FrameCodec, FrameMode, Json};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A node slower than this on a forwarded request (or a subscribe ack) is
/// treated as dead for it: the link is dropped, everything in flight on it
/// answers `unavailable`, and the next forward reconnects.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(5);

/// What the router needs from the event loop that owns it. None of these
/// calls back into the router.
pub(crate) trait Loop {
    /// Start a nonblocking connect to `addr` and register the socket, read
    /// and write edge-triggered, as upstream `id`.
    fn connect(&mut self, addr: SocketAddr, id: u64) -> io::Result<TcpStream>;
    /// Append the reply to client `conn`'s parked request and unpark it.
    fn answer(&mut self, conn: u64, bytes: OutBytes);
    /// Append one relayed event frame to `conn` under its event budget;
    /// `false` when the subscriber is gone or its budget is exhausted.
    fn relay(&mut self, conn: u64, frame: &[u8]) -> bool;
}

/// One node as the router sees it: its address, the pooled request link,
/// and per-node forwarding counters.
struct NodeLink {
    addr: SocketAddr,
    /// The pooled request upstream; `None` until first use and after it
    /// fails.
    pool: Option<u64>,
    /// Requests forwarded (including failed attempts).
    forwarded: u64,
    /// Transactions the node acknowledged, summed from its ingest replies —
    /// the router's backpressure ledger per node.
    accepted: u64,
    /// Transactions the node shed (its ingress queue was full).
    shed: u64,
    /// Forwards that failed outright (connect/write/read error, timeout).
    errors: u64,
}

/// What a pooled request's reply is for.
enum Waiting {
    /// Relay the reply to `conn` verbatim; an ingest reply also feeds the
    /// ledger.
    Reply {
        conn: u64,
        stream: String,
        ingest: bool,
    },
    /// One node's part of merged `stats` number `gather`.
    Stats { gather: u64 },
    /// A forwarded `shutdown`: the ack is dropped.
    Shutdown,
}

struct Waiter {
    due: Instant,
    waiting: Waiting,
}

/// The client side of a proxied subscription.
struct Sub {
    conn: u64,
    stream: String,
    /// Set until the node acknowledges the subscribe.
    ack_due: Option<Instant>,
}

/// One nonblocking connection to a node: the pooled request link or one
/// subscription's.
struct Upstream {
    node: usize,
    stream: TcpStream,
    /// The connect is in flight; the first readiness event settles it.
    connecting: bool,
    codec: FrameCodec,
    /// Request bytes not yet written.
    out: Vec<u8>,
    /// Forwarded requests awaiting replies, in order (request link).
    waiters: VecDeque<Waiter>,
    /// Set on a subscription link.
    sub: Option<Sub>,
}

impl Upstream {
    /// When the oldest thing this link owes falls due.
    fn due(&self) -> Option<Instant> {
        match &self.sub {
            Some(sub) => sub.ack_due,
            None => self.waiters.front().map(|w| w.due),
        }
    }

    /// Write queued request bytes until done or the socket pushes back
    /// (its next write readiness resumes).
    fn flush(&mut self) -> io::Result<()> {
        if self.connecting {
            return Ok(());
        }
        let mut done = 0;
        while done < self.out.len() {
            match self.stream.write(&self.out[done..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..done);
        Ok(())
    }
}

/// A `stats` request waiting for every node's part.
struct Gather {
    conn: u64,
    /// Each node's own stats document; `None` where it failed.
    parts: Vec<Option<Json>>,
    missing: usize,
}

/// The forwarding state of a router, owned by its reactor thread (see the
/// module docs).
pub(crate) struct Router {
    srv: Arc<Shared>,
    map: ClusterMap,
    links: Vec<NodeLink>,
    ups: HashMap<u64, Upstream>,
    next_up: u64,
    gathers: HashMap<u64, Gather>,
    next_gather: u64,
    /// Per-key unavailability: how many times each stream key hit an
    /// unreachable owner — the explicit failure surface `stats` exposes.
    unavailable: BTreeMap<String, u64>,
    /// `shutdown` went to the nodes: upstream EOF on a subscription is its
    /// drain completing, not a failure.
    draining: bool,
}

impl Router {
    /// Build the routing state from a validated router config: the
    /// federated map over `cfg.nodes`, `cfg.shards` shards per node.
    pub(crate) fn new(srv: Arc<Shared>) -> Router {
        let cfg = &srv.cfg;
        Router {
            map: ClusterMap::federated(1, cfg.nodes.clone(), cfg.shards),
            links: cfg
                .nodes
                .iter()
                .map(|&addr| NodeLink {
                    addr,
                    pool: None,
                    forwarded: 0,
                    accepted: 0,
                    shed: 0,
                    errors: 0,
                })
                .collect(),
            ups: HashMap::new(),
            next_up: 0,
            gathers: HashMap::new(),
            next_gather: 0,
            unavailable: BTreeMap::new(),
            draining: false,
            srv,
        }
    }

    /// Handle one client request. Every request is answered through
    /// [`Loop::answer`] exactly once — at once, or when its nodes reply or
    /// time out.
    pub(crate) fn handle(&mut self, conn: u64, request: Request, io: &mut dyn Loop) {
        match request {
            Request::Ping => io.answer(conn, json_line(&pong())),
            Request::Stats => {
                let gather = self.next_gather;
                self.next_gather += 1;
                let nodes = self.links.len();
                self.gathers.insert(
                    gather,
                    Gather {
                        conn,
                        parts: vec![None; nodes],
                        missing: nodes,
                    },
                );
                let req = json_line(&Request::Stats.to_json());
                for node in 0..nodes {
                    self.forward(node, &req, Waiting::Stats { gather }, io);
                }
            }
            Request::Subscribe {
                stream,
                frame,
                from,
            } => self.subscribe(conn, stream, frame, from, io),
            Request::Bind { stream, defense } => {
                let node = self.map.owner_of(&stream).node;
                let req = json_line(
                    &Request::Bind {
                        stream: stream.clone(),
                        defense,
                    }
                    .to_json(),
                );
                let waiting = Waiting::Reply {
                    conn,
                    stream,
                    ingest: false,
                };
                self.forward(node, &req, waiting, io);
            }
            Request::Ingest { stream, batch } => {
                let req = BinaryFrame::Ingest {
                    stream: stream.clone(),
                    batch,
                }
                .encode();
                self.ingest(conn, stream, &req, io)
            }
            Request::Shutdown => {
                io.answer(conn, json_line(&draining()));
                // Drain the nodes too, once: every subscription then rides
                // its node's final releases and `closed` events through to
                // upstream EOF before the router's own connections close.
                if !self.draining {
                    self.draining = true;
                    let req = json_line(&Request::Shutdown.to_json());
                    for node in 0..self.links.len() {
                        self.forward(node, &req, Waiting::Shutdown, io);
                    }
                }
                self.srv.trigger_shutdown();
            }
        }
    }

    /// Forward one ingest, already encoded as a binary frame, to the key's
    /// owner; answered like any request.
    pub(crate) fn ingest(&mut self, conn: u64, stream: String, request: &[u8], io: &mut dyn Loop) {
        let node = self.map.owner_of(&stream).node;
        let waiting = Waiting::Reply {
            conn,
            stream,
            ingest: true,
        };
        self.forward(node, request, waiting, io);
    }

    /// Open a link to `node`, registered with the loop under a fresh id.
    fn open(&mut self, node: usize, io: &mut dyn Loop) -> io::Result<(u64, Upstream)> {
        let id = self.next_up;
        self.next_up += 1;
        let stream = io.connect(self.links[node].addr, id)?;
        let up = Upstream {
            node,
            stream,
            connecting: true,
            codec: FrameCodec::with_max(self.srv.cfg.max_frame_bytes),
            out: Vec::new(),
            waiters: VecDeque::new(),
            sub: None,
        };
        Ok((id, up))
    }

    /// Queue one request on `node`'s pooled link (connecting it first if
    /// need be); its reply, or its failure, resolves `waiting`.
    fn forward(&mut self, node: usize, request: &[u8], waiting: Waiting, io: &mut dyn Loop) {
        self.links[node].forwarded += 1;
        let id = match self.links[node].pool {
            Some(id) => id,
            None => match self.open(node, io) {
                Ok((id, up)) => {
                    self.ups.insert(id, up);
                    self.links[node].pool = Some(id);
                    id
                }
                Err(e) => return self.unanswered(node, waiting, &e, io),
            },
        };
        let up = self.ups.get_mut(&id).expect("a pooled link is live");
        up.out.extend_from_slice(request);
        up.waiters.push_back(Waiter {
            due: Instant::now() + FORWARD_TIMEOUT,
            waiting,
        });
        if let Err(e) = up.flush() {
            let up = self.ups.remove(&id).expect("a pooled link is live");
            self.fail(up, e, io);
        }
    }

    /// Proxy a subscription over a dedicated link: forward the subscribe
    /// (including any `from:` catch-up), relay the node's ack as this
    /// request's reply, and — once acked — every later frame as an event.
    fn subscribe(
        &mut self,
        conn: u64,
        stream: String,
        frame: FrameMode,
        from: Option<CatchUp>,
        io: &mut dyn Loop,
    ) {
        let node = self.map.owner_of(&stream).node;
        match self.open(node, io) {
            Ok((id, mut up)) => {
                let req = Request::Subscribe {
                    stream: stream.clone(),
                    frame,
                    from,
                };
                up.out.extend_from_slice(&json_line(&req.to_json()));
                up.sub = Some(Sub {
                    conn,
                    stream,
                    ack_due: Some(Instant::now() + FORWARD_TIMEOUT),
                });
                self.ups.insert(id, up);
            }
            Err(e) => self.refuse(node, conn, &stream, &e, io),
        }
    }

    /// Upstream `id` is ready: settle its connect, write what is queued,
    /// and hand on every frame it delivered — reading until the socket is
    /// dry, as its edge-triggered registration requires.
    pub(crate) fn on_ready(&mut self, id: u64, io: &mut dyn Loop) {
        // Gone already: ended earlier in the same readiness batch.
        let Some(mut up) = self.ups.remove(&id) else {
            return;
        };
        if up.connecting {
            match up.stream.take_error() {
                Ok(None) => up.connecting = false,
                Ok(Some(e)) | Err(e) => return self.fail(up, e, io),
            }
        }
        let mut buf = [0u8; 16 * 1024];
        let err = loop {
            if let Err(e) = up.flush() {
                break e;
            }
            match up.stream.read(&mut buf) {
                Ok(0) => break io::Error::new(io::ErrorKind::UnexpectedEof, "closed by the node"),
                Ok(n) => {
                    up.codec.extend(&buf[..n]);
                    match self.take_frames(&mut up, io) {
                        Ok(true) => {}
                        // Refused, evicted or replaced: the link just closes.
                        Ok(false) => return,
                        Err(e) => break e,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.ups.insert(id, up);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break e,
            }
        };
        self.fail(up, err, io);
    }

    /// Hand on every complete frame `up` holds. `Ok(false)`: the link ends
    /// here, quietly; `Err`: it failed.
    fn take_frames(&mut self, up: &mut Upstream, io: &mut dyn Loop) -> io::Result<bool> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        while let Some(raw) = up.codec.next_raw().map_err(|e| invalid(e.to_string()))? {
            match &mut up.sub {
                None => {
                    let waiter = up
                        .waiters
                        .pop_front()
                        .ok_or_else(|| invalid("a reply nothing asked for".into()))?;
                    self.answered(up.node, waiter.waiting, raw, io);
                }
                Some(sub) if sub.ack_due.is_some() => {
                    let acked = parse_line(raw)
                        .and_then(|doc| doc.get("ok").and_then(Json::as_bool))
                        .unwrap_or(false);
                    io.answer(sub.conn, Arc::from(raw));
                    if !acked {
                        // The node refused (e.g. catch-up without a WAL
                        // there): its error went back verbatim; nothing
                        // stays open.
                        return Ok(false);
                    }
                    sub.ack_due = None;
                    // A re-subscribe of the same stream on the same
                    // connection replaces the older relay.
                    self.ups.retain(|_, other| {
                        other
                            .sub
                            .as_ref()
                            .is_none_or(|o| o.conn != sub.conn || o.stream != sub.stream)
                    });
                }
                Some(sub) => {
                    if !io.relay(sub.conn, raw) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// A node's reply to a pooled request.
    fn answered(&mut self, node: usize, waiting: Waiting, reply: &[u8], io: &mut dyn Loop) {
        match waiting {
            Waiting::Reply { conn, ingest, .. } => {
                if ingest {
                    // The ledger parses a copy; the relayed bytes are
                    // untouched.
                    if let Some(doc) = parse_line(reply) {
                        let link = &mut self.links[node];
                        for (field, counter) in
                            [("accepted", &mut link.accepted), ("shed", &mut link.shed)]
                        {
                            *counter += doc.get(field).and_then(Json::as_u64).unwrap_or(0);
                        }
                    }
                }
                io.answer(conn, Arc::from(reply));
            }
            Waiting::Stats { gather } => {
                let doc = parse_line(reply);
                if doc.is_none() {
                    self.links[node].errors += 1;
                }
                self.gathered(gather, node, doc, io);
            }
            Waiting::Shutdown => {}
        }
    }

    /// A pooled request its node will never answer: answer it here.
    fn unanswered(&mut self, node: usize, waiting: Waiting, err: &io::Error, io: &mut dyn Loop) {
        match waiting {
            Waiting::Reply { conn, stream, .. } => self.refuse(node, conn, &stream, err, io),
            Waiting::Stats { gather } => {
                self.links[node].errors += 1;
                self.gathered(gather, node, None, io);
            }
            // A node that is already gone cannot drain; its subscribers saw
            // `unavailable` when it died.
            Waiting::Shutdown => self.links[node].errors += 1,
        }
    }

    /// Client `conn`'s request for `stream` failed at `node`: count it
    /// against the node and the key, and answer with the explicit error.
    fn refuse(&mut self, node: usize, conn: u64, stream: &str, err: &io::Error, io: &mut dyn Loop) {
        self.links[node].errors += 1;
        *self.unavailable.entry(stream.to_string()).or_insert(0) += 1;
        let reply = error_reply(&format!(
            "node {} unavailable for stream {stream:?}: {err}",
            self.links[node].addr
        ));
        io.answer(conn, json_line(&reply));
    }

    /// A link died or timed out: every request on it goes unanswered by
    /// its node, and a subscription ends — explicitly, unless the cluster
    /// is draining.
    fn fail(&mut self, up: Upstream, err: io::Error, io: &mut dyn Loop) {
        let node = up.node;
        match up.sub {
            None => {
                self.links[node].pool = None;
                for waiter in up.waiters {
                    self.unanswered(node, waiter.waiting, &err, io);
                }
            }
            Some(sub) if sub.ack_due.is_some() => {
                self.refuse(node, sub.conn, &sub.stream, &err, io)
            }
            Some(sub) if !self.draining => {
                // The owner died under the subscription: an explicit event,
                // not a silent stall.
                *self.unavailable.entry(sub.stream.clone()).or_insert(0) += 1;
                let event = Json::obj([
                    ("event", Json::from("unavailable")),
                    ("stream", Json::Str(sub.stream)),
                ]);
                io.relay(sub.conn, &json_line(&event));
            }
            Some(_) => {}
        }
    }

    /// Fail every link whose oldest forward, or whose subscribe ack, is
    /// past [`FORWARD_TIMEOUT`]. The loop calls this on every pass.
    pub(crate) fn expire(&mut self, io: &mut dyn Loop) {
        let now = Instant::now();
        let late: Vec<u64> = self
            .ups
            .iter()
            .filter(|(_, up)| up.due().is_some_and(|due| due <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in late {
            let up = self.ups.remove(&id).expect("just seen");
            self.fail(up, io::ErrorKind::TimedOut.into(), io);
        }
    }

    /// Client `conn` is closing: its subscriptions end with it.
    pub(crate) fn forget(&mut self, conn: u64) {
        self.ups
            .retain(|_, up| up.sub.as_ref().is_none_or(|sub| sub.conn != conn));
    }

    /// Whether the loop may close its connections at Finalize: nothing is
    /// draining, or every subscription has reached upstream EOF.
    pub(crate) fn drained(&self) -> bool {
        !self.draining || self.ups.values().all(|up| up.sub.is_none())
    }

    /// One node's `stats` part landed (`None`: it failed); the last one
    /// answers with the merged document.
    fn gathered(&mut self, gather: u64, node: usize, doc: Option<Json>, io: &mut dyn Loop) {
        let Some(g) = self.gathers.get_mut(&gather) else {
            return;
        };
        g.parts[node] = doc;
        g.missing -= 1;
        if g.missing == 0 {
            let g = self.gathers.remove(&gather).expect("just seen");
            io.answer(g.conn, json_line(&self.stats_json(g.parts)));
        }
    }

    /// The merged `stats` reply: every node's own stats document under
    /// `nodes`, plus the router's placement shape, per-node forwarding
    /// ledger, and per-key unavailability counters.
    fn stats_json(&self, parts: Vec<Option<Json>>) -> Json {
        let nodes = self
            .links
            .iter()
            .zip(parts)
            .map(|(link, doc)| {
                let addr = ("addr", Json::Str(link.addr.to_string()));
                match doc {
                    Some(doc) => Json::obj([addr, ("ok", Json::Bool(true)), ("stats", doc)]),
                    None => Json::obj([
                        addr,
                        ("ok", Json::Bool(false)),
                        ("error", Json::from("unavailable")),
                    ]),
                }
            })
            .collect();
        let forward = self
            .links
            .iter()
            .map(|l| {
                Json::obj([
                    ("addr", Json::Str(l.addr.to_string())),
                    ("requests", Json::from(l.forwarded)),
                    ("accepted", Json::from(l.accepted)),
                    ("shed", Json::from(l.shed)),
                    ("errors", Json::from(l.errors)),
                ])
            })
            .collect();
        let unavailable = Json::Obj(
            self.unavailable
                .iter()
                .map(|(k, &n)| (k.clone(), Json::from(n)))
                .collect(),
        );
        let subscribers = self
            .ups
            .values()
            .filter(|up| up.sub.as_ref().is_some_and(|s| s.ack_due.is_none()))
            .count();
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("role", Json::from(ServeRole::Router.name())),
            (
                "cluster",
                Json::obj([
                    ("version", Json::from(self.map.version())),
                    ("nodes", Json::from(self.map.node_count() as u64)),
                    (
                        "shards_per_node",
                        Json::from(self.map.shards_per_node() as u64),
                    ),
                    ("slots", Json::from(self.map.slots() as u64)),
                ]),
            ),
            ("nodes", Json::Arr(nodes)),
            ("forward", Json::Arr(forward)),
            ("unavailable", unavailable),
            ("subscribers", Json::from(subscribers as u64)),
            ("reactor", self.srv.reactor.to_json()),
        ];
        fields.extend(self.srv.envelope());
        Json::obj(fields)
    }
}

/// Parse one raw NDJSON reply line (a copy for accounting — relayed bytes
/// are never rebuilt from this).
fn parse_line(raw: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(raw).ok()?.trim_end()).ok()
}
