//! The driver: one process, two threads (ingest on the caller's thread, one
//! subscriber thread), one connection each, blocking I/O throughout.
//!
//! The saturated phase is a closed loop with `CREDIT` slides of release
//! credit, cut into cycles of one stream period and drained at every cycle
//! edge, so wall time and server CPU are read while the server is idle.

use crate::data::Dataset;
use crate::procs::{cpu_ns, peak_rss_kib, CpuPlan, ServerProc, TempDir};
use crate::spec::{Workload, CREDIT};
use crate::stats::median;
use bfly_common::hash::Fnv1a;
use bfly_common::Json;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a release may take before it counts as missing.
const RELEASE_TIMEOUT: Duration = Duration::from_secs(5);

/// The server processes of one incarnation. `front` is where clients
/// connect: the node itself, or the router in front of two nodes.
pub struct Cluster {
    /// Nodes first; the router (if any) last.
    pub procs: Vec<ServerProc>,
    _dir: TempDir,
}

impl Cluster {
    /// Spawn the workload's processes. `wal_dir` makes the (single) node
    /// durable on that directory.
    pub fn spawn(
        bin: &Path,
        cpus: CpuPlan,
        w: &Workload,
        out: &Path,
        wal_dir: Option<&Path>,
    ) -> Result<Cluster, String> {
        let dir = TempDir::new(out, w.name);
        let cfg = w.serve_config(wal_dir);
        let mut procs = Vec::new();
        if w.routed {
            for n in 0..2 {
                procs.push(ServerProc::spawn(
                    bin,
                    cpus,
                    &cfg,
                    &[],
                    dir.path(),
                    &format!("node{n}"),
                )?);
            }
            let nodes = format!("{},{}", procs[0].addr, procs[1].addr);
            let role: Vec<String> = ["--role", "router", "--io", "blocking", "--nodes", &nodes]
                .iter()
                .map(|s| s.to_string())
                .collect();
            procs.push(ServerProc::spawn(
                bin,
                cpus,
                &cfg,
                &role,
                dir.path(),
                "router",
            )?);
        } else {
            procs.push(ServerProc::spawn(bin, cpus, &cfg, &[], dir.path(), "node")?);
        }
        Ok(Cluster { procs, _dir: dir })
    }

    pub fn front(&self) -> &ServerProc {
        self.procs.last().expect("a cluster has a process")
    }

    /// On-CPU ns per process, in `procs` order.
    pub fn cpu_by_proc(&self) -> Vec<u64> {
        self.procs.iter().map(|p| cpu_ns(p.pid())).collect()
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.procs
            .iter()
            .map(|p| peak_rss_kib(p.pid()))
            .sum::<u64>() as f64
            / 1024.0
    }
}

/// What the subscriber thread hands back when its connection closes.
pub struct SubscriberOut {
    /// Per key, one digest per release slide: FNV-1a over every event frame
    /// of that slide (the delta, then the snapshot when the cadence sends
    /// one), in arrival order.
    pub slide_digests: Vec<Vec<u64>>,
    /// Raw event frames (kept only when asked for — the durable workload
    /// compares them with the catch-up read).
    pub frames: Vec<Vec<u8>>,
    pub closed_events: usize,
    /// Time spent splitting and hashing frames, ns.
    pub decode_ns: u64,
    pub error: Option<String>,
}

/// Splits the subscriber byte stream into frames without decoding them:
/// the driver shares two cores with the server, so it does the least it can
/// while still seeing every byte.
struct Splitter {
    keys: Vec<Vec<u8>>,
    /// The frame kind that completes a slide: `release_delta` when the
    /// server sends deltas, `release` otherwise.
    slide_on_delta: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Release,
    Delta,
    Closed,
    Other,
}

impl Splitter {
    /// Length of the first complete frame in `buf`, if any.
    fn frame_len(buf: &[u8]) -> Option<usize> {
        match buf.first()? {
            0xBF => {
                if buf.len() < 6 {
                    return None;
                }
                let len = u32::from_le_bytes(buf[2..6].try_into().expect("4 bytes")) as usize;
                (buf.len() >= 6 + len).then_some(6 + len)
            }
            _ => buf.iter().position(|&b| b == b'\n').map(|p| p + 1),
        }
    }

    fn classify(&self, frame: &[u8]) -> (Kind, Option<usize>) {
        if frame[0] == 0xBF {
            let kind = match frame[1] {
                0x02 => Kind::Release,
                0x03 => Kind::Delta,
                _ => Kind::Other,
            };
            let key = frame
                .get(6..8)
                .and_then(|len| frame.get(8..8 + u16::from_le_bytes([len[0], len[1]]) as usize));
            return (
                kind,
                self.keys.iter().position(|k| Some(k.as_slice()) == key),
            );
        }
        let kind = if frame.starts_with(b"{\"event\":\"release\",") {
            Kind::Release
        } else if frame.starts_with(b"{\"event\":\"release_delta\",") {
            Kind::Delta
        } else if frame.starts_with(b"{\"event\":\"closed\",") {
            Kind::Closed
        } else {
            Kind::Other
        };
        // Keys sort "stream" after the (long) itemset arrays: search from
        // the end of the line.
        let marker = b"\"stream\":\"";
        let key_idx = frame
            .windows(marker.len())
            .rposition(|w| w == marker)
            .and_then(|at| {
                let rest = &frame[at + marker.len()..];
                let end = rest.iter().position(|&b| b == b'"')?;
                self.keys.iter().position(|k| k == &rest[..end])
            });
        (kind, key_idx)
    }
}

struct KeyFeed {
    slides: usize,
    hasher: Fnv1a,
    digests: Vec<u64>,
}

fn subscriber_loop(
    mut stream: TcpStream,
    splitter: Splitter,
    keep_frames: bool,
    tokens: Sender<Instant>,
) -> SubscriberOut {
    let mut feeds: Vec<KeyFeed> = splitter
        .keys
        .iter()
        .map(|_| KeyFeed {
            slides: 0,
            hasher: Fnv1a::new(),
            digests: Vec::new(),
        })
        .collect();
    let mut out = SubscriberOut {
        slide_digests: Vec::new(),
        frames: Vec::new(),
        closed_events: 0,
        decode_ns: 0,
        error: None,
    };
    let mut buf = vec![0u8; 1 << 16];
    let mut filled = 0usize;
    let mut done_slides = 0usize;
    loop {
        if filled == buf.len() {
            buf.resize(buf.len() * 2, 0);
        }
        let n = match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                out.error = Some(format!("subscriber read: {e}"));
                break;
            }
        };
        let arrived = Instant::now();
        filled += n;
        let mut at = 0usize;
        while let Some(len) = Splitter::frame_len(&buf[at..filled]) {
            let frame = &buf[at..at + len];
            at += len;
            let (kind, key_idx) = splitter.classify(frame);
            match (kind, key_idx) {
                (Kind::Closed, _) => out.closed_events += 1,
                (Kind::Release | Kind::Delta, Some(k)) => {
                    let feed = &mut feeds[k];
                    let completes = (kind == Kind::Delta) == splitter.slide_on_delta;
                    if completes {
                        if feed.slides > 0 {
                            feed.digests.push(feed.hasher.finish());
                        }
                        feed.hasher = Fnv1a::new();
                        feed.slides += 1;
                    }
                    feed.hasher.write(frame);
                    if keep_frames {
                        out.frames.push(frame.to_vec());
                    }
                }
                _ => {
                    out.error = Some(format!(
                        "unexpected subscriber frame: {}",
                        String::from_utf8_lossy(&frame[..frame.len().min(80)])
                    ));
                }
            }
        }
        buf.copy_within(at..filled, 0);
        filled -= at;
        // A slide is complete once every key has released it.
        let min_slides = feeds.iter().map(|f| f.slides).min().unwrap_or(0);
        while done_slides < min_slides {
            done_slides += 1;
            if tokens.send(arrived).is_err() {
                break; // the ingest side has gone; keep draining to EOF
            }
        }
        out.decode_ns += arrived.elapsed().as_nanos() as u64;
    }
    for feed in &mut feeds {
        if feed.slides > 0 {
            feed.digests.push(feed.hasher.finish());
        }
    }
    out.slide_digests = feeds.into_iter().map(|f| f.digests).collect();
    out
}

/// Failures against attempts, as the contract counts them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One drained segment of a cycle: wall time and server CPU between two
/// idle edges. Segment `p` of every cycle is the same slides in the same
/// window state, so it is the same work every time it comes round.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// CPU of the last process in the cluster (the router, when routed).
    pub front_cpu_ns: u64,
    /// Median release lag of the segment's slides, ms.
    pub lag_p50_ms: f64,
}

/// Result of one open-loop rung.
pub struct Paced {
    /// Release lag from each slide's *due* time, ms.
    pub lags_ms: Vec<f64>,
    /// How late the generator ran at worst, ms.
    pub late_max_ms: f64,
}

/// A live incarnation: the cluster plus the driver's two connections.
pub struct Live<'a> {
    w: &'a Workload,
    data: &'a Dataset,
    pub cluster: Cluster,
    ingest: TcpStream,
    replies: BufReader<TcpStream>,
    tokens: Receiver<Instant>,
    subscriber: Option<JoinHandle<SubscriberOut>>,
    /// Next request number since the stream began (fill included).
    next_req: usize,
    /// Due time of every slide still owed a release.
    owed: VecDeque<Instant>,
    pub tally: Tally,
    /// Release lag of every slide since the last `take_lags`, ms.
    lags_ms: Vec<f64>,
    /// Time spent writing requests and reading their replies, ns.
    pub send_ns: u64,
}

fn control(
    stream: &mut TcpStream,
    replies: &mut BufReader<TcpStream>,
    req: &str,
) -> Result<Json, String> {
    stream
        .write_all(format!("{req}\n").as_bytes())
        .map_err(|e| format!("write {req}: {e}"))?;
    let mut line = String::new();
    replies
        .read_line(&mut line)
        .map_err(|e| format!("reply to {req}: {e}"))?;
    Json::parse(line.trim()).map_err(|e| format!("reply to {req}: {e} in {line:?}"))
}

fn connect(cluster: &Cluster) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(cluster.front().addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

impl<'a> Live<'a> {
    /// Connect both connections to a spawned cluster and subscribe to every
    /// key. `next_req` is where in the stream the servers already are (0 for
    /// a fresh cluster; past the seeded periods after a recovery).
    pub fn attach(
        w: &'a Workload,
        data: &'a Dataset,
        cluster: Cluster,
        next_req: usize,
        keep_frames: bool,
    ) -> Result<Live<'a>, String> {
        let (ingest, replies) = connect(&cluster)?;
        let (mut sub, mut sub_replies) = connect(&cluster)?;
        let frame = if w.json { "json" } else { "binary" };
        for s in &data.streams {
            let ack = control(
                &mut sub,
                &mut sub_replies,
                &format!(
                    "{{\"op\":\"subscribe\",\"stream\":\"{}\",\"frame\":\"{frame}\"}}",
                    s.key
                ),
            )?;
            if ack.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("subscribe {} refused: {ack}", s.key));
            }
        }
        if !sub_replies.buffer().is_empty() {
            return Err("events arrived before any ingest".into());
        }
        drop(sub_replies);
        let splitter = Splitter {
            keys: data
                .streams
                .iter()
                .map(|s| s.key.clone().into_bytes())
                .collect(),
            slide_on_delta: w.snapshot_every > 1,
        };
        let (tx, tokens) = channel();
        let subscriber = std::thread::Builder::new()
            .name("bench-subscriber".into())
            .spawn(move || subscriber_loop(sub, splitter, keep_frames, tx))
            .map_err(|e| format!("spawn subscriber: {e}"))?;
        Ok(Live {
            w,
            data,
            cluster,
            ingest,
            replies,
            tokens,
            subscriber: Some(subscriber),
            next_req,
            owed: VecDeque::new(),
            tally: Tally::default(),
            lags_ms: Vec::new(),
            send_ns: 0,
        })
    }

    /// Write one slide's requests (one per key), then read their replies.
    /// `due` is when the slide was due (now, in the closed loop).
    fn send_slide(&mut self, due: Option<Instant>) -> Result<(), String> {
        let slide = self.next_req % self.w.slides_per_cycle();
        let t0 = Instant::now();
        let mut written = t0;
        let mut line = Vec::with_capacity(64);
        // Strictly write, read, write, read: with two requests in flight the
        // second small reply would sit behind Nagle on the blocking engine's
        // sockets (it never sets TCP_NODELAY) until this side's delayed ACK,
        // 40 ms later.
        for s in &self.data.streams {
            self.ingest
                .write_all(&s.requests[slide])
                .map_err(|e| format!("ingest write: {e}"))?;
            written = Instant::now();
            line.clear();
            self.replies
                .read_until(b'\n', &mut line)
                .map_err(|e| format!("ingest reply: {e}"))?;
            // Anything but the exact `ok` line is a refused, shed or failed
            // request.
            self.tally.check(line == self.data.ok_reply);
        }
        self.send_ns += t0.elapsed().as_nanos() as u64;
        if self.next_req + 1 >= self.w.fill_slides() {
            self.owed.push_back(due.unwrap_or(written));
        }
        self.next_req += 1;
        Ok(())
    }

    /// A release arrived: the oldest owed slide is settled.
    fn settle(&mut self, arrived: Instant) {
        let due = self.owed.pop_front().expect("a token for an owed slide");
        self.tally.check(true);
        self.lags_ms
            .push(arrived.saturating_duration_since(due).as_secs_f64() * 1e3);
    }

    /// Block for the oldest owed release.
    fn take_token(&mut self) -> Result<(), String> {
        match self.tokens.recv_timeout(RELEASE_TIMEOUT) {
            Ok(arrived) => {
                self.settle(arrived);
                Ok(())
            }
            Err(_) => {
                self.tally.check(false);
                Err(format!(
                    "release missing after {RELEASE_TIMEOUT:?} ({} owed)",
                    self.owed.len()
                ))
            }
        }
    }

    fn drain(&mut self) -> Result<(), String> {
        while !self.owed.is_empty() {
            self.take_token()?;
        }
        Ok(())
    }

    /// Fill the window: `window / every` requests, the last of which brings
    /// the first release. Nothing is released while the window fills, so
    /// the only signal that the shard has room is its `queue_depth`: before
    /// a request could overflow the ingress queue the driver asks `stats`
    /// (a blocking round trip, 1 ms apart) until the queue has drained.
    pub fn fill(&mut self) -> Result<(), String> {
        assert_eq!(self.next_req, 0, "fill starts the stream");
        let queue_cap = self.w.serve_config(None).queue_cap;
        let mut maybe_queued = 0usize;
        for _ in 0..self.w.fill_slides() {
            while maybe_queued + self.w.every > queue_cap {
                maybe_queued = self.queue_depth()?;
                if maybe_queued + self.w.every > queue_cap {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            self.send_slide(None)?;
            maybe_queued += self.w.every;
        }
        self.drain()
    }

    /// Deepest shard ingress queue in the cluster, in transactions.
    fn queue_depth(&mut self) -> Result<usize, String> {
        let stats = self.stats()?;
        node_docs(&stats)
            .iter()
            .flat_map(|doc| {
                doc.get("per_shard")
                    .and_then(Json::as_array)
                    .into_iter()
                    .flatten()
            })
            .map(|shard| shard.get("queue_depth").and_then(Json::as_u64))
            .try_fold(0u64, |deepest, depth| Some(deepest.max(depth?)))
            .map(|d| d as usize)
            .ok_or_else(|| format!("no queue_depth in {stats}"))
    }

    /// One stream period under `CREDIT` slides of release credit, drained at
    /// the end of every segment; one `Segment` per position in the period.
    pub fn cycle(&mut self) -> Result<Vec<Segment>, String> {
        (0..self.w.segments_per_cycle())
            .map(|_| self.segment())
            .collect()
    }

    fn segment(&mut self) -> Result<Segment, String> {
        let lags_from = self.lags_ms.len();
        let cpu0 = self.cluster.cpu_by_proc();
        let t0 = Instant::now();
        for _ in 0..self.w.segment_slides {
            while self.owed.len() >= CREDIT {
                self.take_token()?;
            }
            self.send_slide(None)?;
        }
        self.drain()?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu1 = self.cluster.cpu_by_proc();
        let delta: Vec<u64> = cpu1.iter().zip(&cpu0).map(|(a, b)| a - b).collect();
        Ok(Segment {
            wall_ns,
            cpu_ns: delta.iter().sum(),
            front_cpu_ns: *delta.last().expect("a process"),
            lag_p50_ms: median(&self.lags_ms[lags_from..]),
        })
    }

    /// Open loop at `tx_per_s` for about `seconds`: every slide is written at
    /// its due time whether or not earlier releases arrived, and lag counts
    /// from the due time. The one exception keeps shed at 0: when the slides
    /// still owed would fill the shard's bounded queue, the generator waits
    /// for a release first, and that wait shows as generator lateness.
    /// Sleeps between slides; never spins.
    pub fn paced(&mut self, tx_per_s: f64, seconds: f64) -> Result<Paced, String> {
        self.drain()?;
        self.lags_ms.clear();
        let max_owed = self.w.serve_config(None).queue_cap / self.w.every;
        let per_slide = (self.w.every * self.w.keys) as f64 / tx_per_s;
        let slides = ((seconds / per_slide).ceil() as usize).max(8);
        let start = Instant::now() + Duration::from_millis(2);
        let mut late_max = Duration::ZERO;
        for i in 0..slides {
            let due = start + Duration::from_secs_f64(per_slide * i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            while let Ok(arrived) = self.tokens.try_recv() {
                self.settle(arrived);
            }
            while self.owed.len() >= max_owed {
                self.take_token()?;
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
            self.send_slide(Some(due))?;
        }
        self.drain()?;
        Ok(Paced {
            lags_ms: std::mem::take(&mut self.lags_ms),
            late_max_ms: late_max.as_secs_f64() * 1e3,
        })
    }

    pub fn take_lags(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.lags_ms)
    }

    /// Requests sent since the stream began.
    pub fn position(&self) -> usize {
        self.next_req
    }

    /// The `stats` document of the front process.
    pub fn stats(&mut self) -> Result<Json, String> {
        control(&mut self.ingest, &mut self.replies, "{\"op\":\"stats\"}")
    }

    /// A second subscriber reads the stream's retained history from the log
    /// (`from: earliest`) until it reaches `last_len`; returns the raw
    /// release frames and the time the read took.
    pub fn catchup_read(&mut self, last_len: u64) -> Result<(Vec<Vec<u8>>, Duration), String> {
        let key = &self.data.streams[0].key;
        let t0 = Instant::now();
        let (mut conn, mut reader) = connect(&self.cluster)?;
        let ack = control(
            &mut conn,
            &mut reader,
            &format!(
                "{{\"op\":\"subscribe\",\"stream\":\"{key}\",\"frame\":\"binary\",\"from\":\"earliest\"}}"
            ),
        )?;
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("catch-up subscribe refused: {ack}"));
        }
        let mut frames = Vec::new();
        loop {
            let mut head = [0u8; 6];
            reader
                .read_exact(&mut head)
                .map_err(|e| format!("catch-up read: {e}"))?;
            if head[0] != 0xBF {
                return Err("catch-up feed is not binary".into());
            }
            let len = u32::from_le_bytes(head[2..6].try_into().expect("4 bytes")) as usize;
            let mut frame = head.to_vec();
            frame.resize(6 + len, 0);
            reader
                .read_exact(&mut frame[6..])
                .map_err(|e| format!("catch-up read: {e}"))?;
            let len_at = release_len(&frame);
            frames.push(frame);
            if len_at >= Some(last_len) {
                return Ok((frames, t0.elapsed()));
            }
        }
    }

    /// SIGKILL every process where it stands (the seeding incarnation's
    /// end); the subscriber sees the connection drop.
    pub fn kill(mut self) -> SubscriberOut {
        for p in self.cluster.procs.drain(..) {
            p.kill();
        }
        self.join_subscriber()
    }

    /// Graceful end: peak RSS, `shutdown`, the subscriber reads to EOF, all
    /// processes exit on their own.
    pub fn finish(mut self) -> Result<Finished, String> {
        let stats = self.stats()?;
        let peak_rss_mib = self.cluster.peak_rss_mib();
        let reply = control(&mut self.ingest, &mut self.replies, "{\"op\":\"shutdown\"}")?;
        self.tally
            .check(reply.get("ok").and_then(Json::as_bool) == Some(true));
        let subscriber = self.join_subscriber();
        let mut clean = true;
        for p in self.cluster.procs.drain(..) {
            clean &= p.wait_exit(Duration::from_secs(10));
        }
        self.tally.check(clean);
        Ok(Finished {
            subscriber,
            stats,
            peak_rss_mib,
            tally: self.tally,
        })
    }

    fn join_subscriber(&mut self) -> SubscriberOut {
        self.subscriber
            .take()
            .expect("subscriber joined once")
            .join()
            .expect("subscriber thread panicked")
    }
}

/// `stream_len` of a binary `release` frame (`None` for other frames).
pub fn release_len(frame: &[u8]) -> Option<u64> {
    if frame.len() < 8 || frame[0] != 0xBF || frame[1] != 0x02 {
        return None;
    }
    let klen = u16::from_le_bytes([frame[6], frame[7]]) as usize;
    let at = 8 + klen;
    Some(u64::from_le_bytes(frame.get(at..at + 8)?.try_into().ok()?))
}

/// The per-node stats documents inside a `stats` reply: a node's own, or
/// each node's under a router's merged reply.
pub fn node_docs(stats: &Json) -> Vec<&Json> {
    match stats.get("nodes").and_then(Json::as_array) {
        Some(nodes) => nodes.iter().filter_map(|n| n.get("stats")).collect(),
        None => vec![stats],
    }
}

pub struct Finished {
    pub subscriber: SubscriberOut,
    pub stats: Json,
    pub peak_rss_mib: f64,
    pub tally: Tally,
}
