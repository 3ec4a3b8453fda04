//! The one harness for every test that starts a server, in process or as a
//! spawned `butterfly serve`, linked only into tests:
//!
//! * [`records`] — a profile's seeded stream as the records a client
//!   ingests;
//! * [`cadence`] and [`served_lines`] — the in-process oracle: a
//!   [`StreamPipeline`] driven the way a serve shard drives it, and the
//!   [`release_line`]s a subscriber reads of it;
//! * [`serve_args`] — the `butterfly serve` flags that reproduce a
//!   [`ServeConfig`], so a spawned node and its oracle come from one value;
//! * [`Served`] — a spawned `butterfly serve`, found through the port-file
//!   handshake and killed on drop, with its logs in a [`TempDir`];
//! * [`subscribe`], [`ingest`], [`until_closed`] and [`wait_processed`] —
//!   a client's side of a node or a router.

use bfly_common::{ItemSet, Json, Transaction};
use bfly_core::{BiasScheme, SanitizedRelease, StreamPipeline, WindowRelease};
use bfly_datagen::DatasetProfile;
use bfly_serve::protocol::{closed_event, release_frame_bytes, CatchUp};
use bfly_serve::{Client, FrameMode, Request, ServeConfig, WalConfig};
use std::ffi::OsStr;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a test waits for a server to bind or to catch up.
const DEADLINE: Duration = Duration::from_secs(20);

/// The first `n` records of `profile`'s stream under `seed`.
pub fn records(profile: DatasetProfile, seed: u64, n: usize) -> Vec<ItemSet> {
    let source = profile.source(seed).take_vec(n);
    source.into_iter().map(Transaction::into_items).collect()
}

/// The NDJSON `release` line a subscriber reads for one publication.
pub fn release_line(stream: &str, stream_len: u64, release: &SanitizedRelease) -> String {
    let line = release_frame_bytes(FrameMode::Json, stream, stream_len, release);
    let line = String::from_utf8(line.to_vec()).expect("an NDJSON line is UTF-8");
    line.trim_end().to_string()
}

/// Feed `records` to `pipe` the way a serve shard does: each record
/// advances the stream, and the window publishes whenever the `every`
/// cadence is due. The publications, in order.
pub fn cadence(pipe: &mut StreamPipeline, records: &[ItemSet], every: usize) -> Vec<WindowRelease> {
    let mut released = Vec::new();
    for items in records {
        pipe.advance_items(items.items());
        if pipe.due(every) {
            released.push(pipe.publish_now().expect("full window"));
        }
    }
    released
}

/// What a subscriber to `stream` reads when `records` are fed to `pipe`
/// and the node then drains: the [`cadence`] releases, plus the drain's
/// flush if the stream owes one, as [`release_line`]s.
pub fn served_lines(
    pipe: &mut StreamPipeline,
    stream: &str,
    records: &[ItemSet],
    every: usize,
) -> Vec<String> {
    let mut released = cadence(pipe, records, every);
    released.extend(pipe.flush());
    let line = |r: &WindowRelease| release_line(stream, r.stream_len, &r.release);
    released.iter().map(line).collect()
}

/// The `butterfly serve` flags that reproduce `cfg`, `--seed` included.
///
/// # Panics
/// On a knob the CLI cannot express: a `queue_cap` other than the
/// default, or WAL segment bounds or a `keep_segments` other than
/// [`WalConfig::new`]'s.
pub fn serve_args(cfg: &ServeConfig) -> Vec<String> {
    let mut args = unseeded_serve_args(cfg);
    args.extend(["--seed".into(), cfg.seed.to_string()]);
    args
}

/// [`serve_args`] without `--seed`: a node that draws its own secret.
pub fn unseeded_serve_args(cfg: &ServeConfig) -> Vec<String> {
    // Destructured, so a new field fails to compile until it has a flag.
    let ServeConfig {
        shards,
        window,
        c,
        k,
        epsilon,
        delta,
        scheme,
        defense,
        every,
        snapshot_every,
        queue_cap,
        max_frame_bytes,
        seed: _,
        wal,
        role,
        nodes,
    } = cfg;
    assert_eq!(
        *queue_cap,
        ServeConfig::default().queue_cap,
        "serve has no --queue-cap"
    );
    let mut flags: Vec<(&str, String)> = vec![
        ("shards", shards.to_string()),
        ("window", window.to_string()),
        ("min-support", c.to_string()),
        ("vulnerable", k.to_string()),
        ("epsilon", epsilon.to_string()),
        ("delta", delta.to_string()),
        ("every", every.to_string()),
        ("snapshot-every", snapshot_every.to_string()),
        ("max-frame-bytes", max_frame_bytes.to_string()),
        ("defense", defense.kind.name().into()),
        ("dp-budget", defense.dp_budget.to_string()),
        ("dp-top-k", defense.dp_top_k.to_string()),
        ("role", role.name().into()),
    ];
    match *scheme {
        BiasScheme::Basic => flags.push(("scheme", "basic".into())),
        BiasScheme::RatioPreserving => flags.push(("scheme", "ratio".into())),
        BiasScheme::OrderPreserving { gamma } => {
            flags.extend([("scheme", "order".into()), ("gamma", gamma.to_string())]);
        }
        BiasScheme::Hybrid { lambda, gamma } => flags.extend([
            ("scheme", "hybrid".into()),
            ("lambda", lambda.to_string()),
            ("gamma", gamma.to_string()),
        ]),
    }
    if !nodes.is_empty() {
        let list: Vec<String> = nodes.iter().map(SocketAddr::to_string).collect();
        flags.push(("nodes", list.join(",")));
    }
    if let Some(wal) = wal {
        let flagged = WalConfig {
            sync: wal.sync,
            ..WalConfig::new(&wal.dir)
        };
        assert_eq!(
            *wal, flagged,
            "serve has flags for a WAL's dir and sync only"
        );
        let dir = wal.dir.to_str().expect("a UTF-8 WAL dir");
        flags.extend([("wal-dir", dir.into()), ("wal-sync", wal.sync.name())]);
    }
    let flag = |(name, value): (&str, String)| [format!("--{name}"), value];
    flags.into_iter().flat_map(flag).collect()
}

/// `bin serve` on an ephemeral port, handing its bound address over in
/// `port_file` (written by rename), with `args` after.
pub fn serve_command<S: AsRef<OsStr>>(bin: &str, port_file: &Path, args: &[S]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--port-file"])
        .arg(port_file)
        .args(args);
    cmd
}

/// A spawned `butterfly serve`: killed (SIGKILL, so no drain runs) and
/// reaped on drop, so a failing assertion never leaks a server.
pub struct Served {
    child: Child,
    /// The address the port-file handshake delivered.
    pub addr: SocketAddr,
}

impl Served {
    /// [`Served::start`] a server that must bind.
    pub fn spawn<S: AsRef<OsStr>>(bin: &str, port_file: &Path, args: &[S]) -> Served {
        Served::start(bin, port_file, args)
            .unwrap_or_else(|status| panic!("serve exited before binding: {status}"))
    }

    /// Start [`serve_command`], its stderr appended to `port_file` with
    /// the extension `log`, and block until the handshake delivers the
    /// bound address.
    ///
    /// # Errors
    /// The exit status of a server that exits before binding: a refusal.
    pub fn start<S: AsRef<OsStr>>(
        bin: &str,
        port_file: &Path,
        args: &[S],
    ) -> Result<Served, ExitStatus> {
        let _ = std::fs::remove_file(port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(port_file.with_extension("log"))
            .expect("stderr log");
        let child = serve_command(bin, port_file, args)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn butterfly serve");
        let mut served = Served {
            child,
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
        };
        let deadline = Instant::now() + DEADLINE;
        loop {
            // The file appears by rename, so a visible one holds the whole
            // address line.
            let text = std::fs::read_to_string(port_file).unwrap_or_default();
            if let Ok(addr) = text.trim().parse() {
                served.addr = addr;
                return Ok(served);
            }
            if let Some(status) = served.child.try_wait().expect("poll serve") {
                return Err(status);
            }
            assert!(Instant::now() < deadline, "serve never wrote its port file");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The process id (for `/proc` probes and signals).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to exit on its own, after a drain, and require
    /// that it exit 0 (the final sync ran).
    pub fn join(mut self) {
        let status = self.child.wait().expect("serve exit status");
        assert!(status.success(), "serve exited {status}");
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh directory for one test's WAL dirs, port files and logs, removed
/// on drop unless the test is failing (what it holds is then the evidence).
pub struct TempDir(PathBuf);

impl TempDir {
    /// An empty `<tag>-<pid>` under the system temp dir.
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test dir");
        TempDir(dir)
    }

    /// `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A connection to `addr` whose subscription to `stream` (in `frame` mode,
/// catching up `from` the log if given) was acknowledged.
pub fn subscribe(
    addr: SocketAddr,
    stream: &str,
    frame: FrameMode,
    from: Option<CatchUp>,
) -> Client {
    let mut sub = Client::connect(addr).expect("subscriber connect");
    let ack = sub
        .request(&Request::Subscribe {
            stream: stream.into(),
            frame,
            from,
        })
        .expect("subscribe ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{stream}: {ack}");
    sub
}

/// Ingest `batch` into `stream` over `client`; the reply.
pub fn ingest(client: &mut Client, stream: &str, batch: &[ItemSet]) -> Json {
    let request = Request::Ingest {
        stream: stream.into(),
        batch: batch.to_vec(),
    };
    client.request(&request).expect("ingest reply")
}

/// Read `sub`'s events, in either encoding, up to `stream`'s `closed`
/// event, which must be exactly [`closed_event`]; the events before it.
pub fn until_closed(sub: &mut Client, stream: &str) -> Vec<String> {
    let mut received = Vec::new();
    loop {
        let event = sub
            .next_event()
            .expect("subscriber read")
            .expect("closed event before EOF");
        if event.get("event").and_then(Json::as_str) == Some("closed") {
            assert_eq!(event.to_string(), closed_event(stream).to_string());
            return received;
        }
        received.push(event.to_string());
    }
}

/// Records a `stats` reply counts as processed: a node's summed over its
/// shards, a router's over every reachable node's.
fn processed(stats: &Json) -> u64 {
    let shards = |node: &Json| -> u64 {
        let rows = node.get("per_shard").and_then(Json::as_array);
        let rows = rows.expect("per_shard").iter();
        rows.map(|s| s.get("processed").and_then(Json::as_u64).unwrap_or(0))
            .sum()
    };
    match stats.get("nodes").and_then(Json::as_array) {
        Some(nodes) => nodes
            .iter()
            .filter(|n| n.get("ok") == Some(&Json::Bool(true)))
            .map(|n| shards(n.get("stats").expect("a reachable node's stats")))
            .sum(),
        None => shards(stats),
    }
}

/// Block until the node or router behind `control` has processed at least
/// `want` records.
pub fn wait_processed(control: &mut Client, want: u64) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let stats = control.request(&Request::Stats).expect("stats reply");
        let processed = processed(&stats);
        if processed >= want {
            return;
        }
        assert!(Instant::now() < deadline, "stuck at {processed}/{want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
