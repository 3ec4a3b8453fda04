//! Server processes: building `butterfly`, spawning it behind a port-file
//! handshake, reading its CPU and memory from `/proc`, and making sure no
//! child outlives the benchmark.

use crate::spec::serve_flags;
use bfly_serve::ServeConfig;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The checkout root: the working directory when it holds the workspace
/// (the driver always runs from there), else where this package was built.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    if cwd.join("Cargo.toml").is_file() && cwd.join("crates/serve").is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// `benchmark/out`, where everything the benchmark writes goes.
pub fn out_dir(root: &Path) -> PathBuf {
    let dir = root.join("benchmark").join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Build the `butterfly` binary (off every clock) and return its path.
pub fn build_butterfly(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "butterfly"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of butterfly failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("butterfly");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok(bin)
}

extern "C" {
    // glibc, which std already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread (and threads or processes it later starts)
/// to the CPUs in `mask` (bit `n` = CPU `n`; the first 64 CPUs).
fn set_affinity(mask: u64) -> std::io::Result<()> {
    // SAFETY: `mask` is a live 8-byte object and the size passed is its size.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Which CPUs the servers and the driver run on. The load generator must
/// not share a core with the system it loads: with both free to float over
/// this host's two vCPUs, byte-identical cycles cost 174–275 ms of server
/// CPU; with the servers on one and the driver on the other, 177–192 ms.
/// So when the process may run on two or more CPUs, the driver takes the
/// last of them and the servers the rest; on one CPU nothing is pinned.
#[derive(Clone, Copy, Debug)]
pub struct CpuPlan {
    /// Affinity mask for server processes (`None` = left alone).
    pub servers: Option<u64>,
    /// CPUs this process was allowed on before it pinned itself.
    pub cores: u32,
}

impl CpuPlan {
    /// Work the plan out from the CPUs this process is allowed on, and move
    /// the calling thread (the driver; threads it spawns inherit) onto its
    /// CPU.
    pub fn adopt() -> CpuPlan {
        let mut allowed = 0u64;
        // SAFETY: `allowed` is a live 8-byte object and the size passed is
        // its size; the kernel writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut allowed) };
        let cores = allowed.count_ones().max(1);
        let servers = (rc == 0 && cores >= 2)
            .then(|| 1u64 << (63 - allowed.leading_zeros()))
            .filter(|&driver| set_affinity(driver).is_ok())
            .map(|driver| allowed & !driver);
        CpuPlan { servers, cores }
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A unique directory under `benchmark/out`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out: &Path, label: &str) -> TempDir {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir = out.join(format!("tmp-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copy a directory tree (the killed WAL is replayed three times).
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// One `butterfly serve` child. Dropping it kills and reaps the process, so
/// a panic or a timeout anywhere above never leaks a server.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn a node (`role_flags` empty) or a router and block until the
    /// port file names its address.
    pub fn spawn(
        bin: &Path,
        cpus: CpuPlan,
        cfg: &ServeConfig,
        role_flags: &[String],
        dir: &Path,
        label: &str,
    ) -> Result<ServerProc, String> {
        let port_file = dir.join(format!("{label}.port"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(bin);
        if let Some(mask) = cpus.servers {
            // SAFETY: the closure runs in the forked child before exec and
            // makes one async-signal-safe system call on plain data it owns.
            unsafe {
                cmd.pre_exec(move || set_affinity(mask));
            }
        }
        let child = cmd
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(serve_flags(cfg))
            .args(role_flags)
            .arg("--port-file")
            .arg(&port_file)
            .env_remove("BFLY_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut proc = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("addr"),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    proc.addr = addr;
                    return Ok(proc);
                }
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("{label} exited before binding: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("{label} never wrote its port file"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for a drained server to exit on its own; `false` if it had to be
    /// killed after `limit`.
    pub fn wait_exit(mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return false, // Drop kills it
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// On-CPU nanoseconds of every thread of `pid`, from
/// `/proc/<pid>/task/*/schedstat` (first field). Exact at a drained cycle
/// edge, where the server's threads are all blocked.
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set (`VmHWM`) of `pid` in KiB.
pub fn peak_rss_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}
