//! Fixed probes of the host, run before and after each workload, so a noisy
//! set of runs can be told from a slow program: ALU work that touches no
//! memory, a pointer chase through 1 MiB (inside any L2, so it prices the
//! neighbours' cache pressure, which is what moves this host), and a
//! thread wake-up round trip.

use std::sync::mpsc::channel;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct HostProbe {
    pub alu_ms: f64,
    pub mem_chase_ms: f64,
    pub wakeup_us: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn alu_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..20_000_000u32 {
        xorshift(&mut x);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

fn mem_chase_ms() -> f64 {
    // One cycle through 256 Ki slots (Sattolo's shuffle): every load
    // depends on the last.
    let n = 256 * 1024;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut s = 88_172_645_463_325_252u64;
    for i in (1..n).rev() {
        next.swap(i, (xorshift(&mut s) % i as u64) as usize);
    }
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..2_000_000u32 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median one-way wake-up: a second thread echoes 200 pings.
fn wakeup_us() -> f64 {
    let (ping_tx, ping_rx) = channel::<()>();
    let (pong_tx, pong_rx) = channel::<()>();
    let echo = std::thread::spawn(move || {
        while ping_rx.recv().is_ok() {
            if pong_tx.send(()).is_err() {
                break;
            }
        }
    });
    let mut trips: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            ping_tx.send(()).expect("echo thread alive");
            pong_rx.recv().expect("echo thread alive");
            t0.elapsed().as_secs_f64() * 1e6 / 2.0
        })
        .collect();
    drop(ping_tx);
    echo.join().expect("echo thread");
    trips.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    trips[trips.len() / 2]
}

pub fn probe() -> HostProbe {
    HostProbe {
        alu_ms: alu_ms(),
        mem_chase_ms: mem_chase_ms(),
        wakeup_us: wakeup_us(),
    }
}

impl HostProbe {
    /// The slower of two probes, field by field: a disturbance on either
    /// side of a workload shows.
    pub fn worst(self, other: HostProbe) -> HostProbe {
        HostProbe {
            alu_ms: self.alu_ms.max(other.alu_ms),
            mem_chase_ms: self.mem_chase_ms.max(other.mem_chase_ms),
            wakeup_us: self.wakeup_us.max(other.wakeup_us),
        }
    }
}

/// 1 when `path` is on tmpfs (from `/proc/self/mountinfo`, longest mount
/// point that prefixes the path), else 0.
pub fn on_tmpfs(path: &std::path::Path) -> u8 {
    let Ok(path) = path.canonicalize() else {
        return 0;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return 0;
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fs_type == "tmpfs"))
        })
        .max_by_key(|(len, _)| *len)
        .map_or(0, |(_, tmpfs)| u8::from(tmpfs))
}
