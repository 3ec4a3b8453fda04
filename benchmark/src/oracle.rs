//! The reference computation: `ServeConfig::pipeline_for(key)` fed the same
//! records in-process, publishing on the shard worker's cadence and
//! serialising with the server's own frame functions. The live feed must
//! match it byte for byte; it is also the single-threaded baseline of every
//! workload.

use crate::data::Dataset;
use crate::spec::Workload;
use bfly_common::hash::Fnv1a;
use bfly_common::{FrameMode, Transaction};
use bfly_core::{audit_release, WindowRelease};
use bfly_serve::protocol::{release_delta_frame_bytes, release_frame_bytes};
use bfly_serve::ServeConfig;
use std::time::{Duration, Instant};

/// What the oracle saw for one key.
pub struct KeyOracle {
    /// One digest per release slide, computed exactly as the subscriber
    /// thread computes them.
    pub slide_digests: Vec<u64>,
    /// Full `release` snapshot bytes (binary) per release slide, kept only
    /// when asked for: what a catch-up read must return.
    pub snapshots: Vec<(u64, Vec<u8>)>,
}

pub struct Oracle {
    pub keys: Vec<KeyOracle>,
    pub audit_violations: u64,
    /// Pipeline time (advance + publish, all keys) of the fastest of the
    /// last `timed_cycles` periods.
    pub period_floor: Duration,
}

/// The wire bytes one publication fans out, in order: the shard worker's
/// `emit_publication` cadence.
pub fn publication_frames(
    cfg: &ServeConfig,
    mode: FrameMode,
    key: &str,
    published: u64,
    last_len: u64,
    release: &WindowRelease,
) -> Vec<std::sync::Arc<[u8]>> {
    let mut frames = Vec::with_capacity(2);
    if cfg.snapshot_every > 1 {
        frames.push(release_delta_frame_bytes(
            mode,
            key,
            release.stream_len,
            last_len,
            &release.delta,
        ));
    }
    if cfg.snapshot_every <= 1 || published.is_multiple_of(cfg.snapshot_every as u64) {
        frames.push(release_frame_bytes(
            mode,
            key,
            release.stream_len,
            &release.release,
        ));
    }
    frames
}

/// Replay `fill + cycles` periods of every key. The last `timed_cycles`
/// periods are timed (pipeline calls only) and the fastest kept.
pub fn replay(
    w: &Workload,
    data: &Dataset,
    cycles: usize,
    timed_cycles: usize,
    keep_snapshots: bool,
) -> Oracle {
    let cfg = w.serve_config(None);
    let mode = w.frame_mode();
    let spc = w.slides_per_cycle();
    let total_slides = w.fill_slides() + cycles * spc;
    let timed_from = total_slides - timed_cycles * spc;
    // Per timed period, pipeline time summed over keys.
    let mut periods = vec![Duration::ZERO; timed_cycles];
    let mut out = Oracle {
        keys: Vec::new(),
        audit_violations: 0,
        period_floor: Duration::ZERO,
    };
    for stream in &data.streams {
        let mut pipe = cfg.pipeline_for(&stream.key);
        let mut key = KeyOracle {
            slide_digests: Vec::new(),
            snapshots: Vec::new(),
        };
        let (mut published, mut last_len) = (0u64, 0u64);
        for slide in 0..total_slides {
            let t0 = Instant::now();
            let mut release = None;
            for items in &stream.batches[slide % spc] {
                pipe.advance(Transaction::new(0, items.clone()));
                if pipe.window().is_full() && pipe.since_publish() >= cfg.every {
                    release = Some(pipe.publish_now().expect("full window"));
                }
            }
            if slide >= timed_from {
                periods[(slide - timed_from) / spc] += t0.elapsed();
            }
            let Some(release) = release else { continue };
            out.audit_violations += audit_release(&cfg.spec(), &release.release).len() as u64;
            let mut hasher = Fnv1a::new();
            for frame in publication_frames(&cfg, mode, &stream.key, published, last_len, &release)
            {
                hasher.write(&frame);
            }
            key.slide_digests.push(hasher.finish());
            if keep_snapshots {
                let snapshot = release_frame_bytes(
                    FrameMode::Binary,
                    &stream.key,
                    release.stream_len,
                    &release.release,
                );
                key.snapshots.push((release.stream_len, snapshot.to_vec()));
            }
            published += 1;
            last_len = release.stream_len;
        }
        out.keys.push(key);
    }
    out.period_floor = periods.into_iter().min().unwrap_or_default();
    out
}
