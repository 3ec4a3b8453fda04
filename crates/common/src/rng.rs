//! Self-contained deterministic PRNG for the workspace.
//!
//! The container builds offline, so the workspace carries its own generator
//! instead of depending on the `rand` crate: a xoshiro256++ core seeded via
//! SplitMix64 (Blackman & Vigna's recommended construction). Statistical
//! quality is far beyond what the perturbation and datagen code needs, and
//! seeding is reproducible across platforms — the property every experiment
//! and test in this repo leans on.

/// Minimal random-source trait: everything derives from `next_u64`.
/// Generic samplers (`Laplace`, `NoiseRegion`, `Zipf`) bound on `R: Rng +
/// ?Sized` so they work with any source, mirroring how they were originally
/// written against the `rand` crate.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform integer in the inclusive range `lo ..= hi`.
    ///
    /// # Panics
    /// If `lo > hi`.
    fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.gen_below(span) as i64)
    }

    /// Uniform integer in `0 .. n`.
    ///
    /// # Panics
    /// If `n == 0`.
    fn gen_range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range 0..0");
        self.gen_below(n as u64) as usize
    }

    /// Uniform integer in `0 .. n` (`n > 0`) by Lemire-style rejection —
    /// unbiased for every span.
    fn gen_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Rejection zone keeps the multiply-shift map exactly uniform.
        let zone = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = x as u128 * n as u128;
            if (m as u64) >= zone || zone == 0 {
                return (m >> 64) as u64;
            }
        }
    }
}

/// The workspace's default PRNG: xoshiro256++.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Deterministically seed from a single `u64` (SplitMix64 expansion, as
    /// the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derive an independent per-task stream from `(seed, stream)`.
    ///
    /// Parallel code must never draw from one shared sequential generator —
    /// the interleaving would depend on scheduling. Instead each task `i` of
    /// a seeded computation takes `SmallRng::split_stream(seed, i)`: the
    /// stream index is whitened through SplitMix64 before being folded into
    /// the seed, so neighbouring indices land far apart in seed space and
    /// the mapping is a pure function of `(seed, stream)` — identical no
    /// matter how many threads run or in what order tasks complete (see
    /// `bfly_common::pool`'s determinism contract).
    pub fn split_stream(seed: u64, stream: u64) -> Self {
        let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SmallRng::seed_from_u64(seed ^ z.rotate_left(17))
    }
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

impl Rng for &mut SmallRng {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A seed no one else holds, from `/dev/urandom`: what a deployment keys
/// its noise on when given none. An unreadable source is an error, never a
/// fixed or clock-derived fallback.
pub fn os_seed() -> std::io::Result<u64> {
    let mut bytes = [0u8; 8];
    std::io::Read::read_exact(&mut std::fs::File::open("/dev/urandom")?, &mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval_with_sane_mean() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_draws_cover_inclusive_bounds_uniformly() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let v = rng.gen_range_i64(-3, 3);
            counts[(v + 3) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 700.0,
                "bucket {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 50_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        let mut rng2 = SmallRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng2.gen_bool(0.0)));
        let mut rng3 = SmallRng::seed_from_u64(2);
        assert!((0..100).all(|_| rng3.gen_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_rejected() {
        SmallRng::seed_from_u64(0).gen_range_i64(2, 1);
    }

    #[test]
    fn os_seeds_differ() {
        assert_ne!(os_seed().unwrap(), os_seed().unwrap());
    }

    #[test]
    fn split_streams_are_deterministic_and_distinct() {
        let mut a = SmallRng::split_stream(42, 3);
        let mut b = SmallRng::split_stream(42, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Different stream indices (and different seeds) diverge immediately
        // and stay decorrelated over a long prefix.
        let mut streams: Vec<SmallRng> = (0..8).map(|i| SmallRng::split_stream(42, i)).collect();
        let firsts: Vec<u64> = streams.iter_mut().map(|r| r.next_u64()).collect();
        for i in 0..firsts.len() {
            for j in (i + 1)..firsts.len() {
                assert_ne!(firsts[i], firsts[j], "streams {i} and {j} collide");
            }
        }
        assert_ne!(
            SmallRng::split_stream(42, 0).next_u64(),
            SmallRng::split_stream(43, 0).next_u64()
        );
    }
}
