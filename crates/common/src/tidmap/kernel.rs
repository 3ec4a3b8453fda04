//! Lane-width word kernels for the vertical support-counting engine.
//!
//! Every support query in the workspace bottoms out in a few loops over
//! `u64` words: AND, AND-NOT, fused AND+popcount, and the subset test.
//! This module is the single home of those loops. Each is written once,
//! `#[inline]`, over explicit `u64x8` lanes ([`LANES`] = 8 words = one
//! 64-byte cache line per operand per step) with independent accumulators,
//! so the compiler autovectorizes it to whatever vector width the build
//! target offers (SSE2 on baseline x86-64) and inlines it into callers in
//! other crates.
//!
//! There is one level and no runtime dispatch: a runtime-detected AVX2
//! recompilation of the same bodies wins in isolation from 32 words up, but
//! costs a call that cannot be inlined, and the win never reached an
//! end-to-end metric at the 8- and 32-word windows serve runs (DESIGN.md,
//! "Tidmap kernels"). The word-at-a-time loops the engine first shipped
//! with are the test reference (`scalar`, compiled for tests only).
//!
//! **Cache blocking.** Multi-operand probes (an itemset of `m` items over a
//! wide window) used to re-walk the full scratch buffer once per item:
//! `m` passes over `W/64` words, evicting L1 between passes once windows
//! pass ~256 K slots. [`and_many_count`] and [`masked_count`] instead
//! stream one [`BLOCK_WORDS`]-word block (4 KiB) through *all* operands
//! before advancing, so each scratch block is loaded into L1 once per
//! probe regardless of `m` — and a block that empties mid-chain skips its
//! remaining operands entirely (the early exit the full-width loop only
//! had globally).

/// Words per unrolled lane step: 8 × u64 = 512 bits = one cache line.
pub const LANES: usize = 8;

/// Words per cache block in the multi-operand kernels: 512 × 8 B = 4 KiB
/// per operand, so a scratch block plus a handful of operand blocks live in
/// a 32 KiB L1 at once.
pub const BLOCK_WORDS: usize = 512;

/// Popcount of a word slice.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    let mut lanes = [0u64; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for c in &mut chunks {
        for (acc, w) in lanes.iter_mut().zip(c) {
            *acc += w.count_ones() as u64;
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for w in chunks.remainder() {
        total += w.count_ones() as u64;
    }
    total
}

/// `dst &= src`, returning the resulting popcount (one fused pass).
#[inline]
pub fn and_inplace_count(dst: &mut [u64], src: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    let mut lanes = [0u64; LANES];
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for ((a, b), acc) in dc.iter_mut().zip(sc).zip(lanes.iter_mut()) {
            *a &= b;
            *acc += a.count_ones() as u64;
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a &= b;
        total += a.count_ones() as u64;
    }
    total
}

/// `dst &= !src`, returning the resulting popcount.
#[inline]
pub fn andnot_inplace_count(dst: &mut [u64], src: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    let mut lanes = [0u64; LANES];
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for ((a, b), acc) in dc.iter_mut().zip(sc).zip(lanes.iter_mut()) {
            *a &= !b;
            *acc += a.count_ones() as u64;
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a &= !b;
        total += a.count_ones() as u64;
    }
    total
}

/// Fused `|a & b|` without mutating either side.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0u64; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (x, y) in (&mut ac).zip(&mut bc) {
        for ((p, q), acc) in x.iter().zip(y).zip(lanes.iter_mut()) {
            *acc += (p & q).count_ones() as u64;
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for (p, q) in ac.remainder().iter().zip(bc.remainder()) {
        total += (p & q).count_ones() as u64;
    }
    total
}

/// `dst = a & b`, returning the popcount — one pass where copy-then-AND
/// took two (the Eclat DFS inner step).
#[inline]
pub fn assign_and_count(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    debug_assert!(dst.len() == a.len() && dst.len() == b.len());
    let mut lanes = [0u64; LANES];
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((dc, x), y) in (&mut d).zip(&mut ac).zip(&mut bc) {
        for (((o, p), q), acc) in dc.iter_mut().zip(x).zip(y).zip(lanes.iter_mut()) {
            *o = p & q;
            *acc += o.count_ones() as u64;
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for ((o, p), q) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *o = p & q;
        total += o.count_ones() as u64;
    }
    total
}

/// Subset test `sub ⊆ sup` with early exit per lane step: one uncovered bit
/// anywhere in an 8-word block aborts without touching the rest of the bitmap.
#[inline]
pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
    debug_assert_eq!(sub.len(), sup.len());
    let mut a = sub.chunks_exact(LANES);
    let mut b = sup.chunks_exact(LANES);
    for (x, y) in (&mut a).zip(&mut b) {
        let mut stray = 0u64;
        for (p, q) in x.iter().zip(y) {
            stray |= p & !q;
        }
        if stray != 0 {
            return false;
        }
    }
    a.remainder()
        .iter()
        .zip(b.remainder())
        .all(|(p, q)| p & !q == 0)
}

/// Cache-blocked multi-operand intersection: `dst = first & rest[0] & …`,
/// returning the popcount. Each [`BLOCK_WORDS`] block of `dst` streams
/// through every operand while it is hot, and a block that empties skips
/// its remaining operands.
#[inline]
pub fn and_many_count(dst: &mut [u64], first: &[u64], rest: &[&[u64]]) -> u64 {
    debug_assert_eq!(dst.len(), first.len());
    for r in rest {
        debug_assert_eq!(dst.len(), r.len());
    }
    let mut total = 0u64;
    let mut start = 0;
    while start < dst.len() {
        let end = (start + BLOCK_WORDS).min(dst.len());
        let block = &mut dst[start..end];
        let mut live = and_inplace_count_into(block, &first[start..end]);
        for r in rest {
            if live == 0 {
                break;
            }
            live = and_inplace_count(block, &r[start..end]);
        }
        total += live;
        start = end;
    }
    total
}

/// `dst = src` fused with the popcount (the first operand of a blocked
/// intersection needs a copy, not an AND).
#[inline]
fn and_inplace_count_into(dst: &mut [u64], src: &[u64]) -> u64 {
    let mut lanes = [0u64; LANES];
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for ((a, b), acc) in dc.iter_mut().zip(sc).zip(lanes.iter_mut()) {
            *a = *b;
            *acc += a.count_ones() as u64;
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a = *b;
        total += a.count_ones() as u64;
    }
    total
}

/// Cache-blocked AND-NOT count: `|base & !negs[0] & !negs[1] & …|` without
/// materializing the result. Read-only — the pattern path's final fused
/// popcount.
#[inline]
pub fn masked_count(base: &[u64], negs: &[&[u64]]) -> u64 {
    for n in negs {
        debug_assert_eq!(base.len(), n.len());
    }
    let mut total = 0u64;
    let mut start = 0;
    let mut block = [0u64; BLOCK_WORDS];
    while start < base.len() {
        let end = (start + BLOCK_WORDS).min(base.len());
        let b = &mut block[..end - start];
        let mut live = and_inplace_count_into(b, &base[start..end]);
        for n in negs {
            if live == 0 {
                break;
            }
            live = andnot_inplace_count(b, &n[start..end]);
        }
        total += live;
        start = end;
    }
    total
}

/// The word-at-a-time loops the engine first shipped with: the reference
/// the tests below hold every lane kernel to, bit for bit.
#[cfg(test)]
mod scalar {
    /// Reference popcount.
    pub fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Reference `dst &= src`, returning the popcount.
    pub fn and_inplace_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let mut ones = 0;
        for (a, b) in dst.iter_mut().zip(src) {
            *a &= b;
            ones += a.count_ones() as u64;
        }
        ones
    }

    /// Reference `dst &= !src`, returning the popcount.
    pub fn andnot_inplace_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let mut ones = 0;
        for (a, b) in dst.iter_mut().zip(src) {
            *a &= !b;
            ones += a.count_ones() as u64;
        }
        ones
    }

    /// Reference fused `|a & b|`.
    pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum()
    }

    /// Reference `dst = a & b`, returning the popcount.
    pub fn assign_and_count(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let mut ones = 0;
        for ((o, x), y) in dst.iter_mut().zip(a).zip(b) {
            *o = x & y;
            ones += o.count_ones() as u64;
        }
        ones
    }

    /// Reference subset test (word-level early exit).
    pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
        sub.iter().zip(sup).all(|(a, b)| a & !b == 0)
    }

    /// Reference multi-operand intersection count (full-width pass per
    /// operand — the exact pre-kernel `VerticalIndex::support` loop shape).
    pub fn and_many_count(dst: &mut [u64], first: &[u64], rest: &[&[u64]]) -> u64 {
        dst.copy_from_slice(first);
        let mut any = first.iter().any(|&w| w != 0);
        for r in rest {
            if !any {
                break;
            }
            let mut acc = 0u64;
            for (a, b) in dst.iter_mut().zip(*r) {
                *a &= b;
                acc |= *a;
            }
            any = acc != 0;
        }
        popcount(dst)
    }

    /// Reference masked count (per-word negative chain — the exact
    /// pre-kernel `pattern_support` accumulation).
    pub fn masked_count(base: &[u64], negs: &[&[u64]]) -> u64 {
        base.iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut word = w;
                for n in negs {
                    word &= !n[i];
                }
                word.count_ones() as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    fn words(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn every_op_agrees_with_scalar_on_random_words() {
        let mut rng = SmallRng::seed_from_u64(0xfeed);
        // 8 and 32 are the widths serve runs (W 500, W 2000); the rest
        // straddle the lane step and the cache block.
        for n in [0usize, 1, 7, 8, 9, 31, 32, 64, 513] {
            let a = words(&mut rng, n);
            let b = words(&mut rng, n);
            let c = words(&mut rng, n);
            let rest = [b.as_slice(), c.as_slice()];
            assert_eq!(popcount(&a), scalar::popcount(&a), "n={n}");
            assert_eq!(and_count(&a, &b), scalar::and_count(&a, &b));
            let mut d1 = a.clone();
            let mut d2 = a.clone();
            assert_eq!(
                and_inplace_count(&mut d1, &b),
                scalar::and_inplace_count(&mut d2, &b)
            );
            assert_eq!(d1, d2);
            let mut d1 = a.clone();
            let mut d2 = a.clone();
            assert_eq!(
                andnot_inplace_count(&mut d1, &b),
                scalar::andnot_inplace_count(&mut d2, &b)
            );
            assert_eq!(d1, d2);
            let mut d1 = vec![0; n];
            let mut d2 = vec![0; n];
            assert_eq!(
                assign_and_count(&mut d1, &a, &b),
                scalar::assign_and_count(&mut d2, &a, &b)
            );
            assert_eq!(d1, d2);
            let mut d1 = vec![0; n];
            let mut d2 = vec![0; n];
            assert_eq!(
                and_many_count(&mut d1, &a, &rest),
                scalar::and_many_count(&mut d2, &a, &rest)
            );
            assert_eq!(d1, d2);
            assert_eq!(masked_count(&a, &rest), scalar::masked_count(&a, &rest));
            assert_eq!(is_subset(&a, &b), scalar::is_subset(&a, &b));
            let mut sub = a.clone();
            let _ = and_inplace_count(&mut sub, &b);
            assert!(is_subset(&sub, &b), "a&b ⊆ b at n={n}");
        }
    }

    #[test]
    fn blocked_kernels_cross_block_boundaries() {
        let mut rng = SmallRng::seed_from_u64(3);
        // Spans > BLOCK_WORDS exercise the block loop and the empty-block
        // operand skip (zero stretches are common in sparse tid maps).
        let n = BLOCK_WORDS * 2 + 17;
        let mut a = words(&mut rng, n);
        for w in a.iter_mut().take(BLOCK_WORDS) {
            *w = 0; // first block empties immediately
        }
        let b = words(&mut rng, n);
        let c = words(&mut rng, n);
        let rest = [b.as_slice(), c.as_slice()];
        let mut d1 = vec![0; n];
        let mut d2 = vec![0; n];
        assert_eq!(
            and_many_count(&mut d1, &a, &rest),
            scalar::and_many_count(&mut d2, &a, &rest)
        );
        assert_eq!(d1, d2);
        assert_eq!(masked_count(&a, &rest), scalar::masked_count(&a, &rest));
    }
}
