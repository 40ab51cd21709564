//! Unrolled wide-word signature kernels for candidate generation.
//!
//! Candidate pre-ranking spends its time comparing simulation
//! signatures: wire candidates need the Hamming distance between two
//! signatures, and binary/ternary resubstitution needs per-region
//! pattern counts over two or three divisor signatures. The kernels here
//! consume the signatures in unrolled strips of [`STRIP`] words with
//! narrow per-strip accumulators — the same fused-row idiom as the
//! `errmetrics` error kernels — and allocate nothing.
//!
//! Every kernel is *integer-exact*: it accumulates `count_ones` terms
//! that sum to the counts a word-by-word scan would produce, so
//! candidate rankings (and hence everything downstream) stay
//! bit-identical. Tail masking mirrors `bitsim::popcount`: full words
//! count whole, the final partial word is masked to `n_patterns % 64`
//! bits.
//!
//! Two kernels do less work than a direct scan (DESIGN.md §16):
//!
//! - [`and_counts`] is the only per-pair kernel of binary
//!   resubstitution. The four region totals and target-ones of a divisor
//!   pair follow by inclusion–exclusion ([`tt2_regions`]) from per-node
//!   counts plus `|a & b|` and `|t & a & b|`: two popcounts per word per
//!   pair instead of eight.
//! - [`xor_distance_within`] abandons a wire probe once both its
//!   differing and its agreeing counts exceed a bound, which the caller
//!   sets to a distance that can no longer make the kept top set.
//!
//! # Hardware popcount
//!
//! The default `x86_64` target does not assume POPCNT, so `count_ones`
//! compiles to a bit-twiddling sequence. Each kernel is therefore one
//! `#[inline(always)]` body compiled twice: inlined into a plain public
//! entry point, and into a `#[target_feature(enable = "popcnt")]` twin.
//! The entry point calls the twin when the running CPU reports POPCNT
//! (`is_x86_feature_detected!`, a cached flag), so the build needs no
//! flags and still runs on CPUs without the instruction. Both variants
//! compute the same integers.

/// Words per unrolled strip. Eight 64-bit words = one 512-bit row.
pub(crate) const STRIP: usize = 8;

/// Mask of the valid bits in the partial final word (`rem` in 1..64).
fn tail_mask(rem: usize) -> u64 {
    (1u64 << rem) - 1
}

/// Declares a kernel entry point `$name` that runs `$body` with
/// hardware POPCNT when available (via the `$hw` twin) and portably
/// otherwise.
macro_rules! popcnt_kernel {
    (
        $(#[$doc:meta])*
        fn $name:ident / $hw:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty
    ) => {
        /// The kernel body compiled with POPCNT enabled. Calling it is
        /// sound only on a CPU that supports POPCNT.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "popcnt")]
        pub(crate) fn $hw($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }

        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: the twin differs from the portable body only
                // in enabling POPCNT, which the running CPU has just
                // been detected to support.
                return unsafe { $hw($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

popcnt_kernel! {
    /// Number of patterns where signatures `a` and `b` differ — a fused
    /// XOR + popcount — or `None` once the scan proves that both that
    /// distance `d` and its complement `n_patterns - d` exceed `bound`.
    ///
    /// After each [`STRIP`], a probe is abandoned when its differing
    /// *and* its agreeing counts so far are both strictly greater than
    /// `bound`: they only grow, so the final `d` and `n_patterns - d`
    /// would both exceed it. Hence the result is `Some(d)`, exact,
    /// whenever `min(d, n_patterns - d) <= bound`; `usize::MAX` never
    /// abandons.
    fn xor_distance_within / xor_distance_within_hw = xor_distance_within_body(
        a: &[u64],
        b: &[u64],
        n_patterns: usize,
        bound: usize,
    ) -> Option<usize>
}

#[inline(always)]
fn xor_distance_within_body(
    a: &[u64],
    b: &[u64],
    n_patterns: usize,
    bound: usize,
) -> Option<usize> {
    let full = n_patterns / 64;
    let words = n_patterns.div_ceil(64);
    let (a, b) = (&a[..words], &b[..words]);
    let mut count = 0usize;
    let mut seen = 0usize;
    let strips = a[..full]
        .chunks_exact(STRIP)
        .zip(b[..full].chunks_exact(STRIP));
    for (sa, sb) in strips {
        // A strip holds at most 512 set bits, so `u32` cannot overflow.
        let mut acc = 0u32;
        for k in 0..STRIP {
            acc += (sa[k] ^ sb[k]).count_ones();
        }
        count += acc as usize;
        seen += STRIP * 64;
        if count > bound && seen - count > bound {
            return None;
        }
    }
    for w in full - full % STRIP..full {
        count += (a[w] ^ b[w]).count_ones() as usize;
    }
    let rem = n_patterns % 64;
    if rem != 0 {
        count += ((a[full] ^ b[full]) & tail_mask(rem)).count_ones() as usize;
    }
    Some(count)
}

popcnt_kernel! {
    /// `(|x & y|, |x & y & t|)` over the first `n_patterns` patterns.
    /// With `y = x` this is a single signature's `(|x|, |x & t|)`.
    fn and_counts / and_counts_hw = and_counts_body(
        x: &[u64],
        y: &[u64],
        t: &[u64],
        n_patterns: usize,
    ) -> (usize, usize)
}

#[inline(always)]
fn and_counts_body(x: &[u64], y: &[u64], t: &[u64], n_patterns: usize) -> (usize, usize) {
    let full = n_patterns / 64;
    let words = n_patterns.div_ceil(64);
    let (x, y, t) = (&x[..words], &y[..words], &t[..words]);
    let (mut both, mut with_t) = (0usize, 0usize);
    let strips = x[..full]
        .chunks_exact(STRIP)
        .zip(y[..full].chunks_exact(STRIP))
        .zip(t[..full].chunks_exact(STRIP));
    for ((sx, sy), st) in strips {
        let (mut b_acc, mut t_acc) = (0u32, 0u32);
        for k in 0..STRIP {
            let xy = sx[k] & sy[k];
            b_acc += xy.count_ones();
            t_acc += (xy & st[k]).count_ones();
        }
        both += b_acc as usize;
        with_t += t_acc as usize;
    }
    let mut scan = |w: usize, mask: u64| {
        let xy = x[w] & y[w] & mask;
        both += xy.count_ones() as usize;
        with_t += (xy & t[w]).count_ones() as usize;
    };
    for w in full - full % STRIP..full {
        scan(w, u64::MAX);
    }
    let rem = n_patterns % 64;
    if rem != 0 {
        scan(full, tail_mask(rem));
    }
    (both, with_t)
}

/// Per-region target-ones and totals of a divisor pair `(a, b)`, region
/// `r` being the patterns where `(a, b)` equal the bits of `r` — the
/// `(ones, totals)` a direct four-region scan returns — assembled from
/// popcounts by inclusion–exclusion: `t_ones = |t|`, `a = (|a|, |a & t|)`,
/// `b = (|b|, |b & t|)` and `ab = (|a & b|, |a & b & t|)`, all over
/// `n_patterns` patterns. Each sum is formed before its subtractions, so
/// no intermediate underflows.
pub(crate) fn tt2_regions(
    n_patterns: usize,
    t_ones: usize,
    a: (usize, usize),
    b: (usize, usize),
    ab: (usize, usize),
) -> ([usize; 4], [usize; 4]) {
    let totals = [n_patterns + ab.0 - a.0 - b.0, a.0 - ab.0, b.0 - ab.0, ab.0];
    let ones = [t_ones + ab.1 - a.1 - b.1, a.1 - ab.1, b.1 - ab.1, ab.1];
    (ones, totals)
}

popcnt_kernel! {
    /// Per-region target-ones and totals over the eight input regions of
    /// a divisor triple: region `m` of word `w` is the patterns where
    /// `(s1, s2, s3)` equal the bits of `m`. Returns `(ones, totals)`.
    fn tt3_counts / tt3_counts_hw = tt3_counts_body(
        st: &[u64],
        s1: &[u64],
        s2: &[u64],
        s3: &[u64],
        n_patterns: usize,
    ) -> ([usize; 8], [usize; 8])
}

#[inline(always)]
fn tt3_counts_body(
    st: &[u64],
    s1: &[u64],
    s2: &[u64],
    s3: &[u64],
    n_patterns: usize,
) -> ([usize; 8], [usize; 8]) {
    let mut ones = [0usize; 8];
    let mut totals = [0usize; 8];
    let full = n_patterns / 64;
    let mut w = 0;
    while w + STRIP <= full {
        let mut t_acc = [0u32; 8];
        let mut o_acc = [0u32; 8];
        for k in 0..STRIP {
            let (a, b, c, t) = (s1[w + k], s2[w + k], s3[w + k], st[w + k]);
            for m in 0..8usize {
                let ra = if m & 1 != 0 { a } else { !a };
                let rb = if m & 2 != 0 { b } else { !b };
                let rc = if m & 4 != 0 { c } else { !c };
                let reg = ra & rb & rc;
                t_acc[m] += reg.count_ones();
                o_acc[m] += (reg & t).count_ones();
            }
        }
        for m in 0..8 {
            totals[m] += t_acc[m] as usize;
            ones[m] += o_acc[m] as usize;
        }
        w += STRIP;
    }
    let mut scan = |w: usize, mask: u64| {
        let (a, b, c, t) = (s1[w], s2[w], s3[w], st[w] & mask);
        for m in 0..8usize {
            let ra = if m & 1 != 0 { a } else { !a };
            let rb = if m & 2 != 0 { b } else { !b };
            let rc = if m & 4 != 0 { c } else { !c };
            let reg = ra & rb & rc & mask;
            totals[m] += reg.count_ones() as usize;
            ones[m] += (reg & t).count_ones() as usize;
        }
    };
    while w < full {
        scan(w, u64::MAX);
        w += 1;
    }
    let rem = n_patterns % 64;
    if rem != 0 {
        scan(full, tail_mask(rem));
    }
    (ones, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::popcount;
    use prng::{rngs::StdRng, Rng, SeedableRng};

    fn random_sig(rng: &mut StdRng, words: usize) -> Vec<u64> {
        (0..words).map(|_| rng.gen()).collect()
    }

    /// The direct four-region scan of a divisor pair, `(ones, totals)`.
    fn tt2_counts(st: &[u64], s1: &[u64], s2: &[u64], n: usize) -> ([usize; 4], [usize; 4]) {
        let mut ones = [0usize; 4];
        let mut totals = [0usize; 4];
        for w in 0..n.div_ceil(64) {
            let rem = n - w * 64;
            let mask = if rem >= 64 { u64::MAX } else { tail_mask(rem) };
            let (a, b, t) = (s1[w], s2[w], st[w]);
            for (r, reg) in [!a & !b, a & !b, !a & b, a & b].into_iter().enumerate() {
                totals[r] += (reg & mask).count_ones() as usize;
                ones[r] += (reg & mask & t).count_ones() as usize;
            }
        }
        (ones, totals)
    }

    fn xor_distance(a: &[u64], b: &[u64], n: usize) -> usize {
        xor_distance_within(a, b, n, usize::MAX).expect("an unbounded scan never abandons")
    }

    #[test]
    fn xor_distance_matches_scalar_popcount() {
        let mut rng = StdRng::seed_from_u64(0x57121);
        // Pattern counts straddling strip boundaries and partial words.
        for &n in &[1usize, 63, 64, 65, 512, 513, 576, 1000, 2048] {
            let words = n.div_ceil(64);
            let a = random_sig(&mut rng, words);
            let b = random_sig(&mut rng, words);
            let xs: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(xor_distance(&a, &b, n), popcount(&xs, n), "n={n}");
        }
    }

    #[test]
    fn xor_distance_within_is_exact_inside_the_bound() {
        let mut rng = StdRng::seed_from_u64(0x57122);
        for &n in &[1usize, 63, 64, 65, 513, 2048, 4096] {
            let words = n.div_ceil(64);
            let a = random_sig(&mut rng, words);
            for flip in [0.0, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 1.0] {
                // `b` differs from `a` in about `flip` of the patterns,
                // so `d` sweeps the whole range, including the near-0
                // and near-n regimes where a probe must survive.
                let b: Vec<u64> = a
                    .iter()
                    .map(|&w| {
                        let m =
                            (0..64).fold(0u64, |m, i| m | ((rng.gen::<f64>() < flip) as u64) << i);
                        w ^ m
                    })
                    .collect();
                let d = xor_distance(&a, &b, n);
                let near = d.min(n - d);
                for bound in [0, near.saturating_sub(1), near, near + 1, n / 4, n / 2, n] {
                    let got = xor_distance_within(&a, &b, n, bound);
                    if near <= bound {
                        assert_eq!(got, Some(d), "n={n} d={d} bound={bound}");
                    } else if let Some(x) = got {
                        assert_eq!(x, d, "n={n} d={d} bound={bound}: inexact Some");
                    }
                }
            }
        }
    }

    #[test]
    fn factored_pair_counts_match_direct_scan() {
        let mut rng = StdRng::seed_from_u64(0x57124);
        for &n in &[1usize, 63, 64, 65, 513, 2048] {
            let words = n.div_ceil(64);
            for _ in 0..4 {
                let st = random_sig(&mut rng, words);
                // A sparse and a dense divisor exercise lopsided regions.
                let s1: Vec<u64> = (0..words)
                    .map(|_| rng.gen::<u64>() & rng.gen::<u64>())
                    .collect();
                let s2: Vec<u64> = (0..words)
                    .map(|_| rng.gen::<u64>() | rng.gen::<u64>())
                    .collect();
                let t_ones = and_counts(&st, &st, &st, n).0;
                let got = tt2_regions(
                    n,
                    t_ones,
                    and_counts(&s1, &s1, &st, n),
                    and_counts(&s2, &s2, &st, n),
                    and_counts(&s1, &s2, &st, n),
                );
                assert_eq!(got, tt2_counts(&st, &s1, &s2, n), "n={n}");
            }
        }
    }

    #[test]
    fn tt3_counts_match_scalar_scan() {
        let mut rng = StdRng::seed_from_u64(0x57123);
        for &n in &[1usize, 64, 65, 512, 513, 577, 2048] {
            let words = n.div_ceil(64);
            let st = random_sig(&mut rng, words);
            let s1 = random_sig(&mut rng, words);
            let s2 = random_sig(&mut rng, words);
            let s3 = random_sig(&mut rng, words);

            let mut ones3 = [0usize; 8];
            let mut totals3 = [0usize; 8];
            for w in 0..words {
                let rem = n - w * 64;
                let mask = if rem >= 64 { u64::MAX } else { tail_mask(rem) };
                let (a, b, c, t) = (s1[w], s2[w], s3[w], st[w] & mask);
                for m in 0..8usize {
                    let ra = if m & 1 != 0 { a } else { !a };
                    let rb = if m & 2 != 0 { b } else { !b };
                    let rc = if m & 4 != 0 { c } else { !c };
                    let reg = ra & rb & rc & mask;
                    totals3[m] += reg.count_ones() as usize;
                    ones3[m] += (reg & t).count_ones() as usize;
                }
            }
            assert_eq!(
                tt3_counts(&st, &s1, &s2, &s3, n),
                (ones3, totals3),
                "tt3 n={n}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_portable_kernels_agree() {
        if !std::arch::is_x86_feature_detected!("popcnt") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x57125);
        for &n in &[1usize, 63, 64, 65, 513, 1000, 2048] {
            let words = n.div_ceil(64);
            let [t, a, b, c] = [0; 4].map(|_| random_sig(&mut rng, words));
            for bound in [0, n / 3, usize::MAX] {
                // SAFETY: POPCNT support was detected above.
                let hw = unsafe { xor_distance_within_hw(&a, &b, n, bound) };
                assert_eq!(hw, xor_distance_within_body(&a, &b, n, bound), "n={n}");
            }
            // SAFETY: POPCNT support was detected above.
            let hw = unsafe { and_counts_hw(&a, &b, &t, n) };
            assert_eq!(hw, and_counts_body(&a, &b, &t, n), "n={n}");
            // SAFETY: POPCNT support was detected above.
            let hw = unsafe { tt3_counts_hw(&t, &a, &b, &c, n) };
            assert_eq!(hw, tt3_counts_body(&t, &a, &b, &c, n), "n={n}");
        }
    }
}
