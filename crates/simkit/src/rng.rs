//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation draws from its own
//! [`RngStream`], derived from a single run seed plus a component label.
//! Splitting streams this way keeps components statistically independent
//! *and* means adding randomness to one component cannot perturb the draws
//! seen by another — runs stay comparable across code changes.
//!
//! The generator is a self-contained xoshiro256++ (public domain, Blackman
//! & Vigna) seeded through SplitMix64, so the crate needs no external RNG
//! dependency and streams are bit-reproducible across platforms and
//! toolchain versions.
//!
//! For parameter sweeps, [`derive_seed`] folds `(master seed, experiment
//! label, point index)` into an independent per-point seed. The derivation
//! is pure, so a sweep point's stream depends only on its identity — never
//! on the order or thread in which points execute. This is what makes the
//! parallel experiment runner in `guess-bench` deterministic at any
//! `--jobs` level.

/// A named, seedable random stream.
///
/// # Examples
///
/// ```
/// use simkit::rng::RngStream;
///
/// let mut a = RngStream::from_seed(42, "lifetimes");
/// let mut b = RngStream::from_seed(42, "lifetimes");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed + label => same stream
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    s: [u64; 4],
}

/// Stable 64-bit FNV-1a hash, used to fold a stream label into the seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent per-point seed for a parameter sweep.
///
/// Folds a master seed, a sweep label (typically the experiment name) and
/// a point index into one well-mixed 64-bit seed. The result depends only
/// on the three inputs — not on execution order — so sweep points may run
/// in parallel, in any order, and still draw identical streams.
///
/// # Examples
///
/// ```
/// use simkit::rng::derive_seed;
///
/// let a = derive_seed(7, "fig3", 0);
/// let b = derive_seed(7, "fig3", 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(7, "fig3", 0)); // pure function of its inputs
/// ```
#[must_use]
pub fn derive_seed(master: u64, label: &str, point: u64) -> u64 {
    let mut state = master
        ^ fnv1a(label.as_bytes()).rotate_left(17)
        ^ point.wrapping_mul(0xa076_1d64_78bd_642f);
    // Two SplitMix64 rounds decorrelate adjacent point indices.
    let _ = splitmix64(&mut state);
    splitmix64(&mut state)
}

impl RngStream {
    /// Creates a stream from a run seed and a component label.
    ///
    /// Distinct labels under the same seed yield independent streams;
    /// identical `(seed, label)` pairs yield identical streams.
    #[must_use]
    pub fn from_seed(seed: u64, label: &str) -> Self {
        let mut state = seed ^ fnv1a(label.as_bytes()).rotate_left(17);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut state);
        }
        // xoshiro's all-zero state is a fixed point; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        RngStream { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[allow(clippy::should_implement_trait)]
    #[must_use = "discarding the draw still advances the stream"]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (the upper half of a 64-bit draw).
    #[must_use = "discarding the draw still advances the stream"]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` without modulo bias
    /// (Lemire's multiply-and-shift rejection method).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw in `[0, 1)` (53 random mantissa bits).
    #[must_use]
    pub fn f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Bernoulli trial succeeding with probability `p` (clamped to `[0,1]`).
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        self.bounded_u64(bound as u64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            self.next_u64()
        } else {
            lo + self.bounded_u64(span + 1)
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[must_use]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len())])
        }
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k clamped to n),
    /// returned in random order.
    #[must_use]
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        if k * 8 <= n {
            // Sparse case: rejection sampling is O(k) expected, avoiding
            // the O(n) index-vector setup — this path runs on every pong.
            let mut picked = Vec::with_capacity(k);
            while picked.len() < k {
                let c = self.below(n);
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            return picked;
        }
        // Dense case: partial Fisher–Yates.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStream::from_seed(7, "x");
        let mut b = RngStream::from_seed(7, "x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_split_streams() {
        let mut a = RngStream::from_seed(7, "alpha");
        let mut b = RngStream::from_seed(7, "beta");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different labels should diverge");
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::from_seed(1, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = RngStream::from_seed(2, "cal");
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2700..=3300).contains(&hits), "got {hits} hits for p=0.3");
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = RngStream::from_seed(11, "f");
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x), "f64() out of range: {x}");
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut r = RngStream::from_seed(3, "b");
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_ranges_uniformly() {
        let mut r = RngStream::from_seed(12, "u");
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[r.below(5)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1700..=2300).contains(&c), "bucket {i} got {c}/10000");
        }
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut r = RngStream::from_seed(13, "ri");
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range_inclusive(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
        // Degenerate and full-width ranges are legal.
        assert_eq!(r.range_inclusive(9, 9), 9);
        let _ = r.range_inclusive(0, u64::MAX);
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = RngStream::from_seed(4, "s");
        let s = r.sample_indices(50, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "indices must be distinct");
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_clamps_k() {
        let mut r = RngStream::from_seed(5, "s2");
        assert_eq!(r.sample_indices(3, 10).len(), 3);
        assert!(r.sample_indices(0, 4).is_empty());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::from_seed(6, "sh");
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = RngStream::from_seed(10, "ch");
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[5]), Some(&5));
    }

    #[test]
    fn derive_seed_is_pure_and_sensitive() {
        assert_eq!(derive_seed(1, "fig3", 0), derive_seed(1, "fig3", 0));
        assert_ne!(derive_seed(1, "fig3", 0), derive_seed(1, "fig3", 1));
        assert_ne!(derive_seed(1, "fig3", 0), derive_seed(2, "fig3", 0));
        assert_ne!(derive_seed(1, "fig3", 0), derive_seed(1, "fig4", 0));
    }

    #[test]
    fn derived_streams_are_independent() {
        let mut a = RngStream::from_seed(derive_seed(3, "exp", 0), "run");
        let mut b = RngStream::from_seed(derive_seed(3, "exp", 1), "run");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "adjacent point streams should diverge");
    }
}
