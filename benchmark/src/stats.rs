//! Order statistics of repeated measurements, and the FNV-1a digest
//! that pins a report's bytes.

/// Minimum, quartiles and maximum of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Dist {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the benchmark contract judges steadiness by.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarises `samples`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// computed here equals the one the contract's driver computes; a single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice: a workload that produced no sample has
/// already been reported as failed by the caller.
pub fn summarize(samples: &[f64]) -> Dist {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    let cut = |i: usize| -> f64 {
        if m == 1 {
            return s[0];
        }
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Dist {
        n: m,
        min: s[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        max: s[m - 1],
    }
}

/// Median of `samples` (see [`summarize`]).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// FNV-1a, 64-bit — the digest `crates/bench/tests/golden/*.fnv1a.txt`
/// pins reports with. Fed in pieces, or through `write!`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.update(text.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.update(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 9.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let d = summarize(&v);
        assert_eq!((d.q1, d.median, d.q3), (2.75, 5.5, 8.25));
        assert_eq!((d.n, d.min, d.max), (10, 1.0, 10.0));
        assert!((d.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let d = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((d.q1, d.median, d.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let d = summarize(&[1.0, 3.0]);
        assert_eq!((d.q1, d.median, d.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // In pieces, and through `write!`, it is the same digest.
        let mut pieces = Fnv1a::new();
        pieces.update(b"foo");
        std::fmt::Write::write_str(&mut pieces, "bar").unwrap();
        assert_eq!(pieces.finish(), fnv1a(b"foobar"));
    }
}
