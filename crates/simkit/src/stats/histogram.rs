//! A simple fixed-width histogram with exact-percentile support.

/// Collects `f64` observations and answers quantile queries exactly by
/// keeping all samples (the experiment scales here are small enough that
/// exactness beats sketching).
///
/// # Examples
///
/// ```
/// use simkit::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for x in 1..=100 {
///     h.record(x as f64);
/// }
/// assert_eq!(h.percentile(50.0), Some(50.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `x` is not finite.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Histogram::record({x})");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (`0 <= p <= 100`) by nearest rank, or `None`
    /// when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)])
    }

    /// Mean of the recorded observations; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Absorbs another histogram's observations. Quantiles afterwards
    /// equal those of recording both sample streams into one histogram
    /// (order is irrelevant: queries sort first).
    pub fn merge(&mut self, other: &Histogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentiles_exact() {
        let mut h = Histogram::new();
        for x in 1..=10 {
            h.record(f64::from(x));
        }
        assert_eq!(h.percentile(10.0), Some(1.0));
        assert_eq!(h.percentile(50.0), Some(5.0));
        assert_eq!(h.percentile(100.0), Some(10.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for x in 0..50 {
            all.record(f64::from(x));
            left.record(f64::from(x));
        }
        for x in 50..100 {
            all.record(f64::from(x));
            right.record(f64::from(x));
        }
        left.merge(&right);
        left.merge(&Histogram::new());
        assert_eq!(left.count(), all.count());
        for p in [0.0, 25.0, 50.0, 95.0, 100.0] {
            assert_eq!(left.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn mean_is_correct() {
        let mut h = Histogram::new();
        h.record(2.0);
        h.record(6.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.count(), 2);
    }
}
