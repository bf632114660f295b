//! Peer session-length (lifetime) model.
//!
//! The paper draws each peer's lifetime from a large *measured* sample of
//! Gnutella session lengths (Saroiu et al., MMCN 2002) and scales the draws
//! with a `LifespanMultiplier`. The measured trace is not publicly
//! distributable, so this module synthesizes a fixed sample with the same
//! published shape — median around one hour, a large mass of very short
//! sessions, and a heavy right tail of multi-hour sessions — and exposes it
//! through the identical interface: i.i.d. resampling plus a multiplier.

use simkit::dist::{ContinuousDist, EmpiricalDist, LogNormal};
use simkit::rng::RngStream;
use simkit::time::SimDuration;

/// Default number of observations in the synthetic session-length sample.
pub const DEFAULT_SAMPLE_SIZE: usize = 20_000;

/// Internal seed fixing the synthetic "measured" trace. The trace is a
/// build-time artifact, the same for every simulation run regardless of the
/// run seed — exactly like a file of measurements on disk.
const TRACE_SEED: u64 = 0x5a70_11fe_2002;

/// A model of peer lifetimes backed by an empirical sample.
///
/// # Examples
///
/// ```
/// use workload::lifetime::LifetimeModel;
/// use simkit::rng::RngStream;
///
/// let model = LifetimeModel::saroiu_like(1.0);
/// let mut rng = RngStream::from_seed(1, "doc");
/// let life = model.sample_lifetime(&mut rng);
/// assert!(life.as_secs() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeModel {
    dist: EmpiricalDist,
    multiplier: f64,
}

impl LifetimeModel {
    /// Builds the synthetic Saroiu-like lifetime model with the given
    /// `LifespanMultiplier` (the paper's default is `1.0`; the cache-size
    /// experiments use `0.2` for extra churn strain).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is non-finite or not positive.
    #[must_use]
    pub fn saroiu_like(multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "LifespanMultiplier must be positive"
        );
        let dist = synthesize_trace(DEFAULT_SAMPLE_SIZE);
        LifetimeModel {
            dist: dist.scaled(multiplier),
            multiplier,
        }
    }

    /// The configured `LifespanMultiplier`.
    #[must_use]
    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }

    /// Draws one lifetime.
    #[must_use]
    pub fn sample_lifetime(&self, rng: &mut RngStream) -> SimDuration {
        // Clamp to at least one second so a peer always exists long enough
        // to be observed by the event loop.
        SimDuration::from_secs(self.dist.sample(rng).max(1.0))
    }

    /// Median lifetime of the (scaled) sample.
    #[must_use]
    pub fn median(&self) -> SimDuration {
        SimDuration::from_secs(self.dist.median())
    }

    /// Mean lifetime of the (scaled) sample.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.dist.mean().expect("non-empty sample"))
    }
}

/// Synthesizes the fixed session-length trace: a 50/35/15 mixture of
/// log-normals producing a median near 3600 s, a thick mass of sub-10-minute
/// sessions, and a tail beyond 24 h, matching the published Gnutella
/// session-length shape.
fn synthesize_trace(n: usize) -> EmpiricalDist {
    let mut rng = RngStream::from_seed(TRACE_SEED, "saroiu-trace");
    let short = LogNormal::new(300.0_f64.ln(), 1.0).expect("valid");
    let medium = LogNormal::new(3600.0_f64.ln(), 0.8).expect("valid");
    let long = LogNormal::new(18_000.0_f64.ln(), 0.9).expect("valid");
    let mut sample = Vec::with_capacity(n);
    for _ in 0..n {
        let u = rng.f64();
        let x = if u < 0.35 {
            short.sample(&mut rng)
        } else if u < 0.85 {
            medium.sample(&mut rng)
        } else {
            long.sample(&mut rng)
        };
        // Sessions shorter than 10 s or longer than 3 days are trimmed, as
        // measurement studies do.
        sample.push(x.clamp(10.0, 259_200.0));
    }
    EmpiricalDist::from_sample(sample).expect("synthesized sample is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let a = LifetimeModel::saroiu_like(1.0);
        let b = LifetimeModel::saroiu_like(1.0);
        assert_eq!(a.median().as_secs(), b.median().as_secs());
        assert_eq!(a.mean().as_secs(), b.mean().as_secs());
    }

    #[test]
    fn median_is_near_an_hour() {
        let m = LifetimeModel::saroiu_like(1.0);
        let med = m.median().as_secs();
        assert!(
            (1800.0..7200.0).contains(&med),
            "median {med} outside plausible range"
        );
    }

    #[test]
    fn distribution_is_right_skewed() {
        let m = LifetimeModel::saroiu_like(1.0);
        assert!(
            m.mean().as_secs() > m.median().as_secs(),
            "heavy tail means mean > median"
        );
    }

    #[test]
    fn multiplier_scales_draws() {
        let base = LifetimeModel::saroiu_like(1.0);
        let strained = LifetimeModel::saroiu_like(0.2);
        let ratio = strained.median().as_secs() / base.median().as_secs();
        assert!((ratio - 0.2).abs() < 1e-9, "ratio {ratio}");
        assert_eq!(strained.multiplier(), 0.2);
    }

    #[test]
    fn sample_lifetime_is_positive() {
        let m = LifetimeModel::saroiu_like(0.2);
        let mut rng = RngStream::from_seed(3, "lt");
        for _ in 0..1000 {
            assert!(m.sample_lifetime(&mut rng).as_secs() >= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "LifespanMultiplier")]
    fn zero_multiplier_rejected() {
        let _ = LifetimeModel::saroiu_like(0.0);
    }

    #[test]
    fn has_many_short_sessions() {
        let m = LifetimeModel::saroiu_like(1.0);
        let mut rng = RngStream::from_seed(4, "lt");
        let n = 10_000;
        let short = (0..n)
            .filter(|_| m.sample_lifetime(&mut rng).as_secs() < 600.0)
            .count();
        // The Saroiu trace has a substantial sub-10-minute mass.
        assert!(
            short > n / 20,
            "only {short} of {n} sessions under 10 minutes"
        );
    }
}
