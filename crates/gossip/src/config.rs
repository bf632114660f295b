//! Configuration of a gossip search run.
//!
//! Mirrors the shape of `guess::config::Config`: plain public fields, a
//! `validate` method returning a typed error, and `with_*` builder
//! setters so experiment sweeps stay declarative.

use simkit::time::SimDuration;
use workload::content::CatalogParams;

/// Configuration of one gossip simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Live peers at all times (`NetworkSize`).
    pub network_size: usize,
    /// Contacts each active spreader makes per round.
    pub fanout: usize,
    /// Rounds a rumor may spread before it is retired.
    pub round_ttl: u32,
    /// Probability that a duplicate receiver re-enters dissemination
    /// for one round (push/pull hybrid; `0` is pure push).
    pub pull_probability: f64,
    /// Results needed to satisfy a query (`NumDesiredResults`).
    pub num_desired_results: u32,
    /// Per-user query rate (queries/second), bursty as in the paper.
    pub query_rate: f64,
    /// Lifespan multiplier for the shared lifetime model.
    pub lifespan_multiplier: f64,
    /// Wall-clock gap between successive gossip rounds of one rumor.
    pub round_interval: SimDuration,
    /// Content universe parameters (shared with GUESS and Gnutella).
    pub catalog: CatalogParams,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Warm-up excluded from query metrics.
    pub warmup: SimDuration,
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    /// Cadence of the kernel's sample tick (live-peer snapshots in the
    /// trace); `None` — the default — schedules no tick events at all.
    pub sample_interval: Option<SimDuration>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            network_size: 1000,
            fanout: 3,
            round_ttl: 8,
            pull_probability: 0.3,
            num_desired_results: 1,
            query_rate: 9.26e-3,
            lifespan_multiplier: 1.0,
            round_interval: SimDuration::from_secs(0.5),
            catalog: CatalogParams::default(),
            duration: SimDuration::from_secs(2400.0),
            warmup: SimDuration::from_secs(600.0),
            seed: 0x9055,
            sample_interval: None,
        }
    }
}

/// Error validating a [`Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipConfigError {
    /// Fewer than two peers: no one to gossip with.
    NetworkTooSmall,
    /// `fanout` was zero.
    ZeroFanout,
    /// `fanout` reached the network size (a spreader excludes itself).
    FanoutTooLarge,
    /// `round_ttl` was zero: rumors could never spread.
    ZeroRoundTtl,
    /// `pull_probability` outside `[0, 1]`.
    BadPullProbability,
    /// `num_desired_results` was zero.
    ZeroDesiredResults,
    /// `query_rate` not finite/positive.
    BadQueryRate,
    /// `lifespan_multiplier` not finite/positive.
    BadLifespanMultiplier,
    /// `round_interval` not finite/positive.
    BadRoundInterval,
    /// Warm-up not shorter than duration.
    WarmupTooLong,
    /// Catalog parameters rejected by the shared content model.
    BadCatalog,
    /// `sample_interval` was `Some(0)`: the snapshot tick would never
    /// advance.
    ZeroSampleInterval,
}

impl std::fmt::Display for GossipConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GossipConfigError::NetworkTooSmall => "gossip needs at least two peers",
            GossipConfigError::ZeroFanout => "fanout must be positive",
            GossipConfigError::FanoutTooLarge => "fanout must be below the network size",
            GossipConfigError::ZeroRoundTtl => "round TTL must be positive",
            GossipConfigError::BadPullProbability => "pull probability must be within [0, 1]",
            GossipConfigError::ZeroDesiredResults => "desired results must be positive",
            GossipConfigError::BadQueryRate => "query rate must be finite and positive",
            GossipConfigError::BadLifespanMultiplier => {
                "lifespan multiplier must be finite and positive"
            }
            GossipConfigError::BadRoundInterval => "round interval must be finite and positive",
            GossipConfigError::WarmupTooLong => "warm-up must be shorter than the run duration",
            GossipConfigError::BadCatalog => "catalog parameters are invalid",
            GossipConfigError::ZeroSampleInterval => "sample interval must be positive",
        };
        f.write_str(s)
    }
}

impl std::error::Error for GossipConfigError {}

impl Config {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns the first [`GossipConfigError`] found.
    pub fn validate(&self) -> Result<(), GossipConfigError> {
        if self.network_size < 2 {
            return Err(GossipConfigError::NetworkTooSmall);
        }
        if self.fanout == 0 {
            return Err(GossipConfigError::ZeroFanout);
        }
        if self.fanout >= self.network_size {
            return Err(GossipConfigError::FanoutTooLarge);
        }
        if self.round_ttl == 0 {
            return Err(GossipConfigError::ZeroRoundTtl);
        }
        if !(0.0..=1.0).contains(&self.pull_probability) {
            return Err(GossipConfigError::BadPullProbability);
        }
        if self.num_desired_results == 0 {
            return Err(GossipConfigError::ZeroDesiredResults);
        }
        if !self.query_rate.is_finite() || self.query_rate <= 0.0 {
            return Err(GossipConfigError::BadQueryRate);
        }
        if !self.lifespan_multiplier.is_finite() || self.lifespan_multiplier <= 0.0 {
            return Err(GossipConfigError::BadLifespanMultiplier);
        }
        if !self.round_interval.as_secs().is_finite() || self.round_interval.as_secs() <= 0.0 {
            return Err(GossipConfigError::BadRoundInterval);
        }
        if self.warmup >= self.duration {
            return Err(GossipConfigError::WarmupTooLong);
        }
        if self.sample_interval.is_some_and(SimDuration::is_zero) {
            return Err(GossipConfigError::ZeroSampleInterval);
        }
        Ok(())
    }

    // ---- builder-style setters (mirroring `guess::Config`) ---------

    /// Sets the master RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets `NetworkSize`.
    #[must_use]
    pub fn with_network_size(mut self, n: usize) -> Self {
        self.network_size = n;
        self
    }

    /// Sets the per-round fanout.
    #[must_use]
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the round TTL (rounds a rumor may spread).
    #[must_use]
    pub fn with_round_ttl(mut self, ttl: u32) -> Self {
        self.round_ttl = ttl;
        self
    }

    /// Sets the pull (duplicate re-activation) probability.
    #[must_use]
    pub fn with_pull_probability(mut self, p: f64) -> Self {
        self.pull_probability = p;
        self
    }

    /// Sets `NumDesiredResults`.
    #[must_use]
    pub fn with_num_desired_results(mut self, n: u32) -> Self {
        self.num_desired_results = n;
        self
    }

    /// Sets the per-user query rate.
    #[must_use]
    pub fn with_query_rate(mut self, rate: f64) -> Self {
        self.query_rate = rate;
        self
    }

    /// Sets `LifespanMultiplier`.
    #[must_use]
    pub fn with_lifespan_multiplier(mut self, m: f64) -> Self {
        self.lifespan_multiplier = m;
        self
    }

    /// Sets the gap between successive gossip rounds.
    #[must_use]
    pub fn with_round_interval(mut self, interval: SimDuration) -> Self {
        self.round_interval = interval;
        self
    }

    /// Sets the simulated duration.
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the warm-up span excluded from query metrics.
    #[must_use]
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets (or disables) the kernel sample tick.
    #[must_use]
    pub fn with_sample_interval(mut self, interval: Option<SimDuration>) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Validates the configuration and builds the simulator — the same
    /// construction surface the guess and gnutella configs expose.
    ///
    /// # Errors
    ///
    /// Returns [`GossipConfigError`] for inconsistent parameters.
    pub fn build(self) -> Result<crate::engine::GossipSim, GossipConfigError> {
        crate::engine::GossipSim::new(self)
    }

    /// A config scaled down for fast tests: a small network, short run,
    /// and a proportionally smaller catalog.
    #[must_use]
    pub fn small_test(seed: u64) -> Config {
        Config {
            network_size: 150,
            duration: SimDuration::from_secs(400.0),
            warmup: SimDuration::from_secs(100.0),
            catalog: CatalogParams {
                items: 4000,
                ..CatalogParams::default()
            },
            seed,
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(Config::default().validate().is_ok());
        assert!(Config::small_test(1).validate().is_ok());
    }

    #[test]
    fn validation_catches_each_field() {
        let bad = Config::default().with_network_size(1);
        assert_eq!(bad.validate(), Err(GossipConfigError::NetworkTooSmall));

        let bad = Config::default().with_fanout(0);
        assert_eq!(bad.validate(), Err(GossipConfigError::ZeroFanout));

        let bad = Config::default().with_network_size(4).with_fanout(4);
        assert_eq!(bad.validate(), Err(GossipConfigError::FanoutTooLarge));

        let bad = Config::default().with_round_ttl(0);
        assert_eq!(bad.validate(), Err(GossipConfigError::ZeroRoundTtl));

        let bad = Config::default().with_pull_probability(1.5);
        assert_eq!(bad.validate(), Err(GossipConfigError::BadPullProbability));

        let bad = Config::default().with_num_desired_results(0);
        assert_eq!(bad.validate(), Err(GossipConfigError::ZeroDesiredResults));

        let bad = Config::default().with_query_rate(0.0);
        assert_eq!(bad.validate(), Err(GossipConfigError::BadQueryRate));

        let bad = Config::default().with_lifespan_multiplier(-1.0);
        assert_eq!(
            bad.validate(),
            Err(GossipConfigError::BadLifespanMultiplier)
        );

        let bad = Config::default().with_round_interval(SimDuration::from_secs(0.0));
        assert_eq!(bad.validate(), Err(GossipConfigError::BadRoundInterval));

        let bad = Config::default().with_warmup(Config::default().duration);
        assert_eq!(bad.validate(), Err(GossipConfigError::WarmupTooLong));
    }

    #[test]
    fn zero_sample_interval_is_rejected() {
        // The snapshot tick would reschedule itself at `now + 0` forever.
        let bad = Config::default().with_sample_interval(Some(SimDuration::ZERO));
        assert_eq!(bad.validate(), Err(GossipConfigError::ZeroSampleInterval));
        assert!(Config::default()
            .with_sample_interval(None)
            .validate()
            .is_ok());
    }

    #[test]
    fn builders_set_the_named_fields() {
        let c = Config::default()
            .with_seed(0xbeef)
            .with_network_size(500)
            .with_fanout(4)
            .with_round_ttl(6)
            .with_pull_probability(0.7)
            .with_num_desired_results(3)
            .with_query_rate(0.02)
            .with_lifespan_multiplier(0.2)
            .with_round_interval(SimDuration::from_secs(1.0))
            .with_sample_interval(Some(SimDuration::from_secs(30.0)));
        assert_eq!(c.seed, 0xbeef);
        assert_eq!(c.network_size, 500);
        assert_eq!(c.fanout, 4);
        assert_eq!(c.round_ttl, 6);
        assert!((c.pull_probability - 0.7).abs() < 1e-12);
        assert_eq!(c.num_desired_results, 3);
        assert!((c.query_rate - 0.02).abs() < 1e-12);
        assert!((c.lifespan_multiplier - 0.2).abs() < 1e-12);
        assert_eq!(c.round_interval, SimDuration::from_secs(1.0));
        assert_eq!(c.sample_interval, Some(SimDuration::from_secs(30.0)));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn errors_display_distinctly() {
        let msgs: Vec<String> = [
            GossipConfigError::NetworkTooSmall,
            GossipConfigError::ZeroFanout,
            GossipConfigError::FanoutTooLarge,
            GossipConfigError::ZeroRoundTtl,
            GossipConfigError::BadPullProbability,
            GossipConfigError::ZeroDesiredResults,
            GossipConfigError::BadQueryRate,
            GossipConfigError::BadLifespanMultiplier,
            GossipConfigError::BadRoundInterval,
            GossipConfigError::WarmupTooLong,
            GossipConfigError::BadCatalog,
            GossipConfigError::ZeroSampleInterval,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let mut unique = msgs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), msgs.len());
    }
}
