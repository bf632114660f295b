//! Configuration of a gossip search run.
//!
//! The settings every forwarding engine shares, with their defaults and
//! rules, are [`ForwardingConfig`]'s; this config adds the epidemic's
//! four knobs and their rules. Like `guess::config::Config` it has
//! plain public fields, a `validate` method returning a typed error,
//! and `with_*` builder setters so experiment sweeps stay declarative.

use std::fmt;

use simkit::time::SimDuration;
use workload::population::{ForwardingConfig, ForwardingConfigError};

/// Configuration of one gossip simulation run: the settings every
/// forwarding engine shares ([`ForwardingConfig`], read through
/// `Deref`) and the epidemic's own.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The settings shared with the other forwarding engines.
    pub common: ForwardingConfig,
    /// Contacts each active spreader makes per round.
    pub fanout: usize,
    /// Rounds a rumor may spread before it is retired.
    pub round_ttl: u32,
    /// Probability that a duplicate receiver re-enters dissemination
    /// for one round (push/pull hybrid; `0` is pure push).
    pub pull_probability: f64,
    /// Wall-clock gap between successive gossip rounds of one rumor.
    pub round_interval: SimDuration,
}

workload::forwarding_config!(Config);

impl Default for Config {
    fn default() -> Self {
        Config {
            common: ForwardingConfig::paper(0x9055),
            fanout: 3,
            round_ttl: 8,
            pull_probability: 0.3,
            round_interval: SimDuration::from_secs(0.5),
        }
    }
}

/// Error validating a [`Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipConfigError {
    /// A rule every forwarding engine shares.
    Shared(ForwardingConfigError),
    /// `fanout` was zero.
    ZeroFanout,
    /// `fanout` reached the network size (a spreader excludes itself).
    FanoutTooLarge,
    /// `round_ttl` was zero: rumors could never spread.
    ZeroRoundTtl,
    /// `pull_probability` outside `[0, 1]`.
    BadPullProbability,
    /// `round_interval` not finite/positive.
    BadRoundInterval,
}

impl fmt::Display for GossipConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GossipConfigError::Shared(e) => return e.fmt(f),
            GossipConfigError::ZeroFanout => "fanout must be positive",
            GossipConfigError::FanoutTooLarge => "fanout must be below the network size",
            GossipConfigError::ZeroRoundTtl => "round TTL must be positive",
            GossipConfigError::BadPullProbability => "pull probability must be within [0, 1]",
            GossipConfigError::BadRoundInterval => "round interval must be finite and positive",
        })
    }
}

impl std::error::Error for GossipConfigError {}

impl Config {
    /// Checks the shared rules, then the epidemic's.
    ///
    /// # Errors
    ///
    /// Returns the first [`GossipConfigError`] found.
    pub fn validate(&self) -> Result<(), GossipConfigError> {
        self.common.validate().map_err(GossipConfigError::Shared)?;
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
        if !self.round_interval.as_secs().is_finite() || self.round_interval.as_secs() <= 0.0 {
            return Err(GossipConfigError::BadRoundInterval);
        }
        Ok(())
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

    /// Sets the gap between successive gossip rounds.
    #[must_use]
    pub fn with_round_interval(mut self, interval: SimDuration) -> Self {
        self.round_interval = interval;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(Config::default().validate().is_ok());
        assert!(Config::small_test(1).validate().is_ok());
    }

    /// The epidemic's own rules; the shared ones are checked for both
    /// forwarding engines in `tests/forwarding_config.rs`.
    #[test]
    fn validation_catches_each_field() {
        let bad = Config::default().with_fanout(0);
        assert_eq!(bad.validate(), Err(GossipConfigError::ZeroFanout));

        let bad = Config::default().with_network_size(4).with_fanout(4);
        assert_eq!(bad.validate(), Err(GossipConfigError::FanoutTooLarge));

        let bad = Config::default().with_round_ttl(0);
        assert_eq!(bad.validate(), Err(GossipConfigError::ZeroRoundTtl));

        let bad = Config::default().with_pull_probability(1.5);
        assert_eq!(bad.validate(), Err(GossipConfigError::BadPullProbability));

        let bad = Config::default().with_round_interval(SimDuration::from_secs(0.0));
        assert_eq!(bad.validate(), Err(GossipConfigError::BadRoundInterval));
    }

    #[test]
    fn zero_sample_interval_is_rejected() {
        // The snapshot tick would reschedule itself at `now + 0` forever.
        let bad = Config::default().with_sample_interval(Some(SimDuration::ZERO));
        assert_eq!(
            bad.validate(),
            Err(GossipConfigError::Shared(
                ForwardingConfigError::ZeroSampleInterval
            ))
        );
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
        use ForwardingConfigError as Shared;
        let shared = [
            Shared::NetworkTooSmall,
            Shared::ZeroDesiredResults,
            Shared::BadQueryRate,
            Shared::BadLifespanMultiplier,
            Shared::BadCatalog,
            Shared::WarmupTooLong,
            Shared::ZeroSampleInterval,
        ];
        let msgs: Vec<String> = [
            GossipConfigError::ZeroFanout,
            GossipConfigError::FanoutTooLarge,
            GossipConfigError::ZeroRoundTtl,
            GossipConfigError::BadPullProbability,
            GossipConfigError::BadRoundInterval,
        ]
        .into_iter()
        .chain(shared.map(GossipConfigError::Shared))
        .map(|e| e.to_string())
        .collect();
        let mut unique = msgs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), msgs.len());
    }
}
