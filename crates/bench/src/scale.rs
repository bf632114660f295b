//! Experiment scale control.
//!
//! Every experiment can run at `Full` scale (the paper's parameter grids)
//! or `Quick` scale (shrunk grids and durations for CI and the goldens).

use std::ops::DerefMut;

use simkit::time::SimDuration;

use guess::config::{Config, ProtocolParams, RunParams, SystemParams};
use workload::content::CatalogParams;
use workload::population::ForwardingConfig;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// The paper's full parameter grids. Minutes of wall clock.
    #[default]
    Full,
    /// Shrunk grids/durations; preserves shapes, not precision.
    Quick,
}

impl Scale {
    /// Simulated duration for steady-state query experiments.
    #[must_use]
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Full => SimDuration::from_secs(2400.0),
            Scale::Quick => SimDuration::from_secs(700.0),
        }
    }

    /// Warm-up excluded from metrics.
    #[must_use]
    pub fn warmup(self) -> SimDuration {
        match self {
            Scale::Full => SimDuration::from_secs(600.0),
            Scale::Quick => SimDuration::from_secs(200.0),
        }
    }

    /// Network sizes for the scaling sweeps (Figs 3, 4, 7, 14, 15).
    #[must_use]
    pub fn network_sizes(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![200, 500, 1000, 2000, 5000],
            Scale::Quick => vec![200, 500],
        }
    }

    /// Number of evaluation queries for the static fixed-extent curve.
    #[must_use]
    pub fn curve_queries(self) -> usize {
        match self {
            Scale::Full => 4000,
            Scale::Quick => 800,
        }
    }

    /// The paper's default network (N = 1000), shrunk at quick scale:
    /// Figures 6 and 8, the extension studies, the engine comparisons
    /// and the scenario catalog all run at this size.
    #[must_use]
    pub fn default_network(self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Quick => 300,
        }
    }

    /// Filters a cache-size grid down at quick scale.
    #[must_use]
    pub fn cache_sizes(self, full: &[usize]) -> Vec<usize> {
        match self {
            Scale::Full => full.to_vec(),
            Scale::Quick => full.iter().copied().step_by(2).collect(),
        }
    }
}

/// The default experiment configuration at this scale: the paper's Table 1
/// and Table 2 defaults, with run controls set by `scale`.
#[must_use]
pub fn base_config(scale: Scale, seed: u64) -> Config {
    Config {
        system: SystemParams::default(),
        protocol: ProtocolParams::default(),
        run: RunParams {
            duration: scale.duration(),
            warmup: scale.warmup(),
            sample_interval: SimDuration::from_secs(60.0),
            cache_seed_size: 10,
            seed,
            simulate_queries: true,
            ..RunParams::default()
        },
        catalog: CatalogParams::default(),
    }
}

/// A forwarding engine's counterpart (dynamic Gnutella's or gossip's
/// config) of `base_config(scale, seed)` at [`Scale::default_network`]:
/// the same network size, run window and warm-up, so a forwarding run
/// faces the workload of the GUESS runs it is compared with. The
/// engine's own knobs keep their defaults.
#[must_use]
pub fn forwarding_config<C>(scale: Scale, seed: u64) -> C
where
    C: Default + DerefMut<Target = ForwardingConfig>,
{
    let mut cfg = C::default();
    cfg.network_size = scale.default_network();
    cfg.duration = scale.duration();
    cfg.warmup = scale.warmup();
    cfg.seed = seed;
    cfg
}

/// The "strained" configuration of the cache-maintenance experiments
/// (§6.1): `LifespanMultiplier = 0.2`, given network and cache sizes.
#[must_use]
pub fn strained_config(scale: Scale, network: usize, cache: usize, seed: u64) -> Config {
    let mut cfg = base_config(scale, seed);
    cfg.system.network_size = network;
    cfg.system.lifespan_multiplier = 0.2;
    cfg.protocol.cache_size = cache;
    cfg.run.cache_seed_size = (network / 100).clamp(2, cache.min(network - 1));
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_configs_validate() {
        for scale in [Scale::Full, Scale::Quick] {
            assert!(base_config(scale, 1).validate().is_ok());
            let gnutella: gnutella::dynamic::GnutellaConfig = forwarding_config(scale, 1);
            assert!(gnutella.validate().is_ok());
            assert!(forwarding_config::<gossip::Config>(scale, 1)
                .validate()
                .is_ok());
        }
    }

    #[test]
    fn strained_configs_validate_across_grid() {
        for &n in &[200usize, 500, 1000, 2000, 5000] {
            for &c in &[5usize, 10, 100, 500] {
                let cfg = strained_config(Scale::Full, n, c.min(n), 3);
                assert!(cfg.validate().is_ok(), "n={n} c={c}: {:?}", cfg.validate());
            }
        }
    }

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.duration() < Scale::Full.duration());
        assert!(Scale::Quick.network_sizes().len() < Scale::Full.network_sizes().len());
        assert!(Scale::Quick.curve_queries() < Scale::Full.curve_queries());
    }

    #[test]
    fn cache_size_filter() {
        let full = [5, 10, 20, 50, 100];
        assert_eq!(Scale::Full.cache_sizes(&full), vec![5, 10, 20, 50, 100]);
        assert_eq!(Scale::Quick.cache_sizes(&full), vec![5, 20, 100]);
    }

    #[test]
    fn strained_sets_multiplier() {
        let cfg = strained_config(Scale::Full, 1000, 50, 9);
        assert!((cfg.system.lifespan_multiplier - 0.2).abs() < 1e-12);
        assert_eq!(cfg.protocol.cache_size, 50);
    }
}
