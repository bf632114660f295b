//! Configuration and report types for the dynamic Gnutella simulator.

use super::*;

/// Configuration of a dynamic Gnutella run.
///
/// Constructed like the GUESS and gossip configs: start from
/// [`GnutellaConfig::default`] (paper-scale parameters) or
/// [`GnutellaConfig::small_test`], chain `with_*` setters, and finish
/// with [`GnutellaConfig::build`], which validates and returns the
/// ready-to-run simulator.
///
/// ```
/// use gnutella::dynamic::GnutellaConfig;
///
/// let sim = GnutellaConfig::default()
///     .with_network_size(200)
///     .with_ttl(5)
///     .with_seed(7)
///     .build()?;
/// # let _ = sim;
/// # Ok::<(), gnutella::dynamic::InvalidGnutellaConfig>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GnutellaConfig {
    /// Live peers at all times.
    pub network_size: usize,
    /// Connections each peer tries to keep open.
    pub target_degree: usize,
    /// Query TTL (flood radius).
    pub ttl: usize,
    /// Results needed to satisfy a query.
    pub desired_results: usize,
    /// Per-user query rate (queries/second), bursty as in the paper.
    pub query_rate: f64,
    /// Lifespan multiplier for the shared lifetime model.
    pub lifespan_multiplier: f64,
    /// Content universe parameters (shared with GUESS).
    pub catalog: CatalogParams,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Warm-up excluded from query metrics.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Cadence of the kernel's sample tick (live-peer snapshots in the
    /// trace). `None` — the default — schedules no tick events at all,
    /// keeping existing runs byte-identical.
    pub sample_interval: Option<SimDuration>,
}

impl Default for GnutellaConfig {
    fn default() -> Self {
        GnutellaConfig {
            network_size: 1000,
            target_degree: 4,
            ttl: 7,
            desired_results: 1,
            query_rate: 9.26e-3,
            lifespan_multiplier: 1.0,
            catalog: CatalogParams::default(),
            duration: SimDuration::from_secs(2400.0),
            warmup: SimDuration::from_secs(600.0),
            seed: 0x67u64,
            sample_interval: None,
        }
    }
}

impl GnutellaConfig {
    /// A downsized configuration for tests: 150 peers, a 400 s run with
    /// a 100 s warm-up, and a 4000-item catalog — enough to exercise
    /// churn and flooding in milliseconds.
    #[must_use]
    pub fn small_test(seed: u64) -> Self {
        GnutellaConfig {
            network_size: 150,
            duration: SimDuration::from_secs(400.0),
            warmup: SimDuration::from_secs(100.0),
            catalog: CatalogParams {
                items: 4000,
                ..CatalogParams::default()
            },
            seed,
            ..GnutellaConfig::default()
        }
    }

    /// Sets the constant live-peer population.
    #[must_use]
    pub fn with_network_size(mut self, network_size: usize) -> Self {
        self.network_size = network_size;
        self
    }

    /// Sets the per-peer connection target.
    #[must_use]
    pub fn with_target_degree(mut self, target_degree: usize) -> Self {
        self.target_degree = target_degree;
        self
    }

    /// Sets the query TTL (flood radius).
    #[must_use]
    pub fn with_ttl(mut self, ttl: usize) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the number of results that satisfies a query.
    #[must_use]
    pub fn with_desired_results(mut self, desired_results: usize) -> Self {
        self.desired_results = desired_results;
        self
    }

    /// Sets the per-user query rate (queries/second).
    #[must_use]
    pub fn with_query_rate(mut self, query_rate: f64) -> Self {
        self.query_rate = query_rate;
        self
    }

    /// Sets the lifespan multiplier of the shared lifetime model.
    #[must_use]
    pub fn with_lifespan_multiplier(mut self, lifespan_multiplier: f64) -> Self {
        self.lifespan_multiplier = lifespan_multiplier;
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

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the kernel sample-tick cadence (`None` disables ticks).
    #[must_use]
    pub fn with_sample_interval(mut self, sample_interval: Option<SimDuration>) -> Self {
        self.sample_interval = sample_interval;
        self
    }

    /// Checks the parameters for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidGnutellaConfig`] violation found.
    pub fn validate(&self) -> Result<(), InvalidGnutellaConfig> {
        if self.network_size < 2 {
            return Err(InvalidGnutellaConfig::NetworkTooSmall);
        }
        if self.target_degree == 0 || self.target_degree >= self.network_size {
            return Err(InvalidGnutellaConfig::BadDegree);
        }
        if self.ttl == 0 {
            return Err(InvalidGnutellaConfig::ZeroTtl);
        }
        if self.desired_results == 0 {
            return Err(InvalidGnutellaConfig::ZeroDesiredResults);
        }
        if !(self.query_rate.is_finite() && self.query_rate > 0.0) {
            return Err(InvalidGnutellaConfig::BadQueryRate);
        }
        if !(self.lifespan_multiplier.is_finite() && self.lifespan_multiplier > 0.0) {
            return Err(InvalidGnutellaConfig::BadLifespanMultiplier);
        }
        if self.warmup >= self.duration {
            return Err(InvalidGnutellaConfig::WarmupTooLong);
        }
        if self.sample_interval.is_some_and(SimDuration::is_zero) {
            return Err(InvalidGnutellaConfig::ZeroSampleInterval);
        }
        Ok(())
    }

    /// Validates the configuration and builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGnutellaConfig`] for inconsistent parameters.
    pub fn build(self) -> Result<GnutellaSim, InvalidGnutellaConfig> {
        GnutellaSim::new(self)
    }
}

/// Error constructing a [`GnutellaSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidGnutellaConfig {
    /// Fewer than two peers — no overlay to search.
    NetworkTooSmall,
    /// Target degree is zero or not less than the network size.
    BadDegree,
    /// A zero TTL floods nowhere.
    ZeroTtl,
    /// Zero desired results satisfies every query vacuously.
    ZeroDesiredResults,
    /// Query rate must be finite and positive.
    BadQueryRate,
    /// Lifespan multiplier must be finite and positive.
    BadLifespanMultiplier,
    /// Warm-up must end before the run does.
    WarmupTooLong,
    /// Content-catalog parameters are inconsistent.
    BadCatalog,
    /// `sample_interval` was `Some(0)`: the snapshot tick would never
    /// advance.
    ZeroSampleInterval,
}

impl std::fmt::Display for InvalidGnutellaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InvalidGnutellaConfig::NetworkTooSmall => "network_size must be at least 2",
            InvalidGnutellaConfig::BadDegree => {
                "target_degree must satisfy 0 < degree < network_size"
            }
            InvalidGnutellaConfig::ZeroTtl => "ttl must be at least 1",
            InvalidGnutellaConfig::ZeroDesiredResults => "desired_results must be at least 1",
            InvalidGnutellaConfig::BadQueryRate => "query_rate must be finite and positive",
            InvalidGnutellaConfig::BadLifespanMultiplier => {
                "lifespan_multiplier must be finite and positive"
            }
            InvalidGnutellaConfig::WarmupTooLong => "warmup must end before duration",
            InvalidGnutellaConfig::BadCatalog => "catalog parameters are inconsistent",
            InvalidGnutellaConfig::ZeroSampleInterval => "sample_interval must be positive",
        };
        write!(f, "gnutella config: {msg}")
    }
}

impl std::error::Error for InvalidGnutellaConfig {}

/// Aggregated results of a dynamic Gnutella run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GnutellaReport {
    /// Queries executed after warm-up.
    pub queries: u64,
    /// Queries that found fewer than the desired results.
    pub unsatisfied: u64,
    /// Per-query messages transmitted (deliveries + duplicate arrivals).
    pub messages: Summary,
    /// Per-query count of distinct peers reached.
    pub peers_reached: Summary,
    /// Event counters (births, deaths, connection messages, repairs, …).
    pub counters: CounterSet,
    /// Kernel events processed over the whole run (including warm-up).
    /// The numerator of the benchmark's `events_per_s`
    /// (`benchmark/README.md`); not part of any rendered report.
    pub events_processed: u64,
}

impl GnutellaReport {
    /// Fraction of queries that went unsatisfied.
    #[must_use]
    pub fn unsatisfaction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.unsatisfied as f64 / self.queries as f64
        }
    }

    /// Mean messages per query — the flooding cost that corresponds to
    /// GUESS's probes/query.
    #[must_use]
    pub fn messages_per_query(&self) -> f64 {
        self.messages.mean()
    }

    /// The amplification factor: network messages caused per query
    /// message the originator itself sends (its own degree).
    #[must_use]
    pub fn amplification(&self) -> f64 {
        let reached = self.peers_reached.mean();
        if reached > 0.0 {
            self.messages_per_query() / (self.messages_per_query() / reached).max(1.0)
        } else {
            0.0
        }
    }
}
