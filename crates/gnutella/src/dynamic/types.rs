//! Configuration and report types for the dynamic Gnutella simulator.

use std::fmt;
use std::ops::Deref;

use simkit::sim::SimReport;
use workload::population::{ForwardingConfig, ForwardingConfigError};

use super::*;

/// Configuration of a dynamic Gnutella run: the settings every
/// forwarding engine shares ([`ForwardingConfig`], read through
/// `Deref`) and the overlay's own.
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
    /// The settings shared with the other forwarding engines.
    pub common: ForwardingConfig,
    /// Connections each peer tries to keep open.
    pub target_degree: usize,
    /// Query TTL (flood radius).
    pub ttl: usize,
}

workload::forwarding_config!(GnutellaConfig);

impl Default for GnutellaConfig {
    fn default() -> Self {
        GnutellaConfig {
            common: ForwardingConfig::paper(0x67),
            target_degree: 4,
            ttl: 7,
        }
    }
}

impl GnutellaConfig {
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

    /// Checks the shared rules, then the overlay's.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidGnutellaConfig`] violation found.
    pub fn validate(&self) -> Result<(), InvalidGnutellaConfig> {
        self.common
            .validate()
            .map_err(InvalidGnutellaConfig::Shared)?;
        if self.target_degree == 0 || self.target_degree >= self.network_size {
            return Err(InvalidGnutellaConfig::BadDegree);
        }
        if self.ttl == 0 {
            return Err(InvalidGnutellaConfig::ZeroTtl);
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
    /// A rule every forwarding engine shares.
    Shared(ForwardingConfigError),
    /// Target degree is zero or not less than the network size.
    BadDegree,
    /// A zero TTL floods nowhere.
    ZeroTtl,
}

impl fmt::Display for InvalidGnutellaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("gnutella config: ")?;
        match self {
            InvalidGnutellaConfig::Shared(e) => e.fmt(f),
            InvalidGnutellaConfig::BadDegree => {
                f.write_str("target_degree must satisfy 0 < degree < network_size")
            }
            InvalidGnutellaConfig::ZeroTtl => f.write_str("ttl must be at least 1"),
        }
    }
}

impl std::error::Error for InvalidGnutellaConfig {}

/// Aggregated results of a dynamic Gnutella run: the [`Tallies`] every
/// forwarding engine keeps, read through `Deref`. Per-query messages
/// are deliveries plus duplicate arrivals; the counters add
/// `connect_messages` and `repairs` to births and deaths.
#[derive(Clone, Default, PartialEq)]
pub struct GnutellaReport {
    /// Queries, messages, reach and counters.
    pub tallies: Tallies,
    /// Kernel events processed over the whole run (including warm-up).
    /// The numerator of the benchmark's `events_per_s`
    /// (`benchmark/README.md`); not part of any rendered report.
    pub events_processed: u64,
}

impl Deref for GnutellaReport {
    type Target = Tallies;
    fn deref(&self) -> &Tallies {
        &self.tallies
    }
}

impl fmt::Debug for GnutellaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.tallies
            .fmt_report(f, "GnutellaReport", &[], self.events_processed)
    }
}

impl GnutellaReport {
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

impl SimReport for GnutellaReport {
    fn events_processed(&self) -> u64 {
        self.events_processed
    }
}
