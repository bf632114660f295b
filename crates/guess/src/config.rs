//! Simulation configuration: the paper's system parameters (Table 1),
//! protocol parameters (Table 2), and run controls.

use simkit::rng::RngStream;
use simkit::scenario::MaintenanceMode;
use simkit::time::SimDuration;
use workload::content::{CatalogParams, InvalidCatalogError};

use crate::peer::Behavior;
use crate::policy::{ReplacementPolicy, SelectionPolicy};

/// What a malicious peer puts in its pongs (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BadPongBehavior {
    /// Fabricated dead IP addresses (non-colluding attackers).
    #[default]
    Dead,
    /// Addresses of other live malicious peers (colluding attackers).
    Bad,
    /// Addresses of ordinary good peers (a "benign" control).
    Good,
}

impl std::fmt::Display for BadPongBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BadPongBehavior::Dead => "Dead",
            BadPongBehavior::Bad => "Bad",
            BadPongBehavior::Good => "Good",
        };
        f.write_str(s)
    }
}

/// System parameters — the environment GUESS runs in (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Number of live peers at all times (`NetworkSize`).
    pub network_size: usize,
    /// Results required to satisfy a query (`NumDesiredResults`).
    pub num_desired_results: u32,
    /// Scales every drawn peer lifetime (`LifespanMultiplier`).
    pub lifespan_multiplier: f64,
    /// Expected queries per user per second (`QueryRate`).
    pub query_rate: f64,
    /// Per-peer probe admission limit (`MaxProbesPerSecond`); `None`
    /// disables capacity limits entirely.
    pub max_probes_per_second: Option<u32>,
    /// Fraction of the population that is malicious (`PercentBadPeers`,
    /// as a fraction in `[0,1]`, not a percentage).
    pub bad_peer_fraction: f64,
    /// What malicious peers return in pongs (`BadPongBehavior`).
    pub bad_pong_behavior: BadPongBehavior,
    /// Fraction of honest peers that are *selfish* (§3.3): they ignore
    /// the serial-probe rule and fire large probe volleys to minimize
    /// their own response time, whatever the cost to others.
    pub selfish_fraction: f64,
    /// Probes a selfish peer sends per round instead of obeying the
    /// configured `parallel_probes`.
    pub selfish_parallelism: usize,
}

impl Default for SystemParams {
    /// The defaults of Table 1.
    fn default() -> Self {
        SystemParams {
            network_size: 1000,
            num_desired_results: 1,
            lifespan_multiplier: 1.0,
            query_rate: 9.26e-3,
            max_probes_per_second: Some(100),
            bad_peer_fraction: 0.0,
            bad_pong_behavior: BadPongBehavior::Dead,
            selfish_fraction: 0.0,
            selfish_parallelism: 50,
        }
    }
}

/// Adaptive parallelism (the paper's §6.2 future work: "adaptively
/// increase k if successive sets of parallel probes are
/// unsuccessful"): consecutive resultless probes before the walk width
/// doubles.
pub const ESCALATE_AFTER: u32 = 10;

/// Adaptive parallelism's upper bound on the walk width; a config that
/// widens walks must not start them wider.
pub const MAX_K: usize = 32;

/// One query's walk: `k` probes share each round. A selfish querier
/// fires `selfish_parallelism` whatever the protocol says (§3.3); an
/// honest one starts at `parallel_probes` and, under adaptive
/// parallelism, doubles `k` up to [`MAX_K`] after [`ESCALATE_AFTER`]
/// resultless answers in a row (§6.2).
pub(crate) struct Walk {
    pub(crate) k: usize,
    resultless: u32,
    widen: bool,
}

impl Walk {
    /// Books the results of one answered probe.
    pub(crate) fn answered(&mut self, results: u32) {
        if !self.widen {
            return;
        }
        self.resultless = if results == 0 { self.resultless + 1 } else { 0 };
        if self.resultless >= ESCALATE_AFTER {
            self.k = (self.k * 2).min(MAX_K);
            self.resultless = 0;
        }
    }
}

/// Parameters of the push-maintenance plane (the CUP-style extension:
/// subjects push invalidations/refreshes to registered interest holders
/// instead of waiting to be polled stale). Active only when
/// [`ProtocolParams::maintenance_mode`] is not [`MaintenanceMode::Pull`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushParams {
    /// Direct deliveries a subject (or relay) makes per dissemination
    /// step; the remaining watchers are split among those recipients as
    /// relay lists. A refresh flush makes only these deliveries (no
    /// relaying), rotating through the registry round-robin.
    pub fanout: usize,
    /// Relay hops an update may take below the subject before the
    /// residue is dropped.
    pub ttl: u32,
    /// Window over which refresh pushes to the same interest set
    /// coalesce into one dissemination.
    pub coalesce_window: SimDuration,
    /// Most interest registrations a subject retains (oldest evicted
    /// first); bounds per-peer push state like `cache_size` bounds the
    /// link cache.
    pub interest_cap: usize,
    /// Factor by which [`MaintenanceMode::Push`] stretches the ping
    /// interval — pushes replace most polling, so pulls slow down.
    /// `Hybrid` keeps full-rate pings and only adds invalidations.
    pub ping_stretch: f64,
}

impl Default for PushParams {
    fn default() -> Self {
        // Tuned at full scale (N=1000, lifespan multipliers 1.0/0.2/0.05):
        // narrow trees + a mild ping stretch beat the aggressive
        // fanout-4/stretch-8 variants on coherence lag per message,
        // because pings remain the only channel that *removes* dead
        // entries and stretching them 8x starves it.
        PushParams {
            fanout: 2,
            ttl: 3,
            coalesce_window: SimDuration::from_secs(300.0),
            interest_cap: 16,
            ping_stretch: 2.0,
        }
    }
}

/// Protocol parameters — how GUESS itself is configured (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolParams {
    /// Order in which peers are probed for a query (`QueryProbe`).
    pub query_probe: SelectionPolicy,
    /// Entries preferred when answering a query's pong (`QueryPong`).
    pub query_pong: SelectionPolicy,
    /// Order in which neighbors are pinged (`PingProbe`).
    pub ping_probe: SelectionPolicy,
    /// Entries preferred when answering a ping's pong (`PingPong`).
    pub ping_pong: SelectionPolicy,
    /// Eviction policy for the link cache (`CacheReplacement`).
    pub cache_replacement: ReplacementPolicy,
    /// Elapsed time between a peer's maintenance pings (`PingInterval`).
    pub ping_interval: SimDuration,
    /// Link-cache capacity (`CacheSize`).
    pub cache_size: usize,
    /// MR\*: reset the `NumRes` field of entries learned from third
    /// parties (`ResetNumResults`).
    pub reset_num_results: bool,
    /// Back off from refusing peers instead of evicting them (`DoBackoff`).
    pub do_backoff: bool,
    /// IP addresses per pong (`PongSize`).
    pub pong_size: usize,
    /// Probability a probed peer adds the prober to its own cache
    /// (`IntroProb`).
    pub intro_prob: f64,
    /// Probes sent concurrently per query — `1` is the spec's strictly
    /// serial mode; `k > 1` models the parallel walks of §6.2.
    pub parallel_probes: usize,
    /// Gap between successive probe (rounds) of one query; the GUESS
    /// specification uses 0.2 s.
    pub probe_interval: SimDuration,
    /// Per-peer adaptive ping interval (§6.1's sketch: "a peer should
    /// adjust its PingInterval to maintain a certain threshold of live
    /// entries in its cache"); `false` pings at the fixed
    /// `ping_interval` (the paper's protocol).
    pub adaptive_ping: bool,
    /// Adaptive walk widening during a query ([`ESCALATE_AFTER`],
    /// [`MAX_K`]); `false` keeps the fixed `parallel_probes` (the
    /// paper's protocol).
    pub adaptive_parallelism: bool,
    /// Pong-source reputation filter: distrust (and eventually blacklist)
    /// peers whose shared cache entries keep turning out dead — the
    /// poisoning defense direction of Daswani & Garcia-Molina \[9\].
    pub distrust_pongs: bool,
    /// Probe payments (§3.3's incentive against selfish volleys, modeled
    /// after PPay \[23\]); `None` disables the economy.
    pub probe_payments: Option<crate::payments::PaymentParams>,
    /// How link caches are kept fresh: classic pull (the paper's
    /// protocol, the default), CUP-style push, or both.
    pub maintenance_mode: MaintenanceMode,
    /// Tuning of the push plane; inert under [`MaintenanceMode::Pull`].
    pub push: PushParams,
}

impl Default for ProtocolParams {
    /// The defaults of Table 2 (all policies Random).
    fn default() -> Self {
        ProtocolParams {
            query_probe: SelectionPolicy::Random,
            query_pong: SelectionPolicy::Random,
            ping_probe: SelectionPolicy::Random,
            ping_pong: SelectionPolicy::Random,
            cache_replacement: ReplacementPolicy::Random,
            ping_interval: SimDuration::from_secs(30.0),
            cache_size: 100,
            reset_num_results: false,
            do_backoff: false,
            pong_size: 5,
            intro_prob: 0.1,
            parallel_probes: 1,
            probe_interval: SimDuration::from_secs(0.2),
            adaptive_ping: false,
            adaptive_parallelism: false,
            distrust_pongs: false,
            probe_payments: None,
            maintenance_mode: MaintenanceMode::Pull,
            push: PushParams::default(),
        }
    }
}

impl ProtocolParams {
    /// Applies `policy` to QueryProbe, QueryPong and CacheReplacement at
    /// once (the combination the robustness experiments sweep, §6.4: e.g.
    /// "MR/MR/LR"); PingProbe/PingPong stay Random.
    #[must_use]
    pub fn with_uniform_policy(mut self, policy: SelectionPolicy) -> Self {
        self.query_probe = policy;
        self.query_pong = policy;
        self.cache_replacement = policy.mirror_replacement();
        self
    }
}

/// Run controls: duration, warm-up, sampling cadence, seeding.
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Total simulated time.
    pub duration: SimDuration,
    /// Initial span excluded from query metrics (cache warm-up).
    pub warmup: SimDuration,
    /// Cadence of cache-health / connectivity snapshots.
    pub sample_interval: SimDuration,
    /// Entries pre-seeded into each initial peer's cache
    /// (`CacheSeedSize`, ≈ NetworkSize/100 in the paper).
    pub cache_seed_size: usize,
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    /// Generate and execute queries. The connectivity experiments (§6.1,
    /// Figs 6–7) turn queries off to isolate ping-driven maintenance.
    pub simulate_queries: bool,
    /// Population size above which the periodic cache-health and
    /// connectivity snapshots switch from exhaustive sweeps to seeded
    /// stride sampling (see the engine's `sampling` module).
    pub metrics_sample_threshold: usize,
    /// Number of slots each sampled snapshot visits once the threshold
    /// is exceeded (clamped to the population size).
    pub metrics_sample_size: usize,
    /// Lane count for the conservative parallel kernel, read only by
    /// [`crate::engine::run_lanes`]: `1` (the default) is the serial
    /// engine; `n > 1` splits the population into `n` seed-addressed
    /// lanes whose output is a pure function of `(seed, lanes)`.
    pub lanes: usize,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            duration: SimDuration::from_secs(2400.0),
            warmup: SimDuration::from_secs(600.0),
            sample_interval: SimDuration::from_secs(60.0),
            cache_seed_size: 10,
            seed: 0x6a55,
            simulate_queries: true,
            metrics_sample_threshold: 50_000,
            metrics_sample_size: 10_000,
            lanes: 1,
        }
    }
}

/// The full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    /// Environment parameters (Table 1).
    pub system: SystemParams,
    /// Protocol parameters (Table 2).
    pub protocol: ProtocolParams,
    /// Run controls.
    pub run: RunParams,
    /// Content universe parameters.
    pub catalog: CatalogParams,
}

/// Error validating a [`Config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `network_size` was zero.
    EmptyNetwork,
    /// `cache_size` was zero.
    ZeroCacheSize,
    /// `cache_size` exceeded [`MAX_CACHE_SIZE`](crate::link_cache::MAX_CACHE_SIZE),
    /// the most entries a link-cache block can index.
    CacheSizeTooLarge,
    /// `pong_size` was zero (pongs are the only gossip channel).
    ZeroPongSize,
    /// `intro_prob` outside `[0,1]`.
    BadIntroProb,
    /// `bad_peer_fraction` outside `[0,1)`.
    BadBadPeerFraction,
    /// `num_desired_results` was zero.
    ZeroDesiredResults,
    /// `max_probes_per_second` was `Some(0)`: a peer that can process
    /// nothing is a dead peer (use `None` to lift the limit instead).
    ZeroProbeCapacity,
    /// `lifespan_multiplier` not finite/positive.
    BadLifespanMultiplier,
    /// `query_rate` not finite/positive.
    BadQueryRate,
    /// `parallel_probes` was zero.
    ZeroParallelProbes,
    /// Warm-up not shorter than duration.
    WarmupTooLong,
    /// `cache_seed_size` exceeded `network_size - 1`.
    SeedTooLarge,
    /// `selfish_fraction` outside `[0,1)` or zero `selfish_parallelism`.
    BadSelfishParams,
    /// Adaptive parallelism with `parallel_probes` above [`MAX_K`]
    /// (widening would narrow the walk).
    BadAdaptiveParallelism,
    /// Payment parameters non-finite, negative, or initial > max.
    BadPaymentParams,
    /// `metrics_sample_size` was zero.
    ZeroMetricsSample,
    /// Push-plane parameters inconsistent: zero fan-out/TTL/interest
    /// cap, or a ping stretch below 1.
    BadPushParams,
    /// `lanes` was zero, or left fewer than two peers per lane.
    BadLanes,
    /// `ping_interval` was zero: every ping would reschedule itself at
    /// the same instant and the run would never advance.
    ZeroPingInterval,
    /// `probe_interval` was zero: lane mode's lookahead window (one
    /// cross-lane round trip) would be empty.
    ZeroProbeInterval,
    /// `sample_interval` was zero: the snapshot tick would never advance.
    ZeroSampleInterval,
    /// Catalog parameters rejected by the shared content model.
    BadCatalog,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConfigError::EmptyNetwork => "network size must be positive",
            ConfigError::ZeroCacheSize => "cache size must be positive",
            ConfigError::CacheSizeTooLarge => "cache size must fit a u32 block offset",
            ConfigError::ZeroPongSize => "pong size must be positive",
            ConfigError::BadIntroProb => "introduction probability must be within [0, 1]",
            ConfigError::BadBadPeerFraction => "bad-peer fraction must be within [0, 1)",
            ConfigError::ZeroDesiredResults => "desired results must be positive",
            ConfigError::ZeroProbeCapacity => "max probes per second must be positive when set",
            ConfigError::BadLifespanMultiplier => "lifespan multiplier must be finite and positive",
            ConfigError::BadQueryRate => "query rate must be finite and positive",
            ConfigError::ZeroParallelProbes => "parallel probe count must be positive",
            ConfigError::WarmupTooLong => "warm-up must be shorter than the run duration",
            ConfigError::SeedTooLarge => "cache seed size must be below the network size",
            ConfigError::BadSelfishParams => {
                "selfish fraction must be within [0, 1) with positive parallelism"
            }
            ConfigError::BadAdaptiveParallelism => {
                return write!(
                    f,
                    "adaptive parallelism needs at most {MAX_K} parallel probes"
                );
            }
            ConfigError::BadPaymentParams => {
                "payment parameters must be finite, non-negative, with initial <= max"
            }
            ConfigError::ZeroMetricsSample => "metrics sample size must be positive",
            ConfigError::BadPushParams => {
                "push maintenance needs positive fan-out, ttl and interest cap, ping stretch >= 1"
            }
            ConfigError::BadLanes => "lanes must be positive and leave at least 2 peers per lane",
            ConfigError::ZeroPingInterval => "ping interval must be positive",
            ConfigError::ZeroProbeInterval => "probe interval must be positive",
            ConfigError::ZeroSampleInterval => "sample interval must be positive",
            ConfigError::BadCatalog => return InvalidCatalogError.fmt(f),
        };
        f.write_str(s)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.system.network_size == 0 {
            return Err(ConfigError::EmptyNetwork);
        }
        if self.protocol.cache_size == 0 {
            return Err(ConfigError::ZeroCacheSize);
        }
        if self.protocol.cache_size > crate::link_cache::MAX_CACHE_SIZE {
            return Err(ConfigError::CacheSizeTooLarge);
        }
        if self.protocol.pong_size == 0 {
            return Err(ConfigError::ZeroPongSize);
        }
        if !(0.0..=1.0).contains(&self.protocol.intro_prob) {
            return Err(ConfigError::BadIntroProb);
        }
        if !(0.0..1.0).contains(&self.system.bad_peer_fraction) {
            return Err(ConfigError::BadBadPeerFraction);
        }
        if self.system.num_desired_results == 0 {
            return Err(ConfigError::ZeroDesiredResults);
        }
        if self.system.max_probes_per_second == Some(0) {
            return Err(ConfigError::ZeroProbeCapacity);
        }
        if !self.system.lifespan_multiplier.is_finite() || self.system.lifespan_multiplier <= 0.0 {
            return Err(ConfigError::BadLifespanMultiplier);
        }
        if !self.system.query_rate.is_finite() || self.system.query_rate <= 0.0 {
            return Err(ConfigError::BadQueryRate);
        }
        if self.protocol.parallel_probes == 0 {
            return Err(ConfigError::ZeroParallelProbes);
        }
        if self.protocol.ping_interval.is_zero() {
            return Err(ConfigError::ZeroPingInterval);
        }
        if self.protocol.probe_interval.is_zero() {
            return Err(ConfigError::ZeroProbeInterval);
        }
        if self.run.sample_interval.is_zero() {
            return Err(ConfigError::ZeroSampleInterval);
        }
        self.catalog.check().map_err(|_| ConfigError::BadCatalog)?;
        if self.run.warmup >= self.run.duration {
            return Err(ConfigError::WarmupTooLong);
        }
        if self.run.cache_seed_size >= self.system.network_size {
            return Err(ConfigError::SeedTooLarge);
        }
        if self.run.metrics_sample_size == 0 {
            return Err(ConfigError::ZeroMetricsSample);
        }
        if self.run.lanes == 0
            || (self.run.lanes > 1 && self.system.network_size / self.run.lanes < 2)
        {
            return Err(ConfigError::BadLanes);
        }
        if !(0.0..1.0).contains(&self.system.selfish_fraction)
            || self.system.selfish_parallelism == 0
        {
            return Err(ConfigError::BadSelfishParams);
        }
        if self.protocol.adaptive_parallelism && self.protocol.parallel_probes > MAX_K {
            return Err(ConfigError::BadAdaptiveParallelism);
        }
        let push = &self.protocol.push;
        if push.fanout == 0
            || push.ttl == 0
            || push.interest_cap == 0
            || !push.ping_stretch.is_finite()
            || push.ping_stretch < 1.0
        {
            return Err(ConfigError::BadPushParams);
        }
        if let Some(pp) = self.protocol.probe_payments {
            let vals = [
                pp.initial_balance,
                pp.allowance_per_sec,
                pp.max_balance,
                pp.earn_per_answer,
            ];
            if vals.iter().any(|v| !v.is_finite() || *v < 0.0)
                || pp.initial_balance > pp.max_balance
            {
                return Err(ConfigError::BadPaymentParams);
            }
        }
        Ok(())
    }

    /// The behaviour of an honest newborn: selfish with probability
    /// `selfish_fraction` (§3.3), otherwise good.
    pub(crate) fn honest_behavior(&self, rng: &mut RngStream) -> Behavior {
        if rng.chance(self.system.selfish_fraction) {
            Behavior::Selfish
        } else {
            Behavior::Good
        }
    }

    /// The walk a query by a peer of `behavior` starts with.
    pub(crate) fn walk(&self, behavior: Behavior) -> Walk {
        let (k, widen) = match behavior {
            Behavior::Selfish => (self.system.selfish_parallelism, false),
            _ => (
                self.protocol.parallel_probes,
                self.protocol.adaptive_parallelism,
            ),
        };
        Walk {
            k,
            resultless: 0,
            widen,
        }
    }

    // ---- builder-style setters -------------------------------------
    //
    // Experiments sweep one or two parameters at a time off a shared
    // base config; these keep those call sites declarative instead of
    // mutating nested fields inline.

    /// Sets the master RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.run.seed = seed;
        self
    }

    /// Sets `NetworkSize` (Table 1).
    #[must_use]
    pub fn with_network_size(mut self, n: usize) -> Self {
        self.system.network_size = n;
        self
    }

    /// Sets `LifespanMultiplier` (Table 1).
    #[must_use]
    pub fn with_lifespan_multiplier(mut self, m: f64) -> Self {
        self.system.lifespan_multiplier = m;
        self
    }

    /// Sets `MaxProbesPerSecond`; `None` removes the capacity limit.
    #[must_use]
    pub fn with_max_probes_per_second(mut self, limit: Option<u32>) -> Self {
        self.system.max_probes_per_second = limit;
        self
    }

    /// Applies one policy to QueryProbe, QueryPong and CacheReplacement
    /// (the §6.4 sweep combination); PingProbe/PingPong stay Random.
    #[must_use]
    pub fn with_uniform_policy(mut self, policy: SelectionPolicy) -> Self {
        self.protocol = self.protocol.with_uniform_policy(policy);
        self
    }

    /// Sets the `QueryProbe` selection policy alone.
    #[must_use]
    pub fn with_query_probe(mut self, policy: SelectionPolicy) -> Self {
        self.protocol.query_probe = policy;
        self
    }

    /// Sets the `QueryPong` selection policy alone.
    #[must_use]
    pub fn with_query_pong(mut self, policy: SelectionPolicy) -> Self {
        self.protocol.query_pong = policy;
        self
    }

    /// Sets the `CacheReplacement` eviction policy alone.
    #[must_use]
    pub fn with_cache_replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.protocol.cache_replacement = policy;
        self
    }

    /// Sets `PingInterval` (Table 2).
    #[must_use]
    pub fn with_ping_interval(mut self, interval: SimDuration) -> Self {
        self.protocol.ping_interval = interval;
        self
    }

    /// Sets the number of concurrent probes per query (§6.2 walks).
    #[must_use]
    pub fn with_parallel_probes(mut self, k: usize) -> Self {
        self.protocol.parallel_probes = k;
        self
    }

    /// Sets `ResetNumResults` (the MR\* variant).
    #[must_use]
    pub fn with_reset_num_results(mut self, reset: bool) -> Self {
        self.protocol.reset_num_results = reset;
        self
    }

    /// Enables or disables query generation; connectivity experiments
    /// (Figs 6–7) turn it off to isolate ping-driven maintenance.
    #[must_use]
    pub fn with_queries(mut self, simulate: bool) -> Self {
        self.run.simulate_queries = simulate;
        self
    }

    /// Sets the malicious population: fraction of bad peers and what
    /// their pongs advertise (§6.4).
    #[must_use]
    pub fn with_bad_peers(mut self, fraction: f64, behavior: BadPongBehavior) -> Self {
        self.system.bad_peer_fraction = fraction;
        self.system.bad_pong_behavior = behavior;
        self
    }

    /// Sets the selfish population: fraction of free-riders and the
    /// probe parallelism they use (§3.3).
    #[must_use]
    pub fn with_selfish(mut self, fraction: f64, parallelism: usize) -> Self {
        self.system.selfish_fraction = fraction;
        self.system.selfish_parallelism = parallelism;
        self
    }

    /// Turns the adaptive ping interval on or off.
    #[must_use]
    pub fn with_adaptive_ping(mut self, on: bool) -> Self {
        self.protocol.adaptive_ping = on;
        self
    }

    /// Turns adaptive walk widening on or off.
    #[must_use]
    pub fn with_adaptive_parallelism(mut self, on: bool) -> Self {
        self.protocol.adaptive_parallelism = on;
        self
    }

    /// Enables or disables the pong-source reputation filter.
    #[must_use]
    pub fn with_distrust_pongs(mut self, distrust: bool) -> Self {
        self.protocol.distrust_pongs = distrust;
        self
    }

    /// Installs (or removes) the probe-payment economy (§3.3).
    #[must_use]
    pub fn with_probe_payments(mut self, pp: Option<crate::payments::PaymentParams>) -> Self {
        self.protocol.probe_payments = pp;
        self
    }

    /// Sets the cache maintenance mode (pull, push, or hybrid).
    #[must_use]
    pub fn with_maintenance_mode(mut self, mode: MaintenanceMode) -> Self {
        self.protocol.maintenance_mode = mode;
        self
    }

    /// Replaces the push-plane tuning parameters.
    #[must_use]
    pub fn with_push_params(mut self, push: PushParams) -> Self {
        self.protocol.push = push;
        self
    }

    /// Sets when and how hard the measurement sweeps sample: exhaustive
    /// at populations up to `threshold`, `size` sampled slots beyond it.
    #[must_use]
    pub fn with_metrics_sampling(mut self, threshold: usize, size: usize) -> Self {
        self.run.metrics_sample_threshold = threshold;
        self.run.metrics_sample_size = size;
        self
    }

    /// Sets the lane count [`crate::engine::run_lanes`] partitions the
    /// run into; `1` keeps the serial path. Nothing else reads it — a
    /// simulator built from this config runs serially (see
    /// [`RunParams::lanes`]).
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.run.lanes = lanes;
        self
    }

    /// Validates the configuration and builds the simulator — the same
    /// construction surface the gnutella and gossip configs expose.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for inconsistent parameters.
    pub fn build(self) -> Result<crate::engine::GuessSim, ConfigError> {
        crate::engine::GuessSim::new(self)
    }

    /// A config scaled down for fast tests: a small network, short run,
    /// and a proportionally smaller catalog.
    #[must_use]
    pub fn small_test(seed: u64) -> Config {
        Config {
            system: SystemParams {
                network_size: 120,
                ..SystemParams::default()
            },
            protocol: ProtocolParams {
                cache_size: 30,
                ..ProtocolParams::default()
            },
            run: RunParams {
                duration: SimDuration::from_secs(400.0),
                warmup: SimDuration::from_secs(100.0),
                sample_interval: SimDuration::from_secs(40.0),
                cache_seed_size: 3,
                seed,
                simulate_queries: true,
                ..RunParams::default()
            },
            catalog: CatalogParams {
                items: 4000,
                ..CatalogParams::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_tables() {
        let c = Config::default();
        assert_eq!(c.system.network_size, 1000);
        assert_eq!(c.system.num_desired_results, 1);
        assert_eq!(c.system.lifespan_multiplier, 1.0);
        assert!((c.system.query_rate - 9.26e-3).abs() < 1e-12);
        assert_eq!(c.system.max_probes_per_second, Some(100));
        assert_eq!(c.system.bad_peer_fraction, 0.0);
        assert_eq!(c.system.bad_pong_behavior, BadPongBehavior::Dead);
        assert_eq!(c.protocol.query_probe, SelectionPolicy::Random);
        assert_eq!(c.protocol.cache_replacement, ReplacementPolicy::Random);
        assert_eq!(c.protocol.ping_interval, SimDuration::from_secs(30.0));
        assert_eq!(c.protocol.cache_size, 100);
        assert!(!c.protocol.reset_num_results);
        assert!(!c.protocol.do_backoff);
        assert_eq!(c.protocol.pong_size, 5);
        assert!((c.protocol.intro_prob - 0.1).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn uniform_policy_sets_the_trio() {
        let p = ProtocolParams::default().with_uniform_policy(SelectionPolicy::Mfs);
        assert_eq!(p.query_probe, SelectionPolicy::Mfs);
        assert_eq!(p.query_pong, SelectionPolicy::Mfs);
        assert_eq!(p.cache_replacement, ReplacementPolicy::Lfs);
        assert_eq!(
            p.ping_probe,
            SelectionPolicy::Random,
            "ping policies untouched"
        );
    }

    #[test]
    fn validation_catches_each_field() {
        let mut c = Config::default();
        c.system.network_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::EmptyNetwork));

        let mut c = Config::default();
        c.protocol.cache_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCacheSize));

        // Validated only: the arena is never built at these sizes.
        let max = crate::link_cache::MAX_CACHE_SIZE;
        let mut c = Config::default();
        c.protocol.cache_size = max;
        assert_eq!(c.validate(), Ok(()));
        if let Some(over) = max.checked_add(1) {
            c.protocol.cache_size = over;
            assert_eq!(c.validate(), Err(ConfigError::CacheSizeTooLarge));
        }

        let mut c = Config::default();
        c.protocol.pong_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPongSize));

        let mut c = Config::default();
        c.protocol.intro_prob = 1.5;
        assert_eq!(c.validate(), Err(ConfigError::BadIntroProb));

        let mut c = Config::default();
        c.system.bad_peer_fraction = 1.0;
        assert_eq!(c.validate(), Err(ConfigError::BadBadPeerFraction));

        let mut c = Config::default();
        c.system.num_desired_results = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroDesiredResults));

        let c = Config::small_test(1).with_max_probes_per_second(Some(0));
        assert_eq!(c.validate(), Err(ConfigError::ZeroProbeCapacity));
        assert_eq!(
            c.clone().build().err(),
            Some(ConfigError::ZeroProbeCapacity)
        );
        assert_eq!(
            crate::run_lanes(c, 1).err(),
            Some(ConfigError::ZeroProbeCapacity)
        );

        let mut c = Config::default();
        c.system.lifespan_multiplier = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::BadLifespanMultiplier));

        let mut c = Config::default();
        c.system.query_rate = -1.0;
        assert_eq!(c.validate(), Err(ConfigError::BadQueryRate));

        let mut c = Config::default();
        c.protocol.parallel_probes = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroParallelProbes));

        let mut c = Config::default();
        c.run.warmup = c.run.duration;
        assert_eq!(c.validate(), Err(ConfigError::WarmupTooLong));

        let mut c = Config::default();
        c.run.cache_seed_size = c.system.network_size;
        assert_eq!(c.validate(), Err(ConfigError::SeedTooLarge));

        let mut c = Config::default();
        c.system.selfish_fraction = 1.0;
        assert_eq!(c.validate(), Err(ConfigError::BadSelfishParams));

        let mut c = Config::default();
        c.system.selfish_parallelism = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadSelfishParams));

        let c = Config::default()
            .with_parallel_probes(MAX_K + 1)
            .with_adaptive_parallelism(true);
        assert_eq!(c.validate(), Err(ConfigError::BadAdaptiveParallelism));
        assert!(c.with_adaptive_parallelism(false).validate().is_ok());

        let mut c = Config::default();
        c.protocol.probe_interval = SimDuration::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::ZeroProbeInterval));

        let mut c = Config::default();
        c.protocol.push.fanout = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadPushParams));

        let mut c = Config::default();
        c.protocol.push.ttl = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadPushParams));

        let mut c = Config::default();
        c.protocol.push.interest_cap = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadPushParams));

        let mut c = Config::default();
        c.protocol.push.ping_stretch = 0.5;
        assert_eq!(c.validate(), Err(ConfigError::BadPushParams));
    }

    #[test]
    fn zero_intervals_are_rejected() {
        // Either would reschedule its event at `now + 0` forever.
        let c = Config::small_test(1).with_ping_interval(SimDuration::ZERO);
        assert_eq!(c.validate(), Err(ConfigError::ZeroPingInterval));

        let mut c = Config::small_test(1);
        c.run.sample_interval = SimDuration::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSampleInterval));
    }

    #[test]
    fn bad_catalog_is_reported_as_such() {
        let mut c = Config::small_test(1);
        c.catalog.items = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadCatalog));
        assert_eq!(c.clone().build().err(), Some(ConfigError::BadCatalog));
        assert_eq!(
            crate::run_lanes(c.with_lanes(2), 1).err(),
            Some(ConfigError::BadCatalog)
        );

        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let mut c = Config::small_test(1);
            c.catalog.query_exponent = bad;
            assert_eq!(c.validate(), Err(ConfigError::BadCatalog));
            let mut c = Config::small_test(1);
            c.catalog.replication_exponent = bad;
            assert_eq!(c.validate(), Err(ConfigError::BadCatalog));
        }
    }

    #[test]
    fn extension_defaults_are_off() {
        let c = Config::default();
        assert_eq!(c.system.selfish_fraction, 0.0);
        assert!(!c.protocol.adaptive_ping);
        assert!(!c.protocol.adaptive_parallelism);
        assert!(!c.protocol.distrust_pongs);
        assert_eq!(c.protocol.maintenance_mode, MaintenanceMode::Pull);
        let mut with_ext = c;
        with_ext.protocol.adaptive_ping = true;
        with_ext.protocol.adaptive_parallelism = true;
        with_ext.system.selfish_fraction = 0.1;
        assert!(with_ext.validate().is_ok());
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(Config::small_test(1).validate().is_ok());
    }

    #[test]
    fn builders_set_the_named_fields() {
        let c = Config::default()
            .with_seed(0xbeef)
            .with_network_size(500)
            .with_lifespan_multiplier(0.2)
            .with_max_probes_per_second(None)
            .with_query_pong(SelectionPolicy::Mfs)
            .with_ping_interval(SimDuration::from_secs(90.0))
            .with_parallel_probes(3)
            .with_reset_num_results(true)
            .with_queries(false)
            .with_bad_peers(0.1, BadPongBehavior::Bad)
            .with_selfish(0.2, 4)
            .with_distrust_pongs(true)
            .with_maintenance_mode(MaintenanceMode::Hybrid)
            .with_push_params(PushParams {
                fanout: 6,
                ..PushParams::default()
            });
        assert_eq!(c.run.seed, 0xbeef);
        assert_eq!(c.system.network_size, 500);
        assert!((c.system.lifespan_multiplier - 0.2).abs() < 1e-12);
        assert_eq!(c.system.max_probes_per_second, None);
        assert_eq!(c.protocol.query_pong, SelectionPolicy::Mfs);
        assert_eq!(c.protocol.ping_interval, SimDuration::from_secs(90.0));
        assert_eq!(c.protocol.parallel_probes, 3);
        assert!(c.protocol.reset_num_results);
        assert!(!c.run.simulate_queries);
        assert!((c.system.bad_peer_fraction - 0.1).abs() < 1e-12);
        assert_eq!(c.system.bad_pong_behavior, BadPongBehavior::Bad);
        assert!((c.system.selfish_fraction - 0.2).abs() < 1e-12);
        assert_eq!(c.system.selfish_parallelism, 4);
        assert!(c.protocol.distrust_pongs);
        assert_eq!(c.protocol.maintenance_mode, MaintenanceMode::Hybrid);
        assert_eq!(c.protocol.push.fanout, 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn uniform_policy_builder_matches_protocol_level() {
        let c = Config::default().with_uniform_policy(SelectionPolicy::Mr);
        assert_eq!(c.protocol.query_probe, SelectionPolicy::Mr);
        assert_eq!(c.protocol.query_pong, SelectionPolicy::Mr);
        assert_eq!(c.protocol.cache_replacement, ReplacementPolicy::Lr);
    }

    #[test]
    fn bad_pong_behavior_displays() {
        assert_eq!(BadPongBehavior::Dead.to_string(), "Dead");
        assert_eq!(BadPongBehavior::Bad.to_string(), "Bad");
        assert_eq!(BadPongBehavior::Good.to_string(), "Good");
    }
}
