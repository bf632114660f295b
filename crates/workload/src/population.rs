//! The churning content population the forwarding baselines share, and
//! the engine around it.
//!
//! Figure 8 holds the *content* fixed and varies only the search
//! mechanism, so fixed extent, iterative deepening, the per-hop flooding
//! engine and rumor spreading all search one definition of "n peers,
//! each an incarnation plus a file-count-sampled library drawn from a
//! catalog, reborn in place with a fresh library": [`Population`]. The
//! static evaluators use it as generated. The two dynamic engines, the
//! Gnutella flood and gossip, are one [`ForwardingSim`] each: it runs
//! every peer on [`Clocks`] (the lifetime + query-burst pair), churns
//! the population, starts each burst's queries, applies scenario
//! interventions and drives the run, and the engine supplies only its
//! [`Search`] mechanism. Both engines also share their config's common
//! part ([`ForwardingConfig`], with its rules) and their report's
//! tallies ([`Tallies`]).
//!
//! Draw order is part of the contract (runs are byte-identical under a
//! seed), and every draw of a run comes from the engine's one stream.
//! Construction draws the population, then the mechanism's own state
//! (Gnutella's initial wiring); the run starts every peer's clocks in
//! slot order. A newborn draws its file count, then its library; [`Clocks::start`]
//! draws the lifetime, then the first burst gap. A birth (a rebirth on
//! a death, or a scenario join) draws the newborn, then whatever the
//! mechanism's [`Search::born`] draws (Gnutella's overlay wiring and
//! repairs), then the clocks. A burst draws its size, then each query's
//! target and the mechanism's own draws, then the next gap.
//!
//! GUESS shares the content and the clocks: its `GuessSim` holds one
//! [`Population`], whose honest newborns draw their file count and
//! library as here and whose malicious newborns are vacant slots, and
//! one [`Clocks`] for lifetimes and query bursts, drawn on its own
//! streams. It keeps the rest of its peer lifecycle: minted addresses
//! as identity, the link cache a newborn copies from a friend, the
//! capacity meter and the extensions' per-slot state.

use std::fmt;
use std::ops::{Deref, DerefMut};

use simkit::rng::RngStream;
use simkit::scenario::{Intervenable, Param, Partition, Scenario, ScenarioError};
use simkit::sim::{Kernel, KernelParams, Runnable, SimCtx, Simulation};
use simkit::stats::{CounterSet, Summary};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{TraceRecord, TraceSink};

use crate::content::{Catalog, CatalogParams, InvalidCatalogError, LibraryArena, LibraryHandle};
use crate::files::FileCountModel;
use crate::lifetime::LifetimeModel;
use crate::query::{InvalidQueryRateError, QueryModel, QueryTarget, QueryWorkload};

#[derive(Debug, Clone, Copy)]
struct Slot {
    incarnation: u64,
    /// Freed and rebuilt at every in-place rebirth, so churn recycles
    /// arena blocks instead of leaking them.
    library: LibraryHandle,
}

/// Peer slots with content libraries, plus the query model. Methods
/// taking a `slot` panic if it is out of range.
///
/// # Examples
///
/// ```
/// use workload::content::CatalogParams;
/// use workload::population::Population;
///
/// let pop = Population::generate(100, CatalogParams::default(), 42).unwrap();
/// assert_eq!(pop.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    slots: Vec<Slot>,
    /// Every slot's library items, shared contiguous storage.
    libs: LibraryArena,
    model: QueryModel,
    files: FileCountModel,
    next_incarnation: u64,
}

/// Error constructing a [`Population`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPopulationError {
    /// No peers requested.
    Empty,
    /// Catalog parameters were invalid.
    BadCatalog,
}

impl std::fmt::Display for BuildPopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildPopulationError::Empty => write!(f, "population must be non-empty"),
            BuildPopulationError::BadCatalog => write!(f, "invalid catalog parameters"),
        }
    }
}

impl std::error::Error for BuildPopulationError {}

impl Population {
    /// Generates `n` peers with Gnutella-like file counts and libraries
    /// drawn from a fresh catalog, on the seed's own `"population"`
    /// stream — the static populations of the Figure 8 evaluators.
    ///
    /// # Errors
    ///
    /// As [`Population::generate_from`].
    pub fn generate(
        n: usize,
        catalog: CatalogParams,
        seed: u64,
    ) -> Result<Self, BuildPopulationError> {
        Population::generate_from(n, catalog, &mut RngStream::from_seed(seed, "population"))
    }

    /// As [`Population::generate`], on the caller's stream: `n` joins.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPopulationError`], having drawn nothing, if
    /// `n == 0` or the catalog parameters are rejected.
    pub fn generate_from(
        n: usize,
        catalog: CatalogParams,
        rng: &mut RngStream,
    ) -> Result<Self, BuildPopulationError> {
        if n == 0 {
            return Err(BuildPopulationError::Empty);
        }
        let mut pop =
            Population::with_capacity(n, catalog).map_err(|_| BuildPopulationError::BadCatalog)?;
        for _ in 0..n {
            pop.join(Some(rng));
        }
        Ok(pop)
    }

    /// No peers yet, room for `n`, over a fresh catalog: the start of
    /// an engine that births its peers itself.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCatalogError`] if the catalog parameters are
    /// rejected.
    pub fn with_capacity(n: usize, catalog: CatalogParams) -> Result<Self, InvalidCatalogError> {
        Ok(Population {
            slots: Vec::with_capacity(n),
            libs: LibraryArena::new(),
            model: QueryModel::new(Catalog::new(catalog)?),
            files: FileCountModel::gnutella_like(),
            next_incarnation: 0,
        })
    }

    /// A newborn with the next never-used incarnation, and its file
    /// count. With `rng` it draws the count, then its library; without,
    /// it is vacant: no draw, an empty library, zero files.
    fn newborn(&mut self, rng: Option<&mut RngStream>) -> (Slot, u32) {
        let (library, count) = match rng {
            Some(rng) => {
                let count = self.files.sample_file_count(rng);
                let catalog = self.model.catalog();
                (catalog.build_library_in(count, rng, &mut self.libs), count)
            }
            None => (LibraryHandle::EMPTY, 0),
        };
        let incarnation = self.next_incarnation;
        self.next_incarnation += 1;
        let slot = Slot {
            incarnation,
            library,
        };
        (slot, count)
    }

    /// Appends a newborn (see [`Population::rebirth`]) in slot
    /// [`Population::len`] and returns its drawn file count.
    pub fn join(&mut self, rng: Option<&mut RngStream>) -> u32 {
        let (newborn, count) = self.newborn(rng);
        self.slots.push(newborn);
        count
    }

    /// Replaces `slot`'s occupant in place with a newborn, freeing the
    /// old library's block first, and returns the newborn's drawn file
    /// count. With `rng` the newborn draws its file count, then its
    /// library; `None` leaves the slot vacant, drawing nothing.
    pub fn rebirth(&mut self, slot: usize, rng: Option<&mut RngStream>) -> u32 {
        self.libs.free(self.slots[slot].library);
        let (newborn, count) = self.newborn(rng);
        self.slots[slot] = newborn;
        count
    }

    /// Number of slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns true if there are no slots (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The incarnation currently occupying `slot`.
    #[inline]
    #[must_use]
    pub fn incarnation(&self, slot: usize) -> u64 {
        self.slots[slot].incarnation
    }

    /// Whether `incarnation` still occupies `slot` — the guard that
    /// makes a dead peer's leftover events no-ops.
    #[inline]
    #[must_use]
    pub fn is_current(&self, slot: usize, incarnation: u64) -> bool {
        self.slots[slot].incarnation == incarnation
    }

    /// The items `slot` holds, in ascending id order.
    #[must_use]
    pub fn items(&self, slot: usize) -> &[u32] {
        self.libs.items(self.slots[slot].library)
    }

    /// Whether `slot`'s occupant answers `target`.
    #[inline]
    #[must_use]
    pub fn answers(&self, slot: usize, target: QueryTarget) -> bool {
        let library = self.slots[slot].library;
        self.model.answers_in(&self.libs, library, target)
    }

    /// Draws a query target from the query-popularity distribution.
    #[inline]
    #[must_use]
    pub fn sample_target(&self, rng: &mut RngStream) -> QueryTarget {
        self.model.sample_target(rng)
    }

    /// The largest file count a newborn can draw.
    #[must_use]
    pub fn max_files(&self) -> u32 {
        self.files.max_files()
    }

    /// Number of peers that could answer `target` — the content's true
    /// replication in this population.
    #[must_use]
    pub fn holders(&self, target: QueryTarget) -> usize {
        (0..self.len()).filter(|&i| self.answers(i, target)).count()
    }
}

/// The two clocks every peer of a churning [`Population`] runs on:
/// sampled lifetimes, which schedule (and trace) births and deaths, and
/// the bursty query process. Every draw comes from the caller's stream.
#[derive(Debug, Clone)]
pub struct Clocks {
    lifetimes: LifetimeModel,
    /// The bursty query process.
    pub workload: QueryWorkload,
}

impl Clocks {
    /// Saroiu-like lifetimes scaled by `lifespan_multiplier`, query
    /// bursts at the long-run per-user `query_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQueryRateError`] unless the rate is finite and
    /// positive.
    pub fn new(lifespan_multiplier: f64, query_rate: f64) -> Result<Self, InvalidQueryRateError> {
        Ok(Clocks {
            lifetimes: LifetimeModel::saroiu_like(lifespan_multiplier),
            workload: QueryWorkload::with_rate(query_rate)?,
        })
    }

    /// Rebuilds the query process at a new per-user `query_rate`, as a
    /// scenario flip installs it.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQueryRateError`], changing nothing, unless the
    /// rate is finite and positive.
    pub fn set_query_rate(&mut self, query_rate: f64) -> Result<(), InvalidQueryRateError> {
        self.workload = QueryWorkload::with_rate(query_rate)?;
        Ok(())
    }

    /// Registers newborn `peer` at `now`: draws its lifetime (one draw
    /// from `rng`), traces a [`TraceRecord::PeerJoin`] and schedules
    /// `death` at `now + lifetime`.
    pub fn spawn<E, T: TraceSink>(
        &self,
        ctx: &mut SimCtx<'_, E, T>,
        rng: &mut RngStream,
        now: SimTime,
        peer: u64,
        death: E,
    ) {
        let life = self.lifetimes.sample_lifetime(rng);
        if ctx.tracing() {
            ctx.emit(now, TraceRecord::PeerJoin { peer });
        }
        ctx.schedule(now + life, death);
    }

    /// Traces the death of `peer`, before its replacement is spawned.
    pub fn died<E, T: TraceSink>(ctx: &mut SimCtx<'_, E, T>, now: SimTime, peer: u64) {
        if ctx.tracing() {
            ctx.emit(now, TraceRecord::PeerDeath { peer });
        }
    }

    /// Starts a newborn's clocks at `now`: [`Clocks::spawn`] with
    /// `death`, then draws its first burst gap and schedules `burst` —
    /// two draws from `rng`, in that order.
    pub fn start<E, T: TraceSink>(
        &self,
        ctx: &mut SimCtx<'_, E, T>,
        rng: &mut RngStream,
        now: SimTime,
        incarnation: u64,
        death: E,
        burst: E,
    ) {
        self.spawn(ctx, rng, now, incarnation, death);
        let gap = self.workload.sample_burst_gap(rng);
        ctx.schedule(now + gap, burst);
    }
}

/// The settings every forwarding engine shares. An engine config keeps
/// one as `common` and derefs to it; [`forwarding_config!`](crate::forwarding_config)
/// gives it `small_test` and a `with_*` setter per field.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardingConfig {
    /// Peers at the start; churn keeps the count, scenario joins add more.
    pub network_size: usize,
    /// Results needed to satisfy a query (`NumDesiredResults`).
    pub num_desired_results: u32,
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
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    /// Cadence of the kernel's sample tick (live-peer snapshots in the
    /// trace); `None`, the default, schedules no tick events at all.
    pub sample_interval: Option<SimDuration>,
}

impl ForwardingConfig {
    /// Paper-scale settings under `seed`: 1000 peers, one desired
    /// result, a 2400 s run with a 600 s warm-up.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        ForwardingConfig {
            network_size: 1000,
            num_desired_results: 1,
            query_rate: 9.26e-3,
            lifespan_multiplier: 1.0,
            catalog: CatalogParams::default(),
            duration: SimDuration::from_secs(2400.0),
            warmup: SimDuration::from_secs(600.0),
            seed,
            sample_interval: None,
        }
    }

    /// A downsized configuration for tests: 150 peers, a 400 s run with
    /// a 100 s warm-up, and a 4000-item catalog.
    #[must_use]
    pub fn small_test(seed: u64) -> Self {
        ForwardingConfig {
            network_size: 150,
            duration: SimDuration::from_secs(400.0),
            warmup: SimDuration::from_secs(100.0),
            catalog: CatalogParams {
                items: 4000,
                ..CatalogParams::default()
            },
            ..ForwardingConfig::paper(seed)
        }
    }

    /// Checks the shared rules, which every engine config checks first.
    ///
    /// # Errors
    ///
    /// Returns the first [`ForwardingConfigError`] found.
    pub fn validate(&self) -> Result<(), ForwardingConfigError> {
        use ForwardingConfigError as E;
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let broken = if self.network_size < 2 {
            E::NetworkTooSmall
        } else if self.num_desired_results == 0 {
            E::ZeroDesiredResults
        } else if !positive(self.query_rate) {
            E::BadQueryRate
        } else if !positive(self.lifespan_multiplier) {
            E::BadLifespanMultiplier
        } else if self.catalog.check().is_err() {
            E::BadCatalog
        } else if self.warmup >= self.duration {
            E::WarmupTooLong
        } else if self.sample_interval.is_some_and(SimDuration::is_zero) {
            E::ZeroSampleInterval
        } else {
            return Ok(());
        };
        Err(broken)
    }
}

/// A shared rule of [`ForwardingConfig`] that a config breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingConfigError {
    /// Fewer than two peers: no one to search.
    NetworkTooSmall,
    /// Zero desired results satisfies every query vacuously.
    ZeroDesiredResults,
    /// Query rate not finite and positive.
    BadQueryRate,
    /// Lifespan multiplier not finite and positive.
    BadLifespanMultiplier,
    /// Catalog parameters fail [`CatalogParams::check`].
    BadCatalog,
    /// Warm-up does not end before the run does.
    WarmupTooLong,
    /// `sample_interval` was `Some(0)`: the tick would never advance.
    ZeroSampleInterval,
}

impl fmt::Display for ForwardingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ForwardingConfigError as E;
        f.write_str(match self {
            E::NetworkTooSmall => "network_size must be at least 2",
            E::ZeroDesiredResults => "num_desired_results must be at least 1",
            E::BadQueryRate => "query_rate must be finite and positive",
            E::BadLifespanMultiplier => "lifespan_multiplier must be finite and positive",
            E::BadCatalog => return InvalidCatalogError.fmt(f),
            E::WarmupTooLong => "warmup must end before duration",
            E::ZeroSampleInterval => "sample_interval must be positive",
        })
    }
}

impl std::error::Error for ForwardingConfigError {}

/// Gives an engine config (with a `Default`) that keeps its
/// [`ForwardingConfig`] as `common` what every forwarding config has:
/// `Deref`/`DerefMut` to it, `small_test`, and the shared setters.
#[macro_export]
macro_rules! forwarding_config {
    ($config:ident) => {
        impl ::std::ops::Deref for $config {
            type Target = $crate::population::ForwardingConfig;
            fn deref(&self) -> &Self::Target {
                &self.common
            }
        }

        impl ::std::ops::DerefMut for $config {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.common
            }
        }

        impl $config {
            /// The shared test-sized settings, the engine's own at their
            /// defaults.
            #[must_use]
            pub fn small_test(seed: u64) -> Self {
                let common = $crate::population::ForwardingConfig::small_test(seed);
                $config { common, ..Self::default() }
            }
        }

        $crate::forwarding_config!(@setters $config;
            /// Sets the number of peers at the start.
            with_network_size network_size: usize,
            /// Sets the number of results that satisfies a query.
            with_num_desired_results num_desired_results: u32,
            /// Sets the per-user query rate (queries/second).
            with_query_rate query_rate: f64,
            /// Sets the lifespan multiplier of the shared lifetime model.
            with_lifespan_multiplier lifespan_multiplier: f64,
            /// Sets the simulated duration.
            with_duration duration: ::simkit::time::SimDuration,
            /// Sets the warm-up span excluded from query metrics.
            with_warmup warmup: ::simkit::time::SimDuration,
            /// Sets the master seed.
            with_seed seed: u64,
            /// Sets the kernel sample-tick cadence (`None` disables ticks).
            with_sample_interval sample_interval: Option<::simkit::time::SimDuration>,
        );
    };
    (@setters $config:ident; $($(#[$doc:meta])* $setter:ident $field:ident: $ty:ty,)*) => {
        impl $config {
            $(
                $(#[$doc])*
                #[must_use]
                pub fn $setter(mut self, $field: $ty) -> Self {
                    self.common.$field = $field;
                    self
                }
            )*
        }
    };
}

/// The query tallies behind every forwarding engine's report, which
/// keeps them as `tallies` and derefs to them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tallies {
    /// Queries started after warm-up (each settles exactly once).
    pub queries: u64,
    /// Queries that found fewer than the desired results.
    pub unsatisfied: u64,
    /// Per-query messages transmitted.
    pub messages: Summary,
    /// Per-query count of distinct peers reached, originator excluded.
    pub peers_reached: Summary,
    /// Event counters: births, deaths, interventions, the mechanism's.
    pub counters: CounterSet,
}

impl Tallies {
    /// Records one measured query.
    pub fn record(&mut self, satisfied: bool, messages: u64, reached: u64) {
        self.queries += 1;
        self.unsatisfied += u64::from(!satisfied);
        self.messages.record(messages as f64);
        self.peers_reached.record(reached as f64);
    }

    /// Fraction of queries that went unsatisfied.
    #[must_use]
    pub fn unsatisfaction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.unsatisfied as f64 / self.queries as f64
        }
    }

    /// Mean messages per query — the search cost that corresponds to
    /// GUESS's probes/query.
    #[must_use]
    pub fn messages_per_query(&self) -> f64 {
        self.messages.mean()
    }

    /// Writes a report holding these tallies as one flat struct,
    /// `name { queries, unsatisfied, messages, peers_reached, <own>,
    /// counters, events_processed }`: the benchmark digests that text.
    ///
    /// # Errors
    ///
    /// As the formatter.
    pub fn fmt_report(
        &self,
        f: &mut fmt::Formatter<'_>,
        name: &str,
        own: &[(&str, &dyn fmt::Debug)],
        events_processed: u64,
    ) -> fmt::Result {
        let mut report = f.debug_struct(name);
        report
            .field("queries", &self.queries)
            .field("unsatisfied", &self.unsatisfied)
            .field("messages", &self.messages)
            .field("peers_reached", &self.peers_reached);
        for (field, value) in own {
            report.field(field, value);
        }
        report
            .field("counters", &self.counters)
            .field("events_processed", &events_processed)
            .finish()
    }
}

/// The events of a [`ForwardingSim`]: a peer's two clocks, and one step
/// of an in-flight search (a flood hop, a gossip round).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub enum Event<E> {
    Burst { slot: u32, incarnation: u64 },
    Death { slot: u32, incarnation: u64 },
    Step(E),
}

/// The kernel context a [`Search`] schedules and traces through.
pub type Ctx<'a, S, T> = SimCtx<'a, Event<<S as Search>::Step>, T>;

/// A forwarding engine's search mechanism: all that flooding and rumor
/// spreading do differently. Each hook borrows the shared [`Peers`]
/// beside the mechanism's own state.
pub trait Search: Sized {
    /// The engine's RNG stream label and scenario-error name.
    const ENGINE: &'static str;
    /// The engine's config: a [`ForwardingConfig`] plus its own knobs.
    type Config: Clone + Deref<Target = ForwardingConfig> + DerefMut;
    /// The engine's config error.
    type Error: fmt::Display;
    /// What [`Event::Step`] carries.
    type Step;
    /// The engine's run report.
    type Report;

    /// The engine config's `validate`: the shared rules, then its own.
    ///
    /// # Errors
    ///
    /// Returns the first rule broken.
    fn validate(cfg: &Self::Config) -> Result<(), Self::Error>;

    /// Writes an engine knob into `cfg`; `false` when there is no such
    /// knob. The shared [`Param::QueryRate`] never gets here.
    fn set_param(cfg: &mut Self::Config, param: Param) -> bool;

    /// Builds the mechanism over the generated population.
    fn new(peers: &mut Peers<Self>) -> Self;

    /// A newborn occupies `slot`, in place of a dead peer or in the slot
    /// a join just appended; its clocks start next.
    fn born(&mut self, peers: &mut Peers<Self>, slot: usize);

    /// Starts query `query` for `target` from `src`; its `QueryStart`
    /// record is already out.
    fn start<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        src: usize,
        query: u64,
        target: QueryTarget,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    );

    /// Runs one step of an in-flight search.
    fn step<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        step: Self::Step,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    );

    /// Builds the report once the kernel has stopped at `end`; `sink`
    /// still takes records.
    fn finish<T: TraceSink>(
        self,
        peers: Peers<Self>,
        end: SimTime,
        events_processed: u64,
        sink: &mut T,
    ) -> Self::Report;
}

/// Everything a forwarding engine runs on besides its search mechanism.
pub struct Peers<S: Search> {
    /// The validated configuration; a scenario flip installs a
    /// re-validated copy.
    pub cfg: S::Config,
    /// Active partition: slots in different groups cannot reach each
    /// other. `None` means fully connected.
    pub partition: Option<Partition>,
    /// The peers and their content.
    pub pop: Population,
    /// Every peer's lifetime and query-burst clocks.
    pub clocks: Clocks,
    /// The run's one stream.
    pub rng: RngStream,
    /// The report's shared tallies.
    pub tallies: Tallies,
}

/// A forwarding engine: the peer lifecycle both forwarding baselines
/// share, searching with mechanism `S`. Rebirth is in place and
/// immediate, so only scenario joins change the live-peer count.
pub struct ForwardingSim<S: Search> {
    peers: Peers<S>,
    search: S,
    next_query: u64,
}

impl<S: Search> ForwardingSim<S> {
    /// Validates `cfg` and builds the simulator: the population, then
    /// the mechanism.
    ///
    /// # Errors
    ///
    /// Returns the engine's error for inconsistent parameters.
    pub fn new(cfg: S::Config) -> Result<Self, S::Error> {
        S::validate(&cfg)?;
        let mut rng = RngStream::from_seed(cfg.seed, S::ENGINE);
        let pop = Population::generate_from(cfg.network_size, cfg.catalog, &mut rng)
            .expect("validate checked the size and the catalog");
        let clocks = Clocks::new(cfg.lifespan_multiplier, cfg.query_rate)
            .expect("validate checked the query rate");
        let mut peers = Peers {
            cfg,
            partition: None,
            pop,
            clocks,
            rng,
            tallies: Tallies::default(),
        };
        let search = S::new(&mut peers);
        Ok(ForwardingSim {
            peers,
            search,
            next_query: 0,
        })
    }

    /// Counts the birth of `slot`'s occupant and starts its clocks.
    fn start_clocks<T: TraceSink>(&mut self, slot: usize, now: SimTime, ctx: &mut Ctx<'_, S, T>) {
        let peers = &mut self.peers;
        peers.tallies.counters.incr("births");
        let incarnation = peers.pop.incarnation(slot);
        let slot = slot as u32;
        let death = Event::Death { slot, incarnation };
        let burst = Event::Burst { slot, incarnation };
        let rng = &mut peers.rng;
        peers.clocks.start(ctx, rng, now, incarnation, death, burst);
    }

    /// Kills `slot`'s `incarnation` unless it is already gone; the slot
    /// is reborn in place with a fresh library, wired in by the
    /// mechanism, and started.
    fn on_death<T: TraceSink>(
        &mut self,
        slot: usize,
        incarnation: u64,
        now: SimTime,
        ctx: &mut Ctx<'_, S, T>,
    ) {
        if !self.peers.pop.is_current(slot, incarnation) {
            return;
        }
        Clocks::died(ctx, now, incarnation);
        self.peers.tallies.counters.incr("deaths");
        self.peers.pop.rebirth(slot, Some(&mut self.peers.rng));
        self.search.born(&mut self.peers, slot);
        self.start_clocks(slot, now, ctx);
    }

    /// Runs a burst of queries from `slot`'s `incarnation` unless it is
    /// already gone, and schedules its next burst.
    fn on_burst<T: TraceSink>(
        &mut self,
        slot: usize,
        incarnation: u64,
        now: SimTime,
        ctx: &mut Ctx<'_, S, T>,
    ) {
        if !self.peers.pop.is_current(slot, incarnation) {
            return;
        }
        let peers = &mut self.peers;
        let burst = peers.clocks.workload.sample_burst_size(&mut peers.rng);
        for _ in 0..burst {
            self.start_query(slot, now, ctx);
        }
        let peers = &mut self.peers;
        let gap = peers.clocks.workload.sample_burst_gap(&mut peers.rng);
        let slot = slot as u32;
        ctx.schedule(now + gap, Event::Burst { slot, incarnation });
    }

    /// Numbers and traces one query from `src`, draws its target, and
    /// hands it to the mechanism.
    fn start_query<T: TraceSink>(&mut self, src: usize, now: SimTime, ctx: &mut Ctx<'_, S, T>) {
        let query = self.next_query;
        self.next_query += 1;
        if ctx.tracing() {
            let origin = self.peers.pop.incarnation(src);
            ctx.emit(now, TraceRecord::QueryStart { query, origin });
        }
        let target = self.peers.pop.sample_target(&mut self.peers.rng);
        let peers = &mut self.peers;
        self.search.start(peers, src, query, target, now, ctx);
    }
}

impl<S: Search, T: TraceSink> Simulation<T> for ForwardingSim<S> {
    type Event = Event<S::Step>;

    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut Ctx<'_, S, T>) {
        match event {
            Event::Death { slot, incarnation } => {
                self.on_death(slot as usize, incarnation, now, ctx);
            }
            Event::Burst { slot, incarnation } => {
                self.on_burst(slot as usize, incarnation, now, ctx);
            }
            Event::Step(step) => self.search.step(&mut self.peers, step, now, ctx),
        }
    }

    fn live_peers(&self) -> u64 {
        self.peers.pop.len() as u64
    }
}

impl<S: Search> Runnable for ForwardingSim<S> {
    type Report = S::Report;

    fn run_scenario_traced<T: TraceSink>(
        mut self,
        scenario: &Scenario,
        sink: T,
    ) -> Result<(S::Report, T), ScenarioError> {
        let cfg = &self.peers.cfg;
        let end = SimTime::ZERO + cfg.duration;
        let mut params = KernelParams::new(cfg.duration).with_warmup(cfg.warmup);
        if let Some(interval) = cfg.sample_interval {
            params = params.with_sampling(interval);
        }
        let mut kernel = Kernel::new(params, sink);
        let mut ctx = kernel.ctx();
        for slot in 0..self.peers.pop.len() {
            self.start_clocks(slot, SimTime::ZERO, &mut ctx);
        }
        kernel.run_scenario(&mut self, scenario)?;
        let events = kernel.events_processed();
        let mut sink = kernel.into_sink();
        let report = self.search.finish(self.peers, end, events, &mut sink);
        Ok((report, sink))
    }
}

/// The scenario hooks reuse the engine's own paths: a join is a birth
/// in a new slot, a kill a death (and rebirth) of a drawn victim, a
/// flash-crowd query a burst's query from a drawn source.
impl<S: Search, T: TraceSink> Intervenable<T> for ForwardingSim<S> {
    const ENGINE: &'static str = S::ENGINE;
    type Config = S::Config;

    fn join_one(&mut self, now: SimTime, ctx: &mut Ctx<'_, S, T>) {
        self.peers.pop.join(Some(&mut self.peers.rng));
        let slot = self.peers.pop.len() - 1;
        self.search.born(&mut self.peers, slot);
        self.start_clocks(slot, now, ctx);
    }
    fn kill_one(&mut self, now: SimTime, ctx: &mut Ctx<'_, S, T>) {
        let slot = self.peers.rng.below(self.peers.pop.len());
        self.on_death(slot, self.peers.pop.incarnation(slot), now, ctx);
    }
    fn query_one(&mut self, now: SimTime, ctx: &mut Ctx<'_, S, T>) {
        let src = self.peers.rng.below(self.peers.pop.len());
        self.start_query(src, now, ctx);
    }

    fn config(&self) -> &S::Config {
        &self.peers.cfg
    }
    fn set_param(cfg: &mut S::Config, param: Param) -> bool {
        match param {
            Param::QueryRate(rate) => cfg.query_rate = rate,
            _ => return S::set_param(cfg, param),
        }
        true
    }
    fn install(&mut self, cfg: S::Config) -> Result<(), String> {
        S::validate(&cfg).map_err(|e| e.to_string())?;
        self.peers
            .clocks
            .set_query_rate(cfg.query_rate)
            .map_err(|e| e.to_string())?;
        self.peers.cfg = cfg;
        Ok(())
    }

    fn partition_mut(&mut self) -> &mut Option<Partition> {
        &mut self.peers.partition
    }
    fn counters_mut(&mut self) -> &mut CounterSet {
        &mut self.peers.tallies.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ItemId;
    use simkit::sim::{Kernel, KernelParams, Simulation};
    use simkit::time::SimDuration;
    use simkit::trace::{CountingSink, NullSink};

    #[test]
    fn rejects_empty_population() {
        assert_eq!(
            Population::generate(0, CatalogParams::default(), 1).unwrap_err(),
            BuildPopulationError::Empty
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Population::generate(50, CatalogParams::default(), 9).unwrap();
        let b = Population::generate(50, CatalogParams::default(), 9).unwrap();
        for i in 0..50 {
            assert_eq!(a.items(i), b.items(i));
        }
    }

    #[test]
    fn some_peers_share_nothing() {
        let pop = Population::generate(400, CatalogParams::default(), 2).unwrap();
        let free = (0..400).filter(|&i| pop.items(i).is_empty()).count();
        assert!(free > 40, "expect ~25% free riders, got {free}/400");
        assert!(free < 200);
    }

    #[test]
    fn popular_targets_have_more_holders() {
        let pop = Population::generate(500, CatalogParams::default(), 3).unwrap();
        let head = pop.holders(QueryTarget { item: ItemId(0) });
        let tail = pop.holders(QueryTarget {
            item: ItemId(30_000),
        });
        assert!(head > tail, "head item holders {head} vs tail {tail}");
    }

    #[test]
    fn generate_draws_what_the_owned_reference_draws() {
        let params = CatalogParams::default();
        let mut ours = RngStream::from_seed(7, "pin");
        let pop = Population::generate_from(60, params, &mut ours).unwrap();

        let mut reference = RngStream::from_seed(7, "pin");
        let catalog = Catalog::new(params).unwrap();
        let files = FileCountModel::gnutella_like();
        let head = QueryTarget { item: ItemId(0) };
        for slot in 0..60 {
            let count = files.sample_file_count(&mut reference);
            let owned = catalog.build_library(count, &mut reference);
            let owned_items: Vec<u32> = owned.iter().map(|i| i.0).collect();
            assert_eq!(pop.items(slot), owned_items.as_slice(), "slot {slot}");
            assert_eq!(pop.answers(slot, head), pop.model.answers(&owned, head));
        }
        assert_eq!(ours.next_u64(), reference.next_u64(), "streams in lockstep");
    }

    #[test]
    fn rebirth_never_reuses_an_incarnation_and_leaks_no_block() {
        let mut rng = RngStream::from_seed(11, "churn");
        let mut pop = Population::generate_from(50, CatalogParams::default(), &mut rng).unwrap();
        let mut seen: std::collections::HashSet<u64> =
            (0..50).map(|s| pop.incarnation(s)).collect();
        assert_eq!(seen.len(), 50);
        for _ in 0..10_000 {
            let slot = rng.below(50);
            let old = pop.incarnation(slot);
            pop.rebirth(slot, Some(&mut rng));
            let new = pop.incarnation(slot);
            assert!(pop.is_current(slot, new) && !pop.is_current(slot, old));
            assert!(seen.insert(new), "incarnation {new} was handed out twice");
        }
        let held: usize = (0..50).map(|s| pop.items(s).len()).sum();
        assert_eq!(pop.libs.live_items(), held, "a replaced block leaked");
    }

    #[test]
    fn join_appends_the_next_slot_with_a_fresh_incarnation() {
        let mut rng = RngStream::from_seed(12, "join");
        let mut pop = Population::generate_from(5, CatalogParams::default(), &mut rng).unwrap();
        pop.rebirth(2, Some(&mut rng));
        let before: Vec<u64> = (0..5).map(|s| pop.incarnation(s)).collect();
        pop.join(Some(&mut rng));
        assert_eq!(pop.len(), 6);
        assert!(!before.contains(&pop.incarnation(5)));
        assert!((0..5).all(|s| pop.is_current(s, before[s])));
    }

    #[test]
    fn birth_returns_the_drawn_file_count() {
        let mut rng = RngStream::from_seed(14, "count");
        let mut by_hand = rng.clone();
        let files = FileCountModel::gnutella_like();
        let mut pop = Population::with_capacity(2, CatalogParams::default()).unwrap();
        let count = files.sample_file_count(&mut by_hand);
        assert_eq!(pop.join(Some(&mut rng)), count);
        assert!(pop.items(0).len() <= count as usize);
        assert!(pop.max_files() >= count);
    }

    #[test]
    fn vacant_newborn_draws_nothing_and_frees_its_predecessors_block() {
        let mut rng = RngStream::from_seed(15, "vacant");
        let mut pop = Population::generate_from(30, CatalogParams::default(), &mut rng).unwrap();
        let slot = (0..30).find(|&s| !pop.items(s).is_empty()).unwrap();
        let (held, old) = (pop.libs.live_items(), pop.incarnation(slot));
        let freed = pop.items(slot).len();
        let mut untouched = rng.clone();

        assert_eq!(pop.rebirth(slot, None), 0);
        assert!(pop.items(slot).is_empty());
        assert_eq!(
            pop.libs.live_items(),
            held - freed,
            "the old block is freed"
        );
        assert!(!pop.is_current(slot, old));
        assert!(!(0..1000).any(|i| pop.answers(slot, QueryTarget { item: ItemId(i) })));

        assert_eq!(pop.join(None), 0);
        assert!(pop.items(30).is_empty());
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no draw");
    }

    /// Records when each clock event fires.
    struct Fired(Vec<(SimTime, &'static str)>);

    impl<T: TraceSink> Simulation<T> for Fired {
        type Event = &'static str;

        fn handle(&mut self, now: SimTime, ev: Self::Event, _: &mut SimCtx<'_, Self::Event, T>) {
            self.0.push((now, ev));
        }
    }

    #[test]
    fn start_draws_lifetime_before_burst_gap() {
        let mut rng = RngStream::from_seed(13, "clocks");
        let mut by_hand = RngStream::from_seed(13, "clocks");
        let life = LifetimeModel::saroiu_like(1.0).sample_lifetime(&mut by_hand);
        let gap = QueryWorkload::with_rate(0.5)
            .unwrap()
            .sample_burst_gap(&mut by_hand);

        let horizon = SimDuration::from_secs(life.as_secs() + gap.as_secs() + 1.0);
        let mut kernel = Kernel::new(KernelParams::new(horizon), NullSink);
        let now = SimTime::from_secs(0.25);
        let clocks = Clocks::new(1.0, 0.5).unwrap();
        clocks.start(&mut kernel.ctx(), &mut rng, now, 0, "death", "burst");
        let mut fired = Fired(Vec::new());
        kernel.run(&mut fired);
        assert!(fired.0.contains(&(now + life, "death")));
        assert!(fired.0.contains(&(now + gap, "burst")));
        assert_eq!(rng.next_u64(), by_hand.next_u64(), "exactly two draws");
    }

    #[test]
    fn spawn_schedules_death_at_the_sampled_lifetime() {
        let mut rng = RngStream::from_seed(1, "churn-test");
        let mut by_hand = RngStream::from_seed(1, "churn-test");
        let life = LifetimeModel::saroiu_like(1.0).sample_lifetime(&mut by_hand);

        let horizon = SimDuration::from_secs(life.as_secs() + 1.0);
        let mut kernel = Kernel::new(KernelParams::new(horizon), CountingSink::new());
        let clocks = Clocks::new(1.0, 0.5).unwrap();
        clocks.spawn(&mut kernel.ctx(), &mut rng, SimTime::ZERO, 3, "death");
        let mut fired = Fired(Vec::new());
        kernel.run(&mut fired);
        assert_eq!(fired.0, vec![(SimTime::ZERO + life, "death")]);
        assert_eq!(kernel.into_sink().joins, 1, "exactly one PeerJoin");
        assert_eq!(rng.next_u64(), by_hand.next_u64(), "exactly one draw");
    }

    #[test]
    fn set_query_rate_rebuilds_the_burst_process() {
        let mut clocks = Clocks::new(1.0, 0.5).unwrap();
        clocks.set_query_rate(2.0).unwrap();
        assert_eq!(clocks.workload.rate(), 2.0);
        assert!(clocks.set_query_rate(f64::NAN).is_err());
        assert_eq!(
            clocks.workload.rate(),
            2.0,
            "a rejected rate changes nothing"
        );
    }
}
