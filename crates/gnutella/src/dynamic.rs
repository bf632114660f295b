//! A churn-aware Gnutella overlay simulator.
//!
//! §3.2 of the paper compares GUESS and Gnutella *qualitatively* on state
//! maintenance: Gnutella keeps a handful of open, mutual connections and
//! repairs them actively on churn, while GUESS maintains a large soft
//! cache with pings. §3.3 adds the security angle: flooding amplifies a
//! single malicious query into network-wide load. This module provides
//! the dynamic Gnutella side of those comparisons — an event-driven
//! overlay where peers join, connect to a target number of neighbors,
//! flood queries with a TTL, die silently, and where survivors repair
//! their degree by re-connecting.
//!
//! Floods execute as per-hop *wavefront* events — one kernel event per
//! (query, hop) advancing a dense frontier over slot-indexed adjacency
//! (see [`crate::wavefront`]) — rather than one event per forwarded
//! message. The discovery order, RNG draw order, trace records, and
//! report aggregates are identical to the per-message formulation; only
//! the event count and the wall-clock cost per message change.
//!
//! The content/query/lifetime models are shared with the GUESS simulator
//! so the two mechanisms face identical workloads.

use simkit::rng::RngStream;
use simkit::sim::{ChurnDriver, Kernel, KernelParams, Runnable, SimCtx, SimReport, Simulation};
use simkit::stats::{CounterSet, Summary};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{ProbeKind, ProbeOutcome, TraceRecord, TraceSink};
use workload::content::{Catalog, CatalogParams, LibraryArena, LibraryHandle};
use workload::files::FileCountModel;
use workload::lifetime::LifetimeModel;
use workload::query::{QueryModel, QueryWorkload};

use crate::wavefront::VisitTable;

mod flood;
mod scenario_ops;
mod types;

use flood::FloodState;
pub use types::{GnutellaConfig, GnutellaReport, InvalidGnutellaConfig};

/// The runtime side of the config/state split: the knobs a
/// [`simkit::scenario::Scenario`] may legally flip mid-run. Initialized
/// from the validated [`GnutellaConfig`] at build time and mutated only
/// by [`simkit::scenario::Intervenable::intervene`]; `cfg` itself stays
/// immutable after `GnutellaSim::new`. Hot-path reads of these knobs go
/// through here, so an intervention-free run reads exactly the
/// configured values.
#[derive(Debug, Clone)]
struct Runtime {
    /// Current per-peer query rate (mirrors the workload).
    query_rate: f64,
    /// Flood TTL in hops.
    ttl: usize,
    /// Degree the overlay repairs toward.
    target_degree: usize,
    /// Active partition: slots in different `slot % groups` classes
    /// drop each other's messages. `None` means fully connected.
    partition: Option<u32>,
}

impl Runtime {
    fn from_config(cfg: &GnutellaConfig) -> Self {
        Runtime {
            query_rate: cfg.query_rate,
            ttl: cfg.ttl,
            target_degree: cfg.target_degree,
            partition: None,
        }
    }
}

/// The engine's event alphabet (public because it is the
/// [`Simulation::Event`] associated type).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub enum Event {
    Burst {
        slot: u32,
        incarnation: u64,
    },
    Death {
        slot: u32,
        incarnation: u64,
    },
    /// Advances one hop of an in-flight flood (index into the flood
    /// slab). Scheduled at the flood's own instant, so the whole flood
    /// completes before any strictly-later event pops.
    FloodHop {
        flood: u32,
    },
}

struct Node {
    incarnation: u64,
    /// Handle into the engine's [`LibraryArena`]; freed and rebuilt at
    /// every in-place rebirth, so churn recycles blocks instead of
    /// leaking dead `Vec`s.
    library: LibraryHandle,
}

/// The dynamic Gnutella simulator.
///
/// # Examples
///
/// ```no_run
/// use gnutella::dynamic::{GnutellaConfig, GnutellaSim};
/// use gnutella::Runnable;
///
/// let report = GnutellaConfig::default().build()?.run();
/// println!("messages/query: {:.0}", report.messages_per_query());
/// # Ok::<(), gnutella::dynamic::InvalidGnutellaConfig>(())
/// ```
pub struct GnutellaSim {
    cfg: GnutellaConfig,
    rt: Runtime,
    nodes: Vec<Node>,
    /// Every node's library items, shared contiguous storage.
    libs: LibraryArena,
    /// Slot-indexed adjacency: `adj[u]` lists `u`'s open connections.
    /// Kept dense and separate from [`Node`] so a flood hop can borrow
    /// the whole overlay as neighbor slices without touching peer state.
    adj: Vec<Vec<u32>>,
    qmodel: QueryModel,
    files: FileCountModel,
    churn: ChurnDriver<LifetimeModel>,
    workload: QueryWorkload,
    rng: RngStream,
    floods: Vec<FloodState>,
    free_floods: Vec<u32>,
    /// Active floods in start order; settled strictly front-to-back so
    /// aggregate recording order matches the old inline execution.
    settle_queue: std::collections::VecDeque<u32>,
    probe_scratch: Vec<(u64, ProbeOutcome)>,
    queries: u64,
    unsatisfied: u64,
    messages: Summary,
    peers_reached: Summary,
    counters: CounterSet,
    next_incarnation: u64,
    next_query: u64,
}

impl GnutellaSim {
    /// Builds and seeds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGnutellaConfig`] for inconsistent parameters.
    pub fn new(cfg: GnutellaConfig) -> Result<Self, InvalidGnutellaConfig> {
        cfg.validate()?;
        let catalog = Catalog::new(cfg.catalog).map_err(|_| InvalidGnutellaConfig::BadCatalog)?;
        let qmodel = QueryModel::new(catalog);
        let files = FileCountModel::gnutella_like();
        let lifetimes = LifetimeModel::saroiu_like(cfg.lifespan_multiplier);
        let workload = QueryWorkload::with_rate(cfg.query_rate)
            .map_err(|_| InvalidGnutellaConfig::BadQueryRate)?;
        let n = cfg.network_size;
        let rt = Runtime::from_config(&cfg);
        let mut sim = GnutellaSim {
            rng: RngStream::from_seed(cfg.seed, "gnutella"),
            cfg,
            rt,
            nodes: Vec::new(),
            libs: LibraryArena::new(),
            adj: vec![Vec::new(); n],
            qmodel,
            files,
            churn: ChurnDriver::new(lifetimes),
            workload,
            floods: Vec::new(),
            free_floods: Vec::new(),
            settle_queue: std::collections::VecDeque::new(),
            probe_scratch: Vec::new(),
            queries: 0,
            unsatisfied: 0,
            messages: Summary::new(),
            peers_reached: Summary::new(),
            counters: CounterSet::new(),
            next_incarnation: 0,
            next_query: 0,
        };
        sim.populate();
        Ok(sim)
    }

    fn fresh_library(&mut self) -> LibraryHandle {
        let count = self.files.sample_file_count(&mut self.rng);
        self.qmodel
            .catalog()
            .build_library_in(count, &mut self.rng, &mut self.libs)
    }

    /// Creates the initial population and wires the overlay. Event
    /// scheduling happens in [`GnutellaSim::schedule_initial`], once the
    /// kernel exists; the RNG draw order across both phases is unchanged,
    /// so runs stay byte-identical.
    fn populate(&mut self) {
        let n = self.cfg.network_size;
        for _ in 0..n {
            let library = self.fresh_library();
            let incarnation = self.next_incarnation;
            self.next_incarnation += 1;
            self.nodes.push(Node {
                incarnation,
                library,
            });
        }
        // Initial wiring: every peer opens target_degree connections.
        for slot in 0..n {
            self.top_up_connections(slot);
        }
    }

    /// Schedules every initial peer's death and burst into the kernel's
    /// queue. The lifetime draw happens inside [`ChurnDriver::spawn`],
    /// at the same position in the stream it always occupied.
    fn schedule_initial<T: TraceSink>(&mut self, ctx: &mut SimCtx<'_, Event, T>) {
        for slot in 0..self.nodes.len() {
            let incarnation = self.nodes[slot].incarnation;
            self.churn.spawn(
                ctx,
                &mut self.rng,
                SimTime::ZERO,
                incarnation,
                Event::Death {
                    slot: slot as u32,
                    incarnation,
                },
            );
            let gap = self.workload.sample_burst_gap(&mut self.rng);
            ctx.schedule(
                SimTime::ZERO + gap,
                Event::Burst {
                    slot: slot as u32,
                    incarnation,
                },
            );
        }
    }

    /// Opens connections until `slot` reaches its target degree (each
    /// handshake costs maintenance messages on both sides). Under an
    /// active partition, handshakes to the other side fail — the
    /// candidate is burned but no connection opens.
    fn top_up_connections(&mut self, slot: usize) {
        let n = self.nodes.len();
        let mut guard = 0;
        while self.adj[slot].len() < self.rt.target_degree && guard < 20 * n {
            guard += 1;
            let other = self.rng.below(n);
            if other == slot || self.adj[slot].contains(&(other as u32)) {
                continue;
            }
            if let Some(groups) = self.rt.partition {
                if slot as u32 % groups != other as u32 % groups {
                    continue;
                }
            }
            self.adj[slot].push(other as u32);
            self.adj[other].push(slot as u32);
            self.counters.add("connect_messages", 2);
        }
    }

    fn on_death<T: TraceSink>(
        &mut self,
        slot: usize,
        incarnation: u64,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if self.nodes[slot].incarnation != incarnation {
            return;
        }
        self.churn.died(ctx, now, incarnation);
        self.counters.incr("deaths");
        // The departing peer's connections drop; every ex-neighbor
        // notices (open TCP connections fail fast) and repairs.
        let ex_neighbors = std::mem::take(&mut self.adj[slot]);
        for &nb in &ex_neighbors {
            self.adj[nb as usize].retain(|&x| x != slot as u32);
        }
        // Rebirth in place, as in the GUESS simulator: constant population.
        self.nodes[slot].incarnation = self.next_incarnation;
        self.next_incarnation += 1;
        self.libs.free(self.nodes[slot].library);
        self.nodes[slot].library = self.fresh_library();
        self.top_up_connections(slot);
        for nb in ex_neighbors {
            self.counters.incr("repairs");
            self.top_up_connections(nb as usize);
        }
        let new_inc = self.nodes[slot].incarnation;
        self.churn.spawn(
            ctx,
            &mut self.rng,
            now,
            new_inc,
            Event::Death {
                slot: slot as u32,
                incarnation: new_inc,
            },
        );
        let gap = self.workload.sample_burst_gap(&mut self.rng);
        ctx.schedule(
            now + gap,
            Event::Burst {
                slot: slot as u32,
                incarnation: new_inc,
            },
        );
    }

    fn on_burst<T: TraceSink>(
        &mut self,
        slot: usize,
        incarnation: u64,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if self.nodes[slot].incarnation != incarnation {
            return;
        }
        let burst = self.workload.sample_burst_size(&mut self.rng);
        for _ in 0..burst {
            self.flood_query(slot, now, ctx);
        }
        let gap = self.workload.sample_burst_gap(&mut self.rng);
        ctx.schedule(
            now + gap,
            Event::Burst {
                slot: slot as u32,
                incarnation,
            },
        );
    }
}

impl<T: TraceSink> Simulation<T> for GnutellaSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, ctx: &mut SimCtx<'_, Event, T>) {
        match event {
            Event::Death { slot, incarnation } => {
                self.on_death(slot as usize, incarnation, now, ctx);
            }
            Event::Burst { slot, incarnation } => {
                self.on_burst(slot as usize, incarnation, now, ctx);
            }
            Event::FloodHop { flood } => self.on_flood_hop(flood, now, ctx),
        }
    }

    fn live_peers(&self) -> u64 {
        // Rebirth is in place and immediate, so every slot always holds
        // a live peer — the constant-population invariant.
        self.nodes.len() as u64
    }
}

impl Runnable for GnutellaSim {
    type Report = GnutellaReport;

    fn run_scenario_traced<T: TraceSink>(
        mut self,
        scenario: &simkit::scenario::Scenario,
        sink: T,
    ) -> Result<(GnutellaReport, T), simkit::scenario::ScenarioError> {
        let mut params = KernelParams::new(self.cfg.duration).with_warmup(self.cfg.warmup);
        if let Some(interval) = self.cfg.sample_interval {
            params = params.with_sampling(interval);
        }
        let mut kernel = Kernel::new(params, sink);
        self.schedule_initial(&mut kernel.ctx());
        kernel.run_scenario(&mut self, scenario)?;
        let report = GnutellaReport {
            queries: self.queries,
            unsatisfied: self.unsatisfied,
            messages: self.messages,
            peers_reached: self.peers_reached,
            counters: self.counters,
            events_processed: kernel.events_processed(),
        };
        Ok((report, kernel.into_sink()))
    }
}

impl SimReport for GnutellaReport {
    fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GnutellaConfig {
        GnutellaConfig::small_test(0x67)
    }

    #[test]
    fn validates_config() {
        assert_eq!(
            small().with_target_degree(0).build().err(),
            Some(InvalidGnutellaConfig::BadDegree)
        );
        assert_eq!(
            small().with_ttl(0).build().err(),
            Some(InvalidGnutellaConfig::ZeroTtl)
        );
        let bad = small().with_warmup(small().duration);
        assert_eq!(
            bad.build().err(),
            Some(InvalidGnutellaConfig::WarmupTooLong)
        );
        assert_eq!(
            small().with_network_size(1).build().err(),
            Some(InvalidGnutellaConfig::NetworkTooSmall)
        );
        assert_eq!(
            small().with_query_rate(0.0).build().err(),
            Some(InvalidGnutellaConfig::BadQueryRate)
        );
        assert!(small().build().is_ok());
    }

    #[test]
    fn runs_and_reports() {
        let report = small().build().unwrap().run();
        assert!(report.queries > 0);
        assert!(report.messages_per_query() > 0.0);
        assert!(report.unsatisfaction() <= 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small().build().unwrap().run();
        let b = small().build().unwrap().run();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.messages_per_query(), b.messages_per_query());
    }

    #[test]
    fn flooding_covers_most_of_a_connected_overlay() {
        let cfg = small().with_ttl(8);
        let n = cfg.network_size;
        let report = cfg.build().unwrap().run();
        assert!(
            report.peers_reached.mean() > n as f64 * 0.7,
            "ttl-8 floods should reach most peers, got {:.0}",
            report.peers_reached.mean()
        );
    }

    #[test]
    fn messages_exceed_peers_reached() {
        let report = small().build().unwrap().run();
        assert!(report.messages_per_query() >= report.peers_reached.mean());
    }

    #[test]
    fn churn_triggers_repairs() {
        let report = small().with_lifespan_multiplier(0.1).build().unwrap().run();
        assert!(report.counters.get("deaths") > 10);
        assert!(report.counters.get("repairs") > 0);
        assert!(report.counters.get("connect_messages") > 0);
    }

    #[test]
    fn short_ttl_floods_cheaper_but_worse() {
        let s = small().with_ttl(2).build().unwrap().run();
        let l = small().with_ttl(7).build().unwrap().run();
        assert!(s.messages_per_query() < l.messages_per_query());
        assert!(s.unsatisfaction() >= l.unsatisfaction());
    }
}
