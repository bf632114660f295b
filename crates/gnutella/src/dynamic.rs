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
//! Three invariants keep that true. Each in-flight flood owns its
//! visit table: bursts start several floods at one instant and their
//! hops interleave, so a shared table would let one flood's stamps
//! re-admit another's visited peers. Completed floods settle through a
//! FIFO in start order, because `Summary`'s Welford updates are
//! order-sensitive and a flood whose frontier dies early must not record
//! before an older one. And an untraced flood may stop counting results
//! at `desired_results`, since the report reads only whether a flood
//! reached it.
//!
//! The content/query/lifetime models are shared with the GUESS simulator
//! so the two mechanisms face identical workloads.

use simkit::rng::RngStream;
use simkit::scenario::Partition;
use simkit::sim::{Kernel, KernelParams, Runnable, SimCtx, SimReport, Simulation};
use simkit::stats::{CounterSet, Summary};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{ProbeKind, ProbeOutcome, TraceRecord, TraceSink};
use workload::content::CatalogParams;
use workload::population::{Clocks, Population};

use crate::wavefront::VisitTable;

mod flood;
mod scenario_ops;
mod types;

use flood::FloodState;
pub use types::{GnutellaConfig, GnutellaReport, InvalidGnutellaConfig};

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
    /// The validated configuration. Scenario parameter flips install a
    /// re-validated copy, so every read sees the current value.
    cfg: GnutellaConfig,
    /// Active partition: slots in different groups drop each other's
    /// messages. `None` means fully connected.
    partition: Option<Partition>,
    pop: Population,
    clocks: Clocks,
    /// Slot-indexed adjacency: `adj[u]` lists `u`'s open connections.
    /// Kept dense and separate from the population so a flood hop can
    /// borrow the whole overlay as neighbor slices without touching
    /// peer state.
    adj: Vec<Vec<u32>>,
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
        let mut rng = RngStream::from_seed(cfg.seed, "gnutella");
        let n = cfg.network_size;
        let pop = Population::generate_from(n, cfg.catalog, &mut rng)
            .map_err(|_| InvalidGnutellaConfig::BadCatalog)?;
        let clocks = Clocks::new(cfg.lifespan_multiplier, cfg.query_rate)
            .map_err(|_| InvalidGnutellaConfig::BadQueryRate)?;
        let mut sim = GnutellaSim {
            rng,
            cfg,
            partition: None,
            pop,
            clocks,
            adj: vec![Vec::new(); n],
            floods: Vec::new(),
            free_floods: Vec::new(),
            settle_queue: std::collections::VecDeque::new(),
            probe_scratch: Vec::new(),
            queries: 0,
            unsatisfied: 0,
            messages: Summary::new(),
            peers_reached: Summary::new(),
            counters: CounterSet::new(),
            next_query: 0,
        };
        // Initial wiring: every peer opens target_degree connections.
        for slot in 0..n {
            sim.top_up_connections(slot);
        }
        Ok(sim)
    }

    /// Counts the birth of `slot`'s current occupant and starts its
    /// clocks (for the initial peers, once the kernel exists).
    fn start_clocks<T: TraceSink>(
        &mut self,
        slot: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        self.counters.incr("births");
        let incarnation = self.pop.incarnation(slot);
        let slot = slot as u32;
        self.clocks.start(
            ctx,
            &mut self.rng,
            now,
            incarnation,
            Event::Death { slot, incarnation },
            Event::Burst { slot, incarnation },
        );
    }

    /// Opens connections until `slot` reaches its target degree (each
    /// handshake costs maintenance messages on both sides). Under an
    /// active partition, handshakes to the other side fail — the
    /// candidate is burned but no connection opens.
    fn top_up_connections(&mut self, slot: usize) {
        let n = self.pop.len();
        let partition = self.partition;
        let mut guard = 0;
        while self.adj[slot].len() < self.cfg.target_degree && guard < 20 * n {
            guard += 1;
            let other = self.rng.below(n);
            if other == slot || self.adj[slot].contains(&(other as u32)) {
                continue;
            }
            if partition.is_some_and(|p| !p.same_side(slot as u32, other as u32)) {
                continue;
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
        if !self.pop.is_current(slot, incarnation) {
            return;
        }
        self.clocks.churn.died(ctx, now, incarnation);
        self.counters.incr("deaths");
        // The departing peer's connections drop; every ex-neighbor
        // notices (open TCP connections fail fast) and repairs.
        let ex_neighbors = std::mem::take(&mut self.adj[slot]);
        for &nb in &ex_neighbors {
            self.adj[nb as usize].retain(|&x| x != slot as u32);
        }
        // Rebirth in place, as in the GUESS simulator: constant population.
        self.pop.rebirth(slot, &mut self.rng);
        self.top_up_connections(slot);
        for nb in ex_neighbors {
            self.counters.incr("repairs");
            self.top_up_connections(nb as usize);
        }
        self.start_clocks(slot, now, ctx);
    }

    fn on_burst<T: TraceSink>(
        &mut self,
        slot: usize,
        incarnation: u64,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if !self.pop.is_current(slot, incarnation) {
            return;
        }
        let burst = self.clocks.workload.sample_burst_size(&mut self.rng);
        for _ in 0..burst {
            self.flood_query(slot, now, ctx);
        }
        let gap = self.clocks.workload.sample_burst_gap(&mut self.rng);
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
        self.pop.len() as u64
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
        let mut ctx = kernel.ctx();
        for slot in 0..self.pop.len() {
            self.start_clocks(slot, SimTime::ZERO, &mut ctx);
        }
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
    fn zero_sample_interval_is_rejected() {
        // The snapshot tick would reschedule itself at `now + 0` forever.
        assert_eq!(
            small()
                .with_sample_interval(Some(SimDuration::ZERO))
                .build()
                .err(),
            Some(InvalidGnutellaConfig::ZeroSampleInterval)
        );
        assert!(small().with_sample_interval(None).build().is_ok());
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
