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
//! The peer lifecycle (churn, query bursts, scenario hooks, the run) is
//! the one [`workload::population::ForwardingSim`] that gossip runs on
//! too, with the content/query/lifetime models the GUESS simulator
//! uses, so the mechanisms face identical workloads. This module
//! supplies only the [`Flood`] mechanism: the overlay wiring (a newborn
//! opens connections and a dead peer's ex-neighbors repair theirs) and
//! the flood itself.
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
//! at `num_desired_results`, since the report reads only whether a flood
//! reached it.

use simkit::scenario::Param;
use simkit::time::SimTime;
use simkit::trace::{ProbeKind, ProbeOutcome, TraceRecord, TraceSink};
use workload::population::{Ctx, ForwardingSim, Peers, Search, Tallies};
use workload::query::QueryTarget;

use crate::wavefront::VisitTable;

mod flood;
mod scenario_ops;
mod types;

use flood::FloodState;
pub use types::{GnutellaConfig, GnutellaReport, InvalidGnutellaConfig};

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
pub type GnutellaSim = ForwardingSim<Flood>;

/// The flooding mechanism: the overlay and the floods in flight.
#[derive(Default)]
pub struct Flood {
    /// Slot-indexed adjacency: `adj[u]` lists `u`'s open connections.
    /// Kept dense and separate from the population so a flood hop can
    /// borrow the whole overlay as neighbor slices without touching
    /// peer state.
    adj: Vec<Vec<u32>>,
    floods: Vec<FloodState>,
    free_floods: Vec<u32>,
    /// Active floods in start order; settled strictly front-to-back so
    /// aggregate recording order matches the old inline execution.
    settle_queue: std::collections::VecDeque<u32>,
    probe_scratch: Vec<(u64, ProbeOutcome)>,
}

impl Flood {
    /// Opens connections until `slot` reaches its target degree (each
    /// handshake costs maintenance messages on both sides). Under an
    /// active partition, handshakes to the other side fail — the
    /// candidate is burned but no connection opens.
    fn top_up_connections(&mut self, peers: &mut Peers<Self>, slot: usize) {
        let n = peers.pop.len();
        let partition = peers.partition;
        let mut guard = 0;
        while self.adj[slot].len() < peers.cfg.target_degree && guard < 20 * n {
            guard += 1;
            let other = peers.rng.below(n);
            if other == slot || self.adj[slot].contains(&(other as u32)) {
                continue;
            }
            if partition.is_some_and(|p| !p.same_side(slot as u32, other as u32)) {
                continue;
            }
            self.adj[slot].push(other as u32);
            self.adj[other].push(slot as u32);
            peers.tallies.counters.add("connect_messages", 2);
        }
    }
}

impl Search for Flood {
    const ENGINE: &'static str = "gnutella";
    type Config = GnutellaConfig;
    type Error = InvalidGnutellaConfig;
    /// A flood's index in the slab; its step is one hop.
    type Step = u32;
    type Report = GnutellaReport;

    fn validate(cfg: &GnutellaConfig) -> Result<(), InvalidGnutellaConfig> {
        cfg.validate()
    }

    fn set_param(cfg: &mut GnutellaConfig, param: Param) -> bool {
        match param {
            Param::FloodTtl(t) => cfg.ttl = t,
            Param::TargetDegree(d) => cfg.target_degree = d,
            _ => return false,
        }
        true
    }

    /// Initial wiring: every peer opens `target_degree` connections.
    fn new(peers: &mut Peers<Self>) -> Self {
        let n = peers.pop.len();
        let mut flood = Flood {
            adj: vec![Vec::new(); n],
            ..Flood::default()
        };
        for slot in 0..n {
            flood.top_up_connections(peers, slot);
        }
        flood
    }

    /// A joined slot gets an empty neighbor list, and floods may still
    /// be in flight, so their visit tables grow first. A reborn slot's
    /// old connections drop; every ex-neighbor notices (open TCP
    /// connections fail fast) and repairs. Then the newborn wires
    /// itself in.
    fn born(&mut self, peers: &mut Peers<Self>, slot: usize) {
        let n = peers.pop.len();
        if self.adj.len() < n {
            self.adj.push(Vec::new());
            self.grow_visit_tables(n);
        }
        let ex_neighbors = std::mem::take(&mut self.adj[slot]);
        for &nb in &ex_neighbors {
            self.adj[nb as usize].retain(|&x| x != slot as u32);
        }
        self.top_up_connections(peers, slot);
        for nb in ex_neighbors {
            peers.tallies.counters.incr("repairs");
            self.top_up_connections(peers, nb as usize);
        }
    }

    fn start<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        src: usize,
        query: u64,
        target: QueryTarget,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        self.flood_query(peers, src, query, target, now, ctx);
    }

    fn step<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        flood: u32,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        self.on_flood_hop(peers, flood, now, ctx);
    }

    fn finish<T: TraceSink>(
        self,
        peers: Peers<Self>,
        _end: SimTime,
        events_processed: u64,
        _sink: &mut T,
    ) -> GnutellaReport {
        GnutellaReport {
            tallies: peers.tallies,
            events_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::sim::Runnable;

    fn small() -> GnutellaConfig {
        GnutellaConfig::small_test(0x67)
    }

    /// The overlay's own rules; the shared ones are checked for both
    /// forwarding engines in `tests/forwarding_config.rs`.
    #[test]
    fn validates_config() {
        assert_eq!(
            small().with_target_degree(0).build().err(),
            Some(InvalidGnutellaConfig::BadDegree)
        );
        let n = small().network_size;
        assert_eq!(
            small().with_target_degree(n).build().err(),
            Some(InvalidGnutellaConfig::BadDegree)
        );
        assert_eq!(
            small().with_ttl(0).build().err(),
            Some(InvalidGnutellaConfig::ZeroTtl)
        );
        assert!(small().build().is_ok());
    }

    #[test]
    fn zero_sample_interval_is_rejected() {
        // The snapshot tick would reschedule itself at `now + 0` forever.
        assert_eq!(
            small()
                .with_sample_interval(Some(simkit::time::SimDuration::ZERO))
                .build()
                .err(),
            Some(InvalidGnutellaConfig::Shared(
                workload::population::ForwardingConfigError::ZeroSampleInterval
            ))
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

    /// The exact counters a plain and a partitioned-then-healed run
    /// print: births and deaths come from the shared lifecycle,
    /// `connect_messages` and `repairs` from the overlay, and
    /// `interventions` from the scenario hooks.
    #[test]
    fn counter_set_is_pinned() {
        let plain = small().build().unwrap().run();
        assert_eq!(
            plain.counters.to_string(),
            "births=180 connect_messages=1076 deaths=30 repairs=145"
        );
        let scenario = simkit::scenario::Scenario::new()
            .at(120.0)
            .partition(2)
            .at(260.0)
            .heal();
        let parted = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert_eq!(
            parted.counters.to_string(),
            "births=181 connect_messages=1076 deaths=31 interventions=2 repairs=151"
        );
    }

    #[test]
    fn short_ttl_floods_cheaper_but_worse() {
        let s = small().with_ttl(2).build().unwrap().run();
        let l = small().with_ttl(7).build().unwrap().run();
        assert!(s.messages_per_query() < l.messages_per_query());
        assert!(s.unsatisfaction() >= l.unsatisfaction());
    }
}
