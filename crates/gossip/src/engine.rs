//! The push/pull epidemic search engine.
//!
//! A query is a *rumor*. The originator starts infected; every
//! `round_interval`, each active spreader pushes the rumor to `fanout`
//! uniformly random peers. A peer hearing the rumor for the first time
//! is infected, checks its library, and spreads for the next round
//! (infect-and-die: spreaders retire after one round). A peer hearing a
//! duplicate suppresses it, but with `pull_probability` re-enters
//! dissemination for one round — the push/pull hybrid that keeps late
//! epidemics alive. A rumor settles when it has enough results, its
//! round TTL expires, or no spreaders remain.
//!
//! The peer lifecycle (churn, query bursts, scenario hooks, the run) is
//! the one [`workload::population::ForwardingSim`] that the Gnutella
//! flood runs on too; this module supplies only the [`Epidemic`]
//! mechanism: a rumor's start, its rounds, and the horizon flush.
//!
//! Churn interacts with rumors through incarnations: the infected set
//! remembers *which incarnation* of a slot heard the rumor, so a reborn
//! peer is a fresh target (it never heard the rumor) and a dead
//! spreader's knowledge dies with it. Rumors still in flight at the
//! horizon settle in an explicit flush, so every trace has one
//! `query_end` per `query_start`.
//!
//! A round costs O(pushes it sends), independent of N. A rumor's
//! infection state maps only the slots it reached, because a rumor
//! reaches a small share of the network while the rumors in flight grow
//! with N: a per-slot table per rumor made heap per peer grow with N.
//! Per-message counters are tallied in locals and folded once per round.
//! An untraced round stops checking libraries once the rumor has
//! `num_desired_results`, as Gnutella floods do; the outcome is decided
//! in the same handler, so the saturated count cannot change it.

use std::collections::hash_map::Entry;

use simkit::hash::{self, FxHashMap};
use simkit::scenario::Param;
use simkit::stats::{CounterSet, Summary};
use simkit::time::SimTime;
use simkit::trace::{ProbeKind, ProbeOutcome, TraceRecord, TraceSink};
use workload::population::{Ctx, Event, ForwardingSim, Peers, Search};
use workload::query::QueryTarget;

use crate::config::{Config, GossipConfigError};
use crate::report::GossipReport;

mod scenario_ops;

/// Initial capacity of a rumor's infection map. A rumor reaches a few
/// hundred peers at the defaults whatever the network size, so the map
/// starts small and grows with the epidemic, not with N.
const INFECTED_CAPACITY: usize = 32;

/// Per-message counters of one round, kept in plain integers and added
/// to the engine's [`CounterSet`] once when the round ends.
#[derive(Default)]
struct RoundTally {
    pushes: u64,
    pulls: u64,
    dedup_drops: u64,
    reinfections: u64,
    spreaders_lost: u64,
    partition_drops: u64,
}

impl RoundTally {
    /// Adds each nonzero tally to `counters`. A zero tally is skipped,
    /// so the counter set gains exactly the keys per-message `incr`
    /// calls would have created.
    fn fold_into(self, counters: &mut CounterSet) {
        for (name, n) in [
            ("pushes", self.pushes),
            ("pulls", self.pulls),
            ("dedup_drops", self.dedup_drops),
            ("reinfections", self.reinfections),
            ("spreaders_lost", self.spreaders_lost),
            ("partition_drops", self.partition_drops),
        ] {
            if n > 0 {
                counters.add(name, n);
            }
        }
    }
}

/// Per-query rumor state, kept until the query settles.
struct Rumor {
    target: QueryTarget,
    started: SimTime,
    round: u32,
    /// The incarnation of each reached slot that heard the rumor; a
    /// missing slot never heard it. Rebirth bumps the slot's incarnation
    /// past the stored one, so churn erases rumor knowledge. Entries are
    /// never removed, so `len()` counts the distinct slots ever reached,
    /// the originator included. Only the slots a rumor reaches cost
    /// memory: a slot that joins mid-rumor is simply absent.
    infected: FxHashMap<u32, u64>,
    /// Slots spreading in the upcoming round (u32: half the bytes of a
    /// `usize` vector, which matters when thousands of rumors are in
    /// flight over a million-slot population).
    active: Vec<u32>,
    messages: u64,
    results: u32,
    /// Whether this query counts toward metrics (started after warm-up).
    measured: bool,
}

/// The push/pull epidemic search simulator.
///
/// # Examples
///
/// ```no_run
/// use gossip::{Config, GossipSim, Runnable};
///
/// let report = GossipSim::new(Config::default())?.run();
/// println!("unsatisfaction: {:.3}", report.unsatisfaction());
/// # Ok::<(), gossip::GossipConfigError>(())
/// ```
pub type GossipSim = ForwardingSim<Epidemic>;

/// The push/pull epidemic mechanism: the rumors in flight.
pub struct Epidemic {
    rumors: FxHashMap<u64, Rumor>,
    response_time: Summary,
    /// Round-scoped dedup stamps for `next_active` (one entry per slot),
    /// replacing a linear `Vec::contains` scan per push.
    active_stamp: Vec<u64>,
    active_token: u64,
}

impl Search for Epidemic {
    const ENGINE: &'static str = "gossip";
    type Config = Config;
    type Error = GossipConfigError;
    /// The query id of the rumor whose next round is due.
    type Step = u64;
    type Report = GossipReport;

    fn validate(cfg: &Config) -> Result<(), GossipConfigError> {
        cfg.validate()
    }

    fn set_param(cfg: &mut Config, param: Param) -> bool {
        match param {
            Param::Fanout(f) => cfg.fanout = f,
            Param::RoundTtl(t) => cfg.round_ttl = t,
            Param::PullProbability(p) => cfg.pull_probability = p,
            _ => return false,
        }
        true
    }

    /// Pre-sizes the rumor map for the expected number of in-flight
    /// rumors: network-wide arrival rate times the longest a rumor can
    /// live (its full round TTL).
    fn new(peers: &mut Peers<Self>) -> Self {
        let cfg = &peers.cfg;
        let max_rumor_secs = cfg.round_interval.as_secs() * f64::from(cfg.round_ttl);
        let inflight = (cfg.query_rate * cfg.network_size as f64 * max_rumor_secs).ceil() as usize;
        Epidemic {
            rumors: hash::map_with_capacity(inflight.clamp(16, 4096)),
            response_time: Summary::new(),
            active_stamp: vec![0; cfg.network_size],
            active_token: 0,
        }
    }

    /// Rumor knowledge is not carried over a rebirth: infected maps hold
    /// the old incarnation, which no longer matches. In-flight rumors
    /// need no update on a join either: the newcomer is absent from
    /// their infection maps, which reads as never having heard them.
    /// Only the round stamps grow to cover a joined slot.
    fn born(&mut self, peers: &mut Peers<Self>, _slot: usize) {
        self.active_stamp.resize(peers.pop.len(), 0);
    }

    /// Starts one rumor at `src` and schedules its first round. The
    /// originator's own library does not count toward results (as in
    /// flooding: you gossip for what you don't have).
    fn start<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        src: usize,
        qid: u64,
        target: QueryTarget,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        let mut infected = hash::map_with_capacity(INFECTED_CAPACITY);
        infected.insert(src as u32, peers.pop.incarnation(src));
        let rumor = Rumor {
            target,
            started: now,
            round: 0,
            infected,
            active: vec![src as u32],
            messages: 0,
            results: 0,
            measured: ctx.after_warmup(now),
        };
        self.rumors.insert(qid, rumor);
        ctx.schedule(now + peers.cfg.round_interval, Event::Step(qid));
    }

    fn step<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        qid: u64,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        self.on_round(peers, qid, now, ctx);
    }

    /// Rumors still in flight at the horizon are settled (and their
    /// `QueryEnd` records emitted) at the end instant, in query order,
    /// so a trace always contains exactly one `query_end` per
    /// `query_start`.
    fn finish<T: TraceSink>(
        mut self,
        mut peers: Peers<Self>,
        end: SimTime,
        events_processed: u64,
        sink: &mut T,
    ) -> GossipReport {
        let mut pending: Vec<u64> = self.rumors.keys().copied().collect();
        pending.sort_unstable();
        for qid in pending {
            let rumor = self.rumors.remove(&qid).expect("pending rumor exists");
            peers.tallies.counters.incr("horizon_flushed");
            let satisfied = self.settle(&mut peers, &rumor, end);
            if sink.enabled() {
                sink.record(
                    end,
                    TraceRecord::QueryEnd {
                        query: qid,
                        satisfied,
                        probes: u32::try_from(rumor.messages).unwrap_or(u32::MAX),
                        results: rumor.results,
                    },
                );
            }
        }
        GossipReport {
            tallies: peers.tallies,
            response_time: self.response_time,
            events_processed,
        }
    }
}

impl Epidemic {
    /// Runs one gossip round of rumor `qid`, then either settles the
    /// rumor or schedules its next round.
    fn on_round<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        qid: u64,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        let Some(mut rumor) = self.rumors.remove(&qid) else {
            return;
        };
        peers.tallies.counters.incr("rounds");
        let n = peers.pop.len();
        let tracing = ctx.tracing();
        // Untraced, the report only asks whether the rumor found
        // `num_desired_results`; `QueryEnd.results` needs the exact count.
        let wanted = if tracing {
            u32::MAX
        } else {
            peers.cfg.num_desired_results
        };
        let spreaders = std::mem::take(&mut rumor.active);
        let mut next_active: Vec<u32> = Vec::new();
        // A fresh stamp token per round: `active_stamp[t] == token` means
        // t is already in `next_active` (O(1) dedup, insertion order
        // preserved by the Vec itself).
        self.active_token += 1;
        let token = self.active_token;
        let partition = peers.partition;
        // Per-message tallies, folded into the counters once per round.
        let mut tally = RoundTally::default();
        for s in spreaders {
            // A spreader that died (and was replaced) since it was
            // activated takes its rumor knowledge to the grave.
            let still_informed = rumor
                .infected
                .get(&s)
                .is_some_and(|&heard_by| peers.pop.is_current(s as usize, heard_by));
            let s = s as usize;
            if !still_informed {
                tally.spreaders_lost += 1;
                continue;
            }
            for _ in 0..peers.cfg.fanout {
                // Uniform random contact, excluding the spreader itself.
                let mut t = peers.rng.below(n);
                while t == s {
                    t = peers.rng.below(n);
                }
                rumor.messages += 1;
                tally.pushes += 1;
                if let Some(p) = partition {
                    if !p.same_side(s as u32, t as u32) {
                        // The push was sent (and counted) but the
                        // partition eats it in transit: no infection,
                        // no pull, no dedup bookkeeping.
                        tally.partition_drops += 1;
                        if tracing {
                            ctx.emit(
                                now,
                                TraceRecord::Probe {
                                    query: qid,
                                    target: peers.pop.incarnation(t),
                                    kind: ProbeKind::Push,
                                    outcome: ProbeOutcome::Refused,
                                },
                            );
                        }
                        continue;
                    }
                }
                let t_inc = peers.pop.incarnation(t);
                let first_contact = match rumor.infected.entry(t as u32) {
                    Entry::Occupied(mut heard) if *heard.get() != t_inc => {
                        // Reborn since infection: the stored incarnation
                        // is stale, so this one never heard the rumor.
                        tally.reinfections += 1;
                        heard.insert(t_inc);
                        true
                    }
                    Entry::Occupied(_) => false,
                    Entry::Vacant(slot) => {
                        slot.insert(t_inc);
                        true
                    }
                };
                if first_contact {
                    if self.active_stamp[t] != token {
                        self.active_stamp[t] = token;
                        next_active.push(t as u32);
                    }
                    if rumor.results < wanted && peers.pop.answers(t, rumor.target) {
                        rumor.results += 1;
                    }
                    if tracing {
                        ctx.emit(
                            now,
                            TraceRecord::Probe {
                                query: qid,
                                target: t_inc,
                                kind: ProbeKind::Push,
                                outcome: ProbeOutcome::Good,
                            },
                        );
                    }
                } else {
                    // Duplicate: suppressed, but the receiver may pull
                    // itself back into dissemination.
                    tally.dedup_drops += 1;
                    if tracing {
                        ctx.emit(
                            now,
                            TraceRecord::Probe {
                                query: qid,
                                target: t_inc,
                                kind: ProbeKind::Push,
                                outcome: ProbeOutcome::Duplicate,
                            },
                        );
                    }
                    if peers.rng.chance(peers.cfg.pull_probability) {
                        rumor.messages += 1;
                        tally.pulls += 1;
                        if self.active_stamp[t] != token {
                            self.active_stamp[t] = token;
                            next_active.push(t as u32);
                        }
                        if tracing {
                            ctx.emit(
                                now,
                                TraceRecord::Probe {
                                    query: qid,
                                    target: t_inc,
                                    kind: ProbeKind::Pull,
                                    outcome: ProbeOutcome::Good,
                                },
                            );
                        }
                    }
                }
            }
        }
        let counters = &mut peers.tallies.counters;
        tally.fold_into(counters);
        rumor.round += 1;
        rumor.active = next_active;
        let done = if rumor.results >= peers.cfg.num_desired_results {
            counters.incr("satisfied_early");
            true
        } else if rumor.round >= peers.cfg.round_ttl {
            counters.incr("ttl_exhausted");
            true
        } else if rumor.active.is_empty() {
            counters.incr("died_out");
            true
        } else {
            false
        };
        if done {
            let satisfied = self.settle(peers, &rumor, now);
            if tracing {
                ctx.emit(
                    now,
                    TraceRecord::QueryEnd {
                        query: qid,
                        satisfied,
                        probes: u32::try_from(rumor.messages).unwrap_or(u32::MAX),
                        results: rumor.results,
                    },
                );
            }
        } else {
            self.rumors.insert(qid, rumor);
            ctx.schedule(now + peers.cfg.round_interval, Event::Step(qid));
        }
    }

    /// Folds a settling rumor into the run metrics (if measured) and
    /// returns whether it was satisfied.
    fn settle(&mut self, peers: &mut Peers<Self>, rumor: &Rumor, at: SimTime) -> bool {
        let satisfied = rumor.results >= peers.cfg.num_desired_results;
        if rumor.measured {
            let reached = rumor.infected.len() as u64 - 1;
            peers.tallies.record(satisfied, rumor.messages, reached);
            if satisfied {
                self.response_time.record((at - rumor.started).as_secs());
            }
        }
        satisfied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::sim::Runnable;
    use simkit::trace::{CountingSink, RecordingSink};

    fn small() -> Config {
        Config::small_test(0x905)
    }

    #[test]
    fn runs_and_reports() {
        let report = GossipSim::new(small()).unwrap().run();
        assert!(report.queries > 0);
        assert!(report.messages_per_query() > 0.0);
        assert!(report.unsatisfaction() <= 1.0);
        assert!(report.counters.get("pushes") > 0);
        assert!(report.counters.get("rounds") > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = GossipSim::new(small()).unwrap().run();
        let b = GossipSim::new(small()).unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_fanout_costs_more_and_reaches_further() {
        let lean = GossipSim::new(small().with_fanout(2)).unwrap().run();
        let fat = GossipSim::new(small().with_fanout(5)).unwrap().run();
        assert!(fat.messages_per_query() > lean.messages_per_query());
        assert!(fat.peers_reached.mean() > lean.peers_reached.mean());
    }

    #[test]
    fn longer_ttl_is_no_worse_on_satisfaction() {
        let short = GossipSim::new(small().with_round_ttl(1)).unwrap().run();
        let long = GossipSim::new(small().with_round_ttl(10)).unwrap().run();
        assert!(short.messages_per_query() < long.messages_per_query());
        assert!(short.unsatisfaction() >= long.unsatisfaction());
    }

    #[test]
    fn pull_keeps_the_epidemic_alive_longer() {
        let push_only = GossipSim::new(small().with_pull_probability(0.0))
            .unwrap()
            .run();
        let hybrid = GossipSim::new(small().with_pull_probability(0.8))
            .unwrap()
            .run();
        assert_eq!(push_only.counters.get("pulls"), 0);
        assert!(hybrid.counters.get("pulls") > 0);
        assert!(hybrid.messages_per_query() > push_only.messages_per_query());
    }

    #[test]
    fn churn_kills_rumor_knowledge() {
        let cfg = small().with_lifespan_multiplier(0.05);
        let report = GossipSim::new(cfg).unwrap().run();
        assert!(report.counters.get("deaths") > 10);
        assert_eq!(
            report.counters.get("births"),
            report.counters.get("deaths") + 150
        );
    }

    #[test]
    fn satisfied_queries_record_response_times() {
        let report = GossipSim::new(small()).unwrap().run();
        let satisfied = report.queries - report.unsatisfied;
        assert_eq!(report.response_time.count(), satisfied);
        if satisfied > 0 {
            assert!(report.mean_response_secs() > 0.0);
        }
    }

    #[test]
    fn trace_reconciles_with_report() {
        let cfg = small().with_warmup(simkit::time::SimDuration::ZERO);
        let (report, sink) = GossipSim::new(cfg).unwrap().run_traced(CountingSink::new());
        assert_eq!(sink.query_starts, report.queries);
        assert_eq!(sink.query_ends, report.queries);
        assert_eq!(sink.satisfied, report.queries - report.unsatisfied);
        // Every message is exactly one push or pull probe record, and
        // the per-query probe counts sum to the same total.
        let total_messages = report.messages.sum() as u64;
        assert_eq!(sink.push_probes + sink.pull_probes, total_messages);
        assert_eq!(sink.query_end_probes, total_messages);
        assert_eq!(sink.joins, report.counters.get("births"));
        assert_eq!(sink.deaths, report.counters.get("deaths"));
        assert_eq!(sink.flood_probes, 0);
        assert_eq!(sink.query_probes, 0);
    }

    #[test]
    fn every_query_start_has_exactly_one_end() {
        let cfg = small().with_warmup(simkit::time::SimDuration::ZERO);
        let (report, sink) = GossipSim::new(cfg)
            .unwrap()
            .run_traced(RecordingSink::new());
        let starts: Vec<u64> = sink
            .select(|r| matches!(r, TraceRecord::QueryStart { .. }))
            .map(|(_, r)| match r {
                TraceRecord::QueryStart { query, .. } => *query,
                _ => unreachable!(),
            })
            .collect();
        let mut ends: Vec<u64> = sink
            .select(|r| matches!(r, TraceRecord::QueryEnd { .. }))
            .map(|(_, r)| match r {
                TraceRecord::QueryEnd { query, .. } => *query,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(starts.len() as u64, report.queries);
        ends.sort_unstable();
        let mut sorted_starts = starts.clone();
        sorted_starts.sort_unstable();
        assert_eq!(sorted_starts, ends);
        // In-flight rumors at the horizon were flushed, not dropped.
        assert!(report.counters.get("horizon_flushed") > 0);
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let untraced = GossipSim::new(small()).unwrap().run();
        let (traced, _) = GossipSim::new(small())
            .unwrap()
            .run_traced(CountingSink::new());
        assert_eq!(untraced, traced);
    }

    /// The round's counter fold creates exactly the keys per-message
    /// counting did: a zero tally adds no key (no `partition_drops`
    /// without a partition), and no tally is lost. The strings are what
    /// per-message counting printed.
    #[test]
    fn counter_set_is_pinned() {
        let plain = GossipSim::new(small()).unwrap().run();
        assert_eq!(
            plain.counters.to_string(),
            "births=188 deaths=38 dedup_drops=34844 horizon_flushed=5 pulls=10346 \
             pushes=52875 reinfections=7 rounds=1427 satisfied_early=518 spreaders_lost=1 \
             ttl_exhausted=49"
        );
        let scenario = simkit::scenario::Scenario::new()
            .at(120.0)
            .partition(2)
            .at(260.0)
            .heal();
        let parted = GossipSim::new(small())
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(
            parted.counters.to_string(),
            "births=185 deaths=35 dedup_drops=23951 died_out=42 horizon_flushed=1 \
             interventions=2 partition_drops=2818 pulls=7128 pushes=41112 reinfections=5 \
             rounds=1605 satisfied_early=468 spreaders_lost=4 ttl_exhausted=62"
        );
    }

    /// Untraced rounds stop checking libraries once a rumor has its
    /// results; a traced run must still count every answer it reaches,
    /// because `QueryEnd.results` reports the exact number.
    #[test]
    fn traced_rounds_count_every_answer() {
        let cfg = small();
        let desired = cfg.num_desired_results;
        let (_, sink) = GossipSim::new(cfg)
            .unwrap()
            .run_traced(RecordingSink::new());
        let most = sink
            .select(|r| matches!(r, TraceRecord::QueryEnd { .. }))
            .map(|(_, r)| match r {
                TraceRecord::QueryEnd { results, .. } => *results,
                _ => unreachable!(),
            })
            .max()
            .unwrap();
        assert!(
            most > desired,
            "some rumor must overshoot {desired} results in its last round, got at most {most}"
        );
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(GossipSim::new(small().with_fanout(0)).is_err());
        assert!(GossipSim::new(small().with_round_ttl(0)).is_err());
        assert!(GossipSim::new(small().with_pull_probability(2.0)).is_err());
        assert!(GossipSim::new(small()).is_ok());
    }
}
