//! Lane-partitioned parallel runner: the GUESS engine on
//! [`simkit::lanes::LaneKernel`].
//!
//! The population is split into `cfg.run.lanes` seed-addressed lanes,
//! each a full independent [`GuessSim`] over its share of the slots
//! (churn, pings, pushes, and metric sweeps all stay lane-local).
//! Queries couple the lanes: when a query runs its local candidate pool
//! dry short of `NumDesiredResults`, it *spills* — it probes one random
//! peer in each of up to `ParallelProbes` other lanes and parks until
//! the pongs come back one round-trip later. That round-trip
//! ([`REMOTE_RTT_ROUNDS`] probe intervals each way) is the kernel's
//! lookahead: no event crosses a lane boundary sooner, so lanes can run
//! a whole window apart without seeing each other's state.
//!
//! Determinism: every lane derives its seed and RNG streams from
//! `(master seed, lane index)`, cross-lane batches are merged in a
//! fixed order as each window closes, and per-lane collectors are absorbed
//! in lane order — so the report is a pure function of `(seed, lanes)`,
//! byte-identical for any worker-thread count. `lanes = 1` routes to
//! the ordinary serial [`Runnable::run`], untouched.
//!
//! A spill probe carries no sender: its victim is a resident of the
//! remote lane, always alive, so it is refused or answered, never timed
//! out, and its reply is tallied like a local one. Gnutella has no lane
//! mode because a flood crosses one shared overlay, which no lane split
//! gives a useful lookahead; gossip has none because no experiment,
//! scenario or benchmark workload needs one, and a laned epidemic (rumor
//! state cannot follow a push across lanes) is not the process its
//! fixed-point test checks.

use simkit::lanes::{LaneCtx, LaneKernel, LaneSimulation};
use simkit::rng::derive_seed;
use simkit::trace::NullSink;

use super::query_exec::QueryExec;
use super::*;

/// Cross-lane round-trip, in units of `ProbeInterval`: a spill probe
/// reaches the remote lane this many intervals after it is sent, and
/// the pong takes as long to come back. Five intervals ≈ the paper's
/// notion of a distant, not-yet-cached peer.
pub(crate) const REMOTE_RTT_ROUNDS: f64 = 5.0;

/// A query parked while its cross-lane spill probes are in flight.
#[derive(Debug, Clone, Copy)]
struct PendingQuery {
    ex: QueryExec,
    /// Response time already accrued by the local probe loop (secs).
    local_response: f64,
    started: SimTime,
    /// Whether the query started after warm-up (metrics eligibility is
    /// decided at start, exactly like the serial path).
    measured: bool,
    expected: u32,
    received: u32,
}

/// One lane: a self-contained [`GuessSim`] plus the spill plane that
/// couples it to its siblings.
struct GuessLane {
    sim: GuessSim,
    /// One-way cross-lane latency.
    rtt: SimDuration,
    pending: Vec<Option<PendingQuery>>,
    free: Vec<u32>,
}

impl GuessLane {
    fn park(&mut self, p: PendingQuery) -> u32 {
        if let Some(id) = self.free.pop() {
            self.pending[id as usize] = Some(p);
            id
        } else {
            self.pending.push(Some(p));
            (self.pending.len() - 1) as u32
        }
    }

    /// Lane-aware burst: same shape as the serial `on_burst`, but each
    /// query may spill across lanes instead of concluding immediately.
    fn on_burst<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        lctx: &mut LaneCtx<'_, Event, T>,
    ) {
        if !self.sim.is_current(slot, addr) {
            return;
        }
        let burst = self
            .sim
            .clocks
            .workload
            .sample_burst_size(&mut self.sim.rng_query);
        for _ in 0..burst {
            self.run_query(addr, now, lctx);
        }
        let gap = self
            .sim
            .clocks
            .workload
            .sample_burst_gap(&mut self.sim.rng_query);
        lctx.inner()
            .schedule(now + gap, Event::Burst { slot, addr });
    }

    /// Runs one query: local probe loop first, then — if unsatisfied —
    /// spill probes into up to `ParallelProbes` sibling lanes.
    fn run_query<T: TraceSink>(
        &mut self,
        prober: PeerAddr,
        now: SimTime,
        lctx: &mut LaneCtx<'_, Event, T>,
    ) {
        let measured = lctx.after_warmup(now);
        let ex = self.sim.execute_query_core(prober, now, lctx.inner());
        let local_response = ex.rounds.ceil() * self.sim.cfg.protocol.probe_interval.as_secs();
        let lanes = lctx.lane_count();
        let walk_width = self.sim.cfg.protocol.parallel_probes;
        let spill_width = walk_width.min(lanes as usize - 1);
        if ex.results >= ex.desired || spill_width == 0 {
            self.sim
                .conclude_query(&ex, now, local_response, measured, lctx.inner());
            return;
        }
        let id = self.park(PendingQuery {
            ex,
            local_response,
            started: now,
            measured,
            expected: spill_width as u32,
            received: 0,
        });
        let me = lctx.lane();
        for _ in 0..spill_width {
            // Uniform pick over the *other* lanes (repeats allowed — a
            // distant region may be probed twice, as in the flat model).
            let mut dst = self.sim.rng_remote.below(lanes as usize - 1) as u32;
            if dst >= me {
                dst += 1;
            }
            lctx.send(
                dst,
                now + self.rtt,
                Event::RemoteProbe {
                    src_lane: me,
                    pending: id,
                    target: ex.target,
                },
            );
        }
        self.sim.metrics.counters_mut().incr("remote_spills");
    }

    /// A sibling lane's spill probe arrives: probe one random resident
    /// and send the reply back. Lane residents are always alive (deaths
    /// rebirth in place) and the sender has no address here, so the
    /// contact has no `src` and cannot time out.
    fn on_remote_probe<T: TraceSink>(
        &mut self,
        src_lane: u32,
        pending: u32,
        target: QueryTarget,
        now: SimTime,
        lctx: &mut LaneCtx<'_, Event, T>,
    ) {
        let sim = &mut self.sim;
        let victim = sim.peers[sim.rng_remote.below(sim.peers.len())].addr();
        let reply = sim.contact(None, victim, now, Message::Query(target));
        sim.metrics.counters_mut().incr("remote_probes");
        lctx.send(
            src_lane,
            now + self.rtt,
            Event::RemotePong { pending, reply },
        );
    }

    /// A pong for one of our parked queries. The last expected pong
    /// concludes the query with the full local + cross-lane response.
    fn on_remote_pong<T: TraceSink>(
        &mut self,
        pending: u32,
        reply: ProbeReply,
        now: SimTime,
        lctx: &mut LaneCtx<'_, Event, T>,
    ) {
        let p = self.pending[pending as usize]
            .as_mut()
            .expect("pong for a query that is not parked");
        p.ex.tally(reply);
        p.received += 1;
        if p.received == p.expected {
            let p = self.pending[pending as usize].take().expect("just checked");
            self.free.push(pending);
            let response = p.local_response + (now - p.started).as_secs();
            self.sim
                .conclude_query(&p.ex, now, response, p.measured, lctx.inner());
        }
    }

    /// Concludes every still-parked query at the end-of-run horizon, in
    /// slab order, charging the full round-trip it was waiting for.
    fn flush_pending<T: TraceSink>(&mut self, end: SimTime, ctx: &mut SimCtx<'_, Event, T>) {
        let rtt_secs = self.rtt.as_secs();
        for id in 0..self.pending.len() {
            let Some(p) = self.pending[id].take() else {
                continue;
            };
            let response = p.local_response + 2.0 * rtt_secs;
            self.sim.metrics.counters_mut().incr("remote_flushed");
            self.sim
                .conclude_query(&p.ex, end, response, p.measured, ctx);
        }
    }
}

impl<T: TraceSink> LaneSimulation<T> for GuessLane {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, lctx: &mut LaneCtx<'_, Event, T>) {
        match event {
            Event::Burst { slot, addr } => self.on_burst(slot, addr, now, lctx),
            Event::RemoteProbe {
                src_lane,
                pending,
                target,
            } => self.on_remote_probe(src_lane, pending, target, now, lctx),
            Event::RemotePong { pending, reply } => {
                self.on_remote_pong(pending, reply, now, lctx);
            }
            // Churn, pings, and push maintenance are lane-local: the
            // serial handlers run unmodified against this lane's state.
            other => Simulation::handle(&mut self.sim, now, other, lctx.inner()),
        }
    }

    fn sample(&mut self, now: SimTime) {
        Simulation::<T>::sample(&mut self.sim, now);
    }

    fn live_peers(&self) -> u64 {
        Simulation::<T>::live_peers(&self.sim)
    }
}

/// Runs `cfg` on the lane-partitioned parallel kernel with up to
/// `threads` worker threads.
///
/// With `cfg.run.lanes <= 1` this is exactly [`Runnable::run`] on a
/// serial [`GuessSim`] — byte-identical to every golden. Otherwise the
/// report is a pure function of `(seed, lanes)`: any `threads` value
/// produces the same bytes.
///
/// # Errors
///
/// Returns the validation error if `cfg` is inconsistent.
pub fn run_lanes(cfg: Config, threads: usize) -> Result<RunReport, ConfigError> {
    cfg.validate()?;
    let l = cfg.run.lanes;
    if l <= 1 {
        return Ok(GuessSim::new(cfg)?.run());
    }

    let n = cfg.system.network_size;
    let rtt = cfg.protocol.probe_interval * REMOTE_RTT_ROUNDS;
    // Lookahead: with queries off nothing ever crosses a lane boundary,
    // so the whole run is one window and lanes are fully independent.
    let window = if cfg.run.simulate_queries {
        rtt
    } else {
        cfg.run.duration
    };
    let params = KernelParams::new(cfg.run.duration)
        .with_warmup(cfg.run.warmup)
        .with_sampling(cfg.run.sample_interval);

    let master = cfg.run.seed;
    let base = n / l;
    let rem = n % l;
    let mut lanes: Vec<GuessLane> = Vec::with_capacity(l);
    for i in 0..l {
        let lane_n = base + usize::from(i < rem);
        let mut lane_cfg = cfg.clone();
        lane_cfg.system.network_size = lane_n;
        lane_cfg.run.seed = derive_seed(master, "guess-lane", i as u64);
        lane_cfg.run.lanes = 1;
        lane_cfg.run.cache_seed_size = cfg.run.cache_seed_size.min(lane_n.saturating_sub(1));
        lane_cfg.run.metrics_sample_size = (cfg.run.metrics_sample_size / l).max(1);
        let sim = GuessSim::new(lane_cfg)?;
        lanes.push(GuessLane {
            sim,
            rtt,
            pending: Vec::new(),
            free: Vec::new(),
        });
    }

    let sinks = (0..l).map(|_| NullSink).collect();
    let mut kernel: LaneKernel<Event, NullSink> = LaneKernel::new(params, window, sinks);
    for (i, lane) in lanes.iter_mut().enumerate() {
        lane.sim.schedule_initial(&mut kernel.ctx(i));
    }
    kernel.run(&mut lanes, threads.max(1));

    // Wrap-up, strictly in lane order so the merged report is
    // independent of which thread ran which lane.
    let end = kernel.params().end;
    let mut collector = MetricsCollector::new();
    for (i, mut lane) in lanes.into_iter().enumerate() {
        lane.flush_pending(end, &mut kernel.ctx(i));
        collector.absorb(lane.sim.into_metrics());
    }
    collector.counters_mut().add("lanes", l as u64);
    let events_processed = kernel.events_processed();
    let mut report = collector.finish();
    report.events_processed = events_processed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::SimDuration;

    fn tiny(seed: u64, lanes: usize) -> Config {
        let mut cfg = Config::small_test(seed);
        cfg.run.duration = SimDuration::from_secs(200.0);
        cfg.run.warmup = SimDuration::from_secs(50.0);
        cfg.run.lanes = lanes;
        cfg
    }

    #[test]
    fn one_lane_is_exactly_the_serial_run() {
        for seed in [1u64, 7, 42] {
            let serial = GuessSim::new(tiny(seed, 1)).unwrap().run();
            let laned = run_lanes(tiny(seed, 1), 4).unwrap();
            assert_eq!(serial, laned, "seed {seed}");
        }
    }

    #[test]
    fn lane_runs_are_identical_across_thread_counts() {
        // 3 lanes over 2 workers is an uneven split (chunks of 2 and 1).
        for lanes in [4, 3] {
            let baseline = run_lanes(tiny(3, lanes), 1).unwrap();
            for threads in 2..=6 {
                let run = run_lanes(tiny(3, lanes), threads).unwrap();
                assert_eq!(baseline, run, "lanes={lanes} threads={threads}");
            }
        }
    }

    #[test]
    fn lane_count_is_part_of_the_trajectory() {
        let two = run_lanes(tiny(5, 2), 2).unwrap();
        let four = run_lanes(tiny(5, 4), 2).unwrap();
        assert_ne!(two, four, "lane count must address the run");
    }

    #[test]
    fn lane_mode_produces_queries_and_spills() {
        let report = run_lanes(tiny(9, 4), 4).unwrap();
        assert!(report.queries > 0, "queries must execute");
        assert!(
            report.counters.get("remote_spills") > 0,
            "small lanes should run dry and spill"
        );
        assert_eq!(report.counters.get("lanes"), 4);
        assert!(report.events_processed > 0);
    }

    #[test]
    fn zero_lanes_is_rejected() {
        let mut cfg = tiny(1, 1);
        cfg.run.lanes = 0;
        assert!(run_lanes(cfg, 1).is_err());
    }

    #[test]
    fn zero_probe_interval_is_an_error_not_a_panic() {
        // The probe interval sizes the lookahead window; an empty window
        // used to panic inside the lane kernel.
        let mut cfg = Config::small_test(3).with_lanes(2);
        cfg.protocol.probe_interval = SimDuration::ZERO;
        assert_eq!(
            run_lanes(cfg, 1).err(),
            Some(ConfigError::ZeroProbeInterval)
        );
    }

    #[test]
    fn queries_off_runs_lanes_independently() {
        let mut cfg = tiny(11, 4);
        cfg.run.simulate_queries = false;
        let a = run_lanes(cfg.clone(), 1).unwrap();
        let b = run_lanes(cfg, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.queries, 0);
    }
}
