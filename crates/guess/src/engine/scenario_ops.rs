//! Scenario interventions: the [`Intervenable`] side of `GuessSim`.
//!
//! Split out of the main engine module like `query_exec`; this is still
//! the same `GuessSim`. Every intervention routes through the engine's
//! existing machinery — joins and leaves through the churn paths
//! ([`GuessSim::birth_peer`] / `on_death`), flash crowds through
//! [`GuessSim::execute_query`] — and a parameter flip installs a copy
//! of the config only after [`Config::validate`] has accepted it.

use simkit::scenario::{Intervenable, Intervention, Param, ScenarioError};

use super::*;

impl GuessSim {
    /// Grows the network by `count` newborn slots. Each newborn goes
    /// through the ordinary birth path (same RNG streams, same cache
    /// seeding as a churn replacement) and gets its death / ping /
    /// burst events scheduled.
    fn mass_join<T: TraceSink>(
        &mut self,
        count: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..count {
            let slot = SlotId(self.peers.len() as u32);
            self.bad.grow_to(self.peers.len() + 1);
            self.push.grow_to(self.peers.len() + 1);
            let newborn = self.birth_peer(slot, now);
            self.seed_from_friend(newborn, now, ctx);
            self.schedule_peer_events(slot, newborn, now, false, ctx);
        }
    }

    /// Kills `count` uniformly chosen live peers through the normal
    /// death path (replacements included — the population stays
    /// constant; the wave's damage is the mass cache cold-start).
    fn mass_leave<T: TraceSink>(
        &mut self,
        count: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..count {
            let s = self.rng_churn.below(self.peers.len());
            let slot = SlotId(s as u32);
            let addr = self.peers[s].addr();
            // The victim's originally scheduled death event becomes
            // stale and is ignored by the `is_current` guard.
            self.on_death(slot, addr, now, ctx);
        }
    }

    /// Injects `queries` extra queries immediately, from uniformly
    /// chosen live sources, through the normal query executor.
    fn flash_crowd<T: TraceSink>(
        &mut self,
        queries: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..queries {
            let src = self.peers[self.rng_query.below(self.peers.len())].addr();
            self.execute_query(src, now, ctx);
        }
    }

    /// Applies a parameter flip to a copy of the config, re-validates
    /// the copy through [`Config::validate`], and only then installs
    /// it: a rejected flip changes nothing.
    fn param_flip(&mut self, param: &Param) -> Result<(), ScenarioError> {
        let mut flipped = self.cfg.clone();
        match *param {
            Param::QueryRate(r) => flipped.system.query_rate = r,
            Param::BadPeerFraction(f) => flipped.system.bad_peer_fraction = f,
            Param::PingInterval(i) => flipped.protocol.ping_interval = i,
            Param::ParallelProbes(k) => flipped.protocol.parallel_probes = k,
            Param::MaintenanceMode(m) => flipped.protocol.maintenance_mode = m,
            _ => {
                return Err(ScenarioError::Unsupported {
                    engine: "guess",
                    action: param.name(),
                })
            }
        }
        flipped
            .validate()
            .map_err(|e| ScenarioError::InvalidParam(e.to_string()))?;
        if flipped.system.query_rate != self.cfg.system.query_rate {
            self.workload = QueryWorkload::with_rate(flipped.system.query_rate)
                .map_err(|e| ScenarioError::InvalidParam(e.to_string()))?;
        }
        self.cfg = flipped;
        Ok(())
    }
}

impl<T: TraceSink> Intervenable<T> for GuessSim {
    fn intervene(
        &mut self,
        now: SimTime,
        action: &Intervention,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> Result<(), ScenarioError> {
        self.metrics.counters_mut().incr("interventions");
        match *action {
            Intervention::MassJoin { count } => self.mass_join(count, now, ctx),
            Intervention::MassLeave { count } => self.mass_leave(count, now, ctx),
            Intervention::FlashCrowd { queries } => self.flash_crowd(queries, now, ctx),
            Intervention::ParamFlip(ref param) => self.param_flip(param)?,
            Intervention::Partition { groups } => self.partition = Some(groups),
            Intervention::Heal => self.partition = None,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::scenario::Scenario;
    use simkit::time::SimDuration;

    fn tiny(seed: u64) -> Config {
        let mut cfg = Config::small_test(seed);
        cfg.run.duration = SimDuration::from_secs(200.0);
        cfg.run.warmup = SimDuration::from_secs(50.0);
        cfg
    }

    #[test]
    fn empty_scenario_equals_plain_run() {
        let plain = GuessSim::new(tiny(31)).unwrap().run();
        let scen = GuessSim::new(tiny(31))
            .unwrap()
            .run_scenario(&Scenario::new())
            .unwrap();
        assert_eq!(plain.queries, scen.queries);
        assert_eq!(plain.unsatisfied, scen.unsatisfied);
        assert_eq!(plain.loads, scen.loads);
        assert_eq!(plain.counters.get("births"), scen.counters.get("births"));
    }

    #[test]
    fn mass_join_grows_the_population() {
        let n = tiny(32).system.network_size;
        let scenario = Scenario::new().at(100.0).mass_join(40);
        let report = GuessSim::new(tiny(32))
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        let baseline = GuessSim::new(tiny(32)).unwrap().run();
        assert_eq!(report.counters.get("interventions"), 1);
        assert!(
            report.counters.get("births") >= baseline.counters.get("births") + 40,
            "join wave must add at least 40 births over the {n}-peer baseline"
        );
    }

    #[test]
    fn mass_leave_forces_a_death_wave() {
        // Drop churn to near zero so every death is the scenario's.
        let mut cfg = tiny(33);
        cfg.system.lifespan_multiplier = 1000.0;
        let scenario = Scenario::new().at(100.0).mass_leave(30);
        let report = GuessSim::new(cfg.clone())
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        let baseline = GuessSim::new(cfg).unwrap().run();
        assert_eq!(baseline.counters.get("deaths"), 0, "baseline is churnless");
        assert_eq!(report.counters.get("deaths"), 30, "exactly the wave");
        assert_eq!(
            report.counters.get("births"),
            report.counters.get("deaths") + 120,
            "every victim is replaced"
        );
    }

    #[test]
    fn flash_crowd_injects_queries() {
        // The flash lands after warm-up, so all 200 injected queries
        // are recorded on top of the organic ones (which diverge from
        // the baseline only by RNG-stream noise).
        let scenario = Scenario::new().at(100.0).flash_crowd(200);
        let report = GuessSim::new(tiny(34))
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert!(
            report.queries >= 200,
            "flash crowd queries must be recorded: {}",
            report.queries
        );
        assert_eq!(report.counters.get("interventions"), 1);
    }

    #[test]
    fn param_flip_revalidates() {
        let bad = Scenario::new().at(100.0).param_flip(Param::QueryRate(-1.0));
        let err = GuessSim::new(tiny(35))
            .unwrap()
            .run_scenario(&bad)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));

        let unsupported = Scenario::new().at(100.0).param_flip(Param::Fanout(4));
        let err = GuessSim::new(tiny(35))
            .unwrap()
            .run_scenario(&unsupported)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Unsupported {
                engine: "guess",
                action: "fanout",
            }
        );
    }

    #[test]
    fn maintenance_mode_flips_mid_run_via_the_dsl() {
        let mut cfg = tiny(43);
        cfg.system.lifespan_multiplier = 0.1; // churn so deaths trigger pushes
        let scenario = Scenario::new()
            .at(60.0)
            .param_flip(Param::MaintenanceMode(MaintenanceMode::Push));
        let report = GuessSim::new(cfg.clone())
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(report.counters.get("interventions"), 1);
        assert!(
            report.counters.get("push_invalidations") + report.counters.get("push_refreshes") > 0,
            "push traffic must flow after the flip"
        );
        let baseline = GuessSim::new(cfg).unwrap().run();
        assert_eq!(
            baseline.counters.get("push_invalidations"),
            0,
            "the pull default pushes nothing"
        );
        assert_eq!(baseline.counters.get("push_refreshes"), 0);
    }

    #[test]
    fn flip_installs_and_rejected_flip_installs_nothing() {
        let mut sim = GuessSim::new(tiny(44)).unwrap();
        assert_eq!(sim.cfg.protocol.maintenance_mode, MaintenanceMode::Pull);
        sim.param_flip(&Param::MaintenanceMode(MaintenanceMode::Hybrid))
            .unwrap();
        assert_eq!(sim.cfg.protocol.maintenance_mode, MaintenanceMode::Hybrid);
        // A rejected flip must not install anything: the flipped copy
        // fails validation before `cfg` is written.
        let err = sim.param_flip(&Param::QueryRate(-3.0)).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));
        assert_eq!(sim.cfg.protocol.maintenance_mode, MaintenanceMode::Hybrid);
        assert_eq!(sim.cfg.system.query_rate, tiny(44).system.query_rate);
    }

    #[test]
    fn zero_ping_interval_flip_is_rejected() {
        // Installed, it would reschedule every ping at `now + 0`.
        let mut sim = GuessSim::new(tiny(45)).unwrap();
        let err = sim
            .param_flip(&Param::PingInterval(SimDuration::ZERO))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));
        assert_eq!(
            sim.cfg.protocol.ping_interval,
            tiny(45).protocol.ping_interval
        );
    }

    #[test]
    fn attack_onset_flip_births_malicious_peers() {
        let mut cfg = tiny(36);
        cfg.system.lifespan_multiplier = 0.2; // churn fast enough to matter
        let scenario = Scenario::new()
            .at(60.0)
            .param_flip(Param::BadPeerFraction(0.8));
        let report = GuessSim::new(cfg).unwrap().run_scenario(&scenario).unwrap();
        assert!(
            report.good_entries.is_some(),
            "cache health sampling still runs"
        );
    }

    #[test]
    fn partition_starves_cross_group_probes_until_heal() {
        let partitioned = Scenario::new().at(60.0).partition(2);
        let healed = Scenario::new().at(60.0).partition(2).at(130.0).heal();
        let p = GuessSim::new(tiny(37))
            .unwrap()
            .run_scenario(&partitioned)
            .unwrap();
        let h = GuessSim::new(tiny(37))
            .unwrap()
            .run_scenario(&healed)
            .unwrap();
        let baseline = GuessSim::new(tiny(37)).unwrap().run();
        assert!(
            p.unsatisfaction() >= baseline.unsatisfaction(),
            "a partition cannot make satisfaction better: {:.3} vs {:.3}",
            p.unsatisfaction(),
            baseline.unsatisfaction()
        );
        assert!(
            h.unsatisfaction() <= p.unsatisfaction(),
            "healing cannot be worse than staying partitioned: {:.3} vs {:.3}",
            h.unsatisfaction(),
            p.unsatisfaction()
        );
    }

    #[test]
    fn bad_partition_spec_is_rejected() {
        let scenario = Scenario::new().at(60.0).partition(1);
        let err = GuessSim::new(tiny(38))
            .unwrap()
            .run_scenario(&scenario)
            .unwrap_err();
        assert_eq!(err, ScenarioError::BadPartition { groups: 1 });
    }
}
