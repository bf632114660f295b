//! The scenario hooks of `GuessSim`; see [`Intervenable`].
//!
//! Victims are drawn from `rng_churn` and flash-crowd sources from
//! `rng_query`, as in the organic death and query paths. A partition is
//! checked at every direct contact: to the sender a cross-group contact
//! looks like a dead peer (it times out), and no introduction, newborn
//! seeding or push interest crosses.

use simkit::scenario::{Intervenable, Param, Partition};

use super::*;

impl<T: TraceSink> Intervenable<T> for GuessSim {
    const ENGINE: &'static str = "guess";
    type Config = Config;

    fn join_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, Event, T>) {
        let slot = SlotId(self.peers.len() as u32);
        self.bad.grow_to(self.peers.len() + 1);
        self.push.grow_to(self.peers.len() + 1);
        let newborn = self.birth_peer(slot, now);
        self.seed_from_friend(newborn, now, ctx);
        self.schedule_peer_events(slot, newborn, now, false, ctx);
    }
    fn kill_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, Event, T>) {
        let s = self.rng_churn.below(self.peers.len());
        self.on_death(SlotId(s as u32), self.peers[s].addr(), now, ctx);
    }
    fn query_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, Event, T>) {
        let src = self.peers[self.rng_query.below(self.peers.len())].addr();
        self.execute_query(src, now, ctx);
    }

    fn config(&self) -> &Config {
        &self.cfg
    }
    fn set_param(cfg: &mut Config, param: Param) -> bool {
        match param {
            Param::QueryRate(r) => cfg.system.query_rate = r,
            Param::BadPeerFraction(f) => cfg.system.bad_peer_fraction = f,
            Param::PingInterval(i) => cfg.protocol.ping_interval = i,
            Param::ParallelProbes(k) => cfg.protocol.parallel_probes = k,
            Param::MaintenanceMode(m) => cfg.protocol.maintenance_mode = m,
            _ => return false,
        }
        true
    }
    fn install(&mut self, cfg: Config) -> Result<(), String> {
        cfg.validate().map_err(|e| e.to_string())?;
        self.clocks
            .set_query_rate(cfg.system.query_rate)
            .map_err(|e| e.to_string())?;
        self.cfg = cfg;
        Ok(())
    }

    fn partition_mut(&mut self) -> &mut Option<Partition> {
        &mut self.partition
    }
    fn counters_mut(&mut self) -> &mut simkit::stats::CounterSet {
        self.metrics.counters_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_K;
    use simkit::scenario::{Scenario, ScenarioError};
    use simkit::time::SimDuration;
    use simkit::trace::NullSink;

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

    /// Flips `param` the way `intervene` does, without a kernel.
    fn flip(sim: &mut GuessSim, param: Param) -> Result<(), String> {
        let mut cfg = sim.cfg.clone();
        assert!(<GuessSim as Intervenable<NullSink>>::set_param(
            &mut cfg, param
        ));
        <GuessSim as Intervenable<NullSink>>::install(sim, cfg)
    }

    #[test]
    fn param_flip_revalidates() {
        let bad = Scenario::new().at(100.0).param_flip(Param::QueryRate(-1.0));
        let err = GuessSim::new(tiny(35))
            .unwrap()
            .run_scenario(&bad)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));

        for param in [
            Param::QueryRate(0.02),
            Param::BadPeerFraction(0.1),
            Param::PingInterval(SimDuration::from_secs(20.0)),
            Param::ParallelProbes(2),
            Param::Fanout(2),
            Param::RoundTtl(5),
            Param::PullProbability(0.5),
            Param::FloodTtl(3),
            Param::TargetDegree(4),
            Param::MaintenanceMode(MaintenanceMode::Hybrid),
        ] {
            // Exhaustive: a new `Param` must be sorted in or out here.
            let supported = match param {
                Param::QueryRate(_)
                | Param::BadPeerFraction(_)
                | Param::PingInterval(_)
                | Param::ParallelProbes(_)
                | Param::MaintenanceMode(_) => true,
                Param::Fanout(_)
                | Param::RoundTtl(_)
                | Param::PullProbability(_)
                | Param::FloodTtl(_)
                | Param::TargetDegree(_) => false,
            };
            let scenario = Scenario::new().at(100.0).param_flip(param);
            let got = GuessSim::new(tiny(35)).unwrap().run_scenario(&scenario);
            if supported {
                assert!(got.is_ok(), "{}: {got:?}", param.name());
            } else {
                assert_eq!(
                    got.unwrap_err(),
                    ScenarioError::Unsupported {
                        engine: "guess",
                        action: param.name(),
                    }
                );
            }
        }
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
        flip(&mut sim, Param::MaintenanceMode(MaintenanceMode::Hybrid)).unwrap();
        assert_eq!(sim.cfg.protocol.maintenance_mode, MaintenanceMode::Hybrid);
        // A rejected flip must not install anything: the flipped copy
        // fails validation before `cfg` is written.
        flip(&mut sim, Param::QueryRate(-3.0)).unwrap_err();
        assert_eq!(sim.cfg.protocol.maintenance_mode, MaintenanceMode::Hybrid);
        assert_eq!(sim.cfg.system.query_rate, tiny(44).system.query_rate);
    }

    #[test]
    fn parallel_probes_flip_past_adaptive_max_k_is_rejected() {
        // Widening doubles the walk up to `MAX_K`; a walk already wider
        // than that would be halved at its first escalation.
        let cfg = tiny(46).with_adaptive_parallelism(true);
        let scenario = Scenario::new()
            .at(100.0)
            .param_flip(Param::ParallelProbes(MAX_K + 1));
        let err = GuessSim::new(cfg)
            .unwrap()
            .run_scenario(&scenario)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)), "{err:?}");
    }

    #[test]
    fn zero_ping_interval_flip_is_rejected() {
        // Installed, it would reschedule every ping at `now + 0`.
        let mut sim = GuessSim::new(tiny(45)).unwrap();
        flip(&mut sim, Param::PingInterval(SimDuration::ZERO)).unwrap_err();
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
