//! Scenario interventions: the [`Intervenable`] side of `GossipSim`.
//!
//! Split out like the guess and gnutella counterparts; this is still
//! the same `GossipSim`. Every intervention routes through the engine's
//! existing machinery — joins through the population's join path,
//! leaves through `on_death`, flash crowds through `start_query` — and
//! a parameter flip installs a copy of the config only after
//! [`Config::validate`] has accepted it.

use simkit::scenario::{Intervenable, Intervention, Param, ScenarioError};
use workload::query::QueryWorkload;

use super::*;

impl GossipSim {
    /// Grows the population by `count` newborn slots: fresh library,
    /// fresh incarnation, scheduled death and burst — the same path the
    /// initial population takes. In-flight rumors learn about the
    /// newcomers lazily (their infected vectors grow at the next
    /// round), so newcomers are immediately gossipable targets.
    fn mass_join<T: TraceSink>(
        &mut self,
        count: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..count {
            let slot = self.pop.join(&mut self.rng);
            self.active_stamp.push(0);
            self.start_clocks(slot, now, ctx);
        }
    }

    /// Kills `count` uniformly chosen peers through the normal death
    /// path (in-place rebirth included: the population stays constant
    /// and the wave's damage is the mass loss of rumor knowledge).
    fn mass_leave<T: TraceSink>(
        &mut self,
        count: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..count {
            let slot = self.rng.below(self.pop.len());
            // The victim's originally scheduled death event becomes
            // stale and is ignored by the incarnation guard.
            self.on_death(slot, self.pop.incarnation(slot), now, ctx);
        }
    }

    /// Starts `queries` extra rumors immediately, from uniformly chosen
    /// sources, through the normal query path.
    fn flash_crowd<T: TraceSink>(
        &mut self,
        queries: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..queries {
            let src = self.rng.below(self.pop.len());
            self.start_query(src, now, ctx);
        }
    }

    /// Applies a parameter flip to a copy of the config, re-validates
    /// the copy through [`Config::validate`], and only then installs
    /// it: a rejected flip changes nothing.
    fn param_flip(&mut self, param: &Param) -> Result<(), ScenarioError> {
        let mut flipped = self.cfg.clone();
        match *param {
            Param::QueryRate(r) => flipped.query_rate = r,
            Param::Fanout(f) => flipped.fanout = f,
            Param::RoundTtl(t) => flipped.round_ttl = t,
            Param::PullProbability(p) => flipped.pull_probability = p,
            _ => {
                return Err(ScenarioError::Unsupported {
                    engine: "gossip",
                    action: param.name(),
                })
            }
        }
        flipped
            .validate()
            .map_err(|e| ScenarioError::InvalidParam(e.to_string()))?;
        if flipped.query_rate != self.cfg.query_rate {
            self.clocks.workload = QueryWorkload::with_rate(flipped.query_rate)
                .map_err(|e| ScenarioError::InvalidParam(e.to_string()))?;
        }
        self.cfg = flipped;
        Ok(())
    }
}

impl<T: TraceSink> Intervenable<T> for GossipSim {
    fn intervene(
        &mut self,
        now: SimTime,
        action: &Intervention,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> Result<(), ScenarioError> {
        self.counters.incr("interventions");
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

    fn small() -> Config {
        Config::small_test(0x906)
    }

    /// Churnless variant: every death in the run is the scenario's.
    fn churnless() -> Config {
        small().with_lifespan_multiplier(1000.0)
    }

    #[test]
    fn empty_scenario_equals_plain_run() {
        let plain = small().build().unwrap().run();
        let scen = small()
            .build()
            .unwrap()
            .run_scenario(&Scenario::new())
            .unwrap();
        assert_eq!(plain, scen);
    }

    #[test]
    fn mass_join_grows_the_population() {
        let n = churnless().network_size as u64;
        let scenario = Scenario::new().at(150.0).mass_join(75);
        let report = churnless()
            .build()
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(report.counters.get("interventions"), 1);
        assert_eq!(report.counters.get("deaths"), 0, "run is churnless");
        assert_eq!(
            report.counters.get("births"),
            n + 75,
            "exactly the join wave on top of the seed population"
        );
    }

    #[test]
    fn mass_leave_erases_rumor_knowledge() {
        let n = churnless().network_size as u64;
        let scenario = Scenario::new().at(150.0).mass_leave(30);
        let report = churnless()
            .build()
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(report.counters.get("deaths"), 30, "exactly the wave");
        assert_eq!(
            report.counters.get("births"),
            n + 30,
            "every victim is replaced in place"
        );
    }

    #[test]
    fn flash_crowd_starts_extra_rumors() {
        let scenario = Scenario::new().at(150.0).flash_crowd(200);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            report.queries >= 200,
            "flash rumors land after warm-up: {}",
            report.queries
        );
        assert_eq!(report.counters.get("interventions"), 1);
    }

    #[test]
    fn fanout_flip_starves_the_epidemic() {
        // Cut the fanout to 1 halfway through: infect-and-die epidemics
        // with a single contact per spreader die out almost at once, so
        // the message mean must fall well below the fanout-3 baseline.
        let baseline = small().build().unwrap().run();
        let scenario = Scenario::new().at(200.0).param_flip(Param::Fanout(1));
        let flipped = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            flipped.messages_per_query() < baseline.messages_per_query(),
            "fanout-1 tail must cut the message mean: {:.0} vs {:.0}",
            flipped.messages_per_query(),
            baseline.messages_per_query()
        );
    }

    #[test]
    fn param_flip_revalidates_and_rejects_unsupported() {
        let bad = Scenario::new().at(100.0).param_flip(Param::Fanout(0));
        let err = small().build().unwrap().run_scenario(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));

        let unsupported = Scenario::new()
            .at(100.0)
            .param_flip(Param::ParallelProbes(4));
        let err = small()
            .build()
            .unwrap()
            .run_scenario(&unsupported)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Unsupported {
                engine: "gossip",
                action: "parallel_probes",
            }
        );
    }

    #[test]
    fn partition_drops_cross_group_pushes_until_heal() {
        let part_only = Scenario::new().at(120.0).partition(2);
        let p = small().build().unwrap().run_scenario(&part_only).unwrap();
        let baseline = small().build().unwrap().run();
        assert!(
            p.counters.get("partition_drops") > 0,
            "uniform contacts must cross the partition"
        );
        assert!(
            p.peers_reached.mean() < baseline.peers_reached.mean(),
            "dropped pushes must shrink mean reach: {:.0} vs {:.0}",
            p.peers_reached.mean(),
            baseline.peers_reached.mean()
        );
        let healed = Scenario::new().at(120.0).partition(2).at(260.0).heal();
        let h = small().build().unwrap().run_scenario(&healed).unwrap();
        assert!(
            h.peers_reached.mean() > p.peers_reached.mean(),
            "healing must restore some reach: {:.0} vs {:.0}",
            h.peers_reached.mean(),
            p.peers_reached.mean()
        );
    }

    #[test]
    fn bad_partition_spec_is_rejected() {
        let scenario = Scenario::new().at(100.0).partition(1);
        let err = small()
            .build()
            .unwrap()
            .run_scenario(&scenario)
            .unwrap_err();
        assert_eq!(err, ScenarioError::BadPartition { groups: 1 });
    }
}
