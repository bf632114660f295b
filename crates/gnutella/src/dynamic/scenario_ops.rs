//! Scenario interventions: the [`Intervenable`] side of `GnutellaSim`.
//!
//! Split out like `flood`; this is still the same `GnutellaSim`. Every
//! intervention routes through the engine's existing machinery — joins
//! through the population's join + top-up path, leaves through
//! `on_death`, flash crowds through `flood_query` — and a parameter
//! flip installs a copy of the config only after
//! [`GnutellaConfig::validate`] has accepted it.

use simkit::scenario::{Intervenable, Intervention, Param, ScenarioError};
use workload::query::QueryWorkload;

use super::*;

impl GnutellaSim {
    /// Grows the overlay by `count` newborn peers: fresh library, fresh
    /// incarnation, top-up wiring, scheduled death and burst — the same
    /// path a rebirth takes, minus the departure.
    fn mass_join<T: TraceSink>(
        &mut self,
        count: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..count {
            let slot = self.pop.join(&mut self.rng);
            self.adj.push(Vec::new());
            self.top_up_connections(slot);
            self.start_clocks(slot, now, ctx);
        }
    }

    /// Kills `count` uniformly chosen peers through the normal death
    /// path (in-place rebirth included: the population stays constant
    /// and the wave's damage is the mass re-wiring).
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

    /// Injects `queries` extra floods immediately, from uniformly
    /// chosen sources, through the normal flood path.
    fn flash_crowd<T: TraceSink>(
        &mut self,
        queries: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        for _ in 0..queries {
            let src = self.rng.below(self.pop.len());
            self.flood_query(src, now, ctx);
        }
    }

    /// Applies a parameter flip to a copy of the config, re-validates
    /// the copy through [`GnutellaConfig::validate`], and only then
    /// installs it: a rejected flip changes nothing.
    fn param_flip(&mut self, param: &Param) -> Result<(), ScenarioError> {
        let mut flipped = self.cfg.clone();
        match *param {
            Param::QueryRate(r) => flipped.query_rate = r,
            Param::FloodTtl(t) => flipped.ttl = t,
            Param::TargetDegree(d) => flipped.target_degree = d,
            _ => {
                return Err(ScenarioError::Unsupported {
                    engine: "gnutella",
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

impl<T: TraceSink> Intervenable<T> for GnutellaSim {
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

    fn small() -> GnutellaConfig {
        GnutellaConfig::small_test(0x67)
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
    fn join_wave_grows_the_overlay() {
        let n = small().network_size;
        let scenario = Scenario::new().at(150.0).mass_join(n / 2);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert_eq!(report.counters.get("interventions"), 1);
        assert!(
            report.counters.get("connect_messages") > 0,
            "newborns must wire themselves in"
        );
        // Post-warm-up floods over the grown overlay can reach more
        // than the original population ever could.
        assert!(report.queries > 0);
    }

    #[test]
    fn mass_leave_rewires_the_overlay() {
        let scenario = Scenario::new().at(150.0).mass_leave(40);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(report.counters.get("deaths") >= 40);
        assert!(report.counters.get("repairs") > 0);
    }

    #[test]
    fn flash_crowd_floods_extra_queries() {
        let scenario = Scenario::new().at(150.0).flash_crowd(100);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            report.queries >= 100,
            "flash floods land after warm-up: {}",
            report.queries
        );
    }

    #[test]
    fn ttl_flip_changes_flood_reach() {
        // Drop the TTL to 1 halfway through: messages per query must
        // fall well below the TTL-7 baseline's.
        let baseline = small().build().unwrap().run();
        let scenario = Scenario::new().at(200.0).param_flip(Param::FloodTtl(1));
        let flipped = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            flipped.messages_per_query() < baseline.messages_per_query(),
            "TTL-1 tail must cut the message mean: {:.0} vs {:.0}",
            flipped.messages_per_query(),
            baseline.messages_per_query()
        );
    }

    #[test]
    fn param_flip_revalidates_and_rejects_unsupported() {
        let bad = Scenario::new().at(100.0).param_flip(Param::FloodTtl(0));
        let err = small().build().unwrap().run_scenario(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));

        let unsupported = Scenario::new().at(100.0).param_flip(Param::Fanout(3));
        let err = small()
            .build()
            .unwrap()
            .run_scenario(&unsupported)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Unsupported {
                engine: "gnutella",
                action: "fanout",
            }
        );
    }

    #[test]
    fn partition_shrinks_reach_and_heal_restores_it() {
        let part_only = Scenario::new().at(120.0).partition(2);
        let p = small().build().unwrap().run_scenario(&part_only).unwrap();
        let baseline = small().build().unwrap().run();
        assert!(
            p.peers_reached.mean() < baseline.peers_reached.mean(),
            "cross-group drops must shrink mean reach: {:.0} vs {:.0}",
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
}
