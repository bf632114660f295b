//! What scenario interventions mean to the flood. The hooks themselves
//! are the shared ones of [`workload::population::ForwardingSim`]; the
//! engine adds two knobs, `FloodTtl` and `TargetDegree`.
//!
//! A partition filters overlay edges: cross-group links go dark and
//! degree repair re-wires within groups. A join can land between the
//! hops of an in-flight flood, so every visit table in the flood slab,
//! in flight or free, covers every slot from the moment the slot exists
//! and no hop pays a size check.

#[cfg(test)]
mod tests {
    use super::super::*;
    use simkit::scenario::{MaintenanceMode, Scenario, ScenarioError};
    use simkit::sim::Runnable;
    use simkit::time::SimDuration;

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
                Param::QueryRate(_) | Param::FloodTtl(_) | Param::TargetDegree(_) => true,
                Param::BadPeerFraction(_)
                | Param::PingInterval(_)
                | Param::ParallelProbes(_)
                | Param::Fanout(_)
                | Param::RoundTtl(_)
                | Param::PullProbability(_)
                | Param::MaintenanceMode(_) => false,
            };
            let scenario = Scenario::new().at(100.0).param_flip(param);
            let got = small().build().unwrap().run_scenario(&scenario);
            if supported {
                assert!(got.is_ok(), "{}: {got:?}", param.name());
            } else {
                assert_eq!(
                    got.unwrap_err(),
                    ScenarioError::Unsupported {
                        engine: "gnutella",
                        action: param.name(),
                    }
                );
            }
        }
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
