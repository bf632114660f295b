//! What scenario interventions mean to the epidemic. The hooks
//! themselves are the shared ones of
//! [`workload::population::ForwardingSim`]; the engine adds three
//! knobs, `Fanout`, `RoundTtl` and `PullProbability`.
//!
//! A partition drops a cross-group push after counting the send: the
//! message is spent but eaten in transit, surfaced as the
//! `partition_drops` counter and `Refused` trace records.

#[cfg(test)]
mod tests {
    use super::super::*;
    use simkit::scenario::{MaintenanceMode, Scenario, ScenarioError};
    use simkit::sim::Runnable;
    use simkit::time::SimDuration;

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
                | Param::Fanout(_)
                | Param::RoundTtl(_)
                | Param::PullProbability(_) => true,
                Param::BadPeerFraction(_)
                | Param::PingInterval(_)
                | Param::ParallelProbes(_)
                | Param::FloodTtl(_)
                | Param::TargetDegree(_)
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
                        engine: "gossip",
                        action: param.name(),
                    }
                );
            }
        }
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
