//! Mixed same-instant timelines: every intervention kind at one instant.
//!
//! Controls that share an instant pop in timeline order, before any
//! engine event the earlier ones scheduled at that instant — so a join
//! wave can land while the floods or queries a flash crowd just started
//! are still in flight. Each engine must finish such a run with `Ok`.

use gnutella::dynamic::GnutellaConfig;
use gossip::Config as GossipConfig;
use guess::{Config, GuessSim};
use simkit::scenario::{Param, Scenario};
use simkit::sim::Runnable;
use simkit::time::SimDuration;

/// Every intervention kind at `at`, with a join right behind a flash
/// crowd and a join between a partition and its heal.
fn everything_at(at: f64) -> Scenario {
    Scenario::new()
        .at(at)
        .flash_crowd(50)
        .mass_join(150)
        .partition(2)
        .mass_join(10)
        .heal()
        .mass_leave(20)
        .param_flip(Param::QueryRate(0.02))
        .flash_crowd(20)
}

#[test]
fn guess_runs_every_intervention_at_one_instant() {
    let mut cfg = Config::small_test(0x67);
    cfg.run.duration = SimDuration::from_secs(250.0);
    cfg.run.warmup = SimDuration::from_secs(50.0);
    let report = GuessSim::new(cfg)
        .unwrap()
        .run_scenario(&everything_at(150.0))
        .unwrap();
    assert_eq!(report.counters.get("interventions"), 8);
}

#[test]
fn gossip_runs_every_intervention_at_one_instant() {
    let report = GossipConfig::small_test(0x67)
        .build()
        .unwrap()
        .run_scenario(&everything_at(150.0))
        .unwrap();
    assert_eq!(report.counters.get("interventions"), 8);
}

#[test]
fn gnutella_runs_every_intervention_at_one_instant() {
    let report = GnutellaConfig::small_test(0x67)
        .build()
        .unwrap()
        .run_scenario(&everything_at(150.0))
        .unwrap();
    assert_eq!(report.counters.get("interventions"), 8);
}
