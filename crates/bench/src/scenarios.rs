//! The named-scenario catalog: runtime-intervention timelines over all
//! three engines, exposed as `repro scenario <name>`.
//!
//! Each scenario builds a [`Scenario`] timeline (interventions placed at
//! fractions of the post-warm-up window, so the same shape runs at both
//! scales), then runs the engine twice — once plain, once under the
//! timeline — and reports the two runs side by side. Both runs share one
//! seed; the baseline column is therefore the exact counterfactual of
//! the intervened run, not a different draw.
//!
//! Determinism: each scenario's two runs are independent work units
//! under [`Ctx::map`], so reports are byte-identical at any `--jobs`
//! level. `tests/scenario_goldens.rs` pins each rendered report with an
//! FNV-1a hash, exactly like the experiment goldens.

use gnutella::dynamic::{GnutellaConfig, GnutellaReport};
use gossip::{Config as GossipConfig, GossipReport, GossipSim};
use guess::engine::GuessSim;
use guess::RunReport;
use simkit::scenario::{Param, Scenario};
use simkit::sim::Runnable;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::{base_config, Scale};

/// A named, runnable scenario (the catalog counterpart of
/// [`crate::experiments::Experiment`]).
#[derive(Clone, Copy)]
pub struct ScenarioExperiment {
    /// CLI name (`repro scenario <name>`).
    pub name: &'static str,
    /// Which engine the timeline drives.
    pub engine: &'static str,
    /// What the scenario demonstrates.
    pub description: &'static str,
    /// Runs baseline + scenario and returns the comparison report.
    pub run: fn(&Ctx) -> Report,
}

impl std::fmt::Debug for ScenarioExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioExperiment")
            .field("name", &self.name)
            .finish()
    }
}

/// Every scenario, catalog order.
#[must_use]
pub fn all() -> Vec<ScenarioExperiment> {
    vec![
        ScenarioExperiment {
            name: "flash-crowd",
            engine: "guess",
            description: "a burst of simultaneous queries hits a steady GUESS network",
            run: run_flash_crowd,
        },
        ScenarioExperiment {
            name: "mass-exodus",
            engine: "guess",
            description: "half the peers die at once; caches cold-start and recover",
            run: run_mass_exodus,
        },
        ScenarioExperiment {
            name: "attack-onset",
            engine: "guess",
            description: "bad-peer fraction flips 0 -> 0.4 -> 0 under churn",
            run: run_attack_onset,
        },
        ScenarioExperiment {
            name: "partition-heal",
            engine: "gnutella",
            description: "the overlay splits into two halves, then heals",
            run: run_partition_heal,
        },
        ScenarioExperiment {
            name: "join-wave",
            engine: "gnutella",
            description: "the overlay grows by half its size in one instant",
            run: run_join_wave,
        },
        ScenarioExperiment {
            name: "param-flip",
            engine: "gossip",
            description: "gossip fanout flips 3 -> 1 -> 3 mid-run",
            run: run_param_flip,
        },
        ScenarioExperiment {
            name: "push-storm",
            engine: "guess",
            description: "mass death under push maintenance fires an invalidation storm",
            run: run_push_storm,
        },
    ]
}

/// Looks a scenario up by CLI name.
#[must_use]
pub fn find(name: &str) -> Option<ScenarioExperiment> {
    all().into_iter().find(|s| s.name == name)
}

/// Network size shared by every scenario at this scale (matches the
/// extension studies).
fn network_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1000,
        Scale::Quick => 300,
    }
}

/// A timeline instant at `frac` of the post-warm-up window, in seconds.
/// Warm-up-relative placement keeps Quick and Full timelines congruent.
fn at(scale: Scale, frac: f64) -> f64 {
    let warmup = scale.warmup().as_secs();
    warmup + frac * (scale.duration().as_secs() - warmup)
}

// ---- comparison tables -------------------------------------------------

fn guess_table(base: &RunReport, scen: &RunReport) -> TableBlock {
    let mut t = TableBlock::new("comparison", vec!["metric", "baseline", "scenario"]);
    t.row(vec![
        Cell::text("queries"),
        Cell::uint(base.queries),
        Cell::uint(scen.queries),
    ]);
    t.row(vec![
        Cell::text("probes/query"),
        Cell::float(base.probes_per_query(), 1),
        Cell::float(scen.probes_per_query(), 1),
    ]);
    t.row(vec![
        Cell::text("unsatisfaction"),
        Cell::float(base.unsatisfaction(), 3),
        Cell::float(scen.unsatisfaction(), 3),
    ]);
    t.row(vec![
        Cell::text("births"),
        Cell::uint(base.counters.get("births")),
        Cell::uint(scen.counters.get("births")),
    ]);
    t.row(vec![
        Cell::text("deaths"),
        Cell::uint(base.counters.get("deaths")),
        Cell::uint(scen.counters.get("deaths")),
    ]);
    t.row(vec![
        Cell::text("interventions"),
        Cell::uint(base.counters.get("interventions")),
        Cell::uint(scen.counters.get("interventions")),
    ]);
    t
}

fn gnutella_table(base: &GnutellaReport, scen: &GnutellaReport) -> TableBlock {
    let mut t = TableBlock::new("comparison", vec!["metric", "baseline", "scenario"]);
    t.row(vec![
        Cell::text("queries"),
        Cell::uint(base.queries),
        Cell::uint(scen.queries),
    ]);
    t.row(vec![
        Cell::text("msgs/query"),
        Cell::float(base.messages_per_query(), 1),
        Cell::float(scen.messages_per_query(), 1),
    ]);
    t.row(vec![
        Cell::text("peers reached"),
        Cell::float(base.peers_reached.mean(), 1),
        Cell::float(scen.peers_reached.mean(), 1),
    ]);
    t.row(vec![
        Cell::text("unsatisfaction"),
        Cell::float(base.unsatisfaction(), 3),
        Cell::float(scen.unsatisfaction(), 3),
    ]);
    t.row(vec![
        Cell::text("repairs"),
        Cell::uint(base.counters.get("repairs")),
        Cell::uint(scen.counters.get("repairs")),
    ]);
    t.row(vec![
        Cell::text("interventions"),
        Cell::uint(base.counters.get("interventions")),
        Cell::uint(scen.counters.get("interventions")),
    ]);
    t
}

fn gossip_table(base: &GossipReport, scen: &GossipReport) -> TableBlock {
    let mut t = TableBlock::new("comparison", vec!["metric", "baseline", "scenario"]);
    t.row(vec![
        Cell::text("queries"),
        Cell::uint(base.queries),
        Cell::uint(scen.queries),
    ]);
    t.row(vec![
        Cell::text("msgs/query"),
        Cell::float(base.messages_per_query(), 1),
        Cell::float(scen.messages_per_query(), 1),
    ]);
    t.row(vec![
        Cell::text("peers reached"),
        Cell::float(base.peers_reached.mean(), 1),
        Cell::float(scen.peers_reached.mean(), 1),
    ]);
    t.row(vec![
        Cell::text("unsatisfaction"),
        Cell::float(base.unsatisfaction(), 3),
        Cell::float(scen.unsatisfaction(), 3),
    ]);
    t.row(vec![
        Cell::text("pushes"),
        Cell::uint(base.counters.get("pushes")),
        Cell::uint(scen.counters.get("pushes")),
    ]);
    t.row(vec![
        Cell::text("interventions"),
        Cell::uint(base.counters.get("interventions")),
        Cell::uint(scen.counters.get("interventions")),
    ]);
    t
}

// ---- the scenarios -----------------------------------------------------

fn run_guess_pair(
    ctx: &Ctx,
    cfg: guess::config::Config,
    scenario: &Scenario,
) -> (RunReport, RunReport) {
    let mut reports = ctx.map(vec![false, true], |intervened| {
        let sim = GuessSim::new(cfg.clone()).expect("valid config");
        if intervened {
            sim.run_scenario(scenario).expect("supported timeline")
        } else {
            sim.run()
        }
    });
    let scen = reports.pop().expect("two runs");
    let base = reports.pop().expect("two runs");
    (base, scen)
}

fn run_flash_crowd(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = network_for(scale);
    let queries = match scale {
        Scale::Full => 2000,
        Scale::Quick => 400,
    };
    let t = at(scale, 0.3);
    let scenario = Scenario::new().at(t).flash_crowd(queries);
    let cfg = base_config(scale, 0x5c01).with_network_size(n);
    let (base, scen) = run_guess_pair(ctx, cfg, &scenario);
    Report::new()
        .text(format!(
            "Scenario flash-crowd (guess, N={n}): {queries} simultaneous queries at t={t:.0}s.\n\
             The burst lands on warm caches, so probes/query should barely move while\n\
             the query count jumps by the injected volume.\n\n"
        ))
        .table(guess_table(&base, &scen))
}

fn run_mass_exodus(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = network_for(scale);
    let t = at(scale, 0.25);
    let scenario = Scenario::new().at(t).mass_leave(n / 2);
    let cfg = base_config(scale, 0x5c02).with_network_size(n);
    let (base, scen) = run_guess_pair(ctx, cfg, &scenario);
    Report::new()
        .text(format!(
            "Scenario mass-exodus (guess, N={n}): {} peers die at t={t:.0}s and are\n\
             replaced by cold-cache newborns (constant population). Dead cache entries\n\
             spike, then pings recover the network — watch unsatisfaction vs baseline.\n\n",
            n / 2
        ))
        .table(guess_table(&base, &scen))
}

fn run_attack_onset(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = network_for(scale);
    let (t1, t2) = (at(scale, 0.25), at(scale, 0.6));
    let scenario = Scenario::new()
        .at(t1)
        .param_flip(Param::BadPeerFraction(0.4))
        .at(t2)
        .param_flip(Param::BadPeerFraction(0.0));
    let mut cfg = base_config(scale, 0x5c03).with_network_size(n);
    // Strained churn so the flipped birth mix turns the population over
    // while the attack window is open.
    cfg.system.lifespan_multiplier = 0.2;
    let (base, scen) = run_guess_pair(ctx, cfg, &scenario);
    Report::new()
        .text(format!(
            "Scenario attack-onset (guess, N={n}, strained churn): newborn peers turn\n\
             malicious with probability 0.4 from t={t1:.0}s, back to honest at t={t2:.0}s.\n\
             Cache poisoning rises through the window and washes out after recovery.\n\n"
        ))
        .table(guess_table(&base, &scen))
}

fn run_partition_heal(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = network_for(scale);
    let (t1, t2) = (at(scale, 0.25), at(scale, 0.6));
    let mut reports = ctx.map(vec![false, true], |intervened| {
        let cfg = GnutellaConfig::default()
            .with_network_size(n)
            .with_duration(scale.duration())
            .with_warmup(scale.warmup())
            .with_seed(0x5c04);
        let sim = cfg.build().expect("valid config");
        if intervened {
            sim.run_scenario(&Scenario::new().at(t1).partition(2).at(t2).heal())
                .expect("supported timeline")
        } else {
            sim.run()
        }
    });
    let scen = reports.pop().expect("two runs");
    let base = reports.pop().expect("two runs");
    Report::new()
        .text(format!(
            "Scenario partition-heal (gnutella, N={n}): cross-group edges go dark at\n\
             t={t1:.0}s (two halves by slot parity), links restored at t={t2:.0}s. Floods\n\
             reach only their own half while split; repairs re-wire within halves.\n\n"
        ))
        .table(gnutella_table(&base, &scen))
}

fn run_join_wave(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = network_for(scale);
    let t = at(scale, 0.3);
    let mut reports = ctx.map(vec![false, true], |intervened| {
        let cfg = GnutellaConfig::default()
            .with_network_size(n)
            .with_duration(scale.duration())
            .with_warmup(scale.warmup())
            .with_seed(0x5c05);
        let sim = cfg.build().expect("valid config");
        if intervened {
            sim.run_scenario(&Scenario::new().at(t).mass_join(n / 2))
                .expect("supported timeline")
        } else {
            sim.run()
        }
    });
    let scen = reports.pop().expect("two runs");
    let base = reports.pop().expect("two runs");
    Report::new()
        .text(format!(
            "Scenario join-wave (gnutella, N={n}): {} newborn peers wire themselves\n\
             into the overlay at t={t:.0}s. Floods over the grown overlay reach more\n\
             peers and cost more messages per query.\n\n",
            n / 2
        ))
        .table(gnutella_table(&base, &scen))
}

fn run_param_flip(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = network_for(scale);
    let (t1, t2) = (at(scale, 0.25), at(scale, 0.6));
    let mut reports = ctx.map(vec![false, true], |intervened| {
        let cfg = GossipConfig::default()
            .with_network_size(n)
            .with_duration(scale.duration())
            .with_warmup(scale.warmup())
            .with_seed(0x5c06);
        let sim = GossipSim::new(cfg).expect("valid config");
        if intervened {
            sim.run_scenario(
                &Scenario::new()
                    .at(t1)
                    .param_flip(Param::Fanout(1))
                    .at(t2)
                    .param_flip(Param::Fanout(3)),
            )
            .expect("supported timeline")
        } else {
            sim.run()
        }
    });
    let scen = reports.pop().expect("two runs");
    let base = reports.pop().expect("two runs");
    Report::new()
        .text(format!(
            "Scenario param-flip (gossip, N={n}): fanout drops 3 -> 1 at t={t1:.0}s\n\
             (infect-and-die epidemics starve) and recovers to 3 at t={t2:.0}s. Both\n\
             flips re-validate through the config's own rules before taking effect.\n\n"
        ))
        .table(gossip_table(&base, &scen))
}

fn run_push_storm(ctx: &Ctx) -> Report {
    use guess::MaintenanceMode;

    let scale = ctx.scale();
    let n = network_for(scale);
    let t = at(scale, 0.3);
    let scenario = Scenario::new().at(t).mass_leave(n / 2);
    let mut cfg = base_config(scale, 0x5c07)
        .with_network_size(n)
        .with_maintenance_mode(MaintenanceMode::Push);
    // Strained churn keeps the interest registry full of entries worth
    // invalidating when the wave hits.
    cfg.system.lifespan_multiplier = 0.2;
    let (base, scen) = run_guess_pair(ctx, cfg, &scenario);
    let mut table = guess_table(&base, &scen);
    table.row(vec![
        Cell::text("push invalidations"),
        Cell::uint(base.counters.get("push_invalidations")),
        Cell::uint(scen.counters.get("push_invalidations")),
    ]);
    table.row(vec![
        Cell::text("push refreshes"),
        Cell::uint(base.counters.get("push_refreshes")),
        Cell::uint(scen.counters.get("push_refreshes")),
    ]);
    table.row(vec![
        Cell::text("push refused"),
        Cell::uint(base.counters.get("push_refused")),
        Cell::uint(scen.counters.get("push_refused")),
    ]);
    Report::new()
        .text(format!(
            "Scenario push-storm (guess, N={n}, strained churn, push maintenance):\n\
             {} peers die at once at t={t:.0}s. Every death drains its interest list\n\
             into an invalidation tree, so the wave lands as a burst of pushed\n\
             invalidations contending with query probes for capacity — watch the\n\
             pushed-invalidation and refused counts against the baseline.\n\n",
            n / 2
        ))
        .table(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_findable() {
        let mut names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert!(names.len() >= 6, "the catalog ships at least six scenarios");
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(find("flash-crowd").is_some());
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn catalog_covers_all_three_engines() {
        let engines: Vec<&str> = all().iter().map(|s| s.engine).collect();
        for engine in ["guess", "gnutella", "gossip"] {
            assert!(engines.contains(&engine), "no scenario drives {engine}");
        }
    }

    #[test]
    fn timeline_instants_land_after_warmup() {
        for scale in [Scale::Full, Scale::Quick] {
            for frac in [0.0, 0.25, 0.6, 1.0] {
                let t = at(scale, frac);
                assert!(t >= scale.warmup().as_secs());
                assert!(t <= scale.duration().as_secs());
            }
        }
    }
}
