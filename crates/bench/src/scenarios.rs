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

use gnutella::dynamic::{GnutellaConfig, GnutellaReport, GnutellaSim};
use gossip::{Config as GossipConfig, GossipReport, GossipSim};
use guess::engine::GuessSim;
use guess::RunReport;
use simkit::scenario::{Param, Scenario};
use simkit::sim::Runnable;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::{base_config, forwarding_config, Scale};

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

/// A timeline instant at `frac` of the post-warm-up window, in seconds.
/// Warm-up-relative placement keeps Quick and Full timelines congruent.
fn at(scale: Scale, frac: f64) -> f64 {
    let warmup = scale.warmup().as_secs();
    warmup + frac * (scale.duration().as_secs() - warmup)
}

// ---- the pair runner and its comparison tables -------------------------

/// One comparison-table row: its label and how to read it off a report.
type Row<R> = (&'static str, fn(&R) -> Cell);

const GUESS_ROWS: &[Row<RunReport>] = &[
    ("queries", |r| Cell::uint(r.queries)),
    ("probes/query", |r| Cell::float(r.probes_per_query(), 1)),
    ("unsatisfaction", |r| Cell::float(r.unsatisfaction(), 3)),
    ("births", |r| Cell::uint(r.counters.get("births"))),
    ("deaths", |r| Cell::uint(r.counters.get("deaths"))),
    ("interventions", |r| {
        Cell::uint(r.counters.get("interventions"))
    }),
];

const GNUTELLA_ROWS: &[Row<GnutellaReport>] = &[
    ("queries", |r| Cell::uint(r.queries)),
    ("msgs/query", |r| Cell::float(r.messages_per_query(), 1)),
    ("peers reached", |r| Cell::float(r.peers_reached.mean(), 1)),
    ("unsatisfaction", |r| Cell::float(r.unsatisfaction(), 3)),
    ("repairs", |r| Cell::uint(r.counters.get("repairs"))),
    ("interventions", |r| {
        Cell::uint(r.counters.get("interventions"))
    }),
];

const GOSSIP_ROWS: &[Row<GossipReport>] = &[
    ("queries", |r| Cell::uint(r.queries)),
    ("msgs/query", |r| Cell::float(r.messages_per_query(), 1)),
    ("peers reached", |r| Cell::float(r.peers_reached.mean(), 1)),
    ("unsatisfaction", |r| Cell::float(r.unsatisfaction(), 3)),
    ("pushes", |r| Cell::uint(r.counters.get("pushes"))),
    ("interventions", |r| {
        Cell::uint(r.counters.get("interventions"))
    }),
];

/// Runs the simulator `build(cfg)` twice over the same seed — plain,
/// then under `scenario` — as two work units, and tabulates `rows` of
/// the two reports side by side.
fn compare<C, S, E>(
    ctx: &Ctx,
    build: fn(C) -> Result<S, E>,
    cfg: &C,
    scenario: &Scenario,
    rows: &[Row<S::Report>],
) -> TableBlock
where
    C: Clone + Sync,
    S: Runnable,
    S::Report: Send,
    E: std::fmt::Debug,
{
    let reports = ctx.map(vec![false, true], |intervened| {
        let sim = build(cfg.clone()).expect("valid config");
        if intervened {
            sim.run_scenario(scenario).expect("supported timeline")
        } else {
            sim.run()
        }
    });
    let mut table = TableBlock::new("comparison", vec!["metric", "baseline", "scenario"]);
    for &(label, cell) in rows {
        table.row(vec![
            Cell::text(label),
            cell(&reports[0]),
            cell(&reports[1]),
        ]);
    }
    table
}

// ---- the scenarios -----------------------------------------------------

fn run_flash_crowd(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let queries = match scale {
        Scale::Full => 2000,
        Scale::Quick => 400,
    };
    let t = at(scale, 0.3);
    let scenario = Scenario::new().at(t).flash_crowd(queries);
    let cfg = base_config(scale, 0x5c01).with_network_size(n);
    Report::new()
        .text(format!(
            "Scenario flash-crowd (guess, N={n}): {queries} simultaneous queries at t={t:.0}s.\n\
             The burst lands on warm caches, so probes/query should barely move while\n\
             the query count jumps by the injected volume.\n\n"
        ))
        .table(compare(ctx, GuessSim::new, &cfg, &scenario, GUESS_ROWS))
}

fn run_mass_exodus(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let t = at(scale, 0.25);
    let scenario = Scenario::new().at(t).mass_leave(n / 2);
    let cfg = base_config(scale, 0x5c02).with_network_size(n);
    Report::new()
        .text(format!(
            "Scenario mass-exodus (guess, N={n}): {} peers die at t={t:.0}s and are\n\
             replaced by cold-cache newborns (constant population). Dead cache entries\n\
             spike, then pings recover the network — watch unsatisfaction vs baseline.\n\n",
            n / 2
        ))
        .table(compare(ctx, GuessSim::new, &cfg, &scenario, GUESS_ROWS))
}

fn run_attack_onset(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
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
    Report::new()
        .text(format!(
            "Scenario attack-onset (guess, N={n}, strained churn): newborn peers turn\n\
             malicious with probability 0.4 from t={t1:.0}s, back to honest at t={t2:.0}s.\n\
             Cache poisoning rises through the window and washes out after recovery.\n\n"
        ))
        .table(compare(ctx, GuessSim::new, &cfg, &scenario, GUESS_ROWS))
}

fn run_partition_heal(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let (t1, t2) = (at(scale, 0.25), at(scale, 0.6));
    let scenario = Scenario::new().at(t1).partition(2).at(t2).heal();
    let cfg: GnutellaConfig = forwarding_config(scale, 0x5c04);
    Report::new()
        .text(format!(
            "Scenario partition-heal (gnutella, N={n}): cross-group edges go dark at\n\
             t={t1:.0}s (two halves by slot parity), links restored at t={t2:.0}s. Floods\n\
             reach only their own half while split; repairs re-wire within halves.\n\n"
        ))
        .table(compare(
            ctx,
            GnutellaSim::new,
            &cfg,
            &scenario,
            GNUTELLA_ROWS,
        ))
}

fn run_join_wave(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let t = at(scale, 0.3);
    let scenario = Scenario::new().at(t).mass_join(n / 2);
    let cfg: GnutellaConfig = forwarding_config(scale, 0x5c05);
    Report::new()
        .text(format!(
            "Scenario join-wave (gnutella, N={n}): {} newborn peers wire themselves\n\
             into the overlay at t={t:.0}s. Floods over the grown overlay reach more\n\
             peers and cost more messages per query.\n\n",
            n / 2
        ))
        .table(compare(
            ctx,
            GnutellaSim::new,
            &cfg,
            &scenario,
            GNUTELLA_ROWS,
        ))
}

fn run_param_flip(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let (t1, t2) = (at(scale, 0.25), at(scale, 0.6));
    let scenario = Scenario::new()
        .at(t1)
        .param_flip(Param::Fanout(1))
        .at(t2)
        .param_flip(Param::Fanout(3));
    let cfg: GossipConfig = forwarding_config(scale, 0x5c06);
    Report::new()
        .text(format!(
            "Scenario param-flip (gossip, N={n}): fanout drops 3 -> 1 at t={t1:.0}s\n\
             (infect-and-die epidemics starve) and recovers to 3 at t={t2:.0}s. Both\n\
             flips re-validate through the config's own rules before taking effect.\n\n"
        ))
        .table(compare(ctx, GossipSim::new, &cfg, &scenario, GOSSIP_ROWS))
}

fn run_push_storm(ctx: &Ctx) -> Report {
    use guess::MaintenanceMode;

    const PUSH_ROWS: &[Row<RunReport>] = &[
        ("push invalidations", |r| {
            Cell::uint(r.counters.get("push_invalidations"))
        }),
        ("push refreshes", |r| {
            Cell::uint(r.counters.get("push_refreshes"))
        }),
        ("push refused", |r| {
            Cell::uint(r.counters.get("push_refused"))
        }),
    ];
    let scale = ctx.scale();
    let n = scale.default_network();
    let t = at(scale, 0.3);
    let scenario = Scenario::new().at(t).mass_leave(n / 2);
    let mut cfg = base_config(scale, 0x5c07)
        .with_network_size(n)
        .with_maintenance_mode(MaintenanceMode::Push);
    // Strained churn keeps the interest registry full of entries worth
    // invalidating when the wave hits.
    cfg.system.lifespan_multiplier = 0.2;
    let rows = [GUESS_ROWS, PUSH_ROWS].concat();
    Report::new()
        .text(format!(
            "Scenario push-storm (guess, N={n}, strained churn, push maintenance):\n\
             {} peers die at once at t={t:.0}s. Every death drains its interest list\n\
             into an invalidation tree, so the wave lands as a burst of pushed\n\
             invalidations contending with query probes for capacity — watch the\n\
             pushed-invalidation and refused counts against the baseline.\n\n",
            n / 2
        ))
        .table(compare(ctx, GuessSim::new, &cfg, &scenario, &rows))
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
