//! EXTENSION (CUP [Roussopoulos & Baker]): pull vs push vs hybrid cache
//! maintenance — staleness against maintenance bandwidth under churn.
//!
//! GUESS as specified is pull-only: periodic pings re-date cache entries
//! and discover dead ones. The push plane ([`guess::push`]) inverts the
//! discipline — watchers register interest when a pong hands them an
//! entry, and the subject pushes invalidations on death and fan-out
//! limited refreshes on its (stretched) maintenance cycle.
//!
//! For each churn regime the three [`MaintenanceMode`]s run on the
//! **same seed**, so rows differ only by maintenance discipline. The
//! charted tradeoff: mean cache-entry staleness (seconds the cached
//! information has been *wrong* — zero while the subject lives, time
//! since its death after) against total maintenance messages
//! (pings + pushed invalidations + pushed refreshes), with query success
//! alongside to show search quality is not sacrificed.

use guess::config::Config;
use guess::engine::GuessSim;
use guess::{MaintenanceMode, RunReport};
use simkit::sim::Runnable;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::base_config;

/// Churn regimes charted: label and `LifespanMultiplier`. The strained
/// regime is §6.1's cache-maintenance setting; frantic pushes beyond it.
pub const REGIMES: [(&str, f64); 3] = [("calm", 1.0), ("strained", 0.2), ("frantic", 0.05)];

/// The three maintenance disciplines, compared on shared seeds.
pub const MODES: [(&str, MaintenanceMode); 3] = [
    ("pull", MaintenanceMode::Pull),
    ("hybrid", MaintenanceMode::Hybrid),
    ("push", MaintenanceMode::Push),
];

/// One regime's configuration before the mode is applied. The seed is
/// shared by all three modes of the regime — the mode column is the only
/// thing that differs within a regime block.
fn regime_config(ctx: &Ctx, multiplier: f64, seed: u64) -> Config {
    let mut cfg = base_config(ctx.scale(), seed).with_network_size(ctx.scale().default_network());
    cfg.system.lifespan_multiplier = multiplier;
    cfg
}

/// Total maintenance messages a run spent keeping caches fresh.
fn maintenance_msgs(report: &RunReport) -> u64 {
    report.counters.get("pings_sent")
        + report.counters.get("push_invalidations")
        + report.counters.get("push_refreshes")
}

/// Runs the maintenance-mode comparison.
#[must_use]
pub fn run(ctx: &Ctx) -> Report {
    let n = ctx.scale().default_network();
    let points: Vec<(usize, usize)> = (0..REGIMES.len())
        .flat_map(|r| (0..MODES.len()).map(move |m| (r, m)))
        .collect();
    let rows = ctx.map(points, |(r, m)| {
        let (regime, multiplier) = REGIMES[r];
        let (mode_name, mode) = MODES[m];
        let cfg = regime_config(ctx, multiplier, 0x9a1e + r as u64).with_maintenance_mode(mode);
        let report = GuessSim::new(cfg).expect("valid config").run();
        vec![
            Cell::text(regime),
            Cell::text(mode_name),
            Cell::float(report.mean_staleness.unwrap_or(f64::NAN), 1),
            Cell::float(report.live_fraction.unwrap_or(f64::NAN), 3),
            Cell::uint(report.counters.get("pings_sent")),
            Cell::uint(
                report.counters.get("push_invalidations") + report.counters.get("push_refreshes"),
            ),
            Cell::uint(maintenance_msgs(&report)),
            Cell::float(report.unsatisfaction(), 3),
            Cell::float(report.probes_per_query(), 1),
        ]
    });
    let mut table = TableBlock::new(
        "maintenance",
        vec![
            "churn",
            "mode",
            "staleness (s)",
            "frac live",
            "pings",
            "push msgs",
            "maint msgs",
            "unsatisfied",
            "probes/query",
        ],
    );
    for row in rows {
        table.row(row);
    }
    Report::new()
        .text(format!(
            "EXTENSION (CUP) — maintenance mode vs staleness and bandwidth (N={n})\n\
             Three churn regimes; within each, pull/hybrid/push share one seed.\n\
             push stretches the ping interval x2, audits stalest-first with the pings\n\
             that remain, and spends the savings on interest-edge invalidations and\n\
             fan-out-limited refreshes; hybrid keeps full-rate pings and adds\n\
             invalidations only. Staleness counts seconds cached entries keep pointing\n\
             at departed peers. Expected shape: push reaches lower mean staleness than\n\
             pull on fewer total maintenance messages, without hurting unsatisfaction.\n\n"
        ))
        .table(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn quick_run_reproduces_the_shape() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run(&ctx).render_text();
        assert!(out.contains("staleness (s)"));
        // One row per regime x mode pair.
        for (regime, _) in REGIMES {
            assert!(out.contains(regime), "missing regime row {regime}");
        }
        let data_lines = out
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                t.starts_with("calm") || t.starts_with("strained") || t.starts_with("frantic")
            })
            .count();
        assert_eq!(data_lines, REGIMES.len() * MODES.len());
    }
}
