//! Figures 6 and 7: overlay connectivity vs ping interval.
//!
//! Setup (§6.1): queries are **off** to isolate ping-driven maintenance;
//! `LifespanMultiplier = 0.2` keeps churn pressure on. The metric is the
//! mean size of the largest connected component (LCC) of the live
//! conceptual overlay.
//!
//! * Fig 6 — N=1000, one curve per cache size: small caches fragment
//!   first as the ping interval grows.
//! * Fig 7 — CacheSize=20, one curve per network size: *relative*
//!   connectivity (LCC/N) is largely independent of N.

use guess::engine::GuessSim;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::{strained_config, Scale};
use simkit::sim::Runnable;

/// Ping intervals swept, in seconds (the paper's x-axis spans 0–600).
#[must_use]
pub fn ping_intervals(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => vec![15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 600.0],
        Scale::Quick => vec![15.0, 120.0, 600.0],
    }
}

fn lcc_for(scale: Scale, network: usize, cache: usize, interval: f64, seed: u64) -> f64 {
    let mut cfg = strained_config(scale, network, cache, seed);
    cfg.run.simulate_queries = false;
    cfg.protocol.ping_interval = simkit::time::SimDuration::from_secs(interval);
    let report = GuessSim::new(cfg).expect("valid config").run();
    report.largest_component.unwrap_or(f64::NAN)
}

/// Figure 6: LCC vs ping interval, per cache size, N=1000.
#[must_use]
pub fn run_fig6(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let caches: Vec<usize> = match scale {
        Scale::Full => vec![10, 20, 50, 100, 200, 500],
        Scale::Quick => vec![10, 50, 200],
    };
    let network = scale.default_network();
    let mut grid = Vec::new();
    for &cache in &caches {
        for &interval in &ping_intervals(scale) {
            grid.push((cache, interval));
        }
    }
    let rows = ctx.map(grid, |(cache, interval)| {
        let lcc = lcc_for(scale, network, cache, interval, 0xf16 + cache as u64);
        vec![
            Cell::size(cache),
            Cell::float(interval, 0),
            Cell::float(lcc, 0),
        ]
    });
    let mut table = TableBlock::new("lcc_vs_interval", vec!["CacheSize", "PingInterval", "LCC"]);
    for row in rows {
        table.row(row);
    }
    Report::new()
        .text(format!(
            "Figure 6 — largest connected component vs PingInterval (N={network}, queries off)\n\
             Expected shape: connectivity decays as PingInterval grows; the smallest caches\n\
             fragment first (they hold the fewest absolute live entries).\n\n"
        ))
        .table(table)
}

/// Figure 7: relative LCC vs ping interval, per network size, CacheSize=20.
#[must_use]
pub fn run_fig7(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let networks: Vec<usize> = match scale {
        Scale::Full => vec![200, 500, 1000, 2000],
        Scale::Quick => vec![200, 500],
    };
    let mut grid = Vec::new();
    for &network in &networks {
        for &interval in &ping_intervals(scale) {
            grid.push((network, interval));
        }
    }
    let rows = ctx.map(grid, |(network, interval)| {
        let lcc = lcc_for(scale, network, 20, interval, 0xf17 + network as u64);
        vec![
            Cell::size(network),
            Cell::float(interval, 0),
            Cell::float(lcc / network as f64, 3),
        ]
    });
    let mut table = TableBlock::new("relative_lcc", vec!["NetworkSize", "PingInterval", "LCC/N"]);
    for row in rows {
        table.row(row);
    }
    Report::new()
        .text(
            "Figure 7 — relative connectivity vs PingInterval (CacheSize=20)\n\
             Expected shape: at a given PingInterval, LCC/N is roughly the same across\n\
             network sizes — ping-interval selection is independent of N.\n\n",
        )
        .table(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_are_increasing() {
        for scale in [Scale::Full, Scale::Quick] {
            let v = ping_intervals(scale);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn tight_pinging_keeps_network_connected() {
        let lcc = lcc_for(Scale::Quick, 200, 20, 10.0, 1);
        assert!(
            lcc > 160.0,
            "10s pings should keep a 200-peer overlay connected, got {lcc}"
        );
    }

    #[test]
    fn connectivity_decays_with_interval() {
        // Tiny caches + glacial pings must fragment relative to fast pings.
        let fast = lcc_for(Scale::Quick, 200, 5, 10.0, 2);
        let slow = lcc_for(Scale::Quick, 200, 5, 600.0, 2);
        assert!(
            slow < fast,
            "LCC should shrink as PingInterval grows: fast={fast} slow={slow}"
        );
    }
}
