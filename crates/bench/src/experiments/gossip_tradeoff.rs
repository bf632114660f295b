//! Three-way cost/quality tradeoff: gossip vs fixed extent vs GUESS.
//!
//! Extends the Figure 8 family with the third mechanism class the paper
//! leaves implicit: non-forwarding *epidemic* search. A gossip query has
//! no extent knob; its cost/coverage point is set by fanout × round-TTL
//! (plus the pull probability that revives saturating epidemics), so the
//! sweep walks that grid and places each point next to the same
//! fixed-extent flooding curve and GUESS probe budgets as Figure 8 —
//! identical seeds, identical workload — for an apples-to-apples read of
//! where rumor spreading sits between blind flooding and cache-directed
//! probing.
//!
//! Parallelism note: every gossip grid point carries its own derived
//! seed and runs as an independent work unit alongside the fixed-extent
//! curve and the two GUESS runs.

use gossip::{Config as GossipConfig, GossipReport, GossipSim};
use guess::policy::SelectionPolicy;
use guess::RunReport;
use simkit::rng::derive_seed;
use simkit::time::SimDuration;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::{forwarding_config, Scale};
use simkit::sim::Runnable;

/// The Figure-8 master seed, reused so the flooding and GUESS baselines
/// reproduce that figure's numbers exactly.
const SEED: u64 = 0xf18;

enum Work {
    Fixed,
    Guess(SelectionPolicy),
    Gossip {
        idx: u64,
        fanout: usize,
        ttl: u32,
        pull: f64,
    },
}

enum Piece {
    Fixed(TableBlock),
    Guess(RunReport),
    Gossip {
        fanout: usize,
        ttl: u32,
        pull: f64,
        report: GossipReport,
    },
}

/// The gossip sweep at this scale: a fanout × round-TTL grid at the
/// default pull probability, then a pull sweep at one mid-grid point.
fn gossip_points(scale: Scale) -> Vec<(usize, u32, f64)> {
    let (fanouts, ttls): (Vec<usize>, Vec<u32>) = match scale {
        Scale::Full => (vec![2, 3, 4], vec![2, 4, 6, 8]),
        Scale::Quick => (vec![2, 3], vec![2, 4, 6]),
    };
    let mut points = Vec::new();
    for &f in &fanouts {
        for &t in &ttls {
            points.push((f, t, 0.3));
        }
    }
    for pull in [0.0, 0.6] {
        points.push((3, 6, pull));
    }
    points
}

fn gossip_piece(scale: Scale, idx: u64, fanout: usize, ttl: u32, pull: f64) -> Piece {
    let cfg = forwarding_config::<GossipConfig>(scale, derive_seed(SEED, "gossip-tradeoff", idx))
        .with_fanout(fanout)
        .with_round_ttl(ttl)
        .with_pull_probability(pull);
    let report = GossipSim::new(cfg).expect("valid gossip config").run();
    Piece::Gossip {
        fanout,
        ttl,
        pull,
        report,
    }
}

/// Runs the three-way tradeoff study.
#[must_use]
pub fn run(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let mut work = vec![
        Work::Fixed,
        Work::Guess(SelectionPolicy::Random),
        Work::Guess(SelectionPolicy::Mfs),
    ];
    for (idx, (fanout, ttl, pull)) in gossip_points(scale).into_iter().enumerate() {
        work.push(Work::Gossip {
            idx: idx as u64,
            fanout,
            ttl,
            pull,
        });
    }
    let pieces = ctx.map(work, |w| match w {
        Work::Fixed => Piece::Fixed(super::fig8_tradeoff::fixed_extent(scale, n, SEED).0),
        Work::Guess(query_pong) => Piece::Guess(super::fig8_tradeoff::guess_point(
            scale, n, SEED, query_pong,
        )),
        Work::Gossip {
            idx,
            fanout,
            ttl,
            pull,
        } => gossip_piece(scale, idx, fanout, ttl, pull),
    });

    let mut fixed_table = None;
    let mut guess_reports = Vec::new();
    let mut gossip_table = TableBlock::new(
        "gossip",
        vec![
            "fanout",
            "round ttl",
            "pull p",
            "msgs/query",
            "unsatisfied",
            "peers reached",
            "response s",
            "dedup frac",
        ],
    );
    for piece in pieces {
        match piece {
            Piece::Fixed(t) => fixed_table = Some(t),
            Piece::Guess(r) => guess_reports.push(r),
            Piece::Gossip {
                fanout,
                ttl,
                pull,
                report,
            } => {
                gossip_table.row(vec![
                    Cell::size(fanout),
                    Cell::uint(u64::from(ttl)),
                    Cell::float(pull, 1),
                    Cell::float(report.messages_per_query(), 1),
                    Cell::float(report.unsatisfaction(), 3),
                    Cell::float(report.peers_reached.mean(), 1),
                    Cell::float(report.mean_response_secs(), 2),
                    Cell::float(report.dedup_fraction(), 3),
                ]);
            }
        }
    }
    let fixed_table = fixed_table.expect("map preserves item order");
    let (random, mfs) = (&guess_reports[0], &guess_reports[1]);

    let mut guess_table = TableBlock::new("guess", vec!["config", "probes/query", "unsatisfied"]);
    guess_table.row(vec![
        Cell::text("GUESS Random"),
        Cell::float(random.probes_per_query(), 1),
        Cell::float(random.unsatisfaction(), 3),
    ]);
    guess_table.row(vec![
        Cell::text("GUESS QueryPong=MFS"),
        Cell::float(mfs.probes_per_query(), 1),
        Cell::float(mfs.unsatisfaction(), 3),
    ]);

    let round_secs = GossipConfig::default().round_interval.as_secs();
    Report::new()
        .text(format!(
            "Three-way tradeoff — unsatisfaction vs average query cost (N={n})\n\
             Gossip (epidemic push/pull) swept over fanout x round-TTL, next to the\n\
             Figure-8 fixed-extent flooding curve and GUESS probe budgets (same seeds).\n\
             Expected shape: gossip tracks the flooding curve's cost/coverage coupling\n\
             (an epidemic is a randomized flood) but buys latency with rounds\n\
             ({round_secs:.1}s each); GUESS still dominates on cost at equal satisfaction.\n\n"
        ))
        .text("Gossip (epidemic search):\n")
        .table(gossip_table)
        .text("\n")
        .text("Fixed extent (flooding baseline, identical to Figure 8):\n")
        .table(fixed_table)
        .text("\n")
        .text("GUESS (fine flexible extent, identical to Figure 8):\n")
        .table(guess_table)
}

/// The traced gossip configuration used by `repro --trace --engine
/// gossip`: zero warm-up so the report covers every query in the trace,
/// and the kernel sample tick on so the trace carries live-peer
/// snapshots.
#[must_use]
pub fn traced_config(scale: Scale, seed: u64) -> GossipConfig {
    forwarding_config::<GossipConfig>(scale, seed)
        .with_warmup(SimDuration::ZERO)
        .with_sample_interval(Some(SimDuration::from_secs(60.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_contains_all_three_mechanisms() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run(&ctx).render_text();
        assert!(out.contains("Gossip (epidemic search)"));
        assert!(out.contains("Fixed extent"));
        assert!(out.contains("GUESS Random"));
        assert!(out.contains("QueryPong=MFS"));
    }

    #[test]
    fn grid_covers_pull_sweep_and_has_unique_seeds() {
        let points = gossip_points(Scale::Full);
        assert!(points.iter().any(|&(_, _, p)| p == 0.0));
        assert!(points.iter().any(|&(_, _, p)| p == 0.6));
        let mut seeds: Vec<u64> = (0..points.len() as u64)
            .map(|i| derive_seed(SEED, "gossip-tradeoff", i))
            .collect();
        let before = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), before);
    }

    #[test]
    fn traced_configs_validate() {
        assert!(traced_config(Scale::Full, 1).validate().is_ok());
        assert!(traced_config(Scale::Quick, 1).validate().is_ok());
    }
}
