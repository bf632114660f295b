//! Figure 8: the cost/quality tradeoff of flexible query extent.
//!
//! Three mechanisms are compared at N=1000 under the default workload:
//!
//! * **fixed extent** (Gnutella) — evaluated at every extent 1..1000;
//! * **iterative deepening** — coarse flexible extent (TTL schedules over
//!   an explicit overlay);
//! * **GUESS** — fine flexible extent, Random baseline and
//!   `QueryPong = MFS`.
//!
//! Paper reference points: GUESS Random ≈ (99 probes, 6 % unsat); GUESS
//! MFS ≈ (17 probes, 8 %); fixed extent needs ≈1000 probes for 6 % and
//! ≈540 for 8 % — over an order of magnitude worse.
//!
//! Parallelism note: the fixed-extent curve and the deepening schedules
//! draw from one shared RNG stream in a fixed order, so they form a
//! single sequential work unit; the two GUESS runs are independent
//! units and run alongside it.

use gnutella::iterative::{evaluate as iterative_evaluate, DeepeningPolicy};
use gnutella::{FixedExtentCurve, Topology};
use guess::engine::GuessSim;
use guess::policy::SelectionPolicy;
use guess::RunReport;
use simkit::rng::RngStream;
use workload::population::Population;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::{base_config, Scale};
use simkit::sim::Runnable;

enum Piece {
    Gnutella {
        fixed: TableBlock,
        notes: String,
        deepening: TableBlock,
    },
    Guess(RunReport),
}

/// The fixed-extent table of Figure 8 (the gossip tradeoff places its
/// points next to the same one), with what the rest of the figure goes
/// on to use: the curve, the population, and the `"fig8"` stream left
/// where the curve evaluation ends.
pub(crate) fn fixed_extent(
    scale: Scale,
    n: usize,
    seed: u64,
) -> (TableBlock, FixedExtentCurve, Population, RngStream) {
    let pop = Population::generate(n, workload::content::CatalogParams::default(), seed)
        .expect("valid population");
    let mut rng = RngStream::from_seed(seed, "fig8");
    let curve = FixedExtentCurve::evaluate(&pop, scale.curve_queries(), &mut rng);
    let mut fixed = TableBlock::new("fixed_extent", vec!["extent (probes)", "unsatisfied"]);
    let extents: Vec<usize> = [1, 2, 5, 10, 17, 50, 99, 200, 540, 1000]
        .iter()
        .copied()
        .filter(|&e| e <= n)
        .collect();
    for &e in &extents {
        fixed.row(vec![
            Cell::size(e),
            Cell::float(curve.unsatisfaction_at(e), 3),
        ]);
    }
    (fixed, curve, pop, rng)
}

fn gnutella_piece(scale: Scale, n: usize, seed: u64) -> Piece {
    let (fixed, curve, pop, mut rng) = fixed_extent(scale, n, seed);
    let mut notes = format!(
        "unsatisfiable floor (whole network): {:.3}\n",
        curve.unsatisfiable_fraction()
    );
    let floor = curve.unsatisfiable_fraction();
    if let Some(e) = curve.extent_for_unsatisfaction(floor + 0.005) {
        notes.push_str(&format!(
            "fixed extent needed to reach floor+0.5%: {e} probes\n"
        ));
    }
    if let Some(e) = curve.extent_for_unsatisfaction(floor + 0.02) {
        notes.push_str(&format!(
            "fixed extent needed to reach floor+2%:   {e} probes\n"
        ));
    }
    notes.push('\n');

    let mut topo_rng = RngStream::from_seed(seed, "fig8-topo");
    let topo = Topology::random_regular(n, 4, &mut topo_rng);
    let schedules: Vec<(&str, Vec<usize>)> = vec![
        ("ttl 2;4;7", vec![2, 4, 7]),
        ("ttl 1;2;3;4;5;7", vec![1, 2, 3, 4, 5, 7]),
        ("ttl 3;7", vec![3, 7]),
    ];
    let mut deepening = TableBlock::new(
        "iterative_deepening",
        vec!["schedule", "mean cost", "unsatisfied"],
    );
    for (name, ttls) in schedules {
        let policy = DeepeningPolicy::new(ttls).expect("valid schedule");
        let (cost, unsat) =
            iterative_evaluate(&topo, &pop, &policy, scale.curve_queries() / 4, 1, &mut rng);
        deepening.row(vec![
            Cell::text(name),
            Cell::float(cost, 1),
            Cell::float(unsat, 3),
        ]);
    }
    Piece::Gnutella {
        fixed,
        notes,
        deepening,
    }
}

/// One GUESS point of Figure 8: the base protocol with `query_pong`.
pub(super) fn guess_point(
    scale: Scale,
    n: usize,
    seed: u64,
    query_pong: SelectionPolicy,
) -> RunReport {
    let cfg = base_config(scale, seed)
        .with_network_size(n)
        .with_query_pong(query_pong);
    GuessSim::new(cfg).expect("valid config").run()
}

/// Runs the Figure 8 reproduction.
#[must_use]
pub fn run(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let seed = 0xf18u64;
    let mut pieces = ctx.map(vec![0usize, 1, 2], |i| match i {
        0 => gnutella_piece(scale, n, seed),
        1 => Piece::Guess(guess_point(scale, n, seed, SelectionPolicy::Random)),
        _ => Piece::Guess(guess_point(scale, n, seed, SelectionPolicy::Mfs)),
    });
    let (
        Piece::Gnutella {
            fixed,
            notes,
            deepening,
        },
        Piece::Guess(random),
        Piece::Guess(mfs),
    ) = (pieces.remove(0), pieces.remove(0), pieces.remove(0))
    else {
        unreachable!("map preserves item order");
    };

    let mut guess_table = TableBlock::new(
        "guess",
        vec![
            "config",
            "probes/query",
            "unsatisfied",
            "paper probes",
            "paper unsat",
        ],
    );
    guess_table.row(vec![
        Cell::text("GUESS Random (o)"),
        Cell::float(random.probes_per_query(), 1),
        Cell::float(random.unsatisfaction(), 3),
        Cell::uint(99u64),
        Cell::float(0.06, 2),
    ]);
    guess_table.row(vec![
        Cell::text("GUESS QueryPong=MFS (x)"),
        Cell::float(mfs.probes_per_query(), 1),
        Cell::float(mfs.unsatisfaction(), 3),
        Cell::uint(17u64),
        Cell::float(0.08, 2),
    ]);

    Report::new()
        .text(format!(
            "Figure 8 — unsatisfaction vs average query cost (N={n})\n\
             Expected shape: GUESS dominates; iterative deepening sits between GUESS and\n\
             fixed extent; fixed extent needs nearly the whole network for low unsatisfaction.\n\n"
        ))
        .text("Fixed extent (Gnutella):\n")
        .table(fixed)
        .text(notes)
        .text("Iterative deepening (coarse flexible extent):\n")
        .table(deepening)
        .text("\n")
        .text("GUESS (fine flexible extent):\n")
        .table(guess_table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_contains_all_mechanisms() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run(&ctx).render_text();
        assert!(out.contains("Fixed extent"));
        assert!(out.contains("Iterative deepening"));
        assert!(out.contains("GUESS Random"));
        assert!(out.contains("QueryPong=MFS"));
    }
}
