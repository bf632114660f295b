//! GUESS vs Gnutella: the Figure 8 cost/quality tradeoff, at a scale that
//! runs in seconds.
//!
//! Three mechanisms search the *same* 1000-peer content population:
//! fixed-extent flooding (Gnutella), iterative deepening, and GUESS with
//! fine-grained flexible extent.
//!
//! ```text
//! cargo run --release --example guess_vs_gnutella
//! ```

use guess_suite::gnutella::iterative::{evaluate, DeepeningPolicy};
use guess_suite::gnutella::{FixedExtentCurve, Topology};
use guess_suite::guess::config::Config;
use guess_suite::guess::engine::GuessSim;
use guess_suite::guess::policy::SelectionPolicy;
use guess_suite::prelude::Runnable;
use guess_suite::simkit::rng::RngStream;
use guess_suite::workload::content::CatalogParams;
use guess_suite::workload::population::Population;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1000;
    let pop = Population::generate(n, CatalogParams::default(), 88)?;
    let mut rng = RngStream::from_seed(88, "example");

    println!("mechanism                         avg cost (probes)   unsatisfied");
    println!("{}", "-".repeat(66));

    // Gnutella: fixed extent. One pass gives the entire tradeoff curve.
    let curve = FixedExtentCurve::evaluate(&pop, 2000, &mut rng);
    for extent in [50, 200, 540, 1000] {
        println!(
            "Gnutella fixed extent E={extent:<6} {:>12}        {:>10.1}%",
            extent,
            curve.unsatisfaction_at(extent) * 100.0
        );
    }

    // Iterative deepening over an explicit 4-regular overlay.
    let topo = Topology::random_regular(n, 4, &mut rng);
    let policy = DeepeningPolicy::new(vec![2, 4, 7])?;
    let (cost, unsat) = evaluate(&topo, &pop, &policy, 500, 1, &mut rng);
    println!(
        "iterative deepening ttl=2;4;7  {cost:>12.1}        {:>10.1}%",
        unsat * 100.0
    );

    // GUESS, Random baseline and the cheap MFS configuration.
    let cfg = Config::default();
    let random = GuessSim::new(cfg.clone())?.run();
    println!(
        "GUESS (Random policies)        {:>12.1}        {:>10.1}%",
        random.probes_per_query(),
        random.unsatisfaction() * 100.0
    );
    let mut mfs = cfg;
    mfs.protocol.query_pong = SelectionPolicy::Mfs;
    let mfs_report = GuessSim::new(mfs)?.run();
    println!(
        "GUESS (QueryPong=MFS)          {:>12.1}        {:>10.1}%",
        mfs_report.probes_per_query(),
        mfs_report.unsatisfaction() * 100.0
    );

    println!();
    println!("The non-forwarding mechanism reaches the same satisfaction as a");
    println!("whole-network flood at a fraction of the probes — over an order of");
    println!("magnitude less with a good pong policy (paper §6.2, Figure 8).");
    Ok(())
}
