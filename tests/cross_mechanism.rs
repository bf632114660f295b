//! Cross-crate integration: GUESS and the forwarding baselines evaluated
//! on the same content model (the Figure 8 comparison, small scale).

use guess_suite::gnutella::iterative::{evaluate, DeepeningPolicy};
use guess_suite::gnutella::{FixedExtentCurve, Topology};
use guess_suite::guess::config::Config;
use guess_suite::guess::engine::GuessSim;
use guess_suite::guess::policy::SelectionPolicy;
use guess_suite::simkit::rng::RngStream;
use guess_suite::simkit::time::SimDuration;
use guess_suite::workload::content::CatalogParams;
use guess_suite::workload::population::Population;
use simkit::sim::Runnable;

const N: usize = 300;

fn guess_cfg(seed: u64) -> Config {
    let mut cfg = Config::small_test(seed);
    cfg.system.network_size = N;
    cfg.protocol.cache_size = 60;
    cfg.run.duration = SimDuration::from_secs(600.0);
    cfg.run.warmup = SimDuration::from_secs(150.0);
    cfg
}

#[test]
fn guess_dominates_fixed_extent() {
    // GUESS with a decent pong policy.
    let mut cfg = guess_cfg(31);
    cfg.protocol.query_pong = SelectionPolicy::Mfs;
    let guess = GuessSim::new(cfg).unwrap().run();

    // The fixed-extent mechanism on an equivalent population.
    let pop = Population::generate(N, CatalogParams::default(), 31).unwrap();
    let mut rng = RngStream::from_seed(31, "cross");
    let curve = FixedExtentCurve::evaluate(&pop, 1500, &mut rng);

    // At GUESS's average cost, fixed extent leaves far more unsatisfied.
    let budget = guess.probes_per_query().ceil() as usize;
    let fixed_unsat = curve.unsatisfaction_at(budget);
    assert!(
        fixed_unsat > guess.unsatisfaction() + 0.05,
        "at a budget of {budget} probes, fixed extent ({fixed_unsat:.3}) must trail \
         GUESS ({:.3})",
        guess.unsatisfaction()
    );

    // Conversely, matching GUESS's satisfaction costs fixed extent far more.
    if let Some(needed) = curve.extent_for_unsatisfaction(guess.unsatisfaction()) {
        assert!(
            (needed as f64) > 3.0 * guess.probes_per_query(),
            "fixed extent needs {needed} probes where GUESS spends {:.1}",
            guess.probes_per_query()
        );
    }
}

#[test]
fn iterative_deepening_sits_between() {
    let pop = Population::generate(N, CatalogParams::default(), 32).unwrap();
    let mut rng = RngStream::from_seed(32, "cross");
    let topo = Topology::random_regular(N, 4, &mut rng);
    let policy = DeepeningPolicy::new(vec![1, 2, 4, 6]).unwrap();
    let (iter_cost, iter_unsat) = evaluate(&topo, &pop, &policy, 600, 1, &mut rng);

    let curve = FixedExtentCurve::evaluate(&pop, 1500, &mut rng);
    // Fixed extent at the deepening's satisfaction level costs more than
    // the deepening itself (coarse flexibility already helps)...
    if let Some(fixed_needed) = curve.extent_for_unsatisfaction(iter_unsat + 0.01) {
        assert!(
            (fixed_needed as f64) > iter_cost * 0.8,
            "deepening (cost {iter_cost:.0}, unsat {iter_unsat:.3}) should not be \
             dominated by fixed extent ({fixed_needed})"
        );
    }

    // ...while fine-grained GUESS still beats the deepening on cost at
    // comparable satisfaction.
    let mut cfg = guess_cfg(32);
    cfg.protocol.query_pong = SelectionPolicy::Mfs;
    let guess = GuessSim::new(cfg).unwrap().run();
    assert!(
        guess.probes_per_query() < iter_cost,
        "GUESS ({:.1} probes) should undercut iterative deepening ({iter_cost:.1})",
        guess.probes_per_query()
    );
}

#[test]
fn shared_catalog_gives_equivalent_floors() {
    // The unsatisfiable floor is a property of the content model, so the
    // static population and the churning simulation should land close.
    let pop = Population::generate(1000, CatalogParams::default(), 33).unwrap();
    let mut rng = RngStream::from_seed(33, "cross");
    let curve = FixedExtentCurve::evaluate(&pop, 2000, &mut rng);
    let floor = curve.unsatisfiable_fraction();
    assert!(
        (0.01..0.12).contains(&floor),
        "calibrated floor should be near the paper's ~6%, got {floor:.3}"
    );
}
