//! Hardened GUESS: the paper's future-work directions, switched on.
//!
//! Combines the adaptive ping interval (§6.1), adaptive parallel walks
//! (§6.2), and the pong-source reputation filter ([9]) and pits the
//! result against a hostile network — 20% colluding poisoners plus
//! selfish volley-senders — to see how much of the clean-network
//! efficiency survives.
//!
//! ```text
//! cargo run --release --example hardened_guess
//! ```

use guess_suite::guess::config::{BadPongBehavior, Config};
use guess_suite::guess::engine::GuessSim;
use guess_suite::guess::policy::SelectionPolicy;
use guess_suite::prelude::Runnable;

fn hostile(seed: u64) -> Config {
    let mut cfg = Config::default();
    cfg.system.bad_peer_fraction = 0.20;
    cfg.system.bad_pong_behavior = BadPongBehavior::Bad; // colluding
    cfg.system.selfish_fraction = 0.10;
    cfg.system.selfish_parallelism = 100;
    cfg.protocol = cfg.protocol.with_uniform_policy(SelectionPolicy::Mr);
    cfg.run.seed = seed;
    cfg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>12}",
        "configuration", "probes/query", "unsatisfied", "p95 resp(s)", "blacklisted"
    );
    println!("{}", "-".repeat(80));

    // Plain MR in a hostile network: the paper's Figure 19/20 collapse.
    let plain = GuessSim::new(hostile(1))?.run();
    print_row("MR, no defenses", &plain);

    // MR* only (the paper's own recommendation under attack).
    let mut star_cfg = hostile(2);
    star_cfg.protocol.reset_num_results = true;
    let star = GuessSim::new(star_cfg)?.run();
    print_row("MR* (paper's answer)", &star);

    // Full hardening: MR* + reputation filter + adaptive everything.
    let mut hard_cfg = hostile(3);
    hard_cfg.protocol.reset_num_results = true;
    hard_cfg.protocol.distrust_pongs = true;
    hard_cfg.protocol.adaptive_ping = true;
    hard_cfg.protocol.adaptive_parallelism = true;
    let hard = GuessSim::new(hard_cfg)?.run();
    print_row("MR* + filter + adaptive", &hard);

    // Clean-network reference.
    let mut clean_cfg = Config::default();
    clean_cfg.protocol = clean_cfg.protocol.with_uniform_policy(SelectionPolicy::Mr);
    let clean = GuessSim::new(clean_cfg)?.run();
    print_row("MR, clean network", &clean);

    println!();
    println!("The reputation filter spots attackers by their dead shares and drops");
    println!("their pongs; adaptive walks claw back the response-time tail; the");
    println!("combination recovers much of the clean-network behaviour that plain");
    println!("MR loses to collusion (paper Figures 19-21).");
    Ok(())
}

fn print_row(name: &str, report: &guess_suite::guess::RunReport) {
    println!(
        "{:<26} {:>12.1} {:>11.1}% {:>12.2} {:>12}",
        name,
        report.probes_per_query(),
        report.unsatisfaction() * 100.0,
        report.response_p95.unwrap_or(f64::NAN),
        report.counters.get("sources_blacklisted"),
    );
}
