//! Extension experiments — beyond the paper's figures, exercising the
//! directions its discussion sections sketch:
//!
//! * `selfish` — §3.3's selfish peers, who fire huge probe volleys;
//! * `adaptive` — §6.1's runtime ping-interval adjustment and §6.2's
//!   adaptive parallel walks (explicitly left to future work);
//! * `defense` — the pong-source reputation filter against cache
//!   poisoning (the direction of Daswani & Garcia-Molina \[9\]);
//! * `fragmentation` — §3.3's fragmentation attack on power-law vs
//!   degree-limited overlays (a single sequential work unit: the attack
//!   grid draws from one shared RNG stream in a fixed order).

use gnutella::dynamic::{GnutellaConfig, GnutellaReport, GnutellaSim};
use gnutella::fragmentation::{attack, AttackStrategy};
use gnutella::Topology;
use gossip::{Config as GossipConfig, GossipReport, GossipSim};
use guess::config::BadPongBehavior;
use guess::engine::GuessSim;
use guess::payments::PaymentParams;
use guess::policy::SelectionPolicy;
use guess::RunReport;
use simkit::rng::RngStream;
use simkit::time::SimDuration;

use crate::report::{Cell, Report, TableBlock};
use crate::runner::Ctx;
use crate::scale::{base_config, forwarding_config, Scale};
use simkit::sim::Runnable;

/// Selfish-peer study: response time for the selfish, load for everyone.
#[must_use]
pub fn run_selfish(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let items: Vec<(usize, f64)> = [0.0f64, 0.1, 0.3, 0.5]
        .iter()
        .copied()
        .enumerate()
        .collect();
    let rows = ctx.map(items, |(i, frac)| {
        // MR concentrates probes on productive peers, so capacity limits
        // actually bind — the regime where selfish volleys hurt others.
        let cfg = base_config(scale, 0x5e1f + i as u64)
            .with_network_size(scale.default_network())
            .with_uniform_policy(SelectionPolicy::Mr)
            .with_max_probes_per_second(Some(5))
            .with_selfish(frac, 100);
        let report = GuessSim::new(cfg).expect("valid config").run();
        vec![
            Cell::float(frac * 100.0, 0),
            Cell::float(report.refused_per_query(), 2),
            Cell::float(report.unsatisfaction(), 3),
            Cell::float(report.mean_response_secs(), 2),
            Cell::uint(report.loads.first().copied().unwrap_or(0)),
        ]
    });
    let mut table = TableBlock::new(
        "selfish",
        vec![
            "% selfish",
            "refused/query",
            "unsatisfied",
            "mean response (s)",
            "top-peer load",
        ],
    );
    for row in rows {
        table.row(row);
    }
    Report::new()
        .text(
            "EXTENSION — selfish peers (§3.3): volleys of 100 parallel probes\n\
             Expected shape: response time collapses as selfishness spreads (each selfish\n\
             peer helps itself), while refusals and hot-peer load climb — the tragedy of\n\
             the commons the paper predicts, motivating probe payments.\n\n",
        )
        .table(table)
}

/// Adaptive maintenance & walks vs the fixed protocol.
#[must_use]
pub fn run_adaptive(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();

    // Part 1: ping-interval adaptation under churn (queries off).
    let ping_modes: Vec<(&'static str, bool, f64)> = vec![
        ("fixed 30s", false, 30.0),
        ("fixed 120s", false, 120.0),
        ("adaptive [5s,300s]", true, 120.0),
    ];
    let ping_rows = ctx.map(ping_modes, |(name, adaptive, fixed_secs)| {
        let cfg = base_config(scale, 0xada)
            .with_network_size(n)
            .with_lifespan_multiplier(0.2)
            .with_queries(false)
            .with_ping_interval(SimDuration::from_secs(fixed_secs))
            .with_adaptive_ping(adaptive);
        let report = GuessSim::new(cfg).expect("valid config").run();
        vec![
            Cell::text(name),
            Cell::uint(report.counters.get("pings_sent")),
            Cell::float(report.live_fraction.unwrap_or(f64::NAN), 3),
            Cell::float(report.largest_component.unwrap_or(f64::NAN), 0),
        ]
    });
    let mut ping_table = TableBlock::new(
        "ping_adaptation",
        vec!["ping mode", "pings sent", "frac live", "LCC"],
    );
    for row in ping_rows {
        ping_table.row(row);
    }

    // Part 2: adaptive walk widening vs fixed k.
    let walk_modes: Vec<(&'static str, usize, bool)> = vec![
        ("serial k=1", 1usize, false),
        ("fixed k=5", 5, false),
        ("adaptive (x2 after 10 dry)", 1, true),
    ];
    let walk_rows = ctx.map(walk_modes, |(name, k, adaptive)| {
        let cfg = base_config(scale, 0xadb)
            .with_network_size(n)
            .with_query_pong(SelectionPolicy::Mfs)
            .with_parallel_probes(k)
            .with_adaptive_parallelism(adaptive);
        let report = GuessSim::new(cfg).expect("valid config").run();
        vec![
            Cell::text(name),
            Cell::float(report.probes_per_query(), 1),
            Cell::float(report.mean_response_secs(), 2),
            Cell::float(report.response_p95.unwrap_or(f64::NAN), 2),
        ]
    });
    let mut walk_table = TableBlock::new(
        "walk_widening",
        vec![
            "walk mode",
            "probes/query",
            "response mean (s)",
            "response p95 (s)",
        ],
    );
    for row in walk_rows {
        walk_table.row(row);
    }

    Report::new()
        .text("EXTENSION — adaptive mechanisms the paper defers to future work\n\n")
        .text("Ping-interval adaptation (heavy churn, queries off):\n")
        .table(ping_table)
        .text("\n")
        .text("Walk widening (QueryPong=MFS):\n")
        .table(walk_table)
        .text(
            "\nAdaptive widening keeps the average cost near serial probing while\n\
             cutting the tail response time that makes rare-item searches painful.\n",
        )
}

/// Pong-source reputation vs cache poisoning.
#[must_use]
pub fn run_defense(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let mut grid = Vec::new();
    for (pi, (pname, policy)) in [("MFS", SelectionPolicy::Mfs), ("MR", SelectionPolicy::Mr)]
        .into_iter()
        .enumerate()
    {
        for (fi, filter) in [false, true].into_iter().enumerate() {
            grid.push((pi, fi, pname, policy, filter));
        }
    }
    let rows = ctx.map(grid, |(pi, fi, pname, policy, filter)| {
        let cfg = base_config(scale, 0xdef + (pi * 2 + fi) as u64)
            .with_network_size(n)
            .with_bad_peers(0.20, BadPongBehavior::Dead)
            .with_uniform_policy(policy)
            .with_distrust_pongs(filter);
        let report = GuessSim::new(cfg).expect("valid config").run();
        vec![
            Cell::text(pname),
            Cell::text(if filter { "on" } else { "off" }),
            Cell::float(report.probes_per_query(), 1),
            Cell::float(report.unsatisfaction(), 3),
            Cell::float(report.good_entries.unwrap_or(f64::NAN), 1),
            Cell::uint(report.counters.get("sources_blacklisted")),
        ]
    });
    let mut table = TableBlock::new(
        "defense",
        vec![
            "policy",
            "pong filter",
            "probes/query",
            "unsatisfied",
            "good entries",
            "blacklisted",
        ],
    );
    for row in rows {
        table.row(row);
    }
    Report::new()
        .text(
            "EXTENSION — pong-source reputation filter vs 20% poisoners (BadPong=Dead)\n\
             Expected shape: the filter blacklists attackers after a handful of dead\n\
             shares, restoring much of MFS's clean-network efficiency.\n\n",
        )
        .table(table)
}

/// Fragmentation attack on overlay topologies.
#[must_use]
pub fn run_fragmentation(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = match scale {
        Scale::Full => 5000,
        Scale::Quick => 1000,
    };
    // The whole grid draws from one RNG stream in a fixed order, so it
    // runs as a single sequential unit under one permit.
    let table = ctx.compute(|| {
        let mut rng = RngStream::from_seed(0xf4a6, "fragmentation");
        let power_law = Topology::preferential_attachment(n, 2, &mut rng);
        let limited = Topology::random_regular(n, 2, &mut rng);
        let victims: Vec<usize> = [0.0f64, 0.01, 0.02, 0.05, 0.10]
            .iter()
            .map(|f| (f * n as f64) as usize)
            .collect();
        let mut table = TableBlock::new(
            "fragmentation",
            vec!["topology", "strategy", "% removed", "cohesion"],
        );
        for (tname, topo) in [("power-law", &power_law), ("degree-limited", &limited)] {
            for strategy in [AttackStrategy::HighestDegree, AttackStrategy::Random] {
                for &v in &victims {
                    let out = attack(topo, strategy, v, &mut rng);
                    let sname = match strategy {
                        AttackStrategy::HighestDegree => "targeted",
                        AttackStrategy::Random => "random",
                    };
                    table.row(vec![
                        Cell::text(tname),
                        Cell::text(sname),
                        Cell::float(v as f64 / n as f64 * 100.0, 0),
                        Cell::float(out.cohesion(), 3),
                    ]);
                }
            }
        }
        table
    });
    Report::new()
        .text(format!(
            "EXTENSION — fragmentation attacks (§3.3), N={n}\n\
             Expected shape: targeted hub removal shatters the power-law overlay while\n\
             the degree-limited overlay degrades gracefully; random failures barely\n\
             dent either — the paper's argument for simple connection limits.\n\n"
        ))
        .table(table)
}

/// Probe payments vs selfish volleys.
#[must_use]
pub fn run_payments(ctx: &Ctx) -> Report {
    let scale = ctx.scale();
    let n = scale.default_network();
    let mut grid = Vec::new();
    for (i, &selfish) in [0.0f64, 0.4].iter().enumerate() {
        for (j, payments) in [None, Some(PaymentParams::default())]
            .into_iter()
            .enumerate()
        {
            grid.push((i, j, selfish, payments));
        }
    }
    let rows = ctx.map(grid, |(i, j, selfish, payments)| {
        let cfg = base_config(scale, 0x9a9 + (i * 2 + j) as u64)
            .with_network_size(n)
            .with_uniform_policy(SelectionPolicy::Mr)
            .with_max_probes_per_second(Some(5))
            .with_selfish(selfish, 100)
            .with_probe_payments(payments);
        let report = GuessSim::new(cfg).expect("valid config").run();
        vec![
            Cell::text(if payments.is_some() { "paid" } else { "free" }),
            Cell::float(selfish * 100.0, 0),
            Cell::float(report.probes_per_query(), 1),
            Cell::float(report.mean_response_secs(), 2),
            Cell::float(report.unsatisfaction(), 3),
            Cell::uint(report.counters.get("probe_budget_exhausted")),
        ]
    });
    let mut table = TableBlock::new(
        "payments",
        vec![
            "economy",
            "% selfish",
            "probes/query",
            "response (s)",
            "unsatisfied",
            "budget-outs",
        ],
    );
    for row in rows {
        table.row(row);
    }
    Report::new()
        .text(
            "EXTENSION — probe payments (§3.3, after PPay [23])\n\
             Expected shape: probing now has a price — volley senders exhaust their\n\
             credit (budget-outs > 0), which removes the selfish response-time freebie;\n\
             honest traffic is funded comfortably by the allowance.\n\n",
        )
        .table(table)
}

/// The engine comparisons' runs on one workload, one work unit per
/// seed: GUESS with QueryPong=MFS, dynamic Gnutella (same content,
/// churn and query models) and, given a third seed, gossip.
fn mechanisms(ctx: &Ctx, seeds: &[u64]) -> (RunReport, GnutellaReport, Option<GossipReport>) {
    enum Side {
        Guess(Box<RunReport>),
        Gnutella(Box<GnutellaReport>),
        Gossip(Box<GossipReport>),
    }
    let scale = ctx.scale();
    let work = seeds.iter().copied().enumerate().collect();
    let sides = ctx.map(work, |(i, seed)| match i {
        0 => {
            let cfg = base_config(scale, seed)
                .with_network_size(scale.default_network())
                .with_query_pong(SelectionPolicy::Mfs);
            Side::Guess(Box::new(GuessSim::new(cfg).expect("valid config").run()))
        }
        1 => {
            let sim = GnutellaSim::new(forwarding_config(scale, seed)).expect("valid config");
            Side::Gnutella(Box::new(sim.run()))
        }
        _ => {
            let sim = GossipSim::new(forwarding_config(scale, seed)).expect("valid config");
            Side::Gossip(Box::new(sim.run()))
        }
    });
    let mut sides = sides.into_iter();
    let (Some(Side::Guess(guess)), Some(Side::Gnutella(gnutella))) = (sides.next(), sides.next())
    else {
        unreachable!("map preserves item order");
    };
    let gossip = sides.next().map(|side| {
        let Side::Gossip(report) = side else {
            unreachable!("map preserves item order");
        };
        *report
    });
    (*guess, *gnutella, gossip)
}

/// The rows both comparisons share: query cost, unsatisfaction and
/// maintenance messages (a GUESS ping costs a ping and a pong).
fn mechanism_rows(guess: &RunReport, gnutella: &GnutellaReport) -> [Vec<Cell>; 2] {
    [
        vec![
            Cell::text("GUESS (QueryPong=MFS)"),
            Cell::float(guess.probes_per_query(), 1),
            Cell::float(guess.unsatisfaction(), 3),
            Cell::uint(guess.counters.get("pings_sent") * 2),
        ],
        vec![
            Cell::text("Gnutella flood ttl=7"),
            Cell::float(gnutella.messages_per_query(), 1),
            Cell::float(gnutella.unsatisfaction(), 3),
            Cell::uint(gnutella.counters.get("connect_messages")),
        ],
    ]
}

/// GUESS vs a churn-aware Gnutella overlay on identical workloads.
#[must_use]
pub fn run_forwarding(ctx: &Ctx) -> Report {
    let (guess, gnutella, _) = mechanisms(ctx, &[0xf0d, GnutellaConfig::default().seed]);
    let mut table = TableBlock::new(
        "forwarding",
        vec![
            "mechanism",
            "query cost (msgs)",
            "unsatisfied",
            "maintenance msgs",
        ],
    );
    for row in mechanism_rows(&guess, &gnutella) {
        table.row(row);
    }
    Report::new()
        .text("EXTENSION — §3.2/§3.3 quantified: GUESS vs dynamic Gnutella on one workload\n\n")
        .table(table)
        .text(format!(
            "\nGnutella reaches {:.0} peers/query; a single malicious query thus costs\n\
             the network {:.0} messages for ~{} sent by the attacker — the amplification\n\
             of §3.3. GUESS probes cost the attacker one message each (amplification 1),\n\
             but Gnutella's maintenance traffic is far lower ({} vs {} messages):\n\
             the paper's efficiency-vs-state tradeoff, quantified.\n",
            gnutella.peers_reached.mean(),
            gnutella.messages_per_query(),
            GnutellaConfig::default().target_degree,
            gnutella.counters.get("connect_messages"),
            guess.counters.get("pings_sent") * 2,
        ))
}

/// Three-way amplification/maintenance comparison: GUESS probing vs
/// Gnutella flooding vs epidemic gossip on identical workloads. Extends
/// `forwarding` with the third mechanism class; a fresh experiment (own
/// seeds) so the two-way report stays byte-identical.
#[must_use]
pub fn run_forwarding3(ctx: &Ctx) -> Report {
    let (guess, gnutella, gossip) = mechanisms(ctx, &[0xf0d3; 3]);
    let gossip = gossip.expect("three seeds run gossip");

    // Per-query messages the *originator* itself sends: every GUESS
    // probe, one flood message per neighbor, one push per gossip fanout.
    // Query cost over that is the attack amplification of §3.3.
    let guess_sent = guess.probes_per_query();
    let gnutella_sent = GnutellaConfig::default().target_degree as f64;
    let gossip_sent = GossipConfig::default().fanout as f64;

    let mut table = TableBlock::new(
        "forwarding3",
        vec![
            "mechanism",
            "query cost (msgs)",
            "unsatisfied",
            "maintenance msgs",
            "amplification",
        ],
    );
    let [mut guess_row, mut gnutella_row] = mechanism_rows(&guess, &gnutella);
    guess_row.push(Cell::float(1.0, 1));
    gnutella_row.push(Cell::float(
        gnutella.messages_per_query() / gnutella_sent,
        1,
    ));
    table.row(guess_row);
    table.row(gnutella_row);
    table.row(vec![
        Cell::text("Gossip push/pull"),
        Cell::float(gossip.messages_per_query(), 1),
        Cell::float(gossip.unsatisfaction(), 3),
        Cell::uint(0u64),
        Cell::float(gossip.messages_per_query() / gossip_sent, 1),
    ]);
    Report::new()
        .text(
            "EXTENSION — three-way §3.2/§3.3 comparison on one workload:\n\
             cache-directed probing vs flooding vs epidemic spread\n\n",
        )
        .table(table)
        .text(format!(
            "\nAmplification is the network-wide cost of one query over the {:.1}\n\
             messages its originator sends (GUESS probes all come from the\n\
             originator, so its amplification is 1 by construction). Gossip pays\n\
             no maintenance here — rumor targets come from a membership oracle,\n\
             not per-peer overlay state — but each query recruits the whole\n\
             epidemic ({:.0} messages), sitting between GUESS ({:.1}) and the\n\
             flood ({:.1}) on per-query cost.\n",
            guess_sent,
            gossip.messages_per_query(),
            guess.probes_per_query(),
            gnutella.messages_per_query(),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding3_report_has_all_three_rows() {
        let ctx = Ctx::new(Scale::Quick, 3);
        let out = run_forwarding3(&ctx).render_text();
        assert!(out.contains("GUESS"));
        assert!(out.contains("Gnutella flood"));
        assert!(out.contains("Gossip push/pull"));
        assert!(out.contains("amplification"));
    }

    #[test]
    fn payments_report_renders() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run_payments(&ctx).render_text();
        assert!(out.contains("budget-outs"));
        assert!(out.contains("paid"));
        assert!(out.contains("free"));
    }

    #[test]
    fn forwarding_report_compares_mechanisms() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run_forwarding(&ctx).render_text();
        assert!(out.contains("GUESS"));
        assert!(out.contains("Gnutella flood"));
        assert!(out.contains("maintenance"));
    }

    #[test]
    fn selfish_report_renders() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run_selfish(&ctx).render_text();
        assert!(out.contains("% selfish"));
        assert!(out.lines().filter(|l| l.contains('.')).count() >= 4);
    }

    #[test]
    fn adaptive_report_covers_both_parts() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run_adaptive(&ctx).render_text();
        assert!(out.contains("Ping-interval adaptation"));
        assert!(out.contains("Walk widening"));
        assert!(out.contains("adaptive"));
    }

    #[test]
    fn defense_report_shows_filter_column() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run_defense(&ctx).render_text();
        assert!(out.contains("pong filter"));
        assert!(out.contains("blacklisted"));
    }

    #[test]
    fn fragmentation_report_compares_topologies() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let out = run_fragmentation(&ctx).render_text();
        assert!(out.contains("power-law"));
        assert!(out.contains("degree-limited"));
        assert!(out.contains("targeted"));
    }
}
