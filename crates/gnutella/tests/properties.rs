//! Property-style tests for the forwarding baselines.
//!
//! Driven by `RngStream` instead of proptest (offline build environment):
//! each test runs many randomized cases from a fixed seed.

use gnutella::fixed::FixedExtentCurve;
use gnutella::iterative::{iterative_deepening, DeepeningOutcome, DeepeningPolicy};
use gnutella::topology::Topology;
use gnutella::wavefront::{advance, VisitTable};
use simkit::rng::RngStream;
use workload::content::CatalogParams;
use workload::population::Population;

fn small_catalog() -> CatalogParams {
    CatalogParams {
        items: 1500,
        ..CatalogParams::default()
    }
}

/// Generated topologies have no self loops and symmetric adjacency.
#[test]
fn topologies_are_simple_and_symmetric() {
    let mut gen = RngStream::from_seed(0x31, "cases");
    for _ in 0..24 {
        let n = 10 + gen.below(140);
        let k = (1 + gen.below(5)).min(n - 1);
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let t = Topology::random_regular(n, k, &mut rng);
        for u in 0..n {
            for &v in t.neighbors(u) {
                assert_ne!(v as usize, u, "self loop");
                assert!(
                    t.neighbors(v as usize).contains(&(u as u32)),
                    "asymmetric edge"
                );
            }
        }
    }
}

/// BFS reach grows monotonically with TTL and never exceeds n.
#[test]
fn bfs_reach_monotone() {
    let mut gen = RngStream::from_seed(0x32, "cases");
    for _ in 0..24 {
        let n = 10 + gen.below(190);
        let src = gen.below(n);
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let t = Topology::random_regular(n, 3, &mut rng);
        let mut last = 0;
        for ttl in 0..10 {
            let reach = t.bfs_within(src, ttl).len();
            assert!(reach >= last);
            assert!(reach <= n);
            last = reach;
        }
    }
}

/// The fixed-extent unsatisfaction curve is non-increasing and ends at the
/// unsatisfiable floor.
#[test]
fn fixed_extent_curve_monotone() {
    let mut gen = RngStream::from_seed(0x34, "cases");
    for _ in 0..24 {
        let n = 20 + gen.below(130);
        let seed = gen.next_u64();
        let pop = Population::generate(n, small_catalog(), seed).unwrap();
        let mut rng = RngStream::from_seed(seed, "prop");
        let curve = FixedExtentCurve::evaluate(&pop, 150, &mut rng);
        let mut last = 1.0f64;
        for e in 0..=n {
            let u = curve.unsatisfaction_at(e);
            assert!(u <= last + 1e-12);
            last = u;
        }
        assert!((curve.unsatisfaction_at(n) - curve.unsatisfiable_fraction()).abs() < 1e-12);
    }
}

/// Runs a whole TTL flood through the wavefront hop loop — the same
/// frontier/`advance` structure the dynamic engine drives one kernel
/// event per hop — and returns the discovery order (peer, hop depth)
/// plus the total message count.
fn wavefront_flood(
    topo: &Topology,
    src: usize,
    ttl: usize,
    visits: &mut VisitTable,
) -> (Vec<(usize, usize)>, u64) {
    let token = visits.token();
    visits.visit(src as u32, token);
    let mut order = vec![(src, 0usize)];
    let mut frontier = vec![src as u32];
    let mut next = Vec::new();
    let mut messages = 0u64;
    for hop in 1..=ttl {
        next.clear();
        messages += advance(
            &frontier,
            &mut next,
            visits,
            token,
            |u| topo.neighbors(u as usize),
            |v, first| {
                if first {
                    order.push((v as usize, hop));
                }
            },
        );
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            break;
        }
    }
    (order, messages)
}

/// The wavefront loop reproduces the `bfs_within` oracle exactly on
/// every generator family: same peers, same hop counts, same discovery
/// order. Its message count equals the degree sum of the expanded peers
/// (everyone at depth < TTL forwards to all neighbors).
#[test]
fn wavefront_matches_bfs_oracle() {
    let mut gen = RngStream::from_seed(0x36, "cases");
    for case in 0..36 {
        let n = 12 + gen.below(140);
        let src = gen.below(n);
        let ttl = gen.below(9);
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let topo = match case % 3 {
            0 => Topology::random_regular(n, 1 + gen.below(4), &mut rng),
            1 => Topology::erdos_renyi(n, 0.05, &mut rng),
            _ => Topology::preferential_attachment(n, 2, &mut rng),
        };
        let mut visits = VisitTable::new(n);
        let (order, messages) = wavefront_flood(&topo, src, ttl, &mut visits);
        let oracle = topo.bfs_within(src, ttl);
        assert_eq!(order, oracle, "case {case}: discovery order diverged");
        let expected: u64 = oracle
            .iter()
            .filter(|&&(_, d)| d < ttl)
            .map(|&(u, _)| topo.degree(u) as u64)
            .sum();
        assert_eq!(messages, expected, "case {case}: message tally diverged");
    }
}

/// Recycling one `VisitTable` across consecutive floods (a fresh token
/// per query, as the engine's slab does) leaves no stale stamps: every
/// query matches a run with a brand-new table.
#[test]
fn stamp_reuse_matches_fresh_tables() {
    let mut gen = RngStream::from_seed(0x37, "cases");
    for _ in 0..12 {
        let n = 20 + gen.below(120);
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let topo = Topology::random_regular(n, 3, &mut rng);
        let mut shared = VisitTable::new(n);
        for q in 0..8 {
            let src = gen.below(n);
            let ttl = gen.below(7);
            let reused = wavefront_flood(&topo, src, ttl, &mut shared);
            let from_fresh = wavefront_flood(&topo, src, ttl, &mut VisitTable::new(n));
            assert_eq!(reused, from_fresh, "query {q}: recycled stamps leaked");
        }
    }
}

/// Iterative deepening as a fresh `bfs_within` flood per TTL step —
/// the oracle the wavefront formulation must match.
fn deepening_oracle(
    topo: &Topology,
    pop: &Population,
    policy: &DeepeningPolicy,
    src: usize,
    target: workload::query::QueryTarget,
    desired: usize,
) -> DeepeningOutcome {
    let mut out = DeepeningOutcome {
        probe_cost: 0,
        iterations: 0,
        results: 0,
        satisfied: false,
    };
    for &ttl in policy.ttls() {
        let reached = topo.bfs_within(src, ttl);
        out.iterations += 1;
        out.probe_cost += reached.len() - 1;
        out.results = reached
            .iter()
            .filter(|&&(u, _)| u != src && pop.answers(u, target))
            .count();
        out.satisfied = out.results >= desired;
        if out.satisfied {
            break;
        }
    }
    out
}

/// The wavefront deepening returns exactly the oracle's outcome on every
/// generator family, for random schedules, sources and result targets
/// (TTLs past the graph's depth included).
#[test]
fn deepening_matches_bfs_oracle() {
    let mut gen = RngStream::from_seed(0x38, "cases");
    let mut outcomes = [0usize; 2];
    for case in 0..36 {
        let n = 20 + gen.below(130);
        let seed = gen.next_u64();
        let mut rng = RngStream::from_seed(seed, "prop");
        let topo = match case % 3 {
            0 => Topology::random_regular(n, 1 + gen.below(3), &mut rng),
            1 => Topology::erdos_renyi(n, 0.03, &mut rng),
            _ => Topology::preferential_attachment(n, 2, &mut rng),
        };
        let pop = Population::generate(n, small_catalog(), seed).unwrap();
        let mut ttls = Vec::new();
        let mut ttl = 0;
        for _ in 0..1 + gen.below(4) {
            ttl += 1 + gen.below(4);
            ttls.push(ttl);
        }
        let policy = DeepeningPolicy::new(ttls).unwrap();
        for _ in 0..4 {
            let src = gen.below(n);
            let target = pop.sample_target(&mut rng);
            let desired = 1 + gen.below(4);
            let out = iterative_deepening(&topo, &pop, &policy, src, target, desired);
            assert_eq!(
                out,
                deepening_oracle(&topo, &pop, &policy, src, target, desired),
                "case {case}: src {src}, schedule {:?}, desired {desired}",
                policy.ttls()
            );
            outcomes[usize::from(out.satisfied)] += 1;
        }
    }
    assert!(
        outcomes.iter().all(|&k| k > 0),
        "cases must cover satisfied and unsatisfied queries: {outcomes:?}"
    );
}

/// Iterative deepening never reports success without enough results, and
/// its cost is the sum of ring sizes up to the stopping iteration.
#[test]
fn deepening_accounting() {
    let mut gen = RngStream::from_seed(0x35, "cases");
    for _ in 0..24 {
        let n = 20 + gen.below(100);
        let seed = gen.next_u64();
        let mut rng = RngStream::from_seed(seed, "prop");
        let topo = Topology::random_regular(n, 3, &mut rng);
        let pop = Population::generate(n, small_catalog(), seed).unwrap();
        let policy = DeepeningPolicy::new(vec![1, 2, 4]).unwrap();
        let target = pop.sample_target(&mut rng);
        let out = iterative_deepening(&topo, &pop, &policy, 0, target, 1);
        assert_eq!(out.satisfied, out.results >= 1);
        let mut expected_cost = 0;
        for (i, &ttl) in policy.ttls().iter().enumerate() {
            if i >= out.iterations {
                break;
            }
            expected_cost += topo.bfs_within(0, ttl).len() - 1;
        }
        assert_eq!(out.probe_cost, expected_cost);
    }
}
