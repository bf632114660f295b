//! Iterative deepening — coarse-grained flexible extent.
//!
//! The technique of Yang & Garcia-Molina (ICDCS 2002): flood with a small
//! TTL; if unsatisfied, re-flood with the next TTL in the policy, and so
//! on. Extent control is coarse — each step re-covers everything the
//! previous step reached — which is why Figure 8 places it between fixed
//! extent and GUESS.

use simkit::rng::RngStream;
use workload::query::QueryTarget;

use crate::topology::Topology;
use crate::wavefront::{self, VisitTable};
use workload::population::Population;

/// The outcome of one iteratively-deepened query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepeningOutcome {
    /// Total query deliveries across all iterations (peers re-covered by a
    /// deeper flood are charged again).
    pub probe_cost: usize,
    /// Iterations executed (at least 1).
    pub iterations: usize,
    /// Results held by peers within the final flood's horizon.
    pub results: usize,
    /// Whether the desired result count was reached.
    pub satisfied: bool,
}

/// The TTL schedule of an iterative-deepening policy.
///
/// # Examples
///
/// ```
/// use gnutella::iterative::DeepeningPolicy;
///
/// let p = DeepeningPolicy::new(vec![2, 4, 6]).unwrap();
/// assert_eq!(p.ttls(), &[2, 4, 6]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepeningPolicy {
    ttls: Vec<usize>,
}

/// Error constructing a [`DeepeningPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadPolicyError {
    /// No TTLs given.
    Empty,
    /// TTLs not strictly increasing.
    NotIncreasing,
}

impl std::fmt::Display for BadPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BadPolicyError::Empty => write!(f, "policy needs at least one ttl"),
            BadPolicyError::NotIncreasing => write!(f, "ttls must be strictly increasing"),
        }
    }
}

impl std::error::Error for BadPolicyError {}

impl DeepeningPolicy {
    /// Creates a policy from a strictly increasing TTL schedule.
    ///
    /// # Errors
    ///
    /// Returns [`BadPolicyError`] if the schedule is empty or not strictly
    /// increasing.
    pub fn new(ttls: Vec<usize>) -> Result<Self, BadPolicyError> {
        if ttls.is_empty() {
            return Err(BadPolicyError::Empty);
        }
        if ttls.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BadPolicyError::NotIncreasing);
        }
        Ok(DeepeningPolicy { ttls })
    }

    /// The schedule.
    #[must_use]
    pub fn ttls(&self) -> &[usize] {
        &self.ttls
    }
}

/// Runs one iteratively-deepened query from `src`.
///
/// # Panics
///
/// Panics if `src` is out of range, the population and topology disagree in
/// size, or `desired == 0`.
#[must_use]
pub fn iterative_deepening(
    topo: &Topology,
    pop: &Population,
    policy: &DeepeningPolicy,
    src: usize,
    target: QueryTarget,
    desired: usize,
) -> DeepeningOutcome {
    assert_eq!(topo.len(), pop.len(), "topology and population must agree");
    assert!(desired > 0, "desired results must be positive");
    assert!(src < topo.len(), "source out of range");
    // Each step's horizon contains the previous one's, so one flood grown
    // hop by hop serves the whole schedule: at TTL `t` it has reached
    // exactly the peers within `t` hops.
    let mut visits = VisitTable::new(topo.len());
    let token = visits.token();
    visits.visit(src as u32, token);
    let (mut frontier, mut next) = (vec![src as u32], Vec::new());
    let (mut depth, mut reached, mut results) = (0usize, 0usize, 0usize);
    let mut cost = 0usize;
    for (step, &ttl) in policy.ttls().iter().enumerate() {
        while depth < ttl && !frontier.is_empty() {
            next.clear();
            wavefront::advance(
                &frontier,
                &mut next,
                &mut visits,
                token,
                |u| topo.neighbors(u as usize),
                |_, _| {},
            );
            reached += next.len();
            results += next
                .iter()
                .filter(|&&v| pop.answers(v as usize, target))
                .count();
            std::mem::swap(&mut frontier, &mut next);
            depth += 1;
        }
        // Every delivery in this iteration is charged, including peers the
        // previous iteration already covered — that is the coarseness.
        cost += reached;
        if results >= desired {
            return DeepeningOutcome {
                probe_cost: cost,
                iterations: step + 1,
                results,
                satisfied: true,
            };
        }
    }
    DeepeningOutcome {
        probe_cost: cost,
        iterations: policy.ttls().len(),
        results,
        satisfied: false,
    }
}

/// Convenience: evaluates `queries` random queries from random sources and
/// returns `(mean probe cost, unsatisfied fraction)`.
///
/// # Panics
///
/// Panics if `queries == 0` (and propagates the panics of
/// [`iterative_deepening`]).
#[must_use]
pub fn evaluate(
    topo: &Topology,
    pop: &Population,
    policy: &DeepeningPolicy,
    queries: usize,
    desired: usize,
    rng: &mut RngStream,
) -> (f64, f64) {
    assert!(queries > 0, "need at least one query");
    let mut cost_sum = 0usize;
    let mut unsat = 0usize;
    for _ in 0..queries {
        let src = rng.below(topo.len());
        let target = pop.sample_target(rng);
        let out = iterative_deepening(topo, pop, policy, src, target, desired);
        cost_sum += out.probe_cost;
        if !out.satisfied {
            unsat += 1;
        }
    }
    (
        cost_sum as f64 / queries as f64,
        unsat as f64 / queries as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::content::CatalogParams;

    fn setup(n: usize) -> (Topology, Population, RngStream) {
        let mut rng = RngStream::from_seed(23, "iter");
        let topo = Topology::random_regular(n, 3, &mut rng);
        let pop = Population::generate(n, CatalogParams::default(), 23).unwrap();
        (topo, pop, rng)
    }

    #[test]
    fn policy_validation() {
        assert_eq!(
            DeepeningPolicy::new(vec![]).unwrap_err(),
            BadPolicyError::Empty
        );
        assert_eq!(
            DeepeningPolicy::new(vec![2, 2]).unwrap_err(),
            BadPolicyError::NotIncreasing
        );
        assert_eq!(
            DeepeningPolicy::new(vec![3, 1]).unwrap_err(),
            BadPolicyError::NotIncreasing
        );
        assert!(DeepeningPolicy::new(vec![1, 3, 5]).is_ok());
    }

    #[test]
    fn popular_queries_stop_early() {
        let (topo, pop, mut rng) = setup(400);
        let policy = DeepeningPolicy::new(vec![1, 3, 8]).unwrap();
        // Find a target replicated widely enough that TTL=1 should hit it.
        let target = (0..200)
            .map(|_| pop.sample_target(&mut rng))
            .max_by_key(|t| pop.holders(*t))
            .unwrap();
        let out = iterative_deepening(&topo, &pop, &policy, 0, target, 1);
        assert!(out.satisfied);
        assert!(out.iterations <= 2, "popular content should satisfy early");
    }

    #[test]
    fn impossible_queries_pay_full_schedule() {
        let (topo, pop, mut rng) = setup(200);
        let policy = DeepeningPolicy::new(vec![1, 3, 10]).unwrap();
        // Find an unanswerable target.
        let target = (0..2000)
            .map(|_| pop.sample_target(&mut rng))
            .find(|t| pop.holders(*t) == 0)
            .expect("the catalog tail has unreplicated items");
        let out = iterative_deepening(&topo, &pop, &policy, 0, target, 1);
        assert!(!out.satisfied);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.results, 0);
        // Cost includes the re-covered peers of every iteration.
        let full = topo.bfs_within(0, 10).len() - 1;
        assert!(out.probe_cost > full, "deepening re-pays earlier rings");
    }

    #[test]
    fn deeper_schedules_cost_more_but_satisfy_more() {
        let (topo, pop, mut rng) = setup(300);
        let shallow = DeepeningPolicy::new(vec![1]).unwrap();
        let deep = DeepeningPolicy::new(vec![1, 4, 8]).unwrap();
        let (c1, u1) = evaluate(&topo, &pop, &shallow, 150, 1, &mut rng);
        let (c2, u2) = evaluate(&topo, &pop, &deep, 150, 1, &mut rng);
        assert!(c2 > c1, "deep schedule must cost more ({c2} <= {c1})");
        assert!(u2 < u1, "deep schedule must satisfy more ({u2} >= {u1})");
    }
}
