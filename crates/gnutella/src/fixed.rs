//! Fixed-extent search — the Gnutella reference point of Figure 8.
//!
//! A fixed-extent mechanism always delivers the query to exactly `E`
//! peers, whatever the query is: too many for popular content, too few for
//! rare content. The paper evaluates the unsatisfaction rate for *every*
//! extent 1..N to trace the whole cost/quality curve.
//!
//! For each query we record the *rank of the first answering peer* in a
//! random delivery order (which peers a flood reaches is uncorrelated with
//! content placement). A query with first-hit rank `r` is satisfied by
//! every extent `E >= r`, so a single pass yields the entire curve.

use simkit::rng::RngStream;

use workload::population::Population;

/// The cost/quality curve of a fixed-extent mechanism.
#[derive(Debug, Clone)]
pub struct FixedExtentCurve {
    /// `first_hit[q]` is the 1-based rank of the first answering peer for
    /// query `q`, or `None` if no peer in the population can answer.
    first_hit: Vec<Option<usize>>,
    population: usize,
}

impl FixedExtentCurve {
    /// Evaluates `queries` random queries against `pop`, each with its own
    /// random delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `queries == 0`.
    #[must_use]
    pub fn evaluate(pop: &Population, queries: usize, rng: &mut RngStream) -> Self {
        assert!(queries > 0, "need at least one query");
        let n = pop.len();
        let mut first_hit = Vec::with_capacity(queries);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..queries {
            let target = pop.sample_target(rng);
            rng.shuffle(&mut order);
            let hit = order
                .iter()
                .position(|&i| pop.answers(i, target))
                .map(|p| p + 1);
            first_hit.push(hit);
        }
        FixedExtentCurve {
            first_hit,
            population: n,
        }
    }

    /// Number of evaluated queries.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.first_hit.len()
    }

    /// Size of the underlying population.
    #[must_use]
    pub fn population(&self) -> usize {
        self.population
    }

    /// Fraction of queries **unsatisfied** at extent `e` (queries whose
    /// first answering peer ranks beyond `e`, or that nobody can answer).
    #[must_use]
    pub fn unsatisfaction_at(&self, e: usize) -> f64 {
        let unsat = self
            .first_hit
            .iter()
            .filter(|h| h.is_none_or(|r| r > e))
            .count();
        unsat as f64 / self.first_hit.len() as f64
    }

    /// The floor: queries that not even a whole-network flood satisfies.
    #[must_use]
    pub fn unsatisfiable_fraction(&self) -> f64 {
        let none = self.first_hit.iter().filter(|h| h.is_none()).count();
        none as f64 / self.first_hit.len() as f64
    }

    /// The `(extent, unsatisfaction)` series for the given extents.
    #[must_use]
    pub fn curve(&self, extents: &[usize]) -> Vec<(usize, f64)> {
        extents
            .iter()
            .map(|&e| (e, self.unsatisfaction_at(e)))
            .collect()
    }

    /// The smallest extent achieving `target_unsat` or better, if any.
    #[must_use]
    pub fn extent_for_unsatisfaction(&self, target_unsat: f64) -> Option<usize> {
        (1..=self.population).find(|&e| self.unsatisfaction_at(e) <= target_unsat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::content::CatalogParams;

    fn curve(n: usize, queries: usize) -> FixedExtentCurve {
        let pop = Population::generate(n, CatalogParams::default(), 17).unwrap();
        let mut rng = RngStream::from_seed(17, "fixed");
        FixedExtentCurve::evaluate(&pop, queries, &mut rng)
    }

    #[test]
    fn unsatisfaction_is_monotone_decreasing_in_extent() {
        let c = curve(300, 400);
        let mut last = 1.0;
        for e in [1, 2, 5, 10, 30, 100, 300] {
            let u = c.unsatisfaction_at(e);
            assert!(u <= last + 1e-12, "unsat rose at extent {e}");
            last = u;
        }
    }

    #[test]
    fn full_extent_hits_the_floor() {
        let c = curve(300, 400);
        assert!((c.unsatisfaction_at(300) - c.unsatisfiable_fraction()).abs() < 1e-12);
    }

    #[test]
    fn extent_one_is_nearly_hopeless_for_rare_content() {
        let c = curve(300, 400);
        assert!(c.unsatisfaction_at(1) > c.unsatisfaction_at(300));
        assert!(
            c.unsatisfaction_at(1) > 0.3,
            "a single probe rarely satisfies"
        );
    }

    #[test]
    fn curve_series_matches_pointwise() {
        let c = curve(200, 200);
        let series = c.curve(&[1, 10, 100]);
        assert_eq!(series.len(), 3);
        for (e, u) in series {
            assert_eq!(u, c.unsatisfaction_at(e));
        }
    }

    #[test]
    fn extent_for_unsatisfaction_finds_threshold() {
        let c = curve(300, 400);
        let floor = c.unsatisfiable_fraction();
        let e = c
            .extent_for_unsatisfaction(floor + 0.02)
            .expect("reachable");
        assert!(e <= 300);
        assert!(c.unsatisfaction_at(e) <= floor + 0.02);
        assert!(
            c.extent_for_unsatisfaction(-1.0).is_none(),
            "impossible target"
        );
    }

    #[test]
    fn reports_shapes() {
        let c = curve(100, 50);
        assert_eq!(c.queries(), 50);
        assert_eq!(c.population(), 100);
    }
}
