//! Fragmentation attacks on overlay topologies.
//!
//! §3.3 of the paper: Gnutella's measured power-law overlay is fragile to
//! targeted denial-of-service against its highly connected hubs, while
//! the weakness "is not inherent to the protocol … the network can be
//! made more robust by imposing simple limits on the number of
//! connections". This module quantifies that claim: knock out the
//! highest-degree peers (a targeted attack) or random peers (baseline
//! failures) and measure what is left of the largest connected component.

use crate::topology::Topology;
use simkit::rng::RngStream;

/// How the attacker picks victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStrategy {
    /// Take down the highest-degree peers first (targeted DoS).
    HighestDegree,
    /// Take down uniformly random peers (background failure baseline).
    Random,
}

/// The residual connectivity after an attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Peers removed.
    pub removed: usize,
    /// Peers still up.
    pub survivors: usize,
    /// Largest connected component among survivors.
    pub largest_component: usize,
}

impl AttackOutcome {
    /// Largest component as a fraction of the survivors (1.0 = still one
    /// connected network).
    #[must_use]
    pub fn cohesion(&self) -> f64 {
        if self.survivors == 0 {
            0.0
        } else {
            self.largest_component as f64 / self.survivors as f64
        }
    }
}

/// Removes `count` peers from `topo` under `strategy` and measures the
/// surviving overlay's largest connected component.
///
/// # Panics
///
/// Panics if `count > topo.len()`.
#[must_use]
pub fn attack(
    topo: &Topology,
    strategy: AttackStrategy,
    count: usize,
    rng: &mut RngStream,
) -> AttackOutcome {
    let n = topo.len();
    assert!(count <= n, "cannot remove more peers than exist");
    let mut down = vec![false; n];
    match strategy {
        AttackStrategy::HighestDegree => {
            let mut by_degree: Vec<usize> = (0..n).collect();
            by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(topo.degree(u)));
            for &u in by_degree.iter().take(count) {
                down[u] = true;
            }
        }
        AttackStrategy::Random => {
            for u in rng.sample_indices(n, count) {
                down[u] = true;
            }
        }
    }

    // Union-find over the survivors.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for u in 0..n {
        if down[u] {
            continue;
        }
        for &v in topo.neighbors(u) {
            let v = v as usize;
            if !down[v] {
                let (ru, rv) = (find(&mut parent, u as u32), find(&mut parent, v as u32));
                if ru != rv {
                    parent[ru as usize] = rv;
                }
            }
        }
    }
    let mut sizes = vec![0usize; n];
    let mut largest = 0;
    for (u, &is_down) in down.iter().enumerate() {
        if !is_down {
            let r = find(&mut parent, u as u32) as usize;
            sizes[r] += 1;
            largest = largest.max(sizes[r]);
        }
    }
    AttackOutcome {
        removed: count,
        survivors: n - count,
        largest_component: largest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::from_seed(77, "frag")
    }

    #[test]
    fn no_attack_leaves_network_whole() {
        let mut r = rng();
        let t = Topology::random_regular(200, 4, &mut r);
        let out = attack(&t, AttackStrategy::HighestDegree, 0, &mut r);
        assert_eq!(out.survivors, 200);
        assert_eq!(out.largest_component, 200);
        assert!((out.cohesion() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_attack_leaves_nothing() {
        let mut r = rng();
        let t = Topology::random_regular(50, 3, &mut r);
        let out = attack(&t, AttackStrategy::Random, 50, &mut r);
        assert_eq!(out.survivors, 0);
        assert_eq!(out.largest_component, 0);
        assert_eq!(out.cohesion(), 0.0);
    }

    #[test]
    fn power_law_is_fragile_to_targeted_attack() {
        let mut r = rng();
        let n = 1500;
        let power_law = Topology::preferential_attachment(n, 2, &mut r);
        let regular = Topology::random_regular(n, 2, &mut r);
        let victims = n / 20; // 5%
        let pl = attack(&power_law, AttackStrategy::HighestDegree, victims, &mut r);
        let reg = attack(&regular, AttackStrategy::HighestDegree, victims, &mut r);
        assert!(
            pl.cohesion() < reg.cohesion(),
            "hub removal should hurt the power-law overlay ({:.3}) more than the \
             degree-limited one ({:.3})",
            pl.cohesion(),
            reg.cohesion()
        );
    }

    #[test]
    fn targeted_beats_random_on_power_law() {
        let mut r = rng();
        let t = Topology::preferential_attachment(1500, 2, &mut r);
        let victims = 75;
        let targeted = attack(&t, AttackStrategy::HighestDegree, victims, &mut r);
        let random = attack(&t, AttackStrategy::Random, victims, &mut r);
        assert!(
            targeted.cohesion() <= random.cohesion(),
            "targeting hubs ({:.3}) must be at least as damaging as random \
             failures ({:.3})",
            targeted.cohesion(),
            random.cohesion()
        );
    }

    #[test]
    fn sweep_is_monotone_in_removed_count() {
        let mut r = rng();
        let t = Topology::preferential_attachment(800, 2, &mut r);
        let outs: Vec<AttackOutcome> = [0, 40, 80, 160]
            .iter()
            .map(|&c| attack(&t, AttackStrategy::HighestDegree, c, &mut r))
            .collect();
        for w in outs.windows(2) {
            assert!(w[1].largest_component <= w[0].largest_component);
        }
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn over_removal_rejected() {
        let mut r = rng();
        let t = Topology::random_regular(10, 2, &mut r);
        let _ = attack(&t, AttackStrategy::Random, 11, &mut r);
    }
}
