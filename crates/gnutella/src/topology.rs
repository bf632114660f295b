//! Overlay topologies for forwarding-based search.
//!
//! Gnutella's flood reaches whichever peers sit within a TTL radius of the
//! querier, so its behaviour is a function of the overlay graph. This
//! module provides the generators the literature uses: near-regular random
//! graphs (each peer opens `k` connections), Erdős–Rényi, and preferential
//! attachment (the power-law shape measured on the real network).

use simkit::rng::RngStream;

/// An undirected overlay graph over `n` peers.
///
/// # Examples
///
/// ```
/// use gnutella::topology::Topology;
/// use simkit::rng::RngStream;
///
/// let mut rng = RngStream::from_seed(1, "doc");
/// let topo = Topology::random_regular(100, 4, &mut rng);
/// assert_eq!(topo.len(), 100);
/// assert!(topo.degree(0) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    adj: Vec<Vec<u32>>,
}

impl Topology {
    /// Builds a graph where every peer initiates `k` connections to
    /// distinct random others (degrees concentrate around `2k`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k == 0` or `k >= n`.
    #[must_use]
    pub fn random_regular(n: usize, k: usize, rng: &mut RngStream) -> Self {
        assert!(n >= 2 && k >= 1 && k < n, "need 2 <= k+1 <= n");
        let mut adj: Vec<Vec<u32>> = vec![Vec::with_capacity(2 * k); n];
        for u in 0..n {
            let mut attempts = 0;
            let mut made = 0;
            while made < k && attempts < 20 * k {
                attempts += 1;
                let v = rng.below(n);
                if v == u || adj[u].contains(&(v as u32)) {
                    continue;
                }
                adj[u].push(v as u32);
                adj[v].push(u as u32);
                made += 1;
            }
        }
        Topology { adj }
    }

    /// Erdős–Rényi `G(n, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn erdos_renyi(n: usize, p: f64, rng: &mut RngStream) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.chance(p) {
                    adj[u].push(v as u32);
                    adj[v].push(u as u32);
                }
            }
        }
        Topology { adj }
    }

    /// Barabási–Albert preferential attachment: each newcomer attaches `m`
    /// edges, preferring high-degree targets — yields the power-law degree
    /// distribution observed on Gnutella.
    ///
    /// # Panics
    ///
    /// Panics if `n <= m` or `m == 0`.
    #[must_use]
    pub fn preferential_attachment(n: usize, m: usize, rng: &mut RngStream) -> Self {
        assert!(m >= 1 && n > m, "need n > m >= 1");
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        // Repeated-endpoint list: sampling uniformly from it is sampling
        // proportional to degree.
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
        // Start from a small clique of m+1 nodes.
        for u in 0..=m {
            for v in (u + 1)..=m {
                adj[u].push(v as u32);
                adj[v].push(u as u32);
                endpoints.push(u as u32);
                endpoints.push(v as u32);
            }
        }
        for u in (m + 1)..n {
            let mut chosen: Vec<u32> = Vec::with_capacity(m);
            let mut guard = 0;
            while chosen.len() < m && guard < 50 * m {
                guard += 1;
                let v = endpoints[rng.below(endpoints.len())];
                if v as usize != u && !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            for v in chosen {
                adj[u].push(v);
                adj[v as usize].push(u as u32);
                endpoints.push(u as u32);
                endpoints.push(v);
            }
        }
        Topology { adj }
    }

    /// Number of peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns true if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Total number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Peers reachable from `src` within `ttl` hops (the flood horizon),
    /// including `src` itself, in BFS order, paired with their hop count.
    /// Floods themselves run through [`crate::wavefront`]; this is their
    /// test oracle and the reach test of [`Topology::is_connected`].
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn bfs_within(&self, src: usize, ttl: usize) -> Vec<(usize, usize)> {
        assert!(src < self.adj.len(), "source out of range");
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut order = Vec::new();
        let mut frontier = std::collections::VecDeque::new();
        dist[src] = 0;
        frontier.push_back(src);
        while let Some(u) = frontier.pop_front() {
            order.push((u, dist[u]));
            if dist[u] == ttl {
                continue;
            }
            for &v in &self.adj[u] {
                let v = v as usize;
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    frontier.push_back(v);
                }
            }
        }
        order
    }

    /// Returns true if every node can reach every other.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        self.bfs_within(0, usize::MAX).len() == self.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::from_seed(42, "topo")
    }

    #[test]
    fn random_regular_has_expected_shape() {
        let mut r = rng();
        let t = Topology::random_regular(500, 4, &mut r);
        assert_eq!(t.len(), 500);
        // Each node initiated ~4, receives ~4 on average.
        let avg: f64 = (0..500).map(|u| t.degree(u) as f64).sum::<f64>() / 500.0;
        assert!((7.0..9.0).contains(&avg), "average degree {avg}");
        assert!(
            t.is_connected(),
            "k=4 random graph on 500 nodes should connect"
        );
    }

    #[test]
    fn no_self_loops_or_duplicate_edges_in_regular() {
        let mut r = rng();
        let t = Topology::random_regular(100, 3, &mut r);
        for u in 0..100 {
            let mut ns = t.neighbors(u).to_vec();
            assert!(!ns.contains(&(u as u32)), "self loop at {u}");
            let before = ns.len();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), before, "duplicate edge at {u}");
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut r = rng();
        let empty = Topology::erdos_renyi(20, 0.0, &mut r);
        assert_eq!(empty.edge_count(), 0);
        let full = Topology::erdos_renyi(20, 1.0, &mut r);
        assert_eq!(full.edge_count(), 20 * 19 / 2);
    }

    #[test]
    fn preferential_attachment_is_power_law_ish() {
        let mut r = rng();
        let t = Topology::preferential_attachment(2000, 3, &mut r);
        let mut degrees: Vec<usize> = (0..2000).map(|u| t.degree(u)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Hubs should dwarf the median degree.
        assert!(
            degrees[0] >= 5 * degrees[1000],
            "max degree {} vs median {}",
            degrees[0],
            degrees[1000]
        );
        assert!(t.is_connected());
    }

    #[test]
    fn bfs_respects_ttl() {
        // A path graph 0-1-2-3-4 via ER would be flaky; build manually
        // through the public generator instead: use a 2-node graph.
        let mut r = rng();
        let t = Topology::random_regular(50, 2, &mut r);
        let zero = t.bfs_within(7, 0);
        assert_eq!(zero, vec![(7, 0)], "ttl 0 reaches only the source");
        let one = t.bfs_within(7, 1);
        assert_eq!(one.len(), 1 + t.degree(7));
        assert!(one.iter().all(|&(_, d)| d <= 1));
    }

    #[test]
    fn bfs_reach_is_monotone_in_ttl() {
        let mut r = rng();
        let t = Topology::random_regular(300, 3, &mut r);
        let mut last = 0;
        for ttl in 0..8 {
            let reach = t.bfs_within(0, ttl).len();
            assert!(reach >= last, "reach shrank at ttl {ttl}");
            last = reach;
        }
        assert_eq!(last, 300, "ttl 7 should cover a 300-node random graph");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_rejects_bad_source() {
        let mut r = rng();
        let t = Topology::random_regular(10, 2, &mut r);
        let _ = t.bfs_within(10, 1);
    }
}
