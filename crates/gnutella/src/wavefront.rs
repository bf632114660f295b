//! Generation-stamped wavefront primitives for batched flooding.
//!
//! A TTL flood is structurally per-hop: every hop expands a frontier of
//! newly reached peers across their adjacency lists. The dynamic engine
//! therefore executes floods one *hop* per kernel event rather than one
//! message per event, and this module holds the two pieces that make a
//! hop cheap:
//!
//! * [`VisitTable`] — a dense visited set keyed by slot index, reset in
//!   O(1) by bumping a generation token instead of clearing storage
//!   (the slab/stamp idiom from the perf pass);
//! * [`advance`] — one frontier expansion over slot-indexed adjacency
//!   slices, reporting every transmission to a caller hook so trace
//!   emission stays outside the loop structure.
//!
//! The expansion visits frontier peers in order and each peer's
//! neighbors in adjacency order, so the discovery sequence is exactly
//! the breadth-first order the old per-message loop produced — that is
//! what keeps report aggregates and trace records byte-identical.
//!
//! The inner loop has no data-dependent branch: the visit stamp is
//! written unconditionally, and every receiver is written at the end of
//! `next` (sized once per hop) while the cursor advances only past first
//! visits. Callers that need per-receiver work — the dynamic engine's
//! answer check, iterative deepening's result count — run it afterwards
//! over the hop's new `next` entries, which are the first visits in
//! discovery order.

/// A dense visited set over peer slots with O(1) whole-set reset.
///
/// Each slot holds the token of the last flood that visited it; a slot
/// is "visited" under token `t` iff its stamp equals `t`. Starting a
/// new flood is just [`VisitTable::token`] — no clearing, no per-query
/// allocation.
#[derive(Debug, Clone)]
pub struct VisitTable {
    stamps: Vec<u64>,
    next_token: u64,
}

impl VisitTable {
    /// A table covering `n` peer slots, all unvisited.
    #[must_use]
    pub fn new(n: usize) -> Self {
        VisitTable {
            // Tokens start at 1, so the zero-initialised stamps mean
            // "never visited" without a sentinel check.
            stamps: vec![0; n],
            next_token: 0,
        }
    }

    /// Issues a fresh generation token; every slot appears unvisited
    /// under it.
    pub fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Grows the table to cover `n` slots (no-op when it already does).
    /// New slots start never-visited, so a table can grow under a
    /// flood in flight: mass-join interventions add peers past the size
    /// the table was built with.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
        }
    }

    /// Marks `slot` visited under `token`, returning `true` iff this is
    /// the first visit of this generation.
    #[inline]
    pub fn visit(&mut self, slot: u32, token: u64) -> bool {
        let stamp = &mut self.stamps[slot as usize];
        // Compare, then store unconditionally: re-writing a duplicate's
        // stamp is harmless and leaves no branch to mispredict.
        let first = *stamp != token;
        *stamp = token;
        first
    }

    /// True iff `slot` has been visited under `token`.
    #[must_use]
    pub fn seen(&self, slot: u32, token: u64) -> bool {
        self.stamps[slot as usize] == token
    }

    /// Number of tracked slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True iff the table tracks no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

/// Expands one flood hop: every frontier peer forwards to all of its
/// neighbors, and first-time receivers form the next frontier.
///
/// `on_probe(receiver, first_visit)` fires once per transmission, in
/// the exact order the old per-message loop produced them (frontier
/// order, then adjacency order), *after* the receiver's visit stamp is
/// updated — so the hook sees the same first/duplicate classification
/// the visited-set insert used to return. Returns the number of
/// transmissions (the hop's message count, duplicates included).
///
/// `next` is appended to, not cleared — callers clear it between hops
/// so the buffer's capacity is reused across the whole run.
pub fn advance<'a, N, P>(
    frontier: &[u32],
    next: &mut Vec<u32>,
    visits: &mut VisitTable,
    token: u64,
    neighbors: N,
    on_probe: P,
) -> u64
where
    N: Fn(u32) -> &'a [u32],
    P: FnMut(u32, bool),
{
    advance_filtered(
        frontier,
        next,
        visits,
        token,
        neighbors,
        |_, _| true,
        on_probe,
    )
}

/// As [`advance`], but each transmission `u → v` first passes through
/// `edge_ok(u, v)`; an edge the filter rejects is not sent at all — not
/// counted as a message, not reported to `on_probe`, and its receiver
/// stays unvisited (by *this* edge). Network partitions use this to
/// drop cross-group messages while leaving the overlay's adjacency
/// intact, so a heal restores the original links. With an always-true
/// filter this is exactly [`advance`].
pub fn advance_filtered<'a, N, F, P>(
    frontier: &[u32],
    next: &mut Vec<u32>,
    visits: &mut VisitTable,
    token: u64,
    neighbors: N,
    mut edge_ok: F,
    mut on_probe: P,
) -> u64
where
    N: Fn(u32) -> &'a [u32],
    F: FnMut(u32, u32) -> bool,
    P: FnMut(u32, bool),
{
    // Size `next` once for the hop, then write every receiver at the
    // cursor and advance the cursor only past first visits: no branch
    // and no capacity check per transmission. A hop cannot find more
    // first visits than there are slots, so the bound caps the buffer
    // at N + 1 even where the fan-out is far larger; the + 1 is the
    // slot a transmission after the last possible first visit writes.
    let start = next.len();
    let fan_out: usize = frontier.iter().map(|&u| neighbors(u).len()).sum();
    next.resize(start + fan_out.min(visits.len() + 1), 0);
    let mut end = start;
    let mut messages = 0u64;
    for &u in frontier {
        for &v in neighbors(u) {
            if !edge_ok(u, v) {
                continue;
            }
            messages += 1;
            let first = visits.visit(v, token);
            on_probe(v, first);
            next[end] = v;
            end += usize::from(first);
        }
    }
    next.truncate(end);
    messages
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-cycle: 0-1-2-3-4-0, adjacency in index order.
    fn cycle5() -> Vec<Vec<u32>> {
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]]
    }

    fn run_hop(
        adj: &[Vec<u32>],
        frontier: &[u32],
        visits: &mut VisitTable,
        token: u64,
    ) -> (Vec<u32>, u64, Vec<(u32, bool)>) {
        let mut next = Vec::new();
        let mut probes = Vec::new();
        let messages = advance(
            frontier,
            &mut next,
            visits,
            token,
            |u| adj[u as usize].as_slice(),
            |v, first| probes.push((v, first)),
        );
        (next, messages, probes)
    }

    #[test]
    fn expands_in_frontier_then_adjacency_order() {
        let adj = cycle5();
        let mut visits = VisitTable::new(5);
        let token = visits.token();
        visits.visit(0, token);
        let (next, messages, probes) = run_hop(&adj, &[0], &mut visits, token);
        assert_eq!(next, vec![1, 4]);
        assert_eq!(messages, 2);
        assert_eq!(probes, vec![(1, true), (4, true)]);

        let (next, messages, probes) = run_hop(&adj, &next, &mut visits, token);
        // 1 forwards to {0, 2}, 4 forwards to {0, 3}: four messages,
        // two of them duplicates back to the origin.
        assert_eq!(next, vec![2, 3]);
        assert_eq!(messages, 4);
        assert_eq!(probes, vec![(0, false), (2, true), (0, false), (3, true)]);
    }

    #[test]
    fn duplicate_within_a_hop_is_suppressed_once() {
        // Both frontier peers point at the same receiver; only the
        // first transmission is a first visit.
        let adj = vec![vec![2], vec![2], vec![]];
        let mut visits = VisitTable::new(3);
        let token = visits.token();
        let (next, messages, probes) = run_hop(&adj, &[0, 1], &mut visits, token);
        assert_eq!(next, vec![2]);
        assert_eq!(messages, 2);
        assert_eq!(probes, vec![(2, true), (2, false)]);
    }

    #[test]
    fn fresh_token_forgets_previous_generation() {
        let mut visits = VisitTable::new(3);
        let t1 = visits.token();
        assert!(visits.visit(1, t1));
        assert!(!visits.visit(1, t1));
        assert!(visits.seen(1, t1));
        let t2 = visits.token();
        assert!(!visits.seen(1, t2), "new generation starts unvisited");
        assert!(visits.visit(1, t2), "slot is first-visit again");
        assert!(
            !visits.seen(1, t1),
            "old generation token no longer matches"
        );
    }

    #[test]
    fn filtered_edges_are_never_sent() {
        // Partition the 5-cycle into even/odd slots: only 2-4 and 4-0
        // style even-even edges survive an `u % 2 == v % 2` filter.
        let adj = cycle5();
        let mut visits = VisitTable::new(5);
        let token = visits.token();
        visits.visit(0, token);
        let mut next = Vec::new();
        let mut probes = Vec::new();
        let messages = advance_filtered(
            &[0],
            &mut next,
            &mut visits,
            token,
            |u| adj[u as usize].as_slice(),
            |u, v| u % 2 == v % 2,
            |v, first| probes.push((v, first)),
        );
        // 0's neighbors are {1, 4}; 1 is cross-group and dropped.
        assert_eq!(next, vec![4]);
        assert_eq!(messages, 1, "dropped edges are not counted");
        assert_eq!(probes, vec![(4, true)]);
    }

    #[test]
    fn grow_to_extends_with_unvisited_slots() {
        let mut visits = VisitTable::new(2);
        let token = visits.token();
        visits.visit(1, token);
        visits.grow_to(4);
        assert_eq!(visits.len(), 4);
        assert!(visits.seen(1, token), "old stamps survive the resize");
        assert!(!visits.seen(3, token));
        assert!(visits.visit(3, token), "new slot is first-visit");
        visits.grow_to(3);
        assert_eq!(visits.len(), 4, "shrinking is a no-op");
    }

    /// The complete graph K_n, adjacency in index order.
    fn complete(n: u32) -> Vec<Vec<u32>> {
        (0..n)
            .map(|u| (0..n).filter(|&v| v != u).collect())
            .collect()
    }

    #[test]
    fn appends_after_existing_next_in_discovery_order() {
        let adj = cycle5();
        let mut visits = VisitTable::new(5);
        let token = visits.token();
        visits.visit(0, token);
        visits.visit(1, token);
        let mut next = vec![99, 98];
        let messages = advance(
            &[1, 0],
            &mut next,
            &mut visits,
            token,
            |u| adj[u as usize].as_slice(),
            |_, _| {},
        );
        // 1 sends to {0, 2}, then 0 sends to {1, 4}: 2 and 4 are new.
        assert_eq!(next, vec![99, 98, 2, 4], "old contents kept, new appended");
        assert_eq!(messages, 4);
    }

    #[test]
    fn dense_hop_keeps_exactly_the_unvisited_receivers() {
        // On K_64 an 8-peer frontier sends 8 * 63 = 504 messages to 64
        // slots: the fan-out is far above N, and the buffer must end
        // holding the 56 first visits and nothing past them.
        let adj = complete(64);
        let mut visits = VisitTable::new(64);
        let token = visits.token();
        let frontier: Vec<u32> = (0..8).collect();
        for &u in &frontier {
            visits.visit(u, token);
        }
        let mut next = vec![7];
        let mut firsts = 0;
        let messages = advance(
            &frontier,
            &mut next,
            &mut visits,
            token,
            |u| adj[u as usize].as_slice(),
            |_, first| firsts += usize::from(first),
        );
        assert_eq!(messages, 8 * 63);
        assert_eq!(firsts, 56);
        let expected: Vec<u32> = std::iter::once(7).chain(8..64).collect();
        assert_eq!(next, expected, "no stale tail after the truncate");

        // Everyone is visited now: a second hop is all duplicates and
        // leaves `next` exactly as long as it started.
        let frontier = next.split_off(1);
        let messages = advance(
            &frontier,
            &mut next,
            &mut visits,
            token,
            |u| adj[u as usize].as_slice(),
            |_, first| assert!(!first),
        );
        assert_eq!(messages, 56 * 63);
        assert_eq!(next, vec![7]);
    }

    #[test]
    fn filtered_dense_hop_counts_only_the_edges_it_sends() {
        // K_64 split into even and odd slots: peer 0 reaches the 31
        // other even slots, and its 32 cross-group edges send nothing.
        let adj = complete(64);
        let mut visits = VisitTable::new(64);
        let token = visits.token();
        visits.visit(0, token);
        let mut next = Vec::new();
        let mut probes = 0;
        let messages = advance_filtered(
            &[0],
            &mut next,
            &mut visits,
            token,
            |u| adj[u as usize].as_slice(),
            |u, v| u % 2 == v % 2,
            |_, _| probes += 1,
        );
        assert_eq!(messages, 31);
        assert_eq!(probes, 31);
        assert_eq!(next, (2..64).step_by(2).collect::<Vec<u32>>());
        assert!((1..64).step_by(2).all(|v| !visits.seen(v, token)));
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let adj = cycle5();
        let mut visits = VisitTable::new(5);
        let token = visits.token();
        let (next, messages, probes) = run_hop(&adj, &[], &mut visits, token);
        assert!(next.is_empty());
        assert_eq!(messages, 0);
        assert!(probes.is_empty());
    }
}
