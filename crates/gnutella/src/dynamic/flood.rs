//! TTL flooding over the live overlay — the query-execution half of the
//! dynamic simulator, split out so overlay maintenance and search can be
//! read independently (a child module sees the engine's private state).
//!
//! A flood is not executed inline: [`Flood::flood_query`] stamps
//! the origin into the flood's own [`VisitTable`], parks the query's
//! state in a slab slot, and schedules one hop ([`Event::Step`]) at the
//! current instant. Each hop event advances the frontier one TTL step
//! with a single [`crate::wavefront::advance_filtered`] call, whose hook
//! only records probes when a trace sink is attached. The hop's new
//! frontier is then checked against the query in one pass — untraced,
//! that pass stops as soon as the flood holds `num_desired_results`
//! results, so a flood's `results` saturates there; the report reads it
//! only as `results >= desired` and cannot tell. A traced flood counts
//! every result for its `QueryEnd` record. The hop reschedules itself
//! (same instant, later sequence number) until the TTL is spent or the
//! frontier dies out, then settles the query's metrics. Because
//! same-instant events pop before anything strictly later, the whole
//! flood completes before the next burst or death — exactly the inline
//! semantics, with one kernel event per hop.

use workload::population::Event;

use super::*;
use crate::wavefront;

/// In-flight state of one flood, parked in the engine's slab between
/// hop events. Slots are recycled through a free list so frontier
/// buffers keep their capacity across queries.
pub(super) struct FloodState {
    qid: u64,
    target: QueryTarget,
    /// This flood's private visited set. Each in-flight flood owns its
    /// table: concurrent floods from one burst interleave hop events,
    /// and a table shared across floods would let one generation's
    /// stamps clobber another's, re-admitting already-visited peers.
    /// Slab recycling still amortizes the allocation — a reused slot
    /// just bumps its own generation token. Every table, in flight or
    /// free, covers the whole population (`grow_visit_tables`).
    visits: VisitTable,
    /// This flood's generation token in its visit table.
    token: u64,
    hops_left: u32,
    messages: u64,
    /// Peers reached that answer the query. Exact when traced; untraced,
    /// counting stops at `num_desired_results`.
    results: u32,
    /// Distinct peers reached, origin excluded: the sum of the hops'
    /// frontier sizes.
    reached: u64,
    /// Completed but not yet settled (waiting for older floods).
    done: bool,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl Flood {
    /// Starts flood `qid` for `target` from `src` with the configured
    /// TTL: stamps the origin and schedules the first hop at `now`.
    pub(super) fn flood_query<T: TraceSink>(
        &mut self,
        peers: &Peers<Self>,
        src: usize,
        qid: u64,
        target: QueryTarget,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        let ttl = peers.cfg.ttl as u32;
        let n = peers.pop.len();
        let flood = if let Some(slot) = self.free_floods.pop() {
            let st = &mut self.floods[slot as usize];
            st.qid = qid;
            st.target = target;
            st.token = st.visits.token();
            st.hops_left = ttl;
            st.messages = 0;
            st.results = 0;
            st.reached = 0;
            st.done = false;
            st.frontier.clear();
            st.frontier.push(src as u32);
            st.next.clear();
            st.visits.visit(src as u32, st.token);
            slot
        } else {
            let slot = u32::try_from(self.floods.len()).expect("flood slab exceeds u32 slots");
            let mut visits = VisitTable::new(n);
            let token = visits.token();
            visits.visit(src as u32, token);
            self.floods.push(FloodState {
                qid,
                target,
                visits,
                token,
                hops_left: ttl,
                messages: 0,
                results: 0,
                reached: 0,
                done: false,
                frontier: vec![src as u32],
                next: Vec::new(),
            });
            slot
        };
        self.settle_queue.push_back(flood);
        ctx.schedule(now, Event::Step(flood));
    }

    /// Advances one hop of flood `flood`: every frontier peer forwards
    /// to all neighbors, and first-time receivers form the next frontier
    /// and are then checked against the query in one pass. Reschedules
    /// itself while TTL and frontier remain, otherwise settles the query.
    pub(super) fn on_flood_hop<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        flood: u32,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        let idx = flood as usize;
        let tracing = ctx.tracing();
        // Untraced, the report only asks whether `num_desired_results` were
        // found; `QueryEnd.results` needs the exact count.
        let wanted = if tracing {
            u32::MAX
        } else {
            peers.cfg.num_desired_results
        };
        {
            // Disjoint field borrows: the hop reads adjacency, peer
            // libraries, and the query model while mutating this
            // flood's visit table and frontier buffers.
            let partition = peers.partition;
            let pop = &peers.pop;
            let Flood {
                ref adj,
                ref mut floods,
                ref mut probe_scratch,
                ..
            } = *self;
            let st = &mut floods[idx];
            st.next.clear();
            probe_scratch.clear();
            // An active partition drops cross-group transmissions:
            // never sent, never counted, never traced. The adjacency
            // itself is untouched, so a heal restores the old links.
            st.messages += wavefront::advance_filtered(
                &st.frontier,
                &mut st.next,
                &mut st.visits,
                st.token,
                |u| adj[u as usize].as_slice(),
                |u, v| partition.is_none_or(|p| p.same_side(u, v)),
                |v, first| {
                    if tracing {
                        let outcome = if first {
                            ProbeOutcome::Good
                        } else {
                            ProbeOutcome::Duplicate
                        };
                        probe_scratch.push((pop.incarnation(v as usize), outcome));
                    }
                },
            );
            st.reached += st.next.len() as u64;
            for &v in &st.next {
                if st.results >= wanted {
                    break;
                }
                st.results += u32::from(pop.answers(v as usize, st.target));
            }
        }
        let qid = self.floods[idx].qid;
        ctx.emit_probes(now, qid, ProbeKind::Flood, &self.probe_scratch);
        let st = &mut self.floods[idx];
        st.hops_left -= 1;
        std::mem::swap(&mut st.frontier, &mut st.next);
        if st.hops_left > 0 && !st.frontier.is_empty() {
            ctx.schedule(now, Event::Step(flood));
            return;
        }
        st.done = true;
        // Settle strictly in start (qid) order: a flood whose frontier
        // dies out early must not record its aggregates before an older
        // still-running flood from the same burst — Welford summaries
        // are order-sensitive in floating point, and the byte-identical
        // contract pins the inline formulation's order.
        while let Some(&front) = self.settle_queue.front() {
            if !self.floods[front as usize].done {
                break;
            }
            self.settle_queue.pop_front();
            self.finish_flood(peers, front, now, ctx);
        }
    }

    /// Grows every slab visit table, in flight or free, to the
    /// population's `n` slots. A join can land between the hops of a flood — a
    /// control at the same instant pops before the hops an earlier
    /// control scheduled — so every table must cover every slot the
    /// moment the slot exists, not only when a flood starts.
    pub(super) fn grow_visit_tables(&mut self, n: usize) {
        for st in &mut self.floods {
            st.visits.grow_to(n);
        }
    }

    /// Settles a completed flood: emits the query-end record, records
    /// the post-warm-up metrics, and recycles the slab slot.
    fn finish_flood<T: TraceSink>(
        &mut self,
        peers: &mut Peers<Self>,
        flood: u32,
        now: SimTime,
        ctx: &mut Ctx<'_, Self, T>,
    ) {
        let st = &self.floods[flood as usize];
        let (qid, messages, results, reached) = (st.qid, st.messages, st.results, st.reached);
        self.free_floods.push(flood);
        let satisfied = results >= peers.cfg.num_desired_results;
        if ctx.tracing() {
            ctx.emit(
                now,
                TraceRecord::QueryEnd {
                    query: qid,
                    satisfied,
                    probes: u32::try_from(messages).unwrap_or(u32::MAX),
                    results,
                },
            );
        }
        if ctx.after_warmup(now) {
            peers.tallies.record(satisfied, messages, reached);
        }
    }
}
