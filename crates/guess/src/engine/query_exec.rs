//! Query execution: the iterative (or k-parallel) probe loop.
//!
//! Most link-cache lookups of a query land on the querier's own block
//! (each answer's `record_results`, then one `offer` per pong entry), so
//! the loop pins that block in the arena ([`CacheArena::pin`]) and those
//! lookups read a position index instead of scanning; the responders'
//! blocks are scanned. The probe pool is the engine's, reset per query.

use super::*;

/// The accumulated state of one query's probe loop. The serial path
/// concludes it immediately; the lane runner ([`super::lanes`]) parks
/// it while cross-lane probes are in flight and concludes it when the
/// last remote pong lands, so every field is plain `Copy` data.
#[derive(Debug, Clone, Copy)]
pub(super) struct QueryExec {
    pub(super) qid: u64,
    /// What the query is looking for — the lane runner re-checks it
    /// against remote libraries.
    pub(super) target: QueryTarget,
    pub(super) desired: u32,
    pub(super) results: u32,
    pub(super) good: u32,
    pub(super) dead: u32,
    pub(super) refused: u32,
    /// Wall-clock rounds the local probe loop took.
    pub(super) rounds: f64,
}

impl QueryExec {
    /// Books one probe's reply, local or cross-lane.
    pub(super) fn tally(&mut self, reply: ProbeReply) {
        match reply {
            ProbeReply::TimedOutDead => self.dead += 1,
            ProbeReply::Refused => self.refused += 1,
            ProbeReply::Answered { results } => {
                self.good += 1;
                self.results += results;
            }
        }
    }
}

impl GuessSim {
    /// Marks `addr` as considered by the query with dedup stamp `stamp`;
    /// returns true on the first visit. Addresses minted mid-query
    /// (fabricated ones) land beyond the vector and grow it.
    fn query_first_visit(&mut self, addr: PeerAddr, stamp: u64) -> bool {
        let i = addr.index();
        if i >= self.query_seen.len() {
            self.query_seen.resize(i + 1, 0);
        }
        if self.query_seen[i] == stamp {
            false
        } else {
            self.query_seen[i] = stamp;
            true
        }
    }

    /// Executes one query end-to-end: iterative (or k-parallel) probing of
    /// link-cache and query-cache candidates until `NumDesiredResults`
    /// results arrive or the candidate pool runs dry.
    pub(super) fn execute_query<T: TraceSink>(
        &mut self,
        prober: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let ex = self.execute_query_core(prober, now, ctx);
        let response = ex.rounds.ceil() * self.cfg.protocol.probe_interval.as_secs();
        let measured = ctx.after_warmup(now);
        self.conclude_query(&ex, now, response, measured, ctx);
    }

    /// The probe loop proper: runs the local candidate pool dry (or to
    /// satisfaction) and returns the counts; [`GuessSim::conclude_query`]
    /// records them, later if cross-lane spill probes are in flight.
    pub(super) fn execute_query_core<T: TraceSink>(
        &mut self,
        prober: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> QueryExec {
        let qid = self.next_query;
        self.next_query += 1;
        if ctx.tracing() {
            ctx.emit(
                now,
                TraceRecord::QueryStart {
                    query: qid,
                    origin: prober.index() as u64,
                },
            );
        }
        let want = self.pop.sample_target(&mut self.rng_query);
        let probe_gap = self.cfg.protocol.probe_interval;
        let behavior = self.peer(prober).behavior();
        if behavior == Behavior::Selfish && ctx.after_warmup(now) {
            self.metrics.counters_mut().incr("selfish_queries");
        }
        let mut walk = self.cfg.walk(behavior);
        let me = self.slot_of(prober);

        // The probe pool: link-cache entries first, then everything the
        // query cache accumulates from pongs. The engine-owned stamp
        // vector enforces at-most-one probe per address per query
        // without a per-query set allocation, and the pool itself is the
        // engine's, reset rather than rebuilt.
        let stamp = qid + 1;
        let policy = self.cfg.protocol.query_probe;
        let mut pool = std::mem::replace(&mut self.probe_pool, ProbeQueue::new(policy));
        pool.reset(policy);
        self.query_first_visit(prober, stamp);
        let mut seed_entries = std::mem::take(&mut self.entry_scratch);
        seed_entries.clear();
        // Most of the query's cache lookups land on this block.
        let prober_cache = self.peer(prober).cache();
        self.caches.pin(prober_cache);
        seed_entries.extend_from_slice(self.caches.entries(prober_cache));
        for &e in &seed_entries {
            if self.query_first_visit(e.addr(), stamp) {
                pool.push(e, &mut self.rng_policy);
            }
        }
        self.entry_scratch = seed_entries;

        let mut ex = QueryExec {
            qid,
            target: want,
            desired: self.cfg.system.num_desired_results,
            results: 0,
            good: 0,
            dead: 0,
            refused: 0,
            // Each probe occupies 1/k of a wall-clock round.
            rounds: 0.0,
        };

        while ex.results < ex.desired {
            let Some(entry) = pool.pop() else {
                break;
            };
            let dst = entry.addr();
            // Serial probes go out one timeout apart; k-parallel walks
            // share each time slot.
            let t_probe = now + probe_gap * ex.rounds;
            if !self.ledger.pay(me, t_probe, self.metrics.counters_mut()) {
                break;
            }
            ex.rounds += 1.0 / walk.k as f64;

            let reply = self.contact(Some(prober), dst, t_probe, Message::Query(want));
            Self::trace_probe(ctx, qid, dst, ProbeKind::Query, reply, t_probe);
            ex.tally(reply);
            let res = match reply {
                ProbeReply::TimedOutDead => {
                    self.drop_dead_entry(prober, dst);
                    continue;
                }
                ProbeReply::Refused => {
                    if !self.cfg.protocol.do_backoff {
                        // A dropped probe times out; the prober assumes
                        // death and evicts — the inherent throttle.
                        self.caches.remove(prober_cache, dst);
                    }
                    continue;
                }
                ProbeReply::Answered { results } => results,
            };
            self.ledger.earn(self.slot_of(dst), t_probe);
            walk.answered(res);

            // Both sides record the interaction (§2.1): the prober resets
            // NumRes for the target; the target refreshes TS for the
            // prober if cached, and may add the prober (introduction).
            // (A no-op when `dst` was probed from the query cache and
            // has no link-cache entry.)
            self.caches.record_results(prober_cache, dst, now, res);
            let dst_cache = self.peer(dst).cache();
            self.caches.touch(dst_cache, prober, now);
            self.apply_introduction(dst, prober, now, ctx);

            // The reply's pong feeds both the query cache (the probe pool)
            // and, subject to replacement policy, the link cache. A
            // filtered source's pong is not even built.
            let counters = self.metrics.counters_mut();
            if self.reputations.filters(me, dst, counters) {
                continue;
            }
            let pong = self.build_pong(dst, self.cfg.protocol.query_pong, now);
            self.absorb_pong(prober, dst, &pong, now, ctx, |sim, entry| {
                if sim.query_first_visit(entry.addr(), stamp) {
                    pool.push(entry, &mut sim.rng_policy);
                }
            });
            self.pong_scratch = pong.entries;
        }
        self.probe_pool = pool;
        ex
    }

    /// Concludes a query: emits the `QueryEnd` record at `now` and, when
    /// `measured` (the query *started* after warm-up), records the
    /// outcome. The lane runner calls it from the last remote pong.
    pub(super) fn conclude_query<T: TraceSink>(
        &mut self,
        ex: &QueryExec,
        now: SimTime,
        response_secs: f64,
        measured: bool,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if ctx.tracing() {
            ctx.emit(
                now,
                TraceRecord::QueryEnd {
                    query: ex.qid,
                    satisfied: ex.results >= ex.desired,
                    probes: ex.good + ex.dead + ex.refused,
                    results: ex.results,
                },
            );
        }
        if measured {
            self.metrics.record_query(QueryOutcome {
                good_probes: ex.good,
                dead_probes: ex.dead,
                refused_probes: ex.refused,
                satisfied: ex.results >= ex.desired,
                response_secs,
            });
        }
    }
}
