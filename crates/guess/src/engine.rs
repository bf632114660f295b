//! The GUESS network simulator: churn, maintenance, query execution.
//!
//! One [`GuessSim`] owns the whole simulated network and drives it with a
//! discrete-event loop. Three event families exist per peer — query bursts,
//! maintenance pings, and death — plus a periodic metrics snapshot.
//!
//! GUESS is non-forwarding: every message is one direct contact, and
//! every contact — ping, query probe, spill probe, pushed update — goes
//! through the private `GuessSim::contact`, which classifies it and
//! charges the receiver what its `Message` kind calls for. The caller's
//! kind fixes the charge; no setting can. Around it sit one of each:
//! `trace_probe`, the only `Probe` record emitter; `drop_dead_entry`,
//! the only eviction of a timed-out entry; `admit`, the only way an
//! entry reaches a link cache once the run is under way; `absorb_pong`;
//! and `seed_from_friend`, the newborn bootstrap.
//!
//! A pong's entries go to the caller's hook (the query loop's probe
//! pool) before each is offered to the cache, and both draw from the
//! policy stream, so that order is part of every golden. For the same
//! reason the pong-source filter stays with the callers: a query
//! consults it before the responder builds the pong, a ping after, and
//! building draws.
//!
//! The core here and in `query_exec` reads no extension config. Each
//! extension's rule lives in its module (`reputation`, `payments`,
//! `push_ops`, `Config::walk`), and the core makes one call per hook
//! point: birth, probe gate, contact outcome, pong source, pong entry,
//! ping tick, entry admitted and death.
//!
//! ## Fidelity notes
//!
//! * A query executes *atomically* at its start time, but its probes carry
//!   timestamps spaced `probe_interval / parallel_probes` apart, so
//!   per-second capacity meters observe the true arrival rate.
//! * A refused probe looks like a timeout to the prober: the entry is
//!   evicted ("believing it is dead", §6.3) unless `DoBackoff` is set, in
//!   which case the entry is retained but skipped for the rest of the
//!   query.

use simkit::rng::RngStream;
use simkit::scenario::{MaintenanceMode, Partition};
use simkit::sim::{Kernel, KernelParams, Runnable, SimCtx, SimReport, Simulation};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{ProbeKind, ProbeOutcome, TraceRecord, TraceSink, NO_QUERY};
use workload::population::{Clocks, Population};
use workload::query::QueryTarget;

use crate::addr::{put_slot, AddrAllocator, PeerAddr, SlotId};
use crate::bad_registry::BadRegistry;
use crate::capacity::Admission;
use crate::config::{BadPongBehavior, Config, ConfigError};
use crate::entry::CacheEntry;
use crate::graph::UnionFind;
use crate::link_cache::{CacheArena, InsertOutcome};
use crate::message::{Pong, ProbeReply};
use crate::metrics::{MetricsCollector, QueryOutcome, RunReport};
use crate::payments::Ledger;
use crate::peer::{AddrRecord, Behavior, PeerState};
use crate::policy::{select_top_k_into, ProbeQueue, SelectionPolicy};
use crate::push::{Interest, PushJob, PushPlane, UpdateKind};
use crate::reputation::Reputations;

mod lanes;
mod push_ops;
mod query_exec;
mod sampling;
mod scenario_ops;

pub use lanes::run_lanes;

/// Number of distinct fabricated dead addresses each malicious peer cycles
/// through in its poisoned pongs.
const FABRICATED_POOL_SIZE: usize = 40;

/// Inflated `NumRes` claim carried by poisoned pong entries, so that
/// results-trusting policies rank them first.
const POISON_NUM_RES: u32 = 50;

/// The engine's event alphabet (public because it is the
/// [`Simulation::Event`] associated type).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub enum Event {
    Burst {
        slot: SlotId,
        addr: PeerAddr,
    },
    Ping {
        slot: SlotId,
        addr: PeerAddr,
    },
    Death {
        slot: SlotId,
        addr: PeerAddr,
    },
    /// One relay hop of an in-flight push dissemination tree; `id` names
    /// a parked [`PushJob`] in the plane's slab.
    PushStep {
        id: u32,
    },
    /// Coalesced refresh flush for the subject occupying `slot`.
    PushFlush {
        slot: SlotId,
        addr: PeerAddr,
    },
    /// Lane mode only: a query from another lane spills over and probes
    /// one random peer of this lane for `target`. `pending` names the
    /// parked query in the origin lane's slab.
    RemoteProbe {
        src_lane: u32,
        pending: u32,
        target: QueryTarget,
    },
    /// Lane mode only: the answer to a [`Event::RemoteProbe`], routed
    /// back to the origin lane.
    RemotePong {
        pending: u32,
        reply: ProbeReply,
    },
}

/// The kind of message a contact carries, which decides how the receiver
/// is charged and whether it can answer with results.
#[derive(Debug, Clone, Copy)]
enum Message {
    /// Maintenance ping: neither counted as load nor metered — the
    /// paper's `MaxProbesPerSecond` governs query probes.
    Ping,
    /// Query probe for a target: counted as load, metered at honest
    /// peers only (attackers answer everything, with nothing).
    Query(QueryTarget),
    /// Pushed update: first-class traffic, counted and metered whoever
    /// receives it — CUP's rule that a push pays what a probe pays.
    Push,
}

/// A complete GUESS network simulation.
///
/// # Examples
///
/// ```no_run
/// use guess::config::Config;
/// use guess::engine::GuessSim;
/// use guess::Runnable;
///
/// let report = GuessSim::new(Config::default())?.run();
/// println!("probes/query = {:.1}", report.probes_per_query());
/// println!("unsatisfied  = {:.1}%", report.unsatisfaction() * 100.0);
/// # Ok::<(), guess::config::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct GuessSim {
    /// The validated configuration. Scenario parameter flips install a
    /// re-validated copy, so every read sees the current value.
    cfg: Config,
    /// Active network partition over slots. `None` means fully
    /// connected.
    partition: Option<Partition>,
    /// The live peers, indexed by `SlotId::index()`: one entry per slot,
    /// overwritten in place when a death births the replacement.
    peers: Vec<PeerState>,
    /// Pong-source reputation (§6.4's poisoning defense), per slot.
    reputations: Reputations,
    /// Probe payments (§3.3's counter to selfish volleys), per slot.
    ledger: Ledger,
    /// One record per address ever minted, indexed by
    /// `PeerAddr::index()`. Read peers through [`GuessSim::peer`], never
    /// through a record's slot alone: a dead address's slot holds
    /// somebody else.
    addrs: Vec<AddrRecord>,
    /// Every live peer's link-cache block; dead peers' blocks are freed
    /// at death and recycled by their replacements, so the arena's
    /// footprint tracks the *population*, not the churn history.
    caches: CacheArena,
    /// Every slot's content, in the model the forwarding engines search
    /// too: an honest occupant's library, a malicious one's vacancy.
    pop: Population,
    alloc: AddrAllocator,
    bad: BadRegistry,
    /// Push-maintenance state: who watches whom, plus in-flight update
    /// trees. Completely inert in `MaintenanceMode::Pull`.
    push: PushPlane,
    /// Lifetimes (drawn on `rng_churn`) and query bursts (on
    /// `rng_query`).
    clocks: Clocks,
    rng_churn: RngStream,
    rng_query: RngStream,
    rng_policy: RngStream,
    rng_intro: RngStream,
    /// Drawn from only by sampled measurement sweeps, past
    /// `metrics_sample_threshold` (see `sampling`).
    rng_metrics: RngStream,
    /// Drawn from only by the lane runner; serial runs never touch it.
    rng_remote: RngStream,
    metrics: MetricsCollector,
    next_query: u64,
    /// Per-address stamp of the last query that considered the address
    /// (query id + 1; 0 = never). See `query_first_visit`.
    query_seen: Vec<u64>,
    /// Reused copy buffer for the sites that iterate one peer's cache
    /// while mutating another's (query and newborn cache seeding).
    entry_scratch: Vec<CacheEntry>,
    /// Reused pong buffer: [`GuessSim::build_pong`] takes it, the pong's
    /// consumer hands it back, so answering a probe allocates nothing.
    pong_scratch: Vec<CacheEntry>,
    /// Reused `(key, index)` buffer of the ranked selection policies
    /// ([`crate::policy::top_k`]), so MRU, LRU, MFS and MR pongs and ping
    /// picks allocate nothing either.
    rank_scratch: Vec<(u128, usize)>,
    /// Reused query probe pool: each query resets it, so its heap stops
    /// growing once it has held the largest pool of the run.
    probe_pool: ProbeQueue,
}

impl GuessSim {
    /// Builds a simulator for `cfg` and seeds the initial population.
    ///
    /// # Errors
    ///
    /// Returns the validation error if `cfg` is inconsistent.
    pub fn new(cfg: Config) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let seed = cfg.run.seed;
        let network_size = cfg.system.network_size;
        let cache_size = cfg.protocol.cache_size;
        let pop = Population::with_capacity(network_size, cfg.catalog)
            .map_err(|_| ConfigError::BadCatalog)?;
        let clocks = Clocks::new(cfg.system.lifespan_multiplier, cfg.system.query_rate)
            .map_err(|_| ConfigError::BadQueryRate)?;
        let mut sim = GuessSim {
            partition: None,
            peers: Vec::with_capacity(network_size),
            reputations: Reputations::new(&cfg),
            ledger: Ledger::new(&cfg),
            addrs: Vec::with_capacity(network_size),
            caches: CacheArena::with_peer_capacity(cache_size, network_size),
            pop,
            alloc: AddrAllocator::new(),
            bad: BadRegistry::new(network_size),
            push: push_ops::plane(&cfg),
            cfg,
            clocks,
            rng_churn: RngStream::from_seed(seed, "churn"),
            rng_query: RngStream::from_seed(seed, "query"),
            rng_policy: RngStream::from_seed(seed, "policy"),
            rng_intro: RngStream::from_seed(seed, "intro"),
            rng_metrics: RngStream::from_seed(seed, "metrics"),
            rng_remote: RngStream::from_seed(seed, "remote"),
            metrics: MetricsCollector::new(),
            next_query: 0,
            // Pre-sized for the initial population; grows with churn.
            query_seen: vec![0; network_size],
            entry_scratch: Vec::new(),
            pong_scratch: Vec::new(),
            rank_scratch: Vec::new(),
            probe_pool: ProbeQueue::new(SelectionPolicy::Random),
        };
        sim.populate();
        Ok(sim)
    }

    /// Creates the initial population and seeds its link caches; events
    /// are scheduled once the kernel exists ([`GuessSim::schedule_initial`]).
    fn populate(&mut self) {
        let n = self.cfg.system.network_size;
        for s in 0..n {
            self.birth_peer(SlotId(s as u32), SimTime::ZERO);
        }
        // Seed link caches with pointers to random other initial peers.
        let seed_size = self.cfg.run.cache_seed_size.min(n - 1);
        for s in 0..n {
            let me = self.peers[s].addr();
            for r in self.rng_churn.sample_indices(n - 1, seed_size) {
                let other = &self.peers[if r >= s { r + 1 } else { r }];
                let entry = CacheEntry::new(other.addr(), SimTime::ZERO, other.advertised_files());
                // No kernel exists yet, so seeding evictions go untraced.
                self.admit_untraced(me, entry);
            }
        }
    }

    /// Schedules every initial peer's events into the kernel's queue.
    fn schedule_initial<T: TraceSink>(&mut self, ctx: &mut SimCtx<'_, Event, T>) {
        for s in 0..self.peers.len() {
            let addr = self.peers[s].addr();
            self.schedule_peer_events(SlotId(s as u32), addr, SimTime::ZERO, true, ctx);
        }
    }

    /// Mints the next address for `slot` ([`AddrRecord::FABRICATED`] for
    /// an address no peer will ever answer at).
    fn mint(&mut self, slot: SlotId, now: SimTime) -> PeerAddr {
        let addr = self.alloc.allocate();
        debug_assert_eq!(addr.index(), self.addrs.len());
        self.addrs.push(AddrRecord { slot, died: now });
        addr
    }

    /// True while `addr` occupies the slot it was born into. Fabricated
    /// addresses name no slot and are never alive.
    fn is_alive(&self, addr: PeerAddr) -> bool {
        let slot = self.slot_of(addr);
        self.peers
            .get(slot.index())
            .is_some_and(|p| p.addr() == addr)
    }

    /// The slot `addr` occupies, or occupied before it died.
    fn slot_of(&self, addr: PeerAddr) -> SlotId {
        self.addrs[addr.index()].slot
    }

    /// The live peer at `addr`. The caller must know `addr` is alive: a
    /// dead address's slot holds its replacement.
    fn peer(&self, addr: PeerAddr) -> &PeerState {
        let p = &self.peers[self.slot_of(addr).index()];
        debug_assert_eq!(p.addr(), addr, "{addr} is dead");
        p
    }

    /// [`GuessSim::peer`], mutably.
    fn peer_mut(&mut self, addr: PeerAddr) -> &mut PeerState {
        let slot = self.slot_of(addr);
        let p = &mut self.peers[slot.index()];
        debug_assert_eq!(p.addr(), addr, "{addr} is dead");
        p
    }

    /// Births a peer into `slot`: a fresh slot at the end of the table,
    /// or in place of the occupant that just died. An honest newborn
    /// draws its content from the population, then its behaviour; a
    /// malicious one holds a vacant slot.
    fn birth_peer(&mut self, slot: SlotId, now: SimTime) -> PeerAddr {
        let addr = self.mint(slot, now);
        let bad = self.rng_churn.chance(self.cfg.system.bad_peer_fraction);
        let rng = (!bad).then_some(&mut self.rng_churn);
        let files = if slot.index() == self.pop.len() {
            self.pop.join(rng)
        } else {
            self.pop.rebirth(slot.index(), rng)
        };
        let (behavior, advertised) = if bad {
            // Malicious peers advertise the largest plausible library to
            // game metadata-trusting policies, but hold nothing.
            (Behavior::Malicious, self.pop.max_files())
        } else {
            (self.cfg.honest_behavior(&mut self.rng_churn), files)
        };
        let mut peer = PeerState::new(
            addr,
            behavior,
            advertised,
            self.caches.alloc(),
            self.cfg.system.max_probes_per_second,
        );
        peer.set_ping_interval(self.cfg.protocol.ping_interval);
        put_slot(&mut self.peers, slot, peer);
        self.reputations.reset(slot);
        self.ledger.open(slot, now);
        match behavior {
            Behavior::Malicious => self.bad.insert(slot, addr),
            Behavior::Selfish => self.metrics.counters_mut().incr("selfish_births"),
            Behavior::Good => {}
        }
        self.metrics.counters_mut().incr("births");
        addr
    }

    /// Schedules death / ping / burst events for a (newly born) peer; the
    /// lifetime draw happens inside [`Clocks::spawn`].
    fn schedule_peer_events<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        initial: bool,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        self.clocks.spawn(
            ctx,
            &mut self.rng_churn,
            now,
            addr.index() as u64,
            Event::Death { slot, addr },
        );
        // Stagger the first ping uniformly within one interval so the
        // network's pings do not arrive in lockstep.
        let base = self.ping_interval(addr, None);
        let ping_phase = if initial {
            base * self.rng_churn.f64()
        } else {
            base
        };
        ctx.schedule(now + ping_phase, Event::Ping { slot, addr });
        if self.cfg.run.simulate_queries && self.peer(addr).is_good() {
            let gap = self.clocks.workload.sample_burst_gap(&mut self.rng_query);
            ctx.schedule(now + gap, Event::Burst { slot, addr });
        }
    }

    /// True if the event's subject still occupies its slot.
    fn is_current(&self, slot: SlotId, addr: PeerAddr) -> bool {
        self.peers[slot.index()].addr() == addr
    }

    /// True when no active partition separates `a` from `b`. Peers in
    /// different groups cannot exchange messages; to the sender the
    /// target is indistinguishable from a dead peer. Callers must check
    /// liveness first: fabricated addresses carry a meaningless slot.
    fn reachable(&self, a: PeerAddr, b: PeerAddr) -> bool {
        self.partition
            .is_none_or(|p| p.same_side(self.slot_of(a).0, self.slot_of(b).0))
    }

    // ------------------------------------------------------------------
    // The contact primitive
    // ------------------------------------------------------------------

    /// One direct message `src → dst` arriving at `at`: classifies it
    /// (timed out / refused / answered) and charges `dst` the load and
    /// capacity that `msg` calls for. `src` is `None` for a spill probe
    /// from another lane: its victim was just drawn from the live
    /// slots and no partition spans lanes, so it cannot time out.
    /// Draws nothing from any RNG stream.
    #[inline]
    fn contact(
        &mut self,
        src: Option<PeerAddr>,
        dst: PeerAddr,
        at: SimTime,
        msg: Message,
    ) -> ProbeReply {
        if let Some(src) = src {
            if !self.is_alive(dst) || !self.reachable(src, dst) {
                return ProbeReply::TimedOutDead;
            }
        }
        let peer = self.peer_mut(dst);
        let honest = peer.is_good();
        let (counted, metered) = match msg {
            Message::Ping => (false, false),
            Message::Query(_) => (true, honest),
            Message::Push => (true, true),
        };
        if counted {
            peer.note_probe_received();
        }
        if metered && peer.capacity_mut().admit(at) == Admission::Refused {
            return ProbeReply::Refused;
        }
        let results = match msg {
            Message::Query(want) if honest => {
                u32::from(self.pop.answers(self.slot_of(dst).index(), want))
            }
            _ => 0,
        };
        ProbeReply::Answered { results }
    }

    /// Emits the probe trace record of one contact. Free for
    /// untraced runs: the guard folds to `false`.
    fn trace_probe<T: TraceSink>(
        ctx: &mut SimCtx<'_, Event, T>,
        query: u64,
        target: PeerAddr,
        kind: ProbeKind,
        reply: ProbeReply,
        at: SimTime,
    ) {
        if ctx.tracing() {
            let outcome = match reply {
                ProbeReply::Answered { .. } => ProbeOutcome::Good,
                ProbeReply::TimedOutDead => ProbeOutcome::Dead,
                ProbeReply::Refused => ProbeOutcome::Refused,
            };
            ctx.emit(
                at,
                TraceRecord::Probe {
                    query,
                    target: target.index() as u64,
                    kind,
                    outcome,
                },
            );
        }
    }

    /// `owner`'s cached entry for `subject` timed out: evict it, and
    /// blame whoever shared it — a source that blame blacklists is
    /// evicted from `owner`'s link cache on the spot as well.
    fn drop_dead_entry(&mut self, owner: PeerAddr, subject: PeerAddr) {
        let h = self.peer(owner).cache();
        self.caches.remove(h, subject);
        let slot = self.slot_of(owner);
        let counters = self.metrics.counters_mut();
        if let Some(liar) = self.reputations.blame(slot, subject, counters) {
            self.caches.remove(h, liar);
        }
    }

    /// Offers `entry` to `owner`'s link cache under the replacement
    /// policy and, if it landed, registers `owner`'s push interest in
    /// the entry's subject.
    fn admit_untraced(&mut self, owner: PeerAddr, entry: CacheEntry) -> InsertOutcome {
        let policy = self.cfg.protocol.cache_replacement;
        let h = self.peer(owner).cache();
        let outcome = self.caches.offer(h, entry, policy, &mut self.rng_policy);
        if outcome != InsertOutcome::Rejected {
            self.push_register(owner, entry.addr());
        }
        outcome
    }

    /// [`GuessSim::admit_untraced`] plus the [`TraceRecord::CacheEvict`]
    /// when the offer displaced an incumbent — how every entry reaches a
    /// link cache once the run is under way.
    fn admit<T: TraceSink>(
        &mut self,
        owner: PeerAddr,
        entry: CacheEntry,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let outcome = self.admit_untraced(owner, entry);
        if ctx.tracing() {
            if let InsertOutcome::Replaced(victim) = outcome {
                ctx.emit(
                    now,
                    TraceRecord::CacheEvict {
                        owner: owner.index() as u64,
                        evicted: victim.index() as u64,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    fn on_death<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if !self.is_current(slot, addr) {
            return;
        }
        Clocks::died(ctx, now, addr.index() as u64);
        self.metrics.counters_mut().incr("deaths");
        self.addrs[addr.index()].died = now;
        let p = self.peer(addr);
        let (load, cache_h) = (p.probes_received(), p.cache());
        // The dead peer's cache block goes straight back on the free
        // list, and its library block when the population rebirths the
        // slot; its replacement (or a later newborn) recycles them.
        self.caches.free(cache_h);
        self.metrics.record_load(load);
        self.bad.remove(slot, addr);

        // Constant population: a replacement is born immediately, in
        // place of the dead peer's state.
        let newborn = self.birth_peer(slot, now);
        self.seed_from_friend(newborn, now, ctx);
        self.schedule_peer_events(slot, newborn, now, false, ctx);
        self.push_obituary(slot, addr, now, ctx);
    }

    /// The random-friend bootstrap: `newborn` copies the link cache of
    /// one uniformly drawn live peer, if the draw is reachable.
    fn seed_from_friend<T: TraceSink>(
        &mut self,
        newborn: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let Some(friend) = self
            .random_live_peer(Some(newborn))
            .filter(|&f| self.reachable(newborn, f))
        else {
            return;
        };
        let mut entries = std::mem::take(&mut self.entry_scratch);
        entries.clear();
        let fh = self.peer(friend).cache();
        entries.extend_from_slice(self.caches.entries(fh));
        for &e in &entries {
            if e.addr() != newborn {
                self.admit(newborn, e, now, ctx);
            }
        }
        self.entry_scratch = entries;
    }

    /// A uniformly random live peer, excluding `not` if given.
    fn random_live_peer(&mut self, not: Option<PeerAddr>) -> Option<PeerAddr> {
        let n = self.peers.len();
        if n == 0 {
            return None;
        }
        for _ in 0..32 {
            let cand = self.peers[self.rng_churn.below(n)].addr();
            if Some(cand) != not {
                return Some(cand);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Maintenance pings
    // ------------------------------------------------------------------

    fn on_ping<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if !self.is_current(slot, addr) {
            return;
        }
        let alive = if self.peer(addr).is_good() {
            let alive = self.good_ping(addr, now, ctx);
            self.request_refresh(slot, addr, now, ctx);
            alive
        } else {
            self.malicious_ping(addr, now, ctx);
            None
        };
        let interval = self.ping_interval(addr, alive);
        ctx.schedule(now + interval, Event::Ping { slot, addr });
    }

    /// An honest peer pings one cached neighbor chosen by `PingProbe`.
    /// Returns whether the neighbor was found alive.
    fn good_ping<T: TraceSink>(
        &mut self,
        pinger: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> Option<bool> {
        let h = self.peer(pinger).cache();
        select_top_k_into(
            self.audit_policy(),
            self.caches.entries(h),
            1,
            &mut self.rng_policy,
            &mut self.rank_scratch,
            &mut self.pong_scratch,
        );
        let entry = self.pong_scratch.first().copied()?; // empty cache: nothing to maintain
        let dst = entry.addr();
        self.metrics.counters_mut().incr("pings_sent");
        let reply = self.contact(Some(pinger), dst, now, Message::Ping);
        Self::trace_probe(ctx, NO_QUERY, dst, ProbeKind::Ping, reply, now);
        if !reply.is_answered() {
            self.drop_dead_entry(pinger, dst);
            self.metrics.counters_mut().incr("pings_dead");
            return Some(false);
        }
        // The neighbor answers: refresh our TS for it and absorb its pong.
        self.caches.touch(h, dst, now);
        self.apply_introduction(dst, pinger, now, ctx);
        let dh = self.peer(dst).cache();
        self.caches.touch(dh, pinger, now);
        // The pong is built before the source filter is consulted, so the
        // responder's selection draws happen either way.
        let pong = self.build_pong(dst, self.cfg.protocol.ping_pong, now);
        let (me, counters) = (self.slot_of(pinger), self.metrics.counters_mut());
        if !self.reputations.filters(me, dst, counters) {
            self.absorb_pong(pinger, dst, &pong, now, ctx, |_, _| {});
        }
        self.pong_scratch = pong.entries;
        self.metrics.counters_mut().incr("pings_answered");
        Some(true)
    }

    /// A malicious peer pings a random live victim purely to trigger the
    /// introduction rule and worm its way into caches.
    fn malicious_ping<T: TraceSink>(
        &mut self,
        pinger: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let Some(dst) = self.random_live_peer(Some(pinger)) else {
            return;
        };
        if self.peer(dst).is_good() && self.reachable(pinger, dst) {
            self.apply_introduction(dst, pinger, now, ctx);
        }
    }

    /// The probed/pinged peer `dst` adds the initiator to its own cache
    /// with probability `IntroProb` (§2.2).
    fn apply_introduction<T: TraceSink>(
        &mut self,
        dst: PeerAddr,
        initiator: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if !self.rng_intro.chance(self.cfg.protocol.intro_prob) {
            return;
        }
        if !self.peer(dst).is_good() {
            return; // attackers do not maintain honest caches
        }
        let advertised = self.peer(initiator).advertised_files();
        self.admit(dst, CacheEntry::new(initiator, now, advertised), now, ctx);
        self.metrics.counters_mut().incr("introductions");
    }

    /// Builds the pong `responder` attaches to a reply, honest or poisoned,
    /// in the engine's pong buffer. The caller puts `pong.entries` back in
    /// `pong_scratch` once the pong is consumed.
    fn build_pong(&mut self, responder: PeerAddr, policy: SelectionPolicy, now: SimTime) -> Pong {
        let mut entries = std::mem::take(&mut self.pong_scratch);
        if !self.peer(responder).is_good() {
            entries.clear();
            self.fill_poison_pong(responder, now, &mut entries);
        } else {
            let h = self.peer(responder).cache();
            select_top_k_into(
                policy,
                self.caches.entries(h),
                self.cfg.protocol.pong_size,
                &mut self.rng_policy,
                &mut self.rank_scratch,
                &mut entries,
            );
        }
        Pong { entries }
    }

    /// A malicious pong: dead fabricated addresses, colluder addresses, or
    /// (for the control case) real good peers — always with inflated
    /// metadata.
    fn fill_poison_pong(
        &mut self,
        attacker: PeerAddr,
        now: SimTime,
        entries: &mut Vec<CacheEntry>,
    ) {
        let k = self.cfg.protocol.pong_size;
        let inflated_files = self.pop.max_files();
        let poison = |addr| CacheEntry::from_pong(addr, now, inflated_files, POISON_NUM_RES);
        match self.cfg.system.bad_pong_behavior {
            BadPongBehavior::Dead => {
                let slot = self.ensure_fabricated_pool(attacker, now);
                let pool_len = self.bad.pool(slot).len();
                for i in self.rng_churn.sample_indices(pool_len, k) {
                    entries.push(poison(self.bad.pool(slot)[i]));
                }
            }
            BadPongBehavior::Bad => {
                // (No colluders alive: zero indices, and no draw.)
                for i in self.rng_churn.sample_indices(self.bad.len(), k) {
                    entries.push(poison(self.bad.member(i)));
                }
            }
            BadPongBehavior::Good => {
                for _ in 0..k {
                    if let Some(p) = self.random_live_peer(Some(attacker)) {
                        entries.push(poison(p));
                    }
                }
            }
        }
    }

    /// Lazily allocates `attacker`'s fabricated pool and returns the
    /// attacker's slot (the registry key the pool is stored under).
    fn ensure_fabricated_pool(&mut self, attacker: PeerAddr, now: SimTime) -> SlotId {
        let slot = self.slot_of(attacker);
        debug_assert_eq!(self.bad.occupant(slot), Some(attacker));
        if !self.bad.pool(slot).is_empty() {
            return slot;
        }
        let pool = (0..FABRICATED_POOL_SIZE)
            .map(|_| self.mint(AddrRecord::FABRICATED, now))
            .collect();
        self.bad.set_pool(slot, pool);
        slot
    }

    /// The receiver of a pong merges its entries into the link cache,
    /// honouring `ResetNumResults` (MR\*) and the pong-source reputation.
    /// `on_entry` sees each surviving entry just *before* it is offered
    /// — the query loop feeds its probe pool there, and both may draw
    /// from `rng_policy`, pool first.
    fn absorb_pong<T: TraceSink>(
        &mut self,
        receiver: PeerAddr,
        source: PeerAddr,
        pong: &Pong,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
        mut on_entry: impl FnMut(&mut Self, CacheEntry),
    ) {
        let slot = self.slot_of(receiver);
        for e in &pong.entries {
            if e.addr() == receiver {
                continue;
            }
            let mut entry = *e;
            if self.cfg.protocol.reset_num_results {
                entry.reset_num_res();
            }
            if !self.reputations.admits(slot, source, &entry) {
                continue;
            }
            on_entry(self, entry);
            self.admit(receiver, entry, now, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn on_burst<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if !self.is_current(slot, addr) {
            return;
        }
        let burst = self.clocks.workload.sample_burst_size(&mut self.rng_query);
        for _ in 0..burst {
            self.execute_query(addr, now, ctx);
        }
        let gap = self.clocks.workload.sample_burst_gap(&mut self.rng_query);
        ctx.schedule(now + gap, Event::Burst { slot, addr });
    }

    /// Ends the run: books the load of every peer still alive and hands
    /// over the collector.
    fn into_metrics(mut self) -> MetricsCollector {
        for p in &self.peers {
            self.metrics.record_load(p.probes_received());
        }
        self.metrics
    }
}

impl<T: TraceSink> Simulation<T> for GuessSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, ctx: &mut SimCtx<'_, Event, T>) {
        match event {
            Event::Death { slot, addr } => self.on_death(slot, addr, now, ctx),
            Event::Ping { slot, addr } => self.on_ping(slot, addr, now, ctx),
            Event::Burst { slot, addr } => self.on_burst(slot, addr, now, ctx),
            Event::PushStep { id } => self.on_push_step(id, now, ctx),
            Event::PushFlush { slot, addr } => self.on_push_flush(slot, addr, now, ctx),
            Event::RemoteProbe { .. } | Event::RemotePong { .. } => {
                // Intercepted by the lane runner before delegation; a
                // serial kernel never schedules them.
                debug_assert!(false, "remote events reached the serial handler");
            }
        }
    }

    fn sample(&mut self, now: SimTime) {
        self.sample_cache_health(now);
        self.sample_connectivity();
    }

    fn live_peers(&self) -> u64 {
        self.peers.len() as u64
    }
}

impl Runnable for GuessSim {
    type Report = RunReport;

    fn run_scenario_traced<T: TraceSink>(
        mut self,
        scenario: &simkit::scenario::Scenario,
        sink: T,
    ) -> Result<(RunReport, T), simkit::scenario::ScenarioError> {
        let params = KernelParams::new(self.cfg.run.duration)
            .with_warmup(self.cfg.run.warmup)
            .with_sampling(self.cfg.run.sample_interval);
        let mut kernel = Kernel::new(params, sink);
        self.schedule_initial(&mut kernel.ctx());
        kernel.run_scenario(&mut self, scenario)?;
        let mut report = self.into_metrics().finish();
        report.events_processed = kernel.events_processed();
        Ok((report, kernel.into_sink()))
    }
}

impl SimReport for RunReport {
    fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::policy::SelectionPolicy;

    fn tiny(seed: u64) -> Config {
        let mut cfg = Config::small_test(seed);
        cfg.run.duration = SimDuration::from_secs(200.0);
        cfg.run.warmup = SimDuration::from_secs(50.0);
        cfg
    }

    /// Runs `cfg` through `scenario` by hand rather than through
    /// `run_scenario`, so the engine survives the run and its tables can
    /// be inspected at the horizon.
    fn run_kept(cfg: Config, scenario: &simkit::scenario::Scenario) -> GuessSim {
        let params = KernelParams::new(cfg.run.duration).with_sampling(cfg.run.sample_interval);
        let mut kernel = Kernel::new(params, simkit::trace::NullSink);
        let mut sim = GuessSim::new(cfg).unwrap();
        sim.schedule_initial(&mut kernel.ctx());
        kernel.run_scenario(&mut sim, scenario).unwrap();
        sim
    }

    #[test]
    fn runs_to_completion_and_reports() {
        let report = GuessSim::new(tiny(1)).unwrap().run();
        assert!(report.queries > 0, "some queries must execute");
        assert!(report.probes_per_query() > 0.0);
        assert!(report.unsatisfaction() <= 1.0);
        assert!(!report.loads.is_empty());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = GuessSim::new(tiny(7)).unwrap().run();
        let b = GuessSim::new(tiny(7)).unwrap().run();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.unsatisfied, b.unsatisfied);
        assert_eq!(a.probes_per_query(), b.probes_per_query());
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.counters.get("births"), b.counters.get("births"));
    }

    #[test]
    fn death_records_the_instant_and_recycles_the_blocks() {
        let mut sim = GuessSim::new(tiny(62)).unwrap();
        let mut kernel = Kernel::new(
            KernelParams::new(sim.cfg.run.duration),
            simkit::trace::NullSink,
        );
        let slot = SlotId(7);
        let dead = sim.peers[slot.index()].addr();
        let cache = sim.peer(dead).cache();
        let t = SimTime::from_secs(12.5);
        sim.on_death(slot, dead, t, &mut kernel.ctx());

        assert!(!sim.is_alive(dead));
        assert_eq!(sim.addrs[dead.index()].died, t);
        assert_eq!(sim.slot_of(dead), slot, "a dead address keeps its slot");
        let newborn = sim.peers[slot.index()].addr();
        assert_ne!(newborn, dead);
        assert!(sim.is_alive(newborn));
        assert_eq!(sim.slot_of(newborn), slot);
        assert_eq!(sim.peers.len(), tiny(62).system.network_size);
        // The free lists held nothing else, so the replacement's cache
        // is the dead peer's block, recycled.
        assert_eq!(sim.peer(newborn).cache(), cache);
    }

    #[test]
    fn every_minted_address_is_alive_iff_it_occupies_its_slot() {
        use simkit::scenario::Scenario;
        let mut cfg = tiny(61).with_bad_peers(0.2, BadPongBehavior::Dead);
        cfg.system.lifespan_multiplier = 0.1;
        let n = cfg.system.network_size;
        let horizon = SimTime::ZERO + cfg.run.duration;
        let scenario = Scenario::new()
            .at(80.0)
            .mass_join(30)
            .at(120.0)
            .mass_leave(40);
        let mut sim = run_kept(cfg, &scenario);

        assert_eq!(sim.peers.len(), n + 30);
        assert_eq!(
            Simulation::<simkit::trace::NullSink>::live_peers(&sim),
            n as u64 + 30
        );
        assert_eq!(sim.addrs.len(), sim.alloc.allocated());
        // Each slot's occupant is recorded as born into that slot.
        for (s, p) in sim.peers.iter().enumerate() {
            assert_eq!(sim.slot_of(p.addr()).index(), s, "{}", p.addr());
        }
        let (mut alive, mut fabricated, mut born) = (0usize, 0usize, 0u64);
        for (i, rec) in sim.addrs.iter().enumerate() {
            let addr = PeerAddr::from_raw(i as u32);
            let occupant = sim.peers.get(rec.slot.index()).map(PeerState::addr);
            assert_eq!(sim.is_alive(addr), occupant == Some(addr), "{addr}");
            if rec.slot == AddrRecord::FABRICATED {
                fabricated += 1;
                assert!(!sim.is_alive(addr), "fabricated {addr} is alive");
            } else {
                born += 1;
            }
            if sim.is_alive(addr) {
                alive += 1;
            } else {
                assert!(rec.died <= horizon, "{addr} died after the horizon");
            }
        }
        assert_eq!(alive, sim.peers.len(), "one live address per slot");
        assert!(
            fabricated > 0,
            "Dead attackers must have fabricated addresses"
        );
        assert_eq!(born, sim.metrics.counters_mut().get("births"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = GuessSim::new(tiny(1)).unwrap().run();
        let b = GuessSim::new(tiny(2)).unwrap().run();
        // Astronomically unlikely to coincide exactly.
        assert!(a.probes_per_query() != b.probes_per_query() || a.queries != b.queries);
    }

    #[test]
    fn churn_replaces_peers_keeping_population_constant() {
        let mut cfg = tiny(3);
        cfg.system.lifespan_multiplier = 0.05; // aggressive churn
        let sim = GuessSim::new(cfg.clone()).unwrap();
        let n = cfg.system.network_size;
        let report = sim.run();
        assert!(
            report.counters.get("deaths") > 0,
            "peers must die under churn"
        );
        assert_eq!(
            report.counters.get("births"),
            report.counters.get("deaths") + n as u64,
            "every death births a replacement"
        );
    }

    #[test]
    fn queries_can_be_disabled() {
        let mut cfg = tiny(4);
        cfg.run.simulate_queries = false;
        let report = GuessSim::new(cfg).unwrap().run();
        assert_eq!(report.queries, 0);
        assert!(
            report.counters.get("pings_sent") > 0,
            "maintenance continues"
        );
        assert!(report.largest_component.is_some());
    }

    #[test]
    fn connectivity_sampled_and_mostly_connected_with_short_ping_interval() {
        let mut cfg = tiny(5);
        cfg.run.simulate_queries = false;
        cfg.protocol.ping_interval = SimDuration::from_secs(5.0);
        let report = GuessSim::new(cfg.clone()).unwrap().run();
        let lcc = report.largest_component.expect("sampled");
        assert!(
            lcc > cfg.system.network_size as f64 * 0.8,
            "well-maintained overlay should be mostly connected, got {lcc}"
        );
    }

    #[test]
    fn sampled_metrics_at_stride_one_match_exhaustive_exactly() {
        // Threshold 0 with sample size = N forces the sampled code path
        // (stride 1, phase 0) over every slot — the reports must be
        // byte-identical to the default exhaustive sweep.
        let exhaustive = GuessSim::new(tiny(41)).unwrap().run();
        let n = tiny(41).system.network_size;
        let sampled = GuessSim::new(tiny(41).with_metrics_sampling(0, n))
            .unwrap()
            .run();
        assert_eq!(exhaustive.queries, sampled.queries);
        assert_eq!(exhaustive.loads, sampled.loads);
        assert_eq!(exhaustive.live_fraction, sampled.live_fraction);
        assert_eq!(exhaustive.live_absolute, sampled.live_absolute);
        assert_eq!(exhaustive.good_entries, sampled.good_entries);
        assert_eq!(exhaustive.largest_component, sampled.largest_component);
        assert_eq!(exhaustive.mean_staleness, sampled.mean_staleness);
    }

    #[test]
    fn sampled_metrics_approximate_the_exhaustive_sweep() {
        // Stride-2 sampling estimates the same quantities from half the
        // slots. The non-metrics streams are untouched, so the query
        // metrics stay identical; the sampled estimates must land close.
        let mut cfg = tiny(42);
        cfg.protocol.ping_interval = SimDuration::from_secs(5.0);
        let exhaustive = GuessSim::new(cfg.clone()).unwrap().run();
        let n = cfg.system.network_size;
        let sampled = GuessSim::new(cfg.with_metrics_sampling(0, n / 2))
            .unwrap()
            .run();
        assert_eq!(exhaustive.queries, sampled.queries);
        assert_eq!(exhaustive.loads, sampled.loads);
        let (e_lcc, s_lcc) = (
            exhaustive.largest_component.unwrap(),
            sampled.largest_component.unwrap(),
        );
        assert!(
            (s_lcc - e_lcc).abs() / e_lcc < 0.25,
            "sampled LCC {s_lcc} vs exhaustive {e_lcc}"
        );
        let (e_live, s_live) = (
            exhaustive.live_fraction.unwrap(),
            sampled.live_fraction.unwrap(),
        );
        assert!(
            (s_live - e_live).abs() < 0.1,
            "sampled live fraction {s_live} vs exhaustive {e_live}"
        );
    }

    #[test]
    fn mfs_beats_random_on_probe_cost() {
        let mut base = tiny(6);
        base.run.duration = SimDuration::from_secs(400.0);
        base.run.warmup = SimDuration::from_secs(100.0);
        let random = GuessSim::new(base.clone()).unwrap().run();
        let mut mfs_cfg = base;
        mfs_cfg.protocol = mfs_cfg.protocol.with_uniform_policy(SelectionPolicy::Mfs);
        let mfs = GuessSim::new(mfs_cfg).unwrap().run();
        assert!(
            mfs.probes_per_query() < random.probes_per_query(),
            "MFS ({:.1}) should beat Random ({:.1})",
            mfs.probes_per_query(),
            random.probes_per_query()
        );
    }

    #[test]
    fn bad_peers_receive_no_result_credit() {
        let mut cfg = tiny(8);
        cfg.system.bad_peer_fraction = 0.3;
        let report = GuessSim::new(cfg).unwrap().run();
        // With 30% attackers the run must still complete and report sanely.
        assert!(report.queries > 0);
        assert!(report.good_entries.is_some());
    }

    #[test]
    fn capacity_limit_produces_refusals_under_pressure() {
        let mut cfg = tiny(9);
        cfg.system.max_probes_per_second = Some(1);
        cfg.protocol = cfg.protocol.with_uniform_policy(SelectionPolicy::Mfs);
        let report = GuessSim::new(cfg).unwrap().run();
        assert!(
            report.refused_per_query() > 0.0,
            "a 1-probe/s cap under MFS hotspotting must refuse something"
        );
    }

    #[test]
    fn unlimited_capacity_never_refuses() {
        let mut cfg = tiny(10);
        cfg.system.max_probes_per_second = None;
        let report = GuessSim::new(cfg).unwrap().run();
        assert_eq!(report.refused_per_query(), 0.0);
    }

    #[test]
    fn live_fraction_is_a_fraction() {
        let report = GuessSim::new(tiny(11)).unwrap().run();
        let f = report.live_fraction.expect("sampled");
        assert!((0.0..=1.0).contains(&f), "live fraction {f}");
        assert!(report.live_absolute.unwrap() >= 0.0);
    }

    #[test]
    fn selfish_peers_blast_wide_volleys() {
        let mut cfg = tiny(21);
        cfg.system.selfish_fraction = 0.3;
        cfg.system.selfish_parallelism = 40;
        let report = GuessSim::new(cfg).unwrap().run();
        assert!(report.counters.get("selfish_births") > 0);
        assert!(report.counters.get("selfish_queries") > 0);
        // Selfish volleys finish almost immediately; mean response falls
        // below the all-serial baseline.
        let serial = GuessSim::new(tiny(21)).unwrap().run();
        assert!(report.mean_response_secs() < serial.mean_response_secs());
    }

    #[test]
    fn selfish_volleys_inflate_load_under_capacity_limits() {
        let mut honest = tiny(22);
        honest.system.max_probes_per_second = Some(5);
        let mut selfish = honest.clone();
        selfish.system.selfish_fraction = 0.5;
        selfish.system.selfish_parallelism = 60;
        let h = GuessSim::new(honest).unwrap().run();
        let s = GuessSim::new(selfish).unwrap().run();
        assert!(
            s.refused_per_query() >= h.refused_per_query(),
            "selfish volleys should push receivers into refusal at least as hard \
             ({:.2} vs {:.2})",
            s.refused_per_query(),
            h.refused_per_query()
        );
    }

    #[test]
    fn adaptive_ping_speeds_up_under_churn() {
        let mut fixed = tiny(23);
        fixed.run.simulate_queries = false;
        fixed.system.lifespan_multiplier = 0.1; // brutal churn
        fixed.protocol.ping_interval = SimDuration::from_secs(120.0);
        let mut adaptive = fixed.clone();
        adaptive.protocol.adaptive_ping = true;
        let f = GuessSim::new(fixed).unwrap().run();
        let a = GuessSim::new(adaptive).unwrap().run();
        assert!(
            a.counters.get("pings_sent") > f.counters.get("pings_sent"),
            "dead probes should drive the adaptive interval down: {} vs {}",
            a.counters.get("pings_sent"),
            f.counters.get("pings_sent")
        );
        // In expectation faster pinging keeps caches fresher; allow noise
        // at this tiny scale.
        assert!(a.live_fraction.unwrap() >= f.live_fraction.unwrap() - 0.05);
    }

    #[test]
    fn adaptive_parallelism_trims_the_response_tail() {
        let mut fixed = tiny(24);
        fixed.run.duration = SimDuration::from_secs(300.0);
        let mut adaptive = fixed.clone();
        adaptive.protocol.adaptive_parallelism = true;
        let f = GuessSim::new(fixed).unwrap().run();
        let a = GuessSim::new(adaptive).unwrap().run();
        assert!(
            a.response_p95.unwrap() < f.response_p95.unwrap(),
            "widening walks must shrink the p95 response: {:.1}s vs {:.1}s",
            a.response_p95.unwrap(),
            f.response_p95.unwrap()
        );
    }

    #[test]
    fn probe_payments_throttle_heavy_probers() {
        use crate::payments::PaymentParams;
        let mut free = tiny(26);
        free.system.selfish_fraction = 0.4;
        free.system.selfish_parallelism = 80;
        let mut paid = free.clone();
        paid.protocol.probe_payments = Some(PaymentParams {
            initial_balance: 20.0,
            allowance_per_sec: 0.3,
            max_balance: 60.0,
            earn_per_answer: 0.5,
        });
        let free_run = GuessSim::new(free).unwrap().run();
        let paid_run = GuessSim::new(paid).unwrap().run();
        assert!(
            paid_run.counters.get("probe_budget_exhausted") > 0,
            "volley senders must run out of credit"
        );
        assert!(
            paid_run.probes_per_query() < free_run.probes_per_query(),
            "payments must curb total probing: {:.1} vs {:.1}",
            paid_run.probes_per_query(),
            free_run.probes_per_query()
        );
    }

    #[test]
    fn generous_payments_do_not_hurt_honest_traffic() {
        use crate::payments::PaymentParams;
        let base = tiny(27);
        let mut paid = base.clone();
        paid.protocol.probe_payments = Some(PaymentParams::default());
        let b = GuessSim::new(base).unwrap().run();
        let p = GuessSim::new(paid).unwrap().run();
        // Default allowances comfortably fund the honest query rate.
        assert!(
            p.unsatisfaction() < b.unsatisfaction() + 0.1,
            "honest peers should barely notice the economy: {:.3} vs {:.3}",
            p.unsatisfaction(),
            b.unsatisfaction()
        );
    }

    #[test]
    fn pong_distrust_blacklists_poisoners() {
        let mut cfg = tiny(25);
        cfg.system.bad_peer_fraction = 0.25;
        cfg.protocol = cfg.protocol.with_uniform_policy(SelectionPolicy::Mfs);
        cfg.protocol.distrust_pongs = true;
        let defended = GuessSim::new(cfg.clone()).unwrap().run();
        assert!(
            defended.counters.get("sources_blacklisted") > 0,
            "attackers sharing dead IPs must get blacklisted"
        );
        let mut undefended_cfg = cfg;
        undefended_cfg.protocol.distrust_pongs = false;
        let undefended = GuessSim::new(undefended_cfg).unwrap().run();
        assert!(
            defended.good_entries.unwrap() >= undefended.good_entries.unwrap(),
            "the filter should keep caches at least as clean: {:.1} vs {:.1}",
            defended.good_entries.unwrap(),
            undefended.good_entries.unwrap()
        );
    }

    #[test]
    fn pull_mode_never_touches_the_push_plane() {
        let report = GuessSim::new(tiny(51)).unwrap().run();
        for c in [
            "push_invalidations",
            "push_refreshes",
            "push_coalesced",
            "push_refused",
            "push_dropped",
        ] {
            assert_eq!(report.counters.get(c), 0, "{c} must stay zero in pull mode");
        }
        assert!(
            report.mean_staleness.is_some(),
            "staleness is still sampled"
        );
    }

    #[test]
    fn push_registry_is_sized_on_first_use() {
        use simkit::scenario::{Param, Scenario};
        let mut cfg = tiny(53);
        cfg.system.lifespan_multiplier = 0.1; // churn so deaths trigger pushes

        // A pull run, mass join included, never sizes the registry.
        let joins = Scenario::new().at(60.0).mass_join(20);
        let pull = run_kept(cfg.clone(), &joins);
        assert!(
            !pull.push.is_allocated(),
            "a pull run allocated the registry"
        );
        assert_eq!(pull.push.slots(), pull.peers.len());
        // Flipped to push mid-run, the plane sizes itself on the first
        // registration and pushes.
        let flip = Scenario::new()
            .at(60.0)
            .mass_join(20)
            .at(80.0)
            .param_flip(Param::MaintenanceMode(MaintenanceMode::Push));
        let mut push = run_kept(cfg, &flip);
        assert!(push.push.is_allocated());
        let watched = (0..push.peers.len())
            .filter(|&s| !push.push.interest(SlotId(s as u32)).is_empty())
            .count();
        assert!(watched > 0, "no subject has a registered watcher");
        let counters = push.metrics.counters_mut();
        assert!(
            counters.get("push_invalidations") + counters.get("push_refreshes") > 0,
            "push traffic must flow after the flip"
        );
    }

    #[test]
    fn extension_side_tables_are_empty_unless_configured() {
        let mut cfg = tiny(54);
        cfg.system.lifespan_multiplier = 0.1;
        let off = run_kept(cfg.clone(), &simkit::scenario::Scenario::new());
        assert_eq!(off.reputations.len(), 0);
        assert_eq!(off.ledger.len(), 0);

        let params = crate::payments::PaymentParams::default();
        let cfg = cfg
            .with_distrust_pongs(true)
            .with_probe_payments(Some(params));
        let mut sim = GuessSim::new(cfg).unwrap();
        assert_eq!(sim.reputations.len(), sim.peers.len());
        assert_eq!(sim.ledger.len(), sim.peers.len());
        // Give slot 7's occupant a blacklist and an empty purse ...
        let slot = SlotId(7);
        let dead = sim.peers[slot.index()].addr();
        let liar = teach_a_liar(&mut sim, slot);
        assert!(sim.reputations.tracker_mut(slot).is_blacklisted(liar));
        let t = SimTime::from_secs(3.0);
        let mut counters = simkit::stats::CounterSet::default();
        while sim.ledger.pay(slot, t, &mut counters) {}
        // ... then kill it: the replacement starts with neither.
        let mut kernel = Kernel::new(
            KernelParams::new(sim.cfg.run.duration),
            simkit::trace::NullSink,
        );
        sim.on_death(slot, dead, t, &mut kernel.ctx());
        let newborn = sim.peers[slot.index()].addr();
        assert_ne!(newborn, dead);
        assert_eq!(sim.reputations.tracker_mut(slot).blacklisted_count(), 0);
        let opened = crate::payments::ProbeAccount::new(&params, t).balance(&params, t);
        assert_eq!(sim.ledger.balance(slot, t), opened);
        assert_eq!(sim.reputations.len(), sim.peers.len());
        assert_eq!(sim.ledger.len(), sim.peers.len());
    }

    /// The attacker slab costs nothing in a run without attackers, even
    /// through a mass join, and covers every slot once one is born.
    #[test]
    fn bad_registry_table_waits_for_an_attacker() {
        use simkit::scenario::Scenario;
        let joins = Scenario::new().at(60.0).mass_join(20);
        let honest = run_kept(tiny(55), &joins);
        assert!(honest.bad.is_empty());
        assert_eq!(honest.bad.table_capacity(), 0);

        let cfg = tiny(55).with_bad_peers(0.2, BadPongBehavior::Dead);
        let hostile = run_kept(cfg, &joins);
        assert!(!hostile.bad.is_empty());
        assert!(hostile.bad.table_capacity() >= hostile.peers.len());
    }

    /// Makes the occupant of `slot` blame eight dead pointers on one
    /// source, which blacklists it, and returns that source.
    fn teach_a_liar(sim: &mut GuessSim, slot: SlotId) -> PeerAddr {
        let mut alloc = AddrAllocator::new();
        let liar = alloc.allocate();
        for _ in 0..8 {
            let fake = alloc.allocate();
            let tracker = sim.reputations.tracker_mut(slot);
            tracker.note_shared(liar, fake);
            tracker.note_dead(fake);
        }
        liar
    }

    #[test]
    fn reputation_is_per_peer() {
        let cfg = tiny(55).with_distrust_pongs(true);
        let mut sim = GuessSim::new(cfg).unwrap();
        let (a, b) = (SlotId(0), SlotId(1));
        let liar = teach_a_liar(&mut sim, a);
        assert!(sim.reputations.tracker_mut(a).is_blacklisted(liar));
        assert!(!sim.reputations.tracker_mut(b).is_blacklisted(liar));
        assert_eq!(sim.reputations.tracker_mut(b).blacklisted_count(), 0);
    }

    #[test]
    fn hybrid_mode_pushes_invalidations_on_death() {
        let mut cfg = tiny(52);
        cfg.system.lifespan_multiplier = 0.1; // heavy churn
        let hybrid = cfg.clone().with_maintenance_mode(MaintenanceMode::Hybrid);
        let pull = GuessSim::new(cfg).unwrap().run();
        let hy = GuessSim::new(hybrid).unwrap().run();
        assert!(
            hy.counters.get("push_invalidations") > 0,
            "deaths of watched subjects must push invalidations"
        );
        assert_eq!(
            hy.counters.get("push_refreshes"),
            0,
            "hybrid pushes invalidations only"
        );
        // Hybrid pings at the full pull rate; the pull-side volume is
        // driven by the same churn stream, so it stays in the same
        // ballpark rather than being stretched away.
        assert!(hy.counters.get("pings_sent") > pull.counters.get("pings_sent") / 2);
    }

    #[test]
    fn push_mode_stretches_pings_and_pushes_refreshes() {
        let mut cfg = tiny(53);
        cfg.system.lifespan_multiplier = 0.2;
        cfg.run.duration = SimDuration::from_secs(400.0);
        cfg.run.warmup = SimDuration::from_secs(100.0);
        let pushed = cfg.clone().with_maintenance_mode(MaintenanceMode::Push);
        let pull = GuessSim::new(cfg).unwrap().run();
        let push = GuessSim::new(pushed).unwrap().run();
        assert!(
            push.counters.get("pings_sent") < pull.counters.get("pings_sent"),
            "the ping stretch must cut pull volume: {} vs {}",
            push.counters.get("pings_sent"),
            pull.counters.get("pings_sent")
        );
        assert!(
            push.counters.get("push_refreshes") > 0,
            "subjects with watchers must push refreshes"
        );
        assert!(push.counters.get("push_invalidations") > 0);
    }

    #[test]
    fn push_mode_cuts_staleness_at_lower_maintenance_volume() {
        // The tentpole tradeoff at test scale: under churn, push-mode
        // invalidations purge the stalest (dead) entries and refreshes
        // re-date watched entries, while the ping stretch cuts the pull
        // bandwidth — staleness and message volume both drop.
        let mut cfg = tiny(54);
        cfg.system.lifespan_multiplier = 0.2;
        cfg.run.duration = SimDuration::from_secs(400.0);
        cfg.run.warmup = SimDuration::from_secs(100.0);
        let pushed = cfg.clone().with_maintenance_mode(MaintenanceMode::Push);
        let pull = GuessSim::new(cfg).unwrap().run();
        let push = GuessSim::new(pushed).unwrap().run();
        let pull_msgs = pull.counters.get("pings_sent");
        let push_msgs = push.counters.get("pings_sent")
            + push.counters.get("push_invalidations")
            + push.counters.get("push_refreshes");
        assert!(
            push_msgs <= pull_msgs,
            "push maintenance must not cost more messages: {push_msgs} vs {pull_msgs}"
        );
        assert!(
            push.mean_staleness.unwrap() < pull.mean_staleness.unwrap(),
            "push maintenance must keep entries fresher: {:.1}s vs {:.1}s",
            push.mean_staleness.unwrap(),
            pull.mean_staleness.unwrap()
        );
    }

    #[test]
    fn parallel_probes_cut_response_time() {
        let mut serial = tiny(12);
        serial.run.duration = SimDuration::from_secs(300.0);
        let mut parallel = serial.clone();
        parallel.protocol.parallel_probes = 5;
        let rs = GuessSim::new(serial).unwrap().run();
        let rp = GuessSim::new(parallel).unwrap().run();
        assert!(
            rp.mean_response_secs() < rs.mean_response_secs(),
            "k=5 ({:.2}s) must answer faster than serial ({:.2}s)",
            rp.mean_response_secs(),
            rs.mean_response_secs()
        );
    }
}
