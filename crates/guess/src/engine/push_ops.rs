//! Push maintenance (CUP-style: [`crate::push`], DESIGN.md §13) and the
//! ping-interval rule: the hooks the core calls when an entry lands in
//! a cache, on a ping tick and at a death, and the `PushStep` and
//! `PushFlush` handlers. Each reads the maintenance mode itself, so a
//! flip takes effect at the next call; in pull mode none touches the
//! plane.

use super::*;

/// §6.1's adaptive ping interval: the factor a peer's interval takes
/// after a ping finds its neighbor dead, and after one finds it alive.
const ON_DEAD: f64 = 0.5;
const ON_ALIVE: f64 = 1.15;

/// The bounds, in seconds, of an adaptive ping interval.
const PING_RANGE_SECS: (f64, f64) = (5.0, 300.0);

/// The push plane of `cfg`'s initial slots.
pub(super) fn plane(cfg: &Config) -> PushPlane {
    PushPlane::new(cfg.protocol.push.interest_cap, cfg.system.network_size)
}

impl GuessSim {
    /// The interval to `addr`'s next ping, after one that found its
    /// neighbor alive, dead, or probed nothing (`None`). §6.1's adaptive
    /// controller shrinks the peer's own interval on dead neighbors and
    /// stretches it on live ones; push mode relaxes what is scheduled by
    /// `ping_stretch`, as refreshes ride the rarer ping cycle.
    pub(super) fn ping_interval(&mut self, addr: PeerAddr, alive: Option<bool>) -> SimDuration {
        let protocol = &self.cfg.protocol;
        let adaptive = protocol.adaptive_ping;
        let stretch = match protocol.maintenance_mode {
            MaintenanceMode::Push => protocol.push.ping_stretch,
            _ => 1.0,
        };
        let peer = self.peer_mut(addr);
        if let (true, Some(alive)) = (adaptive, alive) {
            let factor = if alive { ON_ALIVE } else { ON_DEAD };
            let (min, max) = PING_RANGE_SECS;
            let next = (peer.ping_interval().as_secs() * factor).clamp(min, max);
            peer.set_ping_interval(SimDuration::from_secs(next));
        }
        peer.ping_interval() * stretch
    }

    /// How an honest peer picks its ping target: `PingProbe`, except in
    /// push mode, where refreshes keep live entries' TS fresh and the
    /// rarer pings audit stalest-first (LRU) to find the dead entries
    /// pushes cannot.
    pub(super) fn audit_policy(&self) -> SelectionPolicy {
        match self.cfg.protocol.maintenance_mode {
            MaintenanceMode::Push => SelectionPolicy::Lru,
            _ => self.cfg.protocol.ping_probe,
        }
    }

    /// An entry about `subject` landed in `watcher`'s cache: register
    /// the interest, piggybacked on the exchange that carried it, unless
    /// the subject cannot serve pushes (dead, malicious, unreachable).
    pub(super) fn push_register(&mut self, watcher: PeerAddr, subject: PeerAddr) {
        if self.cfg.protocol.maintenance_mode == MaintenanceMode::Pull
            || !self.is_alive(subject)
            || !self.peer(subject).is_good()
            || !self.reachable(watcher, subject)
        {
            return;
        }
        let interest = Interest {
            slot: self.slot_of(watcher),
            addr: watcher,
        };
        self.push.register(self.slot_of(subject), interest);
    }

    /// In push mode a ping tick re-publishes `addr`'s own entry: the
    /// first request in a window schedules the flush, later ones
    /// coalesce into it.
    pub(super) fn request_refresh<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        if self.cfg.protocol.maintenance_mode != MaintenanceMode::Push
            || self.push.interest(slot).is_empty()
        {
            return;
        }
        if self.push.request_refresh(slot) {
            let window = self.cfg.protocol.push.coalesce_window;
            ctx.schedule(now + window, Event::PushFlush { slot, addr });
        } else {
            self.metrics.counters_mut().incr("push_coalesced");
        }
    }

    /// The departed `addr` pushes an invalidation to every watcher. The
    /// list is drained in any mode, for the slot's next occupant.
    pub(super) fn push_obituary<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let watchers = self.push.take_interest(slot);
        if self.cfg.protocol.maintenance_mode != MaintenanceMode::Pull && !watchers.is_empty() {
            let ttl = self.cfg.protocol.push.ttl;
            self.disseminate(UpdateKind::Invalidate, addr, watchers, ttl, now, ctx);
        }
    }

    /// The end of a coalesce window: refresh the next `fanout` watchers
    /// and rotate the registry, so successive flushes cover every
    /// watcher round-robin without a relay tree. A subject that died in
    /// the window (its death pushed an invalidation), or a run flipped
    /// out of push mode, pushes nothing.
    pub(super) fn on_push_flush<T: TraceSink>(
        &mut self,
        slot: SlotId,
        addr: PeerAddr,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        self.push.clear_refresh(slot);
        if self.cfg.protocol.maintenance_mode != MaintenanceMode::Push
            || !self.is_current(slot, addr)
        {
            return;
        }
        let list = self.push.interest(slot);
        let k = self.cfg.protocol.push.fanout.min(list.len());
        if k == 0 {
            return;
        }
        let watchers = list[..k].to_vec();
        self.push.rotate(slot, k);
        let ttl = self.cfg.protocol.push.ttl;
        self.disseminate(UpdateKind::Refresh, addr, watchers, ttl, now, ctx);
    }

    /// One relay hop fires: the parked subtree disseminates from here.
    /// Updates in flight when the mode flips to pull are dropped.
    pub(super) fn on_push_step<T: TraceSink>(
        &mut self,
        id: u32,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let Some(job) = self.push.take_job(id) else {
            return;
        };
        if self.cfg.protocol.maintenance_mode == MaintenanceMode::Pull {
            self.metrics
                .counters_mut()
                .add("push_dropped", job.share.len() as u64);
            return;
        }
        self.disseminate(job.kind, job.subject, job.share, job.ttl, now, ctx);
    }

    /// One node of the CUP-style dissemination tree: deliver to the first
    /// `fanout` watchers directly, then split the residue round-robin
    /// among the watchers that accepted delivery — each forwards its
    /// share one `probe_interval` later with the TTL decremented. Shares
    /// whose relay failed (or whose TTL ran out) are lost, exactly like a
    /// broken branch of a real dissemination tree.
    fn disseminate<T: TraceSink>(
        &mut self,
        kind: UpdateKind,
        subject: PeerAddr,
        recipients: Vec<Interest>,
        ttl: u32,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) {
        let direct_n = recipients.len().min(self.cfg.protocol.push.fanout);
        let mut relays = 0usize;
        for &w in &recipients[..direct_n] {
            if self.deliver_push(kind, subject, w, now, ctx) {
                relays += 1;
            }
        }
        let residue = &recipients[direct_n..];
        if residue.is_empty() {
            return;
        }
        if relays == 0 || ttl <= 1 {
            self.metrics
                .counters_mut()
                .add("push_dropped", residue.len() as u64);
            return;
        }
        let hop = self.cfg.protocol.probe_interval;
        // Relay `r` forwards residue entries r, r + relays, r + 2·relays...
        for r in 0..relays.min(residue.len()) {
            let share = residue.iter().skip(r).step_by(relays).copied().collect();
            let ttl = ttl - 1;
            let id = self.push.enqueue_job(PushJob {
                kind,
                subject,
                ttl,
                share,
            });
            ctx.schedule(now + hop, Event::PushStep { id });
        }
    }

    /// Delivers one pushed update to one watcher. Returns whether the
    /// watcher accepted (and may therefore relay a share of the tree).
    fn deliver_push<T: TraceSink>(
        &mut self,
        kind: UpdateKind,
        subject: PeerAddr,
        w: Interest,
        now: SimTime,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> bool {
        let (counter, trace_kind) = match kind {
            UpdateKind::Invalidate => ("push_invalidations", ProbeKind::Invalidate),
            UpdateKind::Refresh => ("push_refreshes", ProbeKind::Refresh),
        };
        self.metrics.counters_mut().incr(counter);
        // `subject` may be freshly dead (invalidations), but its address
        // record keeps its slot, so the partition check is well-defined.
        let reply = self.contact(Some(subject), w.addr, now, Message::Push);
        Self::trace_probe(ctx, NO_QUERY, w.addr, trace_kind, reply, now);
        match reply {
            ProbeReply::TimedOutDead => self.metrics.counters_mut().incr("push_dropped"),
            ProbeReply::Refused => self.metrics.counters_mut().incr("push_refused"),
            ProbeReply::Answered { .. } => {
                let h = self.peer(w.addr).cache();
                match kind {
                    UpdateKind::Invalidate => {
                        self.caches.remove(h, subject);
                    }
                    UpdateKind::Refresh => {
                        self.caches.touch(h, subject, now);
                    }
                }
            }
        }
        reply.is_answered()
    }
}
