//! Push-based cache maintenance plane (CUP-style).
//!
//! GUESS as specified keeps link caches fresh purely by *pulling*: periodic
//! pings elicit pongs, and a stale entry lingers until the next probe
//! discovers it dead. This module adds the bookkeeping for the opposite
//! discipline, modeled on CUP (Roussopoulos & Baker): peers that learned of
//! a cache entry via a pong **register interest** with the entry's subject,
//! and the subject **pushes** controlled updates — invalidations when it
//! dies or leaves, refreshes on its periodic maintenance cycle — along
//! those interest edges.
//!
//! The plane itself is pure state; the engine drives it (its
//! `push_ops` module):
//!
//! * **Interest registry** — per-slot bounded lists of watchers. A watcher
//!   is recorded as `(slot, addr)` so delivery can detect that the watcher
//!   instance has since died and its slot was recycled. Lists are capped at
//!   `interest_cap`; the oldest registration is evicted first, which keeps
//!   per-subject push fan-in bounded no matter how widely a pong travels.
//! * **Dissemination jobs** — in-flight nodes of CUP's TTL-bounded update
//!   trees, in a free-list slab so the scheduled [`engine`](crate::engine)
//!   event carries only a `u32` id.
//! * **Coalescing flags** — at most one refresh flush is pending per slot;
//!   further refresh requests inside the coalesce window merge into it.
//!
//! On death a subject's interest list drains into a tree: `fanout`
//! direct deliveries, the rest split among them as relay lists for up to
//! `ttl` hops. In push mode a subject's stretched ping cycle doubles as
//! its refresh cycle, delivering to at most `fanout` watchers in
//! round-robin order, and pings audit the stalest entry first (LRU):
//! refreshes keep re-dating live entries, so the rarer pings converge on
//! the entries nothing vouches for — the dead ones, whose removal is the
//! one job pushes cannot do. The defaults' reasons are on
//! [`PushParams`](crate::config::PushParams); the staleness measure is
//! `RunReport::mean_staleness`.
//!
//! Nothing here draws randomness or schedules events, and the per-slot
//! tables are sized on the first registration or refresh request, so a
//! [`MaintenanceMode::Pull`](crate::MaintenanceMode) run is unaffected.

use crate::addr::{PeerAddr, SlotId};

/// A registered watcher: a peer holding the subject's cache entry.
///
/// The slot pins the watcher to its incarnation: if the watcher dies and
/// its slot is reborn under a new address, `(slot, addr)` no longer names
/// the current occupant and delivery is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Slot the watcher occupied when it registered.
    pub slot: SlotId,
    /// The watcher's peer address.
    pub addr: PeerAddr,
}

/// What a pushed update does at the recipient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// The subject died or left: drop its entry from the watcher's cache.
    Invalidate,
    /// The subject re-published: touch its entry's timestamp.
    Refresh,
}

/// One in-flight node of a dissemination tree.
///
/// Created by the engine when a subtree is delegated to a relay; consumed
/// when the scheduled `PushStep` event fires.
#[derive(Debug, Clone)]
pub struct PushJob {
    /// Update semantics applied at each recipient.
    pub kind: UpdateKind,
    /// The peer the update is about.
    pub subject: PeerAddr,
    /// Remaining relay hops; the engine drops the residue at zero.
    pub ttl: u32,
    /// Watchers this node must cover (directly or via further relays).
    pub share: Vec<Interest>,
}

/// State for the push maintenance plane: interest registry, coalescing
/// flags, and the slab of in-flight dissemination jobs.
#[derive(Debug)]
pub struct PushPlane {
    cap: usize,
    /// Network slots covered, whether or not the tables are allocated.
    slots: usize,
    /// Per-slot watcher lists and refresh flags: empty until the first
    /// `register` or `request_refresh`, then `slots` long.
    interest: Vec<Vec<Interest>>,
    refresh_pending: Vec<bool>,
    jobs: Vec<Option<PushJob>>,
    free: Vec<u32>,
}

impl PushPlane {
    /// Creates a plane for `slots` network slots with per-subject interest
    /// lists capped at `interest_cap` watchers. The per-slot tables are
    /// allocated on first use.
    ///
    /// # Panics
    ///
    /// Panics if `interest_cap` is zero (validated upstream by
    /// [`Config::validate`](crate::config::Config::validate)).
    #[must_use]
    pub fn new(interest_cap: usize, slots: usize) -> Self {
        assert!(interest_cap > 0, "interest cap must be positive");
        PushPlane {
            cap: interest_cap,
            slots,
            interest: Vec::new(),
            refresh_pending: Vec::new(),
            jobs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Grows the per-slot tables to cover `slots` slots (no-op if already
    /// that large). Called when a scenario mass-join widens the network.
    pub fn grow_to(&mut self, slots: usize) {
        if slots > self.slots {
            self.slots = slots;
            if self.is_allocated() {
                self.allocate();
            }
        }
    }

    /// Number of slots the plane currently covers.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// True once a registration or refresh request sized the per-slot
    /// tables.
    pub(crate) fn is_allocated(&self) -> bool {
        !self.interest.is_empty()
    }

    /// Sizes the per-slot tables to cover every slot.
    #[cold]
    fn allocate(&mut self) {
        self.interest.resize(self.slots, Vec::new());
        self.refresh_pending.resize(self.slots, false);
    }

    /// Registers `watcher` on the subject occupying `subject_slot`.
    ///
    /// Duplicate registrations (same watcher address) are ignored. When the
    /// list is full the oldest registration is evicted. Returns `true` if
    /// the watcher was newly added.
    pub fn register(&mut self, subject_slot: SlotId, watcher: Interest) -> bool {
        if !self.is_allocated() {
            self.allocate();
        }
        let list = &mut self.interest[subject_slot.index()];
        if list.iter().any(|w| w.addr == watcher.addr) {
            return false;
        }
        if list.len() == self.cap {
            list.remove(0);
        }
        list.push(watcher);
        true
    }

    /// The current watchers of the subject occupying `slot`.
    #[must_use]
    pub fn interest(&self, slot: SlotId) -> &[Interest] {
        self.interest.get(slot.index()).map_or(&[], Vec::as_slice)
    }

    /// Drains and returns the watcher list for `slot`, leaving it empty
    /// (and deallocated) for the slot's next occupant. Called on death so
    /// the final invalidation consumes the registry.
    #[must_use]
    pub fn take_interest(&mut self, slot: SlotId) -> Vec<Interest> {
        self.interest
            .get_mut(slot.index())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Requests a refresh flush for `slot`.
    ///
    /// Returns `true` if no flush was pending — the caller must then
    /// schedule one. Returns `false` if a flush is already scheduled; the
    /// request coalesces into it.
    pub fn request_refresh(&mut self, slot: SlotId) -> bool {
        if !self.is_allocated() {
            self.allocate();
        }
        let pending = &mut self.refresh_pending[slot.index()];
        if *pending {
            false
        } else {
            *pending = true;
            true
        }
    }

    /// Clears the pending-refresh flag for `slot`. Called when the
    /// scheduled flush event fires (whether or not the subject survived).
    pub fn clear_refresh(&mut self, slot: SlotId) {
        if let Some(pending) = self.refresh_pending.get_mut(slot.index()) {
            *pending = false;
        }
    }

    /// Rotates the first `k` watchers of `slot` to the back of the list.
    /// Refresh flushes are fan-out-limited (unlike invalidations, which
    /// walk the whole tree), so successive flushes rotate through the
    /// registry and cover every watcher round-robin.
    pub fn rotate(&mut self, slot: SlotId, k: usize) {
        if let Some(list) = self.interest.get_mut(slot.index()) {
            let k = k.min(list.len());
            list.rotate_left(k);
        }
    }

    /// Parks an in-flight dissemination job and returns its slab id, for
    /// embedding in a scheduled event. Freed ids are recycled.
    pub fn enqueue_job(&mut self, job: PushJob) -> u32 {
        if let Some(id) = self.free.pop() {
            self.jobs[id as usize] = Some(job);
            id
        } else {
            let id = u32::try_from(self.jobs.len()).expect("push job slab overflow");
            self.jobs.push(Some(job));
            id
        }
    }

    /// Removes and returns the job with slab id `id`, recycling the slot.
    /// Returns `None` if the id was already consumed.
    pub fn take_job(&mut self, id: u32) -> Option<PushJob> {
        let job = self.jobs.get_mut(id as usize)?.take();
        if job.is_some() {
            self.free.push(id);
        }
        job
    }

    /// Number of dissemination jobs currently in flight.
    #[must_use]
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(raw: u32) -> Interest {
        Interest {
            slot: SlotId(raw),
            addr: PeerAddr::from_raw(raw + 100),
        }
    }

    #[test]
    fn register_dedups_and_caps_with_oldest_out_first() {
        let mut p = PushPlane::new(3, 4);
        let s = SlotId(1);
        assert!(p.register(s, w(0)));
        assert!(!p.register(s, w(0)), "duplicate watcher is ignored");
        assert!(p.register(s, w(1)));
        assert!(p.register(s, w(2)));
        assert_eq!(p.interest(s).len(), 3);
        // Fourth watcher evicts the oldest (w0).
        assert!(p.register(s, w(3)));
        assert_eq!(p.interest(s).len(), 3);
        assert!(!p.interest(s).iter().any(|i| i.addr == w(0).addr));
        assert!(p.interest(s).iter().any(|i| i.addr == w(3).addr));
        // Other slots are untouched.
        assert!(p.interest(SlotId(0)).is_empty());
    }

    #[test]
    fn take_interest_drains_for_the_next_occupant() {
        let mut p = PushPlane::new(4, 2);
        let s = SlotId(0);
        p.register(s, w(5));
        p.register(s, w(6));
        let drained = p.take_interest(s);
        assert_eq!(drained.len(), 2);
        assert!(p.interest(s).is_empty());
        // The slot accepts fresh registrations afterwards.
        assert!(p.register(s, w(7)));
        assert_eq!(p.interest(s).len(), 1);
    }

    #[test]
    fn refresh_requests_coalesce_until_cleared() {
        let mut p = PushPlane::new(2, 2);
        let s = SlotId(1);
        assert!(p.request_refresh(s), "first request schedules a flush");
        assert!(!p.request_refresh(s), "second request coalesces");
        assert!(!p.request_refresh(s));
        p.clear_refresh(s);
        assert!(p.request_refresh(s), "flag resets after the flush fires");
        // Slots are independent.
        assert!(p.request_refresh(SlotId(0)));
    }

    #[test]
    fn rotate_cycles_watchers_round_robin() {
        let mut p = PushPlane::new(4, 2);
        let s = SlotId(0);
        for i in 0..4 {
            p.register(s, w(i));
        }
        p.rotate(s, 2);
        let order: Vec<_> = p.interest(s).iter().map(|i| i.addr).collect();
        assert_eq!(order, vec![w(2).addr, w(3).addr, w(0).addr, w(1).addr]);
        // Over-long rotations clamp to the list length.
        p.rotate(s, 99);
        assert_eq!(p.interest(s).len(), 4);
        p.rotate(SlotId(1), 3); // empty list: no-op
    }

    #[test]
    fn job_slab_recycles_ids() {
        let mut p = PushPlane::new(2, 1);
        let job = |ttl| PushJob {
            kind: UpdateKind::Invalidate,
            subject: PeerAddr::from_raw(9),
            ttl,
            share: vec![w(0)],
        };
        let a = p.enqueue_job(job(3));
        let b = p.enqueue_job(job(2));
        assert_ne!(a, b);
        assert_eq!(p.jobs_in_flight(), 2);
        let got = p.take_job(a).expect("job present");
        assert_eq!(got.ttl, 3);
        assert!(p.take_job(a).is_none(), "double take yields nothing");
        assert_eq!(p.jobs_in_flight(), 1);
        // The freed id is reused before the slab grows.
        let c = p.enqueue_job(job(1));
        assert_eq!(c, a);
        assert_eq!(p.jobs_in_flight(), 2);
        assert_eq!(p.take_job(c).expect("recycled job").ttl, 1);
        assert_eq!(p.take_job(b).expect("job present").ttl, 2);
        assert_eq!(p.jobs_in_flight(), 0);
    }

    #[test]
    fn grow_to_widens_without_losing_state() {
        let mut p = PushPlane::new(2, 2);
        p.register(SlotId(1), w(3));
        assert!(p.request_refresh(SlotId(0)));
        p.grow_to(5);
        assert_eq!(p.slots(), 5);
        assert_eq!(p.interest(SlotId(1)).len(), 1);
        assert!(!p.request_refresh(SlotId(0)), "flag survives the resize");
        assert!(p.interest(SlotId(4)).is_empty());
        // Shrinking is a no-op.
        p.grow_to(3);
        assert_eq!(p.slots(), 5);
    }

    #[test]
    fn tables_are_allocated_on_first_use() {
        let mut p = PushPlane::new(2, 3);
        // Reads, drains and clears of an untouched plane allocate nothing.
        assert!(p.interest(SlotId(2)).is_empty());
        assert!(p.take_interest(SlotId(1)).is_empty());
        p.clear_refresh(SlotId(0));
        p.rotate(SlotId(0), 1);
        p.grow_to(4);
        assert!(!p.is_allocated());
        assert_eq!(p.slots(), 4);
        // The first registration sizes the tables for every slot.
        assert!(p.register(SlotId(3), w(1)));
        assert!(p.is_allocated());
        assert_eq!(p.interest(SlotId(3)).len(), 1);
        p.grow_to(6);
        assert!(p.request_refresh(SlotId(5)));
        assert!(PushPlane::new(2, 3).request_refresh(SlotId(2)));
    }
}
