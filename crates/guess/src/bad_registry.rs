//! Slot-indexed registry of live malicious peers.
//!
//! The engine needs three pieces of adversary bookkeeping on the churn
//! hot path:
//!
//! 1. *membership* — is this dying peer a live bad peer? (every death
//!    checks);
//! 2. *uniform sampling* — `BadPongBehavior::Bad` pongs pick colluders
//!    uniformly from the live bad population;
//! 3. *fabricated pools* — each attacker that answers with
//!    `BadPongBehavior::Dead` owns a lazily allocated pool of dead
//!    addresses.
//!
//! [`BadRegistry`] keeps all three in one slab indexed by [`SlotId`], a
//! perfect dense key; the occupying [`PeerAddr`] (never reused) is the
//! generation stamp that detects stale slots. The slab is allocated by
//! the first [`insert`](BadRegistry::insert), so a run without attackers
//! pays for none of it; reads treat a missing slot as vacant.
//!
//! Determinism: `sample_indices(len, k)` draws positions into the dense
//! `members` list, so its order — [`insert`](BadRegistry::insert)
//! appends, [`remove`](BadRegistry::remove) swap-removes — is part of
//! every golden report.

use crate::addr::{PeerAddr, SlotId};

/// Per-slot adversary state. `occupant` doubles as the generation
/// stamp: it is `Some(addr)` exactly while the live peer `addr` in this
/// slot is malicious.
#[derive(Debug, Clone, Default)]
struct SlotEntry {
    occupant: Option<PeerAddr>,
    /// Position of `occupant` in `members`; meaningless when vacant.
    pos: u32,
    /// Fabricated dead-address pool of the current occupant. Cleared on
    /// removal so a later bad occupant of the same slot re-allocates.
    fabricated: Vec<PeerAddr>,
}

/// Dense bookkeeping for the live malicious population.
///
/// # Examples
///
/// ```
/// use guess::addr::{AddrAllocator, SlotId};
/// use guess::bad_registry::BadRegistry;
///
/// let mut alloc = AddrAllocator::new();
/// let (a, b) = (alloc.allocate(), alloc.allocate());
/// let mut reg = BadRegistry::new(8);
/// reg.insert(SlotId(0), a);
/// reg.insert(SlotId(3), b);
/// assert_eq!(reg.len(), 2);
/// assert_eq!(reg.member(0), a);
/// assert!(reg.remove(SlotId(0), a));
/// assert_eq!(reg.member(0), b); // b swapped into a's dense position
/// assert!(!reg.remove(SlotId(0), a)); // stamp no longer matches
/// ```
#[derive(Debug, Clone)]
pub struct BadRegistry {
    /// One entry per network slot, indexed by `SlotId::index()`; empty
    /// until the first insert, then `network_size` long.
    slots: Vec<SlotEntry>,
    /// Slots the network has, and the slab will cover once it exists.
    network_size: usize,
    /// Dense list of live bad peers for O(1) uniform sampling; each
    /// element carries its slot so removal can back-patch `pos`.
    members: Vec<(PeerAddr, SlotId)>,
}

impl BadRegistry {
    /// An empty registry for a network of `network_size` slots. It
    /// allocates nothing until a bad peer is inserted.
    #[must_use]
    pub fn new(network_size: usize) -> Self {
        BadRegistry {
            slots: Vec::new(),
            network_size,
            members: Vec::new(),
        }
    }

    /// Grows the registry to cover `network_size` slots (no-op when it
    /// already does). Mass-join interventions add slots past the
    /// construction-time population; the new slots start vacant.
    pub fn grow_to(&mut self, network_size: usize) {
        self.network_size = self.network_size.max(network_size);
        if !self.slots.is_empty() {
            self.slots.resize(self.network_size, SlotEntry::default());
        }
    }

    /// Registers the newborn bad peer `addr` occupying `slot`.
    pub fn insert(&mut self, slot: SlotId, addr: PeerAddr) {
        if self.slots.is_empty() {
            self.slots = vec![SlotEntry::default(); self.network_size];
        }
        let e = &mut self.slots[slot.index()];
        debug_assert!(e.occupant.is_none(), "slot already holds a live bad peer");
        debug_assert!(e.fabricated.is_empty(), "stale pool survived a removal");
        e.occupant = Some(addr);
        e.pos = u32::try_from(self.members.len()).expect("population fits u32");
        self.members.push((addr, slot));
    }

    /// Unregisters `addr` if it is the live bad occupant of `slot`;
    /// returns whether it was. Drops the slot's fabricated pool and
    /// keeps `members` dense by swap-removing.
    pub fn remove(&mut self, slot: SlotId, addr: PeerAddr) -> bool {
        let Some(e) = self.slots.get_mut(slot.index()) else {
            return false;
        };
        if e.occupant != Some(addr) {
            return false;
        }
        let pos = e.pos as usize;
        e.occupant = None;
        e.fabricated.clear();
        self.members.swap_remove(pos);
        if let Some(&(_, moved_slot)) = self.members.get(pos) {
            self.slots[moved_slot.index()].pos = pos as u32;
        }
        true
    }

    /// Number of live bad peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no bad peer is alive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The live bad peer at dense position `i` (for uniform sampling
    /// via `sample_indices(len, k)`).
    #[must_use]
    pub fn member(&self, i: usize) -> PeerAddr {
        self.members[i].0
    }

    /// The live bad peer occupying `slot`, if any.
    #[must_use]
    pub fn occupant(&self, slot: SlotId) -> Option<PeerAddr> {
        self.slots.get(slot.index())?.occupant
    }

    /// The fabricated dead-address pool of `slot`'s occupant (empty
    /// until [`set_pool`](Self::set_pool) fills it).
    #[must_use]
    pub fn pool(&self, slot: SlotId) -> &[PeerAddr] {
        self.slots.get(slot.index()).map_or(&[], |e| &e.fabricated)
    }

    /// Slots the slab has room for: 0 until the first insert.
    #[cfg(test)]
    pub(crate) fn table_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Installs the lazily allocated fabricated pool for `slot`.
    pub fn set_pool(&mut self, slot: SlotId, pool: Vec<PeerAddr>) {
        let e = &mut self.slots[slot.index()];
        debug_assert!(e.occupant.is_some(), "pool for a vacant slot");
        debug_assert!(e.fabricated.is_empty(), "pool allocated twice");
        e.fabricated = pool;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;

    fn addrs(n: usize) -> Vec<PeerAddr> {
        let mut alloc = AddrAllocator::new();
        (0..n).map(|_| alloc.allocate()).collect()
    }

    /// The dense list must evolve exactly like the old `live_bad` vec:
    /// append on insert, swap_remove + back-patch on remove.
    #[test]
    fn dense_order_matches_a_vec_oracle() {
        let a = addrs(6);
        let mut reg = BadRegistry::new(6);
        let mut oracle: Vec<PeerAddr> = Vec::new();
        for (i, &addr) in a.iter().enumerate() {
            reg.insert(SlotId(i as u32), addr);
            oracle.push(addr);
        }
        // Remove from the middle, the front, and the back.
        for (slot, addr) in [(2u32, a[2]), (0, a[0]), (5, a[5])] {
            let pos = oracle.iter().position(|&x| x == addr).unwrap();
            oracle.swap_remove(pos);
            assert!(reg.remove(SlotId(slot), addr));
            assert_eq!(reg.len(), oracle.len());
            for (i, &want) in oracle.iter().enumerate() {
                assert_eq!(reg.member(i), want, "dense position {i}");
            }
        }
    }

    #[test]
    fn stale_stamp_is_not_removed() {
        let a = addrs(3);
        let mut reg = BadRegistry::new(2);
        reg.insert(SlotId(0), a[0]);
        assert!(reg.remove(SlotId(0), a[0]));
        // A later bad occupant of the same slot is a different address;
        // the dead one must no longer match.
        reg.insert(SlotId(0), a[1]);
        assert!(!reg.remove(SlotId(0), a[0]));
        assert_eq!(reg.occupant(SlotId(0)), Some(a[1]));
        assert!(!reg.remove(SlotId(1), a[2]), "vacant slot");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn pool_lives_and_dies_with_the_occupant() {
        let a = addrs(4);
        let mut reg = BadRegistry::new(1);
        reg.insert(SlotId(0), a[0]);
        assert!(reg.pool(SlotId(0)).is_empty());
        reg.set_pool(SlotId(0), vec![a[2], a[3]]);
        assert_eq!(reg.pool(SlotId(0)), &[a[2], a[3]]);
        assert!(reg.remove(SlotId(0), a[0]));
        // The next occupant starts with no pool, like the old
        // per-address map after `fabricated.remove(&addr)`.
        reg.insert(SlotId(0), a[1]);
        assert!(reg.pool(SlotId(0)).is_empty());
    }

    #[test]
    fn empty_registry_reports_empty() {
        let mut reg = BadRegistry::new(4);
        let a = addrs(1);
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.occupant(SlotId(3)), None);
        assert!(reg.pool(SlotId(3)).is_empty());
        assert!(!reg.remove(SlotId(3), a[0]));
        reg.grow_to(8);
        assert_eq!(reg.occupant(SlotId(7)), None);
        assert_eq!(reg.slots.capacity(), 0, "no slot table without a bad peer");
    }

    #[test]
    fn insert_after_a_mass_join_covers_the_new_slots() {
        let a = addrs(3);
        // Grown before the table exists: the first insert sizes it.
        let mut reg = BadRegistry::new(4);
        reg.grow_to(10);
        reg.insert(SlotId(9), a[0]);
        assert_eq!(reg.occupant(SlotId(9)), Some(a[0]));
        assert_eq!(reg.slots.len(), 10);
        // Grown after: the table follows at once.
        reg.grow_to(12);
        reg.insert(SlotId(11), a[1]);
        reg.set_pool(SlotId(11), vec![a[2]]);
        assert_eq!(reg.pool(SlotId(11)), &[a[2]]);
        assert_eq!(reg.len(), 2);
        assert!(reg.remove(SlotId(9), a[0]));
        assert_eq!(reg.member(0), a[1]);
    }
}
