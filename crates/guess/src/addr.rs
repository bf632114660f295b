//! Peer addressing.
//!
//! Every peer *instance* that ever joins the network gets a unique
//! [`PeerAddr`] — the moral equivalent of an IP address in the paper's
//! figures — and occupies one [`SlotId`] of the constant population.
//! When a peer dies its address stays allocated (and stays in other
//! peers' caches) but no longer answers, exactly the situation GUESS
//! cache maintenance has to cope with. The engine then remembers only
//! which slot the address held and when it died; the address is alive
//! exactly while it is its slot's current occupant.

use std::fmt;

/// A unique address for one peer instance.
///
/// Addresses are allocated monotonically by [`AddrAllocator`] and never
/// reused, so an address held in a stale cache entry always identifies the
/// same (possibly long-dead) peer. Addresses are 32-bit: a
/// [`CacheEntry`](crate::entry::CacheEntry) stays 20 bytes (24 with its
/// arena tag) and peer tables stay dense even at 10^6 slots; u32 still
/// leaves room for ~4.3 billion peer instances over a run's lifetime,
/// far beyond any churn schedule the simulators can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerAddr(u32);

impl PeerAddr {
    /// The raw address value (useful as a dense index into peer tables).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw constructor for crate-internal plumbing (arena tag rows).
    /// Never hand one of these out as a real peer identity — only
    /// [`AddrAllocator`] mints those.
    pub(crate) const fn from_raw(raw: u32) -> Self {
        PeerAddr(raw)
    }

    /// The raw 32-bit value, as the arena's tag row stores it.
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer@{}", self.0)
    }
}

/// Monotonic allocator of [`PeerAddr`]s.
///
/// # Examples
///
/// ```
/// use guess::addr::AddrAllocator;
///
/// let mut alloc = AddrAllocator::new();
/// let a = alloc.allocate();
/// let b = alloc.allocate();
/// assert_ne!(a, b);
/// assert_eq!(alloc.allocated(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddrAllocator {
    next: u32,
}

impl AddrAllocator {
    /// Creates an allocator starting at address zero.
    #[must_use]
    pub fn new() -> Self {
        AddrAllocator { next: 0 }
    }

    /// Allocates the next address.
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit address space is exhausted (would require
    /// ~4.3 billion peer instances in one run).
    pub fn allocate(&mut self) -> PeerAddr {
        let addr = PeerAddr(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("PeerAddr space exhausted (u32)");
        addr
    }

    /// Number of addresses allocated so far.
    #[must_use]
    pub fn allocated(&self) -> usize {
        self.next as usize
    }
}

/// A network *slot*: the paper keeps the population constant by birthing a
/// replacement peer whenever one dies, so each of the `NetworkSize` slots
/// is occupied by a succession of peer instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

impl SlotId {
    /// The slot as a dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// Stores `value` as the state of `slot` in a slot-indexed table: in
/// place of the previous occupant's, or appended for a fresh slot.
pub(crate) fn put_slot<V>(table: &mut Vec<V>, slot: SlotId, value: V) {
    match table.get_mut(slot.index()) {
        Some(old) => *old = value,
        None => {
            debug_assert_eq!(slot.index(), table.len(), "slots are dense");
            table.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_unique_and_monotone() {
        let mut alloc = AddrAllocator::new();
        let addrs: Vec<PeerAddr> = (0..100).map(|_| alloc.allocate()).collect();
        for w in addrs.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(alloc.allocated(), 100);
    }

    #[test]
    fn index_round_trips() {
        let mut alloc = AddrAllocator::new();
        alloc.allocate();
        let a = alloc.allocate();
        assert_eq!(a.index(), 1);
    }

    #[test]
    fn display_formats() {
        let mut alloc = AddrAllocator::new();
        assert_eq!(alloc.allocate().to_string(), "peer@0");
        assert_eq!(SlotId(3).to_string(), "slot#3");
        assert_eq!(SlotId(3).index(), 3);
    }
}
