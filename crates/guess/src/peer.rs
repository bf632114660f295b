//! Per-peer simulation state.
//!
//! The engine keeps one [`PeerState`] per network slot, describing the
//! slot's live occupant, and overwrites it in place when a death births
//! the replacement. Bulk storage does not live here: the link-cache
//! entries sit in the engine's arena behind the one handle `PeerState`
//! holds ([`crate::link_cache::CacheHandle`]), freed at death and
//! recycled by the replacement, and the library item ids in the
//! engine's `workload::population::Population`, under the same slot.
//! Neither does extension state: reputation and payments keep
//! slot-indexed tables of their own, so a `PeerState` is one 64-byte
//! cache line.
//!
//! A dead address survives only as a pointer in other peers' caches
//! (GUESS peers leave silently, §3.2), and all the engine ever asks of it
//! is whether it is alive, which slot it held and when it died. So every
//! address ever minted — including the fabricated dead addresses
//! malicious peers hand out — keeps just an `AddrRecord`; no
//! `PeerState` is ever built for a dead or fabricated address.

use simkit::time::{SimDuration, SimTime};

use crate::addr::{PeerAddr, SlotId};
use crate::capacity::CapacityMeter;
use crate::link_cache::CacheHandle;

/// Whether a peer follows the protocol, games it, or attacks it; fixed
/// at birth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Behavior {
    /// An honest peer: answers queries from its library, shares real cache
    /// entries in pongs.
    Good,
    /// An honest peer that games the system with huge probe volleys
    /// (§3.3): it answers and shares like a good peer, but its own
    /// queries ignore the configured walk width.
    Selfish,
    /// A malicious peer (§6.4): returns no results and poisons pongs with
    /// dead or colluding addresses, advertising inflated metadata.
    Malicious,
}

/// What the engine keeps per minted address: the slot the address was
/// born into and the instant it died. An address is alive exactly while
/// it is its slot's current occupant, so no liveness flag is stored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AddrRecord {
    /// The slot the address occupies or occupied;
    /// [`AddrRecord::FABRICATED`] for an address that never had one.
    pub(crate) slot: SlotId,
    /// When the address died; meaningful only once it is dead. A
    /// fabricated address counts as dead from its minting: its pointers
    /// are stale information from the moment they first circulate.
    pub(crate) died: SimTime,
}

impl AddrRecord {
    /// The slot of a fabricated address. No network reaches `u32::MAX`
    /// slots, so it is never occupied.
    pub(crate) const FABRICATED: SlotId = SlotId(u32::MAX);
}

// Millions of addresses are minted over a long churny run: the record
// must stay a slot id plus a timestamp.
const _: () = assert!(std::mem::size_of::<AddrRecord>() <= 16);

// The peer table is walked and probed at random across hundreds of
// thousands of slots: one peer is exactly one cache line.
const _: () = assert!(std::mem::size_of::<PeerState>() == 64);
const _: () = assert!(std::mem::align_of::<PeerState>() == 64);

/// The core state of one live peer. The optional extensions' per-peer
/// state lives in the engine's side tables, indexed by slot.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct PeerState {
    addr: PeerAddr,
    behavior: Behavior,
    /// Advertised shared-file count. Honest peers advertise the truth;
    /// malicious peers inflate it to game metadata-trusting policies.
    advertised_files: u32,
    cache: CacheHandle,
    capacity: CapacityMeter,
    probes_received: u64,
    ping_interval: SimDuration,
}

impl PeerState {
    /// Creates a newborn peer owning the given link-cache block.
    #[must_use]
    pub fn new(
        addr: PeerAddr,
        behavior: Behavior,
        advertised_files: u32,
        cache: CacheHandle,
        probe_limit: Option<u32>,
    ) -> Self {
        PeerState {
            addr,
            behavior,
            advertised_files,
            cache,
            capacity: CapacityMeter::with_limit(probe_limit),
            probes_received: 0,
            ping_interval: SimDuration::from_secs(30.0),
        }
    }

    /// This peer's address.
    #[must_use]
    pub fn addr(&self) -> PeerAddr {
        self.addr
    }

    /// Good, selfish or malicious.
    #[must_use]
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// True for peers that answer honestly: all but the malicious.
    #[must_use]
    pub fn is_good(&self) -> bool {
        self.behavior != Behavior::Malicious
    }

    /// The file count this peer advertises in introductions and pongs.
    #[must_use]
    pub fn advertised_files(&self) -> u32 {
        self.advertised_files
    }

    /// Handle to the peer's link cache in the engine's cache arena.
    #[must_use]
    pub fn cache(&self) -> CacheHandle {
        self.cache
    }

    /// Mutable access to the capacity meter.
    pub fn capacity_mut(&mut self) -> &mut CapacityMeter {
        &mut self.capacity
    }

    /// Total probes that have arrived at this peer (including refused
    /// ones — a refusal still costs the receiver work).
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        self.probes_received
    }

    /// Records an arriving probe for load accounting.
    pub fn note_probe_received(&mut self) {
        self.probes_received += 1;
    }

    /// The peer's current maintenance ping interval (adaptive pinging
    /// adjusts it at runtime).
    #[must_use]
    pub fn ping_interval(&self) -> SimDuration {
        self.ping_interval
    }

    /// Sets the maintenance ping interval.
    pub fn set_ping_interval(&mut self, interval: SimDuration) {
        self.ping_interval = interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;
    use crate::link_cache::CacheArena;

    fn peer_in(arena: &mut CacheArena) -> PeerState {
        let mut alloc = AddrAllocator::new();
        PeerState::new(
            alloc.allocate(),
            Behavior::Good,
            42,
            arena.alloc(),
            Some(100),
        )
    }

    fn peer() -> PeerState {
        peer_in(&mut CacheArena::new(10))
    }

    #[test]
    fn newborn_is_alive_and_good() {
        let mut arena = CacheArena::new(10);
        let p = peer_in(&mut arena);
        assert!(p.is_good());
        assert_eq!(p.advertised_files(), 42);
        assert_eq!(p.probes_received(), 0);
        assert!(!p.cache().is_null());
        assert_eq!(arena.len(p.cache()), 0);
    }

    #[test]
    fn probe_load_accumulates() {
        let mut p = peer();
        p.note_probe_received();
        p.note_probe_received();
        assert_eq!(p.probes_received(), 2);
    }

    #[test]
    fn selfish_flag_and_ping_interval_round_trip() {
        // Selfishness is a behaviour fixed at birth; a selfish peer still
        // answers honestly.
        let mut alloc = AddrAllocator::new();
        let mut p = PeerState::new(
            alloc.allocate(),
            Behavior::Selfish,
            7,
            CacheHandle::NULL,
            None,
        );
        assert_eq!(p.behavior(), Behavior::Selfish);
        assert!(p.is_good());
        p.set_ping_interval(SimDuration::from_secs(12.0));
        assert_eq!(p.ping_interval(), SimDuration::from_secs(12.0));
    }

    #[test]
    fn malicious_live_peer_is_not_good() {
        let mut alloc = AddrAllocator::new();
        let p = PeerState::new(
            alloc.allocate(),
            Behavior::Malicious,
            5000,
            CacheHandle::NULL,
            None,
        );
        assert!(!p.is_good());
        assert_eq!(p.behavior(), Behavior::Malicious);
    }
}
