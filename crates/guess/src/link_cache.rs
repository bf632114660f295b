//! The link cache — a GUESS peer's bounded set of neighbor pointers.
//!
//! The link cache holds at most `CacheSize` entries, one per distinct peer
//! address, and is the only state a peer actively maintains (§2.2). New
//! entries arrive from pongs and introductions; full caches admit a new
//! entry only by evicting a victim chosen by the `CacheReplacement` policy
//! — the incoming entry itself competes as a candidate, so an entry "worse"
//! than everything already cached is simply not admitted.
//!
//! [`LinkCache`] is the reference form; the engine stores every cache in
//! a [`CacheArena`], whose lock-step test against it pins the same
//! outcomes and draws. Lookups dominate a query's cost, so the arena
//! scans a tag row of bare addresses and pins the querier's block behind
//! a position index. Rejected: a per-block hash index costs about as
//! much memory as the entries it indexes; 16-bit fingerprint tags still
//! load the entry on every hit, which lost on cold blocks; pinning for
//! pings, whose handful of lookups costs less than a pin's index writes;
//! and a shared slab with size classes, which strands the regions a
//! growing block leaves, since births recycle whole blocks.

use simkit::hash::{self, FxHashMap};
use simkit::rng::RngStream;
use simkit::time::SimTime;

use crate::addr::PeerAddr;
use crate::entry::CacheEntry;
use crate::policy::{retention_key, weakest, ReplacementPolicy};

/// What happened when an entry was offered to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry was added to free space.
    Inserted,
    /// The entry was added after evicting the returned address.
    Replaced(PeerAddr),
    /// The entry lost the eviction contest and was not admitted.
    Rejected,
    /// An entry for the same address already exists; nothing changed.
    AlreadyPresent,
}

/// A bounded, deduplicated cache of [`CacheEntry`]s with policy-driven
/// eviction.
///
/// # Examples
///
/// ```
/// use guess::addr::AddrAllocator;
/// use guess::entry::CacheEntry;
/// use guess::link_cache::LinkCache;
/// use guess::policy::ReplacementPolicy;
/// use simkit::rng::RngStream;
/// use simkit::time::SimTime;
///
/// let mut alloc = AddrAllocator::new();
/// let mut rng = RngStream::from_seed(1, "doc");
/// let mut cache = LinkCache::new(2);
/// let a = CacheEntry::new(alloc.allocate(), SimTime::ZERO, 10);
/// cache.offer(a, ReplacementPolicy::Lfs, &mut rng);
/// assert!(cache.contains(a.addr()));
/// ```
#[derive(Debug, Clone)]
pub struct LinkCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    index: FxHashMap<PeerAddr, usize>,
}

impl LinkCache {
    /// Creates an empty cache with the given capacity (`CacheSize`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a GUESS peer with no neighbor slots
    /// cannot participate at all.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "link cache capacity must be positive");
        LinkCache {
            capacity,
            entries: Vec::with_capacity(capacity),
            // Pre-sized: the cache lives at or near capacity for the whole
            // run, so the index never rehashes.
            index: hash::map_with_capacity(capacity),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true if the cache is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Membership test by address.
    #[must_use]
    pub fn contains(&self, addr: PeerAddr) -> bool {
        self.index.contains_key(&addr)
    }

    /// Borrows the entry for `addr`, if cached.
    #[must_use]
    pub fn get(&self, addr: PeerAddr) -> Option<&CacheEntry> {
        self.index.get(&addr).map(|&i| &self.entries[i])
    }

    /// All entries, in no particular order.
    #[must_use]
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Iterates over the cached entries.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.iter()
    }

    /// Refreshes the `TS` of the entry for `addr`, if cached. Returns true
    /// if an entry was touched.
    pub fn touch(&mut self, addr: PeerAddr, now: SimTime) -> bool {
        if let Some(&i) = self.index.get(&addr) {
            self.entries[i].touch(now);
            true
        } else {
            false
        }
    }

    /// Records a query-probe outcome against the entry for `addr` (refresh
    /// `TS`, overwrite `NumRes`). Returns true if an entry was updated.
    pub fn record_results(&mut self, addr: PeerAddr, now: SimTime, results: u32) -> bool {
        if let Some(&i) = self.index.get(&addr) {
            self.entries[i].record_results(now, results);
            true
        } else {
            false
        }
    }

    /// Removes the entry for `addr` (a dead or refused neighbor). Returns
    /// the removed entry, if any.
    pub fn remove(&mut self, addr: PeerAddr) -> Option<CacheEntry> {
        let i = self.index.remove(&addr)?;
        let removed = self.entries.swap_remove(i);
        if i < self.entries.len() {
            let moved = self.entries[i].addr();
            self.index.insert(moved, i);
        }
        Some(removed)
    }

    /// Offers a new entry under the given `CacheReplacement` policy.
    ///
    /// If an entry for the address already exists, nothing changes (pong
    /// entries never overwrite cached metadata, §2.2). If there is free
    /// space the entry is inserted. Otherwise the policy picks an eviction
    /// victim among the cached entries *and the incoming entry*; the loser
    /// is dropped.
    pub fn offer(
        &mut self,
        entry: CacheEntry,
        policy: ReplacementPolicy,
        rng: &mut RngStream,
    ) -> InsertOutcome {
        if self.contains(entry.addr()) {
            return InsertOutcome::AlreadyPresent;
        }
        if !self.is_full() {
            self.insert_unchecked(entry);
            return InsertOutcome::Inserted;
        }
        if policy == ReplacementPolicy::Random {
            // O(1) fast path, distributionally identical to the generic
            // contest below: the victim is uniform among the n incumbents
            // plus the newcomer.
            let r = rng.below(self.entries.len() + 1);
            if r == self.entries.len() {
                return InsertOutcome::Rejected;
            }
            let victim_addr = self.entries[r].addr();
            self.remove(victim_addr);
            self.insert_unchecked(entry);
            return InsertOutcome::Replaced(victim_addr);
        }
        // Eviction contest: does the newcomer beat the weakest incumbent?
        // Written out per entry, not through `policy::weakest`, so the
        // arena's lock-step tests check that kernel against this form.
        let new_key = retention_key(policy, &entry, rng);
        let weakest = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (retention_key(policy, e, rng), i))
            .min()
            .expect("cache is full, therefore non-empty");
        if new_key <= weakest.0 {
            return InsertOutcome::Rejected;
        }
        let victim_addr = self.entries[weakest.1].addr();
        self.remove(victim_addr);
        self.insert_unchecked(entry);
        InsertOutcome::Replaced(victim_addr)
    }

    fn insert_unchecked(&mut self, entry: CacheEntry) {
        debug_assert!(!self.contains(entry.addr()));
        debug_assert!(self.entries.len() < self.capacity);
        self.index.insert(entry.addr(), self.entries.len());
        self.entries.push(entry);
    }
}

/// Handle to one peer's cache block in a [`CacheArena`].
///
/// 4 bytes of peer state instead of an owned [`LinkCache`] (a `Vec`
/// header, a hash index, and their heap blocks). [`CacheHandle::NULL`]
/// names no block: reads through it see an empty cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHandle(u32);

impl CacheHandle {
    /// The null handle: no backing block; reads yield an empty cache.
    pub const NULL: CacheHandle = CacheHandle(u32::MAX);

    /// Returns true for the null handle.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == u32::MAX
    }
}

/// Arena of link caches, one block per live peer.
///
/// Every cache in a run shares the same capacity (`CacheSize` is not a
/// scenario-flippable parameter), but a cache may hold far fewer entries
/// (queries off at `CacheSize` 100, about 29 after 120 simulated
/// seconds), so a block's storage follows its occupancy. Each block is a pair of vectors: the 20-byte
/// [`CacheEntry`]s and a **tag row** holding each entry's address as a
/// bare `u32`. A block starts at `min(32, stride)` slots and doubles,
/// capped at `stride`, when an insert finds it full. Allocation is a
/// free-list pop, and death returns the block, its capacity kept, for
/// the replacement peer, so a birth allocates nothing once the arena has
/// as many blocks as the population. A live block costs
/// `capacity * (20 + 4)` bytes plus its 48-byte record; its capacity is
/// the first step of `32, 64, 128, …, stride` that covers the most
/// entries any occupant of its handle has held.
///
/// Semantics are identical to [`LinkCache`] — same entry ordering
/// (append / swap-remove), same RNG consumption, same [`InsertOutcome`]s
/// — the only difference is that address lookups scan the block's tag row
/// (contiguous `u32`s, compared sixteen at a time) instead of consulting
/// a hash index. The tag row is a mirror, not an index: `tags[i]` is
/// `entries[i].addr()` for every slot of every block, because one private
/// `set` and one private `push` are the only code that stores an entry.
///
/// One block at a time may be **pinned** ([`CacheArena::pin`]): lookups
/// in it read a position index instead of scanning, so the block a
/// query works on answers in O(1). Neither lookup consumes randomness,
/// so a run using the arena is bit-for-bit the run using per-peer
/// [`LinkCache`]s (property-tested below). The index holds each pinned
/// entry's offset in its block, indexed by `PeerAddr::index()` (4 B per
/// minted address, grown lazily); `set` and `push` keep it current, and
/// a block that grows keeps its offsets. A read accepts an offset only
/// if it lies in the block's live range and the tag there is the address
/// looked up, so stale offsets — of a block pinned before, of an entry
/// since removed — simply miss, and nothing is ever invalidated. An
/// arena that never pins allocates no index.
#[derive(Debug, Clone)]
pub struct CacheArena {
    stride: usize,
    /// One record per handle ever allocated, live or freed.
    blocks: Vec<Block>,
    free: Vec<u32>,
    /// The block whose lookups go through `pos`, if any.
    pinned: Option<CacheHandle>,
    /// Offset of each pinned entry within the pinned block, indexed by
    /// `PeerAddr::index()`; verified against the tag row on every read.
    pos: Vec<u32>,
}

/// One cache's storage: its entries and their tag row, always of equal
/// length. Both grow together, so their capacities stay equal too.
#[derive(Debug, Clone)]
struct Block {
    entries: Vec<CacheEntry>,
    tags: Vec<u32>,
}

const _: () = assert!(size_of::<Block>() == 48);

impl Block {
    /// Doubles a full block's capacity, capped at `stride`.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, stride: usize) {
        let len = self.entries.len();
        let more = (2 * len).min(stride) - len;
        self.entries.reserve_exact(more);
        self.tags.reserve_exact(more);
    }
}

/// Slots a block starts with, when the stride allows that many. Blocks
/// started at 16 reached the same peak heap on a queries-off run, but
/// nearly every one of them grew mid-run.
const FIRST_BLOCK: usize = 32;

/// The largest `CacheSize` an arena takes: block offsets are stored as
/// `u32`s in the position index, and a cache holds distinct `u32`
/// addresses anyway.
pub const MAX_CACHE_SIZE: usize = u32::MAX as usize;

/// Width of one [`find`] comparison group.
const TAG_CHUNK: usize = 16;

/// Index of the first tag equal to `addr`. Whole chunks are compared
/// without an early exit into a bitmask, so the compiler turns each into
/// vector compares; `trailing_zeros` then names the first hit.
fn find(tags: &[u32], addr: u32) -> Option<usize> {
    let mut chunks = tags.chunks_exact(TAG_CHUNK);
    for (c, chunk) in chunks.by_ref().enumerate() {
        let mut hits = 0u32;
        for (i, &t) in chunk.iter().enumerate() {
            hits |= u32::from(t == addr) << i;
        }
        if hits != 0 {
            return Some(c * TAG_CHUNK + hits.trailing_zeros() as usize);
        }
    }
    let tail = chunks.remainder();
    tail.iter()
        .position(|&t| t == addr)
        .map(|i| tags.len() - tail.len() + i)
}

impl CacheArena {
    /// Creates an arena whose caches all have capacity `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero (same contract as [`LinkCache::new`])
    /// or above [`MAX_CACHE_SIZE`].
    #[must_use]
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "link cache capacity must be positive");
        assert!(
            stride <= MAX_CACHE_SIZE,
            "link cache capacity must be at most {MAX_CACHE_SIZE}"
        );
        CacheArena {
            stride,
            blocks: Vec::new(),
            free: Vec::new(),
            pinned: None,
            pos: Vec::new(),
        }
    }

    /// Creates an arena pre-sized for `peers` concurrent caches: their
    /// records, not their slots, which each block allocates as it fills.
    #[must_use]
    pub fn with_peer_capacity(stride: usize, peers: usize) -> Self {
        let mut a = Self::new(stride);
        a.blocks.reserve(peers);
        a
    }

    /// Allocates an empty cache block, recycling a freed one (and its
    /// capacity) if possible.
    pub fn alloc(&mut self) -> CacheHandle {
        if let Some(h) = self.free.pop() {
            return CacheHandle(h);
        }
        let h = u32::try_from(self.blocks.len()).expect("cache arena handle space exhausted");
        assert!(h != u32::MAX, "cache arena handle space exhausted");
        let slots = self.stride.min(FIRST_BLOCK);
        self.blocks.push(Block {
            entries: Vec::with_capacity(slots),
            tags: Vec::with_capacity(slots),
        });
        CacheHandle(h)
    }

    /// Returns a dead peer's block to the free list, emptied but with its
    /// capacity kept. The handle must not be used afterwards; freeing
    /// [`CacheHandle::NULL`] is a no-op.
    pub fn free(&mut self, h: CacheHandle) {
        if h.is_null() {
            return;
        }
        let b = self.block_mut(h);
        b.entries.clear();
        b.tags.clear();
        self.free.push(h.0);
    }

    fn block(&self, h: CacheHandle) -> &Block {
        &self.blocks[h.0 as usize]
    }

    fn block_mut(&mut self, h: CacheHandle) -> &mut Block {
        &mut self.blocks[h.0 as usize]
    }

    /// Blocks ever allocated (live + freed).
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Overwrites the entry at `offset` of block `h`, its tag, and its
    /// position-index offset when `h` is pinned.
    #[inline]
    fn set(&mut self, h: CacheHandle, offset: usize, entry: CacheEntry) {
        let b = self.block_mut(h);
        b.entries[offset] = entry;
        b.tags[offset] = entry.addr().raw();
        if self.pinned == Some(h) {
            self.record_offset(entry.addr().raw(), offset);
        }
    }

    /// Appends `entry` to block `h` (below `stride`), doubling the
    /// block's capacity, up to `stride`, if it is full.
    #[inline]
    fn push(&mut self, h: CacheHandle, entry: CacheEntry) {
        let stride = self.stride;
        let b = self.block_mut(h);
        let len = b.entries.len();
        debug_assert!(len < stride);
        if len == b.entries.capacity() {
            b.grow(stride);
        }
        b.entries.push(entry);
        b.tags.push(entry.addr().raw());
        if self.pinned == Some(h) {
            self.record_offset(entry.addr().raw(), len);
        }
    }

    /// Records `offset` as the pinned-block position of address `raw`.
    /// Kept out of line, so that `set` and `push` stay small enough to
    /// inline into `offer` and `remove`.
    #[inline(never)]
    fn record_offset(&mut self, raw: u32, offset: usize) {
        let i = raw as usize;
        if i >= self.pos.len() {
            self.pos.resize(i + 1, 0);
        }
        self.pos[i] = u32::try_from(offset).expect("block offsets fit in u32");
    }

    /// Pins cache `h`: its lookups (`contains`, `get`, `touch`,
    /// `record_results`, `remove`, `offer`'s duplicate check) read the
    /// position index instead of scanning the tag row, until another
    /// block is pinned. Costs one index write per entry of `h`, then one
    /// per write into `h`; pinning the null handle, or the block already
    /// pinned, does nothing. Outcomes are those of the unpinned arena.
    pub fn pin(&mut self, h: CacheHandle) {
        if h.is_null() || self.pinned == Some(h) {
            return;
        }
        self.pinned = Some(h);
        for offset in 0..self.len(h) {
            self.record_offset(self.block(h).tags[offset], offset);
        }
    }

    /// Current number of entries in cache `h` (≤ stride).
    #[must_use]
    pub fn len(&self, h: CacheHandle) -> usize {
        self.entries(h).len()
    }

    /// Returns true if cache `h` holds no entries.
    #[must_use]
    pub fn is_empty(&self, h: CacheHandle) -> bool {
        self.len(h) == 0
    }

    /// Returns true if cache `h` is at capacity.
    #[must_use]
    pub fn is_full(&self, h: CacheHandle) -> bool {
        self.len(h) >= self.stride
    }

    /// The entries of cache `h`, in the same order a [`LinkCache`] would
    /// hold them.
    #[must_use]
    pub fn entries(&self, h: CacheHandle) -> &[CacheEntry] {
        if h.is_null() {
            return &[];
        }
        &self.block(h).entries
    }

    /// The tag row of cache `h`, for the mirror invariant's tests.
    #[cfg(test)]
    fn tags(&self, h: CacheHandle) -> &[u32] {
        &self.block(h).tags
    }

    /// Slots block `h` holds storage for, for the growth tests.
    #[cfg(test)]
    fn slots(&self, h: CacheHandle) -> usize {
        let b = self.block(h);
        assert_eq!(
            b.tags.capacity(),
            b.entries.capacity(),
            "rows grow together"
        );
        b.entries.capacity()
    }

    /// Offset of the entry for `addr` in cache `h`, if cached.
    fn position(&self, h: CacheHandle, addr: PeerAddr) -> Option<usize> {
        if h.is_null() {
            return None;
        }
        let tags = &self.block(h).tags;
        if self.pinned == Some(h) {
            let offset = *self.pos.get(addr.index())? as usize;
            return (tags.get(offset) == Some(&addr.raw())).then_some(offset);
        }
        find(tags, addr.raw())
    }

    /// Membership test by address.
    #[must_use]
    pub fn contains(&self, h: CacheHandle, addr: PeerAddr) -> bool {
        self.position(h, addr).is_some()
    }

    /// Borrows the entry for `addr` in cache `h`, if cached.
    #[must_use]
    pub fn get(&self, h: CacheHandle, addr: PeerAddr) -> Option<&CacheEntry> {
        self.position(h, addr)
            .map(|offset| &self.block(h).entries[offset])
    }

    /// Refreshes the `TS` of the entry for `addr`, if cached. Returns
    /// true if an entry was touched.
    pub fn touch(&mut self, h: CacheHandle, addr: PeerAddr, now: SimTime) -> bool {
        let Some(offset) = self.position(h, addr) else {
            return false;
        };
        self.block_mut(h).entries[offset].touch(now);
        true
    }

    /// Records a query-probe outcome against the entry for `addr`
    /// (refresh `TS`, overwrite `NumRes`). Returns true if updated.
    pub fn record_results(
        &mut self,
        h: CacheHandle,
        addr: PeerAddr,
        now: SimTime,
        results: u32,
    ) -> bool {
        let Some(offset) = self.position(h, addr) else {
            return false;
        };
        self.block_mut(h).entries[offset].record_results(now, results);
        true
    }

    /// Removes the entry for `addr` (a dead or refused neighbor) from
    /// cache `h`. Returns the removed entry, if any. Same swap-remove
    /// reordering as [`LinkCache::remove`].
    pub fn remove(&mut self, h: CacheHandle, addr: PeerAddr) -> Option<CacheEntry> {
        let offset = self.position(h, addr)?;
        let b = self.block(h);
        let (removed, last) = (b.entries[offset], b.entries[b.entries.len() - 1]);
        self.set(h, offset, last);
        let b = self.block_mut(h);
        b.entries.pop();
        b.tags.pop();
        Some(removed)
    }

    /// Offers a new entry to cache `h` under the replacement policy.
    /// Mirrors [`LinkCache::offer`] exactly, including RNG draw order; a
    /// full cache under a ranked policy holds its contest through
    /// `policy::weakest`.
    pub fn offer(
        &mut self,
        h: CacheHandle,
        entry: CacheEntry,
        policy: ReplacementPolicy,
        rng: &mut RngStream,
    ) -> InsertOutcome {
        debug_assert!(!h.is_null(), "offer to a stub cache");
        if self.contains(h, entry.addr()) {
            return InsertOutcome::AlreadyPresent;
        }
        let len = self.len(h);
        if len < self.stride {
            self.push(h, entry);
            return InsertOutcome::Inserted;
        }
        let b = self.block(h);
        let last = len - 1;
        let tail = b.entries[last];
        if policy == ReplacementPolicy::Random {
            let r = rng.below(len + 1);
            if r == len {
                return InsertOutcome::Rejected;
            }
            // The victim's address comes from the tag row, so the entry
            // about to be overwritten is never loaded.
            let victim_addr = PeerAddr::from_raw(b.tags[r]);
            // swap_remove(r) followed by push(entry), fused: the last
            // entry drops into slot r and the newcomer takes the tail.
            self.set(h, r, tail);
            self.set(h, last, entry);
            return InsertOutcome::Replaced(victim_addr);
        }
        let Some(victim) = weakest(policy, Some(&entry), &b.entries, rng) else {
            return InsertOutcome::Rejected;
        };
        let victim_addr = b.entries[victim].addr();
        self.set(h, victim, tail);
        self.set(h, last, entry);
        InsertOutcome::Replaced(victim_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;

    fn rng() -> RngStream {
        RngStream::from_seed(5, "cache-test")
    }

    fn entry(alloc: &mut AddrAllocator, files: u32, ts: f64) -> CacheEntry {
        CacheEntry::new(alloc.allocate(), SimTime::from_secs(ts), files)
    }

    #[test]
    fn inserts_until_full() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(3);
        for i in 0..3 {
            let outcome = c.offer(entry(&mut alloc, i, 0.0), ReplacementPolicy::Random, &mut r);
            assert_eq!(outcome, InsertOutcome::Inserted);
        }
        assert!(c.is_full());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn duplicate_offer_is_ignored() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(3);
        let e = entry(&mut alloc, 10, 0.0);
        c.offer(e, ReplacementPolicy::Random, &mut r);
        let dup = CacheEntry::from_pong(e.addr(), SimTime::from_secs(9.0), 9999, 50);
        assert_eq!(
            c.offer(dup, ReplacementPolicy::Random, &mut r),
            InsertOutcome::AlreadyPresent
        );
        assert_eq!(
            c.get(e.addr()).unwrap().num_files(),
            10,
            "metadata not overwritten"
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lfs_eviction_keeps_big_sharers() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(2);
        let small = entry(&mut alloc, 5, 0.0);
        let big = entry(&mut alloc, 500, 0.0);
        c.offer(small, ReplacementPolicy::Lfs, &mut r);
        c.offer(big, ReplacementPolicy::Lfs, &mut r);
        let bigger = entry(&mut alloc, 1000, 0.0);
        let outcome = c.offer(bigger, ReplacementPolicy::Lfs, &mut r);
        assert_eq!(outcome, InsertOutcome::Replaced(small.addr()));
        assert!(c.contains(big.addr()));
        assert!(c.contains(bigger.addr()));
    }

    #[test]
    fn lfs_rejects_newcomer_worse_than_all() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(2);
        c.offer(entry(&mut alloc, 100, 0.0), ReplacementPolicy::Lfs, &mut r);
        c.offer(entry(&mut alloc, 200, 0.0), ReplacementPolicy::Lfs, &mut r);
        let tiny = entry(&mut alloc, 1, 0.0);
        assert_eq!(
            c.offer(tiny, ReplacementPolicy::Lfs, &mut r),
            InsertOutcome::Rejected
        );
        assert!(!c.contains(tiny.addr()));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_eviction_drops_stalest() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(2);
        let stale = entry(&mut alloc, 1, 1.0);
        let fresh = entry(&mut alloc, 1, 100.0);
        c.offer(stale, ReplacementPolicy::Lru, &mut r);
        c.offer(fresh, ReplacementPolicy::Lru, &mut r);
        let newer = CacheEntry::new(alloc.allocate(), SimTime::from_secs(50.0), 1);
        assert_eq!(
            c.offer(newer, ReplacementPolicy::Lru, &mut r),
            InsertOutcome::Replaced(stale.addr())
        );
    }

    #[test]
    fn remove_fixes_index_mapping() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(5);
        let es: Vec<CacheEntry> = (0..5).map(|i| entry(&mut alloc, i, 0.0)).collect();
        for e in &es {
            c.offer(*e, ReplacementPolicy::Random, &mut r);
        }
        assert!(c.remove(es[1].addr()).is_some());
        assert!(c.remove(es[1].addr()).is_none(), "second remove is None");
        // Every remaining entry is still reachable by address.
        for e in [&es[0], &es[2], &es[3], &es[4]] {
            assert_eq!(c.get(e.addr()).unwrap().addr(), e.addr());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn touch_and_record_results_update_entries() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(2);
        let e = entry(&mut alloc, 10, 0.0);
        c.offer(e, ReplacementPolicy::Random, &mut r);
        assert!(c.touch(e.addr(), SimTime::from_secs(7.0)));
        assert_eq!(c.get(e.addr()).unwrap().ts(), SimTime::from_secs(7.0));
        assert!(c.record_results(e.addr(), SimTime::from_secs(8.0), 2));
        assert_eq!(c.get(e.addr()).unwrap().num_res(), 2);
        let ghost = alloc.allocate();
        assert!(!c.touch(ghost, SimTime::from_secs(9.0)));
        assert!(!c.record_results(ghost, SimTime::from_secs(9.0), 1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LinkCache::new(0);
    }

    /// Drives a [`LinkCache`] and a [`CacheArena`] block through the same
    /// randomized op sequence with lock-stepped RNG streams and asserts
    /// bit-identical behavior: same outcomes, same entry order, same RNG
    /// consumption. This is the goldens-safety argument for swapping the
    /// engine onto the arena. At random steps the block is pinned, a
    /// second block (holding some of the same addresses) is pinned in its
    /// place, the pinned block is freed and re-allocated, and an address
    /// minted beyond the position index is looked up — the pinned
    /// lookups must answer exactly as the scan and the hash index do.
    ///
    /// Stride 6 never grows a block; at 40 and 100 both blocks grow, in
    /// turn, through every capacity step, pinned and unpinned, and a
    /// grown block is freed and handed back with its capacity.
    #[test]
    fn arena_block_is_bit_identical_to_link_cache() {
        for (stride, steps, reset_chance) in [(6, 2000, 1.0), (40, 4000, 0.1), (100, 6000, 0.04)] {
            for (seed, policy) in [
                (1u64, ReplacementPolicy::Random),
                (2, ReplacementPolicy::Lfs),
                (3, ReplacementPolicy::Lru),
                (4, ReplacementPolicy::Lr),
                (5, ReplacementPolicy::Mru),
            ] {
                lock_step(stride, steps, reset_chance, seed, policy);
            }
        }
    }

    /// The capacity steps a block of `stride` may hold storage for.
    fn capacity_steps(stride: usize) -> Vec<usize> {
        let mut steps = vec![stride.min(FIRST_BLOCK)];
        while *steps.last().unwrap() < stride {
            steps.push((2 * steps.last().unwrap()).min(stride));
        }
        steps
    }

    fn lock_step(
        stride: usize,
        steps: usize,
        reset_chance: f64,
        seed: u64,
        policy: ReplacementPolicy,
    ) {
        let mut alloc = AddrAllocator::new();
        let mut drv = RngStream::from_seed(seed, "arena-driver");
        let mut r_cache = RngStream::from_seed(seed, "arena-ops");
        let mut r_arena = RngStream::from_seed(seed, "arena-ops");
        let mut r_other = RngStream::from_seed(seed, "arena-other");
        let mut cache = LinkCache::new(stride);
        let mut arena = CacheArena::new(stride);
        let other = arena.alloc();
        let mut h = arena.alloc();
        let allowed = capacity_steps(stride);
        let (mut grew_pinned, mut grew_unpinned, mut pinned_grown) = (0, 0, 0);
        let (mut grown_recycled, mut other_grew, mut widest) = (0, false, 0);
        let mut known: Vec<PeerAddr> = Vec::new();
        for step in 0..steps {
            let now = SimTime::from_secs(step as f64);
            let slots_before = arena.slots(h);
            let other_before = arena.slots(other);
            let pinned_before = arena.pinned == Some(h);
            let op = if known.is_empty() { 0 } else { drv.below(14) };
            match op {
                // Offer (most common): fresh or already-seen address.
                0..=5 => {
                    let addr = if !known.is_empty() && drv.chance(0.3) {
                        known[drv.below(known.len())]
                    } else {
                        let a = alloc.allocate();
                        known.push(a);
                        a
                    };
                    let e = CacheEntry::from_pong(
                        addr,
                        now,
                        drv.below(1000) as u32,
                        drv.below(5) as u32,
                    );
                    let a = cache.offer(e, policy, &mut r_cache);
                    let b = arena.offer(h, e, policy, &mut r_arena);
                    assert_eq!(a, b, "offer diverged at step {step}");
                }
                6 => {
                    let addr = known[drv.below(known.len())];
                    assert_eq!(cache.remove(addr), arena.remove(h, addr));
                }
                7 => {
                    let addr = known[drv.below(known.len())];
                    assert_eq!(cache.touch(addr, now), arena.touch(h, addr, now));
                }
                8 => {
                    let addr = known[drv.below(known.len())];
                    assert_eq!(
                        cache.record_results(addr, now, 1),
                        arena.record_results(h, addr, now, 1)
                    );
                }
                9 => {
                    let addr = known[drv.below(known.len())];
                    assert_eq!(cache.contains(addr), arena.contains(h, addr));
                    assert_eq!(cache.get(addr), arena.get(h, addr));
                }
                10 => {
                    if arena.pinned != Some(h) && slots_before > FIRST_BLOCK {
                        pinned_grown += 1;
                    }
                    arena.pin(h);
                }
                // The second block takes the pin and some of the
                // block under test's addresses, at other offsets.
                11 => {
                    arena.pin(other);
                    let addr = known[drv.below(known.len())];
                    let e = CacheEntry::new(addr, now, 1);
                    arena.offer(other, e, ReplacementPolicy::Random, &mut r_other);
                }
                12 if drv.chance(reset_chance) => {
                    if drv.chance(0.5) {
                        arena.pin(h);
                        arena.free(h);
                        assert_eq!(arena.alloc(), h, "the pinned block is recycled");
                        assert_eq!(arena.slots(h), slots_before, "capacity is kept");
                        assert!(arena.is_empty(h), "contents are gone");
                        if slots_before > allowed[0] {
                            grown_recycled += 1;
                        }
                    } else {
                        // Move to a block never used before, which
                        // starts small and unpinned (the old one stays
                        // allocated, so the free list stays empty).
                        h = arena.alloc();
                        assert_eq!(arena.slots(h), allowed[0]);
                    }
                    cache = LinkCache::new(stride);
                }
                12 => {}
                _ => {
                    let addr = alloc.allocate();
                    assert!(addr.index() >= arena.pos.len(), "minted beyond the index");
                    assert_eq!(cache.contains(addr), arena.contains(h, addr));
                    assert_eq!(cache.touch(addr, now), arena.touch(h, addr, now));
                    assert_eq!(cache.remove(addr), arena.remove(h, addr));
                    known.push(addr);
                }
            }
            let slots = arena.slots(h);
            assert!(
                allowed.contains(&slots) && slots >= arena.len(h),
                "block holds {slots} slots for {} entries at step {step}",
                arena.len(h)
            );
            if slots > slots_before && op != 12 {
                if pinned_before {
                    grew_pinned += 1;
                } else {
                    grew_unpinned += 1;
                }
            }
            other_grew |= arena.slots(other) > other_before;
            widest = widest.max(slots);
            assert_eq!(cache.entries(), arena.entries(h), "order diverged");
            let addrs: Vec<u32> = arena.entries(h).iter().map(|e| e.addr().raw()).collect();
            assert_eq!(arena.tags(h), addrs, "tag row diverged at step {step}");
            assert_eq!(cache.len(), arena.len(h));
            assert_eq!(cache.is_full(), arena.is_full(h));
            // Every address ever seen, at every step of the short run
            // and every eighth step of the long ones.
            if stride <= FIRST_BLOCK || step % 8 == 0 {
                for &addr in &known {
                    assert_eq!(
                        cache.get(addr),
                        arena.get(h, addr),
                        "lookup of {addr:?} diverged at step {step}"
                    );
                }
            }
        }
        assert_eq!(
            r_cache.next_u64(),
            r_arena.next_u64(),
            "RNG streams stayed in lockstep"
        );
        if stride > FIRST_BLOCK {
            let seen = [grew_pinned, grew_unpinned, pinned_grown, grown_recycled];
            assert!(
                seen.iter().all(|&n| n > 0) && other_grew,
                "stride {stride} {policy:?}: growths pinned/unpinned, pins of a grown \
                 block, grown blocks recycled: {seen:?}; second block grew: {other_grew}"
            );
            assert_eq!(widest, stride, "a block reached the stride");
        }
    }

    #[test]
    fn block_capacity_doubles_up_to_the_stride() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        for (stride, want) in [
            (6, vec![6]),
            (32, vec![32]),
            (40, vec![32, 40]),
            (100, vec![32, 64, 100]),
        ] {
            assert_eq!(capacity_steps(stride), want);
            let mut arena = CacheArena::with_peer_capacity(stride, 2);
            let h = arena.alloc();
            let mut seen = vec![arena.slots(h)];
            for i in 0..stride {
                arena.offer(h, entry(&mut alloc, 1, 0.0), ReplacementPolicy::Lfs, &mut r);
                assert_eq!(arena.len(h), i + 1);
                if arena.slots(h) != *seen.last().unwrap() {
                    seen.push(arena.slots(h));
                }
            }
            assert_eq!(seen, want, "stride {stride}");
            // Full: an offer evicts or rejects, and storage stays put.
            arena.offer(h, entry(&mut alloc, 9, 0.0), ReplacementPolicy::Lfs, &mut r);
            assert_eq!(arena.slots(h), stride);
            // A fresh block starts small; the freed one comes back whole.
            let fresh = arena.alloc();
            assert_eq!(arena.slots(fresh), want[0]);
            arena.free(h);
            assert_eq!(arena.alloc(), h);
            assert_eq!(arena.slots(h), stride);
            assert!(arena.is_empty(h));
        }
    }

    /// An arena that never pins never writes the position index — block
    /// 0 included, whose slots a wrapping "no pin" sentinel would cover.
    #[test]
    fn unpinned_arena_allocates_no_position_index() {
        let mut alloc = AddrAllocator::new();
        let mut drv = RngStream::from_seed(64, "arena-unpinned");
        let mut r = rng();
        let mut arena = CacheArena::new(8);
        let blocks: Vec<CacheHandle> = (0..64).map(|_| arena.alloc()).collect();
        assert_eq!(blocks[0], CacheHandle(0));
        let mut known: Vec<PeerAddr> = Vec::new();
        for step in 0..10_000 {
            let h = blocks[drv.below(blocks.len())];
            let now = SimTime::from_secs(step as f64);
            match drv.below(3) {
                0 => {
                    let addr = alloc.allocate();
                    known.push(addr);
                    arena.offer(
                        h,
                        CacheEntry::new(addr, now, 1),
                        ReplacementPolicy::Lru,
                        &mut r,
                    );
                }
                1 if !known.is_empty() => {
                    arena.remove(h, known[drv.below(known.len())]);
                }
                _ if !known.is_empty() => {
                    arena.touch(h, known[drv.below(known.len())], now);
                }
                _ => {}
            }
        }
        assert_eq!(
            arena.pos.len(),
            0,
            "an arena that never pins allocates no index"
        );
        assert_eq!(arena.pos.capacity(), 0);
    }

    #[test]
    fn arena_recycles_freed_blocks() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut arena = CacheArena::new(3);
        let a = arena.alloc();
        let b = arena.alloc();
        assert_eq!(arena.blocks(), 2);
        arena.offer(
            a,
            entry(&mut alloc, 1, 0.0),
            ReplacementPolicy::Random,
            &mut r,
        );
        arena.offer(
            b,
            entry(&mut alloc, 2, 0.0),
            ReplacementPolicy::Random,
            &mut r,
        );
        arena.free(a);
        let c = arena.alloc();
        assert_eq!(c, a, "freed block is recycled");
        assert_eq!(arena.blocks(), 2, "no growth on recycle");
        assert!(arena.is_empty(c), "recycled block starts empty");
        assert_eq!(arena.len(b), 1, "other blocks untouched");
    }

    #[test]
    fn find_matches_a_linear_scan_at_every_chunk_boundary() {
        for len in 0..=40usize {
            // Distinct tags, none equal to the absent needle.
            let tags: Vec<u32> = (0..len as u32).map(|i| 1000 + i * 7).collect();
            assert_eq!(find(&tags, 5), None, "absent needle, len {len}");
            for at in [0, 15, 16, 17, 31, 32, len.saturating_sub(1)] {
                if at >= len {
                    continue;
                }
                let needle = tags[at];
                assert_eq!(
                    find(&tags, needle),
                    tags.iter().position(|&t| t == needle),
                    "needle at {at}, len {len}"
                );
            }
            // The first of several hits wins, as `position` does.
            if len >= 2 {
                let mut dup = tags.clone();
                dup[len - 1] = dup[len / 2];
                assert_eq!(find(&dup, dup[len / 2]), Some(len / 2));
            }
        }
    }

    #[test]
    fn recycled_block_forgets_its_previous_occupant() {
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut arena = CacheArena::new(4);
        let a = arena.alloc();
        let old: Vec<CacheEntry> = (0..4).map(|i| entry(&mut alloc, i, 0.0)).collect();
        for &e in &old {
            arena.offer(a, e, ReplacementPolicy::Random, &mut r);
        }
        arena.free(a);
        let b = arena.alloc();
        assert_eq!(b, a, "the block is recycled, stale tags and all");
        let newcomer = entry(&mut alloc, 9, 1.0);
        arena.offer(b, newcomer, ReplacementPolicy::Random, &mut r);
        for e in &old {
            assert!(!arena.contains(b, e.addr()));
            assert!(!arena.touch(b, e.addr(), SimTime::from_secs(2.0)));
            assert_eq!(arena.remove(b, e.addr()), None);
        }
        // A previous occupant's address is admitted afresh, not "already present".
        assert_eq!(
            arena.offer(b, old[3], ReplacementPolicy::Random, &mut r),
            InsertOutcome::Inserted
        );
        assert_eq!(arena.entries(b), &[newcomer, old[3]]);
    }

    /// The PR-8 recycling invariant, asserted directly: once the startup
    /// population has allocated its blocks, any interleaving of
    /// join/leave churn (including temporary population dips and join
    /// waves back up to the peak) reuses freed blocks instead of growing
    /// the slab — `blocks()` is a high-water mark of *concurrent* peers,
    /// not of churn history.
    #[test]
    fn arena_churn_never_grows_past_the_startup_high_water_mark() {
        let mut alloc = AddrAllocator::new();
        let mut drv = RngStream::from_seed(77, "arena-churn");
        let mut r = rng();
        let startup = 64usize;
        let mut arena = CacheArena::with_peer_capacity(5, startup);
        let mut live: Vec<CacheHandle> = (0..startup).map(|_| arena.alloc()).collect();
        let high_water = arena.blocks();
        assert_eq!(high_water, startup, "one block per startup peer");
        for step in 0..5000 {
            let now = SimTime::from_secs(step as f64);
            match drv.below(10) {
                // Leave: free a random live peer's block (population dips).
                0..=3 if live.len() > 1 => {
                    let i = drv.below(live.len());
                    arena.free(live.swap_remove(i));
                }
                // Join: a newborn allocates, never beyond the peak.
                4..=7 if live.len() < startup => {
                    let h = arena.alloc();
                    arena.offer(
                        h,
                        entry(&mut alloc, drv.below(100) as u32, step as f64),
                        ReplacementPolicy::Random,
                        &mut r,
                    );
                    live.push(h);
                }
                // Churn replacement: free + alloc back-to-back, the
                // engine's death path.
                _ => {
                    let i = drv.below(live.len());
                    arena.free(live[i]);
                    live[i] = arena.alloc();
                    assert!(arena.is_empty(live[i]), "recycled block starts empty");
                    arena.touch(live[i], PeerAddr::from_raw(0), now);
                }
            }
            assert!(
                arena.blocks() <= high_water,
                "arena grew past its startup high-water mark at step {step}: \
                 {} blocks > {high_water}",
                arena.blocks()
            );
        }
        assert_eq!(
            arena.blocks(),
            high_water,
            "blocks are recycled, never reclaimed mid-run"
        );
    }

    #[test]
    fn null_handle_reads_as_empty() {
        let arena = CacheArena::new(4);
        let h = CacheHandle::NULL;
        assert!(h.is_null());
        assert_eq!(arena.len(h), 0);
        assert!(arena.is_empty(h));
        assert!(!arena.is_full(h));
        assert_eq!(arena.entries(h), &[]);
        let mut arena = arena;
        arena.free(h); // no-op
        assert_eq!(arena.blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_stride_arena_rejected() {
        let _ = CacheArena::new(0);
    }

    #[test]
    fn random_replacement_eventually_admits() {
        // With Random replacement the newcomer wins the uniform contest
        // with probability n/(n+1); over many offers some must land.
        let mut alloc = AddrAllocator::new();
        let mut r = rng();
        let mut c = LinkCache::new(4);
        for _ in 0..4 {
            c.offer(entry(&mut alloc, 0, 0.0), ReplacementPolicy::Random, &mut r);
        }
        let mut admitted = 0;
        for _ in 0..100 {
            match c.offer(entry(&mut alloc, 0, 0.0), ReplacementPolicy::Random, &mut r) {
                InsertOutcome::Replaced(_) => admitted += 1,
                InsertOutcome::Rejected => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(
            admitted > 50,
            "random replacement admitted only {admitted}/100"
        );
        assert_eq!(c.len(), 4, "capacity invariant holds");
    }
}
