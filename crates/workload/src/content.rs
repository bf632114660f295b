//! Content catalog and per-peer libraries.
//!
//! The query model of Yang & Garcia-Molina (VLDB 2001) makes the
//! probability that a probed peer answers depend on the peer's collection
//! and the queried content's popularity. We realize it concretely: a fixed
//! catalog of items with Zipf-distributed replication; each peer's library
//! is its (Saroiu-distributed) number of files sampled from the catalog by
//! popularity; a probe answers a query iff the probed peer's library
//! contains the queried item.

use simkit::dist::{DiscreteDist, Zipf};
use simkit::hash::FxHashMap;
use simkit::rng::RngStream;

/// Identifier of a catalog item. Lower ids are more popular.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// Parameters of the content catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogParams {
    /// Number of distinct items in the universe.
    pub items: usize,
    /// Zipf exponent for item *replication* (how peers' libraries fill).
    pub replication_exponent: f64,
    /// Zipf exponent for *query* popularity (which items get asked for).
    pub query_exponent: f64,
}

impl CatalogParams {
    /// The one rule a catalog's parameters obey: at least one item and
    /// finite, non-negative exponents. [`Catalog::new`] and every engine
    /// config's `validate` apply it.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCatalogError`] if the rule is broken.
    pub fn check(&self) -> Result<(), InvalidCatalogError> {
        let exponents = [self.replication_exponent, self.query_exponent];
        if self.items == 0 || exponents.iter().any(|e| !e.is_finite() || *e < 0.0) {
            return Err(InvalidCatalogError);
        }
        Ok(())
    }
}

impl Default for CatalogParams {
    /// Calibrated so that with 1000 peers under the default file-count
    /// model, roughly 5–6 % of queries cannot be satisfied even by probing
    /// the entire network (the floor the paper reports in §6.2), and the
    /// mean first-hit rank of answerable queries is ≈45 — which makes the
    /// Random-policy GUESS cost land near the paper's ≈99 probes/query.
    fn default() -> Self {
        CatalogParams {
            items: 20_000,
            replication_exponent: 0.95,
            query_exponent: 1.2,
        }
    }
}

/// The shared content universe.
///
/// # Examples
///
/// ```
/// use workload::content::{Catalog, CatalogParams};
/// use simkit::rng::RngStream;
///
/// let catalog = Catalog::new(CatalogParams::default()).unwrap();
/// let mut rng = RngStream::from_seed(1, "doc");
/// let lib = catalog.build_library(50, &mut rng);
/// assert!(lib.len() <= 50);
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    params: CatalogParams,
    replication: Zipf,
    query_pop: Zipf,
}

/// Error constructing a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCatalogError;

impl std::fmt::Display for InvalidCatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "catalog requires items > 0 and finite non-negative exponents"
        )
    }
}

impl std::error::Error for InvalidCatalogError {}

impl Catalog {
    /// Builds the catalog.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCatalogError`] if [`CatalogParams::check`] does.
    pub fn new(params: CatalogParams) -> Result<Self, InvalidCatalogError> {
        params.check()?;
        let zipf = |exponent| Zipf::new(params.items, exponent).expect("checked parameters");
        Ok(Catalog {
            params,
            replication: zipf(params.replication_exponent),
            query_pop: zipf(params.query_exponent),
        })
    }

    /// The catalog parameters.
    #[must_use]
    pub fn params(&self) -> CatalogParams {
        self.params
    }

    /// Number of distinct items.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.params.items
    }

    /// Builds the library of a peer sharing `num_files` files: `num_files`
    /// popularity-weighted draws, deduplicated (a peer holds at most one
    /// copy of an item).
    #[must_use]
    pub fn build_library(&self, num_files: u32, rng: &mut RngStream) -> PeerLibrary {
        let mut ids: Vec<u32> = (0..num_files)
            .map(|_| self.replication.sample_index(rng) as u32)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        PeerLibrary { items: ids }
    }

    /// Draws the item targeted by a query, by query popularity.
    #[must_use]
    pub fn sample_query_item(&self, rng: &mut RngStream) -> ItemId {
        ItemId(self.query_pop.sample_index(rng) as u32)
    }

    /// Arena-backed variant of [`Catalog::build_library`]: same draws, same
    /// RNG consumption, but the item ids land in `arena`'s shared backing
    /// store instead of a fresh per-peer `Vec`. Returns a handle that the
    /// caller must eventually [`LibraryArena::free`].
    pub fn build_library_in(
        &self,
        num_files: u32,
        rng: &mut RngStream,
        arena: &mut LibraryArena,
    ) -> LibraryHandle {
        let mut ids = std::mem::take(&mut arena.scratch);
        ids.clear();
        ids.extend((0..num_files).map(|_| self.replication.sample_index(rng) as u32));
        ids.sort_unstable();
        ids.dedup();
        let handle = arena.insert_sorted(&ids);
        arena.scratch = ids;
        handle
    }
}

/// Handle to one peer's library inside a [`LibraryArena`].
///
/// A handle is `(offset, len)` into the arena's shared item vector — 8
/// bytes of peer state instead of a 24-byte `Vec` header plus its own
/// heap block. [`LibraryHandle::EMPTY`] denotes the empty library (free
/// riders, fabricated stubs) and is always safe to read or free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibraryHandle {
    offset: u32,
    len: u32,
}

impl LibraryHandle {
    /// The empty library: zero items, no arena storage.
    pub const EMPTY: LibraryHandle = LibraryHandle { offset: 0, len: 0 };

    /// Number of distinct items held.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Returns true if the library holds nothing.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Contiguous storage for every live peer's library.
///
/// Libraries are immutable after construction (a peer's collection is
/// fixed for its lifetime), so the arena only needs block allocation and
/// recycling: freed blocks are kept on per-length free lists and reused
/// for the next newborn with the same (post-dedup) item count. Exact-length
/// reuse does not bound the backing vector's growth: a freed block waits
/// for a newborn that draws its length, so the free lists fragment and
/// the arena grows with churn. At strained churn (4 000 peers, cache 20,
/// queries off, 7 800 simulated s) it holds 380 216 allocated items
/// against 87 409 live. Nothing compacts it.
#[derive(Debug, Clone, Default)]
pub struct LibraryArena {
    items: Vec<u32>,
    /// Freed blocks, keyed by exact length.
    free: FxHashMap<u32, Vec<u32>>,
    /// Reusable draw buffer for [`Catalog::build_library_in`].
    scratch: Vec<u32>,
    /// Items currently reachable through live handles.
    live: usize,
}

impl LibraryArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a sorted, deduplicated id slice; returns its handle.
    fn insert_sorted(&mut self, ids: &[u32]) -> LibraryHandle {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        if ids.is_empty() {
            return LibraryHandle::EMPTY;
        }
        let len = u32::try_from(ids.len()).expect("library exceeds u32 item count");
        let offset = match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(off) => {
                self.items[off as usize..off as usize + ids.len()].copy_from_slice(ids);
                off
            }
            None => {
                let off = u32::try_from(self.items.len()).expect("library arena exceeds u32 items");
                self.items.extend_from_slice(ids);
                off
            }
        };
        self.live += ids.len();
        LibraryHandle { offset, len }
    }

    /// The items of library `h`, in ascending id order.
    #[must_use]
    pub fn items(&self, h: LibraryHandle) -> &[u32] {
        &self.items[h.offset as usize..h.offset as usize + h.len as usize]
    }

    /// Membership test for library `h`.
    #[must_use]
    pub fn contains(&self, h: LibraryHandle, item: ItemId) -> bool {
        self.items(h).binary_search(&item.0).is_ok()
    }

    /// Returns library `h`'s block to the free list. The handle must not
    /// be used afterwards; freeing [`LibraryHandle::EMPTY`] is a no-op.
    pub fn free(&mut self, h: LibraryHandle) {
        if h.len == 0 {
            return;
        }
        self.live -= h.len as usize;
        self.free.entry(h.len).or_default().push(h.offset);
    }

    /// Total items ever allocated (backing-vector length).
    #[must_use]
    pub fn allocated_items(&self) -> usize {
        self.items.len()
    }

    /// Items currently reachable through live handles.
    #[must_use]
    pub fn live_items(&self) -> usize {
        self.live
    }
}

/// A peer's collection of items, optimized for membership tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerLibrary {
    items: Vec<u32>, // sorted, deduplicated
}

impl PeerLibrary {
    /// The empty library (a free rider's collection).
    #[must_use]
    pub fn empty() -> Self {
        PeerLibrary { items: Vec::new() }
    }

    /// Number of distinct items held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns true if the library holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item.0).is_ok()
    }

    /// Iterates over held items in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items.iter().map(|&i| ItemId(i))
    }
}

impl FromIterator<ItemId> for PeerLibrary {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        let mut items: Vec<u32> = iter.into_iter().map(|i| i.0).collect();
        items.sort_unstable();
        items.dedup();
        PeerLibrary { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::new(CatalogParams::default()).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Catalog::new(CatalogParams {
            items: 0,
            ..CatalogParams::default()
        })
        .is_err());
        assert!(Catalog::new(CatalogParams {
            replication_exponent: -1.0,
            ..CatalogParams::default()
        })
        .is_err());
    }

    #[test]
    fn library_respects_file_count() {
        let c = catalog();
        let mut rng = RngStream::from_seed(1, "c");
        let lib = c.build_library(100, &mut rng);
        assert!(lib.len() <= 100);
        assert!(!lib.is_empty());
        for item in lib.iter() {
            assert!((item.0 as usize) < c.item_count());
        }
    }

    #[test]
    fn empty_library_contains_nothing() {
        let lib = PeerLibrary::empty();
        assert!(lib.is_empty());
        assert!(!lib.contains(ItemId(0)));
        assert_eq!(lib.len(), 0);
    }

    #[test]
    fn contains_finds_held_items() {
        let lib: PeerLibrary = [ItemId(5), ItemId(2), ItemId(5)].into_iter().collect();
        assert_eq!(lib.len(), 2, "duplicates collapse");
        assert!(lib.contains(ItemId(2)));
        assert!(lib.contains(ItemId(5)));
        assert!(!lib.contains(ItemId(3)));
    }

    #[test]
    fn popular_items_are_widely_replicated() {
        let c = catalog();
        let mut rng = RngStream::from_seed(2, "c");
        let libs: Vec<PeerLibrary> = (0..300).map(|_| c.build_library(120, &mut rng)).collect();
        let holders_head = libs.iter().filter(|l| l.contains(ItemId(0))).count();
        let holders_tail = libs.iter().filter(|l| l.contains(ItemId(30_000))).count();
        assert!(
            holders_head > holders_tail,
            "rank-0 item held by {holders_head}, rank-30000 by {holders_tail}"
        );
    }

    #[test]
    fn query_items_are_in_range() {
        let c = catalog();
        let mut rng = RngStream::from_seed(3, "c");
        for _ in 0..1000 {
            let item = c.sample_query_item(&mut rng);
            assert!((item.0 as usize) < c.item_count());
        }
    }

    #[test]
    fn zero_files_gives_empty_library() {
        let c = catalog();
        let mut rng = RngStream::from_seed(4, "c");
        assert!(c.build_library(0, &mut rng).is_empty());
    }

    #[test]
    fn arena_library_matches_owned_library() {
        // Same seed, same draws: the arena-backed builder must produce the
        // exact item set (and consume the exact RNG stream) of the owned
        // builder — this is what keeps goldens byte-identical.
        let c = catalog();
        let mut arena = LibraryArena::new();
        let mut r1 = RngStream::from_seed(9, "c");
        let mut r2 = RngStream::from_seed(9, "c");
        for files in [0u32, 1, 7, 120, 300] {
            let owned = c.build_library(files, &mut r1);
            let h = c.build_library_in(files, &mut r2, &mut arena);
            let owned_items: Vec<u32> = owned.iter().map(|i| i.0).collect();
            assert_eq!(arena.items(h), owned_items.as_slice());
            assert_eq!(h.len(), owned.len());
            for item in owned.iter() {
                assert!(arena.contains(h, item));
            }
        }
        assert_eq!(r1.next_u64(), r2.next_u64(), "streams stayed in lockstep");
    }

    #[test]
    fn arena_recycles_freed_blocks() {
        let c = catalog();
        let mut arena = LibraryArena::new();
        let mut rng = RngStream::from_seed(5, "c");
        let a = c.build_library_in(80, &mut rng, &mut arena);
        let len_a = a.len();
        let grown = arena.allocated_items();
        assert_eq!(arena.live_items(), len_a);
        arena.free(a);
        assert_eq!(arena.live_items(), 0);
        // A same-size successor must reuse the freed block, not grow.
        let mut probe = None;
        for _ in 0..200 {
            let h = c.build_library_in(80, &mut rng, &mut arena);
            if h.len() == len_a {
                probe = Some(h);
                break;
            }
            arena.free(h);
        }
        let h = probe.expect("a same-size library shows up within 200 draws");
        assert_eq!(arena.allocated_items(), grown, "block was recycled");
        assert_eq!(arena.live_items(), h.len());
        assert!(arena.items(h).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_handle_is_inert() {
        let mut arena = LibraryArena::new();
        let h = LibraryHandle::EMPTY;
        assert!(h.is_empty());
        assert_eq!(arena.items(h), &[] as &[u32]);
        assert!(!arena.contains(h, ItemId(0)));
        arena.free(h); // no-op
        assert_eq!(arena.allocated_items(), 0);
    }
}
