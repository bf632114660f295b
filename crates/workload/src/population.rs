//! The churning content population the forwarding baselines share.
//!
//! Figure 8 holds the *content* fixed and varies only the search
//! mechanism, so fixed extent, iterative deepening, the per-hop flooding
//! engine and rumor spreading all search one definition of "n peers,
//! each an incarnation plus a file-count-sampled library drawn from a
//! catalog, reborn in place with a fresh library": [`Population`]. The
//! static evaluators use it as generated; the engines churn it through
//! [`Population::rebirth`] and [`Population::join`] and run each peer on
//! [`Clocks`], the lifetime + query-burst pair.
//!
//! Draw order is part of the contract (runs are byte-identical under a
//! seed): a newborn draws its file count, then its library;
//! [`Clocks::start`] draws the lifetime, then the first burst gap.
//! `rebirth` and `start` are two calls so an engine can put draws of
//! its own (overlay wiring) between them.
//!
//! GUESS is not a user: its peers also carry a link cache, a capacity
//! meter and reputation state, and are born from a friend's cache.

use simkit::rng::RngStream;
use simkit::sim::{ChurnDriver, SimCtx};
use simkit::time::SimTime;
use simkit::trace::TraceSink;

use crate::content::{Catalog, CatalogParams, LibraryArena, LibraryHandle};
use crate::files::FileCountModel;
use crate::lifetime::LifetimeModel;
use crate::query::{InvalidQueryRateError, QueryModel, QueryTarget, QueryWorkload};

#[derive(Debug, Clone, Copy)]
struct Slot {
    incarnation: u64,
    /// Freed and rebuilt at every in-place rebirth, so churn recycles
    /// arena blocks instead of leaking them.
    library: LibraryHandle,
}

/// Peer slots with content libraries, plus the query model. Methods
/// taking a `slot` panic if it is out of range.
///
/// # Examples
///
/// ```
/// use workload::content::CatalogParams;
/// use workload::population::Population;
///
/// let pop = Population::generate(100, CatalogParams::default(), 42).unwrap();
/// assert_eq!(pop.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    slots: Vec<Slot>,
    /// Every slot's library items, shared contiguous storage.
    libs: LibraryArena,
    model: QueryModel,
    files: FileCountModel,
    next_incarnation: u64,
}

/// Error constructing a [`Population`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPopulationError {
    /// No peers requested.
    Empty,
    /// Catalog parameters were invalid.
    BadCatalog,
}

impl std::fmt::Display for BuildPopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildPopulationError::Empty => write!(f, "population must be non-empty"),
            BuildPopulationError::BadCatalog => write!(f, "invalid catalog parameters"),
        }
    }
}

impl std::error::Error for BuildPopulationError {}

impl Population {
    /// Generates `n` peers with Gnutella-like file counts and libraries
    /// drawn from a fresh catalog, on the seed's own `"population"`
    /// stream — the static populations of the Figure 8 evaluators.
    ///
    /// # Errors
    ///
    /// As [`Population::generate_from`].
    pub fn generate(
        n: usize,
        catalog: CatalogParams,
        seed: u64,
    ) -> Result<Self, BuildPopulationError> {
        Population::generate_from(n, catalog, &mut RngStream::from_seed(seed, "population"))
    }

    /// As [`Population::generate`], on the caller's stream: `n` joins.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPopulationError`], having drawn nothing, if
    /// `n == 0` or the catalog parameters are rejected.
    pub fn generate_from(
        n: usize,
        catalog: CatalogParams,
        rng: &mut RngStream,
    ) -> Result<Self, BuildPopulationError> {
        if n == 0 {
            return Err(BuildPopulationError::Empty);
        }
        let catalog = Catalog::new(catalog).map_err(|_| BuildPopulationError::BadCatalog)?;
        let mut pop = Population {
            slots: Vec::new(),
            libs: LibraryArena::new(),
            model: QueryModel::new(catalog),
            files: FileCountModel::gnutella_like(),
            next_incarnation: 0,
        };
        for _ in 0..n {
            pop.join(rng);
        }
        Ok(pop)
    }

    /// A newborn: one file-count draw, one library, the next
    /// never-used incarnation.
    fn newborn(&mut self, rng: &mut RngStream) -> Slot {
        let count = self.files.sample_file_count(rng);
        let catalog = self.model.catalog();
        let library = catalog.build_library_in(count, rng, &mut self.libs);
        let incarnation = self.next_incarnation;
        self.next_incarnation += 1;
        Slot {
            incarnation,
            library,
        }
    }

    /// Appends a newborn and returns its slot, the previous
    /// [`Population::len`].
    pub fn join(&mut self, rng: &mut RngStream) -> usize {
        let newborn = self.newborn(rng);
        self.slots.push(newborn);
        self.slots.len() - 1
    }

    /// Replaces `slot`'s occupant in place with a newborn, freeing the
    /// old library's block first.
    pub fn rebirth(&mut self, slot: usize, rng: &mut RngStream) {
        self.libs.free(self.slots[slot].library);
        self.slots[slot] = self.newborn(rng);
    }

    /// Number of slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns true if there are no slots (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The incarnation currently occupying `slot`.
    #[inline]
    #[must_use]
    pub fn incarnation(&self, slot: usize) -> u64 {
        self.slots[slot].incarnation
    }

    /// Whether `incarnation` still occupies `slot` — the guard that
    /// makes a dead peer's leftover events no-ops.
    #[inline]
    #[must_use]
    pub fn is_current(&self, slot: usize, incarnation: u64) -> bool {
        self.slots[slot].incarnation == incarnation
    }

    /// The items `slot` holds, in ascending id order.
    #[must_use]
    pub fn items(&self, slot: usize) -> &[u32] {
        self.libs.items(self.slots[slot].library)
    }

    /// Whether `slot`'s occupant answers `target`.
    #[inline]
    #[must_use]
    pub fn answers(&self, slot: usize, target: QueryTarget) -> bool {
        let library = self.slots[slot].library;
        self.model.answers_in(&self.libs, library, target)
    }

    /// Draws a query target from the query-popularity distribution.
    #[inline]
    #[must_use]
    pub fn sample_target(&self, rng: &mut RngStream) -> QueryTarget {
        self.model.sample_target(rng)
    }

    /// Number of peers that could answer `target` — the content's true
    /// replication in this population.
    #[must_use]
    pub fn holders(&self, target: QueryTarget) -> usize {
        (0..self.len()).filter(|&i| self.answers(i, target)).count()
    }
}

/// The two clocks every peer of a churning [`Population`] runs on.
#[derive(Debug, Clone)]
pub struct Clocks {
    /// Sampled lifetimes: schedules (and traces) births and deaths.
    pub churn: ChurnDriver<LifetimeModel>,
    /// The bursty query process.
    pub workload: QueryWorkload,
}

impl Clocks {
    /// Saroiu-like lifetimes scaled by `lifespan_multiplier`, query
    /// bursts at the long-run per-user `query_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQueryRateError`] unless the rate is finite and
    /// positive.
    pub fn new(lifespan_multiplier: f64, query_rate: f64) -> Result<Self, InvalidQueryRateError> {
        Ok(Clocks {
            churn: ChurnDriver::new(LifetimeModel::saroiu_like(lifespan_multiplier)),
            workload: QueryWorkload::with_rate(query_rate)?,
        })
    }

    /// Starts a newborn's clocks at `now`: draws its lifetime, traces
    /// the join and schedules `death`, then draws its first burst gap
    /// and schedules `burst` — two draws from `rng`, in that order.
    pub fn start<E, T: TraceSink>(
        &self,
        ctx: &mut SimCtx<'_, E, T>,
        rng: &mut RngStream,
        now: SimTime,
        incarnation: u64,
        death: E,
        burst: E,
    ) {
        self.churn.spawn(ctx, rng, now, incarnation, death);
        let gap = self.workload.sample_burst_gap(rng);
        ctx.schedule(now + gap, burst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ItemId;
    use simkit::sim::{Kernel, KernelParams, Simulation};
    use simkit::time::SimDuration;
    use simkit::trace::NullSink;

    #[test]
    fn rejects_empty_population() {
        assert_eq!(
            Population::generate(0, CatalogParams::default(), 1).unwrap_err(),
            BuildPopulationError::Empty
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Population::generate(50, CatalogParams::default(), 9).unwrap();
        let b = Population::generate(50, CatalogParams::default(), 9).unwrap();
        for i in 0..50 {
            assert_eq!(a.items(i), b.items(i));
        }
    }

    #[test]
    fn some_peers_share_nothing() {
        let pop = Population::generate(400, CatalogParams::default(), 2).unwrap();
        let free = (0..400).filter(|&i| pop.items(i).is_empty()).count();
        assert!(free > 40, "expect ~25% free riders, got {free}/400");
        assert!(free < 200);
    }

    #[test]
    fn popular_targets_have_more_holders() {
        let pop = Population::generate(500, CatalogParams::default(), 3).unwrap();
        let head = pop.holders(QueryTarget { item: ItemId(0) });
        let tail = pop.holders(QueryTarget {
            item: ItemId(30_000),
        });
        assert!(head > tail, "head item holders {head} vs tail {tail}");
    }

    #[test]
    fn generate_draws_what_the_owned_reference_draws() {
        let params = CatalogParams::default();
        let mut ours = RngStream::from_seed(7, "pin");
        let pop = Population::generate_from(60, params, &mut ours).unwrap();

        let mut reference = RngStream::from_seed(7, "pin");
        let catalog = Catalog::new(params).unwrap();
        let files = FileCountModel::gnutella_like();
        let head = QueryTarget { item: ItemId(0) };
        for slot in 0..60 {
            let count = files.sample_file_count(&mut reference);
            let owned = catalog.build_library(count, &mut reference);
            let owned_items: Vec<u32> = owned.iter().map(|i| i.0).collect();
            assert_eq!(pop.items(slot), owned_items.as_slice(), "slot {slot}");
            assert_eq!(pop.answers(slot, head), pop.model.answers(&owned, head));
        }
        assert_eq!(ours.next_u64(), reference.next_u64(), "streams in lockstep");
    }

    #[test]
    fn rebirth_never_reuses_an_incarnation_and_leaks_no_block() {
        let mut rng = RngStream::from_seed(11, "churn");
        let mut pop = Population::generate_from(50, CatalogParams::default(), &mut rng).unwrap();
        let mut seen: std::collections::HashSet<u64> =
            (0..50).map(|s| pop.incarnation(s)).collect();
        assert_eq!(seen.len(), 50);
        for _ in 0..10_000 {
            let slot = rng.below(50);
            let old = pop.incarnation(slot);
            pop.rebirth(slot, &mut rng);
            let new = pop.incarnation(slot);
            assert!(pop.is_current(slot, new) && !pop.is_current(slot, old));
            assert!(seen.insert(new), "incarnation {new} was handed out twice");
        }
        let held: usize = (0..50).map(|s| pop.items(s).len()).sum();
        assert_eq!(pop.libs.live_items(), held, "a replaced block leaked");
    }

    #[test]
    fn join_appends_the_next_slot_with_a_fresh_incarnation() {
        let mut rng = RngStream::from_seed(12, "join");
        let mut pop = Population::generate_from(5, CatalogParams::default(), &mut rng).unwrap();
        pop.rebirth(2, &mut rng);
        let before: Vec<u64> = (0..5).map(|s| pop.incarnation(s)).collect();
        assert_eq!(pop.join(&mut rng), 5);
        assert_eq!(pop.len(), 6);
        assert!(!before.contains(&pop.incarnation(5)));
        assert!((0..5).all(|s| pop.is_current(s, before[s])));
    }

    /// Records when each clock event fires.
    struct Fired(Vec<(SimTime, &'static str)>);

    impl Simulation<NullSink> for Fired {
        type Event = &'static str;

        fn handle(
            &mut self,
            now: SimTime,
            ev: Self::Event,
            _: &mut SimCtx<'_, Self::Event, NullSink>,
        ) {
            self.0.push((now, ev));
        }
    }

    #[test]
    fn start_draws_lifetime_before_burst_gap() {
        let mut rng = RngStream::from_seed(13, "clocks");
        let mut by_hand = RngStream::from_seed(13, "clocks");
        let life = LifetimeModel::saroiu_like(1.0).sample_lifetime(&mut by_hand);
        let gap = QueryWorkload::with_rate(0.5)
            .unwrap()
            .sample_burst_gap(&mut by_hand);

        let horizon = SimDuration::from_secs(life.as_secs() + gap.as_secs() + 1.0);
        let mut kernel = Kernel::new(KernelParams::new(horizon), NullSink);
        let now = SimTime::from_secs(0.25);
        let clocks = Clocks::new(1.0, 0.5).unwrap();
        clocks.start(&mut kernel.ctx(), &mut rng, now, 0, "death", "burst");
        let mut fired = Fired(Vec::new());
        kernel.run(&mut fired);
        assert!(fired.0.contains(&(now + life, "death")));
        assert!(fired.0.contains(&(now + gap, "burst")));
        assert_eq!(rng.next_u64(), by_hand.next_u64(), "exactly two draws");
    }
}
