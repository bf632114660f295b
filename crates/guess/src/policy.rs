//! Policies — the paper's central subject.
//!
//! GUESS performance hinges on five policy points (§4): the order query
//! probes go out (`QueryProbe`), which entries go into a pong answering a
//! query (`QueryPong`), the order maintenance pings go out (`PingProbe`),
//! which entries go into a pong answering a ping (`PingPong`), and which
//! entry is evicted when the link cache is full (`CacheReplacement`).
//!
//! The first four are *selection* policies: they prefer some entries over
//! others. Replacement policies are named for **what gets evicted**, so the
//! mirror of a Most-Files-Shared selection goal is a Least-Files-Shared
//! eviction ([`ReplacementPolicy::Lfs`]).
//!
//! MR\* is not a separate ordering: it is [`SelectionPolicy::Mr`] combined
//! with the `ResetNumResults` protocol flag, which zeroes third-party
//! `NumRes` claims at insertion time.

use simkit::rng::RngStream;
use simkit::time::SimTime;

use crate::addr::PeerAddr;
use crate::entry::CacheEntry;

/// Preference order for probes and pong construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionPolicy {
    /// Uniformly random order — the paper's baseline, and the fairest.
    #[default]
    Random,
    /// Most Recently Used: freshest `TS` first (fewest wasted probes).
    Mru,
    /// Least Recently Used: stalest `TS` first (spreads load; risks dead
    /// probes).
    Lru,
    /// Most Files Shared: highest advertised `NumFiles` first.
    Mfs,
    /// Most Results: highest recorded `NumRes` first.
    Mr,
}

/// Eviction order for the link cache, named for what gets **evicted**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict a uniformly random entry.
    #[default]
    Random,
    /// Evict the least-recently-used entry (keeps fresh entries — the
    /// MRU-goal mirror).
    Lru,
    /// Evict the most-recently-used entry (the fairness mirror; the paper
    /// shows it is pathological).
    Mru,
    /// Evict the entry advertising the fewest files (keeps big sharers —
    /// the MFS-goal mirror).
    Lfs,
    /// Evict the entry with the fewest recorded results (the MR-goal
    /// mirror).
    Lr,
}

impl std::fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SelectionPolicy::Random => "Ran",
            SelectionPolicy::Mru => "MRU",
            SelectionPolicy::Lru => "LRU",
            SelectionPolicy::Mfs => "MFS",
            SelectionPolicy::Mr => "MR",
        };
        f.write_str(s)
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReplacementPolicy::Random => "Ran",
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Mru => "MRU",
            ReplacementPolicy::Lfs => "LFS",
            ReplacementPolicy::Lr => "LR",
        };
        f.write_str(s)
    }
}

impl SelectionPolicy {
    /// The replacement policy that pursues the same goal as this selection
    /// policy (§4: "Most Files Shared becomes Least Files Shared", …).
    #[must_use]
    pub fn mirror_replacement(self) -> ReplacementPolicy {
        match self {
            SelectionPolicy::Random => ReplacementPolicy::Random,
            SelectionPolicy::Mru => ReplacementPolicy::Lru,
            SelectionPolicy::Lru => ReplacementPolicy::Mru,
            SelectionPolicy::Mfs => ReplacementPolicy::Lfs,
            SelectionPolicy::Mr => ReplacementPolicy::Lr,
        }
    }
}

impl ReplacementPolicy {
    /// The selection policy whose preference this eviction keeps: the
    /// cache evicts what that policy would pick last. The inverse of
    /// [`SelectionPolicy::mirror_replacement`], so a retention key is a
    /// selection key under `goal()`.
    #[must_use]
    pub(crate) fn goal(self) -> SelectionPolicy {
        match self {
            ReplacementPolicy::Random => SelectionPolicy::Random,
            ReplacementPolicy::Lru => SelectionPolicy::Mru,
            ReplacementPolicy::Mru => SelectionPolicy::Lru,
            ReplacementPolicy::Lfs => SelectionPolicy::Mfs,
            ReplacementPolicy::Lr => SelectionPolicy::Mr,
        }
    }
}

/// Scales a timestamp to an orderable integer (microsecond resolution).
fn ts_key(ts: SimTime) -> u64 {
    (ts.as_secs() * 1e6) as u64
}

/// Evaluates `$body` with `$primary` bound to the primary-key function of
/// the selection policy `$policy` (larger is preferred). This is the one
/// statement of the five orders; the match runs once, outside whatever
/// loop `$body` holds, and each arm compiles that loop for its own key.
macro_rules! with_primary {
    ($policy:expr, |$primary:ident| $body:expr) => {
        match $policy {
            SelectionPolicy::Random => {
                let $primary = |_: &CacheEntry| 0;
                $body
            }
            SelectionPolicy::Mru => {
                let $primary = |e: &CacheEntry| ts_key(e.ts());
                $body
            }
            SelectionPolicy::Lru => {
                let $primary = |e: &CacheEntry| u64::MAX - ts_key(e.ts());
                $body
            }
            SelectionPolicy::Mfs => {
                let $primary = |e: &CacheEntry| u64::from(e.num_files());
                $body
            }
            SelectionPolicy::Mr => {
                let $primary = |e: &CacheEntry| u64::from(e.num_res());
                $body
            }
        }
    };
}

/// A primary key and its tie-break draw as one integer: packed keys order
/// exactly as the `(primary, tie)` pairs do.
#[inline]
fn pack(primary: u64, tie: u64) -> u128 {
    (u128::from(primary) << 64) | u128::from(tie)
}

/// Preference key for `entry` under `policy`: **larger keys are preferred**
/// (probed/pong'd first, evicted last). Ties are broken by a random draw so
/// equal-key entries are treated symmetrically.
#[must_use]
pub fn selection_key(
    policy: SelectionPolicy,
    entry: &CacheEntry,
    rng: &mut RngStream,
) -> (u64, u64) {
    let tie = rng.next_u64();
    (with_primary!(policy, |primary| primary(entry)), tie)
}

/// Retention key for `entry` under an eviction policy: the entry with the
/// **smallest** key is the eviction victim.
#[must_use]
pub fn retention_key(
    policy: ReplacementPolicy,
    entry: &CacheEntry,
    rng: &mut RngStream,
) -> (u64, u64) {
    selection_key(policy.goal(), entry, rng)
}

/// The ranked pick: the (at most) `k` entries of `entries` with the
/// largest keys under `policy`, as `(packed key, index)` pairs in
/// preference order, written to `ranked` (cleared first).
///
/// Every entry draws its tie-break, in slice order, whether or not it can
/// still win: the draw sequence is the goldens' contract. An entry is kept
/// if it beats the k-th pair kept so far; since it comes later in the
/// slice, an exact key tie goes to it, as `(key, index)` ordering says.
/// `k = 1` is a plain argmax. Otherwise the kept pairs stay sorted, so a
/// rejection costs one compare and an admission an insertion-sort step
/// over at most `k` pairs: O(n) draws and compares plus O(k) per
/// admission, so O(n·k) at worst (keys ascending in slice order) and
/// about k·(1 + ln(n/k)) admissions for keys in random order.
pub(crate) fn top_k(
    policy: SelectionPolicy,
    entries: &[CacheEntry],
    k: usize,
    rng: &mut RngStream,
    ranked: &mut Vec<(u128, usize)>,
) {
    ranked.clear();
    let k = k.min(entries.len());
    if k == 0 {
        return;
    }
    with_primary!(policy, |primary| top_k_by(primary, entries, k, rng, ranked));
}

#[inline(always)]
fn top_k_by(
    primary: impl Fn(&CacheEntry) -> u64,
    entries: &[CacheEntry],
    k: usize,
    rng: &mut RngStream,
    ranked: &mut Vec<(u128, usize)>,
) {
    if k == 1 {
        let mut best = (0, 0);
        for (i, e) in entries.iter().enumerate() {
            let key = pack(primary(e), rng.next_u64());
            if key >= best.0 {
                best = (key, i);
            }
        }
        ranked.push(best);
        return;
    }
    ranked.reserve(k);
    // The k-th kept key once k are kept; until then every entry is kept.
    let mut bar = 0;
    for (i, e) in entries.iter().enumerate() {
        let key = pack(primary(e), rng.next_u64());
        if key < bar {
            continue;
        }
        if ranked.len() == k {
            ranked.pop();
        }
        // Insertion sort, from the weak end: the newcomer passes every
        // kept pair whose key is not above its own.
        let mut at = ranked.len();
        ranked.push((key, i));
        while at > 0 && ranked[at - 1].0 <= key {
            ranked[at] = ranked[at - 1];
            at -= 1;
        }
        ranked[at] = (key, i);
        if ranked.len() == k {
            bar = ranked[k - 1].0;
        }
    }
}

/// The eviction contest under `policy`: the index of the entry with the
/// smallest retention key (the first such, on an exact tie), or `None`
/// when `entries` is empty or `newcomer`'s key is not above that minimum.
///
/// The newcomer draws its tie-break first, then every entry in slice
/// order, so a full-cache offer and a bare victim pick (`newcomer` is
/// `None`) consume randomness exactly as the per-entry
/// [`retention_key`] minimum does.
#[must_use]
pub(crate) fn weakest(
    policy: ReplacementPolicy,
    newcomer: Option<&CacheEntry>,
    entries: &[CacheEntry],
    rng: &mut RngStream,
) -> Option<usize> {
    with_primary!(policy.goal(), |primary| weakest_by(
        primary, newcomer, entries, rng
    ))
}

#[inline(always)]
fn weakest_by(
    primary: impl Fn(&CacheEntry) -> u64,
    newcomer: Option<&CacheEntry>,
    entries: &[CacheEntry],
    rng: &mut RngStream,
) -> Option<usize> {
    let bar = newcomer.map(|e| pack(primary(e), rng.next_u64()));
    let (first, rest) = entries.split_first()?;
    let mut min = (pack(primary(first), rng.next_u64()), 0);
    for (i, e) in rest.iter().enumerate() {
        let key = pack(primary(e), rng.next_u64());
        if key < min.0 {
            min = (key, i + 1);
        }
    }
    match bar {
        Some(bar) if bar <= min.0 => None,
        _ => Some(min.1),
    }
}

/// Selects up to `k` entries from `entries` in preference order under
/// `policy` — this is how pongs are built.
///
/// A `Random` pick costs O(k) expected when sparse and O(n) when dense;
/// a ranked one is one pass over the slice (`top_k`).
#[must_use]
pub fn select_top_k(
    policy: SelectionPolicy,
    entries: &[CacheEntry],
    k: usize,
    rng: &mut RngStream,
) -> Vec<CacheEntry> {
    let mut out = Vec::new();
    select_top_k_into(policy, entries, k, rng, &mut Vec::new(), &mut out);
    out
}

/// [`select_top_k`] into caller-owned buffers: `out` is cleared and
/// refilled, and the ranked policies rank in `ranked`, so buffers that
/// have once held a pong and ranked a cache are never reallocated.
pub fn select_top_k_into(
    policy: SelectionPolicy,
    entries: &[CacheEntry],
    k: usize,
    rng: &mut RngStream,
    ranked: &mut Vec<(u128, usize)>,
    out: &mut Vec<CacheEntry>,
) {
    out.clear();
    let n = entries.len();
    let k = k.min(n);
    if k == 0 {
        return;
    }
    if policy == SelectionPolicy::Random {
        // The draws of `RngStream::sample_indices(n, k)`, in its order,
        // without its index vector.
        if k * 8 <= n {
            // Sparse: rejection sampling. A pick waits in `out` as a
            // stand-in whose address field is the slice index, so the
            // distinctness check needs no second buffer.
            out.reserve(k);
            while out.len() < k {
                let c = rng.below(n);
                if !out.iter().any(|p| p.addr().index() == c) {
                    let c = u32::try_from(c).expect("slice index fits the address field");
                    out.push(CacheEntry::new(PeerAddr::from_raw(c), SimTime::ZERO, 0));
                }
            }
            for p in out.iter_mut() {
                *p = entries[p.addr().index()];
            }
        } else {
            // Dense: partial Fisher–Yates, swapping the entries themselves.
            out.extend_from_slice(entries);
            for i in 0..k {
                let j = i + rng.below(n - i);
                out.swap(i, j);
            }
            out.truncate(k);
        }
        return;
    }
    top_k(policy, entries, k, rng, ranked);
    out.extend(ranked.iter().map(|&(_, i)| entries[i]));
}

/// Picks the index of the eviction victim under `policy` from a non-empty
/// slice: a uniform draw for `Random`, else the eviction contest's
/// weakest entry (`weakest`, with no newcomer).
///
/// Returns `None` on an empty slice.
#[must_use]
pub fn eviction_victim(
    policy: ReplacementPolicy,
    entries: &[CacheEntry],
    rng: &mut RngStream,
) -> Option<usize> {
    if policy == ReplacementPolicy::Random {
        return (!entries.is_empty()).then(|| rng.below(entries.len()));
    }
    weakest(policy, None, entries, rng)
}

/// A probe-ordering queue: candidates are pushed as they are discovered
/// (link cache first, then pong entries) and popped in preference order
/// under the `QueryProbe`/`PingProbe` policy.
///
/// Keys are fixed at push time; the paper's policies rank on the metadata
/// carried by the entry, which does not change while the entry waits in the
/// queue. The heap orders by key alone and stores the entry whole, so
/// [`ProbeQueue::pop`] returns the pushed entry bit for bit.
///
/// # Examples
///
/// ```
/// use guess::addr::AddrAllocator;
/// use guess::entry::CacheEntry;
/// use guess::policy::{ProbeQueue, SelectionPolicy};
/// use simkit::rng::RngStream;
/// use simkit::time::SimTime;
///
/// let mut alloc = AddrAllocator::new();
/// let mut rng = RngStream::from_seed(1, "doc");
/// let mut q = ProbeQueue::new(SelectionPolicy::Mfs);
/// q.push(CacheEntry::new(alloc.allocate(), SimTime::ZERO, 10), &mut rng);
/// q.push(CacheEntry::new(alloc.allocate(), SimTime::ZERO, 999), &mut rng);
/// assert_eq!(q.pop().unwrap().num_files(), 999);
/// ```
#[derive(Debug)]
pub struct ProbeQueue {
    policy: SelectionPolicy,
    heap: std::collections::BinaryHeap<Ranked>,
}

/// A waiting candidate: equal and ordered by `key` alone.
#[derive(Debug)]
struct Ranked {
    key: (u64, u64),
    entry: CacheEntry,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl ProbeQueue {
    /// Creates an empty queue ordering by `policy`.
    #[must_use]
    pub fn new(policy: SelectionPolicy) -> Self {
        ProbeQueue {
            policy,
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Empties the queue and re-keys it for `policy`, keeping its buffer,
    /// so a queue reused across queries stops allocating once it has
    /// grown to the largest pool.
    pub fn reset(&mut self, policy: SelectionPolicy) {
        self.policy = policy;
        self.heap.clear();
    }

    /// Adds a candidate. The caller is responsible for deduplication.
    pub fn push(&mut self, entry: CacheEntry, rng: &mut RngStream) {
        let key = selection_key(self.policy, &entry, rng);
        self.heap.push(Ranked { key, entry });
    }

    /// Pops the most-preferred candidate.
    pub fn pop(&mut self) -> Option<CacheEntry> {
        self.heap.pop().map(|r| r.entry)
    }

    /// Number of waiting candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no candidates wait.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;

    fn entries(n: usize) -> (Vec<CacheEntry>, AddrAllocator) {
        let mut alloc = AddrAllocator::new();
        let v = (0..n)
            .map(|i| {
                let mut e = CacheEntry::new(
                    alloc.allocate(),
                    SimTime::from_secs(i as f64),
                    (i * 10) as u32,
                );
                e.record_results(SimTime::from_secs(i as f64), (i % 4) as u32);
                e
            })
            .collect();
        (v, alloc)
    }

    fn rng() -> RngStream {
        RngStream::from_seed(99, "policy-test")
    }

    #[test]
    fn mfs_prefers_big_sharers() {
        let (es, _) = entries(10);
        let mut r = rng();
        let top = select_top_k(SelectionPolicy::Mfs, &es, 3, &mut r);
        let files: Vec<u32> = top.iter().map(CacheEntry::num_files).collect();
        assert_eq!(files, vec![90, 80, 70]);
    }

    #[test]
    fn mru_prefers_fresh_lru_prefers_stale() {
        let (es, _) = entries(5);
        let mut r = rng();
        let mru = select_top_k(SelectionPolicy::Mru, &es, 1, &mut r)[0];
        let lru = select_top_k(SelectionPolicy::Lru, &es, 1, &mut r)[0];
        assert_eq!(mru.ts(), SimTime::from_secs(4.0));
        assert_eq!(lru.ts(), SimTime::ZERO);
    }

    #[test]
    fn mr_prefers_producers() {
        let (es, _) = entries(8);
        let mut r = rng();
        let top = select_top_k(SelectionPolicy::Mr, &es, 2, &mut r);
        assert!(top.iter().all(|e| e.num_res() == 3));
    }

    #[test]
    fn random_selection_is_distinct_subset() {
        let (es, _) = entries(20);
        let mut r = rng();
        let sel = select_top_k(SelectionPolicy::Random, &es, 5, &mut r);
        assert_eq!(sel.len(), 5);
        let mut addrs: Vec<_> = sel.iter().map(|e| e.addr()).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 5);
    }

    #[test]
    fn top_k_clamps_to_len() {
        let (es, _) = entries(3);
        let mut r = rng();
        assert_eq!(select_top_k(SelectionPolicy::Mfs, &es, 10, &mut r).len(), 3);
        assert!(select_top_k(SelectionPolicy::Mfs, &es, 0, &mut r).is_empty());
        assert!(select_top_k(SelectionPolicy::Mfs, &[], 3, &mut r).is_empty());
    }

    #[test]
    fn lfs_evicts_smallest_sharer() {
        let (es, _) = entries(10);
        let mut r = rng();
        let victim = eviction_victim(ReplacementPolicy::Lfs, &es, &mut r).unwrap();
        assert_eq!(es[victim].num_files(), 0);
    }

    #[test]
    fn lru_eviction_removes_stalest_mru_removes_freshest() {
        let (es, _) = entries(6);
        let mut r = rng();
        let lru = eviction_victim(ReplacementPolicy::Lru, &es, &mut r).unwrap();
        assert_eq!(es[lru].ts(), SimTime::ZERO);
        let mru = eviction_victim(ReplacementPolicy::Mru, &es, &mut r).unwrap();
        assert_eq!(es[mru].ts(), SimTime::from_secs(5.0));
    }

    #[test]
    fn eviction_on_empty_is_none() {
        let mut r = rng();
        assert!(eviction_victim(ReplacementPolicy::Random, &[], &mut r).is_none());
    }

    #[test]
    fn random_eviction_is_in_bounds() {
        let (es, _) = entries(7);
        let mut r = rng();
        for _ in 0..100 {
            let v = eviction_victim(ReplacementPolicy::Random, &es, &mut r).unwrap();
            assert!(v < 7);
        }
    }

    #[test]
    fn probe_queue_orders_by_policy() {
        let (es, _) = entries(10);
        let mut r = rng();
        let mut q = ProbeQueue::new(SelectionPolicy::Mfs);
        for e in &es {
            q.push(*e, &mut r);
        }
        let mut last = u32::MAX;
        while let Some(e) = q.pop() {
            assert!(
                e.num_files() <= last,
                "queue must pop in descending NumFiles"
            );
            last = e.num_files();
        }
    }

    #[test]
    fn probe_queue_random_pops_everything() {
        let (es, _) = entries(50);
        let mut r = rng();
        let mut q = ProbeQueue::new(SelectionPolicy::Random);
        for e in &es {
            q.push(*e, &mut r);
        }
        assert_eq!(q.len(), 50);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 50);
        assert!(q.is_empty());
    }

    #[test]
    fn reset_probe_queue_pops_as_a_fresh_one() {
        let (es, _) = entries(20);
        let mut reused = ProbeQueue::new(SelectionPolicy::Mfs);
        let mut r = rng();
        for e in &es[..7] {
            reused.push(*e, &mut r);
        }
        reused.reset(SelectionPolicy::Mr);
        assert!(reused.is_empty());
        let mut fresh = ProbeQueue::new(SelectionPolicy::Mr);
        let (mut r_reused, mut r_fresh) = (rng(), rng());
        for e in &es {
            reused.push(*e, &mut r_reused);
            fresh.push(*e, &mut r_fresh);
        }
        while let Some(e) = fresh.pop() {
            assert_eq!(reused.pop(), Some(e));
        }
        assert!(reused.is_empty());
    }

    #[test]
    fn probe_queue_round_trips_entry_fields() {
        let mut r = rng();
        let mut alloc = AddrAllocator::new();
        let e = CacheEntry::from_pong(alloc.allocate(), SimTime::from_secs(12.5), 77, 3);
        let mut q = ProbeQueue::new(SelectionPolicy::Mr);
        q.push(e, &mut r);
        let back = q.pop().unwrap();
        assert_eq!(back, e);
        // A `TS` that is not a whole number of microseconds survives too.
        let odd = CacheEntry::from_pong(alloc.allocate(), SimTime::from_secs(1.0 / 3.0), 1, 0);
        q.push(odd, &mut r);
        assert_eq!(q.pop().unwrap(), odd);
    }

    const SELECTION_POLICIES: [SelectionPolicy; 5] = [
        SelectionPolicy::Random,
        SelectionPolicy::Mru,
        SelectionPolicy::Lru,
        SelectionPolicy::Mfs,
        SelectionPolicy::Mr,
    ];

    /// The queue element before it carried the `CacheEntry` whole: same
    /// key, same key-only ordering, three more fields.
    #[derive(PartialEq, Eq)]
    struct OldRanked {
        key: (u64, u64),
        addr_order: u64,
        addr: PeerAddr,
        ts_us: u64,
        num_files: u32,
        num_res: u32,
    }

    impl PartialOrd for OldRanked {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for OldRanked {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn probe_queue_pops_in_the_old_elements_order() {
        for policy in SELECTION_POLICIES {
            let (es, _) = entries(400);
            let mut drv = RngStream::from_seed(17, "queue-driver");
            let mut r_new = rng();
            let mut r_old = rng();
            let mut new = ProbeQueue::new(policy);
            let mut old = std::collections::BinaryHeap::new();
            let mut next = es.iter().cycle();
            let (mut new_order, mut old_order) = (Vec::new(), Vec::new());
            for _ in 0..1000 {
                if new.is_empty() || drv.chance(0.6) {
                    // Coarse keys (many ties on the primary) on purpose.
                    let e = *next.next().unwrap();
                    new.push(e, &mut r_new);
                    old.push(OldRanked {
                        key: selection_key(policy, &e, &mut r_old),
                        addr_order: e.addr().index() as u64,
                        addr: e.addr(),
                        ts_us: ts_key(e.ts()),
                        num_files: e.num_files(),
                        num_res: e.num_res(),
                    });
                } else {
                    new_order.push(new.pop().unwrap().addr());
                    old_order.push(old.pop().unwrap().addr);
                }
            }
            assert!(new_order.len() > 300, "the mix must pop, not only push");
            assert_eq!(new_order, old_order, "{policy}: pop order moved");
            assert_eq!(r_new.next_u64(), r_old.next_u64(), "{policy}: RNG draws");
        }
    }

    const RANKED_REPLACEMENTS: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Mru,
        ReplacementPolicy::Lfs,
        ReplacementPolicy::Lr,
    ];

    /// `selection_key` as it stood before the kernels: one match per call,
    /// the tie drawn first. The references below rank with it and with
    /// [`old_retention_key`], so they share no key code with the kernels.
    fn old_selection_key(
        policy: SelectionPolicy,
        entry: &CacheEntry,
        rng: &mut RngStream,
    ) -> (u64, u64) {
        let tie = rng.next_u64();
        let primary = match policy {
            SelectionPolicy::Random => 0,
            SelectionPolicy::Mru => ts_key(entry.ts()),
            SelectionPolicy::Lru => u64::MAX - ts_key(entry.ts()),
            SelectionPolicy::Mfs => u64::from(entry.num_files()),
            SelectionPolicy::Mr => u64::from(entry.num_res()),
        };
        (primary, tie)
    }

    /// `retention_key` as it stood before the kernels.
    fn old_retention_key(
        policy: ReplacementPolicy,
        entry: &CacheEntry,
        rng: &mut RngStream,
    ) -> (u64, u64) {
        let tie = rng.next_u64();
        let primary = match policy {
            ReplacementPolicy::Random => 0,
            ReplacementPolicy::Lru => ts_key(entry.ts()),
            ReplacementPolicy::Mru => u64::MAX - ts_key(entry.ts()),
            ReplacementPolicy::Lfs => u64::from(entry.num_files()),
            ReplacementPolicy::Lr => u64::from(entry.num_res()),
        };
        (primary, tie)
    }

    /// `select_top_k` as it stood before `select_top_k_into`: the oracle
    /// for picks, their order and the RNG draws.
    fn old_select_top_k(
        policy: SelectionPolicy,
        entries: &[CacheEntry],
        k: usize,
        rng: &mut RngStream,
    ) -> Vec<CacheEntry> {
        use std::cmp::Reverse;
        if k == 0 || entries.is_empty() {
            return Vec::new();
        }
        if policy == SelectionPolicy::Random {
            return rng
                .sample_indices(entries.len(), k)
                .into_iter()
                .map(|i| entries[i])
                .collect();
        }
        let mut heap = std::collections::BinaryHeap::with_capacity(k + 1);
        for (i, e) in entries.iter().enumerate() {
            heap.push(Reverse((old_selection_key(policy, e, rng), i)));
            if heap.len() > k {
                heap.pop();
            }
        }
        let mut picked: Vec<((u64, u64), usize)> = heap.into_iter().map(|Reverse(x)| x).collect();
        picked.sort_by_key(|&(key, _)| Reverse(key));
        picked.into_iter().map(|(_, i)| entries[i]).collect()
    }

    /// The eviction contest as `LinkCache::offer` states it: the
    /// newcomer's key first, then the `(key, index)` minimum of the
    /// incumbents. `None` is an empty slice or a rejected newcomer.
    fn old_contest(
        policy: ReplacementPolicy,
        newcomer: Option<&CacheEntry>,
        entries: &[CacheEntry],
        rng: &mut RngStream,
    ) -> Option<usize> {
        let bar = newcomer.map(|e| old_retention_key(policy, e, rng));
        let (key, i) = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (old_retention_key(policy, e, rng), i))
            .min()?;
        match bar {
            Some(bar) if bar <= key => None,
            _ => Some(i),
        }
    }

    /// The input orders the kernels must rank alike: keys ascending in
    /// slice order (every entry beats the kept ones), descending (none
    /// does), shuffled, and all primaries equal (the tie-breaks decide).
    fn shapes(n: usize) -> Vec<(&'static str, Vec<CacheEntry>)> {
        let (ascending, mut alloc) = entries(n);
        let descending = ascending.iter().rev().copied().collect();
        let mut shuffled = ascending.clone();
        let mut r = RngStream::from_seed(n as u64, "policy-shuffle");
        for i in (1..n).rev() {
            shuffled.swap(i, r.below(i + 1));
        }
        let equal = (0..n)
            .map(|_| CacheEntry::from_pong(alloc.allocate(), SimTime::from_secs(5.0), 50, 2))
            .collect();
        vec![
            ("ascending", ascending),
            ("descending", descending),
            ("shuffled", shuffled),
            ("equal", equal),
        ]
    }

    #[test]
    fn select_top_k_into_matches_the_old_select_top_k() {
        for policy in SELECTION_POLICIES {
            for n in [0usize, 1, 7, 40, 100] {
                for (shape, es) in shapes(n) {
                    // n=40: k=5 is the sparse `sample_indices` regime
                    // (k*8 <= n), k=n and k=n+3 the dense one.
                    for k in [0, 1, 5, n, n + 3] {
                        let case = format!("{policy} {shape} n={n} k={k}");
                        let mut r_old = rng();
                        let mut r_new = rng();
                        let mut r_dirty = rng();
                        let want = old_select_top_k(policy, &es, k, &mut r_old);
                        let (mut ranked, mut out) = (Vec::new(), Vec::new());
                        select_top_k_into(policy, &es, k, &mut r_new, &mut ranked, &mut out);
                        assert_eq!(out, want, "{case}");
                        let next = r_old.next_u64();
                        assert_eq!(r_new.next_u64(), next, "{case}: RNG draws");
                        // Dirty, over-long buffers change nothing.
                        let (mut dirty, _) = entries(n + k + 9);
                        let mut dirty_ranked = vec![(7, 7); n + 9];
                        select_top_k_into(
                            policy,
                            &es,
                            k,
                            &mut r_dirty,
                            &mut dirty_ranked,
                            &mut dirty,
                        );
                        assert_eq!(dirty, want, "{case}: dirty out");
                        assert_eq!(r_dirty.next_u64(), next, "{case}: dirty draws");
                    }
                }
            }
        }
    }

    /// Every ranked full-cache contest — the kernel itself, a bare victim
    /// pick, and both caches' `offer` — decides as [`old_contest`] does,
    /// with the same draws, for newcomers above, below and level with the
    /// incumbents.
    #[test]
    fn eviction_contests_match_the_old_contest() {
        use crate::link_cache::{CacheArena, InsertOutcome, LinkCache};
        for policy in RANKED_REPLACEMENTS {
            for n in [0usize, 1, 7, 40, 100] {
                for (shape, es) in shapes(n) {
                    // Addresses far above those `shapes` mints.
                    let at = |i: u32| PeerAddr::from_raw(1_000_000 + i);
                    let mut newcomers = vec![
                        CacheEntry::from_pong(at(0), SimTime::from_secs(1e6), 1 << 20, 99),
                        CacheEntry::new(at(1), SimTime::ZERO, 0),
                    ];
                    if let Some(mid) = es.get(n / 2) {
                        newcomers.push(CacheEntry::from_pong(
                            at(2),
                            mid.ts(),
                            mid.num_files(),
                            mid.num_res(),
                        ));
                    }
                    let case = format!("{policy} {shape} n={n}");
                    let (mut r_old, mut r_new) = (rng(), rng());
                    let want = old_contest(policy, None, &es, &mut r_old);
                    assert_eq!(
                        eviction_victim(policy, &es, &mut r_new),
                        want,
                        "{case}: victim"
                    );
                    assert_eq!(r_new.next_u64(), r_old.next_u64(), "{case}: victim draws");
                    for new in newcomers {
                        let case = format!("{case} newcomer {new:?}");
                        let (mut r_old, mut r_new) = (rng(), rng());
                        let want = old_contest(policy, Some(&new), &es, &mut r_old);
                        let got = weakest(policy, Some(&new), &es, &mut r_new);
                        assert_eq!(got, want, "{case}: weakest");
                        assert_eq!(r_new.next_u64(), r_old.next_u64(), "{case}: draws");
                        if n == 0 {
                            continue;
                        }
                        let outcome = match want {
                            None => InsertOutcome::Rejected,
                            Some(i) => InsertOutcome::Replaced(es[i].addr()),
                        };
                        let (mut r_cache, mut r_arena) = (rng(), rng());
                        let mut cache = LinkCache::new(n);
                        let mut arena = CacheArena::new(n);
                        let h = arena.alloc();
                        for &e in &es {
                            cache.offer(e, policy, &mut r_cache);
                            arena.offer(h, e, policy, &mut r_arena);
                        }
                        assert_eq!(cache.offer(new, policy, &mut r_cache), outcome, "{case}");
                        assert_eq!(arena.offer(h, new, policy, &mut r_arena), outcome, "{case}");
                        let mut r_want = rng();
                        old_contest(policy, Some(&new), &es, &mut r_want);
                        let next = r_want.next_u64();
                        assert_eq!(r_cache.next_u64(), next, "{case}: cache draws");
                        assert_eq!(r_arena.next_u64(), next, "{case}: arena draws");
                    }
                }
            }
        }
    }

    /// Release-scale oracle for the two kernels: per selection policy,
    /// 100 000 random caches of 1–600 entries, every pick against
    /// [`old_select_top_k`]; per ranked replacement policy, as many
    /// contests (with and without a newcomer) against [`old_contest`].
    /// Half the caches draw their fields from tiny ranges, so primary
    /// keys tie often. Every case compares the next RNG draw too.
    /// `cargo test --release -p guess --lib -- --ignored policy_kernels`.
    #[test]
    #[ignore = "release scale"]
    fn policy_kernels_at_scale_match_the_references() {
        const CACHES: usize = 100_000;
        let mut gen = RngStream::from_seed(0x70_4B, "policy-scale");
        let mut es = Vec::new();
        // A random cache of 1–600 entries, its fields from tiny ranges
        // (primary keys tie often) or wide ones, its timestamps whole
        // seconds (ties on MRU/LRU keys too) or not.
        let fill = |gen: &mut RngStream, es: &mut Vec<CacheEntry>| {
            let n = 1 + gen.below(600);
            let (ts, files, res) = if gen.chance(0.5) {
                (8, 8, 4)
            } else {
                (100_000, 100_000, 1_000)
            };
            let whole = gen.chance(0.5);
            es.clear();
            for i in 0..n {
                let secs = gen.below(ts) as f64 + if whole { 0.0 } else { gen.f64() };
                es.push(CacheEntry::from_pong(
                    PeerAddr::from_raw(i as u32),
                    SimTime::from_secs(secs),
                    gen.below(files) as u32,
                    gen.below(res) as u32,
                ));
            }
            n
        };
        let (mut ranked, mut out) = (Vec::new(), Vec::new());
        for policy in SELECTION_POLICIES {
            for c in 0..CACHES {
                let n = fill(&mut gen, &mut es);
                let k = [1, 5, gen.below(n + 4)][c % 3];
                let seed = gen.next_u64();
                let mut r_old = RngStream::from_seed(seed, "old");
                let mut r_new = RngStream::from_seed(seed, "old");
                let want = old_select_top_k(policy, &es, k, &mut r_old);
                select_top_k_into(policy, &es, k, &mut r_new, &mut ranked, &mut out);
                assert_eq!(out, want, "{policy} cache {c} n={n} k={k}");
                assert_eq!(
                    r_new.next_u64(),
                    r_old.next_u64(),
                    "{policy} cache {c}: draws"
                );
            }
        }
        for policy in RANKED_REPLACEMENTS {
            for c in 0..CACHES {
                let n = fill(&mut gen, &mut es);
                let new = es[gen.below(n)];
                let new = CacheEntry::from_pong(
                    PeerAddr::from_raw(u32::MAX - 1),
                    new.ts(),
                    new.num_files() + u32::from(gen.chance(0.5)),
                    new.num_res(),
                );
                let newcomer = (c % 2 == 0).then_some(&new);
                let seed = gen.next_u64();
                let mut r_old = RngStream::from_seed(seed, "old");
                let mut r_new = RngStream::from_seed(seed, "old");
                let want = old_contest(policy, newcomer, &es, &mut r_old);
                let got = match newcomer {
                    Some(_) => weakest(policy, newcomer, &es, &mut r_new),
                    None => eviction_victim(policy, &es, &mut r_new),
                };
                assert_eq!(got, want, "{policy} cache {c} n={n}");
                assert_eq!(
                    r_new.next_u64(),
                    r_old.next_u64(),
                    "{policy} cache {c}: draws"
                );
            }
        }
    }

    #[test]
    fn mirror_replacement_matches_paper_table() {
        assert_eq!(
            SelectionPolicy::Mfs.mirror_replacement(),
            ReplacementPolicy::Lfs
        );
        assert_eq!(
            SelectionPolicy::Mr.mirror_replacement(),
            ReplacementPolicy::Lr
        );
        assert_eq!(
            SelectionPolicy::Mru.mirror_replacement(),
            ReplacementPolicy::Lru
        );
        assert_eq!(
            SelectionPolicy::Lru.mirror_replacement(),
            ReplacementPolicy::Mru
        );
        assert_eq!(
            SelectionPolicy::Random.mirror_replacement(),
            ReplacementPolicy::Random
        );
    }

    #[test]
    fn display_names_match_figures() {
        assert_eq!(SelectionPolicy::Mfs.to_string(), "MFS");
        assert_eq!(ReplacementPolicy::Lfs.to_string(), "LFS");
        assert_eq!(SelectionPolicy::Random.to_string(), "Ran");
    }
}
