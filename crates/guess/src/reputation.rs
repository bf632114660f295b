//! Pong-source reputation: a cache-poisoning defense.
//!
//! The paper observes (§6.4) that detecting malicious peers is possible
//! with heuristics — "if a peer consistently returns many dead IP
//! addresses in its Pong" — and defers the defense to future work (and to
//! Daswani & Garcia-Molina's pong-cache-poisoning report \[9\]). This
//! module implements that heuristic: every peer remembers *who told it
//! about* each cached address (provenance), charges the source when the
//! address turns out dead, and blacklists sources whose shared entries
//! are overwhelmingly dead. Entries offered by blacklisted sources are
//! dropped on arrival.
//!
//! The tracker is deliberately cheap: bounded maps, O(1) per event. The
//! engine keeps one per slot and calls the hooks of `Reputations`, each
//! a no-op unless `distrust_pongs` is set.

use simkit::hash::{FxHashMap, FxHashSet};
use simkit::stats::CounterSet;

use crate::addr::{put_slot, PeerAddr, SlotId};
use crate::config::Config;
use crate::entry::CacheEntry;

/// Tuning knobs for [`ReputationTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReputationParams {
    /// Resolved entries required before a verdict is reached.
    pub min_samples: u32,
    /// Dead-entry ratio at which a source is blacklisted.
    pub dead_ratio_threshold: f64,
    /// Provenance records kept per peer (oldest evicted beyond this).
    pub provenance_capacity: usize,
}

impl Default for ReputationParams {
    fn default() -> Self {
        ReputationParams {
            min_samples: 6,
            dead_ratio_threshold: 0.7,
            provenance_capacity: 1024,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SourceScore {
    dead: u32,
    resolved: u32,
}

/// Per-peer memory of where cache entries came from and how they fared.
///
/// # Examples
///
/// ```
/// use guess::addr::AddrAllocator;
/// use guess::reputation::{ReputationParams, ReputationTracker};
///
/// let mut alloc = AddrAllocator::new();
/// let (attacker, victim) = (alloc.allocate(), alloc.allocate());
/// let mut rep = ReputationTracker::new(ReputationParams::default());
/// for _ in 0..8 {
///     let fake = alloc.allocate();
///     rep.note_shared(attacker, fake);
///     rep.note_dead(fake);
/// }
/// assert!(rep.is_blacklisted(attacker));
/// assert!(!rep.is_blacklisted(victim));
/// ```
#[derive(Debug, Clone)]
pub struct ReputationTracker {
    params: ReputationParams,
    /// address → the source that shared it (first teller wins).
    provenance: FxHashMap<PeerAddr, PeerAddr>,
    /// Insertion order ring for bounded eviction.
    order: std::collections::VecDeque<PeerAddr>,
    scores: FxHashMap<PeerAddr, SourceScore>,
    blacklist: FxHashSet<PeerAddr>,
}

impl ReputationTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new(params: ReputationParams) -> Self {
        // Maps start empty: the engine resets a slot's tracker at birth.
        ReputationTracker {
            params,
            provenance: FxHashMap::default(),
            order: std::collections::VecDeque::new(),
            scores: FxHashMap::default(),
            blacklist: FxHashSet::default(),
        }
    }

    /// Records that `source` shared a pointer to `subject`. The first
    /// source to mention an address owns the blame for it.
    pub fn note_shared(&mut self, source: PeerAddr, subject: PeerAddr) {
        if self.provenance.contains_key(&subject) {
            return;
        }
        if self.provenance.len() >= self.params.provenance_capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.provenance.remove(&oldest);
            }
        }
        self.provenance.insert(subject, source);
        self.order.push_back(subject);
    }

    /// Records that a probe to `subject` found it dead; blames its
    /// source, if known. Returns the blamed source.
    pub fn note_dead(&mut self, subject: PeerAddr) -> Option<PeerAddr> {
        let source = self.provenance.get(&subject).copied()?;
        let score = {
            let s = self.scores.entry(source).or_default();
            s.dead += 1;
            s.resolved += 1;
            *s
        };
        self.maybe_blacklist(source, score);
        Some(source)
    }

    /// Records that a probe to `subject` reached a live peer; credits its
    /// source, if known.
    pub fn note_alive(&mut self, subject: PeerAddr) {
        if let Some(&source) = self.provenance.get(&subject) {
            let score = self.scores.entry(source).or_default();
            score.resolved += 1;
        }
    }

    fn maybe_blacklist(&mut self, source: PeerAddr, score: SourceScore) {
        if score.resolved >= self.params.min_samples {
            let ratio = f64::from(score.dead) / f64::from(score.resolved);
            if ratio >= self.params.dead_ratio_threshold {
                self.blacklist.insert(source);
            }
        }
    }

    /// Whether pongs from `source` should be ignored.
    #[must_use]
    pub fn is_blacklisted(&self, source: PeerAddr) -> bool {
        self.blacklist.contains(&source)
    }

    /// Number of blacklisted sources so far.
    #[must_use]
    pub fn blacklisted_count(&self) -> usize {
        self.blacklist.len()
    }
}

/// One tracker per slot, reset at birth; `None` (no table) unless the
/// config sets `distrust_pongs`.
#[derive(Debug)]
pub(crate) struct Reputations(Option<Vec<ReputationTracker>>);

impl Reputations {
    /// The defense as `cfg` sets it: on, with default tuning, or off.
    pub(crate) fn new(cfg: &Config) -> Self {
        Reputations(cfg.protocol.distrust_pongs.then(Vec::new))
    }

    /// Birth: `slot`'s new occupant starts with no memory.
    pub(crate) fn reset(&mut self, slot: SlotId) {
        if let Some(t) = &mut self.0 {
            let fresh = ReputationTracker::new(ReputationParams::default());
            put_slot(t, slot, fresh);
        }
    }

    /// Contact outcome: `slot`'s occupant found `subject` dead. Returns
    /// the source this blame just blacklisted, for the caller to evict.
    pub(crate) fn blame(
        &mut self,
        slot: SlotId,
        subject: PeerAddr,
        counters: &mut CounterSet,
    ) -> Option<PeerAddr> {
        let tracker = &mut self.0.as_mut()?[slot.index()];
        let before = tracker.blacklisted_count();
        let source = tracker.note_dead(subject)?;
        if tracker.blacklisted_count() == before {
            return None;
        }
        counters.incr("sources_blacklisted");
        Some(source)
    }

    /// Contact outcome and pong source: `slot`'s occupant found `source`
    /// alive, which credits whoever shared it. True (and counted) when
    /// it then drops `source`'s pong unseen.
    pub(crate) fn filters(
        &mut self,
        slot: SlotId,
        source: PeerAddr,
        counters: &mut CounterSet,
    ) -> bool {
        let Some(t) = &mut self.0 else {
            return false;
        };
        let tracker = &mut t[slot.index()];
        tracker.note_alive(source);
        let filtered = tracker.is_blacklisted(source);
        if filtered {
            counters.incr("pongs_filtered");
        }
        filtered
    }

    /// Pong entry: a blacklisted address is never re-admitted; any other
    /// is recorded as `source`'s to answer for.
    pub(crate) fn admits(&mut self, slot: SlotId, source: PeerAddr, entry: &CacheEntry) -> bool {
        let Some(t) = &mut self.0 else {
            return true;
        };
        let tracker = &mut t[slot.index()];
        if tracker.is_blacklisted(entry.addr()) {
            return false;
        }
        tracker.note_shared(source, entry.addr());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;

    /// Verdicts a tracker can reach about a pong source.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum SourceVerdict {
        /// Not enough evidence either way.
        Undecided,
        /// Enough samples, dead ratio below the threshold.
        Trusted,
        /// Enough samples, dead ratio at or above the threshold.
        Blacklisted,
    }

    impl ReputationTracker {
        /// The current verdict on `source`.
        fn verdict(&self, source: PeerAddr) -> SourceVerdict {
            if self.blacklist.contains(&source) {
                return SourceVerdict::Blacklisted;
            }
            match self.scores.get(&source) {
                Some(s) if s.resolved >= self.params.min_samples => SourceVerdict::Trusted,
                _ => SourceVerdict::Undecided,
            }
        }
    }

    impl Reputations {
        /// The number of slots with a tracker.
        pub(crate) fn len(&self) -> usize {
            self.0.as_ref().map_or(0, Vec::len)
        }

        /// `slot`'s tracker; panics when the defense is off.
        pub(crate) fn tracker_mut(&mut self, slot: SlotId) -> &mut ReputationTracker {
            &mut self.0.as_mut().unwrap()[slot.index()]
        }
    }

    fn tracker() -> (ReputationTracker, AddrAllocator) {
        (
            ReputationTracker::new(ReputationParams::default()),
            AddrAllocator::new(),
        )
    }

    #[test]
    fn honest_source_becomes_trusted() {
        let (mut rep, mut alloc) = tracker();
        let source = alloc.allocate();
        for _ in 0..10 {
            let subject = alloc.allocate();
            rep.note_shared(source, subject);
            rep.note_alive(subject);
        }
        assert_eq!(rep.verdict(source), SourceVerdict::Trusted);
        assert!(!rep.is_blacklisted(source));
    }

    #[test]
    fn poisoner_gets_blacklisted() {
        let (mut rep, mut alloc) = tracker();
        let source = alloc.allocate();
        for _ in 0..8 {
            let subject = alloc.allocate();
            rep.note_shared(source, subject);
            assert_eq!(rep.note_dead(subject), Some(source));
        }
        assert_eq!(rep.verdict(source), SourceVerdict::Blacklisted);
        assert_eq!(rep.blacklisted_count(), 1);
    }

    #[test]
    fn mixed_source_below_threshold_stays_trusted() {
        let (mut rep, mut alloc) = tracker();
        let source = alloc.allocate();
        // 30% dead: below the 70% threshold.
        for i in 0..10 {
            let subject = alloc.allocate();
            rep.note_shared(source, subject);
            if i < 3 {
                rep.note_dead(subject);
            } else {
                rep.note_alive(subject);
            }
        }
        assert_eq!(rep.verdict(source), SourceVerdict::Trusted);
    }

    #[test]
    fn insufficient_evidence_is_undecided() {
        let (mut rep, mut alloc) = tracker();
        let source = alloc.allocate();
        let subject = alloc.allocate();
        rep.note_shared(source, subject);
        rep.note_dead(subject);
        assert_eq!(rep.verdict(source), SourceVerdict::Undecided);
    }

    #[test]
    fn first_teller_owns_the_blame() {
        let (mut rep, mut alloc) = tracker();
        let first = alloc.allocate();
        let second = alloc.allocate();
        let subject = alloc.allocate();
        rep.note_shared(first, subject);
        rep.note_shared(second, subject);
        assert_eq!(rep.note_dead(subject), Some(first));
    }

    #[test]
    fn unknown_subject_blames_nobody() {
        let (mut rep, mut alloc) = tracker();
        assert_eq!(rep.note_dead(alloc.allocate()), None);
    }

    #[test]
    fn provenance_is_bounded() {
        let params = ReputationParams {
            provenance_capacity: 4,
            ..ReputationParams::default()
        };
        let mut rep = ReputationTracker::new(params);
        let mut alloc = AddrAllocator::new();
        let source = alloc.allocate();
        let subjects: Vec<_> = (0..10).map(|_| alloc.allocate()).collect();
        for &s in &subjects {
            rep.note_shared(source, s);
        }
        // The earliest subjects were evicted: blaming them is a no-op.
        assert_eq!(rep.note_dead(subjects[0]), None);
        assert_eq!(rep.note_dead(subjects[9]), Some(source));
    }
}
