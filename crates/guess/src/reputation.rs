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
//! The tracker is deliberately cheap: bounded maps, O(1) per event.

use simkit::hash::{FxHashMap, FxHashSet};

use crate::addr::PeerAddr;

/// Verdicts a tracker can reach about a pong source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceVerdict {
    /// Not enough evidence either way.
    Undecided,
    /// Enough samples, dead ratio below the threshold.
    Trusted,
    /// Enough samples, dead ratio at or above the threshold: pongs from
    /// this peer are ignored.
    Blacklisted,
}

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
/// use guess::reputation::{ReputationParams, ReputationTracker, SourceVerdict};
///
/// let mut alloc = AddrAllocator::new();
/// let (attacker, victim) = (alloc.allocate(), alloc.allocate());
/// let mut rep = ReputationTracker::new(ReputationParams::default());
/// for _ in 0..8 {
///     let fake = alloc.allocate();
///     rep.note_shared(attacker, fake);
///     rep.note_dead(fake);
/// }
/// assert_eq!(rep.verdict(attacker), SourceVerdict::Blacklisted);
/// assert_eq!(rep.verdict(victim), SourceVerdict::Undecided);
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
        // Maps start empty (not pre-sized): under `distrust_pongs` the
        // engine keeps one tracker per slot and resets it at every birth.
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

    /// The current verdict on `source`.
    #[must_use]
    pub fn verdict(&self, source: PeerAddr) -> SourceVerdict {
        if self.blacklist.contains(&source) {
            return SourceVerdict::Blacklisted;
        }
        match self.scores.get(&source) {
            Some(s) if s.resolved >= self.params.min_samples => SourceVerdict::Trusted,
            _ => SourceVerdict::Undecided,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;

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
