//! GUESS wire vocabulary: the pong payload and what a sender observes.
//!
//! Every GUESS message (§2) is one direct contact — a maintenance ping,
//! a query probe, a pushed update — that the sender sees answered,
//! refused, or timed out. Because GUESS runs over UDP, the absence of
//! any reply within the timeout — whether the target is dead or silently
//! dropping excess load — looks identical to the sender; the simulator
//! keeps the two apart for its accounting.

use crate::entry::CacheEntry;

/// A pong: the cache-entry sharing payload attached to every reply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pong {
    /// Up to `PongSize` entries chosen by the responder's pong policy.
    pub entries: Vec<CacheEntry>,
}

impl Pong {
    /// An empty pong (e.g. from a peer with an empty cache).
    #[must_use]
    pub fn empty() -> Self {
        Pong {
            entries: Vec::new(),
        }
    }
}

/// What the *sender* observes after one contact. The attached [`Pong`]
/// is not carried here: the engine builds it in a reused buffer only
/// for the replies whose receiver absorbs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeReply {
    /// The target processed the message and replied.
    Answered {
        /// Results found for a query probe (0 or 1 under the item
        /// model); always 0 for pings and pushed updates.
        results: u32,
    },
    /// No reply before the timeout: the target is dead, or partitioned
    /// away from the sender...
    TimedOutDead,
    /// ...or the target was overloaded and refused the message. In a
    /// real deployment a refusal may carry an explicit "back off"
    /// notice; with plain drops it is indistinguishable from death.
    Refused,
}

impl ProbeReply {
    /// True when the contact reached a live, willing responder.
    #[must_use]
    pub fn is_answered(&self) -> bool {
        matches!(self, ProbeReply::Answered { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;
    use simkit::time::SimTime;

    #[test]
    fn empty_pong_has_no_entries() {
        assert!(Pong::empty().entries.is_empty());
        assert_eq!(Pong::default(), Pong::empty());
    }

    #[test]
    fn answered_predicate() {
        assert!(ProbeReply::Answered { results: 1 }.is_answered());
        assert!(!ProbeReply::TimedOutDead.is_answered());
        assert!(!ProbeReply::Refused.is_answered());
    }

    #[test]
    fn pong_round_trips_entries() {
        let mut alloc = AddrAllocator::new();
        let e = CacheEntry::new(alloc.allocate(), SimTime::ZERO, 3);
        let pong = Pong { entries: vec![e] };
        assert_eq!(pong.entries.len(), 1);
        assert_eq!(pong.entries[0].num_files(), 3);
    }
}
