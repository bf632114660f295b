//! Cache entries — the pointers GUESS peers hold about each other.
//!
//! The paper's entry format (§2.1):
//!
//! ```text
//! { IP address of Q, TS, NumFiles, NumRes }
//! ```
//!
//! `TS` is the time of the last direct interaction with `Q`; `NumFiles` is
//! `Q`'s advertised shared-file count (set when `Q` introduces itself and
//! propagated verbatim as entries are shared); `NumRes` is the number of
//! results `Q` returned to *the last query probe recorded in this entry*.

use simkit::time::SimTime;

use crate::addr::PeerAddr;

/// One link-cache or query-cache entry.
///
/// 20 bytes, 4-byte aligned: packing drops the 4 padding bytes an 8-byte
/// aligned `ts` would cost, which pays for the address tag
/// [`CacheArena`](crate::link_cache::CacheArena) keeps beside each slot.
/// Every field is `Copy` and only ever read or written by value, so no
/// reference to a packed field exists.
///
/// # Examples
///
/// ```
/// use guess::addr::AddrAllocator;
/// use guess::entry::CacheEntry;
/// use simkit::time::SimTime;
///
/// let mut alloc = AddrAllocator::new();
/// let mut e = CacheEntry::new(alloc.allocate(), SimTime::ZERO, 120);
/// e.touch(SimTime::from_secs(5.0));
/// e.record_results(SimTime::from_secs(5.0), 1);
/// assert_eq!(e.num_res(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
pub struct CacheEntry {
    ts: SimTime,
    addr: PeerAddr,
    num_files: u32,
    num_res: u32,
}

const _: () = assert!(size_of::<CacheEntry>() == 20 && align_of::<CacheEntry>() == 4);

impl CacheEntry {
    /// Creates an entry for `addr` first observed at `ts`, advertising
    /// `num_files` shared files and no result history.
    #[must_use]
    pub fn new(addr: PeerAddr, ts: SimTime, num_files: u32) -> Self {
        CacheEntry {
            ts,
            addr,
            num_files,
            num_res: 0,
        }
    }

    /// Creates an entry with explicit metadata, as carried inside a Pong.
    /// Receivers insert pong entries *without* modifying any field (§2.2),
    /// so this constructor preserves whatever the sender claimed.
    #[must_use]
    pub fn from_pong(addr: PeerAddr, ts: SimTime, num_files: u32, num_res: u32) -> Self {
        CacheEntry {
            ts,
            addr,
            num_files,
            num_res,
        }
    }

    /// The peer this entry points to.
    #[must_use]
    pub fn addr(&self) -> PeerAddr {
        self.addr
    }

    /// Timestamp of the last recorded interaction.
    #[must_use]
    pub fn ts(&self) -> SimTime {
        self.ts
    }

    /// Advertised shared-file count.
    #[must_use]
    pub fn num_files(&self) -> u32 {
        self.num_files
    }

    /// Results returned by the peer's last recorded query probe.
    #[must_use]
    pub fn num_res(&self) -> u32 {
        self.num_res
    }

    /// Records a direct interaction at `now`, refreshing `TS`.
    pub fn touch(&mut self, now: SimTime) {
        self.ts = now;
    }

    /// Records the outcome of a query probe: refresh `TS` and overwrite
    /// `NumRes` with this probe's result count (the paper *resets* the
    /// field on every query, §2.1).
    pub fn record_results(&mut self, now: SimTime, results: u32) {
        self.ts = now;
        self.num_res = results;
    }

    /// Clears third-party result history. MR\* applies this to every entry
    /// learned from someone else so rankings rest only on first-hand
    /// experience (§6.4).
    pub fn reset_num_res(&mut self) {
        self.num_res = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;

    fn addr() -> PeerAddr {
        AddrAllocator::new().allocate()
    }

    #[test]
    fn new_entry_has_no_result_history() {
        let e = CacheEntry::new(addr(), SimTime::from_secs(3.0), 42);
        assert_eq!(e.num_res(), 0);
        assert_eq!(e.num_files(), 42);
        assert_eq!(e.ts(), SimTime::from_secs(3.0));
    }

    #[test]
    fn touch_updates_only_ts() {
        let mut e = CacheEntry::new(addr(), SimTime::ZERO, 7);
        e.touch(SimTime::from_secs(10.0));
        assert_eq!(e.ts(), SimTime::from_secs(10.0));
        assert_eq!(e.num_files(), 7);
        assert_eq!(e.num_res(), 0);
    }

    #[test]
    fn record_results_overwrites_not_accumulates() {
        let mut e = CacheEntry::new(addr(), SimTime::ZERO, 7);
        e.record_results(SimTime::from_secs(1.0), 3);
        assert_eq!(e.num_res(), 3);
        e.record_results(SimTime::from_secs(2.0), 0);
        assert_eq!(e.num_res(), 0, "NumRes is reset each query");
        assert_eq!(e.ts(), SimTime::from_secs(2.0));
    }

    #[test]
    fn pong_entries_preserve_claims() {
        let e = CacheEntry::from_pong(addr(), SimTime::from_secs(9.0), 5000, 17);
        assert_eq!(e.num_files(), 5000);
        assert_eq!(e.num_res(), 17);
        assert_eq!(e.ts(), SimTime::from_secs(9.0));
    }

    #[test]
    fn reset_num_res_zeroes_history() {
        let mut e = CacheEntry::from_pong(addr(), SimTime::ZERO, 10, 99);
        e.reset_num_res();
        assert_eq!(e.num_res(), 0);
        assert_eq!(e.num_files(), 10, "NumFiles untouched");
    }
}
