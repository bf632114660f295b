//! Periodic measurement snapshots, driven by the kernel's sample tick
//! (see [`simkit::sim::KernelParams::with_sampling`]).
//!
//! Both sweeps are exhaustive up to `metrics_sample_threshold` slots and
//! switch to seeded stride sampling beyond it: visit every `stride`-th
//! slot starting from a random phase, where `stride = n / sample_size`.
//! A strided sample is uniform over slots (each slot is visited with
//! probability `1/stride`), costs one RNG draw per sweep, and — unlike a
//! reservoir — keeps the visit order identical to the exhaustive sweep,
//! so at `stride == 1` the sampled path reproduces the exhaustive
//! numbers bit for bit. Runs at or below the threshold never draw from
//! the metrics stream at all, which keeps small-N reports byte-identical
//! whether or not sampling is configured. Per-peer means need no
//! correction; the largest-component estimate counts component mass
//! over the visited slots and scales by `n / visited`, an unbiased
//! estimate of the giant component's mass fraction. At `sample_size`
//! 10 000 a proportion's standard error is at most 0.5 % absolute.

use super::*;

impl GuessSim {
    /// The `(phase, stride)` plan for one sweep, or `None` for an
    /// exhaustive sweep. Draws the phase from the metrics stream only
    /// when sampling engages.
    fn metrics_stride(&mut self) -> Option<(usize, usize)> {
        let n = self.peers.len();
        if n <= self.cfg.run.metrics_sample_threshold {
            return None;
        }
        let size = self.cfg.run.metrics_sample_size.min(n);
        let stride = (n / size).max(1);
        let phase = self.rng_metrics.below(stride);
        Some((phase, stride))
    }

    pub(super) fn sample_cache_health(&mut self, now: SimTime) {
        let (phase, stride) = self.metrics_stride().unwrap_or((0, 1));
        let mut frac_sum = 0.0;
        let mut frac_n = 0usize;
        let mut live_sum = 0.0;
        let mut good_sum = 0.0;
        let mut stale_sum = 0.0;
        let mut entries_n = 0usize;
        let mut peers_n = 0usize;
        let n = self.peers.len();
        let mut i = phase;
        while i < n {
            let p = &self.peers[i];
            i += stride;
            if !p.is_good() {
                continue;
            }
            peers_n += 1;
            let h = p.cache();
            let total = self.caches.len(h);
            let mut live = 0usize;
            let mut good_entries = 0usize;
            for e in self.caches.entries(h) {
                entries_n += 1;
                let t = e.addr();
                if self.is_alive(t) {
                    live += 1;
                    if self.peer(t).is_good() {
                        good_entries += 1;
                    }
                } else {
                    // Entry staleness = how long the cached information
                    // has been wrong: zero while the subject lives, the
                    // time since its death afterwards. This coherence lag
                    // is what push invalidations buy down — the quantity
                    // the maintenance experiment trades bandwidth against.
                    stale_sum += now.saturating_since(self.addrs[t.index()].died).as_secs();
                }
            }
            if total > 0 {
                frac_sum += live as f64 / total as f64;
                frac_n += 1;
            }
            live_sum += live as f64;
            good_sum += good_entries as f64;
        }
        // Per-peer means are unbiased under uniform slot sampling — no
        // rescaling needed, the denominators already count only visited
        // peers.
        if peers_n > 0 {
            let frac = if frac_n > 0 {
                frac_sum / frac_n as f64
            } else {
                0.0
            };
            let staleness = if entries_n > 0 {
                stale_sum / entries_n as f64
            } else {
                0.0
            };
            self.metrics.record_cache_health(
                frac,
                live_sum / peers_n as f64,
                good_sum / peers_n as f64,
                staleness,
            );
        }
    }

    pub(super) fn sample_connectivity(&mut self) {
        let n = self.peers.len();
        let plan = self.metrics_stride();
        let mut uf = UnionFind::new(n);
        let (phase, stride) = plan.unwrap_or((0, 1));
        let mut i = phase;
        while i < n {
            let slot = i;
            i += stride;
            for e in self.caches.entries(self.peers[slot].cache()) {
                // A live peer is by definition the current occupant of
                // its slot, so its SlotId is its dense index — no
                // addr→index map needed.
                if self.is_alive(e.addr()) {
                    uf.union(slot, self.slot_of(e.addr()).index());
                }
            }
        }
        match plan {
            None => self.metrics.record_lcc(uf.largest_component()),
            Some((phase, stride)) => {
                // Only sampled slots contributed edges, so unsampled
                // slots are artificial singletons and the raw largest
                // component undercounts. Estimate instead: component
                // mass *restricted to sampled slots*, scaled to the
                // population. At stride 1 every slot is sampled and the
                // estimate collapses to the exhaustive value exactly.
                let mut mass = vec![0u32; n];
                let mut visited = 0usize;
                let mut largest = 0u32;
                let mut i = phase;
                while i < n {
                    let root = uf.find(i);
                    mass[root] += 1;
                    largest = largest.max(mass[root]);
                    visited += 1;
                    i += stride;
                }
                let scaled = f64::from(largest) * n as f64 / visited as f64;
                self.metrics.record_lcc(scaled.round() as usize);
            }
        }
    }
}
