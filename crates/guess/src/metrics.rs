//! Run metrics: everything the paper's figures are plotted from.

use simkit::stats::{CounterSet, Histogram, Summary};

/// The outcome of one executed query, fed to the collector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// Probes that reached a live peer which processed the query.
    pub good_probes: u32,
    /// Probes sent to peers that had already left the network.
    pub dead_probes: u32,
    /// Probes refused by overloaded peers.
    pub refused_probes: u32,
    /// Whether `NumDesiredResults` results were obtained.
    pub satisfied: bool,
    /// Wall-clock the querying user waited, in seconds.
    pub response_secs: f64,
}

impl QueryOutcome {
    /// Total probes sent for this query.
    #[must_use]
    pub fn total_probes(&self) -> u32 {
        self.good_probes + self.dead_probes + self.refused_probes
    }
}

/// Aggregated results of a simulation run.
///
/// Every figure in §6 of the paper reads off one or more of these fields;
/// the experiment harness in `guess-bench` assembles them into the paper's
/// tables and series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Number of (post-warm-up) queries executed.
    pub queries: u64,
    /// Queries that ended without enough results.
    pub unsatisfied: u64,
    /// Per-query good probes.
    pub good_probes: Summary,
    /// Per-query dead probes.
    pub dead_probes: Summary,
    /// Per-query refused probes.
    pub refused_probes: Summary,
    /// Per-query total probes.
    pub total_probes: Summary,
    /// Per-query response time, seconds.
    pub response_time: Summary,
    /// 95th-percentile response time, seconds (worst-case user
    /// experience, §6.2).
    pub response_p95: Option<f64>,
    /// Probes received per peer instance, sorted descending — the ranked
    /// load curve of Figure 13.
    pub loads: Vec<u64>,
    /// Mean post-warm-up fraction of link-cache entries that are live.
    pub live_fraction: Option<f64>,
    /// Mean post-warm-up absolute number of live link-cache entries.
    pub live_absolute: Option<f64>,
    /// Mean post-warm-up count of "unpoisoned" entries (live *good* peers)
    /// in good peers' caches — Figures 18 and 21.
    pub good_entries: Option<f64>,
    /// Mean post-warm-up size of the largest connected component of the
    /// live overlay — Figures 6 and 7.
    pub largest_component: Option<f64>,
    /// Mean post-warm-up staleness of link-cache entries in good peers'
    /// caches: seconds the entry's information has been *wrong* — zero
    /// for entries whose subject is still alive, time since the
    /// subject's death otherwise. The `repro maintenance` experiment
    /// trades this coherence lag against maintenance bandwidth across
    /// `MaintenanceMode`s.
    pub mean_staleness: Option<f64>,
    /// Miscellaneous event counters.
    pub counters: CounterSet,
    /// Kernel events processed over the whole run (including warm-up).
    /// The numerator of the benchmark's `events_per_s`
    /// (`benchmark/README.md`); not part of any rendered report.
    pub events_processed: u64,
}

impl RunReport {
    /// Fraction of queries that went unsatisfied; zero when no queries ran.
    #[must_use]
    pub fn unsatisfaction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.unsatisfied as f64 / self.queries as f64
        }
    }

    /// Mean probes per query.
    #[must_use]
    pub fn probes_per_query(&self) -> f64 {
        self.total_probes.mean()
    }

    /// Mean good probes per query.
    #[must_use]
    pub fn good_per_query(&self) -> f64 {
        self.good_probes.mean()
    }

    /// Mean dead probes per query.
    #[must_use]
    pub fn dead_per_query(&self) -> f64 {
        self.dead_probes.mean()
    }

    /// Mean refused probes per query.
    #[must_use]
    pub fn refused_per_query(&self) -> f64 {
        self.refused_probes.mean()
    }

    /// Mean response time in seconds.
    #[must_use]
    pub fn mean_response_secs(&self) -> f64 {
        self.response_time.mean()
    }
}

/// Accumulates metrics during a run and finalizes into a [`RunReport`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    queries: u64,
    unsatisfied: u64,
    good: Summary,
    dead: Summary,
    refused: Summary,
    total: Summary,
    response: Summary,
    response_hist: Histogram,
    loads: Vec<u64>,
    live_fraction_samples: Summary,
    live_absolute_samples: Summary,
    good_entry_samples: Summary,
    staleness_samples: Summary,
    lcc_samples: Summary,
    counters: CounterSet,
}

impl MetricsCollector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Records one completed query.
    pub fn record_query(&mut self, outcome: QueryOutcome) {
        self.queries += 1;
        if !outcome.satisfied {
            self.unsatisfied += 1;
        }
        self.good.record(f64::from(outcome.good_probes));
        self.dead.record(f64::from(outcome.dead_probes));
        self.refused.record(f64::from(outcome.refused_probes));
        self.total.record(f64::from(outcome.total_probes()));
        self.response.record(outcome.response_secs);
        self.response_hist.record(outcome.response_secs);
    }

    /// Records the lifetime probe load of a peer that died (or survived to
    /// the end of the run).
    pub fn record_load(&mut self, probes_received: u64) {
        self.loads.push(probes_received);
    }

    /// Records one cache-health snapshot. `staleness` is the snapshot's
    /// mean per-entry coherence lag in seconds (zero for entries whose
    /// subject is alive, time since the subject's death otherwise).
    pub fn record_cache_health(
        &mut self,
        live_fraction: f64,
        live_absolute: f64,
        good_entries: f64,
        staleness: f64,
    ) {
        self.live_fraction_samples.record(live_fraction);
        self.live_absolute_samples.record(live_absolute);
        self.good_entry_samples.record(good_entries);
        self.staleness_samples.record(staleness);
    }

    /// Records one connectivity snapshot.
    pub fn record_lcc(&mut self, size: usize) {
        self.lcc_samples.record(size as f64);
    }

    /// Access to the named counters.
    pub fn counters_mut(&mut self) -> &mut CounterSet {
        &mut self.counters
    }

    /// Absorbs another collector's accumulated state — how the lane
    /// runner ([`crate::engine::run_lanes`]) folds per-lane collectors
    /// into one report, in lane-index order. Welford summaries merge
    /// exactly ([`Summary::merge`]); load vectors concatenate (the
    /// final sort lives in [`MetricsCollector::finish`]); counters add.
    pub fn absorb(&mut self, other: MetricsCollector) {
        self.queries += other.queries;
        self.unsatisfied += other.unsatisfied;
        self.good.merge(&other.good);
        self.dead.merge(&other.dead);
        self.refused.merge(&other.refused);
        self.total.merge(&other.total);
        self.response.merge(&other.response);
        self.response_hist.merge(&other.response_hist);
        self.loads.extend_from_slice(&other.loads);
        self.live_fraction_samples
            .merge(&other.live_fraction_samples);
        self.live_absolute_samples
            .merge(&other.live_absolute_samples);
        self.good_entry_samples.merge(&other.good_entry_samples);
        self.staleness_samples.merge(&other.staleness_samples);
        self.lcc_samples.merge(&other.lcc_samples);
        self.counters.merge(&other.counters);
    }

    /// Finalizes into a report.
    #[must_use]
    pub fn finish(mut self) -> RunReport {
        self.loads.sort_unstable_by(|a, b| b.cmp(a));
        let opt = |s: &Summary| (s.count() > 0).then(|| s.mean());
        let response_p95 = self.response_hist.percentile(95.0);
        RunReport {
            queries: self.queries,
            unsatisfied: self.unsatisfied,
            good_probes: self.good,
            dead_probes: self.dead,
            refused_probes: self.refused,
            total_probes: self.total,
            response_time: self.response,
            response_p95,
            loads: self.loads,
            live_fraction: opt(&self.live_fraction_samples),
            live_absolute: opt(&self.live_absolute_samples),
            good_entries: opt(&self.good_entry_samples),
            largest_component: opt(&self.lcc_samples),
            mean_staleness: opt(&self.staleness_samples),
            counters: self.counters,
            // The collector never sees the kernel; the engine fills this
            // in after `Kernel::run` returns.
            events_processed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(good: u32, dead: u32, refused: u32, satisfied: bool) -> QueryOutcome {
        QueryOutcome {
            good_probes: good,
            dead_probes: dead,
            refused_probes: refused,
            satisfied,
            response_secs: 0.2 * f64::from(good + dead + refused),
        }
    }

    #[test]
    fn totals_add_up() {
        assert_eq!(outcome(3, 2, 1, true).total_probes(), 6);
    }

    #[test]
    fn unsatisfaction_fraction() {
        let mut c = MetricsCollector::new();
        c.record_query(outcome(5, 0, 0, true));
        c.record_query(outcome(10, 2, 0, false));
        c.record_query(outcome(1, 0, 0, true));
        c.record_query(outcome(0, 4, 0, false));
        let r = c.finish();
        assert_eq!(r.queries, 4);
        assert_eq!(r.unsatisfied, 2);
        assert!((r.unsatisfaction() - 0.5).abs() < 1e-12);
        assert_eq!(r.probes_per_query(), (5.0 + 12.0 + 1.0 + 4.0) / 4.0);
        assert_eq!(r.good_per_query(), 4.0);
        assert_eq!(r.dead_per_query(), 1.5);
        assert_eq!(r.refused_per_query(), 0.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = MetricsCollector::new().finish();
        assert_eq!(r.queries, 0);
        assert_eq!(r.unsatisfaction(), 0.0);
        assert_eq!(r.probes_per_query(), 0.0);
        assert!(r.live_fraction.is_none());
        assert!(r.largest_component.is_none());
        assert!(r.loads.is_empty());
    }

    #[test]
    fn loads_sorted_descending() {
        let mut c = MetricsCollector::new();
        c.record_load(5);
        c.record_load(100);
        c.record_load(20);
        let r = c.finish();
        assert_eq!(r.loads, vec![100, 20, 5]);
    }

    #[test]
    fn snapshots_average() {
        let mut c = MetricsCollector::new();
        c.record_cache_health(0.5, 40.0, 30.0, 120.0);
        c.record_cache_health(0.7, 60.0, 50.0, 80.0);
        c.record_lcc(900);
        c.record_lcc(950);
        let r = c.finish();
        assert!((r.live_fraction.unwrap() - 0.6).abs() < 1e-12);
        assert!((r.live_absolute.unwrap() - 50.0).abs() < 1e-12);
        assert!((r.good_entries.unwrap() - 40.0).abs() < 1e-12);
        assert!((r.largest_component.unwrap() - 925.0).abs() < 1e-12);
        assert!((r.mean_staleness.unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn response_time_recorded() {
        let mut c = MetricsCollector::new();
        c.record_query(outcome(10, 0, 0, true));
        let r = c.finish();
        assert!((r.mean_response_secs() - 2.0).abs() < 1e-12);
        assert_eq!(r.response_p95, Some(2.0));
    }

    #[test]
    fn response_p95_tracks_the_tail() {
        let mut c = MetricsCollector::new();
        for _ in 0..99 {
            c.record_query(outcome(1, 0, 0, true)); // 0.2s each
        }
        c.record_query(outcome(500, 0, 0, false)); // 100s straggler
        let r = c.finish();
        assert_eq!(
            r.response_p95,
            Some(0.2),
            "p95 sits below the single straggler"
        );
        assert!(r.response_time.max().unwrap() > 99.0);
    }

    #[test]
    fn absorb_equals_sequential_recording() {
        let mut all = MetricsCollector::new();
        let mut left = MetricsCollector::new();
        let mut right = MetricsCollector::new();
        for (c, sink) in [(5u32, true), (9, false), (2, true), (7, false)]
            .iter()
            .enumerate()
            .map(|(i, &(g, s))| ((g, s), i % 2))
        {
            let o = outcome(c.0, 1, 0, c.1);
            all.record_query(o);
            if sink == 0 { &mut left } else { &mut right }.record_query(o);
        }
        all.record_load(10);
        all.record_load(3);
        left.record_load(3);
        right.record_load(10);
        all.record_cache_health(0.5, 40.0, 30.0, 10.0);
        right.record_cache_health(0.5, 40.0, 30.0, 10.0);
        all.record_lcc(90);
        left.record_lcc(90);
        all.counters_mut().add("pings", 4);
        left.counters_mut().add("pings", 1);
        right.counters_mut().add("pings", 3);

        left.absorb(right);
        let (merged, direct) = (left.finish(), all.finish());
        assert_eq!(merged.queries, direct.queries);
        assert_eq!(merged.unsatisfied, direct.unsatisfied);
        assert!((merged.probes_per_query() - direct.probes_per_query()).abs() < 1e-12);
        assert!((merged.mean_response_secs() - direct.mean_response_secs()).abs() < 1e-12);
        assert_eq!(merged.response_p95, direct.response_p95);
        assert_eq!(merged.loads, direct.loads);
        assert_eq!(merged.live_fraction, direct.live_fraction);
        assert_eq!(merged.largest_component, direct.largest_component);
        assert_eq!(merged.counters.get("pings"), 4);
    }

    #[test]
    fn counters_pass_through() {
        let mut c = MetricsCollector::new();
        c.counters_mut().add("pings", 7);
        let r = c.finish();
        assert_eq!(r.counters.get("pings"), 7);
    }
}
