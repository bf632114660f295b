//! Aggregated results of a gossip run.

use std::fmt;
use std::ops::Deref;

use simkit::sim::SimReport;
use simkit::stats::Summary;
use workload::population::Tallies;

/// Aggregated results of one gossip simulation run.
///
/// The [`Tallies`] every forwarding engine keeps, read through `Deref`,
/// so the three engines sit side by side in a cost/quality table with
/// the same success-rate, messages-per-query, and coverage metrics;
/// plus the response-time distribution that gossip's round structure
/// makes meaningful (a satisfied query's latency is the number of
/// rounds it took times the round interval). Per-query messages are
/// pushes plus pull re-activations; the counters add the pushes, pulls,
/// dedup drops and rounds to births and deaths.
#[derive(Clone, Default, PartialEq)]
pub struct GossipReport {
    /// Queries, messages, reach and counters.
    pub tallies: Tallies,
    /// Seconds from query start to satisfaction, over satisfied queries
    /// only.
    pub response_time: Summary,
    /// Kernel events processed over the whole run (including warm-up).
    /// The numerator of the benchmark's `events_per_s`
    /// (`benchmark/README.md`); not part of any rendered report.
    pub events_processed: u64,
}

impl Deref for GossipReport {
    type Target = Tallies;
    fn deref(&self) -> &Tallies {
        &self.tallies
    }
}

impl fmt::Debug for GossipReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let own: [(&str, &dyn fmt::Debug); 1] = [("response_time", &self.response_time)];
        self.tallies
            .fmt_report(f, "GossipReport", &own, self.events_processed)
    }
}

impl GossipReport {
    /// Mean seconds to satisfaction, over satisfied queries.
    #[must_use]
    pub fn mean_response_secs(&self) -> f64 {
        self.response_time.mean()
    }

    /// Fraction of pushes that landed on an already-informed peer — the
    /// epidemic's redundancy, which grows as the rumor saturates.
    #[must_use]
    pub fn dedup_fraction(&self) -> f64 {
        let pushes = self.counters.get("pushes");
        if pushes == 0 {
            0.0
        } else {
            self.counters.get("dedup_drops") as f64 / pushes as f64
        }
    }
}

impl SimReport for GossipReport {
    fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_reports() {
        let r = GossipReport::default();
        assert_eq!(r.unsatisfaction(), 0.0);
        assert_eq!(r.dedup_fraction(), 0.0);
    }

    #[test]
    fn ratios_divide_as_documented() {
        let mut r = GossipReport::default();
        let t = &mut r.tallies;
        t.queries = 4;
        t.unsatisfied = 1;
        t.messages.record(10.0);
        t.messages.record(30.0);
        t.counters.add("pushes", 8);
        t.counters.add("dedup_drops", 2);
        assert!((r.unsatisfaction() - 0.25).abs() < 1e-12);
        assert!((r.messages_per_query() - 20.0).abs() < 1e-12);
        assert!((r.dedup_fraction() - 0.25).abs() < 1e-12);
    }
}
