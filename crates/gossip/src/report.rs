//! Aggregated results of a gossip run.

use simkit::stats::{CounterSet, Summary};

/// Aggregated results of one gossip simulation run.
///
/// Mirrors the GUESS and Gnutella reports so the three engines can sit
/// side by side in a cost/quality table: the same success-rate,
/// messages-per-query, and coverage metrics, plus the response-time
/// distribution that gossip's round structure makes meaningful (a
/// satisfied query's latency is the number of rounds it took times the
/// round interval).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GossipReport {
    /// Queries started after warm-up (each settles exactly once).
    pub queries: u64,
    /// Queries that found fewer than the desired results.
    pub unsatisfied: u64,
    /// Per-query messages transmitted (pushes plus pull re-activations).
    pub messages: Summary,
    /// Per-query count of distinct peers the rumor reached (excluding
    /// the originator).
    pub peers_reached: Summary,
    /// Seconds from query start to satisfaction, over satisfied queries
    /// only.
    pub response_time: Summary,
    /// Event counters (pushes, pulls, dedup drops, rounds, deaths, …).
    pub counters: CounterSet,
    /// Kernel events processed over the whole run (including warm-up).
    /// The numerator of the benchmark's `events_per_s`
    /// (`benchmark/README.md`); not part of any rendered report.
    pub events_processed: u64,
}

impl GossipReport {
    /// Fraction of queries that went unsatisfied.
    #[must_use]
    pub fn unsatisfaction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.unsatisfied as f64 / self.queries as f64
        }
    }

    /// Mean messages per query — the gossip cost that corresponds to
    /// GUESS's probes/query and flooding's messages/query.
    #[must_use]
    pub fn messages_per_query(&self) -> f64 {
        self.messages.mean()
    }

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
        let mut r = GossipReport {
            queries: 4,
            unsatisfied: 1,
            ..GossipReport::default()
        };
        r.messages.record(10.0);
        r.messages.record(30.0);
        r.counters.add("pushes", 8);
        r.counters.add("dedup_drops", 2);
        assert!((r.unsatisfaction() - 0.25).abs() < 1e-12);
        assert!((r.messages_per_query() - 20.0).abs() < 1e-12);
        assert!((r.dedup_fraction() - 0.25).abs() < 1e-12);
    }
}
