//! A JSONL file sink for simulation traces.
//!
//! [`JsonlSink`] implements [`TraceSink`] by writing one JSON object per
//! record to any `Write` target while tallying the same totals a
//! [`CountingSink`] would, so a traced run can be reconciled against its
//! report after the fact. The JSON is emitted by hand with the same
//! escaping rules as the experiment reports (the build environment is
//! offline, so no serde).
//!
//! One line per record — see EXPERIMENTS.md for the full schema:
//!
//! ```json
//! {"t": 612.5, "type": "probe", "query": 41, "target": 900, "kind": "query", "outcome": "good"}
//! ```
//!
//! [`Reconcile`] states, once per engine, which report totals a trace
//! tally must reproduce; `repro --trace` prints these rows and the trace
//! tests check them.

use std::io::{self, Write};

use gnutella::dynamic::GnutellaReport;
use gossip::GossipReport;
use guess::RunReport;
use simkit::stats::{CounterSet, Summary};
use simkit::time::SimTime;
use simkit::trace::{CountingSink, TraceRecord, TraceSink, NO_QUERY};

use crate::report::json_string;

/// One reconciliation check: what is compared, the run-report total,
/// and the trace tally that must equal it.
pub type Row = (&'static str, u64, u64);

/// An engine report whose totals a trace of the same run must reproduce.
///
/// The rows assume zero warm-up: the report then covers every query in
/// the trace, so every row must hold exactly.
pub trait Reconcile {
    /// The checks, in print order, against the run's trace tally `c`.
    fn reconciliation(&self, c: &CountingSink) -> Vec<Row>;
}

/// The rows every engine shares, with its two message rows in the
/// middle and `extra` at the end.
fn rows(
    (queries, unsatisfied): (u64, u64),
    messages: [Row; 2],
    counters: &CounterSet,
    extra: Option<Row>,
    c: &CountingSink,
) -> Vec<Row> {
    let head = [
        ("queries == query_end records", queries, c.query_ends),
        ("queries == query_start records", queries, c.query_starts),
        (
            "unsatisfied queries",
            unsatisfied,
            c.query_ends - c.satisfied,
        ),
    ];
    let churn = [
        ("births == join records", counters.get("births"), c.joins),
        ("deaths == death records", counters.get("deaths"), c.deaths),
    ];
    let all = head.into_iter().chain(messages).chain(churn).chain(extra);
    all.collect()
}

/// A message total kept as a running mean. `sum()` is `mean * count`,
/// exact only up to f64 rounding, so round.
fn total(summary: &Summary) -> u64 {
    summary.sum().round() as u64
}

impl Reconcile for RunReport {
    fn reconciliation(&self, c: &CountingSink) -> Vec<Row> {
        let probes = total(&self.total_probes);
        let messages = [
            ("total probes == probe records", probes, c.query_probes),
            ("total probes == query_end sums", probes, c.query_end_probes),
        ];
        let pings = self.counters.get("pings_sent");
        let pings = ("pings == ping probe records", pings, c.ping_probes);
        let queries = (self.queries, self.unsatisfied);
        rows(queries, messages, &self.counters, Some(pings), c)
    }
}

impl Reconcile for GossipReport {
    fn reconciliation(&self, c: &CountingSink) -> Vec<Row> {
        let sent = total(&self.messages);
        let probes = c.push_probes + c.pull_probes;
        let messages = [
            ("total messages == push+pull probe records", sent, probes),
            ("total messages == query_end sums", sent, c.query_end_probes),
        ];
        let queries = (self.queries, self.unsatisfied);
        rows(queries, messages, &self.counters, None, c)
    }
}

/// Every flooded message is one probe record.
impl Reconcile for GnutellaReport {
    fn reconciliation(&self, c: &CountingSink) -> Vec<Row> {
        let sent = total(&self.messages);
        let messages = [
            (
                "total messages == flood probe records",
                sent,
                c.flood_probes,
            ),
            ("total messages == query_end sums", sent, c.query_end_probes),
        ];
        let queries = (self.queries, self.unsatisfied);
        rows(queries, messages, &self.counters, None, c)
    }
}

/// A trace sink that streams records as JSON Lines.
///
/// Writes go through the wrapped writer unbuffered from this type's
/// point of view — hand a `BufWriter` in for file targets. I/O errors
/// are sticky: the first failure is kept in [`JsonlSink::io_error`] and
/// later records are dropped (simulations do not unwind mid-event).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    /// Tally of everything written, for reconciliation.
    pub counts: CountingSink,
    /// Lines successfully written.
    pub lines: u64,
    /// The first write error, if any occurred.
    pub io_error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            counts: CountingSink::new(),
            lines: 0,
            io_error: None,
        }
    }

    /// Flushes and returns the writer, the tally, and any sticky error.
    pub fn finish(mut self) -> (W, CountingSink, Option<io::Error>) {
        if self.io_error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.io_error = Some(e);
            }
        }
        (self.writer, self.counts, self.io_error)
    }

    fn render(at: SimTime, rec: &TraceRecord) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"t\": ");
        out.push_str(&format!("{}", at.as_secs()));
        out.push_str(", \"type\": ");
        match rec {
            TraceRecord::PeerJoin { peer } => {
                json_string("peer_join", &mut out);
                out.push_str(&format!(", \"peer\": {peer}"));
            }
            TraceRecord::PeerDeath { peer } => {
                json_string("peer_death", &mut out);
                out.push_str(&format!(", \"peer\": {peer}"));
            }
            TraceRecord::QueryStart { query, origin } => {
                json_string("query_start", &mut out);
                out.push_str(&format!(", \"query\": {query}, \"origin\": {origin}"));
            }
            TraceRecord::Probe {
                query,
                target,
                kind,
                outcome,
            } => {
                json_string("probe", &mut out);
                if *query == NO_QUERY {
                    out.push_str(", \"query\": null");
                } else {
                    out.push_str(&format!(", \"query\": {query}"));
                }
                out.push_str(&format!(", \"target\": {target}, \"kind\": "));
                json_string(kind.name(), &mut out);
                out.push_str(", \"outcome\": ");
                json_string(outcome.name(), &mut out);
            }
            TraceRecord::QueryEnd {
                query,
                satisfied,
                probes,
                results,
            } => {
                json_string("query_end", &mut out);
                out.push_str(&format!(
                    ", \"query\": {query}, \"satisfied\": {satisfied}, \
                     \"probes\": {probes}, \"results\": {results}"
                ));
            }
            TraceRecord::CacheEvict { owner, evicted } => {
                json_string("cache_evict", &mut out);
                out.push_str(&format!(", \"owner\": {owner}, \"evicted\": {evicted}"));
            }
            TraceRecord::Sample { live } => {
                json_string("sample", &mut out);
                out.push_str(&format!(", \"live\": {live}"));
            }
        }
        out.push_str("}\n");
        out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, at: SimTime, rec: TraceRecord) {
        self.counts.record(at, rec);
        if self.io_error.is_some() {
            return;
        }
        let line = Self::render(at, &rec);
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.io_error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::trace::{ProbeKind, ProbeOutcome};

    fn emit_all(sink: &mut JsonlSink<Vec<u8>>) {
        let t = SimTime::from_secs(1.5);
        sink.record(t, TraceRecord::PeerJoin { peer: 3 });
        sink.record(t, TraceRecord::PeerDeath { peer: 3 });
        sink.record(
            t,
            TraceRecord::QueryStart {
                query: 0,
                origin: 7,
            },
        );
        sink.record(
            t,
            TraceRecord::Probe {
                query: 0,
                target: 9,
                kind: ProbeKind::Query,
                outcome: ProbeOutcome::Good,
            },
        );
        sink.record(
            t,
            TraceRecord::Probe {
                query: NO_QUERY,
                target: 9,
                kind: ProbeKind::Ping,
                outcome: ProbeOutcome::Dead,
            },
        );
        sink.record(
            t,
            TraceRecord::QueryEnd {
                query: 0,
                satisfied: true,
                probes: 2,
                results: 1,
            },
        );
        sink.record(
            t,
            TraceRecord::CacheEvict {
                owner: 1,
                evicted: 2,
            },
        );
        sink.record(t, TraceRecord::Sample { live: 50 });
    }

    #[test]
    fn one_line_per_record_with_expected_fields() {
        let mut sink = JsonlSink::new(Vec::new());
        emit_all(&mut sink);
        let (buf, counts, err) = sink.finish();
        assert!(err.is_none());
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(counts.total(), 8);
        assert!(lines[0].contains("\"type\": \"peer_join\""));
        assert!(lines[3].contains("\"kind\": \"query\""));
        assert!(lines[3].contains("\"outcome\": \"good\""));
        // Maintenance pings carry a null query id, not the sentinel.
        assert!(lines[4].contains("\"query\": null"));
        assert!(!lines[4].contains(&NO_QUERY.to_string()));
        assert!(lines[5].contains("\"satisfied\": true"));
        assert!(lines[7].contains("\"live\": 50"));
        for l in &lines {
            assert!(l.starts_with("{\"t\": 1.5, "), "bad line {l}");
            assert!(l.ends_with('}'), "bad line {l}");
        }
    }

    #[test]
    fn tally_matches_a_plain_counting_sink() {
        let mut sink = JsonlSink::new(Vec::new());
        emit_all(&mut sink);
        let mut plain = CountingSink::new();
        let t = SimTime::from_secs(1.5);
        plain.record(t, TraceRecord::PeerJoin { peer: 3 });
        assert_eq!(sink.counts.joins, plain.joins);
        assert_eq!(sink.counts.query_probes, 1);
        assert_eq!(sink.counts.ping_probes, 1);
        assert_eq!(sink.lines, 8);
    }
}
