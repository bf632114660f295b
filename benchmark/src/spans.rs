//! In-memory spans of the traced run. The harness records one around
//! each of its own calls into a layer; nothing is written until the
//! benchmark ends. Spans inside the crates are a later change.

use std::time::Instant;

use crate::json::{obj, s, Json};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The workload the span belongs to, or `drivers`.
    pub workload: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            workload: String::new(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the tracer was created.
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Sets the workload id stamped on the spans that follow.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. A panic inside `f` leaves the span unclosed; the caller that
    /// catches it calls [`Tracer::close_open`].
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let result = f(self);
        self.spans[id].end_us = self.now_us();
        self.open.pop();
        result
    }

    /// Ends every span a caught panic left open.
    pub fn close_open(&mut self) {
        let now = self.now_us();
        for id in self.open.drain(..) {
            self.spans[id].end_us = now;
        }
    }

    /// Duration of span `id`.
    pub fn duration_us(&self, id: usize) -> f64 {
        self.spans[id].end_us - self.spans[id].start_us
    }

    /// A span's self time: its duration minus its child spans'. Spans
    /// are recorded on one thread, so children never overlap.
    pub fn self_us(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration_us(c))
            .sum();
        self.duration_us(id) - children
    }

    /// The document written to `trace.json`.
    pub fn to_json(&self) -> Json {
        let spans = (0..self.spans.len())
            .map(|id| {
                let sp = &self.spans[id];
                obj([
                    ("id", Json::Int(id as u64)),
                    (
                        "parent",
                        sp.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("workload", s(&sp.workload)),
                    ("name", s(&sp.name)),
                    ("start_us", Json::Num(sp.start_us)),
                    ("end_us", Json::Num(sp.end_us)),
                    ("self_us", Json::Num(self.self_us(id))),
                ])
            })
            .collect();
        obj([
            ("unit", s("us since tracer start")),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_workload() {
        let mut t = Tracer::new();
        t.set_workload("w");
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("second", |_| ());
        });
        t.span("sibling", |_| ());
        let sp = &t.spans;
        assert_eq!(sp.len(), 4);
        assert_eq!(sp[0].parent, None);
        assert_eq!(sp[1].parent, Some(0));
        assert_eq!(sp[2].parent, Some(0));
        assert_eq!(sp[3].parent, None);
        assert!(sp
            .iter()
            .all(|s| s.workload == "w" && s.end_us >= s.start_us));
        assert!(sp[0].end_us >= sp[1].end_us);
    }

    #[test]
    fn self_time_subtracts_the_children_only() {
        let mut t = Tracer::new();
        let span = |parent, start_us, end_us| Span {
            name: String::new(),
            workload: String::new(),
            parent,
            start_us,
            end_us,
        };
        t.spans = vec![
            span(None, 0.0, 100.0),
            span(Some(0), 10.0, 40.0),
            span(Some(0), 40.0, 60.0),
            span(Some(1), 10.0, 20.0), // a grandchild is its parent's business
        ];
        assert_eq!(t.self_us(0), 50.0);
        assert_eq!(t.self_us(1), 20.0);
        assert_eq!(t.self_us(3), 10.0);
    }
}
