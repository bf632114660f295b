//! Named monotone counters.

use std::collections::BTreeMap;
use std::fmt;

/// A set of named `u64` counters, suitable for tallying simulation events
/// (probes sent, probes refused, queries satisfied, …).
///
/// Backed by a `BTreeMap` so iteration — and therefore any printed report —
/// is deterministic.
///
/// Cost: every [`add`](Self::add) or [`incr`](Self::incr) is one
/// string-keyed map lookup (tens of nanoseconds), far more than the
/// work of a simulated message. A per-message loop should tally in
/// local integers and `add` each nonzero tally once when the loop ends.
///
/// # Examples
///
/// ```
/// use simkit::stats::CounterSet;
///
/// let mut c = CounterSet::new();
/// c.add("probes", 3);
/// c.incr("probes");
/// assert_eq!(c.get("probes"), 4);
/// assert_eq!(c.get("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counts: BTreeMap<&'static str, u64>,
}

impl CounterSet {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        CounterSet {
            counts: BTreeMap::new(),
        }
    }

    /// Adds `n` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name`; zero if never touched.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counts.is_empty() {
            return write!(f, "(no counters)");
        }
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = CounterSet::new();
        c.incr("a");
        c.add("a", 2);
        c.add("b", 10);
        assert_eq!(c.get("a"), 3);
        assert_eq!(c.get("b"), 10);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CounterSet::new();
        a.add("x", 1);
        let mut b = CounterSet::new();
        b.add("x", 2);
        b.add("y", 5);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 5);
    }

    #[test]
    fn display_is_deterministic() {
        let mut c = CounterSet::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        assert_eq!(c.to_string(), "alpha=2 zeta=1");
        assert_eq!(CounterSet::new().to_string(), "(no counters)");
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut c = CounterSet::new();
        c.add("b", 1);
        c.add("a", 1);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
