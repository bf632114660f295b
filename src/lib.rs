//! `guess-suite` — umbrella crate for the GUESS non-forwarding P2P search
//! reproduction (Yang, Vinograd & Garcia-Molina, ICDCS 2004).
//!
//! This crate re-exports the workspace members so examples and downstream
//! users need a single dependency:
//!
//! * [`guess`] — the GUESS protocol and its discrete-event simulator;
//! * [`gnutella`] — forwarding baselines (flooding, fixed extent,
//!   iterative deepening);
//! * [`gossip`] — the push/pull epidemic (rumor-spreading) search
//!   engine, the third point in the design space;
//! * [`workload`] — churn, content, and query models;
//! * [`simkit`] — the deterministic simulation substrate.
//!
//! # Quick start
//!
//! All three engines share one construction-and-run surface: a
//! validating config with chained setters, `build()` to get the
//! simulator, and the [`prelude::Runnable`] trait's `run()` /
//! `run_traced()` to drive it.
//!
//! ```no_run
//! use guess_suite::prelude::*;
//!
//! let report = GuessConfig::default().build()?.run();
//! println!("probes/query = {:.1}", report.probes_per_query());
//! # Ok::<(), guess_suite::guess::config::ConfigError>(())
//! ```
//!
//! The other engines run the same way against the same workloads:
//!
//! ```no_run
//! use guess_suite::prelude::*;
//!
//! let report = GossipConfig::default().build()?.run();
//! println!("messages/query = {:.1}", report.messages_per_query());
//! let report = GnutellaConfig::default().build()?.run();
//! println!("messages/query = {:.1}", report.messages_per_query());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Runnable walk-throughs live in `examples/`; README.md lists each
//! one with its `cargo run` line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// README.md's Rust snippets, compiled as doctests so that its
/// quickstart keeps building against the API it shows.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use gnutella;
pub use gossip;
pub use guess;
pub use simkit;
pub use workload;

/// The one-stop import for driving the three engines generically:
/// each engine's config (under an engine-prefixed name), its simulator
/// and report types, and the shared [`prelude::Runnable`] /
/// [`prelude::SimReport`] run surface from `simkit`.
pub mod prelude {
    pub use gnutella::dynamic::{GnutellaConfig, GnutellaReport, GnutellaSim};
    pub use gossip::{Config as GossipConfig, GossipReport, GossipSim};
    pub use guess::config::Config as GuessConfig;
    pub use guess::engine::GuessSim;
    pub use guess::RunReport;
    pub use simkit::sim::{Runnable, SimReport};
}
