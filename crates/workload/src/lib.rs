//! `workload` — churn, content, and query models for P2P search simulation.
//!
//! The ICDCS 2004 GUESS study plugs three measured artifacts into its
//! simulator:
//!
//! 1. a measured Gnutella *session-length* sample (peer lifetimes),
//! 2. a measured per-peer *shared-file-count* distribution,
//! 3. the VLDB 2001 hybrid-P2P *query model* deciding which probes return
//!    results.
//!
//! This crate supplies faithful synthetic stand-ins for all three (see the
//! substitution table in `DESIGN.md`) behind explicit, testable APIs:
//!
//! * [`lifetime::LifetimeModel`] — heavy-tailed session lengths with the
//!   paper's `LifespanMultiplier`;
//! * [`files::FileCountModel`] — free riders plus a Pareto sharing tail;
//! * [`content::Catalog`] / [`content::PeerLibrary`] — a Zipf item universe
//!   and per-peer collections;
//! * [`query::QueryModel`] / [`query::QueryWorkload`] — query targets and
//!   the bursty Poisson arrival process;
//! * [`population::Population`] / [`population::Clocks`] — the churning
//!   content population every engine searches (slots, arena-backed
//!   libraries, incarnations) and its lifetime + burst clocks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod content;
pub mod files;
pub mod lifetime;
pub mod population;
pub mod query;

pub use content::{Catalog, CatalogParams, ItemId, PeerLibrary};
pub use files::FileCountModel;
pub use lifetime::LifetimeModel;
pub use query::{QueryModel, QueryTarget, QueryWorkload};
