//! `guess` — a faithful implementation and simulator of the GUESS
//! non-forwarding peer-to-peer search protocol.
//!
//! GUESS replaces Gnutella's flooding with direct, client-controlled
//! *probes*: a querying peer iterates through the addresses in its own
//! **link cache** (and a per-query **query cache** fed by pongs), probing
//! one peer at a time until it has enough results. State is maintained by
//! periodic pings, shared pongs, and a probabilistic introduction rule.
//! This crate implements the protocol, the five policy points that govern
//! it, capacity limits, malicious-peer behaviour, and a deterministic
//! discrete-event simulator that reproduces the evaluation of Yang,
//! Vinograd & Garcia-Molina (ICDCS 2004).
//!
//! # Quick start
//!
//! ```no_run
//! use guess::config::Config;
//! use guess::engine::GuessSim;
//! use guess::policy::SelectionPolicy;
//! use guess::Runnable;
//!
//! let mut cfg = Config::default();
//! cfg.protocol = cfg.protocol.with_uniform_policy(SelectionPolicy::Mfs);
//! let report = GuessSim::new(cfg)?.run();
//! println!("probes/query: {:.1}", report.probes_per_query());
//! println!("unsatisfied:  {:.1}%", report.unsatisfaction() * 100.0);
//! # Ok::<(), guess::config::ConfigError>(())
//! ```
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`addr`] | peer addresses, slots, allocation |
//! | [`bad_registry`] | slot-indexed slab of live malicious peers |
//! | [`entry`] | the `{addr, TS, NumFiles, NumRes}` cache entry |
//! | [`link_cache`] | the bounded neighbor cache with policy eviction |
//! | [`policy`] | Random/MRU/LRU/MFS/MR selection + replacement mirrors |
//! | [`capacity`] | `MaxProbesPerSecond` admission metering |
//! | [`message`] | the pong payload and what a sender observes ([`message::ProbeReply`]) |
//! | [`peer`] | live per-slot peer state, honest and malicious |
//! | [`config`] | Tables 1 & 2 parameters + run controls |
//! | [`engine`] | the discrete-event network simulator |
//! | [`metrics`] | run reports: every number the figures plot |
//! | [`graph`] | union-find connectivity of the conceptual overlay |
//! | [`push`] | CUP-style push maintenance: interest registry + update plane |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod bad_registry;
pub mod capacity;
pub mod config;
pub mod engine;
pub mod entry;
pub mod graph;
pub mod link_cache;
pub mod message;
pub mod metrics;
pub mod payments;
pub mod peer;
pub mod policy;
pub mod push;
pub mod reputation;

pub use config::{
    BadPongBehavior, Config, ConfigError, ProtocolParams, PushParams, RunParams, SystemParams,
};
pub use engine::{run_lanes, GuessSim};
pub use metrics::{MetricsCollector, QueryOutcome, RunReport};
pub use payments::PaymentParams;
pub use policy::{ReplacementPolicy, SelectionPolicy};
pub use simkit::scenario::MaintenanceMode;
pub use simkit::sim::{Runnable, SimReport};
