//! `gossip` — a push/pull epidemic (rumor-spreading) search engine.
//!
//! The paper compares GUESS against *forwarding* baselines (flooding,
//! iterative deepening). Gossip-based rumor spreading is the canonical
//! third point in that design space (Jaho et al., *Gossip-based Search
//! in Multipeer Communication Networks*): a query is treated as a rumor
//! that informed peers push to a few uniformly random peers each round,
//! with duplicate receivers probabilistically pulled back into
//! dissemination. No overlay links are maintained and no message is
//! forwarded along a path — every hop is an independent point-to-point
//! contact, so cost and coverage are governed by three knobs:
//!
//! * **fanout** — contacts each active spreader makes per round;
//! * **round TTL** — rounds a rumor may spread before it is retired;
//! * **pull probability** — chance that a peer receiving a duplicate
//!   push re-enters dissemination for one more round (the push/pull
//!   hybrid; `0` is the pure infect-and-die push epidemic).
//!
//! The engine is a [`workload::population::ForwardingSim`], the peer
//! lifecycle the Gnutella flood runs on too, and faces exactly the
//! workloads of the GUESS and Gnutella simulators: the same content
//! catalog and peer libraries, the same bursty query process, and the
//! same Saroiu-like lifetime model — so three-way cost/quality
//! comparisons are apples-to-apples.
//!
//! # Quick start
//!
//! ```no_run
//! use gossip::{Config, GossipSim, Runnable};
//!
//! let report = GossipSim::new(Config::default())?.run();
//! println!("messages/query = {:.1}", report.messages_per_query());
//! # Ok::<(), gossip::GossipConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod report;

pub use config::{Config, GossipConfigError};
pub use engine::GossipSim;
pub use report::GossipReport;
pub use simkit::sim::{Runnable, SimReport};
