//! `simkit` — a small, deterministic discrete-event simulation substrate.
//!
//! This crate provides the machinery every simulation in the workspace is
//! built on:
//!
//! * [`time`] — virtual clock types ([`SimTime`],
//!   [`SimDuration`]);
//! * [`event`] — a deterministic, cancellable [`EventQueue`] (a
//!   calendar queue: O(1) amortized scheduling);
//! * [`hash`] — a deterministic FxHash-style hasher for hot-path maps
//!   ([`hash::FxHashMap`], [`hash::FxHashSet`]);
//! * [`rng`] — seedable, label-split random streams
//!   ([`RngStream`]);
//! * [`dist`] — the distributions the workload models need (Zipf via alias
//!   tables, exponential, log-normal, bounded Pareto, empirical resampling);
//! * [`stats`] — online statistics (summaries, histograms, counters);
//! * [`sim`] — the shared simulation kernel: the [`sim::Simulation`]
//!   trait, the kernel-owned event-loop driver, warm-up gating and
//!   periodic sampling;
//! * [`scenario`] — scripted mid-run intervention timelines
//!   ([`Scenario`]) delivered through the [`scenario::Intervenable`]
//!   trait;
//! * [`trace`] — the structured trace layer: typed records and
//!   pluggable [`trace::TraceSink`]s, zero-cost when disabled.
//!
//! # Example: a minimal M/M/1-ish arrival loop
//!
//! ```
//! use simkit::dist::{ContinuousDist, Exponential};
//! use simkit::event::EventQueue;
//! use simkit::rng::RngStream;
//! use simkit::stats::Summary;
//! use simkit::time::{SimDuration, SimTime};
//!
//! let mut rng = RngStream::from_seed(7, "arrivals");
//! let gaps = Exponential::new(1.0)?;
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//!
//! let mut inter = Summary::new();
//! let mut last = SimTime::ZERO;
//! while let Some((now, ())) = queue.pop() {
//!     inter.record((now.saturating_since(last)).as_secs());
//!     last = now;
//!     if queue.events_processed() < 1000 {
//!         queue.schedule(now + SimDuration::from_secs(gaps.sample(&mut rng)), ());
//!     }
//! }
//! assert_eq!(inter.count(), 1000);
//! # Ok::<(), simkit::dist::InvalidRateError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod event;
pub mod hash;
pub mod lanes;
pub mod rng;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use lanes::{LaneCtx, LaneKernel, LaneSimulation};
pub use rng::RngStream;
pub use scenario::{Intervenable, Intervention, Param, Scenario, ScenarioError};
pub use sim::{Kernel, KernelParams, SimCtx, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{NullSink, TraceRecord, TraceSink};
