//! `guess-bench` — the experiment harness that regenerates every table and
//! figure of *Evaluating GUESS and Non-Forwarding Peer-to-Peer Search*
//! (ICDCS 2004).
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p guess-bench --bin repro -- all
//! ```
//!
//! or a single experiment (`table3`, `fig3` … `fig21`, `response`):
//!
//! ```text
//! cargo run --release -p guess-bench --bin repro -- fig8
//! cargo run --release -p guess-bench --bin repro -- fig16 --quick
//! ```
//!
//! Each report prints measured values next to the paper's stated numbers
//! where the paper gives any, so shape agreement is directly visible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc_meter;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenarios;
pub mod tracefile;
