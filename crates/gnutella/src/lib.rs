//! `gnutella` — forwarding-based search baselines for the GUESS study.
//!
//! GUESS is evaluated against two forwarding mechanisms (paper §6.2,
//! Figure 8):
//!
//! * **fixed extent** — the query always reaches the same number of peers,
//!   like a TTL-scoped Gnutella flood ([`fixed`]);
//! * **iterative deepening** — coarse-grained flexible extent: re-flood
//!   with growing TTLs until satisfied ([`iterative`]).
//!
//! Floods run over explicit overlay [`topology`] graphs, hop by hop
//! through [`wavefront`] — in iterative deepening and in the [`dynamic`]
//! engine alike — against the one content
//! [`workload::population`] built from the catalog, file-count and
//! lifetime models the GUESS simulator uses, so the comparison isolates
//! the search mechanism.
//!
//! # Example
//!
//! ```
//! use gnutella::fixed::FixedExtentCurve;
//! use simkit::rng::RngStream;
//! use workload::content::CatalogParams;
//! use workload::population::Population;
//!
//! let pop = Population::generate(200, CatalogParams::default(), 1)?;
//! let mut rng = RngStream::from_seed(1, "doc");
//! let curve = FixedExtentCurve::evaluate(&pop, 100, &mut rng);
//! assert!(curve.unsatisfaction_at(200) <= curve.unsatisfaction_at(10));
//! # Ok::<(), workload::population::BuildPopulationError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dynamic;
pub mod fixed;
pub mod fragmentation;
pub mod iterative;
pub mod topology;
pub mod wavefront;

pub use dynamic::{GnutellaConfig, GnutellaReport, GnutellaSim};
pub use fixed::FixedExtentCurve;
pub use fragmentation::{attack, AttackOutcome, AttackStrategy};
pub use iterative::{iterative_deepening, DeepeningOutcome, DeepeningPolicy};
pub use simkit::sim::{Runnable, SimReport};
pub use topology::Topology;
