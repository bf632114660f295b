//! Online statistics used by the experiment harness.

mod counter;
mod histogram;
mod summary;

pub use counter::CounterSet;
pub use histogram::Histogram;
pub use summary::Summary;
