//! Benchmark of the EUCON control period: four workloads driven through
//! the v0.3 `LoopBuilder` front door, end-to-end metrics from untraced
//! passes, per-layer metrics from a traced pass that times every layer
//! from outside the program.  See `NOTES.md` beside this crate.

mod fold;
mod pass;
mod plant;
mod reference;
mod report;
mod workload;

pub use pass::{run_pass, PassConfig, STALL_EXIT};
pub use reference::reference_ms;
pub use workload::{Spec, WORKLOADS};
