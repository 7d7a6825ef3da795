//! Experiment harness for the Cleo reproduction.
//!
//! * [`context`] builds the shared workload/telemetry/predictor state,
//! * [`experiments`] contains one runner per table/figure of the paper,
//! * the `repro` binary dispatches them (`cargo run -p cleo-bench --release --bin repro -- tab5`).
//!
//! Performance is measured by one benchmark, `cleobench`
//! (`src/bin/cleobench/`, declared in the repo's `BENCHMARK.json`), which
//! imports the program crates directly and not this library.

pub mod context;
pub mod experiments;

pub use context::{ClusterData, ExperimentContext, Scale};
pub use experiments::{run_experiment, ALL_EXPERIMENTS};
