//! Cascades-style query optimizer with pluggable cost models.
//!
//! This crate is the reproduction's stand-in for the SCOPE optimizer the paper
//! retrofits (Section 5): a top-down/bottom-up plan enumerator with physical property
//! enforcement, a pluggable [`cost::CostModel`] invoked from the costing (Optimize
//! Inputs) step, hand-written [`cost::DefaultCostModel`] and manually tuned baselines,
//! and the resource-aware planning extensions of Section 5.2 — resource contexts,
//! partition exploration (sampling and analytical), and partition optimization.
//!
//! The learned cost models of `cleo-core` implement [`cost::CostModel`] and plug in
//! here without any further changes, which is precisely the "minimally invasive"
//! integration the paper argues for.  For continuous serving,
//! [`provider::CostModelProvider`] + [`provider::SharedOptimizer`] let many jobs be
//! optimized concurrently against whichever model version is current, with the
//! version stamped into every optimized plan.

pub mod cost;
pub mod enumerate;
pub mod optimizer;
pub mod provider;
pub mod resource;

pub use cost::{CostModel, DefaultCostModel, HeuristicCostModel, SweepSpec};
pub use enumerate::{default_partition_count, Alternative, EnumerationStats, MAX_PARTITIONS};
pub use optimizer::{OptimizationStats, OptimizedPlan, Optimizer, OptimizerConfig};
pub use provider::{
    CostModelProvider, FixedCostModel, ServedModel, SharedOptimizer, SnapshotCache,
    ROUTE_UNCACHEABLE,
};
pub use resource::{
    analytical_lookup_count, candidate_counts, explore_stage_analytical, explore_stage_sampling,
    explore_stages_analytical, geometric_lookup_count, ExplorationOutcome, PartitionExploration,
    ResourceContext,
};
