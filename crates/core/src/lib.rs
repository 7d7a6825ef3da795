//! # CLEO — learned cost models for big data query processing
//!
//! This crate is the reproduction of the paper's primary contribution: the Cloud
//! LEarning Optimizer (Cleo).  It learns a large collection of specialised cost
//! models from workload telemetry and retrofits them into a Cascades-style optimizer:
//!
//! * [`features`] — the feature vocabulary of Tables 2 and 3,
//! * [`signature`] — the four subgraph/operator signatures that key the model families,
//! * [`models`] — per-family model stores (elastic net per signature), the combined
//!   FastTree meta-model, and the [`models::CleoPredictor`],
//! * [`trainer`] — the training pipeline (min-occurrence filtering, meta hold-out),
//! * [`integration`] — [`integration::LearnedCostModel`], the drop-in
//!   [`cleo_optimizer::CostModel`] implementation, including the analytical partition
//!   coefficients used for resource-aware planning and the signature-keyed
//!   prediction cache for recurring-job costing,
//! * [`cardlearner`] — the learned-cardinality baseline of Section 6.4,
//! * [`pipeline`] — one-shot runs (optimize → simulate → train → re-optimize) and
//!   the evaluation helpers shared by the experiment runners,
//! * [`registry`] — the versioned model registry: immutable predictor snapshots
//!   behind an atomic publish/load seam, served to concurrent optimizations,
//! * [`feedback`] — the continuous loop of Section 5.1: epoch-driven serving over a
//!   bounded sliding telemetry window, parallel retraining, and holdout-guarded
//!   version rollout; [`feedback::ShardedFeedbackLoop`] runs one such loop per
//!   cluster in parallel, with drift-aware window eviction and a live-error
//!   rollback watchdog,
//! * [`sharding`] — the fleet-scale serving tier: per-cluster registry shards
//!   behind a lock-free shard map, a routing
//!   [`cleo_optimizer::CostModelProvider`] with deterministic cross-cluster
//!   fallback chains and per-shard circuit breakers, and the
//!   [`sharding::ServingPool`] of shard-pinned, work-stealing worker threads,
//! * [`serving`] — the async serving front end: open-loop arrivals, bounded
//!   admission with shed/delay backpressure, and coalescing of requests into
//!   pool batches behind a backlog,
//! * [`ingest`] — telemetry ingestion: one serial parse per wire format, strict
//!   or with per-record quarantine, whose log feeds a fleet through
//!   [`feedback::ShardedFeedbackLoop::observe`],
//! * [`scenario`] — the workload-scenario DSL: declarative suites (drift
//!   ramps, flash crowds, tenant arrival/churn, adversarial signature floods,
//!   cold-start storms) compiled into deterministic, seeded multi-cluster job
//!   streams for the experiment runners, the chaos bench, and the
//!   integration tests,
//! * [`snapshot_io`] — durable model snapshots: the `CMS1` on-disk format
//!   behind [`registry::ModelRegistry::save_snapshot`] /
//!   [`registry::ModelRegistry::load_snapshot`] and the sharded fleet
//!   save/restore, bit-exact across a restart.
//!
//! ## Quick start
//!
//! ```
//! use cleo_core::pipeline;
//! use cleo_core::integration::LearnedCostModel;
//! use cleo_core::trainer::TrainerConfig;
//! use cleo_engine::exec::{Simulator, SimulatorConfig};
//! use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
//! use cleo_engine::ClusterId;
//! use cleo_optimizer::{HeuristicCostModel, OptimizerConfig};
//!
//! // 1. Generate a small synthetic cluster workload and execute it with the default
//! //    cost model to collect telemetry.
//! let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 1);
//! let jobs: Vec<_> = workload.jobs.iter().take(20).collect();
//! let default_model = HeuristicCostModel::default_model();
//! let simulator = Simulator::new(SimulatorConfig::default());
//! let telemetry =
//!     pipeline::run_jobs(&jobs, &default_model, OptimizerConfig::default(), &simulator).unwrap();
//!
//! // 2. Train Cleo's learned cost models from the telemetry.
//! let predictor = pipeline::train_predictor(&telemetry, TrainerConfig::default()).unwrap();
//!
//! // 3. Plug them into the optimizer and re-optimize with resource-aware planning.
//! let learned = LearnedCostModel::new(predictor);
//! let improved =
//!     pipeline::run_jobs(&jobs, &learned, OptimizerConfig::resource_aware(), &simulator).unwrap();
//! assert_eq!(improved.len(), telemetry.len());
//! ```

pub mod cardlearner;
pub mod features;
pub mod feedback;
pub mod ingest;
pub mod integration;
pub mod models;
pub mod pipeline;
pub mod registry;
pub mod scenario;
pub mod serving;
pub mod sharding;
pub mod signature;
pub mod snapshot_io;
pub mod trainer;

pub use cardlearner::CardLearner;
pub use features::{
    extract_features, extract_features_into, feature_count, feature_name_strings, feature_names,
    normalized_weights,
};
pub use feedback::{
    DeltaDecision, DeltaOutcome, DeltaRoundReport, DriftPolicy, EpochReport, FeedbackConfig,
    FeedbackLoop, ObserveReport, PublishDecision, RetrainOutcome, ShardDeltaReport,
    ShardEpochReport, ShardFailure, ShardedDeltaReport, ShardedEpochReport, ShardedFeedbackConfig,
    ShardedFeedbackLoop, WatchdogPolicy, WatchdogVerdict, WindowEviction,
};
pub use ingest::{
    parse_telemetry, parse_telemetry_quarantine, QuarantineLog, QuarantinePolicy,
    QuarantinedRecord, WireFormat,
};
pub use integration::{CacheStats, LearnedCostModel};
pub use models::{
    CleoPredictor, CombinedModel, ModelStore, OperatorSample, PredictScratch, PredictionBreakdown,
    WarmStartStats,
};
pub use pipeline::{
    collect_samples, compare_runs, evaluate_cost_model, evaluate_predictor, run_jobs,
    run_jobs_shared, serve_jobs, train_predictor, JobComparison, ModelEvaluation,
};
pub use registry::{
    HoldoutMetrics, ModelDelta, ModelRegistry, ModelSnapshot, RegistryCostModelProvider,
    SnapshotLineage,
};
pub use scenario::{CompiledSuite, ScenarioSuite};
pub use serving::{
    open_loop_arrivals, serve_batch, Admission, CompletedRequest, DrainReport, FrontDoor,
    FrontDoorConfig, FrontDoorStats, OverloadPolicy,
};
pub use sharding::{
    BatchResult, BreakerPolicy, BreakerState, BreakerTransition, ClusterRouter, RegistryShard,
    RoutingSnapshot, ServingPool, ShardedRegistry, Ticket,
};
pub use signature::{signature_set, ModelFamily, SignatureSet};
pub use trainer::{CleoTrainer, TrainerConfig};
