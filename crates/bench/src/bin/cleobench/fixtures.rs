//! Set-up: everything a workload needs before its timed part starts.
//!
//! The job population is fixed (`ClusterConfig::paper_like`'s own seeds) and
//! pinned; `--seed` draws from it: which four fifths of the test-day jobs are
//! served and in what order, the arrival times, and the order of telemetry
//! records within each half-day feed.  Ten populations from ten seeds differ
//! by 10–50% in time per job and in model quality (different templates, table
//! sizes and operator counts), which would drown any change to the program;
//! samples of one population differ by about as much as two runs of one seed.
//!
//! The fixture builder lives here, not in `cleo_bench`, so nothing outside the
//! benchmark's directory can change a workload's inputs except the program
//! under test.  It only calls public API: generate four clusters, serve every
//! job under the default cost model to get telemetry, train one predictor per
//! cluster on all but the last day, publish them behind a [`ClusterRouter`],
//! and optimize every test-day job through the plain [`Optimizer`] path to get
//! the reference plans the output check compares against.

use std::sync::Arc;

use crate::rng::{Fingerprint, SplitMix};
use cleo_core::signature::subgraph_signature;
use cleo_core::trainer::TrainerConfig;
use cleo_core::{
    pipeline, ClusterRouter, HoldoutMetrics, LearnedCostModel, ModelRegistry, ShardedRegistry,
};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig, WorkloadProfile};
use cleo_engine::workload::JobSpec;
use cleo_engine::{ClusterId, DayIndex};
use cleo_optimizer::{CostModel, HeuristicCostModel, OptimizedPlan, Optimizer, OptimizerConfig};

/// Clusters in every fixture (the paper's four).
pub const CLUSTERS: u8 = 4;

/// How much workload a fixture generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `ClusterConfig::paper_like`: a few hundred jobs per cluster-day.
    Full,
    /// `ClusterConfig::small`: tens of jobs per cluster-day (`--smoke`, tests).
    Smoke,
}

/// What the output check keeps of one optimized plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDigest {
    /// `estimated_cost.to_bits()`.
    pub cost_bits: u64,
    /// Hash of every operator's partition count, in operator order.
    pub partitions: u64,
    /// Subgraph signature of the plan root (the chosen physical shape).
    pub root_signature: u64,
}

impl PlanDigest {
    /// Digest an optimized plan.
    pub fn of(plan: &OptimizedPlan) -> PlanDigest {
        let mut h = Fingerprint::new();
        for op in plan.plan.operators() {
            h.write_u64(op.partition_count as u64);
        }
        PlanDigest {
            cost_bits: plan.estimated_cost.to_bits(),
            partitions: h.finish(),
            root_signature: subgraph_signature(&plan.plan.root),
        }
    }
}

/// One cluster's share of the fixture.
pub struct ClusterFixture {
    /// Every generated job, ordered by day then submission order.
    pub jobs: Vec<Arc<JobSpec>>,
    /// Telemetry of every job served under the default cost model.
    pub telemetry: TelemetryLog,
    /// The cluster's registry shard (version 1 = the set-up predictor).
    pub registry: Arc<ModelRegistry>,
}

/// Everything the workloads share.
pub struct Fixtures {
    /// The seed the inputs were made from.
    pub seed: u64,
    /// Per-cluster data, cluster 0 first.
    pub clusters: Vec<ClusterFixture>,
    /// Generated days; the last one is the test day.
    pub days: u32,
    /// How much workload was generated.
    pub scale: Scale,
    /// The simulator used for telemetry (and the plan-quality metric).
    pub simulator: Simulator,
    /// Router over the four warm shards.
    pub router: Arc<ClusterRouter>,
    /// The served request stream: test-day jobs, round-robin across clusters.
    pub stream: Vec<Arc<JobSpec>>,
    /// Reference digest per stream entry, from the plain `Optimizer` path.
    pub reference: Vec<PlanDigest>,
    /// Hash of every generated job's id, day, plan shape, estimated and actual
    /// cardinality bits, inputs and parameters: the population, the same for
    /// every seed.
    pub fingerprint: u64,
    /// Hash of the served stream's job ids, in order: what the seed drew.
    pub stream_fingerprint: u64,
}

/// The default cost model, as the fallback every provider ends its chain with.
pub fn default_model() -> Arc<dyn CostModel> {
    Arc::new(HeuristicCostModel::default_model())
}

impl Fixtures {
    /// Build the fixture for `seed`.  The same seed gives the same inputs.
    /// Every build does the same work whatever the seed, so `setup_s` compares
    /// across runs.  `stage_done` is called after each cluster and after the
    /// reference plans, so the caller can time the stages one by one.
    pub fn build(seed: u64, days: u32, scale: Scale, stage_done: &mut dyn FnMut()) -> Fixtures {
        assert!(days >= 2, "need a training day and a test day");
        let simulator = Simulator::new(SimulatorConfig::default());
        let heuristic = HeuristicCostModel::default_model();
        let test_day = DayIndex(days - 1);

        let sharded = Arc::new(ShardedRegistry::new((0..CLUSTERS).map(ClusterId)));
        let mut clusters = Vec::new();
        let mut profiles = Vec::new();
        for c in 0..CLUSTERS {
            let id = ClusterId(c);
            let config = match scale {
                Scale::Full => ClusterConfig::paper_like(id),
                Scale::Smoke => ClusterConfig::small(id),
            };
            let workload = generate_cluster_workload(&config, days);
            profiles.push(WorkloadProfile::of(&workload));

            let refs: Vec<&JobSpec> = workload.jobs.iter().collect();
            let telemetry =
                pipeline::run_jobs(&refs, &heuristic, OptimizerConfig::default(), &simulator)
                    .expect("default-model serving of generated jobs");
            let train_log = telemetry.slice_days(DayIndex(0), DayIndex(days - 2));
            let trainer = TrainerConfig {
                threads: 1,
                ..TrainerConfig::default()
            };
            let predictor =
                Arc::new(pipeline::train_predictor(&train_log, trainer).expect("training"));
            let registry = Arc::clone(sharded.shard(id).expect("shard exists"));
            registry.publish(
                predictor,
                0,
                HoldoutMetrics {
                    correlation: 0.0,
                    median_error_pct: 0.0,
                    sample_count: 0,
                },
            );
            clusters.push(ClusterFixture {
                jobs: workload.jobs.into_iter().map(Arc::new).collect(),
                telemetry,
                registry,
            });
            stage_done();
        }
        let router = Arc::new(ClusterRouter::new(sharded, default_model(), &profiles));

        // The test day, round-robin across clusters; the seed picks which
        // four fifths of it are served, and in what order.
        let per_cluster: Vec<Vec<Arc<JobSpec>>> = clusters
            .iter()
            .map(|c| {
                c.jobs
                    .iter()
                    .filter(|j| j.meta.day == test_day)
                    .cloned()
                    .collect()
            })
            .collect();
        let longest = per_cluster.iter().map(Vec::len).max().unwrap_or(0);
        let mut stream = Vec::new();
        for i in 0..longest {
            for jobs in &per_cluster {
                if let Some(job) = jobs.get(i) {
                    stream.push(Arc::clone(job));
                }
            }
        }
        SplitMix::new(seed, 0x57).shuffle(&mut stream);
        stream.truncate((stream.len() * 4).div_ceil(5));
        let mut stream_fingerprint = Fingerprint::new();
        for job in &stream {
            stream_fingerprint.write_u64(job.meta.id.0);
        }

        let config = OptimizerConfig::resource_aware();
        let reference: Vec<PlanDigest> = stream
            .iter()
            .map(|job| {
                let model = learned_model(&clusters[job.meta.cluster.0 as usize]);
                let plan = Optimizer::new(model.as_ref(), config)
                    .optimize(job)
                    .expect("reference optimization");
                PlanDigest::of(&plan)
            })
            .collect();

        // Inputs only: nothing the program under test computes goes in.
        let mut fingerprint = Fingerprint::new();
        for job in clusters.iter().flat_map(|c| &c.jobs) {
            let cards = job
                .plan
                .derive_cards(&job.catalog)
                .expect("generated plans derive cardinalities");
            fingerprint
                .write_u64(job.meta.id.0)
                .write_u64(u64::from(job.meta.day.0))
                .write_u64(job.plan.node_count() as u64)
                .write_u64(job.plan.depth() as u64)
                .write_u64(cards.estimated.output_cardinality.to_bits())
                .write_u64(cards.actual.output_cardinality.to_bits());
            for input in &job.meta.normalized_inputs {
                fingerprint.write_str(input);
            }
            for param in &job.meta.params {
                fingerprint.write_u64(param.to_bits());
            }
        }

        stage_done();
        Fixtures {
            seed,
            clusters,
            days,
            scale,
            simulator,
            router,
            stream,
            reference,
            fingerprint: fingerprint.finish(),
            stream_fingerprint: stream_fingerprint.finish(),
        }
    }

    /// The learned model each cluster's shard currently serves.
    pub fn learned_models(&self) -> Vec<Arc<LearnedCostModel>> {
        self.clusters.iter().map(learned_model).collect()
    }

    /// Does `plan`, returned for stream entry `index`, equal the reference?
    pub fn plan_matches(&self, index: usize, plan: &OptimizedPlan) -> bool {
        PlanDigest::of(plan) == self.reference[index % self.reference.len()]
    }
}

fn learned_model(cluster: &ClusterFixture) -> Arc<LearnedCostModel> {
    Arc::clone(
        cluster
            .registry
            .current()
            .expect("set-up published a version")
            .cost_model(),
    )
}
