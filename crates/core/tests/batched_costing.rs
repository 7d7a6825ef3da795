//! The batched costing path against a per-node oracle.
//!
//! The optimizer costs each enumeration level, each partition-exploration
//! phase and the final cost fold in one `CostModel` call, and the learned cost
//! model pushes a call's cache misses through one predictor pass.  Neither may
//! change anything but speed.  The oracle here is a `CostModel` that
//! implements only the per-operator methods — `exclusive_cost`,
//! `exclusive_cost_batch` (one operator, many candidates: what sampling
//! exploration calls) and `partition_coefficients` — so every multi-operator
//! method takes its default body: one model call per operator, the costing
//! path before batching.  Against it, for every job of the small cluster over
//! two days, under cold and warm caches, for three optimizer configurations
//! and at one and several threads: plans, estimated cost bits, model
//! invocations and cache lookups must all be equal.

use std::sync::Arc;

use cleo_common::rng::DetRng;
use cleo_core::models::PredictScratch;
use cleo_core::{pipeline, CleoPredictor, LearnedCostModel, PredictionBreakdown, TrainerConfig};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::physical::{JobMeta, PhysicalNode};
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
use cleo_engine::workload::JobSpec;
use cleo_engine::ClusterId;
use cleo_optimizer::{
    CostModel, FixedCostModel, HeuristicCostModel, OptimizedPlan, OptimizerConfig,
    PartitionExploration, SharedOptimizer, SweepSpec,
};

/// The costing path before batching: every multi-operator method is the
/// trait's default body over the per-operator methods of a learned model.
struct PerNode(Arc<LearnedCostModel>);

impl CostModel for PerNode {
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> f64 {
        self.0.exclusive_cost(node, partitions, meta)
    }

    fn exclusive_cost_batch(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        self.0.exclusive_cost_batch(node, partitions, meta)
    }

    fn partition_coefficients(&self, node: &PhysicalNode, meta: &JobMeta) -> Option<(f64, f64)> {
        self.0.partition_coefficients(node, meta)
    }

    fn name(&self) -> &str {
        "per-node oracle"
    }
}

/// Two days of the small cluster and a predictor trained on part of the first
/// (so later jobs meet uncovered signatures too).
fn fixture() -> (Vec<JobSpec>, Arc<CleoPredictor>) {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let heuristic = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let training: Vec<_> = workload.jobs.iter().take(40).collect();
    let log = pipeline::run_jobs(
        &training,
        &heuristic,
        OptimizerConfig::default(),
        &simulator,
    )
    .unwrap();
    let predictor = pipeline::train_predictor(&log, TrainerConfig::default()).unwrap();
    (workload.jobs, Arc::new(predictor))
}

fn configs() -> [(&'static str, OptimizerConfig); 3] {
    [
        ("resource_aware", OptimizerConfig::resource_aware()),
        ("default", OptimizerConfig::default()),
        (
            "geometric",
            OptimizerConfig {
                resource_planning: true,
                partition_exploration: PartitionExploration::Geometric { skip: 2.0 },
                ..OptimizerConfig::default()
            },
        ),
    ]
}

fn assert_same_plans(what: &str, oracle: &[OptimizedPlan], batched: &[OptimizedPlan]) {
    assert_eq!(oracle.len(), batched.len(), "{what}");
    for (i, (o, b)) in oracle.iter().zip(batched).enumerate() {
        assert_eq!(o.plan, b.plan, "{what}: job {i} plan");
        assert_eq!(
            o.estimated_cost.to_bits(),
            b.estimated_cost.to_bits(),
            "{what}: job {i} estimated cost"
        );
        assert_eq!(
            o.stats.model_invocations, b.stats.model_invocations,
            "{what}: job {i} model invocations"
        );
        assert_eq!(
            o.stats.alternatives_generated, b.stats.alternatives_generated,
            "{what}: job {i} alternatives"
        );
    }
}

#[test]
fn batched_costing_matches_the_per_node_oracle() {
    let (jobs, predictor) = fixture();
    let jobs: Vec<&JobSpec> = jobs.iter().collect();
    assert!(jobs.len() > 80, "{} jobs", jobs.len());
    let threads = 3;
    for (name, config) in configs() {
        for n_threads in [1, threads] {
            let oracle_model = Arc::new(LearnedCostModel::new(Arc::clone(&predictor)));
            let batched_model = Arc::new(LearnedCostModel::new(Arc::clone(&predictor)));
            let serve = |model: Arc<dyn CostModel>| {
                SharedOptimizer::new(Arc::new(FixedCostModel::new(model)), config)
            };
            let oracle = serve(Arc::new(PerNode(Arc::clone(&oracle_model))));
            let batched = serve(Arc::clone(&batched_model) as Arc<dyn CostModel>);
            for pass in ["cold", "warm"] {
                let what = format!("{name}, {n_threads} threads, {pass} cache");
                let expected = oracle.optimize_all(&jobs, n_threads).unwrap();
                let got = batched.optimize_all(&jobs, n_threads).unwrap();
                assert_same_plans(&what, &expected, &got);
                let (o, b) = (oracle_model.cache_stats(), batched_model.cache_stats());
                assert_eq!(
                    o.hits + o.misses,
                    b.hits + b.misses,
                    "{what}: cache lookups"
                );
                if n_threads == 1 {
                    // One thread: the split is deterministic too — a sweep
                    // repeating an earlier miss of its call counts as the hit
                    // the per-node path finds.
                    assert_eq!(o, b, "{what}: cache hits and misses");
                }
                assert_eq!(
                    oracle_model.invocation_count(),
                    batched_model.invocation_count(),
                    "{what}: model invocations"
                );
            }
            assert!(batched_model.cache_stats().misses > 0);
        }
    }
}

fn assert_same_breakdown(what: &str, got: &PredictionBreakdown, want: &PredictionBreakdown) {
    let bits = |b: &PredictionBreakdown| {
        [b.op_subgraph, b.op_subgraph_approx, b.op_input, b.operator].map(|v| v.map(f64::to_bits))
    };
    assert_eq!(bits(got), bits(want), "{what}: per-family predictions");
    assert_eq!(
        got.combined.to_bits(),
        want.combined.to_bits(),
        "{what}: combined prediction"
    );
}

/// Multi-sweep prediction — ragged sweeps of 1–9 rows, 1–20 sweeps per call,
/// operators of different jobs, families that do not cover an operator, the
/// same sweep twice in one call — equals each sweep predicted alone.
#[test]
fn multi_sweep_prediction_equals_per_sweep_prediction() {
    let (jobs, predictor) = fixture();
    let heuristic = HeuristicCostModel::default_model();
    let plans: Vec<OptimizedPlan> = jobs
        .iter()
        .step_by(3)
        .map(|job| {
            cleo_optimizer::Optimizer::new(&heuristic, OptimizerConfig::default())
                .optimize(job)
                .unwrap()
        })
        .collect();
    let operators: Vec<(&PhysicalNode, &JobMeta)> = plans
        .iter()
        .flat_map(|p| {
            p.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &p.plan.meta))
        })
        .collect();

    let mut rng = DetRng::new(26);
    let mut scratch = PredictScratch::new();
    let mut alone = PredictScratch::new();
    let (mut uncovered, mut repeated, mut rows_compared) = (0usize, 0usize, 0usize);
    for call in 0..120 {
        let n_sweeps = 1 + rng.index(20);
        let mut specs: Vec<(usize, Vec<usize>)> = Vec::new();
        for _ in 0..n_sweeps {
            if !specs.is_empty() && rng.index(5) == 0 {
                specs.push(specs[rng.index(specs.len())].clone());
                repeated += 1;
                continue;
            }
            let rows = 1 + rng.index(9);
            let partitions = (0..rows).map(|_| 1 + rng.index(2500)).collect();
            specs.push((rng.index(operators.len()), partitions));
        }
        let sweeps: Vec<SweepSpec> = specs
            .iter()
            .map(|(op, partitions)| SweepSpec {
                node: operators[*op].0,
                partitions,
                meta: operators[*op].1,
            })
            .collect();
        let together = predictor
            .predict_sweeps_with(&sweeps, &mut scratch)
            .to_vec();
        assert_eq!(
            together.len(),
            specs.iter().map(|(_, p)| p.len()).sum::<usize>()
        );
        let mut rest = together.as_slice();
        for (k, sweep) in sweeps.iter().enumerate() {
            let (own, tail) = rest.split_at(sweep.partitions.len());
            rest = tail;
            let want = predictor.predict_candidates_with(
                sweep.node,
                sweep.partitions,
                sweep.meta,
                &mut alone,
            );
            for (row, (got, want)) in own.iter().zip(want).enumerate() {
                assert_same_breakdown(&format!("call {call}, sweep {k}, row {row}"), got, want);
                rows_compared += 1;
                uncovered += [
                    got.op_subgraph,
                    got.op_subgraph_approx,
                    got.op_input,
                    got.operator,
                ]
                .iter()
                .filter(|v| v.is_none())
                .count();
            }
        }
    }
    assert!(rows_compared > 2000, "compared {rows_compared} rows");
    assert!(uncovered > 0, "no sweep met an uncovered family");
    assert!(repeated > 0, "no call repeated a sweep");
}

/// The learned cost model's one-call path over the same kind of calls: every
/// call's costs equal each sweep costed alone, and its cache lookups split
/// into hits and misses exactly as one call per sweep would split them.
#[test]
fn one_cost_call_equals_one_call_per_sweep() {
    let (jobs, predictor) = fixture();
    let heuristic = HeuristicCostModel::default_model();
    let plans: Vec<OptimizedPlan> = jobs
        .iter()
        .step_by(5)
        .map(|job| {
            cleo_optimizer::Optimizer::new(&heuristic, OptimizerConfig::default())
                .optimize(job)
                .unwrap()
        })
        .collect();
    let operators: Vec<(&PhysicalNode, &JobMeta)> = plans
        .iter()
        .flat_map(|p| {
            p.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &p.plan.meta))
        })
        .collect();
    let batched = LearnedCostModel::new(Arc::clone(&predictor));
    let per_sweep = LearnedCostModel::new(Arc::clone(&predictor));
    let uncached = LearnedCostModel::without_cache(Arc::clone(&predictor));

    let mut rng = DetRng::new(2026);
    for call in 0..200 {
        let n_sweeps = 1 + rng.index(20);
        let mut specs: Vec<(usize, Vec<usize>)> = Vec::new();
        for _ in 0..n_sweeps {
            if !specs.is_empty() && rng.index(4) == 0 {
                specs.push(specs[rng.index(specs.len())].clone());
                continue;
            }
            // Few distinct counts, so later calls hit what earlier ones cached.
            let rows = 1 + rng.index(3);
            let partitions = (0..rows).map(|_| 1 << rng.index(4)).collect();
            specs.push((rng.index(operators.len() / 4), partitions));
        }
        let sweeps: Vec<SweepSpec> = specs
            .iter()
            .map(|(op, partitions)| SweepSpec {
                node: operators[*op].0,
                partitions,
                meta: operators[*op].1,
            })
            .collect();
        let mut flat = Vec::new();
        batched.exclusive_cost_sweeps_into(&sweeps, &mut flat);
        let mut rest = flat.as_slice();
        for (k, sweep) in sweeps.iter().enumerate() {
            let (own, tail) = rest.split_at(sweep.partitions.len());
            rest = tail;
            let alone = per_sweep.exclusive_cost_batch(sweep.node, sweep.partitions, sweep.meta);
            let reference = uncached.exclusive_cost_batch(sweep.node, sweep.partitions, sweep.meta);
            for ((a, b), c) in own.iter().zip(&alone).zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "call {call}, sweep {k}");
                assert_eq!(a.to_bits(), c.to_bits(), "call {call}, sweep {k}");
            }
        }
        assert_eq!(
            batched.cache_stats(),
            per_sweep.cache_stats(),
            "call {call}: hits and misses"
        );
    }
    let stats = batched.cache_stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert_eq!(batched.invocation_count(), per_sweep.invocation_count());
}
