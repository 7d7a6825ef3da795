//! Trained models are pinned.
//!
//! Every weight of every per-signature elastic net and every node of every
//! tree is part of what a feedback epoch publishes, so a change to a training
//! kernel must keep each of them bit-for-bit.  The constants below hash the
//! `CMS1` snapshot bytes of trained predictors and the exported nodes of
//! standalone tree fits; they were captured before the presorted split search,
//! the column-major elastic-net descent and the once-per-sample signature
//! hashing replaced the per-node sort, the row-major descent and the
//! per-family rehash.  A kernel change that moves one bit fails here, by name,
//! instead of surfacing as a moved `pred_corr`.
//!
//! `fleet_keeps_its_bytes` pins a whole fleet the same way: epochs, a delta
//! round, drift eviction and a watchdog rollback across three shards.  Its
//! constant was captured while each shard still kept its own window beside
//! the `FeedbackLoop` it now runs.

use std::sync::Arc;

use cleo_common::hash::StableHasher;
use cleo_common::rng::DetRng;
use cleo_core::feedback::{
    DeltaDecision, DriftPolicy, FeedbackConfig, FeedbackLoop, ShardedFeedbackConfig,
    ShardedFeedbackLoop, WatchdogPolicy, WindowEviction,
};
use cleo_core::pipeline;
use cleo_core::registry::{HoldoutMetrics, ModelRegistry};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::trainer::{CleoTrainer, TrainerConfig};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::types::{ClusterId, DayIndex};
use cleo_engine::workload::generator::{
    generate_cluster_workload, interleave_jobs, ClusterConfig, GeneratedWorkload,
};
use cleo_engine::workload::JobSpec;
use cleo_mlkit::decision_tree::TreeNode;
use cleo_mlkit::gbt::{FastTreeConfig, FastTreeRegressor};
use cleo_mlkit::random_forest::{RandomForestConfig, RandomForestRegressor};
use cleo_mlkit::{Dataset, DecisionTreeRegressor, Regressor};
use cleo_optimizer::{HeuristicCostModel, OptimizerConfig};

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Telemetry of `ClusterConfig::small` over `days` days, served by the
/// default model.
fn small_telemetry(days: u32) -> TelemetryLog {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), days);
    let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
    pipeline::run_jobs(
        &jobs,
        &HeuristicCostModel::default_model(),
        OptimizerConfig::default(),
        &Simulator::new(SimulatorConfig::default()),
    )
    .unwrap()
}

fn first_jobs(log: &TelemetryLog, n: usize) -> TelemetryLog {
    let mut out = TelemetryLog::new();
    for job in log.jobs().iter().take(n) {
        out.push(job.clone());
    }
    out
}

fn holdout() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.5,
        median_error_pct: 25.0,
        sample_count: 1,
    }
}

#[test]
fn trainer_predictor_keeps_its_bytes() {
    const GOLDEN: u64 = 0x209c_4b4c_f035_d8a0;
    let log = small_telemetry(2);
    for threads in [1, 2] {
        let trainer = CleoTrainer::new(TrainerConfig {
            threads,
            ..TrainerConfig::default()
        });
        let registry = ModelRegistry::new();
        registry.publish(trainer.train(&log).unwrap(), 1, holdout());
        let got = hash_bytes(&registry.snapshot_bytes().unwrap());
        assert_eq!(
            got, GOLDEN,
            "{threads} threads: trained bytes hash {got:#018x}"
        );
    }
}

#[test]
fn feedback_loop_keeps_its_bytes() {
    const GOLDEN: u64 = 0x26c7_7f8e_9b07_45a4;
    let log = small_telemetry(3);
    let day = |d: u32| log.slice_days(DayIndex(d), DayIndex(d));
    let mut fl = FeedbackLoop::new(
        FeedbackConfig {
            eviction: WindowEviction::JobCount(1_000_000),
            correlation_tolerance: 10.0,
            error_tolerance_pct: 1e12,
            trainer: TrainerConfig {
                threads: 2,
                ..TrainerConfig::default()
            },
            ..FeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
    );
    // The second epoch sees only the first jobs of day 1, so most signatures
    // keep their sample sets (reused); the delta round then adds two day-2
    // jobs, so large groups gain too little new evidence to refit
    // (deferred).
    let (day1, day2) = (day(1), day(2));
    fl.observe(day(0));
    let first = fl.retrain().unwrap();
    fl.observe(first_jobs(&day1, 12));
    let second = fl.retrain().unwrap();
    fl.observe(first_jobs(&day2, 2));
    let delta = fl.publish_dirty().unwrap();
    assert!(first.warm.cold_fits > 0, "{first:?}");
    assert!(second.warm.reused > 0, "{second:?}");
    assert!(second.warm.warm_fits > 0, "{second:?}");
    assert!(second.warm.cold_fits > 0, "{second:?}");
    assert!(delta.deferred_signatures > 0, "{delta:?}");
    assert!(
        matches!(delta.decision, DeltaDecision::Published { .. }),
        "{delta:?}"
    );
    let got = hash_bytes(&fl.registry().snapshot_bytes().unwrap());
    assert_eq!(got, GOLDEN, "feedback loop bytes hash {got:#018x}");
}

/// 400 rows of 6 features: continuous, integer-valued, two-valued, constant,
/// and signed-zero columns, with a noisy nonlinear target.
fn tree_dataset() -> Dataset {
    let mut rng = DetRng::new(0x7EE5);
    let mut rows = Vec::new();
    let mut targets = Vec::new();
    for i in 0..400 {
        let a = rng.uniform(0.0, 100.0);
        let b = (rng.index(12) as f64) * 0.5;
        let c: f64 = if rng.index(2) == 0 { -1.0 } else { 3.0 };
        let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
        let e = rng.uniform(-1.0, 1.0);
        let y = if a > 40.0 {
            a * (b + 1.0)
        } else {
            a + 10.0 * c.abs()
        } * rng.lognormal_noise(0.1)
            + e.abs();
        rows.push(vec![a, b, c, 7.0, zero, e]);
        targets.push(y);
    }
    let names = ["a", "b", "c", "const", "zero", "e"]
        .map(String::from)
        .to_vec();
    Dataset::from_rows(names, rows, targets).unwrap()
}

fn hash_nodes(h: &mut StableHasher, nodes: &[TreeNode]) {
    h.write_u64(nodes.len() as u64);
    for node in nodes {
        match *node {
            TreeNode::Leaf { value } => {
                h.write_u64(0).write_u64(value.to_bits());
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                h.write_u64(1)
                    .write_u64(feature as u64)
                    .write_u64(threshold.to_bits())
                    .write_u64(left as u64)
                    .write_u64(right as u64);
            }
        }
    }
}

fn hash_trees<'a>(trees: impl IntoIterator<Item = &'a DecisionTreeRegressor>) -> u64 {
    let mut h = StableHasher::new();
    for tree in trees {
        hash_nodes(&mut h, &tree.export_nodes());
    }
    h.finish()
}

#[test]
fn standalone_tree_fits_keep_their_nodes() {
    const GOLDEN_TREE: u64 = 0xdc1e_ae31_ceae_54e0;
    const GOLDEN_FOREST: u64 = 0xe7ad_8b1f_242b_2131;
    const GOLDEN_FASTTREE: u64 = 0x9c21_8858_4704_8438;
    let data = tree_dataset();

    let mut tree = DecisionTreeRegressor::paper_default();
    tree.fit(&data).unwrap();
    let got = hash_trees([&tree]);
    assert_eq!(got, GOLDEN_TREE, "decision tree nodes hash {got:#018x}");

    let mut forest = RandomForestRegressor::new(RandomForestConfig {
        seed: 11,
        ..RandomForestConfig::default()
    });
    forest.fit(&data).unwrap();
    let got = hash_trees(forest.trees());
    assert_eq!(got, GOLDEN_FOREST, "random forest nodes hash {got:#018x}");

    let mut fasttree = FastTreeRegressor::new(FastTreeConfig {
        seed: 5,
        min_samples_leaf: 3,
        ..FastTreeConfig::default()
    });
    fasttree.fit(&data).unwrap();
    let mut h = StableHasher::new();
    h.write_u64(fasttree.base_prediction().to_bits());
    h.write_u64(hash_trees(fasttree.trees()));
    let got = h.finish();
    assert_eq!(got, GOLDEN_FASTTREE, "FastTree nodes hash {got:#018x}");
}

/// Hash of everything a fleet round leaves behind: each shard's published
/// bytes and window length, and each report (wall-clock fields zeroed).
fn hash_fleet(fleet: &ShardedFeedbackLoop, reports: &[String]) -> u64 {
    let mut h = StableHasher::new();
    for cluster in fleet.registry().clusters() {
        let registry = fleet.registry().shard(cluster).unwrap();
        h.write_bytes(&registry.snapshot_bytes().unwrap());
        h.write_u64(fleet.window(cluster).unwrap().len() as u64);
    }
    for report in reports {
        h.write_bytes(report.as_bytes());
    }
    h.finish()
}

#[test]
fn fleet_keeps_its_bytes() {
    const GOLDEN: u64 = 0x52b8_7b8c_facd_5bca;
    let workloads: Vec<GeneratedWorkload> = (0u8..3)
        .map(|c| generate_cluster_workload(&ClusterConfig::small(ClusterId(c)), 3))
        .collect();
    let day = |d: u32| -> Vec<&JobSpec> {
        interleave_jobs(&workloads)
            .into_iter()
            .filter(|j| j.meta.day == DayIndex(d))
            .collect()
    };
    // Day 1 split in half per cluster, so every shard sees both halves.
    let (day1_early, day1_late): (Vec<&JobSpec>, Vec<&JobSpec>) = {
        let jobs = day(1);
        let mut seen = [0usize; 3];
        let totals: Vec<usize> = (0u8..3)
            .map(|c| {
                jobs.iter()
                    .filter(|j| j.meta.cluster == ClusterId(c))
                    .count()
            })
            .collect();
        jobs.into_iter().partition(|j| {
            let c = j.meta.cluster.0 as usize;
            seen[c] += 1;
            seen[c] <= totals[c] / 2
        })
    };
    for shard_threads in [1, 3] {
        let registry = Arc::new(ShardedRegistry::new((0u8..3).map(ClusterId)));
        let router = Arc::new(ClusterRouter::with_uniform_similarity(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
        ));
        let mut fleet = ShardedFeedbackLoop::new(
            ShardedFeedbackConfig {
                shard: FeedbackConfig {
                    eviction: WindowEviction::JobCount(80),
                    correlation_tolerance: 10.0,
                    error_tolerance_pct: 1e12,
                    serving_threads: 2,
                    trainer: TrainerConfig {
                        threads: 2,
                        ..TrainerConfig::default()
                    },
                    ..FeedbackConfig::default()
                },
                drift: DriftPolicy {
                    enabled: true,
                    threshold: 0.1,
                },
                watchdog: WatchdogPolicy {
                    enabled: true,
                    min_samples: 4,
                    ..WatchdogPolicy::default()
                },
                shard_threads,
            },
            Simulator::new(SimulatorConfig::default()),
            router,
        );
        let mut epochs = vec![fleet.run_epoch(&day(0)).unwrap()];
        let mut delta = fleet.run_delta_round(&day1_early).unwrap();
        epochs.push(fleet.run_epoch(&day1_late).unwrap());
        epochs.push(fleet.run_epoch(&day(2)).unwrap());

        for shard in &mut delta.shards {
            shard.round_micros = 0;
        }
        for shard in epochs.iter_mut().flat_map(|e| e.shards.iter_mut()) {
            shard.retrain_micros = 0;
        }
        let drift_evictions = epochs
            .iter()
            .flat_map(|e| &e.shards)
            .filter(|s| s.drift_evicted > 0)
            .count();
        assert!(drift_evictions > 0, "{epochs:?}");
        assert!(delta.failed.is_empty() && epochs.iter().all(|e| e.failed.is_empty()));
        let reports = [
            format!("{:?}", epochs[0]),
            format!("{delta:?}"),
            format!("{:?}", epochs[1]),
            format!("{:?}", epochs[2]),
        ];
        let got = hash_fleet(&fleet, &reports);
        assert_eq!(
            got, GOLDEN,
            "{shard_threads} shard threads: fleet bytes hash {got:#018x}"
        );
    }
}
