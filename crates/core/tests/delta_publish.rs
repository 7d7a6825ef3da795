//! Determinism + concurrency suite for sub-epoch delta publishing.
//!
//! Pins the three load-bearing properties of the delta tier:
//!
//! 1. **Delta equivalence** — publishing N single-signature deltas between two
//!    full epochs leaves the second epoch's trained snapshot bit-identical to
//!    a history that never published any delta (same telemetry, same epochs).
//!    Delta fits seed from the last full basis and groups are canonically
//!    ordered, so a delta can shrink the staleness window without ever
//!    perturbing what full retraining computes.
//! 2. **Thread invariance** — dirty-signature delta retraining on 1 thread and
//!    T threads produces bit-identical published snapshots.
//! 3. **Serving safety** — rollback across a delta restores the exact
//!    pre-delta snapshot (same `Arc`), concurrent readers racing interleaved
//!    full/delta publishes always observe complete snapshots whose provenance
//!    names versions that were actually published, and the shared prediction
//!    cache can never serve a stale cost for a signature a delta refit.

use std::sync::Arc;

use cleo_core::feedback::{
    DeltaDecision, FeedbackConfig, FeedbackLoop, ShardedFeedbackConfig, ShardedFeedbackLoop,
    WindowEviction,
};
use cleo_core::models::{CombinedModel, ModelStore, OperatorSample};
use cleo_core::pipeline::run_jobs;
use cleo_core::registry::{HoldoutMetrics, ModelDelta, ModelRegistry, SnapshotLineage};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::signature::ModelFamily;
use cleo_core::trainer::TrainerConfig;
use cleo_core::{CleoPredictor, LearnedCostModel, PublishDecision, RegistryCostModelProvider};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};
use cleo_engine::workload::generator::{
    generate_all_clusters, generate_cluster_workload, interleave_jobs, ClusterConfig,
    WorkloadProfile,
};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{
    CostModel, CostModelProvider, HeuristicCostModel, Optimizer, OptimizerConfig, SharedOptimizer,
};

/// Three day-sliced telemetry logs of one small cluster, executed once under
/// the default model — both equivalence histories replay the *same* records.
fn day_sliced_telemetry() -> (Vec<JobSpec>, TelemetryLog, TelemetryLog, TelemetryLog) {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 3);
    let default_model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
    let log = run_jobs(
        &jobs,
        &default_model,
        OptimizerConfig::default(),
        &simulator,
    )
    .unwrap();
    let day = |d: u32| log.slice_days(DayIndex(d), DayIndex(d));
    (workload.jobs.clone(), day(0), day(1), day(2))
}

/// An unbounded-window config with the publish guard effectively disabled, so
/// both equivalence histories publish every candidate (the guard's *decision*
/// is not what the equivalence property is about — the trained bits are).
fn equivalence_config(threads: usize) -> FeedbackConfig {
    FeedbackConfig {
        eviction: WindowEviction::JobCount(1_000_000),
        correlation_tolerance: 10.0,
        error_tolerance_pct: 1e12,
        trainer: TrainerConfig {
            threads,
            ..TrainerConfig::default()
        },
        ..FeedbackConfig::default()
    }
}

fn observe_loop(config: FeedbackConfig) -> FeedbackLoop {
    FeedbackLoop::new(config, Simulator::new(SimulatorConfig::default()))
}

/// Assert two predictors are bit-identical: same coverage, same per-signature
/// fingerprints and weights, same per-family and combined predictions over a
/// probe sample set — all compared through `to_bits`.
fn assert_predictors_bit_identical(
    a: &CleoPredictor,
    b: &CleoPredictor,
    probes: &[OperatorSample],
) {
    assert_eq!(a.model_count(), b.model_count());
    for family in ModelFamily::all() {
        match (a.store(family), b.store(family)) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.signatures(), sb.signatures(), "{family:?} coverage");
                for sig in sa.signatures() {
                    assert_eq!(
                        sa.fingerprint_of(sig),
                        sb.fingerprint_of(sig),
                        "{family:?}/{sig} fingerprint"
                    );
                    let wa = sa.weights_for(sig);
                    let wb = sb.weights_for(sig);
                    assert_eq!(wa.is_some(), wb.is_some());
                    if let (Some(wa), Some(wb)) = (wa, wb) {
                        assert_eq!(wa.len(), wb.len());
                        for (x, y) in wa.iter().zip(&wb) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{family:?}/{sig} weights");
                        }
                    }
                }
            }
            (None, None) => {}
            _ => panic!("family {family:?} present in only one predictor"),
        }
    }
    for s in probes {
        let pa = a.predict_from_parts(&s.signatures, &s.features);
        let pb = b.predict_from_parts(&s.signatures, &s.features);
        for family in ModelFamily::all() {
            assert_eq!(
                pa.family(family).map(f64::to_bits),
                pb.family(family).map(f64::to_bits)
            );
        }
        assert_eq!(pa.combined.to_bits(), pb.combined.to_bits());
    }
}

#[test]
fn deltas_then_epoch_is_bit_identical_to_epoch_only() {
    let (_, day0, day1, day2) = day_sliced_telemetry();

    // History A: epoch, delta, delta, epoch.
    let mut a = observe_loop(equivalence_config(2));
    a.observe(day0.clone());
    let first = a.retrain().unwrap();
    assert!(matches!(
        first.decision,
        PublishDecision::Published { version: 1 }
    ));
    a.observe(day1.clone());
    let d1 = a.publish_dirty().unwrap();
    assert!(
        matches!(
            d1.decision,
            DeltaDecision::Published {
                base_version: 1,
                ..
            }
        ),
        "day-1 ingest must dirty recurring signatures: {d1:?}"
    );
    assert!(d1.dirty_signatures > 0);
    a.observe(day2.clone());
    let d2 = a.publish_dirty().unwrap();
    assert!(
        matches!(d2.decision, DeltaDecision::Published { .. }),
        "{d2:?}"
    );
    let final_a = a.retrain().unwrap();
    assert!(matches!(
        final_a.decision,
        PublishDecision::Published { .. }
    ));
    let snapshot_a = a.registry().current().unwrap();
    assert_eq!(snapshot_a.lineage(), SnapshotLineage::FullEpoch);

    // History B: epoch, (observe only), epoch — no deltas ever.
    let mut b = observe_loop(equivalence_config(2));
    b.observe(day0);
    b.retrain().unwrap();
    b.observe(day1);
    b.observe(day2);
    let final_b = b.retrain().unwrap();
    assert!(matches!(
        final_b.decision,
        PublishDecision::Published { .. }
    ));
    let snapshot_b = b.registry().current().unwrap();

    // The delta history trained more versions, but the final full snapshots
    // are bit-identical.
    assert!(a.registry().version_count() > b.registry().version_count());
    let probes = cleo_core::trainer::CleoTrainer::collect_samples(a.window());
    assert!(!probes.is_empty());
    assert_predictors_bit_identical(snapshot_a.predictor(), snapshot_b.predictor(), &probes);
    // And both full epochs trace their seed basis to themselves (FullEpoch).
    assert_eq!(
        snapshot_a.base_full_version(),
        snapshot_a.version(),
        "a full snapshot is its own basis"
    );
}

#[test]
fn delta_retraining_is_thread_count_invariant() {
    let (_, day0, day1, _) = day_sliced_telemetry();

    let run = |threads: usize| {
        let mut fl = observe_loop(equivalence_config(threads));
        fl.observe(day0.clone());
        fl.retrain().unwrap();
        fl.observe(day1.clone());
        let outcome = fl.publish_dirty().unwrap();
        assert!(
            matches!(outcome.decision, DeltaDecision::Published { .. }),
            "{outcome:?}"
        );
        (outcome, fl)
    };

    let (outcome_1, fl_1) = run(1);
    let (outcome_t, fl_t) = run(4);
    assert_eq!(
        outcome_1, outcome_t,
        "dirty-set accounting must not depend on threads"
    );

    let probes = cleo_core::trainer::CleoTrainer::collect_samples(fl_1.window());
    let snap_1 = fl_1.registry().current().unwrap();
    let snap_t = fl_t.registry().current().unwrap();
    assert_eq!(snap_1.lineage(), snap_t.lineage());
    assert_predictors_bit_identical(snap_1.predictor(), snap_t.predictor(), &probes);
}

#[test]
fn rollback_across_a_delta_restores_the_exact_predelta_snapshot() {
    let (_, day0, day1, _) = day_sliced_telemetry();
    let mut fl = observe_loop(equivalence_config(2));
    fl.observe(day0);
    fl.retrain().unwrap();
    let v1 = fl.registry().current().unwrap();
    // Ingest only a quarter of day 1: the untouched templates' specialised
    // signatures stay clean, so the delta is genuinely partial.
    let day1_jobs = day1.into_jobs();
    let quarter = (day1_jobs.len() / 4).max(1);
    fl.observe(TelemetryLog::from_jobs(
        day1_jobs.into_iter().take(quarter).collect(),
    ));
    let outcome = fl.publish_dirty().unwrap();
    let DeltaDecision::Published {
        version,
        base_version,
        changed_signatures,
    } = outcome.decision
    else {
        panic!("expected a published delta: {outcome:?}");
    };
    assert_eq!(base_version, 1);
    assert!(changed_signatures > 0);

    let v2 = fl.registry().current().unwrap();
    assert_eq!(v2.version(), version);
    assert_eq!(
        v2.lineage(),
        SnapshotLineage::Delta {
            base_version: 1,
            changed_signatures
        }
    );
    assert_eq!(v2.base_full_version(), 1, "delta's basis is the full v1");
    // COW sharing: unchanged signatures are the incumbent's Arcs; changed ones
    // are new fits with new fingerprints.
    let mut shared = 0usize;
    let mut replaced = 0usize;
    let mut added = 0usize;
    for family in ModelFamily::all() {
        if let (Some(s1), Some(s2)) = (v1.predictor().store(family), v2.predictor().store(family)) {
            for sig in s2.signatures() {
                if s2.shares_model(s1, sig) {
                    shared += 1;
                } else if s1.covers(sig) {
                    assert_ne!(s1.fingerprint_of(sig), s2.fingerprint_of(sig));
                    replaced += 1;
                } else {
                    added += 1; // newly covered signature (cold delta fit)
                }
            }
        }
    }
    assert!(shared > 0, "a delta must share unchanged models");
    assert!(replaced > 0, "a delta must replace some incumbent models");
    assert_eq!(replaced + added, changed_signatures);
    // The delta successor serves through the incumbent's prediction cache.
    assert!(v2.cost_model().shares_cache_with(v1.cost_model()));

    // Rollback across the delta: the exact pre-delta snapshot serves again.
    let back = fl.registry().rollback().unwrap();
    assert!(
        Arc::ptr_eq(&back, &v1),
        "rollback must restore the same Arc"
    );
    assert_eq!(fl.registry().current_version(), 1);
    // The delta version remains addressable in history.
    assert_eq!(fl.registry().version_count(), 2);
    assert_eq!(
        fl.registry()
            .version(version)
            .unwrap()
            .lineage()
            .delta_base(),
        Some(1)
    );
}

// ---------------------------------------------------------------------------
// Hand-built fixtures for the cache-seam and concurrency tests.
// ---------------------------------------------------------------------------

fn meta() -> JobMeta {
    JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "delta".into(),
        normalized_inputs: vec!["t".into()],
        params: vec![0.5, 0.5],
        day: DayIndex(0),
        recurring: true,
    }
}

fn node(kind: PhysicalOpKind, rows: f64, partitions: usize) -> PhysicalNode {
    let mut n = PhysicalNode::new(kind, "delta_op", vec![]);
    n.est = OpStats {
        input_cardinality: rows,
        base_cardinality: rows,
        output_cardinality: rows / 2.0,
        avg_row_bytes: 64.0,
    };
    n.partition_count = partitions;
    n
}

/// Samples for one operator kind whose latency follows `scale * rows`.
fn kind_samples(kind: PhysicalOpKind, scale: f64, n: usize) -> Vec<OperatorSample> {
    let m = meta();
    (0..n)
        .map(|i| {
            let rows = 1e5 * (1.0 + i as f64);
            let node = node(kind, rows, 4 + (i % 4));
            OperatorSample::from_node(&node, scale * rows * 1e-7 + 0.05, &m)
        })
        .collect()
}

/// Build a delta that refits exactly the signatures covered by `payload`.
fn delta_from_payload(base_version: u64, epoch: u32, payload: Vec<ModelStore>) -> ModelDelta {
    let mut changed = Vec::new();
    for store in &payload {
        let family = store.family().expect("trained stores have a family");
        for sig in store.signatures() {
            changed.push((family, sig, store.fingerprint_of(sig).unwrap()));
        }
    }
    ModelDelta {
        base_version,
        epoch,
        payload,
        changed,
        dropped_regressions: 0,
    }
}

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 64,
    }
}

#[test]
fn delta_never_serves_a_stale_cached_cost() {
    // v1 covers two Operator-family signatures: Filter and Exchange.
    let mut base_samples = kind_samples(PhysicalOpKind::Filter, 1.0, 12);
    base_samples.extend(kind_samples(PhysicalOpKind::Exchange, 1.0, 12));
    let families = [ModelFamily::Operator];
    let v1_store = ModelStore::train(ModelFamily::Operator, &base_samples, 5).unwrap();
    let registry = ModelRegistry::new();
    let v1_snapshot = registry.publish(
        CleoPredictor::new(vec![v1_store], CombinedModel::default()),
        1,
        metrics(),
    );

    // Warm the shared cache with both signatures through v1.
    let m = meta();
    let filter_node = node(PhysicalOpKind::Filter, 3e5, 8);
    let exchange_node = node(PhysicalOpKind::Exchange, 3e5, 8);
    let v1_model = Arc::clone(v1_snapshot.cost_model());
    let v1_filter_cost = v1_model.exclusive_cost(&filter_node, 8, &m);
    let v1_exchange_cost = v1_model.exclusive_cost(&exchange_node, 8, &m);

    // A delta refits the Filter signature on shifted latencies (4x slower);
    // Exchange is untouched.
    let mut shifted = kind_samples(PhysicalOpKind::Filter, 4.0, 16);
    shifted.extend(kind_samples(PhysicalOpKind::Exchange, 1.0, 12));
    let chain = [v1_snapshot.predictor().store(ModelFamily::Operator)];
    let (payload, stats) =
        ModelStore::train_dirty(&families, &shifted, 5, 1, &chain, &chain, 0.0).unwrap();
    assert_eq!(stats.reused, 1, "Exchange unchanged");
    assert_eq!(stats.warm_fits, 1, "Filter refit");
    assert_eq!(payload[0].len(), 1, "payload carries only the dirty fit");
    let delta = delta_from_payload(1, 1, payload);
    let v2_snapshot = registry.publish_delta(&delta, metrics()).unwrap();
    let v2_model = Arc::clone(v2_snapshot.cost_model());
    assert!(v2_model.shares_cache_with(&v1_model));

    // The refit signature must reflect the new model, not v1's cached cost.
    let v2_filter_cost = v2_model.exclusive_cost(&filter_node, 8, &m);
    let reference = LearnedCostModel::without_cache(v2_model.shared_predictor());
    assert_eq!(
        v2_filter_cost.to_bits(),
        reference.exclusive_cost(&filter_node, 8, &m).to_bits(),
        "delta-refit signature must be recomputed under the new model"
    );
    assert_ne!(
        v2_filter_cost.to_bits(),
        v1_filter_cost.to_bits(),
        "a 4x latency shift must change the served cost"
    );

    // The unchanged signature keeps hitting the incumbent's warm entry.
    let hits_before = v2_model.cache_stats().hits;
    let v2_exchange_cost = v2_model.exclusive_cost(&exchange_node, 8, &m);
    assert_eq!(v2_exchange_cost.to_bits(), v1_exchange_cost.to_bits());
    assert!(
        v2_model.cache_stats().hits > hits_before,
        "unchanged signature must be served from the shared cache"
    );

    // A stale base version is rejected rather than applied blindly.
    let stale = delta_from_payload(1, 1, vec![]);
    assert!(registry.publish_delta(&stale, metrics()).is_err());
}

#[test]
fn concurrent_readers_see_complete_snapshots_across_interleaved_deltas() {
    use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
    use cleo_engine::logical::LogicalNode;

    let job = {
        let mut catalog = Catalog::new();
        catalog.add_table(TableDef::new(
            "facts",
            vec![
                ColumnDef::new("k", 8.0, 0.1),
                ColumnDef::new("v", 40.0, 0.8),
            ],
            1e7,
            16,
        ));
        let plan = LogicalNode::get("facts")
            .filter("v > 1", 0.3, 0.2)
            .aggregate(vec!["k".into()], 0.05, 0.02)
            .output("out");
        JobSpec {
            meta: JobMeta {
                id: JobId(9),
                cluster: ClusterId(0),
                template: None,
                name: "delta_concurrency".into(),
                normalized_inputs: vec!["facts".into()],
                params: vec![],
                day: DayIndex(0),
                recurring: true,
            },
            plan,
            catalog,
        }
    };

    let full_predictor = |scale: f64| {
        let mut samples = kind_samples(PhysicalOpKind::Filter, scale, 12);
        samples.extend(kind_samples(PhysicalOpKind::Exchange, scale, 12));
        samples.extend(kind_samples(PhysicalOpKind::HashAggregate, scale, 12));
        CleoPredictor::new(
            vec![ModelStore::train(ModelFamily::Operator, &samples, 5).unwrap()],
            CombinedModel::default(),
        )
    };

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(full_predictor(1.0), 1, metrics());
    let provider = Arc::new(RegistryCostModelProvider::new(
        Arc::clone(&registry),
        Arc::new(HeuristicCostModel::default_model()),
    ));
    let shared = SharedOptimizer::new(
        Arc::clone(&provider) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );

    // Writer: interleave full publishes with deltas refitting the Filter
    // signature at a new scale each round.  Readers: optimize continuously,
    // recording every served (version, delta_base, estimated cost).
    let observations = std::sync::Mutex::new(Vec::<(u64, Option<u64>, u64)>::new());
    std::thread::scope(|scope| {
        let writer = {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                for round in 2..10u32 {
                    if round % 2 == 0 {
                        let scale = round as f64;
                        let incumbent = registry.current().expect("published");
                        let chain = [incumbent.predictor().store(ModelFamily::Operator)];
                        let shifted = kind_samples(PhysicalOpKind::Filter, scale, 12);
                        let (payload, _) = ModelStore::train_dirty(
                            &[ModelFamily::Operator],
                            &shifted,
                            5,
                            1,
                            &chain,
                            &chain,
                            0.0,
                        )
                        .unwrap();
                        let delta = delta_from_payload(incumbent.version(), round, payload);
                        registry.publish_delta(&delta, metrics()).unwrap();
                    } else {
                        registry.publish(full_predictor(round as f64), round, metrics());
                    }
                }
            })
        };
        for _ in 0..4 {
            let shared = &shared;
            let job = &job;
            let observations = &observations;
            scope.spawn(move || {
                for _ in 0..60 {
                    let plan = shared.optimize(job).expect("optimize");
                    observations.lock().unwrap().push((
                        plan.stats.model_version,
                        plan.stats.model_delta_base,
                        plan.estimated_cost.to_bits(),
                    ));
                }
            });
        }
        writer.join().unwrap();
    });

    // 1 full + 8 interleaved publishes.
    assert_eq!(registry.version_count(), 9);
    let observations = observations.into_inner().unwrap();
    assert_eq!(observations.len(), 240);
    for (version, delta_base, cost_bits) in observations {
        // Provenance names a version that was actually published...
        let snapshot = registry
            .version(version)
            .unwrap_or_else(|| panic!("served version {version} was never published"));
        // ...whose lineage matches the stamped delta base...
        assert_eq!(snapshot.lineage().delta_base(), delta_base);
        // ...and the served plan is bit-identical to one optimized against that
        // version directly — a torn signature map could not reproduce it.
        let reference = Optimizer::new(
            snapshot.cost_model().as_ref() as &dyn CostModel,
            OptimizerConfig::resource_aware(),
        )
        .optimize(&job)
        .unwrap();
        assert_eq!(cost_bits, reference.estimated_cost.to_bits());
    }
}

#[test]
fn feedback_loop_delta_rounds_publish_and_stamp_lineage() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let config = FeedbackConfig {
        eviction: WindowEviction::JobCount(64),
        serving_threads: 2,
        ..FeedbackConfig::default()
    };
    let mut fl = FeedbackLoop::new(config, Simulator::new(SimulatorConfig::default()));
    let refs: Vec<&JobSpec> = workload.jobs.iter().take(40).collect();

    // A cold registry cannot be delta-patched.
    let cold = fl.run_delta_round(&refs[..2]).unwrap();
    assert_eq!(cold.outcome.decision, DeltaDecision::SkippedNoBase);

    fl.run_epoch(&refs).unwrap();
    assert_eq!(fl.registry().current_version(), 1);

    // A delta round between epochs: re-serving grows the window, dirtying the
    // recurring signatures, and publishes v2 = v1 ⊕ delta.
    let round = fl.run_delta_round(&refs).unwrap();
    assert_eq!(round.served_version, 1);
    assert_eq!(round.jobs_run, 40);
    let DeltaDecision::Published {
        version,
        base_version,
        ..
    } = round.outcome.decision
    else {
        panic!("expected a published delta: {:?}", round.outcome)
    };
    assert_eq!((version, base_version), (2, 1));
    assert_eq!(fl.epoch(), 1, "delta rounds do not advance the epoch");
    assert_eq!(
        fl.registry().current().unwrap().lineage().delta_base(),
        Some(1)
    );

    // Jobs served *after* the delta carry the delta lineage end to end.
    let next = fl.run_delta_round(&refs).unwrap();
    assert_eq!(next.served_version, 2);
    assert!(fl
        .window()
        .jobs()
        .iter()
        .any(|j| j.provenance.model_version == 2 && j.provenance.delta_base == Some(1)));
}

#[test]
fn sharded_delta_rounds_publish_per_shard() {
    let workloads = generate_all_clusters(1, false);
    let profiles: Vec<WorkloadProfile> = workloads.iter().map(WorkloadProfile::of).collect();
    let registry = Arc::new(ShardedRegistry::new(workloads.iter().map(|w| w.cluster)));
    let router = Arc::new(ClusterRouter::new(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                serving_threads: 2,
                ..FeedbackConfig::default()
            },
            shard_threads: 2,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        Arc::clone(&router),
    );

    let stream = interleave_jobs(&workloads);
    let epoch = fleet.run_epoch(&stream).unwrap();
    assert_eq!(epoch.published_count(), 4);

    let round = fleet.run_delta_round(&stream).unwrap();
    assert_eq!(round.jobs_run, stream.len());
    assert_eq!(round.shards.len(), 4);
    assert!(
        round.published_count() > 0,
        "re-served telemetry must dirty some shard: {:?}",
        round.shards
    );
    for shard in &round.shards {
        if let DeltaDecision::Published { base_version, .. } = shard.outcome.decision {
            assert_eq!(base_version, 1, "{:?}", shard.cluster);
            assert_eq!(shard.served_version, 2, "{:?}", shard.cluster);
            let lineage = fleet
                .registry()
                .shard(shard.cluster)
                .unwrap()
                .current()
                .unwrap()
                .lineage();
            assert_eq!(lineage.delta_base(), Some(1), "{:?}", shard.cluster);
        }
    }
}
