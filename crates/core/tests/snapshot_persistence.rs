//! Durable-snapshot persistence suite (`CMS1`).
//!
//! Pins the contract of `ModelRegistry::save_snapshot` / `load_snapshot` and
//! the sharded fleet save/restore:
//!
//! 1. **Canonical bytes** — save→load→save is *byte-identical*, over DetRng-
//!    generated model populations (the build is offline and dependency-free,
//!    so the property loop uses the workspace's own [`DetRng`]).
//! 2. **Bit-exact serving** — a restored registry serves predictions
//!    bit-identical to the pre-restart incumbent, without retraining:
//!    per-family models, the combined FastTree meta-model, clamps, and
//!    holdout provenance all round-trip through `to_bits`.
//! 3. **Provenance** — version numbers, epochs, and delta lineage survive the
//!    restart; the next publish continues the version sequence at N+1.
//! 4. **Rejection** — truncation, bad magic, and trailing bytes are span-
//!    exact parse errors, never panics.
//! 5. **Fleet restore** — a sharded registry restores warm shards at their
//!    saved versions and brings unsaved clusters up cold.

use std::path::PathBuf;
use std::sync::Arc;

use cleo_common::rng::DetRng;
use cleo_common::CleoError;
use cleo_core::feedback::{
    DeltaDecision, FeedbackConfig, FeedbackLoop, ShardedFeedbackConfig, ShardedFeedbackLoop,
    WindowEviction,
};
use cleo_core::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
use cleo_core::pipeline;
use cleo_core::registry::{HoldoutMetrics, ModelRegistry, SnapshotLineage};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::signature::ModelFamily;
use cleo_core::trainer::TrainerConfig;
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};
use cleo_engine::workload::generator::{
    generate_all_clusters, generate_cluster_workload, interleave_jobs, ClusterConfig,
    WorkloadProfile,
};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModel, HeuristicCostModel, OptimizerConfig};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A unique scratch directory under the system temp dir, wiped on entry so
/// reruns start clean.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cleo_snapshot_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta() -> JobMeta {
    JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "snap".into(),
        normalized_inputs: vec!["t".into()],
        params: vec![0.5],
        day: DayIndex(0),
        recurring: true,
    }
}

fn probe_node(kind: PhysicalOpKind, rows: f64, partitions: usize) -> PhysicalNode {
    let mut n = PhysicalNode::new(kind, "snap_op", vec![]);
    n.est = OpStats {
        input_cardinality: rows,
        base_cardinality: rows,
        output_cardinality: rows / 2.0,
        avg_row_bytes: 48.0,
    };
    n.partition_count = partitions;
    n
}

/// A DetRng-driven per-signature model population: a few operator kinds, each
/// with its own latency scale and sample count, trained into one or two
/// family stores.
fn random_population(rng: &mut DetRng) -> (CleoPredictor, Vec<OperatorSample>) {
    let kinds = PhysicalOpKind::all();
    let m = meta();
    let mut samples = Vec::new();
    let n_kinds = 2 + rng.index(3);
    for _ in 0..n_kinds {
        let kind = kinds[rng.index(kinds.len())];
        let scale = rng.uniform(0.5, 4.0);
        for i in 0..(10 + rng.index(10)) {
            let rows = rng.uniform(1e4, 1e7);
            let node = probe_node(kind, rows, 2 + (i % 6));
            let latency = scale * rows * 1e-7 + rng.uniform(0.01, 0.1);
            samples.push(OperatorSample::from_node(&node, latency, &m));
        }
    }
    let mut stores = Vec::new();
    for family in [ModelFamily::Operator, ModelFamily::OpInput] {
        if let Ok(store) = ModelStore::train(family, &samples, 4) {
            stores.push(store);
        }
    }
    assert!(
        !stores.is_empty(),
        "population must train at least one store"
    );
    (
        CleoPredictor::new(stores, CombinedModel::default()),
        samples,
    )
}

/// Per-probe prediction bits: every family's prediction plus the combined
/// output, through `to_bits` — the bit-identity currency of this suite.
fn probe_bits(predictor: &CleoPredictor, probes: &[OperatorSample]) -> Vec<u64> {
    let mut bits = Vec::new();
    for s in probes {
        let p = predictor.predict_from_parts(&s.signatures, &s.features);
        for family in ModelFamily::all() {
            bits.push(p.family(family).map(f64::to_bits).unwrap_or(u64::MAX));
        }
        bits.push(p.combined.to_bits());
    }
    bits
}

fn assert_snapshots_equal(a: &cleo_core::ModelSnapshot, b: &cleo_core::ModelSnapshot) {
    assert_eq!(a.version(), b.version());
    assert_eq!(a.epoch(), b.epoch());
    assert_eq!(a.lineage(), b.lineage());
    assert_eq!(a.base_full_version(), b.base_full_version());
    assert_eq!(
        a.holdout().correlation.to_bits(),
        b.holdout().correlation.to_bits()
    );
    assert_eq!(
        a.holdout().median_error_pct.to_bits(),
        b.holdout().median_error_pct.to_bits()
    );
    assert_eq!(a.holdout().sample_count, b.holdout().sample_count);
}

// ---------------------------------------------------------------------------
// 1 + 2: canonical bytes and bit-exact serving over random populations.
// ---------------------------------------------------------------------------

#[test]
fn save_load_save_is_byte_identical_over_random_populations() {
    let mut rng = DetRng::new(0x5A7E);
    for case in 0..6 {
        let (predictor, samples) = random_population(&mut rng);
        let registry = ModelRegistry::new();
        // Bit-exactness must hold for awkward holdout values too: NaN and
        // negative zero round-trip through their exact bit patterns.
        let holdout = HoldoutMetrics {
            correlation: if case == 0 { f64::NAN } else { rng.unit() },
            median_error_pct: if case == 1 {
                -0.0
            } else {
                rng.uniform(1.0, 40.0)
            },
            sample_count: samples.len(),
        };
        let published = registry.publish(predictor, case as u32 + 1, holdout);

        let bytes = registry.snapshot_bytes().unwrap();
        let restored = ModelRegistry::from_snapshot_bytes(&bytes).unwrap();
        let bytes_again = restored.snapshot_bytes().unwrap();
        assert_eq!(bytes, bytes_again, "case {case}: save→load→save bytes");

        let reloaded = restored.current().unwrap();
        assert_snapshots_equal(&published, &reloaded);
        assert_eq!(
            probe_bits(published.predictor(), &samples),
            probe_bits(reloaded.predictor(), &samples),
            "case {case}: restored predictions must be bit-identical"
        );
    }
}

#[test]
fn pipeline_trained_registry_with_combined_model_round_trips_bit_exactly() {
    // A real trained predictor: per-signature elastic nets across all four
    // families plus the combined FastTree meta-model — the full codec
    // surface, including tree nodes and flat-table rebuild on load.
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(1)), 2);
    let simulator = Simulator::new(SimulatorConfig::default());
    let default_model = HeuristicCostModel::default_model();
    let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
    let telemetry = pipeline::run_jobs(
        &jobs,
        &default_model,
        OptimizerConfig::default(),
        &simulator,
    )
    .unwrap();
    let predictor = pipeline::train_predictor(&telemetry, TrainerConfig::default()).unwrap();
    assert!(
        predictor.combined().is_trained(),
        "fixture must exercise the FastTree codec"
    );

    let registry = ModelRegistry::new();
    let published = registry.publish(
        predictor,
        1,
        HoldoutMetrics {
            correlation: 0.93,
            median_error_pct: 12.5,
            sample_count: 500,
        },
    );

    let dir = scratch_dir("trained");
    let path = dir.join("registry.cms");
    registry.save_snapshot(&path).unwrap();
    let restored = ModelRegistry::load_snapshot(&path).unwrap();

    // File round-trip is byte-identical too.
    let mut bytes = Vec::new();
    restored.save_snapshot(dir.join("again.cms")).unwrap();
    bytes.extend(std::fs::read(&path).unwrap());
    assert_eq!(bytes, std::fs::read(dir.join("again.cms")).unwrap());

    let reloaded = restored.current().unwrap();
    assert_snapshots_equal(&published, &reloaded);

    // Bit-identical serving through the full cost-model path (features,
    // per-family stores, combined boost, clamps, flat tree tables).
    let probes = pipeline::collect_samples(&telemetry);
    assert!(!probes.is_empty());
    assert_eq!(
        probe_bits(published.predictor(), &probes),
        probe_bits(reloaded.predictor(), &probes)
    );
    for kind in [
        PhysicalOpKind::Filter,
        PhysicalOpKind::Exchange,
        PhysicalOpKind::HashAggregate,
    ] {
        for partitions in [1, 8, 64] {
            let node = probe_node(kind, 3e5, partitions);
            let a = published
                .cost_model()
                .exclusive_cost(&node, partitions, &meta());
            let b = reloaded
                .cost_model()
                .exclusive_cost(&node, partitions, &meta());
            assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} x{partitions}");
        }
    }

    // The version sequence continues at N+1 after the restart.
    assert_eq!(restored.current_version(), 1);
    let (next_predictor, _) = random_population(&mut DetRng::new(7));
    let next = restored.publish(
        next_predictor,
        2,
        HoldoutMetrics {
            correlation: 0.9,
            median_error_pct: 13.0,
            sample_count: 100,
        },
    );
    assert_eq!(next.version(), 2);
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------------
// 3: delta lineage survives the restart.
// ---------------------------------------------------------------------------

#[test]
fn delta_chain_round_trips_with_its_full_basis() {
    // Train v1 (full) then v2 (delta) through the real feedback loop.
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let default_model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
    let log = pipeline::run_jobs(
        &jobs,
        &default_model,
        OptimizerConfig::default(),
        &simulator,
    )
    .unwrap();
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
    fl.observe(day(0));
    fl.retrain().unwrap();
    fl.observe(day(1));
    let outcome = fl.publish_dirty().unwrap();
    assert!(
        matches!(outcome.decision, DeltaDecision::Published { .. }),
        "{outcome:?}"
    );
    let v2 = fl.registry().current().unwrap();
    let SnapshotLineage::Delta {
        base_version,
        changed_signatures,
    } = v2.lineage()
    else {
        panic!("current must be a delta");
    };
    assert_eq!(base_version, 1);

    // The frame carries the chain: full basis first, then the delta.
    let bytes = fl.registry().snapshot_bytes().unwrap();
    let restored = ModelRegistry::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(restored.snapshot_bytes().unwrap(), bytes);
    assert_eq!(restored.version_count(), 2);
    let current = restored.current().unwrap();
    assert_eq!(current.version(), v2.version());
    assert_eq!(
        current.lineage(),
        SnapshotLineage::Delta {
            base_version: 1,
            changed_signatures
        }
    );
    assert_eq!(current.base_full_version(), 1);
    let basis = restored.version(1).expect("basis restored");
    assert_eq!(basis.lineage(), SnapshotLineage::FullEpoch);

    // Restored serving is bit-identical to the live delta chain.
    let probes = cleo_core::trainer::CleoTrainer::collect_samples(fl.window());
    assert_eq!(
        probe_bits(v2.predictor(), &probes),
        probe_bits(current.predictor(), &probes)
    );

    // Rollback works across the restart: popping the delta serves the basis.
    let back = restored.rollback().unwrap();
    assert_eq!(back.version(), 1);
    assert_eq!(restored.current_version(), 1);
}

// ---------------------------------------------------------------------------
// 4: corruption is rejected, span-exactly, without panicking.
// ---------------------------------------------------------------------------

#[test]
fn corrupt_snapshots_are_rejected_never_panic() {
    let (predictor, _) = random_population(&mut DetRng::new(0xBAD));
    let registry = ModelRegistry::new();
    registry.publish(
        predictor,
        1,
        HoldoutMetrics {
            correlation: 0.9,
            median_error_pct: 10.0,
            sample_count: 64,
        },
    );
    let bytes = registry.snapshot_bytes().unwrap();

    // Bad magic: span-exact at the header.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    let err = ModelRegistry::from_snapshot_bytes(&bad).unwrap_err();
    assert_eq!(err.parse_span(), Some((0, 0, 4)));
    assert!(
        err.to_string().contains("bad model snapshot magic"),
        "{err}"
    );

    // Truncation at every prefix length (sampled): always an error, never a
    // panic, never an Ok.
    for len in (0..bytes.len()).step_by(7) {
        let err = ModelRegistry::from_snapshot_bytes(&bytes[..len])
            .expect_err("every truncation must be rejected");
        assert!(
            matches!(err, CleoError::Parse { .. }),
            "truncation at {len} must be a parse error, got {err:?}"
        );
    }

    // Trailing garbage after the final record.
    let mut trailing = bytes.clone();
    trailing.push(0xEE);
    let err = ModelRegistry::from_snapshot_bytes(&trailing).unwrap_err();
    assert!(err.to_string().contains("trailing bytes"), "{err}");

    // Single-byte corruption anywhere must not panic (it may legitimately
    // decode when the flipped byte is inside an f64 payload).
    for at in (8..bytes.len()).step_by(11) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0xFF;
        let _ = ModelRegistry::from_snapshot_bytes(&flipped);
    }

    // An empty frame (zero snapshots) is structurally valid bytes but not a
    // servable registry.
    let empty = cleo_core::snapshot_io::encode_snapshots(&[]);
    assert!(ModelRegistry::from_snapshot_bytes(&empty).is_err());
}

// ---------------------------------------------------------------------------
// 5: sharded fleet save/restore.
// ---------------------------------------------------------------------------

#[test]
fn sharded_fleet_restore_serves_saved_versions_immediately() {
    let workloads = generate_all_clusters(1, false);
    let profiles: Vec<WorkloadProfile> = workloads.iter().map(WorkloadProfile::of).collect();
    let registry = Arc::new(ShardedRegistry::new(workloads.iter().map(|w| w.cluster)));
    let router = Arc::new(ClusterRouter::new(
        Arc::clone(&registry),
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard_threads: 2,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    );
    let stream = interleave_jobs(&workloads);
    let epoch = fleet.run_epoch(&stream).unwrap();
    assert_eq!(epoch.published_count(), 4);

    let dir = scratch_dir("fleet");
    let saved = registry.save_snapshots(&dir).unwrap();
    assert_eq!(saved.len(), 4, "all four shards were warm");

    // Restore into a *larger* fleet: the four saved clusters come up warm at
    // their saved versions; the never-saved cluster comes up cold.
    let clusters: Vec<ClusterId> = (0u8..5).map(ClusterId).collect();
    let restored = ShardedRegistry::load_snapshots(clusters, &dir).unwrap();
    assert_eq!(restored.shards().len(), 5);
    assert_eq!(restored.shard_version(ClusterId(4)), 0, "unsaved => cold");
    for c in 0u8..4 {
        let cluster = ClusterId(c);
        assert_eq!(
            restored.shard_version(cluster),
            registry.shard_version(cluster),
            "c{c} version"
        );
        let live = registry.shard(cluster).unwrap().current().unwrap();
        let back = restored.shard(cluster).unwrap().current().unwrap();
        assert_snapshots_equal(&live, &back);
        let probes =
            cleo_core::trainer::CleoTrainer::collect_samples(fleet.window(cluster).unwrap());
        assert!(!probes.is_empty());
        assert_eq!(
            probe_bits(live.predictor(), &probes),
            probe_bits(back.predictor(), &probes),
            "c{c} restored predictions"
        );
    }

    // A corrupt shard file fails the restore loudly rather than half-serving.
    std::fs::write(
        dir.join(ShardedRegistry::snapshot_file_name(ClusterId(2))),
        b"CMS1junk",
    )
    .unwrap();
    assert!(ShardedRegistry::load_snapshots((0u8..5).map(ClusterId), &dir).is_err());
    let _ = std::fs::remove_dir_all(dir);
}
