//! Scenario-DSL integration suite.
//!
//! The unit tests in `cleo_core::scenario` pin the parser and each directive's
//! local semantics; this suite pins the cross-layer contracts:
//!
//! * the canned suites compile, and compilation is **bit-identical for any
//!   thread count** (the determinism the chaos bench and experiment runners
//!   rely on);
//! * a compiled suite's stream drives a sharded fleet end to end — including
//!   the cold-start tenant that exists only through a `coldstart` directive;
//! * malformed input is refused with span-exact parse errors, never panics.

use std::sync::Arc;

use cleo_core::feedback::{
    FeedbackConfig, ShardedFeedbackConfig, ShardedFeedbackLoop, WindowEviction,
};
use cleo_core::scenario::{compile_str, suites, ScenarioSuite};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::trainer::TrainerConfig;
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::types::{ClusterId, DayIndex};
use cleo_optimizer::HeuristicCostModel;

#[test]
fn canned_suites_compile_identically_for_any_thread_count() {
    for (name, src) in [
        ("FLEET_STRESS", suites::FLEET_STRESS),
        ("COLD_START_STORM", suites::COLD_START_STORM),
        ("DRIFT_RAMP", suites::DRIFT_RAMP),
    ] {
        let serial = compile_str(src, 1).unwrap();
        assert!(serial.total_jobs() > 0, "{name} must produce jobs");
        for threads in [2, 3, 8] {
            let parallel = compile_str(src, threads).unwrap();
            assert_eq!(
                serial.workloads, parallel.workloads,
                "{name} x{threads}: compiled workloads must be bit-identical"
            );
            let a: Vec<u64> = serial.stream().iter().map(|j| j.meta.id.0).collect();
            let b: Vec<u64> = parallel.stream().iter().map(|j| j.meta.id.0).collect();
            assert_eq!(a, b, "{name} x{threads}: stream order");
        }
    }
}

#[test]
fn recompiling_a_suite_is_deterministic() {
    let once = compile_str(suites::FLEET_STRESS, 4).unwrap();
    let twice = compile_str(suites::FLEET_STRESS, 4).unwrap();
    assert_eq!(once.workloads, twice.workloads);
    assert_eq!(once.seed, 77);
    assert_eq!(once.days, 3);
    assert_eq!(once.name, "fleet_stress");
}

#[test]
fn coldstart_tenants_exist_only_through_their_burst() {
    let compiled = compile_str(suites::COLD_START_STORM, 2).unwrap();
    assert_eq!(
        compiled.clusters(),
        vec![ClusterId(0), ClusterId(5), ClusterId(6), ClusterId(7)]
    );
    for (cluster, day, count) in [(5u8, 0u32, 12usize), (6, 1, 12), (7, 1, 20)] {
        let w = compiled.workload(ClusterId(cluster)).unwrap();
        assert_eq!(w.jobs.len(), count, "c{cluster} burst size");
        for job in &w.jobs {
            assert_eq!(job.meta.day, DayIndex(day), "c{cluster} burst day");
            assert!(!job.meta.recurring, "bursts are ad-hoc");
            assert!(
                job.meta.id.0 >= 1 << 56,
                "synthetic ids live above the generator id range"
            );
        }
    }
}

#[test]
fn a_compiled_suite_drives_a_sharded_fleet_end_to_end() {
    let compiled = compile_str(suites::FLEET_STRESS, 4).unwrap();
    let profiles = compiled.profiles();
    let registry = Arc::new(ShardedRegistry::new(compiled.clusters()));
    let router = Arc::new(ClusterRouter::new(
        Arc::clone(&registry),
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(1_000_000),
                correlation_tolerance: 10.0,
                error_tolerance_pct: 1e12,
                trainer: TrainerConfig {
                    threads: 2,
                    ..TrainerConfig::default()
                },
                ..FeedbackConfig::default()
            },
            shard_threads: 2,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    );

    let stream = compiled.stream();
    let epoch = fleet.run_epoch(&stream).unwrap();
    assert!(epoch.failed.is_empty(), "{:?}", epoch.failed);
    assert_eq!(epoch.jobs_run, stream.len());
    // Every tenant — including the cold-start one whose only history is its
    // flood burst — trained and published a model from the scenario stream.
    for cluster in compiled.clusters() {
        assert!(
            fleet.registry().shard_version(cluster) >= 1,
            "c{} must publish from the scenario stream",
            cluster.0
        );
    }
}

#[test]
fn malformed_suites_are_span_exact_errors() {
    // Missing header.
    let err = ScenarioSuite::parse("cluster c0\n").unwrap_err();
    assert!(err.parse_span().is_some());

    // Duplicate cluster declaration.
    let err = ScenarioSuite::parse("suite s days=1\ncluster c0\ncluster c0\n").unwrap_err();
    let (line, _, _) = err.parse_span().unwrap();
    assert_eq!(line, 3);

    // Churn window that never admits a job.
    let err = ScenarioSuite::parse("suite s days=3\ncluster c0\nchurn c0 arrive=2 depart=1\n")
        .unwrap_err();
    assert_eq!(err.parse_span().map(|(l, _, _)| l), Some(3));

    // A flash multiplier below one.
    let err =
        ScenarioSuite::parse("suite s days=2\ncluster c0\nflash c0 day=0 mult=0\n").unwrap_err();
    assert_eq!(err.parse_span().map(|(l, _, _)| l), Some(3));

    // Unknown key on a cluster declaration.
    let err = ScenarioSuite::parse("suite s days=1\ncluster c0 wings=2\n").unwrap_err();
    assert_eq!(err.parse_span().map(|(l, _, _)| l), Some(2));
}
