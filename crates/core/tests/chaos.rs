//! Seeded chaos suite: graceful degradation under deterministic fault
//! injection.
//!
//! Every scenario drives the production code through a [`FaultPlan`] whose
//! decisions are pure functions of `(seed, site, index)`, so each test pins an
//! exact failure schedule and an exact recovery:
//!
//! * pool workers panic → claimed batches requeue once, then error-complete
//!   (**exactly one terminal outcome per job**), and the pool returns to
//!   fault-free goodput past the plan's horizon;
//! * the front door bounds every request with deadlines and retry budgets,
//!   with exact `retried`/`expired`/`errored` accounting;
//! * under the mixed [`FaultPlan::chaos`] plan, every request offered to the
//!   front door resolves exactly once (ok + expired + errored + shed ==
//!   offered), and the same pool serves the whole stream past the horizon;
//! * per-shard circuit breakers trip to the donor chain and probe back
//!   half-open, with a transition sequence that is identical for 1 or N
//!   workers;
//! * poisoned telemetry quarantines instead of aborting the feed: the
//!   quarantine set is exactly the records the plan poisons, for both wire
//!   formats, and an out-of-order record carries the strict parser's error;
//! * fleet epochs and delta rounds isolate panicking/corrupt shards while
//!   every incumbent keeps serving;
//! * the publish watchdog rolls back a live-error regression in both full
//!   epochs and delta rounds, and a round that fails after its watchdog
//!   rolled back keeps the rollback;
//! * a quiet plan (all rates zero) is bit-identical to no plan at all.

use std::sync::Arc;
use std::time::Duration;

use cleo_common::fault::{FaultPlan, FaultSite};
use cleo_common::CleoError;
use cleo_core::feedback::{
    FeedbackConfig, ShardedFeedbackConfig, ShardedFeedbackLoop, WatchdogPolicy, WatchdogVerdict,
    WindowEviction,
};
use cleo_core::ingest::{
    parse_telemetry, parse_telemetry_quarantine, parse_telemetry_quarantine_obs, QuarantinePolicy,
    QuarantinedRecord, WireFormat,
};
use cleo_core::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
use cleo_core::registry::HoldoutMetrics;
use cleo_core::serving::{FrontDoor, FrontDoorConfig};
use cleo_core::sharding::{
    BreakerPolicy, BreakerState, ClusterRouter, ServingPool, ShardedRegistry,
};
use cleo_core::signature::ModelFamily;
use cleo_core::trainer::{CleoTrainer, TrainerConfig};
use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::logical::LogicalNode;
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind, PhysicalPlan};
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog};
use cleo_engine::telemetry_io::{write_binary, write_ndjson};
use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};
use cleo_engine::workload::generator::{
    generate_all_clusters, generate_cluster_workload, ClusterConfig,
};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer};

// ---------------------------------------------------------------------------
// Fixtures (mirrors the serving_pool suite: a warm four-shard router).
// ---------------------------------------------------------------------------

fn tiny_predictor(scale: f64) -> CleoPredictor {
    let meta = JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "chaos".into(),
        normalized_inputs: vec!["t".into()],
        params: vec![],
        day: DayIndex(0),
        recurring: true,
    };
    let samples: Vec<OperatorSample> = (0..24)
        .map(|i| {
            let rows = 1e5 * (1.0 + i as f64);
            let mut n = PhysicalNode::new(PhysicalOpKind::Filter, "pred", vec![]);
            n.est = OpStats {
                input_cardinality: rows,
                base_cardinality: rows,
                output_cardinality: rows / 2.0,
                avg_row_bytes: 40.0,
            };
            n.partition_count = 4 + (i % 4);
            OperatorSample::from_node(&n, scale * rows * 1e-7 + 0.05, &meta)
        })
        .collect();
    CleoPredictor::new(
        vec![ModelStore::train(ModelFamily::Operator, &samples, 5).unwrap()],
        CombinedModel::default(),
    )
}

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 24,
    }
}

fn catalog() -> Catalog {
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
    catalog
}

fn job(id: u64, cluster: u8) -> Arc<JobSpec> {
    let plan = LogicalNode::get("facts")
        .filter("v > 1", 0.3, 0.2)
        .aggregate(vec!["k".into()], 0.05, 0.02)
        .output("out");
    Arc::new(JobSpec {
        meta: JobMeta {
            id: JobId(id),
            cluster: ClusterId(cluster),
            template: None,
            name: format!("chaos_{id}_c{cluster}"),
            normalized_inputs: vec!["facts".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        },
        plan,
        catalog: catalog(),
    })
}

/// A job whose optimization fails deterministically on every route (its plan
/// names a table absent from its catalog) — the route-independent failure the
/// breaker determinism tests need.
fn failing_job(id: u64, cluster: u8) -> Arc<JobSpec> {
    let plan = LogicalNode::get("missing").output("out");
    Arc::new(JobSpec {
        meta: JobMeta {
            id: JobId(id),
            cluster: ClusterId(cluster),
            template: None,
            name: format!("chaos_bad_{id}_c{cluster}"),
            normalized_inputs: vec!["missing".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        },
        plan,
        catalog: catalog(),
    })
}

fn warm_router_with(policy: Option<BreakerPolicy>) -> Arc<ClusterRouter> {
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    let mut router = ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
    );
    if let Some(policy) = policy {
        router = router.with_breaker_policy(policy);
    }
    let router = Arc::new(router);
    for c in 0u8..4 {
        router.registry().shard(ClusterId(c)).unwrap().publish(
            tiny_predictor(1.0 + c as f64),
            1,
            metrics(),
        );
    }
    router
}

fn shared_over(router: &Arc<ClusterRouter>) -> SharedOptimizer {
    SharedOptimizer::new(
        Arc::clone(router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    )
}

/// Telemetry fixtures for the quarantine tests (mirrors the ingest suite).
fn sample_job(job: u64, day: u32, cluster: u8) -> JobTelemetry {
    let mut extract = PhysicalNode::new(PhysicalOpKind::Extract, "events_{date}", vec![]);
    extract.act = OpStats {
        input_cardinality: 1e5 + job as f64 * 13.0,
        base_cardinality: 1e5,
        output_cardinality: 9e4,
        avg_row_bytes: 37.0,
    };
    extract.est = extract.act;
    extract.partition_count = 8;
    let mut agg = PhysicalNode::new(PhysicalOpKind::HashAggregate, "uid;count", vec![extract]);
    agg.partition_count = 8;
    agg.est.output_cardinality = 5e3;
    let mut out = PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![agg]);
    out.partition_count = 1;
    let meta = JobMeta {
        id: JobId(job),
        cluster: ClusterId(cluster),
        template: Some(cleo_engine::types::TemplateId(job % 5)),
        name: format!("hourly rollup {job}"),
        normalized_inputs: vec!["events_{date}".into()],
        params: vec![job as f64 * 0.5],
        day: DayIndex(day),
        recurring: true,
    };
    let plan = PhysicalPlan::new(meta, out);
    let run = Simulator::new(SimulatorConfig::default()).run(&plan);
    JobTelemetry::new(plan, run)
}

fn sample_log(jobs: usize) -> TelemetryLog {
    let mut log = TelemetryLog::new();
    for i in 0..jobs as u64 {
        log.push(sample_job(i, (i / 7) as u32, (i % 3) as u8));
    }
    log
}

/// The always-publish feedback config the watchdog scenarios use: the publish
/// guard's tolerances are opened wide so v1/v2 reliably publish and the
/// watchdog — not the guard — is the component under test.
fn watchdog_fleet_config(watchdog: WatchdogPolicy) -> ShardedFeedbackConfig {
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
        shard_threads: 1,
        watchdog,
        ..ShardedFeedbackConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Pool survivability.
// ---------------------------------------------------------------------------

#[test]
fn worker_panics_requeue_once_then_error_and_pool_recovers() {
    let router = warm_router_with(None);
    // Every task with seq < 4 panics its worker — on the requeued attempt
    // too, because injection keys on the task sequence, not the attempt.
    let plan = FaultPlan {
        worker_panic_rate: 1.0,
        horizon: 4,
        ..FaultPlan::quiet(9)
    };
    let pool = ServingPool::with_faults(shared_over(&router), 1, 2, plan.handle());

    let tickets: Vec<_> = (0..8)
        .map(|i| pool.submit(0, vec![job(100 + i, 0)]))
        .collect();
    let outcomes: Vec<BatchOutcome> = tickets
        .into_iter()
        .map(|t| {
            let batch = t
                .wait_timeout(Duration::from_secs(30))
                .expect("no deadlock");
            assert_eq!(batch.results.len(), 1, "exactly one outcome per job");
            match &batch.results[0] {
                Ok(plan) => BatchOutcome::Ok(plan.plan.meta.id.0),
                Err(CleoError::Unavailable(m)) => BatchOutcome::Unavailable(m.clone()),
                Err(e) => panic!("unexpected error class: {e:?}"),
            }
        })
        .collect();

    // Seqs 0..4 died twice → terminal Unavailable; 4..8 untouched → served.
    for (i, outcome) in outcomes.iter().enumerate() {
        if i < 4 {
            let BatchOutcome::Unavailable(m) = outcome else {
                panic!("task {i} should have error-completed: {outcome:?}");
            };
            assert!(m.contains(&format!("task {i}")), "{m}");
        } else {
            assert_eq!(*outcome, BatchOutcome::Ok(100 + i as u64));
        }
    }
    // Exact fault accounting: 4 tasks × 2 attempts panicked, each requeued
    // exactly once, each error-completed exactly once.  (Tickets complete
    // during the unwind, a moment before the worker's panic counter bumps —
    // so give the counter a beat to settle.)
    wait_until(|| pool.worker_panics() == 8);
    assert_eq!(pool.worker_panics(), 8);
    assert_eq!(pool.requeued_tasks(), 4);
    assert_eq!(pool.worker_error_tasks(), 4);

    // Past the horizon the pool is back to fault-free goodput: every new
    // batch serves, nothing is pending, no further faults fire.
    let tickets: Vec<_> = (0..6)
        .map(|i| pool.submit(0, vec![job(200 + i, 0)]))
        .collect();
    for t in tickets {
        let batch = t.wait_timeout(Duration::from_secs(30)).expect("recovered");
        assert!(batch.results[0].is_ok());
    }
    assert_eq!(pool.total_pending(), 0);
    assert_eq!(pool.worker_panics(), 8, "no panics past the horizon");
}

#[derive(Debug, Clone, PartialEq)]
enum BatchOutcome {
    Ok(u64),
    Unavailable(String),
}

/// Poll until `done` holds (a counter published moments after the observable
/// completion it accounts for) — bounded, so a regression still fails fast.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn ticket_wait_timeout_expires_then_delivers() {
    let router = warm_router_with(None);
    let pool = ServingPool::new(shared_over(&router), 1, 2);
    pool.pause();
    let ticket = pool.submit(0, vec![job(300, 0)]);
    // Paused pool: the wait expires, leaving the ticket intact.
    assert!(ticket.wait_timeout(Duration::from_millis(50)).is_none());
    pool.resume();
    let batch = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("resumed pool completes the ticket");
    assert_eq!(batch.results.len(), 1);
    assert!(batch.results[0].is_ok());
    assert!(
        ticket.try_take().is_none(),
        "results delivered exactly once"
    );
}

// ---------------------------------------------------------------------------
// Front-door deadlines and retries.
// ---------------------------------------------------------------------------

#[test]
fn front_door_deadline_expires_stalled_requests_with_exact_accounting() {
    let router = warm_router_with(None);
    let pool = Arc::new(ServingPool::new(shared_over(&router), 1, 2));
    pool.pause(); // nothing ever executes: every admitted request must expire
    let mut door = FrontDoor::new(
        Arc::clone(&pool),
        FrontDoorConfig {
            coalesce_max: 1,
            deadline: Some(Duration::from_millis(80)),
            ..FrontDoorConfig::default()
        },
    );
    for i in 0..3 {
        door.offer(job(400 + i, 0));
    }
    let report = door.drain_report();
    assert_eq!(report.stats.admitted, 3);
    assert_eq!(report.stats.expired, 3);
    assert_eq!(report.stats.errored, 0);
    assert_eq!(report.stats.retried, 0);
    assert_eq!(
        report.completed.len(),
        3,
        "zero loss: every request resolves"
    );
    for completed in &report.completed {
        assert!(
            matches!(&completed.result, Err(CleoError::Unavailable(m)) if m.contains("deadline")),
            "expired requests resolve Unavailable"
        );
    }
    pool.resume();
}

#[test]
fn front_door_retry_recovers_a_transiently_dead_worker() {
    let router = warm_router_with(None);
    // Only task seq 0 is cursed: it panics its worker on both attempts, so
    // the first submission error-completes.  The front door's retry resubmits
    // the request under a fresh sequence, which succeeds.
    let plan = FaultPlan {
        worker_panic_rate: 1.0,
        horizon: 1,
        ..FaultPlan::quiet(5)
    };
    let pool = Arc::new(ServingPool::with_faults(
        shared_over(&router),
        1,
        2,
        plan.handle(),
    ));
    let mut door = FrontDoor::new(
        Arc::clone(&pool),
        FrontDoorConfig {
            coalesce_max: 1,
            max_retries: 2,
            ..FrontDoorConfig::default()
        },
    );
    door.offer(job(500, 0));
    let report = door.drain_report();
    assert_eq!(report.stats.admitted, 1);
    assert_eq!(
        report.stats.retried, 1,
        "one resubmit after the dead worker"
    );
    assert_eq!(report.stats.errored, 0);
    assert_eq!(report.stats.expired, 0);
    assert_eq!(report.completed.len(), 1);
    assert!(
        report.completed[0].result.is_ok(),
        "retry served the request"
    );
    assert_eq!(pool.worker_error_tasks(), 1);
}

/// One pass of `requests` through a fresh front door over `pool`, checking
/// that every offered request resolves exactly once.  Returns
/// `(ok, retried)`.
fn zero_loss_pass(
    pool: &Arc<ServingPool>,
    requests: &[Arc<JobSpec>],
    config: FrontDoorConfig,
) -> (u64, u64) {
    let mut door = FrontDoor::new(Arc::clone(pool), config);
    for job in requests {
        door.offer(Arc::clone(job));
    }
    let report = door.drain_report();
    let stats = report.stats;
    let ok = report.completed.iter().filter(|c| c.result.is_ok()).count() as u64;
    assert_eq!(stats.offered(), requests.len() as u64);
    assert_eq!(
        report.completed.len() as u64,
        stats.admitted + stats.delayed,
        "every admitted request resolved"
    );
    assert_eq!(
        ok + stats.expired + stats.errored + stats.shed,
        stats.offered(),
        "zero-loss accounting: ok + expired + errored + shed == offered"
    );
    (ok, stats.retried)
}

#[test]
fn chaos_plan_loses_no_request_and_serves_all_past_its_horizon() {
    const REQUESTS: u64 = 60;
    let router = warm_router_with(None);
    // Round-robin over the four clusters; coalesce_max 1 keys the pool's
    // task sequence one to one with requests, and the 10 s deadline bounds
    // stalled tasks without spurious expiries.
    let requests: Vec<Arc<JobSpec>> = (0..REQUESTS).map(|i| job(600 + i, (i % 4) as u8)).collect();
    let config = FrontDoorConfig {
        max_queue_depth: 256,
        coalesce_max: 1,
        deadline: Some(Duration::from_secs(10)),
        max_retries: 2,
        retry_backoff: Duration::from_micros(500),
        ..FrontDoorConfig::default()
    };
    let pool = Arc::new(ServingPool::with_faults(
        shared_over(&router),
        4,
        4,
        FaultPlan::chaos(0xC1E0, REQUESTS).handle(),
    ));

    let (_, retried) = zero_loss_pass(&pool, &requests, config);
    assert!(retried > 0, "the plan's faults force resubmits");
    wait_until(|| pool.worker_panics() > 0);
    assert!(pool.worker_panics() > 0, "the plan panics workers");

    // Every task sequence of the second pass is past the horizon: no fault
    // fires, so nothing is retried, and the same pool serves the whole stream.
    let (ok, retried) = zero_loss_pass(&pool, &requests, config);
    assert_eq!(retried, 0, "no fault fires past the horizon");
    assert_eq!(ok, REQUESTS, "past the horizon every request serves");
}

// ---------------------------------------------------------------------------
// Per-shard circuit breakers.
// ---------------------------------------------------------------------------

#[test]
fn breaker_trips_to_donor_then_recovers_half_open() {
    let policy = BreakerPolicy {
        enabled: true,
        trip_after: 3,
        cooldown: 2,
    };
    let router = warm_router_with(Some(policy));
    let pool = ServingPool::new(shared_over(&router), 4, 1);

    // Three consecutive failures at cluster 0 trip its breaker open.
    let tickets: Vec<_> = (0..3)
        .map(|i| pool.submit(0, vec![failing_job(600 + i, 0)]))
        .collect();
    for t in tickets {
        assert!(t.wait().results[0].is_err());
    }
    assert_eq!(router.breaker_state(ClusterId(0)), Some(BreakerState::Open));
    assert_eq!(
        router.breaker_state(ClusterId(1)),
        Some(BreakerState::Closed)
    );

    // While open, cluster-0 requests keep serving — through a donor shard,
    // not the tripped one.
    let donor_served = pool.submit(0, vec![job(610, 0)]).wait();
    let plan = donor_served.results[0].as_ref().expect("donor serves");
    assert_ne!(
        plan.stats.model_cluster,
        Some(ClusterId(0)),
        "open breaker must route around its own shard"
    );

    // A publish during the trip is safe: the shard's registry is independent
    // of its breaker, and the new version serves once the breaker re-closes.
    router
        .registry()
        .shard(ClusterId(0))
        .unwrap()
        .publish(tiny_predictor(9.0), 2, metrics());

    // Healthy traffic drains the cooldown (2 outcomes — the donor-served job
    // above already counted as one), half-opens, and the successful probe
    // re-closes the breaker.
    assert!(pool.submit(0, vec![job(620, 0)]).wait().results[0].is_ok());
    assert_eq!(
        router.breaker_state(ClusterId(0)),
        Some(BreakerState::HalfOpen)
    );
    assert!(pool.submit(0, vec![job(630, 0)]).wait().results[0].is_ok());
    assert_eq!(
        router.breaker_state(ClusterId(0)),
        Some(BreakerState::Closed)
    );

    // Re-closed: cluster 0 serves its own shard again — at the version
    // published mid-trip.
    let served = pool.submit(0, vec![job(640, 0)]).wait();
    let plan = served.results[0].as_ref().expect("own shard serves");
    assert_eq!(plan.stats.model_cluster, Some(ClusterId(0)));
    assert_eq!(plan.stats.model_version, 2);

    // The full transition history in fold order.
    let states: Vec<BreakerState> = router
        .breaker_transitions()
        .into_iter()
        .map(|t| t.state)
        .collect();
    assert_eq!(
        states,
        vec![
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed
        ]
    );
}

#[test]
fn breaker_transitions_are_identical_for_1_vs_n_workers() {
    let run = |workers: usize| -> Vec<(ClusterId, u64, BreakerState)> {
        let policy = BreakerPolicy {
            enabled: true,
            trip_after: 3,
            cooldown: 2,
        };
        let router = warm_router_with(Some(policy));
        let pool = ServingPool::new(shared_over(&router), 4, workers);
        // Twelve route-independent failures at cluster 0: trip, cool down,
        // half-open, failed probe, trip again… the fold is in submission
        // order no matter which worker reports which batch first.
        let tickets: Vec<_> = (0..12)
            .map(|i| pool.submit(0, vec![failing_job(700 + i, 0)]))
            .collect();
        for t in tickets {
            assert!(t.wait().results[0].is_err());
        }
        router
            .breaker_transitions()
            .into_iter()
            .map(|t| (t.cluster, t.outcome_index, t.state))
            .collect()
    };

    let serial = run(1);
    let parallel = run(4);
    assert!(!serial.is_empty(), "the schedule must trip the breaker");
    assert_eq!(
        serial, parallel,
        "breaker transitions must not depend on worker count"
    );
}

// ---------------------------------------------------------------------------
// Telemetry quarantine.
// ---------------------------------------------------------------------------

#[test]
fn quarantine_set_is_exactly_the_poisoned_records() {
    let log = sample_log(150);
    let text = write_ndjson(&log);
    let bytes = write_binary(&log);
    let plan = FaultPlan {
        poison_record_rate: 0.08,
        ..FaultPlan::quiet(42)
    };
    let policy = QuarantinePolicy {
        error_budget: 0.5,
        ..QuarantinePolicy::default()
    };

    // The oracle: record r (1-based) is refused iff the plan poisons it.
    let poisoned = |r: usize| plan.fires(FaultSite::PoisonRecord, r as u64);
    let expected: Vec<QuarantinedRecord> = (1..=150)
        .filter(|&r| poisoned(r))
        .map(|record| QuarantinedRecord {
            record,
            span: (0, 0),
            msg: "injected fault: poisoned telemetry record".into(),
        })
        .collect();
    assert!(!expected.is_empty(), "the poison schedule must fire");
    assert!(expected.len() <= policy.max_kept);
    let survivors = TelemetryLog::from_jobs(
        log.jobs()
            .iter()
            .enumerate()
            .filter(|(i, _)| !poisoned(i + 1))
            .map(|(_, j)| j.clone())
            .collect(),
    );

    let (nd_kept, nd_q) =
        parse_telemetry_quarantine(text.as_bytes(), WireFormat::Ndjson, 1, &policy, Some(&plan))
            .unwrap();
    assert_eq!(
        nd_q.kept, expected,
        "ndjson quarantines exactly the poisoned"
    );
    assert_eq!(nd_q.total, expected.len());
    assert_eq!(
        nd_kept, survivors,
        "ndjson keeps the offered log minus them"
    );

    let (bin_kept, bin_q) =
        parse_telemetry_quarantine(&bytes, WireFormat::Binary, 1, &policy, Some(&plan)).unwrap();
    assert_eq!(bin_q, nd_q, "CLT1 and NDJSON refuse the same records");
    assert_eq!(bin_kept, survivors);
}

#[test]
fn out_of_order_quarantine_carries_the_strict_parse_error() {
    let mut jobs = sample_log(120).into_jobs();
    jobs[60].plan.meta.day = DayIndex(0);
    let regressed = TelemetryLog::from_jobs(jobs);
    let text = write_ndjson(&regressed);
    let bytes = write_binary(&regressed);
    for (buf, format) in [
        (text.as_bytes(), WireFormat::Ndjson),
        (bytes.as_slice(), WireFormat::Binary),
    ] {
        let Err(CleoError::Parse {
            line,
            start,
            end,
            msg,
        }) = parse_telemetry(buf, format, 1)
        else {
            panic!("{format:?}: strict parse must fail on the regression");
        };
        assert_eq!(line, 61);
        let (kept, quarantine) =
            parse_telemetry_quarantine(buf, format, 1, &QuarantinePolicy::default(), None).unwrap();
        assert_eq!(kept.len(), 119);
        assert_eq!(quarantine.total, 1);
        assert_eq!(
            quarantine.kept[0],
            QuarantinedRecord {
                record: line,
                span: (start, end),
                msg,
            },
            "{format:?}"
        );
    }
}

#[test]
fn quarantine_keeps_healthy_records_where_strict_parse_aborts() {
    let log = sample_log(120);
    let text = write_ndjson(&log);
    let mut corrupted = text.clone().into_bytes();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            corrupted
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    corrupted[line_starts[30]] = b'X';
    corrupted[line_starts[90]] = b'X';

    // Strict path: first error aborts the feed.
    assert!(parse_telemetry(&corrupted, WireFormat::Ndjson, 1).is_err());

    // Resilient path: both bad lines quarantine, 118 healthy records survive.
    let policy = QuarantinePolicy::default();
    let (kept, quarantine) =
        parse_telemetry_quarantine(&corrupted, WireFormat::Ndjson, 1, &policy, None).unwrap();
    assert_eq!(kept.len(), 118);
    assert_eq!(quarantine.total, 2);
    let records: Vec<usize> = quarantine.kept.iter().map(|q| q.record).collect();
    assert_eq!(records, vec![31, 91]);
    assert!(quarantine.kept.iter().all(|q| !q.msg.is_empty()));

    // An out-of-order record quarantines instead of aborting — and only that
    // record is lost.
    let mut jobs = log.into_jobs();
    jobs[60].plan.meta.day = DayIndex(0);
    let regressed = write_ndjson(&TelemetryLog::from_jobs(jobs));
    assert!(parse_telemetry(regressed.as_bytes(), WireFormat::Ndjson, 1).is_err());
    let (kept, quarantine) =
        parse_telemetry_quarantine(regressed.as_bytes(), WireFormat::Ndjson, 1, &policy, None)
            .unwrap();
    assert_eq!(kept.len(), 119);
    assert!(kept.is_day_sorted());
    assert_eq!(quarantine.total, 1);
    assert_eq!(quarantine.kept[0].record, 61);
    assert!(quarantine.kept[0].msg.contains("out-of-order"));
}

#[test]
fn quarantine_error_budget_refuses_a_broken_feed() {
    let log = sample_log(100);
    let text = write_ndjson(&log);
    let plan = FaultPlan {
        poison_record_rate: 0.9,
        ..FaultPlan::quiet(11)
    };
    let err = parse_telemetry_quarantine(
        text.as_bytes(),
        WireFormat::Ndjson,
        1,
        &QuarantinePolicy::default(),
        Some(&plan),
    )
    .unwrap_err();
    assert!(
        matches!(&err, CleoError::Config(m) if m.contains("error budget")),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------------
// Fleet-epoch fault isolation and the publish watchdog.
// ---------------------------------------------------------------------------

fn fleet_over(
    workloads: &[cleo_engine::workload::generator::GeneratedWorkload],
    config: ShardedFeedbackConfig,
) -> ShardedFeedbackLoop {
    use cleo_engine::workload::generator::WorkloadProfile;
    let profiles: Vec<WorkloadProfile> = workloads.iter().map(WorkloadProfile::of).collect();
    let registry = Arc::new(ShardedRegistry::new(workloads.iter().map(|w| w.cluster)));
    let router = Arc::new(ClusterRouter::new(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    ShardedFeedbackLoop::new(config, Simulator::new(SimulatorConfig::default()), router)
}

#[test]
fn fleet_epoch_isolates_panicking_shards_and_recovers() {
    let workloads = generate_all_clusters(1, false);
    let stream: Vec<&JobSpec> = workloads.iter().flat_map(|w| w.jobs.iter()).collect();
    let mut fleet = fleet_over(
        &workloads,
        ShardedFeedbackConfig {
            shard_threads: 2,
            ..ShardedFeedbackConfig::default()
        },
    );
    // Epoch-1 rounds for clusters 0 and 1 panic (indices 256 and 257);
    // clusters 2 and 3 (258, 259) are outside the window and publish.
    fleet.set_fault_plan(
        FaultPlan {
            shard_round_panic_rate: 1.0,
            after: 1 << 8,
            horizon: (1 << 8) + 2,
            ..FaultPlan::quiet(3)
        }
        .handle(),
    );

    let epoch1 = fleet.run_epoch(&stream).unwrap();
    assert_eq!(epoch1.failed.len(), 2, "{:?}", epoch1.failed);
    let mut failed: Vec<u8> = epoch1.failed.iter().map(|f| f.cluster.0).collect();
    failed.sort_unstable();
    assert_eq!(failed, vec![0, 1]);
    for failure in &epoch1.failed {
        assert!(
            matches!(&failure.error, CleoError::Unavailable(m) if m.contains("injected fault")),
            "{failure:?}"
        );
    }
    // The healthy shards' rounds completed and published normally.
    assert_eq!(epoch1.shards.len(), 2);
    assert_eq!(epoch1.published_count(), 2);
    // Failed shards' incumbents are untouched (still cold at v0).
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 0);
    assert_eq!(fleet.registry().shard_version(ClusterId(2)), 1);

    // Epoch 2 is past the horizon: every shard recovers and publishes.
    let epoch2 = fleet.run_epoch(&stream).unwrap();
    assert!(epoch2.failed.is_empty());
    assert_eq!(epoch2.shards.len(), 4);
    assert!(fleet.registry().shard_version(ClusterId(0)) >= 1);
    assert!(fleet.registry().shard_version(ClusterId(1)) >= 1);
}

#[test]
fn fleet_delta_round_isolates_a_corrupt_delta() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 1);
    let stream: Vec<&JobSpec> = workload.jobs.iter().collect();
    let mut fleet = fleet_over(
        std::slice::from_ref(&workload),
        ShardedFeedbackConfig {
            shard_threads: 1,
            ..ShardedFeedbackConfig::default()
        },
    );
    fleet.run_epoch(&stream).unwrap();
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 1);

    // The delta round at epoch 1 for cluster 0 (index 256) is corrupted.
    fleet.set_fault_plan(
        FaultPlan {
            corrupt_delta_rate: 1.0,
            after: 1 << 8,
            horizon: (1 << 8) + 1,
            ..FaultPlan::quiet(3)
        }
        .handle(),
    );
    let round = fleet.run_delta_round(&stream).unwrap();
    assert_eq!(round.failed.len(), 1);
    assert_eq!(round.failed[0].cluster, ClusterId(0));
    assert!(
        matches!(&round.failed[0].error, CleoError::Config(m) if m.contains("corrupted delta")),
        "{:?}",
        round.failed[0]
    );
    assert!(round.shards.is_empty());
    // The incumbent kept serving: the round still ran the full job stream and
    // the registry is exactly where it was.
    assert_eq!(round.jobs_run, stream.len());
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 1);

    // With the schedule exhausted the next delta round completes normally.
    fleet.set_fault_plan(None);
    let recovered = fleet.run_delta_round(&stream).unwrap();
    assert!(recovered.failed.is_empty());
    assert_eq!(recovered.shards.len(), 1);
}

#[test]
fn watchdog_rolls_back_a_regressing_publish_during_an_epoch() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 1);
    let stream: Vec<&JobSpec> = workload.jobs.iter().collect();
    let mut fleet = fleet_over(
        std::slice::from_ref(&workload),
        watchdog_fleet_config(WatchdogPolicy {
            enabled: true,
            max_error_regression_pct: 10.0,
            min_samples: 8,
        }),
    );

    // Epoch 1: cold serve, publish v1.  Epoch 2: serve with v1 (watchdog
    // measures it — the live baseline), publish v2.
    let epoch1 = fleet.run_epoch(&stream).unwrap();
    assert_eq!(epoch1.shards[0].watchdog, WatchdogVerdict::NotChecked);
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 1);
    let epoch2 = fleet.run_epoch(&stream).unwrap();
    assert!(
        matches!(
            epoch2.shards[0].watchdog,
            WatchdogVerdict::Healthy { version: 1, .. }
        ),
        "{:?}",
        epoch2.shards[0].watchdog
    );
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 2);

    // Epoch 3: v2's measured live error is inflated by the fault plan
    // (index = version 2 << 8 | cluster 0 = 512) — the watchdog must roll the
    // shard back to v1 before the round publishes anything new.
    fleet.set_fault_plan(
        FaultPlan {
            regressing_publish_rate: 1.0,
            regression_multiplier: 1e6,
            after: 2 << 8,
            horizon: (2 << 8) + 1,
            ..FaultPlan::quiet(3)
        }
        .handle(),
    );
    let epoch3 = fleet.run_epoch(&stream).unwrap();
    let WatchdogVerdict::RolledBack {
        from_version,
        to_version,
        live_error_pct,
        baseline_error_pct,
    } = epoch3.shards[0].watchdog
    else {
        panic!("expected a rollback: {:?}", epoch3.shards[0].watchdog);
    };
    assert_eq!((from_version, to_version), (2, 1));
    assert!(live_error_pct > baseline_error_pct + 10.0);
}

#[test]
fn watchdog_rolls_back_during_a_delta_publish() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 1);
    let stream: Vec<&JobSpec> = workload.jobs.iter().collect();
    let mut fleet = fleet_over(
        std::slice::from_ref(&workload),
        watchdog_fleet_config(WatchdogPolicy {
            enabled: true,
            max_error_regression_pct: 10.0,
            min_samples: 8,
        }),
    );
    fleet.run_epoch(&stream).unwrap();
    fleet.run_epoch(&stream).unwrap();
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 2);

    // A delta round while v2's live error regresses: the watchdog rolls back
    // to v1 first, and any delta this round publishes applies over v1 — not
    // over the version that was just rolled back.
    fleet.set_fault_plan(
        FaultPlan {
            regressing_publish_rate: 1.0,
            regression_multiplier: 1e6,
            after: 2 << 8,
            horizon: (2 << 8) + 1,
            ..FaultPlan::quiet(3)
        }
        .handle(),
    );
    let round = fleet.run_delta_round(&stream).unwrap();
    assert!(round.failed.is_empty());
    assert!(
        matches!(
            round.shards[0].watchdog,
            WatchdogVerdict::RolledBack {
                from_version: 2,
                to_version: 1,
                ..
            }
        ),
        "{:?}",
        round.shards[0].watchdog
    );
    // Whatever the round decided, the shard is not serving the rolled-back
    // version: either still v1 or a fresh successor published over v1.
    let registry = fleet.registry().shard(ClusterId(0)).unwrap();
    let current = registry.current().unwrap();
    assert_ne!(
        current.version(),
        2,
        "the regressing version must not serve"
    );
    if let Some(base) = current.lineage().delta_base() {
        assert_eq!(base, 1, "a post-rollback delta applies over v1");
    }
}

#[test]
fn a_failed_epoch_round_keeps_its_watchdog_rollback() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 1);
    let stream: Vec<&JobSpec> = workload.jobs.iter().collect();
    let mut fleet = fleet_over(
        std::slice::from_ref(&workload),
        watchdog_fleet_config(WatchdogPolicy {
            enabled: true,
            max_error_regression_pct: 10.0,
            min_samples: 8,
        }),
    );
    fleet.run_epoch(&stream).unwrap();
    fleet.run_epoch(&stream).unwrap();
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 2);

    // Epoch 3: v2's live error regresses (index 2 << 8 | cluster 0) and the
    // round then panics (index 3 << 8 | cluster 0).  The watchdog runs first,
    // so the shard is rolled back to v1 although its round fails and no
    // report carries the verdict.
    fleet.set_fault_plan(
        FaultPlan {
            regressing_publish_rate: 1.0,
            regression_multiplier: 1e6,
            shard_round_panic_rate: 1.0,
            after: 2 << 8,
            horizon: (3 << 8) + 1,
            ..FaultPlan::quiet(3)
        }
        .handle(),
    );
    let epoch3 = fleet.run_epoch(&stream).unwrap();
    assert_eq!(epoch3.failed.len(), 1, "{:?}", epoch3.failed);
    assert_eq!(epoch3.failed[0].cluster, ClusterId(0));
    assert!(epoch3.shards.is_empty());
    assert_eq!(fleet.registry().shard_version(ClusterId(0)), 1);
}

// ---------------------------------------------------------------------------
// Cross-layer: quarantine firing *during* a fleet epoch.
// ---------------------------------------------------------------------------

#[test]
fn quarantine_during_a_fleet_epoch_is_thread_invariant() {
    // Cross-layer determinism: a poisoned firehose is quarantine-parsed and
    // observed into the fleet's shard windows, and then a full training epoch
    // runs over the mixture of quarantine-surviving telemetry and
    // epoch-served jobs.  The final fleet state — quarantine set, ingest
    // accounting, per-shard versions, and served prediction bits — must be
    // identical for every shard thread count, and identical to a fleet fed
    // the pre-cleaned log through the plain observe path.
    let workloads = generate_all_clusters(1, false);
    let stream: Vec<&JobSpec> = workloads.iter().flat_map(|w| w.jobs.iter()).collect();
    let log = sample_log(150);
    let bytes = write_binary(&log);
    let plan = FaultPlan {
        poison_record_rate: 0.08,
        ..FaultPlan::quiet(42)
    };
    let policy = QuarantinePolicy {
        error_budget: 0.5,
        ..QuarantinePolicy::default()
    };
    // Publish-guard tolerances opened wide so every shard reliably publishes
    // and the cross-layer state comparison is over four fresh versions.
    let fleet_config = |shard_threads: usize| ShardedFeedbackConfig {
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
        shard_threads,
        ..ShardedFeedbackConfig::default()
    };

    let state_of = |fleet: &ShardedFeedbackLoop| -> (Vec<u64>, Vec<u64>) {
        let mut versions = Vec::new();
        let mut bits = Vec::new();
        for c in 0u8..4 {
            let cluster = ClusterId(c);
            versions.push(fleet.registry().shard_version(cluster));
            let snapshot = fleet.registry().shard(cluster).unwrap().current().unwrap();
            let probes = CleoTrainer::collect_samples(fleet.window(cluster).unwrap());
            assert!(!probes.is_empty());
            for s in &probes {
                let p = snapshot
                    .predictor()
                    .predict_from_parts(&s.signatures, &s.features);
                bits.push(p.combined.to_bits());
            }
        }
        (versions, bits)
    };

    type FleetState = (
        Vec<(usize, String)>,
        (usize, usize, usize),
        Vec<u64>,
        Vec<u64>,
    );
    let run = |shard_threads: usize| -> FleetState {
        let mut fleet = fleet_over(&workloads, fleet_config(shard_threads));
        let obs = fleet.router().obs().cloned();
        let (kept, quarantine) = parse_telemetry_quarantine_obs(
            &bytes,
            WireFormat::Binary,
            &policy,
            Some(&plan),
            obs.as_deref(),
        )
        .unwrap();
        assert!(
            quarantine.total > 0,
            "the poison schedule must fire mid-feed"
        );
        let parsed_jobs = kept.len();
        assert_eq!(parsed_jobs + quarantine.total, 150);
        let observed = fleet.observe(kept).unwrap();
        assert_eq!(observed.unrouted_jobs, 0, "all sample clusters have shards");
        let epoch = fleet.run_epoch(&stream).unwrap();
        assert!(epoch.failed.is_empty(), "{:?}", epoch.failed);
        assert_eq!(epoch.published_count(), 4);
        let q = quarantine
            .kept
            .iter()
            .map(|r| (r.record, r.msg.clone()))
            .collect();
        let (versions, bits) = state_of(&fleet);
        (
            q,
            (parsed_jobs, observed.accepted_jobs, observed.evicted_jobs),
            versions,
            bits,
        )
    };

    let baseline = run(1);
    for shard_threads in [2, 4] {
        assert_eq!(run(shard_threads), baseline, "shards x{shard_threads}");
    }

    // Equivalence with the pre-cleaned path: drop the poisoned records from
    // the offered log by hand, observe it, run the same epoch — identical
    // end state.
    let cleaned = TelemetryLog::from_jobs(
        log.jobs()
            .iter()
            .enumerate()
            .filter(|(i, _)| !plan.fires(FaultSite::PoisonRecord, *i as u64 + 1))
            .map(|(_, j)| j.clone())
            .collect(),
    );
    assert_eq!(cleaned.len(), baseline.1 .0);
    let mut fleet = fleet_over(&workloads, fleet_config(2));
    let observed = fleet.observe(cleaned).unwrap();
    assert_eq!(observed.accepted_jobs, baseline.1 .1);
    let epoch = fleet.run_epoch(&stream).unwrap();
    assert!(epoch.failed.is_empty());
    assert_eq!(state_of(&fleet), (baseline.2.clone(), baseline.3.clone()));
}

// ---------------------------------------------------------------------------
// No-fault bit-identity: a quiet plan is exactly the production path.
// ---------------------------------------------------------------------------

#[test]
fn quiet_plan_is_bit_identical_to_no_plan() {
    let router = warm_router_with(None);
    let jobs: Vec<Arc<JobSpec>> = (0..24).map(|i| job(900 + i, (i % 4) as u8)).collect();

    let run = |faults: Option<Arc<FaultPlan>>| -> Vec<(u64, u64, u64)> {
        let pool = ServingPool::with_faults(shared_over(&router), 4, 3, faults);
        let tickets: Vec<_> = jobs
            .chunks(6)
            .enumerate()
            .map(|(i, chunk)| pool.submit(i, chunk.to_vec()))
            .collect();
        let results: Vec<(u64, u64, u64)> = tickets
            .into_iter()
            .flat_map(|t| t.wait().results)
            .map(|r| {
                let plan = r.unwrap();
                (
                    plan.plan.meta.id.0,
                    plan.estimated_cost.to_bits(),
                    plan.stats.model_version,
                )
            })
            .collect();
        assert_eq!(pool.worker_panics(), 0);
        assert_eq!(pool.requeued_tasks(), 0);
        assert_eq!(pool.worker_error_tasks(), 0);
        assert_eq!(pool.respawned_workers(), 0);
        results
    };
    assert_eq!(run(None), run(FaultPlan::quiet(77).handle()));

    // The resilient parse under no plan / a quiet plan keeps exactly what the
    // strict parser returns, with an empty quarantine.
    let log = sample_log(90);
    let text = write_ndjson(&log);
    let strict = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 1).unwrap();
    let policy = QuarantinePolicy::default();
    for faults in [None, Some(FaultPlan::quiet(77))] {
        let (kept, quarantine) = parse_telemetry_quarantine(
            text.as_bytes(),
            WireFormat::Ndjson,
            1,
            &policy,
            faults.as_ref(),
        )
        .unwrap();
        assert_eq!(kept, strict);
        assert!(quarantine.is_empty());
    }

    // A fleet epoch under a quiet plan matches one under no plan, shard for
    // shard (wall-clock fields excluded).
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 1);
    let stream: Vec<&JobSpec> = workload.jobs.iter().collect();
    let run_fleet = |faults: Option<Arc<FaultPlan>>| {
        let mut fleet = fleet_over(
            std::slice::from_ref(&workload),
            ShardedFeedbackConfig {
                shard_threads: 1,
                ..ShardedFeedbackConfig::default()
            },
        );
        fleet.set_fault_plan(faults);
        let report = fleet.run_epoch(&stream).unwrap();
        assert!(report.failed.is_empty());
        let shard = report.shards[0];
        (
            shard.cluster,
            shard.ingested_jobs,
            shard.window_jobs,
            shard.evicted_jobs,
            shard.served_version,
            shard.watchdog,
        )
    };
    assert_eq!(run_fleet(None), run_fleet(FaultPlan::quiet(77).handle()));
}
