//! Integration tests of the multicore serving path: worker-pool determinism
//! (1 vs N workers bit-identical), coalesced-batch bit-identity vs per-job
//! serving, exact admission/shed accounting under over-capacity bursts, the
//! front door's hold-only-behind-a-full-batch rule, and cross-shard work
//! stealing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_core::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
use cleo_core::registry::HoldoutMetrics;
use cleo_core::serving::{serve_batch, Admission, FrontDoor, FrontDoorConfig, OverloadPolicy};
use cleo_core::sharding::{ClusterRouter, ServingPool, ShardedRegistry};
use cleo_core::signature::ModelFamily;
use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
use cleo_engine::logical::LogicalNode;
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{
    CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer, SnapshotCache,
};

fn tiny_predictor(scale: f64) -> CleoPredictor {
    let meta = JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "serving".into(),
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

fn job(id: u64, cluster: u8) -> Arc<JobSpec> {
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
    Arc::new(JobSpec {
        meta: JobMeta {
            id: JobId(id),
            cluster: ClusterId(cluster),
            template: None,
            name: format!("serving_test_{id}_c{cluster}"),
            normalized_inputs: vec!["facts".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        },
        plan,
        catalog,
    })
}

/// A four-shard router with every shard warm at v1 (stable registry state, so
/// every serving path is a pure function of the jobs).
fn warm_router() -> Arc<ClusterRouter> {
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    let router = Arc::new(ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
    ));
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

#[test]
fn coalesced_batches_are_bit_identical_to_per_job_serving() {
    let router = warm_router();
    let shared = shared_over(&router);
    let jobs: Vec<Arc<JobSpec>> = (0..16).map(|i| job(400 + i, (i % 4) as u8)).collect();

    // Reference: each job optimized alone through the plain serving path.
    let reference: Vec<_> = jobs.iter().map(|j| shared.optimize(j).unwrap()).collect();

    // Coalesced: the whole stream as one batch, spanning all four shards'
    // model snapshots.
    let mut cache = SnapshotCache::new();
    let coalesced = serve_batch(&shared, &jobs, &mut cache);
    assert_eq!(coalesced.len(), reference.len());
    for (c, r) in coalesced.iter().zip(&reference) {
        let c = c.as_ref().unwrap();
        assert_eq!(c.plan.meta.id, r.plan.meta.id);
        assert_eq!(
            c.estimated_cost.to_bits(),
            r.estimated_cost.to_bits(),
            "job {:?}",
            r.plan.meta.id
        );
        assert_eq!(c.stats.model_version, r.stats.model_version);
        assert_eq!(c.stats.model_cluster, r.stats.model_cluster);
        assert_eq!(c.stats.model_invocations, r.stats.model_invocations);
        assert_eq!(c.plan.op_count(), r.plan.op_count());
    }

    // Routing counters stayed exact across the cached/coalesced path: every
    // job was counted exactly once, all against their own warm shards.
    let stats = router.routing_stats();
    assert_eq!(stats.total(), 2 * jobs.len() as u64);
    assert_eq!(stats.own_hits, stats.total());
}

#[test]
fn pool_results_are_bit_identical_for_1_vs_n_workers() {
    let router = warm_router();
    let jobs: Vec<Arc<JobSpec>> = (0..24).map(|i| job(500 + i, (i % 4) as u8)).collect();

    let run = |workers: usize| -> Vec<(u64, u64, u64)> {
        let pool = ServingPool::new(shared_over(&router), 4, workers);
        // One batch per shard-aligned group of 6 jobs.
        let tickets: Vec<_> = jobs
            .chunks(6)
            .enumerate()
            .map(|(i, chunk)| pool.submit(i, chunk.to_vec()))
            .collect();
        tickets
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
            .collect()
    };

    let one = run(1);
    let four = run(4);
    assert_eq!(one.len(), 24);
    assert_eq!(one, four, "results must not depend on worker count");
}

#[test]
fn work_stealing_drains_a_single_hot_shard() {
    let router = warm_router();
    let pool = ServingPool::new(shared_over(&router), 4, 4);
    // Every batch lands on shard 0; workers 1–3 have empty home queues and
    // must steal to make progress.
    let tickets: Vec<_> = (0..12)
        .map(|i| pool.submit(0, vec![job(600 + i, 0)]))
        .collect();
    for t in tickets {
        let batch = t.wait();
        assert_eq!(batch.results.len(), 1);
        assert!(batch.results[0].as_ref().unwrap().estimated_cost > 0.0);
    }
    assert_eq!(pool.total_pending(), 0);
}

#[test]
fn over_capacity_burst_sheds_exactly_per_config() {
    let router = warm_router();
    let pool = Arc::new(ServingPool::new(shared_over(&router), 4, 2));
    // Freeze the workers: queue depths grow deterministically during the
    // burst, so the shed count is exact, not schedule-dependent.
    pool.pause();
    let mut door = FrontDoor::new(
        Arc::clone(&pool),
        FrontDoorConfig {
            max_queue_depth: 4,
            policy: OverloadPolicy::Shed,
            coalesce_max: 1,
            ..FrontDoorConfig::default()
        },
    );

    // A burst of 10 requests at one shard: depths 0..3 admit, 4+ shed.
    let verdicts: Vec<Admission> = (0..10).map(|i| door.offer(job(700 + i, 0))).collect();
    assert_eq!(
        verdicts
            .iter()
            .filter(|v| **v == Admission::Admitted)
            .count(),
        4
    );
    assert_eq!(
        verdicts.iter().filter(|v| **v == Admission::Shed).count(),
        6
    );
    assert_eq!(verdicts[4..], vec![Admission::Shed; 6][..]);
    let stats = door.stats();
    assert_eq!((stats.admitted, stats.delayed, stats.shed), (4, 0, 6));
    assert_eq!(stats.offered(), 10);
    assert!((stats.shed_rate() - 0.6).abs() < 1e-12);
    // Requests on other shards are unaffected by shard 0's backlog.
    assert_eq!(door.offer(job(750, 1)), Admission::Admitted);

    // Unfreeze: exactly the admitted requests complete.
    pool.resume();
    let completed = door.drain();
    assert_eq!(completed.len(), 5);
    for c in &completed {
        assert!(c.result.as_ref().unwrap().estimated_cost > 0.0);
    }
    // Request seqs 0..3 (admitted burst) and 10 (other shard); 4..9 were shed.
    let seqs: Vec<usize> = completed.iter().map(|c| c.request).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3, 10]);
}

#[test]
fn delay_policy_queues_past_depth_and_serves_everything() {
    let router = warm_router();
    let pool = Arc::new(ServingPool::new(shared_over(&router), 4, 2));
    pool.pause();
    let mut door = FrontDoor::new(
        Arc::clone(&pool),
        FrontDoorConfig {
            max_queue_depth: 4,
            policy: OverloadPolicy::Delay,
            coalesce_max: 1,
            ..FrontDoorConfig::default()
        },
    );
    let verdicts: Vec<Admission> = (0..10).map(|i| door.offer(job(800 + i, 0))).collect();
    assert_eq!(
        verdicts
            .iter()
            .filter(|v| **v == Admission::Admitted)
            .count(),
        4
    );
    assert_eq!(
        verdicts
            .iter()
            .filter(|v| **v == Admission::Delayed)
            .count(),
        6
    );
    let stats = door.stats();
    assert_eq!((stats.admitted, stats.delayed, stats.shed), (4, 6, 0));
    assert_eq!(stats.shed_rate(), 0.0);
    assert_eq!(door.outstanding(), 10);

    pool.resume();
    let completed = door.drain();
    assert_eq!(completed.len(), 10, "delay never drops a request");
    let seqs: Vec<usize> = completed.iter().map(|c| c.request).collect();
    assert_eq!(seqs, (0..10).collect::<Vec<_>>());
}

#[test]
fn front_door_coalesces_same_shard_requests_into_batches() {
    let router = warm_router();
    let jobs: Vec<Arc<JobSpec>> = (0..8).map(|i| job(900 + i, 0)).collect();

    // Reference: per-job serving.
    let shared = shared_over(&router);
    let reference: Vec<u64> = jobs
        .iter()
        .map(|j| shared.optimize(j).unwrap().estimated_cost.to_bits())
        .collect();

    let pool = Arc::new(ServingPool::new(shared_over(&router), 4, 2));
    // Paused: the backlog only grows, so batch formation is a pure function
    // of the offer order.
    pool.pause();
    let mut door = FrontDoor::new(
        Arc::clone(&pool),
        FrontDoorConfig {
            max_queue_depth: 64,
            policy: OverloadPolicy::Shed,
            coalesce_max: 4,
            ..FrontDoorConfig::default()
        },
    );
    // The first four go to the pool one by one (fewer than a full batch is
    // queued ahead of each); the next three are held behind the full batch,
    // and the eighth fills theirs: batches of 1,1,1,1,4.
    let queued_after_each: Vec<usize> = jobs
        .iter()
        .map(|j| {
            door.offer(Arc::clone(j));
            pool.pending_jobs(0)
        })
        .collect();
    assert_eq!(queued_after_each, vec![1, 2, 3, 4, 4, 4, 4, 8]);
    assert_eq!(door.stats().batches, 5);
    pool.resume();
    let completed = door.drain();
    assert_eq!(completed.len(), 8);
    for (c, expected) in completed.iter().zip(&reference) {
        assert_eq!(
            c.result.as_ref().unwrap().estimated_cost.to_bits(),
            *expected,
            "coalesced request {} diverged from per-job serving",
            c.request
        );
    }
}

#[test]
fn offers_up_to_the_cap_are_never_held() {
    let router = warm_router();
    let pool = Arc::new(ServingPool::new(shared_over(&router), 4, 1));
    let cap = FrontDoorConfig::default().coalesce_max;
    // Running pool, default config.  Ahead of the n-th same-shard offer at
    // most n-1 jobs can be queued, which is short of a full batch whatever
    // the worker has or has not claimed: every request is its own batch.
    for n in 1..=cap {
        let mut door = FrontDoor::new(Arc::clone(&pool), FrontDoorConfig::default());
        for i in 0..n {
            door.offer(job(1000 + i as u64, 0));
        }
        assert_eq!(door.stats().batches, n as u64, "{n} offers");
        assert_eq!(door.drain().len(), n);
    }
}

#[test]
fn an_offer_releases_other_shards_stranded_requests() {
    let router = warm_router();
    let pool = Arc::new(ServingPool::new(shared_over(&router), 4, 2));
    let mut door = FrontDoor::new(Arc::clone(&pool), FrontDoorConfig::default());
    let cap = FrontDoorConfig::default().coalesce_max;

    // A full batch queues on shard 0 one by one; two more are held behind it.
    pool.pause();
    for i in 0..cap + 2 {
        door.offer(job(1100 + i as u64, 0));
    }
    assert_eq!(door.stats().batches, cap as u64);
    assert_eq!(pool.pending_jobs(0), cap);

    // The backlog drains, but no shard-0 request arrives to carry the two out.
    pool.resume();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.total_pending() > 0 {
        assert!(Instant::now() < deadline, "pool never drained");
        std::thread::yield_now();
    }
    let before = door.stats().batches;
    door.offer(job(1150, 1));
    assert_eq!(
        door.stats().batches,
        before + 2,
        "the shard-1 request's own batch plus shard 0's two stranded requests"
    );
    assert_eq!(door.drain().len(), cap + 3);
}

#[test]
fn completed_requests_carry_when_their_batch_was_submitted() {
    let router = warm_router();
    let pool = Arc::new(ServingPool::new(shared_over(&router), 4, 1));
    pool.pause();
    let mut door = FrontDoor::new(
        Arc::clone(&pool),
        FrontDoorConfig {
            coalesce_max: 2,
            ..FrontDoorConfig::default()
        },
    );
    // Batches under the paused pool: [0] [1] [2,3] and [4], which only the
    // drain releases.
    let offered_at: Vec<Instant> = (0..5)
        .map(|i| {
            let now = Instant::now();
            door.offer(job(1200 + i, 0));
            now
        })
        .collect();
    assert_eq!(door.stats().batches, 3);
    let drain_at = Instant::now();
    pool.resume();
    let completed = door.drain();
    assert_eq!(completed.len(), 5);
    for (c, offered) in completed.iter().zip(&offered_at) {
        assert!(c.result.is_ok());
        assert!(*offered <= c.submitted_at, "request {}", c.request);
        assert!(c.submitted_at <= c.completed_at, "request {}", c.request);
    }
    // 0 and 1 left inside their own offers; 2 waited for 3; 4 for the drain.
    assert!(completed[0].submitted_at <= offered_at[1]);
    assert!(completed[1].submitted_at <= offered_at[2]);
    assert_eq!(completed[2].submitted_at, completed[3].submitted_at);
    assert!(completed[2].submitted_at >= offered_at[3]);
    assert!(completed[3].submitted_at <= offered_at[4]);
    assert!(completed[4].submitted_at >= drain_at);
}
