//! Proof that the steady-state candidate sweep is allocation-free.
//!
//! A counting global allocator wraps `System`; after a warm-up sweep has grown
//! the scratch buffers to their steady-state capacity, further sweeps through
//! [`PredictScratch`] must perform **zero** heap allocations — the acceptance
//! bar of the flat-matrix inference refactor.
//!
//! The same harness proves the observability seams: route resolution with no
//! [`Obs`] handle attached (the production default) stays allocation-free,
//! and with a handle attached the steady-state record path — striped counter
//! adds, gauge stores, histogram bins, trace pushes into preallocated stripe
//! capacity — never touches the allocator either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cleo_core::models::PredictScratch;
use cleo_core::{pipeline, signature_set, LearnedCostModel, TrainerConfig};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
use cleo_engine::ClusterId;
use cleo_optimizer::{CostModel, HeuristicCostModel, OptimizerConfig};

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread.  `cargo test` runs the tests of this
    /// file on parallel threads, and each proof is about the thread that
    /// measures; a process-wide count would charge one test with another's
    /// set-up.  Const-initialised and without a destructor, so the allocator
    /// can touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: an allocation made while a thread's locals are being torn
    // down is not one any test measures.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_candidate_sweep_allocates_nothing() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let predictor = Arc::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    let candidates: Vec<usize> = (0..64).map(|i| 1 + 4 * i).collect();
    let mut scratch = PredictScratch::new();
    let plans: Vec<_> = log.jobs().iter().take(10).collect();

    // Warm-up: grows every scratch buffer to steady-state capacity.
    let mut warm = 0.0;
    for job in &plans {
        for node in job.plan.operators() {
            let b =
                predictor.predict_candidates_with(node, &candidates, &job.plan.meta, &mut scratch);
            warm += b.iter().map(|x| x.combined).sum::<f64>();
        }
    }
    assert!(warm.is_finite());

    // Steady state: re-sweep every operator; the scratch is reused across all
    // candidates and all sweeps, so the allocator must not be touched.
    let nodes: Vec<_> = plans
        .iter()
        .flat_map(|job| {
            job.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &job.plan.meta))
        })
        .collect();
    let mut total_candidates = 0usize;
    let before = allocations();
    let mut acc = 0.0;
    for &(node, meta) in &nodes {
        let breakdowns = predictor.predict_candidates_with(node, &candidates, meta, &mut scratch);
        acc += breakdowns.iter().map(|b| b.combined).sum::<f64>();
        total_candidates += breakdowns.len();
    }
    let after = allocations();
    assert!(acc.is_finite());
    assert!(
        total_candidates > 1000,
        "swept {total_candidates} candidates"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state sweeps must not allocate (got {} allocations over {} candidates)",
        after - before,
        total_candidates
    );
}

/// The lane-blocked SIMD sweep stays allocation-free for ragged candidate
/// counts: 67 candidates is 8 full 8-row lane blocks plus a 3-row scalar
/// remainder, so both the vector arm and the tail arm run in the timed region.
/// The warm-up grows the lane-major transposed scratch to its high-water mark;
/// after that, neither arm may touch the allocator.
#[test]
fn ragged_simd_sweep_allocates_nothing() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(30).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let predictor = Arc::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    // Descending ragged sizes: the biggest first so the warm-up reaches the
    // high-water mark, then smaller sweeps reuse (never regrow) the scratch.
    let sizes = [67usize, 64, 9, 8, 7, 1];
    let candidate_sets: Vec<Vec<usize>> = sizes
        .iter()
        .map(|&n| (0..n).map(|i| 1 + 3 * i).collect())
        .collect();
    let mut scratch = PredictScratch::new();
    let plans: Vec<_> = log.jobs().iter().take(8).collect();

    let mut warm = 0.0;
    for job in &plans {
        for node in job.plan.operators() {
            let b = predictor.predict_candidates_with(
                node,
                &candidate_sets[0],
                &job.plan.meta,
                &mut scratch,
            );
            warm += b.iter().map(|x| x.combined).sum::<f64>();
        }
    }
    assert!(warm.is_finite());

    // Pre-collect the (node, meta) pairs: `operators()` materialises a Vec,
    // which must stay outside the timed region.
    let nodes: Vec<_> = plans
        .iter()
        .flat_map(|job| {
            job.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &job.plan.meta))
        })
        .collect();
    let before = allocations();
    let mut acc = 0.0;
    let mut total_candidates = 0usize;
    for candidates in &candidate_sets {
        for &(node, meta) in &nodes {
            let b = predictor.predict_candidates_with(node, candidates, meta, &mut scratch);
            acc += b.iter().map(|x| x.combined).sum::<f64>();
            total_candidates += b.len();
        }
    }
    let after = allocations();
    assert!(acc.is_finite());
    assert!(
        total_candidates > 500,
        "swept {total_candidates} candidates"
    );
    assert_eq!(
        after - before,
        0,
        "ragged SIMD sweeps must not allocate (got {} allocations over {} candidates)",
        after - before,
        total_candidates
    );
}

/// The steady-state ingest validation loop is allocation-free: a firehose
/// receiver re-scanning arriving NDJSON buffers ([`scan_ndjson`]) must never
/// touch the allocator — the scan validates structure, UTF-8, field order, and
/// day monotonicity through borrowed byte slices only.
#[test]
fn steady_state_ndjson_scan_allocates_nothing() {
    use cleo_engine::telemetry_io::{scan_ndjson, write_ndjson};

    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let text = write_ndjson(&log);
    let buf = text.as_bytes();

    // Warm-up (also pins the expected totals the timed loop must reproduce).
    let expected = scan_ndjson(buf).expect("scan");
    assert_eq!(expected.jobs, log.len());

    let before = allocations();
    let mut jobs_seen = 0usize;
    let mut operators_seen = 0usize;
    for _ in 0..50 {
        let summary = scan_ndjson(buf).expect("scan");
        jobs_seen += summary.jobs;
        operators_seen += summary.operators;
    }
    let after = allocations();
    assert_eq!(jobs_seen, expected.jobs * 50);
    assert_eq!(operators_seen, expected.operators * 50);
    assert_eq!(
        after - before,
        0,
        "the NDJSON validation scan must not allocate (got {} allocations over 50 scans)",
        after - before
    );
}

/// Route resolution with the obs seam *disabled* (`with_obs(None)`, the
/// production default) allocates nothing in steady state: the seam is one
/// `Option` branch, the routing counters are preallocated stripes, and the
/// served-model snapshot is Arc clones all the way down.
#[test]
fn disabled_obs_route_resolution_allocates_nothing() {
    use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
    use cleo_core::HoldoutMetrics;
    use cleo_optimizer::CostModelProvider;

    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(30).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let predictor = Arc::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    let registry = Arc::new(ShardedRegistry::new((0u8..2).map(ClusterId)));
    for c in 0u8..2 {
        registry.shard(ClusterId(c)).unwrap().publish(
            Arc::clone(&predictor),
            1,
            HoldoutMetrics {
                correlation: 0.9,
                median_error_pct: 10.0,
                sample_count: 24,
            },
        );
    }
    let router = ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
    )
    .with_obs(None);

    let meta = &workload.jobs[0].meta;
    // Warm-up: registers this thread's counter stripe.
    let warm = router.snapshot_for(meta);
    assert_eq!(warm.version, 1);

    let before = allocations();
    let mut versions = 0u64;
    for _ in 0..2000 {
        versions += router.snapshot_for(meta).version;
    }
    let after = allocations();
    assert_eq!(versions, 2000);
    assert_eq!(
        after - before,
        0,
        "disabled-obs route resolution must not allocate (got {} allocations)",
        after - before
    );
}

/// With an [`Obs`] handle attached, the steady-state *record* path is also
/// allocation-free: counter adds and gauge stores are atomics, histogram
/// recording is a bin increment, and trace events push into each stripe's
/// preallocated capacity.  (Name lookups and snapshots allocate — they are
/// drain-time operations, not hot-path ones.)
#[test]
fn steady_state_obs_recording_allocates_nothing() {
    use cleo_common::obs::{AdmissionKind, Obs, TraceEvent};

    let obs = Obs::new();
    let counter = obs.metrics().counter("hot.counter");
    let gauge = obs.metrics().gauge("hot.gauge");
    let histogram = obs.metrics().histogram("hot.histogram");

    // Warm-up: registers this thread's stripe in the counter and the trace.
    counter.add(1);
    histogram.record_nanos(500);
    obs.emit(TraceEvent::Admission {
        seq: 0,
        shard: 0,
        verdict: AdmissionKind::Admitted,
    });

    let before = allocations();
    for i in 0..4000u64 {
        counter.add(1);
        gauge.set_max(i);
        histogram.record_nanos(1_000 + i * 37);
        obs.emit(TraceEvent::Admission {
            seq: i + 1,
            shard: (i % 4) as u16,
            verdict: AdmissionKind::Admitted,
        });
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state metric/trace recording must not allocate (got {} allocations)",
        after - before
    );
    assert_eq!(counter.sum(), 4001);
    assert_eq!(gauge.get(), 3999);
    assert_eq!(histogram.count(), 4001);
    assert_eq!(obs.trace().len(), 4001);
    assert_eq!(obs.trace().dropped(), 0);
}

/// A prediction-cache hit allocates nothing: with every operator of the plans
/// costed once, costing them all again — across jobs, so the remembered job
/// changes at every plan boundary — finds the job, hashes four signatures from
/// what each node cached, mixes the key and reads one `f64` out of the map.
#[test]
fn warm_cache_hits_allocate_nothing() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let heuristic = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log =
        pipeline::run_jobs(&jobs, &heuristic, OptimizerConfig::default(), &simulator).unwrap();
    let model =
        LearnedCostModel::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    let nodes: Vec<_> = log
        .jobs()
        .iter()
        .take(10)
        .flat_map(|job| {
            job.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &job.plan.meta))
        })
        .collect();
    let cost_all = || -> f64 {
        nodes
            .iter()
            .map(|&(node, meta)| model.exclusive_cost(node, node.partition_count, meta))
            .sum()
    };

    let cold = cost_all();
    let warmed = model.cache_stats();
    let before = allocations();
    let warm = cost_all();
    let after = allocations();
    assert_eq!(warm.to_bits(), cold.to_bits());
    let stats = model.cache_stats();
    assert_eq!(
        (stats.hits - warmed.hits, stats.misses),
        (nodes.len(), warmed.misses),
        "every call of the second pass is a hit"
    );
    assert!(nodes.len() > 40, "costed {} operators", nodes.len());
    assert_eq!(
        after - before,
        0,
        "cache hits must not allocate (got {} allocations over {} hits)",
        after - before,
        nodes.len()
    );
}

/// Enumeration builds every candidate parent fresh over children that are
/// already signed, then asks for its signatures.  Beyond building the node,
/// that costs no allocation: the logical-operator counts were summed from the
/// children at construction and their hashes are built on the stack.
#[test]
fn signatures_of_a_fresh_parent_allocate_nothing() {
    use cleo_engine::physical::JobMeta;
    use cleo_engine::types::{DayIndex, JobId};

    let meta = JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "fresh".into(),
        normalized_inputs: vec!["clicks_{date}".into(), "users".into()],
        params: vec![1.0, 2.0],
        day: DayIndex(0),
        recurring: true,
    };
    let scan = |table: &str| PhysicalNode::new(PhysicalOpKind::Extract, table, vec![]);
    let filter = PhysicalNode::new(PhysicalOpKind::Filter, "ts>0", vec![scan("clicks")]);
    let join = PhysicalNode::new(
        PhysicalOpKind::HashJoin,
        "user",
        vec![filter, scan("users")],
    );
    let child = Arc::new(PhysicalNode::new(
        PhysicalOpKind::LocalAggregate,
        "region",
        vec![join],
    ));
    let mut folded = signature_set(&child, &meta).op_subgraph_approx;

    let mut allocated = 0;
    for &kind in PhysicalOpKind::all() {
        let parent = PhysicalNode::new_shared(kind, "region", vec![Arc::clone(&child)]);
        let before = allocations();
        let signatures = signature_set(&parent, &meta);
        allocated += allocations() - before;
        folded ^= signatures.op_subgraph ^ signatures.op_subgraph_approx;
    }
    assert_ne!(folded, 0);
    assert_eq!(
        allocated, 0,
        "signing a fresh parent over signed children must not allocate"
    );
}

/// Operators of the first ten plans of the fixture's telemetry, grouped per
/// plan: each group is one multi-sweep cost call of one-candidate sweeps,
/// the shape of an enumeration level or a final cost fold.
fn plan_levels(
    log: &cleo_engine::telemetry::TelemetryLog,
) -> Vec<Vec<cleo_optimizer::SweepSpec<'_>>> {
    log.jobs()
        .iter()
        .take(10)
        .map(|job| {
            job.plan
                .operators()
                .into_iter()
                .map(|node| cleo_optimizer::SweepSpec::at_own_count(node, &job.plan.meta))
                .collect()
        })
        .collect()
}

/// The multi-sweep entry point allocates nothing in steady state: neither on
/// a level whose sweeps all hit the cache, nor — once a first pass has grown
/// the scratch buffers and the cache's maps — on a level whose sweeps all
/// miss and go through one predictor pass.
#[test]
fn multi_sweep_cost_calls_allocate_nothing_warm_or_cold() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let heuristic = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log =
        pipeline::run_jobs(&jobs, &heuristic, OptimizerConfig::default(), &simulator).unwrap();
    let model =
        LearnedCostModel::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());
    let levels = plan_levels(&log);
    let mut out: Vec<f64> = Vec::with_capacity(1024);
    let mut cost_all = || -> f64 {
        let mut total = 0.0;
        for level in &levels {
            out.clear();
            model.exclusive_cost_sweeps_into(level, &mut out);
            total += out.iter().sum::<f64>();
        }
        total
    };

    // Warm-up: every buffer and cache map reaches its steady-state size.
    let reference = cost_all();
    let sweeps: usize = levels.iter().map(Vec::len).sum();
    assert!(sweeps > 40, "{sweeps} sweeps");
    for (pass, cold) in [("cold", true), ("warm", false)] {
        if cold {
            model.clear_cache();
        }
        let before_stats = model.cache_stats();
        let before = allocations();
        let total = cost_all();
        let allocated = allocations() - before;
        let stats = model.cache_stats();
        assert_eq!(total.to_bits(), reference.to_bits(), "{pass} pass");
        let lookups = (stats.hits + stats.misses) - (before_stats.hits + before_stats.misses);
        assert_eq!(lookups, sweeps, "{pass} pass");
        if cold {
            assert!(stats.misses > 0, "the cold pass must miss");
        } else {
            assert_eq!(
                stats.misses, before_stats.misses,
                "the warm pass must only hit"
            );
        }
        assert_eq!(
            allocated, 0,
            "{pass} multi-sweep cost calls must not allocate (got {allocated} over {sweeps} sweeps)"
        );
    }
}

/// Allocations of optimizing the fixture's first ten jobs with a warm cache,
/// per optimizer configuration, captured before the optimizer costed each
/// enumeration level and exploration phase in one call: a ceiling the batched
/// path may not exceed (it made 2302 and 1954 when it landed).
const WARM_OPTIMIZE_ALLOCATIONS_BEFORE_BATCHING: [(&str, usize); 2] =
    [("resource_aware", 2858), ("default", 2546)];

/// A warm `Optimizer::optimize` allocates no more blocks than before the
/// optimizer costed whole levels and phases in one call.
#[test]
fn warm_optimize_allocates_no_more_than_before_batching() {
    use cleo_optimizer::Optimizer;
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let heuristic = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log =
        pipeline::run_jobs(&jobs, &heuristic, OptimizerConfig::default(), &simulator).unwrap();
    let model =
        LearnedCostModel::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());
    let fixture: Vec<_> = workload.jobs.iter().take(10).collect();
    for (name, ceiling) in WARM_OPTIMIZE_ALLOCATIONS_BEFORE_BATCHING {
        let config = match name {
            "resource_aware" => OptimizerConfig::resource_aware(),
            _ => OptimizerConfig::default(),
        };
        let optimizer = Optimizer::new(&model, config);
        for job in &fixture {
            optimizer.optimize(job).unwrap();
        }
        let misses = model.cache_stats().misses;
        let before = allocations();
        for job in &fixture {
            std::hint::black_box(optimizer.optimize(job).unwrap());
        }
        let allocated = allocations() - before;
        assert_eq!(
            model.cache_stats().misses,
            misses,
            "{name}: the pass is warm"
        );
        assert!(
            allocated <= ceiling,
            "{name}: a warm optimize of ten jobs made {allocated} allocations, {ceiling} before batching"
        );
    }
}
