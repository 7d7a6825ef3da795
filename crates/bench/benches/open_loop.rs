//! Macro-benchmark: the async serving front end under open-loop arrivals.
//!
//! Replays a deterministic open-loop arrival schedule (exponential
//! inter-arrivals from a seeded [`open_loop_arrivals`] draw — the schedule does
//! not depend on service times, so a slow server builds real queueing delay)
//! against the [`FrontDoor`] → [`ServingPool`] serving stack: bounded
//! admission per shard, cross-job batch coalescing behind a backlog, and
//! shard-pinned work-stealing workers.  Writes `BENCH_open_loop.json` at the
//! workspace root (also in `--smoke` mode with a small request count — CI
//! asserts the file is emitted and well-formed) with:
//!
//! * the **offered load** (rate, request count, schedule seed),
//! * the **achieved throughput** (completed requests over the serving wall
//!   clock, drain included),
//! * the **admission mix** (admitted / delayed / shed counts, shed rate, and
//!   how many coalesced batches the front door formed),
//! * **latency percentiles** (p50/p95/p99/max, request arrival to batch
//!   completion) from a mergeable log-linear [`LatencyHistogram`] — the same
//!   bins the serving registry exports, not an ad-hoc percentile sort,
//! * a `metrics` object: the serving stack's full `MetricsSnapshot` for the
//!   headline run (router hits, pool counters, front-door gauges),
//! * the shared environment metadata block ([`cleo_bench::context::BenchMeta`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_bench::context::BenchMeta;
use cleo_common::obs::{LatencyHistogram, Obs};
use cleo_core::serving::{open_loop_arrivals, FrontDoor, FrontDoorConfig, OverloadPolicy};
use cleo_core::sharding::{ClusterRouter, ServingPool, ShardedRegistry};
use cleo_core::HoldoutMetrics;
use cleo_engine::workload::generator::WorkloadProfile;
use cleo_engine::workload::JobSpec;
use cleo_engine::ClusterId;
use cleo_optimizer::{
    CostModel, CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer,
};

const SHARDS: usize = 4;
const WORKERS: usize = 4;
const SCHEDULE_SEED: u64 = 42;

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 100,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = cleo_bench::ExperimentContext::quick().expect("context");
    let n_requests = if smoke { 40 } else { 400 };
    let meta = BenchMeta::capture(SHARDS);
    let (cores, degraded) = (meta.cores, meta.degraded);

    // One warm shard per cluster (the sharded_serving fleet shape).
    let profiles: Vec<WorkloadProfile> = ctx
        .clusters
        .iter()
        .map(|c| WorkloadProfile::of(&c.workload))
        .collect();
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    for (c, cluster) in ctx.clusters.iter().enumerate() {
        registry.shard(ClusterId(c as u8)).unwrap().publish(
            Arc::clone(&cluster.predictor),
            1,
            metrics(),
        );
    }
    let fallback: Arc<dyn CostModel> = Arc::new(HeuristicCostModel::default_model());
    // One observability registry for the whole bench: the router's hit
    // counters, the pool's worker counters, and the front door's latency
    // histogram all land here, and the headline run's snapshot is folded into
    // the JSON result.
    let obs = Arc::new(Obs::new());
    let router = Arc::new(
        ClusterRouter::new(registry, fallback, &profiles).with_obs(Some(Arc::clone(&obs))),
    );
    let shared = || {
        SharedOptimizer::new(
            Arc::clone(&router) as Arc<dyn CostModelProvider>,
            OptimizerConfig::resource_aware(),
        )
    };

    // The request stream: test-day jobs, round-robin across the four clusters
    // so every shard sees load.
    let test_day = cleo_engine::DayIndex(ctx.days.saturating_sub(1));
    let per_cluster: Vec<Vec<Arc<JobSpec>>> = ctx
        .clusters
        .iter()
        .map(|c| {
            c.workload
                .jobs
                .iter()
                .filter(|j| j.meta.day == test_day)
                .map(|j| Arc::new(j.clone()))
                .collect()
        })
        .collect();
    let requests: Vec<Arc<JobSpec>> = (0..n_requests)
        .map(|i| {
            let cluster = &per_cluster[i % per_cluster.len()];
            Arc::clone(&cluster[(i / per_cluster.len()) % cluster.len()])
        })
        .collect();

    // Calibrate the offered rate from measured serial capacity (second pass,
    // so caches are warm): offer at 70% of the serial rate scaled by the
    // usable parallelism, i.e. near — but nominally under — pool capacity.
    let calib: Vec<&JobSpec> = requests.iter().map(|a| a.as_ref()).collect();
    let serial = shared();
    serial.optimize_all(&calib, 1).expect("calibration warmup");
    let t0 = Instant::now();
    serial.optimize_all(&calib, 1).expect("calibration");
    let serial_rate = calib.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let offered_rate = (serial_rate * cores.min(WORKERS) as f64 * 0.7).max(1.0);

    // Replay the deterministic schedule against the wall clock.
    let arrivals = open_loop_arrivals(SCHEDULE_SEED, offered_rate, n_requests);
    let pool = Arc::new(ServingPool::new(
        shared().with_obs(Some(Arc::clone(&obs))),
        SHARDS,
        WORKERS,
    ));
    let config = FrontDoorConfig {
        max_queue_depth: 64,
        policy: OverloadPolicy::Shed,
        coalesce_max: 8,
        ..FrontDoorConfig::default()
    };
    let coalesce_max = config.coalesce_max;
    let mut door = FrontDoor::new(Arc::clone(&pool), config);
    let start = Instant::now();
    let mut arrival_at: Vec<Instant> = Vec::with_capacity(n_requests);
    for (job, offset) in requests.iter().zip(&arrivals) {
        let due = start + Duration::from_secs_f64(*offset);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep(due - now);
        }
        arrival_at.push(Instant::now());
        door.offer(Arc::clone(job));
    }
    let stats = door.stats();
    let completed = door.drain();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let achieved_rate = completed.len() as f64 / elapsed;
    // Percentiles come from the observability layer's mergeable log-linear
    // histogram (the same bins the serving registry exports), replacing the
    // old sort-the-latencies quantile pass.
    let hist = LatencyHistogram::new();
    for c in &completed {
        c.result.as_ref().expect("serve");
        hist.record(
            c.completed_at
                .saturating_duration_since(arrival_at[c.request]),
        );
    }
    let lat = hist.snapshot();
    let to_ms = |nanos: u64| nanos as f64 / 1e6;
    let (p50, p95, p99, max_ms) = (
        to_ms(lat.p50_nanos),
        to_ms(lat.p95_nanos),
        to_ms(lat.p99_nanos),
        to_ms(lat.max_nanos),
    );
    let shed_rate = stats.shed_rate();
    // The headline run's registry state, before the overload sweep adds its
    // own routing/pool traffic on top.
    let metrics_json = obs.metrics().snapshot().to_json();

    // Sustained-overload sweep over the two admission knobs: offer at ~2x pool
    // capacity (every queue is persistently full, so the knobs — not the
    // arrival gaps — decide what gets served) and grid over coalesce_max ×
    // per-shard queue depth.  The front door holds a request only behind a
    // full batch of queued work, so coalesce_max adds no delay of its own: it
    // caps the batches formed under backlog, and a larger cap amortises more
    // hand-offs (queue push, wake-up, ticket) per job.  Depth trades shed
    // rate against tail latency.  The grid records how the library defaults
    // (coalesce_max=8, max_queue_depth=64) compare with their neighbours.
    let sweep_requests = if smoke { 60 } else { 200 };
    let overload_rate = (serial_rate * cores.min(WORKERS) as f64 * 2.0).max(1.0);
    let sweep_schedule = open_loop_arrivals(SCHEDULE_SEED ^ 0x5eed, overload_rate, sweep_requests);
    let coalesce_grid: &[usize] = if smoke { &[1, 8] } else { &[1, 4, 8, 16] };
    let depth_grid: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    struct SweepPoint {
        coalesce: usize,
        depth: usize,
        goodput: f64,
        shed_rate: f64,
        p99_ms: f64,
    }
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &coalesce in coalesce_grid {
        for &depth in depth_grid {
            let pool = Arc::new(ServingPool::new(shared(), SHARDS, WORKERS));
            let mut door = FrontDoor::new(
                pool,
                FrontDoorConfig {
                    max_queue_depth: depth,
                    policy: OverloadPolicy::Shed,
                    coalesce_max: coalesce,
                    ..FrontDoorConfig::default()
                },
            );
            let start = Instant::now();
            let mut arrival_at: Vec<Instant> = Vec::with_capacity(sweep_requests);
            for (i, offset) in sweep_schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*offset);
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep(due - now);
                }
                arrival_at.push(Instant::now());
                door.offer(Arc::clone(&requests[i % requests.len()]));
            }
            let stats = door.stats();
            let completed = door.drain();
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            let hist = LatencyHistogram::new();
            for c in &completed {
                hist.record(
                    c.completed_at
                        .saturating_duration_since(arrival_at[c.request]),
                );
            }
            sweep.push(SweepPoint {
                coalesce,
                depth,
                goodput: completed.len() as f64 / elapsed,
                shed_rate: stats.shed_rate(),
                p99_ms: hist.snapshot().p99_nanos as f64 / 1e6,
            });
        }
    }
    // Chosen point: among the minimal-shed tier (shedding shortens the drain
    // and flatters goodput, so it is filtered first), within 5% of the best
    // goodput, break ties on tail latency.  Points that differ only in
    // coalesce_max differ by hand-off amortisation alone, which a sweep of a
    // few hundred requests on a starved builder (degraded) does not resolve;
    // `defaults_confirmed` says whether the defaults won, not that the
    // winner's margin is outside the noise.
    let min_shed = sweep.iter().map(|p| p.shed_rate).fold(1.0f64, f64::min);
    let tier: Vec<&SweepPoint> = sweep
        .iter()
        .filter(|p| p.shed_rate <= min_shed + 0.01)
        .collect();
    let best_goodput = tier.iter().map(|p| p.goodput).fold(0.0f64, f64::max);
    let chosen = *tier
        .iter()
        .filter(|p| p.goodput >= best_goodput * 0.95)
        .min_by(|a, b| a.p99_ms.partial_cmp(&b.p99_ms).expect("finite latency"))
        .expect("non-empty sweep");
    let defaults = FrontDoorConfig::default();
    let defaults_confirmed =
        chosen.coalesce == defaults.coalesce_max && chosen.depth == defaults.max_queue_depth;

    println!(
        "\n== open_loop ==\noffered {offered_rate:.1} req/sec ({n_requests} requests, seed \
         {SCHEDULE_SEED}) over {SHARDS} shards / {WORKERS} workers on {cores} core(s) \
         (degraded={degraded})\nachieved {achieved_rate:.1} jobs/sec ({} completed in \
         {elapsed:.2}s; serial capacity {serial_rate:.1})\nadmission: {} admitted / {} delayed \
         / {} shed (shed rate {shed_rate:.4}) in {} coalesced batches\nlatency ms: p50 \
         {p50:.2}  p95 {p95:.2}  p99 {p99:.2}  max {max_ms:.2}",
        completed.len(),
        stats.admitted,
        stats.delayed,
        stats.shed,
        stats.batches,
    );
    println!(
        "overload sweep ({overload_rate:.0} req/sec): best goodput {best_goodput:.1} jobs/sec; \
         chosen coalesce_max={} max_queue_depth={} (defaults {}x{} confirmed: \
         {defaults_confirmed})",
        chosen.coalesce, chosen.depth, defaults.coalesce_max, defaults.max_queue_depth,
    );
    for p in &sweep {
        println!(
            "  coalesce {:>2} depth {:>3}: goodput {:>7.1} jobs/sec  shed {:.3}  p99 {:>8.2}ms",
            p.coalesce, p.depth, p.goodput, p.shed_rate, p.p99_ms
        );
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\"coalesce_max\": {}, \"max_queue_depth\": {}, \
                 \"goodput_jobs_per_sec\": {:.1}, \"shed_rate\": {:.4}, \"p99_ms\": {:.3}}}",
                p.coalesce, p.depth, p.goodput, p.shed_rate, p.p99_ms
            )
        })
        .collect();

    let meta_fields = meta.json_fields();
    let json = format!(
        "{{\n  \"bench\": \"open_loop\",\n  \"smoke\": {smoke},\n  {meta_fields},\n  \
         \"shards\": {SHARDS},\n  \"workers\": {WORKERS},\n  \
         \"coalesce_max\": {coalesce_max},\n  \
         \"offered\": {{\"rate_per_sec\": {offered_rate:.1}, \"requests\": {n_requests}, \
         \"schedule_seed\": {SCHEDULE_SEED}}},\n  \
         \"serial_jobs_per_sec\": {serial_rate:.1},\n  \
         \"achieved_jobs_per_sec\": {achieved_rate:.1},\n  \
         \"completed\": {},\n  \
         \"admission\": {{\"admitted\": {}, \"delayed\": {}, \"shed\": {}, \
         \"shed_rate\": {shed_rate:.4}, \"batches\": {}}},\n  \
         \"latency_ms\": {{\"p50\": {p50:.3}, \"p95\": {p95:.3}, \"p99\": {p99:.3}, \
         \"max\": {max_ms:.3}}},\n  \
         \"metrics\": {metrics_json},\n  \
         \"overload_sweep\": {{\n   \"offered_rate_per_sec\": {overload_rate:.1},\n   \
         \"requests\": {sweep_requests},\n   \"grid\": [\n{}\n   ],\n   \
         \"chosen\": {{\"coalesce_max\": {}, \"max_queue_depth\": {}}},\n   \
         \"defaults\": {{\"coalesce_max\": {}, \"max_queue_depth\": {}}},\n   \
         \"defaults_confirmed\": {defaults_confirmed}\n  }}\n}}\n",
        completed.len(),
        stats.admitted,
        stats.delayed,
        stats.shed,
        stats.batches,
        sweep_json.join(",\n"),
        chosen.coalesce,
        chosen.depth,
        defaults.coalesce_max,
        defaults.max_queue_depth,
    );
    // Anchor the result file at the workspace root regardless of the bench cwd.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_open_loop.json");
    std::fs::write(&path, &json).expect("write BENCH_open_loop.json");
    println!("wrote {}", path.display());
}
