//! `serve_hot` and `serve_cold`: one caller, closed loop, straight into
//! `SharedOptimizer::optimize_cached`, round-robin over the test-day stream.
//!
//! `serve_hot` leaves the prediction cache warm, so cost calls are hits and
//! enumeration, signature hashing and cache lookups do the work.  `serve_cold`
//! clears every shard's prediction cache before each pass (untimed), so
//! featurization and the model kernels do most of it.

use std::sync::Arc;
use std::time::Instant;

use cleo_optimizer::enumerate::Enumerator;
use cleo_optimizer::{
    CostModelProvider, Optimizer, OptimizerConfig, SharedOptimizer, SnapshotCache,
};

use crate::fixtures::Fixtures;
use crate::probe::Speed;
use crate::stats::{self, WindowedLatency};
use crate::trace::{Layer, TimedProvider, Tracer};

/// Passes over the stream per measured window (a window is ≈0.15–0.25 s).
const HOT_PASSES_PER_WINDOW: usize = 4;
const COLD_PASSES_PER_WINDOW: usize = 2;

/// What one closed-loop run measured.
pub struct ServeRun {
    /// Jobs served.
    pub attempted: u64,
    /// Errors plus plans that differ from the set-up reference.
    pub failed: u64,
    /// Call duration per job, scaled by each window's speed factor.
    pub latency: WindowedLatency,
    /// Jobs per busy second (median over windows, scaled).
    pub jobs_per_s: f64,
    /// Mean call duration per job, unscaled (what the traced run is compared to).
    pub raw_call_us: f64,
    /// Mean wall time per job including the loop's own work, unscaled.
    pub raw_wall_us: f64,
    /// Mean call duration of the requests a traced run recorded, unscaled.
    pub recorded_call_us: f64,
    /// Measured windows.
    pub windows: usize,
    /// Jobs a traced provider saw served from a cached route.
    pub cached_routes: u64,
    /// Median speed factor over the run's windows.
    pub speed_factor: f64,
}

/// The provider a run serves through: the fixture's router, wrapped for a
/// traced run.
pub fn provider(
    fx: &Fixtures,
    tracer: Option<&Arc<Tracer>>,
) -> (Arc<dyn CostModelProvider>, Option<Arc<TimedProvider>>) {
    let router = Arc::clone(&fx.router) as Arc<dyn CostModelProvider>;
    let Some(tracer) = tracer else {
        return (router, None);
    };
    let timed = Arc::new(TimedProvider::new(router, Arc::clone(tracer)));
    (
        Arc::clone(&timed) as Arc<dyn CostModelProvider>,
        Some(timed),
    )
}

/// Run the closed loop for `seconds`.
pub fn run(
    fx: &Fixtures,
    cold: bool,
    seconds: f64,
    speed: &mut Speed,
    tracer: Option<&Arc<Tracer>>,
) -> ServeRun {
    let config = OptimizerConfig::resource_aware();
    let (provider, timed) = provider(fx, tracer);
    let shared = SharedOptimizer::new(Arc::clone(&provider), config);
    let mut cache = SnapshotCache::new();
    let models = fx.learned_models();
    let passes = if cold {
        COLD_PASSES_PER_WINDOW
    } else {
        HOT_PASSES_PER_WINDOW
    };

    // Untimed warm-up pass: fills the prediction cache and the route cache.
    for job in &fx.stream {
        shared
            .optimize_cached(job, &mut cache)
            .expect("warm-up optimization");
    }

    let mut run = ServeRun {
        attempted: 0,
        failed: 0,
        latency: WindowedLatency::default(),
        jobs_per_s: 0.0,
        raw_call_us: 0.0,
        raw_wall_us: 0.0,
        recorded_call_us: 0.0,
        windows: 0,
        cached_routes: 0,
        speed_factor: 1.0,
    };
    let (mut rates, mut factors) = (Vec::new(), Vec::new());
    let (mut call_s, mut wall_s) = (0.0f64, 0.0f64);
    let (mut recorded_s, mut recorded_calls) = (0.0f64, 0u64);
    let mut samples: Vec<f64> = Vec::with_capacity(passes * fx.stream.len());
    let mut request = 0u32;
    speed.refresh();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || run.windows == 0 {
        samples.clear();
        let mut busy = 0.0f64;
        for _ in 0..passes {
            if cold {
                models.iter().for_each(|m| m.clear_cache());
            }
            let pass_start = Instant::now();
            for (i, job) in fx.stream.iter().enumerate() {
                let t0 = Instant::now();
                let (result, recorded) = match tracer {
                    None => (shared.optimize_cached(job, &mut cache), false),
                    Some(tracer) => {
                        tracer.set_request(request);
                        let mut span = tracer.span(Layer::Optimize, false);
                        if span.full() {
                            // One caller, so the job's own shard's miss
                            // counter moves only with this call.
                            let model = &models[job.meta.cluster.0 as usize];
                            let before = model.cache_stats().misses;
                            let result = shared.optimize_cached(job, &mut cache);
                            span.set_tag((model.cache_stats().misses - before) as u32);
                            (result, true)
                        } else {
                            (shared.optimize_cached(job, &mut cache), false)
                        }
                    }
                };
                let dt = t0.elapsed().as_secs_f64();
                busy += dt;
                samples.push(dt);
                request = request.wrapping_add(1);
                run.attempted += 1;
                match result {
                    Ok(plan) if fx.plan_matches(i, &plan) => {}
                    _ => run.failed += 1,
                }
                if let (true, Some(tracer)) = (recorded, tracer) {
                    recorded_s += dt;
                    recorded_calls += 1;
                    replay(tracer, provider.as_ref(), &mut cache, job, config);
                }
            }
            wall_s += pass_start.elapsed().as_secs_f64();
        }
        let factor = speed.after_window();
        factors.push(factor);
        call_s += busy;
        rates.push(samples.len() as f64 / (busy * factor));
        run.latency.push_window(&mut samples, 1e6 * factor);
        run.windows += 1;
    }
    run.jobs_per_s = stats::median(&rates);
    run.raw_call_us = call_s * 1e6 / run.attempted as f64;
    run.raw_wall_us = wall_s * 1e6 / run.attempted as f64;
    run.recorded_call_us = recorded_s * 1e6 / recorded_calls.max(1) as f64;
    run.cached_routes = timed.map_or(0, |t| t.cached_routes());
    run.speed_factor = stats::median(&factors);
    run
}

/// Run the two halves of `optimize` again on a recorded job, each under its
/// own top-level span, so the optimizer's self time can be split into
/// enumeration, partition exploration and the final cost fold.
fn replay(
    tracer: &Tracer,
    provider: &dyn CostModelProvider,
    cache: &mut SnapshotCache,
    job: &cleo_engine::workload::JobSpec,
    config: OptimizerConfig,
) {
    {
        let _span = tracer.span(Layer::ReplayEnumerate, true);
        let served = cache.get(provider, &job.meta);
        let mut enumerator = Enumerator::new(
            served.model.as_ref(),
            &job.catalog,
            &job.meta,
            config.use_actual_cardinalities,
            config.enable_local_aggregation,
        );
        std::hint::black_box(
            enumerator
                .enumerate(&job.plan)
                .expect("replayed enumeration"),
        );
    }
    let _span = tracer.span(Layer::ReplayDeferred, true);
    let served = cache.get(provider, &job.meta);
    std::hint::black_box(
        Optimizer::new(served.model.as_ref(), config)
            .optimize_deferred(job)
            .expect("replayed optimization"),
    );
}

/// One pass over the stream with the exact counters read on either side:
/// prediction-cache hits and misses, cost calls, model invocations and
/// alternatives per job.  Single-threaded, so the counts repeat exactly.
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub model_invocations_per_job: f64,
    pub alternatives_per_job: f64,
}

/// Count one pass (after clearing the caches when `cold`).
pub fn count_pass(fx: &Fixtures, cold: bool) -> Counters {
    let shared = SharedOptimizer::new(
        Arc::clone(&fx.router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    let mut cache = SnapshotCache::new();
    let models = fx.learned_models();
    if cold {
        models.iter().for_each(|m| m.clear_cache());
    }
    let before: Vec<_> = models.iter().map(|m| m.cache_stats()).collect();
    let (mut invocations, mut alternatives) = (0usize, 0usize);
    for job in &fx.stream {
        let plan = shared
            .optimize_cached(job, &mut cache)
            .expect("counting pass");
        invocations += plan.stats.model_invocations;
        alternatives += plan.stats.alternatives_generated;
    }
    let (mut hits, mut misses) = (0u64, 0u64);
    for (model, before) in models.iter().zip(before) {
        let after = model.cache_stats();
        hits += (after.hits - before.hits) as u64;
        misses += (after.misses - before.misses) as u64;
    }
    let jobs = fx.stream.len() as f64;
    Counters {
        cache_hits: hits,
        cache_misses: misses,
        model_invocations_per_job: invocations as f64 / jobs,
        alternatives_per_job: alternatives as f64 / jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::Scale;

    #[test]
    fn a_corrupted_reference_fails_the_output_check() {
        let mut fx = Fixtures::build(5, 3, Scale::Smoke, &mut || ());
        let mut speed = Speed::new();
        let clean = run(&fx, false, 0.05, &mut speed, None);
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0);

        fx.reference[0].cost_bits ^= 1;
        let corrupted = run(&fx, false, 0.05, &mut speed, None);
        assert!(
            corrupted.failed > 0,
            "one plan in every pass now mismatches"
        );
        assert!(corrupted.failed < corrupted.attempted, "and only that one");
    }
}
