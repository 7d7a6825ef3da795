//! `open_low`, `open_high`, `open_sat`: independent callers.  One generator
//! thread offers requests to a `FrontDoor` (default config, except that a full
//! queue delays instead of shedding) in front of a `ServingPool` with 4 shards
//! and **one** worker: generator plus worker is all two cores can run without
//! the generator itself running late.
//!
//! `open_low` and `open_high` replay an arrival schedule at a fixed rate and
//! time every request from when it was **due**; `open_sat` offers 2048-job
//! bursts back to back and reports how fast they drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_core::{serve_batch, FrontDoor, FrontDoorConfig, OverloadPolicy, ServingPool};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{OptimizerConfig, SharedOptimizer, SnapshotCache};

use crate::fixtures::{Fixtures, CLUSTERS};
use crate::probe::Speed;
use crate::rng::{Fingerprint, SplitMix};
use crate::sheet::Sheets;
use crate::stats::{self, WindowedLatency};
use crate::trace::{Layer, Tracer};

/// Pool shape: fixed, not derived from the machine (see the module comment).
const SHARDS: usize = CLUSTERS as usize;
const WORKERS: usize = 1;

/// Offered rates of the two fixed-rate workloads, jobs per second.
const LOW_RATE: f64 = 1000.0;
const HIGH_RATE: f64 = 8000.0;

/// Windows a fixed-rate run is split into (each with its own front door).
/// The VM stops a vCPU for 10–25 ms about once a second; at the high rate the
/// backlog of one such stall reaches a window's p95, so the windows there are
/// short enough that most of them see no stall.  At the low rate a window
/// must stay long, or the partial batches flushed at its end count for much.
const LOW_WINDOWS: usize = 10;
const HIGH_WINDOWS: usize = 25;

/// Jobs per `open_sat` burst.
const BURST: usize = 2048;

/// A window whose generator ran later than this at its 99th percentile is
/// measured again (see [`fixed_rate`]).
const MAX_LATE_P99: Duration = Duration::from_millis(5);

/// Arrival offsets in seconds from the window start: exponential gaps at
/// `rate`, from the benchmark's own random stream.  A pure function of its
/// arguments.
pub fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed, 0xA11);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            at
        })
        .collect()
}

/// Hash of an arrival schedule's offsets.
pub fn schedule_fingerprint(offsets: &[f64]) -> u64 {
    let mut h = Fingerprint::new();
    for offset in offsets {
        h.write_u64(offset.to_bits());
    }
    h.finish()
}

/// The offered rate of a fixed-rate workload.
fn rate_of(name: &str) -> Option<f64> {
    match name {
        "open_low" => Some(LOW_RATE),
        "open_high" => Some(HIGH_RATE),
        _ => None,
    }
}

/// Fingerprint of the first 1024 arrival offsets a fixed-rate workload
/// replays for `seed` (part of its inputs); `None` for other workloads.
pub fn schedule_pin(name: &str, seed: u64) -> Option<u64> {
    rate_of(name).map(|rate| schedule_fingerprint(&arrivals(seed, rate, 1024)))
}

/// Sleep most of the way to `due`, then spin: `sleep` alone overshoots by more
/// than an inter-arrival gap at the high rate.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one window (or burst) measured, in seconds.
#[derive(Default)]
struct Window {
    latency: Vec<f64>,
    hold: Vec<f64>,
    sojourn: Vec<f64>,
    late: Vec<f64>,
    offer: Vec<f64>,
    batches: u64,
    admitted: u64,
    delayed: u64,
    shed: u64,
    failed: u64,
    high_water: usize,
    /// Requests completed correctly per second from window start to last completion.
    achieved_per_s: f64,
}

/// The serving stack under test plus the position in the request stream.
struct Stack<'a> {
    fx: &'a Fixtures,
    pool: Arc<ServingPool>,
    tracer: Option<&'a Arc<Tracer>>,
    next_job: usize,
}

impl Stack<'_> {
    /// Offer `offsets.len()` requests on schedule (all at once when `offsets`
    /// is all zeros), drain, and check every result.
    fn window(&mut self, offsets: &[f64]) -> Window {
        let config = FrontDoorConfig {
            policy: OverloadPolicy::Delay,
            ..FrontDoorConfig::default()
        };
        let mut door = FrontDoor::new(Arc::clone(&self.pool), config);
        let n = offsets.len();
        let first_job = self.next_job;
        let mut due = Vec::with_capacity(n);
        let mut offered = Vec::with_capacity(n);
        let mut out = Window::default();
        let start = Instant::now() + Duration::from_micros(200);
        for (i, offset) in offsets.iter().enumerate() {
            let job = &self.fx.stream[(first_job + i) % self.fx.stream.len()];
            let due_at = start + Duration::from_secs_f64(*offset);
            wait_until(due_at);
            let offer_at = Instant::now();
            {
                let _span = self.tracer.map(|t| {
                    t.set_request((first_job + i) as u32);
                    t.span(Layer::Offer, false)
                });
                door.offer(Arc::clone(job));
            }
            let offer_done = Instant::now();
            out.late.push((offer_at - due_at).as_secs_f64());
            out.offer.push((offer_done - offer_at).as_secs_f64());
            due.push(due_at);
            offered.push(offer_done);
        }
        self.next_job = first_job + n;
        let drain_at = Instant::now();
        let report = {
            let _span = self.tracer.map(|t| t.span(Layer::Drain, true));
            door.drain_report()
        };

        // A batch's members share one completion instant; a full batch was
        // flushed inside the offer of its last member, a partial one by the
        // drain.  From that: how long each request was held for coalescing,
        // and how long its batch then spent at the pool.
        let mut by_batch: Vec<(Instant, usize)> = report
            .completed
            .iter()
            .map(|c| (c.completed_at, c.request))
            .collect();
        by_batch.sort_unstable();
        let coalesce = config.coalesce_max;
        let mut i = 0;
        while i < by_batch.len() {
            let mut j = i;
            while j < by_batch.len() && by_batch[j].0 == by_batch[i].0 {
                j += 1;
            }
            let last = by_batch[i..j]
                .iter()
                .map(|m| m.1)
                .max()
                .expect("non-empty batch");
            let flushed_at = if j - i >= coalesce {
                offered[last]
            } else {
                drain_at.max(offered[last])
            };
            for &(completed_at, request) in &by_batch[i..j] {
                out.hold.push(
                    flushed_at
                        .saturating_duration_since(due[request])
                        .as_secs_f64(),
                );
                out.sojourn.push(
                    completed_at
                        .saturating_duration_since(flushed_at)
                        .as_secs_f64(),
                );
            }
            i = j;
        }

        let mut last_ok = start;
        let mut ok = 0u64;
        for c in &report.completed {
            let job_index = (first_job + c.request) % self.fx.stream.len();
            match &c.result {
                Ok(plan) if self.fx.plan_matches(job_index, plan) => {
                    ok += 1;
                    last_ok = last_ok.max(c.completed_at);
                    out.latency.push(
                        c.completed_at
                            .saturating_duration_since(due[c.request])
                            .as_secs_f64(),
                    );
                }
                _ => out.failed += 1,
            }
        }
        out.failed += report.stats.shed;
        out.batches = report.stats.batches;
        out.admitted = report.stats.admitted;
        out.delayed = report.stats.delayed;
        out.shed = report.stats.shed;
        out.high_water = report.queue_high_water.iter().copied().max().unwrap_or(0);
        out.achieved_per_s = ok as f64 / (last_ok - start).as_secs_f64().max(1e-9);
        out
    }
}

/// Everything a run of windows adds up to.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    latency: WindowedLatency,
    hold: WindowedLatency,
    sojourn: WindowedLatency,
    late: WindowedLatency,
    offer_ns: Vec<f64>,
    rates: Vec<f64>,
    batches: u64,
    admitted: u64,
    delayed: u64,
    shed: u64,
    high_water: usize,
    reruns: u64,
}

impl Totals {
    fn fold(&mut self, mut w: Window, attempted: usize, factor: f64) {
        self.attempted += attempted as u64;
        self.failed += w.failed;
        self.latency.push_window(&mut w.latency, 1e6 * factor);
        self.hold.push_window(&mut w.hold, 1e6 * factor);
        self.sojourn.push_window(&mut w.sojourn, 1e6 * factor);
        self.late.push_window(&mut w.late, 1e6);
        self.offer_ns.push(stats::mean(&w.offer) * 1e9 * factor);
        self.rates.push(w.achieved_per_s / factor);
        self.batches += w.batches;
        self.admitted += w.admitted;
        self.delayed += w.delayed;
        self.shed += w.shed;
        self.high_water = self.high_water.max(w.high_water);
    }
}

/// Replay the fixed-rate schedule for `seconds`, window by window.
///
/// A window in which the generator itself ran late (a stalled vCPU, not the
/// program) is measured again once.  The run reports medians over windows, so
/// a late window or two cannot move them; when more than half the windows
/// stay late the medians would be the generator's doing, and a `strict` run
/// fails instead of reporting them.
fn fixed_rate(
    stack: &mut Stack,
    rate: f64,
    seconds: f64,
    seed: u64,
    strict: bool,
) -> Result<Totals, String> {
    let windows = if rate > LOW_RATE {
        HIGH_WINDOWS
    } else {
        LOW_WINDOWS
    };
    let per_window = ((rate * seconds / windows as f64) as usize).max(16);
    let mut totals = Totals::default();
    let mut still_late = 0;
    for w in 0..windows {
        let offsets = arrivals(seed.wrapping_add(w as u64), rate, per_window);
        let mut window = stack.window(&offsets);
        if late_p99(&window) > MAX_LATE_P99.as_secs_f64() {
            totals.reruns += 1;
            totals.attempted += per_window as u64;
            totals.failed += window.failed;
            window = stack.window(&offsets);
            if late_p99(&window) > MAX_LATE_P99.as_secs_f64() {
                still_late += 1;
            }
        }
        // The arrival schedule, not the processor, is this workload's clock.
        totals.fold(window, per_window, 1.0);
    }
    if strict && still_late * 2 > windows {
        return Err(format!(
            "the generator ran more than {} ms late (p99) in {still_late} of {windows} windows \
             at {rate} jobs/s, each measured twice: the machine, not the program, set this latency",
            MAX_LATE_P99.as_millis()
        ));
    }
    Ok(totals)
}

fn late_p99(window: &Window) -> f64 {
    let mut late = window.late.clone();
    stats::sort(&mut late);
    stats::percentile_sorted(&late, 0.99)
}

/// Offer bursts back to back for `seconds`.
fn saturation(stack: &mut Stack, seconds: f64, speed: &mut Speed) -> Totals {
    let burst = if stack.fx.stream.len() >= 512 {
        BURST
    } else {
        128
    };
    let offsets = vec![0.0; burst];
    let mut totals = Totals::default();
    speed.refresh();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || totals.rates.is_empty() {
        let window = stack.window(&offsets);
        let factor = speed.after_window();
        totals.fold(window, burst, factor);
    }
    totals
}

/// Run one of the three open-loop workloads.
pub fn run(
    name: &str,
    strict: bool,
    fx: &Fixtures,
    seconds: f64,
    speed: &mut Speed,
    tracer: Option<&Arc<Tracer>>,
    sheets: &mut Sheets,
) -> Result<(u64, u64), String> {
    let (e2e, layer) = (&mut sheets.end_to_end, &mut sheets.per_layer);
    let rate = rate_of(name);
    let measure = |stack: &mut Stack, seconds: f64, speed: &mut Speed| match rate {
        Some(rate) => fixed_rate(stack, rate, seconds, fx.seed, strict),
        None => Ok(saturation(stack, seconds, speed)),
    };
    let stack_for = |tracer: Option<&'_ Arc<Tracer>>| {
        let (provider, _) = crate::serve::provider(fx, tracer);
        let shared = SharedOptimizer::new(provider, OptimizerConfig::resource_aware());
        Stack {
            fx,
            pool: Arc::new(ServingPool::new(shared, SHARDS, WORKERS)),
            // Only the traced stack records spans around its own calls.
            tracer: None,
            next_job: 0,
        }
    };

    let mut stack = stack_for(None);
    // Untimed: one pass of the stream warms the worker's route cache.
    stack.window(&vec![0.0; fx.stream.len()]);

    // A traced run measures a quarter of its time untraced (the base its
    // overhead is taken against), then the same windows with the provider
    // wrapped and spans around offer and drain, then the direct calls the
    // latency is made of.
    let share = if tracer.is_some() { 0.25 } else { 1.0 };
    let base = measure(&mut stack, seconds * share, speed)?;
    e2e.set("job_p50_us", base.latency.p50());
    e2e.set("job_p95_us", base.latency.p95());
    e2e.set("jobs_per_s", stats::median(&base.rates));
    println!(
        "[{name}] {} requests in {} windows; generator late p50 {:.1} us p99 {:.1} us; {} window(s) rerun",
        base.attempted,
        base.latency.windows(),
        base.late.p50(),
        base.late.p99(),
        base.reruns
    );
    let Some(tracer) = tracer else {
        return Ok((base.attempted, base.failed));
    };
    drop(stack);
    let mut traced_stack = stack_for(Some(tracer));
    traced_stack.tracer = Some(tracer);
    traced_stack.window(&vec![0.0; fx.stream.len()]);
    let traced = measure(&mut traced_stack, seconds * 0.4, speed)?;
    let pool_requeued = traced_stack.pool.requeued_tasks();
    let pool_errors = traced_stack.pool.worker_error_tasks();

    layer.set("serving.admit_ns", stats::median(&traced.offer_ns));
    layer.set("serving.coalesce_hold_p50_us", traced.hold.p50());
    layer.set("serving.coalesce_hold_p95_us", traced.hold.p95());
    layer.set("serving.admitted", traced.admitted as f64);
    layer.set("serving.delayed", traced.delayed as f64);
    layer.set("serving.shed", traced.shed as f64);
    layer.set("serving.batches", traced.batches as f64);
    layer.set(
        "serving.batch_size_mean",
        (traced.admitted + traced.delayed) as f64 / traced.batches.max(1) as f64,
    );
    layer.set("serving.job_p99_us", traced.latency.p99());
    layer.set("serving.gen_late_p50_us", traced.late.p50());
    layer.set("serving.gen_late_p99_us", traced.late.p99());
    layer.set(
        "serving.late_windows_rerun",
        (base.reruns + traced.reruns) as f64,
    );
    layer.set("sharding.pool.sojourn_p50_us", traced.sojourn.p50());
    layer.set("sharding.pool.sojourn_p95_us", traced.sojourn.p95());
    layer.set("sharding.pool.queue_high_water", traced.high_water as f64);
    layer.set("sharding.pool.requeued", pool_requeued as f64);
    layer.set("sharding.pool.worker_errors", pool_errors as f64);
    layer.set("budget.traced_job_us", traced.latency.p50());
    layer.set(
        "budget.trace_overhead_pct",
        match rate {
            Some(_) => (traced.latency.p50() / base.latency.p50() - 1.0) * 100.0,
            None => (stats::median(&base.rates) / stats::median(&traced.rates) - 1.0) * 100.0,
        },
    );
    crate::layers::record_routing(fx, layer);

    let direct = direct_calls(fx, &traced_stack.pool, speed);
    layer.set("serving.batch_service_us", direct.batch_us);
    layer.set(
        "serving.coalesce_gain",
        8.0 * direct.single_us / direct.batch_us,
    );
    layer.set(
        "sharding.pool.handoff_us",
        direct.round_trip_us - direct.single_us,
    );
    let queue_wait = (traced.sojourn.p50() - direct.batch_us).max(0.0);
    layer.set("sharding.pool.queue_wait_p50_us", queue_wait);
    let unattributed =
        traced.latency.p50() - traced.late.p50() - traced.hold.p50() - traced.sojourn.p50();
    layer.set("budget.unattributed_us_per_job", unattributed);

    println!("[budget] where a request's latency goes (medians)          us   share of p50");
    for (what, us) in [
        ("generator lateness", traced.late.p50()),
        ("serving: held for coalescing", traced.hold.p50()),
        ("sharding.pool: queue wait (derived)", queue_wait),
        (
            "serve_batch of its batch (direct call)",
            traced.sojourn.p50() - queue_wait,
        ),
        ("unattributed", unattributed),
    ] {
        println!(
            "[budget] {what:<42} {us:>12.1} {:>8.1}%",
            us / traced.latency.p50() * 100.0
        );
    }
    println!(
        "[budget] {:<42} {:>12.1}   (untraced {:.1})",
        "latency p50, due to completed",
        traced.latency.p50(),
        base.latency.p50()
    );
    Ok((
        base.attempted + traced.attempted,
        base.failed + traced.failed,
    ))
}

/// Direct calls into the layers an open-loop request passes through, µs.
struct Direct {
    /// `serve_batch` of one 8-job batch, as the front door forms them.
    batch_us: f64,
    /// `serve_batch` of one job.
    single_us: f64,
    /// Idle `submit` → `Ticket::wait` of a 1-job batch.
    round_trip_us: f64,
}

fn direct_calls(fx: &Fixtures, pool: &Arc<ServingPool>, speed: &mut Speed) -> Direct {
    let shared = pool.shared();
    let mut cache = SnapshotCache::new();
    // Batches as the front door forms them: consecutive same-shard requests.
    let mut by_shard: Vec<Vec<Arc<JobSpec>>> = vec![Vec::new(); SHARDS];
    for job in &fx.stream {
        by_shard[job.meta.cluster.0 as usize % SHARDS].push(Arc::clone(job));
    }
    let batches: Vec<&[Arc<JobSpec>]> = by_shard
        .iter()
        .flat_map(|jobs| jobs.chunks_exact(8))
        .collect();
    let singles: Vec<&[Arc<JobSpec>]> = batches.iter().map(|b| &b[..1]).collect();
    // Median over three passes of the scaled time per group, µs.
    let mut time_all = |groups: &[&[Arc<JobSpec>]], call: &mut dyn FnMut(&[Arc<JobSpec>])| {
        let mut per_group = Vec::new();
        for _ in 0..3 {
            speed.refresh();
            let start = Instant::now();
            groups.iter().for_each(|group| call(group));
            let raw = start.elapsed().as_secs_f64();
            per_group.push(raw * speed.after_window() * 1e6 / groups.len().max(1) as f64);
        }
        stats::median(&per_group)
    };
    let mut direct = |group: &[Arc<JobSpec>]| {
        std::hint::black_box(serve_batch(shared, group, &mut cache));
    };
    let batch_us = time_all(&batches, &mut direct);
    let single_us = time_all(&singles, &mut direct);
    let round_trip_us = time_all(&singles, &mut |single| {
        let shard = single[0].meta.cluster.0 as usize;
        std::hint::black_box(pool.submit(shard, single.to_vec()).wait());
    });
    Direct {
        batch_us: batch_us.max(1e-9),
        single_us,
        round_trip_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_a_pure_function_of_the_seed() {
        let a = arrivals(7, 1000.0, 4000);
        let b = arrivals(7, 1000.0, 4000);
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(a.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        let c = arrivals(8, 1000.0, 4000);
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&c));
        // Mean gap is 1/rate: 4000 arrivals at 1000/s end near 4 s.
        let end = *a.last().unwrap();
        assert!((3.7..4.3).contains(&end), "schedule ends at {end}");
        // Rate only rescales the same draws.
        let fast = arrivals(7, 8000.0, 4000);
        assert!((fast[100] * 8.0 - a[100]).abs() < 1e-9);
    }
}
