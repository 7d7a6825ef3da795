//! `feedback`: the write side, beside reads.
//!
//! One loop thread feeds each cluster's telemetry to a `FeedbackLoop`, day by
//! day: the first half of a day is parsed (`CLT1` on even days, NDJSON on odd
//! ones), observed, and published as a **delta round** (`publish_dirty`); the
//! second half is parsed, observed, and **retrained** as a full epoch (fit,
//! guard, publish).  Meanwhile one reader thread serves that cluster's
//! test-day jobs, closed loop, through `FeedbackLoop::provider()`.
//!
//! This is the only workload where `telemetry_io`, `ingest`, `trainer`,
//! `feedback` and `registry` do the work, and it uses the registry and the
//! prediction cache as a writer while the reader uses them as `serve_hot`
//! does: a read-side gain paid for at publish time (or the reverse) shows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cleo_core::pipeline::evaluate_cost_model_jobs;
use cleo_core::trainer::{CleoTrainer, TrainerConfig};
use cleo_core::{
    parse_telemetry, DeltaDecision, FeedbackConfig, FeedbackLoop, HoldoutMetrics, LearnedCostModel,
    ModelRegistry, PublishDecision, WindowEviction, WireFormat,
};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog};
use cleo_engine::telemetry_io::{write_binary, write_ndjson};
use cleo_engine::workload::JobSpec;
use cleo_engine::DayIndex;
use cleo_optimizer::{
    CostModel, CostModelProvider, Optimizer, OptimizerConfig, SharedOptimizer, SnapshotCache,
};

use crate::fixtures::{ClusterFixture, Fixtures, PlanDigest, Scale};
use crate::layers;
use crate::probe::Speed;
use crate::rng::SplitMix;
use crate::sheet::{Sheet, Sheets};
use crate::stats::{self, WindowedLatency};
use crate::trace::{layer_totals, Layer, Tracer};

/// Telemetry window of every loop: cluster 0 fills and evicts it, cluster 3
/// never fills it.
const WINDOW_JOBS: usize = 2048;

/// Jobs the restored registry must serve bit-identically at the end.
const RESTORE_CHECK_JOBS: usize = 64;

fn config() -> FeedbackConfig {
    FeedbackConfig {
        eviction: WindowEviction::JobCount(WINDOW_JOBS),
        trainer: TrainerConfig {
            threads: 1,
            ..TrainerConfig::default()
        },
        ..FeedbackConfig::default()
    }
}

/// One half-day of one cluster's telemetry, as bytes on the wire.
struct Feed {
    bytes: Vec<u8>,
    format: WireFormat,
    jobs: usize,
}

/// Encode one cluster's telemetry into half-day feeds (untimed).  Records
/// arrive in submission order whatever the seed: the order decides which half
/// a record arrives in and which records each epoch holds out, so the models
/// the loops publish, and the quality metrics taken from them, repeat exactly.
fn encode_feeds(cluster: &ClusterFixture, days: u32) -> Vec<[Feed; 2]> {
    (0..days)
        .map(|day| {
            let log = cluster.telemetry.slice_days(DayIndex(day), DayIndex(day));
            let jobs = log.into_jobs();
            let mid = jobs.len() / 2;
            let format = if day % 2 == 0 {
                WireFormat::Binary
            } else {
                WireFormat::Ndjson
            };
            let feed = |half: &[JobTelemetry]| {
                let log = TelemetryLog::from_jobs(half.to_vec());
                Feed {
                    bytes: match format {
                        WireFormat::Binary => write_binary(&log),
                        WireFormat::Ndjson => write_ndjson(&log).into_bytes(),
                    },
                    format,
                    jobs: half.len(),
                }
            };
            [feed(&jobs[..mid]), feed(&jobs[mid..])]
        })
        .collect()
}

/// What the loop thread measured over one pass of the whole schedule, seconds
/// unscaled unless noted.
#[derive(Default)]
struct WriteSide {
    parse_s: f64,
    observe_s: f64,
    epoch_s: Vec<f64>,
    delta_s: Vec<f64>,
    retrain_s: Vec<f64>,
    records: usize,
    /// Write-side busy seconds (parse + observe + publish_dirty / retrain),
    /// each step scaled by its own speed factor.
    busy_scaled_s: f64,
    published: u64,
    guard_rejected: u64,
    skipped: u64,
    dirty_signatures: u64,
    refit_signatures: u64,
    models_fit: u64,
    signatures_seen: u64,
    signatures_reused: u64,
    factors: Vec<f64>,
}

/// What the reader thread measured while one cluster's schedule ran.
#[derive(Default)]
struct ReadSide {
    attempted: u64,
    failed: u64,
    /// Call durations in seconds, in call order, each scaled by the speed
    /// factor of its segment.
    calls: Vec<f64>,
}

/// Reader calls between two probe readings (≈50 ms of calls).
const READER_SEGMENT: usize = 1500;

/// Serve `jobs` closed loop through `provider` until `stop` is set.  The
/// reader reads the probe on its own thread: the two threads sit on two
/// cores, and a slow phase of the machine can slow one and not the other.
fn reader(
    provider: Arc<dyn CostModelProvider>,
    registry: &ModelRegistry,
    jobs: &[Arc<JobSpec>],
    stop: &AtomicBool,
) -> ReadSide {
    let shared = SharedOptimizer::new(provider, OptimizerConfig::resource_aware());
    let mut cache = SnapshotCache::new();
    let mut out = ReadSide::default();
    let mut speed = Speed::new();
    let mut segment_start = 0;
    let mut close_segment = |calls: &mut Vec<f64>, from: &mut usize| {
        let factor = speed.after_window();
        calls[*from..].iter_mut().for_each(|s| *s *= factor);
        *from = calls.len();
    };
    'serve: loop {
        for job in jobs {
            if stop.load(Ordering::Acquire) {
                break 'serve;
            }
            if out.calls.len() - segment_start >= READER_SEGMENT {
                close_segment(&mut out.calls, &mut segment_start);
            }
            let t0 = Instant::now();
            let result = shared.optimize_cached(job, &mut cache);
            out.calls.push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            let ok = result.is_ok_and(|plan| {
                // The version stamped into the plan was published (0 is the
                // fallback served before the first publish), and the cost is a
                // cost.
                plan.stats.model_version <= registry.current_version()
                    && plan.estimated_cost.is_finite()
                    && plan.estimated_cost > 0.0
            });
            if !ok {
                out.failed += 1;
            }
        }
    }
    close_segment(&mut out.calls, &mut segment_start);
    out
}

/// Run the workload.
pub fn run(
    fx: &Fixtures,
    seconds: f64,
    speed: &mut Speed,
    tracer: Option<&Arc<Tracer>>,
    sheets: &mut Sheets,
) -> (u64, u64) {
    let (e2e, layer) = (&mut sheets.end_to_end, &mut sheets.per_layer);
    let mut rng = SplitMix::new(fx.seed, 0xFEED);
    let feeds: Vec<Vec<[Feed; 2]>> = fx
        .clusters
        .iter()
        .map(|c| encode_feeds(c, fx.days))
        .collect();
    let test_day = DayIndex(fx.days - 1);

    let mut reader_latency = WindowedLatency::default();
    let mut passes: Vec<WriteSide> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut final_models: Vec<Arc<LearnedCostModel>> = Vec::new();
    let set_up_models = fx.learned_models();
    let started = Instant::now();
    // Whole passes of the schedule on fresh loops, until the time is used.
    while started.elapsed().as_secs_f64() < seconds || passes.is_empty() {
        let mut pass = WriteSide::default();
        // The reader alternates between a warm cache and the cold one every
        // full publish leaves, so a short window's median flips between the
        // two; its percentiles are taken over a whole pass.
        let mut reader_calls: Vec<f64> = Vec::new();
        final_models.clear();
        for (cluster, feeds) in fx.clusters.iter().zip(&feeds) {
            let mut fl = FeedbackLoop::new(config(), Simulator::new(SimulatorConfig::default()));
            let registry = Arc::clone(fl.registry());
            let provider = fl.provider() as Arc<dyn CostModelProvider>;
            let mut hot: Vec<Arc<JobSpec>> = cluster
                .jobs
                .iter()
                .filter(|j| j.meta.day == test_day)
                .cloned()
                .collect();
            rng.shuffle(&mut hot);
            let stop = AtomicBool::new(false);
            let (read, busy_s, records) = std::thread::scope(|scope| {
                let (registry, hot, stop) = (&*registry, &hot, &stop);
                let reading = scope.spawn(move || reader(provider, registry, hot, stop));
                let (busy_s, records) = write_cluster(&mut fl, feeds, tracer, speed, &mut pass);
                stop.store(true, Ordering::Release);
                (reading.join().expect("reader thread"), busy_s, records)
            });
            pass.busy_scaled_s += busy_s;
            reader_calls.extend(&read.calls);
            attempted += read.attempted + records as u64;
            failed += read.failed;
            failed += restore_check(&registry, &hot);
            final_models.push(match registry.current() {
                Some(snapshot) => Arc::clone(snapshot.cost_model()),
                // Every loop of the full workload must publish: otherwise the
                // quality metrics would not come from the feedback path.  On
                // the tiny smoke clusters the guard may refuse every
                // candidate; there the set-up model stands in.
                None => {
                    println!("[feedback] a loop published nothing");
                    if fx.scale == Scale::Full {
                        failed += 1;
                    }
                    Arc::clone(&set_up_models[final_models.len()])
                }
            });
        }
        reader_latency.push_window(&mut reader_calls, 1e6);
        passes.push(pass);
    }

    // End to end: the reader's view, and records learned from per second of
    // write-side busy time (parse + observe + publish_dirty / retrain).
    let per_pass = |f: &dyn Fn(&WriteSide) -> f64| -> f64 {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    e2e.set("job_p50_us", reader_latency.p50());
    e2e.set("job_p95_us", reader_latency.p95());
    e2e.set(
        "jobs_per_s",
        per_pass(&|p| p.records as f64 / p.busy_scaled_s.max(1e-9)),
    );
    layers::quality(fx, &final_models).record(e2e);

    let scaled_mean = |p: &WriteSide, xs: &[f64]| stats::mean(xs) * stats::median(&p.factors);
    let epoch_s = per_pass(&|p| scaled_mean(p, &p.epoch_s));
    let delta_s = per_pass(&|p| scaled_mean(p, &p.delta_s));
    println!(
        "[feedback] {} pass(es) of {} delta rounds + {} epochs; epoch {:.4} s, delta round {:.4} s \
         (scaled means); reader {} calls",
        passes.len(),
        passes[0].delta_s.len(),
        passes[0].epoch_s.len(),
        epoch_s,
        delta_s,
        reader_latency.samples(),
    );

    layer.set("feedback.epoch_s", epoch_s);
    layer.set("feedback.delta_round_s", delta_s);
    layer.set(
        "feedback.ingest_jobs_per_s",
        per_pass(&|p| {
            p.records as f64 / ((p.parse_s + p.observe_s) * stats::median(&p.factors)).max(1e-9)
        }),
    );
    layer.set(
        "feedback.observe_us_per_job",
        per_pass(&|p| p.observe_s * stats::median(&p.factors) * 1e6 / p.records.max(1) as f64),
    );
    layer.set(
        "feedback.retrain_s",
        per_pass(&|p| scaled_mean(p, &p.retrain_s)),
    );
    let last = passes.last().expect("at least one pass");
    layer.set("feedback.published", last.published as f64);
    layer.set("feedback.guard_rejected", last.guard_rejected as f64);
    layer.set("feedback.skipped", last.skipped as f64);
    layer.set(
        "feedback.delta_dirty_signatures",
        last.dirty_signatures as f64,
    );
    layer.set(
        "feedback.delta_refit_signatures",
        last.refit_signatures as f64,
    );
    layer.set("trainer.models_fit", last.models_fit as f64);
    layer.set(
        "trainer.warm_reused_share",
        last.signatures_reused as f64 / last.signatures_seen.max(1) as f64,
    );
    layer.set("serving.job_p99_us", reader_latency.p99());
    if let Some(tracer) = tracer {
        epoch_budget(tracer, last, layer);
    }
    (attempted, failed)
}

/// Feed one cluster's days through its loop; returns the write-side busy
/// seconds (scaled) and the records absorbed.
fn write_cluster(
    fl: &mut FeedbackLoop,
    feeds: &[[Feed; 2]],
    tracer: Option<&Arc<Tracer>>,
    speed: &mut Speed,
    pass: &mut WriteSide,
) -> (f64, usize) {
    let (mut busy_s, mut records) = (0.0f64, 0usize);
    speed.refresh();
    for (day, halves) in feeds.iter().enumerate() {
        for (half, feed) in halves.iter().enumerate() {
            let full_epoch = half == 1;
            let step = tracer.map(|t| {
                t.set_request((day * 2 + half) as u32);
                t.span(Layer::Step, true)
            });
            let span = |layer: Layer| tracer.map(|t| t.span(layer, true));

            let t0 = Instant::now();
            let log = {
                let _span = span(Layer::Parse);
                parse_telemetry(&feed.bytes, feed.format, 1).expect("feed parses")
            };
            let t1 = Instant::now();
            {
                let _span = span(Layer::Observe);
                fl.observe(log);
            }
            let t2 = Instant::now();
            // What the retrain will warm-start from, for the replay below.
            let incumbent = fl.registry().current();
            if full_epoch {
                let outcome = {
                    let _span = span(Layer::Retrain);
                    fl.retrain().expect("retrain")
                };
                match outcome.decision {
                    PublishDecision::Published { .. } => pass.published += 1,
                    PublishDecision::RejectedRegression => pass.guard_rejected += 1,
                    PublishDecision::SkippedTooFewJobs => pass.skipped += 1,
                }
                pass.models_fit += (outcome.warm.warm_fits + outcome.warm.cold_fits) as u64;
                pass.signatures_seen += outcome.warm.total() as u64;
                pass.signatures_reused += outcome.warm.reused as u64;
            } else {
                let outcome = {
                    let _span = span(Layer::PublishDirty);
                    fl.publish_dirty().expect("delta round")
                };
                match outcome.decision {
                    DeltaDecision::Published {
                        changed_signatures, ..
                    } => {
                        pass.published += 1;
                        pass.refit_signatures += changed_signatures as u64;
                    }
                    _ => pass.skipped += 1,
                }
                pass.dirty_signatures += outcome.dirty_signatures as u64;
            }
            let t3 = Instant::now();

            let step_s = (t3 - t0).as_secs_f64();
            pass.parse_s += (t1 - t0).as_secs_f64();
            pass.observe_s += (t2 - t1).as_secs_f64();
            if full_epoch {
                pass.epoch_s.push(step_s);
                pass.retrain_s.push((t3 - t2).as_secs_f64());
            } else {
                pass.delta_s.push(step_s);
            }
            pass.records += feed.jobs;
            records += feed.jobs;
            drop(step);
            // Scale step by step: the machine's speed drifts within a pass.
            let factor = speed.after_window();
            pass.factors.push(factor);
            busy_s += step_s * factor;
            // A traced run replays every second epoch: the replay costs as
            // much as the epoch, and twelve of them say where the time goes.
            if let (true, Some(tracer)) = (full_epoch && day % 2 == 1, tracer) {
                replay_retrain(fl, incumbent.as_deref(), tracer);
                speed.refresh();
            }
        }
    }
    (busy_s, records)
}

/// Run the phases of `retrain` again, one public call each, on the window
/// the epoch just trained on and seeded by the model it was seeded by.
fn replay_retrain(
    fl: &FeedbackLoop,
    incumbent: Option<&cleo_core::ModelSnapshot>,
    tracer: &Tracer,
) {
    let stride = fl.holdout_stride();
    let (holdout, train): (Vec<_>, Vec<_>) = fl
        .window()
        .jobs()
        .iter()
        .enumerate()
        .partition(|(i, _)| i % stride == 0);
    if holdout.is_empty() || train.len() < 2 {
        return;
    }
    let samples = {
        let _span = tracer.span(Layer::ReplayCollect, true);
        CleoTrainer::collect_samples_from(train.iter().map(|(_, j)| *j))
    };
    let trainer = CleoTrainer::new(fl.config().trainer.for_epoch(fl.epoch()));
    let seed = incumbent.map(|s| s.predictor());
    let predictor = {
        let _span = tracer.span(Layer::ReplayFit, true);
        Arc::new(
            trainer
                .train_from_samples_seeded(samples, seed, seed)
                .expect("replayed fit")
                .0,
        )
    };
    let holdout_metrics = {
        let _span = tracer.span(Layer::ReplayGuard, true);
        let candidate = LearnedCostModel::without_cache(Arc::clone(&predictor));
        let jobs = || holdout.iter().map(|(_, j)| *j);
        let candidate = evaluate_cost_model_jobs(&candidate, jobs());
        if let Some(incumbent) = incumbent {
            std::hint::black_box(evaluate_cost_model_jobs(
                incumbent.cost_model().as_ref(),
                jobs(),
            ));
        }
        HoldoutMetrics {
            correlation: candidate.correlation,
            median_error_pct: candidate.median_error_pct,
            sample_count: candidate.pairs.len(),
        }
    };
    let scratch = ModelRegistry::new();
    let _span = tracer.span(Layer::ReplayPublish, true);
    scratch.publish(predictor, fl.epoch(), holdout_metrics);
}

/// The persisted registry must restore byte-identically and serve the same
/// plans; returns the number of checks that failed.
fn restore_check(registry: &ModelRegistry, jobs: &[Arc<JobSpec>]) -> u64 {
    if registry.current().is_none() {
        return 0; // nothing was published, so there is nothing to persist
    }
    let Ok(bytes) = registry.snapshot_bytes() else {
        return 1;
    };
    let Ok(restored) = ModelRegistry::from_snapshot_bytes(&bytes) else {
        return 1;
    };
    let mut failed = u64::from(restored.snapshot_bytes().ok().as_ref() != Some(&bytes));
    let (Some(original), Some(restored)) = (registry.current(), restored.current()) else {
        return failed + 1;
    };
    let config = OptimizerConfig::resource_aware();
    let serve = |model: &dyn CostModel, job: &JobSpec| {
        Optimizer::new(model, config)
            .optimize(job)
            .ok()
            .map(|plan| PlanDigest::of(&plan))
    };
    for job in jobs.iter().take(RESTORE_CHECK_JOBS) {
        let a = serve(original.cost_model().as_ref(), job);
        if a.is_none() || a != serve(restored.cost_model().as_ref(), job) {
            failed += 1;
        }
    }
    failed
}

/// Print where an epoch's time goes and fill the trainer rows, from the last
/// pass's spans: the replayed phases against the `retrain` call they mirror.
fn epoch_budget(tracer: &Tracer, last: &WriteSide, layer: &mut Sheet) {
    let totals = tracer.with_spans(|spans| layer_totals(spans, None));
    let mean_s = |l: Layer| {
        let t = totals[l as usize];
        t.total_ns as f64 / t.spans.max(1) as f64 / 1e9
    };
    let factor = stats::median(&last.factors);
    let epochs = totals[Layer::Retrain as usize].spans.max(1) as f64;
    let per_epoch = |l: Layer| totals[l as usize].total_ns as f64 / epochs / 1e9 * factor;
    let retrain = mean_s(Layer::Retrain) * factor;
    let rows = [
        ("ingest: parse_telemetry", per_epoch(Layer::Parse) / 2.0),
        (
            "feedback: observe (window, evict)",
            per_epoch(Layer::Observe) / 2.0,
        ),
        (
            "trainer: collect samples (replayed)",
            mean_s(Layer::ReplayCollect) * factor,
        ),
        ("trainer: fit (replayed)", mean_s(Layer::ReplayFit) * factor),
        (
            "feedback: holdout guard (replayed)",
            mean_s(Layer::ReplayGuard) * factor,
        ),
        (
            "registry: publish (replayed)",
            mean_s(Layer::ReplayPublish) * factor,
        ),
    ];
    let replayed: f64 = rows[2..].iter().map(|r| r.1).sum();
    let epoch = rows[0].1 + rows[1].1 + retrain;
    println!("[budget] where a full epoch's time goes                    s   share");
    for (what, s) in rows {
        println!("[budget] {what:<42} {s:>12.5} {:>6.1}%", s / epoch * 100.0);
    }
    println!(
        "[budget] {:<42} {:>12.5} {:>6.1}%",
        "unattributed (retrain - replayed phases)",
        retrain - replayed,
        (retrain - replayed) / epoch * 100.0
    );
    println!(
        "[budget] {:<42} {epoch:>12.5}",
        "epoch (parse + observe + retrain)"
    );
    layer.set("trainer.collect_samples_s", rows[2].1);
    layer.set("trainer.fit_s", rows[3].1);
    layer.set("feedback.guard_s", rows[4].1);
    layer.set("budget.traced_job_us", epoch * 1e6);
    layer.set("budget.unattributed_us_per_job", (retrain - replayed) * 1e6);
}
