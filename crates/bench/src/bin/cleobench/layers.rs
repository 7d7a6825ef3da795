//! Per-layer numbers: the budget table built from a traced run's spans, the
//! exact program counters, the model-quality metrics, and the micro-probes
//! that replay single layers over the workload's own operators.

use std::sync::Arc;
use std::time::Instant;

use cleo_core::features::{input_encoding, SweepFeatures};
use cleo_core::signature::ModelFamily;
use cleo_core::{
    feature_count, feature_name_strings, pipeline, signature_set, ClusterRouter, HoldoutMetrics,
    LearnedCostModel, ModelDelta, ModelRegistry, PredictScratch, QuarantinePolicy, WireFormat,
};
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalPlan};
use cleo_engine::telemetry_io;
use cleo_engine::DayIndex;
use cleo_mlkit::dataset::Dataset;
use cleo_mlkit::elastic_net::ElasticNet;
use cleo_mlkit::gbt::FastTreeRegressor;
use cleo_mlkit::matrix::FeatureMatrix;
use cleo_mlkit::model::Regressor;
use cleo_mlkit::simd::{active_isa, Isa};
use cleo_optimizer::{CostModel, CostModelProvider, Optimizer, OptimizerConfig, SnapshotCache};

use crate::fixtures::{default_model, Fixtures};
use crate::serve::{self, ServeRun};
use crate::sheet::Sheet;
use crate::stats;
use crate::trace::{
    bare_mean_ns, classify_cost_spans, layer_totals, outside_cost_ns, Layer, LayerTotal, Tracer,
};

/// The three model-quality metrics, on the test day.
pub struct Quality {
    /// Pearson correlation of the combined model's predictions with actual
    /// operator latencies, mean over clusters.
    pub corr: f64,
    /// Median relative error of those predictions, mean over clusters.
    pub median_err_pct: f64,
    /// Simulated latency of the plans chosen with the learned models over that
    /// of the plans chosen with the default cost model (same optimizer
    /// configuration, so only the model differs).
    pub plan_latency_ratio: f64,
}

impl Quality {
    /// Write the three metrics onto the end-to-end sheet.
    pub fn record(&self, e2e: &mut Sheet) {
        e2e.set("pred_corr", self.corr);
        e2e.set("pred_median_err_pct", self.median_err_pct);
        e2e.set("plan_latency_ratio", self.plan_latency_ratio);
    }
}

/// Evaluate `models` (one per cluster) on the fixture's test day.
pub fn quality(fx: &Fixtures, models: &[Arc<LearnedCostModel>]) -> Quality {
    let test_day = DayIndex(fx.days - 1);
    let config = OptimizerConfig::resource_aware();
    let (mut corr, mut err) = (Vec::new(), Vec::new());
    let (mut learned_latency, mut default_latency) = (0.0f64, 0.0f64);
    let heuristic = default_model();
    for (cluster, model) in fx.clusters.iter().zip(models) {
        let test_log = cluster.telemetry.slice_days(test_day, test_day);
        let combined = pipeline::evaluate_predictor(model.predictor(), &test_log)
            .into_iter()
            .find(|e| e.name == "Combined")
            .expect("combined evaluation");
        corr.push(combined.correlation);
        err.push(combined.median_error_pct);
        let learned = Optimizer::new(model.as_ref(), config);
        let default = Optimizer::new(heuristic.as_ref(), config);
        for job in cluster.jobs.iter().filter(|j| j.meta.day == test_day) {
            let plan = learned.optimize(job).expect("quality optimization");
            learned_latency += fx.simulator.run(&plan.plan).job_latency;
            let plan = default.optimize(job).expect("quality optimization");
            default_latency += fx.simulator.run(&plan.plan).job_latency;
        }
    }
    Quality {
        corr: stats::mean(&corr),
        median_err_pct: stats::mean(&err),
        plan_latency_ratio: learned_latency / default_latency,
    }
}

/// Fill the serve workloads' layer rows from a traced run's spans and print
/// the budget table.  `base` is the untraced run the overhead is taken against.
pub fn serve_budget(
    fx: &Fixtures,
    cold: bool,
    base: &ServeRun,
    traced: &ServeRun,
    tracer: &Tracer,
    layer: &mut Sheet,
) {
    let (main, enumerate, deferred, bare_ns, outside_ns) = tracer.with_spans(|spans| {
        classify_cost_spans(spans);
        (
            layer_totals(spans, Some(Layer::Optimize)),
            layer_totals(spans, Some(Layer::ReplayEnumerate)),
            layer_totals(spans, Some(Layer::ReplayDeferred)),
            bare_mean_ns(spans, Layer::Optimize),
            outside_cost_ns(spans),
        )
    });
    let root = main[Layer::Optimize as usize];
    let recorded = root.spans.max(1) as f64;

    // What recording one span costs where it happens (see `trace`): the whole
    // of it from full against bare requests, the part outside the span's own
    // interval from doubled cost calls.
    let nested: u64 = main.iter().map(|t| t.spans).sum::<u64>() - root.spans;
    let full_ns = root.total_ns as f64 / recorded;
    let per_span_ns = ((full_ns - bare_ns) / (nested as f64 / recorded).max(1.0)).max(0.0);
    let outside_ns = outside_ns.min(per_span_ns);
    let inside_ns = per_span_ns - outside_ns;
    // Span times are raw; the untraced job they are compared with is scaled.
    let scale = traced.speed_factor / 1e3;
    let corrected = |totals: &[LayerTotal], layer: Layer, top_level: bool| {
        let t = totals[layer as usize];
        let roots = if top_level {
            t.spans.max(1) as f64
        } else {
            recorded
        };
        let own = if top_level {
            0.0
        } else {
            t.spans as f64 * inside_ns
        };
        ((t.self_ns as f64 - own - t.children as f64 * outside_ns) / roots * scale).max(0.0)
    };

    let optimize_self = corrected(&main, Layer::Optimize, true);
    let enumerate_self = corrected(&enumerate, Layer::ReplayEnumerate, true);
    let deferred_self = corrected(&deferred, Layer::ReplayDeferred, true);
    let hit = corrected(&main, Layer::CostHit, false);
    let miss = corrected(&main, Layer::CostMiss, false);
    let uncached = corrected(&main, Layer::Cost, false);
    let provider = corrected(&main, Layer::Route, false) + corrected(&main, Layer::Stamp, false);
    let explore_self = (deferred_self - enumerate_self).max(0.0);
    let fold_self = (optimize_self - deferred_self).max(0.0);
    let named = optimize_self + hit + miss + uncached + provider;
    let untraced_job = 1e6 / base.jobs_per_s;
    let unattributed = untraced_job - named;

    let rows = [
        ("enumerate (self)", enumerate_self),
        ("resource explore (self)", explore_self),
        ("optimizer cost fold (self)", fold_self),
        ("integration: cache hits", hit),
        ("integration: cache misses", miss),
        ("cost calls, uncached model", uncached),
        ("provider: route + stamp", provider),
        ("unattributed", unattributed),
    ];
    println!("[budget] layer                          self us/job   share");
    for (name, us) in rows {
        println!(
            "[budget] {name:<30} {us:>11.3} {:>6.1}%",
            us / untraced_job * 100.0
        );
    }
    println!(
        "[budget] {:<30} {untraced_job:>11.3}  = untraced time per job",
        "sum"
    );
    println!(
        "[budget] recorded in full {:.3} us/job ({recorded} requests), bare {:.3} us/job; \
         recording costs {per_span_ns:.0} ns per nested span, {outside_ns:.0} ns of it outside \
         the span (taken out above)",
        full_ns * scale,
        bare_ns * scale,
    );

    layer.set("enumerate.self_us_per_job", enumerate_self);
    layer.set("resource.explore_self_us_per_job", explore_self);
    layer.set("optimizer.cost_fold_us_per_job", fold_self);
    layer.set("integration.hit_self_us_per_job", hit);
    layer.set("integration.miss_self_us_per_job", miss);
    layer.set("integration.cost_busy_us_per_job", hit + miss + uncached);
    let routed = traced.cached_routes + tracer.calls(Layer::Route);
    layer.set(
        "provider.snapshot_cache_hit_rate",
        traced.cached_routes as f64 / routed.max(1) as f64,
    );
    let cost_spans = main[Layer::CostHit as usize].spans
        + main[Layer::CostMiss as usize].spans
        + main[Layer::Cost as usize].spans;
    layer.set("optimizer.cost_calls_per_job", cost_spans as f64 / recorded);
    layer.set("budget.traced_job_us", full_ns * scale);
    layer.set("budget.unattributed_us_per_job", unattributed);
    layer.set(
        "budget.trace_overhead_pct",
        (base.jobs_per_s / traced.jobs_per_s - 1.0) * 100.0,
    );
    layer.set("serving.job_p99_us", base.latency.p99());

    let counters = serve::count_pass(fx, cold);
    layer.set("integration.cache_hits", counters.cache_hits as f64);
    layer.set("integration.cache_misses", counters.cache_misses as f64);
    layer.set(
        "integration.cache_hit_rate",
        counters.cache_hits as f64 / (counters.cache_hits + counters.cache_misses).max(1) as f64,
    );
    layer.set(
        "optimizer.model_invocations_per_job",
        counters.model_invocations_per_job,
    );
    layer.set(
        "enumerate.alternatives_per_job",
        counters.alternatives_per_job,
    );
    record_routing(fx, layer);
}

/// The router's exact routing counters so far.
pub fn record_routing(fx: &Fixtures, layer: &mut Sheet) {
    let routing = fx.router.routing_stats();
    layer.set("sharding.router.own_hits", routing.own_hits as f64);
    layer.set("sharding.router.donor_hits", routing.donor_hits as f64);
    layer.set(
        "sharding.router.fallback_hits",
        routing.fallback_hits as f64,
    );
}

/// Repetitions per micro-probe; the median is reported.
const REPS: usize = 3;

/// Median wall time of `work` over `REPS` runs, in nanoseconds.
fn median_ns(mut work: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&times)
}

/// Jobs whose plans the probes replay, and feature rows the mlkit probes
/// predict (a sixteenth of each in a smoke run).
const PROBE_JOBS: usize = 256;
const PROBE_ROWS: usize = 4096;
/// Candidate partition counts of a probe sweep.
const SWEEP: usize = 32;

/// Replay single layers over the workload's own jobs and operators.  None of
/// these depend on which workload ran; they are the unit costs the budget
/// rows are made of.
pub fn replay_probes(fx: &Fixtures, smoke: bool, layer: &mut Sheet) {
    let shrink = if smoke { 16 } else { 1 };
    let config = OptimizerConfig::resource_aware();
    let models = fx.learned_models();
    let plans: Vec<PhysicalPlan> = fx
        .stream
        .iter()
        .take(PROBE_JOBS / shrink)
        .map(|job| {
            let model = &models[job.meta.cluster.0 as usize];
            Optimizer::new(model.as_ref(), config)
                .optimize(job)
                .expect("probe optimization")
                .plan
        })
        .collect();
    let ops: Vec<(&PhysicalNode, &JobMeta)> = plans
        .iter()
        .flat_map(|p| p.operators().into_iter().map(move |op| (op, &p.meta)))
        .collect();
    let n_ops = ops.len() as f64;
    let candidates: Vec<usize> = (1..=SWEEP).map(|i| i * 8).collect();

    // signature, features
    layer.set(
        "signature.set_ns_per_op",
        median_ns(|| {
            for (node, meta) in &ops {
                std::hint::black_box(signature_set(node, meta));
            }
        }) / n_ops,
    );
    layer.set(
        "features.template_ns_per_op",
        median_ns(|| {
            for (node, meta) in &ops {
                std::hint::black_box(SweepFeatures::new(node, meta, input_encoding(meta)));
            }
        }) / n_ops,
    );
    let templates: Vec<SweepFeatures> = ops
        .iter()
        .map(|(node, meta)| SweepFeatures::new(node, meta, input_encoding(meta)))
        .collect();
    let mut matrix = FeatureMatrix::with_capacity(feature_count(), ops.len() * SWEEP);
    layer.set(
        "features.row_ns",
        median_ns(|| {
            matrix.reset(feature_count());
            for template in &templates {
                for &p in &candidates {
                    matrix.push_row_with(|dst| template.write_row(p, dst));
                }
            }
        }) / (n_ops * SWEEP as f64),
    );

    // models: whole-predictor sweeps
    let mut scratch = PredictScratch::new();
    let mut sweep = |parts: &[usize]| {
        median_ns(|| {
            for (node, meta) in &ops {
                let predictor = models[meta.cluster.0 as usize].predictor();
                std::hint::black_box(predictor.predict_candidates_with(
                    node,
                    parts,
                    meta,
                    &mut scratch,
                ));
            }
        }) / (n_ops * parts.len() as f64)
    };
    layer.set("models.predict_ns_per_row", sweep(&candidates));
    layer.set("models.predict_ns_per_row_1cand", sweep(&candidates[..1]));

    // mlkit: one elastic net and one FastTree ensemble over the same rows
    let rows: Vec<Vec<f64>> = matrix
        .rows()
        .take(PROBE_ROWS / shrink)
        .map(<[f64]>::to_vec)
        .collect();
    let targets: Vec<f64> = rows.iter().map(|r| 1.0 + r[0].abs().ln_1p()).collect();
    let data =
        Dataset::from_rows(feature_name_strings().to_vec(), rows, targets).expect("probe dataset");
    let mut probe_rows = FeatureMatrix::with_capacity(feature_count(), data.n_rows());
    (0..data.n_rows()).for_each(|i| probe_rows.push_row(data.row(i)));
    let mut out = Vec::with_capacity(data.n_rows());
    let mut enet = ElasticNet::paper_default();
    enet.fit(&data).expect("probe elastic net");
    layer.set(
        "mlkit.enet_ns_per_row",
        median_ns(|| {
            out.clear();
            enet.predict_batch_clamped_into(&probe_rows, &mut out, 0.0, f64::MAX);
        }) / data.n_rows() as f64,
    );
    let mut trees = FastTreeRegressor::paper_default(7);
    trees.fit(&data).expect("probe FastTree");
    layer.set(
        "mlkit.fasttree_ns_per_row",
        median_ns(|| {
            out.clear();
            trees.predict_batch_into(&probe_rows, &mut out);
        }) / data.n_rows() as f64,
    );
    layer.set(
        "mlkit.simd_lanes",
        match active_isa() {
            Isa::Scalar => 1.0,
            Isa::Avx2 => 4.0,
            Isa::Avx512 => 8.0,
        },
    );

    // integration: one sweep call per operator, first on an empty prediction
    // cache (all misses), then again (all hits)
    let fresh: Vec<LearnedCostModel> = models
        .iter()
        .map(|m| LearnedCostModel::new(m.shared_predictor()))
        .collect();
    let call_all = || {
        let start = Instant::now();
        for (node, meta) in &ops {
            std::hint::black_box(fresh[meta.cluster.0 as usize].exclusive_cost_batch(
                node,
                &candidates,
                meta,
            ));
        }
        start.elapsed().as_nanos() as f64 / n_ops
    };
    let mut miss_ns = Vec::new();
    let mut hit_ns = Vec::new();
    for _ in 0..REPS {
        fresh.iter().for_each(LearnedCostModel::clear_cache);
        miss_ns.push(call_all());
        hit_ns.push(call_all());
    }
    layer.set("integration.miss_call_ns", stats::median(&miss_ns));
    layer.set("integration.hit_call_ns", stats::median(&hit_ns));

    // sharding.router and the worker-local snapshot cache, on a router of the
    // probe's own over the same shards (the workload's counters stay exact)
    let router =
        ClusterRouter::with_uniform_similarity(Arc::clone(fx.router.registry()), default_model());
    let metas: Vec<&JobMeta> = fx.stream.iter().map(|j| &j.meta).collect();
    let n_metas = metas.len() as f64;
    layer.set(
        "sharding.router.route_ns",
        median_ns(|| {
            for meta in &metas {
                std::hint::black_box(router.snapshot_for(meta));
            }
        }) / n_metas,
    );
    layer.set(
        "sharding.router.stamp_ns",
        median_ns(|| {
            for meta in &metas {
                std::hint::black_box(router.route_stamp(meta));
            }
        }) / n_metas,
    );
    let mut cache = SnapshotCache::new();
    layer.set(
        "provider.snapshot_cache_get_ns",
        median_ns(|| {
            for meta in &metas {
                std::hint::black_box(cache.get(&router, meta).version);
            }
        }) / n_metas,
    );

    // exec
    layer.set(
        "exec.simulate_us_per_job",
        median_ns(|| {
            for plan in &plans {
                std::hint::black_box(fx.simulator.run(plan));
            }
        }) / plans.len() as f64
            / 1e3,
    );

    telemetry_probes(fx, layer);
    registry_probes(fx, layer);
}

/// telemetry_io and ingest over cluster 0's test-day telemetry.
fn telemetry_probes(fx: &Fixtures, layer: &mut Sheet) {
    let test_day = DayIndex(fx.days - 1);
    let log = fx.clusters[0].telemetry.slice_days(test_day, test_day);
    let jobs = log.len() as f64;
    let per_s = |ns: f64| jobs / (ns / 1e9);

    let ndjson = telemetry_io::write_ndjson(&log);
    let binary = telemetry_io::write_binary(&log);
    layer.set(
        "telemetry_io.ndjson_encode_jobs_per_s",
        per_s(median_ns(|| {
            std::hint::black_box(telemetry_io::write_ndjson(&log));
        })),
    );
    layer.set(
        "telemetry_io.clt1_encode_jobs_per_s",
        per_s(median_ns(|| {
            std::hint::black_box(telemetry_io::write_binary(&log));
        })),
    );
    let parse = |buf: &[u8], format: WireFormat, threads: usize| {
        median_ns(|| {
            std::hint::black_box(
                cleo_core::parse_telemetry(buf, format, threads).expect("probe parse"),
            );
        })
    };
    let ndjson_1 = parse(ndjson.as_bytes(), WireFormat::Ndjson, 1);
    let binary_1 = parse(&binary, WireFormat::Binary, 1);
    layer.set("telemetry_io.ndjson_decode_jobs_per_s", per_s(ndjson_1));
    layer.set("telemetry_io.clt1_decode_jobs_per_s", per_s(binary_1));
    layer.set(
        "ingest.parallel_speedup_ndjson",
        ndjson_1 / parse(ndjson.as_bytes(), WireFormat::Ndjson, 2),
    );
    layer.set(
        "ingest.parallel_speedup_clt1",
        binary_1 / parse(&binary, WireFormat::Binary, 2),
    );
    let scan_ns = median_ns(|| {
        std::hint::black_box(telemetry_io::scan_ndjson(ndjson.as_bytes()).expect("probe scan"));
    });
    layer.set(
        "telemetry_io.ndjson_scan_mb_per_s",
        ndjson.len() as f64 / 1e6 / (scan_ns / 1e9),
    );
    let (_, quarantine) = cleo_core::parse_telemetry_quarantine(
        ndjson.as_bytes(),
        WireFormat::Ndjson,
        1,
        &QuarantinePolicy::default(),
        None,
    )
    .expect("probe quarantine parse");
    layer.set("ingest.quarantined", quarantine.total as f64);
}

/// registry publish (full and delta) and the snapshot codec, on a registry of
/// the probe's own holding cluster 0's predictor.
fn registry_probes(fx: &Fixtures, layer: &mut Sheet) {
    let predictor = fx.learned_models()[0].shared_predictor();
    let holdout = HoldoutMetrics {
        correlation: 0.0,
        median_error_pct: 0.0,
        sample_count: 0,
    };
    let registry = ModelRegistry::new();
    layer.set(
        "registry.publish_us",
        median_ns(|| {
            registry.publish(Arc::clone(&predictor), 0, holdout);
        }) / 1e3,
    );

    // A delta that re-ships eight signatures per family unchanged.
    let families = ModelFamily::all();
    let payload: Vec<_> = families
        .iter()
        .map(|&family| {
            let mut store = predictor.store(family).cloned().unwrap_or_default();
            let keep: Vec<u64> = store.signatures().into_iter().take(8).collect();
            store.retain(|signature| keep.contains(&signature));
            store
        })
        .collect();
    let changed: Vec<(ModelFamily, u64, u64)> = families
        .iter()
        .zip(&payload)
        .flat_map(|(&family, store)| {
            store.signatures().into_iter().map(move |signature| {
                let fingerprint = store.fingerprint_of(signature).expect("listed signature");
                (family, signature, fingerprint)
            })
        })
        .collect();
    layer.set(
        "registry.publish_delta_us",
        median_ns(|| {
            let delta = ModelDelta {
                base_version: registry.current_version(),
                epoch: 0,
                payload: payload.clone(),
                changed: changed.clone(),
                dropped_regressions: 0,
            };
            registry
                .publish_delta(&delta, holdout)
                .expect("probe delta publish");
        }) / 1e3,
    );

    let shard = &fx.clusters[0].registry;
    let bytes = shard.snapshot_bytes().expect("probe snapshot");
    layer.set("snapshot_io.bytes", bytes.len() as f64);
    layer.set(
        "snapshot_io.encode_ms",
        median_ns(|| {
            std::hint::black_box(shard.snapshot_bytes().expect("probe snapshot"));
        }) / 1e6,
    );
    layer.set(
        "snapshot_io.decode_ms",
        median_ns(|| {
            std::hint::black_box(
                ModelRegistry::from_snapshot_bytes(&bytes).expect("probe restore"),
            );
        }) / 1e6,
    );
}
