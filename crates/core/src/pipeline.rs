//! One-shot pipeline runs and evaluation helpers.
//!
//! Section 5.1 describes Cleo's deployment loop: instrument runs → train models on a
//! window of telemetry → feed the models back to the optimizer → plans improve → new
//! telemetry.  The *continuous* version of that loop is [`crate::feedback`]; this
//! module provides single turns of it ([`run_jobs`] / [`run_jobs_shared`] — the
//! latter is the serving path the feedback loop itself uses) plus the evaluation
//! helpers the experiment runners share (per-family accuracy/coverage in the same
//! vocabulary as Tables 5, 7 and 8).

use cleo_common::stats;
use cleo_common::Result;
use cleo_engine::exec::Simulator;
use cleo_engine::telemetry::{JobTelemetry, ModelProvenance, TelemetryLog};
use cleo_engine::workload::JobSpec;
use std::sync::Arc;

use cleo_optimizer::{CostModel, CostModelProvider, Optimizer, OptimizerConfig, SharedOptimizer};

use crate::models::{CleoPredictor, OperatorSample};
use crate::signature::ModelFamily;
use crate::trainer::{CleoTrainer, TrainerConfig};

/// Optimize and simulate a set of jobs with a given cost model, producing telemetry.
///
/// The one-shot borrowed-model path (no provenance stamps, serial).  Continuous
/// serving against a mutable model registry goes through [`run_jobs_shared`].
pub fn run_jobs(
    jobs: &[&JobSpec],
    cost_model: &dyn CostModel,
    optimizer_config: OptimizerConfig,
    simulator: &Simulator,
) -> Result<TelemetryLog> {
    let optimizer = Optimizer::new(cost_model, optimizer_config);
    let mut log = TelemetryLog::new();
    for job in jobs {
        let optimized = optimizer.optimize(job)?;
        let run = simulator.run(&optimized.plan);
        log.push(JobTelemetry::new(optimized.plan, run));
    }
    Ok(log)
}

/// Optimize and simulate a set of jobs against a [`CostModelProvider`] through a
/// [`SharedOptimizer`] — the serve step of every feedback loop.
///
/// Jobs are optimized across `threads` OS threads (0 = all cores), each against the
/// provider's model snapshot at the moment it starts; simulation then runs in job
/// order (the simulator derives its noise stream per job id, so the thread schedule
/// cannot leak into the telemetry).  Every record is stamped with `epoch` and the
/// registry version that optimized its plan.
pub fn run_jobs_shared(
    jobs: &[&JobSpec],
    provider: Arc<dyn CostModelProvider>,
    optimizer_config: OptimizerConfig,
    simulator: &Simulator,
    epoch: u32,
    threads: usize,
) -> Result<TelemetryLog> {
    let optimized = SharedOptimizer::new(provider, optimizer_config).optimize_all(jobs, threads)?;
    let mut log = TelemetryLog::new();
    for plan in optimized {
        let run = simulator.run(&plan.plan);
        log.push(JobTelemetry::with_provenance(
            plan.plan,
            run,
            ModelProvenance {
                epoch,
                model_version: plan.stats.model_version,
                model_cluster: plan.stats.model_cluster,
                delta_base: plan.stats.model_delta_base,
            },
        ));
    }
    Ok(log)
}

/// [`run_jobs_shared`] outside any feedback epoch (epoch 0).
///
/// This is how the experiment runners exercise the registry and the prediction
/// cache: a provider backed by a [`crate::registry::ModelRegistry`] (or the
/// sharded tier's [`crate::sharding::ClusterRouter`]) serves every job the same
/// way the continuous loop does, instead of borrowing a model directly.
pub fn serve_jobs(
    jobs: &[&JobSpec],
    provider: Arc<dyn CostModelProvider>,
    optimizer_config: OptimizerConfig,
    simulator: &Simulator,
    threads: usize,
) -> Result<TelemetryLog> {
    run_jobs_shared(jobs, provider, optimizer_config, simulator, 0, threads)
}

/// Accuracy and coverage of one model (or model family) over an evaluation set,
/// in the vocabulary of Tables 5, 7 and 8.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEvaluation {
    /// Model name.
    pub name: String,
    /// Pearson correlation between predictions and actual exclusive latencies
    /// (covered operators only).
    pub correlation: f64,
    /// Median relative error (%) over covered operators.
    pub median_error_pct: f64,
    /// 95th-percentile relative error (%) over covered operators.
    pub p95_error_pct: f64,
    /// Fraction of operator instances covered by the model.
    pub coverage: f64,
    /// Paired (prediction, actual) values for CDF plots.
    pub pairs: Vec<(f64, f64)>,
}

impl ModelEvaluation {
    fn from_pairs(name: impl Into<String>, pairs: Vec<(f64, f64)>, total: usize) -> Self {
        let preds: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let actuals: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        ModelEvaluation {
            name: name.into(),
            correlation: stats::pearson(&preds, &actuals),
            median_error_pct: stats::median_error_pct(&preds, &actuals),
            p95_error_pct: stats::percentile_error_pct(&preds, &actuals, 0.95),
            coverage: if total == 0 {
                0.0
            } else {
                pairs.len() as f64 / total as f64
            },
            pairs,
        }
    }
}

/// Evaluate every individual family plus the combined model of a trained predictor
/// over a telemetry log (typically a later day than the training window).
pub fn evaluate_predictor(predictor: &CleoPredictor, log: &TelemetryLog) -> Vec<ModelEvaluation> {
    let samples = CleoTrainer::collect_samples(log);
    let total = samples.len();
    let mut per_family: Vec<(ModelFamily, Vec<(f64, f64)>)> = ModelFamily::all()
        .into_iter()
        .map(|f| (f, Vec::new()))
        .collect();
    let mut combined_pairs = Vec::with_capacity(total);

    for sample in &samples {
        let breakdown = predictor.predict_from_parts(&sample.signatures, &sample.features);
        for (family, pairs) in per_family.iter_mut() {
            if let Some(pred) = breakdown.family(*family) {
                pairs.push((pred, sample.exclusive_seconds));
            }
        }
        combined_pairs.push((breakdown.combined, sample.exclusive_seconds));
    }

    let mut out: Vec<ModelEvaluation> = per_family
        .into_iter()
        .map(|(family, pairs)| ModelEvaluation::from_pairs(family.name(), pairs, total))
        .collect();
    out.push(ModelEvaluation::from_pairs(
        "Combined",
        combined_pairs,
        total,
    ));
    out
}

/// Evaluate a hand-written cost model (default / manually tuned) against the actual
/// exclusive latencies of a telemetry log.
pub fn evaluate_cost_model(cost_model: &dyn CostModel, log: &TelemetryLog) -> ModelEvaluation {
    evaluate_cost_model_jobs(cost_model, log.jobs())
}

/// Evaluate a cost model over borrowed telemetry records (the zero-copy variant
/// the feedback loop's publish guard uses on its holdout slice).
pub fn evaluate_cost_model_jobs<'a>(
    cost_model: &dyn CostModel,
    jobs: impl IntoIterator<Item = &'a JobTelemetry>,
) -> ModelEvaluation {
    let mut pairs = Vec::new();
    for job in jobs {
        for (node, latency) in job.operator_samples() {
            let pred = cost_model.exclusive_cost(node, node.partition_count, &job.plan.meta);
            pairs.push((pred, latency));
        }
    }
    let total = pairs.len();
    ModelEvaluation::from_pairs(cost_model.name().to_string(), pairs, total)
}

/// The Cleo feedback loop: train a predictor on one telemetry window.
pub fn train_predictor(log: &TelemetryLog, config: TrainerConfig) -> Result<CleoPredictor> {
    CleoTrainer::new(config).train(log)
}

/// Collect all operator samples of a log (re-exported convenience).
pub fn collect_samples(log: &TelemetryLog) -> Vec<OperatorSample> {
    CleoTrainer::collect_samples(log)
}

/// Per-job latency/processing-time comparison between two executions of the same
/// workload (used for Figures 19 and 20).
#[derive(Debug, Clone, PartialEq)]
pub struct JobComparison {
    /// Job name.
    pub name: String,
    /// Baseline end-to-end latency (seconds).
    pub baseline_latency: f64,
    /// New end-to-end latency (seconds).
    pub new_latency: f64,
    /// Baseline total processing time (container-seconds).
    pub baseline_cpu: f64,
    /// New total processing time (container-seconds).
    pub new_cpu: f64,
    /// Whether the physical plan changed at all.
    pub plan_changed: bool,
}

impl JobComparison {
    /// Latency improvement in percent (positive = faster with the new plans).
    pub fn latency_improvement_pct(&self) -> f64 {
        if self.baseline_latency <= 0.0 {
            return 0.0;
        }
        (self.baseline_latency - self.new_latency) / self.baseline_latency * 100.0
    }

    /// Processing-time improvement in percent.
    pub fn cpu_improvement_pct(&self) -> f64 {
        if self.baseline_cpu <= 0.0 {
            return 0.0;
        }
        (self.baseline_cpu - self.new_cpu) / self.baseline_cpu * 100.0
    }
}

/// Compare two telemetry logs of the same job list (baseline vs. new cost model).
pub fn compare_runs(baseline: &TelemetryLog, new: &TelemetryLog) -> Vec<JobComparison> {
    baseline
        .jobs()
        .iter()
        .zip(new.jobs().iter())
        .map(|(b, n)| {
            let structurally_equal = b.plan.op_count() == n.plan.op_count()
                && b.plan
                    .operators()
                    .iter()
                    .zip(n.plan.operators().iter())
                    .all(|(x, y)| x.kind == y.kind && x.partition_count == y.partition_count);
            JobComparison {
                name: b.plan.meta.name.clone(),
                baseline_latency: b.run.job_latency,
                new_latency: n.run.job_latency,
                baseline_cpu: b.run.total_cpu_seconds,
                new_cpu: n.run.total_cpu_seconds,
                plan_changed: !structurally_equal,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integration::LearnedCostModel;
    use cleo_engine::exec::SimulatorConfig;
    use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
    use cleo_engine::{ClusterId, DayIndex};
    use cleo_optimizer::HeuristicCostModel;

    #[test]
    fn feedback_loop_learned_models_beat_default_cost_model() {
        // Generate a 3-day workload; train on days 0-1; evaluate on day 2.
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 3);
        let default_model = HeuristicCostModel::default_model();
        let simulator = Simulator::new(SimulatorConfig::default());

        let all_jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
        let log = run_jobs(
            &all_jobs,
            &default_model,
            OptimizerConfig::default(),
            &simulator,
        )
        .unwrap();
        let train_log = log.slice_days(DayIndex(0), DayIndex(1));
        let test_log = log.slice_days(DayIndex(2), DayIndex(2));
        assert!(!train_log.is_empty() && !test_log.is_empty());

        let predictor = train_predictor(&train_log, TrainerConfig::default()).unwrap();
        let learned_evals = evaluate_predictor(&predictor, &test_log);
        let default_eval = evaluate_cost_model(&default_model, &test_log);
        for e in learned_evals.iter().chain(std::iter::once(&default_eval)) {
            eprintln!(
                "model {:<20} corr {:.3} med {:.1}% p95 {:.1}% cov {:.2}",
                e.name, e.correlation, e.median_error_pct, e.p95_error_pct, e.coverage
            );
        }

        let combined = learned_evals.iter().find(|e| e.name == "Combined").unwrap();
        assert!(
            combined.correlation > default_eval.correlation + 0.2,
            "combined {} vs default {}",
            combined.correlation,
            default_eval.correlation
        );
        assert!(
            combined.median_error_pct < default_eval.median_error_pct,
            "combined {}% vs default {}%",
            combined.median_error_pct,
            default_eval.median_error_pct
        );
        assert!(
            (combined.coverage - 1.0).abs() < 1e-9,
            "combined covers everything"
        );

        // Specialisation ordering: subgraph coverage < input coverage <= operator coverage.
        let coverage = |name: &str| {
            learned_evals
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.coverage)
                .unwrap()
        };
        assert!(coverage("Op-Subgraph") <= coverage("Op-Input") + 1e-9);
        // The operator family covers every instance whose physical operator kind was
        // seen often enough in training (rare kinds like MergeJoin can be missing on a
        // small two-day window, so "close to full" rather than exactly 1.0).
        assert!(coverage("Operator") > 0.9);

        // The learned model can then drive the optimizer end to end.
        let learned_cost = LearnedCostModel::new(predictor);
        let relearned_log = run_jobs(
            &all_jobs[..10],
            &learned_cost,
            OptimizerConfig::resource_aware(),
            &simulator,
        )
        .unwrap();
        assert_eq!(relearned_log.len(), 10);
        let comparisons = compare_runs(&log.slice_days(DayIndex(0), DayIndex(0)), &relearned_log);
        assert_eq!(comparisons.len(), 10);
        // Improvement percentages are well defined.
        for c in &comparisons {
            assert!(c.latency_improvement_pct().is_finite());
            assert!(c.cpu_improvement_pct().is_finite());
        }
    }

    #[test]
    fn comparison_percentages() {
        let c = JobComparison {
            name: "j".into(),
            baseline_latency: 100.0,
            new_latency: 80.0,
            baseline_cpu: 1000.0,
            new_cpu: 1200.0,
            plan_changed: true,
        };
        assert!((c.latency_improvement_pct() - 20.0).abs() < 1e-9);
        assert!((c.cpu_improvement_pct() + 20.0).abs() < 1e-9);
    }
}
