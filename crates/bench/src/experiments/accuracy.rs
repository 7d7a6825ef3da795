//! Accuracy experiments: Figures 1, 7, 11, 12, 13, 14, 15 and Tables 4, 5, 6, 7, 8.
//!
//! All job execution goes through the shared-serving path
//! ([`pipeline::serve_jobs`]): hand-written models behind a
//! [`FixedCostModel`] provider, learned models behind a registry provider — so
//! every runner exercises the same serving seam (and prediction cache) as the
//! deployment loop.

use std::collections::BTreeMap;
use std::sync::Arc;

use cleo_common::cdf::RatioCdf;
use cleo_common::stats;
use cleo_common::table::{fnum, fpct, TextTable};
use cleo_common::Result;

use cleo_core::trainer::TrainerConfig;
use cleo_core::{pipeline, CardLearner, CleoTrainer, ModelFamily};
use cleo_engine::workload::JobSpec;
use cleo_engine::DayIndex;
use cleo_mlkit::cv::kfold_cross_validate;
use cleo_mlkit::{Dataset, RegressorKind};
use cleo_optimizer::{CostModelProvider, FixedCostModel, HeuristicCostModel, OptimizerConfig};

use crate::context::ExperimentContext;

/// Wrap a hand-written model in the trivial (version 0) serving provider.
fn fixed_provider(model: HeuristicCostModel) -> Arc<dyn CostModelProvider> {
    Arc::new(FixedCostModel::new(Arc::new(model)))
}

/// Render a CDF summary line for a set of (prediction, actual) pairs.
fn cdf_row(name: &str, pairs: &[(f64, f64)]) -> Vec<String> {
    let preds: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let acts: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let cdf = RatioCdf::from_pairs(&preds, &acts);
    let (lo, hi) = cdf.range();
    vec![
        name.to_string(),
        fnum(stats::pearson(&preds, &acts), 3),
        fpct(stats::median_error_pct(&preds, &acts)),
        fnum(cdf.under_estimation_fraction(), 2),
        fnum(cdf.fraction_within_factor(2.0), 2),
        format!("{lo:.3}"),
        format!("{hi:.1}"),
    ]
}

/// Figure 1: default vs manually-tuned cost model, with and without perfect
/// cardinality feedback.
pub fn fig1(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let simulator = &ctx.simulator;
    let jobs: Vec<&JobSpec> = cluster
        .workload
        .jobs
        .iter()
        .filter(|j| j.meta.day == DayIndex(0))
        .collect();
    let default = HeuristicCostModel::default_model();
    let tuned = HeuristicCostModel::manually_tuned();

    let mut table = TextTable::new(
        "Figure 1: cost model accuracy (estimated/actual ratio distribution)",
        &[
            "Model",
            "Pearson",
            "MedianErr",
            "UnderEst",
            "Within2x",
            "MinRatio",
            "MaxRatio",
        ],
    );
    for (name, model, perfect) in [
        ("Default", &default, false),
        ("Manually tuned", &tuned, false),
        ("Default + actual cards", &default, true),
        ("Tuned + actual cards", &tuned, true),
    ] {
        let cfg = OptimizerConfig {
            use_actual_cardinalities: perfect,
            ..OptimizerConfig::default()
        };
        let log = pipeline::serve_jobs(&jobs, fixed_provider(model.clone()), cfg, simulator, 0)?;
        let eval = pipeline::evaluate_cost_model(model, &log);
        table.add_row(&cdf_row(name, &eval.pairs));
    }
    Ok(table.render())
}

/// Table 4 (and the per-algorithm part of Figure 11): 5-fold CV of the five ML
/// algorithms on operator-subgraph groups of cluster 4.
pub fn tab4(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(3);
    let samples = CleoTrainer::collect_samples(&cluster.train_log);
    // Group samples by their subgraph signature and keep groups big enough for
    // CV, taken in signature order so the table repeats from run to run.
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in samples.iter().enumerate() {
        groups.entry(s.signatures.op_subgraph).or_default().push(i);
    }
    let mut table = TextTable::new(
        "Table 4: ML algorithms for operator-subgraph models (5-fold CV, cluster 4)",
        &["Model", "Correlation", "Median Error"],
    );
    let default_eval =
        pipeline::evaluate_cost_model(&HeuristicCostModel::default_model(), &cluster.train_log);
    table.add_row(&[
        "Default".to_string(),
        fnum(default_eval.correlation, 2),
        fpct(default_eval.median_error_pct),
    ]);
    for kind in RegressorKind::all() {
        let mut preds = Vec::new();
        let mut acts = Vec::new();
        for idx in groups.values().filter(|g| g.len() >= 10).take(40) {
            let targets: Vec<f64> = idx.iter().map(|&i| samples[i].exclusive_seconds).collect();
            let data = Dataset::from_row_refs(
                cleo_core::feature_name_strings(),
                idx.iter().map(|&i| samples[i].features.as_slice()),
                targets,
            )?;
            if let Ok(cv) = kfold_cross_validate(&data, 5, 7, |fold| kind.build(fold as u64)) {
                preds.extend(cv.predictions);
                acts.extend(cv.actuals);
            }
        }
        table.add_row(&[
            kind.name().to_string(),
            fnum(stats::pearson(&preds, &acts), 2),
            fpct(stats::median_error_pct(&preds, &acts)),
        ]);
    }
    Ok(table.render())
}

/// Table 5: correlation, median error, and coverage of each learned model family and
/// the combined model, against the default cost model (cluster 1).
pub fn tab5(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let mut table = TextTable::new(
        "Table 5: performance of learned models w.r.t. actual runtimes (cluster 1, test day)",
        &["Model", "Correlation", "Median Error", "Coverage"],
    );
    let default_eval =
        pipeline::evaluate_cost_model(&HeuristicCostModel::default_model(), &cluster.test_log);
    table.add_row(&[
        "Default".to_string(),
        fnum(default_eval.correlation, 2),
        fpct(default_eval.median_error_pct),
        "100%".to_string(),
    ]);
    for eval in pipeline::evaluate_predictor(&cluster.predictor, &cluster.test_log) {
        table.add_row(&[
            eval.name.clone(),
            fnum(eval.correlation, 2),
            fpct(eval.median_error_pct),
            format!("{:.0}%", eval.coverage * 100.0),
        ]);
    }
    Ok(table.render())
}

/// Table 6: ML algorithms as the combined meta-learner.
pub fn tab6(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let train_samples = CleoTrainer::collect_samples(&cluster.train_log);
    let test_samples = CleoTrainer::collect_samples(&cluster.test_log);
    // Meta-features: the individual model predictions plus cardinalities/partitions.
    let meta_features = |s: &cleo_core::OperatorSample| -> Vec<f64> {
        let b = cluster
            .predictor
            .predict_from_parts(&s.signatures, &s.features);
        let i = s.features[0];
        let base = s.features[1];
        let c = s.features[2];
        let p = s.features[4].max(1.0);
        vec![
            b.op_subgraph.unwrap_or(0.0),
            b.op_subgraph.is_some() as u8 as f64,
            b.op_subgraph_approx.unwrap_or(0.0),
            b.op_input.unwrap_or(0.0),
            b.operator.unwrap_or(0.0),
            i,
            base,
            c,
            i / p,
            c / p,
            p,
        ]
    };
    let meta_names: Vec<String> = vec![
        "pred_sub",
        "has_sub",
        "pred_approx",
        "pred_input",
        "pred_op",
        "I",
        "B",
        "C",
        "I/P",
        "C/P",
        "P",
    ]
    .into_iter()
    .map(String::from)
    .collect();

    let train_rows: Vec<Vec<f64>> = train_samples.iter().map(&meta_features).collect();
    let train_targets: Vec<f64> = train_samples.iter().map(|s| s.exclusive_seconds).collect();
    let train = Dataset::from_rows(meta_names.clone(), train_rows, train_targets)?;
    let test_rows: Vec<Vec<f64>> = test_samples.iter().map(&meta_features).collect();
    let test_targets: Vec<f64> = test_samples.iter().map(|s| s.exclusive_seconds).collect();

    let mut table = TextTable::new(
        "Table 6: ML algorithms as the combined meta-learner (cluster 1)",
        &["Model", "Correlation", "Median Error"],
    );
    let default_eval =
        pipeline::evaluate_cost_model(&HeuristicCostModel::default_model(), &cluster.test_log);
    table.add_row(&[
        "Default".to_string(),
        fnum(default_eval.correlation, 2),
        fpct(default_eval.median_error_pct),
    ]);
    for kind in RegressorKind::all() {
        let mut model = kind.build(11);
        model.fit(&train)?;
        let preds: Vec<f64> = test_rows.iter().map(|r| model.predict_row(r)).collect();
        table.add_row(&[
            kind.name().to_string(),
            fnum(stats::pearson(&preds, &test_targets), 2),
            fpct(stats::median_error_pct(&preds, &test_targets)),
        ]);
    }
    Ok(table.render())
}

/// Figure 7: error "heatmap" summarised as error-bucket fractions per model family.
pub fn fig7(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let evals = pipeline::evaluate_predictor(&cluster.predictor, &cluster.test_log);
    let total = CleoTrainer::collect_samples(&cluster.test_log).len().max(1);
    let mut table = TextTable::new(
        "Figure 7: error distribution over operator instances (fractions of all operators)",
        &["Model", "<25%", "25-100%", ">100%", "no coverage"],
    );
    for eval in &evals {
        let mut buckets = [0usize; 3];
        for (p, a) in &eval.pairs {
            let err = stats::relative_error_pct(*p, *a);
            if err < 25.0 {
                buckets[0] += 1;
            } else if err < 100.0 {
                buckets[1] += 1;
            } else {
                buckets[2] += 1;
            }
        }
        let covered = eval.pairs.len();
        table.add_row(&[
            eval.name.clone(),
            fnum(buckets[0] as f64 / total as f64, 2),
            fnum(buckets[1] as f64 / total as f64, 2),
            fnum(buckets[2] as f64 / total as f64, 2),
            fnum((total - covered) as f64 / total as f64, 2),
        ]);
    }
    Ok(table.render())
}

/// Figure 11: cross-validation accuracy CDF summaries of the ML algorithms for each
/// model family (cluster 4).  Reported as "fraction of predictions within 2× of the
/// actual" per algorithm and family.
pub fn fig11(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(3);
    let samples = CleoTrainer::collect_samples(&cluster.train_log);

    let mut table = TextTable::new(
        "Figure 11: CV accuracy by ML algorithm and model family (cluster 4, within-2x fraction)",
        &["Algorithm", "Op-Subgraph", "Op-Input", "Operator"],
    );
    for kind in RegressorKind::all() {
        let mut cells = vec![kind.name().to_string()];
        for family in [
            ModelFamily::OpSubgraph,
            ModelFamily::OpInput,
            ModelFamily::Operator,
        ] {
            // Signature order: the groups CV runs on repeat from run to run.
            let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, s) in samples.iter().enumerate() {
                groups
                    .entry(s.signatures.for_family(family))
                    .or_default()
                    .push(i);
            }
            let mut preds = Vec::new();
            let mut acts = Vec::new();
            for idx in groups.values().filter(|g| g.len() >= 10).take(25) {
                let targets: Vec<f64> = idx.iter().map(|&i| samples[i].exclusive_seconds).collect();
                let data = Dataset::from_row_refs(
                    cleo_core::feature_name_strings(),
                    idx.iter().map(|&i| samples[i].features.as_slice()),
                    targets,
                )?;
                if let Ok(cv) = kfold_cross_validate(&data, 5, 3, |fold| kind.build(fold as u64)) {
                    preds.extend(cv.predictions);
                    acts.extend(cv.actuals);
                }
            }
            let cdf = RatioCdf::from_pairs(&preds, &acts);
            cells.push(fnum(cdf.fraction_within_factor(2.0), 2));
        }
        table.add_row(&cells);
    }
    Ok(table.render())
}

/// Figures 12 (all jobs) and 13 (ad-hoc only): accuracy across the four clusters.
pub fn fig12(ctx: &ExperimentContext, all_jobs: bool) -> Result<String> {
    let title = if all_jobs {
        "Figure 12: accuracy on all jobs (test day), per cluster"
    } else {
        "Figure 13: accuracy on ad-hoc jobs only (test day), per cluster"
    };
    let mut table = TextTable::new(
        title,
        &["Cluster", "Model", "Pearson", "MedianErr", "Within2x"],
    );
    for (i, cluster) in ctx.clusters.iter().enumerate() {
        let log = if all_jobs {
            cluster.test_log.clone()
        } else {
            cluster.test_log.filter_recurring(false)
        };
        if log.is_empty() {
            continue;
        }
        let default_eval =
            pipeline::evaluate_cost_model(&HeuristicCostModel::default_model(), &log);
        let evals = pipeline::evaluate_predictor(&cluster.predictor, &log);
        for eval in std::iter::once(&default_eval).chain(evals.iter()) {
            let preds: Vec<f64> = eval.pairs.iter().map(|p| p.0).collect();
            let acts: Vec<f64> = eval.pairs.iter().map(|p| p.1).collect();
            let cdf = RatioCdf::from_pairs(&preds, &acts);
            table.add_row(&[
                format!("Cluster{}", i + 1),
                eval.name.clone(),
                fnum(eval.correlation, 2),
                fpct(eval.median_error_pct),
                fnum(cdf.fraction_within_factor(2.0), 2),
            ]);
        }
    }
    Ok(table.render())
}

/// Table 7: per-model accuracy/coverage breakdown, all jobs vs ad-hoc jobs (cluster 1).
pub fn tab7(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let mut table = TextTable::new(
        "Table 7: accuracy and coverage per learned model, all vs ad-hoc jobs (cluster 1)",
        &[
            "Jobs",
            "Model",
            "Correlation",
            "Median Error",
            "95%tile Error",
            "Coverage",
        ],
    );
    for (label, log) in [
        ("All", cluster.test_log.clone()),
        ("Ad-hoc", cluster.test_log.filter_recurring(false)),
    ] {
        if log.is_empty() {
            continue;
        }
        let default_eval =
            pipeline::evaluate_cost_model(&HeuristicCostModel::default_model(), &log);
        table.add_row(&[
            label.to_string(),
            "Default".to_string(),
            fnum(default_eval.correlation, 2),
            fpct(default_eval.median_error_pct),
            fpct(default_eval.p95_error_pct),
            "100%".to_string(),
        ]);
        for eval in pipeline::evaluate_predictor(&cluster.predictor, &log) {
            table.add_row(&[
                label.to_string(),
                eval.name.clone(),
                fnum(eval.correlation, 2),
                fpct(eval.median_error_pct),
                fpct(eval.p95_error_pct),
                format!("{:.0}%", eval.coverage * 100.0),
            ]);
        }
    }
    Ok(table.render())
}

/// Table 8: default vs combined learned model per cluster (all jobs and ad-hoc jobs).
pub fn tab8(ctx: &ExperimentContext) -> Result<String> {
    let mut table = TextTable::new(
        "Table 8: default vs combined learned model, per cluster",
        &[
            "Cluster",
            "Default corr",
            "Default med err",
            "Learned corr (all)",
            "Learned med err (all)",
            "Learned corr (ad-hoc)",
            "Learned med err (ad-hoc)",
        ],
    );
    for (i, cluster) in ctx.clusters.iter().enumerate() {
        let default_eval =
            pipeline::evaluate_cost_model(&HeuristicCostModel::default_model(), &cluster.test_log);
        let all = pipeline::evaluate_predictor(&cluster.predictor, &cluster.test_log);
        let combined_all = all.iter().find(|e| e.name == "Combined").unwrap();
        let adhoc_log = cluster.test_log.filter_recurring(false);
        let (adhoc_corr, adhoc_err) = if adhoc_log.is_empty() {
            (0.0, 0.0)
        } else {
            let adhoc = pipeline::evaluate_predictor(&cluster.predictor, &adhoc_log);
            let c = adhoc.iter().find(|e| e.name == "Combined").unwrap();
            (c.correlation, c.median_error_pct)
        };
        table.add_row(&[
            format!("Cluster {}", i + 1),
            fnum(default_eval.correlation, 2),
            fpct(default_eval.median_error_pct),
            fnum(combined_all.correlation, 2),
            fpct(combined_all.median_error_pct),
            fnum(adhoc_corr, 2),
            fpct(adhoc_err),
        ]);
    }
    Ok(table.render())
}

/// Figure 14: robustness (coverage, median error, 95th percentile error, correlation)
/// as the test window moves further from the training window.
pub fn fig14(ctx: &ExperimentContext) -> Result<String> {
    // Generate a longer trace for cluster 1 only: train on days 0-1, test on windows
    // further and further out.
    use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
    use cleo_engine::ClusterId;
    let days = 16u32;
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), days);
    let default_model = HeuristicCostModel::default_model();
    let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
    let log = pipeline::serve_jobs(
        &jobs,
        fixed_provider(default_model.clone()),
        OptimizerConfig::default(),
        &ctx.simulator,
        0,
    )?;
    let train = log.slice_days(DayIndex(0), DayIndex(1));
    let predictor = pipeline::train_predictor(&train, TrainerConfig::default())?;

    let mut table = TextTable::new(
        "Figure 14: robustness over increasing test-window distance (cluster 1 style workload)",
        &[
            "Days after training",
            "Model",
            "Coverage",
            "Median Err",
            "95% Err",
            "Correlation",
        ],
    );
    for day in [2u32, 5, 9, 13, 15] {
        if day >= days {
            continue;
        }
        let window = log.slice_days(DayIndex(day), DayIndex(day));
        if window.is_empty() {
            continue;
        }
        let default_eval = pipeline::evaluate_cost_model(&default_model, &window);
        table.add_row(&[
            format!("{}", day - 1),
            "Default".into(),
            "100%".into(),
            fpct(default_eval.median_error_pct),
            fpct(default_eval.p95_error_pct),
            fnum(default_eval.correlation, 2),
        ]);
        for eval in pipeline::evaluate_predictor(&predictor, &window) {
            table.add_row(&[
                format!("{}", day - 1),
                eval.name.clone(),
                format!("{:.0}%", eval.coverage * 100.0),
                fpct(eval.median_error_pct),
                fpct(eval.p95_error_pct),
                fnum(eval.correlation, 2),
            ]);
        }
    }
    Ok(table.render())
}

/// Figure 15: Cleo vs CardLearner (learned cardinalities + default cost model).
pub fn fig15(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(3);
    let default_model = HeuristicCostModel::default_model();
    let learner = CardLearner::train(&cluster.train_log, 3)?;

    // Default + CardLearner: rewrite the test plans' estimated cardinalities and
    // re-cost with the default model.
    let mut cardlearner_pairs = Vec::new();
    let mut cleo_cardlearner_pairs = Vec::new();
    for job in cluster.test_log.jobs() {
        let rewritten = learner.apply(&job.plan);
        rewritten.root.visit(&mut |node| {
            if let Some(actual) = job.run.exclusive(node.id) {
                let pred = cleo_optimizer::CostModel::exclusive_cost(
                    &default_model,
                    node,
                    node.partition_count,
                    &job.plan.meta,
                );
                cardlearner_pairs.push((pred, actual));
                let cleo_pred = cluster
                    .predictor
                    .predict(node, node.partition_count, &job.plan.meta)
                    .combined;
                cleo_cardlearner_pairs.push((cleo_pred, actual));
            }
        });
    }
    let default_eval = pipeline::evaluate_cost_model(&default_model, &cluster.test_log);
    let cleo_eval = pipeline::evaluate_predictor(&cluster.predictor, &cluster.test_log)
        .into_iter()
        .find(|e| e.name == "Combined")
        .unwrap();

    let mut table = TextTable::new(
        "Figure 15: CLEO vs CardLearner (cluster 4)",
        &[
            "Model",
            "Pearson",
            "MedianErr",
            "UnderEst",
            "Within2x",
            "MinRatio",
            "MaxRatio",
        ],
    );
    table.add_row(&cdf_row("Default", &default_eval.pairs));
    table.add_row(&cdf_row("Default + CardLearner", &cardlearner_pairs));
    table.add_row(&cdf_row("CLEO", &cleo_eval.pairs));
    table.add_row(&cdf_row("CLEO + CardLearner", &cleo_cardlearner_pairs));
    Ok(table.render())
}

/// Helper for tests: run a set of accuracy experiments against a quick context.
pub fn smoke(ctx: &ExperimentContext) -> Result<Vec<String>> {
    Ok(vec![fig1(ctx)?, tab5(ctx)?, tab8(ctx)?])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cross-validates every learner kind on 75 groups: minutes unoptimised,
    // seconds in a release build (where CI runs it).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimised; run with --release")]
    fn fig11_prints_the_same_table_every_run() {
        let ctx = ExperimentContext::quick().unwrap();
        assert_eq!(fig11(&ctx).unwrap(), fig11(&ctx).unwrap());
    }
}
