//! Feature and loss-function experiments: Table 1 and Figures 5, 6, 16, 18.

use cleo_common::stats;
use cleo_common::table::{fnum, fpct, TextTable};
use cleo_common::Result;

use cleo_core::{
    feature_name_strings, feature_names, normalized_weights, CleoTrainer, ModelFamily,
};
use cleo_mlkit::linear_gd::LinearGd;
use cleo_mlkit::model::Regressor;
use cleo_mlkit::{Dataset, Loss};

use crate::context::ExperimentContext;

/// Table 1: median error of different regression loss functions (elastic-net style
/// linear model trained per operator-subgraph group, cluster 1).
pub fn tab1(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let samples = CleoTrainer::collect_samples(&cluster.train_log);
    // Signature order: the groups evaluated repeat from run to run.
    let mut groups: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, s) in samples.iter().enumerate() {
        groups.entry(s.signatures.op_subgraph).or_default().push(i);
    }
    let mut table = TextTable::new(
        "Table 1: median error by regression loss function",
        &["Loss Function", "Median Error"],
    );
    for loss in [
        Loss::MedianAbsoluteError,
        Loss::MeanAbsoluteError,
        Loss::MeanSquaredError,
        Loss::MeanSquaredLogError,
    ] {
        let mut preds = Vec::new();
        let mut acts = Vec::new();
        for idx in groups.values().filter(|g| g.len() >= 10).take(30) {
            // 80/20 split within the group.
            let split = (idx.len() * 4) / 5;
            let targets: Vec<f64> = idx.iter().map(|&i| samples[i].exclusive_seconds).collect();
            let data = Dataset::from_row_refs(
                feature_name_strings(),
                idx.iter().map(|&i| samples[i].features.as_slice()),
                targets,
            )?;
            let (train, test) = data.split_at(split);
            if train.is_empty() || test.is_empty() {
                continue;
            }
            let mut model = LinearGd::with_loss(loss);
            if model.fit(&train).is_err() {
                continue;
            }
            preds.extend(model.predict(&test));
            acts.extend(test.targets().to_vec());
        }
        table.add_row(&[
            loss.name().to_string(),
            fpct(stats::median_error_pct(&preds, &acts)),
        ]);
    }
    Ok(table.render())
}

/// Render the top-k normalised feature weights of a model family.
fn weight_table(title: &str, weights: &[f64], top_k: usize) -> String {
    let names = feature_names();
    let mut pairs: Vec<(String, f64)> = names
        .iter()
        .map(|s| s.to_string())
        .zip(weights.iter().copied())
        .collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut table = TextTable::new(title, &["Feature", "Normalized Weight"]);
    for (name, w) in pairs.into_iter().take(top_k) {
        table.add_row(&[name, fnum(w, 4)]);
    }
    table.render()
}

/// Figure 5: normalised feature weights aggregated over all operator-subgraph models.
pub fn fig5(ctx: &ExperimentContext) -> Result<String> {
    let store = ctx
        .cluster(0)
        .predictor
        .store(ModelFamily::OpSubgraph)
        .expect("subgraph store exists");
    let weights = normalized_weights(&store.weight_vectors());
    Ok(weight_table(
        "Figure 5: feature weights (operator-subgraph models)",
        &weights,
        15,
    ))
}

/// Figure 6: normalised feature weights for the other model families.
pub fn fig6(ctx: &ExperimentContext) -> Result<String> {
    let mut out = String::new();
    for family in [
        ModelFamily::OpSubgraphApprox,
        ModelFamily::OpInput,
        ModelFamily::Operator,
    ] {
        if let Some(store) = ctx.cluster(0).predictor.store(family) {
            let weights = normalized_weights(&store.weight_vectors());
            out.push_str(&weight_table(
                &format!("Figure 6: feature weights ({})", family.name()),
                &weights,
                10,
            ));
            out.push('\n');
        }
    }
    Ok(out)
}

/// Figure 16: hash-join feature weights in two different subexpression contexts
/// (join over scans vs join over other joins).
pub fn fig16(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let mut over_scans: (Vec<Vec<f64>>, Vec<f64>) = (vec![], vec![]);
    let mut over_joins: (Vec<Vec<f64>>, Vec<f64>) = (vec![], vec![]);
    for job in cluster.train_log.jobs() {
        for (node, latency) in job.operator_samples() {
            if node.kind != cleo_engine::PhysicalOpKind::HashJoin {
                continue;
            }
            let has_join_below = node.children.iter().any(|c| {
                c.collect().iter().any(|n| {
                    matches!(
                        n.kind,
                        cleo_engine::PhysicalOpKind::HashJoin
                            | cleo_engine::PhysicalOpKind::MergeJoin
                    )
                })
            });
            let features = cleo_core::extract_features(node, node.partition_count, &job.plan.meta);
            if has_join_below {
                over_joins.0.push(features);
                over_joins.1.push(latency);
            } else {
                over_scans.0.push(features);
                over_scans.1.push(latency);
            }
        }
    }
    let mut out = String::new();
    for (label, (rows, targets)) in [
        ("Set 1: join over scans", over_scans),
        ("Set 2: join over joins", over_joins),
    ] {
        if rows.len() < 10 {
            out.push_str(&format!("{label}: not enough samples ({})\n", rows.len()));
            continue;
        }
        let data = Dataset::from_row_refs(
            feature_name_strings(),
            rows.iter().map(|r| r.as_slice()),
            targets,
        )?;
        let cfg = cleo_mlkit::elastic_net::ElasticNetConfig {
            alpha: 0.05,
            ..Default::default()
        };
        let mut model = cleo_mlkit::ElasticNet::new(cfg);
        model.fit(&data)?;
        let weights = normalized_weights(&[model.feature_weights().unwrap_or_default()]);
        out.push_str(&weight_table(
            &format!("Figure 16: hash-join feature weights — {label}"),
            &weights,
            10,
        ));
        out.push('\n');
    }
    Ok(out)
}

/// Figure 18: median error as features are added cumulatively, starting from perfect
/// cardinalities only.
pub fn fig18(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let samples = CleoTrainer::collect_samples(&cluster.train_log);
    let test_samples = CleoTrainer::collect_samples(&cluster.test_log);
    let names = feature_names();
    // Cumulative feature order: start from output and input cardinality, then add the
    // rest in the order of the paper's Figure 18 (roughly: row length, sqrt, partition
    // terms, inputs/params, products).
    let order: Vec<usize> = {
        let preferred = [
            "C",
            "I",
            "L",
            "sqrt(C)",
            "P",
            "L*I",
            "IN",
            "PM1",
            "C/P",
            "I/P",
            "L*B",
            "I*C",
            "B*C",
            "I*log(C)",
            "B/P",
            "sqrt(I)",
            "L*log(I)",
            "sqrt(I)/P",
            "L*log(B)",
            "L*log(C)",
            "I*L/P",
            "C*L/P",
            "B*log(C)",
            "log(I)/P",
            "log(B)*log(C)",
            "log(I)*log(C)",
        ];
        preferred
            .iter()
            .filter_map(|p| names.iter().position(|n| n == p))
            .collect()
    };
    // Group per operator-input signature so each model is specialised but has samples.
    use std::collections::HashMap;
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        groups.entry(s.signatures.op_input).or_default().push(i);
    }

    let mut table = TextTable::new(
        "Figure 18: median error as features are added cumulatively",
        &["#Features", "Last feature added", "Median Error"],
    );
    for k in [2usize, 4, 6, 8, 10, 14, 18, 22, order.len()] {
        let k = k.min(order.len());
        let selected = &order[..k];
        let project = |s: &cleo_core::OperatorSample| -> Vec<f64> {
            selected.iter().map(|&i| s.features[i]).collect()
        };
        let sub_names: Vec<String> = selected.iter().map(|&i| names[i].to_string()).collect();
        let mut preds = Vec::new();
        let mut acts = Vec::new();
        let mut models: HashMap<u64, cleo_mlkit::ElasticNet> = HashMap::new();
        for (sig, idx) in groups.iter().filter(|(_, g)| g.len() >= 8) {
            let rows: Vec<Vec<f64>> = idx.iter().map(|&i| project(&samples[i])).collect();
            let targets: Vec<f64> = idx.iter().map(|&i| samples[i].exclusive_seconds).collect();
            let data = Dataset::from_rows(sub_names.clone(), rows, targets)?;
            let cfg = cleo_mlkit::elastic_net::ElasticNetConfig {
                alpha: 0.05,
                ..Default::default()
            };
            let mut model = cleo_mlkit::ElasticNet::new(cfg);
            if model.fit(&data).is_ok() {
                models.insert(*sig, model);
            }
        }
        for s in &test_samples {
            if let Some(model) = models.get(&s.signatures.op_input) {
                preds.push(model.predict_row(&project(s)));
                acts.push(s.exclusive_seconds);
            }
        }
        table.add_row(&[
            format!("{k}"),
            names[order[k - 1]].to_string(),
            fpct(stats::median_error_pct(&preds, &acts)),
        ]);
    }
    Ok(table.render())
}
