//! CardLearner baseline (Section 6.4).
//!
//! CardLearner (Wu et al., cited as \[47\] in the paper) learns *cardinality* models —
//! one Poisson regression per recurring subgraph template — and feeds the corrected
//! cardinalities back into the default cost model.  The paper uses it as the baseline
//! that demonstrates why fixing cardinalities alone does not fix cost estimates.  Here
//! it is reproduced with the same structure: per operator-subgraph Poisson models of
//! the *actual output cardinality*, plus a plan rewriter that substitutes the learned
//! cardinalities into a plan's estimated statistics.

use std::collections::HashMap;

use cleo_mlkit::model::Regressor;
use cleo_mlkit::{Dataset, PoissonRegressor};

use cleo_common::Result;
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalPlan};
use cleo_engine::telemetry::TelemetryLog;

use crate::features::{extract_features, feature_names};
use crate::signature::subgraph_signature;

/// A learned cardinality model store: one Poisson regression per subgraph signature.
#[derive(Debug, Default)]
pub struct CardLearner {
    models: HashMap<u64, PoissonRegressor>,
    min_samples: usize,
}

impl CardLearner {
    /// Train from telemetry: the target is each operator's **actual** output
    /// cardinality.
    pub fn train(log: &TelemetryLog, min_samples: usize) -> Result<Self> {
        let mut grouped: HashMap<u64, (Vec<Vec<f64>>, Vec<f64>)> = HashMap::new();
        for job in log.jobs() {
            job.plan.root.visit(&mut |node| {
                let sig = subgraph_signature(node);
                let entry = grouped.entry(sig).or_default();
                entry.0.push(cardinality_features(node, &job.plan.meta));
                entry.1.push(node.act.output_cardinality.max(0.0));
            });
        }
        let mut models = HashMap::new();
        for (sig, (rows, targets)) in grouped {
            if rows.len() < min_samples.max(1) {
                continue;
            }
            let data = Dataset::from_rows(cardinality_feature_names(), rows, targets)?;
            let mut model = PoissonRegressor::cardlearner_default();
            if model.fit(&data).is_ok() {
                models.insert(sig, model);
            }
        }
        Ok(CardLearner {
            models,
            min_samples,
        })
    }

    /// Number of learned cardinality models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Minimum-sample threshold the store was trained with.
    pub fn min_samples(&self) -> usize {
        self.min_samples
    }

    /// Predict the output cardinality of one operator, if a model covers its subgraph.
    pub fn predict_cardinality(&self, node: &PhysicalNode, meta: &JobMeta) -> Option<f64> {
        let sig = subgraph_signature(node);
        self.models
            .get(&sig)
            .map(|m| m.predict_row(&cardinality_features(node, meta)).max(1.0))
    }

    /// Return a copy of the plan with estimated output cardinalities replaced by the
    /// learned ones wherever a model covers the subgraph (input cardinalities of the
    /// parents are rewritten consistently).
    pub fn apply(&self, plan: &PhysicalPlan) -> PhysicalPlan {
        let mut rewritten = plan.clone();
        let meta = rewritten.meta.clone();
        fn rewrite(node: &mut PhysicalNode, learner: &CardLearner, meta: &JobMeta) -> f64 {
            let mut child_out_sum = 0.0;
            for c in &mut node.children {
                // Copy-on-write: shared subtrees are cloned before their
                // estimates are rewritten, so the source plan stays untouched.
                child_out_sum += rewrite(std::sync::Arc::make_mut(c), learner, meta);
            }
            if !node.children.is_empty() {
                node.est.input_cardinality = child_out_sum;
            }
            if let Some(card) = learner.predict_cardinality(node, meta) {
                node.est.output_cardinality = card;
            }
            node.est.output_cardinality
        }
        rewrite(&mut rewritten.root, self, &meta);
        rewritten
    }
}

/// Feature names used by the cardinality models (a subset of the cost features: the
/// cardinality-related inputs only).
fn cardinality_feature_names() -> Vec<String> {
    vec![
        "I".into(),
        "B".into(),
        "L".into(),
        "sqrt(I)".into(),
        "log(I)".into(),
        "PM1".into(),
    ]
}

fn cardinality_features(node: &PhysicalNode, meta: &JobMeta) -> Vec<f64> {
    let full = extract_features(node, node.partition_count, meta);
    let names = feature_names();
    let pick = |n: &str| -> f64 {
        names
            .iter()
            .position(|&x| x == n)
            .map(|i| full[i])
            .unwrap_or(0.0)
    };
    vec![
        pick("I"),
        pick("B"),
        pick("L"),
        pick("sqrt(I)"),
        (1.0 + pick("I")).ln(),
        pick("PM1"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::exec::{Simulator, SimulatorConfig};
    use cleo_engine::telemetry::JobTelemetry;
    use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
    use cleo_engine::ClusterId;
    use cleo_optimizer::{HeuristicCostModel, Optimizer, OptimizerConfig};

    fn telemetry() -> TelemetryLog {
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
        let model = HeuristicCostModel::default_model();
        let optimizer = Optimizer::new(&model, OptimizerConfig::default());
        let simulator = Simulator::new(SimulatorConfig::noiseless(3));
        let mut log = TelemetryLog::new();
        for job in workload.jobs.iter().take(40) {
            let optimized = optimizer.optimize(job).unwrap();
            let run = simulator.run(&optimized.plan);
            log.push(JobTelemetry::new(optimized.plan, run));
        }
        log
    }

    #[test]
    fn cardlearner_trains_models_and_improves_cardinalities() {
        let log = telemetry();
        let learner = CardLearner::train(&log, 3).unwrap();
        assert!(learner.model_count() > 0);
        assert_eq!(learner.min_samples(), 3);

        // On a covered plan, the rewritten estimates should be closer to the actuals
        // than the original estimates, for the majority of covered operators.
        let mut improved = 0usize;
        let mut total = 0usize;
        for job in log.jobs().iter().take(10) {
            let rewritten = learner.apply(&job.plan);
            for (orig, new) in job
                .plan
                .operators()
                .iter()
                .zip(rewritten.operators().iter())
            {
                if learner.predict_cardinality(orig, &job.plan.meta).is_none() {
                    continue;
                }
                total += 1;
                let act = orig.act.output_cardinality.max(1.0);
                let err_orig = (orig.est.output_cardinality - act).abs() / act;
                let err_new = (new.est.output_cardinality - act).abs() / act;
                if err_new <= err_orig + 1e-9 {
                    improved += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            improved as f64 / total as f64 > 0.5,
            "only {improved}/{total} operators improved"
        );
    }

    #[test]
    fn apply_preserves_plan_structure() {
        let log = telemetry();
        let learner = CardLearner::train(&log, 3).unwrap();
        let plan = &log.jobs()[0].plan;
        let rewritten = learner.apply(plan);
        assert_eq!(plan.op_count(), rewritten.op_count());
        for (a, b) in plan.operators().iter().zip(rewritten.operators().iter()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.partition_count, b.partition_count);
            // Actual statistics are never touched.
            assert_eq!(a.act, b.act);
        }
    }
}
