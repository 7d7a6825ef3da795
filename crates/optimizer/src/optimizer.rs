//! The optimizer driver: enumeration, costing, and resource-aware partition
//! optimization, producing an executable [`PhysicalPlan`].

use std::time::Instant;

use cleo_common::{CleoError, Result};
use cleo_engine::physical::{PhysicalNode, PhysicalOpKind, PhysicalPlan};
use cleo_engine::stage::{build_stage_graph, Stage};
use cleo_engine::types::OpId;
use cleo_engine::workload::JobSpec;

use crate::cost::{cost_in_one_call, CostModel, SweepSpec};
use crate::enumerate::{Enumerator, MAX_PARTITIONS};
use crate::resource::{
    candidate_counts, explore_stage_sampling, explore_stages_analytical, ExplorationOutcome,
    PartitionExploration,
};

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Replace estimated cardinalities with actual ones before costing — the "perfect
    /// cardinality feedback" ablation of Figure 1.
    pub use_actual_cardinalities: bool,
    /// Consider local (partial) aggregation below exchanges.
    pub enable_local_aggregation: bool,
    /// Run the resource-aware partition optimization pass (Section 5.2).
    pub resource_planning: bool,
    /// Strategy used by the partition optimization pass.
    pub partition_exploration: PartitionExploration,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            use_actual_cardinalities: false,
            enable_local_aggregation: true,
            resource_planning: false,
            partition_exploration: PartitionExploration::None,
        }
    }
}

impl OptimizerConfig {
    /// The configuration Cleo runs with: resource-aware planning using the analytical
    /// partition exploration strategy.
    pub fn resource_aware() -> Self {
        OptimizerConfig {
            resource_planning: true,
            partition_exploration: PartitionExploration::Analytical,
            ..OptimizerConfig::default()
        }
    }
}

/// Statistics about one optimization run (used for the overhead analysis, §6.6.3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptimizationStats {
    /// Total cost-model invocations (enumeration + partition exploration).
    pub model_invocations: usize,
    /// Number of physical alternatives generated.
    pub alternatives_generated: usize,
    /// Wall-clock optimization time in microseconds.
    pub optimization_micros: u128,
    /// Registry version of the cost model that produced the plan (0 = unversioned;
    /// stamped by [`crate::provider::SharedOptimizer`]).
    pub model_version: u64,
    /// Cluster whose registry shard served the cost model (`None` for unsharded
    /// providers or the version-0 fallback; stamped by
    /// [`crate::provider::SharedOptimizer`]).  Under cross-cluster fallback
    /// routing this can be a *donor* cluster, not the job's own.
    pub model_cluster: Option<cleo_engine::types::ClusterId>,
    /// When the serving model version was published as a sub-epoch delta, the
    /// incumbent version the delta was applied over (`None` for full-epoch
    /// versions and the fallback model; stamped by
    /// [`crate::provider::SharedOptimizer`]).
    pub model_delta_base: Option<u64>,
}

/// The result of optimizing one job.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen physical plan.
    pub plan: PhysicalPlan,
    /// The cost model's estimate of the plan's total cost (sum of exclusive costs).
    pub estimated_cost: f64,
    /// Run statistics.
    pub stats: OptimizationStats,
}

/// A Cascades-style optimizer parameterised by a cost model.
pub struct Optimizer<'a> {
    cost_model: &'a dyn CostModel,
    config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer over the given cost model and configuration.
    pub fn new(cost_model: &'a dyn CostModel, config: OptimizerConfig) -> Self {
        Optimizer { cost_model, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Optimize one job into a physical plan.
    pub fn optimize(&self, job: &JobSpec) -> Result<OptimizedPlan> {
        let start = Instant::now();
        let (mut optimized, final_cost_pending) = self.optimize_deferred(job)?;
        if final_cost_pending {
            optimized.estimated_cost = self.total_plan_cost(&optimized.plan);
            optimized.stats.model_invocations += optimized.plan.op_count();
        }
        optimized.stats.optimization_micros = start.elapsed().as_micros();
        Ok(optimized)
    }

    /// Like [`Optimizer::optimize`], but when resource planning rewrote
    /// partition counts the final whole-plan costing is left to the caller:
    /// the returned flag is `true` and `estimated_cost` still holds the
    /// enumeration-time cost of the chosen alternative.  A caller that
    /// completes the deferred pass itself ([`Optimizer::total_plan_cost`])
    /// must add `plan.op_count()` to `stats.model_invocations`, matching what
    /// [`Optimizer::optimize`] does.
    pub fn optimize_deferred(&self, job: &JobSpec) -> Result<(OptimizedPlan, bool)> {
        let start = Instant::now();
        let mut enumerator = Enumerator::new(
            self.cost_model,
            &job.catalog,
            &job.meta,
            self.config.use_actual_cardinalities,
            self.config.enable_local_aggregation,
        );
        let mut alternatives = enumerator.enumerate(&job.plan)?;
        alternatives.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let best = alternatives
            .into_iter()
            .next()
            .ok_or_else(|| CleoError::OptimizationError("no plan produced".into()))?;

        let mut plan = PhysicalPlan::from_shared(job.meta.clone(), best.node);
        let mut stats = OptimizationStats {
            model_invocations: enumerator.stats.model_invocations,
            alternatives_generated: enumerator.stats.alternatives_generated,
            ..OptimizationStats::default()
        };
        let estimated_cost = best.cost;

        let mut final_cost_pending = false;
        if self.config.resource_planning
            && self.config.partition_exploration != PartitionExploration::None
        {
            let invocations = self.optimize_partitions(&mut plan)?;
            stats.model_invocations += invocations;
            final_cost_pending = true;
        }

        stats.optimization_micros = start.elapsed().as_micros();
        Ok((
            OptimizedPlan {
                plan,
                estimated_cost,
                stats,
            },
            final_cost_pending,
        ))
    }

    /// Sum of exclusive costs over every operator of the plan, in operator
    /// (pre-order) order, costed in one call.
    pub fn total_plan_cost(&self, plan: &PhysicalPlan) -> f64 {
        cost_in_one_call(
            self.cost_model,
            |sweeps| {
                plan.root
                    .visit(&mut |op| sweeps.push(SweepSpec::at_own_count(op, &plan.meta)))
            },
            |costs| costs.iter().sum(),
        )
    }

    /// The partition optimization pass: for every stage whose partitioning operator is
    /// an Exchange (stages rooted at an Extract keep the table's stored partitioning,
    /// which acts as a required property), explore candidate partition counts for the
    /// whole stage and rewrite the stage's operators to the chosen count.  The
    /// analytical strategy explores every such stage together, in two cost calls.
    fn optimize_partitions(&self, plan: &mut PhysicalPlan) -> Result<usize> {
        let graph = build_stage_graph(plan);
        let mut stages: Vec<&Stage> = Vec::new();
        let mut stage_ops: Vec<Vec<&PhysicalNode>> = Vec::new();
        for stage in &graph.stages {
            let partitioning_op = plan
                .root
                .find(stage.partitioning_op)
                .ok_or_else(|| CleoError::OptimizationError("dangling stage root".into()))?;
            if partitioning_op.kind != PhysicalOpKind::Exchange {
                continue; // Extract-rooted stages keep their required partitioning.
            }
            stages.push(stage);
            stage_ops.push(
                stage
                    .op_ids
                    .iter()
                    .filter_map(|id| plan.root.find(*id))
                    .collect(),
            );
        }

        let sample = |strategy, ops: &[&PhysicalNode]| {
            let candidates = candidate_counts(strategy, MAX_PARTITIONS);
            explore_stage_sampling(ops, &candidates, self.cost_model, &plan.meta)
        };
        let outcomes: Vec<Option<ExplorationOutcome>> = match self.config.partition_exploration {
            PartitionExploration::Analytical => {
                explore_stages_analytical(&stage_ops, self.cost_model, &plan.meta, MAX_PARTITIONS)
                    .into_iter()
                    .zip(&stage_ops)
                    .map(|(outcome, ops)| {
                        // A stage the cost model has no analytical form for falls
                        // back to geometric sampling.
                        outcome
                            .or_else(|| sample(PartitionExploration::Geometric { skip: 2.0 }, ops))
                    })
                    .collect()
            }
            strategy => stage_ops.iter().map(|ops| sample(strategy, ops)).collect(),
        };

        let mut invocations = 0usize;
        let mut rewrites: Vec<(&[OpId], usize)> = Vec::new();
        for (stage, outcome) in stages.into_iter().zip(outcomes) {
            if let Some(outcome) = outcome {
                invocations += outcome.model_invocations;
                rewrites.push((&stage.op_ids, outcome.partition_count));
            }
        }
        for (ops, count) in rewrites {
            plan.root.visit_mut(&mut |n| {
                if ops.contains(&n.id) {
                    n.partition_count = count;
                }
            });
        }
        Ok(invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, HeuristicCostModel};
    use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
    use cleo_engine::logical::LogicalNode;
    use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId};
    use cleo_engine::workload::JobSpec;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(TableDef::new(
            "facts",
            vec![
                ColumnDef::new("k", 8.0, 0.05),
                ColumnDef::new("v", 92.0, 0.9),
            ],
            2e8,
            80,
        ));
        c.add_table(TableDef::new(
            "dims",
            vec![
                ColumnDef::new("k", 8.0, 1.0),
                ColumnDef::new("d", 40.0, 0.3),
            ],
            5e5,
            4,
        ));
        c
    }

    fn job() -> JobSpec {
        let plan = LogicalNode::get("facts")
            .filter("v > 10", 0.2, 0.08)
            .join(LogicalNode::get("dims"), vec!["k".into()], 1.0, 0.7)
            .aggregate(vec!["k".into()], 0.01, 0.004)
            .output("report");
        JobSpec {
            meta: JobMeta {
                id: JobId(11),
                cluster: ClusterId(0),
                template: None,
                name: "opt_test".into(),
                normalized_inputs: vec!["facts".into(), "dims".into()],
                params: vec![0.5],
                day: DayIndex(0),
                recurring: true,
            },
            plan,
            catalog: catalog(),
        }
    }

    #[test]
    fn optimize_produces_complete_plan_with_stats() {
        let model = HeuristicCostModel::default_model();
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let result = opt.optimize(&job()).unwrap();
        assert!(result.plan.op_count() >= 6);
        assert!(result.estimated_cost > 0.0);
        assert!(result.stats.model_invocations > result.plan.op_count());
        assert_eq!(result.plan.meta.name, "opt_test");
        // The plan must contain a join and an aggregate implementation.
        let kinds: Vec<PhysicalOpKind> = result.plan.operators().iter().map(|o| o.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, PhysicalOpKind::HashJoin | PhysicalOpKind::MergeJoin)));
        assert!(kinds.iter().any(|k| matches!(
            k,
            PhysicalOpKind::HashAggregate | PhysicalOpKind::StreamAggregate
        )));
        assert!(kinds.contains(&PhysicalOpKind::Exchange));
    }

    /// A cost model with an analytical optimum at a small partition count, to verify
    /// the resource-aware pass rewrites exchange-rooted stages.
    struct SmallPartitionLover;
    impl CostModel for SmallPartitionLover {
        fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, _meta: &JobMeta) -> f64 {
            let p = partitions.max(1) as f64;
            node.est.output_cardinality.max(1.0) * 1e-6 / p + 2.0 * p
        }
        fn partition_coefficients(
            &self,
            node: &PhysicalNode,
            _meta: &JobMeta,
        ) -> Option<(f64, f64)> {
            Some((node.est.output_cardinality.max(1.0) * 1e-6, 2.0))
        }
        fn name(&self) -> &str {
            "small-partition-lover"
        }
    }

    #[test]
    fn resource_planning_rewrites_exchange_stage_partitions() {
        let model = SmallPartitionLover;
        let plain = Optimizer::new(&model, OptimizerConfig::default())
            .optimize(&job())
            .unwrap();
        let aware = Optimizer::new(&model, OptimizerConfig::resource_aware())
            .optimize(&job())
            .unwrap();
        // Collect exchange partition counts in both plans.
        let exchange_counts = |plan: &PhysicalPlan| -> Vec<usize> {
            plan.operators()
                .iter()
                .filter(|o| o.kind == PhysicalOpKind::Exchange)
                .map(|o| o.partition_count)
                .collect()
        };
        let before = exchange_counts(&plain.plan);
        let after = exchange_counts(&aware.plan);
        assert!(!before.is_empty());
        // With this cost model the per-partition overhead dominates, so the optimum is
        // tiny; the resource-aware pass must have reduced at least one exchange.
        assert!(
            after.iter().sum::<usize>() < before.iter().sum::<usize>(),
            "before {before:?} after {after:?}"
        );
        // Extract-rooted stages keep the stored partitioning.
        let extract_parts: Vec<usize> = aware
            .plan
            .operators()
            .iter()
            .filter(|o| o.kind == PhysicalOpKind::Extract)
            .map(|o| o.partition_count)
            .collect();
        assert!(extract_parts.contains(&80) || extract_parts.contains(&4));
        // Resource-aware planning spends extra model invocations.
        assert!(aware.stats.model_invocations > plain.stats.model_invocations);
    }

    #[test]
    fn perfect_cardinalities_change_the_estimated_cost() {
        let model = HeuristicCostModel::default_model();
        let default_cfg = OptimizerConfig::default();
        let perfect_cfg = OptimizerConfig {
            use_actual_cardinalities: true,
            ..OptimizerConfig::default()
        };
        let a = Optimizer::new(&model, default_cfg)
            .optimize(&job())
            .unwrap();
        let b = Optimizer::new(&model, perfect_cfg)
            .optimize(&job())
            .unwrap();
        // The job's actual selectivities are lower than the estimates, so the perfect
        // cardinality plan should look cheaper to the cost model.
        assert!(b.estimated_cost < a.estimated_cost);
    }

    #[test]
    fn stage_partition_counts_stay_consistent_after_rewrites() {
        let model = SmallPartitionLover;
        let aware = Optimizer::new(&model, OptimizerConfig::resource_aware())
            .optimize(&job())
            .unwrap();
        let graph = cleo_engine::stage::build_stage_graph(&aware.plan);
        for stage in &graph.stages {
            let counts: std::collections::HashSet<usize> = stage
                .op_ids
                .iter()
                .filter_map(|id| aware.plan.root.find(*id))
                .map(|o| o.partition_count)
                .collect();
            assert_eq!(counts.len(), 1, "all operators of a stage share one count");
        }
    }
}
