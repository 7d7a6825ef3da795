//! Resource-aware planning: partition exploration and optimization.
//!
//! Section 5.2 of the paper extends Cascades with three abstractions — a
//! *resource context* that accumulates, per stage, the candidate costs of different
//! partition counts; a *partition exploration* step where every operator contributes
//! its costs; and a *partition optimization* step where the stage's partitioning
//! operator picks the count minimising the whole stage's cost (instead of its own
//! local cost).  Section 5.3 gives two exploration strategies: sampling the partition
//! counts (random / uniform / geometric) and an analytical closed form derived from the
//! learned linear models (`cost ∝ θ_P / P + θ_C · P`).

use cleo_common::rng::DetRng;
use cleo_engine::physical::{JobMeta, PhysicalNode};

use crate::cost::{cost_in_one_call, CostModel, SweepSpec};
use crate::enumerate::MAX_PARTITIONS;

/// Partition-exploration strategy (Section 5.3, Figure 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionExploration {
    /// Do not explore: keep the partition counts chosen by the partitioning operators'
    /// local heuristics (the default optimizer behaviour).
    None,
    /// Sample counts in a geometrically increasing sequence `x_{i+1} = ⌈x_i + x_i/s⌉`.
    Geometric {
        /// Skipping coefficient `s`; larger values produce more samples.
        skip: f64,
    },
    /// Sample counts uniformly spaced over `[1, max]`.
    Uniform {
        /// Number of samples.
        samples: usize,
    },
    /// Sample counts uniformly at random over `[1, max]`.
    Random {
        /// Number of samples.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Use the analytical closed form derived from the cost model's
    /// [`partition_coefficients`](crate::cost::CostModel::partition_coefficients);
    /// falls back to geometric sampling when the model cannot provide coefficients.
    Analytical,
    /// Exhaustively evaluate every partition count in `[1, max]` (oracle, used only to
    /// validate the other strategies in Figure 17).
    Exhaustive,
}

/// Result of exploring partition counts for one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationOutcome {
    /// The chosen partition count.
    pub partition_count: usize,
    /// Estimated total stage cost at that count.
    pub stage_cost: f64,
    /// Number of cost-model invocations spent.
    pub model_invocations: usize,
}

/// The resource context of Figure 8a/8b: the per-operator costs accumulated while
/// exploring candidate partition counts for one stage.
#[derive(Debug, Clone, Default)]
pub struct ResourceContext {
    /// Candidate partition counts.
    pub candidates: Vec<usize>,
    /// For each operator (outer) the cost at each candidate count (inner, aligned with
    /// `candidates`).
    pub operator_costs: Vec<Vec<f64>>,
}

impl ResourceContext {
    /// Total stage cost at candidate index `i`.
    pub fn stage_cost(&self, i: usize) -> f64 {
        self.operator_costs.iter().map(|ops| ops[i]).sum()
    }

    /// Index of the candidate minimising the stage cost.
    pub fn best_candidate(&self) -> Option<(usize, f64)> {
        (0..self.candidates.len())
            .map(|i| (i, self.stage_cost(i)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Generate the candidate partition counts for a sampling strategy.
pub fn candidate_counts(strategy: PartitionExploration, max_partitions: usize) -> Vec<usize> {
    let max = max_partitions.clamp(1, MAX_PARTITIONS);
    match strategy {
        PartitionExploration::None | PartitionExploration::Analytical => vec![],
        PartitionExploration::Exhaustive => (1..=max).collect(),
        PartitionExploration::Geometric { skip } => {
            let mut out = vec![1usize];
            let mut x = 1.0f64;
            if max >= 2 {
                out.push(2);
                x = 2.0;
            }
            let s = skip.max(0.1);
            while (x as usize) < max {
                x = (x + x / s).ceil();
                out.push((x as usize).min(max));
            }
            out.dedup();
            out
        }
        PartitionExploration::Uniform { samples } => {
            let n = samples.max(2);
            (0..n)
                .map(|i| 1 + (i * (max - 1)) / (n - 1))
                .collect::<Vec<_>>()
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        }
        PartitionExploration::Random { samples, seed } => {
            let mut rng = DetRng::new(seed);
            let mut set = std::collections::BTreeSet::new();
            set.insert(1usize);
            while set.len() < samples.max(1) && set.len() < max {
                set.insert(rng.int_range(1, max as u64) as usize);
            }
            set.into_iter().collect()
        }
    }
}

/// Explore partition counts for one stage by sampling: evaluate every operator of the
/// stage at every candidate count and pick the count minimising the stage total
/// (the "partition exploration" + "partition optimization" steps of Figure 8a).
pub fn explore_stage_sampling(
    stage_ops: &[&PhysicalNode],
    candidates: &[usize],
    cost_model: &dyn CostModel,
    meta: &JobMeta,
) -> Option<ExplorationOutcome> {
    if stage_ops.is_empty() || candidates.is_empty() {
        return None;
    }
    let mut ctx = ResourceContext {
        candidates: candidates.to_vec(),
        operator_costs: Vec::with_capacity(stage_ops.len()),
    };
    let mut invocations = 0;
    for op in stage_ops {
        // One batched call per operator: learned models compute the operator's
        // signatures once and evaluate all candidate counts against the same
        // resolved models (Section 5.3's look-up cost, minus the redundancy).
        let costs = cost_model.exclusive_cost_batch(op, candidates, meta);
        debug_assert_eq!(costs.len(), candidates.len());
        invocations += candidates.len();
        ctx.operator_costs.push(costs);
    }
    let (best_idx, best_cost) = ctx.best_candidate()?;
    Some(ExplorationOutcome {
        partition_count: ctx.candidates[best_idx],
        stage_cost: best_cost,
        model_invocations: invocations,
    })
}

/// Explore partition counts analytically (Section 5.3): each operator contributes its
/// `(θ_P, θ_C)` coefficients; the optimal count for the stage follows in closed form.
///
/// Returns `None` when the cost model cannot provide coefficients for any operator of
/// the stage.  One stage of [`explore_stages_analytical`].
pub fn explore_stage_analytical(
    stage_ops: &[&PhysicalNode],
    cost_model: &dyn CostModel,
    meta: &JobMeta,
    max_partitions: usize,
) -> Option<ExplorationOutcome> {
    explore_stages_analytical(&[stage_ops], cost_model, meta, max_partitions)
        .pop()
        .flatten()
}

/// [`explore_stage_analytical`] for every stage of one job at once, in two
/// cost-model calls: the coefficients of every operator of every stage
/// ([`CostModel::partition_coefficients_batch`]), then every stage's operators
/// at that stage's optimum.  Outcomes are aligned with `stages`.
pub fn explore_stages_analytical<'n, S: AsRef<[&'n PhysicalNode]>>(
    stages: &[S],
    cost_model: &dyn CostModel,
    meta: &JobMeta,
    max_partitions: usize,
) -> Vec<Option<ExplorationOutcome>> {
    let max = max_partitions.clamp(1, MAX_PARTITIONS);
    let ops: Vec<&PhysicalNode> = stages.iter().flat_map(|s| s.as_ref()).copied().collect();
    let mut coefficients = Vec::with_capacity(ops.len());
    cost_model.partition_coefficients_batch(&ops, meta, &mut coefficients);

    // Per stage: the optimum and the coefficient consultations (one per
    // operator), or `None` when no operator has coefficients.
    let mut offered = coefficients.as_slice();
    let optima: Vec<Option<usize>> = stages
        .iter()
        .map(|stage| {
            let (own, rest) = offered.split_at(stage.as_ref().len());
            offered = rest;
            let mut sum_p = 0.0;
            let mut sum_c = 0.0;
            let mut any = false;
            for &(theta_p, theta_c) in own.iter().flatten() {
                sum_p += theta_p;
                sum_c += theta_c;
                any = true;
            }
            any.then(|| optimal_count(sum_p, sum_c, max))
        })
        .collect();

    // Evaluate each chosen count once per operator to report the stage cost.
    cost_in_one_call(
        cost_model,
        |sweeps| {
            for (stage, optimal) in stages.iter().zip(&optima) {
                if let Some(optimal) = optimal {
                    sweeps.extend(stage.as_ref().iter().map(|&node| SweepSpec {
                        node,
                        partitions: std::slice::from_ref(optimal),
                        meta,
                    }));
                }
            }
        },
        |costs| {
            let mut costs = costs.iter();
            stages
                .iter()
                .zip(&optima)
                .map(|(stage, optimal)| {
                    let partition_count = (*optimal)?;
                    let mut stage_cost = 0.0;
                    for cost in costs.by_ref().take(stage.as_ref().len()) {
                        stage_cost += cost;
                    }
                    Some(ExplorationOutcome {
                        partition_count,
                        stage_cost,
                        // One coefficient consultation and one evaluation per operator.
                        model_invocations: 2 * stage.as_ref().len(),
                    })
                })
                .collect()
        },
    )
}

/// The stage optimum of `sum_p / P + sum_c · P` over `[1, max]`: the three
/// cases of Section 5.3.
fn optimal_count(sum_p: f64, sum_c: f64, max: usize) -> usize {
    if sum_p > 0.0 && sum_c <= 0.0 {
        max
    } else if sum_p <= 0.0 && sum_c > 0.0 {
        1
    } else if sum_c.abs() < 1e-12 {
        max
    } else {
        // d/dP (sum_p/P + sum_c·P) = 0  ⇒  P = sqrt(sum_p / sum_c).
        ((sum_p / sum_c).abs().sqrt().round() as usize).clamp(1, max)
    }
}

/// Predicted number of model look-ups for the analytical strategy with `m` operators
/// (the `5·m·log_{(s+1)/s}(P_max)` vs `2·m` comparison behind Figure 8c).
pub fn analytical_lookup_count(n_operators: usize) -> usize {
    2 * n_operators
}

/// Predicted number of model look-ups for geometric sampling with skip coefficient `s`.
pub fn geometric_lookup_count(n_operators: usize, skip: f64, max_partitions: usize) -> usize {
    candidate_counts(PartitionExploration::Geometric { skip }, max_partitions).len() * n_operators
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, HeuristicCostModel};
    use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    fn meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "resource_test".into(),
            normalized_inputs: vec![],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn op(kind: PhysicalOpKind, rows: f64) -> PhysicalNode {
        let mut n = PhysicalNode::new(kind, "x", vec![]);
        n.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows,
            avg_row_bytes: 100.0,
        };
        n.partition_count = 8;
        n
    }

    /// A synthetic cost model with a known optimum: cost = work/P + overhead·P.
    struct UShape;
    impl CostModel for UShape {
        fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, _meta: &JobMeta) -> f64 {
            let p = partitions.max(1) as f64;
            node.est.input_cardinality / p + 0.5 * p
        }
        fn partition_coefficients(
            &self,
            node: &PhysicalNode,
            _meta: &JobMeta,
        ) -> Option<(f64, f64)> {
            Some((node.est.input_cardinality, 0.5))
        }
        fn name(&self) -> &str {
            "u-shape"
        }
    }

    #[test]
    fn candidate_generation_shapes() {
        let geo = candidate_counts(PartitionExploration::Geometric { skip: 0.5 }, 1000);
        assert!(geo.len() < 30);
        assert_eq!(geo[0], 1);
        assert!(*geo.last().unwrap() <= 1000);
        let uni = candidate_counts(PartitionExploration::Uniform { samples: 10 }, 1000);
        assert!(uni.contains(&1) && uni.contains(&1000));
        let rnd = candidate_counts(
            PartitionExploration::Random {
                samples: 10,
                seed: 3,
            },
            1000,
        );
        assert!(rnd.len() >= 5 && rnd.iter().all(|p| (1..=1000).contains(p)));
        let exhaustive = candidate_counts(PartitionExploration::Exhaustive, 50);
        assert_eq!(exhaustive.len(), 50);
        assert!(candidate_counts(PartitionExploration::None, 100).is_empty());
    }

    #[test]
    fn geometric_samples_are_denser_at_small_counts() {
        let geo = candidate_counts(PartitionExploration::Geometric { skip: 1.0 }, 2048);
        let below_100 = geo.iter().filter(|&&p| p <= 100).count();
        let above_1000 = geo.iter().filter(|&&p| p > 1000).count();
        assert!(below_100 > above_1000);
    }

    #[test]
    fn sampling_exploration_finds_near_optimal_count() {
        // Single operator, work = 20000, overhead = 0.5 ⇒ optimum at P = sqrt(20000/0.5) = 200.
        let o = op(PhysicalOpKind::Exchange, 20_000.0);
        let ops = vec![&o];
        let model = UShape;
        let candidates = candidate_counts(PartitionExploration::Geometric { skip: 2.0 }, 2500);
        let out = explore_stage_sampling(&ops, &candidates, &model, &meta()).unwrap();
        assert!(
            out.partition_count >= 100 && out.partition_count <= 400,
            "{out:?}"
        );
        assert_eq!(out.model_invocations, candidates.len());
    }

    #[test]
    fn analytical_exploration_matches_closed_form_optimum() {
        let o1 = op(PhysicalOpKind::Exchange, 20_000.0);
        let o2 = op(PhysicalOpKind::HashAggregate, 5_000.0);
        let ops = vec![&o1, &o2];
        let model = UShape;
        let out = explore_stage_analytical(&ops, &model, &meta(), 2500).unwrap();
        // sum_p = 25000, sum_c = 1.0 ⇒ P* = sqrt(25000) ≈ 158.
        assert!((out.partition_count as i64 - 158).abs() <= 2, "{out:?}");
        // Far fewer invocations than exhaustive (2 per operator).
        assert_eq!(out.model_invocations, 4);
    }

    #[test]
    fn analytical_falls_back_to_none_without_coefficients() {
        let o = op(PhysicalOpKind::Exchange, 1e6);
        let ops = vec![&o];
        let default = HeuristicCostModel::default_model();
        assert!(explore_stage_analytical(&ops, &default, &meta(), 2500).is_none());
    }

    #[test]
    fn analytical_needs_far_fewer_lookups_than_sampling() {
        // Figure 8c: for 40 operators the analytical approach stays in the hundreds
        // while geometric sampling with a large skip coefficient reaches thousands.
        let analytical = analytical_lookup_count(40);
        let geo_dense = geometric_lookup_count(40, 5.0, 2500);
        assert!(analytical < 100);
        assert!(geo_dense > 1000);
        assert!(geometric_lookup_count(40, 0.5, 2500) < geo_dense);
    }

    #[test]
    fn empty_inputs_return_none() {
        let model = UShape;
        assert!(explore_stage_sampling(&[], &[1, 2], &model, &meta()).is_none());
        let o = op(PhysicalOpKind::Filter, 10.0);
        assert!(explore_stage_sampling(&[&o], &[], &model, &meta()).is_none());
        assert!(explore_stage_analytical(&[], &model, &meta(), 100).is_none());
    }
}
