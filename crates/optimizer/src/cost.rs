//! Cost models.
//!
//! The optimizer costs candidate physical operators through the [`CostModel`] trait —
//! the seam the paper exploits to retrofit learned models "in a minimally invasive
//! way" (Section 5.1): Cleo's learned models implement the same trait and are invoked
//! from the same Optimize-Inputs step as the defaults.
//!
//! Two hand-written models are provided here:
//!
//! * [`DefaultCostModel`] — the style of cost model the paper measures a 0.04 Pearson
//!   correlation for: per-row constants applied to *estimated* cardinalities, no
//!   knowledge of UDF cost, no per-partition overheads, no context sensitivity.
//! * [`ManuallyTunedCostModel`] — the "alternate cost model available under a flag"
//!   (Section 2.4): same structure with constants nudged closer to reality, which
//!   improves correlation slightly (0.04 → 0.10 in the paper) but cannot fix the
//!   structural blind spots.

use std::cell::Cell;

use cleo_common::scratch::recycle;
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};

/// One candidate sweep of a costing pass: an operator, the candidate partition
/// counts to cost it at, and the job context the sweep belongs to.  The
/// optimizer costs every operator one step builds — an enumeration level, an
/// exploration phase, the final fold — as one list of these; the serving front
/// end merges lists across jobs served by the same model snapshot.  Either way
/// the list is costed in one call ([`CostModel::exclusive_cost_sweeps_into`],
/// [`CostModel::exclusive_cost_sweeps`]).
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec<'a> {
    /// The operator being costed (`node.est` carries its statistics).
    pub node: &'a PhysicalNode,
    /// Candidate partition counts for this operator.
    pub partitions: &'a [usize],
    /// The job the operator belongs to.
    pub meta: &'a JobMeta,
}

impl<'a> SweepSpec<'a> {
    /// `node` at its own partition count: the one-candidate sweep of
    /// enumeration and of the final cost fold.
    pub fn at_own_count(node: &'a PhysicalNode, meta: &'a JobMeta) -> SweepSpec<'a> {
        SweepSpec {
            node,
            partitions: std::slice::from_ref(&node.partition_count),
            meta,
        }
    }
}

thread_local! {
    /// The sweep list and cost buffer of [`cost_in_one_call`], parked between
    /// calls so a costing step allocates nothing once they have grown.
    static ONE_CALL: Cell<(Vec<SweepSpec<'static>>, Vec<f64>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
}

/// Cost the sweeps `fill` lists through one
/// [`CostModel::exclusive_cost_sweeps_into`] call (none when the list is
/// empty) and hand the flat costs — sweep after sweep, candidate after
/// candidate — to `read`.  The buffers are this thread's, reused from call to
/// call.
pub(crate) fn cost_in_one_call<'s, R>(
    model: &dyn CostModel,
    fill: impl FnOnce(&mut Vec<SweepSpec<'s>>),
    read: impl FnOnce(&[f64]) -> R,
) -> R {
    let (parked, mut costs) = ONE_CALL.take();
    let mut sweeps = recycle(parked);
    fill(&mut sweeps);
    costs.clear();
    if !sweeps.is_empty() {
        model.exclusive_cost_sweeps_into(&sweeps, &mut costs);
    }
    let result = read(&costs);
    ONE_CALL.set((recycle(sweeps), costs));
    result
}

/// A cost model invoked by the optimizer's Optimize-Inputs task.
pub trait CostModel: Send + Sync {
    /// Exclusive cost (estimated seconds) of running `node` with `partitions`
    /// partitions.  `node.est` carries the compile-time statistics; implementations
    /// must not read `node.act` (the "perfect cardinality" ablation substitutes actual
    /// values into `est` upstream instead).
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> f64;

    /// Exclusive cost of `node` at every candidate partition count, in one call.
    ///
    /// Partition exploration costs the same operator at tens of candidate counts;
    /// batching lets learned models compute signatures and resolve model lookups
    /// once per operator instead of once per candidate.  The default forwards to
    /// [`CostModel::exclusive_cost`]; overrides must return identical values.
    fn exclusive_cost_batch(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        partitions
            .iter()
            .map(|&p| self.exclusive_cost(node, p, meta))
            .collect()
    }

    /// Cost many candidate sweeps in one call, returning one cost vector per
    /// sweep in input order.
    ///
    /// Learned models override it to look every sweep up in their cache and
    /// push all the misses through one predictor pass.  Overrides must return
    /// values bit-identical to costing each sweep alone through
    /// [`CostModel::exclusive_cost_batch`].
    fn exclusive_cost_sweeps(&self, sweeps: &[SweepSpec]) -> Vec<Vec<f64>> {
        sweeps
            .iter()
            .map(|s| self.exclusive_cost_batch(s.node, s.partitions, s.meta))
            .collect()
    }

    /// [`CostModel::exclusive_cost_sweeps`] flattened: every sweep's costs are
    /// appended to `out`, sweep after sweep in input order.  This is the call
    /// the optimizer makes once per enumeration level, per exploration phase
    /// and for the final cost fold; an override that writes into `out`
    /// directly costs the step without allocating.  Same contract as
    /// [`CostModel::exclusive_cost_sweeps`].
    fn exclusive_cost_sweeps_into(&self, sweeps: &[SweepSpec], out: &mut Vec<f64>) {
        for costs in self.exclusive_cost_sweeps(sweeps) {
            out.extend_from_slice(&costs);
        }
    }

    /// Decompose the cost around the partition count as `cost(P) ≈ θ_p / P + θ_c · P`
    /// (plus terms independent of `P`).  Used by the analytical partition-exploration
    /// strategy of Section 5.3; models that cannot provide it return `None` and the
    /// optimizer falls back to sampling.
    fn partition_coefficients(&self, _node: &PhysicalNode, _meta: &JobMeta) -> Option<(f64, f64)> {
        None
    }

    /// [`CostModel::partition_coefficients`] of every node of `nodes` (all of
    /// one job), appended to `out` in order: the analytical exploration of a
    /// whole plan asks once.  Overrides must return what the per-node method
    /// returns, bit for bit.
    fn partition_coefficients_batch(
        &self,
        nodes: &[&PhysicalNode],
        meta: &JobMeta,
        out: &mut Vec<Option<(f64, f64)>>,
    ) {
        out.extend(
            nodes
                .iter()
                .map(|node| self.partition_coefficients(node, meta)),
        );
    }

    /// Human-readable model name for reports.
    fn name(&self) -> &str;
}

/// Heuristic per-row constants for the default cost model.  Note how little structure
/// there is compared to the simulator's ground truth: one constant per operator kind,
/// applied to estimated input+output rows, plus a flat I/O term.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicConstants {
    /// Seconds per (estimated) input row, per operator kind index.
    pub per_row: [f64; 12],
    /// Seconds per byte read/written for Extract/Output.
    pub per_byte_io: f64,
    /// Seconds per byte moved by an Exchange.
    pub per_byte_net: f64,
    /// Fixed startup charged to every operator.
    pub startup: f64,
}

fn kind_index(kind: PhysicalOpKind) -> usize {
    match kind {
        PhysicalOpKind::Extract => 0,
        PhysicalOpKind::Filter => 1,
        PhysicalOpKind::Project => 2,
        PhysicalOpKind::HashJoin => 3,
        PhysicalOpKind::MergeJoin => 4,
        PhysicalOpKind::HashAggregate => 5,
        PhysicalOpKind::StreamAggregate => 6,
        PhysicalOpKind::LocalAggregate => 7,
        PhysicalOpKind::Sort => 8,
        PhysicalOpKind::Exchange => 9,
        PhysicalOpKind::Process => 10,
        PhysicalOpKind::Output => 11,
    }
}

impl HeuristicConstants {
    /// The default model's constants.  They are "reasonable" per-row CPU costs but they
    /// are uniformly too optimistic about joins and aggregations, blind to UDFs
    /// (Process costs the same as Filter), and unaware of per-partition overheads.
    pub fn default_model() -> Self {
        HeuristicConstants {
            per_row: [
                5.0e-8, // Extract (per row, plus per-byte term)
                1.0e-7, // Filter
                1.0e-7, // Project
                3.0e-7, // HashJoin
                2.0e-7, // MergeJoin
                3.0e-7, // HashAggregate
                1.5e-7, // StreamAggregate
                1.5e-7, // LocalAggregate
                2.5e-7, // Sort
                5.0e-8, // Exchange (per row; the byte term dominates)
                1.0e-7, // Process — same as Filter: UDFs are a black box
                5.0e-8, // Output
            ],
            per_byte_io: 5.0e-9,
            per_byte_net: 1.0e-8,
            startup: 0.1,
        }
    }

    /// The manually tuned variant: constants closer to the simulator's reality for the
    /// relational operators (the kind of tuning the SCOPE team applied), but the
    /// structural blind spots (UDFs, per-partition overheads, context) remain.
    pub fn manually_tuned() -> Self {
        HeuristicConstants {
            per_row: [
                8.0e-8, // Extract
                2.0e-7, // Filter
                1.4e-7, // Project
                6.0e-7, // HashJoin
                2.6e-7, // MergeJoin
                6.0e-7, // HashAggregate
                2.2e-7, // StreamAggregate
                3.0e-7, // LocalAggregate
                3.5e-7, // Sort
                8.0e-8, // Exchange
                2.0e-7, // Process — still a black box
                8.0e-8, // Output
            ],
            per_byte_io: 8.0e-9,
            per_byte_net: 1.8e-8,
            startup: 0.2,
        }
    }
}

/// A hand-written heuristic cost model (default or manually tuned constants).
#[derive(Debug, Clone)]
pub struct HeuristicCostModel {
    constants: HeuristicConstants,
    model_name: &'static str,
}

/// The default SCOPE-style cost model.
pub type DefaultCostModel = HeuristicCostModel;

impl HeuristicCostModel {
    /// The default cost model.
    pub fn default_model() -> Self {
        HeuristicCostModel {
            constants: HeuristicConstants::default_model(),
            model_name: "Default",
        }
    }

    /// The manually tuned cost model.
    pub fn manually_tuned() -> Self {
        HeuristicCostModel {
            constants: HeuristicConstants::manually_tuned(),
            model_name: "Manually-tuned",
        }
    }

    /// Access the constants (used by tests).
    pub fn constants(&self) -> &HeuristicConstants {
        &self.constants
    }
}

impl CostModel for HeuristicCostModel {
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, _meta: &JobMeta) -> f64 {
        let p = partitions.max(1) as f64;
        let c = &self.constants;
        let rows = node.est.input_cardinality.max(1.0) + node.est.output_cardinality.max(1.0);
        let mut cost = rows * c.per_row[kind_index(node.kind)] / p;
        match node.kind {
            PhysicalOpKind::Extract | PhysicalOpKind::Output => {
                cost += node.est.output_bytes().max(1.0) * c.per_byte_io / p;
            }
            PhysicalOpKind::Exchange => {
                cost += node.est.input_bytes().max(1.0) * c.per_byte_net / p;
            }
            _ => {}
        }
        cost + c.startup
    }

    fn exclusive_cost_sweeps_into(&self, sweeps: &[SweepSpec], out: &mut Vec<f64>) {
        for s in sweeps {
            out.extend(
                s.partitions
                    .iter()
                    .map(|&p| self.exclusive_cost(s.node, p, s.meta)),
            );
        }
    }

    fn name(&self) -> &str {
        self.model_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    fn meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "cost_test".into(),
            normalized_inputs: vec![],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn node(kind: PhysicalOpKind, rows: f64, udf_factor: f64) -> PhysicalNode {
        let mut n = PhysicalNode::new(kind, "x", vec![]);
        n.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows / 2.0,
            avg_row_bytes: 50.0,
        };
        n.udf_cost_factor = udf_factor;
        n
    }

    #[test]
    fn cost_scales_with_rows_and_partitions() {
        let m = HeuristicCostModel::default_model();
        let small = m.exclusive_cost(&node(PhysicalOpKind::Filter, 1e6, 1.0), 10, &meta());
        let large = m.exclusive_cost(&node(PhysicalOpKind::Filter, 1e8, 1.0), 10, &meta());
        assert!(large > small * 10.0);
        let more_parts = m.exclusive_cost(&node(PhysicalOpKind::Filter, 1e8, 1.0), 100, &meta());
        assert!(more_parts < large);
    }

    #[test]
    fn default_model_is_blind_to_udf_cost() {
        let m = HeuristicCostModel::default_model();
        let cheap = m.exclusive_cost(&node(PhysicalOpKind::Process, 1e7, 1.0), 10, &meta());
        let expensive_udf =
            m.exclusive_cost(&node(PhysicalOpKind::Process, 1e7, 25.0), 10, &meta());
        assert_eq!(
            cheap, expensive_udf,
            "heuristic models cannot see UDF cost factors"
        );
    }

    #[test]
    fn manually_tuned_costs_more_for_joins_than_default() {
        let d = HeuristicCostModel::default_model();
        let t = HeuristicCostModel::manually_tuned();
        let n = node(PhysicalOpKind::HashJoin, 1e7, 1.0);
        assert!(t.exclusive_cost(&n, 10, &meta()) > d.exclusive_cost(&n, 10, &meta()));
        assert_eq!(d.name(), "Default");
        assert_eq!(t.name(), "Manually-tuned");
    }

    #[test]
    fn default_sweeps_match_per_sweep_batches() {
        let m = HeuristicCostModel::default_model();
        let meta = meta();
        let n1 = node(PhysicalOpKind::Filter, 1e6, 1.0);
        let n2 = node(PhysicalOpKind::HashJoin, 1e7, 1.0);
        let p1 = [1usize, 8, 64];
        let p2 = [4usize, 32];
        let sweeps = [
            SweepSpec {
                node: &n1,
                partitions: &p1,
                meta: &meta,
            },
            SweepSpec {
                node: &n2,
                partitions: &p2,
                meta: &meta,
            },
        ];
        let merged = m.exclusive_cost_sweeps(&sweeps);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], m.exclusive_cost_batch(&n1, &p1, &meta));
        assert_eq!(merged[1], m.exclusive_cost_batch(&n2, &p2, &meta));
    }

    #[test]
    fn no_partition_coefficients_for_heuristic_models() {
        let d = HeuristicCostModel::default_model();
        assert!(d
            .partition_coefficients(&node(PhysicalOpKind::Exchange, 1e6, 1.0), &meta())
            .is_none());
    }
}
