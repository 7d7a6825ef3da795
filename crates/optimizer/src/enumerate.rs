//! Plan enumeration: logical plans → costed physical alternatives.
//!
//! This is the reproduction's compact embodiment of the Cascades tasks the paper lists
//! (Optimize Groups / Expressions, Explore Groups / Expressions, Optimize Inputs):
//! a bottom-up enumeration that, for every logical operator, generates the candidate
//! physical implementations (hash vs merge join, hash vs sorted stream aggregation,
//! optional local aggregation), inserts the property *enforcers* (Exchange to satisfy a
//! partitioning requirement, Sort to satisfy a sort requirement) only when the child's
//! derived properties do not already satisfy them, and costs every candidate through
//! the pluggable [`CostModel`](crate::cost::CostModel).  Alternatives are pruned per
//! interesting physical property, which keeps enumeration polynomial while preserving
//! the plan choices the paper's evaluation exercises (exchange elision, merge-join
//! adoption, local aggregation, partition-count changes).
//!
//! A level — the alternatives of one logical operator — is costed in one call:
//! building the level records every operator it creates and how each
//! alternative's cost folds their exclusive costs ([`LevelFold`]); the level's
//! operators are then costed together and the folds resolved, in the additions
//! and the order inline costing would have made.

use std::cell::Cell;
use std::sync::Arc;

use cleo_common::{CleoError, Result};
use cleo_engine::catalog::Catalog;
use cleo_engine::logical::{LogicalNode, LogicalOp};
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
use cleo_engine::types::OpStats;

use crate::cost::{cost_in_one_call, CostModel, SweepSpec};

/// Maximum number of alternatives kept per logical node after pruning.
const MAX_ALTERNATIVES: usize = 6;

/// Bytes per partition targeted by the default partition-count heuristic (256 MB),
/// mirroring how partitioning operators "decide partition counts based on data
/// statistics and heuristics" (Section 2.1).
pub const BYTES_PER_PARTITION: f64 = 256.0 * 1024.0 * 1024.0;

/// Upper bound on partition counts (the paper probes 0–3000, "the maximum capacity of
/// machines on a virtual cluster").
pub const MAX_PARTITIONS: usize = 2500;

/// Default partition count for `bytes` of data.
pub fn default_partition_count(bytes: f64) -> usize {
    ((bytes / BYTES_PER_PARTITION).ceil() as usize).clamp(1, MAX_PARTITIONS)
}

/// One candidate physical subplan together with its accumulated cost.
///
/// The subplan root is `Arc`-shared: every parent alternative built over it
/// holds a reference instead of a deep clone, so enumeration materialises each
/// subtree once no matter how many candidate plans embed it (and cloning an
/// `Alternative` is a pointer bump).
#[derive(Debug, Clone)]
pub struct Alternative {
    /// Root of the candidate subplan (children embedded, shared).
    pub node: Arc<PhysicalNode>,
    /// Total estimated cost of the subtree (sum of exclusive costs).
    pub cost: f64,
}

/// Statistics about one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnumerationStats {
    /// Number of cost-model invocations performed.
    pub model_invocations: usize,
    /// Number of physical alternatives generated (before pruning).
    pub alternatives_generated: usize,
}

/// The enumeration context threaded through the recursion.
pub struct Enumerator<'a> {
    /// Cost model used for Optimize Inputs.
    pub cost_model: &'a dyn CostModel,
    /// Catalog providing leaf statistics.
    pub catalog: &'a Catalog,
    /// Job metadata (available to learned cost models as features).
    pub meta: &'a JobMeta,
    /// Replace estimated statistics with actual ones (the perfect-cardinality ablation).
    pub use_actual_cardinalities: bool,
    /// Whether to consider local (partial) aggregation before exchanges.
    pub enable_local_aggregation: bool,
    /// Run statistics.
    pub stats: EnumerationStats,
    /// The level being built (this thread's, parked again on drop).
    level: LevelFold,
}

/// The cost of a subplan while its level is being built: known (the subplan
/// was costed at an earlier level) or the value slot `n` of the level's fold
/// will hold once the level's operators are costed.
#[derive(Debug, Clone, Copy)]
enum Cost {
    Known(f64),
    Slot(usize),
}

/// How one slot of a [`LevelFold`] is computed.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `a + b`: a join's two prepared inputs.
    Sum(Cost, Cost),
    /// `children + exclusive.max(0.0)`, the exclusive cost being that of the
    /// level's `node`-th costed operator.
    Costed { children: Cost, node: usize },
}

/// What one enumeration level built and how its alternatives' costs fold the
/// exclusive costs of the operators it created — recorded while building, so
/// the operators are costed in one call and the folds resolved afterwards.
#[derive(Debug, Default)]
struct LevelFold {
    /// Operators created at this level, in build order.
    nodes: Vec<Arc<PhysicalNode>>,
    /// How each slot is computed; a slot only reads earlier ones.
    steps: Vec<Step>,
    /// Slot values, filled in `steps` order once the exclusive costs are in.
    values: Vec<f64>,
    /// The cost of each alternative of the level, in push order.
    alt_costs: Vec<Cost>,
}

impl LevelFold {
    fn value(&self, cost: Cost) -> f64 {
        match cost {
            Cost::Known(value) => value,
            Cost::Slot(slot) => self.values[slot],
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.steps.clear();
        self.values.clear();
        self.alt_costs.clear();
    }
}

thread_local! {
    /// The level buffers of the last enumerator on this thread: a job's
    /// enumeration reuses them instead of growing its own.
    static PARKED_LEVEL: Cell<LevelFold> = const {
        Cell::new(LevelFold {
            nodes: Vec::new(),
            steps: Vec::new(),
            values: Vec::new(),
            alt_costs: Vec::new(),
        })
    };
}

impl Drop for Enumerator<'_> {
    fn drop(&mut self) {
        self.level.clear();
        let level = std::mem::take(&mut self.level);
        let _ = PARKED_LEVEL.try_with(|parked| parked.set(level));
    }
}

impl<'a> Enumerator<'a> {
    /// Create an enumerator.
    pub fn new(
        cost_model: &'a dyn CostModel,
        catalog: &'a Catalog,
        meta: &'a JobMeta,
        use_actual_cardinalities: bool,
        enable_local_aggregation: bool,
    ) -> Self {
        Enumerator {
            cost_model,
            catalog,
            meta,
            use_actual_cardinalities,
            enable_local_aggregation,
            stats: EnumerationStats::default(),
            level: PARKED_LEVEL.take(),
        }
    }

    /// Enumerate alternatives for a logical subtree and return them (pruned).
    pub fn enumerate(&mut self, logical: &LogicalNode) -> Result<Vec<Alternative>> {
        let cards = logical.derive_cards(self.catalog)?;
        let (est, act) = if self.use_actual_cardinalities {
            (cards.actual, cards.actual)
        } else {
            (cards.estimated, cards.actual)
        };

        // Children are enumerated (and their levels resolved) before this
        // level builds anything, so the level buffers hold one level at a time.
        let mut alts: Vec<Alternative> = Vec::new();
        match &logical.op {
            LogicalOp::Get { table } => {
                let t = self.catalog.table(table)?;
                let mut node = PhysicalNode::new(PhysicalOpKind::Extract, table.clone(), vec![]);
                node.est = est;
                node.act = act;
                node.partition_count = t.stored_partitions;
                self.alternative(&mut alts, node, Cost::Known(0.0));
            }
            LogicalOp::Filter { predicate, .. } => {
                for child in self.enumerate(&logical.children[0])? {
                    let node = self.unary_passthrough(
                        PhysicalOpKind::Filter,
                        predicate.clone(),
                        &child,
                        est,
                        act,
                        true,
                    );
                    self.alternative(&mut alts, node, Cost::Known(child.cost));
                }
            }
            LogicalOp::Project { .. } => {
                for child in self.enumerate(&logical.children[0])? {
                    let node = self.unary_passthrough(
                        PhysicalOpKind::Project,
                        "project",
                        &child,
                        est,
                        act,
                        true,
                    );
                    self.alternative(&mut alts, node, Cost::Known(child.cost));
                }
            }
            LogicalOp::Process {
                udf_name,
                hidden_cost_factor,
                ..
            } => {
                for child in self.enumerate(&logical.children[0])? {
                    let mut node = self.unary_passthrough(
                        PhysicalOpKind::Process,
                        udf_name.clone(),
                        &child,
                        est,
                        act,
                        false,
                    );
                    node.udf_cost_factor = *hidden_cost_factor;
                    self.alternative(&mut alts, node, Cost::Known(child.cost));
                }
            }
            LogicalOp::Output { sink } => {
                for child in self.enumerate(&logical.children[0])? {
                    let node = self.unary_passthrough(
                        PhysicalOpKind::Output,
                        sink.clone(),
                        &child,
                        est,
                        act,
                        true,
                    );
                    self.alternative(&mut alts, node, Cost::Known(child.cost));
                }
            }
            LogicalOp::Sort { keys } => {
                for child in self.enumerate(&logical.children[0])? {
                    if child.node.sorted_on == *keys {
                        // Sort requirement already satisfied: no enforcer needed.
                        self.keep(&mut alts, (child.node, Cost::Known(child.cost)));
                    } else {
                        let node = self.sort_enforcer(&child.node, keys.clone());
                        self.alternative(&mut alts, node, Cost::Known(child.cost));
                    }
                }
            }
            LogicalOp::Aggregate { group_keys, .. } => {
                for child in self.enumerate(&logical.children[0])? {
                    self.aggregate_alternatives(&child, group_keys, est, act, &mut alts);
                }
            }
            LogicalOp::Join { keys, .. } => {
                let left_alts = self.enumerate(&logical.children[0])?;
                let right_alts = self.enumerate(&logical.children[1])?;
                for left in &left_alts {
                    for right in &right_alts {
                        self.join_alternatives(left, right, keys, est, act, &mut alts);
                    }
                }
            }
            LogicalOp::Union => {
                let mut children_best: Vec<Alternative> = Vec::new();
                for c in &logical.children {
                    let mut child_alts = self.enumerate(c)?;
                    child_alts.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
                    children_best.push(child_alts.into_iter().next().ok_or_else(|| {
                        CleoError::OptimizationError("empty child alternatives".into())
                    })?);
                }
                let child_cost: f64 = children_best.iter().map(|c| c.cost).sum();
                let parts = children_best
                    .iter()
                    .map(|c| c.node.partition_count)
                    .max()
                    .unwrap_or(1);
                let mut node = PhysicalNode::new_shared(
                    PhysicalOpKind::Project,
                    "union",
                    children_best.into_iter().map(|c| c.node).collect(),
                );
                node.est = est;
                node.act = act;
                node.partition_count = parts;
                self.alternative(&mut alts, node, Cost::Known(child_cost));
            }
        }

        self.resolve_level(&mut alts);
        if alts.is_empty() {
            return Err(CleoError::OptimizationError(format!(
                "no alternatives generated for {:?}",
                logical.op.name()
            )));
        }
        self.stats.alternatives_generated += alts.len();
        Ok(prune(alts))
    }

    /// Cost every operator this level created in one call, then fold each
    /// alternative's cost as it was recorded.
    fn resolve_level(&mut self, alts: &mut [Alternative]) {
        let meta = self.meta;
        let level = &mut self.level;
        let LevelFold {
            nodes,
            steps,
            values,
            ..
        } = &mut *level;
        cost_in_one_call(
            self.cost_model,
            |sweeps| sweeps.extend(nodes.iter().map(|node| SweepSpec::at_own_count(node, meta))),
            |exclusive| {
                for step in steps.iter() {
                    let read = |cost| match cost {
                        Cost::Known(value) => value,
                        Cost::Slot(slot) => values[slot],
                    };
                    let value = match *step {
                        Step::Sum(a, b) => read(a) + read(b),
                        Step::Costed { children, node } => {
                            read(children) + exclusive[node].max(0.0)
                        }
                    };
                    values.push(value);
                }
            },
        );
        for (alt, &cost) in alts.iter_mut().zip(&level.alt_costs) {
            alt.cost = level.value(cost);
        }
        level.clear();
    }

    /// Record a freshly built operator for this level's cost call: its cost
    /// will be `children + exclusive.max(0.0)`.
    fn costed(&mut self, node: PhysicalNode, children: Cost) -> (Arc<PhysicalNode>, Cost) {
        self.stats.model_invocations += 1;
        let node = Arc::new(node);
        let level = &mut self.level;
        level.nodes.push(Arc::clone(&node));
        level.steps.push(Step::Costed {
            children,
            node: level.nodes.len() - 1,
        });
        (node, Cost::Slot(level.steps.len() - 1))
    }

    /// The cost of two subplans together (a join's inputs).
    fn sum(&mut self, a: Cost, b: Cost) -> Cost {
        match (a, b) {
            (Cost::Known(a), Cost::Known(b)) => Cost::Known(a + b),
            _ => {
                self.level.steps.push(Step::Sum(a, b));
                Cost::Slot(self.level.steps.len() - 1)
            }
        }
    }

    /// [`Enumerator::costed`], kept as one of this level's alternatives.
    fn alternative(&mut self, alts: &mut Vec<Alternative>, node: PhysicalNode, children: Cost) {
        let costed = self.costed(node, children);
        self.keep(alts, costed);
    }

    /// Make a subplan one of this level's alternatives (its cost is filled in
    /// when the level resolves).
    fn keep(&mut self, alts: &mut Vec<Alternative>, (node, cost): (Arc<PhysicalNode>, Cost)) {
        alts.push(Alternative {
            node,
            cost: f64::NAN,
        });
        self.level.alt_costs.push(cost);
    }

    /// Build a unary operator that keeps its child's partitioning and partition
    /// count.  The child subtree is shared, not cloned.
    fn unary_passthrough(
        &self,
        kind: PhysicalOpKind,
        label: impl Into<String>,
        child: &Alternative,
        est: OpStats,
        act: OpStats,
        preserve_sort: bool,
    ) -> PhysicalNode {
        let mut node = PhysicalNode::new_shared(kind, label, vec![Arc::clone(&child.node)]);
        node.est = est;
        node.act = act;
        node.partition_count = child.node.partition_count;
        node.partitioned_on = child.node.partitioned_on.clone();
        node.sorted_on = if preserve_sort {
            child.node.sorted_on.clone()
        } else {
            Vec::new()
        };
        node
    }

    /// Build a Sort enforcer over a child (subtree shared).
    fn sort_enforcer(&self, child: &Arc<PhysicalNode>, keys: Vec<String>) -> PhysicalNode {
        // A sort does not change cardinalities: reuse the child's output stats.
        let mut node = PhysicalNode::new_shared(
            PhysicalOpKind::Sort,
            keys.join(","),
            vec![Arc::clone(child)],
        );
        node.est = passthrough_stats(&child.est);
        node.act = passthrough_stats(&child.act);
        node.partition_count = child.partition_count;
        node.partitioned_on = child.partitioned_on.clone();
        node.sorted_on = keys;
        node
    }

    /// Build an Exchange enforcer repartitioning a child onto `keys` with `partitions`.
    fn exchange_enforcer(
        &self,
        child: Arc<PhysicalNode>,
        keys: Vec<String>,
        partitions: usize,
    ) -> PhysicalNode {
        let est = passthrough_stats(&child.est);
        let act = passthrough_stats(&child.act);
        let mut node =
            PhysicalNode::new_shared(PhysicalOpKind::Exchange, keys.join(","), vec![child]);
        node.est = est;
        node.act = act;
        node.partition_count = partitions;
        node.partitioned_on = keys;
        node.sorted_on = Vec::new();
        node
    }

    /// Generate the aggregation alternatives over one child alternative.
    fn aggregate_alternatives(
        &mut self,
        child: &Alternative,
        group_keys: &[String],
        est: OpStats,
        act: OpStats,
        alts: &mut Vec<Alternative>,
    ) {
        let scalar = group_keys.is_empty();
        let already_partitioned = !scalar
            && child.node.partitioned_on == group_keys
            && !child.node.partitioned_on.is_empty();

        // Candidate "pre-exchange" children: plain, and optionally locally
        // pre-aggregated (both share the child subtree).
        let plain = (Arc::clone(&child.node), Cost::Known(child.cost));
        let local = (self.enable_local_aggregation && !already_partitioned).then(|| {
            let mut local = PhysicalNode::new_shared(
                PhysicalOpKind::LocalAggregate,
                group_keys.join(","),
                vec![Arc::clone(&child.node)],
            );
            let p = child.node.partition_count.max(1) as f64;
            local.est = local_agg_stats(&child.node.est, &est, p);
            local.act = local_agg_stats(&child.node.act, &act, p);
            local.partition_count = child.node.partition_count;
            local.partitioned_on = child.node.partitioned_on.clone();
            self.costed(local, Cost::Known(child.cost))
        });

        for (pre, pre_cost) in std::iter::once(plain).chain(local) {
            // Establish the partitioning requirement.
            let (partitioned, part_cost) =
                if already_partitioned && pre.kind != PhysicalOpKind::LocalAggregate {
                    (pre, pre_cost)
                } else {
                    let partitions = if scalar {
                        1
                    } else {
                        default_partition_count(pre.est.output_bytes())
                    };
                    let exch = self.exchange_enforcer(pre, group_keys.to_vec(), partitions);
                    self.costed(exch, pre_cost)
                };

            // Hash aggregation.
            let mut hash = PhysicalNode::new_shared(
                PhysicalOpKind::HashAggregate,
                group_keys.join(","),
                vec![Arc::clone(&partitioned)],
            );
            hash.est = est;
            hash.act = act;
            hash.partition_count = partitioned.partition_count;
            hash.partitioned_on = group_keys.to_vec();
            self.alternative(alts, hash, part_cost);

            // Sort + stream aggregation.
            let sort = self.sort_enforcer(&partitioned, group_keys.to_vec());
            let (sorted, sort_cost) = self.costed(sort, part_cost);
            let mut stream = PhysicalNode::new_shared(
                PhysicalOpKind::StreamAggregate,
                group_keys.join(","),
                vec![sorted],
            );
            stream.est = est;
            stream.act = act;
            stream.partition_count = partitioned.partition_count;
            stream.partitioned_on = group_keys.to_vec();
            stream.sorted_on = group_keys.to_vec();
            self.alternative(alts, stream, sort_cost);
        }
    }

    /// Generate the join alternatives over one (left, right) pair of child alternatives.
    fn join_alternatives(
        &mut self,
        left: &Alternative,
        right: &Alternative,
        keys: &[String],
        est: OpStats,
        act: OpStats,
        alts: &mut Vec<Alternative>,
    ) {
        // Decide the join partition count: reuse an already-correctly-partitioned
        // side's count if possible (this is what lets the learned models skip
        // exchanges, Section 6.6.2), otherwise derive from the larger input.
        let left_ok = left.node.partitioned_on == keys;
        let right_ok = right.node.partitioned_on == keys;
        let partitions = if left_ok {
            left.node.partition_count
        } else if right_ok {
            right.node.partition_count
        } else {
            default_partition_count(
                left.node
                    .est
                    .output_bytes()
                    .max(right.node.est.output_bytes()),
            )
        };

        // Prepare each side: exchange if not partitioned on the keys with that
        // count (either way the input subtree is shared, never cloned).
        let mut prep = |alt: &Alternative, ok: bool| -> (Arc<PhysicalNode>, Cost) {
            if ok && alt.node.partition_count == partitions {
                (Arc::clone(&alt.node), Cost::Known(alt.cost))
            } else {
                let exch = self.exchange_enforcer(Arc::clone(&alt.node), keys.to_vec(), partitions);
                self.costed(exch, Cost::Known(alt.cost))
            }
        };
        let (l_part, l_cost) = prep(left, left_ok);
        let (r_part, r_cost) = prep(right, right_ok);

        // Hash join.
        let mut hj = PhysicalNode::new_shared(
            PhysicalOpKind::HashJoin,
            keys.join(","),
            vec![Arc::clone(&l_part), Arc::clone(&r_part)],
        );
        hj.est = est;
        hj.act = act;
        hj.partition_count = partitions;
        hj.partitioned_on = keys.to_vec();
        let inputs = self.sum(l_cost, r_cost);
        self.alternative(alts, hj, inputs);

        // Merge join: both sides must additionally be sorted on the keys.
        let mut sort_side = |node: Arc<PhysicalNode>, cost: Cost| -> (Arc<PhysicalNode>, Cost) {
            if node.sorted_on == keys {
                (node, cost)
            } else {
                let sort = self.sort_enforcer(&node, keys.to_vec());
                self.costed(sort, cost)
            }
        };
        let (l_sorted, l_scost) = sort_side(l_part, l_cost);
        let (r_sorted, r_scost) = sort_side(r_part, r_cost);
        let mut mj = PhysicalNode::new_shared(
            PhysicalOpKind::MergeJoin,
            keys.join(","),
            vec![l_sorted, r_sorted],
        );
        mj.est = est;
        mj.act = act;
        mj.partition_count = partitions;
        mj.partitioned_on = keys.to_vec();
        mj.sorted_on = keys.to_vec();
        let inputs = self.sum(l_scost, r_scost);
        self.alternative(alts, mj, inputs);
    }
}

/// Output stats of a pass-through enforcer (exchange/sort): cardinalities unchanged,
/// input equals the child's output.
fn passthrough_stats(child_out: &OpStats) -> OpStats {
    OpStats {
        input_cardinality: child_out.output_cardinality,
        base_cardinality: child_out.base_cardinality,
        output_cardinality: child_out.output_cardinality,
        avg_row_bytes: child_out.avg_row_bytes,
    }
}

/// Output stats of a local (per-partition) pre-aggregation: at most `groups × P` rows.
fn local_agg_stats(child_out: &OpStats, global_agg: &OpStats, partitions: f64) -> OpStats {
    let local_out = (global_agg.output_cardinality * partitions)
        .min(child_out.output_cardinality)
        .max(1.0);
    OpStats {
        input_cardinality: child_out.output_cardinality,
        base_cardinality: child_out.base_cardinality,
        output_cardinality: local_out,
        avg_row_bytes: global_agg.avg_row_bytes,
    }
}

/// Keep the cheapest alternative overall plus the cheapest per distinct
/// (partitioned_on, sorted_on) property pair, capped at [`MAX_ALTERNATIVES`].
fn prune(mut alts: Vec<Alternative>) -> Vec<Alternative> {
    alts.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // The kept alternatives gather at the front, in cost order; an
    // alternative is kept unless an earlier kept one has its properties.
    let mut kept = 0;
    for i in 0..alts.len() {
        if kept == MAX_ALTERNATIVES {
            break;
        }
        let node = &alts[i].node;
        let seen = alts[..kept].iter().any(|k| {
            k.node.partitioned_on == node.partitioned_on && k.node.sorted_on == node.sorted_on
        });
        if !seen {
            alts.swap(kept, i);
            kept += 1;
        }
    }
    alts.truncate(kept);
    alts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HeuristicCostModel;
    use cleo_engine::catalog::{ColumnDef, TableDef};
    use cleo_engine::types::{ClusterId, DayIndex, JobId};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(TableDef::new(
            "big",
            vec![
                ColumnDef::new("k", 8.0, 0.1),
                ColumnDef::new("v", 72.0, 0.9),
            ],
            5e8,
            120,
        ));
        c.add_table(TableDef::new(
            "small",
            vec![
                ColumnDef::new("k", 8.0, 1.0),
                ColumnDef::new("d", 24.0, 0.5),
            ],
            1e5,
            4,
        ));
        c
    }

    fn meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "enum_test".into(),
            normalized_inputs: vec!["big".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn enumerate_best(plan: &LogicalNode) -> (PhysicalNode, EnumerationStats) {
        let model = HeuristicCostModel::default_model();
        let cat = catalog();
        let m = meta();
        let mut e = Enumerator::new(&model, &cat, &m, false, true);
        let mut alts = e.enumerate(plan).unwrap();
        alts.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
        let best = alts.remove(0).node;
        let best = Arc::try_unwrap(best).unwrap_or_else(|arc| (*arc).clone());
        (best, e.stats)
    }

    #[test]
    fn default_partition_count_heuristic() {
        assert_eq!(default_partition_count(0.0), 1);
        assert_eq!(default_partition_count(BYTES_PER_PARTITION * 10.0), 10);
        assert_eq!(default_partition_count(1e18), MAX_PARTITIONS);
    }

    #[test]
    fn scan_filter_plan_is_a_simple_pipeline() {
        let plan = LogicalNode::get("big")
            .filter("v > 1", 0.1, 0.1)
            .output("o");
        let (root, stats) = enumerate_best(&plan);
        assert_eq!(root.kind, PhysicalOpKind::Output);
        assert_eq!(root.children[0].kind, PhysicalOpKind::Filter);
        assert_eq!(root.children[0].children[0].kind, PhysicalOpKind::Extract);
        // Extract's stored partition count propagates up the stage.
        assert_eq!(root.partition_count, 120);
        assert!(stats.model_invocations > 0);
    }

    #[test]
    fn aggregation_inserts_exchange_partitioned_on_group_keys() {
        let plan = LogicalNode::get("big")
            .aggregate(vec!["k".into()], 0.01, 0.01)
            .output("o");
        let (root, _) = enumerate_best(&plan);
        // Somewhere in the plan there must be an Exchange partitioned on "k".
        let mut found_exchange = false;
        root.visit(&mut |n| {
            if n.kind == PhysicalOpKind::Exchange {
                found_exchange = true;
                assert_eq!(n.partitioned_on, vec!["k".to_string()]);
            }
        });
        assert!(found_exchange);
        // The chosen aggregate is either hash or stream based.
        let agg_count = root
            .collect()
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    PhysicalOpKind::HashAggregate | PhysicalOpKind::StreamAggregate
                )
            })
            .count();
        assert_eq!(agg_count, 1);
    }

    #[test]
    fn join_gets_both_sides_partitioned_on_the_key() {
        let plan = LogicalNode::get("big")
            .join(LogicalNode::get("small"), vec!["k".into()], 1.0, 1.0)
            .output("o");
        let (root, _) = enumerate_best(&plan);
        let join = root
            .collect()
            .into_iter()
            .find(|n| matches!(n.kind, PhysicalOpKind::HashJoin | PhysicalOpKind::MergeJoin))
            .expect("a join implementation must be chosen")
            .clone();
        assert_eq!(join.partitioned_on, vec!["k".to_string()]);
        for child in &join.children {
            // Each join input is either an exchange on the key or sorted+exchanged.
            let has_exchange = child.kind == PhysicalOpKind::Exchange
                || child
                    .collect()
                    .iter()
                    .any(|n| n.kind == PhysicalOpKind::Exchange);
            assert!(has_exchange);
        }
    }

    #[test]
    fn consecutive_aggregations_on_same_key_skip_second_exchange() {
        // agg(k) then agg(k) again: the second aggregate's input is already
        // partitioned on k, so no second exchange is needed.
        let plan = LogicalNode::get("big")
            .aggregate(vec!["k".into()], 0.05, 0.05)
            .aggregate(vec!["k".into()], 0.5, 0.5)
            .output("o");
        let (root, _) = enumerate_best(&plan);
        let exchanges = root
            .collect()
            .iter()
            .filter(|n| n.kind == PhysicalOpKind::Exchange)
            .count();
        assert_eq!(exchanges, 1, "only the first aggregation repartitions");
    }

    #[test]
    fn scalar_aggregate_collapses_to_one_partition() {
        let plan = LogicalNode::get("small")
            .aggregate(vec![], 1e-6, 1e-6)
            .output("o");
        let (root, _) = enumerate_best(&plan);
        let agg = root
            .collect()
            .into_iter()
            .find(|n| {
                matches!(
                    n.kind,
                    PhysicalOpKind::HashAggregate | PhysicalOpKind::StreamAggregate
                )
            })
            .unwrap()
            .clone();
        assert_eq!(agg.partition_count, 1);
    }

    #[test]
    fn perfect_cardinality_mode_copies_actuals_into_estimates() {
        let plan = LogicalNode::get("big").filter("sel", 0.5, 0.01).output("o");
        let model = HeuristicCostModel::default_model();
        let cat = catalog();
        let m = meta();
        let mut e = Enumerator::new(&model, &cat, &m, true, true);
        let alts = e.enumerate(&plan).unwrap();
        let filter = alts[0]
            .node
            .collect()
            .into_iter()
            .find(|n| n.kind == PhysicalOpKind::Filter)
            .unwrap()
            .clone();
        assert!((filter.est.output_cardinality - filter.act.output_cardinality).abs() < 1e-6);
    }
}
