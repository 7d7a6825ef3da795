//! Physical query plans.
//!
//! A [`PhysicalNode`] tree is what the optimizer produces and what the execution
//! simulator runs.  Each node records the operator implementation, the compile-time
//! *estimated* statistics (what any cost model may look at), the *actual* statistics
//! (used only by the simulator and by the "perfect cardinality" ablation), the
//! partition count chosen for it, and the derived physical properties (partitioning
//! and sort order) that Cascades tracks.

use std::sync::{Arc, OnceLock};

use crate::types::{OpId, OpStats};

/// Physical operator implementations, mirroring the SCOPE operators named in the paper
/// (Extract, Exchange/Shuffle, Reduce/Process, hash vs merge join, hash vs stream
/// aggregation, local aggregation, sort, output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalOpKind {
    /// Leaf scan of a stored table; decides the initial partition count.
    Extract,
    /// Row filter.
    Filter,
    /// Column projection.
    Project,
    /// Hash equi-join (build on the smaller input).
    HashJoin,
    /// Sort-merge equi-join (requires both inputs sorted on the join keys).
    MergeJoin,
    /// Hash-based group-by aggregation.
    HashAggregate,
    /// Stream (sorted) group-by aggregation (requires input sorted on the group keys).
    StreamAggregate,
    /// Partial (per-partition) aggregation inserted below an exchange.
    LocalAggregate,
    /// Full sort on a set of keys.
    Sort,
    /// Exchange (shuffle): repartitions data between stages and sets the partition
    /// count for the consumer stage.
    Exchange,
    /// User-defined processor/reducer.
    Process,
    /// Terminal output writer.
    Output,
}

impl PhysicalOpKind {
    /// Stable operator name used in signatures and reports.
    pub const fn name(&self) -> &'static str {
        match self {
            PhysicalOpKind::Extract => "Extract",
            PhysicalOpKind::Filter => "Filter",
            PhysicalOpKind::Project => "Project",
            PhysicalOpKind::HashJoin => "HashJoin",
            PhysicalOpKind::MergeJoin => "MergeJoin",
            PhysicalOpKind::HashAggregate => "HashAggregate",
            PhysicalOpKind::StreamAggregate => "StreamAggregate",
            PhysicalOpKind::LocalAggregate => "LocalAggregate",
            PhysicalOpKind::Sort => "Sort",
            PhysicalOpKind::Exchange => "Exchange",
            PhysicalOpKind::Process => "Process",
            PhysicalOpKind::Output => "Output",
        }
    }

    /// All physical operator kinds (used to pre-build per-operator models).
    pub const fn all() -> &'static [PhysicalOpKind] {
        &[
            PhysicalOpKind::Extract,
            PhysicalOpKind::Filter,
            PhysicalOpKind::Project,
            PhysicalOpKind::HashJoin,
            PhysicalOpKind::MergeJoin,
            PhysicalOpKind::HashAggregate,
            PhysicalOpKind::StreamAggregate,
            PhysicalOpKind::LocalAggregate,
            PhysicalOpKind::Sort,
            PhysicalOpKind::Exchange,
            PhysicalOpKind::Process,
            PhysicalOpKind::Output,
        ]
    }

    /// True for operators that materialise or block the pipeline (their parents
    /// typically see a different latency profile than over streaming children).
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            PhysicalOpKind::Sort
                | PhysicalOpKind::HashAggregate
                | PhysicalOpKind::HashJoin
                | PhysicalOpKind::Exchange
        )
    }

    /// True for the partitioning operators that establish a stage and pick the stage's
    /// partition count (Section 2.1: Extract and Exchange).
    pub fn is_partitioning(&self) -> bool {
        matches!(self, PhysicalOpKind::Extract | PhysicalOpKind::Exchange)
    }

    /// Logical operator name this implementation corresponds to (used by the
    /// operator-subgraphApprox signature, which works on logical frequencies).
    pub fn logical_name(&self) -> &'static str {
        LOGICAL_OP_NAMES[self.logical_index()]
    }

    /// Index of [`PhysicalOpKind::logical_name`] in [`LOGICAL_OP_NAMES`].
    fn logical_index(&self) -> usize {
        match self {
            PhysicalOpKind::HashAggregate
            | PhysicalOpKind::StreamAggregate
            | PhysicalOpKind::LocalAggregate => 0,
            PhysicalOpKind::Exchange => 1,
            PhysicalOpKind::Filter => 2,
            PhysicalOpKind::Extract => 3,
            PhysicalOpKind::HashJoin | PhysicalOpKind::MergeJoin => 4,
            PhysicalOpKind::Output => 5,
            PhysicalOpKind::Process => 6,
            PhysicalOpKind::Project => 7,
            PhysicalOpKind::Sort => 8,
        }
    }
}

/// The logical operators physical implementations map onto, sorted by name.
pub const LOGICAL_OP_NAMES: [&str; 9] = [
    "Aggregate",
    "Exchange",
    "Filter",
    "Get",
    "Join",
    "Output",
    "Process",
    "Project",
    "Sort",
];

/// Operators per logical operator in one subtree, indexed like
/// [`LOGICAL_OP_NAMES`].  `u16` keeps a node the size it was; a count
/// saturates at 65,535, far beyond any plan the engine builds.
pub type LogicalCounts = [u16; LOGICAL_OP_NAMES.len()];

fn logical_counts(kind: PhysicalOpKind, children: &[Arc<PhysicalNode>]) -> LogicalCounts {
    let mut counts = [0u16; LOGICAL_OP_NAMES.len()];
    counts[kind.logical_index()] = 1;
    for child in children {
        for (total, &below) in counts.iter_mut().zip(&child.structure.logical_counts) {
            *total = total.saturating_add(below);
        }
    }
    counts
}

/// Structure-derived values cached per node so the optimizer's costing hot loop
/// never re-walks a subtree it has already summarised.
///
/// `node_count`/`depth`/`logical_counts` are computed bottom-up at construction
/// (children are already built, so each is O(children)).  The signature memo is
/// filled lazily on first use by `cleo-core`'s signature layer, which keeps the
/// hashing scheme out of the engine crate.  All cached values depend **only** on
/// the structural fields (`kind`, `label`, `children`); statistics, ids,
/// partition counts, and physical properties may be mutated freely afterwards.
/// `kind` and `children` must not be mutated in place after construction, nor
/// `label` after the first signature query: rebuild the node instead (debug
/// builds panic on a stale value).
#[derive(Debug, Default)]
struct StructureCache {
    node_count: usize,
    depth: usize,
    logical_counts: LogicalCounts,
    /// Memoised exact operator-subgraph signature.
    subgraph_signature: OnceLock<u64>,
}

impl Clone for StructureCache {
    fn clone(&self) -> Self {
        // Cloned nodes keep the structural counts (label/stat mutations cannot
        // change them) but drop the memoised signature: a clone is exactly what
        // code mutates (directly, or through `Arc::make_mut` during plan
        // rewrites), and a stale signature memo on a relabelled clone would be a
        // correctness bug.  Refilling is cheap — the clone's children keep their
        // own memos, so recomputation is O(children), not O(subtree).
        StructureCache {
            node_count: self.node_count,
            depth: self.depth,
            logical_counts: self.logical_counts,
            subgraph_signature: OnceLock::new(),
        }
    }
}

/// A node in the physical plan tree.
///
/// Children are held behind [`Arc`] so plan enumeration can *share* subtrees
/// between candidate alternatives instead of deep-cloning them per alternative;
/// mutation through a shared child goes through [`Arc::make_mut`] (copy on
/// write), which [`PhysicalNode::visit_mut`] does transparently.
#[derive(Debug, Clone)]
pub struct PhysicalNode {
    /// Unique id within the plan (assigned by [`PhysicalPlan::assign_ids`]).
    pub id: OpId,
    /// Operator implementation.
    pub kind: PhysicalOpKind,
    /// Operator detail: table name for Extract, predicate for Filter, UDF name for
    /// Process, join keys for joins, sink for Output.  Part of the subgraph signature.
    pub label: String,
    /// Children (inputs), shared between plan alternatives.
    pub children: Vec<Arc<PhysicalNode>>,
    /// Compile-time estimated statistics — the only statistics cost models may use.
    pub est: OpStats,
    /// Actual statistics — used by the simulator and by perfect-cardinality ablations.
    pub act: OpStats,
    /// Partition count (degree of parallelism) assigned to this operator.
    pub partition_count: usize,
    /// Columns the output is hash-partitioned on (empty = round-robin / unknown).
    pub partitioned_on: Vec<String>,
    /// Columns the output is sorted on (empty = unsorted).
    pub sorted_on: Vec<String>,
    /// Hidden per-row cost multiplier for UDF operators (1.0 otherwise).  The default
    /// cost model deliberately ignores this, mirroring the "custom user code as black
    /// box" problem of Section 2.4.
    pub udf_cost_factor: f64,
    /// Cached structure-derived values (see [`StructureCache`]).
    structure: StructureCache,
}

impl PartialEq for PhysicalNode {
    fn eq(&self, other: &Self) -> bool {
        // The structure cache is derived state and excluded from equality.
        self.id == other.id
            && self.kind == other.kind
            && self.label == other.label
            && self.est == other.est
            && self.act == other.act
            && self.partition_count == other.partition_count
            && self.partitioned_on == other.partitioned_on
            && self.sorted_on == other.sorted_on
            && self.udf_cost_factor == other.udf_cost_factor
            && self.children == other.children
    }
}

impl PhysicalNode {
    /// Create a node with defaulted statistics and properties.
    pub fn new(
        kind: PhysicalOpKind,
        label: impl Into<String>,
        children: Vec<PhysicalNode>,
    ) -> Self {
        Self::new_shared(kind, label, children.into_iter().map(Arc::new).collect())
    }

    /// Create a node over already-shared children — the enumeration path, where
    /// one child subtree backs many candidate parents without being cloned.
    pub fn new_shared(
        kind: PhysicalOpKind,
        label: impl Into<String>,
        children: Vec<Arc<PhysicalNode>>,
    ) -> Self {
        let structure = StructureCache {
            node_count: 1 + children.iter().map(|c| c.node_count()).sum::<usize>(),
            depth: 1 + children.iter().map(|c| c.depth()).max().unwrap_or(0),
            logical_counts: logical_counts(kind, &children),
            subgraph_signature: OnceLock::new(),
        };
        PhysicalNode {
            id: OpId(0),
            kind,
            label: label.into(),
            children,
            est: OpStats::default(),
            act: OpStats::default(),
            partition_count: 1,
            partitioned_on: Vec::new(),
            sorted_on: Vec::new(),
            udf_cost_factor: 1.0,
            structure,
        }
    }

    /// Number of operators in the subtree rooted here (cached at construction;
    /// debug builds recompute and panic if `children` was mutated in place).
    pub fn node_count(&self) -> usize {
        debug_assert_eq!(
            self.structure.node_count,
            1 + self.children.iter().map(|c| c.node_count()).sum::<usize>(),
            "stale node_count cache: children were mutated in place after construction"
        );
        self.structure.node_count
    }

    /// Depth of the subtree rooted here (single node = 1; cached at
    /// construction, with the same debug staleness tripwire as `node_count`).
    pub fn depth(&self) -> usize {
        debug_assert_eq!(
            self.structure.depth,
            1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0),
            "stale depth cache: children were mutated in place after construction"
        );
        self.structure.depth
    }

    /// The memoised exact-subgraph signature: computed once by `compute` on first
    /// call, then returned from the cache.  The signature layer in `cleo-core`
    /// supplies `compute`; it must be a pure function of the structural fields
    /// (`kind`, `label`, `children`).  Debug builds recompute on every access
    /// and panic on a mismatch, so a structural mutation after the first
    /// signature query (the one way to invalidate the memo — clones reset it)
    /// is caught in tests instead of silently serving a stale hash.
    pub fn memo_subgraph_signature(&self, compute: impl Fn(&PhysicalNode) -> u64) -> u64 {
        let cached = *self
            .structure
            .subgraph_signature
            .get_or_init(|| compute(self));
        debug_assert_eq!(
            cached,
            compute(self),
            "stale subgraph-signature memo: kind/label/children were mutated in \
             place after the first signature query (clone the node instead)"
        );
        cached
    }

    /// Visit every node (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PhysicalNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// Visit every node mutably (pre-order).  Shared children are copied on
    /// write ([`Arc::make_mut`]), so mutations never leak into other plans that
    /// share the subtree.
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut PhysicalNode)) {
        f(self);
        for c in &mut self.children {
            Arc::make_mut(c).visit_mut(f);
        }
    }

    /// Collect references to all nodes (pre-order).
    pub fn collect(&self) -> Vec<&PhysicalNode> {
        let mut out = Vec::with_capacity(self.node_count());
        self.visit(&mut |n| out.push(n));
        out
    }

    /// Find a node by id.
    pub fn find(&self, id: OpId) -> Option<&PhysicalNode> {
        if self.id == id {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(id))
    }

    /// Operators per logical operator in this subtree, indexed like
    /// [`LOGICAL_OP_NAMES`] (cached at construction, with the same debug
    /// staleness tripwire as `node_count`).
    pub fn logical_counts(&self) -> &LogicalCounts {
        debug_assert_eq!(
            self.structure.logical_counts,
            logical_counts(self.kind, &self.children),
            "stale logical-operator counts: kind/children were mutated in place after construction"
        );
        &self.structure.logical_counts
    }

    /// Names of all extracted tables in this subtree (depth-first order).
    pub fn input_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |n| {
            if n.kind == PhysicalOpKind::Extract {
                out.push(n.label.clone());
            }
        });
        out
    }

    /// Sum of leaf (Extract) estimated output cardinalities under this node — the
    /// "base cardinality" feature.
    pub fn base_cardinality_est(&self) -> f64 {
        let mut total = 0.0;
        self.visit(&mut |n| {
            if n.kind == PhysicalOpKind::Extract {
                total += n.est.output_cardinality;
            }
        });
        total
    }
}

/// Metadata identifying the job a plan belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Unique job id.
    pub id: crate::types::JobId,
    /// Cluster the job runs on.
    pub cluster: crate::types::ClusterId,
    /// Template id for recurring jobs, `None` for ad-hoc jobs.
    pub template: Option<crate::types::TemplateId>,
    /// Job (script) name.
    pub name: String,
    /// Normalised input names (dates/numbers stripped) — the "input template" used by
    /// the operator-input model.
    pub normalized_inputs: Vec<String>,
    /// Job parameters (the recurring script's arguments).
    pub params: Vec<f64>,
    /// Day the job was submitted.
    pub day: crate::types::DayIndex,
    /// True for recurring jobs, false for ad-hoc ones.
    pub recurring: bool,
}

/// A complete physical plan: metadata plus the operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Job metadata.
    pub meta: JobMeta,
    /// Root operator (normally an Output).
    pub root: PhysicalNode,
}

impl PhysicalPlan {
    /// Create a plan and assign sequential operator ids (pre-order).
    pub fn new(meta: JobMeta, mut root: PhysicalNode) -> Self {
        let mut next = 0usize;
        root.visit_mut(&mut |n| {
            n.id = OpId(next);
            next += 1;
        });
        PhysicalPlan { meta, root }
    }

    /// Create a plan from a shared enumeration root.  The root itself is
    /// unwrapped (or cloned if other alternatives still hold it); subtrees stay
    /// shared and are only copied if a later rewrite actually mutates them.
    pub fn from_shared(meta: JobMeta, root: Arc<PhysicalNode>) -> Self {
        // `Arc::unwrap_or_clone` needs Rust 1.76; stay on the 1.75 MSRV.
        let root = Arc::try_unwrap(root).unwrap_or_else(|arc| (*arc).clone());
        Self::new(meta, root)
    }

    /// Re-assign sequential operator ids (after structural rewrites).
    pub fn assign_ids(&mut self) {
        let mut next = 0usize;
        self.root.visit_mut(&mut |n| {
            n.id = OpId(next);
            next += 1;
        });
    }

    /// Number of operators in the plan.
    pub fn op_count(&self) -> usize {
        self.root.node_count()
    }

    /// All operators in pre-order.
    pub fn operators(&self) -> Vec<&PhysicalNode> {
        self.root.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClusterId, DayIndex, JobId};

    pub(crate) fn test_meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "test_job".into(),
            normalized_inputs: vec!["events_{date}".into()],
            params: vec![1.0],
            day: DayIndex(0),
            recurring: false,
        }
    }

    fn small_plan() -> PhysicalPlan {
        let extract = PhysicalNode::new(PhysicalOpKind::Extract, "events", vec![]);
        let filter = PhysicalNode::new(PhysicalOpKind::Filter, "p>1", vec![extract]);
        let exch = PhysicalNode::new(PhysicalOpKind::Exchange, "user", vec![filter]);
        let agg = PhysicalNode::new(PhysicalOpKind::HashAggregate, "user", vec![exch]);
        let out = PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![agg]);
        PhysicalPlan::new(test_meta(), out)
    }

    #[test]
    fn ids_are_assigned_preorder_and_unique() {
        let plan = small_plan();
        let ops = plan.operators();
        assert_eq!(ops.len(), 5);
        let ids: Vec<usize> = ops.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(ops[0].kind, PhysicalOpKind::Output);
        assert_eq!(ops[4].kind, PhysicalOpKind::Extract);
    }

    #[test]
    fn structural_helpers_work() {
        let plan = small_plan();
        assert_eq!(plan.op_count(), 5);
        assert_eq!(plan.root.depth(), 5);
        assert_eq!(plan.root.input_tables(), vec!["events".to_string()]);
        // Aggregate, Exchange, Filter, Get and Output once each.
        assert_eq!(plan.root.logical_counts(), &[1, 1, 1, 1, 0, 1, 0, 0, 0]);
        assert!(plan.root.find(OpId(4)).is_some());
        assert!(plan.root.find(OpId(99)).is_none());
    }

    #[test]
    fn operator_kind_classification() {
        assert!(PhysicalOpKind::Exchange.is_partitioning());
        assert!(PhysicalOpKind::Extract.is_partitioning());
        assert!(!PhysicalOpKind::Filter.is_partitioning());
        assert!(PhysicalOpKind::Sort.is_blocking());
        assert!(!PhysicalOpKind::Project.is_blocking());
        assert_eq!(PhysicalOpKind::all().len(), 12);
        assert_eq!(PhysicalOpKind::MergeJoin.logical_name(), "Join");
    }

    #[test]
    fn base_cardinality_sums_extract_estimates() {
        let mut plan = small_plan();
        plan.root.visit_mut(&mut |n| {
            if n.kind == PhysicalOpKind::Extract {
                n.est.output_cardinality = 500.0;
            }
        });
        assert_eq!(plan.root.base_cardinality_est(), 500.0);
    }

    #[test]
    fn node_count_and_depth_are_cached_at_construction() {
        let plan = small_plan();
        assert_eq!(plan.root.node_count(), 5);
        assert_eq!(plan.root.depth(), 5);
        let leaf = PhysicalNode::new(PhysicalOpKind::Extract, "t", vec![]);
        assert_eq!(leaf.node_count(), 1);
        assert_eq!(leaf.depth(), 1);
    }

    #[test]
    fn logical_counts_sum_over_children_survive_a_clone_and_saturate() {
        // Two join inputs that each hold an aggregate: physical kinds that share
        // a logical name add up, across both children.
        let side = |table: &str, agg: PhysicalOpKind| {
            let scan = PhysicalNode::new(PhysicalOpKind::Extract, table, vec![]);
            PhysicalNode::new(agg, "k", vec![scan])
        };
        let join = PhysicalNode::new(
            PhysicalOpKind::MergeJoin,
            "k",
            vec![
                side("a", PhysicalOpKind::StreamAggregate),
                side("b", PhysicalOpKind::LocalAggregate),
            ],
        );
        // Aggregate 2, Get 2, Join 1.
        let expected = [2, 0, 0, 2, 1, 0, 0, 0, 0];
        assert_eq!(join.logical_counts(), &expected);
        assert_eq!(join.clone().logical_counts(), &expected);
        let total: usize = join.logical_counts().iter().map(|&n| usize::from(n)).sum();
        assert_eq!(total, join.node_count());
        // A count saturates instead of overflowing (a panic in debug builds, a
        // wrap in release ones): 70,000 references to one shared leaf.
        let leaf = Arc::new(PhysicalNode::new(PhysicalOpKind::Extract, "t", vec![]));
        let wide = PhysicalNode::new_shared(PhysicalOpKind::Sort, "k", vec![leaf; 70_000]);
        assert_eq!(wide.logical_counts(), &[0, 0, 0, u16::MAX, 0, 0, 0, 0, 1]);
        // The table is what `logical_name` reads, and it is sorted.
        assert!(LOGICAL_OP_NAMES.windows(2).all(|w| w[0] < w[1]));
        for kind in PhysicalOpKind::all() {
            assert!(LOGICAL_OP_NAMES.contains(&kind.logical_name()));
        }
    }

    #[test]
    fn shared_subtrees_are_copied_on_write() {
        // Two parents over one shared child: mutating through one parent must
        // not leak into the other (Arc::make_mut copy-on-write).
        let child = Arc::new(PhysicalNode::new(PhysicalOpKind::Extract, "shared", vec![]));
        let mut a = PhysicalNode::new_shared(PhysicalOpKind::Filter, "a", vec![Arc::clone(&child)]);
        let b = PhysicalNode::new_shared(PhysicalOpKind::Filter, "b", vec![Arc::clone(&child)]);
        a.visit_mut(&mut |n| n.partition_count = 99);
        assert_eq!(a.children[0].partition_count, 99);
        assert_eq!(b.children[0].partition_count, 1, "b's shared child mutated");
        assert_eq!(child.partition_count, 1);
    }

    #[test]
    fn memo_slots_fill_once_and_reset_on_clone() {
        // `compute` must be a pure function of the structural fields; the memo
        // serves it from the cache afterwards.
        let compute = |n: &PhysicalNode| n.label.len() as u64;
        let node = PhysicalNode::new(PhysicalOpKind::Filter, "x", vec![]);
        assert_eq!(node.memo_subgraph_signature(compute), 1);
        assert_eq!(node.memo_subgraph_signature(compute), 1);
        // A clone is what gets mutated (directly or via Arc::make_mut), so it
        // drops the memo and recomputes against its own (new) structure.
        let mut cloned = node.clone();
        cloned.label = "longer".into();
        assert_eq!(cloned.memo_subgraph_signature(compute), 6);
        assert_eq!(cloned.node_count(), node.node_count());
        assert_eq!(node.memo_subgraph_signature(compute), 1, "original intact");
    }

    #[test]
    #[should_panic(expected = "stale subgraph-signature memo")]
    #[cfg(debug_assertions)]
    fn debug_builds_catch_structural_mutation_after_signature_query() {
        let compute = |n: &PhysicalNode| n.label.len() as u64;
        let mut node = PhysicalNode::new(PhysicalOpKind::Filter, "x", vec![]);
        assert_eq!(node.memo_subgraph_signature(compute), 1);
        // Mutating a structural field in place after the first query is the
        // one forbidden pattern; the debug tripwire must catch it.
        node.label = "mutated".into();
        let _ = node.memo_subgraph_signature(compute);
    }
}
