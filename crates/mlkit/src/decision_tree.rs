//! CART regression trees.
//!
//! The decision-tree cost model in the paper uses depth 15 (Section 3.4) and is also
//! the base learner for both the random forest and the FastTree gradient-boosted
//! ensemble (depth 5, 20 trees).  Splits minimise the sum of squared errors of the
//! children; leaves predict the mean target of their samples.
//!
//! Split search is presorted: a fit sorts each feature once at the root and
//! every split hands its children their rows in each feature's order by a
//! stable partition (`PresortedRows`), so no node sorts.  The ensembles go
//! one step further and rank each feature once per ensemble fit
//! (`DenseRanks`), deriving every stage's orders by a counting sort.  Both
//! yield, node for node, the order a stable per-node sort would, so every
//! fitted tree is bit-identical to one grown by re-sorting at each node.

use std::ops::Range;

use crate::dataset::Dataset;
use crate::loss::TargetTransform;
use crate::model::Regressor;
use cleo_common::rng::DetRng;
use cleo_common::{CleoError, Result};

/// Configuration for [`DecisionTreeRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// If set, consider only this many randomly chosen features per split
    /// (used by the random forest).
    pub max_features: Option<usize>,
    /// Seed for the feature subsampling RNG.
    pub seed: u64,
    /// Target transform applied before fitting (the standalone paper model uses
    /// `Log1p`; ensemble base learners use `Identity` and transform externally).
    pub target_transform: TargetTransform,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 15,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
            seed: 0,
            target_transform: TargetTransform::Log1p,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// One node of a fitted tree in persistable form — the exact entry of the
/// tree's node vector (`left`/`right` are indices into that same vector), so
/// an exported tree rebuilds bit-identically via
/// [`DecisionTreeRegressor::from_parts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeNode {
    /// Terminal node carrying its prediction.
    Leaf {
        /// Mean target of the leaf's training rows.
        value: f64,
    },
    /// Internal split: rows with `features[feature] <= threshold` descend to
    /// `left`, the rest to `right`.
    Split {
        /// Feature column tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Node index of the left child.
        left: usize,
        /// Node index of the right child.
        right: usize,
    },
}

/// Maximum depth for which a fitted tree is additionally compiled into the
/// complete-layout [`FlatEval`] table (2^8 = 256 leaves; the ensembles' depth
/// 3–5 trees qualify, the standalone depth-15 paper tree keeps the node walk).
const MAX_FLAT_DEPTH: usize = 8;

/// `(depth, splits, leaves)` view of one compiled tree (see
/// [`DecisionTreeRegressor::flat_parts`]).
pub(crate) type FlatParts<'a> = (usize, &'a [(u32, f64)], &'a [f64]);

/// A fitted tree compiled into a complete binary tree laid out in two flat
/// arrays: level-order split records (1-indexed, `idx -> 2*idx + went_right`)
/// and one leaf value per bottom slot.  Evaluation is `depth` comparisons with
/// no pointer chasing and no enum dispatch; shallow leaves are padded downward
/// (their value replicated across every bottom slot of the subtree), so the
/// decision function — and therefore every prediction — is bit-identical to the
/// node walk.
#[derive(Debug, Clone)]
struct FlatEval {
    depth: usize,
    /// `(feature, threshold)` per internal slot, length `1 << depth`.
    splits: Vec<(u32, f64)>,
    /// Leaf values, length `1 << depth`.
    leaves: Vec<f64>,
}

impl FlatEval {
    fn build(nodes: &[Node], depth: usize) -> FlatEval {
        let width = 1usize << depth;
        let mut flat = FlatEval {
            depth,
            splits: vec![(0, f64::INFINITY); width],
            leaves: vec![0.0; width],
        };
        flat.fill(nodes, 0, 1, 0);
        flat
    }

    /// Recursively place `node` at complete-tree slot `pos` on `level`,
    /// padding shallow leaves down to the bottom.
    fn fill(&mut self, nodes: &[Node], node: usize, pos: usize, level: usize) {
        match &nodes[node] {
            Node::Leaf { value } => {
                if level == self.depth {
                    self.leaves[pos - (1 << self.depth)] = *value;
                } else {
                    // Pad: the always-left sentinel split is already in place;
                    // replicate the value across both subtrees so every path
                    // through the padding lands on it.
                    self.fill(nodes, node, 2 * pos, level + 1);
                    self.fill(nodes, node, 2 * pos + 1, level + 1);
                }
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                self.splits[pos] = (*feature as u32, *threshold);
                self.fill(nodes, *left, 2 * pos, level + 1);
                self.fill(nodes, *right, 2 * pos + 1, level + 1);
            }
        }
    }

    // `!(x <= t)` is deliberate, not a readability slip: it must branch right
    // exactly when the node walk's `x <= t` (go left) is false, including for
    // NaN — `x > t` would send NaN rows the other way.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn eval(&self, row: &[f64]) -> f64 {
        let mut idx = 1usize;
        for _ in 0..self.depth {
            let (feature, threshold) = self.splits[idx];
            // Same predicate as the node walk (`<=` goes left), so NaN rows
            // take the same branch in both representations.
            idx = 2 * idx + usize::from(!(row[feature as usize] <= threshold));
        }
        self.leaves[idx - (1 << self.depth)]
    }

    /// Evaluate four rows through one tree with their (independent) descent
    /// chains interleaved: a single descent is a chain of dependent loads, so
    /// overlapping four of them hides most of the latency.  Each row takes
    /// exactly the branches [`FlatEval::eval`] would take.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN parity; see `eval`
    #[inline]
    fn eval4(&self, r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) -> [f64; 4] {
        let (mut i0, mut i1, mut i2, mut i3) = (1usize, 1usize, 1usize, 1usize);
        for _ in 0..self.depth {
            let (f0, t0) = self.splits[i0];
            let (f1, t1) = self.splits[i1];
            let (f2, t2) = self.splits[i2];
            let (f3, t3) = self.splits[i3];
            i0 = 2 * i0 + usize::from(!(r0[f0 as usize] <= t0));
            i1 = 2 * i1 + usize::from(!(r1[f1 as usize] <= t1));
            i2 = 2 * i2 + usize::from(!(r2[f2 as usize] <= t2));
            i3 = 2 * i3 + usize::from(!(r3[f3 as usize] <= t3));
        }
        let off = 1usize << self.depth;
        [
            self.leaves[i0 - off],
            self.leaves[i1 - off],
            self.leaves[i2 - off],
            self.leaves[i3 - off],
        ]
    }
}

/// Training rows laid out for the presorted split search: every feature is
/// sorted once and the sorted lists travel down the tree (SLIQ, Mehta et al.,
/// EDBT 1996), so no node sorts.
///
/// `orders` holds one segment of `n_rows` positions per feature, listing the
/// rows in ascending value order with ties in ascending position — the order
/// a stable sort on `partial_cmp` yields — and a last segment holding the
/// positions themselves in ascending order.  Every node owns the same range
/// of each segment.  A split stable-partitions the range, so each child's
/// range is again its rows in that order: the node's rows filtered from the
/// root order.  `Dataset` rejects non-finite values, so `partial_cmp` is a
/// total preorder and that filtered order is exactly what sorting the node's
/// own rows would give.
#[derive(Debug)]
pub(crate) struct PresortedRows {
    n_rows: usize,
    n_cols: usize,
    /// Feature values, column-major: `values[f * n_rows + p]`.
    values: Vec<f64>,
    /// `n_cols + 1` segments of `n_rows` positions (see the type docs).
    orders: Vec<u32>,
    /// Per-position side of the split being applied (`true` = left).
    goes_left: Vec<bool>,
    /// Right-hand rows of the segment being partitioned.
    spill: Vec<u32>,
}

impl PresortedRows {
    /// Column-major values of `rows` (positions in order, duplicates allowed)
    /// with every order segment still to be filled.
    fn gather(data: &Dataset, rows: &[usize]) -> Result<PresortedRows> {
        let n_rows = rows.len();
        if u32::try_from(n_rows).is_err() {
            return Err(CleoError::InvalidTrainingData(format!(
                "a tree fits at most {} rows, got {n_rows}",
                u32::MAX
            )));
        }
        let n_cols = data.n_cols();
        let mut values = vec![0.0; n_cols * n_rows];
        for (p, &i) in rows.iter().enumerate() {
            for (f, &v) in data.row(i).iter().enumerate() {
                values[f * n_rows + p] = v;
            }
        }
        let mut orders = vec![0u32; (n_cols + 1) * n_rows];
        for (p, slot) in orders[n_cols * n_rows..].iter_mut().enumerate() {
            *slot = p as u32;
        }
        Ok(PresortedRows {
            n_rows,
            n_cols,
            values,
            orders,
            goes_left: vec![false; n_rows],
            spill: Vec::with_capacity(n_rows),
        })
    }

    /// Every row of `data`, each feature sorted by a stable sort on
    /// `partial_cmp`.
    pub(crate) fn sort(data: &Dataset) -> Result<PresortedRows> {
        let positions: Vec<usize> = (0..data.n_rows()).collect();
        let mut rows = Self::gather(data, &positions)?;
        let n = rows.n_rows;
        for f in 0..rows.n_cols {
            let col = &rows.values[f * n..(f + 1) * n];
            let order = &mut rows.orders[f * n..(f + 1) * n];
            for (p, slot) in order.iter_mut().enumerate() {
                *slot = p as u32;
            }
            order.sort_by(|&a, &b| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        Ok(rows)
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// The node's rows in feature `f`'s order.
    fn sorted(&self, f: usize, range: Range<usize>) -> &[u32] {
        &self.orders[f * self.n_rows..][range]
    }

    /// The node's rows in ascending position.
    fn members(&self, range: Range<usize>) -> &[u32] {
        self.sorted(self.n_cols, range)
    }

    /// Mark which of the node's rows go left (`value <= threshold`, the
    /// predicate prediction uses) and return how many do.
    fn mark_left(&mut self, range: Range<usize>, feature: usize, threshold: f64) -> usize {
        let n = self.n_rows;
        let col = &self.values[feature * n..(feature + 1) * n];
        let members = &self.orders[self.n_cols * n..][range];
        let mut n_left = 0;
        for &i in members {
            let left = col[i as usize] <= threshold;
            self.goes_left[i as usize] = left;
            n_left += usize::from(left);
        }
        n_left
    }

    /// Stable-partition the node's range of the position segment — and of
    /// every feature segment when `features` is set — into the rows
    /// [`Self::mark_left`] sent left, then the rest.
    fn partition(&mut self, range: Range<usize>, n_left: usize, features: bool) {
        let first = if features { 0 } else { self.n_cols };
        for s in first..=self.n_cols {
            let seg = &mut self.orders[s * self.n_rows..][range.clone()];
            self.spill.clear();
            let mut w = 0;
            for r in 0..seg.len() {
                let i = seg[r];
                if self.goes_left[i as usize] {
                    seg[w] = i;
                    w += 1;
                } else {
                    self.spill.push(i);
                }
            }
            debug_assert_eq!(w, n_left);
            seg[w..].copy_from_slice(&self.spill);
        }
    }
}

/// Dense per-feature ranks of a dataset's values, built once per ensemble
/// fit: equal values (under `partial_cmp`, so `-0.0` and `+0.0` tie) share a
/// rank and ranks ascend with value.  Any row sample's [`PresortedRows`] then
/// follows from a stable counting sort on (rank, sample position) in
/// O(rows + ranks) per feature instead of a sort.
#[derive(Debug)]
pub(crate) struct DenseRanks {
    n_rows: usize,
    /// Column-major ranks: `ranks[f * n_rows + i]`.
    ranks: Vec<u32>,
    /// Distinct values per feature.
    n_ranks: Vec<usize>,
}

impl DenseRanks {
    pub(crate) fn new(data: &Dataset) -> Result<DenseRanks> {
        let sorted = PresortedRows::sort(data)?;
        let n = sorted.n_rows;
        let mut ranks = vec![0u32; sorted.n_cols * n];
        let mut n_ranks = Vec::with_capacity(sorted.n_cols);
        for f in 0..sorted.n_cols {
            let col = sorted.column(f);
            let order = sorted.sorted(f, 0..n);
            let rank = &mut ranks[f * n..(f + 1) * n];
            let mut r = 0u32;
            for (k, &i) in order.iter().enumerate() {
                if k > 0 && col[i as usize] > col[order[k - 1] as usize] {
                    r += 1;
                }
                rank[i as usize] = r;
            }
            n_ranks.push(r as usize + 1);
        }
        Ok(DenseRanks {
            n_rows: n,
            ranks,
            n_ranks,
        })
    }

    /// The presorted sample `rows` (indices into the dataset the ranks were
    /// built on; duplicates allowed): position `p` is `data.row(rows[p])`.
    pub(crate) fn presort(&self, data: &Dataset, rows: &[usize]) -> Result<PresortedRows> {
        let mut sample = PresortedRows::gather(data, rows)?;
        let m = sample.n_rows;
        let mut starts: Vec<u32> = Vec::new();
        for (f, &n_ranks) in self.n_ranks.iter().enumerate() {
            let rank = &self.ranks[f * self.n_rows..(f + 1) * self.n_rows];
            starts.clear();
            starts.resize(n_ranks + 1, 0);
            for &i in rows {
                starts[rank[i] as usize + 1] += 1;
            }
            for r in 1..starts.len() {
                starts[r] += starts[r - 1];
            }
            let order = &mut sample.orders[f * m..(f + 1) * m];
            for (p, &i) in rows.iter().enumerate() {
                let slot = &mut starts[rank[i] as usize];
                order[*slot as usize] = p as u32;
                *slot += 1;
            }
        }
        Ok(sample)
    }
}

/// A CART regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    config: DecisionTreeConfig,
    nodes: Vec<Node>,
    /// Complete-layout evaluation table for shallow trees (see [`FlatEval`]).
    flat: Option<FlatEval>,
    fitted: bool,
}

impl DecisionTreeRegressor {
    /// Create a tree with an explicit configuration.
    pub fn new(config: DecisionTreeConfig) -> Self {
        DecisionTreeRegressor {
            config,
            nodes: Vec::new(),
            flat: None,
            fitted: false,
        }
    }

    /// The paper's standalone configuration: depth 15, MSLE objective.
    pub fn paper_default() -> Self {
        DecisionTreeRegressor::new(DecisionTreeConfig::default())
    }

    /// A shallow tree fitting the raw target — the base learner shape used inside the
    /// random forest and FastTree ensembles (depth 5).
    pub fn ensemble_base(max_depth: usize, min_samples_leaf: usize, seed: u64) -> Self {
        DecisionTreeRegressor::new(DecisionTreeConfig {
            max_depth,
            min_samples_leaf,
            min_samples_split: min_samples_leaf.max(2) * 2,
            max_features: None,
            seed,
            target_transform: TargetTransform::Identity,
        })
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The tree's configuration.
    pub fn config(&self) -> &DecisionTreeConfig {
        &self.config
    }

    /// The fitted node vector in persistable form.  Child fields are indices
    /// into this same vector, exactly as stored, so a tree rebuilt from the
    /// export evaluates bit-identically (see
    /// [`DecisionTreeRegressor::from_parts`]).
    pub fn export_nodes(&self) -> Vec<TreeNode> {
        self.nodes
            .iter()
            .map(|n| match *n {
                Node::Leaf { value } => TreeNode::Leaf { value },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect()
    }

    /// Rebuild a tree from exported nodes.  The compiled evaluation table is
    /// derived from the nodes exactly as `fit_presorted` derives
    /// it, so predictions are bit-identical to the exported tree's.
    ///
    /// Child indices are validated (in-range and strictly increasing past the
    /// parent — the invariant `fit_presorted`'s construction order guarantees), so
    /// a corrupt export is an error instead of an out-of-bounds panic or an
    /// unbounded recursion.
    pub fn from_parts(
        config: DecisionTreeConfig,
        nodes: Vec<TreeNode>,
        fitted: bool,
    ) -> Result<DecisionTreeRegressor> {
        if fitted && nodes.is_empty() {
            return Err(CleoError::InvalidTrainingData(
                "a fitted tree export must carry at least one node".into(),
            ));
        }
        let nodes: Vec<Node> = nodes
            .into_iter()
            .map(|n| match n {
                TreeNode::Leaf { value } => Node::Leaf { value },
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect();
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Split { left, right, .. } = node {
                if *left <= i || *right <= i || *left >= nodes.len() || *right >= nodes.len() {
                    return Err(CleoError::InvalidTrainingData(format!(
                        "tree export node {i} has invalid child indices {left}/{right}"
                    )));
                }
            }
        }
        let mut tree = DecisionTreeRegressor {
            config,
            nodes,
            flat: None,
            fitted,
        };
        let depth = tree.depth();
        if fitted && depth <= MAX_FLAT_DEPTH {
            tree.flat = Some(FlatEval::build(&tree.nodes, depth));
        }
        Ok(tree)
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Fit on already transformed targets (`targets[p]` belongs to position
    /// `p` of `rows`) over presorted rows: the entry the ensembles use, which
    /// derive each sample's orders from one [`DenseRanks`] table.
    pub(crate) fn fit_presorted(&mut self, mut rows: PresortedRows, targets: &[f64]) -> Result<()> {
        if rows.n_rows == 0 || targets.len() != rows.n_rows {
            return Err(CleoError::InvalidTrainingData(
                "decision tree requires non-empty, consistent data".into(),
            ));
        }
        self.nodes.clear();
        let mut rng = DetRng::new(self.config.seed);
        let all = 0..rows.n_rows;
        self.build_node(&mut rows, targets, all, 0, &mut rng);
        let depth = self.depth();
        self.flat = (depth <= MAX_FLAT_DEPTH).then(|| FlatEval::build(&self.nodes, depth));
        self.fitted = true;
        Ok(())
    }

    /// Grow the subtree over the rows `range` of `rows` (one node's range of
    /// every segment) and return its node index.
    fn build_node(
        &mut self,
        rows: &mut PresortedRows,
        targets: &[f64],
        range: Range<usize>,
        depth: usize,
        rng: &mut DetRng,
    ) -> usize {
        let members = rows.members(range.clone());
        let mean: f64 =
            members.iter().map(|&i| targets[i as usize]).sum::<f64>() / members.len() as f64;

        let stop = depth >= self.config.max_depth
            || members.len() < self.config.min_samples_split
            || members.len() < 2 * self.config.min_samples_leaf;
        if !stop {
            if let Some((feature, threshold)) = self.best_split(rows, targets, range.clone(), rng) {
                let n_left = rows.mark_left(range.clone(), feature, threshold);
                if n_left >= self.config.min_samples_leaf
                    && range.len() - n_left >= self.config.min_samples_leaf
                {
                    // Children at the depth limit are leaves and read only
                    // their members, so their feature orders need not move.
                    rows.partition(range.clone(), n_left, depth + 1 < self.config.max_depth);
                    let mid = range.start + n_left;
                    // Reserve a slot for this split node, then build children.
                    let my_idx = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: mean }); // placeholder
                    let left = self.build_node(rows, targets, range.start..mid, depth + 1, rng);
                    let right = self.build_node(rows, targets, mid..range.end, depth + 1, rng);
                    self.nodes[my_idx] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    return my_idx;
                }
            }
        }
        let my_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        my_idx
    }

    /// Find the (feature, threshold) minimising children SSE over the rows
    /// `range`, or `None` if no split reduces the error.  Each candidate
    /// feature's rows are scanned in the presorted order the node inherited.
    fn best_split(
        &self,
        rows: &PresortedRows,
        targets: &[f64],
        range: Range<usize>,
        rng: &mut DetRng,
    ) -> Option<(usize, f64)> {
        let n_features = rows.n_cols;
        let candidate_features: Vec<usize> = match self.config.max_features {
            Some(k) if k < n_features => rng.sample_indices(n_features, k),
            _ => (0..n_features).collect(),
        };

        let members = rows.members(range.clone());
        let total_sum: f64 = members.iter().map(|&i| targets[i as usize]).sum();
        let total_sq: f64 = members
            .iter()
            .map(|&i| targets[i as usize] * targets[i as usize])
            .sum();
        let n = members.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in &candidate_features {
            let sorted = rows.sorted(f, range.clone());
            let col = rows.column(f);
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (k, &i) in sorted.iter().enumerate().take(sorted.len() - 1) {
                let t = targets[i as usize];
                left_sum += t;
                left_sq += t * t;
                let next_val = col[sorted[k + 1] as usize];
                let cur_val = col[i as usize];
                if next_val <= cur_val {
                    continue; // ties: can't split between equal values
                }
                let nl = (k + 1) as f64;
                let nr = n - nl;
                if (nl as usize) < self.config.min_samples_leaf
                    || (nr as usize) < self.config.min_samples_leaf
                {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((f, 0.5 * (cur_val + next_val), sse));
                }
            }
        }
        match best {
            Some((f, t, sse)) if sse < parent_sse - 1e-12 => Some((f, t)),
            _ => None,
        }
    }

    /// The complete-layout tables of a shallow fitted tree:
    /// `(depth, splits, leaves)` — both tables have length `1 << depth`.
    /// `None` for trees deeper than the flat-eval cap.
    pub(crate) fn flat_parts(&self) -> Option<FlatParts<'_>> {
        self.flat
            .as_ref()
            .map(|f| (f.depth, f.splits.as_slice(), f.leaves.as_slice()))
    }

    /// Predict four rows in model space with interleaved descents (the batched
    /// ensemble path); identical per-row results to [`Self::predict_raw`].
    #[inline]
    pub(crate) fn predict_raw4(&self, r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) -> [f64; 4] {
        if let (Some(flat), false) = (&self.flat, self.nodes.is_empty()) {
            flat.eval4(r0, r1, r2, r3)
        } else {
            [
                self.predict_raw(r0),
                self.predict_raw(r1),
                self.predict_raw(r2),
                self.predict_raw(r3),
            ]
        }
    }

    /// Predict in model (possibly log) space.
    pub(crate) fn predict_raw(&self, row: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        if let Some(flat) = &self.flat {
            return flat.eval(row);
        }
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        let targets = self.config.target_transform.forward_all(data.targets());
        self.fit_presorted(PresortedRows::sort(data)?, &targets)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        self.config.target_transform.inverse(self.predict_raw(row))
    }

    fn predict_batch_into(&self, rows: &crate::matrix::FeatureMatrix, out: &mut Vec<f64>) {
        if !self.fitted {
            out.extend(rows.rows().map(|_| 0.0));
            return;
        }
        // Strided tree walks over the flat buffer: the node table is resolved once
        // and each row's descent reads straight out of the contiguous matrix.
        out.extend(
            rows.rows()
                .map(|row| self.config.target_transform.inverse(self.predict_raw(row))),
        );
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_common::rng::DetRng;
    use cleo_common::stats;

    fn step_dataset() -> Dataset {
        // y depends on a threshold of x0, ignoring x1.
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 30.0 { 10.0 } else { 100.0 })
            .collect();
        Dataset::from_rows(vec!["x0".into(), "x1".into()], rows, targets).unwrap()
    }

    #[test]
    fn learns_step_function_exactly() {
        let ds = step_dataset();
        let mut tree = DecisionTreeRegressor::paper_default();
        tree.fit(&ds).unwrap();
        assert!((tree.predict_row(&[5.0, 0.0]) - 10.0).abs() < 0.5);
        assert!((tree.predict_row(&[45.0, 0.0]) - 100.0).abs() < 1.0);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn max_depth_zero_gives_single_leaf_mean() {
        let ds = step_dataset();
        let cfg = DecisionTreeConfig {
            max_depth: 0,
            target_transform: TargetTransform::Identity,
            ..Default::default()
        };
        let mut tree = DecisionTreeRegressor::new(cfg);
        tree.fit(&ds).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        let mean = stats::mean(ds.targets());
        assert!((tree.predict_row(&[0.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_limits_granularity() {
        let ds = step_dataset();
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 25,
            target_transform: TargetTransform::Identity,
            ..Default::default()
        };
        let mut tree = DecisionTreeRegressor::new(cfg);
        tree.fit(&ds).unwrap();
        // With 60 samples and min leaf 25 at most one split is possible.
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn fits_nonlinear_interaction_better_than_linear_baseline() {
        let mut rng = DetRng::new(7);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..300 {
            let a = rng.uniform(0.0, 10.0);
            let b = rng.uniform(0.0, 10.0);
            rows.push(vec![a, b]);
            targets.push(if a > 5.0 && b > 5.0 { 100.0 } else { 1.0 });
        }
        let ds = Dataset::from_rows(vec!["a".into(), "b".into()], rows, targets).unwrap();
        let mut tree = DecisionTreeRegressor::paper_default();
        tree.fit(&ds).unwrap();
        let preds = tree.predict(&ds);
        assert!(stats::pearson(&preds, ds.targets()) > 0.95);
    }

    #[test]
    fn constant_target_gives_single_leaf() {
        let ds = Dataset::from_rows(
            vec!["x".into()],
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![7.0, 7.0, 7.0],
        )
        .unwrap();
        let mut tree = DecisionTreeRegressor::paper_default();
        tree.fit(&ds).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_row(&[10.0]) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_empty_data() {
        let ds = Dataset::new(vec!["x".into()]);
        let mut tree = DecisionTreeRegressor::paper_default();
        assert!(tree.fit(&ds).is_err());
        assert_eq!(tree.predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn feature_subsampling_still_produces_valid_tree() {
        let ds = step_dataset();
        let cfg = DecisionTreeConfig {
            max_features: Some(1),
            seed: 3,
            target_transform: TargetTransform::Identity,
            ..Default::default()
        };
        let mut tree = DecisionTreeRegressor::new(cfg);
        tree.fit(&ds).unwrap();
        let preds = tree.predict(&ds);
        assert_eq!(preds.len(), ds.n_rows());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn handles_duplicate_feature_values() {
        // All x identical → no valid split → single leaf.
        let ds = Dataset::from_rows(
            vec!["x".into()],
            vec![vec![5.0]; 10],
            (0..10).map(|i| i as f64).collect(),
        )
        .unwrap();
        let mut tree = DecisionTreeRegressor::paper_default();
        tree.fit(&ds).unwrap();
        assert_eq!(tree.n_nodes(), 1);
    }
}
