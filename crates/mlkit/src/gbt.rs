//! FastTree-style gradient-boosted regression trees (MART).
//!
//! The combined meta-model in the paper is "FastTree regression", ML.NET's
//! implementation of the MART gradient-boosting algorithm (Section 4.3): a series of
//! shallow regression trees, each fitted to the residuals of the trees before it, with
//! per-tree subsampling of the training data (rate 0.9) that makes the ensemble
//! resilient to noise in past execution times.  The paper finds 20 trees of depth 5
//! with the mean-squared-log-error objective sufficient.
//!
//! Fitting squared error on `log1p(target)` makes each boosting stage's negative
//! gradient a plain residual in log space, so the classic "fit a tree to the
//! residuals" recipe directly optimises the paper's MSLE loss.

use crate::dataset::Dataset;
use crate::decision_tree::DecisionTreeRegressor;
use crate::loss::TargetTransform;
use crate::model::Regressor;
use cleo_common::rng::DetRng;
use cleo_common::{CleoError, Result};

/// Configuration for [`FastTreeRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct FastTreeConfig {
    /// Number of boosting stages (the paper uses 20).
    pub n_trees: usize,
    /// Depth of each tree (the paper uses 5).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Fraction of the training rows sampled (without replacement) for each stage
    /// (the paper uses 0.9).
    pub subsample: f64,
    /// Seed for subsampling.
    pub seed: u64,
    /// Target transform (log space reproduces the paper's MSLE objective).
    pub target_transform: TargetTransform,
}

impl Default for FastTreeConfig {
    fn default() -> Self {
        FastTreeConfig {
            n_trees: 20,
            max_depth: 5,
            min_samples_leaf: 1,
            learning_rate: 0.3,
            subsample: 0.9,
            seed: 0,
            target_transform: TargetTransform::Log1p,
        }
    }
}

/// Maximum ensemble size the flat batched walk supports (a sanity bound; the
/// paper's ensembles use 20–50 trees).
const MAX_FLAT_TREES: usize = 4096;

/// The compiled ensemble, specialised by complete-tree width so the inner walk
/// indexes fixed-size rows (`slot & (W-1)` is provably in bounds — the
/// hot loop carries no bounds checks).
#[derive(Debug, Clone)]
enum FlatEnsemble {
    /// Depth ≤ 3 (the combined meta-model's shape).
    W8(FlatTables<8>),
    /// Depth ≤ 5 (the paper's per-family ensembles).
    W32(FlatTables<32>),
}

/// Split and leaf tables at a fixed complete-tree width `W = 1 << depth`:
/// one `[(feature, threshold); W]` row and one `[leaf; W]` row per tree.
/// Shallow stages are padded (sentinel always-left splits, leaf values
/// replicated across their subtree's bottom slots), so every stage walks
/// exactly `depth` levels and takes the branches the node walk would take.
#[derive(Debug, Clone)]
struct FlatTables<const W: usize> {
    splits: Vec<[(u32, f64); W]>,
    leaves: Vec<[f64; W]>,
}

impl<const W: usize> FlatTables<W> {
    fn build(parts: &[crate::decision_tree::FlatParts<'_>]) -> FlatTables<W> {
        let depth = W.trailing_zeros() as usize;
        let mut tables = FlatTables {
            splits: Vec::with_capacity(parts.len()),
            leaves: Vec::with_capacity(parts.len()),
        };
        for &(d, splits, leaves) in parts {
            debug_assert!(d <= depth);
            let mut srow = [(0u32, f64::INFINITY); W];
            for (p, slot) in srow.iter_mut().enumerate().take(1 << d).skip(1) {
                *slot = splits[p];
            }
            let mut lrow = [0.0f64; W];
            for (j, slot) in lrow.iter_mut().enumerate() {
                *slot = leaves[j >> (depth - d)];
            }
            tables.splits.push(srow);
            tables.leaves.push(lrow);
        }
        tables
    }

    /// Add `lr * tree(row_k)` onto each accumulator in tree order (the exact
    /// accumulation sequence of the scalar path).  Two trees × four rows run at
    /// once with all eight descent cursors held in registers: each cursor's
    /// chain of dependent loads is short (`depth` steps), the eight chains are
    /// independent and overlap, and `slot & (W-1)` indexing into the fixed-size
    /// rows carries no bounds checks.
    // `!(x <= t)` is deliberate: it goes right exactly when the node walk's
    // `x <= t` (go left) is false, including for NaN rows.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn accumulate4(&self, lr: f64, rows: [&[f64]; 4], acc: &mut [f64; 4]) {
        let depth = W.trailing_zeros();
        let n = self.splits.len();
        let [r0, r1, r2, r3] = rows;
        let mut t = 0usize;
        while t + 2 <= n {
            let sa = &self.splits[t];
            let sb = &self.splits[t + 1];
            let (mut a0, mut a1, mut a2, mut a3) = (1usize, 1usize, 1usize, 1usize);
            let (mut b0, mut b1, mut b2, mut b3) = (1usize, 1usize, 1usize, 1usize);
            for _ in 0..depth {
                let (fa0, ta0) = sa[a0 & (W - 1)];
                let (fa1, ta1) = sa[a1 & (W - 1)];
                let (fa2, ta2) = sa[a2 & (W - 1)];
                let (fa3, ta3) = sa[a3 & (W - 1)];
                let (fb0, tb0) = sb[b0 & (W - 1)];
                let (fb1, tb1) = sb[b1 & (W - 1)];
                let (fb2, tb2) = sb[b2 & (W - 1)];
                let (fb3, tb3) = sb[b3 & (W - 1)];
                a0 = 2 * a0 + usize::from(!(r0[fa0 as usize] <= ta0));
                a1 = 2 * a1 + usize::from(!(r1[fa1 as usize] <= ta1));
                a2 = 2 * a2 + usize::from(!(r2[fa2 as usize] <= ta2));
                a3 = 2 * a3 + usize::from(!(r3[fa3 as usize] <= ta3));
                b0 = 2 * b0 + usize::from(!(r0[fb0 as usize] <= tb0));
                b1 = 2 * b1 + usize::from(!(r1[fb1 as usize] <= tb1));
                b2 = 2 * b2 + usize::from(!(r2[fb2 as usize] <= tb2));
                b3 = 2 * b3 + usize::from(!(r3[fb3 as usize] <= tb3));
            }
            // Final heap slots are in [W, 2W); masking by W-1 yields the leaf
            // index.  Per row, tree t is added before tree t+1 — the scalar
            // path's order.
            let la = &self.leaves[t];
            let lb = &self.leaves[t + 1];
            acc[0] += lr * la[a0 & (W - 1)];
            acc[1] += lr * la[a1 & (W - 1)];
            acc[2] += lr * la[a2 & (W - 1)];
            acc[3] += lr * la[a3 & (W - 1)];
            acc[0] += lr * lb[b0 & (W - 1)];
            acc[1] += lr * lb[b1 & (W - 1)];
            acc[2] += lr * lb[b2 & (W - 1)];
            acc[3] += lr * lb[b3 & (W - 1)];
            t += 2;
        }
        if t < n {
            let s = &self.splits[t];
            let (mut a0, mut a1, mut a2, mut a3) = (1usize, 1usize, 1usize, 1usize);
            for _ in 0..depth {
                let (f0, t0) = s[a0 & (W - 1)];
                let (f1, t1) = s[a1 & (W - 1)];
                let (f2, t2) = s[a2 & (W - 1)];
                let (f3, t3) = s[a3 & (W - 1)];
                a0 = 2 * a0 + usize::from(!(r0[f0 as usize] <= t0));
                a1 = 2 * a1 + usize::from(!(r1[f1 as usize] <= t1));
                a2 = 2 * a2 + usize::from(!(r2[f2 as usize] <= t2));
                a3 = 2 * a3 + usize::from(!(r3[f3 as usize] <= t3));
            }
            let l = &self.leaves[t];
            acc[0] += lr * l[a0 & (W - 1)];
            acc[1] += lr * l[a1 & (W - 1)];
            acc[2] += lr * l[a2 & (W - 1)];
            acc[3] += lr * l[a3 & (W - 1)];
        }
    }
}

impl FlatEnsemble {
    fn build(trees: &[DecisionTreeRegressor]) -> Option<FlatEnsemble> {
        if trees.is_empty() || trees.len() > MAX_FLAT_TREES {
            return None;
        }
        let parts: Option<Vec<_>> = trees.iter().map(|t| t.flat_parts()).collect();
        let parts = parts?;
        let depth = parts.iter().map(|(d, _, _)| *d).max().unwrap_or(0);
        match depth {
            0..=3 => Some(FlatEnsemble::W8(FlatTables::build(&parts))),
            4..=5 => Some(FlatEnsemble::W32(FlatTables::build(&parts))),
            _ => None,
        }
    }
}

/// MART-style gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct FastTreeRegressor {
    config: FastTreeConfig,
    base_prediction: f64,
    trees: Vec<DecisionTreeRegressor>,
    /// Contiguous compiled form of `trees` (see [`FlatEnsemble`]); `None` when
    /// any stage is too deep for the complete layout.
    flat: Option<FlatEnsemble>,
    fitted: bool,
}

impl FastTreeRegressor {
    /// Create an ensemble with an explicit configuration.
    pub fn new(config: FastTreeConfig) -> Self {
        FastTreeRegressor {
            config,
            base_prediction: 0.0,
            trees: Vec::new(),
            flat: None,
            fitted: false,
        }
    }

    /// The paper's configuration (20 trees, depth 5, subsample 0.9, MSLE).
    pub fn paper_default(seed: u64) -> Self {
        FastTreeRegressor::new(FastTreeConfig {
            seed,
            ..FastTreeConfig::default()
        })
    }

    /// Number of fitted boosting stages.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The ensemble's configuration.
    pub fn config(&self) -> &FastTreeConfig {
        &self.config
    }

    /// The fitted base prediction (mean transformed target).
    pub fn base_prediction(&self) -> f64 {
        self.base_prediction
    }

    /// The fitted boosting stages, in stage order.
    pub fn trees(&self) -> &[DecisionTreeRegressor] {
        &self.trees
    }

    /// Rebuild an ensemble from persisted parts.  The compiled flat form is
    /// derived from the stage trees exactly as [`Regressor::fit`] derives it,
    /// so the restored ensemble predicts bit-identically to the exported one
    /// (same config, same base prediction, same stage trees, same descent).
    pub fn from_parts(
        config: FastTreeConfig,
        base_prediction: f64,
        trees: Vec<DecisionTreeRegressor>,
        fitted: bool,
    ) -> FastTreeRegressor {
        let flat = FlatEnsemble::build(&trees);
        FastTreeRegressor {
            config,
            base_prediction,
            trees,
            flat,
            fitted,
        }
    }

    /// Prediction in model (log) space, before the inverse target transform.
    fn predict_transformed(&self, row: &[f64]) -> f64 {
        let mut pred = self.base_prediction;
        for tree in &self.trees {
            pred += self.config.learning_rate * tree.predict_raw(row);
        }
        pred
    }
}

impl Regressor for FastTreeRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(CleoError::InvalidTrainingData(
                "gradient boosting requires at least one sample".into(),
            ));
        }
        if !(0.0 < self.config.subsample && self.config.subsample <= 1.0) {
            return Err(CleoError::Config(format!(
                "subsample must be in (0, 1], got {}",
                self.config.subsample
            )));
        }
        let n = data.n_rows();
        let y = self.config.target_transform.forward_all(data.targets());
        let mut rng = DetRng::new(self.config.seed);

        self.base_prediction = y.iter().sum::<f64>() / n as f64;
        let mut current: Vec<f64> = vec![self.base_prediction; n];
        self.trees.clear();

        let sample_size = ((n as f64) * self.config.subsample).round().max(1.0) as usize;
        for t in 0..self.config.n_trees {
            let residuals: Vec<f64> = y.iter().zip(current.iter()).map(|(t, p)| t - p).collect();
            // Subsample rows without replacement for this stage.
            let rows: Vec<usize> = if sample_size < n {
                rng.sample_indices(n, sample_size)
            } else {
                (0..n).collect()
            };
            let sample = data.select_rows(&rows);
            let sample_residuals: Vec<f64> = rows.iter().map(|&i| residuals[i]).collect();

            let mut tree = DecisionTreeRegressor::ensemble_base(
                self.config.max_depth,
                self.config.min_samples_leaf,
                self.config.seed.wrapping_add(1 + t as u64 * 6151),
            );
            tree.fit_raw(&sample, &sample_residuals)?;

            // Update the running prediction on the full training set.
            for (i, c) in current.iter_mut().enumerate() {
                *c += self.config.learning_rate * tree.predict_raw(data.row(i));
            }
            self.trees.push(tree);
        }
        self.flat = FlatEnsemble::build(&self.trees);
        self.fitted = true;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        self.config
            .target_transform
            .inverse(self.predict_transformed(row))
    }

    fn predict_batch_into(&self, rows: &crate::matrix::FeatureMatrix, out: &mut Vec<f64>) {
        self.predict_batch_with(crate::simd::active_isa(), rows, out);
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "FastTree Regression"
    }
}

impl FastTreeRegressor {
    /// [`Regressor::predict_batch_into`] with the lane-block kernels pinned to
    /// an explicit arm (`isa` must be [`crate::simd::Isa::supported`]); the
    /// equivalence tests compare every arm against `predict_row`.
    pub fn predict_batch_with(
        &self,
        isa: crate::simd::Isa,
        rows: &crate::matrix::FeatureMatrix,
        out: &mut Vec<f64>,
    ) {
        use crate::simd::LANES;
        if !self.fitted {
            out.extend(rows.rows().map(|_| 0.0));
            return;
        }
        // Per row the additions happen in tree order starting from the base
        // prediction — the exact accumulation sequence of `predict_row` — so
        // every path below is bit-identical to it.
        let start = out.len();
        let n = rows.n_rows();
        out.resize(start + n, self.base_prediction);
        let lr = self.config.learning_rate;
        let acc = &mut out[start..];
        let mut i = 0usize;
        // Depth-3 ensembles take 8 rows per step through the lane-blocked
        // oblivious kernel (runtime-dispatched SIMD, see `crate::simd`): the
        // row block is transposed once and every tree evaluates all seven
        // splits across the block at once.  A ragged tail of two or more rows
        // runs as one zero-padded block whose real lanes are kept; a single
        // row is cheaper through the node walk below.
        if let Some(FlatEnsemble::W8(tables)) = &self.flat {
            if n >= 2 {
                crate::simd::with_lane_block(|block| {
                    while n - i >= 2 {
                        let count = (n - i).min(LANES);
                        crate::simd::transpose_block_with(
                            isa,
                            rows.rows_flat(i, count),
                            rows.n_cols(),
                            block,
                        );
                        let mut lanes = [0.0f64; LANES];
                        lanes[..count].copy_from_slice(&acc[i..i + count]);
                        crate::simd::tree8_depth3_accumulate_with(
                            isa,
                            &tables.splits,
                            &tables.leaves,
                            lr,
                            block,
                            &mut lanes,
                        );
                        acc[i..i + count].copy_from_slice(&lanes[..count]);
                        i += count;
                    }
                });
            }
        }
        // Deeper ensembles: tree-outer traversal with four rows in flight, so
        // each tree's table stays hot while the four descent chains overlap.
        while i + 4 <= n {
            let (r0, r1, r2, r3) = (
                rows.row(i),
                rows.row(i + 1),
                rows.row(i + 2),
                rows.row(i + 3),
            );
            if let Some(FlatEnsemble::W32(tables)) = &self.flat {
                let mut quad = [acc[i], acc[i + 1], acc[i + 2], acc[i + 3]];
                tables.accumulate4(lr, [r0, r1, r2, r3], &mut quad);
                acc[i..i + 4].copy_from_slice(&quad);
            } else {
                for tree in &self.trees {
                    let v = tree.predict_raw4(r0, r1, r2, r3);
                    acc[i] += lr * v[0];
                    acc[i + 1] += lr * v[1];
                    acc[i + 2] += lr * v[2];
                    acc[i + 3] += lr * v[3];
                }
            }
            i += 4;
        }
        for (a, k) in acc[i..].iter_mut().zip(i..n) {
            for tree in &self.trees {
                *a += lr * tree.predict_raw(rows.row(k));
            }
        }
        for a in acc {
            *a = self.config.target_transform.inverse(*a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use cleo_common::rng::DetRng;
    use cleo_common::stats;

    fn piecewise_dataset(seed: u64, n: usize) -> Dataset {
        let mut rng = DetRng::new(seed);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.0, 100.0);
            let b = rng.uniform(0.0, 10.0);
            let c = rng.uniform(0.0, 1.0);
            let y = (if a > 60.0 { 3.0 * a } else { 0.5 * a } + 10.0 * b)
                * rng.lognormal_noise(0.05)
                + c;
            rows.push(vec![a, b, c]);
            targets.push(y);
        }
        Dataset::from_rows(vec!["a".into(), "b".into(), "c".into()], rows, targets).unwrap()
    }

    #[test]
    fn boosting_reduces_training_loss_monotonically_enough() {
        let ds = piecewise_dataset(1, 300);
        let mut few = FastTreeRegressor::new(FastTreeConfig {
            n_trees: 2,
            seed: 3,
            ..FastTreeConfig::default()
        });
        let mut many = FastTreeRegressor::paper_default(3);
        few.fit(&ds).unwrap();
        many.fit(&ds).unwrap();
        let loss_few = Loss::MeanSquaredLogError.evaluate(&few.predict(&ds), ds.targets());
        let loss_many = Loss::MeanSquaredLogError.evaluate(&many.predict(&ds), ds.targets());
        assert!(
            loss_many < loss_few,
            "20 trees ({loss_many}) should beat 2 trees ({loss_few})"
        );
    }

    #[test]
    fn fits_heterogeneous_data_with_high_correlation() {
        let ds = piecewise_dataset(2, 500);
        let mut gbt = FastTreeRegressor::paper_default(11);
        gbt.fit(&ds).unwrap();
        assert_eq!(gbt.n_trees(), 20);
        let preds = gbt.predict(&ds);
        let corr = stats::pearson(&preds, ds.targets());
        assert!(corr > 0.93, "corr = {corr}");
        assert!(preds.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = piecewise_dataset(3, 120);
        let mut a = FastTreeRegressor::paper_default(9);
        let mut b = FastTreeRegressor::paper_default(9);
        a.fit(&ds).unwrap();
        b.fit(&ds).unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(a.predict_row(ds.row(i)), b.predict_row(ds.row(i)));
        }
    }

    #[test]
    fn invalid_subsample_is_rejected() {
        let ds = piecewise_dataset(4, 50);
        let mut gbt = FastTreeRegressor::new(FastTreeConfig {
            subsample: 0.0,
            ..FastTreeConfig::default()
        });
        assert!(gbt.fit(&ds).is_err());
        let mut gbt = FastTreeRegressor::new(FastTreeConfig {
            subsample: 1.5,
            ..FastTreeConfig::default()
        });
        assert!(gbt.fit(&ds).is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let ds = Dataset::new(vec!["x".into()]);
        let mut gbt = FastTreeRegressor::paper_default(0);
        assert!(gbt.fit(&ds).is_err());
        assert_eq!(gbt.predict_row(&[0.0]), 0.0);
    }

    #[test]
    fn constant_target_predicts_that_constant() {
        let ds = Dataset::from_rows(
            vec!["x".into()],
            (0..20).map(|i| vec![i as f64]).collect(),
            vec![42.0; 20],
        )
        .unwrap();
        let mut gbt = FastTreeRegressor::paper_default(1);
        gbt.fit(&ds).unwrap();
        let p = gbt.predict_row(&[5.5]);
        assert!((p - 42.0).abs() < 1.0, "p = {p}");
    }
}
