//! Random forest regression (bagged CART trees with feature subsampling).
//!
//! The paper's random-forest configuration is 20 trees of depth 5 (Section 3.4).  Each
//! tree is fitted on a bootstrap sample of the training data and considers a random
//! subset of features at each split; predictions average over trees.  Targets are
//! fitted in log space (MSLE objective) like the other cost models.

use crate::dataset::Dataset;
use crate::decision_tree::{DecisionTreeConfig, DecisionTreeRegressor, DenseRanks};
use crate::loss::TargetTransform;
use crate::model::Regressor;
use cleo_common::rng::DetRng;
use cleo_common::{CleoError, Result};

/// Configuration for [`RandomForestRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees (the paper uses 20).
    pub n_trees: usize,
    /// Maximum depth of each tree (the paper uses 5).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Number of features considered per split; `None` means `ceil(sqrt(n_features))`.
    pub max_features: Option<usize>,
    /// Seed for bootstrap sampling and per-tree feature subsampling.
    pub seed: u64,
    /// Target transform (log space by default).
    pub target_transform: TargetTransform,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 20,
            max_depth: 5,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
            target_transform: TargetTransform::Log1p,
        }
    }
}

/// Random forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    config: RandomForestConfig,
    trees: Vec<DecisionTreeRegressor>,
    fitted: bool,
}

impl RandomForestRegressor {
    /// Create a forest with an explicit configuration.
    pub fn new(config: RandomForestConfig) -> Self {
        RandomForestRegressor {
            config,
            trees: Vec::new(),
            fitted: false,
        }
    }

    /// The paper's configuration (20 trees, depth 5), seeded for reproducibility.
    pub fn paper_default(seed: u64) -> Self {
        RandomForestRegressor::new(RandomForestConfig {
            seed,
            ..RandomForestConfig::default()
        })
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in bootstrap order.
    pub fn trees(&self) -> &[DecisionTreeRegressor] {
        &self.trees
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(CleoError::InvalidTrainingData(
                "random forest requires at least one sample".into(),
            ));
        }
        let n = data.n_rows();
        let transformed = self.config.target_transform.forward_all(data.targets());
        let max_features = self
            .config
            .max_features
            .unwrap_or_else(|| ((data.n_cols() as f64).sqrt().ceil() as usize).max(1));
        let mut rng = DetRng::new(self.config.seed);

        self.trees.clear();
        let ranks = DenseRanks::new(data)?;
        for t in 0..self.config.n_trees {
            // Bootstrap sample (with replacement).
            let boot: Vec<usize> = (0..n).map(|_| rng.index(n)).collect();
            let sample_targets: Vec<f64> = boot.iter().map(|&i| transformed[i]).collect();
            let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig {
                max_depth: self.config.max_depth,
                min_samples_leaf: self.config.min_samples_leaf,
                min_samples_split: 2 * self.config.min_samples_leaf.max(1),
                max_features: Some(max_features),
                seed: self.config.seed.wrapping_add(t as u64 * 7919),
                target_transform: TargetTransform::Identity,
            });
            tree.fit_presorted(ranks.presort(data, &boot)?, &sample_targets)?;
            self.trees.push(tree);
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if !self.fitted || self.trees.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_raw(row)).sum();
        self.config
            .target_transform
            .inverse(sum / self.trees.len() as f64)
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_common::rng::DetRng;
    use cleo_common::stats;

    fn nonlinear_dataset(seed: u64, n: usize) -> Dataset {
        let mut rng = DetRng::new(seed);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.0, 100.0);
            let b = rng.uniform(1.0, 10.0);
            let y = if a > 50.0 { a * b } else { a + b } * rng.lognormal_noise(0.05);
            rows.push(vec![a, b]);
            targets.push(y);
        }
        Dataset::from_rows(vec!["a".into(), "b".into()], rows, targets).unwrap()
    }

    #[test]
    fn fits_nonlinear_data_with_high_correlation() {
        let ds = nonlinear_dataset(1, 400);
        let mut rf = RandomForestRegressor::paper_default(7);
        rf.fit(&ds).unwrap();
        assert_eq!(rf.n_trees(), 20);
        let preds = rf.predict(&ds);
        let corr = stats::pearson(&preds, ds.targets());
        assert!(corr > 0.9, "corr = {corr}");
        assert!(preds.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = nonlinear_dataset(2, 100);
        let mut a = RandomForestRegressor::paper_default(42);
        let mut b = RandomForestRegressor::paper_default(42);
        a.fit(&ds).unwrap();
        b.fit(&ds).unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(a.predict_row(ds.row(i)), b.predict_row(ds.row(i)));
        }
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let ds = nonlinear_dataset(3, 100);
        let mut a = RandomForestRegressor::paper_default(1);
        let mut b = RandomForestRegressor::paper_default(2);
        a.fit(&ds).unwrap();
        b.fit(&ds).unwrap();
        let diffs = (0..ds.n_rows())
            .filter(|&i| (a.predict_row(ds.row(i)) - b.predict_row(ds.row(i))).abs() > 1e-9)
            .count();
        assert!(diffs > 0);
    }

    #[test]
    fn rejects_empty_data_and_predicts_zero_unfitted() {
        let ds = Dataset::new(vec!["x".into()]);
        let mut rf = RandomForestRegressor::paper_default(0);
        assert!(rf.fit(&ds).is_err());
        assert_eq!(rf.predict_row(&[1.0]), 0.0);
        assert!(!rf.is_fitted());
    }

    #[test]
    fn single_sample_is_handled() {
        let ds = Dataset::from_rows(vec!["x".into()], vec![vec![3.0]], vec![12.0]).unwrap();
        let mut rf = RandomForestRegressor::paper_default(5);
        rf.fit(&ds).unwrap();
        let p = rf.predict_row(&[3.0]);
        assert!((p - 12.0).abs() < 0.5, "p = {p}");
    }
}
