//! Dense, row-major training datasets.
//!
//! A [`Dataset`] couples a feature matrix with a target vector and the feature names.
//! The learners in this crate are trained on small, wide datasets (the paper's
//! per-subgraph models have 25–30 candidate features and frequently fewer than 30
//! samples), so a simple `Vec<f64>` row-major layout is both adequate and cache
//! friendly.

use std::sync::Arc;

use cleo_common::{CleoError, Result};

/// A dense dataset: `n_rows × n_cols` features plus one target per row.
///
/// Feature names are held behind an `Arc` so the thousands of per-signature
/// training sets built from one telemetry window share a single name table
/// instead of cloning 30-odd `String`s per fit.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    feature_names: Arc<[String]>,
    n_cols: usize,
    /// Row-major feature values, length `n_rows * n_cols`.
    values: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Create an empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        Self::with_shared_names(feature_names.into())
    }

    /// Create an empty dataset over an already-shared feature-name table
    /// (the per-signature training path shares one table across every fit).
    pub fn with_shared_names(feature_names: Arc<[String]>) -> Self {
        let n_cols = feature_names.len();
        Dataset {
            feature_names,
            n_cols,
            values: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Create a dataset from rows of features and targets.
    pub fn from_rows(
        feature_names: Vec<String>,
        rows: Vec<Vec<f64>>,
        targets: Vec<f64>,
    ) -> Result<Self> {
        Self::from_row_refs(
            feature_names.into(),
            rows.iter().map(|r| r.as_slice()),
            targets,
        )
    }

    /// Borrowing constructor: build a dataset by copying feature rows straight
    /// out of their owners (e.g. the telemetry window's samples) into the flat
    /// buffer — no intermediate `Vec<Vec<f64>>` materialisation and no per-fit
    /// clone of the name table.
    pub fn from_row_refs<'a>(
        feature_names: Arc<[String]>,
        rows: impl IntoIterator<Item = &'a [f64]>,
        targets: Vec<f64>,
    ) -> Result<Self> {
        let mut ds = Dataset::with_shared_names(feature_names);
        let mut rows = rows.into_iter();
        let mut n_rows = 0usize;
        // Targets lead the zip: when they run out no row has been consumed yet,
        // so a surplus feature row is counted below instead of silently lost.
        for (&t, row) in targets.iter().zip(rows.by_ref()) {
            ds.push_row(row, t)?;
            n_rows += 1;
        }
        let extra_rows = rows.count();
        if n_rows != targets.len() || extra_rows > 0 {
            return Err(CleoError::InvalidTrainingData(format!(
                "{} feature rows but {} targets",
                n_rows + extra_rows,
                targets.len()
            )));
        }
        Ok(ds)
    }

    /// Append one sample.
    pub fn push_row(&mut self, row: &[f64], target: f64) -> Result<()> {
        if row.len() != self.n_cols {
            return Err(CleoError::InvalidTrainingData(format!(
                "row has {} features, expected {}",
                row.len(),
                self.n_cols
            )));
        }
        if !row.iter().all(|v| v.is_finite()) || !target.is_finite() {
            return Err(CleoError::InvalidTrainingData(
                "non-finite feature or target value".into(),
            ));
        }
        self.values.extend_from_slice(row);
        self.targets.push(target);
        Ok(())
    }

    /// Number of samples.
    pub fn n_rows(&self) -> usize {
        self.targets.len()
    }

    /// Number of features.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Mutable access to the flat row-major feature buffer (length
    /// `n_rows * n_cols`) — what the scaler's whole-dataset sweep rewrites in
    /// place.
    pub(crate) fn feature_values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Target value of row `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Column `j` as an owned vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.n_rows()).map(|i| self.row(i)[j]).collect()
    }

    /// Return a new dataset containing the rows at `indices` (duplicates allowed,
    /// which is what bootstrap sampling needs).
    pub fn select_rows(&self, indices: &[usize]) -> Dataset {
        let mut ds = Dataset::with_shared_names(Arc::clone(&self.feature_names));
        for &i in indices {
            ds.values.extend_from_slice(self.row(i));
            ds.targets.push(self.targets[i]);
        }
        ds
    }

    /// Return a dataset with the same rows but targets replaced by `targets`
    /// (used by boosting to fit residuals).
    pub fn with_targets(&self, targets: Vec<f64>) -> Result<Dataset> {
        if targets.len() != self.n_rows() {
            return Err(CleoError::InvalidTrainingData(format!(
                "{} targets for {} rows",
                targets.len(),
                self.n_rows()
            )));
        }
        Ok(Dataset {
            feature_names: Arc::clone(&self.feature_names),
            n_cols: self.n_cols,
            values: self.values.clone(),
            targets,
        })
    }

    /// Split into (train, test) with the first `n_train` rows in train — callers shuffle
    /// indices beforehand when a random split is wanted.
    pub fn split_at(&self, n_train: usize) -> (Dataset, Dataset) {
        let n_train = n_train.min(self.n_rows());
        let train_idx: Vec<usize> = (0..n_train).collect();
        let test_idx: Vec<usize> = (n_train..self.n_rows()).collect();
        (self.select_rows(&train_idx), self.select_rows(&test_idx))
    }

    /// Mean of each feature column.
    pub fn column_means(&self) -> Vec<f64> {
        let n = self.n_rows().max(1) as f64;
        let mut means = vec![0.0; self.n_cols];
        for i in 0..self.n_rows() {
            for (j, v) in self.row(i).iter().enumerate() {
                means[j] += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Standard deviation of each feature column (population).
    pub fn column_stds(&self) -> Vec<f64> {
        let n = self.n_rows().max(1) as f64;
        let means = self.column_means();
        let mut vars = vec![0.0; self.n_cols];
        for i in 0..self.n_rows() {
            for (j, v) in self.row(i).iter().enumerate() {
                let d = v - means[j];
                vars[j] += d * d;
            }
        }
        vars.iter().map(|v| (v / n).sqrt()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn push_and_access_rows() {
        let mut ds = Dataset::new(names(2));
        ds.push_row(&[1.0, 2.0], 10.0).unwrap();
        ds.push_row(&[3.0, 4.0], 20.0).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.n_cols(), 2);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert_eq!(ds.target(0), 10.0);
        assert_eq!(ds.column(1), vec![2.0, 4.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn rejects_wrong_width_and_nonfinite() {
        let mut ds = Dataset::new(names(2));
        assert!(ds.push_row(&[1.0], 1.0).is_err());
        assert!(ds.push_row(&[1.0, f64::NAN], 1.0).is_err());
        assert!(ds.push_row(&[1.0, 2.0], f64::INFINITY).is_err());
        assert!(ds.is_empty());
    }

    #[test]
    fn from_rows_validates_lengths() {
        let err = Dataset::from_rows(names(1), vec![vec![1.0]], vec![1.0, 2.0]);
        assert!(err.is_err());
        let ok = Dataset::from_rows(names(1), vec![vec![1.0], vec![2.0]], vec![1.0, 2.0]);
        assert_eq!(ok.unwrap().n_rows(), 2);
        // One extra row must also be rejected (not silently dropped).
        let extra = Dataset::from_rows(
            names(1),
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, 2.0],
        );
        assert!(extra.is_err());
    }

    #[test]
    fn from_row_refs_borrows_and_validates() {
        let names: std::sync::Arc<[String]> = vec!["a".to_string()].into();
        let rows = [vec![1.0], vec![2.0]];
        let ds = Dataset::from_row_refs(
            std::sync::Arc::clone(&names),
            rows.iter().map(|r| r.as_slice()),
            vec![10.0, 20.0],
        )
        .unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.targets(), &[10.0, 20.0]);
        // Extra row and missing row are both errors.
        let three = [vec![1.0], vec![2.0], vec![3.0]];
        assert!(Dataset::from_row_refs(
            std::sync::Arc::clone(&names),
            three.iter().map(|r| r.as_slice()),
            vec![1.0, 2.0],
        )
        .is_err());
        assert!(Dataset::from_row_refs(
            names,
            rows.iter().map(|r| r.as_slice()).take(1),
            vec![1.0, 2.0],
        )
        .is_err());
    }

    #[test]
    fn select_rows_allows_duplicates() {
        let ds = Dataset::from_rows(
            names(1),
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![10.0, 20.0, 30.0],
        )
        .unwrap();
        let sub = ds.select_rows(&[2, 2, 0]);
        assert_eq!(sub.n_rows(), 3);
        assert_eq!(sub.targets(), &[30.0, 30.0, 10.0]);
        assert_eq!(sub.row(0), &[3.0]);
    }

    #[test]
    fn with_targets_replaces_only_targets() {
        let ds = Dataset::from_rows(names(1), vec![vec![1.0], vec![2.0]], vec![5.0, 6.0]).unwrap();
        let res = ds.with_targets(vec![0.5, -0.5]).unwrap();
        assert_eq!(res.targets(), &[0.5, -0.5]);
        assert_eq!(res.row(0), ds.row(0));
        assert!(ds.with_targets(vec![1.0]).is_err());
    }

    #[test]
    fn split_and_moments() {
        let ds = Dataset::from_rows(
            names(2),
            vec![
                vec![1.0, 10.0],
                vec![3.0, 30.0],
                vec![5.0, 50.0],
                vec![7.0, 70.0],
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        let (tr, te) = ds.split_at(3);
        assert_eq!(tr.n_rows(), 3);
        assert_eq!(te.n_rows(), 1);
        let means = ds.column_means();
        assert!((means[0] - 4.0).abs() < 1e-12);
        assert!((means[1] - 40.0).abs() < 1e-12);
        let stds = ds.column_stds();
        assert!((stds[0] - 5.0f64.sqrt()).abs() < 1e-12);
    }
}
