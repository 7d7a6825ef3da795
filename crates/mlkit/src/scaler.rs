//! Feature standardisation.
//!
//! The elastic net, MLP, and Poisson learners standardise features to zero mean and
//! unit variance before fitting: the candidate features (cardinalities, products of
//! cardinalities, per-partition values — Tables 2 and 3) span many orders of magnitude
//! and regularised/gradient-based learners are not scale invariant.  Tree-based
//! learners do not use the scaler.

use crate::dataset::Dataset;

/// Per-column standardisation parameters fitted on a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit the scaler on a dataset's feature columns.
    pub fn fit(data: &Dataset) -> StandardScaler {
        let means = data.column_means();
        let stds = data
            .column_stds()
            .into_iter()
            // Constant columns keep their value after centering; avoid division by ~0.
            .map(|s| if s < 1e-12 { 1.0 } else { s })
            .collect();
        StandardScaler { means, stds }
    }

    /// Number of columns the scaler was fitted on.
    pub fn n_cols(&self) -> usize {
        self.means.len()
    }

    /// Standardise one feature row into a new vector.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_row_into(row, &mut out);
        out
    }

    /// Standardise one feature row into a caller-provided buffer.
    pub fn transform_row_into(&self, row: &[f64], dst: &mut [f64]) {
        for (j, (&v, slot)) in row.iter().zip(dst.iter_mut()).enumerate() {
            *slot = (v - self.means[j]) / self.stds[j];
        }
    }

    /// Standardise every row of a dataset, keeping targets unchanged.  The
    /// whole feature buffer is copied once and swept in place by the
    /// lane-blocked scale/shift kernel (runtime SIMD dispatch; element-wise
    /// subtract/divide, so the result is bit-identical to the per-row
    /// transform on every arm).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let mut out = data.clone();
        crate::simd::scale_shift_rows(out.feature_values_mut(), &self.means, &self.stds);
        out
    }

    /// Standardise every feature of a dataset into a column-major buffer,
    /// `out[j * n_rows + i]` holding row `i`'s feature `j`: the layout for
    /// learners that sweep one feature at a time.  Element for element the
    /// same `(v - μ) / σ` as [`StandardScaler::transform`].
    pub(crate) fn transform_columns(&self, data: &Dataset) -> Vec<f64> {
        let n = data.n_rows();
        let mut out = vec![0.0; n * self.means.len()];
        for i in 0..n {
            for (j, &v) in data.row(i).iter().enumerate() {
                out[j * n + i] = (v - self.means[j]) / self.stds[j];
            }
        }
        out
    }

    /// Convert a raw-feature-space weight vector into standardised space — the
    /// inverse of the weight part of [`StandardScaler::unscale_weights`]:
    /// `w_std[j] = w_raw[j] · σ[j]`.  Used to seed a warm-started coordinate
    /// descent (which runs in standardised space) from a model whose weights
    /// are stored in raw space.
    pub fn scale_weights(&self, raw_weights: &[f64]) -> Vec<f64> {
        raw_weights
            .iter()
            .zip(&self.stds)
            .map(|(w, s)| w * s)
            .collect()
    }

    /// Convert a weight vector learned in standardised space back to raw-feature space,
    /// returning `(weights, intercept_adjustment)`.
    ///
    /// If the standardised model is `ŷ = Σ wⱼ·(xⱼ − μⱼ)/σⱼ + b`, the raw-space model is
    /// `ŷ = Σ (wⱼ/σⱼ)·xⱼ + (b − Σ wⱼ·μⱼ/σⱼ)`.
    pub fn unscale_weights(&self, weights: &[f64], intercept: f64) -> (Vec<f64>, f64) {
        let raw: Vec<f64> = weights
            .iter()
            .enumerate()
            .map(|(j, w)| w / self.stds[j])
            .collect();
        let shift: f64 = weights
            .iter()
            .enumerate()
            .map(|(j, w)| w * self.means[j] / self.stds[j])
            .sum();
        (raw, intercept - shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(
            vec!["a".into(), "b".into(), "const".into()],
            vec![
                vec![1.0, 100.0, 5.0],
                vec![2.0, 200.0, 5.0],
                vec![3.0, 300.0, 5.0],
                vec![4.0, 400.0, 5.0],
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn transform_gives_zero_mean_unit_std() {
        let ds = sample();
        let scaler = StandardScaler::fit(&ds);
        let t = scaler.transform(&ds);
        let means = t.column_means();
        let stds = t.column_stds();
        assert!(means[0].abs() < 1e-12);
        assert!(means[1].abs() < 1e-12);
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert!((stds[1] - 1.0).abs() < 1e-12);
        // Constant column: centered to 0 but not blown up.
        assert!(means[2].abs() < 1e-12);
        assert!(stds[2].abs() < 1e-12);
        // Targets untouched.
        assert_eq!(t.targets(), ds.targets());
    }

    #[test]
    fn transform_row_matches_dataset_transform() {
        let ds = sample();
        let scaler = StandardScaler::fit(&ds);
        let t = scaler.transform(&ds);
        assert_eq!(scaler.transform_row(ds.row(2)), t.row(2).to_vec());
    }

    #[test]
    fn unscale_weights_round_trips_predictions() {
        let ds = sample();
        let scaler = StandardScaler::fit(&ds);
        // A model in standardised space.
        let w_std = [2.0, -1.0, 0.5];
        let b_std = 3.0;
        let (w_raw, b_raw) = scaler.unscale_weights(&w_std, b_std);
        for i in 0..ds.n_rows() {
            let std_row = scaler.transform_row(ds.row(i));
            let pred_std: f64 = std_row.iter().zip(&w_std).map(|(x, w)| x * w).sum::<f64>() + b_std;
            let pred_raw: f64 = ds
                .row(i)
                .iter()
                .zip(&w_raw)
                .map(|(x, w)| x * w)
                .sum::<f64>()
                + b_raw;
            assert!((pred_std - pred_raw).abs() < 1e-9);
        }
    }
}
