//! Elastic net regression via cyclic coordinate descent.
//!
//! Elastic net (Zou & Hastie, cited as [53] in the paper) is the paper's learner of
//! choice for the individual cost models: with 25–30 candidate features and often
//! fewer than 30 noisy samples per operator-subgraph, the combined L1/L2 penalty
//! performs automatic feature selection and resists over-fitting, while staying
//! interpretable (a weighted sum of statistics, like the hand-written cost models it
//! replaces).  The paper's hyper-parameters are `alpha = 1.0`, `l1_ratio = 0.5`,
//! `fit_intercept = true`, trained on the mean-squared-log-error objective — i.e.
//! squared error on `log1p(target)`.

use crate::dataset::Dataset;
use crate::loss::TargetTransform;
use crate::model::Regressor;
use crate::scaler::StandardScaler;
use cleo_common::{CleoError, Result};

/// Configuration for [`ElasticNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticNetConfig {
    /// Overall regularisation strength (the paper uses 1.0).
    pub alpha: f64,
    /// Mix between L1 (1.0) and L2 (0.0) penalties (the paper uses 0.5).
    pub l1_ratio: f64,
    /// Whether to fit an intercept term (the paper uses true).
    pub fit_intercept: bool,
    /// Maximum number of coordinate-descent sweeps.
    pub max_iter: usize,
    /// Convergence tolerance on the maximum coefficient update.
    pub tol: f64,
    /// Target transform; `Log1p` reproduces the paper's MSLE objective.
    pub target_transform: TargetTransform,
}

impl Default for ElasticNetConfig {
    fn default() -> Self {
        ElasticNetConfig {
            alpha: 1.0,
            l1_ratio: 0.5,
            fit_intercept: true,
            max_iter: 200,
            tol: 1e-6,
            target_transform: TargetTransform::Log1p,
        }
    }
}

/// Elastic-net linear regression.
#[derive(Debug, Clone)]
pub struct ElasticNet {
    config: ElasticNetConfig,
    /// Weights in raw (unstandardised) feature space.
    weights: Vec<f64>,
    intercept: f64,
    fitted: bool,
    /// Optional raw-space weight vector seeding the next [`ElasticNet::fit`]
    /// (warm start), consumed by that fit.  The objective is convex, so the
    /// seed changes where the descent *starts*, not where it converges — a good
    /// seed (e.g. the incumbent model of a feedback epoch refitting a drifted
    /// signature) just reaches the tolerance in fewer sweeps.
    warm_start: Option<Vec<f64>>,
}

impl ElasticNet {
    /// Create an elastic net with an explicit configuration.
    pub fn new(config: ElasticNetConfig) -> Self {
        ElasticNet {
            config,
            weights: Vec::new(),
            intercept: 0.0,
            fitted: false,
            warm_start: None,
        }
    }

    /// The paper's hyper-parameters (α = 1.0, l1_ratio = 0.5, intercept, MSLE).
    pub fn paper_default() -> Self {
        ElasticNet::new(ElasticNetConfig::default())
    }

    /// An elastic net trained on the raw target (ordinary squared error); used by the
    /// loss-function comparison and by callers that pre-transform targets themselves.
    pub fn with_identity_target(mut config: ElasticNetConfig) -> Self {
        config.target_transform = TargetTransform::Identity;
        ElasticNet::new(config)
    }

    /// Reassemble a model from persisted parts — the inverse of reading
    /// [`ElasticNet::config`] / [`ElasticNet::weights`] /
    /// [`ElasticNet::intercept`].  Used by the snapshot codec: the restored
    /// model predicts bit-identically to the saved one (prediction is a pure
    /// function of config, weights, and intercept; no refit happens and no
    /// warm start is carried).
    pub fn from_parts(
        config: ElasticNetConfig,
        weights: Vec<f64>,
        intercept: f64,
        fitted: bool,
    ) -> ElasticNet {
        ElasticNet {
            config,
            weights,
            intercept,
            fitted,
            warm_start: None,
        }
    }

    /// Learned weights in raw feature space (empty before fitting).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &ElasticNetConfig {
        &self.config
    }

    /// Number of non-zero weights — the "selected" features.
    pub fn n_selected(&self) -> usize {
        self.weights.iter().filter(|w| w.abs() > 1e-12).count()
    }

    /// Seed the next [`ElasticNet::fit`] from a raw-feature-space weight vector
    /// (typically the incumbent model's [`ElasticNet::weights`]).  The seed is
    /// consumed by that fit — a later refit starts cold again unless re-seeded —
    /// and is ignored when its length does not match the training data's
    /// column count.
    pub fn set_warm_start(&mut self, raw_weights: Vec<f64>) {
        self.warm_start = Some(raw_weights);
    }

    fn soft_threshold(z: f64, gamma: f64) -> f64 {
        if z > gamma {
            z - gamma
        } else if z < -gamma {
            z + gamma
        } else {
            0.0
        }
    }

    /// Append the raw linear term (`Σ x[j]·w[j]`, no intercept, no transform)
    /// of rows `range` onto `out`.  Full 8-row blocks run through the
    /// lane-blocked SIMD dot kernel; the ragged tail falls back to the scalar
    /// loop.  Each row's accumulation order is exactly `predict_row`'s
    /// (`x[0]*w[0] + x[1]*w[1] + …`), so both paths are bit-identical.
    fn linear_batch_into(
        &self,
        rows: &crate::matrix::FeatureMatrix,
        range: std::ops::Range<usize>,
        out: &mut Vec<f64>,
    ) {
        let w = &self.weights;
        let n = range.end;
        let mut i = range.start;
        if n - i >= crate::simd::LANES {
            crate::simd::with_lane_block(|block| {
                while i + crate::simd::LANES <= n {
                    crate::simd::transpose_block(
                        rows.rows_flat(i, crate::simd::LANES),
                        rows.n_cols(),
                        block,
                    );
                    out.extend_from_slice(&crate::simd::dot8(block, w));
                    i += crate::simd::LANES;
                }
            });
        }
        for k in i..n {
            out.push(rows.row(k).iter().zip(w).map(|(x, wj)| x * wj).sum::<f64>());
        }
    }

    /// Batched prediction with the inverse target transform and the
    /// floor/ceiling clamp **fused into one pass** over the output slice: the
    /// separate clamp sweep the model store used to run is folded into the
    /// epilogue that already walks the fresh predictions.  Produces bitwise
    /// `predict_row(row).clamp(floor, ceiling)` for every row.
    pub fn predict_batch_clamped_into(
        &self,
        rows: &crate::matrix::FeatureMatrix,
        out: &mut Vec<f64>,
        floor: f64,
        ceiling: f64,
    ) {
        self.predict_rows_clamped_into(rows, 0..rows.n_rows(), out, floor, ceiling);
    }

    /// [`ElasticNet::predict_batch_clamped_into`] over rows `range` of the
    /// matrix only: one model serving one slice of a matrix that other
    /// models' rows share.
    pub fn predict_rows_clamped_into(
        &self,
        rows: &crate::matrix::FeatureMatrix,
        range: std::ops::Range<usize>,
        out: &mut Vec<f64>,
        floor: f64,
        ceiling: f64,
    ) {
        let start = out.len();
        if !self.fitted {
            out.extend(range.map(|_| 0.0f64.clamp(floor, ceiling)));
            return;
        }
        self.linear_batch_into(rows, range, out);
        let t = self.config.target_transform;
        for p in &mut out[start..] {
            *p = t.inverse(*p + self.intercept).clamp(floor, ceiling);
        }
    }
}

impl Regressor for ElasticNet {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(CleoError::InvalidTrainingData(
                "elastic net requires at least one sample".into(),
            ));
        }
        let n = data.n_rows();
        let d = data.n_cols();
        let transform = self.config.target_transform;
        let y: Vec<f64> = transform.forward_all(data.targets());

        // Standardise features; coordinate descent operates in standardised space and
        // the learned weights are mapped back to raw space afterwards.
        let scaler = StandardScaler::fit(data);
        let std_data = scaler.transform(data);

        let y_mean = if self.config.fit_intercept {
            y.iter().sum::<f64>() / n as f64
        } else {
            0.0
        };
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Precompute column norms (columns are standardised, but constant columns have
        // zero variance and must be skipped).
        let mut col_sq = vec![0.0; d];
        for i in 0..n {
            for (j, &v) in std_data.row(i).iter().enumerate() {
                col_sq[j] += v * v;
            }
        }

        let alpha = self.config.alpha.max(0.0);
        let l1 = alpha * self.config.l1_ratio;
        let l2 = alpha * (1.0 - self.config.l1_ratio);
        let nf = n as f64;

        let mut w = vec![0.0; d];
        // `take()`: the seed applies to exactly this fit, so a later refit of
        // the same instance stays a pure function of (config, dataset).
        if let Some(seed) = self.warm_start.take().filter(|s| s.len() == d) {
            // Seed in standardised space (the space the descent runs in).
            w = scaler.scale_weights(&seed);
            for (j, wj) in w.iter_mut().enumerate() {
                // Constant columns are never visited by the descent; a stale
                // seed weight there would survive into the final model.
                if col_sq[j] < 1e-12 {
                    *wj = 0.0;
                }
            }
        }
        // residual r = yc - X w  (equal to yc for the cold start's w = 0)
        let mut residual = yc;
        if w.iter().any(|&wj| wj != 0.0) {
            for (i, r) in residual.iter_mut().enumerate() {
                let row = std_data.row(i);
                *r -= row.iter().zip(&w).map(|(x, wj)| x * wj).sum::<f64>();
            }
        }

        for _ in 0..self.config.max_iter {
            let mut max_update = 0.0f64;
            for j in 0..d {
                if col_sq[j] < 1e-12 {
                    continue;
                }
                // rho = (1/n) * x_j · (r + x_j * w_j)
                let mut rho = 0.0;
                for (i, r) in residual.iter().enumerate() {
                    let xij = std_data.row(i)[j];
                    rho += xij * (r + xij * w[j]);
                }
                rho /= nf;
                let denom = col_sq[j] / nf + l2;
                let new_w = Self::soft_threshold(rho, l1) / denom;
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for (i, r) in residual.iter_mut().enumerate() {
                        *r -= std_data.row(i)[j] * delta;
                    }
                    w[j] = new_w;
                }
                max_update = max_update.max(delta.abs());
            }
            if max_update < self.config.tol {
                break;
            }
        }

        let (raw_w, raw_b) = scaler.unscale_weights(&w, y_mean);
        self.weights = raw_w;
        self.intercept = if self.config.fit_intercept {
            raw_b
        } else {
            raw_b - y_mean
        };
        self.fitted = true;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        let lin: f64 = row
            .iter()
            .zip(self.weights.iter())
            .map(|(x, w)| x * w)
            .sum::<f64>()
            + self.intercept;
        self.config.target_transform.inverse(lin)
    }

    fn predict_batch_into(&self, rows: &crate::matrix::FeatureMatrix, out: &mut Vec<f64>) {
        if !self.fitted {
            out.extend(rows.rows().map(|_| 0.0));
            return;
        }
        // Lane-blocked strided dot products over the flat buffer (8 rows per
        // SIMD block, ragged tail scalar), then the inverse-transform epilogue
        // in one pass.  Each row's own accumulation order is exactly that of
        // `predict_row` — x[0]*w[0] + x[1]*w[1] + … — so every prediction is
        // bit-identical to the row-by-row loop.
        let start = out.len();
        self.linear_batch_into(rows, 0..rows.n_rows(), out);
        let t = self.config.target_transform;
        for p in &mut out[start..] {
            *p = t.inverse(*p + self.intercept);
        }
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "Elastic net"
    }

    fn feature_weights(&self) -> Option<Vec<f64>> {
        if self.fitted {
            Some(self.weights.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_common::rng::DetRng;
    use cleo_common::stats;

    fn linear_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = DetRng::new(seed);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..n {
            let x0 = rng.uniform(0.0, 10.0);
            let x1 = rng.uniform(0.0, 5.0);
            let x2 = rng.uniform(0.0, 1.0); // irrelevant
            let y = 4.0 * x0 + 2.0 * x1 + rng.normal(0.0, noise);
            rows.push(vec![x0, x1, x2]);
            targets.push(y.max(0.0));
        }
        Dataset::from_rows(
            vec!["x0".into(), "x1".into(), "noise".into()],
            rows,
            targets,
        )
        .unwrap()
    }

    #[test]
    fn recovers_linear_relationship_with_identity_target() {
        let ds = linear_dataset(200, 0.1, 1);
        let cfg = ElasticNetConfig {
            alpha: 0.001, // nearly unregularised
            ..Default::default()
        };
        let mut model = ElasticNet::with_identity_target(cfg);
        model.fit(&ds).unwrap();
        let preds = model.predict(&ds);
        let corr = stats::pearson(&preds, ds.targets());
        assert!(corr > 0.99, "corr = {corr}");
        // Weight on x0 should be close to 4.
        assert!(
            (model.weights()[0] - 4.0).abs() < 0.3,
            "{:?}",
            model.weights()
        );
    }

    #[test]
    fn log_target_handles_multiplicative_data() {
        // y = c * x0 * x1: in log space this is linear in log features, but even on raw
        // features the MSLE fit should give a high rank correlation.
        let mut rng = DetRng::new(5);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..150 {
            let x0 = rng.uniform(1.0, 100.0);
            let x1 = rng.uniform(1.0, 10.0);
            rows.push(vec![x0, x1, x0 * x1]);
            targets.push(0.5 * x0 * x1 * rng.lognormal_noise(0.1));
        }
        let ds = Dataset::from_rows(vec!["x0".into(), "x1".into(), "x0x1".into()], rows, targets)
            .unwrap();
        let mut model = ElasticNet::paper_default();
        model.fit(&ds).unwrap();
        let preds = model.predict(&ds);
        assert!(
            preds.iter().all(|&p| p >= 0.0),
            "log target keeps predictions positive"
        );
        let corr = stats::pearson(&preds, ds.targets());
        assert!(corr > 0.9, "corr = {corr}");
    }

    #[test]
    fn l1_penalty_zeroes_irrelevant_features() {
        let ds = linear_dataset(100, 0.01, 2);
        let cfg = ElasticNetConfig {
            alpha: 0.5,
            l1_ratio: 1.0, // pure lasso
            target_transform: TargetTransform::Identity,
            ..Default::default()
        };
        let mut model = ElasticNet::new(cfg);
        model.fit(&ds).unwrap();
        // The pure-noise feature should be dropped.
        assert!(model.weights()[2].abs() < 1e-6, "{:?}", model.weights());
        assert!(model.n_selected() <= 2);
    }

    #[test]
    fn strong_regularisation_shrinks_towards_mean() {
        let ds = linear_dataset(50, 0.1, 3);
        let cfg = ElasticNetConfig {
            alpha: 1e6,
            target_transform: TargetTransform::Identity,
            ..Default::default()
        };
        let mut model = ElasticNet::new(cfg);
        model.fit(&ds).unwrap();
        let mean_y = stats::mean(ds.targets());
        // All weights ~0, prediction ~ mean of y.
        let pred = model.predict_row(ds.row(0));
        assert!((pred - mean_y).abs() < 1.0, "pred {pred} vs mean {mean_y}");
    }

    #[test]
    fn fit_rejects_empty_data() {
        let ds = Dataset::new(vec!["a".into()]);
        let mut model = ElasticNet::paper_default();
        assert!(model.fit(&ds).is_err());
        assert!(!model.is_fitted());
        assert_eq!(model.predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn handles_constant_columns() {
        let ds = Dataset::from_rows(
            vec!["c".into(), "x".into()],
            vec![
                vec![7.0, 1.0],
                vec![7.0, 2.0],
                vec![7.0, 3.0],
                vec![7.0, 4.0],
            ],
            vec![2.0, 4.0, 6.0, 8.0],
        )
        .unwrap();
        let cfg = ElasticNetConfig {
            alpha: 0.001,
            target_transform: TargetTransform::Identity,
            ..Default::default()
        };
        let mut model = ElasticNet::new(cfg);
        model.fit(&ds).unwrap();
        let pred = model.predict_row(&[7.0, 2.5]);
        assert!((pred - 5.0).abs() < 0.5, "pred {pred}");
    }

    #[test]
    fn warm_start_converges_to_the_cold_optimum() {
        let ds = linear_dataset(120, 0.1, 11);
        let mut cold = ElasticNet::paper_default();
        cold.fit(&ds).unwrap();

        // Seeding with the converged weights leaves the optimum unchanged.
        let mut rewarm = ElasticNet::paper_default();
        rewarm.set_warm_start(cold.weights().to_vec());
        rewarm.fit(&ds).unwrap();
        for (a, b) in cold.weights().iter().zip(rewarm.weights()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!((cold.intercept() - rewarm.intercept()).abs() < 1e-6);

        // Seeding from a *near-miss* model (a slightly perturbed incumbent, the
        // feedback-epoch shape) also lands on the same optimum.
        let perturbed: Vec<f64> = cold.weights().iter().map(|w| w * 1.1 + 0.01).collect();
        let mut warm = ElasticNet::paper_default();
        warm.set_warm_start(perturbed);
        warm.fit(&ds).unwrap();
        for (a, b) in cold.weights().iter().zip(warm.weights()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }

        // A seed of the wrong width is ignored, not mis-applied.
        let mut bad = ElasticNet::paper_default();
        bad.set_warm_start(vec![1.0; 99]);
        bad.fit(&ds).unwrap();
        for (a, b) in cold.weights().iter().zip(bad.weights()) {
            assert_eq!(a.to_bits(), b.to_bits(), "wrong-width seed must be a no-op");
        }

        // The seed is consumed by its fit: refitting the same instance starts
        // cold again, bit-identical to a never-seeded fit.
        let mut reused = ElasticNet::paper_default();
        reused.set_warm_start(vec![123.0; 3]);
        reused.fit(&ds).unwrap();
        reused.fit(&ds).unwrap();
        for (a, b) in cold.weights().iter().zip(reused.weights()) {
            assert_eq!(a.to_bits(), b.to_bits(), "stale seed leaked into a refit");
        }
    }

    #[test]
    fn feature_weights_exposed_through_trait() {
        let ds = linear_dataset(50, 0.1, 9);
        let mut model = ElasticNet::paper_default();
        assert!(model.feature_weights().is_none());
        model.fit(&ds).unwrap();
        assert_eq!(model.feature_weights().unwrap().len(), 3);
    }
}
