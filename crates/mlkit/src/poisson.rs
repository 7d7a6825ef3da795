//! Poisson regression — the learner behind the CardLearner baseline.
//!
//! The paper compares Cleo against CardLearner (Wu et al., cited as \[47\]), which
//! improves *cardinality* estimates with a Poisson regression model but keeps the
//! default cost model.  Poisson regression models a non-negative count-like target
//! `y` as `E[y | x] = exp(w·x + b)` and maximises the Poisson log-likelihood; we fit
//! it with full-batch gradient ascent over standardised features.

use crate::dataset::Dataset;
use crate::model::Regressor;
use crate::scaler::StandardScaler;
use cleo_common::{CleoError, Result};

/// Configuration for [`PoissonRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonConfig {
    /// L2 regularisation strength.
    pub l2: f64,
    /// Learning rate for gradient ascent.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Clamp on the linear predictor to keep `exp` finite.
    pub max_linear: f64,
}

impl Default for PoissonConfig {
    fn default() -> Self {
        PoissonConfig {
            l2: 1e-4,
            learning_rate: 0.05,
            epochs: 500,
            max_linear: 30.0,
        }
    }
}

/// Poisson (log-linear) regression.
#[derive(Debug, Clone)]
pub struct PoissonRegressor {
    config: PoissonConfig,
    scaler: Option<StandardScaler>,
    weights: Vec<f64>,
    intercept: f64,
    fitted: bool,
}

impl PoissonRegressor {
    /// Create a regressor with an explicit configuration.
    pub fn new(config: PoissonConfig) -> Self {
        PoissonRegressor {
            config,
            scaler: None,
            weights: Vec::new(),
            intercept: 0.0,
            fitted: false,
        }
    }

    /// Default configuration used by the CardLearner baseline.
    pub fn cardlearner_default() -> Self {
        PoissonRegressor::new(PoissonConfig::default())
    }

    fn linear(&self, std_row: &[f64]) -> f64 {
        let z: f64 = std_row
            .iter()
            .zip(self.weights.iter())
            .map(|(x, w)| x * w)
            .sum::<f64>()
            + self.intercept;
        z.clamp(-self.config.max_linear, self.config.max_linear)
    }
}

impl Regressor for PoissonRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(CleoError::InvalidTrainingData(
                "poisson regression requires at least one sample".into(),
            ));
        }
        if data.targets().iter().any(|&y| y < 0.0) {
            return Err(CleoError::InvalidTrainingData(
                "poisson regression requires non-negative targets".into(),
            ));
        }
        let n = data.n_rows();
        let d = data.n_cols();
        let scaler = StandardScaler::fit(data);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| scaler.transform_row(data.row(i))).collect();
        let y = data.targets();

        self.weights = vec![0.0; d];
        // Start the intercept at log(mean(y)) so the initial rate matches the data scale.
        let mean_y = (y.iter().sum::<f64>() / n as f64).max(1e-9);
        self.intercept = mean_y.ln();

        let lr = self.config.learning_rate;
        let nf = n as f64;
        for _ in 0..self.config.epochs {
            let mut g_w = vec![0.0; d];
            let mut g_b = 0.0;
            for (x, &t) in xs.iter().zip(y.iter()) {
                let mu = self.linear(x).exp();
                // Gradient of the negative log-likelihood: (mu - y) * x, scaled by the
                // mean target so the step size is insensitive to the target magnitude
                // (the curvature of the Poisson deviance grows with the rate).
                let err = (mu - t) / (nf * mean_y);
                g_b += err;
                for (j, &xj) in x.iter().enumerate() {
                    g_w[j] += err * xj;
                }
            }
            for (j, gw) in g_w.iter_mut().enumerate() {
                *gw += self.config.l2 * self.weights[j];
                self.weights[j] -= lr * *gw;
            }
            self.intercept -= lr * g_b;
        }

        self.scaler = Some(scaler);
        self.fitted = true;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        let scaler = self.scaler.as_ref().expect("fitted model has a scaler");
        self.linear(&scaler.transform_row(row)).exp()
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "Poisson Regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_common::rng::DetRng;
    use cleo_common::stats;

    #[test]
    fn fits_multiplicative_cardinality_data() {
        // Cardinality-like target: y = 100 * exp(0.5*x0 - 0.3*x1) with Poisson-ish noise.
        let mut rng = DetRng::new(1);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..300 {
            let x0 = rng.uniform(0.0, 4.0);
            let x1 = rng.uniform(0.0, 4.0);
            let rate = 100.0 * (0.5 * x0 - 0.3 * x1).exp();
            rows.push(vec![x0, x1]);
            targets.push(rate * rng.lognormal_noise(0.1));
        }
        let ds = Dataset::from_rows(vec!["x0".into(), "x1".into()], rows, targets).unwrap();
        let mut m = PoissonRegressor::cardlearner_default();
        m.fit(&ds).unwrap();
        let preds = m.predict(&ds);
        let corr = stats::pearson(&preds, ds.targets());
        assert!(corr > 0.9, "corr = {corr}");
        assert!(preds.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn rejects_negative_targets_and_empty_data() {
        let ds = Dataset::from_rows(vec!["x".into()], vec![vec![1.0]], vec![-1.0]).unwrap();
        let mut m = PoissonRegressor::cardlearner_default();
        assert!(m.fit(&ds).is_err());
        let empty = Dataset::new(vec!["x".into()]);
        assert!(m.fit(&empty).is_err());
        assert_eq!(m.predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn predictions_stay_finite_for_extreme_inputs() {
        let ds = Dataset::from_rows(
            vec!["x".into()],
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![10.0, 20.0, 40.0],
        )
        .unwrap();
        let mut m = PoissonRegressor::cardlearner_default();
        m.fit(&ds).unwrap();
        let p = m.predict_row(&[1e12]);
        assert!(p.is_finite());
    }
}
