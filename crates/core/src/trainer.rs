//! The training pipeline and feedback loop (Section 5.1).
//!
//! Training mirrors the paper's deployment: telemetry from past runs is turned into
//! per-operator samples; the four individual model families are trained independently
//! (one elastic net per signature with enough occurrences); and the combined FastTree
//! meta-model is trained on the individual models' predictions over held-out jobs,
//! so it learns where each family can and cannot be trusted.

use cleo_common::rng::DetRng;
use cleo_common::Result;
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog};

use crate::models::{
    sample_hashes, CleoPredictor, CombinedModel, HashedSamples, ModelStore, OperatorSample,
    PredictionBreakdown, WarmStartStats,
};
use crate::signature::ModelFamily;

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Minimum occurrences of a signature before a specialised model is learned
    /// (the paper uses 5).
    pub min_samples_per_model: usize,
    /// Fraction of jobs held out from individual-model training and used to train the
    /// combined meta-model.
    pub meta_holdout_fraction: f64,
    /// Seed for the job split and model subsampling.
    pub seed: u64,
    /// Number of OS threads the per-signature training loop uses.
    /// `0` means "use [`std::thread::available_parallelism`]".  Training is
    /// deterministic regardless of this value: same seed ⇒ bit-identical
    /// predictor on 1 thread or N.
    pub threads: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            min_samples_per_model: 5,
            meta_holdout_fraction: 0.25,
            seed: 0xC1E0,
            threads: 0,
        }
    }
}

impl TrainerConfig {
    /// Derive the per-epoch trainer configuration of the feedback loop: identical
    /// hyper-parameters with the seed mixed with the epoch number, so every epoch
    /// shuffles its window independently yet deterministically (the same epoch on
    /// the same window trains the same predictor on 1 thread or N).
    pub fn for_epoch(&self, epoch: u32) -> TrainerConfig {
        TrainerConfig {
            seed: self.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..*self
        }
    }

    /// The effective thread count (resolves `threads == 0` to the machine's
    /// available parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The Cleo trainer.
#[derive(Debug, Clone, Default)]
pub struct CleoTrainer {
    config: TrainerConfig,
}

impl CleoTrainer {
    /// Create a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        CleoTrainer { config }
    }

    /// Turn a telemetry log into per-operator training samples.
    pub fn collect_samples(log: &TelemetryLog) -> Vec<OperatorSample> {
        Self::collect_samples_from(log.jobs())
    }

    /// Turn borrowed telemetry records into per-operator training samples
    /// (the zero-copy path the feedback loop uses to split its window without
    /// cloning plans).
    pub fn collect_samples_from<'a>(
        jobs: impl IntoIterator<Item = &'a JobTelemetry>,
    ) -> Vec<OperatorSample> {
        let mut samples = Vec::new();
        for job in jobs {
            for (node, latency) in job.operator_samples() {
                samples.push(OperatorSample::from_node(node, latency, &job.plan.meta));
            }
        }
        samples
    }

    /// Train the full predictor (four individual stores + combined meta-model) from a
    /// telemetry log.
    pub fn train(&self, log: &TelemetryLog) -> Result<CleoPredictor> {
        let samples = Self::collect_samples(log);
        self.train_from_samples(samples)
    }

    /// Train from already-collected samples.
    pub fn train_from_samples(&self, samples: Vec<OperatorSample>) -> Result<CleoPredictor> {
        Ok(self.train_from_samples_seeded(samples, None, None)?.0)
    }

    /// Train from already-collected samples, optionally seeded by the incumbent
    /// predictor of the previous published version: the shipped per-signature
    /// stores skip refitting signatures whose sample multiset is unchanged and
    /// warm-start the elastic-net descent from the **seed basis** — the last
    /// full-epoch predictor — otherwise (see [`ModelStore::train_all_seeded`]).
    /// `incumbent` is the serving-chain predictor (possibly delta-published,
    /// consulted for reuse); `seed_basis` is the last full version (consulted
    /// for warm-start seeds); callers without a delta chain pass the same
    /// predictor for both.  The interim stores feeding the combined meta-model
    /// always train cold — they exist to produce *out-of-sample* predictions
    /// over this round's split, and seeding them from a model that saw the
    /// held-out jobs would leak.
    pub fn train_from_samples_seeded(
        &self,
        mut samples: Vec<OperatorSample>,
        incumbent: Option<&CleoPredictor>,
        seed_basis: Option<&CleoPredictor>,
    ) -> Result<(CleoPredictor, WarmStartStats)> {
        if samples.is_empty() {
            return Err(cleo_common::CleoError::InvalidTrainingData(
                "no training samples".into(),
            ));
        }
        let mut rng = DetRng::new(self.config.seed);
        rng.shuffle(&mut samples);
        // Each sample is hashed once; the hashes travel with it into both
        // splits and all four families' groupings.
        let hashes = sample_hashes(&samples);
        let window = HashedSamples::new(&samples, &hashes);
        let holdout = ((samples.len() as f64) * self.config.meta_holdout_fraction).round() as usize;
        let holdout = holdout.clamp(1, samples.len().saturating_sub(1).max(1));
        let (meta_split, base_split) = window.split_at(holdout);
        let meta_samples = meta_split.samples();
        let threads = self.config.effective_threads();
        let families = ModelFamily::all();

        // Individual stores over the base split: every per-signature elastic net
        // across all four families is an independent fit, trained concurrently.
        // These stores exist only to produce *out-of-sample* predictions for the
        // meta-model (so it learns where each family can be trusted).
        let no_incumbents = vec![None; families.len()];
        let (base_stores, _) = ModelStore::run_signature_fits(
            &families,
            base_split,
            self.config.min_samples_per_model,
            threads,
            &no_incumbents,
            &no_incumbents,
            None,
        )?;

        // Meta-model over the held-out split, using the individual models' predictions
        // as meta-features.  The per-sample breakdowns are pure lookups, computed in
        // order-preserving parallel chunks.
        let interim = CleoPredictor::new(base_stores, CombinedModel::default());
        let breakdowns = Self::holdout_breakdowns(&interim, meta_samples, threads);
        let targets: Vec<f64> = meta_samples.iter().map(|s| s.exclusive_seconds).collect();
        let combined = CombinedModel::train(&breakdowns, &targets, self.config.seed)?;

        // The shipped individual stores are retrained on the *full* window (the
        // paper's deployment trains on everything it has): holding out a quarter
        // of the samples would permanently drop specialised signatures below the
        // min-occurrence threshold and shrink coverage on future days.
        let incumbent_stores: Vec<Option<&ModelStore>> = families
            .iter()
            .map(|&f| incumbent.and_then(|p| p.store(f)))
            .collect();
        let basis_stores: Vec<Option<&ModelStore>> = families
            .iter()
            .map(|&f| seed_basis.and_then(|p| p.store(f)))
            .collect();
        let (final_stores, warm_stats) = ModelStore::run_signature_fits(
            &families,
            window,
            self.config.min_samples_per_model,
            threads,
            &incumbent_stores,
            &basis_stores,
            None,
        )?;
        Ok((CleoPredictor::new(final_stores, combined), warm_stats))
    }

    /// Compute the meta-model's training inputs: each held-out sample's individual
    /// predictions.  Chunked across threads with in-order concatenation, so the
    /// result is identical to the serial loop.
    fn holdout_breakdowns(
        interim: &CleoPredictor,
        meta_samples: &[OperatorSample],
        threads: usize,
    ) -> Vec<(PredictionBreakdown, Vec<f64>)> {
        let predict_one = |s: &OperatorSample| {
            (
                interim.predict_from_parts(&s.signatures, &s.features),
                s.features.clone(),
            )
        };
        let threads = threads.max(1).min(meta_samples.len().max(1));
        if threads <= 1 {
            return meta_samples.iter().map(predict_one).collect();
        }
        let chunk_size = meta_samples.len().div_ceil(threads);
        let mut out = Vec::with_capacity(meta_samples.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = meta_samples
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(move || chunk.iter().map(predict_one).collect::<Vec<_>>()))
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("breakdown worker panicked"));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::exec::{Simulator, SimulatorConfig};
    use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
    use cleo_engine::ClusterId;
    use cleo_optimizer::{HeuristicCostModel, Optimizer, OptimizerConfig};

    fn small_telemetry() -> TelemetryLog {
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
        let model = HeuristicCostModel::default_model();
        let optimizer = Optimizer::new(&model, OptimizerConfig::default());
        let simulator = Simulator::new(SimulatorConfig::default());
        let mut log = TelemetryLog::new();
        for job in workload.jobs.iter().take(60) {
            let optimized = optimizer.optimize(job).unwrap();
            let run = simulator.run(&optimized.plan);
            log.push(JobTelemetry::new(optimized.plan, run));
        }
        log
    }

    #[test]
    fn trainer_produces_models_for_all_families() {
        let log = small_telemetry();
        let trainer = CleoTrainer::new(TrainerConfig::default());
        let predictor = trainer.train(&log).unwrap();
        assert!(
            predictor.model_count() > 4,
            "{} models",
            predictor.model_count()
        );
        assert!(predictor.combined().is_trained());
        // The Operator store must exist and cover the common operators.
        let op_store = predictor.store(ModelFamily::Operator).unwrap();
        assert!(op_store.len() >= 4);
        // Specialised stores exist but hold fewer signatures than total samples.
        let sub_store = predictor.store(ModelFamily::OpSubgraph).unwrap();
        assert!(!sub_store.is_empty());
    }

    #[test]
    fn trained_predictor_beats_naive_zero_prediction() {
        use cleo_common::stats;
        let log = small_telemetry();
        let trainer = CleoTrainer::new(TrainerConfig::default());
        let predictor = trainer.train(&log).unwrap();
        let samples = CleoTrainer::collect_samples(&log);
        let preds: Vec<f64> = samples
            .iter()
            .map(|s| {
                predictor
                    .predict_from_parts(&s.signatures, &s.features)
                    .combined
            })
            .collect();
        let actuals: Vec<f64> = samples.iter().map(|s| s.exclusive_seconds).collect();
        let corr = stats::pearson(&preds, &actuals);
        assert!(corr > 0.5, "in-sample correlation {corr}");
    }

    #[test]
    fn empty_log_is_rejected() {
        let trainer = CleoTrainer::new(TrainerConfig::default());
        assert!(trainer.train(&TelemetryLog::new()).is_err());
    }
}
