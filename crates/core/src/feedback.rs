//! The epoch-driven feedback loop: Cleo's continuous deployment story.
//!
//! Section 5.1 describes a *continuous* cycle — instrument runs, train on a sliding
//! telemetry window, feed the models back to the optimizer — where the one-shot
//! helpers of [`crate::pipeline`] only cover a single turn.  [`FeedbackLoop`] is the
//! subsystem version of that cycle:
//!
//! 1. **Serve** — each epoch's jobs are optimized concurrently through a
//!    [`SharedOptimizer`](cleo_optimizer::SharedOptimizer) against whichever
//!    registry version is current (the hand-written fallback until the first
//!    publish), simulated, and their telemetry stamped with the epoch and
//!    serving model version.
//! 2. **Window** — telemetry accumulates in a bounded sliding window
//!    ([`WindowEviction`]: job-count FIFO or trailing-days retention), so training
//!    cost and drift sensitivity stay constant as the deployment ages.
//! 3. **Retrain** — every epoch retrains the per-signature models over the window
//!    with the parallel [`CleoTrainer`], under an epoch-derived seed that keeps the
//!    loop bit-deterministic across thread counts.
//! 4. **Guarded publish** — the candidate is evaluated against the *incumbent* on a
//!    deterministic holdout slice of the window; it is published to the
//!    [`ModelRegistry`] only when it does not regress, otherwise the previous
//!    version keeps serving (and the rejection is reported).
//!
//! At fleet scale, [`ShardedFeedbackLoop`] runs one such loop per cluster.  It
//! serves a multi-cluster stream through the [`ClusterRouter`], partitions the
//! telemetry by cluster, and hands each slice to its shard's [`FeedbackLoop`],
//! which ingests, evicts, retrains and publishes into the cluster's registry
//! shard exactly as a single loop does.  The fleet adds only what one loop
//! does not need: the failure-isolated parallel fan-out across shards,
//! drift-aware window eviction ([`DriftPolicy`]) and the post-publish
//! live-error watchdog ([`WatchdogPolicy`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use cleo_common::concurrency::par_map;
use cleo_common::fault::{FaultPlan, FaultSite};
use cleo_common::obs::{self, TraceEvent};
use cleo_common::{CleoError, Result};
use cleo_engine::exec::Simulator;
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog, WindowMoments};
use cleo_engine::types::ClusterId;
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModel, CostModelProvider, HeuristicCostModel, OptimizerConfig};

use crate::integration::LearnedCostModel;
use crate::models::{ModelStore, OperatorSample, WarmStartStats};
use crate::pipeline::evaluate_cost_model_jobs;
use crate::registry::{HoldoutMetrics, ModelRegistry, RegistryCostModelProvider};
use crate::sharding::{ClusterRouter, RoutingSnapshot, ShardedRegistry};
use crate::trainer::{CleoTrainer, TrainerConfig};

/// How the sliding telemetry window evicts old records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEviction {
    /// Keep at most this many jobs, evicting the oldest first.
    JobCount(usize),
    /// Keep only the trailing N days of telemetry.
    RecentDays(u32),
}

/// Feedback-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// Sliding-window bound and eviction policy.
    pub eviction: WindowEviction,
    /// Trainer hyper-parameters; the seed is re-derived per epoch
    /// ([`TrainerConfig::for_epoch`]).
    pub trainer: TrainerConfig,
    /// Fraction of window jobs held out from training and used for the publish
    /// guard (clamped to at least one job).
    pub holdout_fraction: f64,
    /// Minimum window jobs before a retrain is attempted.
    pub min_training_jobs: usize,
    /// Publish guard: how much correlation loss vs. the incumbent is tolerated.
    pub correlation_tolerance: f64,
    /// Publish guard: how many percentage points of median-error growth vs. the
    /// incumbent are tolerated.
    pub error_tolerance_pct: f64,
    /// Optimizer configuration used for serving.
    pub optimizer: OptimizerConfig,
    /// OS threads used to optimize an epoch's jobs (0 = all cores).  Serving is
    /// deterministic regardless: plans depend only on the model version.
    pub serving_threads: usize,
    /// Dirty-signature warm start: skip refitting signatures whose window
    /// sample set is unchanged since the incumbent version and seed changed
    /// signatures' elastic-net fits from the incumbent's weights (see
    /// [`crate::models::ModelStore::train_all_seeded`]).
    pub warm_start: bool,
    /// Hot-signature threshold of sub-epoch delta rounds: a dirty signature is
    /// refit (and shipped in the delta) only when at least this fraction of
    /// its window samples is new since its serving fit; below it, the refit is
    /// deferred to the next full epoch ([`crate::models::ModelStore::train_dirty`]).
    /// 0.0 ships every dirty signature.  Full epochs ignore this.
    pub delta_min_dirty_share: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            eviction: WindowEviction::JobCount(512),
            trainer: TrainerConfig::default(),
            holdout_fraction: 0.2,
            min_training_jobs: 12,
            correlation_tolerance: 0.02,
            error_tolerance_pct: 2.0,
            optimizer: OptimizerConfig::resource_aware(),
            serving_threads: 0,
            warm_start: true,
            delta_min_dirty_share: 0.1,
        }
    }
}

/// What a sub-epoch delta round decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaDecision {
    /// The delta was applied copy-on-write over the incumbent and published.
    Published {
        /// The delta-published registry version.
        version: u64,
        /// The incumbent version the delta was applied over.
        base_version: u64,
        /// Per-signature models the delta shipped (after the guard).
        changed_signatures: usize,
    },
    /// The registry is cold (or fully rolled back): deltas apply over an
    /// incumbent, so there is nothing to delta against yet.
    SkippedNoBase,
    /// No signature's window sample multiset moved since the incumbent (or
    /// every dirty refit regressed and was dropped): nothing to publish.
    SkippedNothingDirty,
    /// The window held too few jobs to retrain anything.
    SkippedTooFewJobs,
}

/// Outcome of one sub-epoch delta round: the dirty-set accounting and the
/// publish decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaOutcome {
    /// The decision taken.
    pub decision: DeltaDecision,
    /// Signatures whose window sample multiset was unchanged (skipped —
    /// neither refit nor shipped).
    pub unchanged_signatures: usize,
    /// Signatures found dirty and refit this round (before the guard).
    pub dirty_signatures: usize,
    /// Dirty signatures whose new-evidence share fell below the hot-signature
    /// threshold ([`FeedbackConfig::delta_min_dirty_share`]): not refit, the
    /// incumbent keeps serving them until the next full epoch.
    pub deferred_signatures: usize,
    /// Dirty refits that regressed on their per-signature holdout slice and
    /// were dropped from the delta (the incumbent model keeps serving them).
    pub dropped_regressions: usize,
    /// Holdout metrics of the merged (incumbent ⊕ delta) candidate, when a
    /// delta was published.
    pub candidate: Option<HoldoutMetrics>,
}

impl DeltaOutcome {
    fn skipped(decision: DeltaDecision) -> Self {
        DeltaOutcome {
            decision,
            unchanged_signatures: 0,
            dirty_signatures: 0,
            deferred_signatures: 0,
            dropped_regressions: 0,
            candidate: None,
        }
    }
}

/// Report of one sub-epoch delta round driven by [`FeedbackLoop::run_delta_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRoundReport {
    /// Registry version that served this round's jobs (0 = fallback model).
    pub served_version: u64,
    /// Jobs optimized and executed this round.
    pub jobs_run: usize,
    /// Cumulative end-to-end latency of the round's jobs (seconds).
    pub total_latency: f64,
    /// Window size after ingesting this round (jobs).
    pub window_jobs: usize,
    /// Jobs evicted from the window this round.
    pub evicted_jobs: usize,
    /// The delta round's outcome.
    pub outcome: DeltaOutcome,
}

/// What happened to the candidate model of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PublishDecision {
    /// The candidate did not regress and became the new current version.
    Published {
        /// The newly published registry version.
        version: u64,
    },
    /// The candidate regressed on the holdout; the previous version keeps serving.
    RejectedRegression,
    /// The window held too few jobs to train (no candidate was produced).
    SkippedTooFewJobs,
}

/// Retraining outcome of one epoch: the guard's inputs and its decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainOutcome {
    /// The decision taken.
    pub decision: PublishDecision,
    /// Candidate holdout metrics (absent when training was skipped).
    pub candidate: Option<HoldoutMetrics>,
    /// Incumbent metrics over the same holdout (absent when training was skipped).
    pub incumbent: Option<HoldoutMetrics>,
    /// Dirty-signature warm-start counters of the shipped stores (all zero when
    /// training was skipped or [`FeedbackConfig::warm_start`] is off and no
    /// fits ran; cold-only counts when warm start is disabled).
    pub warm: WarmStartStats,
}

/// Report of one full feedback epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch number (1-based).
    pub epoch: u32,
    /// Registry version that served this epoch's jobs (0 = fallback model).
    pub served_version: u64,
    /// Jobs optimized and executed this epoch.
    pub jobs_run: usize,
    /// Cumulative end-to-end latency of the epoch's jobs (seconds).
    pub total_latency: f64,
    /// Total processing time of the epoch's jobs (container-seconds).
    pub total_cpu_seconds: f64,
    /// Window size after ingesting this epoch (jobs).
    pub window_jobs: usize,
    /// Jobs evicted from the window this epoch.
    pub evicted_jobs: usize,
    /// Retraining outcome.
    pub retrain: RetrainOutcome,
}

/// The continuous feedback loop (serve → window → retrain → guarded publish).
pub struct FeedbackLoop {
    config: FeedbackConfig,
    provider: Arc<RegistryCostModelProvider>,
    simulator: Simulator,
    window: TelemetryLog,
    epoch: u32,
}

impl FeedbackLoop {
    /// Create a loop serving the default hand-written cost model until the first
    /// version is published.
    pub fn new(config: FeedbackConfig, simulator: Simulator) -> Self {
        Self::with_registry(
            config,
            simulator,
            Arc::new(ModelRegistry::new()),
            Arc::new(HeuristicCostModel::default_model()),
        )
    }

    /// Create a loop that publishes into `registry` and treats `fallback` as
    /// version 0 while the registry is cold.  Each shard of a
    /// [`ShardedFeedbackLoop`] is one such loop, over its cluster's registry
    /// shard and the router's fallback model.
    pub fn with_registry(
        config: FeedbackConfig,
        simulator: Simulator,
        registry: Arc<ModelRegistry>,
        fallback: Arc<dyn CostModel>,
    ) -> Self {
        FeedbackLoop {
            config,
            provider: Arc::new(RegistryCostModelProvider::new(registry, fallback)),
            simulator,
            window: TelemetryLog::new(),
            epoch: 0,
        }
    }

    /// The model registry the loop publishes into.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        self.provider.registry()
    }

    /// The provider concurrent optimizers serve from (shared with the loop, so a
    /// publish by [`FeedbackLoop::run_epoch`] is immediately visible to external
    /// serving paths holding this handle).
    pub fn provider(&self) -> Arc<RegistryCostModelProvider> {
        Arc::clone(&self.provider)
    }

    /// The current sliding telemetry window.
    pub fn window(&self) -> &TelemetryLog {
        &self.window
    }

    /// Drop the entire sliding window (e.g. after a detected telemetry
    /// corruption, so the next epochs rebuild it from fresh runs).
    pub fn clear_window(&mut self) {
        self.window = TelemetryLog::new();
    }

    /// The configuration in use.
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }

    /// The holdout stride the publish guard uses: every `stride`-th window job
    /// (by stable window order) is held out from training and scored instead.
    pub fn holdout_stride(&self) -> usize {
        (1.0 / self.config.holdout_fraction.clamp(0.05, 0.5)).round() as usize
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Ingest externally executed telemetry into the sliding window (applies the
    /// eviction policy).  Returns the number of evicted jobs.
    pub fn observe(&mut self, log: TelemetryLog) -> usize {
        self.window.extend(log);
        match self.config.eviction {
            WindowEviction::JobCount(max_jobs) => self.window.drain_window(max_jobs).len(),
            WindowEviction::RecentDays(days) => self.window.retain_recent_days(days).len(),
        }
    }

    /// Serve `jobs` against the current version: optimize concurrently,
    /// simulate in job order, stamp provenance with the loop's epoch.
    fn serve(&self, jobs: &[&JobSpec]) -> Result<TelemetryLog> {
        crate::pipeline::run_jobs_shared(
            jobs,
            Arc::clone(&self.provider) as Arc<dyn CostModelProvider>,
            self.config.optimizer,
            &self.simulator,
            self.epoch,
            self.config.serving_threads,
        )
    }

    /// Run one full epoch over `jobs`: serve, ingest, retrain, guarded publish.
    pub fn run_epoch(&mut self, jobs: &[&JobSpec]) -> Result<EpochReport> {
        self.epoch += 1;
        let served_version = self.registry().current_version();
        let served = self.serve(jobs)?;
        let jobs_run = served.len();
        let total_latency = served.total_latency();
        let total_cpu_seconds = served.total_cpu_seconds();
        let evicted_jobs = self.observe(served);

        let retrain = self.retrain()?;
        Ok(EpochReport {
            epoch: self.epoch,
            served_version,
            jobs_run,
            total_latency,
            total_cpu_seconds,
            window_jobs: self.window.len(),
            evicted_jobs,
            retrain,
        })
    }

    /// Run one **sub-epoch delta round** over `jobs`: serve and ingest exactly
    /// like an epoch, but instead of a full retrain, refit only the signatures
    /// whose window sample multiset moved since the incumbent version and
    /// publish them as a copy-on-write [`crate::registry::ModelDelta`] — the
    /// staleness window of a hot signature shrinks from the epoch cadence to
    /// the delta cadence, without paying for a full retrain or perturbing what
    /// the next full epoch will compute (delta-equivalence).  Does not advance
    /// the epoch counter.
    pub fn run_delta_round(&mut self, jobs: &[&JobSpec]) -> Result<DeltaRoundReport> {
        let served_version = self.registry().current_version();
        let served = self.serve(jobs)?;
        let jobs_run = served.len();
        let total_latency = served.total_latency();
        let evicted_jobs = self.observe(served);
        let outcome = self.publish_dirty()?;
        Ok(DeltaRoundReport {
            served_version,
            jobs_run,
            total_latency,
            window_jobs: self.window.len(),
            evicted_jobs,
            outcome,
        })
    }

    /// The guard's deterministic holdout split of the window: every
    /// [`FeedbackLoop::holdout_stride`]-th job (by stable window order) is
    /// held out, the rest train.  `None` when the window is too small to
    /// train or either side would be empty.  The split depends only on the
    /// window contents — never on thread count — and borrows, so nothing in
    /// the window is cloned.
    fn holdout_split(&self) -> Option<(Vec<&JobTelemetry>, Vec<&JobTelemetry>)> {
        if self.window.len() < self.config.min_training_jobs.max(2) {
            return None;
        }
        let stride = self.holdout_stride();
        let (holdout, train): (Vec<_>, Vec<_>) = self
            .window
            .jobs()
            .iter()
            .enumerate()
            .partition(|(i, _)| i % stride == 0);
        let holdout: Vec<&JobTelemetry> = holdout.into_iter().map(|(_, j)| j).collect();
        let train: Vec<&JobTelemetry> = train.into_iter().map(|(_, j)| j).collect();
        (!holdout.is_empty() && !train.is_empty()).then_some((holdout, train))
    }

    /// Retrain over the current window and publish the candidate if it does not
    /// regress vs. the incumbent on the holdout slice.  Called by
    /// [`FeedbackLoop::run_epoch`]; exposed for loops that ingest telemetry via
    /// [`FeedbackLoop::observe`] (e.g. replaying pre-executed logs).
    ///
    /// The incumbent is the registry's current version (or the fallback while
    /// the registry is cold); with [`FeedbackConfig::warm_start`] the shipped
    /// stores reuse or warm-start from the incumbent's per-signature models.
    pub fn retrain(&mut self) -> Result<RetrainOutcome> {
        let Some((holdout, train)) = self.holdout_split() else {
            return Ok(RetrainOutcome {
                decision: PublishDecision::SkippedTooFewJobs,
                candidate: None,
                incumbent: None,
                warm: WarmStartStats::default(),
            });
        };
        let config = &self.config;
        let registry = self.registry();

        // The incumbent (serving chain) is the guard's baseline and the reuse
        // source; the warm-start *seed* comes from the last full-epoch basis, so a
        // full epoch's fits are bit-independent of any sub-epoch deltas published
        // since that basis (the delta-equivalence property).  With no deltas the
        // basis IS the incumbent.  Keeping the snapshot `Arc`s alive pins all of
        // it for the whole round.
        let incumbent_snapshot = registry.current();
        let basis_snapshot = registry.current_full_basis();
        let incumbent_model: Arc<dyn CostModel> = match &incumbent_snapshot {
            Some(s) => Arc::clone(s.cost_model()) as Arc<dyn CostModel>,
            None => Arc::clone(self.provider.fallback()),
        };
        let chain_predictor = incumbent_snapshot
            .as_ref()
            .filter(|_| config.warm_start)
            .map(|s| s.predictor());
        let basis_predictor = basis_snapshot
            .as_ref()
            .filter(|_| config.warm_start)
            .map(|s| s.predictor());

        let trainer = CleoTrainer::new(config.trainer.for_epoch(self.epoch));
        let samples = CleoTrainer::collect_samples_from(train.iter().copied());
        let (predictor, warm) =
            trainer.train_from_samples_seeded(samples, chain_predictor, basis_predictor)?;
        let predictor = Arc::new(predictor);

        // Guard: candidate and incumbent are measured by the same instrument (the
        // CostModel seam over the holdout jobs), so the comparison is apples to
        // apples even when the incumbent is the hand-written fallback.
        let candidate_model = LearnedCostModel::without_cache(Arc::clone(&predictor));
        let candidate = holdout_metrics(&candidate_model, &holdout);
        let incumbent = holdout_metrics(incumbent_model.as_ref(), &holdout);

        if candidate.regresses_from(
            &incumbent,
            config.correlation_tolerance,
            config.error_tolerance_pct,
        ) {
            return Ok(RetrainOutcome {
                decision: PublishDecision::RejectedRegression,
                candidate: Some(candidate),
                incumbent: Some(incumbent),
                warm,
            });
        }

        let snapshot = registry.publish(predictor, self.epoch, candidate);
        Ok(RetrainOutcome {
            decision: PublishDecision::Published {
                version: snapshot.version(),
            },
            candidate: Some(candidate),
            incumbent: Some(incumbent),
            warm,
        })
    }

    /// Retrain **only the dirty signatures** of the current window and publish
    /// them as a sub-epoch delta (the guarded-retrain core of
    /// [`FeedbackLoop::run_delta_round`]; exposed for loops that ingest
    /// telemetry via [`FeedbackLoop::observe`]).
    ///
    /// The round refits only signatures whose window sample multiset moved
    /// since the incumbent ([`ModelStore::train_dirty`]'s dirty predicate),
    /// seeds every refit from the last **full-epoch basis** (so the next full
    /// epoch is bit-independent of this delta), guards each refit with the
    /// existing per-signature holdout predicate — a regressing signature is
    /// dropped from the delta rather than vetoing it wholesale — and publishes
    /// the survivors via [`ModelRegistry::publish_delta`].
    pub fn publish_dirty(&mut self) -> Result<DeltaOutcome> {
        use crate::registry::ModelDelta;
        use crate::signature::ModelFamily;

        let config = &self.config;
        let registry = self.registry();
        // Deltas apply over an incumbent; a cold registry has nothing to patch.
        let Some(incumbent) = registry.current() else {
            return Ok(DeltaOutcome::skipped(DeltaDecision::SkippedNoBase));
        };
        // The same deterministic holdout split as the full epoch, so the guard
        // judges candidates on jobs their fits never saw.
        let Some((holdout, train)) = self.holdout_split() else {
            return Ok(DeltaOutcome::skipped(DeltaDecision::SkippedTooFewJobs));
        };

        let basis = registry
            .current_full_basis()
            .expect("an incumbent implies a full basis on its lineage");
        let families = ModelFamily::all();
        let chain_stores: Vec<Option<&ModelStore>> = families
            .iter()
            .map(|&f| incumbent.predictor().store(f))
            .collect();
        let basis_stores: Vec<Option<&ModelStore>> = families
            .iter()
            .map(|&f| {
                if config.warm_start {
                    basis.predictor().store(f)
                } else {
                    None
                }
            })
            .collect();

        // Refit the dirty set only.  No shuffle, no meta retrain: groups are
        // canonically ordered, so each fit is the bit-exact model the next full
        // epoch would produce for the same group.
        let samples = CleoTrainer::collect_samples_from(train.iter().copied());
        let (mut payload, stats) = ModelStore::train_dirty(
            &families,
            &samples,
            config.trainer.min_samples_per_model,
            config.trainer.threads,
            &chain_stores,
            &basis_stores,
            config.delta_min_dirty_share,
        )?;
        let dirty_signatures = stats.warm_fits + stats.cold_fits;
        if dirty_signatures == 0 {
            return Ok(DeltaOutcome {
                decision: DeltaDecision::SkippedNothingDirty,
                unchanged_signatures: stats.reused,
                dirty_signatures: 0,
                deferred_signatures: stats.deferred,
                dropped_regressions: 0,
                candidate: None,
            });
        }

        // Per-signature guard: judge every refit against the incumbent's model for
        // the same signature on the signature's own holdout samples, with the same
        // regression predicate the epoch-level guard uses.  A regressing signature
        // is dropped from the delta; the rest still ship.  Holdout samples are
        // grouped by family signature once (not rescanned per dirty signature),
        // and the surviving refits' holdout pairs double as the published
        // snapshot's metrics — a delta's holdout record describes what changed.
        let holdout_samples: Vec<OperatorSample> =
            CleoTrainer::collect_samples_from(holdout.iter().copied());
        let mut holdout_by_sig: Vec<std::collections::HashMap<u64, Vec<&OperatorSample>>> =
            families.iter().map(|_| Default::default()).collect();
        for s in &holdout_samples {
            for (family_index, &family) in families.iter().enumerate() {
                holdout_by_sig[family_index]
                    .entry(s.signatures.for_family(family))
                    .or_default()
                    .push(s);
            }
        }
        let mut dropped = 0usize;
        let mut candidate_pairs: Vec<(f64, f64)> = Vec::new();
        for (family_index, _) in families.iter().enumerate() {
            let candidate_store = &payload[family_index];
            let chain = chain_stores[family_index];
            let mut regressing: Vec<u64> = Vec::new();
            for signature in candidate_store.signatures() {
                let slice = match holdout_by_sig[family_index].get(&signature) {
                    Some(slice) if !slice.is_empty() => slice.as_slice(),
                    _ => continue, // no holdout evidence: keep the fresher fit
                };
                let candidate = signature_holdout_metrics(candidate_store, signature, slice);
                // A signature the incumbent does not cover has nothing to regress
                // from; covered ones are judged with the epoch guard's predicate.
                if let Some(chain) = chain.filter(|c| c.covers(signature)) {
                    let incumbent_metrics = signature_holdout_metrics(chain, signature, slice);
                    if candidate.regresses_from(
                        &incumbent_metrics,
                        config.correlation_tolerance,
                        config.error_tolerance_pct,
                    ) {
                        regressing.push(signature);
                        continue;
                    }
                }
                for s in slice {
                    if let Some(p) = candidate_store.predict(signature, &s.features) {
                        candidate_pairs.push((p, s.exclusive_seconds));
                    }
                }
            }
            if !regressing.is_empty() {
                dropped += regressing.len();
                payload[family_index].retain(|sig| !regressing.contains(&sig));
            }
        }

        let mut changed: Vec<(ModelFamily, u64, u64)> = Vec::new();
        for (family_index, &family) in families.iter().enumerate() {
            for signature in payload[family_index].signatures() {
                let fingerprint = payload[family_index]
                    .fingerprint_of(signature)
                    .expect("signature enumerated from this store");
                changed.push((family, signature, fingerprint));
            }
        }
        if changed.is_empty() {
            return Ok(DeltaOutcome {
                decision: DeltaDecision::SkippedNothingDirty,
                unchanged_signatures: stats.reused,
                dirty_signatures,
                deferred_signatures: stats.deferred,
                dropped_regressions: dropped,
                candidate: None,
            });
        }

        let delta = ModelDelta {
            base_version: incumbent.version(),
            epoch: self.epoch,
            payload,
            changed,
            dropped_regressions: dropped,
        };
        // The published snapshot's holdout metrics describe the delta's changed
        // signatures over their holdout slice (unchanged signatures are exactly
        // the incumbent's, whose metrics its own snapshot already records).  With
        // no holdout evidence for any survivor, the incumbent's record carries
        // over unchanged.
        let candidate = if candidate_pairs.is_empty() {
            *incumbent.holdout()
        } else {
            use cleo_common::stats;
            let preds: Vec<f64> = candidate_pairs.iter().map(|p| p.0).collect();
            let actuals: Vec<f64> = candidate_pairs.iter().map(|p| p.1).collect();
            HoldoutMetrics {
                correlation: stats::pearson(&preds, &actuals),
                median_error_pct: stats::median_error_pct(&preds, &actuals),
                sample_count: preds.len(),
            }
        };
        let changed_signatures = delta.changed_signatures();
        let snapshot = registry.publish_delta(&delta, candidate)?;
        Ok(DeltaOutcome {
            decision: DeltaDecision::Published {
                version: snapshot.version(),
                base_version: delta.base_version,
                changed_signatures,
            },
            unchanged_signatures: stats.reused,
            dirty_signatures,
            deferred_signatures: stats.deferred,
            dropped_regressions: dropped,
            candidate: Some(candidate),
        })
    }
}

/// [`HoldoutMetrics`] of one family store's model for one signature over that
/// signature's holdout samples (the per-signature guard's instrument).
fn signature_holdout_metrics(
    store: &ModelStore,
    signature: u64,
    samples: &[&OperatorSample],
) -> HoldoutMetrics {
    use cleo_common::stats;
    let mut preds = Vec::with_capacity(samples.len());
    let mut actuals = Vec::with_capacity(samples.len());
    for s in samples {
        if let Some(p) = store.predict(signature, &s.features) {
            preds.push(p);
            actuals.push(s.exclusive_seconds);
        }
    }
    HoldoutMetrics {
        correlation: stats::pearson(&preds, &actuals),
        median_error_pct: stats::median_error_pct(&preds, &actuals),
        sample_count: preds.len(),
    }
}

/// Evaluate a cost model over the borrowed holdout slice in the guard's
/// vocabulary.
fn holdout_metrics(model: &dyn CostModel, holdout: &[&JobTelemetry]) -> HoldoutMetrics {
    let eval = evaluate_cost_model_jobs(model, holdout.iter().copied());
    HoldoutMetrics {
        correlation: eval.correlation,
        median_error_pct: eval.median_error_pct,
        sample_count: eval.pairs.len(),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// Drift-aware window eviction policy of the sharded loop (off by default).
///
/// When enabled, each shard compares its window's [`WindowMoments`] against the
/// snapshot taken when the shard last published; a score above `threshold`
/// (≈ one training-time standard deviation) drops the oldest half of the
/// window, so the next retrain fits the post-shift distribution instead of
/// averaging across the shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Whether drift-aware eviction runs at all.
    pub enabled: bool,
    /// Drift score above which the stale window tail is evicted.
    pub threshold: f64,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            enabled: false,
            threshold: 1.0,
        }
    }
}

/// Post-publish live-error watchdog of the sharded loop (off by default).
///
/// When enabled, each shard round starts by measuring the *served* model's
/// live error on the freshly-arrived telemetry that carries its provenance
/// (same cluster, same version).  A version whose live error regresses more
/// than `max_error_regression_pct` past the previous version's measured live
/// error is rolled back before the round continues — the holdout guard
/// catches bad models at training time, the watchdog catches the ones that
/// only misbehave on live traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Whether the watchdog runs at all.
    pub enabled: bool,
    /// Live median-error regression (percentage points past the previous
    /// version's measured live error) that triggers a rollback.
    pub max_error_regression_pct: f64,
    /// Fresh records with matching provenance needed before the live error is
    /// considered measured (too few samples → [`WatchdogVerdict::NotChecked`]).
    pub min_samples: usize,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            enabled: false,
            max_error_regression_pct: 15.0,
            min_samples: 8,
        }
    }
}

/// What the publish watchdog decided for one shard round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WatchdogVerdict {
    /// Disabled, shard cold, or too few fresh records with matching
    /// provenance to measure the served version's live error.
    NotChecked,
    /// Live error measured; within the regression guard.
    Healthy {
        /// The served version measured.
        version: u64,
        /// Its live median error (pct) on fresh matching telemetry.
        live_error_pct: f64,
    },
    /// Live error regressed past the guard; the version was rolled back.
    RolledBack {
        /// The regressing version that was rolled back.
        from_version: u64,
        /// The version now serving (0 = fallback model).
        to_version: u64,
        /// The regressing version's live median error (pct).
        live_error_pct: f64,
        /// The previous version's measured live error it regressed from.
        baseline_error_pct: f64,
    },
}

/// One shard's failure in a fleet round: the round errored or panicked and
/// the failure was isolated.  The shard publishes nothing this round; it
/// serves the version it held when the round failed, which is the version
/// the watchdog rolled back to if the watchdog ran first.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// The shard that failed.
    pub cluster: ClusterId,
    /// What happened (panics surface as [`CleoError::Unavailable`]).
    pub error: CleoError,
}

/// Configuration of the sharded feedback loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardedFeedbackConfig {
    /// Per-shard feedback configuration (eviction, trainer, guard, optimizer,
    /// serving threads, warm start).  The trainer seed is re-derived per shard
    /// *and* per epoch, so clusters never train on identical shuffles.
    pub shard: FeedbackConfig,
    /// Drift-aware per-cluster window eviction (default off).
    pub drift: DriftPolicy,
    /// Post-publish live-error rollback watchdog (default off).
    pub watchdog: WatchdogPolicy,
    /// OS threads running the per-cluster retrain epochs (0 = all cores).
    /// Retraining is deterministic regardless: each shard's round is a pure
    /// function of its window, the epoch, and its own incumbent.
    pub shard_threads: usize,
}

/// One round's served stream, partitioned by shard (the output of
/// [`ShardedFeedbackLoop::serve_and_partition`]).
struct ServedPartition {
    jobs_run: usize,
    total_latency: f64,
    unrouted_jobs: usize,
    /// Per-shard telemetry slices, aligned with the loop's shard list.
    ingest: Vec<Option<TelemetryLog>>,
}

/// What [`ShardedFeedbackLoop::observe`] did with an externally-ingested log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserveReport {
    /// Records accepted into some shard's window.
    pub accepted_jobs: usize,
    /// Records whose cluster has no registry shard (dropped).
    pub unrouted_jobs: usize,
    /// Records evicted by the standard window policy during this observe.
    pub evicted_jobs: usize,
    /// Shards whose ingest round failed (isolated; other shards ingested).
    pub failed_shards: usize,
}

/// Per-shard state of the sharded loop: the shard's own [`FeedbackLoop`]
/// (window, retrain, publish) plus the fleet-only baselines of drift
/// eviction and the watchdog.
struct ShardState {
    cluster: ClusterId,
    feedback: FeedbackLoop,
    /// Window moments at the shard's last publish (the training-time snapshot
    /// drift is measured against).
    baseline: Option<WindowMoments>,
    /// `(version, live_error_pct)` the watchdog last measured — the baseline a
    /// newly published version's live error is compared against.
    live_baseline: Option<(u64, f64)>,
}

/// What one epoch did on one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardEpochReport {
    /// The shard's cluster.
    pub cluster: ClusterId,
    /// Telemetry records ingested into this shard's window this epoch.
    pub ingested_jobs: usize,
    /// Window size after ingestion and eviction.
    pub window_jobs: usize,
    /// Jobs evicted by the standard window policy this epoch.
    pub evicted_jobs: usize,
    /// Drift score vs the shard's training-time snapshot (`None` when drift
    /// eviction is disabled or no snapshot exists yet).
    pub drift_score: Option<f64>,
    /// Jobs evicted because the drift score crossed the threshold.
    pub drift_evicted: usize,
    /// The shard's guarded retrain outcome.
    pub retrain: RetrainOutcome,
    /// Version the shard serves after this epoch's publish decision.
    pub served_version: u64,
    /// What the publish watchdog decided at the start of this round about the
    /// version published previously.
    pub watchdog: WatchdogVerdict,
    /// Wall-clock microseconds of this shard's retrain round.
    pub retrain_micros: u128,
}

/// Report of one fleet-wide epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedEpochReport {
    /// Epoch number (1-based, global across shards).
    pub epoch: u32,
    /// Jobs served through the router this epoch.
    pub jobs_run: usize,
    /// Jobs whose cluster has no shard (served by the fallback, not windowed).
    pub unrouted_jobs: usize,
    /// Cumulative end-to-end latency of the epoch's jobs (seconds).
    pub total_latency: f64,
    /// Per-shard outcomes, sorted by cluster id.
    pub shards: Vec<ShardEpochReport>,
    /// Shards whose round failed this epoch (isolated — the fleet round
    /// completed; see [`ShardFailure`] for what a failed shard serves).
    pub failed: Vec<ShardFailure>,
    /// Routing outcomes of *this epoch's* serving (like every other field
    /// here; the router's cumulative counters stay available via
    /// [`ClusterRouter::routing_stats`]).
    pub routing: RoutingSnapshot,
}

impl ShardedEpochReport {
    /// Shards that published a new version this epoch.
    pub fn published_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s.retrain.decision, PublishDecision::Published { .. }))
            .count()
    }
}

/// What one sub-epoch delta round did on one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardDeltaReport {
    /// The shard's cluster.
    pub cluster: ClusterId,
    /// Telemetry records ingested into this shard's window this round.
    pub ingested_jobs: usize,
    /// Window size after ingestion and eviction.
    pub window_jobs: usize,
    /// Jobs evicted by the standard window policy this round.
    pub evicted_jobs: usize,
    /// The shard's delta-round outcome.
    pub outcome: DeltaOutcome,
    /// Version the shard serves after this round's publish decision.
    pub served_version: u64,
    /// What the publish watchdog decided at the start of this round about the
    /// version published previously.
    pub watchdog: WatchdogVerdict,
    /// Wall-clock microseconds of this shard's dirty retrain + publish.
    pub round_micros: u128,
}

/// Report of one fleet-wide sub-epoch delta round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedDeltaReport {
    /// Jobs served through the router this round.
    pub jobs_run: usize,
    /// Jobs whose cluster has no shard (served by the fallback, not windowed).
    pub unrouted_jobs: usize,
    /// Cumulative end-to-end latency of the round's jobs (seconds).
    pub total_latency: f64,
    /// Per-shard outcomes, sorted by cluster id.
    pub shards: Vec<ShardDeltaReport>,
    /// Shards whose round failed (isolated — see [`ShardFailure`]).
    pub failed: Vec<ShardFailure>,
    /// Routing outcomes of this round's serving.
    pub routing: RoutingSnapshot,
}

impl ShardedDeltaReport {
    /// Shards that delta-published a new version this round.
    pub fn published_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| {
                matches!(
                    s.outcome.decision,
                    crate::feedback::DeltaDecision::Published { .. }
                )
            })
            .count()
    }
}

/// The fleet-scale feedback loop: serve a multi-cluster stream through the
/// [`ClusterRouter`], partition telemetry by cluster, and run one
/// [`FeedbackLoop`] per shard in parallel — each retrains under its own
/// holdout guard and publishes shard-atomically into its cluster's registry.
pub struct ShardedFeedbackLoop {
    config: ShardedFeedbackConfig,
    router: Arc<ClusterRouter>,
    simulator: Simulator,
    shards: Vec<ShardState>,
    epoch: u32,
    /// Fault-injection schedule for shard rounds (`None` in production).
    faults: Option<Arc<FaultPlan>>,
}

impl ShardedFeedbackLoop {
    /// Create a loop over a router's shards.
    pub fn new(
        config: ShardedFeedbackConfig,
        simulator: Simulator,
        router: Arc<ClusterRouter>,
    ) -> Self {
        let shards = router
            .registry()
            .shards()
            .iter()
            .map(|s| {
                // Derive the trainer seed per shard so no two clusters shuffle
                // their windows identically (the loop derives per epoch on top).
                let mut shard_config = config.shard;
                shard_config.trainer.seed ^=
                    (s.cluster().0 as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                ShardState {
                    cluster: s.cluster(),
                    feedback: FeedbackLoop::with_registry(
                        shard_config,
                        simulator.clone(),
                        Arc::clone(s.registry()),
                        Arc::clone(router.fallback_model()),
                    ),
                    baseline: None,
                    live_baseline: None,
                }
            })
            .collect();
        ShardedFeedbackLoop {
            config,
            router,
            simulator,
            shards,
            epoch: 0,
            faults: None,
        }
    }

    /// Install (or clear) a fault-injection schedule for subsequent epoch and
    /// delta rounds.  `None` is the production path.
    pub fn set_fault_plan(&mut self, faults: Option<Arc<FaultPlan>>) {
        self.faults = faults;
    }

    /// The router the loop serves through (shared with external serving paths,
    /// so per-shard publishes are immediately visible to them).
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// The sharded registry the loop publishes into.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        self.router.registry()
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// One shard's current sliding window.
    pub fn window(&self, cluster: ClusterId) -> Option<&TelemetryLog> {
        self.shards
            .iter()
            .find(|s| s.cluster == cluster)
            .map(|s| s.feedback.window())
    }

    /// Feed externally-ingested telemetry (a parsed firehose dump — see
    /// `cleo_engine::telemetry_io` and `crate::ingest`) into the per-cluster
    /// shard windows, applying each shard's standard eviction policy.
    ///
    /// This is the offline complement of [`ShardedFeedbackLoop::run_epoch`]'s
    /// serve-then-ingest path: records are partitioned by cluster (moved, not
    /// cloned) and each shard's [`FeedbackLoop::observe`] ingests its slice —
    /// in parallel across shards through the same [`par_map`] fan-out the
    /// retrain rounds use.  Records whose cluster has no shard are dropped and
    /// counted (the fallback model serves those clusters; nothing learns from
    /// them).  No training or publishing happens here; the next epoch or
    /// delta round trains on the fattened windows.
    pub fn observe(&mut self, log: TelemetryLog) -> Result<ObserveReport> {
        let total_jobs = log.len();
        let (ingest, unrouted_jobs) = self.partition(log);
        let (evictions, failed) = self.run_shard_rounds(ingest, |state, log| {
            Ok(state.feedback.observe(log.unwrap_or_default()))
        });
        Ok(ObserveReport {
            accepted_jobs: total_jobs - unrouted_jobs,
            unrouted_jobs,
            evicted_jobs: evictions.iter().sum(),
            failed_shards: failed.len(),
        })
    }

    /// Run one fleet-wide epoch over a multi-cluster job stream: serve through
    /// the router, partition telemetry by cluster, run every shard's guarded
    /// retrain in parallel, publish shard-atomically.
    pub fn run_epoch(&mut self, jobs: &[&JobSpec]) -> Result<ShardedEpochReport> {
        self.epoch += 1;
        let epoch = self.epoch;
        let routing_before = self.router.routing_stats();
        let served = self.serve_and_partition(jobs, epoch)?;

        // Per-cluster epochs, in parallel across shards.  Each shard's round is
        // a pure function of (window, epoch, its own incumbent), so the thread
        // assignment cannot change any outcome — only the wall clock.  Rounds
        // are failure-isolated: a panicking or erroring shard lands in
        // `failed` while every other shard's round completes.
        let config = self.config;
        let faults = self.faults.clone();
        let (shards, failed) = self.run_shard_rounds(served.ingest, |state, log| {
            run_shard_epoch(state, log, &config, epoch, faults.as_deref())
        });

        Ok(ShardedEpochReport {
            epoch,
            jobs_run: served.jobs_run,
            unrouted_jobs: served.unrouted_jobs,
            total_latency: served.total_latency,
            shards,
            failed,
            routing: self.router.routing_stats().since(&routing_before),
        })
    }

    /// Run one fleet-wide **sub-epoch delta round**: serve through the router,
    /// partition telemetry by cluster, and refit only each shard's dirty
    /// signatures in parallel, publishing per-shard copy-on-write deltas (see
    /// [`FeedbackLoop::run_delta_round`]).  Shards whose registry is still
    /// cold skip (deltas apply over an incumbent); the epoch counter does not
    /// advance, and the next full epoch's training is bit-independent of any
    /// deltas published here.
    pub fn run_delta_round(&mut self, jobs: &[&JobSpec]) -> Result<ShardedDeltaReport> {
        let epoch = self.epoch;
        let routing_before = self.router.routing_stats();
        let served = self.serve_and_partition(jobs, epoch)?;

        let config = self.config;
        let faults = self.faults.clone();
        let (shards, failed) = self.run_shard_rounds(served.ingest, |state, log| {
            run_shard_delta(state, log, &config, epoch, faults.as_deref())
        });

        Ok(ShardedDeltaReport {
            jobs_run: served.jobs_run,
            unrouted_jobs: served.unrouted_jobs,
            total_latency: served.total_latency,
            shards,
            failed,
            routing: self.router.routing_stats().since(&routing_before),
        })
    }

    /// Split a log by cluster into per-shard slices aligned with the shard
    /// list, and count the records whose cluster has no shard (dropped).
    /// Consuming, so records move into the shard windows without cloning any
    /// plan.
    fn partition(&self, log: TelemetryLog) -> (Vec<Option<TelemetryLog>>, usize) {
        let mut ingest: Vec<Option<TelemetryLog>> = (0..self.shards.len()).map(|_| None).collect();
        let mut unrouted_jobs = 0usize;
        for (cluster, part) in log.into_cluster_partitions() {
            match self.router.registry().shard_index(cluster) {
                Some(i) => ingest[i] = Some(part),
                None => unrouted_jobs += part.len(),
            }
        }
        (ingest, unrouted_jobs)
    }

    /// Serve a job stream through the router and partition the telemetry by
    /// shard: the common prologue of full epochs and delta rounds.  All
    /// publishes of a round happen strictly after serving completes, so every
    /// job routes against the same shard states — which is what makes serving
    /// bit-deterministic across serving thread counts.  Jobs from unmapped
    /// clusters were served by the fallback but have no shard window to learn
    /// in.
    fn serve_and_partition(&self, jobs: &[&JobSpec], epoch: u32) -> Result<ServedPartition> {
        let served = crate::pipeline::run_jobs_shared(
            jobs,
            Arc::clone(&self.router) as Arc<dyn CostModelProvider>,
            self.config.shard.optimizer,
            &self.simulator,
            epoch,
            self.config.shard.serving_threads,
        )?;
        let jobs_run = served.len();
        let total_latency = served.total_latency();
        let (ingest, unrouted_jobs) = self.partition(served);
        Ok(ServedPartition {
            jobs_run,
            total_latency,
            unrouted_jobs,
            ingest,
        })
    }

    /// Run one round function over every shard (with its ingest slice), spread
    /// across [`ShardedFeedbackConfig::shard_threads`] OS threads by
    /// [`par_map`].  Each shard's round is a pure function of its own state,
    /// so the thread assignment cannot change any outcome — only the wall
    /// clock.
    ///
    /// Rounds are **failure-isolated**: each shard's round runs under
    /// `catch_unwind`, so an erroring or panicking shard becomes a
    /// [`ShardFailure`] while every other shard's report is returned normally
    /// — one bad shard can no longer abort a fleet round.  A failed round
    /// publishes nothing after the failure, but what it did before stays done
    /// and unreported: epoch and delta rounds run the publish watchdog first,
    /// so a failed shard may have rolled back its served version (that
    /// [`WatchdogVerdict`] is lost with the report), and its window may have
    /// ingested this round's telemetry.  The shard keeps serving whatever
    /// version it held when the round failed.
    fn run_shard_rounds<R: Send>(
        &mut self,
        ingest: Vec<Option<TelemetryLog>>,
        round: impl Fn(&mut ShardState, Option<TelemetryLog>) -> Result<R> + Sync,
    ) -> (Vec<R>, Vec<ShardFailure>) {
        let work: Vec<(&mut ShardState, Option<TelemetryLog>)> =
            self.shards.iter_mut().zip(ingest).collect();
        let outcomes = par_map(
            work,
            self.config.shard_threads,
            || (),
            |_, (state, log)| run_round_isolated(&round, state, log),
        );
        let mut reports = Vec::with_capacity(outcomes.len());
        let mut failed = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(report) => reports.push(report),
                Err(failure) => failed.push(failure),
            }
        }
        (reports, failed)
    }
}

/// Run one shard's round under `catch_unwind`, converting an error or panic
/// into a [`ShardFailure`] (the isolation primitive of the fleet rounds).
fn run_round_isolated<R>(
    round: &(impl Fn(&mut ShardState, Option<TelemetryLog>) -> Result<R> + Sync),
    state: &mut ShardState,
    log: Option<TelemetryLog>,
) -> std::result::Result<R, ShardFailure> {
    let cluster = state.cluster;
    match catch_unwind(AssertUnwindSafe(|| round(state, log))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(error)) => Err(ShardFailure { cluster, error }),
        Err(payload) => Err(ShardFailure {
            cluster,
            error: CleoError::Unavailable(format!(
                "shard round panicked: {}",
                panic_message(payload.as_ref())
            )),
        }),
    }
}

/// What the common start of a shard round did.
struct RoundStart {
    watchdog: WatchdogVerdict,
    ingested_jobs: usize,
    evicted_jobs: usize,
}

/// The start of every shard round, epoch or delta: align the shard's loop
/// with the fleet epoch, run the publish watchdog over the fresh telemetry,
/// fire any fault injected at `site` for this round, then ingest through the
/// shard's [`FeedbackLoop::observe`] (standard eviction).
fn begin_shard_round(
    state: &mut ShardState,
    ingest: Option<TelemetryLog>,
    config: &ShardedFeedbackConfig,
    epoch: u32,
    faults: Option<&FaultPlan>,
    site: FaultSite,
) -> Result<RoundStart> {
    // A shard's retrains and deltas are seeded and stamped with the fleet
    // epoch.
    state.feedback.epoch = epoch;
    let watchdog = run_publish_watchdog(state, ingest.as_ref(), &config.watchdog, faults);
    if let Some(faults) = faults {
        let cluster = state.cluster.0;
        if faults.fires(site, ((epoch as u64) << 8) | cluster as u64) {
            if site == FaultSite::ShardRoundPanic {
                panic!("injected fault: shard round panic (epoch {epoch}, cluster {cluster})");
            }
            return Err(CleoError::Config(format!(
                "injected fault: corrupted delta (epoch {epoch}, cluster {cluster})"
            )));
        }
    }
    let ingested_jobs = ingest.as_ref().map_or(0, TelemetryLog::len);
    let evicted_jobs = state.feedback.observe(ingest.unwrap_or_default());
    Ok(RoundStart {
        watchdog,
        ingested_jobs,
        evicted_jobs,
    })
}

/// One shard's slice of a sub-epoch delta round: the round start (standard
/// eviction only — drift baselines belong to full publishes), then the
/// shard loop's dirty-only guarded retrain and copy-on-write delta publish.
fn run_shard_delta(
    state: &mut ShardState,
    ingest: Option<TelemetryLog>,
    config: &ShardedFeedbackConfig,
    epoch: u32,
    faults: Option<&FaultPlan>,
) -> Result<ShardDeltaReport> {
    let start = begin_shard_round(
        state,
        ingest,
        config,
        epoch,
        faults,
        FaultSite::CorruptDelta,
    )?;
    let started = Instant::now();
    let outcome = state.feedback.publish_dirty()?;
    let round_micros = started.elapsed().as_micros();

    Ok(ShardDeltaReport {
        cluster: state.cluster,
        ingested_jobs: start.ingested_jobs,
        window_jobs: state.feedback.window().len(),
        evicted_jobs: start.evicted_jobs,
        outcome,
        served_version: state.feedback.registry().current_version(),
        watchdog: start.watchdog,
        round_micros,
    })
}

/// One shard's slice of an epoch: the round start, drift-aware eviction, then
/// the shard loop's guarded retrain and shard-atomic publish.
fn run_shard_epoch(
    state: &mut ShardState,
    ingest: Option<TelemetryLog>,
    config: &ShardedFeedbackConfig,
    epoch: u32,
    faults: Option<&FaultPlan>,
) -> Result<ShardEpochReport> {
    let start = begin_shard_round(
        state,
        ingest,
        config,
        epoch,
        faults,
        FaultSite::ShardRoundPanic,
    )?;

    let mut drift_score = None;
    let mut drift_evicted = 0;
    if config.drift.enabled {
        if let Some(baseline) = &state.baseline {
            let window = &mut state.feedback.window;
            let score = window.feature_moments().drift_from(baseline);
            drift_score = Some(score);
            if score > config.drift.threshold {
                // The pre-shift tail no longer describes what the shard serves:
                // keep the newest half (but never starve the trainer) and take
                // a fresh snapshot at the next publish.
                let keep = (window.len() / 2).max(config.shard.min_training_jobs);
                drift_evicted = window.drain_window(keep).len();
                state.baseline = None;
            }
        }
    }

    let started = Instant::now();
    let retrain = state.feedback.retrain()?;
    let retrain_micros = started.elapsed().as_micros();
    if matches!(retrain.decision, PublishDecision::Published { .. }) {
        state.baseline = Some(state.feedback.window().feature_moments());
    }

    Ok(ShardEpochReport {
        cluster: state.cluster,
        ingested_jobs: start.ingested_jobs,
        window_jobs: state.feedback.window().len(),
        evicted_jobs: start.evicted_jobs,
        drift_score,
        drift_evicted,
        retrain,
        served_version: state.feedback.registry().current_version(),
        watchdog: start.watchdog,
        retrain_micros,
    })
}

/// The publish watchdog: measure the *served* version's live error on the
/// round's freshly-arrived telemetry that carries its provenance, and roll it
/// back if it regressed past the guard relative to the previous version's
/// measured live error.  Runs at the start of each shard round, before the
/// fresh records merge into the training window.
fn run_publish_watchdog(
    state: &mut ShardState,
    ingest: Option<&TelemetryLog>,
    policy: &WatchdogPolicy,
    faults: Option<&FaultPlan>,
) -> WatchdogVerdict {
    if !policy.enabled {
        return WatchdogVerdict::NotChecked;
    }
    let Some(log) = ingest else {
        return WatchdogVerdict::NotChecked;
    };
    let served_version = state.feedback.registry().current_version();
    if served_version == 0 {
        return WatchdogVerdict::NotChecked;
    }
    let Some(snapshot) = state.feedback.registry().current() else {
        return WatchdogVerdict::NotChecked;
    };
    // Only records this version served for this cluster measure its live
    // error; donor-served and stale-version records say nothing about it.
    let fresh: Vec<&JobTelemetry> = log
        .jobs()
        .iter()
        .filter(|job| {
            job.provenance.model_cluster == Some(state.cluster)
                && job.provenance.model_version == served_version
        })
        .collect();
    if fresh.len() < policy.min_samples {
        return WatchdogVerdict::NotChecked;
    }
    let evaluation = crate::pipeline::evaluate_cost_model_jobs(
        snapshot.cost_model().as_ref(),
        fresh.iter().copied(),
    );
    let mut live_error_pct = evaluation.median_error_pct;
    if let Some(faults) = faults {
        live_error_pct *= faults.error_multiplier((served_version << 8) | state.cluster.0 as u64);
    }
    // Watchdog events carry a logical identity derived from the version under
    // measurement and the shard — both fixed by the round's inputs, so the
    // event multiset is thread-count-invariant.
    let obs_seq = (served_version << 8) | u64::from(state.cluster.0);
    match state.live_baseline {
        Some((baseline_version, baseline_error_pct))
            if baseline_version != served_version
                && live_error_pct > baseline_error_pct + policy.max_error_regression_pct =>
        {
            if let Some((obs, cluster)) = state.feedback.registry().obs_binding() {
                obs.emit(TraceEvent::Watchdog {
                    seq: obs_seq,
                    cluster,
                    verdict: obs::WatchdogKind::RolledBack,
                    version: served_version,
                });
            }
            let now_serving = state.feedback.registry().rollback();
            WatchdogVerdict::RolledBack {
                from_version: served_version,
                to_version: now_serving.map(|s| s.version()).unwrap_or(0),
                live_error_pct,
                baseline_error_pct,
            }
        }
        _ => {
            state.live_baseline = Some((served_version, live_error_pct));
            if let Some((obs, cluster)) = state.feedback.registry().obs_binding() {
                obs.emit(TraceEvent::Watchdog {
                    seq: obs_seq,
                    cluster,
                    verdict: obs::WatchdogKind::Healthy,
                    version: served_version,
                });
            }
            WatchdogVerdict::Healthy {
                version: served_version,
                live_error_pct,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::exec::SimulatorConfig;
    use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
    use cleo_engine::ClusterId;

    fn loop_with_small_window() -> (FeedbackLoop, Vec<JobSpec>) {
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
        let config = FeedbackConfig {
            eviction: WindowEviction::JobCount(64),
            serving_threads: 2,
            ..FeedbackConfig::default()
        };
        let fl = FeedbackLoop::new(config, Simulator::new(SimulatorConfig::default()));
        (fl, workload.jobs)
    }

    #[test]
    fn epochs_publish_and_stamp_provenance() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(40).collect();

        let first = fl.run_epoch(&refs).unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.served_version, 0, "epoch 1 serves the fallback");
        assert_eq!(first.jobs_run, 40);
        assert!(matches!(
            first.retrain.decision,
            PublishDecision::Published { version: 1 }
        ));

        let second = fl.run_epoch(&refs).unwrap();
        assert_eq!(second.served_version, 1, "epoch 2 serves the learned model");
        // Window respects the job-count bound and carries provenance stamps.
        assert!(second.window_jobs <= 64);
        assert!(fl
            .window()
            .jobs()
            .iter()
            .any(|j| j.provenance.model_version == 1 && j.provenance.epoch == 2));
        assert!(fl.epoch() == 2);
        assert!(fl.registry().version_count() >= 1);
    }

    #[test]
    fn second_epoch_warm_starts_from_the_incumbent() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(40).collect();

        let first = fl.run_epoch(&refs).unwrap();
        assert_eq!(
            first.retrain.warm.reused + first.retrain.warm.warm_fits,
            0,
            "no incumbent exists at epoch 1"
        );
        assert!(first.retrain.warm.cold_fits > 0);

        let second = fl.run_epoch(&refs).unwrap();
        assert!(
            second.retrain.warm.reused + second.retrain.warm.warm_fits > 0,
            "epoch 2 should reuse or warm-start from v1: {:?}",
            second.retrain.warm
        );

        // With warm start disabled every fit is cold, every epoch.
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(1)), 2);
        let config = FeedbackConfig {
            eviction: WindowEviction::JobCount(64),
            warm_start: false,
            ..FeedbackConfig::default()
        };
        let mut cold_loop = FeedbackLoop::new(config, Simulator::new(SimulatorConfig::default()));
        let cold_refs: Vec<&JobSpec> = workload.jobs.iter().take(40).collect();
        cold_loop.run_epoch(&cold_refs).unwrap();
        let report = cold_loop.run_epoch(&cold_refs).unwrap();
        assert_eq!(report.retrain.warm.reused, 0);
        assert_eq!(report.retrain.warm.warm_fits, 0);
        assert!(report.retrain.warm.cold_fits > 0);
    }

    #[test]
    fn too_small_window_skips_training() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(3).collect();
        let report = fl.run_epoch(&refs).unwrap();
        assert_eq!(report.retrain.decision, PublishDecision::SkippedTooFewJobs);
        assert_eq!(fl.registry().current_version(), 0);
    }

    #[test]
    fn observe_applies_eviction_policy() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(10).collect();
        fl.run_epoch(&refs).unwrap();
        let window_before = fl.window().len();
        // Re-observing the same telemetry pushes the window over its bound only
        // once it exceeds 64 jobs.
        let copy = fl.window().clone();
        let evicted = fl.observe(copy);
        assert_eq!(evicted, (window_before * 2).saturating_sub(64));
    }
}
