//! The learned cost models: per-family model stores, the combined meta-model, and the
//! Cleo predictor that ties them together.
//!
//! Section 3 learns a large collection of specialised elastic-net models — one per
//! operator-subgraph template — and Section 4 adds progressively more general families
//! (operator-subgraphApprox, operator-input, operator) plus a FastTree meta-model that
//! combines their predictions into a single robust estimate with full workload
//! coverage.

use std::collections::HashMap;
use std::sync::Arc;

use cleo_mlkit::elastic_net::ElasticNet;
use cleo_mlkit::gbt::FastTreeRegressor;
use cleo_mlkit::model::Regressor;
use cleo_mlkit::{Dataset, FeatureMatrix};

use cleo_common::scratch::recycle;
use cleo_common::{CleoError, Result};
use cleo_engine::physical::{JobMeta, PhysicalNode};
use cleo_optimizer::SweepSpec;

use crate::features::{extract_features, feature_count, feature_name_strings};
use crate::signature::{signature_set, ModelFamily, SignatureSet};

/// One training sample: an operator instance with its features and measured latency.
#[derive(Debug, Clone)]
pub struct OperatorSample {
    /// Signatures of the operator instance.
    pub signatures: SignatureSet,
    /// Physical operator name (for reporting).
    pub operator: String,
    /// Feature vector (see [`crate::features`]).
    pub features: Vec<f64>,
    /// Measured exclusive latency (seconds) — the learning target.
    pub exclusive_seconds: f64,
    /// Day the sample was observed (for retention experiments).
    pub day: u32,
    /// Whether the sample came from a recurring job.
    pub recurring: bool,
}

impl OperatorSample {
    /// Build a sample from a plan node, its measured latency, and the job metadata.
    pub fn from_node(node: &PhysicalNode, exclusive_seconds: f64, meta: &JobMeta) -> Self {
        OperatorSample {
            signatures: signature_set(node, meta),
            operator: node.kind.name().to_string(),
            features: extract_features(node, node.partition_count, meta),
            exclusive_seconds,
            day: meta.day.0,
            recurring: meta.recurring,
        }
    }
}

/// One sample of a signature group, carrying its content hash so the sort key,
/// fingerprint, dirty-share diff, and stored hash list all reuse one
/// [`sample_hash`] computation.
type HashedSample<'a> = (u64, &'a OperatorSample);

/// One per-signature training task: the unit of work the parallel trainer
/// distributes across threads.
struct SignatureTask<'a> {
    family_index: usize,
    signature: u64,
    /// Canonically ordered (hash-sorted) group samples with their hashes.
    group: Vec<HashedSample<'a>>,
    /// Order-independent fingerprint of `group`'s sample multiset.
    fingerprint: u64,
    /// The *serving chain* model for this signature (the currently served
    /// version, which may be delta-published): drives the reuse decision.
    chain: Option<&'a Arc<StoredModel>>,
    /// The *seed basis* model for this signature (the last full-epoch
    /// version): drives warm-start seeding.  Keeping the seed a pure function
    /// of (signature, last full version) — never of the delta chain — is what
    /// makes delta-then-epoch training bit-identical to epoch-only training.
    basis: Option<&'a Arc<StoredModel>>,
}

/// Training samples with their [`sample_hash`]es, computed once per training
/// call and carried with the samples into every family's grouping (and, in
/// the trainer, into both splits of the shuffled window).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashedSamples<'a> {
    samples: &'a [OperatorSample],
    hashes: &'a [u64],
}

impl<'a> HashedSamples<'a> {
    /// Pair `samples` with `hashes`, which must be [`sample_hashes`] of them.
    pub(crate) fn new(samples: &'a [OperatorSample], hashes: &'a [u64]) -> Self {
        assert_eq!(samples.len(), hashes.len(), "one hash per sample");
        HashedSamples { samples, hashes }
    }

    pub(crate) fn samples(&self) -> &'a [OperatorSample] {
        self.samples
    }

    pub(crate) fn split_at(&self, mid: usize) -> (Self, Self) {
        let (a, b) = self.samples.split_at(mid);
        let (ha, hb) = self.hashes.split_at(mid);
        (Self::new(a, ha), Self::new(b, hb))
    }
}

/// [`sample_hash`] of every sample, in order.
pub(crate) fn sample_hashes(samples: &[OperatorSample]) -> Vec<u64> {
    samples.iter().map(sample_hash).collect()
}

/// Group `samples` by their `family` signature, keeping only signatures with at
/// least `min_samples` occurrences.  The result is sorted by signature so task
/// lists (and therefore thread assignment) are deterministic, and each group's
/// samples are sorted into a **canonical order** (by per-sample content hash):
/// a fit's result then depends only on the group's sample *multiset*, never on
/// window or shuffle order — the property that lets a sub-epoch delta fit and a
/// later full-epoch fit of the same group produce bit-identical models.
fn group_by_signature(
    family: ModelFamily,
    samples: HashedSamples<'_>,
    min_samples: usize,
) -> Vec<(u64, Vec<HashedSample<'_>>)> {
    let mut grouped: HashMap<u64, Vec<HashedSample<'_>>> = HashMap::new();
    for (s, &h) in samples.samples.iter().zip(samples.hashes) {
        grouped
            .entry(s.signatures.for_family(family))
            .or_default()
            .push((h, s));
    }
    let mut out: Vec<(u64, Vec<HashedSample<'_>>)> = grouped
        .into_iter()
        .filter(|(_, g)| g.len() >= min_samples.max(1))
        .map(|(sig, mut g)| {
            // Stable sort: equal hashes (identical samples, interchangeable for
            // fitting) keep their relative window order.
            g.sort_by_key(|(h, _)| *h);
            (sig, g)
        })
        .collect();
    out.sort_unstable_by_key(|(sig, _)| *sig);
    out
}

/// How one per-signature fit was produced during a seeded (warm-start) training
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FitKind {
    /// The signature's window sample set was unchanged since the incumbent
    /// version: the incumbent model was reused without refitting.
    Reused,
    /// The sample set changed: refit, seeded from the incumbent's weights.
    Warm,
    /// No incumbent model covered the signature: fresh fit from zero weights.
    Cold,
    /// Dirty-only rounds: the sample set moved, but the new evidence is below
    /// the hot-signature threshold — the refit is deferred to the next full
    /// epoch and the incumbent keeps serving.
    Deferred,
}

/// Counters of a seeded training round (see [`ModelStore::train_all_seeded`]):
/// how many per-signature fits were skipped, warm-started, or cold-started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// Signatures whose sample set was unchanged: incumbent model reused, no fit.
    pub reused: usize,
    /// Signatures refit with the incumbent's weights as the descent seed.
    pub warm_fits: usize,
    /// Signatures fit from scratch (no incumbent coverage).
    pub cold_fits: usize,
    /// Dirty signatures a delta round deferred to the next full epoch because
    /// their new-evidence share was below the hot-signature threshold (always
    /// zero in full training rounds).
    pub deferred: usize,
}

impl WarmStartStats {
    /// Total signatures considered.
    pub fn total(&self) -> usize {
        self.reused + self.warm_fits + self.cold_fits + self.deferred
    }

    fn record(&mut self, kind: FitKind) {
        match kind {
            FitKind::Reused => self.reused += 1,
            FitKind::Warm => self.warm_fits += 1,
            FitKind::Cold => self.cold_fits += 1,
            FitKind::Deferred => self.deferred += 1,
        }
    }
}

/// Stable content hash of one training sample (features, target, day,
/// recurrence) — the sort key of the canonical group order and the unit the
/// group fingerprint is built from.
fn sample_hash(s: &OperatorSample) -> u64 {
    use cleo_common::hash::StableHasher;
    let mut h = StableHasher::new();
    h.write_u64(s.exclusive_seconds.to_bits());
    h.write_u64(s.day as u64);
    h.write_u64(s.recurring as u64);
    for &f in &s.features {
        h.write_u64(f.to_bits());
    }
    h.finish()
}

/// Order-independent fingerprint of one signature group's sample multiset.
///
/// Two windows that contain the same samples for a signature — regardless of
/// the epoch shuffle order — produce the same fingerprint, which is what lets a
/// feedback epoch skip refitting signatures whose window slice did not move
/// (and what a sub-epoch delta round uses as its dirty-set predicate).
/// Per-sample hashes are combined with a wrapping sum (order-independent), then
/// mixed with the group size.
fn group_fingerprint(group: &[HashedSample<'_>]) -> u64 {
    use cleo_common::hash::StableHasher;
    let mut acc = 0u64;
    for (h, _) in group {
        acc = acc.wrapping_add(*h);
    }
    let mut h = StableHasher::new();
    h.write_u64(acc);
    h.write_u64(group.len() as u64);
    h.finish()
}

/// Fraction of a dirty signature's window samples that are new (not in the
/// multiset its serving model was fitted on).  Both the group and the fitted
/// hash list are sorted, so this is one two-pointer multiset-difference walk.
fn new_evidence_share(group: &[HashedSample<'_>], fitted_hashes: &[u64]) -> f64 {
    if group.is_empty() {
        return 0.0;
    }
    let mut new = 0usize;
    let mut i = 0usize;
    for (h, _) in group {
        while i < fitted_hashes.len() && fitted_hashes[i] < *h {
            i += 1;
        }
        if i < fitted_hashes.len() && fitted_hashes[i] == *h {
            i += 1; // one fitted occurrence consumed per matching sample
        } else {
            new += 1;
        }
    }
    new as f64 / group.len() as f64
}

/// A trained per-signature model plus the latency ceiling derived from its
/// training targets.
#[derive(Debug, Clone)]
pub(crate) struct StoredModel {
    pub(crate) model: ElasticNet,
    /// Fingerprint of the sample multiset the model was fitted on (carried
    /// along when the model is reused unchanged across epochs).
    pub(crate) fingerprint: u64,
    /// Sorted per-sample hashes of the fitted multiset: what a delta round
    /// diffs the current window group against to measure how much of a dirty
    /// signature's evidence is actually new ([`new_evidence_share`]).
    pub(crate) sample_hashes: Vec<u64>,
    /// Lower clamp applied to predictions (see `ceiling`).
    pub(crate) floor: f64,
    /// Upper clamp applied to predictions.  A specialised model is trained on a
    /// homogeneous group of observations and is trusted to *interpolate*; a
    /// log-linear extrapolation far beyond the latency range the signature ever
    /// exhibited is noise, not signal, and a single runaway prediction would
    /// poison both the combined model's training set and raw-scale correlation
    /// metrics.  Predictions are clamped to the observed target range with a
    /// headroom factor; growth beyond that is the job of the general families
    /// and the combined meta-model.
    pub(crate) ceiling: f64,
}

/// Headroom factor around the observed latency range of a signature group.
const PREDICTION_RANGE_HEADROOM: f64 = 3.0;

/// Fit one specialised elastic net for a signature group.  Pure: the result
/// depends only on the group's sample order and the optional incumbent seed,
/// never on which thread runs it.  The samples' feature rows are borrowed
/// straight into the dataset's flat buffer (no per-row `Vec` clone of the
/// telemetry window) and the name table is `Arc`-shared across every fit.
fn fit_signature_model(
    names: &Arc<[String]>,
    group: &[HashedSample<'_>],
    fingerprint: u64,
    warm_seed: Option<&[f64]>,
) -> Result<StoredModel> {
    let targets: Vec<f64> = group.iter().map(|(_, s)| s.exclusive_seconds).collect();
    let max_target = targets.iter().cloned().fold(0.0f64, f64::max);
    let min_target = targets.iter().cloned().fold(f64::INFINITY, f64::min);
    let data = Dataset::from_row_refs(
        Arc::clone(names),
        group.iter().map(|(_, s)| s.features.as_slice()),
        targets,
    )?;
    // The paper's hyper-parameters, with the regularisation strength rescaled
    // to this reproduction's target scale (log-seconds rather than the cost
    // units SCOPE uses); the structure (L1+L2, MSLE objective, automatic
    // feature selection) is unchanged.
    let config = cleo_mlkit::elastic_net::ElasticNetConfig {
        alpha: 0.05,
        ..Default::default()
    };
    let mut model = ElasticNet::new(config);
    if let Some(seed) = warm_seed {
        model.set_warm_start(seed.to_vec());
    }
    model.fit(&data)?;
    // The group arrives in canonical (hash-sorted) order, so this list is
    // already sorted for the delta rounds' two-pointer diff.
    let sample_hashes: Vec<u64> = group.iter().map(|(h, _)| *h).collect();
    debug_assert!(sample_hashes.windows(2).all(|w| w[0] <= w[1]));
    Ok(StoredModel {
        model,
        fingerprint,
        sample_hashes,
        floor: min_target / PREDICTION_RANGE_HEADROOM,
        ceiling: max_target * PREDICTION_RANGE_HEADROOM,
    })
}

/// A store of specialised models for one family, keyed by signature.
///
/// Models are held behind [`Arc`]s, so cloning a store — the copy-on-write step
/// of delta publishing — shares every unchanged model bit-identically instead of
/// duplicating its weights.
#[derive(Debug, Clone, Default)]
pub struct ModelStore {
    family: Option<ModelFamily>,
    models: HashMap<u64, Arc<StoredModel>>,
}

impl ModelStore {
    /// Train a store for `family` from samples, creating one elastic-net model per
    /// signature with at least `min_samples` occurrences (the paper uses 5).
    /// Single-threaded; see [`ModelStore::train_all`] for the parallel path.
    pub fn train(
        family: ModelFamily,
        samples: &[OperatorSample],
        min_samples: usize,
    ) -> Result<Self> {
        Ok(Self::train_all(&[family], samples, min_samples, 1)?
            .pop()
            .expect("one family in, one store out"))
    }

    /// Train stores for several families at once, spreading the per-signature
    /// elastic-net fits across `threads` OS threads (`std::thread::scope`; no
    /// runtime dependencies).
    ///
    /// Deployment-scale motivation (§5.1): a production cluster trains ~25K
    /// specialised models per run, and each fit is independent — an
    /// embarrassingly parallel loop.  Tasks are assigned to workers round-robin
    /// from a signature-sorted list and every fit is a pure function of its
    /// sample group, so the trained predictor is **bit-identical** no matter how
    /// many threads run (a property the determinism tests pin down).
    ///
    /// The returned stores are aligned with `families`.
    pub fn train_all(
        families: &[ModelFamily],
        samples: &[OperatorSample],
        min_samples: usize,
        threads: usize,
    ) -> Result<Vec<ModelStore>> {
        let none = vec![None; families.len()];
        Ok(Self::train_all_seeded(families, samples, min_samples, threads, &none, &none)?.0)
    }

    /// [`ModelStore::train_all`] with per-family incumbent stores seeding this
    /// round.  Two incumbent roles are distinguished:
    ///
    /// * `incumbents` — the **serving chain** (the currently served version,
    ///   which may be delta-published): a signature whose window sample
    ///   multiset matches a chain or basis fit (same fingerprint) reuses that
    ///   model outright — no refit, the `Arc` is shared bit-identically;
    /// * `seed_basis` — the **last full-epoch** version: a signature whose
    ///   samples changed refits with the *basis* weights as the
    ///   coordinate-descent seed (cold when the basis does not cover it).
    ///
    /// Seeding from the basis rather than the chain makes every fit a pure
    /// function of `(group multiset, last full version)` — so training after N
    /// sub-epoch deltas is bit-identical to training with no deltas at all
    /// (the delta-equivalence property the determinism suite pins).  Callers
    /// without a delta chain pass the same store for both roles.
    ///
    /// Every decision is a pure function of (group, chain, basis) —
    /// bit-identical across thread counts, like the cold path.  Returns the
    /// stores plus the reuse/warm/cold counters.
    pub fn train_all_seeded(
        families: &[ModelFamily],
        samples: &[OperatorSample],
        min_samples: usize,
        threads: usize,
        incumbents: &[Option<&ModelStore>],
        seed_basis: &[Option<&ModelStore>],
    ) -> Result<(Vec<ModelStore>, WarmStartStats)> {
        let hashes = sample_hashes(samples);
        Self::run_signature_fits(
            families,
            HashedSamples::new(samples, &hashes),
            min_samples,
            threads,
            incumbents,
            seed_basis,
            None,
        )
    }

    /// Train **only the dirty signatures**: the sub-epoch delta-publishing
    /// path.  A signature is dirty when its window sample multiset matches
    /// neither the serving chain's fit nor the basis fit; each dirty signature
    /// is refit seeded from `seed_basis` exactly as a full epoch would
    /// ([`ModelStore::train_all_seeded`]'s rules), so a delta fit and the next
    /// full epoch's fit of the same group are bit-identical.
    ///
    /// `min_dirty_share` is the **hot-signature threshold**: a dirty signature
    /// is refit only when at least this fraction of its window samples is new
    /// relative to the multiset its serving model was fitted on (`0.0` refits
    /// every dirty signature).  A large stable group that gained a trickle of
    /// fresh samples is not meaningfully stale — deferring it to the next full
    /// epoch keeps delta latency proportional to what actually shifted, and
    /// cannot perturb the epoch (full epochs never depend on delta contents).
    ///
    /// Returns **partial** stores (aligned with `families`) holding the dirty
    /// fits only, plus counters where `reused` counts the unchanged
    /// signatures that were *skipped* rather than cloned and `deferred` the
    /// dirty ones below the threshold.
    pub fn train_dirty(
        families: &[ModelFamily],
        samples: &[OperatorSample],
        min_samples: usize,
        threads: usize,
        incumbents: &[Option<&ModelStore>],
        seed_basis: &[Option<&ModelStore>],
        min_dirty_share: f64,
    ) -> Result<(Vec<ModelStore>, WarmStartStats)> {
        let hashes = sample_hashes(samples);
        Self::run_signature_fits(
            families,
            HashedSamples::new(samples, &hashes),
            min_samples,
            threads,
            incumbents,
            seed_basis,
            Some(min_dirty_share),
        )
    }

    /// The shared per-signature fit driver behind [`ModelStore::train_all_seeded`]
    /// (`dirty_share = None`) and [`ModelStore::train_dirty`] (`dirty_share =
    /// Some(threshold)`: unchanged and deferred signatures are skipped from
    /// the output stores).  The trainer calls it directly with the hashes of
    /// its shuffled window, so neither split rehashes a sample.
    pub(crate) fn run_signature_fits(
        families: &[ModelFamily],
        samples: HashedSamples<'_>,
        min_samples: usize,
        threads: usize,
        incumbents: &[Option<&ModelStore>],
        seed_basis: &[Option<&ModelStore>],
        dirty_share: Option<f64>,
    ) -> Result<(Vec<ModelStore>, WarmStartStats)> {
        let dirty_only = dirty_share.is_some();
        let min_dirty_share = dirty_share.unwrap_or(0.0);
        debug_assert_eq!(families.len(), incumbents.len());
        debug_assert_eq!(families.len(), seed_basis.len());
        let names = feature_name_strings();
        let mut tasks: Vec<SignatureTask> = Vec::new();
        for (family_index, &family) in families.iter().enumerate() {
            let chain_store = incumbents.get(family_index).copied().flatten();
            let basis_store = seed_basis.get(family_index).copied().flatten();
            for (signature, group) in group_by_signature(family, samples, min_samples) {
                tasks.push(SignatureTask {
                    family_index,
                    signature,
                    fingerprint: group_fingerprint(&group),
                    chain: chain_store.and_then(|s| s.models.get(&signature)),
                    basis: basis_store.and_then(|s| s.models.get(&signature)),
                    group,
                });
            }
        }

        // (family index, signature, how the fit was produced, the fit itself).
        type FittedTask = (usize, u64, FitKind, Result<Arc<StoredModel>>);
        let run_task = |t: &SignatureTask| -> FittedTask {
            // Reuse order (basis first, then chain) matches the seeding rule:
            // a group unchanged since the last full epoch must resolve to the
            // basis fit whether or not a delta also touched it in between.
            let reusable = match (t.basis, t.chain) {
                (Some(b), _) if b.fingerprint == t.fingerprint => Some(b),
                (_, Some(c)) if c.fingerprint == t.fingerprint => Some(c),
                _ => None,
            };
            // Hot-signature gate (dirty-only rounds): a dirty signature whose
            // new-evidence share is below the threshold keeps its serving
            // model until the next full epoch.  Pure function of
            // (group, chain), like every other decision here.
            if reusable.is_none() && min_dirty_share > 0.0 {
                if let Some(chain) = t.chain {
                    if new_evidence_share(&t.group, &chain.sample_hashes) < min_dirty_share {
                        return (
                            t.family_index,
                            t.signature,
                            FitKind::Deferred,
                            Ok(Arc::clone(chain)),
                        );
                    }
                }
            }
            let (kind, fitted) = match (reusable, t.basis) {
                (Some(prev), _) => (FitKind::Reused, Ok(Arc::clone(prev))),
                (None, Some(basis)) => (
                    FitKind::Warm,
                    fit_signature_model(
                        &names,
                        &t.group,
                        t.fingerprint,
                        Some(basis.model.weights()),
                    )
                    .map(Arc::new),
                ),
                (None, None) => (
                    FitKind::Cold,
                    fit_signature_model(&names, &t.group, t.fingerprint, None).map(Arc::new),
                ),
            };
            (t.family_index, t.signature, kind, fitted)
        };

        let threads = threads.max(1).min(tasks.len().max(1));
        let fitted: Vec<FittedTask> = if threads <= 1 {
            tasks.iter().map(run_task).collect()
        } else {
            // Stripe tasks across workers; each worker returns (stripe-local
            // order preserved) and stripes are re-merged in task order, so the
            // error reported on failure is also deterministic.
            let mut results: Vec<Vec<FittedTask>> = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for worker in 0..threads {
                    let tasks = &tasks;
                    let run_task = &run_task;
                    handles.push(scope.spawn(move || {
                        tasks
                            .iter()
                            .skip(worker)
                            .step_by(threads)
                            .map(run_task)
                            .collect::<Vec<_>>()
                    }));
                }
                for handle in handles {
                    results.push(handle.join().expect("training worker panicked"));
                }
            });
            results.into_iter().flatten().collect()
        };

        let mut stores: Vec<ModelStore> = families
            .iter()
            .map(|&family| ModelStore {
                family: Some(family),
                models: HashMap::new(),
            })
            .collect();
        let mut stats = WarmStartStats::default();
        // Surface the first error in deterministic (signature-sorted) task order.
        let mut first_error: Option<(usize, cleo_common::CleoError)> = None;
        for (family_index, signature, kind, fitted_model) in fitted {
            match fitted_model {
                Ok(model) => {
                    stats.record(kind);
                    if !(dirty_only && matches!(kind, FitKind::Reused | FitKind::Deferred)) {
                        stores[family_index].models.insert(signature, model);
                    }
                }
                Err(e) => {
                    let rank = tasks
                        .iter()
                        .position(|t| t.family_index == family_index && t.signature == signature)
                        .unwrap_or(usize::MAX);
                    if first_error.as_ref().is_none_or(|(r, _)| rank < *r) {
                        first_error = Some((rank, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        Ok((stores, stats))
    }

    /// The family this store serves.
    pub fn family(&self) -> Option<ModelFamily> {
        self.family
    }

    /// Number of specialised models in the store.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when the store holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// True when a model exists for this signature.
    pub fn covers(&self, signature: u64) -> bool {
        self.models.contains_key(&signature)
    }

    /// Predict the exclusive latency for a feature vector, if a model covers the
    /// signature.
    pub fn predict(&self, signature: u64, features: &[f64]) -> Option<f64> {
        self.models
            .get(&signature)
            .map(|m| m.model.predict_row(features).clamp(m.floor, m.ceiling))
    }

    /// The raw feature weights of every model in the store (for Figures 5, 6, 16).
    pub fn weight_vectors(&self) -> Vec<Vec<f64>> {
        self.models
            .values()
            .filter_map(|m| m.model.feature_weights())
            .collect()
    }

    /// Feature weights of the model covering `signature`, if any.
    pub fn weights_for(&self, signature: u64) -> Option<Vec<f64>> {
        self.models
            .get(&signature)
            .and_then(|m| m.model.feature_weights())
    }

    /// Fingerprint of the sample multiset the model covering `signature` was
    /// fitted on, if covered.  This doubles as the model's *identity*: two
    /// stored models with the same fingerprint (under this crate's seeding
    /// rules) are bit-identical fits, which is what lets the prediction cache
    /// key on it across delta publishes.
    pub fn fingerprint_of(&self, signature: u64) -> Option<u64> {
        self.models.get(&signature).map(|m| m.fingerprint)
    }

    /// The signatures covered by this store, in ascending order.
    pub fn signatures(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.models.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Keep only the signatures `keep` approves (used by the delta guard to
    /// drop a regressing signature from a delta payload without vetoing the
    /// rest of the delta).
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.models.retain(|&sig, _| keep(sig));
    }

    /// True when the model covering `signature` is the same `Arc` in both
    /// stores (bit-identical sharing, not just equal values).
    pub fn shares_model(&self, other: &ModelStore, signature: u64) -> bool {
        match (self.models.get(&signature), other.models.get(&signature)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Copy-on-write merge: a clone of `self` where every signature covered by
    /// `delta` is overwritten with the delta's model (`Arc`s shared both ways —
    /// unchanged models stay the incumbent's allocations bit for bit).
    pub fn merged_with(&self, delta: &ModelStore) -> ModelStore {
        debug_assert_eq!(self.family, delta.family);
        let mut merged = self.clone();
        for (&sig, model) in &delta.models {
            merged.models.insert(sig, Arc::clone(model));
        }
        merged
    }

    /// The stored per-signature models, for the snapshot codec.
    pub(crate) fn stored_models(&self) -> &HashMap<u64, Arc<StoredModel>> {
        &self.models
    }

    /// Reassemble a store from persisted per-signature models (the inverse of
    /// [`ModelStore::stored_models`]).
    pub(crate) fn from_stored_models(
        family: Option<ModelFamily>,
        models: HashMap<u64, Arc<StoredModel>>,
    ) -> ModelStore {
        ModelStore { family, models }
    }
}

/// Per-family predictions for one operator instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionBreakdown {
    /// Operator-subgraph prediction, if covered.
    pub op_subgraph: Option<f64>,
    /// Operator-subgraphApprox prediction, if covered.
    pub op_subgraph_approx: Option<f64>,
    /// Operator-input prediction, if covered.
    pub op_input: Option<f64>,
    /// Operator prediction, if covered.
    pub operator: Option<f64>,
    /// The combined model's prediction (always available once trained).
    pub combined: f64,
}

impl PredictionBreakdown {
    /// Prediction of one family.
    pub fn family(&self, family: ModelFamily) -> Option<f64> {
        match family {
            ModelFamily::OpSubgraph => self.op_subgraph,
            ModelFamily::OpSubgraphApprox => self.op_subgraph_approx,
            ModelFamily::OpInput => self.op_input,
            ModelFamily::Operator => self.operator,
        }
    }

    fn family_mut(&mut self, family: ModelFamily) -> &mut Option<f64> {
        match family {
            ModelFamily::OpSubgraph => &mut self.op_subgraph,
            ModelFamily::OpSubgraphApprox => &mut self.op_subgraph_approx,
            ModelFamily::OpInput => &mut self.op_input,
            ModelFamily::Operator => &mut self.operator,
        }
    }

    /// The most specialised individual prediction available (the "strawman" fallback
    /// order discussed in Section 4.3).
    pub fn most_specialized(&self) -> Option<f64> {
        self.op_subgraph
            .or(self.op_subgraph_approx)
            .or(self.op_input)
            .or(self.operator)
    }
}

/// Names of the meta-features fed to the combined model.
fn meta_feature_names() -> Vec<String> {
    vec![
        "pred_subgraph".into(),
        "has_subgraph".into(),
        "pred_subgraph_approx".into(),
        "has_subgraph_approx".into(),
        "pred_input".into(),
        "has_input".into(),
        "pred_operator".into(),
        "I".into(),
        "B".into(),
        "C".into(),
        "I/P".into(),
        "B/P".into(),
        "C/P".into(),
        "P".into(),
    ]
}

/// Number of meta-features fed to the combined model.
const META_FEATURE_COUNT: usize = 14;

/// Build the combined model's meta-feature vector from individual predictions and the
/// extra cardinality/partition features of Section 4.3.
fn meta_features(breakdown: &PredictionBreakdown, features: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; META_FEATURE_COUNT];
    meta_features_into(breakdown, features, &mut out);
    out
}

/// Write the meta-feature vector into a caller-provided slice (a row of the
/// reused meta-feature scratch matrix) — same values as [`meta_features`].
fn meta_features_into(breakdown: &PredictionBreakdown, features: &[f64], dst: &mut [f64]) {
    // Feature indices from `crate::features::FEATURE_NAMES`: I=0, B=1, C=2, P=4.
    let i = features[0];
    let b = features[1];
    let c = features[2];
    let p = features[4].max(1.0);
    let values = [
        breakdown.op_subgraph.unwrap_or(0.0),
        breakdown.op_subgraph.is_some() as u8 as f64,
        breakdown.op_subgraph_approx.unwrap_or(0.0),
        breakdown.op_subgraph_approx.is_some() as u8 as f64,
        breakdown.op_input.unwrap_or(0.0),
        breakdown.op_input.is_some() as u8 as f64,
        breakdown.operator.unwrap_or(0.0),
        i,
        b,
        c,
        i / p,
        b / p,
        c / p,
        p,
    ];
    dst.copy_from_slice(&values);
}

/// The combined meta-model: FastTree regression over individual predictions,
/// boosted from the fallback-order prior.
///
/// The ensemble does not fit the latency directly; it fits the **log-space
/// residual** between the actual latency and the most specialised individual
/// prediction (the "strawman" fallback order of Section 4.3).  Prediction adds
/// the learned correction back onto the prior:
/// `combined = expm1(log1p(most_specialized) + fasttree(meta_features))`.
/// Where the individual models are accurate the trees learn a ~0 correction and
/// the combined model inherits their accuracy (including linear extrapolation
/// to job sizes beyond the training range, which a tree ensemble alone cannot
/// express); where they are absent or untrustworthy the trees learn the full
/// log-latency from the cardinality/partition meta-features, preserving full
/// workload coverage.
#[derive(Debug, Default)]
pub struct CombinedModel {
    model: Option<FastTreeRegressor>,
}

/// The prior the combined model boosts from, in log space.
fn combined_prior(breakdown: &PredictionBreakdown) -> f64 {
    cleo_mlkit::loss::log1p_clamped(breakdown.most_specialized().unwrap_or(0.0))
}

impl CombinedModel {
    /// Train the meta-model from per-sample breakdowns and targets.
    pub fn train(
        breakdowns: &[(PredictionBreakdown, Vec<f64>)],
        targets: &[f64],
        seed: u64,
    ) -> Result<Self> {
        if breakdowns.len() != targets.len() || breakdowns.is_empty() {
            return Err(CleoError::InvalidTrainingData(
                "combined model needs aligned, non-empty training data".into(),
            ));
        }
        let rows: Vec<Vec<f64>> = breakdowns
            .iter()
            .map(|(b, f)| meta_features(b, f))
            .collect();
        // Log-space residual targets over the fallback prior; the residual can be
        // negative, so the ensemble fits it directly (identity transform, squared
        // error) — together with the log-space prior this is still the paper's
        // MSLE objective on the final prediction.
        let residuals: Vec<f64> = breakdowns
            .iter()
            .zip(targets)
            .map(|((b, _), &t)| cleo_mlkit::loss::log1p_clamped(t) - combined_prior(b))
            .collect();
        let data = Dataset::from_rows(meta_feature_names(), rows, residuals)?;
        let mut model = FastTreeRegressor::new(cleo_mlkit::gbt::FastTreeConfig {
            seed,
            target_transform: cleo_mlkit::loss::TargetTransform::Identity,
            // Stronger regularisation than the per-family paper defaults: the
            // residuals are mostly near zero (the prior is already good) and the
            // holdout is small, so an aggressive ensemble would memorise
            // simulator noise and *add* variance on unseen days.
            max_depth: 3,
            learning_rate: 0.1,
            n_trees: 50,
            min_samples_leaf: 8,
            ..cleo_mlkit::gbt::FastTreeConfig::default()
        });
        model.fit(&data)?;
        Ok(CombinedModel { model: Some(model) })
    }

    /// True once trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// The trained meta-model, for the snapshot codec.
    pub(crate) fn tree(&self) -> Option<&FastTreeRegressor> {
        self.model.as_ref()
    }

    /// Reassemble a combined model from a persisted meta-model (the inverse
    /// of [`CombinedModel::tree`]).
    pub(crate) fn from_tree(model: Option<FastTreeRegressor>) -> CombinedModel {
        CombinedModel { model }
    }

    /// Predict from an individual-model breakdown and the operator's features.  Falls
    /// back to the most specialised individual prediction when untrained.
    pub fn predict(&self, breakdown: &PredictionBreakdown, features: &[f64]) -> f64 {
        match &self.model {
            Some(m) => {
                let correction = m.predict_row(&meta_features(breakdown, features));
                cleo_mlkit::loss::expm1_clamped(combined_prior(breakdown) + correction)
            }
            None => breakdown.most_specialized().unwrap_or(0.0),
        }
    }

    /// Batched counterpart of [`CombinedModel::predict`]: one call over aligned
    /// breakdowns and feature rows.
    pub fn predict_batch(
        &self,
        breakdowns: &[PredictionBreakdown],
        feature_rows: &FeatureMatrix,
    ) -> Vec<f64> {
        let mut meta_scratch = FeatureMatrix::new(META_FEATURE_COUNT);
        let mut out = Vec::with_capacity(breakdowns.len());
        self.predict_batch_into(breakdowns, feature_rows, &mut meta_scratch, &mut out);
        out
    }

    /// Allocation-free batched prediction: meta-features are written into the
    /// reused `meta_scratch` matrix and one combined prediction per breakdown is
    /// appended onto `out`.
    pub fn predict_batch_into(
        &self,
        breakdowns: &[PredictionBreakdown],
        feature_rows: &FeatureMatrix,
        meta_scratch: &mut FeatureMatrix,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(breakdowns.len(), feature_rows.n_rows());
        match &self.model {
            Some(m) => {
                meta_scratch.reset(META_FEATURE_COUNT);
                for (b, f) in breakdowns.iter().zip(feature_rows.rows()) {
                    meta_scratch.push_row_with(|dst| meta_features_into(b, f, dst));
                }
                let start = out.len();
                m.predict_batch_into(meta_scratch, out);
                for (correction, b) in out[start..].iter_mut().zip(breakdowns) {
                    *correction = cleo_mlkit::loss::expm1_clamped(combined_prior(b) + *correction);
                }
            }
            None => out.extend(
                breakdowns
                    .iter()
                    .map(|b| b.most_specialized().unwrap_or(0.0)),
            ),
        }
    }
}

/// The per-signature models serving one signature set, one slot per family in
/// [`ModelFamily::all`] order (`None` where the family does not cover it).
/// Resolved once per sweep: the cache salt and the prediction read the same
/// four store probes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedModels<'a>([Option<&'a StoredModel>; 4]);

impl ResolvedModels<'_> {
    /// Identity hash of the resolved models: their fingerprints (0 for an
    /// uncovered family) folded in family order — see
    /// [`CleoPredictor::signature_salt`].
    pub(crate) fn salt(&self) -> u64 {
        use cleo_common::hash::StableHasher;
        let mut h = StableHasher::new();
        for model in self.0 {
            h.write_u64(model.map_or(0, |m| m.fingerprint));
        }
        h.finish()
    }
}

/// One sweep of a multi-sweep prediction pass: the models serving it and how
/// many consecutive rows of the pass's feature matrix are its.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepRows<'a> {
    pub(crate) models: ResolvedModels<'a>,
    pub(crate) rows: usize,
}

/// Reused buffers for one batched prediction pass (per-family predictions,
/// meta-feature rows, breakdowns, and combined outputs).  Private to the
/// predictor; exposed through [`PredictScratch`].
#[derive(Debug, Default)]
struct SweepBuffers {
    /// The pass's sweeps, parked between passes (see
    /// [`cleo_common::scratch::recycle`]).
    sweeps: Vec<SweepRows<'static>>,
    family_preds: Vec<f64>,
    breakdowns: Vec<PredictionBreakdown>,
    meta_rows: FeatureMatrix,
    combined: Vec<f64>,
}

/// The reusable scratch space of the allocation-free inference path: one flat
/// feature matrix for the candidate sweep plus every intermediate buffer the
/// predictor needs.  Create one per thread (or borrow the cost model's
/// thread-local one) and reuse it across sweeps — after the first few sweeps the
/// buffers reach steady-state capacity and candidate costing stops touching the
/// allocator entirely.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// Candidate feature rows (`n_candidates × feature_count`), written in place
    /// by [`PredictScratch::fill_features`].
    pub features: FeatureMatrix,
    bufs: SweepBuffers,
}

impl PredictScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        PredictScratch {
            features: FeatureMatrix::new(feature_count()),
            bufs: SweepBuffers::default(),
        }
    }

    /// Reset the feature matrix and extract one feature row per candidate
    /// partition count straight into it (no per-candidate allocations; the
    /// input-name encoding is hashed once for the whole sweep).
    pub fn fill_features(&mut self, node: &PhysicalNode, partitions: &[usize], meta: &JobMeta) {
        self.reset_features();
        self.append_features(node, partitions, meta);
    }

    /// Clear the feature matrix without shrinking its backing storage, ready
    /// for [`PredictScratch::append_features`] calls to build a coalesced batch.
    pub fn reset_features(&mut self) {
        self.features.reset(feature_count());
    }

    /// Append one feature row per candidate partition count for one sweep,
    /// without resetting the matrix first.  Coalesced costing appends several
    /// sweeps — possibly from different jobs — into one matrix and runs the
    /// predictor once over all of them; rows are extracted exactly as
    /// [`PredictScratch::fill_features`] would, so each sweep's slice of the
    /// batched output is bit-identical to costing it alone.
    pub fn append_features(&mut self, node: &PhysicalNode, partitions: &[usize], meta: &JobMeta) {
        let encoding = crate::features::input_encoding(meta);
        self.append_features_with_encoding(node, partitions, meta, encoding);
    }

    /// [`PredictScratch::append_features`] for a caller that already holds the
    /// job's [`crate::features::input_encoding`].
    pub(crate) fn append_features_with_encoding(
        &mut self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
        encoding: f64,
    ) {
        // Hoist the sweep-invariant features (cardinalities, transcendentals,
        // metadata) once; per candidate only `P` and the `…/P` slots are
        // rewritten — bit-identical to full per-row extraction.
        let sweep = crate::features::SweepFeatures::new(node, meta, encoding);
        for &p in partitions {
            self.features.push_row_with(|dst| sweep.write_row(p, dst));
        }
    }
}

/// The full Cleo predictor: all four individual stores plus the combined meta-model.
///
/// The combined meta-model sits behind an [`Arc`]: a delta-published predictor
/// shares the incumbent's combined model (deltas retrain per-signature models
/// only; the meta-model is refreshed by full epochs), so applying a delta never
/// copies the FastTree ensemble.
#[derive(Debug, Default)]
pub struct CleoPredictor {
    stores: Vec<ModelStore>,
    combined: Arc<CombinedModel>,
}

impl CleoPredictor {
    /// Assemble a predictor from trained components.
    pub fn new(stores: Vec<ModelStore>, combined: impl Into<Arc<CombinedModel>>) -> Self {
        CleoPredictor {
            stores,
            combined: combined.into(),
        }
    }

    /// Split the predictor back into its parts (used by the trainer when swapping in a
    /// newly trained combined model).
    pub fn into_parts(self) -> (Vec<ModelStore>, Arc<CombinedModel>) {
        (self.stores, self.combined)
    }

    /// Copy-on-write delta application: a new predictor where every signature
    /// covered by a `payload` store is overwritten with the payload's model
    /// and everything else — unchanged per-signature models *and* the combined
    /// meta-model — shares this predictor's `Arc`s bit-identically.  Payload
    /// stores are matched to this predictor's stores by family; a payload
    /// family this predictor lacks becomes a new store.
    pub fn apply_delta(&self, payload: &[ModelStore]) -> CleoPredictor {
        let mut stores: Vec<ModelStore> = self
            .stores
            .iter()
            .map(
                |own| match payload.iter().find(|p| p.family() == own.family()) {
                    Some(delta) => own.merged_with(delta),
                    None => own.clone(),
                },
            )
            .collect();
        for extra in payload {
            if !stores.iter().any(|s| s.family() == extra.family()) && !extra.is_empty() {
                stores.push(extra.clone());
            }
        }
        CleoPredictor {
            stores,
            combined: Arc::clone(&self.combined),
        }
    }

    /// Look up the store for a family.
    pub fn store(&self, family: ModelFamily) -> Option<&ModelStore> {
        self.stores.iter().find(|s| s.family() == Some(family))
    }

    /// All stores in serving order, for the snapshot codec.
    pub(crate) fn stores(&self) -> &[ModelStore] {
        &self.stores
    }

    /// Total number of specialised models held (the paper reports ~25K per cluster).
    pub fn model_count(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }

    /// Identity hash of the per-signature models a signature set resolves to:
    /// the four families' stored-model fingerprints folded together.  Two
    /// predictor versions produce the same salt for a signature set iff every
    /// family serves it with a bit-identical model — the prediction cache mixes
    /// this into its keys so a delta publish can share the incumbent's cache
    /// yet never serve a stale cost for a refit signature.
    pub fn signature_salt(&self, signatures: &SignatureSet) -> u64 {
        self.resolve(signatures).salt()
    }

    /// The per-signature models serving `signatures`: one store probe per
    /// family.
    pub(crate) fn resolve(&self, signatures: &SignatureSet) -> ResolvedModels<'_> {
        ResolvedModels(ModelFamily::all().map(|family| {
            self.store(family)
                .and_then(|s| s.models.get(&signatures.for_family(family)))
                .map(|model| &**model)
        }))
    }

    /// The combined meta-model.
    pub fn combined(&self) -> &CombinedModel {
        &self.combined
    }

    /// The shared handle to the combined meta-model (what delta application
    /// clones instead of the ensemble itself).
    pub fn shared_combined(&self) -> Arc<CombinedModel> {
        Arc::clone(&self.combined)
    }

    /// Per-family + combined predictions for an operator at a candidate partition
    /// count.
    pub fn predict(
        &self,
        node: &PhysicalNode,
        partitions: usize,
        meta: &JobMeta,
    ) -> PredictionBreakdown {
        let signatures = signature_set(node, meta);
        let features = extract_features(node, partitions, meta);
        self.predict_from_parts(&signatures, &features)
    }

    /// Prediction from precomputed signatures and features (used by the trainer to
    /// avoid recomputation, and by batch evaluation).
    pub fn predict_from_parts(
        &self,
        signatures: &SignatureSet,
        features: &[f64],
    ) -> PredictionBreakdown {
        let by_family = |family: ModelFamily| -> Option<f64> {
            self.store(family)
                .and_then(|s| s.predict(signatures.for_family(family), features))
        };
        let mut breakdown = PredictionBreakdown {
            op_subgraph: by_family(ModelFamily::OpSubgraph),
            op_subgraph_approx: by_family(ModelFamily::OpSubgraphApprox),
            op_input: by_family(ModelFamily::OpInput),
            operator: by_family(ModelFamily::Operator),
            combined: 0.0,
        };
        breakdown.combined = self.combined.predict(&breakdown, features);
        breakdown
    }

    /// Per-family + combined predictions for one operator at *many* candidate
    /// partition counts, in one batched pass.
    ///
    /// This is the model-invocation shape of resource-aware planning (§5.2): the
    /// optimizer costs each stage operator at every candidate count.  Signatures
    /// do not depend on the partition count, so they are computed once, each
    /// family resolves its specialised model with a single lookup, and all
    /// candidate rows run through [`Regressor::predict_batch`].  Allocating
    /// convenience wrapper over [`CleoPredictor::predict_candidates_with`].
    pub fn predict_candidates(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<PredictionBreakdown> {
        let mut scratch = PredictScratch::new();
        self.predict_candidates_with(node, partitions, meta, &mut scratch)
            .to_vec()
    }

    /// Sweep all candidate partition counts for one operator through a reused
    /// [`PredictScratch`]: feature rows are extracted straight into the scratch's
    /// flat matrix, every per-family and meta prediction reuses the scratch's
    /// buffers, and in steady state the whole sweep performs zero per-candidate
    /// heap allocations.
    pub fn predict_candidates_with<'a>(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
        scratch: &'a mut PredictScratch,
    ) -> &'a [PredictionBreakdown] {
        let signatures = signature_set(node, meta);
        scratch.fill_features(node, partitions, meta);
        self.predict_scratch(&signatures, scratch)
    }

    /// Per-family + combined predictions for many candidate sweeps — of
    /// different operators, possibly of different jobs — in one pass: each
    /// sweep's rows run through the per-family models serving it, and the
    /// combined meta-model runs once over every row.  Sweep `k`'s breakdowns
    /// follow sweep `k - 1`'s in the returned slice, each bit-identical to
    /// [`CleoPredictor::predict_candidates_with`] of that sweep alone
    /// (prediction is row-independent).
    pub fn predict_sweeps_with<'a>(
        &self,
        sweeps: &[SweepSpec],
        scratch: &'a mut PredictScratch,
    ) -> &'a [PredictionBreakdown] {
        scratch.reset_features();
        let mut rows: Vec<SweepRows<'_>> = recycle(std::mem::take(&mut scratch.bufs.sweeps));
        for sweep in sweeps {
            scratch.append_features(sweep.node, sweep.partitions, sweep.meta);
            rows.push(SweepRows {
                models: self.resolve(&signature_set(sweep.node, sweep.meta)),
                rows: sweep.partitions.len(),
            });
        }
        self.predict_sweep_rows(&rows, scratch);
        scratch.bufs.sweeps = recycle(rows);
        &scratch.bufs.breakdowns
    }

    /// Batched prediction over feature rows that share one signature set.
    /// Allocating convenience wrapper over [`CleoPredictor::predict_scratch`].
    pub fn predict_batch_from_parts(
        &self,
        signatures: &SignatureSet,
        feature_rows: &FeatureMatrix,
    ) -> Vec<PredictionBreakdown> {
        let sweep = SweepRows {
            models: self.resolve(signatures),
            rows: feature_rows.n_rows(),
        };
        let mut bufs = SweepBuffers::default();
        self.predict_rows_into(&[sweep], feature_rows, &mut bufs);
        bufs.breakdowns
    }

    /// Batched prediction over the feature rows already loaded into
    /// `scratch.features` (see [`PredictScratch::fill_features`]); the resulting
    /// breakdowns live in the scratch and are returned as a slice.
    pub fn predict_scratch<'a>(
        &self,
        signatures: &SignatureSet,
        scratch: &'a mut PredictScratch,
    ) -> &'a [PredictionBreakdown] {
        let sweep = SweepRows {
            models: self.resolve(signatures),
            rows: scratch.features.n_rows(),
        };
        self.predict_sweep_rows(&[sweep], scratch)
    }

    /// The pass over `scratch.features`, whose rows are `sweeps`' rows in
    /// order.
    pub(crate) fn predict_sweep_rows<'a>(
        &self,
        sweeps: &[SweepRows<'_>],
        scratch: &'a mut PredictScratch,
    ) -> &'a [PredictionBreakdown] {
        let PredictScratch { features, bufs } = scratch;
        self.predict_rows_into(sweeps, features, bufs);
        &bufs.breakdowns
    }

    /// The shared batched-prediction core: per sweep, one strided batch
    /// prediction per covered family over the sweep's rows; then one
    /// combined-model pass over all rows.
    fn predict_rows_into(
        &self,
        sweeps: &[SweepRows<'_>],
        rows: &FeatureMatrix,
        bufs: &mut SweepBuffers,
    ) {
        bufs.breakdowns.clear();
        if rows.n_rows() == 0 {
            return;
        }
        let mut start = 0;
        for sweep in sweeps {
            let range = start..start + sweep.rows;
            start = range.end;
            bufs.breakdowns
                .resize(range.end, PredictionBreakdown::default());
            for (family, model) in ModelFamily::all().into_iter().zip(sweep.models.0) {
                let Some(m) = model else { continue };
                bufs.family_preds.clear();
                m.model.predict_rows_clamped_into(
                    rows,
                    range.clone(),
                    &mut bufs.family_preds,
                    m.floor,
                    m.ceiling,
                );
                // Written through the family the prediction was made for, so
                // reordering `ModelFamily::all()` cannot cross-wire fields.
                for (b, &value) in bufs.breakdowns[range.clone()]
                    .iter_mut()
                    .zip(&bufs.family_preds)
                {
                    *b.family_mut(family) = Some(value);
                }
            }
        }
        debug_assert_eq!(start, rows.n_rows(), "sweeps must cover the rows");
        bufs.combined.clear();
        self.combined.predict_batch_into(
            &bufs.breakdowns,
            rows,
            &mut bufs.meta_rows,
            &mut bufs.combined,
        );
        for (b, &c) in bufs.breakdowns.iter_mut().zip(&bufs.combined) {
            b.combined = c;
        }
    }

    /// Whether a family covers this operator instance.
    pub fn covers(&self, family: ModelFamily, node: &PhysicalNode, meta: &JobMeta) -> bool {
        let signatures = signature_set(node, meta);
        self.store(family)
            .map(|s| s.covers(signatures.for_family(family)))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    fn meta(inputs: &[&str]) -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "models".into(),
            normalized_inputs: inputs.iter().map(|s| s.to_string()).collect(),
            params: vec![0.5, 0.5],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn filter_node(rows: f64, partitions: usize) -> PhysicalNode {
        let mut child = PhysicalNode::new(PhysicalOpKind::Extract, "t", vec![]);
        child.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows,
            avg_row_bytes: 50.0,
        };
        child.partition_count = partitions;
        let mut n = PhysicalNode::new(PhysicalOpKind::Filter, "pred", vec![child]);
        n.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows * 0.2,
            avg_row_bytes: 50.0,
        };
        n.partition_count = partitions;
        n
    }

    /// Generate samples whose latency is a clean function of cardinality and partitions.
    fn samples(n: usize) -> Vec<OperatorSample> {
        let m = meta(&["t"]);
        (0..n)
            .map(|i| {
                let rows = 1e5 * (1.0 + i as f64);
                let parts = 4 + (i % 8);
                let node = filter_node(rows, parts);
                let latency = rows * 2e-7 / parts as f64 + 0.1;
                OperatorSample::from_node(&node, latency, &m)
            })
            .collect()
    }

    #[test]
    fn store_trains_one_model_per_signature_and_predicts() {
        let s = samples(30);
        let store = ModelStore::train(ModelFamily::OpSubgraph, &s, 5).unwrap();
        assert_eq!(store.len(), 1, "all samples share one subgraph template");
        assert!(store.covers(s[0].signatures.op_subgraph));
        let pred = store
            .predict(s[0].signatures.op_subgraph, &s[0].features)
            .unwrap();
        let err = (pred - s[0].exclusive_seconds).abs() / s[0].exclusive_seconds;
        assert!(err < 0.5, "relative error {err}");
        assert!(!store.weight_vectors().is_empty());
    }

    #[test]
    fn store_skips_signatures_with_too_few_samples() {
        let s = samples(3);
        let store = ModelStore::train(ModelFamily::OpSubgraph, &s, 5).unwrap();
        assert!(store.is_empty());
        assert!(store
            .predict(s[0].signatures.op_subgraph, &s[0].features)
            .is_none());
    }

    #[test]
    fn operator_family_generalises_across_labels() {
        // Two different predicates map to the same Operator-family signature.
        let m = meta(&["t"]);
        let mut a = filter_node(1e5, 4);
        a.label = "pred_a".into();
        let mut b = filter_node(1e5, 4);
        b.label = "pred_b".into();
        let sa = OperatorSample::from_node(&a, 1.0, &m);
        let sb = OperatorSample::from_node(&b, 1.0, &m);
        assert_ne!(sa.signatures.op_subgraph, sb.signatures.op_subgraph);
        assert_eq!(sa.signatures.operator, sb.signatures.operator);
    }

    #[test]
    fn combined_model_tracks_individual_predictions() {
        let s = samples(40);
        let store = ModelStore::train(ModelFamily::OpSubgraph, &s, 5).unwrap();
        let op_store = ModelStore::train(ModelFamily::Operator, &s, 5).unwrap();
        let predictor_wo_combined = CleoPredictor::new(
            vec![
                ModelStore::train(ModelFamily::OpSubgraph, &s, 5).unwrap(),
                ModelStore::train(ModelFamily::Operator, &s, 5).unwrap(),
            ],
            CombinedModel::default(),
        );
        let training: Vec<(PredictionBreakdown, Vec<f64>)> = s
            .iter()
            .map(|smp| {
                (
                    predictor_wo_combined.predict_from_parts(&smp.signatures, &smp.features),
                    smp.features.clone(),
                )
            })
            .collect();
        let targets: Vec<f64> = s.iter().map(|smp| smp.exclusive_seconds).collect();
        let combined = CombinedModel::train(&training, &targets, 7).unwrap();
        assert!(combined.is_trained());

        let predictor = CleoPredictor::new(vec![store, op_store], combined);
        assert_eq!(predictor.model_count(), 2);
        let b = predictor.predict_from_parts(&s[5].signatures, &s[5].features);
        assert!(b.op_subgraph.is_some());
        assert!(b.operator.is_some());
        assert!(b.combined > 0.0);
        let err = (b.combined - s[5].exclusive_seconds).abs() / s[5].exclusive_seconds;
        assert!(err < 0.6, "relative error {err}");
    }

    #[test]
    fn untrained_combined_falls_back_to_most_specialised() {
        let breakdown = PredictionBreakdown {
            op_subgraph: None,
            op_subgraph_approx: Some(4.0),
            op_input: Some(9.0),
            operator: Some(20.0),
            combined: 0.0,
        };
        let c = CombinedModel::default();
        let features = vec![0.0; crate::features::feature_count()];
        assert_eq!(c.predict(&breakdown, &features), 4.0);
        assert_eq!(breakdown.most_specialized(), Some(4.0));
        assert_eq!(breakdown.family(ModelFamily::Operator), Some(20.0));
    }

    #[test]
    fn combined_training_rejects_bad_input() {
        assert!(CombinedModel::train(&[], &[], 0).is_err());
    }

    #[test]
    fn seeded_training_reuses_unchanged_and_warm_starts_changed_signatures() {
        let s = samples(30);
        let families = [ModelFamily::OpSubgraph, ModelFamily::Operator];
        let (v1, cold) =
            ModelStore::train_all_seeded(&families, &s, 5, 1, &[None, None], &[None, None])
                .unwrap();
        assert_eq!(cold.reused, 0);
        assert_eq!(cold.warm_fits, 0);
        assert_eq!(cold.cold_fits, 2, "one signature per family in this corpus");

        // Unchanged window: every signature is reused, predictions bit-identical.
        let incumbents = [Some(&v1[0]), Some(&v1[1])];
        let (v2, again) =
            ModelStore::train_all_seeded(&families, &s, 5, 1, &incumbents, &incumbents).unwrap();
        assert_eq!(again.reused, 2);
        assert_eq!(again.warm_fits + again.cold_fits, 0);
        let sig = s[0].signatures.op_subgraph;
        assert_eq!(
            v1[0].predict(sig, &s[0].features).unwrap().to_bits(),
            v2[0].predict(sig, &s[0].features).unwrap().to_bits()
        );

        // The reuse decision is order-independent: a shuffled window with the
        // same sample multiset still reuses everything.
        let mut shuffled = s.clone();
        cleo_common::rng::DetRng::new(99).shuffle(&mut shuffled);
        let (_, reordered) =
            ModelStore::train_all_seeded(&families, &shuffled, 5, 1, &incumbents, &incumbents)
                .unwrap();
        assert_eq!(reordered.reused, 2);

        // A grown window refits — seeded from the incumbent — and converges.
        let grown = samples(36);
        let (v3, warm) =
            ModelStore::train_all_seeded(&families, &grown, 5, 1, &incumbents, &incumbents)
                .unwrap();
        assert_eq!(warm.warm_fits, 2);
        assert_eq!(warm.reused + warm.cold_fits, 0);
        let pred = v3[0].predict(sig, &grown[0].features).unwrap();
        let err = (pred - grown[0].exclusive_seconds).abs() / grown[0].exclusive_seconds;
        assert!(err < 0.5, "warm-started fit degraded: relative error {err}");

        // Seeded training is bit-identical across thread counts, like cold.
        let (v3_mt, warm_mt) =
            ModelStore::train_all_seeded(&families, &grown, 5, 4, &incumbents, &incumbents)
                .unwrap();
        assert_eq!(warm_mt, warm);
        assert_eq!(
            v3[0].predict(sig, &grown[0].features).unwrap().to_bits(),
            v3_mt[0].predict(sig, &grown[0].features).unwrap().to_bits()
        );
    }
}
