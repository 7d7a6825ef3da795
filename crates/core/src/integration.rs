//! Optimizer integration: the learned cost model.
//!
//! [`LearnedCostModel`] wraps a trained [`CleoPredictor`] behind the optimizer's
//! [`CostModel`] trait, so the learned models are invoked from the same
//! Optimize-Inputs step as the default cost model (Figure 8a, step 10) and can drive
//! the resource-aware partition exploration of Section 5.2 through
//! [`CostModel::partition_coefficients`].
//!
//! The predictor is held behind an [`Arc`], so one trained model version can be
//! shared by many concurrent optimizations (see [`crate::registry`]).  A
//! signature-keyed `PredictionCache` memoises combined predictions: recurring jobs
//! re-optimized across feedback epochs present the same `(signature, feature)` pairs
//! again and again, and a cache hit skips every per-family model lookup and the
//! FastTree ensemble walk.
//!
//! The optimizer hands over each step of a job — an enumeration level, the
//! exploration probes, the costs at the chosen partition counts, the final
//! fold — as one call ([`CostModel::exclusive_cost_sweeps_into`],
//! [`CostModel::partition_coefficients_batch`]).  Every entry point runs
//! `LearnedCostModel::with_costs`: one cache lookup per sweep, then the
//! call's misses through one predictor pass, each miss's rows through the
//! per-family models that serve it and every row through the combined
//! meta-model at once (a miss's FastTree walk shares an 8-row SIMD block with
//! the other misses instead of walking alone).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use cleo_common::concurrency::StripedCounter;
use cleo_common::hash::avalanche;
use cleo_common::scratch::recycle;
use cleo_engine::physical::{JobMeta, PhysicalNode};
use cleo_optimizer::{CostModel, SweepSpec};

use crate::features::{encoding_from_order_hash, input_order_hash};
use crate::models::{CleoPredictor, PredictScratch, SweepRows};
use crate::signature::{input_template_hash, signature_set_with_template, SignatureSet};

thread_local! {
    /// Per-thread costing scratch: every optimizer thread reuses one flat
    /// feature matrix (plus the predictor's intermediate buffers and the
    /// call's cost and miss lists) across all cost calls, so steady-state
    /// costing performs zero heap allocations.  Thread-local (rather than a
    /// field) keeps [`LearnedCostModel`] `Sync` without a contended lock on the
    /// hot path.
    static SWEEP_SCRATCH: RefCell<CallScratch> = RefCell::new(CallScratch::default());

    /// What the last job costed on this thread contributes to its cache keys
    /// and feature rows.  An optimization makes tens of cost calls for one job,
    /// so all but the first find their job here.
    static LAST_JOB: RefCell<Option<JobKey>> = const { RefCell::new(None) };
}

/// Separator written after each input name in [`JobKey::inputs`].  UTF-8 never
/// contains this byte, so the flattened list identifies the list of names.
const NAME_END: u8 = 0xff;

/// The part of a sweep's cache key and feature rows that depends on the job
/// alone — derived once per job instead of once per cost call.
#[derive(Debug)]
struct JobKey {
    /// The job's `normalized_inputs`, each followed by [`NAME_END`].  A later
    /// call belongs to this job when its inputs and parameters have the same
    /// *content*: addresses say nothing, a `JobMeta` can be dropped and another
    /// built in its place.  One flat buffer, so moving between jobs reuses its
    /// capacity instead of allocating a string per name.
    inputs: Vec<u8>,
    /// Bit patterns of `params[0]` and `params[1]` (0.0 when absent), exactly
    /// the two values the feature rows read.
    params: [u64; 2],
    words: JobWords,
}

/// What a cost call needs from its job.
#[derive(Debug, Clone, Copy)]
struct JobWords {
    /// [`input_template_hash`], for the two signatures that use it.
    input_template: u64,
    /// The `IN` feature ([`crate::features::input_encoding`]).
    input_encoding: f64,
    /// The job's parameters and raw-order input hash, mixed: the state every
    /// [`sweep_key`] of this job starts from.
    key_seed: u64,
}

fn param_bits(meta: &JobMeta) -> [u64; 2] {
    [0, 1].map(|i| meta.params.get(i).copied().unwrap_or(0.0).to_bits())
}

impl JobKey {
    fn matches(&self, meta: &JobMeta) -> bool {
        if self.params != param_bits(meta) {
            return false;
        }
        let mut rest = self.inputs.as_slice();
        for name in &meta.normalized_inputs {
            match rest.split_at_checked(name.len()) {
                Some((head, [NAME_END, tail @ ..])) if head == name.as_bytes() => rest = tail,
                _ => return false,
            }
        }
        rest.is_empty()
    }

    /// Derive the key of `meta`'s job, reusing `buffer` for the flattened names.
    fn derive(meta: &JobMeta, mut buffer: Vec<u8>) -> JobKey {
        let inputs = &meta.normalized_inputs;
        buffer.clear();
        for name in inputs {
            buffer.extend_from_slice(name.as_bytes());
            buffer.push(NAME_END);
        }
        let params = param_bits(meta);
        // The signatures hash the *sorted, deduplicated* input set, but the IN
        // feature hashes the inputs in raw order — key on that hash too, or two
        // jobs differing only in input order would share an entry.
        let order_hash = input_order_hash(inputs);
        JobKey {
            inputs: buffer,
            params,
            words: JobWords {
                input_template: input_template_hash(meta),
                input_encoding: encoding_from_order_hash(inputs, order_hash),
                key_seed: mix(mix(mix(0, params[0]), params[1]), order_hash),
            },
        }
    }
}

/// The [`JobWords`] of `meta`'s job: read from [`LAST_JOB`] when the previous
/// call on this thread was for the same job, derived (and remembered) otherwise.
fn job_words(meta: &JobMeta) -> JobWords {
    LAST_JOB.with_borrow_mut(|last| match last {
        Some(job) if job.matches(meta) => job.words,
        _ => {
            let buffer = last.take().map(|job| job.inputs).unwrap_or_default();
            last.insert(JobKey::derive(meta, buffer)).words
        }
    })
}

/// The buffers of one [`LearnedCostModel`] cost call.
#[derive(Default)]
struct CallScratch {
    /// Feature rows of the call's misses, and the predictor's buffers.
    predict: PredictScratch,
    /// Every sweep's costs, sweep after sweep in call order.
    costs: Vec<f64>,
    /// The sweeps that missed, in call order (parked between calls, see
    /// [`recycle`]).
    missed: Vec<SweepRows<'static>>,
    /// Per missed sweep: its cache key and where its costs start in `costs`.
    missed_at: Vec<(u64, usize)>,
    /// Sweeps repeating an earlier miss of the same call: where their costs
    /// start in `costs`, and the index of that miss.
    repeats: Vec<(usize, usize)>,
}

/// Floor applied to every cost returned to the optimizer, so that downstream
/// ratios/divisions stay finite even when a model extrapolates to ~0.  One shared
/// constant keeps the scalar and batched costing paths from drifting.
const COST_FLOOR_SECONDS: f64 = 1e-6;

/// Clamp a combined prediction to the cost floor (shared by the scalar and batch
/// paths — see [`COST_FLOOR_SECONDS`]).
#[inline]
fn clamp_cost(cost: f64) -> f64 {
    cost.max(COST_FLOOR_SECONDS)
}

/// Number of independently locked cache shards: derived from the machine's
/// available parallelism (8 lock stripes per core, clamped to a power of two
/// in `[16, 256]`), so the shard count scales with the number of optimizer
/// threads that can actually contend instead of being fixed at build time.
fn cache_shard_count() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores * 8).next_power_of_two().clamp(16, 256)
    })
}

/// Default total cache capacity (entries across all shards).
const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Hit/miss counters of a [`LearnedCostModel`]'s prediction cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that ran the full prediction stack.
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cached costs of one candidate sweep.  A one-candidate sweep — every
/// call the serve path makes — keeps its cost inline, so a hit on it reads no
/// heap and touches no reference count.
#[derive(Debug, Clone)]
enum CachedCosts {
    One(f64),
    Many(Arc<[f64]>),
}

impl CachedCosts {
    fn collect(mut costs: impl ExactSizeIterator<Item = f64>) -> CachedCosts {
        match costs.len() {
            1 => CachedCosts::One(costs.next().expect("an iterator of length 1")),
            _ => CachedCosts::Many(costs.collect()),
        }
    }

    fn as_slice(&self) -> &[f64] {
        match self {
            CachedCosts::One(cost) => std::slice::from_ref(cost),
            CachedCosts::Many(costs) => costs,
        }
    }
}

/// A sharded, bounded memo of combined predictions for whole candidate sweeps,
/// keyed by [`sweep_key`].
///
/// The feature rows of a sweep are a pure function of the key's inputs — the four
/// signatures pin the exact subtree template (and with it `node_count`/`depth`)
/// and the normalised input set, while the root's estimated statistics and the
/// job parameters contribute every remaining feature — so memoisation is exact:
/// a hit returns the bit-identical values the predictor would have computed.
/// Caching at sweep granularity is what makes hits cheap: one lookup replaces a
/// per-candidate feature extraction *and* the model evaluations behind it.
/// When a shard outgrows its slice of the capacity it is
/// cleared wholesale — an epoch-style reset that bounds memory without per-entry
/// bookkeeping on the serving path.
#[derive(Debug)]
struct PredictionCache {
    /// A hit copies an `f64` or clones one `Arc` inside the critical section
    /// instead of copying a `Vec` under the lock, so the per-shard mutexes are
    /// held for nanoseconds even on hot sweeps.
    shards: Vec<Mutex<HashMap<u64, CachedCosts>>>,
    per_shard_capacity: usize,
    hits: Arc<StripedCounter>,
    misses: Arc<StripedCounter>,
}

impl PredictionCache {
    fn new(capacity: usize) -> Self {
        let shard_count = cache_shard_count();
        PredictionCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(shard_count).max(1),
            hits: Arc::new(StripedCounter::new()),
            misses: Arc::new(StripedCounter::new()),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, CachedCosts>> {
        // Multiplicative mix so every key bit influences the shard pick (the
        // shard count is a power of two, so a plain mask would only ever read
        // the low bits).
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize & (self.shards.len() - 1)]
    }

    fn get(&self, key: u64) -> Option<CachedCosts> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .cloned();
        match found {
            Some(_) => self.hits.add(1),
            None => self.misses.add(1),
        };
        found
    }

    fn insert(&self, key: u64, costs: CachedCosts) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if shard.len() >= self.per_shard_capacity {
            shard.clear();
        }
        shard.insert(key, costs);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.sum() as usize,
            misses: self.misses.sum() as usize,
        }
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
        self.hits.reset();
        self.misses.reset();
    }
}

/// One step of [`sweep_key`]: fold a word into the state.  For a fixed state it
/// is a bijection of the word (and the reverse), so two keys that differ in one
/// word differ.  The keys never leave the process, so nothing depends on the
/// values; the signatures keep the byte-wise, stable hash.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// Cache key over everything one candidate sweep's cached costs depend on (see
/// [`PredictionCache`]): the job's part ([`JobWords::key_seed`]), the operator's
/// signatures and statistics, the candidate partition counts and how many there
/// are, *plus* `model_salt`, the identity hash of the per-signature models
/// serving this signature set ([`CleoPredictor::signature_salt`]).  The salt is
/// what makes the cache safe to share across delta publishes: a delta that
/// refits a signature changes its salt, so the successor model misses and
/// recomputes, while unchanged signatures keep hitting the incumbent's warm
/// entries.
fn sweep_key(
    key_seed: u64,
    model_salt: u64,
    signatures: &SignatureSet,
    node: &PhysicalNode,
    partitions: &[usize],
) -> u64 {
    let fixed = [
        model_salt,
        signatures.op_subgraph,
        signatures.op_subgraph_approx,
        signatures.op_input,
        signatures.operator,
        node.est.input_cardinality.to_bits(),
        node.est.base_cardinality.to_bits(),
        node.est.output_cardinality.to_bits(),
        node.est.avg_row_bytes.to_bits(),
        partitions.len() as u64,
    ];
    let state = fixed.into_iter().fold(key_seed, mix);
    avalanche(partitions.iter().fold(state, |h, &p| mix(h, p as u64)))
}

/// The learned cost model plugged into the optimizer.
#[derive(Debug)]
pub struct LearnedCostModel {
    predictor: Arc<CleoPredictor>,
    /// Number of model invocations performed (reported in the overhead
    /// analysis).  Striped: the count is bumped on *every* cost evaluation, so
    /// a single shared atomic would be the hottest cacheline in a concurrent
    /// serve — each thread increments its own stripe instead and totals are
    /// summed on read.
    invocations: Arc<StripedCounter>,
    /// Signature-keyed memo of combined predictions (`None` = caching disabled).
    /// Behind an [`Arc`] so a delta-published successor model can keep serving
    /// the incumbent's warm entries (keys are salted with per-signature model
    /// identity, so sharing is safe — see [`sweep_key`]).
    cache: Option<Arc<PredictionCache>>,
}

impl LearnedCostModel {
    /// Wrap a trained predictor (accepts an owned predictor or an existing
    /// [`Arc`]), with the signature-keyed prediction cache enabled.
    pub fn new(predictor: impl Into<Arc<CleoPredictor>>) -> Self {
        Self::with_cache_capacity(predictor, DEFAULT_CACHE_CAPACITY)
    }

    /// Like [`LearnedCostModel::new`] with an explicit total cache capacity
    /// (`0` disables caching — every invocation runs the full prediction stack).
    pub fn with_cache_capacity(predictor: impl Into<Arc<CleoPredictor>>, capacity: usize) -> Self {
        LearnedCostModel {
            predictor: predictor.into(),
            invocations: Arc::new(StripedCounter::new()),
            cache: (capacity > 0).then(|| Arc::new(PredictionCache::new(capacity))),
        }
    }

    /// Wrap a predictor with the prediction cache disabled: every invocation
    /// runs the full prediction stack (the uncached reference the equivalence
    /// tests and the publish guard's candidate scoring use).
    pub fn without_cache(predictor: impl Into<Arc<CleoPredictor>>) -> Self {
        Self::with_cache_capacity(predictor, 0)
    }

    /// The cost model of a delta-published successor version: wraps the merged
    /// predictor while **sharing this model's prediction cache**.  Unchanged
    /// signatures resolve to the same salted keys and keep hitting the warm
    /// entries; refit signatures change their salt and miss, so a delta can
    /// never serve a stale cached cost (pinned by the delta cache regression
    /// test).  Invocation counters start fresh.
    pub fn delta_successor(&self, predictor: impl Into<Arc<CleoPredictor>>) -> LearnedCostModel {
        LearnedCostModel {
            predictor: predictor.into(),
            invocations: Arc::new(StripedCounter::new()),
            cache: self.cache.clone(),
        }
    }

    /// True when `other` serves predictions through the same shared cache
    /// allocation (deltas share; full publishes do not).
    pub fn shares_cache_with(&self, other: &LearnedCostModel) -> bool {
        match (&self.cache, &other.cache) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &CleoPredictor {
        &self.predictor
    }

    /// A shareable handle to the wrapped predictor.
    pub fn shared_predictor(&self) -> Arc<CleoPredictor> {
        Arc::clone(&self.predictor)
    }

    /// Number of cost-model invocations so far.  Exact once the threads doing
    /// the costing have quiesced (the only time anyone reads it).
    pub fn invocation_count(&self) -> usize {
        self.invocations.sum() as usize
    }

    /// Reset the invocation counter.
    pub fn reset_invocation_count(&self) {
        self.invocations.reset();
    }

    /// Hit/miss counters of the prediction cache (zeros when caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Drop all cached predictions and reset the hit/miss counters.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.reset();
        }
    }
}

impl LearnedCostModel {
    /// Cost `sweeps` and hand their costs — sweep after sweep, candidate after
    /// candidate — to `read`.  Every exclusive-cost entry point is this one
    /// function: first every sweep is looked up (find the job in
    /// [`LAST_JOB`] unless the previous sweep was the same job's, hash the
    /// operator's four signatures from what the node cached, resolve the
    /// serving models once — for the salt and for prediction — mix the key,
    /// one map lookup); then every miss goes through one predictor pass, its
    /// rows through the per-family models that serve it and all rows through
    /// the combined meta-model at once.  A sweep repeating an earlier miss of
    /// the same call is counted as the hit the one-sweep-per-call path would
    /// have found, and copies that miss's costs.  Values are bit-identical to
    /// costing each sweep alone: prediction is row-independent.  With caching
    /// disabled every sweep is a miss.
    fn with_costs<'s, R>(
        &self,
        sweeps: impl IntoIterator<Item = SweepSpec<'s>>,
        read: impl FnOnce(&[f64]) -> R,
    ) -> R {
        SWEEP_SCRATCH.with_borrow_mut(|scratch| {
            let CallScratch {
                predict,
                costs,
                missed: parked,
                missed_at,
                repeats,
            } = scratch;
            costs.clear();
            missed_at.clear();
            repeats.clear();
            // Taken at the first miss: a call that only hits leaves the miss
            // list and the feature matrix alone.
            let mut missed: Vec<SweepRows<'_>> = Vec::new();
            let mut job: Option<(&JobMeta, JobWords)> = None;
            for sweep in sweeps {
                let words = match job {
                    Some((meta, words)) if std::ptr::eq(meta, sweep.meta) => words,
                    _ => job.insert((sweep.meta, job_words(sweep.meta))).1,
                };
                let signatures = signature_set_with_template(sweep.node, words.input_template);
                let models = self.predictor.resolve(&signatures);
                let offset = costs.len();
                let len = sweep.partitions.len();
                let mut key = 0;
                if let Some(cache) = &self.cache {
                    key = sweep_key(
                        words.key_seed,
                        models.salt(),
                        &signatures,
                        sweep.node,
                        sweep.partitions,
                    );
                    if let Some(first) = missed_at.iter().position(|&(k, _)| k == key) {
                        cache.hits.add(1);
                        costs.resize(offset + len, 0.0);
                        repeats.push((offset, first));
                        continue;
                    }
                    if let Some(cached) = cache.get(key) {
                        costs.extend_from_slice(cached.as_slice());
                        continue;
                    }
                }
                costs.resize(offset + len, 0.0);
                if missed.is_empty() {
                    missed = recycle(std::mem::take(parked));
                    predict.reset_features();
                }
                missed_at.push((key, offset));
                missed.push(SweepRows { models, rows: len });
                predict.append_features_with_encoding(
                    sweep.node,
                    sweep.partitions,
                    sweep.meta,
                    words.input_encoding,
                );
            }
            let candidates = costs.len();
            self.invocations.add(candidates as u64);

            if !missed.is_empty() {
                let mut rows = self.predictor.predict_sweep_rows(&missed, predict);
                for (&(key, offset), sweep) in missed_at.iter().zip(&missed) {
                    let (own, rest) = rows.split_at(sweep.rows);
                    rows = rest;
                    let slots = &mut costs[offset..offset + sweep.rows];
                    for (slot, b) in slots.iter_mut().zip(own) {
                        *slot = clamp_cost(b.combined);
                    }
                    if let Some(cache) = &self.cache {
                        cache.insert(key, CachedCosts::collect(slots.iter().copied()));
                    }
                }
                for &(offset, first) in repeats.iter() {
                    let from = missed_at[first].1;
                    costs.copy_within(from..from + missed[first].rows, offset);
                }
                *parked = recycle(missed);
            }
            read(costs)
        })
    }
}

/// The candidate counts the analytical strategy probes each operator at.
static PROBES: [usize; 2] = [1, 256];

/// The two one-candidate sweeps probing `node` at [`PROBES`].
fn probes<'a>(node: &'a PhysicalNode, meta: &'a JobMeta) -> [SweepSpec<'a>; 2] {
    [0, 1].map(|i| SweepSpec {
        node,
        partitions: &PROBES[i..=i],
        meta,
    })
}

/// Section 5.3: express cost(P) ≈ θ_P / P + θ_C · P from the costs `c1`, `c2`
/// at the two [`PROBES`] by solving the 2×2 system.  Two look-ups per
/// operator, whatever the partition range, is what makes the analytical
/// strategy ~20× cheaper than sampling.
fn coefficients_from_probes(c1: f64, c2: f64) -> Option<(f64, f64)> {
    let p1 = PROBES[0] as f64;
    let p2 = PROBES[1] as f64;
    // c1 = θp/p1 + θc·p1 ; c2 = θp/p2 + θc·p2
    let det = p2 / p1 - p1 / p2;
    if det.abs() < 1e-12 {
        return None;
    }
    let theta_c = (c2 / p1 - c1 / p2) / det;
    let theta_p = (c1 - theta_c * p1) * p1;
    Some((theta_p, theta_c))
}

impl CostModel for LearnedCostModel {
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> f64 {
        let sweep = SweepSpec {
            node,
            partitions: std::slice::from_ref(&partitions),
            meta,
        };
        self.with_costs([sweep], |costs| costs[0])
    }

    fn exclusive_cost_batch(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        let sweep = SweepSpec {
            node,
            partitions,
            meta,
        };
        self.with_costs([sweep], <[f64]>::to_vec)
    }

    fn exclusive_cost_sweeps(&self, sweeps: &[SweepSpec]) -> Vec<Vec<f64>> {
        self.with_costs(sweeps.iter().copied(), |mut costs| {
            sweeps
                .iter()
                .map(|sweep| {
                    let (own, rest) = costs.split_at(sweep.partitions.len());
                    costs = rest;
                    own.to_vec()
                })
                .collect()
        })
    }

    fn exclusive_cost_sweeps_into(&self, sweeps: &[SweepSpec], out: &mut Vec<f64>) {
        self.with_costs(sweeps.iter().copied(), |costs| out.extend_from_slice(costs));
    }

    fn partition_coefficients(&self, node: &PhysicalNode, meta: &JobMeta) -> Option<(f64, f64)> {
        self.with_costs(probes(node, meta), |c| coefficients_from_probes(c[0], c[1]))
    }

    fn partition_coefficients_batch(
        &self,
        nodes: &[&PhysicalNode],
        meta: &JobMeta,
        out: &mut Vec<Option<(f64, f64)>>,
    ) {
        self.with_costs(nodes.iter().flat_map(|node| probes(node, meta)), |costs| {
            out.extend(
                costs
                    .chunks_exact(2)
                    .map(|c| coefficients_from_probes(c[0], c[1])),
            )
        });
    }

    fn name(&self) -> &str {
        "CLEO (learned)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
    use crate::signature::ModelFamily;
    use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    fn meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "integ".into(),
            normalized_inputs: vec!["t".into()],
            params: vec![0.5, 0.5],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn exchange_node(rows: f64, partitions: usize) -> PhysicalNode {
        let mut child = PhysicalNode::new(PhysicalOpKind::Extract, "t", vec![]);
        child.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows,
            avg_row_bytes: 100.0,
        };
        child.partition_count = partitions;
        let mut n = PhysicalNode::new(PhysicalOpKind::Exchange, "k", vec![child]);
        n.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows,
            avg_row_bytes: 100.0,
        };
        n.partition_count = partitions;
        n
    }

    /// Train a tiny predictor whose exchange cost follows work/P + overhead·P.
    fn u_shape_predictor() -> CleoPredictor {
        let m = meta();
        let samples: Vec<OperatorSample> = (0..80)
            .map(|i| {
                let rows = 1e6 + 1e5 * (i % 10) as f64;
                let parts = 1 + (i % 16) * 16;
                let node = exchange_node(rows, parts);
                let latency = rows * 2e-6 / parts as f64 + 0.05 * parts as f64;
                OperatorSample::from_node(&node, latency, &m)
            })
            .collect();
        let stores = vec![
            ModelStore::train(ModelFamily::OpSubgraph, &samples, 5).unwrap(),
            ModelStore::train(ModelFamily::Operator, &samples, 5).unwrap(),
        ];
        CleoPredictor::new(stores, CombinedModel::default())
    }

    #[test]
    fn learned_cost_model_counts_invocations_and_predicts_positive() {
        let model = LearnedCostModel::new(u_shape_predictor());
        let node = exchange_node(1e6, 8);
        let c = model.exclusive_cost(&node, 8, &meta());
        assert!(c > 0.0);
        assert_eq!(model.invocation_count(), 1);
        model.reset_invocation_count();
        assert_eq!(model.invocation_count(), 0);
        assert_eq!(model.name(), "CLEO (learned)");
    }

    #[test]
    fn cached_predictions_are_bit_identical_to_uncached() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let cached = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let uncached = LearnedCostModel::without_cache(predictor);
        let m = meta();
        let candidates: Vec<usize> = (0..32).map(|i| 1 + 8 * i).collect();
        for rows in [1e5, 1e6, 3e6] {
            let node = exchange_node(rows, 8);
            for &p in &candidates {
                // Scalar path: first call misses, second call hits; all equal the
                // uncached model bit for bit.
                let cold = cached.exclusive_cost(&node, p, &m);
                let warm = cached.exclusive_cost(&node, p, &m);
                let reference = uncached.exclusive_cost(&node, p, &m);
                assert_eq!(cold.to_bits(), reference.to_bits());
                assert_eq!(warm.to_bits(), reference.to_bits());
            }
            // Batch path over a mix of cached and new partition counts.
            let batch = cached.exclusive_cost_batch(&node, &candidates, &m);
            let reference = uncached.exclusive_cost_batch(&node, &candidates, &m);
            for (a, b) in batch.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "repeat costing must hit: {stats:?}");
        assert!(stats.misses > 0);
        // Per rows value: 32 scalar sweeps miss cold and hit warm, plus one
        // batch-sweep miss — 32 hits / 65 lookups.
        assert!(stats.hit_rate() > 0.4, "hit rate {}", stats.hit_rate());
        assert_eq!(uncached.cache_stats(), CacheStats::default());

        cached.clear_cache();
        assert_eq!(cached.cache_stats(), CacheStats::default());
    }

    /// Everything a sweep's costs depend on is in its key: a job or sweep that
    /// differs from a cached one in any single ingredient misses, and what it
    /// then computes (and what a repeat reads back) equals the uncached model.
    #[test]
    fn a_change_to_any_key_ingredient_misses_and_matches_uncached() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let cached = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let uncached = LearnedCostModel::without_cache(predictor);

        let base_meta = JobMeta {
            normalized_inputs: vec!["a".into(), "b".into()],
            ..meta()
        };
        let base_node = exchange_node(1e6, 8);
        let mut reordered = base_meta.clone();
        reordered.normalized_inputs.reverse();
        let mut first_param = base_meta.clone();
        first_param.params[0] = 0.25;
        let mut second_param = base_meta.clone();
        second_param.params[1] = 0.25;
        let mut one_bit = base_node.clone();
        one_bit.est.avg_row_bytes = f64::from_bits(one_bit.est.avg_row_bytes.to_bits() + 1);

        let variants: [(&str, &PhysicalNode, &JobMeta, &[usize]); 7] = [
            ("base", &base_node, &base_meta, &[8]),
            ("input order", &base_node, &reordered, &[8]),
            ("params[0]", &base_node, &first_param, &[8]),
            ("params[1]", &base_node, &second_param, &[8]),
            ("one statistic bit", &one_bit, &base_meta, &[8]),
            ("candidate count", &base_node, &base_meta, &[8, 8]),
            ("candidate value", &base_node, &base_meta, &[9]),
        ];
        for (round, expect_hit) in [(0, false), (1, true)] {
            for (name, node, m, partitions) in variants {
                let before = cached.cache_stats();
                let got = cached.exclusive_cost_batch(node, partitions, m);
                let after = cached.cache_stats();
                assert_eq!(
                    (after.hits - before.hits, after.misses - before.misses),
                    if expect_hit { (1, 0) } else { (0, 1) },
                    "round {round}, {name}"
                );
                let reference = uncached.exclusive_cost_batch(node, partitions, m);
                assert_eq!(got.len(), reference.len());
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round}, {name}");
                }
            }
        }
    }

    #[test]
    fn scalar_and_one_candidate_batch_share_an_entry() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let cached = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let uncached = LearnedCostModel::without_cache(predictor);
        let m = meta();
        let node = exchange_node(2e6, 8);
        let reference = uncached.exclusive_cost(&node, 24, &m);
        let scalar = cached.exclusive_cost(&node, 24, &m);
        let batch = cached.exclusive_cost_batch(&node, &[24], &m);
        assert_eq!(scalar.to_bits(), reference.to_bits());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].to_bits(), reference.to_bits());
        assert_eq!(cached.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    /// Two jobs costed alternately on one thread: every call finds the *other*
    /// job remembered, so the per-job key material is re-derived each time and
    /// must never leak from one job into the other's key or feature rows.
    #[test]
    fn interleaved_jobs_stay_bit_identical_to_uncached() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let cached = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let uncached = LearnedCostModel::without_cache(predictor);
        // Built afresh for every call: a job is recognised by what its metadata
        // holds, not by where it lives.
        let job = |which: usize| JobMeta {
            normalized_inputs: [vec!["t".into()], vec!["u".into(), "t".into()]][which].clone(),
            params: [vec![0.5, 0.5], vec![0.5]][which].clone(),
            ..meta()
        };
        let nodes: Vec<PhysicalNode> = (1..=4).map(|i| exchange_node(3e5 * i as f64, 8)).collect();
        for _round in 0..2 {
            for node in &nodes {
                for p in [1, 16, 200] {
                    for which in [0, 1] {
                        let got = cached.exclusive_cost(node, p, &job(which));
                        let reference = uncached.exclusive_cost(node, p, &job(which));
                        assert_eq!(got.to_bits(), reference.to_bits(), "job {which}, P={p}");
                    }
                }
            }
        }
        let calls = 2 * nodes.len() * 3;
        assert_eq!(
            cached.cache_stats(),
            CacheStats {
                hits: calls,
                misses: calls
            }
        );
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let model = LearnedCostModel::with_cache_capacity(u_shape_predictor(), 64);
        let m = meta();
        // Far more distinct (rows, partitions) combinations than capacity: the
        // sharded reset must keep this from growing unboundedly, and every
        // prediction must stay correct (spot-checked against a fresh model).
        for i in 0..400 {
            let node = exchange_node(1e5 + 1e3 * i as f64, 4);
            let c = model.exclusive_cost(&node, 4 + (i % 13), &m);
            assert!(c > 0.0);
        }
        let stats = model.cache_stats();
        assert_eq!(stats.hits + stats.misses, 400);
    }

    #[test]
    fn coalesced_sweeps_are_bit_identical_to_per_sweep_batches() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let coalesced = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let reference = LearnedCostModel::without_cache(std::sync::Arc::clone(&predictor));
        let m = meta();

        // Several sweeps over distinct nodes (distinct statistics → several
        // rows per merged matrix) plus a repeated sweep (cache-hit path inside
        // the coalesced call).
        let nodes: Vec<PhysicalNode> = (0..5)
            .map(|i| exchange_node(1e5 * (i + 1) as f64, 8))
            .collect();
        let candidates: Vec<Vec<usize>> = (0..5).map(|i| vec![1 + i, 8, 64 + i]).collect();
        let build = |dup: bool| {
            let mut sweeps: Vec<SweepSpec> = nodes
                .iter()
                .zip(&candidates)
                .map(|(node, partitions)| SweepSpec {
                    node,
                    partitions,
                    meta: &m,
                })
                .collect();
            if dup {
                sweeps.push(SweepSpec {
                    node: &nodes[0],
                    partitions: &candidates[0],
                    meta: &m,
                });
            }
            sweeps
        };

        // Cold pass (every sweep misses → merged matrix) and a warm pass with
        // a duplicate (hits + a recompute) must both match the per-sweep path.
        for dup in [false, true] {
            let sweeps = build(dup);
            let merged = coalesced.exclusive_cost_sweeps(&sweeps);
            let individual = reference.exclusive_cost_sweeps(&sweeps);
            assert_eq!(merged.len(), individual.len());
            for (sweep, (a, b)) in sweeps.iter().zip(merged.iter().zip(&individual)) {
                assert_eq!(a.len(), sweep.partitions.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "node {:?}", sweep.node.kind);
                }
            }
        }
        // Invocation accounting matches the per-candidate convention.
        let total: usize = candidates.iter().map(Vec::len).sum();
        assert_eq!(
            coalesced.invocation_count(),
            2 * total + candidates[0].len()
        );
        let stats = coalesced.cache_stats();
        assert!(stats.misses >= 5, "cold sweeps must miss: {stats:?}");
        assert!(stats.hits >= 5, "warm sweeps must hit: {stats:?}");
    }

    #[test]
    fn partition_coefficients_recover_u_shape() {
        let model = LearnedCostModel::new(u_shape_predictor());
        let node = exchange_node(1e6, 8);
        let (theta_p, theta_c) = model.partition_coefficients(&node, &meta()).unwrap();
        // Positive work term and positive per-partition term.
        assert!(theta_p > 0.0, "theta_p = {theta_p}");
        assert!(theta_c > 0.0, "theta_c = {theta_c}");
        // The implied optimum should be in a plausible mid range, not 1 or max.
        let optimum = (theta_p / theta_c).sqrt();
        assert!(optimum > 2.0 && optimum < 2500.0, "optimum {optimum}");
    }
}
