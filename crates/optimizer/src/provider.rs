//! Shared-model serving: the seam between the optimizer and a *changing* cost model.
//!
//! The paper's deployment (Section 5.1) retrains models continuously while the
//! optimizer keeps serving jobs.  [`Optimizer`] borrows one immutable
//! [`CostModel`] for its lifetime — correct for a single optimization, but a serving
//! loop needs "whichever model version is current *when this job starts*".
//! [`CostModelProvider`] is that seam: it hands out an owning [`Arc`] snapshot of the
//! current model, so a publish happening mid-job can never pull the model out from
//! under an optimization in flight, and readers never coordinate with each other.
//!
//! [`SharedOptimizer`] drives the provider: every job snapshots the provider once,
//! optimizes against that snapshot, and stamps the model version into the plan's
//! [`OptimizationStats`](crate::OptimizationStats) — which is how version
//! provenance flows into telemetry.

use std::sync::Arc;

use cleo_common::concurrency::par_map;
use cleo_common::obs::Obs;
use cleo_common::Result;
use cleo_engine::physical::JobMeta;
use cleo_engine::types::ClusterId;
use cleo_engine::workload::JobSpec;

use crate::cost::CostModel;
use crate::optimizer::{OptimizedPlan, Optimizer, OptimizerConfig};

/// One served model snapshot together with its provenance: the version stamp
/// and (for sharded providers) the cluster whose registry shard it came from.
#[derive(Clone)]
pub struct ServedModel {
    /// The cost model to optimize against.
    pub model: Arc<dyn CostModel>,
    /// Monotone version of the model (0 = unversioned / fallback).
    pub version: u64,
    /// Cluster whose shard served the model: the job's own cluster, a donor
    /// cluster under cross-cluster fallback, or `None` for unsharded providers
    /// and the version-0 fallback model.
    pub cluster: Option<ClusterId>,
    /// When the served version was published as a sub-epoch delta, the
    /// incumbent version the delta was applied over; `None` for full-epoch
    /// versions and the fallback model.  Flows into
    /// [`OptimizationStats::model_delta_base`](crate::OptimizationStats::model_delta_base)
    /// and from there into telemetry.
    pub delta_base: Option<u64>,
}

/// A source of cost-model snapshots for concurrent serving.
///
/// Implementations must be cheap to call (an atomic pointer read / short critical
/// section): [`SharedOptimizer`] calls [`CostModelProvider::snapshot_for`] once
/// per job.
pub trait CostModelProvider: Send + Sync {
    /// Snapshot the model to use for a job starting now.  The returned [`Arc`] keeps
    /// the snapshot alive for the whole optimization even if a newer version is
    /// published concurrently.
    fn current(&self) -> Arc<dyn CostModel>;

    /// Monotone version stamp of the model [`CostModelProvider::current`] would
    /// return (0 = an unversioned / fallback model).  Stamped into every optimized
    /// plan's [`OptimizationStats`](crate::OptimizationStats).
    fn current_version(&self) -> u64 {
        0
    }

    /// Snapshot the model *and* its version as one consistent pair.  Providers
    /// backed by a mutable registry should override this so a publish landing
    /// between the two reads cannot mislabel a plan's provenance.
    fn snapshot(&self) -> (Arc<dyn CostModel>, u64) {
        (self.current(), self.current_version())
    }

    /// Route-aware snapshot for one specific job: the seam sharded providers
    /// override to resolve the job's cluster to a registry shard (and walk a
    /// fallback chain when that shard is cold).  The default ignores the job
    /// and serves [`CostModelProvider::snapshot`], so unsharded providers need
    /// not care that routing exists.
    fn snapshot_for(&self, meta: &JobMeta) -> ServedModel {
        let _ = meta;
        let (model, version) = self.snapshot();
        ServedModel {
            model,
            version,
            cluster: None,
            delta_base: None,
        }
    }

    /// A cheap, lock-free stamp that changes whenever the model
    /// [`CostModelProvider::snapshot_for`] would return for `meta` may have
    /// changed.  [`SnapshotCache`] keys worker-local snapshot reuse on it, so
    /// the per-job registry lock traffic and `Arc` refcount ping-pong of the
    /// snapshot-load path collapse to one atomic load per job on an unchanged
    /// route.  Return [`ROUTE_UNCACHEABLE`] (the default) when no such stamp
    /// exists; the cache then falls back to a fresh snapshot per job.
    fn route_stamp(&self, meta: &JobMeta) -> u64 {
        let _ = meta;
        ROUTE_UNCACHEABLE
    }

    /// Invoked by [`SnapshotCache`] when it serves a job from a cached
    /// snapshot instead of calling [`CostModelProvider::snapshot_for`], so
    /// providers that count routing outcomes per job stay exact.  The default
    /// does nothing.
    fn note_cached_route(&self, meta: &JobMeta, served: &ServedModel) {
        let _ = (meta, served);
    }

    /// Whether this provider wants per-batch serving outcomes reported back
    /// via [`CostModelProvider::note_serving_outcomes`].  Serving pools check
    /// this once per batch so providers that don't track health (the default)
    /// pay nothing.
    fn wants_serving_outcomes(&self) -> bool {
        false
    }

    /// Report the per-job outcomes of one served batch: `(cluster, ok)` per
    /// job, where `batch_seq` is the pool's submission sequence for the batch.
    /// Sequences are assigned contiguously from 0, so providers that need a
    /// deterministic outcome order (e.g. circuit breakers whose trip decisions
    /// must not depend on worker count) can fold batches in `batch_seq` order
    /// regardless of which worker finished first.  The default does nothing.
    fn note_serving_outcomes(&self, batch_seq: u64, outcomes: &[(ClusterId, bool)]) {
        let _ = (batch_seq, outcomes);
    }
}

/// Sentinel [`CostModelProvider::route_stamp`] value: "no stamp available,
/// never cache" — every job takes a fresh snapshot.
pub const ROUTE_UNCACHEABLE: u64 = u64::MAX;

/// A worker-local memo of [`CostModelProvider::snapshot_for`] results, keyed
/// by the job's cluster and invalidated by the provider's
/// [`CostModelProvider::route_stamp`].
///
/// Owning one `Arc` snapshot per job is correct but contended: at fleet
/// throughput the registry's reader lock and the snapshot's refcount become
/// shared cachelines that every serving thread bounces.  Each serving worker
/// instead keeps one `SnapshotCache`; while a shard's stamp is unchanged the
/// worker re-borrows its cached [`ServedModel`] — no lock, no refcount
/// traffic — and a publish (stamp change) refreshes the entry on the next job.
/// Routing counters stay exact: cached reuse is reported back through
/// [`CostModelProvider::note_cached_route`].
#[derive(Default)]
pub struct SnapshotCache {
    /// Cluster id → (stamp, snapshot).  `ClusterId` is a `u8`, so 256 slots.
    entries: Vec<Option<(u64, ServedModel)>>,
    /// Holding slot for uncacheable routes (so `get` can always hand out a
    /// reference with the cache's lifetime).
    transient: Option<ServedModel>,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        SnapshotCache {
            entries: Vec::new(),
            transient: None,
        }
    }

    /// The snapshot to serve `meta` with, reusing the cached one while the
    /// provider's route stamp is unchanged.
    pub fn get<'a>(
        &'a mut self,
        provider: &dyn CostModelProvider,
        meta: &JobMeta,
    ) -> &'a ServedModel {
        let stamp = provider.route_stamp(meta);
        if stamp == ROUTE_UNCACHEABLE {
            self.transient = Some(provider.snapshot_for(meta));
            return self.transient.as_ref().expect("just stored");
        }
        if self.entries.is_empty() {
            self.entries = vec![None; 256];
        }
        let slot = meta.cluster.0 as usize;
        match &self.entries[slot] {
            Some((cached_stamp, served)) if *cached_stamp == stamp => {
                provider.note_cached_route(meta, served);
            }
            _ => {
                let served = provider.snapshot_for(meta);
                // Re-read the stamp after fetching: if a publish (or rollback)
                // landed in between, the snapshot may not belong to either
                // stamp, so serve it once without caching rather than pin a
                // mismatched (stamp, snapshot) pair.
                if provider.route_stamp(meta) != stamp {
                    self.transient = Some(served);
                    return self.transient.as_ref().expect("just stored");
                }
                self.entries[slot] = Some((stamp, served));
            }
        }
        &self.entries[slot].as_ref().expect("just checked").1
    }
}

/// The trivial provider: always serves the same model (version 0).
///
/// This is what turns any plain [`CostModel`] into a [`CostModelProvider`] — the
/// one-shot pipelines and baselines use it so they run through the exact same
/// serving path as the feedback loop.
pub struct FixedCostModel {
    model: Arc<dyn CostModel>,
}

impl FixedCostModel {
    /// Wrap a model.
    pub fn new(model: Arc<dyn CostModel>) -> Self {
        FixedCostModel { model }
    }
}

impl CostModelProvider for FixedCostModel {
    fn current(&self) -> Arc<dyn CostModel> {
        Arc::clone(&self.model)
    }

    /// The served model never changes, so any constant stamp is valid.
    fn route_stamp(&self, _meta: &JobMeta) -> u64 {
        0
    }
}

/// An optimizer front-end that serves jobs against a [`CostModelProvider`].
///
/// Unlike [`Optimizer`], it holds no model borrow, so one instance can serve many
/// jobs concurrently while model versions are published underneath it.
pub struct SharedOptimizer {
    provider: Arc<dyn CostModelProvider>,
    config: OptimizerConfig,
    obs: Option<Arc<Obs>>,
}

impl SharedOptimizer {
    /// Create a serving optimizer over a provider.
    pub fn new(provider: Arc<dyn CostModelProvider>, config: OptimizerConfig) -> Self {
        SharedOptimizer {
            provider,
            config,
            obs: None,
        }
    }

    /// Attach an observability handle.  The serving stack built over this
    /// optimizer (pools, front doors) picks the handle up from here, so one
    /// attach point instruments the whole path; `None` (the default) is the
    /// zero-cost production path.
    pub fn with_obs(mut self, obs: Option<Arc<Obs>>) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The provider being served from.
    pub fn provider(&self) -> &Arc<dyn CostModelProvider> {
        &self.provider
    }

    /// Optimize one job against the model snapshot routed for it, stamping the
    /// snapshot's version (and serving cluster, for sharded providers) into the
    /// plan's stats.
    pub fn optimize(&self, job: &JobSpec) -> Result<OptimizedPlan> {
        let served = self.provider.snapshot_for(&job.meta);
        let mut optimized = Optimizer::new(served.model.as_ref(), self.config).optimize(job)?;
        optimized.stats.model_version = served.version;
        optimized.stats.model_cluster = served.cluster;
        optimized.stats.model_delta_base = served.delta_base;
        Ok(optimized)
    }

    /// [`SharedOptimizer::optimize`] through a worker-local [`SnapshotCache`]:
    /// an unchanged route re-borrows the worker's cached snapshot instead of
    /// taking registry locks and `Arc` clones per job.
    pub fn optimize_cached(
        &self,
        job: &JobSpec,
        cache: &mut SnapshotCache,
    ) -> Result<OptimizedPlan> {
        let served = cache.get(self.provider.as_ref(), &job.meta);
        let mut optimized = Optimizer::new(served.model.as_ref(), self.config).optimize(job)?;
        optimized.stats.model_version = served.version;
        optimized.stats.model_cluster = served.cluster;
        optimized.stats.model_delta_base = served.delta_base;
        Ok(optimized)
    }

    /// Optimize a batch of jobs on `threads` OS threads (`0` = every core,
    /// via [`par_map`]; each worker keeps one [`SnapshotCache`]).  Every job
    /// is optimized at every thread count and the results come back in job
    /// order; on failure the first error in job order is returned.  Each job
    /// snapshots the provider independently, so a concurrent publish simply
    /// means later jobs see the newer version.
    pub fn optimize_all(&self, jobs: &[&JobSpec], threads: usize) -> Result<Vec<OptimizedPlan>> {
        par_map(jobs.to_vec(), threads, SnapshotCache::new, |cache, job| {
            self.optimize_cached(job, cache)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HeuristicCostModel;
    use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
    use cleo_engine::logical::LogicalNode;
    use cleo_engine::physical::JobMeta;
    use cleo_engine::types::{ClusterId, DayIndex, JobId};

    fn job(id: u64) -> JobSpec {
        let mut catalog = Catalog::new();
        catalog.add_table(TableDef::new(
            "facts",
            vec![
                ColumnDef::new("k", 8.0, 0.1),
                ColumnDef::new("v", 40.0, 0.8),
            ],
            1e7,
            16,
        ));
        let plan = LogicalNode::get("facts")
            .filter("v > 1", 0.3, 0.2)
            .aggregate(vec!["k".into()], 0.05, 0.02)
            .output("out");
        JobSpec {
            meta: JobMeta {
                id: JobId(id),
                cluster: ClusterId(0),
                template: None,
                name: format!("provider_test_{id}"),
                normalized_inputs: vec!["facts".into()],
                params: vec![],
                day: DayIndex(0),
                recurring: true,
            },
            plan,
            catalog,
        }
    }

    #[test]
    fn fixed_provider_serves_version_zero() {
        let provider = Arc::new(FixedCostModel::new(Arc::new(
            HeuristicCostModel::default_model(),
        )));
        assert_eq!(provider.current_version(), 0);
        let shared = SharedOptimizer::new(provider, OptimizerConfig::default());
        let plan = shared.optimize(&job(1)).unwrap();
        assert_eq!(plan.stats.model_version, 0);
        assert_eq!(
            plan.stats.model_cluster, None,
            "unsharded providers route nowhere"
        );
        assert!(plan.estimated_cost > 0.0);
    }

    #[test]
    fn snapshot_cache_reuses_until_the_stamp_changes() {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

        /// Provider with a controllable stamp, counting snapshot loads and
        /// cached-route notifications.
        struct Stamped {
            model: Arc<dyn CostModel>,
            stamp: AtomicU64,
            loads: AtomicUsize,
            cached_notes: AtomicUsize,
        }
        impl CostModelProvider for Stamped {
            fn current(&self) -> Arc<dyn CostModel> {
                Arc::clone(&self.model)
            }
            fn current_version(&self) -> u64 {
                self.stamp.load(Ordering::Relaxed)
            }
            fn snapshot_for(&self, meta: &JobMeta) -> ServedModel {
                self.loads.fetch_add(1, Ordering::Relaxed);
                let _ = meta;
                ServedModel {
                    model: Arc::clone(&self.model),
                    version: self.stamp.load(Ordering::Relaxed),
                    cluster: None,
                    delta_base: None,
                }
            }
            fn route_stamp(&self, _meta: &JobMeta) -> u64 {
                self.stamp.load(Ordering::Relaxed)
            }
            fn note_cached_route(&self, _meta: &JobMeta, _served: &ServedModel) {
                self.cached_notes.fetch_add(1, Ordering::Relaxed);
            }
        }

        let provider = Stamped {
            model: Arc::new(HeuristicCostModel::default_model()),
            stamp: AtomicU64::new(1),
            loads: AtomicUsize::new(0),
            cached_notes: AtomicUsize::new(0),
        };
        let meta = job(1).meta;
        let mut cache = SnapshotCache::new();

        // First get loads; the next two reuse (and are reported back).
        assert_eq!(cache.get(&provider, &meta).version, 1);
        assert_eq!(cache.get(&provider, &meta).version, 1);
        assert_eq!(cache.get(&provider, &meta).version, 1);
        assert_eq!(provider.loads.load(Ordering::Relaxed), 1);
        assert_eq!(provider.cached_notes.load(Ordering::Relaxed), 2);

        // A publish (stamp change) invalidates exactly once.
        provider.stamp.store(2, Ordering::Relaxed);
        assert_eq!(cache.get(&provider, &meta).version, 2);
        assert_eq!(cache.get(&provider, &meta).version, 2);
        assert_eq!(provider.loads.load(Ordering::Relaxed), 2);
        assert_eq!(provider.cached_notes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn uncacheable_routes_take_a_fresh_snapshot_per_job() {
        /// The default `route_stamp` returns `ROUTE_UNCACHEABLE`.
        struct Plain {
            model: Arc<dyn CostModel>,
            loads: std::sync::atomic::AtomicUsize,
        }
        impl CostModelProvider for Plain {
            fn current(&self) -> Arc<dyn CostModel> {
                self.loads
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Arc::clone(&self.model)
            }
        }
        let provider = Plain {
            model: Arc::new(HeuristicCostModel::default_model()),
            loads: std::sync::atomic::AtomicUsize::new(0),
        };
        assert_eq!(provider.route_stamp(&job(1).meta), ROUTE_UNCACHEABLE);
        let mut cache = SnapshotCache::new();
        let meta = job(1).meta;
        cache.get(&provider, &meta);
        cache.get(&provider, &meta);
        assert_eq!(
            provider.loads.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "no stamp, no reuse"
        );
    }

    #[test]
    fn parallel_optimize_all_matches_serial_order_and_plans() {
        let provider: Arc<dyn CostModelProvider> = Arc::new(FixedCostModel::new(Arc::new(
            HeuristicCostModel::default_model(),
        )));
        let shared = SharedOptimizer::new(provider, OptimizerConfig::resource_aware());
        let jobs: Vec<JobSpec> = (0..12).map(job).collect();
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let serial = shared.optimize_all(&refs, 1).unwrap();
        let parallel = shared.optimize_all(&refs, 4).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.plan.meta.id, p.plan.meta.id);
            assert_eq!(s.estimated_cost.to_bits(), p.estimated_cost.to_bits());
            assert_eq!(s.plan.op_count(), p.plan.op_count());
        }
    }
}
