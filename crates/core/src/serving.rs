//! The async serving front end: admission, backpressure, and cross-job batch
//! coalescing in front of the shard worker pools.
//!
//! The sharded tier of [`crate::sharding`] made *where* a job is served
//! contention-free; this module makes *how* requests reach the workers
//! realistic.  An open-loop arrival process (requests arrive on their own
//! schedule, whether or not the system keeps up)
//! feeds a [`FrontDoor`]: each request is admitted against a bounded per-shard
//! queue ([`FrontDoorConfig::max_queue_depth`]), shed or flagged as delayed
//! past the bound ([`OverloadPolicy`]), and handed to the pool.
//!
//! The front door is **work-conserving**: a request goes to the pool inside
//! its own `offer` unless its shard already has a full batch
//! ([`FrontDoorConfig::coalesce_max`] jobs) queued and unclaimed there.  Only
//! behind such a backlog, where it could not have started anyway, is it held
//! and merged with later same-shard arrivals into one batch of at most
//! `coalesce_max` jobs, executed by [`serve_batch`].  A held batch leaves when
//! it is full, or with the next offer (to any shard) that finds the backlog
//! below a full batch, or at the drain.
//!
//! What batching buys is measured, and it is not service time: each job of a
//! batch is optimized as it would be alone, and each already costs every step
//! of its optimization in one model call (a job's cache misses share one
//! predictor pass).  Merging the final costing of a whole batch into one call
//! as well was measured and removed: it was slower than costing job by job,
//! cold or warm (README, *Ablation ledger*).  Batching buys hand-off
//! amortisation under backlog, one queue push, wake-up and ticket per batch
//! instead of per job: without it (`coalesce_max = 1`) a saturated
//! single-worker pool serves a fifth fewer jobs per second (cleobench
//! `open_sat`, 39.4K → 31.7K).  Holding a request at an idle pool bought
//! nothing and cost its whole latency, which is why the hold is conditional.
//!
//! Results stay bit-deterministic: whatever batches form, each is identical
//! to optimizing its jobs alone (pinned by the serving tests), and the arrival
//! schedule is a pure function of its seed.  Batch *membership* depends on
//! how far the workers have got, except under a paused pool or
//! `coalesce_max = 1`, where it is a pure function of the offer order.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_common::obs::{self, Obs, TraceEvent};
use cleo_common::{CleoError, Result};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{OptimizedPlan, SharedOptimizer, SnapshotCache};

use crate::sharding::{ServingPool, Ticket};

/// Optimize a batch of jobs against one [`SharedOptimizer`], in job order,
/// each through the worker-local `cache` (an unchanged route takes no
/// registry lock).  Every job is costed exactly as
/// [`SharedOptimizer::optimize_cached`] costs it alone: batching amortises the
/// hand-off to the pool, not the costing (see the module docs).
pub fn serve_batch(
    shared: &SharedOptimizer,
    jobs: &[Arc<JobSpec>],
    cache: &mut SnapshotCache,
) -> Vec<Result<OptimizedPlan>> {
    jobs.iter()
        .map(|job| shared.optimize_cached(job, cache))
        .collect()
}

/// What the front door does with a request that arrives past the admission
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the request (counted in [`FrontDoorStats::shed`]); the caller gets
    /// [`Admission::Shed`] and no result.
    Shed,
    /// Queue the request anyway, flagging it as delayed (counted in
    /// [`FrontDoorStats::delayed`]) — latency absorbs the backlog.
    Delay,
}

/// Admission and coalescing knobs of a [`FrontDoor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontDoorConfig {
    /// Per-shard admission bound: jobs queued at the pool plus jobs staged for
    /// coalescing.  A request arriving at a shard at or past this depth is
    /// shed or delayed per `policy`.
    pub max_queue_depth: usize,
    /// What to do past the bound.
    pub policy: OverloadPolicy,
    /// Batch-size cap under backlog (1 = no coalescing).  A request is held
    /// for coalescing only while its shard already has at least this many
    /// jobs queued and unclaimed at the pool; held requests leave as one batch
    /// once this many are staged or the backlog falls below a full batch,
    /// whichever comes first.  It is not a quota: a request never waits for
    /// later arrivals to fill its batch.
    pub coalesce_max: usize,
    /// Per-request deadline, measured from the request's offer.  A request
    /// whose batch has not completed by its deadline resolves as expired
    /// ([`FrontDoorStats::expired`]) instead of blocking [`FrontDoor::drain`]
    /// forever.  `None` (the default) waits indefinitely — bit-identical to
    /// the pre-deadline front door.
    pub deadline: Option<Duration>,
    /// Bounded retries for requests whose job came back with an error: the
    /// request is resubmitted as a fresh single-job batch up to this many
    /// times (within its deadline), then resolves with the error
    /// ([`FrontDoorStats::errored`]).  0 (the default) never retries.
    pub max_retries: u32,
    /// Backoff slept before retry `k` (scaled linearly: `k * retry_backoff`).
    pub retry_backoff: Duration,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            max_queue_depth: 64,
            policy: OverloadPolicy::Shed,
            coalesce_max: 8,
            deadline: None,
            max_retries: 0,
            retry_backoff: Duration::ZERO,
        }
    }
}

/// The front door's verdict on one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued below the bound.
    Admitted,
    /// Queued past the bound under [`OverloadPolicy::Delay`].
    Delayed,
    /// Dropped past the bound under [`OverloadPolicy::Shed`].
    Shed,
}

/// Cumulative admission counters of a [`FrontDoor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontDoorStats {
    /// Requests queued below the admission bound.
    pub admitted: u64,
    /// Requests queued past the bound (delay policy).
    pub delayed: u64,
    /// Requests dropped past the bound (shed policy).
    pub shed: u64,
    /// Coalesced batches submitted to the pool (including retry resubmits).
    pub batches: u64,
    /// Retry resubmits of errored requests (events, not terminal outcomes —
    /// a retried request still ends completed, expired, or errored).
    pub retried: u64,
    /// Requests that expired at their deadline before their batch completed.
    pub expired: u64,
    /// Requests that resolved with a job error after exhausting retries.
    pub errored: u64,
}

impl FrontDoorStats {
    /// Requests offered in total.
    pub fn offered(&self) -> u64 {
        self.admitted + self.delayed + self.shed
    }

    /// Fraction of offered requests dropped (0.0 when none were offered).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }
}

/// One request's outcome after [`FrontDoor::drain`].
pub struct CompletedRequest {
    /// The request's arrival sequence number (assigned by offer order).
    pub request: usize,
    /// When the request's batch was first handed to the pool: offer to here
    /// is the time the front door held it for coalescing (a retry keeps the
    /// first submission's instant).
    pub submitted_at: Instant,
    /// When the request's batch finished executing (or when it expired).
    pub completed_at: Instant,
    /// The optimized plan, or the terminal error: the per-job optimization
    /// error (retries exhausted) or [`CleoError::Unavailable`] for an expired
    /// deadline / dead worker.
    pub result: Result<OptimizedPlan>,
}

/// Everything [`FrontDoor::drain_report`] accounts for: the completed
/// requests plus the final counters (which retries and expiries mutate during
/// the drain itself).  The zero-loss invariant — every offered request is
/// exactly one of shed, completed-ok, expired, or errored — is checkable from
/// these fields alone and pinned by the chaos tests.
pub struct DrainReport {
    /// All non-shed requests, sorted by arrival sequence.
    pub completed: Vec<CompletedRequest>,
    /// Final admission/outcome counters.
    pub stats: FrontDoorStats,
    /// Per-shard queue-depth high-water marks observed at admission (pool
    /// backlog plus staged requests), aligned with the pool's shards.  Also
    /// published as `front_door.shard{N}.queue_high_water` gauges when the
    /// pool carries an [`Obs`] registry.
    pub queue_high_water: Vec<usize>,
}

/// One admitted request, staged or riding a pool ticket.
struct InFlightRequest {
    /// Arrival sequence number.
    request: usize,
    /// The job, kept for deadline-bounded retry resubmission.
    job: Arc<JobSpec>,
    /// Executions so far (0 = first).
    attempt: u32,
    /// When the request was offered — deadlines measure from here.
    offered_at: Instant,
}

/// One submitted batch: its pool ticket and its members' place in
/// [`FrontDoor::members`].
struct InFlightBatch {
    ticket: Ticket,
    /// The batch is `members[start..start + len]`, in batch order.
    start: usize,
    len: usize,
    /// When the batch was handed to the pool (a retry inherits its first
    /// batch's instant).
    submitted_at: Instant,
}

/// The single-driver serving front end: an open-loop request loop calls
/// [`FrontDoor::offer`] per arriving request; the front door admits against
/// bounded per-shard queues, submits requests to the [`ServingPool`] at once
/// while the shard's worker can still take them, and coalesces same-shard
/// requests into batches behind a backlog.  `&mut self` throughout — one
/// driver thread owns admission (matching an event-loop front end), while all
/// optimization work happens on the pool's workers.
pub struct FrontDoor {
    pool: Arc<ServingPool>,
    config: FrontDoorConfig,
    /// Per-shard requests held behind a full batch of queued work.  The
    /// buffers are drained, never replaced, so each allocates once.
    staging: Vec<Vec<InFlightRequest>>,
    /// Every submitted request, batch after batch (one allocation for all
    /// batches, however small they are).
    members: Vec<InFlightRequest>,
    /// In-flight batches in submission order.
    in_flight: Vec<InFlightBatch>,
    next_request: usize,
    stats: FrontDoorStats,
    /// Per-shard queue-depth high-water marks (admission-time backlog).
    high_water: Vec<usize>,
    /// Observability seam, inherited from the pool's [`SharedOptimizer`]
    /// (`None` = production path, no events, no metrics).
    obs: Option<Arc<Obs>>,
}

impl FrontDoor {
    /// A front door over a pool.  The front door inherits the pool's
    /// observability handle (see `SharedOptimizer::with_obs`), so admission
    /// and batch-formation events flow into the same registry as the pool's
    /// worker counters.
    pub fn new(pool: Arc<ServingPool>, config: FrontDoorConfig) -> Self {
        let shards = pool.shard_count();
        let obs = pool.shared().obs().cloned();
        FrontDoor {
            pool,
            config,
            staging: (0..shards).map(|_| Vec::new()).collect(),
            members: Vec::new(),
            in_flight: Vec::new(),
            next_request: 0,
            stats: FrontDoorStats::default(),
            high_water: vec![0; shards],
            obs,
        }
    }

    /// Emit one admission trace event (no-op without an [`Obs`] handle).  The
    /// sequence is the request's arrival number — admission is single-driver,
    /// so the event stream is identical however many workers serve the pool.
    fn emit_admission(&self, request: usize, shard: usize, verdict: obs::AdmissionKind) {
        if let Some(obs) = &self.obs {
            obs.emit(TraceEvent::Admission {
                seq: request as u64,
                shard: shard as u16,
                verdict,
            });
        }
    }

    /// The pool shard a job is admitted to (its cluster id, wrapped onto the
    /// pool's shards — the same pinning the pool's workers use).
    fn shard_of(&self, job: &JobSpec) -> usize {
        job.meta.cluster.0 as usize % self.staging.len().max(1)
    }

    /// Offer one arriving request.  Returns what happened to it; shed requests
    /// never produce a [`CompletedRequest`].
    ///
    /// Work-conserving: the request (with anything staged before it) goes to
    /// the pool at once unless its shard already has a full batch
    /// ([`FrontDoorConfig::coalesce_max`] jobs) queued and unclaimed there, in
    /// which case it is held and leaves with the next batch.  Every offer also
    /// releases other shards' held requests whose backlog has since fallen
    /// below a full batch, so nothing waits for the drain while requests keep
    /// arriving.
    pub fn offer(&mut self, job: Arc<JobSpec>) -> Admission {
        let shard = self.shard_of(&job);
        let request = self.next_request;
        self.next_request += 1;

        let pending = self.pool.pending_jobs(shard);
        let depth = pending + self.staging[shard].len();
        let over = depth >= self.config.max_queue_depth;
        if over && self.config.policy == OverloadPolicy::Shed {
            self.stats.shed += 1;
            self.emit_admission(request, shard, obs::AdmissionKind::Shed);
            return Admission::Shed;
        }
        self.high_water[shard] = self.high_water[shard].max(depth + 1);
        self.staging[shard].push(InFlightRequest {
            request,
            job,
            attempt: 0,
            offered_at: Instant::now(),
        });
        let cap = self.config.coalesce_max.max(1);
        if pending < cap || self.staging[shard].len() >= cap {
            self.flush_shard(shard);
        }
        for other in 0..self.staging.len() {
            if other != shard
                && !self.staging[other].is_empty()
                && self.pool.pending_jobs(other) < cap
            {
                self.flush_shard(other);
            }
        }
        if over {
            self.stats.delayed += 1;
            self.emit_admission(request, shard, obs::AdmissionKind::Delayed);
            Admission::Delayed
        } else {
            self.stats.admitted += 1;
            self.emit_admission(request, shard, obs::AdmissionKind::Admitted);
            Admission::Admitted
        }
    }

    /// Submit one shard's staged batch to the pool (no-op when empty).
    fn flush_shard(&mut self, shard: usize) {
        let staged = &mut self.staging[shard];
        if staged.is_empty() {
            return;
        }
        if let Some(obs) = &self.obs {
            // Batch identity = its first member's request number.  Membership
            // depends on how far the pool has got, so this event is invariant
            // across worker counts only for a paused pool or coalesce_max = 1.
            obs.emit(TraceEvent::Batch {
                seq: staged[0].request as u64,
                shard: shard as u16,
                jobs: staged.len() as u32,
            });
        }
        let jobs: Vec<Arc<JobSpec>> = staged.iter().map(|m| Arc::clone(&m.job)).collect();
        let submitted_at = Instant::now();
        let ticket = self.pool.submit(shard, jobs);
        self.in_flight.push(InFlightBatch {
            ticket,
            start: self.members.len(),
            len: staged.len(),
            submitted_at,
        });
        self.members.append(staged);
        self.stats.batches += 1;
    }

    /// Flush every shard's staged batch (end of the arrival stream, or a
    /// latency-bound tick).
    pub fn flush(&mut self) {
        for shard in 0..self.staging.len() {
            self.flush_shard(shard);
        }
    }

    /// Admission counters so far.
    pub fn stats(&self) -> FrontDoorStats {
        self.stats
    }

    /// Requests staged or in flight (i.e. offered, not shed, not yet waited).
    pub fn outstanding(&self) -> usize {
        self.staging.iter().map(Vec::len).sum::<usize>() + self.members.len()
    }

    /// Flush everything still staged, wait for every in-flight batch, and
    /// return all completed requests sorted by arrival sequence.  See
    /// [`FrontDoor::drain_report`] for the version that also returns the
    /// final counters.
    pub fn drain(self) -> Vec<CompletedRequest> {
        self.drain_report().completed
    }

    /// Flush everything still staged and resolve every non-shed request to
    /// exactly one terminal outcome:
    ///
    /// * a batch that completes delivers its results; per-job errors are
    ///   retried up to [`FrontDoorConfig::max_retries`] times (with linear
    ///   backoff, as fresh single-job batches) while the request's deadline
    ///   allows, then resolve as errored;
    /// * with a [`FrontDoorConfig::deadline`], a batch that has not completed
    ///   by its last member's deadline resolves every member as expired
    ///   ([`CleoError::Unavailable`]) — the drain never blocks indefinitely
    ///   on a stalled or dead worker.
    pub fn drain_report(mut self) -> DrainReport {
        self.flush();
        // Offer-to-completion latency and offer-to-submit hold, recorded per
        // resolved request (wall clock, so metrics rather than pinned trace
        // events).
        let hists = self.obs.as_ref().map(|obs| {
            let metrics = obs.metrics();
            (
                metrics.histogram("front_door.latency"),
                metrics.histogram("front_door.hold"),
            )
        });
        let mut members = std::mem::take(&mut self.members);
        let mut completed: Vec<CompletedRequest> = Vec::with_capacity(members.len());
        let mut resolve = |member: &InFlightRequest,
                           submitted_at: Instant,
                           completed_at: Instant,
                           result: Result<OptimizedPlan>| {
            if let Some((latency, hold)) = &hists {
                latency.record(completed_at.saturating_duration_since(member.offered_at));
                hold.record(submitted_at.saturating_duration_since(member.offered_at));
            }
            completed.push(CompletedRequest {
                request: member.request,
                submitted_at,
                completed_at,
                result,
            });
        };
        let mut queue: VecDeque<InFlightBatch> = self.in_flight.drain(..).collect();
        while let Some(InFlightBatch {
            ticket,
            start,
            len,
            submitted_at,
        }) = queue.pop_front()
        {
            let batch = match self.config.deadline {
                None => Some(ticket.wait()),
                Some(deadline) => {
                    // Wait as long as any member might still make its
                    // deadline (floored so a past-due wait still polls once).
                    let latest = members[start..start + len]
                        .iter()
                        .map(|m| m.offered_at + deadline)
                        .max()
                        .expect("batches are never empty");
                    let timeout = latest
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    ticket.wait_timeout(timeout)
                }
            };
            let Some(batch) = batch else {
                let now = Instant::now();
                for member in &members[start..start + len] {
                    self.stats.expired += 1;
                    let expired = CleoError::Unavailable(format!(
                        "request {} expired at its deadline",
                        member.request
                    ));
                    resolve(member, submitted_at, now, Err(expired));
                }
                continue;
            };
            debug_assert_eq!(batch.results.len(), len);
            for (slot, result) in (start..start + len).zip(batch.results) {
                let member = &mut members[slot];
                let error = match result {
                    Ok(plan) => {
                        resolve(member, submitted_at, batch.completed_at, Ok(plan));
                        continue;
                    }
                    Err(error) => error,
                };
                let within_deadline = self
                    .config
                    .deadline
                    .is_none_or(|d| Instant::now() < member.offered_at + d);
                if member.attempt < self.config.max_retries && within_deadline {
                    self.stats.retried += 1;
                    member.attempt += 1;
                    if !self.config.retry_backoff.is_zero() {
                        std::thread::sleep(self.config.retry_backoff * member.attempt);
                    }
                    let shard = self.shard_of(&member.job);
                    let ticket = self.pool.submit(shard, vec![Arc::clone(&member.job)]);
                    self.stats.batches += 1;
                    // The retry rides its own ticket from the same slot.
                    queue.push_back(InFlightBatch {
                        ticket,
                        start: slot,
                        len: 1,
                        submitted_at,
                    });
                } else {
                    self.stats.errored += 1;
                    resolve(member, submitted_at, batch.completed_at, Err(error));
                }
            }
        }
        completed.sort_by_key(|c| c.request);
        if let Some(obs) = &self.obs {
            // Surface the admission-time backlog peaks: one gauge per shard,
            // monotone across repeated drains via `set_max`.
            let metrics = obs.metrics();
            for (shard, &mark) in self.high_water.iter().enumerate() {
                metrics
                    .gauge(&format!("front_door.shard{shard}.queue_high_water"))
                    .set_max(mark as u64);
            }
        }
        DrainReport {
            completed,
            stats: self.stats,
            queue_high_water: self.high_water,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_door_stats_rates() {
        let stats = FrontDoorStats {
            admitted: 6,
            delayed: 2,
            shed: 2,
            batches: 3,
            retried: 1,
            expired: 0,
            errored: 0,
        };
        assert_eq!(stats.offered(), 10);
        assert!((stats.shed_rate() - 0.2).abs() < 1e-12);
        assert_eq!(FrontDoorStats::default().shed_rate(), 0.0);
    }
}
