//! Seeded, deterministic fault injection for the serving and feedback stack.
//!
//! A [`FaultPlan`] is a *schedule* of injectable faults: whether a fault fires
//! at a given injection site is a pure function of `(seed, site, index)`, where
//! `index` is a deterministic counter owned by the site (a pool task's
//! submission sequence, a telemetry record's absolute index, an
//! `(epoch, cluster)` pair).  Because the decision never consults wall clocks,
//! thread ids, or interleavings, the same plan injects the same faults for one
//! worker thread or N — which is what makes chaos tests reproducible and lets
//! determinism suites pin "quarantine set is bit-identical 1 vs N threads
//! under a fixed fault seed".
//!
//! Plans are threaded through the production code as `Option<Arc<FaultPlan>>`:
//! the disabled path costs one pointer-nullness branch per site, and a `None`
//! plan is bit-identical to a plan whose rates are all zero (pinned by the
//! chaos tests).
//!
//! Each decision window is `after <= index < horizon`.  The `horizon` bound is
//! what makes recovery measurable: after the last scheduled fault the system
//! must return to fault-free behavior, and a test can assert that it
//! does.  The `after` bound lets a test target a specific victim (e.g.
//! "only the publish of version 2 regresses").

use std::sync::Arc;

/// Injection sites a [`FaultPlan`] can schedule faults at.
///
/// Each site hashes under its own salt, so the same index at two sites makes
/// independent decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic the serving-pool worker executing a task (index: task sequence).
    WorkerPanic,
    /// Stall the worker before it executes a task (index: task sequence).
    WorkerStall,
    /// Poison one telemetry record so it fails to parse
    /// (index: absolute record number, 1-based).
    PoisonRecord,
    /// Panic one shard's slice of a fleet epoch
    /// (index: `epoch << 8 | cluster`).
    ShardRoundPanic,
    /// Corrupt one shard's sub-epoch delta so the round errors
    /// (index: `epoch << 8 | cluster`).
    CorruptDelta,
    /// Inflate the measured post-publish live error of one published version
    /// (index: `version << 8 | cluster`).
    RegressingPublish,
}

impl FaultSite {
    /// Per-site hash salt (arbitrary odd constants).
    fn salt(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0x9E37_79B9_7F4A_7C15,
            FaultSite::WorkerStall => 0xC2B2_AE3D_27D4_EB4F,
            FaultSite::PoisonRecord => 0x1656_67B1_9E37_79F9,
            FaultSite::ShardRoundPanic => 0xD6E8_FEB8_6659_FD93,
            FaultSite::CorruptDelta => 0xA24B_AED4_963E_E407,
            FaultSite::RegressingPublish => 0x8EBC_6AF0_9C88_C6E3,
        }
    }
}

/// A deterministic schedule of injectable faults (see the module docs).
///
/// All fields are public so tests can describe exactly the scenario they
/// need; [`FaultPlan::chaos`] is the standard mixed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-site decisions derive from.
    pub seed: u64,
    /// Probability a pool task's executing worker panics.
    pub worker_panic_rate: f64,
    /// Probability a pool task's executing worker stalls first.
    pub worker_stall_rate: f64,
    /// How long a stalled worker sleeps, in milliseconds.
    pub stall_millis: u64,
    /// Probability a telemetry record is poisoned (fails to parse).
    pub poison_record_rate: f64,
    /// Probability one shard's epoch round panics.
    pub shard_round_panic_rate: f64,
    /// Probability one shard's delta round is corrupted.
    pub corrupt_delta_rate: f64,
    /// Probability a published version's measured live error regresses.
    pub regressing_publish_rate: f64,
    /// Multiplier applied to the measured live error when
    /// [`FaultSite::RegressingPublish`] fires.
    pub regression_multiplier: f64,
    /// No fault fires at an index below this bound (default 0).
    pub after: u64,
    /// No fault fires at an index at or past this bound — the scheduled
    /// faults run out, and the system must recover.
    pub horizon: u64,
}

impl FaultPlan {
    /// A plan that never fires (all rates zero).  Behaviorally identical to
    /// passing no plan at all — pinned by the chaos tests.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            worker_panic_rate: 0.0,
            worker_stall_rate: 0.0,
            stall_millis: 0,
            poison_record_rate: 0.0,
            shard_round_panic_rate: 0.0,
            corrupt_delta_rate: 0.0,
            regressing_publish_rate: 0.0,
            regression_multiplier: 1.0,
            after: 0,
            horizon: u64::MAX,
        }
    }

    /// The standard mixed chaos plan: occasional worker panics and stalls, a
    /// few poisoned records, one shard round in ~four panicking, all within
    /// the given horizon.  The chaos suite (`crates/core/tests/chaos.rs`)
    /// sends a front-door stream through a pool under it and checks that no
    /// request is lost and that the pool serves everything past the horizon.
    pub fn chaos(seed: u64, horizon: u64) -> Self {
        FaultPlan {
            seed,
            worker_panic_rate: 0.15,
            worker_stall_rate: 0.10,
            stall_millis: 2,
            poison_record_rate: 0.05,
            shard_round_panic_rate: 0.25,
            corrupt_delta_rate: 0.25,
            regressing_publish_rate: 0.0,
            regression_multiplier: 10.0,
            after: 0,
            horizon,
        }
    }

    /// Convenience: wrap in the `Option<Arc<..>>` shape the seams thread.
    pub fn handle(self) -> Option<Arc<FaultPlan>> {
        Some(Arc::new(self))
    }

    /// The per-site firing probability.
    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::WorkerPanic => self.worker_panic_rate,
            FaultSite::WorkerStall => self.worker_stall_rate,
            FaultSite::PoisonRecord => self.poison_record_rate,
            FaultSite::ShardRoundPanic => self.shard_round_panic_rate,
            FaultSite::CorruptDelta => self.corrupt_delta_rate,
            FaultSite::RegressingPublish => self.regressing_publish_rate,
        }
    }

    /// The unit-interval draw for `(site, index)` — a pure function of the
    /// plan seed, so every thread count sees the same schedule.
    fn unit(&self, site: FaultSite, index: u64) -> f64 {
        // splitmix64 finalizer over (seed ⊕ salt) advanced by the index.
        let mut z = self
            .seed
            .wrapping_add(site.salt())
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the fault at `site` fires for deterministic `index`.
    pub fn fires(&self, site: FaultSite, index: u64) -> bool {
        if index < self.after || index >= self.horizon {
            return false;
        }
        self.unit(site, index) < self.rate(site)
    }

    /// Milliseconds a worker stalls before executing task `index`
    /// (0 = no stall scheduled).
    pub fn stall_millis(&self, index: u64) -> u64 {
        if self.fires(FaultSite::WorkerStall, index) {
            self.stall_millis
        } else {
            0
        }
    }

    /// Multiplier applied to a measured live error for the publish at
    /// `index` (1.0 = no regression scheduled).
    pub fn error_multiplier(&self, index: u64) -> f64 {
        if self.fires(FaultSite::RegressingPublish, index) {
            self.regression_multiplier
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_windowed() {
        let plan = FaultPlan {
            worker_panic_rate: 0.5,
            after: 10,
            horizon: 100,
            ..FaultPlan::quiet(7)
        };
        // Pure: the same (site, index) always decides the same way.
        for i in 0..200u64 {
            assert_eq!(
                plan.fires(FaultSite::WorkerPanic, i),
                plan.fires(FaultSite::WorkerPanic, i)
            );
        }
        // Windowed: nothing before `after` or at/past the horizon.
        assert!((0..10).all(|i| !plan.fires(FaultSite::WorkerPanic, i)));
        assert!((100..200).all(|i| !plan.fires(FaultSite::WorkerPanic, i)));
        // At a 0.5 rate, something inside the window does fire.
        assert!((10..100).any(|i| plan.fires(FaultSite::WorkerPanic, i)));
        // Sites decide independently: the stall schedule differs from panics.
        let stalls = FaultPlan {
            worker_stall_rate: 0.5,
            stall_millis: 3,
            after: 10,
            horizon: 100,
            ..FaultPlan::quiet(7)
        };
        assert!((10..100).any(|i| {
            plan.fires(FaultSite::WorkerPanic, i) != stalls.fires(FaultSite::WorkerStall, i)
        }));
        assert!((10..100).any(|i| stalls.stall_millis(i) == 3));
    }

    #[test]
    fn quiet_plans_never_fire_and_seeds_differ() {
        let quiet = FaultPlan::quiet(1);
        for i in 0..100u64 {
            assert!(!quiet.fires(FaultSite::WorkerPanic, i));
            assert_eq!(quiet.stall_millis(i), 0);
            assert_eq!(quiet.error_multiplier(i), 1.0);
        }
        let a = FaultPlan::chaos(1, 1000);
        let b = FaultPlan::chaos(2, 1000);
        let schedule = |p: &FaultPlan| -> Vec<bool> {
            (0..1000)
                .map(|i| p.fires(FaultSite::WorkerPanic, i))
                .collect()
        };
        assert_ne!(
            schedule(&a),
            schedule(&b),
            "different seeds, different schedules"
        );
        assert_eq!(schedule(&a), schedule(&a));
    }
}
