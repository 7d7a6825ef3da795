//! The chaos experiment: graceful degradation under seeded fault injection.
//!
//! Runs the four-cluster fleet through three epochs with a deterministic
//! [`FaultPlan`] armed only for the middle one: epoch 1 is fault-free, epoch 2
//! panics a seeded subset of shard rounds (the failures are isolated — the
//! fleet epoch completes and every failed shard's incumbent keeps serving),
//! and epoch 3 runs with the plan removed, so every shard recovers.  A footer
//! demonstrates the telemetry quarantine: the same fleet firehose with ~5% of
//! records poisoned parses to the healthy majority plus a bounded quarantine
//! log instead of aborting the feed.

use std::sync::Arc;

use cleo_common::fault::FaultPlan;
use cleo_common::table::TextTable;
use cleo_common::Result;

use cleo_core::feedback::{
    FeedbackConfig, PublishDecision, ShardedFeedbackConfig, ShardedFeedbackLoop, WindowEviction,
};
use cleo_core::ingest::{parse_telemetry_quarantine, QuarantinePolicy, WireFormat};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::telemetry_io::write_ndjson;
use cleo_engine::workload::generator::{interleave_jobs, WorkloadProfile};
use cleo_optimizer::HeuristicCostModel;

use crate::context::ExperimentContext;

/// Fault seed: chosen so the epoch-2 window panics a strict subset of the
/// four shard rounds (shards 0 and 3 at rate 0.5 — deterministic, since the
/// plan's decisions are pure in `(seed, site, index)`).
const FAULT_SEED: u64 = 1;

/// Run the fleet through a fault-free epoch, a chaos epoch, and a recovery
/// epoch, and report per-shard isolation plus the quarantine demo.
pub fn chaos(ctx: &ExperimentContext) -> Result<String> {
    // Injected shard-round panics are caught and isolated by the fleet; keep
    // their backtraces out of the experiment log (a real panic still prints).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let profiles: Vec<WorkloadProfile> = ctx
        .clusters
        .iter()
        .map(|c| WorkloadProfile::of(&c.workload))
        .collect();
    let stream = interleave_jobs(ctx.clusters.iter().map(|c| &c.workload));

    let registry = Arc::new(ShardedRegistry::new(
        ctx.clusters.iter().map(|c| c.workload.cluster),
    ));
    let router = Arc::new(ClusterRouter::new(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(stream.len().max(64)),
                ..FeedbackConfig::default()
            },
            shard_threads: 0,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        Arc::clone(&router),
    );

    let mut table = TextTable::new(
        "Chaos: seeded shard-round panics are isolated; incumbents keep serving",
        &[
            "Epoch",
            "Faults",
            "Shard",
            "Outcome",
            "Served ver",
            "Window jobs",
        ],
    );
    let mut isolation_notes: Vec<String> = Vec::new();
    for epoch in 1u64..=3 {
        // Arm the plan for epoch 2 only: the shard-round index is
        // `epoch << 8 | cluster`, so `[512, 768)` covers exactly epoch 2.
        let (armed, plan) = match epoch {
            2 => (
                "panic 0.5",
                FaultPlan {
                    shard_round_panic_rate: 0.5,
                    after: 512,
                    horizon: 768,
                    ..FaultPlan::quiet(FAULT_SEED)
                }
                .handle(),
            ),
            _ => ("none", None),
        };
        fleet.set_fault_plan(plan);
        let report = fleet.run_epoch(&stream)?;
        for shard in &report.shards {
            let outcome = match shard.retrain.decision {
                PublishDecision::Published { version } => format!("published v{version}"),
                PublishDecision::RejectedRegression => "rejected (regression)".into(),
                PublishDecision::SkippedTooFewJobs => "skipped (window too small)".into(),
            };
            table.add_row(&[
                report.epoch.to_string(),
                armed.into(),
                shard.cluster.to_string(),
                outcome,
                shard.served_version.to_string(),
                shard.window_jobs.to_string(),
            ]);
        }
        for failure in &report.failed {
            table.add_row(&[
                report.epoch.to_string(),
                armed.into(),
                failure.cluster.to_string(),
                "FAILED (isolated)".into(),
                fleet
                    .registry()
                    .shard(failure.cluster)
                    .map_or(0, |s| s.current_version())
                    .to_string(),
                "-".into(),
            ]);
            isolation_notes.push(format!(
                "epoch {}: {} isolated — {}",
                report.epoch, failure.cluster, failure.error
            ));
        }
    }

    let mut out = table.render();
    for note in &isolation_notes {
        out.push_str(note);
        out.push('\n');
    }

    // Quarantine demo: the fleet firehose with ~5% of records poisoned still
    // ingests the healthy majority; a strict parse would abort the feed.
    let mut jobs: Vec<_> = ctx
        .clusters
        .iter()
        .flat_map(|c| c.telemetry.jobs().iter().cloned())
        .collect();
    jobs.sort_by_key(|j| j.day());
    let text = write_ndjson(&TelemetryLog::from_jobs(jobs));
    let n_records = text.lines().filter(|l| !l.trim().is_empty()).count();
    let poison = FaultPlan {
        poison_record_rate: 0.05,
        ..FaultPlan::quiet(FAULT_SEED)
    };
    let policy = QuarantinePolicy {
        max_kept: 16,
        error_budget: 0.25,
    };
    let (healthy, quarantine) = parse_telemetry_quarantine(
        text.as_bytes(),
        WireFormat::Ndjson,
        0,
        &policy,
        Some(&poison),
    )?;
    out.push_str(&format!(
        "\nQuarantine: {} of {} firehose records poisoned (seed {FAULT_SEED}); {} healthy \
         records ingested, {} quarantined (first {} logged), budget intact.\n",
        quarantine.total,
        n_records,
        healthy.len(),
        quarantine.total,
        quarantine.kept.len(),
    ));
    Ok(out)
}
