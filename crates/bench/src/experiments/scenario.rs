//! The scenario experiment: declarative workload suites replayed through the
//! fleet, with a durable-snapshot restart in the middle.
//!
//! Compiles the three canned suites (each expansion is asserted bit-identical
//! for 1 vs N compile threads), replays the fleet-stress suite through a full
//! sharded epoch, persists every warm shard with `save_snapshots`, restores
//! them into a fresh `ShardedRegistry`, and verifies the restored fleet serves
//! the same versions from byte-identical re-encodings — the paper's serving
//! story surviving a process restart.

use std::sync::Arc;

use cleo_common::table::TextTable;
use cleo_common::Result;
use cleo_core::feedback::{
    FeedbackConfig, PublishDecision, ShardedFeedbackConfig, ShardedFeedbackLoop, WindowEviction,
};
use cleo_core::scenario::{compile_str, suites};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::trainer::TrainerConfig;
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_optimizer::HeuristicCostModel;

use crate::context::ExperimentContext;

/// Compile the canned suites, replay the stress suite through a fleet epoch,
/// and restart the fleet from its durable snapshots.
pub fn scenario(_ctx: &ExperimentContext) -> Result<String> {
    let mut table = TextTable::new(
        "Scenario suites: declarative workloads compiled to deterministic job streams",
        &["Suite", "Clusters", "Days", "Jobs", "Thread-invariant"],
    );
    let mut stress = None;
    for (name, src) in [
        ("fleet_stress", suites::FLEET_STRESS),
        ("cold_start_storm", suites::COLD_START_STORM),
        ("drift_ramp", suites::DRIFT_RAMP),
    ] {
        let serial = compile_str(src, 1)?;
        let parallel = compile_str(src, 4)?;
        let invariant = serial.workloads == parallel.workloads;
        table.add_row(&[
            name.to_string(),
            parallel.clusters().len().to_string(),
            parallel.days.to_string(),
            parallel.total_jobs().to_string(),
            if invariant {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
        if name == "fleet_stress" {
            stress = Some(parallel);
        }
    }
    let compiled = stress.expect("fleet_stress compiled");

    // Replay the stress suite through one full fleet epoch.
    let profiles = compiled.profiles();
    let registry = Arc::new(ShardedRegistry::new(compiled.clusters()));
    let router = Arc::new(ClusterRouter::new(
        Arc::clone(&registry),
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(compiled.total_jobs().max(64)),
                correlation_tolerance: 10.0,
                error_tolerance_pct: 1e12,
                trainer: TrainerConfig {
                    threads: 2,
                    ..TrainerConfig::default()
                },
                ..FeedbackConfig::default()
            },
            shard_threads: 0,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    );
    let stream = compiled.stream();
    let report = fleet.run_epoch(&stream)?;

    let mut replay = TextTable::new(
        "Fleet replay of `fleet_stress`, then restart from durable snapshots",
        &["Shard", "Outcome", "Window jobs", "Restored ver", "Bytes"],
    );

    // Restart: persist every warm shard, restore into a fresh registry, and
    // check versions plus byte-identical re-encodings.
    let dir = std::env::temp_dir().join(format!("cleo_exp_scenario_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| cleo_common::CleoError::Io(format!("scratch dir: {e}")))?;
    registry.save_snapshots(&dir)?;
    let restored = ShardedRegistry::load_snapshots(compiled.clusters(), &dir)?;
    for shard in &report.shards {
        let outcome = match shard.retrain.decision {
            PublishDecision::Published { version } => format!("published v{version}"),
            PublishDecision::RejectedRegression => "rejected (regression)".into(),
            PublishDecision::SkippedTooFewJobs => "skipped (window too small)".into(),
        };
        let file = dir.join(ShardedRegistry::snapshot_file_name(shard.cluster));
        let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
        if restored.shard_version(shard.cluster) != registry.shard_version(shard.cluster) {
            return Err(cleo_common::CleoError::Config(format!(
                "restored {} serves v{} but the live fleet serves v{}",
                shard.cluster,
                restored.shard_version(shard.cluster),
                registry.shard_version(shard.cluster)
            )));
        }
        replay.add_row(&[
            shard.cluster.to_string(),
            outcome,
            shard.window_jobs.to_string(),
            restored.shard_version(shard.cluster).to_string(),
            bytes.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = table.render();
    out.push('\n');
    out.push_str(&replay.render());
    out.push_str(&format!(
        "\nRestart: {} shards persisted and restored; every restored shard re-encodes to the \
         bytes on disk and serves its pre-restart version without retraining.\n",
        report.shards.len()
    ));
    Ok(out)
}
