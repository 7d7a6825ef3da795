//! The sharded serving-tier experiment: the fleet-scale deployment story —
//! four heterogeneous clusters served through one [`ClusterRouter`], each with
//! its own registry shard, per-cluster feedback epochs running in parallel,
//! and cross-cluster fallback routing while shards are cold.

use std::sync::Arc;

use cleo_common::table::{fnum, TextTable};
use cleo_common::Result;

use cleo_core::feedback::{
    DriftPolicy, FeedbackConfig, PublishDecision, ShardedFeedbackConfig, ShardedFeedbackLoop,
    WindowEviction,
};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::workload::generator::{interleave_jobs, WorkloadProfile};
use cleo_optimizer::HeuristicCostModel;

use crate::context::ExperimentContext;

/// Number of fleet-wide epochs the experiment runs.
const EPOCHS: usize = 3;

/// Run the sharded feedback loop over all four clusters' interleaved workload
/// and report per-shard versions, windows, drift, and the routing mix.
pub fn sharded_serving(ctx: &ExperimentContext) -> Result<String> {
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
            drift: DriftPolicy {
                enabled: true,
                threshold: 1.0,
            },
            shard_threads: 0,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        Arc::clone(&router),
    );

    let mut table = TextTable::new(
        "Sharded serving tier: per-cluster epochs over one interleaved fleet stream",
        &[
            "Epoch",
            "Shard",
            "Decision",
            "Served ver",
            "Window jobs",
            "Drift",
            "Warm/Reused/Cold",
            "Retrain (ms)",
        ],
    );
    for _ in 0..EPOCHS {
        let report = fleet.run_epoch(&stream)?;
        for shard in &report.shards {
            let decision = match shard.retrain.decision {
                PublishDecision::Published { version } => format!("published v{version}"),
                PublishDecision::RejectedRegression => "rejected (regression)".into(),
                PublishDecision::SkippedTooFewJobs => "skipped (window too small)".into(),
            };
            table.add_row(&[
                report.epoch.to_string(),
                shard.cluster.to_string(),
                decision,
                shard.served_version.to_string(),
                shard.window_jobs.to_string(),
                shard.drift_score.map_or("-".into(), |s| fnum(s, 2)),
                format!(
                    "{}/{}/{}",
                    shard.retrain.warm.warm_fits,
                    shard.retrain.warm.reused,
                    shard.retrain.warm.cold_fits
                ),
                fnum(shard.retrain_micros as f64 / 1000.0, 1),
            ]);
        }
    }

    let mut out = table.render();
    let fleet_registry = fleet.registry();
    out.push_str(&format!(
        "\nShards: {}; versions published fleet-wide: {}.\n",
        fleet_registry.shard_count(),
        fleet_registry.total_version_count(),
    ));
    let routing = router.routing_stats();
    out.push_str(&format!(
        "Routing over {} served jobs: {} own-shard, {} donor, {} fallback ({}% shard-miss rate).\n",
        routing.total(),
        routing.own_hits,
        routing.donor_hits,
        routing.fallback_hits,
        fnum(routing.miss_rate() * 100.0, 1),
    ));
    for cluster in fleet_registry.clusters().collect::<Vec<_>>() {
        out.push_str(&format!(
            "{cluster}: fallback chain {:?}\n",
            router
                .fallback_chain(cluster)
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>(),
        ));
    }
    Ok(out)
}
