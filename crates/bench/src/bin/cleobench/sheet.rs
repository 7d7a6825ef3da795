//! The two tables of metric names (`BENCHMARK.json` lists the same ones; a
//! unit test holds the two together) and the sheet a run fills in.
//!
//! Every run prints every metric of its table: a layer the workload does not
//! exercise reports 0 for its counts and times, which is what "this workload
//! bypasses that layer" looks like.

use crate::json::Metric;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One table row: name, unit, direction.
pub type Row = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees (`--trace 0`).
pub const END_TO_END: &[Row] = &[
    ("job_p50_us", "us", Lower),
    ("job_p95_us", "us", Lower),
    ("jobs_per_s", "1/s", Higher),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("pred_corr", "ratio", Higher),
    ("pred_median_err_pct", "%", Lower),
    ("plan_latency_ratio", "ratio", Lower),
];

/// Per-layer metrics (`--trace 1`), grouped by the module they measure.
pub const PER_LAYER: &[Row] = &[
    // serving (FrontDoor, serve_batch)
    ("serving.admit_ns", "ns", Lower),
    ("serving.coalesce_hold_p50_us", "us", Lower),
    ("serving.coalesce_hold_p95_us", "us", Lower),
    ("serving.batch_service_us", "us", Lower),
    ("serving.coalesce_gain", "ratio", Higher),
    ("serving.admitted", "count", Higher),
    ("serving.delayed", "count", Lower),
    ("serving.shed", "count", Lower),
    ("serving.batches", "count", Lower),
    ("serving.batch_size_mean", "count", Higher),
    ("serving.job_p99_us", "us", Lower),
    ("serving.gen_late_p50_us", "us", Lower),
    ("serving.gen_late_p99_us", "us", Lower),
    ("serving.late_windows_rerun", "count", Lower),
    // sharding: pool
    ("sharding.pool.sojourn_p50_us", "us", Lower),
    ("sharding.pool.sojourn_p95_us", "us", Lower),
    ("sharding.pool.queue_wait_p50_us", "us", Lower),
    ("sharding.pool.handoff_us", "us", Lower),
    ("sharding.pool.queue_high_water", "count", Lower),
    ("sharding.pool.requeued", "count", Lower),
    ("sharding.pool.worker_errors", "count", Lower),
    // sharding: router, and the optimizer's worker-local snapshot cache
    ("sharding.router.route_ns", "ns", Lower),
    ("sharding.router.stamp_ns", "ns", Lower),
    ("sharding.router.own_hits", "count", Higher),
    ("sharding.router.donor_hits", "count", Lower),
    ("sharding.router.fallback_hits", "count", Lower),
    ("provider.snapshot_cache_get_ns", "ns", Lower),
    ("provider.snapshot_cache_hit_rate", "ratio", Higher),
    // optimizer: enumerate, resource, cost fold
    ("enumerate.self_us_per_job", "us", Lower),
    ("enumerate.alternatives_per_job", "count", Lower),
    ("resource.explore_self_us_per_job", "us", Lower),
    ("optimizer.cost_fold_us_per_job", "us", Lower),
    ("optimizer.cost_calls_per_job", "count", Lower),
    ("optimizer.model_invocations_per_job", "count", Lower),
    // integration: LearnedCostModel and its prediction cache
    ("integration.cost_busy_us_per_job", "us", Lower),
    ("integration.hit_self_us_per_job", "us", Lower),
    ("integration.miss_self_us_per_job", "us", Lower),
    ("integration.hit_call_ns", "ns", Lower),
    ("integration.miss_call_ns", "ns", Lower),
    ("integration.cache_hit_rate", "ratio", Higher),
    ("integration.cache_hits", "count", Higher),
    ("integration.cache_misses", "count", Lower),
    // signature, features, models, mlkit: replayed over the workload's operators
    ("signature.set_ns_per_op", "ns", Lower),
    ("features.template_ns_per_op", "ns", Lower),
    ("features.row_ns", "ns", Lower),
    ("models.predict_ns_per_row", "ns", Lower),
    ("models.predict_ns_per_row_1cand", "ns", Lower),
    ("mlkit.enet_ns_per_row", "ns", Lower),
    ("mlkit.fasttree_ns_per_row", "ns", Lower),
    ("mlkit.simd_lanes", "count", Higher),
    // telemetry_io, ingest
    ("telemetry_io.ndjson_decode_jobs_per_s", "1/s", Higher),
    ("telemetry_io.clt1_decode_jobs_per_s", "1/s", Higher),
    ("telemetry_io.ndjson_scan_mb_per_s", "MB/s", Higher),
    ("telemetry_io.ndjson_encode_jobs_per_s", "1/s", Higher),
    ("telemetry_io.clt1_encode_jobs_per_s", "1/s", Higher),
    ("ingest.parallel_speedup_ndjson", "ratio", Higher),
    ("ingest.parallel_speedup_clt1", "ratio", Higher),
    ("ingest.quarantined", "count", Lower),
    // feedback, trainer, registry, snapshot_io, exec
    ("feedback.epoch_s", "s", Lower),
    ("feedback.delta_round_s", "s", Lower),
    ("feedback.ingest_jobs_per_s", "1/s", Higher),
    ("feedback.observe_us_per_job", "us", Lower),
    ("feedback.retrain_s", "s", Lower),
    ("feedback.guard_s", "s", Lower),
    ("feedback.published", "count", Higher),
    ("feedback.guard_rejected", "count", Lower),
    ("feedback.skipped", "count", Lower),
    ("feedback.delta_dirty_signatures", "count", Lower),
    ("feedback.delta_refit_signatures", "count", Lower),
    ("trainer.collect_samples_s", "s", Lower),
    ("trainer.fit_s", "s", Lower),
    ("trainer.models_fit", "count", Lower),
    ("trainer.warm_reused_share", "ratio", Higher),
    ("registry.publish_us", "us", Lower),
    ("registry.publish_delta_us", "us", Lower),
    ("snapshot_io.encode_ms", "ms", Lower),
    ("snapshot_io.decode_ms", "ms", Lower),
    ("snapshot_io.bytes", "bytes", Lower),
    ("exec.simulate_us_per_job", "us", Lower),
    // the traced run itself
    ("budget.traced_job_us", "us", Lower),
    ("budget.unattributed_us_per_job", "us", Lower),
    ("budget.spans_recorded", "count", Higher),
    ("budget.trace_overhead_pct", "%", Lower),
    ("bench.speed_factor", "ratio", Higher),
];

/// A table's metrics with the values a run measured (0 until set).
pub struct Sheet {
    table: &'static [Row],
    values: Vec<f64>,
}

impl Sheet {
    /// An all-zero sheet over `table`.
    pub fn new(table: &'static [Row]) -> Sheet {
        Sheet {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// Record a metric; panics on a name that is not in the table (a typo in
    /// the benchmark, caught by every smoke run).
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .table
            .iter()
            .position(|row| row.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[index] = value;
    }

    /// Every metric of the table, in table order.
    pub fn metrics(&self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(row, &value)| Metric::new(row.0, value, row.1))
            .collect()
    }
}

/// Both sheets of one run.  A traced run also fills the end-to-end sheet,
/// from the untraced part it measures its overhead against.
pub struct Sheets {
    pub end_to_end: Sheet,
    pub per_layer: Sheet,
}

impl Sheets {
    /// Two all-zero sheets.
    pub fn new() -> Sheets {
        Sheets {
            end_to_end: Sheet::new(END_TO_END),
            per_layer: Sheet::new(PER_LAYER),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, valid_unit};

    #[test]
    fn tables_hold_valid_unique_names() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root lists exactly these metrics, with the
    /// same units and directions, in the same order.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text = include_str!("../../../../../BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let section = &text[start..start + text[start..].find(']').expect("section end")];
            let listed: Vec<(String, String, String)> = section
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|(name, unit, better)| {
                    let better = match better {
                        Lower => "lower",
                        Higher => "higher",
                    };
                    (name.to_string(), unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn sheet_reports_every_row_and_rejects_unknown_names() {
        let mut sheet = Sheet::new(END_TO_END);
        sheet.set("setup_s", 1.25);
        let metrics = sheet.metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[3].name, "setup_s");
        assert_eq!(metrics[3].value, 1.25);
        assert_eq!(metrics[0].value, 0.0);
        assert!(std::panic::catch_unwind(move || sheet.set("no_such_metric", 1.0)).is_err());
    }
}
