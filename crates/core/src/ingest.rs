//! Telemetry ingestion: firehose bytes → a day-ordered [`TelemetryLog`].
//!
//! The serving tier's training data arrives as telemetry dumps — NDJSON or
//! compact binary (see `cleo_engine::telemetry_io`).  [`parse_telemetry`] is
//! the strict path: the first malformed or out-of-order record aborts the
//! parse with a span-exact [`CleoError::Parse`].  [`parse_telemetry_quarantine`]
//! is the resilient one: a single serial pass over the records that
//! quarantines each bad record — with the same line, span and message the
//! strict path reports for it — and keeps the rest.
//!
//! Parsing is serial: it is off the serving path and about 0.5% of a feedback
//! epoch, too little for threads to pay off (ROADMAP item 12(1)).  To feed a
//! sharded fleet, parse and then call
//! [`ShardedFeedbackLoop::observe`](crate::feedback::ShardedFeedbackLoop::observe).

use cleo_common::fault::{FaultPlan, FaultSite};
use cleo_common::obs::{Obs, TraceEvent};
use cleo_common::scan::Lines;
use cleo_common::{CleoError, Result};
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog};
use cleo_engine::telemetry_io::{
    binary_record_payloads, decode_binary_record, decode_ndjson_record, read_binary, read_ndjson,
    BINARY_DAY_SPAN,
};

/// Which telemetry wire format a buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// One JSON record per newline-terminated line (canonical field order).
    Ndjson,
    /// Length-prefixed little-endian records behind the `CLT1` magic.
    Binary,
}

impl WireFormat {
    /// Stable lowercase name (used in report output).
    pub fn name(&self) -> &'static str {
        match self {
            WireFormat::Ndjson => "ndjson",
            WireFormat::Binary => "binary",
        }
    }
}

/// Parse a telemetry buffer strictly: [`read_ndjson`] or [`read_binary`] by
/// format.  Malformed input fails with the record's line/record number and
/// the byte span of the offending token.
///
/// `_threads` is ignored — parsing is serial (ROADMAP item 12(1)).
pub fn parse_telemetry(buf: &[u8], format: WireFormat, _threads: usize) -> Result<TelemetryLog> {
    match format {
        WireFormat::Ndjson => read_ndjson(buf),
        WireFormat::Binary => read_binary(buf),
    }
}

/// How the resilient parse handles bad records.
///
/// The strict path ([`parse_telemetry`]) aborts on the first malformed record
/// — correct for trusted dumps, wrong for a live firehose where one poisoned
/// record would starve every healthy shard of training data.  The resilient
/// path quarantines bad records instead, up to an error budget beyond which
/// the feed itself is presumed broken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Quarantined record details kept for inspection (older entries beyond
    /// this are counted but dropped — the log stays bounded no matter how bad
    /// the feed gets).
    pub max_kept: usize,
    /// Abort the whole parse when more than this fraction of records
    /// quarantine: a feed that corrupt is a pipeline bug, not line noise.
    pub error_budget: f64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            max_kept: 64,
            error_budget: 0.05,
        }
    }
}

/// One record the resilient parse refused, with enough context to find it in
/// the original buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// 1-based record number (NDJSON line / binary record index) — the same
    /// numbering the strict path's [`CleoError::Parse`] uses.
    pub record: usize,
    /// Byte span of the offending token within the record — for a malformed
    /// or out-of-order record, the span the strict path reports — or `(0, 0)`
    /// for a record the [`FaultPlan`] poisoned.
    pub span: (usize, usize),
    /// Why the record was refused.
    pub msg: String,
}

/// The quarantine side of a resilient parse: what was refused and why.
///
/// The refused records are exactly the malformed ones, the out-of-order ones
/// and those the [`FaultPlan`] poisons — for one log, the same set whichever
/// wire format carried it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineLog {
    /// Refused records in record order, truncated to the policy's `max_kept`.
    pub kept: Vec<QuarantinedRecord>,
    /// Total records refused (including any beyond `max_kept`).
    pub total: usize,
}

impl QuarantineLog {
    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

fn quarantine_from_error(record: usize, err: CleoError) -> QuarantinedRecord {
    match err {
        CleoError::Parse {
            line,
            start,
            end,
            msg,
        } => QuarantinedRecord {
            record: line,
            span: (start, end),
            msg,
        },
        other => QuarantinedRecord {
            record,
            span: (0, 0),
            msg: other.to_string(),
        },
    }
}

/// Parse a telemetry buffer with per-record quarantine instead of first-error
/// abort.
///
/// Malformed records, records whose day regresses below an earlier kept
/// record's, and records the [`FaultPlan`] poisons land in the returned
/// [`QuarantineLog`]; every other record is kept, in order.  The only hard
/// failures are unrecoverable ones: broken binary framing (no boundary to
/// resync on) and a blown error budget.
///
/// `_threads` is ignored — parsing is serial (ROADMAP item 12(1)).
pub fn parse_telemetry_quarantine(
    buf: &[u8],
    format: WireFormat,
    _threads: usize,
    policy: &QuarantinePolicy,
    faults: Option<&FaultPlan>,
) -> Result<(TelemetryLog, QuarantineLog)> {
    parse_telemetry_quarantine_obs(buf, format, policy, faults, None)
}

/// [`parse_telemetry_quarantine`] with an observability seam: every refused
/// record additionally emits a [`TraceEvent::Quarantine`] (sequenced by its
/// record number) and the `ingest.kept_records` /
/// `ingest.quarantined_records` counters are bumped.  `obs: None` is
/// byte-for-byte the plain path.
pub fn parse_telemetry_quarantine_obs(
    buf: &[u8],
    format: WireFormat,
    policy: &QuarantinePolicy,
    faults: Option<&FaultPlan>,
    obs: Option<&Obs>,
) -> Result<(TelemetryLog, QuarantineLog)> {
    let (kept, quarantined) = match format {
        WireFormat::Ndjson => quarantine_records(
            Lines::new(buf)
                .filter(|(_, _, line)| !line.is_empty())
                .map(|(line_no, _, line)| (line_no, line)),
            decode_ndjson_record,
            faults,
        ),
        WireFormat::Binary => quarantine_records(
            binary_record_payloads(buf)?
                .into_iter()
                .enumerate()
                .map(|(i, payload)| (i + 1, payload)),
            |record, payload| decode_binary_record(record, payload).map(|j| (j, BINARY_DAY_SPAN)),
            faults,
        ),
    };

    if let Some(obs) = obs {
        // One event per refused record (before `max_kept` truncation — the
        // trace sees everything the budget counted), plus the aggregate
        // counters.
        for q in &quarantined {
            obs.emit(TraceEvent::Quarantine {
                seq: q.record as u64,
                record: q.record as u64,
                line: q.record as u64,
            });
        }
        let metrics = obs.metrics();
        metrics
            .counter("ingest.kept_records")
            .add(kept.len() as u64);
        metrics
            .counter("ingest.quarantined_records")
            .add(quarantined.len() as u64);
    }

    let total_records = kept.len() + quarantined.len();
    let total_quarantined = quarantined.len();
    if total_records > 0 && total_quarantined as f64 > policy.error_budget * total_records as f64 {
        return Err(CleoError::Config(format!(
            "telemetry error budget exceeded: {total_quarantined} of {total_records} records \
             quarantined (budget {:.1}%) — refusing the whole feed",
            policy.error_budget * 100.0
        )));
    }
    let mut log = QuarantineLog {
        kept: quarantined,
        total: total_quarantined,
    };
    log.kept.truncate(policy.max_kept);
    Ok((TelemetryLog::from_jobs(kept), log))
}

/// The serial quarantine loop shared by both wire formats.  Per record, in
/// order: refuse it if the fault plan poisons it; decode it (`decode` returns
/// the job and its day token's span) or refuse it with the decode error; and
/// refuse it if its day regresses below the last kept record's, with the
/// error the strict reader reports for it.
fn quarantine_records<'a>(
    records: impl Iterator<Item = (usize, &'a [u8])>,
    decode: impl Fn(usize, &[u8]) -> Result<(JobTelemetry, (usize, usize))>,
    faults: Option<&FaultPlan>,
) -> (Vec<JobTelemetry>, Vec<QuarantinedRecord>) {
    let mut kept: Vec<JobTelemetry> = Vec::new();
    let mut quarantined = Vec::new();
    for (record, bytes) in records {
        if faults.is_some_and(|f| f.fires(FaultSite::PoisonRecord, record as u64)) {
            quarantined.push(QuarantinedRecord {
                record,
                span: (0, 0),
                msg: "injected fault: poisoned telemetry record".into(),
            });
            continue;
        }
        let prev_day = kept.last().map(|j| j.day().0);
        let decoded = decode(record, bytes).and_then(|(job, span)| {
            let day = job.day().0;
            match prev_day {
                Some(prev) if day < prev => Err(CleoError::parse_at(
                    record,
                    span.0,
                    span.1,
                    format!("out-of-order day {day}: an earlier record already reached day {prev}"),
                )),
                _ => Ok(job),
            }
        });
        match decoded {
            Ok(job) => kept.push(job),
            Err(e) => quarantined.push(quarantine_from_error(record, e)),
        }
    }
    (kept, quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cleo_engine::exec::{Simulator, SimulatorConfig};
    use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind, PhysicalPlan};
    use cleo_engine::telemetry_io::write_ndjson;
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    use cleo_optimizer::HeuristicCostModel;

    use crate::feedback::{
        FeedbackConfig, ShardedFeedbackConfig, ShardedFeedbackLoop, WindowEviction,
    };
    use crate::sharding::{ClusterRouter, ShardedRegistry};

    fn sample_job(job: u64, day: u32, cluster: u8) -> JobTelemetry {
        let mut extract = PhysicalNode::new(PhysicalOpKind::Extract, "events_{date}", vec![]);
        extract.act = OpStats {
            input_cardinality: 1e5 + job as f64 * 13.0,
            base_cardinality: 1e5,
            output_cardinality: 9e4,
            avg_row_bytes: 37.0,
        };
        extract.est = extract.act;
        extract.partition_count = 8;
        let mut agg = PhysicalNode::new(PhysicalOpKind::HashAggregate, "uid;count", vec![extract]);
        agg.partition_count = 8;
        agg.est.output_cardinality = 5e3;
        let mut out = PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![agg]);
        out.partition_count = 1;
        let meta = JobMeta {
            id: JobId(job),
            cluster: ClusterId(cluster),
            template: Some(cleo_engine::types::TemplateId(job % 5)),
            name: format!("hourly rollup {job}"),
            normalized_inputs: vec!["events_{date}".into()],
            params: vec![job as f64 * 0.5],
            day: DayIndex(day),
            recurring: true,
        };
        let plan = PhysicalPlan::new(meta, out);
        let run = Simulator::new(SimulatorConfig::default()).run(&plan);
        JobTelemetry::new(plan, run)
    }

    fn sample_log(jobs: usize) -> TelemetryLog {
        let mut log = TelemetryLog::new();
        for i in 0..jobs as u64 {
            log.push(sample_job(i, (i / 7) as u32, (i % 3) as u8));
        }
        log
    }

    #[test]
    fn ingest_firehose_fills_shard_windows() {
        let registry = Arc::new(ShardedRegistry::new([ClusterId(0), ClusterId(1)]));
        let router = Arc::new(ClusterRouter::with_uniform_similarity(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
        ));
        let mut fleet = ShardedFeedbackLoop::new(
            ShardedFeedbackConfig {
                shard: FeedbackConfig {
                    eviction: WindowEviction::JobCount(25),
                    ..FeedbackConfig::default()
                },
                shard_threads: 2,
                ..ShardedFeedbackConfig::default()
            },
            Simulator::new(SimulatorConfig::default()),
            Arc::clone(&router),
        );

        // Clusters 0/1 have shards; cluster 2's records are unrouted.
        let log = sample_log(90);
        let per_cluster = |c: u8| log.jobs().iter().filter(|j| j.cluster().0 == c).count();
        let (c0, c1, c2) = (per_cluster(0), per_cluster(1), per_cluster(2));
        let text = write_ndjson(&log);
        let parsed = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 1).unwrap();
        assert_eq!(parsed, log);
        let report = fleet.observe(parsed).unwrap();
        assert_eq!(report.accepted_jobs, c0 + c1);
        assert_eq!(report.unrouted_jobs, c2);
        // The 25-job bound already evicted the overflow.
        assert_eq!(report.evicted_jobs, (c0 + c1).saturating_sub(50));
        assert_eq!(fleet.window(ClusterId(0)).unwrap().len(), c0.min(25));
        assert_eq!(fleet.window(ClusterId(1)).unwrap().len(), c1.min(25));
        assert!(fleet.window(ClusterId(2)).is_none());
        // Windows stay day-sorted, so retrains keep the binary-search slicing.
        assert!(fleet.window(ClusterId(0)).unwrap().is_day_sorted());

        // A second ingest keeps honoring the bound.
        let parsed = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 1).unwrap();
        let report2 = fleet.observe(parsed).unwrap();
        assert_eq!(fleet.window(ClusterId(0)).unwrap().len(), 25);
        assert_eq!(report2.accepted_jobs, c0 + c1);
    }
}
