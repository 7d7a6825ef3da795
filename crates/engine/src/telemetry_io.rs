//! Telemetry wire formats: the firehose the feedback loop drinks from.
//!
//! Production Cleo trains on telemetry streamed out of SCOPE's logging
//! pipeline (Section 5.1).  This module gives the reproduction an equivalent
//! ingestion boundary: executed jobs serialized one-per-record to either
//!
//! * **NDJSON** — one JSON object per `\n`-terminated line, fields in a fixed
//!   canonical order (the order [`append_job_ndjson`] emits).  Human-greppable,
//!   diff-able, and parsed here by a hand-rolled reader built on
//!   [`cleo_common::scan`]'s SWAR byte scanning — no per-byte branching on the
//!   hot path, no allocation during the validation scan; or
//! * **compact binary** — length-prefixed little-endian records
//!   ([`write_binary`] / [`read_binary`]), for when parse throughput matters
//!   more than greppability.  `f64` fields round-trip bit-exactly by
//!   construction (`to_le_bytes`).
//!
//! Both readers enforce the firehose contract: records arrive in
//! **non-decreasing day order** (what keeps [`TelemetryLog`]'s binary-search
//! windowing on its fast path), strings are valid UTF-8, and every structural
//! or numeric defect is reported as [`CleoError::Parse`] with the 1-based
//! record/line number and the exact byte span of the offending token — so a
//! corrupt dump can be pointed at, not just rejected.
//!
//! Round-trips are exact: floating-point values are written in shortest
//! round-trip decimal form (NDJSON) or raw bits (binary), operator trees are
//! emitted pre-order with parent indices, and operator ids re-assigned on read
//! equal the emitted pre-order positions (the invariant
//! [`PhysicalPlan::new`] maintains).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cleo_common::obs::{
    AdmissionKind, BreakerKind, PublishKind, RouteKind, TraceEvent, WatchdogKind, NO_CLUSTER,
};
use cleo_common::scan::{parse_f64, parse_u64, Lines};
use cleo_common::{CleoError, Result};

use crate::exec::{JobRun, OperatorRun};
use crate::physical::{JobMeta, PhysicalNode, PhysicalOpKind, PhysicalPlan};
use crate::telemetry::{JobTelemetry, ModelProvenance, TelemetryLog};
use crate::types::{ClusterId, DayIndex, JobId, OpId, OpStats, TemplateId};
use crate::wire::{self, put_f64, put_str, put_u32, put_u64, Cursor};

// ---------------------------------------------------------------------------
// NDJSON writer
// ---------------------------------------------------------------------------

/// Append one job as a single NDJSON line (no trailing newline).
///
/// Canonical field order — the strict reader requires exactly this order:
/// `job, cluster, day, template, recurring, name, inputs, params, epoch,
/// model_version, model_cluster, delta_base, latency, cpu, containers, ops`;
/// each op carries `parent, kind, label, partitions, part_on, sort_on, udf,
/// est, act, run` with ops in pre-order and `parent` the pre-order index of
/// the parent (`-1` for the root).
pub fn append_job_ndjson(job: &JobTelemetry, out: &mut String) {
    let m = &job.plan.meta;
    let _ = write!(
        out,
        "{{\"job\":{},\"cluster\":{},\"day\":{},",
        m.id.0, m.cluster.0, m.day.0
    );
    match m.template {
        Some(t) => {
            let _ = write!(out, "\"template\":{},", t.0);
        }
        None => out.push_str("\"template\":null,"),
    }
    let _ = write!(out, "\"recurring\":{},\"name\":", m.recurring);
    escape_json_into(&m.name, out);
    out.push_str(",\"inputs\":[");
    for (i, input) in m.normalized_inputs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json_into(input, out);
    }
    out.push_str("],\"params\":[");
    for (i, p) in m.params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{p}");
    }
    let prov = &job.provenance;
    let _ = write!(
        out,
        "],\"epoch\":{},\"model_version\":{},",
        prov.epoch, prov.model_version
    );
    match prov.model_cluster {
        Some(c) => {
            let _ = write!(out, "\"model_cluster\":{},", c.0);
        }
        None => out.push_str("\"model_cluster\":null,"),
    }
    match prov.delta_base {
        Some(v) => {
            let _ = write!(out, "\"delta_base\":{},", v);
        }
        None => out.push_str("\"delta_base\":null,"),
    }
    let _ = write!(
        out,
        "\"latency\":{},\"cpu\":{},\"containers\":{},\"ops\":[",
        job.run.job_latency, job.run.total_cpu_seconds, job.run.peak_containers
    );
    for (i, (node, parent)) in preorder_with_parents(&job.plan.root).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent_repr: i64 = parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"parent\":{parent_repr},\"kind\":\"{}\",\"label\":",
            node.kind.name()
        );
        escape_json_into(&node.label, out);
        let _ = write!(
            out,
            ",\"partitions\":{},\"part_on\":[",
            node.partition_count
        );
        for (j, c) in node.partitioned_on.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            escape_json_into(c, out);
        }
        out.push_str("],\"sort_on\":[");
        for (j, c) in node.sorted_on.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            escape_json_into(c, out);
        }
        let _ = write!(out, "],\"udf\":{},", node.udf_cost_factor);
        append_stats(out, "est", &node.est);
        out.push(',');
        append_stats(out, "act", &node.act);
        match job.run.operator_runs.get(&node.id) {
            Some(r) => {
                let _ = write!(
                    out,
                    ",\"run\":[{},{}]}}",
                    r.exclusive_seconds, r.partition_count
                );
            }
            None => out.push_str(",\"run\":null}"),
        }
    }
    out.push_str("]}");
}

/// Serialize a whole log as NDJSON, one job per line, trailing newline on
/// every record.
pub fn write_ndjson(log: &TelemetryLog) -> String {
    let mut out = String::new();
    for job in log.jobs() {
        append_job_ndjson(job, &mut out);
        out.push('\n');
    }
    out
}

fn append_stats(out: &mut String, key: &str, s: &OpStats) {
    let _ = write!(
        out,
        "\"{key}\":[{},{},{},{}]",
        s.input_cardinality, s.base_cardinality, s.output_cardinality, s.avg_row_bytes
    );
}

fn escape_json_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Pre-order node list with each node's parent pre-order index.
fn preorder_with_parents(root: &PhysicalNode) -> Vec<(&PhysicalNode, Option<usize>)> {
    fn walk<'a>(
        node: &'a PhysicalNode,
        parent: Option<usize>,
        out: &mut Vec<(&'a PhysicalNode, Option<usize>)>,
    ) {
        let idx = out.len();
        out.push((node, parent));
        for child in &node.children {
            walk(child, Some(idx), out);
        }
    }
    let mut out = Vec::with_capacity(root.node_count());
    walk(root, None, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Span-exact line parser
// ---------------------------------------------------------------------------

/// Byte-level cursor over one record with span-exact error reporting.  All
/// spans are byte offsets **within the line** (NDJSON) or **within the record
/// payload** (binary), matching [`CleoError::Parse`]'s contract.
struct LineParser<'a> {
    line: usize,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> LineParser<'a> {
    fn new(line: usize, buf: &'a [u8]) -> Self {
        LineParser { line, buf, pos: 0 }
    }

    fn err<T>(&self, start: usize, end: usize, msg: impl Into<String>) -> Result<T> {
        Err(CleoError::Parse {
            line: self.line,
            start,
            end: end.max(start + 1),
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    fn expect(&mut self, lit: &[u8], what: &str) -> Result<()> {
        if self.buf[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            let end = (self.pos + lit.len()).min(self.buf.len());
            self.err(self.pos, end, format!("expected {what}"))
        }
    }

    /// Match `"name":` without allocating the pattern.
    fn key(&mut self, name: &'static str) -> Result<()> {
        let n = name.as_bytes();
        let p = self.pos;
        let ok = self.buf.len() >= p + n.len() + 3
            && self.buf[p] == b'"'
            && &self.buf[p + 1..p + 1 + n.len()] == n
            && self.buf[p + 1 + n.len()] == b'"'
            && self.buf[p + 2 + n.len()] == b':';
        if ok {
            self.pos += n.len() + 3;
            Ok(())
        } else {
            let end = (p + n.len() + 3).min(self.buf.len());
            self.err(p, end, format!("expected key \"{name}\""))
        }
    }

    /// The raw token up to the next `,`, `}` or `]` (exclusive).
    fn number_token(&mut self) -> (usize, usize, &'a [u8]) {
        let start = self.pos;
        let rel = self.buf[start..]
            .iter()
            .position(|b| matches!(b, b',' | b'}' | b']'))
            .unwrap_or(self.buf.len() - start);
        self.pos = start + rel;
        (start, start + rel, &self.buf[start..start + rel])
    }

    fn u64_value(&mut self) -> Result<(u64, (usize, usize))> {
        let (s, e, tok) = self.number_token();
        match parse_u64(tok) {
            Some(v) => Ok((v, (s, e))),
            None => self.err(s, e, "invalid unsigned integer"),
        }
    }

    fn bounded_u64(&mut self, max: u64, what: &str) -> Result<u64> {
        let (v, (s, e)) = self.u64_value()?;
        if v > max {
            return self.err(s, e, format!("{what} out of range (max {max})"));
        }
        Ok(v)
    }

    fn f64_value(&mut self) -> Result<f64> {
        let (s, e, tok) = self.number_token();
        match parse_f64(tok) {
            Some(v) => Ok(v),
            None => self.err(s, e, "invalid number"),
        }
    }

    fn bool_value(&mut self) -> Result<bool> {
        if self.buf[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if self.buf[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            let end = (self.pos + 5).min(self.buf.len());
            self.err(self.pos, end, "expected boolean")
        }
    }

    fn take_null(&mut self) -> bool {
        if self.buf[self.pos..].starts_with(b"null") {
            self.pos += 4;
            true
        } else {
            false
        }
    }

    fn opt_bounded_u64(&mut self, max: u64, what: &str) -> Result<Option<u64>> {
        if self.take_null() {
            Ok(None)
        } else {
            self.bounded_u64(max, what).map(Some)
        }
    }

    /// `-1` (root sentinel) or a pre-order parent index.
    fn parent_value(&mut self) -> Result<(Option<usize>, (usize, usize))> {
        let (s, e, tok) = self.number_token();
        if tok == b"-1" {
            return Ok((None, (s, e)));
        }
        match parse_u64(tok) {
            Some(v) => Ok((Some(v as usize), (s, e))),
            None => self.err(s, e, "invalid parent index"),
        }
    }

    /// Raw string token: `(start, end, contents-between-quotes, had_escapes)`.
    /// `start..end` spans the quotes inclusively.
    fn string_token(&mut self) -> Result<(usize, usize, &'a [u8], bool)> {
        let start = self.pos;
        if self.peek() != Some(b'"') {
            return self.err(start, start + 1, "expected string");
        }
        let mut i = start + 1;
        let mut escaped = false;
        while i < self.buf.len() {
            match self.buf[i] {
                b'"' => {
                    self.pos = i + 1;
                    return Ok((start, i + 1, &self.buf[start + 1..i], escaped));
                }
                b'\\' => {
                    escaped = true;
                    i += 2;
                }
                _ => i += 1,
            }
        }
        self.err(start, self.buf.len(), "unterminated string")
    }

    /// Decode a string value to an owned `String`, validating UTF-8 and escape
    /// sequences; errors span the full quoted token.
    fn string_value(&mut self) -> Result<String> {
        let (start, end, raw, escaped) = self.string_token()?;
        if !escaped {
            return match std::str::from_utf8(raw) {
                Ok(s) => Ok(s.to_string()),
                Err(_) => self.err(start, end, "invalid UTF-8 in string"),
            };
        }
        let mut bytes = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            if raw[i] != b'\\' {
                bytes.push(raw[i]);
                i += 1;
                continue;
            }
            match raw.get(i + 1) {
                Some(b'"') => bytes.push(b'"'),
                Some(b'\\') => bytes.push(b'\\'),
                Some(b'/') => bytes.push(b'/'),
                Some(b'n') => bytes.push(b'\n'),
                Some(b't') => bytes.push(b'\t'),
                Some(b'r') => bytes.push(b'\r'),
                Some(b'u') => {
                    let hex = raw
                        .get(i + 2..i + 6)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok());
                    let c = hex.and_then(char::from_u32);
                    match c {
                        Some(c) => {
                            let mut utf8 = [0u8; 4];
                            bytes.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
                            i += 6;
                            continue;
                        }
                        None => return self.err(start, end, "invalid \\u escape"),
                    }
                }
                _ => return self.err(start, end, "invalid escape sequence"),
            }
            i += 2;
        }
        match String::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => self.err(start, end, "invalid UTF-8 in string"),
        }
    }

    /// `["a","b",...]` of strings.
    fn string_array(&mut self) -> Result<Vec<String>> {
        self.expect(b"[", "'['")?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.string_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err(self.pos, self.pos + 1, "expected ',' or ']'"),
            }
        }
    }

    /// Variable-length `[1,2.5,...]` of numbers.
    fn f64_array(&mut self) -> Result<Vec<f64>> {
        self.expect(b"[", "'['")?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.f64_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err(self.pos, self.pos + 1, "expected ',' or ']'"),
            }
        }
    }

    /// Exactly-four-element stats array.
    fn stats_value(&mut self) -> Result<OpStats> {
        self.expect(b"[", "'['")?;
        let input_cardinality = self.f64_value()?;
        self.expect(b",", "','")?;
        let base_cardinality = self.f64_value()?;
        self.expect(b",", "','")?;
        let output_cardinality = self.f64_value()?;
        self.expect(b",", "','")?;
        let avg_row_bytes = self.f64_value()?;
        self.expect(b"]", "']'")?;
        Ok(OpStats {
            input_cardinality,
            base_cardinality,
            output_cardinality,
            avg_row_bytes,
        })
    }
}

// ---------------------------------------------------------------------------
// NDJSON reader
// ---------------------------------------------------------------------------

/// One operator as parsed off the wire, before tree assembly.
struct OpShell {
    parent: Option<usize>,
    parent_span: (usize, usize),
    node: PhysicalNode,
    run: Option<(f64, usize)>,
}

fn kind_from_bytes(raw: &[u8]) -> Option<PhysicalOpKind> {
    PhysicalOpKind::all()
        .iter()
        .copied()
        .find(|k| k.name().as_bytes() == raw)
}

fn parse_op(p: &mut LineParser) -> Result<OpShell> {
    p.expect(b"{", "'{'")?;
    p.key("parent")?;
    let (parent, parent_span) = p.parent_value()?;
    p.expect(b",", "','")?;
    p.key("kind")?;
    let (ks, ke, kraw, _) = p.string_token()?;
    let Some(kind) = kind_from_bytes(kraw) else {
        return p.err(ks, ke, "unknown operator kind");
    };
    p.expect(b",", "','")?;
    p.key("label")?;
    let label = p.string_value()?;
    p.expect(b",", "','")?;
    p.key("partitions")?;
    let (partitions, _) = p.u64_value()?;
    p.expect(b",", "','")?;
    p.key("part_on")?;
    let partitioned_on = p.string_array()?;
    p.expect(b",", "','")?;
    p.key("sort_on")?;
    let sorted_on = p.string_array()?;
    p.expect(b",", "','")?;
    p.key("udf")?;
    let udf_cost_factor = p.f64_value()?;
    p.expect(b",", "','")?;
    p.key("est")?;
    let est = p.stats_value()?;
    p.expect(b",", "','")?;
    p.key("act")?;
    let act = p.stats_value()?;
    p.expect(b",", "','")?;
    p.key("run")?;
    let run = if p.take_null() {
        None
    } else {
        p.expect(b"[", "'['")?;
        let exclusive = p.f64_value()?;
        p.expect(b",", "','")?;
        let (parts, _) = p.u64_value()?;
        p.expect(b"]", "']'")?;
        Some((exclusive, parts as usize))
    };
    p.expect(b"}", "'}'")?;

    let mut node = PhysicalNode::new(kind, label, vec![]);
    node.est = est;
    node.act = act;
    node.partition_count = partitions as usize;
    node.partitioned_on = partitioned_on;
    node.sorted_on = sorted_on;
    node.udf_cost_factor = udf_cost_factor;
    Ok(OpShell {
        parent,
        parent_span,
        node,
        run,
    })
}

/// Validate parent indices and rebuild the operator tree from pre-order
/// shells.  Shared by the NDJSON and binary readers; `line` and the stored
/// parent spans keep the error reporting format-accurate.
fn assemble_plan(
    line: usize,
    meta: JobMeta,
    ops: Vec<OpShell>,
) -> Result<(PhysicalPlan, BTreeMap<OpId, OperatorRun>)> {
    let fail = |span: (usize, usize), msg: String| CleoError::Parse {
        line,
        start: span.0,
        end: span.1.max(span.0 + 1),
        msg,
    };
    if ops.is_empty() {
        return Err(fail((0, 1), "job has no operators".into()));
    }
    let mut children_of: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    for (i, op) in ops.iter().enumerate() {
        match (i, op.parent) {
            (0, None) => {}
            (0, Some(_)) => {
                return Err(fail(
                    op.parent_span,
                    "root operator must have parent -1".into(),
                ))
            }
            (_, None) => {
                return Err(fail(
                    op.parent_span,
                    format!("operator {i} is a second root (parent -1)"),
                ))
            }
            (_, Some(parent)) if parent >= i => {
                return Err(fail(
                    op.parent_span,
                    format!(
                        "operator {i} references parent {parent}, not an earlier pre-order index"
                    ),
                ))
            }
            (_, Some(parent)) => children_of[parent].push(i),
        }
    }

    let mut runs = BTreeMap::new();
    let mut shells: Vec<Option<PhysicalNode>> = Vec::with_capacity(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        if let Some((exclusive_seconds, partition_count)) = op.run {
            runs.insert(
                OpId(i),
                OperatorRun {
                    op: OpId(i),
                    exclusive_seconds,
                    partition_count,
                },
            );
        }
        shells.push(Some(op.node));
    }

    fn build(
        idx: usize,
        shells: &mut Vec<Option<PhysicalNode>>,
        children_of: &[Vec<usize>],
    ) -> PhysicalNode {
        let children: Vec<PhysicalNode> = children_of[idx]
            .iter()
            .map(|&c| build(c, shells, children_of))
            .collect();
        let mut shell = shells[idx]
            .take()
            .expect("each op is assembled exactly once");
        let mut node = PhysicalNode::new(shell.kind, std::mem::take(&mut shell.label), children);
        node.est = shell.est;
        node.act = shell.act;
        node.partition_count = shell.partition_count;
        node.partitioned_on = std::mem::take(&mut shell.partitioned_on);
        node.sorted_on = std::mem::take(&mut shell.sorted_on);
        node.udf_cost_factor = shell.udf_cost_factor;
        node
    }
    let root = build(0, &mut shells, &children_of);
    // Pre-order id assignment matches the emitted pre-order indices, so the
    // rebuilt `operator_runs` keys line up with the rebuilt plan's ids.
    Ok((PhysicalPlan::new(meta, root), runs))
}

/// Decode one NDJSON record (a line without its newline) into a job.  `line_no`
/// is the 1-based line number errors report; the returned span is the `day`
/// token's, so callers can report a day-order violation at it.
pub fn decode_ndjson_record(line_no: usize, line: &[u8]) -> Result<(JobTelemetry, (usize, usize))> {
    let mut p = LineParser::new(line_no, line);
    p.expect(b"{", "'{'")?;
    p.key("job")?;
    let (job_id, _) = p.u64_value()?;
    p.expect(b",", "','")?;
    p.key("cluster")?;
    let cluster = p.bounded_u64(u8::MAX as u64, "cluster id")?;
    p.expect(b",", "','")?;
    p.key("day")?;
    let (day, day_span) = p.u64_value()?;
    if day > u32::MAX as u64 {
        return p.err(day_span.0, day_span.1, "day index out of range");
    }
    p.expect(b",", "','")?;
    p.key("template")?;
    let template = p.opt_bounded_u64(u64::MAX, "template id")?;
    p.expect(b",", "','")?;
    p.key("recurring")?;
    let recurring = p.bool_value()?;
    p.expect(b",", "','")?;
    p.key("name")?;
    let name = p.string_value()?;
    p.expect(b",", "','")?;
    p.key("inputs")?;
    let normalized_inputs = p.string_array()?;
    p.expect(b",", "','")?;
    p.key("params")?;
    let params = p.f64_array()?;
    p.expect(b",", "','")?;
    p.key("epoch")?;
    let epoch = p.bounded_u64(u32::MAX as u64, "epoch")?;
    p.expect(b",", "','")?;
    p.key("model_version")?;
    let (model_version, _) = p.u64_value()?;
    p.expect(b",", "','")?;
    p.key("model_cluster")?;
    let model_cluster = p.opt_bounded_u64(u8::MAX as u64, "model cluster id")?;
    p.expect(b",", "','")?;
    p.key("delta_base")?;
    let delta_base = p.opt_bounded_u64(u64::MAX, "delta base")?;
    p.expect(b",", "','")?;
    p.key("latency")?;
    let job_latency = p.f64_value()?;
    p.expect(b",", "','")?;
    p.key("cpu")?;
    let total_cpu_seconds = p.f64_value()?;
    p.expect(b",", "','")?;
    p.key("containers")?;
    let (peak_containers, _) = p.u64_value()?;
    p.expect(b",", "','")?;
    p.key("ops")?;
    p.expect(b"[", "'['")?;
    let mut ops = Vec::new();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            ops.push(parse_op(&mut p)?);
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b']') => {
                    p.pos += 1;
                    break;
                }
                _ => return p.err(p.pos, p.pos + 1, "expected ',' or ']' after operator"),
            }
        }
    }
    p.expect(b"}", "'}'")?;
    if p.pos != line.len() {
        return p.err(p.pos, line.len(), "trailing bytes after record");
    }

    let meta = JobMeta {
        id: JobId(job_id),
        cluster: ClusterId(cluster as u8),
        template: template.map(TemplateId),
        name,
        normalized_inputs,
        params,
        day: DayIndex(day as u32),
        recurring,
    };
    let provenance = ModelProvenance {
        epoch: epoch as u32,
        model_version,
        model_cluster: model_cluster.map(|c| ClusterId(c as u8)),
        delta_base,
    };
    let (plan, operator_runs) = assemble_plan(line_no, meta, ops)?;
    let run = JobRun {
        operator_runs,
        job_latency,
        total_cpu_seconds,
        peak_containers: peak_containers as usize,
    };
    Ok((
        JobTelemetry::with_provenance(plan, run, provenance),
        day_span,
    ))
}

fn day_order_error(line: usize, span: (usize, usize), day: u32, prev: u32) -> CleoError {
    CleoError::Parse {
        line,
        start: span.0,
        end: span.1.max(span.0 + 1),
        msg: format!("out-of-order day {day}: an earlier record already reached day {prev}"),
    }
}

/// Parse an NDJSON telemetry buffer (one job per line, day-ordered).
pub fn read_ndjson(buf: &[u8]) -> Result<TelemetryLog> {
    let mut jobs = Vec::new();
    let mut prev_day: Option<u32> = None;
    for (line_no, _offset, line) in Lines::new(buf) {
        if line.is_empty() {
            continue;
        }
        let (job, day_span) = decode_ndjson_record(line_no, line)?;
        let day = job.day().0;
        if let Some(prev) = prev_day {
            if day < prev {
                return Err(day_order_error(line_no, day_span, day, prev));
            }
        }
        prev_day = Some(day);
        jobs.push(job);
    }
    Ok(TelemetryLog::from_jobs(jobs))
}

// ---------------------------------------------------------------------------
// NDJSON validation scan (allocation-free)
// ---------------------------------------------------------------------------

/// What a validation scan of a firehose buffer found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Records (non-empty lines) in the buffer.
    pub jobs: usize,
    /// Total operators across all records.
    pub operators: usize,
    /// Day of the last record, if any.
    pub newest_day: Option<u32>,
}

/// Skip one JSON value generically, validating structure and string UTF-8,
/// without allocating.  Returns the value's byte span.
fn skip_value(p: &mut LineParser) -> Result<(usize, usize)> {
    let start = p.pos;
    match p.peek() {
        Some(b'"') => {
            let (s, e, raw, _) = p.string_token()?;
            if std::str::from_utf8(raw).is_err() {
                return p.err(s, e, "invalid UTF-8 in string");
            }
            Ok((s, e))
        }
        Some(b'[') => {
            p.pos += 1;
            if p.peek() == Some(b']') {
                p.pos += 1;
                return Ok((start, p.pos));
            }
            loop {
                skip_value(p)?;
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b']') => {
                        p.pos += 1;
                        return Ok((start, p.pos));
                    }
                    _ => return p.err(p.pos, p.pos + 1, "expected ',' or ']'"),
                }
            }
        }
        Some(b'{') => {
            p.pos += 1;
            if p.peek() == Some(b'}') {
                p.pos += 1;
                return Ok((start, p.pos));
            }
            loop {
                let (s, e, raw, _) = p.string_token()?;
                if std::str::from_utf8(raw).is_err() {
                    return p.err(s, e, "invalid UTF-8 in string");
                }
                p.expect(b":", "':'")?;
                skip_value(p)?;
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b'}') => {
                        p.pos += 1;
                        return Ok((start, p.pos));
                    }
                    _ => return p.err(p.pos, p.pos + 1, "expected ',' or '}'"),
                }
            }
        }
        Some(b't') => p.expect(b"true", "boolean").map(|_| (start, p.pos)),
        Some(b'f') => p.expect(b"false", "boolean").map(|_| (start, p.pos)),
        Some(b'n') => p.expect(b"null", "null").map(|_| (start, p.pos)),
        _ => {
            let (s, e, tok) = p.number_token();
            if parse_f64(tok).is_none() {
                return p.err(s, e, "invalid number");
            }
            Ok((s, e))
        }
    }
}

/// Scan one line: day (with span) plus the record's operator count.
fn scan_line(line_no: usize, line: &[u8]) -> Result<(u32, (usize, usize), usize)> {
    let mut p = LineParser::new(line_no, line);
    p.expect(b"{", "'{'")?;
    let mut day: Option<(u32, (usize, usize))> = None;
    let mut operators = 0usize;
    loop {
        let (ks, ke, kraw, escaped) = p.string_token()?;
        if std::str::from_utf8(kraw).is_err() {
            return p.err(ks, ke, "invalid UTF-8 in key");
        }
        p.expect(b":", "':'")?;
        if !escaped && kraw == b"day" {
            let (v, span) = p.u64_value()?;
            if v > u32::MAX as u64 {
                return p.err(span.0, span.1, "day index out of range");
            }
            day = Some((v as u32, span));
        } else if !escaped && kraw == b"ops" {
            p.expect(b"[", "'['")?;
            if p.peek() == Some(b']') {
                p.pos += 1;
            } else {
                loop {
                    skip_value(&mut p)?;
                    operators += 1;
                    match p.peek() {
                        Some(b',') => p.pos += 1,
                        Some(b']') => {
                            p.pos += 1;
                            break;
                        }
                        _ => return p.err(p.pos, p.pos + 1, "expected ',' or ']'"),
                    }
                }
            }
        } else {
            skip_value(&mut p)?;
        }
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                break;
            }
            _ => return p.err(p.pos, p.pos + 1, "expected ',' or '}'"),
        }
    }
    if p.pos != line.len() {
        return p.err(p.pos, line.len(), "trailing bytes after record");
    }
    match day {
        Some((d, span)) => Ok((d, span, operators)),
        None => p.err(0, line.len(), "record has no \"day\" field"),
    }
}

/// Validate an NDJSON firehose buffer without materializing anything: checks
/// record structure, string UTF-8, and day order, and counts records and
/// operators.  Allocation-free — this is the steady-state "is the stream
/// healthy" pass a tailer can run at wire speed.
pub fn scan_ndjson(buf: &[u8]) -> Result<ScanSummary> {
    let mut summary = ScanSummary::default();
    let mut prev_day: Option<u32> = None;
    for (line_no, _offset, line) in Lines::new(buf) {
        if line.is_empty() {
            continue;
        }
        let (day, day_span, operators) = scan_line(line_no, line)?;
        if let Some(prev) = prev_day {
            if day < prev {
                return Err(day_order_error(line_no, day_span, day, prev));
            }
        }
        prev_day = Some(day);
        summary.jobs += 1;
        summary.operators += operators;
        summary.newest_day = Some(day);
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Compact binary codec
// ---------------------------------------------------------------------------

/// Magic prefix of the compact binary telemetry format.
pub const BINARY_MAGIC: [u8; 4] = *b"CLT1";

/// Byte span of the `day` field within every binary record payload (fixed
/// layout: u64 job id, u8 cluster, then u32 day).
pub const BINARY_DAY_SPAN: (usize, usize) = (9, 13);

fn put_strs(out: &mut Vec<u8>, ss: &[String]) {
    put_u32(out, ss.len() as u32);
    for s in ss {
        put_str(out, s);
    }
}

fn put_stats(out: &mut Vec<u8>, s: &OpStats) {
    put_f64(out, s.input_cardinality);
    put_f64(out, s.base_cardinality);
    put_f64(out, s.output_cardinality);
    put_f64(out, s.avg_row_bytes);
}

fn encode_job(job: &JobTelemetry, out: &mut Vec<u8>) {
    let m = &job.plan.meta;
    put_u64(out, m.id.0);
    out.push(m.cluster.0);
    put_u32(out, m.day.0);
    match m.template {
        Some(t) => {
            out.push(1);
            put_u64(out, t.0);
        }
        None => out.push(0),
    }
    out.push(m.recurring as u8);
    put_str(out, &m.name);
    put_strs(out, &m.normalized_inputs);
    put_u32(out, m.params.len() as u32);
    for &p in &m.params {
        put_f64(out, p);
    }
    let prov = &job.provenance;
    put_u32(out, prov.epoch);
    put_u64(out, prov.model_version);
    match prov.model_cluster {
        Some(c) => {
            out.push(1);
            out.push(c.0);
        }
        None => out.push(0),
    }
    match prov.delta_base {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
    put_f64(out, job.run.job_latency);
    put_f64(out, job.run.total_cpu_seconds);
    put_u32(out, job.run.peak_containers as u32);
    let ops = preorder_with_parents(&job.plan.root);
    put_u32(out, ops.len() as u32);
    for (node, parent) in ops {
        put_u32(out, parent.map_or(0, |p| p as u32 + 1));
        let code = PhysicalOpKind::all()
            .iter()
            .position(|k| *k == node.kind)
            .expect("every kind is in all()") as u8;
        out.push(code);
        put_str(out, &node.label);
        put_u32(out, node.partition_count as u32);
        put_strs(out, &node.partitioned_on);
        put_strs(out, &node.sorted_on);
        put_f64(out, node.udf_cost_factor);
        put_stats(out, &node.est);
        put_stats(out, &node.act);
        match job.run.operator_runs.get(&node.id) {
            Some(r) => {
                out.push(1);
                put_f64(out, r.exclusive_seconds);
                put_u32(out, r.partition_count as u32);
            }
            None => out.push(0),
        }
    }
}

/// Serialize a whole log to the compact binary format: magic, record count,
/// then length-prefixed records.
pub fn write_binary(log: &TelemetryLog) -> Vec<u8> {
    let mut out = wire::frame_header(BINARY_MAGIC, log.len());
    for job in log.jobs() {
        wire::with_record(&mut out, |out| encode_job(job, out));
    }
    out
}

/// A length-prefixed list of strings.  A count larger than the whole payload
/// is a corrupt record, not a huge allocation request: each string needs at
/// least its length prefix.
fn strings(c: &mut Cursor, payload: &[u8], what: &str) -> Result<Vec<String>> {
    let n = c.u32(what)? as usize;
    if n > payload.len() {
        return c.err(
            c.pos() - 4,
            c.pos(),
            format!("implausible {what} count {n}"),
        );
    }
    (0..n).map(|_| c.string(what)).collect()
}

fn stats(c: &mut Cursor, what: &str) -> Result<OpStats> {
    Ok(OpStats {
        input_cardinality: c.f64(what)?,
        base_cardinality: c.f64(what)?,
        output_cardinality: c.f64(what)?,
        avg_row_bytes: c.f64(what)?,
    })
}

/// Decode one binary record payload into a job.  `record` is the 1-based
/// record number used in error reports.
pub fn decode_binary_record(record: usize, payload: &[u8]) -> Result<JobTelemetry> {
    let mut c = Cursor::new(record, payload);
    let job_id = c.u64("job id")?;
    let cluster = c.u8("cluster id")?;
    let day = c.u32("day")?;
    let template = if c.flag("template presence")? {
        Some(TemplateId(c.u64("template id")?))
    } else {
        None
    };
    let recurring = c.flag("recurring")?;
    let name = c.string("job name")?;
    let normalized_inputs = strings(&mut c, payload, "inputs")?;
    let n_params = c.u32("param count")? as usize;
    if n_params > payload.len() {
        return c.err(
            c.pos() - 4,
            c.pos(),
            format!("implausible param count {n_params}"),
        );
    }
    let params = (0..n_params)
        .map(|_| c.f64("param"))
        .collect::<Result<Vec<f64>>>()?;
    let epoch = c.u32("epoch")?;
    let model_version = c.u64("model version")?;
    let model_cluster = if c.flag("model cluster presence")? {
        Some(ClusterId(c.u8("model cluster")?))
    } else {
        None
    };
    let delta_base = if c.flag("delta base presence")? {
        Some(c.u64("delta base")?)
    } else {
        None
    };
    let job_latency = c.f64("job latency")?;
    let total_cpu_seconds = c.f64("cpu seconds")?;
    let peak_containers = c.u32("peak containers")? as usize;
    let n_ops = c.u32("operator count")? as usize;
    if n_ops > payload.len() {
        return c.err(
            c.pos() - 4,
            c.pos(),
            format!("implausible operator count {n_ops}"),
        );
    }
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let parent_start = c.pos();
        let parent_raw = c.u32("parent index")?;
        let parent = if parent_raw == 0 {
            None
        } else {
            Some(parent_raw as usize - 1)
        };
        let kind_at = c.pos();
        let code = c.u8("operator kind")? as usize;
        let Some(&kind) = PhysicalOpKind::all().get(code) else {
            return c.err(
                kind_at,
                kind_at + 1,
                format!("unknown operator kind code {code}"),
            );
        };
        let label = c.string("operator label")?;
        let partition_count = c.u32("partition count")? as usize;
        let partitioned_on = strings(&mut c, payload, "partition columns")?;
        let sorted_on = strings(&mut c, payload, "sort columns")?;
        let udf_cost_factor = c.f64("udf factor")?;
        let est = stats(&mut c, "estimated stats")?;
        let act = stats(&mut c, "actual stats")?;
        let run = if c.flag("run presence")? {
            let exclusive = c.f64("exclusive seconds")?;
            let parts = c.u32("run partitions")? as usize;
            Some((exclusive, parts))
        } else {
            None
        };
        let mut node = PhysicalNode::new(kind, label, vec![]);
        node.est = est;
        node.act = act;
        node.partition_count = partition_count;
        node.partitioned_on = partitioned_on;
        node.sorted_on = sorted_on;
        node.udf_cost_factor = udf_cost_factor;
        ops.push(OpShell {
            parent,
            parent_span: (parent_start, parent_start + 4),
            node,
            run,
        });
    }
    if c.pos() != payload.len() {
        return c.err(c.pos(), payload.len(), "trailing bytes in record");
    }

    let meta = JobMeta {
        id: JobId(job_id),
        cluster: ClusterId(cluster),
        template,
        name,
        normalized_inputs,
        params,
        day: DayIndex(day),
        recurring,
    };
    let provenance = ModelProvenance {
        epoch,
        model_version,
        model_cluster,
        delta_base,
    };
    let (plan, operator_runs) = assemble_plan(record, meta, ops)?;
    let run = JobRun {
        operator_runs,
        job_latency,
        total_cpu_seconds,
        peak_containers,
    };
    Ok(JobTelemetry::with_provenance(plan, run, provenance))
}

/// Walk a binary buffer's framing and return each record's payload slice.
/// Validates the magic, the record count, and every length prefix; errors use
/// the record number and buffer-absolute spans.
pub fn binary_record_payloads(buf: &[u8]) -> Result<Vec<&[u8]>> {
    wire::record_payloads(buf, BINARY_MAGIC, "binary telemetry")
}

/// Parse a compact-binary telemetry buffer (day-ordered records).
pub fn read_binary(buf: &[u8]) -> Result<TelemetryLog> {
    let payloads = binary_record_payloads(buf)?;
    let mut jobs = Vec::with_capacity(payloads.len());
    let mut prev_day: Option<u32> = None;
    for (i, payload) in payloads.iter().enumerate() {
        let record = i + 1;
        let job = decode_binary_record(record, payload)?;
        let day = job.day().0;
        if let Some(prev) = prev_day {
            if day < prev {
                return Err(day_order_error(record, BINARY_DAY_SPAN, day, prev));
            }
        }
        prev_day = Some(day);
        jobs.push(job);
    }
    Ok(TelemetryLog::from_jobs(jobs))
}

// ---------------------------------------------------------------------------
// Trace-event NDJSON
// ---------------------------------------------------------------------------

/// Append one observability [`TraceEvent`] as a single NDJSON line (no
/// trailing newline).
///
/// Canonical field order — the strict reader requires exactly this order.
/// Every line starts `seq, kind`; the remaining fields depend on the kind:
///
/// * `admission`: `shard, verdict` (`admitted` / `delayed` / `shed`)
/// * `batch`: `shard, jobs`
/// * `route`: `cluster, outcome` (`own` / `donor` / `fallback`), `version`
/// * `breaker`: `cluster, state` (`closed` / `open` / `half_open`)
/// * `publish`: `cluster` (`null` for unsharded registries), `lineage`
///   (`epoch` / `delta` / `rollback`), `version`
/// * `watchdog`: `cluster, verdict` (`healthy` / `rolled_back`), `version`
/// * `quarantine`: `record, line`
///
/// Tag strings are fixed identifiers, so no escaping is required and
/// round-trips are byte-exact.
pub fn append_event_ndjson(event: &TraceEvent, out: &mut String) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"kind\":\"{}\",",
        event.seq(),
        event.kind()
    );
    match *event {
        TraceEvent::Admission { shard, verdict, .. } => {
            let _ = write!(
                out,
                "\"shard\":{shard},\"verdict\":\"{}\"",
                verdict.as_str()
            );
        }
        TraceEvent::Batch { shard, jobs, .. } => {
            let _ = write!(out, "\"shard\":{shard},\"jobs\":{jobs}");
        }
        TraceEvent::Route {
            cluster,
            outcome,
            version,
            ..
        } => {
            let _ = write!(
                out,
                "\"cluster\":{cluster},\"outcome\":\"{}\",\"version\":{version}",
                outcome.as_str()
            );
        }
        TraceEvent::Breaker { cluster, state, .. } => {
            let _ = write!(
                out,
                "\"cluster\":{cluster},\"state\":\"{}\"",
                state.as_str()
            );
        }
        TraceEvent::Publish {
            cluster,
            lineage,
            version,
            ..
        } => {
            match cluster {
                NO_CLUSTER => out.push_str("\"cluster\":null,"),
                c => {
                    let _ = write!(out, "\"cluster\":{c},");
                }
            }
            let _ = write!(
                out,
                "\"lineage\":\"{}\",\"version\":{version}",
                lineage.as_str()
            );
        }
        TraceEvent::Watchdog {
            cluster,
            verdict,
            version,
            ..
        } => {
            let _ = write!(
                out,
                "\"cluster\":{cluster},\"verdict\":\"{}\",\"version\":{version}",
                verdict.as_str()
            );
        }
        TraceEvent::Quarantine { record, line, .. } => {
            let _ = write!(out, "\"record\":{record},\"line\":{line}");
        }
    }
    out.push('}');
}

/// Serialize a drained trace as NDJSON, one event per line, trailing newline
/// on every record.
pub fn write_events_ndjson(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        append_event_ndjson(event, &mut out);
        out.push('\n');
    }
    out
}

/// A fixed lowercase tag (`"admitted"`, `"open"`, ...), decoded through the
/// kind's `parse`; the error spans the full quoted token.
fn event_tag<T>(p: &mut LineParser, parse: fn(&str) -> Option<T>, what: &str) -> Result<T> {
    let (s, e, raw, _) = p.string_token()?;
    match std::str::from_utf8(raw).ok().and_then(parse) {
        Some(v) => Ok(v),
        None => p.err(s, e, format!("unknown {what}")),
    }
}

/// A cluster field: `null` (unsharded) or a bounded integer.
fn event_cluster(p: &mut LineParser) -> Result<u16> {
    Ok(p.opt_bounded_u64(u64::from(NO_CLUSTER) - 1, "cluster")?
        .map_or(NO_CLUSTER, |c| c as u16))
}

/// Parse one trace-event line (exact inverse of [`append_event_ndjson`]).
fn parse_event(line_no: usize, line: &[u8]) -> Result<TraceEvent> {
    let mut p = LineParser::new(line_no, line);
    p.expect(b"{", "'{'")?;
    p.key("seq")?;
    let (seq, _) = p.u64_value()?;
    p.expect(b",", "','")?;
    p.key("kind")?;
    let (ks, ke, kind_raw, _) = p.string_token()?;
    p.expect(b",", "','")?;
    let event = match kind_raw {
        b"admission" => {
            p.key("shard")?;
            let shard = p.bounded_u64(u64::from(u16::MAX), "shard")? as u16;
            p.expect(b",", "','")?;
            p.key("verdict")?;
            let verdict = event_tag(&mut p, AdmissionKind::parse, "admission verdict")?;
            TraceEvent::Admission {
                seq,
                shard,
                verdict,
            }
        }
        b"batch" => {
            p.key("shard")?;
            let shard = p.bounded_u64(u64::from(u16::MAX), "shard")? as u16;
            p.expect(b",", "','")?;
            p.key("jobs")?;
            let jobs = p.bounded_u64(u64::from(u32::MAX), "batch size")? as u32;
            TraceEvent::Batch { seq, shard, jobs }
        }
        b"route" => {
            p.key("cluster")?;
            let cluster = event_cluster(&mut p)?;
            p.expect(b",", "','")?;
            p.key("outcome")?;
            let outcome = event_tag(&mut p, RouteKind::parse, "route outcome")?;
            p.expect(b",", "','")?;
            p.key("version")?;
            let (version, _) = p.u64_value()?;
            TraceEvent::Route {
                seq,
                cluster,
                outcome,
                version,
            }
        }
        b"breaker" => {
            p.key("cluster")?;
            let cluster = event_cluster(&mut p)?;
            p.expect(b",", "','")?;
            p.key("state")?;
            let state = event_tag(&mut p, BreakerKind::parse, "breaker state")?;
            TraceEvent::Breaker {
                seq,
                cluster,
                state,
            }
        }
        b"publish" => {
            p.key("cluster")?;
            let cluster = event_cluster(&mut p)?;
            p.expect(b",", "','")?;
            p.key("lineage")?;
            let lineage = event_tag(&mut p, PublishKind::parse, "publish lineage")?;
            p.expect(b",", "','")?;
            p.key("version")?;
            let (version, _) = p.u64_value()?;
            TraceEvent::Publish {
                seq,
                cluster,
                lineage,
                version,
            }
        }
        b"watchdog" => {
            p.key("cluster")?;
            let cluster = event_cluster(&mut p)?;
            p.expect(b",", "','")?;
            p.key("verdict")?;
            let verdict = event_tag(&mut p, WatchdogKind::parse, "watchdog verdict")?;
            p.expect(b",", "','")?;
            p.key("version")?;
            let (version, _) = p.u64_value()?;
            TraceEvent::Watchdog {
                seq,
                cluster,
                verdict,
                version,
            }
        }
        b"quarantine" => {
            p.key("record")?;
            let (record, _) = p.u64_value()?;
            p.expect(b",", "','")?;
            p.key("line")?;
            let (line, _) = p.u64_value()?;
            TraceEvent::Quarantine { seq, record, line }
        }
        _ => return p.err(ks, ke, "unknown event kind"),
    };
    p.expect(b"}", "'}'")?;
    if p.pos != line.len() {
        return p.err(p.pos, line.len(), "trailing bytes after event object");
    }
    Ok(event)
}

/// Parse a trace-event NDJSON buffer (one event per line).  Defects are
/// reported as [`CleoError::Parse`] with the 1-based line number and the
/// byte span of the offending token, like the telemetry reader.
pub fn read_events_ndjson(buf: &[u8]) -> Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for (line_no, _offset, line) in Lines::new(buf) {
        if line.is_empty() {
            continue;
        }
        events.push(parse_event(line_no, line)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Simulator, SimulatorConfig};
    use crate::physical::PhysicalOpKind;

    fn sample_plan(job: u64, day: u32, cluster: u8) -> PhysicalPlan {
        let mut extract_a = PhysicalNode::new(PhysicalOpKind::Extract, "events_{date}", vec![]);
        extract_a.act = OpStats {
            input_cardinality: 2.5e6,
            base_cardinality: 2.5e6,
            output_cardinality: 2.5e6,
            avg_row_bytes: 48.0,
        };
        extract_a.est = extract_a.act;
        extract_a.partition_count = 16;
        extract_a.partitioned_on = vec!["uid".into()];
        let mut extract_b = PhysicalNode::new(PhysicalOpKind::Extract, "dim \"users\"", vec![]);
        extract_b.act = OpStats {
            input_cardinality: 1e4,
            base_cardinality: 1e4,
            output_cardinality: 1e4,
            avg_row_bytes: 96.5,
        };
        extract_b.est = extract_b.act;
        extract_b.partition_count = 4;
        let mut join = PhysicalNode::new(
            PhysicalOpKind::HashJoin,
            "uid=uid",
            vec![extract_a, extract_b],
        );
        join.est.output_cardinality = 2.4e6;
        join.act.output_cardinality = 2.6e6;
        join.partition_count = 16;
        let mut udf = PhysicalNode::new(PhysicalOpKind::Process, "Score\\v1", vec![join]);
        udf.udf_cost_factor = 3.5;
        udf.partition_count = 16;
        udf.sorted_on = vec!["score".into()];
        let mut out = PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![udf]);
        out.partition_count = 1;
        let meta = JobMeta {
            id: JobId(job),
            cluster: ClusterId(cluster),
            template: if job.is_multiple_of(2) {
                Some(TemplateId(777))
            } else {
                None
            },
            name: format!("pipeline/daily score {job}"),
            normalized_inputs: vec!["events_{date}".into(), "users".into()],
            params: vec![0.25, 1e-9, 12345.0],
            day: DayIndex(day),
            recurring: true,
        };
        PhysicalPlan::new(meta, out)
    }

    fn sample_log() -> TelemetryLog {
        let sim = Simulator::new(SimulatorConfig::default());
        let mut log = TelemetryLog::new();
        for (job, day, cluster) in [(1u64, 3u32, 0u8), (2, 3, 1), (3, 4, 0), (4, 7, 2)] {
            let plan = sample_plan(job, day, cluster);
            let run = sim.run(&plan);
            let provenance = ModelProvenance {
                epoch: day,
                model_version: job * 3,
                model_cluster: if job == 2 { Some(ClusterId(1)) } else { None },
                delta_base: if job == 3 { Some(8) } else { None },
            };
            log.push(JobTelemetry::with_provenance(plan, run, provenance));
        }
        log
    }

    #[test]
    fn ndjson_round_trips_exactly() {
        let log = sample_log();
        let text = write_ndjson(&log);
        assert_eq!(text.lines().count(), log.len());
        let back = read_ndjson(text.as_bytes()).expect("round trip parses");
        assert_eq!(back, log);
        assert!(back.is_day_sorted());
        // Operator ids and runs line up after the rebuild.
        for (a, b) in back.jobs().iter().zip(log.jobs()) {
            assert_eq!(a.run, b.run);
            assert_eq!(a.provenance, b.provenance);
        }
    }

    #[test]
    fn binary_round_trips_exactly() {
        let log = sample_log();
        let bytes = write_binary(&log);
        assert_eq!(&bytes[..4], &BINARY_MAGIC);
        let back = read_binary(&bytes).expect("round trip parses");
        assert_eq!(back, log);
    }

    #[test]
    fn scan_matches_materializing_reader() {
        let log = sample_log();
        let text = write_ndjson(&log);
        let summary = scan_ndjson(text.as_bytes()).expect("scan passes");
        assert_eq!(summary.jobs, log.len());
        assert_eq!(
            summary.operators,
            log.jobs().iter().map(|j| j.plan.op_count()).sum::<usize>()
        );
        assert_eq!(summary.newest_day, Some(7));
        assert_eq!(scan_ndjson(b"").unwrap(), ScanSummary::default());
    }

    #[test]
    fn truncated_record_is_rejected_with_span() {
        let log = sample_log();
        let text = write_ndjson(&log);
        let first_line_len = text.lines().next().unwrap().len();
        // Cut the first record off mid-ops.
        let truncated = &text.as_bytes()[..first_line_len - 40];
        let err = read_ndjson(truncated).expect_err("truncated record must fail");
        match err {
            CleoError::Parse {
                line, start, end, ..
            } => {
                assert_eq!(line, 1);
                // An EOF error may span one byte past the cut.
                assert!(
                    start <= end && start <= first_line_len - 40,
                    "{start}..{end}"
                );
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // The zero-alloc scanner rejects it too.
        assert!(matches!(
            scan_ndjson(truncated),
            Err(CleoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn bad_utf8_is_rejected_with_the_string_span() {
        let log = sample_log();
        let mut bytes = write_ndjson(&log).into_bytes();
        // Corrupt a byte inside the first record's job name.
        let name_at = bytes
            .windows(7)
            .position(|w| w == b"\"name\":")
            .expect("name key present")
            + 8;
        bytes[name_at + 2] = 0xFF;
        let err = read_ndjson(&bytes).expect_err("bad UTF-8 must fail");
        match &err {
            CleoError::Parse {
                line,
                start,
                end,
                msg,
            } => {
                assert_eq!(*line, 1);
                assert!(msg.contains("UTF-8"), "{msg}");
                // The span covers the quoted string token, including the bad byte.
                assert!(
                    *start <= name_at + 2 && name_at + 2 < *end,
                    "{start}..{end}"
                );
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        assert!(matches!(
            scan_ndjson(&bytes),
            Err(CleoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn out_of_order_days_are_rejected_at_the_day_token() {
        let sim = Simulator::new(SimulatorConfig::noiseless(7));
        let mut log = TelemetryLog::new();
        for (job, day) in [(1u64, 5u32), (2, 3)] {
            let plan = sample_plan(job, day, 0);
            let run = sim.run(&plan);
            log.push(JobTelemetry::new(plan, run));
        }
        let text = write_ndjson(&log);
        let err = read_ndjson(text.as_bytes()).expect_err("day regression must fail");
        match &err {
            CleoError::Parse {
                line,
                start,
                end,
                msg,
            } => {
                assert_eq!(*line, 2);
                assert!(msg.contains("out-of-order day 3"), "{msg}");
                let line2 = text.lines().nth(1).unwrap().as_bytes();
                assert_eq!(
                    &line2[*start..*end],
                    b"3",
                    "span must point at the day token"
                );
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // Same contract from the scanner and the binary reader.
        assert!(matches!(
            scan_ndjson(text.as_bytes()),
            Err(CleoError::Parse { line: 2, .. })
        ));
        let bytes = write_binary(&log);
        match read_binary(&bytes).expect_err("binary day regression must fail") {
            CleoError::Parse {
                line, start, end, ..
            } => {
                assert_eq!(line, 2);
                assert_eq!((start, end), BINARY_DAY_SPAN);
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn binary_truncation_and_bad_utf8_are_rejected() {
        let log = sample_log();
        let bytes = write_binary(&log);
        // Truncate inside the final record.
        let err = binary_record_payloads(&bytes[..bytes.len() - 3]).expect_err("truncated");
        assert!(matches!(err, CleoError::Parse { line: 4, .. }), "{err:?}");
        // Record-level truncation: cut a payload short and re-frame it.
        let payloads = binary_record_payloads(&bytes).unwrap();
        let err = decode_binary_record(1, &payloads[0][..payloads[0].len() - 2])
            .expect_err("short payload");
        match err {
            CleoError::Parse { line: 1, msg, .. } => {
                assert!(
                    msg.contains("truncated") || msg.contains("trailing"),
                    "{msg}"
                )
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // Corrupt the name's UTF-8 (name starts after id/cluster/day/template/recurring).
        let mut payload = payloads[1].to_vec();
        let name_at = 8 + 1 + 4 + 9 + 1 + 4;
        payload[name_at] = 0xFF;
        let err = decode_binary_record(2, &payload).expect_err("bad UTF-8");
        match err {
            CleoError::Parse { line: 2, msg, .. } => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
        // Bad magic.
        assert!(matches!(
            read_binary(b"NOPE"),
            Err(CleoError::Parse { line: 0, .. })
        ));
    }

    #[test]
    fn malformed_parent_indices_are_rejected() {
        let log = sample_log();
        let text = write_ndjson(&log);
        // Forward-referencing parent: point op 1 at itself.
        let broken = text.replacen("{\"parent\":0,", "{\"parent\":1,", 1);
        let err = read_ndjson(broken.as_bytes()).expect_err("self parent must fail");
        assert!(matches!(err, CleoError::Parse { line: 1, .. }), "{err:?}");
        // Second root.
        let broken = text.replacen("{\"parent\":0,", "{\"parent\":-1,", 1);
        let err = read_ndjson(broken.as_bytes()).expect_err("second root must fail");
        match err {
            CleoError::Parse { line: 1, msg, .. } => assert!(msg.contains("second root"), "{msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_round_trip() {
        let sim = Simulator::new(SimulatorConfig::noiseless(3));
        let mut plan = sample_plan(9, 1, 0);
        plan.meta.name = "weird \"name\"\twith\nnewlines \\ and unicode é".into();
        plan.root.visit_mut(&mut |n| {
            if n.kind == PhysicalOpKind::Process {
                n.label = "udf\u{1}ctrl".into();
            }
        });
        let run = sim.run(&plan);
        let log = TelemetryLog::from_jobs(vec![JobTelemetry::new(plan, run)]);
        let text = write_ndjson(&log);
        assert_eq!(read_ndjson(text.as_bytes()).expect("parses"), log);
        let bytes = write_binary(&log);
        assert_eq!(read_binary(&bytes).expect("parses"), log);
    }

    #[test]
    fn trace_events_round_trip_and_errors_are_span_exact() {
        let events = vec![
            TraceEvent::Admission {
                seq: 0,
                shard: 2,
                verdict: AdmissionKind::Admitted,
            },
            TraceEvent::Admission {
                seq: 1,
                shard: 2,
                verdict: AdmissionKind::Shed,
            },
            TraceEvent::Batch {
                seq: 0,
                shard: 2,
                jobs: 8,
            },
            TraceEvent::Route {
                seq: 5,
                cluster: 1,
                outcome: RouteKind::Donor,
                version: 3,
            },
            TraceEvent::Breaker {
                seq: 40,
                cluster: 1,
                state: BreakerKind::HalfOpen,
            },
            TraceEvent::Publish {
                seq: 2,
                cluster: NO_CLUSTER,
                lineage: PublishKind::Delta,
                version: 2,
            },
            TraceEvent::Publish {
                seq: 3,
                cluster: 0,
                lineage: PublishKind::Rollback,
                version: 1,
            },
            TraceEvent::Watchdog {
                seq: (2 << 8) | 1,
                cluster: 1,
                verdict: WatchdogKind::RolledBack,
                version: 2,
            },
            TraceEvent::Quarantine {
                seq: 7,
                record: 7,
                line: 4,
            },
        ];
        let text = write_events_ndjson(&events);
        // One line per event, canonical fields, null cluster for unsharded.
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("\"kind\":\"publish\",\"cluster\":null,\"lineage\":\"delta\""));
        assert_eq!(read_events_ndjson(text.as_bytes()).expect("parses"), events);

        // Unknown tag: the error pinpoints the offending token's line + span.
        let broken = text.replacen("\"donor\"", "\"stolen\"", 1);
        match read_events_ndjson(broken.as_bytes()).expect_err("bad tag") {
            CleoError::Parse {
                line, start, end, ..
            } => {
                assert_eq!(line, 4);
                let bad = broken.lines().nth(3).unwrap().as_bytes();
                assert_eq!(&bad[start..end], b"\"stolen\"");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // Trailing garbage is rejected, not silently dropped.
        let trailing = text.replacen("\"jobs\":8}", "\"jobs\":8} ", 1);
        assert!(matches!(
            read_events_ndjson(trailing.as_bytes()),
            Err(CleoError::Parse { line: 3, .. })
        ));
    }
}
