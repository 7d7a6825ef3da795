//! Unified observability: metrics registry, latency histograms, trace events.
//!
//! The serving and feedback stack counts things everywhere — routing
//! outcomes, pool panics, cache hits — but each count used to live in its own
//! ad-hoc struct, and "what happened in this run, in order" was unanswerable
//! without printlns.  This module is the shared substrate:
//!
//! * [`MetricsRegistry`] — a named directory of [`StripedCounter`]s,
//!   [`Gauge`]s, and [`LatencyHistogram`]s.  Registration and name lookup are
//!   cold (mutex-guarded maps); the hot path is the retained handles, whose
//!   increments are the same contention-free striped/padded atomics the
//!   serving tier already uses.  Components keep owning their counters and
//!   *register* the same `Arc` under a public name, so every count has
//!   exactly one source of truth.
//! * [`LatencyHistogram`] — cacheline-padded log-linear bins (4 sub-buckets
//!   of precision per power of two, ≤ 6.25% relative error) over u64
//!   nanoseconds.  Quantiles are a deterministic rank walk over the bins, and
//!   [`LatencyHistogram::merge_from`] is plain bin addition, so a sharded
//!   merge is bit-identical to serial recording of the same multiset —
//!   mergeable percentiles instead of collect-and-sort.
//! * [`TraceLog`] — bounded per-thread-striped buffers of typed
//!   [`TraceEvent`]s.  Events carry a *logical* sequence number assigned by
//!   the caller from a deterministic identity (request number, batch
//!   submission sequence, breaker outcome index, `epoch << 8 | cluster`,
//!   record index) — never wall clocks or thread ids — so a 1-thread and an
//!   N-thread run of the same workload produce the same event multiset, and
//!   [`TraceLog::drain_sorted`] the same event *sequence* (test-pinned).
//!
//! The whole layer threads through production code as `Option<Arc<Obs>>`, in
//! the style of [`crate::fault::FaultPlan`]: the disabled path costs one
//! pointer-nullness branch per site, allocates nothing, and is bit-identical
//! to the enabled path in every serving result.
//!
//! Metric and event names are lowercase dotted identifiers (`[a-z0-9_.]`),
//! which keeps the NDJSON trace exporter escape-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::concurrency::{thread_slot, StripedCounter};
use crate::table::TextTable;

/// `cluster` value for events not attributable to one cluster shard.
pub const NO_CLUSTER: u16 = u16::MAX;

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-value / high-water metric.  Unlike a counter it can move both ways;
/// writers use [`Gauge::set`] for last-value semantics or [`Gauge::set_max`]
/// for high-water marks.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two (16 = 4 bits of mantissa, ≤ 1/16 relative
/// bucket width).  A power of two so index math is shifts and masks.
const HIST_SUB: usize = 16;

/// Total bins: values 0..15 get exact unit bins (group 0); each further
/// power-of-two group `1..=60` gets [`HIST_SUB`] bins, covering all of u64.
const HIST_BINS: usize = HIST_SUB + 60 * HIST_SUB;

/// A cacheline-padded `AtomicU64` for the histogram header fields, so the
/// frequently-written `count`/`sum`/`max` never share a line with each other
/// or with the first bins.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedAtomicU64(AtomicU64);

/// Log-linear latency histogram over u64 nanoseconds with deterministic,
/// mergeable quantiles (see the module docs).
///
/// Recording is two relaxed atomic adds and one `fetch_max`; there are no
/// locks and no allocation after construction.  Quantiles report the *upper
/// bound* of the bucket containing the requested rank (clamped to the exact
/// observed maximum), so `serial recording`, `sharded recording + merge`,
/// and `merge of per-shard histograms` of the same value multiset all report
/// bit-identical numbers.
#[derive(Debug)]
pub struct LatencyHistogram {
    /// Observation count (padded: every record writes it).
    count: PaddedAtomicU64,
    /// Saturating sum of recorded nanoseconds (for the mean).
    sum: PaddedAtomicU64,
    /// Exact maximum recorded value.
    max: PaddedAtomicU64,
    /// Log-linear bins.
    bins: Vec<AtomicU64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// The bin index for value `v`: exact below [`HIST_SUB`], then 16 sub-buckets
/// per power of two.
#[inline]
fn hist_bucket(v: u64) -> usize {
    if v < HIST_SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4
    let group = msb - 3; // 1..=60
    let sub = ((v >> (msb - 4)) & (HIST_SUB as u64 - 1)) as usize;
    group * HIST_SUB + sub
}

/// The largest value that lands in bin `idx` (inclusive upper bound).
fn hist_bucket_upper(idx: usize) -> u64 {
    if idx < HIST_SUB {
        return idx as u64;
    }
    let group = idx / HIST_SUB; // 1..=60
    let sub = (idx % HIST_SUB) as u64;
    let width = 1u64 << (group - 1);
    let base = 1u64 << (group + 3);
    // `base - 1` first: the top bucket's bound is exactly u64::MAX, and
    // adding before subtracting would overflow there.
    base - 1 + (sub + 1) * width
}

impl LatencyHistogram {
    /// An empty histogram (~8 KiB of bins).
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            count: PaddedAtomicU64::default(),
            sum: PaddedAtomicU64::default(),
            max: PaddedAtomicU64::default(),
            bins: (0..HIST_BINS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one observation of `v` nanoseconds.
    #[inline]
    pub fn record_nanos(&self, v: u64) {
        self.bins[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.0.fetch_add(1, Ordering::Relaxed);
        self.sum.0.fetch_add(v, Ordering::Relaxed);
        self.max.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one observation of a [`Duration`] (saturating at u64 nanos).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.0.load(Ordering::Relaxed)
    }

    /// Sum of recorded nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum.0.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max_nanos(&self) -> u64 {
        self.max.0.load(Ordering::Relaxed)
    }

    /// Fold another histogram into this one: plain bin addition plus a max
    /// fold, so merge order never changes any reported quantile.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.bins.iter().zip(&other.bins) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .0
            .fetch_add(other.count.0.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .0
            .fetch_add(other.sum.0.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .0
            .fetch_max(other.max.0.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The quantile `q` in nanoseconds: a rank walk over the bins returning
    /// the containing bucket's upper bound, clamped to the exact maximum.
    /// Deterministic for a given recorded multiset regardless of recording
    /// order, sharding, or merges.  Returns 0 when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bin) in self.bins.iter().enumerate() {
            seen += bin.load(Ordering::Relaxed);
            if seen >= rank {
                return hist_bucket_upper(idx).min(self.max_nanos());
            }
        }
        self.max_nanos()
    }

    /// Zero every bin and header field.
    pub fn reset(&self) {
        for bin in &self.bins {
            bin.store(0, Ordering::Relaxed);
        }
        self.count.0.store(0, Ordering::Relaxed);
        self.sum.0.store(0, Ordering::Relaxed);
        self.max.0.store(0, Ordering::Relaxed);
    }

    /// A point-in-time summary (exact once writers have quiesced).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_nanos: self.sum_nanos(),
            p50_nanos: self.quantile_nanos(0.50),
            p95_nanos: self.quantile_nanos(0.95),
            p99_nanos: self.quantile_nanos(0.99),
            max_nanos: self.max_nanos(),
        }
    }
}

/// Summary of a [`LatencyHistogram`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of recorded nanoseconds.
    pub sum_nanos: u64,
    /// Median (bucket upper bound, clamped to max).
    pub p50_nanos: u64,
    /// 95th percentile.
    pub p95_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
    /// Exact maximum.
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// Mean in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// Front-door admission verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionKind {
    /// Admitted into a shard queue.
    Admitted,
    /// Deferred under delay-style backpressure.
    Delayed,
    /// Rejected under shed backpressure.
    Shed,
}

/// Route-resolution outcomes (mirrors the router's stamp vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKind {
    /// Served by the cluster's own model.
    Own,
    /// Served by a similar cluster's donor model.
    Donor,
    /// Served by the version-0 heuristic fallback.
    Fallback,
}

/// Circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerKind {
    /// Serving normally.
    Closed,
    /// Tripped: the shard's own model is bypassed.
    Open,
    /// Cooldown elapsed: one probe decides open vs closed.
    HalfOpen,
}

/// How a registry version came to be current.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PublishKind {
    /// Full epoch publish.
    Epoch,
    /// Delta-derived publish.
    Delta,
    /// Rollback to an earlier serving-stack entry.
    Rollback,
}

/// Publish-watchdog verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchdogKind {
    /// Live error within budget; version stays.
    Healthy,
    /// Live error regressed; the watchdog rolled back.
    RolledBack,
}

macro_rules! kind_strings {
    ($ty:ty { $($variant:ident => $s:literal),+ $(,)? }) => {
        impl $ty {
            /// Stable lowercase tag used by the NDJSON exporter.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(<$ty>::$variant => $s,)+
                }
            }

            /// Parse the NDJSON tag back (inverse of [`Self::as_str`]).
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $($s => Some(<$ty>::$variant),)+
                    _ => None,
                }
            }

            /// Dense code for deterministic sort keys.
            fn code(self) -> u64 {
                self as u64
            }
        }
    };
}

kind_strings!(AdmissionKind { Admitted => "admitted", Delayed => "delayed", Shed => "shed" });
kind_strings!(RouteKind { Own => "own", Donor => "donor", Fallback => "fallback" });
kind_strings!(BreakerKind { Closed => "closed", Open => "open", HalfOpen => "half_open" });
kind_strings!(PublishKind { Epoch => "epoch", Delta => "delta", Rollback => "rollback" });
kind_strings!(WatchdogKind { Healthy => "healthy", RolledBack => "rolled_back" });

/// One typed trace event.  `seq` is always a *logical* sequence number
/// assigned by the emitting site from a deterministic identity (see the
/// module docs) — never a wall clock — which is what makes event multisets
/// thread-count-invariant (with the one exception noted on
/// [`TraceEvent::Batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// Front-door admission verdict for one request (`seq` = request number).
    Admission {
        /// Request number (offer order).
        seq: u64,
        /// Target shard.
        shard: u16,
        /// Verdict.
        verdict: AdmissionKind,
    },
    /// A coalesced batch left staging (`seq` = first member's request number).
    ///
    /// Which requests share a batch depends on how much work the pool still
    /// had queued when each arrived, so this is the one event that is
    /// invariant across worker counts only for a paused pool or
    /// `coalesce_max = 1`; every other event (and every result) is invariant
    /// unconditionally.
    Batch {
        /// First member's request number.
        seq: u64,
        /// Shard the batch was submitted to.
        shard: u16,
        /// Number of coalesced requests.
        jobs: u32,
    },
    /// Route resolution for one optimization (`seq` = job id).
    Route {
        /// Job id.
        seq: u64,
        /// Requested cluster.
        cluster: u16,
        /// Where the request was actually served.
        outcome: RouteKind,
        /// Model version served (0 for the heuristic fallback).
        version: u64,
    },
    /// Circuit-breaker state change (`seq` = folded outcome index).
    Breaker {
        /// Outcome index at which the transition took effect.
        seq: u64,
        /// Cluster whose breaker transitioned.
        cluster: u16,
        /// New state.
        state: BreakerKind,
    },
    /// A registry version became current (`seq` = new version; for rollbacks
    /// the version rolled back *from*).
    Publish {
        /// New version (rollbacks: the abandoned version).
        seq: u64,
        /// Cluster shard ([`NO_CLUSTER`] for unsharded registries).
        cluster: u16,
        /// How the version came to be current.
        lineage: PublishKind,
        /// The version now serving.
        version: u64,
    },
    /// Publish-watchdog verdict (`seq` = `version << 8 | cluster`).
    Watchdog {
        /// `version << 8 | cluster` of the checked publish.
        seq: u64,
        /// Cluster whose publish was checked.
        cluster: u16,
        /// Verdict.
        verdict: WatchdogKind,
        /// The version that was checked.
        version: u64,
    },
    /// A telemetry record was quarantined (`seq` = absolute record number).
    Quarantine {
        /// Absolute record number (1-based).
        seq: u64,
        /// The record number again (kept explicit for the NDJSON schema).
        record: u64,
        /// 1-based line of the parse failure within the record's input.
        line: u64,
    },
}

impl TraceEvent {
    /// Total-order key: logical sequence first, then kind, then payload.
    /// Injective over the event's fields, so sorting by it yields one
    /// deterministic order per event multiset.
    fn sort_key(&self) -> (u64, u8, u64, u64, u64) {
        match *self {
            TraceEvent::Admission {
                seq,
                shard,
                verdict,
            } => (seq, 0, shard as u64, verdict.code(), 0),
            TraceEvent::Batch { seq, shard, jobs } => (seq, 1, shard as u64, jobs as u64, 0),
            TraceEvent::Route {
                seq,
                cluster,
                outcome,
                version,
            } => (seq, 2, cluster as u64, outcome.code(), version),
            TraceEvent::Breaker {
                seq,
                cluster,
                state,
            } => (seq, 3, cluster as u64, state.code(), 0),
            TraceEvent::Publish {
                seq,
                cluster,
                lineage,
                version,
            } => (seq, 4, cluster as u64, lineage.code(), version),
            TraceEvent::Watchdog {
                seq,
                cluster,
                verdict,
                version,
            } => (seq, 5, cluster as u64, verdict.code(), version),
            TraceEvent::Quarantine { seq, record, line } => (seq, 6, record, line, 0),
        }
    }

    /// The event's logical sequence number.
    pub fn seq(&self) -> u64 {
        self.sort_key().0
    }

    /// Stable lowercase kind tag (`"admission"`, `"batch"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::Batch { .. } => "batch",
            TraceEvent::Route { .. } => "route",
            TraceEvent::Breaker { .. } => "breaker",
            TraceEvent::Publish { .. } => "publish",
            TraceEvent::Watchdog { .. } => "watchdog",
            TraceEvent::Quarantine { .. } => "quarantine",
        }
    }
}

impl PartialOrd for TraceEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TraceEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

// ---------------------------------------------------------------------------
// Trace log
// ---------------------------------------------------------------------------

/// Trace buffer stripes — matches the counter stripe count so the same
/// [`thread_slot`] assignment keeps both core-local.
const TRACE_SHARDS: usize = 16;

/// Default per-stripe capacity (total default capacity: 16 × 8192 events).
const TRACE_SHARD_CAPACITY: usize = 8192;

/// One bounded event buffer, cacheline-aligned so stripes don't share lines.
#[repr(align(64))]
#[derive(Debug)]
struct TraceShard {
    events: Mutex<Vec<TraceEvent>>,
}

/// Bounded, thread-striped collection of [`TraceEvent`]s.
///
/// Each thread records into its home stripe (same assignment as the
/// [`StripedCounter`] stripes), so recording is an uncontended lock plus a
/// push into preallocated capacity — no allocation, no cross-core traffic in
/// steady state.  Capacity is bounded: overflowing events are counted in
/// [`TraceLog::dropped`] and discarded rather than growing without limit.
#[derive(Debug)]
pub struct TraceLog {
    shards: Vec<TraceShard>,
    dropped: StripedCounter,
    capacity_per_shard: usize,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

impl TraceLog {
    /// A log with the default capacity.
    pub fn new() -> TraceLog {
        TraceLog::with_capacity(TRACE_SHARD_CAPACITY)
    }

    /// A log holding up to `capacity_per_shard` events in each of the 16
    /// stripes (buffers are fully preallocated here).
    pub fn with_capacity(capacity_per_shard: usize) -> TraceLog {
        TraceLog {
            shards: (0..TRACE_SHARDS)
                .map(|_| TraceShard {
                    events: Mutex::new(Vec::with_capacity(capacity_per_shard)),
                })
                .collect(),
            dropped: StripedCounter::new(),
            capacity_per_shard,
        }
    }

    /// Record one event into the calling thread's home stripe.  Never
    /// allocates; events past the stripe capacity are counted and dropped.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        let shard = &self.shards[thread_slot() & (TRACE_SHARDS - 1)];
        let mut events = shard.events.lock().expect("trace shard poisoned");
        if events.len() < self.capacity_per_shard {
            events.push(event);
        } else {
            self.dropped.add(1);
        }
    }

    /// Number of buffered events across all stripes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.events.lock().expect("trace shard poisoned").len())
            .sum()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.sum()
    }

    /// Drain every stripe and return the events in the deterministic total
    /// order (sequence, kind, payload).  Exact once recording threads have
    /// quiesced — the same discipline every report in this repo follows.
    pub fn drain_sorted(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.events.lock().expect("trace shard poisoned"));
        }
        all.sort_unstable();
        all
    }

    /// Like [`TraceLog::drain_sorted`] but leaves the buffers intact.
    pub fn snapshot_sorted(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.events.lock().expect("trace shard poisoned").iter());
        }
        all.sort_unstable();
        all
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Named directory of counters, gauges, and histograms (see module docs).
///
/// Lookup/registration is mutex-guarded and meant for setup and snapshot
/// time; hot paths hold the returned `Arc` handles and never touch the maps.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<StripedCounter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<StripedCounter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(StripedCounter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Adopt an existing counter under `name`: the owner keeps incrementing
    /// the same object, the registry snapshots it.  Re-registering a name
    /// replaces the previous binding (last writer wins).
    pub fn register_counter(&self, name: &str, counter: &Arc<StripedCounter>) {
        self.counters
            .lock()
            .expect("registry poisoned")
            .insert(name.to_string(), Arc::clone(counter));
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry poisoned");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(LatencyHistogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Point-in-time values of every registered metric, name-sorted.  Exact
    /// once writers have quiesced.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, c)| (name.clone(), c.sum()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time values of every metric in a [`MetricsRegistry`]
/// (name-sorted within each section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render every metric as one text table (empty string when no metrics
    /// are registered).
    pub fn render(&self) -> String {
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            return String::new();
        }
        let mut table = TextTable::new(
            "metrics",
            &[
                "metric", "kind", "value", "p50_ns", "p95_ns", "p99_ns", "max_ns",
            ],
        );
        for (name, v) in &self.counters {
            table.add_row(&[
                name.clone(),
                "counter".to_string(),
                v.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for (name, v) in &self.gauges {
            table.add_row(&[
                name.clone(),
                "gauge".to_string(),
                v.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for (name, h) in &self.histograms {
            table.add_row(&[
                name.clone(),
                "histogram".to_string(),
                h.count.to_string(),
                h.p50_nanos.to_string(),
                h.p95_nanos.to_string(),
                h.p99_nanos.to_string(),
                h.max_nanos.to_string(),
            ]);
        }
        table.render()
    }
}

// ---------------------------------------------------------------------------
// Obs handle
// ---------------------------------------------------------------------------

/// The observability handle the stack threads as `Option<Arc<Obs>>`: one
/// metrics registry plus one trace log.  `None` is the production default —
/// bit-identical serving results, zero allocation, one nullness branch per
/// site (pinned by `zero_alloc.rs` and the observability suite).
#[derive(Debug, Default)]
pub struct Obs {
    metrics: MetricsRegistry,
    trace: TraceLog,
}

impl Obs {
    /// A fresh registry + trace log with default trace capacity.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Convenience: wrap in the `Option<Arc<..>>` shape the seams thread
    /// (mirrors [`crate::fault::FaultPlan::handle`]).
    pub fn handle(self) -> Option<Arc<Obs>> {
        Some(Arc::new(self))
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Record one trace event.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        self.trace.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn histogram_buckets_are_ordered_and_tight() {
        // Bucket indices are monotone in the value and upper bounds are
        // inclusive: every value lands in a bucket whose bound contains it.
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for v in [v, v + 1, v.wrapping_mul(3) / 2] {
                let idx = hist_bucket(v);
                assert!(idx >= prev.saturating_sub(HIST_SUB), "monotone-ish walk");
                assert!(v <= hist_bucket_upper(idx), "{v} in bucket {idx}");
                if idx > 0 {
                    assert!(
                        v > hist_bucket_upper(idx - 1),
                        "{v} past bucket {}",
                        idx - 1
                    );
                }
                prev = idx;
            }
        }
        // Small values are exact.
        for v in 0..16u64 {
            assert_eq!(hist_bucket(v), v as usize);
            assert_eq!(hist_bucket_upper(v as usize), v);
        }
        // The top bucket reaches u64::MAX.
        assert_eq!(hist_bucket(u64::MAX), HIST_BINS - 1);
        assert_eq!(hist_bucket_upper(HIST_BINS - 1), u64::MAX);
        // Relative bucket width stays within 1/16.
        let v = 1_000_000u64;
        let idx = hist_bucket(v);
        let width = hist_bucket_upper(idx) - hist_bucket_upper(idx - 1);
        assert!(width as f64 / v as f64 <= 1.0 / 16.0 + 1e-9);
    }

    #[test]
    fn histogram_merge_is_bit_identical_to_serial() {
        let mut rng = DetRng::new(0xc1e0);
        let values: Vec<u64> = (0..10_000).map(|_| rng.next_u64() >> 24).collect();

        let serial = LatencyHistogram::new();
        for &v in &values {
            serial.record_nanos(v);
        }

        // Shard the same multiset four ways, merge in an arbitrary order.
        let shards: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % 4].record_nanos(v);
        }
        let merged = LatencyHistogram::new();
        for shard in [3usize, 0, 2, 1] {
            merged.merge_from(&shards[shard]);
        }

        assert_eq!(serial.snapshot(), merged.snapshot());
        assert_eq!(serial.count(), 10_000);
        for q in [0.0, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
            assert_eq!(serial.quantile_nanos(q), merged.quantile_nanos(q));
        }
        // Quantiles are within the bucket's relative error of the exact rank
        // statistic, and never exceed the exact max.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact_p50 = sorted[(0.50f64 * 10_000.0).ceil() as usize - 1];
        let approx = serial.quantile_nanos(0.50);
        assert!(approx >= exact_p50 && approx as f64 <= exact_p50 as f64 * (1.0 + 1.0 / 16.0));
        assert_eq!(serial.max_nanos(), *sorted.last().unwrap());
        assert!(serial.quantile_nanos(1.0) == serial.max_nanos());
    }

    #[test]
    fn histogram_handles_empty_and_reset() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_nanos(0.5), 0);
        assert_eq!(h.snapshot().mean_nanos(), 0);
        h.record(Duration::from_nanos(42));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_nanos(0.5), 42);
        assert_eq!(h.snapshot().mean_nanos(), 42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_nanos(), 0);
    }

    #[test]
    fn registry_get_or_create_and_adoption() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("router.own_hits");
        let b = reg.counter("router.own_hits");
        assert!(Arc::ptr_eq(&a, &b), "same name, same counter");
        a.add(3);

        // Adoption: an externally-owned counter becomes the source of truth.
        let owned = Arc::new(StripedCounter::new());
        owned.add(7);
        reg.register_counter("pool.worker_panics", &owned);
        owned.add(1);

        let gauge = reg.gauge("front_door.shard0.queue_high_water");
        gauge.set_max(5);
        gauge.set_max(3);
        let hist = reg.histogram("front_door.latency");
        hist.record_nanos(100);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("router.own_hits"), Some(3));
        assert_eq!(snap.counter("pool.worker_panics"), Some(8));
        assert_eq!(snap.gauge("front_door.shard0.queue_high_water"), Some(5));
        assert_eq!(snap.histogram("front_door.latency").unwrap().count, 1);
        assert_eq!(snap.counter("no.such"), None);

        // Sections are name-sorted (BTreeMap order) for stable exports.
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));

        let table = snap.render();
        assert!(table.contains("router.own_hits"));
        assert!(table.contains("histogram"));
        assert!(MetricsRegistry::new().snapshot().render().is_empty());
    }

    #[test]
    fn trace_log_sorts_deterministically_and_bounds_capacity() {
        let log = TraceLog::with_capacity(4);
        // Record out of order; drain comes back seq-sorted.
        for seq in [3u64, 1, 2, 0] {
            log.record(TraceEvent::Route {
                seq,
                cluster: 1,
                outcome: RouteKind::Own,
                version: 1,
            });
        }
        assert_eq!(log.len(), 4);
        let events = log.snapshot_sorted();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Same seq: kind rank breaks the tie deterministically.
        let tie = TraceLog::with_capacity(8);
        tie.record(TraceEvent::Breaker {
            seq: 9,
            cluster: 0,
            state: BreakerKind::Open,
        });
        tie.record(TraceEvent::Admission {
            seq: 9,
            shard: 0,
            verdict: AdmissionKind::Admitted,
        });
        let drained = tie.drain_sorted();
        assert_eq!(drained[0].kind(), "admission");
        assert_eq!(drained[1].kind(), "breaker");
        assert!(tie.is_empty(), "drain clears the buffers");
        // Past capacity (single-threaded: one stripe), events are dropped and
        // counted, never reallocated.
        for seq in 0..10u64 {
            log.record(TraceEvent::Quarantine {
                seq,
                record: seq,
                line: 1,
            });
        }
        assert_eq!(log.len(), 4, "stripe capacity bounds the buffer");
        assert_eq!(log.dropped(), 10);
    }

    #[test]
    fn multithreaded_recording_produces_one_multiset() {
        // The same logical events recorded from 1 thread and from 4 threads
        // drain to identical sequences: order and content never depend on
        // interleaving, only on the logical seq.
        let record_all = |threads: usize| -> Vec<TraceEvent> {
            let obs = Obs::new();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let obs = &obs;
                    scope.spawn(move || {
                        for seq in (t as u64..400).step_by(threads) {
                            obs.emit(TraceEvent::Route {
                                seq,
                                cluster: (seq % 4) as u16,
                                outcome: RouteKind::Own,
                                version: 1,
                            });
                            obs.metrics().counter("x").add(1);
                        }
                    });
                }
            });
            assert_eq!(obs.metrics().snapshot().counter("x"), Some(400));
            obs.trace().drain_sorted()
        };
        assert_eq!(record_all(1), record_all(4));
    }

    #[test]
    fn obs_handle_mirrors_fault_plan_seam() {
        let obs: Option<Arc<Obs>> = Obs::new().handle();
        assert!(obs.is_some());
        let none: Option<Arc<Obs>> = None;
        assert!(none.is_none());
    }
}
