//! Spans recorded from the benchmark's own files, around the calls into each
//! layer, plus the two trait wrappers that see the calls the optimizer makes
//! on the benchmark's behalf ([`TimedProvider`], [`TimedCostModel`]).
//!
//! Every 16th top-level span is recorded; every span is counted.  Spans stay
//! in memory until the run ends.  A layer's self time is its span minus the
//! part its child spans cover.
//!
//! Recording a span costs a few hundred nanoseconds where it happens, which
//! is as much as a prediction-cache hit takes, so the cost is measured in
//! place and taken back out.  Recorded top-level spans take turns being
//! *full* (with everything nested in them), *bare* (the top-level span alone)
//! and *doubled* (every cost call wrapped in two spans).  Full against bare
//! gives the whole cost per nested span; outer against inner of a doubled pair
//! gives the part of it that falls outside the span's own interval, in its
//! parent's self time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cleo_engine::physical::{JobMeta, PhysicalNode};
use cleo_optimizer::{CostModel, CostModelProvider, ServedModel, SweepSpec};

/// Span names, one per layer boundary the benchmark can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Layer {
    /// `SharedOptimizer::optimize_cached` — self time is enumeration,
    /// partition exploration and the cost fold.
    Optimize,
    /// Replayed `Enumerator::enumerate` on the same job.
    ReplayEnumerate,
    /// Replayed `Optimizer::optimize_deferred` (enumerate + partition
    /// exploration, no final cost fold).
    ReplayDeferred,
    /// A cost-model call, as recorded.  [`classify_cost_spans`] files the
    /// ones under a request that counted its cache misses as hit or miss.
    Cost,
    /// A cost-model call answered from the prediction cache.
    CostHit,
    /// A cost-model call that ran the prediction stack.
    CostMiss,
    /// `CostModelProvider::snapshot_for`.
    Route,
    /// `CostModelProvider::route_stamp`.
    Stamp,
    /// `FrontDoor::offer` (admission, staging, flush on a full batch).
    Offer,
    /// `FrontDoor::drain_report`.
    Drain,
    /// One feedback step (a delta round or a full epoch).
    Step,
    /// `ingest::parse_telemetry`.
    Parse,
    /// `FeedbackLoop::observe`.
    Observe,
    /// `FeedbackLoop::retrain`.
    Retrain,
    /// `FeedbackLoop::publish_dirty`.
    PublishDirty,
    /// Replayed `CleoTrainer::collect_samples_from`.
    ReplayCollect,
    /// Replayed `CleoTrainer::train_from_samples_seeded`.
    ReplayFit,
    /// Replayed holdout evaluation (the publish guard).
    ReplayGuard,
    /// Replayed `ModelRegistry::publish`.
    ReplayPublish,
    /// The outer span of a doubled cost call (see the module comment).
    CostOuter,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = Layer::CostOuter as usize + 1;

impl Layer {
    /// The name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Optimize => "optimize_cached",
            Layer::ReplayEnumerate => "replay.enumerate",
            Layer::ReplayDeferred => "replay.optimize_deferred",
            Layer::Cost => "cost.call",
            Layer::CostHit => "cost.hit",
            Layer::CostMiss => "cost.miss",
            Layer::Route => "provider.snapshot_for",
            Layer::Stamp => "provider.route_stamp",
            Layer::Offer => "front_door.offer",
            Layer::Drain => "front_door.drain",
            Layer::Step => "feedback.step",
            Layer::Parse => "ingest.parse_telemetry",
            Layer::Observe => "feedback.observe",
            Layer::Retrain => "feedback.retrain",
            Layer::PublishDirty => "feedback.publish_dirty",
            Layer::ReplayCollect => "replay.collect_samples",
            Layer::ReplayFit => "replay.train_from_samples",
            Layer::ReplayGuard => "replay.evaluate_holdout",
            Layer::ReplayPublish => "replay.publish",
            Layer::CostOuter => "cost.call.outer",
        }
    }
}

/// One recorded span.  `parent` 0 means a top-level span; ids start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Request (or feedback step) number the span belongs to.
    pub req: u32,
    /// On a full [`Layer::Optimize`] span: prediction-cache misses during it.
    /// [`BARE`] on a top-level span recorded without its children, [`DOUBLED`]
    /// on one whose cost calls were recorded twice.
    pub tag: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Every `SAMPLE_EVERY`-th top-level span is recorded: in turn full, bare,
/// full, doubled.
pub const SAMPLE_EVERY: u64 = 16;

/// [`Span::tag`] of a top-level span recorded without its children.
pub const BARE: u32 = u32::MAX;

/// [`Span::tag`] of a top-level span whose cost calls carry two spans each.
pub const DOUBLED: u32 = u32::MAX - 1;

/// What the current top-level span of a thread records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Bare,
    Full,
    Doubled,
}

thread_local! {
    /// Open spans of this thread (ids, innermost last), whether the current
    /// top-level span is being recorded, and top-level spans seen so far.
    static CONTEXT: RefCell<Context> = const { RefCell::new(Context {
        stack: Vec::new(),
        mode: Mode::Off,
        roots_seen: 0,
        req: 0,
    }) };
}

struct Context {
    stack: Vec<u32>,
    mode: Mode,
    roots_seen: u64,
    req: u32,
}

/// The in-memory span buffer and per-layer call counts of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    counts: [AtomicU64; LAYERS],
}

impl Tracer {
    /// A tracer with room for `capacity` spans preallocated.
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            next_id: AtomicU64::new(1),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// Name the request the calling thread's next top-level span belongs to.
    pub fn set_request(&self, req: u32) {
        CONTEXT.with(|c| c.borrow_mut().req = req);
    }

    /// Open a span; it closes when the guard drops.  A top-level span decides
    /// what is recorded of it and of everything nested in it: all of it
    /// (`always`, or every 32nd on this thread), itself alone or everything
    /// with cost calls doubled (every 64th each), or nothing.  All spans are
    /// counted.
    pub fn span(&self, layer: Layer, always: bool) -> SpanGuard<'_> {
        let open = CONTEXT.with(|c| {
            let mut c = c.borrow_mut();
            let top_level = c.stack.is_empty();
            if top_level {
                c.mode = if always {
                    Mode::Full
                } else if c.roots_seen % SAMPLE_EVERY != 0 {
                    Mode::Off
                } else {
                    match (c.roots_seen / SAMPLE_EVERY) % 4 {
                        1 => Mode::Bare,
                        3 => Mode::Doubled,
                        _ => Mode::Full,
                    }
                };
                c.roots_seen += 1;
            }
            if c.mode == Mode::Off || (c.mode == Mode::Bare && !top_level) {
                // Keep depth so nested spans do not look top-level.
                c.stack.push(0);
                return None;
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u32;
            let parent = c.stack.last().copied().unwrap_or(0);
            c.stack.push(id);
            let tag = match c.mode {
                Mode::Bare => BARE,
                Mode::Doubled if top_level => DOUBLED,
                _ => 0,
            };
            Some((id, parent, c.req, tag))
        });
        let tag = open.map_or(0, |o| o.3);
        SpanGuard {
            tracer: self,
            layer,
            tag,
            full: open.is_some() && tag == 0,
            // Spans that are only counted never read the clock.
            open: open.map(|(id, parent, req, _)| ((id, parent, req), Instant::now())),
        }
    }

    /// Is the calling thread inside a doubled top-level span?
    fn doubling(&self) -> bool {
        CONTEXT.with(|c| {
            let c = c.borrow();
            c.mode == Mode::Doubled && !c.stack.is_empty()
        })
    }

    /// Calls counted for a layer (recorded or not).
    pub fn calls(&self, layer: Layer) -> u64 {
        self.counts[layer as usize].load(Ordering::Relaxed)
    }

    /// Look at, and relabel, the spans recorded so far.
    pub fn with_spans<T>(&self, f: impl FnOnce(&mut [Span]) -> T) -> T {
        f(&mut self.spans.lock().expect("span buffer poisoned"))
    }

    /// Take the recorded spans out of the buffer.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    layer: Layer,
    tag: u32,
    full: bool,
    open: Option<((u32, u32, u32), Instant)>,
}

impl SpanGuard<'_> {
    /// Is this span being recorded together with everything nested in it?
    pub fn full(&self) -> bool {
        self.full
    }

    /// Attach a number to a full span (see [`Span::tag`]).
    pub fn set_tag(&mut self, tag: u32) {
        if self.full {
            self.tag = tag;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.open.map(|_| Instant::now());
        self.tracer.counts[self.layer as usize].fetch_add(1, Ordering::Relaxed);
        CONTEXT.with(|c| {
            c.borrow_mut().stack.pop();
        });
        if let (Some(((id, parent, req), start)), Some(end)) = (self.open, end) {
            let span = Span {
                id,
                parent,
                req,
                tag: self.tag,
                layer: self.layer,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
            };
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Per-layer totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Recorded spans of the layer.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Spans recorded directly under them.
    pub children: u64,
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children may overlap each other, and are
/// clipped to the parent).  Returns totals per layer, over the spans whose
/// top-level ancestor is of layer `under` (all spans when `None`).  Bare and
/// doubled top-level spans, and what is nested in them, are left out; see
/// [`bare_mean_ns`] and [`outside_cost_ns`].
pub fn layer_totals(spans: &[Span], under: Option<Layer>) -> [LayerTotal; LAYERS] {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_of = |s: &Span| {
        let mut at = *s;
        while let Some(parent) = by_id.get(&at.parent) {
            at = **parent;
        }
        at
    };
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut totals = [LayerTotal::default(); LAYERS];
    for s in spans {
        let root = root_of(s);
        if root.tag == BARE || root.tag == DOUBLED || under.is_some_and(|l| root.layer != l) {
            continue;
        }
        let (covered, kids) = children
            .get_mut(&s.id)
            .map(|kids| (covered_ns(kids, s.start_ns, s.end_ns), kids.len()))
            .unwrap_or((0, 0));
        let t = &mut totals[s.layer as usize];
        t.spans += 1;
        t.children += kids as u64;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += (s.end_ns - s.start_ns) - covered;
    }
    totals
}

/// Mean duration of the bare top-level spans of `layer` (0 when there are none).
pub fn bare_mean_ns(spans: &[Span], layer: Layer) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer && s.tag == BARE)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    crate::stats::mean(&durations)
}

/// Mean over doubled cost calls of outer duration minus inner duration: the
/// part of recording a span that lands outside its own interval (0 when no
/// call was doubled).
pub fn outside_cost_ns(spans: &[Span]) -> f64 {
    let outer: HashMap<u32, u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::CostOuter)
        .map(|s| (s.id, s.end_ns - s.start_ns))
        .collect();
    let gaps: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Cost)
        .filter_map(|s| {
            outer
                .get(&s.parent)
                .map(|o| (o - (s.end_ns - s.start_ns)) as f64)
        })
        .collect();
    crate::stats::mean(&gaps)
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// File the cost spans directly under each [`Layer::Optimize`] span as hits
/// or misses: the request counted `tag` prediction-cache misses, a miss runs
/// the whole prediction stack and a hit is one map lookup, so the `tag`
/// longest cost calls of the request are its misses.  (Reading the cache's
/// counters around every call instead would cost more than a hit does.)
pub fn classify_cost_spans(spans: &mut [Span]) {
    let misses: HashMap<u32, u32> = spans
        .iter()
        .filter(|s| s.layer == Layer::Optimize && s.tag != BARE && s.tag != DOUBLED)
        .map(|s| (s.id, s.tag))
        .collect();
    let mut calls: HashMap<u32, Vec<(u64, usize)>> = HashMap::new();
    for (index, s) in spans.iter().enumerate() {
        if s.layer == Layer::Cost && misses.contains_key(&s.parent) {
            calls
                .entry(s.parent)
                .or_default()
                .push((s.end_ns - s.start_ns, index));
        }
    }
    for (parent, mut calls) in calls {
        calls.sort_unstable_by(|a, b| b.cmp(a));
        for (rank, &(_, index)) in calls.iter().enumerate() {
            spans[index].layer = if (rank as u32) < misses[&parent] {
                Layer::CostMiss
            } else {
                Layer::CostHit
            };
        }
    }
}

/// Write spans as NDJSON: `{id, parent, req, name, start_ns, end_ns}` a line.
pub fn spans_ndjson(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}}}\n",
            s.id,
            s.parent,
            s.req,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

/// A [`CostModel`] that records one span per call.
pub struct TimedCostModel {
    inner: Arc<dyn CostModel>,
    tracer: Arc<Tracer>,
}

impl TimedCostModel {
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let _outer = self
            .tracer
            .doubling()
            .then(|| self.tracer.span(Layer::CostOuter, false));
        let _span = self.tracer.span(Layer::Cost, false);
        call()
    }
}

impl CostModel for TimedCostModel {
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> f64 {
        self.timed(|| self.inner.exclusive_cost(node, partitions, meta))
    }

    fn exclusive_cost_batch(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        self.timed(|| self.inner.exclusive_cost_batch(node, partitions, meta))
    }

    fn exclusive_cost_sweeps(&self, sweeps: &[SweepSpec]) -> Vec<Vec<f64>> {
        self.timed(|| self.inner.exclusive_cost_sweeps(sweeps))
    }

    fn partition_coefficients(&self, node: &PhysicalNode, meta: &JobMeta) -> Option<(f64, f64)> {
        self.timed(|| self.inner.partition_coefficients(node, meta))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`CostModelProvider`] that times routing and serves [`TimedCostModel`]s.
pub struct TimedProvider {
    inner: Arc<dyn CostModelProvider>,
    tracer: Arc<Tracer>,
    /// One wrapper per served snapshot, so two jobs served by the same
    /// snapshot still see the same `Arc` (batch coalescing groups on it).
    wrapped: Mutex<HashMap<usize, Arc<TimedCostModel>>>,
    cached_routes: AtomicU64,
}

impl TimedProvider {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn CostModelProvider>, tracer: Arc<Tracer>) -> TimedProvider {
        TimedProvider {
            inner,
            tracer,
            wrapped: Mutex::new(HashMap::new()),
            cached_routes: AtomicU64::new(0),
        }
    }

    /// Jobs served from a worker-local cached snapshot.
    pub fn cached_routes(&self) -> u64 {
        self.cached_routes.load(Ordering::Relaxed)
    }

    fn wrap(&self, served: ServedModel) -> ServedModel {
        let key = Arc::as_ptr(&served.model) as *const () as usize;
        let mut wrapped = self.wrapped.lock().expect("wrapper table poisoned");
        let model = wrapped.entry(key).or_insert_with(|| {
            Arc::new(TimedCostModel {
                inner: Arc::clone(&served.model),
                tracer: Arc::clone(&self.tracer),
            })
        });
        ServedModel {
            model: Arc::clone(model) as Arc<dyn CostModel>,
            ..served
        }
    }
}

impl CostModelProvider for TimedProvider {
    fn current(&self) -> Arc<dyn CostModel> {
        self.inner.current()
    }

    fn current_version(&self) -> u64 {
        self.inner.current_version()
    }

    fn snapshot_for(&self, meta: &JobMeta) -> ServedModel {
        let _span = self.tracer.span(Layer::Route, false);
        self.wrap(self.inner.snapshot_for(meta))
    }

    fn route_stamp(&self, meta: &JobMeta) -> u64 {
        let _span = self.tracer.span(Layer::Stamp, false);
        self.inner.route_stamp(meta)
    }

    fn note_cached_route(&self, meta: &JobMeta, served: &ServedModel) {
        self.cached_routes.fetch_add(1, Ordering::Relaxed);
        self.inner.note_cached_route(meta, served);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            tag: 0,
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn the_longest_cost_calls_of_a_request_are_its_misses() {
        let mut spans = vec![
            span(1, 0, Layer::Optimize, 0, 1000),
            span(2, 1, Layer::Cost, 10, 20),
            span(3, 1, Layer::Cost, 30, 130),
            span(4, 1, Layer::Cost, 200, 215),
            span(5, 1, Layer::Cost, 300, 390),
            span(6, 0, Layer::ReplayEnumerate, 2000, 3000),
            span(7, 6, Layer::Cost, 2010, 2500),
        ];
        spans[0].tag = 2;
        classify_cost_spans(&mut spans);
        let layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
        assert_eq!(
            layers,
            vec![
                Layer::Optimize,
                Layer::CostHit,
                Layer::CostMiss,
                Layer::CostHit,
                Layer::CostMiss,
                Layer::ReplayEnumerate,
                Layer::Cost,
            ]
        );
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // optimize [0,100] ⊃ miss [10,40] ⊃ stamp [20,30]; optimize ⊃ hit [50,60].
        let spans = [
            span(1, 0, Layer::Optimize, 0, 100),
            span(2, 1, Layer::CostMiss, 10, 40),
            span(3, 2, Layer::Stamp, 20, 30),
            span(4, 1, Layer::CostHit, 50, 60),
        ];
        let totals = layer_totals(&spans, None);
        assert_eq!(totals[Layer::Optimize as usize].self_ns, 100 - 30 - 10);
        assert_eq!(totals[Layer::CostMiss as usize].self_ns, 30 - 10);
        assert_eq!(totals[Layer::Stamp as usize].self_ns, 10);
        assert_eq!(totals[Layer::CostHit as usize].self_ns, 10);
        let sum: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the top-level span");
        // A second top-level span of another layer is left out on request.
        let mut more = spans.to_vec();
        more.push(span(5, 0, Layer::ReplayEnumerate, 200, 260));
        more.push(span(6, 5, Layer::CostHit, 210, 220));
        let under = layer_totals(&more, Some(Layer::Optimize));
        assert_eq!(under[Layer::CostHit as usize].self_ns, 10);
        assert_eq!(under[Layer::ReplayEnumerate as usize].spans, 0);
        let replay = layer_totals(&more, Some(Layer::ReplayEnumerate));
        assert_eq!(replay[Layer::ReplayEnumerate as usize].self_ns, 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        // Children [10,50] and [30,70] overlap; [90,130] overhangs the parent.
        let spans = [
            span(1, 0, Layer::Step, 0, 100),
            span(2, 1, Layer::Parse, 10, 50),
            span(3, 1, Layer::Observe, 30, 70),
            span(4, 1, Layer::Retrain, 90, 130),
        ];
        let totals = layer_totals(&spans, None);
        assert_eq!(totals[Layer::Step as usize].self_ns, 100 - 60 - 10);
        assert_eq!(totals[Layer::Step as usize].total_ns, 100);
        assert_eq!(totals[Layer::Retrain as usize].self_ns, 40);
    }

    #[test]
    fn every_sixteenth_top_level_span_is_recorded_and_all_are_counted() {
        let tracer = Tracer::new(64);
        for req in 0..64u32 {
            tracer.set_request(req);
            let root = tracer.span(Layer::Optimize, false);
            assert_eq!(root.full(), req % 32 == 0);
            let _stamp = tracer.span(Layer::Stamp, false);
        }
        assert_eq!(tracer.calls(Layer::Optimize), 64);
        assert_eq!(tracer.calls(Layer::Stamp), 64);
        let spans = tracer.take_spans();
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(
            roots.iter().map(|s| (s.req, s.tag)).collect::<Vec<_>>(),
            vec![(0, 0), (16, BARE), (32, 0), (48, DOUBLED)],
            "requests 0 and 32 in full, request 16 bare, request 48 doubled"
        );
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent != 0).collect();
        assert_eq!(children.len(), 3, "a bare span records no children");
        for child in children {
            assert!(roots
                .iter()
                .any(|r| r.id == child.parent && r.req == child.req));
        }
        assert_eq!(
            layer_totals(&spans, None)[Layer::Optimize as usize].spans,
            2
        );
        assert_eq!(
            layer_totals(&spans, None)[Layer::Optimize as usize].children,
            2
        );
        assert!(bare_mean_ns(&spans, Layer::Optimize) > 0.0);
    }

    #[test]
    fn a_doubled_cost_call_shows_what_recording_adds_around_a_span() {
        let spans = [
            span(1, 0, Layer::Optimize, 0, 1000),
            span(2, 1, Layer::CostOuter, 100, 400),
            span(3, 2, Layer::Cost, 180, 340),
            span(4, 1, Layer::CostOuter, 500, 700),
            span(5, 4, Layer::Cost, 560, 660),
        ];
        assert_eq!(outside_cost_ns(&spans), (140.0 + 100.0) / 2.0);
        assert_eq!(outside_cost_ns(&spans[..1]), 0.0);
        let text = spans_ndjson(&spans);
        assert_eq!(text.lines().count(), spans.len());
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
    }
}
