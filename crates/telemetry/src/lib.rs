//! Unified telemetry for the DRAI stack.
//!
//! A [`Registry`] holds named [`Counter`]s, [`Gauge`]s, and log2-bucket
//! latency [`Histogram`]s, plus a log of completed [`SpanRecord`]s from
//! scoped timers. All hot-path operations are single atomic instructions
//! so instrumentation is safe inside pipeline stage loops and I/O worker
//! threads. [`Snapshot`] freezes the registry into plain data and the
//! [`export`] module renders it as JSON, JSONL, or criterion-style
//! `estimates.json` files consumed by `scripts/summarize_bench.py`.
//!
//! # Hierarchical traces
//!
//! Spans are not just a flat log: every span carries a [`TraceId`]
//! (one per causally connected run), its own [`SpanId`], and the id of
//! the span that was *current* when it was opened. Currency is a
//! thread-local stack of [`TraceContext`]s: entering a span with
//! [`Span::enter`] pushes, dropping the guard pops. Crossing a thread
//! boundary is explicit — capture [`TraceContext::current`] (or
//! [`Span::context`]) when the closure is *created* and
//! [`TraceContext::attach`] it inside the worker, so trace shape is
//! deterministic no matter how a thread pool schedules the work. The
//! [`trace`] module reassembles the records into trees and exports
//! Chrome trace-event JSON, folded flamegraph stacks, and a
//! critical-path summary.
//!
//! [`Registry::current`] returns the context's registry (falling back
//! to [`Registry::global`]); instrumented library code resolves its
//! metrics through it so a private per-test registry captures worker
//! metrics too.
//!
//! The metric namespace is a public interface: dashboards, the bench
//! summarizer, health rules and regression tests key on exact dotted
//! names. So a metric is written, and a span opened, only through a
//! [`Name`]: a constant the writing crate declares in its private
//! `names` module, whose template the compiler checks against the dotted
//! grammar. A declared name that nothing writes is `dead_code`, which CI's
//! `clippy -D warnings` refuses; a lookup by string ([`Registry::counter`]
//! and its siblings) only reads.
//!
//! Writers: `pipeline.*` and `executor.*` (queue depth, send stalls,
//! per-stage in-flight, live progress) come from drai-core; `io.*` from
//! drai-io; `domain.*` from drai-domains; `cache.*` from drai-cache;
//! `sched.*` from drai-sched; `monitor.*` from the [`monitor`] sampler's
//! health layer; `<span>.ns` is the histogram every [`Span`] records on
//! drop.
//!
//! The [`monitor`] module adds the *live* view: a background sampler
//! on an injectable [`clock`] that turns the registry into bounded
//! ring-buffer time series (deltas, rates, gauge window watermarks),
//! evaluates declarative health rules per sample, and diagnoses
//! streaming-executor backpressure post-run.
//!
//! ```
//! use drai_telemetry::{Counter, Name, Registry, Span};
//!
//! const BYTES: Name<Counter> = Name::declare("io.bytes");
//! const STAGE: Name<Span, 2> = Name::declare("pipeline.{}.{}");
//!
//! let reg = Registry::new();
//! reg.handle(&BYTES, []).add(4096);
//! {
//!     let span = reg.span(&STAGE, ["demo", "validate"]);
//!     span.add_items(128);
//!     let _in_stage = span.enter(); // children opened now nest under it
//!     // ... stage work ...
//! } // span records its duration on drop
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["io.bytes"], 4096);
//! assert_eq!(snap.spans[0].name, "pipeline.demo.validate");
//! assert_eq!(snap.spans[0].items, 128);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

pub mod clock;
pub mod export;
pub mod monitor;
pub mod trace;

pub use export::write_criterion_estimates;

/// Number of log2 latency buckets: bucket `i` holds values with
/// `ilog2(v) == i` (bucket 0 also holds 0), so the range spans 1 ns to
/// ~584 years.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The names this crate writes: the sampler's own counters and the
/// histogram every [`Span`] records on drop.
mod names {
    use crate::{Counter, Histogram, Name};

    pub(crate) const MONITOR_SAMPLES: Name<Counter> = Name::declare("monitor.samples");
    pub(crate) const MONITOR_VIOLATIONS: Name<Counter> = Name::declare("monitor.health.violations");
    /// One per health rule; the rule name is one segment.
    pub(crate) const MONITOR_RULE: Name<Counter, 1> = Name::declare("monitor.rule.{}");
    /// The hole holds the whole span name.
    pub(crate) const SPAN_NS: Name<Histogram, 1> = Name::declare("{}.ns");
}

/// A metric or span name, declared as a constant by the crate that
/// writes it. The template is dotted segments, at least two, each
/// `[a-z0-9_]+` or a `{}` hole; the compiler checks it when it evaluates
/// the constant, used or not. `N` is the number of holes, and every
/// write supplies that many parameters, filled in order (a parameter is
/// not checked: it may be a pipeline name with a `-`, or a whole span
/// name). `K` is what the name names: [`Counter`], [`Gauge`] or
/// [`Histogram`] for [`Registry::handle`], [`Span`] for
/// [`Registry::span`] and [`Registry::time`].
///
/// ```
/// use drai_telemetry::{Counter, Name, Registry};
///
/// const HITS: Name<Counter> = Name::declare("doc.cache.hits");
/// const BYTES_IN: Name<Counter, 1> = Name::declare("doc.codec.{}.bytes_in");
///
/// let reg = Registry::new();
/// reg.handle(&HITS, []).incr();
/// reg.handle(&BYTES_IN, ["lz"]).add(4096);
/// assert_eq!(reg.counter("doc.cache.hits").get(), 1);
/// assert_eq!(reg.counter("doc.codec.lz.bytes_in").get(), 4096);
/// ```
///
/// Each example below breaks one rule the one above keeps, and does not
/// compile (stable rustdoc does not check the error code, so the one
/// above keeps them honest). A segment with an uppercase letter, or with
/// a `-`, fails the grammar (E0080):
///
/// ```compile_fail
/// # use drai_telemetry::{Counter, Name};
/// const HITS: Name<Counter> = Name::declare("doc.cache.Hits");
/// ```
///
/// ```compile_fail
/// # use drai_telemetry::{Counter, Name};
/// const HITS: Name<Counter> = Name::declare("doc.cache-hits");
/// ```
///
/// A templated name given the wrong number of parameters (E0308):
///
/// ```compile_fail
/// # use drai_telemetry::{Counter, Name, Registry};
/// const BYTES_IN: Name<Counter, 1> = Name::declare("doc.codec.{}.bytes_in");
/// Registry::new().handle(&BYTES_IN, []).add(4096);
/// ```
///
/// A name made at the call site instead of declared: the temporary does
/// not live for `'static` (E0716):
///
/// ```compile_fail
/// # use drai_telemetry::{Counter, Name, Registry};
/// Registry::new().handle(&Name::<Counter>::declare("doc.cache.hits"), []).incr();
/// ```
///
/// A write through a lookup by string: what it returns has no write
/// method (E0599):
///
/// ```compile_fail
/// # use drai_telemetry::Registry;
/// Registry::new().counter("doc.cache.hits").add(1);
/// ```
pub struct Name<K, const N: usize = 0> {
    template: &'static str,
    kind: PhantomData<fn() -> K>,
}

impl<K, const N: usize> Name<K, N> {
    /// Declare a name. In a constant, a template outside the grammar, or
    /// with other than `N` holes, does not compile.
    pub const fn declare(template: &'static str) -> Self {
        let b = template.as_bytes();
        let (mut start, mut segments, mut holes) = (0, 0, 0);
        let mut i = 0;
        while i <= b.len() {
            if i == b.len() || b[i] == b'.' {
                if i == start + 2 && b[start] == b'{' && b[start + 1] == b'}' {
                    holes += 1;
                } else {
                    assert!(
                        segment_ok(b, start, i),
                        "a name segment is `[a-z0-9_]+` or `{{}}`"
                    );
                }
                segments += 1;
                start = i + 1;
            }
            i += 1;
        }
        assert!(segments >= 2, "a name has at least two segments");
        assert!(
            holes == N,
            "a name has as many `{{}}` holes as it takes parameters"
        );
        Name {
            template,
            kind: PhantomData,
        }
    }

    /// The name with its holes filled by `params`, in order.
    fn fill(&self, params: [&str; N]) -> std::borrow::Cow<'static, str> {
        if N == 0 {
            return self.template.into();
        }
        let mut parts = self.template.split("{}");
        let len = self.template.len() + params.iter().map(|p| p.len()).sum::<usize>();
        let mut out = String::with_capacity(len);
        out.push_str(parts.next().unwrap_or_default());
        for (param, part) in params.iter().zip(parts) {
            out.push_str(param);
            out.push_str(part);
        }
        out.into()
    }
}

/// Whether `b[start..end]` is one plain name segment, `[a-z0-9_]+`.
pub(crate) const fn segment_ok(b: &[u8], start: usize, end: usize) -> bool {
    let mut i = start;
    while i < end {
        if !matches!(b[i], b'a'..=b'z' | b'0'..=b'9' | b'_') {
            return false;
        }
        i += 1;
    }
    start < end
}

/// What [`Registry::handle`] resolves a declared [`Name`] to: a
/// [`Counter`], a [`Gauge`] or a [`Histogram`].
pub trait Instrument: Sized {
    /// The instrument called `name` in `registry`, created on first use
    /// (the lookup behind [`Registry::counter`] and its siblings).
    fn lookup(registry: &Registry, name: &str) -> Arc<Self>;
}

impl Instrument for Counter {
    fn lookup(registry: &Registry, name: &str) -> Arc<Self> {
        registry.counter(name)
    }
}

impl Instrument for Gauge {
    fn lookup(registry: &Registry, name: &str) -> Arc<Self> {
        registry.gauge(name)
    }
}

impl Instrument for Histogram {
    fn lookup(registry: &Registry, name: &str) -> Arc<Self> {
        registry.histogram(name)
    }
}

/// Write access to one metric, from [`Registry::handle`] and a declared
/// [`Name`]; it reads like the metric itself (`Deref`). Cheap to clone
/// and to keep: resolve once, write many times.
#[derive(Debug)]
pub struct Handle<M>(Arc<M>);

impl<M> Clone for Handle<M> {
    fn clone(&self) -> Self {
        Handle(Arc::clone(&self.0))
    }
}

impl<M> std::ops::Deref for Handle<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.0
    }
}

/// Monotonic elapsed-time source.
///
/// This is the only way for workspace code to read time: the root
/// `clippy.toml` disallows `Instant::now` / `SystemTime::now` everywhere
/// but this crate (and the `criterion` shim), so timing stays behind one
/// seam and data-plane behaviour never depends on the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Monotonically increasing event count, written through a
/// [`Handle`].
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Handle<Counter> {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Instantaneous signed level (queue depths, in-flight work).
///
/// Two ways write it: [`Handle::set`] stores an absolute level (a ratio,
/// a depth sampled from elsewhere), and a [`GaugeGuard`] raises the level
/// by `n` for as long as it lives. There is no public `add`: a level that
/// counts work in progress goes up only through a guard, so it comes
/// back down however the work ends — a gauge that only ever rose would
/// be a leak, not a level.
///
/// Alongside the lifetime high/low watermarks, a gauge keeps a second
/// pair of *window* watermarks that the monitor sampler drains with
/// [`Gauge::take_window`]: between two samples the gauge may spike and
/// fall back, and the last-written value alone would hide the
/// excursion entirely.
///
/// All watermarks start at the initial level 0, matching the
/// semantics of a freshly created gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    max_seen: AtomicI64,
    min_seen: AtomicI64,
    win_max: AtomicI64,
    win_min: AtomicI64,
}

/// One sampling window of a gauge, drained by [`Gauge::take_window`]:
/// the level at sample time plus the lowest and highest levels touched
/// since the previous sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeWindow {
    /// Level at sample time.
    pub value: i64,
    /// Lowest level touched during the window (`<= value`).
    pub lo: i64,
    /// Highest level touched during the window (`>= value`).
    pub hi: i64,
}

impl Gauge {
    #[inline]
    fn watermark(&self, v: i64) {
        self.max_seen.fetch_max(v, Ordering::Relaxed);
        self.min_seen.fetch_min(v, Ordering::Relaxed);
        self.win_max.fetch_max(v, Ordering::Relaxed);
        self.win_min.fetch_min(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` and return the new value. Private:
    /// outside this crate a level is raised only by a [`GaugeGuard`],
    /// which lowers it again.
    #[inline]
    fn add(&self, delta: i64) -> i64 {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.watermark(new);
        new
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark since creation/reset.
    pub fn max(&self) -> i64 {
        self.max_seen.load(Ordering::Relaxed)
    }

    /// Low-water mark since creation/reset (0 until the level first
    /// drops below its initial 0).
    pub fn min(&self) -> i64 {
        self.min_seen.load(Ordering::Relaxed)
    }

    /// Drain the current sampling window: return the level plus the
    /// low/high watermarks touched since the previous `take_window`
    /// (or creation), then restart the window at the current level.
    ///
    /// Concurrent updates racing the drain land in one window or the
    /// other, never nowhere; the returned `lo`/`hi` always bracket
    /// `value`.
    pub fn take_window(&self) -> GaugeWindow {
        let value = self.value.load(Ordering::Relaxed);
        let hi = self.win_max.swap(value, Ordering::Relaxed).max(value);
        let lo = self.win_min.swap(value, Ordering::Relaxed).min(value);
        GaugeWindow { value, lo, hi }
    }
}

impl Handle<Gauge> {
    /// Set the level (a [`GaugeGuard`] is the other way to write one).
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.watermark(v);
    }
}

/// A raised gauge level: `+n` on the gauge when made, `-n` when dropped.
/// The one way to raise a level from outside this crate, so a level is
/// balanced by construction — across early returns, unwinds, and guards
/// that travel with the work they count (a channel message, a queued
/// job) and drop wherever that work ends.
///
/// ```
/// use drai_telemetry::{Gauge, GaugeGuard, Name, Registry};
///
/// const LEVEL: Name<Gauge> = Name::declare("doc.level");
/// let gauge = Registry::new().handle(&LEVEL, []);
/// let raised = GaugeGuard::new(gauge.clone(), 2);
/// assert_eq!(gauge.get(), 2);
/// drop(raised);
/// assert_eq!(gauge.get(), 0);
/// ```
///
/// `Gauge::add` stays private, so the same gauge cannot be raised
/// directly (stable rustdoc does not check the error code, so the example
/// above keeps the first lines honest):
///
/// ```compile_fail
/// use drai_telemetry::{Gauge, GaugeGuard, Name, Registry};
///
/// const LEVEL: Name<Gauge> = Name::declare("doc.level");
/// let gauge = Registry::new().handle(&LEVEL, []);
/// gauge.add(1);
/// ```
#[must_use = "dropping the guard immediately lowers the gauge again"]
#[derive(Debug)]
pub struct GaugeGuard {
    gauge: Handle<Gauge>,
    n: i64,
}

impl GaugeGuard {
    /// Raise `gauge` by `n` until the guard drops.
    #[inline]
    pub fn new(gauge: Handle<Gauge>, n: i64) -> GaugeGuard {
        gauge.add(n);
        GaugeGuard { gauge, n }
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge.add(-self.n);
    }
}

/// Fixed-bucket log2 histogram for durations (or any u64 magnitude),
/// written through a [`Handle`].
///
/// Recording is two relaxed atomic adds plus two atomic min/max — no
/// locks, no allocation — so it can sit inside per-record loops.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Smallest observation, or 0 with no data.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile from bucket midpoints (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Midpoint of bucket i: [2^i, 2^(i+1)).
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return (lo + (hi - lo) / 2).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    fn bucket_counts(&self) -> Vec<(u8, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect()
    }
}

impl Handle<Histogram> {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let h = &self.0;
        h.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.min.fetch_min(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Identifier of one causally connected run. Allocated process-wide so
/// ids stay unique across registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    fn next() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of one span within its registry (unique per registry,
/// never 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

thread_local! {
    static CONTEXT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The propagation unit of a trace: which registry to record into,
/// which trace the work belongs to, and which span is the parent of
/// anything opened under it.
///
/// Handoff rules:
/// - Same thread: [`Span::enter`] pushes the span's context onto a
///   thread-local stack; the returned guard pops it.
/// - Across threads: capture the context when the closure is
///   *created* ([`TraceContext::current`] or [`Span::context`]) and
///   [`attach`](TraceContext::attach) it inside the worker. Capturing
///   at creation time (not at run time) is what makes trace shape
///   independent of how a pool schedules the closure.
#[derive(Debug, Clone)]
pub struct TraceContext {
    registry: Registry,
    trace: TraceId,
    parent: Option<SpanId>,
}

impl TraceContext {
    /// Start a fresh trace rooted in `registry`. Spans opened while
    /// this context is attached become roots of the new trace.
    pub fn root(registry: &Registry) -> TraceContext {
        TraceContext {
            registry: registry.clone(),
            trace: TraceId::next(),
            parent: None,
        }
    }

    /// The context attached to the current thread, if any.
    pub fn current() -> Option<TraceContext> {
        CONTEXT.with(|stack| stack.borrow().last().cloned())
    }

    /// Registry this context records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Trace this context belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Span that new child spans will attach under (`None` → root).
    pub fn parent(&self) -> Option<SpanId> {
        self.parent
    }

    /// Make this context current on this thread until the guard drops.
    /// Guards must drop in reverse attach order (RAII scoping does
    /// this naturally).
    pub fn attach(&self) -> ContextGuard {
        CONTEXT.with(|stack| stack.borrow_mut().push(self.clone()));
        ContextGuard {
            _not_send: PhantomData,
        }
    }

    /// Run `f` with this context attached.
    pub fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = self.attach();
        f()
    }
}

/// RAII guard from [`TraceContext::attach`] / [`Span::enter`]; pops
/// the thread-local context stack on drop. Not `Send`: it must drop on
/// the thread that created it.
pub struct ContextGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// A completed span: one timed, named unit of work, placed in its
/// trace tree by `(trace, id, parent)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `pipeline.climate.regrid`).
    pub name: String,
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (unique within the registry).
    pub id: SpanId,
    /// Id of the span that was current when this one opened; `None`
    /// for trace roots.
    pub parent: Option<SpanId>,
    /// Start offset in ns from the registry's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns (at least 1).
    pub dur_ns: u64,
    /// Items processed inside the span (0 when not applicable).
    pub items: u64,
    /// Bytes processed inside the span (0 when not applicable).
    pub bytes: u64,
}

/// Live scoped timer; records a [`SpanRecord`] (and a `<name>.ns`
/// histogram observation) into its registry when dropped.
///
/// On creation the span adopts the thread's current [`TraceContext`]
/// (same registry only) as its parent; otherwise it roots a new
/// trace. Use [`Span::enter`] to make it the parent of subsequent
/// spans on this thread, and [`Span::context`] to hand it across a
/// thread boundary.
pub struct Span {
    registry: Registry,
    name: String,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    start: Instant,
    start_ns: u64,
    items: AtomicU64,
    bytes: AtomicU64,
}

impl Span {
    /// Attribute `n` processed items to this span.
    pub fn add_items(&self, n: u64) {
        self.items.fetch_add(n, Ordering::Relaxed);
    }

    /// Attribute `n` processed bytes to this span.
    pub fn add_bytes(&self, n: u64) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Span name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// A context that parents new spans under this one — capture it
    /// before spawning workers and `attach` it inside them.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            registry: self.registry.clone(),
            trace: self.trace,
            parent: Some(self.id),
        }
    }

    /// Make this span the current parent on this thread until the
    /// guard drops. Keep the guard narrower than the span itself.
    pub fn enter(&self) -> ContextGuard {
        self.context().attach()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = (self.start.elapsed().as_nanos() as u64).max(1);
        self.registry
            .handle(&names::SPAN_NS, [&self.name])
            .record(dur_ns);
        self.registry.inner.spans.lock().push(SpanRecord {
            name: std::mem::take(&mut self.name),
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            start_ns: self.start_ns,
            dur_ns,
            items: self.items.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        });
    }
}

/// Frozen statistics of one gauge: the level at snapshot time plus the
/// lifetime low/high watermarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeStat {
    /// Level at snapshot time.
    pub value: i64,
    /// Lifetime low-water mark.
    pub min: i64,
    /// Lifetime high-water mark.
    pub max: i64,
}

/// Frozen copy of a registry's state, ready for export.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level and lifetime watermarks.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
}

/// Scalar summary of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Non-empty log2 buckets as `(bucket_index, count)`.
    pub buckets: Vec<(u8, u64)>,
}

impl Snapshot {
    /// Spans with the given name, in completion order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Full JSON document (see [`export::to_json`]).
    pub fn to_json(&self) -> String {
        export::to_json(self)
    }

    /// JSONL, one metric or span per line (see [`export::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(self)
    }

    /// Reassemble the span log into trace trees (see
    /// [`trace::build_forest`]).
    pub fn trace_forest(&self) -> Vec<trace::TraceNode> {
        trace::build_forest(&self.spans)
    }
}

struct RegistryInner {
    epoch: Instant,
    next_span_id: AtomicU64,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Holds all named metrics. A cheap-clone handle (`Arc` inside): clone
/// it to share across threads, or use the process-wide
/// [`Registry::global`].
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One lock per statement: temporaries in one expression would
        // hold all four until it ends.
        let counters = self.inner.counters.read().len();
        let gauges = self.inner.gauges.read().len();
        let histograms = self.inner.histograms.read().len();
        let spans = self.inner.spans.lock().len();
        f.debug_struct("Registry")
            .field("counters", &counters)
            .field("gauges", &gauges)
            .field("histograms", &histograms)
            .field("spans", &spans)
            .finish()
    }
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(1),
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Process-wide registry used by the instrumented pipeline and I/O
    /// layers when no [`TraceContext`] is attached.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The registry instrumented library code should record into: the
    /// attached [`TraceContext`]'s registry, else [`Registry::global`].
    pub fn current() -> Registry {
        match TraceContext::current() {
            Some(ctx) => ctx.registry,
            None => Registry::global().clone(),
        }
    }

    /// Whether two handles point at the same underlying registry.
    pub fn same_as(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(v) = map.read().get(name) {
            return v.clone();
        }
        map.write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default()))
            .clone()
    }

    /// Named counter, created on first use, to read: any string will
    /// do, and the counter has no write method (see [`Registry::handle`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.inner.counters, name)
    }

    /// Named gauge, created on first use, to read.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.inner.gauges, name)
    }

    /// Named histogram, created on first use, to read.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.inner.histograms, name)
    }

    /// Write access to the metric a declared `name` names, its holes
    /// filled by `params`; created on first use.
    pub fn handle<M: Instrument, const N: usize>(
        &self,
        name: &'static Name<M, N>,
        params: [&str; N],
    ) -> Handle<M> {
        Handle(M::lookup(self, &name.fill(params)))
    }

    /// Start a scoped timer under a declared `name`, its holes filled by
    /// `params`; it records itself when dropped.
    ///
    /// If the thread's current [`TraceContext`] records into this same
    /// registry, the span joins that trace under the context's parent;
    /// otherwise it roots a new trace.
    pub fn span<const N: usize>(&self, name: &'static Name<Span, N>, params: [&str; N]) -> Span {
        let id = SpanId(self.inner.next_span_id.fetch_add(1, Ordering::Relaxed));
        let (trace, parent) = match TraceContext::current() {
            Some(ctx) if ctx.registry.same_as(self) => (ctx.trace, ctx.parent),
            _ => (TraceId::next(), None),
        };
        Span {
            registry: self.clone(),
            name: name.fill(params).into_owned(),
            trace,
            id,
            parent,
            start: Instant::now(),
            start_ns: self.inner.epoch.elapsed().as_nanos() as u64,
            items: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Time `f` under a declared `name` (entered, so spans `f` opens
    /// nest under it), returning its result.
    pub fn time<T, const N: usize>(
        &self,
        name: &'static Name<Span, N>,
        params: [&str; N],
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.span(name, params);
        let _ctx = span.enter();
        f()
    }

    /// Freeze current state into a [`Snapshot`]. Each map is read under
    /// its own lock, one at a time, so a snapshot never stalls a new
    /// metric name or a span drop behind a lock it is done with.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self.counter_values().into_iter().collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    GaugeStat {
                        value: v.get(),
                        min: v.min(),
                        max: v.max(),
                    },
                )
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: v.count(),
                        sum: v.sum(),
                        min: v.min(),
                        max: v.max(),
                        mean: v.mean(),
                        p50: v.quantile(0.50),
                        p90: v.quantile(0.90),
                        p99: v.quantile(0.99),
                        buckets: v.bucket_counts(),
                    },
                )
            })
            .collect();
        let spans = self.inner.spans.lock().clone();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Current value of every counter, in name order. A cheap read for
    /// the [`monitor`] sampler: no histogram summarisation, no span
    /// cloning, just one pass under the counter read lock.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// `(count, sum)` of every histogram, in name order. Like
    /// [`Registry::counter_values`], skips the per-bucket summary work
    /// a full snapshot does.
    pub fn histogram_totals(&self) -> Vec<(String, (u64, u64))> {
        self.inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), (v.count(), v.sum())))
            .collect()
    }

    /// Drain the sampling window of every gauge (see
    /// [`Gauge::take_window`]), in name order. Destructive: each call
    /// restarts every gauge's window watermarks at its current level,
    /// so only one sampler should drain a registry.
    pub fn take_gauge_windows(&self) -> Vec<(String, GaugeWindow)> {
        self.inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.take_window()))
            .collect()
    }

    /// Drop every metric and span. Handed-out `Arc`s keep working but
    /// are no longer reachable from the registry.
    pub fn reset(&self) {
        self.inner.counters.write().clear();
        self.inner.gauges.write().clear();
        self.inner.histograms.write().clear();
        self.inner.spans.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNT: Name<Counter> = Name::declare("test.count");
    const LEVEL: Name<Gauge> = Name::declare("test.level");
    const LATENCY: Name<Histogram> = Name::declare("test.latency_ns");
    /// Any two-segment span name, so the tests keep their own.
    const SPAN: Name<Span, 2> = Name::declare("{}.{}");

    #[test]
    fn declared_names_fill_their_holes_in_order() {
        const BYTES: Name<Counter, 2> = Name::declare("test.{}.{}.bytes");
        assert_eq!(COUNT.fill([]), "test.count");
        assert_eq!(
            BYTES.fill(["climate-batch", "regrid"]),
            "test.climate-batch.regrid.bytes"
        );
        assert_eq!(SPAN.fill(["a", "b.c"]), "a.b.c");
        let reg = Registry::new();
        reg.handle(&BYTES, ["p", "s"]).add(2);
        assert_eq!(reg.snapshot().counters["test.p.s.bytes"], 2);
    }

    #[test]
    fn segments_are_lowercase_digits_and_underscores() {
        for ok in ["a", "queue_saturated", "shard2"] {
            assert!(segment_ok(ok.as_bytes(), 0, ok.len()), "{ok}");
        }
        for bad in ["", "Upper", "a-b", "a.b", "{}", "sp ace"] {
            assert!(!segment_ok(bad.as_bytes(), 0, bad.len()), "{bad}");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        reg.handle(&COUNT, []).add(3);
        reg.handle(&COUNT, []).incr();
        assert_eq!(reg.counter("test.count").get(), 4);

        let g = reg.handle(&LEVEL, []);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 5);
        assert_eq!(g.min(), 0, "initial level 0 is the low-water mark");
        g.add(-7);
        assert_eq!(g.min(), -4);
        assert_eq!(g.max(), 5);
    }

    #[test]
    fn gauge_window_watermarks_drain_and_restart() {
        let g = Registry::new().handle(&LEVEL, []);
        g.set(5);
        g.set(-3);
        g.set(2);
        // First window saw the full excursion [-3, 5] and ends at 2.
        assert_eq!(
            g.take_window(),
            GaugeWindow {
                value: 2,
                lo: -3,
                hi: 5
            }
        );
        // A quiet window collapses to the current level...
        assert_eq!(
            g.take_window(),
            GaugeWindow {
                value: 2,
                lo: 2,
                hi: 2
            }
        );
        // ...while lifetime watermarks keep the full history.
        assert_eq!(g.min(), -3);
        assert_eq!(g.max(), 5);
        // A spike-and-return inside one window is still captured.
        g.add(10);
        g.add(-10);
        let w = g.take_window();
        assert_eq!((w.value, w.hi), (2, 12));
    }

    #[test]
    fn gauge_max_is_exact_under_concurrent_add() {
        let reg = Registry::new();
        let g = reg.gauge("inflight");
        // 8 threads each ramp up to 1000 then back down; the true
        // high-water mark is at most 8000 and at least 1000 (one
        // thread's full ramp), and the final level is exactly 0.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.add(1);
                    }
                    for _ in 0..1000 {
                        g.add(-1);
                    }
                });
            }
        });
        assert_eq!(g.get(), 0);
        assert!(g.max() >= 1000, "max {} lost updates", g.max());
        assert!(g.max() <= 8000, "max {} overcounted", g.max());
        // The level never went below its initial 0.
        assert_eq!(g.min(), 0);
        // The window watermarks saw the same excursion: draining the
        // window after the ramps reports the same exact bounds, and
        // the next window restarts at the settled level.
        let w = g.take_window();
        assert_eq!(w.value, 0);
        assert_eq!(w.lo, 0);
        assert!((1000..=8000).contains(&w.hi), "window hi {}", w.hi);
        assert_eq!(
            g.take_window(),
            GaugeWindow {
                value: 0,
                lo: 0,
                hi: 0
            },
            "drained window must restart at the current level"
        );
        // Snapshot exposes the same watermarks.
        let stat = reg.snapshot().gauges["inflight"];
        assert_eq!((stat.value, stat.min), (0, 0));
        assert!(stat.max >= 1000);
    }

    #[test]
    fn gauge_guard_balances() {
        let g = Registry::new().handle(&LEVEL, []);
        {
            let _outer = GaugeGuard::new(g.clone(), 1);
            let _inner = GaugeGuard::new(g.clone(), 3);
            assert_eq!(g.get(), 4);
        }
        assert_eq!(g.get(), 0);
        assert_eq!(g.max(), 4);
        // A guard lowers the gauge wherever it drops: on another thread,
        // after travelling in a message.
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(GaugeGuard::new(g.clone(), 2)).unwrap();
        assert_eq!(g.get(), 2);
        std::thread::spawn(move || drop(rx.recv())).join().unwrap();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn gauge_guard_lowers_on_unwind() {
        let g = Registry::new().handle(&LEVEL, []);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _busy = GaugeGuard::new(g.clone(), 1);
            panic!("stage failed");
        }));
        assert!(r.is_err());
        assert_eq!(g.get(), 0, "guard must lower the level on unwind");
        assert_eq!(g.max(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Registry::new().handle(&LATENCY, []);
        for v in [0u64, 1, 1, 7, 8, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_017);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        // 0 and the two 1s share bucket 0; 7 is bucket 2; 8 bucket 3.
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], (0, 3));
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantile_is_that_sample() {
        let h = Registry::new().handle(&LATENCY, []);
        h.record(100);
        // Whatever the bucket midpoint says, clamping to [min, max]
        // must return the only observation for every q.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 100, "q={q}");
        }
    }

    #[test]
    fn quantile_at_exact_log2_boundaries() {
        let h = Registry::new().handle(&LATENCY, []);
        // Each value sits exactly on a bucket lower bound: 1 → bucket
        // 0, 2 → 1, 4 → 2, 8 → 3.
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        assert_eq!(
            h.bucket_counts(),
            vec![(0, 1), (1, 1), (2, 1), (3, 1)],
            "one observation per boundary bucket"
        );
        // q=0 resolves to the first bucket, clamped up to min=1.
        assert_eq!(h.quantile(0.0), 1);
        // q=1 resolves to the last bucket [8, 15], clamped down to
        // max=8.
        assert_eq!(h.quantile(1.0), 8);
        // Quantiles are monotone in q across boundary buckets.
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
        // All results stay inside the observed range.
        for &q in &qs {
            assert!((1..=8).contains(&q));
        }
    }

    #[test]
    fn spans_record_on_drop() {
        let reg = Registry::new();
        {
            let span = reg.span(&SPAN, ["work", "unit"]);
            span.add_items(10);
            span.add_bytes(4096);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _s = reg.span(&SPAN, ["work", "unit"]);
        }
        let snap = reg.snapshot();
        let spans = snap.spans_named("work.unit");
        assert_eq!(spans.len(), 2);
        assert!(spans[0].dur_ns >= 1_000_000);
        assert_eq!(spans[0].items, 10);
        assert_eq!(spans[0].bytes, 4096);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        // Without an entered parent each span roots its own trace.
        assert_ne!(spans[0].trace, spans[1].trace);
        assert_eq!(spans[0].parent, None);
        // Drop also feeds the latency histogram.
        assert_eq!(snap.histograms["work.unit.ns"].count, 2);
    }

    #[test]
    fn entered_spans_nest() {
        let reg = Registry::new();
        {
            let outer = reg.span(&SPAN, ["outer", "run"]);
            let _in_outer = outer.enter();
            {
                let mid = reg.span(&SPAN, ["mid", "step"]);
                let _in_mid = mid.enter();
                let _leaf = reg.span(&SPAN, ["leaf", "step"]);
            }
            let _sibling = reg.span(&SPAN, ["mid", "step"]);
        }
        let snap = reg.snapshot();
        let outer = snap.spans_named("outer.run")[0].clone();
        let mids = snap.spans_named("mid.step");
        let leaf = snap.spans_named("leaf.step")[0].clone();
        assert_eq!(outer.parent, None);
        for mid in &mids {
            assert_eq!(mid.parent, Some(outer.id));
            assert_eq!(mid.trace, outer.trace);
        }
        assert_eq!(leaf.parent, Some(mids[0].id));
        assert_eq!(leaf.trace, outer.trace);
    }

    #[test]
    fn context_handoff_across_threads_is_deterministic() {
        let reg = Registry::new();
        {
            let stage = reg.span(&SPAN, ["stage", "parallel"]);
            // Capture at closure-creation time, attach inside workers.
            let ctx = stage.context();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _guard = ctx.attach();
                        let reg = Registry::current();
                        let _w = reg.span(&SPAN, ["worker", "task"]);
                    });
                }
            });
        }
        let snap = reg.snapshot();
        let stage = snap.spans_named("stage.parallel")[0].clone();
        let workers = snap.spans_named("worker.task");
        assert_eq!(workers.len(), 4);
        for w in workers {
            assert_eq!(w.parent, Some(stage.id), "worker not under stage");
            assert_eq!(w.trace, stage.trace);
        }
    }

    #[test]
    fn current_registry_follows_context() {
        let private = Registry::new();
        // No context: global.
        assert!(Registry::current().same_as(Registry::global()));
        let root = TraceContext::root(&private);
        root.scope(|| {
            assert!(Registry::current().same_as(&private));
        });
        assert!(Registry::current().same_as(Registry::global()));
    }

    #[test]
    fn foreign_registry_context_does_not_leak_parent() {
        let a = Registry::new();
        let b = Registry::new();
        let span_a = a.span(&SPAN, ["a", "root"]);
        let _in_a = span_a.enter();
        // A span on a *different* registry must not adopt a parent id
        // from registry `a`'s context.
        let span_b = b.span(&SPAN, ["b", "root"]);
        assert_ne!(span_b.trace_id(), span_a.trace_id());
        drop(span_b);
        let snap = b.snapshot();
        assert_eq!(snap.spans[0].parent, None);
    }

    #[test]
    fn time_helper_returns_value() {
        let reg = Registry::new();
        let out = reg.time(&SPAN, ["test", "calc"], || 6 * 7);
        assert_eq!(out, 42);
        assert_eq!(reg.snapshot().spans_named("test.calc").len(), 1);
    }

    #[test]
    fn time_helper_nests_children() {
        let reg = Registry::new();
        reg.time(&SPAN, ["outer", "calc"], || {
            let _inner = reg.span(&SPAN, ["inner", "calc"]);
        });
        let snap = reg.snapshot();
        let outer = snap.spans_named("outer.calc")[0].clone();
        let inner = snap.spans_named("inner.calc")[0].clone();
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let c = reg.handle(&COUNT, []);
                    let h = reg.handle(&LATENCY, []);
                    for i in 0..10_000u64 {
                        c.incr();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(reg.counter("test.count").get(), 80_000);
        assert_eq!(reg.histogram("test.latency_ns").count(), 80_000);
    }

    /// `Debug` reads each map under its own lock (in a debug build the
    /// `parking_lot` shim records any nesting of the four), and reports
    /// their sizes.
    #[test]
    fn debug_counts_every_map() {
        let reg = Registry::new();
        reg.handle(&COUNT, []).incr();
        reg.handle(&LEVEL, []).set(1);
        reg.time(&SPAN, ["c", "span"], || ());
        assert_eq!(
            format!("{reg:?}"),
            "Registry { counters: 1, gauges: 1, histograms: 1, spans: 1 }"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.handle(&COUNT, []).incr();
        reg.time(&SPAN, ["test", "span"], || ());
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        // Histogram created by the span drop is also gone.
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}
