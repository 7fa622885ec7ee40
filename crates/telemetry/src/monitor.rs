//! Live monitoring: background sampling of a [`Registry`] into bounded
//! ring-buffer time series, declarative health rules evaluated per
//! sample, and post-run backpressure diagnosis for streaming runs.
//!
//! The registry answers "what happened over the whole run"; this
//! module answers "what is happening *now*" — the view the paper
//! argues a readiness pipeline must ship with: stalls, skew, and I/O
//! pathologies only show up while a run is in flight.
//!
//! # Architecture
//!
//! ```text
//! Registry ──(periodic snapshot)──▶ Sampler ──▶ Series ring buffers
//!                                     │              │
//!                              HealthSpec rules   MonitorReport
//!                                     │              │
//!                           monitor.* counters    JSONL artifact
//!                           + HealthEvents        + Diagnosis
//! ```
//!
//! A [`Sampler`] owns an injectable [`Clock`] (the [`crate::clock`]
//! seam: a [`Stopwatch`](crate::Stopwatch) in production,
//! [`ManualClock`](crate::clock::ManualClock) in tests, so the same tick
//! sequence yields bitwise-identical series) and on each
//! [`Sampler::tick`] reads every counter, histogram total, and gauge
//! window from the registry, appending one [`SeriesPoint`] per metric
//! to a bounded [`Series`]. Points carry deltas and rates, and for
//! gauges the per-window low/high watermarks from
//! [`Gauge::take_window`](crate::Gauge::take_window) — a spike that
//! rises and falls between two samples is still visible.
//!
//! A [`HealthSpec`] is a list of named threshold/rate/stall rules
//! checked against the fresh points on every tick. A violation emits
//! the `monitor.health.violations` and `monitor.rule.<name>` counters
//! and records a structured [`HealthEvent`] carrying the [`TraceId`]
//! that was active when the sampler was created.
//!
//! [`Sampler::start`] runs ticks on a background thread;
//! [`SamplerHandle::stop`] joins it, takes one final closing sample
//! (so even a run shorter than the interval yields a series), and
//! returns the [`MonitorReport`]. The report renders/parses the
//! `drai-monitor/v1` JSONL artifact and [`MonitorReport::diagnose`]
//! reads the executor's `executor.queue_depth` / `executor.stall_ns` /
//! `executor.<pipeline>.<stage>.inflight` series to name the
//! bottleneck stage and quantify backpressure windows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::Clock;
use crate::names::{MONITOR_RULE, MONITOR_SAMPLES, MONITOR_VIOLATIONS};
use crate::{Instrument, Name, Registry, TraceContext, TraceId};

/// Format tag of the JSONL artifact; bump on schema changes.
pub const MONITOR_FORMAT: &str = "drai-monitor/v1";

/// What kind of registry metric a [`Series`] tracks; fixes the meaning
/// of the per-point fields (see [`SeriesPoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic counter: `value` is cumulative, `lo == hi == value`.
    Counter,
    /// Gauge level: `lo`/`hi` are the window watermarks.
    Gauge,
    /// Histogram: `value`/`delta`/`rate` track the observation count,
    /// `hi` is the window's sum delta (e.g. ns accumulated), `lo` is 0.
    Histogram,
}

impl SeriesKind {
    fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }

    fn from_str(s: &str) -> Option<SeriesKind> {
        match s {
            "counter" => Some(SeriesKind::Counter),
            "gauge" => Some(SeriesKind::Gauge),
            "histogram" => Some(SeriesKind::Histogram),
            _ => None,
        }
    }
}

/// One sample of one metric.
///
/// Field meaning varies by [`SeriesKind`]:
///
/// | kind      | `value`    | `delta`       | `rate`      | `lo`/`hi`          |
/// |-----------|------------|---------------|-------------|--------------------|
/// | counter   | cumulative | vs. prev tick | delta/s     | `value`            |
/// | gauge     | level      | vs. prev tick | delta/s     | window watermarks  |
/// | histogram | obs. count | count delta   | count/s     | `0` / window sum Δ |
///
/// The first point of a series is a baseline: `delta` and `rate` are 0
/// even if the metric predates the sampler, so a sampler attached to a
/// long-lived registry doesn't report its whole history as one spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// 1-based sampler tick that produced this point.
    pub tick: u64,
    /// Clock reading at the tick, ns.
    pub t_ns: u64,
    /// See the kind table.
    pub value: f64,
    /// Change since the previous tick (0 on first observation).
    pub delta: f64,
    /// `delta` per second of window time (0 when the window has no
    /// duration).
    pub rate: f64,
    /// Window low watermark.
    pub lo: f64,
    /// Window high watermark.
    pub hi: f64,
}

/// Bounded ring-buffer time series of one metric: at most `capacity`
/// most-recent points, older points overwritten in FIFO order.
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name this series samples.
    pub name: String,
    /// What the per-point fields mean.
    pub kind: SeriesKind,
    capacity: usize,
    start: usize,
    points: Vec<SeriesPoint>,
}

impl Series {
    fn new(name: &str, kind: SeriesKind, capacity: usize) -> Series {
        Series {
            name: name.to_string(),
            kind,
            capacity: capacity.max(2),
            start: 0,
            points: Vec::new(),
        }
    }

    fn push(&mut self, p: SeriesPoint) {
        if self.points.len() < self.capacity {
            self.points.push(p);
        } else {
            self.points[self.start] = p;
            self.start = (self.start + 1) % self.capacity;
        }
    }

    /// Number of retained points (`<= capacity`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no points yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum number of retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points[self.start..]
            .iter()
            .chain(self.points[..self.start].iter())
    }

    /// Most recent point.
    pub fn latest(&self) -> Option<&SeriesPoint> {
        if self.points.is_empty() {
            None
        } else if self.start == 0 {
            self.points.last()
        } else {
            Some(&self.points[self.start - 1])
        }
    }
}

/// Per-sample predicate of one health rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Window high watermark reached the threshold (gauges).
    GaugeAbove(i64),
    /// Window low watermark reached the threshold (gauges).
    GaugeBelow(i64),
    /// Rate fell below the floor (skipped on the baseline tick, which
    /// has no window duration).
    RateBelow(f64),
    /// Rate exceeded the ceiling.
    RateAbove(f64),
    /// The metric made no progress (`delta == 0`) for this many
    /// consecutive ticks.
    StallFor(u32),
}

/// One named health rule: a metric plus a [`Condition`].
#[derive(Debug, Clone)]
pub struct HealthRule {
    /// Rule name; one lowercase `[a-z0-9_]+` segment, becomes the
    /// `monitor.rule.<name>` counter.
    pub name: String,
    /// Metric the rule watches: the declared name of a writer.
    pub metric: &'static str,
    /// Predicate evaluated on that metric's fresh point each tick.
    pub cond: Condition,
}

/// Declarative set of health rules evaluated on every sampler tick.
///
/// ```
/// use drai_telemetry::monitor::{Condition, HealthSpec};
/// use drai_telemetry::{Counter, Gauge, Name};
///
/// const QUEUE_DEPTH: Name<Gauge> = Name::declare("doc.queue_depth");
/// const COMPLETED: Name<Counter> = Name::declare("doc.items_completed");
///
/// let spec = HealthSpec::new()
///     .rule("queue_saturated", &QUEUE_DEPTH, Condition::GaugeAbove(64))
///     .rule("no_progress", &COMPLETED, Condition::StallFor(8));
/// assert_eq!(spec.rules().len(), 2);
/// assert_eq!(spec.rules()[0].metric, "doc.queue_depth");
/// ```
#[derive(Debug, Clone, Default)]
pub struct HealthSpec {
    rules: Vec<HealthRule>,
}

impl HealthSpec {
    /// Empty spec (no rules; the sampler still records series).
    pub fn new() -> HealthSpec {
        HealthSpec::default()
    }

    /// Add a rule watching `metric`, the name its writer declares.
    ///
    /// # Panics
    ///
    /// If `name` is not one lowercase `[a-z0-9_]+` segment: it becomes
    /// the `monitor.rule.<name>` counter.
    pub fn rule<M: Instrument>(
        mut self,
        name: &str,
        metric: &'static Name<M>,
        cond: Condition,
    ) -> HealthSpec {
        assert!(
            crate::segment_ok(name.as_bytes(), 0, name.len()),
            "health rule name {name:?} is not one `[a-z0-9_]+` segment"
        );
        self.rules.push(HealthRule {
            name: name.to_string(),
            metric: metric.template,
            cond,
        });
        self
    }

    /// This spec's rules followed by `other`'s.
    pub fn and(mut self, other: HealthSpec) -> HealthSpec {
        self.rules.extend(other.rules);
        self
    }

    /// The rules, in insertion order.
    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }
}

/// One rule violation observed at one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Tick at which the rule fired.
    pub tick: u64,
    /// Clock reading at the tick, ns.
    pub t_ns: u64,
    /// Name of the violated rule.
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
    /// Observed value that violated the condition (watermark for
    /// threshold rules, rate for rate rules, consecutive stalled ticks
    /// for stall rules).
    pub observed: f64,
    /// Trace that was active when the sampler was created, if any.
    pub trace: Option<u64>,
}

/// Progress toward a known total, derived from one counter series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Items completed since the sampler started.
    pub done: u64,
    /// Target item count.
    pub total: u64,
    /// Average completion rate since the first tick, items/s.
    pub rate: f64,
    /// Estimated seconds to completion at the average rate.
    pub eta_s: Option<f64>,
}

impl Progress {
    /// One-line human rendering: `3/16 items (19%), 41.2 items/s, ETA 0.3s`.
    pub fn render(&self) -> String {
        let pct = if self.total > 0 {
            100.0 * self.done as f64 / self.total as f64
        } else {
            100.0
        };
        match self.eta_s {
            Some(eta) => format!(
                "{}/{} items ({pct:.0}%), {:.1} items/s, ETA {eta:.1}s",
                self.done, self.total, self.rate
            ),
            None => format!(
                "{}/{} items ({pct:.0}%), {:.1} items/s",
                self.done, self.total, self.rate
            ),
        }
    }
}

/// Counter to read progress from, plus the target total.
#[derive(Debug, Clone)]
pub struct ProgressTarget {
    /// Counter name (e.g. `executor.items_completed`).
    pub counter: String,
    /// Item count that means "done".
    pub total: u64,
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Ring-buffer capacity per series (clamped to ≥ 2).
    pub capacity: usize,
    /// Optional progress tracking surfaced on each [`TickReport`].
    pub progress: Option<ProgressTarget>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            capacity: 512,
            progress: None,
        }
    }
}

/// What one tick produced; handed to the observer callback (live
/// progress lines) after the sample is stored.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// 1-based tick number.
    pub tick: u64,
    /// Clock reading at the tick, ns.
    pub t_ns: u64,
    /// Progress toward the configured target, if any.
    pub progress: Option<Progress>,
}

#[derive(Default)]
struct SamplerState {
    ticks: u64,
    first_t_ns: Option<u64>,
    last_t_ns: Option<u64>,
    prev_counters: BTreeMap<String, u64>,
    prev_hists: BTreeMap<String, (u64, u64)>,
    series: BTreeMap<String, Series>,
    events: Vec<HealthEvent>,
    stall_runs: BTreeMap<String, u64>,
}

type Observer = Box<dyn Fn(&TickReport) + Send + Sync>;

/// Periodic registry sampler; see the [module docs](self) for the
/// architecture. Create with [`Sampler::new`], then either drive ticks
/// manually ([`Sampler::tick`], deterministic under a
/// [`ManualClock`](crate::clock::ManualClock))
/// or hand it to a background thread with [`Sampler::start`].
pub struct Sampler {
    registry: Registry,
    clock: Arc<dyn Clock>,
    cfg: SamplerConfig,
    spec: HealthSpec,
    trace: Option<TraceId>,
    progress_base: u64,
    observer: Option<Observer>,
    state: Mutex<SamplerState>,
}

impl Sampler {
    /// New sampler over `registry`. Captures the currently attached
    /// [`TraceContext`]'s trace id (same registry only) so health
    /// events from the background thread still carry the run's trace,
    /// and the current value of the progress counter as the baseline.
    pub fn new(
        registry: &Registry,
        clock: Arc<dyn Clock>,
        cfg: SamplerConfig,
        spec: HealthSpec,
    ) -> Sampler {
        let trace = TraceContext::current()
            .filter(|ctx| ctx.registry().same_as(registry))
            .map(|ctx| ctx.trace_id());
        let progress_base = cfg
            .progress
            .as_ref()
            .map(|p| registry.counter(&p.counter).get())
            .unwrap_or(0);
        Sampler {
            registry: registry.clone(),
            clock,
            cfg,
            spec,
            trace,
            progress_base,
            observer: None,
            state: Mutex::new(SamplerState::default()),
        }
    }

    /// Install a callback invoked after every tick (progress lines,
    /// live dashboards). Runs on the sampling thread; keep it cheap.
    pub fn with_observer(mut self, f: impl Fn(&TickReport) + Send + Sync + 'static) -> Sampler {
        self.observer = Some(Box::new(f));
        self
    }

    /// Take one sample now: read every metric, append points, evaluate
    /// health rules, and notify the observer. Deterministic given the
    /// clock readings and registry contents.
    pub fn tick(&self) -> TickReport {
        self.registry.handle(&MONITOR_SAMPLES, []).incr();
        let t_ns = self.clock.now_ns();
        let counters = self.registry.counter_values();
        let hists = self.registry.histogram_totals();
        let gauges = self.registry.take_gauge_windows();

        let mut st = self.state.lock();
        st.ticks += 1;
        let tick = st.ticks;
        let dt_ns = st.last_t_ns.map(|p| t_ns.saturating_sub(p));
        st.last_t_ns = Some(t_ns);
        if st.first_t_ns.is_none() {
            st.first_t_ns = Some(t_ns);
        }
        let dt_s = dt_ns.map(|d| d as f64 / 1e9).filter(|d| *d > 0.0);
        let rate_of = |delta: f64| dt_s.map(|d| delta / d).unwrap_or(0.0);
        let capacity = self.cfg.capacity;

        for (name, v) in &counters {
            let seen = st.prev_counters.insert(name.clone(), *v).is_some();
            let value = *v as f64;
            let prev = match st
                .series
                .get(name)
                .and_then(Series::latest)
                .map(|p| p.value)
            {
                Some(p) if seen => p,
                _ => value, // baseline: no delta on first observation
            };
            let delta = value - prev;
            let point = SeriesPoint {
                tick,
                t_ns,
                value,
                delta,
                rate: rate_of(delta),
                lo: value,
                hi: value,
            };
            st.series
                .entry(name.clone())
                .or_insert_with(|| Series::new(name, SeriesKind::Counter, capacity))
                .push(point);
        }
        for (name, (count, sum)) in &hists {
            let prev = st.prev_hists.insert(name.clone(), (*count, *sum));
            let (dcount, dsum) = match prev {
                Some((pc, ps)) => (count.saturating_sub(pc), sum.saturating_sub(ps)),
                None => (0, 0), // baseline
            };
            let point = SeriesPoint {
                tick,
                t_ns,
                value: *count as f64,
                delta: dcount as f64,
                rate: rate_of(dcount as f64),
                lo: 0.0,
                hi: dsum as f64,
            };
            st.series
                .entry(name.clone())
                .or_insert_with(|| Series::new(name, SeriesKind::Histogram, capacity))
                .push(point);
        }
        for (name, w) in &gauges {
            let value = w.value as f64;
            let prev = st
                .series
                .get(name)
                .and_then(Series::latest)
                .map(|p| p.value)
                .unwrap_or(value);
            let delta = value - prev;
            let point = SeriesPoint {
                tick,
                t_ns,
                value,
                delta,
                rate: rate_of(delta),
                lo: w.lo as f64,
                hi: w.hi as f64,
            };
            st.series
                .entry(name.clone())
                .or_insert_with(|| Series::new(name, SeriesKind::Gauge, capacity))
                .push(point);
        }

        // Health rules see only this tick's fresh points.
        let mut fired: Vec<HealthEvent> = Vec::new();
        for rule in self.spec.rules() {
            let Some(point) = st
                .series
                .get(rule.metric)
                .and_then(Series::latest)
                .filter(|p| p.tick == tick)
                .copied()
            else {
                continue;
            };
            let violation = match rule.cond {
                Condition::GaugeAbove(th) => (point.hi >= th as f64).then_some(point.hi),
                Condition::GaugeBelow(th) => (point.lo <= th as f64).then_some(point.lo),
                Condition::RateBelow(floor) => {
                    (dt_s.is_some() && point.rate < floor).then_some(point.rate)
                }
                Condition::RateAbove(ceil) => (point.rate > ceil).then_some(point.rate),
                Condition::StallFor(n) => {
                    let run = st.stall_runs.entry(rule.name.clone()).or_insert(0);
                    if point.delta == 0.0 {
                        *run += 1;
                    } else {
                        *run = 0;
                    }
                    (*run >= u64::from(n)).then_some(*run as f64)
                }
            };
            if let Some(observed) = violation {
                fired.push(HealthEvent {
                    tick,
                    t_ns,
                    rule: rule.name.clone(),
                    metric: rule.metric.to_string(),
                    observed,
                    trace: self.trace.map(TraceId::as_u64),
                });
            }
        }
        st.events.extend(fired.iter().cloned());

        let progress = self.cfg.progress.as_ref().and_then(|target| {
            let point = st.series.get(&target.counter).and_then(Series::latest)?;
            let done = (point.value as u64).saturating_sub(self.progress_base);
            let elapsed_s = t_ns.saturating_sub(st.first_t_ns.unwrap_or(t_ns)) as f64 / 1e9;
            let rate = if elapsed_s > 0.0 {
                done as f64 / elapsed_s
            } else {
                0.0
            };
            let eta_s = (rate > 0.0).then(|| target.total.saturating_sub(done) as f64 / rate);
            Some(Progress {
                done: done.min(target.total),
                total: target.total,
                rate,
                eta_s,
            })
        });
        drop(st);

        // Counter emission happens outside the state lock so the only
        // lock order is state → registry maps, never the reverse.
        for ev in &fired {
            self.registry.handle(&MONITOR_VIOLATIONS, []).incr();
            self.registry.handle(&MONITOR_RULE, [&ev.rule]).incr();
        }

        let report = TickReport {
            tick,
            t_ns,
            progress,
        };
        if let Some(obs) = &self.observer {
            obs(&report);
        }
        report
    }

    /// Freeze the sampled state into a [`MonitorReport`].
    pub fn report(&self) -> MonitorReport {
        let st = self.state.lock();
        MonitorReport {
            ticks: st.ticks,
            series: st.series.values().cloned().collect(),
            events: st.events.clone(),
        }
    }

    /// Spawn a background thread ticking every `interval` until
    /// [`SamplerHandle::stop`] (or the handle's drop) signals it.
    pub fn start(self, interval: Duration) -> SamplerHandle {
        let sampler = Arc::new(self);
        let worker = Arc::clone(&sampler);
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            // Stop on a () send or a disconnected handle; tick on timeout.
            while let Err(RecvTimeoutError::Timeout) =
                parking_lot::blocking(|| stop_rx.recv_timeout(interval))
            {
                worker.tick();
            }
        });
        SamplerHandle {
            sampler,
            stop_tx,
            join,
        }
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("rules", &self.spec.rules().len())
            .field("capacity", &self.cfg.capacity)
            .finish()
    }
}

/// Handle to a background sampler started by [`Sampler::start`].
pub struct SamplerHandle {
    sampler: Arc<Sampler>,
    stop_tx: mpsc::Sender<()>,
    join: std::thread::JoinHandle<()>,
}

impl SamplerHandle {
    /// Stop the background thread, take one final closing sample (so a
    /// run faster than the interval still yields ≥ 1 point per
    /// metric), and return the report.
    pub fn stop(self) -> MonitorReport {
        let _ = self.stop_tx.send(());
        let _ = parking_lot::blocking(|| self.join.join());
        self.sampler.tick();
        self.sampler.report()
    }
}

/// Load summary of one executor stage, from its
/// `executor.<pipeline>.<stage>.inflight` series.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLoad {
    /// Pipeline name.
    pub pipeline: String,
    /// Stage name.
    pub stage: String,
    /// Σ of per-window inflight high watermarks — a scheduling-free
    /// proxy for "windows this stage was busy, weighted by width".
    pub busy_integral: f64,
    /// Highest inflight watermark seen.
    pub peak_inflight: f64,
    /// Windows in which the stage had work in flight.
    pub busy_windows: u64,
    /// Total windows observed.
    pub windows: u64,
}

/// Queue-load summary of one scheduler tenant, from its
/// `sched.tenant.<tenant>.queued` series.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLoad {
    /// Sanitized tenant id.
    pub tenant: String,
    /// Σ of per-window queued-depth high watermarks — windows the
    /// tenant had work waiting, weighted by how much.
    pub queued_integral: f64,
    /// Highest queued-depth watermark seen.
    pub peak_queued: f64,
    /// Windows in which the tenant had queued work.
    pub backlogged_windows: u64,
    /// Total windows observed.
    pub windows: u64,
}

/// Post-run backpressure diagnosis; see [`MonitorReport::diagnose`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Busiest stage — the bottleneck candidate — if any stage showed
    /// in-flight work.
    pub bottleneck: Option<StageLoad>,
    /// All stages, busiest first.
    pub stages: Vec<StageLoad>,
    /// Highest `executor.queue_depth` watermark.
    pub peak_queue_depth: f64,
    /// Mean sampled `executor.queue_depth` level.
    pub mean_queue_depth: f64,
    /// Total producer stall time (`executor.stall_ns` sum), ns.
    pub total_stall_ns: u64,
    /// Windows in which producers spent > 1% of the window stalled.
    pub backpressure_windows: u64,
    /// Ticks the sampler observed.
    pub observed_ticks: u64,
    /// Health events recorded over the run.
    pub violations: usize,
    /// Scheduler tenants with queued-work series, most loaded first
    /// (empty when the run had no `sched.tenant.*.queued` series).
    pub tenants: Vec<TenantLoad>,
    /// The tenant driving scheduler saturation — the largest queued
    /// integral — if any tenant showed queued work.
    pub saturated_tenant: Option<TenantLoad>,
}

impl Diagnosis {
    /// Multi-line human rendering of the diagnosis.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "monitor diagnosis ({} samples)", self.observed_ticks);
        match &self.bottleneck {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "  bottleneck: {}.{} (busy integral {:.1}, peak inflight {:.0}, busy {}/{} windows)",
                    b.pipeline, b.stage, b.busy_integral, b.peak_inflight, b.busy_windows, b.windows
                );
            }
            None => {
                let _ = writeln!(out, "  bottleneck: none (no stage inflight series)");
            }
        }
        let _ = writeln!(
            out,
            "  queue depth: mean {:.2}, peak {:.0}",
            self.mean_queue_depth, self.peak_queue_depth
        );
        let _ = writeln!(
            out,
            "  backpressure: {} windows, total producer stall {:.3} ms",
            self.backpressure_windows,
            self.total_stall_ns as f64 / 1e6
        );
        if self.stages.len() > 1 {
            let _ = writeln!(out, "  stage loads:");
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "    {}.{}: busy integral {:.1}, peak {:.0}, busy {}/{}",
                    s.pipeline,
                    s.stage,
                    s.busy_integral,
                    s.peak_inflight,
                    s.busy_windows,
                    s.windows
                );
            }
        }
        if let Some(t) = &self.saturated_tenant {
            let _ = writeln!(
                out,
                "  saturated tenant: {} (queued integral {:.1}, peak {:.0}, backlogged {}/{} windows)",
                t.tenant, t.queued_integral, t.peak_queued, t.backlogged_windows, t.windows
            );
        }
        if self.tenants.len() > 1 {
            let _ = writeln!(out, "  tenant loads:");
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "    {}: queued integral {:.1}, peak {:.0}, backlogged {}/{}",
                    t.tenant, t.queued_integral, t.peak_queued, t.backlogged_windows, t.windows
                );
            }
        }
        let _ = writeln!(out, "  health: {} violation events", self.violations);
        out
    }
}

/// Everything a monitored run produced: tick count, the per-metric
/// ring buffers, and the health event log. Renders to and parses from
/// the `drai-monitor/v1` JSONL artifact.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Ticks the sampler took.
    pub ticks: u64,
    /// One series per sampled metric, in name order.
    pub series: Vec<Series>,
    /// Health events in firing order.
    pub events: Vec<HealthEvent>,
}

impl MonitorReport {
    /// The series for `name`, if sampled.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Render the JSONL artifact. Line kinds: one `monitor` header,
    /// then per series a `series` line followed by its `point` lines
    /// (oldest first), then `health` lines. Numbers use Rust's
    /// shortest round-trip float rendering, so
    /// `parse_jsonl(to_jsonl(r))` re-renders byte-identically.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"monitor\",\"format\":\"{}\",\"ticks\":{},\"series\":{},\"events\":{}}}",
            MONITOR_FORMAT,
            self.ticks,
            self.series.len(),
            self.events.len()
        );
        for s in &self.series {
            let _ = writeln!(
                out,
                "{{\"kind\":\"series\",\"metric\":\"{}\",\"metric_kind\":\"{}\",\"capacity\":{},\"points\":{}}}",
                crate::export::escape_json(&s.name),
                s.kind.as_str(),
                s.capacity(),
                s.len()
            );
            for p in s.iter() {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"point\",\"metric\":\"{}\",\"tick\":{},\"t_ns\":{},\"value\":{},\"delta\":{},\"rate\":{},\"lo\":{},\"hi\":{}}}",
                    crate::export::escape_json(&s.name),
                    p.tick,
                    p.t_ns,
                    fmt_num(p.value),
                    fmt_num(p.delta),
                    fmt_num(p.rate),
                    fmt_num(p.lo),
                    fmt_num(p.hi)
                );
            }
        }
        for e in &self.events {
            let trace = match e.trace {
                Some(t) => t.to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"kind\":\"health\",\"tick\":{},\"t_ns\":{},\"rule\":\"{}\",\"metric\":\"{}\",\"observed\":{},\"trace\":{}}}",
                e.tick,
                e.t_ns,
                crate::export::escape_json(&e.rule),
                crate::export::escape_json(&e.metric),
                fmt_num(e.observed),
                trace
            );
        }
        out
    }

    /// Parse a `drai-monitor/v1` JSONL artifact produced by
    /// [`MonitorReport::to_jsonl`].
    pub fn parse_jsonl(text: &str) -> Result<MonitorReport, String> {
        let mut ticks = None;
        let mut series: Vec<Series> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
            match jstr(line, "kind").as_deref() {
                Some("monitor") => {
                    let format = jstr(line, "format").ok_or_else(|| at("missing format"))?;
                    if format != MONITOR_FORMAT {
                        return Err(at(&format!("unsupported format {format:?}")));
                    }
                    ticks = Some(ju64(line, "ticks").ok_or_else(|| at("missing ticks"))?);
                }
                Some("series") => {
                    let metric = jstr(line, "metric").ok_or_else(|| at("missing metric"))?;
                    let kind = jstr(line, "metric_kind")
                        .and_then(|k| SeriesKind::from_str(&k))
                        .ok_or_else(|| at("bad metric_kind"))?;
                    let capacity =
                        ju64(line, "capacity").ok_or_else(|| at("missing capacity"))? as usize;
                    index.insert(metric.clone(), series.len());
                    series.push(Series::new(&metric, kind, capacity));
                }
                Some("point") => {
                    let metric = jstr(line, "metric").ok_or_else(|| at("missing metric"))?;
                    let idx = *index
                        .get(&metric)
                        .ok_or_else(|| at("point before its series line"))?;
                    series[idx].push(SeriesPoint {
                        tick: ju64(line, "tick").ok_or_else(|| at("missing tick"))?,
                        t_ns: ju64(line, "t_ns").ok_or_else(|| at("missing t_ns"))?,
                        value: jf64(line, "value").ok_or_else(|| at("missing value"))?,
                        delta: jf64(line, "delta").ok_or_else(|| at("missing delta"))?,
                        rate: jf64(line, "rate").ok_or_else(|| at("missing rate"))?,
                        lo: jf64(line, "lo").ok_or_else(|| at("missing lo"))?,
                        hi: jf64(line, "hi").ok_or_else(|| at("missing hi"))?,
                    });
                }
                Some("health") => {
                    events.push(HealthEvent {
                        tick: ju64(line, "tick").ok_or_else(|| at("missing tick"))?,
                        t_ns: ju64(line, "t_ns").ok_or_else(|| at("missing t_ns"))?,
                        rule: jstr(line, "rule").ok_or_else(|| at("missing rule"))?,
                        metric: jstr(line, "metric").ok_or_else(|| at("missing metric"))?,
                        observed: jf64(line, "observed").ok_or_else(|| at("missing observed"))?,
                        trace: jraw(line, "trace")
                            .filter(|v| *v != "null")
                            .map(|v| v.parse::<u64>().map_err(|_| at("bad trace")))
                            .transpose()?,
                    });
                }
                Some(other) => return Err(at(&format!("unknown kind {other:?}"))),
                None => return Err(at("missing kind")),
            }
        }
        Ok(MonitorReport {
            ticks: ticks.ok_or("missing monitor header line")?,
            series,
            events,
        })
    }

    /// Read the executor series and name the bottleneck: the stage
    /// whose `executor.<pipeline>.<stage>.inflight` series has the
    /// largest busy integral (Σ per-window high watermarks). Also
    /// quantifies queue pressure and producer stall windows.
    pub fn diagnose(&self) -> Diagnosis {
        let mut stages: Vec<StageLoad> = Vec::new();
        for s in &self.series {
            let Some(mid) = s
                .name
                .strip_prefix("executor.")
                .and_then(|r| r.strip_suffix(".inflight"))
            else {
                continue;
            };
            let Some((pipeline, stage)) = mid.rsplit_once('.') else {
                continue;
            };
            let mut load = StageLoad {
                pipeline: pipeline.to_string(),
                stage: stage.to_string(),
                busy_integral: 0.0,
                peak_inflight: 0.0,
                busy_windows: 0,
                windows: 0,
            };
            for p in s.iter() {
                load.windows += 1;
                load.busy_integral += p.hi.max(0.0);
                load.peak_inflight = load.peak_inflight.max(p.hi);
                if p.hi > 0.0 {
                    load.busy_windows += 1;
                }
            }
            stages.push(load);
        }
        stages.sort_by(|a, b| {
            b.busy_integral
                .total_cmp(&a.busy_integral)
                .then_with(|| (a.pipeline.as_str(), a.stage.as_str()).cmp(&(&b.pipeline, &b.stage)))
        });
        let bottleneck = stages.first().filter(|s| s.busy_integral > 0.0).cloned();

        let (mut peak_q, mut sum_q, mut n_q) = (0.0f64, 0.0f64, 0u64);
        if let Some(q) = self.series_named("executor.queue_depth") {
            for p in q.iter() {
                peak_q = peak_q.max(p.hi);
                sum_q += p.value;
                n_q += 1;
            }
        }

        let (mut total_stall, mut bp_windows) = (0u64, 0u64);
        if let Some(st) = self.series_named("executor.stall_ns") {
            let mut prev_t: Option<u64> = None;
            for p in st.iter() {
                let stall = p.hi.max(0.0) as u64;
                total_stall += stall;
                let window_ns = prev_t.map(|t| p.t_ns.saturating_sub(t));
                let pressured = match window_ns {
                    Some(w) if w > 0 => stall as f64 > 0.01 * w as f64,
                    _ => stall > 0,
                };
                if pressured {
                    bp_windows += 1;
                }
                prev_t = Some(p.t_ns);
            }
        }

        // Scheduler tenant load: `sched.tenant.<t>.queued` series,
        // ranked by queued integral. The top entry names the tenant
        // saturating the scheduler (the drai-sched counterpart of the
        // executor bottleneck stage).
        let mut tenants: Vec<TenantLoad> = Vec::new();
        for s in &self.series {
            let Some(tenant) = s
                .name
                .strip_prefix("sched.tenant.")
                .and_then(|r| r.strip_suffix(".queued"))
            else {
                continue;
            };
            let mut load = TenantLoad {
                tenant: tenant.to_string(),
                queued_integral: 0.0,
                peak_queued: 0.0,
                backlogged_windows: 0,
                windows: 0,
            };
            for p in s.iter() {
                load.windows += 1;
                load.queued_integral += p.hi.max(0.0);
                load.peak_queued = load.peak_queued.max(p.hi);
                if p.hi > 0.0 {
                    load.backlogged_windows += 1;
                }
            }
            tenants.push(load);
        }
        tenants.sort_by(|a, b| {
            b.queued_integral
                .total_cmp(&a.queued_integral)
                .then_with(|| a.tenant.cmp(&b.tenant))
        });
        let saturated_tenant = tenants.first().filter(|t| t.queued_integral > 0.0).cloned();

        Diagnosis {
            bottleneck,
            stages,
            peak_queue_depth: peak_q,
            mean_queue_depth: if n_q > 0 { sum_q / n_q as f64 } else { 0.0 },
            total_stall_ns: total_stall,
            backpressure_windows: bp_windows,
            observed_ticks: self.ticks,
            violations: self.events.len(),
            tenants,
            saturated_tenant,
        }
    }
}

/// JSON number rendering for series values: shortest round-trip repr
/// for finite values ("3" / "0.25"), 0 for non-finite inputs (rates
/// are guarded against zero-width windows, so this is a backstop).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Raw text of `"key":<value>` in a flat single-line JSON object.
/// Sufficient for the monitor schema: its string values (metric/rule
/// names, format tags) never contain `,`, `}`, or escapes.
fn jraw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn jstr(line: &str, key: &str) -> Option<String> {
    let raw = jraw(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

fn ju64(line: &str, key: &str) -> Option<u64> {
    jraw(line, key)?.parse().ok()
}

fn jf64(line: &str, key: &str) -> Option<f64> {
    jraw(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::{Counter, Gauge, Histogram};
    use std::sync::atomic::{AtomicU64, Ordering};

    const DONE: Name<Counter> = Name::declare("work.done");
    const DEPTH: Name<Gauge> = Name::declare("work.depth");
    const LATENCY: Name<Histogram> = Name::declare("work.lat");

    fn manual_sampler(
        reg: &Registry,
        capacity: usize,
        spec: HealthSpec,
    ) -> (Sampler, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let sampler = Sampler::new(
            reg,
            clock.clone() as Arc<dyn Clock>,
            SamplerConfig {
                capacity,
                progress: None,
            },
            spec,
        );
        (sampler, clock)
    }

    /// One scripted run: returns the rendered artifact.
    fn scripted_artifact() -> String {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(
            &reg,
            8,
            HealthSpec::new()
                .rule("deep", &DEPTH, Condition::GaugeAbove(4))
                .rule("stalled", &DONE, Condition::StallFor(1)),
        );
        for i in 0..10u64 {
            if i % 3 != 2 {
                reg.handle(&DONE, []).add(4);
            }
            reg.handle(&DEPTH, []).set((i % 6) as i64);
            reg.handle(&LATENCY, []).record(100 * (i + 1));
            clock.advance_ns(1_000_000);
            sampler.tick();
        }
        sampler.report().to_jsonl()
    }

    #[test]
    fn same_tick_sequence_is_bitwise_identical() {
        assert_eq!(scripted_artifact(), scripted_artifact());
    }

    #[test]
    fn counter_deltas_and_rates() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 8, HealthSpec::new());
        reg.handle(&DONE, []).add(10);
        sampler.tick(); // baseline: delta 0 even though the counter predates us
        reg.handle(&DONE, []).add(6);
        clock.advance_ns(2_000_000_000); // 2 s
        sampler.tick();
        let report = sampler.report();
        let s = report.series_named("work.done").unwrap();
        let pts: Vec<_> = s.iter().copied().collect();
        assert_eq!(s.kind, SeriesKind::Counter);
        assert_eq!(pts.len(), 2);
        assert_eq!((pts[0].value, pts[0].delta, pts[0].rate), (10.0, 0.0, 0.0));
        assert_eq!((pts[1].value, pts[1].delta, pts[1].rate), (16.0, 6.0, 3.0));
    }

    #[test]
    fn gauge_points_carry_window_watermarks() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 8, HealthSpec::new());
        let g = reg.handle(&DEPTH, []);
        g.set(3);
        g.set(-2);
        g.set(1);
        clock.advance_ns(1);
        sampler.tick();
        // Spike and return entirely inside the second window.
        g.add(7);
        g.add(-7);
        clock.advance_ns(1);
        sampler.tick();
        let report = sampler.report();
        let pts: Vec<_> = report
            .series_named("work.depth")
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert_eq!((pts[0].value, pts[0].lo, pts[0].hi), (1.0, -2.0, 3.0));
        assert_eq!((pts[1].value, pts[1].lo, pts[1].hi), (1.0, 1.0, 8.0));
        assert_eq!(pts[1].delta, 0.0, "level unchanged across the spike");
    }

    #[test]
    fn histogram_points_track_count_and_window_sum() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 8, HealthSpec::new());
        reg.handle(&LATENCY, []).record(500);
        clock.advance_ns(1);
        sampler.tick(); // baseline
        reg.handle(&LATENCY, []).record(200);
        reg.handle(&LATENCY, []).record(300);
        clock.advance_ns(1);
        sampler.tick();
        let report = sampler.report();
        let pts: Vec<_> = report
            .series_named("work.lat")
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert_eq!((pts[0].value, pts[0].delta, pts[0].hi), (1.0, 0.0, 0.0));
        assert_eq!((pts[1].value, pts[1].delta, pts[1].hi), (3.0, 2.0, 500.0));
    }

    #[test]
    fn ring_buffer_wraps_keeping_most_recent() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 4, HealthSpec::new());
        for i in 1..=10u64 {
            reg.handle(&DONE, []).add(i);
            clock.advance_ns(1);
            sampler.tick();
        }
        let report = sampler.report();
        let s = report.series_named("work.done").unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.capacity(), 4);
        let ticks: Vec<u64> = s.iter().map(|p| p.tick).collect();
        assert_eq!(ticks, vec![7, 8, 9, 10], "oldest first after wrap");
        assert_eq!(s.latest().unwrap().tick, 10);
        // Values survived the wrap intact: cumulative sums 1..=k.
        let vals: Vec<f64> = s.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![28.0, 36.0, 45.0, 55.0]);
    }

    #[test]
    fn health_rules_fire_and_emit_counters() {
        let reg = Registry::new();
        let spec = HealthSpec::new()
            .rule("deep", &DEPTH, Condition::GaugeAbove(5))
            .rule("stalled", &DONE, Condition::StallFor(2))
            .rule("slow", &DONE, Condition::RateBelow(1.0));
        let (sampler, clock) = manual_sampler(&reg, 8, spec);
        reg.handle(&DONE, []).add(1);
        reg.handle(&DEPTH, []).set(2);
        clock.advance_ns(1_000_000_000);
        sampler.tick(); // baseline: nothing fires (rate rules skip, stall run = 1 < 2)
                        // Tick 2: gauge spikes to 6 (fires deep), counter stalls (run 2 → fires
                        // stalled), rate 0 < 1 (fires slow).
        reg.handle(&DEPTH, []).set(6);
        reg.handle(&DEPTH, []).set(1);
        clock.advance_ns(1_000_000_000);
        sampler.tick();
        let report = sampler.report();
        let rules: Vec<&str> = report.events.iter().map(|e| e.rule.as_str()).collect();
        assert_eq!(rules, vec!["deep", "stalled", "slow"]);
        assert_eq!(report.events[0].observed, 6.0, "watermark, not final level");
        assert_eq!(report.events[1].observed, 2.0, "stall run length");
        assert_eq!(reg.counter("monitor.health.violations").get(), 3);
        assert_eq!(reg.counter("monitor.rule.deep").get(), 1);
        assert_eq!(reg.counter("monitor.rule.stalled").get(), 1);
        assert_eq!(reg.counter("monitor.rule.slow").get(), 1);
        assert_eq!(reg.counter("monitor.samples").get(), 2);
    }

    #[test]
    fn specs_join_in_order() {
        let a = HealthSpec::new().rule("deep", &DEPTH, Condition::GaugeAbove(5));
        let b = HealthSpec::new().rule("stalled", &DONE, Condition::StallFor(2));
        let names: Vec<_> = a
            .and(b)
            .rules()
            .iter()
            .map(|r| (r.name.clone(), r.metric))
            .collect();
        assert_eq!(
            names,
            [
                ("deep".into(), "work.depth"),
                ("stalled".into(), "work.done")
            ]
        );
    }

    #[test]
    #[should_panic(expected = "is not one `[a-z0-9_]+` segment")]
    fn a_rule_name_is_one_segment() {
        let _ = HealthSpec::new().rule("Queue-Saturated", &DEPTH, Condition::GaugeAbove(1));
    }

    #[test]
    fn stall_run_resets_on_progress() {
        let reg = Registry::new();
        let spec = HealthSpec::new().rule("stalled", &DONE, Condition::StallFor(2));
        let (sampler, clock) = manual_sampler(&reg, 8, spec);
        reg.handle(&DONE, []).incr();
        clock.advance_ns(1);
        sampler.tick(); // baseline, run = 1
        reg.handle(&DONE, []).incr(); // progress resets the run
        clock.advance_ns(1);
        sampler.tick();
        clock.advance_ns(1);
        sampler.tick(); // run = 1
        clock.advance_ns(1);
        sampler.tick(); // run = 2 → fires
        let report = sampler.report();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].tick, 4);
    }

    #[test]
    fn health_events_carry_the_creating_trace() {
        let reg = Registry::new();
        let ctx = TraceContext::root(&reg);
        let _guard = ctx.attach();
        let spec = HealthSpec::new().rule("deep", &DEPTH, Condition::GaugeAbove(1));
        let (sampler, clock) = manual_sampler(&reg, 8, spec);
        reg.handle(&DEPTH, []).set(5);
        clock.advance_ns(1);
        sampler.tick();
        let report = sampler.report();
        assert_eq!(report.events[0].trace, Some(ctx.trace_id().as_u64()));
    }

    #[test]
    fn jsonl_round_trips_bitwise() {
        let text = scripted_artifact();
        let parsed = MonitorReport::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.to_jsonl(), text);
        assert!(parsed.ticks == 10);
        assert!(!parsed.events.is_empty());
        assert!(parsed.series_named("work.depth").is_some());
        assert_eq!(
            parsed.series_named("monitor.samples").unwrap().kind,
            SeriesKind::Counter,
            "the sampler samples its own tick counter"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MonitorReport::parse_jsonl("").is_err(), "missing header");
        assert!(MonitorReport::parse_jsonl("{\"kind\":\"bogus\"}").is_err());
        let wrong_version =
            "{\"kind\":\"monitor\",\"format\":\"drai-monitor/v9\",\"ticks\":1,\"series\":0,\"events\":0}";
        assert!(MonitorReport::parse_jsonl(wrong_version).is_err());
        let orphan_point = format!(
            "{{\"kind\":\"monitor\",\"format\":\"{MONITOR_FORMAT}\",\"ticks\":1,\"series\":0,\"events\":0}}\n\
             {{\"kind\":\"point\",\"metric\":\"x.y\",\"tick\":1,\"t_ns\":0,\"value\":0,\"delta\":0,\"rate\":0,\"lo\":0,\"hi\":0}}"
        );
        assert!(MonitorReport::parse_jsonl(&orphan_point).is_err());
    }

    #[test]
    fn diagnosis_names_busiest_stage_and_counts_backpressure() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 64, HealthSpec::new());
        const INFLIGHT: Name<Gauge, 2> = Name::declare("executor.{}.{}.inflight");
        const QUEUE_DEPTH: Name<Gauge> = Name::declare("executor.queue_depth");
        const STALL: Name<Histogram> = Name::declare("executor.stall_ns");
        let fast = reg.handle(&INFLIGHT, ["pipe", "fast_stage"]);
        let slow = reg.handle(&INFLIGHT, ["pipe", "slow_stage"]);
        let q = reg.handle(&QUEUE_DEPTH, []);
        let stall = reg.handle(&STALL, []);
        for i in 0..10u64 {
            // The slow stage is busy every window; the fast one only twice.
            slow.add(1);
            slow.add(-1);
            if i < 2 {
                fast.add(1);
                fast.add(-1);
            }
            q.set(2);
            if i >= 5 {
                stall.record(900_000); // 90% of each 1 ms window
            }
            clock.advance_ns(1_000_000);
            sampler.tick();
        }
        let diag = sampler.report().diagnose();
        let b = diag.bottleneck.clone().expect("one stage was busy");
        assert_eq!(
            (b.pipeline.as_str(), b.stage.as_str()),
            ("pipe", "slow_stage")
        );
        assert_eq!(b.busy_windows, 10);
        assert_eq!(diag.stages.len(), 2);
        assert_eq!(diag.stages[1].stage, "fast_stage");
        assert_eq!(diag.stages[1].busy_windows, 2);
        assert_eq!(diag.peak_queue_depth, 2.0);
        assert_eq!(diag.total_stall_ns, 4_500_000);
        assert_eq!(diag.backpressure_windows, 5);
        let text = diag.render();
        assert!(text.contains("bottleneck: pipe.slow_stage"), "{text}");
    }

    #[test]
    fn empty_run_diagnosis_is_calm() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 8, HealthSpec::new());
        clock.advance_ns(1);
        sampler.tick();
        let diag = sampler.report().diagnose();
        assert!(diag.bottleneck.is_none());
        assert_eq!(diag.total_stall_ns, 0);
        assert_eq!(diag.violations, 0);
        assert!(diag.tenants.is_empty());
        assert!(diag.saturated_tenant.is_none());
        assert!(diag.render().contains("bottleneck: none"));
    }

    #[test]
    fn diagnosis_names_saturated_scheduler_tenant() {
        let reg = Registry::new();
        let (sampler, clock) = manual_sampler(&reg, 64, HealthSpec::new());
        const TENANT_QUEUED: Name<Gauge, 1> = Name::declare("sched.tenant.{}.queued");
        let alpha = reg.handle(&TENANT_QUEUED, ["alpha"]);
        let beta = reg.handle(&TENANT_QUEUED, ["beta"]);
        for i in 0..8u64 {
            // alpha keeps a deep backlog every window; beta only early.
            alpha.add(5);
            alpha.add(-5);
            if i < 2 {
                beta.add(1);
                beta.add(-1);
            }
            clock.advance_ns(1_000_000);
            sampler.tick();
        }
        let diag = sampler.report().diagnose();
        let sat = diag.saturated_tenant.clone().expect("alpha was backlogged");
        assert_eq!(sat.tenant, "alpha");
        assert_eq!(sat.backlogged_windows, 8);
        assert_eq!(sat.peak_queued, 5.0);
        assert_eq!(diag.tenants.len(), 2);
        assert_eq!(diag.tenants[1].tenant, "beta");
        assert_eq!(diag.tenants[1].backlogged_windows, 2);
        let text = diag.render();
        assert!(text.contains("saturated tenant: alpha"), "{text}");
        assert!(text.contains("tenant loads:"), "{text}");
    }

    #[test]
    fn progress_reports_rate_and_eta() {
        let reg = Registry::new();
        let clock = Arc::new(ManualClock::new());
        let sampler = Sampler::new(
            &reg,
            clock.clone() as Arc<dyn Clock>,
            SamplerConfig {
                capacity: 8,
                progress: Some(ProgressTarget {
                    counter: "work.done".into(),
                    total: 10,
                }),
            },
            HealthSpec::new(),
        );
        sampler.tick(); // t = 0 baseline: no rate yet
        reg.handle(&DONE, []).add(4);
        clock.advance_ns(2_000_000_000);
        let report = sampler.tick();
        let p = report.progress.unwrap();
        assert_eq!((p.done, p.total), (4, 10));
        assert_eq!(p.rate, 2.0);
        assert_eq!(p.eta_s, Some(3.0));
        let line = p.render();
        assert!(line.contains("4/10 items (40%)"), "{line}");
        assert!(line.contains("ETA 3.0s"), "{line}");
    }

    #[test]
    fn progress_baseline_excludes_preexisting_count() {
        let reg = Registry::new();
        reg.handle(&DONE, []).add(100); // earlier, unrelated work
        let clock = Arc::new(ManualClock::new());
        let sampler = Sampler::new(
            &reg,
            clock.clone() as Arc<dyn Clock>,
            SamplerConfig {
                capacity: 8,
                progress: Some(ProgressTarget {
                    counter: "work.done".into(),
                    total: 5,
                }),
            },
            HealthSpec::new(),
        );
        reg.handle(&DONE, []).add(3);
        clock.advance_ns(1_000_000_000);
        let p = sampler.tick().progress.unwrap();
        assert_eq!(p.done, 3, "baseline 100 must not count as progress");
    }

    #[test]
    fn background_sampler_ticks_and_stops() {
        let reg = Registry::new();
        let sampler = Sampler::new(
            &reg,
            Arc::new(crate::Stopwatch::start()),
            SamplerConfig::default(),
            HealthSpec::new(),
        );
        let handle = sampler.start(Duration::from_millis(1));
        reg.handle(&DONE, []).add(7);
        std::thread::sleep(Duration::from_millis(10));
        let report = handle.stop();
        // The closing sample guarantees at least one tick even if the
        // interval never elapsed.
        assert!(report.ticks >= 1);
        let s = report.series_named("work.done").expect("series recorded");
        assert_eq!(s.latest().unwrap().value, 7.0);
        assert_eq!(reg.counter("monitor.samples").get(), report.ticks);
    }

    #[test]
    fn observer_sees_every_tick() {
        let reg = Registry::new();
        let clock = Arc::new(ManualClock::new());
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let sampler = Sampler::new(
            &reg,
            clock.clone() as Arc<dyn Clock>,
            SamplerConfig::default(),
            HealthSpec::new(),
        )
        .with_observer(move |tr| {
            seen2.fetch_max(tr.tick, Ordering::Relaxed);
        });
        for _ in 0..3 {
            clock.advance_ns(1);
            sampler.tick();
        }
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }
}
