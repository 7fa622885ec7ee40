//! Streaming, bounded-memory batch executor.
//!
//! `Pipeline::run_batch` materializes every item and barriers on one
//! rayon collect: stage work never overlaps *across* items and peak
//! memory grows linearly with batch size. This module runs the same
//! pipeline as a pipelined chain instead — one bounded channel per
//! stage boundary, a small worker pool per stage — so item 7 can be
//! sharding while item 9 is still regridding, and at most
//! `O(channel_capacity × stages)` items are resident at once
//! regardless of batch size (the paper's Figure 1 streaming
//! raw→AI-ready flow, rather than a batch barrier).
//!
//! Semantics match `run_batch`:
//!
//! * outputs preserve input order;
//! * on failure the error of the *lowest input index* wins,
//!   deterministically — after any failure, later-index items are
//!   drained (received and dropped) so the chain never deadlocks,
//!   while earlier-index items keep running in case one of them fails
//!   with a smaller index;
//! * a panic inside a stage is caught in the worker, the chain drains,
//!   and the panic resumes on the calling thread;
//! * a failed batch publishes no merged per-stage metrics;
//! * an empty batch returns one zeroed [`StageMetrics`] per stage.
//!
//! Stages with a fast path (installed through
//! [`Pipeline::decorate_stage`], e.g. `drai-cache`'s probes) are probed
//! on the *sending* side: a hit short-circuits the stage's channel hop
//! entirely, so a fully-warm item can travel from the feeder to the
//! output without ever being queued.
//!
//! Telemetry (registered in `drai_telemetry::METRIC_FAMILIES`):
//! `executor.queue_depth` (gauge over all queued items; its high-water
//! mark bounds resident items), `executor.stall_ns` (histogram of time
//! producers spend blocked on a full downstream channel — the
//! backpressure signal), `executor.<pipeline>.<stage>.inflight`
//! (per-stage gauge of items inside the stage function),
//! `executor.shortcircuits` (fast-path hits that skipped a hop),
//! `executor.items_completed` (counter ticking live as items clear the
//! whole chain — the progress signal the monitor sampler reads), and a
//! `pipeline.<name>.run_streaming` span. Per-stage `.records`/`.bytes`
//! counters and `.ns`/`.item_ns` histograms follow the `run_batch`
//! contract.
//!
//! [`executor_health_spec`] packages these metrics into the default
//! `drai_telemetry::monitor` health rules for a streaming run.

use crate::metrics::Throughput;
use crate::pipeline::{FastPath, Pipeline, StageCounters, StageDef, StageMetrics};
use crate::CoreError;
use crossbeam::channel::{bounded, Receiver, Sender};
use drai_telemetry::monitor::{Condition, HealthSpec};
use drai_telemetry::{Counter, Gauge, Histogram, Registry, Stopwatch, TraceContext};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`StreamingBatchExt::run_batch_streaming`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Capacity of each inter-stage channel (clamped to ≥ 1). Peak
    /// resident items are `O(channel_capacity × stages)`, independent
    /// of batch size.
    pub channel_capacity: usize,
    /// Worker threads per stage (clamped to ≥ 1).
    pub workers_per_stage: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            channel_capacity: 8,
            workers_per_stage: 2,
        }
    }
}

impl ExecutorConfig {
    /// Tune for the current host. On a single hardware thread extra
    /// stage workers only add context switches and deeper queues only
    /// add resident items, so degrade toward a capacity-2, one-worker
    /// chain; with real parallelism keep the default small pools.
    pub fn for_host() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            ExecutorConfig::default()
        } else {
            ExecutorConfig {
                channel_capacity: 2,
                workers_per_stage: 1,
            }
        }
    }
}

/// Default monitor health rules for a streaming run under `cfg` with
/// `nstages` stages:
///
/// - `queue_saturated`: the `executor.queue_depth` window watermark
///   reached every channel's capacity at once — the chain is fully
///   backpressured end to end.
/// - `no_progress`: `executor.items_completed` went 8 consecutive
///   samples without an item clearing the chain — a stall or livelock
///   candidate at the sampling cadence.
pub fn executor_health_spec(cfg: &ExecutorConfig, nstages: usize) -> HealthSpec {
    let cap = cfg.channel_capacity.max(1);
    let saturated = ((nstages + 1) * cap) as i64;
    HealthSpec::new()
        .rule(
            "queue_saturated",
            "executor.queue_depth",
            Condition::GaugeAbove(saturated),
        )
        .rule(
            "no_progress",
            "executor.items_completed",
            Condition::StallFor(8),
        )
}

/// Cooperative cancellation handle for a streaming run, shared between
/// the caller (e.g. the `drai-sched` scheduler shedding a job) and the
/// executor's feeder/workers. Firing it is a one-way latch: the feeder
/// stops admitting new items, in-flight items drain without work, and
/// the run returns a typed `batch cancelled` error instead of partial
/// output — never a silent short batch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Latch the token. Idempotent; observable from every clone.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// Streaming counterpart of `Pipeline::run_batch`.
pub trait StreamingBatchExt<T> {
    /// Run `items` through the pipeline as a pipelined chain over
    /// bounded channels. Same outputs, ordering, error selection and
    /// metrics contract as `run_batch`; memory bounded by
    /// `cfg.channel_capacity` per stage boundary instead of by the
    /// batch size.
    fn run_batch_streaming(
        &self,
        items: Vec<T>,
        cfg: &ExecutorConfig,
    ) -> Result<(Vec<T>, Vec<StageMetrics>), CoreError>;

    /// [`StreamingBatchExt::run_batch_streaming`] with a cooperative
    /// [`CancelToken`]: when the token fires mid-run the chain drains
    /// (never deadlocks), no merged metrics are published, and the
    /// result is a `CoreError::Stage` whose message is `batch
    /// cancelled` — unless a stage error/panic with some input index
    /// already decided the batch, which still wins.
    fn run_batch_streaming_cancellable(
        &self,
        items: Vec<T>,
        cfg: &ExecutorConfig,
        cancel: &CancelToken,
    ) -> Result<(Vec<T>, Vec<StageMetrics>), CoreError>;
}

/// An item in flight, tagged with its input index.
struct Msg<T> {
    idx: usize,
    item: T,
}

/// Why the batch must fail: the stage error or caught panic with the
/// lowest input index observed so far.
enum Incident {
    Error {
        index: usize,
        stage: String,
        message: String,
    },
    Panic {
        index: usize,
        payload: Box<dyn Any + Send>,
    },
}

impl Incident {
    fn index(&self) -> usize {
        match self {
            Incident::Error { index, .. } | Incident::Panic { index, .. } => *index,
        }
    }
}

/// Per-stage accumulators, updated lock-free by workers (the item
/// latency list is the one mutex, touched once per item).
struct StageAcc {
    records: AtomicU64,
    bytes: AtomicU64,
    /// Earliest stage entry, ns since the executor epoch (`u64::MAX`
    /// until the first item).
    start_min: AtomicU64,
    /// Latest stage exit, ns since the executor epoch.
    end_max: AtomicU64,
    /// Per-item latency through this stage, buffered and published to
    /// the `.item_ns` histogram only if the whole batch succeeds.
    item_ns: Mutex<Vec<u64>>,
}

impl StageAcc {
    fn new() -> Self {
        StageAcc {
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            start_min: AtomicU64::new(u64::MAX),
            end_max: AtomicU64::new(0),
            item_ns: Mutex::new(Vec::new()),
        }
    }

    fn absorb(&self, counters: &StageCounters, start_ns: u64, end_ns: u64) {
        self.records.fetch_add(counters.records, Ordering::Relaxed);
        self.bytes.fetch_add(counters.bytes, Ordering::Relaxed);
        self.start_min.fetch_min(start_ns, Ordering::Relaxed);
        self.end_max.fetch_max(end_ns, Ordering::Relaxed);
        self.item_ns.lock().push(end_ns.saturating_sub(start_ns));
    }
}

/// Everything the feeder, stage workers and collector share by
/// reference for the duration of one streaming run.
struct ExecShared<'a, T> {
    stages: &'a [StageDef<T>],
    accs: &'a [StageAcc],
    incident: &'a Mutex<Option<Incident>>,
    /// Lowest failing input index so far (`usize::MAX` = none). Items
    /// with an index ≥ this are drained without work; items below it
    /// keep running so a smaller-index failure can still surface.
    error_before: &'a AtomicUsize,
    epoch: Stopwatch,
    queue_depth: Arc<Gauge>,
    stall: Arc<Histogram>,
    shortcircuits: Arc<Counter>,
    inflight: &'a [Arc<Gauge>],
    /// External cancellation latch (a fresh, never-fired token for
    /// plain streaming runs).
    cancel: &'a CancelToken,
}

impl<T> ExecShared<'_, T> {
    fn cancelled(&self, idx: usize) -> bool {
        self.cancel.is_cancelled() || idx >= self.error_before.load(Ordering::SeqCst)
    }

    fn record_incident(&self, inc: Incident) {
        self.error_before.fetch_min(inc.index(), Ordering::SeqCst);
        let mut slot = self.incident.lock();
        let replace = match slot.as_ref() {
            Some(current) => inc.index() < current.index(),
            None => true,
        };
        if replace {
            *slot = Some(inc);
        }
    }

    /// Probe fast paths from stage `k` onward: each hit absorbs its
    /// counters into that stage's accumulators and skips the stage's
    /// channel hop. Returns the stage the item must enter next
    /// (`stages.len()` = done) or `None` when a probe panicked (the
    /// incident is recorded).
    fn advance(&self, mut k: usize, idx: usize, mut item: T) -> Option<(usize, T)> {
        while k < self.stages.len() {
            let Some(fast) = self.stages[k].fast.clone() else {
                break;
            };
            let start_ns = self.epoch.elapsed_ns();
            let mut counters = StageCounters::default();
            let probed = catch_unwind(AssertUnwindSafe(|| fast(item, &mut counters)));
            match probed {
                Err(payload) => {
                    self.record_incident(Incident::Panic {
                        index: idx,
                        payload,
                    });
                    return None;
                }
                Ok(FastPath::Hit(output)) => {
                    self.accs[k].absorb(&counters, start_ns, self.epoch.elapsed_ns());
                    self.shortcircuits.incr();
                    item = output;
                    k += 1;
                }
                Ok(FastPath::Miss(original)) => {
                    item = original;
                    break;
                }
            }
        }
        Some((k, item))
    }

    /// Send `msg` into the channel for stage `k` (relative to `txs`),
    /// timing how long the send blocks on a full downstream channel.
    fn forward(&self, txs: &[Sender<Msg<T>>], k: usize, msg: Msg<T>) {
        let Some(tx) = txs.get(k) else {
            return;
        };
        let wait = Stopwatch::start();
        // A send error means every downstream receiver exited — only
        // possible when the run is collapsing; dropping the item is
        // correct (the incident that caused the collapse is recorded).
        if tx.send(msg).is_ok() {
            self.queue_depth.add(1);
        }
        self.stall.record(wait.elapsed_ns());
    }

    /// Feeder: push every input item into the front of the chain (or
    /// further along, when leading fast paths hit).
    fn feed(&self, items: Vec<T>, txs: Vec<Sender<Msg<T>>>) {
        for (idx, item) in items.into_iter().enumerate() {
            if self.cancelled(idx) {
                continue;
            }
            if let Some((k, item)) = self.advance(0, idx, item) {
                self.forward(&txs, k, Msg { idx, item });
            }
        }
    }

    /// Worker for stage `s`: `txs` covers channels `s+1..=stages.len()`.
    fn work(&self, s: usize, rx: Receiver<Msg<T>>, txs: Vec<Sender<Msg<T>>>) {
        while let Ok(msg) = rx.recv() {
            self.queue_depth.add(-1);
            if self.cancelled(msg.idx) {
                continue; // drain without work so upstream never blocks
            }
            let busy = self.inflight[s].inc_scope();
            let start_ns = self.epoch.elapsed_ns();
            let mut counters = StageCounters::default();
            let func = self.stages[s].func.clone();
            let item = msg.item;
            let result = catch_unwind(AssertUnwindSafe(|| func(item, &mut counters)));
            let end_ns = self.epoch.elapsed_ns();
            drop(busy);
            match result {
                Err(payload) => self.record_incident(Incident::Panic {
                    index: msg.idx,
                    payload,
                }),
                Ok(Err(message)) => self.record_incident(Incident::Error {
                    index: msg.idx,
                    stage: self.stages[s].name.clone(),
                    message,
                }),
                Ok(Ok(output)) => {
                    self.accs[s].absorb(&counters, start_ns, end_ns);
                    if let Some((k, output)) = self.advance(s + 1, msg.idx, output) {
                        self.forward(
                            &txs,
                            k - (s + 1),
                            Msg {
                                idx: msg.idx,
                                item: output,
                            },
                        );
                    }
                }
            }
        }
    }
}

impl<T: Send> StreamingBatchExt<T> for Pipeline<T> {
    fn run_batch_streaming(
        &self,
        items: Vec<T>,
        cfg: &ExecutorConfig,
    ) -> Result<(Vec<T>, Vec<StageMetrics>), CoreError> {
        // A fresh token never fires, so this is exactly the
        // pre-cancellation semantics.
        self.run_batch_streaming_cancellable(items, cfg, &CancelToken::new())
    }

    fn run_batch_streaming_cancellable(
        &self,
        items: Vec<T>,
        cfg: &ExecutorConfig,
        cancel: &CancelToken,
    ) -> Result<(Vec<T>, Vec<StageMetrics>), CoreError> {
        let registry = Registry::current();
        let span = registry.span(format!("pipeline.{}.run_streaming", self.name));
        span.add_items(items.len() as u64);
        let _in_span = span.enter();
        let nstages = self.stages.len();
        if nstages == 0 {
            return Ok((items, Vec::new()));
        }
        if items.is_empty() {
            return Ok((Vec::new(), self.zeroed_metrics()));
        }
        let n = items.len();
        let cap = cfg.channel_capacity.max(1);
        let workers = cfg.workers_per_stage.max(1);

        let inflight: Vec<Arc<Gauge>> = self
            .stages
            .iter()
            .map(|s| registry.gauge(&format!("executor.{}.{}.inflight", self.name, s.name)))
            .collect();
        let accs: Vec<StageAcc> = (0..nstages).map(|_| StageAcc::new()).collect();
        let incident: Mutex<Option<Incident>> = Mutex::new(None);
        let error_before = AtomicUsize::new(usize::MAX);
        let shared = ExecShared {
            stages: &self.stages,
            accs: &accs,
            incident: &incident,
            error_before: &error_before,
            epoch: Stopwatch::start(),
            queue_depth: registry.gauge("executor.queue_depth"),
            stall: registry.histogram("executor.stall_ns"),
            shortcircuits: registry.counter("executor.shortcircuits"),
            inflight: &inflight,
            cancel,
        };

        // Channel k feeds stage k; channel `nstages` is the output.
        // Every producer that can skip ahead holds senders for all its
        // downstream channels, so channel k disconnects exactly when
        // the feeder and all workers of stages < k have finished.
        let mut chans_tx: Vec<Sender<Msg<T>>> = Vec::with_capacity(nstages + 1);
        let mut chans_rx: Vec<Receiver<Msg<T>>> = Vec::with_capacity(nstages + 1);
        for _ in 0..=nstages {
            let (tx, rx) = bounded(cap);
            chans_tx.push(tx);
            chans_rx.push(rx);
        }
        // Capture-and-attach: workers report into the caller's registry
        // and parent under the streaming span (same handoff as
        // `prefetch_map`).
        let context = TraceContext::current();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();

        std::thread::scope(|scope| {
            let shared = &shared;
            let context = &context;
            {
                let txs = chans_tx.clone();
                scope.spawn(move || {
                    let _attached = context.as_ref().map(TraceContext::attach);
                    shared.feed(items, txs);
                });
            }
            for s in 0..nstages {
                for _ in 0..workers {
                    let rx = chans_rx[s].clone();
                    let txs = chans_tx[s + 1..].to_vec();
                    scope.spawn(move || {
                        let _attached = context.as_ref().map(TraceContext::attach);
                        shared.work(s, rx, txs);
                    });
                }
            }
            // Drop the construction-time handles: from here on, sender
            // counts reflect only live producers, so disconnection
            // cascades down the chain as each tier finishes.
            let Some(out_rx) = chans_rx.pop() else {
                return;
            };
            drop(chans_rx);
            drop(chans_tx);
            // Live progress signal: unlike the per-stage counters
            // published after the batch completes, this counter ticks
            // as each item clears the whole chain, so the monitor
            // sampler can compute items/s and ETA mid-run.
            let completed = registry.counter("executor.items_completed");
            while let Ok(msg) = out_rx.recv() {
                shared.queue_depth.add(-1);
                completed.incr();
                if let Some(slot) = slots.get_mut(msg.idx) {
                    *slot = Some(msg.item);
                }
            }
        });

        if let Some(inc) = incident.into_inner() {
            match inc {
                Incident::Panic { payload, .. } => resume_unwind(payload),
                Incident::Error { stage, message, .. } => {
                    return Err(CoreError::Stage { stage, message })
                }
            }
        }
        // A cancelled batch drains to here without an incident but with
        // missing slots; surface the typed cancellation rather than the
        // "item lost" invariant error (checked first, since both hold).
        if cancel.is_cancelled() {
            return Err(CoreError::Stage {
                stage: format!("{}.executor", self.name),
                message: "batch cancelled".to_string(),
            });
        }
        let mut outputs = Vec::with_capacity(n);
        for slot in slots {
            match slot {
                Some(item) => outputs.push(item),
                // Unreachable unless a worker died without recording an
                // incident; surface it rather than returning a short
                // batch.
                None => {
                    return Err(CoreError::Stage {
                        stage: format!("{}.executor", self.name),
                        message: "item lost in streaming executor".to_string(),
                    })
                }
            }
        }

        let mut merged = self.zeroed_metrics();
        for (si, m) in merged.iter_mut().enumerate() {
            let acc = &accs[si];
            let records = acc.records.load(Ordering::Relaxed);
            let bytes = acc.bytes.load(Ordering::Relaxed);
            let start = acc.start_min.load(Ordering::Relaxed);
            let end = acc.end_max.load(Ordering::Relaxed);
            let wall_ns = if start == u64::MAX {
                0
            } else {
                end.saturating_sub(start)
            };
            m.throughput = Throughput {
                records,
                bytes,
                elapsed: Duration::from_nanos(wall_ns),
            };
            let base = format!("pipeline.{}.{}", self.name, m.name);
            registry.counter(&format!("{base}.records")).add(records);
            registry.counter(&format!("{base}.bytes")).add(bytes);
            registry.histogram(&format!("{base}.ns")).record(wall_ns);
            let per_item = registry.histogram(&format!("{base}.item_ns"));
            for &ns in acc.item_ns.lock().iter() {
                per_item.record(ns);
            }
            span.add_bytes(bytes);
        }
        Ok((outputs, merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FastFn;
    use crate::readiness::ProcessingStage as S;
    use drai_telemetry::{Registry, TraceContext};

    fn chain3() -> Pipeline<u64> {
        Pipeline::builder("exec")
            .stage("a", S::Ingest, |x, c| {
                c.records = 1;
                Ok(x + 1)
            })
            .stage("b", S::Transform, |x, c| {
                c.records = 1;
                c.bytes = 8;
                Ok(x * 2)
            })
            .stage("c", S::Shard, |x, c| {
                c.records = 1;
                Ok(x + 3)
            })
            .build()
    }

    fn in_registry<R>(f: impl FnOnce() -> R) -> (R, drai_telemetry::Snapshot) {
        let reg = Registry::new();
        let out = TraceContext::root(&reg).scope(f);
        (out, reg.snapshot())
    }

    #[test]
    fn streaming_matches_run_batch_outputs_and_counts() {
        let p = chain3();
        let items: Vec<u64> = (0..100).collect();
        let (plain, plain_m) = p.run_batch(items.clone()).unwrap();
        let ((streamed, stream_m), snap) = in_registry(|| {
            p.run_batch_streaming(items, &ExecutorConfig::default())
                .unwrap()
        });
        assert_eq!(streamed, plain);
        for (a, b) in plain_m.iter().zip(&stream_m) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.throughput.records, b.throughput.records);
            assert_eq!(a.throughput.bytes, b.throughput.bytes);
        }
        assert_eq!(snap.counters["pipeline.exec.b.records"], 100);
        assert_eq!(snap.counters["pipeline.exec.b.bytes"], 800);
        assert_eq!(snap.histograms["pipeline.exec.b.ns"].count, 1);
        assert_eq!(snap.histograms["pipeline.exec.b.item_ns"].count, 100);
        assert_eq!(snap.spans_named("pipeline.exec.run_streaming").len(), 1);
        // The live progress counter ticked once per item.
        assert_eq!(snap.counters["executor.items_completed"], 100);
    }

    #[test]
    fn health_spec_scales_saturation_to_config() {
        let cfg = ExecutorConfig {
            channel_capacity: 4,
            workers_per_stage: 2,
        };
        let spec = executor_health_spec(&cfg, 3);
        let rules = spec.rules();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "queue_saturated");
        assert_eq!(rules[0].metric, "executor.queue_depth");
        // 4 channels (3 stages + output) × capacity 4.
        assert_eq!(rules[0].cond, Condition::GaugeAbove(16));
        assert_eq!(rules[1].name, "no_progress");
        assert_eq!(rules[1].metric, "executor.items_completed");
        assert_eq!(rules[1].cond, Condition::StallFor(8));
    }

    #[test]
    fn empty_batch_returns_zeroed_metrics() {
        let p = chain3();
        let (outputs, metrics) = p
            .run_batch_streaming(Vec::new(), &ExecutorConfig::default())
            .unwrap();
        assert!(outputs.is_empty());
        assert_eq!(metrics.len(), 3);
        for m in &metrics {
            assert_eq!(m.throughput.records, 0);
        }
    }

    #[test]
    fn stageless_pipeline_passes_items_through() {
        let p: Pipeline<u32> = Pipeline::builder("noop").build();
        let (outputs, metrics) = p
            .run_batch_streaming(vec![1, 2, 3], &ExecutorConfig::default())
            .unwrap();
        assert_eq!(outputs, vec![1, 2, 3]);
        assert!(metrics.is_empty());
    }

    #[test]
    fn queue_depth_high_water_is_bounded_by_capacity_not_batch() {
        let p = chain3();
        let cfg = ExecutorConfig {
            channel_capacity: 2,
            workers_per_stage: 2,
        };
        let items: Vec<u64> = (0..256).collect();
        let ((), snap) = in_registry(|| {
            p.run_batch_streaming(items, &cfg).unwrap();
        });
        let high_water = snap.gauges["executor.queue_depth"].max;
        // 4 channels × capacity 2, plus one transient per producer
        // between recv and gauge decrement — far below the batch size.
        let bound = (4 * cfg.channel_capacity + 3 * cfg.workers_per_stage + 1) as i64;
        assert!(
            high_water <= bound,
            "queue depth {high_water} exceeds bound {bound}"
        );
        assert!(high_water >= 1, "gauge never moved");
    }

    #[test]
    fn lowest_index_error_wins_deterministically() {
        let p: Pipeline<u64> = Pipeline::builder("exec-err")
            .stage("maybe", S::Transform, |x, _| {
                if x == 6 || x == 11 || x == 17 {
                    Err(format!("item {x} failed"))
                } else {
                    Ok(x)
                }
            })
            .build();
        for _ in 0..10 {
            match p.run_batch_streaming((0..32).collect(), &ExecutorConfig::default()) {
                Err(CoreError::Stage { stage, message }) => {
                    assert_eq!(stage, "maybe");
                    assert_eq!(message, "item 6 failed");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn failed_batch_publishes_no_merged_metrics() {
        let p: Pipeline<u64> = Pipeline::builder("exec-fail")
            .stage("pass", S::Ingest, |x, c| {
                c.records = 1;
                Ok(x)
            })
            .stage("maybe", S::Transform, |x, _| {
                if x == 3 {
                    Err("nope".to_string())
                } else {
                    Ok(x)
                }
            })
            .build();
        let (result, snap) =
            in_registry(|| p.run_batch_streaming((0..16).collect(), &ExecutorConfig::default()));
        assert!(result.is_err());
        assert!(!snap
            .counters
            .contains_key("pipeline.exec-fail.pass.records"));
        assert!(!snap
            .histograms
            .contains_key("pipeline.exec-fail.pass.item_ns"));
        assert_eq!(
            snap.spans_named("pipeline.exec-fail.run_streaming").len(),
            1
        );
    }

    /// A fast path for the `+ 100` memo stage that hits on multiples
    /// of `n`.
    fn memo_hits_on_multiples_of(n: u64) -> Arc<FastFn<u64>> {
        Arc::new(move |x: u64, c: &mut StageCounters| {
            if x % n == 0 {
                c.records = 1;
                FastPath::Hit(x + 100)
            } else {
                FastPath::Miss(x)
            }
        })
    }

    #[test]
    fn fast_path_hits_short_circuit_channel_hops() {
        let p: Pipeline<u64> = Pipeline::builder("exec-fast")
            .stage("first", S::Ingest, |x, c| {
                c.records = 1;
                Ok(x)
            })
            .stage("memo", S::Transform, |x, c| {
                c.records = 1;
                Ok(x + 100)
            })
            .build()
            .decorate_stage("memo", |func| (func, Some(memo_hits_on_multiples_of(2))));
        let ((outputs, metrics), snap) = in_registry(|| {
            p.run_batch_streaming((0..10).collect(), &ExecutorConfig::default())
                .unwrap()
        });
        assert_eq!(outputs, (100..110).collect::<Vec<u64>>());
        // Every item is accounted to the memo stage whether it hit or
        // missed.
        assert_eq!(metrics[1].throughput.records, 10);
        assert_eq!(snap.counters["executor.shortcircuits"], 5);
    }

    #[test]
    fn streaming_overlaps_stages_across_items() {
        // With a single worker per stage and a 3-stage chain, pipelined
        // execution still yields correct ordered output under load.
        let p = chain3();
        let cfg = ExecutorConfig {
            channel_capacity: 1,
            workers_per_stage: 1,
        };
        let (outputs, _) = p.run_batch_streaming((0..64).collect(), &cfg).unwrap();
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(*out, (i as u64 + 1) * 2 + 3);
        }
    }

    /// Two-stage pipeline whose memo stage hits its fast path on
    /// multiples of 3; `slow_calls` counts channel-hop executions of
    /// the slow closure.
    fn memo_pipeline(slow_calls: Arc<AtomicU64>) -> Pipeline<u64> {
        Pipeline::builder("exec-degen")
            .stage("first", S::Ingest, |x, c| {
                c.records = 1;
                Ok(x)
            })
            .stage("memo", S::Transform, move |x, c| {
                slow_calls.fetch_add(1, Ordering::SeqCst);
                c.records = 1;
                Ok(x + 100)
            })
            .build()
            .decorate_stage("memo", |func| (func, Some(memo_hits_on_multiples_of(3))))
    }

    #[test]
    fn fast_path_accounting_agrees_with_run_batch_under_degenerate_configs() {
        let items: Vec<u64> = (0..30).collect();
        let hits = items.iter().filter(|x| *x % 3 == 0).count() as u64;

        // Baseline: run_batch probes the same fast paths (no channels,
        // so no shortcircuit counter) — pin its slow-call count.
        let batch_slow = Arc::new(AtomicU64::new(0));
        let (batch_out, batch_m) = memo_pipeline(batch_slow.clone())
            .run_batch(items.clone())
            .unwrap();
        assert_eq!(batch_slow.load(Ordering::SeqCst), 30 - hits);

        for cfg in [
            ExecutorConfig {
                channel_capacity: 1,
                workers_per_stage: 1,
            },
            ExecutorConfig {
                channel_capacity: 1,
                workers_per_stage: 4,
            },
            ExecutorConfig {
                channel_capacity: 16,
                workers_per_stage: 1,
            },
            ExecutorConfig::default(),
        ] {
            let slow = Arc::new(AtomicU64::new(0));
            let p = memo_pipeline(slow.clone());
            let ((outputs, metrics), snap) =
                in_registry(|| p.run_batch_streaming(items.clone(), &cfg).unwrap());
            assert_eq!(outputs, batch_out, "outputs diverge under {cfg:?}");
            // Channel hops into the memo stage = slow-path executions;
            // together with shortcircuits they cover every item exactly
            // once, and both agree with run_batch.
            assert_eq!(
                slow.load(Ordering::SeqCst),
                batch_slow.load(Ordering::SeqCst),
                "slow-path hop count diverges under {cfg:?}"
            );
            assert_eq!(snap.counters["executor.shortcircuits"], hits);
            assert_eq!(
                slow.load(Ordering::SeqCst) + snap.counters["executor.shortcircuits"],
                30
            );
            assert_eq!(metrics[1].throughput.records, batch_m[1].throughput.records);
        }
    }

    #[test]
    fn degenerate_empty_batch_has_no_shortcircuits() {
        let slow = Arc::new(AtomicU64::new(0));
        let p = memo_pipeline(slow.clone());
        let cfg = ExecutorConfig {
            channel_capacity: 1,
            workers_per_stage: 1,
        };
        let ((outputs, metrics), snap) =
            in_registry(|| p.run_batch_streaming(Vec::new(), &cfg).unwrap());
        assert!(outputs.is_empty());
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].throughput.records, 0);
        assert_eq!(slow.load(Ordering::SeqCst), 0);
        assert!(!snap.counters.contains_key("executor.shortcircuits"));
        assert!(!snap.counters.contains_key("executor.items_completed"));
    }

    #[test]
    fn prefired_cancel_token_yields_typed_cancellation() {
        let p = chain3();
        let token = CancelToken::new();
        token.cancel();
        match p.run_batch_streaming_cancellable(
            (0..16).collect(),
            &ExecutorConfig::default(),
            &token,
        ) {
            Err(CoreError::Stage { stage, message }) => {
                assert_eq!(stage, "exec.executor");
                assert_eq!(message, "batch cancelled");
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn mid_run_cancellation_drains_without_deadlock_or_metrics() {
        let token = CancelToken::new();
        let trigger = token.clone();
        let p: Pipeline<u64> = Pipeline::builder("exec-cancel")
            .stage("work", S::Transform, move |x, c| {
                if x == 5 {
                    trigger.cancel();
                }
                c.records = 1;
                Ok(x)
            })
            .build();
        let cfg = ExecutorConfig {
            channel_capacity: 1,
            workers_per_stage: 1,
        };
        let (result, snap) =
            in_registry(|| p.run_batch_streaming_cancellable((0..256).collect(), &cfg, &token));
        match result {
            Err(CoreError::Stage { stage, message }) => {
                assert_eq!(stage, "exec-cancel.executor");
                assert_eq!(message, "batch cancelled");
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        // Cancelled batches publish no merged per-stage metrics, like
        // any other failed batch.
        assert!(!snap
            .counters
            .contains_key("pipeline.exec-cancel.work.records"));
    }

    #[test]
    fn stage_error_beats_concurrent_cancellation() {
        let token = CancelToken::new();
        let trigger = token.clone();
        let p: Pipeline<u64> = Pipeline::builder("exec-race")
            .stage("work", S::Transform, move |x, _| {
                if x == 3 {
                    trigger.cancel();
                    Err("item 3 failed".to_string())
                } else {
                    Ok(x)
                }
            })
            .build();
        match p.run_batch_streaming_cancellable(
            (0..32).collect(),
            &ExecutorConfig::default(),
            &token,
        ) {
            Err(CoreError::Stage { stage, message }) => {
                assert_eq!(stage, "work");
                assert_eq!(message, "item 3 failed");
            }
            other => panic!("expected the stage error, got {other:?}"),
        }
    }
}
