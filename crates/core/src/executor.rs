//! The batch engine: a bounded worker pool in which each worker
//! follows one item through the whole pipeline.
//!
//! A pool of `min(workers_per_stage × stages, batch size, cpus)` threads
//! shares the input iterator. Each worker takes the next
//! `(index, item)`, carries it through **every** stage by calling
//! `Pipeline::execute_stage` — the function `Pipeline::run` calls,
//! fast path, derivation id and ledger record included; the last stage
//! makes a last fast-path hit's output on its own clock, as `run`'s
//! does — and hands the finished item to the collector
//! over one bounded channel. Item 7 can be sharding while item 9 is
//! still regridding, no stage is pinned to one thread, and at most
//! `pool + channel_capacity` items sit between input and output
//! regardless of batch size (the paper's Figure 1 streaming
//! raw→AI-ready flow, rather than a batch barrier).
//!
//! `cpus` is the calling thread's [`cpu_share`]: every CPU, unless the
//! caller is itself a pool worker. The pool is
//! [`drai_io::parallel::pool`]'s, so each worker holds a share of
//! `max(1, cpus / pool)` and a stage's `par_map` fans out onto that
//! share only. On a pool that covers the CPUs every `par_map` of a stage
//! runs on its worker's thread; a one-item batch's worker still fans out
//! onto every CPU. The share decides only where work runs, never what it
//! computes.
//!
//! The specification of a batch is "each item alone through
//! `Pipeline::run`, in input order":
//!
//! * outputs preserve input order;
//! * on failure the error of the *lowest input index* wins,
//!   deterministically — after any failure, later-index items are
//!   dropped without work, while earlier-index items keep running in
//!   case one of them fails with a smaller index;
//! * a panic inside a stage is caught in the worker, the pool drains,
//!   and the panic resumes on the calling thread;
//! * a failed batch publishes no merged per-stage metrics;
//! * an empty batch returns one zeroed [`StageMetrics`] per stage.
//!
//! Telemetry (declared in this crate's `names` module):
//! `executor.queue_depth` (gauge over finished items waiting for the
//! collector: in the hand-off channel, held by a worker blocked on it,
//! or just taken by the collector, so 0 ≤ depth ≤ `channel_capacity +
//! pool + 1`; each item's `GaugeGuard` travels in its channel message),
//! `executor.stall_ns` (histogram of time workers spend
//! blocked on the full hand-off channel — the backpressure signal),
//! `executor.<pipeline>.<stage>.inflight` (per-stage gauge of items
//! inside the stage), `executor.items_completed` (counter ticking live
//! as items reach the collector, so progress can be read while a batch
//! runs), and a `pipeline.<name>.run_streaming` span. After a
//! successful batch each stage publishes merged `.records`/`.bytes`
//! counters, one `.ns` observation (the stage's batch wall-clock: last
//! item out minus first item in, so it never exceeds the batch wall
//! time regardless of parallelism) and one `.item_ns` observation per
//! item (hits included).

use crate::metrics::Throughput;
use crate::names;
use crate::pipeline::{Failure, Item, Pipeline, StageCounters, StageMetrics};
use crate::CoreError;
use drai_io::parallel::{self, cpu_share};
use drai_telemetry::{Gauge, GaugeGuard, Handle, Histogram, Registry, Stopwatch};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`StreamingBatchExt::run_batch_streaming`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Capacity of the worker→collector hand-off channel (clamped to
    /// ≥ 1). Items between input and output are bounded by the pool
    /// size plus this, independent of batch size.
    pub channel_capacity: usize,
    /// Thread budget per pipeline stage (clamped to ≥ 1): the pool has
    /// `workers_per_stage × stages` workers at most, capped at the batch
    /// size and at the CPUs the caller holds (one worker per CPU).
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
    /// Tune for the current host ([`parallel::cpu_count`]). With few
    /// hardware threads a deeper hand-off only adds resident items, so
    /// degrade toward a capacity-2, one-worker-per-stage pool; with real
    /// parallelism keep the default. Either way the pool never exceeds
    /// one worker per CPU.
    pub fn for_host() -> Self {
        if parallel::cpu_count() >= 4 {
            ExecutorConfig::default()
        } else {
            ExecutorConfig {
                channel_capacity: 2,
                workers_per_stage: 1,
            }
        }
    }
}

/// Cooperative cancellation handle for a streaming run, shared between
/// the caller (e.g. the `drai-sched` scheduler shedding a job) and the
/// executor's workers. Firing it is a one-way latch: items not yet
/// started are dropped, in-flight items stop at their next stage
/// boundary, and the run returns a typed `batch cancelled` error
/// instead of partial output — never a silent short batch.
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

/// Batch execution of a [`Pipeline`].
pub trait StreamingBatchExt<T> {
    /// Run `items` through the pipeline on the worker pool: the same
    /// outputs, in input order, as running each item alone through
    /// `Pipeline::run`, with the error selection and metrics contract
    /// of the module docs; items in flight bounded by the pool plus
    /// `cfg.channel_capacity` instead of by the batch size.
    fn run_batch_streaming(
        &self,
        items: Vec<T>,
        cfg: &ExecutorConfig,
    ) -> Result<(Vec<T>, Vec<StageMetrics>), CoreError>;

    /// [`StreamingBatchExt::run_batch_streaming`] with a cooperative
    /// [`CancelToken`]: when the token fires mid-run the pool drains
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

/// Everything the pool's workers share by reference for the duration
/// of one streaming run.
struct ExecShared<'a, T> {
    pipeline: &'a Pipeline<T>,
    /// The batch, handed out one `(index, item)` at a time.
    input: Mutex<std::iter::Enumerate<std::vec::IntoIter<T>>>,
    accs: &'a [StageAcc],
    incident: &'a Mutex<Option<Incident>>,
    /// Lowest failing input index so far (`usize::MAX` = none). Items
    /// with an index ≥ this are dropped without work; items below it
    /// keep running so a smaller-index failure can still surface.
    error_before: &'a AtomicUsize,
    epoch: Stopwatch,
    queue_depth: Handle<Gauge>,
    stall: Handle<Histogram>,
    inflight: &'a [Handle<Gauge>],
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

    /// Carry item `idx` through every stage; the last one makes its
    /// output, so a last hit's decode runs on that stage's clock (see
    /// [`Item`]). `None` when the item was cancelled at a stage boundary
    /// or failed (the incident is recorded).
    fn carry(&self, idx: usize, input: T) -> Option<T> {
        let Some((last, init)) = self.pipeline.stages.split_last() else {
            return Some(input);
        };
        // The item and its derivation id, as `Pipeline::run` carries them.
        let (mut item, mut id) = (Item::ready(input), None);
        for (s, stage) in init.iter().enumerate() {
            (item, id) = self.step(idx, s, |c| self.pipeline.execute_stage(stage, item, id, c))?;
        }
        self.step(idx, init.len(), |c| {
            self.pipeline.execute_stage(last, item, id, c)?.0.settle()
        })
    }

    /// Run `work` as stage `s` of item `idx`: under the stage's in-flight
    /// gauge, timed into its accumulator, a failure or a panic recorded
    /// as the item's incident. `None` when the item was cancelled before
    /// the stage or failed in it.
    fn step<R>(
        &self,
        idx: usize,
        s: usize,
        work: impl FnOnce(&mut StageCounters) -> Result<R, Failure>,
    ) -> Option<R> {
        if self.cancelled(idx) {
            return None;
        }
        let busy = GaugeGuard::new(self.inflight[s].clone(), 1);
        let start_ns = self.epoch.elapsed_ns();
        let mut counters = StageCounters::default();
        let result = catch_unwind(AssertUnwindSafe(|| work(&mut counters)));
        let end_ns = self.epoch.elapsed_ns();
        drop(busy);
        let incident = match result {
            Ok(Ok(output)) => {
                self.accs[s].absorb(&counters, start_ns, end_ns);
                return Some(output);
            }
            Ok(Err(Failure { stage, message })) => Incident::Error {
                index: idx,
                stage,
                message,
            },
            Err(payload) => Incident::Panic {
                index: idx,
                payload,
            },
        };
        self.record_incident(incident);
        None
    }

    /// Pool worker: take the next input item, carry it through the
    /// pipeline, hand it to the collector; repeat until the input is
    /// exhausted.
    fn work(&self, tx: SyncSender<(usize, T, GaugeGuard)>) {
        loop {
            // The feed lock is a temporary, released before any stage
            // runs or the hand-off blocks.
            let Some((idx, item)) = self.input.lock().next() else {
                return;
            };
            let Some(item) = self.carry(idx, item) else {
                continue;
            };
            let wait = Stopwatch::start();
            // The item counts in the queue depth from before the send
            // until the collector drops the guard that travels with it
            // (or the failed send does). A send error means the
            // collector is gone — only possible when the run is
            // collapsing; dropping the item is correct.
            let depth = GaugeGuard::new(self.queue_depth.clone(), 1);
            let _ = parking_lot::blocking(|| tx.send((idx, item, depth)));
            self.stall.record(wait.elapsed_ns());
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
        self.stream_on(cpu_share(), items, cfg, cancel)
    }
}

impl<T: Send> Pipeline<T> {
    /// [`StreamingBatchExt::run_batch_streaming_cancellable`] with a pool
    /// capped at `cpus` workers (the test seam: a test that needs more
    /// workers than the host has CPUs asks for them here).
    fn stream_on(
        &self,
        cpus: usize,
        items: Vec<T>,
        cfg: &ExecutorConfig,
        cancel: &CancelToken,
    ) -> Result<(Vec<T>, Vec<StageMetrics>), CoreError> {
        let registry = Registry::current();
        let span = registry.span(&names::RUN_STREAMING, [&self.name]);
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
        let pool = (cfg.workers_per_stage.max(1) * nstages).min(n).min(cpus);

        let inflight: Vec<Handle<Gauge>> = self
            .stages
            .iter()
            .map(|s| registry.handle(&names::INFLIGHT, [&self.name, &s.name]))
            .collect();
        let accs: Vec<StageAcc> = (0..nstages).map(|_| StageAcc::new()).collect();
        let incident: Mutex<Option<Incident>> = Mutex::new(None);
        let error_before = AtomicUsize::new(usize::MAX);
        let shared = ExecShared {
            pipeline: self,
            input: Mutex::new(items.into_iter().enumerate()),
            accs: &accs,
            incident: &incident,
            error_before: &error_before,
            epoch: Stopwatch::start(),
            queue_depth: registry.handle(&names::QUEUE_DEPTH, []),
            stall: registry.handle(&names::STALL_NS, []),
            inflight: &inflight,
            cancel,
        };
        let (tx, rx) = sync_channel(cfg.channel_capacity.max(1));
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let shared = &shared;
        // The pool attaches the caller's trace context, so workers
        // report into its registry and parent under the streaming span.
        // Each worker owns a clone of `tx`: the channel disconnects,
        // ending the collector loop, exactly when the last one finishes.
        let worker = move || shared.work(tx);
        parallel::pool(pool, worker, || {
            // Live progress signal: unlike the per-stage counters
            // published after the batch completes, this counter ticks
            // as each item reaches the collector, so a sample taken
            // mid-run sees how far the batch got.
            let completed = registry.handle(&names::ITEMS_COMPLETED, []);
            while let Ok((idx, item, _depth)) = parking_lot::blocking(|| rx.recv()) {
                completed.incr();
                if let Some(slot) = slots.get_mut(idx) {
                    *slot = Some(item);
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
            let at = [self.name.as_str(), m.name.as_str()];
            registry.handle(&names::STAGE_RECORDS, at).add(records);
            registry.handle(&names::STAGE_BYTES, at).add(bytes);
            registry.handle(&names::STAGE_NS, at).record(wall_ns);
            let per_item = registry.handle(&names::STAGE_ITEM_NS, at);
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
    use crate::pipeline::{FastFn, FastPath};
    use crate::readiness::ProcessingStage as S;
    use drai_telemetry::{Registry, TraceContext};
    use std::collections::HashSet;

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

    /// The specification of a batch: each item alone through
    /// `Pipeline::run`, in input order. Returns the outputs and each
    /// stage's summed `(records, bytes)`.
    fn sequential(p: &Pipeline<u64>, items: &[u64]) -> (Vec<u64>, Vec<(u64, u64)>) {
        let mut totals = vec![(0, 0); p.stages.len()];
        let outputs = items
            .iter()
            .map(|&item| {
                let run = p.run(item).unwrap();
                for (total, stage) in totals.iter_mut().zip(&run.stages) {
                    total.0 += stage.throughput.records;
                    total.1 += stage.throughput.bytes;
                }
                run.output
            })
            .collect();
        (outputs, totals)
    }

    #[test]
    fn streaming_matches_sequential_run_outputs_and_counts() {
        let p = chain3();
        let items: Vec<u64> = (0..100).collect();
        let (plain, plain_totals) = sequential(&p, &items);
        let ((streamed, stream_m), snap) = in_registry(|| {
            p.run_batch_streaming(items, &ExecutorConfig::default())
                .unwrap()
        });
        assert_eq!(streamed, plain);
        for (total, m) in plain_totals.iter().zip(&stream_m) {
            assert_eq!(*total, (m.throughput.records, m.throughput.bytes));
        }
        assert_eq!(snap.counters["pipeline.exec.b.records"], 100);
        assert_eq!(snap.counters["pipeline.exec.b.bytes"], 800);
        assert_eq!(snap.histograms["pipeline.exec.b.ns"].count, 1);
        assert_eq!(snap.histograms["pipeline.exec.b.item_ns"].count, 100);
        assert_eq!(snap.spans_named("pipeline.exec.run_streaming").len(), 1);
        // Per-item stage spans are suppressed so large batches don't
        // flood the span log.
        assert!(snap.spans_named("pipeline.exec.b").is_empty());
        // The live progress counter ticked once per item.
        assert_eq!(snap.counters["executor.items_completed"], 100);
    }

    #[test]
    fn empty_batch_returns_zeroed_metrics_and_does_no_work() {
        let slow = Arc::new(AtomicU64::new(0));
        let p = memo_pipeline(slow.clone());
        let cfg = ExecutorConfig {
            channel_capacity: 1,
            workers_per_stage: 1,
        };
        let ((outputs, metrics), snap) =
            in_registry(|| p.run_batch_streaming(Vec::new(), &cfg).unwrap());
        assert!(outputs.is_empty());
        // One zeroed entry per stage, so downstream code zipping merged
        // metrics against stage lists never sees unequal lengths.
        assert_eq!(metrics.len(), 2);
        for (m, name) in metrics.iter().zip(["first", "memo"]) {
            assert_eq!(m.name, name);
            assert_eq!(m.throughput.records, 0);
            assert_eq!(m.throughput.bytes, 0);
            assert_eq!(m.throughput.elapsed, Duration::ZERO);
        }
        assert_eq!(slow.load(Ordering::SeqCst), 0);
        assert!(!snap.counters.contains_key("executor.items_completed"));
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
    fn items_in_flight_are_bounded_by_pool_plus_capacity_not_batch() {
        let cfg = ExecutorConfig {
            channel_capacity: 2,
            workers_per_stage: 2,
        };
        let entered = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let (stage_entered, stage_peak) = (entered.clone(), peak.clone());
        let p: Pipeline<u64> = Pipeline::builder("exec-bound")
            .stage("enter", S::Ingest, move |x, _| {
                // Items taken from the input and not yet collected. The
                // count of collected items is read second, so a stale
                // read can only under-count.
                let taken = stage_entered.fetch_add(1, Ordering::SeqCst) + 1;
                let collected = Registry::current()
                    .counter("executor.items_completed")
                    .get();
                stage_peak.fetch_max(taken.saturating_sub(collected), Ordering::SeqCst);
                Ok(x)
            })
            .stage("b", S::Transform, |x, _| Ok(x * 2))
            .stage("c", S::Shard, |x, _| Ok(x + 3))
            .build();
        let pool = 3 * cfg.workers_per_stage;
        let ((), snap) = in_registry(|| {
            p.stream_on(pool, (0..256).collect(), &cfg, &CancelToken::new())
                .unwrap();
        });
        assert_eq!(entered.load(Ordering::SeqCst), 256);
        // One item per pool worker (2 × 3 stages), a full hand-off
        // channel, and the one item the collector holds between its
        // recv and its counter tick — far below the batch size.
        let in_flight = peak.load(Ordering::SeqCst);
        assert!(
            (1..=(pool + cfg.channel_capacity + 1) as u64).contains(&in_flight),
            "{in_flight} items in flight"
        );
        // A full channel, every worker holding a finished item, and the
        // one the collector has taken and not yet counted out.
        let high_water = snap.gauges["executor.queue_depth"].max;
        assert!(
            (1..=(cfg.channel_capacity + pool + 1) as i64).contains(&high_water),
            "queue depth high water {high_water}"
        );
    }

    #[test]
    fn queue_depth_never_reads_negative() {
        // Four workers on a one-slot channel: the collector is often
        // inside `recv` when a worker sends, so its decrement races the
        // worker's increment on every item.
        let p: Pipeline<u64> = Pipeline::builder("exec-depth")
            .stage("only", S::Transform, |x, _| Ok(x))
            .build();
        let cfg = ExecutorConfig {
            channel_capacity: 1,
            workers_per_stage: 4,
        };
        let ((), snap) = in_registry(|| {
            p.stream_on(4, (0..2048).collect(), &cfg, &CancelToken::new())
                .unwrap();
        });
        let depth = &snap.gauges["executor.queue_depth"];
        assert_eq!(depth.value, 0);
        assert_eq!(depth.min, 0);
    }

    #[test]
    fn stage_ns_never_exceeds_batch_wall_and_item_ns_counts_items() {
        let p: Pipeline<u64> = Pipeline::builder("batch-wall")
            .stage("spin", S::Transform, |x: u64, c| {
                // Busy work so per-item elapsed is measurable: summed
                // across parallel items it would exceed the batch wall.
                let mut acc = x;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                }
                c.records = 1;
                Ok(acc)
            })
            .build();
        let wall = Stopwatch::start();
        let (result, snap) =
            in_registry(|| p.run_batch_streaming((0..32).collect(), &ExecutorConfig::default()));
        let wall_ns = wall.elapsed_ns();
        result.unwrap();
        // `.ns` records the stage's batch wall-clock, which can never
        // exceed the wall time of the whole call.
        let ns = &snap.histograms["pipeline.batch-wall.spin.ns"];
        assert_eq!(ns.count, 1);
        assert!(
            ns.max <= wall_ns,
            "stage wall {} > batch wall {wall_ns}",
            ns.max
        );
        // Per-item latency lands in `.item_ns`: one observation per item.
        let item = &snap.histograms["pipeline.batch-wall.spin.item_ns"];
        assert_eq!(item.count, 32);
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

    /// A fast path for the `+ 100` memo stage that hits on multiples
    /// of 3. A miss leaves `bytes` set, which the stage function does
    /// not touch — `execute_stage` carries it into the stage's record.
    fn memo_probe() -> Arc<FastFn<u64>> {
        Arc::new(|x: &mut Item<u64>, c: &mut StageCounters| {
            c.bytes = 8;
            match x.get() {
                Some(&x) if x % 3 == 0 => {
                    c.records = 1;
                    FastPath::Hit(Box::new(move || Some(x + 100)))
                }
                _ => FastPath::Miss,
            }
        })
    }

    /// Two-stage pipeline whose memo stage has [`memo_probe`] as its
    /// fast path; `slow_calls` counts executions of the stage function.
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
            .decorate_stage("memo", |func| (func, Some(memo_probe())))
    }

    #[test]
    fn fast_path_accounting_agrees_with_sequential_run_under_degenerate_configs() {
        let items: Vec<u64> = (0..30).collect();
        let hits = items.iter().filter(|x| *x % 3 == 0).count() as u64;

        let seq_slow = Arc::new(AtomicU64::new(0));
        let (seq_out, seq_totals) = sequential(&memo_pipeline(seq_slow.clone()), &items);
        assert_eq!(seq_slow.load(Ordering::SeqCst), 30 - hits);

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
            let (outputs, metrics) = p.run_batch_streaming(items.clone(), &cfg).unwrap();
            assert_eq!(outputs, seq_out, "outputs diverge under {cfg:?}");
            // Every item either hit the fast path or ran the stage
            // function, exactly once, as in the sequential run.
            assert_eq!(
                slow.load(Ordering::SeqCst),
                30 - hits,
                "stage-function call count diverges under {cfg:?}"
            );
            // Every item is accounted to the memo stage whether it hit
            // or missed.
            assert_eq!(metrics[1].throughput.records, 30);
            assert_eq!(metrics[1].throughput.records, seq_totals[1].0);
        }
    }

    #[test]
    fn batch_of_one_is_exactly_a_sequential_run() {
        // One hit and one miss: a one-item batch executes each stage
        // through the same function as `run`, so records, bytes
        // (including what a missing probe left behind) and output are
        // identical, and the merge adds nothing of its own.
        for item in [3u64, 4] {
            let p = memo_pipeline(Arc::new(AtomicU64::new(0)));
            let run = p.run(item).unwrap();
            let ((outputs, metrics), snap) = in_registry(|| {
                p.run_batch_streaming(vec![item], &ExecutorConfig::default())
                    .unwrap()
            });
            assert_eq!(outputs, vec![run.output]);
            assert_eq!(metrics.len(), run.stages.len());
            for (m, s) in metrics.iter().zip(&run.stages) {
                assert_eq!(m.name, s.name);
                assert_eq!(m.throughput.records, s.throughput.records);
                assert_eq!(m.throughput.bytes, s.throughput.bytes);
                let base = format!("pipeline.exec-degen.{}", m.name);
                assert_eq!(
                    snap.counters[&format!("{base}.records")],
                    s.throughput.records
                );
                assert_eq!(snap.counters[&format!("{base}.bytes")], s.throughput.bytes);
                assert_eq!(snap.histograms[&format!("{base}.ns")].count, 1);
                assert_eq!(snap.histograms[&format!("{base}.item_ns")].count, 1);
            }
            assert_eq!(metrics[1].throughput.bytes, 8);
        }
    }

    #[test]
    fn fast_path_hits_run_on_more_than_one_thread() {
        use std::sync::{Condvar, Mutex as StdMutex};
        use std::thread::ThreadId;
        // Every item hits. The probe of item 0 holds its worker until a
        // second thread has probed too (bounded, so a single-threaded
        // prober fails the assertion instead of hanging).
        let seen: Arc<(StdMutex<HashSet<ThreadId>>, Condvar)> = Arc::default();
        let probe_seen = seen.clone();
        let p: Pipeline<u64> = Pipeline::builder("exec-threads")
            .stage("memo", S::Transform, |x, _| Ok(x))
            .build()
            .decorate_stage("memo", move |func| {
                let fast = move |x: &mut Item<u64>, c: &mut StageCounters| {
                    let x = *x.get().unwrap();
                    let (threads, arrived) = &*probe_seen;
                    let mut threads = threads.lock().unwrap();
                    threads.insert(std::thread::current().id());
                    arrived.notify_all();
                    if x == 0 {
                        let _second = arrived
                            .wait_timeout_while(threads, Duration::from_secs(5), |t| t.len() < 2)
                            .unwrap();
                    }
                    c.records = 1;
                    FastPath::Hit(Box::new(move || Some(x)))
                };
                (func, Some(Arc::new(fast)))
            });
        let cfg = ExecutorConfig {
            channel_capacity: 2,
            workers_per_stage: 2,
        };
        // Two workers, however many CPUs the host has.
        let (outputs, _) = p
            .stream_on(2, (0..8).collect(), &cfg, &CancelToken::new())
            .unwrap();
        assert_eq!(outputs, (0..8).collect::<Vec<u64>>());
        assert!(
            seen.0.lock().unwrap().len() >= 2,
            "every fast-path probe of the batch ran on one thread"
        );
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

    /// A one-stage pipeline whose stage maps 8 pieces of its item on
    /// `par_map` and folds them in order. `threads` gathers the threads
    /// that ran the stage; `left` counts the items one of whose pieces
    /// ran on another thread.
    fn fan_out_pipeline(
        threads: Arc<parking_lot::Mutex<HashSet<std::thread::ThreadId>>>,
        left: Arc<AtomicU64>,
    ) -> Pipeline<u64> {
        Pipeline::builder("exec-share")
            .stage("fan", S::Transform, move |x: u64, c| {
                let me = std::thread::current().id();
                threads.lock().insert(me);
                let pieces = drai_io::parallel::par_map(0..8u64, |i| {
                    // Order-sensitive, so a fold out of order shows.
                    let piece = ((x * 8 + i) as f64).sqrt() * 1e-3;
                    (piece, std::thread::current().id())
                });
                if pieces.iter().any(|&(_, t)| t != me) {
                    left.fetch_add(1, Ordering::SeqCst);
                }
                c.records = 1;
                let sum = pieces.iter().fold(x as f64, |a, &(p, _)| a + p);
                Ok(sum.to_bits())
            })
            .build()
    }

    #[test]
    fn a_pool_that_covers_the_cpus_maps_each_stage_on_its_worker() {
        let cpus = drai_io::parallel::cpu_count();
        let threads = Arc::new(parking_lot::Mutex::new(HashSet::new()));
        let left = Arc::new(AtomicU64::new(0));
        let p = fan_out_pipeline(threads.clone(), left.clone());
        // Asks for twice as many workers as there are CPUs.
        let cfg = ExecutorConfig {
            channel_capacity: 2,
            workers_per_stage: 2 * cpus,
        };
        let (outputs, _) = p.run_batch_streaming((0..32).collect(), &cfg).unwrap();
        assert_eq!(outputs.len(), 32);
        assert_eq!(
            left.load(Ordering::SeqCst),
            0,
            "a stage's par_map left its worker's thread"
        );
        let workers = threads.lock().len();
        assert!(workers <= cpus, "{workers} workers on {cpus} CPUs");
    }

    #[test]
    fn a_one_item_batch_still_fans_its_stage_out() {
        if drai_io::parallel::cpu_count() < 2 {
            // One CPU: nothing to fan out onto.
            return;
        }
        let left = Arc::new(AtomicU64::new(0));
        let p = fan_out_pipeline(Arc::default(), left.clone());
        p.run_batch_streaming(vec![5], &ExecutorConfig::default())
            .unwrap();
        assert_eq!(
            left.load(Ordering::SeqCst),
            1,
            "the stage's par_map ran inline"
        );
    }

    #[test]
    fn streamed_outputs_equal_run_item_by_item_whatever_the_pool() {
        let p = fan_out_pipeline(Arc::default(), Arc::default());
        let items: Vec<u64> = (0..24).collect();
        let (plain, _) = sequential(&p, &items);
        for (cpus, workers_per_stage) in [(1, 1), (2, 2), (8, 1), (8, 8)] {
            let cfg = ExecutorConfig {
                channel_capacity: 2,
                workers_per_stage,
            };
            let (streamed, _) = p
                .stream_on(cpus, items.clone(), &cfg, &CancelToken::new())
                .unwrap();
            assert_eq!(
                streamed, plain,
                "{cpus} CPUs, {workers_per_stage} per stage"
            );
        }
        let (streamed, _) = p
            .run_batch_streaming(items, &ExecutorConfig::for_host())
            .unwrap();
        assert_eq!(streamed, plain);
    }
}
