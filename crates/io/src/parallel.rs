//! Parallel ingestion utilities: bounded prefetching with order
//! preservation, and the workspace's one data-parallel map.
//!
//! GPU-bound training loops starve when preprocessing or storage cannot keep
//! up; the standard HPC remedy (and the paper's "optimized high-throughput
//! ingestion", Table 2 level 4) is a small pool of reader threads feeding a
//! bounded queue ahead of the consumer. [`prefetch_map`] implements that
//! with crossbeam channels while preserving input order, which samplers
//! downstream rely on for reproducible epochs. [`par_map`] is the eager
//! counterpart for work inside one stage: every item mapped on scoped
//! threads, results returned in input order.
//!
//! Telemetry: both functions report into the *caller's* registry — the
//! [`TraceContext`] current at the call is captured and attached inside
//! every worker, so metrics land in the same registry as the caller's
//! (private registries included) and spans opened on a worker parent under
//! the calling stage's span regardless of scheduling. [`prefetch_map`]
//! adds one `io.prefetch.worker` span per worker and the metrics
//! `io.prefetch.items` (completed items), `io.prefetch.work_ns` (per-item
//! execution latency, measured on the worker), `io.prefetch.wait_ns` (time
//! the consumer blocked waiting for the next in-order item), and the
//! `io.prefetch.reorder_depth` gauge (reorder-buffer high-water mark);
//! [`par_map`] records nothing of its own.

use crossbeam::channel::{bounded, Receiver};
use drai_telemetry::{Counter, Gauge, Histogram, Registry, Stopwatch, TraceContext};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};
use std::thread;

/// Apply `f` to each item on `workers` background threads, yielding results
/// **in input order** through a queue holding at most `queue_cap` completed
/// items per worker.
///
/// `f` runs concurrently; the returned iterator blocks until the next
/// in-order result is available. Panics in `f` propagate to the consumer.
pub fn prefetch_map<T, U, F>(
    items: Vec<T>,
    workers: usize,
    queue_cap: usize,
    f: F,
) -> PrefetchIter<U>
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(T) -> U + Send + Sync + 'static,
{
    let workers = workers.max(1);
    let queue_cap = queue_cap.max(1);
    let total = items.len();
    let (work_tx, work_rx) = bounded::<(usize, T)>(workers * 2);
    let (done_tx, done_rx) = bounded::<(usize, thread::Result<U>)>(workers * queue_cap);

    // Capture the caller's trace context at closure-creation time and
    // resolve metric handles from *its* registry (falling back to the
    // global one), so the per-item path is atomics only and worker
    // telemetry follows the caller — not a hard-wired global.
    let context = TraceContext::current();
    let registry = Registry::current();
    let work_hist = registry.histogram("io.prefetch.work_ns");

    // Feeder thread: enumerate work items.
    let feeder = thread::spawn(move || {
        for pair in items.into_iter().enumerate() {
            if work_tx.send(pair).is_err() {
                break; // consumers dropped
            }
        }
    });

    let f = std::sync::Arc::new(f);
    let mut pool = Vec::with_capacity(workers);
    for _ in 0..workers {
        let work_rx = work_rx.clone();
        let done_tx = done_tx.clone();
        let f = f.clone();
        let work_hist = work_hist.clone();
        let context = context.clone();
        let registry = registry.clone();
        pool.push(thread::spawn(move || {
            // Attach the captured context for the worker's lifetime: one
            // `io.prefetch.worker` span per worker thread, deterministically
            // parented under the span the caller had entered.
            let _attached = context.as_ref().map(TraceContext::attach);
            let worker_span = registry.span("io.prefetch.worker");
            let _in_worker = worker_span.enter();
            while let Ok((idx, item)) = work_rx.recv() {
                let start = Stopwatch::start();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
                work_hist.record(start.elapsed_ns());
                worker_span.add_items(1);
                if done_tx.send((idx, result)).is_err() {
                    break;
                }
            }
        }));
    }
    drop(done_tx);
    drop(work_rx);

    PrefetchIter {
        rx: Some(done_rx),
        next_index: 0,
        total,
        pending: BinaryHeap::new(),
        threads: Some((feeder, pool)),
        items_counter: registry.counter("io.prefetch.items"),
        wait_hist: registry.histogram("io.prefetch.wait_ns"),
        depth_gauge: registry.gauge("io.prefetch.reorder_depth"),
    }
}

/// Order-restoring iterator returned by [`prefetch_map`].
pub struct PrefetchIter<U> {
    rx: Option<Receiver<(usize, thread::Result<U>)>>,
    next_index: usize,
    total: usize,
    pending: BinaryHeap<Reverse<HeapEntry<U>>>,
    threads: Option<(thread::JoinHandle<()>, Vec<thread::JoinHandle<()>>)>,
    items_counter: Arc<Counter>,
    wait_hist: Arc<Histogram>,
    depth_gauge: Arc<Gauge>,
}

struct HeapEntry<U> {
    index: usize,
    value: thread::Result<U>,
}

impl<U> PartialEq for HeapEntry<U> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl<U> Eq for HeapEntry<U> {}
impl<U> PartialOrd for HeapEntry<U> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<U> Ord for HeapEntry<U> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.index.cmp(&other.index)
    }
}

impl<U> Iterator for PrefetchIter<U> {
    type Item = U;

    fn next(&mut self) -> Option<U> {
        if self.next_index >= self.total {
            self.join();
            return None;
        }
        let wait_start = Stopwatch::start();
        loop {
            // Serve from the reorder buffer when the next index is ready.
            let head_ready = self
                .pending
                .peek()
                .is_some_and(|Reverse(top)| top.index == self.next_index);
            if head_ready {
                if let Some(Reverse(entry)) = self.pending.pop() {
                    self.next_index += 1;
                    self.wait_hist.record(wait_start.elapsed_ns());
                    match entry.value {
                        Ok(v) => {
                            self.items_counter.incr();
                            return Some(v);
                        }
                        Err(panic) => {
                            self.join();
                            std::panic::resume_unwind(panic)
                        }
                    }
                }
            }
            let recv = self
                .rx
                .as_ref()
                .map(|rx| rx.recv())
                .unwrap_or(Err(crossbeam::channel::RecvError));
            match recv {
                Ok((index, value)) => {
                    self.pending.push(Reverse(HeapEntry { index, value }));
                    self.depth_gauge.set(self.pending.len() as i64);
                }
                Err(_) => {
                    // Workers gone with items missing: a worker panicked
                    // between recv and send, or state is inconsistent.
                    self.join();
                    // drai-lint: allow(no-panic-in-lib) reason="documented contract: prefetch_map propagates worker panics to the caller; there is no value to return here"
                    panic!("prefetch workers terminated early");
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next_index;
        (remaining, Some(remaining))
    }
}

impl<U> PrefetchIter<U> {
    /// Drop the result receiver *first* so workers blocked on a full
    /// results queue error out of `send` and exit, then join everything.
    fn join(&mut self) {
        self.rx = None;
        if let Some((feeder, pool)) = self.threads.take() {
            let _ = feeder.join();
            for t in pool {
                let _ = t.join();
            }
        }
    }
}

impl<U> Drop for PrefetchIter<U> {
    fn drop(&mut self) {
        self.join();
    }
}

/// Apply `f` to every item on scoped threads and return the results **in
/// input order**: the items are cut into one contiguous chunk per
/// available CPU, each chunk is mapped on its own thread with the caller's
/// [`TraceContext`] attached, and the chunks' results are concatenated.
///
/// The thread count decides only *where* each `f(item)` runs, never what
/// it is given, so the result is a function of `items` and `f` alone. A
/// reduction that must be reproducible across hosts maps its pieces here
/// and folds the returned `Vec` in order on the caller. A panic in `f`
/// is re-raised on the caller.
pub fn par_map<I, U, F>(items: I, f: F) -> Vec<U>
where
    I: IntoIterator,
    I::Item: Send,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    // No thread is spawned for one item, so the count is not needed.
    let threads = if items.len() <= 1 { 1 } else { cpu_count() };
    par_map_on(threads, items, f)
}

/// CPUs available to this process, asked for once: every
/// `available_parallelism` call re-reads the affinity mask and the
/// cgroup quota files (microseconds each, and a stage makes several
/// `par_map` calls per item), while the answer is fixed at process start.
fn cpu_count() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`par_map`] on at most `threads` threads (the test seam).
fn par_map_on<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = len.div_ceil(threads);
    let context = TraceContext::current();
    let mut items = items.into_iter();
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..len.div_ceil(chunk_len))
            .map(|_| {
                let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
                let context = context.clone();
                scope.spawn(move || {
                    let _attached = context.as_ref().map(TraceContext::attach);
                    chunk.into_iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_tensor::stats::Welford;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let out: Vec<u64> = prefetch_map(items.clone(), 8, 4, |x| {
            // Jittered work so completion order differs from input order.
            std::thread::sleep(std::time::Duration::from_micros((x * 37) % 300));
            x * 2
        })
        .collect();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = prefetch_map(Vec::<u32>::new(), 4, 2, |x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_behaves() {
        let out: Vec<usize> = prefetch_map(vec![5, 6, 7], 1, 1, |x| x + 1).collect();
        assert_eq!(out, vec![6, 7, 8]);
    }

    #[test]
    fn actually_parallel() {
        // With 4 workers, 4 items that each sleep 50ms should finish well
        // under 200ms of wall time.
        let start = std::time::Instant::now();
        let out: Vec<u8> = prefetch_map(vec![0u8; 4], 4, 4, |x| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            x
        })
        .collect();
        assert_eq!(out.len(), 4);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(190),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn early_drop_does_not_hang() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        {
            let mut it = prefetch_map((0..1000).collect::<Vec<u64>>(), 4, 2, move |x| {
                c2.fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(it.next(), Some(0));
            // Drop with 999 items unconsumed.
        }
        // Workers stopped before processing everything (bounded queues).
        assert!(counter.load(Ordering::Relaxed) <= 1000);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _: Vec<u32> = prefetch_map(vec![1u32, 2, 3], 2, 2, |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        })
        .collect();
    }

    #[test]
    fn worker_telemetry_follows_callers_registry() {
        let reg = Registry::new();
        let stage_id = {
            let root = TraceContext::root(&reg);
            let _attached = root.attach();
            let stage = reg.span("stage.load");
            let _in_stage = stage.enter();
            let out: Vec<u64> = prefetch_map((0..50u64).collect(), 3, 2, |x| x + 1).collect();
            assert_eq!(out.len(), 50);
            // Forced onto 3 threads so the hand-off is exercised on a
            // one-CPU host too.
            par_map_on(3, (0..6u64).collect(), |x| {
                let registry = Registry::current();
                let _item = registry.span("test.par_map.item");
                registry.counter("test.par_map.items").incr();
                x
            });
            stage.id()
        };
        let snap = reg.snapshot();
        assert_eq!(snap.counters["test.par_map.items"], 6);
        let items = snap.spans_named("test.par_map.item");
        assert_eq!(items.len(), 6);
        for item in items {
            assert_eq!(item.parent, Some(stage_id), "par_map span not under stage");
        }
        // Worker metrics landed in the private registry, not the global.
        assert_eq!(snap.counters["io.prefetch.items"], 50);
        assert!(snap.histograms["io.prefetch.work_ns"].count >= 50);
        // One span per worker, each parented under the calling stage.
        let workers = snap.spans_named("io.prefetch.worker");
        assert_eq!(workers.len(), 3);
        assert_eq!(workers.iter().map(|w| w.items).sum::<u64>(), 50);
        for w in workers {
            assert_eq!(w.parent, Some(stage_id), "worker span not under stage");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = par_map_on(8, items.clone(), |x| {
            // Jittered work so completion order differs from input order.
            std::thread::sleep(std::time::Duration::from_micros((x * 37) % 300));
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // The public entry point takes any iterator and borrows freely.
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(out, doubled);
        // Chunk tiling: empty, single, and lengths below, at and just past
        // the thread count.
        for threads in 1..=9 {
            for len in 0..=20u32 {
                let out = par_map_on(threads, (0..len).collect(), |x| x + 1);
                assert_eq!(out, (1..=len).collect::<Vec<_>>(), "{threads}x{len}");
            }
        }
    }

    #[test]
    fn par_map_of_at_most_one_item_stays_on_the_caller() {
        let caller = thread::current().id();
        assert!(par_map(Vec::<u8>::new(), |x| x).is_empty());
        assert_eq!(
            par_map([5u8], |x| (x, thread::current().id())),
            [(5, caller)]
        );
        // The count is read once and is what the host reports.
        assert_eq!(cpu_count(), cpu_count());
        assert_eq!(
            cpu_count(),
            thread::available_parallelism().map_or(1, |n| n.get())
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn par_map_panic_in_last_item_propagates() {
        par_map_on(3, (0..37u32).collect(), |x| {
            if x == 36 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn in_order_fold_is_independent_of_thread_count() {
        let data: Vec<f64> = (0..11 * 97)
            .map(|i| (((i * 7919) % 1009) as f64).sqrt() * (1 + i / 97) as f64)
            .collect();
        let moments = |threads| {
            par_map_on(threads, data.chunks(97).collect(), |chunk: &[f64]| {
                let mut w = Welford::new();
                w.extend(chunk);
                w
            })
        };
        let in_order = |parts: &[Welford]| parts.iter().fold(Welford::new(), |a, w| a.merge(w));
        let bits = |w: Welford| (w.mean().to_bits(), w.variance().to_bits());
        let expect = bits(in_order(&moments(1)));
        for threads in [2, 3, 8] {
            assert_eq!(
                bits(in_order(&moments(threads))),
                expect,
                "threads={threads}"
            );
        }
        // The data can tell the difference: folding one group per thread
        // and then the groups, as a per-thread reduce does, moves bits.
        let groups: Vec<Welford> = moments(1).chunks(6).map(in_order).collect();
        assert_ne!(bits(in_order(&groups)), expect);
    }
}
