//! The workspace's one owner of the CPU count and of the threads data
//! work runs on.
//!
//! Two primitives put work onto threads, and they hand a **CPU share**
//! down rather than let every layer claim every CPU:
//!
//! * [`pool`] runs `n` long-lived workers beside the caller (the batch
//!   executor's pool); each worker holds a share of
//!   `max(1, share / n)`, where `share` is the caller's.
//! * [`par_map`] maps items inside one stage on scoped threads, results
//!   in input order. It fans out onto at most its thread's share, and
//!   each thread it spawns holds a share of 1, so a `par_map` nested in
//!   a `par_map` item, or one on a pool worker whose share is 1, runs on
//!   the thread that called it.
//!
//! A thread neither of them started (the main thread, a scheduler
//! worker) holds every CPU: [`cpu_share`] is [`cpu_count`] there. The
//! share is thread-local state that only this module sets; there is no
//! option, environment variable or config field for it. (Items moving
//! *through* stages are the executor's job, jobs across tenants the
//! scheduler's.)
//!
//! Telemetry: the [`TraceContext`] current at the call is captured and
//! attached inside every thread either primitive starts, so metrics land
//! in the same registry as the caller's (private registries included)
//! and spans opened on a worker parent under the calling span regardless
//! of scheduling. Neither records anything of its own.

use drai_telemetry::TraceContext;
use std::cell::Cell;
use std::sync::OnceLock;
use std::thread;

thread_local! {
    /// The CPUs this thread may fan out onto: set by [`pool`] on its
    /// workers and by [`par_map`] on its threads, `None` elsewhere.
    static SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// CPUs available to this process, asked for once: every
/// `available_parallelism` call re-reads the affinity mask and the
/// cgroup quota files (microseconds each, and a stage makes several
/// `par_map` calls per item), while the answer is fixed at process start.
pub fn cpu_count() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPUs work started on the calling thread may use: the share a
/// [`pool`] or [`par_map`] handed this thread, or [`cpu_count`] on a
/// thread outside both.
pub fn cpu_share() -> usize {
    SHARE.get().unwrap_or_else(cpu_count)
}

/// Run a clone of `worker` on each of `workers` scoped threads while
/// `caller` runs on the calling thread, and return what `caller`
/// returns once every worker has finished. `worker` itself is dropped
/// before `caller` starts, so whatever it owns (a channel's sender)
/// lives exactly as long as the workers' clones.
///
/// Each worker has the caller's [`TraceContext`] attached and holds a
/// CPU share of `max(1, cpu_share() / workers)`, so the [`par_map`]
/// calls it makes split the caller's CPUs among the workers instead of
/// each fanning out onto all of them. A panic in a worker panics the
/// caller once `caller` has returned.
pub fn pool<W, R>(workers: usize, worker: W, caller: impl FnOnce() -> R) -> R
where
    W: FnOnce() + Send + Clone,
{
    let share = (cpu_share() / workers.max(1)).max(1);
    let context = TraceContext::current();
    thread::scope(|scope| {
        for _ in 0..workers {
            let (worker, context) = (worker.clone(), context.clone());
            scope.spawn(move || {
                SHARE.set(Some(share));
                let _attached = context.as_ref().map(TraceContext::attach);
                worker()
            });
        }
        drop(worker);
        caller()
    })
}

/// Apply `f` to every item on scoped threads and return the results **in
/// input order**: the items are cut into one contiguous chunk per CPU of
/// the calling thread's [`cpu_share`] (at most one per item), each chunk
/// is mapped on its own thread with the caller's [`TraceContext`]
/// attached and a share of 1, and the chunks' results are concatenated.
/// With a share of 1, or at most one item, every item is mapped on the
/// caller.
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
    // No thread is spawned for one item, so the share is not needed.
    let threads = if items.len() <= 1 { 1 } else { cpu_share() };
    par_map_on(threads, items, f)
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
                    SHARE.set(Some(1));
                    let _attached = context.as_ref().map(TraceContext::attach);
                    chunk.into_iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            match parking_lot::blocking(|| handle.join()) {
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
    use drai_telemetry::{Counter, Name, Registry, Span};
    use drai_tensor::stats::Welford;

    #[test]
    fn worker_telemetry_follows_callers_registry() {
        const STAGE: Name<Span> = Name::declare("stage.load");
        const ITEM: Name<Span> = Name::declare("test.par_map.item");
        const ITEMS: Name<Counter> = Name::declare("test.par_map.items");
        let reg = Registry::new();
        let stage_id = {
            let root = TraceContext::root(&reg);
            let _attached = root.attach();
            let stage = reg.span(&STAGE, []);
            let _in_stage = stage.enter();
            // Forced onto 3 threads so the hand-off is exercised on a
            // one-CPU host too.
            par_map_on(3, (0..6u64).collect(), |x| {
                let registry = Registry::current();
                let _item = registry.span(&ITEM, []);
                registry.handle(&ITEMS, []).incr();
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
    fn shares_are_handed_down() {
        // A thread outside any pool holds every CPU.
        assert_eq!(cpu_share(), cpu_count());
        // A `par_map` thread holds one, so a `par_map` inside an item
        // maps on that item's thread.
        let nested = par_map_on(2, vec![0u8, 1], |_| {
            let me = thread::current().id();
            let inner = par_map(0..4u8, |_| thread::current().id());
            (cpu_share(), inner.iter().all(|t| *t == me))
        });
        assert_eq!(nested, [(1, true), (1, true)]);
        // Pool workers split the caller's share, one CPU at least.
        for workers in [1, 2, 3, 8] {
            let shares = parking_lot::Mutex::new(Vec::new());
            let out = pool(workers, || shares.lock().push(cpu_share()), || 7);
            assert_eq!(out, 7);
            let want = (cpu_count() / workers).max(1);
            assert_eq!(
                shares.into_inner(),
                vec![want; workers],
                "{workers} workers"
            );
        }
    }

    #[test]
    fn pool_workers_report_into_the_callers_registry() {
        const STAGE: Name<Span> = Name::declare("stage.pool");
        const WORK: Name<Span> = Name::declare("test.pool.work");
        let reg = Registry::new();
        let stage_id = {
            let root = TraceContext::root(&reg);
            let _attached = root.attach();
            let stage = reg.span(&STAGE, []);
            let _in_stage = stage.enter();
            let (tx, rx) = std::sync::mpsc::channel();
            // The caller's sender goes with `worker`, so the receiving
            // loop ends when the last worker does.
            let worker = move || {
                let _work = Registry::current().span(&WORK, []);
                tx.send(thread::current().id()).unwrap();
            };
            let threads: Vec<_> = pool(3, worker, || rx.iter().collect());
            assert_eq!(threads.len(), 3);
            assert!(!threads.contains(&thread::current().id()));
            stage.id()
        };
        let snap = reg.snapshot();
        let work = snap.spans_named("test.pool.work");
        assert_eq!(work.len(), 3);
        assert!(work.iter().all(|s| s.parent == Some(stage_id)));
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
