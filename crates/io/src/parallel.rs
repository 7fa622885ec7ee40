//! The workspace's one data-parallel map.
//!
//! [`par_map`] is how work inside one stage goes onto threads: every item
//! mapped on scoped threads, results returned in input order. (Items
//! moving *through* stages are the executor's job, jobs across tenants
//! the scheduler's.)
//!
//! Telemetry: the [`TraceContext`] current at the call is captured and
//! attached inside every worker, so metrics land in the same registry as
//! the caller's (private registries included) and spans opened on a
//! worker parent under the calling stage's span regardless of
//! scheduling. [`par_map`] records nothing of its own.

use drai_telemetry::TraceContext;
use std::sync::OnceLock;
use std::thread;

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
