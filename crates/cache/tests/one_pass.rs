//! One serialization per cache boundary, counted: a cached stage that
//! hits serializes its input once and nothing else; one that misses
//! serializes its input once and its output once. The probe leaves the
//! input digest in the `StageCounters` it shares with the stage function,
//! so the count rises only where a wrapper hands the function fresh
//! counters — and the key is the same either way.

use drai_cache::clock::LogicalClock;
use drai_cache::{CacheBytes, CachedPipelineExt, StageCache};
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::Pipeline;
use drai_core::readiness::ProcessingStage as S;
use drai_io::sink::MemSink;
use drai_telemetry::{Registry, TraceContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Serializations per test, so tests sharing this process do not share
/// a count.
static WRITES: [AtomicUsize; 3] = [
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
];

/// An artifact that counts every serialization of itself under `TEST`.
#[derive(Debug, Clone, PartialEq)]
struct Counted<const TEST: usize>(Vec<u8>);

impl<const TEST: usize> CacheBytes for Counted<TEST> {
    fn write_cache_bytes(&self, out: &mut Vec<u8>) {
        WRITES[TEST].fetch_add(1, Ordering::SeqCst);
        out.extend_from_slice(&self.0);
    }
    fn from_cache_bytes(data: &[u8]) -> Result<Self, String> {
        Ok(Counted(data.to_vec()))
    }
}

/// Serializations under `TEST` since the last call.
fn writes_since<const TEST: usize>() -> usize {
    WRITES[TEST].swap(0, Ordering::SeqCst)
}

fn cache() -> Arc<StageCache> {
    Arc::new(
        StageCache::new(Arc::new(MemSink::new()), 64 << 20)
            .with_clock(Arc::new(LogicalClock::new())),
    )
}

/// Two cached stages; `wrap` layers whatever the test wants outside.
fn pipeline<const TEST: usize>(
    cache: &Arc<StageCache>,
    wrap: impl FnOnce(Pipeline<Counted<TEST>>) -> Pipeline<Counted<TEST>>,
) -> Pipeline<Counted<TEST>> {
    let p = Pipeline::builder("one-pass")
        .stage("grow", S::Transform, |mut v: Counted<TEST>, c| {
            v.0.push(1);
            c.records = 1;
            Ok(v)
        })
        .stage("flip", S::Transform, |mut v: Counted<TEST>, c| {
            v.0.reverse();
            c.records = 1;
            Ok(v)
        })
        .build()
        .cached("grow", cache.clone(), b"g".to_vec())
        .cached("flip", cache.clone(), b"f".to_vec());
    wrap(p)
}

fn counters(f: impl FnOnce()) -> std::collections::BTreeMap<String, u64> {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(f);
    registry.snapshot().counters
}

#[test]
fn run_serializes_once_per_boundary() {
    const T: usize = 0;
    let cache = cache();
    let p = pipeline::<T>(&cache, |p| p);
    let input = Counted::<T>(vec![9, 8, 7]);
    writes_since::<T>();

    let cold = counters(|| {
        assert_eq!(p.run(input.clone()).unwrap().output.0, [1, 7, 8, 9]);
    });
    assert_eq!(cold["cache.misses"], 2);
    assert_eq!(
        writes_since::<T>(),
        4,
        "a miss serializes its input once and its output once, per stage"
    );

    let warm = counters(|| {
        assert_eq!(p.run(input.clone()).unwrap().output.0, [1, 7, 8, 9]);
    });
    assert_eq!(warm["cache.hits"], 2);
    assert_eq!(warm.get("cache.misses"), None);
    assert_eq!(
        writes_since::<T>(),
        2,
        "a hit serializes its input once and nothing else, per stage"
    );
}

#[test]
fn streaming_serializes_once_per_boundary() {
    const T: usize = 1;
    const ITEMS: usize = 5;
    let cache = cache();
    let p = pipeline::<T>(&cache, |p| p);
    let items: Vec<Counted<T>> = (0..ITEMS).map(|i| Counted(vec![i as u8, 3])).collect();
    let exec = ExecutorConfig::default();
    writes_since::<T>();

    let cold = counters(|| {
        let (out, _) = p.run_batch_streaming(items.clone(), &exec).unwrap();
        assert_eq!(out[2].0, [1, 3, 2]);
    });
    assert_eq!(cold["cache.misses"], 2 * ITEMS as u64);
    assert_eq!(writes_since::<T>(), 4 * ITEMS);

    let warm = counters(|| {
        let (out, _) = p.run_batch_streaming(items.clone(), &exec).unwrap();
        assert_eq!(out[2].0, [1, 3, 2]);
    });
    assert_eq!(warm["cache.hits"], 2 * ITEMS as u64);
    assert_eq!(warm.get("cache.misses"), None);
    assert_eq!(writes_since::<T>(), 2 * ITEMS);
}

#[test]
fn fresh_counters_under_a_retry_wrapper_fall_back_to_the_same_key() {
    const T: usize = 2;
    let cache = cache();
    // `retried` hands the function it wraps counters of its own, so the
    // probe's digest does not reach the store: it digests again.
    let retried = pipeline::<T>(&cache, |p| p.retried("grow", 3));
    let input = Counted::<T>(vec![4, 5]);
    writes_since::<T>();

    let cold = counters(|| {
        assert_eq!(retried.run(input.clone()).unwrap().output.0, [1, 5, 4]);
    });
    assert_eq!(cold["cache.misses"], 2);
    assert_eq!(
        writes_since::<T>(),
        5,
        "grow: probe, fallback digest, output; flip: input, output"
    );

    // Same key as the probe computes: the entry is found, by the
    // retried pipeline and by one without the wrapper.
    for p in [retried, pipeline::<T>(&cache, |p| p)] {
        let warm = counters(|| {
            assert_eq!(p.run(input.clone()).unwrap().output.0, [1, 5, 4]);
        });
        assert_eq!(warm["cache.hits"], 2);
        assert_eq!(warm.get("cache.misses"), None);
        assert_eq!(writes_since::<T>(), 2);
    }
    assert_eq!(cache.tracked_entries(), 2);
}
