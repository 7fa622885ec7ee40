//! One pass per cached byte, counted. The first cached stage of a chain
//! digests its input where it lies: the input's description runs twice,
//! once counted (the hash starts from the length) and once fed to the
//! hash, and none of its bytes is written anywhere. Every later cached
//! stage is keyed by its predecessor's key and reads nothing of its
//! input. Misses serialize their output once, to store it. Hits
//! serialize nothing, and an output is decoded only when something
//! needs it: a chain that hits at every stage decodes its last output
//! and no other. The counts hold on `run`, on `run_batch_streaming` and
//! with `.retried` stacked on either side of `.cached`, cold and warm —
//! and the keys are the same every way.

use drai_cache::bytes::ByteWriter;
use drai_cache::{CacheBytes, CachedPipelineExt, StageCache};
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::Pipeline;
use drai_core::readiness::ProcessingStage as S;
use drai_io::sink::MemSink;
use drai_telemetry::clock::LogicalClock;
use drai_telemetry::{Registry, TraceContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The chain, in order. An artifact remembers which of them produced it
/// (0: none, the chain's input).
const STAGES: [&str; 3] = ["regrid", "normalize", "shard"];

/// Descriptions and decodes per test and per producing stage, so tests
/// sharing this process do not share a count.
static WRITES: [[AtomicUsize; 4]; 5] = [const { [const { AtomicUsize::new(0) }; 4] }; 5];
static DECODES: [[AtomicUsize; 4]; 5] = [const { [const { AtomicUsize::new(0) }; 4] }; 5];

/// An artifact that counts every description and every decode of itself
/// under `TEST`, by the stage that produced it.
#[derive(Debug, Clone, PartialEq)]
struct Counted<const TEST: usize> {
    produced_by: usize,
    data: Vec<u8>,
}

impl<const TEST: usize> CacheBytes for Counted<TEST> {
    fn write_cache_bytes(&self, w: &mut ByteWriter) {
        WRITES[TEST][self.produced_by].fetch_add(1, Ordering::SeqCst);
        w.put_u8(self.produced_by as u8);
        w.put_raw(&self.data);
    }
    fn from_cache_bytes(data: &[u8]) -> Result<Self, String> {
        let (&produced_by, data) = data.split_first().ok_or("empty")?;
        DECODES[TEST][usize::from(produced_by)].fetch_add(1, Ordering::SeqCst);
        Ok(Counted {
            produced_by: usize::from(produced_by),
            data: data.to_vec(),
        })
    }
}

/// Descriptions and decodes under `TEST` since the last call: of the
/// chain's input, then of each stage's output.
fn passes_since<const TEST: usize>() -> ([usize; 4], [usize; 4]) {
    let since = |counts: &[AtomicUsize; 4]| counts.each_ref().map(|n| n.swap(0, Ordering::SeqCst));
    (since(&WRITES[TEST]), since(&DECODES[TEST]))
}

/// What a miss at every stage describes: the chain's input twice, to
/// count and to digest it for the first stage's key, and every output
/// once, to store it. It decodes nothing.
const COLD: ([usize; 4], [usize; 4]) = ([2, 1, 1, 1], [0; 4]);
/// What a hit at every stage describes — the chain's input, to key the
/// first stage — and decodes: the last stage's output, which the run
/// returns.
const WARM: ([usize; 4], [usize; 4]) = ([2, 0, 0, 0], [0, 0, 0, 1]);

/// `n` items' worth of `per_item`.
fn times(n: usize, per_item: ([usize; 4], [usize; 4])) -> ([usize; 4], [usize; 4]) {
    (per_item.0.map(|c| c * n), per_item.1.map(|c| c * n))
}

fn cache() -> Arc<StageCache> {
    Arc::new(
        StageCache::new(Arc::new(MemSink::new()), 64 << 20)
            .with_clock(Arc::new(LogicalClock::new())),
    )
}

fn input<const TEST: usize>(seed: u8) -> Counted<TEST> {
    Counted {
        produced_by: 0,
        data: vec![seed, 8, 7],
    }
}

/// Where a test stacks `.retried` on each stage, relative to `.cached`.
#[derive(Clone, Copy)]
enum Retry {
    Nowhere,
    Inside,
    Outside,
}

/// The three-stage chain, every stage cached.
fn pipeline<const TEST: usize>(cache: &Arc<StageCache>, retry: Retry) -> Pipeline<Counted<TEST>> {
    let mut builder = Pipeline::builder("one-pass");
    for (s, name) in STAGES.iter().enumerate() {
        let config = [("step", s.to_string())];
        builder = builder.configured_stage(
            name,
            S::Transform,
            config,
            move |mut v: Counted<TEST>, c| {
                v.produced_by = s + 1;
                v.data.push(s as u8);
                c.records = 1;
                Ok(v)
            },
        );
    }
    let mut p = builder.build();
    for name in STAGES {
        if let Retry::Inside = retry {
            p = p.retried(name, 3);
        }
        p = p.cached(name, cache.clone());
        if let Retry::Outside = retry {
            p = p.retried(name, 3);
        }
    }
    p
}

fn counters(f: impl FnOnce()) -> std::collections::BTreeMap<String, u64> {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(f);
    registry.snapshot().counters
}

#[test]
fn run_serializes_once_per_chain() {
    const T: usize = 0;
    let cache = cache();
    let p = pipeline::<T>(&cache, Retry::Nowhere);
    passes_since::<T>();

    let cold = counters(|| {
        assert_eq!(p.run(input(9)).unwrap().output.data, [9, 8, 7, 0, 1, 2]);
    });
    assert_eq!(cold["cache.misses"], 3);
    assert_eq!(
        passes_since::<T>(),
        COLD,
        "a cold chain digests its input and stores each output once"
    );

    let warm = counters(|| {
        assert_eq!(p.run(input(9)).unwrap().output.data, [9, 8, 7, 0, 1, 2]);
    });
    assert_eq!(warm["cache.hits"], 3);
    assert_eq!(warm.get("cache.misses"), None);
    assert_eq!(
        passes_since::<T>(),
        WARM,
        "a warm chain digests its input and decodes its last output only"
    );
}

#[test]
fn streaming_serializes_once_per_chain() {
    const T: usize = 1;
    const ITEMS: usize = 5;
    let cache = cache();
    let p = pipeline::<T>(&cache, Retry::Nowhere);
    let items: Vec<Counted<T>> = (0..ITEMS).map(|i| input(i as u8)).collect();
    let exec = ExecutorConfig::default();
    passes_since::<T>();

    let cold = counters(|| {
        let (out, _) = p.run_batch_streaming(items.clone(), &exec).unwrap();
        assert_eq!(out[2].data, [2, 8, 7, 0, 1, 2]);
    });
    assert_eq!(cold["cache.misses"], 3 * ITEMS as u64);
    assert_eq!(passes_since::<T>(), times(ITEMS, COLD));

    let warm = counters(|| {
        let (out, _) = p.run_batch_streaming(items.clone(), &exec).unwrap();
        assert_eq!(out[2].data, [2, 8, 7, 0, 1, 2]);
    });
    assert_eq!(warm["cache.hits"], 3 * ITEMS as u64);
    assert_eq!(warm.get("cache.misses"), None);
    assert_eq!(passes_since::<T>(), times(ITEMS, WARM));
}

#[test]
fn retried_on_either_side_of_cached_keeps_the_chain_and_its_keys() {
    const T: usize = 2;
    let cache = cache();
    // `retried` outside `cached` hands every attempt the id the probe
    // keyed by; inside, the decorator is outermost and keys its store
    // before the retry loop runs. Either way the chain goes on.
    let outside = pipeline::<T>(&cache, Retry::Outside);
    let inside = pipeline::<T>(&cache, Retry::Inside);
    passes_since::<T>();

    let cold = counters(|| {
        assert_eq!(
            outside.run(input(4)).unwrap().output.data,
            [4, 8, 7, 0, 1, 2]
        );
    });
    assert_eq!(cold["cache.misses"], 3);
    assert_eq!(passes_since::<T>(), COLD);

    // Same keys as the probes compute: the entries are found by both
    // retried pipelines and by one without the wrapper, on `run` and
    // streaming alike.
    for p in [&outside, &inside, &pipeline::<T>(&cache, Retry::Nowhere)] {
        let warm = counters(|| {
            assert_eq!(p.run(input(4)).unwrap().output.data, [4, 8, 7, 0, 1, 2]);
            let (out, _) = p
                .run_batch_streaming(vec![input(4)], &ExecutorConfig::default())
                .unwrap();
            assert_eq!(out[0].data, [4, 8, 7, 0, 1, 2]);
        });
        assert_eq!(warm["cache.hits"], 6);
        assert_eq!(warm.get("cache.misses"), None);
        assert_eq!(passes_since::<T>(), times(2, WARM));
    }
    assert_eq!(cache.tracked_entries(), 3);

    // Cold under `retried` inside `cached`, on a cache of its own.
    let cache = self::cache();
    let inside = pipeline::<T>(&cache, Retry::Inside);
    passes_since::<T>();
    counters(|| {
        inside.run(input(4)).unwrap();
    });
    assert_eq!(passes_since::<T>(), COLD);
    assert_eq!(cache.tracked_entries(), 3);
}

/// Stage functions actually run under `retried`, once per attempt: a
/// flaky first attempt does not change the key the store uses.
#[test]
fn a_failed_attempt_under_retried_stores_under_the_probe_key() {
    const T: usize = 3;
    let cache = cache();
    let fails = Arc::new(AtomicUsize::new(1));
    let flaky = {
        let fails = fails.clone();
        Pipeline::builder("one-pass-flaky")
            .stage("regrid", S::Transform, |v: Counted<T>, _| Ok(v))
            .stage("normalize", S::Transform, move |mut v: Counted<T>, _| {
                if fails
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err("transient".to_string());
                }
                v.produced_by = 2;
                Ok(v)
            })
            .build()
            .cached("regrid", cache.clone())
            .cached("normalize", cache.clone())
            .retried("normalize", 2)
    };
    counters(|| {
        flaky.run(input(1)).unwrap();
    });
    assert_eq!(fails.load(Ordering::SeqCst), 0, "the first attempt failed");
    let warm = counters(|| {
        flaky.run(input(1)).unwrap();
    });
    assert_eq!(warm["cache.hits"], 2);
    assert_eq!(warm.get("cache.misses"), None);
}

/// A chain that hits at `regrid` and `normalize` and misses at `shard`
/// (its entry deleted) decodes `normalize`'s output once, for the shard
/// function, and `regrid`'s never; it stores the shard output again,
/// and its output is the cold run's.
#[test]
fn a_miss_at_the_end_decodes_the_hit_before_it_once() {
    const T: usize = 4;
    let cache = cache();
    let p = pipeline::<T>(&cache, Retry::Nowhere);
    let cold = p.run(input(5)).unwrap().output;
    let shard_entry = |cache: &StageCache| {
        let names = cache.sink().list().unwrap();
        names.into_iter().find(|n| n.starts_with("cache/shard/"))
    };
    let stored = shard_entry(&cache).expect("the cold run stored shard's entry");
    for streaming in [false, true] {
        cache.sink().delete(&stored).unwrap();
        passes_since::<T>();
        let warm = counters(|| {
            let output = if streaming {
                let exec = ExecutorConfig::default();
                p.run_batch_streaming(vec![input(5)], &exec)
                    .unwrap()
                    .0
                    .remove(0)
            } else {
                p.run(input(5)).unwrap().output
            };
            assert_eq!(output, cold, "streaming {streaming}");
        });
        assert_eq!(warm["cache.hits"], 2, "streaming {streaming}: {warm:?}");
        assert_eq!(warm["cache.misses"], 1, "streaming {streaming}: {warm:?}");
        assert_eq!(
            passes_since::<T>(),
            ([2, 0, 0, 1], [0, 0, 1, 0]),
            "streaming {streaming}: the input digested, normalize's hit decoded, shard's output stored"
        );
        assert_eq!(
            shard_entry(&cache),
            Some(stored.clone()),
            "streaming {streaming}"
        );
    }
}
