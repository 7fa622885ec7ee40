//! Where a derivation id must *not* flow. A cached stage names its
//! output by its key, and the next cached stage is keyed by that name
//! instead of by its input's bytes — sound only while nothing between
//! the two can change the item. Each test here builds a chain in which
//! an id that flowed one stage too far would key a stale entry, and
//! checks the output against the same pipeline run uncached.

use drai_cache::clock::LogicalClock;
use drai_cache::{CacheBytes, CacheKey, CachedPipelineExt, StageCache};
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::readiness::ProcessingStage as S;
use drai_io::sink::MemSink;
use drai_telemetry::{Registry, TraceContext};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn cache() -> Arc<StageCache> {
    Arc::new(
        StageCache::new(Arc::new(MemSink::new()), 64 << 20)
            .with_clock(Arc::new(LogicalClock::new())),
    )
}

fn counters(f: impl FnOnce()) -> BTreeMap<String, u64> {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(f);
    registry.snapshot().counters
}

/// `a` doubles, `b` adds `offset`, `c` multiplies by ten.
fn chain(offset: f64) -> Pipeline<Vec<f64>> {
    Pipeline::builder("chain")
        .stage("a", S::Transform, |v: Vec<f64>, _| {
            Ok(v.into_iter().map(|x| x * 2.0).collect())
        })
        .stage("b", S::Transform, move |v: Vec<f64>, _| {
            Ok(v.into_iter().map(|x| x + offset).collect())
        })
        .stage("c", S::Transform, |v: Vec<f64>, _| {
            Ok(v.into_iter().map(|x| x * 10.0).collect())
        })
        .build()
}

/// Run `p` on `input` alone and through a one-item streaming batch;
/// both must agree.
fn run_both(p: &Pipeline<Vec<f64>>, input: &[f64]) -> Vec<f64> {
    let alone = p.run(input.to_vec()).unwrap().output;
    let (batch, _) = p
        .run_batch_streaming(vec![input.to_vec()], &ExecutorConfig::default())
        .unwrap();
    assert_eq!(batch, std::slice::from_ref(&alone));
    alone
}

/// (a) `b` is not cached and reads a value its pipeline captured but no
/// fingerprint holds, so `b` ends the chain: `c` is keyed by what `b`
/// handed it. Had `a`'s key flowed through `b`, `c` would be keyed the
/// same under both offsets and serve the first offset's output.
#[test]
fn an_uncached_stage_ends_the_chain() {
    let shared = cache();
    let cached = |offset: f64| {
        chain(offset)
            .cached("a", shared.clone(), b"a".to_vec())
            .cached("c", shared.clone(), b"c".to_vec())
    };
    counters(|| {
        assert_eq!(run_both(&cached(1.0), &[1.0, 2.0]), [30.0, 50.0]);
    });
    let changed = counters(|| {
        assert_eq!(
            run_both(&cached(2.0), &[1.0, 2.0]),
            chain(2.0).run(vec![1.0, 2.0]).unwrap().output
        );
    });
    // `a` hits twice (`run` and the batch); `c` misses, then hits.
    assert_eq!(changed["cache.hits"], 3, "{changed:?}");
    assert_eq!(changed["cache.misses"], 1, "{changed:?}");
}

/// (b) A layer put on `a` after its cache decorator changes `a`'s
/// output, so `a` no longer names it and `b` right after it is keyed by
/// what it is handed. (`a`'s caches are fresh per pipeline so the layer
/// runs: a hit of the probe bypasses it.)
#[test]
fn a_later_decorator_ends_the_chain() {
    let shared_b = cache();
    let cached = |shift: f64| {
        chain(0.0)
            .cached("a", cache(), b"a".to_vec())
            .decorate_stage("a", move |func| {
                let shifted = move |v: Vec<f64>, c: &mut StageCounters| {
                    func(v, c).map(|out| out.into_iter().map(|x| x + shift).collect())
                };
                (Arc::new(shifted), None)
            })
            .cached("b", shared_b.clone(), b"b".to_vec())
    };
    let first = cached(1.0).run(vec![1.0]).unwrap().output;
    assert_eq!(first, [30.0]);
    let second = counters(|| {
        assert_eq!(cached(5.0).run(vec![1.0]).unwrap().output, [70.0]);
    });
    assert_eq!(second["cache.misses"], 2, "{second:?}");
    assert_eq!(second.get("cache.hits"), None, "{second:?}");
}

/// (c) `retried` on either side of `cached`: the store of a retried
/// execution lands under the key the probe computed, the chain goes on
/// past it, and a warm run hits every stage.
#[test]
fn retried_on_either_side_stores_under_the_probe_key() {
    for outside in [false, true] {
        let cache = cache();
        let failures = Arc::new(AtomicUsize::new(0));
        let calls = failures.clone();
        let mut flaky = chain(1.0).decorate_stage("b", move |func| {
            // Every first attempt fails.
            let flaky = move |v: Vec<f64>, c: &mut StageCounters| {
                if calls.fetch_add(1, Ordering::SeqCst) % 2 == 0 {
                    return Err("transient".to_string());
                }
                func(v, c)
            };
            (Arc::new(flaky), None)
        });
        if !outside {
            flaky = flaky.retried("b", 3);
        }
        flaky = flaky
            .cached("a", cache.clone(), b"a".to_vec())
            .cached("b", cache.clone(), b"b".to_vec())
            .cached("c", cache.clone(), b"c".to_vec());
        if outside {
            flaky = flaky.retried("b", 3);
        }
        let cold = counters(|| {
            assert_eq!(flaky.run(vec![1.0]).unwrap().output, [30.0]);
        });
        assert_eq!(cold["cache.misses"], 3, "outside {outside}: {cold:?}");
        assert_eq!(failures.load(Ordering::SeqCst), 2, "one failed attempt");
        let key_a = CacheKey::compute("a", &vec![1.0f64].to_cache_bytes(), b"a");
        let key_b = key_a.chained("b", b"b");
        for key in [&key_a, &key_b, &key_b.chained("c", b"c")] {
            assert!(cache.contains(key), "outside {outside}: {key:?} missing");
        }
        let warm = counters(|| {
            assert_eq!(run_both(&flaky, &[1.0]), [30.0]);
        });
        assert_eq!(warm["cache.hits"], 6, "outside {outside}: {warm:?}");
        assert_eq!(warm.get("cache.misses"), None, "outside {outside}");
    }
}

/// The middle of a three-stage chain, with `b`'s hits vetoed while
/// `reject_b` is set and its function calls counted.
struct Chain {
    cache: Arc<StageCache>,
    pipeline: Pipeline<Vec<f64>>,
    reject_b: Arc<AtomicBool>,
    calls: Arc<[AtomicUsize; 3]>,
}

impl Chain {
    fn new() -> Chain {
        let cache = cache();
        let reject_b = Arc::new(AtomicBool::new(false));
        let calls: Arc<[AtomicUsize; 3]> = Arc::default();
        let mut pipeline = chain(1.0);
        for (s, stage) in ["a", "b", "c"].into_iter().enumerate() {
            let calls = calls.clone();
            pipeline = pipeline.decorate_stage(stage, move |func| {
                let counted = move |v: Vec<f64>, c: &mut StageCounters| {
                    calls[s].fetch_add(1, Ordering::SeqCst);
                    func(v, c)
                };
                (Arc::new(counted), None)
            });
        }
        let veto = reject_b.clone();
        let pipeline = pipeline
            .cached("a", cache.clone(), b"a".to_vec())
            .cached_with_check("b", cache.clone(), b"b".to_vec(), move |_| {
                !veto.load(Ordering::SeqCst)
            })
            .cached("c", cache.clone(), b"c".to_vec());
        Chain {
            cache,
            pipeline,
            reject_b,
            calls,
        }
    }

    fn key_b(&self) -> CacheKey {
        CacheKey::compute("a", &vec![1.0f64, 2.0].to_cache_bytes(), b"a").chained("b", b"b")
    }

    fn entries(&self) -> Vec<String> {
        let mut names = self.cache.sink().list().unwrap();
        names.retain(|n| !n.starts_with("cache/quarantine/"));
        names.sort();
        names
    }

    /// Function calls per stage since the last call.
    fn calls(&self) -> [usize; 3] {
        self.calls.each_ref().map(|n| n.swap(0, Ordering::SeqCst))
    }

    fn run(&self) -> BTreeMap<String, u64> {
        counters(|| {
            assert_eq!(
                self.pipeline.run(vec![1.0, 2.0]).unwrap().output,
                [30.0, 50.0]
            );
        })
    }
}

/// (d) An entry in the middle of a chain that is quarantined, refused
/// by the decoder or vetoed by the check is recomputed under the same
/// key: `b` runs again and stores, `c` downstream is keyed as before
/// and hits, no entry appears or goes, and the next run hits all three.
#[test]
fn a_rejected_entry_mid_chain_recomputes_under_the_same_keys() {
    type Spoil = fn(&Chain);
    let spoilers: [(&str, Spoil); 3] = [
        ("quarantined", |chain| {
            let blob = chain.key_b().blob_name();
            let mut raw = chain.cache.sink().read_file(&blob).unwrap();
            let last = raw.len() - 1;
            raw[last] ^= 0x40;
            chain.cache.sink().write_file(&blob, &raw).unwrap();
        }),
        ("refused by the decoder", |chain| {
            // A verified entry whose payload is no `Vec<f64>`.
            chain.cache.put(&chain.key_b(), b"abc", 2, 16).unwrap();
        }),
        ("vetoed by the check", |chain| {
            chain.reject_b.store(true, Ordering::SeqCst);
        }),
    ];
    for (how, spoil) in spoilers {
        let chain = Chain::new();
        chain.run();
        assert_eq!(chain.calls(), [1, 1, 1], "{how}: cold");
        let stored = chain.entries();
        assert_eq!(stored.len(), 3, "{how}");
        assert!(stored.contains(&chain.key_b().blob_name()), "{how}");

        spoil(&chain);
        chain.run();
        chain.reject_b.store(false, Ordering::SeqCst);
        assert_eq!(chain.calls(), [0, 1, 0], "{how}: only b recomputes");
        assert_eq!(chain.entries(), stored, "{how}: keys moved");

        let warm = chain.run();
        assert_eq!(chain.calls(), [0, 0, 0], "{how}: warm");
        assert_eq!(warm["cache.hits"], 3, "{how}: {warm:?}");
        assert_eq!(warm.get("cache.misses"), None, "{how}");
    }
}
