//! How a derivation id flows through a chain of cached and uncached
//! stages. drai-core names every stage output by its input's id, the
//! stage and the configuration the stage declares; a cached stage is
//! keyed by that name instead of by its input's bytes — sound while every
//! stage declares what it reads. Each test builds a chain in which a
//! wrongly flowing id would key a stale entry, and checks the output
//! against the same pipeline run uncached.

use drai_cache::{CacheBytes, CacheKey, CachedPipelineExt, StageCache};
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::readiness::ProcessingStage as S;
use drai_io::sink::MemSink;
use drai_telemetry::clock::LogicalClock;
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

/// `a` doubles, `b` adds `offset` (and declares it), `c` multiplies by
/// ten.
fn chain(offset: f64) -> Pipeline<Vec<f64>> {
    Pipeline::builder("chain")
        .stage("a", S::Transform, |v: Vec<f64>, _| {
            Ok(v.into_iter().map(|x| x * 2.0).collect())
        })
        .configured_stage(
            "b",
            S::Transform,
            [("offset", offset.to_string())],
            move |v: Vec<f64>, _| Ok(v.into_iter().map(|x| x + offset).collect()),
        )
        .stage("c", S::Transform, |v: Vec<f64>, _| {
            Ok(v.into_iter().map(|x| x * 10.0).collect())
        })
        .build()
}

/// The key of cached stage `a` over `input` in `p`.
fn key_a(p: &Pipeline<Vec<f64>>, input: &[f64]) -> CacheKey {
    let fp = p.fingerprint("a").unwrap();
    CacheKey::compute("a", &input.to_vec().to_cache_bytes(), fp)
}

/// The key `stage` of `p` has when it runs right after `key`'s stage,
/// cached or not: every stage passes the id on.
fn chained(key: &CacheKey, p: &Pipeline<Vec<f64>>, stage: &str) -> CacheKey {
    key.chained(stage, p.fingerprint(stage).unwrap())
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

/// (a) `b` is not cached, and declares the offset it reads, so the id
/// flows through it: `c` is keyed by `a`'s output, `b` and its offset,
/// without reading its input. Had `b` not declared its offset, `c` would
/// be keyed the same under both offsets and serve the first offset's
/// output.
#[test]
fn an_uncached_stage_passes_the_id_on_through_its_declaration() {
    let shared = cache();
    let cached = |offset: f64| {
        chain(offset)
            .cached("a", shared.clone())
            .cached("c", shared.clone())
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
    // `c`'s entries are keyed through `b`, one per offset.
    for offset in [1.0, 2.0] {
        let p = cached(offset);
        let key_c = chained(&chained(&key_a(&p, &[1.0, 2.0]), &p, "b"), &p, "c");
        assert!(shared.contains(&key_c), "offset {offset}: {key_c:?}");
    }
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
            .cached("a", cache.clone())
            .cached("b", cache.clone())
            .cached("c", cache.clone());
        if outside {
            flaky = flaky.retried("b", 3);
        }
        let cold = counters(|| {
            assert_eq!(flaky.run(vec![1.0]).unwrap().output, [30.0]);
        });
        assert_eq!(cold["cache.misses"], 3, "outside {outside}: {cold:?}");
        assert_eq!(failures.load(Ordering::SeqCst), 2, "one failed attempt");
        let key_a = key_a(&flaky, &[1.0]);
        let key_b = chained(&key_a, &flaky, "b");
        for key in [&key_a, &key_b, &chained(&key_b, &flaky, "c")] {
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
            .cached("a", cache.clone())
            .cached_with_check("b", cache.clone(), move |_| !veto.load(Ordering::SeqCst))
            .cached("c", cache.clone());
        Chain {
            cache,
            pipeline,
            reject_b,
            calls,
        }
    }

    fn key_b(&self) -> CacheKey {
        chained(&key_a(&self.pipeline, &[1.0, 2.0]), &self.pipeline, "b")
    }

    fn key_c(&self) -> CacheKey {
        chained(&self.key_b(), &self.pipeline, "c")
    }

    /// Plant a verified entry under `key` whose report decodes and whose
    /// output is no `Vec<f64>`.
    fn plant_undecodable(&self, key: &CacheKey) {
        let no_report = [0u8; 16];
        let payload = [&no_report[..], b"abc"].concat();
        self.cache.put(key, &payload, 2, 16).unwrap();
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

/// (d) An entry in a chain that is quarantined, vetoed by the check or
/// refused by the decoder is recomputed under the same key, no entry
/// appears or goes, and the next run hits all three. A quarantined or
/// vetoed `b` runs again at once and `c` downstream is keyed as before
/// and hits. An output the decoder refuses is found out only when it is
/// needed: `c`'s at the chain's end, which recomputes `c` from `b`'s
/// output (decoded then); `b`'s only when `c` must be recomputed too —
/// a `b` whose output nothing reads is never decoded.
#[test]
fn a_rejected_entry_mid_chain_recomputes_under_the_same_keys() {
    type Spoil = fn(&Chain);
    let spoilers: [(&str, Spoil, [usize; 3]); 4] = [
        (
            "quarantined",
            |chain| {
                let blob = chain.key_b().blob_name();
                let mut raw = chain.cache.sink().read_file(&blob).unwrap().to_vec();
                let last = raw.len() - 1;
                raw[last] ^= 0x40;
                chain.cache.sink().write_file(&blob, &raw).unwrap();
            },
            [0, 1, 0],
        ),
        (
            "vetoed by the check",
            |chain| chain.reject_b.store(true, Ordering::SeqCst),
            [0, 1, 0],
        ),
        (
            "refused by the decoder at the last stage",
            |chain| chain.plant_undecodable(&chain.key_c()),
            [0, 0, 1],
        ),
        (
            "refused by the decoder at b and at c",
            |chain| {
                chain.plant_undecodable(&chain.key_b());
                chain.plant_undecodable(&chain.key_c());
            },
            [0, 1, 1],
        ),
    ];
    for (how, spoil, recomputed) in spoilers {
        let chain = Chain::new();
        chain.run();
        assert_eq!(chain.calls(), [1, 1, 1], "{how}: cold");
        let stored = chain.entries();
        assert_eq!(stored.len(), 3, "{how}");
        assert!(stored.contains(&chain.key_b().blob_name()), "{how}");

        spoil(&chain);
        chain.run();
        chain.reject_b.store(false, Ordering::SeqCst);
        assert_eq!(chain.calls(), recomputed, "{how}");
        assert_eq!(chain.entries(), stored, "{how}: keys moved");

        let warm = chain.run();
        assert_eq!(chain.calls(), [0, 0, 0], "{how}: warm");
        assert_eq!(warm["cache.hits"], 3, "{how}: {warm:?}");
        assert_eq!(warm.get("cache.misses"), None, "{how}");
    }
}

/// A `b` whose output does not decode is never read while `c` hits: the
/// run succeeds, nothing is recomputed, and the entry stays as planted.
#[test]
fn an_undecodable_entry_nothing_reads_is_left_alone() {
    let chain = Chain::new();
    chain.run();
    chain.calls();
    chain.plant_undecodable(&chain.key_b());
    let planted = chain.cache.sink().read_file(&chain.key_b().blob_name());
    let warm = chain.run();
    assert_eq!(chain.calls(), [0, 0, 0]);
    assert_eq!(warm["cache.hits"], 3, "{warm:?}");
    let after = chain.cache.sink().read_file(&chain.key_b().blob_name());
    assert_eq!(planted.unwrap()[..], after.unwrap()[..]);
}
