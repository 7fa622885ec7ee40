//! Streaming bounded-memory executor acceptance tests:
//!
//! * property — for arbitrary inputs, per-item stage delays, channel
//!   capacities and worker counts, the streaming executor produces
//!   exactly what each item alone through `run` produces, in input
//!   order;
//! * a panicking stage propagates the panic to the caller without
//!   deadlocking the worker/feeder threads;
//! * error ordering — with several failing items in flight, streaming
//!   surfaces the error a sequential run would hit first (the lowest
//!   input index);
//! * fault injection — a cached stage whose cache storage corrupts
//!   entries (seeded [`FaultSink`], CI `FAULT_SEED` sweep) still
//!   streams bit-identical outputs, quarantining damaged entries.

use drai::cache::{CachedPipelineExt, StageCache};
use drai::core::executor::{ExecutorConfig, StreamingBatchExt};
use drai::core::pipeline::{Pipeline, StageCounters};
use drai::core::ProcessingStage as S;
use drai::io::fault::{FaultConfig, FaultSink};
use drai::io::sink::{MemSink, StorageSink};
use drai::telemetry::clock::LogicalClock;
use drai::telemetry::{Registry, TraceContext};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic busy-work standing in for stage compute time.
fn spin(iters: u64) -> u64 {
    let mut acc = 1u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

/// A three-stage arithmetic pipeline whose per-item, per-stage delay is
/// derived from `salt` — so every proptest case exercises a different
/// interleaving of fast and slow items across the stage chain.
fn delayed_pipeline(salt: u64) -> Pipeline<u64> {
    let stage_fn = |s: u64| {
        move |x: u64, c: &mut StageCounters| {
            let iters = x.wrapping_mul(salt).wrapping_add(s) % 5 * 2_000;
            std::hint::black_box(spin(iters));
            c.records = 1;
            Ok(x.wrapping_mul(3).wrapping_add(s))
        }
    };
    Pipeline::builder("delayed")
        .stage("a", S::Ingest, stage_fn(1))
        .stage("b", S::Transform, stage_fn(2))
        .stage("c", S::Shard, stage_fn(3))
        .build()
}

proptest! {
    #[test]
    fn streaming_outputs_match_sequential_run_in_input_order(
        items in proptest::collection::vec(any::<u64>(), 0..16),
        salt in any::<u64>(),
        capacity in 1usize..5,
        workers in 1usize..4,
    ) {
        let pipeline = delayed_pipeline(salt);
        let cfg = ExecutorConfig {
            channel_capacity: capacity,
            workers_per_stage: workers,
        };
        let (streamed, stream_stages) = pipeline
            .run_batch_streaming(items.clone(), &cfg)
            .expect("streaming run");
        let mut records = vec![0u64; stream_stages.len()];
        let mut sequential = Vec::with_capacity(items.len());
        for item in items {
            let run = pipeline.run(item).expect("sequential run");
            for (total, stage) in records.iter_mut().zip(&run.stages) {
                *total += stage.throughput.records;
            }
            sequential.push(run.output);
        }
        prop_assert_eq!(streamed, sequential);
        // Merged volume counters agree stage by stage (timings differ).
        for (merged, total) in stream_stages.iter().zip(records) {
            prop_assert_eq!(merged.throughput.records, total);
        }
    }
}

#[test]
fn panicking_stage_propagates_without_deadlock() {
    let pipeline: Pipeline<u64> = Pipeline::builder("panicky")
        .stage("pass", S::Ingest, |x: u64, _c: &mut StageCounters| Ok(x))
        .stage("boom", S::Transform, |x: u64, _c: &mut StageCounters| {
            if x == 13 {
                panic!("stage blew up on item 13");
            }
            Ok(x)
        })
        .build();
    let cfg = ExecutorConfig {
        channel_capacity: 2,
        workers_per_stage: 2,
    };
    // If cancellation failed to drain in-flight items this would hang,
    // not just fail — the harness timeout is the deadlock detector.
    let err = catch_unwind(AssertUnwindSafe(|| {
        pipeline.run_batch_streaming((0..64).collect(), &cfg)
    }))
    .expect_err("panic must reach the caller");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("item 13"), "unexpected payload: {msg:?}");
}

#[test]
fn streaming_and_sequential_run_agree_on_lowest_index_error() {
    let pipeline: Pipeline<u64> = Pipeline::builder("flaky")
        .stage("slow-fail", S::Ingest, |x: u64, _c: &mut StageCounters| {
            // Items 7, 21 and 35 all fail; later ones tend to fail
            // *first* in wall time because earlier items spin longer.
            std::hint::black_box(spin((64 - x) * 1_500));
            if x % 14 == 7 {
                Err(format!("item {x} failed"))
            } else {
                Ok(x)
            }
        })
        .build();
    let cfg = ExecutorConfig {
        channel_capacity: 2,
        workers_per_stage: 3,
    };
    // Item by item in input order, the first failure is the batch's.
    let sequential_err = (0..48)
        .find_map(|x| pipeline.run(x).err())
        .expect("must fail");
    for rep in 0..8 {
        let stream_err = pipeline
            .run_batch_streaming((0..48).collect(), &cfg)
            .expect_err("must fail");
        assert_eq!(
            stream_err.to_string(),
            sequential_err.to_string(),
            "rep {rep}: streaming and sequential disagree on the surfaced error"
        );
        assert!(
            stream_err.to_string().contains("item 7 failed"),
            "rep {rep}: lowest input index must win, got: {stream_err}"
        );
    }
}

#[test]
fn corrupting_cache_storage_cannot_alter_streamed_outputs() {
    let seed = FaultConfig::seed_from_env(1);
    let registry = Registry::new();
    let ctx = TraceContext::root(&registry);

    // Reference outputs: the same pipeline shape with no cache at all.
    let expected: Vec<Vec<u8>> = (0..24u8)
        .map(|i| {
            let mut v = vec![i; 64];
            v.iter_mut().for_each(|b| *b = b.wrapping_mul(31));
            v
        })
        .collect();

    let scale_calls = Arc::new(AtomicU64::new(0));
    let build = |cache: Arc<StageCache>| -> Pipeline<Vec<u8>> {
        let calls = scale_calls.clone();
        Pipeline::builder("faulted")
            .stage(
                "scale",
                S::Transform,
                move |mut v: Vec<u8>, c: &mut StageCounters| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    v.iter_mut().for_each(|b| *b = b.wrapping_mul(31));
                    c.records = 1;
                    c.bytes = v.len() as u64;
                    Ok(v)
                },
            )
            .build()
            .cached("scale", cache)
    };
    // 30% of cache writes land bit-flipped: warm reads must detect the
    // damage by digest, quarantine the entry and recompute.
    let fault_cfg = FaultConfig {
        seed,
        corrupt: 0.30,
        ..FaultConfig::default()
    };
    let cache_sink: Arc<dyn StorageSink> = Arc::new(FaultSink::new(MemSink::new(), fault_cfg));
    let cache =
        Arc::new(StageCache::new(cache_sink, 64 << 20).with_clock(Arc::new(LogicalClock::new())));
    let items = || -> Vec<Vec<u8>> { (0..24u8).map(|i| vec![i; 64]).collect() };
    let cfg = ExecutorConfig::default();

    ctx.scope(|| {
        let cold = build(cache.clone());
        let (cold_out, _) = cold
            .run_batch_streaming(items(), &cfg)
            .expect("cold streaming run");
        assert_eq!(cold_out, expected, "cold outputs wrong (seed {seed})");

        let warm = build(cache.clone());
        let (warm_out, _) = warm
            .run_batch_streaming(items(), &cfg)
            .expect("warm streaming run");
        assert_eq!(
            warm_out, expected,
            "corrupted cache entries altered outputs (seed {seed})"
        );
    });

    let snap = registry.snapshot();
    let hits = snap.counters.get("cache.hits").copied().unwrap_or(0);
    let misses = snap.counters.get("cache.misses").copied().unwrap_or(0);
    let quarantined = snap.counters.get("cache.quarantined").copied().unwrap_or(0);
    // Every probe resolved one way or the other, across both passes.
    assert_eq!(hits + misses, 48, "counters: {:?}", snap.counters);
    // At a 30% corruption rate over 24 entries, some warm probes must
    // have quarantined (probability of zero corrupt writes ≈ 0.7^24).
    assert!(
        quarantined > 0,
        "no corrupt entry quarantined at 30% rate (seed {seed}): {:?}",
        snap.counters
    );
    // Clean entries were still served as fast-path hits through the
    // executor: the stage function ran for the misses and only those.
    assert_eq!(
        scale_calls.load(Ordering::SeqCst),
        misses,
        "every hit must skip the stage function: {:?}",
        snap.counters
    );
}
