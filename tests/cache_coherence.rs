//! Cache coherence acceptance tests:
//!
//! * concurrency — eight threads sharing one [`StageCache`] never
//!   observe torn entries, and the hit/miss counters account for every
//!   lookup;
//! * a writer racing the LRU evictor never serves a partial entry;
//! * fault injection — the cached climate pipeline over a corrupting
//!   [`FaultSink`] quarantines damaged entries and recomputes them,
//!   producing bit-identical output digests. Runs under the CI
//!   `FAULT_SEED` sweep.

use drai::cache::{CacheBytes, CacheKey, StageCache};
use drai::domains::climate::{self, ClimateConfig, ClimateData};
use drai::domains::{cached, climate as climate_mod};
use drai::formats::netcdf::NcFile;
use drai::io::checksum::content_hash128;
use drai::io::fault::{FaultConfig, FaultSink};
use drai::io::sink::{MemSink, StorageSink};
use drai::provenance::Ledger;
use drai::telemetry::clock::LogicalClock;
use drai::telemetry::{Registry, TraceContext};
use drai::tensor::LatLonGrid;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn test_cache(capacity: u64) -> Arc<StageCache> {
    Arc::new(
        StageCache::new(Arc::new(MemSink::new()) as Arc<dyn StorageSink>, capacity)
            .with_clock(Arc::new(LogicalClock::new())),
    )
}

/// Deterministic payload for input `i`: what every worker must agree on.
fn payload_for(i: usize) -> Vec<u8> {
    (0..256).map(|j| ((i * 131 + j * 7) % 251) as u8).collect()
}

/// Run `task(0)`, …, `task(tasks - 1)` on eight threads that take the
/// next task number from one shared counter, each under `ctx` (so the
/// cache's counters land in the test's registry). Results in any order.
fn on_eight_threads<U: Send>(
    ctx: &TraceContext,
    tasks: usize,
    task: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let _attached = ctx.attach();
                    let mut done = Vec::new();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        if n >= tasks {
                            break done;
                        }
                        done.push(task(n));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("worker panicked"))
            .collect()
    })
}

#[test]
fn parallel_workers_share_cache_without_torn_entries() {
    let registry = Registry::new();
    let ctx = TraceContext::root(&registry);
    let cache = test_cache(64 << 20);

    // 64 tasks over 16 distinct inputs: plenty of same-key contention.
    const TASKS: usize = 64;
    const DISTINCT: usize = 16;
    let results: Vec<(usize, Vec<u8>)> = on_eight_threads(&ctx, TASKS, |task| {
        let i = task % DISTINCT;
        let input = format!("input-{i}").into_bytes();
        let key = CacheKey::compute("stage", &input, b"fp");
        let value = match cache.get(&key) {
            Some(hit) => hit.payload,
            None => {
                let fresh = payload_for(i);
                let _ = cache.put(&key, &fresh, i as u64, fresh.len() as u64);
                fresh
            }
        };
        (i, value)
    });

    assert_eq!(results.len(), TASKS);
    for (i, value) in &results {
        assert_eq!(
            value,
            &payload_for(*i),
            "input {i}: a worker observed a torn or foreign entry"
        );
    }

    // Every lookup was either a hit or a miss — the counters must sum
    // exactly to the number of gets issued.
    let snap = registry.snapshot();
    let hits = snap.counters.get("cache.hits").copied().unwrap_or(0);
    let misses = snap.counters.get("cache.misses").copied().unwrap_or(0);
    assert_eq!(
        hits + misses,
        TASKS as u64,
        "hit/miss accounting must cover every get: {:?}",
        snap.counters
    );
    // With 16 distinct keys and 64 tasks there must be both kinds.
    assert!(
        misses >= DISTINCT as u64,
        "each distinct key misses at least once"
    );
    assert!(hits > 0, "repeat lookups must produce hits");
}

#[test]
fn writer_racing_evictor_never_serves_partial_entry() {
    let registry = Registry::new();
    let ctx = TraceContext::root(&registry);
    // Capacity fits only a handful of 256-byte payload entries, so puts
    // continuously evict while other workers read the same key space.
    let cache = test_cache(2048);

    const TASKS: usize = 200;
    const DISTINCT: usize = 8;
    let outcomes: Vec<Option<(usize, Vec<u8>)>> = on_eight_threads(&ctx, TASKS, |task| {
        let i = task % DISTINCT;
        let input = format!("evict-{i}").into_bytes();
        let key = CacheKey::compute("stage", &input, b"fp");
        if task.is_multiple_of(3) {
            let fresh = payload_for(i);
            let _ = cache.put(&key, &fresh, 0, 0);
            None
        } else {
            cache.get(&key).map(|hit| (i, hit.payload))
        }
    });

    // Every served hit must be the complete, correct payload — an entry
    // mid-eviction or mid-write must read as a miss, never as garbage.
    let mut served = 0;
    for outcome in outcomes.into_iter().flatten() {
        let (i, value) = outcome;
        assert_eq!(value, payload_for(i), "partial entry served for input {i}");
        served += 1;
    }
    let snap = registry.snapshot();
    assert!(
        snap.counters.get("cache.evictions").copied().unwrap_or(0) > 0,
        "capacity was sized to force evictions: {:?}",
        snap.counters
    );
    // Quarantines here would mean a reader decoded a half-written blob.
    assert_eq!(
        snap.counters.get("cache.quarantined").copied().unwrap_or(0),
        0,
        "no entry may ever decode as corrupt under clean racing"
    );
    let _ = served; // hits are timing-dependent; correctness is not.
}

fn climate_cfg() -> ClimateConfig {
    ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 6,
        seed: 7,
        shard_bytes: 64 * 1024,
        ..ClimateConfig::default()
    }
}

fn climate_input(cfg: &ClimateConfig) -> ClimateData {
    let raw = MemSink::new();
    let names = climate_mod::generate_raw(cfg, &raw).expect("generate");
    let fields = names
        .iter()
        .enumerate()
        .map(|(vi, name)| {
            let bytes = raw.read_file(name).expect("read raw");
            let nc = NcFile::from_bytes(&bytes).expect("parse nc");
            nc.var(climate::VARIABLES[vi].0)
                .expect("variable present")
                .data
                .to_f64_vec()
        })
        .collect();
    ClimateData {
        fields,
        grid: cfg.src_grid.clone(),
        timesteps: cfg.timesteps,
        normalizers: vec![],
    }
}

#[test]
fn corrupted_cache_entries_are_quarantined_and_recomputed() {
    let seed = FaultConfig::seed_from_env(1);
    let cfg = climate_cfg();
    let input = climate_input(&cfg);

    // Reference digest from the plain (uncached) pipeline.
    let plain_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
    let plain = climate_mod::build_pipeline(&cfg, plain_sink, Arc::new(Ledger::new()));
    let plain_digest = content_hash128(
        &plain
            .run(input.clone())
            .expect("plain run")
            .output
            .to_cache_bytes(),
    );

    // Cache persisted through a FaultSink that silently bit-flips half
    // of all stored blobs (seeded: the CI FAULT_SEED matrix replays
    // different corruption schedules).
    let fault_sink = Arc::new(FaultSink::new(
        MemSink::new(),
        FaultConfig {
            seed: seed.wrapping_add(0xCAC4E),
            corrupt: 0.5,
            ..FaultConfig::default()
        },
    ));
    let cache = Arc::new(
        StageCache::new(fault_sink.clone() as Arc<dyn StorageSink>, 64 << 20)
            .with_clock(Arc::new(LogicalClock::new())),
    );

    let registry = Registry::new();
    let ctx = TraceContext::root(&registry);
    ctx.scope(|| {
        // Cold pass populates the cache (some entries stored corrupted).
        let out_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let p = cached::build_cached_climate_pipeline(
            &cfg,
            out_sink,
            Arc::new(Ledger::new()),
            cache.clone(),
        );
        let cold = p.run(input.clone()).expect("cold run").output;
        assert_eq!(
            content_hash128(&cold.to_cache_bytes()),
            plain_digest,
            "cold cached run must match the plain pipeline"
        );

        // Hand-corrupt one entry behind the cache's back so the
        // quarantine path fires under every FAULT_SEED, not just the
        // seeds whose schedule happens to corrupt a write.
        let blobs = fault_sink.inner().list().expect("list cache blobs");
        let victim = blobs
            .iter()
            .find(|n| n.starts_with("cache/") && !n.contains("quarantine"))
            .expect("cold run must have stored cache entries")
            .clone();
        let mut data = fault_sink
            .inner()
            .read_file(&victim)
            .expect("read entry")
            .to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        fault_sink
            .inner()
            .write_file(&victim, &data)
            .expect("store corrupted entry");

        // Warm pass: corrupted entries (injected or hand-made) must be
        // detected, quarantined and recomputed — with identical output.
        let out_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let p = cached::build_cached_climate_pipeline(
            &cfg,
            out_sink,
            Arc::new(Ledger::new()),
            cache.clone(),
        );
        let warm = p.run(input.clone()).expect("warm run").output;
        assert_eq!(
            content_hash128(&warm.to_cache_bytes()),
            plain_digest,
            "corruption must degrade to recomputation, never to wrong output (seed {seed})"
        );
    });

    let snap = registry.snapshot();
    assert!(
        snap.counters.get("cache.quarantined").copied().unwrap_or(0) >= 1,
        "the hand-corrupted entry must be quarantined (seed {seed}): {:?}",
        snap.counters
    );
    // Quarantined entries are moved aside for forensics, not deleted.
    let blobs = fault_sink.inner().list().expect("list");
    assert!(
        blobs.iter().any(|n| n.contains("quarantine")),
        "quarantined blob must be preserved under cache/quarantine/"
    );
}
