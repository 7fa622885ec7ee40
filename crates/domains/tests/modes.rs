//! Mode equivalence: however a domain's one stage graph is executed —
//! each member alone through `run` or the whole batch through the
//! streaming executor, uncached, against a cold cache or replayed from
//! a warm one — every member's shard blobs are
//! bitwise identical and the cache is consulted exactly once per cached
//! stage per member. One table, both batch-capable domains.

use drai_cache::StageCache;
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::Pipeline;
use drai_domains::cached::{self, Member};
use drai_domains::climate::{self, ClimateConfig};
use drai_domains::materials::{self, MaterialsConfig};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_telemetry::{Registry, TraceContext};
use drai_tensor::LatLonGrid;
use std::collections::BTreeMap;
use std::sync::Arc;

const MEMBERS: usize = 3;

#[derive(Clone, Copy)]
enum Engine {
    /// Each member alone through the single-item pipeline's `run`.
    Alone,
    /// All members through the batch pipeline's `run_batch_streaming`.
    Streaming,
}

#[derive(Clone, Copy, PartialEq)]
enum Cache {
    None,
    /// A fresh cache: every cached stage misses.
    Cold,
    /// The cache the previous (cold) row filled: every cached stage hits.
    Warm,
}

const MODES: [(&str, Engine, Cache); 6] = [
    ("run, each member alone", Engine::Alone, Cache::None),
    ("run_batch_streaming", Engine::Streaming, Cache::None),
    ("cached cold, run alone", Engine::Alone, Cache::Cold),
    ("cached warm, run alone", Engine::Alone, Cache::Warm),
    ("cached cold, streaming", Engine::Streaming, Cache::Cold),
    ("cached warm, streaming", Engine::Streaming, Cache::Warm),
];

type Sink = Arc<dyn StorageSink>;
/// `(member, blob name below the member's own prefix)` → blob bytes.
type Shards = BTreeMap<(usize, String), Vec<u8>>;

/// Collect `member`'s shard blobs from under `prefix` (manifests name
/// their own prefix, so they are not comparable across modes).
fn collect(sink: &MemSink, prefix: &str, member: usize, into: &mut Shards) {
    for name in sink.list().expect("list") {
        if let Some(rest) = name.strip_prefix(prefix) {
            if !rest.contains('/') && !rest.ends_with(".manifest.json") {
                let bytes = sink.read_file(&name).expect("read");
                into.insert((member, rest.to_string()), bytes);
            }
        }
    }
}

/// Run every mode over `MEMBERS` members of one domain. `single` and
/// `batch` build the domain's pipeline over a sink, decorated with the
/// cache when one is given; `cached_stages` is how many stages that
/// decoration covers.
fn assert_modes_agree<D: Send + 'static>(
    base: &str,
    cached_stages: u64,
    input: impl Fn(usize) -> D,
    single: impl Fn(Sink, Option<Arc<StageCache>>) -> Pipeline<D>,
    batch: impl Fn(Sink, Option<Arc<StageCache>>) -> Pipeline<Member<D>>,
) {
    let mut reference: Option<Shards> = None;
    let mut cache: Option<Arc<StageCache>> = None;
    for (label, engine, cache_state) in MODES {
        match cache_state {
            Cache::None => cache = None,
            Cache::Cold => {
                cache = Some(Arc::new(StageCache::new(
                    Arc::new(MemSink::new()),
                    256 << 20,
                )))
            }
            Cache::Warm => assert!(cache.is_some(), "{label}: a warm row follows a cold one"),
        }
        let registry = Registry::new();
        let mut shards = Shards::new();
        TraceContext::root(&registry).scope(|| match engine {
            Engine::Alone => {
                for m in 0..MEMBERS {
                    let sink = Arc::new(MemSink::new());
                    single(sink.clone(), cache.clone())
                        .run(input(m))
                        .unwrap_or_else(|e| panic!("{base}, {label}, member {m}: {e}"));
                    collect(&sink, &format!("{base}/"), m, &mut shards);
                }
            }
            Engine::Streaming => {
                let sink = Arc::new(MemSink::new());
                let pipeline = batch(sink.clone(), cache.clone());
                let items: Vec<Member<D>> = (0..MEMBERS).map(|m| Member(m, input(m))).collect();
                pipeline
                    .run_batch_streaming(items, &ExecutorConfig::default())
                    .unwrap_or_else(|e| panic!("{base}, {label}: {e}"));
                for m in 0..MEMBERS {
                    collect(&sink, &format!("{base}/m{m}/"), m, &mut shards);
                }
            }
        });

        assert!(
            (0..MEMBERS).all(|m| shards.keys().any(|(member, _)| *member == m)),
            "{base}, {label}: a member wrote no shards"
        );
        let reference = reference.get_or_insert_with(|| shards.clone());
        assert!(
            shards == *reference,
            "{base}, {label}: shard blobs differ from `{}`",
            MODES[0].0
        );

        let counters = registry.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        let lookups = cached_stages * MEMBERS as u64;
        let (hits, misses) = match cache_state {
            Cache::None => (0, 0),
            Cache::Cold => (0, lookups),
            Cache::Warm => (lookups, 0),
        };
        assert_eq!(
            (count("cache.hits"), count("cache.misses")),
            (hits, misses),
            "{base}, {label}: cache (hits, misses)"
        );
    }
}

#[test]
fn climate_cached_and_streaming_modes_agree_bitwise() {
    let cfg = ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 6,
        seed: 7,
        shard_bytes: 64 * 1024,
        ..ClimateConfig::default()
    };
    let ledger = || Arc::new(Ledger::new());
    assert_modes_agree(
        "climate",
        3,
        |m| climate::member_input(&cfg, m),
        |sink, cache| {
            let pipeline = climate::build_pipeline(&cfg, sink.clone(), ledger());
            match cache {
                Some(cache) => cached::with_climate_cache(pipeline, &cfg, sink, cache),
                None => pipeline,
            }
        },
        |sink, cache| {
            let pipeline = climate::build_batch_pipeline(&cfg, sink.clone(), ledger());
            match cache {
                Some(cache) => cached::with_climate_cache(pipeline, &cfg, sink, cache),
                None => pipeline,
            }
        },
    );
}

#[test]
fn materials_cached_and_streaming_modes_agree_bitwise() {
    let cfg = MaterialsConfig {
        structures: 6,
        cell_atoms: 2,
        seed: 11,
        ..MaterialsConfig::default()
    };
    let ledger = || Arc::new(Ledger::new());
    assert_modes_agree(
        "materials",
        2,
        |m| materials::member_input(&cfg, m).expect("member input"),
        |sink, cache| {
            let pipeline = materials::build_pipeline(&cfg, sink, ledger());
            match cache {
                Some(cache) => cached::with_materials_cache(pipeline, &cfg, cache),
                None => pipeline,
            }
        },
        |sink, cache| {
            let pipeline = materials::build_batch_pipeline(&cfg, sink, ledger());
            match cache {
                Some(cache) => cached::with_materials_cache(pipeline, &cfg, cache),
                None => pipeline,
            }
        },
    );
}
