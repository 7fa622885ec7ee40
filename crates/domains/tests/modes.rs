//! Mode equivalence: however a domain's one stage graph is executed —
//! each member alone through `run` or the whole batch through the
//! streaming executor, uncached, against a cold cache or replayed from
//! a warm one — every member's shard blobs are bitwise identical, the
//! cache is consulted exactly once per cached stage per member, and the
//! ledger is the one the sequential `run` of the same pipeline writes
//! (cached on a fresh cache): the same records apart from `seq`, `trace`
//! and a hit's `cache_hit`. One table, all four domains; fusion and bio
//! have no cache decorator yet, so they run the uncached rows.

use drai_cache::StageCache;
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::Pipeline;
use drai_domains::bio::{self, BioConfig};
use drai_domains::cached::{self, Member};
use drai_domains::climate::{self, ClimateConfig};
use drai_domains::fusion::{self, FusionConfig};
use drai_domains::materials::{self, MaterialsConfig};
use drai_io::json::Json;
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_telemetry::{Registry, TraceContext};
use drai_tensor::LatLonGrid;
use drai_transform::split::{assign, Split};
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

/// The rows a domain with no cache decorator runs.
const UNCACHED: usize = 2;

type Sink = Arc<dyn StorageSink>;
/// `(member, blob name below the member's own prefix)` → blob bytes.
type Shards = BTreeMap<(usize, String), Vec<u8>>;

/// How a stored blob is read for comparison: `(sink, prefix, name
/// below the prefix)` → the bytes two modes must agree on.
type ReadBlob<'a> = &'a dyn Fn(&MemSink, &str, &str) -> Vec<u8>;

/// A domain pipeline over a sink and a ledger, decorated with the cache
/// when one is given.
type Build<'a, I> = &'a dyn Fn(Sink, Arc<Ledger>, Option<Arc<StageCache>>) -> Pipeline<I>;

/// The ledger as a sorted multiset of records, each without `seq`,
/// `trace` and `cache_hit`; and how many records carried a `cache_hit`.
fn records(ledger: &Ledger) -> (Vec<String>, usize) {
    let mut hits = 0;
    let mut records: Vec<String> = ledger
        .to_jsonl()
        .lines()
        .map(|line| {
            let mut record = Json::parse(line).expect("a ledger line is JSON");
            let Json::Obj(fields) = &mut record else {
                panic!("a record is an object: {line}")
            };
            fields.remove("seq");
            fields.remove("trace");
            if let Some(Json::Obj(params)) = fields.get_mut("params") {
                hits += usize::from(params.remove("cache_hit").is_some());
            }
            record.to_string_compact()
        })
        .collect();
    records.sort();
    (records, hits)
}

fn fresh_cache() -> Arc<StageCache> {
    Arc::new(StageCache::new(Arc::new(MemSink::new()), 256 << 20))
}

/// The ledger of `build`'s pipeline run sequentially over every member,
/// on a fresh cache when `cached`.
fn sequential_ledger<I>(build: Build<I>, item: impl Fn(usize) -> I, cached: bool) -> Vec<String> {
    let ledger = Arc::new(Ledger::new());
    let cache = cached.then(fresh_cache);
    for m in 0..MEMBERS {
        build(Arc::new(MemSink::new()), ledger.clone(), cache.clone())
            .run(item(m))
            .unwrap_or_else(|e| panic!("sequential run, member {m}: {e}"));
    }
    let (records, hits) = records(&ledger);
    assert_eq!(records.len(), 4 * MEMBERS, "one record per stage execution");
    assert_eq!(hits, 0);
    records
}

/// The blob as stored.
fn stored(sink: &MemSink, prefix: &str, rest: &str) -> Vec<u8> {
    sink.read_file(&format!("{prefix}/{rest}"))
        .expect("read")
        .to_vec()
}

/// Collect `member`'s shard blobs from under `prefix/` (manifests name
/// their own prefix, so they are not comparable across modes).
fn collect(sink: &MemSink, prefix: &str, member: usize, read: ReadBlob, into: &mut Shards) {
    for name in sink.list().expect("list") {
        if let Some(rest) = name.strip_prefix(&format!("{prefix}/")) {
            if !rest.contains('/') && !rest.ends_with(".manifest.json") {
                into.insert((member, rest.to_string()), read(sink, prefix, rest));
            }
        }
    }
}

/// Run `modes` over `MEMBERS` members of one domain. `single` and `batch`
/// build the domain's pipeline (see [`Build`]); `cached_stages` is how
/// many stages the cache decoration covers; `read` is how a blob is read
/// for comparison.
fn assert_modes_agree<D: Send + 'static>(
    base: &str,
    modes: &[(&str, Engine, Cache)],
    cached_stages: u64,
    read: ReadBlob,
    input: impl Fn(usize) -> D,
    single: Build<D>,
    batch: Build<Member<D>>,
) {
    let mut reference: Option<Shards> = None;
    let mut cache: Option<Arc<StageCache>> = None;
    for &(label, engine, cache_state) in modes {
        match cache_state {
            Cache::None => cache = None,
            Cache::Cold => cache = Some(fresh_cache()),
            Cache::Warm => assert!(cache.is_some(), "{label}: a warm row follows a cold one"),
        }
        let registry = Registry::new();
        let ledger = Arc::new(Ledger::new());
        let mut shards = Shards::new();
        TraceContext::root(&registry).scope(|| match engine {
            Engine::Alone => {
                for m in 0..MEMBERS {
                    let sink = Arc::new(MemSink::new());
                    single(sink.clone(), ledger.clone(), cache.clone())
                        .run(input(m))
                        .unwrap_or_else(|e| panic!("{base}, {label}, member {m}: {e}"));
                    collect(&sink, base, m, read, &mut shards);
                }
            }
            Engine::Streaming => {
                let sink = Arc::new(MemSink::new());
                let pipeline = batch(sink.clone(), ledger.clone(), cache.clone());
                let items: Vec<Member<D>> = (0..MEMBERS).map(|m| Member(m, input(m))).collect();
                pipeline
                    .run_batch_streaming(items, &ExecutorConfig::default())
                    .unwrap_or_else(|e| panic!("{base}, {label}: {e}"));
                for m in 0..MEMBERS {
                    collect(&sink, &format!("{base}/m{m}"), m, read, &mut shards);
                }
            }
        });

        let of_member = |m: usize| -> Vec<(&String, &Vec<u8>)> {
            let of_m = shards.iter().filter(|((member, _), _)| *member == m);
            of_m.map(|((_, name), bytes)| (name, bytes)).collect()
        };
        for m in 0..MEMBERS {
            assert!(
                !of_member(m).is_empty(),
                "{base}, {label}: member {m} wrote no shards"
            );
            // Members are member-seeded: no two hold the same data.
            assert!(
                m == 0 || of_member(m) != of_member(0),
                "{base}, {label}: member {m} sharded what member 0 did"
            );
        }
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

        let (records, hit_records) = records(&ledger);
        let cached = cache_state != Cache::None;
        let sequential = match engine {
            Engine::Alone => sequential_ledger(single, &input, cached),
            Engine::Streaming => sequential_ledger(batch, |m| Member(m, input(m)), cached),
        };
        assert!(
            records == sequential,
            "{base}, {label}: the ledger differs from the sequential run's: \
             {records:#?} vs {sequential:#?}"
        );
        // A hit the check vetoes recomputes and records no hit: climate's
        // shard entries, whose blobs are not in this row's fresh sinks.
        assert_eq!(
            hit_records > 0,
            cache_state == Cache::Warm,
            "{base}, {label}: {hit_records} records of hits"
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
    assert_modes_agree(
        "climate",
        &MODES,
        3,
        &stored,
        |m| climate::member_input(&cfg, m),
        &|sink, ledger, cache| {
            let pipeline = climate::build_pipeline(&cfg, sink.clone(), ledger);
            match cache {
                Some(cache) => cached::with_climate_cache(pipeline, sink, cache),
                None => pipeline,
            }
        },
        &|sink, ledger, cache| {
            let pipeline = climate::build_batch_pipeline(&cfg, sink.clone(), ledger);
            match cache {
                Some(cache) => cached::with_climate_cache(pipeline, sink, cache),
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
    assert_modes_agree(
        "materials",
        &MODES,
        2,
        &stored,
        |m| materials::member_input(&cfg, m).expect("member input"),
        &|sink, ledger, cache| {
            let pipeline = materials::build_pipeline(&cfg, sink, ledger);
            match cache {
                Some(cache) => cached::with_materials_cache(pipeline, cache),
                None => pipeline,
            }
        },
        &|sink, ledger, cache| {
            let pipeline = materials::build_batch_pipeline(&cfg, sink, ledger);
            match cache {
                Some(cache) => cached::with_materials_cache(pipeline, cache),
                None => pipeline,
            }
        },
    );
}

#[test]
fn fusion_streaming_and_alone_agree_bitwise() {
    let cfg = FusionConfig {
        shots: 6,
        shot_seconds: 0.5,
        clock_hz: 500.0,
        window_len: 32,
        window_stride: 16,
        seed: 42,
        shard_bytes: 64 * 1024,
        ..FusionConfig::default()
    };
    assert_modes_agree(
        "fusion",
        &MODES[..UNCACHED],
        0,
        &stored,
        |m| fusion::member_input(&cfg, m),
        &|sink, ledger, _| fusion::build_pipeline(&cfg, sink, ledger),
        &|sink, ledger, _| fusion::build_batch_pipeline(&cfg, sink, ledger),
    );
}

/// Bio ciphertext is keyed by the member's prefix, so a member alone
/// (under `bio`) and in a batch (under `bio/m<member>`) store different
/// bytes by design; what must agree is the decrypted container.
#[test]
fn bio_streaming_and_alone_agree_on_decrypted_containers() {
    let cfg = BioConfig {
        patients: 24,
        tile_len: 64,
        missing_fraction: 0.15,
        k: 2,
        seed: 99,
        ..BioConfig::default()
    };
    // The record count in each blob's nonce. Pseudonyms hash the patient
    // key under the operator secret, so every member splits alike.
    let reference = bio::build_pipeline(&cfg, Arc::new(MemSink::new()), Arc::new(Ledger::new()))
        .run(bio::member_input(&cfg, 0).expect("member input"))
        .expect("reference run");
    let count = |split: Split| {
        let pseudonyms = reference.output.fused.iter().map(|(p, _, _)| p);
        pseudonyms
            .filter(|p| assign(p, cfg.seed, cfg.fractions).expect("fractions") == split)
            .count()
    };
    let decrypted = |sink: &MemSink, prefix: &str, rest: &str| {
        let split = [Split::Train, Split::Validation, Split::Test]
            .into_iter()
            .find(|s| rest == format!("{}.h5lite.enc", s.name()))
            .unwrap_or_else(|| panic!("unexpected bio blob {rest}"));
        bio::open_secure_shard(&cfg, sink, prefix, split, count(split))
            .unwrap_or_else(|e| panic!("{prefix}/{rest} does not open under its own prefix: {e}"))
            .to_bytes()
    };
    assert_modes_agree(
        "bio",
        &MODES[..UNCACHED],
        0,
        &decrypted,
        |m| bio::member_input(&cfg, m).expect("member input"),
        &|sink, ledger, _| bio::build_pipeline(&cfg, sink, ledger),
        &|sink, ledger, _| bio::build_batch_pipeline(&cfg, sink, ledger),
    );
}
