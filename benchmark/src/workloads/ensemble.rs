//! `ensemble_cold` and `ensemble_warm`: one ensemble through the
//! cached climate batch pipeline on the streaming executor.
//!
//! Cold: a fresh empty `StageCache`, so every cached stage misses,
//! computes and `put`s — executor, kernels and cache writes. Warm: the
//! cache and output sink primed in set-up, so every cached stage hits
//! its fast path — cache reads and the executor's short circuit, the
//! kernels bypassed. The pair uses the same layer for writes and for
//! reads, so a gain for one that costs the other shows.

use super::climate::config;
use super::{digest_outputs, err};
use crate::clock;
use crate::gen::{self, Digest};
use crate::harness::{Iteration, Workload};
use crate::host::rate_of;
use crate::trace::Recorder;
use drai_cache::{CacheBytes, CacheKey, StageCache};
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::Pipeline;
use drai_domains::cached::{self, Member};
use drai_domains::climate::{self, ClimateConfig, ClimateData};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_telemetry::Registry;
use std::hint::black_box;
use std::sync::Arc;

/// Ensemble members.
pub const MEMBERS: usize = 24;
/// Timesteps per member.
pub const TIMESTEPS: usize = 4;
/// Capacity of the stage cache: far above what one pass stores, so
/// nothing is evicted.
pub const CACHE_CAPACITY: u64 = 512 << 20;
/// Stages of the climate batch pipeline, in order.
const STAGES: [&str; 4] = ["validate", "regrid", "normalize", "shard"];

fn fresh_cache() -> Arc<StageCache> {
    Arc::new(StageCache::new(Arc::new(MemSink::new()), CACHE_CAPACITY))
}

/// Digest of one streaming pass: the artifacts it returned and the
/// decoded shards in `sink`.
fn digest_pass(
    outputs: &[Member<ClimateData>],
    sink: &dyn StorageSink,
) -> Result<[u8; 16], String> {
    let mut digest = Digest::new();
    for Member(m, data) in outputs {
        digest.text(&format!("member {m}"));
        for field in &data.fields {
            digest.floats(field);
        }
    }
    digest_outputs(sink, "", &mut digest)?;
    Ok(digest.finish())
}

/// The set-up ensemble.
pub struct Ensemble {
    warm: bool,
    cfg: ClimateConfig,
    exec: ExecutorConfig,
    items: Vec<Member<ClimateData>>,
    input_bytes: u64,
    /// Cache and output sink of the warm variant, primed in set-up.
    primed: Option<(Arc<StageCache>, Arc<MemSink>)>,
}

impl Ensemble {
    /// Synthesize the members; for the warm variant also prime the
    /// cache and the output sink with one cold pass.
    pub fn setup(seed: u64, warm: bool) -> Result<Ensemble, String> {
        let cfg = config(seed, TIMESTEPS);
        let items: Vec<Member<ClimateData>> = (0..MEMBERS)
            .map(|m| Member(m, climate::member_input(&cfg, m)))
            .collect();
        let input_bytes = items
            .iter()
            .flat_map(|Member(_, d)| d.fields.iter())
            .map(|f| f.len() as u64 * 8)
            .sum();
        let mut ensemble = Ensemble {
            warm,
            cfg,
            exec: ExecutorConfig::for_host(),
            items,
            input_bytes,
            primed: None,
        };
        if warm {
            let (cache, sink) = (fresh_cache(), Arc::new(MemSink::new()));
            ensemble.pass(&cache, &sink)?;
            ensemble.primed = Some((cache, sink));
        }
        Ok(ensemble)
    }

    /// The cached batch pipeline over `cache`, writing to `sink`.
    fn pipeline(
        &self,
        cache: &Arc<StageCache>,
        sink: &Arc<MemSink>,
    ) -> Pipeline<Member<ClimateData>> {
        cached::build_cached_climate_batch_pipeline(
            &self.cfg,
            sink.clone(),
            Arc::new(Ledger::new()),
            cache.clone(),
        )
    }

    /// One untimed streaming pass over the whole ensemble.
    fn pass(
        &self,
        cache: &Arc<StageCache>,
        sink: &Arc<MemSink>,
    ) -> Result<Vec<Member<ClimateData>>, String> {
        let (outputs, _) = self
            .pipeline(cache, sink)
            .run_batch_streaming(self.items.clone(), &self.exec)
            .map_err(err)?;
        Ok(outputs)
    }
}

impl Workload for Ensemble {
    fn bytes_per_iteration(&self) -> u64 {
        self.input_bytes
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("members", MEMBERS as f64),
            ("timesteps", TIMESTEPS as f64),
            ("input_bytes", self.input_bytes as f64),
            ("cache_capacity_bytes", CACHE_CAPACITY as f64),
            ("exec_channel_capacity", self.exec.channel_capacity as f64),
            ("exec_workers_per_stage", self.exec.workers_per_stage as f64),
        ]
    }

    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
        let (cache, sink) = match &self.primed {
            Some((cache, sink)) => (cache.clone(), sink.clone()),
            None => (fresh_cache(), Arc::new(MemSink::new())),
        };
        let pipeline = self.pipeline(&cache, &sink);
        let items = self.items.clone();
        let entries_before = cache.tracked_entries();

        let registry = Registry::global();
        let mut busy_ns = [0u64; STAGES.len()];
        let (timed, wall_s) = clock::time(|| {
            rec.scope("iteration", || {
                let started_ns = rec.now_ns();
                let result = pipeline.run_batch_streaming(items, &self.exec);
                // What each stage was busy for, summed over items: the
                // per-item latencies the executor publishes (the
                // returned StageMetrics carry each stage's window, not
                // its busy time). Stages overlap; all start at 0.
                for (stage, busy) in STAGES.iter().zip(&mut busy_ns) {
                    *busy = registry
                        .histogram(&format!("pipeline.climate-batch.{stage}.item_ns"))
                        .sum();
                    let name = format!("core.stage_busy_s.{stage}");
                    rec.add(&name, started_ns, started_ns + *busy);
                }
                result
            })
        });
        let (outputs, _stages) = timed.map_err(err)?;

        let busy_s = busy_ns.iter().sum::<u64>() as f64 / 1e9;
        let hits = registry.counter("cache.hits").get() as f64;
        let misses = registry.counter("cache.misses").get() as f64;
        let values = vec![
            ("core.stream_overlap".to_string(), busy_s / wall_s),
            (
                "core.exec_channel_capacity".to_string(),
                self.exec.channel_capacity as f64,
            ),
            (
                "core.exec_workers_per_stage".to_string(),
                self.exec.workers_per_stage as f64,
            ),
            (
                "cache.entries_added".to_string(),
                (cache.tracked_entries() - entries_before) as f64,
            ),
            (
                "cache.tracked_bytes".to_string(),
                cache.tracked_bytes() as f64,
            ),
            (
                "cache.hit_share".to_string(),
                hits / (hits + misses).max(1.0),
            ),
        ];

        let complete = outputs.len() == MEMBERS;
        Ok(Iteration {
            wall_s,
            digest: digest_pass(&outputs, sink.as_ref())?,
            attempted: 1,
            failed: u64::from(!complete),
            values,
        })
    }

    /// warm = cold = each member alone through the sequential cached
    /// pipeline (the reference computation), bitwise on decoded records.
    fn verify(&mut self) -> Result<Vec<String>, String> {
        let mut failures = Vec::new();
        let (cache, cold_sink) = (fresh_cache(), Arc::new(MemSink::new()));
        let cold = digest_pass(&self.pass(&cache, &cold_sink)?, cold_sink.as_ref())?;
        // A second pass over the cache the first one filled is warm.
        let warm = digest_pass(&self.pass(&cache, &cold_sink)?, cold_sink.as_ref())?;
        if warm != cold {
            failures.push(format!(
                "warm output {} differs from cold output {}",
                gen::hex(&warm),
                gen::hex(&cold)
            ));
        }
        if let Some((primed_cache, primed_sink)) = &self.primed {
            let primed = digest_pass(&self.pass(primed_cache, primed_sink)?, primed_sink.as_ref())?;
            if primed != cold {
                failures.push(format!(
                    "output against the primed cache {} differs from cold output {}",
                    gen::hex(&primed),
                    gen::hex(&cold)
                ));
            }
        }
        for Member(m, data) in &self.items {
            let sink = Arc::new(MemSink::new());
            let alone = cached::build_cached_climate_pipeline(
                &self.cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                fresh_cache(),
            );
            alone.run(data.clone()).map_err(err)?;
            let mut reference = Digest::new();
            digest_outputs(sink.as_ref(), "climate/", &mut reference)?;
            let mut batch = Digest::new();
            digest_outputs(cold_sink.as_ref(), &format!("climate/m{m}/"), &mut batch)?;
            if reference.finish() != batch.finish() {
                failures.push(format!(
                    "member {m}: shards from the batch differ from the member run alone"
                ));
            }
        }
        Ok(failures)
    }

    /// Cache primitives on one member's field stack: the put side on
    /// the cold variant, the get side on the warm one.
    fn probes(&mut self) -> Result<Vec<(String, f64)>, String> {
        let stack: Vec<f64> = self.items[0].1.fields.concat();
        let encoded = stack.to_cache_bytes();
        let bytes = encoded.len() as u64;
        let cache = fresh_cache();
        let key = CacheKey::compute("probe", &encoded, b"benchmark");
        const REPS: u64 = 16;
        let rate = |f: &mut dyn FnMut()| {
            rate_of(bytes * REPS, 3, || {
                for _ in 0..REPS {
                    f();
                }
            })
        };
        let mut out = vec![(
            "cache.key_compute_MBps".to_string(),
            rate(&mut || {
                black_box(CacheKey::compute(
                    "probe",
                    black_box(&encoded),
                    b"benchmark",
                ));
            }),
        )];
        if self.warm {
            cache.put(&key, &encoded, 1, bytes).map_err(err)?;
            out.push((
                "cache.decode_MBps".to_string(),
                rate(&mut || {
                    black_box(
                        Vec::<f64>::from_cache_bytes(black_box(&encoded)).expect("own bytes"),
                    );
                }),
            ));
            out.push((
                "cache.get_MBps".to_string(),
                rate(&mut || {
                    black_box(cache.get(&key).expect("entry was just put"));
                }),
            ));
        } else {
            out.push((
                "cache.encode_MBps".to_string(),
                rate(&mut || {
                    black_box(black_box(&stack).to_cache_bytes());
                }),
            ));
            out.push((
                "cache.put_MBps".to_string(),
                rate(&mut || {
                    cache
                        .put(&key, black_box(&encoded), 1, bytes)
                        .expect("MemSink accepts the entry");
                }),
            ));
        }
        Ok(out)
    }
}
