//! Running the archetypes as multi-tenant service jobs.
//!
//! The paper's "shared facility" framing: preprocessing runs as a
//! service many groups submit to, not a library one caller drives.
//! [`submit_batch`] wraps any archetype's batch pipeline — all four
//! have one, plain or cached — in a `drai_sched::JobSpec` whose closure
//! drives the streaming executor with the scheduler's `ExecutorConfig`
//! and threads the job's `CancelToken` into
//! `run_batch_streaming_cancellable`, so load shedding and handle
//! cancellation take effect between members and between stages of a
//! dispatched job, not only while it is queued. The caller states the
//! cost in the archetype's natural work unit (ensemble members, shot
//! campaigns, cohorts, structure sets).
//!
//! [`estimate_climate_batch_cost`] shows the cache-aware admission
//! path: members whose regrid entry already exists in the
//! [`StageCache`] (an O(1) [`StageCache::contains`] probe, no payload
//! read) are expected to fast-path through the chain, so they count a
//! fraction of a cold member toward quotas and the in-flight gate.

use crate::cached;
use crate::climate::{self, ClimateConfig};
use crate::{DomainError, Member};
use drai_cache::{CacheBytes, CacheKey, StageCache};
use drai_core::pipeline::Pipeline;
use drai_core::StreamingBatchExt;
use drai_sched::{JobHandle, JobOutput, JobSpec, Rejected, Scheduler};

/// Submit a batch as a job for `tenant`: when dispatched, members
/// `0..members` are made by `member_input` and streamed through
/// `pipeline` (any batch pipeline — e.g.
/// [`climate::build_batch_pipeline`],
/// [`cached::build_cached_climate_batch_pipeline`]) under the job's
/// executor configuration and cancel token. `cost` is what the job
/// counts toward quotas — `members` for a cold batch.
pub fn submit_batch<D: Send + 'static>(
    sched: &Scheduler,
    tenant: &str,
    label: &str,
    cost: u64,
    pipeline: Pipeline<Member<D>>,
    members: usize,
    member_input: impl Fn(usize) -> Result<D, DomainError> + Send + 'static,
) -> Result<JobHandle, Rejected> {
    let detail = format!("{label}: {members} members");
    let spec = JobSpec::new(tenant, label, cost, move |ctx| {
        let items = (0..members)
            .map(|m| member_input(m).map(|data| Member(m, data)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        pipeline
            .run_batch_streaming_cancellable(items, &ctx.exec, &ctx.cancel)
            .map_err(|e| e.to_string())?;
        Ok(JobOutput {
            items: members as u64,
            detail,
        })
    });
    sched.submit(spec)
}

/// Cache-aware cost estimate for a cached climate batch: a cold member
/// costs 1, a member whose regrid entry is already present (checked
/// with the O(1) [`StageCache::contains`] metadata probe against the
/// exact key the cached `regrid` stage will compute) is expected to
/// fast-path and costs nothing. Clamped to ≥ 1 so a fully warm batch
/// still passes admission as one cost unit. Returns
/// `(estimated_cost, warm_members)`.
pub fn estimate_climate_batch_cost(
    cfg: &ClimateConfig,
    cache: &StageCache,
    members: usize,
) -> (u64, usize) {
    let fp = cached::climate_regrid_fingerprint(cfg);
    let mut warm = 0usize;
    for m in 0..members {
        // validate passes the member input through unchanged, so the
        // regrid stage's cache key is computable without running the
        // pipeline.
        let input = Member(m, climate::member_input(cfg, m)).to_cache_bytes();
        if cache.contains(&CacheKey::compute("regrid", &input, &fp)) {
            warm += 1;
        }
    }
    (((members - warm) as u64).max(1), warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bio::{self, BioConfig};
    use crate::fusion::{self, FusionConfig, FusionData};
    use crate::materials::{self, MaterialsConfig};
    use drai_core::pipeline::StageCounters;
    use drai_io::sink::{MemSink, StorageSink};
    use drai_provenance::Ledger;
    use drai_sched::{JobOutcome, SchedulerConfig, TenantConfig};
    use drai_telemetry::monitor::ManualClock;
    use drai_telemetry::{Registry, TraceContext};
    use std::sync::{Arc, Condvar, Mutex};

    fn small_climate() -> ClimateConfig {
        ClimateConfig {
            timesteps: 2,
            shard_bytes: 1 << 16,
            ..ClimateConfig::default()
        }
    }

    fn small_fusion() -> FusionConfig {
        FusionConfig {
            shots: 2,
            shot_seconds: 0.05,
            window_len: 16,
            window_stride: 16,
            ..FusionConfig::default()
        }
    }

    fn sched() -> Arc<Scheduler> {
        Arc::new(Scheduler::with_clock(
            SchedulerConfig::default(),
            Arc::new(ManualClock::new()),
        ))
    }

    /// A climate ensemble through the cached batch pipeline, costed by
    /// [`estimate_climate_batch_cost`].
    fn submit_cached_climate(
        s: &Scheduler,
        cfg: &ClimateConfig,
        sink: Arc<dyn StorageSink>,
        cache: Arc<StageCache>,
        members: usize,
    ) -> Result<JobHandle, Rejected> {
        let (cost, _warm) = estimate_climate_batch_cost(cfg, &cache, members);
        let pipeline =
            cached::build_cached_climate_batch_pipeline(cfg, sink, Arc::new(Ledger::new()), cache);
        let cfg = cfg.clone();
        submit_batch(
            s,
            "lab",
            "climate_batch_cached",
            cost,
            pipeline,
            members,
            move |m| Ok(climate::member_input(&cfg, m)),
        )
    }

    #[test]
    fn all_four_archetypes_run_as_jobs() {
        let reg = Registry::new();
        TraceContext::root(&reg).scope(|| {
            let s = sched();
            let ledger = || Arc::new(Ledger::new());
            let climate_cfg = small_climate();
            let climate_h = submit_batch(
                &s,
                "climate_lab",
                "climate_batch",
                2,
                climate::build_batch_pipeline(&climate_cfg, Arc::new(MemSink::new()), ledger()),
                2,
                move |m| Ok(climate::member_input(&climate_cfg, m)),
            )
            .unwrap();
            let materials_cfg = MaterialsConfig {
                structures: 4,
                cell_atoms: 2,
                ..MaterialsConfig::default()
            };
            let materials_h = submit_batch(
                &s,
                "matsci",
                "materials_batch",
                2,
                materials::build_batch_pipeline(&materials_cfg, Arc::new(MemSink::new()), ledger()),
                2,
                move |m| materials::member_input(&materials_cfg, m),
            )
            .unwrap();
            let fusion_cfg = small_fusion();
            let fusion_h = submit_batch(
                &s,
                "tokamak",
                "fusion_batch",
                2,
                fusion::build_batch_pipeline(&fusion_cfg, Arc::new(MemSink::new()), ledger()),
                2,
                move |m| Ok(fusion::member_input(&fusion_cfg, m)),
            )
            .unwrap();
            let bio_cfg = BioConfig {
                patients: 4,
                tile_len: 32,
                k: 2,
                ..BioConfig::default()
            };
            let bio_h = submit_batch(
                &s,
                "clinic",
                "bio_batch",
                2,
                bio::build_batch_pipeline(&bio_cfg, Arc::new(MemSink::new()), ledger()),
                2,
                move |m| bio::member_input(&bio_cfg, m),
            )
            .unwrap();
            let transcript = s.run_until_idle();
            assert_eq!(transcript.len(), 4);
            for h in [climate_h, materials_h, fusion_h, bio_h] {
                match h.wait() {
                    JobOutcome::Completed(out) => assert!(out.items > 0),
                    other => panic!("job did not complete: {other:?}"),
                }
            }
        });
    }

    /// A dispatched fusion job stops when its handle is cancelled: a
    /// hook on the shard stage cancels once member 0 has sharded, and a
    /// hook on the first stage holds every other member back until
    /// then, so each of them meets the fired token at its next stage
    /// boundary. (The opaque run closure this replaces could only be
    /// stopped while still queued.)
    #[test]
    fn cancelling_a_dispatched_fusion_batch_stops_it_between_members() {
        let reg = Registry::new();
        TraceContext::root(&reg).scope(|| {
            let s = sched();
            let cfg = small_fusion();
            let sink = Arc::new(MemSink::new());
            let members = 3;
            let handle: Arc<Mutex<Option<JobHandle>>> = Arc::default();
            let cancelled = Arc::new((Mutex::new(false), Condvar::new()));

            let (hook_handle, hook_cancelled) = (handle.clone(), cancelled.clone());
            let wait_cancelled = cancelled.clone();
            let pipeline =
                fusion::build_batch_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()))
                    .decorate_stage("extract", |inner| {
                        let held = move |item: Member<FusionData>, c: &mut StageCounters| {
                            if item.0 != 0 {
                                let (fired, signal) = &*wait_cancelled;
                                let mut fired = fired.lock().expect("latch");
                                while !*fired {
                                    fired = signal.wait(fired).expect("latch");
                                }
                            }
                            inner(item, c)
                        };
                        (Arc::new(held), None)
                    })
                    .decorate_stage("shard", |inner| {
                        let cancelling = move |item: Member<FusionData>, c: &mut StageCounters| {
                            let member = item.0;
                            let out = inner(item, c);
                            if member == 0 {
                                let handle = hook_handle.lock().expect("handle");
                                handle.as_ref().expect("submitted").cancel();
                                *hook_cancelled.0.lock().expect("latch") = true;
                                hook_cancelled.1.notify_all();
                            }
                            out
                        };
                        (Arc::new(cancelling), None)
                    });
            let job = submit_batch(
                &s,
                "tokamak",
                "fusion_batch",
                members as u64,
                pipeline,
                members,
                move |m| Ok(fusion::member_input(&cfg, m)),
            )
            .unwrap();
            *handle.lock().expect("handle") = Some(job);

            let transcript = s.run_until_idle();
            assert_eq!(transcript.len(), 1);
            assert_eq!(transcript[0].outcome, JobOutcome::Cancelled);
            let blobs = sink.list().unwrap();
            assert!(
                blobs.iter().any(|n| n.starts_with("fusion/m0/")),
                "member 0 sharded before the cancel: {blobs:?}"
            );
            assert!(
                !blobs
                    .iter()
                    .any(|n| n.starts_with("fusion/m1/") || n.starts_with("fusion/m2/")),
                "members past the cancel must not shard: {blobs:?}"
            );
        });
    }

    #[test]
    fn warm_cache_shrinks_climate_cost_estimate() {
        let reg = Registry::new();
        TraceContext::root(&reg).scope(|| {
            let cfg = small_climate();
            let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
            let cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), 1 << 22));
            let members = 3;

            let (cold_cost, warm0) = estimate_climate_batch_cost(&cfg, &cache, members);
            assert_eq!((cold_cost, warm0), (members as u64, 0));

            // Populate the cache by running the cached batch once.
            let s = sched();
            let h = submit_cached_climate(&s, &cfg, sink.clone(), cache.clone(), members).unwrap();
            s.run_until_idle();
            assert!(matches!(h.wait(), JobOutcome::Completed(_)));

            // Every member's regrid entry is now warm: the estimate
            // collapses to the 1-unit floor.
            let (warm_cost, warm) = estimate_climate_batch_cost(&cfg, &cache, members);
            assert_eq!(warm, members);
            assert_eq!(warm_cost, 1);
        });
    }

    #[test]
    fn cached_cost_respects_quota_where_cold_would_reject() {
        let reg = Registry::new();
        TraceContext::root(&reg).scope(|| {
            let cfg = small_climate();
            let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
            let cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), 1 << 22));
            let members = 3;

            // Warm the cache first.
            let s0 = sched();
            submit_cached_climate(&s0, &cfg, sink.clone(), cache.clone(), members).unwrap();
            s0.run_until_idle();

            // A quota of 2 cost units rejects the cold submission (cost
            // 3) but admits the warm one (cost 1).
            let s = sched();
            s.register_tenant(TenantConfig::new("lab").cost_quota(2));
            let cold_cfg = cfg.clone();
            let cold = submit_batch(
                &s,
                "lab",
                "climate_batch",
                members as u64,
                climate::build_batch_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new())),
                members,
                move |m| Ok(climate::member_input(&cold_cfg, m)),
            );
            assert!(matches!(cold, Err(Rejected::QuotaExceeded { .. })));
            let warm = submit_cached_climate(&s, &cfg, sink, cache, members);
            assert!(warm.is_ok());
            s.run_until_idle();
        });
    }
}
