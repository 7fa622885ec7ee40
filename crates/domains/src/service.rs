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

use crate::{DomainError, Member};
use drai_core::pipeline::Pipeline;
use drai_core::StreamingBatchExt;
use drai_sched::{JobHandle, JobOutput, JobSpec, Rejected, Scheduler};

/// Submit a batch as a job for `tenant`: when dispatched, members
/// `0..members` are made by `member_input` and streamed through
/// `pipeline` (any batch pipeline — e.g.
/// [`crate::climate::build_batch_pipeline`],
/// [`crate::cached::build_cached_climate_batch_pipeline`]) under the job's
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bio::{self, BioConfig};
    use crate::cached;
    use crate::climate::{self, ClimateConfig};
    use crate::fusion::{self, FusionConfig, FusionData};
    use crate::materials::{self, MaterialsConfig};
    use drai_cache::{CacheBytes, CacheKey, StageCache};
    use drai_core::pipeline::StageCounters;
    use drai_io::sink::{MemSink, StorageSink};
    use drai_provenance::Ledger;
    use drai_sched::{JobOutcome, SchedulerConfig};
    use drai_telemetry::clock::ManualClock;
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

    /// A cached climate batch run as a job stores each member's regrid,
    /// normalize and shard entries under the keys computed outside the
    /// run: the first from the member's bytes, each later one chained
    /// from its predecessor's (`CacheKey::chained`), with the stage
    /// graph's own declarations as fingerprints.
    #[test]
    fn a_cached_climate_job_stores_entries_under_keys_computed_outside() {
        let reg = Registry::new();
        TraceContext::root(&reg).scope(|| {
            let cfg = small_climate();
            let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
            let cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), 1 << 22));
            let members = 3;
            let graph = climate::build_batch_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()));
            let fp = |stage| graph.fingerprint(stage).unwrap();
            let keys = |m: usize| {
                let input = Member(m, climate::member_input(&cfg, m)).to_cache_bytes();
                let regrid = CacheKey::compute("regrid", &input, fp("regrid"));
                let normalize = regrid.chained("normalize", fp("normalize"));
                let shard = normalize.chained("shard", fp("shard"));
                [regrid, normalize, shard]
            };
            let stored = |m: usize| keys(m).iter().filter(|k| cache.contains(k)).count();
            assert!((0..members).all(|m| stored(m) == 0));

            let s = sched();
            let pipeline = cached::build_cached_climate_batch_pipeline(
                &cfg,
                sink,
                Arc::new(Ledger::new()),
                cache.clone(),
            );
            let job_cfg = cfg.clone();
            let h = submit_batch(
                &s,
                "lab",
                "climate_batch_cached",
                members as u64,
                pipeline,
                members,
                move |m| Ok(climate::member_input(&job_cfg, m)),
            )
            .unwrap();
            s.run_until_idle();
            assert!(matches!(h.wait(), JobOutcome::Completed(_)));
            assert!((0..members).all(|m| stored(m) == 3));
        });
    }
}
