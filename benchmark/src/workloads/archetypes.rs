//! `archetypes_table1`: Table 1 rows 2–4 — `fusion::run`, `bio::run`
//! and `materials::run` back to back, each with its own synthesis,
//! because that is what `run` is. The breadth of drai-domains (align,
//! anonymize + keystream shard, xyz parse + graph encode): the guard
//! that a refactor of the domain layer slows no archetype.

use super::{digest_outputs, err};
use crate::clock;
use crate::gen::Digest;
use crate::harness::{Iteration, Workload};
use crate::metrics::sanitize;
use crate::trace::Recorder;
use drai_domains::bio::{self, BioConfig};
use drai_domains::fusion::{self, FusionConfig};
use drai_domains::materials::{self, MaterialsConfig};
use drai_domains::{DomainError, DomainRun};
use drai_io::sink::{MemSink, StorageSink};
use std::sync::Arc;

/// Fusion shots (1 s each); sized so the archetype takes ≥ 80 ms.
pub const FUSION_SHOTS: usize = 128;
/// Bio patients; sized so the archetype takes ≥ 80 ms.
pub const BIO_PATIENTS: usize = 2048;
/// DNA tile length per patient.
pub const BIO_TILE_LEN: usize = 256;
/// Materials structures; sized so the archetype takes ≥ 80 ms.
pub const MATERIALS_STRUCTURES: usize = 1536;

type RunFn = Box<dyn Fn(Arc<dyn StorageSink>) -> Result<DomainRun, DomainError>>;

/// The three archetypes, configured.
pub struct Archetypes {
    domains: Vec<(&'static str, RunFn)>,
    /// Shard payload bytes one iteration produces (fixed for a seed),
    /// from the reference run in set-up.
    payload_bytes: u64,
}

/// Payload bytes a run's last (shard) stage reported.
fn shard_payload(run: &DomainRun) -> u64 {
    run.stages.last().map_or(0, |s| s.throughput.bytes)
}

impl Archetypes {
    /// Configure the archetypes and run each once to learn how many
    /// payload bytes an iteration produces. The seed reaches each
    /// domain through its config's `seed` field.
    pub fn setup(seed: u64) -> Result<Archetypes, String> {
        let fusion_cfg = FusionConfig {
            shots: FUSION_SHOTS,
            shot_seconds: 1.0,
            seed,
            ..FusionConfig::default()
        };
        let bio_cfg = BioConfig {
            patients: BIO_PATIENTS,
            tile_len: BIO_TILE_LEN,
            seed,
            ..BioConfig::default()
        };
        let materials_cfg = MaterialsConfig {
            structures: MATERIALS_STRUCTURES,
            seed,
            ..MaterialsConfig::default()
        };
        let domains: Vec<(&'static str, RunFn)> = vec![
            (
                "fusion",
                Box::new(move |sink| fusion::run(&fusion_cfg, sink)),
            ),
            ("bio", Box::new(move |sink| bio::run(&bio_cfg, sink))),
            (
                "materials",
                Box::new(move |sink| materials::run(&materials_cfg, sink)),
            ),
        ];
        let mut payload_bytes = 0;
        for (_, run) in &domains {
            payload_bytes += shard_payload(&run(Arc::new(MemSink::new())).map_err(err)?);
        }
        Ok(Archetypes {
            domains,
            payload_bytes,
        })
    }
}

impl Workload for Archetypes {
    fn bytes_per_iteration(&self) -> u64 {
        self.payload_bytes
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fusion_shots", FUSION_SHOTS as f64),
            ("bio_patients", BIO_PATIENTS as f64),
            ("bio_tile_len", BIO_TILE_LEN as f64),
            ("materials_structures", MATERIALS_STRUCTURES as f64),
            ("payload_bytes", self.payload_bytes as f64),
        ]
    }

    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
        let sinks: Vec<Arc<MemSink>> = self.domains.iter().map(|_| Arc::default()).collect();

        let (runs, wall_s) = clock::time(|| {
            rec.scope("iteration", || -> Result<Vec<DomainRun>, DomainError> {
                let mut runs = Vec::with_capacity(self.domains.len());
                for ((name, run), sink) in self.domains.iter().zip(&sinks) {
                    let done = rec.scope(&format!("domains.{name}_run_s"), || {
                        let started_ns = rec.now_ns();
                        let done = run(sink.clone())?;
                        // The pipeline stages are the last thing `run`
                        // does: lay them back to back up to its end.
                        let stage_ns: u64 = done
                            .stages
                            .iter()
                            .map(|s| s.throughput.elapsed.as_nanos() as u64)
                            .sum();
                        let mut cursor = rec.now_ns().saturating_sub(stage_ns).max(started_ns);
                        for stage in &done.stages {
                            let end = cursor + stage.throughput.elapsed.as_nanos() as u64;
                            let span = format!("domains.{name}.stage_s.{}", sanitize(&stage.name));
                            rec.add(&span, cursor, end);
                            cursor = end;
                        }
                        Ok::<DomainRun, DomainError>(done)
                    })?;
                    runs.push(done);
                }
                Ok(runs)
            })
        });
        let runs = runs.map_err(err)?;

        let mut digest = Digest::new();
        for sink in &sinks {
            // `raw/` holds each archetype's synthesized inputs.
            for prefix in ["fusion/", "bio/", "materials/"] {
                digest_outputs(sink.as_ref(), prefix, &mut digest)?;
            }
        }
        let produced: u64 = runs.iter().map(shard_payload).sum();
        Ok(Iteration {
            wall_s,
            digest: digest.finish(),
            attempted: 1,
            failed: u64::from(produced != self.payload_bytes),
            values: Vec::new(),
        })
    }
}
