//! The seven workloads. Each sets up its inputs from the seed, runs
//! one layer combination per iteration through the program's public
//! API, and digests the decoded outputs.

pub mod archetypes;
pub mod climate;
pub mod ensemble;
pub mod sched;
pub mod shard;
pub mod tabular;

use crate::gen::Digest;
use crate::harness::Workload;
use drai_io::shard::ShardReader;
use drai_io::sink::StorageSink;

/// Set up workload `name` for `seed`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tabular_fig1" => Box::new(tabular::Tabular::setup(seed)),
        "climate_single" => Box::new(climate::ClimateSingle::setup(seed)?),
        "ensemble_cold" => Box::new(ensemble::Ensemble::setup(seed, false)?),
        "ensemble_warm" => Box::new(ensemble::Ensemble::setup(seed, true)?),
        "shard_roundtrip" => Box::new(shard::ShardRoundtrip::setup(seed)),
        "archetypes_table1" => Box::new(archetypes::Archetypes::setup(seed)?),
        "sched_small_jobs" => Box::new(sched::SchedSmallJobs::setup(seed)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Times the set-up of `name` is repeated at each point of a run where
/// it is timed: more often where one set-up takes milliseconds, so the
/// quartile is steady.
pub fn setup_reps(name: &str) -> usize {
    match name {
        "sched_small_jobs" | "tabular_fig1" | "shard_roundtrip" => 5,
        _ => 1,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Absorb everything under `prefix` in `sink` into `digest`, as a
/// consumer would see it: shard runs by their *decoded* records, read
/// with `ShardReader::read_all` in manifest order (framing may change,
/// data may not), any other blob by its bytes. Names are absorbed
/// without `prefix`, so one member of a batch digests like the same
/// member run alone under another prefix.
pub fn digest_outputs(
    sink: &dyn StorageSink,
    prefix: &str,
    digest: &mut Digest,
) -> Result<(), String> {
    for name in sink.list().map_err(err)? {
        let Some(local) = name.strip_prefix(prefix) else {
            continue;
        };
        if local.ends_with(".shard") {
            continue; // read through its manifest
        }
        digest.text(local);
        if let Some(run) = name.strip_suffix(".manifest.json") {
            let reader = ShardReader::open(run, sink).map_err(err)?;
            for record in reader.read_all().map_err(err)? {
                digest.record(&record);
            }
        } else {
            digest.record(&sink.read_file(&name).map_err(err)?);
        }
    }
    Ok(())
}
