//! `climate_single`: Table 1 row 1, one member, sequential engine.
//! drai-formats (NetCDF parse, npy, zip), the regrid and normalize
//! kernels and provenance hashing do the work, on `Pipeline::run`; no
//! cache, no streaming executor. Synthesis of the raw files is the
//! download stand-in and belongs to set-up.

use super::{digest_outputs, err};
use crate::clock;
use crate::gen::Digest;
use crate::harness::{Iteration, Workload};
use crate::host::{mbps, rate_of};
use crate::trace::Recorder;
use drai_domains::climate::{self, ClimateConfig, ClimateData, VARIABLES};
use drai_formats::netcdf::NcFile;
use drai_formats::npy::write_npy;
use drai_formats::zip::{write_zip, ZipEntry};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::{Artifact, Ledger};
use drai_tensor::stats::Welford;
use drai_tensor::{LatLonGrid, Tensor};
use drai_transform::regrid;
use std::hint::black_box;
use std::sync::Arc;

/// Source grid (lat × lon).
pub const SRC_GRID: (usize, usize) = (96, 192);
/// Target grid (lat × lon).
pub const DST_GRID: (usize, usize) = (64, 128);
/// Timesteps per variable.
pub const TIMESTEPS: usize = 96;
/// Target shard size.
pub const SHARD_BYTES: usize = 4 << 20;

/// The climate configuration both climate workloads share, apart from
/// the number of timesteps.
pub fn config(seed: u64, timesteps: usize) -> ClimateConfig {
    ClimateConfig {
        src_grid: LatLonGrid::global(SRC_GRID.0, SRC_GRID.1),
        dst_grid: LatLonGrid::global(DST_GRID.0, DST_GRID.1),
        timesteps,
        seed,
        shard_bytes: SHARD_BYTES,
        ..ClimateConfig::default()
    }
}

/// Span name for a climate pipeline stage: the two kernel stages are
/// per-layer metrics, the other two only show in the trace.
fn stage_span(stage: &str) -> String {
    match stage {
        "regrid" => "transform.regrid_s".to_string(),
        "normalize" => "transform.normalize_field_s".to_string(),
        other => format!("domains.climate.{other}"),
    }
}

/// The set-up workload: raw NetCDF blobs in a sink.
pub struct ClimateSingle {
    cfg: ClimateConfig,
    raw: MemSink,
    names: Vec<String>,
    raw_bytes: u64,
}

impl ClimateSingle {
    /// Synthesize the raw files.
    pub fn setup(seed: u64) -> Result<ClimateSingle, String> {
        let cfg = config(seed, TIMESTEPS);
        let raw = MemSink::new();
        let names = climate::generate_raw(&cfg, &raw).map_err(err)?;
        let raw_bytes = raw.total_bytes() as u64;
        Ok(ClimateSingle {
            cfg,
            raw,
            names,
            raw_bytes,
        })
    }

    /// Read and parse every raw file, the way `climate::run` ingests.
    fn ingest(&self, rec: &Recorder, ledger: &Ledger) -> Result<(ClimateData, f64), String> {
        let mut fields = Vec::with_capacity(self.names.len());
        let mut parse_s = 0.0;
        for (vi, name) in self.names.iter().enumerate() {
            let bytes = rec
                .scope("io.sink_read", || self.raw.read_file(name))
                .map_err(err)?;
            let (nc, secs) =
                clock::time(|| rec.scope("formats.netcdf_parse_s", || NcFile::from_bytes(&bytes)));
            parse_s += secs;
            let nc = nc.map_err(err)?;
            let var = nc
                .var(VARIABLES[vi].0)
                .ok_or_else(|| format!("{name} has no variable {}", VARIABLES[vi].0))?;
            fields.push(rec.scope("formats.netcdf_to_f64", || var.data.to_f64_vec()));
            rec.scope("provenance.ingest_record", || {
                ledger.record(
                    "ingest",
                    [("file".to_string(), name.clone())],
                    vec![Artifact::new(name, &bytes)],
                    vec![],
                )
            });
        }
        let data = ClimateData {
            fields,
            grid: self.cfg.src_grid.clone(),
            timesteps: self.cfg.timesteps,
            normalizers: vec![],
        };
        Ok((data, parse_s))
    }
}

impl Workload for ClimateSingle {
    fn bytes_per_iteration(&self) -> u64 {
        self.raw_bytes
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("src_nlat", SRC_GRID.0 as f64),
            ("src_nlon", SRC_GRID.1 as f64),
            ("dst_nlat", DST_GRID.0 as f64),
            ("dst_nlon", DST_GRID.1 as f64),
            ("timesteps", TIMESTEPS as f64),
            ("variables", VARIABLES.len() as f64),
            ("raw_bytes", self.raw_bytes as f64),
            ("shard_bytes", SHARD_BYTES as f64),
        ]
    }

    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
        let sink = Arc::new(MemSink::new());
        let ledger = Arc::new(Ledger::new());
        let pipeline = climate::build_pipeline(&self.cfg, sink.clone(), ledger.clone());

        let (timed, wall_s) = clock::time(|| {
            rec.scope("iteration", || -> Result<(f64, f64), String> {
                let (input, parse_s) = self.ingest(rec, &ledger)?;
                let started_ns = rec.now_ns();
                let (run, run_s) = clock::time(|| pipeline.run(input));
                let run = run.map_err(err)?;
                // Stages ran back to back from `started_ns`.
                let mut cursor = started_ns;
                for stage in &run.stages {
                    let end = cursor + stage.throughput.elapsed.as_nanos() as u64;
                    rec.add(&stage_span(&stage.name), cursor, end);
                    cursor = end;
                }
                Ok((parse_s, run_s - run.total_elapsed().as_secs_f64()))
            })
        });
        let (parse_s, run_overhead_s) = timed?;

        let mut digest = Digest::new();
        digest_outputs(sink.as_ref(), "", &mut digest)?;
        Ok(Iteration {
            wall_s,
            digest: digest.finish(),
            attempted: 1,
            failed: 0,
            values: vec![
                ("core.run_overhead_s".into(), run_overhead_s.max(0.0)),
                (
                    "formats.netcdf_parse_MBps".into(),
                    mbps(self.raw_bytes, parse_s),
                ),
                ("provenance.ledger_records".into(), ledger.len() as f64),
            ],
        })
    }

    fn probes(&mut self) -> Result<Vec<(String, f64)>, String> {
        let rec = Recorder::new();
        let (data, _) = self.ingest(&rec, &Ledger::new())?;
        let (src, dst) = (&self.cfg.src_grid, &self.cfg.dst_grid);
        let cells = src.ncells();
        let stack_bytes = (self.cfg.timesteps * cells * 8) as u64;

        // Variable 0 regrids bilinearly, variable 3 conservatively.
        let bilinear = rate_of(stack_bytes, 3, || {
            for field in data.fields[0].chunks_exact(cells) {
                black_box(regrid::bilinear(src, field, dst).expect("field fits its grid"));
            }
        });
        let conservative = rate_of(stack_bytes, 3, || {
            for field in data.fields[3].chunks_exact(cells) {
                black_box(regrid::conservative(src, field, dst).expect("field fits its grid"));
            }
        });
        let welford = rate_of(stack_bytes, 3, || {
            let mut w = Welford::new();
            w.extend(black_box(&data.fields[0]));
            black_box(w);
        });

        // One timestep on the target grid, as the shard stage packs it.
        let field: Vec<f32> = regrid::bilinear(src, &data.fields[0][..cells], dst)
            .map_err(err)?
            .iter()
            .map(|&x| x as f32)
            .collect();
        let tensor = Tensor::from_vec(field, &dst.shape()).map_err(err)?;
        let npy_bytes = write_npy(&tensor).len() as u64;
        let reps = 4 * TIMESTEPS as u64;
        let npy = rate_of(npy_bytes * reps, 3, || {
            for _ in 0..reps {
                black_box(write_npy(black_box(&tensor)));
            }
        });
        let entries: Vec<ZipEntry> = VARIABLES
            .iter()
            .map(|(name, _, _)| ZipEntry {
                name: format!("{name}.npy"),
                data: write_npy(&tensor),
            })
            .collect();
        let zip_bytes = entries.iter().map(|e| e.data.len() as u64).sum::<u64>();
        let zip = rate_of(zip_bytes * TIMESTEPS as u64, 3, || {
            for _ in 0..TIMESTEPS {
                black_box(write_zip(black_box(&entries)).expect("entries are far below 4 GiB"));
            }
        });

        let blob = self.raw.read_file(&self.names[0]).map_err(err)?;
        let artifact_hash = rate_of(blob.len() as u64, 3, || {
            black_box(Artifact::new("probe", black_box(&blob)));
        });

        Ok(vec![
            ("transform.regrid_bilinear_MBps".into(), bilinear),
            ("transform.regrid_conservative_MBps".into(), conservative),
            ("tensor.welford_MBps".into(), welford),
            ("formats.npy_write_MBps".into(), npy),
            ("formats.zip_write_MBps".into(), zip),
            ("provenance.artifact_hash_MBps".into(), artifact_hash),
        ])
    }
}
