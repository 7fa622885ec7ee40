//! Climate archetype: `download → regrid → normalize → shard`
//! (Table 1 row 1; §3.1; the ClimaX preprocessing pattern).
//!
//! Raw data is synthesized as CMIP-like multivariate global fields with
//! realistic spatial correlation (spectral synthesis: red-noise spherical
//! harmonics proxy on the lat-lon grid plus a meridional climatology), and
//! written as genuine NetCDF-3 files. The pipeline then:
//!
//! 1. **ingest** + **validate** — parse each variable's NetCDF file, then
//!    check every variable is complete on the source grid;
//! 2. **regrid** — bilinear (state variables) or conservative (flux
//!    variables) remap onto the target grid;
//! 3. **normalize** — per-variable z-score with statistics fitted across
//!    the whole record (reduced in parallel across timesteps);
//! 4. **shard** — split by timestep key, pack `[vars, lat, lon]` f32
//!    tensors into NPY members of NPZ (STORE ZIP) shards.

use crate::{DomainError, DomainRun, Member, StageItem, Witness};
use drai_core::assess::key;
use drai_core::dataset::{DatasetManifest, Modality, VariableSpec};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::{readiness::ProcessingStage as S, DomainTemplate, TemplateStep};
use drai_formats::netcdf::{NcAttr, NcDim, NcFile, NcValues, NcVar};
use drai_formats::npy;
use drai_formats::zip::{archive_len, ZipWriter};
use drai_io::parallel::par_map;
use drai_io::sink::StorageSink;
use drai_provenance::Ledger;
use drai_tensor::stats::Welford;
use drai_tensor::{DType, LatLonGrid};
use drai_transform::normalize::{Method, Normalizer};
use drai_transform::regrid::{RegridPlan, Scheme};
use drai_transform::split::{partition, Fractions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Variables in the synthetic CMIP-like set (ORBIT/ClimaX-style subset).
pub const VARIABLES: [(&str, &str, bool); 4] = [
    // (name, unit, flux-like → conservative regridding)
    ("tas", "K", false),
    ("psl", "Pa", false),
    ("uas", "m", false), // wind component; unit simplified to its base
    ("pr", "1", true),   // precipitation-like flux, conservative
];

/// Generator + pipeline configuration.
#[derive(Debug, Clone)]
pub struct ClimateConfig {
    /// Source grid (e.g. 96×144 for a CMIP-like model grid).
    pub src_grid: LatLonGrid,
    /// Target training grid (e.g. 64×128, ClimaX's 5.625°-style grid).
    pub dst_grid: LatLonGrid,
    /// Number of timesteps to synthesize.
    pub timesteps: usize,
    /// RNG seed (recorded in provenance).
    pub seed: u64,
    /// Target shard payload size in bytes.
    pub shard_bytes: usize,
    /// Split fractions.
    pub fractions: Fractions,
}

impl Default for ClimateConfig {
    fn default() -> Self {
        ClimateConfig {
            src_grid: LatLonGrid::global(48, 96),
            dst_grid: LatLonGrid::global(32, 64),
            timesteps: 24,
            seed: 20_250_704,
            shard_bytes: 4 << 20,
            fractions: Fractions::standard(),
        }
    }
}

/// Synthesize one variable's field stack `[timesteps, nlat, nlon]`.
///
/// Structure = meridional climatology + travelling planetary-scale waves +
/// weather noise, so fields are spatially smooth (regridding has something
/// to preserve) and temporally coherent.
fn synth_variable(cfg: &ClimateConfig, var_index: usize, rng: &mut SmallRng) -> Vec<f64> {
    let (nlat, nlon) = (cfg.src_grid.nlat(), cfg.src_grid.nlon());
    let base = match var_index {
        0 => 288.0,     // tas ~ K
        1 => 101_325.0, // psl ~ Pa
        2 => 0.0,       // uas ~ m/s
        _ => 3.0e-5,    // pr ~ kg m-2 s-1 scale
    };
    let amp = match var_index {
        0 => 40.0,
        1 => 2_000.0,
        2 => 15.0,
        _ => 2.5e-5,
    };
    // Random wave phases per timestep-coherent mode.
    let phases: Vec<(f64, f64, f64)> = (0..4)
        .map(|_| {
            (
                rng.gen_range(0.0..std::f64::consts::TAU),
                rng.gen_range(0.5..2.5),  // zonal wavenumber scale
                rng.gen_range(0.02..0.2), // phase speed
            )
        })
        .collect();
    let mut out = Vec::with_capacity(cfg.timesteps * nlat * nlon);
    for t in 0..cfg.timesteps {
        for i in 0..nlat {
            let lat = cfg.src_grid.lat_center(i).to_radians();
            // Meridional structure: warm equator / cold poles (or the
            // analogue for the variable).
            let climo = base + amp * 0.5 * lat.cos();
            for j in 0..nlon {
                let lon = cfg.src_grid.lon_center(j).to_radians();
                let mut v = climo;
                for (k, &(phase, wn, speed)) in phases.iter().enumerate() {
                    let kf = (k + 1) as f64;
                    v += amp * 0.1 / kf
                        * ((wn * kf * lon + phase - speed * t as f64 * kf).sin()
                            * (kf * lat).cos());
                }
                v += amp * 0.02 * (rng.gen::<f64>() - 0.5);
                // Flux-like variables are non-negative.
                if VARIABLES[var_index].2 {
                    v = v.max(0.0);
                }
                out.push(v);
            }
        }
    }
    out
}

/// Generate the raw NetCDF files (one per variable) into `sink` under
/// `raw/`. Returns the blob names. This is the "download" stand-in.
pub fn generate_raw(
    cfg: &ClimateConfig,
    sink: &dyn StorageSink,
) -> Result<Vec<String>, DomainError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let (nlat, nlon) = (cfg.src_grid.nlat(), cfg.src_grid.nlon());
    let mut names = Vec::new();
    for (vi, (name, unit, _)) in VARIABLES.iter().enumerate() {
        let values = synth_variable(cfg, vi, &mut rng);
        let file = NcFile {
            dims: vec![
                NcDim {
                    name: "time".into(),
                    size: cfg.timesteps,
                    is_record: true,
                },
                NcDim {
                    name: "lat".into(),
                    size: nlat,
                    is_record: false,
                },
                NcDim {
                    name: "lon".into(),
                    size: nlon,
                    is_record: false,
                },
            ],
            global_attrs: vec![NcAttr {
                name: "source".into(),
                values: NcValues::Char("drai synthetic CMIP-like generator".into()),
            }],
            vars: vec![
                NcVar {
                    name: "lat".into(),
                    dims: vec![1],
                    attrs: vec![],
                    data: NcValues::Double((0..nlat).map(|i| cfg.src_grid.lat_center(i)).collect()),
                },
                NcVar {
                    name: "lon".into(),
                    dims: vec![2],
                    attrs: vec![],
                    data: NcValues::Double((0..nlon).map(|j| cfg.src_grid.lon_center(j)).collect()),
                },
                NcVar {
                    name: (*name).into(),
                    dims: vec![0, 1, 2],
                    attrs: vec![NcAttr {
                        name: "units".into(),
                        values: NcValues::Char((*unit).into()),
                    }],
                    data: NcValues::Double(values),
                },
            ],
        };
        let blob = format!("raw/{name}.nc");
        sink.write_file(&blob, &file.to_bytes()?)?;
        names.push(blob);
    }
    Ok(names)
}

/// The artifact that flows between climate pipeline stages.
#[derive(Clone)]
pub struct ClimateData {
    /// Per-variable field stacks, each `timesteps × nlat × nlon` (f64
    /// until normalization, then cast to f32 at structuring time).
    pub fields: Vec<Vec<f64>>,
    /// Grid the fields currently live on.
    pub grid: LatLonGrid,
    /// Timesteps.
    pub timesteps: usize,
    /// Fitted normalizers (after the normalize stage).
    pub normalizers: Vec<Normalizer>,
}

/// Stage body: schema/shape validation — every variable complete on the
/// grid.
fn validate_stage(data: ClimateData, c: &mut StageCounters) -> Result<ClimateData, String> {
    let expect = data.timesteps * data.grid.ncells();
    for (vi, f) in data.fields.iter().enumerate() {
        if f.len() != expect {
            return Err(format!(
                "variable {vi}: {} values, expected {expect}",
                f.len()
            ));
        }
    }
    c.records = data.timesteps as u64;
    c.bytes = (data.fields.len() * expect * 8) as u64;
    Ok(data)
}

/// Timesteps one unit of regrid work covers: small enough that the
/// units of every variable spread evenly over the CPUs, large enough
/// that handing one out costs nothing beside it.
const REGRID_BLOCK: usize = 8;

/// Stage body: bilinear/conservative remap onto the target grid. The
/// geometry of each scheme is planned once; blocks of timesteps are then
/// remapped in parallel, each into its own part of the output stacks.
fn regrid_stage(
    dst: &LatLonGrid,
    mut data: ClimateData,
    c: &mut StageCounters,
) -> Result<ClimateData, String> {
    let src = data.grid.clone();
    let dst = dst.clone();
    let (src_cells, dst_cells) = (src.ncells(), dst.ncells());
    let bilinear = RegridPlan::new(&src, &dst, Scheme::Bilinear);
    let conservative = RegridPlan::new(&src, &dst, Scheme::Conservative);
    let mut regridded: Vec<Vec<f64>> = data
        .fields
        .iter()
        .map(|_| vec![0.0; data.timesteps * dst_cells])
        .collect();

    // One unit per (timestep block, variable), blocks outermost: the
    // contiguous share `par_map` gives a CPU then holds every variable's
    // blocks in proportion, whatever the schemes cost.
    let mut units = Vec::new();
    for (vi, (stack, out)) in data.fields.iter().zip(&mut regridded).enumerate() {
        if stack.len() != data.timesteps * src_cells {
            return Err(format!(
                "variable {vi}: {} values, expected {}",
                stack.len(),
                data.timesteps * src_cells
            ));
        }
        let plan = if VARIABLES[vi].2 {
            &conservative
        } else {
            &bilinear
        };
        let blocks = stack
            .chunks(REGRID_BLOCK * src_cells)
            .zip(out.chunks_mut(REGRID_BLOCK * dst_cells));
        units.extend(blocks.enumerate().map(|(bi, block)| (bi, plan, block)));
    }
    units.sort_by_key(|&(bi, ..)| bi);
    par_map(units, |(_, plan, (fields, outs))| {
        fields
            .chunks_exact(src_cells)
            .zip(outs.chunks_exact_mut(dst_cells))
            .try_for_each(|(field, out)| plan.apply_into(field, out))
    })
    .into_iter()
    .collect::<Result<(), _>>()
    .map_err(|e| format!("{e}"))?;
    data.fields = regridded;
    data.grid = dst;
    c.records = data.timesteps as u64;
    c.bytes = (data.fields.len() * data.timesteps * data.grid.ncells() * 8) as u64;
    Ok(data)
}

/// Stage body: per-variable z-score. Welford moments are fitted per
/// 64 Ki-value chunk and merged in chunk order, so the fit is the same on
/// every host; each variable's fitted mean and std go on record, and so
/// do the values the fit found missing, out of all it visited.
fn normalize_stage(mut data: ClimateData, c: &mut StageCounters) -> Result<ClimateData, String> {
    let fits: Vec<(Normalizer, u64)> = par_map(&data.fields, |stack| {
        let w = Welford::of_chunks(stack, 64 * 1024);
        let n = Normalizer::from_welford(Method::ZScore, &w).map_err(|e| format!("{e}"))?;
        Ok((n, w.nan_count()))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    let missing: u64 = fits.iter().map(|(_, nan)| nan).sum();
    let normalizers: Vec<Normalizer> = fits.into_iter().map(|(n, _)| n).collect();
    par_map(data.fields.iter_mut().zip(&normalizers), |(stack, n)| {
        n.apply_slice(stack)
    });
    for ((name, ..), n) in VARIABLES.iter().zip(&normalizers) {
        c.measure(&format!("{name}.mean"), format!("{:.6}", n.offset));
        c.measure(&format!("{name}.std"), format!("{:.6}", n.scale));
    }
    let values: usize = data.fields.iter().map(Vec::len).sum();
    c.measure(key::MISSING, missing);
    c.measure(key::VALUES, values);
    data.normalizers = normalizers;
    c.records = data.timesteps as u64;
    c.bytes = (data.fields.len() * data.timesteps * data.grid.ncells() * 8) as u64;
    Ok(data)
}

/// What every NPZ record of one shard stage shares: member names, the
/// NPY preamble of a `[lat, lon]` f32 array, and the record's length.
struct NpzLayout {
    names: Vec<String>,
    npy_header: Vec<u8>,
    ncells: usize,
    record_len: usize,
}

impl NpzLayout {
    fn new(grid: &LatLonGrid, nvars: usize) -> NpzLayout {
        let names: Vec<String> = VARIABLES[..nvars]
            .iter()
            .map(|(name, _, _)| format!("{name}.npy"))
            .collect();
        let mut npy_header = Vec::new();
        npy::write_header_into(&mut npy_header, DType::F32, &grid.shape());
        let ncells = grid.ncells();
        let member_len = npy_header.len() + ncells * 4;
        let record_len = archive_len(names.iter().map(|n| (n.len(), member_len)));
        NpzLayout {
            names,
            npy_header,
            ncells,
            record_len,
        }
    }

    /// Timestep `t` of `fields` as one NPZ record — `{var}.npy` members of
    /// `[lat, lon]` f32 — each value cast and written once, into the
    /// record: the bytes of `write_zip` over one `write_npy` per variable.
    /// Also whether every value the cast saw was finite.
    fn record(&self, fields: &[Vec<f64>], t: usize) -> (Vec<u8>, bool) {
        let mut finite = true;
        let mut zip = ZipWriter::with_capacity(self.record_len);
        for (name, stack) in self.names.iter().zip(fields) {
            let field = &stack[t * self.ncells..(t + 1) * self.ncells];
            zip.member(name, |out| {
                out.extend_from_slice(&self.npy_header);
                let at = out.len();
                out.resize(at + field.len() * 4, 0);
                for (le, &x) in out[at..].chunks_exact_mut(4).zip(field) {
                    finite &= x.is_finite();
                    le.copy_from_slice(&(x as f32).to_le_bytes());
                }
            })
            .expect("records are far below the 4 GiB zip limit");
        }
        let record = zip.finish();
        (
            record.expect("records are far below the 4 GiB zip limit"),
            finite,
        )
    }
}

/// Stage body: split by timestep key and pack NPZ shards — one NPZ
/// record per timestep with `{var}.npy` members of `[lat,lon]` f32 (the
/// ClimaX layout). A record's target is its own fields (a forecast learns
/// one timestep from another), so it is labeled when every value it
/// holds is finite — counted as each value is cast, not in a pass of its
/// own.
fn shard_stage(
    cfg: &ClimateConfig,
    sink: &dyn StorageSink,
    prefix: &str,
    data: ClimateData,
    c: &mut StageCounters,
) -> Result<ClimateData, String> {
    let layout = NpzLayout::new(&data.grid, data.fields.len());
    let mut labeled = 0;
    let records: Vec<(String, Vec<u8>)> = par_map(0..data.timesteps, |t| {
        (format!("t{t:06}"), layout.record(&data.fields, t))
    })
    .into_iter()
    .map(|(name, (record, finite))| {
        labeled += usize::from(finite);
        (name, record)
    })
    .collect();
    c.records = data.timesteps as u64;
    c.bytes = records.iter().map(|(_, rec)| rec.len() as u64).sum();
    c.measure(key::RECORDS, records.len());
    c.measure(key::LABELED, labeled);
    let parts = partition(records, cfg.seed, cfg.fractions).map_err(|e| e.to_string())?;
    let write = crate::record_shards(sink, prefix, cfg.shard_bytes);
    crate::write_splits(c, parts, write)?;
    Ok(data)
}

/// The stages of [`stage_graph`], in order.
const STEPS: [TemplateStep; 4] = [
    TemplateStep::new("validate", S::Ingest),
    TemplateStep::new("regrid", S::Preprocess),
    TemplateStep::new("normalize", S::Transform),
    TemplateStep::new("shard", S::Shard),
];

/// The climate template (§3.1): `download -> regrid -> normalize -> shard`.
/// The download is the run's `ingest`; `validate` checks its shape.
pub const TEMPLATE: DomainTemplate = DomainTemplate {
    domain: "climate",
    steps: &STEPS,
    alignment: Some("dst_grid"),
    requires_anonymization: false,
};

/// The climate stage graph, declared once for whatever flows through
/// it: a bare [`ClimateData`] (pipeline `climate`, shards under
/// `climate/`) or a [`Member`] of an ensemble (pipeline
/// `climate-batch`, shards under `climate/m<member>/` so members never
/// collide).
fn stage_graph<I: StageItem<ClimateData>>(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<I> {
    let dst = cfg.dst_grid.clone();
    let cfg_shard = cfg.clone();
    let dst_grid = [("dst_grid", format!("{}x{}", dst.nlat(), dst.nlon()))];
    let zscore = [("method", "zscore".to_string())];
    let shard_config = [("shard_bytes", cfg.shard_bytes.to_string())]
        .into_iter()
        .chain(crate::split_config(cfg.seed, cfg.fractions));
    let [validate, regrid, normalize, shard] = STEPS;

    Pipeline::builder(&I::pipeline_name(TEMPLATE.domain))
        .ledger(ledger)
        .stage(validate.name, validate.kind, |item: I, c| {
            item.try_map(|data| validate_stage(data, c))
        })
        .configured_stage(regrid.name, regrid.kind, dst_grid, move |item: I, c| {
            item.try_map(|data| regrid_stage(&dst, data, c))
        })
        .configured_stage(normalize.name, normalize.kind, zscore, |item: I, c| {
            item.try_map(|data| normalize_stage(data, c))
        })
        .configured_stage(shard.name, shard.kind, shard_config, move |item: I, c| {
            let prefix = item.shard_prefix(TEMPLATE.domain);
            item.try_map(|data| shard_stage(&cfg_shard, sink.as_ref(), &prefix, data, c))
        })
        .build()
}

/// Build the four-stage climate pipeline over one [`ClimateData`].
pub fn build_pipeline(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<ClimateData> {
    stage_graph(cfg, sink, ledger)
}

/// Raw per-variable field stacks on the source grid, as the pipeline's
/// input artifact.
fn raw_fields(cfg: &ClimateConfig, fields: Vec<Vec<f64>>) -> ClimateData {
    ClimateData {
        fields,
        grid: cfg.src_grid.clone(),
        timesteps: cfg.timesteps,
        normalizers: vec![],
    }
}

/// One ensemble member's input fields, synthesized directly (no NetCDF
/// round trip) with the member index folded into the seed — the raw
/// material for batch runs and the benchmark's ensemble workloads.
pub fn member_input(cfg: &ClimateConfig, member: usize) -> ClimateData {
    let member_cfg = ClimateConfig {
        seed: cfg.seed.wrapping_add(member as u64),
        ..cfg.clone()
    };
    let mut rng = SmallRng::seed_from_u64(member_cfg.seed);
    let fields = (0..VARIABLES.len())
        .map(|vi| synth_variable(&member_cfg, vi, &mut rng))
        .collect();
    raw_fields(cfg, fields)
}

/// Build the same pipeline over ensemble [`Member`]s, for batch
/// execution of a whole ensemble.
pub fn build_batch_pipeline(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<Member<ClimateData>> {
    stage_graph(cfg, sink, ledger)
}

/// One parsed raw variable: (raw bytes as the sink lends them, decoded
/// field).
type ParsedVar = Result<(Arc<[u8]>, Vec<f64>), DomainError>;

/// Read and parse the raw NetCDF files `raw_names` (one per entry of
/// [`VARIABLES`], in that order) on [`par_map`]: the variables decode
/// concurrently under the caller's trace context, and the results come
/// back in input order, so `witness` sees the files in file order.
pub(crate) fn ingest(
    cfg: &ClimateConfig,
    raw_names: &[String],
    sink: &dyn StorageSink,
    witness: Witness,
) -> Result<ClimateData, DomainError> {
    let parsed: Vec<ParsedVar> = par_map(raw_names.iter().zip(VARIABLES), |(blob, (name, ..))| {
        let bytes = sink.read_file(blob)?;
        let nc = NcFile::from_bytes(&bytes)?;
        let var = nc
            .vars
            .into_iter()
            .find(|v| v.name == name)
            .ok_or_else(|| DomainError::Config(format!("missing variable in {blob}")))?;
        Ok((bytes, var.data.into_f64_vec()))
    });
    let mut fields = Vec::with_capacity(parsed.len());
    for (blob, item) in raw_names.iter().zip(parsed) {
        let (bytes, data) = item?;
        witness(blob, &bytes);
        fields.push(data);
    }
    Ok(raw_fields(cfg, fields))
}

/// Run the complete climate archetype: generate raw NetCDF, execute the
/// pipeline, and return its manifest, stage metrics and ledger.
pub fn run(cfg: &ClimateConfig, sink: Arc<dyn StorageSink>) -> Result<DomainRun, DomainError> {
    crate::run_archetype(
        &TEMPLATE,
        ".shard",
        sink.as_ref(),
        || generate_raw(cfg, sink.as_ref()),
        |raw_names, witness| ingest(cfg, &raw_names, sink.as_ref(), witness),
        |ledger| build_pipeline(cfg, sink.clone(), ledger),
        |_| {
            let shape = [cfg.dst_grid.nlat(), cfg.dst_grid.nlon()];
            DatasetManifest {
                name: "cmip-synth".into(),
                domain: TEMPLATE.domain.into(),
                modality: Modality::Grid,
                schema: VARIABLES
                    .iter()
                    .map(|(name, unit, _)| VariableSpec::new(name, DType::F32, unit, &shape))
                    .collect(),
                records: cfg.timesteps as u64,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_core::ReadinessLevel;
    use drai_formats::npy::read_npy;
    use drai_formats::zip::read_zip;
    use drai_io::shard::ShardReader;
    use drai_io::sink::MemSink;

    fn small_cfg() -> ClimateConfig {
        ClimateConfig {
            src_grid: LatLonGrid::global(12, 24),
            dst_grid: LatLonGrid::global(8, 16),
            timesteps: 10,
            seed: 7,
            shard_bytes: 64 * 1024,
            ..ClimateConfig::default()
        }
    }

    #[test]
    fn raw_files_are_valid_netcdf() {
        let sink = MemSink::new();
        let names = generate_raw(&small_cfg(), &sink).unwrap();
        assert_eq!(names.len(), 4);
        for name in &names {
            let nc = NcFile::from_bytes(&sink.read_file(name).unwrap()).unwrap();
            assert_eq!(nc.num_records(), 10);
            assert!(nc.var("lat").is_some());
        }
    }

    #[test]
    fn end_to_end_produces_ai_ready_dataset() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        let run = run(&cfg, sink.clone()).unwrap();

        // Stage sequence covers the canonical pattern.
        let kinds: Vec<S> = run.stages.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![S::Ingest, S::Preprocess, S::Transform, S::Shard]
        );

        // The assessor grades the output fully AI-ready.
        let assessment = run.assess();
        assert_eq!(assessment.overall, ReadinessLevel::FullyAiReady);

        // Shards exist and the provenance ledger recorded the chain:
        // the ingest, then one record per stage.
        assert!(!run.shard_files.is_empty());
        assert_eq!(run.ledger.len(), 1 + 4);

        // Read a train shard back: NPZ members decode as [8,16] f32 with
        // ~zero mean after normalization.
        let reader = ShardReader::open("climate/train", sink.as_ref()).unwrap();
        let records = reader.read_all().unwrap();
        assert!(!records.is_empty());
        let entries = read_zip(&records[0]).unwrap();
        assert_eq!(entries.len(), 4);
        let tas = entries.iter().find(|e| e.name == "tas.npy").unwrap();
        let t = read_npy::<f32>(&tas.data).unwrap();
        assert_eq!(t.shape(), &[8, 16]);
        let mean = t.mean().unwrap();
        assert!(mean.abs() < 3.0, "normalized field mean {mean}");
    }

    /// The stage's blocks of timesteps, dealt out across variables and
    /// threads, against one one-shot remap per field — with a last block
    /// shorter than the rest, and a stack of the wrong length refused.
    #[test]
    fn regrid_stage_equals_one_remap_per_field() {
        use drai_transform::regrid;
        let cfg = ClimateConfig {
            timesteps: 2 * REGRID_BLOCK + 3,
            ..small_cfg()
        };
        let data = member_input(&cfg, 0);
        let ncells = cfg.src_grid.ncells();
        let want: Vec<Vec<f64>> = data
            .fields
            .iter()
            .enumerate()
            .map(|(vi, stack)| {
                let remap = if VARIABLES[vi].2 {
                    regrid::conservative
                } else {
                    regrid::bilinear
                };
                stack
                    .chunks_exact(ncells)
                    .flat_map(|field| remap(&cfg.src_grid, field, &cfg.dst_grid).unwrap())
                    .collect()
            })
            .collect();
        let mut counters = StageCounters::default();
        let out = regrid_stage(&cfg.dst_grid, data.clone(), &mut counters).unwrap();
        assert_eq!(out.grid, cfg.dst_grid);
        for (got, want) in out.fields.iter().zip(&want) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want));
        }

        let mut short = data;
        short.fields[2].pop();
        assert!(regrid_stage(&cfg.dst_grid, short, &mut counters).is_err());
    }

    /// A timestep holding a NaN is written but not labeled.
    #[test]
    fn shard_counts_a_timestep_with_a_nan_as_unlabeled() {
        let cfg = small_cfg();
        let mut data = member_input(&cfg, 0);
        data.fields[1][3 * cfg.src_grid.ncells() + 5] = f64::NAN;
        let mut c = StageCounters::default();
        shard_stage(&cfg, &MemSink::new(), "climate", data, &mut c).unwrap();
        let measured = |k: &str| {
            let found = c.report.measured.iter().find(|(m, _)| m == k);
            found.map(|(_, v)| v.as_str())
        };
        assert_eq!(measured(key::RECORDS), Some("10"));
        assert_eq!(measured(key::LABELED), Some("9"));
    }

    /// The record builder against the construction it replaced — one
    /// `Vec<f32>`, `Tensor` and `write_npy` per variable, `write_zip` over
    /// the four — byte for byte, and back through the readers.
    #[test]
    fn npz_record_equals_write_zip_of_write_npy() {
        use drai_formats::npy::write_npy;
        use drai_formats::zip::{write_zip, ZipEntry};
        use drai_tensor::Tensor;

        let grid = LatLonGrid::global(5, 7);
        let (ncells, timesteps) = (grid.ncells(), 3);
        // Values an f32 cast treats specially among ordinary ones.
        let specials = [
            f64::NAN,
            f64::INFINITY,
            -0.0,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,
            0.1,
        ];
        for nvars in [1, 4] {
            let fields: Vec<Vec<f64>> = (0..nvars)
                .map(|vi| {
                    (0..timesteps * ncells)
                        .map(|k| match k % 11 {
                            3 => specials[(k / 11 + vi) % specials.len()],
                            _ => (k as f64 * 0.37 + vi as f64).sin() * 3.0,
                        })
                        .collect()
                })
                .collect();
            let layout = NpzLayout::new(&grid, nvars);
            for t in 0..timesteps {
                let entries: Vec<ZipEntry> = fields
                    .iter()
                    .enumerate()
                    .map(|(vi, stack)| {
                        let field: Vec<f32> = stack[t * ncells..(t + 1) * ncells]
                            .iter()
                            .map(|&x| x as f32)
                            .collect();
                        ZipEntry {
                            name: format!("{}.npy", VARIABLES[vi].0),
                            data: write_npy(&Tensor::from_vec(field, &grid.shape()).unwrap()),
                        }
                    })
                    .collect();
                let (record, finite) = layout.record(&fields, t);
                assert_eq!(record, write_zip(&entries).unwrap(), "{nvars} vars, t={t}");
                let values = fields.iter().flat_map(|s| &s[t * ncells..(t + 1) * ncells]);
                assert_eq!(finite, values.clone().all(|x| x.is_finite()), "t={t}");
                assert_eq!(record.len(), layout.record_len);
                assert_eq!(record.capacity(), record.len(), "sized once");

                let back = read_zip(&record).unwrap();
                assert_eq!(back, entries);
                for (entry, stack) in back.iter().zip(&fields) {
                    let tensor = read_npy::<f32>(&entry.data).unwrap();
                    assert_eq!(tensor.shape(), &grid.shape());
                    let want = stack[t * ncells..(t + 1) * ncells].iter();
                    for (got, &x) in tensor.as_slice().iter().zip(want) {
                        assert_eq!(got.to_bits(), (x as f32).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn normalization_statistics_zero_mean_unit_std() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        generate_raw(&cfg, sink.as_ref()).unwrap();
        let ledger = Arc::new(Ledger::new());
        let pipeline = build_pipeline(&cfg, sink.clone(), ledger);
        // Feed synthetic fields directly.
        let mut rng = SmallRng::seed_from_u64(1);
        let fields: Vec<Vec<f64>> = (0..4)
            .map(|vi| synth_variable(&cfg, vi, &mut rng))
            .collect();
        let out = pipeline.run(raw_fields(&cfg, fields)).unwrap();
        for stack in &out.output.fields {
            let mut w = Welford::new();
            w.extend(stack);
            assert!(w.mean().abs() < 1e-9, "mean {}", w.mean());
            assert!((w.std() - 1.0).abs() < 1e-9, "std {}", w.std());
        }
        assert_eq!(out.output.normalizers.len(), 4);
    }

    #[test]
    fn validate_stage_rejects_short_fields() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        let pipeline = build_pipeline(&cfg, sink, Arc::new(Ledger::new()));
        assert!(pipeline.run(raw_fields(&cfg, vec![vec![0.0; 5]])).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg();
        let s1 = MemSink::new();
        let s2 = MemSink::new();
        generate_raw(&cfg, &s1).unwrap();
        generate_raw(&cfg, &s2).unwrap();
        for name in s1.list().unwrap() {
            assert_eq!(
                s1.read_file(&name).unwrap(),
                s2.read_file(&name).unwrap(),
                "{name} differs between identical-seed runs"
            );
        }
    }
}
