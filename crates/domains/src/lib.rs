//! # drai-domains
//!
//! The four archetype workflows of Table 1, end-to-end: synthetic raw-data
//! generators standing in for the gated sources (DESIGN.md substitution
//! table) plus the full preprocessing pipeline for each domain.
//!
//! | Module | Table 1 row | Raw → shards |
//! |---|---|---|
//! | [`climate`] | CMIP6 / ERA5 (ORBIT, ClimaX) | NetCDF → NPZ |
//! | [`fusion`] | DIII-D ML / IPS-Fastran | shot store → TFRecord |
//! | [`bio`] | TwoFold / C-HER / Enformer | CSV + FASTA → encrypted h5lite |
//! | [`materials`] | OMat24 / AFLOW (HydraGNN) | XYZ → BP + JSONL |
//!
//! [`ARCHETYPES`] lists them in that order: each module's `TEMPLATE` (the
//! paper's pattern, step by step) and its `run` at `drai run`'s sizes;
//! the CLI, the examples and the cross-domain tests iterate it. Each
//! module has one outline: `generate_raw` (the download stand-in) →
//! `ingest` → one `stage_graph::<I: StageItem<_>>`, naming each stage and
//! its kind by a `TEMPLATE` step, which `build_pipeline` /
//! `build_batch_pipeline` instantiate for a bare artifact or a batch
//! [`Member`] (made by `member_input`). Each stage declares the
//! configuration it reads next to it: its ledger record's params and its
//! cache key's fingerprint. `run` is written once, here (`run_archetype`),
//! and so is the tail every shard stage ends in (`write_splits`). It
//! returns a [`DomainRun`], which [`DomainRun::assess`] grades against its
//! template: every Table 2 cell from the records the run wrote.
//!
//! The ledger is the pipeline's to write, not the stages':
//! `run_archetype` writes one `ingest` record, raw blobs in and an id
//! derived from theirs out, and runs the pipeline under that id, which
//! writes one record per stage. So every shard's lineage is the `ingest`
//! record plus one record per stage, and its roots are the raw blobs.

pub mod bio;
pub mod cached;
pub mod climate;
pub mod fusion;
pub mod materials;
pub mod service;

/// The span names this crate writes (`drai_telemetry::Name`); a hole
/// is the domain.
mod names {
    use drai_telemetry::{Name, Span};

    pub(crate) const RUN: Name<Span, 1> = Name::declare("domain.{}.run");
    pub(crate) const GENERATE_RAW: Name<Span, 1> = Name::declare("domain.{}.generate_raw");
    pub(crate) const INGEST: Name<Span, 1> = Name::declare("domain.{}.ingest");
    /// Bio `secure-shard`, per split: the h5lite container built and
    /// serialized, its bytes ciphered, the blob stored and vouched for.
    pub(crate) const SECURE_SHARD_BUILD: Name<Span> =
        Name::declare("domain.bio.secure_shard.build");
    pub(crate) const SECURE_SHARD_CIPHER: Name<Span> =
        Name::declare("domain.bio.secure_shard.cipher");
    pub(crate) const SECURE_SHARD_STORE: Name<Span> =
        Name::declare("domain.bio.secure_shard.store");
}

use drai_core::assess::{self, key, Assessment, INGEST};
use drai_core::pipeline::{Pipeline, StageCounters, StageMetrics};
use drai_core::{DatasetManifest, DomainTemplate};
use drai_io::checksum::content_hash128;
use drai_io::shard::{ShardSpec, ShardWriter};
use drai_io::sink::StorageSink;
use drai_provenance::{Artifact, Ledger};
use drai_telemetry::Registry;
use drai_tensor::LatLonGrid;
use drai_transform::split::{Fractions, Partitioned, Split};
use std::sync::Arc;

/// A batch member flowing through a domain pipeline: the member id
/// plus the inter-stage artifact. (A newtype rather than a tuple —
/// tuples are foreign types, so neither [`StageItem`] nor
/// `drai_cache::CacheBytes` could be implemented for them here.)
#[derive(Clone)]
pub struct Member<T>(pub usize, pub T);

/// What a domain stage graph is generic over: the bare artifact `D`
/// (one run) or a [`Member<D>`] of a batch. A domain declares its
/// stages once against this trait; which pipeline name it reports
/// under and where it shards follow from the item type, so the single
/// and batch pipelines cannot drift apart. (The two impls do not
/// overlap for the same reason std's `From<T> for T` and
/// `From<T> for Box<T>` do not.)
pub trait StageItem<D>: Sized {
    /// Telemetry name of the pipeline over this item type: `base` for
    /// a bare artifact, `<base>-batch` for members.
    fn pipeline_name(base: &str) -> String;
    /// Blob prefix this item's shards are written under: `base` for a
    /// bare artifact, `<base>/m<member>` for a member.
    fn shard_prefix(&self, base: &str) -> String;
    /// Apply a stage body to the artifact, keeping the member tag.
    fn try_map(self, f: impl FnOnce(D) -> Result<D, String>) -> Result<Self, String>;
}

impl<D> StageItem<D> for D {
    fn pipeline_name(base: &str) -> String {
        base.to_string()
    }
    fn shard_prefix(&self, base: &str) -> String {
        base.to_string()
    }
    fn try_map(self, f: impl FnOnce(D) -> Result<D, String>) -> Result<Self, String> {
        f(self)
    }
}

impl<D> StageItem<D> for Member<D> {
    fn pipeline_name(base: &str) -> String {
        format!("{base}-batch")
    }
    fn shard_prefix(&self, base: &str) -> String {
        format!("{base}/m{}", self.0)
    }
    fn try_map(self, f: impl FnOnce(D) -> Result<D, String>) -> Result<Self, String> {
        f(self.1).map(|data| Member(self.0, data))
    }
}

/// Told the `(name, content)` of each blob to put on record: a raw input
/// as it is ingested, a shard as it is written.
pub(crate) type Witness<'a> = &'a mut dyn FnMut(&str, &[u8]);

/// Every archetype's `run`, for `template`'s domain. Under a
/// `domain.<domain>.run` span: `generate_raw` (the download stand-in)
/// and `ingest` (raw blobs → the pipeline's input), each under a span of
/// its own, then the pipeline `build` makes over the run's ledger, then
/// the manifest `describe` derives from the output. What `ingest` shows
/// its [`Witness`] is counted on its span and becomes an input of the
/// run's one `ingest` record, whose output — the pipeline's input — is
/// named by an id derived from those inputs' ids. The pipeline stays the
/// last thing that takes time: the benchmark lays [`DomainRun::stages`]
/// back to back up to the return.
pub(crate) fn run_archetype<R, D>(
    template: &'static DomainTemplate,
    shard_ext: &str,
    sink: &dyn StorageSink,
    generate_raw: impl FnOnce() -> Result<R, DomainError>,
    ingest: impl FnOnce(R, Witness) -> Result<D, DomainError>,
    build: impl FnOnce(Arc<Ledger>) -> Pipeline<D>,
    describe: impl FnOnce(&D) -> DatasetManifest,
) -> Result<DomainRun, DomainError> {
    let registry = Registry::current();
    let run_span = registry.span(&names::RUN, [template.domain]);
    let _in_run = run_span.enter();
    let ledger = Arc::new(Ledger::new());
    let raw = registry.time(&names::GENERATE_RAW, [template.domain], generate_raw)?;
    let (input, id) = {
        let span = registry.span(&names::INGEST, [template.domain]);
        let _in_ingest = span.enter();
        let mut raw_blobs = Vec::new();
        let input = ingest(raw, &mut |name, content| {
            span.add_items(1);
            span.add_bytes(content.len() as u64);
            raw_blobs.push(Artifact::new(name, content));
        })?;
        let ids: String = raw_blobs.iter().map(|blob| blob.id.digest()).collect();
        let id = content_hash128(ids.as_bytes());
        ledger.record(INGEST, [], raw_blobs, vec![Artifact::derived(&id)]);
        (input, id)
    };
    let run = build(ledger.clone()).run_with_id(input, Some(id))?;

    let manifest = describe(&run.output);
    let prefix = format!("{}/", template.domain);
    let mut shard_files = sink.list()?;
    shard_files.retain(|n| n.starts_with(&prefix) && n.ends_with(shard_ext));
    run_span.add_items(manifest.records);
    Ok(DomainRun {
        template,
        manifest,
        stages: run.stages,
        ledger,
        shard_files,
    })
}

/// The tail every shard stage ends in. For each non-empty split, in
/// (train, validation, test) order, `write` stores the split's items
/// and shows its [`Witness`] each blob written, which goes into the
/// stage's report (`c`): an output of the stage's record.
pub(crate) fn write_splits<T>(
    c: &mut StageCounters,
    parts: Partitioned<T>,
    mut write: impl FnMut(Split, Vec<T>, Witness) -> Result<(), String>,
) -> Result<(), String> {
    for (split, items) in parts.into_iter().filter(|(_, items)| !items.is_empty()) {
        write(split, items, &mut |name, content| c.wrote(name, content))?;
    }
    Ok(())
}

/// The seed and fractions a shard stage partitions its records by.
pub(crate) fn split_config(seed: u64, f: Fractions) -> [(&'static str, String); 2] {
    let fractions = format!("{}/{}/{}", f.train, f.validation, f.test);
    [(key::SEED, seed.to_string()), (key::FRACTIONS, fractions)]
}

/// [`write_splits`]' `write` for the [`ShardWriter`] domains: pack a
/// split's records into shards of `shard_bytes` under `<prefix>/<split>`
/// and vouch for each shard as stored, read back one at a time.
pub(crate) fn record_shards<'a>(
    sink: &'a dyn StorageSink,
    prefix: &'a str,
    shard_bytes: usize,
) -> impl FnMut(Split, Vec<Vec<u8>>, Witness) -> Result<(), String> + 'a {
    move |split, records, vouch| {
        let spec = ShardSpec::new(format!("{prefix}/{}", split.name()), shard_bytes);
        let manifest = ShardWriter::new(spec, sink)
            .write_all(&records)
            .map_err(|e| e.to_string())?;
        for shard in &manifest.shards {
            let content = sink.read_file(&shard.name).map_err(|e| e.to_string())?;
            vouch(&shard.name, &content);
        }
        Ok(())
    }
}

/// Common result of running a domain pipeline.
pub struct DomainRun {
    /// The template the run's stage graph was built from.
    pub template: &'static DomainTemplate,
    /// What the run says about the dataset it produced.
    pub manifest: DatasetManifest,
    /// Per-stage timing/volume.
    pub stages: Vec<StageMetrics>,
    /// Provenance of the run: its `ingest` record and one record per
    /// stage execution (shared with the pipeline that writes it, hence
    /// the `Arc`).
    pub ledger: Arc<Ledger>,
    /// Names of shard blobs written (across splits).
    pub shard_files: Vec<String>,
}

impl DomainRun {
    /// Grade the run from its own ledger against its template.
    pub fn assess(&self) -> Assessment {
        assess::assess(&self.manifest, &self.ledger, self.template)
    }
}

/// One Table 1 row: the template its stage graph is built from, and its
/// `run` at `drai run`'s sizes.
pub struct Archetype {
    /// The domain's template; its `domain` names the archetype.
    pub template: &'static DomainTemplate,
    /// `run(seed, scale, sink)`: each size that grows, `scale` (≥ 1) times.
    pub run: fn(u64, usize, Arc<dyn StorageSink>) -> Result<DomainRun, DomainError>,
}

/// The four archetypes, in Table 1 order.
pub static ARCHETYPES: [Archetype; 4] = [
    Archetype {
        template: &climate::TEMPLATE,
        run: |seed, scale, sink| {
            let cfg = climate::ClimateConfig {
                src_grid: LatLonGrid::global(24 * scale, 48 * scale),
                dst_grid: LatLonGrid::global(16 * scale, 32 * scale),
                timesteps: 16 * scale,
                seed,
                ..climate::ClimateConfig::default()
            };
            climate::run(&cfg, sink)
        },
    },
    Archetype {
        template: &fusion::TEMPLATE,
        run: |seed, scale, sink| {
            let cfg = fusion::FusionConfig {
                shots: 16 * scale,
                seed,
                ..fusion::FusionConfig::default()
            };
            fusion::run(&cfg, sink)
        },
    },
    Archetype {
        template: &bio::TEMPLATE,
        run: |seed, scale, sink| {
            let cfg = bio::BioConfig {
                patients: 48 * scale,
                seed,
                ..bio::BioConfig::default()
            };
            bio::run(&cfg, sink)
        },
    },
    Archetype {
        template: &materials::TEMPLATE,
        run: |seed, scale, sink| {
            let cfg = materials::MaterialsConfig {
                structures: 32 * scale,
                seed,
                ..materials::MaterialsConfig::default()
            };
            materials::run(&cfg, sink)
        },
    },
];

/// The archetype of domain `name`, if it is one of the four.
pub fn archetype(name: &str) -> Option<&'static Archetype> {
    ARCHETYPES.iter().find(|a| a.template.domain == name)
}

/// Errors from domain pipelines.
#[derive(Debug)]
pub enum DomainError {
    /// Core framework failure.
    Core(drai_core::CoreError),
    /// Format encode/decode failure.
    Format(drai_formats::FormatError),
    /// I/O failure.
    Io(drai_io::IoError),
    /// Kernel failure.
    Transform(drai_transform::TransformError),
    /// Generator/parameter problem.
    Config(String),
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::Core(e) => write!(f, "{e}"),
            DomainError::Format(e) => write!(f, "{e}"),
            DomainError::Io(e) => write!(f, "{e}"),
            DomainError::Transform(e) => write!(f, "{e}"),
            DomainError::Config(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for DomainError {}

impl From<drai_core::CoreError> for DomainError {
    fn from(e: drai_core::CoreError) -> Self {
        DomainError::Core(e)
    }
}
impl From<drai_formats::FormatError> for DomainError {
    fn from(e: drai_formats::FormatError) -> Self {
        DomainError::Format(e)
    }
}
impl From<drai_io::IoError> for DomainError {
    fn from(e: drai_io::IoError) -> Self {
        DomainError::Io(e)
    }
}
impl From<drai_transform::TransformError> for DomainError {
    fn from(e: drai_transform::TransformError) -> Self {
        DomainError::Transform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_core::ProcessingStage as S;

    /// The table is Table 1: four rows in order, each found by its
    /// domain, each template's kinds in canonical order ending in a
    /// shard step, and only bio bound to anonymize.
    #[test]
    fn the_archetype_table_is_table1() {
        let domains: Vec<&str> = ARCHETYPES.iter().map(|a| a.template.domain).collect();
        assert_eq!(domains, ["climate", "fusion", "bio", "materials"]);
        for a in &ARCHETYPES {
            let t = a.template;
            assert!(
                std::ptr::eq(archetype(t.domain).unwrap(), a),
                "{}",
                t.domain
            );
            assert!(
                t.steps.windows(2).all(|w| w[0].kind < w[1].kind),
                "{}",
                t.domain
            );
            assert_eq!(
                t.steps.last().map(|s| s.kind),
                Some(S::Shard),
                "{}",
                t.domain
            );
            assert_eq!(t.requires_anonymization, t.domain == "bio", "{}", t.domain);
        }
        assert!(archetype("astronomy").is_none());
        // A kind the template lacks has no step: that column is N/A.
        assert_eq!(climate::TEMPLATE.step(S::Structure), None);
        assert_eq!(bio::TEMPLATE.step(S::Transform), Some("anonymize"));
    }
}
