//! # drai-domains
//!
//! The four archetype workflows of Table 1, end-to-end: synthetic raw-data
//! generators standing in for the gated sources (DESIGN.md substitution
//! table) plus the full preprocessing pipeline for each domain, built on
//! the framework (`drai-core`), kernels (`drai-transform`), formats
//! (`drai-formats`) and shard engine (`drai-io`).
//!
//! | Module | Table 1 row | Pattern |
//! |---|---|---|
//! | [`climate`] | CMIP6 / ERA5 (ORBIT, ClimaX) | `download → regrid → normalize → shard` (NetCDF → NPZ) |
//! | [`fusion`] | DIII-D ML / IPS-Fastran | `extract → align → normalize → shard` (shot store → TFRecord) |
//! | [`bio`] | TwoFold / C-HER / Enformer | `encode → anonymize → fuse → secure-shard` (CSV+FASTA → encrypted h5lite) |
//! | [`materials`] | OMat24 / AFLOW (HydraGNN) | `parse → normalize → encode → shard` (XYZ → BP + JSONL) |
//!
//! All four modules have one outline: `generate_raw` (the download
//! stand-in) → `ingest` → one `stage_graph::<I: StageItem<_>>`, which
//! `build_pipeline` / `build_batch_pipeline` instantiate for a bare
//! artifact or a batch [`Member`] (made by `member_input`). Each stage
//! declares the configuration it reads next to it: the params of its
//! ledger record and the fingerprint of its cache key. Their `run` is
//! written once, here (`run_archetype`), and so is the tail every shard
//! stage ends in (`write_splits`). A `run` returns a [`DomainRun`]: the
//! output dataset manifest, per-stage metrics and the provenance ledger
//! — so the readiness assessor can grade the result and the Table 2
//! bench can measure each cell. The manifest's evidence flags are
//! *asserted* in one function, `assert_evidence`, not yet measured from
//! the run (ROADMAP item 1).
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

/// The span names this crate writes (`drai_telemetry::Name`); the hole
/// is the domain.
mod names {
    use drai_telemetry::{Name, Span};

    pub(crate) const RUN: Name<Span, 1> = Name::declare("domain.{}.run");
    pub(crate) const GENERATE_RAW: Name<Span, 1> = Name::declare("domain.{}.generate_raw");
    pub(crate) const INGEST: Name<Span, 1> = Name::declare("domain.{}.ingest");
}

use drai_core::pipeline::{Pipeline, StageCounters, StageMetrics};
use drai_core::DatasetManifest;
use drai_io::checksum::content_hash128;
use drai_io::shard::{ShardSpec, ShardWriter};
use drai_io::sink::StorageSink;
use drai_provenance::{Artifact, Ledger};
use drai_telemetry::monitor::{HealthSpec, MonitorReport, ProgressTarget, Sampler, SamplerConfig};
use drai_telemetry::{Registry, Stopwatch};
use drai_transform::split::{Fractions, Partitioned, Split};
use std::sync::Arc;
use std::time::Duration;

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

/// Run `f` under a background monitor sampler on the current registry:
/// every metric is sampled into a time series each few milliseconds,
/// `spec` health rules are evaluated per sample, progress is read from
/// the executor's live `executor.items_completed` counter against
/// `total_items` (and printed to stderr under the `progress` label
/// when one is given), and the final report — including a closing
/// sample, so short runs still carry their series — is returned next
/// to `f`'s output.
pub fn monitored<R>(
    total_items: u64,
    spec: HealthSpec,
    progress: Option<&'static str>,
    f: impl FnOnce() -> R,
) -> (R, MonitorReport) {
    let sampler_cfg = SamplerConfig {
        capacity: 1024,
        progress: Some(ProgressTarget {
            counter: "executor.items_completed".to_string(),
            total: total_items,
        }),
    };
    let mut sampler = Sampler::new(
        &Registry::current(),
        Arc::new(Stopwatch::start()),
        sampler_cfg,
        spec,
    );
    if let Some(label) = progress {
        sampler = sampler.with_observer(move |tick| {
            if let Some(p) = tick.progress {
                eprintln!("[{label}] {}", p.render());
            }
        });
    }
    let handle = sampler.start(Duration::from_millis(5));
    let out = f();
    (out, handle.stop())
}

/// Told the `(name, content)` of each blob to put on record: a raw input
/// as it is ingested, a shard as it is written.
pub(crate) type Witness<'a> = &'a mut dyn FnMut(&str, &[u8]);

/// Every archetype's `run`. Under a `domain.<domain>.run` span:
/// `generate_raw` (the download stand-in) and `ingest` (raw blobs → the
/// pipeline's input), each under a span of its own, then the pipeline
/// `build` makes over the run's ledger, then the manifest `describe`
/// derives from the output plus [`assert_evidence`]. What `ingest` shows
/// its [`Witness`] is counted on its span and becomes an input of the
/// run's one `ingest` record, whose output — the pipeline's input — is
/// named by an id derived from those inputs' ids. The pipeline stays the
/// last thing that takes time: the benchmark lays [`DomainRun::stages`]
/// back to back up to the return.
pub(crate) fn run_archetype<R, D>(
    domain: &str,
    shard_ext: &str,
    sink: &dyn StorageSink,
    generate_raw: impl FnOnce() -> Result<R, DomainError>,
    ingest: impl FnOnce(R, Witness) -> Result<D, DomainError>,
    build: impl FnOnce(Arc<Ledger>) -> Pipeline<D>,
    describe: impl FnOnce(&D) -> DatasetManifest,
) -> Result<DomainRun, DomainError> {
    let registry = Registry::current();
    let run_span = registry.span(&names::RUN, [domain]);
    let _in_run = run_span.enter();
    let ledger = Arc::new(Ledger::new());
    let raw = registry.time(&names::GENERATE_RAW, [domain], generate_raw)?;
    let (input, id) = {
        let span = registry.span(&names::INGEST, [domain]);
        let _in_ingest = span.enter();
        let mut raw_blobs = Vec::new();
        let input = ingest(raw, &mut |name, content| {
            span.add_items(1);
            span.add_bytes(content.len() as u64);
            raw_blobs.push(Artifact::new(name, content));
        })?;
        let ids: String = raw_blobs.iter().map(|blob| blob.id.digest()).collect();
        let id = content_hash128(ids.as_bytes());
        ledger.record("ingest", [], raw_blobs, vec![Artifact::derived(&id)]);
        (input, id)
    };
    let run = build(ledger.clone()).run_with_id(input, Some(id))?;

    let mut manifest = describe(&run.output);
    assert_evidence(&mut manifest);
    let prefix = format!("{domain}/");
    let mut shard_files = sink.list()?;
    shard_files.retain(|n| n.starts_with(&prefix) && n.ends_with(shard_ext));
    run_span.add_items(manifest.records);
    Ok(DomainRun {
        manifest,
        stages: run.stages,
        ledger,
        shard_files,
    })
}

/// The readiness evidence every archetype `run` claims: assertions
/// about what its stage graph does, set here and nowhere else (bio adds
/// its two anonymization flags), not measurements of the run that just
/// finished. Deriving them from evidence (ROADMAP item 1) starts here.
fn assert_evidence(manifest: &mut DatasetManifest) {
    manifest.standard_format = true;
    manifest.ingest_validated = true;
    manifest.metadata_enriched = true;
    manifest.high_throughput_ingest = true;
    manifest.ingest_automated = true;
    manifest.aligned_initial = true;
    manifest.aligned_standardized = true;
    manifest.alignment_automated = true;
    manifest.normalized_initial = true;
    manifest.normalized_final = true;
    manifest.transform_audited = true;
    manifest.label_coverage = 1.0; // every sharded record carries its target
    manifest.features_extracted = true;
    manifest.features_validated = true;
    manifest.split_assigned = true;
    manifest.sharded = true;
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
    [("seed", seed.to_string()), ("fractions", fractions)]
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
    /// Evidence-bearing manifest for the produced dataset.
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
