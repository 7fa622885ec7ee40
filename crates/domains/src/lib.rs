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
//! Every pipeline returns a [`DomainRun`]: the output dataset manifest
//! (with evidence flags set by the stages that actually ran), per-stage
//! metrics, and the provenance ledger — so the readiness assessor can
//! grade the result and the Table 2 bench can measure each cell.

#![forbid(unsafe_code)]

pub mod bio;
pub mod cached;
pub mod climate;
pub mod fusion;
pub mod materials;
pub mod service;

use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::{Pipeline, StageMetrics};
use drai_core::DatasetManifest;
use drai_io::sink::StorageSink;
use drai_provenance::Ledger;
use drai_telemetry::monitor::{
    HealthSpec, MonitorReport, ProgressTarget, Sampler, SamplerConfig, WallMonitorClock,
};
use drai_telemetry::Registry;
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
        Arc::new(WallMonitorClock::new()),
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

/// Names of the blobs under `prefix` ending in `ext`.
pub(crate) fn shard_files(
    sink: &dyn StorageSink,
    prefix: &str,
    ext: &str,
) -> Result<Vec<String>, DomainError> {
    let mut names = sink.list()?;
    names.retain(|n| n.starts_with(prefix) && n.ends_with(ext));
    Ok(names)
}

/// Members `0..members` of a batch, each input made by `member_input`.
pub(crate) fn member_items<D>(
    members: usize,
    member_input: impl Fn(usize) -> Result<D, DomainError>,
) -> Result<Vec<Member<D>>, DomainError> {
    (0..members)
        .map(|m| member_input(m).map(|data| Member(m, data)))
        .collect()
}

/// The body both domains' `run_streaming_batch` share: under a
/// `domain.<domain>.run_batch` span, build the batch pipeline over a
/// fresh ledger, synthesize the members and stream them through it.
pub(crate) fn run_streaming_members<D: Send + 'static>(
    domain: &str,
    shard_ext: &str,
    sink: Arc<dyn StorageSink>,
    exec: &ExecutorConfig,
    build: impl FnOnce(Arc<dyn StorageSink>, Arc<Ledger>) -> Pipeline<Member<D>>,
    members: usize,
    member_input: impl Fn(usize) -> Result<D, DomainError>,
) -> Result<DomainBatchRun, DomainError> {
    let run_span = Registry::current().span(format!("domain.{domain}.run_batch"));
    let _in_run = run_span.enter();
    let ledger = Arc::new(Ledger::new());
    let pipeline = build(sink.clone(), ledger.clone());
    let items = member_items(members, member_input)?;
    let (_outputs, stages) = pipeline.run_batch_streaming(items, exec)?;
    let shard_files = shard_files(sink.as_ref(), &format!("{domain}/"), shard_ext)?;
    run_span.add_items(members as u64);
    Ok(DomainBatchRun {
        members,
        stages,
        ledger,
        shard_files,
    })
}

/// Common result of running a domain pipeline.
pub struct DomainRun {
    /// Evidence-bearing manifest for the produced dataset.
    pub manifest: DatasetManifest,
    /// Per-stage timing/volume.
    pub stages: Vec<StageMetrics>,
    /// Provenance of every transformation (shared with the pipeline's
    /// stage closures, hence the `Arc`).
    pub ledger: Arc<Ledger>,
    /// Names of shard blobs written (across splits).
    pub shard_files: Vec<String>,
}

/// Common result of running a domain batch through the streaming
/// bounded-memory executor ([`climate::run_streaming_batch`],
/// [`materials::run_streaming_batch`]): one pipeline, many ensemble
/// members, merged per-stage metrics.
pub struct DomainBatchRun {
    /// Number of batch members processed.
    pub members: usize,
    /// Per-stage timing/volume merged across the batch.
    pub stages: Vec<StageMetrics>,
    /// Provenance of every transformation across all members.
    pub ledger: Arc<Ledger>,
    /// Names of shard blobs written (across members and splits).
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
