//! # drai-core
//!
//! The paper's primary contribution — the two-dimensional Data Readiness
//! for AI (DRAI) framework — made executable:
//!
//! * [`readiness`] — the five **Data Readiness Levels** (raw → fully
//!   AI-ready), the five **Data Processing Stages** (ingest → shard), and
//!   the [`readiness::MaturityMatrix`] that reproduces the paper's Table 2
//!   including its N/A cells.
//! * [`dataset`] — [`dataset::DatasetManifest`]: what a run says about
//!   the dataset it produced (name, domain, modality, schema, records).
//! * [`assess`] — [`assess::assess`]: grades each Table 2
//!   cell of a run from its manifest, its provenance ledger and its
//!   domain's [`templates::DomainTemplate`], citing the ledger record
//!   that satisfies each cell. Readiness is *assessed from evidence*, not
//!   declared — the operational teeth the paper calls for.
//! * [`templates`] — the types a domain declares its Table 1 row with.
//! * [`quality`] — data-quality reporting (missing fraction, imbalance,
//!   outliers) for dataset cards.
//! * [`pipeline`] — a typed stage graph with its sequential runner,
//!   per-stage metrics, and the one writer of stage provenance: every
//!   stage output named by a derivation id, every stage execution one
//!   ledger record.
//! * [`executor`] — the batch engine: a bounded worker pool running the
//!   same stage graph over many items.
//! * [`metrics`] — throughput/latency accounting shared with the bench
//!   harness.

// Damaged input is data, not a bug: library code returns an error and has
// no panic path (`cargo clippy`, DESIGN §6). Tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod assess;
pub mod card;
pub mod dataset;
pub mod executor;
pub mod metrics;
mod names;
pub mod pipeline;
pub mod quality;
pub mod readiness;
pub mod templates;

pub use assess::{assess, Assessment};
pub use dataset::{DatasetManifest, Modality, VariableSpec};
pub use executor::{CancelToken, ExecutorConfig, StreamingBatchExt};
pub use pipeline::{FastPath, Pipeline, PipelineBuilder, PipelineRun, StageMetrics};
pub use readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
pub use templates::{DomainTemplate, TemplateStep};

/// Errors from the core framework.
#[derive(Debug)]
pub enum CoreError {
    /// A pipeline stage failed.
    Stage {
        /// Stage name.
        stage: String,
        /// Failure description.
        message: String,
    },
    /// A manifest could not be read: a key is missing, of the wrong
    /// type, or holds an unknown name.
    InvalidManifest(String),
    /// Propagated I/O failure.
    Io(drai_io::IoError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Stage { stage, message } => write!(f, "stage {stage:?} failed: {message}"),
            CoreError::InvalidManifest(msg) => write!(f, "invalid manifest: {msg}"),
            CoreError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<drai_io::IoError> for CoreError {
    fn from(e: drai_io::IoError) -> Self {
        CoreError::Io(e)
    }
}
