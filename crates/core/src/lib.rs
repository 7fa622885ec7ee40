//! # drai-core
//!
//! The paper's primary contribution — the two-dimensional Data Readiness
//! for AI (DRAI) framework — made executable:
//!
//! * [`readiness`] — the five **Data Readiness Levels** (raw → fully
//!   AI-ready), the five **Data Processing Stages** (ingest → shard), and
//!   the [`readiness::MaturityMatrix`] that reproduces the paper's Table 2
//!   including its N/A cells.
//! * [`dataset`] — [`dataset::DatasetManifest`]: the evidence record a
//!   dataset carries about what preparation it has undergone (modality,
//!   schema, quality, per-stage capability flags).
//! * [`assess`] — [`assess::ReadinessAssessor`]: derives a dataset's
//!   readiness level per processing stage from its manifest, per the
//!   criteria of Table 2. Readiness is *assessed from evidence*, not
//!   declared — the operational teeth the paper calls for.
//! * [`quality`] — data-quality reporting (missing fraction, imbalance,
//!   outliers) feeding the assessor.
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

pub use assess::{Assessment, ReadinessAssessor};
pub use dataset::{DatasetManifest, Modality, VariableSpec};
pub use executor::{CancelToken, ExecutorConfig, StreamingBatchExt};
pub use pipeline::{FastPath, Pipeline, PipelineBuilder, PipelineRun, StageMetrics};
pub use readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
pub use templates::DomainTemplate;

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
    /// Manifest evidence is inconsistent.
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
