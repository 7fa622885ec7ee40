//! # drai-transform
//!
//! The preprocessing kernels behind the paper's Figure 1 — every step that
//! moves a dataset from *raw* toward *AI-ready*:
//!
//! * [`normalize`] — z-score / min-max / robust scaling with streaming fit
//!   (the "normalize by mean and standard deviation" step).
//! * [`impute`] — missing-value handling: mean/median/constant fill,
//!   forward fill, linear interpolation.
//! * [`encode`] — one-hot and vocabulary encoding for categorical and
//!   sequence data (Enformer-style DNA tiles).
//! * [`regrid`] — bilinear and first-order conservative lat-lon regridding
//!   (the climate `regrid` stage).
//! * [`align`] — multirate time-series resampling to a common clock and
//!   fixed-window slicing (the fusion `align` stage).
//! * [`features`] — finite-difference derivatives, rolling statistics, and
//!   radix-2 FFT spectral features (physics-informed feature engineering).
//! * [`label`] — threshold labeling and iterative pseudo-labeling with a
//!   confidence gate (semi-supervised readiness).
//! * [`anonymize`] — PHI/PII transforms: salted hashing, suppression,
//!   generalization, date shifting, and a k-anonymity checker.
//! * [`split`] — deterministic hash-based train/val/test partitioning.
//! * [`units`] — unit registry and conversions ("ensure consistent units").

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

pub mod align;
pub mod anonymize;
pub mod encode;
pub mod features;
pub mod impute;
pub mod label;
pub mod normalize;
pub mod regrid;
pub mod split;
pub mod units;

/// Errors from preprocessing kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// Input does not satisfy a kernel precondition.
    InvalidInput(String),
    /// A fitted transform was applied to incompatible data.
    ShapeMismatch {
        /// What was expected.
        expected: String,
        /// What was provided.
        got: String,
    },
    /// Statistics could not be fitted (e.g. empty or all-NaN input).
    CannotFit(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            TransformError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            TransformError::CannotFit(msg) => write!(f, "cannot fit: {msg}"),
        }
    }
}

impl std::error::Error for TransformError {}
