//! # drai-tensor
//!
//! A small, dependency-free n-dimensional array library serving as the
//! numeric substrate for the DRAI data-readiness pipelines.
//!
//! The paper's workflows ("Data Readiness for Scientific AI at Scale",
//! ICPP 2025) shuttle multivariate gridded fields, multirate time series,
//! one-hot sequence tensors, and per-node graph features between
//! preprocessing stages. All of those are represented here as row-major
//! [`Tensor`]s over a small set of element types.
//!
//! Design points:
//!
//! * **Row-major.** [`Tensor::lanes`] hands out the rows along the leading
//!   axis as slices of the tensor's own storage, without copying.
//! * **Streaming statistics.** [`stats::Welford`] implements the numerically
//!   stable single-pass mean/variance update with a parallel `merge`, so
//!   normalization statistics can be fitted per chunk in parallel and
//!   merged in chunk order. `merge` is not associative in floating point,
//!   so a reproducible fit fixes that order rather than letting a thread
//!   pool choose it.
//! * **Grid awareness.** [`grid::LatLonGrid`] carries the geometry needed by
//!   conservative regridding (cell bounds, areas) in the climate archetype.
//!
//! ```
//! use drai_tensor::{Tensor, stats::Welford};
//!
//! let t = Tensor::from_vec(vec![1.0_f64, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let mut w = Welford::new();
//! for &x in t.as_slice() { w.push(x); }
//! assert!((w.mean() - 2.5).abs() < 1e-12);
//! ```

pub mod dtype;
pub mod grid;
pub mod stats;
pub mod tensor;

pub use dtype::{DType, Element};
pub use grid::LatLonGrid;
pub use tensor::{Tensor, TensorError};
