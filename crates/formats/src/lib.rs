//! # drai-formats
//!
//! Scientific container formats implemented from scratch — no C library
//! bindings. These are the formats the DRAI paper's archetype workflows
//! read and write:
//!
//! | Module | Format | Used by |
//! |---|---|---|
//! | [`npy`] | NumPy NPY v1.0 (byte-compatible) | climate shards (ClimaX-style `.npz`) |
//! | [`zip`] | STORE-mode ZIP with CRC-32 | NPZ container |
//! | [`tfrecord`] | TFRecord framing with masked CRC-32C (byte-compatible) | fusion shards (DIII-D-style) |
//! | [`protowire`] / [`example`] | protobuf wire format + `tf.train.Example` | TFRecord payloads |
//! | [`netcdf`] | NetCDF-3 classic (CDF-1, byte-compatible subset) | climate ingest |
//! | [`grib`] | GRIB-style sectioned messages with simple packing | climate ingest |
//! | [`h5lite`] | hierarchical groups + chunked typed datasets (own format) | bio secure shards |
//! | [`bp`] | ADIOS-BP-inspired process-group log (own format) | materials shards |
//! | [`fasta`] | FASTA/FASTQ sequence files | bio ingest |
//! | [`xyz`] | extended XYZ structure files | materials ingest |
//! | [`csv`] | RFC-4180 CSV | tabular ingest (EHR) |
//!
//! Byte-compatibility claims are enforced by tests against reference byte
//! vectors. `h5lite` and `bp` are *inspired by* HDF5 and ADIOS-BP: they
//! reproduce the structural essentials (hierarchy + chunking; append-only
//! process groups + footer index) in a clean-room format, as documented in
//! DESIGN.md's substitution table.

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

pub mod bp;
pub(crate) mod bytes;
pub mod csv;
pub mod example;
pub mod fasta;
pub mod grib;
pub mod h5lite;
pub mod netcdf;
pub mod npy;
pub mod protowire;
pub mod tfrecord;
pub mod xyz;
pub mod zip;

/// Errors shared by the format implementations.
#[derive(Debug)]
pub enum FormatError {
    /// A checksum inside a container did not match what it covers.
    ChecksumMismatch {
        /// Which format detected the corruption.
        format: &'static str,
        /// The part whose checksum failed (`footer`, `group g1`, ...).
        part: String,
    },
    /// Structural problem: bad magic, truncation, invalid field.
    Malformed {
        /// Which format detected the problem.
        format: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// The format is valid but uses a feature this implementation does not
    /// support (e.g. NPY v2 headers, compressed ZIP members).
    Unsupported {
        /// Which format.
        format: &'static str,
        /// The unsupported feature.
        detail: String,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::ChecksumMismatch { format, part } => {
                write!(f, "{format} {part}: checksum mismatch")
            }
            FormatError::Malformed { format, detail } => {
                write!(f, "malformed {format}: {detail}")
            }
            FormatError::Unsupported { format, detail } => {
                write!(f, "unsupported {format} feature: {detail}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

pub(crate) fn malformed(format: &'static str, detail: impl Into<String>) -> FormatError {
    FormatError::Malformed {
        format,
        detail: detail.into(),
    }
}

pub(crate) fn unsupported(format: &'static str, detail: impl Into<String>) -> FormatError {
    FormatError::Unsupported {
        format,
        detail: detail.into(),
    }
}
