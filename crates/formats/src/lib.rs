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
    /// Underlying I/O layer failure.
    Io(drai_io::IoError),
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
            FormatError::Io(e) => write!(f, "{e}"),
            FormatError::Malformed { format, detail } => {
                write!(f, "malformed {format}: {detail}")
            }
            FormatError::Unsupported { format, detail } => {
                write!(f, "unsupported {format} feature: {detail}")
            }
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drai_io::IoError> for FormatError {
    fn from(e: drai_io::IoError) -> Self {
        FormatError::Io(e)
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(drai_io::IoError::Os(e))
    }
}

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
