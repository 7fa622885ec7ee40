//! # drai-io
//!
//! The I/O substrate for DRAI pipelines: everything between in-memory
//! tensors and "sharded binary formats for scalable ingestion" (the paper's
//! fifth processing stage).
//!
//! Contents:
//!
//! * [`checksum`] — CRC-32 (zlib polynomial, for ZIP/NPZ), CRC-32C
//!   (Castagnoli, for TFRecord's masked CRCs) on one three-lane
//!   slice-by-8 kernel with a join for pieces hashed elsewhere, FNV-1a,
//!   and a 128-bit content-address hash for provenance.
//! * [`varint`] — LEB128 varints and zigzag coding shared by codecs and the
//!   protobuf wire encoder in `drai-formats`.
//! * [`codec`] — byte-stream compression codecs (RLE, delta+varint,
//!   bit-packing, LZ-lite) behind a common [`codec::Codec`] trait with a
//!   registry, so shard files record which codec wrote them.
//! * [`json`] — a minimal JSON value model, parser and writer. Lives here
//!   (the lowest-level serialization crate) because shard manifests,
//!   provenance audit logs and materials sidecars all need it and
//!   `drai-formats` already depends on this crate.
//! * [`shard`] — the record-sharding engine: fixed-target-size shard files
//!   with per-record CRC framing, a JSON manifest with per-shard digests,
//!   and parallel order-preserving writes.
//! * [`sink`] — the [`sink::StorageSink`] abstraction over "where bytes
//!   land": a real local filesystem or the simulated striped store in
//!   `drai-sim`.
//! * [`fault`] — seeded, deterministic fault injection ([`FaultSink`]):
//!   transient/permanent write errors, read errors, and silent bit
//!   flips, for exercising the recovery paths.
//! * [`retry`] — [`RetrySink`] with exponential, jitter-free backoff
//!   through an injectable clock, so resilience tests never really
//!   sleep.
//! * [`parallel`] — [`parallel::par_map`], the one way work inside a
//!   stage goes onto threads (scoped `std` threads, input order kept).

pub mod checksum;
pub mod codec;
pub mod crypto;
pub mod fault;
pub mod json;
pub mod parallel;
pub mod retry;
pub mod shard;
pub mod sink;
pub mod varint;

pub use checksum::{content_hash128, crc32, crc32c, fnv1a64, masked_crc32c};
pub use codec::{Codec, CodecError, CodecId};
pub use fault::{FaultConfig, FaultSink};
pub use retry::{RetryClock, RetryPolicy, RetrySink, SystemClock, VirtualClock};
pub use shard::{DamageReport, ShardManifest, ShardReader, ShardSpec, ShardWriter};
pub use sink::{LocalFs, StorageSink};

/// Errors produced by the I/O layer.
#[derive(Debug)]
pub enum IoError {
    /// Underlying OS-level I/O failure.
    Os(std::io::Error),
    /// A checksum did not match the stored value (corruption).
    ChecksumMismatch {
        /// Human-readable location (file, record index, ...).
        context: String,
    },
    /// A structural problem in a container (bad magic, truncated, ...).
    Format(String),
    /// Codec failure during encode/decode.
    Codec(CodecError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Os(e) => write!(f, "I/O error: {e}"),
            IoError::ChecksumMismatch { context } => {
                write!(f, "checksum mismatch at {context}")
            }
            IoError::Format(msg) => write!(f, "format error: {msg}"),
            IoError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Os(e) => Some(e),
            IoError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl IoError {
    /// True when retrying the failed operation may succeed: OS errors
    /// whose kind signals a momentary condition (interruption, timeout,
    /// contention). Checksum mismatches, format errors, and codec
    /// failures are permanent — the bytes are wrong, not the timing —
    /// and [`retry::RetrySink`] passes them straight through.
    pub fn is_transient(&self) -> bool {
        match self {
            IoError::Os(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            _ => false,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Os(e)
    }
}

impl From<CodecError> for IoError {
    fn from(e: CodecError) -> Self {
        IoError::Codec(e)
    }
}
