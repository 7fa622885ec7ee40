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
//! * [`parallel`] — the CPU count and the threads data work runs on:
//!   [`parallel::par_map`], the one way work inside a stage goes onto
//!   threads (scoped `std` threads, input order kept), and
//!   [`parallel::pool`], the executor's workers, each handed its share
//!   of the caller's CPUs.

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

pub mod checksum;
pub mod codec;
pub mod crypto;
pub mod fault;
pub mod json;
mod names;
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
///
/// Every variant names the blob that failed in a field of its own, so a
/// quarantined shard or an exhausted retry traces back to its input from
/// the error alone. There is deliberately no `From<std::io::Error>` or
/// `From<CodecError>`: `?` on an OS or codec error does not compile until
/// the call site says which blob it was working on.
#[derive(Debug)]
pub enum IoError {
    /// An OS-level failure other than a missing file.
    Os {
        /// The blob (or, for a [`LocalFs`] root or listing, the directory)
        /// being worked on.
        blob: String,
        /// What the OS reported.
        source: std::io::Error,
    },
    /// The blob does not exist. Every sink, and every wrapper around one,
    /// reports a missing blob this way; it is not transient.
    NotFound {
        /// The blob asked for.
        blob: String,
    },
    /// A structural problem in a blob or its name (bad magic, truncation,
    /// a name that escapes the sink, ...).
    Format {
        /// The blob.
        blob: String,
        /// What is wrong with it.
        what: String,
    },
    /// A checksum did not match the stored value (corruption).
    ChecksumMismatch {
        /// The blob.
        blob: String,
        /// Which checksum failed: the whole file, a record, a read-back.
        at: String,
    },
    /// A stored record did not decode.
    Codec {
        /// The shard the record is in.
        blob: String,
        /// The record's index within that shard.
        record: usize,
        /// What the codec reported.
        source: CodecError,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Os { blob, source } => write!(f, "{blob}: I/O error: {source}"),
            IoError::NotFound { blob } => write!(f, "{blob}: no such blob"),
            IoError::Format { blob, what } => write!(f, "{blob}: format error: {what}"),
            IoError::ChecksumMismatch { blob, at } => {
                write!(f, "{blob}: checksum mismatch at {at}")
            }
            IoError::Codec {
                blob,
                record,
                source,
            } => write!(f, "{blob}: record {record}: codec error: {source}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Os { source, .. } => Some(source),
            IoError::Codec { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl IoError {
    /// `source`, met while working on `blob`; a missing file is
    /// [`IoError::NotFound`].
    pub(crate) fn os(blob: impl Into<String>, source: std::io::Error) -> IoError {
        let blob = blob.into();
        if source.kind() == std::io::ErrorKind::NotFound {
            IoError::NotFound { blob }
        } else {
            IoError::Os { blob, source }
        }
    }

    /// True when retrying the failed operation may succeed: OS errors
    /// whose kind signals a momentary condition (interruption, timeout,
    /// contention). A missing blob, checksum mismatches, format errors
    /// and codec failures are permanent — the bytes are wrong, not the
    /// timing — and [`retry::RetrySink`] passes them straight through.
    pub fn is_transient(&self) -> bool {
        match self {
            IoError::Os { source, .. } => matches!(
                source.kind(),
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
