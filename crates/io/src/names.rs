//! The metric and span names this crate writes (`drai_telemetry::Name`).

use drai_telemetry::{Counter, Gauge, Histogram, Name, Span};

pub(crate) const SHARD_RECORDS: Name<Counter> = Name::declare("io.shard.records");
pub(crate) const SHARD_BYTES_IN: Name<Counter> = Name::declare("io.shard.bytes_in");
pub(crate) const SHARD_BYTES_OUT: Name<Counter> = Name::declare("io.shard.bytes_out");
pub(crate) const SHARD_ENCODE_NS: Name<Histogram> = Name::declare("io.shard.encode_ns");
pub(crate) const SHARD_WRITE_NS: Name<Histogram> = Name::declare("io.shard.write_ns");
pub(crate) const SHARD_COMPRESSION_PERMILLE: Name<Gauge> =
    Name::declare("io.shard.compression_permille");
pub(crate) const SHARD_VERIFY_REWRITES: Name<Counter> = Name::declare("io.shard.verify_rewrites");
pub(crate) const SHARD_QUARANTINED: Name<Counter> = Name::declare("io.shard.quarantined");
pub(crate) const SHARD_RECORDS_LOST: Name<Counter> = Name::declare("io.shard.records_lost");
pub(crate) const SHARD_WRITE_ALL: Name<Span> = Name::declare("io.shard.write_all");
pub(crate) const SHARD_READ_ALL: Name<Span> = Name::declare("io.shard.read_all");

/// Per codec, by `CodecId::name`.
pub(crate) const CODEC_ENCODE_NS: Name<Histogram, 1> = Name::declare("io.codec.{}.encode_ns");
pub(crate) const CODEC_DECODE_NS: Name<Histogram, 1> = Name::declare("io.codec.{}.decode_ns");
pub(crate) const CODEC_BYTES_IN: Name<Counter, 1> = Name::declare("io.codec.{}.bytes_in");
pub(crate) const CODEC_BYTES_OUT: Name<Counter, 1> = Name::declare("io.codec.{}.bytes_out");

pub(crate) const SINK_BYTES_WRITTEN: Name<Counter> = Name::declare("io.sink.bytes_written");
pub(crate) const SINK_FILES_WRITTEN: Name<Counter> = Name::declare("io.sink.files_written");
pub(crate) const SINK_BYTES_READ: Name<Counter> = Name::declare("io.sink.bytes_read");
pub(crate) const SINK_FSYNC_NS: Name<Histogram> = Name::declare("io.sink.fsync_ns");
pub(crate) const SINK_DIRSYNC_NS: Name<Histogram> = Name::declare("io.sink.dirsync_ns");

pub(crate) const FAULT_INJECTED: Name<Counter> = Name::declare("io.fault.injected");
pub(crate) const FAULT_WRITE_TRANSIENT: Name<Counter> = Name::declare("io.fault.write_transient");
pub(crate) const FAULT_WRITE_PERMANENT: Name<Counter> = Name::declare("io.fault.write_permanent");
pub(crate) const FAULT_READ_TRANSIENT: Name<Counter> = Name::declare("io.fault.read_transient");
pub(crate) const FAULT_CORRUPTED: Name<Counter> = Name::declare("io.fault.corrupted");

pub(crate) const RETRY_ATTEMPTS: Name<Counter> = Name::declare("io.retry.attempts");
pub(crate) const RETRY_BACKOFF_NS: Name<Counter> = Name::declare("io.retry.backoff_ns");
pub(crate) const RETRY_EXHAUSTED: Name<Counter> = Name::declare("io.retry.exhausted");
