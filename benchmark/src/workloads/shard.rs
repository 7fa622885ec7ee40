//! `shard_roundtrip`: drai-io alone. The same records are written with
//! `ShardWriter::write_all` and read back with `ShardReader::read_all`
//! under `Raw`, `Lz` and `Delta{4}` in turn, write and read timed
//! separately; codec, CRC, shard framing and the sink do all the work
//! and every other layer is idle.

use super::err;
use crate::clock;
use crate::gen::{self, Digest};
use crate::harness::{Iteration, Workload};
use crate::host::{mbps, rate_of};
use crate::trace::Recorder;
use drai_io::checksum::masked_crc32c;
use drai_io::codec::{codec_for, CodecId};
use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::{MemSink, StorageSink};
use std::hint::black_box;
use std::sync::Arc;

/// Records per pass.
pub const RECORDS: usize = 2048;
/// Bytes per record (4096 f32).
pub const RECORD_BYTES: usize = 16 * 1024;
/// Target shard size; checksums are verified on read as shipped.
pub const SHARD_BYTES: usize = 4 << 20;
/// Codecs, with the tag their metrics carry.
pub const CODECS: [(CodecId, &str); 3] = [
    (CodecId::Raw, "raw"),
    (CodecId::Lz, "lz"),
    (CodecId::Delta { width: 4 }, "delta4"),
];

/// The set-up workload: all records in one buffer.
pub struct ShardRoundtrip {
    payload: Vec<u8>,
}

impl ShardRoundtrip {
    /// Generate the records.
    pub fn setup(seed: u64) -> ShardRoundtrip {
        ShardRoundtrip {
            payload: gen::smooth_f32_records(RECORDS, RECORD_BYTES, seed),
        }
    }
}

impl Workload for ShardRoundtrip {
    /// Payload bytes × 3 codecs: each byte is written and read once
    /// per codec.
    fn bytes_per_iteration(&self) -> u64 {
        (self.payload.len() * CODECS.len()) as u64
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("records", RECORDS as f64),
            ("record_bytes", RECORD_BYTES as f64),
            ("shard_bytes", SHARD_BYTES as f64),
            ("codecs", CODECS.len() as f64),
        ]
    }

    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
        let payload_bytes = self.payload.len() as u64;
        let (mut write_s, mut read_s) = (0.0, 0.0);
        let mut failed = 0u64;
        let mut values = Vec::new();
        let mut digest = Digest::new();
        let mut shards_written = 0u64;

        // The root stays open across the untimed comparisons; the timed
        // region is the sum of the write and read spans under it.
        rec.scope("iteration", || -> Result<(), String> {
            for (codec, tag) in CODECS {
                let sink = MemSink::new();
                let spec = ShardSpec::new("roundtrip", SHARD_BYTES).with_codec(codec);
                let (manifest, w) = clock::time(|| {
                    rec.scope(&format!("io.shard_write.{tag}"), || {
                        ShardWriter::new(spec, &sink)
                            .write_all(self.payload.chunks_exact(RECORD_BYTES))
                    })
                });
                let manifest = manifest.map_err(err)?;
                let (back, r) = clock::time(|| {
                    rec.scope(&format!("io.shard_read.{tag}"), || {
                        ShardReader::open("roundtrip", &sink)?.read_all()
                    })
                });
                let back = back.map_err(err)?;
                write_s += w;
                read_s += r;

                // Records lost, or read back different from what was written.
                let matching = back
                    .iter()
                    .zip(self.payload.chunks_exact(RECORD_BYTES))
                    .filter(|(got, want)| got.as_slice() == *want)
                    .count();
                failed += (RECORDS - matching) as u64;
                let stored: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
                shards_written += manifest.shards.len() as u64;
                digest.text(tag);
                digest.record(&stored.to_le_bytes());
                digest.record(&(back.len() as u64).to_le_bytes());
                values.push((format!("io.shard_write_{tag}_MBps"), mbps(payload_bytes, w)));
                values.push((format!("io.shard_read_{tag}_MBps"), mbps(payload_bytes, r)));
                if codec != CodecId::Raw {
                    values.push((
                        format!("io.stored_ratio_{tag}"),
                        stored as f64 / payload_bytes as f64,
                    ));
                }
            }
            Ok(())
        })?;

        let total = self.bytes_per_iteration();
        values.push(("write_MBps".to_string(), mbps(total, write_s)));
        values.push(("read_MBps".to_string(), mbps(total, read_s)));
        values.push(("io.shards_written".to_string(), shards_written as f64));
        Ok(Iteration {
            wall_s: write_s + read_s,
            digest: digest.finish(),
            attempted: (RECORDS * CODECS.len()) as u64,
            failed,
            values,
        })
    }

    /// Codec, CRC and sink primitives on the same records.
    fn probes(&mut self) -> Result<Vec<(String, f64)>, String> {
        let bytes = self.payload.len() as u64;
        let records = || self.payload.chunks_exact(RECORD_BYTES);
        let mut out = Vec::new();
        for (id, tag) in CODECS {
            let codec = codec_for(id);
            let encoded: Vec<Vec<u8>> = records().map(|r| codec.encode(r)).collect();
            out.push((
                format!("io.codec_encode_{tag}_MBps"),
                rate_of(bytes, 3, || {
                    for r in records() {
                        black_box(codec.encode(black_box(r)));
                    }
                }),
            ));
            out.push((
                format!("io.codec_decode_{tag}_MBps"),
                rate_of(bytes, 3, || {
                    for e in &encoded {
                        black_box(codec.decode(black_box(e)).expect("own encoding decodes"));
                    }
                }),
            ));
        }
        out.push((
            "io.masked_crc32c_MBps".to_string(),
            rate_of(bytes, 3, || {
                for r in records() {
                    black_box(masked_crc32c(black_box(r)));
                }
            }),
        ));
        // Shard-sized blobs through the sink.
        let sink = MemSink::new();
        let blobs: Vec<(String, &[u8])> = self
            .payload
            .chunks(SHARD_BYTES)
            .enumerate()
            .map(|(i, b)| (format!("probe/{i:05}.bin"), b))
            .collect();
        out.push((
            "io.sink_write_MBps".to_string(),
            rate_of(bytes, 3, || {
                for (name, blob) in &blobs {
                    sink.write_file(name, blob)
                        .expect("MemSink accepts a plain name");
                }
            }),
        ));
        out.push((
            "io.sink_read_MBps".to_string(),
            rate_of(bytes, 3, || {
                for (name, _) in &blobs {
                    black_box(sink.read_file(name).expect("blob was just written"));
                }
            }),
        ));
        Ok(out)
    }
}
