//! The record-sharding engine — the paper's *shard* processing stage.
//!
//! "AI-ready" in the DRAI framework means, operationally, that samples are
//! "partitioned into train/test/val & sharded into binary formats for
//! scalable ingestion" (Table 2, level 5). This module provides the
//! format-agnostic half of that: fixed-target-size shard files of
//! CRC-framed records, written in parallel, indexed by a JSON manifest with
//! per-shard digests so corruption is detected at read time.
//!
//! ## Shard file layout
//!
//! ```text
//! +--------------------+ 8 bytes  magic "DSHRD1\0\0"
//! | codec tag          | 1 byte   CodecId::tag()
//! | reserved           | 3 bytes  zero
//! | record 0           |
//! |   stored_len u32le |
//! |   masked crc32c    |          over the stored (encoded) payload
//! |   stored payload   |
//! | record 1 ...       |
//! +--------------------+
//! ```
//!
//! Records are individually compressed so a reader can skip or stream
//! without decompressing the whole shard (TFRecord-style framing with the
//! same masked-CRC trick).
//!
//! ## Two checksums, one hash per byte
//!
//! A shard is covered twice: every record by the masked CRC-32C in its
//! header, the whole file by the CRC-32C in the manifest. Neither side
//! pays for that with a second pass. The writer hashes each stored payload
//! once, for its header, and derives the file's CRC from those headers
//! (`framed_file_crc`); the reader makes one scan per shard (`ShardScan`)
//! that hashes each payload once, checks it against its header and joins
//! it into the file's CRC, and only then decodes. The join is
//! `Crc32Stream::update_hashed`; both values are bit for bit what two
//! passes gave (`crates/io/tests/reader_equivalence.rs` keeps the two-pass
//! reader as the reference, `shard_bytes_pin.rs` checks every manifest CRC
//! against `crc32c` of the file).
//!
//! ## Memory: a window at a time
//!
//! [`ShardWriter::write_all`] pulls its records lazily, a window of about
//! four shards of framed bytes at a time, and stores every shard the window
//! closes before it pulls the next. It holds at most one window of framed
//! records, the frames of the shard still open and one run, however many
//! records the iterator yields. The window does not move a stored byte: a
//! frame does not depend on where it sits, and shards are packed by a
//! left-to-right rule.
//!
//! `read_all` stays on the calling thread and returns one `Vec<u8>` per
//! record. That is a measured decision, not an omission: see
//! EXPERIMENTS.md "SHARD-ROUNDTRIP (PR 20)" before parallelising it or
//! handing out slices of one arena.

use crate::checksum::{crc32c, masked_crc32c, unmask_crc32c, Crc32Stream};
use crate::codec::{codec_and_meter, Codec, CodecId, CodecMeter};
use crate::json::Json;
use crate::names;
use crate::parallel::par_map;
use crate::sink::StorageSink;
use crate::IoError;
use drai_telemetry::{Registry, Stopwatch};

const SHARD_MAGIC: &[u8; 8] = b"DSHRD1\0\0";
const FILE_HEADER: usize = 12; // magic + codec tag + 3 reserved
const RECORD_HEADER: usize = 8; // u32 len + u32 masked crc

/// Payload bytes the writer hands a worker at a time (see
/// [`ShardWriter::write_all`]). Cut by bytes, not by record count, so a
/// few large records spread over the workers as evenly as many small
/// ones; small enough that a framed run is still in cache when its CRCs
/// are taken, large enough that a run's fixed costs (one buffer, two
/// clock reads, three counters) vanish. Never derived from the CPU count;
/// the stored bytes do not depend on it either way.
const RUN_PAYLOAD_BYTES: usize = 256 << 10;

/// Least framed bytes the writer pulls into one window: 32 runs, enough
/// to keep the workers busy when shards are small.
const MIN_WINDOW_BYTES: usize = 8 << 20;

/// Framed bytes (payloads and record headers) the writer pulls from its
/// records before it frames and stores them (see
/// [`ShardWriter::write_all`]): four shards, at least `MIN_WINDOW_BYTES`.
/// Four, not two: with two a window, the shards and runs of successive
/// windows landed in the worker arenas in a changing mix, and over
/// repeated writes the arenas' high-water mark climbed (`tabular_fig1`:
/// to the parent's 294 MiB in one run of three; EXPERIMENTS.md
/// "BOUNDED-WRITE"). A function of the spec alone, never of the CPU
/// count or the environment; the stored bytes do not depend on it.
fn window_bytes_for(target_shard_bytes: usize) -> usize {
    target_shard_bytes.saturating_mul(4).max(MIN_WINDOW_BYTES)
}

/// Bytes a record's buffer share allows beyond its payload and header:
/// what a codec's own framing adds to a payload it stores as it is (Lz a
/// literal-length varint and a terminator, Rle a block tag and length,
/// Delta a tag), and the constant in the codecs' `reserve` hints.
const CODEC_FRAMING_SLACK: usize = 16;

/// Allocation granule of the buffer a shard file is assembled in.
const SHARD_BUFFER_GRANULE: usize = 64 << 10;

/// Configuration for a shard run.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Prefix for shard file names: `{prefix}-{index:05}.shard`.
    pub prefix: String,
    /// Target (soft maximum) bytes of stored payload per shard. A single
    /// record larger than the target still becomes one oversized shard.
    pub target_shard_bytes: usize,
    /// Codec applied to each record payload.
    pub codec: CodecId,
    /// Read each shard back after writing and compare its CRC-32C with
    /// the just-computed digest, rewriting (up to `VERIFY_REWRITES`
    /// times) on mismatch. Catches silent corruption between the write
    /// path and stable storage at the cost of one extra read per shard.
    pub verify_writes: bool,
}

/// Rewrite attempts per shard when [`ShardSpec::verify_writes`] detects
/// a mismatch before giving up with a checksum error.
pub(crate) const VERIFY_REWRITES: u32 = 3;

impl ShardSpec {
    /// Spec with the raw codec, no write verification, and a given
    /// target size.
    pub fn new(prefix: impl Into<String>, target_shard_bytes: usize) -> Self {
        ShardSpec {
            prefix: prefix.into(),
            target_shard_bytes: target_shard_bytes.max(1),
            codec: CodecId::Raw,
            verify_writes: false,
        }
    }

    /// Builder-style codec override.
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.codec = codec;
        self
    }

    /// Builder-style verify-after-write toggle.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify_writes = verify;
        self
    }

    fn shard_name(&self, index: usize) -> String {
        format!("{}-{index:05}.shard", self.prefix)
    }

    fn manifest_name(&self) -> String {
        manifest_name(&self.prefix)
    }
}

/// The blob a shard run's manifest is stored under.
fn manifest_name(prefix: &str) -> String {
    format!("{prefix}.manifest.json")
}

/// Per-shard entry in a [`ShardManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Blob name within the sink.
    pub name: String,
    /// Number of records in this shard.
    pub records: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// CRC-32C of the entire shard file.
    pub crc32c: u32,
}

/// Index of a completed shard run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard spec prefix this manifest belongs to.
    pub prefix: String,
    /// Codec used for record payloads.
    pub codec: CodecId,
    /// All shards, in record order.
    pub shards: Vec<ShardInfo>,
    /// Total records across shards.
    pub total_records: u64,
    /// Total *uncompressed* payload bytes across records.
    pub payload_bytes: u64,
}

impl ShardManifest {
    /// Serialize to deterministic JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::from("drai-shard-manifest-v1")),
            ("prefix", Json::from(self.prefix.clone())),
            ("codec", Json::from(self.codec.name())),
            ("total_records", Json::from(self.total_records)),
            ("payload_bytes", Json::from(self.payload_bytes)),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::from(s.name.clone())),
                                ("records", Json::from(s.records)),
                                ("bytes", Json::from(s.bytes)),
                                ("crc32c", Json::from(s.crc32c as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse from manifest JSON read from `blob`.
    pub(crate) fn from_json(v: &Json, blob: &str) -> Result<ShardManifest, IoError> {
        let bad = |what: &str| IoError::Format {
            blob: blob.to_string(),
            what: what.to_string(),
        };
        if v.get("format").and_then(Json::as_str) != Some("drai-shard-manifest-v1") {
            return Err(bad("missing/unknown format marker"));
        }
        let prefix = v
            .get("prefix")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing prefix"))?
            .to_string();
        let codec_name = v
            .get("codec")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing codec"))?;
        let codec = CodecId::from_name(codec_name)
            .ok_or_else(|| bad(&format!("unknown codec {codec_name}")))?;
        let total_records = v
            .get("total_records")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing total_records"))?;
        let payload_bytes = v
            .get("payload_bytes")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing payload_bytes"))?;
        let mut shards = Vec::new();
        for s in v
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing shards"))?
        {
            let crc = s
                .get("crc32c")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("shard missing crc32c"))?;
            shards.push(ShardInfo {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("shard missing name"))?
                    .to_string(),
                records: s
                    .get("records")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("shard missing records"))?,
                bytes: s
                    .get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("shard missing bytes"))?,
                crc32c: u32::try_from(crc)
                    .map_err(|_| bad(&format!("shard crc32c {crc} is wider than 32 bits")))?,
            });
        }
        let listed = shards
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.records));
        if listed != Some(total_records) {
            return Err(bad(&format!(
                "total_records {total_records} is not the sum of its shards' records"
            )));
        }
        Ok(ShardManifest {
            prefix,
            codec,
            shards,
            total_records,
            payload_bytes,
        })
    }
}

/// Writes records into size-targeted shard files through a [`StorageSink`].
pub struct ShardWriter<'a> {
    spec: ShardSpec,
    sink: &'a dyn StorageSink,
}

impl<'a> ShardWriter<'a> {
    /// Writer for `spec` targeting `sink`.
    pub fn new(spec: ShardSpec, sink: &'a dyn StorageSink) -> Self {
        ShardWriter { spec, sink }
    }

    /// Encode and write all records, preserving order, and persist the
    /// manifest.
    ///
    /// The records are pulled from the iterator a window at a time: a
    /// window closes with the record that brings its framed bytes to four
    /// times `target_shard_bytes`, and to at least 8 MiB. The window's
    /// records are cut into contiguous runs of a few hundred KiB of
    /// payload (`RUN_PAYLOAD_BYTES`); each run is framed data-parallel
    /// ([`par_map`]) into one buffer of finished records
    /// (`stored_len | masked crc32c | stored payload`, the codec writing
    /// straight into the buffer). A framed record does not depend on
    /// where it sits, so a shard file is the header plus consecutive
    /// slices of those buffers: the frames are packed greedily into
    /// shards by size, and the shards the window closed are assembled,
    /// checksummed and written concurrently. The runs the shard still
    /// open has frames in are carried into the next window and the rest
    /// are dropped, so beside the shards being assembled the writer holds
    /// at most a window, an open shard and a run of framed bytes, however
    /// many records there are. What is stored is a function of the
    /// records and the spec alone — not of where the windows and runs
    /// were cut or of the CPU count.
    ///
    /// A manifest an earlier write left under the same prefix is deleted
    /// before any shard is stored, so on error no manifest of the prefix
    /// is left: not a new one, and not an old one describing shards this
    /// write has since replaced. The shards of earlier windows may have
    /// been stored.
    ///
    /// Telemetry: an `io.shard.write_all` span (items = records, bytes =
    /// uncompressed payload), `io.shard.{records,bytes_in,bytes_out}`
    /// counters, `io.shard.{encode_ns,write_ns}` phase histograms (one
    /// sample a call, summed over its windows), and the
    /// `io.shard.compression_permille` gauge (stored size as ‰ of
    /// payload size, 1000 = incompressible). The codec's
    /// `io.codec.<name>.{encode_ns,bytes_in,bytes_out}` are recorded once
    /// per run, not per record.
    pub fn write_all<R>(&self, records: R) -> Result<ShardManifest, IoError>
    where
        R: IntoIterator,
        R::Item: AsRef<[u8]> + Send + Sync,
    {
        let window_bytes = window_bytes_for(self.spec.target_shard_bytes);
        self.write_all_in(RUN_PAYLOAD_BYTES, window_bytes, records)
    }

    /// [`write_all`](Self::write_all) with the run and window sizes given
    /// (the test seam: every pair must store the same bytes).
    fn write_all_in<R>(
        &self,
        run_payload_bytes: usize,
        window_bytes: usize,
        records: R,
    ) -> Result<ShardManifest, IoError>
    where
        R: IntoIterator,
        R::Item: AsRef<[u8]> + Send + Sync,
    {
        let registry = Registry::current();
        let span = registry.span(&names::SHARD_WRITE_ALL, []);
        // Entered for the whole write so nested sink/codec telemetry
        // (and the parallel workers below, via `par_map`'s hand-off)
        // attaches under this span.
        let _in_write_all = span.enter();
        let spec = &self.spec;
        let manifest_name = spec.manifest_name();
        self.sink.delete(&manifest_name)?;
        let (codec, meter) = codec_and_meter(spec.codec);
        let mut records = records.into_iter();
        let mut window: Vec<R::Item> = Vec::new();
        // The framed runs the open shard has frames in, and where its
        // first frame starts in the first of them.
        let (mut carried, mut open_at) = (Vec::<FramedRun>::new(), 0);
        let mut shards: Vec<ShardInfo> = Vec::new();
        let (mut total_records, mut payload_bytes) = (0u64, 0u64);
        let (mut encode_ns, mut write_ns) = (0u64, 0u64);
        let mut pulled_all = false;
        while !pulled_all {
            // Headers count, so empty records fill a window too.
            let mut framed_bytes = 0;
            while framed_bytes < window_bytes {
                let Some(record) = records.next() else {
                    pulled_all = true;
                    break;
                };
                framed_bytes += RECORD_HEADER + record.as_ref().len();
                window.push(record);
            }
            let runs = cut_runs(&window, run_payload_bytes);
            let window_payload: u64 = runs.iter().map(|&(_, _, p)| p as u64).sum();
            span.add_items(window.len() as u64);
            span.add_bytes(window_payload);
            registry
                .handle(&names::SHARD_RECORDS, [])
                .add(window.len() as u64);
            registry
                .handle(&names::SHARD_BYTES_IN, [])
                .add(window_payload);
            let first_record = total_records as usize;
            total_records += window.len() as u64;
            payload_bytes += window_payload;

            // Frame every run in parallel, in record order.
            let encode_start = Stopwatch::start();
            let framed = par_map(&runs, |&(s, e, payload)| {
                let encode_run = Stopwatch::start();
                let run = FramedRun::encode(codec.as_ref(), &window[s..e], payload);
                let stored = run.frames.len() - (e - s) * RECORD_HEADER;
                meter.record_encode(encode_run.elapsed_ns(), payload, stored);
                run.seal(&spec.prefix, first_record + s)
            });
            encode_ns += encode_start.elapsed_ns();
            window.clear();
            for run in framed {
                carried.push(run?);
            }

            // Assemble and write the shards that closed in parallel; infos
            // keep shard order. `par_map` attaches this span's context in
            // each worker, so sink writes and verify rewrites report into
            // the caller's registry under this span, whatever thread runs
            // them.
            let (closed, (open_run, open_start)) =
                pack(&carried, open_at, spec.target_shard_bytes, pulled_all);
            let first_shard = shards.len();
            let write_start = Stopwatch::start();
            let infos = par_map(closed.iter().enumerate(), |(i, group)| {
                self.store(first_shard + i, group)
            });
            write_ns += write_start.elapsed_ns();
            for info in infos {
                shards.push(info?);
            }
            carried.drain(..open_run);
            open_at = open_start;
        }
        registry
            .handle(&names::SHARD_ENCODE_NS, [])
            .record(encode_ns);
        registry.handle(&names::SHARD_WRITE_NS, []).record(write_ns);
        let stored_bytes: u64 = shards.iter().map(|s| s.bytes).sum();
        registry
            .handle(&names::SHARD_BYTES_OUT, [])
            .add(stored_bytes);
        if let Some(permille) = stored_bytes.saturating_mul(1000).checked_div(payload_bytes) {
            registry
                .handle(&names::SHARD_COMPRESSION_PERMILLE, [])
                .set(permille as i64);
        }

        let manifest = ShardManifest {
            prefix: self.spec.prefix.clone(),
            codec: self.spec.codec,
            total_records,
            payload_bytes,
            shards,
        };
        let manifest_bytes = manifest.to_json().to_string_compact().into_bytes();
        self.sink.write_file(&manifest_name, &manifest_bytes)?;
        if self.spec.verify_writes {
            // The manifest is the root of trust for every later read —
            // silent corruption here quarantines *every* shard, so it
            // gets the same read-back verification as the shards.
            verify_written(
                self.sink,
                &manifest_name,
                crc32c(&manifest_bytes),
                &manifest_bytes,
            )?;
        }
        Ok(manifest)
    }

    /// Assemble shard `index` from its frames, write it and, when the
    /// spec asks, read it back.
    fn store(&self, index: usize, group: &ShardGroup<'_>) -> Result<ShardInfo, IoError> {
        let spec = &self.spec;
        // Capacity in whole granules: shards packed to one target differ
        // by a few hundred bytes, and a worker's next buffer fits the hole
        // its last one left only if it asks for no more than that one did.
        let mut buf =
            Vec::with_capacity((FILE_HEADER + group.bytes).next_multiple_of(SHARD_BUFFER_GRANULE));
        buf.extend_from_slice(SHARD_MAGIC);
        buf.push(spec.codec.tag());
        buf.extend_from_slice(&[0, 0, 0]);
        for piece in &group.pieces {
            buf.extend_from_slice(piece);
        }
        let name = spec.shard_name(index);
        let digest = framed_file_crc(&buf);
        self.sink.write_file(&name, &buf)?;
        if spec.verify_writes {
            verify_written(self.sink, &name, digest, &buf)?;
        }
        Ok(ShardInfo {
            name,
            records: group.records,
            bytes: buf.len() as u64,
            crc32c: digest,
        })
    }
}

/// Cut records into contiguous runs of about `run_payload_bytes` of
/// payload: a run closes with the record that fills it. One
/// `(start, end, payload)` a run.
fn cut_runs<T: AsRef<[u8]>>(records: &[T], run_payload_bytes: usize) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    let (mut start, mut acc) = (0, 0usize);
    for (i, r) in records.iter().enumerate() {
        acc += r.as_ref().len();
        if acc >= run_payload_bytes {
            runs.push((start, i + 1, acc));
            (start, acc) = (i + 1, 0);
        }
    }
    if start < records.len() {
        runs.push((start, records.len(), acc));
    }
    runs
}

/// Pack the frames of `runs` greedily by size into shards, from `start`
/// bytes into the first run on: a shard closes when its next frame would
/// take it past `target` (so a frame larger than the target gets a shard
/// of its own). The last shard closes too when `last`; otherwise it stays
/// open, and the second value says where it begins — a run index and an
/// offset in that run — for the next window to pack from.
fn pack(
    runs: &[FramedRun],
    start: usize,
    target: usize,
    last: bool,
) -> (Vec<ShardGroup<'_>>, (usize, usize)) {
    let mut closed = Vec::new();
    let mut open = ShardGroup::default();
    let mut open_at = (0, start);
    for (r, run) in runs.iter().enumerate() {
        let skip = if r == 0 { start } else { 0 };
        let (mut piece_start, mut pos) = (skip, skip);
        let first = run.frame_ends.partition_point(|&end| end <= skip);
        for &end in &run.frame_ends[first..] {
            let sz = end - pos;
            if open.bytes > 0 && open.bytes + sz > target {
                // (An empty piece when the shard ends where the run began.)
                open.pieces.push(&run.frames[piece_start..pos]);
                closed.push(std::mem::take(&mut open));
                piece_start = pos;
                open_at = (r, pos);
            }
            open.bytes += sz;
            open.records += 1;
            pos = end;
        }
        open.pieces.push(&run.frames[piece_start..pos]);
    }
    if last {
        if open.records > 0 {
            closed.push(open);
        }
        open_at = (runs.len(), 0);
    }
    (closed, open_at)
}

/// A contiguous run of records, framed back to back in one buffer.
struct FramedRun {
    /// `stored_len | masked crc32c | stored payload`, per record.
    frames: Vec<u8>,
    /// Offset in `frames` just past each record's frame.
    frame_ends: Vec<usize>,
}

impl FramedRun {
    /// Encode every record (`payload` bytes in all) behind an empty
    /// header. Nothing but the codec runs in here, which is what the
    /// codec's `encode_ns` times.
    fn encode<T: AsRef<[u8]>>(codec: &dyn Codec, records: &[T], payload: usize) -> FramedRun {
        // Sized for records the codec cannot shrink, so a run of them
        // does not outgrow (copy, and double) its buffer at the end.
        let mut frames =
            Vec::with_capacity(payload + records.len() * (RECORD_HEADER + CODEC_FRAMING_SLACK));
        let mut frame_ends = Vec::with_capacity(records.len());
        for record in records {
            frames.extend_from_slice(&[0; RECORD_HEADER]);
            codec.encode_into(record.as_ref(), &mut frames);
            frame_ends.push(frames.len());
        }
        FramedRun { frames, frame_ends }
    }

    /// Fill in every header: the stored length, and the masked CRC of the
    /// stored payload. `first_record` is the run's first record index in
    /// the whole write, for the error message.
    fn seal(mut self, prefix: &str, first_record: usize) -> Result<FramedRun, IoError> {
        let mut start = 0;
        for (i, &end) in self.frame_ends.iter().enumerate() {
            let (header, stored) = self.frames[start..end].split_at_mut(RECORD_HEADER);
            let len = stored_len_field(stored.len(), prefix, first_record + i)?;
            header[..4].copy_from_slice(&len.to_le_bytes());
            header[4..].copy_from_slice(&masked_crc32c(stored).to_le_bytes());
            start = end;
        }
        Ok(self)
    }
}

/// The `stored_len` header field for a stored payload of `len` bytes. The
/// field is a `u32`; a longer payload cannot be framed — writing its
/// length truncated would make every later record of the shard
/// unreadable — so it is refused. The error names the run's `prefix`:
/// the shard the record would land in is not cut yet.
fn stored_len_field(len: usize, prefix: &str, record: usize) -> Result<u32, IoError> {
    u32::try_from(len).map_err(|_| IoError::Format {
        blob: prefix.to_string(),
        what: format!(
            "record {record} stores {len} bytes, more than the {} a shard frame can hold",
            u32::MAX
        ),
    })
}

/// `stored_len` and masked CRC out of a record header.
fn frame_header(header: &[u8]) -> (usize, u32) {
    let field = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    (field(0) as usize, field(4))
}

/// CRC-32C of a shard file the writer has just assembled, without a
/// second pass over its payloads: the file header and the record headers
/// are hashed, and every stored payload goes in by the CRC its header
/// holds (`Crc32Stream::update_hashed`). Equal to `crc32c(file)` bit for
/// bit, at the cost of 8 bytes and a few multiplies per record.
fn framed_file_crc(file: &[u8]) -> u32 {
    let mut crc = Crc32Stream::new_crc32c();
    crc.update(&file[..FILE_HEADER]);
    let mut pos = FILE_HEADER;
    while pos < file.len() {
        let header = &file[pos..pos + RECORD_HEADER];
        let (len, masked) = frame_header(header);
        crc.update(header);
        crc.update_hashed(unmask_crc32c(masked), len);
        pos += RECORD_HEADER + len;
    }
    crc.finalize()
}

/// The frames of one shard: consecutive slices of the framed runs.
#[derive(Default)]
struct ShardGroup<'a> {
    pieces: Vec<&'a [u8]>,
    records: u64,
    /// Frame bytes in `pieces` (the shard file less its 12-byte header).
    bytes: usize,
}

/// Read a just-written shard back and compare digests, rewriting on
/// mismatch (or on read failure — the blob may not have landed at all).
///
/// Telemetry: `io.shard.verify_rewrites` counts rewrites issued; the
/// final failure (digest still wrong after `VERIFY_REWRITES` rewrites)
/// surfaces as a [`IoError::ChecksumMismatch`].
fn verify_written(
    sink: &dyn StorageSink,
    name: &str,
    digest: u32,
    buf: &[u8],
) -> Result<(), IoError> {
    let registry = Registry::current();
    for attempt in 0..=VERIFY_REWRITES {
        let ok = match sink.read_file(name) {
            Ok(back) => crc32c(&back) == digest,
            Err(_) => false,
        };
        if ok {
            return Ok(());
        }
        if attempt < VERIFY_REWRITES {
            registry.handle(&names::SHARD_VERIFY_REWRITES, []).incr();
            sink.write_file(name, buf)?;
        }
    }
    Err(IoError::ChecksumMismatch {
        blob: name.to_string(),
        at: format!("the read-back after {VERIFY_REWRITES} rewrites"),
    })
}

/// One shard the recovering reader could not fully restore.
#[derive(Debug, Clone)]
pub struct DamagedShard {
    /// Index into the manifest's shard list.
    pub index: usize,
    /// Blob name within the sink.
    pub name: String,
    /// Records the manifest declared for this shard.
    pub records_declared: u64,
    /// CRC-valid records salvaged from the intact prefix.
    pub records_recovered: u64,
    /// Human-readable cause (read failure, file CRC, record CRC, ...).
    pub reason: String,
}

/// Outcome of [`ShardReader::read_all_recovering`]: which shards were
/// quarantined and how many records could not be restored.
#[derive(Debug, Clone, Default)]
pub struct DamageReport {
    /// Quarantined shards, in manifest order.
    pub damaged: Vec<DamagedShard>,
    /// Total records declared by the manifest but not recovered.
    pub records_lost: u64,
}

impl DamageReport {
    /// True when every shard was read back intact.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty() && self.records_lost == 0
    }
}

/// Records plus damage summary from a recovering read.
#[derive(Debug, Clone)]
pub struct RecoveredRead {
    /// All records restored, in manifest order (damaged shards
    /// contribute their salvageable prefix).
    pub records: Vec<Vec<u8>>,
    /// What was quarantined.
    pub damage: DamageReport,
}

/// Cap on `Vec::with_capacity` hints derived from untrusted manifest
/// counts: a corrupt manifest declaring `u64::MAX` records must not
/// trigger a giant up-front allocation before any CRC has been checked.
/// Reads beyond the clamp simply grow the vector normally.
const MAX_PREALLOC_RECORDS: usize = 1 << 16;

/// Reads records back from a shard run, verifying CRCs.
pub struct ShardReader<'a> {
    manifest: ShardManifest,
    sink: &'a dyn StorageSink,
}

impl<'a> ShardReader<'a> {
    /// Open by manifest prefix.
    pub fn open(prefix: &str, sink: &'a dyn StorageSink) -> Result<Self, IoError> {
        let name = manifest_name(prefix);
        let raw = sink.read_file(&name)?;
        let bad = |what: String| IoError::Format {
            blob: name.clone(),
            what,
        };
        let text = std::str::from_utf8(&raw).map_err(|_| bad("not UTF-8".to_string()))?;
        let json = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let manifest = ShardManifest::from_json(&json, &name)?;
        Ok(ShardReader { manifest, sink })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Read and decode every record of one shard, verifying the whole-file
    /// CRC, each record CRC and the record count the manifest declares.
    pub fn read_shard(&self, index: usize) -> Result<Vec<Vec<u8>>, IoError> {
        self.read_shard_with(&codec_and_meter(self.manifest.codec), index)
    }

    /// [`read_shard`](Self::read_shard) with the codec and its metric
    /// handles resolved by the caller — once per read, so that nothing
    /// small is allocated between one shard's records and the next's.
    fn read_shard_with(&self, decoder: &Decoder, index: usize) -> Result<Vec<Vec<u8>>, IoError> {
        let info = self
            .manifest
            .shards
            .get(index)
            .ok_or_else(|| IoError::Format {
                blob: manifest_name(&self.manifest.prefix),
                what: format!("shard index {index} out of range"),
            })?;
        let data = self.sink.read_file(&info.name)?;
        let scan = ShardScan::of(&data, &info.name, self.manifest.codec);
        if scan.file_crc != info.crc32c {
            return Err(IoError::ChecksumMismatch {
                blob: info.name.clone(),
                at: "the whole file".to_string(),
            });
        }
        match scan.decode(decoder) {
            (records, None) if records.len() as u64 == info.records => Ok(records),
            (records, None) => Err(IoError::Format {
                blob: info.name.clone(),
                what: format!(
                    "record count mismatch (manifest {}, parsed {})",
                    info.records,
                    records.len()
                ),
            }),
            (_, Some(e)) => Err(e),
        }
    }

    /// All records across shards, in order, fully materialized.
    /// The capacity hint from the (untrusted) manifest is clamped so a
    /// corrupt record count cannot force a giant allocation before the
    /// per-shard CRC checks run.
    pub fn read_all(&self) -> Result<Vec<Vec<u8>>, IoError> {
        let registry = Registry::current();
        let span = registry.span(&names::SHARD_READ_ALL, []);
        let _in_read = span.enter();
        let decoder = codec_and_meter(self.manifest.codec);
        let mut out =
            Vec::with_capacity((self.manifest.total_records as usize).min(MAX_PREALLOC_RECORDS));
        for i in 0..self.manifest.shards.len() {
            out.extend(self.read_shard_with(&decoder, i)?);
        }
        span.add_items(out.len() as u64);
        span.add_bytes(out.iter().map(|r| r.len() as u64).sum());
        Ok(out)
    }

    /// Like [`read_all`](Self::read_all), but quarantine damaged shards
    /// into a [`DamageReport`] instead of aborting the whole read.
    ///
    /// Per shard: a read failure quarantines the shard with zero records
    /// recovered; a parse/CRC failure salvages the CRC-valid record
    /// prefix before the first corruption; a whole-file CRC mismatch
    /// whose records all still verify individually recovers everything
    /// but is reported (the corruption sits in framing padding). Shards
    /// recovering fewer records than the manifest declares contribute
    /// the difference to `records_lost`.
    ///
    /// Telemetry: `io.shard.quarantined` counts quarantined shards and
    /// `io.shard.records_lost` the unrecovered records.
    pub fn read_all_recovering(&self) -> RecoveredRead {
        let registry = Registry::current();
        let decoder = codec_and_meter(self.manifest.codec);
        let mut records =
            Vec::with_capacity((self.manifest.total_records as usize).min(MAX_PREALLOC_RECORDS));
        let mut damage = DamageReport::default();
        for (index, info) in self.manifest.shards.iter().enumerate() {
            let mut quarantine = |recovered: Vec<Vec<u8>>, reason: String| {
                let lost = info.records.saturating_sub(recovered.len() as u64);
                damage.records_lost += lost;
                damage.damaged.push(DamagedShard {
                    index,
                    name: info.name.clone(),
                    records_declared: info.records,
                    records_recovered: recovered.len() as u64,
                    reason,
                });
                recovered
            };
            match self.sink.read_file(&info.name) {
                Err(e) => {
                    records.extend(quarantine(Vec::new(), format!("read failed: {e}")));
                }
                Ok(data) => {
                    let scan = ShardScan::of(&data, &info.name, self.manifest.codec);
                    let file_ok = scan.file_crc == info.crc32c;
                    let (recs, err) = scan.decode(&decoder);
                    let complete = err.is_none() && recs.len() as u64 == info.records;
                    if file_ok && complete {
                        records.extend(recs);
                    } else {
                        let reason = match err {
                            Some(e) => e.to_string(),
                            None if !file_ok => "shard file CRC mismatch".to_string(),
                            None => format!(
                                "record count mismatch (manifest {}, parsed {})",
                                info.records,
                                recs.len()
                            ),
                        };
                        records.extend(quarantine(recs, reason));
                    }
                }
            }
        }
        registry
            .handle(&names::SHARD_QUARANTINED, [])
            .add(damage.damaged.len() as u64);
        registry
            .handle(&names::SHARD_RECORDS_LOST, [])
            .add(damage.records_lost);
        RecoveredRead { records, damage }
    }
}

/// Parse one shard file body (exposed for the failure-injection tests).
pub fn parse_shard(data: &[u8], name: &str, codec_id: CodecId) -> Result<Vec<Vec<u8>>, IoError> {
    let (records, err) = parse_shard_partial(data, name, codec_id);
    match err {
        None => Ok(records),
        Some(e) => Err(e),
    }
}

/// Parse as many CRC-valid records as possible from a shard body,
/// stopping at the first structural or checksum failure. Returns the
/// salvaged prefix and the error that stopped the parse, if any — the
/// recovering reader's salvage primitive. Framing after the first bad
/// record is untrustworthy (record lengths chain the offsets), so
/// salvage never skips past a failure.
pub fn parse_shard_partial(
    data: &[u8],
    name: &str,
    codec_id: CodecId,
) -> (Vec<Vec<u8>>, Option<IoError>) {
    ShardScan::of(data, name, codec_id).decode(&codec_and_meter(codec_id))
}

/// A codec and the handles of its metrics, as a read resolves them.
type Decoder = (Box<dyn Codec>, CodecMeter);

/// One pass over a shard file: every byte hashed once, for both of the
/// checksums a read verifies.
struct ShardScan<'a> {
    data: &'a [u8],
    /// The shard's blob name, for errors.
    name: &'a str,
    /// CRC-32C of the whole file, whatever it holds.
    file_crc: u32,
    /// Records before the first failure: framed inside the file, stored
    /// payload equal to the CRC in its header.
    checked: usize,
    /// The structural or checksum failure that ended the walk.
    error: Option<IoError>,
}

impl<'a> ShardScan<'a> {
    /// Walk the frames of `data`. A payload is hashed for its record CRC
    /// and that CRC joined into the file's
    /// (`Crc32Stream::update_hashed`); only the headers are hashed
    /// directly. Where the walk stops — bad magic, a length past the end,
    /// a record CRC that does not match — the bytes it has not hashed go
    /// into the file CRC as they are, so `file_crc` is `crc32c(data)` on
    /// any input.
    fn of(data: &'a [u8], name: &'a str, codec: CodecId) -> ShardScan<'a> {
        let mut file = Crc32Stream::new_crc32c();
        let mut checked = 0;
        let mut hashed = 0;
        let bad = |what: String| {
            Some(IoError::Format {
                blob: name.to_string(),
                what,
            })
        };
        let error = 'walk: {
            if data.len() < FILE_HEADER || &data[..8] != SHARD_MAGIC {
                break 'walk bad("bad shard magic".to_string());
            }
            let file_codec = match CodecId::from_tag(data[8]) {
                Ok(c) => c,
                Err(e) => break 'walk bad(format!("codec tag: {e}")),
            };
            if file_codec != codec {
                break 'walk bad(format!(
                    "codec mismatch (file={}, manifest={})",
                    file_codec.name(),
                    codec.name()
                ));
            }
            file.update(&data[..FILE_HEADER]);
            hashed = FILE_HEADER;
            while hashed < data.len() {
                let Some(header) = data.get(hashed..hashed + RECORD_HEADER) else {
                    break 'walk bad("truncated record header".to_string());
                };
                let (len, crc) = frame_header(header);
                let body = hashed + RECORD_HEADER;
                if len > data.len() - body {
                    break 'walk bad("truncated record payload".to_string());
                }
                let masked = masked_crc32c(&data[body..body + len]);
                file.update(header);
                file.update_hashed(unmask_crc32c(masked), len);
                hashed = body + len;
                if masked != crc {
                    break 'walk Some(IoError::ChecksumMismatch {
                        blob: name.to_string(),
                        at: format!("record {checked}"),
                    });
                }
                checked += 1;
            }
            None
        };
        file.update(&data[hashed..]);
        ShardScan {
            data,
            name,
            file_crc: file.finalize(),
            checked,
            error,
        }
    }

    /// Decode the checked records in order: what decoded, and the first
    /// failure in file order — a record that would not decode comes
    /// before whatever ended the walk. One `decode_ns` sample per shard.
    fn decode(self, (codec, meter): &Decoder) -> (Vec<Vec<u8>>, Option<IoError>) {
        let decode_start = Stopwatch::start();
        let mut records = Vec::with_capacity(self.checked);
        let mut error = self.error;
        let mut pos = FILE_HEADER;
        for record in 0..self.checked {
            // The walk has been here: the frame lies inside `data`.
            let body = pos + RECORD_HEADER;
            let (len, _) = frame_header(&self.data[pos..body]);
            pos = body + len;
            match codec.decode(&self.data[body..pos]) {
                Ok(record) => records.push(record),
                Err(source) => {
                    error = Some(IoError::Codec {
                        blob: self.name.to_string(),
                        record,
                        source,
                    });
                    break;
                }
            }
        }
        meter.record_decode(decode_start.elapsed_ns());
        (records, error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn records(n: usize, size: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..size).map(|j| ((i * 31 + j * 7) % 251) as u8).collect())
            .collect()
    }

    #[test]
    fn round_trip_single_shard() {
        let sink = MemSink::new();
        let recs = records(10, 100);
        let spec = ShardSpec::new("train", 1 << 20);
        let manifest = ShardWriter::new(spec, &sink).write_all(&recs).unwrap();
        assert_eq!(manifest.shards.len(), 1);
        assert_eq!(manifest.total_records, 10);
        assert_eq!(manifest.payload_bytes, 1000);
        let reader = ShardReader::open("train", &sink).unwrap();
        assert_eq!(reader.read_all().unwrap(), recs);
    }

    #[test]
    fn splits_at_target_size() {
        let sink = MemSink::new();
        let recs = records(100, 1000);
        let spec = ShardSpec::new("t", 10_000);
        let manifest = ShardWriter::new(spec, &sink).write_all(&recs).unwrap();
        assert!(
            manifest.shards.len() >= 10,
            "expected ~11 shards, got {}",
            manifest.shards.len()
        );
        // Order preserved across shards.
        let reader = ShardReader::open("t", &sink).unwrap();
        assert_eq!(reader.read_all().unwrap(), recs);
        // All but the last shard should be near target size.
        for s in &manifest.shards[..manifest.shards.len() - 1] {
            assert!(s.bytes <= 10_000 + 1020, "shard {} too large", s.name);
        }
    }

    #[test]
    fn oversized_record_gets_own_shard() {
        let sink = MemSink::new();
        let recs = vec![vec![1u8; 50_000], vec![2u8; 10], vec![3u8; 10]];
        let manifest = ShardWriter::new(ShardSpec::new("big", 1000), &sink)
            .write_all(&recs)
            .unwrap();
        assert_eq!(manifest.shards[0].records, 1);
        let reader = ShardReader::open("big", &sink).unwrap();
        assert_eq!(reader.read_all().unwrap(), recs);
    }

    #[test]
    fn compressed_shards_round_trip() {
        let sink = MemSink::new();
        let recs: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; 4096]).collect();
        for codec in [CodecId::Rle, CodecId::Lz, CodecId::Delta { width: 1 }] {
            let prefix = format!("c-{}", codec.name());
            let spec = ShardSpec::new(prefix.clone(), 1 << 20).with_codec(codec);
            let manifest = ShardWriter::new(spec, &sink).write_all(&recs).unwrap();
            assert_eq!(manifest.codec, codec);
            let reader = ShardReader::open(&prefix, &sink).unwrap();
            assert_eq!(reader.read_all().unwrap(), recs, "{codec:?}");
            // RLE/LZ on constant records must actually shrink the files.
            if codec != (CodecId::Delta { width: 1 }) {
                let stored: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
                assert!(stored < 20 * 4096 / 4, "{codec:?} stored {stored}");
            }
        }
    }

    #[test]
    fn stored_bytes_do_not_depend_on_the_run_or_window_size() {
        // Edge sizes, one record larger than a shard, and a megabyte of
        // small ones, so the constants cut several runs mid-shard.
        let mut recs = vec![vec![], vec![9], records(1, 127).remove(0), vec![7; 40_000]];
        recs.extend(records(1_100, 1000));
        recs.extend([vec![], records(1, 16 << 10).remove(0), vec![]]);
        let target = 30_000;
        for codec in [
            CodecId::Raw,
            CodecId::Rle,
            CodecId::Lz,
            CodecId::Delta { width: 4 },
        ] {
            let stored_with = |run_payload_bytes: usize, window_bytes: usize| {
                let sink = MemSink::new();
                let spec = ShardSpec::new("runs", target).with_codec(codec);
                let manifest = ShardWriter::new(spec, &sink)
                    .write_all_in(run_payload_bytes, window_bytes, &recs)
                    .unwrap();
                assert!(manifest.shards.len() > 3);
                let mut names = sink.list().unwrap();
                names.sort();
                names
                    .into_iter()
                    .map(|n| {
                        let bytes = sink.read_file(&n).unwrap();
                        (n, bytes)
                    })
                    .collect::<Vec<_>>()
            };
            // Runs of one record, of 1000 bytes, of the constant and of
            // everything; windows of one record, of less than a shard, of
            // one run, of the constant (here: every record) and of
            // everything.
            let expect = stored_with(RUN_PAYLOAD_BYTES, window_bytes_for(target));
            for run in [1, 1000, RUN_PAYLOAD_BYTES, usize::MAX] {
                for window in [
                    1,
                    target / 3,
                    RUN_PAYLOAD_BYTES,
                    window_bytes_for(target),
                    usize::MAX,
                ] {
                    assert!(
                        stored_with(run, window) == expect,
                        "{codec:?}: runs of {run} and windows of {window} bytes stored different bytes"
                    );
                }
            }
        }
    }

    /// A sink that keeps no shard and notes, at every shard write, how
    /// much payload the writer has pulled from its records and not yet
    /// stored.
    struct HeldSink<'a> {
        pulled: &'a AtomicUsize,
        stored: AtomicUsize,
        most_held: AtomicUsize,
    }

    impl StorageSink for HeldSink<'_> {
        fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
            if name.ends_with(".shard") {
                let records = parse_shard(data, name, CodecId::Raw)?;
                let payload: usize = records.iter().map(Vec::len).sum();
                let stored = self.stored.fetch_add(payload, Ordering::SeqCst);
                let held = self.pulled.load(Ordering::SeqCst) - stored;
                self.most_held.fetch_max(held, Ordering::SeqCst);
            }
            Ok(())
        }

        fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
            Err(IoError::NotFound {
                blob: name.to_string(),
            })
        }

        fn list(&self) -> Result<Vec<String>, IoError> {
            Ok(Vec::new())
        }

        fn delete(&self, _name: &str) -> Result<(), IoError> {
            Ok(())
        }
    }

    #[test]
    fn the_writer_holds_a_window_an_open_shard_and_a_run_whatever_the_input() {
        // 24 MiB of 4 KiB records into 64 KiB shards: the window is its
        // 8 MiB floor, and the input is more than twice what may be held.
        let target = 64 << 10;
        let bound = window_bytes_for(target) + target + RUN_PAYLOAD_BYTES;
        let pulled = AtomicUsize::new(0);
        let sink = HeldSink {
            pulled: &pulled,
            stored: AtomicUsize::new(0),
            most_held: AtomicUsize::new(0),
        };
        let count = 6 << 10;
        let records = (0..count).map(|i| {
            let record = vec![i as u8; 4 << 10];
            pulled.fetch_add(record.len(), Ordering::SeqCst);
            record
        });
        let manifest = ShardWriter::new(ShardSpec::new("held", target), &sink)
            .write_all(records)
            .unwrap();
        assert_eq!(manifest.total_records, count as u64);
        assert_eq!(sink.stored.load(Ordering::SeqCst), count << 12);
        let most_held = sink.most_held.load(Ordering::SeqCst);
        assert!(
            most_held <= bound,
            "{most_held} bytes pulled and not stored at a shard write, bound {bound}"
        );
    }

    /// A [`MemSink`] that refuses to store one blob.
    struct RefusingSink<'a> {
        inner: &'a MemSink,
        refused: &'a str,
    }

    impl StorageSink for RefusingSink<'_> {
        fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
            if name == self.refused {
                let denied = std::io::Error::from(std::io::ErrorKind::PermissionDenied);
                return Err(IoError::os(name, denied));
            }
            self.inner.write_file(name, data)
        }

        fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
            self.inner.read_file(name)
        }

        fn list(&self) -> Result<Vec<String>, IoError> {
            self.inner.list()
        }

        fn delete(&self, name: &str) -> Result<(), IoError> {
            self.inner.delete(name)
        }
    }

    #[test]
    fn a_failed_write_leaves_no_manifest_of_its_prefix() {
        // A first write of the prefix succeeds. A second, of other
        // records, stores shards 0-2 in windows of one record each and
        // fails at shard 3: the first write's manifest must not be left
        // to describe shards the second has replaced.
        let sink = MemSink::new();
        let first = records(12, 400);
        ShardWriter::new(ShardSpec::new("again", 1000), &sink)
            .write_all(&first)
            .unwrap();
        let refusing = RefusingSink {
            inner: &sink,
            refused: "again-00003.shard",
        };
        let err = ShardWriter::new(ShardSpec::new("again", 1000), &refusing)
            .write_all_in(RUN_PAYLOAD_BYTES, 1, records(12, 900))
            .unwrap_err();
        assert!(matches!(err, IoError::Os { .. }), "{err:?}");
        let replaced = parse_shard(
            &sink.read_file("again-00000.shard").unwrap(),
            "again-00000.shard",
            CodecId::Raw,
        )
        .unwrap();
        assert_ne!(replaced, first[..replaced.len()]);
        assert!(matches!(
            ShardReader::open("again", &sink),
            Err(IoError::NotFound { .. })
        ));
    }

    #[test]
    fn stored_length_over_u32_is_refused_not_truncated() {
        assert_eq!(stored_len_field(0, "p", 0).unwrap(), 0);
        assert_eq!(
            stored_len_field(u32::MAX as usize, "p", 0).unwrap(),
            u32::MAX
        );
        let Some(too_long) = (u32::MAX as usize).checked_add(1) else {
            return; // 32-bit host: no slice is that long
        };
        match stored_len_field(too_long, "train/m3", 41) {
            Err(IoError::Format { blob, what }) => {
                assert_eq!(blob, "train/m3");
                assert!(what.contains("record 41"), "{what}");
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_empty_manifest() {
        let sink = MemSink::new();
        let manifest = ShardWriter::new(ShardSpec::new("empty", 1000), &sink)
            .write_all(Vec::<Vec<u8>>::new())
            .unwrap();
        assert_eq!(manifest.total_records, 0);
        assert!(manifest.shards.is_empty());
        let reader = ShardReader::open("empty", &sink).unwrap();
        assert!(reader.read_all().unwrap().is_empty());
    }

    #[test]
    fn manifest_json_round_trip() {
        let m = ShardManifest {
            prefix: "x".into(),
            codec: CodecId::Lz,
            shards: vec![ShardInfo {
                name: "x-00000.shard".into(),
                records: 3,
                bytes: 456,
                crc32c: 0xDEAD_BEEF,
            }],
            total_records: 3,
            payload_bytes: 999,
        };
        let j = m.to_json();
        let back = ShardManifest::from_json(&j, "x.manifest.json").unwrap();
        assert_eq!(back, m);
        let reparsed = Json::parse(&j.to_string_compact()).unwrap();
        assert_eq!(
            ShardManifest::from_json(&reparsed, "x.manifest.json").unwrap(),
            m
        );
    }

    #[test]
    fn corrupted_record_detected() {
        let sink = MemSink::new();
        let recs = records(5, 200);
        ShardWriter::new(ShardSpec::new("corrupt", 1 << 20), &sink)
            .write_all(&recs)
            .unwrap();
        let name = "corrupt-00000.shard";
        let mut data = sink.read_file(name).unwrap().to_vec();
        let n = data.len();
        data[n / 2] ^= 0xFF;
        sink.write_file(name, &data).unwrap();
        let reader = ShardReader::open("corrupt", &sink).unwrap();
        match reader.read_shard(0) {
            Err(IoError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_shard_detected() {
        let sink = MemSink::new();
        let recs = records(5, 200);
        ShardWriter::new(ShardSpec::new("trunc", 1 << 20), &sink)
            .write_all(&recs)
            .unwrap();
        let name = "trunc-00000.shard";
        let data = sink.read_file(name).unwrap();
        sink.write_file(name, &data[..data.len() - 10]).unwrap();
        let reader = ShardReader::open("trunc", &sink).unwrap();
        assert!(reader.read_shard(0).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = parse_shard(b"NOTASHARDFILE", "x", CodecId::Raw).unwrap_err();
        assert!(matches!(err, IoError::Format { .. }));
    }

    #[test]
    fn recovering_reader_quarantines_corrupt_shard() {
        let sink = MemSink::new();
        let recs = records(30, 500);
        let manifest = ShardWriter::new(ShardSpec::new("rec", 4000), &sink)
            .write_all(&recs)
            .unwrap();
        assert!(manifest.shards.len() >= 3, "want multiple shards");
        // Corrupt a mid-payload byte of the middle shard.
        let victim = &manifest.shards[1];
        let mut data = sink.read_file(&victim.name).unwrap().to_vec();
        let n = data.len();
        data[n - 10] ^= 0x40;
        sink.write_file(&victim.name, &data).unwrap();

        let reader = ShardReader::open("rec", &sink).unwrap();
        assert!(reader.read_all().is_err(), "strict read must abort");
        let recovered = reader.read_all_recovering();
        assert_eq!(recovered.damage.damaged.len(), 1);
        let d = &recovered.damage.damaged[0];
        assert_eq!(d.index, 1);
        assert_eq!(d.name, victim.name);
        assert!(d.records_recovered < d.records_declared);
        assert_eq!(
            recovered.damage.records_lost,
            d.records_declared - d.records_recovered
        );
        assert_eq!(
            recovered.records.len() as u64,
            manifest.total_records - recovered.damage.records_lost
        );
        // Undamaged shards contribute their exact records; the salvaged
        // prefix of the damaged shard matches the original order.
        assert_eq!(
            &recovered.records[..manifest.shards[0].records as usize],
            &recs[..manifest.shards[0].records as usize]
        );
        assert!(!recovered.damage.is_clean());
    }

    #[test]
    fn recovering_reader_clean_on_intact_data() {
        let sink = MemSink::new();
        let recs = records(20, 300);
        ShardWriter::new(ShardSpec::new("clean", 2000), &sink)
            .write_all(&recs)
            .unwrap();
        let reader = ShardReader::open("clean", &sink).unwrap();
        let recovered = reader.read_all_recovering();
        assert!(recovered.damage.is_clean());
        assert_eq!(recovered.records, recs);
    }

    #[test]
    fn recovering_reader_survives_missing_shard() {
        let sink = MemSink::new();
        let recs = records(20, 500);
        let manifest = ShardWriter::new(ShardSpec::new("gone", 3000), &sink)
            .write_all(&recs)
            .unwrap();
        sink.delete(&manifest.shards[0].name).unwrap();
        let reader = ShardReader::open("gone", &sink).unwrap();
        let recovered = reader.read_all_recovering();
        assert_eq!(recovered.damage.damaged.len(), 1);
        assert_eq!(recovered.damage.damaged[0].records_recovered, 0);
        assert_eq!(
            recovered.records.len() as u64,
            manifest.total_records - manifest.shards[0].records
        );
    }

    #[test]
    fn verify_after_write_round_trips() {
        let sink = MemSink::new();
        let recs = records(10, 200);
        let spec = ShardSpec::new("vfy", 1 << 20).with_verify(true);
        assert!(spec.verify_writes);
        let manifest = ShardWriter::new(spec, &sink).write_all(&recs).unwrap();
        assert_eq!(manifest.total_records, 10);
        let reader = ShardReader::open("vfy", &sink).unwrap();
        assert_eq!(reader.read_all().unwrap(), recs);
    }

    #[test]
    fn verify_after_write_rewrites_corrupted_shard() {
        use crate::fault::{FaultConfig, FaultSink};
        // Writes sometimes store a bit-flipped copy; the deterministic
        // rolls differ per attempt, so the rewrite loop lands a clean
        // copy (p(fail) = 0.2^4 per shard with 3 rewrites).
        let cfg = FaultConfig {
            seed: 21,
            corrupt: 0.2,
            ..FaultConfig::default()
        };
        let sink = FaultSink::new(MemSink::new(), cfg);
        let recs = records(40, 400);
        let manifest = ShardWriter::new(ShardSpec::new("vw", 2000).with_verify(true), &sink)
            .write_all(&recs)
            .unwrap();
        assert!(manifest.shards.len() > 1);
        let reader = ShardReader::open("vw", sink.inner()).unwrap();
        let recovered = reader.read_all_recovering();
        assert!(recovered.damage.is_clean(), "{:?}", recovered.damage);
        assert_eq!(recovered.records, recs);
    }

    #[test]
    fn huge_manifest_count_does_not_preallocate() {
        let sink = MemSink::new();
        ShardWriter::new(ShardSpec::new("huge", 1000), &sink)
            .write_all(records(3, 50))
            .unwrap();
        // Forge a manifest declaring an absurd record count.
        // 2^53 - 1: the largest count exactly representable in the JSON
        // number model, still an absurd ~72 PiB preallocation if trusted.
        const HUGE: u64 = (1 << 53) - 1;
        let raw =
            String::from_utf8(sink.read_file("huge.manifest.json").unwrap().to_vec()).unwrap();
        // A total its shards do not add up to is refused when the
        // manifest is read, before anything is sized by it.
        let total = raw.replace("\"total_records\":3", &format!("\"total_records\":{HUGE}"));
        assert_ne!(total, raw, "replacement must hit");
        sink.write_file("huge.manifest.json", total.as_bytes())
            .unwrap();
        match ShardReader::open("huge", &sink) {
            Err(IoError::Format { blob, .. }) => assert_eq!(blob, "huge.manifest.json"),
            other => panic!(
                "expected a format error, got {:?}",
                other.map(|r| r.manifest().clone())
            ),
        }
        // With the shard's count forged to match, the manifest opens; the
        // clamp keeps the reads from reserving for it, and the mismatch
        // surfaces as an error and a damage report, not as an OOM.
        let both = total.replace("\"records\":3", &format!("\"records\":{HUGE}"));
        assert_ne!(both, total, "replacement must hit");
        sink.write_file("huge.manifest.json", both.as_bytes())
            .unwrap();
        let reader = ShardReader::open("huge", &sink).unwrap();
        assert_eq!(reader.manifest().total_records, HUGE);
        assert!(matches!(reader.read_all(), Err(IoError::Format { .. })));
        let recovered = reader.read_all_recovering();
        assert_eq!(recovered.records.len(), 3);
        assert_eq!(recovered.damage.records_lost, HUGE - 3);
    }

    /// `from` replaced by `to` in a manifest's text, once; the replacement
    /// must hit.
    fn forge(text: &str, from: &str, to: &str) -> String {
        let forged = text.replacen(from, to, 1);
        assert_ne!(forged, text, "{from}: replacement must hit");
        forged
    }

    #[test]
    fn a_manifest_that_contradicts_itself_is_refused() {
        let sink = MemSink::new();
        let manifest = ShardWriter::new(ShardSpec::new("m", 1000), &sink)
            .write_all(records(9, 300))
            .unwrap();
        let text = String::from_utf8(sink.read_file("m.manifest.json").unwrap().to_vec()).unwrap();
        let crc = manifest.shards[1].crc32c;
        let total = manifest.total_records;
        for (field, forged) in [
            // A CRC field of 2^32 + c is not the CRC c.
            (
                "crc32c",
                forge(
                    &text,
                    &format!("\"crc32c\":{crc}"),
                    &format!("\"crc32c\":{}", (1u64 << 32) + u64::from(crc)),
                ),
            ),
            // A total that is not the sum of the shards' counts.
            (
                "total_records",
                forge(
                    &text,
                    &format!("\"total_records\":{total}"),
                    &format!("\"total_records\":{}", total + 1),
                ),
            ),
        ] {
            sink.write_file("m.manifest.json", forged.as_bytes())
                .unwrap();
            match ShardReader::open("m", &sink) {
                Err(IoError::Format { blob, what }) => {
                    assert_eq!(blob, "m.manifest.json");
                    assert!(what.contains(field), "{what}");
                }
                other => panic!(
                    "{field}: expected a format error, got {:?}",
                    other.map(|r| r.manifest().clone())
                ),
            }
        }
    }

    #[test]
    fn the_strict_reader_refuses_a_shard_whose_count_disagrees_with_the_manifest() {
        let sink = MemSink::new();
        let recs = records(9, 300);
        let manifest = ShardWriter::new(ShardSpec::new("count", 1000), &sink)
            .write_all(&recs)
            .unwrap();
        assert!(manifest.shards.len() >= 3, "want a middle shard");
        let victim = &manifest.shards[1];
        // One shard's count and the total raised together: the manifest
        // is consistent, and the files and their CRCs are untouched.
        let text =
            String::from_utf8(sink.read_file("count.manifest.json").unwrap().to_vec()).unwrap();
        let name = &victim.name;
        let forged = forge(
            &forge(
                &text,
                &format!("\"name\":\"{name}\",\"records\":{}", victim.records),
                &format!("\"name\":\"{name}\",\"records\":{}", victim.records + 1),
            ),
            &format!("\"total_records\":{}", manifest.total_records),
            &format!("\"total_records\":{}", manifest.total_records + 1),
        );
        sink.write_file("count.manifest.json", forged.as_bytes())
            .unwrap();
        let reader = ShardReader::open("count", &sink).unwrap();
        assert_eq!(reader.read_shard(0).unwrap(), recs[..3]);
        for result in [reader.read_shard(1), reader.read_all()] {
            match result {
                Err(IoError::Format { blob, what }) => {
                    assert_eq!(&blob, name);
                    assert!(what.contains("record count mismatch"), "{what}");
                }
                other => panic!("expected a format error, got {other:?}"),
            }
        }
        // The recovering reader reports the same shard as damaged.
        let recovered = reader.read_all_recovering();
        assert_eq!(recovered.records, recs);
        assert_eq!(recovered.damage.damaged.len(), 1);
        assert_eq!(&recovered.damage.damaged[0].name, name);
        assert_eq!(recovered.damage.records_lost, 1);
    }

    #[test]
    fn partial_parse_salvages_prefix() {
        let sink = MemSink::new();
        let recs = records(8, 100);
        ShardWriter::new(ShardSpec::new("pp", 1 << 20), &sink)
            .write_all(&recs)
            .unwrap();
        let mut data = sink.read_file("pp-00000.shard").unwrap().to_vec();
        // Corrupt record 5's payload: header is 12 bytes, each record
        // 8 + 100 bytes.
        let off = 12 + 5 * 108 + 8 + 50;
        data[off] ^= 0x01;
        let (salvaged, err) = parse_shard_partial(&data, "pp", CodecId::Raw);
        assert_eq!(salvaged.len(), 5);
        assert_eq!(salvaged, recs[..5]);
        assert!(matches!(err, Some(IoError::ChecksumMismatch { .. })));
    }

    #[test]
    fn codec_mismatch_rejected() {
        let sink = MemSink::new();
        ShardWriter::new(ShardSpec::new("cm", 1000).with_codec(CodecId::Rle), &sink)
            .write_all(records(2, 50))
            .unwrap();
        let data = sink.read_file("cm-00000.shard").unwrap();
        let err = parse_shard(&data, "cm", CodecId::Raw).unwrap_err();
        assert!(matches!(err, IoError::Format { .. }));
    }
}
