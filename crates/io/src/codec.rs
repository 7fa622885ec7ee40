//! Compression codecs for shard payloads, implemented from scratch.
//!
//! Scientific float payloads are often close to incompressible, while index,
//! label and quantized data compress well — the codec ablation bench
//! (`ABL-CODEC` in DESIGN.md) measures exactly this trade-off. All codecs
//! are self-framing byte-stream transforms:
//!
//! * [`CodecId::Raw`] — identity (the correct default for dense float data).
//! * [`CodecId::Rle`] — run-length encoding with literal blocks; wins on
//!   masks, one-hot encodings and constant-filled padding.
//! * [`CodecId::Delta`] — fixed-width integer delta + zigzag varint; wins on
//!   monotone timestamps, sorted indices, and slowly varying quantized
//!   signals.
//! * [`CodecId::Lz`] — LZ77 with a hash-chain matcher (LZ4-style greedy
//!   parse, varint-framed tokens); the general-purpose option.
//!
//! A codec implements [`Codec::encode_into`], which appends the encoded
//! payload to the caller's buffer and touches nothing before it — the
//! shard writer frames whole runs of records in one buffer that way —
//! and gets [`Codec::encode`] from it.
//!
//! What a codec stores is a function of the payload alone. The stream
//! *formats* are fixed (old shards must stay readable); inside a format
//! the encoders are free to be fast: `Delta` runs `const`-width kernels
//! that emit the bytes the element-at-a-time loop did, and `Lz` gives up
//! on input that does not match instead of probing every position of it
//! (which changes its choices, not its format: `tests/lz_compat.rs`).
//! Every `decode` refuses a stream that declares more output than
//! [`MAX_DECODED_BYTES`] — and `Delta`, whose elements take at least a
//! byte each, one that declares more elements than it has bytes — before
//! it allocates for it.

use crate::names;
use crate::varint::{read_uvarint, unzigzag, write_uvarint, zigzag};
use drai_telemetry::{Counter, Handle, Histogram};
use std::cell::RefCell;
use std::fmt;

/// Decompression-bomb guard: `decode` refuses to produce more than this
/// many bytes (1 GiB). A corrupt or malicious stream can otherwise declare
/// a multi-terabyte run/match in a few bytes; shard records are far below
/// this bound in practice.
pub const MAX_DECODED_BYTES: usize = 1 << 30;

/// Errors produced while decoding a compressed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Stream ended before the declared content was complete.
    Truncated,
    /// Declared output exceeds [`MAX_DECODED_BYTES`].
    TooLarge {
        /// Bytes the stream tried to produce.
        declared: u64,
    },
    /// A structural invariant was violated (bad tag, bad offset, ...).
    Corrupt(&'static str),
    /// The codec id byte is not recognized.
    UnknownCodec(u8),
    /// Payload length is not a multiple of the configured element width.
    BadElementWidth {
        /// Payload length.
        len: usize,
        /// Configured element width.
        width: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::TooLarge { declared } => write!(
                f,
                "declared output {declared} bytes exceeds decode limit {MAX_DECODED_BYTES}"
            ),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::BadElementWidth { len, width } => {
                write!(
                    f,
                    "payload length {len} not a multiple of element width {width}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Identifies a codec (and its parameters) in shard headers and manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecId {
    /// Identity.
    Raw,
    /// Run-length encoding.
    Rle,
    /// Fixed-width integer delta coding; `width` ∈ {1, 2, 4, 8} bytes.
    Delta {
        /// Element width in bytes.
        width: u8,
    },
    /// LZ77 with hash-chain matching.
    Lz,
}

impl CodecId {
    /// One-byte tag stored on disk. Delta widths get distinct tags.
    pub const fn tag(self) -> u8 {
        match self {
            CodecId::Raw => 0,
            CodecId::Rle => 1,
            CodecId::Delta { width: 1 } => 2,
            CodecId::Delta { width: 2 } => 3,
            CodecId::Delta { width: 4 } => 4,
            CodecId::Delta { width: 8 } => 5,
            CodecId::Delta { .. } => 6, // unreachable by construction
            CodecId::Lz => 7,
        }
    }

    /// Inverse of [`CodecId::tag`].
    pub fn from_tag(tag: u8) -> Result<CodecId, CodecError> {
        Ok(match tag {
            0 => CodecId::Raw,
            1 => CodecId::Rle,
            2 => CodecId::Delta { width: 1 },
            3 => CodecId::Delta { width: 2 },
            4 => CodecId::Delta { width: 4 },
            5 => CodecId::Delta { width: 8 },
            7 => CodecId::Lz,
            other => return Err(CodecError::UnknownCodec(other)),
        })
    }

    /// Human-readable name for manifests and bench labels.
    pub fn name(self) -> String {
        match self {
            CodecId::Raw => "raw".into(),
            CodecId::Rle => "rle".into(),
            CodecId::Delta { width } => format!("delta{width}"),
            CodecId::Lz => "lz".into(),
        }
    }

    /// Parse a manifest name back into a codec id.
    pub(crate) fn from_name(name: &str) -> Option<CodecId> {
        match name {
            "raw" => Some(CodecId::Raw),
            "rle" => Some(CodecId::Rle),
            "delta1" => Some(CodecId::Delta { width: 1 }),
            "delta2" => Some(CodecId::Delta { width: 2 }),
            "delta4" => Some(CodecId::Delta { width: 4 }),
            "delta8" => Some(CodecId::Delta { width: 8 }),
            "lz" => Some(CodecId::Lz),
            _ => None,
        }
    }
}

/// Compress/decompress byte payloads. Stateless as far as a caller can
/// tell — what comes out depends on `data` alone — and safe to share
/// across threads (the shard writer encodes runs of records in parallel
/// with `par_map`).
pub trait Codec: Send + Sync {
    /// The codec's identity for headers/manifests.
    fn id(&self) -> CodecId;
    /// Compress `data` onto the end of `out`. Append-only: the bytes
    /// already in `out` are neither read nor changed, and the bytes added
    /// are exactly what [`encode`](Codec::encode) returns — which is what
    /// lets a writer frame many records in one buffer.
    fn encode_into(&self, data: &[u8], out: &mut Vec<u8>);
    /// Compress `data` into a buffer of its own.
    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(data, &mut out);
        out
    }
    /// Decompress `data` (as produced by `encode`).
    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;
}

/// Construct the codec implementation for an id, instrumented so every
/// encode/decode feeds the telemetry registry current at construction
/// time (the caller's context registry, else the global one):
/// `io.codec.<name>.{encode_ns,decode_ns}` latency histograms and
/// `io.codec.<name>.{bytes_in,bytes_out}` counters (encode direction).
/// Metric handles are resolved once here, so the per-call cost is a
/// clock read and a few relaxed atomics.
pub fn codec_for(id: CodecId) -> Box<dyn Codec> {
    let (inner, meter) = codec_and_meter(id);
    Box::new(InstrumentedCodec { inner, meter })
}

/// The codec behind [`codec_for`] without its per-call telemetry, and the
/// metric handles on their own: for the shard writer, which encodes a
/// whole run of records between two clock reads and records the run once.
pub(crate) fn codec_and_meter(id: CodecId) -> (Box<dyn Codec>, CodecMeter) {
    let codec: Box<dyn Codec> = match id {
        CodecId::Raw => Box::new(RawCodec),
        CodecId::Rle => Box::new(RleCodec),
        CodecId::Delta { width } => Box::new(DeltaCodec {
            width: width as usize,
        }),
        CodecId::Lz => Box::new(LzCodec::default()),
    };
    let registry = drai_telemetry::Registry::current();
    let label = id.name();
    let name = [label.as_str()];
    let meter = CodecMeter {
        encode_ns: registry.handle(&names::CODEC_ENCODE_NS, name),
        decode_ns: registry.handle(&names::CODEC_DECODE_NS, name),
        bytes_in: registry.handle(&names::CODEC_BYTES_IN, name),
        bytes_out: registry.handle(&names::CODEC_BYTES_OUT, name),
    };
    (codec, meter)
}

/// Handles of one codec's metrics.
pub(crate) struct CodecMeter {
    encode_ns: Handle<Histogram>,
    decode_ns: Handle<Histogram>,
    bytes_in: Handle<Counter>,
    bytes_out: Handle<Counter>,
}

impl CodecMeter {
    /// Record `ns` spent encoding `bytes_in` payload bytes into
    /// `bytes_out` stored bytes — one call, or one run of calls.
    pub(crate) fn record_encode(&self, ns: u64, bytes_in: usize, bytes_out: usize) {
        self.encode_ns.record(ns);
        self.bytes_in.add(bytes_in as u64);
        self.bytes_out.add(bytes_out as u64);
    }

    /// Record `ns` spent decoding — one call, or one shard of calls.
    pub(crate) fn record_decode(&self, ns: u64) {
        self.decode_ns.record(ns);
    }
}

/// Telemetry-recording wrapper returned by [`codec_for`].
struct InstrumentedCodec {
    inner: Box<dyn Codec>,
    meter: CodecMeter,
}

impl Codec for InstrumentedCodec {
    fn id(&self) -> CodecId {
        self.inner.id()
    }

    fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        let before = out.len();
        let start = drai_telemetry::Stopwatch::start();
        self.inner.encode_into(data, out);
        self.meter
            .record_encode(start.elapsed_ns(), data.len(), out.len() - before);
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let start = drai_telemetry::Stopwatch::start();
        let out = self.inner.decode(data);
        self.meter.record_decode(start.elapsed_ns());
        out
    }
}

/// Identity codec.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RawCodec;

impl Codec for RawCodec {
    fn id(&self) -> CodecId {
        CodecId::Raw
    }
    fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(data);
    }
    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(data.to_vec())
    }
}

/// Run-length codec. Stream of blocks:
/// `0x00 <varint len> <len literal bytes>` or `0x01 <varint len> <byte>`.
/// Runs shorter than 4 bytes are folded into literal blocks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RleCodec;

const RLE_MIN_RUN: usize = 4;

impl Codec for RleCodec {
    fn id(&self) -> CodecId {
        CodecId::Rle
    }

    fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        out.reserve(data.len() / 2 + 16);
        let mut i = 0;
        let mut lit_start = 0;
        while i < data.len() {
            // Measure the run starting at i.
            let b = data[i];
            let mut j = i + 1;
            while j < data.len() && data[j] == b {
                j += 1;
            }
            let run = j - i;
            if run >= RLE_MIN_RUN {
                if lit_start < i {
                    out.push(0x00);
                    write_uvarint(out, (i - lit_start) as u64);
                    out.extend_from_slice(&data[lit_start..i]);
                }
                out.push(0x01);
                write_uvarint(out, run as u64);
                out.push(b);
                lit_start = j;
            }
            i = j;
        }
        if lit_start < data.len() {
            out.push(0x00);
            write_uvarint(out, (data.len() - lit_start) as u64);
            out.extend_from_slice(&data[lit_start..]);
        }
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(data.len() * 2);
        let mut pos = 0;
        while pos < data.len() {
            let tag = data[pos];
            pos += 1;
            let (len, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
            pos += n;
            let len =
                usize::try_from(len).map_err(|_| CodecError::Corrupt("rle block too large"))?;
            if out.len().saturating_add(len) > MAX_DECODED_BYTES {
                return Err(CodecError::TooLarge {
                    declared: (out.len() + len) as u64,
                });
            }
            match tag {
                0x00 => {
                    if pos + len > data.len() {
                        return Err(CodecError::Truncated);
                    }
                    out.extend_from_slice(&data[pos..pos + len]);
                    pos += len;
                }
                0x01 => {
                    if pos >= data.len() {
                        return Err(CodecError::Truncated);
                    }
                    let b = data[pos];
                    pos += 1;
                    out.resize(out.len() + len, b);
                }
                _ => return Err(CodecError::Corrupt("bad rle block tag")),
            }
        }
        Ok(out)
    }
}

/// Fixed-width delta codec: payload is split into little-endian unsigned
/// integers of `width` bytes, consecutive differences are zigzag+varint
/// coded. The header stores the element count; a trailing partial element
/// (when the payload isn't width-aligned) is rejected at encode time by
/// falling back to raw framing (`tag 0xFF` + bytes).
///
/// `width` is looked at once per call: the element loops are the
/// `const W` kernels below, so an element is one fixed-size load or
/// store, not a variable-length copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaCodec {
    /// Element width in bytes (1, 2, 4, or 8).
    pub width: usize,
}

/// Elements whose varints are staged on the stack before they are
/// appended to the output: the output grows by what a block stored, so a
/// buffer shared with other records never reserves the 10-bytes-a-varint
/// worst case.
const DELTA_BLOCK: usize = 64;
const MAX_VARINT_BYTES: usize = 10;

fn delta_encode<const W: usize>(data: &[u8], out: &mut Vec<u8>) {
    let mut staged = [0u8; DELTA_BLOCK * MAX_VARINT_BYTES];
    let mut prev = 0u64;
    for block in data.chunks(DELTA_BLOCK * W) {
        let mut used = 0;
        for elem in block.chunks_exact(W) {
            let mut le = [0u8; 8];
            le[..W].copy_from_slice(elem);
            let v = u64::from_le_bytes(le);
            let mut z = zigzag(v.wrapping_sub(prev) as i64);
            prev = v;
            while z >= 0x80 {
                staged[used] = z as u8 | 0x80;
                used += 1;
                z >>= 7;
            }
            staged[used] = z as u8;
            used += 1;
        }
        out.extend_from_slice(&staged[..used]);
    }
}

/// Decode `n` deltas from the front of `deltas`; returns the elements and
/// the bytes consumed. The caller has bounded `n` by `deltas.len()`.
fn delta_decode<const W: usize>(deltas: &[u8], n: usize) -> Result<(Vec<u8>, usize), CodecError> {
    let mut out = vec![0u8; n * W];
    let mut pos = 0;
    let mut prev = 0u64;
    for elem in out.chunks_exact_mut(W) {
        // One to three bytes — a delta under 2²⁰ — are taken apart here,
        // behind branches that predict; the rest is `read_uvarint`'s.
        let rest = deltas.get(pos..).ok_or(CodecError::Truncated)?;
        let (z, used) = match *rest {
            [a, ..] if a < 0x80 => (a as u64, 1),
            [a, b, ..] if b < 0x80 => ((a & 0x7F) as u64 | (b as u64) << 7, 2),
            [a, b, c, ..] if c < 0x80 => (
                (a & 0x7F) as u64 | ((b & 0x7F) as u64) << 7 | (c as u64) << 14,
                3,
            ),
            _ => read_uvarint(rest).ok_or(CodecError::Truncated)?,
        };
        pos += used;
        prev = prev.wrapping_add(unzigzag(z) as u64);
        // The low W bytes: a corrupt wide delta cannot smuggle an
        // out-of-range value.
        elem.copy_from_slice(&prev.to_le_bytes()[..W]);
    }
    Ok((out, pos))
}

impl Codec for DeltaCodec {
    fn id(&self) -> CodecId {
        CodecId::Delta {
            width: self.width as u8,
        }
    }

    fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        assert!(
            matches!(self.width, 1 | 2 | 4 | 8),
            "unsupported delta width"
        );
        out.reserve(data.len() / 2 + 16);
        if data.len() % self.width != 0 {
            // Raw fallback framing for non-aligned payloads.
            out.push(0xFF);
            out.extend_from_slice(data);
            return;
        }
        out.push(0x01);
        write_uvarint(out, (data.len() / self.width) as u64);
        match self.width {
            1 => delta_encode::<1>(data, out),
            2 => delta_encode::<2>(data, out),
            4 => delta_encode::<4>(data, out),
            _ => delta_encode::<8>(data, out),
        }
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (&tag, rest) = data.split_first().ok_or(CodecError::Truncated)?;
        match tag {
            0xFF => Ok(rest.to_vec()),
            0x01 => {
                let (n, consumed) = read_uvarint(rest).ok_or(CodecError::Truncated)?;
                let n = usize::try_from(n).map_err(|_| CodecError::Corrupt("delta count"))?;
                if n.saturating_mul(self.width) > MAX_DECODED_BYTES {
                    return Err(CodecError::TooLarge {
                        declared: (n as u64).saturating_mul(self.width as u64),
                    });
                }
                let deltas = &rest[consumed..];
                // Every element takes at least one byte, so a count above
                // the bytes left is the truncation the element loop would
                // run into — said before allocating `n` elements for it.
                if n > deltas.len() {
                    return Err(CodecError::Truncated);
                }
                let (out, used) = match self.width {
                    1 => delta_decode::<1>(deltas, n),
                    2 => delta_decode::<2>(deltas, n),
                    4 => delta_decode::<4>(deltas, n),
                    8 => delta_decode::<8>(deltas, n),
                    _ => return Err(CodecError::Corrupt("unsupported delta width")),
                }?;
                if used != deltas.len() {
                    return Err(CodecError::Corrupt("trailing bytes after delta stream"));
                }
                Ok(out)
            }
            _ => Err(CodecError::Corrupt("bad delta header tag")),
        }
    }
}

/// LZ77 codec with greedy hash-chain matching over a 64 KiB window.
///
/// Token stream: `<varint literal_len> <literals> <varint match_len>
/// <varint offset>` repeated; `match_len == 0` terminates after final
/// literals. Minimum match length 4 (below that a literal is cheaper).
///
/// The token format and the decoder are as they always were; what the
/// encoder chooses is not pinned by the format. Two things keep it from
/// spending its time where there is nothing to find: after
/// `2^LZ_SKIP_TRIGGER` consecutive positions without a match it starts
/// striding over the input (`1 + (misses >> LZ_SKIP_TRIGGER)`, LZ4's
/// acceleration; any match resets it), and its hash tables live per
/// thread across calls (`LzTables`) instead of being filled afresh for
/// every record.
///
/// It has no parameters; `LzCodec::default()` is how every caller makes
/// one.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct LzCodec;

const LZ_WINDOW: usize = 1 << 16;
const LZ_MIN_MATCH: usize = 4;
const LZ_HASH_BITS: usize = 15;
const LZ_SKIP_TRIGGER: u32 = 6;
/// Candidates tried per position before the matcher settles for the best
/// so far (higher = better ratio, slower encode).
const LZ_MAX_CHAIN: usize = 32;

/// The matcher's dictionary. Positions are stored as `base + position`,
/// and a call owns the values from its `base` up: whatever earlier calls
/// left is below it and reads as empty, so the tables are zeroed once per
/// 4 GiB encoded, not once per record, and what a call emits does not
/// depend on what the thread encoded before.
struct LzTables {
    /// `head[h]`: most recent position with hash `h`.
    head: Vec<u32>,
    /// `chain[p % LZ_WINDOW]`: previous position with the hash of `p`.
    chain: Vec<u32>,
    /// First value the next call may store.
    base: u32,
}

thread_local! {
    static LZ_TABLES: RefCell<LzTables> = RefCell::new(LzTables {
        head: vec![0; 1 << LZ_HASH_BITS],
        chain: vec![0; LZ_WINDOW],
        base: 1,
    });
}

impl LzTables {
    /// Reserve `len` positions; returns their `base`. `len` is at most
    /// [`MAX_DECODED_BYTES`] (the encoder stores anything longer as
    /// literals), so it fits a `u32` and, after a reset, the tables.
    fn claim(&mut self, len: usize) -> u32 {
        debug_assert!(len <= MAX_DECODED_BYTES);
        let len = len as u32;
        if self.base.checked_add(len).is_none() {
            self.head.fill(0);
            self.chain.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += len;
        base
    }
}

impl LzCodec {
    #[inline]
    fn hash(window: &[u8]) -> usize {
        let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
        ((v.wrapping_mul(2654435761) >> (32 - LZ_HASH_BITS)) & ((1 << LZ_HASH_BITS) - 1)) as usize
    }

    /// The parse of `data` (at least `LZ_MIN_MATCH` bytes) onto `out`, up
    /// to the pending literals: returns where they start.
    fn parse(&self, data: &[u8], tables: &mut LzTables, out: &mut Vec<u8>) -> usize {
        let base = tables.claim(data.len());
        let LzTables { head, chain, .. } = tables;
        let stored = |pos: usize| base + pos as u32;
        let mut pos = 0;
        let mut lit_start = 0;
        let mut misses = 0;
        while pos + LZ_MIN_MATCH <= data.len() {
            let h = Self::hash(&data[pos..]);
            let mut cand = head[h];
            let mut best_len = 0;
            let mut best_off = 0;
            let mut depth = 0;
            while cand >= base && depth < LZ_MAX_CHAIN {
                let at = (cand - base) as usize;
                // chain[] slots are recycled modulo the window, so a stale
                // entry can point at or past `pos`; both cases end the chain.
                if at >= pos || pos - at > LZ_WINDOW - 1 {
                    break;
                }
                let max_len = data.len() - pos;
                let mut l = 0;
                while l < max_len && data[at + l] == data[pos + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = pos - at;
                    if l >= 255 {
                        break; // long enough; stop searching
                    }
                }
                cand = chain[at % LZ_WINDOW];
                depth += 1;
            }
            if best_len >= LZ_MIN_MATCH {
                // Emit pending literals + this match.
                write_uvarint(out, (pos - lit_start) as u64);
                out.extend_from_slice(&data[lit_start..pos]);
                write_uvarint(out, best_len as u64);
                write_uvarint(out, best_off as u64);
                // Insert match positions into the dictionary (sparsely for
                // speed: every position for short matches, stride for long).
                let stride = if best_len > 64 { 8 } else { 1 };
                let mut p = pos;
                while p < pos + best_len && p + LZ_MIN_MATCH <= data.len() {
                    let hh = Self::hash(&data[p..]);
                    chain[p % LZ_WINDOW] = head[hh];
                    head[hh] = stored(p);
                    p += stride;
                }
                pos += best_len;
                lit_start = pos;
                misses = 0;
            } else {
                chain[pos % LZ_WINDOW] = head[h];
                head[h] = stored(pos);
                misses += 1;
                pos += 1 + (misses >> LZ_SKIP_TRIGGER);
            }
        }
        lit_start
    }
}

impl Codec for LzCodec {
    fn id(&self) -> CodecId {
        CodecId::Lz
    }

    fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        out.reserve(data.len() / 2 + 16);
        // Too short to hold a match — or longer than `decode` agrees to
        // produce, which also keeps every position inside a `u32`: all
        // literals.
        let lit_start = if data.len() < LZ_MIN_MATCH || data.len() > MAX_DECODED_BYTES {
            0
        } else {
            LZ_TABLES.with(|tables| self.parse(data, &mut tables.borrow_mut(), out))
        };
        // Final literals + terminator.
        write_uvarint(out, (data.len() - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..]);
        write_uvarint(out, 0);
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(data.len() * 2);
        let mut pos = 0;
        loop {
            let (lit_len, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
            pos += n;
            let lit_len = usize::try_from(lit_len).map_err(|_| CodecError::Corrupt("lit len"))?;
            if out.len().saturating_add(lit_len) > MAX_DECODED_BYTES {
                return Err(CodecError::TooLarge {
                    declared: (out.len() + lit_len) as u64,
                });
            }
            if pos + lit_len > data.len() {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&data[pos..pos + lit_len]);
            pos += lit_len;
            let (match_len, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
            pos += n;
            if match_len == 0 {
                if pos != data.len() {
                    return Err(CodecError::Corrupt("trailing bytes after lz terminator"));
                }
                return Ok(out);
            }
            let match_len =
                usize::try_from(match_len).map_err(|_| CodecError::Corrupt("match len"))?;
            if out.len().saturating_add(match_len) > MAX_DECODED_BYTES {
                return Err(CodecError::TooLarge {
                    declared: (out.len() + match_len) as u64,
                });
            }
            let (offset, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
            pos += n;
            let offset = usize::try_from(offset).map_err(|_| CodecError::Corrupt("offset"))?;
            if offset == 0 || offset > out.len() {
                return Err(CodecError::Corrupt("lz offset out of range"));
            }
            // A match longer than its offset overlaps its own output: the
            // bytes from `start` repeat with period `offset`, so copy all
            // there is — a whole number of periods — and there is twice
            // as much for the next copy.
            let start = out.len() - offset;
            let end = out.len() + match_len;
            while out.len() < end {
                let take = (end - out.len()).min(out.len() - start);
                out.extend_from_within(start..start + take);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(id: CodecId, data: &[u8]) {
        let c = codec_for(id);
        let enc = c.encode(data);
        let dec = c
            .decode(&enc)
            .unwrap_or_else(|e| panic!("{id:?} decode: {e}"));
        assert_eq!(dec, data, "{id:?} round trip failed");
    }

    #[test]
    fn all_codecs_round_trip_basic() {
        let samples: Vec<Vec<u8>> = vec![
            vec![],
            vec![42],
            b"hello hello hello hello".to_vec(),
            vec![0; 1000],
            (0..=255u8).cycle().take(4096).collect(),
            b"abcabcabcabcabcabcXYZabcabcabc".to_vec(),
        ];
        for data in &samples {
            for id in [
                CodecId::Raw,
                CodecId::Rle,
                CodecId::Delta { width: 1 },
                CodecId::Lz,
            ] {
                round_trip(id, data);
            }
        }
    }

    #[test]
    fn delta_round_trips_all_widths() {
        let vals: Vec<u64> = (0..500).map(|i| 1_000_000 + i * 3).collect();
        for width in [1usize, 2, 4, 8] {
            let mut bytes = Vec::new();
            for &v in &vals {
                bytes.extend_from_slice(&v.to_le_bytes()[..width]);
            }
            round_trip(CodecId::Delta { width: width as u8 }, &bytes);
        }
    }

    #[test]
    fn delta_compresses_monotone_timestamps() {
        let mut bytes = Vec::new();
        for i in 0..10_000u64 {
            bytes.extend_from_slice(&(1_700_000_000_000 + i * 20).to_le_bytes());
        }
        let c = DeltaCodec { width: 8 };
        let enc = c.encode(&bytes);
        assert!(
            enc.len() < bytes.len() / 4,
            "delta should compress timestamps 4x+: {} -> {}",
            bytes.len(),
            enc.len()
        );
    }

    #[test]
    fn delta_handles_unaligned_payload() {
        let c = DeltaCodec { width: 4 };
        let data = [1u8, 2, 3, 4, 5]; // 5 bytes, not /4
        let enc = c.encode(&data);
        assert_eq!(c.decode(&enc).unwrap(), data);
    }

    #[test]
    fn rle_compresses_constant_data() {
        let data = vec![7u8; 100_000];
        let enc = RleCodec.encode(&data);
        assert!(enc.len() < 16, "rle of constant run: {} bytes", enc.len());
        assert_eq!(RleCodec.decode(&enc).unwrap(), data);
    }

    #[test]
    fn rle_short_runs_stay_literal() {
        let data = b"aabbccdd";
        let enc = RleCodec.encode(data);
        // One literal block: tag + len + data.
        assert_eq!(enc.len(), data.len() + 2);
    }

    #[test]
    fn lz_compresses_repetitive_text() {
        let data: Vec<u8> = b"scientific data readiness "
            .iter()
            .copied()
            .cycle()
            .take(50_000)
            .collect();
        let c = LzCodec::default();
        let enc = c.encode(&data);
        assert!(
            enc.len() < data.len() / 10,
            "lz ratio too poor: {} -> {}",
            data.len(),
            enc.len()
        );
        assert_eq!(c.decode(&enc).unwrap(), data);
    }

    #[test]
    fn lz_overlapping_match() {
        // "aaaa..." forces offset-1 overlapping copies.
        let data = vec![b'a'; 1000];
        let c = LzCodec::default();
        let enc = c.encode(&data);
        assert_eq!(c.decode(&enc).unwrap(), data);
    }

    #[test]
    fn lz_rejects_bad_offset() {
        let mut enc = Vec::new();
        write_uvarint(&mut enc, 1);
        enc.push(b'x');
        write_uvarint(&mut enc, 4); // match len
        write_uvarint(&mut enc, 9); // offset > produced
        assert_eq!(
            LzCodec::default().decode(&enc),
            Err(CodecError::Corrupt("lz offset out of range"))
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let data = b"hello world hello world hello world".to_vec();
        for id in [CodecId::Rle, CodecId::Delta { width: 1 }, CodecId::Lz] {
            let c = codec_for(id);
            let enc = c.encode(&data);
            for cut in [1, enc.len() / 2, enc.len() - 1] {
                // Truncated streams must error, never panic. (Some cuts can
                // coincidentally decode for RLE literal blocks; corruption
                // end-to-end is caught by shard CRCs, so only require
                // no-panic + usually-error here.)
                let _ = c.decode(&enc[..cut]);
            }
        }
    }

    #[test]
    fn decompression_bombs_rejected() {
        // A few bytes declaring gigantic outputs must error fast instead
        // of allocating. RLE: run of 2^40 copies of one byte.
        let mut rle = vec![0x01];
        write_uvarint(&mut rle, 1u64 << 40);
        rle.push(0xAB);
        assert!(matches!(
            RleCodec.decode(&rle),
            Err(CodecError::TooLarge { .. })
        ));
        // Delta: count of 2^40 8-byte elements.
        let mut delta = vec![0x01];
        write_uvarint(&mut delta, 1u64 << 40);
        assert!(matches!(
            DeltaCodec { width: 8 }.decode(&delta),
            Err(CodecError::TooLarge { .. })
        ));
        // LZ: one literal, then a 2^40-byte match.
        let mut lz = Vec::new();
        write_uvarint(&mut lz, 1);
        lz.push(b'x');
        write_uvarint(&mut lz, 1u64 << 40);
        write_uvarint(&mut lz, 1);
        assert!(matches!(
            LzCodec::default().decode(&lz),
            Err(CodecError::TooLarge { .. })
        ));
        // LZ: huge literal length.
        let mut lz2 = Vec::new();
        write_uvarint(&mut lz2, 1u64 << 40);
        assert!(matches!(
            LzCodec::default().decode(&lz2),
            Err(CodecError::TooLarge { .. })
        ));
    }

    #[test]
    fn delta_count_beyond_the_stream_is_truncation_before_any_allocation() {
        // Six bytes declaring 2²⁸ elements: inside the 1 GiB decode limit
        // at every width up to 4, so only the bytes left can refuse it —
        // every element takes at least one. (Reserving `n × width` first
        // would ask the allocator for 1 GiB here.)
        let mut stream = vec![0x01];
        write_uvarint(&mut stream, 1 << 28);
        assert_eq!(stream.len(), 6);
        for width in [1, 2, 4] {
            assert_eq!(
                DeltaCodec { width }.decode(&stream),
                Err(CodecError::Truncated),
                "width {width}"
            );
        }
        // One byte short of its count, and exactly enough.
        let mut stream = vec![0x01];
        write_uvarint(&mut stream, 3);
        stream.extend([2, 2]);
        assert_eq!(
            DeltaCodec { width: 2 }.decode(&stream),
            Err(CodecError::Truncated)
        );
        stream.push(2);
        assert_eq!(
            DeltaCodec { width: 2 }.decode(&stream).unwrap(),
            [1, 0, 2, 0, 3, 0]
        );
    }

    /// The delta codec one element at a time, as it was written before
    /// the `const W` kernels.
    fn delta_reference_encode(width: usize, data: &[u8]) -> Vec<u8> {
        let mut out = vec![0x01];
        write_uvarint(&mut out, (data.len() / width) as u64);
        let mut prev = 0u64;
        for elem in data.chunks_exact(width) {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(elem);
            let v = u64::from_le_bytes(le);
            write_uvarint(&mut out, zigzag(v.wrapping_sub(prev) as i64));
            prev = v;
        }
        out
    }

    #[test]
    fn delta_kernels_equal_the_elementwise_reference() {
        // Small steps, full-range jumps and wrap-arounds, in lengths that
        // end inside and on a staging block.
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in [1usize, 2, 4, 8] {
            for elems in [0, 1, 63, 64, 65, 500] {
                let mut v = next();
                let data: Vec<u8> = (0..elems)
                    .flat_map(|i| {
                        v = match i % 3 {
                            0 => v.wrapping_add(next() % 200),
                            1 => v.wrapping_sub(next() % 70_000),
                            _ => next(),
                        };
                        v.to_le_bytes()[..width].to_vec()
                    })
                    .collect();
                let codec = DeltaCodec { width };
                let encoded = codec.encode(&data);
                assert_eq!(
                    encoded,
                    delta_reference_encode(width, &data),
                    "width {width}, {elems} elements"
                );
                assert_eq!(codec.decode(&encoded).unwrap(), data);
            }
        }
        // A delta wider than the element is masked on the way out, and a
        // ten-byte varint still decodes.
        let mut wide = vec![0x01, 2];
        write_uvarint(&mut wide, zigzag(0x1_0000_0005));
        write_uvarint(&mut wide, zigzag(i64::MIN));
        assert_eq!(DeltaCodec { width: 1 }.decode(&wide).unwrap(), [5, 5]);
    }

    /// The Lz decoder with every match copied one byte at a time.
    fn lz_decode_bytewise(tokens: &[(&[u8], usize, usize)], tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(literals, match_len, offset) in tokens {
            out.extend_from_slice(literals);
            let start = out.len() - offset;
            for i in 0..match_len {
                out.push(out[start + i]);
            }
        }
        out.extend_from_slice(tail);
        out
    }

    #[test]
    fn lz_match_copies_equal_the_byte_loop() {
        // Offsets from 1 (a run) up, match lengths on both sides of the
        // offset and of twice the offset.
        let literals: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for offset in [1usize, 2, 3, 7, 8, 16, 39, 40] {
            for match_len in [
                1,
                offset.saturating_sub(1).max(1),
                offset,
                offset + 1,
                2 * offset - 1,
                2 * offset,
                2 * offset + 1,
                5 * offset + 3,
                1000,
            ] {
                let tokens = [
                    (&literals[..], match_len, offset),
                    (&b"xy"[..], match_len / 2 + 1, 1.max(offset / 2)),
                ];
                let mut stream = Vec::new();
                for (lits, len, off) in tokens {
                    write_uvarint(&mut stream, lits.len() as u64);
                    stream.extend_from_slice(lits);
                    write_uvarint(&mut stream, len as u64);
                    write_uvarint(&mut stream, off as u64);
                }
                write_uvarint(&mut stream, 3);
                stream.extend_from_slice(b"end");
                write_uvarint(&mut stream, 0);
                assert_eq!(
                    LzCodec::default().decode(&stream).unwrap(),
                    lz_decode_bytewise(&tokens, b"end"),
                    "offset {offset}, match_len {match_len}"
                );
            }
        }
    }

    fn lcg_bytes(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn lz_output_does_not_depend_on_what_the_thread_encoded_before() {
        // Text with a long period, so that its matches sit deep in the
        // hash chains, and noise with a repeat in it.
        let text: Vec<u8> = (0..20_000usize)
            .map(|i| b"scientific data readiness "[(i + i / 700) % 26])
            .collect();
        let mut noise = lcg_bytes(0x9E37_79B9, 30_000);
        noise.extend_from_within(5_000..9_000);
        let codec = LzCodec::default();
        // A thread of its own starts from tables nobody has written.
        let fresh =
            |data: &[u8]| std::thread::scope(|s| s.spawn(|| codec.encode(data)).join().unwrap());
        let (fresh_text, fresh_noise) = (fresh(&text), fresh(&noise));
        // Here the tables fill up with positions of the other record, of
        // the same record, and of both.
        for _ in 0..3 {
            assert_eq!(codec.encode(&text), fresh_text);
            assert_eq!(codec.encode(&noise), fresh_noise);
            assert_eq!(codec.encode(&noise), fresh_noise);
            assert_eq!(codec.encode(&text), fresh_text);
        }
        assert_eq!(codec.decode(&fresh_text).unwrap(), text);
        assert_eq!(codec.decode(&fresh_noise).unwrap(), noise);
    }

    #[test]
    fn lz_choices_on_a_smooth_float_record_are_pinned() {
        // 4 096 f32 of a bounded random walk: the payload Lz cannot
        // shrink, with a 4-byte match every few hundred bytes — where the
        // stride decides what is found. Stored lengths at PR 20;
        // re-record only for a change that means to change what Lz
        // chooses.
        let walk = |n: usize| -> Vec<u8> {
            let mut x = 250.0f32;
            lcg_bytes(7, n)
                .into_iter()
                .flat_map(|step| {
                    x += (step as f32 - 127.5) * 0.0004;
                    x.to_le_bytes()
                })
                .collect()
        };
        let codec = LzCodec::default();
        for (elems, stored) in [(4_096, 16_279), (16_384, 64_908)] {
            let record = walk(elems);
            let encoded = codec.encode(&record);
            assert_eq!(codec.decode(&encoded).unwrap(), record);
            assert_eq!(encoded.len(), stored, "{elems} f32");
        }
    }

    #[test]
    fn lz_tables_start_over_before_positions_wrap() {
        let mut tables = LzTables {
            head: vec![7; 4],
            chain: vec![9; 4],
            base: u32::MAX - 10,
        };
        assert_eq!(tables.claim(10), u32::MAX - 10);
        assert_eq!(tables.base, u32::MAX);
        assert_eq!(tables.head, [7; 4], "still the same generation");
        // The next record does not fit below u32::MAX: everything stored
        // so far is forgotten and counting restarts above the empty value.
        assert_eq!(tables.claim(1), 1);
        assert_eq!(tables.base, 2);
        assert_eq!((tables.head, tables.chain), (vec![0; 4], vec![0; 4]));
    }

    #[test]
    fn lz_strides_over_noise_and_still_finds_what_follows() {
        // 8 KiB nothing matches in, then the first 4 KiB again: the
        // stride must not have skipped the dictionary empty.
        let noise = lcg_bytes(0x9E37_79B9, 8192);
        let mut data = noise.clone();
        data.extend_from_slice(&noise[..4096]);
        let codec = LzCodec::default();
        let encoded = codec.encode(&data);
        assert_eq!(codec.decode(&encoded).unwrap(), data);
        assert!(
            encoded.len() < noise.len() + 4096 / 4,
            "the repeat was stored as {} bytes",
            encoded.len() - noise.len()
        );
    }

    #[test]
    fn codec_tag_round_trip() {
        for id in [
            CodecId::Raw,
            CodecId::Rle,
            CodecId::Delta { width: 1 },
            CodecId::Delta { width: 2 },
            CodecId::Delta { width: 4 },
            CodecId::Delta { width: 8 },
            CodecId::Lz,
        ] {
            assert_eq!(CodecId::from_tag(id.tag()).unwrap(), id);
            assert_eq!(CodecId::from_name(&id.name()), Some(id));
        }
        assert!(CodecId::from_tag(200).is_err());
        assert_eq!(CodecId::from_name("zstd"), None);
    }
}
