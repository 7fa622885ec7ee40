//! # drai-cache
//!
//! Content-addressed incremental stage-result cache: re-running a
//! pipeline over unchanged inputs is the dominant workload when corpora
//! are re-evaluated after every config tweak, so stage outputs are
//! memoized under a key that captures *everything* that could change
//! them:
//!
//! ```text
//! key = derive(input id, stage name, config fingerprint)
//!     = H(DERIVATION_VERSION ‖ stage name ‖ input id ‖ config fingerprint)
//! ```
//!
//! A key is the *derivation id* drai-core gives the stage's output
//! (`drai_core::pipeline::derive`), cached or not, so a cached stage is
//! keyed by the id its input arrives with: no serialization, no hash of
//! the input. Only an input that arrives with no id is named here, by
//! the digest of its bytes — streamed from where the input lies, through
//! the same [`CacheBytes`] description an entry stores, so no byte of it
//! is copied — and the name left in `StageCounters::id` for drai-core to
//! derive from. The fingerprint is the configuration the stage declares
//! in its stage graph, so a key cannot drift from what the stage reads.
//!
//! Entries are self-describing blobs persisted through any
//! [`StorageSink`] — a local filesystem, the in-memory test sink, the
//! simulated striped store, or a fault-injecting wrapper — under
//! `cache/<stage>/<key>.entry`. Each blob carries a digest of its
//! decoded payload; an entry that fails verification (bit rot, torn
//! write, format drift) is **quarantined and recomputed, never served**:
//! the bad bytes move to `cache/quarantine/` for post-mortems and the
//! lookup reports a miss.
//!
//! Capacity is bounded by a size-capped LRU policy whose recency stamps
//! come from an injectable `drai_telemetry::clock::Clock` — production
//! uses a `Stopwatch`, tests a `LogicalClock` so eviction order is
//! deterministic.
//!
//! Pipelines opt in per stage through [`CachedPipelineExt`], which
//! decorates a named stage of a built pipeline with a cache probe and a
//! store-on-miss wrapper. Artifact types describe their exact byte
//! form via [`CacheBytes`] (helpers in [`bytes`]). An entry stores the
//! stage's [`StageReport`] in front of its output, so a hit's ledger
//! record is the miss's, plus `cache_hit` = the TraceId that computed
//! the entry. A hit is verified and its report read at once; its output
//! is handed on undecoded and decoded only when something needs it
//! (drai-core's `Item`), so a chain of hits decodes its last output
//! only.
//!
//! Telemetry: `cache.hits`, `cache.misses`, `cache.evictions`,
//! `cache.quarantined` counters and `cache.get`/`cache.put` spans, all
//! into the context registry.

pub mod bytes;

/// The metric and span names this crate writes (`drai_telemetry::Name`).
mod names {
    use drai_telemetry::{Counter, Name, Span};

    pub(crate) const HITS: Name<Counter> = Name::declare("cache.hits");
    pub(crate) const MISSES: Name<Counter> = Name::declare("cache.misses");
    pub(crate) const EVICTIONS: Name<Counter> = Name::declare("cache.evictions");
    pub(crate) const QUARANTINED: Name<Counter> = Name::declare("cache.quarantined");
    pub(crate) const GET: Name<Span> = Name::declare("cache.get");
    pub(crate) const PUT: Name<Span> = Name::declare("cache.put");
}

use drai_core::pipeline::{
    derive, FastPath, Item, Pipeline, StageCounters, StageReport, DERIVATION_VERSION,
};
use drai_io::checksum::{content_hash128, hash_hex};
use drai_io::codec::CodecId;
use drai_io::sink::StorageSink;
use drai_io::IoError;
use drai_provenance::{Artifact, ArtifactId};
use drai_telemetry::clock::Clock;
use drai_telemetry::{Registry, Stopwatch, TraceContext};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bytes::{ByteReader, ByteWriter};

/// Magic prefix of a serialized cache entry.
const ENTRY_MAGIC: &[u8; 4] = b"DRCE";

/// Bytes of an entry blob in front of its payload.
const ENTRY_HEADER_LEN: usize = 4 + 8 + 1 + 3 * 8 + (8 + 16) + 8;

/// Exact byte representation of a pipeline artifact, for keying and
/// storage. Implementations must round-trip *bitwise*: the cache
/// digests these bytes for identity, and a hit is deserialized from
/// exactly the bytes a previous run serialized.
pub trait CacheBytes: Sized {
    /// Describe the canonical byte form to `w`, which appends it to an
    /// entry being stored, feeds it to the key's digest or counts it
    /// ([`ByteWriter`]): the same calls each time for one value, so the
    /// bytes a key digests are the bytes an entry would store. Reserve
    /// the whole length up front where it is known, so a large artifact
    /// is not moved while its entry grows.
    fn write_cache_bytes(&self, w: &mut ByteWriter);
    /// Serialize to the canonical byte form, in a buffer of its own.
    fn to_cache_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write_cache_bytes(&mut w);
        w.finish()
    }
    /// Reconstruct from bytes produced by [`CacheBytes::to_cache_bytes`].
    fn from_cache_bytes(data: &[u8]) -> Result<Self, String>;
}

impl CacheBytes for Vec<u8> {
    fn write_cache_bytes(&self, w: &mut ByteWriter) {
        w.put_raw(self);
    }
    fn from_cache_bytes(data: &[u8]) -> Result<Self, String> {
        Ok(data.to_vec())
    }
}

impl CacheBytes for Vec<f64> {
    fn write_cache_bytes(&self, w: &mut ByteWriter) {
        w.put_f64_slice(self);
    }
    fn from_cache_bytes(data: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(data);
        let v = r.f64_vec()?;
        r.expect_end()?;
        Ok(v)
    }
}

/// Write a stage's report, each list count-prefixed, so the stage's
/// output can follow it in a stored payload.
fn write_report(report: &StageReport, w: &mut ByteWriter) {
    w.put_u64(report.measured.len() as u64);
    for (key, value) in &report.measured {
        w.put_str(key);
        w.put_str(value);
    }
    w.put_u64(report.written.len() as u64);
    for blob in &report.written {
        w.put_str(&blob.name);
        w.put_str(blob.id.digest());
        w.put_u64(blob.bytes);
    }
}

/// A fully resolved cache key: the stage name (for the blob namespace)
/// plus the 128-bit derivation id of the stage's output (see the crate
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    stage: String,
    hash: [u8; 16],
}

impl CacheKey {
    /// Compute the key for `stage` over serialized input bytes and a
    /// config fingerprint — the key of the first cached stage of a
    /// chain. The input is digested first, so keying cost is one hash
    /// pass regardless of how many key components change.
    pub fn compute(stage: &str, input_bytes: &[u8], config_fp: &[u8]) -> CacheKey {
        CacheKey::from_input_id(stage, &content_hash128(input_bytes), config_fp)
    }

    /// The key for `stage` over an input named by `input_id`: the
    /// [`content_hash128`] of its serialized bytes at the start of a
    /// chain, its derivation id after that.
    pub(crate) fn from_input_id(stage: &str, input_id: &[u8; 16], config_fp: &[u8]) -> CacheKey {
        CacheKey {
            stage: stage.to_string(),
            hash: derive(input_id, stage, config_fp),
        }
    }

    /// The key of cached stage `stage` when it runs right after this
    /// key's stage — what the decorator computes there, so a caller can
    /// name a chain's later entries without running it.
    pub fn chained(&self, stage: &str, config_fp: &[u8]) -> CacheKey {
        CacheKey::from_input_id(stage, &self.hash, config_fp)
    }

    /// Lowercase hex of the 128-bit key digest.
    pub fn hex(&self) -> String {
        hash_hex(&self.hash)
    }

    /// Blob name the entry is stored under.
    pub fn blob_name(&self) -> String {
        format!("cache/{}/{}.entry", self.stage, self.hex())
    }

    /// Blob name a corrupt entry is quarantined under (flat namespace:
    /// path separators in the stage name become dots).
    fn quarantine_name(&self) -> String {
        format!(
            "cache/quarantine/{}.{}.entry",
            self.stage.replace('/', "."),
            self.hex()
        )
    }
}

/// A verified cache hit.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The decoded stage-output payload, digest-verified.
    pub payload: Vec<u8>,
    /// Stage record counter captured when the entry was produced.
    pub records: u64,
    /// Stage byte counter captured when the entry was produced.
    pub bytes: u64,
    /// TraceId of the run that originally computed this entry, if one
    /// was attached at `put` time.
    pub origin_trace: Option<u64>,
}

struct DecodedEntry {
    /// Where the payload starts: it runs from here to the blob's end.
    payload_at: usize,
    records: u64,
    bytes: u64,
    origin_trace: Option<u64>,
}

impl DecodedEntry {
    /// The verified payload; `blob` is the entry this was decoded from.
    fn payload<'a>(&self, blob: &'a [u8]) -> &'a [u8] {
        &blob[self.payload_at..]
    }
}

/// Build an entry blob around the payload `write_payload` writes.
/// Layout (all integers little-endian): magic `DRCE` · format version
/// u64 · codec tag u8 (always `CodecId::Raw`'s) · origin trace u64
/// (0 = none) · records u64 · bytes u64 · digest of the payload
/// (length-prefixed, 16 bytes) · payload (length-prefixed).
///
/// The header goes first with the digest and the payload length left
/// blank; the payload is then serialized straight behind it, and the
/// digest taken over it in place and both blanks filled in.
fn encode_entry(
    origin_trace: Option<u64>,
    records: u64,
    bytes: u64,
    write_payload: impl FnOnce(&mut ByteWriter),
) -> Vec<u8> {
    let mut entry = Vec::with_capacity(ENTRY_HEADER_LEN);
    ByteWriter::append_to(&mut entry, |w| {
        w.put_raw(ENTRY_MAGIC);
        w.put_u64(u64::from(DERIVATION_VERSION));
        w.put_u8(CodecId::Raw.tag());
        w.put_u64(origin_trace.unwrap_or(0));
        w.put_u64(records);
        w.put_u64(bytes);
        w.put_bytes(&[0u8; 16]);
        w.put_u64(0);
        write_payload(w);
    });
    let (digest_at, len_at) = (ENTRY_HEADER_LEN - 24, ENTRY_HEADER_LEN - 8);
    let payload = &entry[ENTRY_HEADER_LEN..];
    let (len, digest) = (payload.len() as u64, content_hash128(payload));
    entry[digest_at..len_at].copy_from_slice(&digest);
    entry[len_at..ENTRY_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    entry
}

/// Parse and digest-verify an entry blob; the payload is verified
/// where it lies in `data`. Any failure — bad magic, version drift, a
/// codec tag other than `CodecId::Raw`'s, truncation, digest mismatch —
/// is reported as a string so the caller can quarantine.
fn decode_entry(data: &[u8]) -> Result<DecodedEntry, String> {
    let mut r = ByteReader::new(data);
    let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
    if &magic != ENTRY_MAGIC {
        return Err("bad entry magic".to_string());
    }
    let version = r.u64()?;
    if version != u64::from(DERIVATION_VERSION) {
        return Err(format!(
            "entry format version {version} != {DERIVATION_VERSION}"
        ));
    }
    let tag = r.u8()?;
    if tag != CodecId::Raw.tag() {
        return Err(format!(
            "entry codec tag {tag}, want {}",
            CodecId::Raw.tag()
        ));
    }
    let origin = r.u64()?;
    let records = r.u64()?;
    let bytes = r.u64()?;
    let digest = r.bytes()?;
    if digest.len() != 16 {
        return Err(format!("digest is {} bytes, want 16", digest.len()));
    }
    let payload = r.bytes()?;
    r.expect_end()?;
    let entry = DecodedEntry {
        // Nothing follows the payload, so it is the blob's tail.
        payload_at: data.len() - payload.len(),
        records,
        bytes,
        origin_trace: (origin != 0).then_some(origin),
    };
    if content_hash128(entry.payload(data)).as_slice() != digest {
        return Err("payload digest mismatch".to_string());
    }
    Ok(entry)
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    size: u64,
    last_access: u64,
}

/// The LRU index. Sink I/O happens outside its lock, so it also tracks
/// the blobs being written and deleted: a blob being written is never
/// chosen for eviction, and a `put` of a blob being deleted hands its
/// entry to the evicting thread, which writes it once the delete is done
/// — a delete never lands after a newer write of the same key.
#[derive(Debug, Default)]
struct Index {
    entries: BTreeMap<String, IndexEntry>,
    total: u64,
    /// Writes in flight, one name per write.
    writing: Vec<String>,
    /// Deletes in flight, each with the newest entry handed over for it.
    deleting: BTreeMap<String, Option<Vec<u8>>>,
}

impl Index {
    fn touch(&mut self, blob: &str, size: u64, now: u64) {
        match self.entries.get_mut(blob) {
            Some(e) => e.last_access = now,
            None => {
                self.entries.insert(
                    blob.to_string(),
                    IndexEntry {
                        size,
                        last_access: now,
                    },
                );
                self.total += size;
            }
        }
    }

    fn remove(&mut self, blob: &str) {
        if let Some(e) = self.entries.remove(blob) {
            self.total -= e.size;
        }
    }

    /// Claim `blob` for a write of `entry`; `None` when a delete of it is
    /// in flight, which then takes `entry` over.
    fn begin_write(&mut self, blob: &str, entry: Vec<u8>) -> Option<Vec<u8>> {
        if let Some(handed) = self.deleting.get_mut(blob) {
            *handed = Some(entry);
            return None;
        }
        self.writing.push(blob.to_string());
        Some(entry)
    }

    /// End a write of `blob` (`size` bytes, or `None` if it failed) and
    /// take the least-recently-used blobs out until the total fits
    /// `capacity`; the caller deletes them.
    fn end_write(&mut self, blob: &str, size: Option<u64>, now: u64, capacity: u64) -> Vec<String> {
        if let Some(i) = self.writing.iter().position(|b| b == blob) {
            self.writing.swap_remove(i);
        }
        let Some(size) = size else {
            return Vec::new();
        };
        // Replacing an entry under the same key: drop the old size first.
        self.remove(blob);
        self.touch(blob, size, now);
        let mut victims = Vec::new();
        while self.total > capacity {
            // Least recently used, never `blob` or a blob being written
            // (ties break on name so eviction order is deterministic even
            // on a frozen clock).
            let Some(victim) = self
                .entries
                .iter()
                .filter(|(name, _)| name.as_str() != blob && !self.writing.contains(name))
                .min_by_key(|(name, e)| (e.last_access, name.as_str()))
                .map(|(name, _)| name.clone())
            else {
                break;
            };
            self.remove(&victim);
            self.deleting.insert(victim.clone(), None);
            victims.push(victim);
        }
        victims
    }

    /// End the delete of `blob`: the entry a `put` handed over meanwhile.
    fn end_delete(&mut self, blob: &str) -> Option<Vec<u8>> {
        self.deleting.remove(blob).flatten()
    }
}

/// A shared, size-capped, content-addressed stage-result cache over a
/// [`StorageSink`].
///
/// Thread-safe: the index is mutex-guarded and sinks are required to be
/// thread-safe, so one `Arc<StageCache>` can serve parallel pipeline
/// workers. Each `get` counts exactly one of `cache.hits`/`cache.misses`.
pub struct StageCache {
    sink: Arc<dyn StorageSink>,
    clock: Arc<dyn Clock>,
    capacity_bytes: u64,
    index: Mutex<Index>,
}

impl StageCache {
    /// Cache over `sink` holding at most `capacity_bytes` of entry
    /// blobs, with a wall clock; entries are stored raw.
    pub fn new(sink: Arc<dyn StorageSink>, capacity_bytes: u64) -> StageCache {
        StageCache {
            sink,
            clock: Arc::new(Stopwatch::start()),
            capacity_bytes,
            index: Mutex::new(Index::default()),
        }
    }

    /// Replace the recency clock (tests inject a deterministic one).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> StageCache {
        self.clock = clock;
        self
    }

    /// The sink entries persist through.
    pub fn sink(&self) -> &Arc<dyn StorageSink> {
        &self.sink
    }

    /// Number of entries the LRU index currently tracks.
    pub fn tracked_entries(&self) -> usize {
        self.index.lock().entries.len()
    }

    /// Total entry bytes the LRU index currently tracks.
    pub fn tracked_bytes(&self) -> u64 {
        self.index.lock().total
    }

    /// Look up `key`. Returns a digest-verified hit, or `None` on miss —
    /// including *corruption-as-miss*: an unreadable or unverifiable
    /// entry is moved to the quarantine namespace (and counted in
    /// `cache.quarantined`) so it can never be served, and the caller
    /// recomputes.
    pub fn get(&self, key: &CacheKey) -> Option<CacheHit> {
        let (blob, entry) = self.lookup(key)?;
        Some(CacheHit {
            records: entry.records,
            bytes: entry.bytes,
            origin_trace: entry.origin_trace,
            payload: entry.payload(&blob).to_vec(),
        })
    }

    /// [`StageCache::get`] without the owned payload: the entry blob as
    /// the sink lends it and the verified entry that points into it,
    /// which is all the cached-stage decorator needs to decode a hit.
    /// No entry byte is copied: the digest is checked, and the payload
    /// decoded, where the sink stores it.
    fn lookup(&self, key: &CacheKey) -> Option<(Arc<[u8]>, DecodedEntry)> {
        let registry = Registry::current();
        let span = registry.span(&names::GET, []);
        let _in_get = span.enter();
        let blob = key.blob_name();
        let raw = match self.sink.read_file(&blob) {
            Ok(raw) => raw,
            Err(_) => {
                registry.handle(&names::MISSES, []).incr();
                return None;
            }
        };
        match decode_entry(&raw) {
            Ok(entry) => {
                let payload = entry.payload(&raw);
                registry.handle(&names::HITS, []).incr();
                span.add_items(1);
                span.add_bytes(payload.len() as u64);
                self.index
                    .lock()
                    .touch(&blob, raw.len() as u64, self.clock.now_ns());
                Some((raw, entry))
            }
            Err(_) => {
                self.quarantine(key, &blob, &raw);
                registry.handle(&names::QUARANTINED, []).incr();
                registry.handle(&names::MISSES, []).incr();
                None
            }
        }
    }

    /// Whether an entry for `key` exists, without reading or verifying
    /// its payload — an O(1) metadata probe (`StorageSink::exists`)
    /// that moves no entry bytes and touches no hit/miss counters.
    /// `drai-sched` cost estimators use it to shrink a job's cost by
    /// the stages expected to short-circuit on warm cache entries; a
    /// probe that lies (entry corrupt) only costs the job its estimate,
    /// since `get` still quarantines and recomputes.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.sink.exists(&key.blob_name())
    }

    /// Move a corrupt entry out of the serving namespace. Best-effort:
    /// even if the quarantine copy cannot be written, the entry is
    /// deleted so it cannot be served again.
    fn quarantine(&self, key: &CacheKey, blob: &str, raw: &[u8]) {
        let _ = self.sink.write_file(&key.quarantine_name(), raw);
        let _ = self.sink.delete(blob);
        self.index.lock().remove(blob);
    }

    /// Store a stage output under `key`, stamping the current TraceId
    /// as the entry's origin, then evict least-recently-used entries
    /// until the tracked total fits the capacity. Payloads whose entry
    /// blob alone exceeds the capacity are not stored at all. A `put` of a
    /// key an eviction is deleting returns at once: the evicting thread
    /// writes the entry when its delete is done.
    pub fn put(
        &self,
        key: &CacheKey,
        payload: &[u8],
        records: u64,
        bytes: u64,
    ) -> Result<(), IoError> {
        self.store(key, records, bytes, |w| w.put_raw(payload))
    }

    /// [`StageCache::put`] of the payload `write_payload` writes into the
    /// entry (see [`encode_entry`]).
    fn store(
        &self,
        key: &CacheKey,
        records: u64,
        bytes: u64,
        write_payload: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), IoError> {
        let registry = Registry::current();
        let span = registry.span(&names::PUT, []);
        let _in_put = span.enter();
        let origin = TraceContext::current().map(|ctx| ctx.trace_id().as_u64());
        let entry = encode_entry(origin, records, bytes, write_payload);
        let entry_len = entry.len() as u64;
        if entry_len > self.capacity_bytes {
            return Ok(());
        }
        self.write_entry(key.blob_name(), entry, &registry)?;
        span.add_items(1);
        span.add_bytes(entry_len);
        Ok(())
    }

    /// Write `entry` under `blob`, then delete least-recently-used entries
    /// until the tracked total fits the capacity. The index lock is held
    /// only to decide (see [`Index`]), never across sink I/O: a `get` does
    /// not wait for an eviction's unlink, or for a retrying sink's backoff.
    fn write_entry(
        &self,
        blob: String,
        entry: Vec<u8>,
        registry: &Registry,
    ) -> Result<(), IoError> {
        let Some(entry) = self.index.lock().begin_write(&blob, entry) else {
            return Ok(());
        };
        let written = self.sink.write_file(&blob, &entry);
        let size = written.is_ok().then_some(entry.len() as u64);
        let now = self.clock.now_ns();
        let victims = self
            .index
            .lock()
            .end_write(&blob, size, now, self.capacity_bytes);
        for victim in victims {
            let _ = self.sink.delete(&victim);
            registry.handle(&names::EVICTIONS, []).incr();
            let handed = self.index.lock().end_delete(&victim);
            if let Some(handed) = handed {
                // Best effort, like any cache write.
                let _ = self.write_entry(victim, handed, registry);
            }
        }
        written
    }
}

/// [`content_hash128`] of `input`'s canonical bytes — the one hash pass
/// a chain of cached stages spends on its input, at its first stage,
/// streamed from where the input lies ([`ByteWriter::digest`]): no byte
/// of it is copied anywhere.
fn input_digest<T: CacheBytes>(input: &T) -> [u8; 16] {
    ByteWriter::digest(|w| input.write_cache_bytes(w))
}

/// Decorators memoizing stages of an already-built [`Pipeline`] in a
/// [`StageCache`]. The stage graph is declared once, uncached; caching
/// is layered on by stage name through [`Pipeline::decorate_stage`],
/// so a cached pipeline never restates the graph.
pub trait CachedPipelineExt<T>: Sized {
    /// Memoize `stage`'s output in `cache`. On a verified hit the stage
    /// function never runs; its record/byte counters and its report are
    /// restored from the entry, and its output is decoded only when
    /// something needs it (drai-core's `Item`): a later cached stage
    /// that hits too never asks, so an all-hit chain decodes one output,
    /// its last. An entry that does not decode then is recomputed and
    /// overwritten. On a miss (or quarantined corruption) the function
    /// runs and its output is stored best-effort — a failed cache write
    /// degrades to uncached behaviour, never to a stage error.
    ///
    /// The stage is keyed by the derivation id of its output (see the
    /// crate docs): the configuration it declares is the fingerprint.
    /// Panics when the pipeline has no stage called `stage`.
    fn cached(self, stage: &str, cache: Arc<StageCache>) -> Self {
        self.cached_with_check(stage, cache, |_| true)
    }

    /// Like [`CachedPipelineExt::cached`], with a semantic check applied
    /// to each verified hit: `check(report)` returning false rejects the
    /// hit and recomputes. `report` is the entry's restored
    /// [`StageReport`], so a stage whose output references external state
    /// (e.g. the shard blobs it `written`, which may have been deleted
    /// since the entry was stored) can check exactly that, without the
    /// output being decoded.
    fn cached_with_check(
        self,
        stage: &str,
        cache: Arc<StageCache>,
        check: impl Fn(&StageReport) -> bool + Send + Sync + 'static,
    ) -> Self;
}

/// A stored payload starts with the stage's report: the report, and
/// where in `payload` the output behind it starts. Entries are pushed
/// one at a time: a lying count fails, it reserves nothing.
fn decode_report(payload: &[u8]) -> Result<(StageReport, usize), String> {
    let mut r = ByteReader::new(payload);
    let mut report = StageReport::default();
    for _ in 0..r.u64()? {
        let measured = (r.str()?.to_string(), r.str()?.to_string());
        report.measured.push(measured);
    }
    for _ in 0..r.u64()? {
        let name = r.str()?.to_string();
        let id = ArtifactId::from_hex(r.str()?).ok_or("written blob id is no digest")?;
        let bytes = r.u64()?;
        report.written.push(Artifact { id, name, bytes });
    }
    Ok((report, payload.len() - r.remaining()))
}

impl<T: CacheBytes + Send + Sync + 'static> CachedPipelineExt<T> for Pipeline<T> {
    fn cached_with_check(
        self,
        stage: &str,
        cache: Arc<StageCache>,
        check: impl Fn(&StageReport) -> bool + Send + Sync + 'static,
    ) -> Self {
        let config_fp = self.fingerprint(stage).unwrap_or_default().to_vec();
        // The probe is the stage's *fast path*: `Pipeline::run` and the
        // batch executor's workers both try it immediately before the
        // function (through the one `execute_stage`), so exactly one
        // probe happens per stage execution and hit/miss counters are
        // identical across `run` and streaming.
        let probe_name = stage.to_string();
        let probe_cache = cache.clone();
        let probe_fp = config_fp.clone();
        let probe = move |input: &mut Item<T>, counters: &mut StageCounters| {
            // Only an input that arrived unnamed is named by content, and
            // the name stays in the counters for the output's id. A named
            // input — a hit of the stage before included — is not read.
            let id = match counters.id {
                Some(id) => id,
                None => match input.get() {
                    Some(input) => *counters.id.insert(input_digest(input)),
                    None => return FastPath::Miss,
                },
            };
            let key = CacheKey::from_input_id(&probe_name, &id, &probe_fp);
            let Some((blob, entry)) = probe_cache.lookup(&key) else {
                return FastPath::Miss;
            };
            // The digest already verified; a report that does not decode
            // means the payload schema drifted without a version bump —
            // recompute and overwrite.
            let Ok((report, output_at)) = decode_report(entry.payload(&blob)) else {
                return FastPath::Miss;
            };
            if !check(&report) {
                return FastPath::Miss;
            }
            counters.records = entry.records;
            counters.bytes = entry.bytes;
            counters.report = report;
            let origin = entry.origin_trace.map(|t| t.to_string());
            counters.measure("cache_hit", origin.as_deref().unwrap_or("none"));
            // The output is decoded where the sink lent the entry, and
            // only once something needs it.
            let at = entry.payload_at + output_at;
            FastPath::Hit(Box::new(move || T::from_cache_bytes(&blob[at..]).ok()))
        };
        let stage_name = stage.to_string();
        self.decorate_stage(stage, move |func| {
            let compute = move |input: T, counters: &mut StageCounters| {
                // The store is keyed by the *input*, whose id the probe
                // left in the counters (`retried` copies it into every
                // attempt's). Reached without one, the stage stores
                // nothing rather than digest the input a second time.
                let key = counters
                    .id
                    .map(|id| CacheKey::from_input_id(&stage_name, &id, &config_fp));
                let output = func(input, counters)?;
                if let Some(key) = &key {
                    let _ = cache.store(key, counters.records, counters.bytes, |w| {
                        write_report(&counters.report, w);
                        output.write_cache_bytes(w)
                    });
                }
                Ok(output)
            };
            (Arc::new(compute), Some(Arc::new(probe)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_core::readiness::ProcessingStage as S;
    use drai_io::codec::codec_for;
    use drai_io::sink::MemSink;
    use drai_provenance::Ledger;
    use drai_telemetry::clock::LogicalClock;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Every codec an entry tag could name but `CodecId::Raw`.
    const OTHER_CODECS: [CodecId; 6] = [
        CodecId::Rle,
        CodecId::Delta { width: 1 },
        CodecId::Delta { width: 2 },
        CodecId::Delta { width: 4 },
        CodecId::Delta { width: 8 },
        CodecId::Lz,
    ];

    fn mem_cache(capacity: u64) -> StageCache {
        StageCache::new(Arc::new(MemSink::new()), capacity)
            .with_clock(Arc::new(LogicalClock::new()))
    }

    /// Run `f` against a fresh private registry and return its snapshot.
    fn with_registry<R>(f: impl FnOnce() -> R) -> (R, drai_telemetry::Snapshot) {
        let reg = Registry::new();
        let out = TraceContext::root(&reg).scope(f);
        (out, reg.snapshot())
    }

    #[test]
    fn key_is_stable_and_component_sensitive() {
        let base = CacheKey::compute("regrid", b"input", b"cfg");
        assert_eq!(base, CacheKey::compute("regrid", b"input", b"cfg"));
        assert_ne!(base, CacheKey::compute("normalize", b"input", b"cfg"));
        assert_ne!(base, CacheKey::compute("regrid", b"inpuT", b"cfg"));
        assert_ne!(base, CacheKey::compute("regrid", b"input", b"cfG"));
        assert!(base.blob_name().starts_with("cache/regrid/"));
        assert!(base.blob_name().ends_with(".entry"));
    }

    #[test]
    fn miss_then_hit_round_trips_payload_and_counters() {
        let cache = mem_cache(1 << 20);
        let key = CacheKey::compute("s", b"in", b"");
        let ((), snap) = with_registry(|| {
            assert!(cache.get(&key).is_none());
            cache.put(&key, b"payload bytes", 7, 13).unwrap();
            let hit = cache.get(&key).expect("hit after put");
            assert_eq!(hit.payload, b"payload bytes");
            assert_eq!(hit.records, 7);
            assert_eq!(hit.bytes, 13);
            // A trace context is attached (with_registry), so the origin
            // trace must be stamped.
            assert!(hit.origin_trace.is_some());
        });
        assert_eq!(snap.counters["cache.misses"], 1);
        assert_eq!(snap.counters["cache.hits"], 1);
        assert!(!snap.spans_named("cache.get").is_empty());
        assert!(!snap.spans_named("cache.put").is_empty());
    }

    #[test]
    fn contains_probes_without_touching_counters() {
        let cache = mem_cache(1 << 20);
        let key = CacheKey::compute("s", b"in", b"");
        let ((), snap) = with_registry(|| {
            assert!(!cache.contains(&key));
            cache.put(&key, b"payload", 1, 7).unwrap();
            assert!(cache.contains(&key));
        });
        // The probe is metadata-only: no hit/miss accounting, no get span.
        assert!(!snap.counters.contains_key("cache.hits"));
        assert!(!snap.counters.contains_key("cache.misses"));
        assert!(snap.spans_named("cache.get").is_empty());
    }

    #[test]
    fn an_entry_under_another_codec_tag_is_quarantined() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 7) as u8).collect();
        for codec in OTHER_CODECS {
            let sink = Arc::new(MemSink::new());
            let cache =
                StageCache::new(sink.clone(), 1 << 20).with_clock(Arc::new(LogicalClock::new()));
            let key = CacheKey::compute("s", b"in", b"");
            let entry = reference_encode_entry(codec, None, 1, 4096, &payload);
            sink.write_file(&key.blob_name(), &entry).unwrap();
            let ((), snap) = with_registry(|| {
                assert!(cache.get(&key).is_none(), "{} entry served", codec.name());
            });
            assert_eq!(snap.counters["cache.quarantined"], 1, "{}", codec.name());
            assert!(!sink.exists(&key.blob_name()), "{}", codec.name());
        }
    }

    #[test]
    fn corrupt_entry_is_quarantined_never_served() {
        let sink = Arc::new(MemSink::new());
        let cache =
            StageCache::new(sink.clone(), 1 << 20).with_clock(Arc::new(LogicalClock::new()));
        let key = CacheKey::compute("s", b"in", b"");
        let ((), snap) = with_registry(|| {
            cache.put(&key, b"good payload", 1, 12).unwrap();
            // Flip one payload byte behind the cache's back.
            let blob = key.blob_name();
            let mut raw = sink.read_file(&blob).unwrap().to_vec();
            let last = raw.len() - 1;
            raw[last] ^= 0x40;
            sink.write_file(&blob, &raw).unwrap();
            assert!(cache.get(&key).is_none(), "corrupt entry must not serve");
            // The entry moved to quarantine and a re-read is a plain miss.
            assert!(!sink.exists(&blob));
            let names = sink.list().unwrap();
            assert!(
                names.iter().any(|n| n.starts_with("cache/quarantine/")),
                "{names:?}"
            );
            assert!(cache.get(&key).is_none());
        });
        assert_eq!(snap.counters["cache.quarantined"], 1);
        assert_eq!(snap.counters["cache.misses"], 2);
        assert_eq!(snap.counters.get("cache.hits"), None);
    }

    #[test]
    fn truncated_and_bad_magic_entries_quarantine() {
        for mutate in [
            // Truncate mid-header.
            (|raw: &mut Vec<u8>| raw.truncate(10)) as fn(&mut Vec<u8>),
            // Clobber the magic.
            |raw: &mut Vec<u8>| raw[0] = b'X',
            // Trailing garbage.
            |raw: &mut Vec<u8>| raw.push(0),
        ] {
            let sink = Arc::new(MemSink::new());
            let cache =
                StageCache::new(sink.clone(), 1 << 20).with_clock(Arc::new(LogicalClock::new()));
            let key = CacheKey::compute("s", b"in", b"");
            let ((), snap) = with_registry(|| {
                cache.put(&key, b"payload", 0, 0).unwrap();
                let blob = key.blob_name();
                let mut raw = sink.read_file(&blob).unwrap().to_vec();
                mutate(&mut raw);
                sink.write_file(&blob, &raw).unwrap();
                assert!(cache.get(&key).is_none());
            });
            assert_eq!(snap.counters["cache.quarantined"], 1);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Each entry blob is identical in size; capacity fits two.
        let payload = [0u8; 128];
        let cache = mem_cache(500);
        let ka = CacheKey::compute("s", b"a", b"");
        let kb = CacheKey::compute("s", b"b", b"");
        let kc = CacheKey::compute("s", b"c", b"");
        let ((), snap) = with_registry(|| {
            cache.put(&ka, &payload, 0, 0).unwrap();
            cache.put(&kb, &payload, 0, 0).unwrap();
            // Touch `a` so `b` becomes the LRU victim.
            assert!(cache.get(&ka).is_some());
            cache.put(&kc, &payload, 0, 0).unwrap();
            assert!(cache.get(&kb).is_none(), "LRU entry must be evicted");
            assert!(cache.get(&ka).is_some(), "recently used entry survives");
            assert!(cache.get(&kc).is_some(), "just-inserted entry survives");
        });
        assert_eq!(snap.counters["cache.evictions"], 1);
        assert!(cache.tracked_bytes() <= 500);
        assert_eq!(cache.tracked_entries(), 2);
    }

    /// A `MemSink` whose `delete` parks until [`ParkedDeletes::open`].
    #[derive(Default)]
    struct ParkedDeletes {
        inner: MemSink,
        /// (a delete has parked, the latch is open)
        state: std::sync::Mutex<(bool, bool)>,
        changed: std::sync::Condvar,
    }

    impl ParkedDeletes {
        fn wait_until(
            &self,
            timeout: std::time::Duration,
            done: impl Fn(&(bool, bool)) -> bool,
        ) -> bool {
            let state = self.state.lock().unwrap();
            let (state, _) = self
                .changed
                .wait_timeout_while(state, timeout, |s| !done(s))
                .unwrap();
            done(&state)
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl StorageSink for ParkedDeletes {
        fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
            self.inner.write_file(name, data)
        }
        fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
            self.inner.read_file(name)
        }
        fn list(&self) -> Result<Vec<String>, IoError> {
            self.inner.list()
        }
        fn delete(&self, name: &str) -> Result<(), IoError> {
            self.state.lock().unwrap().0 = true;
            self.changed.notify_all();
            self.wait_until(std::time::Duration::from_secs(60), |s| s.1);
            self.inner.delete(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
    }

    /// A cache of two 128-byte entries, `a` then `b`, over a
    /// [`ParkedDeletes`] sink, and a third key whose put evicts `a`.
    fn parked_cache() -> (Arc<ParkedDeletes>, StageCache, [CacheKey; 3]) {
        let sink = Arc::new(ParkedDeletes::default());
        let cache = StageCache::new(sink.clone(), 500).with_clock(Arc::new(LogicalClock::new()));
        let keys = [b"a", b"b", b"c"].map(|k| CacheKey::compute("s", k, b""));
        cache.put(&keys[0], &[1; 128], 0, 0).unwrap();
        cache.put(&keys[1], &[2; 128], 0, 0).unwrap();
        (sink, cache, keys)
    }

    #[test]
    fn index_never_evicts_a_blob_being_written_and_hands_over_one_being_deleted() {
        let mut index = Index::default();
        for (blob, now) in [("a", 1), ("b", 2)] {
            assert!(index.begin_write(blob, Vec::new()).is_some());
            assert!(index.end_write(blob, Some(100), now, 250).is_empty());
        }
        // A new entry for `a`, the least recently used, is being written.
        assert!(index.begin_write("a", Vec::new()).is_some());
        assert!(index.begin_write("c", Vec::new()).is_some());
        assert_eq!(index.end_write("c", Some(100), 3, 250), ["b"]);
        // A put of `b` while its delete is in flight hands its entry over.
        assert_eq!(index.begin_write("b", vec![7]), None);
        assert_eq!(index.end_delete("b"), Some(vec![7]));
        assert_eq!(index.end_delete("b"), None);
    }

    #[test]
    fn a_get_does_not_wait_for_an_eviction() {
        let (sink, cache, [_, b, c]) = parked_cache();
        std::thread::scope(|s| {
            let evict = s.spawn(|| cache.put(&c, &[3; 128], 0, 0));
            assert!(sink.wait_until(std::time::Duration::from_secs(60), |s| s.0));
            let (tx, rx) = std::sync::mpsc::channel();
            let cache = &cache;
            s.spawn(move || tx.send(cache.get(&b).map(|hit| hit.payload)));
            let got = rx.recv_timeout(std::time::Duration::from_secs(1));
            sink.open();
            assert_eq!(got, Ok(Some(vec![2; 128])), "the hit waited for the unlink");
            evict.join().unwrap().unwrap();
        });
        assert_eq!(cache.tracked_entries(), 2);
    }

    #[test]
    fn a_put_racing_the_eviction_of_its_key_keeps_its_entry() {
        let (sink, cache, [a, b, c]) = parked_cache();
        std::thread::scope(|s| {
            let evict = s.spawn(|| cache.put(&c, &[3; 128], 0, 0));
            assert!(sink.wait_until(std::time::Duration::from_secs(60), |s| s.0));
            // `a` is being deleted: a new entry for it must not be written
            // where the delete can still land on it. The put is let run
            // to its end (bounded, for a put that waits on the delete)
            // before the delete goes ahead.
            let (tx, rx) = std::sync::mpsc::channel();
            let (cache, a) = (&cache, &a);
            s.spawn(move || tx.send(cache.put(a, &[4; 128], 0, 0)));
            let reput = rx.recv_timeout(std::time::Duration::from_secs(1));
            sink.open();
            evict.join().unwrap().unwrap();
            if let Ok(reput) = reput {
                reput.unwrap();
            }
        });
        let hit = cache.get(&a).expect("the re-put entry was deleted");
        assert_eq!(hit.payload, vec![4; 128]);
        // It went in as the newest entry and evicted the oldest.
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.tracked_entries(), 2);
    }

    #[test]
    fn oversized_payload_is_not_stored() {
        let cache = mem_cache(64);
        let key = CacheKey::compute("s", b"in", b"");
        let ((), snap) = with_registry(|| {
            cache.put(&key, &[0u8; 1024], 0, 0).unwrap();
            assert!(cache.get(&key).is_none());
        });
        assert_eq!(cache.tracked_entries(), 0);
        assert_eq!(snap.counters.get("cache.evictions"), None);
    }

    #[test]
    fn pre_existing_blobs_enter_the_index_on_hit() {
        // A cache restarted over a sink that already holds entries must
        // learn their sizes so eviction accounting stays correct.
        let sink = Arc::new(MemSink::new());
        let key = CacheKey::compute("s", b"in", b"");
        let ((), _snap) = with_registry(|| {
            let first =
                StageCache::new(sink.clone(), 1 << 20).with_clock(Arc::new(LogicalClock::new()));
            first.put(&key, b"payload", 0, 0).unwrap();
        });
        let restarted =
            StageCache::new(sink.clone(), 1 << 20).with_clock(Arc::new(LogicalClock::new()));
        assert_eq!(restarted.tracked_entries(), 0);
        let ((), _snap) = with_registry(|| {
            assert!(restarted.get(&key).is_some());
        });
        assert_eq!(restarted.tracked_entries(), 1);
        assert!(restarted.tracked_bytes() > 0);
    }

    #[test]
    fn cached_stage_skips_recompute_and_restores_counters() {
        let cache = Arc::new(mem_cache(1 << 20));
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in_stage = calls.clone();
        let pipeline: Pipeline<Vec<f64>> = Pipeline::builder("cache-unit")
            .configured_stage(
                "double",
                S::Transform,
                [("factor", "2".to_string())],
                move |v: Vec<f64>, c| {
                    calls_in_stage.fetch_add(1, Ordering::SeqCst);
                    c.records = v.len() as u64;
                    c.bytes = (v.len() * 8) as u64;
                    Ok(v.into_iter().map(|x| x * 2.0).collect())
                },
            )
            .build()
            .cached("double", cache.clone());
        let ((), snap) = with_registry(|| {
            let cold = pipeline.run(vec![1.0, 2.0, 3.0]).unwrap();
            assert_eq!(cold.output, vec![2.0, 4.0, 6.0]);
            let warm = pipeline.run(vec![1.0, 2.0, 3.0]).unwrap();
            assert_eq!(warm.output, vec![2.0, 4.0, 6.0]);
            // Counters on the warm run come from the entry, not the fn.
            assert_eq!(warm.stage("double").unwrap().throughput.records, 3);
            assert_eq!(warm.stage("double").unwrap().throughput.bytes, 24);
            // Different input → recompute.
            pipeline.run(vec![5.0]).unwrap();
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one cold run per input");
        assert_eq!(snap.counters["cache.hits"], 1);
        assert_eq!(snap.counters["cache.misses"], 2);
    }

    #[test]
    fn config_fingerprint_invalidates() {
        let cache = Arc::new(mem_cache(1 << 20));
        let build = |factor: f64, cache: Arc<StageCache>| -> Pipeline<Vec<f64>> {
            Pipeline::builder("cache-cfg")
                .configured_stage(
                    "scale",
                    S::Transform,
                    [("factor", format!("{factor}"))],
                    move |v: Vec<f64>, _| Ok(v.into_iter().map(|x| x * factor).collect()),
                )
                .build()
                .cached("scale", cache)
        };
        let ((), snap) = with_registry(|| {
            let out2 = build(2.0, cache.clone()).run(vec![1.0]).unwrap().output;
            let out3 = build(3.0, cache.clone()).run(vec![1.0]).unwrap().output;
            assert_eq!(out2, vec![2.0]);
            assert_eq!(out3, vec![3.0], "config change must invalidate");
        });
        assert_eq!(snap.counters["cache.misses"], 2);
        assert_eq!(snap.counters.get("cache.hits"), None);
    }

    #[test]
    fn rejected_check_recomputes() {
        let cache = Arc::new(mem_cache(1 << 20));
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in_stage = calls.clone();
        let pipeline: Pipeline<Vec<f64>> = Pipeline::builder("cache-check")
            .stage("picky", S::Transform, move |v: Vec<f64>, _| {
                calls_in_stage.fetch_add(1, Ordering::SeqCst);
                Ok(v)
            })
            .build()
            // Every hit is rejected.
            .cached_with_check("picky", cache.clone(), |_| false);
        let ((), snap) = with_registry(|| {
            pipeline.run(vec![1.0]).unwrap();
            pipeline.run(vec![1.0]).unwrap();
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // The lookup itself still hit; the semantic check rejected it.
        assert_eq!(snap.counters["cache.hits"], 1);
    }

    /// A hit puts on record what the miss that stored the entry did: the
    /// stage's record is the cold one, its report restored from the
    /// entry, plus `cache_hit` = the trace that computed it.
    #[test]
    fn a_hit_is_recorded_as_the_miss_was_plus_its_origin_trace() {
        use drai_io::json::Json;
        let cache = Arc::new(mem_cache(1 << 20));
        // The one record of a run, its trace and its `cache_hit` taken out.
        let run = || -> (Json, Option<u64>, Option<Json>) {
            let ledger = Arc::new(Ledger::new());
            let pipeline: Pipeline<Vec<u8>> = Pipeline::builder("cache-report")
                .ledger(ledger.clone())
                .configured_stage(
                    "shard",
                    S::Shard,
                    [("k", "v".to_string())],
                    |v: Vec<u8>, c| {
                        c.measure("len", v.len());
                        c.wrote("out.bin", &v);
                        Ok(v)
                    },
                )
                .build()
                .cached("shard", cache.clone());
            with_registry(|| pipeline.run_with_id(vec![1, 2], Some([3; 16])).unwrap());
            let mut record = Json::parse(ledger.to_jsonl().trim_end()).unwrap();
            let Json::Obj(fields) = &mut record else {
                panic!("a record is an object")
            };
            let trace = fields.remove("trace").and_then(|t| t.as_u64());
            let Some(Json::Obj(params)) = fields.get_mut("params") else {
                panic!("params are an object")
            };
            let hit = params.remove("cache_hit");
            assert_eq!(params.len(), 2, "{params:?}");
            (record, trace, hit)
        };
        let (cold, cold_trace, none) = run();
        let (warm, _, hit) = run();
        assert_eq!(warm, cold);
        assert_eq!(none, None);
        let origin = cold_trace.expect("the cold run is traced").to_string();
        assert_eq!(
            hit,
            Some(Json::from(origin)),
            "the hit names the miss's trace"
        );
        let written = cold.get("outputs").and_then(Json::as_arr).unwrap();
        assert_eq!(written.len(), 2, "the output's id and out.bin");
    }

    #[test]
    fn stored_reports_round_trip_and_refuse_damage() {
        let report = StageReport {
            measured: vec![("tas.mean".to_string(), "1.5".to_string())],
            written: vec![Artifact::new("a/train-00000.shard", b"shard")],
        };
        let output_at = ByteWriter::count(|w| write_report(&report, w)) as usize;
        let mut w = ByteWriter::new();
        write_report(&report, &mut w);
        b"output".to_vec().write_cache_bytes(&mut w);
        let mut payload = w.finish();
        assert_eq!(decode_report(&payload), Ok((report, output_at)));
        assert_eq!(&payload[output_at..], b"output");
        let mut empty = ByteWriter::new();
        write_report(&StageReport::default(), &mut empty);
        let empty = empty.finish();
        assert_eq!(empty, [0; 16], "two zero counts");
        assert_eq!(decode_report(&empty), Ok((StageReport::default(), 16)));
        for cut in [0, 8, 20] {
            assert!(decode_report(&payload[..cut]).is_err(), "{cut}");
        }
        // A count larger than the payload could hold reserves nothing.
        payload[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_report(&payload).is_err());
    }

    /// `encode_entry` as it was before entries were built in place: the
    /// payload encoded into a buffer of its own, then copied behind the
    /// header. Raw entry bytes are pinned to it; under another codec it
    /// builds the compressed entries older caches wrote.
    fn reference_encode_entry(
        codec: CodecId,
        origin_trace: Option<u64>,
        records: u64,
        bytes: u64,
        payload: &[u8],
    ) -> Vec<u8> {
        let encoded = codec_for(codec).encode(payload);
        let mut w = ByteWriter::with_capacity(64 + encoded.len());
        w.put_u8(ENTRY_MAGIC[0]);
        w.put_u8(ENTRY_MAGIC[1]);
        w.put_u8(ENTRY_MAGIC[2]);
        w.put_u8(ENTRY_MAGIC[3]);
        w.put_u64(u64::from(DERIVATION_VERSION));
        w.put_u8(codec.tag());
        w.put_u64(origin_trace.unwrap_or(0));
        w.put_u64(records);
        w.put_u64(bytes);
        w.put_bytes(&content_hash128(payload));
        w.put_bytes(&encoded);
        w.finish()
    }

    #[test]
    fn entries_built_in_place_equal_the_copying_builder() {
        // Long enough (the last one) to cross a 2 MiB boundary.
        let payload_of = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|i| ((i / 7) % 251) as u8 ^ ((i >> 12) as u8))
                .collect()
        };
        for len in [0usize, 1, 4096, (2 << 20) + 40] {
            let payload = payload_of(len);
            for origin in [None, Some(0x1234_5678_9ABC_DEF0)] {
                let want = reference_encode_entry(CodecId::Raw, origin, 7, len as u64, &payload);
                // Written in two pieces: the builder must take whatever
                // the writer appends, however it appends it.
                let (head, tail) = payload.split_at(len / 3);
                let got = encode_entry(origin, 7, len as u64, |w| {
                    w.put_raw(head);
                    w.put_raw(tail);
                });
                assert!(
                    got == want,
                    "{len} bytes, origin {origin:?}: entry bytes moved"
                );
                assert_eq!(got.len() - ENTRY_HEADER_LEN, len);
                let entry = decode_entry(&got).expect("own entry decodes");
                assert!(entry.payload(&got) == payload.as_slice());
                assert_eq!((entry.records, entry.bytes), (7, len as u64));
                assert_eq!(entry.origin_trace, origin);
            }
        }
    }

    #[test]
    fn raw_entry_verified_in_place_refuses_any_flipped_field() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        let good = encode_entry(Some(9), 3, 4096, |w| w.put_raw(&payload));
        let digest_at = ENTRY_HEADER_LEN - 8 - 16;
        let len_at = ENTRY_HEADER_LEN - 8;
        for (what, at) in [
            ("first digest byte", digest_at),
            ("last digest byte", digest_at + 15),
            ("digest length", digest_at - 8),
            ("payload length, low byte", len_at),
            ("payload length, high byte", len_at + 7),
            ("first payload byte", ENTRY_HEADER_LEN),
            ("last payload byte", good.len() - 1),
        ] {
            let sink = Arc::new(MemSink::new());
            let cache =
                StageCache::new(sink.clone(), 1 << 20).with_clock(Arc::new(LogicalClock::new()));
            let key = CacheKey::compute("s", b"in", b"");
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(decode_entry(&bad).is_err(), "{what}");
            sink.write_file(&key.blob_name(), &bad).unwrap();
            let ((), snap) = with_registry(|| {
                assert!(cache.get(&key).is_none(), "{what}: served");
            });
            assert_eq!(snap.counters["cache.quarantined"], 1, "{what}");
            assert_eq!(snap.counters["cache.misses"], 1, "{what}");
            assert_eq!(snap.counters.get("cache.hits"), None, "{what}");
            assert!(!sink.exists(&key.blob_name()), "{what}: left in place");
        }
        assert!(decode_entry(&good).is_ok());
    }

    #[test]
    fn key_from_input_id_is_the_computed_key() {
        let input = b"serialized input bytes";
        let key = CacheKey::compute("regrid", input, b"cfg");
        assert_eq!(
            CacheKey::from_input_id("regrid", &content_hash128(input), b"cfg"),
            key
        );
        // A chained key is keyed by its predecessor's digest, not by any
        // content: equal for equal predecessors and fingerprints only.
        let next = key.chained("normalize", b"n");
        assert_eq!(next, CacheKey::from_input_id("normalize", &key.hash, b"n"));
        // A key is the derivation id drai-core gives the stage's output.
        assert_eq!(next.hash, derive(&key.hash, "normalize", b"n"));
        assert_ne!(next, key.chained("normalize", b"N"));
        assert_ne!(
            next,
            CacheKey::compute("regrid", b"other", b"cfg").chained("normalize", b"n")
        );
        assert_ne!(next, CacheKey::compute("normalize", input, b"n"));
    }

    #[test]
    fn entry_decode_rejects_wrong_version() {
        let entry = encode_entry(None, 0, 0, |w| w.put_u8(b'p'));
        // Version field sits at bytes 4..12.
        let mut bad = entry.clone();
        bad[4] ^= 0xFF;
        assert!(decode_entry(&bad).is_err());
        assert!(decode_entry(&entry).is_ok());
    }
}
