//! # drai-provenance
//!
//! Provenance capture for data-readiness pipelines — the paper's
//! "Provenance and Reproducibility" cross-cutting challenge ("establishing
//! traceable links between raw data, preprocessing steps, and trained
//! models"), in the spirit of OLCF's ProvEn.
//!
//! Two pieces:
//!
//! * [`Artifact`] — data named by an id: a blob by the digest of its
//!   bytes, so identity survives renames and copies; an in-memory
//!   intermediate by its *derivation id* ([`Artifact::derived`]).
//! * [`Ledger`] — an append-only record of transformations: which
//!   operation, with which parameters, read which artifacts and produced
//!   which. The ledger is a DAG keyed by artifact id; [`Ledger::lineage`]
//!   walks it backwards to answer "exactly what produced this shard?",
//!   and [`Ledger::roots`] names the raw inputs it came from. A domain
//!   run writes one `ingest` record and one record per stage execution,
//!   so every shard's lineage reaches its raw blobs.
//!
//! Serialization is JSONL (one event per line) through `drai-io`'s JSON
//! module, making audit logs greppable and appendable.
//!
//! Every recorded transformation is additionally stamped with the
//! telemetry [`TraceId`] current at [`Ledger::record`] time (when the
//! recording code runs under an entered span), linking each readiness
//! transition to the exported trace tree that timed it.

use drai_io::checksum::{content_hash128, hash_hex};
use drai_io::json::Json;
use drai_telemetry::{TraceContext, TraceId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A content-addressed artifact reference.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactId(String);

impl ArtifactId {
    /// Id of the given content.
    pub fn of(content: &[u8]) -> ArtifactId {
        ArtifactId(hash_hex(&content_hash128(content)))
    }

    /// The id whose hex digest is `hex`, if it is one: 32 lowercase hex
    /// digits, as [`ArtifactId::digest`] writes them.
    pub fn from_hex(hex: &str) -> Option<ArtifactId> {
        let digit = |c: u8| c.is_ascii_digit() || (b'a'..=b'f').contains(&c);
        (hex.len() == 32 && hex.bytes().all(digit)).then(|| ArtifactId(hex.to_string()))
    }

    /// The hex digest.
    pub fn digest(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A named artifact with its content id and size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Content-derived id.
    pub id: ArtifactId,
    /// Human-facing name (path, variable, shard name).
    pub name: String,
    /// Content size in bytes.
    pub bytes: u64,
}

impl Artifact {
    /// Register content under a name.
    pub fn new(name: &str, content: &[u8]) -> Artifact {
        Artifact {
            id: ArtifactId::of(content),
            name: name.to_string(),
            bytes: content.len() as u64,
        }
    }

    /// An in-memory intermediate named by its derivation id: it has no
    /// blob name and no bytes on record, only the id that says how it
    /// was derived.
    pub fn derived(id: &[u8; 16]) -> Artifact {
        Artifact {
            id: ArtifactId(hash_hex(id)),
            name: String::new(),
            bytes: 0,
        }
    }
}

/// One recorded transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transformation {
    /// Monotonic sequence number within the ledger.
    pub seq: u64,
    /// Operation name ("regrid", "normalize", "shard", ...).
    pub operation: String,
    /// Operation parameters, serialized deterministically.
    pub params: BTreeMap<String, String>,
    /// Input artifacts.
    pub inputs: Vec<Artifact>,
    /// Output artifacts.
    pub outputs: Vec<Artifact>,
    /// Telemetry trace active when this was recorded, if any — the key
    /// into the exported trace tree that timed this step.
    pub trace: Option<TraceId>,
}

impl Transformation {
    fn to_json(&self) -> Json {
        let art = |a: &Artifact| {
            Json::obj([
                ("id", Json::from(a.id.digest())),
                ("name", Json::from(a.name.clone())),
                ("bytes", Json::from(a.bytes)),
            ])
        };
        let mut fields = vec![
            ("seq", Json::from(self.seq)),
            ("operation", Json::from(self.operation.clone())),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.clone())))
                        .collect(),
                ),
            ),
            ("inputs", Json::Arr(self.inputs.iter().map(art).collect())),
            ("outputs", Json::Arr(self.outputs.iter().map(art).collect())),
        ];
        if let Some(trace) = self.trace {
            fields.push(("trace", Json::from(trace.as_u64())));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<Transformation, ProvenanceError> {
        let bad = |m: &str| ProvenanceError::Malformed(m.to_string());
        let text = |j: &Json, key: &str| match j.get(key).and_then(Json::as_str) {
            Some(text) => Ok(text.to_string()),
            None => Err(bad(&format!("missing {key}"))),
        };
        let arts = |key: &str| -> Result<Vec<Artifact>, ProvenanceError> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(&format!("missing {key}")))?
                .iter()
                .map(|a| {
                    Ok(Artifact {
                        id: ArtifactId(text(a, "id")?),
                        name: text(a, "name")?,
                        bytes: a
                            .get("bytes")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| bad("artifact missing bytes"))?,
                    })
                })
                .collect()
        };
        let params = v
            .get("params")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("missing params"))?
            .iter()
            .map(|(k, val)| match val.as_str() {
                Some(val) => Ok((k.clone(), val.to_string())),
                None => Err(bad("param not a string")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Transformation {
            seq: v
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing seq"))?,
            operation: text(v, "operation")?,
            params,
            inputs: arts("inputs")?,
            outputs: arts("outputs")?,
            // Optional: audit logs from before trace stamping parse
            // with no trace attached.
            trace: v.get("trace").and_then(Json::as_u64).map(TraceId),
        })
    }
}

/// Provenance errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvenanceError {
    /// JSONL line could not be parsed.
    Malformed(String),
    /// Unknown artifact queried.
    UnknownArtifact(String),
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceError::Malformed(m) => write!(f, "malformed provenance: {m}"),
            ProvenanceError::UnknownArtifact(id) => write!(f, "unknown artifact {id}"),
        }
    }
}

impl std::error::Error for ProvenanceError {}

/// Append-only transformation ledger with lineage queries.
///
/// Thread-safe: pipeline stages record concurrently.
#[derive(Debug, Default)]
pub struct Ledger {
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    transformations: Vec<Transformation>,
    /// artifact id → seq of the transformation that produced it.
    produced_by: BTreeMap<ArtifactId, u64>,
}

impl Ledger {
    /// Empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Record a transformation; returns its sequence number.
    ///
    /// The transformation is stamped with the [`TraceId`] of the
    /// thread's current [`TraceContext`], if one is attached — the
    /// pipeline writes a stage's record while the stage's span is
    /// entered, so it lands in the trace that timed the stage.
    pub fn record(
        &self,
        operation: &str,
        params: impl IntoIterator<Item = (String, String)>,
        inputs: Vec<Artifact>,
        outputs: Vec<Artifact>,
    ) -> u64 {
        let trace = TraceContext::current().map(|ctx| ctx.trace_id());
        let mut inner = self.inner.lock();
        let seq = inner.transformations.len() as u64;
        for out in &outputs {
            inner.produced_by.insert(out.id.clone(), seq);
        }
        inner.transformations.push(Transformation {
            seq,
            operation: operation.to_string(),
            params: params.into_iter().collect(),
            inputs,
            outputs,
            trace,
        });
        seq
    }

    /// Number of recorded transformations.
    pub fn len(&self) -> usize {
        self.inner.lock().transformations.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The transformation that produced an artifact, if recorded.
    pub fn producer(&self, id: &ArtifactId) -> Option<Transformation> {
        let inner = self.inner.lock();
        inner
            .produced_by
            .get(id)
            .map(|&seq| inner.transformations[seq as usize].clone())
    }

    /// Full lineage of an artifact: every upstream transformation,
    /// deduplicated, ordered root-first (topological by construction,
    /// since the ledger is append-only).
    pub fn lineage(&self, id: &ArtifactId) -> Result<Vec<Transformation>, ProvenanceError> {
        let inner = self.inner.lock();
        let start = *inner
            .produced_by
            .get(id)
            .ok_or_else(|| ProvenanceError::UnknownArtifact(id.digest().to_string()))?;
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(seq) = queue.pop_front() {
            if !seen.insert(seq) {
                continue;
            }
            let t = &inner.transformations[seq as usize];
            for input in &t.inputs {
                if let Some(&parent) = inner.produced_by.get(&input.id) {
                    queue.push_back(parent);
                }
            }
        }
        Ok(seen
            .into_iter()
            .map(|seq| inner.transformations[seq as usize].clone())
            .collect())
    }

    /// Source artifacts (lineage inputs nothing in the ledger produced).
    pub fn roots(&self, id: &ArtifactId) -> Result<Vec<Artifact>, ProvenanceError> {
        let lineage = self.lineage(id)?;
        let inner = self.inner.lock();
        let mut roots = Vec::new();
        let mut seen = BTreeSet::new();
        for t in &lineage {
            for input in &t.inputs {
                if !inner.produced_by.contains_key(&input.id) && seen.insert(input.id.clone()) {
                    roots.push(input.clone());
                }
            }
        }
        Ok(roots)
    }

    /// Serialize the ledger as JSONL (one transformation per line).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for t in &inner.transformations {
            out.push_str(&t.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL audit log back into a ledger.
    pub fn from_jsonl(text: &str) -> Result<Ledger, ProvenanceError> {
        let ledger = Ledger::new();
        {
            let mut inner = ledger.inner.lock();
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let v = Json::parse(line)
                    .map_err(|e| ProvenanceError::Malformed(format!("line {}: {e}", lineno + 1)))?;
                let t = Transformation::from_json(&v)?;
                if t.seq != inner.transformations.len() as u64 {
                    return Err(ProvenanceError::Malformed(format!(
                        "line {}: seq {} out of order",
                        lineno + 1,
                        t.seq
                    )));
                }
                for out in &t.outputs {
                    inner.produced_by.insert(out.id.clone(), t.seq);
                }
                inner.transformations.push(t);
            }
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_ids_are_content_addressed() {
        let a = Artifact::new("x.nc", b"field data");
        let b = Artifact::new("renamed.nc", b"field data");
        let c = Artifact::new("x.nc", b"different");
        assert_eq!(a.id, b.id); // same content, same id
        assert_ne!(a.id, c.id);
        assert_eq!(a.bytes, 10);
        assert_eq!(a.id.digest().len(), 32);
    }

    fn three_step_ledger() -> (Ledger, Artifact, Artifact, Artifact, Artifact) {
        // raw → regrid → normalize → shard
        let ledger = Ledger::new();
        let raw = Artifact::new("raw.nc", b"raw bytes");
        let regridded = Artifact::new("regridded.npy", b"regridded bytes");
        let normalized = Artifact::new("normalized.npy", b"normalized bytes");
        let shard = Artifact::new("train-00000.shard", b"shard bytes");
        ledger.record(
            "regrid",
            [("target".to_string(), "64x128".to_string())],
            vec![raw.clone()],
            vec![regridded.clone()],
        );
        ledger.record(
            "normalize",
            [("method".to_string(), "zscore".to_string())],
            vec![regridded.clone()],
            vec![normalized.clone()],
        );
        ledger.record(
            "shard",
            [("target_bytes".to_string(), "1048576".to_string())],
            vec![normalized.clone()],
            vec![shard.clone()],
        );
        (ledger, raw, regridded, normalized, shard)
    }

    #[test]
    fn lineage_walks_to_root() {
        let (ledger, raw, _, _, shard) = three_step_ledger();
        let lineage = ledger.lineage(&shard.id).unwrap();
        assert_eq!(lineage.len(), 3);
        let ops: Vec<&str> = lineage.iter().map(|t| t.operation.as_str()).collect();
        assert_eq!(ops, vec!["regrid", "normalize", "shard"]);
        let roots = ledger.roots(&shard.id).unwrap();
        assert_eq!(roots, vec![raw]);
    }

    #[test]
    fn producer_lookup() {
        let (ledger, raw, regridded, _, _) = three_step_ledger();
        assert_eq!(ledger.producer(&regridded.id).unwrap().operation, "regrid");
        assert!(ledger.producer(&raw.id).is_none()); // raw is a root
        assert!(ledger.lineage(&raw.id).is_err());
    }

    #[test]
    fn diamond_lineage_deduplicates() {
        // raw → (a, b) → merged: the root transformation must appear once.
        let ledger = Ledger::new();
        let raw = Artifact::new("raw", b"r");
        let a = Artifact::new("a", b"a");
        let b = Artifact::new("b", b"b");
        let merged = Artifact::new("m", b"m");
        ledger.record("split", [], vec![raw.clone()], vec![a.clone(), b.clone()]);
        ledger.record("merge", [], vec![a, b], vec![merged.clone()]);
        let lineage = ledger.lineage(&merged.id).unwrap();
        assert_eq!(lineage.len(), 2);
        assert_eq!(ledger.roots(&merged.id).unwrap(), vec![raw]);
    }

    #[test]
    fn jsonl_round_trip() {
        let (ledger, _, _, _, shard) = three_step_ledger();
        let text = ledger.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = Ledger::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 3);
        let lineage = back.lineage(&shard.id).unwrap();
        assert_eq!(lineage.len(), 3);
        assert_eq!(lineage[0].params.get("target"), Some(&"64x128".to_string()));
    }

    #[test]
    fn jsonl_rejects_garbage_and_bad_seq() {
        assert!(Ledger::from_jsonl("not json\n").is_err());
        let (ledger, ..) = three_step_ledger();
        let text = ledger.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 2); // out-of-order seq
        assert!(Ledger::from_jsonl(&lines.join("\n")).is_err());
    }

    /// `params` is as required as `seq`, `operation`, `inputs` and
    /// `outputs`: a line whose parameters were deleted, or replaced by
    /// something that is no object of strings, is not a valid record.
    #[test]
    fn jsonl_rejects_a_record_without_an_object_of_string_params() {
        let (ledger, ..) = three_step_ledger();
        let text = ledger.to_jsonl();
        let first = text.lines().next().unwrap();
        assert!(Ledger::from_jsonl(first).is_ok());
        let params = "\"params\":{\"target\":\"64x128\"}";
        assert!(first.contains(params), "{first}");
        for bad in [
            first.replace(&format!("{params},"), ""),
            first.replace(params, "\"params\":[]"),
            first.replace(params, "\"params\":{\"target\":64}"),
        ] {
            let err = Ledger::from_jsonl(&bad).err();
            assert!(
                matches!(err, Some(ProvenanceError::Malformed(_))),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn derived_and_hex_ids_name_what_they_say() {
        let id = [0xab; 16];
        let derived = Artifact::derived(&id);
        assert_eq!(derived.id.digest(), "ab".repeat(16));
        assert_eq!((derived.name.as_str(), derived.bytes), ("", 0));
        assert_eq!(ArtifactId::from_hex(derived.id.digest()), Some(derived.id));
        let blob = ArtifactId::of(b"blob");
        assert_eq!(ArtifactId::from_hex(blob.digest()), Some(blob));
        for bad in [
            "ab".repeat(15),
            "AB".repeat(16),
            "zz".repeat(16),
            "ab".repeat(17),
        ] {
            assert_eq!(ArtifactId::from_hex(&bad), None, "{bad}");
        }
    }

    #[test]
    fn records_stamp_current_trace_and_round_trip() {
        use drai_telemetry::{Name, Registry, Span};
        const STAGE: Name<Span> = Name::declare("stage.record");
        let ledger = Ledger::new();
        // Outside any context: no trace.
        ledger.record("bare", [], vec![], vec![Artifact::new("a", b"a")]);
        // Under an entered span: stamped with the span's trace.
        let reg = Registry::new();
        let span = reg.span(&STAGE, []);
        let expected = span.trace_id();
        {
            let _in_span = span.enter();
            ledger.record("traced", [], vec![], vec![Artifact::new("b", b"b")]);
        }
        let text = ledger.to_jsonl();
        let back = Ledger::from_jsonl(&text).unwrap();
        let bare = back.producer(&ArtifactId::of(b"a")).unwrap();
        let traced = back.producer(&ArtifactId::of(b"b")).unwrap();
        assert_eq!(bare.trace, None);
        assert_eq!(traced.trace, Some(expected));
        // Pre-stamping audit logs (no "trace" key) still parse.
        assert!(!text.lines().next().unwrap().contains("\"trace\""));
    }

    #[test]
    fn concurrent_recording() {
        let ledger = Ledger::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let ledger = &ledger;
                s.spawn(move || {
                    for i in 0..25 {
                        let input = Artifact::new(&format!("in-{t}-{i}"), &[t, i]);
                        let output = Artifact::new(&format!("out-{t}-{i}"), &[t, i, 99]);
                        ledger.record("op", [], vec![input], vec![output]);
                    }
                });
            }
        });
        assert_eq!(ledger.len(), 200);
        // Sequence numbers are unique and dense.
        let text = ledger.to_jsonl();
        let back = Ledger::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 200);
    }
}
