//! `bp` — an ADIOS-BP-inspired process-group log format, from scratch.
//!
//! ADIOS (Lofstead et al., the paper's reference \[25\]) organizes output as
//! an append-only sequence of *process groups* — one writer's variables for
//! one output step — plus a footer index that locates every group and
//! variable without scanning the file. That layout is what makes "log-based
//! I/O" fast on parallel filesystems: each writer streams its group
//! sequentially, and readers jump via the index.
//!
//! The materials archetype (HydraGNN-style) shards graph samples through
//! this module. Layout:
//!
//! ```text
//! "BPLT\x01"            magic
//! process groups:       [group header][var entries...]
//! footer index:         per group: name, step, offset, len, crc32c,
//!                       var names/dtypes/element counts
//! u64le footer_offset
//! u32le footer_crc32c
//! "BPLT"                trailer magic (validates the footer pointer)
//! ```
//!
//! Who owns which copy: a [`BpVar`] owns its little-endian bytes (one
//! conversion out of the tensor, [`BpVar::from_tensor`]); the
//! [`BpWriter`] owns the file buffer, and a group or the footer is written
//! straight into it and hashed where it lies — no `body` or `footer`
//! staged beside it. Reading copies each variable out of the file.

use crate::bytes::{arr4, arr8};
use crate::{malformed, FormatError};
use drai_io::checksum::crc32c;
use drai_tensor::{DType, Element, Tensor};

const MAGIC: &[u8; 5] = b"BPLT\x01";
const TRAILER: &[u8; 4] = b"BPLT";

/// One variable inside a process group.
#[derive(Debug, Clone, PartialEq)]
pub struct BpVar {
    /// Variable name (unique within the group).
    pub name: String,
    /// Element dtype.
    pub dtype: DType,
    /// Shape.
    pub shape: Vec<usize>,
    /// Raw little-endian data.
    pub data: Vec<u8>,
}

impl BpVar {
    /// Build from a tensor.
    pub fn from_tensor<T: Element>(name: &str, t: &Tensor<T>) -> BpVar {
        BpVar {
            name: name.to_string(),
            dtype: T::DTYPE,
            shape: t.shape().to_vec(),
            data: t.to_le_bytes(),
        }
    }

    /// Decode to a typed tensor.
    pub fn to_tensor<T: Element>(&self) -> Result<Tensor<T>, FormatError> {
        if T::DTYPE != self.dtype {
            return Err(malformed(
                "bp",
                format!(
                    "{}: stored {}, requested {}",
                    self.name,
                    self.dtype,
                    T::DTYPE
                ),
            ));
        }
        Tensor::from_le_bytes(&self.data, &self.shape)
            .map_err(|e| malformed("bp", format!("{}: {e}", self.name)))
    }
}

/// A process group: one writer's variables at one step.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessGroup {
    /// Logical writer name (e.g. "rank0", "sample-batch-3").
    pub name: String,
    /// Output step / sample index.
    pub step: u64,
    /// Variables in write order.
    pub vars: Vec<BpVar>,
}

impl ProcessGroup {
    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Option<&BpVar> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// Streaming writer: groups are appended; `finish` writes the footer.
#[derive(Debug, Default)]
pub struct BpWriter {
    buf: Vec<u8>,
    index: Vec<GroupIndexEntry>,
}

#[derive(Debug, Clone)]
struct GroupIndexEntry {
    name: String,
    step: u64,
    offset: u64,
    len: u64,
    crc: u32,
    vars: Vec<(String, DType, Vec<usize>)>,
}

impl BpWriter {
    /// New writer with the leading magic already emitted.
    pub fn new() -> Self {
        BpWriter {
            buf: MAGIC.to_vec(),
            index: Vec::new(),
        }
    }

    /// Append one process group (the log-structured write path: one
    /// sequential burst per group, written where it is stored).
    pub fn append(&mut self, group: &ProcessGroup) {
        let start = self.buf.len();
        let var_len = |v: &BpVar| 4 + v.name.len() + 5 + 8 * v.shape.len() + 8 + v.data.len();
        let vars_len: usize = group.vars.iter().map(var_len).sum();
        self.buf.reserve(4 + group.name.len() + 12 + vars_len);
        write_str(&mut self.buf, &group.name);
        self.buf.extend_from_slice(&group.step.to_le_bytes());
        self.buf
            .extend_from_slice(&(group.vars.len() as u32).to_le_bytes());
        let mut var_index = Vec::with_capacity(group.vars.len());
        for v in &group.vars {
            write_var_header(&mut self.buf, &v.name, v.dtype, &v.shape);
            self.buf
                .extend_from_slice(&(v.data.len() as u64).to_le_bytes());
            self.buf.extend_from_slice(&v.data);
            var_index.push((v.name.clone(), v.dtype, v.shape.clone()));
        }
        self.index.push(GroupIndexEntry {
            name: group.name.clone(),
            step: group.step,
            offset: start as u64,
            len: (self.buf.len() - start) as u64,
            crc: crc32c(&self.buf[start..]),
            vars: var_index,
        });
    }

    /// Emit the footer and return the finished file bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.buf;
        let footer_offset = out.len();
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for e in &self.index {
            write_str(&mut out, &e.name);
            out.extend_from_slice(&e.step.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
            out.extend_from_slice(&(e.vars.len() as u32).to_le_bytes());
            for (name, dtype, shape) in &e.vars {
                write_var_header(&mut out, name, *dtype, shape);
            }
        }
        let crc = crc32c(&out[footer_offset..]);
        out.extend_from_slice(&(footer_offset as u64).to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(TRAILER);
        out
    }
}

/// Footer metadata for one group (what a reader scans before deciding
/// which groups to fetch).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMeta {
    /// Group name.
    pub name: String,
    /// Step.
    pub step: u64,
    /// Variable names, dtypes and shapes (no data).
    pub vars: Vec<(String, DType, Vec<usize>)>,
}

/// Reader over a finished BP file.
pub struct BpReader<'a> {
    bytes: &'a [u8],
    index: Vec<GroupIndexEntry>,
}

impl<'a> BpReader<'a> {
    /// Open from bytes: validates magic, trailer, and footer CRC.
    pub fn open(bytes: &'a [u8]) -> Result<BpReader<'a>, FormatError> {
        if bytes.len() < MAGIC.len() + 16 || &bytes[..5] != MAGIC {
            return Err(malformed("bp", "bad magic"));
        }
        if &bytes[bytes.len() - 4..] != TRAILER {
            return Err(malformed("bp", "bad trailer"));
        }
        let tail = bytes.len() - 16;
        let footer_offset = u64::from_le_bytes(arr8(&bytes[tail..tail + 8])) as usize;
        let footer_crc = u32::from_le_bytes(arr4(&bytes[tail + 8..tail + 12]));
        let footer = bytes
            .get(footer_offset..tail)
            .ok_or_else(|| malformed("bp", "footer offset out of range"))?;
        if crc32c(footer) != footer_crc {
            return Err(FormatError::ChecksumMismatch {
                format: "bp",
                part: "footer".to_string(),
            });
        }
        let mut c = Cur { b: footer, p: 0 };
        let ngroups = c.u32()? as usize;
        let mut index = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let name = c.str()?;
            let step = c.u64()?;
            let offset = c.u64()?;
            let len = c.u64()?;
            let crc = c.u32()?;
            let nvars = c.u32()? as usize;
            let mut vars = Vec::with_capacity(nvars);
            for _ in 0..nvars {
                let vname = c.str()?;
                let dtype = DType::from_code(c.u8()?)
                    .ok_or_else(|| malformed("bp", "bad dtype in footer"))?;
                let ndims = c.u32()? as usize;
                let mut shape = Vec::with_capacity(ndims);
                for _ in 0..ndims {
                    shape.push(c.u64()? as usize);
                }
                vars.push((vname, dtype, shape));
            }
            index.push(GroupIndexEntry {
                name,
                step,
                offset,
                len,
                crc,
                vars,
            });
        }
        Ok(BpReader { bytes, index })
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.index.len()
    }

    /// Footer-only metadata (no payload reads) — the "cheap scan" path.
    pub fn metadata(&self) -> Vec<GroupMeta> {
        self.index
            .iter()
            .map(|e| GroupMeta {
                name: e.name.clone(),
                step: e.step,
                vars: e.vars.clone(),
            })
            .collect()
    }

    /// Fetch and decode one group by index, verifying its CRC.
    pub fn read_group(&self, i: usize) -> Result<ProcessGroup, FormatError> {
        let e = self
            .index
            .get(i)
            .ok_or_else(|| malformed("bp", format!("group {i} out of range")))?;
        let body = self
            .bytes
            .get(e.offset as usize..(e.offset + e.len) as usize)
            .ok_or_else(|| malformed("bp", "group body out of range"))?;
        if crc32c(body) != e.crc {
            return Err(FormatError::ChecksumMismatch {
                format: "bp",
                part: format!("group {}", e.name),
            });
        }
        let mut c = Cur { b: body, p: 0 };
        let name = c.str()?;
        let step = c.u64()?;
        let nvars = c.u32()? as usize;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let vname = c.str()?;
            let dtype = DType::from_code(c.u8()?).ok_or_else(|| malformed("bp", "bad dtype"))?;
            let ndims = c.u32()? as usize;
            let mut shape = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                shape.push(c.u64()? as usize);
            }
            let dlen = c.u64()? as usize;
            let data = c.take(dlen)?.to_vec();
            let elems: usize = shape.iter().product();
            if data.len() != elems * dtype.size_bytes() {
                return Err(malformed("bp", format!("{vname}: data/shape mismatch")));
            }
            vars.push(BpVar {
                name: vname,
                dtype,
                shape,
                data,
            });
        }
        Ok(ProcessGroup { name, step, vars })
    }

    /// Read every group.
    pub fn read_all(&self) -> Result<Vec<ProcessGroup>, FormatError> {
        (0..self.group_count())
            .map(|i| self.read_group(i))
            .collect()
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Name, dtype and shape of a variable, as both a group body and the
/// footer store them.
fn write_var_header(out: &mut Vec<u8>, name: &str, dtype: DType, shape: &[usize]) {
    write_str(out, name);
    out.push(dtype.code());
    out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
    for &d in shape {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
}

struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let s = self
            .b
            .get(self.p..self.p + n)
            .ok_or_else(|| malformed("bp", "truncated"))?;
        self.p += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(arr4(self.take(4)?)))
    }
    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(arr8(self.take(8)?)))
    }
    fn str(&mut self) -> Result<String, FormatError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| malformed("bp", "non-UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_group(step: u64, natoms: usize) -> ProcessGroup {
        let pos = Tensor::from_fn(&[natoms, 3], |i| i as f64 * 0.1);
        let species =
            Tensor::from_vec((0..natoms).map(|i| (i % 4) as i64).collect(), &[natoms]).unwrap();
        let edges = Tensor::from_vec(
            (0..natoms * 2).map(|i| (i % natoms) as i64).collect(),
            &[natoms, 2],
        )
        .unwrap();
        ProcessGroup {
            name: format!("sample-{step}"),
            step,
            vars: vec![
                BpVar::from_tensor("positions", &pos),
                BpVar::from_tensor("species", &species),
                BpVar::from_tensor("edges", &edges),
            ],
        }
    }

    #[test]
    fn round_trip_multiple_groups() {
        let mut w = BpWriter::new();
        let groups: Vec<ProcessGroup> = (0..5).map(|s| graph_group(s, 3 + s as usize)).collect();
        for g in &groups {
            w.append(g);
        }
        let bytes = w.finish();
        let r = BpReader::open(&bytes).unwrap();
        assert_eq!(r.group_count(), 5);
        assert_eq!(r.read_all().unwrap(), groups);
    }

    #[test]
    fn metadata_scan_without_payload() {
        let mut w = BpWriter::new();
        w.append(&graph_group(7, 10));
        let bytes = w.finish();
        let r = BpReader::open(&bytes).unwrap();
        let meta = r.metadata();
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].name, "sample-7");
        assert_eq!(meta[0].step, 7);
        assert_eq!(meta[0].vars.len(), 3);
        assert_eq!(
            meta[0].vars[0],
            ("positions".to_string(), DType::F64, vec![10, 3])
        );
    }

    #[test]
    fn typed_variable_access() {
        let mut w = BpWriter::new();
        w.append(&graph_group(0, 4));
        let bytes = w.finish();
        let r = BpReader::open(&bytes).unwrap();
        let g = r.read_group(0).unwrap();
        let pos: Tensor<f64> = g.var("positions").unwrap().to_tensor().unwrap();
        assert_eq!(pos.shape(), &[4, 3]);
        assert!(g.var("positions").unwrap().to_tensor::<f32>().is_err());
        assert!(g.var("missing").is_none());
    }

    #[test]
    fn empty_file() {
        let bytes = BpWriter::new().finish();
        let r = BpReader::open(&bytes).unwrap();
        assert_eq!(r.group_count(), 0);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn group_corruption_detected() {
        let mut w = BpWriter::new();
        w.append(&graph_group(0, 8));
        let mut bytes = w.finish();
        bytes[30] ^= 0xFF; // inside group body
        let r = BpReader::open(&bytes).unwrap(); // footer still fine
        assert!(matches!(
            r.read_group(0),
            Err(FormatError::ChecksumMismatch { format: "bp", .. })
        ));
    }

    #[test]
    fn footer_corruption_detected() {
        let mut w = BpWriter::new();
        w.append(&graph_group(0, 8));
        let mut bytes = w.finish();
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF; // inside footer
        assert!(BpReader::open(&bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut w = BpWriter::new();
        w.append(&graph_group(0, 8));
        let bytes = w.finish();
        assert!(BpReader::open(&bytes[..bytes.len() - 1]).is_err());
        assert!(BpReader::open(&bytes[..8]).is_err());
        assert!(BpReader::open(b"not a bp file at all").is_err());
    }

    #[test]
    fn append_is_log_structured() {
        // Offsets must be strictly increasing (sequential log writes).
        let mut w = BpWriter::new();
        for s in 0..4 {
            w.append(&graph_group(s, 5));
        }
        let offsets: Vec<u64> = w.index.iter().map(|e| e.offset).collect();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(offsets[0], MAGIC.len() as u64);
    }
}
