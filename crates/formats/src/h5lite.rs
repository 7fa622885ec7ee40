//! `h5lite` — a hierarchical, chunked, typed container in the spirit of
//! HDF5, defined from scratch.
//!
//! The bio/health archetype needs what HDF5 gives real pipelines: groups
//! forming a path hierarchy (`/patients/imaging/...`), typed n-dimensional
//! datasets with *chunked* storage (so one sample can be read without
//! touching the file's whole payload), and attributes on any node. A full
//! HDF5 implementation (B-trees, global heaps, v0–v3 superblocks) is out of
//! scope and unnecessary for the experiments; `h5lite` keeps the structural
//! essentials with an explicit, testable layout:
//!
//! ```text
//! "H5LT\x01\0\0\0"     magic + version
//! u64le index_offset    where the index (TOC) begins
//! payload              chunk data, concatenated
//! index:
//!   u32le node_count
//!   per node: path, kind (group/dataset), attrs,
//!             dtype, shape, chunk rows, per-chunk (offset, len, crc32c)
//! u64le index_crc  (crc32c of the serialized index)
//! ```
//!
//! Chunking is along the leading axis ("rows"), matching how samples are
//! appended and read back during training.
//!
//! Who owns which copy: a [`Dataset`] owns its little-endian bytes (one
//! conversion out of the tensor, [`Dataset::from_tensor`]);
//! [`H5File::to_bytes`] owns the one output buffer, reserved for the
//! payload up front, into which chunks are copied once and the index is
//! written and hashed where it lies. [`H5File::from_bytes`] copies each
//! dataset's chunks back out.

use crate::bytes::{arr4, arr8};
use crate::{malformed, FormatError};
use drai_io::checksum::crc32c;
use drai_tensor::{DType, Element, Tensor};
use std::collections::BTreeMap;

const MAGIC: &[u8; 8] = b"H5LT\x01\0\0\0";

/// Attribute value on a group or dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// UTF-8 text.
    Text(String),
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

/// A dataset: dtype, shape, and chunked raw (little-endian) data.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Element type.
    pub dtype: DType,
    /// Full shape, leading axis = rows.
    pub shape: Vec<usize>,
    /// Rows per chunk (leading-axis chunking).
    pub chunk_rows: usize,
    /// Raw element bytes, row-major, little-endian, concatenated chunks.
    data: Vec<u8>,
}

impl Dataset {
    /// Create from a tensor with leading-axis chunking.
    pub fn from_tensor<T: Element>(t: &Tensor<T>, chunk_rows: usize) -> Dataset {
        Dataset {
            dtype: T::DTYPE,
            shape: t.shape().to_vec(),
            chunk_rows: chunk_rows.max(1),
            data: t.to_le_bytes(),
        }
    }

    /// Reassemble as a typed tensor.
    pub(crate) fn to_tensor<T: Element>(&self) -> Result<Tensor<T>, FormatError> {
        if T::DTYPE != self.dtype {
            return Err(malformed(
                "h5lite",
                format!(
                    "dtype mismatch: stored {}, requested {}",
                    self.dtype,
                    T::DTYPE
                ),
            ));
        }
        Tensor::from_le_bytes(&self.data, &self.shape)
            .map_err(|e| malformed("h5lite", format!("{e}")))
    }

    /// Number of leading-axis rows.
    pub fn rows(&self) -> usize {
        self.shape.first().copied().unwrap_or(1)
    }

    /// Bytes per row (product of trailing dims × element size).
    fn row_bytes(&self) -> usize {
        let inner: usize = self.shape.iter().skip(1).product();
        inner.max(1) * self.dtype.size_bytes()
    }

    /// Raw little-endian bytes of rows `[start, end)` — the chunked-read
    /// path used to pull single samples without materializing the dataset.
    pub fn row_range_bytes(&self, start: usize, end: usize) -> Result<&[u8], FormatError> {
        if start > end || end > self.rows() {
            return Err(malformed("h5lite", format!("row range {start}..{end}")));
        }
        let rb = self.row_bytes();
        Ok(&self.data[start * rb..end * rb])
    }

    /// Number of chunks under leading-axis chunking.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks().count()
    }

    /// The chunks as stored: `chunk_rows` rows each, and one empty chunk
    /// for a dataset with no bytes.
    fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        let step = self.chunk_rows.max(1) * self.row_bytes();
        let empty = self.data.is_empty().then_some(&self.data[..]);
        empty.into_iter().chain(self.data.chunks(step))
    }
}

/// A node in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    /// An interior group.
    Group,
    /// A leaf dataset.
    Dataset(Dataset),
}

/// An in-memory h5lite file: path → node, plus attributes per path.
///
/// Paths are `/`-separated absolute paths (`/ehr/vitals`). Writing a
/// dataset auto-creates parent groups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct H5File {
    nodes: BTreeMap<String, Node>,
    attrs: BTreeMap<String, Vec<(String, AttrValue)>>,
}

fn normalize_path(path: &str) -> Result<String, FormatError> {
    if !path.starts_with('/') || path.len() < 2 || path.ends_with('/') {
        return Err(malformed(
            "h5lite",
            format!("path {path:?} must be absolute, non-root, no trailing slash"),
        ));
    }
    if path
        .split('/')
        .skip(1)
        .any(|seg| seg.is_empty() || seg == "." || seg == "..")
    {
        return Err(malformed(
            "h5lite",
            format!("path {path:?} has bad segment"),
        ));
    }
    Ok(path.to_string())
}

impl H5File {
    /// Empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a group (and parents) explicitly.
    pub fn create_group(&mut self, path: &str) -> Result<(), FormatError> {
        let path = normalize_path(path)?;
        self.ensure_parents(&path)?;
        match self.nodes.get(&path) {
            Some(Node::Dataset(_)) => Err(malformed(
                "h5lite",
                format!("{path} already exists as a dataset"),
            )),
            _ => {
                self.nodes.insert(path, Node::Group);
                Ok(())
            }
        }
    }

    fn ensure_parents(&mut self, path: &str) -> Result<(), FormatError> {
        // Every prefix that ends before a separator, the leading one aside.
        for (end, _) in path.match_indices('/').skip(1) {
            let parent = &path[..end];
            match self.nodes.get(parent) {
                Some(Node::Dataset(_)) => {
                    return Err(malformed(
                        "h5lite",
                        format!("{parent} is a dataset, cannot contain children"),
                    ))
                }
                Some(Node::Group) => {}
                None => {
                    self.nodes.insert(parent.to_string(), Node::Group);
                }
            }
        }
        Ok(())
    }

    /// Write a dataset at `path` (parents auto-created).
    pub fn put_dataset(&mut self, path: &str, ds: Dataset) -> Result<(), FormatError> {
        let path = normalize_path(path)?;
        self.ensure_parents(&path)?;
        if matches!(self.nodes.get(&path), Some(Node::Group)) {
            return Err(malformed("h5lite", format!("{path} is a group")));
        }
        self.nodes.insert(path, Node::Dataset(ds));
        Ok(())
    }

    /// Convenience: store a tensor.
    pub fn put_tensor<T: Element>(
        &mut self,
        path: &str,
        t: &Tensor<T>,
        chunk_rows: usize,
    ) -> Result<(), FormatError> {
        self.put_dataset(path, Dataset::from_tensor(t, chunk_rows))
    }

    /// Fetch a dataset.
    pub fn dataset(&self, path: &str) -> Option<&Dataset> {
        match self.nodes.get(path) {
            Some(Node::Dataset(ds)) => Some(ds),
            _ => None,
        }
    }

    /// Fetch a dataset as a typed tensor.
    pub fn tensor<T: Element>(&self, path: &str) -> Result<Tensor<T>, FormatError> {
        self.dataset(path)
            .ok_or_else(|| malformed("h5lite", format!("no dataset at {path}")))?
            .to_tensor()
    }

    /// Attach an attribute to an existing node.
    pub fn set_attr(
        &mut self,
        path: &str,
        name: &str,
        value: AttrValue,
    ) -> Result<(), FormatError> {
        if !self.nodes.contains_key(path) {
            return Err(malformed("h5lite", format!("no node at {path}")));
        }
        let list = self.attrs.entry(path.to_string()).or_default();
        if let Some(slot) = list.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            list.push((name.to_string(), value));
        }
        Ok(())
    }

    /// Read an attribute.
    pub fn attr(&self, path: &str, name: &str) -> Option<&AttrValue> {
        self.attrs
            .get(path)?
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// All node paths, sorted.
    pub fn paths(&self) -> Vec<&str> {
        self.nodes.keys().map(String::as_str).collect()
    }

    /// Immediate children of a group path ("/" lists roots).
    pub fn children(&self, group: &str) -> Vec<&str> {
        let prefix = if group == "/" {
            "/".to_string()
        } else {
            format!("{group}/")
        };
        self.nodes
            .keys()
            .filter(|p| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
            .map(String::as_str)
            .collect()
    }

    /// Serialize to bytes (chunk payload + footer index, crc-protected).
    pub fn to_bytes(&self) -> Vec<u8> {
        let datasets = || {
            self.nodes.values().filter_map(|node| match node {
                Node::Dataset(ds) => Some(ds),
                Node::Group => None,
            })
        };
        // Header + payload exactly, plus a guess at the index.
        let payload: usize = datasets().map(|ds| ds.data.len()).sum();
        let mut out = Vec::with_capacity(16 + payload + self.nodes.len() * 128);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&0u64.to_le_bytes()); // index offset placeholder

        // Payload: per dataset in path order, per chunk (offset, len, crc).
        let mut locs = Vec::new();
        for chunk in datasets().flat_map(Dataset::chunks) {
            locs.push((out.len() as u64, chunk.len() as u64, crc32c(chunk)));
            out.extend_from_slice(chunk);
        }

        // Index, written where it is stored.
        let index_offset = out.len();
        let mut locs = locs.into_iter();
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for (path, node) in &self.nodes {
            write_str(&mut out, path);
            let attrs = self.attrs.get(path).map(Vec::as_slice).unwrap_or(&[]);
            out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
            for (name, value) in attrs {
                write_str(&mut out, name);
                write_attr(&mut out, value);
            }
            match node {
                Node::Group => out.push(0),
                Node::Dataset(ds) => {
                    out.push(1);
                    out.push(ds.dtype.code());
                    out.extend_from_slice(&(ds.shape.len() as u32).to_le_bytes());
                    for &d in &ds.shape {
                        out.extend_from_slice(&(d as u64).to_le_bytes());
                    }
                    out.extend_from_slice(&(ds.chunk_rows as u64).to_le_bytes());
                    let nchunks = ds.chunk_count();
                    out.extend_from_slice(&(nchunks as u32).to_le_bytes());
                    for (off, len, crc) in locs.by_ref().take(nchunks) {
                        out.extend_from_slice(&off.to_le_bytes());
                        out.extend_from_slice(&len.to_le_bytes());
                        out.extend_from_slice(&crc.to_le_bytes());
                    }
                }
            }
        }
        let index_crc = crc32c(&out[index_offset..]);
        out.extend_from_slice(&index_crc.to_le_bytes());
        out[8..16].copy_from_slice(&(index_offset as u64).to_le_bytes());
        out
    }

    /// Parse from bytes, verifying index and chunk CRCs.
    pub fn from_bytes(bytes: &[u8]) -> Result<H5File, FormatError> {
        if bytes.len() < 20 || &bytes[..8] != MAGIC {
            return Err(malformed("h5lite", "bad magic"));
        }
        let index_offset = u64::from_le_bytes(arr8(&bytes[8..16])) as usize;
        if index_offset + 4 > bytes.len() {
            return Err(malformed("h5lite", "index offset out of range"));
        }
        let idx = &bytes[index_offset..bytes.len() - 4];
        let stored_crc = u32::from_le_bytes(arr4(&bytes[bytes.len() - 4..]));
        if crc32c(idx) != stored_crc {
            return Err(FormatError::ChecksumMismatch {
                format: "h5lite",
                part: "index".to_string(),
            });
        }

        let mut c = Cur { b: idx, p: 0 };
        let count = c.u32()? as usize;
        let mut file = H5File::new();
        for _ in 0..count {
            let path = c.str()?;
            let nattrs = c.u32()? as usize;
            let mut attrs = Vec::with_capacity(nattrs);
            for _ in 0..nattrs {
                let name = c.str()?;
                attrs.push((name, c.attr()?));
            }
            let kind = c.u8()?;
            let node = match kind {
                0 => Node::Group,
                1 => {
                    let dtype = DType::from_code(c.u8()?)
                        .ok_or_else(|| malformed("h5lite", "bad dtype code"))?;
                    let ndims = c.u32()? as usize;
                    let mut shape = Vec::with_capacity(ndims);
                    for _ in 0..ndims {
                        shape.push(c.u64()? as usize);
                    }
                    let chunk_rows = c.u64()? as usize;
                    let nchunks = c.u32()? as usize;
                    let mut data = Vec::new();
                    for ci in 0..nchunks {
                        let off = c.u64()? as usize;
                        let len = c.u64()? as usize;
                        let crc = c.u32()?;
                        let chunk = bytes
                            .get(off..off + len)
                            .ok_or_else(|| malformed("h5lite", "chunk out of range"))?;
                        if crc32c(chunk) != crc {
                            return Err(FormatError::ChecksumMismatch {
                                format: "h5lite",
                                part: format!("{path} chunk {ci}"),
                            });
                        }
                        data.extend_from_slice(chunk);
                    }
                    let elems: usize = shape.iter().product();
                    if data.len() != elems * dtype.size_bytes() {
                        return Err(malformed("h5lite", format!("{path}: data/shape mismatch")));
                    }
                    Node::Dataset(Dataset {
                        dtype,
                        shape,
                        chunk_rows: chunk_rows.max(1),
                        data,
                    })
                }
                k => return Err(malformed("h5lite", format!("node kind {k}"))),
            };
            file.nodes.insert(path.clone(), node);
            if !attrs.is_empty() {
                file.attrs.insert(path, attrs);
            }
        }
        Ok(file)
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_attr(out: &mut Vec<u8>, v: &AttrValue) {
    match v {
        AttrValue::Text(s) => {
            out.push(0);
            write_str(out, s);
        }
        AttrValue::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        AttrValue::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_le_bytes());
        }
        AttrValue::Bytes(b) => {
            out.push(3);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
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
            .ok_or_else(|| malformed("h5lite", "truncated index"))?;
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
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| malformed("h5lite", "non-UTF-8 string"))
    }
    fn attr(&mut self) -> Result<AttrValue, FormatError> {
        Ok(match self.u8()? {
            0 => AttrValue::Text(self.str()?),
            1 => AttrValue::Int(i64::from_le_bytes(arr8(self.take(8)?))),
            2 => AttrValue::Float(f64::from_le_bytes(arr8(self.take(8)?))),
            3 => {
                let n = self.u32()? as usize;
                AttrValue::Bytes(self.take(n)?.to_vec())
            }
            t => return Err(malformed("h5lite", format!("attr type {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> H5File {
        let mut f = H5File::new();
        let vitals = Tensor::from_fn(&[10, 4], |i| i as f32 * 0.5);
        f.put_tensor("/ehr/vitals", &vitals, 4).unwrap();
        let labels = Tensor::from_vec((0..10).collect::<Vec<i64>>(), &[10]).unwrap();
        f.put_tensor("/ehr/labels", &labels, 100).unwrap();
        let onehot = Tensor::from_fn(&[3, 2, 4], |i| (i % 2) as u8);
        f.put_tensor("/genomics/onehot", &onehot, 1).unwrap();
        f.set_attr("/ehr", "anonymized", AttrValue::Int(1)).unwrap();
        f.set_attr("/ehr/vitals", "units", AttrValue::Text("mixed".into()))
            .unwrap();
        f.set_attr("/ehr/vitals", "mean", AttrValue::Float(2.375))
            .unwrap();
        f.set_attr(
            "/genomics/onehot",
            "alphabet",
            AttrValue::Bytes(b"ACGT".to_vec()),
        )
        .unwrap();
        f
    }

    #[test]
    fn round_trip() {
        let f = sample_file();
        let bytes = f.to_bytes();
        let back = H5File::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        let vitals: Tensor<f32> = back.tensor("/ehr/vitals").unwrap();
        assert_eq!(vitals.shape(), &[10, 4]);
        assert_eq!(vitals.get(&[9, 3]).unwrap(), 39.0 * 0.5);
    }

    #[test]
    fn hierarchy_auto_created() {
        let f = sample_file();
        assert!(matches!(f.nodes.get("/ehr"), Some(Node::Group)));
        assert!(matches!(f.nodes.get("/genomics"), Some(Node::Group)));
        let mut roots = f.children("/");
        roots.sort();
        assert_eq!(roots, vec!["/ehr", "/genomics"]);
        let mut kids = f.children("/ehr");
        kids.sort();
        assert_eq!(kids, vec!["/ehr/labels", "/ehr/vitals"]);
    }

    #[test]
    fn attrs_round_trip_and_overwrite() {
        let mut f = sample_file();
        assert_eq!(f.attr("/ehr", "anonymized"), Some(&AttrValue::Int(1)));
        f.set_attr("/ehr", "anonymized", AttrValue::Int(0)).unwrap();
        assert_eq!(f.attr("/ehr", "anonymized"), Some(&AttrValue::Int(0)));
        assert_eq!(f.attr("/ehr", "missing"), None);
        assert!(f.set_attr("/nope", "x", AttrValue::Int(1)).is_err());
        let back = H5File::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(
            back.attr("/genomics/onehot", "alphabet"),
            Some(&AttrValue::Bytes(b"ACGT".to_vec()))
        );
    }

    #[test]
    fn chunked_row_reads() {
        let f = sample_file();
        let ds = f.dataset("/ehr/vitals").unwrap();
        assert_eq!(ds.chunk_count(), 3); // 10 rows / 4 per chunk
        let rows = ds.row_range_bytes(2, 4).unwrap();
        assert_eq!(rows.len(), 2 * 4 * 4);
        let first = f32::from_le_bytes(rows[..4].try_into().unwrap());
        assert_eq!(first, 8.0 * 0.5);
        assert!(ds.row_range_bytes(9, 11).is_err());
    }

    #[test]
    fn corruption_detected() {
        let f = sample_file();
        let mut bytes = f.to_bytes();
        bytes[20] ^= 0xFF; // inside first chunk payload
        assert!(matches!(
            H5File::from_bytes(&bytes),
            Err(FormatError::ChecksumMismatch {
                format: "h5lite",
                ..
            })
        ));
        let mut bytes2 = f.to_bytes();
        let n = bytes2.len();
        bytes2[n - 10] ^= 0xFF; // inside index
        assert!(H5File::from_bytes(&bytes2).is_err());
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_file().to_bytes();
        assert!(H5File::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(H5File::from_bytes(&bytes[..10]).is_err());
        assert!(H5File::from_bytes(b"JUNKJUNKJUNKJUNKJUNK").is_err());
    }

    #[test]
    fn path_validation() {
        let mut f = H5File::new();
        let t = Tensor::<f32>::zeros(&[1]);
        assert!(f.put_tensor("relative", &t, 1).is_err());
        assert!(f.put_tensor("/a//b", &t, 1).is_err());
        assert!(f.put_tensor("/a/", &t, 1).is_err());
        assert!(f.put_tensor("/a/../b", &t, 1).is_err());
        f.put_tensor("/a/b", &t, 1).unwrap();
        // Dataset cannot be a parent.
        assert!(f.put_tensor("/a/b/c", &t, 1).is_err());
        // Group/dataset collision.
        assert!(f.create_group("/a/b").is_err());
        f.create_group("/g").unwrap();
        assert!(f.put_tensor("/g", &t, 1).is_err());
    }

    #[test]
    fn dtype_mismatch_on_read() {
        let f = sample_file();
        assert!(f.tensor::<f64>("/ehr/vitals").is_err());
        assert!(f.tensor::<f32>("/missing").is_err());
    }

    #[test]
    fn empty_file_round_trip() {
        let f = H5File::new();
        let back = H5File::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
    }

    /// Rows of no bytes: nothing to slice by row, one empty chunk.
    #[test]
    fn zero_width_dataset() {
        let mut f = H5File::new();
        f.put_tensor("/empty", &Tensor::<f32>::zeros(&[3, 0]), 2)
            .unwrap();
        let back = H5File::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.tensor::<f32>("/empty").unwrap().shape(), &[3, 0]);
    }

    #[test]
    fn zero_row_dataset() {
        let mut f = H5File::new();
        let t = Tensor::<f64>::zeros(&[0, 5]);
        f.put_tensor("/empty", &t, 8).unwrap();
        let back = H5File::from_bytes(&f.to_bytes()).unwrap();
        let r: Tensor<f64> = back.tensor("/empty").unwrap();
        assert_eq!(r.shape(), &[0, 5]);
    }
}
