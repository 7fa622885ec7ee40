//! NetCDF-3 "classic" (CDF-1) files, written and parsed from scratch.
//!
//! NetCDF is the lingua franca of climate data (CMIP6, ERA5): a
//! self-describing container of named dimensions, attributes, and typed
//! n-dimensional variables. This module implements the classic CDF-1
//! binary layout per the published spec:
//!
//! ```text
//! "CDF\x01"  magic
//! numrecs    u32be (number of records along the unlimited dimension)
//! dim_list   NC_DIMENSION(0x0A) + [name, length]...   (length 0 = record dim)
//! gatt_list  NC_ATTRIBUTE(0x0C) + [name, nc_type, n, values]...
//! var_list   NC_VARIABLE(0x0B)  + [name, dimids, vatts, nc_type, vsize, begin]...
//! data       fixed-size variables, then record variables interleaved
//!            record-by-record; every block padded to 4 bytes
//! ```
//!
//! All integers and floats are **big-endian**. Names and values are padded
//! to 4-byte boundaries with zeros. The subset implemented: all six classic
//! types, one optional unlimited (record) dimension, global and per-variable
//! attributes. Not implemented (rejected on read): CDF-2/CDF-5 offsets,
//! fill-value defaulting beyond explicit data.
//!
//! Writing and reading mirror each other over the data section: a
//! variable's values are slabs (one for a fixed variable or an attribute,
//! one per record for a record variable, the other record variables'
//! slabs in between). [`NcFile::to_bytes`] sizes the file from the header
//! and writes each value big-endian once, straight into its slab;
//! [`NcFile::from_bytes`] converts each value once, from its slab into
//! its place in the output.

use crate::bytes::{arr, arr4};
use crate::{malformed, unsupported, FormatError};

const MAGIC: &[u8; 4] = b"CDF\x01";
const TAG_DIMENSION: u32 = 0x0A;
const TAG_VARIABLE: u32 = 0x0B;
const TAG_ATTRIBUTE: u32 = 0x0C;
const TAG_ABSENT: u32 = 0x00;

/// Classic NetCDF external types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NcType {
    /// 8-bit signed (NC_BYTE).
    Byte,
    /// 8-bit character (NC_CHAR).
    Char,
    /// 16-bit signed big-endian (NC_SHORT).
    Short,
    /// 32-bit signed big-endian (NC_INT).
    Int,
    /// 32-bit IEEE float big-endian (NC_FLOAT).
    Float,
    /// 64-bit IEEE float big-endian (NC_DOUBLE).
    Double,
}

impl NcType {
    const fn code(self) -> u32 {
        match self {
            NcType::Byte => 1,
            NcType::Char => 2,
            NcType::Short => 3,
            NcType::Int => 4,
            NcType::Float => 5,
            NcType::Double => 6,
        }
    }

    fn from_code(code: u32) -> Result<NcType, FormatError> {
        Ok(match code {
            1 => NcType::Byte,
            2 => NcType::Char,
            3 => NcType::Short,
            4 => NcType::Int,
            5 => NcType::Float,
            6 => NcType::Double,
            other => return Err(malformed("netcdf", format!("nc_type {other}"))),
        })
    }

    /// External size in bytes.
    pub(crate) const fn size(self) -> usize {
        match self {
            NcType::Byte | NcType::Char => 1,
            NcType::Short => 2,
            NcType::Int | NcType::Float => 4,
            NcType::Double => 8,
        }
    }
}

/// Typed attribute or variable payload (host representation).
#[derive(Debug, Clone, PartialEq)]
pub enum NcValues {
    /// NC_BYTE.
    Byte(Vec<i8>),
    /// NC_CHAR (text).
    Char(String),
    /// NC_SHORT.
    Short(Vec<i16>),
    /// NC_INT.
    Int(Vec<i32>),
    /// NC_FLOAT.
    Float(Vec<f32>),
    /// NC_DOUBLE.
    Double(Vec<f64>),
}

impl NcValues {
    /// The external type of this payload.
    pub(crate) fn nc_type(&self) -> NcType {
        match self {
            NcValues::Byte(_) => NcType::Byte,
            NcValues::Char(_) => NcType::Char,
            NcValues::Short(_) => NcType::Short,
            NcValues::Int(_) => NcType::Int,
            NcValues::Float(_) => NcType::Float,
            NcValues::Double(_) => NcType::Double,
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        match self {
            NcValues::Byte(v) => v.len(),
            NcValues::Char(s) => s.len(),
            NcValues::Short(v) => v.len(),
            NcValues::Int(v) => v.len(),
            NcValues::Float(v) => v.len(),
            NcValues::Double(v) => v.len(),
        }
    }

    /// Elements as f64 (chars become code points) — convenient for
    /// normalization statistics over any variable.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            NcValues::Byte(v) => v.iter().map(|&x| x as f64).collect(),
            NcValues::Char(s) => s.bytes().map(|b| b as f64).collect(),
            NcValues::Short(v) => v.iter().map(|&x| x as f64).collect(),
            NcValues::Int(v) => v.iter().map(|&x| x as f64).collect(),
            NcValues::Float(v) => v.iter().map(|&x| x as f64).collect(),
            NcValues::Double(v) => v.clone(),
        }
    }

    /// [`to_f64_vec`](Self::to_f64_vec) for an owner: doubles are moved,
    /// not copied.
    pub fn into_f64_vec(self) -> Vec<f64> {
        match self {
            NcValues::Double(v) => v,
            other => other.to_f64_vec(),
        }
    }

    /// Encode the values big-endian as slabs of `slab` values each, slab
    /// `r` starting at `begin + r * stride` in `out` — the mirror of
    /// [`read_be`](Self::read_be): a fixed variable or an attribute is
    /// one slab, a record variable one slab per record with the other
    /// record variables' slabs in between. Each value is converted once,
    /// straight into its place.
    fn write_be(&self, out: &mut [u8], begin: usize, stride: usize, slab: usize) {
        let to = SlabsMut {
            bytes: out,
            begin,
            stride,
            slab,
        };
        match self {
            NcValues::Byte(v) => to.encode(v, i8::to_be_bytes),
            NcValues::Char(s) => to.encode(s.as_bytes(), u8::to_be_bytes),
            NcValues::Short(v) => to.encode(v, i16::to_be_bytes),
            NcValues::Int(v) => to.encode(v, i32::to_be_bytes),
            NcValues::Float(v) => to.encode(v, f32::to_be_bytes),
            NcValues::Double(v) => to.encode(v, f64::to_be_bytes),
        }
    }

    /// Decode `count` slabs of `slab` big-endian values each, slab `r`
    /// starting at `begin + r * stride` in `bytes`: a fixed variable or an
    /// attribute is one slab, a record variable one slab per record with
    /// the other record variables' slabs in between (so `stride` is at
    /// least a slab's bytes). The last slab is checked to end inside
    /// `bytes` before anything is reserved: a hostile header can make
    /// this allocate no more than the bytes it came with. Each value is
    /// then converted once, into its place in the output.
    fn read_be(
        typ: NcType,
        bytes: &[u8],
        begin: usize,
        count: usize,
        stride: usize,
        slab: usize,
    ) -> Result<NcValues, FormatError> {
        if let Some(last) = count.checked_sub(1) {
            let end = slab
                .checked_mul(typ.size())
                .and_then(|slab_bytes| last.checked_mul(stride)?.checked_add(slab_bytes))
                .and_then(|span| span.checked_add(begin));
            if end.is_none_or(|end| end > bytes.len()) {
                return Err(malformed("netcdf", "truncated values"));
            }
        }
        let slabs = Slabs {
            bytes,
            begin,
            count,
            stride,
            slab,
        };
        Ok(match typ {
            NcType::Byte => NcValues::Byte(slabs.decode(i8::from_be_bytes)),
            NcType::Char => NcValues::Char(
                String::from_utf8(slabs.decode(u8::from_be_bytes))
                    .map_err(|_| malformed("netcdf", "non-UTF-8 char data"))?,
            ),
            NcType::Short => NcValues::Short(slabs.decode(i16::from_be_bytes)),
            NcType::Int => NcValues::Int(slabs.decode(i32::from_be_bytes)),
            NcType::Float => NcValues::Float(slabs.decode(f32::from_be_bytes)),
            NcType::Double => NcValues::Double(slabs.decode(f64::from_be_bytes)),
        })
    }
}

/// Slabs of big-endian values that [`NcValues::read_be`] has checked to
/// lie inside `bytes`.
struct Slabs<'a> {
    bytes: &'a [u8],
    begin: usize,
    count: usize,
    stride: usize,
    slab: usize,
}

impl Slabs<'_> {
    /// All values in slab order. The output is reserved once and each
    /// slab appended from an exact-size iterator, which compiles to a
    /// byte swap per value with no capacity check in the loop.
    fn decode<T, const N: usize>(&self, from_be: impl Fn([u8; N]) -> T + Copy) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count * self.slab);
        for r in 0..self.count {
            let at = self.begin + r * self.stride;
            let raw = &self.bytes[at..at + self.slab * N];
            out.extend(raw.chunks_exact(N).map(|be| from_be(arr(be))));
        }
        out
    }
}

/// Where [`NcValues::write_be`] puts slabs of values in a file being
/// written: slab `r` at `begin + r * stride`, `slab` values each.
struct SlabsMut<'a> {
    bytes: &'a mut [u8],
    begin: usize,
    stride: usize,
    slab: usize,
}

impl SlabsMut<'_> {
    /// Write `values` slab after slab, each value's bytes stored once
    /// into its `N`-byte cell of the output.
    fn encode<T: Copy, const N: usize>(self, values: &[T], to_be: impl Fn(T) -> [u8; N]) {
        for (r, slab) in values.chunks(self.slab.max(1)).enumerate() {
            let at = self.begin + r * self.stride;
            let cells = self.bytes[at..at + slab.len() * N].chunks_exact_mut(N);
            for (cell, &x) in cells.zip(slab) {
                cell.copy_from_slice(&to_be(x));
            }
        }
    }
}

/// A named dimension. `size == 0` in the file marks the record dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NcDim {
    /// Dimension name.
    pub name: String,
    /// Length (for the record dimension, the *current* record count).
    pub size: usize,
    /// True for the unlimited dimension.
    pub is_record: bool,
}

/// A named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct NcAttr {
    /// Attribute name.
    pub name: String,
    /// Attribute payload.
    pub values: NcValues,
}

/// A variable: name, dimension ids (indices into [`NcFile::dims`]),
/// attributes, and data.
#[derive(Debug, Clone, PartialEq)]
pub struct NcVar {
    /// Variable name.
    pub name: String,
    /// Dimension indices, outermost first. A variable whose first dim is
    /// the record dimension is a record variable.
    pub dims: Vec<usize>,
    /// Per-variable attributes.
    pub attrs: Vec<NcAttr>,
    /// Row-major data (record dim outermost, complete over all records).
    pub data: NcValues,
}

/// An in-memory NetCDF-3 dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NcFile {
    /// All dimensions (at most one record dimension).
    pub dims: Vec<NcDim>,
    /// Global attributes.
    pub global_attrs: Vec<NcAttr>,
    /// Variables.
    pub vars: Vec<NcVar>,
}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

fn write_padded(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(bytes);
    out.resize(out.len() + (pad4(bytes.len()) - bytes.len()), 0);
}

fn write_name(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u32).to_be_bytes());
    write_padded(out, name.as_bytes());
}

fn write_attrs(out: &mut Vec<u8>, attrs: &[NcAttr]) {
    if attrs.is_empty() {
        out.extend_from_slice(&TAG_ABSENT.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes());
        return;
    }
    out.extend_from_slice(&TAG_ATTRIBUTE.to_be_bytes());
    out.extend_from_slice(&(attrs.len() as u32).to_be_bytes());
    for a in attrs {
        write_name(out, &a.name);
        out.extend_from_slice(&a.values.nc_type().code().to_be_bytes());
        out.extend_from_slice(&(a.values.len() as u32).to_be_bytes());
        let (at, n) = (out.len(), a.values.len());
        out.resize(at + pad4(n * a.values.nc_type().size()), 0);
        a.values.write_be(out, at, 0, n);
    }
}

impl NcFile {
    /// Index of the record dimension, if any.
    pub(crate) fn record_dim(&self) -> Option<usize> {
        self.dims.iter().position(|d| d.is_record)
    }

    /// Number of records (length of the record dimension; 0 if none).
    pub fn num_records(&self) -> usize {
        self.record_dim().map(|i| self.dims[i].size).unwrap_or(0)
    }

    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Option<&NcVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Shape of a variable (dimension lengths, record dim included at its
    /// current length).
    pub(crate) fn var_shape(&self, var: &NcVar) -> Vec<usize> {
        var.dims.iter().map(|&d| self.dims[d].size).collect()
    }

    /// Per-record element count of a variable (product of non-record dims).
    fn record_slab_elems(&self, var: &NcVar) -> usize {
        var.dims
            .iter()
            .filter(|&&d| !self.dims[d].is_record)
            .map(|&d| self.dims[d].size)
            .product()
    }

    fn is_record_var(&self, var: &NcVar) -> bool {
        var.dims
            .first()
            .map(|&d| self.dims[d].is_record)
            .unwrap_or(false)
    }

    /// Validate internal consistency (dim ids in range, data sizes match
    /// shapes, at most one record dim, record dim only first).
    pub fn validate(&self) -> Result<(), FormatError> {
        let rec_count = self.dims.iter().filter(|d| d.is_record).count();
        if rec_count > 1 {
            return Err(malformed("netcdf", "more than one record dimension"));
        }
        for v in &self.vars {
            for (pos, &d) in v.dims.iter().enumerate() {
                if d >= self.dims.len() {
                    return Err(malformed("netcdf", format!("{}: bad dim id {d}", v.name)));
                }
                if self.dims[d].is_record && pos != 0 {
                    return Err(malformed(
                        "netcdf",
                        format!("{}: record dim must be outermost", v.name),
                    ));
                }
            }
            let expect: usize = self.var_shape(v).iter().product();
            if v.data.len() != expect {
                return Err(malformed(
                    "netcdf",
                    format!(
                        "{}: data has {} elems, shape wants {expect}",
                        v.name,
                        v.data.len()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Serialize to CDF-1 bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, FormatError> {
        self.validate()?;
        let numrecs = self.num_records();

        // --- Compute per-variable vsize and begin offsets. ---
        // Header size must be known first; assemble header with placeholder
        // begins, then patch (begins are u32be at known offsets in CDF-1).
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&(numrecs as u32).to_be_bytes());

        // dim_list
        if self.dims.is_empty() {
            header.extend_from_slice(&TAG_ABSENT.to_be_bytes());
            header.extend_from_slice(&0u32.to_be_bytes());
        } else {
            header.extend_from_slice(&TAG_DIMENSION.to_be_bytes());
            header.extend_from_slice(&(self.dims.len() as u32).to_be_bytes());
            for d in &self.dims {
                write_name(&mut header, &d.name);
                let stored = if d.is_record { 0 } else { d.size as u32 };
                header.extend_from_slice(&stored.to_be_bytes());
            }
        }

        // gatt_list
        write_attrs(&mut header, &self.global_attrs);

        // var_list with begin placeholders.
        let mut begin_patches = Vec::new(); // (header offset, var index)
        if self.vars.is_empty() {
            header.extend_from_slice(&TAG_ABSENT.to_be_bytes());
            header.extend_from_slice(&0u32.to_be_bytes());
        } else {
            header.extend_from_slice(&TAG_VARIABLE.to_be_bytes());
            header.extend_from_slice(&(self.vars.len() as u32).to_be_bytes());
            for (vi, v) in self.vars.iter().enumerate() {
                write_name(&mut header, &v.name);
                header.extend_from_slice(&(v.dims.len() as u32).to_be_bytes());
                for &d in &v.dims {
                    header.extend_from_slice(&(d as u32).to_be_bytes());
                }
                write_attrs(&mut header, &v.attrs);
                header.extend_from_slice(&v.data.nc_type().code().to_be_bytes());
                let vsize = self.vsize(v);
                header.extend_from_slice(&(vsize as u32).to_be_bytes());
                begin_patches.push((header.len(), vi));
                header.extend_from_slice(&0u32.to_be_bytes()); // begin
            }
        }

        // --- Lay out data: fixed vars first, then the record section. ---
        let header_len = header.len();
        let mut begins = vec![0usize; self.vars.len()];
        let mut offset = header_len;
        for (vi, v) in self.vars.iter().enumerate() {
            if !self.is_record_var(v) {
                begins[vi] = offset;
                offset += self.vsize(v);
            }
        }
        let record_section = offset;
        let mut rec_off = record_section;
        for (vi, v) in self.vars.iter().enumerate() {
            if self.is_record_var(v) {
                begins[vi] = rec_off;
                rec_off += self.vsize(v); // vsize of a record var = one record slab
            }
        }
        let record_stride: usize = self
            .vars
            .iter()
            .filter(|v| self.is_record_var(v))
            .map(|v| self.vsize(v))
            .sum();

        for (patch_at, vi) in &begin_patches {
            let begin = u32::try_from(begins[*vi])
                .map_err(|_| unsupported("netcdf", "file exceeds CDF-1 2 GiB offsets"))?;
            header[*patch_at..*patch_at + 4].copy_from_slice(&begin.to_be_bytes());
        }

        // --- Emit data: each value once, into its slab. ---
        let total = record_section + record_stride * numrecs;
        let mut out = header;
        out.resize(total, 0);
        for (vi, v) in self.vars.iter().enumerate() {
            // A fixed variable is one slab of all its values.
            v.data.write_be(
                &mut out,
                begins[vi],
                record_stride,
                self.record_slab_elems(v),
            );
        }
        Ok(out)
    }

    /// vsize per spec: external size of one "chunk" (whole var for fixed
    /// vars, one record slab for record vars), rounded up to 4 bytes.
    fn vsize(&self, v: &NcVar) -> usize {
        pad4(self.record_slab_elems(v) * v.data.nc_type().size())
    }

    /// Parse CDF-1 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<NcFile, FormatError> {
        let mut p = Cursor { bytes, pos: 0 };
        let magic = p.take(4)?;
        if &magic[..3] != b"CDF" {
            return Err(malformed("netcdf", "bad magic"));
        }
        match magic[3] {
            1 => {}
            2 | 5 => return Err(unsupported("netcdf", format!("CDF-{} offsets", magic[3]))),
            v => return Err(malformed("netcdf", format!("version byte {v}"))),
        }
        let numrecs = p.u32()? as usize;

        // dims
        let (tag, n) = (p.u32()?, p.u32()? as usize);
        let mut dims = Vec::with_capacity(p.backed(n, 8)?);
        if tag == TAG_DIMENSION {
            for _ in 0..n {
                let name = p.name()?;
                let size = p.u32()? as usize;
                dims.push(NcDim {
                    name,
                    size: if size == 0 { numrecs } else { size },
                    is_record: size == 0,
                });
            }
        } else if tag != TAG_ABSENT || n != 0 {
            return Err(malformed("netcdf", "bad dim_list tag"));
        }

        let global_attrs = p.attrs()?;

        // vars
        let (tag, n) = (p.u32()?, p.u32()? as usize);
        struct RawVar {
            name: String,
            dims: Vec<usize>,
            attrs: Vec<NcAttr>,
            typ: NcType,
            begin: usize,
        }
        let mut raw_vars = Vec::with_capacity(p.backed(n, 28)?);
        if tag == TAG_VARIABLE {
            for _ in 0..n {
                let name = p.name()?;
                let ndims = p.u32()? as usize;
                let mut vdims = Vec::with_capacity(p.backed(ndims, 4)?);
                for _ in 0..ndims {
                    let d = p.u32()? as usize;
                    if d >= dims.len() {
                        return Err(malformed("netcdf", format!("{name}: dim id {d}")));
                    }
                    vdims.push(d);
                }
                let attrs = p.attrs()?;
                let typ = NcType::from_code(p.u32()?)?;
                let _vsize = p.u32()?;
                let begin = p.u32()? as usize;
                raw_vars.push(RawVar {
                    name,
                    dims: vdims,
                    attrs,
                    typ,
                    begin,
                });
            }
        } else if tag != TAG_ABSENT || n != 0 {
            return Err(malformed("netcdf", "bad var_list tag"));
        }

        // Values per record slab (per variable, for a fixed one) and the
        // record stride = sum of record-var vsizes, from header fields
        // that may be hostile: sizes that overflow describe no file.
        let too_large = || malformed("netcdf", "variable sizes overflow");
        let is_rec = |v: &RawVar| v.dims.first().map(|&d| dims[d].is_record).unwrap_or(false);
        let slab_elems = |v: &RawVar| {
            v.dims
                .iter()
                .filter(|&&d| !dims[d].is_record)
                .try_fold(1usize, |n, &d| n.checked_mul(dims[d].size))
                .ok_or_else(too_large)
        };
        let mut record_stride = 0usize;
        for v in raw_vars.iter().filter(|v| is_rec(v)) {
            record_stride = slab_elems(v)?
                .checked_mul(v.typ.size())
                .and_then(|slab_bytes| slab_bytes.checked_next_multiple_of(4))
                .and_then(|vsize| record_stride.checked_add(vsize))
                .ok_or_else(too_large)?;
        }

        let mut vars = Vec::with_capacity(raw_vars.len());
        for v in raw_vars {
            let (count, stride) = if is_rec(&v) {
                (numrecs, record_stride)
            } else {
                (1, 0)
            };
            let data = NcValues::read_be(v.typ, bytes, v.begin, count, stride, slab_elems(&v)?)?;
            vars.push(NcVar {
                name: v.name,
                dims: v.dims,
                attrs: v.attrs,
                data,
            });
        }

        let file = NcFile {
            dims,
            global_attrs,
            vars,
        };
        file.validate()?;
        Ok(file)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| malformed("netcdf", "truncated header"))?;
        self.pos += n;
        Ok(s)
    }

    /// `n`, once the bytes left are seen to hold `n` list entries of at
    /// least `min_entry_bytes` each — what a count read from the header
    /// must pass before a `Vec` is reserved for it.
    fn backed(&self, n: usize, min_entry_bytes: usize) -> Result<usize, FormatError> {
        if n > (self.bytes.len() - self.pos) / min_entry_bytes {
            return Err(malformed("netcdf", "truncated header"));
        }
        Ok(n)
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_be_bytes(arr4(self.take(4)?)))
    }

    fn name(&mut self) -> Result<String, FormatError> {
        let len = self.u32()? as usize;
        let raw = self.take(pad4(len))?;
        std::str::from_utf8(&raw[..len])
            .map(str::to_string)
            .map_err(|_| malformed("netcdf", "non-UTF-8 name"))
    }

    fn attrs(&mut self) -> Result<Vec<NcAttr>, FormatError> {
        let tag = self.u32()?;
        let n = self.u32()? as usize;
        if tag == TAG_ABSENT {
            if n != 0 {
                return Err(malformed("netcdf", "ABSENT with nonzero count"));
            }
            return Ok(Vec::new());
        }
        if tag != TAG_ATTRIBUTE {
            return Err(malformed("netcdf", "bad att_list tag"));
        }
        let mut out = Vec::with_capacity(self.backed(n, 12)?);
        for _ in 0..n {
            let name = self.name()?;
            let typ = NcType::from_code(self.u32()?)?;
            let count = self.u32()? as usize;
            let raw = self.take(pad4(count * typ.size()))?;
            out.push(NcAttr {
                name,
                values: NcValues::read_be(typ, raw, 0, 1, 0, count)?,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn climate_like_file() -> NcFile {
        // time(record) x lat(2) x lon(3) temperature + fixed coords.
        let nlat = 2;
        let nlon = 3;
        let nt = 4;
        NcFile {
            dims: vec![
                NcDim {
                    name: "time".into(),
                    size: nt,
                    is_record: true,
                },
                NcDim {
                    name: "lat".into(),
                    size: nlat,
                    is_record: false,
                },
                NcDim {
                    name: "lon".into(),
                    size: nlon,
                    is_record: false,
                },
            ],
            global_attrs: vec![
                NcAttr {
                    name: "title".into(),
                    values: NcValues::Char("synthetic CMIP-like output".into()),
                },
                NcAttr {
                    name: "realization".into(),
                    values: NcValues::Int(vec![1]),
                },
            ],
            vars: vec![
                NcVar {
                    name: "lat".into(),
                    dims: vec![1],
                    attrs: vec![NcAttr {
                        name: "units".into(),
                        values: NcValues::Char("degrees_north".into()),
                    }],
                    data: NcValues::Double(vec![-45.0, 45.0]),
                },
                NcVar {
                    name: "lon".into(),
                    dims: vec![2],
                    attrs: vec![],
                    data: NcValues::Double(vec![60.0, 180.0, 300.0]),
                },
                NcVar {
                    name: "tas".into(),
                    dims: vec![0, 1, 2],
                    attrs: vec![NcAttr {
                        name: "units".into(),
                        values: NcValues::Char("K".into()),
                    }],
                    data: NcValues::Float(
                        (0..nt * nlat * nlon).map(|i| 250.0 + i as f32).collect(),
                    ),
                },
                NcVar {
                    name: "time".into(),
                    dims: vec![0],
                    attrs: vec![],
                    data: NcValues::Double(vec![0.0, 6.0, 12.0, 18.0]),
                },
            ],
        }
    }

    #[test]
    fn round_trip_with_record_dim() {
        let f = climate_like_file();
        let bytes = f.to_bytes().unwrap();
        let back = NcFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn header_bytes_follow_spec() {
        let f = climate_like_file();
        let bytes = f.to_bytes().unwrap();
        assert_eq!(&bytes[..4], b"CDF\x01");
        // numrecs = 4
        assert_eq!(&bytes[4..8], &4u32.to_be_bytes());
        // dim_list tag.
        assert_eq!(&bytes[8..12], &TAG_DIMENSION.to_be_bytes());
        assert_eq!(&bytes[12..16], &3u32.to_be_bytes());
        // First dim name "time": length 4, then padded name.
        assert_eq!(&bytes[16..20], &4u32.to_be_bytes());
        assert_eq!(&bytes[20..24], b"time");
        // Record dim stored as 0.
        assert_eq!(&bytes[24..28], &0u32.to_be_bytes());
    }

    #[test]
    fn fixed_only_file() {
        let f = NcFile {
            dims: vec![NcDim {
                name: "x".into(),
                size: 5,
                is_record: false,
            }],
            global_attrs: vec![],
            vars: vec![NcVar {
                name: "v".into(),
                dims: vec![0],
                attrs: vec![],
                data: NcValues::Short(vec![1, -2, 3, -4, 5]),
            }],
        };
        let back = NcFile::from_bytes(&f.to_bytes().unwrap()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.num_records(), 0);
    }

    #[test]
    fn empty_file() {
        let f = NcFile::default();
        let bytes = f.to_bytes().unwrap();
        let back = NcFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn multiple_record_vars_interleave() {
        // Two record variables: reader must de-interleave correctly.
        let f = NcFile {
            dims: vec![
                NcDim {
                    name: "t".into(),
                    size: 3,
                    is_record: true,
                },
                NcDim {
                    name: "x".into(),
                    size: 2,
                    is_record: false,
                },
            ],
            global_attrs: vec![],
            vars: vec![
                NcVar {
                    name: "a".into(),
                    dims: vec![0, 1],
                    attrs: vec![],
                    data: NcValues::Int((0..6).collect()),
                },
                NcVar {
                    name: "b".into(),
                    dims: vec![0],
                    attrs: vec![],
                    data: NcValues::Double(vec![10.0, 20.0, 30.0]),
                },
            ],
        };
        let bytes = f.to_bytes().unwrap();
        let back = NcFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(
            back.var("b").unwrap().data,
            NcValues::Double(vec![10.0, 20.0, 30.0])
        );
    }

    /// Six record variables, one of every type, with slab sizes that need
    /// padding: the decoder must pick each variable's slab out of every
    /// record, whatever lies between, for any number of records.
    #[test]
    fn interleaved_record_vars_of_every_type_round_trip() {
        for nt in [0usize, 1, 2, 7] {
            let dims = vec![
                NcDim {
                    name: "t".into(),
                    size: nt,
                    is_record: true,
                },
                NcDim {
                    name: "x".into(),
                    size: 3,
                    is_record: false,
                },
                NcDim {
                    name: "y".into(),
                    size: 5,
                    is_record: false,
                },
            ];
            let var = |name: &str, dims: &[usize], data: NcValues| NcVar {
                name: name.into(),
                dims: dims.to_vec(),
                attrs: vec![],
                data,
            };
            let n = nt * 15;
            let f = NcFile {
                dims,
                global_attrs: vec![],
                vars: vec![
                    var(
                        "d",
                        &[0, 1, 2],
                        NcValues::Double((0..n).map(|i| i as f64 * -1.5).collect()),
                    ),
                    var(
                        "b",
                        &[0, 1],
                        NcValues::Byte((0..nt * 3).map(|i| i as i8 - 9).collect()),
                    ),
                    var("fixed", &[2], NcValues::Short(vec![-1, 2, -3, 4, -5])),
                    var(
                        "f",
                        &[0, 2],
                        NcValues::Float((0..nt * 5).map(|i| i as f32 + 0.25).collect()),
                    ),
                    var(
                        "s",
                        &[0, 1],
                        NcValues::Short((0..nt * 3).map(|i| i as i16 * -300).collect()),
                    ),
                    var("c", &[0, 2], NcValues::Char("abcde".repeat(nt))),
                    var(
                        "i",
                        &[0],
                        NcValues::Int((0..nt).map(|i| i as i32 - 2).collect()),
                    ),
                ],
            };
            let bytes = f.to_bytes().unwrap();
            assert_eq!(NcFile::from_bytes(&bytes).unwrap(), f, "{nt} records");
            // One byte short of the last record is a truncation, not a
            // shorter variable.
            if nt > 0 {
                assert!(NcFile::from_bytes(&bytes[..bytes.len() - 1]).is_err());
            }
        }
    }

    #[test]
    fn into_f64_vec_equals_to_f64_vec() {
        for values in [
            NcValues::Byte(vec![-1, 2]),
            NcValues::Char("az".into()),
            NcValues::Short(vec![-300, 7]),
            NcValues::Int(vec![1 << 20, -5]),
            NcValues::Float(vec![1.5, -0.25]),
            NcValues::Double(vec![1e300, -2.5]),
        ] {
            assert_eq!(values.clone().into_f64_vec(), values.to_f64_vec());
        }
    }

    #[test]
    fn byte_and_char_padding() {
        // 5 bytes of NC_BYTE must be padded to 8 in the file.
        let f = NcFile {
            dims: vec![NcDim {
                name: "n".into(),
                size: 5,
                is_record: false,
            }],
            global_attrs: vec![NcAttr {
                name: "note".into(),
                values: NcValues::Char("abc".into()), // padded to 4
            }],
            vars: vec![NcVar {
                name: "flags".into(),
                dims: vec![0],
                attrs: vec![],
                data: NcValues::Byte(vec![-1, 2, -3, 4, -5]),
            }],
        };
        let back = NcFile::from_bytes(&f.to_bytes().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut f = climate_like_file();
        f.vars[2].data = NcValues::Float(vec![1.0; 5]); // wrong size
        assert!(f.to_bytes().is_err());

        let mut g = climate_like_file();
        g.vars[2].dims = vec![1, 0, 2]; // record dim not outermost
        assert!(g.to_bytes().is_err());
    }

    #[test]
    fn cdf2_rejected() {
        let mut bytes = climate_like_file().to_bytes().unwrap();
        bytes[3] = 2;
        assert!(matches!(
            NcFile::from_bytes(&bytes),
            Err(FormatError::Unsupported { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = climate_like_file().to_bytes().unwrap();
        assert!(NcFile::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(NcFile::from_bytes(&bytes[..10]).is_err());
        assert!(NcFile::from_bytes(b"JUNK").is_err());
    }

    #[test]
    fn accessors() {
        let f = climate_like_file();
        assert_eq!(f.record_dim(), Some(0));
        assert_eq!(f.num_records(), 4);
        let tas = f.var("tas").unwrap();
        assert_eq!(f.var_shape(tas), vec![4, 2, 3]);
        assert!(f.var("nope").is_none());
        assert_eq!(tas.data.to_f64_vec()[0], 250.0);
    }
}
