//! Element types supported by DRAI tensors and on-disk formats.
//!
//! Scientific AI pipelines care about precision (the paper cites 32/64-bit
//! floating point as a hard requirement for physics-constrained models), so
//! the dtype travels with every dataset manifest and every serialized shard.

use std::fmt;

/// Runtime tag describing the element type of a tensor or stored variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned byte (images, one-hot codes, raw payloads).
    U8,
    /// Boolean stored as one byte.
    Bool,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
            DType::U8 | DType::Bool => 1,
        }
    }

    /// NumPy-style descriptor string (little endian), as used by the NPY
    /// header writer in `drai-formats`.
    pub const fn numpy_descr(self) -> &'static str {
        match self {
            DType::F32 => "<f4",
            DType::F64 => "<f8",
            DType::I32 => "<i4",
            DType::I64 => "<i8",
            DType::U8 => "|u1",
            DType::Bool => "|b1",
        }
    }

    /// Parse a NumPy descriptor string.
    pub fn from_numpy_descr(s: &str) -> Option<DType> {
        match s {
            "<f4" | "=f4" => Some(DType::F32),
            "<f8" | "=f8" => Some(DType::F64),
            "<i4" | "=i4" => Some(DType::I32),
            "<i8" | "=i8" => Some(DType::I64),
            "|u1" | "<u1" => Some(DType::U8),
            "|b1" => Some(DType::Bool),
            _ => None,
        }
    }

    /// Stable one-byte code used by drai's own binary containers
    /// (`h5lite`, `bp`).
    pub const fn code(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I32 => 2,
            DType::I64 => 3,
            DType::U8 => 4,
            DType::Bool => 5,
        }
    }

    /// Inverse of [`DType::code`].
    pub fn from_code(c: u8) -> Option<DType> {
        Some(match c {
            0 => DType::F32,
            1 => DType::F64,
            2 => DType::I32,
            3 => DType::I64,
            4 => DType::U8,
            5 => DType::Bool,
            _ => return None,
        })
    }

    /// Parse the `Display` form (`f32`, `u8`, ...), as manifests store it.
    pub fn from_name(s: &str) -> Option<DType> {
        Some(match s {
            "f32" => DType::F32,
            "f64" => DType::F64,
            "i32" => DType::I32,
            "i64" => DType::I64,
            "u8" => DType::U8,
            "bool" => DType::Bool,
            _ => return None,
        })
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::U8 => "u8",
            DType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// Trait connecting Rust element types to their runtime [`DType`] tag and
/// little-endian byte serialization. Implemented only for the closed set of
/// supported types (sealed by convention).
pub trait Element: Copy + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Runtime dtype tag for this element type.
    const DTYPE: DType;
    /// Additive identity.
    fn zero() -> Self;
    /// Convert to f64 for statistics (lossy for i64 beyond 2^53).
    fn to_f64(self) -> f64;
    /// Convert from f64 (saturating/rounding as appropriate).
    fn from_f64(v: f64) -> Self;
    /// Write the little-endian byte representation into `out`, which is
    /// exactly `DTYPE.size_bytes()` long.
    fn write_le(self, out: &mut [u8]);
    /// Read one element from a little-endian byte slice.
    /// `bytes.len()` must be at least `DTYPE.size_bytes()`.
    fn read_le(bytes: &[u8]) -> Self;
}

impl Element for f32 {
    const DTYPE: DType = DType::F32;
    fn zero() -> Self {
        0.0
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes[..4].try_into().expect("f32 needs 4 bytes"))
    }
}

impl Element for f64 {
    const DTYPE: DType = DType::F64;
    fn zero() -> Self {
        0.0
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes[..8].try_into().expect("f64 needs 8 bytes"))
    }
}

impl Element for i32 {
    const DTYPE: DType = DType::I32;
    fn zero() -> Self {
        0
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v.round() as i32
    }
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        i32::from_le_bytes(bytes[..4].try_into().expect("i32 needs 4 bytes"))
    }
}

impl Element for i64 {
    const DTYPE: DType = DType::I64;
    fn zero() -> Self {
        0
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v.round() as i64
    }
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        i64::from_le_bytes(bytes[..8].try_into().expect("i64 needs 8 bytes"))
    }
}

impl Element for u8 {
    const DTYPE: DType = DType::U8;
    fn zero() -> Self {
        0
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v.round().clamp(0.0, 255.0) as u8
    }
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[0] = self;
    }
    fn read_le(bytes: &[u8]) -> Self {
        bytes[0]
    }
}

impl Element for bool {
    const DTYPE: DType = DType::Bool;
    fn zero() -> Self {
        false
    }
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
    fn from_f64(v: f64) -> Self {
        v != 0.0
    }
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[0] = self as u8;
    }
    fn read_le(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_rust_types() {
        assert_eq!(DType::F32.size_bytes(), std::mem::size_of::<f32>());
        assert_eq!(DType::F64.size_bytes(), std::mem::size_of::<f64>());
        assert_eq!(DType::I32.size_bytes(), std::mem::size_of::<i32>());
        assert_eq!(DType::I64.size_bytes(), std::mem::size_of::<i64>());
        assert_eq!(DType::U8.size_bytes(), 1);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn numpy_descr_round_trip() {
        for d in [
            DType::F32,
            DType::F64,
            DType::I32,
            DType::I64,
            DType::U8,
            DType::Bool,
        ] {
            assert_eq!(DType::from_numpy_descr(d.numpy_descr()), Some(d));
        }
        assert_eq!(DType::from_numpy_descr(">f4"), None);
    }

    #[test]
    fn code_round_trip() {
        for d in [
            DType::F32,
            DType::F64,
            DType::I32,
            DType::I64,
            DType::U8,
            DType::Bool,
        ] {
            assert_eq!(DType::from_code(d.code()), Some(d));
            assert_eq!(DType::from_name(&d.to_string()), Some(d));
        }
        assert_eq!(DType::from_code(99), None);
        assert_eq!(DType::from_name("f16"), None);
    }

    #[test]
    fn element_byte_round_trip() {
        let mut buf = [0u8; 8];
        1.5_f32.write_le(&mut buf[..4]);
        assert_eq!(f32::read_le(&buf), 1.5);
        (-7.25_f64).write_le(&mut buf);
        assert_eq!(f64::read_le(&buf), -7.25);
        (-42_i32).write_le(&mut buf[..4]);
        assert_eq!(i32::read_le(&buf), -42);
        (1_i64 << 40).write_le(&mut buf);
        assert_eq!(i64::read_le(&buf), 1 << 40);
        200_u8.write_le(&mut buf[..1]);
        assert_eq!(u8::read_le(&buf), 200);
        true.write_le(&mut buf[..1]);
        assert!(bool::read_le(&buf));
    }

    #[test]
    fn from_f64_clamps_u8() {
        assert_eq!(u8::from_f64(300.0), 255);
        assert_eq!(u8::from_f64(-5.0), 0);
        assert_eq!(u8::from_f64(12.6), 13);
    }
}
