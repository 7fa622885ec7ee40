//! Owned, row-major n-dimensional arrays.

use crate::dtype::Element;
use std::fmt;

/// Errors produced by tensor construction and reshaping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Element count does not match the product of the shape.
    ShapeMismatch {
        /// Number of elements supplied.
        elements: usize,
        /// Requested shape.
        shape: Vec<usize>,
    },
    /// An axis index was out of range for the tensor's rank.
    AxisOutOfRange {
        /// Offending axis.
        axis: usize,
        /// Tensor rank.
        rank: usize,
    },
    /// An index along an axis exceeded that axis's length.
    IndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Axis length.
        len: usize,
    },
    /// Two tensors that must agree in shape do not.
    IncompatibleShapes {
        /// Left-hand shape.
        left: Vec<usize>,
        /// Right-hand shape.
        right: Vec<usize>,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { elements, shape } => write!(
                f,
                "cannot shape {elements} elements into {shape:?} ({} expected)",
                shape.iter().product::<usize>()
            ),
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} tensor")
            }
            TensorError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for axis of length {len}")
            }
            TensorError::IncompatibleShapes { left, right } => {
                write!(f, "incompatible shapes {left:?} vs {right:?}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Compute row-major (C-order) strides for a shape, in elements.
pub(crate) fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// An owned, contiguous, row-major n-dimensional array.
///
/// This is deliberately minimal: the DRAI pipelines need shaped numeric
/// buffers with indexing and serialization — not a full BLAS. Parallelism
/// is applied by callers over the *leading* axis (samples / timesteps /
/// records), which `lanes` makes cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Element> {
    data: Vec<T>,
    shape: Vec<usize>,
}

impl<T: Element> Tensor<T> {
    /// Build a tensor from a flat vector and a shape.
    pub fn from_vec(data: Vec<T>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                elements: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// A tensor filled with `value`.
    pub(crate) fn full(shape: &[usize], value: T) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// A zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, T::zero())
    }

    /// Build by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> T) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(&mut f).collect();
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat, row-major element slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Row-major strides, in elements.
    pub(crate) fn strides(&self) -> Vec<usize> {
        row_major_strides(&self.shape)
    }

    /// Flat offset of a multi-index. Panics in debug builds on rank mismatch.
    fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.shape.len() {
            return Err(TensorError::AxisOutOfRange {
                axis: index.len(),
                rank: self.shape.len(),
            });
        }
        let strides = self.strides();
        let mut off = 0;
        for (axis, (&i, (&len, &s))) in index
            .iter()
            .zip(self.shape.iter().zip(strides.iter()))
            .enumerate()
        {
            if i >= len {
                let _ = axis;
                return Err(TensorError::IndexOutOfRange { index: i, len });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> Result<T, TensorError> {
        Ok(self.data[self.offset(index)?])
    }

    /// Set the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<(), TensorError> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Iterator over zero-copy rows along axis 0 (one sample of a batch,
    /// one node of a graph).
    pub fn lanes(&self) -> impl Iterator<Item = &[T]> + '_ {
        let n = self.shape.first().copied().unwrap_or(0);
        let inner: usize = self.shape.iter().skip(1).product();
        (0..n).map(move |i| &self.data[i * inner..(i + 1) * inner])
    }

    /// Serialize elements as little-endian bytes (row-major).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_le_into(&mut out);
        out
    }

    /// Append the elements as little-endian bytes (row-major) to `out`:
    /// the container writers' path, so tensor bytes are converted once,
    /// in the buffer that is stored.
    pub fn write_le_into(&self, out: &mut Vec<u8>) {
        let esz = const { T::DTYPE.size_bytes() };
        let start = out.len();
        out.resize(start + self.data.len() * esz, 0);
        for (dst, &x) in out[start..].chunks_exact_mut(esz).zip(&self.data) {
            x.write_le(dst);
        }
    }

    /// Deserialize from little-endian bytes with a known shape.
    pub fn from_le_bytes(bytes: &[u8], shape: &[usize]) -> Result<Self, TensorError> {
        let n: usize = shape.iter().product();
        let esz = T::DTYPE.size_bytes();
        if bytes.len() != n * esz {
            return Err(TensorError::ShapeMismatch {
                elements: bytes.len() / esz,
                shape: shape.to_vec(),
            });
        }
        let data = bytes.chunks_exact(esz).map(T::read_le).collect();
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }
}

impl<T: Element> Tensor<T> {
    /// Mean of all elements as f64; `None` for an empty tensor.
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            return None;
        }
        let sum: f64 = self.data.iter().map(|x| x.to_f64()).sum();
        Some(sum / self.data.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 23.0);
        assert_eq!(t.get(&[1, 0, 2]).unwrap(), 14.0);
        assert!(t.get(&[2, 0, 0]).is_err());
        assert!(t.get(&[0, 0]).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let err = Tensor::from_vec(vec![1.0_f64; 5], &[2, 3]).unwrap_err();
        assert!(matches!(
            err,
            TensorError::ShapeMismatch { elements: 5, .. }
        ));
    }

    #[test]
    fn strides_row_major() {
        let t = Tensor::<f32>::zeros(&[2, 3, 4]);
        assert_eq!(t.strides(), vec![12, 4, 1]);
        let s = Tensor::<f32>::zeros(&[7]);
        assert_eq!(s.strides(), vec![1]);
    }

    #[test]
    fn set_then_get() {
        let mut t = Tensor::<i64>::zeros(&[3, 3]);
        t.set(&[1, 2], 42).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 42);
        assert_eq!(t.get(&[2, 1]).unwrap(), 0);
    }

    #[test]
    fn lanes_iterate_all_rows() {
        let t = Tensor::from_vec((0..6).collect::<Vec<i32>>(), &[3, 2]).unwrap();
        let sums: Vec<i32> = t.lanes().map(|l| l.iter().sum()).collect();
        assert_eq!(sums, vec![1, 5, 9]);
        assert_eq!(t.lanes().nth(1), Some(&[2, 3][..]));
        assert_eq!(Tensor::<f32>::zeros(&[3, 0]).lanes().count(), 3);
    }

    #[test]
    fn byte_round_trip() {
        let t = Tensor::from_vec(vec![1.5_f64, -2.25, 3.125, 0.0], &[2, 2]).unwrap();
        let bytes = t.to_le_bytes();
        assert_eq!(bytes.len(), 32);
        let back = Tensor::<f64>::from_le_bytes(&bytes, &[2, 2]).unwrap();
        assert_eq!(back, t);
        assert!(Tensor::<f64>::from_le_bytes(&bytes, &[3, 2]).is_err());
    }

    /// `write_le_into` appends each element's own `to_le_bytes`, for
    /// every dtype, after whatever the buffer holds.
    #[test]
    fn write_le_into_appends_element_bytes() {
        fn check<T: Element, const N: usize>(values: Vec<T>, bytes: impl Fn(T) -> [u8; N]) {
            let expected: Vec<u8> = values.iter().flat_map(|&x| bytes(x)).collect();
            let t = Tensor::from_vec(values, &[3]).unwrap();
            let mut out = vec![0xAA, 0xBB];
            t.write_le_into(&mut out);
            assert_eq!(&out[..2], &[0xAA, 0xBB]);
            assert_eq!(&out[2..], expected);
            assert_eq!(t.to_le_bytes(), expected);
        }
        check(vec![1.5_f32, -0.0, f32::MAX], f32::to_le_bytes);
        check(vec![1.5_f64, -2.25, f64::MIN_POSITIVE], f64::to_le_bytes);
        check(vec![-1_i32, 0, i32::MAX], i32::to_le_bytes);
        check(vec![i64::MIN, 7, 1 << 40], i64::to_le_bytes);
        check(vec![0_u8, 200, 255], |x| [x]);
        check(vec![true, false, true], |x| [x as u8]);
        let mut out = vec![1];
        Tensor::<f64>::zeros(&[0, 4]).write_le_into(&mut out);
        assert_eq!(out, [1]);
    }

    #[test]
    fn mean_of_elements() {
        let t = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(t.mean(), Some(2.5));
        assert_eq!(Tensor::<f32>::zeros(&[0]).mean(), None);
    }

    #[test]
    fn from_fn_fills_by_flat_index() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f64);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
