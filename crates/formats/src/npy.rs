//! NumPy NPY v1.0 serialization, byte-compatible with the published spec.
//!
//! ClimaX-style climate pipelines shard preprocessed fields as `.npz` files
//! (ZIP archives of `.npy` members). The v1.0 layout is:
//!
//! ```text
//! \x93NUMPY            magic (6 bytes)
//! \x01 \x00            version major.minor
//! HLEN                 u16 little-endian header length
//! header               Python dict literal, space-padded so that
//!                      10 + HLEN ≡ 0 (mod 64), ending in '\n'
//! data                 raw little-endian elements, C order
//! ```

use crate::{malformed, unsupported, FormatError};
use drai_tensor::{DType, Element, Tensor};

const MAGIC: &[u8; 6] = b"\x93NUMPY";

/// Append the NPY v1.0 preamble — magic, version, header length and the
/// padded header dict — for an array of `dtype` and `shape` to `out`.
/// The array's little-endian elements follow it; a writer that packs many
/// arrays of one shape builds this once.
pub fn write_header_into(out: &mut Vec<u8>, dtype: DType, shape: &[usize]) {
    let shape_str = match shape {
        [] => "()".to_string(),
        [n] => format!("({n},)"),
        dims => format!(
            "({})",
            dims.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    let header_body = format!(
        "{{'descr': '{}', 'fortran_order': False, 'shape': {}, }}",
        dtype.numpy_descr(),
        shape_str
    );
    // Pad with spaces so magic(6)+version(2)+hlen(2)+header is 64-aligned,
    // with a final newline (per the spec).
    let unpadded = 10 + header_body.len() + 1;
    let padding = (64 - unpadded % 64) % 64;
    let header = format!("{header_body}{}\n", " ".repeat(padding));
    assert!(header.len() <= u16::MAX as usize, "npy header too long");

    out.reserve(10 + header.len());
    out.extend_from_slice(MAGIC);
    out.push(1);
    out.push(0);
    out.extend_from_slice(&(header.len() as u16).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
}

/// Serialize a tensor as NPY v1.0 bytes.
pub fn write_npy<T: Element>(tensor: &Tensor<T>) -> Vec<u8> {
    // 128: the preamble's length for all but very long shapes, which grow
    // the buffer once.
    let mut out = Vec::with_capacity(128 + tensor.len() * T::DTYPE.size_bytes());
    write_header_into(&mut out, T::DTYPE, tensor.shape());
    tensor.write_le_into(&mut out);
    out
}

/// Header fields parsed from an NPY file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NpyHeader {
    /// Element dtype.
    pub dtype: DType,
    /// Array shape (C order).
    pub shape: Vec<usize>,
    /// Byte offset where data begins.
    pub data_offset: usize,
}

/// Parse the NPY header (v1.0 and v2.0 accepted; Fortran order rejected).
pub(crate) fn parse_header(bytes: &[u8]) -> Result<NpyHeader, FormatError> {
    if bytes.len() < 10 || &bytes[..6] != MAGIC {
        return Err(malformed("npy", "bad magic"));
    }
    let (major, minor) = (bytes[6], bytes[7]);
    let (hlen, header_start) = match (major, minor) {
        (1, 0) => (u16::from_le_bytes([bytes[8], bytes[9]]) as usize, 10usize),
        (2, 0) => {
            if bytes.len() < 12 {
                return Err(malformed("npy", "truncated v2 header length"));
            }
            (
                u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize,
                12usize,
            )
        }
        _ => return Err(unsupported("npy", format!("version {major}.{minor}"))),
    };
    let end = header_start + hlen;
    if bytes.len() < end {
        return Err(malformed("npy", "truncated header"));
    }
    let header = std::str::from_utf8(&bytes[header_start..end])
        .map_err(|_| malformed("npy", "header not ASCII"))?;

    let descr = extract_quoted(header, "descr").ok_or_else(|| malformed("npy", "no descr"))?;
    let dtype = DType::from_numpy_descr(&descr)
        .ok_or_else(|| unsupported("npy", format!("dtype {descr}")))?;

    let fortran = header
        .split("'fortran_order':")
        .nth(1)
        .map(|s| s.trim_start().starts_with("True"))
        .unwrap_or(false);
    if fortran {
        return Err(unsupported("npy", "fortran_order=True"));
    }

    let shape_src = header
        .split("'shape':")
        .nth(1)
        .ok_or_else(|| malformed("npy", "no shape"))?;
    let open = shape_src
        .find('(')
        .ok_or_else(|| malformed("npy", "shape paren"))?;
    let close = shape_src
        .find(')')
        .ok_or_else(|| malformed("npy", "shape paren"))?;
    let mut shape = Vec::new();
    for part in shape_src[open + 1..close].split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        shape.push(
            part.parse::<usize>()
                .map_err(|_| malformed("npy", format!("bad dim {part:?}")))?,
        );
    }
    Ok(NpyHeader {
        dtype,
        shape,
        data_offset: end,
    })
}

fn extract_quoted(header: &str, key: &str) -> Option<String> {
    let marker = format!("'{key}':");
    let rest = header.split(&marker).nth(1)?;
    let rest = rest.trim_start();
    let quote = rest.chars().next()?;
    if quote != '\'' && quote != '"' {
        return None;
    }
    let inner = &rest[1..];
    let end = inner.find(quote)?;
    Some(inner[..end].to_string())
}

/// Deserialize an NPY file into a typed tensor. The requested element type
/// must match the stored dtype exactly (scientific pipelines must not
/// silently change precision — see the paper's §2.2).
pub fn read_npy<T: Element>(bytes: &[u8]) -> Result<Tensor<T>, FormatError> {
    let header = parse_header(bytes)?;
    if header.dtype != T::DTYPE {
        return Err(malformed(
            "npy",
            format!(
                "dtype mismatch: stored {}, requested {}",
                header.dtype,
                T::DTYPE
            ),
        ));
    }
    let n: usize = header.shape.iter().product();
    let need = n * header.dtype.size_bytes();
    let data = bytes
        .get(header.data_offset..header.data_offset + need)
        .ok_or_else(|| malformed("npy", "truncated data"))?;
    Tensor::from_le_bytes(data, &header.shape)
        .map_err(|e| malformed("npy", format!("shape error: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_byte_exact_vs_numpy() {
        // Reference bytes produced by:
        //   np.save(f, np.arange(3, dtype='<f4'))  (NumPy 1.26)
        let t = Tensor::from_vec(vec![0.0_f32, 1.0, 2.0], &[3]).unwrap();
        let bytes = write_npy(&t);
        let expected_header =
            b"\x93NUMPY\x01\x00\x76\x00{'descr': '<f4', 'fortran_order': False, 'shape': (3,), }";
        assert_eq!(&bytes[..expected_header.len()], expected_header);
        // Total prefix is 64-aligned and ends with newline.
        assert_eq!(bytes.len() % 64, 12); // 128 header + 12 data bytes
        assert_eq!(bytes[127], b'\n');
        // Data payload.
        assert_eq!(&bytes[128..132], &0.0_f32.to_le_bytes());
        assert_eq!(&bytes[132..136], &1.0_f32.to_le_bytes());
    }

    #[test]
    fn round_trip_all_dtypes() {
        fn rt<T: Element>(data: Vec<T>, shape: &[usize]) {
            let t = Tensor::from_vec(data, shape).unwrap();
            let bytes = write_npy(&t);
            let back = read_npy::<T>(&bytes).unwrap();
            assert_eq!(back, t);
        }
        rt(vec![1.5_f32, -2.0, 3.25, 0.0, 5.5, -6.125], &[2, 3]);
        rt(vec![1.5_f64, -2.0], &[2]);
        rt(vec![-1_i32, 0, 7], &[3]);
        rt(vec![i64::MIN, i64::MAX], &[2, 1]);
        rt(vec![0_u8, 255, 128], &[3]);
        rt(vec![true, false, true, true], &[2, 2]);
    }

    #[test]
    fn round_trip_3d_and_empty() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f64);
        assert_eq!(read_npy::<f64>(&write_npy(&t)).unwrap(), t);
        let e = Tensor::<f32>::zeros(&[0]);
        assert_eq!(read_npy::<f32>(&write_npy(&e)).unwrap(), e);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let t = Tensor::from_vec(vec![1.0_f32], &[1]).unwrap();
        let bytes = write_npy(&t);
        assert!(read_npy::<f64>(&bytes).is_err());
    }

    #[test]
    fn fortran_order_rejected() {
        let t = Tensor::from_vec(vec![1.0_f32], &[1]).unwrap();
        let bytes = write_npy(&t);
        let hlen = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
        let end = 10 + hlen;
        let text = String::from_utf8_lossy(&bytes[10..end]).replace("False", "True ");
        let mut forged = bytes[..10].to_vec();
        forged.extend_from_slice(text.as_bytes());
        forged.extend_from_slice(&bytes[end..]);
        assert!(matches!(
            parse_header(&forged),
            Err(FormatError::Unsupported { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let t = Tensor::from_vec(vec![1.0_f64; 10], &[10]).unwrap();
        let bytes = write_npy(&t);
        assert!(read_npy::<f64>(&bytes[..bytes.len() - 1]).is_err());
        assert!(parse_header(&bytes[..5]).is_err());
        assert!(read_npy::<f64>(b"not an npy file").is_err());
    }

    #[test]
    fn v2_header_accepted() {
        // Hand-build a v2.0 file with a u32 header length.
        let t = Tensor::from_vec(vec![7_i32, 8], &[2]).unwrap();
        let v1 = write_npy(&t);
        let hlen = u16::from_le_bytes([v1[8], v1[9]]) as u32;
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.push(2);
        v2.push(0);
        v2.extend_from_slice(&hlen.to_le_bytes());
        v2.extend_from_slice(&v1[10..]);
        let back = read_npy::<i32>(&v2).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn scalar_shape() {
        let t = Tensor::from_vec(vec![42.0_f64], &[]).unwrap();
        let bytes = write_npy(&t);
        let h = parse_header(&bytes).unwrap();
        assert!(h.shape.is_empty());
        assert_eq!(read_npy::<f64>(&bytes).unwrap().get(&[]).unwrap(), 42.0);
    }
}
