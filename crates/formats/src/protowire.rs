//! Protobuf wire-format primitives (encode + decode), from scratch.
//!
//! Only what `tf.train.Example` needs: varint fields, length-delimited
//! fields, and packed repeated scalars. Wire types per the protobuf spec:
//! 0 = varint, 1 = 64-bit, 2 = length-delimited, 5 = 32-bit.

use crate::bytes::{arr4, arr8};
use crate::{malformed, FormatError};
use drai_io::varint::{read_uvarint, write_uvarint};

/// Wire type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireType {
    /// Varint-encoded scalar.
    Varint,
    /// Fixed 64-bit little-endian.
    Fixed64,
    /// Length-delimited bytes.
    LengthDelimited,
    /// Fixed 32-bit little-endian.
    Fixed32,
}

impl WireType {
    fn from_tag(tag: u64) -> Result<WireType, FormatError> {
        Ok(match tag & 0x7 {
            0 => WireType::Varint,
            1 => WireType::Fixed64,
            2 => WireType::LengthDelimited,
            5 => WireType::Fixed32,
            other => return Err(malformed("protobuf", format!("wire type {other}"))),
        })
    }

    const fn code(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
            WireType::Fixed32 => 5,
        }
    }
}

/// Append a field key (field number + wire type).
pub(crate) fn write_key(out: &mut Vec<u8>, field: u32, wire: WireType) {
    write_uvarint(out, ((field as u64) << 3) | wire.code());
}

/// Append a length-delimited field (bytes, strings, sub-messages).
pub(crate) fn write_bytes_field(out: &mut Vec<u8>, field: u32, data: &[u8]) {
    write_key(out, field, WireType::LengthDelimited);
    write_uvarint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Bytes [`write_uvarint`] emits for `value`.
pub(crate) const fn uvarint_len(value: u64) -> usize {
    (70 - (value | 1).leading_zeros() as usize) / 7
}

/// Bytes of a length-delimited field with a one-byte key (field numbers
/// below 16) around `payload` bytes.
pub(crate) const fn delimited_len(payload: usize) -> usize {
    1 + uvarint_len(payload as u64) + payload
}

/// Bytes of the varints of a packed int64 payload.
pub(crate) fn packed_int64_len(values: &[i64]) -> usize {
    values.iter().map(|&v| uvarint_len(v as u64)).sum()
}

/// Append a packed repeated float field (wire type 2 holding f32s).
pub(crate) fn write_packed_floats(out: &mut Vec<u8>, field: u32, values: &[f32]) {
    write_key(out, field, WireType::LengthDelimited);
    write_uvarint(out, (values.len() * 4) as u64);
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append a packed repeated int64 field (varint-coded).
pub(crate) fn write_packed_int64(out: &mut Vec<u8>, field: u32, values: &[i64]) {
    write_key(out, field, WireType::LengthDelimited);
    write_uvarint(out, packed_int64_len(values) as u64);
    for &v in values {
        // Protobuf int64 uses two's-complement varints (not zigzag).
        write_uvarint(out, v as u64);
    }
}

/// One decoded field.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FieldValue<'a> {
    /// Wire type 0.
    Varint(u64),
    /// Wire type 1.
    Fixed64(u64),
    /// Wire type 2.
    Bytes(&'a [u8]),
    /// Wire type 5.
    Fixed32(u32),
}

/// Iterate `(field_number, value)` pairs of a message body.
pub(crate) fn decode_fields(mut data: &[u8]) -> Result<Vec<(u32, FieldValue<'_>)>, FormatError> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let (key, n) = read_uvarint(data).ok_or_else(|| malformed("protobuf", "bad key"))?;
        data = &data[n..];
        let field = (key >> 3) as u32;
        if field == 0 {
            return Err(malformed("protobuf", "field number 0"));
        }
        let wire = WireType::from_tag(key)?;
        let value = match wire {
            WireType::Varint => {
                let (v, n) =
                    read_uvarint(data).ok_or_else(|| malformed("protobuf", "bad varint"))?;
                data = &data[n..];
                FieldValue::Varint(v)
            }
            WireType::Fixed64 => {
                if data.len() < 8 {
                    return Err(malformed("protobuf", "short fixed64"));
                }
                let v = u64::from_le_bytes(arr8(&data[..8]));
                data = &data[8..];
                FieldValue::Fixed64(v)
            }
            WireType::LengthDelimited => {
                let (len, n) =
                    read_uvarint(data).ok_or_else(|| malformed("protobuf", "bad length"))?;
                data = &data[n..];
                let len = usize::try_from(len).map_err(|_| malformed("protobuf", "huge length"))?;
                if data.len() < len {
                    return Err(malformed("protobuf", "short length-delimited"));
                }
                let v = FieldValue::Bytes(&data[..len]);
                data = &data[len..];
                v
            }
            WireType::Fixed32 => {
                if data.len() < 4 {
                    return Err(malformed("protobuf", "short fixed32"));
                }
                let v = u32::from_le_bytes(arr4(&data[..4]));
                data = &data[4..];
                FieldValue::Fixed32(v)
            }
        };
        out.push((field, value));
    }
    Ok(out)
}

/// Decode a packed float payload (length must be a multiple of 4).
pub(crate) fn decode_packed_floats(data: &[u8]) -> Result<Vec<f32>, FormatError> {
    if data.len() % 4 != 0 {
        return Err(malformed("protobuf", "packed float length not /4"));
    }
    Ok(data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(arr4(c)))
        .collect())
}

/// Decode a packed int64 payload (sequence of varints).
pub(crate) fn decode_packed_int64(mut data: &[u8]) -> Result<Vec<i64>, FormatError> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let (v, n) = read_uvarint(data).ok_or_else(|| malformed("protobuf", "bad packed int"))?;
        data = &data[n..];
        out.push(v as i64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append a varint field.
    fn write_varint_field(out: &mut Vec<u8>, field: u32, value: u64) {
        write_key(out, field, WireType::Varint);
        write_uvarint(out, value);
    }

    #[test]
    fn known_encoding_field1_varint150() {
        // The canonical protobuf docs example: field 1, varint 150
        // encodes as 08 96 01.
        let mut out = Vec::new();
        write_varint_field(&mut out, 1, 150);
        assert_eq!(out, vec![0x08, 0x96, 0x01]);
    }

    #[test]
    fn known_encoding_field2_string() {
        // Field 2, string "testing" → 12 07 74 65 73 74 69 6e 67.
        let mut out = Vec::new();
        write_bytes_field(&mut out, 2, b"testing");
        assert_eq!(
            out,
            vec![0x12, 0x07, 0x74, 0x65, 0x73, 0x74, 0x69, 0x6E, 0x67]
        );
    }

    #[test]
    fn decode_round_trip() {
        let mut msg = Vec::new();
        write_varint_field(&mut msg, 1, 42);
        write_bytes_field(&mut msg, 2, b"abc");
        write_varint_field(&mut msg, 3, u64::MAX);
        let fields = decode_fields(&msg).unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], (1, FieldValue::Varint(42)));
        assert_eq!(fields[1], (2, FieldValue::Bytes(b"abc")));
        assert_eq!(fields[2], (3, FieldValue::Varint(u64::MAX)));
    }

    #[test]
    fn packed_floats_round_trip() {
        let vals = vec![1.5f32, -2.25, 0.0, f32::MAX];
        let mut msg = Vec::new();
        write_packed_floats(&mut msg, 1, &vals);
        let fields = decode_fields(&msg).unwrap();
        match &fields[0].1 {
            FieldValue::Bytes(b) => assert_eq!(decode_packed_floats(b).unwrap(), vals),
            other => panic!("wrong wire type: {other:?}"),
        }
    }

    #[test]
    fn packed_int64_round_trip_negative() {
        let vals = vec![0i64, 1, -1, i64::MIN, i64::MAX];
        let mut msg = Vec::new();
        write_packed_int64(&mut msg, 1, &vals);
        let fields = decode_fields(&msg).unwrap();
        match &fields[0].1 {
            FieldValue::Bytes(b) => assert_eq!(decode_packed_int64(b).unwrap(), vals),
            other => panic!("wrong wire type: {other:?}"),
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode_fields(&[0x08]).is_err()); // key without value
        assert!(decode_fields(&[0x00]).is_err()); // field number 0
        assert!(decode_fields(&[0x12, 0x05, 0x01]).is_err()); // short bytes
        assert!(decode_fields(&[0x0B]).is_err()); // wire type 3 (groups)
        assert!(decode_packed_floats(&[1, 2, 3]).is_err());
    }

    #[test]
    fn fixed_width_fields() {
        let mut msg = Vec::new();
        write_key(&mut msg, 4, WireType::Fixed32);
        msg.extend_from_slice(&7u32.to_le_bytes());
        write_key(&mut msg, 5, WireType::Fixed64);
        msg.extend_from_slice(&9u64.to_le_bytes());
        let fields = decode_fields(&msg).unwrap();
        assert_eq!(fields[0], (4, FieldValue::Fixed32(7)));
        assert_eq!(fields[1], (5, FieldValue::Fixed64(9)));
    }
}
