//! LEB128 varints and zigzag coding.
//!
//! Shared by the delta codec (small signed deltas → short varints) and the
//! protobuf wire encoder behind TFRecord `Example` messages.

/// Append `value` as an unsigned LEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an unsigned LEB128 varint from the front of `bytes`.
/// Returns `(value, bytes_consumed)` or `None` on truncation/overflow.
pub fn read_uvarint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            return None; // overflow: more than 10 bytes
        }
        let payload = (b & 0x7F) as u64;
        // Detect bits shifted out of range (canonical 64-bit bound).
        if shift == 63 && payload > 1 {
            return None;
        }
        value |= payload << shift;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Zigzag-encode a signed integer so small magnitudes become small
/// unsigned values: 0→0, -1→1, 1→2, -2→3, ...
pub(crate) const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let (back, n) = read_uvarint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn uvarint_single_byte_values() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 42);
        assert_eq!(buf, vec![42]);
    }

    #[test]
    fn uvarint_truncated_rejected() {
        assert_eq!(read_uvarint(&[]), None);
        assert_eq!(read_uvarint(&[0x80]), None);
        assert_eq!(read_uvarint(&[0xFF, 0xFF]), None);
    }

    #[test]
    fn uvarint_overflow_rejected() {
        // 11 continuation bytes exceed 64 bits.
        let buf = [0xFFu8; 11];
        assert_eq!(read_uvarint(&buf), None);
        // 10 bytes with a too-large final payload.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x02);
        assert_eq!(read_uvarint(&buf), None);
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
