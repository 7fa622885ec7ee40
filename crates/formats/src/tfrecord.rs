//! TFRecord file framing, byte-compatible with TensorFlow's spec.
//!
//! Each record is framed as:
//!
//! ```text
//! u64le  length
//! u32le  masked_crc32c(length bytes)
//! bytes  data[length]
//! u32le  masked_crc32c(data)
//! ```
//!
//! where the mask is `rotr(crc, 15) + 0xa282ead8` (see
//! [`drai_io::masked_crc32c`]). The fusion archetype writes windows of
//! diagnostic features as [`crate::example::Example`] payloads in this
//! framing, which real TensorFlow tooling can read.

use crate::bytes::{arr4, arr8};
use crate::{malformed, FormatError};
use drai_io::checksum::masked_crc32c;

/// Append one framed record to `out`.
pub fn write_record(out: &mut Vec<u8>, data: &[u8]) {
    let len = (data.len() as u64).to_le_bytes();
    out.extend_from_slice(&len);
    out.extend_from_slice(&masked_crc32c(&len).to_le_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(&masked_crc32c(data).to_le_bytes());
}

/// Serialize a whole record stream.
pub fn write_records<I, B>(records: I) -> Vec<u8>
where
    I: IntoIterator<Item = B>,
    B: AsRef<[u8]>,
{
    let mut out = Vec::new();
    for r in records {
        write_record(&mut out, r.as_ref());
    }
    out
}

/// Iterator over records in a TFRecord byte stream, verifying both CRCs.
pub(crate) struct TfRecordReader<'a> {
    data: &'a [u8],
    pos: usize,
    index: usize,
}

impl<'a> TfRecordReader<'a> {
    /// Reader over a complete in-memory TFRecord file.
    pub(crate) fn new(data: &'a [u8]) -> Self {
        TfRecordReader {
            data,
            pos: 0,
            index: 0,
        }
    }
}

impl<'a> Iterator for TfRecordReader<'a> {
    type Item = Result<&'a [u8], FormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos == self.data.len() {
            return None;
        }
        let i = self.index;
        self.index += 1;
        let fail = |msg: String| Some(Err(malformed("tfrecord", msg)));
        if self.pos + 12 > self.data.len() {
            self.pos = self.data.len();
            return fail(format!("record {i}: truncated length header"));
        }
        let len_bytes = &self.data[self.pos..self.pos + 8];
        let len = u64::from_le_bytes(arr8(len_bytes)) as usize;
        let len_crc = u32::from_le_bytes(arr4(&self.data[self.pos + 8..self.pos + 12]));
        if masked_crc32c(len_bytes) != len_crc {
            self.pos = self.data.len();
            return fail(format!("record {i}: length CRC mismatch"));
        }
        let data_start = self.pos + 12;
        if data_start + len + 4 > self.data.len() {
            self.pos = self.data.len();
            return fail(format!("record {i}: truncated payload"));
        }
        let payload = &self.data[data_start..data_start + len];
        let data_crc = u32::from_le_bytes(arr4(&self.data[data_start + len..data_start + len + 4]));
        if masked_crc32c(payload) != data_crc {
            self.pos = self.data.len();
            return fail(format!("record {i}: payload CRC mismatch"));
        }
        self.pos = data_start + len + 4;
        Some(Ok(payload))
    }
}

/// Read all records, failing on the first corrupt one.
pub fn read_records(data: &[u8]) -> Result<Vec<Vec<u8>>, FormatError> {
    TfRecordReader::new(data)
        .map(|r| r.map(|s| s.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_is_byte_exact() {
        // A record of b"abc": length 3 as u64le, masked CRCs per spec.
        let mut out = Vec::new();
        write_record(&mut out, b"abc");
        assert_eq!(out.len(), 8 + 4 + 3 + 4);
        assert_eq!(&out[..8], &3u64.to_le_bytes());
        // Masked CRC of the length bytes (computed with the verified
        // crc32c implementation; locks in the rot-and-add mask).
        let len_crc = u32::from_le_bytes(out[8..12].try_into().unwrap());
        assert_eq!(len_crc, masked_crc32c(&3u64.to_le_bytes()));
        assert_eq!(&out[12..15], b"abc");
        let data_crc = u32::from_le_bytes(out[15..19].try_into().unwrap());
        assert_eq!(data_crc, masked_crc32c(b"abc"));
    }

    #[test]
    fn round_trip_many() {
        let records: Vec<Vec<u8>> = (0..50)
            .map(|i| (0..i * 3).map(|j| (j % 256) as u8).collect())
            .collect();
        let bytes = write_records(&records);
        assert_eq!(read_records(&bytes).unwrap(), records);
    }

    #[test]
    fn empty_stream_and_empty_record() {
        assert!(read_records(&[]).unwrap().is_empty());
        let bytes = write_records([b"".as_slice()]);
        assert_eq!(read_records(&bytes).unwrap(), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = write_records([b"hello world".as_slice()]);
        bytes[14] ^= 1;
        assert!(read_records(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_detected() {
        let mut bytes = write_records([b"hello".as_slice()]);
        bytes[0] ^= 1; // length now 4, CRC won't match
        assert!(read_records(&bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let bytes = write_records([b"hello".as_slice(), b"world".as_slice()]);
        assert!(read_records(&bytes[..bytes.len() - 2]).is_err());
        assert!(read_records(&bytes[..5]).is_err());
    }

    #[test]
    fn reader_stops_after_error() {
        let mut bytes = write_records([b"a".as_slice(), b"b".as_slice()]);
        bytes[12] ^= 1;
        let mut reader = TfRecordReader::new(&bytes);
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn examples_in_tfrecords() {
        use crate::example::Example;
        let examples: Vec<Example> = (0..10)
            .map(|i| {
                Example::new()
                    .with_floats("x", vec![i as f32; 16])
                    .with_ints("y", vec![i])
            })
            .collect();
        let bytes = write_records(examples.iter().map(|e| e.encode()));
        let decoded: Vec<Example> = read_records(&bytes)
            .unwrap()
            .iter()
            .map(|r| Example::decode(r).unwrap())
            .collect();
        assert_eq!(decoded, examples);
    }
}
