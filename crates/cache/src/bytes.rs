//! Minimal exact binary (de)serialization helpers for cache payloads.
//!
//! Cache identity is byte identity: the key digests the serialized
//! input, and hit/miss equivalence demands that serialization round-trip
//! values *bitwise* (text formatting of floats would silently change
//! keys between runs). These little-endian, length-framed helpers give
//! artifact types an exact encoding without pulling in a serde stack —
//! `drai-domains` uses them to implement [`crate::CacheBytes`] for its
//! pipeline artifacts.

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Run `write` on a writer that appends to `out`: the bytes already
    /// there are kept, and `out` is the writer's buffer itself (taken
    /// for the call and handed back), so nothing is copied over. How a
    /// [`crate::CacheBytes::write_cache_bytes`] serializes into a buffer
    /// its caller owns.
    pub fn append_to(out: &mut Vec<u8>, write: impl FnOnce(&mut ByteWriter)) {
        let mut w = ByteWriter {
            buf: std::mem::take(out),
        };
        write(&mut w);
        *out = w.buf;
    }

    /// Make room for `additional` more bytes in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` bitwise (NaN payloads survive).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `f64` slice: length then bitwise values.
    ///
    /// Converted in fixed-size blocks through a stack buffer: this path
    /// serializes every field stack on every cached-stage invocation
    /// (the key digests the input bytes), so it must run at memcpy-like
    /// speed, not one 8-byte append per element.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(8 + vs.len() * 8);
        self.put_u64(vs.len() as u64);
        let mut block = [0u8; 8 * 256];
        for chunk in vs.chunks(256) {
            for (slot, &v) in block.chunks_exact_mut(8).zip(chunk) {
                slot.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            self.buf.extend_from_slice(&block[..chunk.len() * 8]);
        }
    }

    /// Append raw bytes with a length prefix.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_u64(data.len() as u64);
        self.buf.extend_from_slice(data);
    }

    /// Append a length-prefixed frame whose body `write` appends in
    /// place — the bytes [`ByteWriter::put_bytes`] would store for that
    /// body, without building it somewhere else first: a length hole,
    /// the body, the hole patched. `write` must only append.
    pub fn put_framed<R>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let hole = self.buf.len();
        self.put_u64(0);
        let result = write(&mut self.buf);
        let len = (self.buf.len() - hole - 8) as u64;
        self.buf[hole..hole + 8].copy_from_slice(&len.to_le_bytes());
        result
    }

    /// Append a UTF-8 string with a length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Consume into the serialized bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

/// Bounds-checked reader over bytes produced by [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `data`.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("truncated: need {n} bytes at offset {}", self.pos))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    /// Read a bitwise `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed `f64` slice (bulk-converted; the warm
    /// cache path decodes whole field stacks through here).
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, String> {
        let n =
            usize::try_from(self.u64()?).map_err(|_| "f64 slice length overflows".to_string())?;
        if n.saturating_mul(8) > self.remaining() {
            return Err(format!("truncated f64 slice: {n} values declared"));
        }
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_le_bytes(b)
            })
            .collect())
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n =
            usize::try_from(self.u64()?).map_err(|_| "byte slice length overflows".to_string())?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, String> {
        std::str::from_utf8(self.bytes()?).map_err(|e| format!("invalid utf-8: {e}"))
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Error unless every byte was consumed (catches framing drift).
    pub fn expect_end(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after payload", self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u64(u64::MAX);
        w.put_f64(f64::NAN);
        w.put_f64_slice(&[1.5, -0.0, f64::INFINITY]);
        w.put_bytes(b"raw");
        w.put_str("stage-name");
        let buf = w.finish();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.f64().unwrap().is_nan());
        let v = r.f64_vec().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert!(v[1] == 0.0 && v[1].is_sign_negative());
        assert_eq!(v[2], f64::INFINITY);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "stage-name");
        r.expect_end().unwrap();
    }

    #[test]
    fn framed_and_appended_bytes_equal_the_copying_form() {
        let mut reference = ByteWriter::new();
        reference.put_u8(9);
        reference.put_bytes(b"body bytes");
        reference.put_bytes(b"");
        let reference = reference.finish();

        let mut out = b"junk".to_vec();
        ByteWriter::append_to(&mut out, |w| {
            w.put_u8(9);
            let returned = w.put_framed(|buf| {
                buf.extend_from_slice(b"body bytes");
                7
            });
            assert_eq!(returned, 7);
            w.put_framed(|_| ());
        });
        assert_eq!(&out[..4], b"junk");
        assert_eq!(&out[4..], reference);

        let mut r = ByteReader::new(&reference);
        r.u8().unwrap();
        assert_eq!(r.bytes().unwrap(), b"body bytes");
        assert_eq!(r.bytes().unwrap(), b"");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_errors_cleanly() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[1, 2, 3, 4]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf[..buf.len() - 1]);
        assert!(r.bytes().is_err());
        // Declared length far beyond the buffer must not allocate.
        let mut w2 = ByteWriter::new();
        w2.put_u64(u64::MAX);
        let buf2 = w2.finish();
        assert!(ByteReader::new(&buf2).f64_vec().is_err());
        assert!(ByteReader::new(&buf2).bytes().is_err());
    }

    #[test]
    fn expect_end_flags_trailing() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        r.u8().unwrap();
        assert!(r.expect_end().is_err());
        r.u8().unwrap();
        r.expect_end().unwrap();
    }
}
