//! Minimal exact binary (de)serialization helpers for cache payloads.
//!
//! Cache identity is byte identity: the key digests the serialized
//! input, and hit/miss equivalence demands that serialization round-trip
//! values *bitwise* (text formatting of floats would silently change
//! keys between runs). These little-endian, length-framed helpers give
//! artifact types an exact encoding without pulling in a serde stack —
//! `drai-domains` uses them to implement [`crate::CacheBytes`] for its
//! pipeline artifacts.
//!
//! A value's byte form is *described* once, as a sequence of `put_*`
//! calls on a [`ByteWriter`], and the writer decides where the bytes go:
//! appended to a buffer (an entry being stored), fed to a streaming
//! [`content_hash128`](drai_io::checksum::content_hash128) (a key being
//! digested, with no buffer at all), or only counted. The bytes stored
//! and the bytes digested therefore cannot drift apart.

use drai_io::checksum::ContentHasher;

/// Where a [`ByteWriter`]'s bytes go.
#[derive(Debug)]
enum Target {
    /// Appended to a buffer.
    Buffer(Vec<u8>),
    /// Fed to a streaming content hash and dropped.
    Hash(ContentHasher),
    /// Counted and dropped.
    Count(u64),
}

/// Little-endian writer of a byte form: into a buffer, into a streaming
/// hash ([`ByteWriter::digest`]) or into a count ([`ByteWriter::count`]).
#[derive(Debug)]
pub struct ByteWriter {
    target: Target,
}

impl Default for ByteWriter {
    fn default() -> Self {
        ByteWriter::new()
    }
}

impl ByteWriter {
    /// Empty writer into a buffer of its own.
    pub fn new() -> ByteWriter {
        ByteWriter::with_capacity(0)
    }

    /// Writer into a buffer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            target: Target::Buffer(Vec::with_capacity(cap)),
        }
    }

    /// Run `write` on a writer that appends to `out`: the bytes already
    /// there are kept, and `out` is the writer's buffer itself (taken
    /// for the call and handed back), so nothing is copied over.
    pub fn append_to(out: &mut Vec<u8>, write: impl FnOnce(&mut ByteWriter)) {
        let mut w = ByteWriter {
            target: Target::Buffer(std::mem::take(out)),
        };
        write(&mut w);
        *out = w.finish();
    }

    /// How many bytes `describe` writes, counted without writing them.
    pub fn count(describe: impl FnOnce(&mut ByteWriter)) -> u64 {
        let mut w = ByteWriter {
            target: Target::Count(0),
        };
        describe(&mut w);
        match w.target {
            Target::Count(n) => n,
            _ => 0,
        }
    }

    /// [`content_hash128`](drai_io::checksum::content_hash128) of the
    /// bytes `describe` writes, which are never held in one buffer: a
    /// counting run gives the length the hash starts from, then a
    /// hashing run feeds the bytes as they are described. `describe` must
    /// describe the same bytes both times.
    pub fn digest(describe: impl Fn(&mut ByteWriter)) -> [u8; 16] {
        let mut w = ByteWriter {
            target: Target::Hash(ContentHasher::new(ByteWriter::count(&describe))),
        };
        describe(&mut w);
        match w.target {
            Target::Hash(h) => h.finish(),
            _ => [0; 16],
        }
    }

    /// Make room for `additional` more bytes in one allocation (a no-op
    /// unless the writer fills a buffer).
    pub fn reserve(&mut self, additional: usize) {
        if let Target::Buffer(buf) = &mut self.target {
            buf.reserve(additional);
        }
    }

    /// Append bytes as they are, with no length prefix.
    pub fn put_raw(&mut self, data: &[u8]) {
        match &mut self.target {
            Target::Buffer(buf) => buf.extend_from_slice(data),
            Target::Hash(h) => h.update(data),
            Target::Count(n) => *n += data.len() as u64,
        }
    }

    /// Append `values` with no length prefix, each as the `N` bytes `le`
    /// makes of it, converted through a stack block: one append per
    /// block, not one per value.
    pub fn put_each<E: Copy, const N: usize>(&mut self, values: &[E], le: impl Fn(E) -> [u8; N]) {
        if let Target::Count(n) = &mut self.target {
            *n += (values.len() * N) as u64;
            return;
        }
        self.reserve(values.len() * N);
        let mut block = [0u8; 2048];
        for chunk in values.chunks(block.len() / N) {
            for (slot, &v) in block.chunks_exact_mut(N).zip(chunk) {
                slot.copy_from_slice(&le(v));
            }
            self.put_raw(&block[..chunk.len() * N]);
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append an `f64` bitwise (NaN payloads survive).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `f64` slice: length then bitwise values. This path
    /// carries every field stack a cached stage keys or stores, so it
    /// runs a block at a time ([`ByteWriter::put_each`]).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.reserve(8 + vs.len() * 8);
        self.put_u64(vs.len() as u64);
        self.put_each(vs, |v: f64| v.to_bits().to_le_bytes());
    }

    /// Append raw bytes with a length prefix.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_u64(data.len() as u64);
        self.put_raw(data);
    }

    /// Append a length-prefixed frame whose body `describe` writes — the
    /// bytes [`ByteWriter::put_bytes`] would store for that body, without
    /// building it somewhere else first. The length comes from a counting
    /// run of `describe`, so it must describe the same bytes both times.
    pub fn put_framed(&mut self, describe: impl Fn(&mut ByteWriter)) {
        let len = ByteWriter::count(&describe);
        self.put_u64(len);
        match &mut self.target {
            Target::Count(n) => *n += len,
            _ => {
                self.reserve(len as usize);
                describe(self);
            }
        }
    }

    /// Append a UTF-8 string with a length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Consume into the buffered bytes (empty for a writer that hashes or
    /// counts, which keeps none).
    pub fn finish(self) -> Vec<u8> {
        match self.target {
            Target::Buffer(buf) => buf,
            _ => Vec::new(),
        }
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
    use drai_io::checksum::content_hash128;

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
        reference.put_u64(3);
        reference.put_raw(&[1, 0, 2, 0]);
        let reference = reference.finish();

        let describe = |w: &mut ByteWriter| {
            w.put_u8(9);
            w.put_framed(|w| {
                w.put_raw(b"body ");
                w.put_raw(b"bytes");
            });
            w.put_framed(|_| ());
            w.put_u64(3);
            w.put_each(&[1u16, 2], u16::to_le_bytes);
        };
        let mut out = b"junk".to_vec();
        ByteWriter::append_to(&mut out, describe);
        assert_eq!(&out[..4], b"junk");
        assert_eq!(&out[4..], reference);
        // The same description, counted and digested, never buffered.
        assert_eq!(ByteWriter::count(describe), reference.len() as u64);
        assert_eq!(ByteWriter::digest(describe), content_hash128(&reference));

        let mut r = ByteReader::new(&reference);
        r.u8().unwrap();
        assert_eq!(r.bytes().unwrap(), b"body bytes");
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.u64().unwrap(), 3);
        assert_eq!(r.remaining(), 4);
    }

    /// Every `put_*` lands the same bytes in a buffer, a count and a
    /// digest, at every offset into the hash's 32-byte stride and across
    /// `put_each`'s block edge.
    #[test]
    fn buffer_count_and_digest_agree_at_every_offset() {
        let floats: Vec<f64> = (0..600).map(|i| f64::from(i) * -0.75).collect();
        for lead in 0..40usize {
            for n in [0usize, 1, 3, 255, 256, 257, 600] {
                let describe = |w: &mut ByteWriter| {
                    for i in 0..lead {
                        w.put_u8(i as u8);
                    }
                    w.put_f64_slice(&floats[..n]);
                    w.put_str("tail");
                    w.put_f64(f64::NAN);
                };
                let mut w = ByteWriter::new();
                describe(&mut w);
                let bytes = w.finish();
                assert_eq!(ByteWriter::count(describe), bytes.len() as u64);
                assert_eq!(
                    ByteWriter::digest(describe),
                    content_hash128(&bytes),
                    "lead {lead}, {n} floats"
                );
            }
        }
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
