//! Checksums and content hashes, implemented from scratch.
//!
//! * [`crc32`] — the zlib/PNG polynomial (0xEDB88320 reflected), required by
//!   the ZIP container backing NPZ shards.
//! * [`crc32c`] — the Castagnoli polynomial (0x82F63B78 reflected) with a
//!   slice-by-8 table for throughput, required by the TFRecord framing.
//! * [`masked_crc32c`] — TFRecord's rotated+offset mask over CRC-32C.
//! * [`fnv1a64`] / [`Fnv1a64`] — cheap non-cryptographic hash (one-shot and
//!   incremental) for deterministic train/val/test splitting and hash-based
//!   anonymization.
//! * [`content_hash128`] — a 128-bit mixing hash used as a content address
//!   by the provenance layer. Not cryptographic; collision-resistant enough
//!   for artifact identity within a workflow run, and dependency-free.

/// Build a reflected CRC-32 lookup table for `poly`, extended to
/// slice-by-8 (8 sub-tables).
const fn build_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = build_tables(0xEDB8_8320);
static CRC32C_TABLES: [[u32; 256]; 8] = build_tables(0x82F6_3B78);

#[inline]
fn crc_update(tables: &[[u32; 256]; 8], mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3 / zlib polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc_update(&CRC32_TABLES, !0, data)
}

/// CRC-32C (Castagnoli polynomial) of `data`, slice-by-8.
pub fn crc32c(data: &[u8]) -> u32 {
    !crc_update(&CRC32C_TABLES, !0, data)
}

/// Incremental CRC state for streaming writers.
#[derive(Debug, Clone, Copy)]
pub struct Crc32Stream {
    state: u32,
    castagnoli: bool,
}

impl Crc32Stream {
    /// New streaming CRC-32 (zlib polynomial).
    pub fn new_crc32() -> Self {
        Crc32Stream {
            state: !0,
            castagnoli: false,
        }
    }

    /// New streaming CRC-32C (Castagnoli polynomial).
    pub fn new_crc32c() -> Self {
        Crc32Stream {
            state: !0,
            castagnoli: true,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let tables = if self.castagnoli {
            &CRC32C_TABLES
        } else {
            &CRC32_TABLES
        };
        self.state = crc_update(tables, self.state, data);
    }

    /// Final checksum value.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// TFRecord's masked CRC: `rotr(crc, 15) + 0xa282ead8`.
///
/// TensorFlow masks stored CRCs so that a CRC computed over data that itself
/// contains embedded CRCs stays well distributed.
pub fn masked_crc32c(data: &[u8]) -> u32 {
    let crc = crc32c(data);
    (crc.rotate_right(15)).wrapping_add(0xA282_EAD8)
}

/// Undo [`masked_crc32c`]'s mask, returning the raw CRC-32C.
pub fn unmask_crc32c(masked: u32) -> u32 {
    masked.wrapping_sub(0xA282_EAD8).rotate_left(15)
}

/// FNV-1a 64-bit hash.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(data);
    h.finish()
}

/// Incremental [`fnv1a64`]: hashing parts one after another equals hashing
/// their concatenation, so a caller with a prefix and a key needs no
/// buffer to join them in.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// State of the empty input.
    pub fn new() -> Self {
        Fnv1a64(0xCBF2_9CE4_8422_2325)
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hash of everything absorbed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 128-bit content hash: four independent multiply-rotate lanes absorb a
/// 32-byte stride (so absorption pipelines across lanes instead of
/// serializing on one mixing chain), then a splitmix64 finalizer cascade
/// combines the lanes. Non-cryptographic; used for artifact content
/// addressing, cache-entry digests and duplicate detection — paths that
/// hash megabytes per pipeline run, hence the throughput-oriented shape.
pub fn content_hash128(data: &[u8]) -> [u8; 16] {
    #[inline]
    fn mix(mut x: u64) -> u64 {
        // splitmix64 finalizer
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    #[inline]
    fn absorb(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x9DDF_EA08_EB38_2D69).rotate_left(23) ^ w
    }
    let len = data.len() as u64;
    let mut h = [
        0x9E37_79B9_7F4A_7C15_u64 ^ len,
        0xC2B2_AE3D_27D4_EB4F_u64 ^ len.rotate_left(32),
        0x1656_67B1_9E37_79F9_u64 ^ len.rotate_left(16),
        0x94D0_49BB_1331_11EB_u64 ^ len.rotate_left(48),
    ];
    let mut wide = data.chunks_exact(32);
    for chunk in &mut wide {
        for (i, lane) in h.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&chunk[i * 8..i * 8 + 8]);
            *lane = absorb(*lane, u64::from_le_bytes(b));
        }
    }
    let mut lane = 0usize;
    let mut tail = wide.remainder().chunks_exact(8);
    for c in &mut tail {
        let mut b = [0u8; 8];
        b.copy_from_slice(c);
        h[lane] = mix(h[lane] ^ u64::from_le_bytes(b));
        lane = (lane + 1) % 4;
    }
    let rem = tail.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h[lane] = mix(h[lane] ^ u64::from_le_bytes(last) ^ 0xFF);
    }
    // Final avalanche: both output words depend on every lane.
    let a = mix(mix(h[0] ^ h[1].rotate_left(29)) ^ h[2].rotate_left(13) ^ h[3].rotate_left(41));
    let b = mix(mix(h[3] ^ h[2].rotate_left(17)) ^ h[1].rotate_left(7) ^ h[0].rotate_left(51));
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// Hex string of a content hash (lowercase).
pub fn hash_hex(hash: &[u8]) -> String {
    let mut s = String::with_capacity(hash.len() * 2);
    for b in hash {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from RFC 3720 (CRC-32C) and zlib documentation.
    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32c_known_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // RFC 3720 B.4: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // Ascending 0..=31.
        let asc: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&asc), 0x46DD_794E);
    }

    #[test]
    fn crc_streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000).map(|i| (i * 7 % 251) as u8).collect();
        for castagnoli in [false, true] {
            let mut s = if castagnoli {
                Crc32Stream::new_crc32c()
            } else {
                Crc32Stream::new_crc32()
            };
            for chunk in data.chunks(13) {
                s.update(chunk);
            }
            let expect = if castagnoli {
                crc32c(&data)
            } else {
                crc32(&data)
            };
            assert_eq!(s.finalize(), expect);
        }
    }

    #[test]
    fn masked_crc_round_trip() {
        for data in [b"".as_slice(), b"abc", b"tfrecord framing"] {
            let m = masked_crc32c(data);
            assert_eq!(unmask_crc32c(m), crc32c(data));
        }
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn fnv_parts_hash_as_their_concatenation() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        for cut in 0..=data.len() {
            let mut h = Fnv1a64::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), fnv1a64(&data), "cut {cut}");
        }
    }

    #[test]
    fn content_hash_stable_and_sensitive() {
        let a = content_hash128(b"hello world");
        let b = content_hash128(b"hello world");
        let c = content_hash128(b"hello worle");
        let d = content_hash128(b"hello worl");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(content_hash128(b""), [0u8; 16]);
    }

    #[test]
    fn content_hash_length_extension_differs() {
        // Same 8-byte prefix, differing only in trailing zero bytes.
        let a = content_hash128(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = content_hash128(&[1, 2, 3, 4, 5, 6, 7, 8, 0]);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_hex_format() {
        assert_eq!(hash_hex(&[0x00, 0xFF, 0x1A]), "00ff1a");
    }

    #[test]
    fn crc_lengths_around_slice_boundary() {
        // Exercise remainder handling for lengths 0..=17.
        for n in 0..=17usize {
            let data: Vec<u8> = (0..n as u8).collect();
            // bytewise reference
            let mut crc = !0u32;
            for &b in &data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            assert_eq!(crc32(&data), !crc, "length {n}");
        }
    }
}
