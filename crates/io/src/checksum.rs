//! Checksums and content hashes, implemented from scratch.
//!
//! * [`crc32`] — the zlib/PNG polynomial (0xEDB88320 reflected), required by
//!   the ZIP container backing NPZ shards.
//! * [`crc32c`] — the Castagnoli polynomial (0x82F63B78 reflected),
//!   required by the TFRecord framing.
//! * `Crc32Stream` — either of them incrementally, and from pieces that
//!   were hashed somewhere else.
//! * [`masked_crc32c`] — TFRecord's rotated+offset mask over CRC-32C.
//!
//! Both CRCs run on one kernel (`Crc::update`): slice-by-8 tables, and from
//! 768 bytes up three slice-by-8 streams side by side over the thirds of
//! the input, joined by the identity every CRC satisfies,
//! `crc(a‖b) = crc(a)·x^(8|b|) mod P ⊕ crc(b)`. One stream is a chain of
//! dependent table loads (≈ 1.4 GB/s here whatever the core could issue);
//! three independent chains reach ≈ 4 GB/s in safe Rust with the same
//! tables. The same identity lets a caller that already holds the CRC of a
//! piece add the piece to a running checksum without reading it
//! (`Crc32Stream::update_hashed`) — which is how a shard's whole-file
//! CRC comes out of its record CRCs with every byte hashed once.
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

/// `a · b mod P` over GF(2), in the reflected representation the tables
/// use (bit 31 is the coefficient of x⁰): a 32-step carry-less multiply.
const fn mul_mod(poly: u32, a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        // b is `b₀ · xⁱ mod P` here; add it where a has an xⁱ term.
        product ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (poly & 0u32.wrapping_sub(b & 1));
        i += 1;
    }
    product
}

/// Hex digits in a length.
const LEN_DIGITS: usize = usize::BITS as usize / 4;

/// One reflected CRC-32 polynomial: its slice-by-8 tables and what the
/// join needs.
struct Crc {
    poly: u32,
    tables: [[u32; 256]; 8],
    /// `byte_shift[k][d] = x^(8·d·16ᵏ) mod P`: the factor that moves a
    /// state past `d·16ᵏ` bytes, for every hex digit of a length — the
    /// squarings of square-and-multiply, done at compile time.
    byte_shift: [[u32; 16]; LEN_DIGITS],
}

impl Crc {
    const fn new(poly: u32) -> Crc {
        let mut byte_shift = [[0x8000_0000; 16]; LEN_DIGITS]; // x⁰
        let mut unit = 0x0080_0000; // x⁸: one byte
        let mut k = 0;
        while k < LEN_DIGITS {
            let mut d = 1;
            while d < 16 {
                byte_shift[k][d] = mul_mod(poly, byte_shift[k][d - 1], unit);
                d += 1;
            }
            unit = mul_mod(poly, byte_shift[k][15], unit); // 16ᵏ⁺¹ bytes
            k += 1;
        }
        Crc {
            poly,
            tables: build_tables(poly),
            byte_shift,
        }
    }

    /// `crc · x^(8·len) mod P`: the state `crc` after `len` more zero
    /// bytes — one multiply per non-zero hex digit of `len`.
    fn shift(&self, mut crc: u32, len: usize) -> u32 {
        let mut rest = len;
        let mut k = 0;
        while rest != 0 {
            if rest & 15 != 0 {
                crc = mul_mod(self.poly, crc, self.byte_shift[k][rest & 15]);
            }
            rest >>= 4;
            k += 1;
        }
        crc
    }

    /// Eight more bytes into one slice-by-8 stream.
    #[inline(always)]
    fn word(&self, crc: u32, w: &[u8]) -> u32 {
        let t = &self.tables;
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize]
    }

    /// Raw (uninverted) state after `data`, from raw state `crc`.
    ///
    /// One slice-by-8 stream is a chain of dependent table loads, ≈ 1.4
    /// GB/s whatever the core could issue. From [`LANE_MIN_BYTES`] up the
    /// input is cut in thirds hashed side by side — three independent
    /// chains in one loop — and joined: the update is linear over GF(2),
    /// so `state(a‖b) = state(a)·x^(8|b|) ⊕ state₀(b)` with `state₀` the
    /// state from zero. What the thirds leave (< 24 bytes) and every
    /// short input take the one-stream loop below.
    fn update(&self, mut crc: u32, mut data: &[u8]) -> u32 {
        if data.len() >= LANE_MIN_BYTES {
            let lane = (data.len() / 3) & !7;
            let (a, rest) = data.split_at(lane);
            let (b, rest) = rest.split_at(lane);
            let (c, tail) = rest.split_at(lane);
            let (mut crc_b, mut crc_c) = (0, 0);
            for ((wa, wb), wc) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                crc = self.word(crc, wa);
                crc_b = self.word(crc_b, wb);
                crc_c = self.word(crc_c, wc);
            }
            let past_lane = self.shift(0x8000_0000, lane); // x⁰ shifted: x^(8·lane)
            crc = mul_mod(self.poly, crc, past_lane) ^ crc_b;
            crc = mul_mod(self.poly, crc, past_lane) ^ crc_c;
            data = tail;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            crc = self.word(crc, w);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ self.tables[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }
}

/// Shortest input hashed in three lanes: below it the join (≈ 30 ns a
/// multiply, one per non-zero hex digit of the lane length plus two)
/// costs more than the lanes save.
const LANE_MIN_BYTES: usize = 768;

static CRC32: Crc = Crc::new(0xEDB8_8320);
static CRC32C: Crc = Crc::new(0x82F6_3B78);

/// CRC-32 (IEEE 802.3 / zlib polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !CRC32.update(!0, data)
}

/// CRC-32C (Castagnoli polynomial) of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    !CRC32C.update(!0, data)
}

/// Incremental CRC-32C state for streaming writers, and for checksums
/// joined from pieces hashed elsewhere
/// ([`update_hashed`](Self::update_hashed)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32Stream {
    state: u32,
}

impl Crc32Stream {
    /// New streaming CRC-32C (Castagnoli polynomial).
    pub(crate) fn new_crc32c() -> Self {
        Crc32Stream { state: !0 }
    }

    /// Absorb bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.state = CRC32C.update(self.state, data);
    }

    /// Absorb `len` bytes known only by their checksum `crc` (same
    /// polynomial), without reading them again: with finished values,
    /// `crc(a‖b) = crc(a)·x^(8|b|) mod P ⊕ crc(b)` — the inversions at
    /// both ends of a CRC cancel in the sum.
    pub(crate) fn update_hashed(&mut self, crc: u32, len: usize) {
        self.state = !(CRC32C.shift(!self.state, len) ^ crc);
    }

    /// Final checksum value.
    pub(crate) fn finalize(self) -> u32 {
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
pub(crate) fn unmask_crc32c(masked: u32) -> u32 {
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
        let mut s = Crc32Stream::new_crc32c();
        for chunk in data.chunks(13) {
            s.update(chunk);
        }
        assert_eq!(s.finalize(), crc32c(&data));
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

    /// The definition, one bit at a time.
    fn bitwise_crc(poly: u32, data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ poly
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x2545_F491u32;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn lanes_equal_the_bitwise_definition_at_every_length_and_offset() {
        // 0..=1600 crosses the word loop, the lane threshold and every
        // tail length the thirds can leave; the offsets move the words
        // off any alignment.
        let data = noise(1600 + 7);
        const { assert!(LANE_MIN_BYTES < 1600) };
        for offset in [0, 1, 3, 7] {
            for len in 0..=1600 {
                let piece = &data[offset..offset + len];
                assert_eq!(
                    crc32(piece),
                    bitwise_crc(0xEDB8_8320, piece),
                    "crc32 len {len} offset {offset}"
                );
                assert_eq!(
                    crc32c(piece),
                    bitwise_crc(0x82F6_3B78, piece),
                    "crc32c len {len} offset {offset}"
                );
            }
        }
        let long = noise(100_003);
        assert_eq!(crc32(&long), bitwise_crc(0xEDB8_8320, &long));
        assert_eq!(crc32c(&long), bitwise_crc(0x82F6_3B78, &long));
    }

    #[test]
    fn stream_chunks_straddling_the_lane_threshold_equal_one_shot() {
        let data = noise(5 * LANE_MIN_BYTES + 11);
        for chunk in [
            1,
            LANE_MIN_BYTES - 1,
            LANE_MIN_BYTES,
            LANE_MIN_BYTES + 1,
            2 * LANE_MIN_BYTES + 5,
        ] {
            let mut s = Crc32Stream::new_crc32c();
            for piece in data.chunks(chunk) {
                s.update(piece);
            }
            assert_eq!(s.finalize(), crc32c(&data), "crc32c in chunks of {chunk}");
        }
    }

    #[test]
    fn joined_pieces_equal_the_whole() {
        // Random cuts, empty pieces included; every piece goes in either
        // as bytes or as its (crc, len) alone.
        let data = noise(20_000);
        let mut state = 0x9E37_79B9u32;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as usize % bound
        };
        for round in 0..200 {
            let mut cuts: Vec<usize> = (0..1 + next(6)).map(|_| next(data.len() + 1)).collect();
            cuts.extend([0, data.len()]);
            if round % 3 == 0 {
                cuts.push(cuts[0]); // an empty piece
            }
            cuts.sort_unstable();
            let mut s = Crc32Stream::new_crc32c();
            for pair in cuts.windows(2) {
                let piece = &data[pair[0]..pair[1]];
                if next(2) == 0 {
                    s.update(piece);
                } else {
                    s.update_hashed(crc32c(piece), piece.len());
                }
            }
            assert_eq!(s.finalize(), crc32c(&data), "crc32c cuts {cuts:?}");
        }
    }
}
