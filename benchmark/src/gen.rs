//! Deterministic input generators, driven only by `--seed`, and the
//! digest the output checks compare. The program under test receives
//! the generated inputs, never the seed's meaning.

/// xoshiro256++ seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Generator for `seed`; `stream` separates independent uses of
    /// one seed (one per workload input).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut x = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bell-shaped around 0 with unit variance (sum of four uniforms).
    pub fn bell(&mut self) -> f64 {
        let bits = self.next_u64();
        let sum: f64 = (0..4)
            .map(|k| ((bits >> (16 * k)) & 0xFFFF) as f64 / 65536.0)
            .sum();
        (sum - 2.0) * 1.732_050_807_568_877_2
    }
}

/// `rows × cols` row-major f64 table: each row carries a slow latent
/// signal scaled per column plus noise, and `missing` of the cells are
/// NaN — the input of the paper's Figure 1 pipeline.
pub fn tabular(rows: usize, cols: usize, missing: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 1);
    let phase = rng.unit() * std::f64::consts::TAU;
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let latent = (r as f64 * 0.01 + phase).sin() * 3.0 + rng.bell();
        for c in 0..cols {
            if rng.unit() < missing {
                out.push(f64::NAN);
            } else {
                out.push(latent * (c as f64 + 1.0) * 0.5 + rng.bell() * 2.0);
            }
        }
    }
    out
}

/// `count` records of `record_bytes` each, in one buffer: smooth f32
/// series (a random walk around a slow wave, like a sampled physical
/// field), so `Delta{4}` and `Lz` have structure to find but neither
/// collapses the data.
pub fn smooth_f32_records(count: usize, record_bytes: usize, seed: u64) -> Vec<u8> {
    assert!(
        record_bytes.is_multiple_of(4),
        "records hold whole f32 values"
    );
    let mut rng = Rng::new(seed, 2);
    let per_record = record_bytes / 4;
    let mut out = Vec::with_capacity(count * record_bytes);
    for _ in 0..count {
        let mut x = 250.0 + rng.bell() as f32 * 20.0;
        let wave = 0.002 + rng.unit() as f32 * 0.01;
        for i in 0..per_record {
            x += (rng.unit() as f32 - 0.5) * 0.1 + (i as f32 * wave).sin() * 0.01;
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// `count` tiles of `rows × cols` f64 for the scheduler jobs to z-score.
pub fn tiles(count: usize, rows: usize, cols: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 3);
    (0..count)
        .map(|_| {
            let offset = rng.bell() * 10.0;
            (0..rows * cols)
                .map(|i| offset + (i % cols) as f64 + rng.bell())
                .collect()
        })
        .collect()
}

/// Order-sensitive 128-bit digest of a sequence of byte records. It is
/// the benchmark's own, so that an output check does not lean on the
/// hash functions of the program it checks.
#[derive(Debug, Clone)]
pub struct Digest {
    a: u64,
    b: u64,
    records: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// Empty digest.
    pub fn new() -> Digest {
        Digest {
            a: 0x6A09_E667_F3BC_C908,
            b: 0xBB67_AE85_84CA_A73B,
            records: 0,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        self.b = (self.b.rotate_left(17) ^ w).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ self.a;
    }

    /// Absorb one record (its length is part of the digest).
    pub fn record(&mut self, data: &[u8]) {
        self.word(data.len() as u64);
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(last));
        }
        self.records += 1;
    }

    /// Absorb a slice of f64 by bit pattern, as one record.
    pub fn floats(&mut self, data: &[f64]) {
        self.word(data.len() as u64);
        for v in data {
            self.word(v.to_bits());
        }
        self.records += 1;
    }

    /// Absorb a name or other short text, as one record.
    pub fn text(&mut self, s: &str) {
        self.record(s.as_bytes());
    }

    /// The 128-bit result.
    pub fn finish(&self) -> [u8; 16] {
        let mut x = self.clone();
        x.word(self.records);
        x.word(0xFF);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&x.a.to_le_bytes());
        out[8..].copy_from_slice(&x.b.to_le_bytes());
        out
    }
}

/// Lowercase hex of a digest.
pub fn hex(digest: &[u8; 16]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(
            bits(&tabular(200, 8, 0.05, 7)),
            bits(&tabular(200, 8, 0.05, 7))
        );
        assert_ne!(
            bits(&tabular(200, 8, 0.05, 7)),
            bits(&tabular(200, 8, 0.05, 8))
        );
        assert_eq!(smooth_f32_records(4, 64, 7), smooth_f32_records(4, 64, 7));
        assert_ne!(smooth_f32_records(4, 64, 7), smooth_f32_records(4, 64, 8));
        assert_eq!(tiles(3, 4, 2, 7), tiles(3, 4, 2, 7));
        assert_ne!(tiles(3, 4, 2, 7), tiles(3, 4, 2, 8));
    }

    #[test]
    fn tabular_shape_and_missing_share() {
        let data = tabular(2_000, 16, 0.05, 1);
        assert_eq!(data.len(), 32_000);
        let nan = data.iter().filter(|v| v.is_nan()).count();
        assert!((1_200..2_000).contains(&nan), "NaN cells: {nan}");
    }

    #[test]
    fn smooth_records_are_delta_friendly_but_not_trivial() {
        use drai_io::codec::{codec_for, CodecId};
        let recs = smooth_f32_records(4, 16 * 1024, 3);
        assert_eq!(recs.len(), 4 * 16 * 1024);
        let delta = codec_for(CodecId::Delta { width: 4 }).encode(&recs[..16 * 1024]);
        assert!(delta.len() < 16 * 1024, "delta4 stored {}", delta.len());
        assert!(
            delta.len() > 16 * 1024 / 16,
            "delta4 stored {}",
            delta.len()
        );
    }

    #[test]
    fn bell_is_centred_with_unit_variance() {
        let mut rng = Rng::new(5, 0);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.bell()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn digest_sees_content_order_and_framing() {
        let d = |recs: &[&[u8]]| {
            let mut d = Digest::new();
            for r in recs {
                d.record(r);
            }
            d.finish()
        };
        assert_eq!(d(&[b"abc", b"defghijkl"]), d(&[b"abc", b"defghijkl"]));
        assert_ne!(d(&[b"abc", b"defghijkl"]), d(&[b"defghijkl", b"abc"]));
        assert_ne!(d(&[b"abc", b"def"]), d(&[b"abcdef"]));
        assert_ne!(d(&[b"abc"]), d(&[b"abd"]));
        assert_ne!(d(&[b"abc\0"]), d(&[b"abc"]));
        assert_eq!(hex(&d(&[])).len(), 32);
    }
}
