//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! The bio/health archetype's "secure sharding" encrypts shard payloads at
//! rest inside the enclave boundary. ChaCha20 is the standard choice for
//! fast software encryption on HPC nodes without AES hardware dependence.
//! This implementation is verified against the RFC 8439 §2.3.2/§2.4.2 test
//! vectors.
//!
//! Scope note: this provides *confidentiality only* (no authentication
//! tag). drai shards already carry CRC-32C integrity framing against
//! accidental corruption; a deployment needing tamper resistance would add
//! Poly1305. Key management is the caller's concern — the domain pipeline
//! derives per-dataset keys from an operator secret and records only the
//! key *identifier* in provenance, never the key.

use crate::parallel::par_map;

/// A 256-bit key.
pub type Key = [u8; 32];
/// A 96-bit nonce.
pub type Nonce = [u8; 12];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The block function's input: constants, key and nonce words, with the
/// counter word (12) left at 0 — expanded once per keystream.
fn initial_state(key: &Key, nonce: &Nonce) -> [u32; 16] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
    for (word, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for (word, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    state
}

/// Compute the 64-byte ChaCha20 block of `state` at `counter`.
fn block(mut state: [u32; 16], counter: u32) -> [u8; 64] {
    state[12] = counter;
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Bytes of `data` one [`par_map`] item of [`chacha20_xor`] ciphers:
/// 1024 blocks, so a piece's first counter is its offset / 64.
pub const PIECE_BYTES: usize = 64 * 1024;

/// XOR `data` with the ChaCha20 keystream in place. Encryption and
/// decryption are the same operation. `initial_counter` is normally 0
/// (RFC 8439 uses 1 when a Poly1305 key block precedes the data).
///
/// Blocks do not depend on each other, so `data` is ciphered in
/// [`PIECE_BYTES`] pieces on [`par_map`], each from its own counter
/// (`initial_counter + offset / 64`, wrapping as the block counter
/// does): the bytes are the one-block-at-a-time stream's, on any number
/// of threads. A worker writes into its piece and allocates nothing.
pub fn chacha20_xor(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    let state = initial_state(key, nonce);
    par_map(data.chunks_mut(PIECE_BYTES).enumerate(), |(p, piece)| {
        let first = initial_counter.wrapping_add((p * (PIECE_BYTES / 64)) as u32);
        for (i, chunk) in piece.chunks_mut(64).enumerate() {
            let ks = block(state, first.wrapping_add(i as u32));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    });
}

/// Derive a 256-bit key from an operator passphrase and a context label
/// (dataset name). Uses iterated content-hash stretching — adequate for
/// deriving distinct per-dataset keys from a strong secret; not a
/// password-hardening KDF for weak passwords.
pub fn derive_key(secret: &str, context: &str) -> Key {
    let mut material = Vec::with_capacity(secret.len() + context.len() + 1);
    material.extend_from_slice(secret.as_bytes());
    material.push(0x1F);
    material.extend_from_slice(context.as_bytes());
    let mut acc = [0u8; 32];
    let mut h = crate::checksum::content_hash128(&material);
    for round in 0..64u8 {
        let mut buf = Vec::with_capacity(material.len() + 17);
        buf.extend_from_slice(&h);
        buf.push(round);
        buf.extend_from_slice(&material);
        h = crate::checksum::content_hash128(&buf);
        for (i, &b) in h.iter().enumerate() {
            acc[(round as usize * 16 + i) % 32] ^= b;
        }
    }
    acc
}

/// A short, non-secret identifier for a key (safe for provenance logs).
pub fn key_id(key: &Key) -> String {
    crate::checksum::hash_hex(&crate::checksum::content_hash128(key)[..4])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ciphered copy of `data`, keystream from counter 0.
    fn encrypted(key: &Key, nonce: &Nonce, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        chacha20_xor(key, nonce, 0, &mut out);
        out
    }

    /// RFC 8439 §2.3.2: key stream block test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: Key = core::array::from_fn(|i| i as u8);
        let nonce: Nonce = [0, 0, 0, 9, 0, 0, 0, 0x4A, 0, 0, 0, 0];
        let out = block(initial_state(&key, &nonce), 1);
        let expected: [u8; 64] = [
            0x10, 0xF1, 0xE7, 0xE4, 0xD1, 0x3B, 0x59, 0x15, 0x50, 0x0F, 0xDD, 0x1F, 0xA3, 0x20,
            0x71, 0xC4, 0xC7, 0xD1, 0xF4, 0xC7, 0x33, 0xC0, 0x68, 0x03, 0x04, 0x22, 0xAA, 0x9A,
            0xC3, 0xD4, 0x6C, 0x4E, 0xD2, 0x82, 0x64, 0x46, 0x07, 0x9F, 0xAA, 0x09, 0x14, 0xC2,
            0xD7, 0x05, 0xD9, 0x8B, 0x02, 0xA2, 0xB5, 0x12, 0x9C, 0xD1, 0xDE, 0x16, 0x4E, 0xB9,
            0xCB, 0xD0, 0x83, 0xE8, 0xA2, 0x50, 0x3C, 0x4E,
        ];
        assert_eq!(out, expected);
    }

    /// RFC 8439 §2.4.2: full encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: Key = core::array::from_fn(|i| i as u8);
        let nonce: Nonce = [0, 0, 0, 0, 0, 0, 0, 0x4A, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        chacha20_xor(&key, &nonce, 1, &mut data);
        let expected_prefix: [u8; 16] = [
            0x6E, 0x2E, 0x35, 0x9A, 0x25, 0x68, 0xF9, 0x80, 0x41, 0xBA, 0x07, 0x28, 0xDD, 0x0D,
            0x69, 0x81,
        ];
        assert_eq!(&data[..16], &expected_prefix);
        let expected_tail: [u8; 8] = [0x8E, 0xED, 0xF2, 0x78, 0x5E, 0x42, 0x87, 0x4D];
        assert_eq!(&data[data.len() - 8..], &expected_tail);
        // Decrypt restores.
        chacha20_xor(&key, &nonce, 1, &mut data);
        assert_eq!(data, plaintext);
    }

    #[test]
    fn round_trip_various_lengths() {
        let key = derive_key("operator secret", "dataset-x");
        let nonce: Nonce = [7; 12];
        for n in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let enc = encrypted(&key, &nonce, &data);
            assert_eq!(enc.len(), n);
            if n > 16 {
                assert_ne!(enc, data, "n={n}: ciphertext equals plaintext");
            }
            let mut dec = enc;
            chacha20_xor(&key, &nonce, 0, &mut dec);
            assert_eq!(dec, data, "n={n}");
        }
    }

    #[test]
    fn different_keys_and_nonces_differ() {
        let data = vec![0u8; 256];
        let k1 = derive_key("s", "a");
        let k2 = derive_key("s", "b");
        let k3 = derive_key("t", "a");
        let n1: Nonce = [1; 12];
        let n2: Nonce = [2; 12];
        let c1 = encrypted(&k1, &n1, &data);
        assert_ne!(c1, encrypted(&k2, &n1, &data));
        assert_ne!(c1, encrypted(&k3, &n1, &data));
        assert_ne!(c1, encrypted(&k1, &n2, &data));
    }

    #[test]
    fn derive_key_deterministic() {
        assert_eq!(derive_key("s", "ctx"), derive_key("s", "ctx"));
        assert_ne!(derive_key("s", "ctx"), derive_key("s", "ctx2"));
        let id = key_id(&derive_key("s", "ctx"));
        assert_eq!(id.len(), 8);
        assert_eq!(id, key_id(&derive_key("s", "ctx")));
    }

    #[test]
    fn keystream_is_balanced() {
        // Sanity: ~half the bits of a long keystream are set.
        let key = derive_key("k", "c");
        let nonce: Nonce = [3; 12];
        let mut zeros = vec![0u8; 1 << 16];
        chacha20_xor(&key, &nonce, 0, &mut zeros);
        let ones: u32 = zeros.iter().map(|b| b.count_ones()).sum();
        let total = (zeros.len() * 8) as f64;
        let frac = ones as f64 / total;
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }
}
