//! Property tests for the I/O substrate: shard round-trips over arbitrary
//! record sets, codec laws, and checksum/crypto invariants.

use drai_io::checksum::{content_hash128, crc32, crc32c};
use drai_io::codec::{codec_for, CodecId};
use drai_io::crypto::{chacha20_xor, derive_key, Key, Nonce, PIECE_BYTES};
use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::{MemSink, StorageSink};
use proptest::prelude::*;

proptest! {
    #[test]
    fn shard_round_trip_arbitrary_records(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 0..40),
        target_kib in 1usize..64,
        codec_pick in 0usize..4) {
        let codec = [CodecId::Raw, CodecId::Rle, CodecId::Lz, CodecId::Delta { width: 1 }][codec_pick];
        let sink = MemSink::new();
        let spec = ShardSpec::new("p", target_kib * 1024).with_codec(codec);
        let manifest = ShardWriter::new(spec, &sink).write_all(&records).unwrap();
        prop_assert_eq!(manifest.total_records as usize, records.len());
        let reader = ShardReader::open("p", &sink).unwrap();
        prop_assert_eq!(reader.read_all().unwrap(), records);
    }

    #[test]
    fn shard_flipped_byte_always_detected(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..128), 1..10),
        flip in any::<(usize, u8)>()) {
        prop_assume!(flip.1 != 0);
        let sink = MemSink::new();
        ShardWriter::new(ShardSpec::new("c", 1 << 20), &sink)
            .write_all(&records)
            .unwrap();
        let name = "c-00000.shard";
        let mut data = sink.read_file(name).unwrap().to_vec();
        let pos = flip.0 % data.len();
        data[pos] ^= flip.1;
        sink.write_file(name, &data).unwrap();
        let reader = ShardReader::open("c", &sink).unwrap();
        prop_assert!(reader.read_shard(0).is_err(),
            "flip at {} of {} undetected", pos, data.len());
    }

    #[test]
    fn encode_into_only_appends(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        prefix in proptest::collection::vec(any::<u8>(), 1..64)) {
        for id in [CodecId::Raw, CodecId::Rle, CodecId::Lz,
                   CodecId::Delta { width: 1 }, CodecId::Delta { width: 2 },
                   CodecId::Delta { width: 4 }, CodecId::Delta { width: 8 }] {
            let codec = codec_for(id);
            let mut out = prefix.clone();
            codec.encode_into(&data, &mut out);
            let (head, tail) = out.split_at(prefix.len());
            prop_assert_eq!(head, &prefix[..], "{:?} touched the bytes before it", id);
            prop_assert_eq!(tail, &codec.encode(&data)[..], "{:?}", id);
            prop_assert_eq!(&codec.decode(tail).unwrap(), &data, "{:?}", id);
        }
    }

    #[test]
    fn crc_detects_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..256),
                                    bit in any::<usize>()) {
        let mut flipped = data.clone();
        let pos = bit % (data.len() * 8);
        flipped[pos / 8] ^= 1 << (pos % 8);
        prop_assert_ne!(crc32(&data), crc32(&flipped));
        prop_assert_ne!(crc32c(&data), crc32c(&flipped));
    }

    #[test]
    fn content_hash_no_trivial_collisions(a in proptest::collection::vec(any::<u8>(), 0..128),
                                          b in proptest::collection::vec(any::<u8>(), 0..128)) {
        if a != b {
            prop_assert_ne!(content_hash128(&a), content_hash128(&b));
        } else {
            prop_assert_eq!(content_hash128(&a), content_hash128(&b));
        }
    }

    #[test]
    fn chacha_ciphertext_differs_and_restores(
        data in proptest::collection::vec(any::<u8>(), 32..512),
        ctx in "[a-z]{1,8}") {
        let key = derive_key("prop-secret", &ctx);
        let nonce = [5u8; 12];
        let mut work = data.clone();
        chacha20_xor(&key, &nonce, 0, &mut work);
        prop_assert_ne!(&work, &data, "32+ bytes should never encrypt to themselves");
        chacha20_xor(&key, &nonce, 0, &mut work);
        prop_assert_eq!(work, data);
    }

    #[test]
    fn lz_never_worse_than_expansion_bound(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let c = codec_for(CodecId::Lz);
        let enc = c.encode(&data);
        // Worst case: all literals + varint framing. Bound generously.
        prop_assert!(enc.len() <= data.len() + data.len() / 16 + 16,
            "{} -> {}", data.len(), enc.len());
    }
}

/// ChaCha20 as RFC 8439 §2.3–2.4 writes it: one 64-byte block after
/// another, the counter wrapping at 2³². The reference `chacha20_xor`'s
/// pieces are held to.
fn reference_chacha20_xor(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut counter = initial_counter;
    for chunk in data.chunks_mut(64) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
        for i in 0..8 {
            input[4 + i] = word(&key[4 * i..]);
        }
        input[12] = counter;
        for i in 0..3 {
            input[13 + i] = word(&nonce[4 * i..]);
        }
        let mut s = input;
        for _ in 0..10 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (i, b) in chunk.iter_mut().enumerate() {
            let ks = s[i / 4].wrapping_add(input[i / 4]).to_le_bytes()[i % 4];
            *b ^= ks;
        }
        counter = counter.wrapping_add(1);
    }
}

/// `chacha20_xor` ciphers in pieces on `par_map`, each from its own
/// counter: its bytes are the block-at-a-time stream's at every length
/// around a block and a piece edge, and with a counter that wraps inside
/// the first piece and between pieces.
#[test]
fn pieced_keystream_matches_block_at_a_time_reference() {
    // The reference is RFC 8439 §2.4.2's cipher.
    let rfc_key: Key = core::array::from_fn(|i| i as u8);
    let rfc_nonce: Nonce = [0, 0, 0, 0, 0, 0, 0, 0x4A, 0, 0, 0, 0];
    let mut sunscreen = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
        .to_vec();
    reference_chacha20_xor(&rfc_key, &rfc_nonce, 1, &mut sunscreen);
    assert_eq!(
        sunscreen[..8],
        [0x6E, 0x2E, 0x35, 0x9A, 0x25, 0x68, 0xF9, 0x80]
    );
    assert_eq!(
        sunscreen[sunscreen.len() - 8..],
        [0x8E, 0xED, 0xF2, 0x78, 0x5E, 0x42, 0x87, 0x4D]
    );

    let key = derive_key("piece-secret", "pieces");
    let nonce: Nonce = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2];
    let lengths = [
        0,
        1,
        63,
        64,
        65,
        PIECE_BYTES - 1,
        PIECE_BYTES,
        PIECE_BYTES + 1,
        3 * PIECE_BYTES + 17,
    ];
    for initial_counter in [0, 1, u32::MAX - 2] {
        for len in lengths {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            let mut want = data.clone();
            reference_chacha20_xor(&key, &nonce, initial_counter, &mut want);
            let mut got = data.clone();
            chacha20_xor(&key, &nonce, initial_counter, &mut got);
            assert!(got == want, "counter {initial_counter}, {len} bytes");
            chacha20_xor(&key, &nonce, initial_counter, &mut got);
            assert!(
                got == data,
                "counter {initial_counter}, {len} bytes: no round trip"
            );
        }
    }
}
