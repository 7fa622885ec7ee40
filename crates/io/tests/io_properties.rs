//! Property tests for the I/O substrate: shard round-trips over arbitrary
//! record sets, codec/bitpack laws, and checksum/crypto invariants.

use drai_io::checksum::{content_hash128, crc32, crc32c};
use drai_io::codec::{bitpack, bitunpack, codec_for, CodecId};
use drai_io::crypto::{chacha20_xor, derive_key};
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
        let mut data = sink.read_file(name).unwrap();
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
    fn bitpack_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64),
                          bits in 1u32..=64) {
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let values: Vec<u64> = values.into_iter().map(|v| v & mask).collect();
        let packed = bitpack(&values, bits);
        prop_assert_eq!(bitunpack(&packed, bits, values.len()).unwrap(), values);
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
