//! Byte pin of the shard writer: what `ShardWriter::write_all` stores is
//! a function of the records, the codec and `target_shard_bytes` alone —
//! not of the host's CPU count, and not of how the writer cuts the
//! records into runs. The digests below were recorded at the commit
//! before the framed-arena writer (PR 18) and must never be re-recorded
//! for a change that does not mean to change what is stored.
//!
//! One deliberate re-recording since: PR 20 changed the choices of the
//! **Lz encoder** (it strides over input that does not match; format and
//! decoder untouched, `lz_compat.rs` holds the evidence both ways), which
//! moved `pin-lz-00001.shard` — the shard holding the 300 KiB and 16 KiB
//! records — by 8 bytes (1 053 713 → 1 053 705 B over the five files)
//! and with it the manifest. The Raw, Rle and Delta4 pins are the PR 18
//! recordings, untouched.
//!
//! CI also runs this file under `taskset -c 0`.

use drai_io::checksum::{content_hash128, crc32c, hash_hex};
use drai_io::codec::CodecId;
use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::{MemSink, StorageSink};

const TARGET_SHARD_BYTES: usize = 300_000;

/// Record `i` of the fixture: four textures, so every codec has records
/// it shrinks and records it cannot.
fn record(i: usize, len: usize) -> Vec<u8> {
    let mut state = (i as u32).wrapping_mul(2_654_435_761) | 1;
    (0..len)
        .map(|j| match i % 4 {
            // Runs of 37 equal bytes.
            0 => (j / 37 + i) as u8,
            // Noise.
            1 => {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            }
            // A slowly rising little-endian u32 series.
            2 => ((i * 1000 + j / 4 * 3) as u32).to_le_bytes()[j % 4],
            _ => b"data readiness "[j % 15],
        })
        .collect()
}

/// The edge sizes, one record larger than a whole shard, then 9 000
/// 128-byte records (1.1 MiB: several writer runs, several shards).
fn fixture() -> Vec<Vec<u8>> {
    let mut lens = vec![0, 1, 127, 128, 16 << 10, TARGET_SHARD_BYTES + 4321, 0, 5];
    lens.resize(lens.len() + 9_000, 128);
    lens.extend([16 << 10, 1, 0]);
    lens.into_iter()
        .enumerate()
        .map(|(i, len)| record(i, len))
        .collect()
}

/// `(blob name, content_hash128)` of everything one write left in the sink.
fn written(codec: CodecId) -> Vec<(String, String)> {
    let sink = MemSink::new();
    let records = fixture();
    let prefix = format!("pin-{}", codec.name());
    let spec = ShardSpec::new(prefix.clone(), TARGET_SHARD_BYTES).with_codec(codec);
    let manifest = ShardWriter::new(spec, &sink).write_all(&records).unwrap();
    assert_eq!(manifest.total_records as usize, records.len());
    // The writer derives a file's CRC from the record CRCs in its headers
    // and never hashes the file: it must be the file's CRC all the same.
    for shard in &manifest.shards {
        let file = sink.read_file(&shard.name).unwrap();
        assert_eq!(shard.bytes as usize, file.len(), "{}", shard.name);
        assert_eq!(shard.crc32c, crc32c(&file), "{}", shard.name);
    }
    assert_eq!(
        ShardReader::open(&prefix, &sink)
            .unwrap()
            .read_all()
            .unwrap(),
        records
    );
    let mut names = sink.list().unwrap();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let hash = hash_hex(&content_hash128(&sink.read_file(&name).unwrap()));
            (name, hash)
        })
        .collect()
}

fn check(codec: CodecId, pinned: &[(&str, &str)]) {
    let actual = written(codec);
    let listing: String = actual
        .iter()
        .map(|(name, hash)| format!("        (\"{name}\", \"{hash}\"),\n"))
        .collect();
    let same = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((name, hash), (pin_name, pin_hash))| name == pin_name && hash == pin_hash);
    assert!(
        same,
        "{} shard bytes moved; this write stored\n{listing}",
        codec.name()
    );
}

#[test]
fn raw_shard_bytes_are_pinned() {
    check(
        CodecId::Raw,
        &[
            ("pin-raw-00000.shard", "ba004098f72b42c6968f7a43a83dc595"),
            ("pin-raw-00001.shard", "18912e62f0047af3e0aa3043f5bf8421"),
            ("pin-raw-00002.shard", "7c5bc866886ddd1beb5f99ded675d83e"),
            ("pin-raw-00003.shard", "2aee749a1f1e69fa0f464b6a37c4ef64"),
            ("pin-raw-00004.shard", "382da72722fb3e617e8a106d01f0672f"),
            ("pin-raw-00005.shard", "2af14881e4db676ae091ee1f28fcdadf"),
            ("pin-raw-00006.shard", "c62d4d76e9f98b54ba1bd2805df201e1"),
            ("pin-raw.manifest.json", "b8fcb1d764413b86658f129ecdcbd322"),
        ],
    );
}

#[test]
fn rle_shard_bytes_are_pinned() {
    check(
        CodecId::Rle,
        &[
            ("pin-rle-00000.shard", "6cc1e72e3dbbef54421979465c5684a0"),
            ("pin-rle-00001.shard", "c3aa45cbfc1b38eb5e932f4ae7dcd352"),
            ("pin-rle-00002.shard", "6876d14649d877d89ec96efcbfb1f364"),
            ("pin-rle-00003.shard", "d9495e25d76ea7d71c35b17ca04adaeb"),
            ("pin-rle-00004.shard", "56cf495f2f7e2cd0123a2423ae6bebc8"),
            ("pin-rle-00005.shard", "aef01230009797f46a4bf76cde6f2091"),
            ("pin-rle.manifest.json", "ddb4129488447888d9a44dc042f83711"),
        ],
    );
}

#[test]
fn lz_shard_bytes_are_pinned() {
    check(
        CodecId::Lz,
        &[
            ("pin-lz-00000.shard", "2903a0a9504b1c5dd51f5c58c492dfd6"),
            ("pin-lz-00001.shard", "87bf514d4da310f09c67c5e1e59c53d9"),
            ("pin-lz-00002.shard", "83a723540751ec2e214cd0c3640c47db"),
            ("pin-lz-00003.shard", "3a3ce7205589b9d74738922b704079e3"),
            ("pin-lz-00004.shard", "ba721e66ca980c5214fad661ed1fd7fa"),
            ("pin-lz.manifest.json", "b90a8f3894f6b6ddc16631043754618d"),
        ],
    );
}

#[test]
fn delta4_shard_bytes_are_pinned() {
    check(
        CodecId::Delta { width: 4 },
        &[
            ("pin-delta4-00000.shard", "5d7b74bc90a0c70b2f5722933c19d6e2"),
            ("pin-delta4-00001.shard", "f9a7b202a429577661c32c0c1728a946"),
            ("pin-delta4-00002.shard", "6bd2cbce557f8daf829b77a3e97e7ff1"),
            ("pin-delta4-00003.shard", "c1be540ae7f99675786067831441bd4a"),
            ("pin-delta4-00004.shard", "a4de9f3f195a5e565da91961403f1ea8"),
            ("pin-delta4-00005.shard", "3c8431a81a9dd4d8c59c12f0d26f926d"),
            (
                "pin-delta4.manifest.json",
                "ab75e443696e95e2e1b75aee55286bce",
            ),
        ],
    );
}
