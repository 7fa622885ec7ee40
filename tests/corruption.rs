//! Adversarial corruption suite: flip bytes in shard headers, record
//! CRCs, record payloads, and manifest JSON — across every codec — and
//! assert the damage is always *detected* (strict reader errors) or
//! *quarantined* (recovering reader reports it), and that no corrupted
//! record bytes ever escape, and nothing ever panics.
//!
//! The integrity invariant under test: every record returned by any
//! read path is byte-identical to a record that was originally written.
//! CRC framing may lose data under corruption; it must never fabricate
//! or silently alter it.

use drai::io::checksum::{crc32c, masked_crc32c};
use drai::io::codec::{CodecError, CodecId};
use drai::io::shard::{parse_shard, ShardInfo, ShardManifest, ShardReader, ShardSpec, ShardWriter};
use drai::io::sink::{MemSink, StorageSink};
use drai::io::IoError;
use std::collections::HashSet;

const CODECS: [CodecId; 4] = [
    CodecId::Raw,
    CodecId::Rle,
    CodecId::Delta { width: 1 },
    CodecId::Lz,
];

/// Mixed-entropy records: compressible runs plus pseudo-random tails so
/// every codec has real work to do.
fn records(n: usize, size: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            (0..size)
                .map(|j| {
                    if j < size / 2 {
                        (i % 7) as u8
                    } else {
                        ((i * 2654435761 + j * 40503) >> 7) as u8
                    }
                })
                .collect()
        })
        .collect()
}

fn build(codec: CodecId) -> (MemSink, Vec<Vec<u8>>, String) {
    let prefix = format!("adv-{}", codec.name());
    let sink = MemSink::new();
    let recs = records(24, 512);
    ShardWriter::new(
        ShardSpec::new(prefix.clone(), 4096).with_codec(codec),
        &sink,
    )
    .write_all(&recs)
    .unwrap();
    (sink, recs, prefix)
}

/// Assert the integrity invariant for one corrupted blob state: strict
/// read errors or matches the original; recovering read never panics,
/// never returns a byte-altered record, and reports any loss.
fn assert_detected_or_quarantined(
    sink: &MemSink,
    prefix: &str,
    originals: &[Vec<u8>],
    must_detect: bool,
    what: &str,
) {
    let original_set: HashSet<&[u8]> = originals.iter().map(Vec::as_slice).collect();
    match ShardReader::open(prefix, sink) {
        Err(_) => {} // manifest damage detected at open
        Ok(reader) => {
            // Strict path: complete success must mean identical data.
            if let Ok(recs) = reader.read_all() {
                if must_detect {
                    assert_eq!(recs, originals, "{what}: strict read returned altered data");
                }
            }
            // Recovering path: must not panic; returned records must be
            // genuine; losses must be accounted.
            let recovered = reader.read_all_recovering();
            for rec in &recovered.records {
                assert!(
                    original_set.contains(rec.as_slice()),
                    "{what}: recovering read fabricated record bytes"
                );
            }
            if recovered.records.len() < originals.len() {
                assert!(
                    !recovered.damage.is_clean(),
                    "{what}: records lost without a damage report"
                );
            }
        }
    }
}

#[test]
fn shard_body_corruption_every_codec() {
    for codec in CODECS {
        let (sink, recs, prefix) = build(codec);
        let shard_name = format!("{prefix}-00001.shard");
        let pristine = sink.read_file(&shard_name).unwrap();

        // Byte offsets attacking each structural region: magic, codec
        // tag, reserved padding, first record length, first record CRC,
        // and payload bytes at several depths.
        let mut targets = vec![0usize, 8, 9, 12, 16];
        targets.extend([20, pristine.len() / 2, pristine.len() - 1]);
        for &off in &targets {
            for bit in [0u8, 3, 7] {
                let mut damaged = pristine.clone();
                damaged[off] ^= 1 << bit;
                sink.write_file(&shard_name, &damaged).unwrap();

                let reader = ShardReader::open(&prefix, &sink).unwrap();
                // The whole-file CRC catches *every* single-bit flip on
                // the strict path.
                let idx = 1;
                assert!(
                    reader.read_shard(idx).is_err(),
                    "{codec:?}: flip at {off} bit {bit} undetected by strict read"
                );
                assert_detected_or_quarantined(
                    &sink,
                    &prefix,
                    &recs,
                    true,
                    &format!("{codec:?} flip at {off} bit {bit}"),
                );
                sink.write_file(&shard_name, &pristine).unwrap();
            }
        }

        // Truncations at awkward places: mid-header, mid-record-frame,
        // one byte short.
        for cut in [4usize, 13, pristine.len() - 1] {
            sink.write_file(&shard_name, &pristine[..cut]).unwrap();
            let reader = ShardReader::open(&prefix, &sink).unwrap();
            assert!(reader.read_shard(1).is_err(), "{codec:?}: cut {cut}");
            assert_detected_or_quarantined(&sink, &prefix, &recs, true, "truncation");
            sink.write_file(&shard_name, &pristine).unwrap();
        }
    }
}

#[test]
fn manifest_corruption_never_panics_or_fabricates() {
    for codec in CODECS {
        let (sink, recs, prefix) = build(codec);
        let manifest_name = format!("{prefix}.manifest.json");
        let pristine = sink.read_file(&manifest_name).unwrap();

        // Flip one bit in every byte of the manifest JSON. Each variant
        // must parse-fail, quarantine, or (for flips in advisory fields
        // like total_records) still never fabricate record bytes.
        for off in 0..pristine.len() {
            let mut damaged = pristine.clone();
            damaged[off] ^= 0x10;
            sink.write_file(&manifest_name, &damaged).unwrap();
            assert_detected_or_quarantined(
                &sink,
                &prefix,
                &recs,
                false,
                &format!("{codec:?} manifest flip at {off}"),
            );
            sink.write_file(&manifest_name, &pristine).unwrap();
        }

        // Wholesale structural damage.
        for garbage in [
            &b""[..],
            b"{",
            b"null",
            b"[1,2,3]",
            b"{\"format\":\"nope\"}",
        ] {
            sink.write_file(&manifest_name, garbage).unwrap();
            assert!(
                ShardReader::open(&prefix, &sink).is_err(),
                "{codec:?}: garbage manifest accepted"
            );
            sink.write_file(&manifest_name, &pristine).unwrap();
        }
    }
}

#[test]
fn parse_shard_rejects_hostile_inputs_without_panicking() {
    // Raw fuzz-ish structural attacks on the body parser, including a
    // record length field pointing far past the buffer.
    let cases: Vec<Vec<u8>> = vec![
        vec![],
        b"DSHRD1\0".to_vec(),             // short magic
        b"DSHRD1\0\0".to_vec(),           // no codec tag
        b"DSHRD1\0\0\x00\0\0\0".to_vec(), // header only (valid, empty)
        b"DSHRD1\0\0\xEE\0\0\0".to_vec(), // unknown codec tag
        {
            // Length field = u32::MAX with a tiny payload.
            let mut v = b"DSHRD1\0\0\x00\0\0\0".to_vec();
            v.extend_from_slice(&u32::MAX.to_le_bytes());
            v.extend_from_slice(&0u32.to_le_bytes());
            v.extend_from_slice(b"tiny");
            v
        },
    ];
    for (i, data) in cases.iter().enumerate() {
        let result = parse_shard(data, "hostile", CodecId::Raw);
        match i {
            3 => assert!(matches!(&result, Ok(r) if r.is_empty()), "case {i}"),
            _ => assert!(result.is_err(), "case {i} accepted: {result:?}"),
        }
    }
    // A record whose CRC is right and whose content is a decode bomb: a
    // delta stream of six bytes declaring 2²⁸ elements (1 GiB at width
    // 4, exactly the decode limit). It must be refused as truncated —
    // every element takes a byte — not answered with a 1 GiB reservation.
    let bomb = [0x01, 0x80, 0x80, 0x80, 0x80, 0x01];
    let mut shard = b"DSHRD1\0\0\x04\0\0\0".to_vec(); // tag 4: delta4
    shard.extend_from_slice(&(bomb.len() as u32).to_le_bytes());
    shard.extend_from_slice(&masked_crc32c(&bomb).to_le_bytes());
    shard.extend_from_slice(&bomb);
    match parse_shard(&shard, "bomb", CodecId::Delta { width: 4 }) {
        Err(IoError::Codec {
            source: CodecError::Truncated,
            ..
        }) => {}
        other => panic!("delta bomb: {other:?}"),
    }
    // Codec disagreement between manifest and file is structural damage.
    let (sink, _, prefix) = build(CodecId::Rle);
    let data = sink.read_file(&format!("{prefix}-00000.shard")).unwrap();
    assert!(matches!(
        parse_shard(&data, "x", CodecId::Raw),
        Err(IoError::Format { .. })
    ));
}

/// A record that passes its CRC and still will not decode is named by
/// its shard and its index there, so the failure leads back to the bytes.
#[test]
fn an_undecodable_record_names_its_shard_and_index() {
    // Delta4 shard: records 0 and 2 decode, record 1 is a stream with a
    // valid CRC and an unknown tag. The manifest is consistent with it.
    let codec = CodecId::Delta { width: 4 };
    let good = drai::io::codec::codec_for(codec).encode(&[1, 0, 0, 0, 2, 0, 0, 0]);
    let mut file = b"DSHRD1\0\0\x04\0\0\0".to_vec();
    for stored in [&good[..], &[0x7E, 1, 2, 3], &good[..]] {
        file.extend_from_slice(&(stored.len() as u32).to_le_bytes());
        file.extend_from_slice(&masked_crc32c(stored).to_le_bytes());
        file.extend_from_slice(stored);
    }
    let sink = MemSink::new();
    let name = "undecodable-00000.shard";
    sink.write_file(name, &file).unwrap();
    let manifest = ShardManifest {
        prefix: "undecodable".to_string(),
        codec,
        shards: vec![ShardInfo {
            name: name.to_string(),
            records: 3,
            bytes: file.len() as u64,
            crc32c: crc32c(&file),
        }],
        total_records: 3,
        payload_bytes: 24,
    };
    let json = manifest.to_json().to_string_compact();
    sink.write_file("undecodable.manifest.json", json.as_bytes())
        .unwrap();
    let err = ShardReader::open("undecodable", &sink)
        .unwrap()
        .read_all()
        .unwrap_err();
    match &err {
        IoError::Codec { blob, record, .. } => assert_eq!((blob.as_str(), *record), (name, 1)),
        other => panic!("{other:?}"),
    }
    assert!(
        err.to_string()
            .starts_with("undecodable-00000.shard: record 1: "),
        "{err}"
    );
}

/// A text decoder is held to the same rule as the shard parser: a
/// count the input cannot back is an error, never an index past the
/// buffer or a reservation sized by the attacker. (`usize::MAX` atoms
/// used to wrap the truncation check and abort in `with_capacity`.)
#[test]
fn parse_xyz_rejects_hostile_atom_counts_without_panicking() {
    use drai::formats::xyz::parse_xyz;
    let cases = [
        format!("{}\nc\nH 0 0 0\n", usize::MAX),
        format!("{}\nc\nH 0 0 0\n", usize::MAX - 1),
        format!("{}\nc\n", u64::MAX),
        "99999999999999999999\nc\nH 0 0 0\n".to_string(), // does not fit usize
        "2\nc\nH 0 0 0\n".to_string(),
        "1\nc\nH 0 0 0\n4\nc\nH 0 0 0\n".to_string(),
    ];
    for text in &cases {
        let err = parse_xyz(text).expect_err(text).to_string();
        assert!(
            err.contains("truncated") || err.contains("expected atom count"),
            "{text:?}: {err}"
        );
    }
}

/// The NetCDF decoder likewise: every count and size in the header is
/// the attacker's, and each is held against the bytes present before a
/// buffer is sized by it. (`numrecs` patched to 2³¹−1 in a 16 KiB file
/// used to abort in `with_capacity(numrecs * slab_bytes)`: 16 TiB.)
#[test]
fn netcdf_rejects_hostile_counts_without_reserving_for_them() {
    use drai::formats::netcdf::{NcDim, NcFile, NcValues, NcVar};
    use drai::formats::FormatError;

    let dim = |name: &str, size: usize, is_record: bool| NcDim {
        name: name.into(),
        size,
        is_record,
    };
    let var = |name: &str, dims: &[usize], data: NcValues| NcVar {
        name: name.into(),
        dims: dims.to_vec(),
        attrs: vec![],
        data,
    };
    // ≈ 16 KiB: four records of a 16 × 32 double field beside a short
    // record variable, and a fixed coordinate.
    let valid = NcFile {
        dims: vec![dim("t", 4, true), dim("y", 16, false), dim("x", 32, false)],
        global_attrs: vec![],
        vars: vec![
            var(
                "field",
                &[0, 1, 2],
                NcValues::Double((0..4 * 16 * 32).map(|i| i as f64).collect()),
            ),
            var("step", &[0], NcValues::Int(vec![0, 6, 12, 18])),
            var(
                "x",
                &[2],
                NcValues::Float((0..32).map(|i| i as f32).collect()),
            ),
        ],
    }
    .to_bytes()
    .unwrap();
    assert!((16_000..17_000).contains(&valid.len()));
    assert!(NcFile::from_bytes(&valid).is_ok());

    // Header layout: magic, numrecs, dim tag, dim count, then per
    // dimension a 4-byte name length, the padded name and the size; all
    // three names here are one byte, padded to four.
    const NUMRECS: usize = 4;
    const DIM_COUNT: usize = 12;
    const DIM_Y_SIZE: usize = 16 + 12 + 8;
    const DIM_X_SIZE: usize = DIM_Y_SIZE + 12;
    const VAR_COUNT: usize = DIM_X_SIZE + 4 + 8 + 4;
    assert_eq!(&valid[DIM_Y_SIZE..DIM_Y_SIZE + 4], &16u32.to_be_bytes());
    assert_eq!(&valid[DIM_X_SIZE..DIM_X_SIZE + 4], &32u32.to_be_bytes());
    assert_eq!(&valid[VAR_COUNT..VAR_COUNT + 4], &3u32.to_be_bytes());
    // The first variable: name length, "field" padded to eight, ndims.
    const FIELD_NDIMS: usize = VAR_COUNT + 4 + 4 + 8;
    assert_eq!(&valid[FIELD_NDIMS..FIELD_NDIMS + 4], &3u32.to_be_bytes());
    let patched = |edits: &[(usize, u32)]| {
        let mut bytes = valid.clone();
        for &(at, value) in edits {
            bytes[at..at + 4].copy_from_slice(&value.to_be_bytes());
        }
        bytes
    };

    let cases: [(&str, Vec<u8>); 9] = [
        ("numrecs 2^31-1", patched(&[(NUMRECS, 0x7FFF_FFFF)])),
        ("numrecs 2^32-1", patched(&[(NUMRECS, u32::MAX)])),
        ("one more record than stored", patched(&[(NUMRECS, 5)])),
        (
            "numrecs x slab overflows",
            patched(&[
                (NUMRECS, u32::MAX),
                (DIM_Y_SIZE, u32::MAX),
                (DIM_X_SIZE, u32::MAX),
            ]),
        ),
        (
            "slab bytes overflow",
            patched(&[(DIM_Y_SIZE, u32::MAX), (DIM_X_SIZE, u32::MAX)]),
        ),
        (
            "fixed variable of 2^32-1 values",
            patched(&[(DIM_X_SIZE, u32::MAX)]),
        ),
        ("2^32-1 dimensions", patched(&[(DIM_COUNT, u32::MAX)])),
        ("2^32-1 variables", patched(&[(VAR_COUNT, u32::MAX)])),
        ("2^32-1 dimension ids", patched(&[(FIELD_NDIMS, u32::MAX)])),
    ];
    for (what, bytes) in &cases {
        match NcFile::from_bytes(bytes) {
            Err(FormatError::Malformed { .. }) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
    // Counts with nothing behind them at all.
    for list_tag in [0x0Au32, 0x0C, 0x0B] {
        let mut bytes = b"CDF\x01\0\0\0\0".to_vec();
        // Absent lists before the one under attack.
        for _ in 0..[0x0A, 0x0C, 0x0B]
            .iter()
            .position(|&t| t == list_tag)
            .unwrap()
        {
            bytes.extend_from_slice(&[0; 8]);
        }
        bytes.extend_from_slice(&list_tag.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        match NcFile::from_bytes(&bytes) {
            Err(FormatError::Malformed { .. }) => {}
            other => panic!("list {list_tag:#x} of 2^32-1 entries: {other:?}"),
        }
    }
}
