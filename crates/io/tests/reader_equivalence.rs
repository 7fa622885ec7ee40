//! The shard reader against the reader it replaced.
//!
//! Up to PR 18 a shard was read in two passes — `crc32c` over the whole
//! file, then a walk that hashed every payload again and decoded each
//! record as it went. The reader now scans once (every payload hashed
//! once, the file CRC joined from the record CRCs) and decodes after. The
//! two-pass reader is kept below, word for word, as the reference: for
//! every codec and every way of damaging a shard listed in `damages`,
//! both must return the same records, the same error variant with the
//! same text, and the same `DamageReport`.
//!
//! This file passed at the parent commit (where reference and reader
//! were the same code) before the reader changed. Since then only the
//! reference's error constructors have changed, to `IoError`'s shape with
//! the blob in a field of its own.

use drai_io::checksum::{crc32c, masked_crc32c};
use drai_io::codec::{codec_for, CodecId};
use drai_io::shard::{
    parse_shard_partial, DamageReport, DamagedShard, ShardManifest, ShardReader, ShardSpec,
    ShardWriter,
};
use drai_io::sink::{MemSink, StorageSink};
use drai_io::IoError;

const CODECS: [CodecId; 4] = [
    CodecId::Raw,
    CodecId::Rle,
    CodecId::Lz,
    CodecId::Delta { width: 4 },
];

// ---- the reader as it was at PR 18 ---------------------------------

fn reference_parse_shard_partial(
    data: &[u8],
    name: &str,
    codec_id: CodecId,
) -> (Vec<Vec<u8>>, Option<IoError>) {
    let format = |what: String| {
        Some(IoError::Format {
            blob: name.to_string(),
            what,
        })
    };
    if data.len() < 12 || &data[..8] != b"DSHRD1\0\0" {
        return (Vec::new(), format("bad shard magic".to_string()));
    }
    let file_codec = match CodecId::from_tag(data[8]) {
        Ok(c) => c,
        Err(e) => return (Vec::new(), format(format!("codec tag: {e}"))),
    };
    if file_codec != codec_id {
        return (
            Vec::new(),
            format(format!(
                "codec mismatch (file={}, manifest={})",
                file_codec.name(),
                codec_id.name()
            )),
        );
    }
    let codec = codec_for(codec_id);
    let mut out = Vec::new();
    let mut pos = 12;
    while pos < data.len() {
        if pos + 8 > data.len() {
            return (out, format("truncated record header".to_string()));
        }
        let len =
            u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        pos += 8;
        if len > data.len() - pos {
            return (out, format("truncated record payload".to_string()));
        }
        let stored = &data[pos..pos + len];
        if masked_crc32c(stored) != crc {
            let at = format!("record {}", out.len());
            let blob = name.to_string();
            return (out, Some(IoError::ChecksumMismatch { blob, at }));
        }
        match codec.decode(stored) {
            Ok(decoded) => out.push(decoded),
            Err(source) => {
                let (blob, record) = (name.to_string(), out.len());
                return (
                    out,
                    Some(IoError::Codec {
                        blob,
                        record,
                        source,
                    }),
                );
            }
        }
        pos += len;
    }
    (out, None)
}

fn reference_read_shard(
    manifest: &ShardManifest,
    sink: &dyn StorageSink,
    index: usize,
) -> Result<Vec<Vec<u8>>, IoError> {
    let info = manifest.shards.get(index).ok_or_else(|| IoError::Format {
        blob: format!("{}.manifest.json", manifest.prefix),
        what: format!("shard index {index} out of range"),
    })?;
    let data = sink.read_file(&info.name)?;
    if crc32c(&data) != info.crc32c {
        return Err(IoError::ChecksumMismatch {
            blob: info.name.clone(),
            at: "the whole file".to_string(),
        });
    }
    match reference_parse_shard_partial(&data, &info.name, manifest.codec) {
        (records, None) => Ok(records),
        (_, Some(e)) => Err(e),
    }
}

fn reference_read_all(
    manifest: &ShardManifest,
    sink: &dyn StorageSink,
) -> Result<Vec<Vec<u8>>, IoError> {
    let mut out = Vec::new();
    for i in 0..manifest.shards.len() {
        out.extend(reference_read_shard(manifest, sink, i)?);
    }
    Ok(out)
}

fn reference_read_all_recovering(
    manifest: &ShardManifest,
    sink: &dyn StorageSink,
) -> (Vec<Vec<u8>>, DamageReport) {
    let mut records = Vec::new();
    let mut damage = DamageReport::default();
    for (index, info) in manifest.shards.iter().enumerate() {
        let mut quarantine = |recovered: Vec<Vec<u8>>, reason: String| {
            let lost = info.records.saturating_sub(recovered.len() as u64);
            damage.records_lost += lost;
            damage.damaged.push(DamagedShard {
                index,
                name: info.name.clone(),
                records_declared: info.records,
                records_recovered: recovered.len() as u64,
                reason,
            });
            recovered
        };
        match sink.read_file(&info.name) {
            Err(e) => {
                records.extend(quarantine(Vec::new(), format!("read failed: {e}")));
            }
            Ok(data) => {
                let file_ok = crc32c(&data) == info.crc32c;
                let (recs, err) = reference_parse_shard_partial(&data, &info.name, manifest.codec);
                let complete = err.is_none() && recs.len() as u64 == info.records;
                if file_ok && complete {
                    records.extend(recs);
                } else {
                    let reason = match err {
                        Some(e) => e.to_string(),
                        None if !file_ok => "shard file CRC mismatch".to_string(),
                        None => format!(
                            "record count mismatch (manifest {}, parsed {})",
                            info.records,
                            recs.len()
                        ),
                    };
                    records.extend(quarantine(recs, reason));
                }
            }
        }
    }
    (records, damage)
}

// ---- fixture and damage --------------------------------------------

/// Records every codec has work with: runs, noise, a rising u32 series,
/// text, an empty record and lengths that are not whole `u32`s (Delta4's
/// raw fallback).
fn fixture() -> Vec<Vec<u8>> {
    let mut state = 0x2545_F491u32;
    (0..72usize)
        .map(|i| {
            let len = [0, 3, 64, 200, 333, 512][i % 6];
            (0..len)
                .map(|j| match i % 4 {
                    0 => (j / 29 + i) as u8,
                    1 => {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        (state >> 24) as u8
                    }
                    2 => ((i * 1000 + j / 4 * 3) as u32).to_le_bytes()[j % 4],
                    _ => b"data readiness "[j % 15],
                })
                .collect()
        })
        .collect()
}

/// Offsets in a pristine shard file: each frame's start, and the end.
fn frame_starts(file: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 12;
    while pos < file.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(file[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    assert_eq!(pos, file.len());
    starts.push(pos);
    starts
}

/// Every damaged version of `file` the issue lists, with a label.
fn damages(file: &[u8], codec: CodecId) -> Vec<(String, Vec<u8>)> {
    let starts = frame_starts(file);
    let frames = starts.len() - 1;
    assert!(frames >= 4, "want several records in the damaged shard");
    let mut out = Vec::new();
    let mut flip = |label: String, at: usize, bit: u8| {
        let mut damaged = file.to_vec();
        damaged[at] ^= 1 << bit;
        out.push((format!("{label} (byte {at} bit {bit})"), damaged));
    };
    // The file header: magic, codec tag, reserved bytes.
    for at in [0, 7, 8, 9, 11] {
        flip("file header".into(), at, 0);
        flip("file header".into(), at, 6);
    }
    // First, a middle and the last record: length, CRC, payload.
    for frame in [0, frames / 2, frames - 1] {
        let start = starts[frame];
        let stored = starts[frame + 1] - start - 8;
        flip(format!("record {frame} length"), start, 0);
        flip(format!("record {frame} length"), start + 1, 3);
        flip(format!("record {frame} length"), start + 3, 7);
        flip(format!("record {frame} crc"), start + 4, 2);
        flip(format!("record {frame} crc"), start + 7, 7);
        if stored > 0 {
            flip(format!("record {frame} payload"), start + 8, 0);
            flip(format!("record {frame} payload"), start + 8 + stored / 2, 5);
            flip(format!("record {frame} payload"), start + 8 + stored - 1, 7);
        }
    }
    // Truncation at every frame boundary and one byte either side.
    for &boundary in &starts {
        for cut in [boundary.saturating_sub(1), boundary, boundary + 1] {
            if cut < file.len() {
                out.push((format!("truncated to {cut}"), file[..cut].to_vec()));
            }
        }
    }
    out.push(("truncated to 0".into(), Vec::new()));
    out.push(("truncated to 5".into(), file[..5].to_vec()));
    // Trailing garbage: a byte, less than a header, a header's worth that
    // frames nothing, and a well-formed empty frame with a wrong CRC.
    for garbage in [&[0u8][..], &[0xFF; 7], &[0xFF; 8], &[0; 8], &[0; 40]] {
        let mut damaged = file.to_vec();
        damaged.extend_from_slice(garbage);
        out.push((format!("{} trailing bytes", garbage.len()), damaged));
    }
    // The tag of another codec, and a tag nobody has.
    for tag in [0u8, 1, 4, 7, 6, 200] {
        if tag != codec.tag() {
            let mut damaged = file.to_vec();
            damaged[8] = tag;
            out.push((format!("codec tag {tag}"), damaged));
        }
    }
    out
}

/// `Ok(records)` or the error's variant and text, comparable.
fn verdict(result: Result<Vec<Vec<u8>>, IoError>) -> Result<Vec<Vec<u8>>, String> {
    result.map_err(|e| format!("{e:?}"))
}

/// All four read paths, reader against reference, over what `sink` holds.
fn assert_same_reads(prefix: &str, sink: &MemSink, what: &str) {
    let reader = ShardReader::open(prefix, sink).unwrap();
    let manifest = reader.manifest().clone();
    for index in 0..=manifest.shards.len() {
        assert_eq!(
            verdict(reader.read_shard(index)),
            verdict(reference_read_shard(&manifest, sink, index)),
            "{what}: read_shard({index})"
        );
    }
    assert_eq!(
        verdict(reader.read_all()),
        verdict(reference_read_all(&manifest, sink)),
        "{what}: read_all"
    );
    for info in &manifest.shards {
        let Ok(data) = sink.read_file(&info.name) else {
            continue;
        };
        let (records, error) = parse_shard_partial(&data, &info.name, manifest.codec);
        let (want_records, want_error) =
            reference_parse_shard_partial(&data, &info.name, manifest.codec);
        assert_eq!(records, want_records, "{what}: parse_shard_partial records");
        assert_eq!(
            format!("{error:?}"),
            format!("{want_error:?}"),
            "{what}: parse_shard_partial error"
        );
    }
    let recovered = reader.read_all_recovering();
    let (want_records, want_damage) = reference_read_all_recovering(&manifest, sink);
    assert_eq!(
        recovered.records, want_records,
        "{what}: read_all_recovering records"
    );
    assert_eq!(
        format!("{:?}", recovered.damage),
        format!("{want_damage:?}"),
        "{what}: DamageReport"
    );
}

#[test]
fn every_read_path_agrees_with_the_two_pass_reader_on_damaged_shards() {
    let records = fixture();
    let mut cases = 0;
    for codec in CODECS {
        let prefix = format!("eq-{}", codec.name());
        let sink = MemSink::new();
        let manifest = ShardWriter::new(
            ShardSpec::new(prefix.clone(), 2_000).with_codec(codec),
            &sink,
        )
        .write_all(&records)
        .unwrap();
        assert!(manifest.shards.len() >= 3, "{codec:?}: want a middle shard");
        assert_same_reads(&prefix, &sink, &format!("{codec:?} intact"));
        assert_eq!(
            ShardReader::open(&prefix, &sink)
                .unwrap()
                .read_all()
                .unwrap(),
            records
        );

        let victim = manifest.shards[1].name.clone();
        let pristine = sink.read_file(&victim).unwrap();
        for (label, damaged) in damages(&pristine, codec) {
            sink.write_file(&victim, &damaged).unwrap();
            assert_same_reads(&prefix, &sink, &format!("{codec:?} {label}"));
            cases += 1;
        }
        sink.write_file(&victim, &pristine).unwrap();

        // A shard that is not there at all.
        sink.delete(&victim).unwrap();
        assert_same_reads(&prefix, &sink, &format!("{codec:?} missing shard"));
        sink.write_file(&victim, &pristine).unwrap();

        // Intact records under a manifest whose file CRC is off by one,
        // and one whose record count is.
        let manifest_name = format!("{prefix}.manifest.json");
        let manifest_text = String::from_utf8(sink.read_file(&manifest_name).unwrap()).unwrap();
        let info = &manifest.shards[1];
        for (label, from, to) in [
            (
                "manifest crc + 1",
                format!("\"crc32c\":{}", info.crc32c),
                format!("\"crc32c\":{}", info.crc32c.wrapping_add(1)),
            ),
            (
                "manifest records + 1",
                format!("\"name\":\"{victim}\",\"records\":{}", info.records),
                format!("\"name\":\"{victim}\",\"records\":{}", info.records + 1),
            ),
        ] {
            let forged = manifest_text.replacen(&from, &to, 1);
            assert_ne!(forged, manifest_text, "{label}: replacement must hit");
            sink.write_file(&manifest_name, forged.as_bytes()).unwrap();
            assert_same_reads(&prefix, &sink, &format!("{codec:?} {label}"));
            // Both at once: a damaged record under the forged manifest.
            let mut damaged = pristine.clone();
            let last = damaged.len() - 1;
            damaged[last] ^= 0x10;
            sink.write_file(&victim, &damaged).unwrap();
            assert_same_reads(&prefix, &sink, &format!("{codec:?} {label} + payload flip"));
            sink.write_file(&victim, &pristine).unwrap();
            cases += 2;
        }
        sink.write_file(&manifest_name, manifest_text.as_bytes())
            .unwrap();
    }
    assert!(cases > 300, "only {cases} damaged shards compared");
}

#[test]
fn a_record_that_will_not_decode_comes_before_a_later_crc_failure() {
    // Hand-built Delta4 shard: record 0 fine, record 1 a stream that
    // passes its CRC and cannot decode, record 2 with a wrong CRC. The
    // two-pass reader met the decode failure first; so must the scan.
    let good = codec_for(CodecId::Delta { width: 4 }).encode(&[1, 0, 0, 0, 2, 0, 0, 0]);
    let undecodable = [0x7Eu8, 1, 2, 3];
    let mut file = b"DSHRD1\0\0\x04\0\0\0".to_vec();
    for (stored, crc_off_by) in [(&good[..], 0u32), (&undecodable[..], 0), (&good[..], 1)] {
        file.extend_from_slice(&(stored.len() as u32).to_le_bytes());
        file.extend_from_slice(&masked_crc32c(stored).wrapping_add(crc_off_by).to_le_bytes());
        file.extend_from_slice(stored);
    }
    let codec = CodecId::Delta { width: 4 };
    let (records, error) = parse_shard_partial(&file, "mixed", codec);
    let (want_records, want_error) = reference_parse_shard_partial(&file, "mixed", codec);
    assert_eq!(records, want_records);
    assert_eq!(records.len(), 1);
    assert_eq!(format!("{error:?}"), format!("{want_error:?}"));
    assert!(
        matches!(error, Some(IoError::Codec { record: 1, .. })),
        "{error:?}"
    );
}
