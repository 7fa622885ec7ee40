//! Property tests on the binary container formats: arbitrary-content
//! round-trips and no-panic guarantees on malformed input.

use drai_formats::bp::{BpReader, BpVar, BpWriter, ProcessGroup};
use drai_formats::example::{Example, Feature, FeatureRef};
use drai_formats::fasta::{parse_fasta, write_fasta, FastaRecord};
use drai_formats::h5lite::{Dataset, H5File};
use drai_formats::netcdf::NcFile;
use drai_formats::xyz::{parse_xyz, write_xyz, Atom, Frame};
use drai_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #[test]
    fn h5lite_tensor_round_trip(
        rows in 0usize..20, cols in 1usize..8, chunk in 1usize..10,
        values_seed in any::<u64>()) {
        let mut state = values_seed | 1;
        let data: Vec<f64> = (0..rows * cols).map(|_| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            f64::from_bits((state >> 12) | 0x3FF0_0000_0000_0000) - 1.5
        }).collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let mut f = H5File::new();
        f.put_dataset("/g/x", Dataset::from_tensor(&t, chunk)).unwrap();
        let back = H5File::from_bytes(&f.to_bytes()).unwrap();
        let rt: Tensor<f64> = back.tensor("/g/x").unwrap();
        prop_assert_eq!(rt.to_le_bytes(), t.to_le_bytes());
    }

    #[test]
    fn h5lite_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = H5File::from_bytes(&data);
    }

    #[test]
    fn bp_round_trip(groups in 0usize..6, vars in 1usize..4, n in 1usize..32) {
        let mut w = BpWriter::new();
        let mut expect = Vec::new();
        for g in 0..groups {
            let pg = ProcessGroup {
                name: format!("g{g}"),
                step: g as u64,
                vars: (0..vars)
                    .map(|v| {
                        let t = Tensor::from_fn(&[n], |k| (g * 31 + v * 7 + k) as i64);
                        BpVar::from_tensor(&format!("v{v}"), &t)
                    })
                    .collect(),
            };
            w.append(&pg);
            expect.push(pg);
        }
        let bytes = w.finish();
        let r = BpReader::open(&bytes).unwrap();
        prop_assert_eq!(r.read_all().unwrap(), expect);
    }

    #[test]
    fn bp_open_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = BpReader::open(&data);
    }

    #[test]
    fn netcdf_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = NcFile::from_bytes(&data);
    }

    #[test]
    fn example_round_trip_arbitrary_features(
        floats in proptest::collection::vec(any::<f32>(), 0..32),
        ints in proptest::collection::vec(any::<i64>(), 0..32),
        blob in proptest::collection::vec(any::<u8>(), 0..64)) {
        let ex = Example::new()
            .with_floats("f", floats.clone())
            .with_ints("i", ints.clone())
            .with_bytes("b", vec![blob.clone()]);
        let back = Example::decode(&ex.encode()).unwrap();
        // Floats compared bitwise (NaN-safe).
        match (&back.features["f"], &Feature::Floats(floats)) {
            (Feature::Floats(a), Feature::Floats(b)) => {
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => prop_assert!(false, "float feature lost"),
        }
        prop_assert_eq!(back.ints("i").unwrap(), &ints[..]);
        prop_assert_eq!(&back.bytes("b").unwrap()[0], &blob);
    }

    #[test]
    fn fasta_round_trip(seqs in proptest::collection::vec("[ACGTN]{0,80}", 1..6),
                        width in 1usize..30) {
        let records: Vec<FastaRecord> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| FastaRecord {
                header: format!("seq{i}"),
                sequence: s.clone(),
            })
            .collect();
        let text = write_fasta(&records, width);
        prop_assert_eq!(parse_fasta(&text).unwrap(), records);
    }

    #[test]
    fn xyz_round_trip(natoms in 1usize..10, seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        let frame = Frame {
            atoms: (0..natoms)
                .map(|i| Atom {
                    element: ["H", "C", "O", "Si"][i % 4].to_string(),
                    position: [rand(), rand(), rand()],
                    force: Some([rand(), rand(), rand()]),
                })
                .collect(),
            properties: [("energy".to_string(), "-1.25".to_string())]
                .into_iter()
                .collect(),
        };
        let text = write_xyz(std::slice::from_ref(&frame));
        let back = parse_xyz(&text).unwrap();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].atoms.len(), natoms);
        for (a, b) in back[0].atoms.iter().zip(&frame.atoms) {
            prop_assert_eq!(&a.element, &b.element);
            for c in 0..3 {
                prop_assert!((a.position[c] - b.position[c]).abs() < 1e-7);
                prop_assert!((a.force.unwrap()[c] - b.force.unwrap()[c]).abs() < 1e-7);
            }
        }
    }
}

// ---- the writers and the xyz parser as they were at PR 20 -----------
//
// PR 21 rewrote `write_xyz` (an exact fixed-point float writer in place
// of one `format!` per coordinate), `Example::encode` (one sized pass in
// place of five nested `Vec`s), `BpWriter` and `H5File::to_bytes` (bytes
// written where they are stored, CRC over the stored range) and
// `parse_xyz` (a line cursor and a token array in place of three kinds of
// `Vec`). The code they replaced is kept below as the reference: every
// stored byte, every parsed `Frame` and every error string must be the
// same. These tests passed at the parent commit, where reference and
// library were the same code, before the library changed.

use drai_formats::h5lite::AttrValue;
use drai_io::checksum::crc32c;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Uniform in [-1, 1).
fn unit(rng: &mut SmallRng) -> f64 {
    rng.gen::<f64>() * 2.0 - 1.0
}

fn reference_write_xyz(frames: &[Frame]) -> String {
    let mut out = String::new();
    for f in frames {
        out.push_str(&f.atoms.len().to_string());
        out.push('\n');
        let mut first = true;
        for (k, v) in &f.properties {
            if !first {
                out.push(' ');
            }
            first = false;
            if v.contains(' ') || v.is_empty() {
                out.push_str(&format!("{k}=\"{v}\""));
            } else {
                out.push_str(&format!("{k}={v}"));
            }
        }
        out.push('\n');
        for a in &f.atoms {
            out.push_str(&a.element);
            for c in a.position {
                out.push_str(&format!(" {c:.8}"));
            }
            if let Some(force) = a.force {
                for c in force {
                    out.push_str(&format!(" {c:.8}"));
                }
            }
            out.push('\n');
        }
    }
    out
}

fn reference_parse_xyz(text: &str) -> Result<Vec<Frame>, String> {
    let malformed = |detail: String| format!("malformed xyz: {detail}");
    let lines: Vec<&str> = text.lines().map(|l| l.trim_end_matches('\r')).collect();
    let mut frames = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim().is_empty() {
            i += 1;
            continue;
        }
        let natoms: usize = lines[i]
            .trim()
            .parse()
            .map_err(|_| malformed(format!("line {}: expected atom count", i + 1)))?;
        if i + 1 >= lines.len() {
            return Err(malformed("missing comment line".into()));
        }
        let properties = reference_parse_properties(lines[i + 1]);
        if i + 2 + natoms > lines.len() {
            return Err(malformed(format!(
                "frame at line {} truncated: wants {natoms} atoms",
                i + 1
            )));
        }
        let mut atoms = Vec::with_capacity(natoms);
        for (k, raw) in lines[i + 2..i + 2 + natoms].iter().enumerate() {
            let cols: Vec<&str> = raw.split_whitespace().collect();
            if cols.len() != 4 && cols.len() != 7 {
                return Err(malformed(format!(
                    "line {}: expected 4 or 7 columns, got {}",
                    i + 3 + k,
                    cols.len()
                )));
            }
            let parse = |s: &str, what: &str| -> Result<f64, String> {
                s.parse()
                    .map_err(|_| malformed(format!("line {}: bad {what} {s:?}", i + 3 + k)))
            };
            let position = [
                parse(cols[1], "x")?,
                parse(cols[2], "y")?,
                parse(cols[3], "z")?,
            ];
            let force = if cols.len() == 7 {
                Some([
                    parse(cols[4], "fx")?,
                    parse(cols[5], "fy")?,
                    parse(cols[6], "fz")?,
                ])
            } else {
                None
            };
            atoms.push(Atom {
                element: cols[0].to_string(),
                position,
                force,
            });
        }
        frames.push(Frame { atoms, properties });
        i += 2 + natoms;
    }
    Ok(frames)
}

fn reference_parse_properties(line: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        let key_start = i;
        while i < chars.len() && chars[i] != '=' && !chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() || chars[i] != '=' {
            continue;
        }
        let key: String = chars[key_start..i].iter().collect();
        i += 1;
        let value = if i < chars.len() && chars[i] == '"' {
            i += 1;
            let start = i;
            while i < chars.len() && chars[i] != '"' {
                i += 1;
            }
            let v: String = chars[start..i].iter().collect();
            i += 1;
            v
        } else {
            let start = i;
            while i < chars.len() && !chars[i].is_whitespace() {
                i += 1;
            }
            chars[start..i].iter().collect()
        };
        if !key.is_empty() {
            out.insert(key, value);
        }
    }
    out
}

fn reference_uvarint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A length-delimited field (wire type 2).
fn reference_bytes_field(out: &mut Vec<u8>, field: u32, data: &[u8]) {
    reference_uvarint(out, (u64::from(field) << 3) | 2);
    reference_uvarint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// The nested encoder: one `Vec` per list, feature, map entry and message.
fn reference_encode(example: &Example) -> Vec<u8> {
    let mut features_msg = Vec::new();
    for (name, feature) in &example.features {
        let mut fmsg = Vec::new();
        match feature {
            Feature::Bytes(items) => {
                let mut list = Vec::new();
                for item in items {
                    reference_bytes_field(&mut list, 1, item);
                }
                reference_bytes_field(&mut fmsg, 1, &list);
            }
            Feature::Floats(items) => {
                let mut payload = Vec::new();
                for v in items {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                let mut list = Vec::new();
                reference_bytes_field(&mut list, 1, &payload);
                reference_bytes_field(&mut fmsg, 2, &list);
            }
            Feature::Ints(items) => {
                let mut payload = Vec::new();
                for &v in items {
                    reference_uvarint(&mut payload, v as u64);
                }
                let mut list = Vec::new();
                reference_bytes_field(&mut list, 1, &payload);
                reference_bytes_field(&mut fmsg, 3, &list);
            }
        }
        let mut entry = Vec::new();
        reference_bytes_field(&mut entry, 1, name.as_bytes());
        reference_bytes_field(&mut entry, 2, &fmsg);
        reference_bytes_field(&mut features_msg, 1, &entry);
    }
    let mut out = Vec::new();
    reference_bytes_field(&mut out, 1, &features_msg);
    out
}

fn reference_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// `BpWriter::append` per group (a `body` buffer, hashed, then copied)
/// and `finish` (a `footer` buffer, hashed, then copied).
fn reference_bp(groups: &[ProcessGroup]) -> Vec<u8> {
    let mut buf = b"BPLT\x01".to_vec();
    let mut index = Vec::new();
    for group in groups {
        let offset = buf.len() as u64;
        let mut body = Vec::new();
        reference_str(&mut body, &group.name);
        body.extend_from_slice(&group.step.to_le_bytes());
        body.extend_from_slice(&(group.vars.len() as u32).to_le_bytes());
        for v in &group.vars {
            reference_str(&mut body, &v.name);
            body.push(v.dtype.code());
            body.extend_from_slice(&(v.shape.len() as u32).to_le_bytes());
            for &d in &v.shape {
                body.extend_from_slice(&(d as u64).to_le_bytes());
            }
            body.extend_from_slice(&(v.data.len() as u64).to_le_bytes());
            body.extend_from_slice(&v.data);
        }
        let crc = crc32c(&body);
        buf.extend_from_slice(&body);
        index.push((group, offset, body.len() as u64, crc));
    }
    let footer_offset = buf.len() as u64;
    let mut footer = Vec::new();
    footer.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for (group, offset, len, crc) in index {
        reference_str(&mut footer, &group.name);
        footer.extend_from_slice(&group.step.to_le_bytes());
        footer.extend_from_slice(&offset.to_le_bytes());
        footer.extend_from_slice(&len.to_le_bytes());
        footer.extend_from_slice(&crc.to_le_bytes());
        footer.extend_from_slice(&(group.vars.len() as u32).to_le_bytes());
        for v in &group.vars {
            reference_str(&mut footer, &v.name);
            footer.push(v.dtype.code());
            footer.extend_from_slice(&(v.shape.len() as u32).to_le_bytes());
            for &d in &v.shape {
                footer.extend_from_slice(&(d as u64).to_le_bytes());
            }
        }
    }
    let crc = crc32c(&footer);
    buf.extend_from_slice(&footer);
    buf.extend_from_slice(&footer_offset.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(b"BPLT");
    buf
}

/// `H5File::to_bytes`: payload chunk by chunk with a map of chunk
/// locations, then an `idx` buffer, hashed, then copied. `attrs` is what
/// the caller set on `file`, in the order it was set (the file does not
/// list its attributes).
fn reference_h5(file: &H5File, attrs: &[(&str, &str, AttrValue)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"H5LT\x01\0\0\0");
    out.extend_from_slice(&0u64.to_le_bytes());
    let mut chunk_locs: BTreeMap<&str, Vec<(u64, u64, u32)>> = BTreeMap::new();
    for path in file.paths() {
        let Some(ds) = file.dataset(path) else {
            continue;
        };
        let rows = ds.rows();
        let data = ds.row_range_bytes(0, rows).unwrap();
        let rb = data.len().checked_div(rows).unwrap_or(0);
        let mut locs = Vec::new();
        if ds.shape.is_empty() {
            locs.push((out.len() as u64, data.len() as u64, crc32c(data)));
            out.extend_from_slice(data);
        } else {
            let mut r = 0;
            while r < rows || (rows == 0 && r == 0) {
                let end = (r + ds.chunk_rows).min(rows);
                let bytes = &data[r * rb..end * rb];
                locs.push((out.len() as u64, bytes.len() as u64, crc32c(bytes)));
                out.extend_from_slice(bytes);
                if rows == 0 {
                    break;
                }
                r = end;
            }
        }
        chunk_locs.insert(path, locs);
    }
    let index_offset = out.len() as u64;
    let mut idx = Vec::new();
    idx.extend_from_slice(&(file.paths().len() as u32).to_le_bytes());
    for path in file.paths() {
        reference_str(&mut idx, path);
        let own: Vec<_> = attrs.iter().filter(|(p, _, _)| *p == path).collect();
        idx.extend_from_slice(&(own.len() as u32).to_le_bytes());
        for (_, name, value) in own {
            reference_str(&mut idx, name);
            match value {
                AttrValue::Text(s) => {
                    idx.push(0);
                    reference_str(&mut idx, s);
                }
                AttrValue::Int(i) => {
                    idx.push(1);
                    idx.extend_from_slice(&i.to_le_bytes());
                }
                AttrValue::Float(f) => {
                    idx.push(2);
                    idx.extend_from_slice(&f.to_le_bytes());
                }
                AttrValue::Bytes(b) => {
                    idx.push(3);
                    idx.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    idx.extend_from_slice(b);
                }
            }
        }
        match file.dataset(path) {
            None => idx.push(0),
            Some(ds) => {
                idx.push(1);
                idx.push(ds.dtype.code());
                idx.extend_from_slice(&(ds.shape.len() as u32).to_le_bytes());
                for &d in &ds.shape {
                    idx.extend_from_slice(&(d as u64).to_le_bytes());
                }
                idx.extend_from_slice(&(ds.chunk_rows as u64).to_le_bytes());
                let locs = &chunk_locs[path];
                idx.extend_from_slice(&(locs.len() as u32).to_le_bytes());
                for (off, len, crc) in locs {
                    idx.extend_from_slice(&off.to_le_bytes());
                    idx.extend_from_slice(&len.to_le_bytes());
                    idx.extend_from_slice(&crc.to_le_bytes());
                }
            }
        }
    }
    let index_crc = crc32c(&idx);
    out.extend_from_slice(&idx);
    out.extend_from_slice(&index_crc.to_le_bytes());
    out[8..16].copy_from_slice(&index_offset.to_le_bytes());
    out
}

// ---- the contract -----------------------------------------------------

/// Frames of 64 six-coordinate atoms holding `values` in order.
fn frames_of(values: &[f64]) -> Vec<Frame> {
    values
        .chunks(6 * 64)
        .map(|chunk| Frame {
            atoms: chunk
                .chunks(6)
                .map(|c| {
                    let at = |i: usize| c.get(i).copied().unwrap_or(0.0);
                    Atom {
                        element: "X".into(),
                        position: [at(0), at(1), at(2)],
                        force: Some([at(3), at(4), at(5)]),
                    }
                })
                .collect(),
            properties: BTreeMap::new(),
        })
        .collect()
}

/// Every coordinate `write_xyz` prints is what `format!("{x:.8}")`
/// prints: ≥ 10⁶ seeded values — raw bit patterns, ten magnitudes,
/// every kind of exact tie at the eighth decimal — plus the signed
/// zeros, subnormals and both sides of the 9 × 10¹⁰ fallback boundary.
#[test]
fn fixed_point_coordinates_match_std_format() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0021);
    let mut values = Vec::with_capacity(1_100_000);
    for _ in 0..300_000 {
        values.push(f64::from_bits(rng.gen::<u64>()));
    }
    for magnitude in -12..=10 {
        let scale = 10f64.powi(magnitude);
        for _ in 0..30_000 {
            values.push(unit(&mut rng) * scale);
        }
    }
    // Exact ties: a binary fraction whose scaled value ends in exactly ½.
    for j in 0..30_000u64 {
        let j = j as f64;
        for tie in [j / 512.0, j / 1_048_576.0, j / 4_294_967_296.0, j * 0.5e-8] {
            values.extend([tie, -tie]);
        }
    }
    values.extend([0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE, 2.2e-308]);
    values.extend([0.5e-8, 1.5e-8, 2.5e-8, 0.999_999_995, 0.999_999_994_999]);
    values.extend([
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
    ]);
    values.extend([9e10, -9e10, 8.99e10, 9.01e10, 1e15, 89_999_999_999.999_99]);
    let (mut below, mut above) = (9e10f64, 9e10f64);
    for _ in 0..2_000 {
        below = f64::from_bits(below.to_bits() - 1);
        above = f64::from_bits(above.to_bits() + 1);
        values.extend([below, -below, above, -above]);
    }
    assert!(values.len() >= 1_000_000, "{}", values.len());
    for frame in frames_of(&values) {
        let frame = std::slice::from_ref(&frame);
        assert_eq!(write_xyz(frame), reference_write_xyz(frame));
    }
}

/// Seeded frames with and without forces (mixed inside a frame too),
/// with quoted, empty, bare and multiple properties, and no atoms.
#[test]
fn write_xyz_matches_reference_on_seeded_frames() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0022);
    let property_values = ["-13.47", "", "5.43 0 0 0 5.43 0 0 0 5.43", "a=b", "\"", " "];
    let mut frames = Vec::new();
    for f in 0..200 {
        let natoms = rng.gen_range(0..12);
        let atoms = (0..natoms)
            .map(|_| {
                let triple =
                    |rng: &mut SmallRng| [unit(rng) * 30.0, unit(rng) * 1e-3, unit(rng) * 1e4];
                let forced = f % 3 == 1 || (f % 3 == 2 && rng.gen_range(0..2) == 0);
                Atom {
                    element: ["H", "Si", "Uuo", "é"][rng.gen_range(0..4)].to_string(),
                    position: triple(&mut rng),
                    force: forced.then(|| triple(&mut rng)),
                }
            })
            .collect();
        let properties = (0..rng.gen_range(0..4))
            .map(|p| {
                let value = property_values[rng.gen_range(0..property_values.len())];
                (format!("key{p}"), value.to_string())
            })
            .collect();
        frames.push(Frame { atoms, properties });
    }
    assert_eq!(write_xyz(&frames), reference_write_xyz(&frames));
    assert_eq!(write_xyz(&[]), reference_write_xyz(&[]));
}

/// A random feature of one of the three kinds; lists are empty one time
/// in four, ints are negative (ten-byte varints) half the time.
fn seeded_feature(rng: &mut SmallRng) -> Feature {
    let len = if rng.gen_range(0..4) == 0 {
        0
    } else {
        rng.gen_range(0..40)
    };
    match rng.gen_range(0..3) {
        0 => Feature::Floats((0..len).map(|_| (unit(rng) * 1e6) as f32).collect()),
        1 => Feature::Ints(
            (0..len)
                .map(|_| {
                    (rng.gen::<u64>() >> rng.gen_range(0..64)) as i64 * [1, -1][rng.gen_range(0..2)]
                })
                .collect(),
        ),
        _ => Feature::Bytes(
            (0..len % 5)
                .map(|_| {
                    (0..rng.gen_range(0..200))
                        .map(|_| rng.gen::<u64>() as u8)
                        .collect()
                })
                .collect(),
        ),
    }
}

#[test]
fn one_pass_example_matches_nested_encoder() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0023);
    let mut examples = vec![
        Example::new(),
        Example::new().with_floats("f", vec![]),
        Example::new()
            .with_ints("i", vec![])
            .with_bytes("b", vec![]),
        Example::new().with_bytes("b", vec![vec![], vec![]]),
        Example::new().with_ints("i", vec![-1, i64::MIN, i64::MAX, 0, 127, 128]),
        // Lengths either side of a varint boundary (127 | 128 bytes).
        Example::new().with_floats("f", vec![1.5; 31]),
        Example::new().with_floats("f", vec![1.5; 32]),
        Example::new().with_bytes(&"k".repeat(130), vec![vec![7; 16_384]]),
    ];
    for _ in 0..400 {
        let mut example = Example::new();
        for f in 0..rng.gen_range(0..6) {
            let name = format!("{}{f}", ["features", "label", "", "ü"][rng.gen_range(0..4)]);
            example.features.insert(name, seeded_feature(&mut rng));
        }
        examples.push(example);
    }
    for example in &examples {
        let bytes = example.encode();
        assert_eq!(bytes, reference_encode(example), "{example:?}");
        assert_eq!(&Example::decode(&bytes).unwrap(), example);
    }
}

/// The borrowed-slice entry point writes what `Example::encode` writes,
/// after whatever the buffer already holds.
#[test]
fn borrowed_example_matches_owned() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0024);
    for _ in 0..200 {
        let mut example = Example::new();
        for f in 0..rng.gen_range(0..5) {
            example
                .features
                .insert(format!("f{f}"), seeded_feature(&mut rng));
        }
        let borrowed = example.features.iter().map(|(name, feature)| {
            let feature = match feature {
                Feature::Bytes(items) => FeatureRef::Bytes(items),
                Feature::Floats(items) => FeatureRef::Floats(items),
                Feature::Ints(items) => FeatureRef::Ints(items),
            };
            (name.as_str(), feature)
        });
        let mut out = b"already here".to_vec();
        Example::encode_into(&mut out, borrowed);
        assert_eq!(&out[..12], b"already here");
        assert_eq!(&out[12..], reference_encode(&example));
    }
}

#[test]
fn bp_files_match_reference() {
    let scalar = Tensor::from_vec(vec![-2.5f64], &[]).unwrap();
    let empty = Tensor::<f32>::zeros(&[0, 3]);
    let flags = Tensor::from_vec(vec![true, false, true], &[3]).unwrap();
    let cases: Vec<Vec<ProcessGroup>> = vec![
        vec![],
        vec![ProcessGroup {
            name: String::new(),
            step: 0,
            vars: vec![],
        }],
        (0..7)
            .map(|g| ProcessGroup {
                name: format!("structure-{g}"),
                step: u64::MAX - g,
                vars: vec![
                    BpVar::from_tensor("energy_per_atom", &scalar),
                    BpVar::from_tensor("forces", &empty),
                    BpVar::from_tensor("flags", &flags),
                    BpVar::from_tensor(
                        "edges",
                        &Tensor::from_fn(&[g as usize * 5, 2], |k| k as i64 - 3),
                    ),
                    BpVar::from_tensor("bytes", &Tensor::from_fn(&[2, 3, 4], |k| k as u8)),
                    BpVar::from_tensor("i32", &Tensor::from_fn(&[g as usize], |k| -(k as i32))),
                ],
            })
            .collect(),
    ];
    for groups in cases {
        let mut writer = BpWriter::new();
        for group in &groups {
            writer.append(group);
        }
        let bytes = writer.finish();
        assert_eq!(bytes, reference_bp(&groups));
        assert_eq!(BpReader::open(&bytes).unwrap().read_all().unwrap(), groups);
    }
}

#[test]
fn h5lite_files_match_reference() {
    let empty = H5File::new();
    assert_eq!(empty.to_bytes(), reference_h5(&empty, &[]));

    let mut f = H5File::new();
    let scalar = Tensor::from_vec(vec![42.0f64], &[]).unwrap();
    f.put_tensor("/meta/scalar", &scalar, 1).unwrap();
    f.put_tensor("/meta/none", &Tensor::<f32>::zeros(&[0, 5]), 8)
        .unwrap();
    f.put_tensor("/meta/flat-none", &Tensor::<u8>::zeros(&[0]), 1)
        .unwrap();
    // 10 rows in chunks of 4, 3 and 1; one chunk larger than the dataset.
    for (name, chunk_rows) in [("by4", 4), ("by3", 3), ("by1", 1), ("by100", 100)] {
        let t = Tensor::from_fn(&[10, 4], |i| i as f32 * 0.5);
        f.put_tensor(&format!("/patients/ab12/{name}"), &t, chunk_rows)
            .unwrap();
    }
    f.put_tensor(
        "/patients/ab12/cube",
        &Tensor::from_fn(&[3, 2, 4], |i| i as i64),
        2,
    )
    .unwrap();
    f.put_tensor(
        "/patients/cd34/labs",
        &Tensor::from_fn(&[4], |i| i as f32),
        4,
    )
    .unwrap();
    f.create_group("/lonely/group").unwrap();
    let attrs = [
        (
            "/patients/cd34/labs",
            "columns",
            AttrValue::Text("a,b".into()),
        ),
        ("/patients", "anonymized", AttrValue::Int(-1)),
        ("/patients/cd34/labs", "mean", AttrValue::Float(2.375)),
        ("/meta/scalar", "raw", AttrValue::Bytes(vec![0, 255])),
        ("/lonely", "empty", AttrValue::Text(String::new())),
    ];
    for (path, name, value) in &attrs {
        f.set_attr(path, name, value.clone()).unwrap();
    }
    let bytes = f.to_bytes();
    assert_eq!(bytes, reference_h5(&f, &attrs));
    assert_eq!(H5File::from_bytes(&bytes).unwrap(), f);
}

/// Library and reference on one text: equal frames or equal error text
/// (compared as `Debug` text, so that NaN equals NaN and 0 is not -0).
fn assert_parses_alike(text: &str) {
    let got = parse_xyz(text).map_err(|e| e.to_string());
    let want = reference_parse_xyz(text);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text:?}");
}

#[test]
fn parse_xyz_matches_reference() {
    let two = "2\nenergy=-1.5 lattice=\"5 0 0\"\nH 0 0 0\nHe 1 2 3 0.1 0.2 0.3\n\
               1\ngenerated by dft run 42 energy=-3.0\nC 1.5e-3 -2E2 0.0\n";
    let mut cases: Vec<String> = vec![
        String::new(),
        "\n\n  \n".into(),
        two.into(),
        two.replace('\n', "\r\n"),
        two.replace('\n', "\r\r\n"),
        two.replace("1\ngenerated", "\n \n\t\n1\ngenerated"),
        "0\nempty frame\n0\n\n".into(),
        "1\n".into(),
        "1".into(),
        "x\ncomment\n".into(),
        "-1\ncomment\n".into(),
        " 1 \n\nH 0 0 0\n".into(),
        "1\nc\nH 0 0\n".into(),
        "1\nc\nH 0 0 0 1\n".into(),
        "1\nc\nH 0 0 0 1 2 3 4\n".into(),
        "1\nc\nH 0 0 0 1 2 3 4 5 6 7 8 9\n".into(),
        "1\nc\n\n".into(),
        "1\nc\nH a 0 0\n".into(),
        "1\nc\nH 0 b 0\n".into(),
        "1\nc\nH 0 0 c\n".into(),
        "1\nc\nH 0 0 0 d 0 0\n".into(),
        "1\nc\nH 0 0 0 0 e 0\n".into(),
        "1\nc\nH 0 0 0 0 0 f\n".into(),
        "1\nc\nH nan inf -inf\n".into(),
        "2\nc\nH 0 0 0\n".into(),
        "2\nc\nH 0 0\n".into(),
        "3\nc\nH 0 0 0\nH 0 0\n".into(),
        "1\nc\nH\u{a0}0 0 0\u{2003}1\n".into(),
    ];
    // Comment lines: bare tokens, quotes open and closed, stray '='.
    for comment in [
        "",
        "   ",
        "bare tokens only",
        "a=1 b=2 a=3",
        "=novalue key= =",
        "k=\"quoted value\" next=1",
        "k=\"unclosed value",
        "k=\"\"",
        "k=\"x\"y=2",
        "k==v =\"q\" ",
        "é=ü\u{a0}n=\"\u{2003}\"",
        "tab\t=\tsplit",
        "a=\"b\" \"c\"=d",
    ] {
        cases.push(format!("1\n{comment}\nH 0 0 0\n"));
    }
    // Every truncation of a good file, at and between line ends.
    for cut in 0..two.len() {
        cases.push(two[..cut].to_string());
    }
    for text in &cases {
        assert_parses_alike(text);
    }

    // Seeded damage to a written file: a byte replaced, a line dropped,
    // a line repeated.
    let mut rng = SmallRng::seed_from_u64(0x5EED_0025);
    let good = write_xyz(&frames_of(
        &(0..1_200).map(|i| i as f64 / 7.0).collect::<Vec<_>>(),
    ));
    let lines: Vec<&str> = good.lines().collect();
    for _ in 0..300 {
        let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        for _ in 0..1 + rng.gen_range(0..3) {
            let at = rng.gen_range(0..damaged.len());
            match rng.gen_range(0..3) {
                0 => {
                    damaged.remove(at);
                }
                1 => {
                    let copy = damaged[at].clone();
                    damaged.insert(at, copy);
                }
                _ => {
                    let mut bytes = std::mem::take(&mut damaged[at]).into_bytes();
                    if !bytes.is_empty() {
                        let b = rng.gen_range(0..bytes.len());
                        bytes[b] = b" 0x=\"\t-.e\r"[rng.gen_range(0..10)];
                    }
                    damaged[at] = String::from_utf8(bytes).unwrap();
                }
            }
        }
        assert_parses_alike(&damaged.join("\n"));
    }
}

/// Frame k has a bad coordinate and frame k+1 an atom count the file
/// cannot hold. Frames are cut first and parsed on threads after, but
/// the error is the one a single pass meets first: frame k's line, as
/// the reference reports it — for every k, so that the two frames fall
/// into one `par_map` chunk and into two.
#[test]
fn frame_error_wins_over_a_later_truncated_frame() {
    let values: Vec<f64> = (0..8 * 6 * 64).map(|i| i as f64 / 3.0).collect();
    let good = write_xyz(&frames_of(&values));
    let lines: Vec<&str> = good.lines().collect();
    // A frame of `frames_of` is its count, its comment and 64 atoms.
    assert_eq!(lines.len(), 8 * 66);
    for k in 0..7 {
        let bad = k * 66 + 2 + 5;
        let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        damaged[(k + 1) * 66] = "1000000".into();
        let truncated = damaged.join("\n");
        let want = format!(
            "malformed xyz: frame at line {} truncated: wants 1000000 atoms",
            (k + 1) * 66 + 1
        );
        assert_eq!(parse_xyz(&truncated).unwrap_err().to_string(), want);
        damaged[bad] = "X 1.2.3 0 0 0 0 0".into();
        let text = damaged.join("\n");
        let want = format!("malformed xyz: line {}: bad x \"1.2.3\"", bad + 1);
        assert_eq!(parse_xyz(&text).unwrap_err().to_string(), want, "k={k}");
        assert_eq!(reference_parse_xyz(&text).unwrap_err(), want, "k={k}");
    }
}
