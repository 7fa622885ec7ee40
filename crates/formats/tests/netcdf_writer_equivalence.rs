//! The NetCDF writer against the writer it replaced.
//!
//! `NcFile::to_bytes` used to encode each variable's values into a
//! buffer of their own, one push per element, and then copy that buffer
//! into the file slab by slab (a fixed variable as one slab, a record
//! variable as one slab per record, the other record variables' slabs in
//! between). It now writes each value big-endian once, straight into its
//! place in the file. The old writer is kept below as the reference,
//! written against the public fields of `NcFile` (its private helpers are
//! restated here): on a few hundred seeded random files covering all six
//! value types, fixed and record variables, several record variables
//! interleaved, zero records and lengths that need padding, both must
//! write the same bytes, and `from_bytes` must give back the file.
//!
//! This file passed at the parent commit (where reference and writer
//! were the same code) before the writer changed.

use drai_formats::netcdf::{NcAttr, NcDim, NcFile, NcValues, NcVar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---- the writer as it was before values were written in place ------

const MAGIC: &[u8; 4] = b"CDF\x01";
const TAG_DIMENSION: u32 = 0x0A;
const TAG_VARIABLE: u32 = 0x0B;
const TAG_ATTRIBUTE: u32 = 0x0C;
const TAG_ABSENT: u32 = 0x00;

fn code(v: &NcValues) -> u32 {
    match v {
        NcValues::Byte(_) => 1,
        NcValues::Char(_) => 2,
        NcValues::Short(_) => 3,
        NcValues::Int(_) => 4,
        NcValues::Float(_) => 5,
        NcValues::Double(_) => 6,
    }
}

fn size(v: &NcValues) -> usize {
    match v {
        NcValues::Byte(_) | NcValues::Char(_) => 1,
        NcValues::Short(_) => 2,
        NcValues::Int(_) | NcValues::Float(_) => 4,
        NcValues::Double(_) => 8,
    }
}

fn len(v: &NcValues) -> usize {
    match v {
        NcValues::Byte(v) => v.len(),
        NcValues::Char(s) => s.len(),
        NcValues::Short(v) => v.len(),
        NcValues::Int(v) => v.len(),
        NcValues::Float(v) => v.len(),
        NcValues::Double(v) => v.len(),
    }
}

fn write_be(v: &NcValues, out: &mut Vec<u8>) {
    match v {
        NcValues::Byte(v) => out.extend(v.iter().map(|&x| x as u8)),
        NcValues::Char(s) => out.extend_from_slice(s.as_bytes()),
        NcValues::Short(v) => {
            for x in v {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        NcValues::Int(v) => {
            for x in v {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        NcValues::Float(v) => {
            for x in v {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        NcValues::Double(v) => {
            for x in v {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
    }
}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

fn write_padded(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(bytes);
    out.resize(out.len() + (pad4(bytes.len()) - bytes.len()), 0);
}

fn write_name(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u32).to_be_bytes());
    write_padded(out, name.as_bytes());
}

fn write_attrs(out: &mut Vec<u8>, attrs: &[NcAttr]) {
    if attrs.is_empty() {
        out.extend_from_slice(&TAG_ABSENT.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes());
        return;
    }
    out.extend_from_slice(&TAG_ATTRIBUTE.to_be_bytes());
    out.extend_from_slice(&(attrs.len() as u32).to_be_bytes());
    for a in attrs {
        write_name(out, &a.name);
        out.extend_from_slice(&code(&a.values).to_be_bytes());
        out.extend_from_slice(&(len(&a.values) as u32).to_be_bytes());
        let mut vals = Vec::new();
        write_be(&a.values, &mut vals);
        write_padded(out, &vals);
    }
}

fn record_slab_elems(f: &NcFile, var: &NcVar) -> usize {
    var.dims
        .iter()
        .filter(|&&d| !f.dims[d].is_record)
        .map(|&d| f.dims[d].size)
        .product()
}

fn is_record_var(f: &NcFile, var: &NcVar) -> bool {
    var.dims
        .first()
        .map(|&d| f.dims[d].is_record)
        .unwrap_or(false)
}

fn vsize(f: &NcFile, v: &NcVar) -> usize {
    pad4(record_slab_elems(f, v) * size(&v.data))
}

fn reference_to_bytes(f: &NcFile) -> Vec<u8> {
    f.validate().expect("valid file");
    let numrecs = f.num_records();

    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(numrecs as u32).to_be_bytes());

    if f.dims.is_empty() {
        header.extend_from_slice(&TAG_ABSENT.to_be_bytes());
        header.extend_from_slice(&0u32.to_be_bytes());
    } else {
        header.extend_from_slice(&TAG_DIMENSION.to_be_bytes());
        header.extend_from_slice(&(f.dims.len() as u32).to_be_bytes());
        for d in &f.dims {
            write_name(&mut header, &d.name);
            let stored = if d.is_record { 0 } else { d.size as u32 };
            header.extend_from_slice(&stored.to_be_bytes());
        }
    }

    write_attrs(&mut header, &f.global_attrs);

    let mut begin_patches = Vec::new();
    if f.vars.is_empty() {
        header.extend_from_slice(&TAG_ABSENT.to_be_bytes());
        header.extend_from_slice(&0u32.to_be_bytes());
    } else {
        header.extend_from_slice(&TAG_VARIABLE.to_be_bytes());
        header.extend_from_slice(&(f.vars.len() as u32).to_be_bytes());
        for (vi, v) in f.vars.iter().enumerate() {
            write_name(&mut header, &v.name);
            header.extend_from_slice(&(v.dims.len() as u32).to_be_bytes());
            for &d in &v.dims {
                header.extend_from_slice(&(d as u32).to_be_bytes());
            }
            write_attrs(&mut header, &v.attrs);
            header.extend_from_slice(&code(&v.data).to_be_bytes());
            header.extend_from_slice(&(vsize(f, v) as u32).to_be_bytes());
            begin_patches.push((header.len(), vi));
            header.extend_from_slice(&0u32.to_be_bytes());
        }
    }

    let mut begins = vec![0usize; f.vars.len()];
    let mut offset = header.len();
    for (vi, v) in f.vars.iter().enumerate() {
        if !is_record_var(f, v) {
            begins[vi] = offset;
            offset += vsize(f, v);
        }
    }
    let record_section = offset;
    let mut rec_off = record_section;
    for (vi, v) in f.vars.iter().enumerate() {
        if is_record_var(f, v) {
            begins[vi] = rec_off;
            rec_off += vsize(f, v);
        }
    }
    let record_stride: usize = f
        .vars
        .iter()
        .filter(|v| is_record_var(f, v))
        .map(|v| vsize(f, v))
        .sum();

    for (patch_at, vi) in &begin_patches {
        let begin = u32::try_from(begins[*vi]).expect("CDF-1 offset");
        header[*patch_at..*patch_at + 4].copy_from_slice(&begin.to_be_bytes());
    }

    let total = record_section + record_stride * numrecs;
    let mut out = header;
    out.resize(total, 0);
    for (vi, v) in f.vars.iter().enumerate() {
        let mut raw = Vec::new();
        write_be(&v.data, &mut raw);
        if !is_record_var(f, v) {
            out[begins[vi]..begins[vi] + raw.len()].copy_from_slice(&raw);
        } else {
            let slab = record_slab_elems(f, v) * size(&v.data);
            for r in 0..numrecs {
                let src = &raw[r * slab..(r + 1) * slab];
                let dst = begins[vi] + r * record_stride;
                out[dst..dst + slab].copy_from_slice(src);
            }
        }
    }
    out
}

// ---- seeded random files -------------------------------------------

/// `n` values of type `typ` (0..6 in `NcValues` order). Floats are
/// random bit patterns with NaNs replaced, so a round trip compares
/// equal.
fn values(rng: &mut SmallRng, typ: usize, n: usize) -> NcValues {
    match typ {
        0 => NcValues::Byte((0..n).map(|_| rng.gen()).collect()),
        1 => NcValues::Char((0..n).map(|_| rng.gen_range(b'a'..=b'z') as char).collect()),
        2 => NcValues::Short((0..n).map(|_| rng.gen()).collect()),
        3 => NcValues::Int((0..n).map(|_| rng.gen()).collect()),
        4 => NcValues::Float(
            (0..n)
                .map(|_| f32::from_bits(rng.gen()))
                .map(|x| if x.is_nan() { -0.0 } else { x })
                .collect(),
        ),
        _ => NcValues::Double(
            (0..n)
                .map(|_| f64::from_bits(rng.gen()))
                .map(|x| if x.is_nan() { -0.0 } else { x })
                .collect(),
        ),
    }
}

fn name(rng: &mut SmallRng, prefix: &str, i: usize) -> String {
    format!("{prefix}{i}{}", "_".repeat(rng.gen_range(0..4)))
}

fn attrs(rng: &mut SmallRng, max: usize) -> Vec<NcAttr> {
    (0..rng.gen_range(0..=max))
        .map(|i| {
            let (typ, n) = (rng.gen_range(0..6), rng.gen_range(0..7));
            NcAttr {
                name: name(rng, "a", i),
                values: values(rng, typ, n),
            }
        })
        .collect()
}

/// A random valid file: up to three fixed dimensions of length 1..=5
/// (a stored length of 0 marks the record dimension; most lengths are
/// not multiples of 4), maybe a record dimension with 0..=4
/// records at a random place in the dimension list, and up to six
/// variables of random type over a random subset of the fixed
/// dimensions, outermost the record dimension for some.
fn random_file(seed: u64) -> NcFile {
    let mut rng = SmallRng::seed_from_u64(seed);
    let fixed = rng.gen_range(0..=3);
    let mut dims: Vec<NcDim> = (0..fixed)
        .map(|i| NcDim {
            name: name(&mut rng, "d", i),
            size: rng.gen_range(1..=5),
            is_record: false,
        })
        .collect();
    let record = rng.gen_bool(0.75).then(|| {
        let at = rng.gen_range(0..=dims.len());
        let numrecs = rng.gen_range(0..=4);
        dims.insert(
            at,
            NcDim {
                name: "time".into(),
                size: numrecs,
                is_record: true,
            },
        );
        at
    });
    let fixed_ids: Vec<usize> = (0..dims.len()).filter(|&d| Some(d) != record).collect();
    let global_attrs = attrs(&mut rng, 3);
    let vars = (0..rng.gen_range(0..=6))
        .map(|i| {
            let mut var_dims: Vec<usize> = fixed_ids
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if let Some(r) = record.filter(|_| rng.gen_bool(0.6)) {
                var_dims.insert(0, r);
            }
            let n: usize = var_dims.iter().map(|&d| dims[d].size).product();
            let typ = rng.gen_range(0..6);
            NcVar {
                name: name(&mut rng, "v", i),
                dims: var_dims,
                attrs: attrs(&mut rng, 2),
                data: values(&mut rng, typ, n),
            }
        })
        .collect();
    NcFile {
        dims,
        global_attrs,
        vars,
    }
}

/// What the random files must cover between them, so a generator change
/// cannot quietly drop a case.
#[derive(Default, Debug)]
struct Coverage {
    fixed_types: [bool; 6],
    record_types: [bool; 6],
    interleaved: bool,
    zero_records: bool,
    padded_fixed: bool,
    padded_record: bool,
}

fn type_index(v: &NcValues) -> usize {
    code(v) as usize - 1
}

impl Coverage {
    fn add(&mut self, f: &NcFile) {
        let records: Vec<&NcVar> = f.vars.iter().filter(|v| is_record_var(f, v)).collect();
        for v in &f.vars {
            let slab = record_slab_elems(f, v) * size(&v.data);
            if is_record_var(f, v) {
                self.record_types[type_index(&v.data)] |= f.num_records() > 0 && slab > 0;
                self.padded_record |= f.num_records() > 1 && slab % 4 != 0;
            } else {
                self.fixed_types[type_index(&v.data)] |= slab > 0;
                self.padded_fixed |= slab % 4 != 0;
            }
        }
        self.interleaved |= f.num_records() > 1
            && records
                .iter()
                .filter(|v| record_slab_elems(f, v) > 0)
                .count()
                > 1;
        self.zero_records |= f.num_records() == 0 && !records.is_empty();
    }

    fn complete(&self) -> bool {
        self.fixed_types.iter().all(|&c| c)
            && self.record_types.iter().all(|&c| c)
            && self.interleaved
            && self.zero_records
            && self.padded_fixed
            && self.padded_record
    }
}

#[test]
fn writer_matches_the_per_element_writer_on_random_files() {
    let mut coverage = Coverage::default();
    for seed in 0..400 {
        let f = random_file(seed);
        coverage.add(&f);
        let bytes = f.to_bytes().expect("to_bytes");
        assert_eq!(bytes, reference_to_bytes(&f), "seed {seed}: {f:?}");
        assert_eq!(
            NcFile::from_bytes(&bytes).expect("from_bytes"),
            f,
            "seed {seed}"
        );
    }
    assert!(coverage.complete(), "{coverage:?}");
}

#[test]
fn writer_matches_the_per_element_writer_on_a_climate_like_file() {
    let (nt, nlat, nlon) = (5, 3, 7);
    let mut rng = SmallRng::seed_from_u64(3);
    let dim = |name: &str, size, is_record| NcDim {
        name: name.into(),
        size,
        is_record,
    };
    let var = |name: &str, dims: Vec<usize>, data| NcVar {
        name: name.into(),
        dims,
        attrs: vec![],
        data,
    };
    let f = NcFile {
        dims: vec![
            dim("time", nt, true),
            dim("lat", nlat, false),
            dim("lon", nlon, false),
        ],
        global_attrs: vec![NcAttr {
            name: "source".into(),
            values: NcValues::Char("odd".into()),
        }],
        vars: vec![
            var("lat", vec![1], values(&mut rng, 5, nlat)),
            var("tas", vec![0, 1, 2], values(&mut rng, 5, nt * nlat * nlon)),
            var("lon", vec![2], values(&mut rng, 5, nlon)),
            var("flag", vec![0, 2], values(&mut rng, 0, nt * nlon)),
            var("n", vec![0], values(&mut rng, 2, nt)),
        ],
    };
    let bytes = f.to_bytes().expect("to_bytes");
    assert_eq!(bytes, reference_to_bytes(&f));
    assert_eq!(NcFile::from_bytes(&bytes).expect("from_bytes"), f);
}
