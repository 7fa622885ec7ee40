//! Property-based tests (proptest) on the core invariants: format
//! round-trips, codec round-trips, normalization/regrid/split laws.

use drai::formats::csv::{parse_csv, write_csv, CsvTable};
use drai::formats::npy::{read_npy, write_npy};
use drai::formats::tfrecord::{read_records, write_records};
use drai::formats::zip::{read_zip, write_zip, ZipEntry};
use drai::io::codec::{codec_for, CodecId};
use drai::io::crypto::{chacha20_xor, derive_key};
use drai::io::json::Json;
use drai::io::parallel::par_map;
use drai::io::varint::{read_uvarint, write_uvarint};
use drai::tensor::stats::Welford;
use drai::tensor::{LatLonGrid, Tensor};
use drai::transform::impute::{impute, missing_fraction, Strategy};
use drai::transform::normalize::{Method, Normalizer};
use drai::transform::regrid;
use drai::transform::split::{assign, Fractions};
use proptest::prelude::*;

proptest! {
    #[test]
    fn uvarint_round_trip(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, v);
        let (back, n) = read_uvarint(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn codecs_round_trip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        for id in [CodecId::Raw, CodecId::Rle, CodecId::Delta { width: 1 },
                   CodecId::Delta { width: 4 }, CodecId::Lz] {
            let c = codec_for(id);
            let enc = c.encode(&data);
            prop_assert_eq!(c.decode(&enc).unwrap(), data.clone(), "{:?}", id);
        }
    }

    #[test]
    fn codec_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        for id in [CodecId::Rle, CodecId::Delta { width: 2 }, CodecId::Lz] {
            let _ = codec_for(id).decode(&data); // must not panic
        }
    }

    #[test]
    fn npy_round_trip_f64(values in proptest::collection::vec(any::<f64>(), 1..200)) {
        let n = values.len();
        let t = Tensor::from_vec(values, &[n]).unwrap();
        let back = read_npy::<f64>(&write_npy(&t)).unwrap();
        // Bitwise comparison (NaN-safe).
        let a = t.to_le_bytes();
        let b = back.to_le_bytes();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn tfrecord_round_trip(records in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..256), 0..20)) {
        let bytes = write_records(&records);
        prop_assert_eq!(read_records(&bytes).unwrap(), records);
    }

    #[test]
    fn zip_round_trip(entries in proptest::collection::vec(
        (proptest::string::string_regex("[a-z]{1,12}(/[a-z]{1,8})?").unwrap(),
         proptest::collection::vec(any::<u8>(), 0..512)),
        0..8)) {
        // Deduplicate names (zip allows dupes; our reader returns both,
        // but equality then needs order care — keep it simple).
        let mut seen = std::collections::BTreeSet::new();
        let entries: Vec<ZipEntry> = entries
            .into_iter()
            .filter(|(name, _)| seen.insert(name.clone()))
            .map(|(name, data)| ZipEntry { name, data })
            .collect();
        let bytes = write_zip(&entries).unwrap();
        prop_assert_eq!(read_zip(&bytes).unwrap(), entries);
    }

    #[test]
    fn json_round_trip_strings(s in any::<String>()) {
        let v = Json::Str(s);
        let text = v.to_string_compact();
        prop_assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn json_parse_never_panics(s in any::<String>()) {
        let _ = Json::parse(&s);
    }

    #[test]
    fn csv_round_trip(rows in proptest::collection::vec(
        proptest::collection::vec(proptest::string::string_regex("[ -~]{0,20}").unwrap(), 3..4),
        1..20)) {
        let table = CsvTable {
            header: vec!["a".into(), "b".into(), "c".into()],
            rows,
        };
        let text = write_csv(&table);
        prop_assert_eq!(parse_csv(&text).unwrap(), table);
    }

    #[test]
    fn chacha_round_trip(data in proptest::collection::vec(any::<u8>(), 0..1024),
                         secret in "[a-z]{1,16}") {
        let key = derive_key(&secret, "prop");
        let nonce = [9u8; 12];
        let mut enc = data.clone();
        chacha20_xor(&key, &nonce, 0, &mut enc);
        chacha20_xor(&key, &nonce, 0, &mut enc);
        prop_assert_eq!(enc, data);
    }

    #[test]
    fn welford_merge_associative(xs in proptest::collection::vec(-1e6f64..1e6, 3..100),
                                 cut1 in 0usize..100, cut2 in 0usize..100) {
        let c1 = cut1 % xs.len();
        let c2 = c1 + (cut2 % (xs.len() - c1));
        let mut wa = Welford::new();
        wa.extend(&xs[..c1]);
        let mut wb = Welford::new();
        wb.extend(&xs[c1..c2]);
        let mut wc = Welford::new();
        wc.extend(&xs[c2..]);
        let left = wa.merge(&wb).merge(&wc);
        let right = wa.merge(&wb.merge(&wc));
        let mean_tol = 1e-9 * left.mean().abs().max(1.0);
        prop_assert!((left.mean() - right.mean()).abs() < mean_tol);
        let var_tol = 1e-9 * left.variance().abs().max(1.0);
        prop_assert!((left.variance() - right.variance()).abs() < var_tol);
        prop_assert_eq!(left.count(), right.count());
    }

    #[test]
    fn zscore_normalizes(xs in proptest::collection::vec(-1e9f64..1e9, 2..200)) {
        // Skip near-constant inputs (scale clamps to 1 there by design).
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-6);
        let n = Normalizer::fit(Method::ZScore, &xs).unwrap();
        let out: Vec<f64> = xs.iter().map(|&x| n.apply(x)).collect();
        let mut w = Welford::new();
        w.extend(&out);
        prop_assert!(w.mean().abs() < 1e-6, "mean {}", w.mean());
        prop_assert!((w.std() - 1.0).abs() < 1e-6, "std {}", w.std());
        // Invertibility.
        for (&orig, &norm) in xs.iter().zip(&out) {
            prop_assert!((n.invert(norm) - orig).abs() <= 1e-9 * orig.abs().max(1.0));
        }
    }

    #[test]
    fn conservative_regrid_preserves_integral(
        nlat_src in 4usize..20, nlon_src in 4usize..24,
        nlat_dst in 2usize..16, nlon_dst in 2usize..20,
        seed in any::<u64>()) {
        let src = LatLonGrid::global(nlat_src, nlon_src);
        let dst = LatLonGrid::global(nlat_dst, nlon_dst);
        // Deterministic pseudo-random field from the seed.
        let mut state = seed | 1;
        let field: Vec<f64> = (0..src.ncells())
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 100.0 - 50.0
            })
            .collect();
        let out = regrid::conservative(&src, &field, &dst).unwrap();
        let a = src.area_weighted_mean(&field).unwrap();
        let b = dst.area_weighted_mean(&out).unwrap();
        prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }

    #[test]
    fn split_is_deterministic_and_total(key in "[ -~]{0,40}", seed in any::<u64>()) {
        let f = Fractions::standard();
        let s1 = assign(&key, seed, f).unwrap();
        let s2 = assign(&key, seed, f).unwrap();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn impute_removes_all_missing(mut xs in proptest::collection::vec(
            prop_oneof![3 => -1e3f64..1e3, 1 => Just(f64::NAN)], 1..100)) {
        prop_assume!(xs.iter().any(|v| !v.is_nan()));
        for strategy in [Strategy::Mean, Strategy::Median, Strategy::ForwardFill,
                         Strategy::Interpolate, Strategy::Constant(0.0)] {
            let mut copy = xs.clone();
            impute(&mut copy, strategy).unwrap();
            prop_assert_eq!(missing_fraction(&copy), 0.0, "{:?}", strategy);
        }
        // And in-place on the original for good measure.
        impute(&mut xs, Strategy::Mean).unwrap();
        prop_assert!(xs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn netcdf_round_trip_float_var(values in proptest::collection::vec(any::<f32>(), 1..64)) {
        use drai::formats::netcdf::*;
        let n = values.len();
        let f = NcFile {
            dims: vec![NcDim { name: "x".into(), size: n, is_record: false }],
            global_attrs: vec![],
            vars: vec![NcVar {
                name: "v".into(),
                dims: vec![0],
                attrs: vec![],
                data: NcValues::Float(values),
            }],
        };
        let back = NcFile::from_bytes(&f.to_bytes().unwrap()).unwrap();
        // Bitwise equality via byte serialization (NaN-safe).
        prop_assert_eq!(back.to_bytes().unwrap(), f.to_bytes().unwrap());
    }
}

// `par_map` is `map`: order preserved and the input tiled exactly, also
// when the length is not divisible by the chunk count.
proptest! {
    #[test]
    fn par_map_equals_sequential_map(items in proptest::collection::vec(any::<u32>(), 0..300)) {
        let f = |(i, x): (usize, &u32)| x.rotate_left(i as u32 % 32) ^ 0x9e37;
        let expect: Vec<u32> = items.iter().enumerate().map(f).collect();
        prop_assert_eq!(par_map(items.iter().enumerate(), f), expect);
    }
}
