//! Property tests that hold the fast kernels to the plain ones they
//! replaced, bit for bit: the selection median and the robust fit's
//! selected quartiles against a full sort, the one-pass row-major column
//! fit against a per-column fit on a gathered copy.

use drai_transform::impute::{impute, Strategy as Fill};
use drai_transform::normalize::{ColumnNormalizer, Method, Normalizer};
use proptest::prelude::*;

/// Table cells: a continuous body, NaNs to skip, both zeros, both
/// infinities and a few values drawn often enough to tie.
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -1e6f64..1e6,
        3 => Just(f64::NAN),
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        2 => Just(1.5),
        2 => Just(-2.25),
    ]
}

/// `impute(Median)` as it was before PR 18: sort everything, take the
/// middle.
fn median_fill_by_sort(values: &mut [f64]) -> Option<usize> {
    let mut present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    let missing = values.len() - present.len();
    if missing == 0 {
        return Some(0);
    }
    present.sort_by(|a, b| a.total_cmp(b));
    let median = match present.len() {
        0 => return None,
        n if n % 2 == 1 => present[n / 2],
        n => (present[n / 2 - 1] + present[n / 2]) / 2.0,
    };
    for v in values.iter_mut().filter(|v| v.is_nan()) {
        *v = median;
    }
    Some(missing)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `Method::Robust` from a sorted copy: `(median, IQR or 1)` of the type-7
/// quartiles, `x_lo + (x_hi − x_lo)·(h − ⌊h⌋)` at `h = p·(n − 1)`, with
/// `x_lo` for an integral `h` or equal ends, and an infinite end winning
/// (−∞ at `x_lo` first). `None` when no value is present.
fn robust_by_sort(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let quantile = |p: f64| {
        let h = p * (n - 1) as f64;
        let (lo, frac) = (h.floor() as usize, h - h.floor());
        let x_lo = sorted[lo];
        if frac == 0.0 {
            return x_lo;
        }
        let x_hi = sorted[lo + 1];
        if x_lo == x_hi || x_lo.is_infinite() {
            x_lo
        } else if x_hi.is_infinite() {
            x_hi
        } else {
            x_lo + (x_hi - x_lo) * frac
        }
    };
    let iqr = quantile(0.75) - quantile(0.25);
    Some((
        quantile(0.5),
        if iqr.abs() < f64::EPSILON { 1.0 } else { iqr },
    ))
}

/// The robust fit's `(offset, scale)` as bits beside the reference's, NaN
/// mapped to one pattern (an `∞ − ∞` IQR; its sign is unspecified).
fn robust_bits(values: &[f64]) -> (Option<[u64; 2]>, Option<[u64; 2]>) {
    let b = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
    let got = Normalizer::fit(Method::Robust, values)
        .ok()
        .map(|n| [b(n.offset), b(n.scale)]);
    let want = robust_by_sort(values).map(|(offset, scale)| [b(offset), b(scale)]);
    (got, want)
}

proptest! {
    #[test]
    fn selection_median_equals_sorted_median(values in proptest::collection::vec(cell(), 0..160)) {
        let mut by_sort = values.clone();
        let expect = median_fill_by_sort(&mut by_sort);
        let mut by_selection = values.clone();
        let got = impute(&mut by_selection, Fill::Median).ok();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(bits(&by_selection), bits(&by_sort));
    }

    #[test]
    fn selected_quartiles_equal_sorted_quartiles(values in proptest::collection::vec(cell(), 0..160)) {
        let (got, want) = robust_bits(&values);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn row_major_fit_equals_per_column_fit(
        cells in proptest::collection::vec(cell(), 16..960),
        ncols_pick in 0usize..3,
        method_pick in 0usize..3) {
        let ncols = [1, 3, 16][ncols_pick];
        let method = [Method::ZScore, Method::MinMax, Method::Robust][method_pick];
        let data = &cells[..cells.len() / ncols * ncols];
        let per_column: Result<Vec<Normalizer>, _> = (0..ncols)
            .map(|c| {
                let column: Vec<f64> = data.chunks_exact(ncols).map(|row| row[c]).collect();
                Normalizer::fit(method, &column)
            })
            .collect();
        match (ColumnNormalizer::fit(method, data, ncols), per_column) {
            (Ok(fitted), Ok(expect)) => {
                prop_assert_eq!(fitted.ncols(), ncols);
                for (got, want) in fitted.columns().iter().zip(&expect) {
                    prop_assert_eq!(got.method(), method);
                    prop_assert_eq!(got.offset.to_bits(), want.offset.to_bits(), "{:?} offset", method);
                    prop_assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{:?} scale", method);
                }
                // And `apply` is each column's own `(x - offset) / scale`.
                let mut applied = data.to_vec();
                fitted.apply(&mut applied).unwrap();
                let by_column: Vec<f64> = data
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| expect[i % ncols].apply(x))
                    .collect();
                prop_assert_eq!(bits(&applied), bits(&by_column));
            }
            // A column with nothing to fit fails either way.
            (Err(_), Err(_)) => {}
            (got, want) => prop_assert!(false, "fit disagrees: {:?} vs {:?}", got, want),
        }
    }
}

/// The cases a random draw seldom hits: one present value, two, and ties
/// across the middle, for both parities.
#[test]
fn selection_median_on_the_small_and_the_tied() {
    let nan = f64::NAN;
    for values in [
        vec![nan, 3.0],
        vec![nan, -0.0, 0.0],
        vec![nan, 0.0, -0.0, nan],
        vec![2.0, nan, 2.0, 2.0, 2.0],
        vec![nan, 1.0, 2.0, 2.0, 3.0],
        vec![f64::INFINITY, nan, f64::NEG_INFINITY],
        vec![f64::INFINITY, nan, f64::INFINITY, 1.0, 1.0],
        vec![nan, nan],
        vec![1.0, 2.0],
        vec![],
    ] {
        let mut by_sort = values.clone();
        let expect = median_fill_by_sort(&mut by_sort);
        let mut by_selection = values.clone();
        assert_eq!(impute(&mut by_selection, Fill::Median).ok(), expect);
        assert_eq!(bits(&by_selection), bits(&by_sort), "{values:?}");
    }
}

/// Every column of one to four cells drawn from NaN, both zeros, both
/// infinities and values that tie: the robust fit's n = 1, 2, 3 (and the
/// NaN-only columns it cannot fit) against the sorted reference.
#[test]
fn selected_quartiles_on_every_small_column() {
    let cells = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.5,
        -0.0,
        0.0,
        2.25,
        f64::INFINITY,
    ];
    let mut checked = 0;
    for len in 1..=4u32 {
        for mut pick in 0..cells.len().pow(len) {
            let mut values = Vec::new();
            for _ in 0..len {
                values.push(cells[pick % cells.len()]);
                pick /= cells.len();
            }
            let (got, want) = robust_bits(&values);
            assert_eq!(got, want, "{values:?}");
            // The median interpolates two present values: never NaN.
            if let Some([offset, _]) = got {
                assert!(!f64::from_bits(offset).is_nan(), "{values:?}");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 7 + 49 + 343 + 2401);
}
