//! Normalization: the universal preprocessing step ("normalizing by mean
//! and standard deviation", Fig. 1).
//!
//! Moments are fitted in a single streaming pass (Welford) so they scale
//! to shard-at-a-time reduction; [`Normalizer::from_welford`] fits from
//! per-chunk accumulators merged in chunk order, the reduction `par_map`
//! callers use. A robust fit is exact, not streaming: its column's
//! present values are gathered once and its quartiles are selected in
//! place (`robust`).

use crate::TransformError;
use drai_tensor::stats::Welford;
use std::cmp::Ordering;

/// Normalization method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `(x - mean) / std`.
    ZScore,
    /// `(x - min) / (max - min)` into [0, 1].
    MinMax,
    /// `(x - median) / IQR` of the exact type-7 quartiles — resistant to
    /// the outliers sensor glitches leave in experimental (fusion) data.
    Robust,
}

/// A fitted, reusable normalizer for one variable.
///
/// Fitting and application are separate so statistics computed on the
/// training split can be applied to validation/test (avoiding leakage) and
/// recorded in provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    method: Method,
    /// Offset subtracted from values (mean / min / median).
    pub offset: f64,
    /// Scale divided out (std / range / IQR).
    pub scale: f64,
}

impl Normalizer {
    /// Fit on a stream of values (NaNs skipped).
    pub fn fit(method: Method, values: &[f64]) -> Result<Normalizer, TransformError> {
        match method {
            Method::ZScore | Method::MinMax => {
                let mut w = Welford::new();
                w.extend(values);
                Self::from_welford(method, &w)
            }
            Method::Robust => {
                let mut column: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
                robust(&mut column)
            }
        }
    }

    /// Build from an already-reduced Welford accumulator (the parallel
    /// path: fit per shard, merge, then construct once).
    pub fn from_welford(method: Method, w: &Welford) -> Result<Normalizer, TransformError> {
        if w.count() == 0 {
            return Err(TransformError::CannotFit("no finite values".into()));
        }
        match method {
            Method::ZScore => {
                let std = w.std();
                Ok(Normalizer {
                    method,
                    offset: w.mean(),
                    scale: if std < f64::EPSILON { 1.0 } else { std },
                })
            }
            Method::MinMax => {
                let range = w.max() - w.min();
                Ok(Normalizer {
                    method,
                    offset: w.min(),
                    scale: if range < f64::EPSILON { 1.0 } else { range },
                })
            }
            Method::Robust => Err(TransformError::InvalidInput(
                "robust fit needs quantiles, not moments".into(),
            )),
        }
    }

    /// The method this normalizer was fitted with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Reconstruct from previously fitted statistics — the
    /// deserialization path for caches and provenance replays that
    /// persist `(method, offset, scale)` and must rebuild the exact
    /// normalizer without refitting.
    pub fn from_parts(method: Method, offset: f64, scale: f64) -> Normalizer {
        Normalizer {
            method,
            offset,
            scale,
        }
    }

    /// Apply to one value (NaN passes through for later imputation).
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        (x - self.offset) / self.scale
    }

    /// Apply in place to a slice.
    pub fn apply_slice(&self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }

    /// Invert (for writing model outputs back in physical units).
    #[inline]
    pub fn invert(&self, y: f64) -> f64 {
        y * self.scale + self.offset
    }
}

/// `(x - median) / IQR` from the exact type-7 quartiles of `column` (its
/// present values, in any order; it is reordered): quartile `p` sits at
/// `h = p·(n − 1)` in sorted order. The median is selected first, then
/// the lower quartile left of it and the upper one right of it, each
/// with `total_cmp`, so every pick is bitwise the sorted element. No value
/// cannot fit; an IQR under ε scales by 1, and one infinity at both
/// quartiles (an `∞ − ∞` IQR) gives a NaN scale.
fn robust(column: &mut [f64]) -> Result<Normalizer, TransformError> {
    let n = column.len();
    if n == 0 {
        return Err(TransformError::CannotFit("no finite values".into()));
    }
    // `h = q(n − 1)/4` for quartile `q/4`: its element and its fraction.
    let at = |q: usize| (q * (n - 1) / 4, (q * (n - 1) % 4) as f64 / 4.0);
    let (mid, frac) = at(2);
    let median = select_type7(column, mid, frac, None);
    let x_mid = column[mid];
    let (left, rest) = column.split_at_mut(mid);
    let right = &mut rest[1..];
    let mut quartile = |(i, frac): (usize, f64)| match i.cmp(&mid) {
        Ordering::Less => select_type7(left, i, frac, Some(x_mid)),
        Ordering::Equal => type7(x_mid, frac, || smallest(right, None)),
        Ordering::Greater => select_type7(right, i - mid - 1, frac, None),
    };
    let iqr = quartile(at(3)) - quartile(at(1));
    Ok(Normalizer {
        method: Method::Robust,
        offset: median,
        scale: if iqr.abs() < f64::EPSILON { 1.0 } else { iqr },
    })
}

/// The type-7 quantile at sorted index `i` plus `frac` of `part`, whose
/// sorted successor (if any) is `above`. `part` is left partitioned
/// around `i`.
fn select_type7(part: &mut [f64], i: usize, frac: f64, above: Option<f64>) -> f64 {
    let (_, x_lo, rest) = part.select_nth_unstable_by(i, f64::total_cmp);
    type7(*x_lo, frac, || smallest(rest, above))
}

/// The least of `part` under `total_cmp`, or `above` when `part` is
/// empty (NaN when both are missing, which a fraction > 0 rules out).
fn smallest(part: &[f64], above: Option<f64>) -> f64 {
    part.iter()
        .copied()
        .min_by(f64::total_cmp)
        .or(above)
        .unwrap_or(f64::NAN)
}

/// `x_lo + (x_hi − x_lo)·frac`, and `x_lo` itself when `frac` is 0 or
/// the ends are equal (so `x_hi` is not read). An infinite end wins: −∞
/// when `x_lo` is −∞, else +∞ when `x_hi` is +∞ — the formula's limit
/// as that end runs off, where the formula itself gives `∞ − ∞ = NaN`.
/// So no NaN comes out of ends that are not NaN.
fn type7(x_lo: f64, frac: f64, x_hi: impl FnOnce() -> f64) -> f64 {
    if frac == 0.0 {
        return x_lo;
    }
    let x_hi = x_hi();
    if x_lo == x_hi || x_lo.is_infinite() {
        x_lo
    } else if x_hi.is_infinite() {
        x_hi
    } else {
        x_lo + (x_hi - x_lo) * frac
    }
}

/// Stream `[n, ncols]` row-major `data` through one accumulator per
/// column, each made by `empty`, in a single pass over the rows;
/// accumulator `c` is pushed column `c`'s values in row order.
fn per_column<A>(
    data: &[f64],
    ncols: usize,
    empty: impl Fn() -> A,
    push: impl Fn(&mut A, f64),
) -> Vec<A> {
    let mut columns: Vec<A> = (0..ncols).map(|_| empty()).collect();
    for row in data.chunks_exact(ncols) {
        for (acc, &x) in columns.iter_mut().zip(row) {
            push(acc, x);
        }
    }
    columns
}

/// Per-variable normalizers for multivariate data laid out `[n, nvars]`
/// row-major — the shape climate/fusion feature matrices take before
/// sharding.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnNormalizer {
    normalizers: Vec<Normalizer>,
}

impl ColumnNormalizer {
    /// Fit one normalizer per column in one pass over the rows, one
    /// accumulator per column side by side (for a robust fit, a buffer of
    /// the column's present values, sized to the row count). Each sees
    /// its column's values in row order, so the result is bit-equal to
    /// [`Normalizer::fit`] on that column gathered out of the table.
    pub fn fit(
        method: Method,
        data: &[f64],
        ncols: usize,
    ) -> Result<ColumnNormalizer, TransformError> {
        if ncols == 0 || data.len() % ncols != 0 {
            return Err(TransformError::InvalidInput(format!(
                "{} values not divisible into {ncols} columns",
                data.len()
            )));
        }
        let normalizers = match method {
            Method::ZScore | Method::MinMax => per_column(data, ncols, Welford::new, Welford::push)
                .iter()
                .map(|w| Normalizer::from_welford(method, w))
                .collect::<Result<_, _>>()?,
            Method::Robust => {
                let nrows = data.len() / ncols;
                let present = |column: &mut Vec<f64>, x: f64| {
                    if !x.is_nan() {
                        column.push(x);
                    }
                };
                per_column(data, ncols, || Vec::with_capacity(nrows), present)
                    .iter_mut()
                    .map(|column| robust(column))
                    .collect::<Result<_, _>>()?
            }
        };
        Ok(ColumnNormalizer { normalizers })
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.normalizers.len()
    }

    /// Per-column normalizers.
    pub fn columns(&self) -> &[Normalizer] {
        &self.normalizers
    }

    /// Apply in place to `[n, ncols]` row-major data.
    pub fn apply(&self, data: &mut [f64]) -> Result<(), TransformError> {
        let ncols = self.normalizers.len();
        if data.len() % ncols != 0 {
            return Err(TransformError::ShapeMismatch {
                expected: format!("multiple of {ncols}"),
                got: format!("{}", data.len()),
            });
        }
        // Offsets and scales side by side, so a row is one element-wise
        // subtract-and-divide over three flat slices.
        let offsets: Vec<f64> = self.normalizers.iter().map(|n| n.offset).collect();
        let scales: Vec<f64> = self.normalizers.iter().map(|n| n.scale).collect();
        for row in data.chunks_exact_mut(ncols) {
            for ((x, offset), scale) in row.iter_mut().zip(&offsets).zip(&scales) {
                *x = (*x - offset) / scale;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 12.0 + 7.0)
            .collect()
    }

    #[test]
    fn from_parts_round_trips_fitted_stats() {
        let data = sample();
        let fitted = Normalizer::fit(Method::ZScore, &data).unwrap();
        let rebuilt = Normalizer::from_parts(fitted.method(), fitted.offset, fitted.scale);
        assert_eq!(fitted, rebuilt);
        assert_eq!(fitted.apply(3.25), rebuilt.apply(3.25));
    }

    #[test]
    fn zscore_yields_zero_mean_unit_std() {
        let data = sample();
        let n = Normalizer::fit(Method::ZScore, &data).unwrap();
        let out: Vec<f64> = data.iter().map(|&x| n.apply(x)).collect();
        let mut w = Welford::new();
        w.extend(&out);
        assert!(w.mean().abs() < 1e-10);
        assert!((w.std() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn minmax_yields_unit_interval() {
        let data = sample();
        let n = Normalizer::fit(Method::MinMax, &data).unwrap();
        let out: Vec<f64> = data.iter().map(|&x| n.apply(x)).collect();
        let lo = out.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((lo - 0.0).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn robust_centers_on_median() {
        let mut data = sample();
        data.push(1e9); // extreme outlier
        let n = Normalizer::fit(Method::Robust, &data).unwrap();
        // Median of the sine data is ~7; the outlier must not drag offset.
        assert!((n.offset - 7.0).abs() < 1.0, "offset {}", n.offset);
    }

    #[test]
    fn invert_round_trips() {
        let data = sample();
        for method in [Method::ZScore, Method::MinMax, Method::Robust] {
            let n = Normalizer::fit(method, &data).unwrap();
            for &x in data.iter().take(50) {
                assert!((n.invert(n.apply(x)) - x).abs() < 1e-9, "{method:?}");
            }
        }
    }

    #[test]
    fn constant_input_does_not_divide_by_zero() {
        let data = vec![5.0; 100];
        for method in [Method::ZScore, Method::MinMax, Method::Robust] {
            let n = Normalizer::fit(method, &data).unwrap();
            let y = n.apply(5.0);
            assert!(y.is_finite(), "{method:?} gave {y}");
            assert_eq!(y, 0.0);
        }
    }

    #[test]
    fn nan_skipped_in_fit_passes_through_apply() {
        let mut data = sample();
        data[10] = f64::NAN;
        let n = Normalizer::fit(Method::ZScore, &data).unwrap();
        assert!(n.apply(f64::NAN).is_nan());
        assert!(n.apply(7.0).is_finite());
    }

    #[test]
    fn all_nan_cannot_fit() {
        let data = vec![f64::NAN; 10];
        assert!(matches!(
            Normalizer::fit(Method::ZScore, &data),
            Err(TransformError::CannotFit(_))
        ));
        assert!(Normalizer::fit(Method::Robust, &data).is_err());
        assert!(Normalizer::fit(Method::MinMax, &[]).is_err());
    }

    #[test]
    fn parallel_fit_matches_sequential() {
        let data = sample();
        let seq = Normalizer::fit(Method::ZScore, &data).unwrap();
        let (a, rest) = data.split_at(333);
        let (b, c) = rest.split_at(333);
        let merged = [a, b, c]
            .iter()
            .map(|c| {
                let mut w = Welford::new();
                w.extend(c);
                w
            })
            .fold(Welford::new(), |a, b| a.merge(&b));
        let par = Normalizer::from_welford(Method::ZScore, &merged).unwrap();
        assert!((par.offset - seq.offset).abs() < 1e-10);
        assert!((par.scale - seq.scale).abs() < 1e-10);
    }

    #[test]
    fn column_normalizer_per_variable() {
        // Two columns with very different ranges.
        let mut data = Vec::new();
        for i in 0..100 {
            data.push(i as f64); // col 0: 0..100
            data.push(i as f64 * 1000.0 + 5.0); // col 1: huge scale
        }
        let cn = ColumnNormalizer::fit(Method::ZScore, &data, 2).unwrap();
        assert_eq!(cn.ncols(), 2);
        let mut out = data.clone();
        cn.apply(&mut out).unwrap();
        // Each column independently standardized.
        for c in 0..2 {
            let col: Vec<f64> = out.chunks_exact(2).map(|row| row[c]).collect();
            let mut w = Welford::new();
            w.extend(&col);
            assert!(w.mean().abs() < 1e-9, "col {c}");
            assert!((w.std() - 1.0).abs() < 1e-9, "col {c}");
        }
    }

    #[test]
    fn column_normalizer_shape_checks() {
        assert!(ColumnNormalizer::fit(Method::ZScore, &[1.0, 2.0, 3.0], 2).is_err());
        assert!(ColumnNormalizer::fit(Method::ZScore, &[1.0, 2.0], 0).is_err());
        let cn = ColumnNormalizer::fit(Method::ZScore, &[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let mut bad = vec![1.0; 3];
        assert!(cn.apply(&mut bad).is_err());
    }

    #[test]
    fn apply_slice_in_place() {
        let n = Normalizer {
            method: Method::ZScore,
            offset: 10.0,
            scale: 2.0,
        };
        let mut xs = vec![10.0, 12.0, 8.0];
        n.apply_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 1.0, -1.0]);
    }
}
