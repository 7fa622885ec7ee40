//! Missing-value imputation ("handling missing values", Fig. 1).
//!
//! The convention throughout drai is that missing values are `f64::NAN`
//! (produced by the CSV reader for empty cells and the fusion extractor
//! for dropped-out channels).

use crate::TransformError;

/// Imputation strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Replace with the mean of finite values.
    Mean,
    /// Replace with the median of finite values.
    Median,
    /// Replace with a constant.
    Constant(f64),
    /// Carry the last finite value forward (time series). Leading NaNs
    /// take the first finite value (back-fill at the head).
    ForwardFill,
    /// Linear interpolation between neighbouring finite samples;
    /// boundary NaNs extend the nearest finite value.
    Interpolate,
}

/// Fraction of values missing (NaN).
pub fn missing_fraction(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|v| v.is_nan()).count() as f64 / values.len() as f64
}

/// Impute in place and return how many values were missing. Errors, with
/// `values` untouched, if every value is NaN and the strategy needs data
/// statistics.
pub fn impute(values: &mut [f64], strategy: Strategy) -> Result<usize, TransformError> {
    // Nothing missing is the common case downstream of a cleaning stage:
    // one read pass, no scratch. Otherwise this stops at the first NaN and
    // each strategy counts the rest in the pass it makes anyway.
    let Some(first) = values.iter().position(|v| v.is_nan()) else {
        return Ok(0);
    };
    let all_missing = || TransformError::CannotFit("all values missing".into());
    match strategy {
        Strategy::Constant(c) => Ok(fill_missing(&mut values[first..], c)),
        Strategy::Mean => {
            let mut present = 0usize;
            let sum: f64 = values
                .iter()
                .filter(|v| !v.is_nan())
                .inspect(|_| present += 1)
                .sum();
            if present == 0 {
                return Err(all_missing());
            }
            Ok(fill_missing(&mut values[first..], sum / present as f64))
        }
        Strategy::Median => {
            let mut present = Vec::with_capacity(values.len());
            present.extend(values.iter().copied().filter(|v| !v.is_nan()));
            if present.is_empty() {
                return Err(all_missing());
            }
            // Selection, not a sort: `total_cmp` orders every bit pattern,
            // so the element selected at `mid` and the maximum of the
            // partition left of it are the two middle values a full sort
            // would put there.
            let (mid, odd) = (present.len() / 2, present.len() % 2 == 1);
            let (below, &mut upper, _) = present.select_nth_unstable_by(mid, f64::total_cmp);
            let median = if odd {
                upper
            } else {
                let lower = below.iter().copied().max_by(f64::total_cmp);
                lower.map_or(upper, |lower| (lower + upper) / 2.0)
            };
            Ok(fill_missing(&mut values[first..], median))
        }
        Strategy::ForwardFill => {
            // Leading NaNs take the first finite value.
            let Some(mut last) = values.iter().copied().find(|v| !v.is_nan()) else {
                return Err(all_missing());
            };
            let mut missing = 0;
            for v in values.iter_mut() {
                if v.is_nan() {
                    *v = last;
                    missing += 1;
                } else {
                    last = *v;
                }
            }
            Ok(missing)
        }
        Strategy::Interpolate => {
            let n = values.len();
            let mut missing = 0;
            let mut i = first;
            while i < n {
                if !values[i].is_nan() {
                    i += 1;
                    continue;
                }
                // Gap [i, j).
                let mut j = i;
                while j < n && values[j].is_nan() {
                    j += 1;
                }
                let left = if i > 0 { Some(values[i - 1]) } else { None };
                let right = if j < n { Some(values[j]) } else { None };
                match (left, right) {
                    (Some(l), Some(r)) => {
                        let gap = (j - i + 1) as f64;
                        for (k, slot) in (i..j).enumerate() {
                            let t = (k + 1) as f64 / gap;
                            values[slot] = l + (r - l) * t;
                        }
                    }
                    (Some(l), None) => values[i..j].fill(l),
                    (None, Some(r)) => values[i..j].fill(r),
                    // No neighbour on either side: the gap is the whole slice.
                    (None, None) => return Err(all_missing()),
                }
                missing += j - i;
                i = j;
            }
            Ok(missing)
        }
    }
}

/// Replace every NaN with `fill`; returns how many there were.
fn fill_missing(values: &mut [f64], fill: f64) -> usize {
    let mut missing = 0;
    for v in values.iter_mut().filter(|v| v.is_nan()) {
        *v = fill;
        missing += 1;
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_fraction_counts() {
        assert_eq!(missing_fraction(&[]), 0.0);
        assert_eq!(missing_fraction(&[1.0, f64::NAN]), 0.5);
        assert_eq!(missing_fraction(&[f64::NAN; 4]), 1.0);
    }

    #[test]
    fn mean_fill() {
        let mut v = vec![1.0, f64::NAN, 3.0];
        assert_eq!(impute(&mut v, Strategy::Mean).unwrap(), 1);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_fill_even_and_odd() {
        let mut v = vec![1.0, f64::NAN, 100.0, 2.0];
        impute(&mut v, Strategy::Median).unwrap();
        assert_eq!(v[1], 2.0); // median of {1, 2, 100}
        let mut w = vec![f64::NAN, 1.0, 3.0, 5.0, 7.0];
        impute(&mut w, Strategy::Median).unwrap();
        assert_eq!(w[0], 4.0); // median of {1,3,5,7}
    }

    #[test]
    fn constant_fill() {
        let mut v = vec![f64::NAN, 2.0, f64::NAN];
        assert_eq!(impute(&mut v, Strategy::Constant(-1.0)).unwrap(), 2);
        assert_eq!(v, vec![-1.0, 2.0, -1.0]);
        // Constant works even when everything is missing.
        let mut all = vec![f64::NAN; 3];
        impute(&mut all, Strategy::Constant(0.0)).unwrap();
        assert_eq!(all, vec![0.0; 3]);
    }

    #[test]
    fn forward_fill_with_leading_gap() {
        let mut v = vec![f64::NAN, f64::NAN, 5.0, f64::NAN, 7.0, f64::NAN];
        impute(&mut v, Strategy::ForwardFill).unwrap();
        assert_eq!(v, vec![5.0, 5.0, 5.0, 5.0, 7.0, 7.0]);
    }

    #[test]
    fn interpolate_interior_gap() {
        let mut v = vec![0.0, f64::NAN, f64::NAN, f64::NAN, 4.0];
        impute(&mut v, Strategy::Interpolate).unwrap();
        assert_eq!(v, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn interpolate_boundary_gaps() {
        let mut v = vec![f64::NAN, 2.0, f64::NAN, 4.0, f64::NAN];
        impute(&mut v, Strategy::Interpolate).unwrap();
        assert_eq!(v, vec![2.0, 2.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn no_missing_is_noop() {
        let mut v = vec![1.0, 2.0];
        assert_eq!(impute(&mut v, Strategy::Mean).unwrap(), 0);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn all_nan_errors_for_statistical_strategies() {
        for s in [
            Strategy::Mean,
            Strategy::Median,
            Strategy::ForwardFill,
            Strategy::Interpolate,
        ] {
            let mut v = vec![f64::NAN; 5];
            assert!(impute(&mut v, s).is_err(), "{s:?}");
        }
    }
}
