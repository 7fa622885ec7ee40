//! Median and quartiles of a sample.

/// Median, quartiles and range of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarize `values` (not empty, no NaN). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance rule for this benchmark is stated in.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quartile = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
        min: v[0],
        max: v[n - 1],
    }
}

/// Median of `values` (not empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The quartile on the better side of the median: the first quartile
/// of times, the third of rates. This is what a run reports from its
/// repeated timings (iterations, set-ups).
///
/// Other tenants of a shared host slow a process for seconds at a
/// time, and only ever slow it. The median of a run moves as soon as
/// half the run is disturbed; the median of its better half holds
/// until three quarters are. Over ten runs of `ensemble_warm` in a
/// noisy spell the medians spread by 14 %, the first quartiles by 7 %.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let s = summarize(values);
    if higher_is_better {
        s.q3
    } else {
        s.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!((s.min, s.max), (1.0, 5.0));
    }

    #[test]
    fn even_count() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
    }

    #[test]
    fn ten_values_match_python() {
        let v: Vec<f64> = (1..=10).map(|x| (x * x) as f64).collect();
        let s = summarize(&v);
        // statistics.quantiles([1,4,9,...,100], n=4) == [7.75, 30.5, 68.25]
        assert_eq!((s.q1, s.median, s.q3), (7.75, 30.5, 68.25));
        assert!((s.rel_iqr() - (68.25 - 7.75) / 30.5).abs() < 1e-12);
    }

    #[test]
    fn better_quartile_follows_the_direction() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(better_quartile(&v, false), 1.5);
        assert_eq!(better_quartile(&v, true), 4.5);
    }

    #[test]
    fn single_value() {
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }
}
