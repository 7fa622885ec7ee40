//! Streaming statistics for normalization and data-quality reporting.
//!
//! The paper's pipelines normalize "by mean and standard deviation" computed
//! over terabyte-scale inputs; a two-pass computation is not an option at
//! that volume. [`Welford`] provides the numerically stable single-pass
//! update plus Chan's parallel merge, so statistics can be reduced across
//! shards/threads. Quantiles are not streamed here: a robust fit
//! (`drai_transform::normalize`) selects exact quartiles from its column.

/// Numerically stable single-pass mean/variance accumulator with min/max.
///
/// Uses Welford's algorithm; `merge` implements the pairwise combination
/// (Chan et al.), making it a commutative monoid suitable for parallel
/// reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    nan_count: u64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            nan_count: 0,
        }
    }

    /// Add one observation. NaNs are counted separately and excluded from
    /// the moments, matching the "handle missing values" preprocessing step.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nan_count += 1;
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Add a slice of observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// The accumulator of `xs` cut into chunks of `chunk_len` values (0 is
    /// taken as 1), each accumulated on its own and merged in chunk order:
    /// bit for bit the fold of [`merge`](Self::merge) over one
    /// [`extend`](Self::extend) per chunk. The association is fixed by
    /// `chunk_len`, so the result is the same on every host.
    ///
    /// [`push`](Self::push) is a serial subtract → divide → add chain
    /// that leaves the divider idle most of the time; four chunks are
    /// advanced side by side so it has four independent chains to work on.
    pub fn of_chunks(xs: &[f64], chunk_len: usize) -> Welford {
        let chunk_len = chunk_len.max(1);
        let mut acc = Welford::new();
        let mut groups = xs.chunks_exact(chunk_len.saturating_mul(4));
        for group in &mut groups {
            let (a, rest) = group.split_at(chunk_len);
            let (b, rest) = rest.split_at(chunk_len);
            let (c, d) = rest.split_at(chunk_len);
            let mut lanes = [Welford::new(); 4];
            for (((&xa, &xb), &xc), &xd) in a.iter().zip(b).zip(c).zip(d) {
                lanes[0].push(xa);
                lanes[1].push(xb);
                lanes[2].push(xc);
                lanes[3].push(xd);
            }
            acc = lanes.iter().fold(acc, |acc, w| acc.merge(w));
        }
        for chunk in groups.remainder().chunks(chunk_len) {
            let mut w = Welford::new();
            w.extend(chunk);
            acc = acc.merge(&w);
        }
        acc
    }

    /// Combine with another accumulator (parallel reduction step).
    pub fn merge(&self, other: &Welford) -> Welford {
        if self.count == 0 {
            let mut r = *other;
            r.nan_count += self.nan_count;
            return r;
        }
        if other.count == 0 {
            let mut r = *self;
            r.nan_count += other.nan_count;
            return r;
        }
        let count = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / count as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / count as f64;
        Welford {
            count,
            mean,
            m2,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            nan_count: self.nan_count + other.nan_count,
        }
    }

    /// Number of non-NaN observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of NaN observations skipped.
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 when fewer than 1 observation).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Fixed-bin histogram over a known range, used by quality reports to
/// detect class imbalance and coverage gaps.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Histogram with `nbins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record an observation (NaN ignored).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count below range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above range top.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total in-range observations.
    pub(crate) fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Imbalance ratio: max bin count / mean bin count of non-empty support.
    /// 1.0 means perfectly uniform; large values signal class imbalance
    /// (a Table 1 readiness challenge for materials data).
    pub fn imbalance_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let nonzero = self.bins.iter().filter(|&&c| c > 0).count();
        let mean = total as f64 / nonzero.max(1) as f64;
        let max = *self.bins.iter().max().expect("nbins > 0") as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 2.0)
            .collect();
        let mut w = Welford::new();
        w.extend(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.variance() - var).abs() < 1e-10);
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).cos() * 3.0).collect();
        let (a, b) = xs.split_at(137);
        let mut wa = Welford::new();
        wa.extend(a);
        let mut wb = Welford::new();
        wb.extend(b);
        let merged = wa.merge(&wb);
        let mut seq = Welford::new();
        seq.extend(&xs);
        assert!((merged.mean() - seq.mean()).abs() < 1e-10);
        assert!((merged.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    /// Every field of an accumulator as bits (NaN moments, which ±inf
    /// inputs produce, mapped to one pattern: their sign is unspecified).
    fn fingerprint(w: &Welford) -> [u64; 6] {
        let f = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
        [w.count, f(w.mean), f(w.m2), f(w.min), f(w.max), w.nan_count]
    }

    /// What `of_chunks` must equal: one `extend` per chunk, folded with
    /// `merge` in chunk order.
    fn fold_of_extends(xs: &[f64], chunk_len: usize) -> Welford {
        xs.chunks(chunk_len)
            .map(|chunk| {
                let mut w = Welford::new();
                w.extend(chunk);
                w
            })
            .fold(Welford::new(), |acc, w| acc.merge(&w))
    }

    #[test]
    fn of_chunks_equals_fold_of_extends_on_edge_shapes() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| match i % 97 {
                13 => f64::NAN,
                _ => (i as f64 * 0.37).sin() * 5.0 + 2.0,
            })
            .collect();
        // Empty input, fewer than four chunks, exactly four, a ragged
        // last chunk after one and after two full groups, chunks of one.
        for (len, chunk_len) in [
            (0, 8),
            (5, 8),
            (24, 8),
            (32, 8),
            (37, 8),
            (64, 8),
            (71, 8),
            (1000, 1),
            (1000, 33),
            (1000, 250),
            (1000, 4096),
            (1000, usize::MAX),
        ] {
            let got = Welford::of_chunks(&xs[..len], chunk_len);
            let want = fold_of_extends(&xs[..len], chunk_len);
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "{len} by {chunk_len}"
            );
        }
        assert_eq!(Welford::of_chunks(&[], 4), Welford::new());
        assert_eq!(Welford::of_chunks(&xs, 0), Welford::of_chunks(&xs, 1));
        for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut ys = xs.clone();
            ys[3] = special;
            ys[500] = -special;
            ys[999] = special;
            assert_eq!(
                fingerprint(&Welford::of_chunks(&ys, 16)),
                fingerprint(&fold_of_extends(&ys, 16)),
                "{special}"
            );
        }
    }

    proptest! {
        #[test]
        fn of_chunks_equals_fold_of_extends(
            xs in proptest::collection::vec(
                prop_oneof![
                    12 => -1e6f64..1e6,
                    2 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                ],
                0..300),
            chunk_len in 1usize..40) {
            let got = Welford::of_chunks(&xs, chunk_len);
            let want = fold_of_extends(&xs, chunk_len);
            prop_assert_eq!(fingerprint(&got), fingerprint(&want));
        }
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut w = Welford::new();
        w.extend(&[1.0, 2.0, 3.0]);
        let e = Welford::new();
        assert_eq!(w.merge(&e), w);
        assert_eq!(e.merge(&w), w);
    }

    #[test]
    fn welford_skips_nan() {
        let mut w = Welford::new();
        w.extend(&[1.0, f64::NAN, 3.0, f64::NAN]);
        assert_eq!(w.count(), 2);
        assert_eq!(w.nan_count(), 2);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn welford_population_variance() {
        let mut w = Welford::new();
        w.extend(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((w.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        h.push(f64::NAN);
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert!(h.bins().iter().all(|&c| c == 1));
        assert!((h.imbalance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_imbalance() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        for _ in 0..90 {
            h.push(0.5);
        }
        for _ in 0..10 {
            h.push(1.5);
        }
        assert!((h.imbalance_ratio() - 1.8).abs() < 1e-12);
    }
}
