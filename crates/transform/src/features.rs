//! Feature engineering kernels: "computes derivative-based features from
//! diagnostics" (DIII-D pipeline) — a finite-difference derivative and a
//! rolling mean.

use crate::TransformError;

/// Central-difference first derivative of a uniformly sampled signal
/// (`dt` seconds between samples). One-sided differences at boundaries.
pub fn derivative(signal: &[f64], dt: f64) -> Result<Vec<f64>, TransformError> {
    if dt.is_nan() || dt <= 0.0 {
        return Err(TransformError::InvalidInput(format!("dt = {dt}")));
    }
    let n = signal.len();
    if n < 2 {
        return Ok(vec![0.0; n]);
    }
    let mut out = Vec::with_capacity(n);
    out.push((signal[1] - signal[0]) / dt);
    for i in 1..n - 1 {
        out.push((signal[i + 1] - signal[i - 1]) / (2.0 * dt));
    }
    out.push((signal[n - 1] - signal[n - 2]) / dt);
    Ok(out)
}

/// Rolling mean with a centered window of `width` samples (odd widths
/// recommended); edges shrink the window.
pub fn rolling_mean(signal: &[f64], width: usize) -> Result<Vec<f64>, TransformError> {
    if width == 0 {
        return Err(TransformError::InvalidInput("width 0".into()));
    }
    let half = width / 2;
    let n = signal.len();
    let full = 2 * half + 1;
    // A window clipped by either end of the signal.
    let clipped = |i: usize| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        signal[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    };
    if n < full {
        return Ok((0..n).map(clipped).collect());
    }
    // Every interior window is whole: `windows` hands them out with no
    // clipping arithmetic or bounds check per sample, summed left to
    // right as a clipped one is.
    let mut out = Vec::with_capacity(n);
    out.extend((0..half).map(clipped));
    out.extend(
        signal
            .windows(full)
            .map(|w| w.iter().sum::<f64>() / full as f64),
    );
    out.extend((n - half..n).map(clipped));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_ramp_is_constant() {
        let signal: Vec<f64> = (0..100).map(|i| 3.0 * i as f64).collect();
        let d = derivative(&signal, 1.0).unwrap();
        assert!(d.iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn derivative_of_sine_is_cosine() {
        let dt = 0.001;
        let signal: Vec<f64> = (0..1000).map(|i| (i as f64 * dt * 10.0).sin()).collect();
        let d = derivative(&signal, dt).unwrap();
        for (i, &di) in d.iter().enumerate().take(990).skip(10) {
            let expect = 10.0 * (i as f64 * dt * 10.0).cos();
            assert!((di - expect).abs() < 1e-3, "i={i}: {di} vs {expect}");
        }
    }

    #[test]
    fn derivative_edge_cases() {
        assert_eq!(derivative(&[], 1.0).unwrap(), Vec::<f64>::new());
        assert_eq!(derivative(&[5.0], 1.0).unwrap(), vec![0.0]);
        assert!(derivative(&[1.0, 2.0], 0.0).is_err());
        assert!(derivative(&[1.0, 2.0], -1.0).is_err());
    }

    #[test]
    fn rolling_mean_smooths() {
        let signal = vec![0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let m = rolling_mean(&signal, 3).unwrap();
        // Interior windows hold {0,10,0} or {10,0,10}: means 10/3 and 20/3,
        // both far from the raw 0/10 swings.
        for &v in &m[1..5] {
            assert!(v > 3.0 && v < 7.0, "smoothed value {v}");
        }
        assert_eq!(m.len(), signal.len());
        assert!(rolling_mean(&signal, 0).is_err());
    }

    #[test]
    fn rolling_mean_equals_the_clipped_window_at_every_sample() {
        let signal: Vec<f64> = (0..40)
            .map(|i| ((i * 7919 % 1009) as f64).sqrt() - 9.0)
            .collect();
        for n in [0, 1, 2, 8, 9, 10, 40] {
            for width in [1, 2, 3, 8, 9, 41, 100] {
                let got = rolling_mean(&signal[..n], width).unwrap();
                let half = width / 2;
                let want: Vec<f64> = (0..n)
                    .map(|i| {
                        let w = &signal[i.saturating_sub(half)..(i + half + 1).min(n)];
                        w.iter().sum::<f64>() / w.len() as f64
                    })
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n={n} width={width}");
            }
        }
    }

    #[test]
    fn rolling_mean_constant_signal() {
        let m = rolling_mean(&[4.0; 10], 5).unwrap();
        assert!(m.iter().all(|&v| (v - 4.0).abs() < 1e-12));
    }
}
