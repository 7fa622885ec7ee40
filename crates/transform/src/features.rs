//! Feature engineering kernels: "computes derivative-based features from
//! diagnostics" (DIII-D pipeline) and spectral features for turbulence
//! analysis (PyFusion-style).

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

/// Rolling standard deviation (population) with the same window rules.
pub fn rolling_std(signal: &[f64], width: usize) -> Result<Vec<f64>, TransformError> {
    if width == 0 {
        return Err(TransformError::InvalidInput("width 0".into()));
    }
    let half = width / 2;
    let n = signal.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let w = &signal[lo..hi];
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        let var = w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / w.len() as f64;
        out.push(var.sqrt());
    }
    Ok(out)
}

/// In-place iterative radix-2 FFT (decimation in time).
/// `re`/`im` length must be a power of two.
pub fn fft_inplace(re: &mut [f64], im: &mut [f64]) -> Result<(), TransformError> {
    let n = re.len();
    if n != im.len() {
        return Err(TransformError::InvalidInput("re/im length mismatch".into()));
    }
    if n == 0 || n & (n - 1) != 0 {
        return Err(TransformError::InvalidInput(format!(
            "FFT length {n} is not a power of two"
        )));
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut cur_r = 1.0;
            let mut cur_i = 0.0;
            for k in 0..len / 2 {
                let a = i + k;
                let b = i + k + len / 2;
                let tr = re[b] * cur_r - im[b] * cur_i;
                let ti = re[b] * cur_i + im[b] * cur_r;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
                let nr = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = nr;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

/// One-sided power spectral density of a real signal (length must be a
/// power of two). Returns `n/2 + 1` bins; bin `k` covers frequency
/// `k * fs / n`.
pub fn power_spectrum(signal: &[f64]) -> Result<Vec<f64>, TransformError> {
    let n = signal.len();
    let mut re = signal.to_vec();
    let mut im = vec![0.0; n];
    fft_inplace(&mut re, &mut im)?;
    let scale = 1.0 / n as f64;
    let mut out = Vec::with_capacity(n / 2 + 1);
    for k in 0..=n / 2 {
        let p = (re[k] * re[k] + im[k] * im[k]) * scale;
        // Double interior bins for the one-sided spectrum.
        out.push(if k == 0 || k == n / 2 { p } else { 2.0 * p });
    }
    Ok(out)
}

/// Band power features: integrate the power spectrum over `bands`
/// (inclusive bin ranges as fractions of Nyquist, e.g. `(0.0, 0.1)`).
pub fn band_powers(spectrum: &[f64], bands: &[(f64, f64)]) -> Result<Vec<f64>, TransformError> {
    if spectrum.is_empty() {
        return Err(TransformError::InvalidInput("empty spectrum".into()));
    }
    let top = (spectrum.len() - 1) as f64;
    bands
        .iter()
        .map(|&(lo, hi)| {
            if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || hi < lo {
                return Err(TransformError::InvalidInput(format!(
                    "bad band ({lo}, {hi})"
                )));
            }
            let a = (lo * top).round() as usize;
            let b = (hi * top).round() as usize;
            Ok(spectrum[a..=b].iter().sum())
        })
        .collect()
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

    #[test]
    fn rolling_std_detects_burst() {
        let mut signal = vec![1.0; 50];
        for v in signal.iter_mut().skip(20).take(5) {
            *v = 10.0;
        }
        let s = rolling_std(&signal, 5).unwrap();
        // Burst edges mix 1.0 and 10.0 inside the window → large std;
        // window fully inside the burst (or fully outside) → zero std.
        assert!(s[19] > 1.0, "edge std {}", s[19]);
        assert!(s[25] > 1.0, "edge std {}", s[25]);
        assert!(s[22] < 1e-12, "inside-burst std {}", s[22]);
        assert!(s[5] < 1e-12);
    }

    #[test]
    fn fft_of_pure_tone_peaks_at_bin() {
        let n = 256;
        let freq_bin = 16;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq_bin as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = power_spectrum(&signal).unwrap();
        assert_eq!(spec.len(), n / 2 + 1);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, freq_bin);
        // Energy concentrated: peak ≥ 100x any non-adjacent bin.
        for (k, &p) in spec.iter().enumerate() {
            if (k as isize - freq_bin as isize).abs() > 1 {
                assert!(spec[peak] > 100.0 * p.max(1e-30), "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn fft_parseval() {
        // Total signal energy equals total spectral power (both averaged).
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.1).sin()).collect();
        let spec = power_spectrum(&signal).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let spec_energy: f64 = spec.iter().sum::<f64>() / n as f64;
        assert!(
            (time_energy - spec_energy).abs() < 1e-9,
            "{time_energy} vs {spec_energy}"
        );
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut re = vec![0.0; 100];
        let mut im = vec![0.0; 100];
        assert!(fft_inplace(&mut re, &mut im).is_err());
        let mut re2 = vec![0.0; 4];
        let mut im2 = vec![0.0; 3];
        assert!(fft_inplace(&mut re2, &mut im2).is_err());
    }

    #[test]
    fn fft_dc_signal() {
        let spec = power_spectrum(&[3.0; 64]).unwrap();
        assert!(spec[0] > 0.0);
        for &p in &spec[1..] {
            assert!(p < 1e-20);
        }
    }

    #[test]
    fn band_power_partition_sums_to_total() {
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin() + 0.3).collect();
        let spec = power_spectrum(&signal).unwrap();
        let bands = band_powers(&spec, &[(0.0, 1.0)]).unwrap();
        let total: f64 = spec.iter().sum();
        assert!((bands[0] - total).abs() < 1e-12);
    }

    #[test]
    fn band_power_validation() {
        let spec = vec![1.0; 10];
        assert!(band_powers(&spec, &[(0.5, 0.2)]).is_err());
        assert!(band_powers(&spec, &[(-0.1, 0.5)]).is_err());
        assert!(band_powers(&[], &[(0.0, 1.0)]).is_err());
    }
}
