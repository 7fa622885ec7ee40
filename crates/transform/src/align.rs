//! Time-series alignment for the fusion archetype
//! (`extract → align → normalize → shard`).
//!
//! Tokamak diagnostics sample at wildly different rates (magnetics at
//! 100 kHz, Thomson scattering at 100 Hz) with independent clocks and
//! drop-outs. Training windows need every channel on one uniform clock:
//! `resample_to_clock` linearly interpolates irregular samples onto a
//! uniform grid, which the fusion archetype then slices into fixed time
//! windows (the "slices high-rate sensor streams into fixed time windows"
//! step of the DIII-D pipeline).

use crate::TransformError;

/// An irregularly sampled channel: `(timestamps, values)`, timestamps
/// strictly increasing, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Channel name (diagnostic id).
    pub name: String,
    /// Sample times (seconds), strictly increasing.
    pub times: Vec<f64>,
    /// Sample values, same length as `times`.
    pub values: Vec<f64>,
}

impl Channel {
    /// Validate monotonicity and length agreement.
    pub fn validate(&self) -> Result<(), TransformError> {
        if self.times.len() != self.values.len() {
            return Err(TransformError::InvalidInput(format!(
                "{}: {} times vs {} values",
                self.name,
                self.times.len(),
                self.values.len()
            )));
        }
        if self.times.windows(2).any(|w| w[1] <= w[0]) {
            return Err(TransformError::InvalidInput(format!(
                "{}: timestamps not strictly increasing",
                self.name
            )));
        }
        Ok(())
    }

    /// Native mean sample rate in Hz (None for < 2 samples).
    pub fn mean_rate(&self) -> Option<f64> {
        if self.times.len() < 2 {
            return None;
        }
        let span = self.times[self.times.len() - 1] - self.times[0];
        if span <= 0.0 {
            return None;
        }
        Some((self.times.len() - 1) as f64 / span)
    }
}

/// A uniform clock: `t_k = start + k / rate_hz` for `k
/// = 0..len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// First tick time (seconds).
    pub start: f64,
    /// Tick rate in Hz.
    pub rate_hz: f64,
    /// Number of ticks.
    pub len: usize,
}

impl Clock {
    /// Build a clock covering `[start, end]` at `rate_hz`.
    pub fn covering(start: f64, end: f64, rate_hz: f64) -> Result<Clock, TransformError> {
        if rate_hz.is_nan() || rate_hz <= 0.0 || end < start {
            return Err(TransformError::InvalidInput(format!(
                "bad clock: [{start}, {end}] at {rate_hz} Hz"
            )));
        }
        let len = ((end - start) * rate_hz).floor() as usize + 1;
        Ok(Clock {
            start,
            rate_hz,
            len,
        })
    }

    /// Time of tick `k`.
    pub(crate) fn tick(&self, k: usize) -> f64 {
        self.start + k as f64 / self.rate_hz
    }
}

/// Resample one channel onto a uniform clock by linear interpolation.
/// Ticks outside the channel's time span become NaN (to be imputed or
/// masked downstream — extrapolating plasma diagnostics fabricates data).
pub(crate) fn resample_to_clock(
    channel: &Channel,
    clock: &Clock,
) -> Result<Vec<f64>, TransformError> {
    channel.validate()?;
    let times = &channel.times;
    let values = &channel.values;
    let mut out = Vec::with_capacity(clock.len);
    let mut seg = 0usize; // invariant: times[seg] <= t target when advanced
    for k in 0..clock.len {
        let t = clock.tick(k);
        if times.is_empty() || t < times[0] || t > times[times.len() - 1] {
            out.push(f64::NAN);
            continue;
        }
        while seg + 1 < times.len() && times[seg + 1] < t {
            seg += 1;
        }
        if t <= times[seg] {
            out.push(values[seg]);
        } else {
            let (t0, t1) = (times[seg], times[seg + 1]);
            let (v0, v1) = (values[seg], values[seg + 1]);
            let frac = (t - t0) / (t1 - t0);
            out.push(v0 + (v1 - v0) * frac);
        }
    }
    Ok(out)
}

/// Align multiple channels onto one clock, producing a row-major
/// `[clock.len, channels.len]` matrix plus the channel order.
pub fn align_channels(
    channels: &[Channel],
    clock: &Clock,
) -> Result<(Vec<f64>, Vec<String>), TransformError> {
    if channels.is_empty() {
        return Err(TransformError::InvalidInput("no channels".into()));
    }
    let per_channel: Vec<Vec<f64>> = channels
        .iter()
        .map(|c| resample_to_clock(c, clock))
        .collect::<Result<_, _>>()?;
    let nch = channels.len();
    let mut matrix = vec![0.0; clock.len * nch];
    for (c, col) in per_channel.iter().enumerate() {
        for (t, &v) in col.iter().enumerate() {
            matrix[t * nch + c] = v;
        }
    }
    Ok((matrix, channels.iter().map(|c| c.name.clone()).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_channel(name: &str, rate: f64, span: f64) -> Channel {
        // value(t) = 10 t, sampled at `rate`.
        let n = (span * rate) as usize + 1;
        let times: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
        let values: Vec<f64> = times.iter().map(|&t| 10.0 * t).collect();
        Channel {
            name: name.into(),
            times,
            values,
        }
    }

    #[test]
    fn clock_covering() {
        let c = Clock::covering(0.0, 1.0, 10.0).unwrap();
        assert_eq!(c.len, 11);
        assert_eq!(c.tick(0), 0.0);
        assert!((c.tick(10) - 1.0).abs() < 1e-12);
        assert!(Clock::covering(1.0, 0.0, 10.0).is_err());
        assert!(Clock::covering(0.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn resample_linear_is_exact_on_linear_signal() {
        let ch = ramp_channel("ip", 7.0, 2.0);
        let clock = Clock::covering(0.0, 2.0, 13.0).unwrap();
        let out = resample_to_clock(&ch, &clock).unwrap();
        for (k, &v) in out.iter().enumerate() {
            let t = clock.tick(k);
            if t <= 2.0 {
                assert!((v - 10.0 * t).abs() < 1e-9, "tick {k}");
            }
        }
    }

    #[test]
    fn out_of_span_ticks_are_nan() {
        let ch = Channel {
            name: "te".into(),
            times: vec![1.0, 2.0],
            values: vec![5.0, 6.0],
        };
        let clock = Clock::covering(0.0, 3.0, 1.0).unwrap(); // ticks 0,1,2,3
        let out = resample_to_clock(&ch, &clock).unwrap();
        assert!(out[0].is_nan());
        assert_eq!(out[1], 5.0);
        assert_eq!(out[2], 6.0);
        assert!(out[3].is_nan());
    }

    #[test]
    fn multirate_alignment() {
        let fast = ramp_channel("fast", 100.0, 1.0);
        let slow = ramp_channel("slow", 3.0, 1.0);
        let clock = Clock::covering(0.0, 1.0, 10.0).unwrap();
        let (matrix, names) = align_channels(&[fast, slow], &clock).unwrap();
        assert_eq!(names, vec!["fast", "slow"]);
        assert_eq!(matrix.len(), clock.len * 2);
        // Both channels represent the same ramp — aligned values agree.
        for t in 0..clock.len {
            let a = matrix[t * 2];
            let b = matrix[t * 2 + 1];
            assert!((a - b).abs() < 1e-9, "tick {t}: {a} vs {b}");
        }
    }

    #[test]
    fn validation_errors() {
        let bad_len = Channel {
            name: "x".into(),
            times: vec![0.0, 1.0],
            values: vec![1.0],
        };
        assert!(bad_len.validate().is_err());
        let non_monotone = Channel {
            name: "x".into(),
            times: vec![0.0, 1.0, 1.0],
            values: vec![1.0; 3],
        };
        assert!(non_monotone.validate().is_err());
        assert!(align_channels(&[], &Clock::covering(0.0, 1.0, 1.0).unwrap()).is_err());
    }

    #[test]
    fn mean_rate() {
        let ch = ramp_channel("x", 50.0, 2.0);
        assert!((ch.mean_rate().unwrap() - 50.0).abs() < 1e-9);
        let single = Channel {
            name: "s".into(),
            times: vec![0.0],
            values: vec![1.0],
        };
        assert_eq!(single.mean_rate(), None);
    }
}
