//! Throughput and latency accounting shared by pipeline runs and the
//! streaming executor.

use std::time::Duration;

/// Accumulated work counters for one stage or run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Throughput {
    /// Records processed.
    pub records: u64,
    /// Payload bytes processed.
    pub bytes: u64,
    /// Wall time spent.
    pub elapsed: Duration,
}

impl Throughput {
    /// Mebibytes per second.
    pub fn mib_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.bytes as f64 / (1024.0 * 1024.0) / s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_computed() {
        let t = Throughput {
            records: 1000,
            bytes: 10 * 1024 * 1024,
            elapsed: Duration::from_secs(2),
        };
        assert!((t.mib_per_sec() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_is_zero_rate() {
        let t = Throughput::default();
        assert_eq!(t.mib_per_sec(), 0.0);
    }
}
