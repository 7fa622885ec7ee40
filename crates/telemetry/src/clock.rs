//! The clock seam of the cache's LRU stamps, the monitor sampler and the
//! scheduler: production passes a [`Stopwatch`]; tests pass
//! [`LogicalClock`] (one tick per read) or [`ManualClock`] (moved by
//! hand). Backoff that *sleeps* is another seam (`RetryClock`).

use crate::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonic nanosecond time source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's own origin; never decreases.
    fn now_ns(&self) -> u64;
}

/// The wall clock: nanoseconds since the stopwatch started.
impl Clock for Stopwatch {
    fn now_ns(&self) -> u64 {
        self.elapsed_ns()
    }
}

/// A fake that returns the next integer on every read.
#[derive(Debug, Default)]
pub struct LogicalClock {
    tick: AtomicU64,
}

impl LogicalClock {
    /// A clock starting at tick zero.
    pub fn new() -> LogicalClock {
        LogicalClock::default()
    }
}

impl Clock for LogicalClock {
    fn now_ns(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }
}

/// A fake whose time moves only by [`ManualClock::advance`].
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advance by `d`.
    pub fn advance(&self, d: Duration) {
        self.advance_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Advance by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = Stopwatch::start();
        let a = c.now_ns();
        assert!(c.now_ns() >= a);
    }

    #[test]
    fn logical_clock_ticks_per_read_and_manual_clock_per_advance() {
        let logical = LogicalClock::new();
        let reads: Vec<u64> = (0..3).map(|_| logical.now_ns()).collect();
        assert_eq!(reads, [0, 1, 2]);
        let manual = ManualClock::new();
        assert_eq!((manual.now_ns(), manual.now_ns()), (0, 0));
        manual.advance(Duration::from_micros(2));
        manual.advance_ns(5);
        assert_eq!(manual.now_ns(), 2_005);
    }
}
