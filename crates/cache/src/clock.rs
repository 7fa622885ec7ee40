//! The cache's injectable time source.
//!
//! LRU eviction needs a recency order, nothing more — so the clock is a
//! trait, mirroring the retry layer's `RetryClock` seam: production code
//! uses [`WallClock`] (the only place this crate reads time, through
//! `drai_telemetry::Stopwatch` like every crate outside telemetry), while
//! tests and deterministic replays inject [`LogicalClock`], whose ticks
//! advance only when read. Eviction decisions therefore never depend on
//! real time unless the caller explicitly opts in.

use drai_telemetry::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic time source for LRU recency stamps.
pub trait CacheClock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin. Must be
    /// monotonically non-decreasing across calls.
    fn now_ns(&self) -> u64;
}

/// Wall-clock implementation: nanoseconds since the clock was created.
#[derive(Debug)]
pub struct WallClock {
    origin: Stopwatch,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock {
            origin: Stopwatch::start(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl CacheClock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed_ns()
    }
}

/// Deterministic clock: every read returns the next integer, so access
/// order *is* recency order regardless of scheduling or machine speed.
#[derive(Debug, Default)]
pub struct LogicalClock {
    tick: AtomicU64,
}

impl LogicalClock {
    /// A clock starting at tick zero.
    pub fn new() -> LogicalClock {
        LogicalClock::default()
    }

    /// The number of reads so far.
    pub fn reads(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }
}

impl CacheClock for LogicalClock {
    fn now_ns(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn logical_clock_orders_reads() {
        let c = LogicalClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 1);
        assert_eq!(c.now_ns(), 2);
        assert_eq!(c.reads(), 3);
    }
}
