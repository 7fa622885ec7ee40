//! The only place the benchmark reads the wall clock.

use std::time::Instant;

/// A point in time.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Instant);

/// Now.
pub fn now() -> Stamp {
    Stamp(Instant::now())
}

impl Stamp {
    /// Seconds since this stamp.
    pub fn elapsed_s(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since this stamp.
    pub fn elapsed_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Run `f`, returning its result and how many seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed_s())
}
