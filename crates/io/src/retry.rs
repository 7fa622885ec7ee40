//! Retry with deterministic exponential backoff for [`StorageSink`] ops.
//!
//! A [`RetrySink`] wraps any sink and re-attempts operations that fail
//! with a *transient* error (see [`IoError::is_transient`]), sleeping an
//! exponentially growing, jitter-free delay between attempts. Delays go
//! through an injectable [`RetryClock`], so tests use a
//! [`VirtualClock`] that only *accounts* the backoff instead of really
//! sleeping — the whole resilience test suite runs without a single
//! wall-clock sleep.
//!
//! Telemetry:
//!
//! * `io.retry.attempts` — re-attempts issued after a transient failure;
//! * `io.retry.exhausted` — operations that still failed after the final
//!   attempt (the transient error is returned to the caller);
//! * `io.retry.backoff_ns` — total backoff delay requested, in ns
//!   (virtual or real, depending on the clock).

use crate::names::{RETRY_ATTEMPTS, RETRY_BACKOFF_NS, RETRY_EXHAUSTED};
use crate::sink::StorageSink;
use crate::IoError;
use drai_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many times to attempt an operation and how long to wait between
/// attempts. Backoff is deterministic (no jitter): retry `i` (0-based)
/// sleeps `base_delay * multiplier^i`, capped at `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Exponential growth factor per retry.
    pub multiplier: u32,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// 5 attempts, 1 ms → 2 ms → 4 ms → 8 ms, capped at 100 ms.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            multiplier: 2,
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Deterministic delay before retry `retry_index` (0-based).
    pub(crate) fn backoff(&self, retry_index: u32) -> Duration {
        let factor = (self.multiplier.max(1) as u64).saturating_pow(retry_index);
        let ns = (self.base_delay.as_nanos() as u64).saturating_mul(factor);
        Duration::from_nanos(ns).min(self.max_delay)
    }
}

/// Sleep provider for backoff delays.
pub trait RetryClock: Send + Sync {
    /// Wait for `d` (or account it, for virtual clocks).
    fn sleep(&self, d: Duration);
}

/// Real wall-clock sleeping via `std::thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl RetryClock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Accounts requested sleeps without blocking — the test/bench clock.
#[derive(Debug, Default)]
pub struct VirtualClock {
    slept_ns: AtomicU64,
}

impl VirtualClock {
    /// Fresh clock at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Total virtual ns requested so far.
    pub fn slept_ns(&self) -> u64 {
        self.slept_ns.load(Ordering::Relaxed)
    }
}

impl RetryClock for VirtualClock {
    fn sleep(&self, d: Duration) {
        self.slept_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A [`StorageSink`] wrapper retrying transient failures of the inner
/// sink under a [`RetryPolicy`].
///
/// Permanent errors (anything [`IoError::is_transient`] rejects) pass
/// straight through without retry — retrying a `PermissionDenied` or a
/// checksum mismatch only wastes the I/O budget.
pub struct RetrySink<S> {
    inner: S,
    policy: RetryPolicy,
    clock: Arc<dyn RetryClock>,
}

impl<S: StorageSink> RetrySink<S> {
    /// Wrap `inner` with `policy` and an explicit clock (tests pass a
    /// [`VirtualClock`] so no real time is spent).
    pub fn with_clock(inner: S, policy: RetryPolicy, clock: Arc<dyn RetryClock>) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        RetrySink {
            inner,
            policy,
            clock,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn retrying<T>(&self, mut op: impl FnMut() -> Result<T, IoError>) -> Result<T, IoError> {
        let registry = Registry::current();
        let mut retry_index = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && retry_index + 1 < self.policy.max_attempts => {
                    let delay = self.policy.backoff(retry_index);
                    registry.handle(&RETRY_ATTEMPTS, []).incr();
                    registry
                        .handle(&RETRY_BACKOFF_NS, [])
                        .add(delay.as_nanos() as u64);
                    parking_lot::blocking(|| self.clock.sleep(delay));
                    retry_index += 1;
                }
                Err(e) => {
                    if e.is_transient() {
                        registry.handle(&RETRY_EXHAUSTED, []).incr();
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl<S: StorageSink> StorageSink for RetrySink<S> {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
        self.retrying(|| self.inner.write_file(name, data))
    }

    fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
        self.retrying(|| self.inner.read_file(name))
    }

    fn list(&self) -> Result<Vec<String>, IoError> {
        self.retrying(|| self.inner.list())
    }

    fn delete(&self, name: &str) -> Result<(), IoError> {
        self.retrying(|| self.inner.delete(name))
    }

    // Forward: `exists` is a metadata probe; the trait default would
    // read the whole blob on every call (see the trait contract).
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultSink};
    use crate::sink::MemSink;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        assert_eq!(p.backoff(30), Duration::from_millis(100), "capped");
        // Degenerate multiplier stays at base.
        let flat = RetryPolicy { multiplier: 0, ..p };
        assert_eq!(flat.backoff(5), Duration::from_millis(1));
    }

    #[test]
    fn retries_drain_transient_faults_without_sleeping() {
        let clock = VirtualClock::new();
        let faulty = FaultSink::new(MemSink::new(), FaultConfig::transient(11, 0.5));
        // 16 attempts: at a 50% rate each op fails fully with p = 2^-16,
        // so all 128 ops below succeed for any reasonable seed.
        let policy = RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        };
        let sink = RetrySink::with_clock(faulty, policy, clock.clone());
        for i in 0..64 {
            sink.write_file(&format!("f{i}"), b"payload").unwrap();
        }
        assert_eq!(sink.inner().inner().file_count(), 64);
        for i in 0..64 {
            assert_eq!(&*sink.read_file(&format!("f{i}")).unwrap(), b"payload");
        }
        assert!(clock.slept_ns() > 0, "some attempts should have backed off");
    }

    #[test]
    fn permanent_errors_pass_through_unretried() {
        let cfg = FaultConfig {
            seed: 2,
            write_permanent: 1.0,
            ..FaultConfig::default()
        };
        let faulty = FaultSink::new(MemSink::new(), cfg);
        let clock = VirtualClock::new();
        let sink = RetrySink::with_clock(faulty, RetryPolicy::default(), clock.clone());
        assert!(sink.write_file("x", b"v").is_err());
        assert_eq!(clock.slept_ns(), 0, "permanent errors must not back off");
    }

    #[test]
    fn exhaustion_returns_the_transient_error() {
        let faulty = FaultSink::new(MemSink::new(), FaultConfig::transient(5, 1.0));
        let clock = VirtualClock::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let sink = RetrySink::with_clock(faulty, policy, clock.clone());
        let err = sink.write_file("doomed", b"v").unwrap_err();
        assert!(err.is_transient());
        // 3 attempts → 2 backoffs: 1 ms + 2 ms.
        assert_eq!(clock.slept_ns(), 3_000_000);
    }

    #[test]
    fn exists_skips_read_path() {
        // A rate-1.0 read fault would make the default exists() always
        // false *and* burn retries; the forwarded metadata probe is
        // immune to read faults.
        let faulty = FaultSink::new(MemSink::new(), {
            FaultConfig {
                seed: 3,
                read_transient: 1.0,
                ..FaultConfig::default()
            }
        });
        faulty.inner().write_file("present", b"v").unwrap();
        let sink = RetrySink::with_clock(faulty, RetryPolicy::default(), VirtualClock::new());
        assert!(sink.exists("present"));
        assert!(!sink.exists("absent"));
    }
}
