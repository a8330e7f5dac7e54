//! Deterministic simulated clock.
//!
//! Every component of the stack (flash array, FTL, SATA link, file system,
//! database) charges its latencies to a single shared [`SimClock`]. Elapsed
//! simulated time is therefore a pure function of the workload and the
//! configured timings, which makes every figure in the paper reproducible
//! bit-for-bit and lets tests assert on "execution time" without touching
//! wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Nanoseconds, the base unit of simulated time.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICRO: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLI: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// A shared, monotonically advancing simulated clock.
///
/// Cloning a `SimClock` yields a handle onto the same underlying instant, so
/// a device, a file system and a database can all advance one timeline.
///
/// ```
/// use xftl_flash::{SimClock, MILLI};
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance(3 * MILLI);
/// assert_eq!(view.now(), 3 * MILLI);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at instant zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated instant in nanoseconds since the start of the run.
    pub fn now(&self) -> Nanos {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta` nanoseconds.
    pub fn advance(&self, delta: Nanos) {
        self.now_ns.fetch_add(delta, Ordering::Relaxed);
    }

    /// Advances the clock to `instant` if it lies in the future; a no-op
    /// otherwise. Used to wait for the completion of overlapped flash
    /// operations, whose finish times are absolute timestamps.
    pub fn advance_to(&self, instant: Nanos) {
        self.now_ns.fetch_max(instant, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(10);
        c.advance(32);
        assert_eq!(c.now(), 42);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        b.advance(7);
        assert_eq!(a.now(), 7);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance_to(100);
        assert_eq!(c.now(), 100);
        c.advance_to(40); // already past: no-op
        assert_eq!(c.now(), 100);
        c.advance_to(250);
        assert_eq!(c.now(), 250);
    }
}
