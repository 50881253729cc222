//! Deterministic virtual time.
//!
//! The reproduction cannot run on the paper's XCZU15EV at 0.1 GHz, so
//! every timed component charges its cost to a shared [`Clock`] in
//! virtual nanoseconds. Experiments then report virtual time — making
//! Figures 4/5 and the scalability estimates deterministic and
//! host-independent (substitution documented in DESIGN.md).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual nanoseconds since simulation start.
pub type Nanos = u64;

/// A cloneable handle to a shared virtual clock.
///
/// # Examples
///
/// ```
/// use tape_sim::Clock;
///
/// let clock = Clock::new();
/// let view = clock.clone(); // same underlying time
/// clock.advance(1_500);
/// assert_eq!(view.now(), 1_500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    ns: Arc<AtomicU64>,
}

impl Clock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.ns.load(Ordering::Relaxed)
    }

    /// Advances time by `delta` nanoseconds and returns the new time.
    pub fn advance(&self, delta: Nanos) -> Nanos {
        self.ns.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Measures the virtual time consumed by `f`.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Nanos) {
        let start = self.now();
        let value = f();
        (value, self.now() - start)
    }
}

/// Formats virtual nanoseconds human-readably (`1.234 ms`, `56 us`, ...).
pub fn format_ns(ns: Nanos) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_shared_view() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        let view = c.clone();
        view.advance(5);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn measure_captures_delta() {
        let c = Clock::new();
        c.advance(100);
        let (value, delta) = c.measure(|| {
            c.advance(42);
            "done"
        });
        assert_eq!(value, "done");
        assert_eq!(delta, 42);
    }

    #[test]
    fn formatting() {
        assert_eq!(format_ns(17), "17 ns");
        assert_eq!(format_ns(2_500), "2.5 us");
        assert_eq!(format_ns(2_900_000), "2.900 ms");
        assert_eq!(format_ns(1_500_000_000), "1.500 s");
    }
}
