//! Counting allocator: the benchmark's exact, host-side cost counters.
//!
//! Host time on a shared VM repeats to a few percent at best; the number
//! of allocator calls and bytes requested by a deterministic program
//! repeats exactly. The binary installs [`Counting`] as its global
//! allocator, so every allocation the program under test makes is counted
//! from outside it, and the harness reads a [`Snapshot`] before and after
//! each timed call — allocations are attributed to calls into the program
//! exactly as time is.
//!
//! This file holds the package's only `unsafe`. The accounting itself is
//! the safe [`Ledger`], so it is unit-tested without touching the global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The four tallies. `Relaxed` throughout: they are statistics that
/// publish no other data, and every workload is single-threaded.
pub struct Ledger {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A reading of the [`Ledger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls (a `realloc` counts its new size).
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`Ledger::reset_peak`].
    pub peak: u64,
}

impl Snapshot {
    /// Calls and bytes since `earlier` (`live`/`peak` are carried over
    /// from `self`: they are levels, not totals).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            live: self.live,
            peak: self.peak,
        }
    }
}

impl Ledger {
    /// An empty ledger.
    pub const fn new() -> Self {
        Ledger {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn grow(&self, by: u64) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(live, Relaxed);
    }

    /// One successful allocation of `size` bytes.
    pub fn on_alloc(&self, size: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        self.grow(size as u64);
    }

    /// One successful reallocation from `old` to `new` bytes.
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(new as u64, Relaxed);
        if new >= old {
            self.grow((new - old) as u64);
        } else {
            self.live.fetch_sub((old - new) as u64, Relaxed);
        }
    }

    /// One deallocation of `size` bytes.
    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Relaxed);
    }

    /// Current tallies.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            calls: self.calls.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }

    /// Restarts peak tracking from the current live level.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }
}

/// The process-wide ledger behind [`Counting`].
pub static LEDGER: Ledger = Ledger::new();

/// `System`, with every call entered in [`LEDGER`].
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns `System`'s result
// unchanged; the ledger updates touch only atomics and never allocate, so
// the allocator is not re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LEDGER.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LEDGER.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LEDGER.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` as for `dealloc`
        // and a valid non-zero `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LEDGER.on_realloc(layout.size(), new_size);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_keeps_calls_bytes_live_and_peak() {
        let l = Ledger::new();
        l.on_alloc(100);
        l.on_alloc(50);
        assert_eq!(
            l.snapshot(),
            Snapshot {
                calls: 2,
                bytes: 150,
                live: 150,
                peak: 150
            }
        );
        l.on_dealloc(100);
        assert_eq!(
            l.snapshot(),
            Snapshot {
                calls: 2,
                bytes: 150,
                live: 50,
                peak: 150
            }
        );
        // A growing realloc requests its whole new size but adds only the
        // difference to the live heap.
        l.on_realloc(50, 80);
        assert_eq!(
            l.snapshot(),
            Snapshot {
                calls: 3,
                bytes: 230,
                live: 80,
                peak: 150
            }
        );
        l.on_realloc(80, 10);
        assert_eq!(
            l.snapshot(),
            Snapshot {
                calls: 4,
                bytes: 240,
                live: 10,
                peak: 150
            }
        );
        l.on_alloc(200);
        assert_eq!(l.snapshot().peak, 210);
    }

    #[test]
    fn reset_peak_restarts_from_live() {
        let l = Ledger::new();
        l.on_alloc(1000);
        l.on_dealloc(900);
        l.reset_peak();
        assert_eq!(l.snapshot().peak, 100);
        l.on_alloc(5);
        assert_eq!(l.snapshot().peak, 105);
    }

    #[test]
    fn since_subtracts_totals_and_keeps_levels() {
        let l = Ledger::new();
        l.on_alloc(10);
        let a = l.snapshot();
        l.on_alloc(20);
        l.on_dealloc(10);
        let d = l.snapshot().since(&a);
        assert_eq!(
            d,
            Snapshot {
                calls: 1,
                bytes: 20,
                live: 20,
                peak: 30
            }
        );
    }

    /// The global is installed in this test binary too. Other tests
    /// allocate concurrently, so only lower bounds can be asserted.
    #[test]
    fn global_allocator_is_counted() {
        let before = LEDGER.snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let mid = LEDGER.snapshot().since(&before);
        assert!(mid.calls >= 1 && mid.bytes >= 1 << 20);
        assert!(LEDGER.snapshot().peak >= 1 << 20);
        drop(std::hint::black_box(v));
    }
}
