//! Deterministic queueing substrate for the overload-resilient gateway.
//!
//! The gateway (`hardtape::gateway`) turns overload into a first-class,
//! tested state; this module supplies the mechanism-free building
//! blocks it schedules with, kept in `tape-sim` so tests and benches
//! can instrument them directly:
//!
//! * [`BoundedQueue`] — a fixed-capacity FIFO that *refuses* instead of
//!   growing, handing the refused item back.
//! * [`Drr`] — deficit-round-robin bookkeeping: per-queue deficit
//!   counters that make one heavy tenant unable to starve the others,
//!   independent of what the queues hold.
//! * [`EventLog`] — a running keccak digest of the schedule's event
//!   lines, byte-identical across runs of the same seed; the soak
//!   harness compares digests to prove determinism.
//! * [`interleave`] — a seeded shuffle of per-tenant submission counts
//!   into one global arrival order, the soak driver's load shape.

use core::fmt;
use std::collections::VecDeque;
use tape_crypto::{Keccak256, SecureRng};

/// A fixed-capacity FIFO that sheds instead of growing.
///
/// # Examples
///
/// ```
/// use tape_sim::queue::BoundedQueue;
///
/// let mut q = BoundedQueue::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.push(3), Err(3)); // full: the item comes back
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a queue that can hold nothing
    /// is a configuration error, not a policy.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BoundedQueue capacity must be positive");
        BoundedQueue { items: VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends `item`, or returns it to the caller when full.
    ///
    /// # Errors
    ///
    /// The rejected item itself, so the caller can shed it with a
    /// typed error instead of losing it.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// The oldest item, without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Iterates the queued items oldest-first, without removing them
    /// (backlog inspection — e.g. remaining-work estimates for
    /// `retry_after` hints).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Deficit-round-robin bookkeeping over queues addressed by index.
///
/// Each round, an *active* (non-empty) queue earns `QUANTUM` units
/// of credit; serving an item spends its cost. A queue whose head costs
/// more than its accumulated deficit waits — so a tenant submitting
/// heavyweight bundles gets proportionally *fewer* of them served per
/// round, and light tenants are never starved. An emptied queue
/// forfeits its deficit (the classic DRR rule), so credit cannot be
/// hoarded across idle periods.
///
/// # Examples
///
/// ```
/// use tape_sim::queue::Drr;
///
/// let mut drr = Drr::default();
/// drr.begin_round(0);
/// assert!(!drr.try_spend(0, 2)); // one round's credit does not cover cost 2
/// drr.begin_round(0);
/// assert!(drr.try_spend(0, 2)); // two rounds' credit does
/// ```
#[derive(Debug, Clone, Default)]
pub struct Drr {
    deficits: Vec<u64>,
}

/// Credit a queue earns per round; a gateway bundle costs its
/// transaction count, so a 4-transaction bundle waits four rounds.
const QUANTUM: u64 = 1;

impl Drr {
    fn slot(&mut self, index: usize) -> &mut u64 {
        if index >= self.deficits.len() {
            self.deficits.resize(index + 1, 0);
        }
        &mut self.deficits[index]
    }

    /// Credits queue `index` with one `QUANTUM` (call once per round
    /// per active queue).
    pub fn begin_round(&mut self, index: usize) {
        let slot = self.slot(index);
        *slot = slot.saturating_add(QUANTUM);
    }

    /// Spends `cost` from queue `index` if its deficit covers it.
    /// Returns `false` (leaving the deficit untouched) otherwise.
    pub fn try_spend(&mut self, index: usize, cost: u64) -> bool {
        let slot = self.slot(index);
        if *slot >= cost {
            *slot -= cost;
            true
        } else {
            false
        }
    }

    /// Forfeits queue `index`'s accumulated credit (queue emptied).
    pub fn forfeit(&mut self, index: usize) {
        *self.slot(index) = 0;
    }

    /// Current deficit of queue `index`.
    pub fn deficit(&mut self, index: usize) -> u64 {
        *self.slot(index)
    }
}

/// A running digest of schedule events.
///
/// The gateway and the fleet router record every admission, shed,
/// execution, and completion here; two runs of the same seed must
/// record byte-identical lines, which the digest makes cheap to compare
/// (and cheap for `scripts/verify.sh --soak` to diff across processes).
/// A line is hashed as it is recorded and then forgotten: nothing reads
/// a line back, and the log's memory does not grow with its length.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    hasher: Keccak256,
    line: String,
    lines: u64,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends one event line, formatted into a reused buffer.
    pub fn record(&mut self, line: fmt::Arguments<'_>) {
        self.line.clear();
        if self.lines > 0 {
            self.line.push('\n');
        }
        // Writing into a `String` cannot fail.
        let _ = fmt::Write::write_fmt(&mut self.line, line);
        self.hasher.update(self.line.as_bytes());
        self.lines += 1;
    }

    /// Keccak-256 over the newline-joined lines, hex-encoded: equal
    /// logs ⇔ equal digests.
    pub fn digest(&self) -> String {
        let hash = self.hasher.clone().finalize();
        let mut out = String::with_capacity(64);
        for byte in hash.as_bytes() {
            out.push_str(&format!("{byte:02x}"));
        }
        out
    }
}

/// Shuffles per-tenant submission counts into one deterministic global
/// arrival order: tenant `i` appears exactly `counts[i]` times, in an
/// order that depends only on `seed`. This is the soak driver's load
/// shape — interleaved, bursty, and reproducible.
pub fn interleave(counts: &[usize], seed: u64) -> Vec<usize> {
    let mut seed_bytes = Vec::with_capacity(16);
    seed_bytes.extend_from_slice(b"intrlev!");
    seed_bytes.extend_from_slice(&seed.to_be_bytes());
    let mut rng = SecureRng::from_seed(&seed_bytes);

    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(tenant, &n)| std::iter::repeat_n(tenant, n))
        .collect();
    // Fisher–Yates on the DRBG stream.
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_refuses_when_full_and_returns_item() {
        let mut q = BoundedQueue::new(3);
        for i in 0..3 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(0));
        assert!(q.push(99).is_ok());
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), [1, 2, 99]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_a_configuration_error() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn drr_heavy_costs_wait_for_credit() {
        let mut drr = Drr::default();
        drr.begin_round(0);
        // Cost 3 needs three rounds of quantum-1 credit.
        assert!(!drr.try_spend(0, 3));
        drr.begin_round(0);
        assert!(!drr.try_spend(0, 3));
        drr.begin_round(0);
        assert!(drr.try_spend(0, 3));
        assert_eq!(drr.deficit(0), 0);
    }

    #[test]
    fn drr_forfeit_drops_hoarded_credit() {
        let mut drr = Drr::default();
        for _ in 0..5 {
            drr.begin_round(2);
        }
        assert_eq!(drr.deficit(2), 5);
        drr.forfeit(2);
        assert_eq!(drr.deficit(2), 0);
        // Untouched queues are unaffected.
        assert_eq!(drr.deficit(0), 0);
    }

    #[test]
    fn event_log_digest_is_order_sensitive_and_deterministic() {
        let mut a = EventLog::new();
        a.record(format_args!("admit 1"));
        a.record(format_args!("complete 1"));
        let mut b = EventLog::new();
        b.record(format_args!("admit 1"));
        b.record(format_args!("complete 1"));
        assert_eq!(a.digest(), b.digest());

        let mut c = EventLog::new();
        c.record(format_args!("complete 1"));
        c.record(format_args!("admit 1"));
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest().len(), 64);
    }

    /// A log holding `lines`, recorded in order.
    fn log_of(lines: &[String]) -> EventLog {
        let mut log = EventLog::new();
        for line in lines {
            log.record(format_args!("{line}"));
        }
        log
    }

    /// The digest is keccak of the newline-joined lines; these constants
    /// pin it for the empty log, a line shorter and a line longer than
    /// keccak's 136-byte rate, multi-byte UTF-8, and a long log.
    #[test]
    fn event_log_digest_is_pinned() {
        let long = format!("t=1 error session=1 ticket=1 err={}", "x".repeat(200));
        let utf8 = "t=2 error session=2 ticket=9 err=Überlauf → 𝔽 🦀".to_string();
        let many: Vec<String> = (0..1_000u64)
            .map(|i| format!("t={} admit session={} ticket={i} cost=1", i * 37, i % 7))
            .collect();
        let digests: Vec<String> = [
            log_of(&[]),
            log_of(&["t=0 connect session=1".to_string()]),
            log_of(&[long]),
            log_of(&[utf8]),
            log_of(&many),
        ]
        .iter()
        .map(EventLog::digest)
        .collect();
        assert_eq!(
            digests,
            [
                "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
                "513241414dcea8f98c971562af188899d40374e0a1ed7af1786307688ae1d203",
                "b58a2d6e338b23bb53b64a3314d055a9a159f77fdb190f2a519a6aba0cd0f9f9",
                "186107ff2bd995bcc94360d52d0a0e494d81c0d696b54430528358ed7e2697c6",
                "bea622c952663bb2fb83934badb3b27304eed20feb384ef2ea983574ec4fff80",
            ]
        );
    }

    #[test]
    fn interleave_is_a_seeded_permutation_of_the_counts() {
        let counts = [3, 0, 5, 1];
        let order = interleave(&counts, 42);
        assert_eq!(order.len(), 9);
        for (tenant, &n) in counts.iter().enumerate() {
            assert_eq!(order.iter().filter(|&&t| t == tenant).count(), n);
        }
        assert_eq!(order, interleave(&counts, 42), "same seed, same order");
        assert_ne!(order, interleave(&counts, 43), "different seed differs");
    }
}
