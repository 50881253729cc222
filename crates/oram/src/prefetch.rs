//! Pagewise code prefetching (paper §IV-D, problem (3)).
//!
//! Fetching a contract's code pages in a burst would let the adversary
//! distinguish Code queries from sporadic K-V queries. Instead, the
//! prefetcher spreads code-page fetches among the other queries: after
//! every ORAM access it arms a timer with a random delay of roughly half
//! the observed average inter-query gap, and fetches the next pending
//! code page when the timer fires — so the adversary sees approximately
//! evenly spaced, type-less queries.

use crate::pagestore::PageKey;
use std::collections::VecDeque;
use tape_crypto::SecureRng;
use tape_sim::Nanos;

/// The code prefetch scheduler.
#[derive(Debug)]
pub struct CodePrefetcher {
    pending: VecDeque<PageKey>,
    rng: SecureRng,
    /// Exponential moving average of the gap between real queries.
    avg_gap_ns: u64,
    /// Floor for the demand-fetch stall ([`pace`](Self::pace)): a
    /// quarter of the construction-time gap estimate (the per-query
    /// wire cost), so a paced fetch is guaranteed to trail the previous
    /// query by ≥ 1.25x the wire cost — above any burst threshold
    /// derived from that cost — without paying the full EMA half-gap.
    min_stall_ns: u64,
    last_query_at: Option<Nanos>,
    deadline: Option<Nanos>,
    issued: u64,
    drained: u64,
}

/// Lifetime prefetcher instrumentation, exported through telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Pages issued through the randomized timer ([`CodePrefetcher::poll`]).
    pub issued: u64,
    /// Pages released by [`CodePrefetcher::drain`] without riding the
    /// timer — frame-end bursts the §IV-D discipline tries to avoid.
    pub drained: u64,
    /// Pages still queued.
    pub pending: usize,
    /// Current inter-query gap estimate.
    pub avg_gap_ns: u64,
}

impl CodePrefetcher {
    /// Creates a prefetcher with an initial gap estimate.
    pub fn new(rng: SecureRng, initial_gap_ns: u64) -> Self {
        CodePrefetcher {
            pending: VecDeque::new(),
            rng,
            avg_gap_ns: initial_gap_ns.max(1),
            min_stall_ns: (initial_gap_ns / 4).max(1),
            last_query_at: None,
            deadline: None,
            issued: 0,
            drained: 0,
        }
    }

    /// Queues the code pages of a contract for background fetching.
    pub fn schedule(&mut self, address: tape_primitives::Address, pages: u32) {
        for i in 0..pages {
            self.pending.push_back(PageKey::CodePage(address, i));
        }
    }

    /// Queues an explicit page set — the static analyzer's reachability
    /// plan — instead of the dense `0..pages` prefix. Order is the
    /// caller's (plans arrive sorted, so fetch order stays
    /// deterministic).
    pub fn schedule_pages(&mut self, address: tape_primitives::Address, pages: &[u32]) {
        for &i in pages {
            self.pending.push_back(PageKey::CodePage(address, i));
        }
    }

    /// Number of pages still pending.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Total prefetch queries issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total pages released by [`drain`](Self::drain) instead of the
    /// timer.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Snapshot of the lifetime counters and the current gap estimate.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            issued: self.issued,
            drained: self.drained,
            pending: self.pending.len(),
            avg_gap_ns: self.avg_gap_ns,
        }
    }

    /// Records that a *real* query happened at `now`, updating the gap
    /// estimate and arming the timer if it is not already due.
    ///
    /// An already-expired deadline is deliberately *preserved* so the
    /// caller's next [`poll`](Self::poll) fires it. Re-arming here
    /// (the pre-fix behaviour, kept as
    /// [`on_query_rearming`](Self::on_query_rearming)) pushed the
    /// deadline into the future at every query point before it could be
    /// observed, starving the queue until `drain()` released it as
    /// exactly the frame-end burst §IV-D exists to prevent.
    pub fn on_query(&mut self, now: Nanos) {
        self.note_query(now);
        match self.deadline {
            // Due and payload available: leave it for poll().
            Some(deadline) if deadline <= now && !self.pending.is_empty() => {}
            _ => self.arm(now),
        }
    }

    /// The pre-fix `on_query` that unconditionally re-arms the timer,
    /// kept only as an ablation hook so the leakage auditor's negative
    /// control can reproduce the starvation burst.
    pub fn on_query_rearming(&mut self, now: Nanos) {
        self.note_query(now);
        self.arm(now);
    }

    /// Updates the inter-query gap EMA for a real query at `now`.
    fn note_query(&mut self, now: Nanos) {
        if let Some(last) = self.last_query_at {
            let gap = now.saturating_sub(last).max(1);
            // EMA with α = 1/4.
            self.avg_gap_ns = (3 * self.avg_gap_ns + gap) / 4;
        }
        self.last_query_at = Some(now);
    }

    /// Returns how long a *demand* code fetch should stall before
    /// touching the wire. The stall only has to break burst adjacency —
    /// put a randomized gap of at least a quarter wire-cost between
    /// consecutive code queries — not mimic the timer's half-EMA
    /// cadence, which would multiply `-full` latency for no extra
    /// indistinguishability (the gap distribution stays randomized
    /// either way). Uniform in `[min_stall, 2*min_stall)`. Any armed
    /// timer deadline is consumed: the demand fetch satisfies the
    /// page the timer owed (the caller [`acknowledge`](Self::acknowledge)s
    /// it) and the timer re-arms at the next [`on_query`](Self::on_query).
    pub fn pace(&mut self) -> Nanos {
        self.deadline = None;
        self.min_stall_ns + self.rng.next_below(self.min_stall_ns)
    }

    /// Arms the timer: a random delay around half the average gap
    /// ("approximately half of the global average gap between queries").
    fn arm(&mut self, now: Nanos) {
        if self.pending.is_empty() {
            self.deadline = None;
            return;
        }
        let half = (self.avg_gap_ns / 2).max(1);
        // Uniform in [half/2, 3*half/2): random but centered on half.
        let jitter = self.rng.next_below(half.max(1));
        self.deadline = Some(now + half / 2 + jitter);
    }

    /// Returns the next page to prefetch if the timer has expired at
    /// `now`; the caller performs the actual ORAM query.
    pub fn poll(&mut self, now: Nanos) -> Option<PageKey> {
        match self.deadline {
            Some(deadline) if now >= deadline => {
                let page = self.pending.pop_front();
                if page.is_some() {
                    self.issued += 1;
                }
                self.arm(now);
                page
            }
            _ => None,
        }
    }

    /// Removes `key` from the pending queue — the page was satisfied by
    /// a (paced) demand fetch, so the timer no longer owes it. Returns
    /// `true` when the key was queued.
    pub fn acknowledge(&mut self, key: PageKey) -> bool {
        if let Some(pos) = self.pending.iter().position(|k| *k == key) {
            self.pending.remove(pos);
            if self.pending.is_empty() {
                self.deadline = None;
            }
            true
        } else {
            false
        }
    }

    /// Drains every pending page (used at frame end when the code must
    /// be complete before execution can continue). Drained pages are
    /// counted in the separate [`drained`](Self::drained) stat, not
    /// [`issued`](Self::issued): they bypassed the timer, and the
    /// evaluation harness must be able to see that.
    pub fn drain(&mut self) -> Vec<PageKey> {
        self.deadline = None;
        let pages: Vec<PageKey> = self.pending.drain(..).collect();
        self.drained += pages.len() as u64;
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_primitives::Address;

    fn prefetcher() -> CodePrefetcher {
        CodePrefetcher::new(SecureRng::from_seed(b"prefetch"), 1_000_000)
    }

    #[test]
    fn schedule_and_drain() {
        let mut p = prefetcher();
        p.schedule(Address::from_low_u64(1), 3);
        assert_eq!(p.pending(), 3);
        let drained = p.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0], PageKey::CodePage(Address::from_low_u64(1), 0));
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn timer_fires_after_half_gap() {
        let mut p = prefetcher();
        p.schedule(Address::from_low_u64(1), 2);
        p.on_query(0);
        // Before any plausible deadline: nothing.
        assert_eq!(p.poll(1), None);
        // Far past the deadline: one page, then the timer re-arms.
        let page = p.poll(10_000_000);
        assert!(page.is_some());
        assert_eq!(p.pending(), 1);
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn gap_estimate_tracks_queries() {
        let mut p = prefetcher();
        p.schedule(Address::from_low_u64(1), 1);
        let initial = p.stats().avg_gap_ns;
        // A run of tightly spaced queries shrinks the estimate.
        for i in 0..20u64 {
            p.on_query(i * 10_000);
        }
        assert!(p.stats().avg_gap_ns < initial);
        // Spaced-out queries grow it back.
        let mut t = 1_000_000;
        for _ in 0..20 {
            t += 5_000_000;
            p.on_query(t);
        }
        assert!(p.stats().avg_gap_ns > 1_000_000);
    }

    #[test]
    fn no_deadline_without_pending_pages() {
        let mut p = prefetcher();
        p.on_query(100);
        assert_eq!(p.poll(u64::MAX), None);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn on_query_before_poll_does_not_starve_pending_pages() {
        // Regression: the integration calls on_query *before* poll at
        // every query point. The pre-fix on_query unconditionally
        // re-armed the deadline, so it was always in the future when
        // poll ran and no page ever issued without drain().
        let mut p = prefetcher();
        p.schedule(Address::from_low_u64(1), 4);
        let mut t = 0;
        for _ in 0..64 {
            t += 2_000_000; // well past any armed deadline
            p.on_query(t);
            let _ = p.poll(t);
        }
        assert!(
            p.issued() >= 4,
            "pages must issue through on_query→poll without drain(); issued={}",
            p.issued()
        );
        assert_eq!(p.pending(), 0);
        assert_eq!(p.drain().len(), 0, "nothing left for a frame-end burst");
    }

    #[test]
    fn rearming_ablation_hook_reproduces_starvation() {
        // The legacy behaviour must stay reproducible for the leakage
        // auditor's negative control: same driver order, zero issues.
        let mut p = prefetcher();
        p.schedule(Address::from_low_u64(1), 4);
        let mut t = 0;
        for _ in 0..64 {
            t += 2_000_000;
            p.on_query_rearming(t);
            let _ = p.poll(t);
        }
        assert_eq!(p.issued(), 0, "rearming hook must starve the queue");
        assert_eq!(p.pending(), 4);
        let burst = p.drain();
        assert_eq!(burst.len(), 4, "starved pages surface as the drain burst");
        assert_eq!(p.drained(), 4);
    }

    #[test]
    fn drain_counts_separately_from_issued() {
        let mut p = prefetcher();
        p.schedule(Address::from_low_u64(1), 3);
        p.on_query(0);
        assert!(p.poll(10_000_000).is_some());
        assert_eq!(p.issued(), 1);
        assert_eq!(p.drained(), 0);
        let rest = p.drain();
        assert_eq!(rest.len(), 2);
        assert_eq!(p.issued(), 1, "drain must not inflate issued");
        assert_eq!(p.drained(), 2);
        let stats = p.stats();
        assert_eq!((stats.issued, stats.drained, stats.pending), (1, 2, 0));
    }

    #[test]
    fn pace_consumes_deadline_and_stalls_within_the_floor_band() {
        let mut p = prefetcher(); // initial gap 1 ms -> floor 250 us
        p.schedule(Address::from_low_u64(1), 2);
        p.on_query(0);
        // Pace consumes the armed deadline: poll cannot double-fire it.
        let wait = p.pace();
        assert!((250_000..500_000).contains(&wait), "stall {wait} outside floor band");
        assert_eq!(p.poll(u64::MAX), None);
        // Repeated draws stay in [floor, 2*floor) and vary (jitter).
        let draws: Vec<Nanos> = (0..16).map(|_| p.pace()).collect();
        assert!(draws.iter().all(|w| (250_000..500_000).contains(w)));
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "stall must be randomized");
    }

    #[test]
    fn deadlines_are_randomized() {
        // Two prefetchers with different RNG seeds arm different
        // deadlines for the same query pattern.
        let mut a = CodePrefetcher::new(SecureRng::from_seed(b"a"), 1_000_000);
        let mut b = CodePrefetcher::new(SecureRng::from_seed(b"b"), 1_000_000);
        a.schedule(Address::from_low_u64(1), 8);
        b.schedule(Address::from_low_u64(1), 8);
        let mut fire_a = Vec::new();
        let mut fire_b = Vec::new();
        let mut t = 0;
        for _ in 0..8 {
            a.on_query(t);
            b.on_query(t);
            // Scan forward to see when each fires.
            for probe in (t..t + 2_000_000).step_by(10_000) {
                if fire_a.len() < fire_b.len() + 2 && a.poll(probe).is_some() {
                    fire_a.push(probe);
                    break;
                }
            }
            for probe in (t..t + 2_000_000).step_by(10_000) {
                if b.poll(probe).is_some() {
                    fire_b.push(probe);
                    break;
                }
            }
            t += 1_000_000;
        }
        assert_ne!(fire_a, fire_b);
    }
}
