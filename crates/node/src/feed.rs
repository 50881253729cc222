//! The block feed: the untrusted wire between the SP's full node and
//! the device (paper step 11 delivery path, threats A1/A6).
//!
//! [`BlockFeed`] wraps a [`Node`] and serves `(header, delta)` pairs for
//! synchronization. When armed with a [`FaultPlan`] it *becomes* the
//! adversary: forging Merkle proofs, lying about account contents,
//! mismatching header and delta, or going transiently unavailable —
//! per the plan's deterministic schedule.

use crate::{BlockHeader, Node, StateDelta};
use tape_evm::Transaction;
use tape_primitives::Address;
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::Nanos;

/// Failure fetching from the feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The node produced no block yet.
    NoBlock,
    /// The node is transiently unreachable; the caller should retry.
    Unavailable,
}

impl core::fmt::Display for FeedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FeedError::NoBlock => write!(f, "the node has no block to serve"),
            FeedError::Unavailable => write!(f, "the node is transiently unavailable"),
        }
    }
}

impl std::error::Error for FeedError {}

/// The SP-controlled delivery path for block headers and state deltas.
pub struct BlockFeed {
    node: Node,
    faults: Option<FaultPlan>,
    /// Which of the two equivocating sibling heads the feed serves next
    /// ([`FaultKind::Equivocate`] alternates this every fetch).
    equivocate_flip: bool,
    /// Monotone counter salting the replacement branches produced by
    /// [`FaultKind::Reorg`], so each reorg yields fresh block content.
    reorg_seq: u64,
}

impl core::fmt::Debug for BlockFeed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BlockFeed")
            .field("height", &self.node.height())
            .field("armed", &self.faults.is_some())
            .finish()
    }
}

impl BlockFeed {
    /// Wraps a node in an (initially honest) feed.
    pub fn new(node: Node) -> Self {
        BlockFeed { node, faults: None, equivocate_flip: false, reorg_seq: 0 }
    }

    /// Makes the feed adversarial: fetches consult the plan at
    /// [`FaultSite::NodeFeed`] and may forge proofs
    /// ([`FaultKind::BadProof`]), lie about account contents
    /// ([`FaultKind::ContentLie`]), serve a delta that does not match
    /// the header ([`FaultKind::HeaderMismatch`]), or fail transiently
    /// ([`FaultKind::Unavailable`]).
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The wrapped node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Mutable node access (block production).
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Serves the head block's header and proof-carrying state delta.
    ///
    /// # Errors
    ///
    /// [`FeedError::NoBlock`] before the first block,
    /// [`FeedError::Unavailable`] when an armed fault drops the request.
    pub fn fetch_head(&mut self) -> Result<(BlockHeader, StateDelta), FeedError> {
        let mut header = self.node.head().ok_or(FeedError::NoBlock)?.header.clone();
        let mut delta = self.node.head_state_delta().ok_or(FeedError::NoBlock)?;

        if let Some(plan) = self.faults.clone() {
            if let Some(decision) = plan.decide_for(
                FaultSite::NodeFeed,
                &[
                    FaultKind::BadProof,
                    FaultKind::ContentLie,
                    FaultKind::HeaderMismatch,
                    FaultKind::Unavailable,
                    FaultKind::Equivocate,
                    FaultKind::Reorg { depth: 0 },
                    FaultKind::StallHead,
                ],
            ) {
                match decision.kind {
                    FaultKind::Unavailable => return Err(FeedError::Unavailable),
                    FaultKind::BadProof => forge_proof(&mut delta, decision.param),
                    FaultKind::ContentLie => lie_about_content(&mut delta, decision.param),
                    // Equivocation: every other fetch serves a *verified
                    // sibling* of the honest head — same height, same
                    // state root, different hash. Both variants pass
                    // every cryptographic check; only cross-fetch memory
                    // can catch the feed alternating.
                    FaultKind::Equivocate => {
                        self.equivocate_flip = !self.equivocate_flip;
                        if self.equivocate_flip {
                            header.timestamp ^= 1;
                            delta.block_hash = header.hash();
                        }
                    }
                    // The feed reorganizes its own chain: the top
                    // `depth` blocks vanish and a (one block taller)
                    // replacement branch appears. Everything served
                    // afterwards is honest *for the new branch*.
                    FaultKind::Reorg { depth } => {
                        self.self_reorg(depth);
                        header = self.node.head().ok_or(FeedError::NoBlock)?.header.clone();
                        delta = self.node.head_state_delta().ok_or(FeedError::NoBlock)?;
                    }
                    // A frozen feed: serve the block *below* the head,
                    // verifiably — staleness, not forgery.
                    FaultKind::StallHead => {
                        if self.node.height() >= 2 {
                            let index = self.node.height() - 2;
                            header = self
                                .node
                                .block(index)
                                .ok_or(FeedError::NoBlock)?
                                .header
                                .clone();
                            delta =
                                self.node.state_delta(index).ok_or(FeedError::NoBlock)?;
                        }
                    }
                    // HeaderMismatch: serve a delta claiming a different
                    // block — the device must notice before verifying any
                    // proof.
                    _ => {
                        delta.block_hash.0[0] ^= 0x01;
                    }
                }
            }
        }
        Ok((header, delta))
    }

    /// Serves one historical block's `(header, delta)` — the download
    /// path a consumer walks to replay a branch after a reorg. Served
    /// honestly for whatever branch the node currently holds: the
    /// consumer verifies proofs and parent links regardless, so a
    /// withheld or substituted block surfaces as a verification failure
    /// on their side.
    ///
    /// # Errors
    ///
    /// [`FeedError::NoBlock`] when `number` is not on the feed's chain.
    pub fn fetch_block(&mut self, number: u64) -> Result<(BlockHeader, StateDelta), FeedError> {
        let index = self.node.block_index(number).ok_or(FeedError::NoBlock)?;
        let header = self.node.block(index).ok_or(FeedError::NoBlock)?.header.clone();
        let delta = self.node.state_delta(index).ok_or(FeedError::NoBlock)?;
        Ok((header, delta))
    }

    /// Abandons the top `depth` blocks and produces a `depth + 1` block
    /// replacement branch (so the new head out-weighs the old in any
    /// height-first fork-choice). The branch blocks carry nonce-bumping
    /// self-transfers from the richest account, salted by `reorg_seq` so
    /// they never collide with the abandoned blocks' content.
    fn self_reorg(&mut self, depth: u32) {
        let height = self.node.height();
        let d = (depth as usize).min(height.saturating_sub(1));
        if !self.node.revert_to(height - d) {
            return;
        }
        self.reorg_seq += 1;
        let Some(payer) = richest_account(self.node.state()) else {
            return;
        };
        for i in 0..=d as u64 {
            let salt = self.reorg_seq * 1_000 + i + 1;
            self.node.produce_block(vec![Transaction::transfer(
                payer,
                payer,
                tape_primitives::U256::from(salt),
            )]);
        }
    }
}

/// The funded account a self-reorging feed uses to mint branch content
/// (largest balance; smallest address breaks ties deterministically).
fn richest_account(state: &tape_state::InMemoryState) -> Option<Address> {
    let mut best: Option<(Address, tape_primitives::U256)> = None;
    for (address, account) in state.iter() {
        let replace = match &best {
            None => account.balance > tape_primitives::U256::ZERO,
            Some((best_addr, best_bal)) => {
                account.balance > *best_bal
                    || (account.balance == *best_bal && *address < *best_addr)
            }
        };
        if replace {
            best = Some((*address, account.balance));
        }
    }
    best.map(|(addr, _)| addr)
}

/// Forges the proof layer of a delta — attack A6 on the authentication
/// itself, in one of three shapes selected by `param`:
///
/// * mode 0 — truncates (or, for very short proofs, corrupts) one
///   account's Merkle proof;
/// * mode 1 — tampers with a storage slot of one account while keeping
///   its (now stale) proof: a forged storage-slot "proof", caught
///   because the account RLP commits to the storage contents;
/// * mode 2 — flips the delta's claimed state root: a forged header
///   root, caught by the header/delta binding check before any proof is
///   even verified.
fn forge_proof(delta: &mut StateDelta, param: u64) {
    if delta.accounts.is_empty() {
        delta.block_hash.0[1] ^= 0x01;
        return;
    }
    let victim = ((param / 3) % delta.accounts.len() as u64) as usize;
    match param % 3 {
        0 => {
            let proof = &mut delta.accounts[victim].proof;
            if proof.len() > 1 {
                proof.pop();
            } else if let Some(first) = proof.first_mut() {
                if let Some(byte) = first.first_mut() {
                    *byte ^= 0xFF;
                }
            }
        }
        1 => {
            let account = &mut delta.accounts[victim].account;
            match account.storage.iter().next().map(|(k, v)| (*k, *v)) {
                Some((key, value)) => {
                    let forged = value.wrapping_add(tape_primitives::U256::ONE);
                    account.storage.insert(key, forged);
                }
                None => {
                    account
                        .storage
                        .insert(tape_primitives::U256::ONE, tape_primitives::U256::ONE);
                }
            }
        }
        _ => {
            delta.state_root.0[0] ^= 0x01;
        }
    }
}

/// Retry discipline for transient feed unavailability, in virtual
/// time: feed polls one sync makes before it gives up.
pub const RETRY_MAX_ATTEMPTS: u32 = 5;
/// Backoff before the second attempt.
const RETRY_BASE_BACKOFF_NS: Nanos = 2_000_000;
/// Backoff saturation value.
const RETRY_MAX_BACKOFF_NS: Nanos = 16_000_000;

/// The backoff to sleep after failed attempt `attempt` (0-based):
/// the base shifted left by `attempt`, saturated at the cap — 2, 4, 8,
/// 16, 16, … ms. Never overflows, whatever the attempt number.
pub fn backoff_ns(attempt: u32) -> Nanos {
    // A shift of more than `leading_zeros` would push bits out the
    // top; that is already past the cap, so clamp to it without
    // computing the (overflowing) shift at all.
    if attempt > RETRY_BASE_BACKOFF_NS.leading_zeros() {
        return RETRY_MAX_BACKOFF_NS;
    }
    (RETRY_BASE_BACKOFF_NS << attempt).min(RETRY_MAX_BACKOFF_NS)
}

/// Circuit-breaker states for the full-node path (standard three-state
/// machine: Closed → Open on consecutive failures → HalfOpen probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls are refused without touching the feed, until the
    /// cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe call is allowed; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

impl core::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// A circuit breaker over the block-feed path.
///
/// The device's `sync_from_feeds` already retries *within* one sync
/// ([`RETRY_MAX_ATTEMPTS`] polls, [`backoff_ns`] apart); the breaker
/// sits above it so a persistent outage stops consuming that retry
/// budget inline: after
/// `failure_threshold` consecutive failed syncs the breaker opens and
/// refuses further syncs (cheaply, without touching the feed) until
/// `cooldown_ns` of virtual time has elapsed, then lets exactly one
/// probe through. The device keeps serving bundles against its last
/// attested head meanwhile — with an explicit staleness bound.
///
/// Pure state machine: time is passed in by the caller (the virtual
/// clock), so the breaker is as deterministic as everything else.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    failure_threshold: u32,
    cooldown_ns: Nanos,
    opened_at: Nanos,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `failure_threshold` consecutive
    /// failures and probes after `cooldown_ns` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `failure_threshold` is zero (the breaker would never
    /// admit a single call).
    pub fn new(failure_threshold: u32, cooldown_ns: Nanos) -> Self {
        assert!(failure_threshold > 0, "breaker threshold must be positive");
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            failure_threshold,
            cooldown_ns,
            opened_at: 0,
        }
    }

    /// The current state, after applying any Open → HalfOpen cooldown
    /// transition due at `now`.
    pub fn state(&mut self, now: Nanos) -> BreakerState {
        if self.state == BreakerState::Open
            && now.saturating_sub(self.opened_at) >= self.cooldown_ns
        {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// Whether a call may proceed at `now`. `true` in Closed and
    /// HalfOpen (the probe); `false` while Open.
    pub fn call_permitted(&mut self, now: Nanos) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Virtual time until the breaker will next admit a call (0 when it
    /// already would).
    pub fn retry_after(&mut self, now: Nanos) -> Nanos {
        match self.state(now) {
            BreakerState::Open => {
                (self.opened_at + self.cooldown_ns).saturating_sub(now)
            }
            _ => 0,
        }
    }

    /// Records a successful call: closes the breaker and clears the
    /// failure streak.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failed call at `now`. In Closed, counts toward the
    /// threshold; in HalfOpen, the failed probe re-opens immediately
    /// (and restarts the cooldown from `now`).
    pub fn record_failure(&mut self, now: Nanos) {
        match self.state(now) {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                }
            }
            // A failure reported while Open (caller raced the state
            // check) extends the outage window.
            BreakerState::Open => self.opened_at = now,
        }
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

/// Inflates one account's balance while keeping the (now stale) proof —
/// attack A6 on the content.
fn lie_about_content(delta: &mut StateDelta, param: u64) {
    if delta.accounts.is_empty() {
        delta.block_hash.0[1] ^= 0x01;
        return;
    }
    let victim = (param % delta.accounts.len() as u64) as usize;
    let account = &mut delta.accounts[victim].account;
    account.balance = account.balance.wrapping_add(tape_primitives::U256::ONE);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::{Env, Transaction};
    use tape_primitives::{Address, U256};
    use tape_sim::Clock;
    use tape_state::{Account, InMemoryState};

    fn feed_with_block() -> BlockFeed {
        let mut state = InMemoryState::new();
        let alice = Address::from_low_u64(0xA11CE);
        let bob = Address::from_low_u64(0xB0B);
        state.put_account(alice, Account::with_balance(U256::from(u64::MAX)));
        state.put_account(bob, Account::with_balance(U256::from(1_000u64)));
        let mut feed = BlockFeed::new(Node::new(state, Env::default()));
        feed.node_mut()
            .produce_block(vec![Transaction::transfer(alice, bob, U256::from(7u64))]);
        feed
    }

    #[test]
    fn honest_feed_serves_verifiable_deltas() {
        let mut feed = feed_with_block();
        let (header, delta) = feed.fetch_head().unwrap();
        assert_eq!(delta.block_hash, header.hash());
        delta.verify().unwrap();
    }

    #[test]
    fn empty_feed_reports_no_block() {
        let mut feed = BlockFeed::new(Node::new(InMemoryState::new(), Env::default()));
        assert_eq!(feed.fetch_head().unwrap_err(), FeedError::NoBlock);
    }

    #[test]
    fn armed_feed_eventually_forges() {
        let clock = Clock::new();
        let plan = FaultPlan::new(7, &clock);
        // every = 1: every fetch is attacked until the budget runs out.
        plan.arm(
            FaultSite::NodeFeed,
            &[
                FaultKind::BadProof,
                FaultKind::ContentLie,
                FaultKind::HeaderMismatch,
                FaultKind::Unavailable,
            ],
            1,
            16,
        );
        let mut feed = feed_with_block();
        feed.arm_faults(plan.clone());

        let mut rejected = 0;
        let mut unavailable = 0;
        for _ in 0..16 {
            match feed.fetch_head() {
                Err(FeedError::Unavailable) => unavailable += 1,
                Err(err) => unreachable!("a block exists and no policy is involved: {err}"),
                Ok((header, delta)) => {
                    let bad = delta.block_hash != header.hash()
                        || delta.state_root != header.state_root
                        || delta.verify().is_err();
                    assert!(bad, "armed fetch served an honest delta");
                    rejected += 1;
                }
            }
        }
        assert_eq!(rejected + unavailable, 16);
        assert_eq!(plan.injected(), 16);

        // Budget exhausted: the feed is honest again.
        let (header, delta) = feed.fetch_head().unwrap();
        assert_eq!(delta.block_hash, header.hash());
        delta.verify().unwrap();
    }

    #[test]
    fn backoff_shift_saturates_instead_of_overflowing() {
        // 2, 4, 8, 16, 16, … ms: shifts that would push bits past the
        // top of a u64 (a 2 ms base has 43 leading zeros) must cap, not
        // wrap to a tiny (or huge) value.
        for attempt in 0..=100 {
            let expected = if attempt < 3 { 2_000_000 << attempt } else { 16_000_000 };
            assert_eq!(backoff_ns(attempt), expected, "attempt {attempt}");
        }
        assert_eq!(backoff_ns(u32::MAX), RETRY_MAX_BACKOFF_NS);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let mut breaker = CircuitBreaker::new(3, 1_000);
        assert!(breaker.call_permitted(0));
        breaker.record_failure(10);
        breaker.record_failure(20);
        assert_eq!(breaker.state(20), BreakerState::Closed);
        breaker.record_failure(30);
        assert_eq!(breaker.state(30), BreakerState::Open);
        assert!(!breaker.call_permitted(30));
        assert_eq!(breaker.retry_after(30), 1_000);
        assert_eq!(breaker.retry_after(530), 500);

        // Cooldown elapsed: exactly one probe is allowed.
        assert_eq!(breaker.state(1_030), BreakerState::HalfOpen);
        assert!(breaker.call_permitted(1_030));

        // Failed probe re-opens and restarts the cooldown from now.
        breaker.record_failure(1_040);
        assert_eq!(breaker.state(1_040), BreakerState::Open);
        assert_eq!(breaker.retry_after(1_040), 1_000);

        // Successful probe closes and clears the streak.
        assert_eq!(breaker.state(2_040), BreakerState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(2_040), BreakerState::Closed);
        assert_eq!(breaker.consecutive_failures(), 0);
    }

    #[test]
    fn breaker_success_resets_failure_streak() {
        let mut breaker = CircuitBreaker::new(3, 100);
        breaker.record_failure(1);
        breaker.record_failure(2);
        breaker.record_success();
        breaker.record_failure(3);
        breaker.record_failure(4);
        assert_eq!(breaker.state(4), BreakerState::Closed, "streak was reset");
        breaker.record_failure(5);
        assert_eq!(breaker.state(5), BreakerState::Open);
    }

    // The next three tests pin the half-open edges the fleet device
    // health machine leans on (Probation = HalfOpen): each probe
    // outcome, and the fail-fast discipline while quarantined. Before
    // the fleet they were exercised only indirectly through gateway
    // soaks.

    #[test]
    fn half_open_probe_failure_reopens_with_fresh_cooldown() {
        let mut breaker = CircuitBreaker::new(1, 1_000);
        breaker.record_failure(100);
        assert_eq!(breaker.state(100), BreakerState::Open);

        // Probation: exactly one probe after the cooldown. It fails —
        // the breaker re-opens and the *full* cooldown restarts from
        // the probe, not from the original trip.
        assert_eq!(breaker.state(1_100), BreakerState::HalfOpen);
        breaker.record_failure(1_150);
        assert_eq!(breaker.state(1_150), BreakerState::Open);
        assert_eq!(breaker.retry_after(1_150), 1_000);
        assert!(!breaker.call_permitted(2_100), "old-cooldown deadline must not apply");

        // The cycle repeats: another cooldown, another single probe.
        assert_eq!(breaker.state(2_150), BreakerState::HalfOpen);
        assert!(breaker.call_permitted(2_150));
    }

    #[test]
    fn half_open_probe_success_closes_and_requires_a_full_streak_to_reopen() {
        let mut breaker = CircuitBreaker::new(2, 500);
        breaker.record_failure(10);
        breaker.record_failure(20);
        assert_eq!(breaker.state(20), BreakerState::Open);

        // Successful probation probe: fully healthy again, streak
        // cleared — one later failure is Suspect-grade, not a trip.
        assert_eq!(breaker.state(520), BreakerState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(520), BreakerState::Closed);
        assert_eq!(breaker.consecutive_failures(), 0);
        breaker.record_failure(600);
        assert_eq!(breaker.state(600), BreakerState::Closed, "one failure after recovery");
        breaker.record_failure(700);
        assert_eq!(breaker.state(700), BreakerState::Open, "full threshold re-trips");
    }

    #[test]
    fn open_breaker_fails_fast_and_extends_on_strikes() {
        let mut breaker = CircuitBreaker::new(1, 1_000);
        breaker.record_failure(0);

        // Quarantined: every call is refused without any budget spent,
        // and the hint counts down monotonically to the probe time.
        let mut last = Nanos::MAX;
        for now in [1, 250, 500, 999] {
            assert!(!breaker.call_permitted(now));
            let hint = breaker.retry_after(now);
            assert!(hint > 0 && hint < last, "hint must count down, stayed {hint}");
            last = hint;
        }

        // A strike reported while already Open (a racing caller, a
        // watchdog) extends the quarantine window from the strike.
        breaker.record_failure(900);
        assert!(!breaker.call_permitted(1_000), "extension must push the probe out");
        assert_eq!(breaker.retry_after(1_000), 900);
        assert_eq!(breaker.state(1_900), BreakerState::HalfOpen);
    }
}
