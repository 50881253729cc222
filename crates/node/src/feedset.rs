//! Byzantine-tolerant multi-feed head tracking (threats A1/A6).
//!
//! A single [`BlockFeed`](crate::BlockFeed) is an untrusted wire: it can
//! forge proofs, equivocate between sibling heads, or freeze on a stale
//! block. [`FeedSet`] polls N such feeds, verifies every served
//! `(header, delta)` pair independently, cross-checks the verified heads
//! against each other, and runs fork-choice over what survives:
//!
//! * **Forged proofs** (bad Merkle proof, content lie, header/delta
//!   binding mismatch) quarantine the feed immediately — cryptographic
//!   evidence needs no quorum.
//! * **Equivocation** is detected by the *abandoned-hash revisit* rule:
//!   a feed may switch heads at a height once (an honest reorg does
//!   exactly that), but returning to a hash it previously abandoned at
//!   the same height proves it is serving two branches at once.
//! * **Stalled heads** accrue strikes: a feed whose verified head lags
//!   the quorum's best for `STALL_STRIKES` consecutive polls is
//!   quarantined — it may be honest-but-frozen, but it is useless and
//!   indistinguishable from an adversary withholding blocks.
//!
//! Fork-choice among surviving verified heads: greatest height, then
//! most backing feeds, then smallest hash (a deterministic tie-break).

use crate::feed::{BlockFeed, FeedError};
use crate::{BlockHeader, StateDelta};
use std::collections::BTreeMap;
use tape_primitives::B256;

/// Why a feed was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Served a delta whose Merkle proofs failed, whose content did not
    /// match the proof, or whose header/delta binding was broken.
    ForgedProof,
    /// Re-served a head hash it had previously abandoned at the same
    /// height — proof of serving two branches simultaneously.
    Equivocation,
    /// Verified head lagged the quorum's best for too many consecutive
    /// polls.
    StalledHead,
}

impl core::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QuarantineReason::ForgedProof => write!(f, "forged proof"),
            QuarantineReason::Equivocation => write!(f, "equivocation"),
            QuarantineReason::StalledHead => write!(f, "stalled head"),
        }
    }
}

/// Evidence of one equivocation: a feed served hash `b` at `height`
/// after having abandoned it for `a` (both verified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Equivocation {
    /// The equivocating feed's index.
    pub feed: usize,
    /// The contested height.
    pub height: u64,
    /// The hash the feed most recently served at this height.
    pub a: B256,
    /// The previously abandoned hash it just revisited.
    pub b: B256,
}

/// Blocks a feed's verified head may lag the best without accruing a
/// stall strike.
const STALL_LAG: u64 = 0;
/// Consecutive lagging polls before a feed is quarantined as stalled.
const STALL_STRIKES: u32 = 3;
/// Heights of served-hash history retained per feed for equivocation
/// detection.
const HASH_MEMORY: usize = 64;

/// A snapshot of one feed's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedStatus {
    /// Why the feed is quarantined, if it is.
    pub quarantined: Option<QuarantineReason>,
    /// Consecutive polls the feed's verified head lagged the best.
    pub stall_streak: u32,
    /// Height of the last verified head the feed served.
    pub last_height: Option<u64>,
}

/// Per-feed bookkeeping.
#[derive(Debug, Default)]
struct FeedMeta {
    /// Verified hashes served per height, in serving order (last =
    /// current claim at that height).
    served: BTreeMap<u64, Vec<B256>>,
    stall_streak: u32,
    quarantined: Option<QuarantineReason>,
    last_height: Option<u64>,
}

/// The outcome of one [`FeedSet::poll`].
#[derive(Debug)]
pub struct PollReport {
    /// Fork-choice winner among surviving verified heads: the serving
    /// feed's index plus the head it served. `None` when no feed
    /// produced a verified head this poll.
    pub winner: Option<(usize, BlockHeader, StateDelta)>,
    /// Equivocations detected this poll.
    pub equivocations: Vec<Equivocation>,
    /// Feeds quarantined by this poll, with the reason.
    pub newly_quarantined: Vec<(usize, QuarantineReason)>,
    /// Every verified head observed this poll: `(feed, height, hash)`.
    pub heads: Vec<(usize, u64, B256)>,
    /// Feeds that answered [`FeedError::Unavailable`] (a transient
    /// outage; an empty chain does not count).
    pub unavailable: u32,
}

/// N independently-verified block feeds with cross-checking, feed
/// scoring, and heaviest-verified-head fork-choice.
pub struct FeedSet {
    feeds: Vec<BlockFeed>,
    meta: Vec<FeedMeta>,
}

impl core::fmt::Debug for FeedSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FeedSet")
            .field("feeds", &self.feeds.len())
            .field("quarantined", &self.quarantined_count())
            .finish()
    }
}

impl FeedSet {
    /// Builds a set over `feeds`.
    ///
    /// # Panics
    ///
    /// Panics when `feeds` is empty: a feedless set can never sync.
    pub fn new(feeds: Vec<BlockFeed>) -> Self {
        assert!(!feeds.is_empty(), "a FeedSet needs at least one feed");
        let meta = feeds.iter().map(|_| FeedMeta::default()).collect();
        FeedSet { feeds, meta }
    }

    /// Number of feeds (quarantined included).
    pub fn len(&self) -> usize {
        self.feeds.len()
    }

    /// `false` always — the constructor rejects empty sets — but clippy
    /// expects `is_empty` beside `len`.
    pub fn is_empty(&self) -> bool {
        self.feeds.is_empty()
    }

    /// Feeds currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.meta.iter().filter(|m| m.quarantined.is_some()).count()
    }

    /// Health snapshot of feed `index`.
    pub fn status(&self, index: usize) -> Option<FeedStatus> {
        let meta = self.meta.get(index)?;
        Some(FeedStatus {
            quarantined: meta.quarantined,
            stall_streak: meta.stall_streak,
            last_height: meta.last_height,
        })
    }

    /// Mutable access to feed `index` (test setup: block production,
    /// fault arming).
    pub fn feed_mut(&mut self, index: usize) -> Option<&mut BlockFeed> {
        self.feeds.get_mut(index)
    }

    /// Downloads one historical block `(header, delta)` from feed
    /// `index` — the branch-replay path after a reorg. The caller must
    /// verify what comes back, exactly as for a head fetch.
    ///
    /// # Errors
    ///
    /// [`FeedError::NoBlock`] when the feed does not have the block (or
    /// the index is out of range).
    pub fn fetch_block(
        &mut self,
        index: usize,
        number: u64,
    ) -> Result<(BlockHeader, StateDelta), FeedError> {
        self.feeds.get_mut(index).ok_or(FeedError::NoBlock)?.fetch_block(number)
    }

    /// Polls every non-quarantined feed, verifies what each serves,
    /// updates feed scores, and runs fork-choice over the surviving
    /// verified heads.
    pub fn poll(&mut self) -> PollReport {
        let mut report = PollReport {
            winner: None,
            equivocations: Vec::new(),
            newly_quarantined: Vec::new(),
            heads: Vec::new(),
            unavailable: 0,
        };
        // (feed, header, delta) for every verified head this poll.
        let mut verified: Vec<(usize, BlockHeader, StateDelta)> = Vec::new();

        for i in 0..self.feeds.len() {
            if self.meta[i].quarantined.is_some() {
                continue;
            }
            let (header, delta) = match self.feeds[i].fetch_head() {
                Ok(pair) => pair,
                Err(FeedError::Unavailable) => {
                    report.unavailable += 1;
                    continue;
                }
                Err(FeedError::NoBlock) => continue,
            };
            // Independent verification: header/delta binding plus every
            // Merkle proof. Failure is cryptographic evidence of forgery.
            let bound = delta.block_hash == header.hash()
                && delta.state_root == header.state_root;
            if !bound || delta.verify().is_err() {
                self.meta[i].quarantined = Some(QuarantineReason::ForgedProof);
                report.newly_quarantined.push((i, QuarantineReason::ForgedProof));
                continue;
            }

            let height = header.number;
            let hash = header.hash();
            if let Some(evidence) = self.record_served(i, height, hash) {
                report.equivocations.push(evidence);
                self.meta[i].quarantined = Some(QuarantineReason::Equivocation);
                report.newly_quarantined.push((i, QuarantineReason::Equivocation));
                continue;
            }
            self.meta[i].last_height = Some(height);
            report.heads.push((i, height, hash));
            verified.push((i, header, delta));
        }

        // Stall scoring: feeds whose verified head lags the best this
        // poll accrue a strike; keeping up clears the streak.
        if let Some(best) = report.heads.iter().map(|&(_, h, _)| h).max() {
            for &(i, height, _) in &report.heads {
                let meta = &mut self.meta[i];
                if height.saturating_add(STALL_LAG) < best {
                    meta.stall_streak += 1;
                    if meta.stall_streak >= STALL_STRIKES {
                        meta.quarantined = Some(QuarantineReason::StalledHead);
                        report
                            .newly_quarantined
                            .push((i, QuarantineReason::StalledHead));
                    }
                } else {
                    meta.stall_streak = 0;
                }
            }
        }

        // Fork-choice over heads from feeds that survived this poll's
        // scoring: greatest height, then most backers, then smallest
        // hash.
        let survivors: Vec<&(usize, BlockHeader, StateDelta)> = verified
            .iter()
            .filter(|(i, _, _)| self.meta[*i].quarantined.is_none())
            .collect();
        let mut backers: BTreeMap<(u64, B256), u32> = BTreeMap::new();
        for (_, header, _) in &survivors {
            *backers.entry((header.number, header.hash())).or_insert(0) += 1;
        }
        let best = backers
            .iter()
            .max_by(|((ha, hasha), na), ((hb, hashb), nb)| {
                ha.cmp(hb)
                    .then(na.cmp(nb))
                    // Smaller hash wins, so it must compare *greater*.
                    .then_with(|| hashb.as_bytes().cmp(hasha.as_bytes()))
            })
            .map(|(&key, _)| key);
        if let Some((height, hash)) = best {
            report.winner = survivors
                .into_iter()
                .find(|(_, header, _)| {
                    header.number == height && header.hash() == hash
                })
                .cloned();
        }
        report
    }

    /// Records a verified `(height, hash)` claim for feed `index`,
    /// returning equivocation evidence when the feed revisits a hash it
    /// previously abandoned at that height.
    fn record_served(&mut self, index: usize, height: u64, hash: B256) -> Option<Equivocation> {
        let meta = &mut self.meta[index];
        let hashes = meta.served.entry(height).or_default();
        match hashes.last() {
            Some(&current) if current == hash => None, // same claim re-served
            _ => {
                if hashes.contains(&hash) {
                    // The feed abandoned `hash` for `last` and is now
                    // back: two live branches at one height.
                    let a = *hashes.last().expect("contains implies non-empty");
                    return Some(Equivocation { feed: index, height, a, b: hash });
                }
                hashes.push(hash);
                // Bound the per-feed memory: oldest heights first.
                while meta.served.len() > HASH_MEMORY {
                    let oldest = *meta.served.keys().next().expect("len > 0");
                    meta.served.remove(&oldest);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Node;
    use tape_evm::{Env, Transaction};
    use tape_primitives::{Address, U256};
    use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
    use tape_sim::Clock;
    use tape_state::{Account, InMemoryState};

    fn alice() -> Address {
        Address::from_low_u64(0xA11CE)
    }

    fn bob() -> Address {
        Address::from_low_u64(0xB0B)
    }

    /// Builds one feed over a fresh node with `blocks` identical
    /// transfer blocks — determinism makes every such feed serve
    /// byte-identical chains.
    fn feed_with_chain(blocks: usize) -> BlockFeed {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        state.put_account(bob(), Account::with_balance(U256::from(1_000u64)));
        let mut feed = BlockFeed::new(Node::new(state, Env::default()));
        for i in 0..blocks {
            feed.node_mut().produce_block(vec![Transaction::transfer(
                alice(),
                bob(),
                U256::from(10 + i as u64),
            )]);
        }
        feed
    }

    fn set_of(n: usize, blocks: usize) -> FeedSet {
        FeedSet::new((0..n).map(|_| feed_with_chain(blocks)).collect())
    }

    fn armed_plan(kinds: &[FaultKind]) -> FaultPlan {
        let clock = Clock::new();
        let plan = FaultPlan::new(42, &clock);
        plan.arm(FaultSite::NodeFeed, kinds, 1, 1_000);
        plan
    }

    #[test]
    fn honest_quorum_agrees_on_head() {
        let mut set = set_of(3, 2);
        let report = set.poll();
        let (feed, header, delta) = report.winner.expect("verified winner");
        assert_eq!(feed, 0);
        assert_eq!(report.heads.len(), 3);
        assert!(report.equivocations.is_empty());
        assert!(report.newly_quarantined.is_empty());
        // All three backed the same head.
        assert!(report.heads.iter().all(|&(_, _, h)| h == header.hash()));
        delta.verify().expect("winner verifies");
    }

    #[test]
    fn forged_proof_quarantines_immediately() {
        let mut set = set_of(3, 1);
        set.feed_mut(2)
            .unwrap()
            .arm_faults(armed_plan(&[FaultKind::BadProof]));
        let report = set.poll();
        assert_eq!(report.newly_quarantined, vec![(2, QuarantineReason::ForgedProof)]);
        assert!(report.winner.is_some(), "honest majority still wins");
        assert_eq!(set.quarantined_count(), 1);
        // A quarantined feed is never polled again.
        let report = set.poll();
        assert_eq!(report.heads.len(), 2);
    }

    #[test]
    fn equivocating_feed_is_caught_on_revisit() {
        let mut set = set_of(3, 2);
        set.feed_mut(1)
            .unwrap()
            .arm_faults(armed_plan(&[FaultKind::Equivocate]));
        // Poll 1: feed 1 serves sibling B. Poll 2: back to honest A —
        // a single switch could be an honest reorg, so no verdict yet.
        let r1 = set.poll();
        assert!(r1.equivocations.is_empty());
        let r2 = set.poll();
        assert!(r2.equivocations.is_empty());
        assert_eq!(set.quarantined_count(), 0);
        // Poll 3: feed 1 revisits abandoned B — equivocation.
        let r3 = set.poll();
        assert_eq!(r3.equivocations.len(), 1);
        assert_eq!(r3.equivocations[0].feed, 1);
        assert_eq!(r3.newly_quarantined, vec![(1, QuarantineReason::Equivocation)]);
        assert!(r3.winner.is_some(), "two honest feeds agree");
    }

    #[test]
    fn stalled_feed_strikes_out() {
        let mut set = set_of(3, 3);
        set.feed_mut(0)
            .unwrap()
            .arm_faults(armed_plan(&[FaultKind::StallHead]));
        // Default: 3 consecutive lagging polls.
        for poll in 0..2 {
            let report = set.poll();
            assert!(report.newly_quarantined.is_empty(), "poll {poll}");
            assert_eq!(set.status(0).unwrap().stall_streak, poll + 1);
        }
        let report = set.poll();
        assert_eq!(report.newly_quarantined, vec![(0, QuarantineReason::StalledHead)]);
        let (winner, header, _) = report.winner.expect("fresh heads win");
        assert_ne!(winner, 0);
        assert_eq!(header.number, Env::default().block_number + 2);
    }

    #[test]
    fn fork_choice_prefers_backers_then_smallest_hash() {
        // Two feeds share a chain; the third extends a private fork to
        // the same height with different content.
        let mut set = set_of(3, 2);
        let lone = set.feed_mut(2).unwrap().node_mut();
        assert!(lone.revert_to(1));
        lone.produce_block(vec![Transaction::transfer(
            alice(),
            bob(),
            U256::from(999u64),
        )]);
        let report = set.poll();
        let (winner, header, _) = report.winner.expect("winner");
        assert!(winner < 2, "the two-backer head outweighs the lone fork");
        let expected = set.feed_mut(0).unwrap().node().head().unwrap().header.hash();
        assert_eq!(header.hash(), expected);
        // Nobody is punished: a fork at equal height is not an offence.
        assert!(report.newly_quarantined.is_empty());
    }

    #[test]
    fn taller_head_wins_fork_choice() {
        let mut set = set_of(3, 2);
        let ahead = set.feed_mut(1).unwrap().node_mut();
        ahead.produce_block(vec![Transaction::transfer(alice(), bob(), U256::ONE)]);
        let report = set.poll();
        let (winner, header, _) = report.winner.expect("winner");
        assert_eq!(winner, 1);
        assert_eq!(header.number, Env::default().block_number + 2);
    }

    #[test]
    fn fetch_block_serves_history_for_replay() {
        let mut set = set_of(2, 3);
        let base = Env::default().block_number;
        let (header, delta) = set.fetch_block(0, base + 1).expect("mid-chain block");
        assert_eq!(header.number, base + 1);
        assert_eq!(delta.block_hash, header.hash());
        assert_eq!(delta.state_root, header.state_root);
        delta.verify().expect("historical delta verifies");
        assert!(set.fetch_block(0, base + 17).is_err());
    }
}
