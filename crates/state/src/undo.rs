//! Per-block undo deltas: the world-state pre-images needed to roll a
//! synchronized chain back to a fork point.
//!
//! Every applied block sync captures, *before* writing, the previous
//! record of each account the delta touches ([`UndoDelta`]). The deltas
//! live in a bounded [`UndoRing`]; its capacity is the deepest reorg the
//! service can recover from without a full resync (the finality depth
//! should therefore never exceed it).

use crate::Account;
use std::collections::VecDeque;
use tape_primitives::{Address, B256};

/// The pre-images of one applied block: everything needed to unapply it.
#[derive(Debug, Clone)]
pub struct UndoDelta {
    /// Height of the block this delta unapplies.
    pub height: u64,
    /// Hash of the block this delta unapplies.
    pub block_hash: B256,
    /// Pre-image of every account the block's sync delta touched:
    /// `Some(account)` restores the record, `None` removes an account
    /// the block created.
    pub pre: Vec<(Address, Option<Account>)>,
}

/// A bounded ring of [`UndoDelta`]s, newest last.
///
/// Heights are expected to be contiguous and increasing; pushing a
/// delta at a height already present (or below) drops the stale suffix
/// first, so the ring always describes one linear chain segment.
#[derive(Debug, Clone)]
pub struct UndoRing {
    deltas: VecDeque<UndoDelta>,
    capacity: usize,
}

impl UndoRing {
    /// A ring holding at most `capacity` block deltas (minimum 1).
    pub fn new(capacity: usize) -> Self {
        UndoRing { deltas: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Records the pre-images of a newly applied block, evicting the
    /// oldest delta when full and any stale delta at or above the same
    /// height (a replayed branch overwrites the orphaned one).
    pub fn push(&mut self, delta: UndoDelta) {
        while self.deltas.back().is_some_and(|d| d.height >= delta.height) {
            self.deltas.pop_back();
        }
        if self.deltas.len() == self.capacity {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
    }

    /// Pops every delta for heights strictly above `height`, newest
    /// first — the order rollback must apply them in. Returns `None`
    /// (and leaves the ring untouched) when the ring does not reach
    /// down to `height`: the requested fork point predates the retained
    /// window, so an in-place rollback is impossible.
    pub fn pop_above(&mut self, height: u64) -> Option<Vec<UndoDelta>> {
        // Heights are contiguous, so the window reaches `height` iff the
        // oldest retained delta is at `height + 1` or below.
        if self.deltas.front().is_some_and(|d| d.height > height + 1) {
            return None;
        }
        let mut popped = Vec::new();
        while self.deltas.back().is_some_and(|d| d.height > height) {
            popped.push(self.deltas.pop_back().expect("checked above"));
        }
        Some(popped)
    }

    /// Number of block deltas currently retained.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when no deltas are retained.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Maximum deltas the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_primitives::U256;

    fn hash(low: u64) -> B256 {
        let mut bytes = [0u8; 32];
        bytes[24..].copy_from_slice(&low.to_be_bytes());
        B256::new(bytes)
    }

    fn delta(height: u64) -> UndoDelta {
        UndoDelta {
            height,
            block_hash: hash(height),
            pre: vec![(
                Address::from_low_u64(height),
                Some(Account::with_balance(U256::from(height))),
            )],
        }
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut ring = UndoRing::new(3);
        for h in 1..=5 {
            ring.push(delta(h));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.deltas.back().unwrap().height, 5);
        // Fork point 1 is below the retained window (2..=5 kept 3..=5).
        assert!(ring.pop_above(1).is_none());
    }

    #[test]
    fn pop_above_returns_newest_first() {
        let mut ring = UndoRing::new(8);
        for h in 1..=5 {
            ring.push(delta(h));
        }
        let popped = ring.pop_above(2).expect("fork point retained");
        let heights: Vec<u64> = popped.iter().map(|d| d.height).collect();
        assert_eq!(heights, vec![5, 4, 3]);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.deltas.back().unwrap().height, 2);
    }

    #[test]
    fn pop_above_head_is_empty() {
        let mut ring = UndoRing::new(4);
        ring.push(delta(1));
        assert_eq!(ring.pop_above(1).expect("no-op rollback").len(), 0);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn replayed_branch_overwrites_orphaned_heights() {
        let mut ring = UndoRing::new(8);
        for h in 1..=4 {
            ring.push(delta(h));
        }
        // A reorg rolls back to 2, then replays 3 and 4 on the new
        // branch: pushing height 3 drops the stale 3 and 4 first.
        let mut replay = delta(3);
        replay.block_hash = hash(0x33);
        ring.push(replay);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.deltas.back().unwrap().block_hash, hash(0x33));
    }
}
