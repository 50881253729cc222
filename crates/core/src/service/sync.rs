//! Block synchronization (paper step 11): proof-verified deltas, the
//! undo window, fork-choice over a feed quorum, and in-place rollback.

use super::{ForkPoint, HarDTape, ServiceError, SyncOutcome};
use tape_node::{backoff_ns, BlockHeader, FeedSet, StateDelta, RETRY_MAX_ATTEMPTS};
use tape_primitives::{Address, B256};
use tape_sim::fault::Ablation;
use tape_sim::telemetry::{CounterId, HistId, TelemetryEvent};
use tape_state::UndoDelta;

/// Deepest reorg the device follows: a winning branch forking more than
/// this many blocks below the head is refused with
/// [`ServiceError::FinalityViolation`].
const FINALITY_DEPTH: u64 = 8;

/// Block deltas the undo ring keeps for in-place rollback: derived, so
/// it always reaches the deepest fork [`FINALITY_DEPTH`] allows.
pub(super) const UNDO_WINDOW: usize = 2 * FINALITY_DEPTH as usize;

impl HarDTape {
    /// Synchronizes a new block's state delta (paper step 11): verifies
    /// the Merkle proofs against the block header, checks that the block
    /// extends the device's chain, then updates the local mirror and the
    /// ORAM — capturing per-account pre-images in the undo ring first,
    /// so a later reorg can roll the block back in place.
    ///
    /// Re-syncing the current head is an idempotent no-op. A verified
    /// block that is not a direct child of the head — at or below the
    /// device's height, past a gap, or on another parent — is refused
    /// with [`ServiceError::ReorgDetected`]: one block resolves neither
    /// forks nor gaps; [`Self::sync_from_feeds`] does both.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] if the header or any proof fails verification,
    /// or the block conflicts with the device's chain — nothing is
    /// applied in either case (A6).
    pub fn sync_block(
        &mut self,
        header: &BlockHeader,
        delta: &StateDelta,
    ) -> Result<(), ServiceError> {
        verify_block(header, delta)?;
        self.extend(header, delta)
    }

    /// Applies a verified block that extends the device's chain:
    /// captures undo pre-images, writes the delta through the local
    /// mirror and the ORAM, and advances the head bookkeeping. The
    /// current head is a no-op; any other block that is not the head's
    /// direct child is refused with [`ServiceError::ReorgDetected`].
    fn extend(&mut self, header: &BlockHeader, delta: &StateDelta) -> Result<(), ServiceError> {
        let hash = header.hash();
        if self.head() == Some(hash) {
            return Ok(());
        }
        if let Some(&(height, expected)) = self.recent_heads.last() {
            if header.number <= height {
                // A verified sibling (or ancestor) of an applied block:
                // this branch conflicts with ours.
                return Err(ServiceError::ReorgDetected {
                    expected,
                    got: hash,
                    height: header.number,
                });
            }
            if header.number > height + 1 || header.parent_hash != expected {
                // A sibling branch, or a block past a gap: its delta
                // carries only what it touched, not what the skipped
                // blocks changed. `sync_from_feeds` downloads a gap.
                return Err(ServiceError::ReorgDetected {
                    expected,
                    got: header.parent_hash,
                    height,
                });
            }
        }

        // Pre-images first: everything this block is about to overwrite
        // (or delete), exactly what unapplying it must restore.
        let mut seen = std::collections::BTreeSet::new();
        let mut pre: Vec<(Address, Option<tape_state::Account>)> = Vec::new();
        for address in delta
            .accounts
            .iter()
            .map(|e| e.address)
            .chain(delta.deleted.iter().map(|e| e.address))
        {
            if seen.insert(address) {
                pre.push((address, self.local.account_full(&address).cloned()));
            }
        }

        for entry in &delta.accounts {
            self.local.put_account(entry.address, entry.account.clone());
            if let Some(oram) = &self.oram {
                oram.sync_account(&entry.address, &entry.account)
                    .map_err(ServiceError::Oram)?;
            }
        }
        for entry in &delta.deleted {
            self.local.remove_account(&entry.address);
            if let Some(oram) = &self.oram {
                oram.remove_account(&entry.address).map_err(ServiceError::Oram)?;
            }
        }
        self.undo.push(UndoDelta { height: header.number, block_hash: hash, pre });
        self.local.put_block_hash(header.number, hash);
        self.recent_heads.retain(|&(h, _)| h < header.number);
        self.recent_heads.push((header.number, hash));
        let cap = UNDO_WINDOW + 1;
        if self.recent_heads.len() > cap {
            let excess = self.recent_heads.len() - cap;
            self.recent_heads.drain(..excess);
        }
        Ok(())
    }

    /// Synchronizes from a Byzantine-tolerant [`FeedSet`]: polls every
    /// feed, lets the set quarantine forgers/equivocators/stalls, and
    /// follows the fork-choice winner — extending the chain, catching up
    /// over gaps, or rolling back to a verified fork point and replaying
    /// the winning branch (paper step 11, under threat A1/A6).
    ///
    /// A poll that no feed answers because of a transient outage is
    /// retried: [`RETRY_MAX_ATTEMPTS`] polls with [`backoff_ns`]'s capped
    /// exponential backoff on the virtual clock between them.
    ///
    /// The rollback travels through the normal ORAM sync path, so on the
    /// wire it is shaped exactly like forward synchronization (§IV-D);
    /// the telemetry auditor's reorg lens checks precisely that.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Equivocation`] when equivocation evidence leaves
    /// no verified winner; [`ServiceError::NodeUnavailable`] when no
    /// feed serves a verifiable head through every retry;
    /// [`ServiceError::FinalityViolation`] when the winning branch forks
    /// below the finality depth (or the undo window);
    /// [`ServiceError::HeaderMismatch`] or [`ServiceError::BadDelta`]
    /// when a block the walk fetched fails verification;
    /// [`ServiceError::Oram`] when applying a block fails.
    pub fn sync_from_feeds(&mut self, feeds: &mut FeedSet) -> Result<SyncOutcome, ServiceError> {
        let mut attempt = 0;
        let (winner, header, delta) = loop {
            let report = feeds.poll();
            if !report.equivocations.is_empty() {
                self.telemetry
                    .count(CounterId::EquivocationsDetected, report.equivocations.len() as u64);
            }
            if !report.newly_quarantined.is_empty() {
                self.telemetry
                    .count(CounterId::FeedsQuarantined, report.newly_quarantined.len() as u64);
            }
            if let Some(winner) = report.winner {
                break winner;
            }
            // No verified head. Equivocation evidence explains *why*
            // the quorum failed; surface it over a generic outage.
            if let Some(ev) = report.equivocations.first() {
                return Err(ServiceError::Equivocation { height: ev.height, a: ev.a, b: ev.b });
            }
            // Retry only a poll that no feed answered, and only for an
            // outage: an empty chain is no noise, and a forgery (the
            // feed answered) is an attack.
            attempt += 1;
            if report.unavailable == 0
                || !report.newly_quarantined.is_empty()
                || attempt == RETRY_MAX_ATTEMPTS
            {
                return Err(ServiceError::NodeUnavailable);
            }
            let backoff = backoff_ns(attempt - 1);
            self.telemetry.count(CounterId::NodeRetries, 1);
            self.telemetry.record(TelemetryEvent::NodeRetry {
                at: self.clock.now(),
                attempt,
                backoff_ns: backoff,
            });
            self.clock.advance(backoff);
        };

        let adopted = header.hash();
        if self.recent_heads.contains(&(header.number, adopted)) {
            // The head, or a block below it on the device's own chain:
            // the feeds are behind, not forking. Nothing moves backwards.
            return Ok(SyncOutcome::AlreadySynced);
        }
        let Some(height) = self.head_height() else {
            // First sync ever: adopt the winner directly.
            self.extend(&header, &delta)?;
            return Ok(SyncOutcome::Advanced { blocks: 1 });
        };

        // Walk the winner's ancestry down (verifying every block) until
        // it attaches to our chain — at the head (a direct child, or a
        // catch-up over a gap) or at an earlier applied block (a reorg).
        let finality = FINALITY_DEPTH;
        let mut branch: Vec<(BlockHeader, StateDelta)> = vec![(header, delta)];
        let fork: ForkPoint = loop {
            let lowest = &branch.last().expect("branch starts non-empty").0;
            let parent = lowest.parent_hash;
            let Some(parent_number) = lowest.number.checked_sub(1) else {
                // Ran out of chain below the branch without attaching.
                return Err(ServiceError::FinalityViolation { depth: height, finality });
            };
            if self.recent_heads.contains(&(parent_number, parent)) {
                break ForkPoint { height: parent_number, hash: parent };
            }
            // Refuse to dig below finality before fetching further.
            if parent_number < height.saturating_sub(finality) {
                return Err(ServiceError::FinalityViolation {
                    depth: height - parent_number,
                    finality,
                });
            }
            let (parent_header, parent_delta) = feeds
                .fetch_block(winner, parent_number)
                .map_err(|_| ServiceError::NodeUnavailable)?;
            if parent_header.hash() != parent {
                // The feed's history does not match the head it served.
                return Err(ServiceError::HeaderMismatch);
            }
            verify_block(&parent_header, &parent_delta)?;
            branch.push((parent_header, parent_delta));
        };

        let depth = height - fork.height;
        if depth > finality {
            return Err(ServiceError::FinalityViolation { depth, finality });
        }
        let orphaned = if depth > 0 { self.rollback_to(&fork, depth)? } else { Vec::new() };

        // Replay the winning branch, oldest first (each block captures
        // its undo pre-images; the poll and the walk verified them all).
        let blocks = branch.len();
        for (branch_header, branch_delta) in branch.iter().rev() {
            self.extend(branch_header, branch_delta)?;
        }
        if depth > 0 {
            Ok(SyncOutcome::Reorged { fork, depth, orphaned, adopted })
        } else {
            Ok(SyncOutcome::Advanced { blocks })
        }
    }

    /// Rolls the world state back to `fork` by replaying the undo ring's
    /// pre-images — through the normal ORAM write path, so rollback
    /// traffic is indistinguishable from forward sync. Returns the
    /// orphaned block hashes, newest first.
    fn rollback_to(&mut self, fork: &ForkPoint, depth: u64) -> Result<Vec<B256>, ServiceError> {
        let Some(popped) = self.undo.pop_above(fork.height) else {
            // The undo window no longer reaches the fork point.
            return Err(ServiceError::FinalityViolation { depth, finality: FINALITY_DEPTH });
        };
        let accounts: u32 = popped.iter().map(|d| d.pre.len() as u32).sum();
        // Advertise the ORAM coverage the rollback owes: zero without an
        // ORAM (nothing oblivious to restore). The mirror-only ablation
        // keeps the honest advertisement while skipping the writes —
        // the auditor must catch the gap.
        let advertised = if self.oram.is_some() { accounts } else { 0 };
        let mirror_only = self.config.ablation == Some(Ablation::MirrorOnlyRollback);
        let oram = self.oram.as_ref().filter(|_| !mirror_only);
        self.telemetry.record(TelemetryEvent::RollbackBegin {
            at: self.clock.now(),
            height: fork.height,
            depth: depth as u32,
            accounts: advertised,
        });
        let mut pages = 0u64;
        for undo in &popped {
            for (address, pre) in &undo.pre {
                match pre {
                    Some(account) => {
                        self.local.put_account(*address, account.clone());
                        if let Some(oram) = oram {
                            pages +=
                                oram.sync_account(address, account).map_err(ServiceError::Oram)?;
                        }
                    }
                    None => {
                        self.local.remove_account(address);
                        if let Some(oram) = oram {
                            pages += oram.remove_account(address).map_err(ServiceError::Oram)?;
                        }
                    }
                }
            }
        }
        self.telemetry
            .record(TelemetryEvent::RollbackEnd { at: self.clock.now(), pages: pages as u32 });
        self.telemetry.observe(HistId::ReorgDepth, depth);
        self.telemetry.count(CounterId::ReorgsApplied, 1);

        // The fork point is an applied head, so it is the last one left.
        self.recent_heads.retain(|&(h, _)| h <= fork.height);
        Ok(popped.iter().map(|d| d.block_hash).collect())
    }
}

/// Checks a block against its header: the header/delta binding and
/// every Merkle proof (A6).
fn verify_block(header: &BlockHeader, delta: &StateDelta) -> Result<(), ServiceError> {
    if delta.block_hash != header.hash() || delta.state_root != header.state_root {
        return Err(ServiceError::HeaderMismatch);
    }
    delta.verify().map_err(ServiceError::BadDelta)
}
