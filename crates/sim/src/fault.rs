//! Deterministic adversarial fault injection.
//!
//! HarDTAPE's threat model (paper §III, attacks A1–A6) assumes a
//! *malicious service provider*: every component outside the TEE — the
//! Layer-3 page store, the ORAM server, the network carrying the secure
//! channel, and the full node feeding block-sync deltas — may corrupt,
//! replay, drop, or forge data at will. This module turns that threat
//! model into an executable, repeatable schedule: a [`FaultPlan`] is
//! seeded from the same [`SecureRng`] DRBG the rest of the simulation
//! uses, armed per untrusted boundary ([`FaultSite`]), and consulted by
//! the boundary code on each operation. Two plans built from the same
//! seed and driven by the same workload produce byte-identical fault
//! schedules, so every adversarial test is reproducible.
//!
//! The plan is also an *audit log*: each injected fault is recorded with
//! the virtual-clock timestamp at which it fired, so a test can assert
//! the exact schedule ([`FaultPlan::log`]).
//!
//! # Examples
//!
//! ```
//! use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
//! use tape_sim::Clock;
//!
//! let clock = Clock::new();
//! let plan = FaultPlan::new(0xBAD5EED, &clock);
//! // Corrupt roughly every 4th channel message, at most 2 times total.
//! plan.arm(FaultSite::Channel, &[FaultKind::ChannelTamper], 4, 2);
//!
//! let mut fired = 0;
//! for _ in 0..64 {
//!     if plan.decide_for(FaultSite::Channel, &[FaultKind::ChannelTamper]).is_some() {
//!         fired += 1;
//!     }
//! }
//! assert_eq!(fired, 2); // budget exhausted
//! assert_eq!(plan.log().len(), 2);
//! ```

use crate::clock::{Clock, Nanos};
use std::sync::{Arc, Mutex};
use tape_crypto::SecureRng;

/// An untrusted boundary at which faults can be armed.
///
/// Each site corresponds to one of the service-provider-controlled
/// components of the paper's system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The Layer-3 encrypted page store backing HEVM frame spills
    /// (attack A2: corrupted off-chip memory).
    PageStore,
    /// The untrusted ORAM server holding encrypted path buckets
    /// (attack A5/A6: tampered blocks, dishonest path service).
    OramServer,
    /// The network link carrying secure-channel messages
    /// (attack A3/A4: replayed, dropped, or tampered ciphertext).
    Channel,
    /// The full node supplying block headers and state deltas
    /// (attack A1: forged chain data, plus transient unavailability).
    NodeFeed,
    /// A whole HarDTAPE device in a fleet (availability adversary:
    /// power loss, firmware wedge, board-level failure). Not part of
    /// the paper's cryptographic threat model — the fleet router must
    /// treat per-device failure as the *common* case regardless.
    Device,
    /// The disk backing the durable ORAM bucket store (crash/corruption
    /// adversary: torn writes, at-rest bit rot, short reads, silently
    /// lost fsyncs, and process death at arbitrary I/O boundaries). The
    /// disk is run by the untrusted SP, so like the ORAM server it may
    /// misbehave arbitrarily — durability claims must survive it.
    Disk,
}

/// The number of distinct [`FaultSite`] variants.
const SITE_COUNT: usize = 6;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::PageStore => 0,
            FaultSite::OramServer => 1,
            FaultSite::Channel => 2,
            FaultSite::NodeFeed => 3,
            FaultSite::Device => 4,
            FaultSite::Disk => 5,
        }
    }
}

/// A concrete adversarial action the plan may select at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of a stored ciphertext (page store / ORAM bucket).
    BitFlip,
    /// Truncate a stored ciphertext below the GCM tag length.
    Truncate,
    /// Serve a stale ciphertext previously stored at another index.
    Replay,
    /// ORAM server reads a different path than the one requested.
    WrongPath,
    /// ORAM server silently discards a path write-back.
    DropWrite,
    /// Re-deliver an already-consumed secure-channel message.
    ChannelReplay,
    /// Drop a secure-channel message in flight.
    ChannelDrop,
    /// Flip a byte of secure-channel ciphertext in flight.
    ChannelTamper,
    /// Corrupt the Merkle proof inside a block-sync delta.
    BadProof,
    /// Prove one account but report different content for it.
    ContentLie,
    /// Send a delta whose header does not match its parent link.
    HeaderMismatch,
    /// Full node temporarily refuses to answer.
    Unavailable,
    /// Feed alternates between two verified sibling heads at the same
    /// height (Byzantine equivocation).
    Equivocate,
    /// Feed reorganizes its own chain: abandon the top `depth` blocks
    /// and serve a freshly produced competing branch.
    Reorg {
        /// Blocks abandoned below the old head.
        depth: u32,
    },
    /// Feed freezes: keeps serving a stale head while the rest of the
    /// network advances.
    StallHead,
    /// Device dies permanently: every session, queued bundle, and
    /// in-flight checkpoint on it is lost. The fleet router must fail
    /// over — migrate tenants to survivors and convert lost work into
    /// typed completions, never silent drops.
    DeviceCrash,
    /// Device wedges for a while: it stops serving rounds but keeps its
    /// state. Each missed round is a watchdog strike against the
    /// device's health breaker; enough strikes quarantine it until a
    /// probation probe succeeds.
    DeviceHang,
    /// Disk loses power mid-append: only a prefix of the in-flight
    /// record reaches the platter, and the store process dies with it.
    /// Recovery must detect the torn tail and discard it.
    TornWrite,
    /// At-rest corruption: a stored disk record has a bit flipped under
    /// the store's feet. The per-record checksum must catch it on read.
    BitRot,
    /// Disk returns fewer bytes than the record it acknowledged — a
    /// truncated read that must surface as a typed error, not a panic.
    ShortRead,
    /// `fsync` returns success without making the data durable (the
    /// classic lying-disk failure). Invisible until the next crash,
    /// when recovery lands on the last *actually durable* commit.
    FsyncLost,
    /// Kill the store process at the `n`-th disk I/O boundary after the
    /// decision fires (n = 0 crashes at the very next boundary). Seeded
    /// kill-matrix tests sweep `n` across every append and fsync of one
    /// eviction.
    CrashPoint {
        /// I/O boundaries to survive before dying.
        n: u32,
    },
}

/// A fault the plan has decided to inject *now*.
///
/// `param` is a site-interpreted random argument (e.g. which bit to
/// flip, which wrong path to serve) drawn from the plan's DRBG, so the
/// whole schedule — not just the fire/don't-fire coin — is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// The adversarial action to perform.
    pub kind: FaultKind,
    /// Site-interpreted random argument.
    pub param: u64,
}

/// One entry of the reproducibility audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual-clock time at which the fault fired.
    pub at: Nanos,
    /// The boundary it fired at.
    pub site: FaultSite,
    /// The action taken.
    pub kind: FaultKind,
    /// The random argument handed to the boundary.
    pub param: u64,
}

/// One protection deliberately switched off — the negative controls
/// that prove each §IV-D audit lens has teeth. A device carries at most
/// one, fixed at construction (`ServiceConfig::ablation`): there is no
/// runtime switch, so nothing reachable after attestation can turn the
/// cover traffic off. Every variant leaves execution results unchanged
/// and must FAIL the leakage audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The pre-fix prefetch pipeline end to end: the re-arming driver
    /// that starves the timer, dense prefetch of every code page with no
    /// static plans, and unpaced demand fetches — the multi-page drain
    /// burst the auditor must flag as `CodeBurst`.
    Starve,
    /// Code plans are advertised with their last page replaced by a
    /// decoy index while the operational plan stays complete; the true
    /// page's fetch must be flagged as `UnplannedCodePage`.
    OmitPlan,
    /// World-state plans are advertised with their last storage group
    /// replaced by a decoy id while the operational batch stays
    /// complete; the true group's fetch must be flagged as
    /// `UnplannedStateAccess`.
    OmitStatePlan,
    /// Checkpoint suspensions capture frames in-enclave with no cover
    /// swap traffic while the segment window still advertises them
    /// (`CheckpointUncovered`). Only observable on a gas-sliced device whose
    /// bundles actually preempt.
    UncoveredCheckpoint,
    /// A reorg rollback restores only the local mirror, skipping the
    /// ORAM writes it still advertises (`RollbackUncovered`).
    MirrorOnlyRollback,
}

#[derive(Debug, Clone)]
struct Arming {
    kinds: Vec<FaultKind>,
    /// Fire with probability 1/every per decision point.
    every: u64,
    /// Remaining injections before the site disarms itself.
    budget: u64,
}

#[derive(Debug)]
struct Inner {
    rng: SecureRng,
    sites: [Option<Arming>; SITE_COUNT],
    log: Vec<FaultEvent>,
}

/// A seeded, shareable schedule of adversarial faults.
///
/// Cloning is cheap and shares the underlying state: the service wires
/// the same plan into every boundary, and all of them draw from one
/// DRBG stream so the global schedule is a pure function of the seed
/// and the sequence of `decide_for` calls.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    clock: Clock,
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// A plan with no sites armed; `clock` timestamps the audit log.
    pub fn new(seed: u64, clock: &Clock) -> Self {
        let mut seed_bytes = Vec::with_capacity(16);
        seed_bytes.extend_from_slice(b"faultpln");
        seed_bytes.extend_from_slice(&seed.to_be_bytes());
        FaultPlan {
            clock: clock.clone(),
            inner: Arc::new(Mutex::new(Inner {
                rng: SecureRng::from_seed(&seed_bytes),
                sites: [None, None, None, None, None, None],
                log: Vec::new(),
            })),
        }
    }

    /// Arms `site`: each decision point fires with probability
    /// `1/every` (an `every` of 1 fires always), choosing uniformly
    /// among `kinds`, until `budget` faults have been injected.
    ///
    /// Re-arming a site replaces its previous arming.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or `every` is zero.
    pub fn arm(&self, site: FaultSite, kinds: &[FaultKind], every: u64, budget: u64) {
        assert!(!kinds.is_empty(), "arming {site:?} with no fault kinds");
        assert!(every > 0, "arming {site:?} with every = 0");
        let mut inner = self.inner.lock().expect("fault plan lock");
        inner.sites[site.index()] =
            Some(Arming { kinds: kinds.to_vec(), every, budget });
    }

    /// Disarms `site`; subsequent decisions there return `None`.
    pub fn disarm(&self, site: FaultSite) {
        let mut inner = self.inner.lock().expect("fault plan lock");
        inner.sites[site.index()] = None;
    }

    /// Draws fire/kind/param without committing; `None` when the site
    /// is disarmed, out of budget, or the coin misses. The DRBG is
    /// advanced on every armed draw, so the schedule depends only on
    /// the decision sequence, never on which kinds a caller accepts.
    fn draw(&self, inner: &mut Inner, site: FaultSite) -> Option<FaultDecision> {
        let arming = inner.sites[site.index()].as_ref()?;
        if arming.budget == 0 {
            return None;
        }
        let (every, kind_count) = (arming.every, arming.kinds.len() as u64);
        if inner.rng.next_below(every) != 0 {
            return None;
        }
        let kind_index = inner.rng.next_below(kind_count) as usize;
        let param = inner.rng.next_u64();
        let kind = inner.sites[site.index()].as_ref().expect("checked above").kinds[kind_index];
        Some(FaultDecision { kind, param })
    }

    fn commit(&self, inner: &mut Inner, site: FaultSite, decision: FaultDecision) {
        let arming = inner.sites[site.index()].as_mut().expect("draw succeeded");
        arming.budget -= 1;
        inner.log.push(FaultEvent {
            at: self.clock.now(),
            site,
            kind: decision.kind,
            param: decision.param,
        });
    }

    /// Consulted by boundary code at each operation: should a fault be
    /// injected here, now? Returns the action (and its random argument)
    /// or `None`. A drawn kind not in `accept` is discarded, so an
    /// operation that can express only a subset of the armed kinds (a
    /// path *read* cannot drop a *write*) never eats the budget with
    /// it; a fault that fires decrements the site budget and is
    /// appended to the audit log.
    ///
    /// Kinds are matched by *variant*, not field values, so an accept
    /// list can name `FaultKind::Reorg { depth: 0 }` to admit a reorg
    /// armed with any depth.
    pub fn decide_for(&self, site: FaultSite, accept: &[FaultKind]) -> Option<FaultDecision> {
        let mut inner = self.inner.lock().expect("fault plan lock");
        let decision = self.draw(&mut inner, site)?;
        let wanted = accept
            .iter()
            .any(|k| core::mem::discriminant(k) == core::mem::discriminant(&decision.kind));
        if !wanted {
            return None;
        }
        self.commit(&mut inner, site, decision);
        Some(decision)
    }

    /// The audit log of every fault injected so far, in firing order.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.inner.lock().expect("fault plan lock").log.clone()
    }

    /// Total faults injected so far across all sites.
    pub fn injected(&self) -> usize {
        self.inner.lock().expect("fault plan lock").log.len()
    }

    /// Remaining budget at `site` (0 if disarmed).
    pub fn remaining_budget(&self, site: FaultSite) -> u64 {
        let inner = self.inner.lock().expect("fault plan lock");
        inner.sites[site.index()].as_ref().map_or(0, |a| a.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_never_fire() {
        let clock = Clock::new();
        let plan = FaultPlan::new(1, &clock);
        for _ in 0..100 {
            assert_eq!(plan.decide_for(FaultSite::PageStore, &[FaultKind::BitFlip]), None);
        }
        assert!(plan.log().is_empty());
    }

    #[test]
    fn budget_caps_injections() {
        let clock = Clock::new();
        let plan = FaultPlan::new(2, &clock);
        plan.arm(FaultSite::Channel, &[FaultKind::ChannelDrop], 1, 3);
        let fired = (0..10)
            .filter(|_| plan.decide_for(FaultSite::Channel, &[FaultKind::ChannelDrop]).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(plan.remaining_budget(FaultSite::Channel), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let clock = Clock::new();
            let plan = FaultPlan::new(0xDEAD, &clock);
            let kinds = [FaultKind::WrongPath, FaultKind::DropWrite];
            plan.arm(FaultSite::OramServer, &kinds, 3, 8);
            for _ in 0..60 {
                clock.advance(10);
                plan.decide_for(FaultSite::OramServer, &kinds);
            }
            plan.log()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let schedule = |seed| {
            let clock = Clock::new();
            let plan = FaultPlan::new(seed, &clock);
            plan.arm(FaultSite::PageStore, &[FaultKind::BitFlip], 2, 32);
            (0..64)
                .map(|_| plan.decide_for(FaultSite::PageStore, &[FaultKind::BitFlip]).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn log_records_virtual_time_and_params() {
        let clock = Clock::new();
        let plan = FaultPlan::new(7, &clock);
        plan.arm(FaultSite::NodeFeed, &[FaultKind::Unavailable], 1, 2);
        clock.advance(500);
        plan.decide_for(FaultSite::NodeFeed, &[FaultKind::Unavailable]);
        clock.advance(250);
        plan.decide_for(FaultSite::NodeFeed, &[FaultKind::Unavailable]);
        let log = plan.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].at, 500);
        assert_eq!(log[1].at, 750);
        assert_eq!(log[0].kind, FaultKind::Unavailable);
    }

    #[test]
    fn clones_share_state() {
        let clock = Clock::new();
        let plan = FaultPlan::new(9, &clock);
        let alias = plan.clone();
        plan.arm(FaultSite::Channel, &[FaultKind::ChannelTamper], 1, 1);
        assert!(alias.decide_for(FaultSite::Channel, &[FaultKind::ChannelTamper]).is_some());
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.remaining_budget(FaultSite::Channel), 0);
    }

    #[test]
    fn decide_for_filters_kinds() {
        let clock = Clock::new();
        let plan = FaultPlan::new(11, &clock);
        plan.arm(
            FaultSite::PageStore,
            &[FaultKind::BitFlip, FaultKind::Truncate],
            1,
            64,
        );
        let mut accepted = 0;
        for _ in 0..64 {
            if let Some(d) = plan.decide_for(FaultSite::PageStore, &[FaultKind::BitFlip]) {
                assert_eq!(d.kind, FaultKind::BitFlip);
                accepted += 1;
            }
        }
        // Only accepted draws are logged and count against the budget.
        assert_eq!(plan.injected(), accepted);
        assert_eq!(plan.remaining_budget(FaultSite::PageStore), 64 - accepted as u64);
        assert!(accepted > 0, "with every=1 and two kinds, some BitFlips must fire");
    }
}
