//! Per-device health: the fleet's view of whether a HarDTAPE device
//! should be handed work.
//!
//! The state machine reuses the battle-tested
//! [`CircuitBreaker`](tape_node::CircuitBreaker) from the block-feed
//! path — same thresholds, same pure-state-machine discipline (time is
//! passed in from the device's own virtual clock) — and renames its
//! states into fleet vocabulary:
//!
//! | breaker state            | fleet state   | dispatch? |
//! |--------------------------|---------------|-----------|
//! | Closed, streak = 0       | `Healthy`     | yes       |
//! | Closed, streak > 0       | `Suspect`     | yes       |
//! | Open                     | `Quarantined` | no        |
//! | HalfOpen                 | `Probation`   | probe     |
//!
//! On top of the breaker sits one terminal state the feed path never
//! needed: `Failed`. A crashed device does not cool down — its sessions
//! and checkpoints are gone, and the router's only move is migration.

use tape_node::{BreakerState, CircuitBreaker};
use tape_sim::Nanos;

/// The fleet-facing health of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally; no open strikes.
    Healthy,
    /// Serving, but with at least one recent strike (a hang, an
    /// all-cores-quarantined round). Clears on the next clean round.
    Suspect,
    /// Struck out: no work is dispatched until the cooldown elapses.
    Quarantined,
    /// Cooldown elapsed: the next round is a probe. Success heals the
    /// device; failure re-quarantines it with a fresh cooldown.
    Probation,
    /// Crashed, permanently. Sessions, queues, and checkpoints on the
    /// device are lost; only migration serves its tenants now.
    Failed,
}

impl core::fmt::Display for HealthState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Suspect => write!(f, "suspect"),
            HealthState::Quarantined => write!(f, "quarantined"),
            HealthState::Probation => write!(f, "probation"),
            HealthState::Failed => write!(f, "failed"),
        }
    }
}

/// Consecutive strikes before a device is quarantined.
const FAILURE_THRESHOLD: u32 = 3;
/// Time, on the struck device's own clock, a quarantine lasts.
const COOLDOWN_NS: Nanos = 2_000_000_000;
/// Time a skipped (hung or quarantined) device burns per round, so its quarantine elapses.
pub(crate) const IDLE_TICK_NS: Nanos = 500_000_000;

/// Health tracking for one device: a [`CircuitBreaker`] plus a crash latch.
#[derive(Debug, Clone)]
pub(crate) struct DeviceHealth {
    breaker: CircuitBreaker,
    failed: bool,
}

impl DeviceHealth {
    /// A healthy device.
    pub(crate) fn new() -> Self {
        DeviceHealth { breaker: CircuitBreaker::new(FAILURE_THRESHOLD, COOLDOWN_NS), failed: false }
    }

    /// The current state at `now` (the device's own clock), applying
    /// any pending Quarantined → Probation cooldown transition.
    pub fn state(&mut self, now: Nanos) -> HealthState {
        if self.failed {
            return HealthState::Failed;
        }
        match self.breaker.state(now) {
            BreakerState::Closed if self.breaker.consecutive_failures() == 0 => {
                HealthState::Healthy
            }
            BreakerState::Closed => HealthState::Suspect,
            BreakerState::Open => HealthState::Quarantined,
            BreakerState::HalfOpen => HealthState::Probation,
        }
    }

    /// Records one strike (missed round, device-grade error) at `now`.
    /// No-op once failed.
    pub fn strike(&mut self, now: Nanos) {
        if !self.failed {
            self.breaker.record_failure(now);
        }
    }

    /// Records a clean round: clears the strike streak (Suspect →
    /// Healthy) or passes the probation probe (Probation → Healthy).
    pub fn healed(&mut self) {
        if !self.failed {
            self.breaker.record_success();
        }
    }

    /// Latches the terminal crash state.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Whether the device has crashed (terminal).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Whether new work (sessions, bundles) may be routed to the
    /// device at `now`: true in Healthy, Suspect, and Probation.
    pub fn eligible(&mut self, now: Nanos) -> bool {
        !self.failed && self.breaker.call_permitted(now)
    }

    /// Time left on the quarantine clock at `now` (0 unless
    /// quarantined); a natural `retry_after` hint for rejected work.
    pub fn retry_after(&mut self, now: Nanos) -> Nanos {
        self.breaker.retry_after(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_walk_healthy_suspect_quarantined_probation() {
        let mut health = DeviceHealth::new();
        assert_eq!(health.state(0), HealthState::Healthy);
        health.strike(10);
        assert_eq!(health.state(10), HealthState::Suspect);
        health.strike(20);
        assert_eq!(health.state(20), HealthState::Suspect);
        health.strike(30);
        assert_eq!(health.state(30), HealthState::Quarantined);
        assert!(!health.eligible(30 + COOLDOWN_NS / 2));
        assert_eq!(health.state(30 + COOLDOWN_NS), HealthState::Probation);
        assert!(health.eligible(30 + COOLDOWN_NS), "probation admits the probe");
        health.healed();
        assert_eq!(health.state(30 + COOLDOWN_NS), HealthState::Healthy);
    }

    #[test]
    fn clean_round_clears_a_suspect_streak() {
        let mut health = DeviceHealth::new();
        health.strike(10);
        health.strike(20);
        health.healed();
        health.strike(30);
        health.strike(40);
        assert_eq!(health.state(40), HealthState::Suspect, "streak restarted, not resumed");
    }

    #[test]
    fn failed_probe_requarantines_with_a_fresh_cooldown() {
        let mut health = DeviceHealth::new();
        for _ in 0..FAILURE_THRESHOLD {
            health.strike(0);
        }
        assert_eq!(health.state(COOLDOWN_NS), HealthState::Probation);
        health.strike(COOLDOWN_NS + 100);
        assert_eq!(health.state(COOLDOWN_NS + 100), HealthState::Quarantined);
        assert_eq!(health.state(2 * COOLDOWN_NS), HealthState::Quarantined, "cooldown restarted");
        assert_eq!(health.state(2 * COOLDOWN_NS + 100), HealthState::Probation);
    }

    #[test]
    fn failure_is_terminal() {
        let mut health = DeviceHealth::new();
        health.fail();
        assert!(health.is_failed());
        assert_eq!(health.state(u64::MAX), HealthState::Failed, "no cooldown revives a crash");
        assert!(!health.eligible(u64::MAX));
        health.healed();
        health.strike(0);
        assert_eq!(health.state(0), HealthState::Failed);
    }
}
