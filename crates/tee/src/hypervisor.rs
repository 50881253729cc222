//! The Hypervisor: the only software on chip. Answers attestation,
//! holds the fleet ORAM key, and manages HEVM slots (exclusive,
//! per-bundle assignment — the "dedicated hardware" rule, §V/A2) with
//! quarantine for cores that keep failing (paper §IV).

use crate::attestation::{Attester, Quote};
use tape_crypto::{SecretKey, SecureRng};
use tape_primitives::B256;

/// Consecutive hardware-level failures that quarantine a core.
const QUARANTINE_THRESHOLD: u32 = 3;

/// State of one HEVM slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Ready for assignment.
    Idle,
    /// Exclusively assigned to the session with this id.
    Assigned {
        /// The owning session.
        session: u64,
    },
    /// Taken out of rotation after repeated hardware-level failures
    /// (layer-3 integrity violations, watchdog trips); never assigned
    /// again — the device needs service.
    Quarantined,
}

/// Errors in slot management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// Every HEVM is busy; the bundle must queue.
    AllBusy,
    /// Release/interaction attempted by a session that does not own the
    /// slot (isolation, A2).
    NotOwner {
        /// The slot in question.
        slot: usize,
        /// The requesting session.
        session: u64,
    },
    /// Slot index out of range.
    BadSlot(usize),
    /// Every remaining HEVM core is quarantined — the device can no
    /// longer serve bundles and must be serviced.
    AllQuarantined,
}

impl core::fmt::Display for SlotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SlotError::AllBusy => write!(f, "no idle HEVM available"),
            SlotError::NotOwner { slot, session } => {
                write!(f, "session {session} does not own HEVM slot {slot}")
            }
            SlotError::BadSlot(s) => write!(f, "no such HEVM slot {s}"),
            SlotError::AllQuarantined => {
                write!(f, "every HEVM core is quarantined; device needs service")
            }
        }
    }
}

impl std::error::Error for SlotError {}

/// The on-chip Hypervisor.
pub struct Hypervisor {
    attester: Attester,
    rng: SecureRng,
    slots: Vec<SlotState>,
    next_session: u64,
    /// This device's ORAM key (paper §IV-D "ORAM key protection").
    oram_key: [u8; 16],
    /// Consecutive hardware-level failures per slot; reset on success.
    failures: Vec<u32>,
}

impl core::fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Hypervisor").field("slots", &self.slots).finish()
    }
}

impl Hypervisor {
    /// Boots the Hypervisor with `hevm_count` cores (the XCZU15EV fits 3).
    pub fn boot(attester: Attester, hevm_count: usize, mut rng: SecureRng) -> Self {
        // Every device draws its own ORAM key, and it never leaves the
        // chip: in a fleet each device seals its own replica.
        let mut oram_key = [0u8; 16];
        rng.fill_bytes(&mut oram_key);
        Hypervisor {
            attester,
            rng,
            slots: vec![SlotState::Idle; hevm_count],
            next_session: 1,
            oram_key,
            failures: vec![0; hevm_count],
        }
    }

    /// This device's ORAM key.
    pub fn oram_key(&self) -> [u8; 16] {
        self.oram_key
    }

    /// Responds to a remote-attestation request, opening a new session.
    /// Returns the quote, the session id, and the Hypervisor's session
    /// secret.
    pub fn attest(&mut self, user_nonce: B256) -> (Quote, u64, SecretKey) {
        let (quote, secret) = self.attester.respond(user_nonce, &mut self.rng);
        let session = self.next_session;
        self.next_session += 1;
        (quote, session, secret)
    }

    /// Slot states (observability for tests and the scheduler).
    pub fn slots(&self) -> &[SlotState] {
        &self.slots
    }

    /// Assigns an idle HEVM exclusively to `session`; quarantined cores
    /// are skipped.
    ///
    /// # Errors
    ///
    /// [`SlotError::AllBusy`] when every healthy core is assigned,
    /// [`SlotError::AllQuarantined`] when no healthy core exists at all.
    pub fn assign(&mut self, session: u64) -> Result<usize, SlotError> {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if *slot == SlotState::Idle {
                *slot = SlotState::Assigned { session };
                return Ok(i);
            }
        }
        if self.slots.iter().all(|s| *s == SlotState::Quarantined) {
            Err(SlotError::AllQuarantined)
        } else {
            Err(SlotError::AllBusy)
        }
    }

    /// Records a hardware-level failure (layer-3 integrity violation,
    /// watchdog trip) on `slot`. After [`QUARANTINE_THRESHOLD`]
    /// consecutive failures the core is quarantined — it stays out of
    /// the assignment pool so the remaining cores keep serving. Returns
    /// `true` when this call quarantined the core.
    pub fn record_failure(&mut self, slot: usize) -> bool {
        let Some(count) = self.failures.get_mut(slot) else {
            return false;
        };
        *count += 1;
        if *count >= QUARANTINE_THRESHOLD {
            self.slots[slot] = SlotState::Quarantined;
            true
        } else {
            false
        }
    }

    /// Records a successfully completed bundle on `slot`, resetting its
    /// consecutive-failure count.
    pub fn record_success(&mut self, slot: usize) {
        if let Some(count) = self.failures.get_mut(slot) {
            *count = 0;
        }
    }

    /// Releases a slot at bundle end; the HEVM's on-chip memories are
    /// cleared before it returns to the pool (paper step 10).
    ///
    /// # Errors
    ///
    /// [`SlotError`] if the slot is invalid or owned by another session.
    pub fn release(&mut self, slot: usize, session: u64) -> Result<(), SlotError> {
        match self.slots.get(slot) {
            None => Err(SlotError::BadSlot(slot)),
            Some(SlotState::Assigned { session: owner }) if *owner == session => {
                self.slots[slot] = SlotState::Idle;
                Ok(())
            }
            Some(_) => Err(SlotError::NotOwner { slot, session }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::Manufacturer;

    fn hypervisor_seeded(cores: usize, seed: &[u8]) -> Hypervisor {
        let manufacturer = Manufacturer::new(b"fab");
        let mut rng = SecureRng::from_seed(seed);
        let (puf, cert) = manufacturer.provision(1, &mut rng);
        let attester = Attester::new(puf, cert, b"firmware");
        Hypervisor::boot(attester, cores, rng)
    }

    fn hypervisor(cores: usize) -> Hypervisor {
        hypervisor_seeded(cores, b"hv tests")
    }

    #[test]
    fn exclusive_slot_assignment() {
        let mut hv = hypervisor(3);
        let a = hv.assign(10).unwrap();
        let b = hv.assign(11).unwrap();
        let c = hv.assign(12).unwrap();
        assert_eq!(vec![a, b, c], vec![0, 1, 2]);
        assert_eq!(hv.assign(13), Err(SlotError::AllBusy));

        // Release by the wrong session is refused (A2).
        assert_eq!(hv.release(a, 99), Err(SlotError::NotOwner { slot: a, session: 99 }));
        hv.release(b, 11).unwrap();
        assert_eq!(hv.assign(13), Ok(b));
        assert_eq!(hv.release(7, 10), Err(SlotError::BadSlot(7)));
    }

    #[test]
    fn sessions_get_unique_ids_and_keys() {
        let mut hv = hypervisor(1);
        let (q1, s1, _) = hv.attest(B256::new([1; 32]));
        let (q2, s2, _) = hv.attest(B256::new([2; 32]));
        assert_ne!(s1, s2);
        assert_ne!(q1.session_key, q2.session_key);
    }

    #[test]
    fn oram_keys_are_per_device() {
        let a = hypervisor_seeded(1, b"device-a");
        let b = hypervisor_seeded(1, b"device-b");
        assert_ne!(a.oram_key(), b.oram_key(), "freshly booted devices draw independent keys");
    }

    #[test]
    fn footprint_fits_ocm() {
        // The chip's full complement of HEVMs is managed by a Hypervisor
        // whose §VI-A footprint fits the on-chip memory.
        use tape_sim::resources::{report, ChipCapacity, HypervisorFootprint, MemoryConfig};
        let chip = ChipCapacity::default();
        let cores = report(&MemoryConfig::default(), &chip).max_hevms as usize;
        let mut hv = hypervisor(cores);
        for session in 0..cores as u64 {
            hv.assign(session).unwrap();
        }
        assert_eq!(hv.slots().len(), 3);
        assert!(HypervisorFootprint::default().total() <= chip.hypervisor_ocm);
        assert!(chip.hypervisor_ocm <= 256 * 1024);
    }

    #[test]
    fn repeated_failures_quarantine_a_core() {
        let mut hv = hypervisor(2);
        let slot = hv.assign(1).unwrap();
        assert!(!hv.record_failure(slot));
        assert!(!hv.record_failure(slot));
        // Third consecutive failure crosses the threshold.
        assert!(hv.record_failure(slot));
        assert_eq!(hv.slots()[slot], SlotState::Quarantined);

        // The other core still serves; the quarantined one is skipped.
        let other = hv.assign(2).unwrap();
        assert_ne!(other, slot);
        assert_eq!(hv.assign(3), Err(SlotError::AllBusy));
    }

    #[test]
    fn success_resets_failure_count() {
        let mut hv = hypervisor(1);
        let slot = hv.assign(1).unwrap();
        assert!(!hv.record_failure(slot));
        assert!(!hv.record_failure(slot));
        hv.record_success(slot);
        // Counter reset: two more failures still do not quarantine.
        assert!(!hv.record_failure(slot));
        assert!(!hv.record_failure(slot));
        assert!(hv.record_failure(slot));
    }

    #[test]
    fn all_quarantined_is_distinguished_from_all_busy() {
        let mut hv = hypervisor(1);
        let slot = hv.assign(1).unwrap();
        for _ in 0..3 {
            hv.record_failure(slot);
        }
        assert_eq!(hv.assign(2), Err(SlotError::AllQuarantined));
    }
}
