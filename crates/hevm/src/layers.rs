//! Layer-2 call-stack paging and layer-3 untrusted memory (paper §IV-B).
//!
//! Layer 2 is a ring of 1 KB pages holding execution frames. When a new
//! frame does not fit, bottom pages are dumped to layer 3 — AES-GCM
//! protected (threat A4) and with random pre-evict/pre-load noise added
//! to the observable swap sizes (threat A5). Reloading verifies the
//! authentication tag and a strictly monotonic version to stop replays.

use tape_crypto::{AesGcm, SecureRng};
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::{Clock, CostModel, Nanos};

/// A swap event as *observed by the adversary* (sizes include noise),
/// plus the true sizes so the leakage auditor can verify the noise
/// actually covered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEvent {
    /// Virtual time of the swap.
    pub at: Nanos,
    /// Pages written to layer 3 (true + noise).
    pub pages_out: usize,
    /// Pages read back from layer 3 (true + noise).
    pub pages_in: usize,
    /// Pages actually written (no noise) — invisible to the adversary.
    pub true_pages_out: usize,
    /// Pages actually read back (no noise) — invisible to the adversary.
    pub true_pages_in: usize,
}

/// Error produced when layer-3 contents fail authentication (A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer3Tampered;

impl core::fmt::Display for Layer3Tampered {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "layer-3 page failed authentication")
    }
}

impl std::error::Error for Layer3Tampered {}

/// The untrusted layer-3 page store plus the pager that protects it.
pub struct Layer3Pager {
    cipher: AesGcm,
    rng: SecureRng,
    /// Sealed frames, keyed by a sequence id kept on-chip.
    store: Vec<Vec<u8>>,
    swap_log: Vec<SwapEvent>,
    nonce_counter: u64,
    /// Maximum extra pages of noise per swap.
    max_noise: usize,
    page_size: usize,
    /// When armed, stored ciphertexts are corrupted per the plan's
    /// schedule — the untrusted memory acting as the adversary.
    faults: Option<FaultPlan>,
}

impl core::fmt::Debug for Layer3Pager {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Layer3Pager")
            .field("stored_frames", &self.store.len())
            .field("swaps", &self.swap_log.len())
            .finish()
    }
}

/// Handle to a frame swapped out to layer 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwappedFrame {
    pub(crate) index: usize,
    /// True page count (kept on-chip; the adversary sees noisy sizes).
    pub pages: usize,
}

impl Layer3Pager {
    /// Creates a pager sealing pages under `key`.
    pub fn new(key: &[u8; 16], rng: SecureRng, page_size: usize, max_noise: usize) -> Self {
        Layer3Pager {
            cipher: AesGcm::new(key),
            rng,
            store: Vec::new(),
            swap_log: Vec::new(),
            nonce_counter: 0,
            max_noise,
            page_size,
            faults: None,
        }
    }

    /// Makes the layer-3 store adversarial: after every swap-out the
    /// plan may corrupt the stored ciphertext ([`FaultSite::PageStore`]
    /// with [`FaultKind::BitFlip`] / [`FaultKind::Truncate`] /
    /// [`FaultKind::Replay`]); the tamper surfaces as
    /// [`Layer3Tampered`] on the later swap-in.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Seals a serialized frame out to untrusted memory, logging a
    /// noisy swap size. Returns the on-chip handle.
    pub fn swap_out(
        &mut self,
        frame_bytes: &[u8],
        clock: &Clock,
        cost: &CostModel,
    ) -> SwappedFrame {
        let pages = frame_bytes.len().div_ceil(self.page_size).max(1);
        self.nonce_counter += 1;
        let mut nonce = [0u8; 12];
        nonce[4..].copy_from_slice(&self.nonce_counter.to_be_bytes());
        let aad = (self.store.len() as u64).to_be_bytes();
        // nonce ‖ ciphertext ‖ tag, sealed in the buffer the store keeps.
        let mut sealed = Vec::with_capacity(12 + frame_bytes.len() + 16);
        sealed.extend_from_slice(&nonce);
        sealed.extend_from_slice(frame_bytes);
        let tag = self.cipher.seal_in_place(&nonce, &aad, &mut sealed[12..]);
        sealed.extend_from_slice(&tag);
        let index = self.store.len();
        self.store.push(sealed);

        if let Some(plan) = &self.faults {
            if let Some(decision) = plan.decide_for(
                FaultSite::PageStore,
                &[FaultKind::BitFlip, FaultKind::Truncate, FaultKind::Replay],
            ) {
                match decision.kind {
                    FaultKind::BitFlip => {
                        let sealed = &mut self.store[index];
                        let byte = (decision.param % sealed.len() as u64) as usize;
                        sealed[byte] ^= 1 << ((decision.param >> 16) % 8);
                    }
                    FaultKind::Truncate => {
                        let sealed = &mut self.store[index];
                        let keep = (decision.param % 12) as usize;
                        sealed.truncate(keep);
                    }
                    // Replay: overwrite this slot with an earlier
                    // ciphertext (stale-page replay); the slot-index AAD
                    // makes the GCM open fail.
                    _ => {
                        if index > 0 {
                            let from = (decision.param % index as u64) as usize;
                            self.store[index] = self.store[from].clone();
                        } else {
                            // No earlier frame to replay; flip a bit
                            // instead so the armed fault still lands.
                            let sealed = &mut self.store[index];
                            let byte = (decision.param % sealed.len() as u64) as usize;
                            sealed[byte] ^= 0x01;
                        }
                    }
                }
            }
        }

        // Pre-evict noise: dump extra dummy pages.
        let noise = self.rng.next_below(self.max_noise as u64 + 1) as usize;
        let observed = pages + noise;
        clock.advance(cost.layer3_swap_page_ns * observed as u64);
        self.swap_log.push(SwapEvent {
            at: clock.now(),
            pages_out: observed,
            pages_in: 0,
            true_pages_out: pages,
            true_pages_in: 0,
        });
        SwappedFrame { index, pages }
    }

    /// Reloads and verifies a sealed frame, logging a noisy swap size.
    ///
    /// # Errors
    ///
    /// [`Layer3Tampered`] if the ciphertext fails authentication (bit
    /// flips, swapped slots, replays).
    pub fn swap_in(
        &mut self,
        handle: SwappedFrame,
        clock: &Clock,
        cost: &CostModel,
    ) -> Result<Vec<u8>, Layer3Tampered> {
        let sealed = self.store.get(handle.index).ok_or(Layer3Tampered)?;
        let (nonce, sealed) = sealed.split_first_chunk::<12>().ok_or(Layer3Tampered)?;
        let aad = (handle.index as u64).to_be_bytes();
        let bytes = self.cipher.open(nonce, &aad, sealed).map_err(|_| Layer3Tampered)?;

        let noise = self.rng.next_below(self.max_noise as u64 + 1) as usize;
        let observed = handle.pages + noise;
        clock.advance(cost.layer3_swap_page_ns * observed as u64);
        self.swap_log.push(SwapEvent {
            at: clock.now(),
            pages_out: 0,
            pages_in: observed,
            true_pages_out: 0,
            true_pages_in: handle.pages,
        });
        Ok(bytes)
    }

    /// The adversary's view of every swap.
    pub fn swap_log(&self) -> &[SwapEvent] {
        &self.swap_log
    }

    /// Drains the swap log, handing ownership of the recorded events to
    /// the caller. The segmented service flushes per segment — the
    /// pager (and therefore the log) survives inside a checkpoint, so
    /// without draining, a resumed bundle would re-report its history.
    pub fn take_swap_log(&mut self) -> Vec<SwapEvent> {
        std::mem::take(&mut self.swap_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager() -> (Layer3Pager, Clock, CostModel) {
        (
            Layer3Pager::new(&[9u8; 16], SecureRng::from_seed(b"pager"), 1024, 4),
            Clock::new(),
            CostModel::default(),
        )
    }

    #[test]
    fn roundtrip() {
        let (mut p, clock, cost) = pager();
        let frame = vec![7u8; 3000];
        let handle = p.swap_out(&frame, &clock, &cost);
        assert_eq!(handle.pages, 3);
        assert_eq!(p.swap_in(handle, &clock, &cost).unwrap(), frame);
    }

    #[test]
    fn tamper_detected() {
        let (mut p, clock, cost) = pager();
        let handle = p.swap_out(&[1, 2, 3], &clock, &cost);
        // The adversary flips the last tag byte in untrusted memory.
        *p.store[handle.index].last_mut().unwrap() ^= 0xFF;
        assert_eq!(p.swap_in(handle, &clock, &cost), Err(Layer3Tampered));
    }

    #[test]
    fn replay_detected() {
        let (mut p, clock, cost) = pager();
        let h0 = p.swap_out(&[0xAA; 100], &clock, &cost);
        let h1 = p.swap_out(&[0xBB; 100], &clock, &cost);
        // Adversary replaces frame 1's ciphertext with frame 0's.
        p.store[h1.index] = p.store[h0.index].clone();
        // The AAD binds the slot index, so the replay fails to open.
        assert_eq!(p.swap_in(h1, &clock, &cost), Err(Layer3Tampered));
    }

    #[test]
    fn swap_sizes_are_noised() {
        let (mut p, clock, cost) = pager();
        // Swap the same 2-page frame repeatedly; observed sizes must vary
        // (noise) and never be below the true size.
        let mut observed = Vec::new();
        for _ in 0..40 {
            let h = p.swap_out(&vec![1u8; 2048], &clock, &cost);
            observed.push(p.swap_log().last().unwrap().pages_out);
            p.swap_in(h, &clock, &cost).unwrap();
        }
        assert!(observed.iter().all(|&o| o >= 2));
        assert!(observed.iter().any(|&o| o > 2), "no noise ever added");
        let distinct: std::collections::HashSet<_> = observed.iter().collect();
        assert!(distinct.len() > 1, "swap sizes constant: {observed:?}");
    }

    #[test]
    fn swap_advances_clock() {
        let (mut p, clock, cost) = pager();
        let h = p.swap_out(&[1u8; 1024], &clock, &cost);
        let after_out = clock.now();
        assert!(after_out >= cost.layer3_swap_page_ns);
        p.swap_in(h, &clock, &cost).unwrap();
        assert!(clock.now() > after_out);
    }
}
