//! Sessions: the user handle, remote attestation, and delivery over
//! the secure channel with its injected faults and revocations.

use super::{HarDTape, ServiceError};
use std::sync::Arc;
use tape_crypto::secp::VerifyingKey;
use tape_crypto::{PublicKey, SecretKey, SecureRng};
use tape_sim::fault::{FaultKind, FaultSite};
use tape_tee::attestation::session_key;
use tape_tee::channel::{Channel, MessageType};

/// A connected user: the user-side keys and channel state.
pub struct UserHandle {
    /// Hypervisor session id.
    pub session: u64,
    pub(super) user_key: SecretKey,
    /// `user_key`'s public half, derived and prepared for verifying once
    /// at connect; every bundle of the session shares it.
    pub(super) user_public: Arc<VerifyingKey>,
    to_device: Channel,
    pub(super) from_device: Channel,
    /// Device session secret and channels (held by the Hypervisor;
    /// co-located here because the simulation runs both endpoints
    /// in-process).
    pub(super) device_key: SecretKey,
    /// The attested session key from the verified quote.
    device_public: PublicKey,
    device_rx: Channel,
    pub(super) device_tx: Channel,
}

impl core::fmt::Debug for UserHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("UserHandle").field("session", &self.session).finish()
    }
}

impl UserHandle {
    /// The user's verification key (the device checks bundle signatures
    /// against it).
    pub fn public_key(&self) -> PublicKey {
        self.user_public.public_key()
    }

    /// The device's attested session key (from the verified quote); the
    /// user checks trace signatures against it.
    pub fn device_key(&self) -> PublicKey {
        self.device_public
    }
}

impl HarDTape {
    /// Runs the remote-attestation handshake for a new user and
    /// establishes the secure channel.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Attestation`] if the user rejects the quote.
    pub fn connect_user(&mut self, user_seed: &[u8]) -> Result<UserHandle, ServiceError> {
        let mut user_rng = SecureRng::from_seed(user_seed);
        let user_key = user_rng.next_secret_key();
        let nonce = user_rng.next_b256();

        let (quote, session, device_secret) = self.hypervisor.attest(nonce);
        self.verifier
            .verify(&quote, &nonce)
            .map_err(ServiceError::Attestation)?;

        // DHKE both ways.
        let user_session = user_rng.next_secret_key();
        let k_user = session_key(&user_session, &quote.session_key)
            .map_err(ServiceError::Attestation)?;
        let k_device = session_key(&device_secret, &user_session.public_key())
            .map_err(ServiceError::Attestation)?;
        debug_assert_eq!(k_user, k_device);

        Ok(UserHandle {
            session,
            user_public: Arc::new(VerifyingKey::new(user_key.public_key())),
            user_key,
            to_device: Channel::new(&k_user, MessageType::Bundle),
            from_device: Channel::new(&k_user, MessageType::Report),
            device_key: device_secret,
            device_public: quote.session_key,
            device_rx: Channel::new(&k_device, MessageType::Bundle),
            device_tx: Channel::new(&k_device, MessageType::Report),
        })
    }

    /// Carries one sealed user→device message across the untrusted wire,
    /// applying any armed channel fault. Detected attacks (tamper,
    /// replay) revoke the session; a dropped message is recovered
    /// transparently by retransmission.
    pub(super) fn deliver_to_device(
        &mut self,
        user: &mut UserHandle,
        payload: &[u8],
    ) -> Result<Vec<u8>, ServiceError> {
        let sealed = user.to_device.seal(payload);
        self.clock.advance(self.cost.protected_message_ns(sealed.payload.len()));

        let fault = self.faults.as_ref().and_then(|plan| {
            plan.decide_for(
                FaultSite::Channel,
                &[FaultKind::ChannelTamper, FaultKind::ChannelDrop, FaultKind::ChannelReplay],
            )
        });
        match fault {
            Some(decision) if decision.kind == FaultKind::ChannelTamper => {
                // A3: ciphertext flipped in transit. GCM authentication
                // fails; the device treats the channel as compromised.
                let mut tampered = sealed.clone();
                let len = tampered.payload.len() as u64;
                tampered.payload[(decision.param % len) as usize] ^= 0x01;
                match user.device_rx.open(&tampered) {
                    Ok(opened) => Ok(opened),
                    Err(err) => {
                        self.revoked.insert(user.session);
                        Err(ServiceError::Channel(err))
                    }
                }
            }
            Some(decision) if decision.kind == FaultKind::ChannelDrop => {
                // The message is lost in transit; the user times out and
                // retransmits the identical sealed message. The sequence
                // number was never consumed, so the retry opens cleanly —
                // recovery is transparent, only (virtual) time is lost.
                self.clock
                    .advance(self.cost.protected_message_ns(sealed.payload.len()));
                user.device_rx.open(&sealed).map_err(ServiceError::Channel)
            }
            Some(_) => {
                // ChannelReplay: the message is delivered once, then the
                // adversary re-sends the captured ciphertext. The second
                // open trips the sequence check — a detected replay
                // attack aborts the bundle and revokes the session (A3).
                user.device_rx.open(&sealed).map_err(ServiceError::Channel)?;
                let err = match user.device_rx.open(&sealed) {
                    Err(err) => err,
                    // A replay that opens means the sequence check is
                    // broken — fail loudly rather than proceed.
                    Ok(_) => tape_tee::ChannelError::Sealed,
                };
                self.revoked.insert(user.session);
                Err(ServiceError::Channel(err))
            }
            None => user.device_rx.open(&sealed).map_err(ServiceError::Channel),
        }
    }
}
