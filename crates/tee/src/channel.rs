//! The secure channel between user and Hypervisor — the paper's
//! authenticated-encryption DMA path (§IV-C, §V/A3) — plus optional
//! per-bundle ECDSA signatures (the `-E` and `-ES` layers).
//!
//! Every message carries a fixed 32-byte header, the only bytes the
//! Hypervisor software parses: [`Channel::open`] validates it before it
//! touches a payload byte, which removes input-buffer-overflow gadgets.
//! AES-GCM then authenticates the header as associated data while it
//! moves the payload. The nonce is the header's first 12 bytes, so the
//! two cannot disagree.

use tape_crypto::secp::VerifyingKey;
use tape_crypto::{keccak256, AesGcm, SecretKey, Signature};

/// Length of the fixed message header.
pub const HEADER_LEN: usize = 32;

/// Largest sealed payload (ciphertext plus tag) a header may declare:
/// the HEVM input region.
pub const MAX_PAYLOAD: u32 = 128 * 1024;

/// The AES-GCM tag that ends every sealed payload.
const TAG_LEN: usize = 16;

/// What a message carries. The type byte names the direction, so it
/// also domain-separates the two halves of a session's channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageType {
    /// A transaction bundle, user → device.
    Bundle = 0,
    /// A trace report, device → user.
    Report = 1,
}

/// Errors on the secure channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The header is malformed: a type other than the channel's, a
    /// declared length above [`MAX_PAYLOAD`] or unequal to the payload's,
    /// or a nonzero reserved byte. Refused before decryption.
    Header,
    /// Decryption/authentication failed.
    Sealed,
    /// A message arrived out of order or replayed.
    Sequence {
        /// Sequence number the receiver expected.
        expected: u64,
        /// Sequence number the message carried.
        actual: u64,
    },
    /// An attached signature did not verify.
    Signature,
}

impl core::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelError::Header => write!(f, "malformed message header"),
            ChannelError::Sealed => write!(f, "message failed authentication"),
            ChannelError::Sequence { expected, actual } => {
                write!(f, "bad sequence number: expected {expected}, got {actual}")
            }
            ChannelError::Signature => write!(f, "bundle signature invalid"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// A sealed message on the wire.
///
/// Header layout: byte 0 the [`MessageType`], bytes 4..12 the sequence
/// number and bytes 12..16 the sealed length (both big-endian); bytes
/// 1..4 and 16..32 are reserved and must be zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedMessage {
    /// The fixed header, authenticated as associated data.
    pub header: [u8; HEADER_LEN],
    /// Ciphertext plus tag.
    pub payload: Vec<u8>,
}

/// The AES-GCM nonce: the header's type byte, reserved bytes and
/// sequence number.
fn nonce(header: &[u8; HEADER_LEN]) -> &[u8; 12] {
    header.first_chunk().expect("the header is longer than a nonce")
}

/// The `N` header bytes starting at `at`.
fn field<const N: usize>(header: &[u8; HEADER_LEN], at: usize) -> [u8; N] {
    header[at..at + N].try_into().expect("field inside the header")
}

/// One direction of the secure channel.
///
/// Each endpoint holds two `Channel`s (send/receive) keyed with the DHKE
/// session key; sequence numbers prevent reordering and replay.
pub struct Channel {
    cipher: AesGcm,
    kind: MessageType,
    next_seq: u64,
}

impl core::fmt::Debug for Channel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Channel")
            .field("kind", &self.kind)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Channel {
    /// Creates a channel half carrying `kind` messages.
    pub fn new(session_key: &[u8; 16], kind: MessageType) -> Self {
        Channel { cipher: AesGcm::new(session_key), kind, next_seq: 0 }
    }

    /// Seals a payload with the next sequence number.
    pub fn seal(&mut self, payload: &[u8]) -> SealedMessage {
        let seq = self.next_seq;
        self.next_seq += 1;
        // A payload too long for the field declares more than
        // `MAX_PAYLOAD`, which the receiver refuses.
        let sealed_len = u32::try_from(payload.len() + TAG_LEN).unwrap_or(u32::MAX);
        let mut header = [0u8; HEADER_LEN];
        header[0] = self.kind as u8;
        header[4..12].copy_from_slice(&seq.to_be_bytes());
        header[12..16].copy_from_slice(&sealed_len.to_be_bytes());
        let payload = self.cipher.seal(nonce(&header), &header, payload);
        SealedMessage { header, payload }
    }

    /// Opens the next expected message: the header is checked first,
    /// then the sequence number, and only then is the payload decrypted.
    ///
    /// # Errors
    ///
    /// [`ChannelError`] on a malformed header, replays, reordering, or
    /// tampering.
    pub fn open(&mut self, message: &SealedMessage) -> Result<Vec<u8>, ChannelError> {
        let header = &message.header;
        let declared = u32::from_be_bytes(field(header, 12));
        if header[0] != self.kind as u8
            || header[1..4].iter().chain(&header[16..]).any(|&b| b != 0)
            || declared > MAX_PAYLOAD
            || declared as usize != message.payload.len()
        {
            return Err(ChannelError::Header);
        }
        let seq = u64::from_be_bytes(field(header, 4));
        if seq != self.next_seq {
            return Err(ChannelError::Sequence { expected: self.next_seq, actual: seq });
        }
        let payload = self
            .cipher
            .open(nonce(header), header, &message.payload)
            .map_err(|_| ChannelError::Sealed)?;
        self.next_seq += 1;
        Ok(payload)
    }
}

/// Signs a bundle payload (the `-ES` layer: one signature per bundle,
/// amortized over its transactions).
pub fn sign_bundle(key: &SecretKey, payload: &[u8]) -> Signature {
    key.sign(&keccak256(payload))
}

/// Verifies a bundle signature.
///
/// # Errors
///
/// [`ChannelError::Signature`] when verification fails.
pub fn verify_bundle(
    key: &VerifyingKey,
    payload: &[u8],
    signature: &Signature,
) -> Result<(), ChannelError> {
    key.verify(&keccak256(payload), signature)
        .map_err(|_| ChannelError::Signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_crypto::SecureRng;

    fn pair() -> (Channel, Channel) {
        let key = [0x42u8; 16];
        (Channel::new(&key, MessageType::Bundle), Channel::new(&key, MessageType::Bundle))
    }

    fn seq(message: &SealedMessage) -> u64 {
        u64::from_be_bytes(field(&message.header, 4))
    }

    #[test]
    fn seal_open_roundtrip() {
        let (mut tx, mut rx) = pair();
        for i in 0..5u64 {
            let msg = tx.seal(format!("payload {i}").as_bytes());
            assert_eq!(seq(&msg), i);
            assert_eq!(msg.payload.len(), format!("payload {i}").len() + TAG_LEN);
            assert_eq!(rx.open(&msg).unwrap(), format!("payload {i}").as_bytes());
        }
    }

    #[test]
    fn replay_rejected() {
        let (mut tx, mut rx) = pair();
        let m0 = tx.seal(b"first");
        rx.open(&m0).unwrap();
        assert_eq!(
            rx.open(&m0),
            Err(ChannelError::Sequence { expected: 1, actual: 0 })
        );
    }

    #[test]
    fn reorder_rejected() {
        let (mut tx, mut rx) = pair();
        let _m0 = tx.seal(b"first");
        let m1 = tx.seal(b"second");
        assert_eq!(
            rx.open(&m1),
            Err(ChannelError::Sequence { expected: 0, actual: 1 })
        );
    }

    #[test]
    fn tamper_rejected() {
        let (mut tx, mut rx) = pair();
        let mut m = tx.seal(b"payload");
        m.payload[0] ^= 1;
        assert_eq!(rx.open(&m), Err(ChannelError::Sealed));
    }

    #[test]
    fn malformed_headers_refused_before_decryption() {
        let (mut tx, mut rx) = pair();
        let honest = tx.seal(b"bundle bytes");
        let mut refused = |what: &str, edit: fn(&mut SealedMessage)| {
            let mut bad = honest.clone();
            edit(&mut bad);
            assert_eq!(rx.open(&bad), Err(ChannelError::Header), "{what}");
        };
        refused("unknown type", |m| m.header[0] = 0xEE);
        refused("wrong-direction type", |m| m.header[0] = MessageType::Report as u8);
        refused("length above the bound", |m| {
            m.header[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
            m.payload.resize(MAX_PAYLOAD as usize + 1, 0);
        });
        refused("length unequal to the payload's", |m| m.header[15] += 1);
        refused("nonzero reserved byte after the length", |m| m.header[31] = 1);
        refused("nonzero reserved byte after the type", |m| m.header[2] = 1);
        // Nothing was consumed: the honest message still opens.
        assert_eq!(rx.open(&honest).unwrap(), b"bundle bytes");
    }

    #[test]
    fn edited_header_fails_authentication() {
        // A header edited into one that still parses and is in sequence
        // (message 1 relabelled as message 0) no longer matches the nonce
        // and associated data the payload was sealed under.
        let (mut tx, mut rx) = pair();
        let _m0 = tx.seal(b"first");
        let mut m1 = tx.seal(b"second");
        m1.header[4..12].copy_from_slice(&0u64.to_be_bytes());
        assert_eq!(rx.open(&m1), Err(ChannelError::Sealed));
    }

    #[test]
    fn directions_are_separated() {
        let key = [7u8; 16];
        let mut user_tx = Channel::new(&key, MessageType::Bundle);
        let mut user_rx = Channel::new(&key, MessageType::Report);
        let mut m = user_tx.seal(b"hello");
        // Reflected back at its sender: the type names the other way.
        assert_eq!(user_rx.open(&m), Err(ChannelError::Header));
        // Retyped to pass the header check: the type byte is part of the
        // nonce and the associated data, so authentication fails.
        m.header[0] = MessageType::Report as u8;
        assert_eq!(user_rx.open(&m), Err(ChannelError::Sealed));
    }

    #[test]
    fn header_error_takes_precedence_over_tampering() {
        let (mut tx, mut rx) = pair();
        let mut m = tx.seal(b"payload");
        m.payload[0] ^= 1;
        m.header[20] = 0xFF;
        assert_eq!(rx.open(&m), Err(ChannelError::Header));
    }

    #[test]
    fn bundle_signatures() {
        let mut rng = SecureRng::from_seed(b"bundle");
        let user = rng.next_secret_key();
        let payload = b"tx1|tx2|tx3";
        let sig = sign_bundle(&user, payload);
        let user_key = VerifyingKey::new(user.public_key());
        verify_bundle(&user_key, payload, &sig).unwrap();
        assert_eq!(
            verify_bundle(&user_key, b"tx1|tx2|tampered", &sig),
            Err(ChannelError::Signature)
        );
        let other = rng.next_secret_key();
        assert_eq!(
            verify_bundle(&VerifyingKey::new(other.public_key()), payload, &sig),
            Err(ChannelError::Signature)
        );
    }
}
