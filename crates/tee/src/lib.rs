//! # tape-tee
//!
//! The TEE scaffolding of HarDTAPE (paper §IV-A, §IV-C):
//!
//! * [`attestation`] — the chain of trust: Manufacturer-certified
//!   PUF-derived device keys, secure boot measurement, remote attestation
//!   quotes bound to user nonces, and DHKE session keys.
//! * [`channel`] — the one path every user↔device message takes: a fixed
//!   32-byte header checked before any payload byte is touched, then
//!   AES-GCM with the header as associated data (the authenticated-
//!   encryption DMA, the A3 defense), replay-proof sequence numbers, and
//!   per-bundle ECDSA signatures (the `-E`/`-ES` layers).
//! * [`hypervisor`] — HEVM slot management with exclusive per-bundle
//!   assignment (the A2 defense) and quarantine of failing cores.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;
pub mod hypervisor;

pub use attestation::{AttestError, Attester, Manufacturer, Quote, Verifier};
pub use channel::{Channel, ChannelError, MessageType, SealedMessage};
pub use hypervisor::{Hypervisor, SlotError, SlotState};

#[cfg(test)]
mod message {
    //! What the paper claims of one message through the authenticated-
    //! encryption DMA (§IV-C, §V/A3), checked on the live
    //! [`channel`](crate::channel) path; the stream properties (order,
    //! replay, direction) are `channel`'s.

    #[cfg(test)]
    mod tests {
        use crate::channel::{Channel, ChannelError, MessageType, HEADER_LEN, MAX_PAYLOAD};

        const KEY: [u8; 16] = [5u8; 16];

        fn pair() -> (Channel, Channel) {
            (Channel::new(&KEY, MessageType::Bundle), Channel::new(&KEY, MessageType::Bundle))
        }

        #[test]
        fn header_roundtrip() {
            for kind in [MessageType::Bundle, MessageType::Report] {
                let (mut tx, mut rx) = (Channel::new(&KEY, kind), Channel::new(&KEY, kind));
                for (seq, payload) in [&b""[..], b"bundle bytes here"].into_iter().enumerate() {
                    let m = tx.seal(payload);
                    let h = &m.header;
                    assert_eq!(h.len(), HEADER_LEN);
                    assert_eq!(h[0], kind as u8);
                    assert_eq!(h[4..12], (seq as u64).to_be_bytes());
                    assert_eq!(h[12..16], (payload.len() as u32 + 16).to_be_bytes());
                    assert!(h[1..4].iter().chain(&h[16..]).all(|&b| b == 0));
                    assert_eq!(rx.open(&m).unwrap(), payload);
                }
            }
        }

        #[test]
        fn header_validation_rejects_garbage() {
            // Every header byte is checked: an edit anywhere outside the
            // sequence number is a header error, inside it a sequence
            // error, and neither reaches decryption or consumes the slot.
            let (mut tx, mut rx) = pair();
            let honest = tx.seal(b"bundle bytes");
            for at in 0..HEADER_LEN {
                let mut bad = honest.clone();
                bad.header[at] ^= 0x80;
                let err = rx.open(&bad).unwrap_err();
                if (4..12).contains(&at) {
                    assert!(matches!(err, ChannelError::Sequence { expected: 0, .. }), "byte {at}");
                } else {
                    assert_eq!(err, ChannelError::Header, "byte {at}");
                }
            }
            let mut garbage = honest.clone();
            garbage.header = [0xFF; HEADER_LEN];
            assert_eq!(rx.open(&garbage), Err(ChannelError::Header));
            assert_eq!(rx.open(&honest).unwrap(), b"bundle bytes");
        }

        #[test]
        fn dma_copies_authenticated_payload() {
            let (mut tx, mut rx) = pair();
            // Up to the bound, inclusive: the largest payload whose sealed
            // length is exactly `MAX_PAYLOAD`.
            let largest = MAX_PAYLOAD as usize - 16;
            for len in [0, 1, 4096, largest] {
                let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let m = tx.seal(&payload);
                assert_eq!(m.payload.len(), len + 16);
                if len > 0 {
                    assert_ne!(m.payload[..len], payload[..], "sent in the clear");
                }
                assert_eq!(rx.open(&m).unwrap(), payload);
            }
        }

        #[test]
        fn dma_rejects_tampered_payload_without_writing() {
            let (mut tx, mut rx) = pair();
            let honest = tx.seal(b"secret");
            // A flipped ciphertext byte and a flipped tag byte.
            for at in [0, honest.payload.len() - 1] {
                let mut tampered = honest.clone();
                tampered.payload[at] ^= 1;
                assert_eq!(rx.open(&tampered), Err(ChannelError::Sealed));
            }
            // Nothing was delivered or consumed: the honest message
            // still opens under the same sequence number.
            assert_eq!(rx.open(&honest).unwrap(), b"secret");
        }

        #[test]
        fn dma_rejects_header_payload_mismatch() {
            // The header is honest; the payload is cut, extended or
            // dropped on the way, so its length disagrees with the header.
            let (mut tx, mut rx) = pair();
            let honest = tx.seal(b"secret");
            let edits: [fn(&mut Vec<u8>); 3] =
                [|p| p.truncate(p.len() - 1), |p| p.push(0), |p| p.clear()];
            for edit in edits {
                let mut bad = honest.clone();
                edit(&mut bad.payload);
                assert_eq!(rx.open(&bad), Err(ChannelError::Header));
            }
            assert_eq!(rx.open(&honest).unwrap(), b"secret");
        }
    }
}
