//! On-disk record framing for the durable bucket store.
//!
//! Every byte the store persists is one self-describing, MAC-extended
//! record:
//!
//! ```text
//! magic u16 | rtype u8 | bucket u64 | seq u64 | len u32 | payload | mac[32]
//! ```
//!
//! The MAC is a keyed keccak over the header and payload. Its job is
//! *durability* integrity: catching bit rot, torn writes, and software
//! bugs in the store itself. It is **not** the security boundary against
//! the malicious service provider — that is the client's AES-GCM on
//! every slot ciphertext, which the SP (who operates the disk and could
//! hold this MAC key) can never forge.
//!
//! Decoding distinguishes two failure shapes with different recovery
//! semantics: [`Decoded::Incomplete`] (the buffer ends mid-record — a
//! torn tail, legal only at the end of the log and truncated away by
//! recovery) and [`CodecError::BadMac`]/[`CodecError::Malformed`]
//! (corruption that no crash can explain — a typed, fatal error).

use tape_crypto::Keccak256;

/// Record magic ("disk store, framing v3": one log, two record types, a
/// bucket record's payload is the bucket's bytes). Directories written
/// by the journal-plus-segments v1 store (`0xD15C`) or with v2's
/// length-prefixed slot payloads (`0xD15D`) fail here.
pub const MAGIC: u16 = 0xD15E;

/// Bucket record: one bucket's `Z` equal-length slot ciphertexts end to
/// end, invisible until its transaction's commit record lands.
pub const RT_BUCKET: u8 = 1;
/// Commit record: seals one transaction (one ORAM access) and carries
/// the sealed client meta blob as payload.
pub const RT_COMMIT: u8 = 2;

/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 2 + 1 + 8 + 8 + 4;
/// MAC bytes after the payload.
pub const MAC_LEN: usize = 32;

/// One record, its payload borrowed from the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Record type (`RT_*`).
    pub rtype: u8,
    /// Bucket index (0 for commit records).
    pub bucket: u64,
    /// Commit sequence number the record belongs to.
    pub seq: u64,
    /// Type-specific payload (slot bytes, or the sealed meta blob).
    pub payload: &'a [u8],
}

/// Outcome of decoding at a record boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete record and the bytes it consumed.
    Record(Record<'a>, usize),
    /// The buffer ends mid-record: a torn tail (legal at end-of-file).
    Incomplete,
}

/// Corruption no torn write can explain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes at a record boundary do not start with [`MAGIC`].
    BadMagic,
    /// A structurally complete record failed its keyed-keccak MAC.
    BadMac {
        /// Record type of the failing record.
        rtype: u8,
        /// Bucket index claimed by the failing record.
        bucket: u64,
    },
    /// A field is structurally impossible (unknown type, absurd length).
    Malformed(&'static str),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "record boundary missing magic"),
            CodecError::BadMac { rtype, bucket } => {
                write!(f, "record MAC failure (rtype {rtype}, bucket {bucket})")
            }
            CodecError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

/// Upper bound on a sane payload, shared by encode assertions and the
/// decoder's absurd-length rejection (a corrupted length field must not
/// drive a multi-gigabyte allocation).
pub const MAX_PAYLOAD: usize = 1 << 24;

fn mac(key: &[u8; 32], header: &[u8], payload: &[u8]) -> [u8; 32] {
    let mut h = Keccak256::new();
    h.update(b"hardtape-store-mac-v1");
    h.update(key);
    h.update(header);
    h.update(payload);
    h.finalize().into_bytes()
}

/// Appends one record, MAC included, to `out`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] (a store bug, not a
/// runtime condition).
pub fn encode_record_into(out: &mut Vec<u8>, key: &[u8; 32], record: &Record<'_>) {
    assert!(record.payload.len() <= MAX_PAYLOAD, "payload too large");
    let start = out.len();
    out.reserve(HEADER_LEN + record.payload.len() + MAC_LEN);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(record.rtype);
    out.extend_from_slice(&record.bucket.to_be_bytes());
    out.extend_from_slice(&record.seq.to_be_bytes());
    out.extend_from_slice(&(record.payload.len() as u32).to_be_bytes());
    out.extend_from_slice(record.payload);
    let tag = mac(key, &out[start..start + HEADER_LEN], record.payload);
    out.extend_from_slice(&tag);
}

/// Decodes the record starting at `buf[0]`.
///
/// With `verify` false the MAC bytes are skipped without checking: for
/// a record whose MAC was already computed or checked, for the records
/// the other recovery lane checks, and under the checksum-disabled
/// ablation.
///
/// # Errors
///
/// [`CodecError`] on corruption that a torn trailing write cannot
/// explain; a mid-record end-of-buffer is the non-error
/// [`Decoded::Incomplete`].
pub fn decode_record<'a>(
    key: &[u8; 32],
    buf: &'a [u8],
    verify: bool,
) -> Result<Decoded<'a>, CodecError> {
    if buf.len() < HEADER_LEN {
        return if buf.is_empty() { Err(CodecError::Malformed("empty buffer")) } else { Ok(Decoded::Incomplete) };
    }
    let magic = u16::from_be_bytes([buf[0], buf[1]]);
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let rtype = buf[2];
    if !(RT_BUCKET..=RT_COMMIT).contains(&rtype) {
        return Err(CodecError::Malformed("unknown record type"));
    }
    let bucket = u64::from_be_bytes(buf[3..11].try_into().expect("fixed layout"));
    let seq = u64::from_be_bytes(buf[11..19].try_into().expect("fixed layout"));
    let len = u32::from_be_bytes(buf[19..23].try_into().expect("fixed layout")) as usize;
    if len > MAX_PAYLOAD {
        return Err(CodecError::Malformed("payload length out of range"));
    }
    let total = HEADER_LEN + len + MAC_LEN;
    if buf.len() < total {
        return Ok(Decoded::Incomplete);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    if verify {
        let tag = mac(key, &buf[..HEADER_LEN], payload);
        if tag != buf[HEADER_LEN + len..total] {
            return Err(CodecError::BadMac { rtype, bucket });
        }
    }
    Ok(Decoded::Record(Record { rtype, bucket, seq, payload }, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [0x42; 32];

    fn slots() -> Vec<u8> {
        (0..3 * 40).map(|i| i as u8).collect()
    }

    fn encode_record(key: &[u8; 32], record: &Record<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record_into(&mut out, key, record);
        out
    }

    fn sample(payload: &[u8]) -> Record<'_> {
        Record { rtype: RT_BUCKET, bucket: 17, seq: 3, payload }
    }

    #[test]
    fn roundtrip() {
        let payload = slots();
        let rec = sample(&payload);
        let bytes = encode_record(&KEY, &rec);
        match decode_record(&KEY, &bytes, true).expect("decodes") {
            Decoded::Record(got, used) => {
                assert_eq!(got, rec);
                assert_eq!(used, bytes.len());
            }
            Decoded::Incomplete => panic!("complete record reported incomplete"),
        }
    }

    #[test]
    fn a_record_is_appended_behind_what_the_buffer_already_holds() {
        let payload = slots();
        let alone = encode_record(&KEY, &sample(&payload));
        let mut log = b"earlier records".to_vec();
        encode_record_into(&mut log, &KEY, &sample(&payload));
        assert_eq!(&log[..15], b"earlier records");
        assert_eq!(&log[15..], &alone[..], "the MAC covers this record's header, not the buffer's");
    }

    #[test]
    fn every_truncation_is_incomplete_never_a_panic() {
        let bytes = encode_record(&KEY, &sample(&slots()));
        for cut in 1..bytes.len() {
            match decode_record(&KEY, &bytes[..cut], true) {
                Ok(Decoded::Incomplete) => {}
                other => panic!("cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_record(&KEY, &sample(&slots()));
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1;
            match decode_record(&KEY, &bad, true) {
                Ok(Decoded::Record(got, _)) => {
                    panic!("flip at byte {byte} went undetected: {got:?}")
                }
                // Length-field flips may also read as a longer record
                // (Incomplete) — still never served as valid data.
                Ok(Decoded::Incomplete) | Err(_) => {}
            }
        }
    }

    #[test]
    fn wrong_key_fails_mac() {
        let bytes = encode_record(&KEY, &sample(&slots()));
        let other = [0x43; 32];
        assert!(matches!(
            decode_record(&other, &bytes, true),
            Err(CodecError::BadMac { .. })
        ));
    }

    #[test]
    fn verify_false_skips_the_mac() {
        let mut bytes = encode_record(&KEY, &sample(&slots()));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the MAC itself
        assert!(matches!(
            decode_record(&KEY, &bytes, false),
            Ok(Decoded::Record(..))
        ));
    }

    #[test]
    fn absurd_length_rejected_without_allocating() {
        let mut bytes = encode_record(&KEY, &sample(&slots()));
        bytes[19..23].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_record(&KEY, &bytes, true),
            Err(CodecError::Malformed(_))
        ));
    }
}
