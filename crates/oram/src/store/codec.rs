//! On-disk record framing for the durable bucket store.
//!
//! Every byte the store persists is one self-describing, checksummed
//! record:
//!
//! ```text
//! magic u16 | rtype u8 | bucket u64 | seq u64 | len u32 | payload | crc32c u32
//! ```
//!
//! The checksum is a CRC-32C (Castagnoli) over the header and payload.
//! Its job is *durability* integrity: catching bit rot, torn writes and
//! misplaced writes (a record at another offset, or relabelled to
//! another bucket, fails its own header's checksum). It is **not** the
//! security boundary against the malicious service provider — that is
//! the client's AES-GCM on every slot ciphertext, sealed inside the
//! device — and no checksum or MAC the SP's own store code computes
//! could be one: the SP can always recompute it.
//!
//! Decoding distinguishes two failure shapes with different recovery
//! semantics: [`Decoded::Incomplete`] (the buffer ends mid-record — a
//! torn tail, legal only at the end of the log and truncated away by
//! recovery) and [`CodecError::BadChecksum`]/[`CodecError::Malformed`]
//! (corruption that no crash can explain — a typed, fatal error).

/// Record magic ("disk store, framing v4": one log, two record types, a
/// bucket record's payload is the bucket's bytes, a CRC-32C trailer).
/// Directories written by the journal-plus-segments v1 store (`0xD15C`),
/// with v2's length-prefixed slot payloads (`0xD15D`) or with v3's
/// keyed-keccak MAC trailer (`0xD15E`) fail here.
pub const MAGIC: u16 = 0xD15F;

/// Bucket record: one bucket's `Z` equal-length slot ciphertexts end to
/// end, invisible until its transaction's commit record lands.
pub const RT_BUCKET: u8 = 1;
/// Commit record: seals one transaction (one ORAM access) and carries
/// the sealed client meta blob as payload.
pub const RT_COMMIT: u8 = 2;

/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 2 + 1 + 8 + 8 + 4;
/// Checksum bytes after the payload.
pub const CHECKSUM_LEN: usize = 4;

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
    /// A structurally complete record failed its CRC-32C.
    BadChecksum {
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
            CodecError::BadChecksum { rtype, bucket } => {
                write!(f, "record checksum failure (rtype {rtype}, bucket {bucket})")
            }
            CodecError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

/// Upper bound on a sane payload, shared by encode assertions and the
/// decoder's absurd-length rejection (a corrupted length field must not
/// drive a multi-gigabyte allocation).
pub const MAX_PAYLOAD: usize = 1 << 24;

/// The CRC-32C (Castagnoli) polynomial, bit-reflected.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0][b]` is the CRC of the byte `b`, and
/// `TABLES[k][b]` that of `b` followed by `k` zero bytes, so eight
/// lookups advance the CRC by eight bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Runs the CRC register `crc` (pre-inversion) over `bytes`: eight bytes
/// a step, then the tail a byte at a time.
fn crc32c_extend(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// A record's trailer: CRC-32C over its header and payload.
fn checksum(header: &[u8], payload: &[u8]) -> [u8; CHECKSUM_LEN] {
    (!crc32c_extend(crc32c_extend(!0, header), payload)).to_be_bytes()
}

/// Appends one record, checksum included, to `out`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] (a store bug, not a
/// runtime condition).
pub fn encode_record_into(out: &mut Vec<u8>, record: &Record<'_>) {
    assert!(record.payload.len() <= MAX_PAYLOAD, "payload too large");
    let start = out.len();
    out.reserve(HEADER_LEN + record.payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(record.rtype);
    out.extend_from_slice(&record.bucket.to_be_bytes());
    out.extend_from_slice(&record.seq.to_be_bytes());
    out.extend_from_slice(&(record.payload.len() as u32).to_be_bytes());
    out.extend_from_slice(record.payload);
    let crc = checksum(&out[start..start + HEADER_LEN], record.payload);
    out.extend_from_slice(&crc);
}

/// Decodes the record starting at `buf[0]`.
///
/// With `verify` false the checksum is skipped: for `state_digest`'s walk
/// over the in-memory mirror, and under the checksum-disabled ablation.
///
/// # Errors
///
/// [`CodecError`] on corruption that a torn trailing write cannot
/// explain; a mid-record end-of-buffer is the non-error
/// [`Decoded::Incomplete`].
pub fn decode_record(buf: &[u8], verify: bool) -> Result<Decoded<'_>, CodecError> {
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
    let total = HEADER_LEN + len + CHECKSUM_LEN;
    if buf.len() < total {
        return Ok(Decoded::Incomplete);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    if verify && checksum(&buf[..HEADER_LEN], payload) != buf[HEADER_LEN + len..total] {
        return Err(CodecError::BadChecksum { rtype, bucket });
    }
    Ok(Decoded::Record(Record { rtype, bucket, seq, payload }, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_crypto::prop::{check, Gen};

    fn slots() -> Vec<u8> {
        (0..3 * 40).map(|i| i as u8).collect()
    }

    fn encode_record(record: &Record<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record_into(&mut out, record);
        out
    }

    fn sample(payload: &[u8]) -> Record<'_> {
        Record { rtype: RT_BUCKET, bucket: 17, seq: 3, payload }
    }

    fn crc32c(bytes: &[u8]) -> u32 {
        !crc32c_extend(!0, bytes)
    }

    /// The definition: one bit at a time, no table.
    fn crc32c_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// The check value of the CRC catalogue, and the 32-byte patterns of
    /// RFC 3720 §B.4.
    #[test]
    fn crc32c_matches_the_published_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (bytes, expected) in vectors {
            assert_eq!(crc32c(bytes), expected, "{bytes:02x?}");
            assert_eq!(crc32c_bitwise(bytes), expected, "{bytes:02x?}");
        }
    }

    /// Slicing-by-8 is the byte-at-a-time definition at every length and
    /// alignment of the tail, and when the input is split at any point.
    #[test]
    fn prop_slicing_by_8_matches_the_bitwise_definition() {
        check("crc32c slicing-by-8", 64, |g: &mut Gen| {
            let bytes = g.bytes(0, 5_001);
            assert_eq!(crc32c(&bytes), crc32c_bitwise(&bytes), "{} bytes", bytes.len());
            let cut = g.index(bytes.len() + 1);
            let split = !crc32c_extend(crc32c_extend(!0, &bytes[..cut]), &bytes[cut..]);
            assert_eq!(split, crc32c(&bytes), "{} bytes cut at {cut}", bytes.len());
        });
    }

    #[test]
    fn roundtrip() {
        let payload = slots();
        let rec = sample(&payload);
        let bytes = encode_record(&rec);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len() + CHECKSUM_LEN);
        match decode_record(&bytes, true).expect("decodes") {
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
        let alone = encode_record(&sample(&payload));
        let mut log = b"earlier records".to_vec();
        encode_record_into(&mut log, &sample(&payload));
        assert_eq!(&log[..15], b"earlier records");
        assert_eq!(&log[15..], &alone[..], "the checksum covers this record, not the buffer");
    }

    #[test]
    fn every_truncation_is_incomplete_never_a_panic() {
        let bytes = encode_record(&sample(&slots()));
        for cut in 1..bytes.len() {
            match decode_record(&bytes[..cut], true) {
                Ok(Decoded::Incomplete) => {}
                other => panic!("cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_record(&sample(&slots()));
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_record(&bad, true) {
                Ok(Decoded::Record(got, _)) => {
                    panic!("flip of bit {bit} went undetected: {got:?}")
                }
                // Length-field flips may also read as a longer record
                // (Incomplete) — still never served as valid data.
                Ok(Decoded::Incomplete) | Err(_) => {}
            }
        }
    }

    #[test]
    fn a_relabelled_record_fails_its_checksum() {
        let mut bytes = encode_record(&sample(&slots()));
        bytes[3..11].copy_from_slice(&18u64.to_be_bytes());
        assert_eq!(
            decode_record(&bytes, true),
            Err(CodecError::BadChecksum { rtype: RT_BUCKET, bucket: 18 })
        );
    }

    #[test]
    fn verify_false_skips_the_checksum() {
        let mut bytes = encode_record(&sample(&slots()));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the checksum itself
        assert!(matches!(decode_record(&bytes, false), Ok(Decoded::Record(..))));
    }

    #[test]
    fn absurd_length_rejected_without_allocating() {
        let mut bytes = encode_record(&sample(&slots()));
        bytes[19..23].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode_record(&bytes, true), Err(CodecError::Malformed(_))));
    }
}
