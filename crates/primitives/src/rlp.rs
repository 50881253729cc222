//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is Ethereum's canonical serialization. It is used in this workspace
//! for Merkle Patricia Trie nodes, transaction hashing, and block headers.
//!
//! # Examples
//!
//! ```
//! use tape_primitives::rlp::{self, RlpItem};
//!
//! let encoded = rlp::encode_list(&[rlp::encode_bytes(b"cat"), rlp::encode_bytes(b"dog")]);
//! let item = rlp::decode(&encoded)?;
//! match item {
//!     RlpItem::List(items) => assert_eq!(items.len(), 2),
//!     _ => unreachable!(),
//! }
//! # Ok::<(), rlp::RlpError>(())
//! ```

use crate::{Address, B256, U256};
use core::fmt;

/// A decoded RLP item: either a byte string or a list of items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RlpItem {
    /// A byte string.
    Bytes(Vec<u8>),
    /// A (possibly nested) list of items.
    List(Vec<RlpItem>),
}

impl RlpItem {
    /// Returns the byte string, or an error if this is a list.
    pub fn as_bytes(&self) -> Result<&[u8], RlpError> {
        match self {
            RlpItem::Bytes(b) => Ok(b),
            RlpItem::List(_) => Err(RlpError::ExpectedBytes),
        }
    }

    /// Returns the list items, or an error if this is a byte string.
    pub fn as_list(&self) -> Result<&[RlpItem], RlpError> {
        match self {
            RlpItem::List(items) => Ok(items),
            RlpItem::Bytes(_) => Err(RlpError::ExpectedList),
        }
    }
}

/// Error produced by RLP decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlpError {
    /// Input ended before the announced payload length.
    UnexpectedEof,
    /// The encoding was not minimal (e.g. a single byte < 0x80 wrapped in a
    /// string header, or a length-of-length with leading zeros).
    NonCanonical,
    /// Trailing bytes after the top-level item.
    TrailingBytes,
    /// Expected a byte string but found a list.
    ExpectedBytes,
    /// Expected a list but found a byte string.
    ExpectedList,
    /// A scalar was wider than the target integer type.
    ScalarTooLarge,
}

impl fmt::Display for RlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlpError::UnexpectedEof => write!(f, "unexpected end of input"),
            RlpError::NonCanonical => write!(f, "non-canonical encoding"),
            RlpError::TrailingBytes => write!(f, "trailing bytes after item"),
            RlpError::ExpectedBytes => write!(f, "expected byte string, found list"),
            RlpError::ExpectedList => write!(f, "expected list, found byte string"),
            RlpError::ScalarTooLarge => write!(f, "scalar too large for target type"),
        }
    }
}

impl std::error::Error for RlpError {}

/// Encodes a byte string.
pub fn encode_bytes(bytes: &[u8]) -> Vec<u8> {
    if bytes.len() == 1 && bytes[0] < 0x80 {
        return vec![bytes[0]];
    }
    let mut out = encode_length(bytes.len(), 0x80);
    out.extend_from_slice(bytes);
    out
}

/// Encodes a `u64` as a canonical scalar (minimal big-endian bytes).
pub fn encode_u64(v: u64) -> Vec<u8> {
    if v == 0 {
        return vec![0x80];
    }
    let be = v.to_be_bytes();
    let first = be.iter().position(|&b| b != 0).expect("v != 0");
    encode_bytes(&be[first..])
}

/// Encodes a [`U256`] as a canonical scalar.
pub fn encode_u256(v: &U256) -> Vec<u8> {
    encode_bytes(&v.to_be_bytes_trimmed())
}

/// Encodes an [`Address`] as a 20-byte string.
pub fn encode_address(a: &Address) -> Vec<u8> {
    encode_bytes(a.as_bytes())
}

/// Encodes a [`B256`] as a 32-byte string.
pub fn encode_b256(h: &B256) -> Vec<u8> {
    encode_bytes(h.as_bytes())
}

/// Encodes a list whose elements are *already RLP-encoded*.
pub fn encode_list(encoded_items: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = encoded_items.iter().map(Vec::len).sum();
    let mut out = encode_length(payload_len, 0xc0);
    for item in encoded_items {
        out.extend_from_slice(item);
    }
    out
}

/// Encodes a decoded [`RlpItem`] tree back to bytes.
pub fn encode_item(item: &RlpItem) -> Vec<u8> {
    match item {
        RlpItem::Bytes(b) => encode_bytes(b),
        RlpItem::List(items) => {
            let encoded: Vec<Vec<u8>> = items.iter().map(encode_item).collect();
            encode_list(&encoded)
        }
    }
}

fn encode_length(len: usize, offset: u8) -> Vec<u8> {
    if len <= 55 {
        vec![offset + len as u8]
    } else {
        let be = (len as u64).to_be_bytes();
        let first = be.iter().position(|&b| b != 0).expect("len > 55");
        let len_bytes = &be[first..];
        let mut out = vec![offset + 55 + len_bytes.len() as u8];
        out.extend_from_slice(len_bytes);
        out
    }
}

/// Decodes a single top-level RLP item, rejecting trailing bytes.
///
/// # Errors
///
/// Returns [`RlpError`] on truncated, non-canonical, or trailing input.
pub fn decode(input: &[u8]) -> Result<RlpItem, RlpError> {
    let (item, rest) = decode_prefix(input)?;
    if !rest.is_empty() {
        return Err(RlpError::TrailingBytes);
    }
    Ok(item)
}

/// Decodes one item from the front of `input`, returning the item and the
/// remaining bytes.
pub fn decode_prefix(input: &[u8]) -> Result<(RlpItem, &[u8]), RlpError> {
    let (&first, rest) = input.split_first().ok_or(RlpError::UnexpectedEof)?;
    match first {
        0x00..=0x7f => Ok((RlpItem::Bytes(vec![first]), rest)),
        0x80..=0xb7 => {
            let len = (first - 0x80) as usize;
            if rest.len() < len {
                return Err(RlpError::UnexpectedEof);
            }
            let (payload, rest) = rest.split_at(len);
            if len == 1 && payload[0] < 0x80 {
                return Err(RlpError::NonCanonical);
            }
            Ok((RlpItem::Bytes(payload.to_vec()), rest))
        }
        0xb8..=0xbf => {
            let (len, rest) = decode_long_length(first - 0xb7, rest)?;
            if rest.len() < len {
                return Err(RlpError::UnexpectedEof);
            }
            let (payload, rest) = rest.split_at(len);
            Ok((RlpItem::Bytes(payload.to_vec()), rest))
        }
        0xc0..=0xf7 => {
            let len = (first - 0xc0) as usize;
            if rest.len() < len {
                return Err(RlpError::UnexpectedEof);
            }
            let (payload, rest) = rest.split_at(len);
            Ok((RlpItem::List(decode_list_payload(payload)?), rest))
        }
        0xf8..=0xff => {
            let (len, rest) = decode_long_length(first - 0xf7, rest)?;
            if rest.len() < len {
                return Err(RlpError::UnexpectedEof);
            }
            let (payload, rest) = rest.split_at(len);
            Ok((RlpItem::List(decode_list_payload(payload)?), rest))
        }
    }
}

fn decode_long_length(len_of_len: u8, input: &[u8]) -> Result<(usize, &[u8]), RlpError> {
    let len_of_len = len_of_len as usize;
    if input.len() < len_of_len {
        return Err(RlpError::UnexpectedEof);
    }
    let (len_bytes, rest) = input.split_at(len_of_len);
    if len_bytes[0] == 0 {
        return Err(RlpError::NonCanonical);
    }
    let mut len = 0usize;
    for &b in len_bytes {
        len = len.checked_mul(256).and_then(|l| l.checked_add(b as usize))
            .ok_or(RlpError::ScalarTooLarge)?;
    }
    if len <= 55 {
        return Err(RlpError::NonCanonical);
    }
    Ok((len, rest))
}

fn decode_list_payload(mut payload: &[u8]) -> Result<Vec<RlpItem>, RlpError> {
    let mut items = Vec::new();
    while !payload.is_empty() {
        let (item, rest) = decode_prefix(payload)?;
        items.push(item);
        payload = rest;
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_examples() {
        // Classic examples from the Ethereum wiki.
        assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
        assert_eq!(
            encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(encode_bytes(b""), vec![0x80]);
        assert_eq!(encode_list(&[]), vec![0xc0]);
        assert_eq!(encode_u64(0), vec![0x80]);
        assert_eq!(encode_bytes(&[0x00]), vec![0x00]);
        assert_eq!(encode_bytes(&[0x0f]), vec![0x0f]);
        assert_eq!(encode_bytes(&[0x04, 0x00]), vec![0x82, 0x04, 0x00]);
        assert_eq!(encode_u64(1024), vec![0x82, 0x04, 0x00]);
    }

    #[test]
    fn long_string() {
        let s = vec![0xaa; 60];
        let enc = encode_bytes(&s);
        assert_eq!(enc[0], 0xb8);
        assert_eq!(enc[1], 60);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.as_bytes().unwrap(), &s[..]);
    }

    #[test]
    fn long_list() {
        let items: Vec<Vec<u8>> = (0..30).map(|i| encode_u64(i + 256)).collect();
        let enc = encode_list(&items);
        assert!(enc[0] >= 0xf8);
        let dec = decode(&enc).unwrap();
        let list = dec.as_list().unwrap();
        assert_eq!(list.len(), 30);
        assert_eq!(list[5].as_bytes().unwrap(), &[0x01, 0x05]); // 261
        // A byte string where a list is expected.
        assert_eq!(list[5].as_list(), Err(RlpError::ExpectedList));
    }

    #[test]
    fn nested_lists() {
        // [ [], [[]], [ [], [[]] ] ] — the famous set-theoretic example.
        let empty = encode_list(&[]);
        let l1 = encode_list(std::slice::from_ref(&empty));
        let l2 = encode_list(&[empty.clone(), l1.clone()]);
        let enc = encode_list(&[empty, l1, l2]);
        assert_eq!(enc, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
        let dec = decode(&enc).unwrap();
        assert_eq!(encode_item(&dec), enc);
    }

    #[test]
    fn u256_roundtrip() {
        for v in [U256::ZERO, U256::ONE, U256::from(0xffffu64), U256::MAX] {
            let enc = encode_u256(&v);
            let dec = decode(&enc).unwrap();
            assert_eq!(U256::from_be_slice(dec.as_bytes().unwrap()), v);
        }
    }

    #[test]
    fn address_and_b256_roundtrip() {
        let a = Address::from_low_u64(42);
        let h = B256::from(U256::from(7u64));
        assert_eq!(decode(&encode_address(&a)).unwrap().as_bytes().unwrap(), a.as_bytes());
        assert_eq!(decode(&encode_b256(&h)).unwrap().as_bytes().unwrap(), h.as_bytes());
    }

    #[test]
    fn rejects_trailing() {
        let mut enc = encode_bytes(b"dog");
        enc.push(0x00);
        assert_eq!(decode(&enc), Err(RlpError::TrailingBytes));
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(decode(&[0x83, b'd']), Err(RlpError::UnexpectedEof));
        assert_eq!(decode(&[0xb8]), Err(RlpError::UnexpectedEof));
        assert_eq!(decode(&[]), Err(RlpError::UnexpectedEof));
    }

    #[test]
    fn rejects_non_canonical() {
        // Single byte < 0x80 wrapped in a string header.
        assert_eq!(decode(&[0x81, 0x05]), Err(RlpError::NonCanonical));
        // Long-form length that would fit short form.
        assert_eq!(decode(&[0xb8, 0x01, 0xff]), Err(RlpError::NonCanonical));
        // Length-of-length with leading zero.
        let mut bad = vec![0xb9, 0x00, 0x38];
        bad.extend(vec![0u8; 56]);
        assert_eq!(decode(&bad), Err(RlpError::NonCanonical));
    }

    #[test]
    fn scalar_validation() {
        // Scalars encode minimally: no leading zero byte.
        for v in [1u64, 0x7f, 0x80, 261, u64::MAX] {
            let dec = decode(&encode_u64(v)).unwrap();
            let bytes = dec.as_bytes().unwrap();
            assert_ne!(bytes.first(), Some(&0), "{v}");
            assert_eq!(U256::from_be_slice(bytes), U256::from(v));
        }
        // A length scalar declaring more than follows is refused.
        assert_eq!(decode(&[0xbb, 0xff, 0xff, 0xff, 0xff]), Err(RlpError::UnexpectedEof));
        assert_eq!(decode(&[0xfb, 0xff, 0xff, 0xff, 0xff]), Err(RlpError::UnexpectedEof));
        // List where scalar expected.
        let enc = encode_list(&[]);
        assert_eq!(decode(&enc).unwrap().as_bytes(), Err(RlpError::ExpectedBytes));
    }

    #[test]
    fn fuzz_roundtrip_small() {
        // Exhaustive single-byte and two-byte round trips.
        for b in 0u8..=255 {
            let enc = encode_bytes(&[b]);
            assert_eq!(decode(&enc).unwrap().as_bytes().unwrap(), &[b]);
        }
    }
}
