//! Account state: the four-field record of the Ethereum world state.

use crate::code::Code;
use tape_primitives::{rlp, B256, U256};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hash of empty code: `keccak256("")`.
pub const EMPTY_CODE_HASH: B256 = B256::new([
    0xc5, 0xd2, 0x46, 0x01, 0x86, 0xf7, 0x23, 0x3c, 0x92, 0x7e, 0x7d, 0xb2, 0xdc, 0xc7, 0x03,
    0xc0, 0xe5, 0x00, 0xb6, 0x53, 0xca, 0x82, 0x27, 0x3b, 0x7b, 0xfa, 0xd8, 0x04, 0x5d, 0x85,
    0xa4, 0x70,
]);

/// A full account record: balance, nonce, contract code, and storage.
///
/// This is the materialized form used by the in-memory backend and the
/// node simulator; execution works against lighter [`AccountInfo`]
/// snapshots plus on-demand storage loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Account {
    /// Wei balance.
    pub balance: U256,
    /// Transaction / creation count.
    pub nonce: u64,
    /// Contract bytecode (the shared empty image for externally owned
    /// accounts).
    pub code: Arc<Code>,
    /// Contract storage. BTreeMap keeps iteration deterministic, which the
    /// ORAM page grouping (32 consecutive keys per *block*) relies on.
    pub storage: BTreeMap<U256, U256>,
}

impl Default for Account {
    fn default() -> Self {
        Account { balance: U256::ZERO, nonce: 0, code: Code::empty(), storage: BTreeMap::new() }
    }
}

impl Account {
    /// An externally owned account with the given balance.
    pub fn with_balance(balance: U256) -> Self {
        Account { balance, ..Default::default() }
    }

    /// A contract account with the given code.
    pub fn with_code(code: Vec<u8>) -> Self {
        Account { code: Arc::new(Code::new(code)), ..Default::default() }
    }

    /// keccak256 of the account's code, computed once per image.
    pub fn code_hash(&self) -> B256 {
        self.code.hash()
    }

    /// Returns `true` if the account matches Ethereum's "empty" predicate
    /// (zero balance, zero nonce, no code).
    pub fn is_empty(&self) -> bool {
        self.balance.is_zero() && self.nonce == 0 && self.code.is_empty()
    }

    /// Computes the storage trie root for this account.
    pub fn storage_root(&self) -> B256 {
        let mut trie = tape_mpt::SecureTrie::new();
        for (key, value) in &self.storage {
            if !value.is_zero() {
                trie.insert(&key.to_be_bytes(), &rlp::encode_u256(value));
            }
        }
        trie.root_hash()
    }

    /// RLP encoding of the account record
    /// `[nonce, balance, storage_root, code_hash]`, as stored in the state
    /// trie.
    pub fn rlp_encode(&self) -> Vec<u8> {
        rlp::encode_list(&[
            rlp::encode_u64(self.nonce),
            rlp::encode_u256(&self.balance),
            rlp::encode_b256(&self.storage_root()),
            rlp::encode_b256(&self.code_hash()),
        ])
    }

    /// Lightweight header snapshot.
    pub fn info(&self) -> AccountInfo {
        AccountInfo {
            balance: self.balance,
            nonce: self.nonce,
            code_hash: self.code_hash(),
            code_len: self.code.len(),
        }
    }
}

/// The execution-facing account header: everything except code bytes and
/// storage, which are loaded on demand (and, in HarDTAPE, fetched through
/// the ORAM as fixed-size pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountInfo {
    /// Wei balance.
    pub balance: U256,
    /// Transaction / creation count.
    pub nonce: u64,
    /// keccak256 of the code.
    pub code_hash: B256,
    /// Code length in bytes (a K-V style query in the paper's taxonomy).
    pub code_len: usize,
}

impl Default for AccountInfo {
    fn default() -> Self {
        AccountInfo { balance: U256::ZERO, nonce: 0, code_hash: EMPTY_CODE_HASH, code_len: 0 }
    }
}

impl AccountInfo {
    /// Returns `true` if the account has contract code.
    pub fn has_code(&self) -> bool {
        self.code_hash != EMPTY_CODE_HASH
    }

    /// Ethereum's "empty account" predicate.
    pub fn is_empty(&self) -> bool {
        self.balance.is_zero() && self.nonce == 0 && !self.has_code()
    }
}

/// A log record emitted by `LOG0`–`LOG4`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log {
    /// The emitting contract.
    pub address: tape_primitives::Address,
    /// Up to four indexed topics.
    pub topics: Vec<B256>,
    /// The unindexed payload.
    pub data: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_primitives::hex;

    #[test]
    fn empty_code_hash_constant() {
        assert_eq!(Account::default().code_hash(), EMPTY_CODE_HASH);
        assert_eq!(tape_crypto::keccak256([]), EMPTY_CODE_HASH);
    }

    #[test]
    fn empty_account_predicate() {
        assert!(Account::default().is_empty());
        assert!(!Account::with_balance(U256::ONE).is_empty());
        assert!(!Account::with_code(vec![0x60]).is_empty());
        let a = Account { nonce: 1, ..Account::default() };
        assert!(!a.is_empty());
    }

    #[test]
    fn storage_root_ignores_zero_slots() {
        let mut a = Account::default();
        a.storage.insert(U256::from(1u64), U256::ZERO);
        assert_eq!(a.storage_root(), tape_mpt::EMPTY_ROOT);
        a.storage.insert(U256::from(2u64), U256::from(5u64));
        assert_ne!(a.storage_root(), tape_mpt::EMPTY_ROOT);
    }

    #[test]
    fn rlp_encoding_of_empty_account() {
        // [0, 0, EMPTY_ROOT, EMPTY_CODE_HASH] — a canonical constant.
        let enc = Account::default().rlp_encode();
        assert_eq!(
            hex::encode(&enc),
            "f8448080a056e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421a0c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn info_snapshot() {
        let mut a = Account::with_code(vec![1, 2, 3]);
        a.balance = U256::from(9u64);
        a.nonce = 4;
        let info = a.info();
        assert_eq!(info.balance, U256::from(9u64));
        assert_eq!(info.nonce, 4);
        assert_eq!(info.code_len, 3);
        assert!(info.has_code());
        assert!(!info.is_empty());
        assert!(AccountInfo::default().is_empty());
    }
}
