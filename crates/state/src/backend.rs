//! State backends: the [`StateReader`] abstraction and the in-memory
//! world state.
//!
//! The pre-executor never mutates a backend — all writes live in the
//! [`JournaledState`](crate::JournaledState) overlay and are discarded
//! when the bundle finishes (paper §IV, step 10). Backends only change
//! when the node applies a *block*.

use crate::account::{Account, AccountInfo};
use crate::code::Code;
use std::collections::HashMap;
use std::sync::Arc;
use tape_primitives::{Address, B256, U256};

/// Read-only access to a version of the world state.
///
/// Implementations include the plain in-memory map ([`InMemoryState`]),
/// the node simulator's canonical state, and HarDTAPE's ORAM-backed
/// oblivious store.
pub trait StateReader {
    /// Loads the account header; `None` if the account does not exist.
    fn account(&self, address: &Address) -> Option<AccountInfo>;

    /// Loads contract code: the shared empty image for code-less
    /// accounts.
    fn code(&self, address: &Address) -> Arc<Code>;

    /// Loads a storage slot (zero when absent).
    fn storage(&self, address: &Address, key: &U256) -> U256;

    /// Hash of a recent block by number, for the `BLOCKHASH` opcode.
    /// Backends that do not track history may return zero.
    fn block_hash(&self, _number: u64) -> B256 {
        B256::ZERO
    }
}

impl<T: StateReader + ?Sized> StateReader for &T {
    fn account(&self, address: &Address) -> Option<AccountInfo> {
        (**self).account(address)
    }
    fn code(&self, address: &Address) -> Arc<Code> {
        (**self).code(address)
    }
    fn storage(&self, address: &Address, key: &U256) -> U256 {
        (**self).storage(address, key)
    }
    fn block_hash(&self, number: u64) -> B256 {
        (**self).block_hash(number)
    }
}

/// A plain in-memory world state.
///
/// # Examples
///
/// ```
/// use tape_primitives::{Address, U256};
/// use tape_state::{Account, InMemoryState, StateReader};
///
/// let mut state = InMemoryState::new();
/// let alice = Address::from_low_u64(1);
/// state.put_account(alice, Account::with_balance(U256::from(100u64)));
/// assert_eq!(state.account(&alice).unwrap().balance, U256::from(100u64));
/// ```
#[derive(Debug, Clone, Default)]
pub struct InMemoryState {
    accounts: HashMap<Address, Account>,
    block_hashes: HashMap<u64, B256>,
}

impl InMemoryState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an account.
    pub fn put_account(&mut self, address: Address, account: Account) {
        self.accounts.insert(address, account);
    }

    /// Removes an account entirely.
    pub fn remove_account(&mut self, address: &Address) -> Option<Account> {
        self.accounts.remove(address)
    }

    /// Mutable access to an account, creating it if absent.
    pub fn account_mut(&mut self, address: Address) -> &mut Account {
        self.accounts.entry(address).or_default()
    }

    /// Shared access to the full account record.
    pub fn account_full(&self, address: &Address) -> Option<&Account> {
        self.accounts.get(address)
    }

    /// Sets a storage slot directly (test/setup convenience).
    pub fn set_storage(&mut self, address: Address, key: U256, value: U256) {
        let account = self.accounts.entry(address).or_default();
        if value.is_zero() {
            account.storage.remove(&key);
        } else {
            account.storage.insert(key, value);
        }
    }

    /// Registers a historical block hash for `BLOCKHASH`.
    pub fn put_block_hash(&mut self, number: u64, hash: B256) {
        self.block_hashes.insert(number, hash);
    }

    /// Iterates over all `(address, account)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter()
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Returns `true` if no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Computes the Ethereum state root over all non-empty accounts.
    pub fn state_root(&self) -> B256 {
        let mut trie = tape_mpt::SecureTrie::new();
        for (address, account) in &self.accounts {
            if !account.is_empty() || !account.storage.is_empty() {
                trie.insert(address.as_bytes(), &account.rlp_encode());
            }
        }
        trie.root_hash()
    }
}

impl StateReader for InMemoryState {
    fn account(&self, address: &Address) -> Option<AccountInfo> {
        self.accounts.get(address).map(Account::info)
    }

    fn code(&self, address: &Address) -> Arc<Code> {
        self.accounts.get(address).map_or_else(Code::empty, |a| Arc::clone(&a.code))
    }

    fn storage(&self, address: &Address, key: &U256) -> U256 {
        self.accounts
            .get(address)
            .and_then(|a| a.storage.get(key).copied())
            .unwrap_or(U256::ZERO)
    }

    fn block_hash(&self, number: u64) -> B256 {
        self.block_hashes.get(&number).copied().unwrap_or(B256::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut state = InMemoryState::new();
        let addr = Address::from_low_u64(7);
        let mut account = Account::with_balance(U256::from(55u64));
        account.storage.insert(U256::ONE, U256::from(99u64));
        state.put_account(addr, account);

        assert_eq!(state.account(&addr).unwrap().balance, U256::from(55u64));
        assert_eq!(state.storage(&addr, &U256::ONE), U256::from(99u64));
        assert_eq!(state.storage(&addr, &U256::from(2u64)), U256::ZERO);
        assert!(state.account(&Address::from_low_u64(8)).is_none());
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn set_storage_zero_removes() {
        let mut state = InMemoryState::new();
        let addr = Address::from_low_u64(1);
        state.set_storage(addr, U256::ONE, U256::from(5u64));
        assert_eq!(state.storage(&addr, &U256::ONE), U256::from(5u64));
        state.set_storage(addr, U256::ONE, U256::ZERO);
        assert_eq!(state.storage(&addr, &U256::ONE), U256::ZERO);
        assert!(state.account_full(&addr).unwrap().storage.is_empty());
    }

    #[test]
    fn state_root_changes_with_content() {
        let mut state = InMemoryState::new();
        let empty_root = state.state_root();
        assert_eq!(empty_root, tape_mpt::EMPTY_ROOT);

        state.put_account(Address::from_low_u64(1), Account::with_balance(U256::ONE));
        let one = state.state_root();
        assert_ne!(one, empty_root);

        state.put_account(Address::from_low_u64(2), Account::with_balance(U256::ONE));
        let two = state.state_root();
        assert_ne!(two, one);

        // Removing gets back the earlier root.
        state.remove_account(&Address::from_low_u64(2));
        assert_eq!(state.state_root(), one);
    }

    #[test]
    fn empty_accounts_excluded_from_root() {
        let mut state = InMemoryState::new();
        state.put_account(Address::from_low_u64(1), Account::default());
        assert_eq!(state.state_root(), tape_mpt::EMPTY_ROOT);
    }

    #[test]
    fn block_hashes() {
        let mut state = InMemoryState::new();
        let h = B256::new([9; 32]);
        state.put_block_hash(100, h);
        assert_eq!(state.block_hash(100), h);
        assert_eq!(state.block_hash(101), B256::ZERO);
    }
}
