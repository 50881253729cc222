//! The journaled overlay state: execution-frame commit/revert semantics.
//!
//! Each EVM execution frame gets a checkpoint; `RETURN`/`STOP` commit the
//! frame's world-state modifications into the caller's version, `REVERT`
//! discards them (paper §II-A). All writes stay in this overlay — the
//! backing [`StateReader`] is never mutated, which is exactly the
//! pre-execution property HarDTAPE needs (world-state modifications are
//! temporary, paper §IV step 10).

use crate::account::{AccountInfo, Log};
use crate::backend::StateReader;
use crate::code::Code;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tape_primitives::{Address, B256, U256};

/// Result of an `SLOAD`, carrying the EIP-2929 cold/warm flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloadResult {
    /// The slot value.
    pub value: U256,
    /// `true` if this was the first access to the slot in the transaction.
    pub is_cold: bool,
}

/// Result of an `SSTORE`, carrying everything EIP-2200 gas metering needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SstoreResult {
    /// Value at transaction start.
    pub original: U256,
    /// Value before this store.
    pub current: U256,
    /// Value being stored.
    pub new: U256,
    /// `true` if this was the first access to the slot in the transaction.
    pub is_cold: bool,
}

/// A checkpoint token returned by [`JournaledState::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    journal_len: usize,
    log_len: usize,
}

/// Error produced by a failed balance transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsufficientBalance {
    /// The account that could not pay.
    pub address: Address,
    /// The amount requested.
    pub needed: U256,
    /// The balance actually available.
    pub available: U256,
}

impl core::fmt::Display for InsufficientBalance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "insufficient balance in {}: needed {}, available {}",
            self.address, self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientBalance {}

#[derive(Debug, Clone)]
struct OverlayAccount {
    balance: U256,
    nonce: u64,
    code: Arc<Code>,
    code_hash: B256,
    exists: bool,
}

impl OverlayAccount {
    fn nonexistent() -> Self {
        OverlayAccount {
            balance: U256::ZERO,
            nonce: 0,
            code: Code::empty(),
            code_hash: crate::account::EMPTY_CODE_HASH,
            exists: false,
        }
    }

    fn info(&self) -> AccountInfo {
        AccountInfo {
            balance: self.balance,
            nonce: self.nonce,
            code_hash: self.code_hash,
            code_len: self.code.len(),
        }
    }
}

#[derive(Debug)]
enum Entry {
    Balance { address: Address, prev: U256 },
    Nonce { address: Address, prev: u64 },
    Code { address: Address, prev_code: Arc<Code>, prev_hash: B256 },
    Exists { address: Address, prev: bool },
    Storage { address: Address, key: U256, prev: Option<U256> },
    Transient { address: Address, key: U256, prev: U256 },
    Log,
    WarmAddress { address: Address },
    WarmSlot { address: Address, key: U256 },
    Selfdestruct { address: Address },
}

/// A summary of every modification a bundle made, for the user-facing
/// trace report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateChanges {
    /// `(address, old_balance, new_balance)` for every balance change.
    pub balances: Vec<(Address, U256, U256)>,
    /// `(address, old_nonce, new_nonce)` for every nonce change.
    pub nonces: Vec<(Address, u64, u64)>,
    /// `(address, key, new_value)` for every written storage slot.
    pub storage: Vec<(Address, U256, U256)>,
    /// Addresses that received code in this bundle (CREATE).
    pub new_contracts: Vec<Address>,
    /// Addresses selfdestructed in this bundle.
    pub selfdestructs: Vec<Address>,
}

/// The reader-free remainder of a suspended [`JournaledState`]: every
/// overlay map, the journal itself, logs, and the per-transaction warm
/// sets, detached from the backing [`StateReader`].
///
/// Produced by [`JournaledState::suspend`] at a segment boundary so a
/// preempted execution can park its world-state view while the reader
/// (often a short-lived borrow of the device state) goes away, and
/// re-attached later with [`JournaledState::rehydrate`]. The fields are
/// moved, never cloned — journal entries are not `Clone` by design, so
/// a suspension cannot silently fork the overlay.
#[derive(Debug)]
pub struct JournalSuspend {
    accounts: HashMap<Address, OverlayAccount>,
    storage: HashMap<(Address, U256), U256>,
    storage_reads: HashMap<(Address, U256), U256>,
    original_storage: HashMap<(Address, U256), U256>,
    transient: HashMap<(Address, U256), U256>,
    journal: Vec<Entry>,
    logs: Vec<Log>,
    warm_addresses: HashSet<Address>,
    warm_slots: HashSet<(Address, U256)>,
    selfdestructed: HashSet<Address>,
}

/// The journaled overlay over a read-only state backend.
///
/// # Examples
///
/// ```
/// use tape_primitives::{Address, U256};
/// use tape_state::{Account, InMemoryState, JournaledState};
///
/// let mut backend = InMemoryState::new();
/// let alice = Address::from_low_u64(1);
/// let bob = Address::from_low_u64(2);
/// backend.put_account(alice, Account::with_balance(U256::from(100u64)));
///
/// let mut journal = JournaledState::new(&backend);
/// let frame = journal.checkpoint();
/// journal.transfer(&alice, &bob, U256::from(30u64))?;
/// journal.revert(frame);
/// assert_eq!(journal.balance(&alice), U256::from(100u64)); // reverted
/// # Ok::<(), tape_state::InsufficientBalance>(())
/// ```
#[derive(Debug)]
pub struct JournaledState<R> {
    reader: R,
    accounts: HashMap<Address, OverlayAccount>,
    storage: HashMap<(Address, U256), U256>,
    storage_reads: HashMap<(Address, U256), U256>,
    original_storage: HashMap<(Address, U256), U256>,
    transient: HashMap<(Address, U256), U256>,
    journal: Vec<Entry>,
    logs: Vec<Log>,
    warm_addresses: HashSet<Address>,
    warm_slots: HashSet<(Address, U256)>,
    selfdestructed: HashSet<Address>,
}

impl<R: StateReader> JournaledState<R> {
    /// Creates a fresh overlay over `reader`.
    pub fn new(reader: R) -> Self {
        JournaledState {
            reader,
            accounts: HashMap::new(),
            storage: HashMap::new(),
            storage_reads: HashMap::new(),
            original_storage: HashMap::new(),
            transient: HashMap::new(),
            journal: Vec::new(),
            logs: Vec::new(),
            warm_addresses: HashSet::new(),
            warm_slots: HashSet::new(),
            selfdestructed: HashSet::new(),
        }
    }

    /// Access to the underlying reader.
    pub fn reader(&self) -> &R {
        &self.reader
    }

    /// Detaches the overlay from its reader at a segment boundary:
    /// returns the reader and a [`JournalSuspend`] holding everything
    /// else (accounts, storage, journal entries, logs, warm sets). The
    /// pair [`suspend`](Self::suspend)/[`rehydrate`](Self::rehydrate)
    /// is a pure move — no entry is cloned or replayed — so a resumed
    /// execution observes byte-identical journal semantics.
    pub fn suspend(self) -> (R, JournalSuspend) {
        let JournaledState {
            reader,
            accounts,
            storage,
            storage_reads,
            original_storage,
            transient,
            journal,
            logs,
            warm_addresses,
            warm_slots,
            selfdestructed,
        } = self;
        (
            reader,
            JournalSuspend {
                accounts,
                storage,
                storage_reads,
                original_storage,
                transient,
                journal,
                logs,
                warm_addresses,
                warm_slots,
                selfdestructed,
            },
        )
    }

    /// Re-attaches a suspended overlay to a (possibly new instance of
    /// an equivalent) reader. The reader must serve the same world
    /// state the overlay was suspended over; cached reads
    /// (`storage_reads`, faulted-in accounts) are kept, so a reader
    /// that diverged mid-suspension would be partially shadowed — the
    /// service layer guarantees a bundle is never resumed across a
    /// head change without re-validation.
    pub fn rehydrate(reader: R, suspend: JournalSuspend) -> Self {
        let JournalSuspend {
            accounts,
            storage,
            storage_reads,
            original_storage,
            transient,
            journal,
            logs,
            warm_addresses,
            warm_slots,
            selfdestructed,
        } = suspend;
        JournaledState {
            reader,
            accounts,
            storage,
            storage_reads,
            original_storage,
            transient,
            journal,
            logs,
            warm_addresses,
            warm_slots,
            selfdestructed,
        }
    }

    /// Resets per-transaction state (warm sets, transient storage,
    /// original-value tracking) while keeping accumulated world-state
    /// modifications — bundles execute transactions sequentially over the
    /// same overlay.
    pub fn begin_transaction(&mut self) {
        self.warm_addresses.clear();
        self.warm_slots.clear();
        self.transient.clear();
        self.original_storage.clear();
        self.journal.clear();
        self.selfdestructed.retain(|_| true); // selfdestructs persist across txs in a bundle
    }

    /// Pre-warms an address (transaction sender/recipient and access-list
    /// entries start warm per EIP-2929).
    pub fn warm_address(&mut self, address: Address) {
        self.warm_addresses.insert(address);
    }

    /// Faults the account overlay in from the reader on first touch and
    /// hands back the (now guaranteed) overlay entry — so callers never
    /// need a fallible second lookup.
    fn ensure_account(&mut self, address: Address) -> &mut OverlayAccount {
        use std::collections::hash_map::Entry as Slot;
        match self.accounts.entry(address) {
            Slot::Occupied(occupied) => occupied.into_mut(),
            Slot::Vacant(vacant) => {
                let overlay = match self.reader.account(&address) {
                    Some(info) => OverlayAccount {
                        balance: info.balance,
                        nonce: info.nonce,
                        code: self.reader.code(&address),
                        code_hash: info.code_hash,
                        exists: true,
                    },
                    None => OverlayAccount::nonexistent(),
                };
                vacant.insert(overlay)
            }
        }
    }

    /// Loads the account header, returning the EIP-2929 cold flag.
    pub fn load_account(&mut self, address: Address) -> (AccountInfo, bool) {
        let is_cold = !self.warm_addresses.contains(&address);
        if is_cold {
            self.warm_addresses.insert(address);
            self.journal.push(Entry::WarmAddress { address });
        }
        (self.ensure_account(address).info(), is_cold)
    }

    /// Returns `true` if the account exists (has been created or is in
    /// the backend).
    pub fn exists(&mut self, address: Address) -> bool {
        self.ensure_account(address).exists
    }

    /// Current balance.
    pub fn balance(&mut self, address: &Address) -> U256 {
        self.ensure_account(*address).balance
    }

    /// Current nonce.
    pub fn nonce(&mut self, address: &Address) -> u64 {
        self.ensure_account(*address).nonce
    }

    /// Contract code.
    pub fn code(&mut self, address: &Address) -> Arc<Code> {
        Arc::clone(&self.ensure_account(*address).code)
    }

    /// Code hash (`EMPTY_CODE_HASH` for code-less, zero for nonexistent
    /// accounts per `EXTCODEHASH` semantics).
    pub fn code_hash(&mut self, address: &Address) -> B256 {
        let acc = self.ensure_account(*address);
        if !acc.exists && acc.balance.is_zero() && acc.nonce == 0 {
            B256::ZERO
        } else {
            acc.code_hash
        }
    }

    fn set_balance_internal(&mut self, address: Address, new: U256) {
        let acc = self.ensure_account(address);
        let prev = acc.balance;
        let changed = prev != new;
        if changed {
            acc.balance = new;
        }
        let created = !acc.exists;
        if created {
            acc.exists = true;
        }
        if changed {
            self.journal.push(Entry::Balance { address, prev });
        }
        if created {
            self.journal.push(Entry::Exists { address, prev: false });
        }
    }

    /// Adds to a balance, implicitly creating the account.
    pub fn add_balance(&mut self, address: &Address, amount: U256) {
        let new = self.balance(address).wrapping_add(amount);
        self.set_balance_internal(*address, new);
    }

    /// Subtracts from a balance.
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientBalance`] without modifying state if the
    /// account cannot cover `amount`.
    pub fn sub_balance(&mut self, address: &Address, amount: U256) -> Result<(), InsufficientBalance> {
        let available = self.balance(address);
        let new = available.checked_sub(amount).ok_or(InsufficientBalance {
            address: *address,
            needed: amount,
            available,
        })?;
        self.set_balance_internal(*address, new);
        Ok(())
    }

    /// Transfers value between accounts.
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientBalance`] if `from` cannot cover `value`.
    pub fn transfer(
        &mut self,
        from: &Address,
        to: &Address,
        value: U256,
    ) -> Result<(), InsufficientBalance> {
        self.sub_balance(from, value)?;
        self.add_balance(to, value);
        Ok(())
    }

    /// Increments the nonce, returning the old value.
    pub fn inc_nonce(&mut self, address: &Address) -> u64 {
        let acc = self.ensure_account(*address);
        let prev = acc.nonce;
        acc.nonce += 1;
        let created = !acc.exists;
        if created {
            acc.exists = true;
        }
        self.journal.push(Entry::Nonce { address: *address, prev });
        if created {
            self.journal.push(Entry::Exists { address: *address, prev: false });
        }
        prev
    }

    /// Installs contract code (the tail of a CREATE).
    pub fn set_code(&mut self, address: &Address, code: Vec<u8>) {
        let code = Arc::new(Code::new(code));
        let hash = code.hash();
        let acc = self.ensure_account(*address);
        let prev_code = std::mem::replace(&mut acc.code, code);
        let prev_hash = acc.code_hash;
        acc.code_hash = hash;
        let created = !acc.exists;
        if created {
            acc.exists = true;
        }
        self.journal.push(Entry::Code { address: *address, prev_code, prev_hash });
        if created {
            self.journal.push(Entry::Exists { address: *address, prev: false });
        }
    }

    /// Reads a storage slot with warm/cold tracking.
    pub fn sload(&mut self, address: &Address, key: &U256) -> SloadResult {
        let slot = (*address, *key);
        let is_cold = !self.warm_slots.contains(&slot);
        if is_cold {
            self.warm_slots.insert(slot);
            self.journal.push(Entry::WarmSlot { address: *address, key: *key });
        }
        let value = self.storage_value(address, key);
        self.original_storage.entry(slot).or_insert(value);
        SloadResult { value, is_cold }
    }

    fn storage_value(&mut self, address: &Address, key: &U256) -> U256 {
        let slot = (*address, *key);
        if let Some(v) = self.storage.get(&slot) {
            return *v;
        }
        if let Some(v) = self.storage_reads.get(&slot) {
            return *v;
        }
        let v = self.reader.storage(address, key);
        self.storage_reads.insert(slot, v);
        v
    }

    /// Writes a storage slot, returning the triple EIP-2200 needs.
    pub fn sstore(&mut self, address: &Address, key: &U256, value: U256) -> SstoreResult {
        let slot = (*address, *key);
        let is_cold = !self.warm_slots.contains(&slot);
        if is_cold {
            self.warm_slots.insert(slot);
            self.journal.push(Entry::WarmSlot { address: *address, key: *key });
        }
        let current = self.storage_value(address, key);
        let original = *self.original_storage.entry(slot).or_insert(current);
        let prev = self.storage.insert(slot, value);
        self.journal.push(Entry::Storage { address: *address, key: *key, prev });
        SstoreResult { original, current, new: value, is_cold }
    }

    /// Reads transient storage (EIP-1153 `TLOAD`).
    pub fn tload(&self, address: &Address, key: &U256) -> U256 {
        self.transient.get(&(*address, *key)).copied().unwrap_or(U256::ZERO)
    }

    /// Writes transient storage (EIP-1153 `TSTORE`).
    pub fn tstore(&mut self, address: &Address, key: &U256, value: U256) {
        let slot = (*address, *key);
        let prev = self.transient.insert(slot, value).unwrap_or(U256::ZERO);
        self.journal.push(Entry::Transient { address: *address, key: *key, prev });
    }

    /// Appends a log record.
    pub fn log(&mut self, log: Log) {
        self.logs.push(log);
        self.journal.push(Entry::Log);
    }

    /// Marks an account selfdestructed, moving its balance to the
    /// beneficiary. Returns the amount moved.
    pub fn selfdestruct(&mut self, address: &Address, beneficiary: &Address) -> U256 {
        let balance = self.balance(address);
        self.set_balance_internal(*address, U256::ZERO);
        if address != beneficiary {
            self.add_balance(beneficiary, balance);
        }
        if self.selfdestructed.insert(*address) {
            self.journal.push(Entry::Selfdestruct { address: *address });
        }
        balance
    }

    /// Opens a new frame; pair with [`commit`](Self::commit) or
    /// [`revert`](Self::revert).
    pub fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint { journal_len: self.journal.len(), log_len: self.logs.len() }
    }

    /// Commits a frame: its writes become part of the caller's version.
    pub fn commit(&mut self, _checkpoint: Checkpoint) {
        // Nothing to do: entries simply stay in the journal, owned by the
        // enclosing frame.
    }

    /// Reverts a frame: undoes every write made since the checkpoint.
    pub fn revert(&mut self, checkpoint: Checkpoint) {
        while self.journal.len() > checkpoint.journal_len {
            // An account entry without its overlay would mean the
            // journal recorded a write that never happened; skipping it
            // degrades to an unrevertible no-op instead of a panic.
            let Some(entry) = self.journal.pop() else { break };
            match entry {
                Entry::Balance { address, prev } => {
                    if let Some(acc) = self.accounts.get_mut(&address) {
                        acc.balance = prev;
                    }
                }
                Entry::Nonce { address, prev } => {
                    if let Some(acc) = self.accounts.get_mut(&address) {
                        acc.nonce = prev;
                    }
                }
                Entry::Code { address, prev_code, prev_hash } => {
                    if let Some(acc) = self.accounts.get_mut(&address) {
                        acc.code = prev_code;
                        acc.code_hash = prev_hash;
                    }
                }
                Entry::Exists { address, prev } => {
                    if let Some(acc) = self.accounts.get_mut(&address) {
                        acc.exists = prev;
                    }
                }
                Entry::Storage { address, key, prev } => match prev {
                    Some(v) => {
                        self.storage.insert((address, key), v);
                    }
                    None => {
                        self.storage.remove(&(address, key));
                    }
                },
                Entry::Transient { address, key, prev } => {
                    if prev.is_zero() {
                        self.transient.remove(&(address, key));
                    } else {
                        self.transient.insert((address, key), prev);
                    }
                }
                Entry::Log => {
                    self.logs.pop();
                }
                Entry::WarmAddress { address } => {
                    self.warm_addresses.remove(&address);
                }
                Entry::WarmSlot { address, key } => {
                    self.warm_slots.remove(&(address, key));
                }
                Entry::Selfdestruct { address } => {
                    self.selfdestructed.remove(&address);
                }
            }
        }
        self.logs.truncate(checkpoint.log_len);
    }

    /// All logs emitted so far.
    pub fn logs(&self) -> &[Log] {
        &self.logs
    }

    /// Takes ownership of the emitted logs, clearing the buffer.
    pub fn take_logs(&mut self) -> Vec<Log> {
        std::mem::take(&mut self.logs)
    }

    /// Summarizes every modification relative to the backend, for the
    /// user-facing trace report.
    pub fn changes(&self) -> StateChanges {
        let mut changes = StateChanges::default();
        let mut balances: Vec<_> = self
            .accounts
            .iter()
            .filter_map(|(addr, acc)| {
                let before = self
                    .reader
                    .account(addr)
                    .map(|i| i.balance)
                    .unwrap_or(U256::ZERO);
                (before != acc.balance).then_some((*addr, before, acc.balance))
            })
            .collect();
        balances.sort_by_key(|(a, _, _)| *a);
        changes.balances = balances;

        let mut nonces: Vec<_> = self
            .accounts
            .iter()
            .filter_map(|(addr, acc)| {
                let before = self.reader.account(addr).map(|i| i.nonce).unwrap_or(0);
                (before != acc.nonce).then_some((*addr, before, acc.nonce))
            })
            .collect();
        nonces.sort_by_key(|(a, _, _)| *a);
        changes.nonces = nonces;

        let mut storage: Vec<_> = self
            .storage
            .iter()
            .filter_map(|((addr, key), value)| {
                let before = self.reader.storage(addr, key);
                (before != *value).then_some((*addr, *key, *value))
            })
            .collect();
        storage.sort_by_key(|entry| (entry.0, entry.1));
        changes.storage = storage;

        let mut contracts: Vec<_> = self
            .accounts
            .iter()
            .filter_map(|(addr, acc)| {
                let had_code = self
                    .reader
                    .account(addr)
                    .map(|i| i.has_code())
                    .unwrap_or(false);
                (!had_code && !acc.code.is_empty()).then_some(*addr)
            })
            .collect();
        contracts.sort();
        changes.new_contracts = contracts;

        let mut sd: Vec<_> = self.selfdestructed.iter().copied().collect();
        sd.sort();
        changes.selfdestructs = sd;
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Account;
    use crate::backend::InMemoryState;

    fn setup() -> (InMemoryState, Address, Address) {
        let mut backend = InMemoryState::new();
        let alice = Address::from_low_u64(1);
        let bob = Address::from_low_u64(2);
        backend.put_account(alice, Account::with_balance(U256::from(1000u64)));
        backend.put_account(bob, Account::with_balance(U256::from(50u64)));
        (backend, alice, bob)
    }

    #[test]
    fn transfer_and_commit() {
        let (backend, alice, bob) = setup();
        let mut j = JournaledState::new(&backend);
        let cp = j.checkpoint();
        j.transfer(&alice, &bob, U256::from(100u64)).unwrap();
        j.commit(cp);
        assert_eq!(j.balance(&alice), U256::from(900u64));
        assert_eq!(j.balance(&bob), U256::from(150u64));
        // Backend untouched.
        use crate::backend::StateReader;
        assert_eq!(backend.account(&alice).unwrap().balance, U256::from(1000u64));
    }

    #[test]
    fn transfer_insufficient_fails_cleanly() {
        let (backend, alice, bob) = setup();
        let mut j = JournaledState::new(&backend);
        let err = j.transfer(&alice, &bob, U256::from(2000u64)).unwrap_err();
        assert_eq!(err.available, U256::from(1000u64));
        assert_eq!(j.balance(&alice), U256::from(1000u64));
        assert_eq!(j.balance(&bob), U256::from(50u64));
    }

    #[test]
    fn nested_frames_revert_inner_only() {
        let (backend, alice, bob) = setup();
        let mut j = JournaledState::new(&backend);
        let outer = j.checkpoint();
        j.transfer(&alice, &bob, U256::from(100u64)).unwrap();

        let inner = j.checkpoint();
        j.transfer(&alice, &bob, U256::from(200u64)).unwrap();
        j.sstore(&alice, &U256::ONE, U256::from(7u64));
        j.revert(inner);

        assert_eq!(j.balance(&alice), U256::from(900u64));
        assert_eq!(j.balance(&bob), U256::from(150u64));
        assert_eq!(j.sload(&alice, &U256::ONE).value, U256::ZERO);

        j.commit(outer);
        assert_eq!(j.balance(&alice), U256::from(900u64));
    }

    #[test]
    fn storage_original_current_new_tracking() {
        let mut backend = InMemoryState::new();
        let addr = Address::from_low_u64(5);
        backend.set_storage(addr, U256::ONE, U256::from(10u64));
        let mut j = JournaledState::new(&backend);

        let r1 = j.sstore(&addr, &U256::ONE, U256::from(20u64));
        assert_eq!(r1.original, U256::from(10u64));
        assert_eq!(r1.current, U256::from(10u64));
        assert_eq!(r1.new, U256::from(20u64));
        assert!(r1.is_cold);

        let r2 = j.sstore(&addr, &U256::ONE, U256::from(30u64));
        assert_eq!(r2.original, U256::from(10u64)); // original is per-tx
        assert_eq!(r2.current, U256::from(20u64));
        assert!(!r2.is_cold);
    }

    #[test]
    fn warm_cold_tracking_reverts() {
        let (backend, alice, _) = setup();
        let mut j = JournaledState::new(&backend);
        let cp = j.checkpoint();
        let (_, cold1) = j.load_account(alice);
        assert!(cold1);
        let (_, cold2) = j.load_account(alice);
        assert!(!cold2);
        j.revert(cp);
        // Warmth added inside the reverted frame is removed (EIP-2929).
        let (_, cold3) = j.load_account(alice);
        assert!(cold3);
    }

    #[test]
    fn prewarmed_addresses_stay_warm() {
        let (backend, alice, _) = setup();
        let mut j = JournaledState::new(&backend);
        j.warm_address(alice);
        let (_, cold) = j.load_account(alice);
        assert!(!cold);
    }

    #[test]
    fn transient_storage_reverts_and_clears() {
        let (backend, alice, _) = setup();
        let mut j = JournaledState::new(&backend);
        let cp = j.checkpoint();
        j.tstore(&alice, &U256::ONE, U256::from(9u64));
        assert_eq!(j.tload(&alice, &U256::ONE), U256::from(9u64));
        j.revert(cp);
        assert_eq!(j.tload(&alice, &U256::ONE), U256::ZERO);

        j.tstore(&alice, &U256::ONE, U256::from(5u64));
        j.begin_transaction();
        assert_eq!(j.tload(&alice, &U256::ONE), U256::ZERO);
    }

    #[test]
    fn logs_revert_with_frame() {
        let (backend, alice, _) = setup();
        let mut j = JournaledState::new(&backend);
        j.log(Log { address: alice, topics: vec![], data: vec![1] });
        let cp = j.checkpoint();
        j.log(Log { address: alice, topics: vec![], data: vec![2] });
        assert_eq!(j.logs().len(), 2);
        j.revert(cp);
        assert_eq!(j.logs().len(), 1);
        assert_eq!(j.take_logs().len(), 1);
        assert!(j.logs().is_empty());
    }

    #[test]
    fn nonce_and_code_revert() {
        let (backend, alice, _) = setup();
        let mut j = JournaledState::new(&backend);
        let cp = j.checkpoint();
        assert_eq!(j.inc_nonce(&alice), 0);
        j.set_code(&alice, vec![0x60, 0x00]);
        assert_eq!(j.nonce(&alice), 1);
        assert_eq!(&j.code(&alice)[..], &[0x60, 0x00]);
        j.revert(cp);
        assert_eq!(j.nonce(&alice), 0);
        assert!(j.code(&alice).is_empty());
    }

    #[test]
    fn account_creation_reverts_to_nonexistent() {
        let backend = InMemoryState::new();
        let ghost = Address::from_low_u64(99);
        let mut j = JournaledState::new(&backend);
        assert!(!j.exists(ghost));
        let cp = j.checkpoint();
        j.add_balance(&ghost, U256::from(5u64));
        assert!(j.exists(ghost));
        j.revert(cp);
        assert!(!j.exists(ghost));
        assert_eq!(j.balance(&ghost), U256::ZERO);
    }

    #[test]
    fn selfdestruct_moves_balance_and_reverts() {
        let (backend, alice, bob) = setup();
        let mut j = JournaledState::new(&backend);
        let cp = j.checkpoint();
        let moved = j.selfdestruct(&alice, &bob);
        assert_eq!(moved, U256::from(1000u64));
        assert_eq!(j.balance(&bob), U256::from(1050u64));
        assert_eq!(j.changes().selfdestructs, vec![alice]);
        j.revert(cp);
        assert!(j.changes().selfdestructs.is_empty());
        assert_eq!(j.balance(&alice), U256::from(1000u64));
        assert_eq!(j.balance(&bob), U256::from(50u64));
    }

    #[test]
    fn selfdestruct_to_self_burns() {
        let (backend, alice, _) = setup();
        let mut j = JournaledState::new(&backend);
        j.selfdestruct(&alice, &alice);
        assert_eq!(j.balance(&alice), U256::ZERO);
    }

    #[test]
    fn changes_summary() {
        let (backend, alice, bob) = setup();
        let mut j = JournaledState::new(&backend);
        j.transfer(&alice, &bob, U256::from(10u64)).unwrap();
        j.sstore(&alice, &U256::ONE, U256::from(3u64));
        j.inc_nonce(&alice);
        let changes = j.changes();
        assert_eq!(changes.balances.len(), 2);
        assert_eq!(changes.nonces, vec![(alice, 0, 1)]);
        assert_eq!(changes.storage, vec![(alice, U256::ONE, U256::from(3u64))]);
        assert!(changes.new_contracts.is_empty());
    }

    #[test]
    fn sstore_noop_not_reported_in_changes() {
        let mut backend = InMemoryState::new();
        let addr = Address::from_low_u64(3);
        backend.set_storage(addr, U256::ONE, U256::from(4u64));
        let mut j = JournaledState::new(&backend);
        j.sstore(&addr, &U256::ONE, U256::from(4u64));
        assert!(j.changes().storage.is_empty());
    }

    #[test]
    fn suspend_rehydrate_preserves_overlay_and_frames() {
        let (backend, alice, bob) = setup();
        let mut j = JournaledState::new(&backend);
        let outer = j.checkpoint();
        j.transfer(&alice, &bob, U256::from(100u64)).unwrap();
        j.sstore(&alice, &U256::ONE, U256::from(7u64));
        j.log(Log { address: alice, topics: vec![], data: vec![1] });
        let (_, cold_before) = j.load_account(bob);
        assert!(cold_before);

        // Park the overlay, drop the reader borrow, re-attach.
        let (reader, parked) = j.suspend();
        let mut j = JournaledState::rehydrate(reader, parked);

        // Overlay values, logs, and warmth all survive the round trip.
        assert_eq!(j.balance(&alice), U256::from(900u64));
        assert_eq!(j.sload(&alice, &U256::ONE).value, U256::from(7u64));
        assert_eq!(j.logs().len(), 1);
        let (_, cold_after) = j.load_account(bob);
        assert!(!cold_after, "warm set lost across suspend");

        // An open frame checkpoint taken before suspension still
        // reverts correctly after rehydration.
        j.revert(outer);
        assert_eq!(j.balance(&alice), U256::from(1000u64));
        assert!(j.logs().is_empty());
    }

    #[test]
    fn code_hash_semantics() {
        let (backend, alice, _) = setup();
        let ghost = Address::from_low_u64(77);
        let mut j = JournaledState::new(&backend);
        // Existing EOA: empty code hash.
        assert_eq!(j.code_hash(&alice), crate::account::EMPTY_CODE_HASH);
        // Nonexistent account: zero (EXTCODEHASH rule).
        assert_eq!(j.code_hash(&ghost), B256::ZERO);
    }
}
