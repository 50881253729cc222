//! # tape-node
//!
//! An Ethereum full-node simulator: the SP-controlled "Node" of the
//! paper's use case (§III-A). It maintains the canonical world state,
//! produces blocks by executing transactions through the reference EVM,
//! serves Merkle-proof-authenticated state deltas for ORAM
//! synchronization (paper step 11), and exposes a
//! `debug_traceTransaction`-style ground-truth API (§VI-B).
//!
//! The node is *untrusted* in the threat model: consumers must verify
//! the Merkle proofs it attaches against block state roots.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod feed;
pub mod feedset;
pub use feed::{
    backoff_ns, BlockFeed, BreakerState, CircuitBreaker, FeedError, RETRY_MAX_ATTEMPTS,
};
pub use feedset::{Equivocation, FeedSet, FeedStatus, PollReport, QuarantineReason};

use std::collections::BTreeSet;
use tape_crypto::keccak256;
use tape_evm::{Env, Evm, StructTracer, Transaction, TxResult};
use tape_mpt::SecureTrie;
use tape_primitives::{rlp, Address, B256};
use tape_state::{Account, InMemoryState};

/// A block header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number.
    pub number: u64,
    /// Parent block hash.
    pub parent_hash: B256,
    /// World-state root after executing the block.
    pub state_root: B256,
    /// Merkle root over the transaction list.
    pub tx_root: B256,
    /// Timestamp (12 s cadence, like mainnet).
    pub timestamp: u64,
    /// Total gas used by the block.
    pub gas_used: u64,
}

impl BlockHeader {
    /// The block hash: keccak over the RLP of the header fields.
    pub fn hash(&self) -> B256 {
        keccak256(rlp::encode_list(&[
            rlp::encode_u64(self.number),
            rlp::encode_b256(&self.parent_hash),
            rlp::encode_b256(&self.state_root),
            rlp::encode_b256(&self.tx_root),
            rlp::encode_u64(self.timestamp),
            rlp::encode_u64(self.gas_used),
        ]))
    }
}

/// A produced block: header, transactions, receipts.
#[derive(Debug, Clone)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Included transactions.
    pub transactions: Vec<Transaction>,
    /// Execution outcome of each transaction.
    pub receipts: Vec<Receipt>,
}

/// Minimal receipt: what the pre-execution service checks against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Transaction hash.
    pub tx_hash: B256,
    /// Whether execution succeeded.
    pub success: bool,
    /// Gas consumed.
    pub gas_used: u64,
}

/// One account of a state delta, with its Merkle proof.
#[derive(Debug, Clone)]
pub struct ProvenAccount {
    /// The account address.
    pub address: Address,
    /// The full account record (code and storage included).
    pub account: Account,
    /// Merkle proof of the account RLP under the block's state root.
    pub proof: Vec<Vec<u8>>,
}

/// An account deleted by the block (SELFDESTRUCT), with a Merkle proof
/// of *absence* under the post-block state root.
#[derive(Debug, Clone)]
pub struct DeletedAccount {
    /// The removed address.
    pub address: Address,
    /// Proof that the address is absent from the state trie.
    pub proof: Vec<Vec<u8>>,
}

/// The state delta of a block: every account touched, with proofs.
/// This is what the Hypervisor verifies before writing pages into the
/// ORAM (paper §IV-C).
#[derive(Debug, Clone)]
pub struct StateDelta {
    /// The block this delta belongs to.
    pub block_hash: B256,
    /// State root the proofs verify against.
    pub state_root: B256,
    /// The touched accounts.
    pub accounts: Vec<ProvenAccount>,
    /// Accounts the block deleted (absence-proven).
    pub deleted: Vec<DeletedAccount>,
}

/// Error verifying a [`ProvenAccount`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The Merkle proof did not verify against the state root.
    BadProof(Address),
    /// The proof verified but to a different account record — the node
    /// lied about the content.
    ContentMismatch(Address),
}

impl core::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeltaError::BadProof(a) => write!(f, "bad Merkle proof for {a}"),
            DeltaError::ContentMismatch(a) => write!(f, "account content mismatch for {a}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl StateDelta {
    /// Verifies every account (and every deletion) against the state
    /// root.
    ///
    /// # Errors
    ///
    /// [`DeltaError`] naming the first failing account.
    pub fn verify(&self) -> Result<(), DeltaError> {
        for entry in &self.accounts {
            let hashed_key = keccak256(entry.address.as_bytes());
            let value =
                tape_mpt::verify_proof(self.state_root, hashed_key.as_bytes(), &entry.proof)
                    .map_err(|_| DeltaError::BadProof(entry.address))?;
            match value {
                Some(rlp_bytes) if rlp_bytes == entry.account.rlp_encode() => {}
                _ => return Err(DeltaError::ContentMismatch(entry.address)),
            }
        }
        for entry in &self.deleted {
            let hashed_key = keccak256(entry.address.as_bytes());
            let value =
                tape_mpt::verify_proof(self.state_root, hashed_key.as_bytes(), &entry.proof)
                    .map_err(|_| DeltaError::BadProof(entry.address))?;
            // A deletion must prove *absence* under the root.
            if value.is_some() {
                return Err(DeltaError::ContentMismatch(entry.address));
            }
        }
        Ok(())
    }
}

/// Addresses touched and deleted by one produced block (parallel to
/// `Node::blocks`), retained so a delta can be rebuilt for *any* block —
/// the raw material for serving branch replays after a reorg.
#[derive(Debug, Clone, Default)]
struct TouchLog {
    touched: Vec<Address>,
    deleted: Vec<Address>,
}

/// The full-node simulator.
pub struct Node {
    state: InMemoryState,
    blocks: Vec<Block>,
    /// State snapshot *before* each block (for historical tracing).
    snapshots: Vec<InMemoryState>,
    /// Per-block touched/deleted addresses.
    history: Vec<TouchLog>,
    base_env: Env,
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("height", &self.height())
            .field("accounts", &self.state.len())
            .finish()
    }
}

impl Node {
    /// Creates a node from a genesis state.
    pub fn new(genesis: InMemoryState, base_env: Env) -> Self {
        Node {
            state: genesis,
            blocks: Vec::new(),
            snapshots: Vec::new(),
            history: Vec::new(),
            base_env,
        }
    }

    /// Current chain height (number of produced blocks).
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// The canonical state.
    pub fn state(&self) -> &InMemoryState {
        &self.state
    }

    /// Mutable genesis access before the first block (test setup).
    pub fn state_mut(&mut self) -> &mut InMemoryState {
        &mut self.state
    }

    /// A produced block by index.
    pub fn block(&self, index: usize) -> Option<&Block> {
        self.blocks.get(index)
    }

    /// The newest block.
    pub fn head(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Maps a block *number* to its index in this node's chain, if the
    /// node has produced it.
    pub fn block_index(&self, number: u64) -> Option<usize> {
        let index = number.checked_sub(self.base_env.block_number)?;
        let index = usize::try_from(index).ok()?;
        (index < self.blocks.len()).then_some(index)
    }

    /// Reorganizes the node's own chain: discards every block above
    /// `height` (keeping the first `height` blocks) and restores the
    /// world state as of that point. Returns `false` (and changes
    /// nothing) when `height` exceeds the current chain length.
    ///
    /// This is how the simulator models an upstream reorg: revert, then
    /// `produce_block` a competing branch.
    pub fn revert_to(&mut self, height: usize) -> bool {
        if height > self.blocks.len() {
            return false;
        }
        if height < self.blocks.len() {
            // snapshots[height] is the state *before* block `height`,
            // i.e. after the first `height` blocks.
            self.state = self.snapshots[height].clone();
            self.blocks.truncate(height);
            self.snapshots.truncate(height);
            self.history.truncate(height);
        }
        true
    }

    /// The environment a new block would execute under.
    fn next_env(&self) -> Env {
        let mut env = self.base_env.clone();
        env.block_number = self.base_env.block_number + self.blocks.len() as u64;
        env.timestamp = self.base_env.timestamp + 12 * self.blocks.len() as u64;
        env
    }

    /// Executes `transactions` into a new block, committing the results
    /// to the canonical state. Invalid transactions are skipped (recorded
    /// as failed receipts with zero gas).
    pub fn produce_block(&mut self, transactions: Vec<Transaction>) -> &Block {
        self.snapshots.push(self.state.clone());
        let env = self.next_env();

        let mut touched: BTreeSet<Address> = BTreeSet::new();
        let mut receipts = Vec::with_capacity(transactions.len());
        let mut gas_total = 0;
        {
            let mut evm = Evm::new(env.clone(), &self.state);
            for tx in &transactions {
                touched.insert(tx.from);
                if let Some(to) = tx.to {
                    touched.insert(to);
                }
                touched.insert(env.coinbase);
                match evm.transact(tx) {
                    Ok(result) => {
                        gas_total += result.gas_used;
                        if let Some(created) = result.created {
                            touched.insert(created);
                        }
                        receipts.push(Receipt {
                            tx_hash: tx.hash(),
                            success: result.success,
                            gas_used: result.gas_used,
                        });
                    }
                    Err(_) => receipts.push(Receipt {
                        tx_hash: tx.hash(),
                        success: false,
                        gas_used: 0,
                    }),
                }
            }
            // Materialize the overlay into the canonical state.
            let changes = evm.state().changes();
            let mut new_code = Vec::new();
            for addr in &changes.new_contracts {
                new_code.push((*addr, evm.state_mut().code(addr)));
            }
            for (addr, _, new_balance) in &changes.balances {
                touched.insert(*addr);
                self.state.account_mut(*addr).balance = *new_balance;
            }
            for (addr, _, new_nonce) in &changes.nonces {
                touched.insert(*addr);
                self.state.account_mut(*addr).nonce = *new_nonce;
            }
            for (addr, key, value) in &changes.storage {
                touched.insert(*addr);
                self.state.set_storage(*addr, *key, *value);
            }
            for (addr, code) in new_code {
                touched.insert(addr);
                self.state.account_mut(addr).code = code;
            }
            for addr in &changes.selfdestructs {
                touched.remove(addr);
                self.state.remove_account(addr);
            }
            self.history.push(TouchLog {
                touched: Vec::new(), // filled below once `touched` settles
                deleted: changes.selfdestructs.clone(),
            });
        }

        let state_root = self.state.state_root();
        let tx_root = {
            let mut trie = SecureTrie::new();
            for (i, tx) in transactions.iter().enumerate() {
                trie.insert(&(i as u64).to_be_bytes(), tx.hash().as_bytes());
            }
            trie.root_hash()
        };
        let parent_hash = self
            .blocks
            .last()
            .map(|b| b.header.hash())
            .unwrap_or(B256::ZERO);
        let header = BlockHeader {
            number: env.block_number,
            parent_hash,
            state_root,
            tx_root,
            timestamp: env.timestamp,
            gas_used: gas_total,
        };
        self.state.put_block_hash(header.number, header.hash());
        if let Some(log) = self.history.last_mut() {
            log.touched = touched.into_iter().collect();
        }
        self.blocks.push(Block { header, transactions, receipts });
        self.blocks.last().expect("just pushed")
    }

    /// Builds the proof-carrying state delta for the head block — what
    /// the node broadcasts for ORAM synchronization.
    ///
    /// The delta carries the *post-block* account records of every
    /// touched account, proven against the head state root.
    pub fn head_state_delta(&self) -> Option<StateDelta> {
        self.state_delta(self.blocks.len().checked_sub(1)?)
    }

    /// Builds the proof-carrying state delta for *any* produced block —
    /// what a feed serves when a consumer downloads a replacement branch
    /// block by block after a reorg.
    pub fn state_delta(&self, index: usize) -> Option<StateDelta> {
        let block = self.blocks.get(index)?;
        let log = self.history.get(index)?;
        // The state *after* block `index` is the snapshot taken before
        // `index + 1`, or the live state for the head block.
        let post_state = self.snapshots.get(index + 1).unwrap_or(&self.state);
        let trie = build_state_trie(post_state);
        let accounts = log
            .touched
            .iter()
            .filter_map(|addr| {
                let account = post_state.account_full(addr)?.clone();
                let proof = trie.prove(addr.as_bytes());
                Some(ProvenAccount { address: *addr, account, proof })
            })
            .collect();
        let deleted = log
            .deleted
            .iter()
            .map(|addr| DeletedAccount { address: *addr, proof: trie.prove(addr.as_bytes()) })
            .collect();
        Some(StateDelta {
            block_hash: block.header.hash(),
            state_root: block.header.state_root,
            accounts,
            deleted,
        })
    }

    /// The `debug_traceTransaction` ground-truth API (paper §VI-B):
    /// re-executes block `block_index` up to and including transaction
    /// `tx_index` on the pre-block snapshot, returning the final
    /// transaction's structured trace and result.
    pub fn debug_trace_transaction(
        &self,
        block_index: usize,
        tx_index: usize,
    ) -> Option<(StructTracer, TxResult)> {
        let block = self.blocks.get(block_index)?;
        let snapshot = self.snapshots.get(block_index)?;
        if tx_index >= block.transactions.len() {
            return None;
        }
        let mut env = self.base_env.clone();
        env.block_number = block.header.number;
        env.timestamp = block.header.timestamp;

        let mut evm = Evm::with_inspector(env, snapshot, StructTracer::new());
        let mut final_result = None;
        for (i, tx) in block.transactions.iter().take(tx_index + 1).enumerate() {
            if i == tx_index {
                evm.inspector_mut().clear();
            }
            final_result = evm.transact(tx).ok();
        }
        let result = final_result?;
        Some((evm.into_inspector(), result))
    }
}

/// Builds the secure state trie over `state` (non-empty accounts only).
fn build_state_trie(state: &InMemoryState) -> SecureTrie {
    let mut trie = SecureTrie::new();
    for (address, account) in state.iter() {
        if !account.is_empty() || !account.storage.is_empty() {
            trie.insert(address.as_bytes(), &account.rlp_encode());
        }
    }
    trie
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::asm::Asm;
    use tape_evm::opcode::op;
    use tape_primitives::U256;
    use tape_state::StateReader;

    fn genesis() -> (InMemoryState, Address, Address) {
        let mut state = InMemoryState::new();
        let alice = Address::from_low_u64(0xA11CE);
        let bob = Address::from_low_u64(0xB0B);
        state.put_account(alice, Account::with_balance(U256::from(u64::MAX)));
        state.put_account(bob, Account::with_balance(U256::from(1_000u64)));
        (state, alice, bob)
    }

    #[test]
    fn block_production_advances_state() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        let genesis_root = node.state().state_root();

        let tx = Transaction::transfer(alice, bob, U256::from(500u64));
        let block = node.produce_block(vec![tx]);
        assert_eq!(block.header.number, Env::default().block_number);
        assert!(block.receipts[0].success);
        assert_eq!(block.receipts[0].gas_used, 21_000);
        assert_ne!(block.header.state_root, genesis_root);
        assert_eq!(
            node.state().account(&bob).unwrap().balance,
            U256::from(1_500u64)
        );
        assert_eq!(node.state().account(&alice).unwrap().nonce, 1);
    }

    #[test]
    fn chain_links_by_parent_hash() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::ONE)]);
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::ONE)]);
        let b0 = node.block(0).unwrap().header.hash();
        assert_eq!(node.block(1).unwrap().header.parent_hash, b0);
        assert_eq!(node.block(0).unwrap().header.parent_hash, B256::ZERO);
        assert_eq!(node.height(), 2);
        assert_eq!(
            node.block(1).unwrap().header.timestamp,
            node.block(0).unwrap().header.timestamp + 12
        );
    }

    #[test]
    fn contract_deployment_persists() {
        let (state, alice, _) = genesis();
        let mut node = Node::new(state, Env::default());
        let runtime = Asm::new().push(7u64).ret_top().build();
        let tx = Transaction::create(alice, Asm::deploy_wrapper(&runtime));
        let block = node.produce_block(vec![tx]);
        assert!(block.receipts[0].success);
        let created = tape_evm::create_address(&alice, 0);
        assert_eq!(&node.state().code(&created)[..], &runtime[..]);

        let call = Transaction::call(alice, created, vec![]);
        let block = node.produce_block(vec![call]);
        assert!(block.receipts[0].success);
    }

    #[test]
    fn state_delta_verifies() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::from(42u64))]);
        let delta = node.head_state_delta().expect("head delta");
        assert!(delta.accounts.iter().any(|a| a.address == bob));
        delta.verify().expect("honest delta verifies");
    }

    #[test]
    fn forged_delta_rejected() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::from(42u64))]);

        // A6: the dishonest SP inflates bob's balance in the delta.
        let mut delta = node.head_state_delta().unwrap();
        let entry = delta.accounts.iter_mut().find(|a| a.address == bob).unwrap();
        entry.account.balance = U256::from(1_000_000_000u64);
        assert_eq!(delta.verify(), Err(DeltaError::ContentMismatch(bob)));

        // Or corrupts the proof itself.
        let mut delta = node.head_state_delta().unwrap();
        delta.accounts[0].proof[0][3] ^= 0xFF;
        assert!(delta.verify().is_err());
    }

    #[test]
    fn debug_trace_ground_truth() {
        let (mut state, alice, bob) = genesis();
        let contract = Address::from_low_u64(0xC0DE);
        state.put_account(
            contract,
            Account::with_code(Asm::new().push(2u64).push(3u64).op(op::ADD).ret_top().build()),
        );
        let mut node = Node::new(state, Env::default());
        node.produce_block(vec![
            Transaction::transfer(alice, bob, U256::ONE), // tx 0
            Transaction::call(alice, contract, vec![]),   // tx 1
        ]);

        // Tracing tx 1 replays tx 0 first for correct state, then traces.
        let (trace, result) = node.debug_trace_transaction(0, 1).unwrap();
        assert!(result.success);
        assert_eq!(U256::from_be_slice(&result.output), U256::from(5u64));
        let names: Vec<&str> = trace.steps().iter().map(|s| s.op_name).collect();
        assert!(names.starts_with(&["PUSH1", "PUSH1", "ADD"]));

        // Out-of-range queries return None.
        assert!(node.debug_trace_transaction(0, 2).is_none());
        assert!(node.debug_trace_transaction(5, 0).is_none());
    }

    #[test]
    fn invalid_transactions_get_failed_receipts() {
        let (state, _, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        let tx = Transaction::transfer(bob, Address::from_low_u64(7), U256::from(u64::MAX));
        let block = node.produce_block(vec![tx]);
        assert!(!block.receipts[0].success);
        assert_eq!(block.receipts[0].gas_used, 0);
    }

    #[test]
    fn blockhash_registered() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        let block = node.produce_block(vec![Transaction::transfer(alice, bob, U256::ONE)]);
        let number = block.header.number;
        let hash = block.header.hash();
        assert_eq!(node.state().block_hash(number), hash);
    }

    #[test]
    fn historical_state_delta_verifies() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        for value in [1u64, 2, 3] {
            node.produce_block(vec![Transaction::transfer(alice, bob, U256::from(value))]);
        }
        // Every block's delta must verify against its own state root.
        for index in 0..3 {
            let delta = node.state_delta(index).expect("produced block");
            assert_eq!(delta.block_hash, node.block(index).unwrap().header.hash());
            delta.verify().expect("historical delta verifies");
            let entry = delta.accounts.iter().find(|a| a.address == bob).unwrap();
            assert_eq!(
                entry.account.balance,
                U256::from(1_000u64 + (1..=index as u64 + 1).sum::<u64>())
            );
        }
        assert!(node.state_delta(3).is_none());
        let base = Env::default().block_number;
        assert_eq!(node.block_index(base + 1), Some(1));
        assert_eq!(node.block_index(base + 3), None);
        assert_eq!(node.block_index(base.wrapping_sub(1)), None);
    }

    #[test]
    fn revert_to_restores_state_and_rebuilds_branch() {
        let (state, alice, bob) = genesis();
        let mut node = Node::new(state, Env::default());
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::from(10u64))]);
        let b1 = node.block(0).unwrap().header.hash();
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::from(20u64))]);
        node.produce_block(vec![Transaction::transfer(alice, bob, U256::from(30u64))]);
        assert!(!node.revert_to(4), "cannot revert above the chain");

        assert!(node.revert_to(1));
        assert_eq!(node.height(), 1);
        assert_eq!(node.state().account(&bob).unwrap().balance, U256::from(1_010u64));
        assert_eq!(node.head().unwrap().header.hash(), b1);

        // The replacement branch links to the fork point and re-uses
        // the abandoned heights (same numbers, different content).
        let block = node.produce_block(vec![Transaction::transfer(
            alice,
            bob,
            U256::from(999u64),
        )]);
        assert_eq!(block.header.number, Env::default().block_number + 1);
        assert_eq!(block.header.parent_hash, b1);
        let delta = node.head_state_delta().expect("branch delta");
        delta.verify().expect("branch delta verifies");
        assert_eq!(node.state().account(&bob).unwrap().balance, U256::from(2_009u64));
    }
}
