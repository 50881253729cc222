//! The synthetic evaluation set: a deterministic stand-in for Ethereum
//! Mainnet blocks #19145194–#19145293 (the paper's workload), calibrated
//! so its Table I marginals match the published distributions.
//!
//! See DESIGN.md for the substitution argument: the paper consumes its
//! evaluation set only through these statistics and the opcode mix, so a
//! generator matching the marginals exercises the same code paths.

use crate::contracts;
use tape_crypto::SecureRng;
use tape_evm::{Env, Transaction};
use tape_primitives::{Address, U256};
use tape_state::{Account, InMemoryState};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct EvalSetConfig {
    /// Number of blocks (paper: 100).
    pub blocks: usize,
    /// Transactions per block (mainnet: ~200).
    pub txs_per_block: usize,
    /// Number of user EOAs.
    pub users: usize,
    /// Number of ERC-20 tokens.
    pub tokens: usize,
    /// RNG seed (the evaluation set is fully deterministic).
    pub seed: u64,
}

impl Default for EvalSetConfig {
    fn default() -> Self {
        EvalSetConfig { blocks: 100, txs_per_block: 200, users: 64, tokens: 8, seed: 19_145_194 }
    }
}

impl EvalSetConfig {
    /// A small configuration for unit tests and quick runs.
    pub fn small() -> Self {
        EvalSetConfig { blocks: 4, txs_per_block: 25, users: 12, tokens: 4, seed: 7 }
    }
}

/// The generated evaluation set.
#[derive(Debug)]
pub struct EvalSet {
    /// Genesis world state (users funded, tokens seeded, approvals set).
    pub genesis: InMemoryState,
    /// Execution environment of the first block.
    pub env: Env,
    /// Transactions per block.
    pub blocks: Vec<Vec<Transaction>>,
    /// User EOAs.
    pub users: Vec<Address>,
    /// Token contracts.
    pub tokens: Vec<Address>,
    /// The swap router.
    pub router: Address,
    /// The deep self-caller used for shallow call chains (depth 2–5).
    pub hopper: Address,
    /// The deep self-caller used for deep call chains (depth 6–10);
    /// padded larger, calibrating the code-size column.
    pub deep_hopper: Address,
    /// The settlement contract writing 5–16 storage records per frame.
    pub settler: Address,
    /// The memory-stress contract.
    pub memhog: Address,
    /// The roll-up style batch writer.
    pub batcher: Address,
    /// The gas-bomb contract: a compute loop that burns a whole gas
    /// limit. Never drawn by [`sample_transaction`](EvalSet::generate).
    pub gasbomb: Address,
    /// Computed-jump soup: chained multi-way dispatches only the
    /// value-set analysis resolves precisely (constant storage keys —
    /// a fully static state plan).
    pub jumpsoup: Address,
    /// Dynamic-key storage storm: an irreducible computed jump plus
    /// calldata-scattered and storage-keyed accesses (a `dynamic`
    /// state plan).
    pub storm: Address,
}

/// Code sizes assigned to the token fleet, drawn to reproduce Table I's
/// code-size column (<1k: ~10%, 1–4k: ~25%, 4–12k: ~40%, 12–64k: ~25%).
const TOKEN_SIZES: [usize; 8] = [600, 2_500, 3_500, 8_000, 9_000, 10_000, 24_000, 30_000];

impl EvalSet {
    /// Generates the evaluation set deterministically from the config.
    pub fn generate(config: &EvalSetConfig) -> EvalSet {
        let mut rng = SecureRng::from_seed(&config.seed.to_be_bytes());
        let mut genesis = InMemoryState::new();

        let users: Vec<Address> =
            (0..config.users).map(|i| Address::from_low_u64(0x1000 + i as u64)).collect();
        let tokens: Vec<Address> =
            (0..config.tokens).map(|i| Address::from_low_u64(0x20_0000 + i as u64)).collect();
        let router = Address::from_low_u64(0x30_0000);
        let hopper = Address::from_low_u64(0x30_0001);
        let memhog = Address::from_low_u64(0x30_0002);
        let batcher = Address::from_low_u64(0x30_0003);
        let deep_hopper = Address::from_low_u64(0x30_0004);
        let settler = Address::from_low_u64(0x30_0005);
        let gasbomb = Address::from_low_u64(0x30_0006);
        let jumpsoup = Address::from_low_u64(0x30_0007);
        let storm = Address::from_low_u64(0x30_0008);

        let eth = U256::from(10_000_000_000_000_000_000u64); // 10 ETH
        for user in &users {
            genesis.put_account(*user, Account::with_balance(eth));
        }

        let token_funds = U256::from(1_000_000_000_000u64);
        let huge = U256::from(u64::MAX);
        for (i, token) in tokens.iter().enumerate() {
            let size = TOKEN_SIZES[i % TOKEN_SIZES.len()];
            let mut account =
                Account::with_code(contracts::pad_code(contracts::erc20_runtime(), size));
            account.storage.insert(U256::ZERO, huge); // totalSupply
            for user in &users {
                account
                    .storage
                    .insert(contracts::balance_slot(user), token_funds);
                account
                    .storage
                    .insert(contracts::allowance_slot(user, &router), huge);
            }
            // The router holds inventory of every token for payouts.
            account
                .storage
                .insert(contracts::balance_slot(&router), token_funds);
            genesis.put_account(*token, account);
        }

        let mut router_account =
            Account::with_code(contracts::pad_code(contracts::router_runtime(), 2_500));
        router_account.storage.insert(U256::ZERO, token_funds);
        router_account.storage.insert(U256::ONE, token_funds);
        genesis.put_account(router, router_account);
        genesis.put_account(
            hopper,
            Account::with_code(contracts::pad_code(contracts::hopper_runtime(), 8_000)),
        );
        genesis.put_account(
            deep_hopper,
            Account::with_code(contracts::pad_code(contracts::hopper_runtime(), 24_000)),
        );
        genesis.put_account(
            settler,
            Account::with_code(contracts::pad_code(contracts::batcher_runtime(), 2_500)),
        );
        genesis.put_account(memhog, Account::with_code(contracts::memhog_runtime()));
        genesis.put_account(batcher, Account::with_code(contracts::batcher_runtime()));
        genesis.put_account(gasbomb, Account::with_code(contracts::gasbomb_runtime()));
        genesis.put_account(
            jumpsoup,
            Account::with_code(contracts::pad_code(contracts::jumpsoup_runtime(), 2_500)),
        );
        genesis.put_account(storm, Account::with_code(contracts::storm_runtime()));

        let mut set = EvalSet {
            genesis,
            env: Env::default(),
            blocks: Vec::with_capacity(config.blocks),
            users,
            tokens,
            router,
            hopper,
            deep_hopper,
            settler,
            memhog,
            batcher,
            gasbomb,
            jumpsoup,
            storm,
        };
        for _ in 0..config.blocks {
            let block = (0..config.txs_per_block)
                .map(|_| set.sample_transaction(&mut rng))
                .collect();
            set.blocks.push(block);
        }
        set
    }

    /// Total transactions across all blocks.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// `true` when no transactions were generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattened view of every transaction.
    pub fn all_transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.blocks.iter().flatten()
    }

    fn pick_user(&self, rng: &mut SecureRng) -> Address {
        self.users[rng.next_below(self.users.len() as u64) as usize]
    }

    fn pick_token(&self, rng: &mut SecureRng) -> Address {
        self.tokens[rng.next_below(self.tokens.len() as u64) as usize]
    }

    /// Draws one transaction from the calibrated mix.
    fn sample_transaction(&self, rng: &mut SecureRng) -> Transaction {
        let from = self.pick_user(rng);
        let roll = rng.next_below(100);
        match roll {
            // 20%: direct ERC-20 transfer (depth 1, 2 storage records).
            0..=19 => {
                let to = self.pick_user(rng);
                let token = self.pick_token(rng);
                let amount = U256::from(1 + rng.next_below(1_000));
                Transaction {
                    gas_limit: 300_000,
                    ..Transaction::call(
                        from,
                        token,
                        contracts::encode_call(
                            contracts::sel::transfer(),
                            &[to.into_word(), amount],
                        ),
                    )
                }
            }
            // 6%: plain ETH transfer.
            20..=25 => {
                let to = self.pick_user(rng);
                Transaction::transfer(from, to, U256::from(1 + rng.next_below(10_000)))
            }
            // 6%: balanceOf queries (depth 1, read-only).
            26..=31 => {
                let who = self.pick_user(rng);
                let token = self.pick_token(rng);
                Transaction {
                    gas_limit: 100_000,
                    ..Transaction::call(
                        from,
                        token,
                        contracts::encode_call(
                            contracts::sel::balance_of(),
                            &[who.into_word()],
                        ),
                    )
                }
            }
            // 3%: approvals.
            32..=34 => {
                let spender = self.pick_user(rng);
                let token = self.pick_token(rng);
                Transaction {
                    gas_limit: 150_000,
                    ..Transaction::call(
                        from,
                        token,
                        contracts::encode_call(
                            contracts::sel::approve(),
                            &[spender.into_word(), U256::from(rng.next_below(1 << 30))],
                        ),
                    )
                }
            }
            // 4%: settlements writing 5-16 storage records.
            35..=38 => {
                let count = 5 + rng.next_below(12);
                let base = rng.next_below(1 << 40);
                let mut data = U256::from(count).to_be_bytes().to_vec();
                data.extend_from_slice(&U256::from(base).to_be_bytes());
                Transaction {
                    gas_limit: 2_000_000,
                    ..Transaction::call(from, self.settler, data)
                }
            }
            // 2%: memory stress (1-8 KB expansions).
            39..=40 => {
                let size = 1_024 + rng.next_below(7 * 1024);
                Transaction {
                    gas_limit: 2_000_000,
                    ..Transaction::call(
                        from,
                        self.memhog,
                        U256::from(size).to_be_bytes().to_vec(),
                    )
                }
            }
            // 1%: roll-up style batches (17-64 storage records).
            41 => {
                let count = 17 + rng.next_below(48);
                let base = rng.next_below(1 << 40);
                let mut data = U256::from(count).to_be_bytes().to_vec();
                data.extend_from_slice(&U256::from(base).to_be_bytes());
                Transaction {
                    gas_limit: 5_000_000,
                    ..Transaction::call(from, self.batcher, data)
                }
            }
            // 1%: computed-jump soup (the VSA precision driver).
            42 => {
                let mode = rng.next_below(3);
                Transaction {
                    gas_limit: 300_000,
                    ..Transaction::call(
                        from,
                        self.jumpsoup,
                        U256::from(mode).to_be_bytes().to_vec(),
                    )
                }
            }
            // 1%: dynamic-key storage storm (the state-plan stressor).
            43 => {
                let mode = rng.next_below(4);
                let base = rng.next_below(1 << 40);
                let mut data = U256::from(mode).to_be_bytes().to_vec();
                data.extend_from_slice(&U256::from(base).to_be_bytes());
                Transaction {
                    gas_limit: 500_000,
                    ..Transaction::call(from, self.storm, data)
                }
            }
            // 34%: router swap (depth 2; 6 pool records + token records).
            44..=77 => {
                let token_in = self.pick_token(rng);
                let mut token_out = self.pick_token(rng);
                if token_out == token_in {
                    token_out = self.tokens[(self
                        .tokens
                        .iter()
                        .position(|t| *t == token_in)
                        .expect("token from fleet")
                        + 1)
                        % self.tokens.len()];
                }
                let amount = U256::from(1 + rng.next_below(500));
                Transaction {
                    gas_limit: 600_000,
                    ..Transaction::call(
                        from,
                        self.router,
                        contracts::encode_call(
                            contracts::sel::swap(),
                            &[token_in.into_word(), token_out.into_word(), amount],
                        ),
                    )
                }
            }
            // 16%: shallow hops (depth 2-5).
            78..=93 => {
                let n = 1 + rng.next_below(4);
                Transaction {
                    gas_limit: 2_000_000,
                    ..Transaction::call(
                        from,
                        self.hopper,
                        U256::from(n).to_be_bytes().to_vec(),
                    )
                }
            }
            // 6%: deep hops (depth 6-10).
            _ => {
                let n = 5 + rng.next_below(5);
                Transaction {
                    gas_limit: 3_000_000,
                    ..Transaction::call(
                        from,
                        self.deep_hopper,
                        U256::from(n).to_be_bytes().to_vec(),
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::Evm;

    #[test]
    fn generation_is_deterministic() {
        let a = EvalSet::generate(&EvalSetConfig::small());
        let b = EvalSet::generate(&EvalSetConfig::small());
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.all_transactions().zip(b.all_transactions()) {
            assert_eq!(ta.hash(), tb.hash());
        }
        let c = EvalSet::generate(&EvalSetConfig { seed: 8, ..EvalSetConfig::small() });
        let differs = a
            .all_transactions()
            .zip(c.all_transactions())
            .any(|(x, y)| x.hash() != y.hash());
        assert!(differs);
    }

    #[test]
    fn configured_shape() {
        let config = EvalSetConfig::small();
        let set = EvalSet::generate(&config);
        assert_eq!(set.blocks.len(), config.blocks);
        assert_eq!(set.len(), config.blocks * config.txs_per_block);
        assert_eq!(set.users.len(), config.users);
        assert_eq!(set.tokens.len(), config.tokens);
    }

    #[test]
    fn every_transaction_executes_successfully() {
        let set = EvalSet::generate(&EvalSetConfig::small());
        let mut evm = Evm::new(set.env.clone(), &set.genesis);
        let mut failures = 0;
        for tx in set.all_transactions() {
            let result = evm.transact(tx).expect("valid tx");
            if !result.success {
                failures += 1;
            }
        }
        assert_eq!(failures, 0, "{failures} of {} txs failed", set.len());
    }

    #[test]
    fn mix_has_variety() {
        let set = EvalSet::generate(&EvalSetConfig::small());
        let to_router = set.all_transactions().filter(|t| t.to == Some(set.router)).count();
        let to_hopper = set.all_transactions().filter(|t| t.to == Some(set.hopper)).count();
        let to_tokens = set
            .all_transactions()
            .filter(|t| t.to.map(|to| set.tokens.contains(&to)).unwrap_or(false))
            .count();
        assert!(to_router > 0);
        assert!(to_hopper > 0);
        assert!(to_tokens > 0);
    }

    #[test]
    fn gas_bomb_burns_its_entire_limit() {
        let set = EvalSet::generate(&EvalSetConfig::small());
        // ~26 gas an iteration, requested at one iteration per 20 gas.
        let iterations = U256::from(2_000_000u64 / 20);
        let tx = Transaction {
            gas_limit: 2_000_000,
            ..Transaction::call(set.users[0], set.gasbomb, iterations.to_be_bytes().to_vec())
        };
        let mut evm = Evm::new(set.env.clone(), &set.genesis);
        let result = evm.transact(&tx).expect("well-formed tx");
        // The bomb overshoots: it halts out-of-gas with zero gas left,
        // having monopolized the core for the whole budget.
        assert!(!result.success);
        assert_eq!(result.gas_used, tx.gas_limit);
    }

    #[test]
    fn token_code_sizes_span_buckets() {
        let set = EvalSet::generate(&EvalSetConfig::small());
        use tape_state::StateReader;
        let sizes: Vec<usize> = set.tokens.iter().map(|t| set.genesis.code(t).len()).collect();
        assert!(sizes.iter().any(|&s| s < 1024));
        assert!(sizes.iter().any(|&s| s >= 1024));
    }
}
