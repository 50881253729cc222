//! The four workloads: inputs made from `--seed`, and the reference run.
//!
//! The program under test sees only what is generated here (genesis,
//! tenant seeds, transactions, proven blocks); the device seed is fixed.
//! Per workload the *count* of each transaction kind is fixed and kinds
//! are dealt evenly over the schedule ([`deal_evenly`]), so a seed changes
//! who transacts, amounts, tokens, block contents, tenant keys and loop
//! lengths — and with them every virtual time — while the amount of work
//! stays within about a percent.

use hardtape::SecurityConfig;
use tape_crypto::{keccak256, SecureRng};
use tape_evm::{Env, Evm, Transaction};
use tape_node::{BlockHeader, Node, StateDelta};
use tape_primitives::{Address, B256, U256};
use tape_state::{Account, InMemoryState};
use tape_workload::{contracts, EvalSet, EvalSetConfig};

/// ORAM tree height of every `-ESO`/`-full` device the benchmark boots.
pub const ORAM_HEIGHT: u32 = 10;

/// One benchmark workload (see `benchmark/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-I mix through the gateway on a `-full` in-memory-ORAM device.
    MainnetFullGw,
    /// Interpreter-bound bundles, direct `pre_execute` at `-ES`.
    ComputeEs,
    /// Short transfers through the gateway at `-ES`: fixed costs dominate.
    TransfersEsGw,
    /// Block sync + reads + warm restart on a disk-backed `-full` device.
    SyncDiskFull,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MainnetFullGw,
        Workload::ComputeEs,
        Workload::TransfersEsGw,
        Workload::SyncDiskFull,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MainnetFullGw => "mainnet_full_gw",
            Workload::ComputeEs => "compute_es",
            Workload::TransfersEsGw => "transfers_es_gw",
            Workload::SyncDiskFull => "sync_disk_full",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The security level the workload is measured at.
    pub fn level(self) -> SecurityConfig {
        match self {
            Workload::MainnetFullGw | Workload::SyncDiskFull => SecurityConfig::Full,
            Workload::ComputeEs | Workload::TransfersEsGw => SecurityConfig::Es,
        }
    }

    /// Whether the measured drive goes through `Gateway`.
    pub fn through_gateway(self) -> bool {
        matches!(self, Workload::MainnetFullGw | Workload::TransfersEsGw)
    }

    /// Whether the measured device keeps its ORAM in a `DiskStore`.
    pub fn on_disk(self) -> bool {
        self == Workload::SyncDiskFull
    }
}

/// One step of a workload's schedule.
pub enum Op {
    /// Bundle `j` belongs to tenant `j`. Through the gateway every tenant
    /// submits, then one `run_round` completes them all (closed loop, one
    /// outstanding bundle per tenant); driven directly they are
    /// `pre_execute`d in order.
    Round(Vec<Transaction>),
    /// One proven block for `sync_block`.
    Sync(Box<(BlockHeader, StateDelta)>),
    /// Stop the device and boot it again over the same store directory.
    Restart,
}

/// Everything one replica needs, regenerated identically from the seed.
pub struct Inputs {
    /// World state the device boots from.
    pub genesis: InMemoryState,
    /// Execution environment (fixed for the device's life).
    pub env: Env,
    /// One attestation seed per tenant.
    pub tenant_seeds: Vec<Vec<u8>>,
    /// The schedule.
    pub ops: Vec<Op>,
}

impl Inputs {
    /// Bundles in the schedule.
    pub fn bundles(&self) -> usize {
        self.ops
            .iter()
            .map(|op| {
                if let Op::Round(txs) = op {
                    txs.len()
                } else {
                    0
                }
            })
            .sum()
    }

    /// Operations one replica attempts: bundles, blocks and the restart.
    pub fn attempted(&self) -> usize {
        self.ops
            .iter()
            .map(|op| {
                if let Op::Round(txs) = op {
                    txs.len()
                } else {
                    1
                }
            })
            .sum()
    }

    /// Distinct contracts the schedule calls, in first-use order.
    pub fn callees(&self) -> Vec<Address> {
        let mut seen = Vec::new();
        for op in &self.ops {
            let Op::Round(txs) = op else { continue };
            for to in txs.iter().filter_map(|tx| tx.to) {
                let has_code = self
                    .genesis
                    .account_full(&to)
                    .is_some_and(|a| !a.code.is_empty());
                if has_code && !seen.contains(&to) {
                    seen.push(to);
                }
            }
        }
        seen
    }
}

/// What a bundle's single transaction must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Top-level frame succeeded.
    pub success: bool,
    /// Gas consumed.
    pub gas_used: u64,
    /// keccak-256 of the return data.
    pub output: B256,
}

impl Receipt {
    /// The receipt of an executed transaction.
    pub fn of(result: &tape_evm::TxResult) -> Receipt {
        Receipt {
            success: result.success,
            gas_used: result.gas_used,
            output: keccak256(&result.output),
        }
    }
}

/// Applies a verified delta the way the device's local mirror does.
pub fn apply_delta(state: &mut InMemoryState, delta: &StateDelta) {
    for entry in &delta.accounts {
        state.put_account(entry.address, entry.account.clone());
    }
    for entry in &delta.deleted {
        state.remove_account(&entry.address);
    }
}

/// Runs the schedule on the reference interpreter (`tape_evm::Evm`):
/// every bundle executes against the state as of the last synced block
/// and its changes are discarded, exactly the pre-execution contract.
/// `None` marks a transaction the reference itself refused.
pub fn reference(inputs: &Inputs) -> Vec<Option<Receipt>> {
    let mut state = inputs.genesis.clone();
    let mut out = Vec::with_capacity(inputs.bundles());
    for op in &inputs.ops {
        match op {
            Op::Round(txs) => {
                for tx in txs {
                    let result = Evm::new(inputs.env.clone(), &state).transact(tx);
                    out.push(result.ok().map(|r| Receipt::of(&r)));
                }
            }
            Op::Sync(block) => apply_delta(&mut state, &block.1),
            Op::Restart => {}
        }
    }
    out
}

/// Spreads `counts[k]` items of kind `k` as evenly as possible over
/// `Σ counts` positions and returns the kind at each position. At every
/// prefix each kind is within one item of its proportional share, so any
/// window of the schedule carries (nearly) the whole mix. The result
/// does not depend on the seed.
pub fn deal_evenly(counts: &[usize]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut placed = vec![0usize; counts.len()];
    (0..total)
        .map(|i| {
            // Largest deficit against the proportional share at i + 1,
            // scaled by `total` to stay in integers; ties go to the
            // lower kind.
            let kind = (0..counts.len())
                .filter(|&k| placed[k] < counts[k])
                .max_by_key(|&k| {
                    let deficit = (counts[k] * (i + 1)) as i64 - (placed[k] * total) as i64;
                    (deficit, std::cmp::Reverse(k))
                })
                .expect("a kind with items left while positions remain");
            placed[kind] += 1;
            kind
        })
        .collect()
}

fn tenant_seeds(workload: Workload, seed: u64, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("benchmark {} seed {seed} tenant {i}", workload.name()).into_bytes())
        .collect()
}

fn rounds_of(txs: Vec<Transaction>, per_round: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(txs.len().div_ceil(per_round));
    let mut txs = txs.into_iter().peekable();
    while txs.peek().is_some() {
        ops.push(Op::Round(txs.by_ref().take(per_round).collect()));
    }
    ops
}

fn word_call(from: Address, to: Address, gas_limit: u64, words: &[u64]) -> Transaction {
    let data = words
        .iter()
        .flat_map(|w| U256::from(*w).to_be_bytes())
        .collect();
    Transaction {
        gas_limit,
        ..Transaction::call(from, to, data)
    }
}

fn erc20_transfer(from: Address, token: Address, to: Address, amount: u64) -> Transaction {
    let data = contracts::encode_call(
        contracts::sel::transfer(),
        &[to.into_word(), U256::from(amount)],
    );
    Transaction {
        gas_limit: 300_000,
        ..Transaction::call(from, token, data)
    }
}

fn pick<T: Copy>(rng: &mut SecureRng, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize]
}

/// `n` draws from `lo..lo + span`, one from each of `n` equal strata, in
/// seed-shuffled order: every seed gets different values at different
/// positions, but their sum — the work — barely moves.
fn stratified(rng: &mut SecureRng, n: u64, lo: u64, span: u64) -> std::vec::IntoIter<u64> {
    let mut draws: Vec<u64> = (0..n)
        .map(|k| lo + (k * span + rng.next_below(span)) / n)
        .collect();
    for i in (1..draws.len()).rev() {
        draws.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    draws.into_iter()
}

/// The generator's twelve transaction kinds with their expected count
/// out of 200 (`EvalSet::sample_transaction`'s percentages × 2).
const MAINNET_KINDS: usize = 12;
const MAINNET_COUNTS: [usize; MAINNET_KINDS] = [40, 12, 12, 6, 8, 4, 2, 2, 2, 68, 32, 12];

/// Which of the generator's kinds a sampled transaction is.
fn mainnet_kind(set: &EvalSet, tx: &Transaction) -> usize {
    let to = tx.to.expect("the generator never deploys");
    if set.tokens.contains(&to) {
        let selector = u32::from_be_bytes([tx.data[0], tx.data[1], tx.data[2], tx.data[3]]);
        return match selector {
            s if s == contracts::sel::transfer() => 0,
            s if s == contracts::sel::balance_of() => 2,
            _ => 3, // approve
        };
    }
    let contracts = [
        set.settler,
        set.memhog,
        set.batcher,
        set.jumpsoup,
        set.storm,
        set.router,
        set.hopper,
        set.deep_hopper,
    ];
    match contracts.iter().position(|c| *c == to) {
        Some(i) => 4 + i,
        None => 1, // plain ETH transfer to a user
    }
}

fn mainnet_full_gw(seed: u64) -> Inputs {
    // Far more draws than needed, so that even the 1 % kinds fill their
    // quota; the first `MAINNET_COUNTS[k]` of each kind are used.
    let set = EvalSet::generate(&EvalSetConfig {
        blocks: 1,
        txs_per_block: 4000,
        users: 8,
        tokens: 8,
        seed,
    });
    let mut by_kind: Vec<std::collections::VecDeque<Transaction>> =
        vec![Default::default(); MAINNET_KINDS];
    for tx in set.all_transactions() {
        let kind = mainnet_kind(&set, tx);
        if by_kind[kind].len() < MAINNET_COUNTS[kind] {
            by_kind[kind].push_back(tx.clone());
        }
    }
    let txs = deal_evenly(&MAINNET_COUNTS)
        .into_iter()
        .map(|kind| {
            by_kind[kind]
                .pop_front()
                .expect("4000 draws fill every kind's quota")
        })
        .collect();
    Inputs {
        genesis: set.genesis,
        env: set.env,
        tenant_seeds: tenant_seeds(Workload::MainnetFullGw, seed, 4),
        ops: rounds_of(txs, 4),
    }
}

/// The contracts-only world (no sampled transactions) the hand-built
/// workloads draw their callees from.
fn bare_set(seed: u64, tokens: usize) -> EvalSet {
    EvalSet::generate(&EvalSetConfig {
        blocks: 0,
        txs_per_block: 0,
        users: 8,
        tokens,
        seed,
    })
}

fn compute_es(seed: u64) -> Inputs {
    let set = bare_set(seed, 1);
    let mut rng = SecureRng::from_seed(&seed.to_be_bytes());
    // ~26 gas per iteration: 15 000–15 900 iterations is ~0.4 M gas, and
    // the ±3 % draw is what makes virtual time differ between seeds.
    let counts = [120, 20, 30, 10, 20];
    let mut loops = stratified(&mut rng, counts[0], 15_000, 901);
    let mut sizes = stratified(&mut rng, counts[1], 1_024, 7 * 1024);
    let mut depths = stratified(&mut rng, counts[2], 5, 5);
    let mut soup_modes = stratified(&mut rng, counts[3], 0, 3);
    let mut storm_modes = stratified(&mut rng, counts[4], 0, 4);
    let next = |draws: &mut std::vec::IntoIter<u64>| draws.next().expect("one draw per bundle");
    let txs = deal_evenly(&counts.map(|c| c as usize))
        .into_iter()
        .map(|kind| {
            let from = pick(&mut rng, &set.users);
            match kind {
                0 => word_call(from, set.gasbomb, 1_000_000, &[next(&mut loops)]),
                1 => word_call(from, set.memhog, 2_000_000, &[next(&mut sizes)]),
                2 => word_call(from, set.deep_hopper, 3_000_000, &[next(&mut depths)]),
                3 => word_call(from, set.jumpsoup, 300_000, &[next(&mut soup_modes)]),
                _ => word_call(
                    from,
                    set.storm,
                    500_000,
                    &[next(&mut storm_modes), rng.next_below(1 << 40)],
                ),
            }
        })
        .collect();
    Inputs {
        genesis: set.genesis,
        env: set.env,
        tenant_seeds: tenant_seeds(Workload::ComputeEs, seed, 1),
        ops: rounds_of(txs, 1),
    }
}

fn transfers_es_gw(seed: u64) -> Inputs {
    let set = bare_set(seed, 4);
    let mut rng = SecureRng::from_seed(&seed.to_be_bytes());
    // Tokens take turns in a fixed order: which contract is first met
    // (and analysed) when would otherwise move the peak heap by several
    // percent from seed to seed.
    let mut tokens = set.tokens.iter().cycle();
    let txs = deal_evenly(&[240, 240])
        .into_iter()
        .map(|kind| {
            let (from, to) = (pick(&mut rng, &set.users), pick(&mut rng, &set.users));
            if kind == 0 {
                Transaction::transfer(from, to, U256::from(1 + rng.next_below(10_000)))
            } else {
                let token = *tokens.next().expect("a cycle never ends");
                erc20_transfer(from, token, to, 1 + rng.next_below(1_000))
            }
        })
        .collect();
    Inputs {
        genesis: set.genesis,
        env: set.env,
        tenant_seeds: tenant_seeds(Workload::TransfersEsGw, seed, 8),
        ops: rounds_of(txs, 8),
    }
}

/// Sync cycles, transactions per proven block and bundles per cycle.
const SYNC_CYCLES: usize = 20;
const SYNC_BUNDLES: [usize; 3] = [4, 3, 3]; // balanceOf, ERC-20 transfer, ETH transfer

fn sync_disk_full(seed: u64) -> Inputs {
    let users: Vec<Address> = (0..8).map(|i| Address::from_low_u64(0x1000 + i)).collect();
    let token = Address::from_low_u64(0x20_0000);
    let mut genesis = InMemoryState::new();
    for user in &users {
        genesis.put_account(
            *user,
            Account::with_balance(U256::from(10_000_000_000_000_000_000u64)),
        );
    }
    let mut account = Account::with_code(contracts::pad_code(contracts::erc20_runtime(), 3_500));
    account.storage.insert(U256::ZERO, U256::from(u64::MAX));
    for user in &users {
        account.storage.insert(
            contracts::balance_slot(user),
            U256::from(1_000_000_000_000u64),
        );
    }
    genesis.put_account(token, account);

    let env = Env::default();
    let mut rng = SecureRng::from_seed(&seed.to_be_bytes());
    let mut node = Node::new(genesis.clone(), env.clone());
    let mut ops = Vec::with_capacity(SYNC_CYCLES * 11 + 1);
    for _ in 0..SYNC_CYCLES {
        // Every user sends once per block — ETH and token transfers
        // alternating — so the delta touches all eight accounts and the
        // token's storage.
        let block = users
            .iter()
            .enumerate()
            .map(|(i, from)| {
                let to = pick(&mut rng, &users);
                if i % 2 == 0 {
                    Transaction::transfer(*from, to, U256::from(1 + rng.next_below(10_000)))
                } else {
                    erc20_transfer(*from, token, to, 1 + rng.next_below(1_000))
                }
            })
            .collect();
        let header = node.produce_block(block).header.clone();
        let delta = node.head_state_delta().expect("a block was just produced");
        ops.push(Op::Sync(Box::new((header, delta))));
        for kind in deal_evenly(&SYNC_BUNDLES) {
            let (from, other) = (pick(&mut rng, &users), pick(&mut rng, &users));
            let tx = match kind {
                0 => Transaction {
                    gas_limit: 100_000,
                    ..Transaction::call(
                        from,
                        token,
                        contracts::encode_call(contracts::sel::balance_of(), &[other.into_word()]),
                    )
                },
                1 => erc20_transfer(from, token, other, 1 + rng.next_below(1_000)),
                _ => Transaction::transfer(from, other, U256::from(1 + rng.next_below(10_000))),
            };
            ops.push(Op::Round(vec![tx]));
        }
    }
    ops.push(Op::Restart);
    Inputs {
        genesis,
        env,
        tenant_seeds: tenant_seeds(Workload::SyncDiskFull, seed, 1),
        ops,
    }
}

/// Appends the seed's memo — `4 × (seed mod 16)` bytes no callee reads —
/// to the calldata of every bundle. The virtual clock is deterministic
/// and coarse: who sends how much to whom leaves a transfer's virtual
/// time where it was, and a median over stratified draws lands on a
/// handful of values, so without this two seeds can read the very same
/// `virt_*`. The channel charges per byte, so the memo moves every
/// bundle's virtual time by a step that differs between any two of 16
/// consecutive seeds (and moves host work by well under a percent).
fn add_memo(inputs: &mut Inputs, seed: u64) {
    let memo = vec![0x5Eu8; 4 * (seed % 16) as usize];
    for op in &mut inputs.ops {
        let Op::Round(txs) = op else { continue };
        for tx in txs {
            tx.data.extend_from_slice(&memo);
            tx.gas_limit += 16 * memo.len() as u64; // intrinsic gas of non-zero calldata
        }
    }
}

/// Generates `workload`'s inputs from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut inputs = match workload {
        Workload::MainnetFullGw => mainnet_full_gw(seed),
        Workload::ComputeEs => compute_es(seed),
        Workload::TransfersEsGw => transfers_es_gw(seed),
        Workload::SyncDiskFull => sync_disk_full(seed),
    };
    add_memo(&mut inputs, seed);
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealing_keeps_counts_and_every_prefix_proportional() {
        let counts = MAINNET_COUNTS;
        let dealt = deal_evenly(&counts);
        let total: usize = counts.iter().sum();
        assert_eq!(dealt.len(), total);
        let mut placed = [0usize; MAINNET_KINDS];
        for (i, &kind) in dealt.iter().enumerate() {
            placed[kind] += 1;
            for k in 0..MAINNET_KINDS {
                let share = counts[k] as f64 * (i + 1) as f64 / total as f64;
                assert!((placed[k] as f64 - share).abs() < 1.5, "kind {k} at {i}");
            }
        }
        assert_eq!(placed, counts);
    }

    #[test]
    fn sizes_are_fixed_and_seeds_change_the_inputs() {
        for workload in Workload::ALL {
            let (a, b, c) = (
                generate(workload, 3),
                generate(workload, 3),
                generate(workload, 4),
            );
            assert!(
                a.bundles() >= 200,
                "{}: p95 needs 200 bundles",
                workload.name()
            );
            assert_eq!(a.attempted(), c.attempted());
            let hashes = |inputs: &Inputs| -> Vec<B256> {
                inputs
                    .ops
                    .iter()
                    .flat_map(|op| match op {
                        Op::Round(txs) => txs.iter().map(Transaction::hash).collect(),
                        Op::Sync(block) => vec![block.0.hash()],
                        Op::Restart => vec![],
                    })
                    .collect()
            };
            assert_eq!(hashes(&a), hashes(&b), "{}: same seed", workload.name());
            assert_ne!(hashes(&a), hashes(&c), "{}: other seed", workload.name());
            assert_ne!(a.tenant_seeds, c.tenant_seeds);
        }
    }

    #[test]
    fn mainnet_mix_is_exactly_the_expected_counts() {
        let inputs = generate(Workload::MainnetFullGw, 11);
        let set = bare_set(11, 8);
        let mut counts = [0usize; MAINNET_KINDS];
        for op in &inputs.ops {
            let Op::Round(txs) = op else {
                panic!("only rounds")
            };
            assert_eq!(txs.len(), 4);
            for tx in txs {
                counts[mainnet_kind(&set, tx)] += 1;
            }
        }
        assert_eq!(counts, MAINNET_COUNTS);
    }

    #[test]
    fn the_reference_accepts_every_transaction() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 5);
            let receipts = reference(&inputs);
            assert_eq!(receipts.len(), inputs.bundles());
            assert!(receipts
                .iter()
                .all(|r| r.as_ref().is_some_and(|r| r.success)));
        }
    }
}
