//! Regenerates **Figure 5**: execution time per operation (log scale) of
//! Geth, TSC-VEE, and HarDTAPE when all data is found locally (warm
//! caches, no ORAM): arithmetic ops, local storage accesses, and an
//! ERC-20 Transfer call.
//!
//! Expected shape (paper): no significant difference between the three
//! platforms, except Geth slower on Transfer (frame-setup overhead).

use tape_bench::{GethTimer, Verdict};
use tape_evm::{Env, Evm, Transaction};
use tape_hevm::{Hevm, HevmConfig};
use tape_primitives::{Address, U256};
use tape_sim::{Clock, CostModel};
use tape_state::{Account, InMemoryState};
use tape_workload::{contracts, microbench};

const ITERS: u64 = 2_000;

fn sender() -> Address {
    Address::from_low_u64(1)
}

fn state_with(code: Vec<u8>) -> (InMemoryState, Address) {
    let target = Address::from_low_u64(0xC0DE);
    let mut state = InMemoryState::new();
    state.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    state.put_account(target, Account::with_code(code));
    (state, target)
}

fn erc20_state() -> (InMemoryState, Address, Vec<u8>) {
    let token = Address::from_low_u64(0x70CE);
    let mut state = InMemoryState::new();
    state.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    let mut t = Account::with_code(contracts::erc20_runtime());
    t.storage
        .insert(contracts::balance_slot(&sender()), U256::from(u64::MAX));
    state.put_account(token, t);
    let calldata = contracts::encode_call(
        contracts::sel::transfer(),
        &[Address::from_low_u64(2).into_word(), U256::ONE],
    );
    (state, token, calldata)
}

/// A plain transfer used to measure and subtract the per-transaction
/// base cost (session handling, intrinsic processing), isolating the
/// per-operation time Fig. 5 reports.
fn baseline_tx(state: &InMemoryState) -> Transaction {
    let _ = state;
    Transaction::transfer(sender(), Address::from_low_u64(0xE0A), U256::ONE)
}

/// Runs `tx` twice on Geth (reference EVM + software cost model) and
/// returns the virtual time of the *second* (warm) run, minus the
/// plain-transfer baseline.
fn geth_time(state: &InMemoryState, tx: &Transaction) -> u64 {
    let clock = Clock::new();
    let timer = GethTimer::new(clock.clone(), CostModel::default());
    let mut evm = Evm::with_inspector(Env::default(), state, timer);
    let base = baseline_tx(state);
    evm.transact(&base).expect("baseline warmup");
    let b0 = clock.now();
    evm.transact(&base).expect("baseline");
    let base_ns = clock.now() - b0;
    evm.transact(tx).expect("warmup");
    let before = clock.now();
    evm.transact(tx).expect("measured run");
    (clock.now() - before).saturating_sub(base_ns)
}

/// Same on an HEVM; `local_fetch` distinguishes HarDTAPE (fetches from
/// untrusted memory on cold access) from TSC-VEE (everything prefetched
/// into secure memory).
fn hevm_time(state: &InMemoryState, tx: &Transaction, local_fetch: bool) -> u64 {
    let clock = Clock::new();
    let config = HevmConfig { charge_local_fetch: local_fetch, ..HevmConfig::default() };
    let mut hevm = Hevm::new(config, Env::default(), state, clock.clone());
    let base = baseline_tx(state);
    hevm.transact(&base).expect("baseline warmup");
    let b0 = clock.now();
    hevm.transact(&base).expect("baseline");
    let base_ns = clock.now() - b0;
    hevm.transact(tx).expect("warmup");
    let before = clock.now();
    hevm.transact(tx).expect("measured run");
    (clock.now() - before).saturating_sub(base_ns)
}

pub fn run() -> Verdict {
    println!("Fig. 5 — time per operation, all data local/warm (log scale in the paper)\n");
    println!("{:<12} {:>14} {:>14} {:>14}", "benchmark", "Geth", "TSC-VEE", "HarDTAPE");

    let mut rows = Vec::new();

    // Arithmetic: per ALU iteration (~6 ops each).
    {
        let (state, target) = state_with(microbench::arithmetic_loop(ITERS));
        let mut tx = Transaction::call(sender(), target, vec![]);
        tx.gas_limit = 10_000_000;
        let per = |total: u64| total as f64 / ITERS as f64;
        rows.push((
            "Arithmetic",
            per(geth_time(&state, &tx)),
            per(hevm_time(&state, &tx, false)),
            per(hevm_time(&state, &tx, true)),
        ));
    }

    // Storage: per warm SLOAD+SSTORE pair.
    {
        let (state, target) = state_with(microbench::storage_loop(ITERS));
        let mut tx = Transaction::call(sender(), target, vec![]);
        tx.gas_limit = 30_000_000;
        let per = |total: u64| total as f64 / ITERS as f64;
        rows.push((
            "Storage",
            per(geth_time(&state, &tx)),
            per(hevm_time(&state, &tx, false)),
            per(hevm_time(&state, &tx, true)),
        ));
    }

    // Transfer: one warm ERC-20 transfer call (per-tx overheads excluded:
    // we measure interpreter + state work only, so subtract the fixed
    // per-transaction base measured on an empty call).
    {
        let (state, token, calldata) = erc20_state();
        let mut tx = Transaction::call(sender(), token, calldata);
        tx.gas_limit = 300_000;
        rows.push((
            "Transfer",
            geth_time(&state, &tx) as f64,
            hevm_time(&state, &tx, false) as f64,
            hevm_time(&state, &tx, true) as f64,
        ));
    }

    for (name, geth, tsc, hardtape) in &rows {
        println!(
            "{:<12} {:>11.0} ns {:>11.0} ns {:>11.0} ns",
            name, geth, tsc, hardtape
        );
    }

    // Shape checks: parity within a small factor everywhere, except Geth
    // notably slower on Transfer (its per-call frame setup).
    let parity = |a: f64, b: f64| a / b < 8.0 && b / a < 8.0;
    let arithmetic_parity = parity(rows[0].1, rows[0].3) && parity(rows[0].2, rows[0].3);
    let storage_parity = parity(rows[1].1, rows[1].3) && parity(rows[1].2, rows[1].3);
    let transfer = &rows[2];
    // With per-tx base costs subtracted, Geth's per-frame software setup
    // shows: it is the slowest platform on Transfer (the paper's finding).
    let geth_slower_on_transfer = transfer.1 > transfer.2 && transfer.1 > transfer.3;

    Verdict::check(
        arithmetic_parity && storage_parity && geth_slower_on_transfer,
        "parity on local ops; Geth pays per-call overhead on Transfer",
    )
}
