//! Hand-assembled EVM contracts — the reproduction's stand-ins for the
//! Solidity contracts dominating the paper's evaluation set: an ERC-20
//! token, a router that swaps through two tokens (depth 2–3 calls), a
//! deep self-caller, a memory-stress contract, and a roll-up style batch
//! storage writer.
//!
//! Storage layouts follow Solidity conventions (mapping slots via
//! `keccak256(key . slot)`), so the ORAM's consecutive-key grouping sees
//! realistic key distributions.

use tape_crypto::keccak256;
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::Transaction;
use tape_primitives::{Address, U256};

/// First four bytes of `keccak256(signature)` as a `u32`.
pub fn selector(signature: &str) -> u32 {
    let digest = keccak256(signature.as_bytes());
    u32::from_be_bytes(digest.as_bytes()[..4].try_into().expect("4 bytes"))
}

/// ERC-20 function selectors.
pub mod sel {
    use super::selector;

    /// `transfer(address,uint256)`
    pub fn transfer() -> u32 {
        selector("transfer(address,uint256)")
    }
    /// `balanceOf(address)`
    pub fn balance_of() -> u32 {
        selector("balanceOf(address)")
    }
    /// `approve(address,uint256)`
    pub fn approve() -> u32 {
        selector("approve(address,uint256)")
    }
    /// `transferFrom(address,address,uint256)`
    pub fn transfer_from() -> u32 {
        selector("transferFrom(address,address,uint256)")
    }
    /// `totalSupply()`
    pub fn total_supply() -> u32 {
        selector("totalSupply()")
    }
    /// `swap(address,address,uint256)`
    pub fn swap() -> u32 {
        selector("swap(address,address,uint256)")
    }
}

/// Storage slot of `balances[holder]` (mapping at slot 1).
pub fn balance_slot(holder: &Address) -> U256 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&holder.into_word().to_be_bytes());
    buf[32..].copy_from_slice(&U256::ONE.to_be_bytes());
    keccak256(buf).into_u256()
}

/// Storage slot of `allowance[owner][spender]` (mapping at slot 2).
pub fn allowance_slot(owner: &Address, spender: &Address) -> U256 {
    let mut inner = [0u8; 64];
    inner[..32].copy_from_slice(&owner.into_word().to_be_bytes());
    inner[32..].copy_from_slice(&U256::from(2u64).to_be_bytes());
    let inner = keccak256(inner);
    let mut outer = [0u8; 64];
    outer[..32].copy_from_slice(&spender.into_word().to_be_bytes());
    outer[32..].copy_from_slice(inner.as_bytes());
    keccak256(outer).into_u256()
}

/// ABI-encodes a call with up to three word arguments.
pub fn encode_call(selector: u32, args: &[U256]) -> Vec<u8> {
    let mut data = selector.to_be_bytes().to_vec();
    for arg in args {
        data.extend_from_slice(&arg.to_be_bytes());
    }
    data
}

/// Appends unreachable filler so the runtime reaches `target_size` bytes
/// — calibrating frame *code sizes* to the Table I distribution without
/// changing behavior (real DeFi contracts are 1–64 KB; our hand-written
/// logic alone is a few hundred bytes).
pub fn pad_code(mut code: Vec<u8>, target_size: usize) -> Vec<u8> {
    while code.len() < target_size {
        code.push(op::JUMPDEST); // inert filler, never reached
    }
    code
}

/// Computes `keccak256(mem[96..160])` of `(word_at_96, word_at_128)` —
/// the mapping-slot idiom. Consumes `[key]`, leaves `[slot]`; the second
/// word must already be stored at 128.
fn hash_slot(asm: Asm) -> Asm {
    asm.push(96u64)
        .op(op::MSTORE)
        .push(64u64)
        .push(96u64)
        .op(op::KECCAK256)
}

/// Consumes `[holder]`, leaves `[balance_slot(holder)]`.
fn balance_slot_asm(asm: Asm) -> Asm {
    let asm = asm
        .push(1u64)
        .push(128u64)
        .op(op::MSTORE); // mapping index 1
    hash_slot(asm)
}

/// Builds the ERC-20 runtime bytecode.
///
/// Layout: slot 0 = totalSupply, slot 1 mapping = balances,
/// slot 2 mapping = allowances. Reverts on unknown selectors and on
/// insufficient balance/allowance. Emits `Transfer` logs.
pub fn erc20_runtime() -> Vec<u8> {
    let transfer_topic = keccak256(b"Transfer(address,address,uint256)").into_u256();

    let mut a = Asm::new()
        // selector = calldata[0] >> 224
        .push(0u64)
        .op(op::CALLDATALOAD)
        .push(224u64)
        .op(op::SHR)
        .op(op::DUP1)
        .push(sel::transfer() as u64)
        .op(op::EQ)
        .jumpi("transfer")
        .op(op::DUP1)
        .push(sel::balance_of() as u64)
        .op(op::EQ)
        .jumpi("balanceOf")
        .op(op::DUP1)
        .push(sel::approve() as u64)
        .op(op::EQ)
        .jumpi("approve")
        .op(op::DUP1)
        .push(sel::transfer_from() as u64)
        .op(op::EQ)
        .jumpi("transferFrom")
        .op(op::DUP1)
        .push(sel::total_supply() as u64)
        .op(op::EQ)
        .jumpi("totalSupply")
        .jump("reject");

    // --- transfer(address to, uint256 amount) ---
    a = a
        .label("transfer")
        .op(op::POP)
        .push(36u64)
        .op(op::CALLDATALOAD)
        .push(64u64)
        .op(op::MSTORE) // mem[64] = amount
        .op(op::CALLER);
    a = balance_slot_asm(a); // [fromSlot]
    a = a
        .op(op::DUP1)
        .op(op::SLOAD) // [fromSlot, fromBal]
        .op(op::DUP1)
        .push(64u64)
        .op(op::MLOAD)
        .op(op::GT) // amount > fromBal ?
        .jumpi("reject")
        .push(64u64)
        .op(op::MLOAD)
        .op(op::SWAP1)
        .op(op::SUB) // [fromSlot, fromBal - amount]
        .op(op::SWAP1)
        .op(op::SSTORE)
        .push(4u64)
        .op(op::CALLDATALOAD); // [to]
    a = balance_slot_asm(a); // [toSlot]
    a = a
        .op(op::DUP1)
        .op(op::SLOAD)
        .push(64u64)
        .op(op::MLOAD)
        .op(op::ADD)
        .op(op::SWAP1)
        .op(op::SSTORE)
        // LOG3 Transfer(caller, to, amount)
        .push(64u64)
        .op(op::MLOAD)
        .push(0u64)
        .op(op::MSTORE) // data = amount
        .push(4u64)
        .op(op::CALLDATALOAD) // topic3 = to
        .op(op::CALLER) // topic2 = from
        .push(transfer_topic) // topic1 = event sig
        .push(32u64)
        .push(0u64)
        .op(op::LOG3)
        .push(1u64)
        .ret_top();

    // --- balanceOf(address) ---
    a = a.label("balanceOf").op(op::POP).push(4u64).op(op::CALLDATALOAD);
    a = balance_slot_asm(a);
    a = a.op(op::SLOAD).ret_top();

    // --- approve(address spender, uint256 amount) ---
    a = a
        .label("approve")
        .op(op::POP)
        // inner = keccak(caller . 2)
        .op(op::CALLER)
        .push(96u64)
        .op(op::MSTORE)
        .push(2u64)
        .push(128u64)
        .op(op::MSTORE)
        .push(64u64)
        .push(96u64)
        .op(op::KECCAK256)
        .push(128u64)
        .op(op::MSTORE) // mem[128] = inner
        .push(4u64)
        .op(op::CALLDATALOAD)
        .push(96u64)
        .op(op::MSTORE) // mem[96] = spender
        .push(64u64)
        .push(96u64)
        .op(op::KECCAK256) // [slot]
        .push(36u64)
        .op(op::CALLDATALOAD) // [slot, amount]
        .op(op::SWAP1)
        .op(op::SSTORE)
        .push(1u64)
        .ret_top();

    // --- transferFrom(address from, address to, uint256 amount) ---
    a = a
        .label("transferFrom")
        .op(op::POP)
        .push(68u64)
        .op(op::CALLDATALOAD)
        .push(64u64)
        .op(op::MSTORE) // mem[64] = amount
        // allowance slot = keccak(caller . keccak(from . 2))
        .push(4u64)
        .op(op::CALLDATALOAD)
        .push(96u64)
        .op(op::MSTORE)
        .push(2u64)
        .push(128u64)
        .op(op::MSTORE)
        .push(64u64)
        .push(96u64)
        .op(op::KECCAK256)
        .push(128u64)
        .op(op::MSTORE)
        .op(op::CALLER)
        .push(96u64)
        .op(op::MSTORE)
        .push(64u64)
        .push(96u64)
        .op(op::KECCAK256) // [aSlot]
        .op(op::DUP1)
        .op(op::SLOAD) // [aSlot, allowance]
        .op(op::DUP1)
        .push(64u64)
        .op(op::MLOAD)
        .op(op::GT)
        .jumpi("reject")
        .push(64u64)
        .op(op::MLOAD)
        .op(op::SWAP1)
        .op(op::SUB)
        .op(op::SWAP1)
        .op(op::SSTORE)
        // from balance
        .push(4u64)
        .op(op::CALLDATALOAD);
    a = balance_slot_asm(a);
    a = a
        .op(op::DUP1)
        .op(op::SLOAD)
        .op(op::DUP1)
        .push(64u64)
        .op(op::MLOAD)
        .op(op::GT)
        .jumpi("reject")
        .push(64u64)
        .op(op::MLOAD)
        .op(op::SWAP1)
        .op(op::SUB)
        .op(op::SWAP1)
        .op(op::SSTORE)
        // to balance
        .push(36u64)
        .op(op::CALLDATALOAD);
    a = balance_slot_asm(a);
    a = a
        .op(op::DUP1)
        .op(op::SLOAD)
        .push(64u64)
        .op(op::MLOAD)
        .op(op::ADD)
        .op(op::SWAP1)
        .op(op::SSTORE)
        .push(1u64)
        .ret_top();

    // --- totalSupply() ---
    a = a
        .label("totalSupply")
        .op(op::POP)
        .push(0u64)
        .op(op::SLOAD)
        .ret_top();

    a = a.label("reject").push(0u64).push(0u64).op(op::REVERT);
    a.build()
}

/// Builds the router: `swap(tokenIn, tokenOut, amount)` pulls `amount`
/// of `tokenIn` via `transferFrom`, updates its two reserve slots, and
/// pays out `amount` of `tokenOut` via `transfer` — a 1:1 constant-sum
/// pool producing realistic depth-2 call trees.
pub fn router_runtime() -> Vec<u8> {
    let mut a = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .push(224u64)
        .op(op::SHR)
        .op(op::DUP1)
        .push(sel::swap() as u64)
        .op(op::EQ)
        .jumpi("swap")
        .jump("reject");

    a = a
        .label("swap")
        .op(op::POP)
        // Build transferFrom(caller, this, amount) at mem[200..].
        .push(sel::transfer_from() as u64)
        .push(224u64)
        .op(op::SHL)
        .push(200u64)
        .op(op::MSTORE)
        .op(op::CALLER)
        .push(204u64)
        .op(op::MSTORE)
        .op(op::ADDRESS)
        .push(236u64)
        .op(op::MSTORE)
        .push(68u64)
        .op(op::CALLDATALOAD)
        .push(268u64)
        .op(op::MSTORE)
        .push(32u64) // ret len
        .push(0u64) // ret offset
        .push(100u64) // args len
        .push(200u64) // args offset
        .push(0u64) // value
        .push(4u64)
        .op(op::CALLDATALOAD) // tokenIn
        .op(op::GAS)
        .op(op::CALL)
        .op(op::ISZERO)
        .jumpi("reject")
        // Pool bookkeeping: reserves (slots 0/1), cumulative volume,
        // price accumulators, and a k-checkpoint (slots 2-5) — six
        // storage records per swap frame, like real AMM pools.
        .push(0u64)
        .op(op::SLOAD)
        .push(68u64)
        .op(op::CALLDATALOAD)
        .op(op::ADD)
        .push(0u64)
        .op(op::SSTORE)
        .push(1u64)
        .op(op::SLOAD)
        .push(68u64)
        .op(op::CALLDATALOAD)
        .op(op::SWAP1)
        .op(op::SUB)
        .push(1u64)
        .op(op::SSTORE)
        .push(2u64)
        .op(op::SLOAD)
        .push(68u64)
        .op(op::CALLDATALOAD)
        .op(op::ADD)
        .push(2u64)
        .op(op::SSTORE)
        .push(3u64)
        .op(op::SLOAD)
        .push(1u64)
        .op(op::ADD)
        .push(3u64)
        .op(op::SSTORE)
        .push(0u64)
        .op(op::SLOAD)
        .push(4u64)
        .op(op::SSTORE)
        .push(1u64)
        .op(op::SLOAD)
        .push(5u64)
        .op(op::SSTORE)
        // Build transfer(caller, amount) at mem[200..].
        .push(sel::transfer() as u64)
        .push(224u64)
        .op(op::SHL)
        .push(200u64)
        .op(op::MSTORE)
        .op(op::CALLER)
        .push(204u64)
        .op(op::MSTORE)
        .push(68u64)
        .op(op::CALLDATALOAD)
        .push(236u64)
        .op(op::MSTORE)
        .push(32u64)
        .push(0u64)
        .push(68u64)
        .push(200u64)
        .push(0u64)
        .push(36u64)
        .op(op::CALLDATALOAD) // tokenOut
        .op(op::GAS)
        .op(op::CALL)
        .op(op::ISZERO)
        .jumpi("reject")
        .push(1u64)
        .ret_top();

    a = a.label("reject").push(0u64).push(0u64).op(op::REVERT);
    a.build()
}

/// A contract that self-calls `n` times (calldata word 0 = n), producing
/// call depth `n + 1` — the Table I depth-distribution driver.
pub fn hopper_runtime() -> Vec<u8> {
    Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD) // [n]
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("base")
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB) // [n-1]
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64) // ret len
        .push(0u64) // ret offset
        .push(32u64) // args len
        .push(0u64) // args offset
        .push(0u64) // value
        .op(op::ADDRESS)
        .op(op::GAS)
        .op(op::CALL)
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .label("base")
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build()
}

/// A contract that expands Memory to `calldata[0]` bytes and hashes it —
/// the memory-size distribution driver.
pub fn memhog_runtime() -> Vec<u8> {
    Asm::new()
        .push(0xFFu64) // value for MSTORE8
        .push(0u64)
        .op(op::CALLDATALOAD) // offset = n
        .op(op::MSTORE8)
        .op(op::MSIZE)
        .push(0u64)
        .op(op::KECCAK256)
        .ret_top()
        .build()
}

/// A gas bomb: spins a tight compute loop for `calldata[0]` iterations
/// (~26 gas each), then returns 1. Calibrated with more iterations than
/// the gas limit covers, it is a *well-formed* transaction that burns
/// its entire budget and monopolizes an HEVM core unless execution is
/// sliced.
pub fn gasbomb_runtime() -> Vec<u8> {
    Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD) // [n]
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("done")
        .label("loop")
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .op(op::DUP1)
        .jumpi("loop")
        .label("done")
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build()
}

/// Where the preemption tests, soaks and `repro pre-execute` deploy
/// [`gasbomb_runtime`].
pub fn gasbomb_address() -> Address {
    Address::from_low_u64(0x6A5B)
}

/// A call from `from` to the gas bomb at [`gasbomb_address`] asking for
/// `gas_limit / 20` iterations: more than the limit covers, so the
/// transaction burns all of it.
pub fn gasbomb_tx(from: Address, gas_limit: u64) -> Transaction {
    let data = U256::from(gas_limit / 20).to_be_bytes().to_vec();
    Transaction {
        gas_limit,
        ..Transaction::call(from, gasbomb_address(), data)
    }
}

/// A roll-up style batcher: writes `calldata[0]` storage slots starting
/// at base `calldata[32]` — the storage-keys-per-frame tail driver.
pub fn batcher_runtime() -> Vec<u8> {
    Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD) // [count]
        .label("loop")
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("done")
        .op(op::DUP1)
        .push(32u64)
        .op(op::CALLDATALOAD)
        .op(op::ADD) // [count, base+count]
        .op(op::DUP2) // [count, slot, count]
        .op(op::SWAP1) // [count, count, slot]
        .op(op::SSTORE)
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .jump("loop")
        .label("done")
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build()
}

/// Computed-jump soup — the value-set analysis's adversarial workout.
/// Three chained multi-way dispatches where every continuation is pushed
/// as a constant on a different predecessor and consumed by one shared
/// `JUMP`: single-constant propagation degrades both to the full
/// `JUMPDEST` cover, while the VSA lattice resolves each to its exact
/// three-target edge set. All storage keys are constants (slots 1–3 and
/// 40–42), so the contract also carries a fully static state plan —
/// the kv plan-coverage ablation's natural target.
///
/// `calldata[0]` picks the arm (0, 1, anything else).
pub fn jumpsoup_runtime() -> Vec<u8> {
    let mut a = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD) // [mode]
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("pick0")
        .op(op::DUP1)
        .push(1u64)
        .op(op::EQ)
        .jumpi("pick1")
        .push_label("work2")
        .jump("go1")
        .label("pick0")
        .push_label("work0")
        .jump("go1")
        .label("pick1")
        .push_label("work1")
        .jump("go1")
        .label("go1") // [mode, continuation]
        .op(op::JUMP); // computed: {work0, work1, work2}

    // Each arm bumps one constant-slot counter, then joins on a second
    // computed dispatch.
    let work = |a: Asm, here: &'static str, slot: u64, cont: &'static str| {
        a.label(here)
            .push(slot)
            .op(op::SLOAD)
            .push(1u64)
            .op(op::ADD)
            .push(slot)
            .op(op::SSTORE)
            .push_label(cont)
            .jump("go2")
    };
    a = work(a, "work0", 1, "end0");
    a = work(a, "work1", 2, "end1");
    a = work(a, "work2", 3, "end2");
    a = a
        .label("go2") // [mode, continuation]
        .op(op::JUMP); // computed: {end0, end1, end2}

    let end = |a: Asm, here: &'static str, slot: u64, cont: &'static str| {
        a.label(here)
            .push(slot)
            .op(op::SLOAD)
            .push(1u64)
            .op(op::ADD)
            .push(slot)
            .op(op::SSTORE)
            .push_label(cont)
            .jump("go3")
    };
    a = end(a, "end0", 40, "fin0");
    a = end(a, "end1", 41, "fin1");
    a = end(a, "end2", 42, "fin2");
    a = a
        .label("go3") // [mode, continuation]
        .op(op::JUMP) // computed: {fin0, fin1, fin2}
        .label("fin0")
        .jump("done")
        .label("fin1")
        .jump("done")
        .label("fin2")
        .jump("done");
    a.label("done") // [mode]
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build()
}

/// Dynamic-key storage storm — the state plan's adversarial workout.
/// One genuinely dynamic computed jump (`target = even + bit*(odd -
/// even)`, with `bit` from calldata, irreducible under the VSA lattice)
/// plus storage keys the plan cannot enumerate: calldata-scattered
/// `SSTORE`s (calldata-affine) and an `SLOAD` keyed by storage itself
/// (dynamic). Its plan must come out `dynamic`, exempting — and
/// documenting — its kv traffic.
///
/// `calldata[0]` (low bit) picks the arm; `calldata[32]` scatters keys.
pub fn storm_runtime() -> Vec<u8> {
    let mut a = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .push(1u64)
        .op(op::AND) // [bit]
        .push_label("odd")
        .push_label("even") // [bit, ODD, EVEN]
        .op(op::DUP1)
        .op(op::SWAP2) // [bit, EVEN, EVEN, ODD]
        .op(op::SUB) // [bit, EVEN, ODD-EVEN]
        .op(op::SWAP1) // [bit, ODD-EVEN, EVEN]
        .op(op::SWAP2) // [EVEN, ODD-EVEN, bit]
        .op(op::MUL) // [EVEN, bit*(ODD-EVEN)]
        .op(op::ADD) // [EVEN + bit*(ODD-EVEN)]
        .op(op::JUMP); // dynamic: both targets valid, set irreducible

    // even: three writes scattered from calldata[32].
    a = a
        .label("even")
        .push(32u64)
        .op(op::CALLDATALOAD); // [base]
    for _ in 0..3 {
        a = a
            .op(op::DUP1)
            .push(1u64)
            .op(op::SWAP1)
            .op(op::SSTORE) // storage[base] = 1
            .push(1u64)
            .op(op::ADD); // base += 1
    }
    a = a.op(op::POP).jump("fin");

    // odd: a storage-keyed read (doubly indirect) and one scattered
    // write.
    a = a
        .label("odd")
        .push(0u64)
        .op(op::SLOAD) // [storage[0]]
        .op(op::SLOAD) // [storage[storage[0]]] — unenumerable key
        .op(op::POP)
        .push(7u64)
        .push(32u64)
        .op(op::CALLDATALOAD)
        .op(op::SSTORE) // storage[base] = 7
        .jump("fin");

    a.label("fin").push(1u64).ret_top().build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::{Env, Evm, Transaction};
    use tape_state::{Account, InMemoryState, StateReader};

    fn alice() -> Address {
        Address::from_low_u64(0xA11CE)
    }

    fn bob() -> Address {
        Address::from_low_u64(0xB0B)
    }

    fn token() -> Address {
        Address::from_low_u64(0x70CE)
    }

    fn setup_token() -> InMemoryState {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        state.put_account(bob(), Account::with_balance(U256::from(u64::MAX)));
        let mut t = Account::with_code(erc20_runtime());
        t.storage.insert(U256::ZERO, U256::from(1_000_000u64)); // totalSupply
        t.storage.insert(balance_slot(&alice()), U256::from(1_000u64));
        state.put_account(token(), t);
        state
    }

    fn call_ok(evm: &mut Evm<&InMemoryState>, from: Address, to: Address, data: Vec<u8>) -> Vec<u8> {
        let result = evm.transact(&Transaction::call(from, to, data)).unwrap();
        assert!(result.success, "call failed: {:?}", result.halt);
        result.output
    }

    #[test]
    fn selector_values() {
        // The canonical ERC-20 selector everyone knows by heart.
        assert_eq!(sel::transfer(), 0xa9059cbb);
        assert_eq!(sel::balance_of(), 0x70a08231);
        assert_eq!(sel::approve(), 0x095ea7b3);
        assert_eq!(sel::transfer_from(), 0x23b872dd);
        assert_eq!(sel::total_supply(), 0x18160ddd);
    }

    #[test]
    fn erc20_transfer_and_balance() {
        let state = setup_token();
        let mut evm = Evm::new(Env::default(), &state);

        let out = call_ok(
            &mut evm,
            alice(),
            token(),
            encode_call(sel::transfer(), &[bob().into_word(), U256::from(300u64)]),
        );
        assert_eq!(U256::from_be_slice(&out), U256::ONE);

        let out = call_ok(
            &mut evm,
            alice(),
            token(),
            encode_call(sel::balance_of(), &[alice().into_word()]),
        );
        assert_eq!(U256::from_be_slice(&out), U256::from(700u64));
        let out = call_ok(
            &mut evm,
            alice(),
            token(),
            encode_call(sel::balance_of(), &[bob().into_word()]),
        );
        assert_eq!(U256::from_be_slice(&out), U256::from(300u64));
    }

    #[test]
    fn erc20_insufficient_balance_reverts() {
        let state = setup_token();
        let mut evm = Evm::new(Env::default(), &state);
        let result = evm
            .transact(&Transaction::call(
                bob(),
                token(),
                encode_call(sel::transfer(), &[alice().into_word(), U256::from(1u64)]),
            ))
            .unwrap();
        assert!(!result.success);
    }

    #[test]
    fn erc20_transfer_emits_log() {
        let state = setup_token();
        let mut evm = Evm::new(Env::default(), &state);
        let result = evm
            .transact(&Transaction::call(
                alice(),
                token(),
                encode_call(sel::transfer(), &[bob().into_word(), U256::from(5u64)]),
            ))
            .unwrap();
        assert!(result.success);
        assert_eq!(result.logs.len(), 1);
        let log = &result.logs[0];
        assert_eq!(log.topics.len(), 3);
        assert_eq!(
            log.topics[0],
            keccak256(b"Transfer(address,address,uint256)")
        );
        assert_eq!(U256::from_be_slice(&log.data), U256::from(5u64));
    }

    #[test]
    fn erc20_approve_and_transfer_from() {
        let state = setup_token();
        let mut evm = Evm::new(Env::default(), &state);

        // alice approves bob for 100.
        call_ok(
            &mut evm,
            alice(),
            token(),
            encode_call(sel::approve(), &[bob().into_word(), U256::from(100u64)]),
        );
        // bob pulls 60 from alice to himself.
        call_ok(
            &mut evm,
            bob(),
            token(),
            encode_call(
                sel::transfer_from(),
                &[alice().into_word(), bob().into_word(), U256::from(60u64)],
            ),
        );
        let out = call_ok(
            &mut evm,
            bob(),
            token(),
            encode_call(sel::balance_of(), &[bob().into_word()]),
        );
        assert_eq!(U256::from_be_slice(&out), U256::from(60u64));

        // Pulling beyond the remaining allowance (40) reverts.
        let result = evm
            .transact(&Transaction::call(
                bob(),
                token(),
                encode_call(
                    sel::transfer_from(),
                    &[alice().into_word(), bob().into_word(), U256::from(50u64)],
                ),
            ))
            .unwrap();
        assert!(!result.success);
    }

    #[test]
    fn erc20_total_supply_and_unknown_selector() {
        let state = setup_token();
        let mut evm = Evm::new(Env::default(), &state);
        let out = call_ok(&mut evm, alice(), token(), encode_call(sel::total_supply(), &[]));
        assert_eq!(U256::from_be_slice(&out), U256::from(1_000_000u64));

        let result = evm
            .transact(&Transaction::call(alice(), token(), vec![0xde, 0xad, 0xbe, 0xef]))
            .unwrap();
        assert!(!result.success);
    }

    #[test]
    fn router_swap_moves_tokens() {
        let mut state = setup_token();
        let token_b = Address::from_low_u64(0x70CF);
        let router = Address::from_low_u64(0xDE);

        let mut tb = Account::with_code(erc20_runtime());
        tb.storage.insert(balance_slot(&router), U256::from(10_000u64));
        state.put_account(token_b, tb);
        let mut r = Account::with_code(router_runtime());
        r.storage.insert(U256::ZERO, U256::from(50_000u64));
        r.storage.insert(U256::ONE, U256::from(50_000u64));
        state.put_account(router, r);

        let mut evm = Evm::new(Env::default(), &state);
        // alice approves the router on token A, then swaps 200 A -> B.
        call_ok(
            &mut evm,
            alice(),
            token(),
            encode_call(sel::approve(), &[router.into_word(), U256::from(500u64)]),
        );
        call_ok(
            &mut evm,
            alice(),
            router,
            encode_call(
                sel::swap(),
                &[token().into_word(), token_b.into_word(), U256::from(200u64)],
            ),
        );

        // alice: 800 A, 200 B. Router: 200 A. Reserves adjusted.
        let bal = |evm: &mut Evm<&InMemoryState>, t: Address, who: Address| {
            let out = call_ok(evm, alice(), t, encode_call(sel::balance_of(), &[who.into_word()]));
            U256::from_be_slice(&out)
        };
        assert_eq!(bal(&mut evm, token(), alice()), U256::from(800u64));
        assert_eq!(bal(&mut evm, token(), router), U256::from(200u64));
        assert_eq!(bal(&mut evm, token_b, alice()), U256::from(200u64));
        assert_eq!(
            evm.state_mut().sload(&router, &U256::ZERO).value,
            U256::from(50_200u64)
        );
        assert_eq!(
            evm.state_mut().sload(&router, &U256::ONE).value,
            U256::from(49_800u64)
        );
    }

    #[test]
    fn router_swap_without_approval_reverts() {
        let mut state = setup_token();
        let router = Address::from_low_u64(0xDE);
        state.put_account(router, Account::with_code(router_runtime()));
        let mut evm = Evm::new(Env::default(), &state);
        let result = evm
            .transact(&Transaction::call(
                alice(),
                router,
                encode_call(
                    sel::swap(),
                    &[token().into_word(), token().into_word(), U256::from(5u64)],
                ),
            ))
            .unwrap();
        assert!(!result.success);
    }

    #[test]
    fn hopper_reaches_requested_depth() {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        let hopper = Address::from_low_u64(0x40B);
        state.put_account(hopper, Account::with_code(hopper_runtime()));

        let mut evm = tape_evm::Evm::with_inspector(
            Env::default(),
            &state,
            tape_evm::StructTracer::without_stack(),
        );
        let mut tx = Transaction::call(alice(), hopper, U256::from(4u64).to_be_bytes().to_vec());
        tx.gas_limit = 3_000_000;
        let result = evm.transact(&tx).unwrap();
        assert!(result.success);
        let max_depth = evm.inspector().calls().iter().map(|c| c.depth).max().unwrap();
        assert_eq!(max_depth, 5); // n = 4 -> depth 5
    }

    #[test]
    fn memhog_expands_memory() {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        let hog = Address::from_low_u64(0x406);
        state.put_account(hog, Account::with_code(memhog_runtime()));

        let mut evm = Evm::new(Env::default(), &state);
        let mut tx =
            Transaction::call(alice(), hog, U256::from(3000u64).to_be_bytes().to_vec());
        tx.gas_limit = 3_000_000;
        let result = evm.transact(&tx).unwrap();
        assert!(result.success, "halt: {:?}", result.halt);
    }

    #[test]
    fn batcher_writes_n_slots() {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        let batcher = Address::from_low_u64(0xBA7);
        state.put_account(batcher, Account::with_code(batcher_runtime()));

        let mut evm = Evm::new(Env::default(), &state);
        let mut data = U256::from(10u64).to_be_bytes().to_vec(); // count
        data.extend_from_slice(&U256::from(1000u64).to_be_bytes()); // base
        let mut tx = Transaction::call(alice(), batcher, data);
        tx.gas_limit = 5_000_000;
        let result = evm.transact(&tx).unwrap();
        assert!(result.success);
        assert_eq!(evm.state().changes().storage.len(), 10);
        assert_eq!(
            evm.state_mut().sload(&batcher, &U256::from(1001u64)).value,
            U256::ONE
        );
        assert_eq!(
            evm.state_mut().sload(&batcher, &U256::from(1010u64)).value,
            U256::from(10u64)
        );
    }

    #[test]
    fn jumpsoup_executes_every_arm_and_resolves_statically() {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        let soup = Address::from_low_u64(0x50F);
        state.put_account(soup, Account::with_code(jumpsoup_runtime()));
        let mut evm = Evm::new(Env::default(), &state);
        for mode in 0..4u64 {
            let mut tx =
                Transaction::call(alice(), soup, U256::from(mode).to_be_bytes().to_vec());
            tx.gas_limit = 300_000;
            let result = evm.transact(&tx).unwrap();
            assert!(result.success, "mode {mode} failed: {:?}", result.halt);
        }
        // Every chained dispatch resolves to its exact three-target
        // edge set; nothing degrades to the all-JUMPDEST cover, and
        // all storage keys are enumerable — the plan is fully static.
        let analysis = tape_analysis::analyze(&jumpsoup_runtime());
        assert_eq!(analysis.unresolved_jumps, 0);
        assert_eq!(analysis.vsa_resolved_jumps, 3);
        assert!(!analysis.state_plan.dynamic);
        let slots: Vec<u64> =
            analysis.state_plan.slots.iter().map(|s| s.low_u64()).collect();
        assert_eq!(slots, vec![1, 2, 3, 40, 41, 42]);
    }

    #[test]
    fn storm_executes_both_arms_and_defeats_the_plan() {
        let mut state = InMemoryState::new();
        state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
        let storm = Address::from_low_u64(0x5702);
        state.put_account(storm, Account::with_code(storm_runtime()));
        let mut evm = Evm::new(Env::default(), &state);
        for mode in 0..4u64 {
            let mut data = U256::from(mode).to_be_bytes().to_vec();
            data.extend_from_slice(&U256::from(9_000u64).to_be_bytes());
            let mut tx = Transaction::call(alice(), storm, data);
            tx.gas_limit = 500_000;
            let result = evm.transact(&tx).unwrap();
            assert!(result.success, "mode {mode} failed: {:?}", result.halt);
        }
        // The arithmetic-selected jump widens to ⊤ (degrading soundly
        // to the JUMPDEST cover), and the storage keys are beyond
        // enumeration: calldata-scattered writes plus a storage-keyed
        // read force a `dynamic` plan.
        let analysis = tape_analysis::analyze(&storm_runtime());
        assert_eq!(analysis.unresolved_jumps, 1);
        assert_eq!(analysis.vsa_resolved_jumps, 0);
        assert!(analysis.state_plan.dynamic);
        assert!(analysis.state_plan.affine_sites >= 2);
        assert!(analysis.state_plan.dynamic_sites >= 1);
        assert!(analysis.state_plan.slots.contains(&U256::ZERO));
    }

    #[test]
    fn padding_preserves_behavior() {
        let mut state = setup_token();
        let padded = Address::from_low_u64(0x7ADE);
        let mut t = Account::with_code(pad_code(erc20_runtime(), 24_000));
        t.storage.insert(balance_slot(&alice()), U256::from(50u64));
        state.put_account(padded, t);
        assert_eq!(state.code(&padded).len(), 24_000);

        let mut evm = Evm::new(Env::default(), &state);
        let out = call_ok(
            &mut evm,
            alice(),
            padded,
            encode_call(sel::balance_of(), &[alice().into_word()]),
        );
        assert_eq!(U256::from_be_slice(&out), U256::from(50u64));
    }

    #[test]
    fn storage_slots_match_solidity_rules() {
        // balance_slot = keccak(pad(addr) ++ pad(1))
        let manual = {
            let mut buf = [0u8; 64];
            buf[..32].copy_from_slice(&alice().into_word().to_be_bytes());
            buf[63] = 1;
            keccak256(buf).into_u256()
        };
        assert_eq!(balance_slot(&alice()), manual);
        assert_ne!(balance_slot(&alice()), balance_slot(&bob()));
        assert_ne!(
            allowance_slot(&alice(), &bob()),
            allowance_slot(&bob(), &alice())
        );
    }
}
