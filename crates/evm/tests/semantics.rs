//! End-to-end EVM semantics tests: every instruction family exercised
//! through real bytecode, plus gas accounting against known constants.

use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{create2_address, create_address, Env, Evm, Transaction, TxError, VmError};
use tape_primitives::{Address, B256, U256};
use tape_state::{Account, InMemoryState, StateReader};

const FUND: u64 = u64::MAX;

fn sender() -> Address {
    Address::from_low_u64(0xAA)
}

fn contract_addr() -> Address {
    Address::from_low_u64(0xC0DE)
}

/// Deploys `code` at a fixed address with a funded sender.
fn backend_with(code: Vec<u8>) -> InMemoryState {
    let mut backend = InMemoryState::new();
    backend.put_account(sender(), Account::with_balance(U256::from(FUND)));
    backend.put_account(contract_addr(), Account::with_code(code));
    backend
}

/// Runs `code` as a call from the funded sender and returns the result.
fn run(code: Vec<u8>) -> tape_evm::TxResult {
    run_with_input(code, vec![])
}

fn run_with_input(code: Vec<u8>, input: Vec<u8>) -> tape_evm::TxResult {
    let backend = backend_with(code);
    let mut evm = Evm::new(Env::default(), &backend);
    evm.transact(&Transaction::call(sender(), contract_addr(), input))
        .expect("tx valid")
}

/// Runs code that returns one word; asserts success and returns the word.
fn run_word(code: Vec<u8>) -> U256 {
    let result = run(code);
    assert!(result.success, "execution failed: {:?}", result.halt);
    assert_eq!(result.output.len(), 32, "expected a single word");
    U256::from_be_slice(&result.output)
}

fn u(v: u64) -> U256 {
    U256::from(v)
}

// --- arithmetic through bytecode -------------------------------------------

#[test]
fn arithmetic_family() {
    // Stack order reminder: ops take (top, next), e.g. SUB = top - next.
    let cases: Vec<(Vec<u8>, u64)> = vec![
        (Asm::new().push(3u64).push(2u64).op(op::ADD).ret_top().build(), 5),
        (Asm::new().push(3u64).push(10u64).op(op::SUB).ret_top().build(), 7),
        (Asm::new().push(6u64).push(7u64).op(op::MUL).ret_top().build(), 42),
        (Asm::new().push(5u64).push(17u64).op(op::DIV).ret_top().build(), 3),
        (Asm::new().push(5u64).push(17u64).op(op::MOD).ret_top().build(), 2),
        (Asm::new().push(0u64).push(17u64).op(op::DIV).ret_top().build(), 0),
        (Asm::new().push(8u64).push(5u64).push(9u64).op(op::ADDMOD).ret_top().build(), 6),
        (Asm::new().push(8u64).push(5u64).push(9u64).op(op::MULMOD).ret_top().build(), 5),
        (Asm::new().push(10u64).push(2u64).op(op::EXP).ret_top().build(), 1024),
        (Asm::new().push(3u64).push(5u64).op(op::LT).ret_top().build(), 0),
        (Asm::new().push(5u64).push(3u64).op(op::LT).ret_top().build(), 1),
        (Asm::new().push(3u64).push(5u64).op(op::GT).ret_top().build(), 1),
        (Asm::new().push(5u64).push(5u64).op(op::EQ).ret_top().build(), 1),
        (Asm::new().push(0u64).op(op::ISZERO).ret_top().build(), 1),
        (Asm::new().push(0b1100u64).push(0b1010u64).op(op::AND).ret_top().build(), 0b1000),
        (Asm::new().push(0b1100u64).push(0b1010u64).op(op::OR).ret_top().build(), 0b1110),
        (Asm::new().push(0b1100u64).push(0b1010u64).op(op::XOR).ret_top().build(), 0b0110),
        (Asm::new().push(1u64).push(4u64).op(op::SHL).ret_top().build(), 16),
        (Asm::new().push(16u64).push(4u64).op(op::SHR).ret_top().build(), 1),
    ];
    for (i, (code, expected)) in cases.into_iter().enumerate() {
        assert_eq!(run_word(code), u(expected), "case {i}");
    }
}

#[test]
fn signed_arithmetic_through_bytecode() {
    // -10 / 3 == -3 (SDIV truncates toward zero)
    let neg10 = U256::from(10u64).wrapping_neg();
    let neg3 = U256::from(3u64).wrapping_neg();
    let code = Asm::new().push(3u64).push(neg10).op(op::SDIV).ret_top().build();
    assert_eq!(run_word(code), neg3);

    // SLT: -1 < 1
    let code = Asm::new()
        .push(1u64)
        .push(U256::MAX)
        .op(op::SLT)
        .ret_top()
        .build();
    assert_eq!(run_word(code), U256::ONE);

    // SAR of -16 by 2 is -4.
    let neg16 = U256::from(16u64).wrapping_neg();
    let code = Asm::new().push(neg16).push(2u64).op(op::SAR).ret_top().build();
    assert_eq!(run_word(code), U256::from(4u64).wrapping_neg());

    // SIGNEXTEND byte 0 of 0xFF -> -1.
    let code = Asm::new().push(0xFFu64).push(0u64).op(op::SIGNEXTEND).ret_top().build();
    assert_eq!(run_word(code), U256::MAX);
}

#[test]
fn not_and_byte() {
    let code = Asm::new().push(0u64).op(op::NOT).ret_top().build();
    assert_eq!(run_word(code), U256::MAX);
    // BYTE 31 of 0x1234 is 0x34.
    let code = Asm::new().push(0x1234u64).push(31u64).op(op::BYTE).ret_top().build();
    assert_eq!(run_word(code), u(0x34));
}

// --- keccak, memory ----------------------------------------------------------

#[test]
fn keccak256_of_memory() {
    // keccak("") with zero-length memory range.
    let code = Asm::new().push(0u64).push(0u64).op(op::KECCAK256).ret_top().build();
    assert_eq!(
        B256::from(run_word(code)),
        tape_crypto::keccak256([])
    );
    // keccak of one stored word.
    let code = Asm::new()
        .push(0xdeadu64)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64)
        .push(0u64)
        .op(op::KECCAK256)
        .ret_top()
        .build();
    assert_eq!(
        B256::from(run_word(code)),
        tape_crypto::keccak256(U256::from(0xdeadu64).to_be_bytes())
    );
}

#[test]
fn memory_ops_and_msize() {
    // MSTORE8 then MLOAD.
    let code = Asm::new()
        .push(0xABu64)
        .push(31u64)
        .op(op::MSTORE8)
        .push(0u64)
        .op(op::MLOAD)
        .ret_top()
        .build();
    assert_eq!(run_word(code), u(0xAB));

    // MSIZE after touching offset 100.
    let code = Asm::new()
        .push(100u64)
        .op(op::MLOAD)
        .op(op::POP)
        .op(op::MSIZE)
        .ret_top()
        .build();
    assert_eq!(run_word(code), u(160));
}

#[test]
fn mcopy_moves_data() {
    let code = Asm::new()
        .push(0x11u64)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64) // len
        .push(0u64) // src
        .push(64u64) // dst
        .op(op::MCOPY)
        .push(64u64)
        .op(op::MLOAD)
        .ret_top()
        .build();
    assert_eq!(run_word(code), u(0x11));
}

#[test]
fn calldata_ops() {
    // Return CALLDATALOAD(0).
    let code = Asm::new().push(0u64).op(op::CALLDATALOAD).ret_top().build();
    let mut input = vec![0u8; 32];
    input[31] = 0x42;
    let result = run_with_input(code, input);
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), u(0x42));

    // CALLDATASIZE.
    let code = Asm::new().op(op::CALLDATASIZE).ret_top().build();
    let result = run_with_input(code, vec![1, 2, 3]);
    assert_eq!(U256::from_be_slice(&result.output), u(3));

    // CALLDATACOPY with padding past the end.
    let code = Asm::new()
        .push(32u64) // len
        .push(0u64) // src
        .push(0u64) // dst
        .op(op::CALLDATACOPY)
        .push(0u64)
        .op(op::MLOAD)
        .ret_top()
        .build();
    let result = run_with_input(code, vec![0xFF]);
    // 0xFF at the most significant byte, rest zero-padded.
    assert_eq!(result.output[0], 0xFF);
    assert!(result.output[1..].iter().all(|&b| b == 0));
}

// --- environment -------------------------------------------------------------

#[test]
fn environment_opcodes() {
    let env = Env::default();
    let cases: Vec<(u8, U256)> = vec![
        (op::ADDRESS, contract_addr().into_word()),
        (op::ORIGIN, sender().into_word()),
        (op::CALLER, sender().into_word()),
        (op::CALLVALUE, U256::ZERO),
        (op::NUMBER, u(env.block_number)),
        (op::TIMESTAMP, u(env.timestamp)),
        (op::CHAINID, u(env.chain_id)),
        (op::GASLIMIT, u(env.gas_limit)),
        (op::COINBASE, env.coinbase.into_word()),
        (op::BASEFEE, env.base_fee),
        (op::CODESIZE, u(38)), // the ret_top suffix is 7 bytes + 1 op + 30? computed below
    ];
    for (opcode, expected) in cases {
        let code = Asm::new().op(opcode).ret_top().build();
        if opcode == op::CODESIZE {
            assert_eq!(run_word(code.clone()), u(code.len() as u64));
        } else {
            assert_eq!(run_word(code), expected, "opcode 0x{opcode:02x}");
        }
    }
}

#[test]
fn balance_and_selfbalance() {
    let code = Asm::new()
        .push_address(sender())
        .op(op::BALANCE)
        .ret_top()
        .build();
    let backend = backend_with(code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    // Sender balance at read time = FUND - gas purchase.
    let expected = U256::from(FUND)
        .wrapping_sub(U256::from(1_000_000u64).wrapping_mul(U256::from(10_000_000_000u64)));
    assert_eq!(U256::from_be_slice(&result.output), expected);

    let code = Asm::new().op(op::SELFBALANCE).ret_top().build();
    assert_eq!(run_word(code), U256::ZERO);
}

// --- storage -------------------------------------------------------------------

#[test]
fn sstore_sload_roundtrip() {
    let code = Asm::new()
        .push(0x99u64)
        .push(7u64)
        .op(op::SSTORE)
        .push(7u64)
        .op(op::SLOAD)
        .ret_top()
        .build();
    assert_eq!(run_word(code), u(0x99));
}

#[test]
fn sstore_gas_cold_set() {
    // SSTORE of a fresh slot: 20000 (set) + 2100 (cold) on top of pushes.
    let code = Asm::new()
        .push(1u64)
        .push(0u64)
        .op(op::SSTORE)
        .stop()
        .build();
    let result = run(code);
    assert!(result.success);
    // 21000 intrinsic + PUSH1(3) + PUSH0(2) + 22100.
    assert_eq!(result.gas_used, 21_000 + 3 + 2 + 22_100);
}

#[test]
fn sload_warm_vs_cold_gas() {
    // Two loads of the same slot: first cold (2100), second warm (100).
    let code = Asm::new()
        .push(5u64)
        .op(op::SLOAD)
        .op(op::POP)
        .push(5u64)
        .op(op::SLOAD)
        .op(op::POP)
        .stop()
        .build();
    let result = run(code);
    assert!(result.success);
    assert_eq!(result.gas_used, 21_000 + 2 * (3 + 2) + 2_200 + 100);
}

#[test]
fn sstore_refund_on_clear() {
    // Pre-set slot 1 = 5; clearing it refunds 4800 (capped at gas_used/5).
    let mut backend = backend_with(
        Asm::new().push(0u64).push(1u64).op(op::SSTORE).stop().build(),
    );
    backend.set_storage(contract_addr(), U256::ONE, u(5));
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    // Pre-refund: 21000 + 2 + 3 + (2100 cold + 2900 reset) = 26005.
    // Refund min(4800, 26005/5 = 5201) = 4800.
    assert_eq!(result.gas_used, 26_005 - 4_800);
}

#[test]
fn transient_storage_isolated_per_tx() {
    let code = Asm::new()
        .push(0xAAu64)
        .push(1u64)
        .op(op::TSTORE)
        .push(1u64)
        .op(op::TLOAD)
        .ret_top()
        .build();
    assert_eq!(run_word(code.clone()), u(0xAA));

    // A second transaction sees cleared transient storage.
    let read_only = Asm::new().push(1u64).op(op::TLOAD).ret_top().build();
    let mut backend = backend_with(code);
    backend.put_account(Address::from_low_u64(0xC1), Account::with_code(read_only));
    let mut evm = Evm::new(Env::default(), &backend);
    evm.transact(&Transaction::call(sender(), contract_addr(), vec![])).unwrap();
    let second = evm
        .transact(&Transaction::call(sender(), Address::from_low_u64(0xC1), vec![]))
        .unwrap();
    assert_eq!(U256::from_be_slice(&second.output), U256::ZERO);
}

// --- control flow ---------------------------------------------------------------

#[test]
fn jump_and_jumpi() {
    // Unconditional jump over a revert.
    let code = Asm::new()
        .jump("ok")
        .push(0u64)
        .push(0u64)
        .op(op::REVERT)
        .label("ok")
        .push(1u64)
        .ret_top()
        .build();
    assert_eq!(run_word(code), U256::ONE);

    // Conditional: loop summing 1..=5.
    let code = Asm::new()
        .push(0u64) // sum
        .push(5u64) // i
        .label("loop")
        // stack: [sum, i]
        .op(op::DUP1)
        .jumpi("body")
        .jump("done")
        .label("body")
        // sum += i; i -= 1
        .op(op::DUP1) // [sum, i, i]
        .op(op::SWAP2) // [i, i, sum]
        .op(op::ADD) // [i, sum']
        .op(op::SWAP1) // [sum', i]
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB) // [sum', i-1]
        .jump("loop")
        .label("done")
        .op(op::POP)
        .ret_top()
        .build();
    assert_eq!(run_word(code), u(15));
}

#[test]
fn invalid_jump_halts() {
    let code = Asm::new().push(1u64).op(op::JUMP).build();
    let result = run(code);
    assert!(!result.success);
    assert_eq!(result.halt, Some(VmError::InvalidJump));
    // Halt consumes all gas.
    assert_eq!(result.gas_used, 1_000_000);
}

#[test]
fn jump_into_push_data_rejected() {
    // PUSH2 embeds a 0x5b byte; jumping at it must fail.
    let code = Asm::new()
        .push(3u64) // target = offset of the 0x5b inside PUSH2 data
        .op(op::JUMP)
        .op(op::PUSH2)
        .ops(&[0x5b, 0x5b])
        .build();
    let result = run(code);
    assert_eq!(result.halt, Some(VmError::InvalidJump));
}

#[test]
fn pc_and_gas_opcodes() {
    let code = Asm::new().op(op::PC).ret_top().build();
    assert_eq!(run_word(code), U256::ZERO);
    // GAS pushes remaining gas; just check it's nonzero and below limit.
    let code = Asm::new().op(op::GAS).ret_top().build();
    let v = run_word(code);
    assert!(v > U256::ZERO && v < u(1_000_000));
}

#[test]
fn stack_errors() {
    let code = Asm::new().op(op::ADD).build();
    assert_eq!(run(code).halt, Some(VmError::StackUnderflow));

    // Push 1025 values.
    let mut asm = Asm::new();
    for _ in 0..1025 {
        asm = asm.push(1u64);
    }
    assert_eq!(run(asm.build()).halt, Some(VmError::StackOverflow));
}

#[test]
fn invalid_opcode_and_running_off_code() {
    let code = vec![op::INVALID];
    assert_eq!(run(code).halt, Some(VmError::InvalidOpcode(op::INVALID)));
    // Undefined opcode.
    let code = vec![0x0c];
    assert_eq!(run(code).halt, Some(VmError::InvalidOpcode(0x0c)));
    // Running off the end acts as STOP.
    let code = Asm::new().push(1u64).build();
    let result = run(code);
    assert!(result.success);
}

#[test]
fn out_of_gas() {
    // An infinite loop runs out of gas.
    let code = Asm::new().label("top").jump("top").build();
    let result = run(code);
    assert!(!result.success);
    assert_eq!(result.halt, Some(VmError::OutOfGas));
    assert_eq!(result.gas_used, 1_000_000);
}

// --- logs ------------------------------------------------------------------------

#[test]
fn logs_with_topics() {
    let code = Asm::new()
        .push(0xCAFEu64)
        .push(0u64)
        .op(op::MSTORE)
        .push(0x11u64) // topic2
        .push(0x22u64) // topic1
        .push(32u64) // len
        .push(0u64) // offset
        .op(op::LOG2)
        .stop()
        .build();
    let result = run(code);
    assert!(result.success);
    assert_eq!(result.logs.len(), 1);
    let log = &result.logs[0];
    assert_eq!(log.address, contract_addr());
    assert_eq!(log.topics.len(), 2);
    assert_eq!(log.topics[0], B256::from(u(0x22)));
    assert_eq!(log.topics[1], B256::from(u(0x11)));
    assert_eq!(U256::from_be_slice(&log.data), u(0xCAFE));
}

#[test]
fn reverted_tx_discards_logs() {
    let code = Asm::new()
        .push(0u64)
        .push(0u64)
        .op(op::LOG0)
        .push(0u64)
        .push(0u64)
        .op(op::REVERT)
        .build();
    let result = run(code);
    assert!(!result.success);
    assert!(result.logs.is_empty());
}

// --- calls ------------------------------------------------------------------------

/// Deploys `callee_code` at 0xCA11 and `caller_code` at the main address.
fn backend_with_two(caller_code: Vec<u8>, callee_code: Vec<u8>) -> InMemoryState {
    let mut backend = backend_with(caller_code);
    backend.put_account(Address::from_low_u64(0xCA11), Account::with_code(callee_code));
    backend
}

fn callee() -> Address {
    Address::from_low_u64(0xCA11)
}

/// CALL with no value and full output copy; pushes success flag.
fn call_code(target: Address, out_len: u64) -> Asm {
    Asm::new()
        .push(out_len) // out len
        .push(0u64) // out offset
        .push(0u64) // in len
        .push(0u64) // in offset
        .push(0u64) // value
        .push_address(target)
        .push(100_000u64) // gas
        .op(op::CALL)
}

#[test]
fn call_returns_data_and_success() {
    let callee_code = Asm::new().push(0x77u64).ret_top().build();
    let caller_code = call_code(callee(), 32)
        .ret_top() // returns the success flag? No: returns memory[0..32] which holds callee output...
        .build();
    // Rebuild properly: return memory word 0 (the copied output), dropping
    // the success flag.
    let caller_code2 = call_code(callee(), 32)
        .op(op::POP)
        .push(0u64)
        .op(op::MLOAD)
        .ret_top()
        .build();
    let _ = caller_code;
    let backend = backend_with_two(caller_code2, callee_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), u(0x77));
}

#[test]
fn call_to_reverting_callee() {
    // Callee stores then reverts with a payload; caller checks flag == 0
    // and that its own storage write survives.
    let callee_code = Asm::new()
        .push(1u64)
        .push(1u64)
        .op(op::SSTORE)
        .push(0xEEu64)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64)
        .push(0u64)
        .op(op::REVERT)
        .build();
    let caller_code = Asm::new()
        .push(0xABu64)
        .push(9u64)
        .op(op::SSTORE) // caller's own write
        .ops(&call_code(callee(), 0).build())
        .ret_top() // return the success flag
        .build();
    let backend = backend_with_two(caller_code, callee_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), U256::ZERO); // callee failed
    // Caller's storage write survived; callee's was reverted.
    let changes = evm.state().changes();
    assert_eq!(changes.storage.len(), 1);
    assert_eq!(changes.storage[0], (contract_addr(), u(9), u(0xAB)));
}

#[test]
fn returndatasize_and_copy() {
    let callee_code = Asm::new().push(0x1234u64).ret_top().build();
    let caller_code = call_code(callee(), 0)
        .op(op::POP)
        .op(op::RETURNDATASIZE) // 32
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64)
        .push(0u64)
        .op(op::RETURN)
        .build();
    let backend = backend_with_two(caller_code, callee_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert_eq!(U256::from_be_slice(&result.output), u(32));
}

#[test]
fn returndatacopy_out_of_bounds_halts() {
    let callee_code = Asm::new().stop().build(); // empty return data
    let caller_code = call_code(callee(), 0)
        .op(op::POP)
        .push(1u64) // len
        .push(0u64) // src
        .push(0u64) // dst
        .op(op::RETURNDATACOPY)
        .stop()
        .build();
    let backend = backend_with_two(caller_code, callee_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(!result.success);
    assert_eq!(result.halt, Some(VmError::ReturnDataOutOfBounds));
}

#[test]
fn staticcall_blocks_writes() {
    let callee_code = Asm::new().push(1u64).push(1u64).op(op::SSTORE).stop().build();
    let caller_code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(callee())
        .push(100_000u64)
        .op(op::STATICCALL)
        .ret_top()
        .build();
    let backend = backend_with_two(caller_code, callee_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    // Inner static call failed.
    assert_eq!(U256::from_be_slice(&result.output), U256::ZERO);
    assert!(evm.state().changes().storage.is_empty());
}

#[test]
fn delegatecall_uses_caller_storage() {
    // Callee writes 0x55 to slot 3; under DELEGATECALL the write lands in
    // the *caller's* storage.
    let callee_code = Asm::new().push(0x55u64).push(3u64).op(op::SSTORE).stop().build();
    let caller_code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(callee())
        .push(100_000u64)
        .op(op::DELEGATECALL)
        .ret_top()
        .build();
    let backend = backend_with_two(caller_code, callee_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), U256::ONE);
    let changes = evm.state().changes();
    assert_eq!(changes.storage, vec![(contract_addr(), u(3), u(0x55))]);
}

#[test]
fn call_transfers_value() {
    let caller_code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(500u64) // value
        .push_address(Address::from_low_u64(0xBEEF))
        .push(100_000u64)
        .op(op::CALL)
        .ret_top()
        .build();
    let mut backend = backend_with(caller_code);
    backend.account_mut(contract_addr()).balance = u(1_000);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), U256::ONE);
    assert_eq!(evm.state_mut().balance(&Address::from_low_u64(0xBEEF)), u(500));
    assert_eq!(evm.state_mut().balance(&contract_addr()), u(500));
}

#[test]
fn call_insufficient_balance_pushes_zero() {
    let caller_code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(500u64) // value the contract does not have
        .push_address(Address::from_low_u64(0xBEEF))
        .push(100_000u64)
        .op(op::CALL)
        .ret_top()
        .build();
    let backend = backend_with(caller_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), U256::ZERO);
}

#[test]
fn call_depth_limit() {
    // A contract that calls itself forever: depth 1024 stops the
    // recursion, everything succeeds (each frame sees a failed inner call).
    let self_call = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(contract_addr())
        .op(op::GAS) // forward everything
        .op(op::CALL)
        .stop()
        .build();
    let backend = backend_with(self_call);
    let mut evm = Evm::new(Env::default(), &backend);
    let tx = Transaction {
        gas_limit: 10_000_000,
        ..Transaction::call(sender(), contract_addr(), vec![])
    };
    let result = evm.transact(&tx).unwrap();
    // With 63/64ths forwarding the gas dies out long before depth 1024,
    // but either way the top level succeeds.
    assert!(result.success);
}

// --- create -----------------------------------------------------------------------

#[test]
fn create_deploys_runtime() {
    let runtime = Asm::new().push(0x99u64).ret_top().build();
    let initcode = Asm::deploy_wrapper(&runtime);
    let backend = {
        let mut b = InMemoryState::new();
        b.put_account(sender(), Account::with_balance(U256::from(FUND)));
        b
    };
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm.transact(&Transaction::create(sender(), initcode)).unwrap();
    assert!(result.success, "create failed: {:?}", result.halt);
    let created = result.created.expect("created address");
    assert_eq!(created, create_address(&sender(), 0));
    assert_eq!(&evm.state_mut().code(&created)[..], &runtime[..]);

    // Calling the deployed contract works.
    let call = evm.transact(&Transaction::call(sender(), created, vec![])).unwrap();
    assert!(call.success);
    assert_eq!(U256::from_be_slice(&call.output), u(0x99));
}

#[test]
fn create_from_contract_and_create2() {
    // A factory that CREATE2s a trivial contract (runtime = STOP).
    let runtime = vec![op::STOP];
    let initcode = Asm::deploy_wrapper(&runtime);
    // Store initcode in memory via CODECOPY of the factory's own tail.
    // Simpler: embed initcode as push bytes through MSTORE8s.
    let mut asm = Asm::new();
    for (i, &b) in initcode.iter().enumerate() {
        asm = asm.push(b as u64).push(i as u64).op(op::MSTORE8);
    }
    let factory_code = asm
        .push(0x5A17u64) // salt
        .push(initcode.len() as u64)
        .push(0u64)
        .push(0u64) // value
        .op(op::CREATE2)
        .ret_top()
        .build();
    let backend = backend_with(factory_code);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    let reported = Address::from_word(U256::from_be_slice(&result.output));
    let expected = create2_address(&contract_addr(), &u(0x5A17), &tape_crypto::keccak256(&initcode));
    assert_eq!(reported, expected);
    assert_eq!(&evm.state_mut().code(&expected)[..], &runtime[..]);
}

#[test]
fn create_reverting_initcode_pushes_zero() {
    let initcode = Asm::new().push(0u64).push(0u64).op(op::REVERT).build();
    let mut asm = Asm::new();
    for (i, &b) in initcode.iter().enumerate() {
        asm = asm.push(b as u64).push(i as u64).op(op::MSTORE8);
    }
    let factory = asm
        .push(initcode.len() as u64)
        .push(0u64)
        .push(0u64)
        .op(op::CREATE)
        .ret_top()
        .build();
    let backend = backend_with(factory);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(U256::from_be_slice(&result.output), U256::ZERO);
}

#[test]
fn deployed_code_starting_with_ef_rejected() {
    let bad_runtime = vec![0xEF, 0x00];
    let initcode = Asm::deploy_wrapper(&bad_runtime);
    let backend = {
        let mut b = InMemoryState::new();
        b.put_account(sender(), Account::with_balance(U256::from(FUND)));
        b
    };
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm.transact(&Transaction::create(sender(), initcode)).unwrap();
    assert!(!result.success);
    assert_eq!(result.halt, Some(VmError::InvalidDeployedCode));
}

// --- selfdestruct ------------------------------------------------------------------

#[test]
fn selfdestruct_sends_balance() {
    let code = Asm::new()
        .push_address(Address::from_low_u64(0xDEAD))
        .op(op::SELFDESTRUCT)
        .build();
    let mut backend = backend_with(code);
    backend.account_mut(contract_addr()).balance = u(777);
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert!(result.success);
    assert_eq!(evm.state_mut().balance(&Address::from_low_u64(0xDEAD)), u(777));
    assert!(evm.state().changes().selfdestructs.contains(&contract_addr()));
}

// --- transaction-level validation ---------------------------------------------------

#[test]
fn nonce_checked_when_present() {
    let backend = backend_with(vec![op::STOP]);
    let mut evm = Evm::new(Env::default(), &backend);
    let mut tx = Transaction::call(sender(), contract_addr(), vec![]);
    tx.nonce = Some(5);
    assert_eq!(
        evm.transact(&tx),
        Err(TxError::NonceMismatch { expected: 5, actual: 0 })
    );
    tx.nonce = Some(0);
    assert!(evm.transact(&tx).unwrap().success);
    // Nonce advanced; replay fails.
    tx.nonce = Some(0);
    assert!(matches!(evm.transact(&tx), Err(TxError::NonceMismatch { .. })));
}

#[test]
fn insufficient_funds_rejected() {
    let mut backend = InMemoryState::new();
    backend.put_account(sender(), Account::with_balance(u(1_000)));
    let mut evm = Evm::new(Env::default(), &backend);
    let tx = Transaction::transfer(sender(), Address::from_low_u64(0xB0B), U256::ONE);
    assert_eq!(evm.transact(&tx), Err(TxError::InsufficientFunds));
}

#[test]
fn intrinsic_gas_enforced() {
    let backend = backend_with(vec![op::STOP]);
    let mut evm = Evm::new(Env::default(), &backend);
    let mut tx = Transaction::call(sender(), contract_addr(), vec![1; 100]);
    tx.gas_limit = 21_001;
    assert!(matches!(
        evm.transact(&tx),
        Err(TxError::IntrinsicGasTooLow { .. })
    ));
}

#[test]
fn plain_transfer_uses_exactly_21000() {
    let mut backend = InMemoryState::new();
    backend.put_account(sender(), Account::with_balance(U256::from(FUND)));
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::transfer(sender(), Address::from_low_u64(0xB0B), u(123)))
        .unwrap();
    assert!(result.success);
    assert_eq!(result.gas_used, 21_000);
    assert_eq!(evm.state_mut().balance(&Address::from_low_u64(0xB0B)), u(123));
}

#[test]
fn access_list_prewarms() {
    // With slot 5 in the access list, the first SLOAD is warm.
    let code = Asm::new().push(5u64).op(op::SLOAD).op(op::POP).stop().build();
    let backend = backend_with(code);
    let mut evm = Evm::new(Env::default(), &backend);
    let mut tx = Transaction::call(sender(), contract_addr(), vec![]);
    tx.access_list = vec![(contract_addr(), vec![u(5)])];
    let result = evm.transact(&tx).unwrap();
    // intrinsic 21000 + 2400 + 1900, then PUSH(3)+SLOAD(100 warm)+POP(2).
    assert_eq!(result.gas_used, 21_000 + 2_400 + 1_900 + 3 + 100 + 2);
}

#[test]
fn precompiles_callable_from_bytecode() {
    // Call identity(0x4) copying 4 bytes through.
    let code = Asm::new()
        .push(0xDEADBEEFu64)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64) // out len
        .push(32u64) // out offset
        .push(32u64) // in len
        .push(0u64) // in offset
        .push(0u64) // value
        .push_address(Address::from_low_u64(4))
        .push(10_000u64)
        .op(op::CALL)
        .op(op::POP)
        .push(32u64)
        .op(op::MLOAD)
        .ret_top()
        .build();
    assert_eq!(run_word(code), u(0xDEADBEEF));
}

#[test]
fn extcode_family() {
    let callee_code = vec![op::STOP, op::STOP, op::STOP];
    let caller = Asm::new()
        .push_address(callee())
        .op(op::EXTCODESIZE)
        .ret_top()
        .build();
    let backend = backend_with_two(caller, callee_code.clone());
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert_eq!(U256::from_be_slice(&result.output), u(3));

    // EXTCODEHASH of the callee equals keccak(code).
    let caller = Asm::new()
        .push_address(callee())
        .op(op::EXTCODEHASH)
        .ret_top()
        .build();
    let backend = backend_with_two(caller, callee_code.clone());
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert_eq!(
        B256::from(U256::from_be_slice(&result.output)),
        tape_crypto::keccak256(&callee_code)
    );
}

#[test]
fn gas_used_identical_across_runs() {
    // Determinism check: the same transaction costs the same gas twice.
    let code = Asm::new()
        .push(3u64)
        .push(4u64)
        .op(op::MUL)
        .push(2u64)
        .op(op::SSTORE)
        .stop()
        .build();
    let backend = backend_with(code);
    let run_once = || {
        let mut evm = Evm::new(Env::default(), &backend);
        evm.transact(&Transaction::call(sender(), contract_addr(), vec![]))
            .unwrap()
            .gas_used
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn changes_survive_across_bundle_transactions() {
    // Two txs in one Evm instance (same overlay): the second sees the
    // first's storage write — bundle semantics. The contract returns the
    // old value of slot 1, then writes 0x42 to it.
    let code = Asm::new()
        .push(1u64)
        .op(op::SLOAD) // [old]
        .push(0x42u64)
        .push(1u64)
        .op(op::SSTORE)
        .ret_top() // return old
        .build();
    let backend = backend_with(code);
    let mut evm = Evm::new(Env::default(), &backend);
    let first = evm.transact(&Transaction::call(sender(), contract_addr(), vec![])).unwrap();
    assert_eq!(U256::from_be_slice(&first.output), U256::ZERO);
    let second = evm
        .transact(&Transaction::call(sender(), contract_addr(), vec![]))
        .unwrap();
    assert_eq!(U256::from_be_slice(&second.output), u(0x42));
    // But the backend itself is untouched.
    assert_eq!(backend.storage(&contract_addr(), &U256::ONE), U256::ZERO);
}
