//! §VI-B correctness: the HEVM engine must produce the *identical*
//! structured trace (PC, opcode, gas, stack, depth per step) and the
//! identical transaction result as the reference engine for every
//! workload. This mirrors the paper's comparison against
//! `debug_traceTransaction` ground truth.

mod common;

use common::Capped;
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Evm, Transaction};
use tape_hevm::{Hevm, HevmConfig};
use tape_primitives::{Address, U256};
use tape_sim::Clock;
use tape_state::{Account, InMemoryState};

fn sender() -> Address {
    Address::from_low_u64(0xAA)
}

fn main_contract() -> Address {
    Address::from_low_u64(0xC0DE)
}

fn aux_contract() -> Address {
    Address::from_low_u64(0xCA11)
}

fn backend(main_code: Vec<u8>, aux_code: Vec<u8>) -> InMemoryState {
    let mut b = InMemoryState::new();
    b.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    let mut main = Account::with_code(main_code);
    main.balance = U256::from(1_000_000u64);
    b.put_account(main_contract(), main);
    if !aux_code.is_empty() {
        b.put_account(aux_contract(), Account::with_code(aux_code));
    }
    b
}

/// Runs a transaction on both engines and asserts identical traces and
/// results. The reference engine runs first, under a step ceiling from
/// the gas limit; the HEVM may take one step more than it did.
fn assert_equivalent(backend: &InMemoryState, tx: &Transaction, label: &str) {
    let mut reference =
        Evm::with_inspector(Env::default(), backend, Capped::reference(tx.gas_limit));
    let ref_result = reference.transact(tx).expect("reference accepts tx");
    let ref_changes = reference.state().changes();
    let ref_trace = reference.into_inspector().trace;

    let mut hevm = Hevm::with_inspector(
        HevmConfig::default(),
        Env::default(),
        backend,
        Clock::new(),
        Capped::hevm(&ref_trace),
    );
    let hevm_result = hevm.transact(tx).expect("hevm accepts tx");
    let hevm_changes = hevm.state().changes();
    let hevm_trace = hevm.into_inspector().trace;

    if let Some(step) = ref_trace.first_divergence(&hevm_trace) {
        let r = ref_trace.steps().get(step);
        let h = hevm_trace.steps().get(step);
        panic!("{label}: trace diverges at step {step}:\n  reference: {r:?}\n  hevm:      {h:?}");
    }
    assert_eq!(ref_trace.digest(), hevm_trace.digest(), "{label}: digest");
    assert_eq!(ref_result, hevm_result, "{label}: tx result");
    assert_eq!(ref_changes, hevm_changes, "{label}: state changes");
}

fn call_tx(data: Vec<u8>) -> Transaction {
    Transaction::call(sender(), main_contract(), data)
}

#[test]
fn arithmetic_program() {
    let code = Asm::new()
        .push(7u64)
        .push(13u64)
        .op(op::MUL)
        .push(5u64)
        .op(op::SWAP1)
        .op(op::MOD)
        .push(100u64)
        .op(op::ADD)
        .push(3u64)
        .push(2u64)
        .op(op::ADDMOD)
        .push(2u64)
        .op(op::EXP)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "arithmetic");
}

#[test]
fn signed_and_bitwise_program() {
    let code = Asm::new()
        .push(10u64)
        .op(op::PUSH0)
        .op(op::SUB) // -10
        .push(3u64)
        .op(op::SWAP1)
        .op(op::SDIV)
        .push(0xF0u64)
        .op(op::AND)
        .push(2u64)
        .op(op::SAR)
        .op(op::NOT)
        .push(1u64)
        .op(op::SIGNEXTEND)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "signed/bitwise");
}

#[test]
fn memory_and_keccak_program() {
    let code = Asm::new()
        .push(0xDEADu64)
        .push(64u64)
        .op(op::MSTORE)
        .push(96u64)
        .push(0u64)
        .op(op::KECCAK256)
        .push(128u64)
        .op(op::MSTORE8)
        .op(op::MSIZE)
        .push(32u64) // len
        .push(0u64) // src
        .push(200u64) // dst
        .op(op::MCOPY)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "memory/keccak");
}

#[test]
fn calldata_program() {
    let code = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .op(op::CALLDATASIZE)
        .op(op::ADD)
        .push(16u64) // len
        .push(2u64) // src
        .push(0u64) // dst
        .op(op::CALLDATACOPY)
        .push(0u64)
        .op(op::MLOAD)
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(
        &backend(code, vec![]),
        &call_tx((0u8..40).collect()),
        "calldata",
    );
}

#[test]
fn storage_program() {
    let mut b = backend(
        Asm::new()
            .push(5u64)
            .op(op::SLOAD) // cold, pre-set
            .push(1u64)
            .op(op::ADD)
            .push(5u64)
            .op(op::SSTORE) // warm reset
            .push(0xAAu64)
            .push(77u64)
            .op(op::SSTORE) // cold set
            .push(0u64)
            .push(77u64)
            .op(op::SSTORE) // warm clear (refund)
            .push(5u64)
            .op(op::SLOAD)
            .ret_top()
            .build(),
        vec![],
    );
    b.set_storage(main_contract(), U256::from(5u64), U256::from(41u64));
    assert_equivalent(&b, &call_tx(vec![]), "storage");
}

#[test]
fn transient_storage_program() {
    let code = Asm::new()
        .push(0x11u64)
        .push(9u64)
        .op(op::TSTORE)
        .push(9u64)
        .op(op::TLOAD)
        .push(8u64)
        .op(op::TLOAD)
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "transient");
}

#[test]
fn environment_program() {
    let code = Asm::new()
        .op(op::ADDRESS)
        .op(op::ORIGIN)
        .op(op::CALLER)
        .op(op::CALLVALUE)
        .op(op::GASPRICE)
        .op(op::COINBASE)
        .op(op::TIMESTAMP)
        .op(op::NUMBER)
        .op(op::PREVRANDAO)
        .op(op::GASLIMIT)
        .op(op::CHAINID)
        .op(op::SELFBALANCE)
        .op(op::BASEFEE)
        .op(op::CODESIZE)
        .op(op::PC)
        .op(op::GAS)
        .op(op::MSIZE)
        .push(100u64)
        .op(op::BLOCKHASH)
        .op(op::XOR)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "environment");
}

#[test]
fn balance_and_extcode_program() {
    let aux = Asm::new().push(1u64).ret_top().build();
    let code = Asm::new()
        .push_address(aux_contract())
        .op(op::BALANCE)
        .push_address(aux_contract())
        .op(op::EXTCODESIZE)
        .op(op::ADD)
        .push_address(aux_contract())
        .op(op::EXTCODEHASH)
        .op(op::XOR)
        .push(8u64) // len
        .push(0u64) // src
        .push(0u64) // dst
        .push_address(aux_contract())
        .op(op::EXTCODECOPY)
        .push(0u64)
        .op(op::MLOAD)
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, aux), &call_tx(vec![]), "balance/extcode");
}

#[test]
fn control_flow_loop_program() {
    // Sum 1..=20 with a JUMPI loop.
    let code = Asm::new()
        .push(0u64)
        .push(20u64)
        .label("loop")
        .op(op::DUP1)
        .jumpi("body")
        .jump("done")
        .label("body")
        .op(op::DUP1)
        .op(op::SWAP2)
        .op(op::ADD)
        .op(op::SWAP1)
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .jump("loop")
        .label("done")
        .op(op::POP)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "loop");
}

#[test]
fn logs_program() {
    let code = Asm::new()
        .push(0xFEEDu64)
        .push(0u64)
        .op(op::MSTORE)
        .push(1u64)
        .push(2u64)
        .push(3u64)
        .push(4u64)
        .push(32u64)
        .push(0u64)
        .op(op::LOG4)
        .push(0u64)
        .push(0u64)
        .op(op::LOG0)
        .stop()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "logs");
}

#[test]
fn nested_call_program() {
    let aux = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .push(2u64)
        .op(op::MUL)
        .ret_top()
        .build();
    let code = Asm::new()
        .push(21u64)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64) // out len
        .push(32u64) // out offset
        .push(32u64) // in len
        .push(0u64) // in offset
        .push(0u64) // value
        .push_address(aux_contract())
        .push(100_000u64)
        .op(op::CALL)
        .op(op::POP)
        .op(op::RETURNDATASIZE)
        .push(32u64)
        .op(op::MLOAD)
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, aux), &call_tx(vec![]), "nested call");
}

#[test]
fn delegatecall_and_staticcall_program() {
    let aux = Asm::new().push(0x55u64).push(3u64).op(op::SSTORE).stop().build();
    let code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(aux_contract())
        .push(100_000u64)
        .op(op::DELEGATECALL)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(aux_contract())
        .push(100_000u64)
        .op(op::STATICCALL) // fails: SSTORE in static context
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, aux), &call_tx(vec![]), "delegate/static");
}

#[test]
fn value_call_and_revert_program() {
    let aux = Asm::new()
        .push(0xBAD_u64)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64)
        .push(0u64)
        .op(op::REVERT)
        .build();
    let code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(500u64) // value
        .push_address(aux_contract())
        .push(100_000u64)
        .op(op::CALL)
        .op(op::RETURNDATASIZE)
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, aux), &call_tx(vec![]), "value call revert");
}

#[test]
fn create_and_create2_program() {
    // Factory deploys a one-byte STOP contract twice (CREATE + CREATE2).
    let initcode = Asm::deploy_wrapper(&[op::STOP]);
    let mut asm = Asm::new();
    for (i, &b) in initcode.iter().enumerate() {
        asm = asm.push(b as u64).push(i as u64).op(op::MSTORE8);
    }
    let code = asm
        .push(initcode.len() as u64)
        .push(0u64)
        .push(0u64)
        .op(op::CREATE)
        .push(0x5A17u64)
        .push(initcode.len() as u64)
        .push(0u64)
        .push(0u64)
        .op(op::CREATE2)
        .op(op::XOR)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "create family");
}

#[test]
fn create_transaction() {
    let runtime = Asm::new().push(0x33u64).ret_top().build();
    let initcode = Asm::deploy_wrapper(&runtime);
    let b = backend(vec![], vec![]);
    let tx = Transaction::create(sender(), initcode);
    assert_equivalent(&b, &tx, "create tx");
}

#[test]
fn halting_programs() {
    for (label, code) in [
        ("invalid opcode", vec![op::INVALID]),
        ("undefined opcode", vec![0x0c]),
        ("stack underflow", vec![op::ADD]),
        ("bad jump", Asm::new().push(1u64).op(op::JUMP).build()),
        (
            "returndata oob",
            Asm::new()
                .push(1u64)
                .push(0u64)
                .push(0u64)
                .op(op::RETURNDATACOPY)
                .build(),
        ),
        ("revert", Asm::new().push(0u64).push(0u64).op(op::REVERT).build()),
        ("implicit stop", Asm::new().push(1u64).build()),
    ] {
        assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), label);
    }
}

#[test]
fn out_of_gas_program() {
    let code = Asm::new().label("spin").jump("spin").build();
    let mut tx = call_tx(vec![]);
    tx.gas_limit = 60_000;
    assert_equivalent(&backend(code, vec![]), &tx, "out of gas");
}

#[test]
fn selfdestruct_program() {
    let code = Asm::new()
        .push_address(Address::from_low_u64(0xDEAD))
        .op(op::SELFDESTRUCT)
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "selfdestruct");
}

#[test]
fn precompile_calls_program() {
    let code = Asm::new()
        .push(0xABCDu64)
        .push(0u64)
        .op(op::MSTORE)
        // sha256 over the word
        .push(32u64)
        .push(32u64)
        .push(32u64)
        .push(0u64)
        .push(0u64)
        .push_address(Address::from_low_u64(2))
        .push(10_000u64)
        .op(op::CALL)
        // identity copy
        .push(32u64)
        .push(64u64)
        .push(32u64)
        .push(32u64)
        .push(0u64)
        .push_address(Address::from_low_u64(4))
        .push(10_000u64)
        .op(op::CALL)
        .op(op::ADD)
        .push(64u64)
        .op(op::MLOAD)
        .op(op::ADD)
        .ret_top()
        .build();
    assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), "precompiles");
}

#[test]
fn plain_transfers() {
    let b = backend(vec![], vec![]);
    let tx = Transaction::transfer(sender(), Address::from_low_u64(0xB0B), U256::from(7u64));
    assert_equivalent(&b, &tx, "plain transfer");
    // Transfer to a contract with code executes it identically.
    let code = Asm::new().op(op::CALLVALUE).ret_top().build();
    let b = backend(code, vec![]);
    let mut tx = call_tx(vec![]);
    tx.value = U256::from(123u64);
    assert_equivalent(&b, &tx, "value call");
}

#[test]
fn deep_recursion_program() {
    // Self-call until gas runs down — exercises deep explicit stacks in
    // both engines.
    let code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(main_contract())
        .op(op::GAS)
        .op(op::CALL)
        .ret_top()
        .build();
    let b = backend(code, vec![]);
    let mut tx = call_tx(vec![]);
    tx.gas_limit = 3_000_000;
    assert_equivalent(&b, &tx, "deep recursion");
}

#[test]
fn access_list_transaction() {
    let code = Asm::new()
        .push(5u64)
        .op(op::SLOAD)
        .push_address(aux_contract())
        .op(op::BALANCE)
        .op(op::ADD)
        .ret_top()
        .build();
    let b = backend(code, Asm::new().stop().build());
    let mut tx = call_tx(vec![]);
    tx.access_list = vec![
        (main_contract(), vec![U256::from(5u64)]),
        (aux_contract(), vec![]),
    ];
    assert_equivalent(&b, &tx, "access list");
}

#[test]
fn bundle_of_sequential_transactions_match() {
    // Run a 3-tx bundle on both engines, comparing cumulative state.
    let code = Asm::new()
        .push(1u64)
        .op(op::SLOAD)
        .push(1u64)
        .op(op::ADD)
        .push(1u64)
        .op(op::SSTORE)
        .push(1u64)
        .op(op::SLOAD)
        .ret_top()
        .build();
    let b = backend(code, vec![]);

    let mut reference = Evm::new(Env::default(), &b);
    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    for i in 0..3u64 {
        let tx = call_tx(vec![]);
        let r = reference.transact(&tx).unwrap();
        let h = hevm.transact(&tx).unwrap();
        assert_eq!(r, h, "bundle tx {i}");
        assert_eq!(U256::from_be_slice(&r.output), U256::from(i + 1));
    }
    assert_eq!(reference.state().changes(), hevm.state().changes());
}

/// A state holding one funded account and nothing else.
fn funded(addr: Address) -> InMemoryState {
    let mut s = InMemoryState::new();
    s.put_account(addr, Account::with_balance(U256::from(u64::MAX)));
    s
}

/// Initcode that simply STOPs must deploy an *empty* contract and push
/// the created address — on both engines identically.
#[test]
fn create_with_stop_initcode_deploys_empty_contract() {
    let sender = Address::from_low_u64(0xAA);
    let backend = funded(sender);
    let tx = Transaction::create(sender, vec![op::STOP]);

    let mut reference = Evm::new(Env::default(), &backend);
    let ref_result = reference.transact(&tx).unwrap();
    assert!(ref_result.success);
    let created = ref_result.created.expect("STOP initcode still deploys");
    assert_eq!(created, tape_evm::create_address(&sender, 0));
    assert!(reference.state_mut().code(&created).is_empty());
    assert_eq!(reference.state_mut().nonce(&created), 1);

    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &backend, Clock::new());
    let hevm_result = hevm.transact(&tx).unwrap();
    assert_eq!(ref_result, hevm_result);

    // Same via the CREATE opcode: the factory receives the address, not 0.
    let factory_code = Asm::new()
        .push(0u64) // initcode len 0 -> empty initcode -> empty deploy
        .push(0u64)
        .push(0u64)
        .op(op::CREATE)
        .ret_top()
        .build();
    let mut backend = funded(sender);
    let factory = Address::from_low_u64(0xFAC);
    backend.put_account(factory, Account::with_code(factory_code));
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm.transact(&Transaction::call(sender, factory, vec![])).unwrap();
    assert!(result.success);
    let reported = Address::from_word(U256::from_be_slice(&result.output));
    assert_ne!(reported, Address::ZERO, "CREATE must push the address");
}

/// Calldata reads near `usize::MAX` zero-pad instead of wrapping to the
/// start of the buffer (release-mode correctness).
#[test]
fn calldataload_at_max_offset_reads_zero() {
    let sender = Address::from_low_u64(0xAA);
    let target = Address::from_low_u64(0xC0DE);
    // CALLDATALOAD(2^64 - 16): half the word is beyond usize range.
    let code = Asm::new()
        .push(U256::from(u64::MAX - 15))
        .op(op::CALLDATALOAD)
        .ret_top()
        .build();
    let mut backend = funded(sender);
    backend.put_account(target, Account::with_code(code));
    let input = vec![0xFFu8; 64]; // nonzero: a wraparound would read 0xFF

    let mut reference = Evm::new(Env::default(), &backend);
    let r = reference.transact(&Transaction::call(sender, target, input.clone())).unwrap();
    assert!(r.success);
    assert_eq!(U256::from_be_slice(&r.output), U256::ZERO);

    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &backend, Clock::new());
    let h = hevm.transact(&Transaction::call(sender, target, input)).unwrap();
    assert_eq!(r, h);
}

/// `calldata[0]` iterations of a five-instruction loop (~26 gas each).
fn gasbomb() -> Vec<u8> {
    Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
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

#[test]
fn gas_runs_out_on_every_instruction_of_a_loop() {
    // One iteration costs 26 gas, so 27 consecutive limits run out on
    // every instruction of the body; the traces are compared step by step.
    let state = backend(gasbomb(), vec![]);
    for limit in 22_000..=22_026u64 {
        let mut tx = call_tx(U256::from(50_000u64).to_be_bytes().to_vec());
        tx.gas_limit = limit;
        assert_equivalent(&state, &tx, &format!("gas limit {limit}"));
    }
}

#[test]
fn stack_limits_at_the_edge_of_a_straight_line_stretch() {
    // 1 022 `PUSH0`s and a `CALLVALUE` leave 1 023 words: one more push
    // fits, a second overflows. Then a stretch entered one word short.
    let tower = |pushes: u64| {
        let mut a = Asm::new();
        for _ in 0..1_022 {
            a = a.op(op::PUSH0);
        }
        a = a.op(op::CALLVALUE);
        for i in 0..pushes {
            a = a.push(i + 1);
        }
        a.stop().build()
    };
    let short = Asm::new().op(op::CALLVALUE).push(1u64).op(op::ADD).op(op::ADD).stop().build();
    for (label, code) in [("fits", tower(1)), ("overflows", tower(2)), ("one word short", short)] {
        assert_equivalent(&backend(code, vec![]), &call_tx(vec![]), label);
    }
}
