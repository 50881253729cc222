//! Layer-2/3 behavior: Memory Overflow Error, swap-out/in of deep call
//! stacks, swap-size noise (A5), tamper detection (A4), and the timing
//! model.

use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Transaction};
use tape_hevm::{Hevm, HevmAbort, HevmConfig};
use tape_primitives::{Address, U256};
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::resources::MemoryConfig;
use tape_sim::Clock;
use tape_state::{Account, InMemoryState};

fn sender() -> Address {
    Address::from_low_u64(0xAA)
}

fn contract() -> Address {
    Address::from_low_u64(0xC0DE)
}

fn backend(code: Vec<u8>) -> InMemoryState {
    let mut b = InMemoryState::new();
    b.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    b.put_account(contract(), Account::with_code(code));
    b
}

/// A config with a tiny layer 2 so swaps/overflows trigger quickly.
fn tiny_layer2() -> HevmConfig {
    HevmConfig {
        mem: MemoryConfig {
            layer2_bytes: 128 * 1024, // frames are ≥37 KB; 3 don't fit
            ..MemoryConfig::default()
        },
        ..HevmConfig::default()
    }
}

/// Code that expands Memory to `kb` kilobytes then self-calls.
fn memory_hog(kb: u64) -> Vec<u8> {
    Asm::new()
        .push(1u64)
        .push(kb * 1024 - 32)
        .op(op::MSTORE) // expand memory to kb KB
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(contract())
        .op(op::GAS)
        .op(op::CALL)
        .stop()
        .build()
}

#[test]
fn single_frame_overflow_aborts_bundle() {
    // One frame wanting > layer2/2 pages is treated as an attack.
    let config = tiny_layer2(); // limit = 64 KB -> 64 pages
    let code = Asm::new()
        .push(1u64)
        .push(100u64 * 1024) // expand Memory past 64 KB
        .op(op::MSTORE)
        .stop()
        .build();
    let b = backend(code);
    let mut hevm = Hevm::new(config, Env::default(), &b, Clock::new());
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 5_000_000;
    let err = hevm.transact(&tx).unwrap_err();
    match err {
        HevmAbort::MemoryOverflow { frame_pages, limit_pages } => {
            assert_eq!(limit_pages, 64);
            assert!(frame_pages > 64);
        }
        other => panic!("expected MemoryOverflow, got {other:?}"),
    }
}

#[test]
fn deep_call_stack_swaps_to_layer3_and_completes() {
    let config = tiny_layer2();
    let b = backend(memory_hog(2));
    let mut hevm = Hevm::new(config, Env::default(), &b, Clock::new());
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 8_000_000;
    let result = hevm.transact(&tx).unwrap();
    assert!(result.success, "halt: {:?}", result.halt);

    let stats = hevm.stats();
    assert!(stats.max_depth > 3, "recursion too shallow: {stats:?}");
    assert!(stats.swaps > 0, "layer 3 never used: {stats:?}");
    assert!(!hevm.swap_log().is_empty());
    // Swap-outs eventually matched by swap-ins (frames reloaded on
    // return).
    let ins: usize = hevm.swap_log().iter().map(|e| e.pages_in).sum();
    let outs: usize = hevm.swap_log().iter().map(|e| e.pages_out).sum();
    assert!(ins > 0 && outs > 0);
}

#[test]
fn swap_results_identical_to_reference_execution() {
    // Even with aggressive swapping, the final result matches the
    // reference engine (which has no memory hierarchy at all).
    let b = backend(memory_hog(2));
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 8_000_000;

    let mut reference = tape_evm::Evm::new(Env::default(), &b);
    let expected = reference.transact(&tx).unwrap();

    let mut hevm = Hevm::new(tiny_layer2(), Env::default(), &b, Clock::new());
    let actual = hevm.transact(&tx).unwrap();
    assert_eq!(expected, actual);
}

#[test]
fn swap_sizes_are_noised_across_runs() {
    let b = backend(memory_hog(2));
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 8_000_000;
    let mut hevm = Hevm::new(tiny_layer2(), Env::default(), &b, Clock::new());
    hevm.transact(&tx).unwrap();
    let outs: Vec<usize> = hevm
        .swap_log()
        .iter()
        .filter(|e| e.pages_out > 0)
        .map(|e| e.pages_out)
        .collect();
    assert!(outs.len() >= 3);
    // All frames have the same true size here, so any variation in the
    // observed sizes is pager noise.
    let distinct: std::collections::HashSet<_> = outs.iter().collect();
    assert!(distinct.len() > 1, "swap sizes constant: {outs:?}");
}

#[test]
fn layer3_tampering_aborts() {
    let b = backend(memory_hog(2));
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 8_000_000;
    let clock = Clock::new();

    // The adversary flips a bit in the first frame written to untrusted
    // memory, mid-execution.
    let plan = FaultPlan::new(1, &clock);
    plan.arm(FaultSite::PageStore, &[FaultKind::BitFlip], 1, 1);
    let config = HevmConfig { faults: Some(plan.clone()), ..tiny_layer2() };
    let mut hevm = Hevm::new(config, Env::default(), &b, clock);
    let result = hevm.transact(&tx);
    assert_eq!(plan.injected(), 1);
    match result {
        Err(HevmAbort::Layer3Tampered) => {}
        other => panic!("expected Layer3Tampered, got {other:?}"),
    }
}

#[test]
fn clock_advances_with_execution() {
    let clock = Clock::new();
    let code = Asm::new()
        .push(2u64)
        .push(3u64)
        .op(op::MUL)
        .ret_top()
        .build();
    let b = backend(code);
    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &b, clock.clone());
    hevm.transact(&Transaction::call(sender(), contract(), vec![])).unwrap();
    // At least the per-tx overhead plus instruction time passed.
    assert!(clock.now() >= 1_000_000);
    let after_first = clock.now();
    hevm.transact(&Transaction::call(sender(), contract(), vec![])).unwrap();
    assert!(clock.now() > after_first);
}

#[test]
fn instruction_count_and_exceptions_tracked() {
    let code = Asm::new()
        .push(1u64)
        .op(op::SLOAD)
        .op(op::POP)
        .stop()
        .build();
    let b = backend(code);
    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    hevm.transact(&Transaction::call(sender(), contract(), vec![])).unwrap();
    let stats = hevm.stats();
    assert_eq!(stats.instructions, 4);
    // Sender load + code-address load + cold SLOAD = 3 hypervisor
    // exceptions.
    assert!(stats.exceptions >= 3);
}

#[test]
fn within_capacity_no_swaps() {
    // Default 1 MB layer 2 holds a shallow two-frame stack without
    // swapping (frames are ~38 KB here).
    let aux = Address::from_low_u64(0xCA11);
    let code = Asm::new()
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(aux)
        .push(50_000u64)
        .op(op::CALL)
        .stop()
        .build();
    let mut b = backend(code);
    b.put_account(aux, Account::with_code(vec![op::JUMPDEST, op::STOP]));
    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 2_000_000;
    let result = hevm.transact(&tx).unwrap();
    assert!(result.success);
    assert_eq!(hevm.stats().max_depth, 2);
    assert_eq!(hevm.stats().swaps, 0);
    assert!(hevm.swap_log().is_empty());
}

#[test]
fn rollup_style_frame_hits_overflow_like_paper() {
    // Paper §VI-B: roll-up transactions may exceed the layer-2 frame
    // size limit. A frame with ~600 KB of Memory against the default
    // 1 MB layer 2 (512 KB frame limit) must abort.
    let code = Asm::new()
        .push(1u64)
        .push(600u64 * 1024)
        .op(op::MSTORE)
        .stop()
        .build();
    let b = backend(code);
    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 10_000_000;
    assert!(matches!(
        hevm.transact(&tx),
        Err(HevmAbort::MemoryOverflow { .. })
    ));
}
