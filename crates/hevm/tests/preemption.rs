//! Segmented execution: gas-slice preemption, suspend/resume through a
//! typed [`Checkpoint`], checkpoint cover traffic, and the watchdog's
//! demotion to a per-segment backstop.

use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Transaction, TxResult};
use tape_hevm::{Hevm, HevmAbort, HevmConfig, SliceOutcome};
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

/// A compute burner: loops `n` times (~26 gas each), then writes a
/// storage slot, emits a log, and returns 42 — enough side effects to
/// make receipt comparison meaningful.
fn burner(n: u64) -> Vec<u8> {
    Asm::new()
        .push(n)
        .label("loop")
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .op(op::DUP1)
        .jumpi("loop")
        .op(op::POP)
        .push(0xBEEFu64)
        .push(1u64)
        .op(op::SSTORE)
        .push(0u64)
        .push(0u64)
        .op(op::LOG0)
        .push(42u64)
        .ret_top()
        .build()
}

fn burner_tx() -> Transaction {
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 2_000_000;
    tx
}

fn sliced(gas_slice: u64) -> HevmConfig {
    HevmConfig { gas_slice: Some(gas_slice), ..HevmConfig::default() }
}

/// A config with a tiny layer 2 so deep call stacks spill to layer 3.
fn tiny_layer2(gas_slice: Option<u64>) -> HevmConfig {
    HevmConfig {
        mem: MemoryConfig { layer2_bytes: 128 * 1024, ..MemoryConfig::default() },
        gas_slice,
        ..HevmConfig::default()
    }
}

/// Code that expands Memory to `kb` kilobytes then self-calls.
fn memory_hog(kb: u64) -> Vec<u8> {
    Asm::new()
        .push(1u64)
        .push(kb * 1024 - 32)
        .op(op::MSTORE)
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
fn sliced_transact_matches_uninterrupted_receipt() {
    let b = backend(burner(40_000));
    let tx = burner_tx();

    let mut plain = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    let expected = plain.transact(&tx).unwrap();
    assert!(expected.success, "halt: {:?}", expected.halt);

    let mut segmented = Hevm::new(sliced(100_000), Env::default(), &b, Clock::new());
    let actual = segmented.transact(&tx).unwrap();
    assert_eq!(expected, actual);
}

#[test]
fn transact_sliced_yields_then_finishes_in_place() {
    let b = backend(burner(40_000));
    let tx = burner_tx();
    let mut hevm = Hevm::new(sliced(100_000), Env::default(), &b, Clock::new());

    let mut outcome = hevm.transact_sliced(&tx).unwrap();
    let mut segments = 1u32;
    let result = loop {
        match outcome {
            SliceOutcome::Done(result) => break result,
            SliceOutcome::Preempted { segment } => {
                assert_eq!(segment, segments, "segments count up from 1");
                segments += 1;
                outcome = hevm.continue_transact().unwrap();
            }
        }
    };
    assert!(result.success);
    // ~1M gas over 100k slices: many yields, not one lucky finish.
    assert!(segments >= 5, "only {segments} segments for a 1M-gas burner");
}

#[test]
fn suspend_resume_produces_byte_identical_receipt() {
    let b = backend(burner(40_000));
    let tx = burner_tx();

    let mut plain = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    let expected = plain.transact(&tx).unwrap();

    // Drive through suspend/resume at *every* slice boundary — the
    // harshest schedule — and require the identical receipt.
    let config = sliced(100_000);
    let clock = Clock::new();
    let mut hevm = Hevm::new(config.clone(), Env::default(), &b, clock.clone());
    let mut outcome = hevm.transact_sliced(&tx).unwrap();
    let mut suspensions = 0u32;
    let actual = loop {
        match outcome {
            SliceOutcome::Done(result) => break result,
            SliceOutcome::Preempted { .. } => {
                let (reader, checkpoint) = hevm.suspend();
                assert!(checkpoint.remaining_gas() > 0);
                suspensions += 1;
                hevm = Hevm::resume(
                    config.clone(),
                    Env::default(),
                    reader,
                    clock.clone(),
                    checkpoint,
                );
                outcome = hevm.continue_transact().unwrap();
            }
        }
    };
    assert!(suspensions >= 5, "only {suspensions} suspensions");
    assert_eq!(expected, actual);
}

#[test]
fn suspend_resume_with_deep_spilled_stack() {
    // A recursive memory hog over a tiny layer 2: the checkpoint must
    // carry frames that are *already* sealed in layer 3 alongside the
    // resident ones, and the sealed store must survive the hop.
    let b = backend(memory_hog(2));
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 8_000_000;

    let mut plain = Hevm::new(tiny_layer2(None), Env::default(), &b, Clock::new());
    let expected = plain.transact(&tx).unwrap();

    let config = tiny_layer2(Some(50_000));
    let clock = Clock::new();
    let mut hevm = Hevm::new(config.clone(), Env::default(), &b, clock.clone());
    let mut outcome = hevm.transact_sliced(&tx).unwrap();
    let mut suspensions = 0u32;
    let actual = loop {
        match outcome {
            SliceOutcome::Done(result) => break result,
            SliceOutcome::Preempted { .. } => {
                let (reader, checkpoint) = hevm.suspend();
                suspensions += 1;
                hevm = Hevm::resume(
                    config.clone(),
                    Env::default(),
                    reader,
                    clock.clone(),
                    checkpoint,
                );
                outcome = hevm.continue_transact().unwrap();
            }
        }
    };
    assert!(suspensions >= 1, "hog never preempted");
    assert_eq!(expected, actual);
    assert!(hevm.stats().max_depth > 3);
}

#[test]
fn checkpoint_cover_seals_resident_frames() {
    let b = backend(burner(40_000));
    let tx = burner_tx();
    let mut hevm = Hevm::new(sliced(100_000), Env::default(), &b, Clock::new());

    let outcome = hevm.transact_sliced(&tx).unwrap();
    assert!(matches!(outcome, SliceOutcome::Preempted { .. }));
    let swaps_before = hevm.swap_log().len();
    let (_, mut checkpoint) = hevm.suspend();

    // The single resident frame was sealed out: one cover swap.
    assert_eq!(checkpoint.suspended_frames(), 1);
    assert_eq!(checkpoint.covered_frames(), 1);
    let log = checkpoint.take_swap_log();
    assert_eq!(log.len(), swaps_before + 1, "suspension must emit cover swaps");
    let boundary = log.last().unwrap();
    assert!(boundary.pages_out > 0 && boundary.true_pages_out > 0);
    // Noised like any ordinary spill: observed ≥ true.
    assert!(boundary.pages_out >= boundary.true_pages_out);
}

/// Runs the sliced burner to its first yield, suspends (sealing the
/// resident frame out as cover) and resumes. With `tamper`, the
/// untrusted layer-3 store flips one bit of every ciphertext written
/// after that first yield — armed through the same [`FaultPlan`] the
/// failure matrix uses, so the cover frame is the one it corrupts.
fn resume_after_cover(tamper: bool) -> Result<TxResult, HevmAbort> {
    let b = backend(burner(40_000));
    let tx = burner_tx();
    let clock = Clock::new();
    let plan = FaultPlan::new(7, &clock);
    let config = HevmConfig { faults: Some(plan.clone()), ..sliced(100_000) };
    let mut hevm = Hevm::new(config.clone(), Env::default(), &b, clock.clone());

    let outcome = hevm.transact_sliced(&tx)?;
    assert!(matches!(outcome, SliceOutcome::Preempted { segment: 1 }));
    if tamper {
        plan.arm(FaultSite::PageStore, &[FaultKind::BitFlip], 1, 1);
    }
    let (reader, checkpoint) = hevm.suspend();
    assert_eq!(checkpoint.covered_frames(), 1);
    assert_eq!(plan.injected(), usize::from(tamper));
    let mut hevm = Hevm::resume(config.clone(), Env::default(), reader, clock.clone(), checkpoint);
    let mut outcome = hevm.continue_transact()?;
    loop {
        match outcome {
            SliceOutcome::Done(result) => return Ok(result),
            SliceOutcome::Preempted { .. } => outcome = hevm.continue_transact()?,
        }
    }
}

#[test]
fn tampered_checkpoint_cover_frame_fails_its_resume() {
    assert_eq!(resume_after_cover(true), Err(HevmAbort::Layer3Tampered));
}

#[test]
fn untampered_checkpoint_cover_frame_resumes_to_the_unsliced_receipt() {
    let b = backend(burner(40_000));
    let mut plain = Hevm::new(HevmConfig::default(), Env::default(), &b, Clock::new());
    let expected = plain.transact(&burner_tx()).unwrap();
    assert_eq!(resume_after_cover(false), Ok(expected));
}

#[test]
fn checkpoint_cover_ablation_emits_no_swap_traffic() {
    let config = HevmConfig { checkpoint_cover: false, ..sliced(100_000) };
    let b = backend(burner(40_000));
    let tx = burner_tx();
    let mut hevm = Hevm::new(config, Env::default(), &b, Clock::new());

    let outcome = hevm.transact_sliced(&tx).unwrap();
    assert!(matches!(outcome, SliceOutcome::Preempted { .. }));
    let swaps_before = hevm.swap_log().len();
    let (_, mut checkpoint) = hevm.suspend();

    // Negative control: frames held in-enclave, zero bus events — the
    // adversary sees a silent gap the audit lens must flag. The
    // checkpoint still *advertises* the frame it owed cover for.
    assert_eq!(checkpoint.suspended_frames(), 1);
    assert_eq!(checkpoint.covered_frames(), 0);
    assert_eq!(checkpoint.take_swap_log().len(), swaps_before);
}

#[test]
fn watchdog_demoted_to_per_segment_backstop() {
    // A budget shorter than the whole burner but longer than any one
    // segment: un-sliced execution trips it, sliced execution does not —
    // the watchdog now catches stuck *segments*, not long transactions.
    let watchdog = Some(3_000_000);
    let b = backend(burner(40_000));
    let tx = burner_tx();

    let unsliced = HevmConfig { watchdog_ns: watchdog, ..HevmConfig::default() };
    let mut hevm = Hevm::new(unsliced, Env::default(), &b, Clock::new());
    assert!(matches!(hevm.transact(&tx), Err(HevmAbort::Watchdog { .. })));

    let segmented = HevmConfig { watchdog_ns: watchdog, ..sliced(100_000) };
    let mut hevm = Hevm::new(segmented, Env::default(), &b, Clock::new());
    let result = hevm.transact(&tx).unwrap();
    assert!(result.success);
}

#[test]
fn preempted_overlay_discard_is_clean() {
    // Dropping a preempted engine (shed bundle) must leave the backend
    // untouched — the journal overlay simply evaporates.
    let b = backend(burner(40_000));
    let tx = burner_tx();
    let mut hevm = Hevm::new(sliced(100_000), Env::default(), &b, Clock::new());
    let outcome = hevm.transact_sliced(&tx).unwrap();
    assert!(matches!(outcome, SliceOutcome::Preempted { .. }));
    drop(hevm);

    use tape_state::StateReader;
    assert_eq!(b.storage(&contract(), &U256::ONE), U256::ZERO);
}

/// An endless loop (~17 gas, 80 virtual ns an iteration).
fn spinner() -> Vec<u8> {
    Asm::new().label("top").push(1u64).op(op::POP).jump("top").build()
}

#[test]
fn watchdog_fires_at_the_identical_instruction_sliced_or_not() {
    // 50 µs past the per-transaction overhead. Every slice below is
    // longer than that, so no segment ends before the watchdog trips:
    // the sliced engines run their per-instruction slice check, never
    // yield, and must abort exactly where the unsliced engine does.
    let budget = 1_050_000;
    let b = backend(spinner());
    let mut tx = Transaction::call(sender(), contract(), vec![]);
    tx.gas_limit = 5_000_000;

    let run = |gas_slice: Option<u64>| {
        let config = HevmConfig { watchdog_ns: Some(budget), gas_slice, ..HevmConfig::default() };
        let clock = Clock::new();
        let mut hevm = Hevm::new(config, Env::default(), &b, clock.clone());
        let abort = hevm.transact(&tx).unwrap_err();
        (abort, hevm.stats(), clock.now())
    };

    let (abort, stats, now) = run(None);
    assert_eq!(abort, HevmAbort::Watchdog { budget_ns: budget });
    // Recorded on the stepwise driver: the first instruction whose
    // predecessor pushed the clock past the deadline.
    assert_eq!(stats.instructions, 2_376);
    assert_eq!(now, 1_050_010);
    for gas_slice in [25_000, 1_000_000, u64::MAX] {
        assert_eq!(run(Some(gas_slice)), (abort.clone(), stats, now), "gas_slice {gas_slice}");
    }
}

#[test]
fn gas_slice_changes_neither_receipt_nor_stats_nor_clock() {
    // In-place continuation costs nothing on the virtual clock, so any
    // slice length must reproduce the unsliced run exactly — over a flat
    // loop and over a deep stack that spills to layer 3.
    let mut hog_tx = Transaction::call(sender(), contract(), vec![]);
    hog_tx.gas_limit = 3_000_000;
    for (code, tx, base) in [
        (burner(20_000), burner_tx(), HevmConfig::default()),
        (memory_hog(2), hog_tx, tiny_layer2(None)),
    ] {
        let b = backend(code);
        let run = |gas_slice: Option<u64>| {
            let clock = Clock::new();
            let config = HevmConfig { gas_slice, ..base.clone() };
            let mut hevm = Hevm::new(config, Env::default(), &b, clock.clone());
            let result = hevm.transact(&tx).unwrap();
            (result, hevm.stats(), clock.now(), hevm.swap_log().to_vec())
        };
        let unsliced = run(None);
        assert!(unsliced.0.success, "halt: {:?}", unsliced.0.halt);
        for gas_slice in [1, 997, 7_777, 100_000, 10_000_000] {
            assert_eq!(run(Some(gas_slice)), unsliced, "gas_slice {gas_slice}");
        }
    }
}
