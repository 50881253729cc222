//! Differential fuzzing: arbitrary byte soup and structured-random
//! programs must produce *identical* outcomes on the reference engine
//! and the HEVM — same success flag, gas, output, logs, state changes,
//! and structured trace. This is §VI-B pushed past the curated
//! evaluation set into the adversarial corner cases.
//!
//! Tier-1 runs [`CASES`] cases per property on the default hierarchy.
//! The `#[ignore]`d soak at the bottom (`scripts/verify.sh --soak`, in
//! release) runs twenty times as many, then the same generators again
//! on a tiny layer 2 (frames spill to layer 3 and come back), with a
//! small gas slice (every few dozen instructions a segment ends and the
//! next continues in place) and with a gas slice drawn per case from
//! 1..=64 (segments end inside straight-line runs at every offset).
//! One property builds deep stacks on purpose: long straight-line runs
//! entered within a few words of the 1 024-word limit or of the run's
//! need, where every word a run moves is compared at every step.
//! Another loops through a backward `JUMPI`, so the HEVM chains each
//! iteration's run into the next inside one opened stack until a link
//! meets the opened room, an underflow, the limit or the end of its gas.

mod common;

use common::Capped;
use tape_crypto::prop::{check, Gen};
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Evm, Transaction};
use tape_hevm::{Hevm, HevmAbort, HevmConfig, HevmStats};
use tape_primitives::{Address, U256};
use tape_sim::resources::MemoryConfig;
use tape_sim::Clock;
use tape_state::{Account, InMemoryState};

const CASES: u32 = 96;

fn sender() -> Address {
    Address::from_low_u64(0xAA)
}

fn target() -> Address {
    Address::from_low_u64(0xC0DE)
}

fn helper() -> Address {
    Address::from_low_u64(0xCA11)
}

/// The HEVM configuration a property runs against.
#[derive(Default)]
struct Rig {
    config: HevmConfig,
    /// A layer 2 small enough that an honest frame can exceed the
    /// single-frame limit: the HEVM then aborts the bundle (§IV-B), the
    /// reference engine has no such notion, and the case says nothing.
    may_overflow: bool,
    /// Draw the gas slice per case from 1..=64 instead of using the
    /// configured one.
    drawn_slice: bool,
}

impl Rig {
    fn tiny_layer2() -> Self {
        let mem = MemoryConfig { layer2_bytes: 128 * 1024, ..MemoryConfig::default() };
        Rig { config: HevmConfig { mem, ..HevmConfig::default() }, may_overflow: true, ..Rig::default() }
    }

    fn small_slice() -> Self {
        Rig { config: HevmConfig { gas_slice: Some(400), ..HevmConfig::default() }, ..Rig::default() }
    }

    fn drawn_slice() -> Self {
        Rig { drawn_slice: true, ..Rig::default() }
    }
}

/// Runs one case on both engines and returns the HEVM's statistics
/// (`None` when the rig's layer 2 made it abort the bundle). A
/// drawn-slice rig draws the case's gas slice from `g` after the
/// property's own draws, so every rig sees the same programs.
fn run_both(
    rig: &Rig,
    g: &mut Gen,
    code: Vec<u8>,
    helper_code: Vec<u8>,
    input: Vec<u8>,
    gas: u64,
) -> Option<HevmStats> {
    let mut backend = InMemoryState::new();
    backend.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    let mut main = Account::with_code(code);
    main.balance = U256::from(1_000u64);
    main.storage.insert(U256::ONE, U256::from(7u64));
    backend.put_account(target(), main);
    if !helper_code.is_empty() {
        backend.put_account(helper(), Account::with_code(helper_code));
    }

    let mut tx = Transaction::call(sender(), target(), input);
    tx.gas_limit = gas;

    let mut reference = Evm::with_inspector(Env::default(), &backend, Capped::reference(gas));
    let expected = reference.transact(&tx).expect("reference accepts");
    let ref_trace = &reference.inspector().trace;
    let mut config = rig.config.clone();
    if rig.drawn_slice {
        config.gas_slice = Some(g.range(1, 65));
    }
    let capped = Capped::hevm(ref_trace);
    let mut hevm = Hevm::with_inspector(config, Env::default(), &backend, Clock::new(), capped);
    let actual = match hevm.transact(&tx) {
        Err(HevmAbort::MemoryOverflow { .. }) if rig.may_overflow => return None,
        outcome => outcome.expect("hevm accepts"),
    };

    assert_eq!(expected, actual, "tx result");
    let hevm_trace = &hevm.inspector().trace;
    if let Some(step) = ref_trace.first_divergence(hevm_trace) {
        panic!(
            "trace diverges at step {step}:\n  ref:  {:?}\n  hevm: {:?}",
            ref_trace.steps().get(step),
            hevm_trace.steps().get(step)
        );
    }
    assert_eq!(reference.state().changes(), hevm.state().changes(), "state changes");
    Some(hevm.stats())
}

/// Pure byte soup: whatever it does — halt, revert, run off the end —
/// both engines must agree exactly.
fn random_bytes(rig: &Rig, cases: u32) {
    check("random_bytes_agree", cases, |g| {
        let code = g.bytes(0, 200);
        let input = g.bytes(0, 64);
        run_both(rig, g, code, vec![], input, 300_000);
    });
}

/// Byte soup biased toward defined opcodes (higher chance of real
/// execution paths than uniform bytes).
fn biased_opcode_soup(rig: &Rig, cases: u32) {
    check("biased_opcode_soup_agrees", cases, |g| {
        let ops = g.vec_of(1, 150, |g| g.below(0xA5) as u8);
        let input = g.bytes(0, 32);
        run_both(rig, g, ops, vec![], input, 300_000);
    });
}

/// Structured programs: random straight-line stack/ALU/memory work
/// with a proper epilogue, so deep execution paths are exercised
/// (not just early halts).
fn structured_programs(rig: &Rig, cases: u32) {
    const ALU: &[u8] = &[
        op::ADD,
        op::MUL,
        op::SUB,
        op::DIV,
        op::SDIV,
        op::MOD,
        op::SMOD,
        op::AND,
        op::OR,
        op::XOR,
        op::LT,
        op::GT,
        op::SLT,
        op::SGT,
        op::EQ,
        op::SHL,
        op::SHR,
        op::SAR,
        op::BYTE,
        op::SIGNEXTEND,
    ];
    check("structured_programs_agree", cases, |g| {
        let words = g.vec_of(1, 20, |g| g.u64());
        let alu = g.vec_of(0, 30, |g| *g.choose(ALU));
        let store_slot = g.u8();
        let mut asm = Asm::new();
        for w in &words {
            asm = asm.push(*w);
        }
        for binop in &alu {
            // Keep at least one operand on the stack: duplicate first.
            asm = asm.op(op::DUP1).op(*binop);
        }
        let code = asm
            .op(op::DUP1)
            .push(store_slot as u64)
            .op(op::SSTORE)
            .ret_top()
            .build();
        run_both(rig, g, code, vec![], vec![], 500_000);
    });
}

/// Random cross-contract calls: the helper runs random (possibly
/// crashing) code; the caller forwards random gas and input, then
/// stores the success flag.
fn random_subcalls(rig: &Rig, cases: u32) {
    check("random_subcalls_agree", cases, |g| {
        let helper_code = g.bytes(0, 100);
        let call_gas = g.below(200_000);
        let value = g.below(2_000);
        let out_len = g.below(64);
        let code = Asm::new()
            .push(out_len)
            .push(0u64)
            .push(4u64) // in len
            .push(0u64) // in offset
            .push(value)
            .push_address(helper())
            .push(call_gas)
            .op(op::CALL)
            .push(9u64)
            .op(op::SSTORE)
            .op(op::RETURNDATASIZE)
            .ret_top()
            .build();
        run_both(rig, g, code, helper_code, vec![0xAB; 4], 400_000);
    });
}

/// Random memory traffic: MSTORE/MLOAD/MCOPY/KECCAK over arbitrary
/// (bounded) offsets, exercising expansion metering in both engines.
fn random_memory_traffic(rig: &Rig, cases: u32) {
    check("random_memory_traffic_agrees", cases, |g| {
        let ops = g.vec_of(1, 25, |g| (g.below(5) as u8, g.below(4096), g.below(4096)));
        let mut asm = Asm::new();
        for (kind, a, b) in &ops {
            asm = match kind {
                0 => asm.push(*a).push(*b).op(op::MSTORE),
                1 => asm.push(*a).op(op::MLOAD).op(op::POP),
                2 => asm.push(*a).push(*b).op(op::MSTORE8),
                3 => asm.push(64u64).push(*a).push(*b).op(op::MCOPY),
                _ => asm.push(32u64).push(*a).op(op::KECCAK256).op(op::POP),
            };
        }
        run_both(rig, g, asm.op(op::MSIZE).ret_top().build(), vec![], vec![], 2_000_000);
    });
}

/// Tight gas limits: out-of-gas must strike at the same instruction
/// in both engines (verified via identical traces and gas_used).
fn gas_exhaustion(rig: &Rig, cases: u32) {
    check("gas_exhaustion_agrees", cases, |g| {
        let gas = g.range(21_000, 40_000);
        let spin = g.bool();
        let code = if spin {
            Asm::new().label("top").push(1u64).op(op::POP).jump("top").build()
        } else {
            // keccak-heavy straight line.
            let mut asm = Asm::new();
            for i in 0..50u64 {
                asm = asm.push(32u64).push(i * 32).op(op::KECCAK256).op(op::POP);
            }
            asm.stop().build()
        };
        run_both(rig, g, code, vec![], vec![], gas);
    });
}

/// Random self-recursion: every level grows Memory by a random amount,
/// calls itself one level down with a random output window, records the
/// callee's flag and ReturnData size, and returns a random-length slice
/// of its Memory. The one generator that builds a deep stack — on the
/// tiny layer 2 its lower frames spill and are reloaded on the way up.
fn random_recursion(rig: &Rig, cases: u32) {
    let mut swaps = 0;
    check("random_recursion_agrees", cases, |g| {
        let depth = g.below(9);
        let grow = g.below(6 * 1024);
        let out_len = g.below(96);
        let ret_len = g.below(2 * 1024);
        let forward = if g.bool() { u64::MAX } else { g.range(2_000, 400_000) };
        let code = Asm::new()
            .push(0xEEu64)
            .push(grow)
            .op(op::MSTORE8)
            .push(0u64)
            .op(op::CALLDATALOAD) // [n]
            .op(op::DUP1)
            .op(op::ISZERO)
            .jumpi("leaf")
            .op(op::DUP1)
            .push(1u64)
            .op(op::SWAP1)
            .op(op::SUB)
            .push(0u64)
            .op(op::MSTORE) // mem[0] = n - 1
            .push(out_len)
            .push(64u64)
            .push(32u64)
            .push(0u64)
            .push(0u64)
            .op(op::ADDRESS)
            .push(forward)
            .op(op::CALL) // [n, ok]
            .op(op::RETURNDATASIZE)
            .op(op::ADD)
            .op(op::SWAP1)
            .op(op::SSTORE) // storage[n] = ok + returndatasize
            .push(ret_len)
            .push(0u64)
            .op(op::RETURN)
            .label("leaf")
            .push(ret_len)
            .push(0u64)
            .op(op::RETURN)
            .build();
        let input = U256::from(depth).to_be_bytes().to_vec();
        if let Some(stats) = run_both(rig, g, code, vec![], input, 3_000_000) {
            swaps += stats.swaps;
        }
    });
    assert!(swaps > 0 || !rig.may_overflow, "the tiny layer 2 never spilled a frame");
}

/// The pure ALU ops a straight-line run can hold.
const RUN_ALU: &[u8] = &[
    op::ADD,
    op::MUL,
    op::SUB,
    op::DIV,
    op::SDIV,
    op::MOD,
    op::SMOD,
    op::ADDMOD,
    op::MULMOD,
    op::SIGNEXTEND,
    op::LT,
    op::GT,
    op::SLT,
    op::SGT,
    op::EQ,
    op::ISZERO,
    op::AND,
    op::OR,
    op::XOR,
    op::NOT,
    op::BYTE,
    op::SHL,
    op::SHR,
    op::SAR,
];

/// A word with exactly one nonzero limb, all ones, zero, a small value
/// (a shift amount, a byte index) or arbitrary.
fn run_word(g: &mut Gen) -> U256 {
    match g.below(5) {
        0 => {
            let mut limbs = [0; 4];
            limbs[g.index(4)] = g.u64() | 1 << g.below(64);
            U256::from_limbs(limbs)
        }
        1 => U256::MAX,
        2 => U256::ZERO,
        3 => U256::from(g.below(300)),
        _ => U256::from_limbs([g.u64(), g.u64(), g.u64(), g.u64()]),
    }
}

/// Deep straight-line runs: a body of DUP1–16, SWAP1–16, PUSH1–32 and
/// ALU ops closed by a JUMPI, entered (after a `JUMP`, so it is a run of
/// its own) at a height within two words of the body's need or of the
/// height at which its peak touches the 1 024-word limit — on both
/// sides, so the per-instruction path meets the underflow and overflow
/// the entry check refused. Traces include every stack snapshot.
fn deep_straight_runs(rig: &Rig, cases: u32) {
    check("deep_straight_runs_agree", cases, |g| {
        let mut body = Asm::new();
        let (mut height, mut need, mut peak) = (0i64, 0i64, 0i64);
        let mut step = |inputs: i64, outputs: i64| {
            need = need.max(inputs - height);
            height += outputs - inputs;
            peak = peak.max(height);
        };
        for _ in 0..g.range(16, 160) {
            body = match g.below(10) {
                0..=2 => {
                    let n = g.range(1, 17) as u8;
                    step(i64::from(n), i64::from(n) + 1);
                    body.op(op::DUP1 + n - 1)
                }
                3..=5 => {
                    let n = g.range(1, 17) as u8;
                    step(i64::from(n) + 1, i64::from(n) + 1);
                    body.op(op::SWAP1 + n - 1)
                }
                6 => {
                    let value = run_word(g);
                    let least = value.to_be_bytes_trimmed().len().max(1) as u64;
                    step(0, 1);
                    body.push_width(value, g.range(least, 33) as usize)
                }
                _ => {
                    let alu = *g.choose(RUN_ALU);
                    let info = tape_evm::opcode::info(alu);
                    step(i64::from(info.inputs), i64::from(info.outputs));
                    body.op(alu)
                }
            };
        }
        // The condition is whatever the body left on top.
        step(1, 1);
        let (need, peak) = (need as usize, peak.max(height + 1) as usize);
        let room = 1024usize.saturating_sub(peak);
        let near = if g.bool() { need } else { room.max(need) };
        // One word stays free for the `JUMP` into the body.
        let entry = (near + g.index(5)).saturating_sub(2).min(1023);

        let mut asm = Asm::new();
        for _ in 0..entry {
            asm = asm.push(run_word(g));
        }
        let code = asm
            .jump("body")
            .label("body")
            .ops(&body.build())
            .jumpi("taken")
            .stop()
            .label("taken")
            .ret_top()
            .build();
        run_both(rig, g, code, vec![], vec![], 1_000_000);
    });
}

/// Σ static gas of the instructions in `code`.
fn static_gas(code: &[u8]) -> u64 {
    let (mut pc, mut gas) = (0, 0);
    while let Some(&byte) = code.get(pc) {
        gas += tape_evm::opcode::info(byte).base_gas;
        pc += 1 + tape_evm::opcode::immediate_len(byte);
    }
    gas
}

/// The stack extremes of a stretch of instructions, relative to its
/// entry height.
#[derive(Default)]
struct Shape {
    height: i64,
    need: i64,
    peak: i64,
}

impl Shape {
    /// Follows `ops` (opcodes only: immediates are not needed here).
    fn step(&mut self, ops: &[u8]) {
        for &byte in ops {
            let info = tape_evm::opcode::info(byte);
            let (inputs, outputs) = (i64::from(info.inputs), i64::from(info.outputs));
            self.need = self.need.max(inputs - self.height);
            self.height += outputs - inputs;
            self.peak = self.peak.max(self.height);
        }
    }
}

/// One gadget of a loop body, working under the counter on top:
/// 0 adds a word (a push), 1 adds a word (a copy), 2 drops one, 3 folds
/// one or two away with an ALU op, anything else trades two places.
fn loop_gadget(g: &mut Gen, kind: u64, shape: &mut Shape, body: Asm) -> Asm {
    let ops = match kind {
        0 => {
            let value = run_word(g);
            let least = value.to_be_bytes_trimmed().len().max(1) as u64;
            shape.step(&[op::PUSH1, op::SWAP1]);
            return body.push_width(value, g.range(least, 33) as usize).op(op::SWAP1);
        }
        1 => vec![op::DUP1 + g.range(1, 16) as u8, op::SWAP1],
        2 => vec![op::SWAP1, op::POP],
        3 => {
            let alu = *g.choose(RUN_ALU);
            vec![op::SWAP1 + tape_evm::opcode::info(alu).inputs - 1, alu, op::SWAP1]
        }
        _ => vec![op::SWAP1, op::SWAP1 + g.range(1, 15) as u8, op::SWAP1],
    };
    shape.step(&ops);
    body.ops(&ops)
}

/// Looping runs: a loop body of pure instructions closed by a backward
/// `JUMPI` runs a drawn number of iterations, so the HEVM chains each
/// iteration's run into the next inside one opened stack. A counter
/// rides on top, the body's gadgets work below it, and an iteration
/// changes the stack by a drawn −1 to +2 words, so a link meets the
/// room the chain opened, an underflow or the 1 024-word limit. The
/// loop is entered through the `JUMP` that closes the prefix (whose
/// spare pushes and pops set the room) at a height near the body's need
/// or near the limit, and half the cases draw a gas limit that runs out
/// partway through the loop.
fn looping_runs(rig: &Rig, cases: u32) {
    check("looping_runs_agree", cases, |g| {
        let (mut body, mut shape) = (Asm::new(), Shape::default());
        for _ in 0..g.below(7) {
            let kind = g.below(5);
            body = loop_gadget(g, kind, &mut shape, body);
        }
        let net = g.range(0, 4) as i64 - 1;
        while shape.height != net {
            let kind = if shape.height < net { 0 } else { 2 };
            body = loop_gadget(g, kind, &mut shape, body);
        }
        // The counter: decremented, and the loop taken while nonzero.
        shape.step(&[op::PUSH1, op::SWAP1, op::SUB, op::DUP1, op::PUSH2, op::JUMPI]);
        let body = body.push(1u64).op(op::SWAP1).op(op::SUB).op(op::DUP1).build();
        let (need, peak) = (shape.need as usize, shape.peak as usize);

        // Heights below the counter, which is one of the words the body
        // needs on entry.
        let near = if g.bool() { need } else { 1024usize.saturating_sub(peak).max(need) };
        let entry = (near + g.index(5)).saturating_sub(3).min(1021);
        let spare = g.index((1022 - entry).min(48));
        let iterations = g.range(1, 25);
        let mut asm = Asm::new();
        for _ in 0..entry + spare {
            asm = asm.push(run_word(g));
        }
        for _ in 0..spare {
            asm = asm.op(op::POP);
        }
        let asm = asm.push(iterations).jump("loop");
        let prefix = asm.len();
        let asm = asm.label("loop").ops(&body).jumpi("loop");
        let looped = asm.len();
        let code = asm.op(op::POP).ret_top().build();
        let gas = if g.bool() {
            1_000_000
        } else {
            let iteration = static_gas(&code[prefix..looped]);
            21_000 + static_gas(&code[..prefix]) + g.below(iterations * iteration)
        };
        run_both(rig, g, code, vec![], vec![], gas);
    });
}

/// A property: runs `cases` seeded cases against a rig.
type Property = fn(&Rig, u32);

/// Every property, by name.
const PROPERTIES: [(&str, Property); 9] = [
    ("random_bytes", random_bytes),
    ("biased_opcode_soup", biased_opcode_soup),
    ("structured_programs", structured_programs),
    ("random_subcalls", random_subcalls),
    ("random_memory_traffic", random_memory_traffic),
    ("gas_exhaustion", gas_exhaustion),
    ("random_recursion", random_recursion),
    ("deep_straight_runs", deep_straight_runs),
    ("looping_runs", looping_runs),
];

#[test]
fn random_bytes_agree() {
    random_bytes(&Rig::default(), CASES);
}

#[test]
fn biased_opcode_soup_agrees() {
    biased_opcode_soup(&Rig::default(), CASES);
}

#[test]
fn structured_programs_agree() {
    structured_programs(&Rig::default(), CASES);
}

#[test]
fn random_subcalls_agree() {
    random_subcalls(&Rig::default(), CASES);
}

#[test]
fn random_memory_traffic_agrees() {
    random_memory_traffic(&Rig::default(), CASES);
}

#[test]
fn gas_exhaustion_agrees() {
    gas_exhaustion(&Rig::default(), CASES);
    gas_exhaustion(&Rig::drawn_slice(), CASES);
}

#[test]
fn random_recursion_agrees() {
    random_recursion(&Rig::default(), CASES);
    random_recursion(&Rig::tiny_layer2(), CASES);
}

#[test]
fn deep_straight_runs_agree() {
    deep_straight_runs(&Rig::default(), CASES);
    deep_straight_runs(&Rig::drawn_slice(), CASES);
}

#[test]
fn looping_runs_agree() {
    looping_runs(&Rig::default(), CASES);
    looping_runs(&Rig::drawn_slice(), CASES);
}

/// The soak: twenty times tier-1's cases per property, on the default
/// hierarchy, on a tiny layer 2, with a small gas slice and with a gas
/// slice drawn per case.
#[test]
#[ignore = "long; scripts/verify.sh --soak runs it in release"]
fn every_property_holds_at_length_and_under_pressure() {
    for (rig_name, rig) in [
        ("default", Rig::default()),
        ("tiny_layer2", Rig::tiny_layer2()),
        ("small_slice", Rig::small_slice()),
        ("drawn_slice", Rig::drawn_slice()),
    ] {
        for (name, property) in PROPERTIES {
            property(&rig, 20 * CASES);
            println!("FUZZ_SOAK {rig_name} {name}: {} cases agree", 20 * CASES);
        }
    }
}
