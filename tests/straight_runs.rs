//! The HEVM's straight-line run information against a naive
//! recomputation, at every instruction start of the evaluation set's
//! contracts and of the differential fuzzer's byte soup. (The reference
//! engine steps one instruction at a time and has no runs.)
//!
//! A run is what the HEVM executes after one entry check: a maximal
//! stretch of pure instructions, optionally closed by `JUMP` or `JUMPI`.
//! Its instruction count, static gas, HEVM virtual time, the stack words
//! it needs on entry and the highest it climbs must all equal what
//! walking the stretch one instruction at a time gives — and that walk
//! finds the entry stack need by trying heights 0, 1, 2, … in turn.

use tape_crypto::prop::Gen;
use tape_evm::opcode::{self, op};
use tape_sim::CostModel;
use tape_state::Code;
use tape_workload::evalset::{EvalSet, EvalSetConfig};

/// The pure instructions, listed out.
fn pure(byte: u8) -> bool {
    matches!(byte, 0x01..=0x09 | 0x0b | 0x10..=0x1d | 0x50 | 0x58 | 0x5b | 0x5f..=0x9f)
}

/// Push-data bytes following `byte`.
fn immediate(byte: u8) -> usize {
    if (0x60..=0x7f).contains(&byte) {
        usize::from(byte - 0x5f)
    } else {
        0
    }
}

/// Every instruction start of `code`, in order.
fn starts(code: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pc = 0;
    while pc < code.len() {
        out.push(pc);
        pc += 1 + immediate(code[pc]);
    }
    out
}

/// The run at `pc`, one instruction at a time.
#[derive(Debug, PartialEq)]
struct Naive {
    count: u32,
    gas: u32,
    ns: u64,
    need: u32,
    peak: u32,
}

fn naive(code: &[u8], pc: usize, cost: &CostModel) -> Naive {
    let mut ops = Vec::new();
    let mut at = pc;
    while let Some(&byte) = code.get(at) {
        let closes = byte == op::JUMP || byte == op::JUMPI;
        if !closes && !pure(byte) {
            break;
        }
        ops.push(byte);
        if closes {
            break;
        }
        at += 1 + immediate(byte);
    }
    // The climb above an entry height `h0`; `None` on underflow.
    let climb = |h0: i64| {
        let (mut h, mut top) = (h0, h0);
        for &byte in &ops {
            let info = opcode::info(byte);
            if h < i64::from(info.inputs) {
                return None;
            }
            h += i64::from(info.outputs) - i64::from(info.inputs);
            top = top.max(h);
        }
        Some(top - h0)
    };
    let need = (0..).find(|&h0| climb(h0).is_some()).expect("some height suffices");
    Naive {
        count: ops.len() as u32,
        gas: ops.iter().map(|&b| opcode::info(b).base_gas as u32).sum(),
        ns: ops.iter().map(|&b| cost.hevm_instruction_ns(b)).sum(),
        need: need as u32,
        peak: climb(need).expect("`need` suffices") as u32,
    }
}

/// Checks the HEVM at every instruction start of `code`, and the
/// image's jump destinations against the instruction starts.
fn check_code(code: &[u8], what: &str) {
    let cost = CostModel::default();
    let image = Code::new(code.to_vec());
    let starts = starts(code);
    for &pc in &starts {
        let hevm = tape_hevm::Run::at(code, pc, &cost);
        let got =
            Naive { count: hevm.count, gas: hevm.gas, ns: hevm.ns, need: hevm.need, peak: hevm.peak };
        assert_eq!(got, naive(code, pc, &cost), "{what}: HEVM run at pc {pc}");
    }
    // Push data is never an instruction start, so never a destination.
    for (pc, &byte) in code.iter().enumerate() {
        let valid = byte == op::JUMPDEST && starts.binary_search(&pc).is_ok();
        assert_eq!(image.jumpdests().is_valid(pc), valid, "{what}: JUMPDEST at {pc}");
    }
}

#[test]
fn hevm_pure_instructions_are_the_listed_ones() {
    for byte in 0..=u8::MAX {
        assert_eq!(tape_hevm::is_pure(byte), pure(byte), "{byte:#04x}");
    }
}

#[test]
fn runs_match_at_every_instruction_of_the_evaluation_set() {
    let set = EvalSet::generate(&EvalSetConfig {
        blocks: 0,
        txs_per_block: 0,
        users: 4,
        tokens: 2,
        seed: 7,
    });
    let mut contracts = 0;
    for (address, account) in set.genesis.iter() {
        if !account.code.is_empty() {
            check_code(&account.code, &format!("contract {address}"));
            contracts += 1;
        }
    }
    assert!(contracts >= 8, "only {contracts} contracts");
}

#[test]
fn runs_match_at_every_instruction_of_the_fuzzed_byte_soup() {
    // The byte soup of `crates/hevm/tests/fuzz_differential.rs`, case
    // for case through its soak length: the same generator names, seeds
    // and first draws.
    for case in 0..20 * 96 {
        let code = Gen::from_seed(format!("random_bytes_agree/{case}").as_bytes()).bytes(0, 200);
        check_code(&code, &format!("random_bytes case {case}"));
        let mut g = Gen::from_seed(format!("biased_opcode_soup_agrees/{case}").as_bytes());
        let code = g.vec_of(1, 150, |g| g.below(0xA5) as u8);
        check_code(&code, &format!("biased_opcode_soup case {case}"));
    }
}

#[test]
fn a_truncated_push_closes_its_run() {
    // PUSH1 1; DUP1; PUSH32 with two of its 32 bytes: the push runs off
    // the end of the code and is the run's last instruction.
    let code = [op::PUSH1, 0x01, op::DUP1, op::PUSH32, 0xAA, 0xBB];
    let cost = CostModel::default();
    check_code(&code, "truncated push");
    let run = tape_hevm::Run::at(&code, 0, &cost);
    assert_eq!((run.count, run.gas, run.need, run.peak), (3, 9, 0, 3));
    assert_eq!(tape_hevm::Run::at(&code, 3, &cost).count, 1);
    // A closing JUMP ends the run even with pure code behind it; a
    // non-pure op ends it before itself.
    let code = [op::JUMPDEST, op::JUMP, op::JUMPDEST, op::CALLVALUE, op::POP];
    check_code(&code, "closers");
    assert_eq!(tape_hevm::Run::at(&code, 0, &cost).count, 2);
    assert_eq!(tape_hevm::Run::at(&code, 2, &cost).count, 1);
    assert_eq!(tape_hevm::Run::at(&code, 3, &cost).count, 0);
}
