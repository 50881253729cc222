//! Output pin: one keccak over every consumer-visible field of
//! `analyze_with`, across the evaluation set's contract images, the
//! disk-sync workload's padded token and a seeded byte-soup corpus, at
//! the widening caps the service uses (1 024 and 4 096 words).
//!
//! Any change to the analyzer that moves a page plan, a state plan, a
//! stack bound, a lint or a resolved edge moves this digest. A change
//! meant to keep outputs identical (a faster CFG, a cheaper fixpoint)
//! must leave it where it is.

use tape_analysis::{analyze_with, AnalysisConfig, CodeAnalysis};
use tape_crypto::keccak256;
use tape_crypto::prop::Gen;
use tape_evm::opcode::op;
use tape_workload::{contracts, EvalSet, EvalSetConfig};

/// The recorded digest. Re-record only for an intended output change,
/// in its own commit, saying which field moved and why.
const PINNED: &str = "0xf8fb1bc68e1e064bbbc7c5fb13d018aae2e073f8b956f4d733a0f43b830c67f6";

/// The fields a consumer reads: everything except the jump table, which
/// the prop tests check against the interpreter's own at every pc.
fn visible(a: &CodeAnalysis) -> String {
    format!(
        "{} {} {} {} {} {} {} {:?} {} {} {} {:?} {:?} {} {:?} {:?}\n",
        a.code_len,
        a.page_size,
        a.max_stack,
        a.unbounded_stack,
        a.may_underflow,
        a.unresolved_jumps,
        a.vsa_resolved_jumps,
        a.jump_targets,
        a.dynamic_calls,
        a.reads_own_code,
        a.reads_foreign_code,
        a.call_targets,
        a.reachable_pages,
        a.total_pages,
        a.lints,
        a.state_plan,
    )
}

/// Seeded soup biased toward control flow: jumps, `JUMPDEST`s and short
/// pushes of small targets, so the fixpoint has edges to resolve.
fn soup(g: &mut Gen) -> Vec<u8> {
    const CONTROL: [u8; 10] = [
        op::JUMPDEST,
        op::JUMP,
        op::JUMPI,
        op::DUP1,
        op::SWAP1,
        op::CALLDATALOAD,
        op::SLOAD,
        op::SSTORE,
        op::ADD,
        op::STOP,
    ];
    let len = g.range(0, 600) as usize;
    let mut code = Vec::with_capacity(len + 2);
    while code.len() < len {
        match g.below(4) {
            0 => code.push(g.u8()),
            1 => code.extend([op::PUSH1, g.below(len as u64 + 1) as u8]),
            _ => code.push(*g.choose(&CONTROL)),
        }
    }
    code
}

fn corpus() -> Vec<Vec<u8>> {
    let mut images = Vec::new();
    for seed in 1..=3 {
        let set = EvalSet::generate(&EvalSetConfig {
            blocks: 1,
            txs_per_block: 1,
            seed,
            ..EvalSetConfig::default()
        });
        let mut coded: Vec<_> = set
            .genesis
            .iter()
            .filter(|(_, account)| !account.code.is_empty())
            .collect();
        coded.sort_by_key(|(address, _)| **address);
        images.extend(coded.into_iter().map(|(_, account)| account.code.to_vec()));
    }
    images.push(contracts::pad_code(contracts::erc20_runtime(), 3_500));
    let mut g = Gen::from_seed(b"analysis-pin/soup");
    images.extend((0..48).map(|_| soup(&mut g)));
    images
}

#[test]
fn analysis_outputs_are_pinned() {
    let images = corpus();
    let mut transcript = String::new();
    for max_stack_words in [1024, 4096] {
        let config = AnalysisConfig { page_size: 1024, max_stack_words };
        for code in &images {
            transcript.push_str(&visible(&analyze_with(code, &config)));
        }
    }
    let digest = keccak256(transcript.as_bytes()).to_string();
    assert_eq!(digest, PINNED, "{} analyses: analysis outputs moved", 2 * images.len());
}
