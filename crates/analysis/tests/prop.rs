//! Property tests: seeded random bytecode generators vs the analyzer.
//!
//! Three generator families exercise the analyzer from different angles:
//!
//! * **Straight-line programs** — random stack-safe opcode sequences with
//!   a locally tracked model depth; the analyzer's worst-case stack bound
//!   must dominate both the model and the depth the real interpreter
//!   observes.
//! * **Structured programs** — random forward-only jump graphs (every
//!   target a `PUSH2` constant), executed through the real EVM; every
//!   taken jump, executed page, and observed stack depth must be covered
//!   by the analyzer's claims, and trailing filler pages must stay out of
//!   the reachability set (the precision the prefetch plans depend on).
//! * **Byte soup** — fully random bytes; the analyzer must stay total,
//!   deterministic, and keep every reported artifact inside the code.

use std::collections::BTreeSet;
use tape_analysis::{analyze, analyze_with, AnalysisConfig, ValueSet};
use tape_crypto::prop::{check, Gen};
use tape_evm::opcode::{self, op};
use tape_evm::{Env, Evm, StructTracer, Transaction};
use tape_primitives::{Address, U256};
use tape_state::{Account, Code, InMemoryState};

fn sender() -> Address {
    Address::from_low_u64(0xAA)
}

fn target() -> Address {
    Address::from_low_u64(0xC0DE)
}

/// Executes `code` as a call and returns the recorded trace steps.
fn trace(code: &[u8], input: Vec<u8>) -> Vec<tape_evm::TraceStep> {
    let mut backend = InMemoryState::new();
    backend.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    backend.put_account(target(), Account::with_code(code.to_vec()));
    let mut evm = Evm::with_inspector(Env::default(), &backend, StructTracer::new());
    // Reverts and out-of-gas halts are fine: the prefix trace still
    // constrains the analyzer.
    let _ = evm.transact(&Transaction::call(sender(), target(), input));
    evm.into_inspector().steps().to_vec()
}

/// Asserts every analyzer claim against an actual execution trace of
/// `code`, restricted to steps inside the target contract.
fn assert_sound_on_trace(code: &[u8], input: Vec<u8>) {
    let a = analyze(code);
    let steps = trace(code, input);
    for (i, step) in steps.iter().enumerate() {
        if step.address != target() {
            continue;
        }
        assert!(
            a.page_reachable(step.pc),
            "pc {} executed on unplanned page (pages {:?}, code {:02x?})",
            step.pc,
            a.reachable_pages,
            code,
        );
        if step.opcode == op::JUMPDEST {
            assert!(a.is_valid_jumpdest(step.pc), "executed JUMPDEST at {} invalid", step.pc);
        }
        let taken = match step.opcode {
            op::JUMP => true,
            op::JUMPI => {
                step.stack.len() >= 2 && step.stack[step.stack.len() - 2] != U256::ZERO
            }
            _ => false,
        };
        if taken {
            // The interpreter lands on a valid destination or faults, and
            // a fault ends the frame: no later step runs at its depth.
            let landed =
                steps.get(i + 1).filter(|next| next.depth == step.depth).map(|next| next.pc);
            let dst = step.stack.last().and_then(|t| t.try_into_usize());
            match dst.filter(|&dst| a.is_valid_jumpdest(dst)) {
                Some(dst) => {
                    // `None`: gas ran out on the jump itself.
                    assert!(
                        landed.is_none_or(|pc| pc == dst),
                        "jump at {} to {dst} went on at {landed:?} (code {code:02x?})",
                        step.pc,
                    );
                    // A VSA-resolved edge set must contain the edge the
                    // interpreter actually took.
                    if let Some(targets) = a.jump_targets.get(&step.pc) {
                        assert!(
                            targets.contains(&dst),
                            "taken edge {} -> {dst} escapes resolved set {targets:?} \
                             (code {code:02x?})",
                            step.pc,
                        );
                    }
                }
                None => assert_eq!(
                    landed,
                    None,
                    "taken jump at {} to {:?} not statically valid, yet the frame went on \
                     (code {code:02x?})",
                    step.pc,
                    step.stack.last(),
                ),
            }
        }
        // Executed storage keys must be in the plan or the plan must
        // have declared itself dynamic.
        if step.opcode == op::SLOAD || step.opcode == op::SSTORE {
            // Soup can reach a storage op with an empty stack; the
            // underflow halts the frame, so there is no access to check.
            if let Some(key) = step.stack.last() {
                assert!(
                    a.state_plan.dynamic || a.state_plan.slots.contains(key),
                    "storage key {key} at pc {} outside plan {:?} (code {code:02x?})",
                    step.pc,
                    a.state_plan.slots,
                );
            }
        }
        if !a.unbounded_stack {
            assert!(
                step.stack.len() <= a.max_stack,
                "observed depth {} at pc {} exceeds bound {} (code {:02x?})",
                step.stack.len(),
                step.pc,
                a.max_stack,
                code,
            );
        }
    }
}

/// Emits a random stack-safe straight-line instruction, updating the
/// model depth. Returns the bytes appended.
fn push_straight_line_op(g: &mut Gen, code: &mut Vec<u8>, depth: &mut usize) {
    // Candidate families gated on the current model depth so execution
    // never underflows; PUSH capped well below 1024.
    let pick = g.below(10);
    match pick {
        0..=3 => {
            // PUSH1..PUSH4 with random immediates.
            let n = g.range(1, 4) as u8;
            code.push(op::PUSH1 + (n - 1));
            for _ in 0..n {
                code.push(g.u8());
            }
            *depth += 1;
        }
        4 if *depth >= 1 && *depth < 1023 => {
            let n = g.below((*depth).min(16) as u64) as u8 + 1;
            code.push(op::DUP1 + (n - 1));
            *depth += 1;
        }
        5 if *depth >= 2 => {
            let n = g.below((*depth - 1).min(16) as u64) as u8 + 1;
            code.push(op::SWAP1 + (n - 1));
        }
        6 if *depth >= 2 => {
            code.push(*g.choose(&[op::ADD, op::MUL, op::SUB, op::AND, op::OR, op::XOR]));
            *depth -= 1;
        }
        7 if *depth >= 1 => {
            code.push(*g.choose(&[op::ISZERO, op::NOT]));
        }
        8 if *depth >= 1 => {
            code.push(op::POP);
            *depth -= 1;
        }
        9 if *depth >= 1 => {
            // CALLDATALOAD keeps depth and feeds the taint lattice.
            code.push(op::CALLDATALOAD);
        }
        _ => {
            code.push(op::PUSH1);
            code.push(g.u8());
            *depth += 1;
        }
    }
}

fn straight_line_stack_bound(scale: u32) {
    check("straight-line stack bound", 64 * scale, |g| {
        let mut code = Vec::new();
        let mut depth = 0usize;
        let mut model_max = 0usize;
        let len = g.range(1, 60);
        for _ in 0..len {
            push_straight_line_op(g, &mut code, &mut depth);
            model_max = model_max.max(depth);
        }
        code.push(op::STOP);

        let a = analyze(&code);
        assert!(!a.unbounded_stack, "straight-line code cannot be unbounded");
        assert!(!a.may_underflow, "generator never underflows, code {code:02x?}");
        assert!(
            a.max_stack >= model_max,
            "bound {} below model max {} for {:02x?}",
            a.max_stack,
            model_max,
            code,
        );
        // Single-path programs admit an exact fixpoint: the bound must
        // not be looser than the model either.
        assert_eq!(a.max_stack, model_max, "bound should be tight for {code:02x?}");

        assert_sound_on_trace(&code, vec![g.u8(); 64]);
    });
}

/// One block of a structured program: a straight-line body plus a
/// forward-only terminator.
struct BlockPlan {
    body: Vec<u8>,
    /// `Some((target_block, conditional))`; `None` means `STOP`.
    jump: Option<(usize, bool)>,
}

fn structured_forward_jumps(scale: u32) {
    check("structured forward jumps", 48 * scale, |g| {
        let block_count = g.range(2, 8) as usize;
        let mut plans = Vec::new();
        for i in 0..block_count {
            let mut body = Vec::new();
            let mut depth = 0usize;
            for _ in 0..g.range(0, 10) {
                push_straight_line_op(g, &mut body, &mut depth);
            }
            // Drain the model stack so JUMPI conditions are explicit
            // pushes and every block is stack-neutral.
            body.extend(std::iter::repeat_n(op::POP, depth));
            let jump = if i + 1 < block_count {
                let target = g.range(i as u64 + 1, block_count as u64) as usize;
                Some((target, g.bool()))
            } else {
                None
            };
            plans.push(BlockPlan { body, jump });
        }

        // Layout pass: JUMPDEST + body + terminator per block, with
        // fixed-width PUSH2 targets so offsets are stable.
        let mut offsets = Vec::with_capacity(block_count);
        let mut at = 0usize;
        for plan in &plans {
            offsets.push(at);
            at += 1 + plan.body.len(); // JUMPDEST + body
            at += match plan.jump {
                Some((_, true)) => 3 + 3 + 1,  // PUSH2 cond-as-target? see emit
                Some((_, false)) => 3 + 1,     // PUSH2 target, JUMP
                None => 1,                     // STOP
            };
        }

        let mut code = Vec::new();
        for plan in &plans {
            code.push(op::JUMPDEST);
            code.extend_from_slice(&plan.body);
            match plan.jump {
                Some((tgt, conditional)) => {
                    let dst = offsets[tgt] as u16;
                    if conditional {
                        // PUSH2 cond, PUSH2 target, JUMPI; fallthrough
                        // lands on the next block's JUMPDEST.
                        code.push(op::PUSH2);
                        code.extend_from_slice(&(g.u8() as u16).to_be_bytes());
                        code.push(op::PUSH2);
                        code.extend_from_slice(&dst.to_be_bytes());
                        code.push(op::JUMPI);
                    } else {
                        code.push(op::PUSH2);
                        code.extend_from_slice(&dst.to_be_bytes());
                        code.push(op::JUMP);
                    }
                }
                None => code.push(op::STOP),
            }
        }

        let a = analyze(&code);
        assert!(!a.unbounded_stack, "forward-only graph must be bounded");
        assert_eq!(
            a.unresolved_jumps, 0,
            "all targets are PUSH2 constants, code {code:02x?}"
        );
        assert_sound_on_trace(&code, vec![]);

        // Precision: a page of trailing non-JUMPDEST filler after the
        // final STOP must stay out of the reachability set — that delta
        // is exactly the ORAM traffic the prefetch plans save.
        let page = 1024usize;
        let mut padded = code.clone();
        padded.extend(std::iter::repeat_n(0xFEu8, 2 * page));
        let pa = analyze_with(&padded, &AnalysisConfig { page_size: page, max_stack_words: 1024 });
        assert!(
            (pa.reachable_pages.len() as u32) < pa.total_pages,
            "filler pages must be unreachable (got {:?} of {})",
            pa.reachable_pages,
            pa.total_pages,
        );
        assert_sound_on_trace(&padded, vec![]);
    });
}

fn byte_soup_totality(scale: u32) {
    check("byte soup totality", 256 * scale, byte_soup_case);
}

fn byte_soup_case(g: &mut Gen) {
    let code = g.bytes(0, 400);
    let a = analyze(&code);
    let b = analyze(&code);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "analysis must be deterministic");

    assert_eq!(a.code_len, code.len());
    assert_eq!(a.total_pages as usize, code.len().div_ceil(a.page_size));
    for &p in &a.reachable_pages {
        assert!(p < a.total_pages.max(1), "page {p} out of range");
    }
    // The analysis judges jumps by the interpreter's own table, at
    // every pc and one past the end.
    let image = Code::new(code.clone());
    for pc in 0..=code.len() {
        assert_eq!(
            a.is_valid_jumpdest(pc),
            image.jumpdests().is_valid(pc),
            "jump table disagrees with the interpreter's at pc {pc} (code {code:02x?})",
        );
    }
    for lint in &a.lints {
        assert!((lint.pc as usize) < code.len(), "lint pc out of range");
    }
    // Every VSA-resolved edge must point at a validated JUMPDEST,
    // and the resolved/unresolved partition must be coherent.
    for (pc, targets) in &a.jump_targets {
        assert!(*pc < code.len(), "resolved jump pc {pc} out of range");
        // An empty edge set is sound only for a jump that faults whenever
        // it is taken, as one does whose destination is a constant pushed
        // right before it that the interpreter's table refuses.
        let faults = pushed_destination(&code, *pc).is_some_and(|dst| {
            !dst.try_into_usize().is_some_and(|dst| image.jumpdests().is_valid(dst))
        });
        assert!(!targets.is_empty() || faults, "resolved jump {pc} with empty edge set");
        for t in targets {
            assert!(
                a.is_valid_jumpdest(*t),
                "resolved edge {pc} -> {t} targets an invalid JUMPDEST",
            );
        }
    }
    assert!(
        a.vsa_resolved_jumps <= a.jump_targets.len(),
        "more multi-target resolutions than resolved jumps",
    );

    // Whatever the soup does when actually executed, the analyzer's
    // claims must survive contact with the interpreter.
    assert_sound_on_trace(&code, g.bytes(0, 64));
}

/// The constant a `PUSH` leaves for the jump at `pc` when the push is
/// the instruction right before it: no path reaches a jump but through
/// the instruction before it, since only a `JUMPDEST` is a jump target.
fn pushed_destination(code: &[u8], pc: usize) -> Option<U256> {
    let mut at = 0;
    let mut before = None;
    while at < pc {
        before = Some(at);
        at += 1 + opcode::immediate_len(code[at]);
    }
    let push = before.filter(|_| at == pc && matches!(code[pc], op::JUMP | op::JUMPI))?;
    match code[push] {
        op::PUSH0 => Some(U256::ZERO),
        byte if opcode::is_push(byte) => Some(U256::from_be_slice(&code[push + 1..pc])),
        _ => None,
    }
}

/// Byte-soup cases 313 and 551 of the 20x soak, replayed from their
/// seeds: each runs or resolves a jump to a pc that is no destination.
#[test]
fn byte_soup_jumps_to_invalid_destinations() {
    let replay = |case: u32| Gen::from_seed(format!("byte soup totality/{case}").as_bytes());
    // 313: `PUSH31 c JUMPI` at pc 30, c no destination, so the jump's one
    // target is invalid and its edge set empty.
    let code = replay(313).bytes(0, 400);
    assert_eq!((code[30], code[62]), (op::PUSH31, op::JUMPI));
    assert_eq!(analyze(&code).jump_targets.get(&62).map(BTreeSet::len), Some(0));
    byte_soup_case(&mut replay(313));
    // 551: `BASEFEE BASEFEE JUMPI` is taken to pc `basefee`, no
    // destination, and the call faults there.
    let code = replay(551).bytes(0, 400);
    assert_eq!(code[..3], [op::BASEFEE, op::BASEFEE, op::JUMPI]);
    byte_soup_case(&mut replay(551));
}

/// Draws a random [`ValueSet`]: mostly small finite sets, sometimes ⊤.
fn gen_value_set(g: &mut Gen) -> ValueSet {
    if g.below(8) == 0 {
        return ValueSet::Top;
    }
    let n = g.range(0, 6) as usize;
    ValueSet::from_values((0..n).map(|_| U256::from(g.below(32))).collect())
}

fn value_set_lattice(scale: u32) {
    check("value-set lattice laws", 256 * scale, |g| {
        let a = gen_value_set(g);
        let b = gen_value_set(g);
        let c = gen_value_set(g);

        // Idempotence, commutativity, associativity.
        assert_eq!(a.join(&a), a, "join must be idempotent: {a:?}");
        assert_eq!(a.join(&b), b.join(&a), "join must commute: {a:?} {b:?}");
        assert_eq!(
            a.join(&b).join(&c),
            a.join(&b.join(&c)),
            "join must associate: {a:?} {b:?} {c:?}",
        );

        // ⊤ absorbs, and joining never loses members: every value of
        // `a` survives into `a ⊔ b` unless the result widened.
        assert!(ValueSet::Top.join(&a).is_top(), "⊤ must absorb {a:?}");
        let joined = a.join(&b);
        if let (Some(av), Some(jv)) = (a.values(), joined.values()) {
            for v in av {
                assert!(jv.contains(v), "join dropped {v} from {a:?} ⊔ {b:?}");
            }
        }

        // map2 on finite sets stays within the capped product and is
        // deterministic across calls.
        let x = a.map2(&b, |p, q| p.wrapping_add(q));
        let y = a.map2(&b, |p, q| p.wrapping_add(q));
        assert_eq!(x, y, "map2 must be deterministic: {a:?} {b:?}");
    });
}

/// A property: runs its tier-1 case count times `scale`.
type Property = fn(u32);

/// Every property, by name.
const PROPERTIES: [(&str, Property); 4] = [
    ("straight_line_stack_bound", straight_line_stack_bound),
    ("structured_forward_jumps", structured_forward_jumps),
    ("byte_soup_totality", byte_soup_totality),
    ("value_set_lattice", value_set_lattice),
];

#[test]
fn straight_line_stack_bound_is_sound_and_tight() {
    straight_line_stack_bound(1);
}

#[test]
fn structured_forward_jumps_are_sound() {
    structured_forward_jumps(1);
}

#[test]
fn analyzer_is_total_and_deterministic_on_byte_soup() {
    byte_soup_totality(1);
}

#[test]
fn value_set_join_is_a_semilattice() {
    value_set_lattice(1);
}

/// The soak: twenty times tier-1's cases per property.
#[test]
#[ignore = "long; scripts/verify.sh --soak runs it in release"]
fn every_property_holds_at_length() {
    for (name, property) in PROPERTIES {
        property(20);
        println!("ANALYSIS_SOAK prop {name}: 20x tier-1 cases hold");
    }
}
