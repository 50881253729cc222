//! Differential testing: the static analyzer vs the reference
//! interpreter over the evaluation workload.
//!
//! Every claim the analyzer makes must hold on real executions:
//!
//! * **Jump soundness** — every jump the interpreter actually takes
//!   lands on a `JUMPDEST` the analyzer validated.
//! * **Edge-set soundness** — when the value-set layer resolved a jump
//!   to a precise target set, the interpreter-taken edge is a member of
//!   that set (a miss would make the VSA-pruned CFG unsound).
//! * **State-plan soundness** — every storage key the interpreter
//!   executes an `SLOAD`/`SSTORE` against is either enumerated in the
//!   contract's state prefetch plan or the plan is marked `dynamic`;
//!   same for `BALANCE`/`EXTCODE*` address operands vs the plan's
//!   account set (the property the §IV-D kv audit enforces at runtime).
//! * **Stack-bound soundness** — the observed per-frame operand-stack
//!   depth never exceeds the analyzer's worst-case bound.
//! * **Page-reachability coverage** — every executed program counter
//!   sits on a page the analyzer declared reachable (the property the
//!   prefetch plans and the telemetry cross-check rely on).

use std::collections::HashMap;
use tape_analysis::{analyze, CodeAnalysis};
use tape_evm::opcode::op;
use tape_evm::{Evm, StructTracer};
use tape_primitives::{Address, U256};
use tape_state::StateReader as _;
use tape_workload::{EvalSet, EvalSetConfig};

/// Lazily analyzes the code behind `address` from the genesis state.
fn analysis_for<'a>(
    cache: &'a mut HashMap<Address, CodeAnalysis>,
    set: &EvalSet,
    address: Address,
) -> &'a CodeAnalysis {
    cache
        .entry(address)
        .or_insert_with(|| analyze(&set.genesis.code(&address)))
}

/// Checks every analyzer claim against every step of `sets` small
/// evaluation sets, drawn from consecutive seeds starting at the small
/// configuration's own.
fn workload_claims(sets: u64) {
    let mut steps_checked = 0usize;
    let mut jumps_checked = 0usize;
    let mut edges_checked = 0usize;
    let mut keys_checked = 0usize;
    for k in 0..sets {
        let small = EvalSetConfig::small();
        let set = EvalSet::generate(&EvalSetConfig { seed: small.seed + k, ..small });
        let mut cache: HashMap<Address, CodeAnalysis> = HashMap::new();
        for block in &set.blocks {
            for tx in block {
                let mut evm =
                    Evm::with_inspector(set.env.clone(), &set.genesis, StructTracer::new());
                // Failures are fine (reverts happen in the workload); the
                // trace up to the failure still constrains the analyzer.
                let _ = evm.transact(tx);
                let tracer = evm.into_inspector();
                for step in tracer.steps() {
                    let a = analysis_for(&mut cache, &set, step.address);
                    steps_checked += 1;

                    // Coverage: the executed pc's page was declared
                    // reachable — a miss here means the ORAM plan would
                    // zero-fill code the interpreter actually ran.
                    assert!(
                        a.page_reachable(step.pc),
                        "pc {} of {} executed on an unplanned page (pages {:?})",
                        step.pc,
                        step.address,
                        a.reachable_pages,
                    );

                    // Every executed JUMPDEST must be one the analyzer
                    // validated (push-data bytes cannot masquerade).
                    if step.opcode == op::JUMPDEST {
                        assert!(
                            a.is_valid_jumpdest(step.pc),
                            "executed JUMPDEST at pc {} of {} not statically valid",
                            step.pc,
                            step.address,
                        );
                    }

                    // Taken jump targets must be statically valid.
                    let taken = match step.opcode {
                        op::JUMP => true,
                        op::JUMPI => {
                            step.stack.len() >= 2
                                && step.stack[step.stack.len() - 2] != U256::ZERO
                        }
                        _ => false,
                    };
                    if taken {
                        let target = step.stack.last().expect("jump has a target operand");
                        let target = target.try_into_usize().expect("in-range target");
                        jumps_checked += 1;
                        assert!(
                            a.is_valid_jumpdest(target),
                            "interpreter jumped to pc {target} of {} which the analyzer \
                             does not consider a valid JUMPDEST",
                            step.address,
                        );
                        // When the value-set layer claimed a precise edge
                        // set for this jump, the taken edge must be in it;
                        // jumps absent from the map are covered by the full
                        // JUMPDEST table, which the assert above checked.
                        if let Some(targets) = a.jump_targets.get(&step.pc) {
                            edges_checked += 1;
                            assert!(
                                targets.contains(&target),
                                "taken edge {} -> {target} of {} escapes the resolved \
                                 target set {targets:?}",
                                step.pc,
                                step.address,
                            );
                        }
                    }

                    // Executed storage keys must be advertised by the plan
                    // unless the plan already declared itself dynamic.
                    if step.opcode == op::SLOAD || step.opcode == op::SSTORE {
                        let key = *step.stack.last().expect("storage op has a key operand");
                        keys_checked += 1;
                        assert!(
                            a.state_plan.dynamic || a.state_plan.slots.contains(&key),
                            "executed storage key {key} at pc {} of {} is neither in the \
                             plan {:?} nor covered by a dynamic declaration",
                            step.pc,
                            step.address,
                            a.state_plan.slots,
                        );
                    }
                    if matches!(
                        step.opcode,
                        op::BALANCE | op::EXTCODESIZE | op::EXTCODEHASH | op::EXTCODECOPY
                    ) {
                        let word = *step.stack.last().expect("account op has an operand");
                        let account = Address::from_word(word);
                        assert!(
                            a.state_plan.dynamic || a.state_plan.accounts.contains(&account),
                            "queried account {account} at pc {} of {} is neither in the \
                             plan {:?} nor covered by a dynamic declaration",
                            step.pc,
                            step.address,
                            a.state_plan.accounts,
                        );
                    }

                    // Stack-bound soundness: observed depth ≤ static bound.
                    assert!(
                        !a.unbounded_stack,
                        "workload contract {} reported as unbounded",
                        step.address
                    );
                    assert!(
                        step.stack.len() <= a.max_stack,
                        "observed stack depth {} at pc {} of {} exceeds static bound {}",
                        step.stack.len(),
                        step.pc,
                        step.address,
                        a.max_stack,
                    );
                }
            }
        }
    }

    assert!(steps_checked > 10_000, "workload too small: {steps_checked} steps");
    assert!(jumps_checked > 200, "workload too small: {jumps_checked} jumps");
    assert!(edges_checked > 0, "no VSA-resolved edge was ever exercised");
    assert!(keys_checked > 50, "workload too small: {keys_checked} storage keys");
}

#[test]
fn analyzer_claims_hold_on_every_workload_execution() {
    workload_claims(1);
}

/// The soak: twenty times tier-1's evaluation sets.
#[test]
#[ignore = "long; scripts/verify.sh --soak runs it in release"]
fn workload_claims_hold_at_length() {
    workload_claims(20);
    println!("ANALYSIS_SOAK differential workload_claims: 20x tier-1 cases hold");
}

#[test]
fn workload_analyses_are_precise_where_expected() {
    let set = EvalSet::generate(&EvalSetConfig::small());
    let mut cache: HashMap<Address, CodeAnalysis> = HashMap::new();

    // The router CALLs addresses taken from CALLDATA: dynamic targets.
    let router = analysis_for(&mut cache, &set, set.router).clone();
    assert!(router.dynamic_calls, "router callee addresses come from CALLDATA");

    // The deep hopper is padded with unreachable filler: the plan must
    // stay smaller than the padded code (that delta is the traffic the
    // plans save).
    let deep = analysis_for(&mut cache, &set, set.deep_hopper).clone();
    assert!(
        (deep.reachable_pages.len() as u32) < deep.total_pages,
        "padded hopper should have unreachable pages (got {:?} of {})",
        deep.reachable_pages,
        deep.total_pages,
    );

    // CALLDATA-driven dispatch in the token must surface taint lints.
    let token = analysis_for(&mut cache, &set, set.tokens[0]).clone();
    assert!(!token.lints.is_empty(), "CALLDATA-driven dispatch must lint");

    // The jump-soup contract is the VSA showcase: every computed jump
    // resolves to a finite edge set and the storage plan is closed.
    let soup = analysis_for(&mut cache, &set, set.jumpsoup).clone();
    assert_eq!(soup.vsa_resolved_jumps, 3, "all three relays must resolve");
    assert_eq!(soup.unresolved_jumps, 0, "jump soup must not widen");
    assert!(!soup.state_plan.dynamic, "jump-soup slots are all constant");

    // The storage storm is the adversarial counterpart: its computed
    // dispatch is VSA-irreducible and its keys defeat enumeration.
    let storm = analysis_for(&mut cache, &set, set.storm).clone();
    assert_eq!(storm.unresolved_jumps, 1, "storm dispatch must stay unresolved");
    assert!(storm.state_plan.dynamic, "storm keys must force a dynamic plan");
}
