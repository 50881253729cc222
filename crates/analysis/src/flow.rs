//! Abstract interpretation over the recovered CFG.
//!
//! One fixpoint pass computes several facts at once, because they share
//! the same abstract stack. It decodes a block ([`Cfg::block`]) only when
//! the worklist first reaches it, so its cost follows the reachable code,
//! not the image's size:
//!
//! * **jump resolution** — value-set propagation ([`crate::vsa`])
//!   through `PUSH`/`DUP`/`SWAP`/`PC` and the foldable arithmetic/
//!   bitwise opcodes resolves not just the direct-jump idioms but also
//!   multi-way merges ("push continuation A or B, join, jump") to a
//!   *precise edge set*; only a jump whose target set widens to ⊤ is
//!   over-approximated with an edge to *every* valid `JUMPDEST`
//!   (sound, never precise);
//! * **reachability** — blocks reached from pc 0 along those edges;
//! * **stack heights** — per-block entry heights joined with `max`, plus
//!   the intra-block peak, giving a worst-case operand-stack bound. A
//!   widening cap turns unbounded push-loops into an explicit
//!   `unbounded_stack` verdict instead of divergence;
//! * **CALLDATA taint** — `CALLDATALOAD`/`CALLDATASIZE` mark values,
//!   `CALLDATACOPY` (and stores of tainted values) mark Memory as a
//!   whole, and `SLOAD`/`SSTORE`/`MLOAD`/`JUMP`/`JUMPI` sinks with
//!   tainted operands become [`LintFinding`]s;
//! * **state-access classification** — every reachable `SLOAD`/`SSTORE`
//!   key and `BALANCE`/`EXTCODE*` address operand is classified
//!   ([`AccessClass`]) and its enumerable values collected, feeding the
//!   per-contract state prefetch plan
//!   ([`crate::state_access::build_plan`]).
//!
//! Everything here over-approximates: extra edges, extra taint, and
//! larger heights are all allowed; missing any of them would be a bug
//! the differential tests (analysis vs. live interpreter) exist to
//! catch. Folded values use the same `U256` primitives the interpreter
//! calls, so a member of a finite value set can never disagree with the
//! executed word.

use crate::cfg::{Block, BlockExit, Cfg};
use crate::state_access::AccessClass;
use crate::vsa::ValueSet;
use crate::{LintFinding, LintKind};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use tape_evm::opcode::{self, op};
use tape_primitives::{Address, U256};

/// One abstract stack slot: a value set plus a taint bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsVal {
    /// What the slot may hold.
    vs: ValueSet,
    /// Whether the value may derive from CALLDATA.
    tainted: bool,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal { vs: ValueSet::Top, tainted: false }
    }

    fn constant(v: U256) -> AbsVal {
        AbsVal { vs: ValueSet::constant(v), tainted: false }
    }

    fn unknown(tainted: bool) -> AbsVal {
        AbsVal { vs: ValueSet::Top, tainted }
    }

    fn join(a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal { vs: a.vs.join(&b.vs), tainted: a.tainted || b.tainted }
    }
}

/// Abstract machine state at a block boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    /// Operand stack, bottom first (`last()` is the top).
    stack: Vec<AbsVal>,
    /// Sticky "Memory may hold CALLDATA-derived bytes" bit.
    mem_tainted: bool,
}

impl AbsState {
    fn join_from(&mut self, from: &AbsState) -> bool {
        let before = self.clone();
        self.mem_tainted |= from.mem_tainted;
        if self.stack.len() == from.stack.len() {
            for (a, b) in self.stack.iter_mut().zip(&from.stack) {
                *a = AbsVal::join(a, b);
            }
        } else {
            // Height mismatch: keep the larger height (sound for the
            // bound) but degrade values — a slot's content now depends
            // on which path ran. Taints are joined top-aligned.
            let (longer, shorter) = if self.stack.len() >= from.stack.len() {
                (&before.stack, &from.stack)
            } else {
                (&from.stack, &before.stack)
            };
            let offset = longer.len() - shorter.len();
            self.stack = longer
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let other = i.checked_sub(offset).map(|j| &shorter[j]);
                    AbsVal::unknown(v.tainted || other.is_some_and(|o| o.tainted))
                })
                .collect();
        }
        *self != before
    }
}

/// Everything the fixpoint learns about one bytecode image.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Blocks reachable from pc 0, in pc order.
    pub reached: Vec<Block>,
    /// The backstop budget ran out before the fixpoint converged: every
    /// other fact here may be partial.
    pub exhausted: bool,
    /// Worst-case operand-stack height anywhere in the program.
    pub max_stack: usize,
    /// The widening cap was hit: the stack bound is *not* finite.
    pub unbounded_stack: bool,
    /// Some path may pop more than it pushed (runtime underflow fault).
    pub may_underflow: bool,
    /// pcs of jumps whose target set widened to ⊤ — these degrade to an
    /// edge per valid `JUMPDEST`.
    pub unresolved_jumps: BTreeSet<usize>,
    /// pcs of jumps the value-set layer resolved that single-constant
    /// propagation could not (target set cardinality ≥ 2). Disjoint
    /// from [`Self::unresolved_jumps`].
    pub vsa_resolved_jumps: BTreeSet<usize>,
    /// Resolved target pcs per jump pc, accumulated across fixpoint
    /// iterations (a sound superset of the final edge set). Jumps in
    /// [`Self::unresolved_jumps`] are absent — their cover is the full
    /// `JUMPDEST` table.
    pub jump_targets: BTreeMap<usize, BTreeSet<usize>>,
    /// A reachable CALL-family instruction has a non-constant callee.
    pub dynamic_calls: bool,
    /// A reachable `DELEGATECALL`/`CALLCODE` runs foreign code against
    /// *this* contract's storage: the touched keys are invisible to
    /// this image's analysis, so its state plan can never be a sound
    /// bound (the plan is forced dynamic).
    pub delegates_storage: bool,
    /// Callee addresses recovered from finite CALL operand sets.
    pub call_targets: BTreeSet<Address>,
    /// A reachable `CODECOPY` reads this contract's own code as data.
    pub reads_own_code: bool,
    /// A reachable `EXTCODECOPY`/`EXTCODEHASH` reads another contract's
    /// code as data.
    pub reads_foreign_code: bool,
    /// Per-site state-access classification (pc → class, joined with
    /// `max` across paths and iterations).
    pub access_sites: BTreeMap<usize, AccessClass>,
    /// Storage slots enumerated at reachable `SLOAD`/`SSTORE` sites.
    pub storage_slots: BTreeSet<U256>,
    /// Account addresses enumerated at reachable `BALANCE`/`EXTCODE*`
    /// sites.
    pub state_accounts: BTreeSet<Address>,
    /// Secret-dependency lint findings, sorted by pc.
    pub lints: Vec<LintFinding>,
}

/// Runs the combined fixpoint. `widen_cap` bounds tracked stack heights;
/// joins that would exceed it set `unbounded_stack` and clamp, which
/// guarantees termination.
pub fn run(code: &[u8], cfg: &Cfg, widen_cap: usize) -> FlowResult {
    let mut result = FlowResult {
        reached: Vec::new(),
        exhausted: false,
        max_stack: 0,
        unbounded_stack: false,
        may_underflow: false,
        unresolved_jumps: BTreeSet::new(),
        vsa_resolved_jumps: BTreeSet::new(),
        jump_targets: BTreeMap::new(),
        dynamic_calls: false,
        delegates_storage: false,
        call_targets: BTreeSet::new(),
        reads_own_code: false,
        reads_foreign_code: false,
        access_sites: BTreeMap::new(),
        storage_slots: BTreeSet::new(),
        state_accounts: BTreeSet::new(),
        lints: Vec::new(),
    };
    if cfg.leaders == 0 {
        return result;
    }

    let mut lint_set: BTreeSet<(u32, LintKind)> = BTreeSet::new();
    // Every reached block by leader pc, with its joined entry state.
    let mut blocks: BTreeMap<usize, (Block, AbsState)> = BTreeMap::new();
    let empty = AbsState { stack: Vec::new(), mem_tainted: false };
    blocks.insert(0, (Cfg::block(code, 0), empty));
    let mut worklist = vec![0usize];
    // Every valid `JUMPDEST` in pc order: a widened jump's successors,
    // listed on the first widened jump and reused by every later one.
    let mut all_jumpdests: Option<Vec<usize>> = None;

    // Finite lattice (bounded heights, bounded value sets) makes this
    // converge; the processed cap is a pure backstop.
    let mut budget = (cfg.leaders + 1) * 512;
    while let Some(leader) = worklist.pop() {
        if budget == 0 {
            result.exhausted = true;
            result.unbounded_stack = true;
            break;
        }
        budget -= 1;
        let (block, entry) = blocks[&leader].clone();
        let (out, jump_target) = simulate_block(code, &block, entry, &mut result, &mut lint_set);

        let mut successors: Vec<usize> = Vec::new();
        let fallthrough = (block.end < code.len()).then_some(block.end);
        match block.exit {
            BlockExit::Halt => {}
            BlockExit::FallThrough => successors.extend(fallthrough),
            BlockExit::Jump | BlockExit::JumpI => {
                let pc = block.end - 1;
                let target = jump_target.unwrap_or_else(AbsVal::top);
                match target.vs.values() {
                    Some(vals) => {
                        if vals.len() > 1 {
                            result.vsa_resolved_jumps.insert(pc);
                        }
                        let dests = result.jump_targets.entry(pc).or_default();
                        for v in vals {
                            if let Some(dest) = v.try_into_usize() {
                                if cfg.jumpdests.is_valid(dest) {
                                    dests.insert(dest);
                                    successors.push(dest);
                                }
                                // Invalid target: the jump faults on
                                // that member, no edge.
                            }
                        }
                    }
                    None => {
                        // Widened: over-approximate with every valid
                        // JUMPDEST.
                        result.unresolved_jumps.insert(pc);
                        let dests = all_jumpdests.get_or_insert_with(|| {
                            (0..code.len()).filter(|&dest| cfg.jumpdests.is_valid(dest)).collect()
                        });
                        successors.extend_from_slice(dests);
                    }
                }
                if block.exit == BlockExit::JumpI {
                    successors.extend(fallthrough);
                }
            }
        }

        for succ in successors {
            let mut state = out.clone();
            if state.stack.len() > widen_cap {
                result.unbounded_stack = true;
                let drop = state.stack.len() - widen_cap;
                state.stack.drain(..drop);
            }
            let changed = match blocks.entry(succ) {
                Entry::Occupied(mut slot) => {
                    let existing = &mut slot.get_mut().1;
                    let changed = existing.join_from(&state);
                    if existing.stack.len() > widen_cap {
                        result.unbounded_stack = true;
                        let drop = existing.stack.len() - widen_cap;
                        existing.stack.drain(..drop);
                    }
                    changed
                }
                Entry::Vacant(slot) => {
                    slot.insert((Cfg::block(code, succ), state));
                    true
                }
            };
            if changed {
                worklist.push(succ);
            }
        }
    }
    result.reached = blocks.into_values().map(|(block, _)| block).collect();

    // A jump that resolved in early iterations but widened later is
    // unresolved, full stop: its accumulated edge set is incomplete and
    // the all-JUMPDEST cover is what the CFG actually used.
    let widened: Vec<usize> = result.unresolved_jumps.iter().copied().collect();
    for pc in widened {
        result.jump_targets.remove(&pc);
        result.vsa_resolved_jumps.remove(&pc);
    }

    result.lints = lint_set
        .into_iter()
        .map(|(pc, kind)| LintFinding { pc, kind })
        .collect();
    result
}

/// Decodes the (possibly truncated) push immediate; missing trailing
/// bytes read as zero, exactly as the interpreter sees them.
fn push_value(code: &[u8], pc: usize, imm_len: usize) -> U256 {
    let mut buf = [0u8; 32];
    let start = pc + 1;
    let avail = code.len().saturating_sub(start).min(imm_len);
    buf[32 - imm_len..32 - imm_len + avail].copy_from_slice(&code[start..start + avail]);
    U256::from_be_bytes(buf)
}

/// Pops two operands and pushes the pointwise fold — the transfer
/// function for opcodes whose interpreter semantics are a pure
/// `fn(U256, U256) -> U256` (operand order: `f(top, next)`).
fn fold_binary(state: &mut AbsState, f: impl Fn(U256, U256) -> U256) {
    let a = state.stack.pop().unwrap_or_else(AbsVal::top);
    let b = state.stack.pop().unwrap_or_else(AbsVal::top);
    state.stack.push(AbsVal {
        vs: a.vs.map2(&b.vs, f),
        tainted: a.tainted || b.tainted,
    });
}

/// Pops one operand and pushes the pointwise fold.
fn fold_unary(state: &mut AbsState, f: impl Fn(U256) -> U256) {
    let a = state.stack.pop().unwrap_or_else(AbsVal::top);
    state.stack.push(AbsVal { vs: a.vs.map(f), tainted: a.tainted });
}

/// Shift-amount clamping identical to the interpreter's SHL/SHR/SAR.
fn shift_amount(shift: U256) -> u32 {
    shift.try_into_u64().map(|s| s.min(256) as u32).unwrap_or(256)
}

/// Classifies a state-access operand: finite sets are enumerable even
/// when tainted (taint only says *which* member the transaction picks).
fn classify(v: &AbsVal) -> AccessClass {
    if !v.vs.is_top() {
        AccessClass::Constant
    } else if v.tainted {
        AccessClass::CalldataAffine
    } else {
        AccessClass::Dynamic
    }
}

/// What kind of world-state record an access site touches.
enum AccessSink {
    /// `SLOAD`/`SSTORE`: a storage slot of this contract.
    Storage,
    /// `BALANCE`/`EXTCODE*`: another account's record.
    Account,
}

/// Records one reachable state-access site: its (max-joined) class and
/// any enumerable operand values.
fn record_access(result: &mut FlowResult, pc: usize, operand: &AbsVal, sink: AccessSink) {
    let class = classify(operand);
    result
        .access_sites
        .entry(pc)
        .and_modify(|c| *c = (*c).max(class))
        .or_insert(class);
    if let Some(vals) = operand.vs.values() {
        match sink {
            AccessSink::Storage => result.storage_slots.extend(vals.iter().copied()),
            AccessSink::Account => result
                .state_accounts
                .extend(vals.iter().map(|v| Address::from_word(*v))),
        }
    }
}

/// Runs one block's instructions over `entry`, recording lints, peak
/// heights, state-access sites, and CALL/code-read facts. Returns the
/// exit state and, for jump-terminated blocks, the abstract jump
/// target.
fn simulate_block(
    code: &[u8],
    block: &Block,
    entry: AbsState,
    result: &mut FlowResult,
    lints: &mut BTreeSet<(u32, LintKind)>,
) -> (AbsState, Option<AbsVal>) {
    let mut state = entry;
    let mut jump_target = None;
    result.max_stack = result.max_stack.max(state.stack.len());

    let mut pc = block.start;
    while pc < block.end {
        let opcode = code[pc];
        let imm_len = opcode::immediate_len(opcode);
        let info = opcode::info(opcode);
        let pc32 = pc as u32;
        let mut lint = |kind| {
            lints.insert((pc32, kind));
        };

        // Backfill phantom slots on underflow so the walk can continue;
        // the real machine would fault here.
        let need = usize::from(info.inputs);
        if state.stack.len() < need {
            result.may_underflow = true;
            let missing = need - state.stack.len();
            state
                .stack
                .splice(..0, std::iter::repeat_n(AbsVal::top(), missing));
        }

        match opcode {
            op::PUSH0 => state.stack.push(AbsVal::constant(U256::ZERO)),
            _ if opcode::is_push(opcode) => {
                state
                    .stack
                    .push(AbsVal::constant(push_value(code, pc, imm_len)));
            }
            _ if (op::DUP1..=op::DUP16).contains(&opcode) => {
                let depth = usize::from(opcode - op::DUP1) + 1;
                let v = state.stack[state.stack.len() - depth].clone();
                state.stack.push(v);
            }
            _ if (op::SWAP1..=op::SWAP16).contains(&opcode) => {
                let depth = usize::from(opcode - op::SWAP1) + 1;
                let top = state.stack.len() - 1;
                state.stack.swap(top, top - depth);
            }
            op::POP => {
                state.stack.pop();
            }
            op::PC => state.stack.push(AbsVal::constant(U256::from(pc as u64))),
            op::JUMPDEST => {}

            // Foldable opcodes: pure word functions, folded pointwise
            // with the *interpreter's own* U256 primitives.
            op::ADD => fold_binary(&mut state, |a, b| a.wrapping_add(b)),
            op::MUL => fold_binary(&mut state, |a, b| a.wrapping_mul(b)),
            op::SUB => fold_binary(&mut state, |a, b| a.wrapping_sub(b)),
            op::DIV => fold_binary(&mut state, |a, b| a.div_evm(b)),
            op::SDIV => fold_binary(&mut state, |a, b| a.sdiv_evm(b)),
            op::MOD => fold_binary(&mut state, |a, b| a.rem_evm(b)),
            op::SMOD => fold_binary(&mut state, |a, b| a.smod_evm(b)),
            op::EXP => fold_binary(&mut state, |a, b| a.wrapping_pow(b)),
            op::SIGNEXTEND => fold_binary(&mut state, |b, x| x.sign_extend(b)),
            op::LT => fold_binary(&mut state, |a, b| U256::from(a < b)),
            op::GT => fold_binary(&mut state, |a, b| U256::from(a > b)),
            op::SLT => fold_binary(&mut state, |a, b| {
                U256::from(a.signed_cmp(&b) == core::cmp::Ordering::Less)
            }),
            op::SGT => fold_binary(&mut state, |a, b| {
                U256::from(a.signed_cmp(&b) == core::cmp::Ordering::Greater)
            }),
            op::EQ => fold_binary(&mut state, |a, b| U256::from(a == b)),
            op::ISZERO => fold_unary(&mut state, |a| U256::from(a.is_zero())),
            op::AND => fold_binary(&mut state, |a, b| a & b),
            op::OR => fold_binary(&mut state, |a, b| a | b),
            op::XOR => fold_binary(&mut state, |a, b| a ^ b),
            op::NOT => fold_unary(&mut state, |a| !a),
            op::BYTE => fold_binary(&mut state, |i, x| x.byte_be(i)),
            op::SHL => fold_binary(&mut state, |s, v| v.shl_word(shift_amount(s))),
            op::SHR => fold_binary(&mut state, |s, v| v.shr_word(shift_amount(s))),
            op::SAR => fold_binary(&mut state, |s, v| v.sar_word(shift_amount(s))),

            op::CALLDATALOAD => {
                state.stack.pop();
                state.stack.push(AbsVal::unknown(true));
            }
            op::CALLDATASIZE => state.stack.push(AbsVal::unknown(true)),
            op::CALLDATACOPY => {
                let dest = state.stack.pop().unwrap_or_else(AbsVal::top);
                state.stack.pop();
                state.stack.pop();
                if dest.tainted {
                    lint(LintKind::TaintedMemoryOffset);
                }
                state.mem_tainted = true;
            }
            op::MLOAD => {
                let offset = state.stack.pop().unwrap_or_else(AbsVal::top);
                if offset.tainted {
                    lint(LintKind::TaintedMemoryOffset);
                }
                state
                    .stack
                    .push(AbsVal::unknown(offset.tainted || state.mem_tainted));
            }
            op::MSTORE | op::MSTORE8 => {
                let offset = state.stack.pop().unwrap_or_else(AbsVal::top);
                let value = state.stack.pop().unwrap_or_else(AbsVal::top);
                if offset.tainted {
                    lint(LintKind::TaintedMemoryOffset);
                }
                if offset.tainted || value.tainted {
                    state.mem_tainted = true;
                }
            }
            op::KECCAK256 => {
                let offset = state.stack.pop().unwrap_or_else(AbsVal::top);
                let len = state.stack.pop().unwrap_or_else(AbsVal::top);
                state.stack.push(AbsVal::unknown(
                    offset.tainted || len.tainted || state.mem_tainted,
                ));
            }
            op::SLOAD => {
                let key = state.stack.pop().unwrap_or_else(AbsVal::top);
                if key.tainted {
                    lint(LintKind::TaintedStorageKey);
                }
                record_access(result, pc, &key, AccessSink::Storage);
                state.stack.push(AbsVal::unknown(key.tainted));
            }
            op::SSTORE => {
                let key = state.stack.pop().unwrap_or_else(AbsVal::top);
                state.stack.pop();
                if key.tainted {
                    lint(LintKind::TaintedStorageKey);
                }
                record_access(result, pc, &key, AccessSink::Storage);
            }
            op::BALANCE | op::EXTCODESIZE => {
                let addr = state.stack.pop().unwrap_or_else(AbsVal::top);
                record_access(result, pc, &addr, AccessSink::Account);
                state.stack.push(AbsVal::unknown(addr.tainted));
            }
            op::JUMP => {
                let target = state.stack.pop().unwrap_or_else(AbsVal::top);
                if target.tainted {
                    lint(LintKind::TaintedBranch);
                }
                jump_target = Some(target);
            }
            op::JUMPI => {
                let target = state.stack.pop().unwrap_or_else(AbsVal::top);
                let cond = state.stack.pop().unwrap_or_else(AbsVal::top);
                if target.tainted || cond.tainted {
                    lint(LintKind::TaintedBranch);
                }
                jump_target = Some(target);
            }
            op::CODECOPY => {
                let dest = state.stack.pop().unwrap_or_else(AbsVal::top);
                state.stack.pop();
                state.stack.pop();
                if dest.tainted {
                    lint(LintKind::TaintedMemoryOffset);
                }
                result.reads_own_code = true;
            }
            op::EXTCODECOPY => {
                let addr = state.stack.pop().unwrap_or_else(AbsVal::top);
                let dest = state.stack.pop().unwrap_or_else(AbsVal::top);
                state.stack.pop();
                state.stack.pop();
                if dest.tainted {
                    lint(LintKind::TaintedMemoryOffset);
                }
                record_access(result, pc, &addr, AccessSink::Account);
                result.reads_foreign_code = true;
            }
            op::EXTCODEHASH => {
                let addr = state.stack.pop().unwrap_or_else(AbsVal::top);
                record_access(result, pc, &addr, AccessSink::Account);
                state.stack.push(AbsVal::unknown(false));
                result.reads_foreign_code = true;
            }
            op::CALL | op::CALLCODE | op::DELEGATECALL | op::STATICCALL => {
                let mut popped = Vec::with_capacity(need);
                for _ in 0..need {
                    popped.push(state.stack.pop().unwrap_or_else(AbsVal::top));
                }
                // Delegated code touches *our* storage with keys this
                // image never names: the state plan cannot bound them.
                if matches!(opcode, op::CALLCODE | op::DELEGATECALL) {
                    result.delegates_storage = true;
                }
                // Operand order is (gas, address, ...): the callee sits
                // one below the top.
                match popped[1].vs.values() {
                    Some(addrs) => {
                        result
                            .call_targets
                            .extend(addrs.iter().map(|v| Address::from_word(*v)));
                    }
                    None => result.dynamic_calls = true,
                }
                let tainted = popped.iter().any(|v| v.tainted) || state.mem_tainted;
                state.stack.push(AbsVal::unknown(tainted));
            }
            op::CREATE | op::CREATE2 => {
                let mut tainted = state.mem_tainted;
                for _ in 0..need {
                    tainted |= state.stack.pop().is_some_and(|v| v.tainted);
                }
                state.stack.push(AbsVal::unknown(tainted));
                // The created child's code comes from Memory; treat it
                // as an unresolvable callee.
                result.dynamic_calls = true;
            }
            _ => {
                let mut tainted = false;
                for _ in 0..need {
                    tainted |= state.stack.pop().is_some_and(|v| v.tainted);
                }
                for _ in 0..info.outputs {
                    state.stack.push(AbsVal::unknown(tainted));
                }
            }
        }
        result.max_stack = result.max_stack.max(state.stack.len());
        pc += 1 + imm_len;
    }
    (state, jump_target)
}
