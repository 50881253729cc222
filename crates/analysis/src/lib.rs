//! Static bytecode analysis for the HarDTAPE pre-executor.
//!
//! The runtime layers (PR 1–3) observe contracts while they execute:
//! the prefetcher reacts to code queries, the audit layer flags leaks
//! after the fact, and capacity overflows surface as mid-bundle faults.
//! This crate moves those judgements *before* execution:
//!
//! * [`cfg`] scans the image once for the interpreter's own jump table
//!   and decodes basic blocks on demand;
//! * [`flow`] runs one abstract-interpretation fixpoint that resolves
//!   computed jumps by **value-set propagation** ([`vsa`]: small sets
//!   of concrete words folded through `PUSH`/`DUP`/`SWAP`/arithmetic,
//!   widening to ⊤ past [`vsa::ValueSet::CAP`]), bounds the operand
//!   stack, computes block reachability, traces CALLDATA taint, and
//!   classifies every world-state access site ([`state_access`]);
//! * [`analyze`] packages the result as a [`CodeAnalysis`]: a **page
//!   reachability set** (which 1 KB code pages execution can touch — the
//!   §IV-D code prefetch plan), a **state prefetch plan**
//!   ([`StatePlan`]: enumerable storage slots and foreign accounts plus
//!   a `dynamic` flag), a **worst-case stack bound** checked against
//!   the Layer-1/Layer-2 capacities by [`Limits::admit`], and
//!   **secret-dependency lints** ([`LintFinding`]) flagging
//!   `SLOAD`/`MLOAD`/`JUMPI` operands derived from CALLDATA.
//!
//! Everything is a sound over-approximation: pages can only be *over*-
//! reported, stack bounds only *over*-estimated, taint only *over*-
//! propagated, state plans only marked *more* dynamic. Jumps whose
//! value set widens degrade to "every `JUMPDEST`", dynamic callees and
//! `CODECOPY` degrade the page set, and an unbounded push loop yields
//! an explicit [`CodeAnalysis::unbounded_stack`] verdict.
//!
//! ```
//! use tape_analysis::{analyze, Limits};
//!
//! // PUSH1 0 CALLDATALOAD PUSH1 7 JUMPI STOP JUMPDEST STOP
//! let code = [0x60, 0x00, 0x35, 0x60, 0x07, 0x57, 0x00, 0x5b, 0x00];
//! let analysis = analyze(&code);
//! assert_eq!(analysis.max_stack, 2);
//! assert_eq!(analysis.reachable_pages, vec![0]);
//! assert!(!analysis.lints.is_empty()); // CALLDATA-dependent branch
//! assert!(Limits::default().admit(&analysis).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod flow;
pub mod state_access;
pub mod vsa;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tape_primitives::Address;
use tape_state::JumpDests;

pub use cfg::{Block, BlockExit, Cfg};
pub use flow::FlowResult;
pub use state_access::{AccessClass, StatePlan};
pub use vsa::ValueSet;

/// Tuning knobs for [`analyze_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Code page granularity in bytes (HarDTAPE uses 1 KB pages).
    pub page_size: usize,
    /// Widening cap for stack heights: joins beyond this report
    /// [`CodeAnalysis::unbounded_stack`] instead of iterating forever.
    /// The EVM's own limit is 1024 words, so anything past that is
    /// already inadmissible.
    pub max_stack_words: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { page_size: 1024, max_stack_words: 1024 }
    }
}

/// A secret-dependency lint category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// An `SLOAD`/`SSTORE` key derives from CALLDATA: the storage access
    /// pattern is transaction-dependent (the leak ORAM must hide).
    TaintedStorageKey,
    /// An `MLOAD`/`MSTORE`/copy destination derives from CALLDATA:
    /// Memory addressing is transaction-dependent.
    TaintedMemoryOffset,
    /// A `JUMPI` condition (or a jump target) derives from CALLDATA:
    /// control flow is transaction-dependent.
    TaintedBranch,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintKind::TaintedStorageKey => write!(f, "tainted-storage-key"),
            LintKind::TaintedMemoryOffset => write!(f, "tainted-memory-offset"),
            LintKind::TaintedBranch => write!(f, "tainted-branch"),
        }
    }
}

/// One lint hit: the sink's pc and what leaked into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LintFinding {
    /// Byte offset of the sink instruction.
    pub pc: u32,
    /// What kind of sink.
    pub kind: LintKind,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {}", self.kind, self.pc)
    }
}

/// The full static verdict for one bytecode image.
#[derive(Debug, Clone)]
pub struct CodeAnalysis {
    /// Code length in bytes.
    pub code_len: usize,
    /// Page size the reachability set was computed for.
    pub page_size: usize,
    /// Worst-case operand-stack height in words (sound upper bound,
    /// meaningless when [`Self::unbounded_stack`] is set).
    pub max_stack: usize,
    /// The stack-height fixpoint hit its widening cap: no finite bound.
    pub unbounded_stack: bool,
    /// Some path may underflow the stack (a runtime fault, not a
    /// capacity problem).
    pub may_underflow: bool,
    /// Number of jumps whose targets were over-approximated.
    pub unresolved_jumps: usize,
    /// Number of computed jumps the value-set layer resolved to a
    /// precise multi-target edge set — jumps the single-constant
    /// lattice (pre-VSA) would have degraded to every `JUMPDEST`.
    pub vsa_resolved_jumps: usize,
    /// Resolved target pcs per jump pc (sound superset of the final
    /// edge set; unresolved jumps are absent — their cover is the whole
    /// `JUMPDEST` table). The differential tests check every
    /// interpreter-taken edge against this map.
    pub jump_targets: BTreeMap<usize, BTreeSet<usize>>,
    /// A reachable call's callee is not a compile-time constant.
    pub dynamic_calls: bool,
    /// Reachable `CODECOPY`: the contract reads its own code as data,
    /// so *every* page is reachable regardless of control flow.
    pub reads_own_code: bool,
    /// Reachable `EXTCODECOPY`/`EXTCODEHASH`: other contracts' code is
    /// read as data, so plans must cover foreign images fully.
    pub reads_foreign_code: bool,
    /// Callee addresses recovered from constant CALL operands.
    pub call_targets: BTreeSet<Address>,
    /// Sorted indices of reachable `page_size` code pages — the §IV-D
    /// prefetch plan.
    pub reachable_pages: Vec<u32>,
    /// Total pages the image occupies (`ceil(code_len / page_size)`).
    pub total_pages: u32,
    /// Secret-dependency findings, sorted by pc.
    pub lints: Vec<LintFinding>,
    /// The world-state prefetch plan: enumerable slots/accounts plus a
    /// `dynamic` flag for the sites the analysis could not enumerate.
    pub state_plan: StatePlan,
    /// The interpreter's jump table.
    jumpdests: JumpDests,
}

impl CodeAnalysis {
    /// Whether `pc` is a valid jump target.
    pub fn is_valid_jumpdest(&self, pc: usize) -> bool {
        self.jumpdests.is_valid(pc)
    }

    /// Page index containing byte offset `pc`.
    pub fn page_of(&self, pc: usize) -> u32 {
        (pc / self.page_size.max(1)) as u32
    }

    /// Whether the page containing `pc` is in the reachability set.
    pub fn page_reachable(&self, pc: usize) -> bool {
        self.reachable_pages.binary_search(&self.page_of(pc)).is_ok()
    }
}

/// Analyzes `code` with default HarDTAPE parameters (1 KB pages, EVM
/// 1024-word stack cap).
pub fn analyze(code: &[u8]) -> CodeAnalysis {
    analyze_with(code, &AnalysisConfig::default())
}

/// Analyzes `code` with explicit parameters.
pub fn analyze_with(code: &[u8], config: &AnalysisConfig) -> CodeAnalysis {
    let page_size = config.page_size.max(1);
    let cfg = Cfg::build(code);
    let flow = flow::run(code, &cfg, config.max_stack_words);

    let total_pages = code.len().div_ceil(page_size) as u32;
    let mut pages: BTreeSet<u32> = BTreeSet::new();
    // A fixpoint the backstop cut short saw only part of what can run:
    // its sound cover is every page, any callee and any state record.
    if flow.reads_own_code || flow.exhausted {
        pages.extend(0..total_pages);
    } else {
        for block in &flow.reached {
            let first = (block.start / page_size) as u32;
            let last = (block.end.saturating_sub(1).max(block.start) / page_size) as u32;
            pages.extend(first..=last);
        }
    }

    let mut state_plan = state_access::build_plan(&flow);
    state_plan.dynamic |= flow.exhausted;
    CodeAnalysis {
        code_len: code.len(),
        page_size,
        max_stack: flow.max_stack,
        unbounded_stack: flow.unbounded_stack,
        may_underflow: flow.may_underflow,
        unresolved_jumps: flow.unresolved_jumps.len(),
        vsa_resolved_jumps: flow.vsa_resolved_jumps.len(),
        jump_targets: flow.jump_targets,
        dynamic_calls: flow.dynamic_calls || flow.exhausted,
        reads_own_code: flow.reads_own_code,
        reads_foreign_code: flow.reads_foreign_code,
        call_targets: flow.call_targets,
        reachable_pages: pages.into_iter().collect(),
        total_pages,
        lints: flow.lints,
        state_plan,
        jumpdests: cfg.jumpdests,
    }
}

/// Aggregate precision metrics over a set of analyses — the numbers
/// the `analysis` section of `BENCH_pre_execute.json` reports and the
/// `--baseline` guard watches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecisionSummary {
    /// Distinct code images analyzed.
    pub contracts: usize,
    /// Computed jumps resolved to precise multi-target edge sets
    /// (the pre-VSA lattice degraded every one of these).
    pub resolved_jumps: usize,
    /// Jumps that still degrade to the all-`JUMPDEST` cover.
    pub unresolved_jumps: usize,
    /// State-access sites with enumerable keys.
    pub const_sites: usize,
    /// Widened sites with CALLDATA provenance.
    pub affine_sites: usize,
    /// Widened sites without CALLDATA provenance.
    pub dynamic_sites: usize,
    /// Storage slots enumerated across all plans.
    pub planned_slots: usize,
    /// Foreign accounts enumerated across all plans.
    pub planned_accounts: usize,
    /// Contracts whose plan carries the `dynamic` flag.
    pub dynamic_plans: usize,
}

impl PrecisionSummary {
    /// Folds one contract's analysis into the summary.
    pub fn absorb(&mut self, analysis: &CodeAnalysis) {
        self.contracts += 1;
        self.resolved_jumps += analysis.vsa_resolved_jumps;
        self.unresolved_jumps += analysis.unresolved_jumps;
        self.const_sites += analysis.state_plan.const_sites;
        self.affine_sites += analysis.state_plan.affine_sites;
        self.dynamic_sites += analysis.state_plan.dynamic_sites;
        self.planned_slots += analysis.state_plan.slots.len();
        self.planned_accounts += analysis.state_plan.accounts.len();
        self.dynamic_plans += usize::from(analysis.state_plan.dynamic);
    }

    /// Share of would-be-degraded computed jumps the VSA layer
    /// resolved; `None` when no such jump exists.
    pub fn resolved_jump_ratio(&self) -> Option<f64> {
        let total = self.resolved_jumps + self.unresolved_jumps;
        (total > 0).then(|| self.resolved_jumps as f64 / total as f64)
    }
}

/// HarDTAPE Layer-1/Layer-2 capacities the admission gate checks a
/// [`CodeAnalysis`] against (paper Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Layer-1 runtime-stack capacity in bytes (32 KB → 1024 words).
    pub stack_bytes: usize,
    /// Per-frame bookkeeping swapped alongside the stack (frame state +
    /// world-state cache).
    pub frame_overhead_bytes: usize,
    /// Layer-2 call-stack ring capacity in bytes (1 MB).
    pub layer2_bytes: usize,
    /// Minimum number of worst-case frames the ring must hold. The
    /// default is the paper's 32-frame design point (1 MB ring / 32 KB
    /// frames); deployments that let deeper frames spill to layer 3 can
    /// lower this to 2, which is equivalent to the §IV-B rule that one
    /// frame must fit half the ring.
    pub min_resident_frames: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            stack_bytes: 32 * 1024,
            frame_overhead_bytes: 1024 + 4096,
            layer2_bytes: 1024 * 1024,
            min_resident_frames: 32,
        }
    }
}

impl Limits {
    /// Checks the analysis against the capacities. `Err` carries the
    /// typed admission rejection.
    pub fn admit(&self, analysis: &CodeAnalysis) -> Result<(), AnalysisReject> {
        let limit_words = self.stack_bytes / 32;
        if analysis.unbounded_stack {
            return Err(AnalysisReject::UnboundedStack { cap_words: limit_words });
        }
        if analysis.max_stack > limit_words {
            return Err(AnalysisReject::StackOverflow {
                bound_words: analysis.max_stack,
                limit_words,
            });
        }
        // The analyzer's per-frame bound lets frames swap at their real
        // size instead of the full 32 KB reservation; the ring must
        // still hold the required residency at that worst case.
        let frame_bytes = (analysis.max_stack * 32 + self.frame_overhead_bytes).max(1);
        let frames_fit = self.layer2_bytes / frame_bytes;
        if frames_fit < self.min_resident_frames {
            return Err(AnalysisReject::FrameFootprint {
                frame_bytes,
                frames_fit,
                required: self.min_resident_frames,
            });
        }
        Ok(())
    }
}

/// Why admission refused a contract — returned *before* execution
/// instead of a mid-bundle capacity fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisReject {
    /// The stack-height fixpoint found no finite bound (push loop).
    UnboundedStack {
        /// The widening cap that was exceeded, in words.
        cap_words: usize,
    },
    /// The worst-case stack exceeds the Layer-1 32 KB runtime stack.
    StackOverflow {
        /// Statically derived worst-case height in words.
        bound_words: usize,
        /// The Layer-1 capacity in words.
        limit_words: usize,
    },
    /// Worst-case frames are so large the Layer-2 ring cannot keep the
    /// required number resident.
    FrameFootprint {
        /// Worst-case swapped frame size in bytes.
        frame_bytes: usize,
        /// Frames of that size the ring can hold.
        frames_fit: usize,
        /// Frames the admission policy requires.
        required: usize,
    },
}

impl fmt::Display for AnalysisReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisReject::UnboundedStack { cap_words } => {
                write!(f, "no finite stack bound (widening cap {cap_words} words hit)")
            }
            AnalysisReject::StackOverflow { bound_words, limit_words } => write!(
                f,
                "worst-case stack {bound_words} words exceeds layer-1 capacity {limit_words}"
            ),
            AnalysisReject::FrameFootprint { frame_bytes, frames_fit, required } => write!(
                f,
                "frame footprint {frame_bytes} B fits only {frames_fit} frames in the layer-2 \
                 ring ({required} required)"
            ),
        }
    }
}

impl std::error::Error for AnalysisReject {}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::asm::Asm;
    use tape_primitives::U256;
    use tape_evm::opcode::op;

    #[test]
    fn resolved_jump_reaches_only_its_target() {
        // Block 0 jumps over a dead block to "live".
        let code = Asm::new()
            .jump("live")
            .label("dead")
            .push(1u64)
            .ret_top()
            .label("live")
            .stop()
            .build();
        let a = analyze(&code);
        assert_eq!(a.unresolved_jumps, 0);
        assert!(!a.unbounded_stack);
        // The dead block's bytes still share page 0, so pages cannot
        // distinguish them here — block reachability can.
        assert_eq!(a.reachable_pages, vec![0]);
    }

    #[test]
    fn unreachable_tail_pages_are_excluded() {
        let live = Asm::new().push(1u64).ret_top().build();
        let padded = tape_workload::contracts::pad_code(live, 5000);
        let a = analyze(&padded);
        assert_eq!(a.total_pages, 5);
        assert_eq!(a.reachable_pages, vec![0]);
    }

    #[test]
    fn join_of_constants_jump_resolves_precisely() {
        // Two arms each push a continuation address; a shared dispatch
        // block jumps through the joined set. The pre-VSA lattice
        // degraded this join to ⊤ (every JUMPDEST); the value-set
        // lattice resolves it to exactly {contA, contB}.
        let code = Asm::new()
            .push(0u64)
            .op(op::CALLDATALOAD)
            .jumpi("armB")
            .push_label("contA")
            .jump("dispatch")
            .label("armB")
            .push_label("contB")
            .jump("dispatch")
            .label("dispatch")
            .op(op::JUMP)
            .label("contA")
            .stop()
            .label("contB")
            .stop()
            .build();
        let a = analyze(&code);
        assert_eq!(a.unresolved_jumps, 0, "the dispatch jump must resolve");
        assert_eq!(a.vsa_resolved_jumps, 1);
        let multi = a
            .jump_targets
            .values()
            .find(|t| t.len() == 2)
            .expect("dispatch jump resolves to a 2-target edge set");
        for pc in multi {
            assert!(a.is_valid_jumpdest(*pc));
        }
    }

    #[test]
    fn folded_arithmetic_resolves_computed_jump() {
        // Target computed as label + 0: folds to the label constant.
        let code = Asm::new()
            .push_label("live")
            .push(0u64)
            .op(op::ADD)
            .op(op::JUMP)
            .label("live")
            .stop()
            .build();
        let a = analyze(&code);
        assert_eq!(a.unresolved_jumps, 0);
        // Single-constant resolution: nothing the old lattice missed.
        assert_eq!(a.vsa_resolved_jumps, 0);
    }

    #[test]
    fn state_plan_classifies_storage_sites() {
        // SLOAD 7 (constant), SLOAD of its result (dynamic), and an
        // SSTORE keyed by CALLDATA (calldata-affine).
        let code = Asm::new()
            .push(7u64)
            .op(op::SLOAD)
            .op(op::SLOAD)
            .op(op::POP)
            .push(1u64) // value
            .push(0u64)
            .op(op::CALLDATALOAD) // key (tainted)
            .op(op::SSTORE)
            .stop()
            .build();
        let a = analyze(&code);
        let plan = &a.state_plan;
        assert!(plan.slots.contains(&U256::from(7u64)));
        assert_eq!(plan.const_sites, 1);
        assert_eq!(plan.affine_sites, 1);
        assert_eq!(plan.dynamic_sites, 1);
        assert!(plan.dynamic);
    }

    #[test]
    fn constant_only_plan_is_static() {
        let who = tape_primitives::Address::from_low_u64(0xBEEF);
        let code = Asm::new()
            .push(3u64)
            .op(op::SLOAD)
            .op(op::POP)
            .push_address(who)
            .op(op::BALANCE)
            .op(op::POP)
            .stop()
            .build();
        let a = analyze(&code);
        let plan = &a.state_plan;
        assert!(!plan.dynamic, "all sites enumerable: {plan:?}");
        assert_eq!(plan.slots.iter().collect::<Vec<_>>(), vec![&U256::from(3u64)]);
        assert!(plan.accounts.contains(&who));
    }

    #[test]
    fn erc20_fixture_plan_is_dynamic() {
        // balances[keccak(...)]: keys widen, the plan must say so.
        let a = analyze(&tape_workload::contracts::erc20_runtime());
        assert!(a.state_plan.dynamic);
        assert!(a.state_plan.sites() > 0);
    }

    #[test]
    fn precision_summary_aggregates() {
        let a = analyze(&tape_workload::contracts::erc20_runtime());
        let mut summary = PrecisionSummary::default();
        summary.absorb(&a);
        summary.absorb(&a);
        assert_eq!(summary.contracts, 2);
        assert_eq!(summary.dynamic_plans, 2);
        assert_eq!(summary.unresolved_jumps, 2 * a.unresolved_jumps);
        if summary.resolved_jumps + summary.unresolved_jumps == 0 {
            assert!(summary.resolved_jump_ratio().is_none());
        }
    }

    #[test]
    fn unresolved_jump_degrades_to_all_jumpdests() {
        // Jump target comes from CALLDATA: unresolvable.
        let live = Asm::new().push(0u64).op(op::CALLDATALOAD).op(op::JUMP).build();
        let padded = tape_workload::contracts::pad_code(live, 3000);
        let a = analyze(&padded);
        assert_eq!(a.unresolved_jumps, 1);
        // Every padding JUMPDEST is now a potential target.
        assert_eq!(a.reachable_pages, vec![0, 1, 2]);
        assert!(a.lints.iter().any(|l| l.kind == LintKind::TaintedBranch));
    }

    #[test]
    fn codecopy_makes_every_page_reachable() {
        let live = Asm::new()
            .push(4u64) // len
            .push(0u64) // code offset
            .push(0u64) // mem offset
            .op(op::CODECOPY)
            .stop()
            .build();
        let padded = tape_workload::contracts::pad_code(live, 2500);
        let a = analyze(&padded);
        assert!(a.reads_own_code);
        assert_eq!(a.reachable_pages, vec![0, 1, 2]);
    }

    #[test]
    fn stack_gaining_loop_is_unbounded() {
        // loop: JUMPDEST PUSH1 1 PUSH1 0 JUMP — gains a word per trip.
        let code = Asm::new()
            .label("loop")
            .push(1u64)
            .jump("loop")
            .build();
        let a = analyze(&code);
        assert!(a.unbounded_stack);
        assert!(matches!(
            Limits::default().admit(&a),
            Err(AnalysisReject::UnboundedStack { .. })
        ));
    }

    #[test]
    fn backstop_cut_reports_the_sound_cover() {
        // L: JUMPDEST PUSH1 0 PUSH1 0 CALLDATALOAD PUSH2 exit JUMPI
        //    PUSH1 L JUMP — a word gained per trip;
        // exit: JUMPDEST PUSH2 far JUMP; ADD filler; far (page 3):
        // JUMPDEST STOP. The loop outlives the backstop budget at either
        // cap; at 4 096 words it does so before `exit` is simulated, so
        // `far` is never reached — yet it runs once calldata is nonzero.
        let mut code = vec![0x5b, 0x60, 0, 0x60, 0, 0x35, 0x61, 0x00, 0x0d, 0x57];
        code.extend([0x60, 0x00, 0x56, 0x5b, 0x61, 0x0c, 0x00, 0x56]);
        code.resize(3072, op::ADD);
        code.extend([op::JUMPDEST, op::STOP]);

        for max_stack_words in [1024, 4096] {
            let cut = analyze_with(&code, &AnalysisConfig { page_size: 1024, max_stack_words });
            assert!(cut.unbounded_stack);
            assert_eq!(cut.reachable_pages, vec![0, 1, 2, 3], "cap {max_stack_words}");
            assert!(cut.state_plan.dynamic);
            assert!(cut.dynamic_calls);
        }
    }

    #[test]
    fn stack_neutral_loop_is_bounded() {
        // Counter loop: [n] -> decrement until zero.
        let code = Asm::new()
            .push(10u64)
            .label("loop")
            .op(op::DUP1)
            .op(op::ISZERO)
            .jumpi("done")
            .push(1u64)
            .op(op::SWAP1)
            .op(op::SUB)
            .jump("loop")
            .label("done")
            .stop()
            .build();
        let a = analyze(&code);
        assert!(!a.unbounded_stack);
        assert!(a.max_stack <= 4);
        assert!(Limits::default().admit(&a).is_ok());
    }

    #[test]
    fn erc20_fixture_lints_and_admits() {
        let a = analyze(&tape_workload::contracts::erc20_runtime());
        assert_eq!(a.unresolved_jumps, 0);
        assert!(!a.unbounded_stack);
        assert!(Limits::default().admit(&a).is_ok());
        // Selector dispatch: CALLDATA-dependent branches.
        assert!(a.lints.iter().any(|l| l.kind == LintKind::TaintedBranch));
        // balances[keccak(calldata . slot)]: CALLDATA-dependent SLOAD.
        assert!(a.lints.iter().any(|l| l.kind == LintKind::TaintedStorageKey));
    }

    #[test]
    fn router_fixture_has_dynamic_callees() {
        let a = analyze(&tape_workload::contracts::router_runtime());
        assert!(a.dynamic_calls); // tokenIn/tokenOut come from CALLDATA
        assert!(Limits::default().admit(&a).is_ok());
    }

    #[test]
    fn hopper_fixture_resolves_no_constant_callee() {
        // Hopper calls ADDRESS (self): not a PUSH constant, so it must
        // be conservatively treated as dynamic.
        let a = analyze(&tape_workload::contracts::hopper_runtime());
        assert!(a.dynamic_calls);
        assert!(a.call_targets.is_empty());
    }

    #[test]
    fn underflow_is_reported_not_fatal() {
        let code = [op::POP, op::STOP];
        let a = analyze(&code);
        assert!(a.may_underflow);
        assert!(Limits::default().admit(&a).is_ok());
    }

    #[test]
    fn stack_overflow_rejection() {
        // 1030 pushes back-to-back: finite but over the 1024-word cap...
        let mut asm = Asm::new();
        for _ in 0..1030 {
            asm = asm.push(1u64);
        }
        let code = asm.stop().build();
        let a = analyze_with(
            &code,
            &AnalysisConfig { page_size: 1024, max_stack_words: 4096 },
        );
        assert!(!a.unbounded_stack);
        assert_eq!(a.max_stack, 1030);
        assert!(matches!(
            Limits::default().admit(&a),
            Err(AnalysisReject::StackOverflow { bound_words: 1030, .. })
        ));
    }

    #[test]
    fn frame_footprint_rejection() {
        // A bound that fits the stack but makes frames too fat for the
        // required Layer-2 residency.
        let mut asm = Asm::new();
        for _ in 0..900 {
            asm = asm.push(1u64);
        }
        let code = asm.stop().build();
        let a = analyze(&code);
        assert!(matches!(
            Limits::default().admit(&a),
            Err(AnalysisReject::FrameFootprint { .. })
        ));
    }

    #[test]
    fn filler_past_the_reachable_code_costs_no_blocks() {
        use tape_workload::contracts::{erc20_runtime, pad_code};
        let (small, large) = (pad_code(erc20_runtime(), 600), pad_code(erc20_runtime(), 30_000));
        let (small_cfg, large_cfg) = (Cfg::build(&small), Cfg::build(&large));
        assert!(large_cfg.leaders > 40 * small_cfg.leaders);
        // The fixpoint decodes and simulates the same blocks either way.
        let reached = |code: &[u8], cfg: &Cfg| flow::run(code, cfg, 1024).reached;
        assert_eq!(reached(&small, &small_cfg), reached(&large, &large_cfg));

        let a = analyze(&small);
        let mut b = analyze(&large);
        assert_eq!((a.total_pages, b.total_pages), (1, 30));
        b.code_len = a.code_len;
        b.total_pages = a.total_pages;
        b.jumpdests = a.jumpdests.clone();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn page_helpers() {
        let live = Asm::new().push(1u64).ret_top().build();
        let a = analyze(&tape_workload::contracts::pad_code(live, 2048));
        assert!(a.page_reachable(0));
        assert!(!a.page_reachable(1500));
        assert_eq!(a.page_of(1023), 0);
        assert_eq!(a.page_of(1024), 1);
    }

    #[test]
    fn reject_display_is_informative() {
        let msgs = [
            AnalysisReject::UnboundedStack { cap_words: 1024 }.to_string(),
            AnalysisReject::StackOverflow { bound_words: 2000, limit_words: 1024 }.to_string(),
            AnalysisReject::FrameFootprint { frame_bytes: 40_000, frames_fit: 26, required: 32 }
                .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
