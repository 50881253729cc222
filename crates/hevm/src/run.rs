//! Straight-line runs: the HEVM's block path. A stretch of pure
//! instructions enters the pipeline after one check instead of one per
//! instruction.
//!
//! A *run* is a maximal sequence of pure instructions — the ALU ops but
//! `EXP`, the stack ops (`POP`, `PUSH*`, `DUP*`, `SWAP*`), `JUMPDEST`
//! and `PC` — optionally closed by `JUMP` or `JUMPI`. None of them reads
//! gas, the clock, the world or a memory-like, and none has dynamic gas,
//! so the run's static gas, virtual time and stack extremes are known
//! before it starts. The engine enters a run only when they prove that
//! none of its per-instruction checks — gas, stack, watchdog, slice —
//! could fire inside it ([`Run::fits`]).

use tape_evm::opcode::{self, op, OpCategory};
use tape_sim::{CostModel, Nanos};
use tape_state::Code;

/// What the entry check needs to know about the run starting at a pc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// Instructions in the run; 0 when the instruction at the pc is not
    /// pure (or the pc is past the end of the code).
    pub count: u32,
    /// Σ static gas of those instructions.
    pub gas: u32,
    /// Σ virtual time of those instructions under the engine's
    /// [`CostModel`].
    pub ns: u64,
    /// Stack words the run needs on entry.
    pub need: u32,
    /// The highest the stack climbs above its height on entry.
    pub peak: u32,
}

impl Run {
    /// The run that starts at `pc` of `code`, timed by `cost`.
    pub fn at(code: &[u8], pc: usize, cost: &CostModel) -> Run {
        let mut run = Run::default();
        let (mut pc, mut depth, mut low) = (pc, 0u32, 0u32);
        while let Some(&byte) = code.get(pc) {
            let closes = matches!(byte, op::JUMP | op::JUMPI);
            if !closes && !is_pure(byte) {
                break;
            }
            let info = opcode::info(byte);
            // `depth` counts words above the entry height, `low` how far
            // below it the run has reached so far.
            let (inputs, outputs) = (u32::from(info.inputs), u32::from(info.outputs));
            if inputs > depth {
                low += inputs - depth;
                depth = inputs;
            }
            depth = depth - inputs + outputs;
            run.need = run.need.max(low);
            run.peak = run.peak.max(depth.saturating_sub(low));
            run.count += 1;
            run.gas += info.base_gas as u32;
            run.ns += cost.hevm_instruction_ns(byte);
            if closes {
                break;
            }
            pc += 1 + opcode::immediate_len(byte);
        }
        run
    }

    /// The entry check: true only if none of the checks made before each
    /// instruction — gas, stack, watchdog, gas slice — could fire
    /// anywhere inside the run, started with `gas` left and `height`
    /// words on a stack that may grow to `room` words, at virtual time
    /// `now`. `deadline` is the watchdog's and `slice` the gas the slice
    /// has left, each only if armed.
    #[inline]
    pub fn fits(
        &self,
        gas: u64,
        height: usize,
        room: usize,
        now: Nanos,
        deadline: Option<Nanos>,
        slice: Option<u64>,
    ) -> bool {
        self.count > 0
            && gas >= u64::from(self.gas)
            && height >= self.need as usize
            && height + self.peak as usize <= room
            && deadline.is_none_or(|at| now + self.ns <= at)
            && slice.is_none_or(|left| u64::from(self.gas) < left)
    }
}

/// `true` for the instructions a run is made of (besides the closing
/// `JUMP` / `JUMPI`).
pub fn is_pure(byte: u8) -> bool {
    match opcode::info(byte).category {
        OpCategory::Arithmetic => byte != op::EXP,
        OpCategory::Stack => true,
        OpCategory::Flow => matches!(byte, op::JUMPDEST | op::PC),
        _ => false,
    }
}

const SLOTS: usize = 64;

/// The runs an engine has entered, keyed by code image and pc: built
/// only for code that actually runs, in a fixed table that never
/// allocates and needs no lock. A slot keeps the last key that hashed to
/// it; a collision costs a rescan, never a wrong answer.
pub(crate) struct Runs {
    keys: [(u64, usize); SLOTS],
    runs: [Run; SLOTS],
}

impl Runs {
    pub(crate) fn new() -> Self {
        // Image ids start at 1: an empty slot matches nothing.
        Runs { keys: [(0, 0); SLOTS], runs: [Run::default(); SLOTS] }
    }

    /// The run starting at `pc` of `code`.
    #[inline]
    pub(crate) fn at(&mut self, code: &Code, pc: usize, cost: &CostModel) -> Run {
        let key = (code.id(), pc);
        let slot = (pc ^ (key.0 as usize).wrapping_mul(0x9E37_79B9)) % SLOTS;
        if self.keys[slot] != key {
            self.keys[slot] = key;
            self.runs[slot] = Run::at(code, pc, cost);
        }
        self.runs[slot]
    }
}
