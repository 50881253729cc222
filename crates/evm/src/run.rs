//! Straight-line runs: how the reference engine executes a stretch of
//! pure instructions with one check on entry instead of one per
//! instruction.
//!
//! A *run* is a maximal sequence of pure instructions, optionally closed
//! by `JUMP` or `JUMPI`. Pure means arithmetic, comparison, bitwise and
//! shift ops except `EXP`, plus `POP`, `PUSH0`–`PUSH32`, `DUP*`,
//! `SWAP*`, `JUMPDEST` and `PC`: none reads gas, the world or memory,
//! and none has dynamic gas. So if the remaining gas covers the run's
//! static gas and the stack stays within bounds at its lowest and
//! highest point, no per-instruction check could fire inside it.

use crate::opcode::{self, op};
use crate::stack::STACK_LIMIT;
use tape_state::Code;

/// What the entry check needs to know about the run starting at a pc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// Instructions in the run; 0 when the instruction at the pc is not
    /// pure (or the pc is past the end of the code).
    pub count: u32,
    /// Σ static gas of those instructions.
    pub gas: u32,
    /// Stack words the run needs on entry.
    pub need: u32,
    /// The highest the stack climbs above its height on entry.
    pub peak: u32,
}

impl Run {
    /// The run that starts at `pc` of `code`.
    pub fn at(code: &[u8], pc: usize) -> Run {
        let mut run = Run::default();
        let (mut pc, mut height) = (pc, 0i64);
        while let Some(&opcode) = code.get(pc) {
            let closes = matches!(opcode, op::JUMP | op::JUMPI);
            if !closes && !is_pure(opcode) {
                break;
            }
            let info = opcode::info(opcode);
            run.need = run.need.max((i64::from(info.inputs) - height).max(0) as u32);
            height += i64::from(info.outputs) - i64::from(info.inputs);
            run.peak = run.peak.max(height.max(0) as u32);
            run.count += 1;
            run.gas += info.base_gas as u32;
            if closes {
                break;
            }
            pc += 1 + opcode::immediate_len(opcode);
        }
        run
    }

    /// Whether no per-instruction check could fire inside the run when
    /// it is entered with `gas` left and `height` words on the stack.
    #[inline]
    pub(crate) fn fits(&self, gas: u64, height: usize) -> bool {
        self.count > 0
            && gas >= u64::from(self.gas)
            && height >= self.need as usize
            && height + self.peak as usize <= STACK_LIMIT
    }
}

/// `true` for the instructions a run is made of (besides the closing
/// `JUMP` / `JUMPI`).
pub fn is_pure(opcode: u8) -> bool {
    matches!(
        opcode,
        op::ADD..=op::SIGNEXTEND | op::LT..=op::SAR | op::POP | op::PC | op::JUMPDEST
            | op::PUSH0..=op::SWAP16
    ) && opcode != op::EXP
}

const SLOTS: usize = 64;

/// The runs an engine has entered, keyed by code image and pc: built
/// only for code that actually runs, in a fixed table that never
/// allocates. A slot holds the last run looked up among the keys that
/// share it; a collision costs a rescan, never a wrong answer.
pub(crate) struct Runs {
    slots: [(u64, u32, Run); SLOTS],
}

impl Runs {
    pub(crate) fn new() -> Self {
        // Image ids start at 1, so an empty slot matches no image.
        Runs { slots: [(0, 0, Run::default()); SLOTS] }
    }

    /// The run starting at `pc` of `code`.
    #[inline]
    pub(crate) fn at(&mut self, code: &Code, pc: usize) -> Run {
        let id = code.id();
        let slot = &mut self.slots[(id.wrapping_mul(0x9E37_79B9) as usize ^ pc) % SLOTS];
        if slot.0 != id || slot.1 as usize != pc {
            *slot = (id, pc as u32, Run::at(code, pc));
        }
        slot.2
    }
}
