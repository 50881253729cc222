//! Basic-block recovery over raw EVM bytecode.
//!
//! The decoder walks the byte stream once, splitting it into maximal
//! straight-line blocks in the style of EtherSolve/Vandal CFG builders:
//!
//! * a **leader** is pc 0, every *valid* `JUMPDEST` (per the same
//!   push-data-aware scan the interpreter uses), and the instruction
//!   following a `JUMP`/`JUMPI` or a halting opcode;
//! * a block runs from its leader to the next leader or terminator,
//!   immediates included, so a block's byte span is exactly the code
//!   range the HEVM touches when executing it.
//!
//! Jump *edges* are intentionally absent here: resolving them needs the
//! constant-propagation pass in [`crate::flow`], which walks this CFG.

use std::collections::BTreeSet;
use std::collections::HashMap;
use tape_evm::opcode::{self, op};

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Byte offset of the opcode.
    pub pc: usize,
    /// The opcode byte.
    pub opcode: u8,
    /// Length of the push immediate (0 for non-push opcodes). A push
    /// truncated by the end of code keeps its nominal length; the
    /// missing bytes read as zero, as in the interpreter.
    pub imm_len: usize,
}

impl Instr {
    /// Byte offset one past this instruction (opcode + immediate),
    /// clamped to the end of code for truncated pushes.
    pub fn end(&self, code_len: usize) -> usize {
        (self.pc + 1 + self.imm_len).min(code_len)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Falls through to the next leader (no terminator in between).
    FallThrough,
    /// Ends in `JUMP` — one resolved or over-approximated successor.
    Jump,
    /// Ends in `JUMPI` — jump successor(s) plus fall-through.
    JumpI,
    /// Ends in a halting opcode (`STOP`, `RETURN`, `REVERT`, `INVALID`,
    /// `SELFDESTRUCT`, any undefined opcode) or runs off the end of the
    /// code (implicit `STOP`).
    Halt,
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// pc of the first instruction (the leader).
    pub start: usize,
    /// One past the last byte of the block (immediates included).
    pub end: usize,
    /// Index range into [`Cfg::instrs`].
    pub instrs: std::ops::Range<usize>,
    /// How the block terminates.
    pub exit: BlockExit,
}

/// The recovered control-flow skeleton: instructions, blocks, and the
/// set of valid `JUMPDEST` targets.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Total code length in bytes.
    pub code_len: usize,
    /// All decoded instructions in pc order (including bytes that turn
    /// out to be unreachable — reachability is a [`crate::flow`] fact).
    pub instrs: Vec<Instr>,
    /// Basic blocks in pc order.
    pub blocks: Vec<Block>,
    /// pcs of valid `JUMPDEST` instructions (push-data excluded).
    pub jumpdests: BTreeSet<usize>,
    leader_block: HashMap<usize, usize>,
}

impl Cfg {
    /// Decodes `code` into instructions and basic blocks.
    pub fn build(code: &[u8]) -> Cfg {
        let mut instrs = Vec::new();
        let mut jumpdests = BTreeSet::new();
        let mut pc = 0usize;
        while pc < code.len() {
            let opcode = code[pc];
            let imm_len = opcode::immediate_len(opcode);
            // `pc` is an instruction start, never push data.
            if opcode == op::JUMPDEST {
                jumpdests.insert(pc);
            }
            instrs.push(Instr { pc, opcode, imm_len });
            pc += 1 + imm_len;
        }

        // Leaders: pc 0, valid JUMPDESTs, and the instruction after any
        // control transfer (jump or halt).
        let mut leaders = BTreeSet::new();
        if !instrs.is_empty() {
            leaders.insert(0usize);
        }
        for dest in &jumpdests {
            leaders.insert(*dest);
        }
        for (i, instr) in instrs.iter().enumerate() {
            if ends_block(instr.opcode) {
                if let Some(next) = instrs.get(i + 1) {
                    leaders.insert(next.pc);
                }
            }
        }

        let mut blocks = Vec::new();
        let mut leader_block = HashMap::new();
        let mut block_start = 0usize;
        for (i, instr) in instrs.iter().enumerate() {
            let next_is_leader = instrs
                .get(i + 1)
                .is_some_and(|next| leaders.contains(&next.pc));
            let terminal = ends_block(instr.opcode);
            if !(terminal || next_is_leader || i + 1 == instrs.len()) {
                continue;
            }
            let exit = match instr.opcode {
                op::JUMP => BlockExit::Jump,
                op::JUMPI => BlockExit::JumpI,
                _ if halts(instr.opcode) => BlockExit::Halt,
                // Runs off the end of the code: implicit STOP.
                _ if i + 1 == instrs.len() => BlockExit::Halt,
                _ => BlockExit::FallThrough,
            };
            let leader_pc = instrs[block_start].pc;
            leader_block.insert(leader_pc, blocks.len());
            blocks.push(Block {
                start: leader_pc,
                end: instr.end(code.len()),
                instrs: block_start..i + 1,
                exit,
            });
            block_start = i + 1;
        }

        Cfg { code_len: code.len(), instrs, blocks, jumpdests, leader_block }
    }

    /// Block whose leader sits at `pc`, if any.
    pub fn block_at(&self, pc: usize) -> Option<usize> {
        self.leader_block.get(&pc).copied()
    }

    /// Whether `pc` is a valid `JUMPDEST` (matches the interpreter's
    /// push-data-aware jump table).
    pub fn is_valid_jumpdest(&self, pc: usize) -> bool {
        self.jumpdests.contains(&pc)
    }

    /// Block ids of every valid `JUMPDEST` — the conservative successor
    /// set for jumps whose target constant propagation cannot resolve.
    pub fn jumpdest_blocks(&self) -> Vec<usize> {
        self.jumpdests.iter().filter_map(|pc| self.block_at(*pc)).collect()
    }
}

/// Opcodes that unconditionally end a basic block.
fn ends_block(opcode: u8) -> bool {
    opcode == op::JUMP || opcode == op::JUMPI || halts(opcode)
}

/// Opcodes after which execution cannot continue in this frame.
fn halts(opcode: u8) -> bool {
    matches!(
        opcode,
        op::STOP | op::RETURN | op::REVERT | op::INVALID | op::SELFDESTRUCT
    ) || !opcode::info(opcode).defined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_one_block() {
        // PUSH1 1 PUSH1 2 ADD STOP
        let code = [0x60, 0x01, 0x60, 0x02, 0x01, 0x00];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].start, 0);
        assert_eq!(cfg.blocks[0].end, 6);
        assert_eq!(cfg.blocks[0].exit, BlockExit::Halt);
        assert_eq!(cfg.instrs.len(), 4);
    }

    #[test]
    fn jumpdest_in_push_data_is_not_valid() {
        // PUSH2 0x5b5b STOP JUMPDEST
        let code = [0x61, 0x5b, 0x5b, 0x00, 0x5b];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.jumpdests.iter().copied().collect::<Vec<_>>(), vec![4]);
        assert!(!cfg.is_valid_jumpdest(1));
        assert!(cfg.is_valid_jumpdest(4));
    }

    #[test]
    fn jump_splits_blocks() {
        // PUSH1 4 JUMP STOP JUMPDEST STOP
        let code = [0x60, 0x04, 0x56, 0x00, 0x5b, 0x00];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[0].exit, BlockExit::Jump);
        assert_eq!(cfg.blocks[1].start, 3);
        assert_eq!(cfg.blocks[2].start, 4);
        assert_eq!(cfg.block_at(4), Some(2));
    }

    #[test]
    fn truncated_push_clamps_span() {
        // PUSH4 with only 2 immediate bytes present.
        let code = [0x63, 0x01, 0x02];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.instrs.len(), 1);
        assert_eq!(cfg.instrs[0].imm_len, 4);
        assert_eq!(cfg.blocks[0].end, 3);
        assert_eq!(cfg.blocks[0].exit, BlockExit::Halt);
    }

    #[test]
    fn empty_code_has_no_blocks() {
        let cfg = Cfg::build(&[]);
        assert!(cfg.blocks.is_empty());
        assert!(cfg.instrs.is_empty());
    }
}
