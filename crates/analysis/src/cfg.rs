//! Basic-block recovery over raw EVM bytecode, on demand.
//!
//! Blocks are maximal straight-line runs in the style of EtherSolve/
//! Vandal CFG builders:
//!
//! * a **leader** is pc 0, every *valid* `JUMPDEST` (per the same
//!   push-data-aware scan the interpreter uses), and the instruction
//!   following a `JUMP`/`JUMPI` or a halting opcode;
//! * a block runs from its leader to the next leader or terminator,
//!   immediates included, so a block's byte span is exactly the code
//!   range the HEVM touches when executing it.
//!
//! [`Cfg::build`] is the only pass over the whole image: it builds the
//! interpreter's own jump table ([`JumpDests`]) and counts the leaders.
//! [`Cfg::block`] decodes one block from its leader, which the fixpoint
//! in [`crate::flow`] calls only for blocks it reaches — most of a
//! padded image is never decoded at all.
//!
//! Jump *edges* are intentionally absent here: resolving them needs the
//! constant-propagation pass in [`crate::flow`].

use tape_evm::opcode::{self, op};
use tape_state::JumpDests;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// pc of the first instruction (the leader).
    pub start: usize,
    /// One past the last byte of the block (immediates included). For a
    /// jump exit, `end - 1` is the jump's pc.
    pub end: usize,
    /// How the block terminates.
    pub exit: BlockExit,
}

/// The control-flow skeleton of one image: its jump table and how many
/// blocks it has. Blocks themselves are decoded on demand.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Valid `JUMPDEST` pcs — the interpreter's own table.
    pub jumpdests: JumpDests,
    /// Number of basic blocks (leaders) in the whole image.
    pub leaders: usize,
}

impl Cfg {
    /// Scans `code` once for its jump table and leader count.
    pub fn build(code: &[u8]) -> Cfg {
        let mut leaders = 0;
        // pc 0 leads, as does whatever follows a terminator.
        let mut after_exit = true;
        let jumpdests = JumpDests::scan(code, |opcode| {
            if after_exit || opcode == op::JUMPDEST {
                leaders += 1;
            }
            after_exit = ends_block(opcode);
        });
        Cfg { jumpdests, leaders }
    }

    /// Decodes the block whose leader is at `leader`, which must be a
    /// leader pc inside `code`.
    pub fn block(code: &[u8], leader: usize) -> Block {
        let mut pc = leader;
        loop {
            let opcode = code[pc];
            let next = pc + 1 + opcode::immediate_len(opcode);
            let exit = match opcode {
                op::JUMP => BlockExit::Jump,
                op::JUMPI => BlockExit::JumpI,
                _ if halts(opcode) => BlockExit::Halt,
                // Runs off the end of the code: implicit STOP.
                _ if next >= code.len() => BlockExit::Halt,
                // `next` is an instruction start, so a JUMPDEST byte
                // there is a valid one: a leader.
                _ if code[next] == op::JUMPDEST => BlockExit::FallThrough,
                _ => {
                    pc = next;
                    continue;
                }
            };
            return Block { start: leader, end: next.min(code.len()), exit };
        }
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
        assert_eq!(Cfg::build(&code).leaders, 1);
        assert_eq!(
            Cfg::block(&code, 0),
            Block { start: 0, end: 6, exit: BlockExit::Halt }
        );
    }

    #[test]
    fn jumpdest_in_push_data_is_not_valid() {
        // PUSH2 0x5b5b STOP JUMPDEST
        let code = [0x61, 0x5b, 0x5b, 0x00, 0x5b];
        let cfg = Cfg::build(&code);
        assert!(!cfg.jumpdests.is_valid(1));
        assert!(cfg.jumpdests.is_valid(4));
        assert_eq!(cfg.leaders, 2);
    }

    #[test]
    fn jump_splits_blocks() {
        // PUSH1 4 JUMP STOP JUMPDEST STOP
        let code = [0x60, 0x04, 0x56, 0x00, 0x5b, 0x00];
        assert_eq!(Cfg::build(&code).leaders, 3);
        assert_eq!(Cfg::block(&code, 0), Block { start: 0, end: 3, exit: BlockExit::Jump });
        assert_eq!(Cfg::block(&code, 3), Block { start: 3, end: 4, exit: BlockExit::Halt });
        assert_eq!(Cfg::block(&code, 4), Block { start: 4, end: 6, exit: BlockExit::Halt });
    }

    #[test]
    fn jumpdest_ends_the_block_before_it() {
        // PUSH1 1 JUMPDEST JUMPDEST STOP: a leader per JUMPDEST.
        let code = [0x60, 0x01, 0x5b, 0x5b, 0x00];
        assert_eq!(Cfg::build(&code).leaders, 3);
        assert_eq!(Cfg::block(&code, 0).exit, BlockExit::FallThrough);
        assert_eq!(Cfg::block(&code, 0).end, 2);
        assert_eq!(Cfg::block(&code, 2).end, 3);
    }

    #[test]
    fn truncated_push_clamps_span() {
        // PUSH4 with only 2 immediate bytes present.
        let code = [0x63, 0x01, 0x02];
        assert_eq!(Cfg::block(&code, 0), Block { start: 0, end: 3, exit: BlockExit::Halt });
    }

    #[test]
    fn empty_code_has_no_blocks() {
        assert_eq!(Cfg::build(&[]).leaders, 0);
    }
}
