//! The EVM instruction set: opcode bytes, mnemonics, stack arities, base
//! gas, and functional categories.
//!
//! The category taxonomy follows the paper's Figure 2 grouping
//! (ARITHMETIC, JUMP, STACK, MEMORY, STORAGE, CALL-RETURN, frame-state
//! queries); the HEVM pipeline model keys its cycle costs off it.

/// Functional category of an instruction (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// Arithmetic / comparison / bitwise ALU work.
    Arithmetic,
    /// KECCAK256 hashing.
    Keccak,
    /// Frame-state queries (opcodes 0x30–0x4A: ADDRESS, CODESIZE, ...).
    FrameState,
    /// Runtime stack manipulation (PUSH/DUP/SWAP/POP).
    Stack,
    /// Memory-like accesses (Memory, Code, Input, ReturnData).
    Memory,
    /// Persistent storage (SLOAD/SSTORE) and transient storage.
    Storage,
    /// Control flow (JUMP/JUMPI/PC/JUMPDEST/STOP).
    Flow,
    /// Log emission.
    Log,
    /// CALL-RETURN family: calls, creates, returns, selfdestruct.
    CallReturn,
    /// Unassigned/invalid opcodes.
    Invalid,
}

/// Static metadata for one opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInfo {
    /// Mnemonic, e.g. `"ADD"`.
    pub name: &'static str,
    /// Words popped from the stack.
    pub inputs: u8,
    /// Words pushed to the stack.
    pub outputs: u8,
    /// Static base gas (dynamic parts are added by the interpreter).
    pub base_gas: u64,
    /// Functional category.
    pub category: OpCategory,
    /// `true` if the opcode is defined in the supported ruleset.
    pub defined: bool,
}

const UNDEFINED: OpInfo = OpInfo {
    name: "INVALID",
    inputs: 0,
    outputs: 0,
    base_gas: 0,
    category: OpCategory::Invalid,
    defined: false,
};

macro_rules! optable {
    ($($byte:literal => $name:ident, $in:literal, $out:literal, $gas:literal, $cat:ident;)*) => {
        /// Opcode byte constants.
        pub mod op {
            $(#[doc = concat!("The `", stringify!($name), "` opcode.")]
              pub const $name: u8 = $byte;)*
        }

        /// The static opcode metadata table, indexed by opcode byte.
        pub static OPCODES: [OpInfo; 256] = {
            let mut table = [UNDEFINED; 256];
            $(table[$byte] = OpInfo {
                name: stringify!($name),
                inputs: $in,
                outputs: $out,
                base_gas: $gas,
                category: OpCategory::$cat,
                defined: true,
            };)*
            table
        };
    };
}

optable! {
    0x00 => STOP, 0, 0, 0, Flow;
    0x01 => ADD, 2, 1, 3, Arithmetic;
    0x02 => MUL, 2, 1, 5, Arithmetic;
    0x03 => SUB, 2, 1, 3, Arithmetic;
    0x04 => DIV, 2, 1, 5, Arithmetic;
    0x05 => SDIV, 2, 1, 5, Arithmetic;
    0x06 => MOD, 2, 1, 5, Arithmetic;
    0x07 => SMOD, 2, 1, 5, Arithmetic;
    0x08 => ADDMOD, 3, 1, 8, Arithmetic;
    0x09 => MULMOD, 3, 1, 8, Arithmetic;
    0x0a => EXP, 2, 1, 10, Arithmetic;
    0x0b => SIGNEXTEND, 2, 1, 5, Arithmetic;
    0x10 => LT, 2, 1, 3, Arithmetic;
    0x11 => GT, 2, 1, 3, Arithmetic;
    0x12 => SLT, 2, 1, 3, Arithmetic;
    0x13 => SGT, 2, 1, 3, Arithmetic;
    0x14 => EQ, 2, 1, 3, Arithmetic;
    0x15 => ISZERO, 1, 1, 3, Arithmetic;
    0x16 => AND, 2, 1, 3, Arithmetic;
    0x17 => OR, 2, 1, 3, Arithmetic;
    0x18 => XOR, 2, 1, 3, Arithmetic;
    0x19 => NOT, 1, 1, 3, Arithmetic;
    0x1a => BYTE, 2, 1, 3, Arithmetic;
    0x1b => SHL, 2, 1, 3, Arithmetic;
    0x1c => SHR, 2, 1, 3, Arithmetic;
    0x1d => SAR, 2, 1, 3, Arithmetic;
    0x20 => KECCAK256, 2, 1, 30, Keccak;
    0x30 => ADDRESS, 0, 1, 2, FrameState;
    0x31 => BALANCE, 1, 1, 0, FrameState;
    0x32 => ORIGIN, 0, 1, 2, FrameState;
    0x33 => CALLER, 0, 1, 2, FrameState;
    0x34 => CALLVALUE, 0, 1, 2, FrameState;
    0x35 => CALLDATALOAD, 1, 1, 3, Memory;
    0x36 => CALLDATASIZE, 0, 1, 2, FrameState;
    0x37 => CALLDATACOPY, 3, 0, 3, Memory;
    0x38 => CODESIZE, 0, 1, 2, FrameState;
    0x39 => CODECOPY, 3, 0, 3, Memory;
    0x3a => GASPRICE, 0, 1, 2, FrameState;
    0x3b => EXTCODESIZE, 1, 1, 0, FrameState;
    0x3c => EXTCODECOPY, 4, 0, 0, Memory;
    0x3d => RETURNDATASIZE, 0, 1, 2, FrameState;
    0x3e => RETURNDATACOPY, 3, 0, 3, Memory;
    0x3f => EXTCODEHASH, 1, 1, 0, FrameState;
    0x40 => BLOCKHASH, 1, 1, 20, FrameState;
    0x41 => COINBASE, 0, 1, 2, FrameState;
    0x42 => TIMESTAMP, 0, 1, 2, FrameState;
    0x43 => NUMBER, 0, 1, 2, FrameState;
    0x44 => PREVRANDAO, 0, 1, 2, FrameState;
    0x45 => GASLIMIT, 0, 1, 2, FrameState;
    0x46 => CHAINID, 0, 1, 2, FrameState;
    0x47 => SELFBALANCE, 0, 1, 5, FrameState;
    0x48 => BASEFEE, 0, 1, 2, FrameState;
    0x50 => POP, 1, 0, 2, Stack;
    0x51 => MLOAD, 1, 1, 3, Memory;
    0x52 => MSTORE, 2, 0, 3, Memory;
    0x53 => MSTORE8, 2, 0, 3, Memory;
    0x54 => SLOAD, 1, 1, 0, Storage;
    0x55 => SSTORE, 2, 0, 0, Storage;
    0x56 => JUMP, 1, 0, 8, Flow;
    0x57 => JUMPI, 2, 0, 10, Flow;
    0x58 => PC, 0, 1, 2, Flow;
    0x59 => MSIZE, 0, 1, 2, FrameState;
    0x5a => GAS, 0, 1, 2, FrameState;
    0x5b => JUMPDEST, 0, 0, 1, Flow;
    0x5c => TLOAD, 1, 1, 100, Storage;
    0x5d => TSTORE, 2, 0, 100, Storage;
    0x5e => MCOPY, 3, 0, 3, Memory;
    0x5f => PUSH0, 0, 1, 2, Stack;
    0x60 => PUSH1, 0, 1, 3, Stack;
    0x61 => PUSH2, 0, 1, 3, Stack;
    0x62 => PUSH3, 0, 1, 3, Stack;
    0x63 => PUSH4, 0, 1, 3, Stack;
    0x64 => PUSH5, 0, 1, 3, Stack;
    0x65 => PUSH6, 0, 1, 3, Stack;
    0x66 => PUSH7, 0, 1, 3, Stack;
    0x67 => PUSH8, 0, 1, 3, Stack;
    0x68 => PUSH9, 0, 1, 3, Stack;
    0x69 => PUSH10, 0, 1, 3, Stack;
    0x6a => PUSH11, 0, 1, 3, Stack;
    0x6b => PUSH12, 0, 1, 3, Stack;
    0x6c => PUSH13, 0, 1, 3, Stack;
    0x6d => PUSH14, 0, 1, 3, Stack;
    0x6e => PUSH15, 0, 1, 3, Stack;
    0x6f => PUSH16, 0, 1, 3, Stack;
    0x70 => PUSH17, 0, 1, 3, Stack;
    0x71 => PUSH18, 0, 1, 3, Stack;
    0x72 => PUSH19, 0, 1, 3, Stack;
    0x73 => PUSH20, 0, 1, 3, Stack;
    0x74 => PUSH21, 0, 1, 3, Stack;
    0x75 => PUSH22, 0, 1, 3, Stack;
    0x76 => PUSH23, 0, 1, 3, Stack;
    0x77 => PUSH24, 0, 1, 3, Stack;
    0x78 => PUSH25, 0, 1, 3, Stack;
    0x79 => PUSH26, 0, 1, 3, Stack;
    0x7a => PUSH27, 0, 1, 3, Stack;
    0x7b => PUSH28, 0, 1, 3, Stack;
    0x7c => PUSH29, 0, 1, 3, Stack;
    0x7d => PUSH30, 0, 1, 3, Stack;
    0x7e => PUSH31, 0, 1, 3, Stack;
    0x7f => PUSH32, 0, 1, 3, Stack;
    0x80 => DUP1, 1, 2, 3, Stack;
    0x81 => DUP2, 2, 3, 3, Stack;
    0x82 => DUP3, 3, 4, 3, Stack;
    0x83 => DUP4, 4, 5, 3, Stack;
    0x84 => DUP5, 5, 6, 3, Stack;
    0x85 => DUP6, 6, 7, 3, Stack;
    0x86 => DUP7, 7, 8, 3, Stack;
    0x87 => DUP8, 8, 9, 3, Stack;
    0x88 => DUP9, 9, 10, 3, Stack;
    0x89 => DUP10, 10, 11, 3, Stack;
    0x8a => DUP11, 11, 12, 3, Stack;
    0x8b => DUP12, 12, 13, 3, Stack;
    0x8c => DUP13, 13, 14, 3, Stack;
    0x8d => DUP14, 14, 15, 3, Stack;
    0x8e => DUP15, 15, 16, 3, Stack;
    0x8f => DUP16, 16, 17, 3, Stack;
    0x90 => SWAP1, 2, 2, 3, Stack;
    0x91 => SWAP2, 3, 3, 3, Stack;
    0x92 => SWAP3, 4, 4, 3, Stack;
    0x93 => SWAP4, 5, 5, 3, Stack;
    0x94 => SWAP5, 6, 6, 3, Stack;
    0x95 => SWAP6, 7, 7, 3, Stack;
    0x96 => SWAP7, 8, 8, 3, Stack;
    0x97 => SWAP8, 9, 9, 3, Stack;
    0x98 => SWAP9, 10, 10, 3, Stack;
    0x99 => SWAP10, 11, 11, 3, Stack;
    0x9a => SWAP11, 12, 12, 3, Stack;
    0x9b => SWAP12, 13, 13, 3, Stack;
    0x9c => SWAP13, 14, 14, 3, Stack;
    0x9d => SWAP14, 15, 15, 3, Stack;
    0x9e => SWAP15, 16, 16, 3, Stack;
    0x9f => SWAP16, 17, 17, 3, Stack;
    0xa0 => LOG0, 2, 0, 375, Log;
    0xa1 => LOG1, 3, 0, 750, Log;
    0xa2 => LOG2, 4, 0, 1125, Log;
    0xa3 => LOG3, 5, 0, 1500, Log;
    0xa4 => LOG4, 6, 0, 1875, Log;
    0xf0 => CREATE, 3, 1, 32000, CallReturn;
    0xf1 => CALL, 7, 1, 0, CallReturn;
    0xf2 => CALLCODE, 7, 1, 0, CallReturn;
    0xf3 => RETURN, 2, 0, 0, CallReturn;
    0xf4 => DELEGATECALL, 6, 1, 0, CallReturn;
    0xf5 => CREATE2, 4, 1, 32000, CallReturn;
    0xfa => STATICCALL, 6, 1, 0, CallReturn;
    0xfd => REVERT, 2, 0, 0, CallReturn;
    0xfe => INVALID, 0, 0, 0, Invalid;
    0xff => SELFDESTRUCT, 1, 0, 5000, CallReturn;
}

/// Looks up opcode metadata.
#[inline]
pub fn info(opcode: u8) -> &'static OpInfo {
    &OPCODES[opcode as usize]
}

/// Returns `true` for PUSH1..PUSH32.
#[inline]
pub fn is_push(opcode: u8) -> bool {
    (op::PUSH1..=op::PUSH32).contains(&opcode)
}

/// Number of immediate data bytes following the opcode (PUSH only).
#[inline]
pub fn immediate_len(opcode: u8) -> usize {
    if is_push(opcode) {
        (opcode - op::PUSH1 + 1) as usize
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_well_formed() {
        assert_eq!(info(op::ADD).name, "ADD");
        assert_eq!(info(op::ADD).inputs, 2);
        assert_eq!(info(op::PUSH32).name, "PUSH32");
        assert!(info(op::STOP).defined);
        assert!(!info(0x0c).defined);
        assert!(!info(0x21).defined);
        assert_eq!(info(0xfe).name, "INVALID");
    }

    #[test]
    fn categories_match_paper_figure_2() {
        assert_eq!(info(op::ADD).category, OpCategory::Arithmetic);
        assert_eq!(info(op::JUMP).category, OpCategory::Flow);
        assert_eq!(info(op::SLOAD).category, OpCategory::Storage);
        assert_eq!(info(op::CALL).category, OpCategory::CallReturn);
        assert_eq!(info(op::ADDRESS).category, OpCategory::FrameState);
        assert_eq!(info(op::MLOAD).category, OpCategory::Memory);
        assert_eq!(info(op::DUP1).category, OpCategory::Stack);
    }

    #[test]
    fn push_immediates() {
        assert_eq!(immediate_len(op::PUSH1), 1);
        assert_eq!(immediate_len(op::PUSH32), 32);
        assert_eq!(immediate_len(op::ADD), 0);
        assert!(is_push(op::PUSH7));
        assert!(!is_push(op::PUSH0));
        assert!(!is_push(op::DUP1));
    }
}
