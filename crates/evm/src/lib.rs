//! # tape-evm
//!
//! A from-scratch Ethereum Virtual Machine: the reference interpreter of
//! the HarDTAPE reproduction ("functionally equivalent to the interpreter
//! module of Geth", paper §IV-B). It provides:
//!
//! * the full instruction set with "Cancun-lite" gas rules
//!   ([`opcode`], [`gas`]),
//! * a transaction executor over journaled state ([`Evm`]),
//! * precompiles 0x1/0x2/0x4 ([`precompile`]),
//! * structured tracing equivalent to `debug_traceTransaction`
//!   ([`StructTracer`]), and
//! * the [`Inspector`] hook surface used by the Table-I statistics
//!   collector and the HEVM timing model.
//!
//! This engine plays two roles in the evaluation: ground truth for the
//! §VI-B correctness comparison against the independently implemented
//! hardware EVM, and the "Geth" baseline for Figures 4 and 5.
//!
//! It executes one instruction at a time through one `match`, on a
//! [`Stack`] checked at every pop and push, as the Geth interpreter does.
//! [`Words`] and [`Stack::open`] are here for the HEVM's straight-line
//! runs only; this engine does not use them, so the §VI-B comparison
//! holds the HEVM's block path to an engine that shares none of it.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod gas;
mod interp;
mod memory;
pub mod opcode;
pub mod precompile;
mod stack;
mod tracer;
mod types;

pub use interp::{create2_address, create_address, Evm};
pub use memory::Memory;
pub use stack::{Stack, StackError, Words, STACK_LIMIT};
pub use tracer::{StructTracer, TraceCall, TraceStep};
pub use types::{
    Env, FrameEnd, FrameStart, Inspector, NoopInspector, StateAccess, StepInfo, Transaction,
    TxError, TxResult, VmError,
};

impl<T: Inspector + ?Sized> Inspector for &mut T {
    fn step(&mut self, step: &StepInfo<'_>) {
        (**self).step(step);
    }
    fn call_start(&mut self, frame: &FrameStart) {
        (**self).call_start(frame);
    }
    fn call_end(&mut self, end: &FrameEnd) {
        (**self).call_end(end);
    }
    fn state_access(&mut self, access: &StateAccess) {
        (**self).state_access(access);
    }
}
