//! # tape-hevm
//!
//! The hardware EVM emulator: the paper's four-stage pipelined HEVM
//! (§IV-B), reproduced as a second, independently organized EVM engine
//! over an explicit 3-layer memory hierarchy:
//!
//! * **Layer 1** — per-partition caches for Code / Input / Memory /
//!   ReturnData / world state / the full runtime stack, with miss
//!   accounting ([`MemLike`]).
//! * **Layer 2** — the explicit execution-frame vector, paged in 1 KB
//!   units inside a 1 MB ring; a single frame exceeding half the ring is
//!   stopped with a *Memory Overflow Error* ([`HevmAbort`]).
//! * **Layer 3** — untrusted memory: spilled frames are AES-GCM sealed
//!   and their observable swap sizes carry random pre-evict/pre-load
//!   noise ([`Layer3Pager`], [`SwapEvent`]).
//!
//! Every retired instruction advances the shared virtual clock by its
//! pipeline cost, making the engine the timing source for Figures 4/5.
//! Trace-for-trace equivalence with the reference engine (`tape-evm`) is
//! enforced by the §VI-B differential tests.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod layers;
mod memlike;
mod run;

pub use engine::{Checkpoint, Hevm, HevmAbort, HevmConfig, HevmStats, SliceOutcome};
pub use layers::{Layer3Pager, Layer3Tampered, SwapEvent, SwappedFrame};
pub use memlike::MemLike;
pub use run::{is_pure, Run};
