//! # tape-sim
//!
//! The simulation substrate that replaces the paper's physical testbed:
//! a deterministic virtual [`Clock`], the calibrated [`CostModel`]
//! standing in for the FPGA / Cortex-A53 / Ethernet / ORAM-server
//! hardware, and the §VI-A [`resources`] model.
//!
//! See DESIGN.md for the substitution table mapping each constant to the
//! paper's measurement.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
pub mod fault;
pub mod queue;
pub mod resources;
pub mod scratch;
pub mod telemetry;

pub use clock::{format_ns, Clock, Nanos};
pub use cost::CostModel;
pub use scratch::Scratch;
