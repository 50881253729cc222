#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Fault-tolerant HarDTAPE fleet: a router fronting K devices with
//! rendezvous-hashed tenant sharding, per-device health/quarantine, and
//! live session migration on device failure.
//!
//! The paper evaluates a single HarDTAPE board; a deployment fronts
//! many. This crate adds the layer the paper leaves implicit: what
//! happens when one of K devices wedges or dies. The contract the
//! router keeps is the same one the single-device gateway keeps —
//! every admitted bundle resolves to exactly one typed completion —
//! extended across device failure via migration: tenants re-attest on
//! a survivor, which serves them from its own replica, and every
//! bundle the dead device held — paused mid-run or not — runs again
//! there from the start under its original ticket.
//!
//! Entry point: [`FleetRouter`].

pub mod health;
pub mod router;

pub use health::HealthState;
pub use router::{FleetCompletion, FleetError, FleetRouter, FleetStats};
