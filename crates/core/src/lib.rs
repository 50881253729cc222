//! # hardtape
//!
//! The HarDTAPE pre-execution service (paper §III–§IV): a
//! hardware-dedicated trusted transaction pre-executor reproduced on
//! simulated hardware.
//!
//! One [`HarDTape`] device runs the full Fig. 3 lifecycle:
//!
//! 1. secure boot + remote attestation ([`HarDTape::connect_user`]),
//! 2. exclusive HEVM assignment per bundle,
//! 3. execution over the 3-layer memory hierarchy with the selected
//!    [`SecurityConfig`] (`-raw` … `-full`),
//! 4. ORAM-protected world-state queries,
//! 5. signed, encrypted trace reporting ([`BundleReport`]),
//! 6. proof-verified block synchronization ([`HarDTape::sync_block`]).
//!
//! # Examples
//!
//! ```
//! use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
//! use tape_evm::{Env, Transaction};
//! use tape_primitives::{Address, U256};
//! use tape_state::{Account, InMemoryState};
//!
//! let mut genesis = InMemoryState::new();
//! let user = Address::from_low_u64(1);
//! genesis.put_account(user, Account::with_balance(U256::from(u64::MAX)));
//!
//! let mut device = HarDTape::new(
//!     ServiceConfig::at_level(SecurityConfig::Es),
//!     Env::default(),
//!     &genesis,
//! )?;
//! let mut session = device.connect_user(b"doc user")?;
//! let bundle = Bundle::single(Transaction::transfer(
//!     user,
//!     Address::from_low_u64(0xB0B),
//!     U256::from(5u64),
//! ));
//! let report = device.pre_execute(&mut session, &bundle)?;
//! assert!(report.results[0].success);
//! assert!(report.signature.is_some());
//! # Ok::<(), hardtape::ServiceError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod gateway;
mod pool;
mod reader;
mod service;

pub use config::{GatewayConfig, SecurityConfig};
pub use gateway::{
    merge_completions, Completion, FailoverEntry, Gateway, GatewayError, GatewayStats,
    QUEUE_DEPTH,
};
pub use reader::HybridState;
pub use tape_analysis::PrecisionSummary;
pub use service::{
    Bundle, BundlePause, BundleReport, ForkPoint, HarDTape, PreExecOutcome, ServiceConfig,
    ServiceError, StalenessBound, SyncOutcome, UserHandle,
};
