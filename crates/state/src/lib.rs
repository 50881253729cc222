//! # tape-state
//!
//! The Ethereum world state substrate: account records, read-only state
//! backends, and the journaled overlay that gives execution frames their
//! commit/revert semantics (paper §II-A, §IV-B).
//!
//! Pre-execution never mutates a backend: every write lands in a
//! [`JournaledState`] overlay and evaporates when the bundle finishes,
//! exactly as HarDTAPE discards world-state modifications at step 10 of
//! its lifecycle.
//!
//! # Examples
//!
//! ```
//! use tape_primitives::{Address, U256};
//! use tape_state::{Account, InMemoryState, JournaledState, StateReader};
//!
//! let mut backend = InMemoryState::new();
//! let user = Address::from_low_u64(0xA11CE);
//! backend.put_account(user, Account::with_balance(U256::from(1_000u64)));
//!
//! let mut overlay = JournaledState::new(&backend);
//! let frame = overlay.checkpoint();
//! overlay.sstore(&user, &U256::ONE, U256::from(42u64));
//! overlay.commit(frame);
//!
//! assert_eq!(overlay.sload(&user, &U256::ONE).value, U256::from(42u64));
//! assert_eq!(backend.storage(&user, &U256::ONE), U256::ZERO); // untouched
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account;
mod backend;
mod code;
mod journal;
mod undo;

pub use account::{Account, AccountInfo, Log, EMPTY_CODE_HASH};
pub use backend::{InMemoryState, StateReader};
pub use code::{Code, JumpDests};
pub use journal::{
    Checkpoint, InsufficientBalance, JournalSuspend, JournaledState, SloadResult, SstoreResult,
    StateChanges,
};
pub use undo::{UndoDelta, UndoRing};
