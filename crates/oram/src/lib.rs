//! # tape-oram
//!
//! Access-pattern protection for the Ethereum world state (paper §IV-D):
//!
//! * [`OramClient`] / [`OramServer`] — Path ORAM with AES-GCM
//!   randomized re-encryption; the server observes only uniformly random
//!   `(leaf, fixed-size-ciphertext)` traffic.
//! * [`PageKey`] / [`ObliviousState`] — the world state reassembled into
//!   1 KB pages: code split pagewise, storage records grouped 32 per page
//!   by consecutive keys, account headers in meta pages — all with
//!   identical wire format so query *types* are indistinguishable.
//! * [`CodePrefetcher`] — pagewise code prefetching on a randomized
//!   interval timer, hiding the burst pattern of code fetches.
//!
//! # Examples
//!
//! ```
//! use tape_crypto::SecureRng;
//! use tape_oram::{OramClient, OramConfig, OramServer};
//! use tape_sim::{Clock, CostModel};
//!
//! let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 6 };
//! let mut server = OramServer::new(config.clone());
//! let mut client = OramClient::new(config, &[0u8; 16], SecureRng::from_seed(b"doc"));
//! let (clock, cost) = (Clock::new(), CostModel::default());
//!
//! let id = tape_crypto::keccak256(b"my-page");
//! client.write(&mut server, &clock, &cost, &id, vec![42u8; 64])?;
//! assert_eq!(client.read(&mut server, &clock, &cost, &id)?, Some(vec![42u8; 64]));
//! # Ok::<(), tape_oram::OramError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pagestore;
mod path_oram;
mod prefetch;
pub mod store;

pub use pagestore::{ObliviousState, PageKey, QueryStats, RECORDS_PER_GROUP};
pub use path_oram::{BlockId, ObservedAccess, OramClient, OramConfig, OramError, OramServer};
pub use prefetch::{CodePrefetcher, PrefetchStats};
pub use store::{BucketBackend, DiskStore, DiskStoreConfig, MemBackend, RecoveryReport, StoreError};
