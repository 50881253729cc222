//! Durable bucket storage behind the Path ORAM server.
//!
//! The ORAM server's bucket tree used to live in a plain `Vec` — gone
//! on process death. This module puts it behind the [`BucketBackend`]
//! trait with two implementations:
//!
//! * [`MemBackend`] — the original in-memory tree (the default, and the
//!   "twin" reference in crash-recovery tests);
//! * [`DiskStore`] — a crash-safe, MAC-authenticated store: one
//!   append-only log of segment files in which a commit record gates
//!   the visibility of the bucket records before it, an in-memory
//!   tree-top cache for the hot upper levels, and deterministic disk
//!   fault injection ([`FaultSite::Disk`]).
//!
//! The crash-consistency contract (see DESIGN.md "Durability & crash
//! recovery"): one ORAM access is one transaction; a transaction is
//! visible iff its commit record is durable; recovery on open reads the
//! log back, truncates whatever trails the last commit record, and
//! leaves the store byte-identical to the last committed access.
//!
//! [`FaultSite::Disk`]: tape_sim::fault::FaultSite::Disk

pub mod codec;
mod disk;

pub use disk::{DiskStore, DiskStoreConfig, RecoveryReport};

use tape_crypto::Keccak256;
use tape_primitives::B256;

/// Why a bucket-store operation failed. Every variant is a *typed*
/// degradation — the store never panics on disk misbehavior and never
/// silently serves corrupt data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A host filesystem call failed.
    Io {
        /// The operation that failed (e.g. `"create dir"`, `"append"`).
        op: &'static str,
        /// The host error text.
        detail: String,
    },
    /// A stored record failed framing or MAC verification somewhere a
    /// torn trailing write cannot explain (mid-file, or bit rot caught
    /// on a read).
    Corrupt {
        /// What was found, and where.
        detail: String,
    },
    /// The disk acknowledged a record but returned fewer bytes than it
    /// holds (a short read).
    ShortRead {
        /// Bucket whose read came up short.
        bucket: u64,
        /// Bytes the record holds.
        expected: u32,
        /// Bytes the disk returned.
        actual: u32,
    },
    /// An injected crash killed the store; every subsequent operation
    /// fails until the caller reopens from disk.
    Crashed,
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "disk store I/O failure during {op}: {detail}"),
            StoreError::Corrupt { detail } => write!(f, "disk store corruption: {detail}"),
            StoreError::ShortRead { bucket, expected, actual } => {
                write!(f, "short read on bucket {bucket}: expected {expected} bytes, got {actual}")
            }
            StoreError::Crashed => write!(f, "disk store crashed; reopen to recover"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Storage for the ORAM server's bucket tree.
///
/// A *transaction* spans the [`write_bucket`](Self::write_bucket) calls
/// since the last commit; [`commit`](Self::commit) makes them visible
/// and durable atomically. Reads see committed state plus the current
/// transaction's own staged writes (read-your-writes within one access).
pub trait BucketBackend: core::fmt::Debug {
    /// Reads one bucket's slot ciphertexts. A never-written bucket
    /// yields `capacity` empty slots.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on disk faults, corruption, or a crashed store.
    fn read_bucket(&mut self, bucket: u64) -> Result<Vec<Vec<u8>>, StoreError>;

    /// Stages one bucket's slot ciphertexts into the open transaction.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on disk faults or a crashed store.
    fn write_bucket(&mut self, bucket: u64, slots: Vec<Vec<u8>>) -> Result<(), StoreError>;

    /// Commits the open transaction: staged bucket writes plus the
    /// pending meta blob become visible and durable, and
    /// [`committed_seq`](Self::committed_seq) advances by one.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on disk faults or a crashed store.
    fn commit(&mut self) -> Result<(), StoreError>;

    /// Sequence number of the last committed transaction (0 = none).
    fn committed_seq(&self) -> u64;

    /// Stages an opaque meta blob (the sealed ORAM client state) to ride
    /// the next commit. The store never interprets it.
    fn put_meta(&mut self, meta: &[u8]);

    /// The meta blob carried by the last committed transaction.
    fn meta(&self) -> Option<Vec<u8>>;

    /// A keccak digest over every committed bucket's raw stored slot
    /// bytes, in `(bucket, slot)` order. Two backends holding the same
    /// logical tree produce the same digest — the byte-identity oracle
    /// crash-recovery tests compare against an in-memory twin.
    fn state_digest(&self) -> B256;

    /// Test/adversary hook: mutates stored slot ciphertexts in place via
    /// `f(bucket, slot, bytes)`. Models the malicious SP rewriting its
    /// own storage (store-level framing stays valid; only the client's
    /// AES-GCM can catch it).
    fn corrupt_slots(&mut self, f: &mut dyn FnMut(u64, usize, &mut Vec<u8>));
}

/// Digest helper shared by backends: extends `h` with one bucket's
/// slots in canonical order.
fn digest_bucket(h: &mut Keccak256, bucket: u64, slots: &[Vec<u8>]) {
    h.update(&bucket.to_be_bytes());
    for (i, slot) in slots.iter().enumerate() {
        h.update(&(i as u32).to_be_bytes());
        h.update(&(slot.len() as u32).to_be_bytes());
        h.update(slot);
    }
}

/// The original in-memory bucket tree — default backend, and the
/// reference "twin" for disk crash-recovery byte-identity checks.
#[derive(Debug)]
pub struct MemBackend {
    buckets: Vec<Vec<Vec<u8>>>,
    staged: Vec<(u64, Vec<Vec<u8>>)>,
    seq: u64,
    pending_meta: Option<Vec<u8>>,
    meta: Option<Vec<u8>>,
}

impl MemBackend {
    /// An empty tree of `bucket_count` buckets × `capacity` slots.
    pub fn new(bucket_count: u64, capacity: usize) -> Self {
        MemBackend {
            buckets: (0..bucket_count).map(|_| vec![Vec::new(); capacity]).collect(),
            staged: Vec::new(),
            seq: 0,
            pending_meta: None,
            meta: None,
        }
    }
}

impl BucketBackend for MemBackend {
    fn read_bucket(&mut self, bucket: u64) -> Result<Vec<Vec<u8>>, StoreError> {
        // Read-your-writes: the open transaction's latest staging wins.
        if let Some((_, slots)) = self.staged.iter().rev().find(|(b, _)| *b == bucket) {
            return Ok(slots.clone());
        }
        Ok(self.buckets[bucket as usize].clone())
    }

    fn write_bucket(&mut self, bucket: u64, slots: Vec<Vec<u8>>) -> Result<(), StoreError> {
        self.staged.push((bucket, slots));
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        for (bucket, slots) in self.staged.drain(..) {
            self.buckets[bucket as usize] = slots;
        }
        if let Some(meta) = self.pending_meta.take() {
            self.meta = Some(meta);
        }
        self.seq += 1;
        Ok(())
    }

    fn committed_seq(&self) -> u64 {
        self.seq
    }

    fn put_meta(&mut self, meta: &[u8]) {
        self.pending_meta = Some(meta.to_vec());
    }

    fn meta(&self) -> Option<Vec<u8>> {
        self.meta.clone()
    }

    fn state_digest(&self) -> B256 {
        let mut h = Keccak256::new();
        for (bucket, slots) in self.buckets.iter().enumerate() {
            digest_bucket(&mut h, bucket as u64, slots);
        }
        h.finalize()
    }

    fn corrupt_slots(&mut self, f: &mut dyn FnMut(u64, usize, &mut Vec<u8>)) {
        for (bucket, slots) in self.buckets.iter_mut().enumerate() {
            for (i, slot) in slots.iter_mut().enumerate() {
                f(bucket as u64, i, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_commit_gates_visibility_of_meta_and_seq() {
        let mut store = MemBackend::new(7, 2);
        store.write_bucket(3, vec![vec![1], vec![2]]).expect("stage");
        store.put_meta(b"client-state");
        assert_eq!(store.committed_seq(), 0);
        assert_eq!(store.meta(), None);
        // Read-your-writes before commit.
        assert_eq!(store.read_bucket(3).expect("read"), vec![vec![1], vec![2]]);
        store.commit().expect("commit");
        assert_eq!(store.committed_seq(), 1);
        assert_eq!(store.meta().as_deref(), Some(&b"client-state"[..]));
        assert_eq!(store.read_bucket(3).expect("read"), vec![vec![1], vec![2]]);
        assert_eq!(store.read_bucket(0).expect("read"), vec![Vec::new(); 2]);
    }

    #[test]
    fn digest_tracks_content_not_history() {
        let mut a = MemBackend::new(3, 1);
        let mut b = MemBackend::new(3, 1);
        a.write_bucket(0, vec![vec![9]]).expect("stage");
        a.commit().expect("commit");
        a.write_bucket(1, vec![vec![5]]).expect("stage");
        a.commit().expect("commit");
        // Same final content, different commit history.
        b.write_bucket(1, vec![vec![5]]).expect("stage");
        b.write_bucket(0, vec![vec![9]]).expect("stage");
        b.commit().expect("commit");
        assert_eq!(a.state_digest(), b.state_digest());
        b.write_bucket(0, vec![vec![8]]).expect("stage");
        b.commit().expect("commit");
        assert_ne!(a.state_digest(), b.state_digest());
    }
}
