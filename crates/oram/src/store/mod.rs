//! Durable bucket storage behind the Path ORAM server.
//!
//! The ORAM server's bucket tree sits behind the [`BucketBackend`]
//! trait, which moves a bucket as one slice of `Z` equal-length slot
//! ciphertexts, with two implementations:
//!
//! * [`MemBackend`] — the in-memory tree (the default, and the "twin"
//!   reference in crash-recovery tests);
//! * [`DiskStore`] — a crash-safe, checksummed store: one append-only
//!   log of segment files in which a commit record gates the visibility
//!   of the bucket records before it, each record's CRC-32C checked in
//!   recovery and on every read, and deterministic disk fault injection
//!   ([`FaultSite::Disk`]).
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
    /// A stored record failed framing or checksum verification somewhere a
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
    /// Copies one bucket's slot ciphertexts into `slots`; `false`, and
    /// `slots` untouched, for a bucket that was never written.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on disk faults, corruption, or a crashed store.
    fn read_bucket(&mut self, bucket: u64, slots: &mut [u8]) -> Result<bool, StoreError>;

    /// Stages one bucket's slot ciphertexts into the open transaction.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on disk faults or a crashed store.
    fn write_bucket(&mut self, bucket: u64, slots: &[u8]) -> Result<(), StoreError>;

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
    fn put_meta(&mut self, meta: Vec<u8>);

    /// The meta blob carried by the last committed transaction.
    fn meta(&self) -> Option<&[u8]>;

    /// A keccak digest over every committed bucket's raw stored slot
    /// bytes, in `(bucket, slot)` order. Two backends holding the same
    /// logical tree produce the same digest — the byte-identity oracle
    /// crash-recovery tests compare against an in-memory twin.
    fn state_digest(&self) -> B256;
}

/// Digest helper shared by backends: extends `h` with one bucket's
/// `capacity` slots in canonical order. A never-written bucket is the
/// empty slice: `capacity` zero-length slots.
fn digest_bucket(h: &mut Keccak256, bucket: u64, slots: &[u8], capacity: usize) {
    h.update(&bucket.to_be_bytes());
    let slot_len = slots.len() / capacity;
    for i in 0..capacity {
        h.update(&(i as u32).to_be_bytes());
        h.update(&(slot_len as u32).to_be_bytes());
        h.update(&slots[i * slot_len..][..slot_len]);
    }
}

/// Overwrites a stored bucket where it lies; its one allocation is made
/// at its first write.
fn overwrite(stored: &mut Box<[u8]>, bytes: &[u8]) {
    if stored.len() == bytes.len() {
        stored.copy_from_slice(bytes);
    } else {
        *stored = bytes.into();
    }
}

/// The open transaction's bucket writes: bucket indices in arrival
/// order and their equal-length byte strings end to end, in two buffers
/// that are cleared, not dropped, from one transaction to the next.
#[derive(Debug, Default)]
struct Staged {
    buckets: Vec<u64>,
    bytes: Vec<u8>,
}

impl Staged {
    /// Every staged write, oldest first.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &[u8])> {
        let each = (self.bytes.len() / self.buckets.len().max(1)).max(1);
        self.buckets.iter().copied().zip(self.bytes.chunks_exact(each))
    }

    /// Read-your-writes: the latest staging of `bucket`.
    fn latest(&self, bucket: u64) -> Option<&[u8]> {
        self.iter().rev().find(|(b, _)| *b == bucket).map(|(_, bytes)| bytes)
    }
}

/// The in-memory bucket tree — default backend, and the reference
/// "twin" for disk crash-recovery byte-identity checks.
#[derive(Debug)]
pub struct MemBackend {
    capacity: usize,
    /// One flat allocation per bucket (empty = never written). Not one
    /// slab for the tree: most buckets of a tall tree are never written.
    buckets: Vec<Box<[u8]>>,
    staged: Staged,
    seq: u64,
    pending_meta: Option<Vec<u8>>,
    meta: Option<Vec<u8>>,
}

impl MemBackend {
    /// An empty tree of `bucket_count` buckets × `capacity` slots.
    pub fn new(bucket_count: u64, capacity: usize) -> Self {
        MemBackend {
            capacity,
            buckets: vec![Box::default(); bucket_count as usize],
            staged: Staged::default(),
            seq: 0,
            pending_meta: None,
            meta: None,
        }
    }
}

impl BucketBackend for MemBackend {
    fn read_bucket(&mut self, bucket: u64, slots: &mut [u8]) -> Result<bool, StoreError> {
        let stored = self.staged.latest(bucket).unwrap_or(&self.buckets[bucket as usize]);
        if stored.is_empty() {
            return Ok(false);
        }
        slots.copy_from_slice(stored);
        Ok(true)
    }

    fn write_bucket(&mut self, bucket: u64, slots: &[u8]) -> Result<(), StoreError> {
        self.staged.buckets.push(bucket);
        self.staged.bytes.extend_from_slice(slots);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        for (bucket, slots) in self.staged.iter() {
            overwrite(&mut self.buckets[bucket as usize], slots);
        }
        self.staged.buckets.clear();
        self.staged.bytes.clear();
        if let Some(meta) = self.pending_meta.take() {
            self.meta = Some(meta);
        }
        self.seq += 1;
        Ok(())
    }

    fn committed_seq(&self) -> u64 {
        self.seq
    }

    fn put_meta(&mut self, meta: Vec<u8>) {
        self.pending_meta = Some(meta);
    }

    fn meta(&self) -> Option<&[u8]> {
        self.meta.as_deref()
    }

    fn state_digest(&self) -> B256 {
        let mut h = Keccak256::new();
        for (bucket, slots) in self.buckets.iter().enumerate() {
            digest_bucket(&mut h, bucket as u64, slots, self.capacity);
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_commit_gates_visibility_of_meta_and_seq() {
        let mut store = MemBackend::new(7, 2);
        let mut slots = [0u8; 2];
        store.write_bucket(3, &[1, 2]).expect("stage");
        store.put_meta(b"client-state".to_vec());
        assert_eq!(store.committed_seq(), 0);
        assert_eq!(store.meta(), None);
        // Read-your-writes before commit.
        assert!(store.read_bucket(3, &mut slots).expect("read"));
        assert_eq!(slots, [1, 2]);
        store.commit().expect("commit");
        assert_eq!(store.committed_seq(), 1);
        assert_eq!(store.meta(), Some(&b"client-state"[..]));
        slots = [0; 2];
        assert!(store.read_bucket(3, &mut slots).expect("read"));
        assert_eq!(slots, [1, 2]);
        assert!(!store.read_bucket(0, &mut slots).expect("read"), "never written");
        assert_eq!(slots, [1, 2], "a never-written bucket leaves the buffer alone");
    }

    #[test]
    fn the_latest_staging_of_a_bucket_wins() {
        let mut store = MemBackend::new(3, 2);
        let mut slots = [0u8; 2];
        for bytes in [[1, 2], [3, 4]] {
            store.write_bucket(1, &bytes).expect("stage");
            store.write_bucket(2, &[9, 9]).expect("stage");
        }
        assert!(store.read_bucket(1, &mut slots).expect("read"));
        assert_eq!(slots, [3, 4]);
        store.commit().expect("commit");
        assert!(store.read_bucket(1, &mut slots).expect("read"));
        assert_eq!(slots, [3, 4]);
    }

    #[test]
    fn digest_tracks_content_not_history() {
        let mut a = MemBackend::new(3, 1);
        let mut b = MemBackend::new(3, 1);
        a.write_bucket(0, &[9]).expect("stage");
        a.commit().expect("commit");
        a.write_bucket(1, &[5]).expect("stage");
        a.commit().expect("commit");
        // Same final content, different commit history.
        b.write_bucket(1, &[5]).expect("stage");
        b.write_bucket(0, &[9]).expect("stage");
        b.commit().expect("commit");
        assert_eq!(a.state_digest(), b.state_digest());
        b.write_bucket(0, &[8]).expect("stage");
        b.commit().expect("commit");
        assert_ne!(a.state_digest(), b.state_digest());
    }
}
