//! Path ORAM (Stefanov & Shi) with AES-GCM re-encryption.
//!
//! The client hides which logical block it touches: every access reads
//! and rewrites one whole root-to-leaf path of randomized-encrypted
//! buckets, and the accessed block is remapped to a fresh uniformly
//! random leaf. The server (run by the untrusted SP) sees only
//! `(leaf, ciphertexts)` pairs — the access-pattern protection of paper
//! §IV-D.

use crate::store::{BucketBackend, MemBackend, StoreError};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};
use tape_crypto::{AesGcm, SecureRng};
use tape_primitives::B256;
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::{Clock, CostModel, Nanos};

/// Logical block identifier (a hash of the page key).
pub type BlockId = B256;

/// SipHash under a fixed key, where `RandomState` draws one per process.
/// How a table that is inserted into and erased from lays out its
/// tombstones — and so whether it next rehashes in place or reallocates
/// — depends on the hash key, and two runs of one schedule should make
/// the same allocations. Nothing here needs the random key: block ids
/// are keccak outputs nobody can aim, and the page cache, whose keys a
/// user does choose, pays an ORAM access for every entry it gains —
/// next to that a long probe sequence costs nothing.
pub(crate) type FixedState = BuildHasherDefault<DefaultHasher>;
/// A `HashMap` that behaves the same in every process.
pub(crate) type FixedMap<K, V> = HashMap<K, V, FixedState>;
/// A `HashSet` that behaves the same in every process.
pub(crate) type FixedSet<K> = HashSet<K, FixedState>;

/// Tree and block geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OramConfig {
    /// Payload bytes per *block* (paper: 1 KB).
    pub block_size: usize,
    /// Blocks per bucket (Z; the classic choice is 4).
    pub bucket_capacity: usize,
    /// Tree height: leaves = `2^height`, buckets = `2^(height+1) - 1`.
    pub height: u32,
}

impl Default for OramConfig {
    fn default() -> Self {
        // A laptop-scale tree. The paper's 1.1 TB world state corresponds
        // to height ≈ 30 (n ≈ 10⁹ blocks); experiments scale the height
        // and extrapolate (see EXPERIMENTS.md).
        OramConfig { block_size: 1024, bucket_capacity: 4, height: 12 }
    }
}

impl OramConfig {
    /// Number of leaves.
    pub fn leaves(&self) -> u64 {
        1 << self.height
    }

    /// Total bucket count.
    pub fn buckets(&self) -> u64 {
        (1 << (self.height + 1)) - 1
    }

    /// Buckets on one root-to-leaf path.
    pub fn path_len(&self) -> u64 {
        self.height as u64 + 1
    }

    /// Blocks touched per access (read + rewrite of one path).
    pub fn blocks_per_access(&self) -> u64 {
        self.path_len() * self.bucket_capacity as u64
    }

    /// Bytes of one slot wherever it is stored or sent:
    /// `nonce ‖ validity byte, block id, leaf ‖ payload ‖ tag`. Fixed by
    /// the geometry, which is what makes every query the same size.
    pub fn slot_len(&self) -> usize {
        NONCE_LEN + SLOT_HEADER + self.block_size + TAG_LEN
    }

    /// Bytes of one bucket: its `Z` slots end to end.
    fn bucket_len(&self) -> usize {
        self.bucket_capacity * self.slot_len()
    }

    /// Bucket index of the node at `level` on the path to `leaf`
    /// (level 0 = root).
    fn bucket_index(&self, leaf: u64, level: u32) -> usize {
        debug_assert!(leaf < self.leaves());
        debug_assert!(level <= self.height);
        // Root is index 0; the node at `level` on the path to `leaf` is
        // found by following the high bits of the leaf number.
        let prefix = leaf >> (self.height - level);
        (((1u64 << level) - 1) + prefix) as usize
    }
}

/// One access observed by the server: everything the adversary sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedAccess {
    /// Virtual time of the query.
    pub at: Nanos,
    /// The leaf whose path was read and rewritten.
    pub leaf: u64,
}

/// The untrusted ORAM server: stores opaque fixed-size ciphertexts and
/// records the access pattern it can observe.
///
/// The bucket tree lives behind a [`BucketBackend`]: in-memory by
/// default ([`OramServer::new`]), or any durable store via
/// [`OramServer::with_backend`]. One access is one backend transaction;
/// by default every [`write_path`](Self::write_path) commits it
/// ([`set_autocommit`](Self::set_autocommit) defers the commit so a
/// sealed client checkpoint can ride the same transaction).
#[derive(Debug)]
pub struct OramServer {
    config: OramConfig,
    backend: Box<dyn BucketBackend>,
    log: Vec<ObservedAccess>,
    queries: u64,
    /// When armed, the server misbehaves per the plan's schedule —
    /// wrong paths, dropped write-backs, tampered ciphertexts.
    faults: Option<FaultPlan>,
    autocommit: bool,
}

impl OramServer {
    /// Creates a server with every slot holding an (uninitialized) empty
    /// ciphertext marker, backed by the in-memory tree.
    pub fn new(config: OramConfig) -> Self {
        let backend = Box::new(MemBackend::new(config.buckets(), config.bucket_capacity));
        OramServer::with_backend(config, backend)
    }

    /// Creates a server over an explicit bucket backend (e.g. the
    /// crash-safe [`DiskStore`](crate::store::DiskStore)).
    pub fn with_backend(config: OramConfig, backend: Box<dyn BucketBackend>) -> Self {
        OramServer { config, backend, log: Vec::new(), queries: 0, faults: None, autocommit: true }
    }

    /// The server's geometry.
    pub fn config(&self) -> &OramConfig {
        &self.config
    }

    /// Makes the server adversarial: it consults `plan` at
    /// [`FaultSite::OramServer`] on every path read and write.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// When `false`, [`write_path`](Self::write_path) stages its bucket
    /// writes but leaves the transaction open; the caller must
    /// [`commit`](Self::commit) (after attaching a sealed client
    /// checkpoint via [`put_meta`](Self::put_meta)) to make the access
    /// durable. Defaults to `true`.
    pub fn set_autocommit(&mut self, on: bool) {
        self.autocommit = on;
    }

    /// Commits the open backend transaction.
    ///
    /// # Errors
    ///
    /// [`OramError::Store`] when the backend fails.
    pub fn commit(&mut self) -> Result<(), OramError> {
        self.backend.commit().map_err(OramError::Store)
    }

    /// Stages an opaque meta blob (the sealed client state) to ride the
    /// next commit.
    pub fn put_meta(&mut self, meta: Vec<u8>) {
        self.backend.put_meta(meta);
    }

    /// The meta blob carried by the last committed transaction.
    pub fn meta(&self) -> Option<&[u8]> {
        self.backend.meta()
    }

    /// Sequence number of the last committed backend transaction.
    pub fn committed_seq(&self) -> u64 {
        self.backend.committed_seq()
    }

    /// Digest over the committed bucket tree (byte-identity oracle for
    /// crash-recovery tests; see [`BucketBackend::state_digest`]).
    pub fn state_digest(&self) -> B256 {
        self.backend.state_digest()
    }

    /// Adversary hook: mutates stored slot ciphertexts in place (the
    /// malicious SP rewriting its own storage — caught only by the
    /// client's AES-GCM).
    pub fn corrupt_slots(&mut self, f: &mut dyn FnMut(u64, usize, &mut [u8])) {
        self.backend.corrupt_slots(f);
    }

    /// Fills `path` — [`OramConfig::blocks_per_access`] slots of
    /// [`OramConfig::slot_len`] bytes, root bucket first — with the
    /// ciphertexts on the path to `leaf`, logging the access. Bit `level`
    /// of the result is set when that level's bucket was ever written; a
    /// never-written level's bytes are left as they were.
    ///
    /// An armed adversarial server may serve a *different* path
    /// ([`FaultKind::WrongPath`]) or flip a bit in one returned
    /// ciphertext ([`FaultKind::BitFlip`]) — the access log still
    /// records the leaf the client asked for, exactly as a dishonest
    /// provider would report it.
    ///
    /// # Errors
    ///
    /// [`OramError::Store`] when the bucket backend fails (disk fault,
    /// corruption, crashed store).
    ///
    /// # Panics
    ///
    /// If `path` is not one path long.
    pub fn read_path(&mut self, leaf: u64, at: Nanos, path: &mut [u8]) -> Result<u64, OramError> {
        let bucket_len = self.config.bucket_len();
        assert_eq!(path.len(), self.config.path_len() as usize * bucket_len, "not one path long");
        self.queries += 1;
        self.log.push(ObservedAccess { at, leaf });
        let mut served_leaf = leaf;
        let mut flip: Option<u64> = None;
        if let Some(plan) = &self.faults {
            if let Some(decision) =
                plan.decide_for(FaultSite::OramServer, &[FaultKind::WrongPath, FaultKind::BitFlip])
            {
                match decision.kind {
                    FaultKind::WrongPath => {
                        // Serve some other path; skew by 1 so the fault
                        // never degenerates into the honest answer. A
                        // one-leaf tree has no other path to serve.
                        if let Some(skew) = decision.param.checked_rem(self.config.leaves() - 1) {
                            served_leaf = (leaf + 1 + skew) % self.config.leaves();
                        }
                    }
                    _ => flip = Some(decision.param),
                }
            }
        }
        let mut written = 0u64;
        for (level, bucket) in path.chunks_exact_mut(bucket_len).enumerate() {
            let idx = self.config.bucket_index(served_leaf, level as u32);
            if self.backend.read_bucket(idx as u64, bucket).map_err(OramError::Store)? {
                written |= 1 << level;
            }
        }
        if let Some(param) = flip {
            let slot = (param % self.config.blocks_per_access()) as usize;
            if written >> (slot / self.config.bucket_capacity) & 1 == 1 {
                let slot_len = self.config.slot_len();
                let byte = ((param >> 16) % slot_len as u64) as usize;
                path[slot * slot_len + byte] ^= 1 << ((param >> 32) % 8);
            }
        }
        Ok(written)
    }

    /// Overwrites the path to `leaf` with the fresh ciphertexts in
    /// `path` (laid out as [`read_path`](Self::read_path) fills it).
    ///
    /// An armed adversarial server may silently discard the write-back
    /// ([`FaultKind::DropWrite`]) while still reporting success.
    ///
    /// # Errors
    ///
    /// [`OramError::Store`] when the bucket backend fails.
    ///
    /// # Panics
    ///
    /// If `path` is not exactly one path long.
    pub fn write_path(&mut self, leaf: u64, path: &[u8]) -> Result<(), OramError> {
        let bucket_len = self.config.bucket_len();
        assert_eq!(path.len(), self.config.path_len() as usize * bucket_len, "not one path long");
        let dropped = self.faults.as_ref().is_some_and(|plan| {
            plan.decide_for(FaultSite::OramServer, &[FaultKind::DropWrite]).is_some()
        });
        if !dropped {
            for (level, bucket) in path.chunks_exact(bucket_len).enumerate() {
                let idx = self.config.bucket_index(leaf, level as u32);
                self.backend.write_bucket(idx as u64, bucket).map_err(OramError::Store)?;
            }
        }
        // A dishonest drop still commits (an empty transaction): the
        // server *reported* success, so the access sequence advances.
        if self.autocommit {
            self.backend.commit().map_err(OramError::Store)?;
        }
        Ok(())
    }

    /// Every access the server has observed — the adversary's view.
    pub fn observed(&self) -> &[ObservedAccess] {
        &self.log
    }

    /// Total queries served.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

/// Why an ORAM operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OramError {
    /// A ciphertext failed authentication — the server tampered with it
    /// (attack A6).
    Tampered,
    /// A plaintext block had the wrong size.
    BadBlockSize {
        /// The configured block size.
        expected: usize,
        /// The payload length supplied.
        actual: usize,
    },
    /// A block the position map says exists was not found on its path —
    /// the server served a wrong path or dropped a write-back (attack
    /// A5: dishonest path service).
    MissingBlock(BlockId),
    /// The durable bucket store behind the server failed — disk fault,
    /// corruption, or a crashed store awaiting reopen.
    Store(StoreError),
}

impl From<StoreError> for OramError {
    fn from(err: StoreError) -> Self {
        OramError::Store(err)
    }
}

impl core::fmt::Display for OramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OramError::Tampered => write!(f, "ORAM block failed authentication"),
            OramError::BadBlockSize { expected, actual } => {
                write!(f, "bad block size: expected {expected}, got {actual}")
            }
            OramError::MissingBlock(id) => {
                write!(f, "mapped ORAM block {id} missing from its path")
            }
            OramError::Store(err) => write!(f, "bucket store failure: {err}"),
        }
    }
}

impl std::error::Error for OramError {}

/// Bytes of slot plaintext ahead of the payload: validity byte, block
/// id, embedded leaf. The embedded leaf makes eviction position-map-free.
const SLOT_HEADER: usize = 1 + 32 + 8;
/// AES-GCM nonce bytes at the head of every slot.
const NONCE_LEN: usize = 12;
/// AES-GCM tag bytes at the tail of every slot.
const TAG_LEN: usize = 16;

/// A stash entry: a decrypted real block waiting for eviction, carrying
/// its embedded leaf assignment (kept in the ciphertext so eviction never
/// needs the position map — the property recursion relies on).
#[derive(Debug, Clone)]
struct StashEntry {
    data: Vec<u8>,
    leaf: u64,
}

/// The trusted Path ORAM client (runs inside the Hypervisor).
///
/// Holds the position map and stash on-chip; every access produces one
/// uniformly random path read + rewrite on the server, independent of
/// the logical block touched.
pub struct OramClient {
    config: OramConfig,
    cipher: AesGcm,
    rng: SecureRng,
    position: FixedMap<BlockId, u64>,
    stash: FixedMap<BlockId, StashEntry>,
    /// Random per-client nonce prefix: clients in a fleet share the ORAM
    /// key (paper §IV-D), so each client must own a disjoint nonce space
    /// or AES-GCM security collapses on the first counter collision.
    nonce_prefix: [u8; 4],
    nonce_counter: u64,
    max_stash: usize,
    /// The one path in flight, as [`OramServer::read_path`] fills it:
    /// opened, re-sealed and written back from where it lies, access
    /// after access.
    path: Vec<u8>,
}

/// The next nonce of a client's space: its prefix, then the counter.
fn next_nonce(prefix: [u8; 4], counter: &mut u64) -> [u8; NONCE_LEN] {
    *counter += 1;
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&prefix);
    nonce[4..].copy_from_slice(&counter.to_be_bytes());
    nonce
}

impl core::fmt::Debug for OramClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OramClient")
            .field("positions", &self.position.len())
            .field("stash", &self.stash.len())
            .finish()
    }
}

impl OramClient {
    /// Creates a client sharing `key` (the ORAM key held by the
    /// Hypervisors, paper §IV-D) and a seeded RNG.
    pub fn new(config: OramConfig, key: &[u8; 16], mut rng: SecureRng) -> Self {
        let mut nonce_prefix = [0u8; 4];
        rng.fill_bytes(&mut nonce_prefix);
        OramClient {
            path: vec![0u8; config.path_len() as usize * config.bucket_len()],
            config,
            cipher: AesGcm::new(key),
            rng,
            position: FixedMap::default(),
            stash: FixedMap::default(),
            nonce_prefix,
            nonce_counter: 0,
            max_stash: 0,
        }
    }

    /// The client's geometry.
    pub fn config(&self) -> &OramConfig {
        &self.config
    }

    /// Number of mapped blocks.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// Returns `true` if no blocks are mapped.
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    /// High-water mark of the stash (for the O(log n) bound checks).
    pub fn max_stash_seen(&self) -> usize {
        self.max_stash
    }

    /// Reads a block; `None` if the id was never written.
    ///
    /// # Errors
    ///
    /// [`OramError::Tampered`] if the server returned forged ciphertexts.
    pub fn read(
        &mut self,
        server: &mut OramServer,
        clock: &Clock,
        cost: &CostModel,
        id: &BlockId,
    ) -> Result<Option<Vec<u8>>, OramError> {
        self.access(server, clock, cost, id, None)
    }

    /// Writes a block (creating it if new) and returns its old contents.
    ///
    /// # Errors
    ///
    /// [`OramError`] on tampering or a wrong-size payload.
    pub fn write(
        &mut self,
        server: &mut OramServer,
        clock: &Clock,
        cost: &CostModel,
        id: &BlockId,
        data: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, OramError> {
        if data.len() != self.config.block_size {
            return Err(OramError::BadBlockSize {
                expected: self.config.block_size,
                actual: data.len(),
            });
        }
        self.access(server, clock, cost, id, Some(data))
    }

    /// The Path ORAM access procedure: remap, read path into stash,
    /// update, evict greedily, rewrite path. The internal position map
    /// supplies the leaves; [`access_at`](Self::access_at) is the
    /// map-free variant recursion builds on.
    fn access(
        &mut self,
        server: &mut OramServer,
        clock: &Clock,
        cost: &CostModel,
        id: &BlockId,
        new_data: Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>, OramError> {
        let leaves = self.config.leaves();
        let known = self.position.contains_key(id);
        let old_leaf = match self.position.get(id) {
            Some(&leaf) => leaf,
            None => self.rng.next_below(leaves),
        };
        let new_leaf = self.rng.next_below(leaves);

        let is_write = new_data.is_some();
        let old = self.access_at(server, clock, cost, id, old_leaf, new_leaf, |block| {
            match new_data {
                Some(data) => block.replace(data),
                None => block.clone(),
            }
        })?;

        // An honest server always returns a mapped block: it is either
        // on its path or already in the stash. A miss means the server
        // served the wrong path or dropped an earlier write-back.
        if known && old.is_none() {
            return Err(OramError::MissingBlock(*id));
        }

        // Maintain the map: real blocks get the fresh leaf; a read miss
        // leaves no mapping behind.
        if is_write || old.is_some() || known {
            self.position.insert(*id, new_leaf);
        }
        Ok(old)
    }

    /// The map-free access primitive: the caller supplies the current and
    /// next leaf of the target block (recursive position maps do exactly
    /// this). `update` edits the block's contents where they lie (`None`
    /// when absent; leaving `None` deletes/keeps absent) and its result
    /// is handed back.
    ///
    /// # Errors
    ///
    /// [`OramError::Tampered`] if the server returned forged ciphertexts.
    ///
    /// # Panics
    ///
    /// If `update` leaves contents that are not
    /// [`block_size`](OramConfig::block_size) bytes long.
    #[allow(clippy::too_many_arguments)]
    pub fn access_at<R>(
        &mut self,
        server: &mut OramServer,
        clock: &Clock,
        cost: &CostModel,
        id: &BlockId,
        old_leaf: u64,
        new_leaf: u64,
        update: impl FnOnce(&mut Option<Vec<u8>>) -> R,
    ) -> Result<R, OramError> {
        let (slot_len, bucket_len) = (self.config.slot_len(), self.config.bucket_len());

        // Read the whole path and authenticate every slot of it, to the
        // last byte. Only a real block is decrypted past its validity
        // byte — copied out once, into the stash, embedded leaf and all;
        // a dummy stays ciphertext behind its first block, and eviction
        // below overwrites every slot's plaintext area before the re-seal.
        let written = server.read_path(old_leaf, clock.now(), &mut self.path)?;
        for (level, bucket) in self.path.chunks_exact_mut(bucket_len).enumerate() {
            if written >> level & 1 == 0 {
                continue; // never written: Z dummies
            }
            for slot in bucket.chunks_exact_mut(slot_len) {
                let (nonce, rest) = slot.split_first_chunk_mut::<NONCE_LEN>().expect("slot_len");
                let (plain, tag) = rest.split_last_chunk_mut::<TAG_LEN>().expect("slot_len");
                let real = self
                    .cipher
                    .open_in_place_if(nonce, b"oram", plain, tag, |head| head[0] != 0)
                    .map_err(|_| OramError::Tampered)?;
                if !real {
                    continue;
                }
                let leaf = u64::from_be_bytes(plain[33..SLOT_HEADER].try_into().expect("fixed layout"));
                self.stash
                    .entry(B256::from_slice(&plain[1..33]))
                    .or_insert_with(|| StashEntry { data: plain[SLOT_HEADER..].to_vec(), leaf });
            }
        }

        // Serve the request from the stash, remapping the target.
        let mut block = self.stash.remove(id).map(|e| e.data);
        let result = update(&mut block);
        if let Some(data) = block {
            self.stash.insert(*id, StashEntry { data, leaf: new_leaf });
        }

        // Greedy eviction: walk the path leaf-to-root, placing stash
        // blocks into the deepest bucket whose subtree contains their
        // embedded leaf — as plaintext, in the slot that will carry them.
        // Deterministic candidate order: the durability layer compares
        // bucket digests against an in-memory twin, and a restored client
        // rebuilds its stash map in sorted order, not in the order the
        // blocks arrived — iterating the map directly would make slot
        // placement depend on the map's history.
        let mut stash_ids: Vec<BlockId> = self.stash.keys().copied().collect();
        stash_ids.sort_unstable();
        for level in (0..=self.config.height).rev() {
            let bucket = &mut self.path[level as usize * bucket_len..][..bucket_len];
            let mut free = bucket.chunks_exact_mut(slot_len);
            // The block can live at `level` iff the path to its leaf
            // passes through the same bucket.
            let shift = self.config.height - level;
            for sid in &stash_ids {
                if self.stash.get(sid).is_none_or(|e| e.leaf >> shift != old_leaf >> shift) {
                    continue;
                }
                let Some(slot) = free.next() else { break };
                let entry = self.stash.remove(sid).expect("seen a line ago");
                let plain = &mut slot[NONCE_LEN..slot_len - TAG_LEN];
                plain[0] = 1;
                plain[1..33].copy_from_slice(sid.as_bytes());
                plain[33..SLOT_HEADER].copy_from_slice(&entry.leaf.to_be_bytes());
                plain[SLOT_HEADER..].copy_from_slice(&entry.data);
            }
            // What is left of the bucket is dummies: all-zero plaintext.
            for slot in free {
                slot[NONCE_LEN..slot_len - TAG_LEN].fill(0);
            }
        }

        // Re-encrypt the full path (real blocks + dummies), root first.
        for slot in self.path.chunks_exact_mut(slot_len) {
            let nonce = next_nonce(self.nonce_prefix, &mut self.nonce_counter);
            let (sealed, tag) = slot.split_last_chunk_mut::<TAG_LEN>().expect("slot_len");
            sealed[..NONCE_LEN].copy_from_slice(&nonce);
            *tag = self.cipher.seal_in_place(&nonce, b"oram", &mut sealed[NONCE_LEN..]);
        }
        server.write_path(old_leaf, &self.path)?;

        self.max_stash = self.max_stash.max(self.stash.len());
        clock.advance(cost.oram_query_ns(self.config.blocks_per_access()));
        Ok(result)
    }

    /// A fresh uniform leaf from the client's secure RNG.
    pub fn random_leaf(&mut self) -> u64 {
        let leaves = self.config.leaves();
        self.rng.next_below(leaves)
    }

    /// Seals the client's complete state — position map, stash, nonce
    /// space, and the exact RNG stream position — under the ORAM key,
    /// for checkpointing into the durable store's meta slot. A client
    /// rebuilt with [`restore_state`](Self::restore_state) continues
    /// bit-for-bit where this one stood.
    pub fn seal_state(&mut self) -> Vec<u8> {
        // Draw the sealing nonce first so the snapshot already reflects
        // the consumed counter value (the restored client never reuses
        // it).
        let nonce = next_nonce(self.nonce_prefix, &mut self.nonce_counter);
        // Every term is known before the first byte: the blob is built
        // once, at its final size.
        let stash_bytes: usize = self.stash.values().map(|e| 32 + 8 + 4 + e.data.len()).sum();
        let len = NONCE_LEN + 1 + 4 + 8 + SecureRng::SNAPSHOT_LEN + 8
            + (4 + self.position.len() * (32 + 8))
            + (4 + stash_bytes)
            + TAG_LEN;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&nonce);
        out.push(1u8); // version
        out.extend_from_slice(&self.nonce_prefix);
        out.extend_from_slice(&self.nonce_counter.to_be_bytes());
        out.extend_from_slice(&self.rng.snapshot());
        out.extend_from_slice(&(self.max_stash as u64).to_be_bytes());
        let mut positions: Vec<(&BlockId, &u64)> = self.position.iter().collect();
        positions.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
        out.extend_from_slice(&(positions.len() as u32).to_be_bytes());
        for (id, leaf) in positions {
            out.extend_from_slice(id.as_bytes());
            out.extend_from_slice(&leaf.to_be_bytes());
        }
        let mut stash: Vec<(&BlockId, &StashEntry)> = self.stash.iter().collect();
        stash.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
        out.extend_from_slice(&(stash.len() as u32).to_be_bytes());
        for (id, entry) in stash {
            out.extend_from_slice(id.as_bytes());
            out.extend_from_slice(&entry.leaf.to_be_bytes());
            out.extend_from_slice(&(entry.data.len() as u32).to_be_bytes());
            out.extend_from_slice(&entry.data);
        }
        let tag = self.cipher.seal_in_place(&nonce, b"oram-client-state", &mut out[NONCE_LEN..]);
        out.extend_from_slice(&tag);
        debug_assert_eq!(out.len(), len, "seal_state's size formula");
        out
    }

    /// Rebuilds a client from a [`seal_state`](Self::seal_state) blob.
    ///
    /// # Errors
    ///
    /// [`OramError::Tampered`] when the blob fails authentication or
    /// does not parse as a sealed client state.
    pub fn restore_state(
        config: OramConfig,
        key: &[u8; 16],
        sealed: &[u8],
    ) -> Result<Self, OramError> {
        let cipher = AesGcm::new(key);
        let (nonce, sealed) = sealed.split_first_chunk::<12>().ok_or(OramError::Tampered)?;
        let plain =
            cipher.open(nonce, b"oram-client-state", sealed).map_err(|_| OramError::Tampered)?;
        let mut r = SliceReader { buf: &plain, off: 0 };
        if r.byte()? != 1 {
            return Err(OramError::Tampered);
        }
        let nonce_prefix: [u8; 4] = r.take(4)?.try_into().map_err(|_| OramError::Tampered)?;
        let nonce_counter = r.u64()?;
        let rng = SecureRng::from_snapshot(r.take(SecureRng::SNAPSHOT_LEN)?)
            .ok_or(OramError::Tampered)?;
        let max_stash = r.u64()? as usize;
        let mut position = FixedMap::default();
        let positions = r.u32()? as usize;
        for _ in 0..positions {
            let id = B256::from_slice(r.take(32)?);
            position.insert(id, r.u64()?);
        }
        let mut stash = FixedMap::default();
        let entries = r.u32()? as usize;
        for _ in 0..entries {
            let id = B256::from_slice(r.take(32)?);
            let leaf = r.u64()?;
            let len = r.u32()? as usize;
            stash.insert(id, StashEntry { data: r.take(len)?.to_vec(), leaf });
        }
        if r.off != plain.len() {
            return Err(OramError::Tampered);
        }
        Ok(OramClient {
            path: vec![0u8; config.path_len() as usize * config.bucket_len()],
            config,
            cipher,
            rng,
            position,
            stash,
            nonce_prefix,
            nonce_counter,
            max_stash,
        })
    }
}

/// Bounds-checked cursor over the sealed-state plaintext.
struct SliceReader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> SliceReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], OramError> {
        if self.buf.len() < self.off + n {
            return Err(OramError::Tampered);
        }
        let out = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, OramError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, OramError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().map_err(|_| OramError::Tampered)?))
    }

    fn u64(&mut self) -> Result<u64, OramError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().map_err(|_| OramError::Tampered)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_crypto::keccak256;

    fn setup() -> (OramServer, OramClient, Clock, CostModel) {
        let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 6 };
        let server = OramServer::new(config.clone());
        let client = OramClient::new(config, &[7u8; 16], SecureRng::from_seed(b"oram test"));
        (server, client, Clock::new(), CostModel::default())
    }

    fn bid(n: u64) -> BlockId {
        keccak256(n.to_be_bytes())
    }

    fn block(config_size: usize, fill: u8) -> Vec<u8> {
        vec![fill; config_size]
    }

    #[test]
    fn bucket_index_geometry() {
        let c = OramConfig { block_size: 1, bucket_capacity: 1, height: 2 };
        // Tree: root 0; level 1: 1,2; level 2 (leaves): 3,4,5,6.
        assert_eq!(c.bucket_index(0, 0), 0);
        assert_eq!(c.bucket_index(3, 0), 0);
        assert_eq!(c.bucket_index(0, 1), 1);
        assert_eq!(c.bucket_index(1, 1), 1);
        assert_eq!(c.bucket_index(2, 1), 2);
        assert_eq!(c.bucket_index(0, 2), 3);
        assert_eq!(c.bucket_index(3, 2), 6);
        assert_eq!(c.buckets(), 7);
        assert_eq!(c.path_len(), 3);
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut server, mut client, clock, cost) = setup();
        let data = block(64, 0xAB);
        assert_eq!(
            client.write(&mut server, &clock, &cost, &bid(1), data.clone()).unwrap(),
            None
        );
        assert_eq!(
            client.read(&mut server, &clock, &cost, &bid(1)).unwrap(),
            Some(data)
        );
        assert_eq!(client.read(&mut server, &clock, &cost, &bid(99)).unwrap(), None);
    }

    #[test]
    fn overwrite_returns_old() {
        let (mut server, mut client, clock, cost) = setup();
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 1)).unwrap();
        let old = client
            .write(&mut server, &clock, &cost, &bid(1), block(64, 2))
            .unwrap();
        assert_eq!(old, Some(block(64, 1)));
        assert_eq!(
            client.read(&mut server, &clock, &cost, &bid(1)).unwrap(),
            Some(block(64, 2))
        );
    }

    #[test]
    fn many_blocks_survive_shuffling() {
        let (mut server, mut client, clock, cost) = setup();
        for i in 0..100u64 {
            client
                .write(&mut server, &clock, &cost, &bid(i), block(64, i as u8))
                .unwrap();
        }
        // Interleaved reads in a scrambled order.
        for i in (0..100u64).rev().step_by(3) {
            assert_eq!(
                client.read(&mut server, &clock, &cost, &bid(i)).unwrap(),
                Some(block(64, i as u8)),
                "block {i}"
            );
        }
        // Stash stays small (O(log n) with Z=4).
        assert!(client.max_stash_seen() < 40, "stash blew up: {}", client.max_stash_seen());
    }

    #[test]
    fn wrong_block_size_rejected() {
        let (mut server, mut client, clock, cost) = setup();
        let err = client
            .write(&mut server, &clock, &cost, &bid(1), vec![0; 63])
            .unwrap_err();
        assert_eq!(err, OramError::BadBlockSize { expected: 64, actual: 63 });
    }

    #[test]
    fn server_tampering_detected() {
        let (mut server, mut client, clock, cost) = setup();
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 5)).unwrap();
        // Corrupt every non-empty slot ciphertext (the malicious SP
        // rewriting its storage — store framing stays valid).
        server.corrupt_slots(&mut |_, _, slot| {
            if !slot.is_empty() {
                let last = slot.len() - 1;
                slot[last] ^= 0xFF;
            }
        });
        let err = client.read(&mut server, &clock, &cost, &bid(1)).unwrap_err();
        assert_eq!(err, OramError::Tampered);
    }

    #[test]
    fn dummy_slot_is_authenticated_to_its_last_byte() {
        // The client decrypts one block of a dummy and no more; the bytes
        // it never decrypts are believed no sooner than a real block's.
        let slot_len = setup().1.config.slot_len();
        // One bit each in: the nonce, the first ciphertext block, the
        // last ciphertext byte, the tag.
        for at in [5, NONCE_LEN + 7, slot_len - TAG_LEN - 1, slot_len - 1] {
            let (mut server, mut client, clock, cost) = setup();
            for i in 0..4u64 {
                client.write(&mut server, &clock, &cost, &bid(i), block(64, i as u8)).unwrap();
            }
            // The root bucket lies on every path.
            let mut flipped = false;
            server.corrupt_slots(&mut |bucket, _, slot| {
                if bucket != 0 || flipped {
                    return;
                }
                let (nonce, sealed) = slot.split_first_chunk::<NONCE_LEN>().expect("slot_len");
                if client.cipher.open(nonce, b"oram", sealed).expect("honest")[0] == 0 {
                    slot[at] ^= 0x10;
                    flipped = true;
                }
            });
            assert!(flipped, "no dummy in the root bucket");
            let err = client.read(&mut server, &clock, &cost, &bid(0)).unwrap_err();
            assert_eq!(err, OramError::Tampered, "slot byte {at}");
        }
    }

    #[test]
    fn access_advances_clock() {
        let (mut server, mut client, clock, cost) = setup();
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 1)).unwrap();
        let per_access = cost.oram_query_ns(client.config().blocks_per_access());
        assert_eq!(clock.now(), per_access);
        client.read(&mut server, &clock, &cost, &bid(1)).unwrap();
        assert_eq!(clock.now(), 2 * per_access);
    }

    #[test]
    fn sealed_state_restores_an_equivalent_client() {
        let (mut server, mut client, clock, cost) = setup();
        for i in 0..30u64 {
            client.write(&mut server, &clock, &cost, &bid(i), block(64, i as u8)).unwrap();
        }
        let sealed = client.seal_state();
        let config = client.config().clone();
        let mut restored =
            OramClient::restore_state(config, &[7u8; 16], &sealed).expect("restore");
        // The restored client serves everything the original wrote and
        // keeps working against the same server state.
        for i in (0..30u64).rev() {
            assert_eq!(
                restored.read(&mut server, &clock, &cost, &bid(i)).unwrap(),
                Some(block(64, i as u8)),
                "block {i}"
            );
        }
        restored.write(&mut server, &clock, &cost, &bid(99), block(64, 9)).unwrap();
        assert_eq!(
            restored.read(&mut server, &clock, &cost, &bid(99)).unwrap(),
            Some(block(64, 9))
        );
    }

    #[test]
    fn tampered_sealed_state_rejected() {
        let (mut server, mut client, clock, cost) = setup();
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 1)).unwrap();
        let mut sealed = client.seal_state();
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x01;
        let config = client.config().clone();
        assert_eq!(
            OramClient::restore_state(config, &[7u8; 16], &sealed).unwrap_err(),
            OramError::Tampered
        );
    }

    #[test]
    fn server_logs_every_access() {
        let (mut server, mut client, clock, cost) = setup();
        for i in 0..10u64 {
            client.write(&mut server, &clock, &cost, &bid(i), block(64, 0)).unwrap();
        }
        assert_eq!(server.observed().len(), 10);
        assert_eq!(server.queries(), 10);
    }

    #[test]
    fn wrong_path_on_a_one_leaf_tree_serves_the_only_path() {
        let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 0 };
        let mut server = OramServer::new(config.clone());
        let mut client = OramClient::new(config, &[7u8; 16], SecureRng::from_seed(b"oram test"));
        let (clock, cost) = (Clock::new(), CostModel::default());
        let plan = FaultPlan::new(1, &clock);
        plan.arm(FaultSite::OramServer, &[FaultKind::WrongPath], 1, u64::MAX);
        server.arm_faults(plan.clone());
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 3)).unwrap();
        assert_eq!(client.read(&mut server, &clock, &cost, &bid(1)).unwrap(), Some(block(64, 3)));
        // Both reads drew their fault all the same.
        assert_eq!(plan.injected(), 2);
    }
}
