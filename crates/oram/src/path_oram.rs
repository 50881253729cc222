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
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};
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

    /// Levels on the root side of a path's split, `⌈(height + 1) / 2⌉`:
    /// the client opens and seals these itself, its crypto lane the rest.
    fn root_side_levels(&self) -> usize {
        (self.path_len() as usize).div_ceil(2)
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

    /// Fills one path — [`OramConfig::blocks_per_access`] slots of
    /// [`OramConfig::slot_len`] bytes, root bucket first, given as two
    /// halves split at a bucket boundary, root side first — with the
    /// ciphertexts on the path to `leaf`, logging the access. Bit `level`
    /// of the result is set when that level's bucket was ever written; a
    /// never-written level's bytes are left as they were.
    ///
    /// An armed adversarial server may serve a *different* path
    /// ([`FaultKind::WrongPath`]) or flip a bit in one returned
    /// ciphertext ([`FaultKind::BitFlip`], in either half) — the access
    /// log still records the leaf the client asked for, exactly as a
    /// dishonest provider would report it.
    ///
    /// # Errors
    ///
    /// [`OramError::Store`] when the bucket backend fails (disk fault,
    /// corruption, crashed store).
    ///
    /// # Panics
    ///
    /// If the halves are not one path long together, or `root_side` is
    /// not whole buckets.
    pub fn read_path(
        &mut self,
        leaf: u64,
        at: Nanos,
        root_side: &mut [u8],
        leaf_side: &mut [u8],
    ) -> Result<u64, OramError> {
        let bucket_len = self.assert_one_path(root_side, leaf_side);
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
        let buckets =
            root_side.chunks_exact_mut(bucket_len).chain(leaf_side.chunks_exact_mut(bucket_len));
        for (level, bucket) in buckets.enumerate() {
            let idx = self.config.bucket_index(served_leaf, level as u32);
            if self.backend.read_bucket(idx as u64, bucket).map_err(OramError::Store)? {
                written |= 1 << level;
            }
        }
        if let Some(param) = flip {
            let slot = (param % self.config.blocks_per_access()) as usize;
            if written >> (slot / self.config.bucket_capacity) & 1 == 1 {
                let slot_len = self.config.slot_len();
                let byte = slot * slot_len + ((param >> 16) % slot_len as u64) as usize;
                let bit = 1 << ((param >> 32) % 8);
                match byte.checked_sub(root_side.len()) {
                    None => root_side[byte] ^= bit,
                    Some(byte) => leaf_side[byte] ^= bit,
                }
            }
        }
        Ok(written)
    }

    /// Overwrites the path to `leaf` with the fresh ciphertexts in its
    /// two halves (laid out as [`read_path`](Self::read_path) fills them).
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
    /// If the halves are not one path long together, or `root_side` is
    /// not whole buckets.
    pub fn write_path(
        &mut self,
        leaf: u64,
        root_side: &[u8],
        leaf_side: &[u8],
    ) -> Result<(), OramError> {
        let bucket_len = self.assert_one_path(root_side, leaf_side);
        let dropped = self.faults.as_ref().is_some_and(|plan| {
            plan.decide_for(FaultSite::OramServer, &[FaultKind::DropWrite]).is_some()
        });
        if !dropped {
            let buckets =
                root_side.chunks_exact(bucket_len).chain(leaf_side.chunks_exact(bucket_len));
            for (level, bucket) in buckets.enumerate() {
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

    /// Checks that two halves make one path split at a bucket boundary;
    /// returns the bucket length.
    fn assert_one_path(&self, root_side: &[u8], leaf_side: &[u8]) -> usize {
        let bucket_len = self.config.bucket_len();
        assert_eq!(root_side.len() % bucket_len, 0, "root side is not whole buckets");
        assert_eq!(
            root_side.len() + leaf_side.len(),
            self.config.path_len() as usize * bucket_len,
            "not one path long"
        );
        bucket_len
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
/// the logical block touched. Each client owns one host thread, its
/// crypto lane, which opens and re-seals the leaf-side half of every
/// path beside the caller; it is joined when the client drops.
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
    path: PathHalves,
    /// Eviction's candidates, the stash's ids in sorted order: refilled
    /// every access, allocated only as the stash reaches a new size.
    evict_order: Vec<BlockId>,
    /// Trusted bytes of the client's owner (the page store's sync
    /// table), sealed after the client's own state in the same blob —
    /// one AEAD, one nonce — so a checkpoint carries both or neither.
    appendix: Vec<u8>,
}

/// The next nonce of a client's space: its prefix, then the counter.
fn next_nonce(prefix: [u8; 4], counter: &mut u64) -> [u8; NONCE_LEN] {
    *counter += 1;
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&prefix);
    nonce[4..].copy_from_slice(&counter.to_be_bytes());
    nonce
}

/// Authenticates every slot of `half`'s written levels (bit `i` of
/// `written` is the half's level `i`) to its last byte and decrypts its
/// first block; only a slot whose validity byte is set is decrypted in
/// full — a dummy stays ciphertext behind its first block. Stops at the
/// first slot that fails authentication and returns its index.
fn open_slots(
    cipher: &AesGcm,
    config: &OramConfig,
    half: &mut [u8],
    written: u64,
) -> Option<usize> {
    for (i, slot) in half.chunks_exact_mut(config.slot_len()).enumerate() {
        if written >> (i / config.bucket_capacity) & 1 == 0 {
            continue; // never written: Z dummies
        }
        let (nonce, rest) = slot.split_first_chunk_mut::<NONCE_LEN>().expect("slot_len");
        let (plain, tag) = rest.split_last_chunk_mut::<TAG_LEN>().expect("slot_len");
        if cipher.open_in_place_if(nonce, b"oram", plain, tag, |head| head[0] != 0).is_err() {
            return Some(i);
        }
    }
    None
}

/// Copies the real blocks of a half [`open_slots`] opened into the stash,
/// embedded leaf and all, in wire order and up to `tampered`, the first
/// slot that failed authentication.
fn stash_real(
    stash: &mut FixedMap<BlockId, StashEntry>,
    config: &OramConfig,
    half: &[u8],
    written: u64,
    tampered: Option<usize>,
) {
    let slots = half.chunks_exact(config.slot_len()).take(tampered.unwrap_or(usize::MAX));
    for (i, slot) in slots.enumerate() {
        let plain = &slot[NONCE_LEN..slot.len() - TAG_LEN];
        if written >> (i / config.bucket_capacity) & 1 == 0 || plain[0] == 0 {
            continue;
        }
        let leaf = u64::from_be_bytes(plain[33..SLOT_HEADER].try_into().expect("fixed layout"));
        stash
            .entry(B256::from_slice(&plain[1..33]))
            .or_insert_with(|| StashEntry { data: plain[SLOT_HEADER..].to_vec(), leaf });
    }
}

/// Seals every slot of `half` in place, in wire order, under the nonces
/// that follow `counter` in the space of `prefix`.
fn seal_slots(
    cipher: &AesGcm,
    config: &OramConfig,
    half: &mut [u8],
    prefix: [u8; 4],
    mut counter: u64,
) {
    for slot in half.chunks_exact_mut(config.slot_len()) {
        let nonce = next_nonce(prefix, &mut counter);
        let (sealed, tag) = slot.split_last_chunk_mut::<TAG_LEN>().expect("slot_len");
        sealed[..NONCE_LEN].copy_from_slice(&nonce);
        *tag = cipher.seal_in_place(&nonce, b"oram", &mut sealed[NONCE_LEN..]);
    }
}

/// The one path in flight, as [`OramServer::read_path`] fills it, in two
/// owned halves split by [`OramConfig::root_side_levels`]. The client
/// opens and seals the root side while its crypto lane does the leaf
/// side; both are allocated when the client is built and opened,
/// re-sealed and written back from where they lie, access after access.
struct PathHalves {
    root: Vec<u8>,
    /// Empty while the lane holds it.
    leaf: Vec<u8>,
    lane: Lane,
}

impl PathHalves {
    fn new(config: &OramConfig, cipher: &AesGcm) -> Self {
        let (bucket_len, root_levels) = (config.bucket_len(), config.root_side_levels());
        PathHalves {
            root: vec![0u8; root_levels * bucket_len],
            leaf: vec![0u8; (config.path_len() as usize - root_levels) * bucket_len],
            lane: Lane::spawn(cipher.clone(), config.clone()),
        }
    }

    /// [`open_slots`] on both halves at once, the leaf side on the lane;
    /// returns each half's first tampered slot, root side first.
    fn open(&mut self, cipher: &AesGcm, config: &OramConfig, written: u64) -> [Option<usize>; 2] {
        let half = std::mem::take(&mut self.leaf);
        let job = LaneJob::Open { half, written: written >> config.root_side_levels() };
        let ((leaf, leaf_tampered), root_tampered) =
            self.lane.beside(job, || open_slots(cipher, config, &mut self.root, written));
        self.leaf = leaf;
        [root_tampered, leaf_tampered]
    }

    /// [`seal_slots`] on both halves at once, the leaf side on the lane
    /// under the nonces that follow the root side's.
    fn seal(&mut self, cipher: &AesGcm, config: &OramConfig, prefix: [u8; 4], counter: u64) {
        let root_slots = (self.root.len() / config.slot_len()) as u64;
        let half = std::mem::take(&mut self.leaf);
        let job = LaneJob::Seal { half, prefix, counter: counter + root_slots };
        let ((leaf, _), ()) =
            self.lane.beside(job, || seal_slots(cipher, config, &mut self.root, prefix, counter));
        self.leaf = leaf;
    }

    /// The bucket at `level` of the path (0 = root).
    fn bucket_mut(&mut self, config: &OramConfig, level: usize) -> &mut [u8] {
        let bucket_len = config.bucket_len();
        match level.checked_sub(self.root.len() / bucket_len) {
            None => &mut self.root[level * bucket_len..][..bucket_len],
            Some(level) => &mut self.leaf[level * bucket_len..][..bucket_len],
        }
    }
}

/// What a client hands its crypto lane: the leaf-side half of the path
/// and which of an access's two jobs to do to it.
enum LaneJob {
    /// [`open_slots`], `written` counting from the half's first level.
    Open { half: Vec<u8>, written: u64 },
    /// [`seal_slots`].
    Seal { half: Vec<u8>, prefix: [u8; 4], counter: u64 },
}

/// The half coming home, with its first tampered slot (an `Open` only).
type LaneReply = (Vec<u8>, Option<usize>);

/// A client's crypto lane: one host thread, spawned when the client is
/// built and joined when it drops, that works the leaf-side half of every
/// path while the client works the root side. A job is a pure function of
/// the half, the key and the nonces it is given, so which thread ran it
/// shows in no byte; the half travels by value through two one-deep
/// channels, so an access allocates nothing for it.
struct Lane {
    /// `None` only while dropping: hanging up ends the lane's loop.
    jobs: Option<SyncSender<LaneJob>>,
    replies: Receiver<LaneReply>,
    thread: Option<JoinHandle<()>>,
}

impl Lane {
    fn spawn(cipher: AesGcm, config: OramConfig) -> Self {
        let (jobs, inbox) = mpsc::sync_channel::<LaneJob>(1);
        let (outbox, replies) = mpsc::sync_channel::<LaneReply>(1);
        let thread = thread::Builder::new()
            .name("oram-lane".into())
            .spawn(move || {
                for job in inbox {
                    let reply = match job {
                        LaneJob::Open { mut half, written } => {
                            let tampered = open_slots(&cipher, &config, &mut half, written);
                            (half, tampered)
                        }
                        LaneJob::Seal { mut half, prefix, counter } => {
                            seal_slots(&cipher, &config, &mut half, prefix, counter);
                            (half, None)
                        }
                    };
                    if outbox.send(reply).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the ORAM crypto lane");
        Lane { jobs: Some(jobs), replies, thread: Some(thread) }
    }

    /// Runs `job` on the lane while `here` runs on the calling thread, and
    /// returns only when both are done — the half is home on every path.
    fn beside<R>(&mut self, job: LaneJob, here: impl FnOnce() -> R) -> (LaneReply, R) {
        let jobs = self.jobs.as_ref().expect("the lane hangs up only when dropped");
        jobs.send(job).expect("the ORAM crypto lane is running");
        let mine = here();
        (self.replies.recv().expect("the ORAM crypto lane answers every job"), mine)
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // A lane that panicked already failed the access that met it;
            // re-raising that here could abort an unwinding thread.
            let _ = thread.join();
        }
    }
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
        let cipher = AesGcm::new(key);
        OramClient {
            path: PathHalves::new(&config, &cipher),
            evict_order: Vec::new(),
            config,
            cipher,
            rng,
            position: FixedMap::default(),
            stash: FixedMap::default(),
            nonce_prefix,
            nonce_counter: 0,
            max_stash: 0,
            appendix: Vec::new(),
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
        let slot_len = self.config.slot_len();

        // Read the whole path and authenticate every slot of it, to the
        // last byte, both halves at once. Only a real block is decrypted
        // past its validity byte and copied out once, into the stash — in
        // wire order, up to the first tampered slot; a dummy stays
        // ciphertext behind its first block, and eviction below
        // overwrites every slot's plaintext area before the re-seal.
        let written =
            server.read_path(old_leaf, clock.now(), &mut self.path.root, &mut self.path.leaf)?;
        let tampered = self.path.open(&self.cipher, &self.config, written);
        let halves = [
            (&self.path.root, written),
            (&self.path.leaf, written >> self.config.root_side_levels()),
        ];
        for ((half, written), tampered) in halves.into_iter().zip(tampered) {
            stash_real(&mut self.stash, &self.config, half, written, tampered);
            if tampered.is_some() {
                return Err(OramError::Tampered);
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
        self.evict_order.clear();
        self.evict_order.extend(self.stash.keys());
        self.evict_order.sort_unstable();
        for level in (0..=self.config.height).rev() {
            let bucket = self.path.bucket_mut(&self.config, level as usize);
            let mut free = bucket.chunks_exact_mut(slot_len);
            // The block can live at `level` iff the path to its leaf
            // passes through the same bucket.
            let shift = self.config.height - level;
            for sid in &self.evict_order {
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

        // Re-encrypt the full path (real blocks + dummies) under nonces
        // drawn in wire order, root first, both halves at once.
        let counter = self.nonce_counter;
        self.nonce_counter += self.config.blocks_per_access();
        self.path.seal(&self.cipher, &self.config, self.nonce_prefix, counter);
        server.write_path(old_leaf, &self.path.root, &self.path.leaf)?;

        self.max_stash = self.max_stash.max(self.stash.len());
        clock.advance(cost.oram_query_ns(self.config.blocks_per_access()));
        Ok(result)
    }

    /// A fresh uniform leaf from the client's secure RNG.
    pub fn random_leaf(&mut self) -> u64 {
        let leaves = self.config.leaves();
        self.rng.next_below(leaves)
    }

    /// The owner's bytes sealed with the client (see
    /// [`seal_state`](Self::seal_state)); empty unless the owner wrote
    /// some through [`appendix_mut`](Self::appendix_mut).
    pub(crate) fn appendix(&self) -> &[u8] {
        &self.appendix
    }

    /// The owner's bytes, to rewrite in place before the next seal.
    pub(crate) fn appendix_mut(&mut self) -> &mut Vec<u8> {
        &mut self.appendix
    }

    /// Seals the client's complete state — position map, stash, nonce
    /// space, and the exact RNG stream position — under the ORAM key,
    /// for checkpointing into the durable store's meta slot, followed
    /// by the owner's [`appendix`](Self::appendix) under the same tag.
    /// A client rebuilt with [`restore_state`](Self::restore_state)
    /// continues bit-for-bit where this one stood, appendix included.
    /// An empty appendix adds no byte.
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
            + self.appendix.len()
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
        out.extend_from_slice(&self.appendix);
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
        // Whatever follows the stash is the owner's appendix.
        let appendix = plain[r.off..].to_vec();
        // Only an authenticated, fully parsed blob gets as far as a lane.
        Ok(OramClient {
            path: PathHalves::new(&config, &cipher),
            evict_order: Vec::new(),
            config,
            cipher,
            rng,
            position,
            stash,
            nonce_prefix,
            nonce_counter,
            max_stash,
            appendix,
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

    /// The malicious SP rewriting its own storage through its own path
    /// reads and write-backs: `f(bucket, slot)` sees each slot of every
    /// bucket ever written, each bucket once. A path goes back only when
    /// every bucket on it was written, and every written bucket lies on
    /// such a path (the write-back that wrote it).
    fn corrupt_stored(server: &mut OramServer, f: &mut dyn FnMut(usize, &mut [u8])) {
        let config = server.config().clone();
        let (bucket_len, levels) = (config.bucket_len(), config.path_len() as u32);
        let mut path = vec![0u8; levels as usize * bucket_len];
        let mut seen = std::collections::HashSet::new();
        for leaf in 0..config.leaves() {
            let written = server.read_path(leaf, 0, &mut path, &mut []).expect("honest store");
            if written != (1 << levels) - 1 {
                continue;
            }
            for (level, bucket) in (0..levels).zip(path.chunks_exact_mut(bucket_len)) {
                let index = config.bucket_index(leaf, level);
                if seen.insert(index) {
                    bucket.chunks_exact_mut(config.slot_len()).for_each(|slot| f(index, slot));
                }
            }
            server.write_path(leaf, &path, &[]).expect("honest store");
        }
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
        // Corrupt every stored slot ciphertext (the malicious SP
        // rewriting its storage).
        corrupt_stored(&mut server, &mut |_, slot| {
            let last = slot.len() - 1;
            slot[last] ^= 0xFF;
        });
        let err = client.read(&mut server, &clock, &cost, &bid(1)).unwrap_err();
        assert_eq!(err, OramError::Tampered);
    }

    #[test]
    fn dummy_slot_is_authenticated_to_its_last_byte() {
        // The client decrypts one block of a dummy and no more; the bytes
        // it never decrypts are believed no sooner than a real block's, in
        // the half the client opens and in the half its lane opens.
        let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 3 };
        let slot_len = config.slot_len();
        // The root bucket lies on every path, on the root side; one dummy
        // in every leaf-level bucket puts one on whichever path the read
        // takes, on the lane's side.
        for buckets in [0..1, config.leaves() - 1..config.buckets()] {
            // One bit each in: the nonce, the first ciphertext block, the
            // last ciphertext byte, the tag.
            for at in [5, NONCE_LEN + 7, slot_len - TAG_LEN - 1, slot_len - 1] {
                let mut server = OramServer::new(config.clone());
                let mut client =
                    OramClient::new(config.clone(), &[7u8; 16], SecureRng::from_seed(b"oram test"));
                let (clock, cost) = (Clock::new(), CostModel::default());
                // Enough paths written back to reach every leaf bucket.
                for i in 0..32u64 {
                    let data = block(64, i as u8);
                    client.write(&mut server, &clock, &cost, &bid(i % 4), data).unwrap();
                }
                let mut flipped = Vec::new();
                corrupt_stored(&mut server, &mut |bucket, slot| {
                    let bucket = bucket as u64;
                    if !buckets.contains(&bucket) || flipped.contains(&bucket) {
                        return;
                    }
                    let (nonce, sealed) = slot.split_first_chunk::<NONCE_LEN>().expect("slot_len");
                    if client.cipher.open(nonce, b"oram", sealed).expect("honest")[0] == 0 {
                        slot[at] ^= 0x10;
                        flipped.push(bucket);
                    }
                });
                let want = buckets.end - buckets.start;
                assert_eq!(flipped.len() as u64, want, "a bucket without a dummy");
                let err = client.read(&mut server, &clock, &cost, &bid(0)).unwrap_err();
                assert_eq!(err, OramError::Tampered, "buckets {buckets:?}, slot byte {at}");
            }
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
    fn appendix_rides_in_the_same_seal() {
        let (mut server, mut client, clock, cost) = setup();
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 1)).unwrap();
        let config = client.config().clone();
        let restore = |blob: &[u8]| OramClient::restore_state(config.clone(), &[7u8; 16], blob);
        let bare = client.seal_state();
        assert!(restore(&bare).expect("restore").appendix().is_empty());

        client.appendix_mut().extend_from_slice(b"trusted side state");
        let sealed = client.seal_state();
        let counter = |blob: &[u8]| u64::from_be_bytes(blob[4..12].try_into().unwrap());
        assert_eq!(counter(&sealed), counter(&bare) + 1, "one nonce a seal, appendix or not");
        assert_eq!(sealed.len(), bare.len() + b"trusted side state".len());
        let restored = restore(&sealed).expect("restore");
        assert_eq!(restored.appendix(), b"trusted side state");
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(restore(&flipped).err(), Some(OramError::Tampered));
    }

    #[test]
    fn tampered_sealed_state_rejected() {
        let (mut server, mut client, clock, cost) = setup();
        client.write(&mut server, &clock, &cost, &bid(1), block(64, 1)).unwrap();
        let sealed = client.seal_state();
        let config = client.config().clone();
        let restored =
            |blob: &[u8]| OramClient::restore_state(config.clone(), &[7u8; 16], blob).err();
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut flipped = sealed.clone();
                flipped[byte] ^= 1 << bit;
                let refused = restored(&flipped);
                assert_eq!(refused, Some(OramError::Tampered), "bit {bit} of byte {byte}");
            }
        }
        for len in 0..sealed.len() {
            assert_eq!(restored(&sealed[..len]), Some(OramError::Tampered), "cut to {len} bytes");
        }
        let extended = [sealed.as_slice(), &[0]].concat();
        assert_eq!(restored(&extended), Some(OramError::Tampered), "one byte extra");
        assert_eq!(restored(&sealed), None, "the honest blob");
    }

    #[test]
    fn a_client_and_its_lane_can_move_between_threads() {
        fn send<T: Send>() {}
        send::<OramClient>();
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
