//! The pre-execution service: the full lifecycle of paper Fig. 3 —
//! boot, attestation, secure channel, bundle execution on a dedicated
//! HEVM, trace signing, release, and block synchronization.

use crate::config::SecurityConfig;
use crate::reader::HybridState;
use std::sync::Arc;
use tape_analysis::{
    AnalysisConfig, AnalysisReject, CodeAnalysis, Limits, LintFinding, PrecisionSummary,
};
use tape_crypto::{PublicKey, SecretKey, SecureRng, Signature};
use tape_evm::{Env, Transaction, TxResult};
use tape_hevm::{Checkpoint, Hevm, HevmAbort, HevmConfig, HevmStats, SliceOutcome};
use tape_node::{BlockFeed, BlockHeader, FeedError, FeedSet, RetryPolicy, StateDelta};
use tape_oram::{
    DiskStore, DiskStoreConfig, ObliviousState, OramClient, OramConfig, OramError, OramServer,
    RecoveryReport,
};
use tape_primitives::{rlp, Address, B256, U256};
use tape_sim::fault::{Ablation, FaultKind, FaultPlan, FaultSite};
use tape_sim::telemetry::{
    CounterId, GaugeId, HistId, PhaseKind, Sink, TaskBuffer, Telemetry, TelemetryEvent,
};
use tape_sim::{Clock, CostModel, Nanos};
use tape_state::{InMemoryState, StateChanges, UndoDelta, UndoRing};
use tape_tee::attestation::{session_key, Attester, Manufacturer, Verifier};
use tape_tee::channel::{sign_bundle, verify_bundle, Channel};
use tape_tee::hypervisor::{Hypervisor, SlotError};

/// Service deployment parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The security-feature ladder position.
    pub security: SecurityConfig,
    /// HEVM memory/timing configuration.
    pub hevm: HevmConfig,
    /// ORAM tree height (ignored for non-ORAM configurations).
    pub oram_height: u32,
    /// HEVM cores per chip (the XCZU15EV fits 3).
    pub hevm_count: usize,
    /// Deterministic seed for all device randomness.
    pub seed: u64,
    /// Deepest reorg the device will follow: a winning branch forking
    /// more than this many blocks below the head is refused with
    /// [`ServiceError::FinalityViolation`].
    pub finality_depth: u64,
    /// Block deltas retained for in-place rollback (the undo ring).
    /// Must be at least `finality_depth`, or deep-but-legal reorgs die
    /// on an exhausted window.
    pub undo_capacity: usize,
    /// When set, the ORAM bucket tree lives in a crash-safe disk store
    /// rooted at this directory instead of volatile memory: every ORAM
    /// access commits (with the sealed client in the meta slot), and a
    /// reboot over the same directory recovers to the last committed
    /// access instead of re-syncing genesis. `None` (the default) keeps
    /// the in-memory backend.
    pub store_dir: Option<std::path::PathBuf>,
    /// Negative-control posture: the one protection this device runs
    /// without (see [`Ablation`]). Fixed before the first attestation;
    /// `None` (the default) is the production device.
    pub ablation: Option<Ablation>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        // Per-bundle watchdog: honest bundles finish in well under 30
        // virtual seconds; anything longer is a runaway execution and
        // gets aborted so the core returns to the pool.
        let hevm =
            HevmConfig { watchdog_ns: Some(30_000_000_000), ..HevmConfig::default() };
        ServiceConfig {
            security: SecurityConfig::Full,
            hevm,
            oram_height: 14,
            hevm_count: 3,
            seed: 0x7A9E,
            finality_depth: 8,
            undo_capacity: 16,
            store_dir: None,
            ablation: None,
        }
    }
}

impl ServiceConfig {
    /// A configuration at a given security level with defaults otherwise.
    pub fn at_level(security: SecurityConfig) -> Self {
        ServiceConfig { security, ..Default::default() }
    }
}

/// A transaction bundle submitted by a user.
#[derive(Debug, Clone, Default)]
pub struct Bundle {
    /// The transactions to simulate, in order.
    pub transactions: Vec<Transaction>,
}

impl Bundle {
    /// A bundle of one transaction (the paper's Fig. 4 methodology).
    pub fn single(tx: Transaction) -> Self {
        Bundle { transactions: vec![tx] }
    }

    /// Canonical byte encoding: the full transaction bodies — this is
    /// what travels over the secure channel and what the user signs.
    pub fn encode(&self) -> Vec<u8> {
        let mut items = Vec::new();
        for tx in &self.transactions {
            items.push(rlp::encode_address(&tx.from));
            items.push(match &tx.to {
                Some(to) => rlp::encode_address(to),
                None => rlp::encode_bytes(&[]),
            });
            items.push(rlp::encode_u256(&tx.value));
            items.push(rlp::encode_bytes(&tx.data));
            items.push(rlp::encode_u64(tx.gas_limit));
            items.push(rlp::encode_u256(&tx.gas_price));
        }
        rlp::encode_list(&items)
    }
}

/// How stale the world state behind a report may be, measured against
/// the last successfully attested head.
///
/// Stamped onto a [`BundleReport`] by the gateway whenever the
/// block-feed circuit breaker is not closed: the device keeps serving
/// against its last verified head, but the user gets an explicit bound
/// instead of a silent lie about freshness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessBound {
    /// The last attested head the bundle executed against (`None` when
    /// no block was ever synchronized).
    pub head: Option<B256>,
    /// Virtual time elapsed since that head was attested (since boot
    /// when `head` is `None`).
    pub age_ns: Nanos,
    /// When the degradation was caused by a reorg, the verified fork
    /// point the chain rolled back to; the world state behind the
    /// report is canonical only up to this block.
    pub fork_point: Option<ForkPoint>,
}

/// A verified position on the chain: the common ancestor a reorg rolled
/// the world state back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkPoint {
    /// The fork-point block number.
    pub height: u64,
    /// The fork-point block hash.
    pub hash: B256,
}

/// The outcome of one [`HarDTape::sync_from_feeds`] round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The quorum's head is already the device's head.
    AlreadySynced,
    /// The head extended the device's chain by `blocks` blocks.
    Advanced {
        /// Blocks applied (1 for a plain head sync, more for catch-up).
        blocks: usize,
    },
    /// The quorum's head lives on a different branch: the device rolled
    /// back to the fork point and replayed the winning branch.
    Reorged {
        /// The common ancestor the world state was rolled back to.
        fork: ForkPoint,
        /// Blocks unapplied below the old head.
        depth: u64,
        /// Hashes of the abandoned blocks, newest first.
        orphaned: Vec<B256>,
        /// The newly adopted head hash.
        adopted: B256,
    },
}

/// The per-bundle report returned to the user: per-transaction results
/// (ReturnData, gas, logs), the accumulated state modifications, timing,
/// and the device signature.
#[derive(Debug, Clone)]
pub struct BundleReport {
    /// Per-transaction outcomes.
    pub results: Vec<TxResult>,
    /// Accumulated world-state modifications of the whole bundle.
    pub changes: StateChanges,
    /// Virtual time consumed per transaction.
    pub per_tx_ns: Vec<Nanos>,
    /// End-to-end virtual time for the bundle (SP receive → trace sent).
    pub total_ns: Nanos,
    /// Device signature over the trace (`-ES` and above).
    pub signature: Option<Signature>,
    /// HEVM execution statistics.
    pub hevm_stats: HevmStats,
    /// Explicit staleness bound, present when the bundle was served
    /// while block synchronization was degraded (feed breaker open).
    pub staleness: Option<StalenessBound>,
    /// Secret-dependency lint findings from the static pass over every
    /// top-level callee: CALLDATA-derived storage keys, memory offsets,
    /// or branches. Sorted by `(address, finding)` so the encoding —
    /// and therefore the device signature — is deterministic.
    pub lints: Vec<(Address, LintFinding)>,
}

impl BundleReport {
    /// Canonical encoding of the trace (the signed payload). The device
    /// signature must commit to *every* reported field — outputs, logs
    /// (topics included), and all state changes — or the SP could tamper
    /// with the unsigned remainder.
    pub fn encode(&self) -> Vec<u8> {
        let mut items = Vec::new();
        for r in &self.results {
            items.push(rlp::encode_u64(r.success as u64));
            items.push(rlp::encode_u64(r.gas_used));
            items.push(rlp::encode_bytes(&r.output));
            for log in &r.logs {
                items.push(rlp::encode_address(&log.address));
                for topic in &log.topics {
                    items.push(rlp::encode_b256(topic));
                }
                items.push(rlp::encode_bytes(&log.data));
            }
        }
        for (addr, key, value) in &self.changes.storage {
            items.push(rlp::encode_address(addr));
            items.push(rlp::encode_u256(key));
            items.push(rlp::encode_u256(value));
        }
        for (addr, before, after) in &self.changes.balances {
            items.push(rlp::encode_address(addr));
            items.push(rlp::encode_u256(before));
            items.push(rlp::encode_u256(after));
        }
        for (addr, before, after) in &self.changes.nonces {
            items.push(rlp::encode_address(addr));
            items.push(rlp::encode_u64(*before));
            items.push(rlp::encode_u64(*after));
        }
        for addr in &self.changes.new_contracts {
            items.push(rlp::encode_address(addr));
        }
        for addr in &self.changes.selfdestructs {
            items.push(rlp::encode_address(addr));
        }
        for (addr, finding) in &self.lints {
            items.push(rlp::encode_address(addr));
            items.push(rlp::encode_u64(u64::from(finding.pc)));
            items.push(rlp::encode_bytes(finding.kind.to_string().as_bytes()));
        }
        rlp::encode_list(&items)
    }
}

/// How one preemptible pre-execution call ended.
// Variant sizes differ (a pause embeds the full checkpoint), but the
// outcome is a transient return value consumed at the call site —
// never stored in bulk — so boxing would only add an allocation per
// segment yield on the preemption hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PreExecOutcome {
    /// The bundle ran to completion; the report is final and signed.
    Done(BundleReport),
    /// The current transaction's gas slice ran out. The core has been
    /// released; pass the pause back to
    /// [`HarDTape::pre_execute_preemptible`] to run the next segment.
    Preempted(BundlePause),
}

/// A paused, partially executed bundle: the engine's typed
/// [`Checkpoint`] plus the bundle-level progress (results of completed
/// transactions, per-transaction timing, lints, and the phase clock).
///
/// Deliberately *not* `Clone` — a pause resumes exactly once, which is
/// what the gateway's exactly-once accounting for preempted bundles
/// leans on. Dropping a pause discards the bundle cleanly (the journal
/// overlay simply evaporates).
#[derive(Debug)]
pub struct BundlePause {
    checkpoint: Checkpoint,
    hevm_config: HevmConfig,
    results: Vec<TxResult>,
    per_tx: Vec<Nanos>,
    /// Index of the transaction the checkpoint pauses.
    tx_index: usize,
    /// Execution time already spent on the paused transaction.
    tx_elapsed: Nanos,
    lints: Vec<(Address, LintFinding)>,
    /// Virtual time the bundle entered the service (for `total_ns`).
    started: Nanos,
    /// The submitting session; resume is refused for any other.
    session: u64,
}

impl BundlePause {
    /// 1-based index of the segment that yielded.
    pub fn segments(&self) -> u32 {
        self.checkpoint.segment()
    }

    /// Gas left unexecuted in the paused transaction plus the gas
    /// limits of the bundle's not-yet-started transactions: the basis
    /// for remaining-segment estimates (gateway `retry_after` hints).
    pub fn remaining_gas(&self, bundle: &Bundle) -> u64 {
        let rest: u64 = bundle
            .transactions
            .iter()
            .skip(self.tx_index + 1)
            .map(|tx| tx.gas_limit)
            .sum();
        self.checkpoint.remaining_gas().saturating_add(rest)
    }
}

/// How one [`drive_segment_with`] call ended (internal).
// Same transient-return-value argument as `PreExecOutcome` for the
// variant-size disparity.
#[allow(clippy::type_complexity, clippy::large_enum_variant)]
enum SegmentOutcome {
    /// Every transaction retired; the bundle-level artifacts follow.
    Finished(Vec<TxResult>, StateChanges, Vec<Nanos>, HevmStats, Vec<(Address, LintFinding)>),
    /// The current transaction's gas slice ran out mid-execution.
    Yielded(BundlePause),
}

/// Service-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Attestation failed on the user side.
    Attestation(tape_tee::AttestError),
    /// Secure-channel failure.
    Channel(tape_tee::ChannelError),
    /// No idle HEVM.
    Busy,
    /// The HEVM aborted the bundle.
    Hevm(HevmAbort),
    /// A block-sync delta failed verification (attack A6).
    BadDelta(tape_node::DeltaError),
    /// Delta/header mismatch.
    HeaderMismatch,
    /// An ORAM integrity violation (tampered bucket, wrong path served,
    /// dropped write-back — attacks A5/A6 on the storage side).
    Oram(OramError),
    /// The session was revoked after an integrity failure; the user must
    /// re-attest (a fresh [`HarDTape::connect_user`]) before submitting
    /// further bundles. Also the refusal for a [`BundlePause`] resumed
    /// under a different session than the one it was taken in: the
    /// bundle is dead and must be resubmitted under the fresh session.
    ReattestationRequired,
    /// The full node stayed unreachable through every retry.
    NodeUnavailable,
    /// The sync retry policy allows zero attempts — nothing was fetched.
    NoRetryBudget,
    /// Every HEVM core is quarantined; the device cannot serve bundles.
    AllCoresQuarantined,
    /// The static analyzer refused the bundle at admission: the callee's
    /// sound stack bound cannot fit the Layer-1/Layer-2 capacities, so
    /// execution would fault mid-bundle on a hardware limit.
    AnalysisReject {
        /// The callee contract that failed admission.
        address: Address,
        /// The typed admission verdict.
        reason: AnalysisReject,
    },
    /// A verified head does not extend the device's chain: the block at
    /// `height` is on a different branch. A single-feed sync refuses it
    /// outright; the multi-feed path resolves it via fork-choice,
    /// rollback, and replay.
    ReorgDetected {
        /// The head the device expected the new block to build on.
        expected: B256,
        /// The conflicting hash actually served (the block itself at or
        /// below the device's height, or its non-matching parent).
        got: B256,
        /// The height the conflict was observed at.
        height: u64,
    },
    /// A feed served two verified sibling heads at the same height —
    /// cryptographic evidence of Byzantine equivocation. Surfaced when
    /// the evidence leaves no verified winner to sync from.
    Equivocation {
        /// The contested height.
        height: u64,
        /// One verified head hash.
        a: B256,
        /// The other verified head hash.
        b: B256,
    },
    /// The winning branch forks deeper below the head than the
    /// configured finality depth (or below the retained undo window):
    /// following it would rewrite state the device treats as final.
    FinalityViolation {
        /// Blocks the branch would unapply.
        depth: u64,
        /// The configured finality depth it exceeds.
        finality: u64,
    },
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Attestation(e) => write!(f, "attestation: {e}"),
            ServiceError::Channel(e) => write!(f, "channel: {e}"),
            ServiceError::Busy => write!(f, "all HEVMs busy"),
            ServiceError::Hevm(e) => write!(f, "hevm: {e}"),
            ServiceError::BadDelta(e) => write!(f, "block sync: {e}"),
            ServiceError::HeaderMismatch => write!(f, "delta does not match block header"),
            ServiceError::Oram(e) => write!(f, "oram integrity: {e}"),
            ServiceError::ReattestationRequired => {
                write!(f, "session revoked; re-attestation required")
            }
            ServiceError::NodeUnavailable => write!(f, "full node unavailable after retries"),
            ServiceError::NoRetryBudget => {
                write!(f, "sync retry policy allows zero attempts; nothing was fetched")
            }
            ServiceError::AllCoresQuarantined => {
                write!(f, "every HEVM core is quarantined; device needs service")
            }
            ServiceError::AnalysisReject { address, reason } => {
                write!(f, "static analysis rejected callee {address}: {reason}")
            }
            ServiceError::ReorgDetected { expected, got, height } => {
                write!(f, "reorg detected at height {height}: expected {expected}, got {got}")
            }
            ServiceError::Equivocation { height, a, b } => {
                write!(f, "feed equivocated at height {height}: {a} vs {b}")
            }
            ServiceError::FinalityViolation { depth, finality } => {
                write!(
                    f,
                    "branch forks {depth} blocks below the head, past finality depth {finality}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<HevmAbort> for ServiceError {
    fn from(e: HevmAbort) -> Self {
        ServiceError::Hevm(e)
    }
}

/// A connected user: the user-side keys and channel state.
pub struct UserHandle {
    /// Hypervisor session id.
    pub session: u64,
    user_key: SecretKey,
    /// `user_key`'s public half, derived once at connect.
    user_public: PublicKey,
    to_device: Channel,
    from_device: Channel,
    /// Device session secret and channels (held by the Hypervisor;
    /// co-located here because the simulation runs both endpoints
    /// in-process).
    device_key: SecretKey,
    /// The attested session key from the verified quote.
    device_public: PublicKey,
    device_rx: Channel,
    device_tx: Channel,
}

impl core::fmt::Debug for UserHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("UserHandle").field("session", &self.session).finish()
    }
}

impl UserHandle {
    /// The user's verification key (the device checks bundle signatures
    /// against it).
    pub fn public_key(&self) -> PublicKey {
        self.user_public
    }

    /// The device's attested session key (from the verified quote); the
    /// user checks trace signatures against it.
    pub fn device_key(&self) -> PublicKey {
        self.device_public
    }
}

/// One HarDTAPE device running the pre-execution service.
pub struct HarDTape {
    config: ServiceConfig,
    env: Env,
    clock: Clock,
    cost: CostModel,
    hypervisor: Hypervisor,
    verifier: Verifier,
    rng: SecureRng,
    /// "Prefetched to untrusted memory": the local mirror used by
    /// ORAM-disabled configurations (and for code under `-ESO`).
    local: InMemoryState,
    oram: Option<ObliviousState>,
    expected_head: Option<B256>,
    /// Height of the expected head (`None` until the first sync).
    head_height: Option<u64>,
    /// Recently applied `(height, hash)` heads — the window a reorg's
    /// fork point is searched in. Bounded by `undo_capacity + 1`.
    recent_heads: Vec<(u64, B256)>,
    /// Per-block world-state pre-images enabling in-place rollback.
    undo: UndoRing,
    /// Deterministic adversary schedule, when armed (see [`FaultPlan`]).
    faults: Option<FaultPlan>,
    /// Sessions revoked after an integrity failure: their bundles are
    /// refused until the user re-attests.
    revoked: std::collections::HashSet<u64>,
    /// Deterministic telemetry sink shared with every layer.
    telemetry: Telemetry,
    /// What cold-start recovery found when the ORAM runs on a disk
    /// store (`None` for in-memory deployments).
    recovery: Option<RecoveryReport>,
    /// Static analyses memoized by code hash — contract code is
    /// immutable, so one CFG/dataflow pass serves every bundle that
    /// calls the same code.
    analysis_cache: std::collections::HashMap<B256, Arc<CodeAnalysis>>,
    /// Hardware capacities the admission gate checks stack bounds
    /// against (derived from the HEVM memory configuration).
    limits: Limits,
}

impl core::fmt::Debug for HarDTape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HarDTape")
            .field("security", &self.config.security)
            .field("accounts", &self.local.len())
            .finish()
    }
}

impl HarDTape {
    /// Boots a device, provisions it with a fresh Manufacturer, and
    /// synchronizes the genesis world state (into the ORAM when the
    /// configuration calls for one).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Oram`] when the initial full-state sync hits an
    /// ORAM integrity failure — an undersized tree (genesis larger than
    /// the configured `oram_height` can hold) surfaces here as a typed
    /// error instead of a panic.
    pub fn new(
        config: ServiceConfig,
        env: Env,
        genesis: &InMemoryState,
    ) -> Result<Self, ServiceError> {
        let manufacturer = Manufacturer::new(&config.seed.to_be_bytes());
        let mut rng = SecureRng::from_seed(&(config.seed ^ 0xDE51u64).to_be_bytes());
        let firmware = b"hardtape hypervisor firmware v1.0";
        let (puf, cert) = manufacturer.provision(config.seed, &mut rng);
        let attester = Attester::new(puf, cert, firmware);
        let verifier =
            Verifier::new(manufacturer.public_key(), tape_crypto::keccak256(firmware));
        let hypervisor = Hypervisor::boot(attester, config.hevm_count, rng.clone());

        let clock = Clock::new();
        let cost = config.hevm.cost.clone();
        let telemetry = Telemetry::new();
        let mut recovery: Option<RecoveryReport> = None;
        let oram = if config.security.oram_storage() {
            let oram_config = OramConfig {
                block_size: config.hevm.mem.page_size,
                bucket_capacity: 4,
                height: config.oram_height,
            };
            // Durable deployments open the disk store first: recovery
            // (log replay, torn-tail truncation) happens here, and a
            // sealed client checkpoint in the committed meta slot marks
            // a warm restart — the world state is already in the tree.
            let (server, sealed_client) = match &config.store_dir {
                Some(dir) => {
                    let mut mac_key = [0u8; 32];
                    mac_key.copy_from_slice(
                        tape_crypto::keccak256(
                            [&hypervisor.oram_key()[..], b"bucket-store".as_slice()].concat(),
                        )
                        .as_bytes(),
                    );
                    let (store, report) = DiskStore::open(
                        DiskStoreConfig::new(dir, mac_key),
                        &oram_config,
                        &clock,
                        Some(telemetry.clone()),
                    )
                    .map_err(|e| ServiceError::Oram(OramError::Store(e)))?;
                    recovery = Some(report);
                    let server = OramServer::with_backend(oram_config.clone(), Box::new(store));
                    let sealed = server.meta().map(<[u8]>::to_vec);
                    (server, sealed)
                }
                None => (OramServer::new(oram_config.clone()), None),
            };
            let warm = sealed_client.is_some();
            let client = match sealed_client {
                Some(sealed) => {
                    OramClient::restore_state(oram_config.clone(), &hypervisor.oram_key(), &sealed)
                        .map_err(ServiceError::Oram)?
                }
                None => OramClient::new(
                    oram_config.clone(),
                    &hypervisor.oram_key(),
                    SecureRng::from_seed(&(config.seed ^ 0x04A8u64).to_be_bytes()),
                ),
            };
            let state = ObliviousState::new(
                client,
                server,
                clock.clone(),
                cost.clone(),
                config.ablation,
            );
            state.set_telemetry(telemetry.clone());
            if config.store_dir.is_some() {
                state.make_durable();
            }
            if config.security.oram_code() {
                // §IV-D prefetcher: its own DRBG stream, seeded with the
                // wire cost of one query as the initial gap estimate.
                state.enable_prefetch(
                    SecureRng::from_seed(&(config.seed ^ 0x9EFEu64).to_be_bytes()),
                    cost.oram_query_ns(oram_config.blocks_per_access()),
                );
            }
            // Initial synchronization (step 11): the world state enters
            // the ORAM. Accounts are sorted so the layout (and therefore
            // every observable leaf sequence) is reproducible — HashMap
            // iteration order must not leak into results. A warm restart
            // skips this: the recovered tree already holds the state and
            // the restored client resumes its exact RNG/nonce streams.
            if !warm {
                let mut accounts: Vec<_> =
                    genesis.iter().map(|(a, acc)| (*a, acc.clone())).collect();
                accounts.sort_by_key(|(a, _)| *a);
                state
                    .sync_full_state(accounts.into_iter())
                    .map_err(ServiceError::Oram)?;
            }
            Some(state)
        } else {
            None
        };

        // Admission limits mirror the real hardware capacities: the
        // Layer-1 operand stack, plus per-frame bookkeeping (frame-state
        // registers + world-state cache) that swaps alongside it through
        // the Layer-2 ring. Requiring two resident worst-case frames is
        // exactly the engine's §IV-B single-frame rule (a frame larger
        // than half the ring aborts with `MemoryOverflow`); deeper call
        // stacks spill to layer 3 and need no admission headroom.
        let limits = Limits {
            stack_bytes: config.hevm.mem.stack_bytes,
            frame_overhead_bytes: config.hevm.mem.frame_state_bytes
                + config.hevm.mem.state_cache,
            layer2_bytes: config.hevm.mem.layer2_bytes,
            min_resident_frames: 2,
        };
        let undo = UndoRing::new(config.undo_capacity);
        Ok(HarDTape {
            config,
            env,
            clock,
            cost,
            hypervisor,
            verifier,
            rng,
            local: genesis.clone(),
            oram,
            expected_head: None,
            head_height: None,
            recent_heads: Vec::new(),
            undo,
            faults: None,
            revoked: std::collections::HashSet::new(),
            telemetry,
            recovery,
            analysis_cache: std::collections::HashMap::new(),
            limits,
        })
    }

    /// The device's telemetry sink (shared with the gateway and every
    /// instrumented layer).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// What cold-start recovery found, when the device boots its ORAM
    /// from a disk store (`None` for in-memory deployments).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Digest of the committed ORAM tree (`None` without an ORAM) —
    /// the oracle crash/recovery tests compare across restarts.
    pub fn oram_state_digest(&self) -> Option<B256> {
        self.oram.as_ref().map(|o| o.state_digest())
    }

    /// The ORAM backend's committed transaction sequence number
    /// (`None` without an ORAM; 0 for in-memory backends).
    pub fn oram_committed_seq(&self) -> Option<u64> {
        self.oram.as_ref().map(|o| o.committed_seq())
    }

    /// Prefetcher lifetime stats (None without a code-ORAM prefetcher).
    pub fn prefetch_stats(&self) -> Option<tape_oram::PrefetchStats> {
        self.oram.as_ref().and_then(|o| o.prefetch_stats())
    }

    /// Aggregate value-set-analysis precision over every contract
    /// analyzed so far (the memoized per-code-hash analyses): resolved
    /// vs degraded computed jumps and the state-plan site/slot mix.
    pub fn analysis_precision(&self) -> PrecisionSummary {
        let mut summary = PrecisionSummary::default();
        for analysis in self.analysis_cache.values() {
            summary.absorb(analysis);
        }
        summary
    }

    /// The static analysis of `address`'s code, memoized by code hash
    /// (`None` for accounts without code). One CFG + dataflow pass per
    /// distinct bytecode, shared by every later bundle.
    pub(crate) fn analyze_code(&mut self, address: &Address) -> Option<Arc<CodeAnalysis>> {
        use tape_state::StateReader as _;
        let info = self.local.account(address)?;
        if info.code_len == 0 {
            return None;
        }
        if let Some(cached) = self.analysis_cache.get(&info.code_hash) {
            return Some(cached.clone());
        }
        let code = self.local.code(address);
        let limit_words = self.config.hevm.mem.stack_bytes / 32;
        let analysis = Arc::new(tape_analysis::analyze_with(
            &code,
            &AnalysisConfig {
                page_size: self.config.hevm.mem.page_size,
                // Widen well past the admission limit so linear code a
                // little over budget reports a precise StackOverflow
                // bound instead of degrading to "unbounded".
                max_stack_words: limit_words * 4,
            },
        ));
        self.analysis_cache.insert(info.code_hash, analysis.clone());
        Some(analysis)
    }

    /// The static admission gate: every top-level callee's sound stack
    /// bound must fit the Layer-1/Layer-2 capacities, or the bundle is
    /// refused here with a typed verdict instead of faulting mid-bundle
    /// on a hardware limit.
    ///
    /// # Errors
    ///
    /// [`ServiceError::AnalysisReject`] naming the first offending
    /// callee.
    pub fn admission_check(&mut self, bundle: &Bundle) -> Result<(), ServiceError> {
        let mut seen = std::collections::BTreeSet::new();
        for tx in &bundle.transactions {
            let Some(to) = tx.to else { continue };
            if !seen.insert(to) {
                continue;
            }
            if let Some(analysis) = self.analyze_code(&to) {
                if let Err(reason) = self.limits.admit(&analysis) {
                    self.telemetry.count(CounterId::AnalysisRejects, 1);
                    return Err(ServiceError::AnalysisReject { address: to, reason });
                }
            }
        }
        Ok(())
    }

    /// Arms a deterministic fault plan across the device's untrusted
    /// boundaries: the ORAM server starts misbehaving per the plan, the
    /// secure channel starts suffering injected replay/drop/tamper, and
    /// every HEVM's layer-3 page store turns adversarial. (The node feed
    /// is armed separately via [`BlockFeed::arm_faults`] — it lives
    /// outside the device.)
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if let Some(oram) = &self.oram {
            oram.arm_faults(plan.clone());
        }
        self.faults = Some(plan);
    }

    /// The security configuration.
    pub fn security(&self) -> SecurityConfig {
        self.config.security
    }

    /// The full deployment configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The Hypervisor's current ORAM bucket-encryption key. In a fleet
    /// this is the escrow that lets a surviving device serve a migrated
    /// tenant's world state: every device shares one key
    /// ([`Self::share_oram_key`]), exactly as the trusted
    /// device-to-device channel of the paper's §VI-D deployment would.
    pub fn oram_key(&self) -> [u8; 16] {
        self.hypervisor.oram_key()
    }

    /// Installs the fleet-shared ORAM key on this device's Hypervisor
    /// (the receiving end of the trusted device-to-device key share).
    /// The ORAM client copied its key at boot, so joining the fleet
    /// escrow never re-keys buckets already written.
    pub fn share_oram_key(&mut self, key: [u8; 16]) {
        self.hypervisor.share_oram_key(key);
    }

    /// The service-wide virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The ORAM query statistics (None without an ORAM).
    pub fn oram_stats(&self) -> Option<tape_oram::QueryStats> {
        self.oram.as_ref().map(|o| o.stats())
    }

    /// The adversary's complete view of the ORAM wire: every
    /// `(time, leaf)` the untrusted server observed. Used by the
    /// obliviousness analyses and the front-running example.
    pub fn observed_oram_accesses(&self) -> Vec<tape_oram::ObservedAccess> {
        self.oram
            .as_ref()
            .map(|o| o.observed_accesses())
            .unwrap_or_default()
    }

    /// Runs the remote-attestation handshake for a new user and
    /// establishes the secure channel.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Attestation`] if the user rejects the quote.
    pub fn connect_user(&mut self, user_seed: &[u8]) -> Result<UserHandle, ServiceError> {
        let mut user_rng = SecureRng::from_seed(user_seed);
        let user_key = user_rng.next_secret_key();
        let nonce = user_rng.next_b256();

        let (quote, session, device_secret) = self.hypervisor.attest(nonce);
        self.verifier
            .verify(&quote, &nonce)
            .map_err(ServiceError::Attestation)?;

        // DHKE both ways.
        let user_session = user_rng.next_secret_key();
        let k_user = session_key(&user_session, &quote.session_key)
            .map_err(ServiceError::Attestation)?;
        let k_device = session_key(&device_secret, &user_session.public_key())
            .map_err(ServiceError::Attestation)?;
        debug_assert_eq!(k_user, k_device);

        Ok(UserHandle {
            session,
            user_public: user_key.public_key(),
            user_key,
            to_device: Channel::new(&k_user, 0),
            from_device: Channel::new(&k_user, 1),
            device_key: device_secret,
            device_public: quote.session_key,
            device_rx: Channel::new(&k_device, 0),
            device_tx: Channel::new(&k_device, 1),
        })
    }

    /// Pre-executes a bundle on a dedicated HEVM (paper Fig. 3 steps
    /// 3–10). World-state modifications are discarded at the end.
    ///
    /// When `hevm.gas_slice` is configured this drives the segmented
    /// engine back-to-back — every preemption is immediately resumed on
    /// the same device, with checkpoint cover traffic and segment
    /// telemetry at each boundary. Callers who want to interleave other
    /// work between segments (the gateway's preemption scheduler) use
    /// [`Self::pre_execute_preemptible`] directly.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on channel failures, busy devices, or HEVM
    /// aborts (memory overflow, layer-3 tampering).
    pub fn pre_execute(
        &mut self,
        user: &mut UserHandle,
        bundle: &Bundle,
    ) -> Result<BundleReport, ServiceError> {
        let mut outcome = self.pre_execute_preemptible(user, bundle, None)?;
        loop {
            match outcome {
                PreExecOutcome::Done(report) => return Ok(report),
                PreExecOutcome::Preempted(pause) => {
                    outcome = self.pre_execute_preemptible(user, bundle, Some(pause))?;
                }
            }
        }
    }

    /// Runs one gas-slice segment of a bundle: with `resume` absent the
    /// bundle enters the service (channel, signature, admission), takes
    /// a core, and executes until its current transaction's gas slice
    /// runs out or the whole bundle finishes; with `resume` present the
    /// paused bundle re-takes a core and continues. The core is
    /// released on *every* exit, so a preempted bundle never holds
    /// hardware while queued.
    ///
    /// Exactly-once: the [`BundlePause`] is consumed by value and is
    /// not `Clone`, so a segment can never be replayed. An error
    /// consumes the pause too — a failed bundle is dead, exactly like a
    /// failed un-segmented bundle.
    ///
    /// # Errors
    ///
    /// As [`Self::pre_execute`]; [`ServiceError::ReattestationRequired`]
    /// when `resume` carries a pause taken under a different session
    /// than `user`'s. `resume` must belong to `bundle`.
    pub fn pre_execute_preemptible(
        &mut self,
        user: &mut UserHandle,
        bundle: &Bundle,
        resume: Option<BundlePause>,
    ) -> Result<PreExecOutcome, ServiceError> {
        let task = self.prepare_task(user, bundle, resume)?;
        self.commit_task(user, bundle, Execution::Inline(task))
    }

    /// Records one completed service phase (duration since `started`).
    fn record_phase(&self, phase: PhaseKind, started: Nanos) {
        record_phase_into(&mut self.telemetry.clone(), &self.clock, phase, started);
    }

    /// Carries one sealed user→device message across the untrusted wire,
    /// applying any armed channel fault. Detected attacks (tamper,
    /// replay) revoke the session; a dropped message is recovered
    /// transparently by retransmission.
    fn deliver_to_device(
        &mut self,
        user: &mut UserHandle,
        payload: &[u8],
    ) -> Result<Vec<u8>, ServiceError> {
        let sealed = user.to_device.seal(payload);
        self.clock.advance(self.cost.protected_message_ns(sealed.sealed.len()));

        let fault = self.faults.as_ref().and_then(|plan| {
            plan.decide_for(
                FaultSite::Channel,
                &[FaultKind::ChannelTamper, FaultKind::ChannelDrop, FaultKind::ChannelReplay],
            )
        });
        match fault {
            Some(decision) if decision.kind == FaultKind::ChannelTamper => {
                // A3: ciphertext flipped in transit. GCM authentication
                // fails; the device treats the channel as compromised.
                let mut tampered = sealed.clone();
                let len = tampered.sealed.len() as u64;
                tampered.sealed[(decision.param % len) as usize] ^= 0x01;
                match user.device_rx.open(&tampered) {
                    Ok(opened) => Ok(opened),
                    Err(err) => {
                        self.revoked.insert(user.session);
                        Err(ServiceError::Channel(err))
                    }
                }
            }
            Some(decision) if decision.kind == FaultKind::ChannelDrop => {
                // The message is lost in transit; the user times out and
                // retransmits the identical sealed message. The sequence
                // number was never consumed, so the retry opens cleanly —
                // recovery is transparent, only (virtual) time is lost.
                self.clock
                    .advance(self.cost.protected_message_ns(sealed.sealed.len()));
                user.device_rx.open(&sealed).map_err(ServiceError::Channel)
            }
            Some(_) => {
                // ChannelReplay: the message is delivered once, then the
                // adversary re-sends the captured ciphertext. The second
                // open trips the sequence check — a detected replay
                // attack aborts the bundle and revokes the session (A3).
                user.device_rx.open(&sealed).map_err(ServiceError::Channel)?;
                let err = match user.device_rx.open(&sealed) {
                    Err(err) => err,
                    // A replay that opens means the sequence check is
                    // broken — fail loudly rather than proceed.
                    Ok(_) => tape_tee::ChannelError::Sealed,
                };
                self.revoked.insert(user.session);
                Err(ServiceError::Channel(err))
            }
            None => user.device_rx.open(&sealed).map_err(ServiceError::Channel),
        }
    }

    /// Synchronizes a new block's state delta (paper step 11): verifies
    /// the Merkle proofs against the block header, checks that the block
    /// extends the device's chain, then updates the local mirror and the
    /// ORAM — capturing per-account pre-images in the undo ring first,
    /// so a later reorg can roll the block back in place.
    ///
    /// Re-syncing the current head is an idempotent no-op. A verified
    /// block at or below the device's height, or one whose parent does
    /// not match the expected head, is refused with
    /// [`ServiceError::ReorgDetected`] — the single-feed path cannot
    /// resolve forks; [`Self::sync_from_feeds`] can.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] if the header or any proof fails verification,
    /// or the block conflicts with the device's chain — nothing is
    /// applied in either case (A6).
    pub fn sync_block(
        &mut self,
        header: &BlockHeader,
        delta: &StateDelta,
    ) -> Result<(), ServiceError> {
        if delta.block_hash != header.hash() || delta.state_root != header.state_root {
            return Err(ServiceError::HeaderMismatch);
        }
        delta.verify().map_err(ServiceError::BadDelta)?;

        let hash = header.hash();
        if self.expected_head == Some(hash) {
            // The quorum (or a recovered feed) re-served the current
            // head: already applied, nothing to do.
            return Ok(());
        }
        if let (Some(expected), Some(height)) = (self.expected_head, self.head_height) {
            if header.number <= height {
                // A verified sibling (or ancestor) of an applied block:
                // this branch conflicts with ours.
                return Err(ServiceError::ReorgDetected {
                    expected,
                    got: hash,
                    height: header.number,
                });
            }
            if header.number == height + 1 && header.parent_hash != expected {
                return Err(ServiceError::ReorgDetected {
                    expected,
                    got: header.parent_hash,
                    height,
                });
            }
            // `number > height + 1` is a gap: the device missed blocks
            // and this is plain catch-up — apply (legacy behaviour; the
            // multi-feed path downloads the gap instead).
        }
        self.apply_block(header, delta)
    }

    /// Applies a verified, chain-consistent block: captures undo
    /// pre-images, writes the delta through the local mirror and the
    /// ORAM, and advances the head bookkeeping.
    fn apply_block(
        &mut self,
        header: &BlockHeader,
        delta: &StateDelta,
    ) -> Result<(), ServiceError> {
        let hash = header.hash();
        // Pre-images first: everything this block is about to overwrite
        // (or delete), exactly what unapplying it must restore.
        let mut seen = std::collections::BTreeSet::new();
        let mut pre: Vec<(Address, Option<tape_state::Account>)> = Vec::new();
        for address in delta
            .accounts
            .iter()
            .map(|e| e.address)
            .chain(delta.deleted.iter().map(|e| e.address))
        {
            if seen.insert(address) {
                pre.push((address, self.local.account_full(&address).cloned()));
            }
        }

        for entry in &delta.accounts {
            self.local.put_account(entry.address, entry.account.clone());
            if let Some(oram) = &self.oram {
                oram.sync_account(&entry.address, &entry.account)
                    .map_err(ServiceError::Oram)?;
            }
        }
        for entry in &delta.deleted {
            self.local.remove_account(&entry.address);
            if let Some(oram) = &self.oram {
                oram.remove_account(&entry.address).map_err(ServiceError::Oram)?;
            }
        }
        self.undo.push(UndoDelta { height: header.number, block_hash: hash, pre });
        self.local.put_block_hash(header.number, hash);
        self.expected_head = Some(hash);
        self.head_height = Some(header.number);
        self.recent_heads.retain(|&(h, _)| h < header.number);
        self.recent_heads.push((header.number, hash));
        let cap = self.config.undo_capacity + 1;
        if self.recent_heads.len() > cap {
            let excess = self.recent_heads.len() - cap;
            self.recent_heads.drain(..excess);
        }
        Ok(())
    }

    /// Synchronizes from a Byzantine-tolerant [`FeedSet`]: polls every
    /// feed, lets the set quarantine forgers/equivocators/stalls, and
    /// follows the fork-choice winner — extending the chain, catching up
    /// over gaps, or rolling back to a verified fork point and replaying
    /// the winning branch (paper step 11, under threat A1/A6).
    ///
    /// The rollback travels through the normal ORAM sync path, so on the
    /// wire it is shaped exactly like forward synchronization (§IV-D);
    /// the telemetry auditor's reorg lens checks precisely that.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Equivocation`] when equivocation evidence leaves
    /// no verified winner; [`ServiceError::NodeUnavailable`] when no
    /// feed serves a verifiable head; [`ServiceError::FinalityViolation`]
    /// when the winning branch forks below the finality depth (or the
    /// undo window); any [`Self::sync_block`] error from the replay.
    pub fn sync_from_feeds(&mut self, feeds: &mut FeedSet) -> Result<SyncOutcome, ServiceError> {
        let report = feeds.poll();
        if !report.equivocations.is_empty() {
            self.telemetry
                .count(CounterId::EquivocationsDetected, report.equivocations.len() as u64);
        }
        if !report.newly_quarantined.is_empty() {
            self.telemetry
                .count(CounterId::FeedsQuarantined, report.newly_quarantined.len() as u64);
        }
        let Some((winner, header, delta)) = report.winner else {
            // No verified head. Equivocation evidence explains *why*
            // the quorum failed; surface it over a generic outage.
            if let Some(ev) = report.equivocations.first() {
                return Err(ServiceError::Equivocation { height: ev.height, a: ev.a, b: ev.b });
            }
            return Err(ServiceError::NodeUnavailable);
        };

        let adopted = header.hash();
        if self.expected_head == Some(adopted) {
            return Ok(SyncOutcome::AlreadySynced);
        }
        let (Some(expected), Some(height)) = (self.expected_head, self.head_height) else {
            // First sync ever: adopt the winner directly.
            self.apply_block(&header, &delta)?;
            return Ok(SyncOutcome::Advanced { blocks: 1 });
        };
        if header.number == height + 1 && header.parent_hash == expected {
            self.apply_block(&header, &delta)?;
            return Ok(SyncOutcome::Advanced { blocks: 1 });
        }

        // The winner is not a direct extension: walk its ancestry down
        // (verifying every block) until it attaches to our chain —
        // either at the head (pure catch-up) or at an earlier applied
        // block (reorg).
        let finality = self.config.finality_depth;
        let mut branch: Vec<(BlockHeader, StateDelta)> = vec![(header, delta)];
        let fork: ForkPoint = loop {
            let lowest = &branch.last().expect("branch starts non-empty").0;
            let parent = lowest.parent_hash;
            let Some(parent_number) = lowest.number.checked_sub(1) else {
                // Ran out of chain below the branch without attaching.
                return Err(ServiceError::FinalityViolation { depth: height, finality });
            };
            if parent == expected && parent_number == height {
                break ForkPoint { height, hash: expected };
            }
            if self
                .recent_heads
                .iter()
                .any(|&(h, hh)| h == parent_number && hh == parent)
            {
                break ForkPoint { height: parent_number, hash: parent };
            }
            // Refuse to dig below finality before fetching further.
            if parent_number < height.saturating_sub(finality) {
                return Err(ServiceError::FinalityViolation {
                    depth: height - parent_number,
                    finality,
                });
            }
            let (parent_header, parent_delta) = feeds
                .fetch_block(winner, parent_number)
                .map_err(|_| ServiceError::NodeUnavailable)?;
            if parent_header.hash() != parent {
                // The feed's history does not match the head it served.
                return Err(ServiceError::HeaderMismatch);
            }
            if parent_delta.block_hash != parent
                || parent_delta.state_root != parent_header.state_root
            {
                return Err(ServiceError::HeaderMismatch);
            }
            parent_delta.verify().map_err(ServiceError::BadDelta)?;
            branch.push((parent_header, parent_delta));
        };

        let depth = height - fork.height;
        if depth > finality {
            return Err(ServiceError::FinalityViolation { depth, finality });
        }
        let orphaned = if depth > 0 { self.rollback_to(&fork, depth)? } else { Vec::new() };

        // Replay the winning branch, oldest first, through the normal
        // sync path (each block re-captures undo pre-images).
        let blocks = branch.len();
        for (branch_header, branch_delta) in branch.iter().rev() {
            self.sync_block(branch_header, branch_delta)?;
        }
        if depth > 0 {
            Ok(SyncOutcome::Reorged { fork, depth, orphaned, adopted })
        } else {
            Ok(SyncOutcome::Advanced { blocks })
        }
    }

    /// Rolls the world state back to `fork` by replaying the undo ring's
    /// pre-images — through the normal ORAM write path, so rollback
    /// traffic is indistinguishable from forward sync. Returns the
    /// orphaned block hashes, newest first.
    fn rollback_to(&mut self, fork: &ForkPoint, depth: u64) -> Result<Vec<B256>, ServiceError> {
        let finality = self.config.finality_depth;
        let Some(popped) = self.undo.pop_above(fork.height) else {
            // The undo window no longer reaches the fork point.
            return Err(ServiceError::FinalityViolation { depth, finality });
        };
        let accounts: u32 = popped.iter().map(|d| d.pre.len() as u32).sum();
        // Advertise the ORAM coverage the rollback owes: zero without an
        // ORAM (nothing oblivious to restore). The mirror-only ablation
        // keeps the honest advertisement while skipping the writes —
        // the auditor must catch the gap.
        let advertised = if self.oram.is_some() { accounts } else { 0 };
        let mirror_only = self.config.ablation == Some(Ablation::MirrorOnlyRollback);
        let oram = self.oram.as_ref().filter(|_| !mirror_only);
        self.telemetry.record(TelemetryEvent::RollbackBegin {
            at: self.clock.now(),
            height: fork.height,
            depth: depth as u32,
            accounts: advertised,
        });
        let mut pages = 0u64;
        for undo in &popped {
            for (address, pre) in &undo.pre {
                match pre {
                    Some(account) => {
                        self.local.put_account(*address, account.clone());
                        if let Some(oram) = oram {
                            pages +=
                                oram.sync_account(address, account).map_err(ServiceError::Oram)?;
                        }
                    }
                    None => {
                        self.local.remove_account(address);
                        if let Some(oram) = oram {
                            pages += oram.remove_account(address).map_err(ServiceError::Oram)?;
                        }
                    }
                }
            }
        }
        self.telemetry
            .record(TelemetryEvent::RollbackEnd { at: self.clock.now(), pages: pages as u32 });
        self.telemetry.observe(HistId::ReorgDepth, depth);
        self.telemetry.count(CounterId::ReorgsApplied, 1);

        self.expected_head = Some(fork.hash);
        self.head_height = Some(fork.height);
        self.recent_heads.retain(|&(h, _)| h <= fork.height);
        Ok(popped.iter().map(|d| d.block_hash).collect())
    }

    /// Pulls the head block from a (possibly adversarial, possibly
    /// flaky) [`BlockFeed`] and synchronizes it, retrying per the
    /// default [`RetryPolicy`]. See [`Self::sync_from_feed_with`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::NodeUnavailable`] when the feed stays down
    /// through every retry (or has no block); any [`Self::sync_block`]
    /// error for forged responses.
    pub fn sync_from_feed(&mut self, feed: &mut BlockFeed) -> Result<(), ServiceError> {
        self.sync_from_feed_with(feed, &RetryPolicy::default())
    }

    /// Pulls the head block from a (possibly adversarial, possibly
    /// flaky) [`BlockFeed`] and synchronizes it. Transient
    /// unavailability is retried with `policy`'s capped exponential
    /// backoff on the virtual clock; forged responses are rejected by
    /// [`Self::sync_block`] without retrying — a forgery is an attack,
    /// not noise.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoRetryBudget`] — without touching the feed —
    /// when `policy.max_attempts` is zero;
    /// [`ServiceError::NodeUnavailable`] when the feed stays down
    /// through every retry (or has no block); any [`Self::sync_block`]
    /// error for forged responses.
    pub fn sync_from_feed_with(
        &mut self,
        feed: &mut BlockFeed,
        policy: &RetryPolicy,
    ) -> Result<(), ServiceError> {
        if policy.max_attempts == 0 {
            // Fail fast: a zero budget means "never fetch", and silently
            // reporting an outage (or looping) would mask the
            // misconfiguration.
            return Err(ServiceError::NoRetryBudget);
        }
        for attempt in 0..policy.max_attempts {
            match feed.fetch_head() {
                Ok((header, delta)) => return self.sync_block(&header, &delta),
                Err(FeedError::NoBlock | FeedError::NoRetryBudget) => {
                    return Err(ServiceError::NodeUnavailable)
                }
                Err(FeedError::Unavailable) if attempt + 1 < policy.max_attempts => {
                    let backoff = policy.backoff_ns(attempt);
                    self.telemetry.count(CounterId::NodeRetries, 1);
                    self.telemetry.record(TelemetryEvent::NodeRetry {
                        at: self.clock.now(),
                        attempt: attempt + 1,
                        backoff_ns: backoff,
                    });
                    self.clock.advance(backoff);
                }
                Err(FeedError::Unavailable) => return Err(ServiceError::NodeUnavailable),
            }
        }
        Err(ServiceError::NodeUnavailable)
    }

    /// The most recently synchronized block hash.
    pub fn head(&self) -> Option<B256> {
        self.expected_head
    }

    /// The most recently synchronized block height.
    pub fn head_height(&self) -> Option<u64> {
        self.head_height
    }

    /// Fresh randomness from the device RNG (used by examples).
    pub fn nonce(&mut self) -> B256 {
        self.rng.next_b256()
    }
}

// ---------------------------------------------------------------------------
// One bundle segment: prepare → execute → commit.
//
// * `prepare_task` (shared clock, `&mut` device) — revocation check,
//   channel delivery with its fault draws and sequence numbers, static
//   admission, lint and prefetch-plan construction, and the
//   per-dispatch RNG draws for the HEVM config. Everything that touches
//   shared mutable state before a core is taken.
// * `execute_task` (no `&self`) — ECDSA sign/verify, the HEVM segment,
//   and trace signing, against whatever clock, telemetry sink and ORAM
//   the caller hands it. A pure function of the prepared task and
//   those three.
// * `commit_task` (shared clock, `&mut` device) — takes the core, lands
//   the execution on the shared timeline, then core accounting,
//   revocation, and the seal phase (sequential channel state).
//
// Where the execution happens is the one thing that differs between
// devices (`Execution`): inside commit, on the shared clock, straight
// into `Telemetry`, when executing mutates state other bundles share
// (`pooled_eligible` states the rule); otherwise possibly ahead of its
// commit, on a pool worker against a private clock starting at zero
// and a `TaskBuffer`. Commit then replays the buffer and advances the
// shared clock by the task's duration, so virtual time stays
// serialized and the schedule is byte-identical for 1 and N workers.
// ---------------------------------------------------------------------------

/// The `Sync` subset of device state an executing task reads: the
/// world-state mirror plus the execution parameters.
pub(crate) struct ExecCtx<'a> {
    security: SecurityConfig,
    env: &'a Env,
    cost: &'a CostModel,
    local: &'a InMemoryState,
}

/// The ORAM prefetch plans of a fresh bundle (§IV-D): built at prepare
/// because the analysis cache needs `&mut` device, handed to the ORAM
/// inside the `Execute` window, where their batch fetches are charged.
struct PrefetchPlans {
    /// World-state plans `(contract, enumerable slots, dynamic)` for
    /// every analyzed contract the bundle can enter.
    state: Vec<(Address, Vec<U256>, bool)>,
    /// Records the bundle reads outside any plan (sender/recipient
    /// account metas, accounts named by BALANCE/EXTCODE* operands).
    meta_only: std::collections::BTreeSet<Address>,
    /// Code plans (`None` under `-ESO`, where code stays local).
    code: Option<CodePlans>,
}

/// The code half of [`PrefetchPlans`].
enum CodePlans {
    /// Reachable-page plans: advertised for every analysis, prefetched
    /// for the top-level `callees` only — inner-call pages (`extra`)
    /// are demand-paced, not drained.
    Planned {
        callees: Vec<(Address, Arc<CodeAnalysis>)>,
        extra: Vec<(Address, Arc<CodeAnalysis>)>,
    },
    /// Pre-fix pipeline (starvation ablation): dense prefetch of every
    /// code page `(callee, pages)`, no plans advertised.
    Dense(Vec<(Address, u32)>),
}

impl PrefetchPlans {
    /// Advertises every plan to the ORAM layer, which batch-fetches and
    /// pins the planned records and schedules the code prefetch.
    fn apply(&self, oram: &ObliviousState) {
        for (addr, slots, dynamic) in &self.state {
            oram.set_state_plan(*addr, slots, *dynamic);
        }
        for addr in &self.meta_only {
            oram.set_state_plan(*addr, &[], false);
        }
        match &self.code {
            Some(CodePlans::Planned { callees, extra }) => {
                for (addr, analysis) in callees {
                    oram.set_code_plan(*addr, &analysis.reachable_pages);
                    oram.schedule_prefetch_pages(*addr, &analysis.reachable_pages);
                }
                for (addr, analysis) in extra {
                    oram.set_code_plan(*addr, &analysis.reachable_pages);
                }
            }
            Some(CodePlans::Dense(pages)) => {
                for (addr, count) in pages {
                    oram.schedule_prefetch(*addr, *count);
                }
            }
            None => {}
        }
    }
}

/// What kind of work a prepared task carries.
// Variant sizes differ for the same reason as `PreExecOutcome`: the
// pause embeds the full checkpoint and the value is transient.
#[allow(clippy::large_enum_variant)]
enum TaskKind {
    /// A bundle entering the service: channel delivery and admission
    /// already ran at prepare; signature work and execution remain.
    Fresh {
        /// The canonical bundle encoding (what the user signs).
        payload: Vec<u8>,
        /// The user's signing key, cloned so the (host-expensive)
        /// bundle signature can be computed by whoever executes.
        user_key: SecretKey,
        /// Its public half, which the device verifies against.
        user_public: PublicKey,
        /// Secret-dependency lint findings for the signed report.
        lints: Vec<(Address, LintFinding)>,
        /// Prefetch plans (`None` without an ORAM).
        plans: Option<PrefetchPlans>,
        /// Fully resolved engine config, including the per-dispatch
        /// layer-3 key/noise draws made at prepare in dispatch order.
        hevm_config: HevmConfig,
    },
    /// A preempted bundle resuming from its checkpoint.
    Resume(BundlePause),
}

/// One prepared bundle segment, produced by [`HarDTape::prepare_task`]
/// in dispatch order. The bundle itself stays with the caller and is
/// passed by reference to execute and commit.
pub(crate) struct PreparedTask {
    /// Shared-clock time the bundle entered the service (prepare time
    /// for fresh bundles, the original admission for resumed ones).
    started: Nanos,
    /// The device's session signing key for the trace.
    device_key: SecretKey,
    kind: TaskKind,
}

/// How one executed task ended (before commit-time accounting).
// Variant sizes differ for the same reason as `PreExecOutcome`: the
// pause embeds the full checkpoint and the value is transient.
#[allow(clippy::large_enum_variant)]
enum TaskResult {
    /// The bundle retired; the trace is signed and ready to seal.
    Done {
        report: BundleReport,
        /// The canonical trace encoding the signature covers (timing
        /// fields excluded, so sealing at commit signs the same bytes).
        trace: Vec<u8>,
    },
    /// The gas slice ran out; the pause re-queues at commit.
    Preempted(BundlePause),
    /// The segment failed (bundle-signature check, HEVM abort classes,
    /// ORAM integrity).
    Failed(ServiceError),
}

/// A task a pool worker already executed off the shared timeline:
/// everything `commit_task` needs to splice it in.
pub(crate) struct FinishedTask {
    started: Nanos,
    /// Virtual time the task consumed on its private clock.
    duration: Nanos,
    /// Task-private telemetry, replayed (rebased) at commit.
    buffer: TaskBuffer,
    outcome: TaskResult,
}

/// Where a prepared task's execution happens relative to its commit.
pub(crate) enum Execution {
    /// Inside commit, on the shared clock, straight into `Telemetry`:
    /// the only choice when executing mutates shared state, and what
    /// [`HarDTape::pre_execute_preemptible`] always does.
    Inline(PreparedTask),
    /// Ahead of commit, on a pool worker ([`execute_detached`]).
    Pooled(FinishedTask),
}

impl HarDTape {
    /// Whether executing a bundle leaves every piece of state other
    /// bundles share untouched, so tasks may run ahead of their commit
    /// on the worker pool: no ORAM (its tree and the shared clock move
    /// with every query), and no armed `PageStore`/`OramServer` fault
    /// budget (an armed site draws from the shared fault RNG
    /// mid-execution). The budget drains during a run, so this can
    /// turn true while a gateway is serving.
    pub(crate) fn pooled_eligible(&self) -> bool {
        self.oram.is_none()
            && self.faults.as_ref().is_none_or(|plan| {
                plan.remaining_budget(FaultSite::PageStore) == 0
                    && plan.remaining_budget(FaultSite::OramServer) == 0
            })
    }

    /// The execution context tasks read (see [`ExecCtx`]).
    pub(crate) fn exec_ctx(&self) -> ExecCtx<'_> {
        ExecCtx {
            security: self.config.security,
            env: &self.env,
            cost: &self.cost,
            local: &self.local,
        }
    }

    /// Step 1 of a bundle segment: everything that must stay on the
    /// shared clock and shared mutable state, in dispatch order —
    /// revocation, channel delivery (sequence numbers + fault draws),
    /// the `Receive` phase, static admission, lint and prefetch-plan
    /// construction, and the per-dispatch RNG draws for the engine
    /// config.
    ///
    /// # Errors
    ///
    /// The pre-execution surface of [`Self::pre_execute_preemptible`]
    /// up to core assignment: revoked sessions, channel attacks,
    /// analysis rejections. A prepare error terminates the bundle
    /// without a task.
    pub(crate) fn prepare_task(
        &mut self,
        user: &mut UserHandle,
        bundle: &Bundle,
        resume: Option<BundlePause>,
    ) -> Result<PreparedTask, ServiceError> {
        if self.revoked.contains(&user.session) {
            return Err(ServiceError::ReattestationRequired);
        }
        if let Some(pause) = resume {
            // A checkpoint belongs to the session that was attested when
            // it was taken; under any other (a tenant re-attested while
            // its paused bundle sat queued) it is dropped, not resumed.
            if pause.session != user.session {
                return Err(ServiceError::ReattestationRequired);
            }
            return Ok(PreparedTask {
                started: pause.started,
                device_key: user.device_key.clone(),
                kind: TaskKind::Resume(pause),
            });
        }
        let security = self.config.security;
        let started = self.clock.now();
        let payload = bundle.encode();
        // User → device over the untrusted wire: an armed fault plan
        // may tamper, drop, or replay the sealed message in transit.
        if security.encryption() {
            let opened = self.deliver_to_device(user, &payload)?;
            debug_assert_eq!(opened, payload);
        }
        self.record_phase(PhaseKind::Receive, started);
        // Static admission: refuse bundles whose callees cannot fit the
        // hardware stack capacities before a core is even assigned.
        self.admission_check(bundle)?;

        // Static pass over the bundle's top-level callees (§IV-D): the
        // decode phase already knows every `to` address.
        let mut callees: Vec<(Address, Arc<CodeAnalysis>)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for tx in &bundle.transactions {
            let Some(to) = tx.to else { continue };
            if seen.insert(to) {
                if let Some(analysis) = self.analyze_code(&to) {
                    callees.push((to, analysis));
                }
            }
        }
        // Secret-dependency lints, surfaced per bundle in the signed
        // report (sorted for a deterministic encoding).
        let mut lints: Vec<(Address, LintFinding)> = Vec::new();
        for (addr, analysis) in &callees {
            lints.extend(analysis.lints.iter().map(|l| (*addr, *l)));
        }
        lints.sort_unstable();
        self.telemetry.count(CounterId::LintFindings, lints.len() as u64);
        let plans = if self.oram.is_some() {
            Some(self.prefetch_plans(bundle, callees, &seen))
        } else {
            None
        };

        let mut hevm_config = self.config.hevm.clone();
        // Whatever the ORAM serves charges the clock itself; whatever
        // stays local is charged by the HEVM at local-fetch cost. Under
        // -ESO that split differs per query class: K-V via ORAM, code
        // local.
        hevm_config.charge_local_fetch = !security.oram_storage();
        hevm_config.charge_local_code = !security.oram_code();
        // Fresh session-local layer-3 sealing key and noise seed (paper
        // §IV-C: session keys differ per session), drawn from the
        // device RNG in dispatch order so the values are independent of
        // where the task executes.
        let mut layer3_key = [0u8; 16];
        self.rng.fill_bytes(&mut layer3_key);
        hevm_config.layer3_key = layer3_key;
        hevm_config.layer3_noise_seed = self.rng.next_u64();
        hevm_config.faults = self.faults.clone();
        if self.config.ablation == Some(Ablation::UncoveredCheckpoint) {
            hevm_config.checkpoint_cover = false;
        }
        Ok(PreparedTask {
            started,
            device_key: user.device_key.clone(),
            kind: TaskKind::Fresh {
                payload,
                user_key: user.user_key.clone(),
                user_public: user.user_public,
                lints,
                plans,
                hevm_config,
            },
        })
    }

    /// Turns the analyzer's page-reachability and state-access sets
    /// into the bundle's prefetch plans: only pages some execution path
    /// can actually touch are prefetched, and the same sets are what
    /// the telemetry auditor holds the observed code and kv traffic to.
    /// `seen` is the set of top-level callee addresses behind `callees`.
    fn prefetch_plans(
        &mut self,
        bundle: &Bundle,
        callees: Vec<(Address, Arc<CodeAnalysis>)>,
        seen: &std::collections::BTreeSet<Address>,
    ) -> PrefetchPlans {
        let oram_code = self.config.security.oram_code();
        // A callee with dynamic call targets (or foreign-code reads) can
        // reach any code-bearing account, so precise plans must cover
        // the whole mirror or the auditor would flag honest inner-call
        // fetches. Collect those extra analyses up front (full-page
        // plans where the analysis itself reads code dynamically).
        let plan_everything = callees
            .iter()
            .any(|(_, a)| a.dynamic_calls || a.reads_foreign_code);
        let mut extra: Vec<(Address, Arc<CodeAnalysis>)> = Vec::new();
        if plan_everything && oram_code {
            let mut others: Vec<Address> = self
                .local
                .iter()
                .filter(|(a, acc)| !acc.code.is_empty() && !seen.contains(*a))
                .map(|(a, _)| *a)
                .collect();
            // The mirror is a HashMap: sort so plan advertisement order
            // (and with it the telemetry digest) is process-independent.
            others.sort_unstable();
            for addr in others {
                if let Some(analysis) = self.analyze_code(&addr) {
                    extra.push((addr, analysis));
                }
            }
        }

        // World-state plans (value-set analysis): full plans for every
        // analyzed contract the bundle can enter — the top-level
        // callees, their constant inner-call targets, and the
        // mirror-wide extra analyses — plus meta-only plans for records
        // the bundle reads outside any plan.
        let mut state: Vec<(Address, Vec<U256>, bool)> = Vec::new();
        let mut meta_only = std::collections::BTreeSet::new();
        let mut planned = std::collections::BTreeSet::new();
        let mut inner_targets: Vec<Address> = Vec::new();
        for (addr, analysis) in callees.iter().chain(extra.iter()) {
            if planned.insert(*addr) {
                state.push((
                    *addr,
                    analysis.state_plan.slots.iter().copied().collect(),
                    analysis.state_plan.dynamic,
                ));
            }
            meta_only.extend(analysis.state_plan.accounts.iter().copied());
            inner_targets.extend(analysis.call_targets.iter().copied());
        }
        // Constant inner-call targets execute their own storage
        // accesses under their own address: give code-bearing ones a
        // full plan too, so honest inner-call kv traffic is covered
        // rather than merely exempted.
        for target in inner_targets {
            if planned.contains(&target) {
                continue;
            }
            if let Some(analysis) = self.analyze_code(&target) {
                planned.insert(target);
                state.push((
                    target,
                    analysis.state_plan.slots.iter().copied().collect(),
                    analysis.state_plan.dynamic,
                ));
            } else {
                meta_only.insert(target);
            }
        }
        for tx in &bundle.transactions {
            meta_only.insert(tx.from);
            if let Some(to) = tx.to {
                meta_only.insert(to);
            }
        }
        meta_only.retain(|a| !planned.contains(a));

        let code = if !oram_code {
            None
        } else if self.config.ablation == Some(Ablation::Starve) {
            use tape_state::StateReader as _;
            let page_size = self.config.hevm.mem.page_size;
            Some(CodePlans::Dense(
                callees
                    .iter()
                    .filter_map(|(addr, _)| {
                        let code_len = self.local.account(addr).map_or(0, |i| i.code_len);
                        (code_len > 0).then(|| (*addr, code_len.div_ceil(page_size) as u32))
                    })
                    .collect(),
            ))
        } else {
            Some(CodePlans::Planned { callees, extra })
        };
        PrefetchPlans { state, meta_only, code }
    }

    /// Step 3 of a bundle segment: exclusive core assignment, the
    /// execution landing on the shared timeline (run now, or a worker's
    /// buffer replayed and the clock advanced by its duration), core
    /// accounting, session revocation, and the seal phase.
    ///
    /// # Errors
    ///
    /// The post-prepare surface of [`Self::pre_execute_preemptible`]:
    /// busy/quarantined cores, HEVM aborts and ORAM integrity failures
    /// from the execution, seal-channel failures.
    pub(crate) fn commit_task(
        &mut self,
        user: &mut UserHandle,
        bundle: &Bundle,
        execution: Execution,
    ) -> Result<PreExecOutcome, ServiceError> {
        // Exclusive HEVM assignment, per segment (a paused bundle holds
        // no core) and one at a time. A task refused a core leaves
        // nothing on the shared timeline: an inline one never runs, a
        // pooled one is dropped with its buffer, the clock untouched.
        let slot = self.hypervisor.assign(user.session).map_err(|e| match e {
            SlotError::AllQuarantined => ServiceError::AllCoresQuarantined,
            _ => ServiceError::Busy,
        })?;
        let (started, outcome) = match execution {
            Execution::Inline(task) => {
                let started = task.started;
                let mut sink = self.telemetry.clone();
                let outcome = execute_task(
                    &self.exec_ctx(),
                    bundle,
                    task,
                    &self.clock,
                    &mut sink,
                    self.oram.as_ref(),
                );
                (started, outcome)
            }
            Execution::Pooled(FinishedTask { started, duration, buffer, outcome }) => {
                buffer.replay_into(&self.telemetry, self.clock.now());
                self.clock.advance(duration);
                (started, outcome)
            }
        };
        // Hardware-level failures (layer-3 integrity violations, watchdog
        // trips) count against the core; three in a row quarantine it —
        // a quarantined core is pulled from rotation instead of released.
        // A preemption is a success: the core did its slice and returns
        // to the pool.
        let core_failure = matches!(
            &outcome,
            TaskResult::Failed(ServiceError::Hevm(
                HevmAbort::Layer3Tampered | HevmAbort::Watchdog { .. }
            ))
        );
        if core_failure {
            if !self.hypervisor.record_failure(slot) {
                self.hypervisor
                    .release(slot, user.session)
                    .expect("slot was assigned above");
            }
        } else {
            self.hypervisor.record_success(slot);
            self.hypervisor
                .release(slot, user.session)
                .expect("slot was assigned above");
        }
        // Integrity failures revoke the session: the bundle is aborted
        // and the user must re-attest before submitting another one.
        if matches!(
            &outcome,
            TaskResult::Failed(
                ServiceError::Oram(_) | ServiceError::Hevm(HevmAbort::Layer3Tampered)
            )
        ) {
            self.revoked.insert(user.session);
        }
        match outcome {
            TaskResult::Failed(err) => Err(err),
            TaskResult::Preempted(mut pause) => {
                pause.started = started;
                pause.session = user.session;
                Ok(PreExecOutcome::Preempted(pause))
            }
            TaskResult::Done { mut report, trace } => {
                // Device → user: seal the signed trace.
                let seal_started = self.clock.now();
                if self.config.security.encryption() {
                    let sealed = user.device_tx.seal(&trace);
                    self.clock
                        .advance(self.cost.protected_message_ns(sealed.sealed.len()));
                    let opened =
                        user.from_device.open(&sealed).map_err(ServiceError::Channel)?;
                    debug_assert_eq!(opened, trace);
                }
                self.record_phase(PhaseKind::Seal, seal_started);
                report.total_ns = self.clock.now() - started;
                self.telemetry.count(CounterId::Bundles, 1);
                self.telemetry
                    .count(CounterId::Transactions, report.results.len() as u64);
                self.telemetry.observe(HistId::BundleLatencyNs, report.total_ns);
                Ok(PreExecOutcome::Done(report))
            }
        }
    }
}

/// Executes a prepared task ahead of its commit, off the shared
/// timeline: a private clock starting at zero, a private telemetry
/// buffer, no ORAM. What pool workers run — byte-identical results for
/// any worker count.
pub(crate) fn execute_detached(
    ctx: &ExecCtx<'_>,
    bundle: &Bundle,
    task: PreparedTask,
) -> FinishedTask {
    let started = task.started;
    let clock = Clock::new();
    let mut buffer = TaskBuffer::new();
    let outcome = execute_task(ctx, bundle, task, &clock, &mut buffer, None);
    FinishedTask { started, duration: clock.now(), buffer, outcome }
}

/// Records one completed phase (duration since `started`) into `sink`.
fn record_phase_into<S: Sink>(sink: &mut S, clock: &Clock, phase: PhaseKind, started: Nanos) {
    let at = clock.now();
    sink.record(TelemetryEvent::Phase { at, phase, ns: at - started });
}

/// Step 2 of a bundle segment: runs one prepared task to its segment
/// boundary (or completion) against the given clock, telemetry sink
/// and ORAM — the `Decode` phase for a fresh bundle (the user signature
/// is made here, not at prepare: it costs no virtual time and keeps the
/// host-expensive ECDSA wherever execution is), the `Execute` window,
/// and on completion the report, trace encoding and device signature
/// (`Sign` phase). Sealing needs the sequential channel state and
/// happens at commit.
fn execute_task<S: Sink>(
    ctx: &ExecCtx<'_>,
    bundle: &Bundle,
    task: PreparedTask,
    clock: &Clock,
    sink: &mut S,
    oram: Option<&ObliviousState>,
) -> TaskResult {
    let execute_started;
    let resumed = matches!(task.kind, TaskKind::Resume(_));
    // Both arms put an engine on the core and start its first slice.
    let (hevm, first, hevm_config, results, per_tx, tx_index, tx_elapsed, before, lints) =
        match task.kind {
            TaskKind::Fresh { payload, user_key, user_public, lints, plans, hevm_config } => {
                let signature =
                    ctx.security.signature().then(|| sign_bundle(&user_key, &payload));
                let decode_started = clock.now();
                if let Some(sig) = &signature {
                    // Device verifies the user's bundle signature on the A53.
                    clock.advance(ctx.cost.ecdsa_verify_ns);
                    if let Err(err) = verify_bundle(&user_public, &payload, sig) {
                        return TaskResult::Failed(ServiceError::Channel(err));
                    }
                }
                record_phase_into(sink, clock, PhaseKind::Decode, decode_started);

                execute_started = clock.now();
                if let (Some(oram), Some(plans)) = (oram, &plans) {
                    plans.apply(oram);
                }
                let reader = HybridState::new(ctx.security, ctx.local, oram);
                let mut hevm =
                    Hevm::new(hevm_config.clone(), ctx.env.clone(), reader, clock.clone());
                // The first dispatch of a bundle onto a core pays the same
                // scheduler context-switch as every re-dispatch: charged
                // inside the segment window (but outside per-transaction
                // time), so a bundle suspended S−1 times carries exactly
                // 2S−1 dispatch charges — S dispatches plus S−1 parks.
                clock.advance(ctx.cost.sched_dispatch_ns);
                let before = clock.now();
                let first = bundle.transactions.first().map(|tx| hevm.transact_sliced(tx));
                let results = Vec::with_capacity(bundle.transactions.len());
                let per_tx = Vec::with_capacity(bundle.transactions.len());
                (hevm, first, hevm_config, results, per_tx, 0, 0, before, lints)
            }
            TaskKind::Resume(pause) => {
                execute_started = clock.now();
                // Re-dispatching a suspended context is not free: the
                // Hypervisor's scheduler restores the parked HEVM state
                // before the first cycle of the new slice executes. Charged
                // inside the segment window so preemption's overhead shows
                // up in SliceNs and every latency built on it.
                clock.advance(ctx.cost.sched_dispatch_ns);
                let BundlePause {
                    checkpoint,
                    hevm_config,
                    results,
                    per_tx,
                    tx_index,
                    tx_elapsed,
                    lints,
                    ..
                } = pause;
                // The reader detached at suspension was just a view of the
                // device state; rebuild it fresh (the world may even have
                // advanced a block — pre-execution reads whatever the
                // device's current head serves, exactly like a bundle that
                // was still queued).
                let reader = HybridState::new(ctx.security, ctx.local, oram);
                let mut hevm = Hevm::resume(
                    hevm_config.clone(),
                    ctx.env.clone(),
                    reader,
                    clock.clone(),
                    checkpoint,
                );
                let before = clock.now();
                let first = Some(hevm.continue_transact());
                (hevm, first, hevm_config, results, per_tx, tx_index, tx_elapsed, before, lints)
            }
        };
    let segment = drive_segment_with(
        bundle,
        hevm,
        first,
        hevm_config,
        results,
        per_tx,
        tx_index,
        tx_elapsed,
        before,
        lints,
        execute_started,
        resumed,
        clock,
        ctx.cost,
        oram,
        sink,
    );
    record_phase_into(sink, clock, PhaseKind::Execute, execute_started);
    sink.observe(HistId::ExecuteNs, clock.now() - execute_started);
    if let Some(oram) = oram {
        // Segment/bundle end: on-chip caches cleared (before the trace
        // is signed) so the core can serve another tenant.
        oram.clear_cache();
    }
    let (results, changes, per_tx_ns, hevm_stats, lints) = match segment {
        Err(err) => return TaskResult::Failed(err),
        Ok(SegmentOutcome::Yielded(pause)) => return TaskResult::Preempted(pause),
        Ok(SegmentOutcome::Finished(results, changes, per_tx, stats, lints)) => {
            (results, changes, per_tx, stats, lints)
        }
    };
    let mut report = BundleReport {
        results,
        changes,
        per_tx_ns,
        total_ns: 0,
        signature: None,
        hevm_stats,
        staleness: None,
        lints,
    };
    let trace = report.encode();
    let sign_started = clock.now();
    if ctx.security.signature() {
        clock.advance(ctx.cost.ecdsa_sign_ns);
        // The device signs the trace with its attested session key;
        // the user verifies against the quote's session public key.
        report.signature = Some(sign_bundle(&task.device_key, &trace));
    }
    record_phase_into(sink, clock, PhaseKind::Sign, sign_started);
    TaskResult::Done { report, trace }
}

/// Drives an engine (fresh or resumed) until the slice yields or the
/// bundle retires, flushing swap traffic and segment telemetry into
/// `sink`.
#[allow(clippy::too_many_arguments)]
fn drive_segment_with<S: Sink>(
    bundle: &Bundle,
    mut hevm: Hevm<HybridState<'_>>,
    first: Option<Result<SliceOutcome, HevmAbort>>,
    hevm_config: HevmConfig,
    mut results: Vec<TxResult>,
    mut per_tx: Vec<Nanos>,
    mut tx_index: usize,
    mut tx_elapsed: Nanos,
    mut before: Nanos,
    lints: Vec<(Address, LintFinding)>,
    segment_started: Nanos,
    resumed: bool,
    clock: &Clock,
    cost: &CostModel,
    oram: Option<&ObliviousState>,
    sink: &mut S,
) -> Result<SegmentOutcome, ServiceError> {
    let mut outcome = first;
    while let Some(current) = outcome.take() {
        // The StateReader interface cannot propagate ORAM failures,
        // so the pagestore parks the first one; collect it here. An
        // ORAM integrity violation is the root cause of whatever the
        // HEVM observed, so it outranks any secondary abort.
        if let Some(oram) = oram {
            if let Some(err) = oram.take_fault() {
                return Err(ServiceError::Oram(err));
            }
        }
        match current? {
            SliceOutcome::Done(result) => {
                per_tx.push(tx_elapsed + (clock.now() - before));
                tx_elapsed = 0;
                results.push(result);
                tx_index += 1;
                if tx_index == bundle.transactions.len() {
                    break;
                }
                before = clock.now();
                outcome = Some(hevm.transact_sliced(&bundle.transactions[tx_index]));
            }
            SliceOutcome::Preempted { segment } => {
                tx_elapsed += clock.now() - before;
                // Parking the context costs scheduler time on top of
                // the cover swaps; charge it to the segment (not the
                // transaction) so suspension is never free.
                clock.advance(cost.sched_dispatch_ns);
                let (_reader, mut checkpoint) = hevm.suspend();
                let yield_at = checkpoint.yield_at();
                let frames = checkpoint.suspended_frames();
                let swaps = checkpoint.take_swap_log();
                // Ordinary execution spills happened before the
                // yield; the suspension's cover swaps after it. The
                // segment window brackets exactly the cover traffic,
                // which is what the §IV-D segment lens audits.
                for swap in swaps.iter().filter(|s| s.at <= yield_at) {
                    record_swap_into(sink, swap);
                }
                sink.record(TelemetryEvent::SegmentYield {
                    at: yield_at,
                    segment,
                    frames,
                });
                let mut cover = 0u32;
                for swap in swaps.iter().filter(|s| s.at > yield_at) {
                    record_swap_into(sink, swap);
                    cover += u32::from(swap.pages_out > 0);
                }
                sink.record(TelemetryEvent::SegmentEnd {
                    at: clock.now(),
                    swaps: cover,
                });
                sink.count(CounterId::Segments, 1);
                sink.count(CounterId::Preemptions, 1);
                sink.observe(HistId::SliceNs, clock.now() - segment_started);
                return Ok(SegmentOutcome::Yielded(BundlePause {
                    checkpoint,
                    hevm_config,
                    results,
                    per_tx,
                    tx_index,
                    tx_elapsed,
                    lints,
                    started: 0,
                    session: 0,
                }));
            }
        }
    }
    let changes = hevm.state().changes();
    let stats = hevm.stats();
    // Swap traffic + occupancy into telemetry while the engine is
    // still alive (the swap log dies with it).
    for swap in hevm.swap_log() {
        record_swap_into(sink, swap);
    }
    if resumed {
        // The closing segment of a bundle that was preempted at
        // least once.
        sink.count(CounterId::Segments, 1);
        sink.observe(HistId::SliceNs, clock.now() - segment_started);
    }
    sink.gauge(GaugeId::L2PeakPages, stats.peak_l2_pages as u64);
    sink.gauge(GaugeId::CallDepth, stats.max_depth as u64);
    if let Some(pf) = oram.and_then(|o| o.prefetch_stats()) {
        sink.gauge(GaugeId::PrefetchGapEmaNs, pf.avg_gap_ns);
    }
    Ok(SegmentOutcome::Finished(results, changes, per_tx, stats, lints))
}

/// One layer-3 swap event into counters and the event stream.
fn record_swap_into<S: Sink>(sink: &mut S, swap: &tape_hevm::SwapEvent) {
    let out = swap.pages_out > 0;
    let (observed, true_pages) = if out {
        (swap.pages_out, swap.true_pages_out)
    } else {
        (swap.pages_in, swap.true_pages_in)
    };
    sink.count(
        if out { CounterId::SwapOuts } else { CounterId::SwapIns },
        1,
    );
    sink.count(CounterId::SwapTruePages, true_pages as u64);
    sink.count(CounterId::SwapNoisePages, observed.saturating_sub(true_pages) as u64);
    sink.record(TelemetryEvent::Swap {
        at: swap.at,
        out,
        true_pages: true_pages as u32,
        observed_pages: observed as u32,
    });
}
