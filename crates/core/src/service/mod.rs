//! The pre-execution service: the full lifecycle of paper Fig. 3 —
//! boot, attestation, secure channel, bundle execution on a dedicated
//! HEVM, trace signing, release, and block synchronization.

mod segment;
mod session;
mod sync;

pub use segment::BundlePause;
pub(crate) use segment::{execute_detached, ExecCtx, Execution, FinishedTask, PreparedTask};
pub use session::UserHandle;

use crate::config::SecurityConfig;
use std::sync::Arc;
use tape_analysis::{AnalysisReject, CodeAnalysis, Limits, LintFinding, PrecisionSummary};
use tape_crypto::{SecureRng, Signature};
use tape_evm::{Env, Transaction, TxResult};
use tape_hevm::{HevmAbort, HevmConfig, HevmStats};
use tape_oram::{
    DiskStore, DiskStoreConfig, ObliviousState, OramClient, OramConfig, OramError, OramServer,
    RecoveryReport,
};
use tape_primitives::{rlp, Address, B256};
use tape_sim::fault::{Ablation, FaultPlan};
use tape_sim::telemetry::Telemetry;
use tape_sim::{Clock, CostModel, Nanos};
use tape_state::{InMemoryState, StateChanges, UndoRing};
use tape_tee::attestation::{Attester, Manufacturer, Verifier};
use tape_tee::hypervisor::Hypervisor;

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
    /// `height` is on a different branch, or the head skips blocks the
    /// device has not applied. [`HarDTape::sync_block`] refuses it
    /// outright; [`HarDTape::sync_from_feeds`] resolves it via
    /// fork-choice, gap download, rollback, and replay.
    ReorgDetected {
        /// The head the device expected the new block to build on.
        expected: B256,
        /// The conflicting hash actually served (the block itself at or
        /// below the device's height, or its parent otherwise).
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
    /// Recently applied `(height, hash)` heads, ascending — the window a
    /// reorg's fork point is searched in. The last entry is the head
    /// (empty until the first sync). Bounded by the undo window plus
    /// one.
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
                // A warm restart adopts the sync table sealed with the
                // client, so the next block diffs against the recovered
                // tree rather than against nothing.
                state.make_durable().map_err(ServiceError::Oram)?;
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
        let undo = UndoRing::new(sync::UNDO_WINDOW);
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

    /// Arms a deterministic fault plan across the device's untrusted
    /// boundaries: the ORAM server starts misbehaving per the plan, the
    /// secure channel starts suffering injected replay/drop/tamper, and
    /// every HEVM's layer-3 page store turns adversarial. (The node feed
    /// is armed separately via [`tape_node::BlockFeed::arm_faults`] — it lives
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
        let mut resume = None;
        loop {
            match self.pre_execute_preemptible(user, bundle, resume)? {
                PreExecOutcome::Done(report) => return Ok(report),
                PreExecOutcome::Preempted(pause) => resume = Some(pause),
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

    /// The most recently synchronized block hash.
    pub fn head(&self) -> Option<B256> {
        self.recent_heads.last().map(|&(_, hash)| hash)
    }

    /// The most recently synchronized block height.
    pub fn head_height(&self) -> Option<u64> {
        self.recent_heads.last().map(|&(height, _)| height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_sim::fault::{FaultKind, FaultSite};

    /// A device without an ORAM never draws from `OramServer`, so a
    /// budget armed there must not pin it to the inline path: the
    /// budget would never drain.
    #[test]
    fn es_device_armed_only_at_the_oram_server_is_pool_eligible() {
        let config = ServiceConfig::at_level(SecurityConfig::Es);
        let genesis = InMemoryState::new();
        let mut device = HarDTape::new(config, Env::default(), &genesis).expect("device boots");
        assert!(device.pooled_eligible(), "an unarmed -ES device pools");
        let plan = FaultPlan::new(7, device.clock());
        plan.arm(FaultSite::OramServer, &[FaultKind::BitFlip], 1, 4);
        device.arm_faults(plan.clone());
        assert!(device.pooled_eligible(), "an OramServer budget leaves -ES pool-eligible");
        plan.arm(FaultSite::PageStore, &[FaultKind::BitFlip], 1, 4);
        assert!(!device.pooled_eligible(), "an armed PageStore budget still pins inline");
    }
}
