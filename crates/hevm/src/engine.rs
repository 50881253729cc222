//! The HEVM engine: a second, independently organized EVM implementation
//! that executes bytecode directly over the 3-layer memory hierarchy
//! with a cycle-level timing model (paper §IV-B).
//!
//! Semantics are required to match `tape-evm` (the reference / "Geth")
//! bit-for-bit — §VI-B's correctness experiment diffs structured traces
//! between the two engines. Shared pieces are exactly what real hardware
//! would share with a software client: the ISA tables (`tape_evm::opcode`),
//! the consensus gas rules (`tape_evm::gas`), and 256-bit arithmetic
//! (`tape-primitives`). Dispatch, frame management, memory modeling, and
//! the call stack are implemented here from scratch — iteratively, on an
//! explicit frame vector that *is* the layer-2 call stack.

use crate::layers::{Layer3Pager, SwapEvent, SwappedFrame};
use crate::memlike::{copy_padded, MemLike};
use crate::run::{self, Run, Runs};
use std::sync::Arc;
use tape_crypto::SecureRng;
use tape_evm::gas::{self, Gas};
use tape_evm::opcode::{self, op};
use tape_evm::precompile;
use tape_evm::{
    create2_address, create_address, Env, FrameEnd, FrameStart, Inspector, NoopInspector, Stack,
    StateAccess, StepInfo, Transaction, TxError, TxResult, VmError, Words, STACK_LIMIT,
};
use tape_primitives::{Address, B256, U256};
use tape_sim::resources::MemoryConfig;
use tape_sim::{Clock, CostModel, Nanos};
use tape_state::{
    Checkpoint as JournalMark, Code, JournalSuspend, JournaledState, Log, StateReader,
};

/// HEVM configuration: memory partitioning and unit costs.
#[derive(Debug, Clone)]
pub struct HevmConfig {
    /// Layer-1/2 memory geometry (paper §IV-B defaults).
    pub mem: MemoryConfig,
    /// Calibrated unit costs.
    pub cost: CostModel,
    /// Charge `local_state_fetch_ns` for cold K-V state accesses
    /// (accounts, storage). Enabled when those queries are served from
    /// prefetched untrusted memory; ORAM-backed readers charge the clock
    /// themselves.
    pub charge_local_fetch: bool,
    /// Charge `local_state_fetch_ns` per code fetch served locally.
    /// Under `-ESO` the K-V queries go through the ORAM (which charges
    /// itself) while code stays local — this flag keeps code fetches
    /// accounted in that split configuration.
    pub charge_local_code: bool,
    /// AES-GCM key sealing layer-3 spills. Per the paper this is a
    /// session key; the service derives a fresh one per device from its
    /// secure RNG. The default is only for standalone/test use.
    pub layer3_key: [u8; 16],
    /// Seed for the pager's pre-evict/pre-load noise RNG.
    pub layer3_noise_seed: u64,
    /// Per-transaction virtual-time watchdog: if a single `transact`
    /// burns more than this many virtual nanoseconds, execution aborts
    /// with [`HevmAbort::Watchdog`] instead of spinning until the gas
    /// limit. `None` disables the watchdog.
    pub watchdog_ns: Option<tape_sim::Nanos>,
    /// Adversarial fault plan armed on the layer-3 page store
    /// (`FaultSite::PageStore`); `None` leaves the store honest.
    pub faults: Option<tape_sim::fault::FaultPlan>,
    /// Gas-slice budget for segmented execution: when set, a transaction
    /// driven through [`Hevm::transact_sliced`] yields
    /// ([`SliceOutcome::Preempted`]) after roughly this much gas has
    /// been executed in the current segment, instead of running to
    /// completion. `None` (the default) disables slicing entirely —
    /// [`Hevm::transact`] behaves exactly as before.
    pub gas_slice: Option<u64>,
    /// Checkpoint cover traffic: when `true` (default), a suspension
    /// seals every still-resident frame out through the layer-3 pager,
    /// so the segment boundary is observable only as ordinary noised
    /// swap traffic (§IV-D). `false` is the leakage auditor's negative
    /// control — frames are captured in-enclave, producing *no* swap
    /// events, which the segment-boundary audit lens must flag.
    pub checkpoint_cover: bool,
}

impl Default for HevmConfig {
    fn default() -> Self {
        HevmConfig {
            mem: MemoryConfig::default(),
            cost: CostModel::default(),
            charge_local_fetch: true,
            charge_local_code: true,
            layer3_key: [0x4C; 16],
            layer3_noise_seed: 0x4C4C,
            watchdog_ns: None,
            faults: None,
            gas_slice: None,
            checkpoint_cover: true,
        }
    }
}

/// A bundle-terminating failure (distinct from per-transaction reverts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HevmAbort {
    /// Transaction-level validation failed.
    Tx(TxError),
    /// One execution frame exceeded half the layer-2 capacity — treated
    /// as an attack and stopped (paper §IV-B).
    MemoryOverflow {
        /// Pages the offending frame wanted.
        frame_pages: usize,
        /// The configured limit in pages.
        limit_pages: usize,
    },
    /// Layer-3 contents failed authentication on reload (attack A4).
    Layer3Tampered,
    /// The per-transaction virtual-time watchdog fired: execution burned
    /// more than the configured budget without completing.
    Watchdog {
        /// The configured budget in virtual nanoseconds.
        budget_ns: tape_sim::Nanos,
    },
}

impl From<TxError> for HevmAbort {
    fn from(e: TxError) -> Self {
        HevmAbort::Tx(e)
    }
}

impl core::fmt::Display for HevmAbort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HevmAbort::Tx(e) => write!(f, "transaction rejected: {e}"),
            HevmAbort::MemoryOverflow { frame_pages, limit_pages } => {
                write!(f, "Memory Overflow Error: frame needs {frame_pages} pages, limit {limit_pages}")
            }
            HevmAbort::Layer3Tampered => write!(f, "layer-3 memory failed authentication"),
            HevmAbort::Watchdog { budget_ns } => {
                write!(f, "watchdog fired: execution exceeded {budget_ns} virtual ns")
            }
        }
    }
}

impl std::error::Error for HevmAbort {}

/// Immutable (on-chip) frame metadata: base offsets and identities the
/// pager never exposes to untrusted memory.
#[derive(Clone)]
struct FrameMeta {
    code: Arc<Code>,
    address: Address,
    caller: Address,
    value: U256,
    gas: Gas,
    is_static: bool,
    depth: usize,
    /// `Some(created)` for initcode frames.
    create: Option<Address>,
    checkpoint: JournalMark,
    refund_snapshot: i64,
    /// How the parent consumes this frame's result (set on the *parent*).
    resume: Option<Resume>,
}

/// Mutable frame data: everything that pages in/out of layer 2/3.
struct FrameData {
    pc: usize,
    stack: Stack,
    input: MemLike,
    memory: MemLike,
    ret: MemLike,
}

impl FrameData {
    /// Byte lengths of the three growable memory-likes: the frame's
    /// layer-2 footprint can only have moved if one of these did.
    fn lens(&self) -> (usize, usize, usize) {
        (self.input.len(), self.memory.len(), self.ret.len())
    }

    fn l1_misses(&self) -> u64 {
        self.input.l1_misses() + self.memory.l1_misses() + self.ret.l1_misses()
    }

    fn serialize(&self) -> Vec<u8> {
        let words = self.stack.as_slice();
        let (input, memory, ret) = self.lens();
        let payload = input + memory + ret;
        let mut out = Vec::with_capacity(5 * 8 + 32 * words.len() + payload);
        out.extend_from_slice(&(self.pc as u64).to_be_bytes());
        out.extend_from_slice(&(words.len() as u64).to_be_bytes());
        for word in words {
            out.extend_from_slice(&word.to_be_bytes());
        }
        for mem in [&self.input, &self.memory, &self.ret] {
            out.extend_from_slice(&(mem.len() as u64).to_be_bytes());
            out.extend_from_slice(mem.as_bytes());
        }
        out
    }

    fn deserialize(bytes: &[u8], mem_config: &MemoryConfig) -> Option<FrameData> {
        let mut cursor = 0usize;
        let read_u64 = |buf: &[u8], cursor: &mut usize| -> Option<u64> {
            let v = u64::from_be_bytes(buf.get(*cursor..*cursor + 8)?.try_into().ok()?);
            *cursor += 8;
            Some(v)
        };
        let pc = read_u64(bytes, &mut cursor)? as usize;
        let stack_len = read_u64(bytes, &mut cursor)? as usize;
        let mut stack = Stack::new();
        for _ in 0..stack_len {
            let word = U256::from_be_slice(bytes.get(cursor..cursor + 32)?);
            cursor += 32;
            stack.push(word).ok()?;
        }
        let mut mems = Vec::with_capacity(3);
        for cache in [mem_config.input_cache, mem_config.memory_cache, mem_config.return_cache] {
            let len = read_u64(bytes, &mut cursor)? as usize;
            let data = bytes.get(cursor..cursor + len)?.to_vec();
            cursor += len;
            mems.push(MemLike::with_data(data, cache));
        }
        let ret = mems.pop()?;
        let memory = mems.pop()?;
        let input = mems.pop()?;
        Some(FrameData { pc, stack, input, memory, ret })
    }
}

/// One layer-2 slot: a frame either resident on-chip or sealed out to
/// layer 3.
enum Slot {
    Resident { meta: FrameMeta, data: FrameData },
    Swapped { meta: FrameMeta, handle: SwappedFrame },
    /// Transient placeholder while a frame moves between layers.
    Moving,
}

impl Slot {
    fn meta(&self) -> &FrameMeta {
        match self {
            Slot::Resident { meta, .. } | Slot::Swapped { meta, .. } => meta,
            Slot::Moving => unreachable!("Moving is transient"),
        }
    }

    fn meta_mut(&mut self) -> &mut FrameMeta {
        match self {
            Slot::Resident { meta, .. } | Slot::Swapped { meta, .. } => meta,
            Slot::Moving => unreachable!("Moving is transient"),
        }
    }
}

#[derive(Clone)]
enum Resume {
    Call { out_offset: usize, out_len: usize },
    Create { created: Address },
}

/// How the current frame ended.
enum Ended {
    Stop,
    Return(Vec<u8>),
    Revert(Vec<u8>),
    SelfDestruct,
    Halt(VmError),
}

/// What the stepper asks the driver to do.
enum Next {
    /// From `step`: carry on with the next instruction. From a whole
    /// run: the frame's footprint moved — rebalance layer 2, then carry
    /// on.
    Step,
    End(Ended),
    Call { msg: CallMsg, out_offset: usize, out_len: usize },
    Create { created: Address, value: U256, initcode: Arc<Code>, gas: u64 },
    /// The gas-slice budget for this segment ran out; the frame stack
    /// is intact and the driver must yield to the caller.
    Preempt,
}

/// How one pass of the frame driver ended.
enum Driven {
    Done(CallResult),
    Preempted,
}

struct CallMsg {
    caller: Address,
    address: Address,
    code_address: Address,
    value: U256,
    transfers_value: bool,
    input: Vec<u8>,
    gas: u64,
    is_static: bool,
    depth: usize,
}

struct CallResult {
    success: bool,
    gas_left: u64,
    output: Vec<u8>,
    halt: Option<VmError>,
    created: Option<Address>,
}

/// Where a checkpointed frame's mutable data lives while the engine is
/// suspended: sealed out to layer 3 (the normal path — one noised swap
/// per frame, so the boundary looks like ordinary spill traffic), or
/// captured raw in-enclave (the cover-traffic ablation: no swap events,
/// which the §IV-D segment-boundary audit lens must flag).
enum FrameHold {
    Sealed(SwappedFrame),
    InEnclave(Vec<u8>),
}

/// The in-flight transaction a preempted engine still owes an epilogue:
/// the tx-level gas counter plus the identities the epilogue settles
/// against (sender reimbursement, coinbase tip).
#[derive(Clone, Copy)]
struct PendingTx {
    counter: Gas,
    from: Address,
    segment: u32,
}

/// How one gas-slice segment of a transaction ended.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The transaction ran to completion; the receipt is final.
    Done(TxResult),
    /// The segment's gas budget ran out mid-transaction. The engine
    /// holds the paused interpreter state: either call
    /// [`Hevm::continue_transact`] to run the next segment in place, or
    /// [`Hevm::suspend`] to detach a typed [`Checkpoint`] and release
    /// the core.
    Preempted {
        /// 1-based index of the segment that just yielded.
        segment: u32,
    },
}

/// A typed, self-contained checkpoint of a preempted transaction: the
/// interpreter stack ring (every frame's metadata plus its sealed or
/// captured data pages), the journal overlay detached from its reader,
/// the layer-3 pager (sealing key, nonce counter, noise DRBG, and the
/// sealed store itself), and the transaction-level gas bookkeeping the
/// epilogue needs. Re-entered with [`Hevm::resume`].
///
/// The checkpoint is deliberately *not* `Clone`: a paused execution can
/// be resumed exactly once, which is what the service's exactly-once
/// accounting for preempted bundles leans on.
pub struct Checkpoint {
    journal: JournalSuspend,
    /// Frames bottom-to-top, exactly the layer-2 slot order at yield.
    frames: Vec<(FrameMeta, FrameHold)>,
    pager: Layer3Pager,
    refund: i64,
    origin: Address,
    gas_price: U256,
    stats: HevmStats,
    frame_misses_seen: u64,
    pending: PendingTx,
    root_gas: u64,
    /// Virtual time at which the slice yielded (before cover traffic).
    yield_at: Nanos,
    /// Resident frames captured out of layer 2 at suspension — the
    /// cover amount the suspension *owes*, whatever the cover mode.
    suspended_frames: u32,
    /// Frames actually sealed out at suspension (equals
    /// `suspended_frames` unless the cover ablation is on).
    covered_frames: u32,
    /// Gas still unexecuted across the frame stack at yield.
    remaining_gas: u64,
}

impl core::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("frames", &self.frames.len())
            .field("segment", &self.pending.segment)
            .field("remaining_gas", &self.remaining_gas)
            .finish()
    }
}

impl Checkpoint {
    /// 1-based index of the segment that produced this checkpoint.
    pub fn segment(&self) -> u32 {
        self.pending.segment
    }

    /// Virtual time at which the slice yielded, before the checkpoint
    /// cover traffic was emitted.
    pub fn yield_at(&self) -> Nanos {
        self.yield_at
    }

    /// How many resident frames the suspension captured out of layer 2
    /// — the cover amount the telemetry segment window advertises to
    /// the §IV-D auditor. This counts what the suspension *owes* the
    /// bus, not what it delivered, so the cover ablation still
    /// advertises a non-zero figure the auditor can hold it to.
    pub fn suspended_frames(&self) -> u32 {
        self.suspended_frames
    }

    /// How many frames were actually sealed out to layer 3 at
    /// suspension (equals [`suspended_frames`](Self::suspended_frames)
    /// unless the cover-traffic ablation is on).
    pub fn covered_frames(&self) -> u32 {
        self.covered_frames
    }

    /// Gas left unexecuted across the paused frame stack: the basis for
    /// remaining-segment estimates (gateway `retry_after` hints).
    pub fn remaining_gas(&self) -> u64 {
        self.remaining_gas
    }

    /// Drains the pager's swap log (the cover-traffic events emitted at
    /// suspension, plus any earlier spills not yet flushed).
    pub fn take_swap_log(&mut self) -> Vec<SwapEvent> {
        self.pager.take_swap_log()
    }
}

/// Execution statistics the Hypervisor and evaluation harness read out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HevmStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Exceptions raised to the Hypervisor (state queries + swaps).
    pub exceptions: u64,
    /// Layer-1 miss events.
    pub l1_misses: u64,
    /// Layer-3 swap events.
    pub swaps: u64,
    /// Peak layer-2 occupancy in pages.
    pub peak_l2_pages: usize,
    /// Maximum call-stack depth reached.
    pub max_depth: usize,
}

/// The hardware EVM emulator.
///
/// # Examples
///
/// ```
/// use tape_hevm::{Hevm, HevmConfig};
/// use tape_evm::{Env, Transaction};
/// use tape_primitives::{Address, U256};
/// use tape_sim::Clock;
/// use tape_state::{Account, InMemoryState};
///
/// let mut backend = InMemoryState::new();
/// let user = Address::from_low_u64(1);
/// backend.put_account(user, Account::with_balance(U256::from(u64::MAX)));
///
/// let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &backend, Clock::new());
/// let tx = Transaction::transfer(user, Address::from_low_u64(0xB0B), U256::ONE);
/// let result = hevm.transact(&tx)?;
/// assert!(result.success);
/// assert_eq!(result.gas_used, 21_000);
/// # Ok::<(), tape_hevm::HevmAbort>(())
/// ```
pub struct Hevm<R, I = NoopInspector> {
    config: HevmConfig,
    env: Env,
    clock: Clock,
    state: JournaledState<R>,
    inspector: I,
    pager: Layer3Pager,
    refund: i64,
    origin: Address,
    gas_price: U256,
    stats: HevmStats,
    /// The explicit layer-2 call stack.
    slots: Vec<Slot>,
    /// Cumulative miss count of the current top frame at the last step
    /// (for delta-based accumulation into `stats.l1_misses`).
    frame_misses_seen: u64,
    /// Virtual-clock deadline of the current *segment* (reset at every
    /// segment entry from `config.watchdog_ns`) — the watchdog bounds
    /// stuck segments, not whole transactions.
    watchdog_deadline: Option<tape_sim::Nanos>,
    /// The in-flight transaction when execution is preempted mid-way.
    pending: Option<PendingTx>,
    /// Gas handed to the root frame (after intrinsic); with the summed
    /// in-flight gas this yields gas-executed-so-far for slice checks.
    root_gas: u64,
    /// Gas-executed-so-far at the start of the current segment.
    slice_used_start: u64,
    /// Virtual time retired by the running frame and not yet put on the
    /// shared clock. Zero whenever anything but the stepper can look:
    /// `world()` settles it before the stepper touches state, and
    /// `execute_top` after every run.
    unticked_ns: Nanos,
    /// The straight-line runs this engine has entered.
    runs: Runs,
}

impl<R: StateReader> Hevm<R> {
    /// Creates an HEVM with no inspector attached.
    pub fn new(config: HevmConfig, env: Env, reader: R, clock: Clock) -> Self {
        Self::with_inspector(config, env, reader, clock, NoopInspector)
    }

    /// Re-enters a preempted transaction from a detached [`Checkpoint`]
    /// (the inverse of [`Hevm::suspend`]).
    ///
    /// The caller supplies a fresh reader over the same world state —
    /// the checkpoint carries the journal overlay, so every write from
    /// earlier segments is still visible — plus the shared virtual
    /// clock. `config` must describe the same device (memory geometry,
    /// cost model); the layer-3 sealing key is *not* re-derived: the
    /// checkpointed pager already holds the cipher that sealed the
    /// spilled frames.
    ///
    /// The watchdog deadline is rearmed by the next
    /// [`Hevm::continue_transact`], giving each segment a fresh budget.
    pub fn resume(
        config: HevmConfig,
        env: Env,
        reader: R,
        clock: Clock,
        checkpoint: Checkpoint,
    ) -> Self {
        let Checkpoint {
            journal,
            frames,
            pager,
            refund,
            origin,
            gas_price,
            stats,
            frame_misses_seen,
            pending,
            root_gas,
            ..
        } = checkpoint;
        let slots = frames
            .into_iter()
            .map(|(meta, hold)| match hold {
                FrameHold::Sealed(handle) => Slot::Swapped { meta, handle },
                FrameHold::InEnclave(bytes) => {
                    let data = FrameData::deserialize(&bytes, &config.mem)
                        .expect("in-enclave checkpoint bytes round-trip");
                    Slot::Resident { meta, data }
                }
            })
            .collect();
        Hevm {
            config,
            env,
            clock,
            state: JournaledState::rehydrate(reader, journal),
            inspector: NoopInspector,
            pager,
            refund,
            origin,
            gas_price,
            stats,
            slots,
            frame_misses_seen,
            watchdog_deadline: None,
            pending: Some(pending),
            root_gas,
            slice_used_start: 0,
            unticked_ns: 0,
            runs: Runs::new(),
        }
    }
}

impl<R: StateReader, I: Inspector> Hevm<R, I> {
    /// Creates an HEVM with an inspector attached.
    pub fn with_inspector(
        config: HevmConfig,
        env: Env,
        reader: R,
        clock: Clock,
        inspector: I,
    ) -> Self {
        let page = config.mem.page_size;
        let mut pager = Layer3Pager::new(
            &config.layer3_key,
            SecureRng::from_seed(&config.layer3_noise_seed.to_be_bytes()),
            page,
            6,
        );
        if let Some(plan) = &config.faults {
            pager.arm_faults(plan.clone());
        }
        Hevm {
            config,
            env,
            clock,
            state: JournaledState::new(reader),
            inspector,
            pager,
            refund: 0,
            origin: Address::ZERO,
            gas_price: U256::ZERO,
            stats: HevmStats::default(),
            slots: Vec::new(),
            frame_misses_seen: 0,
            watchdog_deadline: None,
            pending: None,
            root_gas: 0,
            slice_used_start: 0,
            unticked_ns: 0,
            runs: Runs::new(),
        }
    }

    /// The execution environment.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The journaled overlay.
    pub fn state(&self) -> &JournaledState<R> {
        &self.state
    }

    /// Mutable overlay access (bundle setup).
    pub fn state_mut(&mut self) -> &mut JournaledState<R> {
        &mut self.state
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> HevmStats {
        self.stats
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The attached inspector.
    pub fn inspector(&self) -> &I {
        &self.inspector
    }

    /// Mutable access to the attached inspector.
    pub fn inspector_mut(&mut self) -> &mut I {
        &mut self.inspector
    }

    /// Consumes the HEVM, returning the inspector.
    pub fn into_inspector(self) -> I {
        self.inspector
    }

    /// The adversary-visible layer-3 swap log.
    pub fn swap_log(&self) -> &[SwapEvent] {
        self.pager.swap_log()
    }

    fn charge_local_fetch(&mut self) {
        self.stats.exceptions += 1;
        if self.config.charge_local_fetch {
            self.clock.advance(self.config.cost.local_state_fetch_ns);
        }
    }

    fn charge_local_code_fetch(&mut self, code_len: usize) {
        if code_len == 0 {
            return;
        }
        self.stats.exceptions += 1;
        if self.config.charge_local_code {
            // One fetch per 1 KB page, mirroring the ORAM's paging.
            let pages = code_len.div_ceil(self.config.mem.page_size) as u64;
            self.clock
                .advance(self.config.cost.local_state_fetch_ns * pages);
        }
    }

    /// Executes one transaction of the bundle to completion.
    ///
    /// With `config.gas_slice` unset this is a single uninterrupted
    /// run; with it set, the transaction is internally driven through
    /// slice boundaries (identical semantics — segmentation never
    /// changes the receipt, only where the virtual clock is sampled).
    ///
    /// # Errors
    ///
    /// [`HevmAbort`] on transaction validation failure, layer-2 memory
    /// overflow (attack response), or layer-3 tampering.
    pub fn transact(&mut self, tx: &Transaction) -> Result<TxResult, HevmAbort> {
        let mut outcome = self.transact_sliced(tx)?;
        loop {
            match outcome {
                SliceOutcome::Done(result) => return Ok(result),
                SliceOutcome::Preempted { .. } => outcome = self.continue_transact()?,
            }
        }
    }

    /// Executes one transaction until it finishes *or* exhausts the
    /// configured gas slice ([`HevmConfig::gas_slice`]).
    ///
    /// On [`SliceOutcome::Preempted`] the engine holds the paused
    /// interpreter state: run the next segment in place with
    /// [`Hevm::continue_transact`], or detach a [`Checkpoint`] with
    /// [`Hevm::suspend`] and release the core.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Hevm::transact`].
    pub fn transact_sliced(&mut self, tx: &Transaction) -> Result<SliceOutcome, HevmAbort> {
        self.pending = None;
        self.state.begin_transaction();
        self.refund = 0;
        self.origin = tx.from;
        self.gas_price = tx.gas_price;
        self.slots.clear();
        self.watchdog_deadline = self.config.watchdog_ns.map(|w| self.clock.now() + w);

        let (sender, _) = self.state.load_account(tx.from);
        self.inspector.state_access(&StateAccess::Account(tx.from));
        self.charge_local_fetch();
        if let Some(nonce) = tx.nonce {
            if nonce != sender.nonce {
                return Err(TxError::NonceMismatch { expected: nonce, actual: sender.nonce }.into());
            }
        }

        let is_create = tx.to.is_none();
        if is_create && tx.data.len() > gas::MAX_INITCODE_SIZE {
            return Err(TxError::InitcodeTooLarge.into());
        }
        let al_keys = tx.access_list.iter().map(|(_, k)| k.len()).sum();
        let intrinsic = gas::intrinsic_gas(&tx.data, is_create, tx.access_list.len(), al_keys);
        if tx.gas_limit < intrinsic {
            return Err(TxError::IntrinsicGasTooLow { needed: intrinsic }.into());
        }

        let gas_cost = U256::from(tx.gas_limit)
            .checked_mul(tx.gas_price)
            .ok_or(HevmAbort::Tx(TxError::InsufficientFunds))?;
        let upfront = gas_cost
            .checked_add(tx.value)
            .ok_or(HevmAbort::Tx(TxError::InsufficientFunds))?;
        if sender.balance < upfront {
            return Err(TxError::InsufficientFunds.into());
        }

        self.state.sub_balance(&tx.from, gas_cost).expect("balance checked");
        self.state.inc_nonce(&tx.from);

        self.state.warm_address(tx.from);
        if let Some(to) = tx.to {
            self.state.warm_address(to);
        }
        self.state.warm_address(self.env.coinbase);
        for n in 1..=precompile::PRECOMPILE_COUNT {
            self.state.warm_address(Address::from_low_u64(n));
        }
        for (addr, keys) in &tx.access_list {
            self.state.warm_address(*addr);
            for key in keys {
                let _ = self.state.sload(addr, key);
            }
        }

        // Per-transaction session handling on the Hypervisor.
        self.clock.advance(self.config.cost.hevm_tx_overhead_ns);

        let mut counter = Gas::new(tx.gas_limit);
        assert!(counter.charge(intrinsic), "checked against the limit above");
        self.root_gas = counter.remaining();
        self.slice_used_start = 0;
        self.pending = Some(PendingTx { counter, from: tx.from, segment: 1 });

        let driven = if let Some(to) = tx.to {
            let msg = CallMsg {
                caller: tx.from,
                address: to,
                code_address: to,
                value: tx.value,
                transfers_value: true,
                input: tx.data.clone(),
                gas: counter.remaining(),
                is_static: false,
                depth: 1,
            };
            self.drive(Work::Call(msg))?
        } else {
            let nonce = self.state.nonce(&tx.from) - 1;
            let created = create_address(&tx.from, nonce);
            self.drive(Work::Create {
                creator: tx.from,
                created,
                value: tx.value,
                initcode: Arc::new(Code::new(tx.data.clone())),
                gas: counter.remaining(),
                depth: 1,
            })?
        };
        self.settle(driven)
    }

    /// Runs the next gas-slice segment of a preempted transaction.
    ///
    /// Rearms the per-segment watchdog deadline and resets the slice
    /// accounting baseline, then drives the frame stack exactly where
    /// the previous segment left off.
    ///
    /// # Panics
    ///
    /// If no transaction is preempted (the engine owes no segment).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Hevm::transact`].
    pub fn continue_transact(&mut self) -> Result<SliceOutcome, HevmAbort> {
        let pending = self
            .pending
            .as_mut()
            .expect("continue_transact requires a preempted transaction");
        pending.segment += 1;
        self.watchdog_deadline = self.config.watchdog_ns.map(|w| self.clock.now() + w);
        self.slice_used_start = self.root_gas.saturating_sub(self.gas_in_flight());
        let driven = self.drive_loop()?;
        self.settle(driven)
    }

    /// The transaction epilogue, shared by every segment that reaches
    /// the end of the frame tree: gas settlement, refunds, sender
    /// reimbursement, and coinbase tip.
    fn settle(&mut self, driven: Driven) -> Result<SliceOutcome, HevmAbort> {
        let result = match driven {
            Driven::Preempted => {
                let segment = self.pending.as_ref().expect("pending while preempted").segment;
                return Ok(SliceOutcome::Preempted { segment });
            }
            Driven::Done(result) => result,
        };
        let PendingTx { mut counter, from, .. } =
            self.pending.take().expect("pending set by the prologue");

        let frame_gas = counter.remaining();
        assert!(counter.charge(frame_gas - result.gas_left), "frame gas accounted");
        let refund_cap = counter.used() / 5;
        let refund = (self.refund.max(0) as u64).min(refund_cap);
        counter.reclaim(refund);

        let gas_used = counter.used();
        let reimbursement = U256::from(counter.remaining()).wrapping_mul(self.gas_price);
        self.state.add_balance(&from, reimbursement);
        let tip = U256::from(gas_used)
            .wrapping_mul(self.gas_price.saturating_sub(self.env.base_fee));
        self.state.add_balance(&self.env.coinbase, tip);

        let mut logs = self.state.take_logs();
        if !result.success {
            logs.clear();
        }

        Ok(SliceOutcome::Done(TxResult {
            success: result.success,
            gas_used,
            output: result.output,
            logs,
            // Call roots always retire with `created: None`; create
            // roots carry the deployed address — so this covers both.
            created: result.created,
            halt: result.halt,
        }))
    }

    /// Detaches a preempted execution into a typed [`Checkpoint`],
    /// consuming the engine and returning the state reader.
    ///
    /// Every still-resident layer-2 frame is sealed out through the
    /// layer-3 pager (when `config.checkpoint_cover` is set), so the
    /// suspension is observable only as ordinary noised swap traffic —
    /// the §IV-D indistinguishability argument survives the segment
    /// boundary. With the cover ablation off, frames are captured
    /// in-enclave with *no* bus traffic: the leakage auditor's
    /// segment-boundary lens must flag that run.
    ///
    /// The attached inspector is discarded: checkpoints cross core
    /// assignments, and inspection is a per-run concern.
    ///
    /// # Panics
    ///
    /// If no transaction is preempted.
    pub fn suspend(mut self) -> (R, Checkpoint) {
        let pending = self
            .pending
            .take()
            .expect("suspend requires a preempted transaction");
        let yield_at = self.clock.now();
        let remaining_gas = self.gas_in_flight();

        let slots = std::mem::take(&mut self.slots);
        let mut frames = Vec::with_capacity(slots.len());
        let mut suspended = 0u32;
        let mut covered = 0u32;
        for slot in slots {
            match slot {
                Slot::Resident { meta, data } => {
                    suspended += 1;
                    let bytes = data.serialize();
                    let hold = if self.config.checkpoint_cover {
                        let handle = self.pager.swap_out(&bytes, &self.clock, &self.config.cost);
                        self.stats.swaps += 1;
                        self.stats.exceptions += 1;
                        covered += 1;
                        FrameHold::Sealed(handle)
                    } else {
                        FrameHold::InEnclave(bytes)
                    };
                    frames.push((meta, hold));
                }
                Slot::Swapped { meta, handle } => frames.push((meta, FrameHold::Sealed(handle))),
                Slot::Moving => unreachable!("Moving is transient"),
            }
        }

        let (reader, journal) = self.state.suspend();
        let checkpoint = Checkpoint {
            journal,
            frames,
            pager: self.pager,
            refund: self.refund,
            origin: self.origin,
            gas_price: self.gas_price,
            stats: self.stats,
            frame_misses_seen: self.frame_misses_seen,
            pending,
            root_gas: self.root_gas,
            yield_at,
            suspended_frames: suspended,
            covered_frames: covered,
            remaining_gas,
        };
        (reader, checkpoint)
    }

    /// Sum of unexecuted gas across the frame stack. Forwarded gas is
    /// charged on the parent and held by the child, so the sum counts
    /// each unit once: `root_gas - gas_in_flight()` is gas executed so
    /// far (modulo the 2300-gas call stipend, which is bonus gas — the
    /// slice check uses saturating arithmetic to absorb it).
    fn gas_in_flight(&self) -> u64 {
        self.slots.iter().map(|slot| slot.meta().gas.remaining()).sum()
    }
}

/// A unit of work for the driver.
enum Work {
    Call(CallMsg),
    Create {
        creator: Address,
        created: Address,
        value: U256,
        initcode: Arc<Code>,
        gas: u64,
        depth: usize,
    },
}

impl<R: StateReader, I: Inspector> Hevm<R, I> {
    /// The iterative frame driver over the layer-2 slot vector.
    fn drive(&mut self, root: Work) -> Result<Driven, HevmAbort> {
        // Seed the stack with the root frame (or resolve it immediately).
        match self.admit(root)? {
            Admitted::Done(result) => return Ok(Driven::Done(result)),
            Admitted::Pushed => {}
        }
        self.drive_loop()
    }

    /// Drives the existing frame stack until the root retires or the
    /// gas slice runs out. Re-entrant: a preempted engine (or one
    /// rebuilt via [`Hevm::resume`]) continues from here.
    fn drive_loop(&mut self) -> Result<Driven, HevmAbort> {
        loop {
            let next = self.execute_top()?;
            match next {
                Next::Step => unreachable!("execute_top runs to a boundary"),
                Next::Preempt => return Ok(Driven::Preempted),
                Next::End(ended) => {
                    let result = self.retire_top(ended)?;
                    // Deliver to the parent, or finish.
                    if self.slots.is_empty() {
                        return Ok(Driven::Done(result));
                    }
                    self.deliver(result)?;
                }
                Next::Call { msg, out_offset, out_len } => {
                    self.top_meta_mut().resume = Some(Resume::Call { out_offset, out_len });
                    match self.admit(Work::Call(msg))? {
                        Admitted::Done(result) => self.deliver(result)?,
                        Admitted::Pushed => {}
                    }
                }
                Next::Create { created, value, initcode, gas } => {
                    let creator = self.top_meta().address;
                    let depth = self.top_meta().depth + 1;
                    self.top_meta_mut().resume = Some(Resume::Create { created });
                    let work = Work::Create { creator, created, value, initcode, gas, depth };
                    match self.admit(work)? {
                        Admitted::Done(result) => self.deliver(result)?,
                        Admitted::Pushed => {}
                    }
                }
            }
        }
    }

    fn top_meta(&self) -> &FrameMeta {
        self.slots.last().expect("driver keeps a top frame").meta()
    }

    fn top_meta_mut(&mut self) -> &mut FrameMeta {
        self.slots.last_mut().expect("driver keeps a top frame").meta_mut()
    }

    /// Applies a finished child's result to the (new) top frame.
    fn deliver(&mut self, result: CallResult) -> Result<(), HevmAbort> {
        self.ensure_top_resident()?;
        let Slot::Resident { meta, data } = self.slots.last_mut().expect("non-empty") else {
            unreachable!("ensured resident");
        };
        meta.gas.reclaim(result.gas_left);
        match meta.resume.take().expect("parent armed a resume") {
            Resume::Call { out_offset, out_len } => {
                let copy = out_len.min(result.output.len());
                if copy > 0 {
                    data.memory.store_slice(out_offset, &result.output[..copy]);
                }
                data.ret = MemLike::with_data(result.output, self.config.mem.return_cache);
                data.stack
                    .push(U256::from(result.success))
                    .expect("call freed stack slots");
            }
            Resume::Create { created } => {
                if result.success {
                    data.ret = MemLike::new(self.config.mem.return_cache);
                    data.stack
                        .push(created.into_word())
                        .expect("create freed stack slots");
                } else {
                    data.ret = MemLike::with_data(result.output, self.config.mem.return_cache);
                    data.stack.push(U256::ZERO).expect("create freed stack slots");
                }
            }
        }
        Ok(())
    }

    /// Resolves a work item: either an immediate result or a new top
    /// frame on the layer-2 stack.
    fn admit(&mut self, work: Work) -> Result<Admitted, HevmAbort> {
        match work {
            Work::Call(msg) => self.admit_call(msg),
            Work::Create { creator, created, value, initcode, gas, depth } => {
                self.admit_create(creator, created, value, initcode, gas, depth)
            }
        }
    }

    fn admit_call(&mut self, msg: CallMsg) -> Result<Admitted, HevmAbort> {
        self.inspector.state_access(&StateAccess::Account(msg.code_address));
        self.charge_local_fetch();
        let code = self.state.code(&msg.code_address);
        self.inspector.call_start(&FrameStart {
            depth: msg.depth,
            code_address: msg.code_address,
            address: msg.address,
            caller: msg.caller,
            value: msg.value,
            input_len: msg.input.len(),
            code_len: code.len(),
            gas: msg.gas,
        });

        let checkpoint = self.state.checkpoint();
        let refund_snapshot = self.refund;

        if msg.transfers_value
            && !msg.value.is_zero()
            && self.state.transfer(&msg.caller, &msg.address, msg.value).is_err()
        {
            self.state.revert(checkpoint);
            self.inspector.call_end(&FrameEnd {
                depth: msg.depth,
                committed: false,
                output_len: 0,
                gas_left: msg.gas,
            });
            return Ok(Admitted::Done(CallResult {
                success: false,
                gas_left: msg.gas,
                output: Vec::new(),
                halt: None,
                created: None,
            }));
        }

        if precompile::is_precompile(&msg.code_address) {
            let out = precompile::run(&msg.code_address, &msg.input, msg.gas);
            let (success, gas_left) =
                if out.success { (true, msg.gas - out.gas_used) } else { (false, 0) };
            if success {
                self.state.commit(checkpoint);
            } else {
                self.state.revert(checkpoint);
                self.refund = refund_snapshot;
            }
            self.inspector.call_end(&FrameEnd {
                depth: msg.depth,
                committed: success,
                output_len: out.output.len(),
                gas_left,
            });
            return Ok(Admitted::Done(CallResult {
                success,
                gas_left,
                output: out.output,
                halt: None,
                created: None,
            }));
        }

        if code.is_empty() {
            self.state.commit(checkpoint);
            self.inspector.call_end(&FrameEnd {
                depth: msg.depth,
                committed: true,
                output_len: 0,
                gas_left: msg.gas,
            });
            return Ok(Admitted::Done(CallResult {
                success: true,
                gas_left: msg.gas,
                output: Vec::new(),
                halt: None,
                created: None,
            }));
        }

        self.inspector.state_access(&StateAccess::Code(msg.code_address, code.len()));
        self.charge_local_code_fetch(code.len());
        let meta = FrameMeta {
            code,
            address: msg.address,
            caller: msg.caller,
            value: msg.value,
            gas: Gas::new(msg.gas),
            is_static: msg.is_static,
            depth: msg.depth,
            create: None,
            checkpoint,
            refund_snapshot,
            resume: None,
        };
        let data = FrameData {
            pc: 0,
            stack: Stack::new(),
            input: MemLike::with_data(msg.input, self.config.mem.input_cache),
            memory: MemLike::new(self.config.mem.memory_cache),
            ret: MemLike::new(self.config.mem.return_cache),
        };
        self.push_frame(meta, data)?;
        Ok(Admitted::Pushed)
    }

    fn admit_create(
        &mut self,
        creator: Address,
        created: Address,
        value: U256,
        initcode: Arc<Code>,
        gas: u64,
        depth: usize,
    ) -> Result<Admitted, HevmAbort> {
        self.inspector.call_start(&FrameStart {
            depth,
            code_address: created,
            address: created,
            caller: creator,
            value,
            input_len: 0,
            code_len: initcode.len(),
            gas,
        });

        let (info, _) = self.state.load_account(created);
        if info.has_code() || info.nonce != 0 {
            self.inspector.call_end(&FrameEnd { depth, committed: false, output_len: 0, gas_left: 0 });
            return Ok(Admitted::Done(CallResult {
                success: false,
                gas_left: 0,
                output: Vec::new(),
                halt: Some(VmError::CreateCollision),
                created: None,
            }));
        }

        let checkpoint = self.state.checkpoint();
        let refund_snapshot = self.refund;
        self.state.inc_nonce(&created);
        if !value.is_zero() && self.state.transfer(&creator, &created, value).is_err() {
            self.state.revert(checkpoint);
            self.inspector.call_end(&FrameEnd { depth, committed: false, output_len: 0, gas_left: gas });
            return Ok(Admitted::Done(CallResult {
                success: false,
                gas_left: gas,
                output: Vec::new(),
                halt: None,
                created: None,
            }));
        }

        let meta = FrameMeta {
            code: initcode,
            address: created,
            caller: creator,
            value,
            gas: Gas::new(gas),
            is_static: false,
            depth,
            create: Some(created),
            checkpoint,
            refund_snapshot,
            resume: None,
        };
        let data = FrameData {
            pc: 0,
            stack: Stack::new(),
            input: MemLike::new(self.config.mem.input_cache),
            memory: MemLike::new(self.config.mem.memory_cache),
            ret: MemLike::new(self.config.mem.return_cache),
        };
        self.push_frame(meta, data)?;
        Ok(Admitted::Pushed)
    }

    /// Finishes the top frame: CREATE epilogue, journal commit/revert,
    /// inspector report, and popping the layer-2 slot.
    fn retire_top(&mut self, mut ended: Ended) -> Result<CallResult, HevmAbort> {
        let Some(Slot::Resident { mut meta, .. }) = self.slots.pop() else {
            unreachable!("top frame is resident while executing");
        };

        let mut created_out = None;
        if let Some(created) = meta.create {
            // STOP (or running off the end) in initcode is a successful
            // deployment of *empty* code, per the EVM spec.
            if matches!(ended, Ended::Stop) {
                ended = Ended::Return(Vec::new());
            }
            if let Ended::Return(deployed) = ended {
                ended = if deployed.len() > gas::MAX_CODE_SIZE {
                    meta.gas.consume_all();
                    Ended::Halt(VmError::CodeSizeExceeded)
                } else if deployed.first() == Some(&0xEF) {
                    meta.gas.consume_all();
                    Ended::Halt(VmError::InvalidDeployedCode)
                } else if !meta.gas.charge(gas::CODE_DEPOSIT_BYTE * deployed.len() as u64) {
                    Ended::Halt(VmError::OutOfGas)
                } else {
                    self.state.set_code(&created, deployed);
                    created_out = Some(created);
                    Ended::Stop
                };
            }
        }

        // The next top frame's counters restart from its own history.
        self.frame_misses_seen = match self.slots.last() {
            Some(Slot::Resident { data, .. }) => data.l1_misses(),
            _ => 0,
        };
        let (success, gas_left, output, halt) = match ended {
            Ended::Stop | Ended::SelfDestruct => (true, meta.gas.remaining(), Vec::new(), None),
            Ended::Return(data) => (true, meta.gas.remaining(), data, None),
            Ended::Revert(data) => (false, meta.gas.remaining(), data, None),
            Ended::Halt(err) => (false, 0, Vec::new(), Some(err)),
        };
        if success {
            self.state.commit(meta.checkpoint);
        } else {
            self.state.revert(meta.checkpoint);
            self.refund = meta.refund_snapshot;
        }
        self.inspector.call_end(&FrameEnd {
            depth: meta.depth,
            committed: success,
            output_len: output.len(),
            gas_left,
        });
        Ok(CallResult { success, gas_left, output, halt, created: created_out })
    }

    // ------------------------------------------------------------------
    // Layer-2 management
    // ------------------------------------------------------------------

    fn frame_pages(&self, meta: &FrameMeta, data: &FrameData) -> usize {
        let page = self.config.mem.page_size;
        // Stack (32 KB) + frame state (1 KB) + world-state cache (4 KB)
        // are fixed; memory-likes grow.
        let fixed = (self.config.mem.stack_bytes
            + self.config.mem.frame_state_bytes
            + self.config.mem.state_cache)
            .div_ceil(page);
        fixed
            + meta.code.len().div_ceil(page)
            + data.input.pages(page)
            + data.memory.pages(page)
            + data.ret.pages(page)
    }

    fn resident_pages(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| match slot {
                Slot::Resident { meta, data } => self.frame_pages(meta, data),
                Slot::Swapped { .. } | Slot::Moving => 0,
            })
            .sum()
    }

    /// Pushes a new frame, swapping lower frames out as needed and
    /// enforcing the single-frame overflow limit.
    fn push_frame(&mut self, meta: FrameMeta, data: FrameData) -> Result<(), HevmAbort> {
        self.stats.max_depth = self.stats.max_depth.max(meta.depth);
        self.frame_misses_seen = 0; // fresh frame, fresh counters
        self.slots.push(Slot::Resident { meta, data });
        self.rebalance_layer2()
    }

    /// Enforces layer-2 capacity: the current frame must fit on-chip
    /// entirely (obliviousness argument of §IV-B); lower frames spill to
    /// layer 3, bottom-most first.
    fn rebalance_layer2(&mut self) -> Result<(), HevmAbort> {
        let page = self.config.mem.page_size;
        let capacity_pages = self.config.mem.layer2_bytes / page;
        let limit_pages = self.config.mem.frame_size_limit() / page;

        // Single-frame limit check on the current frame.
        if let Some(Slot::Resident { meta, data }) = self.slots.last() {
            let pages = self.frame_pages(meta, data);
            if pages > limit_pages {
                return Err(HevmAbort::MemoryOverflow { frame_pages: pages, limit_pages });
            }
        }

        // Spill bottom frames while over capacity (never the top).
        while self.resident_pages() > capacity_pages {
            let top = self.slots.len() - 1;
            let Some(victim_idx) = self
                .slots
                .iter()
                .position(|s| matches!(s, Slot::Resident { .. }))
                .filter(|&i| i < top)
            else {
                // Only the current frame is resident and it fits the
                // single-frame limit; nothing more to spill.
                break;
            };
            let slot = std::mem::replace(&mut self.slots[victim_idx], Slot::Moving);
            let Slot::Resident { meta, data } = slot else { unreachable!("position matched") };
            let bytes = data.serialize();
            let handle = self.pager.swap_out(&bytes, &self.clock, &self.config.cost);
            self.stats.swaps += 1;
            self.stats.exceptions += 1;
            self.slots[victim_idx] = Slot::Swapped { meta, handle };
        }

        self.stats.peak_l2_pages = self.stats.peak_l2_pages.max(self.resident_pages());
        Ok(())
    }

    /// Reloads the top frame from layer 3 if it was spilled.
    fn ensure_top_resident(&mut self) -> Result<(), HevmAbort> {
        let Some(top) = self.slots.last() else { return Ok(()) };
        if matches!(top, Slot::Resident { .. }) {
            return Ok(());
        }
        let Some(Slot::Swapped { meta, handle }) = self.slots.pop() else { unreachable!() };
        let bytes = self
            .pager
            .swap_in(handle, &self.clock, &self.config.cost)
            .map_err(|_| HevmAbort::Layer3Tampered)?;
        let data = FrameData::deserialize(&bytes, &self.config.mem)
            .ok_or(HevmAbort::Layer3Tampered)?;
        self.stats.swaps += 1;
        self.stats.exceptions += 1;
        self.slots.push(Slot::Resident { meta, data });
        self.rebalance_layer2()
    }

    // ------------------------------------------------------------------
    // The stepper
    // ------------------------------------------------------------------

    /// Runs the top frame until it ends, spawns a child or yields.
    ///
    /// The frame is detached from its slot once per *run* — a stretch
    /// of instructions with no frame switch and no change of footprint —
    /// and put back, with the shared clock settled, before anything
    /// outside the stepper can look at the engine again.
    fn execute_top(&mut self) -> Result<Next, HevmAbort> {
        self.ensure_top_resident()?;
        // `deliver` (a child's output) and a resume change the frame
        // between two of its instructions, outside any run: whatever the
        // first instruction after an entry does, layer 2 is rebalanced
        // behind it. After that, only when a memory-like changed length.
        let mut balanced = None;
        loop {
            let Some(Slot::Resident { mut meta, mut data }) = self.slots.pop() else {
                unreachable!("ensured resident top");
            };
            // The frames below cannot move while the top one executes.
            let gas_below = self.gas_in_flight();
            let retired_before = self.stats.instructions;
            let ended = self.run(&mut meta, &mut data, gas_below, balanced);
            self.tick();
            // A run cut off before its first instruction (the watchdog
            // or the slice check on entry) accounts nothing.
            if self.stats.instructions != retired_before {
                // Accumulate only this run's delta: per-frame counters
                // are cumulative, and several frames contribute over a
                // bundle.
                let misses = data.l1_misses();
                self.stats.l1_misses += misses.saturating_sub(self.frame_misses_seen);
                self.frame_misses_seen = misses;
            }
            balanced = Some(data.lens());
            self.slots.push(Slot::Resident { meta, data });
            let next = ended?;
            if !matches!(next, Next::End(_) | Next::Preempt) {
                // Growth may have changed the footprint.
                self.rebalance_layer2()?;
            }
            if !matches!(next, Next::Step) {
                return Ok(next);
            }
        }
    }

    /// One run: executes the detached top frame in place until a
    /// boundary. `Next::Step` means the footprint differs from
    /// `balanced` and layer 2 is owed a rebalance before the next
    /// instruction; everything else is the stepper's own boundary, a
    /// spent gas slice, or the watchdog. Virtual time accumulates in
    /// `unticked_ns`; the caller settles it.
    fn run(
        &mut self,
        meta: &mut FrameMeta,
        data: &mut FrameData,
        gas_below: u64,
        balanced: Option<(usize, usize, usize)>,
    ) -> Result<Next, HevmAbort> {
        let deadline = self.watchdog_deadline;
        let slice = self.config.gas_slice.filter(|_| self.pending.is_some());
        // Instructions of a refused run still to step one at a time. The
        // first instruction after an entry (`balanced` is `None`) always
        // runs alone, so that layer 2 is rebalanced right behind it.
        let mut refused = 0;
        loop {
            if refused == 0 && balanced.is_some() {
                let run = self.runs.at(&meta.code, data.pc, &self.config.cost);
                let slice = slice.map(|slice| slice.saturating_sub(self.slice_used(gas_below, meta)));
                let (height, now) = (data.stack.len(), self.clock.now() + self.unticked_ns);
                if run.fits(meta.gas.remaining(), height, STACK_LIMIT, now, deadline, slice) {
                    if let Err(err) = self.run_straight(meta, data, run, deadline, slice) {
                        meta.gas.consume_all();
                        return Ok(Next::End(Ended::Halt(err)));
                    }
                    continue;
                }
                refused = run.count;
            }
            refused = refused.saturating_sub(1);
            // A runaway execution (adversarial bytecode, a huge honest
            // loop, or an engine defect) must not stall the core: the
            // watchdog bounds each segment in virtual time.
            if let Some(deadline) = deadline {
                if self.clock.now() + self.unticked_ns > deadline {
                    return Err(HevmAbort::Watchdog {
                        budget_ns: self.config.watchdog_ns.unwrap_or(0),
                    });
                }
            }
            // Gas-slice preemption: yield once this segment has executed
            // its budget. Checked at the same boundary as the watchdog;
            // the caller puts the frame back, so the engine is
            // suspendable as soon as this returns.
            if slice.is_some_and(|slice| self.slice_used(gas_below, meta) >= slice) {
                return Ok(Next::Preempt);
            }
            let next = match self.step(meta, data) {
                Ok(next) => next,
                Err(err) => {
                    meta.gas.consume_all();
                    Next::End(Ended::Halt(err))
                }
            };
            if !matches!(next, Next::Step) || Some(data.lens()) != balanced {
                return Ok(next);
            }
        }
    }

    /// Gas this segment has executed, with `gas_below` held by the
    /// frames under `meta`.
    #[inline]
    fn slice_used(&self, gas_below: u64, meta: &FrameMeta) -> u64 {
        let used = self.root_gas.saturating_sub(gas_below + meta.gas.remaining());
        used.saturating_sub(self.slice_used_start)
    }

    /// Executes a run whose entry check passed, then each run a closing
    /// `JUMP` / `JUMPI` leads to, for as long as that run passes the same
    /// check against the room already opened: the stack stays open across
    /// the chain. Each run's instructions, gas and virtual time are
    /// retired in one sum; `slice` is the gas the slice has left. The
    /// inspector still sees every step with the gas it had before that
    /// instruction.
    fn run_straight(
        &mut self,
        meta: &mut FrameMeta,
        data: &mut FrameData,
        mut run: Run,
        deadline: Option<Nanos>,
        mut slice: Option<u64>,
    ) -> Result<(), VmError> {
        let (room, now) = (data.stack.len() + run.peak as usize, self.clock.now());
        let (inspector, memory_size) = (&mut self.inspector, data.memory.len());
        let (runs, cost, stats) = (&mut self.runs, &self.config.cost, &mut self.stats);
        let unticked = &mut self.unticked_ns;
        let (bytes, mut pc): (&[u8], _) = (&meta.code, data.pc);
        data.stack.open(run.peak as usize, |words| loop {
            stats.instructions += u64::from(run.count);
            *unticked += run.ns;
            slice = slice.map(|left| left - u64::from(run.gas));
            let mut left = meta.gas.remaining();
            let charged = meta.gas.charge(u64::from(run.gas));
            debug_assert!(charged, "the entry check covers the run's gas");
            let mut byte = op::STOP;
            for _ in 0..run.count {
                byte = bytes[pc];
                inspector.step(&StepInfo {
                    pc,
                    opcode: byte,
                    gas_remaining: left,
                    depth: meta.depth,
                    stack: words.as_slice(),
                    memory_size,
                    address: meta.address,
                });
                left -= opcode::info(byte).base_gas;
                pc = straight(words, &meta.code, byte, pc)?;
            }
            if !matches!(byte, op::JUMP | op::JUMPI) {
                return Ok::<_, VmError>(());
            }
            run = runs.at(&meta.code, pc, cost);
            let (gas, height) = (meta.gas.remaining(), words.as_slice().len());
            if !run.fits(gas, height, room, now + *unticked, deadline, slice) {
                return Ok(());
            }
        })?;
        data.pc = pc;
        Ok(())
    }

    /// Puts the retired-but-unticked virtual time on the shared clock.
    #[inline]
    fn tick(&mut self) {
        if self.unticked_ns != 0 {
            self.clock.advance(std::mem::take(&mut self.unticked_ns));
        }
    }

    /// The journaled state as the stepper reaches it: the clock is
    /// settled first, so a reader behind the overlay — an ORAM client
    /// stamping its queries, a recording test reader — sees exact time.
    #[inline]
    fn world(&mut self) -> &mut JournaledState<R> {
        self.tick();
        &mut self.state
    }

    /// Decode + execute one instruction (the fetch/decode stages of the
    /// four-stage pipeline; timing charged per retired instruction).
    fn step(&mut self, meta: &mut FrameMeta, data: &mut FrameData) -> Result<Next, VmError> {
        let Some(&byte) = meta.code.get(data.pc) else {
            return Ok(Next::End(Ended::Stop));
        };
        let info = opcode::info(byte);
        if !info.defined {
            return Err(VmError::InvalidOpcode(byte));
        }

        self.inspector.step(&StepInfo {
            pc: data.pc,
            opcode: byte,
            gas_remaining: meta.gas.remaining(),
            depth: meta.depth,
            stack: data.stack.as_slice(),
            memory_size: data.memory.len(),
            address: meta.address,
        });

        // Pipeline timing: every retired instruction advances the clock
        // (settled at the next point anything can read it).
        self.stats.instructions += 1;
        self.unticked_ns += self.config.cost.hevm_instruction_ns(byte);

        if !meta.gas.charge(info.base_gas) {
            return Err(VmError::OutOfGas);
        }

        let pc = data.pc;
        if run::is_pure(byte) || matches!(byte, op::JUMP | op::JUMPI) {
            let height = data.stack.len();
            if height < usize::from(info.inputs) {
                return Err(VmError::StackUnderflow);
            }
            if height - usize::from(info.inputs) + usize::from(info.outputs) > STACK_LIMIT {
                return Err(VmError::StackOverflow);
            }
            // Room for what the instruction adds: a full stack has none.
            let room = usize::from(info.outputs.saturating_sub(info.inputs));
            data.pc = data.stack.open(room, |words| straight(words, &meta.code, byte, pc))?;
            return Ok(Next::Step);
        }
        data.pc += 1;

        use tape_evm::opcode::OpCategory as C;
        match info.category {
            // What is left of these three once the straight-line
            // instructions are out: `EXP`, whose gas depends on its
            // operand, and `STOP`.
            C::Arithmetic | C::Stack | C::Flow => match byte {
                op::EXP => {
                    let base = data.stack.pop()?;
                    let exponent = data.stack.pop()?;
                    if !meta.gas.charge(gas::exp_cost(&exponent)) {
                        return Err(VmError::OutOfGas);
                    }
                    data.stack.push(base.wrapping_pow(exponent))?;
                }
                op::STOP => return Ok(Next::End(Ended::Stop)),
                other => unreachable!("{other:#04x} is a straight-line instruction"),
            },
            C::Keccak => {
                let offset = data.stack.pop()?;
                let len = data.stack.pop()?;
                let (offset, len) = mem_charge(meta, &mut data.memory, offset, len)?;
                if !meta.gas.charge(gas::keccak_cost(len)) {
                    return Err(VmError::OutOfGas);
                }
                let hash = tape_crypto::keccak256(data.memory.slice(offset, len));
                data.stack.push(hash.into_u256())?;
            }
            C::FrameState => self.exec_frame_state(byte, meta, data)?,
            C::Memory => self.exec_memory(byte, meta, data)?,
            C::Storage => self.exec_storage(byte, meta, data)?,
            C::Log => {
                if meta.is_static {
                    return Err(VmError::StaticViolation);
                }
                let topic_count = (byte - op::LOG0) as usize;
                let offset = data.stack.pop()?;
                let len = data.stack.pop()?;
                let mut topics = Vec::with_capacity(topic_count);
                for _ in 0..topic_count {
                    topics.push(B256::from(data.stack.pop()?));
                }
                let (offset, len) = mem_charge(meta, &mut data.memory, offset, len)?;
                if !meta.gas.charge(gas::LOG_DATA_BYTE * len as u64) {
                    return Err(VmError::OutOfGas);
                }
                let bytes = data.memory.load_slice(offset, len);
                self.world().log(Log { address: meta.address, topics, data: bytes });
            }
            C::CallReturn => return self.exec_call_return(byte, meta, data),
            C::Invalid => return Err(VmError::InvalidOpcode(byte)),
        }
        Ok(Next::Step)
    }

    fn exec_frame_state(
        &mut self,
        byte: u8,
        meta: &mut FrameMeta,
        data: &mut FrameData,
    ) -> Result<(), VmError> {
        let value = match byte {
            op::ADDRESS => meta.address.into_word(),
            op::ORIGIN => self.origin.into_word(),
            op::CALLER => meta.caller.into_word(),
            op::CALLVALUE => meta.value,
            op::CALLDATASIZE => U256::from(data.input.len()),
            op::CODESIZE => U256::from(meta.code.len()),
            op::GASPRICE => self.gas_price,
            op::RETURNDATASIZE => U256::from(data.ret.len()),
            op::COINBASE => self.env.coinbase.into_word(),
            op::TIMESTAMP => U256::from(self.env.timestamp),
            op::NUMBER => U256::from(self.env.block_number),
            op::PREVRANDAO => self.env.prevrandao.into_u256(),
            op::GASLIMIT => U256::from(self.env.gas_limit),
            op::CHAINID => U256::from(self.env.chain_id),
            op::BASEFEE => self.env.base_fee,
            op::MSIZE => U256::from(data.memory.len()),
            op::GAS => U256::from(meta.gas.remaining()),
            op::SELFBALANCE => self.world().balance(&meta.address),
            op::BALANCE => {
                let addr = Address::from_word(data.stack.pop()?);
                let (info, is_cold) = self.world().load_account(addr);
                self.inspector.state_access(&StateAccess::Account(addr));
                if is_cold {
                    self.charge_local_fetch();
                }
                if !meta.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                info.balance
            }
            op::EXTCODESIZE => {
                let addr = Address::from_word(data.stack.pop()?);
                let (info, is_cold) = self.world().load_account(addr);
                self.inspector.state_access(&StateAccess::Account(addr));
                if is_cold {
                    self.charge_local_fetch();
                }
                if !meta.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                U256::from(info.code_len)
            }
            op::EXTCODEHASH => {
                let addr = Address::from_word(data.stack.pop()?);
                let (_, is_cold) = self.world().load_account(addr);
                self.inspector.state_access(&StateAccess::Account(addr));
                if is_cold {
                    self.charge_local_fetch();
                }
                if !meta.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                self.world().code_hash(&addr).into_u256()
            }
            op::BLOCKHASH => {
                let number = data.stack.pop()?;
                match number.try_into_u64() {
                    Some(n)
                        if n < self.env.block_number && self.env.block_number - n <= 256 =>
                    {
                        self.world().reader().block_hash(n).into_u256()
                    }
                    _ => U256::ZERO,
                }
            }
            other => return Err(VmError::InvalidOpcode(other)),
        };
        data.stack.push(value)?;
        Ok(())
    }

    fn exec_memory(
        &mut self,
        byte: u8,
        meta: &mut FrameMeta,
        data: &mut FrameData,
    ) -> Result<(), VmError> {
        match byte {
            op::MLOAD => {
                let offset = data.stack.pop()?;
                let (offset, _) = mem_charge(meta, &mut data.memory, offset, U256::from(32u64))?;
                let word = data.memory.load_word(offset);
                data.stack.push(word)?;
            }
            op::MSTORE => {
                let offset = data.stack.pop()?;
                let value = data.stack.pop()?;
                let (offset, _) = mem_charge(meta, &mut data.memory, offset, U256::from(32u64))?;
                data.memory.store_word(offset, value);
            }
            op::MSTORE8 => {
                let offset = data.stack.pop()?;
                let value = data.stack.pop()?;
                let (offset, _) = mem_charge(meta, &mut data.memory, offset, U256::ONE)?;
                data.memory.store_byte(offset, value.low_u64() as u8);
            }
            op::MCOPY => {
                let dst = data.stack.pop()?;
                let src = data.stack.pop()?;
                let len = data.stack.pop()?;
                if !len.is_zero() {
                    let far = if dst > src { dst } else { src };
                    let (_, len_usize) = mem_charge(meta, &mut data.memory, far, len)?;
                    if !meta.gas.charge(gas::copy_cost(len_usize)) {
                        return Err(VmError::OutOfGas);
                    }
                    let dst = dst.try_into_usize().ok_or(VmError::MemoryOverflow)?;
                    let src = src.try_into_usize().ok_or(VmError::MemoryOverflow)?;
                    data.memory.copy_within(dst, src, len_usize);
                }
            }
            op::CALLDATALOAD => {
                let offset = data.stack.pop()?;
                let mut word = [0u8; 32];
                if let Some(off) = offset.try_into_usize() {
                    copy_padded(&mut word, data.input.as_bytes(), off);
                }
                data.stack.push(U256::from_be_bytes(word))?;
            }
            op::CALLDATACOPY => {
                let (dst, src, len) = copy_triplet(meta, data)?;
                let input = std::mem::take(&mut data.input);
                data.memory.store_padded(dst, input.as_bytes(), src, len);
                data.input = input;
            }
            op::CODECOPY => {
                let (dst, src, len) = copy_triplet(meta, data)?;
                let code = Arc::clone(&meta.code);
                data.memory.store_padded(dst, &code, src, len);
            }
            op::EXTCODECOPY => {
                let addr = Address::from_word(data.stack.pop()?);
                let (_, is_cold) = self.world().load_account(addr);
                if is_cold {
                    self.charge_local_fetch();
                }
                if !meta.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                let (dst, src, len) = copy_triplet(meta, data)?;
                let code = self.world().code(&addr);
                self.inspector.state_access(&StateAccess::Code(addr, code.len()));
                data.memory.store_padded(dst, &code, src, len);
            }
            op::RETURNDATACOPY => {
                let dst = data.stack.pop()?;
                let src = data.stack.pop()?;
                let len = data.stack.pop()?;
                let src = src.try_into_usize().ok_or(VmError::ReturnDataOutOfBounds)?;
                let len_usize = len.try_into_usize().ok_or(VmError::ReturnDataOutOfBounds)?;
                if src.saturating_add(len_usize) > data.ret.len() {
                    return Err(VmError::ReturnDataOutOfBounds);
                }
                let (dst, len) = mem_charge(meta, &mut data.memory, dst, len)?;
                if !meta.gas.charge(gas::copy_cost(len)) {
                    return Err(VmError::OutOfGas);
                }
                let ret = std::mem::take(&mut data.ret);
                data.memory.store_padded(dst, ret.as_bytes(), src, len);
                data.ret = ret;
            }
            other => return Err(VmError::InvalidOpcode(other)),
        }
        Ok(())
    }

    fn exec_storage(
        &mut self,
        byte: u8,
        meta: &mut FrameMeta,
        data: &mut FrameData,
    ) -> Result<(), VmError> {
        match byte {
            op::SLOAD => {
                let key = data.stack.pop()?;
                let result = self.world().sload(&meta.address, &key);
                self.inspector
                    .state_access(&StateAccess::StorageRead(meta.address, key));
                if result.is_cold {
                    self.charge_local_fetch();
                }
                if !meta.gas.charge(gas::sload_cost(result.is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                data.stack.push(result.value)?;
            }
            op::SSTORE => {
                if meta.is_static {
                    return Err(VmError::StaticViolation);
                }
                if meta.gas.remaining() <= gas::SSTORE_SENTRY {
                    return Err(VmError::OutOfGas);
                }
                let key = data.stack.pop()?;
                let value = data.stack.pop()?;
                let result = self.world().sstore(&meta.address, &key, value);
                self.inspector
                    .state_access(&StateAccess::StorageWrite(meta.address, key, value));
                if result.is_cold {
                    self.charge_local_fetch();
                }
                let (cost, refund) =
                    gas::sstore_cost(result.original, result.current, result.new, result.is_cold);
                if !meta.gas.charge(cost) {
                    return Err(VmError::OutOfGas);
                }
                self.refund += refund;
            }
            op::TLOAD => {
                let key = data.stack.pop()?;
                let value = self.world().tload(&meta.address, &key);
                data.stack.push(value)?;
            }
            op::TSTORE => {
                if meta.is_static {
                    return Err(VmError::StaticViolation);
                }
                let key = data.stack.pop()?;
                let value = data.stack.pop()?;
                self.world().tstore(&meta.address, &key, value);
            }
            other => return Err(VmError::InvalidOpcode(other)),
        }
        Ok(())
    }

    fn exec_call_return(
        &mut self,
        byte: u8,
        meta: &mut FrameMeta,
        data: &mut FrameData,
    ) -> Result<Next, VmError> {
        match byte {
            op::RETURN => {
                let offset = data.stack.pop()?;
                let len = data.stack.pop()?;
                let (offset, len) = mem_charge(meta, &mut data.memory, offset, len)?;
                Ok(Next::End(Ended::Return(data.memory.load_slice(offset, len))))
            }
            op::REVERT => {
                let offset = data.stack.pop()?;
                let len = data.stack.pop()?;
                let (offset, len) = mem_charge(meta, &mut data.memory, offset, len)?;
                Ok(Next::End(Ended::Revert(data.memory.load_slice(offset, len))))
            }
            op::SELFDESTRUCT => {
                if meta.is_static {
                    return Err(VmError::StaticViolation);
                }
                let beneficiary = Address::from_word(data.stack.pop()?);
                let (info, is_cold) = self.world().load_account(beneficiary);
                let mut cost = 0u64;
                if is_cold {
                    cost += gas::COLD_ACCOUNT_ACCESS;
                    self.charge_local_fetch();
                }
                let balance = self.world().balance(&meta.address);
                if info.is_empty() && !balance.is_zero() {
                    cost += gas::SELFDESTRUCT_NEW_ACCOUNT;
                }
                if !meta.gas.charge(cost) {
                    return Err(VmError::OutOfGas);
                }
                self.world().selfdestruct(&meta.address, &beneficiary);
                Ok(Next::End(Ended::SelfDestruct))
            }
            op::CALL | op::CALLCODE | op::DELEGATECALL | op::STATICCALL => {
                self.decode_call(byte, meta, data)
            }
            op::CREATE | op::CREATE2 => self.decode_create(byte, meta, data),
            other => Err(VmError::InvalidOpcode(other)),
        }
    }

    fn decode_call(
        &mut self,
        byte: u8,
        meta: &mut FrameMeta,
        data: &mut FrameData,
    ) -> Result<Next, VmError> {
        let gas_req = data.stack.pop()?;
        let target = Address::from_word(data.stack.pop()?);
        let value = match byte {
            op::CALL | op::CALLCODE => data.stack.pop()?,
            _ => U256::ZERO,
        };
        let in_offset = data.stack.pop()?;
        let in_len = data.stack.pop()?;
        let out_offset = data.stack.pop()?;
        let out_len = data.stack.pop()?;

        if byte == op::CALL && !value.is_zero() && meta.is_static {
            return Err(VmError::StaticViolation);
        }

        let (in_offset, in_len) = mem_charge(meta, &mut data.memory, in_offset, in_len)?;
        let (out_offset, out_len) = mem_charge(meta, &mut data.memory, out_offset, out_len)?;
        let input = data.memory.load_slice(in_offset, in_len);

        let (target_info, is_cold) = self.world().load_account(target);
        if is_cold {
            self.charge_local_fetch();
        }
        if !meta.gas.charge(gas::account_access_cost(is_cold)) {
            return Err(VmError::OutOfGas);
        }

        let mut extra = 0u64;
        let mut stipend = 0u64;
        if !value.is_zero() {
            extra += gas::CALL_VALUE;
            stipend = gas::CALL_STIPEND;
            if byte == op::CALL && target_info.is_empty() && !self.world().exists(target) {
                extra += gas::CALL_NEW_ACCOUNT;
            }
        }
        if !meta.gas.charge(extra) {
            return Err(VmError::OutOfGas);
        }

        let forwardable = meta.gas.forwardable();
        let child_gas = match gas_req.try_into_u64() {
            Some(g) => g.min(forwardable),
            None => forwardable,
        };
        if !meta.gas.charge(child_gas) {
            return Err(VmError::OutOfGas);
        }
        let child_gas = child_gas + stipend;

        if meta.depth >= gas::CALL_DEPTH_LIMIT
            || (!value.is_zero() && self.world().balance(&meta.address) < value)
        {
            meta.gas.reclaim(child_gas - stipend);
            data.ret = MemLike::new(self.config.mem.return_cache);
            data.stack.push(U256::ZERO)?;
            return Ok(Next::Step);
        }

        let msg = CallMsg {
            caller: match byte {
                op::DELEGATECALL => meta.caller,
                _ => meta.address,
            },
            address: match byte {
                op::CALLCODE | op::DELEGATECALL => meta.address,
                _ => target,
            },
            code_address: target,
            value: match byte {
                op::DELEGATECALL => meta.value,
                op::STATICCALL => U256::ZERO,
                _ => value,
            },
            transfers_value: byte == op::CALL,
            input,
            gas: child_gas,
            is_static: meta.is_static || byte == op::STATICCALL,
            depth: meta.depth + 1,
        };
        Ok(Next::Call { msg, out_offset, out_len })
    }

    fn decode_create(
        &mut self,
        byte: u8,
        meta: &mut FrameMeta,
        data: &mut FrameData,
    ) -> Result<Next, VmError> {
        if meta.is_static {
            return Err(VmError::StaticViolation);
        }
        let value = data.stack.pop()?;
        let offset = data.stack.pop()?;
        let len = data.stack.pop()?;
        let salt = if byte == op::CREATE2 { Some(data.stack.pop()?) } else { None };

        let (offset, len) = mem_charge(meta, &mut data.memory, offset, len)?;
        if len > gas::MAX_INITCODE_SIZE {
            return Err(VmError::InitcodeSizeExceeded);
        }
        if !meta.gas.charge(gas::INITCODE_WORD * gas::words(len)) {
            return Err(VmError::OutOfGas);
        }
        if salt.is_some() && !meta.gas.charge(gas::keccak_cost(len)) {
            return Err(VmError::OutOfGas);
        }
        let initcode = data.memory.load_slice(offset, len);

        let child_gas = meta.gas.forwardable();
        if !meta.gas.charge(child_gas) {
            return Err(VmError::OutOfGas);
        }

        if meta.depth >= gas::CALL_DEPTH_LIMIT || self.world().balance(&meta.address) < value {
            meta.gas.reclaim(child_gas);
            data.ret = MemLike::new(self.config.mem.return_cache);
            data.stack.push(U256::ZERO)?;
            return Ok(Next::Step);
        }

        let nonce = self.world().inc_nonce(&meta.address);
        let initcode = Arc::new(Code::new(initcode));
        let created = match salt {
            Some(salt) => create2_address(&meta.address, &salt, &initcode.hash()),
            None => create_address(&meta.address, nonce),
        };
        Ok(Next::Create { created, value, initcode, gas: child_gas })
    }
}

enum Admitted {
    Pushed,
    Done(CallResult),
}

// ---------------------------------------------------------------------
// Pure instruction helpers (the ALU of the pipeline)
// ---------------------------------------------------------------------

/// The ALU and stack stage for every instruction a straight-line run can
/// hold — the single implementation both [`Hevm::run_straight`] and the
/// per-instruction step drive. Stack bounds and static gas are settled
/// before it is called; a jump to a non-`JUMPDEST` is the one fault left.
/// Returns the next pc.
#[inline(always)]
fn straight(stack: &mut Words<'_>, code: &Code, byte: u8, pc: usize) -> Result<usize, VmError> {
    use core::cmp::Ordering;
    #[inline(always)]
    fn alu(stack: &mut Words<'_>, f: impl FnOnce(U256, U256) -> U256) {
        let a = stack.pop();
        stack.set_top(f(a, stack.top()));
    }
    fn shift_amount(s: U256) -> u32 {
        s.try_into_u64().map(|v| v.min(256) as u32).unwrap_or(256)
    }
    match byte {
        op::ADD => alu(stack, |a, b| a.wrapping_add(b)),
        op::MUL => alu(stack, |a, b| a.wrapping_mul(b)),
        op::SUB => alu(stack, |a, b| a.wrapping_sub(b)),
        op::DIV => alu(stack, |a, b| a.div_evm(b)),
        op::SDIV => alu(stack, |a, b| a.sdiv_evm(b)),
        op::MOD => alu(stack, |a, b| a.rem_evm(b)),
        op::SMOD => alu(stack, |a, b| a.smod_evm(b)),
        op::ADDMOD => {
            let a = stack.pop();
            let b = stack.pop();
            stack.set_top(a.add_mod(b, stack.top()));
        }
        op::MULMOD => {
            let a = stack.pop();
            let b = stack.pop();
            stack.set_top(a.mul_mod(b, stack.top()));
        }
        op::SIGNEXTEND => alu(stack, |b, x| x.sign_extend(b)),
        op::LT => alu(stack, |a, b| U256::from(a < b)),
        op::GT => alu(stack, |a, b| U256::from(a > b)),
        op::SLT => alu(stack, |a, b| U256::from(a.signed_cmp(&b) == Ordering::Less)),
        op::SGT => alu(stack, |a, b| U256::from(a.signed_cmp(&b) == Ordering::Greater)),
        op::EQ => alu(stack, |a, b| U256::from(a == b)),
        op::ISZERO => stack.set_top(U256::from(stack.top().is_zero())),
        op::AND => alu(stack, |a, b| a & b),
        op::OR => alu(stack, |a, b| a | b),
        op::XOR => alu(stack, |a, b| a ^ b),
        op::NOT => stack.set_top(!stack.top()),
        op::BYTE => alu(stack, |i, x| x.byte_be(i)),
        op::SHL => alu(stack, |s, v| v.shl_word(shift_amount(s))),
        op::SHR => alu(stack, |s, v| v.shr_word(shift_amount(s))),
        op::SAR => alu(stack, |s, v| v.sar_word(shift_amount(s))),
        op::POP => {
            stack.pop();
        }
        op::PUSH0 => stack.push(U256::ZERO),
        op::PUSH1..=op::PUSH32 => {
            let n = opcode::immediate_len(byte);
            if let Some(imm) = code.get(pc + 1..pc + 1 + n).filter(|_| n <= 8) {
                let value = imm.iter().fold(0u64, |v, &b| v << 8 | u64::from(b));
                stack.push(U256::from(value));
                return Ok(pc + 1 + n);
            }
            let imm = code.get(pc + 1..).unwrap_or_default();
            let imm = &imm[..n.min(imm.len())];
            let mut word = [0u8; 32];
            word[32 - n..32 - n + imm.len()].copy_from_slice(imm);
            stack.push(U256::from_be_bytes(word));
            return Ok(pc + 1 + n);
        }
        op::DUP1..=op::DUP16 => stack.dup(usize::from(byte - op::DUP1 + 1)),
        op::SWAP1..=op::SWAP16 => stack.swap(usize::from(byte - op::SWAP1 + 1)),
        op::PC => stack.push(U256::from(pc)),
        op::JUMPDEST => {}
        op::JUMP => return check_jump(code, stack.pop()),
        op::JUMPI => {
            let target = stack.pop();
            let cond = stack.pop();
            if !cond.is_zero() {
                return check_jump(code, target);
            }
        }
        other => unreachable!("{other:#04x} is not a straight-line instruction"),
    }
    Ok(pc + 1)
}

/// Memory expansion metering, identical to the reference engine's rules.
fn mem_charge(
    meta: &mut FrameMeta,
    memory: &mut MemLike,
    offset: U256,
    len: U256,
) -> Result<(usize, usize), VmError> {
    let len = len.try_into_usize().ok_or(VmError::MemoryOverflow)?;
    if len == 0 {
        return Ok((0, 0));
    }
    let offset = offset.try_into_usize().ok_or(VmError::MemoryOverflow)?;
    let end = offset.checked_add(len).ok_or(VmError::MemoryOverflow)?;
    if end > (1usize << 37) {
        return Err(VmError::MemoryOverflow);
    }
    let cost = gas::memory_expansion_cost(memory.len(), memory.required_size(offset, len));
    if !meta.gas.charge(cost) {
        return Err(VmError::OutOfGas);
    }
    memory.expand(offset, len);
    Ok((offset, len))
}

fn copy_triplet(meta: &mut FrameMeta, data: &mut FrameData) -> Result<(usize, usize, usize), VmError> {
    let dst = data.stack.pop()?;
    let src = data.stack.pop()?;
    let len = data.stack.pop()?;
    let (dst, len) = mem_charge(meta, &mut data.memory, dst, len)?;
    if !meta.gas.charge(gas::copy_cost(len)) {
        return Err(VmError::OutOfGas);
    }
    let src = src.try_into_usize().unwrap_or(usize::MAX);
    Ok((dst, src, len))
}

#[inline(always)]
fn check_jump(code: &Code, target: U256) -> Result<usize, VmError> {
    let target = target.try_into_usize().ok_or(VmError::InvalidJump)?;
    if !code.jumpdests().is_valid(target) {
        return Err(VmError::InvalidJump);
    }
    Ok(target)
}
