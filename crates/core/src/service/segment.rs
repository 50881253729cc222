// ---------------------------------------------------------------------------
// One bundle segment: prepare → execute → commit.
//
// * `prepare_task` (shared clock, `&mut` device) — revocation check,
//   channel delivery with its fault draws and sequence numbers, one
//   static pass over the top-level callees (admission, lints, prefetch
//   plans), and the per-dispatch RNG draws for the HEVM config.
//   Everything that touches shared mutable state before a core is
//   taken.
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

use super::{Bundle, BundleReport, HarDTape, PreExecOutcome, ServiceError, UserHandle};
use crate::config::SecurityConfig;
use crate::reader::HybridState;
use std::sync::Arc;
use tape_analysis::{AnalysisConfig, CodeAnalysis, LintFinding};
use tape_crypto::secp::VerifyingKey;
use tape_crypto::SecretKey;
use tape_evm::{Env, TxResult};
use tape_hevm::{Checkpoint, Hevm, HevmAbort, HevmConfig, HevmStats, SliceOutcome};
use tape_oram::ObliviousState;
use tape_primitives::{Address, U256};
use tape_sim::fault::{Ablation, FaultSite};
use tape_sim::telemetry::{CounterId, HistId, PhaseKind, Sink, TaskBuffer, TelemetryEvent};
use tape_sim::{Clock, CostModel, Nanos};
use tape_state::{InMemoryState, StateChanges};
use tape_tee::channel::{sign_bundle, verify_bundle};
use tape_tee::hypervisor::SlotError;

/// The bundle-level progress a segment starts from and leaves behind:
/// built once when a fresh bundle first takes a core, then moved
/// through [`execute_task`] and the segment driver into either the
/// next [`BundlePause`] or the report.
#[derive(Debug)]
struct Progress {
    /// Fully resolved engine config, including the per-dispatch
    /// layer-3 key/noise draws made at prepare in dispatch order.
    hevm_config: HevmConfig,
    /// One entry per retired transaction, and the time each took.
    results: Vec<TxResult>,
    per_tx: Vec<Nanos>,
    /// Index of the transaction in flight.
    tx_index: usize,
    /// Execution time earlier segments already spent on it.
    tx_elapsed: Nanos,
    lints: Vec<(Address, LintFinding)>,
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
    progress: Progress,
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
            .skip(self.progress.tx_index + 1)
            .map(|tx| tx.gas_limit)
            .sum();
        self.checkpoint.remaining_gas().saturating_add(rest)
    }
}

/// How one [`drive_segment`] call ended (internal).
// Same transient-return-value argument as `PreExecOutcome` for the
// variant-size disparity.
#[allow(clippy::large_enum_variant)]
enum SegmentOutcome {
    /// Every transaction retired; `progress` carries the results.
    Finished { progress: Progress, changes: StateChanges, stats: HevmStats },
    /// The current transaction's gas slice ran out mid-execution.
    Yielded(BundlePause),
}

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
        /// Its public half, prepared at connect, which the device
        /// verifies against.
        user_public: Arc<VerifyingKey>,
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

/// How one executed task ended (before commit-time accounting), short
/// of failing: the bundle-signature check, the HEVM abort classes and
/// ORAM integrity are the `Err` beside it.
// Variant sizes differ for the same reason as `PreExecOutcome`: the
// pause embeds the full checkpoint and the value is transient.
#[allow(clippy::large_enum_variant)]
enum TaskOutcome {
    /// The bundle retired; the trace is signed and ready to seal.
    Done {
        report: BundleReport,
        /// The canonical trace encoding the signature covers (timing
        /// fields excluded, so sealing at commit signs the same bytes).
        trace: Vec<u8>,
    },
    /// The gas slice ran out; the pause re-queues at commit.
    Preempted(BundlePause),
}

/// A task a pool worker already executed off the shared timeline:
/// everything `commit_task` needs to splice it in.
pub(crate) struct FinishedTask {
    started: Nanos,
    /// Virtual time the task consumed on its private clock.
    duration: Nanos,
    /// Task-private telemetry, replayed (rebased) at commit.
    buffer: TaskBuffer,
    outcome: Result<TaskOutcome, ServiceError>,
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

    /// Whether executing a bundle leaves every piece of state other
    /// bundles share untouched, so tasks may run ahead of their commit
    /// on the worker pool: no ORAM (its tree and the shared clock move
    /// with every query), and no armed `PageStore` fault budget (an
    /// armed site draws from the shared fault RNG mid-execution). Only
    /// an ORAM draws from `OramServer`, so a budget there never decides.
    /// The budget drains during a run, so this can turn true while a
    /// gateway is serving.
    pub(crate) fn pooled_eligible(&self) -> bool {
        self.oram.is_none()
            && self
                .faults
                .as_ref()
                .is_none_or(|plan| plan.remaining_budget(FaultSite::PageStore) == 0)
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
    /// Static admission is decided here and nowhere else: every
    /// top-level callee's sound stack bound must fit the Layer-1/Layer-2
    /// capacities, or the bundle is refused, naming the first offending
    /// callee in transaction order, before a core is assigned, instead
    /// of faulting mid-bundle on a hardware limit.
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
        record_phase_into(&mut self.telemetry.clone(), &self.clock, PhaseKind::Receive, started);

        // Static pass over the bundle's top-level callees (§IV-D): the
        // decode phase already knows every `to` address.
        let mut callees: Vec<(Address, Arc<CodeAnalysis>)> = Vec::new();
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
                callees.push((to, analysis));
            }
        }
        // Secret-dependency lints, surfaced per bundle in the signed
        // report (sorted for a deterministic encoding).
        let mut lints: Vec<(Address, LintFinding)> = Vec::new();
        for (addr, analysis) in &callees {
            lints.extend(analysis.lints.iter().map(|l| (*addr, *l)));
        }
        lints.sort_unstable();
        let plans = self.oram.is_some().then(|| self.prefetch_plans(bundle, callees, &seen));

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
                user_public: Arc::clone(&user.user_public),
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
            Err(ServiceError::Hevm(HevmAbort::Layer3Tampered | HevmAbort::Watchdog { .. }))
        );
        let quarantined = if core_failure {
            self.hypervisor.record_failure(slot)
        } else {
            self.hypervisor.record_success(slot);
            false
        };
        if !quarantined {
            self.hypervisor.release(slot, user.session).expect("slot was assigned above");
        }
        // Integrity failures revoke the session: the bundle is aborted
        // and the user must re-attest before submitting another one.
        if matches!(
            &outcome,
            Err(ServiceError::Oram(_) | ServiceError::Hevm(HevmAbort::Layer3Tampered))
        ) {
            self.revoked.insert(user.session);
        }
        match outcome? {
            TaskOutcome::Preempted(mut pause) => {
                pause.started = started;
                pause.session = user.session;
                Ok(PreExecOutcome::Preempted(pause))
            }
            TaskOutcome::Done { mut report, trace } => {
                // Device → user: seal the signed trace.
                let seal_started = self.clock.now();
                if self.config.security.encryption() {
                    let sealed = user.device_tx.seal(&trace);
                    self.clock
                        .advance(self.cost.protected_message_ns(sealed.payload.len()));
                    let opened =
                        user.from_device.open(&sealed).map_err(ServiceError::Channel)?;
                    debug_assert_eq!(opened, trace);
                }
                let sink = &mut self.telemetry.clone();
                record_phase_into(sink, &self.clock, PhaseKind::Seal, seal_started);
                report.total_ns = self.clock.now() - started;
                self.telemetry.count(CounterId::Bundles, 1);
                self.telemetry.observe(HistId::BundleLatencyNs, report.total_ns);
                Ok(PreExecOutcome::Done(report))
            }
        }
    }
}

// ---- The execute half ------------------------------------------------------
// Everything below is what a pool worker runs: it names neither the
// device nor the session, only the task, `ExecCtx` and what the caller
// hands it (`seam` in tests/gates.rs holds it to that).

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
) -> Result<TaskOutcome, ServiceError> {
    let execute_started;
    // Both arms open the `Execute` window and leave the bundle's
    // progress plus, for a resumed one, the checkpoint to restart from.
    let (progress, checkpoint) = match task.kind {
        TaskKind::Fresh { payload, user_key, user_public, lints, plans, hevm_config } => {
            let signature = ctx.security.signature().then(|| sign_bundle(&user_key, &payload));
            let decode_started = clock.now();
            if let Some(sig) = &signature {
                // Device verifies the user's bundle signature on the A53.
                clock.advance(ctx.cost.ecdsa_verify_ns);
                verify_bundle(&user_public, &payload, sig).map_err(ServiceError::Channel)?;
            }
            record_phase_into(sink, clock, PhaseKind::Decode, decode_started);

            execute_started = clock.now();
            if let (Some(oram), Some(plans)) = (oram, &plans) {
                plans.apply(oram);
            }
            let txs = bundle.transactions.len();
            let progress = Progress {
                hevm_config,
                results: Vec::with_capacity(txs),
                per_tx: Vec::with_capacity(txs),
                tx_index: 0,
                tx_elapsed: 0,
                lints,
            };
            (progress, None)
        }
        TaskKind::Resume(pause) => {
            execute_started = clock.now();
            (pause.progress, Some(pause.checkpoint))
        }
    };
    // The reader detached at a suspension was just a view of the device
    // state; a resumed bundle gets a fresh one like a fresh bundle does
    // (the world may even have advanced a block — pre-execution reads
    // whatever the device's current head serves, exactly like a bundle
    // that was still queued).
    let reader = HybridState::new(ctx.security, ctx.local, oram);
    let (config, env) = (progress.hevm_config.clone(), ctx.env.clone());
    let resumed = checkpoint.is_some();
    let hevm = match checkpoint {
        None => Hevm::new(config, env, reader, clock.clone()),
        Some(checkpoint) => Hevm::resume(config, env, reader, clock.clone(), checkpoint),
    };
    let segment = drive_segment(bundle, hevm, progress, resumed, oram, sink);
    record_phase_into(sink, clock, PhaseKind::Execute, execute_started);
    sink.observe(HistId::ExecuteNs, clock.now() - execute_started);
    if let Some(oram) = oram {
        // Segment/bundle end: on-chip caches cleared (before the trace
        // is signed) so the core can serve another tenant.
        oram.clear_cache();
    }
    let (progress, changes, hevm_stats) = match segment? {
        SegmentOutcome::Yielded(pause) => return Ok(TaskOutcome::Preempted(pause)),
        SegmentOutcome::Finished { progress, changes, stats } => (progress, changes, stats),
    };
    let mut report = BundleReport {
        results: progress.results,
        changes,
        per_tx_ns: progress.per_tx,
        total_ns: 0,
        signature: None,
        hevm_stats,
        staleness: None,
        lints: progress.lints,
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
    Ok(TaskOutcome::Done { report, trace })
}

/// Drives an engine until the slice yields or the bundle retires —
/// taking the first slice itself: a resumed engine continues the
/// transaction its checkpoint paused, a fresh one starts the bundle's
/// first — and flushes swap traffic and segment telemetry into `sink`.
/// Runs on the engine's clock and cost model.
fn drive_segment<S: Sink>(
    bundle: &Bundle,
    mut hevm: Hevm<HybridState<'_>>,
    mut progress: Progress,
    resumed: bool,
    oram: Option<&ObliviousState>,
    sink: &mut S,
) -> Result<SegmentOutcome, ServiceError> {
    let clock = hevm.clock().clone();
    let dispatch_ns = progress.hevm_config.cost.sched_dispatch_ns;
    // Putting a context on a core is not free, whether it is a
    // bundle's first dispatch or the Hypervisor's scheduler restoring
    // a parked HEVM: charged inside the segment window (but outside
    // per-transaction time), so preemption's overhead shows up in
    // every latency built on the segment, and a bundle suspended
    // S−1 times carries exactly 2S−1 dispatch charges — S dispatches
    // plus S−1 parks.
    clock.advance(dispatch_ns);
    let mut before = clock.now();
    let mut outcome = if resumed {
        Some(hevm.continue_transact())
    } else {
        bundle.transactions.first().map(|tx| hevm.transact_sliced(tx))
    };
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
                progress.per_tx.push(progress.tx_elapsed + (clock.now() - before));
                progress.tx_elapsed = 0;
                progress.results.push(result);
                progress.tx_index += 1;
                if progress.tx_index == bundle.transactions.len() {
                    break;
                }
                before = clock.now();
                outcome = Some(hevm.transact_sliced(&bundle.transactions[progress.tx_index]));
            }
            SliceOutcome::Preempted { segment } => {
                progress.tx_elapsed += clock.now() - before;
                // Parking the context costs scheduler time on top of
                // the cover swaps; charge it to the segment (not the
                // transaction) so suspension is never free.
                clock.advance(dispatch_ns);
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
                // `started` and `session` are stamped at commit.
                return Ok(SegmentOutcome::Yielded(BundlePause {
                    checkpoint,
                    progress,
                    started: 0,
                    session: 0,
                }));
            }
        }
    }
    let changes = hevm.state().changes();
    let stats = hevm.stats();
    // Swap traffic into telemetry while the engine is still alive (the
    // swap log dies with it).
    for swap in hevm.swap_log() {
        record_swap_into(sink, swap);
    }
    Ok(SegmentOutcome::Finished { progress, changes, stats })
}

/// One layer-3 swap event into the event stream.
fn record_swap_into<S: Sink>(sink: &mut S, swap: &tape_hevm::SwapEvent) {
    let out = swap.pages_out > 0;
    let (observed, true_pages) = if out {
        (swap.pages_out, swap.true_pages_out)
    } else {
        (swap.pages_in, swap.true_pages_in)
    };
    sink.record(TelemetryEvent::Swap {
        at: swap.at,
        out,
        true_pages: true_pages as u32,
        observed_pages: observed as u32,
    });
}
