//! The overload-resilient multi-tenant gateway.
//!
//! The paper dedicates one HEVM per bundle and sizes a chip at ~3 cores
//! (§VI-D); under "millions of users" demand routinely exceeds that
//! hardware budget. [`Gateway`] sits between connected users and the
//! HEVM pool and makes overload a first-class, *typed* state instead of
//! an unbounded queue:
//!
//! * **Admission control** — each tenant gets a bounded FIFO
//!   ([`tape_sim::queue::BoundedQueue`]); a global admission budget
//!   ([`GatewayConfig::admission_budget`], cores × queue depth by
//!   default) caps total queued work. Beyond either bound, submission
//!   is refused with [`GatewayError::Overloaded`] carrying a
//!   `retry_after` hint.
//! * **Deadline propagation** — every bundle is stamped with a
//!   virtual-clock deadline at admission and re-checked at dequeue;
//!   stale work is shed with [`GatewayError::DeadlineExceeded`] *before*
//!   it wastes a core.
//! * **Fair scheduling** — deficit round-robin over tenant queues
//!   ([`tape_sim::queue::Drr`]); a bundle costs its transaction count,
//!   so a tenant submitting heavyweight bundles is served
//!   proportionally fewer of them and cannot starve light tenants.
//! * **Preemption** — when the device is configured with a `gas_slice`,
//!   a long-running bundle yields its core at the slice boundary and is
//!   re-queued at the *back* of its tenant queue carrying its typed
//!   checkpoint ([`crate::service::BundlePause`]); short bundles jump
//!   ahead, so one gas-bomb tenant cannot monopolize a core for a whole
//!   bundle's worth of virtual time. `retry_after` hints are computed
//!   from the *remaining-segment* backlog, so a queue of nearly-done
//!   bundles no longer inflates the hint to whole-bundle cost.
//! * **Circuit breaking** — block-feed syncs go through a
//!   [`CircuitBreaker`]; a persistent outage opens it, later syncs are
//!   refused cheaply ([`GatewayError::FeedBreakerOpen`]) without
//!   consuming inline retry budget, and bundles keep executing against
//!   the last attested head with an explicit [`StalenessBound`] stamped
//!   on every affected report.
//!
//! * **Worker-pool execution** — every served bundle goes through the
//!   device's prepare → execute → commit steps. Unless executing a
//!   bundle mutates state other bundles share (see
//!   [`Gateway::run_round`]), a round prepares all its bundles in the
//!   DRR loop, fans their execution across [`GatewayConfig::workers`]
//!   host threads (each against a private virtual clock), and commits
//!   them onto the shared timeline in dispatch order. Virtual time
//!   stays serialized, so the schedule — and every digest — is
//!   byte-identical for 1 and N workers; only host wall-clock time
//!   shrinks. Completions are merged into a single deterministic
//!   global order by [`merge_completions`].
//!
//! Everything is driven by the deterministic virtual clock, so a given
//! seed and submission sequence produces a byte-identical schedule —
//! the property the chaos soak harness (`tests/soak.rs`) asserts.

use crate::config::GatewayConfig;
use crate::pool;
use crate::service::{
    Bundle, BundlePause, BundleReport, Execution, ForkPoint, HarDTape, PreExecOutcome,
    PreparedTask, ServiceError, StalenessBound, SyncOutcome, UserHandle,
};
use std::collections::HashMap;
use tape_hevm::HevmConfig;
use tape_node::{BreakerState, CircuitBreaker, FeedSet};
use tape_sim::queue::{BoundedQueue, Drr, EventLog, QueueStats};
use tape_sim::telemetry::{CounterId, GaugeId, TelemetryEvent};
use tape_sim::Nanos;

/// Typed gateway-level failures. Service-level errors pass through as
/// [`GatewayError::Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// Admission refused: queues are full. Retry after the hinted
    /// virtual duration.
    Overloaded {
        /// Estimated virtual time until a slot frees up.
        retry_after: Nanos,
    },
    /// The bundle waited past its deadline and was shed at dequeue,
    /// before consuming a core.
    DeadlineExceeded {
        /// When the bundle was admitted.
        admitted_at: Nanos,
        /// The deadline it missed.
        deadline: Nanos,
        /// Virtual time at the dequeue that shed it.
        now: Nanos,
    },
    /// The block-feed circuit breaker is open; no sync was attempted.
    FeedBreakerOpen {
        /// Virtual time until the breaker admits a half-open probe.
        retry_after: Nanos,
    },
    /// The session id is not registered with this gateway.
    UnknownSession(u64),
    /// The underlying service failed the bundle (typed, per PR 1).
    Service(ServiceError),
}

impl core::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GatewayError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {retry_after} virtual ns")
            }
            GatewayError::DeadlineExceeded { deadline, now, .. } => {
                write!(f, "deadline {deadline} passed at dequeue time {now}; bundle shed")
            }
            GatewayError::FeedBreakerOpen { retry_after } => {
                write!(f, "feed breaker open; retry after {retry_after} virtual ns")
            }
            GatewayError::UnknownSession(s) => write!(f, "unknown session {s}"),
            GatewayError::Service(e) => write!(f, "service: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<ServiceError> for GatewayError {
    fn from(e: ServiceError) -> Self {
        GatewayError::Service(e)
    }
}

/// The terminal outcome of one admitted bundle: exactly one of these is
/// produced per ticket, either a report or a typed error — admitted
/// work is never silently dropped.
#[derive(Debug)]
pub struct Completion {
    /// The admission ticket [`Gateway::submit`] returned.
    pub ticket: u64,
    /// The owning session.
    pub session: u64,
    /// Virtual time, on the device clock, the bundle was admitted.
    pub admitted_at: Nanos,
    /// Virtual time, on the device clock, the bundle resolved: the
    /// instant its `complete`, `error` or `shed` line is logged.
    pub completed_at: Nanos,
    /// Report, or the typed error that terminated the bundle.
    pub outcome: Result<BundleReport, GatewayError>,
}

/// Merges per-task completions into the single deterministic global
/// order the pooled runtime reports: ascending [`Completion::completed_at`],
/// ties broken by admission ticket. Workers race on host time only, so
/// two tasks that finish at the same *virtual* instant (e.g. two
/// zero-cost sheds in one round) must not surface in host-arrival
/// order — the ticket tiebreak pins them.
pub fn merge_completions(mut completions: Vec<Completion>) -> Vec<Completion> {
    completions.sort_by_key(|completion| (completion.completed_at, completion.ticket));
    completions
}

/// One queued bundle surrendered by [`Gateway::drain_for_failover`]:
/// everything a fleet router needs to re-home the work after its
/// device failed.
#[derive(Debug)]
pub struct FailoverEntry {
    /// The owning session on the failed gateway.
    pub session: u64,
    /// The admission ticket the bundle was issued.
    pub ticket: u64,
    /// Virtual time, on the failed device's clock, the bundle was
    /// admitted.
    pub admitted_at: Nanos,
    /// The bundle itself, resubmittable on a surviving device.
    pub bundle: Bundle,
}

/// Aggregate gateway counters (instrumentation for tests and ops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Bundles admitted into a queue.
    pub admitted: u64,
    /// Submissions refused with [`GatewayError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Admitted bundles shed at dequeue for missing their deadline.
    pub shed_deadline: u64,
    /// Bundles that reached a core and returned a report.
    pub completed_ok: u64,
    /// Bundles that reached a core, or were refused by the device at
    /// dequeue (revoked session, channel attack, static admission), and
    /// returned a typed error.
    pub completed_err: u64,
    /// Reports stamped with a staleness bound (feed breaker not closed).
    pub served_stale: u64,
    /// Syncs refused because the breaker was open.
    pub sync_refused: u64,
    /// Always 0: the device judges a bundle at its dequeue, against the
    /// head of that moment, so a reorg sheds nothing from the queues.
    /// `benchmark/` still reads it (ROADMAP finding (a)).
    pub shed_reorg: u64,
    /// Segment preemptions: a bundle yielded its core at a gas-slice
    /// boundary and was re-queued with its checkpoint. One bundle can
    /// contribute many preemptions before its single completion.
    pub preempted: u64,
}

struct Tenant {
    session: u64,
    handle: UserHandle,
    queue: BoundedQueue<Admitted>,
}

struct Admitted {
    ticket: u64,
    bundle: Bundle,
    admitted_at: Nanos,
    deadline: Nanos,
    cost: u64,
    /// Mid-execution checkpoint from a preempted segment. `Some` means
    /// the bundle already ran at least one gas slice and re-queued; the
    /// next dequeue resumes it instead of starting over. The deadline
    /// still applies while re-queued — a shed preempted bundle discards
    /// the pause (its overlay simply evaporates) and still resolves to
    /// exactly one typed completion.
    pause: Option<BundlePause>,
}

impl Admitted {
    /// This bundle's one completion, resolved at `completed_at`.
    fn completion(
        &self,
        session: u64,
        completed_at: Nanos,
        outcome: Result<BundleReport, GatewayError>,
    ) -> Completion {
        let (ticket, admitted_at) = (self.ticket, self.admitted_at);
        Completion { ticket, session, admitted_at, completed_at, outcome }
    }
}

/// Virtual time from admission to dequeue before a queued bundle is
/// shed: the service watchdog (30 virtual seconds) per slot of the
/// default queue depth a bundle may wait behind.
const DEADLINE_NS: Nanos = 8 * 30_000_000_000;

/// Consecutive failed syncs before the feed breaker opens: three
/// strikes, the HEVM core-quarantine discipline.
const BREAKER_THRESHOLD: u32 = 3;

/// Virtual time the open feed breaker waits before a half-open probe:
/// one mainnet block interval.
const BREAKER_COOLDOWN_NS: Nanos = 12_000_000_000;

/// The front-end between connected users and the HEVM core pool. See
/// the [module docs](self) for the overload discipline it enforces.
pub struct Gateway {
    device: HarDTape,
    config: GatewayConfig,
    tenants: Vec<Tenant>,
    by_session: HashMap<u64, usize>,
    drr: Drr,
    breaker: CircuitBreaker,
    queued_total: usize,
    next_ticket: u64,
    last_sync_at: Option<Nanos>,
    log: EventLog,
    stats: GatewayStats,
    /// Last breaker state reported to telemetry (transition detection).
    last_breaker: BreakerState,
    /// Fork point of the most recent reorg the device applied: stamped
    /// into [`StalenessBound`]s so degraded reports disclose that the
    /// chain behind them was recently rewritten.
    last_fork: Option<ForkPoint>,
}

/// One prepared dispatch awaiting commit: the queue entry it came
/// from (checkpoint already consumed into the task), plus what commit
/// needs to know about the moment it was dequeued.
struct Dispatch {
    index: usize,
    admitted: Admitted,
    degraded: bool,
    dispatched_at: Nanos,
}

impl core::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Gateway")
            .field("tenants", &self.tenants.len())
            .field("queued", &self.queued_total)
            .field("budget", &self.config.admission_budget)
            .finish()
    }
}

impl Gateway {
    /// Wraps a booted device in a gateway with the given admission
    /// bounds and worker count.
    pub fn new(device: HarDTape, config: GatewayConfig) -> Self {
        Gateway {
            device,
            config,
            tenants: Vec::new(),
            by_session: HashMap::new(),
            drr: Drr::default(),
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN_NS),
            queued_total: 0,
            next_ticket: 1,
            last_sync_at: None,
            log: EventLog::new(),
            stats: GatewayStats::default(),
            last_breaker: BreakerState::Closed,
            last_fork: None,
        }
    }

    /// Detects and records a breaker state transition (including the
    /// time-driven open → half-open one).
    fn note_breaker(&mut self) {
        let now = self.now();
        let state = self.breaker.state(now);
        if state != self.last_breaker {
            let t = self.device.telemetry();
            t.record(TelemetryEvent::Breaker {
                at: now,
                state: match state {
                    BreakerState::Closed => 0,
                    BreakerState::Open => 1,
                    BreakerState::HalfOpen => 2,
                },
            });
            if state == BreakerState::Open {
                t.count(CounterId::BreakerOpens, 1);
            }
            self.last_breaker = state;
        }
    }

    /// Attests a new user and registers them as a tenant with an empty
    /// bounded queue. Returns the session id used for submissions.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Service`] wrapping the attestation failure — the
    /// same surface [`reconnect`](Self::reconnect) and every other
    /// public method exposes, so callers (the fleet router above all)
    /// match on one error type.
    pub fn connect(&mut self, user_seed: &[u8]) -> Result<u64, GatewayError> {
        let handle = self.device.connect_user(user_seed).map_err(GatewayError::Service)?;
        let session = handle.session;
        let index = self.tenants.len();
        self.tenants.push(Tenant {
            session,
            handle,
            queue: BoundedQueue::new(self.config.queue_depth),
        });
        self.by_session.insert(session, index);
        self.log.record(format_args!("t={} connect session={session}", self.now()));
        Ok(session)
    }

    /// Re-attests a revoked tenant in place: the tenant keeps its queue
    /// position (and any still-queued bundles run under the fresh
    /// session). Returns the new session id.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] for an unregistered session;
    /// any [`ServiceError`] from the handshake.
    pub fn reconnect(&mut self, session: u64, user_seed: &[u8]) -> Result<u64, GatewayError> {
        let index = *self
            .by_session
            .get(&session)
            .ok_or(GatewayError::UnknownSession(session))?;
        let handle = self.device.connect_user(user_seed).map_err(GatewayError::Service)?;
        let fresh = handle.session;
        self.by_session.remove(&session);
        self.by_session.insert(fresh, index);
        self.tenants[index].session = fresh;
        self.tenants[index].handle = handle;
        self.log
            .record(format_args!("t={} reconnect session={session}->{fresh}", self.now()));
        Ok(fresh)
    }

    /// Submits a bundle for `session`. On admission, returns a ticket
    /// that will appear in exactly one [`Completion`]; the bundle's
    /// deadline starts now. What the bundle calls is not judged here:
    /// the device decides static admission at its dequeue.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] for an unregistered session;
    /// [`GatewayError::Overloaded`] (with a `retry_after` hint) when
    /// the global admission budget or the tenant's queue is full.
    pub fn submit(&mut self, session: u64, bundle: Bundle) -> Result<u64, GatewayError> {
        let index = *self
            .by_session
            .get(&session)
            .ok_or(GatewayError::UnknownSession(session))?;
        let now = self.now();
        if self.queued_total >= self.config.admission_budget {
            self.stats.rejected_overloaded += 1;
            let retry_after = self.retry_after_hint();
            // Log/record the worker-count-independent backlog, not the
            // quoted hint: the hint divides by the pool size, which is
            // a host throughput knob that must not perturb the digest.
            let backlog = u64::try_from(self.backlog_estimate()).unwrap_or(Nanos::MAX);
            self.log
                .record(format_args!("t={now} reject session={session} global backlog={backlog}"));
            let t = self.device.telemetry();
            t.count(CounterId::GwRejected, 1);
            t.record(TelemetryEvent::Reject {
                at: now,
                session,
                tenant_local: false,
                backlog_ns: backlog,
            });
            return Err(GatewayError::Overloaded { retry_after });
        }
        let ticket = self.next_ticket;
        let cost = (bundle.transactions.len() as u64).max(1);
        let admitted = Admitted {
            ticket,
            bundle,
            admitted_at: now,
            deadline: now.saturating_add(DEADLINE_NS),
            cost,
            pause: None,
        };
        match self.tenants[index].queue.push(admitted) {
            Ok(()) => {
                self.next_ticket += 1;
                self.queued_total += 1;
                self.stats.admitted += 1;
                self.log.record(format_args!(
                    "t={now} admit session={session} ticket={ticket} cost={cost}"
                ));
                let t = self.device.telemetry();
                t.count(CounterId::GwAdmitted, 1);
                t.record(TelemetryEvent::Admit { at: now, session, ticket });
                t.gauge(GaugeId::GwQueueDepth, self.queued_total as u64);
                Ok(ticket)
            }
            Err(_) => {
                self.stats.rejected_overloaded += 1;
                let retry_after = self.retry_after_hint();
                let backlog = u64::try_from(self.backlog_estimate()).unwrap_or(Nanos::MAX);
                self.log.record(format_args!(
                    "t={now} reject session={session} tenant-queue backlog={backlog}"
                ));
                let t = self.device.telemetry();
                t.count(CounterId::GwRejected, 1);
                t.record(TelemetryEvent::Reject {
                    at: now,
                    session,
                    tenant_local: true,
                    backlog_ns: backlog,
                });
                Err(GatewayError::Overloaded { retry_after })
            }
        }
    }

    /// Runs one deficit-round-robin round: every tenant with queued
    /// work earns a quantum of credit and is served while its deficit
    /// covers the head bundle's cost. Expired bundles are shed at
    /// dequeue (no credit spent — they never reach a core).
    ///
    /// Each served bundle is *prepared* on the shared clock (revocation,
    /// channel delivery, static admission, per-dispatch RNG draws); a
    /// bundle the device refuses there completes at once with its typed
    /// error and never takes a core. A prepared bundle executes and
    /// commits at one of two points. When executing mutates state other
    /// bundles share — an ORAM, or a page-store fault budget that is
    /// still armed — it does so at once, on the shared clock, before the
    /// next bundle is dequeued (so deadlines are re-read after every
    /// bundle). Otherwise the round's tasks fan out across
    /// [`GatewayConfig::workers`] host threads after the DRR loop and
    /// commit in dispatch order. A fault budget drains while the gateway
    /// serves, so the rule is read once per round: a device changes
    /// class between rounds, never inside one. The worker count is never
    /// consulted, so a 1-worker run takes the same code as an N-worker
    /// run and their digests compare byte for byte.
    ///
    /// Returns the completions produced this round, merged by
    /// [`merge_completions`].
    pub fn run_round(&mut self) -> Vec<Completion> {
        let inline = !self.device.pooled_eligible();
        // Sample queue occupancy and DRR pressure at round start.
        let max_deficit =
            (0..self.tenants.len()).map(|i| self.drr.deficit(i)).max().unwrap_or(0);
        let t = self.device.telemetry().clone();
        t.gauge(GaugeId::GwQueueDepth, self.queued_total as u64);
        t.gauge(GaugeId::DrrDeficit, max_deficit);
        t.record(TelemetryEvent::QueueDepth {
            at: self.now(),
            queued: self.queued_total as u32,
            max_deficit,
        });
        let mut done: Vec<Completion> = Vec::new();
        let mut dispatches: Vec<Dispatch> = Vec::new();
        let mut tasks: Vec<PreparedTask> = Vec::new();
        for index in 0..self.tenants.len() {
            if self.tenants[index].queue.is_empty() {
                // The classic DRR rule: an idle queue cannot hoard
                // credit for a future burst.
                self.drr.forfeit(index);
                continue;
            }
            self.drr.begin_round(index);
            loop {
                // Shed every expired head first: deadline is checked at
                // dequeue so stale work never occupies a core.
                while let Some(head) = self.tenants[index].queue.peek() {
                    let now = self.now();
                    if now <= head.deadline {
                        break;
                    }
                    let expired = self.tenants[index]
                        .queue
                        .pop()
                        .unwrap_or_else(|| unreachable!("peeked head exists"));
                    self.queued_total -= 1;
                    self.stats.shed_deadline += 1;
                    let session = self.tenants[index].session;
                    self.log.record(format_args!(
                        "t={now} shed session={session} ticket={} deadline={}",
                        expired.ticket, expired.deadline
                    ));
                    t.count(CounterId::GwShed, 1);
                    t.record(TelemetryEvent::Shed { at: now, session, ticket: expired.ticket });
                    let err = GatewayError::DeadlineExceeded {
                        admitted_at: expired.admitted_at,
                        deadline: expired.deadline,
                        now,
                    };
                    done.push(expired.completion(session, now, Err(err)));
                }
                let Some(head) = self.tenants[index].queue.peek() else {
                    self.drr.forfeit(index);
                    break;
                };
                if !self.drr.try_spend(index, head.cost) {
                    break; // credit exhausted: the tenant waits a round
                }
                let mut admitted = self.tenants[index]
                    .queue
                    .pop()
                    .unwrap_or_else(|| unreachable!("peeked head exists"));
                self.queued_total -= 1;
                let session = self.tenants[index].session;
                let now = self.now();
                self.log.record(format_args!(
                    "t={now} execute session={session} ticket={} segment={}",
                    admitted.ticket,
                    admitted.pause.as_ref().map_or(0, BundlePause::segments),
                ));
                self.note_breaker();
                let degraded = self.last_breaker != BreakerState::Closed;
                let resume = admitted.pause.take();
                match self.device.prepare_task(
                    &mut self.tenants[index].handle,
                    &admitted.bundle,
                    resume,
                ) {
                    Ok(task) => {
                        let dispatch = Dispatch { index, admitted, degraded, dispatched_at: now };
                        if inline {
                            self.commit(dispatch, Execution::Inline(task), &mut done);
                        } else {
                            dispatches.push(dispatch);
                            tasks.push(task);
                        }
                    }
                    Err(err) => {
                        // Refused before taking a core (revoked session,
                        // channel attack, static admission).
                        let err = GatewayError::Service(err);
                        self.stats.completed_err += 1;
                        t.count(CounterId::GwFailed, 1);
                        let now = self.now();
                        self.log.record(format_args!(
                            "t={now} error session={session} ticket={} err={err}",
                            admitted.ticket
                        ));
                        done.push(admitted.completion(session, now, Err(err)));
                    }
                }
            }
        }
        let finished = pool::run_tasks(
            self.config.workers.max(1),
            &self.device.exec_ctx(),
            dispatches.iter().map(|d| &d.admitted.bundle).zip(tasks),
        );
        for (dispatch, finished) in dispatches.into_iter().zip(finished) {
            self.commit(dispatch, Execution::Pooled(finished), &mut done);
        }
        merge_completions(done)
    }

    /// Commits one dispatched segment — executing it first when it is
    /// [`Execution::Inline`] — and does the terminal bookkeeping: a
    /// stamped completion for a finished or failed bundle, nothing
    /// on preemption (the bundle re-queued at the back of its tenant
    /// queue carrying its checkpoint; short bundles queued behind it
    /// jump ahead, and its one completion comes from a later dequeue).
    fn commit(
        &mut self,
        dispatch: Dispatch,
        execution: Execution,
        done: &mut Vec<Completion>,
    ) {
        let Dispatch { index, mut admitted, degraded, dispatched_at } = dispatch;
        let session = self.tenants[index].session;
        let outcome = match self.device.commit_task(
            &mut self.tenants[index].handle,
            &admitted.bundle,
            execution,
        ) {
            Ok(PreExecOutcome::Preempted(pause)) => {
                self.stats.preempted += 1;
                let now = self.now();
                self.log.record(format_args!(
                    "t={now} preempt session={session} ticket={} segment={}",
                    admitted.ticket,
                    pause.segments(),
                ));
                admitted.pause = Some(pause);
                self.queued_total += 1;
                if self.tenants[index].queue.push(admitted).is_err() {
                    unreachable!("re-queueing a just-popped bundle cannot overflow");
                }
                return;
            }
            Ok(PreExecOutcome::Done(mut report)) => {
                if degraded {
                    // The feed is out: the report is served from the
                    // last attested head, and says so.
                    report.staleness = Some(StalenessBound {
                        head: self.device.head(),
                        age_ns: dispatched_at
                            .saturating_sub(self.last_sync_at.unwrap_or(0)),
                        fork_point: self.last_fork,
                    });
                    self.stats.served_stale += 1;
                }
                Ok(report)
            }
            Err(err) => Err(GatewayError::Service(err)),
        };
        self.device.telemetry().count(
            if outcome.is_ok() { CounterId::GwExecuted } else { CounterId::GwFailed },
            1,
        );
        match &outcome {
            Ok(report) => {
                self.stats.completed_ok += 1;
                self.log.record(format_args!(
                    "t={} complete session={session} ticket={} txs={} stale={}",
                    self.now(),
                    admitted.ticket,
                    report.results.len(),
                    report.staleness.is_some(),
                ));
            }
            Err(err) => {
                self.stats.completed_err += 1;
                self.log.record(format_args!(
                    "t={} error session={session} ticket={} err={err}",
                    self.now(),
                    admitted.ticket
                ));
            }
        }
        done.push(admitted.completion(session, self.now(), outcome));
    }

    /// Runs DRR rounds until every queue is empty; every bundle queued
    /// at call time (or admitted concurrently by a fault handler) ends
    /// in exactly one returned [`Completion`].
    pub fn run_until_idle(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        while self.queued_total > 0 {
            completions.extend(self.run_round());
        }
        completions
    }

    /// Synchronizes the device from a Byzantine-tolerant [`FeedSet`]
    /// (one feed or many) through the circuit breaker. While the breaker
    /// is open, no feed is polled (and no inline retry budget is spent):
    /// the call is refused immediately with a typed error and the device
    /// keeps serving from its last attested head. A reorg touches no
    /// queue: every queued bundle is judged at its dequeue, against the
    /// head of that moment.
    ///
    /// # Errors
    ///
    /// [`GatewayError::FeedBreakerOpen`] while the breaker is open; the
    /// underlying [`ServiceError`] otherwise (an outage through every
    /// retry, equivocation without a quorum winner, finality violations,
    /// forged history — all of which also count toward opening the
    /// breaker).
    pub fn sync_set(&mut self, feeds: &mut FeedSet) -> Result<SyncOutcome, GatewayError> {
        let now = self.now();
        if !self.breaker.call_permitted(now) {
            self.stats.sync_refused += 1;
            let retry_after = self.breaker.retry_after(now);
            self.log.record(format_args!("t={now} sync-set refused retry_after={retry_after}"));
            self.note_breaker();
            return Err(GatewayError::FeedBreakerOpen { retry_after });
        }
        let outcome = match self.device.sync_from_feeds(feeds) {
            Ok(outcome) => outcome,
            Err(err) => {
                let now = self.now();
                self.breaker.record_failure(now);
                self.log.record(format_args!(
                    "t={now} sync-set err={err} breaker={}",
                    self.breaker.state(now)
                ));
                self.note_breaker();
                return Err(GatewayError::Service(err));
            }
        };
        self.breaker.record_success();
        self.last_sync_at = Some(self.now());
        match &outcome {
            SyncOutcome::Reorged { fork, depth, adopted, .. } => {
                self.last_fork = Some(*fork);
                self.log.record(format_args!(
                    "t={} sync-set reorg depth={depth} fork={} adopted={adopted}",
                    self.now(),
                    fork.hash,
                ));
            }
            SyncOutcome::Advanced { blocks } => {
                self.log.record(format_args!("t={} sync-set ok blocks={blocks}", self.now()));
            }
            SyncOutcome::AlreadySynced => {
                self.log.record(format_args!("t={} sync-set ok (no-op)", self.now()));
            }
        }
        self.note_breaker();
        Ok(outcome)
    }

    /// The fork point of the most recent reorg the device applied
    /// through this gateway (`None` if none yet).
    pub fn last_fork(&self) -> Option<ForkPoint> {
        self.last_fork
    }

    /// The breaker's current state (cooldown transitions applied).
    pub fn breaker_state(&mut self) -> BreakerState {
        let now = self.now();
        self.breaker.state(now)
    }

    /// Bundles currently queued across all tenants.
    pub fn queued(&self) -> usize {
        self.queued_total
    }

    /// Aggregate counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Per-tenant queue instrumentation, in registration order.
    pub fn tenant_queue_stats(&self) -> Vec<(u64, QueueStats)> {
        self.tenants.iter().map(|t| (t.session, t.queue.stats())).collect()
    }

    /// The running digest of the schedule (admissions, sheds,
    /// executions, completions, syncs) — the soak harness's determinism
    /// witness. Timings are read off [`Completion`]s, not the log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The wrapped device.
    pub fn device(&self) -> &HarDTape {
        &self.device
    }

    /// Mutable device access (fault arming, direct syncs in tests).
    pub fn device_mut(&mut self) -> &mut HarDTape {
        &mut self.device
    }

    /// Virtual time since the last successful sync (since boot if none).
    pub fn staleness_ns(&self) -> Nanos {
        self.now().saturating_sub(self.last_sync_at.unwrap_or(0))
    }

    fn now(&self) -> Nanos {
        self.device.clock().now()
    }

    /// Deterministic drain-time estimate for shed load: how long until
    /// the backlog ahead of a retry has moved through the worker pool.
    ///
    /// The divisor is [`GatewayConfig::workers`] — the number of host
    /// threads that *actually* drain bundles concurrently — not the
    /// device's nominal `hevm_count` (which sizes the hypervisor's
    /// slot table, not the drain rate; quoting it under-estimated the
    /// wait whenever fewer workers than cores were configured). The
    /// backlog is the queued work: a round dispatches and commits
    /// inside one [`Self::run_round`] call, so nothing is in flight
    /// when a caller asks.
    ///
    /// Per queued bundle the charge is its *remaining* work: a fresh
    /// bundle owes the full [`PER_BUNDLE_ESTIMATE_NS`],
    /// a preempted bundle only the fraction of its admitted gas still
    /// unburned — and both owe one scheduler dispatch per remaining
    /// resume plus one per yield between segments
    /// ([`CostModel::sched_dispatch_ns`]). Segment counts for fresh
    /// bundles are estimated from their gas limits and the device's
    /// `gas_slice`, so a queue of not-yet-preempted gas bombs is no
    /// longer quoted as if it would drain in single segments.
    ///
    /// Public so a fleet router can surface a device's own drain time
    /// in its `Overloaded` rejections.
    ///
    /// [`CostModel::sched_dispatch_ns`]: tape_sim::cost::CostModel
    pub fn retry_after_hint(&self) -> Nanos {
        let workers = u128::from(self.config.workers.max(1) as u64);
        let per_worker = self
            .backlog_estimate()
            .div_ceil(workers)
            .max(u128::from(PER_BUNDLE_ESTIMATE_NS));
        u64::try_from(per_worker).unwrap_or(Nanos::MAX)
    }

    /// The undivided backlog: estimated remaining virtual-time work
    /// across every queued bundle. This is what reject logs and
    /// [`TelemetryEvent::Reject`] record — unlike the hint it does not
    /// depend on the worker count, so the digest stays byte-identical
    /// across pool sizes.
    fn backlog_estimate(&self) -> u128 {
        let hevm = &self.device.config().hevm;
        self.tenants
            .iter()
            .flat_map(|tenant| tenant.queue.iter())
            .map(|entry| entry_cost_ns(hevm, &entry.bundle, entry.pause.as_ref()))
            .sum()
    }

    /// Pulls every queued bundle off this gateway for fleet failover,
    /// emptying all tenant queues. A paused entry's checkpoint dies
    /// here — a [`BundlePause`] cannot outlive its device — and the
    /// bundle is returned like a fresh one: re-run from the start on a
    /// survivor, it gives the receipt the lost run would have.
    ///
    /// The drained work is *not* accounted as completed in this
    /// gateway's stats — ownership of the exactly-once obligation moves
    /// to the caller with the returned entries.
    pub fn drain_for_failover(&mut self) -> Vec<FailoverEntry> {
        let now = self.now();
        let mut drained = Vec::with_capacity(self.queued_total);
        for tenant in &mut self.tenants {
            let session = tenant.session;
            while let Some(admitted) = tenant.queue.pop() {
                self.log.record(format_args!(
                    "t={now} failover-drain session={session} ticket={} paused={}",
                    admitted.ticket,
                    admitted.pause.is_some(),
                ));
                drained.push(FailoverEntry {
                    session,
                    ticket: admitted.ticket,
                    admitted_at: admitted.admitted_at,
                    bundle: admitted.bundle,
                });
            }
        }
        self.queued_total = 0;
        drained
    }
}

/// Estimated service time of one bundle, the unit `retry_after` hints
/// on shed load are sized in: 164.4 ms per transaction at `-full`
/// (paper §VI-D).
const PER_BUNDLE_ESTIMATE_NS: Nanos = 164_400_000;

/// Estimated remaining drain cost for one queued bundle: the
/// gas-prorated share of [`PER_BUNDLE_ESTIMATE_NS`] still unburned,
/// plus one scheduler dispatch per remaining resume and one per yield
/// between segments (`2·segments − 1`): one term of
/// [`Gateway::retry_after_hint`]'s backlog sum.
fn entry_cost_ns(hevm: &HevmConfig, bundle: &Bundle, pause: Option<&BundlePause>) -> u128 {
    let est = u128::from(PER_BUNDLE_ESTIMATE_NS);
    let dispatch = u128::from(hevm.cost.sched_dispatch_ns);
    let gas_slice = hevm.gas_slice;
    let total_gas: u64 = bundle.transactions.iter().map(|tx| tx.gas_limit).sum();
    match pause {
        None => {
            // Fresh bundles pay for the segments their gas limits will
            // force, not the one segment they have run so far (zero).
            est + dispatch * (2 * segments_for(gas_slice, total_gas) - 1)
        }
        Some(pause) => {
            let total = u128::from(total_gas.max(1));
            let rest_gas = pause.remaining_gas(bundle);
            let rest = u128::from(rest_gas).min(total);
            (est * rest).div_ceil(total).max(1)
                + dispatch * (2 * segments_for(gas_slice, rest_gas) - 1)
        }
    }
}

/// How many gas-slice segments `gas` still needs (at least one — even
/// an unsliced device dispatches the bundle once).
fn segments_for(gas_slice: Option<u64>, gas: u64) -> u128 {
    match gas_slice {
        Some(slice) if slice > 0 => u128::from(gas.max(1).div_ceil(slice)),
        _ => 1,
    }
}
