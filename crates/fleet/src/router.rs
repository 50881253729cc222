//! The fleet router: one front door over K HarDTAPE devices.
//!
//! The router owns a vector of [`Gateway`]-wrapped devices and presents
//! the same connect/submit/run/sync surface a single gateway does, with
//! three fleet-only behaviours layered on top:
//!
//! * **Sharding** — tenants are pinned to a home device by rendezvous
//!   (highest-random-weight) hashing over the eligible device set, so
//!   adding or losing a device only moves the tenants that must move.
//! * **Health** — every device carries a [`DeviceHealth`] state machine
//!   fed by watchdog strikes (missed rounds, device-grade errors) and
//!   seeded availability faults ([`FaultKind::DeviceCrash`] /
//!   [`FaultKind::DeviceHang`] at [`FaultSite::Device`]). Quarantined
//!   devices are skipped; crashed devices are failed over.
//! * **Migration** — when a device fails, its tenants re-attest on the
//!   surviving device their rendezvous weight now elects, and every
//!   bundle drained from the dead device is resubmitted there under its
//!   original fleet ticket, whether it was queued or paused mid-run. A
//!   run is a pure function of the bundle and the pinned head, so a
//!   paused bundle re-run from the start gives the receipt its lost run
//!   would have. Nothing crosses devices but the tenant's attestation
//!   seed: each survivor serves from its own replica, synced from the
//!   same [`FeedSet`] and sealed under its own ORAM key. Every admitted
//!   fleet ticket still resolves to exactly one [`FleetCompletion`],
//!   timed from its first admission.
//!
//! The router also owns fleet-wide chain sync: all devices sync from
//! the *same* [`FeedSet`] and are expected to adopt the same head;
//! [`FleetRouter::converged_head`] turns disagreement into a typed
//! [`FleetError::SplitHead`].

use std::collections::HashMap;

use hardtape::{
    Bundle, BundleReport, Completion, Gateway, GatewayError, ServiceError, SyncOutcome,
};
use tape_crypto::keccak256;
use tape_node::FeedSet;
use tape_primitives::B256;
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::queue::EventLog;
use tape_sim::Nanos;

use crate::health::{DeviceHealth, HealthState, IDLE_TICK_NS};

/// Typed fleet-level failures. Gateway-level errors pass through in
/// [`FleetError::Gateway`]; the other variants only the router can
/// produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No device in the fleet is currently eligible for new work.
    NoEligibleDevice,
    /// The fleet session id is not registered with the router.
    UnknownSession(u64),
    /// Surviving devices disagree on the adopted chain head.
    SplitHead {
        /// `(device index, adopted head)` for every surviving device.
        heads: Vec<(usize, Option<B256>)>,
    },
    /// An error surfaced by the tenant's home gateway.
    Gateway(GatewayError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::NoEligibleDevice => write!(f, "no eligible device in the fleet"),
            FleetError::UnknownSession(session) => write!(f, "unknown fleet session {session}"),
            FleetError::SplitHead { heads } => {
                write!(f, "fleet head divergence across {} devices", heads.len())
            }
            FleetError::Gateway(err) => write!(f, "gateway: {err}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<GatewayError> for FleetError {
    fn from(err: GatewayError) -> Self {
        FleetError::Gateway(err)
    }
}

/// One finished unit of fleet work: exactly one per admitted fleet
/// ticket, success or typed failure.
#[derive(Debug, Clone)]
pub struct FleetCompletion {
    /// Fleet-wide ticket (router-issued; device tickets are private).
    pub ticket: u64,
    /// Fleet session the work belonged to.
    pub session: u64,
    /// Device that resolved the ticket: the one that ran it, or, for a
    /// refusal the router makes during failover, the survivor that
    /// refused it (the dead device itself when none is left).
    pub device: usize,
    /// Virtual time, on `device`'s clock, the work was admitted there.
    pub admitted_at: Nanos,
    /// Virtual time, on `device`'s clock, the ticket resolved.
    pub completed_at: Nanos,
    /// Wait the ticket served on devices that died holding it, each
    /// measured on its own clock; 0 for work that never moved.
    pub carried_ns: Nanos,
    /// The signed report, or a typed reason there is none.
    pub outcome: Result<BundleReport, FleetError>,
}

impl FleetCompletion {
    /// Admit→complete latency from the ticket's *first* admission: the
    /// time on `device` plus the wait carried from dead devices. No two
    /// clocks are compared.
    pub fn latency_ns(&self) -> Nanos {
        self.completed_at - self.admitted_at + self.carried_ns
    }
}

/// Aggregate router counters (instrumentation for tests and ops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Fleet tickets admitted (queued on some device).
    pub admitted: u64,
    /// Submissions rejected (overload, unknown session, no device).
    pub rejected: u64,
    /// Completions with a signed report.
    pub completed_ok: u64,
    /// Completions with a typed error.
    pub completed_err: u64,
    /// Tenant sessions re-attested onto a surviving device.
    pub migrations: u64,
    /// Devices latched into the terminal `Failed` state.
    pub device_failures: u64,
    /// Device health-state transitions (Healthy/Suspect/Quarantined/
    /// Probation edges, plus terminal Failed).
    pub health_transitions: u64,
}

/// A tenant's routing record.
#[derive(Debug, Clone)]
struct TenantRecord {
    /// Attestation seed, retained so the router can re-attest the
    /// tenant on a survivor during migration.
    seed: Vec<u8>,
    /// Home device index.
    device: usize,
    /// The home gateway's session id for this tenant.
    device_session: u64,
    /// True once the tenant's device failed with no eligible survivor;
    /// later submissions get `NoEligibleDevice`.
    orphaned: bool,
}

/// The fleet router. See the [module docs](self) for the design.
pub struct FleetRouter {
    gateways: Vec<Gateway>,
    health: Vec<DeviceHealth>,
    last_health: Vec<HealthState>,
    /// fleet session → routing record.
    tenants: HashMap<u64, TenantRecord>,
    /// (device index, device ticket) → (fleet ticket, fleet session,
    /// wait served on dead devices). Entries move between devices on
    /// failover, adding the wait on the device they leave, and are
    /// removed when the completion is adopted — exactly-once by
    /// construction.
    tickets: HashMap<(usize, u64), (u64, u64, Nanos)>,
    next_session: u64,
    next_ticket: u64,
    round: u64,
    faults: Option<FaultPlan>,
    log: EventLog,
    stats: FleetStats,
}

impl FleetRouter {
    /// Builds a router over `gateways`. Each device keeps the ORAM key
    /// it drew at boot.
    ///
    /// # Panics
    ///
    /// Panics if `gateways` is empty.
    pub fn new(gateways: Vec<Gateway>) -> Self {
        assert!(!gateways.is_empty(), "a fleet needs at least one device");
        let count = gateways.len();
        let mut log = EventLog::new();
        log.record(format_args!("r=0 fleet-boot devices={count}"));
        FleetRouter {
            health: vec![DeviceHealth::new(); count],
            last_health: vec![HealthState::Healthy; count],
            gateways,
            tenants: HashMap::new(),
            tickets: HashMap::new(),
            next_session: 1,
            next_ticket: 1,
            round: 0,
            faults: None,
            log,
            stats: FleetStats::default(),
        }
    }

    /// Arms a seeded fault plan; the router consults
    /// [`FaultSite::Device`] once per live device per round.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Number of devices (including failed ones; indices are stable).
    pub fn device_count(&self) -> usize {
        self.gateways.len()
    }

    /// Read access to one device's gateway.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn gateway(&self, device: usize) -> &Gateway {
        &self.gateways[device]
    }

    /// Mutable access to one device's gateway (test rigs poke devices
    /// directly; routed traffic should use the router surface).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn gateway_mut(&mut self, device: usize) -> &mut Gateway {
        &mut self.gateways[device]
    }

    /// The current health of one device, on that device's clock.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn health_state(&mut self, device: usize) -> HealthState {
        let now = self.device_now(device);
        self.health[device].state(now)
    }

    /// The router's own schedule digest (device gateways keep their
    /// own).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Aggregate router counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Bundles queued across all surviving devices.
    pub fn queued_total(&self) -> usize {
        self.gateways
            .iter()
            .zip(&self.health)
            .filter(|(_, health)| !health.is_failed())
            .map(|(gateway, _)| gateway.queued())
            .sum()
    }

    /// The tenant's current home device, if the session is known.
    pub fn tenant_device(&self, session: u64) -> Option<usize> {
        self.tenants.get(&session).map(|record| record.device)
    }

    /// Deterministic fleet digest: the router's log plus every device's
    /// gateway log and device telemetry, in device order. Two runs with
    /// the same seeds must produce the same value.
    pub fn digest(&self) -> String {
        let mut parts = vec![self.log.digest()];
        for gateway in &self.gateways {
            parts.push(gateway.log().digest());
            parts.push(gateway.device().telemetry().digest());
        }
        parts.join(":")
    }

    /// Rendezvous (highest-random-weight) election among currently
    /// eligible devices: weight = keccak(seed ‖ "/hrw/" ‖ index), the
    /// winner is the highest weight. Losing a device re-elects only
    /// that device's tenants; everyone else's maximum is unchanged.
    fn rendezvous(&mut self, seed: &[u8]) -> Option<usize> {
        let mut best: Option<(B256, usize)> = None;
        for index in 0..self.gateways.len() {
            if !self.device_eligible(index) {
                continue;
            }
            let mut material = Vec::with_capacity(seed.len() + 14);
            material.extend_from_slice(seed);
            material.extend_from_slice(b"/hrw/");
            material.extend_from_slice(&(index as u64).to_be_bytes());
            let weight = keccak256(&material);
            if best.as_ref().is_none_or(|(top, _)| weight.as_bytes() > top.as_bytes()) {
                best = Some((weight, index));
            }
        }
        best.map(|(_, index)| index)
    }

    /// Virtual time on `device`'s own clock.
    fn device_now(&self, device: usize) -> Nanos {
        self.gateways[device].device().clock().now()
    }

    fn device_eligible(&mut self, device: usize) -> bool {
        let now = self.device_now(device);
        self.health[device].eligible(now)
    }

    /// Records a health transition (if any) in the log and the stats.
    fn note_health(&mut self, device: usize) {
        let now = self.device_now(device);
        let state = self.health[device].state(now);
        if state != self.last_health[device] {
            self.stats.health_transitions += 1;
            self.log.record(format_args!(
                "r={} health device={device} {} -> {}",
                self.round, self.last_health[device], state
            ));
            self.last_health[device] = state;
        }
    }

    fn strike(&mut self, device: usize, reason: &str) {
        let now = self.device_now(device);
        self.health[device].strike(now);
        self.log.record(format_args!("r={} strike device={device} reason={reason}", self.round));
        self.note_health(device);
    }

    /// Attests a new tenant, pinning it to its rendezvous-elected home
    /// device, and returns the fleet session id.
    pub fn connect(&mut self, user_seed: &[u8]) -> Result<u64, FleetError> {
        let device = self.rendezvous(user_seed).ok_or(FleetError::NoEligibleDevice)?;
        let device_session = self.gateways[device].connect(user_seed)?;
        let session = self.next_session;
        self.next_session += 1;
        self.tenants.insert(
            session,
            TenantRecord {
                seed: user_seed.to_vec(),
                device,
                device_session,
                orphaned: false,
            },
        );
        self.log.record(format_args!("r={} connect session={session} device={device}", self.round));
        Ok(session)
    }

    /// Re-attests a tenant on its current home device (e.g. after a
    /// channel-tamper revocation), keeping the fleet session id.
    pub fn reconnect(&mut self, session: u64, user_seed: &[u8]) -> Result<u64, FleetError> {
        let record = self.tenants.get(&session).ok_or(FleetError::UnknownSession(session))?;
        if record.orphaned {
            return Err(FleetError::NoEligibleDevice);
        }
        let (device, device_session) = (record.device, record.device_session);
        let fresh = self.gateways[device].reconnect(device_session, user_seed)?;
        if let Some(record) = self.tenants.get_mut(&session) {
            record.device_session = fresh;
            record.seed = user_seed.to_vec();
        }
        let round = self.round;
        self.log.record(format_args!("r={round} reconnect session={session} device={device}"));
        Ok(session)
    }

    /// Submits a bundle for the tenant's home device and returns the
    /// fleet ticket. On overload the retry hint is the *home* device's
    /// own [`Gateway::retry_after_hint`]: rendezvous sharding pins the
    /// tenant to that device, so a retry lands there again no matter
    /// how idle a sibling is. (An earlier version quoted the minimum
    /// hint over all eligible devices — a caller backing off for the
    /// idle sibling's drain time then retried into a still-congested
    /// home and was rejected again. If the router ever routes around a
    /// congested home, the hint should widen with it.)
    pub fn submit(&mut self, session: u64, bundle: Bundle) -> Result<u64, FleetError> {
        let record = self.tenants.get(&session).ok_or(FleetError::UnknownSession(session))?;
        if record.orphaned {
            self.stats.rejected += 1;
            return Err(FleetError::NoEligibleDevice);
        }
        let (device, device_session) = (record.device, record.device_session);
        assert!(
            !self.health[device].is_failed(),
            "fail_device migrates or orphans every tenant homed on the device it fails"
        );
        if !self.device_eligible(device) {
            // Quarantined home: the bundle would sit un-dispatched, so
            // reject with the time left on the quarantine clock.
            let now = self.device_now(device);
            self.stats.rejected += 1;
            return Err(FleetError::Gateway(GatewayError::Overloaded {
                retry_after: self.health[device].retry_after(now),
            }));
        }
        match self.gateways[device].submit(device_session, bundle) {
            Ok(device_ticket) => {
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.tickets.insert((device, device_ticket), (ticket, session, 0));
                self.stats.admitted += 1;
                Ok(ticket)
            }
            Err(GatewayError::Overloaded { retry_after }) => {
                // Clamped to 1ns: a zero hint reads as "not a hint".
                self.stats.rejected += 1;
                Err(FleetError::Gateway(GatewayError::Overloaded {
                    retry_after: retry_after.max(1),
                }))
            }
            Err(other) => {
                self.stats.rejected += 1;
                Err(FleetError::Gateway(other))
            }
        }
    }

    /// Runs one scheduling round on every live device, in device order,
    /// consulting the armed fault plan per device first. Returns the
    /// round's fleet completions (including failover refusals if a
    /// device crashed mid-round).
    pub fn run_round(&mut self) -> Vec<FleetCompletion> {
        self.round += 1;
        let round = self.round;
        let mut out = Vec::new();
        for device in 0..self.gateways.len() {
            if self.health[device].is_failed() {
                continue;
            }
            let decision = self
                .faults
                .as_ref()
                .and_then(|plan| {
                    plan.decide_for(
                        FaultSite::Device,
                        &[FaultKind::DeviceCrash, FaultKind::DeviceHang],
                    )
                });
            match decision.map(|d| d.kind) {
                Some(FaultKind::DeviceCrash) => {
                    self.log.record(format_args!("r={round} fault device={device} kind=crash"));
                    out.extend(self.fail_device(device));
                    continue;
                }
                Some(FaultKind::DeviceHang) => {
                    // A wedged round: the watchdog sees nothing come
                    // back and strikes; device time still passes.
                    self.log.record(format_args!("r={round} fault device={device} kind=hang"));
                    self.strike(device, "hang");
                    self.gateways[device].device().clock().advance(IDLE_TICK_NS);
                    continue;
                }
                _ => {}
            }
            // Apply any pending cooldown transition before deciding.
            self.note_health(device);
            let now = self.device_now(device);
            let state = self.health[device].state(now);
            if state == HealthState::Quarantined {
                // Skipped round: burn idle time so the cooldown elapses.
                self.gateways[device].device().clock().advance(IDLE_TICK_NS);
                continue;
            }
            let completions = self.gateways[device].run_round();
            let device_grade = completions.iter().any(|completion| {
                matches!(
                    completion.outcome,
                    Err(GatewayError::Service(ServiceError::AllCoresQuarantined))
                )
            });
            if device_grade {
                self.strike(device, "all-cores-quarantined");
            } else if matches!(state, HealthState::Suspect | HealthState::Probation) {
                self.health[device].healed();
                self.note_health(device);
            }
            for completion in completions {
                out.push(self.adopt_completion(device, completion));
            }
        }
        out
    }

    /// Drains the fleet: rounds until no surviving device has queued
    /// work. Terminates even through quarantines because skipped rounds
    /// advance the skipped device's clock by a fixed idle tick.
    pub fn run_until_idle(&mut self) -> Vec<FleetCompletion> {
        let mut out = Vec::new();
        while self.queued_total() > 0 {
            out.extend(self.run_round());
        }
        out
    }

    /// Translates a device completion into the fleet's ticket space and
    /// retires the ticket mapping (exactly-once).
    fn adopt_completion(&mut self, device: usize, completion: Completion) -> FleetCompletion {
        let (ticket, session, carried_ns) = self
            .tickets
            .remove(&(device, completion.ticket))
            .unwrap_or_else(|| {
                unreachable!("completion for unmapped device ticket {}", completion.ticket)
            });
        let outcome = completion.outcome.map_err(FleetError::Gateway);
        match outcome {
            Ok(_) => self.stats.completed_ok += 1,
            Err(_) => self.stats.completed_err += 1,
        }
        let (admitted_at, completed_at) = (completion.admitted_at, completion.completed_at);
        FleetCompletion { ticket, session, device, admitted_at, completed_at, carried_ns, outcome }
    }

    /// A completion the router makes itself during failover: a typed
    /// error, admitted and completed now on `device`'s clock, so its
    /// whole latency is the wait `carried_ns` it served before.
    fn refuse(
        &mut self,
        (ticket, session, carried_ns): (u64, u64, Nanos),
        device: usize,
        err: FleetError,
    ) -> FleetCompletion {
        self.stats.completed_err += 1;
        let now = self.device_now(device);
        FleetCompletion {
            ticket,
            session,
            device,
            admitted_at: now,
            completed_at: now,
            carried_ns,
            outcome: Err(err),
        }
    }

    /// Latches `device` as failed and performs failover:
    ///
    /// 1. Tenants homed on the device re-attest on the survivor their
    ///    rendezvous weight elects, or are orphaned if no device is
    ///    eligible.
    /// 2. Every drained bundle, queued or paused mid-run, is resubmitted
    ///    on its tenant's new home under its original fleet ticket and
    ///    runs from the start, carrying the wait it served here.
    ///
    /// Public so a test rig or operator can kill a device directly; the
    /// seeded [`FaultKind::DeviceCrash`] path goes through here too.
    /// No-op (empty vec) if the device is already failed.
    pub fn fail_device(&mut self, device: usize) -> Vec<FleetCompletion> {
        if self.health[device].is_failed() {
            return Vec::new();
        }
        self.health[device].fail();
        self.stats.device_failures += 1;
        self.log.record(format_args!("r={} device-failed device={device}", self.round));
        self.note_health(device);

        let drained = self.gateways[device].drain_for_failover();

        // Migrate every tenant homed here, in fleet-session order so
        // survivor-side attestation order is deterministic.
        let mut sessions: Vec<u64> = self
            .tenants
            .iter()
            .filter(|(_, record)| record.device == device && !record.orphaned)
            .map(|(&session, _)| session)
            .collect();
        sessions.sort_unstable();
        for session in sessions {
            self.migrate(session, device);
        }

        // Resubmit drained work on the new home, paused or not. Each
        // fleet ticket stays on track for exactly one completion.
        let dead_now = self.device_now(device);
        let mut out = Vec::new();
        for entry in drained {
            let (ticket, session, carried_ns) = self
                .tickets
                .remove(&(device, entry.ticket))
                .unwrap_or_else(|| {
                    unreachable!("drained device ticket {} has no fleet mapping", entry.ticket)
                });
            let routed = (ticket, session, carried_ns + (dead_now - entry.admitted_at));
            let target = self.tenants.get(&session).and_then(|record| {
                (!record.orphaned).then_some((record.device, record.device_session))
            });
            match target {
                Some((new_device, device_session)) => {
                    match self.gateways[new_device].submit(device_session, entry.bundle) {
                        Ok(device_ticket) => {
                            self.tickets.insert((new_device, device_ticket), routed);
                            self.log.record(format_args!(
                                "r={} resubmit ticket={ticket} session={session} device={new_device}",
                                self.round
                            ));
                        }
                        Err(err) => {
                            // The survivor refused (e.g. overload): the
                            // refusal is this ticket's one completion.
                            let err = FleetError::Gateway(err);
                            out.push(self.refuse(routed, new_device, err));
                        }
                    }
                }
                None => out.push(self.refuse(routed, device, FleetError::NoEligibleDevice)),
            }
        }
        out
    }

    /// Re-homes one tenant after its device failed: rendezvous over the
    /// survivors, re-attest there with the retained seed. Orphans the
    /// tenant if no device is eligible or the survivor refuses the
    /// attestation.
    fn migrate(&mut self, session: u64, from: usize) {
        let seed = match self.tenants.get(&session) {
            Some(record) => record.seed.clone(),
            None => return,
        };
        let Some(new_device) = self.rendezvous(&seed) else {
            if let Some(record) = self.tenants.get_mut(&session) {
                record.orphaned = true;
            }
            self.log.record(format_args!("r={} orphaned session={session}", self.round));
            return;
        };
        match self.gateways[new_device].connect(&seed) {
            Ok(device_session) => {
                if let Some(record) = self.tenants.get_mut(&session) {
                    record.device = new_device;
                    record.device_session = device_session;
                }
                self.stats.migrations += 1;
                self.log.record(format_args!(
                    "r={} migrate session={session} device={from}->{new_device}",
                    self.round
                ));
            }
            Err(err) => {
                if let Some(record) = self.tenants.get_mut(&session) {
                    record.orphaned = true;
                }
                self.log.record(format_args!(
                    "r={} orphaned session={session} attest-err={err}",
                    self.round
                ));
            }
        }
    }

    /// Syncs every surviving device against the same [`FeedSet`], in
    /// device order. Safe to share one feed set: the Byzantine quorum
    /// only strikes feeds whose head *lags* the best claim, so honest
    /// feeds re-serving the winning head to each device in turn are
    /// never penalised, and re-serving the same claim is not
    /// equivocation. Returns each surviving device's chain outcome, in
    /// device order.
    pub fn sync_all(
        &mut self,
        feeds: &mut FeedSet,
    ) -> Vec<(usize, Result<SyncOutcome, GatewayError>)> {
        let mut outcomes = Vec::new();
        for device in 0..self.gateways.len() {
            if self.health[device].is_failed() {
                continue;
            }
            outcomes.push((device, self.gateways[device].sync_set(feeds)));
            let head = self.gateways[device].device().head();
            self.log.record(format_args!(
                "r={} sync device={device} head={}",
                self.round,
                head.map_or_else(|| "none".to_string(), |h| format!("{h:?}"))
            ));
        }
        outcomes
    }

    /// `(device index, adopted head)` for every surviving device.
    pub fn heads(&self) -> Vec<(usize, Option<B256>)> {
        self.gateways
            .iter()
            .enumerate()
            .zip(&self.health)
            .filter(|(_, health)| !health.is_failed())
            .map(|((device, gateway), _)| (device, gateway.device().head()))
            .collect()
    }

    /// The head all surviving devices agree on, or a typed
    /// [`FleetError::SplitHead`] carrying every device's view.
    pub fn converged_head(&self) -> Result<Option<B256>, FleetError> {
        let heads = self.heads();
        match heads.split_first() {
            None => Err(FleetError::NoEligibleDevice),
            Some(((_, first), rest)) => {
                if rest.iter().all(|(_, head)| head == first) {
                    Ok(*first)
                } else {
                    Err(FleetError::SplitHead { heads })
                }
            }
        }
    }
}
