//! Cross-worker-count determinism suite for the pooled runtime.
//!
//! The worker pool's contract is that parallelism is a host-side
//! implementation detail: for the same seed, a gateway draining with
//! 1, 2, or 4 workers must produce **byte-identical** schedule + event
//! stream digests and byte-identical receipts, with the §IV-D leakage
//! audit green at every worker count. These tests pin that contract
//! in-process (`scripts/verify.sh --soak` additionally pins it
//! cross-process against the full chaos rigs), plus the deterministic
//! merge rule itself: completions at the same virtual timestamp
//! surface in admission-ticket order, never host-arrival order.
//!
//! The same harness also drives the two device classes whose execution
//! mutates shared state and therefore never reaches the pool — a
//! `-full` device (shared ORAM) and an `-ES` device whose layer-3
//! page-store adversary is still armed — against digests checked in
//! below ([`ORACLE`]). No seeded soak covers those rounds, so the
//! constants are what holds their virtual schedule still across
//! refactors of the gateway round.

use hardtape::{
    merge_completions, Bundle, Completion, Gateway, GatewayConfig, GatewayError, HarDTape,
    SecurityConfig, ServiceConfig, ServiceError,
};
use std::collections::BTreeSet;
use tape_evm::{Env, Transaction};
use tape_hevm::HevmAbort;
use tape_primitives::{Address, U256};
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::queue::interleave;
use tape_state::{Account, InMemoryState};

const TENANTS: usize = 3;
/// Small enough to keep 6 runs fast, large enough for 4 segments per
/// bomb at the 100k slice — resumed checkpoints cross rounds.
const BOMB_GAS: u64 = 400_000;

fn tenant_addr(i: usize) -> Address {
    Address::from_low_u64(0xA000 + i as u64)
}

fn sink_addr(i: usize) -> Address {
    Address::from_low_u64(0xF000 + i as u64)
}

fn genesis() -> InMemoryState {
    let mut state = InMemoryState::new();
    for i in 0..=TENANTS {
        state.put_account(tenant_addr(i), Account::with_balance(U256::from(u64::MAX)));
    }
    state.put_account(
        tape_workload::contracts::gasbomb_address(),
        Account::with_code(tape_workload::contracts::gasbomb_runtime()),
    );
    state
}

fn transfer_bundle(tenant: usize, step: usize) -> Bundle {
    Bundle::single(Transaction::transfer(
        tenant_addr(tenant),
        sink_addr(tenant),
        U256::from(1 + step as u64),
    ))
}

/// One receipt per completion, in completion order: the full encoded
/// report for successes (what the device signs — any divergence in
/// results, state changes, timings, or lints shows up here), the
/// rendered error for failures.
type Receipts = Vec<(u64, bool, Vec<u8>)>;

/// Which device a run drives, and what it arms beyond the channel
/// adversaries every run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rig {
    /// `-ES`, no ORAM: every round batches to the worker pool.
    Es,
    /// `-full`: every dispatch reads and re-encrypts the shared ORAM.
    Full,
    /// `-ES` with a layer-3 page-store adversary whose budget drains
    /// mid-run: rounds execute on the shared clock while faults can
    /// still fire and batch to the pool once the budget is spent.
    EsPageStore,
}

impl Rig {
    fn level(self) -> SecurityConfig {
        match self {
            Rig::Es | Rig::EsPageStore => SecurityConfig::Es,
            Rig::Full => SecurityConfig::Full,
        }
    }
}

/// One seeded run at the given worker count: interleaved transfers
/// from three tenants, seeded channel adversaries (tamper/drop →
/// revocations), periodic gas bombs that preempt at the 100k slice and
/// resume across rounds, DRR drains under pressure, full drain at the
/// end. Asserts exactly-once and the §IV-D audit, returns the combined
/// digest and the receipts.
fn pooled_run(rig: Rig, seed: u64, workers: usize) -> (String, Receipts) {
    let mut service =
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(rig.level()) };
    service.hevm.gas_slice = Some(100_000);
    let mut gateway = Gateway::new(
        HarDTape::new(service, Env::default(), &genesis()).expect("device boots"),
        GatewayConfig {
            admission_budget: 24,
            workers,
        },
    );
    let plan = FaultPlan::new(seed, gateway.device().clock());
    plan.arm(
        FaultSite::Channel,
        &[FaultKind::ChannelTamper, FaultKind::ChannelDrop],
        12,
        4,
    );
    if rig == Rig::EsPageStore {
        // Every suspension seals the bomb's frames out to layer 3; one
        // swap-out in two is corrupted until three have landed.
        plan.arm(
            FaultSite::PageStore,
            &[FaultKind::BitFlip, FaultKind::Truncate, FaultKind::Replay],
            2,
            3,
        );
    }
    gateway.device_mut().arm_faults(plan.clone());

    let mut sessions = Vec::new();
    for i in 0..TENANTS {
        sessions.push(
            gateway
                .connect(format!("parallel tenant {i}").as_bytes())
                .expect("attestation succeeds"),
        );
    }
    let mut bomber = gateway.connect(b"parallel bomber").expect("attestation succeeds");
    let mut bombers = 0usize;
    // Preemptions counted when the page-store budget ran dry: segments
    // before it executed on the shared clock, segments after it on the
    // pool.
    let mut preempted_at_drain = None;

    let counts = [24usize, 16, 10];
    let order = interleave(&counts, seed);
    let mut steps = [0usize; TENANTS];
    let mut admitted = BTreeSet::new();
    let mut completions: Vec<Completion> = Vec::new();

    for (op, &tenant) in order.iter().enumerate() {
        let step = steps[tenant];
        steps[tenant] += 1;
        match gateway.submit(sessions[tenant], transfer_bundle(tenant, step)) {
            Ok(ticket) => {
                assert!(admitted.insert(ticket), "ticket {ticket} issued twice");
            }
            Err(GatewayError::Overloaded { retry_after }) => {
                assert!(retry_after > 0, "overload must carry a usable retry hint");
                completions.extend(gateway.run_round());
            }
            // A tampered channel revoked the session: deterministic,
            // rides in the digest; the tenant just keeps going.
            Err(GatewayError::Service(_)) => {}
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        if op % 5 == 4 {
            match gateway.submit(
                bomber,
                Bundle::single(tape_workload::contracts::gasbomb_tx(
                    tenant_addr(TENANTS),
                    BOMB_GAS,
                )),
            ) {
                Ok(ticket) => {
                    assert!(admitted.insert(ticket), "ticket {ticket} issued twice");
                }
                Err(GatewayError::Overloaded { .. }) | Err(GatewayError::Service(_)) => {}
                Err(other) => panic!("unexpected bomber submit error: {other}"),
            }
        }
        if op % 3 == 2 {
            completions.extend(gateway.run_round());
        }
        // A corrupted frame kills the resuming bomb and revokes the
        // bomber, whose queued bombs then fail typed. A fresh bomber
        // tenant takes over so later bombs keep sealing frames out and
        // the page-store budget actually drains.
        let tampered = completions.iter().any(|c| {
            c.session == bomber
                && matches!(
                    c.outcome,
                    Err(GatewayError::Service(ServiceError::Hevm(HevmAbort::Layer3Tampered)))
                )
        });
        if tampered {
            bombers += 1;
            bomber = gateway
                .connect(format!("parallel bomber {bombers}").as_bytes())
                .expect("attestation succeeds");
        }
        if rig == Rig::EsPageStore
            && preempted_at_drain.is_none()
            && plan.remaining_budget(FaultSite::PageStore) == 0
        {
            preempted_at_drain = Some(gateway.stats().preempted);
        }
    }
    completions.extend(gateway.run_until_idle());
    assert_eq!(gateway.queued(), 0, "drain left work queued");
    if rig == Rig::EsPageStore {
        let at_drain = preempted_at_drain.expect("page-store budget must drain mid-run");
        assert!(at_drain > 0, "no segment ran while the page store was armed");
        assert!(
            gateway.stats().preempted > at_drain,
            "no segment ran after the page-store budget drained"
        );
    }

    // Exactly-once at this worker count: every admitted ticket resolves
    // to exactly one completion.
    let tickets: BTreeSet<u64> = completions.iter().map(|c| c.ticket).collect();
    assert_eq!(tickets.len(), completions.len(), "workers={workers}: duplicate completion");
    assert_eq!(tickets, admitted, "workers={workers}: admitted/completed diverge");
    let stats = gateway.stats();
    assert!(stats.preempted > 0, "workers={workers}: no bomb was preempted");

    // §IV-D leakage audit must be green at every worker count — the
    // pool must not perturb the event stream the auditor certifies.
    let telemetry = gateway.device().telemetry().clone();
    let report = telemetry.audit();
    assert!(
        report.passed(),
        "workers={workers} seed={seed}: leakage audit failed: {:?}",
        report.violations
    );
    assert!(report.stats.segments > 0, "workers={workers}: audit saw no segments");

    let receipts = completions
        .iter()
        .map(|c| match &c.outcome {
            Ok(report) => (c.ticket, true, report.encode()),
            Err(err) => (c.ticket, false, format!("{err}").into_bytes()),
        })
        .collect();
    (format!("{}:{}", gateway.log().digest(), telemetry.digest()), receipts)
}

#[test]
fn digests_and_receipts_are_byte_identical_across_worker_counts() {
    for seed in [0xC0FFEE_u64, 0x9A11E7] {
        let (digest_1, receipts_1) = pooled_run(Rig::Es, seed, 1);
        for workers in [2usize, 4] {
            let (digest_n, receipts_n) = pooled_run(Rig::Es, seed, workers);
            assert_eq!(
                digest_1, digest_n,
                "seed {seed}: digest diverged between 1 and {workers} workers"
            );
            assert_eq!(
                receipts_1, receipts_n,
                "seed {seed}: receipts diverged between 1 and {workers} workers"
            );
        }
        println!("PARALLEL_DIGEST seed={seed} digest={digest_1}");
    }
}

/// `log.digest():telemetry.digest()` of [`pooled_run`] on the two
/// rigs whose rounds execute (at least partly) on the shared clock.
const ORACLE: [(Rig, u64, &str); 4] = [
    (
        Rig::Full,
        0xC0FFEE,
        "242689b5d61c96151b9bcf8c64ffe039ff526024b691ae7667d738dd7f30318a:ce69fe2130601b7f7d0349ac9efb396dfe412c1f84424670f3bf5033e3217d24",
    ),
    (
        Rig::Full,
        0x9A11E7,
        "ae39b9e754f31736bfdb024eaed2c2e978131b407aa82a50d1fb14348903a8a8:7e5f33e0382bf6c5bc762e9201fd87fda91ada381fd85a4760fea5a6f1021e14",
    ),
    (
        Rig::EsPageStore,
        0xC0FFEE,
        "1451d123526fec018a7a56fb199617f7632cf29b5c9607b9e42ec1d0a881a84f:24004036e0c81b50ea288da080ebd4fdba347be44577b29fb1c9722baccb1eb8",
    ),
    (
        Rig::EsPageStore,
        0x9A11E7,
        "3e583c3ec6d9b4506e5c629ee31cad8cfdd99da9fd90140ff53ba9f6e894fe51:b92e6d8d527e26969302bfe7e64b5b812499356f405be5941200ce26c535fd55",
    ),
];

/// Worker counts the oracle replays at: 1 and 4, or the single count
/// `HARDTAPE_SOAK_WORKERS` names (the `verify.sh --soak` replay leg).
fn oracle_workers() -> Vec<usize> {
    match std::env::var("HARDTAPE_SOAK_WORKERS") {
        Ok(v) => vec![v.parse().expect("HARDTAPE_SOAK_WORKERS must be a usize")],
        Err(_) => vec![1, 4],
    }
}

#[test]
fn shared_state_rigs_reproduce_their_checked_in_digests() {
    for (rig, seed, expected) in ORACLE {
        for workers in oracle_workers() {
            let (digest, _) = pooled_run(rig, seed, workers);
            assert_eq!(digest, expected, "{rig:?} seed {seed:#x} workers {workers}");
        }
        let name = if rig == Rig::Full { "FULL_DIGEST" } else { "PAGESTORE_DIGEST" };
        println!("{name} seed={seed} digest={expected}");
    }
}

#[test]
fn retry_hints_divide_the_same_backlog_by_the_worker_count() {
    // Identical queue, different pool size: the quoted hint must be
    // the backlog divided by the workers that actually drain it. The
    // backlog itself (what the digest records) is worker-independent.
    let hint_at = |workers: usize| {
        let mut gateway = Gateway::new(
            HarDTape::new(
                ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) },
                Env::default(),
                &genesis(),
            )
            .expect("device boots"),
            GatewayConfig { workers, ..GatewayConfig::default() },
        );
        let session = gateway.connect(b"divisor tenant").expect("attestation succeeds");
        for step in 0..6 {
            gateway.submit(session, transfer_bundle(0, step)).expect("admitted");
        }
        gateway.retry_after_hint()
    };
    let one = hint_at(1);
    let two = hint_at(2);
    let four = hint_at(4);
    // With one worker the hint IS the backlog; wider pools divide it.
    assert_eq!(two, one.div_ceil(2), "2-worker hint must halve the 1-worker backlog");
    assert_eq!(four, one.div_ceil(4), "4-worker hint must quarter the 1-worker backlog");
}

#[test]
fn equal_virtual_timestamp_completions_merge_in_ticket_order() {
    // The merge rule itself, directed: same virtual timestamp → ticket
    // order decides; earlier timestamps always come first.
    let completion = |completed_at: u64, ticket: u64| Completion {
        ticket,
        session: 1,
        admitted_at: 0,
        completed_at,
        outcome: Err(GatewayError::Overloaded { retry_after: 1 }),
    };
    let stamped =
        vec![completion(500, 7), completion(500, 3), completion(400, 9), completion(500, 5)];
    let order: Vec<u64> = merge_completions(stamped).iter().map(|c| c.ticket).collect();
    assert_eq!(order, vec![9, 3, 5, 7], "ties must break by ticket, not arrival");
}

#[test]
fn same_timestamp_sheds_surface_in_ticket_order_end_to_end() {
    // Two tenants, admission order inverted against tenant order: the
    // later-connected tenant submits first and holds the lower ticket.
    // Both bundles expire during the same stall, so the round sheds
    // them at the identical virtual timestamp — DRR visits tenant A
    // (ticket 2) first, but the merged round must surface ticket 1
    // before ticket 2.
    let mut gateway = Gateway::new(
        HarDTape::new(
            ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) },
            Env::default(),
            &genesis(),
        )
        .expect("device boots"),
        GatewayConfig { workers: 2, ..GatewayConfig::default() },
    );
    let tenant_a = gateway.connect(b"merge tenant A").expect("attestation succeeds");
    let tenant_b = gateway.connect(b"merge tenant B").expect("attestation succeeds");
    let first = gateway.submit(tenant_b, transfer_bundle(1, 0)).expect("admitted");
    let second = gateway.submit(tenant_a, transfer_bundle(0, 0)).expect("admitted");
    assert!(first < second, "admission order must invert tenant order");

    // Stall for twice the gateway's deadline (8 × 30 virtual seconds).
    gateway.device().clock().advance(2 * 8 * 30_000_000_000);
    let completions = gateway.run_round();
    let order: Vec<u64> = completions.iter().map(|c| c.ticket).collect();
    assert_eq!(order, vec![first, second], "same-timestamp sheds must sort by ticket");
    for completion in &completions {
        assert!(
            matches!(completion.outcome, Err(GatewayError::DeadlineExceeded { .. })),
            "stalled bundles must shed, got {completion:?}"
        );
    }
}
