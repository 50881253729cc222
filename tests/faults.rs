//! Adversarial fault-injection suite: every untrusted boundary of the
//! device gets a seeded, reproducible adversary, and every injected
//! fault must surface as a typed [`ServiceError`] (or recover via
//! retry/quarantine) — never as a panic. Boundary classes covered:
//! the layer-3 page store (A4), the ORAM server (A5), the secure
//! channel (A3), and the full-node block feed (A1/A6).

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig, ServiceError, SyncOutcome};
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Transaction};
use tape_hevm::HevmAbort;
use tape_node::{BlockFeed, FeedSet, Node, QuarantineReason};
use tape_oram::OramError;
use tape_primitives::{Address, B256, U256};
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::resources::MemoryConfig;
use tape_sim::telemetry::TelemetryEvent;
use tape_state::{Account, InMemoryState};
use tape_tee::ChannelError;
use tape_workload::contracts;

fn alice() -> Address {
    Address::from_low_u64(0xA11CE)
}

fn bob() -> Address {
    Address::from_low_u64(0xB0B)
}

fn token() -> Address {
    Address::from_low_u64(0x70CE)
}

fn hog() -> Address {
    Address::from_low_u64(0x406)
}

fn genesis() -> InMemoryState {
    let mut state = InMemoryState::new();
    state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
    state.put_account(bob(), Account::with_balance(U256::from(u64::MAX)));
    let mut t = Account::with_code(contracts::erc20_runtime());
    t.storage.insert(contracts::balance_slot(&alice()), U256::from(1_000_000u64));
    state.put_account(token(), t);
    state
}

/// Adds a contract that expands memory then self-calls — deep frames
/// that force layer-3 swap traffic under a tiny layer 2.
fn genesis_with_hog() -> InMemoryState {
    let mut state = genesis();
    let code = Asm::new()
        .push(1u64)
        .push(2u64 * 1024 - 32)
        .op(op::MSTORE)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(hog())
        .op(op::GAS)
        .op(op::CALL)
        .stop()
        .build();
    state.put_account(hog(), Account::with_code(code));
    state
}

fn erc20_transfer_bundle() -> Bundle {
    Bundle::single(Transaction {
        gas_limit: 300_000,
        ..Transaction::call(
            alice(),
            token(),
            contracts::encode_call(
                contracts::sel::transfer(),
                &[bob().into_word(), U256::from(250u64)],
            ),
        )
    })
}

fn small_service(level: SecurityConfig) -> HarDTape {
    let config = ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(level) };
    HarDTape::new(config, Env::default(), &genesis()).expect("device boots")
}

/// Arms `plan` on a fresh device at `level` (after genesis sync, so the
/// initial ORAM load is honest).
fn armed_service(level: SecurityConfig, seed: u64, arm: impl Fn(&FaultPlan)) -> (HarDTape, FaultPlan) {
    let mut device = small_service(level);
    let plan = FaultPlan::new(seed, device.clock());
    arm(&plan);
    device.arm_faults(plan.clone());
    (device, plan)
}

// ---------------------------------------------------------------------
// Secure channel (A3)
// ---------------------------------------------------------------------

#[test]
fn channel_tamper_aborts_bundle_and_forces_reattestation() {
    let (mut device, plan) = armed_service(SecurityConfig::Full, 11, |p| {
        p.arm(FaultSite::Channel, &[FaultKind::ChannelTamper], 1, 1);
    });
    let mut user = device.connect_user(b"tamper victim").unwrap();

    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::Channel(ChannelError::Sealed)) => {}
        other => panic!("expected Channel(Sealed), got {other:?}"),
    }
    assert_eq!(plan.injected(), 1);

    // The session is revoked until the user re-attests.
    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::ReattestationRequired) => {}
        other => panic!("expected ReattestationRequired, got {other:?}"),
    }

    // Budget exhausted: a fresh attestation serves cleanly.
    let mut fresh = device.connect_user(b"tamper victim 2").unwrap();
    let report = device.pre_execute(&mut fresh, &erc20_transfer_bundle()).unwrap();
    assert!(report.results[0].success);
}

#[test]
fn channel_replay_detected_and_session_revoked() {
    let (mut device, _plan) = armed_service(SecurityConfig::Full, 12, |p| {
        p.arm(FaultSite::Channel, &[FaultKind::ChannelReplay], 1, 1);
    });
    let mut user = device.connect_user(b"replay victim").unwrap();

    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::Channel(ChannelError::Sequence { .. })) => {}
        other => panic!("expected Channel(Sequence), got {other:?}"),
    }
    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::ReattestationRequired) => {}
        other => panic!("expected ReattestationRequired, got {other:?}"),
    }
    let mut fresh = device.connect_user(b"replay victim 2").unwrap();
    assert!(device.pre_execute(&mut fresh, &erc20_transfer_bundle()).unwrap().results[0].success);
}

#[test]
fn channel_drop_recovers_transparently_by_retransmission() {
    let (mut device, plan) = armed_service(SecurityConfig::Full, 13, |p| {
        p.arm(FaultSite::Channel, &[FaultKind::ChannelDrop], 1, 1);
    });
    let mut user = device.connect_user(b"drop victim").unwrap();

    // A dropped message costs only (virtual) time — the bundle succeeds.
    let report = device.pre_execute(&mut user, &erc20_transfer_bundle()).unwrap();
    assert!(report.results[0].success);
    assert_eq!(plan.injected(), 1, "the drop was injected");

    // Session NOT revoked: the next bundle runs without re-attestation.
    assert!(device.pre_execute(&mut user, &erc20_transfer_bundle()).unwrap().results[0].success);
}

// ---------------------------------------------------------------------
// ORAM server (A5)
// ---------------------------------------------------------------------

#[test]
fn oram_wrong_path_yields_missing_block_and_revokes_session() {
    let (mut device, plan) = armed_service(SecurityConfig::Full, 21, |p| {
        p.arm(FaultSite::OramServer, &[FaultKind::WrongPath], 1, 2);
    });
    let mut user = device.connect_user(b"oram victim").unwrap();

    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::Oram(OramError::MissingBlock(_))) => {}
        other => panic!("expected Oram(MissingBlock), got {other:?}"),
    }
    assert!(plan.injected() >= 1);

    // Integrity failure: the session is revoked.
    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::ReattestationRequired) => {}
        other => panic!("expected ReattestationRequired, got {other:?}"),
    }

    // The device survives: with the adversary disarmed, a fresh session
    // gets a *typed* answer — success, or a residual ORAM error from the
    // poisoned tree — never a panic.
    plan.disarm(FaultSite::OramServer);
    let mut fresh = device.connect_user(b"oram victim 2").unwrap();
    match device.pre_execute(&mut fresh, &erc20_transfer_bundle()) {
        Ok(report) => assert_eq!(report.results.len(), 1),
        Err(ServiceError::Oram(_)) => {}
        other => panic!("expected Ok or Oram(_), got {other:?}"),
    }
}

#[test]
fn oram_dropped_write_back_yields_typed_error() {
    let (mut device, plan) = armed_service(SecurityConfig::Full, 22, |p| {
        p.arm(FaultSite::OramServer, &[FaultKind::DropWrite], 1, 4);
    });
    let mut user = device.connect_user(b"dropwrite victim").unwrap();

    // Dropped write-backs starve *later* reads of their blocks (the
    // position map still points at the path the write never reached), so
    // the violation may only surface a few bundles in. Detection is the
    // honest-server invariant: a mapped block must be on its path.
    let mut detected = false;
    for _ in 0..10 {
        match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
            Ok(_) => {}
            Err(ServiceError::Oram(OramError::MissingBlock(_))) => {
                detected = true;
                break;
            }
            other => panic!("expected Ok or Oram(MissingBlock), got {other:?}"),
        }
    }
    assert!(detected, "dropped write-backs never detected");
    assert!(plan.injected() >= 1);
}

#[test]
fn oram_tampered_bucket_yields_typed_error() {
    let (mut device, _plan) = armed_service(SecurityConfig::Full, 23, |p| {
        p.arm(FaultSite::OramServer, &[FaultKind::BitFlip], 1, 2);
    });
    let mut user = device.connect_user(b"bitflip victim").unwrap();

    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::Oram(OramError::Tampered)) => {}
        other => panic!("expected Oram(Tampered), got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Layer-3 page store (A4)
// ---------------------------------------------------------------------

#[test]
fn layer3_tamper_aborts_bundle_and_device_recovers() {
    let mut config =
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Raw) };
    // Tiny layer 2: the self-calling hog forces swap traffic to layer 3.
    config.hevm.mem = MemoryConfig { layer2_bytes: 128 * 1024, ..MemoryConfig::default() };
    let mut device = HarDTape::new(config, Env::default(), &genesis_with_hog()).expect("device boots");
    let plan = FaultPlan::new(31, device.clock());
    plan.arm(
        FaultSite::PageStore,
        &[FaultKind::BitFlip, FaultKind::Truncate, FaultKind::Replay],
        1,
        64,
    );
    device.arm_faults(plan.clone());
    let mut user = device.connect_user(b"layer3 victim").unwrap();

    let mut tx = Transaction::call(alice(), hog(), vec![]);
    tx.gas_limit = 8_000_000;
    match device.pre_execute(&mut user, &Bundle::single(tx.clone())) {
        Err(ServiceError::Hevm(HevmAbort::Layer3Tampered)) => {}
        other => panic!("expected Hevm(Layer3Tampered), got {other:?}"),
    }
    assert!(plan.injected() >= 1, "no page-store fault landed");

    // Layer-3 integrity failure revokes the session...
    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::ReattestationRequired) => {}
        other => panic!("expected ReattestationRequired, got {other:?}"),
    }

    // ...but the device itself recovers: disarm, re-attest, and the same
    // workload completes (layer-3 state is per-bundle, nothing persists).
    plan.disarm(FaultSite::PageStore);
    let mut fresh = device.connect_user(b"layer3 victim 2").unwrap();
    let report = device.pre_execute(&mut fresh, &Bundle::single(tx)).unwrap();
    assert!(report.results[0].success);
}

// ---------------------------------------------------------------------
// Watchdog + quarantine
// ---------------------------------------------------------------------

#[test]
fn watchdog_aborts_runaway_execution() {
    let mut state = genesis();
    let spin = Address::from_low_u64(0x5417);
    state.put_account(
        spin,
        Account::with_code(Asm::new().label("top").push(1u64).op(op::POP).jump("top").build()),
    );
    let mut config =
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Raw) };
    // 5 virtual ms: an honest bundle finishes well under it at Raw, the
    // 30M-gas spin loop burns tens of virtual ms.
    config.hevm.watchdog_ns = Some(5_000_000);
    let mut device = HarDTape::new(config, Env::default(), &state).expect("device boots");
    let mut user = device.connect_user(b"spinner").unwrap();

    let mut tx = Transaction::call(alice(), spin, vec![]);
    tx.gas_limit = 30_000_000;
    match device.pre_execute(&mut user, &Bundle::single(tx)) {
        Err(ServiceError::Hevm(HevmAbort::Watchdog { budget_ns })) => {
            assert_eq!(budget_ns, 5_000_000);
        }
        other => panic!("expected Hevm(Watchdog), got {other:?}"),
    }

    // A watchdog trip is not an integrity failure: the same session keeps
    // working, and the slot was returned to the pool.
    let report = device.pre_execute(&mut user, &erc20_transfer_bundle()).unwrap();
    assert!(report.results[0].success);
}

#[test]
fn persistently_failing_core_is_quarantined_and_the_rest_keep_serving() {
    let mut state = genesis();
    let spin = Address::from_low_u64(0x5417);
    state.put_account(
        spin,
        Account::with_code(Asm::new().label("top").push(1u64).op(op::POP).jump("top").build()),
    );
    let mut config = ServiceConfig {
        oram_height: 10,
        hevm_count: 2,
        ..ServiceConfig::at_level(SecurityConfig::Raw)
    };
    config.hevm.watchdog_ns = Some(5_000_000);
    let mut device = HarDTape::new(config, Env::default(), &state).expect("device boots");
    let mut user = device.connect_user(b"quarantine driver").unwrap();

    let spin_bundle = || {
        let mut tx = Transaction::call(alice(), spin, vec![]);
        tx.gas_limit = 30_000_000;
        Bundle::single(tx)
    };
    // Three consecutive watchdog trips on core 0 quarantine it. (Cores
    // are assigned lowest-idle-first, so each trip lands on core 0.)
    for _ in 0..3 {
        match device.pre_execute(&mut user, &spin_bundle()) {
            Err(ServiceError::Hevm(HevmAbort::Watchdog { .. })) => {}
            other => panic!("expected Hevm(Watchdog), got {other:?}"),
        }
    }

    // Core 1 still serves honest bundles.
    let report = device.pre_execute(&mut user, &erc20_transfer_bundle()).unwrap();
    assert!(report.results[0].success);

    // Three more trips quarantine core 1 too: the device reports it.
    for _ in 0..3 {
        match device.pre_execute(&mut user, &spin_bundle()) {
            Err(ServiceError::Hevm(HevmAbort::Watchdog { .. })) => {}
            other => panic!("expected Hevm(Watchdog), got {other:?}"),
        }
    }
    match device.pre_execute(&mut user, &erc20_transfer_bundle()) {
        Err(ServiceError::AllCoresQuarantined) => {}
        other => panic!("expected AllCoresQuarantined, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Full-node block feed (A1/A6)
// ---------------------------------------------------------------------

fn feed_with_block() -> BlockFeed {
    let mut node = Node::new(genesis(), Env::default());
    node.produce_block(vec![Transaction::transfer(alice(), bob(), U256::from(500u64))]);
    BlockFeed::new(node)
}

/// A one-feed set over [`feed_with_block`], its feed armed with `plan`,
/// and the head that feed serves.
fn one_feed_set(plan: &FaultPlan) -> (FeedSet, B256) {
    let mut feed = feed_with_block();
    feed.arm_faults(plan.clone());
    let head = feed.node().head().expect("one block").header.hash();
    (FeedSet::new(vec![feed]), head)
}

#[test]
fn transient_node_outage_recovered_by_backoff_retries() {
    let mut device = small_service(SecurityConfig::Full);
    let plan = FaultPlan::new(41, device.clock());
    plan.arm(FaultSite::NodeFeed, &[FaultKind::Unavailable], 1, 3);
    let (mut feeds, head) = one_feed_set(&plan);

    let before = device.clock().now();
    device.sync_from_feeds(&mut feeds).unwrap();
    assert_eq!(plan.injected(), 3, "three fetches dropped before success");
    // Deterministic capped backoff on the virtual clock: 2 + 4 + 8 ms.
    assert!(device.clock().now() - before >= 14_000_000);
    assert_eq!(device.head(), Some(head));
}

#[test]
fn persistent_node_outage_reported_after_retries() {
    let mut device = small_service(SecurityConfig::Full);
    let plan = FaultPlan::new(42, device.clock());
    plan.arm(FaultSite::NodeFeed, &[FaultKind::Unavailable], 1, 64);
    let (mut feeds, _) = one_feed_set(&plan);

    match device.sync_from_feeds(&mut feeds) {
        Err(ServiceError::NodeUnavailable) => {}
        other => panic!("expected NodeUnavailable, got {other:?}"),
    }
    assert_eq!(device.head(), None, "failed sync must not advance the head");

    // Outage over: the next sync succeeds.
    plan.disarm(FaultSite::NodeFeed);
    device.sync_from_feeds(&mut feeds).unwrap();
    assert!(device.head().is_some());
}

#[test]
fn forged_feed_responses_rejected_with_typed_errors() {
    type Expected = fn(&ServiceError) -> bool;
    let cases: &[(FaultKind, Expected)] = &[
        (FaultKind::BadProof, |e| matches!(e, ServiceError::BadDelta(_))),
        (FaultKind::ContentLie, |e| {
            matches!(e, ServiceError::BadDelta(tape_node::DeltaError::ContentMismatch(_)))
        }),
        (FaultKind::HeaderMismatch, |e| matches!(e, ServiceError::HeaderMismatch)),
    ];
    for (seed, (kind, is_expected)) in cases.iter().enumerate() {
        let mut device = small_service(SecurityConfig::Full);
        let mut feed = feed_with_block();
        let plan = FaultPlan::new(50 + seed as u64, device.clock());
        plan.arm(FaultSite::NodeFeed, &[*kind], 1, 1);
        feed.arm_faults(plan);

        let (header, delta) = feed.fetch_head().expect("the feed answers");
        let err = device.sync_block(&header, &delta).unwrap_err();
        assert!(is_expected(&err), "{kind:?}: unexpected error {err:?}");
        assert_eq!(device.head(), None, "{kind:?}: forged sync advanced the head");

        // The forgery budget is spent; the honest block applies cleanly.
        let (header, delta) = feed.fetch_head().expect("the feed answers");
        device.sync_block(&header, &delta).unwrap();
        assert_eq!(device.head(), Some(feed.node().head().unwrap().header.hash()));

        // Through a set, the forger is quarantined and never heard again.
        let mut device = small_service(SecurityConfig::Full);
        let plan = FaultPlan::new(50 + seed as u64, device.clock());
        plan.arm(FaultSite::NodeFeed, &[*kind], 1, 1);
        let (mut feeds, _) = one_feed_set(&plan);
        for _ in 0..2 {
            let err = device.sync_from_feeds(&mut feeds).unwrap_err();
            assert_eq!(err, ServiceError::NodeUnavailable, "{kind:?}");
        }
        assert_eq!(
            feeds.status(0).expect("feed 0").quarantined,
            Some(QuarantineReason::ForgedProof),
            "{kind:?}"
        );
        assert_eq!(device.head(), None, "{kind:?}: forged sync advanced the head");
    }
}

/// Syncs a fresh device from three feeds over one block, feed `i`
/// armed to drop its first `drops[i]` fetches. Returns the outcome, the
/// virtual time the sync took and the backoffs its retries recorded.
fn sync_three_feeds(drops: [u64; 3]) -> (Result<SyncOutcome, ServiceError>, u64, Vec<u64>) {
    let mut device = small_service(SecurityConfig::Full);
    let mut feeds = FeedSet::new((0..3).map(|_| feed_with_block()).collect());
    for (i, &budget) in drops.iter().enumerate().filter(|(_, &budget)| budget > 0) {
        let plan = FaultPlan::new(60 + i as u64, device.clock());
        plan.arm(FaultSite::NodeFeed, &[FaultKind::Unavailable], 1, budget);
        feeds.feed_mut(i).expect("feed exists").arm_faults(plan);
    }
    let before = device.clock().now();
    let outcome = device.sync_from_feeds(&mut feeds);
    let took = device.clock().now() - before;
    let backoffs: Vec<u64> = device
        .telemetry()
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TelemetryEvent::NodeRetry { backoff_ns, .. } => Some(*backoff_ns),
            _ => None,
        })
        .collect();
    (outcome, took, backoffs)
}

#[test]
fn whole_set_outage_is_retried_with_backoff() {
    let (clean, clean_took, clean_backoffs) = sync_three_feeds([0, 0, 0]);
    assert_eq!(clean, Ok(SyncOutcome::Advanced { blocks: 1 }));
    assert!(clean_backoffs.is_empty());

    // Every feed down for two polls: two retries, 2 ms then 4 ms, and
    // the third poll syncs.
    let (outcome, took, backoffs) = sync_three_feeds([2, 2, 2]);
    assert_eq!(outcome, Ok(SyncOutcome::Advanced { blocks: 1 }));
    assert_eq!(backoffs, vec![2_000_000, 4_000_000]);
    assert_eq!(took - clean_took, 6_000_000, "the backoff is all the extra time");

    // One feed down: the other two answer, so nothing is retried.
    let (outcome, took, backoffs) = sync_three_feeds([0, 64, 0]);
    assert_eq!(outcome, Ok(SyncOutcome::Advanced { blocks: 1 }));
    assert!(backoffs.is_empty(), "a poll some feed answered must not retry");
    assert_eq!(took, clean_took, "no backoff is charged");
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

#[test]
fn same_seed_produces_identical_fault_schedule_and_outcomes() {
    fn run() -> (Vec<tape_sim::fault::FaultEvent>, Vec<String>) {
        let (mut device, plan) = armed_service(SecurityConfig::Full, 99, |p| {
            p.arm(
                FaultSite::Channel,
                &[FaultKind::ChannelTamper, FaultKind::ChannelDrop, FaultKind::ChannelReplay],
                2,
                8,
            );
        });
        let feed_plan = FaultPlan::new(7, device.clock());
        feed_plan.arm(
            FaultSite::NodeFeed,
            &[FaultKind::BadProof, FaultKind::Unavailable],
            2,
            8,
        );
        let (mut feeds, _) = one_feed_set(&feed_plan);

        let mut outcomes = Vec::new();
        let mut user = device.connect_user(b"determinism").unwrap();
        for round in 0..6 {
            let outcome = device.pre_execute(&mut user, &erc20_transfer_bundle());
            // Detected channel attacks revoke the session; re-attest
            // (with a fixed seed) so later rounds keep executing.
            let revoked = matches!(outcome, Err(ServiceError::Channel(_)));
            outcomes.push(format!("bundle {round}: {:?}", outcome.map(|r| r.results)));
            if revoked {
                user = device.connect_user(b"determinism-re").unwrap();
            }
            let sync = device.sync_from_feeds(&mut feeds);
            outcomes.push(format!("sync {round}: {sync:?}"));
        }
        let mut log = plan.log();
        log.extend(feed_plan.log());
        (log, outcomes)
    }

    let (log_a, outcomes_a) = run();
    let (log_b, outcomes_b) = run();
    assert_eq!(log_a, log_b, "fault schedules diverged across runs");
    assert_eq!(outcomes_a, outcomes_b, "outcomes diverged across runs");
}
