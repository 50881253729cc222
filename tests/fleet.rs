//! Fleet-level tests: multiple HarDTAPE devices serving users in
//! parallel (the §VI-D deployment: one device per ~18 tx/s, scaled
//! horizontally), end-to-end trace-signature verification by the user,
//! and the [`FleetRouter`] fault-tolerance contract:
//!
//! * rendezvous-sharded tenants survive the loss of 1 of K devices via
//!   live migration (re-attestation on a survivor, which serves from its
//!   own replica under its own ORAM key; every drained bundle, queued or
//!   paused mid-run, resubmitted under its original fleet ticket);
//! * paused work on a crashed device is re-run from the start on a
//!   survivor, completes exactly once, and gives the receipt of an
//!   uninterrupted run;
//! * a resubmitted ticket is timed from its first admission: the wait
//!   it served on dead devices rides along in `carried_ns`;
//! * all surviving devices sync from one `FeedSet` and converge on the
//!   same adopted head, through a mid-soak reorg;
//! * the whole fleet schedule is deterministic per seed — the
//!   `FLEET_DIGEST` line below is compared across processes by
//!   `scripts/verify.sh --soak` (seed override: `HARDTAPE_SOAK_SEED`).

use std::collections::{BTreeMap, BTreeSet};

use hardtape::{
    Bundle, Gateway, GatewayConfig, GatewayError, HarDTape, SecurityConfig, ServiceConfig,
};
use tape_evm::{Env, Transaction};
use tape_fleet::{FleetCompletion, FleetError, FleetRouter, FleetStats, HealthState};
use tape_node::{BlockFeed, FeedSet, Node};
use tape_primitives::{Address, B256, U256};
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_crypto::secp::VerifyingKey;
use tape_sim::queue::interleave;
use tape_state::{Account, InMemoryState};
use tape_tee::channel::verify_bundle;
use tape_workload::contracts;

fn genesis() -> InMemoryState {
    let mut state = InMemoryState::new();
    for i in 0..8 {
        state.put_account(
            Address::from_low_u64(0x1000 + i),
            Account::with_balance(U256::from(u64::MAX)),
        );
    }
    state
}

#[test]
fn three_devices_serve_bundles_in_parallel() {
    let genesis = genesis();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for device_id in 0..3u64 {
            let genesis = &genesis;
            handles.push(scope.spawn(move || {
                let config = ServiceConfig {
                    oram_height: 10,
                    seed: 0x1000 + device_id,
                    ..ServiceConfig::at_level(SecurityConfig::Full)
                };
                let mut device = HarDTape::new(config, Env::default(), genesis).expect("device boots");
                let mut user = device
                    .connect_user(format!("fleet user {device_id}").as_bytes())
                    .expect("attestation");
                let from = Address::from_low_u64(0x1000 + device_id);
                let to = Address::from_low_u64(0x1000 + (device_id + 1) % 8);
                let mut total = 0u64;
                for i in 0..5u64 {
                    let tx = Transaction::transfer(from, to, U256::from(i + 1));
                    let report = device
                        .pre_execute(&mut user, &Bundle::single(tx))
                        .expect("bundle accepted");
                    assert!(report.results[0].success);
                    total += report.total_ns;
                }
                total
            }));
        }
        for handle in handles {
            let total = handle.join().expect("device thread");
            assert!(total > 0);
        }
    });
}

#[test]
fn user_verifies_the_device_trace_signature() {
    let mut device = HarDTape::new(
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) },
        Env::default(),
        &genesis(),
    ).expect("device boots");
    let mut user = device.connect_user(b"verifying user").unwrap();
    let tx = Transaction::transfer(
        Address::from_low_u64(0x1000),
        Address::from_low_u64(0x1001),
        U256::ONE,
    );
    let report = device.pre_execute(&mut user, &Bundle::single(tx)).unwrap();

    // The user verifies the trace against the attested device session key.
    let signature = report.signature.expect("-ES signs traces");
    let trace = report.encode();
    let device_key = VerifyingKey::new(user.device_key());
    verify_bundle(&device_key, &trace, &signature).expect("honest trace verifies");

    // A tampered trace (SP edits the reported gas) fails verification —
    // attack "mislead the user with fake results" is detectable.
    let mut forged = report.clone();
    forged.results[0].gas_used += 1;
    assert!(verify_bundle(&device_key, &forged.encode(), &signature).is_err());

    // A signature from a different session does not transfer.
    let mut other_user = device.connect_user(b"other user").unwrap();
    assert_ne!(user.device_key(), other_user.device_key());
    let _ = &mut other_user;
}

// ---------------------------------------------------------------------------
// FleetRouter: fault-tolerant fleet soak and directed failover tests.
// ---------------------------------------------------------------------------

const FLEET_DEVICES: usize = 4;
const FLEET_TENANTS: usize = 1_000;
/// The device the chaos soak kills mid-run (1 of 4).
const CRASH_DEVICE: usize = 1;
/// A gas bomb's budget: at a 100k gas slice it yields ~20 times, so at
/// crash time its `BundlePause` checkpoint is sitting in the dead
/// device's queue.
const FLEET_BOMB_GAS: u64 = 2_000_000;

fn fleet_tenant_addr(i: usize) -> Address {
    Address::from_low_u64(0xA000 + i as u64)
}

fn fleet_sink_addr(i: usize) -> Address {
    Address::from_low_u64(0x2_0000 + i as u64)
}

/// The account chain blocks spend from. Deliberately *not* a tenant
/// account: pre-execution receipts must depend only on genesis + the
/// tenant's own bundle, never on how far a device has synced, so the
/// crash run's migrated receipts stay byte-comparable to the clean
/// run's regardless of sync timing.
fn chain_producer() -> Address {
    Address::from_low_u64(0xC0DE)
}

/// Genesis with one funded account per tenant, the chain producer, and
/// the gas-bomb contract (for exercising in-flight paused work).
fn fleet_genesis() -> InMemoryState {
    let mut state = InMemoryState::new();
    for i in 0..FLEET_TENANTS {
        state.put_account(fleet_tenant_addr(i), Account::with_balance(U256::from(u64::MAX)));
    }
    state.put_account(chain_producer(), Account::with_balance(U256::from(u64::MAX)));
    state.put_account(
        contracts::gasbomb_address(),
        Account::with_code(contracts::gasbomb_runtime()),
    );
    state
}

fn fleet_transfer(tenant: usize, step: usize) -> Bundle {
    Bundle::single(Transaction::transfer(
        fleet_tenant_addr(tenant),
        fleet_sink_addr(tenant),
        U256::from(1 + step as u64),
    ))
}

/// Three independent feeds over identical nodes; the whole fleet syncs
/// from this one set.
fn fleet_feedset() -> FeedSet {
    FeedSet::new(
        (0..3).map(|_| BlockFeed::new(Node::new(fleet_genesis(), Env::default()))).collect(),
    )
}

fn fleet_produce_on_all(feeds: &mut FeedSet, step: u64) {
    for i in 0..feeds.len() {
        feeds.feed_mut(i).expect("feed exists").node_mut().produce_block(vec![
            Transaction::transfer(chain_producer(), fleet_sink_addr(0), U256::from(900 + step)),
        ]);
    }
}

/// Rewinds every feed to one block and builds a heavier replacement
/// branch of `blocks` blocks, salted for per-seed variety.
fn fleet_reorg_all(feeds: &mut FeedSet, blocks: u64, salt: u64) {
    for i in 0..feeds.len() {
        let node = feeds.feed_mut(i).expect("feed exists").node_mut();
        assert!(node.revert_to(1), "every fleet chain keeps its first block");
        for s in 0..blocks {
            node.produce_block(vec![Transaction::transfer(
                chain_producer(),
                fleet_sink_addr(1),
                U256::from(700 + salt % 97 + s),
            )]);
        }
    }
}

/// A K-device fleet over `-ES` devices with a 100k gas slice (so gas
/// bombs actually pause) and effectively unbounded admission — the
/// soak stresses failover, not overload, which has its own soak.
fn fleet_router_with(devices: usize, seed: u64, config: GatewayConfig) -> FleetRouter {
    let genesis = fleet_genesis();
    let gateways = (0..devices)
        .map(|d| {
            let mut service = ServiceConfig {
                oram_height: 10,
                seed: seed ^ (0xD00D + d as u64),
                ..ServiceConfig::at_level(SecurityConfig::Es)
            };
            service.hevm.gas_slice = Some(100_000);
            Gateway::new(
                HarDTape::new(service, Env::default(), &genesis).expect("device boots"),
                config.clone(),
            )
        })
        .collect();
    FleetRouter::new(gateways)
}

fn fleet_router(seed: u64) -> FleetRouter {
    fleet_router_with(
        FLEET_DEVICES,
        seed,
        GatewayConfig {
            admission_budget: 10_000,
            workers: fleet_workers(),
        },
    )
}

fn fleet_seed() -> u64 {
    match std::env::var("HARDTAPE_SOAK_SEED") {
        Ok(v) => v.parse().expect("HARDTAPE_SOAK_SEED must be a u64"),
        Err(_) => 0xC0FFEE,
    }
}

/// Worker-pool size for every device in the soak fleet.
/// `scripts/verify.sh --soak` replays one seed at 2 workers and
/// requires FLEET_DIGEST to match the 1-worker run byte-for-byte.
fn fleet_workers() -> usize {
    match std::env::var("HARDTAPE_SOAK_WORKERS") {
        Ok(v) => v.parse().expect("HARDTAPE_SOAK_WORKERS must be a usize"),
        Err(_) => 1,
    }
}

/// Everything one chaos run produces that the determinism and
/// crash-vs-clean comparisons need.
struct FleetRunOutcome {
    digest: String,
    /// Keccak over every completion's `(ticket, completed_at, outcome)`,
    /// sorted by ticket (`FLEET_COMPLETIONS`).
    delivered: String,
    head: Option<B256>,
    /// (tenant, step) → `Debug` rendering of the report's per-tx
    /// results for every OK completion. Signatures and timings
    /// legitimately differ across devices and sessions; the execution
    /// receipt must not.
    receipts: BTreeMap<(usize, usize), String>,
    /// Tenants that were homed on the crashed device (empty for a
    /// clean run).
    migrated: BTreeSet<usize>,
    /// Migrated tenants' (tenant, step) pairs that completed OK on a
    /// *surviving* device — the set whose receipts must be
    /// byte-identical to the clean run's.
    post_crash_ok: BTreeSet<(usize, usize)>,
    stats: FleetStats,
    /// Bombs still in flight on the crashed device when it died, and
    /// the segments it had run of them (crash runs only): the work the
    /// survivors run again.
    rerun: Option<(BTreeSet<(usize, usize)>, u64)>,
}

/// One seeded fleet chaos run: ~10³ tenants sharded over 4 devices,
/// two bundles each in a seeded interleave, periodic fleet-wide rounds
/// and quorum syncs, seeded `DeviceHang` faults, a mid-soak
/// `DeviceCrash` of 1 of 4 devices (when `crash`), and a mid-soak
/// depth reorg. Asserts the fleet exactly-once contract, head
/// convergence, and the §IV-D audit on every surviving device.
fn fleet_chaos_run(seed: u64, crash: bool) -> FleetRunOutcome {
    let mut router = fleet_router(seed);
    if crash {
        // Seeded availability adversary: sporadic hangs (watchdog
        // strikes) on top of the deterministic mid-soak crash below.
        let plan = FaultPlan::new(seed ^ 0xF1EE7, router.gateway(0).device().clock());
        plan.arm(FaultSite::Device, &[FaultKind::DeviceHang], 9, 5);
        router.arm_faults(plan);
    }

    let mut sessions = Vec::with_capacity(FLEET_TENANTS);
    let mut owner = BTreeMap::new();
    for i in 0..FLEET_TENANTS {
        let session = router
            .connect(format!("fleet tenant {i}").as_bytes())
            .expect("attestation of a fresh tenant succeeds");
        owner.insert(session, i);
        sessions.push(session);
    }

    let mut feeds = fleet_feedset();
    fleet_produce_on_all(&mut feeds, 0);
    let sync = router.sync_all(&mut feeds);
    assert!(sync.iter().all(|(_, o)| o.is_ok()), "initial fleet sync failed");

    let counts = vec![2usize; FLEET_TENANTS];
    let order = interleave(&counts, seed);
    let crash_at = order.len() / 2;
    let reorg_at = order.len() * 3 / 4;

    let mut admitted = BTreeSet::new();
    let mut ticket_meta: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    let mut bomb_tickets = BTreeSet::new();
    let mut completions: Vec<FleetCompletion> = Vec::new();
    let mut steps = vec![0usize; FLEET_TENANTS];
    let mut migrated: BTreeSet<usize> = BTreeSet::new();
    let mut rerun = None;
    let mut produced = 0u64;

    for (op, &tenant) in order.iter().enumerate() {
        let step = steps[tenant];
        steps[tenant] += 1;
        match router.submit(sessions[tenant], fleet_transfer(tenant, step)) {
            Ok(ticket) => {
                assert!(admitted.insert(ticket), "fleet ticket {ticket} issued twice");
                ticket_meta.insert(ticket, (tenant, step));
            }
            Err(FleetError::Gateway(GatewayError::Overloaded { retry_after })) => {
                assert!(retry_after > 0, "overload must carry a usable retry hint");
                // Shed pressure, retry once; a second rejection is
                // accepted as final (typed, not silent). Only a
                // hang-quarantined home produces this in the soak.
                completions.extend(router.run_round());
                if let Ok(ticket) = router.submit(sessions[tenant], fleet_transfer(tenant, step)) {
                    assert!(admitted.insert(ticket), "fleet ticket {ticket} issued twice");
                    ticket_meta.insert(ticket, (tenant, step));
                }
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }

        if op % 8 == 7 {
            completions.extend(router.run_round());
        }
        if op % 250 == 249 {
            produced += 1;
            fleet_produce_on_all(&mut feeds, produced);
            let sync = router.sync_all(&mut feeds);
            assert!(sync.iter().all(|(_, o)| o.is_ok()), "extension sync failed");
        }

        if op == crash_at {
            // Both runs plant two gas bombs on the doomed device and
            // run one round, leaving their pause checkpoints in its
            // queue — the in-flight work a crash must re-run elsewhere.
            let victims: Vec<usize> = (0..FLEET_TENANTS)
                .filter(|&i| router.tenant_device(sessions[i]) == Some(CRASH_DEVICE))
                .take(2)
                .collect();
            assert_eq!(victims.len(), 2, "rendezvous left the crash device nearly empty");
            for &victim in &victims {
                let ticket = router
                    .submit(
                        sessions[victim],
                        Bundle::single(contracts::gasbomb_tx(
                            fleet_tenant_addr(victim),
                            FLEET_BOMB_GAS,
                        )),
                    )
                    .expect("bomb admitted");
                assert!(admitted.insert(ticket), "fleet ticket {ticket} issued twice");
                ticket_meta.insert(ticket, (victim, 9_999));
                bomb_tickets.insert(ticket);
            }
            completions.extend(router.run_round());
            if crash {
                migrated = (0..FLEET_TENANTS)
                    .filter(|&i| router.tenant_device(sessions[i]) == Some(CRASH_DEVICE))
                    .collect();
                assert!(!migrated.is_empty(), "the crash device must be hosting tenants");
                let resolved: BTreeSet<u64> = completions.iter().map(|c| c.ticket).collect();
                let in_flight = bomb_tickets
                    .iter()
                    .filter(|ticket| !resolved.contains(ticket))
                    .map(|ticket| ticket_meta[ticket])
                    .collect();
                // Only a bomb outruns a gas slice, so every segment that
                // yielded on this device belongs to one still in flight.
                let segments = router.gateway(CRASH_DEVICE).stats().preempted;
                rerun = Some((in_flight, segments));
                let refused = router.fail_device(CRASH_DEVICE);
                assert!(refused.is_empty(), "failover shed {} tickets", refused.len());
            }
        }

        if op == reorg_at {
            // Every feed rewrites history with a strictly heavier
            // branch; every surviving device must roll back and adopt.
            fleet_reorg_all(&mut feeds, 12, seed);
            let sync = router.sync_all(&mut feeds);
            for (device, outcome) in &sync {
                assert!(
                    matches!(outcome, Ok(hardtape::SyncOutcome::Reorged { .. })),
                    "device {device} missed the reorg: {outcome:?}"
                );
            }
        }
    }
    completions.extend(router.run_until_idle());
    assert_eq!(router.queued_total(), 0, "drain left fleet work queued");

    // Exactly-once across migration, re-runs, hangs, and the reorg:
    // the completed ticket set IS the admitted ticket set.
    let completed: BTreeSet<u64> = completions.iter().map(|c| c.ticket).collect();
    assert_eq!(completed.len(), completions.len(), "a fleet ticket completed twice");
    assert_eq!(completed, admitted, "admitted and completed fleet tickets diverge");
    let stats = router.stats();
    assert_eq!(stats.admitted as usize, admitted.len());
    assert_eq!(
        stats.completed_ok + stats.completed_err,
        stats.admitted,
        "every admitted fleet bundle must be accounted to exactly one outcome"
    );

    // All surviving devices converged on the same adopted head.
    let head = router.converged_head().expect("surviving devices agree on the head");

    // §IV-D auditor green on every surviving device.
    for device in 0..router.device_count() {
        if router.health_state(device) == HealthState::Failed {
            continue;
        }
        let report = router.gateway(device).device().telemetry().audit();
        assert!(
            report.passed(),
            "seed {seed}: device {device} failed the leakage audit: {:?}",
            report.violations
        );
    }

    // Receipts, isolation, and the post-crash comparison set.
    let mut receipts = BTreeMap::new();
    let mut post_crash_ok = BTreeSet::new();
    for completion in &completions {
        let tenant = *owner.get(&completion.session).expect("completion for unknown session");
        let (meta_tenant, step) =
            *ticket_meta.get(&completion.ticket).expect("completion for unknown ticket");
        assert_eq!(meta_tenant, tenant, "ticket resolved under the wrong tenant");
        if let Ok(report) = &completion.outcome {
            if !bomb_tickets.contains(&completion.ticket) {
                let own = [fleet_tenant_addr(tenant), fleet_sink_addr(tenant)];
                for (addr, _, _) in &report.changes.balances {
                    assert!(own.contains(addr), "tenant {tenant} report leaked {addr}");
                }
            }
            receipts.insert((tenant, step), format!("{:?}", report.results));
            if migrated.contains(&tenant) && completion.device != CRASH_DEVICE {
                post_crash_ok.insert((tenant, step));
            }
        }
    }

    let mut sorted: Vec<&FleetCompletion> = completions.iter().collect();
    sorted.sort_by_key(|c| (c.ticket, c.completed_at));
    let text: String = sorted
        .iter()
        .map(|c| format!("{} {} {:?}\n", c.ticket, c.completed_at, c.outcome))
        .collect();
    FleetRunOutcome {
        digest: router.digest(),
        delivered: tape_crypto::keccak256(text.as_bytes()).to_string(),
        head,
        receipts,
        migrated,
        post_crash_ok,
        stats,
        rerun,
    }
}

#[test]
fn fleet_chaos_soak_is_deterministic_and_survives_device_loss() {
    let seed = fleet_seed();
    let crash_a = fleet_chaos_run(seed, true);
    let crash_b = fleet_chaos_run(seed, true);
    assert_eq!(crash_a.digest, crash_b.digest, "seed {seed}: fleet schedules diverged");
    assert_eq!(crash_a.delivered, crash_b.delivered, "seed {seed}: fleet completions diverged");
    assert_eq!(crash_a.stats, crash_b.stats, "seed {seed}: fleet stats diverged");
    assert_eq!(crash_a.head, crash_b.head, "seed {seed}: adopted heads diverged");

    // The crash actually exercised every failover path.
    assert_eq!(crash_a.stats.device_failures, 1, "exactly 1 of {FLEET_DEVICES} devices died");
    assert!(!crash_a.migrated.is_empty(), "the dead device hosted no tenants");
    assert_eq!(
        crash_a.stats.migrations,
        crash_a.migrated.len() as u64,
        "every tenant on the dead device re-attested on a survivor"
    );
    assert!(crash_a.stats.health_transitions >= 1, "health transitions must be observable");

    // Migrated tenants' post-crash receipts are byte-identical to a
    // crash-free fleet run: migration moved the session, not the
    // execution semantics.
    let clean = fleet_chaos_run(seed, false);
    assert_eq!(clean.stats.device_failures, 0);
    assert!(
        !crash_a.post_crash_ok.is_empty(),
        "no migrated tenant completed work on a survivor"
    );
    for key in &crash_a.post_crash_ok {
        let migrated_receipt = crash_a.receipts.get(key);
        let clean_receipt = clean.receipts.get(key);
        assert!(clean_receipt.is_some(), "clean run never completed {key:?}");
        assert_eq!(migrated_receipt, clean_receipt, "migrated receipt diverged for {key:?}");
    }

    // Paused work was re-run, not shed: the crash caught at least one
    // bomb mid-run, and every bomb in flight completed on a survivor
    // with the crash-free receipt (checked in the loop above).
    let (paused, segments) = crash_a.rerun.clone().expect("the crash run records its re-runs");
    assert!(segments >= 1, "the crash must catch a paused bundle mid-run");
    for key in &paused {
        assert!(crash_a.post_crash_ok.contains(key), "paused {key:?} never completed on a survivor");
    }

    // Greppable witnesses for scripts/verify.sh --soak; the per-device
    // audits are asserted inside `fleet_chaos_run`.
    println!("FLEET_DIGEST seed={seed} digest={}", crash_a.digest);
    println!("FLEET_COMPLETIONS seed={seed} digest={}", crash_a.delivered);
    println!("FLEET_RERUN seed={seed} paused={} segments={segments}", paused.len());
    println!("FLEET_AUDIT seed={seed} passed=1");
}

#[test]
fn seeded_device_crash_fails_over_queued_work() {
    // Seeded DeviceCrash (budget 1, fires on the first armed draw):
    // device 0 dies on the first round with every queue full of fresh
    // work — everything is resubmitted on the survivor and completes.
    let mut router = fleet_router_with(2, 0xFA11, GatewayConfig::default());
    let plan = FaultPlan::new(0xFA11, router.gateway(0).device().clock());
    plan.arm(FaultSite::Device, &[FaultKind::DeviceCrash], 1, 1);
    router.arm_faults(plan);

    let mut sessions = Vec::new();
    for i in 0..6 {
        sessions.push(router.connect(format!("crash tenant {i}").as_bytes()).expect("attested"));
    }
    let mut admitted = BTreeSet::new();
    for (i, &session) in sessions.iter().enumerate() {
        admitted.insert(router.submit(session, fleet_transfer(i, 0)).expect("admitted"));
    }

    let completions = router.run_until_idle();
    assert_eq!(router.stats().device_failures, 1, "the armed crash fired");
    let completed: BTreeSet<u64> = completions.iter().map(|c| c.ticket).collect();
    assert_eq!(completed, admitted, "failover lost or invented tickets");
    for completion in &completions {
        let report = completion.outcome.as_ref().expect("fresh queued work survives a crash");
        assert!(report.results[0].success);
    }
    assert!(router.stats().migrations > 0, "the dead device hosted tenants that migrated");
    assert_eq!(
        router.stats().completed_ok + router.stats().completed_err,
        router.stats().admitted
    );
}

#[test]
fn full_fleet_failover_serves_the_crash_free_receipt() {
    // Two `-Full` devices: each keeps its world state in its own ORAM,
    // sealed under the key it drew at boot. A tenant with queued work
    // loses its home; the survivor serves the work from its own
    // replica, and the receipt must be the one a crash-free fleet
    // gives.
    let genesis = genesis();
    let run = |crash: bool| {
        let gateways = (0..2)
            .map(|d| {
                let service = ServiceConfig {
                    oram_height: 10,
                    seed: 0xF0 + d as u64,
                    ..ServiceConfig::at_level(SecurityConfig::Full)
                };
                Gateway::new(
                    HarDTape::new(service, Env::default(), &genesis).expect("device boots"),
                    GatewayConfig::default(),
                )
            })
            .collect();
        let mut router = FleetRouter::new(gateways);
        let (session, _) = tenant_on_device_0(&mut router);
        let tickets: Vec<u64> = (0..2u64)
            .map(|step| {
                let tx = Transaction::transfer(
                    Address::from_low_u64(0x1000),
                    Address::from_low_u64(0x1001),
                    U256::from(step + 1),
                );
                router.submit(session, Bundle::single(tx)).expect("admitted")
            })
            .collect();
        let mut completions = if crash { router.fail_device(0) } else { Vec::new() };
        completions.extend(router.run_until_idle());
        assert_eq!(completions.len(), tickets.len(), "every ticket completes once");
        let server = router.gateway(usize::from(crash)).device().oram_stats();
        assert!(server.expect("-Full keeps an ORAM").kv_queries > 0, "reads went through the ORAM");
        tickets
            .iter()
            .map(|ticket| {
                let done = completions.iter().find(|c| c.ticket == *ticket).expect("completes");
                assert_eq!(done.device, usize::from(crash), "served by the tenant's live home");
                let report = done.outcome.as_ref().expect("queued work survives a crash");
                assert!(report.results[0].success);
                format!("{:?}", report.results)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(true), run(false), "the survivor's receipts differ from a crash-free run's");
}

/// Connects tenants until one is homed on device 0; returns its fleet
/// session and tenant index.
fn tenant_on_device_0(router: &mut FleetRouter) -> (u64, usize) {
    for i in 0..8 {
        let session = router.connect(format!("pause tenant {i}").as_bytes()).expect("attested");
        if router.tenant_device(session) == Some(0) {
            return (session, i);
        }
    }
    panic!("8 tenants always land one on device 0");
}

/// Runs `bundle` for the first tenant homed on device 0 of a fresh
/// two-device fleet, with no crash, and returns its receipt.
fn uninterrupted_receipt(bundle: Bundle) -> String {
    let mut router = fleet_router_with(2, 0x9A5B, GatewayConfig::default());
    let (session, _) = tenant_on_device_0(&mut router);
    let ticket = router.submit(session, bundle).expect("admitted");
    let completions = router.run_until_idle();
    let done = completions.iter().find(|c| c.ticket == ticket).expect("completes");
    format!("{:?}", done.outcome.as_ref().expect("succeeds").results)
}

#[test]
fn crash_reruns_paused_work_on_the_survivor_with_the_uninterrupted_receipt() {
    let mut router = fleet_router_with(2, 0x9A5B, GatewayConfig::default());
    let (victim, index) = tenant_on_device_0(&mut router);

    let ticket = router
        .submit(
            victim,
            Bundle::single(contracts::gasbomb_tx(fleet_tenant_addr(index), FLEET_BOMB_GAS)),
        )
        .expect("bomb admitted");
    // One round: the bomb burns one 100k slice, pauses, re-queues.
    assert!(router.run_round().is_empty(), "the bomb must still be in flight");
    assert_eq!(router.gateway(0).stats().preempted, 1, "the bomb paused on device 0");

    // The crash drops the pause and resubmits the bundle on the
    // survivor: nothing resolves at the crash itself.
    assert!(router.fail_device(0).is_empty(), "failover sheds nothing");
    let next =
        router.submit(victim, fleet_transfer(index, 1)).expect("survivor serves the tenant");
    let completions = router.run_until_idle();
    let bomb: Vec<_> = completions.iter().filter(|c| c.ticket == ticket).collect();
    assert_eq!(bomb.len(), 1, "the paused bomb completes exactly once");
    assert_eq!(bomb[0].device, 1, "the bomb re-runs on the survivor");
    let report = bomb[0].outcome.as_ref().expect("the re-run succeeds");
    assert_eq!(
        format!("{:?}", report.results),
        uninterrupted_receipt(Bundle::single(contracts::gasbomb_tx(
            fleet_tenant_addr(index),
            FLEET_BOMB_GAS
        ))),
        "the re-run's receipt differs from an uninterrupted run's"
    );

    // The migrated tenant keeps working on the survivor.
    let done = completions.iter().find(|c| c.ticket == next).expect("completes");
    assert_eq!(done.device, 1, "post-migration work runs on the survivor");
    assert!(done.outcome.as_ref().expect("succeeds").results[0].success);
    assert!(router.run_round().is_empty(), "nothing left in flight");
    let stats = router.stats();
    assert_eq!(stats.completed_ok, stats.admitted, "every admitted ticket completed OK");
}

fn now_on(router: &FleetRouter, device: usize) -> u64 {
    router.gateway(device).device().clock().now()
}

#[test]
fn failover_carries_the_wait_served_on_dead_devices() {
    // One failover, the dead device's clock ahead of the survivor's: a
    // bomb burns slices on device 0 while device 1 idles.
    let mut router = fleet_router_with(2, 0x9A5B, GatewayConfig::default());
    let (victim, index) = tenant_on_device_0(&mut router);
    let bomb_admitted_at = now_on(&router, 0);
    let bomb = router
        .submit(
            victim,
            Bundle::single(contracts::gasbomb_tx(fleet_tenant_addr(index), FLEET_BOMB_GAS)),
        )
        .expect("bomb admitted");
    for _ in 0..3 {
        assert!(router.run_round().is_empty(), "the bomb must still be in flight");
    }
    let queued_admitted_at = now_on(&router, 0);
    let queued = router.submit(victim, fleet_transfer(index, 1)).expect("transfer admitted");
    assert!(router.fail_device(0).is_empty(), "failover sheds nothing");
    let (dead_now, survivor_now) = (now_on(&router, 0), now_on(&router, 1));
    assert!(dead_now > survivor_now, "the dead clock must run ahead: {dead_now} vs {survivor_now}");

    let after = router.submit(victim, fleet_transfer(index, 2)).expect("survivor admits");
    let completions = router.run_until_idle();
    let find = |ticket| completions.iter().find(|c| c.ticket == ticket).expect("completes");
    for (ticket, first_admitted_at) in [(bomb, bomb_admitted_at), (queued, queued_admitted_at)] {
        let done = find(ticket);
        assert_eq!(done.device, 1, "resubmitted work completes on the survivor");
        assert_eq!(done.admitted_at, survivor_now, "re-admitted on the survivor's clock");
        assert_eq!(done.carried_ns, dead_now - first_admitted_at, "the dead device's wait");
        assert_eq!(
            done.latency_ns(),
            done.completed_at - survivor_now + dead_now - first_admitted_at
        );
    }
    assert_eq!(find(after).carried_ns, 0, "work that never moved carries nothing");

    // Two failovers in a row: the waits add.
    let mut router = fleet_router_with(3, 0x9A5B, GatewayConfig::default());
    let (victim, index) = tenant_on_device_0(&mut router);
    let admitted_at = now_on(&router, 0);
    let bomb = router
        .submit(
            victim,
            Bundle::single(contracts::gasbomb_tx(fleet_tenant_addr(index), FLEET_BOMB_GAS)),
        )
        .expect("bomb admitted");
    assert!(router.run_round().is_empty(), "the bomb must still be in flight");
    assert!(router.fail_device(0).is_empty(), "failover sheds nothing");
    let first_wait = now_on(&router, 0) - admitted_at;
    let second = router.tenant_device(victim).expect("migrated");
    let readmitted_at = now_on(&router, second);
    assert!(router.run_round().is_empty(), "the bomb must still be in flight");
    assert!(router.fail_device(second).is_empty(), "failover sheds nothing");
    let second_wait = now_on(&router, second) - readmitted_at;
    assert!(first_wait > 0 && second_wait > 0, "each dead device served part of the wait");
    let third = router.tenant_device(victim).expect("migrated again");
    let completions = router.run_until_idle();
    let done = completions.iter().find(|c| c.ticket == bomb).expect("completes");
    assert_eq!(done.device, third);
    assert_eq!(done.carried_ns, first_wait + second_wait, "the two dead devices' waits add");
    assert!(done.outcome.is_ok());
}

#[test]
fn hang_faults_walk_quarantine_and_probation_back_to_healthy() {
    let genesis = fleet_genesis();
    let gateways = (0..2)
        .map(|d| {
            let service = ServiceConfig {
                oram_height: 10,
                seed: 0x4A6 + d as u64,
                ..ServiceConfig::at_level(SecurityConfig::Es)
            };
            Gateway::new(
                HarDTape::new(service, Env::default(), &genesis).expect("device boots"),
                GatewayConfig::default(),
            )
        })
        .collect();
    let mut router = FleetRouter::new(gateways);
    // every=1, budget=6: rounds 1 to 3 hang both devices — three
    // consecutive strikes each, tripping the three-strike quarantine.
    let plan = FaultPlan::new(7, router.gateway(0).device().clock());
    plan.arm(FaultSite::Device, &[FaultKind::DeviceHang], 1, 6);
    router.arm_faults(plan);

    let session = router.connect(b"hang tenant").expect("attested");
    let home = router.tenant_device(session).expect("tenant is homed");

    for _ in 0..2 {
        assert!(router.run_round().is_empty());
        assert_eq!(router.health_state(0), HealthState::Suspect);
    }
    assert!(router.run_round().is_empty());
    assert_eq!(router.health_state(0), HealthState::Quarantined);
    assert_eq!(router.health_state(1), HealthState::Quarantined);

    // A quarantined home refuses new work with a typed, nonzero hint.
    match router.submit(session, fleet_transfer(0, 0)) {
        Err(FleetError::Gateway(GatewayError::Overloaded { retry_after })) => {
            assert!(retry_after > 0, "quarantine must say when to come back");
        }
        other => panic!("expected Overloaded from a quarantined home, got {other:?}"),
    }

    // Every round burns 500 ms of idle time on a skipped device: the
    // 2 s cooldown from the third strike holds through two skipped
    // rounds and is over after the third. The next round is then a
    // probation probe, which passes (the hang budget is spent).
    for _ in 0..2 {
        assert!(router.run_round().is_empty());
    }
    assert_eq!(router.health_state(home), HealthState::Quarantined, "cooldown not yet over");
    assert!(router.run_round().is_empty());
    assert!(matches!(
        router.health_state(home),
        HealthState::Probation | HealthState::Healthy
    ));
    let ticket = router.submit(session, fleet_transfer(0, 0)).expect("healed home admits");
    let completions = router.run_until_idle();
    assert!(completions.iter().any(|c| c.ticket == ticket && c.outcome.is_ok()));
    assert_eq!(router.health_state(home), HealthState::Healthy);
    assert!(
        router.stats().health_transitions >= 4,
        "healthy->suspect->quarantined->probation->healthy must all be observable"
    );
}

#[test]
fn overload_hint_quotes_the_home_device_not_an_idle_sibling() {
    // Device 0 is congested (a deep backlog behind a bounded queue),
    // device 1 is idle. Rendezvous sharding pins the tenant to device
    // 0, so a retry can only ever land there — the rejection must
    // quote the congested home's own drain estimate. (The router used
    // to quote the minimum hint over all eligible devices: a caller
    // backing off for the idle sibling's one-bundle floor retried into
    // a home that had not drained and was rejected again.)
    let genesis = fleet_genesis();
    let configs = [
        GatewayConfig { admission_budget: 6, ..GatewayConfig::default() },
        GatewayConfig::default(),
    ];
    let gateways = configs
        .iter()
        .enumerate()
        .map(|(d, config)| {
            let service = ServiceConfig {
                oram_height: 10,
                seed: 0xB157 + d as u64,
                ..ServiceConfig::at_level(SecurityConfig::Es)
            };
            Gateway::new(
                HarDTape::new(service, Env::default(), &genesis).expect("device boots"),
                config.clone(),
            )
        })
        .collect();
    let mut router = FleetRouter::new(gateways);

    // Find a tenant homed on the tiny device.
    let mut victim = None;
    for i in 0..16 {
        let session = router.connect(format!("hint tenant {i}").as_bytes()).expect("attested");
        if router.tenant_device(session) == Some(0) {
            victim = Some(session);
            break;
        }
    }
    let victim = victim.expect("16 tenants always land one on device 0");

    for step in 0..6 {
        router.submit(victim, fleet_transfer(0, step)).expect("backlog fits the queue");
    }
    let home_hint = router.gateway(0).retry_after_hint();
    let sibling_hint = router.gateway(1).retry_after_hint();
    // Six queued bundles: strictly above the idle sibling's one-bundle
    // floor, so the two quotes are distinguishable.
    assert!(home_hint > sibling_hint);
    match router.submit(victim, fleet_transfer(0, 6)) {
        Err(FleetError::Gateway(GatewayError::Overloaded { retry_after })) => {
            assert_eq!(
                retry_after, home_hint,
                "the rejection must quote the home the retry will land on"
            );
            assert!(
                retry_after > sibling_hint,
                "hint {retry_after} must not advertise the idle sibling's \
                 {sibling_hint} — the router never routes this tenant there"
            );
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
}

#[test]
fn split_heads_surface_as_typed_divergence() {
    let mut router = fleet_router_with(2, 0x5EAD, GatewayConfig::default());
    let mut feeds = fleet_feedset();
    fleet_produce_on_all(&mut feeds, 0);

    // Sync only device 0 (out-of-band): the fleet now disagrees.
    router.gateway_mut(0).sync_set(&mut feeds).expect("device 0 syncs");
    match router.converged_head() {
        Err(FleetError::SplitHead { heads }) => {
            assert_eq!(heads.len(), 2);
            assert!(heads[0].1.is_some() && heads[1].1.is_none());
        }
        other => panic!("expected SplitHead, got {other:?}"),
    }

    // A fleet-wide sync against the same FeedSet restores convergence.
    let sync = router.sync_all(&mut feeds);
    assert!(sync.iter().all(|(_, o)| o.is_ok()));
    let head = router.converged_head().expect("fleet re-converged");
    assert!(head.is_some());
}

#[test]
fn lone_device_failure_orphans_tenants_with_typed_errors() {
    let mut router = fleet_router_with(1, 0x0127, GatewayConfig::default());
    let session = router.connect(b"orphan tenant").expect("attested");
    let ticket = router.submit(session, fleet_transfer(0, 0)).expect("admitted");

    // No survivor: queued work completes with a typed error, never
    // silently — exactly-once holds even when the whole fleet is gone.
    let completions = router.fail_device(0);
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0].ticket, ticket);
    assert!(
        matches!(completions[0].outcome, Err(FleetError::NoEligibleDevice)),
        "expected NoEligibleDevice, got {:?}",
        completions[0].outcome
    );

    assert!(matches!(
        router.submit(session, fleet_transfer(0, 1)),
        Err(FleetError::NoEligibleDevice)
    ));
    assert!(matches!(router.connect(b"late tenant"), Err(FleetError::NoEligibleDevice)));
    assert_eq!(router.stats().completed_ok + router.stats().completed_err, 1);
}

#[test]
fn sequential_sessions_reuse_devices_cleanly() {
    // One device, many users in sequence: no state bleeds between
    // sessions (each bundle sees the pristine backend).
    let genesis = genesis();
    let mut device = HarDTape::new(
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Full) },
        Env::default(),
        &genesis,
    ).expect("device boots");
    let from = Address::from_low_u64(0x1000);
    let to = Address::from_low_u64(0x1001);
    let mut first_report = None;
    for i in 0..4 {
        let mut user = device.connect_user(format!("serial user {i}").as_bytes()).unwrap();
        let tx = Transaction::transfer(from, to, U256::from(100u64));
        let report = device.pre_execute(&mut user, &Bundle::single(tx)).unwrap();
        assert!(report.results[0].success);
        match &first_report {
            None => first_report = Some(report.results.clone()),
            Some(expected) => assert_eq!(&report.results, expected, "session {i} saw leakage"),
        }
    }
}
