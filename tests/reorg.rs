//! Acceptance tests for reorg-aware Byzantine block sync (paper step 11
//! under threats A1/A6): a depth-3 reorg served by a 2-of-3 quorum with
//! one equivocating feed must roll the world state back to the verified
//! fork point, replay the winning branch through the normal ORAM sync
//! path, and leave the device byte-identical — receipt and all — to a
//! device that only ever saw the winning chain. The telemetry auditor's
//! reorg lens (§IV-D) must pass over the rollback window, and the
//! mirror-only ablation (rollback applied *outside* the ORAM path) must
//! fail it.

use hardtape::{
    Bundle, ForkPoint, HarDTape, SecurityConfig, ServiceConfig, ServiceError, SyncOutcome,
};
use tape_evm::{Env, Transaction};
use tape_node::{BlockFeed, FeedSet, Node, QuarantineReason};
use tape_primitives::{Address, U256};
use tape_sim::fault::{Ablation, FaultKind, FaultPlan, FaultSite};
use tape_sim::telemetry::audit::Violation;
use tape_sim::telemetry::{CounterId, TelemetryEvent};
use tape_state::{Account, InMemoryState};
use tape_workload::contracts;

fn payer() -> Address {
    Address::from_low_u64(0xFEE0)
}

fn user() -> Address {
    Address::from_low_u64(0x1000)
}

fn genesis() -> InMemoryState {
    let mut state = InMemoryState::new();
    state.put_account(payer(), Account::with_balance(U256::from(u64::MAX)));
    state.put_account(user(), Account::with_balance(U256::from(u64::MAX)));
    state
}

/// Branch A (the chain that gets orphaned): one transfer per block.
fn branch_a_txs(h: u64) -> Vec<Transaction> {
    vec![Transaction::transfer(payer(), Address::from_low_u64(0xB000 + h), U256::from(100 + h))]
}

/// Branch B (the winning branch): different recipients and values, so
/// the two branches produce genuinely different world states.
fn branch_b_txs(h: u64) -> Vec<Transaction> {
    vec![Transaction::transfer(payer(), Address::from_low_u64(0xC000 + h), U256::from(900 + h))]
}

fn full_device() -> HarDTape {
    full_device_under(None)
}

fn full_device_under(ablation: Option<Ablation>) -> HarDTape {
    HarDTape::new(
        ServiceConfig {
            oram_height: 10,
            ablation,
            ..ServiceConfig::at_level(SecurityConfig::Full)
        },
        Env::default(),
        &genesis(),
    )
    .expect("device boots")
}

fn three_feeds() -> FeedSet {
    FeedSet::new(
        (0..3).map(|_| BlockFeed::new(Node::new(genesis(), Env::default()))).collect(),
    )
}

/// Grows branch A on every feed and syncs the device after each block.
fn grow_branch_a(device: &mut HarDTape, feeds: &mut FeedSet, blocks: u64) {
    for h in 1..=blocks {
        for i in 0..feeds.len() {
            feeds.feed_mut(i).expect("feed exists").node_mut().produce_block(branch_a_txs(h));
        }
        let outcome = device.sync_from_feeds(feeds).expect("honest quorum sync succeeds");
        assert_eq!(outcome, SyncOutcome::Advanced { blocks: 1 });
    }
}

/// Rewinds feed `i` to one block and produces `blocks` branch-B blocks
/// on top, leaving it one block taller than a `blocks`-block branch A.
fn adopt_branch_b(feeds: &mut FeedSet, i: usize, blocks: u64) {
    let node = feeds.feed_mut(i).expect("feed exists").node_mut();
    assert!(node.revert_to(1), "rewind to the first block");
    for h in 1..=blocks {
        node.produce_block(branch_b_txs(h));
    }
}

#[test]
fn depth_three_reorg_rolls_back_replays_and_matches_clean_run() {
    let mut feeds = three_feeds();
    let mut device = full_device();
    grow_branch_a(&mut device, &mut feeds, 4);

    let base = Env::default().block_number;
    let old_head = device.head().expect("synced head");
    let fork_hash = feeds.feed_mut(0).expect("feed exists").node().block(0).expect("block 1").header.hash();
    assert_eq!(device.head_height(), Some(base + 3));

    // Feed 2 turns Byzantine: it alternates between the old head and a
    // verified sibling of it (same height, same state root).
    let plan = FaultPlan::new(7, device.clock());
    plan.arm(FaultSite::NodeFeed, &[FaultKind::Equivocate], 1, 1_000);
    feeds.feed_mut(2).expect("feed exists").arm_faults(plan);

    // Feeds 0 and 1 adopt a heavier branch forking right above block 1:
    // the old chain's blocks 2..4 are orphaned (depth 3).
    adopt_branch_b(&mut feeds, 0, 4);
    adopt_branch_b(&mut feeds, 1, 4);

    let outcome = device.sync_from_feeds(&mut feeds).expect("quorum resolves the reorg");
    let SyncOutcome::Reorged { fork, depth, orphaned, adopted } = outcome else {
        panic!("expected a reorg, got {outcome:?}");
    };
    assert_eq!(depth, 3, "fork point is three blocks below the old head");
    assert_eq!(fork, ForkPoint { height: base, hash: fork_hash });
    assert_eq!(orphaned.len(), 3, "three abandoned blocks");
    assert_eq!(orphaned[0], old_head, "orphans are reported newest first");
    assert_eq!(device.head(), Some(adopted));
    assert_eq!(device.head_height(), Some(base + 4), "winning branch is one taller");

    // The next poll catches feed 2 revisiting the abandoned old head:
    // equivocation evidence, quarantine, counters.
    let outcome = device.sync_from_feeds(&mut feeds).expect("already on the winning head");
    assert_eq!(outcome, SyncOutcome::AlreadySynced);
    assert_eq!(feeds.quarantined_count(), 1, "the equivocator is out");
    assert_eq!(
        feeds.status(2).expect("feed 2 status").quarantined,
        Some(QuarantineReason::Equivocation)
    );
    let telemetry = device.telemetry().clone();
    assert!(telemetry.counter(CounterId::EquivocationsDetected) >= 1);
    assert!(telemetry.counter(CounterId::FeedsQuarantined) >= 1);
    let rollbacks =
        telemetry.events().iter().filter(|ev| matches!(ev, TelemetryEvent::RollbackEnd { .. })).count();
    assert_eq!(rollbacks, 1, "one reorg applied");

    // Receipt equivalence: a bundle pre-executed after the reorg must be
    // byte-identical to one from a device that only ever synced the
    // winning chain — rollback + replay leaves no residue.
    let bundle = Bundle::single(Transaction::transfer(
        user(),
        Address::from_low_u64(0xDEAD),
        U256::from(7u64),
    ));
    let mut session = device.connect_user(b"reorg user").expect("attestation succeeds");
    let report = device.pre_execute(&mut session, &bundle).expect("pre-execution succeeds");

    let mut clean = full_device();
    {
        let winner = feeds.feed_mut(0).expect("feed exists").node();
        for i in 0..winner.height() {
            let header = winner.block(i).expect("block exists").header.clone();
            let delta = winner.state_delta(i).expect("delta exists");
            clean.sync_block(&header, &delta).expect("clean sync succeeds");
        }
    }
    assert_eq!(clean.head(), device.head(), "both devices attest the same head");
    let mut clean_session = clean.connect_user(b"reorg user").expect("attestation succeeds");
    let clean_report =
        clean.pre_execute(&mut clean_session, &bundle).expect("pre-execution succeeds");
    assert_eq!(
        report.encode(),
        clean_report.encode(),
        "post-reorg receipt must be byte-identical to a clean-sync run"
    );

    // §IV-D: the rollback window is indistinguishable from forward sync
    // on the ORAM bus — the auditor's reorg lens passes.
    let audit = telemetry.audit();
    assert!(audit.passed(), "reorg audit failed: {:?}", audit.violations);
    assert_eq!(audit.stats.rollbacks, 1);
    assert!(
        audit.stats.rollback_sync_writes > 0,
        "rollback must produce sync-shaped page writes"
    );
    // The whole report, pinned: keccak of its `Debug` form.
    assert_eq!(
        tape_crypto::keccak256(format!("{audit:?}").as_bytes()).to_string(),
        "0xf8447684b491310bb8d52d7035fc736c6aeb42a2e494cd30e14e26e0aa0076b3",
        "the rollback-lens report changed"
    );
}

fn token() -> Address {
    Address::from_low_u64(0x70_0000)
}

/// Token holders 0..4 hold `1000 · (i + 1)`; 0x7A00 and 0x7B00 start
/// empty and gain a balance on one branch only.
fn holder(i: u64) -> Address {
    Address::from_low_u64(0x7000 + i)
}

fn holders() -> Vec<Address> {
    let mut all: Vec<Address> = (0..4).map(holder).collect();
    all.extend([Address::from_low_u64(0x7A00), Address::from_low_u64(0x7B00)]);
    all
}

fn token_genesis() -> InMemoryState {
    let mut state = genesis();
    let mut erc20 = Account::with_code(contracts::erc20_runtime());
    for i in 0..4 {
        state.put_account(holder(i), Account::with_balance(U256::from(u64::MAX)));
        erc20.storage.insert(contracts::balance_slot(&holder(i)), U256::from(1000 * (i + 1)));
    }
    state.put_account(token(), erc20);
    state
}

fn token_transfer(from: Address, to: Address, amount: u64) -> Transaction {
    Transaction {
        gas_limit: 300_000,
        ..Transaction::call(
            from,
            token(),
            contracts::encode_call(
                contracts::sel::transfer(),
                &[to.into_word(), U256::from(amount)],
            ),
        )
    }
}

/// Branch A's token moves. Block 1 is the fork point both branches
/// share; block 2 empties holder 1 into a new holder, so the rollback
/// must restore one storage group and zero another.
fn token_branch_a(h: u64) -> Vec<Transaction> {
    match h {
        1 => vec![token_transfer(holder(0), holder(1), 50)],
        2 => vec![token_transfer(holder(1), Address::from_low_u64(0x7A00), 2050)],
        3 => vec![token_transfer(holder(2), holder(3), 7)],
        _ => vec![token_transfer(holder(3), Address::from_low_u64(0x7A00), 1)],
    }
}

/// Branch B moves other balances: holder 2 empties into holder 0 and
/// a different new holder appears.
fn token_branch_b(h: u64) -> Vec<Transaction> {
    match h {
        1 => vec![token_transfer(holder(2), holder(0), 3000)],
        2 => vec![token_transfer(holder(3), Address::from_low_u64(0x7B00), 500)],
        3 => vec![token_transfer(holder(0), holder(1), 9)],
        _ => vec![token_transfer(holder(1), holder(3), 3)],
    }
}

/// Every holder's `balanceOf`, read through a pre-executed bundle.
fn token_balances(device: &mut HarDTape) -> Vec<U256> {
    let mut session = device.connect_user(b"token reader").expect("attestation succeeds");
    holders()
        .into_iter()
        .map(|h| {
            let call = Bundle::single(Transaction {
                gas_limit: 100_000,
                ..Transaction::call(
                    user(),
                    token(),
                    contracts::encode_call(contracts::sel::balance_of(), &[h.into_word()]),
                )
            });
            let report = device.pre_execute(&mut session, &call).expect("balanceOf runs");
            assert!(report.results[0].success, "balanceOf({h:?}) reverted");
            U256::from_be_slice(&report.results[0].output)
        })
        .collect()
}

#[test]
fn depth_three_token_reorg_restores_every_balance() {
    let config = ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Full) };
    let mut feeds = FeedSet::new(
        (0..3).map(|_| BlockFeed::new(Node::new(token_genesis(), Env::default()))).collect(),
    );
    let mut device =
        HarDTape::new(config.clone(), Env::default(), &token_genesis()).expect("device boots");
    // Branch A, four blocks; the ORAM pages each block's sync wrote.
    let mut forward_pages = Vec::new();
    for h in 1..=4 {
        for i in 0..feeds.len() {
            feeds.feed_mut(i).expect("feed exists").node_mut().produce_block(token_branch_a(h));
        }
        let before = device.telemetry().counter(CounterId::OramSync);
        let outcome = device.sync_from_feeds(&mut feeds).expect("honest quorum sync succeeds");
        assert_eq!(outcome, SyncOutcome::Advanced { blocks: 1 });
        forward_pages.push(device.telemetry().counter(CounterId::OramSync) - before);
    }
    let on_branch_a = token_balances(&mut device);
    assert_eq!(on_branch_a[1], U256::ZERO, "holder 1 emptied on branch A");
    assert_eq!(on_branch_a[4], U256::from(2051u64), "the new holder's group was written");

    for i in 0..3 {
        let node = feeds.feed_mut(i).expect("feed exists").node_mut();
        assert!(node.revert_to(1), "rewind to the first block");
        for h in 1..=4 {
            node.produce_block(token_branch_b(h));
        }
    }
    let outcome = device.sync_from_feeds(&mut feeds).expect("quorum resolves the reorg");
    assert!(matches!(outcome, SyncOutcome::Reorged { depth: 3, .. }), "got {outcome:?}");
    // Rollback diffs against the same sync table forward sync updated:
    // it writes exactly the pages the orphaned blocks 2..4 wrote.
    let rolled_back = device.telemetry().events().iter().find_map(|ev| match ev {
        TelemetryEvent::RollbackEnd { pages, .. } => Some(u64::from(*pages)),
        _ => None,
    });
    assert_eq!(rolled_back, Some(forward_pages[1..].iter().sum()));

    let mut clean = HarDTape::new(config, Env::default(), &token_genesis()).expect("device boots");
    {
        let winner = feeds.feed_mut(0).expect("feed exists").node();
        for i in 0..winner.height() {
            let header = winner.block(i).expect("block exists").header.clone();
            let delta = winner.state_delta(i).expect("delta exists");
            clean.sync_block(&header, &delta).expect("clean sync succeeds");
        }
    }
    assert_eq!(clean.head(), device.head(), "both devices attest the same head");
    let balances = token_balances(&mut device);
    assert_eq!(balances, token_balances(&mut clean), "a balance kept residue of branch A");
    assert_eq!(balances[2], U256::ZERO, "holder 2 emptied on branch B");
    assert_eq!(balances[4], U256::ZERO, "branch A's new holder is gone");
    assert_eq!(balances[5], U256::from(500u64), "branch B's new holder is there");

    let audit = device.telemetry().audit();
    assert!(audit.passed(), "reorg audit failed: {:?}", audit.violations);
    assert_eq!(audit.stats.rollbacks, 1);
    assert!(forward_pages.iter().all(|&p| p > 0));
}

#[test]
fn rollback_outside_oram_path_fails_the_audit() {
    // Negative control for the §IV-D lens: same depth-3 reorg, but the
    // rollback restores only the local mirror (ORAM writes skipped while
    // still advertised). The auditor must flag the uncovered window.
    let mut feeds = three_feeds();
    let mut device = full_device_under(Some(Ablation::MirrorOnlyRollback));
    grow_branch_a(&mut device, &mut feeds, 4);
    for i in 0..3 {
        adopt_branch_b(&mut feeds, i, 4);
    }
    let outcome = device.sync_from_feeds(&mut feeds).expect("reorg still applies");
    assert!(matches!(outcome, SyncOutcome::Reorged { depth: 3, .. }));

    let audit = device.telemetry().audit();
    assert!(!audit.passed(), "mirror-only rollback must not pass the audit");
    assert!(
        audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RollbackUncovered { observed: 0, .. })),
        "expected RollbackUncovered, got {:?}",
        audit.violations
    );
}

#[test]
fn reorg_below_finality_depth_is_refused() {
    let mut feeds = three_feeds();
    let mut device = full_device();
    grow_branch_a(&mut device, &mut feeds, 10);
    let head_before = device.head();

    // A depth-9 rewrite against the finality depth of 8: the device must
    // refuse and keep its head rather than unwind finalized state.
    for i in 0..3 {
        adopt_branch_b(&mut feeds, i, 10);
    }
    let err = device.sync_from_feeds(&mut feeds).expect_err("finality must hold");
    assert!(
        matches!(err, ServiceError::FinalityViolation { depth: 9, finality: 8 }),
        "expected a finality violation, got {err:?}"
    );
    assert_eq!(device.head(), head_before, "refused reorg must not move the head");
}

#[test]
fn reorg_at_exactly_finality_depth_is_followed() {
    // The boundary of the test above: a depth-8 rewrite against the
    // finality depth of 8 is legal, so the undo window must reach the
    // fork point and the device must follow — and end up where a clean
    // sync ends up.
    let mut feeds = three_feeds();
    let mut device = full_device();
    grow_branch_a(&mut device, &mut feeds, 9);

    let base = Env::default().block_number;
    let old_head = device.head().expect("synced head");
    let fork_hash =
        feeds.feed_mut(0).expect("feed exists").node().block(0).expect("block 1").header.hash();
    for i in 0..3 {
        adopt_branch_b(&mut feeds, i, 9);
    }

    let outcome = device.sync_from_feeds(&mut feeds).expect("a depth-8 reorg is within finality");
    let SyncOutcome::Reorged { fork, depth, orphaned, adopted } = outcome else {
        panic!("expected a reorg, got {outcome:?}");
    };
    assert_eq!(depth, 8, "fork point is exactly the finality depth below the old head");
    assert_eq!(fork, ForkPoint { height: base, hash: fork_hash });
    assert_eq!(orphaned.len(), 8, "eight abandoned blocks");
    assert_eq!(orphaned[0], old_head, "orphans are reported newest first");
    assert_eq!(device.head(), Some(adopted));
    assert_eq!(device.head_height(), Some(base + 9), "winning branch is one taller");

    let bundle = Bundle::single(Transaction::transfer(
        user(),
        Address::from_low_u64(0xDEAD),
        U256::from(7u64),
    ));
    let mut session = device.connect_user(b"reorg user").expect("attestation succeeds");
    let report = device.pre_execute(&mut session, &bundle).expect("pre-execution succeeds");

    let mut clean = full_device();
    {
        let winner = feeds.feed_mut(0).expect("feed exists").node();
        for i in 0..winner.height() {
            let header = winner.block(i).expect("block exists").header.clone();
            let delta = winner.state_delta(i).expect("delta exists");
            clean.sync_block(&header, &delta).expect("clean sync succeeds");
        }
    }
    assert_eq!(clean.head(), device.head(), "both devices attest the same head");
    let mut clean_session = clean.connect_user(b"reorg user").expect("attestation succeeds");
    let clean_report =
        clean.pre_execute(&mut clean_session, &bundle).expect("pre-execution succeeds");
    assert_eq!(
        report.encode(),
        clean_report.encode(),
        "post-reorg receipt must be byte-identical to a clean-sync run"
    );
}

#[test]
fn stale_winner_the_device_already_applied_leaves_the_head_alone() {
    // A feed serving an older block of the device's own chain is behind,
    // not forking: the device keeps its head and rolls nothing back.
    let one_feed = || FeedSet::new(vec![BlockFeed::new(Node::new(genesis(), Env::default()))]);
    let mut ahead = one_feed();
    let mut device = full_device();
    grow_branch_a(&mut device, &mut ahead, 3);
    let (head, height) = (device.head(), device.head_height());

    let mut behind = one_feed();
    for h in 1..=2 {
        behind.feed_mut(0).expect("feed exists").node_mut().produce_block(branch_a_txs(h));
    }
    let outcome = device.sync_from_feeds(&mut behind).expect("a stale winner is no error");
    assert_eq!(outcome, SyncOutcome::AlreadySynced);
    assert_eq!((device.head(), device.head_height()), (head, height), "the head moved");
    let telemetry = device.telemetry();
    let events = telemetry.events();
    assert!(
        !events.iter().any(|ev| matches!(ev, TelemetryEvent::RollbackEnd { .. })),
        "a stale winner must not apply a reorg"
    );
    assert!(
        !events.iter().any(|ev| matches!(ev, TelemetryEvent::RollbackBegin { .. })),
        "a stale winner must not start a rollback"
    );
}

#[test]
fn equivocation_without_quorum_is_a_typed_error() {
    // Two feeds, both armed to equivocate from the start of the fork:
    // once both are quarantined there is no verified winner, and the
    // service surfaces the evidence instead of a generic outage.
    let mut feeds = FeedSet::new(
        (0..2).map(|_| BlockFeed::new(Node::new(genesis(), Env::default()))).collect(),
    );
    let mut device = full_device();
    grow_branch_a(&mut device, &mut feeds, 2);

    for i in 0..2 {
        let plan = FaultPlan::new(11 + i as u64, device.clock());
        plan.arm(FaultSite::NodeFeed, &[FaultKind::Equivocate], 1, 1_000);
        feeds.feed_mut(i).expect("feed exists").arm_faults(plan);
    }
    // Poll until both equivocators are caught (the revisit rule needs a
    // couple of alternations), then assert the typed terminal error.
    let mut saw_equivocation_error = false;
    for _ in 0..4 {
        match device.sync_from_feeds(&mut feeds) {
            Ok(_) => {}
            Err(ServiceError::Equivocation { .. }) => {
                saw_equivocation_error = true;
                break;
            }
            Err(ServiceError::NodeUnavailable) => break,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        saw_equivocation_error || feeds.quarantined_count() == 2,
        "equivocators must be caught and surfaced"
    );
    assert!(device.telemetry().counter(CounterId::EquivocationsDetected) >= 1);
}
