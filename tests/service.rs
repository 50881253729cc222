//! Full-service integration tests: the Fig. 3 lifecycle across every
//! security configuration, bundle semantics, block synchronization, and
//! the Fig. 4 cost ordering.

use hardtape::{
    Bundle, Gateway, GatewayConfig, HarDTape, SecurityConfig, ServiceConfig, ServiceError,
};
use tape_crypto::secp::VerifyingKey;
use tape_crypto::SecureRng;
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Transaction};
use tape_oram::{ObliviousState, OramClient, OramConfig, OramServer};
use tape_primitives::{Address, U256};
use tape_sim::{Clock, CostModel};
use tape_state::{Account, InMemoryState, StateReader};
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

fn genesis() -> InMemoryState {
    let mut state = InMemoryState::new();
    state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
    state.put_account(bob(), Account::with_balance(U256::from(u64::MAX)));
    let mut t = Account::with_code(contracts::erc20_runtime());
    t.storage.insert(contracts::balance_slot(&alice()), U256::from(1_000_000u64));
    state.put_account(token(), t);
    state
}

/// A state holding one funded account and nothing else.
fn funded(addr: Address) -> InMemoryState {
    let mut s = InMemoryState::new();
    s.put_account(addr, Account::with_balance(U256::from(u64::MAX)));
    s
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

#[test]
fn all_security_levels_agree_on_results() {
    let bundle = erc20_transfer_bundle();
    let mut reference: Option<Vec<tape_evm::TxResult>> = None;
    for level in SecurityConfig::ALL {
        let mut device = small_service(level);
        let mut user = device.connect_user(b"results user").unwrap();
        let report = device.pre_execute(&mut user, &bundle).unwrap();
        assert!(report.results[0].success, "{level}: tx failed");
        match &reference {
            None => reference = Some(report.results.clone()),
            Some(expected) => assert_eq!(&report.results, expected, "{level} diverged"),
        }
        // Storage modifications reported in the trace.
        assert_eq!(report.changes.storage.len(), 2, "{level}");
    }
}

#[test]
fn fig4_cost_ladder_is_monotonic() {
    // Each added security feature strictly increases per-transaction
    // virtual time — the shape of Fig. 4.
    let bundle = erc20_transfer_bundle();
    let mut times = Vec::new();
    for level in SecurityConfig::ALL {
        let mut device = small_service(level);
        let mut user = device.connect_user(b"ladder user").unwrap();
        let report = device.pre_execute(&mut user, &bundle).unwrap();
        times.push((level, report.total_ns));
    }
    for pair in times.windows(2) {
        assert!(
            pair[0].1 < pair[1].1,
            "{} ({} ns) should cost less than {} ({} ns)",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
    // The ECDSA step dominates (paper: ~80 ms of the 164 ms total).
    let es = times[2].1;
    let e = times[1].1;
    assert!(es - e > 50_000_000, "ECDSA step too small: {} ns", es - e);
}

#[test]
fn signature_present_only_with_es_and_above() {
    let bundle = erc20_transfer_bundle();
    for level in SecurityConfig::ALL {
        let mut device = small_service(level);
        let mut user = device.connect_user(b"sig user").unwrap();
        let report = device.pre_execute(&mut user, &bundle).unwrap();
        assert_eq!(report.signature.is_some(), level.signature(), "{level}");
    }
}

#[test]
fn channel_charges_the_sealed_payload_not_the_header() {
    // The fixed per-message charge covers the header check and the DMA
    // setup; only the sealed payload and its 16-byte tag are billed per
    // byte, in both directions.
    use tape_sim::telemetry::{PhaseKind, TelemetryEvent};
    let bundle = erc20_transfer_bundle();
    for level in [SecurityConfig::E, SecurityConfig::Es] {
        let cost = ServiceConfig::at_level(level).hevm.cost;
        let sealed_ns = |len: usize| cost.aes_message_ns + cost.aes_per_byte_ns * (len as u64 + 16);
        let mut device = small_service(level);
        let mut user = device.connect_user(b"channel charge").unwrap();
        let report = device.pre_execute(&mut user, &bundle).unwrap();
        let phase_ns = |kind: PhaseKind| {
            let durations: Vec<u64> = device
                .telemetry()
                .events()
                .into_iter()
                .filter_map(|event| match event {
                    TelemetryEvent::Phase { phase, ns, .. } if phase == kind => Some(ns),
                    _ => None,
                })
                .collect();
            assert_eq!(durations.len(), 1, "{level}: one {kind:?} phase per bundle");
            durations[0]
        };
        assert_eq!(phase_ns(PhaseKind::Receive), sealed_ns(bundle.encode().len()), "{level}");
        assert_eq!(phase_ns(PhaseKind::Seal), sealed_ns(report.encode().len()), "{level}");
    }
}

#[test]
fn direct_and_gateway_execution_agree_at_every_level() {
    // The same seeded bundle sequence through `pre_execute` and through
    // a one-tenant, one-bundle-per-round gateway: one executor, so the
    // signed traces, the virtual timings, the ORAM traffic and the
    // final device clock must all be identical. The 20k gas slice
    // makes every token transfer preempt, so resumes are covered too.
    let mut rng = SecureRng::from_seed(b"direct vs gateway");
    let bundles: Vec<Bundle> = (0..6)
        .map(|step| {
            let amount = U256::from(1 + rng.next_below(200));
            let token_tx = Transaction {
                gas_limit: 300_000,
                ..Transaction::call(
                    alice(),
                    token(),
                    contracts::encode_call(
                        contracts::sel::transfer(),
                        &[bob().into_word(), amount],
                    ),
                )
            };
            match step % 3 {
                0 => Bundle::single(token_tx),
                1 => Bundle::single(Transaction::transfer(bob(), alice(), amount)),
                _ => Bundle {
                    transactions: vec![Transaction::transfer(alice(), bob(), amount), token_tx],
                },
            }
        })
        .collect();
    for level in SecurityConfig::ALL {
        let mut config = ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(level) };
        config.hevm.gas_slice = Some(20_000);
        let boot = || HarDTape::new(config.clone(), Env::default(), &genesis()).expect("boots");

        let mut device = boot();
        let mut user = device.connect_user(b"same user").unwrap();
        let mut gateway = Gateway::new(boot(), GatewayConfig::default());
        let session = gateway.connect(b"same user").unwrap();

        for (step, bundle) in bundles.iter().enumerate() {
            let direct = device.pre_execute(&mut user, bundle).unwrap();
            gateway.submit(session, bundle.clone()).unwrap();
            let mut completions = gateway.run_until_idle();
            assert_eq!(completions.len(), 1, "{level} step {step}");
            let served = completions.remove(0).outcome.unwrap();
            assert_eq!(served.encode(), direct.encode(), "{level} step {step}: trace");
            assert_eq!(served.signature, direct.signature, "{level} step {step}: signature");
            assert_eq!(served.total_ns, direct.total_ns, "{level} step {step}: total_ns");
            assert_eq!(served.per_tx_ns, direct.per_tx_ns, "{level} step {step}: per_tx_ns");
        }
        assert!(gateway.stats().preempted > 0, "{level}: no bundle was preempted");
        assert_eq!(gateway.device().oram_stats(), device.oram_stats(), "{level}: ORAM traffic");
        assert_eq!(gateway.device().clock().now(), device.clock().now(), "{level}: clock");
    }
}

#[test]
fn bundle_transactions_see_cumulative_state() {
    // Three transfers in one bundle: each sees the previous one's
    // effects; the backend stays untouched.
    let mut device = small_service(SecurityConfig::Full);
    let mut user = device.connect_user(b"bundle user").unwrap();
    let tx = |amount: u64| Transaction {
        gas_limit: 300_000,
        ..Transaction::call(
            alice(),
            token(),
            contracts::encode_call(
                contracts::sel::transfer(),
                &[bob().into_word(), U256::from(amount)],
            ),
        )
    };
    let bundle = Bundle { transactions: vec![tx(100), tx(200), tx(300)] };
    let report = device.pre_execute(&mut user, &bundle).unwrap();
    assert!(report.results.iter().all(|r| r.success));
    assert_eq!(report.per_tx_ns.len(), 3);
    // Bob's final balance change reflects all three transfers.
    let bob_slot = contracts::balance_slot(&bob());
    let (_, _, final_value) = report
        .changes
        .storage
        .iter()
        .find(|(_, key, _)| *key == bob_slot)
        .expect("bob's balance changed");
    assert_eq!(*final_value, U256::from(600u64));

    // A second bundle starts from the clean backend again (pre-execution
    // discards modifications, paper step 10).
    let report2 = device.pre_execute(&mut user, &bundle).unwrap();
    assert_eq!(report2.results, report.results);
}

#[test]
fn hevm_slots_exhaust_and_recover() {
    // hevm_count = 2: a third concurrent bundle must queue (Busy)...
    let config = ServiceConfig {
        hevm_count: 2,
        oram_height: 10,
        ..ServiceConfig::at_level(SecurityConfig::Raw)
    };
    let mut device = HarDTape::new(config, Env::default(), &genesis()).expect("device boots");
    let mut u1 = device.connect_user(b"u1").unwrap();
    let _u2 = device.connect_user(b"u2").unwrap();

    // pre_execute assigns and releases internally, so sequential bundles
    // reuse slots; verify by running more bundles than slots.
    for _ in 0..5 {
        let report = device.pre_execute(&mut u1, &erc20_transfer_bundle()).unwrap();
        assert!(report.results[0].success);
    }
}

#[test]
fn block_sync_applies_verified_deltas() {
    let mut node = tape_node::Node::new(genesis(), Env::default());
    let mut device = small_service(SecurityConfig::Full);
    let mut user = device.connect_user(b"sync user").unwrap();

    // The chain moves: alice sends 500 to bob on-chain.
    node.produce_block(vec![Transaction::transfer(alice(), bob(), U256::from(500u64))]);
    let header = node.head().unwrap().header.clone();
    let delta = node.head_state_delta().unwrap();
    device.sync_block(&header, &delta).unwrap();
    assert_eq!(device.head(), Some(header.hash()));

    // Pre-execution now sees the post-block nonce of alice.
    let mut tx = Transaction::transfer(alice(), bob(), U256::ONE);
    tx.nonce = Some(1); // alice's nonce after the on-chain tx
    let report = device.pre_execute(&mut user, &Bundle::single(tx)).unwrap();
    assert!(report.results[0].success);
}

#[test]
fn block_past_a_gap_is_refused_until_the_gap_is_synced() {
    let carol = Address::from_low_u64(0xCA401);
    let ether = U256::from(1_000_000_000_000_000_000u64);
    let mut node = tape_node::Node::new(genesis(), Env::default());
    // Blocks 1 and 3 move alice and bob; block 2 funds carol, whom
    // block 3 does not touch.
    node.produce_block(vec![Transaction::transfer(alice(), bob(), U256::ONE)]);
    node.produce_block(vec![Transaction::transfer(bob(), carol, ether)]);
    node.produce_block(vec![Transaction::transfer(alice(), bob(), U256::ONE)]);
    let block = |i| (node.block(i).unwrap().header.clone(), node.state_delta(i).unwrap());
    let [(h1, d1), (h2, d2), (h3, d3)] = [block(0), block(1), block(2)];
    let mut device = small_service(SecurityConfig::Full);
    device.sync_block(&h1, &d1).unwrap();

    // Block 3's delta says nothing about carol: applied over block 1 it
    // would serve a world state no block has.
    match device.sync_block(&h3, &d3) {
        Err(ServiceError::ReorgDetected { expected, got, height }) => {
            assert_eq!((expected, got, height), (h1.hash(), h2.hash(), h1.number));
        }
        other => panic!("expected ReorgDetected for a block past a gap, got {other:?}"),
    }
    assert_eq!(device.head(), Some(h1.hash()), "a refused block must not move the head");

    // Synced as direct children, both apply, and carol holds what
    // block 2 gave her.
    device.sync_block(&h2, &d2).unwrap();
    device.sync_block(&h3, &d3).unwrap();
    let mut user = device.connect_user(b"gap user").unwrap();
    let spend = Transaction::transfer(carol, alice(), ether / U256::from(2u64));
    let report = device.pre_execute(&mut user, &Bundle::single(spend)).unwrap();
    assert!(report.results[0].success, "carol spends her block-2 balance");
}

#[test]
fn forged_block_sync_rejected_without_side_effects() {
    let mut node = tape_node::Node::new(genesis(), Env::default());
    let mut device = small_service(SecurityConfig::Full);

    node.produce_block(vec![Transaction::transfer(alice(), bob(), U256::from(500u64))]);
    let header = node.head().unwrap().header.clone();

    // A6: the SP inflates bob's balance in the delta.
    let mut forged = node.head_state_delta().unwrap();
    let entry = forged.accounts.iter_mut().find(|a| a.address == bob()).unwrap();
    entry.account.balance = U256::MAX;
    match device.sync_block(&header, &forged) {
        Err(ServiceError::BadDelta(_)) => {}
        other => panic!("expected BadDelta, got {other:?}"),
    }
    assert_eq!(device.head(), None, "forged sync must not advance the head");

    // Mismatched header is also rejected.
    let honest = node.head_state_delta().unwrap();
    let mut wrong_header = header.clone();
    wrong_header.number += 1;
    assert_eq!(
        device.sync_block(&wrong_header, &honest),
        Err(ServiceError::HeaderMismatch)
    );

    // The honest delta still applies afterwards.
    device.sync_block(&header, &honest).unwrap();
}

/// On-chain SELFDESTRUCT propagates through the proof-carrying delta:
/// the device's mirror and ORAM forget the account.
#[test]
fn selfdestruct_propagates_through_block_sync() {
    let owner = Address::from_low_u64(0xA11CE);
    let doomed = Address::from_low_u64(0xD00D);
    let mut genesis = funded(owner);
    let mut contract = Account::with_code(
        Asm::new().push_address(owner).op(op::SELFDESTRUCT).build(),
    );
    contract.balance = U256::from(777u64);
    contract.storage.insert(U256::ONE, U256::from(9u64));
    genesis.put_account(doomed, contract);

    let mut node = tape_node::Node::new(genesis.clone(), Env::default());
    let mut device = HarDTape::new(
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Full) },
        Env::default(),
        &genesis,
    ).expect("device boots");
    let mut user = device.connect_user(b"sd sync").unwrap();

    // The kill transaction lands on-chain.
    let mut kill = Transaction::call(owner, doomed, vec![]);
    kill.gas_limit = 200_000;
    let block = node.produce_block(vec![kill]);
    assert!(block.receipts[0].success);
    assert!(node.state().account(&doomed).is_none());

    let header = node.head().unwrap().header.clone();
    let delta = node.head_state_delta().unwrap();
    assert!(delta.deleted.iter().any(|d| d.address == doomed));
    device.sync_block(&header, &delta).unwrap();

    // Pre-execution no longer sees the account: calling it is a plain
    // transfer to empty code, and its old storage is gone.
    let probe_code = Asm::new()
        .push_address(doomed)
        .op(op::EXTCODESIZE)
        .ret_top()
        .build();
    let prober = Address::from_low_u64(0x9806);
    let mut genesis2 = node.state().clone();
    genesis2.put_account(prober, Account::with_code(probe_code));
    // Probe through the device that synced the deletion.
    let tx = Transaction::call(owner, doomed, vec![]);
    let report = device.pre_execute(&mut user, &Bundle::single(tx)).unwrap();
    assert!(report.results[0].success);
    assert_eq!(report.results[0].gas_used, 21_000, "no code left to run");
}

/// A forged deletion (claiming a live account died) is rejected.
#[test]
fn forged_deletion_rejected() {
    let owner = Address::from_low_u64(0xA11CE);
    let bystander = Address::from_low_u64(0xB15);
    let mut genesis = funded(owner);
    genesis.put_account(bystander, Account::with_balance(U256::from(5u64)));

    let mut node = tape_node::Node::new(genesis.clone(), Env::default());
    node.produce_block(vec![Transaction::transfer(owner, bystander, U256::ONE)]);
    let header = node.head().unwrap().header.clone();
    let mut delta = node.head_state_delta().unwrap();
    // The SP claims the (live) bystander was deleted, reusing its
    // presence proof.
    delta.deleted.push(tape_node::DeletedAccount {
        address: bystander,
        proof: delta.accounts.iter().find(|a| a.address == bystander).unwrap().proof.clone(),
    });
    let mut device = HarDTape::new(
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Full) },
        Env::default(),
        &genesis,
    ).expect("device boots");
    assert!(device.sync_block(&header, &delta).is_err());
}

/// Re-syncing an account whose storage group emptied must clear the
/// stale ORAM page.
#[test]
fn stale_storage_group_cleared_on_resync() {
    let addr = Address::from_low_u64(0x57A1E);
    let config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 8 };
    let state = ObliviousState::new(
        OramClient::new(config.clone(), &[1u8; 16], SecureRng::from_seed(b"stale")),
        OramServer::new(config),
        Clock::new(),
        CostModel::default(),
        None,
    );

    let mut account = Account::with_balance(U256::ONE);
    account.storage.insert(U256::from(5u64), U256::from(99u64));
    state.sync_account(&addr, &account).unwrap();
    assert_eq!(state.storage(&addr, &U256::from(5u64)), U256::from(99u64));

    // The slot is cleared on-chain; the group vanishes from the account.
    account.storage.clear();
    state.sync_account(&addr, &account).unwrap();
    state.clear_cache();
    assert_eq!(
        state.storage(&addr, &U256::from(5u64)),
        U256::ZERO,
        "stale group page served old data"
    );

    // Full removal wipes the meta page too.
    state.remove_account(&addr).unwrap();
    assert!(state.account(&addr).is_none());
}

#[test]
fn distinct_users_get_isolated_sessions() {
    let mut device = small_service(SecurityConfig::Full);
    let u1 = device.connect_user(b"isolated 1").unwrap();
    let u2 = device.connect_user(b"isolated 2").unwrap();
    assert_ne!(u1.session, u2.session);
    assert_ne!(u1.public_key(), u2.public_key());
}

#[test]
fn oram_configs_issue_oram_queries() {
    let bundle = erc20_transfer_bundle();
    // Raw: no ORAM at all.
    let device = small_service(SecurityConfig::Raw);
    assert!(device.oram_stats().is_none());

    // ESO: K-V queries only.
    let mut device = small_service(SecurityConfig::Eso);
    let mut user = device.connect_user(b"eso").unwrap();
    let sync_stats = device.oram_stats().unwrap();
    device.pre_execute(&mut user, &bundle).unwrap();
    let stats = device.oram_stats().unwrap();
    assert!(stats.kv_queries > sync_stats.kv_queries);
    assert_eq!(stats.code_queries, sync_stats.code_queries, "ESO must not fetch code via ORAM");

    // Full: code travels through ORAM too — either as demand code
    // queries or via the prefetcher's indistinguishable prefetch
    // queries (both are 1 KB wire accesses).
    let mut device = small_service(SecurityConfig::Full);
    let mut user = device.connect_user(b"full").unwrap();
    let sync_stats = device.oram_stats().unwrap();
    device.pre_execute(&mut user, &bundle).unwrap();
    let stats = device.oram_stats().unwrap();
    assert!(
        stats.code_queries + stats.prefetch_queries
            > sync_stats.code_queries + sync_stats.prefetch_queries,
        "Full must fetch code through ORAM: {stats:?} vs {sync_stats:?}"
    );
}

#[test]
fn memory_overflow_bundle_reported_as_attack() {
    use tape_evm::asm::Asm;
    use tape_evm::opcode::op;
    let mut state = genesis();
    let hog = Address::from_low_u64(0x406);
    state.put_account(
        hog,
        Account::with_code(
            Asm::new().push(1u64).push(600u64 * 1024).op(op::MSTORE).stop().build(),
        ),
    );
    let config = ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Raw) };
    let mut device = HarDTape::new(config, Env::default(), &state).expect("device boots");
    let mut user = device.connect_user(b"attacker").unwrap();
    let mut tx = Transaction::call(alice(), hog, vec![]);
    tx.gas_limit = 10_000_000;
    match device.pre_execute(&mut user, &Bundle::single(tx)) {
        Err(ServiceError::Hevm(tape_hevm::HevmAbort::MemoryOverflow { .. })) => {}
        other => panic!("expected MemoryOverflow, got {other:?}"),
    }
    // The device recovers: the slot was released despite the abort.
    let report = device.pre_execute(&mut user, &erc20_transfer_bundle()).unwrap();
    assert!(report.results[0].success);
}

/// The device signature now commits to log topics: tampering a topic
/// breaks verification.
#[test]
fn trace_signature_covers_log_topics() {
    let owner = Address::from_low_u64(0xA11CE);
    let emitter = Address::from_low_u64(0xE1117);
    let mut genesis = funded(owner);
    genesis.put_account(
        emitter,
        Account::with_code(
            Asm::new()
                .push(0x7071Cu64) // topic
                .push(0u64) // len
                .push(0u64) // offset
                .op(op::LOG1)
                .stop()
                .build(),
        ),
    );
    let mut device = HarDTape::new(
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) },
        Env::default(),
        &genesis,
    ).expect("device boots");
    let mut user = device.connect_user(b"topics").unwrap();
    let mut tx = Transaction::call(owner, emitter, vec![]);
    tx.gas_limit = 100_000;
    let report = device.pre_execute(&mut user, &Bundle::single(tx)).unwrap();
    let sig = report.signature.unwrap();
    let device_key = VerifyingKey::new(user.device_key());
    tape_tee::channel::verify_bundle(&device_key, &report.encode(), &sig).unwrap();

    let mut forged = report.clone();
    forged.results[0].logs[0].topics[0] = tape_primitives::B256::new([0xEE; 32]);
    assert!(
        tape_tee::channel::verify_bundle(&device_key, &forged.encode(), &sig).is_err(),
        "signature must commit to log topics"
    );
}
