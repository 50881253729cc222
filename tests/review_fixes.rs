//! Regression tests for the issues surfaced by the adversarial code
//! review: CREATE-with-STOP initcode, selfdestruct block-sync
//! propagation, stale storage-group clearing, ORAM nonce-space
//! separation, calldata offset wraparound, and full-trace signatures.

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use tape_crypto::SecureRng;
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Evm, Transaction};
use tape_hevm::{Hevm, HevmConfig};
use tape_oram::{ObliviousState, OramClient, OramConfig, OramServer};
use tape_primitives::{Address, U256};
use tape_sim::{Clock, CostModel};
use tape_state::{Account, InMemoryState, StateReader};

fn funded(addr: Address) -> InMemoryState {
    let mut s = InMemoryState::new();
    s.put_account(addr, Account::with_balance(U256::from(u64::MAX)));
    s
}

/// Initcode that simply STOPs must deploy an *empty* contract and push
/// the created address — on both engines identically.
#[test]
fn create_with_stop_initcode_deploys_empty_contract() {
    let sender = Address::from_low_u64(0xAA);
    let backend = funded(sender);
    let tx = Transaction::create(sender, vec![op::STOP]);

    let mut reference = Evm::new(Env::default(), &backend);
    let ref_result = reference.transact(&tx).unwrap();
    assert!(ref_result.success);
    let created = ref_result.created.expect("STOP initcode still deploys");
    assert_eq!(created, tape_evm::create_address(&sender, 0));
    assert!(reference.state_mut().code(&created).is_empty());
    assert_eq!(reference.state_mut().nonce(&created), 1);

    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &backend, Clock::new());
    let hevm_result = hevm.transact(&tx).unwrap();
    assert_eq!(ref_result, hevm_result);

    // Same via the CREATE opcode: the factory receives the address, not 0.
    let factory_code = Asm::new()
        .push(0u64) // initcode len 0 -> empty initcode -> empty deploy
        .push(0u64)
        .push(0u64)
        .op(op::CREATE)
        .ret_top()
        .build();
    let mut backend = funded(sender);
    let factory = Address::from_low_u64(0xFAC);
    backend.put_account(factory, Account::with_code(factory_code));
    let mut evm = Evm::new(Env::default(), &backend);
    let result = evm.transact(&Transaction::call(sender, factory, vec![])).unwrap();
    assert!(result.success);
    let reported = Address::from_word(U256::from_be_slice(&result.output));
    assert_ne!(reported, Address::ZERO, "CREATE must push the address");
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

/// Two ORAM clients sharing the fleet key must never reuse an AES-GCM
/// nonce: their nonce prefixes are drawn from their own RNGs.
#[test]
fn shared_key_clients_use_disjoint_nonce_spaces() {
    let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 5 };
    let key = [7u8; 16];
    let clock = Clock::new();
    let cost = CostModel::default();

    // Client A encrypts a known block; client B (same key, same counter
    // sequence) encrypts a different block. With prefix-less counters
    // these would collide on (key, nonce).
    let mut server_a = OramServer::new(config.clone());
    let mut a = OramClient::new(config.clone(), &key, SecureRng::from_seed(b"client a"));
    let id = tape_crypto::keccak256(b"block");
    a.write(&mut server_a, &clock, &cost, &id, vec![0xAA; 64]).unwrap();

    let mut server_b = OramServer::new(config.clone());
    let mut b = OramClient::new(config, &key, SecureRng::from_seed(b"client b"));
    b.write(&mut server_b, &clock, &cost, &id, vec![0xBB; 64]).unwrap();

    // Indirect but sufficient check: both clients still decrypt their own
    // data correctly, and their wire ciphertexts for the same logical
    // write differ in the nonce field (first 12 bytes of every slot).
    let path_a = server_a.read_path(0, 0).expect("honest in-memory read");
    let path_b = server_b.read_path(0, 0).expect("honest in-memory read");
    let nonces = |slots: &[Vec<u8>]| -> Vec<Vec<u8>> {
        slots.iter().filter(|s| !s.is_empty()).map(|s| s[..12].to_vec()).collect()
    };
    for na in nonces(&path_a) {
        for nb in nonces(&path_b) {
            assert_ne!(na, nb, "nonce collision across clients sharing the ORAM key");
        }
    }
}

/// Calldata reads near `usize::MAX` zero-pad instead of wrapping to the
/// start of the buffer (release-mode correctness).
#[test]
fn calldataload_at_max_offset_reads_zero() {
    let sender = Address::from_low_u64(0xAA);
    let target = Address::from_low_u64(0xC0DE);
    // CALLDATALOAD(2^64 - 16): half the word is beyond usize range.
    let code = Asm::new()
        .push(U256::from(u64::MAX - 15))
        .op(op::CALLDATALOAD)
        .ret_top()
        .build();
    let mut backend = funded(sender);
    backend.put_account(target, Account::with_code(code));
    let input = vec![0xFFu8; 64]; // nonzero: a wraparound would read 0xFF

    let mut reference = Evm::new(Env::default(), &backend);
    let r = reference.transact(&Transaction::call(sender, target, input.clone())).unwrap();
    assert!(r.success);
    assert_eq!(U256::from_be_slice(&r.output), U256::ZERO);

    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &backend, Clock::new());
    let h = hevm.transact(&Transaction::call(sender, target, input)).unwrap();
    assert_eq!(r, h);
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
    tape_tee::channel::verify_bundle(&user.device_key(), &report.encode(), &sig).unwrap();

    let mut forged = report.clone();
    forged.results[0].logs[0].topics[0] = tape_primitives::B256::new([0xEE; 32]);
    assert!(
        tape_tee::channel::verify_bundle(&user.device_key(), &forged.encode(), &sig).is_err(),
        "signature must commit to log topics"
    );
}
