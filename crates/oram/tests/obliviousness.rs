//! Adversarial tests for query obliviousness (threat A7) and ORAM
//! integrity (threat A6).

use tape_crypto::{keccak256, SecureRng};
use tape_oram::{ObliviousState, OramClient, OramConfig, OramError, OramServer, PageKey};
use tape_primitives::{Address, U256};
use tape_sim::{Clock, CostModel};
use tape_state::{Account, StateReader};

fn setup(seed: &[u8], height: u32) -> (OramServer, OramClient, Clock, CostModel) {
    let config = OramConfig { block_size: 64, bucket_capacity: 4, height };
    (
        OramServer::new(config.clone()),
        OramClient::new(config, &[1u8; 16], SecureRng::from_seed(seed)),
        Clock::new(),
        CostModel::default(),
    )
}

/// Observed leaves are uniformly distributed even when the client hammers
/// one single logical block.
#[test]
fn repeated_access_to_one_block_looks_uniform() {
    let (mut server, mut client, clock, cost) = setup(b"uniform", 6);
    let id = keccak256(b"hot block");
    client.write(&mut server, &clock, &cost, &id, vec![1; 64]).unwrap();
    for _ in 0..2000 {
        client.read(&mut server, &clock, &cost, &id).unwrap();
    }
    let leaves: Vec<u64> = server.observed().iter().map(|a| a.leaf).collect();
    let n_leaves = 1u64 << 6;
    let mut counts = vec![0u64; n_leaves as usize];
    for &l in &leaves {
        counts[l as usize] += 1;
    }
    let expected = leaves.len() as f64 / n_leaves as f64; // ≈ 31
    // Chi-square-style sanity bound: every leaf within 4x of expectation
    // and no leaf starved entirely.
    for (leaf, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64) < expected * 4.0,
            "leaf {leaf} over-represented: {c} vs {expected}"
        );
    }
    let zeros = counts.iter().filter(|&&c| c == 0).count();
    assert!(zeros <= 2, "{zeros} leaves never touched in 2000 accesses");
}

/// Two *different* logical access patterns of equal length produce leaf
/// sequences with statistically indistinguishable marginals.
#[test]
fn different_patterns_have_indistinguishable_leaf_statistics() {
    let run = |pattern: &[u64]| -> Vec<u64> {
        let (mut server, mut client, clock, cost) = setup(b"patterns", 6);
        for i in 0..16u64 {
            client
                .write(&mut server, &clock, &cost, &keccak256(i.to_be_bytes()), vec![0; 64])
                .unwrap();
        }
        let skip = server.observed().len();
        for &p in pattern {
            client
                .read(&mut server, &clock, &cost, &keccak256(p.to_be_bytes()))
                .unwrap();
        }
        server.observed()[skip..].iter().map(|a| a.leaf).collect()
    };

    // Pattern A: sequential sweep; Pattern B: hammer one block.
    let a: Vec<u64> = (0..1000).map(run_pattern_a).collect();
    let b: Vec<u64> = vec![7; 1000];
    let leaves_a = run(&a);
    let leaves_b = run(&b);

    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let uniform_mean = ((1u64 << 6) - 1) as f64 / 2.0;
    assert!((mean(&leaves_a) - uniform_mean).abs() < 4.0, "A mean skewed");
    assert!((mean(&leaves_b) - uniform_mean).abs() < 4.0, "B mean skewed");
    // Neither sequence repeats leaves at a rate that would fingerprint
    // the hot-block pattern: compare adjacent-repeat frequencies.
    let repeats = |v: &[u64]| v.windows(2).filter(|w| w[0] == w[1]).count() as f64 / v.len() as f64;
    assert!((repeats(&leaves_a) - repeats(&leaves_b)).abs() < 0.05);
}

fn run_pattern_a(i: u64) -> u64 {
    i % 16
}

/// The wire format never reveals whether a query was for code, storage,
/// or account metadata: all three produce exactly one path access of
/// identical shape.
#[test]
fn query_types_produce_identical_wire_shape() {
    let config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 8 };
    let server = OramServer::new(config.clone());
    let client = OramClient::new(config, &[2u8; 16], SecureRng::from_seed(b"shape"));
    let state = ObliviousState::new(client, server, Clock::new(), CostModel::default(), None);

    let addr = Address::from_low_u64(1);
    let mut account = Account::with_code(vec![0xCC; 1000]);
    account.balance = U256::from(5u64);
    account.storage.insert(U256::ONE, U256::ONE);
    state.sync_account(&addr, &account).unwrap();
    state.clear_cache();

    let t0 = state.observed_accesses().len();
    state.storage(&addr, &U256::ONE); // K-V query
    let t1 = state.observed_accesses().len();
    state.account(&addr); // K-V query (meta)
    let t2 = state.observed_accesses().len();
    state.prefetch_page(PageKey::CodePage(addr, 0)); // Code query
    let t3 = state.observed_accesses().len();

    // Each logical query = exactly one path access; nothing else leaks.
    assert_eq!(t1 - t0, 1);
    assert_eq!(t2 - t1, 1);
    assert_eq!(t3 - t2, 1);
}

/// A6: the ORAM detects any server-side forgery, so fake on-chain data
/// cannot be served to the pre-executor.
#[test]
fn forged_block_cannot_be_injected() {
    let (mut server, mut client, clock, cost) = setup(b"forge", 5);
    let id = keccak256(b"victim");
    client.write(&mut server, &clock, &cost, &id, vec![9; 64]).unwrap();

    // The adversary replaces the whole tree with ciphertexts encrypted
    // under its own key.
    let mut adversary_server = OramServer::new(server.config().clone());
    let mut adversary_client = OramClient::new(
        server.config().clone(),
        &[0xEE; 16], // not the Hypervisor's ORAM key
        SecureRng::from_seed(b"adversary"),
    );
    adversary_client
        .write(&mut adversary_server, &clock, &cost, &id, vec![6; 64])
        .unwrap();

    // Splice adversary ciphertexts into the honest client's view by
    // swapping servers entirely: reads must fail authentication, never
    // return the forged value.
    let result = client.read(&mut adversary_server, &clock, &cost, &id);
    match result {
        Err(OramError::Tampered) => {}
        Ok(None) => {} // path missed the forged block: nothing leaked
        Ok(Some(v)) => panic!("forged data accepted: {v:?}"),
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

/// Stash occupancy stays O(log n)-ish across a long random workload —
/// the classic Path ORAM stash bound, checked empirically.
#[test]
fn stash_stays_bounded_under_load() {
    let (mut server, mut client, clock, cost) = setup(b"stash", 8);
    let mut rng = SecureRng::from_seed(b"workload");
    let n_blocks = 600u64; // ~60% of leaf capacity (Z=4, 256 leaves)
    for i in 0..n_blocks {
        client
            .write(&mut server, &clock, &cost, &keccak256(i.to_be_bytes()), vec![0; 64])
            .unwrap();
    }
    for _ in 0..5_000 {
        let i = rng.next_below(n_blocks);
        client.read(&mut server, &clock, &cost, &keccak256(i.to_be_bytes())).unwrap();
    }
    // height 8 → a stash of a few dozen blocks is the expected regime.
    assert!(
        client.max_stash_seen() < 100,
        "stash high-water {} suggests eviction is broken",
        client.max_stash_seen()
    );
}

/// Timing side channel: the virtual cost of an ORAM query is constant,
/// independent of which block is accessed or whether it exists.
#[test]
fn per_query_time_is_constant() {
    let (mut server, mut client, clock, cost) = setup(b"timing", 7);
    let id = keccak256(b"x");
    client.write(&mut server, &clock, &cost, &id, vec![0; 64]).unwrap();

    let mut deltas = Vec::new();
    for i in 0..50u64 {
        let before = clock.now();
        if i % 2 == 0 {
            client.read(&mut server, &clock, &cost, &id).unwrap();
        } else {
            client.read(&mut server, &clock, &cost, &keccak256(i.to_be_bytes())).unwrap();
        }
        deltas.push(clock.now() - before);
    }
    assert!(deltas.windows(2).all(|w| w[0] == w[1]), "query times vary: {deltas:?}");
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
    let id = keccak256(b"block");
    a.write(&mut server_a, &clock, &cost, &id, vec![0xAA; 64]).unwrap();

    let mut server_b = OramServer::new(config.clone());
    let mut b = OramClient::new(config.clone(), &key, SecureRng::from_seed(b"client b"));
    b.write(&mut server_b, &clock, &cost, &id, vec![0xBB; 64]).unwrap();

    // Indirect but sufficient check: their wire ciphertexts for the same
    // logical write differ in the nonce field (first 12 bytes of every
    // slot). The whole path as the server fills it — root bucket first,
    // Z slots a bucket, never-written levels flagged and left alone — all
    // in the root-side half, with an empty leaf-side half.
    let slot_len = config.slot_len();
    let bucket_len = config.bucket_capacity * slot_len;
    let nonces = |server: &mut OramServer| -> Vec<Vec<u8>> {
        let mut path = vec![0u8; config.blocks_per_access() as usize * slot_len];
        let written = server.read_path(0, 0, &mut path, &mut []).expect("honest in-memory read");
        path.chunks_exact(bucket_len)
            .enumerate()
            .filter(|(level, _)| written >> level & 1 == 1)
            .flat_map(|(_, bucket)| bucket.chunks_exact(slot_len))
            .map(|slot| slot[..12].to_vec())
            .collect()
    };
    let (nonces_a, nonces_b) = (nonces(&mut server_a), nonces(&mut server_b));
    assert!(!nonces_a.is_empty() && !nonces_b.is_empty(), "each write filled a path");
    for na in &nonces_a {
        for nb in &nonces_b {
            assert_ne!(na, nb, "nonce collision across clients sharing the ORAM key");
        }
    }
}
