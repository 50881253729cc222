//! Micro-benchmarks over every substrate: real wall-clock cost of the
//! building blocks (the virtual-time figures are produced by the
//! `fig4`/`fig5` binaries; these benches characterize the implementation
//! itself).
//!
//! This is a plain `harness = false` binary (no criterion — the
//! workspace builds hermetically offline): each benchmark warms up,
//! then reports mean ns/op over a fixed iteration count. Run with
//! `cargo bench -p tape-bench`.

use std::hint::black_box;
use std::time::Instant;
use tape_crypto::{keccak256, Aes128, AesGcm, SecretKey, SecureRng};
use tape_evm::{Env, Evm, Transaction};
use tape_hevm::{Hevm, HevmConfig};
use tape_mpt::MerkleTrie;
use tape_oram::{OramClient, OramConfig, OramServer};
use tape_primitives::{Address, U256};
use tape_sim::{Clock, CostModel};
use tape_state::{Account, InMemoryState};
use tape_workload::contracts;

/// Times `f` over `iters` iterations (after `iters / 10 + 1` warm-up
/// runs) and prints the mean wall-clock ns/op.
fn bench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let per_op = elapsed.as_nanos() / iters as u128;
    println!("{name:<40} {per_op:>12} ns/op   ({iters} iters)");
}

fn bench_crypto() {
    let data_1k = vec![0xABu8; 1024];
    bench("crypto/keccak256_1KiB", 2_000, || keccak256(black_box(&data_1k)));

    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0u8; 16];
    bench("crypto/aes128_block", 200_000, || aes.encrypt_block(black_box(&mut block)));

    let gcm = AesGcm::new(&[7u8; 16]);
    let nonce = [0u8; 12];
    bench("crypto/aes_gcm_seal_1KiB", 2_000, || {
        gcm.seal(black_box(&nonce), b"", black_box(&data_1k))
    });
    let sealed = gcm.seal(&nonce, b"", &data_1k);
    bench("crypto/aes_gcm_open_1KiB", 2_000, || {
        gcm.open(black_box(&nonce), b"", black_box(&sealed))
    });
    // CTR is an involution, so sealing the same buffer over and over
    // needs no copy to reset it — this row is the kernel alone.
    let mut buf = data_1k.clone();
    bench("crypto/aes_gcm_seal_in_place_1KiB", 2_000, || {
        gcm.seal_in_place(black_box(&nonce), b"", black_box(&mut buf))
    });

    let sk = SecretKey::from_seed(b"bench");
    let digest = keccak256(b"message");
    bench("crypto/ecdsa_sign", 200, || sk.sign(black_box(&digest)));
    let pk = sk.public_key();
    let sig = sk.sign(&digest);
    bench("crypto/ecdsa_verify", 200, || pk.verify(black_box(&digest), black_box(&sig)));
}

fn bench_u256() {
    let a = U256::from_limbs([0x1234, 0x5678, 0x9abc, 0xdef0]);
    let b = U256::from_limbs([0x1111, 0x2222, 0x3333, 0x4444]);
    bench("u256/mul", 1_000_000, || black_box(a).wrapping_mul(black_box(b)));
    bench("u256/div", 1_000_000, || black_box(a).checked_div_rem(black_box(b)));
    bench("u256/mulmod", 500_000, || {
        black_box(a).mul_mod(black_box(b), black_box(U256::MAX))
    });
}

fn bench_mpt() {
    bench("mpt/insert_1000_and_root", 50, || {
        let mut trie = MerkleTrie::new();
        for i in 0u32..1000 {
            trie.insert(&i.to_be_bytes(), b"value");
        }
        trie.root_hash()
    });

    let mut trie = MerkleTrie::new();
    for i in 0u32..1000 {
        trie.insert(&i.to_be_bytes(), b"value");
    }
    bench("mpt/prove", 5_000, || trie.prove(black_box(&500u32.to_be_bytes())));
}

/// One warm Path ORAM read at the given tree height over 256 resident
/// 1 KiB blocks.
fn bench_oram_access(name: &str, height: u32) {
    let config = OramConfig { block_size: 1024, bucket_capacity: 4, height };
    let mut server = OramServer::new(config.clone());
    let mut client = OramClient::new(config, &[1u8; 16], SecureRng::from_seed(b"bench"));
    let clock = Clock::new();
    let cost = CostModel::default();
    for i in 0u64..256 {
        client
            .write(&mut server, &clock, &cost, &keccak256(i.to_be_bytes()), vec![0; 1024])
            .unwrap();
    }
    let mut i = 0u64;
    bench(name, 200, || {
        i = (i + 1) % 256;
        client
            .read(&mut server, &clock, &cost, &keccak256(i.to_be_bytes()))
            .unwrap()
    });
}

fn bench_oram() {
    // Height 10 is the benchmark workloads' tree (44 slots a path).
    bench_oram_access("oram/access_h10", 10);
    bench_oram_access("oram/access_height12_1KiB", 12);
}

fn erc20_fixture() -> (InMemoryState, Transaction) {
    let sender = Address::from_low_u64(1);
    let token = Address::from_low_u64(0x70CE);
    let mut state = InMemoryState::new();
    state.put_account(sender, Account::with_balance(U256::from(u64::MAX)));
    let mut t = Account::with_code(contracts::erc20_runtime());
    t.storage
        .insert(contracts::balance_slot(&sender), U256::from(u64::MAX));
    state.put_account(token, t);
    // Zero gas price: many iterations with a real gas price would drain
    // the sender's balance mid-benchmark.
    let tx = Transaction {
        gas_limit: 300_000,
        gas_price: tape_primitives::U256::ZERO,
        ..Transaction::call(
            sender,
            token,
            contracts::encode_call(
                contracts::sel::transfer(),
                &[Address::from_low_u64(2).into_word(), U256::ONE],
            ),
        )
    };
    (state, tx)
}

fn bench_engines() {
    let (state, tx) = erc20_fixture();

    let mut evm = Evm::new(Env::default(), &state);
    bench("engines/reference_evm_erc20_transfer", 2_000, || {
        evm.transact(black_box(&tx)).unwrap()
    });

    let mut hevm = Hevm::new(HevmConfig::default(), Env::default(), &state, Clock::new());
    bench("engines/hevm_erc20_transfer", 500, || {
        hevm.transact(black_box(&tx)).unwrap()
    });
}

fn main() {
    println!("{:-<72}", "");
    bench_crypto();
    bench_u256();
    bench_mpt();
    bench_oram();
    bench_engines();
    println!("{:-<72}", "");
}
