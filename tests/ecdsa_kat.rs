//! Known-answer tests for `tape_crypto::secp`, through the public API
//! only.
//!
//! `cargo test -q` runs the root package, not the per-crate suites, so
//! this file is what puts secp256k1's published vectors in tier-1:
//! public `k·G` multiples, the `ecrecover` example every Ethereum client
//! tests its precompile 0x1 with (through both `secp::recover` and
//! `tape_evm`'s precompile), and an RFC 6979 signature checked by
//! `verify` and `recover`.
//!
//! `SecretKey::sign` derives its nonce as `keccak(d ‖ z ‖ counter)`,
//! **not** by RFC 6979, so published RFC 6979 signatures can pin
//! `verify` / `recover` only — they are not what `sign` emits. What
//! `sign` emits is pinned by `GRID_DIGESTS`: keccak digests of
//! (`public_key` ‖ `sign` ‖ `ecdh`) over a 32-key × 4-digest grid,
//! recorded on the double-and-add implementation over `U256::mul_mod`;
//! any replacement arithmetic must reproduce them unchanged. What
//! `verify` and `recover` *decide* — honest, mirrored, tampered and
//! cross-key inputs on the same grid — is pinned by `GRID_DECISIONS`,
//! recorded on the comb-and-window implementation (a key prepared as a
//! `VerifyingKey` must decide every cell as `verify` does), and the one case no
//! honest signature reaches (`R`'s x coordinate above `n`) by a crafted
//! vector of its own.

use tape_crypto::secp::{self, EcdsaError, Point, PublicKey, Signature, VerifyingKey, N, P};
use tape_crypto::{keccak256, sha256, Keccak256, SecretKey};
use tape_primitives::{hex, Address, B256, U256};

fn word(s: &str) -> U256 {
    U256::from_be_slice(&hex::decode(s).expect("valid hex"))
}

fn affine(x: &str, y: &str) -> Point {
    Point::Affine { x: word(x), y: word(y) }
}

const GX: &str = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
const GY: &str = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";

#[test]
fn published_generator_multiples() {
    let g = Point::GENERATOR;
    assert_eq!(g.mul(U256::ONE), affine(GX, GY));
    assert_eq!(
        g.mul(U256::from(2u64)),
        affine(
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
        )
    );
    assert_eq!(
        g.mul(U256::from(3u64)),
        affine(
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
        )
    );
    assert_eq!(
        g.mul(U256::ONE.shl_word(128)),
        affine(
            "8f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da",
            "662a9f2dba063986de1d90c2b6be215dbbea2cfe95510bfdf23cbf79501fff82",
        )
    );
    // (n − 1)·G = −G, and n·G closes the group.
    assert_eq!(
        g.mul(N.wrapping_sub(U256::ONE)),
        Point::Affine { x: word(GX), y: P.wrapping_sub(word(GY)) }
    );
    assert_eq!(g.mul(N), Point::Infinity);
    // The same multiples through key generation.
    let two = SecretKey::from_scalar(U256::from(2u64)).expect("in range");
    assert_eq!(two.public_key().point(), g.mul(U256::from(2u64)));
}

const ECRECOVER_HASH: &str = "456e9aea5e197a1f1af7a3e85a3212fa4049a3ba34c2289b4c860fc0b0c64ef3";
const ECRECOVER_R: &str = "9242685bf161793cc25603c231bc2f568eb630ea16aa137d2664ac8038825608";
const ECRECOVER_S: &str = "4f8ae3bd7535248d0bd448298cc2e2071e56992d0774dc340c368ae950852ada";
const ECRECOVER_SIGNER: &str = "7156526fbd7a3c72969b54f64e42c10fbb768c8a";

#[test]
fn ecrecover_vector_through_secp_and_the_precompile() {
    let digest = B256::from_slice(&hex::decode(ECRECOVER_HASH).expect("valid hex"));
    // v = 28 on the wire is recovery id 1.
    let sig = Signature { r: word(ECRECOVER_R), s: word(ECRECOVER_S), v: 1 };
    let signer = secp::recover(&digest, &sig).expect("recoverable");
    assert_eq!(hex::encode(signer.to_eth_address().as_bytes()), ECRECOVER_SIGNER);
    assert_eq!(signer.verify(&digest, &sig), Ok(()));

    let input = hex::decode(&format!("{ECRECOVER_HASH}{:064x}{ECRECOVER_R}{ECRECOVER_S}", 28))
        .expect("valid hex");
    let out = tape_evm::precompile::run(&Address::from_low_u64(1), &input, 3_000);
    assert!(out.success);
    assert_eq!(out.gas_used, 3_000);
    assert_eq!(hex::encode(&out.output), format!("{:0>64}", ECRECOVER_SIGNER));
}

#[test]
fn rfc6979_signature_verifies_and_recovers() {
    // secp256k1 / SHA-256, key 1, message "Satoshi Nakamoto": the
    // deterministic-nonce vector the bitcoin libraries share.
    let digest = sha256(b"Satoshi Nakamoto");
    let r = word("934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8");
    let s = word("2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5");
    let key = SecretKey::from_scalar(U256::ONE).expect("in range").public_key();
    let recovered: Vec<_> = (0..2)
        .filter(|&v| {
            let sig = Signature { r, s, v };
            assert_eq!(key.verify(&digest, &sig), Ok(()));
            secp::recover(&digest, &sig) == Ok(key)
        })
        .collect();
    assert_eq!(recovered.len(), 1, "exactly one recovery id names the signer");
}

/// The four digests every grid key signs: the two ends of the 256-bit
/// range (`z = 0`, and a value above `n` that `sign` must reduce) and
/// two ordinary hashes.
fn grid_digests() -> [B256; 4] {
    [B256::ZERO, B256::new([0xff; 32]), keccak256(b"ecdsa-kat-a"), keccak256(b"ecdsa-kat-b")]
}

const GRID_KEYS: usize = 32;

/// One digest per column of the grid, over every key's
/// `public_key ‖ r ‖ s ‖ v ‖ ecdh(key, next key)`.
const GRID_DIGESTS: [&str; 4] = [
    "d2930f58f2cf2c0e886c873d2fd8ce471100341b3d1349b9c8d7809380310cd9",
    "eacc9e3871d0a3987573c05f8f97565eb3a31ed4edb69bf6c66bbad8f4753e7e",
    "98c0a98e48ee4c83ab82630d4a8ee7b19f8a680005cc14065be8f52ef972b01b",
    "cde7437c72be4e7a45489723d2e8f3f117d7e9e674b46f364fb5ff1f4bbcdb8b",
];

#[test]
fn sign_public_key_and_ecdh_are_pinned_byte_for_byte() {
    let keys: Vec<SecretKey> = (0..GRID_KEYS)
        .map(|i| SecretKey::from_seed(format!("ecdsa-kat-key-{i}").as_bytes()))
        .collect();
    let publics: Vec<_> = keys.iter().map(SecretKey::public_key).collect();
    for (digest, expected) in grid_digests().iter().zip(GRID_DIGESTS) {
        let mut column = Keccak256::new();
        for (i, key) in keys.iter().enumerate() {
            let sig = key.sign(digest);
            assert_eq!(publics[i].verify(digest, &sig), Ok(()));
            assert_eq!(secp::recover(digest, &sig), Ok(publics[i]));
            let shared = secp::ecdh(key, &publics[(i + 1) % GRID_KEYS]).expect("finite");
            column.update(&publics[i].to_bytes());
            column.update(&sig.r.to_be_bytes());
            column.update(&sig.s.to_be_bytes());
            column.update(&[sig.v]);
            column.update(shared.as_bytes());
        }
        assert_eq!(hex::encode(column.finalize().as_bytes()), expected);
    }
}

/// What `verify` answered, as one byte.
fn decision(result: Result<(), EcdsaError>) -> u8 {
    match result {
        Ok(()) => 0,
        Err(EcdsaError::BadSignature) => 1,
        Err(EcdsaError::InvalidScalar) => 2,
        Err(EcdsaError::InvalidPoint) => 3,
        Err(EcdsaError::RecoveryFailed) => 4,
    }
}

/// `x` with one bit flipped.
fn flip(x: U256, bit: usize) -> U256 {
    x ^ U256::ONE.shl_word(bit as u32)
}

/// One digest per column of the grid, over every key's `verify` decision
/// and `recover`ed address (or error) for: the honest signature, its
/// mirrored high-s form, one flipped bit in `r`, in `s` and in the
/// digest, and the honest signature under the next key.
const GRID_DECISIONS: [&str; 4] = [
    "d61e4b48fd3add156a7d62ba253637a015998eb7c80e0e9af3c5fc083f455f0c",
    "92e2077be12fb7b07c6d95c392092837e2d49af874ec554490da6014c5241024",
    "a6ffc422fc6d95238ca6557dba1069c1bb2bfeeb142b5b8d1a2c473cf9e99a07",
    "8c4c52252916c84b2bb2ad8551bb21ba460f476b5e1055697606f3b2ebb0c972",
];

#[test]
fn verify_decisions_and_recovered_addresses_are_pinned() {
    let publics: Vec<_> = (0..GRID_KEYS)
        .map(|i| SecretKey::from_seed(format!("ecdsa-kat-key-{i}").as_bytes()).public_key())
        .collect();
    // Each cell's decision again, off the key prepared once per session.
    let prepared: Vec<_> = publics.iter().map(|&key| VerifyingKey::new(key)).collect();
    for (j, (digest, expected)) in grid_digests().iter().zip(GRID_DECISIONS).enumerate() {
        let mut column = Keccak256::new();
        for i in 0..GRID_KEYS {
            let key = SecretKey::from_seed(format!("ecdsa-kat-key-{i}").as_bytes());
            let sig = key.sign(digest);
            // Which bit moves differs from cell to cell and covers the
            // whole word over the grid.
            let bit = (37 * i + 101 * j) % 256;
            let flipped_digest = B256::new(flip(digest.into_u256(), bit).to_be_bytes());
            let cases = [
                (i, *digest, sig),
                (i, *digest, Signature { s: N.wrapping_sub(sig.s), v: sig.v ^ 1, ..sig }),
                (i, *digest, Signature { r: flip(sig.r, bit), ..sig }),
                (i, *digest, Signature { s: flip(sig.s, bit), ..sig }),
                (i, flipped_digest, sig),
                ((i + 1) % GRID_KEYS, *digest, sig),
            ];
            for (case, (k, digest, sig)) in cases.iter().enumerate() {
                let verdict = publics[*k].verify(digest, sig);
                assert_eq!(prepared[*k].verify(digest, sig), verdict, "key {i}, digest {j}, case {case}");
                assert_eq!(verdict.is_ok(), case < 2, "key {i}, digest {j}, case {case}");
                column.update(&[decision(verdict)]);
                match secp::recover(digest, sig) {
                    Ok(signer) => {
                        assert_eq!(signer == publics[i], case < 2 || case == 5);
                        column.update(signer.to_eth_address().as_bytes());
                    }
                    Err(e) => column.update(&[decision(Err(e))]),
                }
            }
        }
        assert_eq!(hex::encode(column.finalize().as_bytes()), expected, "column {j}");
    }
}

#[test]
fn nonce_point_with_x_above_n_verifies_under_the_reduced_r() {
    // `verify` compares `x mod n` with `r`, and `p − n ≈ 2^128.4` values of
    // `x` lie above `n` — no honest signature will ever meet one, so this
    // one is crafted. `n + 2` is on the curve (`n + 1` is not, `n` itself
    // would give `r = 0`): with `R = lift_x(n + 2, odd)`, `r = 2` and an
    // arbitrary `s` and digest, `Q = r⁻¹(s·R − z·G)` is the key the
    // signature verifies under. `Q` below was computed outside this
    // workspace (affine double-and-add over Python integers).
    let r_point = Point::lift_x(N.wrapping_add(U256::from(2u64)), true).expect("on the curve");
    let (r, s) = (U256::from(2u64), U256::from_be_bytes([0x22; 32]));
    let digest = B256::new([0x11; 32]);
    let q = affine(
        "af4cb1801bad101fb1f320b93cb1c7a9fe106baadbe8ab3f6ec92c0de9bd56bb",
        "a9d270ab30f8bf0a32858c252063ed1bb00dc8576725a441ba0d1273f2599bcc",
    );
    // The same construction through the code under test: r⁻¹ = (n + 1)/2.
    let half = N.shr_word(1).wrapping_add(U256::ONE);
    let minus_z = N.wrapping_sub(digest.into_u256().rem_evm(N));
    assert_eq!(r_point.mul(s).add(Point::GENERATOR.mul(minus_z)).mul(half), q);

    let key = PublicKey::from_point(q).expect("on the curve");
    for v in 0..2 {
        assert_eq!(key.verify(&digest, &Signature { r, s, v }), Ok(()));
        assert_eq!(VerifyingKey::new(key).verify(&digest, &Signature { r, s, v }), Ok(()));
        let three = Signature { r: U256::from(3u64), s, v };
        assert_eq!(key.verify(&digest, &three), Err(EcdsaError::BadSignature));
        // `recover` lifts `r` itself, never `r + n`: it names another key.
        assert_ne!(secp::recover(&digest, &Signature { r, s, v }), Ok(key));
    }
}
