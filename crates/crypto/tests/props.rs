//! Property-based tests for the cryptographic substrates.
//!
//! The `#[ignore]`d `ecdsa_differential_soak` at the bottom
//! (`scripts/verify.sh --soak`, in release) runs every public secp256k1
//! operation against the double-and-add oracle 4 096 times over.

use tape_crypto::prop::{check, Gen};
use tape_crypto::secp::VerifyingKey;
use tape_crypto::{keccak256, secp, Aes128, AesGcm, AuthError, Keccak256, SecretKey, SecureRng};
use tape_primitives::{B256, U256};

const CASES: u32 = 32;

#[test]
fn keccak_incremental_matches_oneshot() {
    check("keccak_incremental_matches_oneshot", CASES, |g| {
        let data = g.bytes(0, 600);
        let split = g.index(600).min(data.len());
        let mut h = Keccak256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), keccak256(&data));
    });
}

#[test]
fn keccak_collision_resistance_smoke() {
    check("keccak_collision_resistance_smoke", CASES, |g| {
        let a = g.bytes(0, 128);
        let b = g.bytes(0, 128);
        if a != b {
            assert_ne!(keccak256(&a), keccak256(&b));
        }
    });
}

#[test]
fn gcm_roundtrip() {
    check("gcm_roundtrip", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let aad = g.bytes(0, 64);
        let plaintext = g.bytes(0, 300);
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    });
}

#[test]
fn gcm_any_bitflip_detected() {
    check("gcm_any_bitflip_detected", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let plaintext = g.bytes(1, 100);
        let gcm = AesGcm::new(&key);
        let mut sealed = gcm.seal(&nonce, b"", &plaintext);
        let idx = g.index(sealed.len());
        sealed[idx] ^= 1 << g.below(8);
        assert!(gcm.open(&nonce, b"", &sealed).is_err());
    });
}

#[test]
fn gcm_wrong_key_rejected() {
    check("gcm_wrong_key_rejected", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let plaintext = g.bytes(0, 100);
        let gcm = AesGcm::new(&key);
        let mut other_key = key;
        other_key[0] ^= 1;
        let other = AesGcm::new(&other_key);
        let sealed = gcm.seal(&nonce, b"", &plaintext);
        assert!(other.open(&nonce, b"", &sealed).is_err());
    });
}

/// AES-128-GCM straight from the definitions, sharing nothing with the
/// crate's kernels: a computed S-box, byte-wise rounds with the key
/// schedule run alongside, and a 128-step shift-and-add GF(2^128)
/// multiply — slow and obviously right, the differential oracle for the
/// table-driven rounds and the integer-multiply GHASH.
mod oracle {
    fn gf8_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0;
        while b != 0 {
            p ^= a * (b & 1);
            a = (a << 1) ^ ((a >> 7) * 0x1b);
            b >>= 1;
        }
        p
    }

    pub fn sbox() -> [u8; 256] {
        core::array::from_fn(|x| {
            // x^254 is the inverse in GF(2^8) (and 0 for 0), then the affine map.
            let inv = (0..253).fold(x as u8, |acc, _| gf8_mul(acc, x as u8));
            (0..5).fold(0x63, |acc, r| acc ^ inv.rotate_left(r))
        })
    }

    pub fn encrypt_block(sbox: &[u8; 256], key: &[u8; 16], block: &mut [u8; 16]) {
        let (mut rk, mut rcon) = (*key, 1u8);
        (0..16).for_each(|i| block[i] ^= rk[i]);
        for round in 1..=10 {
            for i in 0..4 {
                rk[i] ^= sbox[rk[12 + (i + 1) % 4] as usize] ^ if i == 0 { rcon } else { 0 };
            }
            (4..16).for_each(|i| rk[i] ^= rk[i - 4]);
            rcon = gf8_mul(rcon, 2);
            // SubBytes + ShiftRows; byte (row, col) lives at col*4 + row.
            let s = *block;
            for (i, b) in block.iter_mut().enumerate() {
                *b = sbox[s[(i + 4 * (i % 4)) % 16] as usize];
            }
            if round < 10 {
                let s = *block;
                for (i, b) in block.iter_mut().enumerate() {
                    let col = |r: usize| s[i / 4 * 4 + (i + r) % 4];
                    *b = gf8_mul(col(0), 2) ^ gf8_mul(col(1), 3) ^ col(2) ^ col(3);
                }
            }
            (0..16).for_each(|i| block[i] ^= rk[i]);
        }
    }

    fn ghash_mul(x: u128, mut v: u128) -> u128 {
        let mut z = 0;
        for i in 0..128 {
            z ^= v * ((x >> (127 - i)) & 1);
            v = (v >> 1) ^ ((v & 1) * (0xe1 << 120));
        }
        z
    }

    /// `ciphertext ‖ tag`.
    pub fn seal(
        sbox: &[u8; 256],
        key: &[u8; 16],
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Vec<u8> {
        let ek = |counter: u32| {
            let mut block = [0u8; 16];
            block[..12].copy_from_slice(nonce);
            block[12..].copy_from_slice(&counter.to_be_bytes());
            encrypt_block(sbox, key, &mut block);
            block
        };
        let mut h = [0u8; 16];
        encrypt_block(sbox, key, &mut h);
        let h = u128::from_be_bytes(h);
        let mut out: Vec<u8> = plaintext.to_vec();
        for (i, chunk) in out.chunks_mut(16).enumerate() {
            chunk.iter_mut().zip(ek(2 + i as u32)).for_each(|(b, k)| *b ^= k);
        }
        let mut y = 0u128;
        for chunk in aad.chunks(16).chain(out.chunks(16)) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = ghash_mul(y ^ u128::from_be_bytes(block), h);
        }
        y = ghash_mul(y ^ (((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8)), h);
        out.extend_from_slice(&(y ^ u128::from_be_bytes(ek(1))).to_be_bytes());
        out
    }
}

#[test]
fn aes_gcm_matches_bit_serial_oracle() {
    let sbox = oracle::sbox();
    check("aes_gcm_matches_bit_serial_oracle", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let aad = g.bytes(0, 64);
        let plaintext = g.bytes(0, 2049);
        let mut block: [u8; 16] = g.array();
        let mut expected = block;
        Aes128::new(&key).encrypt_block(&mut block);
        oracle::encrypt_block(&sbox, &key, &mut expected);
        assert_eq!(block, expected);
        assert_eq!(
            AesGcm::new(&key).seal(&nonce, &aad, &plaintext),
            oracle::seal(&sbox, &key, &nonce, &aad, &plaintext)
        );
    });
}

#[test]
fn gcm_in_place_matches_allocating() {
    check("gcm_in_place_matches_allocating", CASES, |g| {
        let gcm = AesGcm::new(&g.array());
        let nonce: [u8; 12] = g.array();
        let aad = g.bytes(0, 64);
        let plaintext = g.bytes(0, 2049);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        let mut buf = plaintext.clone();
        let tag = gcm.seal_in_place(&nonce, &aad, &mut buf);
        assert_eq!([&buf[..], &tag[..]].concat(), sealed);
        assert_eq!(gcm.open_in_place(&nonce, &aad, &mut buf, &tag), Ok(()));
        assert_eq!(buf, plaintext);
        assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    });
}

#[test]
fn gcm_lazy_open_matches_eager_open() {
    // `open_in_place` is the oracle: wanted, the lazy entry leaves what
    // it leaves; not wanted, it stops after the block it showed.
    check("gcm_lazy_open_matches_eager_open", CASES, |g| {
        let gcm = AesGcm::new(&g.array());
        // 1 037 bytes is an ORAM slot's plaintext.
        for len in [0, 1, 15, 16, 17, 31, 1037, g.index(2049)] {
            let nonce: [u8; 12] = g.array();
            let aad = g.bytes(0, 64);
            let plaintext = g.bytes(len, len + 1);
            let mut sealed = plaintext.clone();
            let tag = gcm.seal_in_place(&nonce, &aad, &mut sealed);
            let head = len.min(16);

            let mut eager = sealed.clone();
            assert_eq!(gcm.open_in_place(&nonce, &aad, &mut eager, &tag), Ok(()));
            assert_eq!(eager, plaintext, "len={len}");

            for want in [true, false] {
                let mut buf = sealed.clone();
                let mut shown = None;
                let opened = gcm.open_in_place_if(&nonce, &aad, &mut buf, &tag, |first| {
                    shown = Some(first.to_vec());
                    want
                });
                assert_eq!(opened, Ok(want), "len={len}");
                assert_eq!(shown.as_deref(), Some(&plaintext[..head]), "len={len}");
                assert_eq!(buf[..head], plaintext[..head], "len={len}");
                let rest = if want { &eager[head..] } else { &sealed[head..] };
                assert_eq!(&buf[head..], rest, "len={len} want={want}");
            }
        }
    });
}

#[test]
fn gcm_failed_open_in_place_leaves_ciphertext() {
    // Verify-then-decrypt: a rejected buffer is never run through CTR,
    // not even its first block, and nobody is asked whether they want it.
    check("gcm_failed_open_in_place_leaves_ciphertext", CASES, |g| {
        let gcm = AesGcm::new(&g.array());
        let mut nonce: [u8; 12] = g.array();
        let mut buf = g.bytes(1, 300);
        let mut tag = gcm.seal_in_place(&nonce, b"aad", &mut buf);
        let mut aad = *b"aad";
        let bit = 1 << g.below(8);
        let len = buf.len();
        match g.below(5) {
            0 => buf[g.index(len.min(16))] ^= bit,
            1 => buf[g.index(len)] ^= bit,
            2 => tag[g.index(16)] ^= bit,
            3 => aad[g.index(3)] ^= bit,
            _ => nonce[g.index(12)] ^= bit,
        }
        let ciphertext = buf.clone();
        assert_eq!(gcm.open_in_place(&nonce, &aad, &mut buf, &tag), Err(AuthError));
        assert_eq!(buf, ciphertext);
        let mut asked = false;
        let lazy = gcm.open_in_place_if(&nonce, &aad, &mut buf, &tag, |_| {
            asked = true;
            true
        });
        assert_eq!(lazy, Err(AuthError));
        assert!(!asked);
        assert_eq!(buf, ciphertext);
    });
}

#[test]
fn aes_gcm_stays_small() {
    // `AesGcm` is rebuilt and boxed several times per bundle (one
    // `Layer3Pager` per `Hevm`, four `Channel`s per session). Its state
    // is the 176-byte key schedule plus the 16-byte `H`; a 256-byte 4-bit
    // GHASH table here measured +2.95 % `host_alloc_kb_per_bundle`
    // (37.69 → 38.80 KiB, bound 3 %) and +1.2 % `host_peak_heap_mb` on
    // the `transfers_es_gw` benchmark workload for no gain in speed.
    assert!(std::mem::size_of::<AesGcm>() <= 192);
}

#[test]
fn ecdsa_sign_verify_recover() {
    check("ecdsa_sign_verify_recover", CASES, |g| {
        let seed: [u8; 16] = g.array();
        let msg = g.bytes(0, 128);
        let sk = SecretKey::from_seed(&seed);
        let pk = sk.public_key();
        let digest = keccak256(&msg);
        let sig = sk.sign(&digest);
        assert!(pk.verify(&digest, &sig).is_ok());
        assert_eq!(secp::recover(&digest, &sig).unwrap(), pk);
    });
}

#[test]
fn ecdsa_cross_key_rejection() {
    check("ecdsa_cross_key_rejection", CASES, |g| {
        let seed1: [u8; 8] = g.array();
        let seed2: [u8; 8] = g.array();
        if seed1 == seed2 {
            return;
        }
        let sk1 = SecretKey::from_seed(&seed1);
        let sk2 = SecretKey::from_seed(&seed2);
        let digest = keccak256(b"fixed message");
        let sig = sk1.sign(&digest);
        assert!(sk2.public_key().verify(&digest, &sig).is_err());
    });
}

/// secp256k1 straight from the textbook, sharing nothing with the
/// crate's arithmetic: bit-by-bit double-and-add in Jacobian coordinates
/// with every field operation a generic `U256::mul_mod` division — slow
/// and obviously right, the differential oracle for the special-form
/// fields, the gcd inverse, the comb and the endomorphism ladder.
mod ec_oracle {
    use tape_crypto::secp::{Point, N, P};
    use tape_primitives::U256;

    type Jacobian = (U256, U256, U256);

    fn mul(a: U256, b: U256) -> U256 {
        a.mul_mod(b, P)
    }

    fn sub(a: U256, b: U256) -> U256 {
        a.add_mod(P.wrapping_sub(b), P)
    }

    /// `base^exp mod m`; with `exp = m − 2` the inverse mod a prime.
    pub fn pow(base: U256, exp: U256, m: U256) -> U256 {
        (0..exp.bits()).rev().fold(U256::ONE, |acc, i| {
            let acc = acc.mul_mod(acc, m);
            if exp.bit(i as usize) { acc.mul_mod(base, m) } else { acc }
        })
    }

    fn double((x, y, z): Jacobian) -> Jacobian {
        let small = |k: u64, v| mul(U256::from(k), v);
        let (y2, m) = (mul(y, y), small(3, mul(x, x)));
        let s = small(4, mul(x, y2));
        let x3 = sub(mul(m, m), small(2, s));
        (x3, sub(mul(m, sub(s, x3)), small(8, mul(y2, y2))), small(2, mul(y, z)))
    }

    fn add(p: Jacobian, q: Jacobian) -> Jacobian {
        let ((x1, y1, z1), (x2, y2, z2)) = (p, q);
        if z1.is_zero() || z2.is_zero() {
            return if z1.is_zero() { q } else { p };
        }
        let (z1z1, z2z2) = (mul(z1, z1), mul(z2, z2));
        let (u1, u2) = (mul(x1, z2z2), mul(x2, z1z1));
        let (s1, s2) = (mul(y1, mul(z2z2, z2)), mul(y2, mul(z1z1, z1)));
        if u1 == u2 {
            return if s1 == s2 { double(p) } else { (U256::ONE, U256::ONE, U256::ZERO) };
        }
        let (h, r) = (sub(u2, u1), sub(s2, s1));
        let (h2, h3) = (mul(h, h), mul(mul(h, h), h));
        let x3 = sub(sub(mul(r, r), h3), mul(U256::from(2u64), mul(u1, h2)));
        (x3, sub(mul(r, sub(mul(u1, h2), x3)), mul(s1, h3)), mul(h, mul(z1, z2)))
    }

    /// `k·p + l·q`, each by plain double-and-add.
    pub fn mul_add(k: U256, p: Point, l: U256, q: Point) -> Point {
        let ladder = |k: U256, p: Point| {
            let Point::Affine { x, y } = p else { return (U256::ONE, U256::ONE, U256::ZERO) };
            let k = k.rem_evm(N);
            (0..k.bits()).rev().fold((U256::ONE, U256::ONE, U256::ZERO), |acc, i| {
                let acc = double(acc);
                if k.bit(i as usize) { add(acc, (x, y, U256::ONE)) } else { acc }
            })
        };
        let (x, y, z) = add(ladder(k, p), ladder(l, q));
        if z.is_zero() {
            return Point::Infinity;
        }
        let zi = pow(z, P.wrapping_sub(U256::from(2u64)), P);
        Point::Affine { x: mul(x, mul(zi, zi)), y: mul(y, mul(mul(zi, zi), zi)) }
    }
}

fn scalar(g: &mut Gen) -> U256 {
    U256::from_be_bytes(g.array())
}

/// `k·p` by the oracle.
fn oracle_mul(k: U256, p: secp::Point) -> secp::Point {
    ec_oracle::mul_add(k, p, U256::ZERO, secp::Point::Infinity)
}

/// `a⁻¹ mod n` by Fermat's little theorem, the oracle's way.
fn oracle_inv_n(a: U256) -> U256 {
    ec_oracle::pow(a, secp::N.wrapping_sub(U256::from(2u64)), secp::N)
}

/// `−k mod n` for a non-zero `k < n`.
fn minus(k: U256) -> U256 {
    secp::N.wrapping_sub(k)
}

/// `2^e mod n` by doubling.
fn pow2_mod_n(e: usize) -> U256 {
    (0..e).fold(U256::ONE, |v, _| v.add_mod(v, secp::N))
}

/// `(2^264 − 1) mod n`.
fn comb_offset() -> U256 {
    pow2_mod_n(264).add_mod(minus(U256::ONE), secp::N)
}

/// `k·G`'s multi-comb recoding `B = (k + 2^264 − 1)/2 mod n`, which makes
/// `k ≡ Σᵢ (2·bitᵢ(B) − 1)·2^i`: bit `24·b + 4·t + s` of `B` is tooth `t`
/// of block `b` (of 11) at offset `s` (of 4).
fn comb_recoding(k: U256) -> U256 {
    let half = secp::N.shr_word(1).wrapping_add(U256::ONE);
    k.add_mod(comb_offset(), secp::N).mul_mod(half, secp::N)
}

/// The `k` whose recoding is `b`: `2·b − (2^264 − 1) mod n`.
fn comb_scalar(b: U256) -> U256 {
    b.add_mod(b, secp::N).add_mod(minus(comb_offset()), secp::N)
}

/// Scalars at the edges of the multi-comb recoding, all below n: the ends
/// and the middle of the scalar range; every digit −1 (`B = 0`) and the
/// top of `B`'s range; the top block's teeth below bit 256 all set or all
/// clear (its two teeth above bit 256 are always clear); and the one `k`
/// whose last mixed addition (block 10, offset 0) meets an accumulator
/// equal to its entry `E`, i.e. `k ≡ 2·E`, which must double.
fn comb_edges() -> Vec<U256> {
    let half_n = secp::N.shr_word(1);
    let top_block = |k: U256| comb_recoding(k).shr_word(240);
    let doubling =
        comb_doubling(U256::ZERO).expect("a pattern of the last block's teeth recodes to itself");
    let edges = vec![
        U256::ZERO,
        U256::ONE,
        half_n,
        half_n.wrapping_add(U256::ONE),
        minus(U256::ONE),
        comb_scalar(U256::ZERO),
        comb_scalar(minus(U256::ONE)),
        comb_scalar(U256::from(0xffffu64).shl_word(240)),
        comb_scalar(U256::ONE.shl_word(240).wrapping_sub(U256::ONE)),
        doubling,
    ];
    assert_eq!(comb_recoding(edges[5]), U256::ZERO);
    assert_eq!(comb_recoding(edges[6]), minus(U256::ONE));
    assert_eq!((top_block(edges[7]), top_block(edges[8])), (U256::from(0xffffu64), U256::ZERO));
    assert!(edges.iter().all(|&k| k < secp::N && comb_scalar(comb_recoding(k)) == k));
    edges
}

/// A `k` whose multi-comb ends on an entry `E` (block 10, offset 0) with
/// `k + c ≡ 2·E`: when everything else the ladder adds sums to `c·G`, its
/// last mixed addition meets an accumulator equal to `E` and must double.
/// `None` when no pattern of that block's four teeth below bit 256 (its
/// two above are always clear) recodes to itself.
fn comb_doubling(c: U256) -> Option<U256> {
    let top_block = |k: U256| comb_recoding(k).shr_word(240);
    (0..16u64)
        .map(|teeth| {
            let entry = (0..6).fold(U256::ZERO, |e, t| {
                let tooth = pow2_mod_n(240 + 4 * t);
                e.add_mod(if teeth >> t & 1 == 1 { tooth } else { minus(tooth) }, secp::N)
            });
            (teeth, entry.add_mod(entry, secp::N).add_mod(secp::N.wrapping_sub(c), secp::N))
        })
        .find(|&(teeth, k)| (0..4).all(|t| top_block(k).bit(4 * t) == (teeth >> t & 1 == 1)))
        .map(|(_, k)| k)
}

#[test]
fn point_mul_matches_double_and_add_oracle() {
    let gen = secp::Point::GENERATOR;
    let minus_gen = oracle_mul(minus(U256::ONE), gen);
    // `Point::mul` reduces its scalar mod n first.
    let mut edges = comb_edges();
    edges.extend([U256::MAX, secp::N]);
    for &k in &edges {
        // The ladder on Q = ±G, whose table entries are odd multiples of G.
        assert_eq!(gen.mul(k), oracle_mul(k, gen), "k = {k:x}");
        assert_eq!(minus_gen.mul(k), oracle_mul(k, minus_gen), "k = {k:x}");
        // The multi-comb, through key generation.
        if let Ok(sk) = SecretKey::from_scalar(k) {
            assert_eq!(sk.public_key().point(), oracle_mul(k, gen), "k = {k:x}");
        }
    }
    check("point_mul_matches_double_and_add_oracle", CASES, |g| {
        let (k, l) = (scalar(g), scalar(g));
        let q = oracle_mul(l, gen);
        assert_eq!(gen.mul(k), oracle_mul(k, gen));
        assert_eq!(q.mul(k), oracle_mul(k, q));
        let edge = edges[g.index(edges.len())];
        assert_eq!(q.mul(edge), oracle_mul(edge, q));
        // Key generation runs off the comb, not the ladder.
        if let Ok(sk) = SecretKey::from_scalar(k) {
            assert_eq!(sk.public_key().point(), oracle_mul(k, gen));
        }
    });
}

#[test]
fn comb_edges_through_verify_and_recover() {
    // The multi-comb serves the u₁·G half of both: pick the digest that
    // makes u₁ each edge scalar (u₁ = 0 is a digest ≡ 0 mod n).
    let sk = SecretKey::from_seed(b"comb edges");
    let pk = sk.public_key();
    let sig = sk.sign(&keccak256(b"comb edges"));
    let r_point = secp::Point::lift_x(sig.r, sig.v == 1).expect("r of a signature lifts");
    for u1 in comb_edges() {
        // verify: u₁ = z/s.
        let z = u1.mul_mod(sig.s, secp::N);
        let accepted = pk.verify(&B256::new(z.to_be_bytes()), &sig).is_ok();
        assert_eq!(accepted, oracle_accepts(pk.point(), z, &sig), "u₁ = {u1:x}");
        // recover: u₁ = −z/r; for u₁ = 0 the digest is n itself.
        let z = secp::N.wrapping_sub(u1.mul_mod(sig.r, secp::N));
        let recovered = secp::recover(&B256::new(z.to_be_bytes()), &sig);
        let expected = oracle_recovers(r_point, z, &sig);
        assert_eq!(recovered.ok().map(|q| q.point()), expected, "u₁ = {u1:x}");
    }
}

/// What `verify` must decide, computed by the oracle: is the x
/// coordinate of `(z/s)·G + (r/s)·Q`, reduced mod n, equal to `r`?
fn oracle_accepts(q: secp::Point, z: U256, sig: &secp::Signature) -> bool {
    let s_inv = oracle_inv_n(sig.s);
    let (u1, u2) = (z.mul_mod(s_inv, secp::N), sig.r.mul_mod(s_inv, secp::N));
    match ec_oracle::mul_add(u1, secp::Point::GENERATOR, u2, q) {
        secp::Point::Affine { x, .. } => x.rem_evm(secp::N) == sig.r,
        secp::Point::Infinity => false,
    }
}

#[test]
fn verify_edge_cases_match_oracle() {
    check("verify_edge_cases_match_oracle", CASES, |g| {
        let sk = SecretKey::from_seed(&g.array::<8>());
        let pk = sk.public_key();
        // u₁ = 0: a digest that is 0 mod n leaves only the u₂·Q half.
        for zero in [B256::ZERO, B256::new(secp::N.to_be_bytes())] {
            let sig = sk.sign(&B256::ZERO);
            assert_eq!(pk.verify(&zero, &sig), Ok(()));
            assert!(oracle_accepts(pk.point(), U256::ZERO, &sig));
        }
        // The mirrored high-s form is accepted, as by `ecrecover`.
        let digest = keccak256(g.bytes(0, 64));
        let sig = sk.sign(&digest);
        let mirrored = secp::Signature { s: secp::N.wrapping_sub(sig.s), ..sig };
        assert_eq!(pk.verify(&digest, &mirrored), Ok(()));
        assert!(oracle_accepts(pk.point(), digest.into_u256().rem_evm(secp::N), &mirrored));

        // Q = ±G with z = r makes u₁ = u₂, so the two halves of the sum
        // are the same point (Q = G: the addition must double) or opposite
        // points (Q = −G: the sum is infinity and nothing verifies).
        let k = scalar(g).rem_evm(secp::N).max(U256::ONE);
        let secp::Point::Affine { x, .. } = secp::Point::GENERATOR.mul(k) else { unreachable!() };
        let r = x.rem_evm(secp::N);
        let k_inv = oracle_inv_n(k);
        let digest = B256::new(r.to_be_bytes());
        let minus_one = secp::N.wrapping_sub(U256::ONE);
        for (d, expected) in
            [(U256::ONE, Ok(())), (minus_one, Err(secp::EcdsaError::BadSignature))]
        {
            let q = SecretKey::from_scalar(d).unwrap().public_key();
            // s = k⁻¹(z + r·d) with z = r; for d = −1 that is 0, so any s will do.
            let z_plus_rd = r.add_mod(r.mul_mod(d, secp::N), secp::N);
            let s = k_inv.mul_mod(z_plus_rd, secp::N).max(U256::ONE);
            let sig = secp::Signature { r, s, v: 0 };
            assert_eq!(q.verify(&digest, &sig), expected);
            assert_eq!(oracle_accepts(q.point(), r, &sig), expected.is_ok());
        }
    });
}

/// What `recover` must return, computed by the oracle:
/// `Q = (−z/r)·G + (s/r)·R`, `None` for the point at infinity.
fn oracle_recovers(r_point: secp::Point, z: U256, sig: &secp::Signature) -> Option<secp::Point> {
    let r_inv = oracle_inv_n(sig.r);
    let u1 = secp::N.wrapping_sub(z.mul_mod(r_inv, secp::N));
    let q = ec_oracle::mul_add(u1, secp::Point::GENERATOR, sig.s.mul_mod(r_inv, secp::N), r_point);
    (q != secp::Point::Infinity).then_some(q)
}

/// `x mod n` of a finite point and the parity of its `y`: the `r` and `v`
/// of a signature whose nonce point it is.
fn r_and_v(p: secp::Point) -> (U256, u8) {
    let secp::Point::Affine { x, y } = p else { panic!("finite point") };
    (x.rem_evm(secp::N), y.bit(0) as u8)
}

fn lambda_squared() -> U256 {
    secp::LAMBDA.mul_mod(secp::LAMBDA, secp::N)
}

#[test]
fn ladder_collisions_match_oracle() {
    // The two halves of `verify`'s and `recover`'s sum meet — same point
    // (the addition must double) or opposite points (the sum is infinity)
    // — when the variable base is a known multiple `d` of G and the digest
    // is chosen to match. d = ±1 is the classic case; d = ±λ, ±λ² are the
    // ones the endomorphism adds: there φ(Q) is itself a small multiple of
    // G's images and the split halves line up with the comb's.
    let gen = secp::Point::GENERATOR;
    let multiples = [U256::ONE, secp::LAMBDA, lambda_squared()];
    check("ladder_collisions_match_oracle", 8, |g| {
        let k = scalar(g).rem_evm(secp::N).max(U256::ONE);
        let (r, _) = r_and_v(gen.mul(k));
        let k_inv = oracle_inv_n(k);
        for d in multiples {
            // verify: z = r·d makes u₁·G = (r·d/s)·G = u₂·(d·G).
            let z = r.mul_mod(d, secp::N);
            let digest = B256::new(z.to_be_bytes());
            for (key, expected) in [(d, Ok(())), (minus(d), Err(secp::EcdsaError::BadSignature))] {
                let q = SecretKey::from_scalar(key).unwrap().public_key();
                assert_eq!(q.point(), oracle_mul(key, gen));
                // s = k⁻¹(z + r·key); for key = −d that is 0, so any s will do.
                let s = k_inv.mul_mod(z.add_mod(r.mul_mod(key, secp::N), secp::N), secp::N);
                let sig = secp::Signature { r, s: s.max(U256::ONE), v: 0 };
                assert_eq!(q.verify(&digest, &sig), expected, "d = {d:x}");
                assert_eq!(oracle_accepts(q.point(), z, &sig), expected.is_ok());
            }

            // recover: R = d·G and z = ∓s·d make −z·G = ±s·R.
            let r_point = oracle_mul(d, gen);
            let (r, v) = r_and_v(r_point);
            let s = scalar(g).rem_evm(secp::N).max(U256::ONE);
            let sig = secp::Signature { r, s, v };
            for z in [minus(s.mul_mod(d, secp::N)), s.mul_mod(d, secp::N), U256::ZERO] {
                let expected = oracle_recovers(r_point, z, &sig);
                let recovered = secp::recover(&B256::new(z.to_be_bytes()), &sig);
                assert_eq!(recovered.ok().map(|q| q.point()), expected, "d = {d:x}, z = {z:x}");
            }
            assert_eq!(oracle_recovers(r_point, s.mul_mod(d, secp::N), &sig), None);
        }
    });

    // Point::mul on the same bases, with scalars whose halves vanish,
    // coincide or carry.
    let pow128 = U256::ONE.shl_word(128);
    let scalars = [
        U256::ZERO,
        U256::ONE,
        U256::from(2u64),
        secp::LAMBDA,
        minus(secp::LAMBDA),
        lambda_squared(),
        secp::LAMBDA.add_mod(U256::ONE, secp::N),
        pow128.wrapping_sub(U256::ONE),
        pow128.wrapping_add(U256::ONE),
        minus(U256::ONE),
    ];
    for d in [U256::ONE, minus(U256::ONE), secp::LAMBDA, lambda_squared()] {
        let q = oracle_mul(d, gen);
        for k in scalars {
            assert_eq!(q.mul(k), oracle_mul(k, q), "{k:x}·({d:x}·G)");
        }
    }

    // The prepared key's ladder runs u₂ as four 64-bit pieces: the low and
    // high 64 bits of each GLV half, on Q's and 2^64·Q's tables. Each u₂
    // below makes pieces vanish, coincide or carry into bit 64 (a low
    // piece near 2^64 rounds up to it; a high one stays below 2^63, as
    // the halves do below 2^127); the split it takes is asserted.
    let (a, b, ones) = (0xdead_beef_cafe_f00d_u128, 0xdead_beef_u128, u128::from(u64::MAX));
    let word = |k: u128| U256::from(k);
    let plus_lambda =
        |k1: u128, k2: u128| word(k1).add_mod(word(k2).mul_mod(secp::LAMBDA, secp::N), secp::N);
    let pieces = [
        // Three of four vanish, each in turn the one left.
        (word(a), [(false, a), (false, 0)]),
        (word(b << 64), [(false, b << 64), (false, 0)]),
        (plus_lambda(0, a), [(false, 0), (false, a)]),
        (plus_lambda(0, b << 64), [(false, 0), (false, b << 64)]),
        // All four coincide.
        (plus_lambda(b | b << 64, b | b << 64), [(false, b | b << 64); 2]),
        // Carries: one low piece, both, and beside a high piece.
        (word(ones), [(false, ones), (false, 0)]),
        (plus_lambda(ones, ones), [(false, ones); 2]),
        (plus_lambda(ones | b << 64, a), [(false, ones | b << 64), (false, a)]),
        // Negative halves.
        (minus(word(a)), [(true, a), (false, 0)]),
        (word(a).add_mod(minus(plus_lambda(0, b << 64)), secp::N), [(false, a), (true, b << 64)]),
    ];
    let pow64 = U256::ONE.shl_word(64);
    for d in [U256::ONE, secp::LAMBDA, pow64].into_iter().flat_map(|d| [d, minus(d)]) {
        let q = SecretKey::from_scalar(d).unwrap().public_key();
        let prepared = VerifyingKey::new(q);
        for (i, &(u2, halves)) in pieces.iter().enumerate() {
            assert_eq!(secp::split_scalar(u2), halves, "u₂ {i}");
            // The sum is (u₁ + u₂·d)·G. Take u₁ so that it is a nonce point
            // (accepted), the point at infinity (the last comb entry cancels
            // the accumulator: rejected), or twice the last comb entry (it
            // meets an accumulator equal to itself and must double).
            let u2d = u2.mul_mod(d, secp::N);
            let nonce = U256::from(0x5eed_u64 + i as u64);
            let doubling =
                comb_doubling(u2d).expect("a pattern of the last block's teeth recodes to itself");
            let sums = [
                (nonce.add_mod(minus(u2d), secp::N), Some(nonce)),
                (minus(u2d), None),
                (doubling, Some(doubling.add_mod(u2d, secp::N))),
            ];
            let u2_inv = oracle_inv_n(u2);
            for (u1, sum) in sums {
                let (r, _) = r_and_v(oracle_mul(sum.unwrap_or(nonce), gen));
                let s = r.mul_mod(u2_inv, secp::N);
                let z = u1.mul_mod(s, secp::N);
                let (digest, sig) = (B256::new(z.to_be_bytes()), secp::Signature { r, s, v: 0 });
                let expected = sum.map(|_| ()).ok_or(secp::EcdsaError::BadSignature);
                assert_eq!(prepared.verify(&digest, &sig), expected, "d = {d:x}, u₂ {i}, u₁ = {u1:x}");
                assert_eq!(q.verify(&digest, &sig), expected, "d = {d:x}, u₂ {i}, u₁ = {u1:x}");
                assert_eq!(oracle_accepts(q.point(), z, &sig), expected.is_ok());
            }
        }
    }
}

#[test]
fn verifying_key_decides_as_public_key_verify() {
    check("verifying_key_decides_as_public_key_verify", CASES, |g| {
        let sk = SecretKey::from_seed(&g.array::<8>());
        let (key, tenant) = (sk.public_key(), SecretKey::from_seed(&g.array::<8>()).public_key());
        let (prepared, prepared_tenant) = (VerifyingKey::new(key), VerifyingKey::new(tenant));
        assert_eq!(prepared.public_key(), key);
        let digest = keccak256(g.bytes(0, 64));
        let sig = sk.sign(&digest);
        let bit = U256::ONE.shl_word(g.below(256) as u32);
        let cases = [
            (digest, sig),
            (digest, secp::Signature { s: secp::N.wrapping_sub(sig.s), v: sig.v ^ 1, ..sig }),
            (digest, secp::Signature { r: sig.r ^ bit, ..sig }),
            (digest, secp::Signature { s: sig.s ^ bit, ..sig }),
            (B256::new((digest.into_u256() ^ bit).to_be_bytes()), sig),
        ];
        for (i, (digest, sig)) in cases.iter().enumerate() {
            assert_eq!(prepared.verify(digest, sig), key.verify(digest, sig), "case {i}");
            assert_eq!(prepared_tenant.verify(digest, sig), tenant.verify(digest, sig), "case {i}");
        }
        assert_eq!(prepared.verify(&digest, &sig), Ok(()));
        if tenant != key {
            assert_eq!(prepared_tenant.verify(&digest, &sig), Err(secp::EcdsaError::BadSignature));
        }

        // r + n: the nonce point's x lies in [n, p), so r = x − n. With
        // R = lift_x(n + r), Q = r⁻¹(s·R − z·G) is the key the signature
        // verifies under. p − n > 2^128, so any 128-bit r qualifies.
        let r = U256::from(g.u128()).max(U256::ONE);
        let Some(r_point) = secp::Point::lift_x(secp::N.wrapping_add(r), g.below(2) == 1) else {
            return;
        };
        let [s, z] = [scalar(g), scalar(g)].map(|k| k.rem_evm(secp::N).max(U256::ONE));
        let q = ec_oracle::mul_add(s, r_point, minus(z), secp::Point::GENERATOR);
        let Ok(key) = secp::PublicKey::from_point(oracle_mul(oracle_inv_n(r), q)) else {
            return;
        };
        let (digest, sig) = (B256::new(z.to_be_bytes()), secp::Signature { r, s, v: 0 });
        assert_eq!(key.verify(&digest, &sig), Ok(()));
        assert_eq!(VerifyingKey::new(key).verify(&digest, &sig), Ok(()));
    });
}

/// The sum `k₁ + k₂·λ (mod n)` of a split, halves given as (negative?,
/// magnitude).
fn recompose([k1, k2]: [(bool, u128); 2]) -> U256 {
    let signed = |(negative, magnitude): (bool, u128)| {
        let m = U256::from(magnitude);
        if negative && magnitude != 0 { secp::N.wrapping_sub(m) } else { m }
    };
    signed(k1).add_mod(signed(k2).mul_mod(secp::LAMBDA, secp::N), secp::N)
}

#[test]
fn glv_split_recomposes_with_128_bit_halves() {
    // The halves are `u128`s, so "both below 2^128" holds by type as long
    // as nothing was truncated — which recomposing detects (and
    // `split_scalar` itself asserts in debug builds).
    let pow128 = U256::ONE.shl_word(128);
    let small = U256::from(0xdead_beefu64);
    let edges = [
        U256::ZERO,
        U256::ONE,
        minus(U256::ONE),
        secp::LAMBDA,
        minus(secp::LAMBDA),
        pow128.wrapping_sub(U256::ONE),
        pow128.wrapping_add(U256::ONE),
        // k₂ = 0 and k₁ = 0.
        small,
        small.mul_mod(secp::LAMBDA, secp::N),
        minus(small.mul_mod(secp::LAMBDA, secp::N)),
    ];
    for k in edges {
        assert_eq!(recompose(secp::split_scalar(k)), k, "k = {k:x}");
    }
    assert_eq!(secp::split_scalar(small), [(false, 0xdead_beef), (false, 0)]);
    assert_eq!(
        secp::split_scalar(small.mul_mod(secp::LAMBDA, secp::N)),
        [(false, 0), (false, 0xdead_beef)]
    );
    check("glv_split_recomposes_with_128_bit_halves", 512, |g| {
        let k = scalar(g).rem_evm(secp::N);
        assert_eq!(recompose(secp::split_scalar(k)), k);
    });
}

/// Asserts `wnaf(k)`'s contract: the digits sum back to `k`, every
/// non-zero one is odd and below 16 in magnitude, and any five
/// consecutive positions hold at most one.
fn assert_wnaf(k: u128) {
    let digits = secp::wnaf(k);
    let (mut plus, mut minus) = (U256::ZERO, U256::ZERO);
    for (i, &d) in digits.iter().enumerate() {
        let term = U256::from(u64::from(d.unsigned_abs())).shl_word(i as u32);
        if d < 0 {
            minus = minus.wrapping_add(term);
        } else {
            plus = plus.wrapping_add(term);
        }
        assert!(d == 0 || (d % 2 != 0 && d.abs() < 16), "digit {d} at {i} of {k:x}");
    }
    assert_eq!(plus.wrapping_sub(minus), U256::from(k), "k = {k:x}");
    for window in digits.windows(5) {
        assert!(window.iter().filter(|&&d| d != 0).count() <= 1, "k = {k:x}");
    }
}

#[test]
fn wnaf_digits_recompose_and_are_sparse() {
    // u128::MAX is the carry case: −1 at the bottom, +1 in digit 128.
    let max = secp::wnaf(u128::MAX);
    assert_eq!((max[0], max[128]), (-1, 1));
    assert_eq!(max.iter().filter(|&&d| d != 0).count(), 2);
    assert_eq!(secp::wnaf(0), [0; 129]);
    for k in [0, 1, 2, 15, 16, 17, 31, 32, 33, 1 << 127, (1 << 127) - 1, u128::MAX - 1, u128::MAX] {
        assert_wnaf(k);
    }
    check("wnaf_digits_recompose_and_are_sparse", 512, |g| {
        // Uniform values, then runs of ones and zeros (long carries).
        assert_wnaf(g.u128());
        assert_wnaf(g.u128() | g.u128() | g.u128());
        assert_wnaf(g.u128() & g.u128() & g.u128());
        assert_wnaf(u128::MAX << g.below(128) >> g.below(128));
    });
}

#[test]
fn endomorphism_is_multiplication_by_lambda() {
    let phi = |p: secp::Point| match p {
        secp::Point::Affine { x, y } => secp::Point::Affine { x: x.mul_mod(secp::BETA, secp::P), y },
        secp::Point::Infinity => p,
    };
    let gen = secp::Point::GENERATOR;
    assert_eq!(phi(gen), oracle_mul(secp::LAMBDA, gen));
    check("endomorphism_is_multiplication_by_lambda", CASES, |g| {
        let p = oracle_mul(scalar(g), gen);
        assert_eq!(phi(p), oracle_mul(secp::LAMBDA, p));
        assert_eq!(phi(p), p.mul(secp::LAMBDA));
        assert_eq!(phi(phi(phi(p))), p);
    });
}

/// `⌊(b·2^384 + n/2) / n⌋` by binary long division.
fn rounded_quotient_shifted_384(b: U256) -> U256 {
    let half = secp::N.shr_word(1).into_limbs();
    let [b0, b1, ..] = b.into_limbs();
    let numerator = [half[0], half[1], half[2], half[3], 0, 0, b0, b1];
    let (mut quotient, mut rem) = (U256::ZERO, U256::ZERO);
    for i in (0..512).rev() {
        let carry = rem.bit(255);
        rem = rem.shl_word(1) | U256::from(numerator[i / 64] >> (i % 64) & 1);
        quotient = quotient.shl_word(1);
        if carry || rem >= secp::N {
            rem = rem.wrapping_sub(secp::N);
            quotient |= U256::ONE;
        }
    }
    quotient
}

#[test]
fn glv_constants_rederive_from_p_and_n() {
    // λ and β: the primitive cube roots of unity are h^((m−1)/3) and its
    // square for any non-cube h; 2 is one mod both p and n.
    for (m, root) in [(secp::P, secp::BETA), (secp::N, secp::LAMBDA)] {
        let third = m.wrapping_sub(U256::ONE).div_evm(U256::from(3u64));
        let c = ec_oracle::pow(U256::from(2u64), third, m);
        assert_ne!(c, U256::ONE);
        assert_eq!(c.mul_mod(c, m).mul_mod(c, m), U256::ONE);
        assert!(root == c || root == c.mul_mod(c, m), "{root:x} is not a cube root of unity");
    }
    // … and of the four ways to pair them, λ goes with β.
    let secp::Point::Affine { x, y } = secp::Point::GENERATOR else { unreachable!() };
    let gen = secp::Point::GENERATOR;
    assert_eq!(
        oracle_mul(secp::LAMBDA, gen),
        secp::Point::Affine { x: x.mul_mod(secp::BETA, secp::P), y }
    );

    // The basis (Gallant–Lambert–Vanstone, algorithm 3.74 in Hankerson–
    // Menezes–Vanstone): the extended Euclidean algorithm on (n, λ) yields
    // rᵢ = sᵢ·n + tᵢ·λ, so every (rᵢ, −tᵢ) is in the lattice; with l the
    // last index where rₗ ≥ √n, take (rₗ₊₁, −tₗ₊₁) and the shorter of its
    // two neighbours. |tᵢ| is tracked; tᵢ is positive exactly at odd i.
    let (mut r, mut t) = (vec![secp::N, secp::LAMBDA], vec![U256::ZERO, U256::ONE]);
    while !r[r.len() - 1].is_zero() {
        let (a, b) = (r[r.len() - 2], r[r.len() - 1]);
        r.push(a.rem_evm(b));
        t.push(t[t.len() - 2].wrapping_add(a.div_evm(b).wrapping_mul(t[t.len() - 1])));
    }
    let l = r.iter().rposition(|&ri| ri >= secp::N.isqrt()).expect("r₀ = n");
    // (a₁, b₁) = (rₗ₊₁, −tₗ₊₁) with l + 1 odd: b₁ is negative.
    assert_eq!(l % 2, 0);
    assert_eq!((r[l + 1], t[l + 1]), (secp::B2, secp::MINUS_B1));
    // (a₂, b₂) = (rₗ, −tₗ) — shorter than (rₗ₊₂, −tₗ₊₂) in either norm —
    // with l even: b₂ = |tₗ| is positive, and equals a₁.
    assert!(r[l].max(t[l]) < r[l + 2].max(t[l + 2]));
    assert_eq!(format!("{:x}", r[l]), "114ca50f7a8e2f3f657c1108d9d44cfd8");
    assert_eq!(t[l], secp::B2);
    // Both vectors are in the lattice: a + b·λ ≡ 0 (mod n).
    let times_lambda = |b: U256| b.mul_mod(secp::LAMBDA, secp::N);
    assert_eq!(secp::B2, times_lambda(secp::MINUS_B1));
    assert_eq!(r[l].add_mod(times_lambda(secp::B2), secp::N), U256::ZERO);

    // The rounding constants are the two quotients they stand for.
    assert_eq!(rounded_quotient_shifted_384(secp::B2), secp::G1);
    assert_eq!(rounded_quotient_shifted_384(secp::MINUS_B1), secp::G2);
}

#[test]
fn inv_mod_matches_fermat() {
    for m in [secp::P, secp::N] {
        let fermat = |a: U256| ec_oracle::pow(a, m.wrapping_sub(U256::from(2u64)), m);
        let half_up = m.shr_word(1).wrapping_add(U256::ONE);
        for a in [U256::ONE, U256::from(2u64), m.wrapping_sub(U256::ONE), half_up] {
            assert_eq!(secp::inv_mod(a, m), fermat(a), "a = {a:x}");
        }
        assert_eq!(secp::inv_mod(half_up, m), U256::from(2u64));
        // Zero has no inverse; like a^(m−2), the gcd answers zero.
        assert_eq!(secp::inv_mod(U256::ZERO, m), U256::ZERO);
        assert_eq!(fermat(U256::ZERO), U256::ZERO);
        check("inv_mod_matches_fermat", 512, |g| {
            // Full-width values, and short ones (few batches, early exit).
            let a = scalar(g).rem_evm(m);
            assert_eq!(secp::inv_mod(a, m), fermat(a), "a = {a:x}");
            let short = a.shr_word(g.below(256) as u32).max(U256::ONE);
            assert_eq!(secp::inv_mod(short, m).mul_mod(short, m), U256::ONE, "a = {short:x}");
        });
    }
}

#[test]
fn every_decoder_refuses_off_curve_coordinates() {
    // `Point::mul`'s endomorphism split is only `k·P` on the curve itself;
    // these are all the ways bytes become a `Point` or a `PublicKey`.
    use secp::{Point, PublicKey};
    let encode = |x: U256, y: U256| {
        let mut bytes = [4u8; 65];
        bytes[1..33].copy_from_slice(&x.to_be_bytes());
        bytes[33..].copy_from_slice(&y.to_be_bytes());
        bytes
    };
    let refused = |x: U256, y: U256| {
        assert!(!Point::Affine { x, y }.is_on_curve());
        assert_eq!(Point::from_uncompressed(&encode(x, y)), Err(secp::EcdsaError::InvalidPoint));
        assert_eq!(PublicKey::from_bytes(&encode(x, y)), Err(secp::EcdsaError::InvalidPoint));
        assert_eq!(
            PublicKey::from_point(Point::Affine { x, y }),
            Err(secp::EcdsaError::InvalidPoint)
        );
    };
    assert_eq!(PublicKey::from_point(Point::Infinity), Err(secp::EcdsaError::InvalidPoint));
    // (1, √8) is on the curve; the same point with a coordinate written
    // as its residue plus p is not a canonical encoding of it.
    let Some(Point::Affine { x: one, y }) = Point::lift_x(U256::ONE, false) else {
        panic!("x = 1 is on the curve")
    };
    assert!(Point::from_uncompressed(&encode(one, y)).is_ok());
    refused(secp::P.wrapping_add(U256::ONE), y);
    assert_eq!(Point::lift_x(secp::P.wrapping_add(U256::ONE), false), None);
    assert_eq!(Point::lift_x(secp::P, false), None);
    refused(U256::ZERO, U256::ZERO);
    check("every_decoder_refuses_off_curve_coordinates", CASES, |g| {
        // Arbitrary coordinates are off the curve (1 in 2^256 is not).
        refused(scalar(g), scalar(g));
        // One flipped bit anywhere in a valid encoding takes it off.
        let key = SecretKey::from_seed(&g.array::<8>()).public_key();
        let mut bytes = key.to_bytes();
        assert_eq!(PublicKey::from_bytes(&bytes), Ok(key));
        bytes[1 + g.index(64)] ^= 1 << g.below(8);
        assert_eq!(PublicKey::from_bytes(&bytes), Err(secp::EcdsaError::InvalidPoint));
        assert_eq!(Point::from_uncompressed(&bytes), Err(secp::EcdsaError::InvalidPoint));
        // lift_x answers with a point on the curve, of the parity asked
        // for, or not at all — about half of all x have no y.
        let (x, odd) = (scalar(g), g.bool());
        match Point::lift_x(x, odd) {
            Some(p @ Point::Affine { y, .. }) => assert!(p.is_on_curve() && y.bit(0) == odd),
            Some(Point::Infinity) => panic!("lift_x never returns infinity"),
            None => assert!(!Point::Affine { x, y: U256::ONE }.is_on_curve()),
        }
    });
}

#[test]
fn recover_with_flipped_v_never_names_the_signer() {
    check("recover_with_flipped_v_never_names_the_signer", CASES, |g| {
        let sk = SecretKey::from_seed(&g.array::<8>());
        let digest = keccak256(g.bytes(0, 64));
        let sig = sk.sign(&digest);
        let flipped = secp::Signature { v: sig.v ^ 1, ..sig };
        assert_ne!(secp::recover(&digest, &flipped), Ok(sk.public_key()));
        // Recovery from the mirrored form needs the mirrored parity.
        let mirrored = secp::Signature { s: secp::N.wrapping_sub(sig.s), v: sig.v ^ 1, ..sig };
        assert_eq!(secp::recover(&digest, &mirrored), Ok(sk.public_key()));
    });
}

#[test]
fn ecdh_symmetric() {
    check("ecdh_symmetric", CASES, |g| {
        let a = SecretKey::from_seed(&g.array::<8>());
        let b = SecretKey::from_seed(&g.array::<8>());
        assert_eq!(
            secp::ecdh(&a, &b.public_key()).unwrap(),
            secp::ecdh(&b, &a.public_key()).unwrap()
        );
    });
}

#[test]
fn scalar_mult_distributes() {
    check("scalar_mult_distributes", CASES, |g| {
        let (k1, k2) = (g.u64(), g.u64());
        // (k1 + k2)·G == k1·G + k2·G
        let gen = secp::Point::GENERATOR;
        let lhs = gen.mul(U256::from(k1).wrapping_add(U256::from(k2)));
        let rhs = gen.mul(U256::from(k1)).add(gen.mul(U256::from(k2)));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn rng_streams_disjoint() {
    check("rng_streams_disjoint", CASES, |g| {
        let seed: [u8; 8] = g.array();
        let mut rng = SecureRng::from_seed(&seed);
        let first: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let second: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert_ne!(first, second);
    });
}

#[test]
fn sha256_deterministic() {
    check("sha256_deterministic", CASES, |g| {
        let data = g.bytes(0, 128);
        assert_eq!(tape_crypto::sha256(&data), tape_crypto::sha256(&data));
    });
}

#[test]
fn eth_address_known_vector() {
    // A key of 1 has the well-known generator public key; its Ethereum
    // address is a fixed constant used across many tools.
    let sk = SecretKey::from_scalar(U256::ONE).unwrap();
    let addr = sk.public_key().to_eth_address();
    assert_eq!(
        format!("{addr}"),
        "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    );
}

#[test]
fn b256_zero_hash_distinct_from_hash_of_zeroes() {
    assert_ne!(keccak256([0u8; 32]), B256::ZERO);
}

/// The soak: every public secp256k1 operation against the oracle, on
/// arbitrary keys, digests and scalars; `verify` both one-shot and off a
/// prepared `VerifyingKey`.
#[test]
#[ignore = "long; scripts/verify.sh --soak runs it in release"]
fn ecdsa_differential_soak() {
    const SOAK_CASES: u32 = 4096;
    let gen = secp::Point::GENERATOR;
    // A quarter of the scalars come from the multi-comb's edge classes.
    let edges = comb_edges();
    let draw = |g: &mut Gen| if g.below(4) == 0 { edges[g.index(edges.len())] } else { scalar(g) };
    check("ecdsa_differential_soak", SOAK_CASES, |g| {
        let (d, e) = (draw(g).rem_evm(secp::N).max(U256::ONE), draw(g));
        let (sk, pk) = (SecretKey::from_scalar(d).unwrap(), oracle_mul(d, gen));
        assert_eq!(sk.public_key().point(), pk);
        // mul and ecdh: an arbitrary scalar on an arbitrary point.
        assert_eq!(pk.mul(e), oracle_mul(e, pk));
        let peer = SecretKey::from_scalar(e.rem_evm(secp::N).max(U256::ONE)).unwrap();
        let secp::Point::Affine { x, .. } = oracle_mul(d, peer.public_key().point()) else {
            unreachable!("d < n and the peer's key is finite")
        };
        assert_eq!(secp::ecdh(&sk, &peer.public_key()), Ok(keccak256(x.to_be_bytes())));
        // sign → verify and recover, then the same with one value moved.
        let digest = B256::new(g.array());
        let z = digest.into_u256().rem_evm(secp::N);
        let sig = sk.sign(&digest);
        assert!(oracle_accepts(pk, z, &sig));
        assert_eq!(sk.public_key().verify(&digest, &sig), Ok(()));
        let prepared = VerifyingKey::new(sk.public_key());
        assert_eq!(prepared.verify(&digest, &sig), Ok(()));
        assert_eq!(secp::recover(&digest, &sig).map(|q| q.point()), Ok(pk));
        let bit = U256::ONE.shl_word(g.below(256) as u32);
        let moved = match g.below(3) {
            0 => secp::Signature { r: sig.r ^ bit, ..sig },
            1 => secp::Signature { s: sig.s ^ bit, ..sig },
            _ => secp::Signature { v: sig.v ^ 1, ..sig },
        };
        if moved.r.is_zero() || moved.r >= secp::N || moved.s.is_zero() || moved.s >= secp::N {
            assert_eq!(secp::recover(&digest, &moved), Err(secp::EcdsaError::InvalidScalar));
            assert_eq!(prepared.verify(&digest, &moved), Err(secp::EcdsaError::InvalidScalar));
            return;
        }
        let accepted = sk.public_key().verify(&digest, &moved).is_ok();
        assert_eq!(accepted, oracle_accepts(pk, z, &moved));
        assert_eq!(prepared.verify(&digest, &moved).is_ok(), accepted);
        let expected = secp::Point::lift_x(moved.r, moved.v == 1)
            .and_then(|r_point| oracle_recovers(r_point, z, &moved));
        assert_eq!(secp::recover(&digest, &moved).ok().map(|q| q.point()), expected);
    });
    println!("ECDSA_SOAK cases={SOAK_CASES} ok");
}
