//! secp256k1 elliptic-curve arithmetic, ECDSA, and ECDH.
//!
//! Used for the attestation chain of trust, session-key signatures, and
//! the Diffie-Hellman key exchange that establishes the AES session key
//! (paper §IV-A), as well as the `ecrecover` EVM precompile.
//!
//! Nonces are derived deterministically (hash of secret key, message, and
//! a retry counter) in the spirit of RFC 6979: no signing randomness is
//! required, which matches the paper's "secure source of randomness is
//! only used for ORAM/pager noise" budget.

use crate::keccak::keccak256;
use core::fmt;
use std::sync::OnceLock;
use tape_primitives::{B256, U256};

/// The field prime `p = 2^256 - 2^32 - 977`.
pub const P: U256 = U256::from_limbs([
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
]);

/// The group order `n`.
pub const N: U256 = U256::from_limbs([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

const GX: U256 = U256::from_limbs([
    0x59f2_815b_16f8_1798,
    0x029b_fcdb_2dce_28d9,
    0x55a0_6295_ce87_0b07,
    0x79be_667e_f9dc_bbac,
]);

const GY: U256 = U256::from_limbs([
    0x9c47_d08f_fb10_d4b8,
    0xfd17_b448_a685_5419,
    0x5da4_fbfc_0e11_08a8,
    0x483a_da77_26a3_c465,
]);

/// A primitive cube root of unity mod `n`: secp256k1's endomorphism
/// `φ(x, y) = (β·x, y)` is multiplication by `λ` on the curve's group.
pub const LAMBDA: U256 = U256::from_limbs([
    0xdf02_967c_1b23_bd72,
    0x122e_22ea_2081_6678,
    0xa526_1c02_8812_645a,
    0x5363_ad4c_c05c_30e0,
]);

/// The cube root of unity mod `p` that pairs with [`LAMBDA`].
pub const BETA: U256 = U256::from_limbs([
    0xc139_6c28_7195_01ee,
    0x9cf0_4975_12f5_8995,
    0x6e64_479e_ac34_34e9,
    0x7ae9_6a2b_657c_0710,
]);

/// `−b₁` and `b₂` of the reduced basis `(a₁, b₁), (a₂, b₂)` of the lattice
/// `{(x, y) : x + y·λ ≡ 0 (mod n)}` (`a₁ = b₂`; `a₂` is never needed).
pub const MINUS_B1: U256 = U256::from_limbs([0x6f54_7fa9_0abf_e4c3, 0xe443_7ed6_010e_8828, 0, 0]);
/// See [`MINUS_B1`].
pub const B2: U256 = U256::from_limbs([0xe86c_90e4_9284_eb15, 0x3086_d221_a7d4_6bcd, 0, 0]);

/// `round(2^384·b₂ / n)` and `round(2^384·(−b₁) / n)`: with them the two
/// divisions by `n` in [`split_scalar`] are a multiplication and a shift.
pub const G1: U256 = U256::from_limbs([
    0xe893_209a_45db_b031,
    0x3daa_8a14_71e8_ca7f,
    0xe86c_90e4_9284_eb15,
    0x3086_d221_a7d4_6bcd,
]);
/// See [`G1`].
pub const G2: U256 = U256::from_limbs([
    0x1571_b4ae_8ac4_7f71,
    0x2212_08ac_9df5_06c6,
    0x6f54_7fa9_0abf_e4c4,
    0xe443_7ed6_010e_8828,
]);

/// Arithmetic modulo `m = 2^256 − c` with `c` held in `L` limbs. Both of
/// the curve's moduli have this special form, so a 512-bit product is
/// reduced by folding its high half back in as `hi·c` — no division.
/// Operands and results are fully reduced, and no operation branches on
/// their values: each picks between candidates by a mask.
struct Field<const L: usize> {
    m: U256,
    c: [u64; L],
    /// How many limbs above the low four each of `mul`'s folds takes; the
    /// last leaves at most a carry out of bit 256.
    folds: &'static [usize],
}

/// The coordinate field: `c = 2^32 + 977`. A product is below 2^512;
/// folding its four high limbs leaves `lo + hi·c < 2^290`, and folding
/// the fifth limb leaves below `2^256 + 2^67`.
const FP: Field<1> = Field { m: P, c: [0x1_0000_03d1], folds: &[4, 1] };

/// The scalar field: `c = 2^256 − n ≈ 2^128.1`. The folds leave below
/// 2^386 (three high limbs), 2^261 (one limb) and `2^256 + 2^133`.
const FN: Field<3> =
    Field { m: N, c: [0x402d_a173_2fc9_bebf, 0x4551_2319_50b7_5fc4, 1], folds: &[4, 3, 1] };

/// `a` where `mask` is all ones, `b` where it is zero.
#[inline]
fn select(mask: u64, a: U256, b: U256) -> U256 {
    let (a, mut out) = (a.into_limbs(), b.into_limbs());
    for (out, a) in out.iter_mut().zip(a) {
        *out ^= (a ^ *out) & mask;
    }
    U256::from_limbs(out)
}

/// All ones for `true`, zero for `false`.
#[inline]
fn mask(flag: bool) -> u64 {
    0u64.wrapping_sub(u64::from(flag))
}

impl<const L: usize> Field<L> {
    /// `c & mask` as a `U256`: `c` or zero.
    #[inline]
    fn c_masked(&self, mask: u64) -> U256 {
        let mut limbs = [0; 4];
        for (limb, c) in limbs.iter_mut().zip(self.c) {
            *limb = c & mask;
        }
        U256::from_limbs(limbs)
    }

    /// `carry·2^256 + a`, known to be below `2m`, reduced below `m`. It is
    /// at least `m` exactly when it carries out of bit 256 or `a + c` does,
    /// and then `a + c mod 2^256` is its difference with `m`.
    #[inline]
    fn reduce_once(&self, a: U256, carry: bool) -> U256 {
        let (diff, over) = a.overflowing_add(self.c_masked(u64::MAX));
        select(mask(carry | over), diff, a)
    }

    #[inline]
    fn add(&self, a: U256, b: U256) -> U256 {
        let (sum, carry) = a.overflowing_add(b);
        self.reduce_once(sum, carry)
    }

    #[inline]
    fn sub(&self, a: U256, b: U256) -> U256 {
        // A borrow leaves a − b + 2^256; adding m is subtracting c.
        let (diff, borrow) = a.overflowing_sub(b);
        diff.wrapping_sub(self.c_masked(mask(borrow)))
    }

    #[inline]
    fn mul(&self, a: U256, b: U256) -> U256 {
        let mut w = a.mul_wide(b);
        // 2^256 ≡ c, so lo + hi·2^256 ≡ lo + hi·c: each fold moves the
        // `high` limbs above the low four down as their product with c.
        for &high in self.folds {
            let mut hi_c = [0u64; 8];
            for i in 0..high {
                let mut carry = 0u128;
                for j in 0..L {
                    let acc = w[4 + i] as u128 * self.c[j] as u128 + hi_c[i + j] as u128 + carry;
                    hi_c[i + j] = acc as u64;
                    carry = acc >> 64;
                }
                hi_c[i + L] = carry as u64;
            }
            let mut carry = 0u128;
            for (k, limb) in w.iter_mut().enumerate() {
                let lo = if k < 4 { *limb } else { 0 };
                let acc = lo as u128 + hi_c[k] as u128 + carry;
                *limb = acc as u64;
                carry = acc >> 64;
            }
        }
        debug_assert!(w[4] <= 1 && w[5..] == [0; 3], "folds left a high half");
        // What is left is below 2^256 + 2^133 < 2m.
        self.reduce_once(U256::from_limbs([w[0], w[1], w[2], w[3]]), w[4] != 0)
    }

    #[inline]
    fn sqr(&self, a: U256) -> U256 {
        self.mul(a, a)
    }

    /// Exponentiation by squaring; what is left of it is the square root.
    fn pow(&self, mut base: U256, exp: U256) -> U256 {
        let mut result = U256::ONE;
        for i in 0..exp.bits() {
            if exp.bit(i as usize) {
                result = self.mul(result, base);
            }
            base = self.sqr(base);
        }
        result
    }

    #[inline]
    fn inv(&self, a: U256) -> U256 {
        inv_mod(a, self.m)
    }
}

/// The low 62 bits of a word.
const M62: u64 = u64::MAX >> 2;

/// A signed integer below 2^310 in magnitude as five 62-bit limbs, least
/// significant first: the top limb carries the sign, the others lie in
/// `[0, 2^62)`. Sums of a few limb products fit an `i128` with room left.
type Signed62 = [i64; 5];

fn to_signed62(a: U256) -> Signed62 {
    let [a0, a1, a2, a3] = a.into_limbs();
    [a0, a0 >> 62 | a1 << 2, a1 >> 60 | a2 << 4, a2 >> 58 | a3 << 6, a3 >> 56]
        .map(|limb| (limb & M62) as i64)
}

/// 62 division steps (Bernstein–Yang, "Fast constant-time gcd computation
/// and modular inversion", run in variable time) on the low words of `f`
/// (odd) and `g`. A step halves `g` if it is even; otherwise it first
/// swaps `(f, g) ← (g, −f)` when `delta > 0`, then replaces `g` by
/// `(g + f)/2`. Only the low 62 bits of either operand can influence 62
/// steps, so the batch runs on machine words and returns the new `delta`
/// with the matrix `[u, v, q, r]` for the full-width update:
/// `2^62·(f′, g′) = (u·f + v·g, q·f + r·g)`, `|u| + |v|, |q| + |r| ≤ 2^62`.
fn divsteps_62(mut delta: i64, mut f: u64, mut g: u64) -> (i64, [i64; 4]) {
    let (mut u, mut v, mut q, mut r) = (1i64, 0i64, 0i64, 1i64);
    let mut left = 62;
    loop {
        // Every trailing zero of g is a step that only halves it; the
        // sentinel bit stops the count at the end of the batch. Doubling
        // f's row instead keeps the matrix integral.
        let zeros = (g | u64::MAX << left).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        delta += i64::from(zeros);
        left -= zeros;
        if left == 0 {
            return (delta, [u, v, q, r]);
        }
        if delta > 0 {
            delta = -delta;
            (f, g) = (g, f.wrapping_neg());
            (u, v, q, r) = (q, r, -u, -v);
        }
        // Add the multiple w of f that clears g's low `limit` bits, as
        // many as the next steps would clear one by one before delta
        // turns positive again. f is its own inverse mod 8; one Newton
        // round makes that six bits.
        let limit = (1 - delta).min(i64::from(left)).min(6);
        let minus_f_inv = f.wrapping_mul(f).wrapping_sub(2).wrapping_mul(f);
        let w = (minus_f_inv.wrapping_mul(g) & ((1 << limit) - 1)) as i64;
        g = g.wrapping_add(f.wrapping_mul(w as u64));
        q += u * w;
        r += v * w;
    }
}

/// `(x, y) ← (t·(x, y) + m·(kx, ky)) / 2^62`, where the caller has made
/// sure both numerators end in 62 zero bits.
fn transform(x: &mut Signed62, y: &mut Signed62, t: [i64; 4], m: &Signed62, k: [i64; 2]) {
    let [u, v, q, r, kx, ky] = [t[0], t[1], t[2], t[3], k[0], k[1]].map(i128::from);
    let (mut cx, mut cy) = (0i128, 0i128);
    for i in 0..5 {
        let (xi, yi, mi) = (i128::from(x[i]), i128::from(y[i]), i128::from(m[i]));
        cx += u * xi + v * yi + kx * mi;
        cy += q * xi + r * yi + ky * mi;
        if i > 0 {
            x[i - 1] = (cx as u64 & M62) as i64;
            y[i - 1] = (cy as u64 & M62) as i64;
        }
        cx >>= 62;
        cy >>= 62;
    }
    (x[4], y[4]) = (cx as i64, cy as i64);
}

/// `a⁻¹ mod m` for an odd `m` and an `a < m` coprime to it; `0` for
/// `a = 0`, as `a^(m−2)` would give for a prime `m`.
///
/// A gcd, not an exponentiation: division steps reduce `(f, g) = (m, a)`
/// to `(±1, 0)` in batches of 62 decided on the low words alone, and each
/// batch's 2×2 matrix is applied once to the 256-bit `(f, g)` and once,
/// mod `m`, to the coefficients `(d, e)` that keep `d·a ≡ f` and
/// `e·a ≡ g`. About ten batches for a 256-bit modulus, against the 256
/// squarings and ≈ 250 multiplications of Fermat's exponent. Variable
/// time, like everything else in this module.
pub fn inv_mod(a: U256, m: U256) -> U256 {
    let m62 = to_signed62(m);
    // m⁻¹ mod 2^62 by Newton's iteration: m is its own inverse mod 8, and
    // every round doubles the number of correct low bits.
    let m0 = m.low_u64();
    let m_inv = (0..5).fold(m0, |x, _| x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x))));
    let (mut f, mut g) = (m62, to_signed62(a));
    let (mut d, mut e): (Signed62, Signed62) = ([0; 5], [1, 0, 0, 0, 0]);
    let mut delta = 1;
    while g != [0; 5] {
        let (next, t) = divsteps_62(delta, f[0] as u64, g[0] as u64);
        delta = next;
        // d and e stay in (−2m, m): a negative one first takes its row of
        // the matrix in multiples of m, then each takes the multiple of m
        // below 2^62 that clears the low 62 bits of its numerator.
        let negative = [d[4] >> 63, e[4] >> 63];
        let mut k = [0, 2].map(|row| (t[row] & negative[0]) + (t[row + 1] & negative[1]));
        for (row, k) in k.iter_mut().enumerate() {
            let low = t[2 * row].wrapping_mul(d[0]).wrapping_add(t[2 * row + 1].wrapping_mul(e[0]));
            *k -= (m_inv.wrapping_mul(low as u64).wrapping_add(*k as u64) & M62) as i64;
        }
        transform(&mut d, &mut e, t, &m62, k);
        transform(&mut f, &mut g, t, &m62, [0, 0]);
    }
    // d = hi·2^256 + lo, brought into [0, m) and given f's sign.
    let [d0, d1, d2, d3, d4] = d.map(|limb| limb as u64);
    let limbs = [d0 | d1 << 62, d1 >> 2 | d2 << 60, d2 >> 4 | d3 << 58, d3 >> 6 | d4 << 56];
    let (mut lo, mut hi) = (U256::from_limbs(limbs), d[4] >> 8);
    while hi < 0 {
        let (sum, carry) = lo.overflowing_add(m);
        (lo, hi) = (sum, hi + i64::from(carry));
    }
    if f[4] < 0 && !lo.is_zero() {
        lo = m.wrapping_sub(lo);
    }
    lo
}

/// `x³ + 7`, the right-hand side of the curve equation.
fn curve_rhs(x: U256) -> U256 {
    FP.add(FP.mul(FP.sqr(x), x), U256::from(7u64))
}

/// Square root mod p, valid because `p ≡ 3 (mod 4)`. Returns `None` if the
/// input is not a quadratic residue.
fn fsqrt(a: U256) -> Option<U256> {
    let exp = P.wrapping_add(U256::ONE).shr_word(2);
    let r = FP.pow(a, exp);
    if FP.sqr(r) == a {
        Some(r)
    } else {
        None
    }
}

/// Splits `k < n` as `k ≡ k₁ + k₂·λ (mod n)` with `|k₁|, |k₂| < 2^128`,
/// each half returned as (is negative, magnitude).
///
/// `(k, 0)` minus the lattice vector nearest to it is such a pair, and
/// Babai's rounding finds one near enough: `c₁ = ⌊b₂·k/n⌉`,
/// `c₂ = ⌊−b₁·k/n⌉`, `k₂ = −c₁·b₁ − c₂·b₂`, `k₁ = k − k₂·λ`.
pub fn split_scalar(k: U256) -> [(bool, u128); 2] {
    let round_shift_384 = |g: U256| {
        let w = k.mul_wide(g);
        U256::from((u128::from(w[7]) << 64 | u128::from(w[6])) + u128::from(w[5] >> 63))
    };
    let (c1, c2) = (round_shift_384(G1), round_shift_384(G2));
    let k2 = FN.sub(FN.mul(c1, MINUS_B1), FN.mul(c2, B2));
    let k1 = FN.sub(k, FN.mul(k2, LAMBDA));
    [k1, k2].map(|half| {
        let negative = half.limbs()[3] != 0;
        let magnitude = if negative { N.wrapping_sub(half) } else { half };
        debug_assert_eq!(magnitude.limbs()[2..], [0, 0], "half of {k:x} exceeds 128 bits");
        (negative, magnitude.low_u128())
    })
}

/// The width-5 non-adjacent form of `k`, least significant digit first:
/// `k = Σ dᵢ·2^i` with every non-zero `dᵢ` odd, `|dᵢ| < 16`, and at least
/// four zeros between any two of them — one addition in six doublings on
/// average, off a table of the eight odd multiples. 129 digits, because
/// rounding up can carry out of bit 127.
pub fn wnaf(mut k: u128) -> [i8; 129] {
    let mut digits = [0i8; 129];
    let mut i = 0;
    while k != 0 {
        let zeros = k.trailing_zeros() as usize;
        let low = (k >> zeros) as i8 & 31;
        // A window above 16 stands for `low − 32` and carries one into the
        // bits above it.
        digits[i + zeros] = if low > 16 { low - 32 } else { low };
        k = (k >> zeros >> 5) + u128::from(low > 16);
        i += zeros + 5;
    }
    digits
}

/// A point on secp256k1 in affine coordinates, or the point at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// The identity element.
    Infinity,
    /// An affine point `(x, y)` with `y² = x³ + 7 (mod p)`.
    Affine {
        /// x coordinate
        x: U256,
        /// y coordinate
        y: U256,
    },
}

/// Jacobian coordinates for internal arithmetic (z == 0 encodes infinity).
#[derive(Clone, Copy)]
struct Jacobian {
    x: U256,
    y: U256,
    z: U256,
}

/// The multi-comb for `k·G` (Hamburg, "Fast and compact elliptic-curve
/// cryptography", 2012; the layout of libsecp256k1's `ecmult_gen`): 264
/// scalar bits in 11 blocks of 6 teeth spaced 4 bits apart, so bit
/// `24·b + 4·t + s` is tooth `t` of block `b` at offset `s`.
const COMB_BLOCKS: usize = 11;
const COMB_TEETH: usize = 6;
const COMB_SPACING: usize = 4;
/// One entry for each pattern of a block's lower five teeth; the top
/// tooth's bit picks the entry's sign.
const COMB_ENTRIES: usize = 1 << (COMB_TEETH - 1);

/// `(2^264 − 1) mod n`.
const COMB_OFFSET: U256 =
    U256::from_limbs([0x2da1_732f_c9be_beff, 0x5123_1950_b75f_c440, 0x145, 0]);

/// `(n + 1)/2`, the inverse of 2 mod n.
const HALF: U256 = U256::from_limbs([
    0xdfe9_2f46_681b_20a1,
    0x5d57_6e73_57a4_501d,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
]);

/// `COMB[32·b + j] = Σₜ (2·jₜ − 1)·2^(24·b + 4·t)·G` over the six teeth,
/// with `j₅ = 1`, in affine coordinates: every signed-digit pattern of a
/// block is one entry or its negative. 352 × 64 bytes = 22 KiB, the same
/// for every key, so it lives in one static (zero-initialised `.bss`, not
/// heap) filled on first use.
static COMB: OnceLock<[(U256, U256); COMB_BLOCKS * COMB_ENTRIES]> = OnceLock::new();

fn build_comb() -> [(U256, U256); COMB_BLOCKS * COMB_ENTRIES] {
    let mut entries = [Jacobian::INFINITY; COMB_BLOCKS * COMB_ENTRIES];
    // Each call returns the next tooth, 2^(24·b + 4·t)·G, walking up the
    // doubling chain.
    let mut chain = Jacobian { x: GX, y: GY, z: U256::ONE };
    let mut next_tooth = || {
        let tooth = chain;
        chain = (0..COMB_SPACING).fold(tooth, |p, _| p.double());
        tooth
    };
    for block in entries.chunks_exact_mut(COMB_ENTRIES) {
        // Entry 0 is the top tooth minus the lower five; setting lower
        // tooth t turns its −1 into +1, which adds twice that tooth.
        let mut lower = Jacobian::INFINITY;
        let mut twice = [Jacobian::INFINITY; COMB_TEETH - 1];
        for doubled in &mut twice {
            let tooth = next_tooth();
            lower = lower.add(tooth);
            *doubled = tooth.double();
        }
        block[0] = next_tooth().add(lower.neg());
        for j in 1..COMB_ENTRIES {
            let t = j.ilog2() as usize;
            block[j] = block[j - (1 << t)].add(twice[t]);
        }
    }
    batch_to_affine(&entries)
}

/// Brings points, none of them infinity, to affine coordinates with one
/// shared inversion (Montgomery's trick): invert the product of every z,
/// then peel the z's off it one at a time.
fn batch_to_affine<const K: usize>(points: &[Jacobian; K]) -> [(U256, U256); K] {
    // prefix[i] = z₀·…·zᵢ₋₁
    let mut prefix = [U256::ONE; K];
    for i in 1..K {
        prefix[i] = FP.mul(prefix[i - 1], points[i - 1].z);
    }
    let mut inv = FP.inv(FP.mul(prefix[K - 1], points[K - 1].z));
    let mut affine = [(U256::ZERO, U256::ZERO); K];
    for i in (0..K).rev() {
        let zi = FP.mul(inv, prefix[i]);
        inv = FP.mul(inv, points[i].z);
        let zi2 = FP.sqr(zi);
        affine[i] = (FP.mul(points[i].x, zi2), FP.mul(points[i].y, FP.mul(zi2, zi)));
    }
    affine
}

/// An affine point, negated if `negative`.
#[inline]
fn signed((x, y): (U256, U256), negative: bool) -> (U256, U256) {
    (x, select(mask(negative), FP.sub(U256::ZERO, y), y))
}

impl Jacobian {
    const INFINITY: Jacobian = Jacobian { x: U256::ONE, y: U256::ONE, z: U256::ZERO };

    fn from_affine(p: Point) -> Jacobian {
        match p {
            Point::Infinity => Jacobian::INFINITY,
            Point::Affine { x, y } => Jacobian { x, y, z: U256::ONE },
        }
    }

    fn neg(self) -> Jacobian {
        Jacobian { y: FP.sub(U256::ZERO, self.y), ..self }
    }

    fn to_affine(self) -> Point {
        if self.z.is_zero() {
            return Point::Infinity;
        }
        let zi = FP.inv(self.z);
        let zi2 = FP.sqr(zi);
        Point::Affine { x: FP.mul(self.x, zi2), y: FP.mul(self.y, FP.mul(zi2, zi)) }
    }

    /// a = 0 doubling in 2M + 5S (EFD `dbl-2009-l`).
    fn double(self) -> Jacobian {
        if self.z.is_zero() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let dbl = |v| FP.add(v, v);
        let a = FP.sqr(self.x);
        let b = FP.sqr(self.y);
        let c = FP.sqr(b);
        let d = dbl(FP.sub(FP.sub(FP.sqr(FP.add(self.x, b)), a), c));
        let e = FP.add(dbl(a), a);
        let x3 = FP.sub(FP.sqr(e), dbl(d));
        let y3 = FP.sub(FP.mul(e, FP.sub(d, x3)), dbl(dbl(dbl(c))));
        let z3 = dbl(FP.mul(self.y, self.z));
        Jacobian { x: x3, y: y3, z: z3 }
    }

    fn add(self, other: Jacobian) -> Jacobian {
        if self.z.is_zero() {
            return other;
        }
        if other.z.is_zero() {
            return self;
        }
        let z1z1 = FP.sqr(self.z);
        let z2z2 = FP.sqr(other.z);
        let u1 = FP.mul(self.x, z2z2);
        let u2 = FP.mul(other.x, z1z1);
        let s1 = FP.mul(self.y, FP.mul(z2z2, other.z));
        let s2 = FP.mul(other.y, FP.mul(z1z1, self.z));
        self.add_tail(u1, s1, u2, s2, FP.mul(self.z, other.z))
    }

    /// Mixed addition: the operand is affine (`z = 1`), which saves five
    /// of the general addition's sixteen multiplications.
    fn add_affine(self, (x, y): (U256, U256)) -> Jacobian {
        if self.z.is_zero() {
            return Jacobian { x, y, z: U256::ONE };
        }
        let z1z1 = FP.sqr(self.z);
        let u2 = FP.mul(x, z1z1);
        let s2 = FP.mul(y, FP.mul(z1z1, self.z));
        self.add_tail(self.x, self.y, u2, s2, self.z)
    }

    /// The shared tail of both additions: `self` and the operand brought
    /// to the common denominator as `(u1, s1)` and `(u2, s2)`, `z` the
    /// product of their z coordinates.
    fn add_tail(self, u1: U256, s1: U256, u2: U256, s2: U256, z: U256) -> Jacobian {
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = FP.sub(u2, u1);
        let h2 = FP.sqr(h);
        let h3 = FP.mul(h2, h);
        let r = FP.sub(s2, s1);
        let u1h2 = FP.mul(u1, h2);
        let x3 = FP.sub(FP.sub(FP.sqr(r), h3), FP.add(u1h2, u1h2));
        let y3 = FP.sub(FP.mul(r, FP.sub(u1h2, x3)), FP.mul(s1, h3));
        Jacobian { x: x3, y: y3, z: FP.mul(h, z) }
    }

    /// `{1, 3, …, 15}·self` for a finite `self`; the odd multiples of a
    /// finite point of prime order n are finite.
    fn odd_multiples(self) -> [Jacobian; 8] {
        let twice = self.double();
        let mut odd = [self; 8];
        for j in 1..8 {
            odd[j] = odd[j - 1].add(twice);
        }
        odd
    }

    /// Adds the multi-comb's entries at one offset: with
    /// `b = (k + 2^264 − 1)/2 mod n`, `k ≡ Σᵢ (2·bitᵢ(b) − 1)·2^i`, every
    /// bit is a digit ±1, and a block's six digits at one offset are one
    /// signed table entry times `2^offset`.
    fn add_comb(mut self, comb: &[(U256, U256)], b: U256, offset: usize) -> Jacobian {
        for (block, entries) in comb.chunks_exact(COMB_ENTRIES).enumerate() {
            let first = COMB_TEETH * COMB_SPACING * block + offset;
            let teeth = (0..COMB_TEETH)
                .fold(0, |teeth, t| teeth | usize::from(b.bit(first + COMB_SPACING * t)) << t);
            // A clear top tooth is the negative of the pattern with every
            // tooth flipped.
            let negative = teeth >> (COMB_TEETH - 1) == 0;
            let index = (teeth ^ (mask(negative) as usize)) % COMB_ENTRIES;
            self = self.add_affine(signed(entries[index], negative));
        }
        self
    }

    /// Fixed-base `k·G` for `k < n`: the ladder with no variable terms,
    /// four steps of 11 comb entries each — 44 mixed additions and three
    /// doublings.
    fn mul_g(k: U256) -> Jacobian {
        ladder(COMB_SPACING, &[], Some(k))
    }

    /// Variable-base `k·p + g·G` for `k < n`, `g < n` and a finite `p` on
    /// the curve, where `φ(p) = λ·p`: with `k = k₁ + k₂·λ` the product is
    /// `k₁·p + k₂·φ(p)`, two 128-bit terms of the ladder that share one
    /// affine table of odd multiples, built here for this call.
    fn mul_glv((x, y): (U256, U256), k: U256, g: Option<U256>) -> Jacobian {
        let table = batch_to_affine(&Jacobian { x, y, z: U256::ONE }.odd_multiples());
        let [k1, k2] = split_scalar(k);
        let term = |phi, (negative, half): (bool, u128)| Term {
            table: &table,
            phi,
            negative,
            digits: wnaf(half),
        };
        ladder(129, &[term(false, k1), term(true, k2)], g)
    }
}

/// One scalar of the ladder: its width-5 digits, least significant first,
/// and the table they index, the affine odd multiples `{1, 3, …, 15}·P`
/// of its base. With `phi` the base is `φ(P)`, each entry's image taken
/// as it is used: one multiplication of x by `β`.
struct Term<'a> {
    table: &'a [(U256, U256)],
    phi: bool,
    /// The whole term is negated.
    negative: bool,
    digits: [i8; 129],
}

/// `Σ terms + g·G` (Strauss–Shamir): every term's digits below `steps`
/// share one chain of `steps` doublings, and every addition is mixed. The
/// multi-comb for `g·G` (four offsets, highest first, with a doubling
/// between them) rides the same chain: its offsets are added at the last
/// four steps, so it costs no doublings and no general addition of its
/// own. The only scalar multiplication in this module: [`Jacobian::mul_g`]
/// (no terms), [`Jacobian::mul_glv`] (two 129-digit terms) and
/// [`VerifyingKey::verify`] (four 65-digit ones) all run on it.
fn ladder(steps: usize, terms: &[Term<'_>], g: Option<U256>) -> Jacobian {
    debug_assert!(steps >= COMB_SPACING, "the comb needs the last four steps");
    let comb = g.map(|k| (COMB.get_or_init(build_comb), FN.mul(FN.add(k, COMB_OFFSET), HALF)));
    let mut acc = Jacobian::INFINITY;
    for i in (0..steps).rev() {
        acc = acc.double();
        for term in terms {
            let digit = term.digits[i];
            if digit != 0 {
                let (x, y) = term.table[usize::from(digit.unsigned_abs() / 2)];
                let x = if term.phi { FP.mul(x, BETA) } else { x };
                acc = acc.add_affine(signed((x, y), (digit < 0) != term.negative));
            }
        }
        if let Some((comb, b)) = comb.filter(|_| i < COMB_SPACING) {
            acc = acc.add_comb(comb, b, i);
        }
    }
    acc
}

impl Point {
    /// The generator point `G`.
    pub const GENERATOR: Point = Point::Affine { x: GX, y: GY };

    /// Returns `true` if the point satisfies the curve equation (the point
    /// at infinity counts as on-curve).
    pub fn is_on_curve(&self) -> bool {
        match self {
            Point::Infinity => true,
            Point::Affine { x, y } => *x < P && *y < P && FP.sqr(*y) == curve_rhs(*x),
        }
    }

    /// Scalar multiplication `k·self`.
    ///
    /// `self` must be on the curve: the product is assembled from `self`
    /// and its image under the curve's endomorphism, which is a multiple
    /// of `self` only in the curve's own group. Every decoder in this
    /// module ([`Point::from_uncompressed`], [`Point::lift_x`],
    /// [`PublicKey::from_point`], [`PublicKey::from_bytes`]) refuses
    /// coordinates that are not; a hand-built [`Point::Affine`] is the
    /// caller's to check with [`Point::is_on_curve`].
    // Not `impl Mul`: the operand is a scalar, not another Point, and
    // group operations reading as method calls matches the EC literature.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, k: U256) -> Point {
        debug_assert!(self.is_on_curve(), "scalar multiple of an off-curve point");
        match self {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Jacobian::mul_glv((x, y), k.rem_evm(N), None).to_affine(),
        }
    }

    /// Point addition.
    // Kept as an inherent method alongside `mul` (see above).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Point) -> Point {
        match other {
            Point::Infinity => self,
            Point::Affine { x, y } => Jacobian::from_affine(self).add_affine((x, y)).to_affine(),
        }
    }

    /// SEC1 uncompressed encoding (`0x04 || x || y`); `None` for infinity.
    pub fn to_uncompressed(self) -> Option<[u8; 65]> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, y } => {
                let mut out = [0u8; 65];
                out[0] = 0x04;
                out[1..33].copy_from_slice(&x.to_be_bytes());
                out[33..].copy_from_slice(&y.to_be_bytes());
                Some(out)
            }
        }
    }

    /// Decodes a SEC1 uncompressed encoding.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] if the prefix is wrong or the
    /// coordinates are not on the curve.
    pub fn from_uncompressed(bytes: &[u8; 65]) -> Result<Point, EcdsaError> {
        if bytes[0] != 0x04 {
            return Err(EcdsaError::InvalidPoint);
        }
        let x = U256::from_be_slice(&bytes[1..33]);
        let y = U256::from_be_slice(&bytes[33..]);
        let p = Point::Affine { x, y };
        if !p.is_on_curve() {
            return Err(EcdsaError::InvalidPoint);
        }
        Ok(p)
    }

    /// Lifts an x coordinate onto the curve, choosing the y whose parity
    /// (odd/even) matches `odd`. Returns `None` if x is not on the curve.
    pub fn lift_x(x: U256, odd: bool) -> Option<Point> {
        if x >= P {
            return None;
        }
        let mut y = fsqrt(curve_rhs(x))?;
        if y.bit(0) != odd {
            y = P.wrapping_sub(y);
        }
        Some(Point::Affine { x, y })
    }
}

/// Errors produced by ECDSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdsaError {
    /// A scalar (secret key, `r`, or `s`) was zero or not below `n`.
    InvalidScalar,
    /// A point was malformed or off-curve.
    InvalidPoint,
    /// The signature did not verify.
    BadSignature,
    /// Public-key recovery failed (no valid point for the given `r`/`v`).
    RecoveryFailed,
}

impl fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdsaError::InvalidScalar => write!(f, "scalar out of range"),
            EcdsaError::InvalidPoint => write!(f, "invalid curve point"),
            EcdsaError::BadSignature => write!(f, "signature verification failed"),
            EcdsaError::RecoveryFailed => write!(f, "public key recovery failed"),
        }
    }
}

impl std::error::Error for EcdsaError {}

/// An ECDSA secret key (a scalar in `[1, n-1]`).
#[derive(Clone)]
pub struct SecretKey {
    scalar: U256,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecretKey").field("scalar", &"<redacted>").finish()
    }
}

/// An ECDSA public key (a non-infinity curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    point: Point,
}

/// An ECDSA signature with recovery id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The `r` component.
    pub r: U256,
    /// The `s` component (always normalized to the low half).
    pub s: U256,
    /// Recovery id (0 or 1): parity of the nonce point's y coordinate.
    pub v: u8,
}

impl SecretKey {
    /// Creates a secret key from a scalar.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidScalar`] if the scalar is zero or `>= n`.
    pub fn from_scalar(scalar: U256) -> Result<Self, EcdsaError> {
        if scalar.is_zero() || scalar >= N {
            return Err(EcdsaError::InvalidScalar);
        }
        Ok(SecretKey { scalar })
    }

    /// Derives a secret key from 32 seed bytes by reduction mod `n`
    /// (re-hashing if the reduction lands on zero — astronomically rare).
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut digest = keccak256(seed);
        loop {
            let scalar = digest.into_u256().rem_evm(N);
            if !scalar.is_zero() {
                return SecretKey { scalar };
            }
            digest = keccak256(digest.as_bytes());
        }
    }

    /// Computes the matching public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey { point: Jacobian::mul_g(self.scalar).to_affine() }
    }

    /// Signs a 32-byte message digest, producing a low-s signature with a
    /// recovery id. The nonce is derived deterministically from the key
    /// and digest.
    pub fn sign(&self, digest: &B256) -> Signature {
        let z = digest.into_u256().rem_evm(N);
        let mut counter = 0u64;
        loop {
            // Deterministic nonce: keccak(d || z || counter), reduced mod n.
            let mut material = [0u8; 72];
            material[..32].copy_from_slice(&self.scalar.to_be_bytes());
            material[32..64].copy_from_slice(digest.as_bytes());
            material[64..].copy_from_slice(&counter.to_be_bytes());
            counter += 1;
            let k = keccak256(material).into_u256().rem_evm(N);
            if k.is_zero() {
                continue;
            }
            let Point::Affine { x, y } = Jacobian::mul_g(k).to_affine() else {
                continue;
            };
            let r = x.rem_evm(N);
            if r.is_zero() {
                continue;
            }
            let s = FN.mul(FN.inv(k), FN.add(z, FN.mul(r, self.scalar)));
            if s.is_zero() {
                continue;
            }
            // Normalize to low-s (Ethereum's EIP-2 rule); flipping s flips
            // the recovery parity.
            let mut v = y.bit(0) as u8;
            let half_n = N.shr_word(1);
            let s = if s > half_n {
                v ^= 1;
                N.wrapping_sub(s)
            } else {
                s
            };
            return Signature { r, s, v };
        }
    }
}

impl PublicKey {
    /// Returns the underlying curve point.
    pub fn point(&self) -> Point {
        self.point
    }

    /// Creates a public key from a point.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] for infinity or off-curve points.
    pub fn from_point(point: Point) -> Result<Self, EcdsaError> {
        match point {
            Point::Infinity => Err(EcdsaError::InvalidPoint),
            p if !p.is_on_curve() => Err(EcdsaError::InvalidPoint),
            p => Ok(PublicKey { point: p }),
        }
    }

    /// SEC1 uncompressed encoding.
    pub fn to_bytes(&self) -> [u8; 65] {
        self.point.to_uncompressed().expect("public key is never infinity")
    }

    /// Decodes a SEC1 uncompressed encoding.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] on malformed input.
    pub fn from_bytes(bytes: &[u8; 65]) -> Result<Self, EcdsaError> {
        Self::from_point(Point::from_uncompressed(bytes)?)
    }

    /// The Ethereum address of this key: low 20 bytes of
    /// `keccak256(x || y)`.
    pub fn to_eth_address(&self) -> tape_primitives::Address {
        let bytes = self.to_bytes();
        let digest = keccak256(&bytes[1..]);
        tape_primitives::Address::from_slice(&digest.as_bytes()[12..])
    }

    /// Verifies a signature over a 32-byte digest.
    ///
    /// Like Ethereum's `ecrecover`, both `s` and `n - s` are accepted
    /// (signature malleability): [`SecretKey::sign`] always emits the
    /// low-s form, but verification does not reject the mirrored one.
    /// Nothing in this workspace uses a signature as a unique identifier,
    /// so malleability is harmless here; enforce `s <= n/2` at the call
    /// site if you need EIP-2 strictness.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::BadSignature`] if verification fails, or
    /// [`EcdsaError::InvalidScalar`] if `r`/`s` are out of range.
    pub fn verify(&self, digest: &B256, sig: &Signature) -> Result<(), EcdsaError> {
        let (u1, u2) = verify_scalars(digest, sig)?;
        let Point::Affine { x, y } = self.point else { unreachable!("a public key is finite") };
        x_matches(Jacobian::mul_glv((x, y), u2, Some(u1)), sig.r)
    }
}

/// `u₁ = z/s` and `u₂ = r/s` of a signature whose `r` and `s` lie in
/// `[1, n)`: it verifies when `u₁·G + u₂·Q` has x ≡ r (mod n).
fn verify_scalars(digest: &B256, sig: &Signature) -> Result<(U256, U256), EcdsaError> {
    if sig.r.is_zero() || sig.r >= N || sig.s.is_zero() || sig.s >= N {
        return Err(EcdsaError::InvalidScalar);
    }
    let z = digest.into_u256().rem_evm(N);
    let s_inv = FN.inv(sig.s);
    Ok((FN.mul(z, s_inv), FN.mul(sig.r, s_inv)))
}

/// Whether `sum = u₁·G + u₂·Q` accepts `r`. `(X, Y, Z)` stands for the
/// affine x = X/Z²; instead of dividing, compare X with the candidates
/// times Z²: x ≡ r (mod n) and x < p < 2n leave only x = r and, when it
/// is below p, x = r + n.
fn x_matches(sum: Jacobian, r: U256) -> Result<(), EcdsaError> {
    let z2 = FP.sqr(sum.z);
    let matches = |x: U256| x < P && FP.mul(x, z2) == sum.x;
    let (r_plus_n, carry) = r.overflowing_add(N);
    if !sum.z.is_zero() && (matches(r) || (!carry && matches(r_plus_n))) {
        Ok(())
    } else {
        Err(EcdsaError::BadSignature)
    }
}

/// A public key prepared for verifying many signatures: besides the key,
/// the affine odd multiples `{1, 3, …, 15}·Q` and `{1, 3, …, 15}·2^64·Q`,
/// 16 points (1 KiB) built once. [`VerifyingKey::verify`] splits `u₂` by
/// GLV and each 128-bit half again at bit 64; the four 64-bit pieces, on
/// `Q`, `2^64·Q` and their `φ` images, share a ladder of 65 doublings where
/// [`PublicKey::verify`] walks 129 and rebuilds `Q`'s table every call.
pub struct VerifyingKey {
    key: PublicKey,
    table: [(U256, U256); 16],
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyingKey").field("key", &self.key).finish_non_exhaustive()
    }
}

impl VerifyingKey {
    /// Prepares `key`: 64 doublings, two tables of seven additions, and
    /// one batched inversion for all 16 entries.
    pub fn new(key: PublicKey) -> Self {
        let q = Jacobian::from_affine(key.point);
        let q64 = (0..64).fold(q, |p, _| p.double());
        let mut both = [Jacobian::INFINITY; 16];
        both[..8].copy_from_slice(&q.odd_multiples());
        both[8..].copy_from_slice(&q64.odd_multiples());
        VerifyingKey { key, table: batch_to_affine(&both) }
    }

    /// The key this was prepared from.
    pub fn public_key(&self) -> PublicKey {
        self.key
    }

    /// [`PublicKey::verify`], decision for decision, off the prepared
    /// tables.
    ///
    /// # Errors
    ///
    /// As [`PublicKey::verify`].
    pub fn verify(&self, digest: &B256, sig: &Signature) -> Result<(), EcdsaError> {
        let (u1, u2) = verify_scalars(digest, sig)?;
        let (q, q64) = self.table.split_at(8);
        let [k1, k2] = split_scalar(u2);
        // A half ±k is ±(k mod 2^64) ± ⌊k/2^64⌋·2^64: its low piece runs on
        // Q's table, its high piece on 2^64·Q's.
        let piece = |table, phi, (negative, half): (bool, u128), shift: u32| Term {
            table,
            phi,
            negative,
            digits: wnaf(half >> shift & u128::from(u64::MAX)),
        };
        let terms = [
            piece(q, false, k1, 0),
            piece(q64, false, k1, 64),
            piece(q, true, k2, 0),
            piece(q64, true, k2, 64),
        ];
        // A 64-bit piece has 65 digits: rounding up can carry out of bit 63.
        x_matches(ladder(65, &terms, Some(u1)), sig.r)
    }
}

/// Recovers the signer's public key from a signature and digest
/// (the `ecrecover` primitive).
///
/// # Errors
///
/// Returns [`EcdsaError`] if the scalars are out of range or no valid
/// point exists for the signature.
pub fn recover(digest: &B256, sig: &Signature) -> Result<PublicKey, EcdsaError> {
    if sig.r.is_zero() || sig.r >= N || sig.s.is_zero() || sig.s >= N || sig.v > 1 {
        return Err(EcdsaError::InvalidScalar);
    }
    let Some(Point::Affine { x, y }) = Point::lift_x(sig.r, sig.v == 1) else {
        return Err(EcdsaError::RecoveryFailed);
    };
    let z = digest.into_u256().rem_evm(N);
    let r_inv = FN.inv(sig.r);
    // Q = r⁻¹(s·R − z·G) = (s·r⁻¹)·R + (−z·r⁻¹)·G
    let u1 = FN.sub(U256::ZERO, FN.mul(z, r_inv));
    let u2 = FN.mul(sig.s, r_inv);
    let q = Jacobian::mul_glv((x, y), u2, Some(u1));
    PublicKey::from_point(q.to_affine()).map_err(|_| EcdsaError::RecoveryFailed)
}

/// Computes the ECDH shared secret: `keccak256(x-coordinate of d·Q)`.
///
/// # Errors
///
/// Returns [`EcdsaError::InvalidPoint`] if the multiplication degenerates
/// (cannot happen for honest inputs).
pub fn ecdh(secret: &SecretKey, peer: &PublicKey) -> Result<B256, EcdsaError> {
    match peer.point.mul(secret.scalar) {
        Point::Affine { x, .. } => Ok(keccak256(x.to_be_bytes())),
        Point::Infinity => Err(EcdsaError::InvalidPoint),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::check;

    /// `f`'s operations against `U256`'s generic division-based ones.
    fn agrees_with_generic<const L: usize>(f: &Field<L>, a: U256, b: U256) {
        let (a, b) = (a.rem_evm(f.m), b.rem_evm(f.m));
        assert_eq!(f.mul(a, b), a.mul_mod(b, f.m));
        assert_eq!(f.sqr(a), a.mul_mod(a, f.m));
        assert_eq!(f.add(a, b), a.add_mod(b, f.m));
        assert_eq!(f.add(f.sub(a, b), b), a);
    }

    /// The mask-selected `add` and `sub` where their candidates swap: sums
    /// `m − 1`, `m`, `m + 1` and `2^256 + c`, differences `0` and `−1`.
    fn add_sub_edges<const L: usize>(f: &Field<L>) {
        let one_less = f.m.wrapping_sub(U256::ONE);
        let two_c_plus_one = f.c_masked(u64::MAX).shl_word(1).wrapping_add(U256::ONE);
        for b in [U256::ZERO, U256::ONE, U256::from(2u64), two_c_plus_one] {
            assert_eq!(f.add(one_less, b), one_less.add_mod(b, f.m), "(m − 1) + {b:x}");
            assert_eq!(f.add(b, one_less), one_less.add_mod(b, f.m), "{b:x} + (m − 1)");
        }
        for a in [U256::ZERO, U256::ONE, one_less] {
            assert_eq!(f.sub(a, a), U256::ZERO);
            assert_eq!(f.sub(a, f.add(a, U256::ONE)), one_less, "{a:x} − ({a:x} + 1)");
        }
    }

    #[test]
    fn special_form_fields_match_generic_reduction() {
        // c really is 2^256 − m.
        assert_eq!(U256::ZERO.wrapping_sub(P), U256::from_limbs([FP.c[0], 0, 0, 0]));
        assert_eq!(U256::ZERO.wrapping_sub(N), U256::from_limbs([FN.c[0], FN.c[1], FN.c[2], 0]));
        // The operands that make the folds carry: both ends of each field
        // and 2^256 − 1 reduced.
        let one_less = |m: U256| m.wrapping_sub(U256::ONE);
        let edges = [U256::ZERO, U256::ONE, one_less(P), one_less(N), U256::MAX];
        for a in edges {
            for b in edges {
                agrees_with_generic(&FP, a, b);
                agrees_with_generic(&FN, a, b);
            }
        }
        add_sub_edges(&FP);
        add_sub_edges(&FN);
        check("special_form_fields_match_generic_reduction", 512, |g| {
            let (a, b) = (U256::from_be_bytes(g.array()), U256::from_be_bytes(g.array()));
            agrees_with_generic(&FP, a, b);
            agrees_with_generic(&FN, a, b);
            let a = a.rem_evm(N).max(U256::ONE);
            assert_eq!(FN.mul(a, FN.inv(a)), U256::ONE);
        });
    }

    /// `2^e mod n` by doubling.
    fn pow2_mod_n(e: usize) -> U256 {
        (0..e).fold(U256::ONE, |v, _| v.add_mod(v, N))
    }

    #[test]
    fn comb_entries_match_their_definition() {
        assert_eq!(COMB_OFFSET, pow2_mod_n(264).add_mod(N.wrapping_sub(U256::ONE), N));
        assert_eq!(HALF.mul_mod(U256::from(2u64), N), U256::ONE);
        let comb = COMB.get_or_init(build_comb);
        for (i, &(x, y)) in comb.iter().enumerate() {
            let (block, j) = (i / COMB_ENTRIES, (i % COMB_ENTRIES) | COMB_ENTRIES);
            let k = (0..COMB_TEETH).fold(U256::ZERO, |k, t| {
                let tooth = pow2_mod_n(COMB_TEETH * COMB_SPACING * block + COMB_SPACING * t);
                let digit = if j >> t & 1 == 1 { tooth } else { N.wrapping_sub(tooth) };
                k.add_mod(digit, N)
            });
            assert_eq!(
                Point::Affine { x, y },
                Point::GENERATOR.mul(k),
                "entry {j} of block {block}"
            );
        }
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(Point::GENERATOR.is_on_curve());
        assert!(Point::Infinity.is_on_curve());
    }

    #[test]
    fn generator_has_order_n() {
        assert_eq!(Point::GENERATOR.mul(N), Point::Infinity);
        assert_ne!(Point::GENERATOR.mul(N.wrapping_sub(U256::ONE)), Point::Infinity);
    }

    #[test]
    fn known_scalar_mult() {
        // 2·G, a standard test vector.
        let two_g = Point::GENERATOR.mul(U256::from(2u64));
        let Point::Affine { x, .. } = two_g else { panic!("2G is finite") };
        assert_eq!(
            format!("{x:x}"),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
    }

    #[test]
    fn add_matches_mul() {
        let g = Point::GENERATOR;
        let three_a = g.add(g).add(g);
        let three_m = g.mul(U256::from(3u64));
        assert_eq!(three_a, three_m);
        // P + (-P) = infinity
        let Point::Affine { x, y } = g else { unreachable!() };
        let neg = Point::Affine { x, y: P.wrapping_sub(y) };
        assert_eq!(g.add(neg), Point::Infinity);
        // P + inf = P
        assert_eq!(g.add(Point::Infinity), g);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SecretKey::from_seed(b"test key material");
        let pk = sk.public_key();
        let digest = keccak256(b"message");
        let sig = sk.sign(&digest);
        assert!(pk.verify(&digest, &sig).is_ok());
        // Low-s normalization holds.
        assert!(sig.s <= N.shr_word(1));
        // Wrong digest fails.
        assert_eq!(
            pk.verify(&keccak256(b"other"), &sig),
            Err(EcdsaError::BadSignature)
        );
        // Tampered r fails.
        let bad = Signature { r: sig.r.wrapping_add(U256::ONE), ..sig };
        assert!(pk.verify(&digest, &bad).is_err());
    }

    #[test]
    fn signature_is_deterministic() {
        let sk = SecretKey::from_seed(b"determinism");
        let digest = keccak256(b"msg");
        assert_eq!(sk.sign(&digest), sk.sign(&digest));
    }

    #[test]
    fn recover_matches_signer() {
        for seed in [b"alpha".as_slice(), b"bravo", b"charlie"] {
            let sk = SecretKey::from_seed(seed);
            let pk = sk.public_key();
            let digest = keccak256(seed);
            let sig = sk.sign(&digest);
            let recovered = recover(&digest, &sig).unwrap();
            assert_eq!(recovered, pk);
            assert_eq!(recovered.to_eth_address(), pk.to_eth_address());
        }
    }

    #[test]
    fn recover_wrong_v_gives_other_key() {
        let sk = SecretKey::from_seed(b"vtest");
        let digest = keccak256(b"m");
        let sig = sk.sign(&digest);
        let flipped = Signature { v: sig.v ^ 1, ..sig };
        if let Ok(other) = recover(&digest, &flipped) {
            assert_ne!(other, sk.public_key());
        }
    }

    #[test]
    fn ecdh_agreement() {
        let a = SecretKey::from_seed(b"alice");
        let b = SecretKey::from_seed(b"bob");
        let s1 = ecdh(&a, &b.public_key()).unwrap();
        let s2 = ecdh(&b, &a.public_key()).unwrap();
        assert_eq!(s1, s2);
        let c = SecretKey::from_seed(b"carol");
        assert_ne!(ecdh(&a, &c.public_key()).unwrap(), s1);
    }

    #[test]
    fn pubkey_encoding_roundtrip() {
        let pk = SecretKey::from_seed(b"enc").public_key();
        let bytes = pk.to_bytes();
        assert_eq!(PublicKey::from_bytes(&bytes).unwrap(), pk);
        let mut bad = bytes;
        bad[0] = 0x05;
        assert!(PublicKey::from_bytes(&bad).is_err());
        let mut off_curve = bytes;
        off_curve[64] ^= 1;
        assert!(PublicKey::from_bytes(&off_curve).is_err());
    }

    #[test]
    fn invalid_scalars_rejected() {
        assert!(SecretKey::from_scalar(U256::ZERO).is_err());
        assert!(SecretKey::from_scalar(N).is_err());
        assert!(SecretKey::from_scalar(U256::ONE).is_ok());

        let digest = keccak256(b"x");
        let bad = Signature { r: U256::ZERO, s: U256::ONE, v: 0 };
        assert!(recover(&digest, &bad).is_err());
        let pk = SecretKey::from_seed(b"k").public_key();
        assert!(pk.verify(&digest, &bad).is_err());
    }

    #[test]
    fn lift_x_parity() {
        let Point::Affine { x, y } = Point::GENERATOR else { unreachable!() };
        let even = Point::lift_x(x, false).unwrap();
        let odd = Point::lift_x(x, true).unwrap();
        let Point::Affine { y: ye, .. } = even else { unreachable!() };
        let Point::Affine { y: yo, .. } = odd else { unreachable!() };
        assert!(!ye.bit(0));
        assert!(yo.bit(0));
        assert!(y == ye || y == yo);
    }
}
