//! 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the word type of the EVM: a 256-bit little-endian-limbed
//! unsigned integer with the full complement of wrapping, checked, modular
//! and *signed-view* operations that the EVM instruction set requires
//! (`SDIV`, `SMOD`, `SAR`, `SIGNEXTEND`, `ADDMOD`, `MULMOD`, `EXP`, ...).
//!
//! The implementation is self-contained: schoolbook multiplication into a
//! 512-bit intermediate and Knuth Algorithm D division.

use core::cmp::Ordering;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{
    Add, AddAssign, BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Div, Mul,
    MulAssign, Not, Rem, Shl, Shr, Sub, SubAssign,
};
use core::str::FromStr;

/// A 256-bit unsigned integer, stored as four little-endian `u64` limbs.
///
/// # Examples
///
/// ```
/// use tape_primitives::U256;
///
/// let a = U256::from(7u64);
/// let b = U256::from(6u64);
/// assert_eq!(a * b, U256::from(42u64));
/// assert_eq!(U256::MAX.wrapping_add(U256::ONE), U256::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value `1`.
    pub const ONE: U256 = U256 { limbs: [1, 0, 0, 0] };
    /// The maximum value, `2^256 - 1`.
    pub const MAX: U256 = U256 { limbs: [u64::MAX; 4] };
    /// `2^255`, i.e. the sign bit when the value is viewed as two's complement.
    pub const SIGN_BIT: U256 = U256 { limbs: [0, 0, 0, 1 << 63] };

    /// Creates a value from little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    #[inline]
    pub const fn into_limbs(self) -> [u64; 4] {
        self.limbs
    }

    /// Borrows the little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> &[u64; 4] {
        &self.limbs
    }

    /// Creates a value from a big-endian 32-byte array.
    #[inline]
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - (i + 1) * 8;
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[start..start + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Creates a value from up to 32 big-endian bytes (shorter slices are
    /// treated as left-padded with zeros, exactly like EVM `PUSH` data).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 32`.
    pub fn from_be_slice(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "U256::from_be_slice: more than 32 bytes");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        Self::from_be_bytes(buf)
    }

    /// Returns the value as a big-endian 32-byte array.
    #[inline]
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            let start = 32 - (i + 1) * 8;
            out[start..start + 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Returns the minimal big-endian byte representation (no leading
    /// zeros; empty for zero). This is the RLP "canonical scalar" form.
    pub fn to_be_bytes_trimmed(self) -> Vec<u8> {
        let bytes = self.to_be_bytes();
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(32);
        bytes[first..].to_vec()
    }

    /// Returns `true` if the value is zero.
    ///
    /// Limb by limb: an array compare, or one OR over all four limbs,
    /// compiles to two 16-byte vector loads, which cannot be forwarded
    /// from the four 8-byte stores that usually just wrote the word.
    #[inline]
    pub fn is_zero(&self) -> bool {
        let [a, b, c, d] = self.limbs;
        a == 0 && b == 0 && c == 0 && d == 0
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return (i as u32) * 64 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Returns the number of leading zero bits.
    #[inline]
    pub fn leading_zeros(&self) -> u32 {
        256 - self.bits()
    }

    /// Returns the bit at position `i` (little-endian; bit 0 is the least
    /// significant). Bits at positions `>= 256` read as `false`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the low 64 bits, discarding the rest.
    #[inline]
    pub fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns the low 128 bits, discarding the rest.
    #[inline]
    pub fn low_u128(&self) -> u128 {
        (self.limbs[0] as u128) | ((self.limbs[1] as u128) << 64)
    }

    /// Converts to `u64` if the value fits.
    #[inline]
    pub fn try_into_u64(self) -> Option<u64> {
        // Limb by limb, as in `is_zero`.
        let [low, b, c, d] = self.limbs;
        (b | c | d == 0).then_some(low)
    }

    /// Converts to `usize` if the value fits.
    #[inline]
    pub fn try_into_usize(self) -> Option<usize> {
        self.try_into_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Addition returning the wrapped value and whether overflow occurred.
    #[inline]
    pub fn overflowing_add(self, rhs: Self) -> (Self, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Subtraction returning the wrapped value and whether borrow occurred.
    #[inline]
    pub fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Wrapping (mod 2^256) addition.
    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Wrapping (mod 2^256) subtraction.
    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        self.checked_add(rhs).unwrap_or(Self::MAX)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).unwrap_or(Self::ZERO)
    }

    /// Full 256×256 → 512-bit multiplication, returned as 8 little-endian
    /// limbs.
    pub fn mul_wide(self, rhs: Self) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = (self.limbs[i] as u128) * (rhs.limbs[j] as u128)
                    + out[i + j] as u128
                    + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        out
    }

    /// Wrapping (mod 2^256) multiplication.
    pub fn wrapping_mul(self, rhs: Self) -> Self {
        let wide = self.mul_wide(rhs);
        U256 { limbs: [wide[0], wide[1], wide[2], wide[3]] }
    }

    /// Multiplication returning the wrapped value and whether the true
    /// product exceeded 256 bits.
    pub fn overflowing_mul(self, rhs: Self) -> (Self, bool) {
        let wide = self.mul_wide(rhs);
        let hi_nonzero = wide[4..].iter().any(|&l| l != 0);
        (U256 { limbs: [wide[0], wide[1], wide[2], wide[3]] }, hi_nonzero)
    }

    /// Checked multiplication; `None` on overflow.
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Quotient and remainder. Returns `None` when `rhs` is zero.
    pub fn checked_div_rem(self, rhs: Self) -> Option<(Self, Self)> {
        if rhs.is_zero() {
            return None;
        }
        let (q, r) = div_rem_generic(&self.limbs, &rhs.limbs);
        Some((U256 { limbs: [q[0], q[1], q[2], q[3]] }, U256 { limbs: r }))
    }

    /// Checked division; `None` when `rhs` is zero.
    pub fn checked_div(self, rhs: Self) -> Option<Self> {
        self.checked_div_rem(rhs).map(|(q, _)| q)
    }

    /// Checked remainder; `None` when `rhs` is zero.
    pub fn checked_rem(self, rhs: Self) -> Option<Self> {
        self.checked_div_rem(rhs).map(|(_, r)| r)
    }

    /// EVM `DIV` semantics: division where `x / 0 == 0`.
    pub fn div_evm(self, rhs: Self) -> Self {
        self.checked_div(rhs).unwrap_or(Self::ZERO)
    }

    /// EVM `MOD` semantics: remainder where `x % 0 == 0`.
    pub fn rem_evm(self, rhs: Self) -> Self {
        self.checked_rem(rhs).unwrap_or(Self::ZERO)
    }

    /// EVM `ADDMOD`: `(self + rhs) % modulus` computed over 257 bits, with
    /// `x % 0 == 0`.
    pub fn add_mod(self, rhs: Self, modulus: Self) -> Self {
        if modulus.is_zero() {
            return Self::ZERO;
        }
        let (sum, carry) = self.overflowing_add(rhs);
        let dividend = [sum.limbs[0], sum.limbs[1], sum.limbs[2], sum.limbs[3], carry as u64];
        let (_, r) = div_rem_generic(&dividend, &modulus.limbs);
        U256 { limbs: r }
    }

    /// EVM `MULMOD`: `(self * rhs) % modulus` computed over 512 bits, with
    /// `x % 0 == 0`.
    pub fn mul_mod(self, rhs: Self, modulus: Self) -> Self {
        if modulus.is_zero() {
            return Self::ZERO;
        }
        let wide = self.mul_wide(rhs);
        let (_, r) = div_rem_generic(&wide, &modulus.limbs);
        U256 { limbs: r }
    }

    /// EVM `EXP`: wrapping exponentiation by squaring.
    pub fn wrapping_pow(self, exp: Self) -> Self {
        let mut base = self;
        let mut result = Self::ONE;
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i as usize) {
                result = result.wrapping_mul(base);
            }
            if i + 1 < nbits {
                base = base.wrapping_mul(base);
            }
        }
        result
    }

    /// Logical left shift; shifts of 256 or more produce zero.
    pub fn shl_word(self, shift: u32) -> Self {
        if shift >= 256 {
            return Self::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256 { limbs: out }
    }

    /// Logical right shift; shifts of 256 or more produce zero.
    pub fn shr_word(self, shift: u32) -> Self {
        if shift >= 256 {
            return Self::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, limb) in out.iter_mut().enumerate().take(4 - limb_shift) {
            *limb = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                *limb |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256 { limbs: out }
    }

    /// EVM `SAR`: arithmetic (sign-propagating) right shift of the
    /// two's-complement view.
    pub fn sar_word(self, shift: u32) -> Self {
        let negative = self.is_negative();
        if shift >= 256 {
            return if negative { Self::MAX } else { Self::ZERO };
        }
        let shifted = self.shr_word(shift);
        if negative && shift > 0 {
            // Fill the vacated high bits with ones.
            let fill = Self::MAX.shl_word(256 - shift);
            shifted | fill
        } else {
            shifted
        }
    }

    /// Returns `true` if the sign bit of the two's-complement view is set.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.limbs[3] >> 63 == 1
    }

    /// Two's-complement negation (`0 - self` mod 2^256).
    pub fn wrapping_neg(self) -> Self {
        Self::ZERO.wrapping_sub(self)
    }

    /// Absolute value of the two's-complement view, plus the original sign.
    fn abs_signed(self) -> (Self, bool) {
        if self.is_negative() {
            (self.wrapping_neg(), true)
        } else {
            (self, false)
        }
    }

    /// EVM `SDIV`: signed division of two's-complement views, truncating
    /// toward zero, with `x / 0 == 0` and `MIN / -1 == MIN`.
    pub fn sdiv_evm(self, rhs: Self) -> Self {
        if rhs.is_zero() {
            return Self::ZERO;
        }
        if self == Self::SIGN_BIT && rhs == Self::MAX {
            return Self::SIGN_BIT; // MIN / -1 overflows back to MIN
        }
        let (la, sa) = self.abs_signed();
        let (lb, sb) = rhs.abs_signed();
        let q = la.div_evm(lb);
        if sa ^ sb {
            q.wrapping_neg()
        } else {
            q
        }
    }

    /// EVM `SMOD`: signed remainder (sign follows the dividend), with
    /// `x % 0 == 0`.
    pub fn smod_evm(self, rhs: Self) -> Self {
        if rhs.is_zero() {
            return Self::ZERO;
        }
        let (la, sa) = self.abs_signed();
        let (lb, _) = rhs.abs_signed();
        let r = la.rem_evm(lb);
        if sa {
            r.wrapping_neg()
        } else {
            r
        }
    }

    /// Signed comparison of the two's-complement views (EVM `SLT`/`SGT`).
    pub fn signed_cmp(&self, rhs: &Self) -> Ordering {
        match (self.is_negative(), rhs.is_negative()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.cmp(rhs),
        }
    }

    /// EVM `SIGNEXTEND`: extend the sign of the value considered as a
    /// `(byte_index + 1)`-byte two's-complement integer.
    pub fn sign_extend(self, byte_index: Self) -> Self {
        let Some(idx) = byte_index.try_into_usize() else {
            return self;
        };
        if idx >= 31 {
            return self;
        }
        let bit = idx * 8 + 7;
        if self.bit(bit) {
            let mask = Self::MAX.shl_word((bit + 1) as u32);
            self | mask
        } else {
            let mask = Self::MAX.shr_word((256 - bit - 1) as u32);
            self & mask
        }
    }

    /// EVM `BYTE`: the `i`-th byte of the big-endian representation
    /// (index 0 is the most significant byte); indexes >= 32 give 0.
    pub fn byte_be(self, index: Self) -> Self {
        match index.try_into_usize() {
            Some(i) if i < 32 => U256::from(self.to_be_bytes()[i] as u64),
            _ => Self::ZERO,
        }
    }

    /// Parses from a string in the given radix (2..=36).
    ///
    /// # Errors
    ///
    /// Returns [`ParseU256Error`] on empty input, invalid digits, or
    /// overflow.
    pub fn from_str_radix(s: &str, radix: u32) -> Result<Self, ParseU256Error> {
        assert!((2..=36).contains(&radix), "radix must be in 2..=36");
        let s = s.strip_prefix('+').unwrap_or(s);
        if s.is_empty() {
            return Err(ParseU256Error::Empty);
        }
        let mut value = Self::ZERO;
        let radix_word = Self::from(radix as u64);
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let digit = c.to_digit(radix).ok_or(ParseU256Error::InvalidDigit(c))? as u64;
            value = value
                .checked_mul(radix_word)
                .and_then(|v| v.checked_add(Self::from(digit)))
                .ok_or(ParseU256Error::Overflow)?;
        }
        Ok(value)
    }

    /// Integer square root (floor).
    pub fn isqrt(self) -> Self {
        if self.is_zero() {
            return Self::ZERO;
        }
        // Newton's method with a power-of-two seed.
        let mut x = Self::ONE.shl_word(self.bits().div_ceil(2));
        loop {
            let y = (x + self.div_evm(x)).shr_word(1);
            if y >= x {
                return x;
            }
            x = y;
        }
    }
}

/// Error produced when parsing a [`U256`] from a string fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseU256Error {
    /// The input string contained no digits.
    Empty,
    /// The input string contained a character that is not a digit in the
    /// requested radix.
    InvalidDigit(char),
    /// The parsed value does not fit in 256 bits.
    Overflow,
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseU256Error::Empty => write!(f, "empty string"),
            ParseU256Error::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            ParseU256Error::Overflow => write!(f, "number too large to fit in 256 bits"),
        }
    }
}

impl std::error::Error for ParseU256Error {}

/// Knuth Algorithm D division of an arbitrary-width little-endian limb
/// dividend by a nonzero 4-limb divisor. Returns `(quotient_low_8_limbs,
/// remainder)`. The quotient is guaranteed to fit 8 limbs for dividends of
/// at most 8 limbs (512 bits), which covers every call site.
fn div_rem_generic(dividend: &[u64], divisor: &[u64; 4]) -> ([u64; 8], [u64; 4]) {
    debug_assert!(dividend.len() <= 8);
    let n = 4 - divisor.iter().rev().take_while(|&&l| l == 0).count();
    assert!(n > 0, "division by zero");
    let m = dividend.len() - dividend.iter().rev().take_while(|&&l| l == 0).count();

    let mut quotient = [0u64; 8];
    let mut remainder = [0u64; 4];

    if m == 0 {
        return (quotient, remainder);
    }

    // Compare magnitudes: if dividend < divisor the quotient is zero.
    if m < n || (m == n && cmp_limbs(&dividend[..m], &divisor[..n]) == Ordering::Less) {
        remainder[..m].copy_from_slice(&dividend[..m]);
        return (quotient, remainder);
    }

    if n == 1 {
        // Short division.
        let d = divisor[0] as u128;
        let mut rem = 0u128;
        for i in (0..m).rev() {
            let cur = (rem << 64) | dividend[i] as u128;
            quotient[i] = (cur / d) as u64;
            rem = cur % d;
        }
        remainder[0] = rem as u64;
        return (quotient, remainder);
    }

    // Normalize so that the divisor's top limb has its high bit set.
    let shift = divisor[n - 1].leading_zeros();
    let mut v = [0u64; 4];
    for i in (0..n).rev() {
        v[i] = divisor[i] << shift;
        if shift > 0 && i > 0 {
            v[i] |= divisor[i - 1] >> (64 - shift);
        }
    }
    // u gets one extra limb for the shifted-out bits.
    let mut u = [0u64; 9];
    for i in (0..m).rev() {
        u[i] = dividend[i] << shift;
        if shift > 0 && i > 0 {
            u[i] |= dividend[i - 1] >> (64 - shift);
        }
    }
    if shift > 0 {
        u[m] = dividend[m - 1] >> (64 - shift);
    }

    let v_top = v[n - 1] as u128;
    let v_next = v[n - 2] as u128;

    for j in (0..=m - n).rev() {
        // Estimate the quotient digit.
        let numerator = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = numerator / v_top;
        let mut rhat = numerator % v_top;
        while qhat >> 64 != 0 || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_top;
            if rhat >> 64 != 0 {
                break;
            }
        }

        // Multiply-and-subtract.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * v[i] as u128 + carry;
            carry = p >> 64;
            let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
            u[j + i] = sub as u64;
            borrow = sub >> 64;
        }
        let sub = (u[j + n] as i128) - (carry as i128) + borrow;
        u[j + n] = sub as u64;

        if sub < 0 {
            // qhat was one too large: add the divisor back.
            qhat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = u[j + i] as u128 + v[i] as u128 + carry;
                u[j + i] = s as u64;
                carry = s >> 64;
            }
            u[j + n] = u[j + n].wrapping_add(carry as u64);
        }
        quotient[j] = qhat as u64;
    }

    // Denormalize the remainder.
    for i in 0..n {
        remainder[i] = u[i] >> shift;
        if shift > 0 && i + 1 < 9 {
            remainder[i] |= u[i + 1] << (64 - shift);
        }
    }
    (quotient, remainder)
}

#[inline]
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

impl PartialOrd for U256 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.limbs, &other.limbs)
    }
}

impl From<u8> for U256 {
    fn from(v: u8) -> Self {
        U256 { limbs: [v as u64, 0, 0, 0] }
    }
}

impl From<u16> for U256 {
    fn from(v: u16) -> Self {
        U256 { limbs: [v as u64, 0, 0, 0] }
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256 { limbs: [v as u64, 0, 0, 0] }
    }
}

impl From<u64> for U256 {
    #[inline]
    fn from(v: u64) -> Self {
        U256 { limbs: [v, 0, 0, 0] }
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256 { limbs: [v as u64, (v >> 64) as u64, 0, 0] }
    }
}

impl From<usize> for U256 {
    fn from(v: usize) -> Self {
        U256::from(v as u64)
    }
}

impl From<bool> for U256 {
    fn from(v: bool) -> Self {
        if v {
            U256::ONE
        } else {
            U256::ZERO
        }
    }
}

impl TryFrom<U256> for u64 {
    type Error = ParseU256Error;
    fn try_from(v: U256) -> Result<Self, Self::Error> {
        v.try_into_u64().ok_or(ParseU256Error::Overflow)
    }
}

impl FromStr for U256 {
    type Err = ParseU256Error;

    /// Parses decimal by default, hexadecimal with a `0x` prefix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Self::from_str_radix(hex, 16)
        } else {
            Self::from_str_radix(s, 10)
        }
    }
}

// Panicking operator impls follow std semantics: overflow panics in the
// operators; use the wrapping_/checked_/overflowing_ families for EVM
// arithmetic.
impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("U256 addition overflow")
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).expect("U256 subtraction underflow")
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs).expect("U256 multiplication overflow")
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: Self) -> Self {
        self.checked_div(rhs).expect("U256 division by zero")
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: Self) -> Self {
        self.checked_rem(rhs).expect("U256 remainder by zero")
    }
}

impl AddAssign for U256 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for U256 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for U256 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> Self {
        U256 {
            limbs: [!self.limbs[0], !self.limbs[1], !self.limbs[2], !self.limbs[3]],
        }
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for U256 {
            type Output = U256;
            fn $method(self, rhs: Self) -> Self {
                U256 {
                    limbs: [
                        self.limbs[0] $op rhs.limbs[0],
                        self.limbs[1] $op rhs.limbs[1],
                        self.limbs[2] $op rhs.limbs[2],
                        self.limbs[3] $op rhs.limbs[3],
                    ],
                }
            }
        }
        impl $assign_trait for U256 {
            fn $assign_method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, BitAndAssign, bitand_assign, &);
impl_bitop!(BitOr, bitor, BitOrAssign, bitor_assign, |);
impl_bitop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^);

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, shift: u32) -> Self {
        self.shl_word(shift)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, shift: u32) -> Self {
        self.shr_word(shift)
    }
}

impl Sum for U256 {
    fn sum<I: Iterator<Item = U256>>(iter: I) -> Self {
        iter.fold(U256::ZERO, |a, b| a + b)
    }
}

impl Product for U256 {
    fn product<I: Iterator<Item = U256>>(iter: I) -> Self {
        iter.fold(U256::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{self:x})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        let mut digits = Vec::with_capacity(78);
        let ten = U256::from(10u64);
        let mut v = *self;
        while !v.is_zero() {
            let (q, r) = v.checked_div_rem(ten).expect("ten is nonzero");
            digits.push(b'0' + r.low_u64() as u8);
            v = q;
        }
        digits.reverse();
        let s = std::str::from_utf8(&digits).expect("digits are ASCII");
        f.pad_integral(true, "", s)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.to_be_bytes();
        let mut s = String::with_capacity(64);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        let trimmed = s.trim_start_matches('0');
        let trimmed = if trimmed.is_empty() { "0" } else { trimmed };
        f.pad_integral(true, "0x", trimmed)
    }
}

impl fmt::UpperHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lower = format!("{self:x}");
        f.pad_integral(true, "0x", &lower.to_uppercase())
    }
}

impl fmt::Binary for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0b", "0");
        }
        let bits = self.bits();
        let mut s = String::with_capacity(bits as usize);
        for i in (0..bits).rev() {
            s.push(if self.bit(i as usize) { '1' } else { '0' });
        }
        f.pad_integral(true, "0b", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    #[test]
    fn add_with_carry_propagation() {
        let a = U256::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let b = U256::ONE;
        assert_eq!(a.wrapping_add(b), U256::from_limbs([0, 0, 1, 0]));
    }

    #[test]
    fn overflowing_add_wraps() {
        let (v, o) = U256::MAX.overflowing_add(U256::ONE);
        assert!(o);
        assert_eq!(v, U256::ZERO);
    }

    #[test]
    fn sub_with_borrow_propagation() {
        let a = U256::from_limbs([0, 0, 1, 0]);
        let b = U256::ONE;
        assert_eq!(a.wrapping_sub(b), U256::from_limbs([u64::MAX, u64::MAX, 0, 0]));
    }

    #[test]
    fn mul_wide_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let wide = U256::MAX.mul_wide(U256::MAX);
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1..4], [0, 0, 0]);
        assert_eq!(wide[4], u64::MAX - 1);
        assert_eq!(wide[5..8], [u64::MAX; 3]);
    }

    #[test]
    fn div_rem_simple() {
        let (q, r) = u(100).checked_div_rem(u(7)).unwrap();
        assert_eq!(q, u(14));
        assert_eq!(r, u(2));
    }

    #[test]
    fn div_rem_large() {
        let a = U256::MAX;
        let b = U256::from_limbs([0, 1, 0, 0]); // 2^64
        let (q, r) = a.checked_div_rem(b).unwrap();
        assert_eq!(q, U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert_eq!(r, u(u64::MAX));
    }

    #[test]
    fn div_rem_knuth_add_back_case() {
        // Trigger the rare "add back" branch: dividend chosen so the first
        // quotient estimate is too large.
        let a = U256::from_limbs([0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff]);
        let b = U256::from_limbs([u64::MAX, 0, 0x8000_0000_0000_0000, 0]);
        let (q, r) = a.checked_div_rem(b).unwrap();
        assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
        assert!(r < b);
    }

    #[test]
    fn division_by_zero_is_none() {
        assert!(u(1).checked_div(U256::ZERO).is_none());
        assert_eq!(u(1).div_evm(U256::ZERO), U256::ZERO);
        assert_eq!(u(1).rem_evm(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn addmod_overflowing_sum() {
        // (MAX + MAX) % MAX == 0? (2*MAX) mod MAX = 0.
        assert_eq!(U256::MAX.add_mod(U256::MAX, U256::MAX), U256::ZERO);
        // (MAX + 1) % MAX = 1.
        assert_eq!(U256::MAX.add_mod(U256::ONE, U256::MAX), U256::ONE);
        assert_eq!(u(10).add_mod(u(10), u(8)), u(4));
        assert_eq!(u(10).add_mod(u(10), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn mulmod_wide_product() {
        assert_eq!(U256::MAX.mul_mod(U256::MAX, u(12)), u(9));
        assert_eq!(u(10).mul_mod(u(10), u(7)), u(2));
        assert_eq!(u(10).mul_mod(u(10), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn exp_wrapping() {
        assert_eq!(u(2).wrapping_pow(u(10)), u(1024));
        assert_eq!(u(2).wrapping_pow(u(256)), U256::ZERO);
        assert_eq!(u(0).wrapping_pow(U256::ZERO), U256::ONE);
        assert_eq!(U256::MAX.wrapping_pow(u(2)), U256::ONE);
    }

    #[test]
    fn shifts() {
        assert_eq!(u(1).shl_word(255), U256::SIGN_BIT);
        assert_eq!(U256::SIGN_BIT.shr_word(255), U256::ONE);
        assert_eq!(u(1).shl_word(256), U256::ZERO);
        assert_eq!(u(0xFF).shl_word(8), u(0xFF00));
        assert_eq!(u(0xFF00).shr_word(8), u(0xFF));
        assert_eq!(u(1).shl_word(64), U256::from_limbs([0, 1, 0, 0]));
    }

    #[test]
    fn sar_negative_fill() {
        let neg_one = U256::MAX;
        assert_eq!(neg_one.sar_word(5), neg_one);
        assert_eq!(neg_one.sar_word(256), neg_one);
        assert_eq!(u(16).sar_word(2), u(4));
        // -16 >> 2 == -4
        let neg_16 = u(16).wrapping_neg();
        let neg_4 = u(4).wrapping_neg();
        assert_eq!(neg_16.sar_word(2), neg_4);
    }

    #[test]
    fn signed_division() {
        let neg = |v: u64| U256::from(v).wrapping_neg();
        assert_eq!(neg(10).sdiv_evm(u(3)), neg(3));
        assert_eq!(u(10).sdiv_evm(neg(3)), neg(3));
        assert_eq!(neg(10).sdiv_evm(neg(3)), u(3));
        assert_eq!(U256::SIGN_BIT.sdiv_evm(U256::MAX), U256::SIGN_BIT);
        assert_eq!(neg(10).smod_evm(u(3)), neg(1));
        assert_eq!(u(10).smod_evm(neg(3)), u(1));
    }

    #[test]
    fn signed_comparison() {
        let neg_one = U256::MAX;
        assert_eq!(neg_one.signed_cmp(&U256::ZERO), Ordering::Less);
        assert_eq!(U256::ZERO.signed_cmp(&neg_one), Ordering::Greater);
        assert_eq!(u(5).signed_cmp(&u(3)), Ordering::Greater);
    }

    #[test]
    fn sign_extend_cases() {
        // 0xFF sign-extended from byte 0 is -1.
        assert_eq!(u(0xFF).sign_extend(U256::ZERO), U256::MAX);
        // 0x7F stays positive.
        assert_eq!(u(0x7F).sign_extend(U256::ZERO), u(0x7F));
        // Extending from byte 31+ is identity.
        assert_eq!(U256::MAX.sign_extend(u(31)), U256::MAX);
        assert_eq!(u(0x1234).sign_extend(u(500)), u(0x1234));
        // High garbage above the extension byte is masked for positive.
        let v = U256::from(0xAB_7Fu64);
        assert_eq!(v.sign_extend(U256::ZERO), u(0x7F));
    }

    #[test]
    fn byte_be_indexing() {
        let v = U256::from_be_slice(&[0xAA, 0xBB]);
        assert_eq!(v.byte_be(u(31)), u(0xBB));
        assert_eq!(v.byte_be(u(30)), u(0xAA));
        assert_eq!(v.byte_be(u(0)), U256::ZERO);
        assert_eq!(v.byte_be(u(32)), U256::ZERO);
    }

    #[test]
    fn byte_roundtrip() {
        let v = U256::from_limbs([1, 2, 3, 4]);
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        assert_eq!(u(0x1234).to_be_bytes_trimmed(), vec![0x12, 0x34]);
        assert!(U256::ZERO.to_be_bytes_trimmed().is_empty());
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("12345".parse::<U256>().unwrap(), u(12345));
        assert_eq!("0xff".parse::<U256>().unwrap(), u(255));
        assert_eq!(
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
                .parse::<U256>()
                .unwrap(),
            U256::MAX
        );
        assert_eq!(U256::MAX.to_string().len(), 78);
        assert_eq!(u(255).to_string(), "255");
        assert_eq!(format!("{:x}", u(255)), "ff");
        assert_eq!(format!("{:#x}", u(255)), "0xff");
        assert_eq!(format!("{:b}", u(5)), "101");
        assert!("".parse::<U256>().is_err());
        assert!("xyz".parse::<U256>().is_err());
        let too_big = format!("{}0", U256::MAX);
        assert_eq!(too_big.parse::<U256>(), Err(ParseU256Error::Overflow));
    }

    #[test]
    fn bits_and_leading_zeros() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        assert_eq!(U256::SIGN_BIT.bits(), 256);
        assert_eq!(u(256).bits(), 9);
        assert_eq!(U256::ONE.leading_zeros(), 255);
    }

    #[test]
    fn isqrt_values() {
        assert_eq!(U256::ZERO.isqrt(), U256::ZERO);
        assert_eq!(u(1).isqrt(), u(1));
        assert_eq!(u(15).isqrt(), u(3));
        assert_eq!(u(16).isqrt(), u(4));
        assert_eq!(U256::MAX.isqrt(), U256::from_limbs([u64::MAX, u64::MAX, 0, 0]));
    }

    #[test]
    fn from_be_slice_pads() {
        assert_eq!(U256::from_be_slice(&[]), U256::ZERO);
        assert_eq!(U256::from_be_slice(&[1]), U256::ONE);
        assert_eq!(U256::from_be_slice(&[1, 0]), u(256));
    }

    #[test]
    #[should_panic(expected = "more than 32 bytes")]
    fn from_be_slice_too_long_panics() {
        U256::from_be_slice(&[0u8; 33]);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(U256::MAX.saturating_add(U256::ONE), U256::MAX);
        assert_eq!(U256::ZERO.saturating_sub(U256::ONE), U256::ZERO);
    }
}
