//! Gas metering: constants and dynamic-cost helpers.
//!
//! Ruleset: "Cancun-lite" — EIP-2929 warm/cold access lists, EIP-2200 +
//! EIP-3529 SSTORE metering and refunds, EIP-3860 initcode metering,
//! EIP-1153 transient storage, EIP-5656 MCOPY. Gas maintenance is the
//! paper's §IV-B "Gas maintenance": costs accrue as instructions are
//! interpreted, with dynamic parts driven by memory growth and warm/cold
//! state.

use tape_primitives::U256;

/// Base transaction cost.
pub const TX_BASE: u64 = 21_000;
/// Extra base cost of a contract-creating transaction.
pub const TX_CREATE: u64 = 32_000;
/// Calldata cost per zero byte.
pub const TX_DATA_ZERO: u64 = 4;
/// Calldata cost per nonzero byte.
pub const TX_DATA_NONZERO: u64 = 16;
/// Access-list: cost per address (EIP-2930).
pub const TX_ACCESS_LIST_ADDRESS: u64 = 2_400;
/// Access-list: cost per storage key (EIP-2930).
pub const TX_ACCESS_LIST_KEY: u64 = 1_900;
/// Initcode cost per 32-byte word (EIP-3860).
pub const INITCODE_WORD: u64 = 2;
/// Maximum initcode size (EIP-3860).
pub const MAX_INITCODE_SIZE: usize = 49_152;
/// Maximum deployed-code size (EIP-170).
pub const MAX_CODE_SIZE: usize = 24_576;

/// Warm state access (EIP-2929).
pub const WARM_ACCESS: u64 = 100;
/// Cold account access (EIP-2929).
pub const COLD_ACCOUNT_ACCESS: u64 = 2_600;
/// Cold storage-slot access (EIP-2929).
pub const COLD_SLOAD: u64 = 2_100;

/// SSTORE: setting a zero slot to nonzero.
pub const SSTORE_SET: u64 = 20_000;
/// SSTORE: changing an existing nonzero slot.
pub const SSTORE_RESET: u64 = 2_900;
/// Minimum gas that must remain for SSTORE (EIP-2200 sentry).
pub const SSTORE_SENTRY: u64 = 2_300;
/// Refund for clearing a slot to zero (EIP-3529).
pub const SSTORE_CLEARS_SCHEDULE: u64 = 4_800;

/// keccak256 cost per 32-byte word.
pub const KECCAK_WORD: u64 = 6;
/// Copy cost per 32-byte word.
pub const COPY_WORD: u64 = 3;
/// LOG cost per payload byte.
pub const LOG_DATA_BYTE: u64 = 8;
/// EXP cost per significant exponent byte.
pub const EXP_BYTE: u64 = 50;

/// Value-bearing call surcharge.
pub const CALL_VALUE: u64 = 9_000;
/// Gas stipend forwarded with a value-bearing call.
pub const CALL_STIPEND: u64 = 2_300;
/// Surcharge for calling into a nonexistent account with value.
pub const CALL_NEW_ACCOUNT: u64 = 25_000;
/// Surcharge when SELFDESTRUCT sends funds to a new account.
pub const SELFDESTRUCT_NEW_ACCOUNT: u64 = 25_000;
/// Per-byte cost of deployed code (CREATE data gas).
pub const CODE_DEPOSIT_BYTE: u64 = 200;
/// Maximum call depth.
pub const CALL_DEPTH_LIMIT: usize = 1024;

/// Number of 32-byte words needed to hold `bytes` bytes.
#[inline]
pub fn words(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(32)
}

/// Total memory cost for a memory of `size` bytes:
/// `3·w + w²/512` where `w` is the word count.
#[inline]
pub fn memory_cost(size: usize) -> u64 {
    // u128 intermediates: `w * w` overflows u64 at w = 2^32 (a size the
    // metering cap permits an adversarial gas limit to reach).
    let w = words(size) as u128;
    (3 * w + w * w / 512).min(u64::MAX as u128) as u64
}

/// Marginal cost of growing memory from `current` to `target` bytes.
///
/// Saturation is sticky: once the target's total cost clamps at
/// `u64::MAX`, the marginal cost is `u64::MAX` too. Subtracting the
/// (possibly also clamped) current cost instead would report 0 —
/// making every expansion past the saturation point free rather than
/// unpayable.
#[inline]
pub fn memory_expansion_cost(current: usize, target: usize) -> u64 {
    if target <= current {
        return 0;
    }
    let target_cost = memory_cost(target);
    if target_cost == u64::MAX {
        u64::MAX
    } else {
        target_cost - memory_cost(current)
    }
}

/// Dynamic cost of `KECCAK256` over `len` bytes (excluding the base 30).
#[inline]
pub fn keccak_cost(len: usize) -> u64 {
    KECCAK_WORD * words(len)
}

/// Dynamic cost of a copy instruction over `len` bytes.
#[inline]
pub fn copy_cost(len: usize) -> u64 {
    COPY_WORD * words(len)
}

/// Dynamic cost of `EXP` for the given exponent.
#[inline]
pub fn exp_cost(exponent: &U256) -> u64 {
    let bytes = exponent.bits().div_ceil(8) as u64;
    EXP_BYTE * bytes
}

/// EIP-2929 account-access cost (BALANCE, EXTCODESIZE, CALL target, ...).
#[inline]
pub fn account_access_cost(is_cold: bool) -> u64 {
    if is_cold {
        COLD_ACCOUNT_ACCESS
    } else {
        WARM_ACCESS
    }
}

/// SLOAD cost under EIP-2929.
#[inline]
pub fn sload_cost(is_cold: bool) -> u64 {
    if is_cold {
        COLD_SLOAD + WARM_ACCESS
    } else {
        WARM_ACCESS
    }
}

/// SSTORE gas and refund delta under EIP-2200 + EIP-3529 + EIP-2929.
///
/// Returns `(gas_cost, refund_delta)`; the refund delta may be negative
/// (refund clawback when a previously-cleared slot is re-set).
pub fn sstore_cost(
    original: U256,
    current: U256,
    new: U256,
    is_cold: bool,
) -> (u64, i64) {
    let mut gas = if is_cold { COLD_SLOAD } else { 0 };
    let mut refund: i64 = 0;

    if current == new {
        gas += WARM_ACCESS; // no-op store
    } else if original == current {
        if original.is_zero() {
            gas += SSTORE_SET;
        } else {
            gas += SSTORE_RESET;
            if new.is_zero() {
                refund += SSTORE_CLEARS_SCHEDULE as i64;
            }
        }
    } else {
        gas += WARM_ACCESS; // dirty slot
        if !original.is_zero() {
            if current.is_zero() {
                refund -= SSTORE_CLEARS_SCHEDULE as i64;
            }
            if new.is_zero() {
                refund += SSTORE_CLEARS_SCHEDULE as i64;
            }
        }
        if original == new {
            if original.is_zero() {
                refund += (SSTORE_SET - WARM_ACCESS) as i64;
            } else {
                refund += (SSTORE_RESET - WARM_ACCESS) as i64;
            }
        }
    }
    (gas, refund)
}

/// Intrinsic gas of a transaction: base + calldata + create + access list.
pub fn intrinsic_gas(
    data: &[u8],
    is_create: bool,
    access_list_addresses: usize,
    access_list_keys: usize,
) -> u64 {
    let mut gas = TX_BASE;
    for &b in data {
        gas += if b == 0 { TX_DATA_ZERO } else { TX_DATA_NONZERO };
    }
    if is_create {
        gas += TX_CREATE + INITCODE_WORD * words(data.len());
    }
    gas += TX_ACCESS_LIST_ADDRESS * access_list_addresses as u64;
    gas += TX_ACCESS_LIST_KEY * access_list_keys as u64;
    gas
}

/// The gas counter for one frame: remaining gas plus the transaction-wide
/// refund accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gas {
    remaining: u64,
    limit: u64,
    refunded: i64,
}

impl Gas {
    /// A counter with the given limit, all of it remaining.
    pub fn new(limit: u64) -> Self {
        Gas { remaining: limit, limit, refunded: 0 }
    }

    /// Gas still available.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The frame's gas limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Gas consumed so far.
    pub fn used(&self) -> u64 {
        self.limit - self.remaining
    }

    /// Accumulated refund (clamped at payout time).
    pub fn refunded(&self) -> i64 {
        self.refunded
    }

    /// Charges `amount`; returns `false` (leaving the counter untouched
    /// except for zeroing) on out-of-gas.
    #[inline]
    #[must_use]
    pub fn charge(&mut self, amount: u64) -> bool {
        if let Some(rest) = self.remaining.checked_sub(amount) {
            self.remaining = rest;
            true
        } else {
            self.remaining = 0;
            false
        }
    }

    /// Adds a refund delta.
    pub fn refund(&mut self, delta: i64) {
        self.refunded += delta;
    }

    /// Returns unused gas from a completed child frame.
    pub fn reclaim(&mut self, returned: u64) {
        self.remaining += returned;
    }

    /// Consumes everything (on exceptional halt).
    pub fn consume_all(&mut self) {
        self.remaining = 0;
    }

    /// EIP-150: the caller keeps 1/64th — the maximum gas forwardable to
    /// a child call.
    pub fn forwardable(&self) -> u64 {
        self.remaining - self.remaining / 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_cost_quadratic() {
        assert_eq!(memory_cost(0), 0);
        assert_eq!(memory_cost(32), 3);
        assert_eq!(memory_cost(64), 6);
        // 1024 words = 32 KB: 3*1024 + 1024²/512 = 3072 + 2048 = 5120.
        assert_eq!(memory_cost(32 * 1024), 5120);
        assert_eq!(memory_expansion_cost(32, 64), 3);
        assert_eq!(memory_expansion_cost(64, 32), 0);
    }

    #[test]
    fn memory_expansion_saturation_is_sticky() {
        // The clamp engages near w ≈ 2^32·√(512)/√(1) … concretely,
        // 3·w + w²/512 > u64::MAX once w exceeds ~9.7e10 words. Any
        // size that large must cost u64::MAX in total…
        let saturated = usize::MAX;
        assert_eq!(memory_cost(saturated), u64::MAX);
        // …and growing *within* the saturated region must stay
        // unpayable, not become free because both endpoints clamp.
        assert_eq!(memory_expansion_cost(saturated - 64, saturated), u64::MAX);
        assert_eq!(memory_expansion_cost(0, saturated), u64::MAX);
        // Shrinking or standing still is still free.
        assert_eq!(memory_expansion_cost(saturated, saturated), 0);
        assert_eq!(memory_expansion_cost(saturated, saturated - 64), 0);
        // Unsaturated growth keeps the exact quadratic delta.
        assert_eq!(memory_expansion_cost(32, 64), 3);
    }

    #[test]
    fn word_rounding() {
        assert_eq!(words(0), 0);
        assert_eq!(words(1), 1);
        assert_eq!(words(32), 1);
        assert_eq!(words(33), 2);
    }

    #[test]
    fn exp_cost_by_exponent_width() {
        assert_eq!(exp_cost(&U256::ZERO), 0);
        assert_eq!(exp_cost(&U256::from(255u64)), 50);
        assert_eq!(exp_cost(&U256::from(256u64)), 100);
        assert_eq!(exp_cost(&U256::MAX), 50 * 32);
    }

    #[test]
    fn sstore_fresh_set_and_clear() {
        let z = U256::ZERO;
        let one = U256::ONE;
        // 0 -> 1 on a warm slot: SET.
        assert_eq!(sstore_cost(z, z, one, false), (SSTORE_SET, 0));
        // 1 -> 0: RESET + clear refund.
        assert_eq!(
            sstore_cost(one, one, z, false),
            (SSTORE_RESET, SSTORE_CLEARS_SCHEDULE as i64)
        );
        // no-op: warm access only.
        assert_eq!(sstore_cost(one, one, one, false), (WARM_ACCESS, 0));
        // cold adds COLD_SLOAD.
        assert_eq!(sstore_cost(z, z, one, true), (COLD_SLOAD + SSTORE_SET, 0));
    }

    #[test]
    fn sstore_dirty_slot_refund_dance() {
        let z = U256::ZERO;
        let one = U256::ONE;
        let two = U256::from(2u64);
        // original=1, current=0 (was cleared earlier), new=2:
        // clawback of the earlier clear refund.
        assert_eq!(
            sstore_cost(one, z, two, false),
            (WARM_ACCESS, -(SSTORE_CLEARS_SCHEDULE as i64))
        );
        // original=1, current=2, new=1: restored to original -> RESET-100 refund.
        assert_eq!(
            sstore_cost(one, two, one, false),
            (WARM_ACCESS, (SSTORE_RESET - WARM_ACCESS) as i64)
        );
        // original=0, current=1, new=0: restored to zero -> SET-100 refund
        // plus the clears refund does not apply (original was zero).
        assert_eq!(
            sstore_cost(z, one, z, false),
            (WARM_ACCESS, (SSTORE_SET - WARM_ACCESS) as i64)
        );
    }

    #[test]
    fn intrinsic_gas_examples() {
        assert_eq!(intrinsic_gas(&[], false, 0, 0), 21_000);
        assert_eq!(intrinsic_gas(&[0, 0, 1], false, 0, 0), 21_000 + 4 + 4 + 16);
        assert_eq!(
            intrinsic_gas(&[1; 32], true, 0, 0),
            21_000 + 32 * 16 + 32_000 + 2
        );
        assert_eq!(
            intrinsic_gas(&[], false, 2, 3),
            21_000 + 2 * 2_400 + 3 * 1_900
        );
    }

    #[test]
    fn gas_counter_mechanics() {
        let mut gas = Gas::new(100);
        assert!(gas.charge(40));
        assert_eq!(gas.remaining(), 60);
        assert_eq!(gas.used(), 40);
        assert!(!gas.charge(100));
        assert_eq!(gas.remaining(), 0);
        gas.reclaim(30);
        assert_eq!(gas.remaining(), 30);
    }

    #[test]
    fn forwardable_keeps_64th() {
        let gas = Gas::new(6400);
        assert_eq!(gas.forwardable(), 6400 - 100);
    }
}
