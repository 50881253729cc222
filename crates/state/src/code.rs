//! Contract code images: the bytes of a contract together with what
//! stays fixed for their whole life — the keccak and the set of valid
//! jump destinations — each worked out at most once and shared by every
//! account record, overlay, frame and bundle that holds the image.

use crate::account::EMPTY_CODE_HASH;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock};
use tape_crypto::keccak256;
use tape_primitives::B256;

const JUMPDEST: u8 = 0x5b;
const PUSH1: u8 = 0x60;
const PUSH32: u8 = 0x7f;

/// Source of [`Code::id`]: a fresh value per image built in this process.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The one empty image every code-less account shares.
static EMPTY: LazyLock<Arc<Code>> = LazyLock::new(|| Arc::new(Code::new(Vec::new())));

/// An immutable code image.
///
/// Dereferences to its bytes. The hash and the jump-destination bitmap
/// are computed lazily, on first request, so an image nobody asks about
/// (code fetched for `EXTCODECOPY`, say) costs nothing beyond its bytes.
///
/// # Examples
///
/// ```
/// use tape_state::{Code, EMPTY_CODE_HASH};
///
/// let code = Code::new(vec![0x60, 0x5b, 0x5b]); // PUSH1 0x5b; JUMPDEST
/// assert_eq!(code.len(), 3);
/// assert!(!code.jumpdests().is_valid(1)); // push data
/// assert!(code.jumpdests().is_valid(2));
/// assert_eq!(Code::empty().hash(), EMPTY_CODE_HASH);
/// ```
pub struct Code {
    bytes: Vec<u8>,
    id: u64,
    hash: OnceLock<B256>,
    jumpdests: OnceLock<JumpDests>,
}

impl Code {
    /// Wraps `bytes` as a new image.
    pub fn new(bytes: Vec<u8>) -> Self {
        Code {
            bytes,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            hash: OnceLock::new(),
            jumpdests: OnceLock::new(),
        }
    }

    /// The shared empty image (no allocation).
    pub fn empty() -> Arc<Code> {
        Arc::clone(&EMPTY)
    }

    /// `keccak256` of the bytes ([`EMPTY_CODE_HASH`] for empty code) —
    /// the only place in the workspace that hashes code.
    pub fn hash(&self) -> B256 {
        *self.hash.get_or_init(|| {
            if self.bytes.is_empty() {
                EMPTY_CODE_HASH
            } else {
                keccak256(&self.bytes)
            }
        })
    }

    /// The valid `JUMPDEST` positions.
    #[inline]
    pub fn jumpdests(&self) -> &JumpDests {
        self.jumpdests.get_or_init(|| JumpDests::scan(&self.bytes, |_| ()))
    }

    /// A value no other image built in this process carries: a key for
    /// caches that outlive one image, such as an engine's table of
    /// straight-line runs.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl core::ops::Deref for Code {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for Code {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Code {}

impl core::fmt::Debug for Code {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.bytes.fmt(f)
    }
}

/// The set of valid jump destinations of a code image: every `JUMPDEST`
/// byte that is an instruction, not `PUSH` data. One bit per byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JumpDests {
    bits: Vec<u64>,
}

impl JumpDests {
    /// Builds the table of `code` in one pass, handing each instruction's
    /// opcode to `visit` in pc order (push data skipped), so a caller
    /// that needs its own per-instruction count pays for no second scan.
    pub fn scan(code: &[u8], mut visit: impl FnMut(u8)) -> Self {
        let mut bits = vec![0u64; code.len().div_ceil(64)];
        let mut pc = 0;
        while let Some(&opcode) = code.get(pc) {
            visit(opcode);
            if opcode == JUMPDEST {
                bits[pc / 64] |= 1 << (pc % 64);
            }
            pc += 1;
            if (PUSH1..=PUSH32).contains(&opcode) {
                pc += usize::from(opcode - PUSH1) + 1;
            }
        }
        JumpDests { bits }
    }

    /// Returns `true` if `target` is a valid jump destination.
    #[inline]
    pub fn is_valid(&self, target: usize) -> bool {
        self.bits.get(target / 64).is_some_and(|word| (word >> (target % 64)) & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_table_skips_push_data() {
        // PUSH2 0x5b5b JUMPDEST — the two 0x5b bytes inside the push are
        // NOT valid destinations; the trailing one is.
        let dests = JumpDests::scan(&[0x61, JUMPDEST, JUMPDEST, JUMPDEST], |_| ());
        assert!(!dests.is_valid(1));
        assert!(!dests.is_valid(2));
        assert!(dests.is_valid(3));
        assert!(!dests.is_valid(4));
        assert!(!dests.is_valid(999));
        assert!(!dests.is_valid(usize::MAX));
    }

    #[test]
    fn jump_table_truncated_push() {
        // PUSH32 with only one byte of code left must not panic.
        let dests = JumpDests::scan(&[JUMPDEST, PUSH32, JUMPDEST], |_| ());
        assert!(dests.is_valid(0));
        assert!(!dests.is_valid(2));
    }

    #[test]
    fn jumpdests_past_the_first_word() {
        let mut code = vec![0x00; 200];
        code[64] = JUMPDEST;
        code[199] = JUMPDEST;
        let dests = JumpDests::scan(&code, |_| ());
        assert!(dests.is_valid(64) && dests.is_valid(199));
        assert!(!dests.is_valid(63) && !dests.is_valid(65) && !dests.is_valid(200));
    }

    #[test]
    fn hash_is_keccak_and_empty_is_shared() {
        assert_eq!(Code::new(vec![1, 2, 3]).hash(), keccak256([1, 2, 3]));
        assert_eq!(Code::empty().hash(), EMPTY_CODE_HASH);
        assert!(Arc::ptr_eq(&Code::empty(), &Code::empty()));
        assert_ne!(Code::new(vec![]).id(), Code::new(vec![]).id());
    }
}
