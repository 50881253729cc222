//! The EVM runtime stack: 1024 slots of 256-bit words.
//!
//! The paper dedicates the whole 32 KB stack to the HEVM's layer-1 cache
//! "because almost every EVM instruction fetches operands from and writes
//! results to the runtime stack" (§IV-B).

use tape_primitives::U256;

/// Maximum stack depth mandated by the EVM specification.
pub const STACK_LIMIT: usize = 1024;

/// Error produced by stack operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// Pop on too few elements.
    Underflow,
    /// Push beyond [`STACK_LIMIT`].
    Overflow,
}

impl core::fmt::Display for StackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackError::Underflow => write!(f, "stack underflow"),
            StackError::Overflow => write!(f, "stack overflow"),
        }
    }
}

impl std::error::Error for StackError {}

/// The EVM operand stack.
///
/// # Examples
///
/// ```
/// use tape_evm::Stack;
/// use tape_primitives::U256;
///
/// let mut stack = Stack::new();
/// stack.push(U256::from(2u64))?;
/// stack.push(U256::from(3u64))?;
/// assert_eq!(stack.pop()?, U256::from(3u64));
/// # Ok::<(), tape_evm::StackError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stack {
    data: Vec<U256>,
}

impl Stack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Stack { data: Vec::with_capacity(64) }
    }

    /// Current depth.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pushes a word.
    ///
    /// # Errors
    ///
    /// [`StackError::Overflow`] past 1024 entries.
    #[inline]
    pub fn push(&mut self, value: U256) -> Result<(), StackError> {
        if self.data.len() >= STACK_LIMIT {
            return Err(StackError::Overflow);
        }
        self.data.push(value);
        Ok(())
    }

    /// Pops a word.
    ///
    /// # Errors
    ///
    /// [`StackError::Underflow`] when empty.
    #[inline]
    pub fn pop(&mut self) -> Result<U256, StackError> {
        self.data.pop().ok_or(StackError::Underflow)
    }

    /// `DUPn`: pushes a copy of the `n`-th word from the top (1-based).
    ///
    /// # Errors
    ///
    /// [`StackError::Underflow`] with fewer than `n` words,
    /// [`StackError::Overflow`] on a full stack.
    #[inline]
    pub fn dup(&mut self, n: usize) -> Result<(), StackError> {
        let at = self.data.len().checked_sub(n).ok_or(StackError::Underflow)?;
        self.push(self.data[at])
    }

    /// `SWAPn`: swaps the top with the `n`-th word below it (1-based).
    ///
    /// # Errors
    ///
    /// [`StackError::Underflow`] with fewer than `n + 1` words.
    #[inline]
    pub fn swap(&mut self, n: usize) -> Result<(), StackError> {
        let below = self.data.len().checked_sub(n + 1).ok_or(StackError::Underflow)?;
        self.data.swap(below, below + n);
        Ok(())
    }

    /// The stack contents, bottom first (for tracing).
    pub fn as_slice(&self) -> &[U256] {
        &self.data
    }

    /// Runs `f` over the stack opened as [`Words`], with room for
    /// `room` more words: for a caller that has already bounded the
    /// stack — against one opcode's arity, or once for a whole
    /// straight-line run — and so needs no `Result` per word. `room` must
    /// cover the highest `f` climbs; a bound the caller got wrong panics.
    #[inline]
    pub fn open<R>(&mut self, room: usize, f: impl FnOnce(&mut Words<'_>) -> R) -> R {
        let top = self.data.len();
        debug_assert!(top + room <= STACK_LIMIT, "stack bound checked by the caller");
        let head = self.data.last().map_or([0; 2], halves);
        self.data.resize(top + room, U256::ZERO);
        let mut words = Words { words: &mut self.data, top, head };
        let out = f(&mut words);
        let top = words.top;
        self.data.truncate(top);
        out
    }
}

/// An opened [`Stack`]: the words plus spare room, the height as a
/// plain index, and the top word in a local (see [`Stack::open`]).
///
/// Nearly every instruction reads the top word, and usually the one
/// before it wrote it. A word copied through memory as a whole is read
/// back with 16-byte vector loads, while arithmetic writes it as four
/// 8-byte limbs; such a load cannot be forwarded from those stores and
/// waits for them to retire. So the top word lives in `head`, and the
/// slots are touched only limb by limb: every write to the top is
/// written through to its slot from `head`, which keeps [`as_slice`]
/// exact, and memory is read only for a word below the top, straight
/// into `head`.
///
/// `head` holds the word as two `u128` halves rather than as a
/// [`U256`]: the compiler packs a local `U256`'s adjacent `u64` limbs
/// into vector lanes when it finds that cheaper, which brings the wide
/// loads back, while a `u128` stays a pair of general registers that
/// loads and stores 8 bytes at a time.
///
/// [`as_slice`]: Words::as_slice
#[derive(Debug)]
pub struct Words<'a> {
    words: &'a mut [U256],
    top: usize,
    /// `words[top - 1]` as low and high halves; zero on an empty stack.
    head: [u128; 2],
}

/// A word as its low and high 128-bit halves (see [`Words`]).
#[inline(always)]
fn halves(word: &U256) -> [u128; 2] {
    let [a, b, c, d] = *word.limbs();
    [u128::from(a) | u128::from(b) << 64, u128::from(c) | u128::from(d) << 64]
}

/// The word with halves `[low, high]`.
#[inline(always)]
fn word([low, high]: [u128; 2]) -> U256 {
    U256::from_limbs([low as u64, (low >> 64) as u64, high as u64, (high >> 64) as u64])
}

impl Words<'_> {
    /// The live words, bottom first (for tracing).
    #[inline]
    pub fn as_slice(&self) -> &[U256] {
        &self.words[..self.top]
    }

    /// Pushes a word.
    #[inline]
    pub fn push(&mut self, value: U256) {
        self.push_halves(halves(&value));
    }

    /// Pops a word.
    #[inline]
    pub fn pop(&mut self) -> U256 {
        let value = word(self.head);
        self.top -= 1;
        self.head = self.top.checked_sub(1).map_or([0; 2], |below| halves(&self.words[below]));
        value
    }

    /// The top word.
    #[inline]
    pub fn top(&self) -> U256 {
        word(self.head)
    }

    /// Replaces the top word.
    #[inline]
    pub fn set_top(&mut self, value: U256) {
        self.set_head(halves(&value));
    }

    /// `DUPn`: pushes a copy of the `n`-th word from the top (1-based).
    #[inline]
    pub fn dup(&mut self, n: usize) {
        let value = if n == 1 { self.head } else { halves(&self.words[self.top - n]) };
        self.push_halves(value);
    }

    /// `SWAPn`: swaps the top with the `n`-th word below it (1-based).
    #[inline]
    pub fn swap(&mut self, n: usize) {
        let slot = self.top - 1 - n;
        let below = halves(&self.words[slot]);
        self.words[slot] = word(self.head);
        self.set_head(below);
    }

    #[inline(always)]
    fn push_halves(&mut self, value: [u128; 2]) {
        self.words[self.top] = word(value);
        self.head = value;
        self.top += 1;
    }

    #[inline(always)]
    fn set_head(&mut self, value: [u128; 2]) {
        self.words[self.top - 1] = word(value);
        self.head = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    #[test]
    fn push_pop_lifo() {
        let mut s = Stack::new();
        s.push(u(1)).unwrap();
        s.push(u(2)).unwrap();
        assert_eq!(s.pop().unwrap(), u(2));
        assert_eq!(s.pop().unwrap(), u(1));
        assert_eq!(s.pop(), Err(StackError::Underflow));
    }

    #[test]
    fn overflow_at_limit() {
        let mut s = Stack::new();
        for i in 0..STACK_LIMIT {
            s.push(u(i as u64)).unwrap();
        }
        assert_eq!(s.push(u(0)), Err(StackError::Overflow));
        assert_eq!(s.len(), STACK_LIMIT);
    }

    #[test]
    fn dup_and_swap() {
        let mut s = Stack::new();
        s.push(u(1)).unwrap();
        s.push(u(2)).unwrap();
        let top = s.open(2, |w| {
            w.dup(2); // [1, 2, 1]
            w.push(u(9)); // [1, 2, 1, 9]
            w.swap(3); // [9, 2, 1, 1]
            let a = w.pop();
            w.set_top(w.top() + a); // [9, 2, 2]
            assert_eq!(w.as_slice(), &[u(9), u(2), u(2)]);
            w.top()
        });
        assert_eq!(top, u(2));
        assert_eq!(s.as_slice(), &[u(9), u(2), u(2)]);
    }
}
