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
        self.data.resize(top + room, U256::ZERO);
        let mut words = Words { words: &mut self.data, top };
        let out = f(&mut words);
        let top = words.top;
        self.data.truncate(top);
        out
    }
}

/// An opened [`Stack`]: the words plus spare room, and the height as a
/// plain index (see [`Stack::open`]).
#[derive(Debug)]
pub struct Words<'a> {
    words: &'a mut [U256],
    top: usize,
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
        self.words[self.top] = value;
        self.top += 1;
    }

    /// Pops a word.
    #[inline]
    pub fn pop(&mut self) -> U256 {
        self.top -= 1;
        self.words[self.top]
    }

    /// The top word, in place.
    #[inline]
    pub fn top(&mut self) -> &mut U256 {
        &mut self.words[self.top - 1]
    }

    /// `DUPn`: pushes a copy of the `n`-th word from the top (1-based).
    #[inline]
    pub fn dup(&mut self, n: usize) {
        self.push(self.words[self.top - n]);
    }

    /// `SWAPn`: swaps the top with the `n`-th word below it (1-based).
    #[inline]
    pub fn swap(&mut self, n: usize) {
        self.words.swap(self.top - 1, self.top - 1 - n);
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
            *w.top() += a; // [9, 2, 2]
            assert_eq!(w.as_slice(), &[u(9), u(2), u(2)]);
            *w.top()
        });
        assert_eq!(top, u(2));
        assert_eq!(s.as_slice(), &[u(9), u(2), u(2)]);
    }
}
