//! `Words` against a model: random pushes, pops, reads and writes of the
//! top, `DUPn` and `SWAPn` inside one `Stack::open`, each checked against
//! a plain `Vec<U256>` — the value returned, the top word and the whole
//! slice the inspector sees. `Words` keeps the top word apart from its
//! slot, so every step also checks that the slot was written through.
//!
//! A sequence of operations is drawn first, then an entry height from
//! its need (the words it consumes below the entry) up to what leaves
//! room for its peak under the 1 024-word limit, both ends favoured.
//! Words come with exactly one nonzero limb (at every index), all ones,
//! zero, or arbitrary, and the limb predicates `U256::is_zero` and
//! `U256::try_into_u64` are checked on every word read back.
//!
//! The same sequence also drives the checked `Stack::{push, pop, dup,
//! swap}` the reference engine steps with, from a second entry height
//! drawn near the edges (empty, a few words, at or just under the
//! limit), so every `Underflow` and `Overflow` is compared with the
//! model too: a pop on an empty stack, a `DUPn` / `SWAPn` one word short
//! of its `n`, and a push or `DUPn` on a full stack.

use tape_crypto::prop::{check, Gen};
use tape_evm::{Stack, StackError, STACK_LIMIT};
use tape_primitives::U256;

const CASES: u32 = 256;

/// A word with exactly one nonzero limb, all ones, zero or arbitrary.
fn word(g: &mut Gen) -> U256 {
    match g.below(4) {
        0 => {
            let mut limbs = [0; 4];
            limbs[g.index(4)] = g.u64() | 1 << g.below(64);
            U256::from_limbs(limbs)
        }
        1 => U256::MAX,
        2 => U256::ZERO,
        _ => U256::from_limbs([g.u64(), g.u64(), g.u64(), g.u64()]),
    }
}

/// The predicates, against the limbs.
fn check_predicates(w: U256) {
    let [low, rest @ ..] = w.into_limbs();
    assert_eq!(w.is_zero(), low == 0 && rest == [0; 3], "is_zero of {w:?}");
    assert_eq!(w.try_into_u64(), (rest == [0; 3]).then_some(low), "try_into_u64 of {w:?}");
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(U256),
    Pop,
    Top,
    SetTop(U256),
    Dup(usize),
    Swap(usize),
}

impl Op {
    /// Words read below the height before the operation, and the change
    /// of height.
    fn arity(self) -> (usize, isize) {
        match self {
            Op::Push(_) => (0, 1),
            Op::Pop => (1, -1),
            Op::Top | Op::SetTop(_) => (1, 0),
            Op::Dup(n) => (n, 1),
            Op::Swap(n) => (n + 1, 0),
        }
    }
}

fn op(g: &mut Gen) -> Op {
    match g.below(6) {
        0 => Op::Push(word(g)),
        1 => Op::Pop,
        2 => Op::Top,
        3 => Op::SetTop(word(g)),
        4 => Op::Dup(g.range(1, 17) as usize),
        _ => Op::Swap(g.range(1, 17) as usize),
    }
}

/// The words `ops` needs on entry and the highest it climbs above it.
fn need_and_peak(ops: &[Op]) -> (usize, usize) {
    let (mut height, mut need, mut peak) = (0isize, 0isize, 0isize);
    for op in ops {
        let (reads, delta) = op.arity();
        need = need.max(reads as isize - height);
        height += delta;
        peak = peak.max(height);
    }
    (need as usize, peak as usize)
}

/// The errors the checked stack raised at its edges, across cases: a
/// pop on an empty stack, a `DUPn` / `SWAPn` one word short, an
/// overflow at the limit.
#[derive(Debug, Default)]
struct Edges {
    empty: bool,
    short: bool,
    full: bool,
}

#[test]
fn words_agree_with_a_vec_at_every_height() {
    let mut edges = Edges::default();
    check("words_agree_with_a_vec", CASES, |g| {
        let ops = g.vec_of(1, 200, op);
        checked(g, &ops, &mut edges);
        let (need, peak) = need_and_peak(&ops);
        let Some(highest) = STACK_LIMIT.checked_sub(peak).filter(|&h| h >= need) else {
            return;
        };
        let height = match g.below(4) {
            0 => need,
            1 => highest,
            2 => highest - g.below((highest - need).min(3) as u64 + 1) as usize,
            _ => g.range(need as u64, highest as u64 + 1) as usize,
        };

        let mut model: Vec<U256> = (0..height).map(|_| word(g)).collect();
        let mut stack = Stack::new();
        for &w in &model {
            stack.push(w).expect("below the limit");
        }
        stack.open(peak, |words| {
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Push(w) => {
                        words.push(w);
                        model.push(w);
                    }
                    Op::Pop => {
                        let w = words.pop();
                        assert_eq!(Some(w), model.pop(), "pop at step {step}");
                        check_predicates(w);
                    }
                    Op::Top => {
                        let w = words.top();
                        assert_eq!(Some(&w), model.last(), "top at step {step}");
                        check_predicates(w);
                    }
                    Op::SetTop(w) => {
                        words.set_top(w);
                        *model.last_mut().expect("need covers it") = w;
                    }
                    Op::Dup(n) => {
                        words.dup(n);
                        model.push(model[model.len() - n]);
                    }
                    Op::Swap(n) => {
                        words.swap(n);
                        let top = model.len() - 1;
                        model.swap(top, top - n);
                    }
                }
                assert_eq!(words.as_slice(), &model[..], "slice after step {step}: {op:?}");
                if let Some(&w) = model.last() {
                    assert_eq!(words.top(), w, "top after step {step}: {op:?}");
                }
            }
        });
        assert_eq!(stack.as_slice(), &model[..], "stack after the run");
        assert_eq!(stack.len(), model.len());
    });
    assert!(edges.empty && edges.short && edges.full, "edges not reached: {edges:?}");
}

/// `ops` through the checked `Stack` methods from a height near an
/// edge. An operation that reads more words than there are fails with
/// `Underflow`, one that would climb past the limit with `Overflow`, and
/// either leaves the stack as it was. `Top` and `SetTop` have no checked
/// form and are skipped.
fn checked(g: &mut Gen, ops: &[Op], edges: &mut Edges) {
    let height = match g.below(4) {
        0 => 0,
        1 => g.below(18) as usize,
        2 => STACK_LIMIT - g.below(3) as usize,
        _ => STACK_LIMIT,
    };
    let mut model: Vec<U256> = (0..height).map(|_| word(g)).collect();
    let mut stack = Stack::new();
    for &w in &model {
        stack.push(w).expect("at most the limit");
    }
    for (step, &op) in ops.iter().enumerate() {
        let len = model.len();
        let (reads, delta) = op.arity();
        let want = if len < reads {
            Err(StackError::Underflow)
        } else if len.saturating_add_signed(delta) > STACK_LIMIT {
            Err(StackError::Overflow)
        } else {
            Ok(())
        };
        let got = match op {
            Op::Top | Op::SetTop(_) => continue,
            Op::Push(w) => stack.push(w),
            Op::Pop => stack.pop().map(|w| {
                assert_eq!(Some(&w), model.last(), "pop at step {step}");
                check_predicates(w);
            }),
            Op::Dup(n) => stack.dup(n),
            Op::Swap(n) => stack.swap(n),
        };
        assert_eq!(got, want, "{op:?} at step {step}, height {len}");
        match (want, op) {
            (Ok(()), Op::Push(w)) => model.push(w),
            (Ok(()), Op::Pop) => {
                model.pop();
            }
            (Ok(()), Op::Dup(n)) => model.push(model[len - n]),
            (Ok(()), Op::Swap(n)) => model.swap(len - 1, len - 1 - n),
            (Ok(()), Op::Top | Op::SetTop(_)) => unreachable!("skipped above"),
            (Err(StackError::Underflow), _) if len == 0 => edges.empty = true,
            (Err(StackError::Underflow), _) => edges.short |= len + 1 == reads,
            (Err(StackError::Overflow), _) => edges.full = true,
        }
        assert_eq!(stack.as_slice(), &model[..], "stack after step {step}: {op:?}");
    }
}

#[test]
fn predicates_read_every_limb() {
    for index in 0..4 {
        for bit in [0, 1, 31, 63] {
            let mut limbs = [0; 4];
            limbs[index] = 1 << bit;
            let w = U256::from_limbs(limbs);
            assert!(!w.is_zero(), "limb {index} bit {bit}");
            assert_eq!(w.try_into_u64(), (index == 0).then_some(1 << bit));
            check_predicates(w);
        }
    }
    for w in [U256::ZERO, U256::ONE, U256::MAX, U256::from(u64::MAX)] {
        check_predicates(w);
    }
    assert!(U256::ZERO.is_zero());
    assert_eq!(U256::MAX.try_into_u64(), None);
}
