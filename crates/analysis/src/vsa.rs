//! Value-set lattice for the abstract interpreter.
//!
//! PR 4's constant lattice tracked *one* optional constant per stack
//! slot (`Option<U256>`), so the join of two different constants — the
//! exact shape a compiler emits for "push continuation A or B, merge,
//! jump" — degraded straight to ⊤ and the jump fell back to *every*
//! `JUMPDEST`. This module replaces that two-level lattice with a small
//! **value set**: a sorted, duplicate-free set of at most
//! [`ValueSet::CAP`] concrete words, widening to [`ValueSet::Top`] the
//! moment the set would grow past the cap.
//!
//! The lattice is `{finite sets of ≤ CAP words} ∪ {⊤}` ordered by
//! inclusion (⊤ above everything). Joins are set unions; transfer
//! functions for foldable opcodes are computed *pointwise over the
//! cartesian product* of the operand sets, using the same `U256`
//! primitives the interpreter calls, so a folded value can never
//! disagree with the executed one. Per-slot ascending chains have
//! length ≤ CAP + 1, so the fixpoint still terminates without any new
//! machinery.

use tape_primitives::U256;

/// A set of possible concrete values for one abstract stack slot.
///
/// `Values` is always sorted, deduplicated, non-empty, and no longer
/// than [`ValueSet::CAP`]; every constructor and combinator maintains
/// that invariant, widening to `Top` instead of growing past the cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueSet {
    /// The slot is one of these concrete words.
    Values(Vec<U256>),
    /// Unknown: anything.
    Top,
}

impl ValueSet {
    /// Widening cap: a set that would exceed this many members becomes
    /// [`ValueSet::Top`]. Eight covers every multi-way merge the
    /// workload compilers emit while keeping products cheap.
    pub const CAP: usize = 8;

    /// The singleton set `{v}`.
    pub fn constant(v: U256) -> ValueSet {
        ValueSet::Values(vec![v])
    }

    /// Builds a set from arbitrary values (sorted, deduped, widened).
    pub fn from_values(mut vals: Vec<U256>) -> ValueSet {
        vals.sort_unstable();
        vals.dedup();
        if vals.is_empty() || vals.len() > Self::CAP {
            ValueSet::Top
        } else {
            ValueSet::Values(vals)
        }
    }

    /// The enumerated members, `None` for ⊤.
    pub fn values(&self) -> Option<&[U256]> {
        match self {
            ValueSet::Values(v) => Some(v),
            ValueSet::Top => None,
        }
    }

    /// Whether the set is the ⊤ element.
    pub fn is_top(&self) -> bool {
        matches!(self, ValueSet::Top)
    }

    /// Least upper bound: set union, widening past the cap.
    pub fn join(&self, other: &ValueSet) -> ValueSet {
        match (self, other) {
            (ValueSet::Values(a), ValueSet::Values(b)) => {
                let mut merged = Vec::with_capacity(a.len() + b.len());
                merged.extend_from_slice(a);
                merged.extend_from_slice(b);
                ValueSet::from_values(merged)
            }
            _ => ValueSet::Top,
        }
    }

    /// Pointwise unary transfer: applies `f` to every member. ⊤ → ⊤.
    pub fn map(&self, f: impl Fn(U256) -> U256) -> ValueSet {
        match self {
            ValueSet::Values(vals) => {
                ValueSet::from_values(vals.iter().map(|&v| f(v)).collect())
            }
            ValueSet::Top => ValueSet::Top,
        }
    }

    /// Pointwise binary transfer over the cartesian product of the two
    /// operand sets. Either operand ⊤ → ⊤ (no interval reasoning —
    /// finite sets only ever arise from program constants).
    pub fn map2(&self, other: &ValueSet, f: impl Fn(U256, U256) -> U256) -> ValueSet {
        match (self, other) {
            (ValueSet::Values(a), ValueSet::Values(b)) => {
                if a.len() * b.len() > Self::CAP * Self::CAP {
                    return ValueSet::Top;
                }
                let mut out = Vec::with_capacity(a.len() * b.len());
                for &x in a {
                    for &y in b {
                        out.push(f(x, y));
                    }
                }
                ValueSet::from_values(out)
            }
            _ => ValueSet::Top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[u64]) -> ValueSet {
        ValueSet::from_values(vals.iter().map(|&v| U256::from(v)).collect())
    }

    #[test]
    fn constructors_normalize() {
        assert_eq!(set(&[3, 1, 2, 2]), set(&[1, 2, 3]));
        assert_eq!(ValueSet::from_values(Vec::new()), ValueSet::Top);
        let wide: Vec<u64> = (0..=ValueSet::CAP as u64).collect();
        assert!(ValueSet::from_values(wide.iter().map(|&v| U256::from(v)).collect()).is_top());
    }

    #[test]
    fn join_is_union_with_widening() {
        assert_eq!(set(&[1, 2]).join(&set(&[2, 3])), set(&[1, 2, 3]));
        assert!(set(&[1]).join(&ValueSet::Top).is_top());
        let a = set(&[1, 2, 3, 4, 5]);
        let b = set(&[6, 7, 8, 9]);
        assert!(a.join(&b).is_top(), "9 members must widen past CAP=8");
    }

    #[test]
    fn join_laws() {
        let a = set(&[1, 2]);
        let b = set(&[3]);
        let c = set(&[4, 5]);
        assert_eq!(a.join(&a), a); // idempotent
        assert_eq!(a.join(&b), b.join(&a)); // commutative
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c))); // associative
    }

    #[test]
    fn singleton_accessors() {
        assert_eq!(set(&[7]).values(), Some(&[U256::from(7u64)][..]));
        assert_eq!(set(&[7, 8]).values().map(<[U256]>::len), Some(2));
        assert_eq!(ValueSet::Top.values(), None);
    }

    #[test]
    fn map_and_map2_fold_pointwise() {
        let doubled = set(&[1, 2]).map(|v| v.wrapping_add(v));
        assert_eq!(doubled, set(&[2, 4]));
        let sums = set(&[1, 2]).map2(&set(&[10, 20]), |a, b| a.wrapping_add(b));
        assert_eq!(sums, set(&[11, 12, 21, 22]));
        assert!(set(&[1]).map2(&ValueSet::Top, |a, _| a).is_top());
        // Collapsing folds stay finite even from large products.
        let zeros = set(&[1, 2, 3]).map2(&set(&[4, 5, 6]), |_, _| U256::ZERO);
        assert_eq!(zeros, set(&[0]));
    }
}
