//! Selective dioids — the algebraic structures behind the ranking function.
//!
//! A *selective dioid* (§2.2, Definition 3 of the paper) is a semiring
//! `(W, ⊕, ⊗, 0̄, 1̄)` whose addition `⊕` is *selective*: it always returns one
//! of its operands, and hence induces a total order on `W` via
//! `x ≤ y  ⇔  x ⊕ y = x`.
//!
//! The any-k algorithms only rely on this structure: `⊗` aggregates input
//! weights into a solution weight, and the order induced by `⊕` ranks
//! solutions. We therefore model a dioid as a type implementing [`Dioid`]
//! whose value type `V` carries a total order (`Ord`) that *is* the induced
//! order, with `cmp`-minimal values ranked first.
//!
//! Provided instances (§6.4):
//!
//! | Instance | `(W, ⊕, ⊗, 0̄, 1̄)` | Use |
//! |---|---|---|
//! | [`TropicalMin`] | `(ℝ∞, min, +, ∞, 0)` | sum-of-weights, ascending (default) |
//! | [`TropicalMax`] | `(ℝ∪{−∞}, max, +, −∞, 0)` | heaviest answers first |
//! | [`BooleanDioid`] | `({0,1}, ∨, ∧, 0, 1)` with inverted order | unranked enumeration / Boolean CQs |
//! | [`MaxTimes`] | `([0,∞), max, ×, 0, 1)` | bag-semantics multiplicity ranking |
//! | [`Lexicographic`] | vectors under element-wise `+`, lexicographic order | per-relation lexicographic ranking (§2.2) |

mod boolean;
mod lex;
mod maxtimes;
mod minmax;
mod ordered_f64;
mod tropical;

pub use boolean::{BoolRank, BooleanDioid};
pub use lex::{LexVec, Lexicographic};
pub use maxtimes::{MaxTimes, Multiplicity};
pub use minmax::MinMaxDioid;
pub use ordered_f64::OrderedF64;
pub use tropical::{MaxWeight, TropicalMax, TropicalMin};

use std::fmt::Debug;

/// A selective dioid over value type [`Dioid::V`].
///
/// The trait is implemented by zero-sized marker types; all operations are
/// associated functions so that instances, enumerators and candidates never
/// need to carry a dioid object around.
///
/// # Laws
///
/// Implementations must satisfy the selective-dioid axioms:
///
/// * `times` is associative with identity [`Dioid::one`];
/// * the order of `V` (its `Ord` impl) is total, [`Dioid::zero`] is the
///   maximum (worst) element, and `one ⊗ x = x`;
/// * `times` is monotone (non-decreasing) in each argument with respect to
///   the order — the distributivity of `⊗` over the selective `⊕`, which is
///   exactly Bellman's principle of optimality (§6.4);
/// * `zero` is absorbing: `times(zero, x) = zero`.
///
/// These laws are exercised by the property tests in
/// `crates/core/tests/dioid_laws.rs`.
pub trait Dioid: Clone + Debug + 'static {
    /// The carrier set `W`. Its `Ord` implementation must be the total order
    /// induced by the selective `⊕` (smallest = best ranked). Values must be
    /// `Send + Sync` so the bottom-up phase can sweep stages with scoped
    /// worker threads (all provided carriers are plain data).
    type V: Clone + Ord + Debug + Send + Sync;

    /// The multiplicative identity `1̄` (the weight of an empty combination).
    fn one() -> Self::V;

    /// The additive identity `0̄` (the "infinitely bad" weight). It must be
    /// the greatest element of the order and absorbing for [`Dioid::times`].
    fn zero() -> Self::V;

    /// The aggregation operator `⊗`.
    fn times(a: &Self::V, b: &Self::V) -> Self::V;

    /// The selective addition `⊕`: returns the better (smaller) operand.
    ///
    /// Provided in terms of the order; implementations rarely override it.
    fn plus(a: &Self::V, b: &Self::V) -> Self::V {
        if a <= b {
            a.clone()
        } else {
            b.clone()
        }
    }

    /// Optional inverse of `⊗` (§6.2): returns `x` such that
    /// `times(b, x) = a`, if the monoid `(W, ⊗, 1̄)` has inverses.
    ///
    /// The default returns `None`; algorithms must not rely on it for
    /// correctness (they fall back to `O(ℓ)` recomputation as discussed in
    /// §6.2), but may use it as a fast path.
    fn try_divide(_a: &Self::V, _b: &Self::V) -> Option<Self::V> {
        None
    }
}

/// Aggregate an iterator of dioid values with `⊗`, starting from `1̄`.
pub fn times_all<D: Dioid>(values: impl IntoIterator<Item = D::V>) -> D::V {
    values
        .into_iter()
        .fold(D::one(), |acc, v| D::times(&acc, &v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_is_selective_min() {
        let a = OrderedF64::from(3.0);
        let b = OrderedF64::from(5.0);
        assert_eq!(TropicalMin::plus(&a, &b), a);
        assert_eq!(TropicalMin::plus(&b, &a), a);
        assert_eq!(TropicalMin::plus(&a, &a), a);
    }

    #[test]
    fn times_all_folds_from_one() {
        let vals = [1.0, 2.0, 3.5].map(OrderedF64::from);
        assert_eq!(times_all::<TropicalMin>(vals), OrderedF64::from(6.5));
        let empty: [OrderedF64; 0] = [];
        assert_eq!(times_all::<TropicalMin>(empty), TropicalMin::one());
    }
}
