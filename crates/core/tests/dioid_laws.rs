//! Property tests: the selective-dioid axioms (§2.2, Definition 3) hold for
//! every dioid instance shipped by the crate. The any-k algorithms rely on
//! exactly these laws (associativity, identity, absorption, selectivity, and
//! monotone distributivity / Bellman's principle), so they are checked
//! explicitly rather than assumed.

use anyk_core::dioid::{
    BoolRank, BooleanDioid, Dioid, LexVec, Lexicographic, MaxTimes, MaxWeight, MinMaxDioid,
    Multiplicity, OrderedF64, TropicalMax, TropicalMin,
};
use proptest::prelude::*;

/// Check all dioid laws on three sample values.
fn check_laws<D: Dioid>(a: D::V, b: D::V, c: D::V) {
    // Associativity of ⊗.
    assert_eq!(
        D::times(&D::times(&a, &b), &c),
        D::times(&a, &D::times(&b, &c)),
        "⊗ must be associative"
    );
    // Identity.
    assert_eq!(D::times(&D::one(), &a), a, "1̄ ⊗ a = a");
    assert_eq!(D::times(&a, &D::one()), a, "a ⊗ 1̄ = a");
    // Absorption.
    assert_eq!(D::times(&D::zero(), &a), D::zero(), "0̄ absorbs");
    assert_eq!(D::times(&a, &D::zero()), D::zero(), "0̄ absorbs");
    // 0̄ is the worst element.
    assert!(a <= D::zero(), "0̄ is the maximum of the order");
    // Selectivity of ⊕: returns one of the operands, the smaller one.
    let s = D::plus(&a, &b);
    assert!(s == a || s == b);
    assert_eq!(s, std::cmp::min(a.clone(), b.clone()));
    // Monotonicity of ⊗ (distributivity over the selective ⊕ / Bellman).
    let (lo, hi) = if a <= b {
        (a.clone(), b.clone())
    } else {
        (b.clone(), a.clone())
    };
    assert!(
        D::times(&lo, &c) <= D::times(&hi, &c),
        "⊗ must be monotone in its first argument"
    );
}

fn finite_f64() -> impl Strategy<Value = f64> {
    // Integer-valued weights keep ⊗ (addition) exactly associative, so the
    // law checks can use bit-for-bit equality.
    (-1.0e6_f64..1.0e6).prop_map(f64::round)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn tropical_min_laws(a in finite_f64(), b in finite_f64(), c in finite_f64()) {
        check_laws::<TropicalMin>(a.into(), b.into(), c.into());
    }

    #[test]
    fn tropical_max_laws(a in finite_f64(), b in finite_f64(), c in finite_f64()) {
        check_laws::<TropicalMax>(MaxWeight::new(a), MaxWeight::new(b), MaxWeight::new(c));
    }

    #[test]
    fn minmax_laws(a in finite_f64(), b in finite_f64(), c in finite_f64()) {
        check_laws::<MinMaxDioid>(a.into(), b.into(), c.into());
    }

    #[test]
    fn maxtimes_laws(a in 0.0_f64..1000.0, b in 0.0_f64..1000.0, c in 0.0_f64..1000.0) {
        // Restrict to values whose products stay exactly representable enough
        // for associativity to hold bit-for-bit.
        let quantise = |v: f64| Multiplicity::new((v / 8.0).round().max(0.0));
        check_laws::<MaxTimes>(quantise(a), quantise(b), quantise(c));
    }

    #[test]
    fn boolean_laws(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        check_laws::<BooleanDioid>(BoolRank(a), BoolRank(b), BoolRank(c));
    }

    #[test]
    fn lexicographic_laws(
        a in (0u32..4, -50i64..50),
        b in (0u32..4, -50i64..50),
        c in (0u32..4, -50i64..50),
    ) {
        check_laws::<Lexicographic>(
            LexVec::unit(a.0, a.1),
            LexVec::unit(b.0, b.1),
            LexVec::unit(c.0, c.1),
        );
    }
}

#[test]
fn plus_of_equal_elements_is_idempotent() {
    let x = OrderedF64::from(5.0);
    assert_eq!(TropicalMin::plus(&x, &x), x);
    assert_eq!(
        BooleanDioid::plus(&BoolRank(true), &BoolRank(true)),
        BoolRank(true)
    );
}
