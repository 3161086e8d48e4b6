//! Property-based tests for GF(2^m) field axioms and polynomial algebra.

use proptest::prelude::*;
use rsmem_gf::{GfField, Poly, Symbol};

fn field_m() -> impl Strategy<Value = u32> {
    // Keep the exhaustive-ish properties cheap: small-to-medium widths.
    prop_oneof![Just(3u32), Just(4), Just(5), Just(8)]
}

fn sym(size: u32) -> impl Strategy<Value = Symbol> {
    (0..size).prop_map(|v| v as Symbol)
}

fn poly(size: u32, max_len: usize) -> impl Strategy<Value = Poly> {
    prop::collection::vec(sym(size), 0..max_len).prop_map(Poly::from_coeffs)
}

proptest! {
    #[test]
    fn mul_matches_reference((m, seed) in field_m().prop_flat_map(|m| {
        (Just(m), prop::collection::vec(0u32..(1 << m), 16))
    })) {
        let f = GfField::new(m).unwrap();
        for pair in seed.chunks(2) {
            if let [a, b] = pair {
                let (a, b) = (*a as Symbol, *b as Symbol);
                prop_assert_eq!(f.mul(a, b), f.mul_reference(a, b));
            }
        }
    }

    #[test]
    fn mul_associative_and_commutative(m in field_m(), raw in prop::collection::vec(0u32..65536, 3)) {
        let f = GfField::new(m).unwrap();
        let a = (raw[0] % f.size()) as Symbol;
        let b = (raw[1] % f.size()) as Symbol;
        let c = (raw[2] % f.size()) as Symbol;
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    }

    #[test]
    fn distributivity(m in field_m(), raw in prop::collection::vec(0u32..65536, 3)) {
        let f = GfField::new(m).unwrap();
        let a = (raw[0] % f.size()) as Symbol;
        let b = (raw[1] % f.size()) as Symbol;
        let c = (raw[2] % f.size()) as Symbol;
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    }

    #[test]
    fn division_inverts_multiplication(m in field_m(), raw in prop::collection::vec(1u32..65536, 2)) {
        let f = GfField::new(m).unwrap();
        let a = (raw[0] % f.size()) as Symbol;
        let b = (1 + raw[1] % (f.size() - 1)) as Symbol; // nonzero
        let p = f.mul(a, b);
        prop_assert_eq!(f.div(p, b).unwrap(), a);
    }

    #[test]
    fn poly_mul_commutes(m in Just(4u32), a_raw in prop::collection::vec(0u32..16, 0..8), b_raw in prop::collection::vec(0u32..16, 0..8)) {
        let f = GfField::new(m).unwrap();
        let a = Poly::from_coeffs(a_raw.iter().map(|&v| v as Symbol));
        let b = Poly::from_coeffs(b_raw.iter().map(|&v| v as Symbol));
        prop_assert_eq!(a.mul(&b, &f), b.mul(&a, &f));
    }

    #[test]
    fn poly_mul_associative_and_distributive(
        m in field_m(),
        a_raw in prop::collection::vec(0u32..65536, 0..7),
        b_raw in prop::collection::vec(0u32..65536, 0..7),
        c_raw in prop::collection::vec(0u32..65536, 0..7),
    ) {
        let f = GfField::new(m).unwrap();
        let reduce = |raw: &[u32]| Poly::from_coeffs(raw.iter().map(|&v| (v % f.size()) as Symbol));
        let a = reduce(&a_raw);
        let b = reduce(&b_raw);
        let c = reduce(&c_raw);
        prop_assert_eq!(a.mul(&b, &f).mul(&c, &f), a.mul(&b.mul(&c, &f), &f));
        prop_assert_eq!(
            a.mul(&b.add(&c, &f), &f),
            a.mul(&b, &f).add(&a.mul(&c, &f), &f)
        );
    }

    #[test]
    fn poly_div_rem_roundtrip(a_raw in prop::collection::vec(0u32..16, 0..12), b_raw in prop::collection::vec(0u32..16, 1..6)) {
        let f = GfField::new(4).unwrap();
        let a = Poly::from_coeffs(a_raw.iter().map(|&v| v as Symbol));
        let b = Poly::from_coeffs(b_raw.iter().map(|&v| v as Symbol));
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b, &f).unwrap();
        prop_assert_eq!(q.mul(&b, &f).add(&r, &f), a);
        if let Some(rd) = r.degree() {
            prop_assert!(rd < b.degree().unwrap());
        }
    }

    #[test]
    fn eval_is_ring_homomorphism(x in 0u32..16, a_raw in prop::collection::vec(0u32..16, 0..8), b_raw in prop::collection::vec(0u32..16, 0..8)) {
        let f = GfField::new(4).unwrap();
        let x = x as Symbol;
        let a = Poly::from_coeffs(a_raw.iter().map(|&v| v as Symbol));
        let b = Poly::from_coeffs(b_raw.iter().map(|&v| v as Symbol));
        prop_assert_eq!(a.add(&b, &f).eval(&f, x), f.add(a.eval(&f, x), b.eval(&f, x)));
        prop_assert_eq!(a.mul(&b, &f).eval(&f, x), f.mul(a.eval(&f, x), b.eval(&f, x)));
    }

}

#[test]
fn poly_strategy_sanity() {
    // Non-proptest guard that the helper strategies build.
    let f = GfField::new(4).unwrap();
    let p = Poly::from_coeffs([1, 2, 3]);
    assert_eq!(p.eval(&f, 0), 1);
    // Silence dead-code warning for the unused generic helper.
    let _ = poly(16, 4);
}
