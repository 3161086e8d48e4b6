//! Polynomials over GF(2) as bit vectors: irreducibility and
//! primitivity search, compiled for unit tests and doctests only.
//!
//! [`crate::primitive`] carries one conventional primitive polynomial per
//! width; this module *derives* them — enumerate candidates, test
//! irreducibility by trial division, and test primitivity by element
//! order — so the tests below check the table from first principles.

use crate::primitive::is_primitive;

/// Degree of a GF(2) polynomial given as a bit mask (`None` for zero).
fn degree(poly: u64) -> Option<u32> {
    if poly == 0 {
        None
    } else {
        Some(63 - poly.leading_zeros())
    }
}

/// Carry-less product of two GF(2) polynomials.
fn multiply(a: u64, b: u64) -> u64 {
    let mut acc = 0u64;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        b >>= 1;
    }
    acc
}

/// Remainder of `a` modulo `b` over GF(2).
///
/// # Panics
///
/// Panics if `b == 0`.
fn remainder(a: u64, b: u64) -> u64 {
    let db = degree(b).expect("division by zero polynomial");
    let mut r = a;
    while let Some(dr) = degree(r) {
        if dr < db {
            break;
        }
        r ^= b << (dr - db);
    }
    r
}

/// True when `poly` (degree ≥ 1) is irreducible over GF(2), by trial
/// division with every polynomial of degree up to `deg/2`.
///
/// Intended for the code-parameter range (degree ≤ 16), where the scan
/// is instant.
fn is_irreducible(poly: u64) -> bool {
    let Some(d) = degree(poly) else {
        return false;
    };
    if d == 0 {
        return false; // constants are units, not irreducible
    }
    // Divisible by x ⇔ constant term 0.
    if poly & 1 == 0 {
        return poly == 0b10; // x itself is irreducible
    }
    for divisor in 2..=(1u64 << (d / 2 + 1)) {
        if degree(divisor).is_some_and(|dd| dd >= 1 && dd <= d / 2) && remainder(poly, divisor) == 0
        {
            return false;
        }
    }
    true
}

/// Enumerates every primitive polynomial of degree `m` (for GF(2^m)),
/// in increasing numeric order.
///
/// # Examples
///
/// This module is private, so the example runs the same scan through
/// the public primitivity test:
///
/// ```
/// use rsmem_gf::primitive::is_primitive;
///
/// let all4: Vec<u32> = (1u32 << 4..1 << 5).filter(|&p| is_primitive(p, 4)).collect();
/// assert_eq!(all4, vec![0x13, 0x19]); // x^4+x+1 and x^4+x^3+1
/// ```
fn primitive_polynomials(m: u32) -> Vec<u32> {
    if !(2..=16).contains(&m) {
        return Vec::new();
    }
    let lo = 1u32 << m;
    let hi = 1u32 << (m + 1);
    (lo..hi).filter(|&p| is_primitive(p, m)).collect()
}

/// The smallest primitive polynomial of degree `m`, found by search.
fn smallest_primitive(m: u32) -> Option<u32> {
    primitive_polynomials(m).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::DEFAULT_POLYNOMIALS;

    #[test]
    fn degree_of_bit_patterns() {
        assert_eq!(degree(0), None);
        assert_eq!(degree(1), Some(0));
        assert_eq!(degree(0b10), Some(1));
        assert_eq!(degree(0x11d), Some(8));
    }

    #[test]
    fn multiply_matches_hand_examples() {
        // (x + 1)(x + 1) = x² + 1 over GF(2).
        assert_eq!(multiply(0b11, 0b11), 0b101);
        // (x² + x + 1)(x + 1) = x³ + 1.
        assert_eq!(multiply(0b111, 0b11), 0b1001);
        assert_eq!(multiply(0, 0xff), 0);
    }

    #[test]
    fn remainder_matches_long_division() {
        // x³ + 1 mod x² + x + 1 = remainder of (x+1)(x²+x+1): 0.
        assert_eq!(remainder(0b1001, 0b111), 0);
        // x³ mod x² + 1 = x·(x²) → x·1 = x.
        assert_eq!(remainder(0b1000, 0b101), 0b10);
    }

    #[test]
    fn irreducibility_classifies_small_cases() {
        assert!(is_irreducible(0b10)); // x
        assert!(is_irreducible(0b11)); // x + 1
        assert!(is_irreducible(0b111)); // x² + x + 1
        assert!(!is_irreducible(0b101)); // x² + 1 = (x+1)²
        assert!(!is_irreducible(0b110)); // x² + x = x(x+1)
        assert!(is_irreducible(0b1011)); // x³ + x + 1
        assert!(is_irreducible(0x1f)); // x⁴+x³+x²+x+1 (irreducible, imprimitive)
        assert!(!is_irreducible(0x11)); // x⁴ + 1 = (x+1)⁴
        assert!(!is_irreducible(1)); // constants excluded
        assert!(!is_irreducible(0));
    }

    #[test]
    fn every_primitive_is_irreducible_but_not_conversely() {
        assert_eq!(primitive_polynomials(4), vec![0x13, 0x19]); // x^4+x+1 and x^4+x^3+1
        for &p in &primitive_polynomials(4) {
            assert!(is_irreducible(p as u64));
        }
        // x⁴+x³+x²+x+1 is irreducible with root order 5 — not primitive.
        assert!(is_irreducible(0x1f));
        assert!(!primitive_polynomials(4).contains(&0x1f));
    }

    #[test]
    fn search_recovers_the_default_table() {
        // Every table entry must appear in the search output.
        for m in 2..=12u32 {
            let found = primitive_polynomials(m);
            let table = DEFAULT_POLYNOMIALS[(m - 2) as usize];
            assert!(
                found.contains(&table),
                "table poly {table:#x} for m={m} not found by search"
            );
        }
    }

    #[test]
    fn primitive_counts_match_euler_totient() {
        // #primitive polynomials of degree m = φ(2^m − 1)/m.
        fn phi(mut n: u32) -> u32 {
            let mut result = n;
            let mut p = 2;
            while p * p <= n {
                if n.is_multiple_of(p) {
                    while n.is_multiple_of(p) {
                        n /= p;
                    }
                    result -= result / p;
                }
                p += 1;
            }
            if n > 1 {
                result -= result / n;
            }
            result
        }
        for m in 2..=10u32 {
            let expect = phi((1u32 << m) - 1) / m;
            let got = primitive_polynomials(m).len() as u32;
            assert_eq!(got, expect, "m={m}");
        }
    }

    #[test]
    fn smallest_primitive_builds_a_working_field() {
        use crate::GfField;
        for m in [3u32, 5, 8] {
            let poly = smallest_primitive(m).expect("exists");
            let field = GfField::with_polynomial(m, poly).expect("primitive by search");
            assert_eq!(field.size(), 1 << m);
            // α generates: α^(order) = 1 and α^k ≠ 1 before that is
            // exactly what primitivity verified; spot-check inverses.
            for a in 1..field.size() as u16 {
                assert_eq!(field.mul(a, field.inv(a).unwrap()), 1);
            }
        }
    }

    #[test]
    fn out_of_range_degrees_yield_empty() {
        assert!(primitive_polynomials(1).is_empty());
        assert!(primitive_polynomials(17).is_empty());
        assert!(smallest_primitive(0).is_none());
    }
}
