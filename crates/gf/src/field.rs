//! Table-driven GF(2^m) field arithmetic.

use crate::primitive::{self, clmul_mod};
use crate::{GfError, Symbol};

/// A concrete finite field GF(2^m), `2 <= m <= 16`.
///
/// The field precomputes logarithm and antilogarithm tables with respect to
/// the primitive element `α = x`, so multiplication, division, inversion and
/// exponentiation are O(1) table lookups. Addition is bitwise XOR
/// (characteristic 2).
///
/// # Examples
///
/// ```
/// use rsmem_gf::GfField;
///
/// # fn main() -> Result<(), rsmem_gf::GfError> {
/// let f = GfField::new(4)?;
/// assert_eq!(f.size(), 16);
/// assert_eq!(f.add(0b1010, 0b0110), 0b1100);
/// assert_eq!(f.mul(f.alpha(), f.alpha()), f.alpha_pow(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfField {
    m: u32,
    size: u32,
    prim_poly: u32,
    /// `exp[i] = α^i` for `i in 0..2*(size-1)` (doubled to skip a modulo).
    exp: Vec<Symbol>,
    /// `log[a] = i` such that `α^i = a`; `log[0]` is a sentinel (unused).
    log: Vec<u32>,
}

impl GfField {
    /// Constructs GF(2^m) with the conventional primitive polynomial from
    /// [`crate::primitive::default_polynomial`].
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedWidth`] if `m` is outside `2..=16`.
    pub fn new(m: u32) -> Result<Self, GfError> {
        let poly = primitive::default_polynomial(m)?;
        Self::with_polynomial(m, poly)
    }

    /// Constructs GF(2^m) from a caller-supplied primitive polynomial
    /// (including its leading `x^m` term).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedWidth`] for bad `m`, or
    /// [`GfError::NotPrimitive`] if `poly` does not generate the field.
    pub(crate) fn with_polynomial(m: u32, poly: u32) -> Result<Self, GfError> {
        if !(2..=16).contains(&m) {
            return Err(GfError::UnsupportedWidth { m });
        }
        if !primitive::is_primitive(poly, m) {
            return Err(GfError::NotPrimitive { poly, m });
        }
        let size: u32 = 1 << m;
        let order = size - 1;
        let mut exp = vec![0 as Symbol; (2 * order) as usize];
        let mut log = vec![0u32; size as usize];
        let mut value: u32 = 1;
        for i in 0..order {
            exp[i as usize] = value as Symbol;
            exp[(i + order) as usize] = value as Symbol;
            log[value as usize] = i;
            value <<= 1;
            if value & size != 0 {
                value ^= poly;
            }
        }
        Ok(GfField {
            m,
            size,
            prim_poly: poly,
            exp,
            log,
        })
    }

    /// Symbol width `m` in bits.
    pub fn bits(&self) -> u32 {
        self.m
    }

    /// Number of field elements, `2^m`.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Order of the multiplicative group, `2^m − 1`.
    pub fn order(&self) -> u32 {
        self.size - 1
    }

    /// The primitive element `α` (the residue of `x`).
    pub fn alpha(&self) -> Symbol {
        2
    }

    /// `α^i`, with `i` reduced modulo the group order. Negative powers are
    /// expressed by [`GfField::alpha_pow_signed`].
    pub fn alpha_pow(&self, i: u32) -> Symbol {
        self.exp[(i % self.order()) as usize]
    }

    /// `α^i` for a possibly negative exponent.
    pub fn alpha_pow_signed(&self, i: i64) -> Symbol {
        let order = self.order() as i64;
        let r = i.rem_euclid(order);
        self.exp[r as usize]
    }

    /// True if `a` is a valid symbol of this field.
    pub fn contains(&self, a: Symbol) -> bool {
        (a as u32) < self.size
    }

    /// Validates a symbol, returning it unchanged.
    ///
    /// # Errors
    ///
    /// [`GfError::SymbolOutOfRange`] when `a >= 2^m`.
    pub fn check(&self, a: Symbol) -> Result<Symbol, GfError> {
        if self.contains(a) {
            Ok(a)
        } else {
            Err(GfError::SymbolOutOfRange {
                value: a as u32,
                size: self.size,
            })
        }
    }

    /// Field addition (bitwise XOR).
    #[inline]
    pub fn add(&self, a: Symbol, b: Symbol) -> Symbol {
        debug_assert!(self.contains(a) && self.contains(b));
        a ^ b
    }

    /// Field subtraction — identical to addition in characteristic 2.
    #[inline]
    pub fn sub(&self, a: Symbol, b: Symbol) -> Symbol {
        self.add(a, b)
    }

    /// Field multiplication via log/antilog tables.
    #[inline]
    pub fn mul(&self, a: Symbol, b: Symbol) -> Symbol {
        debug_assert!(self.contains(a) && self.contains(b));
        if a == 0 || b == 0 {
            return 0;
        }
        let idx = self.log[a as usize] + self.log[b as usize];
        self.exp[idx as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Errors
    ///
    /// [`GfError::DivisionByZero`] when `b == 0`.
    #[inline]
    pub fn div(&self, a: Symbol, b: Symbol) -> Result<Symbol, GfError> {
        debug_assert!(self.contains(a) && self.contains(b));
        if b == 0 {
            return Err(GfError::DivisionByZero);
        }
        if a == 0 {
            return Ok(0);
        }
        let order = self.order();
        let idx = self.log[a as usize] + order - self.log[b as usize];
        Ok(self.exp[idx as usize])
    }

    /// Multiplicative inverse of `a`.
    ///
    /// # Errors
    ///
    /// [`GfError::DivisionByZero`] when `a == 0`.
    #[inline]
    pub fn inv(&self, a: Symbol) -> Result<Symbol, GfError> {
        self.div(1, a)
    }

    /// `a^e` by table exponent arithmetic (`0^0 == 1` by convention).
    pub fn pow(&self, a: Symbol, e: u64) -> Symbol {
        debug_assert!(self.contains(a));
        if e == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let order = self.order() as u64;
        let idx = (self.log[a as usize] as u64 * (e % order)) % order;
        self.exp[idx as usize]
    }

    /// Discrete logarithm of `a` base `α`.
    ///
    /// # Errors
    ///
    /// [`GfError::LogOfZero`] when `a == 0`.
    pub fn log(&self, a: Symbol) -> Result<u32, GfError> {
        debug_assert!(self.contains(a));
        if a == 0 {
            return Err(GfError::LogOfZero);
        }
        Ok(self.log[a as usize])
    }

    /// Reference multiply using carry-less multiplication and reduction,
    /// bypassing the tables. Used by the test-suite as an oracle.
    pub fn mul_reference(&self, a: Symbol, b: Symbol) -> Symbol {
        clmul_mod(a as u32, b as u32, self.prim_poly, self.m) as Symbol
    }

    /// Iterator over every element of the field, `0..2^m`.
    pub(crate) fn elements(&self) -> impl Iterator<Item = Symbol> + '_ {
        0..self.size as Symbol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gf16() -> GfField {
        GfField::new(4).expect("GF(16)")
    }

    #[test]
    fn construction_rejects_bad_width() {
        assert!(matches!(
            GfField::new(1),
            Err(GfError::UnsupportedWidth { m: 1 })
        ));
        assert!(GfField::new(17).is_err());
    }

    #[test]
    fn construction_rejects_non_primitive_poly() {
        assert!(matches!(
            GfField::with_polynomial(4, 0x11),
            Err(GfError::NotPrimitive { .. })
        ));
    }

    #[test]
    fn table_multiply_matches_reference_exhaustively_gf16() {
        let f = gf16();
        for a in f.elements() {
            for b in f.elements() {
                assert_eq!(f.mul(a, b), f.mul_reference(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn table_multiply_matches_reference_sampled_gf256() {
        let f = GfField::new(8).unwrap();
        for a in (0..256).step_by(7) {
            for b in (0..256).step_by(11) {
                let (a, b) = (a as Symbol, b as Symbol);
                assert_eq!(f.mul(a, b), f.mul_reference(a, b));
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        let f = gf16();
        for a in 1..f.size() as Symbol {
            let inv = f.inv(a).expect("nonzero invertible");
            assert_eq!(f.mul(a, inv), 1, "a={a}");
        }
    }

    #[test]
    fn zero_has_no_inverse() {
        assert_eq!(gf16().inv(0), Err(GfError::DivisionByZero));
        assert_eq!(gf16().div(5, 0), Err(GfError::DivisionByZero));
    }

    #[test]
    fn log_exp_roundtrip() {
        let f = gf16();
        for a in 1..f.size() as Symbol {
            let l = f.log(a).unwrap();
            assert_eq!(f.alpha_pow(l), a);
        }
        assert_eq!(f.log(0), Err(GfError::LogOfZero));
    }

    #[test]
    fn pow_agrees_with_repeated_multiplication() {
        let f = GfField::new(5).unwrap();
        for a in f.elements() {
            let mut acc: Symbol = 1;
            for e in 0..10u64 {
                assert_eq!(f.pow(a, e), acc, "a={a} e={e}");
                acc = f.mul(acc, a);
            }
        }
    }

    #[test]
    fn pow_matches_naive_loop_for_large_and_wrapping_exponents() {
        // Property pin for the log-domain exponentiation: for every base,
        // `pow(a, e)` must equal the naive repeated product for exponents
        // spanning several multiples of the group order (the `e % order`
        // reduction is where an off-by-one would hide).
        let f = GfField::new(4).unwrap();
        let span = 3 * f.order() as u64 + 5;
        for a in f.elements() {
            let mut acc: Symbol = 1;
            for e in 0..span {
                assert_eq!(f.pow(a, e), acc, "a={a} e={e}");
                acc = f.mul(acc, a);
            }
        }
        // 0^0 == 1 by convention, 0^e == 0 otherwise.
        assert_eq!(f.pow(0, 0), 1);
        assert_eq!(f.pow(0, 7), 0);
    }

    #[test]
    fn alpha_pow_signed_handles_negatives() {
        let f = gf16();
        let order = f.order() as i64;
        for i in -40..40i64 {
            assert_eq!(
                f.alpha_pow_signed(i),
                f.alpha_pow(i.rem_euclid(order) as u32)
            );
        }
    }

    #[test]
    fn addition_is_self_inverse() {
        let f = gf16();
        for a in f.elements() {
            for b in f.elements() {
                assert_eq!(f.add(f.add(a, b), b), a);
            }
        }
    }

    #[test]
    fn field_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GfField>();
    }
}
