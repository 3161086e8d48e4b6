//! Dense univariate polynomials over GF(2^m).

use crate::{GfError, GfField, Symbol};
use std::fmt;

/// A polynomial over GF(2^m), stored dense with the constant term first.
///
/// The representation is kept *normalized*: the coefficient vector never
/// ends in a zero, and the zero polynomial is the empty vector. All
/// arithmetic takes the [`GfField`] explicitly; mixing polynomials from
/// different fields is a logic error that `debug_assert`s guard against
/// (coefficients out of range).
///
/// # Examples
///
/// ```
/// use rsmem_gf::{GfField, Poly};
///
/// # fn main() -> Result<(), rsmem_gf::GfError> {
/// let f = GfField::new(4)?;
/// let p = Poly::from_coeffs([1, 0, 1]);         // 1 + x^2
/// let q = Poly::from_coeffs([1, 1]);            // 1 + x
/// let prod = p.mul(&q, &f);
/// assert_eq!(prod.eval(&f, 1), 0);              // x=1 is a root of 1+x
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<Symbol>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { coeffs: vec![1] }
    }

    /// A constant polynomial `c`.
    pub fn constant(c: Symbol) -> Self {
        if c == 0 {
            Poly::zero()
        } else {
            Poly { coeffs: vec![c] }
        }
    }

    /// The monomial `c · x^k`.
    pub fn monomial(c: Symbol, k: usize) -> Self {
        if c == 0 {
            return Poly::zero();
        }
        let mut coeffs = vec![0; k + 1];
        coeffs[k] = c;
        Poly { coeffs }
    }

    /// Builds a polynomial from coefficients, constant term first, trimming
    /// trailing zeros.
    pub fn from_coeffs<I: IntoIterator<Item = Symbol>>(coeffs: I) -> Self {
        let mut coeffs: Vec<Symbol> = coeffs.into_iter().collect();
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The coefficients, constant term first (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[Symbol] {
        &self.coeffs
    }

    /// Coefficient of `x^k` (zero beyond the stored degree).
    pub fn coeff(&self, k: usize) -> Symbol {
        self.coeffs.get(k).copied().unwrap_or(0)
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Degree treating the zero polynomial as degree 0 — convenient for
    /// bound computations in decoder loops.
    pub fn degree_or_zero(&self) -> usize {
        self.degree().unwrap_or(0)
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Leading coefficient (`None` for the zero polynomial).
    fn leading_coeff(&self) -> Option<Symbol> {
        self.coeffs.last().copied()
    }

    fn normalize(&mut self) {
        while self.coeffs.last() == Some(&0) {
            self.coeffs.pop();
        }
    }

    /// Polynomial addition (== subtraction in characteristic 2).
    pub fn add(&self, other: &Poly, _field: &GfField) -> Poly {
        let (longer, shorter) = if self.coeffs.len() >= other.coeffs.len() {
            (&self.coeffs, &other.coeffs)
        } else {
            (&other.coeffs, &self.coeffs)
        };
        let mut out = longer.clone();
        for (o, s) in out.iter_mut().zip(shorter.iter()) {
            *o ^= s;
        }
        let mut p = Poly { coeffs: out };
        p.normalize();
        p
    }

    /// Polynomial subtraction — identical to [`Poly::add`] over GF(2^m).
    pub fn sub(&self, other: &Poly, field: &GfField) -> Poly {
        self.add(other, field)
    }

    /// Schoolbook product.
    pub fn mul(&self, other: &Poly, field: &GfField) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0 as Symbol; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] ^= field.mul(a, b);
            }
        }
        let mut p = Poly { coeffs: out };
        p.normalize();
        p
    }

    /// Multiplies every coefficient by the scalar `c`.
    pub fn scale(&self, c: Symbol, field: &GfField) -> Poly {
        if c == 0 {
            return Poly::zero();
        }
        Poly {
            coeffs: self.coeffs.iter().map(|&a| field.mul(a, c)).collect(),
        }
    }

    /// Multiplies by `x^k` (shifts coefficients up).
    pub fn shift_up(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![0 as Symbol; k];
        coeffs.extend_from_slice(&self.coeffs);
        Poly { coeffs }
    }

    /// The residue modulo `x^k` (truncates to the low `k` coefficients).
    pub fn truncate_mod_xk(&self, k: usize) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().copied().take(k))
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q·divisor + r` and `deg r < deg divisor`.
    ///
    /// # Errors
    ///
    /// [`GfError::DivisionByZero`] when `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly, field: &GfField) -> Result<(Poly, Poly), GfError> {
        let dlead = divisor.leading_coeff().ok_or(GfError::DivisionByZero)?;
        let ddeg = divisor.degree().expect("nonzero divisor has a degree");
        if self.degree().is_none_or(|d| d < ddeg) {
            return Ok((Poly::zero(), self.clone()));
        }
        let dlead_inv = field.inv(dlead)?;
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0 as Symbol; rem.len() - ddeg];
        for i in (ddeg..rem.len()).rev() {
            let c = rem[i];
            if c == 0 {
                continue;
            }
            let q = field.mul(c, dlead_inv);
            quot[i - ddeg] = q;
            for (j, &dcoef) in divisor.coeffs.iter().enumerate() {
                rem[i - ddeg + j] ^= field.mul(q, dcoef);
            }
        }
        let mut qp = Poly { coeffs: quot };
        qp.normalize();
        let mut rp = Poly { coeffs: rem };
        rp.normalize();
        Ok((qp, rp))
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, field: &GfField, x: Symbol) -> Symbol {
        let mut acc: Symbol = 0;
        for &c in self.coeffs.iter().rev() {
            acc = field.mul(acc, x) ^ c;
        }
        acc
    }

    /// Formal derivative. In characteristic 2 the derivative keeps exactly
    /// the odd-degree coefficients, shifted down one position.
    pub fn derivative(&self, _field: &GfField) -> Poly {
        let coeffs: Vec<Symbol> = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| if i % 2 == 1 { c } else { 0 })
            .collect();
        Poly::from_coeffs(coeffs)
    }

    /// Builds the monic polynomial `∏ (x − r)` over the given roots.
    /// (Over GF(2^m), `x − r == x + r`.)
    pub fn from_roots<I: IntoIterator<Item = Symbol>>(roots: I, field: &GfField) -> Poly {
        let mut acc = Poly::one();
        for r in roots {
            let factor = Poly::from_coeffs([r, 1]);
            acc = acc.mul(&factor, field);
        }
        acc
    }

    /// Finds all roots by exhaustive evaluation over the field.
    ///
    /// For decoder-sized fields (m ≤ 16) this is the classical Chien-search
    /// strategy; the RS codec restricts the scan to codeword positions.
    pub fn roots(&self, field: &GfField) -> Vec<Symbol> {
        if self.is_zero() {
            return Vec::new();
        }
        field
            .elements()
            .filter(|&x| self.eval(field, x) == 0)
            .collect()
    }

    /// Partial extended Euclidean algorithm, the core of the Sugiyama
    /// decoder.
    ///
    /// Starting from `r_{-1} = a`, `r_0 = b`, iterates the Euclidean
    /// remainder sequence until `deg r < stop_deg`, maintaining
    /// `v` with `r ≡ v·b (mod a)`. Returns `(r, v)` at the stopping point.
    ///
    /// # Errors
    ///
    /// Propagates [`GfError::DivisionByZero`] if `b` is zero while `a`
    /// still has degree `>= stop_deg` (no remainder sequence exists).
    pub fn partial_xgcd(
        a: &Poly,
        b: &Poly,
        stop_deg: usize,
        field: &GfField,
    ) -> Result<(Poly, Poly), GfError> {
        let mut r_prev = a.clone();
        let mut r = b.clone();
        let mut v_prev = Poly::zero();
        let mut v = Poly::one();
        while r.degree().is_some_and(|d| d >= stop_deg) {
            let (q, rem) = r_prev.div_rem(&r, field)?;
            let v_next = v_prev.add(&q.mul(&v, field), field);
            r_prev = std::mem::replace(&mut r, rem);
            v_prev = std::mem::replace(&mut v, v_next);
        }
        if r.is_zero() && stop_deg == 0 {
            return Ok((r, v));
        }
        Ok((r, v))
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{c:#x}")?,
                1 => write!(f, "{c:#x}·x")?,
                _ => write!(f, "{c:#x}·x^{i}")?,
            }
        }
        Ok(())
    }
}

impl FromIterator<Symbol> for Poly {
    fn from_iter<I: IntoIterator<Item = Symbol>>(iter: I) -> Self {
        Poly::from_coeffs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f16() -> GfField {
        GfField::new(4).unwrap()
    }

    #[test]
    fn zero_and_one_shapes() {
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::one().degree(), Some(0));
        assert_eq!(Poly::constant(0), Poly::zero());
        assert_eq!(Poly::monomial(0, 5), Poly::zero());
        assert_eq!(Poly::monomial(3, 2).coeffs(), &[0, 0, 3]);
    }

    #[test]
    fn from_coeffs_trims_trailing_zeros() {
        let p = Poly::from_coeffs([1, 2, 0, 0]);
        assert_eq!(p.coeffs(), &[1, 2]);
        assert_eq!(p.degree(), Some(1));
    }

    #[test]
    fn add_is_xor_and_self_inverse() {
        let f = f16();
        let p = Poly::from_coeffs([1, 2, 3]);
        let q = Poly::from_coeffs([3, 2, 1, 7]);
        let s = p.add(&q, &f);
        assert_eq!(s.add(&q, &f), p);
        assert_eq!(p.add(&p, &f), Poly::zero());
    }

    #[test]
    fn mul_degree_adds() {
        let f = f16();
        let p = Poly::from_coeffs([1, 1]); // 1 + x
        let q = Poly::from_coeffs([2, 0, 5]); // 2 + 5x^2
        assert_eq!(p.mul(&q, &f).degree(), Some(3));
        assert_eq!(p.mul(&Poly::zero(), &f), Poly::zero());
    }

    #[test]
    fn div_rem_roundtrips() {
        let f = f16();
        let a = Poly::from_coeffs([7, 3, 0, 1, 9]);
        let b = Poly::from_coeffs([2, 1, 4]);
        let (q, r) = a.div_rem(&b, &f).unwrap();
        assert!(r.degree().is_none_or(|d| d < b.degree().unwrap()));
        let recombined = q.mul(&b, &f).add(&r, &f);
        assert_eq!(recombined, a);
    }

    #[test]
    fn div_by_zero_fails() {
        let f = f16();
        let a = Poly::from_coeffs([1, 2]);
        assert!(a.div_rem(&Poly::zero(), &f).is_err());
    }

    #[test]
    fn eval_constant_and_linear() {
        let f = f16();
        assert_eq!(Poly::constant(9).eval(&f, 5), 9);
        // p(x) = 3 + x at x=3 is 3 + 3 = 0.
        assert_eq!(Poly::from_coeffs([3, 1]).eval(&f, 3), 0);
    }

    #[test]
    fn from_roots_vanishes_exactly_on_roots() {
        let f = f16();
        let roots = [1 as Symbol, 5, 9];
        let p = Poly::from_roots(roots, &f);
        assert_eq!(p.degree(), Some(3));
        for x in f.elements() {
            let is_root = roots.contains(&x);
            assert_eq!(p.eval(&f, x) == 0, is_root, "x={x}");
        }
        assert_eq!(p.roots(&f).len(), 3);
    }

    #[test]
    fn derivative_drops_even_terms() {
        let f = f16();
        // p = c0 + c1 x + c2 x^2 + c3 x^3 → p' = c1 + c3 x^2 (char 2).
        let p = Poly::from_coeffs([4, 5, 6, 7]);
        let d = p.derivative(&f);
        assert_eq!(d.coeffs(), &[5, 0, 7]);
    }

    #[test]
    fn derivative_product_rule_on_squares() {
        // (p^2)' = 2 p p' = 0 in characteristic 2.
        let f = f16();
        let p = Poly::from_coeffs([3, 1, 7]);
        let sq = p.mul(&p, &f);
        assert_eq!(sq.derivative(&f), Poly::zero());
    }

    #[test]
    fn shift_and_truncate() {
        let p = Poly::from_coeffs([1, 2]);
        assert_eq!(p.shift_up(2).coeffs(), &[0, 0, 1, 2]);
        let t = Poly::from_coeffs([1, 2, 3, 4]).truncate_mod_xk(2);
        assert_eq!(t.coeffs(), &[1, 2]);
    }

    #[test]
    fn partial_xgcd_invariant_holds() {
        // r ≡ v·b (mod a) at every stopping degree.
        let f = f16();
        let a = Poly::monomial(1, 6); // x^6
        let b = Poly::from_coeffs([3, 1, 4, 1, 5, 9]);
        for stop in 0..6 {
            let (r, v) = Poly::partial_xgcd(&a, &b, stop, &f).unwrap();
            let lhs = r;
            let rhs = v.mul(&b, &f).div_rem(&a, &f).unwrap().1;
            assert_eq!(lhs, rhs, "stop={stop}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Poly::zero().to_string(), "0");
        let s = Poly::from_coeffs([1, 0, 2]).to_string();
        assert!(s.contains("x^2"), "{s}");
    }
}
