//! Polynomial arithmetic over caller-owned coefficient buffers.
//!
//! The decode core keeps every polynomial in a reusable `Vec<Symbol>`,
//! constant term first and normalised like [`rsmem_gf::Poly`] (no
//! trailing zero; the zero polynomial is empty), so degrees read the
//! same as on `Poly`. Each helper clears and refills its output, which
//! allocates nothing once the buffer has grown to the code's size.

use rsmem_gf::{GfField, Symbol};

/// Drops trailing zero coefficients.
pub(crate) fn trim(p: &mut Vec<Symbol>) {
    while p.last() == Some(&0) {
        p.pop();
    }
}

/// Degree, treating the zero polynomial as degree 0 (as
/// `Poly::degree_or_zero` does).
pub(crate) fn degree_or_zero(p: &[Symbol]) -> usize {
    p.len().saturating_sub(1)
}

/// `out = (a·b) mod x^k`, normalised. Pass `k = usize::MAX` for the
/// full product.
pub(crate) fn mul_mod_into(
    field: &GfField,
    a: &[Symbol],
    b: &[Symbol],
    k: usize,
    out: &mut Vec<Symbol>,
) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    out.resize((a.len() + b.len() - 1).min(k), 0);
    for (i, &x) in a.iter().enumerate().take(out.len()) {
        if x == 0 {
            continue;
        }
        for (o, &y) in out[i..].iter_mut().zip(b) {
            *o ^= field.mul(x, y);
        }
    }
    trim(out);
}

/// `acc += c·x^shift·p`, growing `acc` as needed and normalising it.
pub(crate) fn add_scaled_shifted(
    field: &GfField,
    acc: &mut Vec<Symbol>,
    c: Symbol,
    shift: usize,
    p: &[Symbol],
) {
    if c == 0 || p.is_empty() {
        return;
    }
    if acc.len() < shift + p.len() {
        acc.resize(shift + p.len(), 0);
    }
    for (a, &y) in acc[shift..].iter_mut().zip(p) {
        *a ^= field.mul(c, y);
    }
    trim(acc);
}

/// Horner evaluation of `p` at `x`.
pub(crate) fn eval(field: &GfField, p: &[Symbol], x: Symbol) -> Symbol {
    p.iter().rev().fold(0, |acc, &c| field.mul(acc, x) ^ c)
}

/// The formal derivative of `p` evaluated at `x`. In characteristic 2
/// it keeps the odd-degree terms: `p'(x) = Σ_{i odd} p_i x^{i−1}`, a
/// polynomial in `x²`.
pub(crate) fn eval_derivative(field: &GfField, p: &[Symbol], x: Symbol) -> Symbol {
    let x2 = field.mul(x, x);
    p.iter()
        .skip(1)
        .step_by(2)
        .rev()
        .fold(0, |acc, &c| field.mul(acc, x2) ^ c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsmem_gf::Poly;

    fn field() -> GfField {
        GfField::new(8).unwrap()
    }

    #[test]
    fn products_match_poly() {
        let f = field();
        let cases: [(&[Symbol], &[Symbol]); 4] = [
            (&[1, 2, 3], &[4, 5]),
            (&[0, 0, 7], &[9]),
            (&[], &[1, 2]),
            (&[0x53, 0, 0xca, 1], &[1, 0x8e, 0, 0x11]),
        ];
        let mut out = Vec::new();
        for (a, b) in cases {
            let full =
                Poly::from_coeffs(a.iter().copied()).mul(&Poly::from_coeffs(b.iter().copied()), &f);
            mul_mod_into(&f, a, b, usize::MAX, &mut out);
            assert_eq!(out, full.coeffs());
            for k in 0..6 {
                mul_mod_into(&f, a, b, k, &mut out);
                assert_eq!(out, full.truncate_mod_xk(k).coeffs(), "k={k}");
            }
        }
    }

    #[test]
    fn scaled_shifted_add_matches_poly() {
        let f = field();
        let p = Poly::from_coeffs([3, 0, 5]);
        let b = Poly::from_coeffs([1, 7]);
        for shift in 0..4 {
            let expect = p.add(&b.scale(0x1d, &f).shift_up(shift), &f);
            let mut acc = p.coeffs().to_vec();
            add_scaled_shifted(&f, &mut acc, 0x1d, shift, b.coeffs());
            assert_eq!(acc, expect.coeffs(), "shift={shift}");
        }
        // Cancelling the leading term normalises the result.
        let mut acc = vec![1, 2];
        add_scaled_shifted(&f, &mut acc, 1, 1, &[2]);
        assert_eq!(acc, vec![1]);
    }

    #[test]
    fn evaluation_and_derivative_match_poly() {
        let f = field();
        let p = Poly::from_coeffs([0x11, 0x22, 0x33, 0x44, 0x55, 0x66]);
        let d = p.derivative(&f);
        for x in [0, 1, 2, 0x80, 0xff] {
            assert_eq!(eval(&f, p.coeffs(), x), p.eval(&f, x));
            assert_eq!(eval_derivative(&f, p.coeffs(), x), d.eval(&f, x));
        }
        assert_eq!(eval_derivative(&f, &[], 3), 0);
        assert_eq!(eval_derivative(&f, &[9], 3), 0);
        assert_eq!(degree_or_zero(&[]), 0);
        assert_eq!(degree_or_zero(&[1, 2]), 1);
    }
}
