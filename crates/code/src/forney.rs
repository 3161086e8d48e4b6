//! Forney's algorithm for error/erasure magnitudes.

use crate::polyops::{eval, eval_derivative};
use crate::RsCode;
use rsmem_gf::Symbol;

/// Computes the correction magnitude at codeword position `pos` from the
/// combined locator `Ψ` and evaluator `Ω` satisfying
/// `Ψ(x)·S(x) ≡ Ω(x) (mod x^{2t})`:
///
/// ```text
/// e_pos = X^{1−b} · Ω(X^{−1}) / Ψ'(X^{−1}),     X = α^{pos}
/// ```
///
/// where `b` is the code's first consecutive root exponent. Returns
/// `None` when `Ψ'(X^{−1}) = 0`: Ψ has a repeated root, an
/// uncorrectable pattern.
pub(crate) fn magnitude_at(
    code: &RsCode,
    psi: &[Symbol],
    omega: &[Symbol],
    pos: usize,
) -> Option<Symbol> {
    let field = code.field();
    let x_inv = field.alpha_pow_signed(-(pos as i64));
    let den = eval_derivative(field, psi, x_inv);
    let ratio = field.div(eval(field, omega, x_inv), den).ok()?;
    let exp = (pos as i64) * (1 - code.first_root() as i64);
    Some(field.mul(field.alpha_pow_signed(exp), ratio))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polyops::mul_mod_into;
    use crate::syndrome::syndromes;

    /// Exhaustively verify Forney on every single-error pattern of a small
    /// code — this pins down the `X^{1−b}` convention.
    #[test]
    fn single_error_magnitudes_exact_for_fcr0() {
        single_error_check(RsCode::new(15, 9, 4).unwrap());
    }

    #[test]
    fn single_error_magnitudes_exact_for_fcr1() {
        single_error_check(RsCode::with_first_root(15, 9, 4, 1).unwrap());
    }

    fn single_error_check(code: RsCode) {
        let f = code.field().clone();
        let base = code.encode(&vec![0; code.k()]).unwrap();
        let mut omega = Vec::new();
        for pos in 0..code.n() {
            for val in 1..f.size() as Symbol {
                let mut word = base.clone();
                word[pos] ^= val;
                let s = syndromes(&code, &word);
                // For a single error, Ψ = 1 + X x with X = α^pos, and
                // Ω = Ψ·S mod x^{2t}.
                let psi = [1, f.alpha_pow(pos as u32)];
                mul_mod_into(&f, &psi, &s, code.parity_symbols(), &mut omega);
                let got = magnitude_at(&code, &psi, &omega, pos).unwrap();
                assert_eq!(got, val, "pos={pos} val={val} fcr={}", code.first_root());
            }
        }
    }
}
