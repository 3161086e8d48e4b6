//! Locator polynomials and root finding over codeword positions.

use crate::polyops::eval;
use crate::RsCode;
use rsmem_gf::Symbol;

/// Builds the erasure locator `Γ(x) = ∏_l (1 − X_l x)` into `out`, where
/// `X_l = α^{pos_l}` for each erased position.
pub(crate) fn erasure_locator_into(code: &RsCode, erasures: &[usize], out: &mut Vec<Symbol>) {
    let field = code.field();
    out.clear();
    out.push(1);
    for &pos in erasures {
        let x_l = field.alpha_pow(pos as u32);
        // Multiply by (1 + X_l x) in place — minus is plus in
        // characteristic 2. The new leading term X_l·Γ_top is non-zero.
        out.push(0);
        for i in (1..out.len()).rev() {
            out[i] ^= field.mul(x_l, out[i - 1]);
        }
    }
}

/// Chien-style search: collects into `out` the codeword positions `i`
/// such that `α^{−i}` is a root of `locator`, i.e. the positions the
/// locator points at.
///
/// The scan is restricted to `0..n`, which for shortened codes skips the
/// virtual (always-zero) positions. It stops early once `deg locator`
/// roots are found: a non-zero polynomial has no more roots than its
/// degree, so the rest of the scan could find none.
pub(crate) fn locator_positions_into(code: &RsCode, locator: &[Symbol], out: &mut Vec<usize>) {
    let field = code.field();
    out.clear();
    let degree = locator.len().saturating_sub(1);
    for i in 0..code.n() {
        if out.len() == degree && !locator.is_empty() {
            break;
        }
        let x_inv = field.alpha_pow_signed(-(i as i64));
        if eval(field, locator, x_inv) == 0 {
            out.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn erasure_locator(code: &RsCode, erasures: &[usize]) -> Vec<Symbol> {
        let mut out = Vec::new();
        erasure_locator_into(code, erasures, &mut out);
        out
    }

    fn locator_positions(code: &RsCode, locator: &[Symbol]) -> Vec<usize> {
        let mut out = Vec::new();
        locator_positions_into(code, locator, &mut out);
        out
    }

    #[test]
    fn erasure_locator_degree_equals_count() {
        let code = RsCode::new(15, 9, 4).unwrap();
        assert_eq!(erasure_locator(&code, &[]).len() - 1, 0);
        assert_eq!(erasure_locator(&code, &[2, 5, 9]).len() - 1, 3);
    }

    #[test]
    fn erasure_locator_roots_are_inverse_locators() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let positions = [0usize, 3, 14];
        let gamma = erasure_locator(&code, &positions);
        for &p in &positions {
            let x_inv = f.alpha_pow_signed(-(p as i64));
            assert_eq!(eval(f, &gamma, x_inv), 0, "position {p}");
        }
        // A non-erased position must not be a root.
        let x_inv = f.alpha_pow_signed(-7);
        assert_ne!(eval(f, &gamma, x_inv), 0);
        // The in-place product equals the Poly one.
        let expect = positions.iter().fold(rsmem_gf::Poly::one(), |acc, &p| {
            acc.mul(&rsmem_gf::Poly::from_coeffs([1, f.alpha_pow(p as u32)]), f)
        });
        assert_eq!(gamma, expect.coeffs());
    }

    #[test]
    fn locator_positions_roundtrip() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let positions = vec![1usize, 4, 17];
        let gamma = erasure_locator(&code, &positions);
        assert_eq!(locator_positions(&code, &gamma), positions);
    }

    #[test]
    fn shortened_code_scan_stops_at_n() {
        // A locator pointing beyond n-1 yields no in-range position.
        let code = RsCode::new(12, 8, 4).unwrap();
        let f = code.field();
        let x14 = f.alpha_pow(14);
        let gamma = [1, x14]; // points at virtual position 14
        assert!(locator_positions(&code, &gamma).is_empty());
    }
}
