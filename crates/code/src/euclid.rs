//! Sugiyama (extended-Euclidean) key-equation solver for
//! errors-and-erasures decoding.
//!
//! Given the syndrome polynomial `S(x)` and erasure locator `Γ(x)` of
//! degree `ρ`, the modified syndrome is `Ξ(x) = S(x)·Γ(x) mod x^{2t}`
//! (`2t = n − k`). The error locator `Λ(x)` and combined evaluator `Ω(x)`
//! satisfy the key equation
//!
//! ```text
//! Λ(x)·Ξ(x) ≡ Ω(x)   (mod x^{2t}),
//! deg Λ ≤ (2t − ρ)/2,     deg Ω < (2t + ρ)/2.
//! ```
//!
//! Running the Euclidean remainder sequence on `(x^{2t}, Ξ)` until the
//! remainder degree drops below `(2t + ρ)/2` yields exactly this pair.

use crate::polyops::trim;
use rsmem_gf::{GfField, Symbol};

/// The remainder and cofactor buffers of the partial extended Euclid,
/// reused across decodes.
#[derive(Debug, Default)]
pub(crate) struct EuclidScratch {
    r_prev: Vec<Symbol>,
    r: Vec<Symbol>,
    v_prev: Vec<Symbol>,
    v: Vec<Symbol>,
}

impl EuclidScratch {
    pub(crate) const fn new() -> Self {
        EuclidScratch {
            r_prev: Vec::new(),
            r: Vec::new(),
            v_prev: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Empties every buffer and grows it to hold `len` coefficients.
    pub(crate) fn reserve(&mut self, len: usize) {
        for buf in [&mut self.r_prev, &mut self.r, &mut self.v_prev, &mut self.v] {
            buf.clear();
            buf.reserve(len);
        }
    }
}

/// Solves the key equation for the error locator `Λ`, normalised to
/// `Λ(0) = 1` (locators are products of `(1 − X x)` factors).
///
/// Starting from `r_{-1} = x^{2t}`, `r_0 = Ξ`, it iterates the Euclidean
/// remainder sequence until `deg r < ⌈(2t + ρ)/2⌉`, keeping the cofactor
/// `v` with `r ≡ v·Ξ (mod x^{2t})`; `v` is then `Λ` up to scale. Each
/// division step folds the quotient straight into `v_prev + q·v`, so no
/// quotient is stored. Returns `None` when the sequence yields no valid
/// locator (an uncorrectable pattern the caller reports as a decode
/// failure).
pub(crate) fn solve_key_equation<'s>(
    field: &GfField,
    two_t: usize,
    modified_syndrome: &[Symbol],
    erasure_count: usize,
    s: &'s mut EuclidScratch,
) -> Option<&'s [Symbol]> {
    let stop = (two_t + erasure_count).div_ceil(2);
    s.r_prev.clear();
    s.r_prev.resize(two_t + 1, 0);
    s.r_prev[two_t] = 1;
    s.r.clear();
    s.r.extend_from_slice(modified_syndrome);
    trim(&mut s.r);
    s.v_prev.clear();
    s.v.clear();
    s.v.push(1);
    while s.r.len() > stop {
        // r_prev ← r_prev mod r and v_prev ← v_prev + (r_prev div r)·v.
        let ddeg = s.r.len() - 1;
        let lead_inv = field.inv(s.r[ddeg]).ok()?;
        for i in (ddeg..s.r_prev.len()).rev() {
            let c = s.r_prev[i];
            if c == 0 {
                continue;
            }
            let q = field.mul(c, lead_inv);
            let shift = i - ddeg;
            for (x, &d) in s.r_prev[shift..].iter_mut().zip(&s.r) {
                *x ^= field.mul(q, d);
            }
            if s.v_prev.len() < shift + s.v.len() {
                s.v_prev.resize(shift + s.v.len(), 0);
            }
            for (x, &d) in s.v_prev[shift..].iter_mut().zip(&s.v) {
                *x ^= field.mul(q, d);
            }
        }
        trim(&mut s.r_prev);
        trim(&mut s.v_prev);
        std::mem::swap(&mut s.r_prev, &mut s.r);
        std::mem::swap(&mut s.v_prev, &mut s.v);
    }
    // Λ(0) = 0 means x divides Λ — not a valid locator.
    let c0 = *s.v.first()?;
    if c0 == 0 {
        return None;
    }
    let c0_inv = field.inv(c0).ok()?;
    for x in &mut s.v {
        *x = field.mul(*x, c0_inv);
    }
    Some(&s.v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::erasure_locator_into;
    use crate::polyops::{eval, mul_mod_into};
    use crate::syndrome::syndromes;
    use crate::RsCode;

    /// `Ξ = S·Γ mod x^{2t}` for `word` with `erasures`.
    fn modified_syndrome(code: &RsCode, word: &[Symbol], erasures: &[usize]) -> Vec<Symbol> {
        let mut gamma = Vec::new();
        erasure_locator_into(code, erasures, &mut gamma);
        let mut xi = Vec::new();
        let s = syndromes(code, word);
        mul_mod_into(code.field(), &s, &gamma, code.parity_symbols(), &mut xi);
        xi
    }

    #[test]
    fn key_equation_holds_for_single_error() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let word = {
            let mut w = code.encode(&[0; 9]).unwrap();
            w[6] ^= 9;
            w
        };
        let xi = modified_syndrome(&code, &word, &[]);
        let mut scratch = EuclidScratch::new();
        let lambda = solve_key_equation(f, 6, &xi, 0, &mut scratch).unwrap();
        // Λ must vanish at α^{-6} and be normalised to Λ(0) = 1.
        assert_eq!(eval(f, lambda, f.alpha_pow_signed(-6)), 0);
        assert_eq!(lambda[0], 1);
        // Λ·Ξ mod x^{2t} has degree below the stopping bound ⌈2t/2⌉ = 3.
        let mut omega = Vec::new();
        mul_mod_into(f, lambda, &xi, 6, &mut omega);
        assert!(omega.len() <= 3, "deg Ω = {}", omega.len() as i64 - 1);
    }

    #[test]
    fn erasures_only_yields_trivial_error_locator() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let word = {
            let mut w = code.encode(&[1; 9]).unwrap();
            w[2] ^= 3;
            w[10] ^= 7;
            w
        };
        let erasures = [2usize, 10];
        let xi = modified_syndrome(&code, &word, &erasures);
        let mut scratch = EuclidScratch::new();
        let lambda = solve_key_equation(code.field(), 6, &xi, erasures.len(), &mut scratch);
        // With all corruption erased, no random-error locator is needed.
        assert_eq!(lambda, Some(&[1][..]));
    }
}
