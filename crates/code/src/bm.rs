//! Berlekamp–Massey key-equation solver with erasure initialization.
//!
//! This is the second, independent decoder back-end. Initializing the
//! connection polynomial with the erasure locator `Γ(x)` and starting the
//! iteration at syndrome index `ρ = deg Γ` yields the *combined* locator
//! `Ψ(x) = Λ(x)·Γ(x)` directly (Blahut, ch. 7; Forney 1965). The
//! test-suite cross-checks this back-end against the Sugiyama back-end on
//! random patterns.

use crate::polyops::add_scaled_shifted;
use rsmem_gf::{GfField, Symbol};

/// The "last best" and swap buffers of Berlekamp–Massey, reused across
/// decodes.
#[derive(Debug, Default)]
pub(crate) struct BmScratch {
    b: Vec<Symbol>,
    t: Vec<Symbol>,
}

impl BmScratch {
    pub(crate) const fn new() -> Self {
        BmScratch {
            b: Vec::new(),
            t: Vec::new(),
        }
    }

    /// Empties both buffers and grows them to hold `len` coefficients.
    pub(crate) fn reserve(&mut self, len: usize) {
        for buf in [&mut self.b, &mut self.t] {
            buf.clear();
            buf.reserve(len);
        }
    }
}

/// Runs Berlekamp–Massey over the raw syndromes `s` (0-indexed,
/// `s[j] = r(α^{b+j})`), starting from the erasure locator `gamma` of
/// degree `rho`. Leaves the combined locator `Ψ(x)` in `c` and returns
/// **the final LFSR length `l`**.
///
/// The length is the algorithm's own claim about how many error+erasure
/// positions the locator accounts for; a correctable pattern always has
/// `deg Ψ = l`, so the decoder uses `l` both for the capability check
/// (`ν = l − ρ`) and as a structural validity gate — a shorter Ψ means
/// no LFSR of the claimed length generates the syndromes and the word is
/// uncorrectable.
///
/// Every discrepancy divisor is an earlier non-zero discrepancy (or the
/// initial 1), so the update never divides by zero.
pub(crate) fn berlekamp_massey(
    field: &GfField,
    s: &[Symbol],
    gamma: &[Symbol],
    rho: usize,
    c: &mut Vec<Symbol>,
    scratch: &mut BmScratch,
) -> usize {
    let two_t = s.len();
    c.clear();
    c.extend_from_slice(gamma); // connection polynomial Ψ under construction
    let b = &mut scratch.b; // last "best" polynomial before a length change
    b.clear();
    b.extend_from_slice(gamma);
    let mut l: usize = rho; // current LFSR length
    let mut mm: usize = 1; // gap since the last length change
    let mut bb: Symbol = 1; // discrepancy at the last length change

    for nn in rho..two_t {
        // Discrepancy Δ = Σ_i C_i · S_{nn−i}.
        let mut delta: Symbol = 0;
        for (i, &ci) in c.iter().enumerate().take(nn + 1) {
            delta ^= field.mul(ci, s[nn - i]);
        }
        if delta == 0 {
            mm += 1;
            continue;
        }
        let coef = field
            .div(delta, bb)
            .expect("bb is a past non-zero discrepancy");
        if 2 * l <= nn + rho {
            scratch.t.clear();
            scratch.t.extend_from_slice(c);
            add_scaled_shifted(field, c, coef, mm, b);
            l = nn + 1 - l + rho;
            std::mem::swap(b, &mut scratch.t);
            bb = delta;
            mm = 1;
        } else {
            add_scaled_shifted(field, c, coef, mm, b);
            mm += 1;
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::erasure_locator_into;
    use crate::polyops::eval;
    use crate::syndrome::syndromes;
    use crate::RsCode;

    /// Runs BM on `word` with `erasures`, returning `(Ψ, l)`.
    fn run(code: &RsCode, word: &[Symbol], erasures: &[usize]) -> (Vec<Symbol>, usize) {
        let s = syndromes(code, word);
        let mut gamma = Vec::new();
        erasure_locator_into(code, erasures, &mut gamma);
        let mut psi = Vec::new();
        let l = berlekamp_massey(
            code.field(),
            &s,
            &gamma,
            erasures.len(),
            &mut psi,
            &mut BmScratch::new(),
        );
        (psi, l)
    }

    #[test]
    fn errors_only_locator_has_expected_roots() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let mut word = code.encode(&[0; 9]).unwrap();
        word[2] ^= 5;
        word[11] ^= 9;
        let (psi, l) = run(&code, &word, &[]);
        assert_eq!(l, 2);
        assert_eq!(psi.len(), 3, "degree 2");
        assert_eq!(eval(f, &psi, f.alpha_pow_signed(-2)), 0);
        assert_eq!(eval(f, &psi, f.alpha_pow_signed(-11)), 0);
    }

    #[test]
    fn erasure_initialized_locator_covers_both_kinds() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let mut word = code.encode(&[3; 9]).unwrap();
        word[1] ^= 4; // erasure (located)
        word[8] ^= 2; // random error
        let (psi, l) = run(&code, &word, &[1]);
        assert_eq!(l, 2, "one erasure + one error");
        assert_eq!(eval(f, &psi, f.alpha_pow_signed(-1)), 0, "erasure root");
        assert_eq!(eval(f, &psi, f.alpha_pow_signed(-8)), 0, "error root");
    }

    #[test]
    fn clean_word_keeps_gamma() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let word = code.encode(&[7; 9]).unwrap();
        let erasures = [4usize, 9];
        let mut gamma = Vec::new();
        erasure_locator_into(&code, &erasures, &mut gamma);
        let (psi, l) = run(&code, &word, &erasures);
        // Zero syndromes produce zero discrepancies; Ψ stays Γ at length ρ.
        assert_eq!(psi, gamma);
        assert_eq!(l, erasures.len());
    }
}
