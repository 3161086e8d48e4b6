//! Systematic Reed–Solomon encoding.

use crate::{CodeError, RsCode};
use rsmem_gf::Symbol;

/// Systematic encoding into `word`: the codeword polynomial is
/// `c(x) = d(x)·x^{n−k} + (d(x)·x^{n−k} mod g(x))`,
/// which is divisible by `g(x)` and carries the data verbatim in its top
/// `k` coefficients.
///
/// The remainder comes from the division circuit of a hardware encoder
/// (like the Altera IP core the paper cites for its complexity model): a
/// linear-feedback shift register of `n − k` stages, held in the parity
/// half of `word`, whose feedback taps are the generator coefficients.
/// The data enters high-order first, one symbol per clock, so the
/// encoder allocates nothing.
pub(crate) fn encode_into(
    code: &RsCode,
    data: &[Symbol],
    word: &mut [Symbol],
) -> Result<(), CodeError> {
    if data.len() != code.k() {
        return Err(CodeError::DatawordLength {
            got: data.len(),
            expected: code.k(),
        });
    }
    code.check_symbols(data)?;
    if word.len() != code.n() {
        return Err(CodeError::CodewordLength {
            got: word.len(),
            expected: code.n(),
        });
    }
    let field = code.field();
    // g(x) is monic of degree n−k: its leading coefficient is implicit.
    let taps = code.generator().coeffs();
    let (stages, top) = word.split_at_mut(code.parity_symbols());
    stages.fill(0);
    for &symbol in data.iter().rev() {
        // Feedback = incoming symbol + the top register stage.
        let feedback = symbol ^ stages[stages.len() - 1];
        for i in (1..stages.len()).rev() {
            stages[i] = stages[i - 1] ^ field.mul(feedback, taps[i]);
        }
        stages[0] = field.mul(feedback, taps[0]);
    }
    top.copy_from_slice(data);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsmem_gf::{GfField, Poly};

    fn word_poly(word: &[Symbol]) -> Poly {
        Poly::from_coeffs(word.iter().copied())
    }

    #[test]
    fn codeword_polynomial_divisible_by_generator() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = vec![3, 1, 4, 1, 5, 9, 2, 6, 8];
        let word = code.encode(&data).unwrap();
        let (_, rem) = word_poly(&word)
            .div_rem(code.generator(), code.field())
            .unwrap();
        assert!(rem.is_zero());
    }

    #[test]
    fn all_generator_roots_vanish_on_codeword() {
        let code = RsCode::with_first_root(15, 11, 4, 1).unwrap();
        let data: Vec<Symbol> = (0..11).map(|i| (i * 7 + 3) % 16).collect();
        let word = code.encode(&data).unwrap();
        let f: &GfField = code.field();
        let p = word_poly(&word);
        for j in 0..code.parity_symbols() as u32 {
            assert_eq!(p.eval(f, f.alpha_pow(code.first_root() + j)), 0);
        }
    }

    #[test]
    fn zero_dataword_encodes_to_zero_codeword() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let word = code.encode(&[0; 16]).unwrap();
        assert!(word.iter().all(|&s| s == 0));
    }

    #[test]
    fn encoding_is_linear() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let a: Vec<Symbol> = (0..9).map(|i| (i * 3 + 1) % 16).collect();
        let b: Vec<Symbol> = (0..9).map(|i| (i * 5 + 2) % 16).collect();
        let sum: Vec<Symbol> = a.iter().zip(&b).map(|(&x, &y)| f.add(x, y)).collect();
        let wa = code.encode(&a).unwrap();
        let wb = code.encode(&b).unwrap();
        let wsum = code.encode(&sum).unwrap();
        let xor: Vec<Symbol> = wa.iter().zip(&wb).map(|(&x, &y)| x ^ y).collect();
        assert_eq!(wsum, xor);
    }

    #[test]
    fn rejects_wrong_length_and_bad_symbols() {
        let code = RsCode::new(15, 9, 4).unwrap();
        assert!(matches!(
            code.encode(&[1, 2, 3]),
            Err(CodeError::DatawordLength {
                got: 3,
                expected: 9
            })
        ));
        let mut data = vec![0 as Symbol; 9];
        data[4] = 16; // out of GF(16)
        assert!(matches!(
            code.encode(&data),
            Err(CodeError::SymbolOutOfRange { index: 4, .. })
        ));
    }

    #[test]
    fn shortened_code_matches_parent_code_prefix() {
        // RS(12,8) over GF(16) is RS(15,11) with three top data symbols zero.
        let short = RsCode::new(12, 8, 4).unwrap();
        let parent = RsCode::new(15, 11, 4).unwrap();
        let data: Vec<Symbol> = (1..=8).collect();
        let mut padded = data.clone();
        padded.extend_from_slice(&[0, 0, 0]);
        let sw = short.encode(&data).unwrap();
        let pw = parent.encode(&padded).unwrap();
        assert_eq!(&pw[..12], &sw[..]);
        assert!(pw[12..].iter().all(|&s| s == 0));
    }
}
