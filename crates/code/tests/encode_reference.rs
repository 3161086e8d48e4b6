//! Differential oracle for the Reed–Solomon encoder.
//!
//! [`reference_encode`] is the textbook systematic encoder written over
//! [`Poly`] with nothing but the public `RsCode` API: shift the data up
//! by `n−k`, divide by the generator and put the remainder below the
//! data. The production encoder, built on per-position parity tables, must
//! return the same codeword for every dataword through both entry points
//! (`encode` and the in-place `encode_into`), and the same [`CodeError`]
//! for every malformed one.
//!
//! The property draws uniform datawords on the five code shapes of
//! `decode_reference.rs` and on four more that reach every symbol width
//! class an encoder may treat apart: a width below a nibble, an odd one,
//! a width above a byte with more than four parity symbols, and the
//! widest field. It runs 256 cases in debug builds and 20 000 in release
//! builds (`cargo test -p rsmem-code --release`).

use proptest::prelude::*;
use rsmem_code::{CodeError, RsCode, Symbol};
use rsmem_gf::Poly;

/// `c(x) = d(x)·x^{n−k} + (d(x)·x^{n−k} mod g(x))`, after checking the
/// dataword's length and then its symbols, first bad symbol first.
fn reference_encode(code: &RsCode, data: &[Symbol]) -> Result<Vec<Symbol>, CodeError> {
    if data.len() != code.k() {
        return Err(CodeError::DatawordLength {
            got: data.len(),
            expected: code.k(),
        });
    }
    if let Some(index) = data.iter().position(|&s| !code.field().contains(s)) {
        return Err(CodeError::SymbolOutOfRange {
            index,
            value: u32::from(data[index]),
        });
    }
    let parity = code.parity_symbols();
    let shifted = Poly::from_coeffs(data.iter().copied()).shift_up(parity);
    let (_, rem) = shifted.div_rem(code.generator(), code.field()).unwrap();
    let mut word = vec![0; code.n()];
    word[..rem.coeffs().len()].copy_from_slice(rem.coeffs());
    word[parity..].copy_from_slice(data);
    Ok(word)
}

/// The oracle's codes: the paper's RS(18,16) and RS(36,16), the
/// RS(20,16) duplex alternative, a small-field code and a `b = 1` one;
/// then RS(7,3) over GF(2^3), RS(31,25) over GF(2^5), RS(40,30) over
/// GF(2^10) and RS(24,16) over GF(2^16).
fn oracle_codes() -> Vec<RsCode> {
    vec![
        RsCode::new(15, 9, 4).unwrap(),
        RsCode::new(18, 16, 8).unwrap(),
        RsCode::new(20, 16, 8).unwrap(),
        RsCode::with_first_root(36, 16, 8, 112).unwrap(),
        RsCode::with_first_root(12, 4, 4, 1).unwrap(),
        RsCode::new(7, 3, 3).unwrap(),
        RsCode::new(31, 25, 5).unwrap(),
        RsCode::with_first_root(40, 30, 10, 1).unwrap(),
        RsCode::new(24, 16, 16).unwrap(),
    ]
}

/// Asserts that both entry points agree with the reference on `data`.
/// `encode_into` must overwrite a buffer full of stale symbols, and must
/// leave it untouched on an error.
fn check_against_reference(code: &RsCode, data: &[Symbol]) {
    let expected = reference_encode(code, data);
    let label = format!("RS({},{}) data={data:?}", code.n(), code.k());
    assert_eq!(code.encode(data), expected, "encode on {label}");
    let stale: Vec<Symbol> = (0..code.n()).map(|i| (i as Symbol * 7 + 1) % 16).collect();
    let mut word = stale.clone();
    let got = code.encode_into(data, &mut word).map(|()| word.clone());
    assert_eq!(got, expected, "encode_into on {label}");
    if expected.is_err() {
        assert_eq!(word, stale, "a failed encode_into wrote to its buffer");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 20_000 }))]

    #[test]
    fn encode_matches_the_poly_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        for code in oracle_codes() {
            let size = u64::from(code.field().size());
            let data: Vec<Symbol> = (0..code.k()).map(|_| rng.below(size) as Symbol).collect();
            check_against_reference(&code, &data);
        }
    }
}

#[test]
fn encode_into_rejects_a_buffer_of_the_wrong_length() {
    for code in oracle_codes() {
        let data = vec![1; code.k()];
        for len in [0, code.n() - 1, code.n() + 1] {
            let mut word = vec![9; len];
            assert_eq!(
                code.encode_into(&data, &mut word),
                Err(CodeError::CodewordLength {
                    got: len,
                    expected: code.n()
                })
            );
            assert!(word.iter().all(|&s| s == 9));
        }
        // A malformed dataword is reported first, as `encode` reports it.
        let mut word = vec![0; code.n() + 1];
        assert_eq!(
            code.encode_into(&data[1..], &mut word),
            Err(CodeError::DatawordLength {
                got: code.k() - 1,
                expected: code.k()
            })
        );
    }
}

#[test]
fn the_zero_dataword_encodes_to_the_zero_codeword() {
    for code in oracle_codes() {
        let zero = vec![0; code.k()];
        assert_eq!(code.encode(&zero).unwrap(), vec![0; code.n()]);
        check_against_reference(&code, &zero);
    }
}

#[test]
fn malformed_datawords_match_the_reference() {
    for code in oracle_codes() {
        let k = code.k();
        let mut cases = vec![Vec::new(), vec![0; k - 1], vec![0; k + 1]];
        // GF(2^16) takes every `Symbol` value, so none is out of its range.
        if let Ok(size) = Symbol::try_from(code.field().size()) {
            let mut wide = vec![1; k];
            wide[k / 2] = size;
            wide[k - 1] = Symbol::MAX;
            cases.push(wide);
            cases.push(vec![size; k + 1]);
        }
        for data in cases {
            assert!(reference_encode(&code, &data).is_err());
            check_against_reference(&code, &data);
        }
    }
}
