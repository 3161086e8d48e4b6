//! Differential oracle for the Reed–Solomon decoder.
//!
//! [`reference_decode`] is the textbook errors-and-erasures decoder
//! written over [`Poly`] with nothing but the public `RsCode` API:
//! syndromes by Horner, the erasure locator Γ, the modified syndrome,
//! Sugiyama's partial extended Euclid or erasure-initialised
//! Berlekamp–Massey, the combined locator Ψ and evaluator Ω, a Chien
//! scan and Forney's formula, then re-verification. It checks its gates
//! in the same order as the production decoder, so the two must agree
//! on every input: the same data, codeword and corrections in order, or
//! the same failure variant with the same fields. The in-place entry
//! points must leave the reference's codeword (or the untouched word)
//! behind and report the matching compact [`BatchOutcome`].
//!
//! The property draws 0…n−k+1 random errors and 0…n−k+1 erasures (whose
//! stored value may or may not be wrong) on five code shapes, through
//! both back-ends. It runs 256 cases in debug builds and 20 000 in
//! release builds (`cargo test -p rsmem-code --release`).

use proptest::prelude::*;
use rsmem_code::{
    BatchDecoder, BatchOutcome, CodeError, Correction, DecodeFailure, DecodeOpts, DecodeOutcome,
    DecoderBackend, RsCode, Symbol,
};
use rsmem_gf::Poly;

/// `S_j = r(α^{b+j})`, `j = 0..n−k`.
fn syndromes(code: &RsCode, word: &[Symbol]) -> Vec<Symbol> {
    let f = code.field();
    (0..code.parity_symbols() as u32)
        .map(|j| {
            let x = f.alpha_pow(code.first_root() + j);
            word.iter().rev().fold(0, |acc, &c| f.mul(acc, x) ^ c)
        })
        .collect()
}

/// `Γ(x) = ∏ (1 + α^{pos} x)` over the erased positions.
fn erasure_locator(code: &RsCode, erasures: &[usize]) -> Poly {
    let f = code.field();
    erasures.iter().fold(Poly::one(), |acc, &pos| {
        acc.mul(&Poly::from_coeffs([1, f.alpha_pow(pos as u32)]), f)
    })
}

/// Sugiyama: the error locator Λ (normalised to Λ(0) = 1) from the
/// modified syndrome, or `None` when no valid locator exists.
fn sugiyama(code: &RsCode, xi: &Poly, rho: usize) -> Option<Poly> {
    let f = code.field();
    let two_t = code.parity_symbols();
    let stop = (two_t + rho).div_ceil(2);
    let x2t = Poly::monomial(1, two_t);
    let (_omega, lambda) = Poly::partial_xgcd(&x2t, xi, stop, f).ok()?;
    let c0 = lambda.coeff(0);
    if lambda.is_zero() || c0 == 0 {
        return None;
    }
    Some(lambda.scale(f.inv(c0).ok()?, f))
}

/// Erasure-initialised Berlekamp–Massey: the combined locator Ψ and the
/// final LFSR length.
fn berlekamp_massey(code: &RsCode, s: &[Symbol], gamma: &Poly, rho: usize) -> (Poly, usize) {
    let f = code.field();
    let mut c = gamma.clone();
    let mut b = gamma.clone();
    let (mut l, mut mm, mut bb) = (rho, 1usize, 1 as Symbol);
    for nn in rho..code.parity_symbols() {
        let delta = c
            .coeffs()
            .iter()
            .take(nn + 1)
            .enumerate()
            .fold(0, |d, (i, &ci)| d ^ f.mul(ci, s[nn - i]));
        if delta == 0 {
            mm += 1;
            continue;
        }
        let coef = f.div(delta, bb).expect("bb is a past non-zero discrepancy");
        let next = c.add(&b.scale(coef, f).shift_up(mm), f);
        if 2 * l <= nn + rho {
            l = nn + 1 - l + rho;
            b = std::mem::replace(&mut c, next);
            bb = delta;
            mm = 1;
        } else {
            c = next;
            mm += 1;
        }
    }
    (c, l)
}

/// The reference decode, with the production decoder's contract: API
/// errors for malformed input, then the failure gates in order.
fn reference_decode(
    code: &RsCode,
    word: &[Symbol],
    erasures: &[usize],
    backend: DecoderBackend,
) -> Result<DecodeOutcome, CodeError> {
    let (n, f) = (code.n(), code.field());
    if word.len() != n {
        return Err(CodeError::CodewordLength {
            got: word.len(),
            expected: n,
        });
    }
    if let Some(index) = word.iter().position(|&s| !f.contains(s)) {
        return Err(CodeError::SymbolOutOfRange {
            index,
            value: u32::from(word[index]),
        });
    }
    let mut seen = vec![false; n];
    for &position in erasures {
        if position >= n || seen[position] {
            return Err(CodeError::BadErasure { position, n });
        }
        seen[position] = true;
    }
    let (rho, redundancy) = (erasures.len(), code.parity_symbols());
    if rho > redundancy {
        return Ok(DecodeOutcome::Failure(DecodeFailure::TooManyErasures {
            erasures: rho,
            redundancy,
        }));
    }
    let syn = syndromes(code, word);
    let data = |w: &[Symbol]| w[n - code.k()..].to_vec();
    if syn.iter().all(|&s| s == 0) {
        return Ok(DecodeOutcome::Clean { data: data(word) });
    }
    let s_poly = Poly::from_coeffs(syn.iter().copied());
    let gamma = erasure_locator(code, erasures);
    let beyond = |errors| DecodeFailure::CapabilityExceeded {
        erasures: rho,
        errors,
    };
    let psi = match backend {
        DecoderBackend::Sugiyama => {
            let xi = s_poly.mul(&gamma, f).truncate_mod_xk(redundancy);
            let Some(lambda) = sugiyama(code, &xi, rho) else {
                return Ok(DecodeOutcome::Failure(DecodeFailure::KeyEquation));
            };
            let nu = lambda.degree_or_zero();
            if rho + 2 * nu > redundancy {
                return Ok(DecodeOutcome::Failure(beyond(nu)));
            }
            lambda.mul(&gamma, f)
        }
        DecoderBackend::BerlekampMassey => {
            let (psi, l) = berlekamp_massey(code, &syn, &gamma, rho);
            let nu = l.saturating_sub(rho);
            if rho + 2 * nu > redundancy {
                return Ok(DecodeOutcome::Failure(beyond(nu)));
            }
            if psi.degree_or_zero() != l {
                return Ok(DecodeOutcome::Failure(DecodeFailure::RootCountMismatch));
            }
            psi
        }
    };
    let omega = psi.mul(&s_poly, f).truncate_mod_xk(redundancy);
    let positions: Vec<usize> = (0..n)
        .filter(|&i| psi.eval(f, f.alpha_pow_signed(-(i as i64))) == 0)
        .collect();
    if positions.len() != psi.degree_or_zero() {
        return Ok(DecodeOutcome::Failure(DecodeFailure::RootCountMismatch));
    }
    let dpsi = psi.derivative(f);
    let mut codeword = word.to_vec();
    let mut corrections = Vec::new();
    for &pos in &positions {
        let x_inv = f.alpha_pow_signed(-(pos as i64));
        let den = dpsi.eval(f, x_inv);
        if den == 0 {
            return Ok(DecodeOutcome::Failure(DecodeFailure::RootCountMismatch));
        }
        let ratio = f.div(omega.eval(f, x_inv), den).expect("den != 0");
        let exp = (pos as i64) * (1 - i64::from(code.first_root()));
        let magnitude = f.mul(f.alpha_pow_signed(exp), ratio);
        if magnitude != 0 {
            codeword[pos] ^= magnitude;
            corrections.push(Correction {
                position: pos,
                magnitude,
                was_erasure: seen[pos],
            });
        }
    }
    if syndromes(code, &codeword).iter().any(|&s| s != 0) {
        return Ok(DecodeOutcome::Failure(DecodeFailure::Unverified));
    }
    if corrections.is_empty() {
        return Ok(DecodeOutcome::Clean { data: data(word) });
    }
    Ok(DecodeOutcome::Corrected {
        data: data(&codeword),
        codeword,
        corrections,
    })
}

/// The oracle's codes: the paper's RS(18,16) and RS(36,16), the
/// RS(20,16) duplex alternative, a small-field code and a `b = 1` one.
fn oracle_codes() -> Vec<RsCode> {
    vec![
        RsCode::new(15, 9, 4).unwrap(),
        RsCode::new(18, 16, 8).unwrap(),
        RsCode::new(20, 16, 8).unwrap(),
        RsCode::with_first_root(36, 16, 8, 112).unwrap(),
        RsCode::with_first_root(12, 4, 4, 1).unwrap(),
    ]
}

const BACKENDS: [DecoderBackend; 2] = [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey];

/// Draws a stored word and its erasure list from `rng`: 0…n−k+1
/// erasures (each clobbered with a random, possibly equal, value) and
/// 0…n−k+1 random errors at random positions (which may fall on an
/// erasure).
fn draw_case(code: &RsCode, rng: &mut TestRng) -> (Vec<Symbol>, Vec<usize>) {
    let (n, size) = (code.n() as u64, u64::from(code.field().size()));
    let data: Vec<Symbol> = (0..code.k()).map(|_| rng.below(size) as Symbol).collect();
    let mut word = code.encode(&data).unwrap();
    let budget = code.parity_symbols() as u64 + 2;
    let mut erasures = Vec::new();
    for _ in 0..rng.below(budget) {
        let pos = rng.below(n) as usize;
        if !erasures.contains(&pos) {
            erasures.push(pos);
            if rng.below(2) == 1 {
                word[pos] = rng.below(size) as Symbol;
            }
        }
    }
    for _ in 0..rng.below(budget) {
        word[rng.below(n) as usize] ^= 1 + rng.below(size - 1) as Symbol;
    }
    (word, erasures)
}

/// The compact class of a rich outcome, as the in-place paths report it.
fn class_of(outcome: &DecodeOutcome) -> BatchOutcome {
    match outcome {
        DecodeOutcome::Clean { .. } => BatchOutcome::Clean,
        DecodeOutcome::Corrected { corrections, .. } => {
            let erased = corrections.iter().filter(|c| c.was_erasure).count() as u32;
            BatchOutcome::Corrected {
                errors: corrections.len() as u32 - erased,
                erasures: erased,
            }
        }
        DecodeOutcome::Failure(failure) => BatchOutcome::Failure(*failure),
    }
}

/// Asserts that every decode entry point agrees with the reference on
/// one input: the rich scalar decode, the in-place decode and a batch
/// escalation.
fn check_against_reference(code: &RsCode, word: &[Symbol], erasures: &[usize]) {
    for backend in BACKENDS {
        let expected = reference_decode(code, word, erasures, backend);
        let got = code.decode_with(word, erasures, backend);
        assert_eq!(
            got,
            expected,
            "{backend} on RS({},{}) word={word:?} erasures={erasures:?}",
            code.n(),
            code.k()
        );
        let Ok(expected) = expected else { continue };
        let after = match &expected {
            DecodeOutcome::Corrected { codeword, .. } => codeword.clone(),
            _ => word.to_vec(),
        };
        let mut in_place = word.to_vec();
        let class = code.decode_in_place_with(&mut in_place, erasures, backend);
        assert_eq!(class, Ok(class_of(&expected)), "{backend} in place");
        assert_eq!(in_place, after, "{backend} in-place word");
        let mut batch = vec![word.to_vec()];
        let mut out = Vec::new();
        BatchDecoder::new()
            .decode_batch(
                code,
                &mut batch,
                &[erasures.to_vec()],
                &DecodeOpts::with_backend(backend),
                &mut out,
            )
            .unwrap();
        assert_eq!(out, [class_of(&expected)], "{backend} batch");
        assert_eq!(batch[0], after, "{backend} batch word");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 20_000 }))]

    #[test]
    fn decode_matches_the_poly_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        for code in oracle_codes() {
            let (word, erasures) = draw_case(&code, &mut rng);
            check_against_reference(&code, &word, &erasures);
        }
    }
}

#[test]
fn malformed_inputs_match_the_reference() {
    let code = RsCode::new(15, 9, 4).unwrap();
    let word = code.encode(&[3; 9]).unwrap();
    let mut wide = word.clone();
    wide[4] = 16;
    let cases: [(&[Symbol], &[usize]); 5] = [
        (&word[..14], &[]),
        (&wide, &[]),
        (&wide, &[99]),
        (&word, &[2, 15]),
        (&word, &[6, 1, 6]),
    ];
    for (w, e) in cases {
        for backend in BACKENDS {
            let expected = reference_decode(&code, w, e, backend);
            assert!(expected.is_err());
            assert_eq!(code.decode_with(w, e, backend), expected, "{backend}");
        }
    }
}

#[test]
fn the_draws_reach_every_outcome_class() {
    // The property is only as strong as its coverage: the drawn cases
    // must reach every outcome class on both back-ends.
    let mut rng = TestRng::seed_from_u64(0x5eed);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..4_000 {
        for code in oracle_codes() {
            let (word, erasures) = draw_case(&code, &mut rng);
            for backend in BACKENDS {
                let class = match reference_decode(&code, &word, &erasures, backend).unwrap() {
                    DecodeOutcome::Clean { .. } => "clean",
                    DecodeOutcome::Corrected { .. } => "corrected",
                    DecodeOutcome::Failure(DecodeFailure::TooManyErasures { .. }) => "erasures",
                    DecodeOutcome::Failure(DecodeFailure::KeyEquation) => "key-equation",
                    DecodeOutcome::Failure(DecodeFailure::CapabilityExceeded { .. }) => {
                        "capability"
                    }
                    DecodeOutcome::Failure(DecodeFailure::RootCountMismatch) => "roots",
                    DecodeOutcome::Failure(DecodeFailure::Unverified) => "unverified",
                    DecodeOutcome::Failure(_) => "other",
                };
                seen.insert((backend.to_string(), class));
            }
        }
    }
    // Sugiyama's stopping degree bounds deg Λ, so it never claims too
    // many errors; Berlekamp–Massey reports such words by the LFSR length.
    let expected = [
        ("sugiyama", "clean"),
        ("sugiyama", "corrected"),
        ("sugiyama", "erasures"),
        ("sugiyama", "key-equation"),
        ("sugiyama", "roots"),
        ("sugiyama", "unverified"),
        ("berlekamp-massey", "clean"),
        ("berlekamp-massey", "corrected"),
        ("berlekamp-massey", "erasures"),
        ("berlekamp-massey", "capability"),
        ("berlekamp-massey", "roots"),
    ];
    for (backend, class) in expected {
        assert!(
            seen.contains(&(backend.to_owned(), class)),
            "{backend} never reached {class}: {seen:?}"
        );
    }
}
