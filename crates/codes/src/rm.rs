//! First-order Reed–Muller RM(1,r) with majority-logic decoding and
//! stuck-at masking.
//!
//! RM(1,r) protects `k = r + 1` data bits in a `n = 2^r`-bit word with
//! minimum distance `d = 2^(r−1)`. Position `p`'s bit is the Boolean
//! affine form `a0 ⊕ a1·p_0 ⊕ … ⊕ ar·p_{r−1}` evaluated on the binary
//! digits of `p`. Two properties make it interesting next to RS for
//! memories (Djurdjevic et al., PAPERS.md):
//!
//! * **Majority-logic decoding** (Reed's algorithm) needs only XOR
//!   trees and majority gates — no finite-field arithmetic at all.
//! * The code contains the **all-ones codeword** (`a0 = 1`), so a word
//!   can be stored complemented. Given one cell with a known stuck-at
//!   value, the encoder picks the polarity that makes the stuck cell
//!   *correct* — one permanent fault absorbed per word at write time
//!   without spending any decode budget. No simulator keeps the stuck-cell
//!   map this needs, so the masking encoder is compiled for tests only.

use crate::MemoryCode;
use rsmem_code::complexity::ComplexityRow;
use rsmem_code::{CodeError, Correction, DecodeFailure, DecodeOutcome, Symbol};
use rsmem_models::CodeParams;
use std::borrow::Cow;

/// The RM(1,r) code over GF(2) (bit symbols, `m = 1`).
#[derive(Debug, Clone)]
pub struct ReedMuller {
    r: u32,
    params: CodeParams,
}

impl ReedMuller {
    /// Builds RM(1,r).
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameters`] for `r ∉ 3..=12` (matching
    /// `CodeParams::rm1`).
    pub fn new(r: u32) -> Result<Self, CodeError> {
        let params = CodeParams::rm1(r).map_err(|_| CodeError::InvalidParameters {
            n: 1usize << r.min(32),
            k: r as usize + 1,
            m: 1,
            reason: "RM(1,r) order must be 3..=12",
        })?;
        Ok(ReedMuller { r, params })
    }

    /// The order `r`.
    pub fn order(&self) -> u32 {
        self.r
    }

    /// The bounded-distance decode budget `d − 1 = n/2 − 1`, i.e. the
    /// guarantee *without* the write-time masked erasure.
    fn budget(&self) -> usize {
        self.params.n() / 2 - 1
    }

    fn check_word(&self, word: &[Symbol]) -> Result<(), CodeError> {
        let n = self.params.n();
        if word.len() != n {
            return Err(CodeError::CodewordLength {
                got: word.len(),
                expected: n,
            });
        }
        if let Some(idx) = word.iter().position(|&s| s > 1) {
            return Err(CodeError::SymbolOutOfRange {
                index: idx,
                value: word[idx] as u32,
            });
        }
        Ok(())
    }

    fn check_erasures(&self, erasures: &[usize]) -> Result<(), CodeError> {
        let mut seen = vec![false; self.params.n()];
        for &p in erasures {
            if p >= seen.len() || seen[p] {
                return Err(CodeError::BadErasure {
                    position: p,
                    n: seen.len(),
                });
            }
            seen[p] = true;
        }
        Ok(())
    }

    /// Encodes with one known stuck-at cell masked: stores the word
    /// complemented when needed so the stuck cell reads back correct.
    ///
    /// Returns the stored word and the complement flag the system must
    /// keep alongside its stuck-at fault map (the flag is equivalent to
    /// flipping data bit `a0`; `unmask_data` undoes it).
    ///
    /// # Errors
    ///
    /// [`CodeError`] for malformed data, an out-of-range position or a
    /// non-bit stuck value.
    #[cfg(test)]
    fn encode_for_stuck(
        &self,
        data: &[Symbol],
        stuck_pos: usize,
        stuck_val: Symbol,
    ) -> Result<(Vec<Symbol>, bool), CodeError> {
        if stuck_pos >= self.params.n() {
            return Err(CodeError::BadErasure {
                position: stuck_pos,
                n: self.params.n(),
            });
        }
        if stuck_val > 1 {
            return Err(CodeError::SymbolOutOfRange {
                index: stuck_pos,
                value: stuck_val as u32,
            });
        }
        let mut word = self.encode(data)?;
        let complemented = word[stuck_pos] != stuck_val;
        if complemented {
            for s in &mut word {
                *s ^= 1;
            }
        }
        Ok((word, complemented))
    }

    /// Reverts the complement flag of `encode_for_stuck` on decoded data
    /// (complementing the codeword flips `a0` only).
    #[cfg(test)]
    fn unmask_data(&self, data: &mut [Symbol], complemented: bool) {
        if complemented {
            data[0] ^= 1;
        }
    }

    /// Reed's majority-logic core; the [`MemoryCode::decode`] wrapper
    /// adds the `code.rm` span and outcome bookkeeping.
    fn majority_decode(
        &self,
        word: &[Symbol],
        erasures: &[usize],
    ) -> Result<DecodeOutcome, CodeError> {
        self.check_word(word)?;
        self.check_erasures(erasures)?;
        let n = self.params.n();
        let budget = self.budget();
        if erasures.len() > budget {
            return Ok(DecodeOutcome::Failure(DecodeFailure::TooManyErasures {
                erasures: erasures.len(),
                redundancy: budget,
            }));
        }
        let mut erased = vec![false; n];
        for &p in erasures {
            erased[p] = true;
        }

        let mut data = vec![0 as Symbol; self.params.k()];
        for i in 0..self.r as usize {
            let mask = 1usize << i;
            let (mut ones, mut votes) = (0usize, 0usize);
            for p in 0..n {
                if p & mask != 0 || erased[p] || erased[p | mask] {
                    continue;
                }
                votes += 1;
                ones += (word[p] ^ word[p | mask]) as usize;
            }
            if 2 * ones == votes {
                return Ok(DecodeOutcome::Failure(DecodeFailure::KeyEquation));
            }
            data[i + 1] = (2 * ones > votes) as Symbol;
        }
        let (mut ones, mut votes) = (0usize, 0usize);
        for p in 0..n {
            if erased[p] {
                continue;
            }
            let mut linear = 0 as Symbol;
            for i in 0..self.r as usize {
                linear ^= data[i + 1] & ((p >> i) & 1) as Symbol;
            }
            votes += 1;
            ones += (word[p] ^ linear) as usize;
        }
        if 2 * ones == votes {
            return Ok(DecodeOutcome::Failure(DecodeFailure::KeyEquation));
        }
        data[0] = (2 * ones > votes) as Symbol;

        let codeword = self.encode(&data)?;
        let corrections: Vec<Correction> = (0..n)
            .filter(|&p| codeword[p] != word[p])
            .map(|p| Correction {
                position: p,
                magnitude: 1,
                was_erasure: erased[p],
            })
            .collect();
        let random = corrections.iter().filter(|c| !c.was_erasure).count();
        if erasures.len() + 2 * random > budget {
            return Ok(DecodeOutcome::Failure(DecodeFailure::CapabilityExceeded {
                erasures: erasures.len(),
                errors: random,
            }));
        }
        if corrections.is_empty() {
            Ok(DecodeOutcome::Clean { data })
        } else {
            Ok(DecodeOutcome::Corrected {
                data,
                codeword,
                corrections,
            })
        }
    }
}

impl MemoryCode for ReedMuller {
    fn params(&self) -> CodeParams {
        self.params
    }

    fn encode(&self, data: &[Symbol]) -> Result<Vec<Symbol>, CodeError> {
        let (n, k) = (self.params.n(), self.params.k());
        if data.len() != k {
            return Err(CodeError::DatawordLength {
                got: data.len(),
                expected: k,
            });
        }
        if let Some(idx) = data.iter().position(|&s| s > 1) {
            return Err(CodeError::SymbolOutOfRange {
                index: idx,
                value: data[idx] as u32,
            });
        }
        let word = (0..n)
            .map(|p| {
                let mut bit = data[0];
                for i in 0..self.r as usize {
                    bit ^= data[i + 1] & ((p >> i) & 1) as Symbol;
                }
                bit
            })
            .collect();
        Ok(word)
    }

    /// Reed's majority-logic decoder with erasure exclusion.
    ///
    /// Each linear coefficient `a_i` is the majority over the
    /// `2^(r−1)` disjoint vote pairs `w[p] ⊕ w[p ⊕ 2^(i−1)]`; votes
    /// touching an erased position are excluded, which keeps the
    /// majority correct whenever `e + 2t ≤ d − 1`. The constant `a0` is
    /// the majority of the word with the linear part stripped. Ties and
    /// claims beyond the bounded-distance budget are detected failures.
    fn decode(&self, word: &[Symbol], erasures: &[usize]) -> Result<DecodeOutcome, CodeError> {
        let mut span = rsmem_obs::span("code.rm", "decode");
        span.record("erasures", erasures.len() as u64);
        let result = self.majority_decode(word, erasures);
        if let Ok(outcome) = &result {
            crate::metrics::record_outcome("rm", outcome);
            crate::metrics::record_decode_event("code.rm", "majority-logic", outcome);
        }
        result
    }

    fn data_of<'w>(&self, word: &'w [Symbol]) -> Result<Cow<'w, [Symbol]>, CodeError> {
        self.check_word(word)?;
        // Not systematic: recover the coefficients from noiseless
        // evaluations. a_i = w[2^(i−1)] ⊕ w[0], a0 = w[0].
        let mut data = vec![0 as Symbol; self.params.k()];
        data[0] = word[0];
        for i in 0..self.r as usize {
            data[i + 1] = word[1 << i] ^ word[0];
        }
        Ok(Cow::Owned(data))
    }

    fn complexity_model(&self) -> ComplexityRow {
        let (n, k) = (self.params.n(), self.params.k());
        // Latency: r info-bit majorities of n/2 vote XORs each, plus one
        // final pass over n cells for the constant term. Area: one
        // XOR/majority cell per codeword bit — no field arithmetic.
        ComplexityRow {
            label: self.params.to_string(),
            family: "rm".to_owned(),
            n,
            k,
            decode_cycles: (self.r as u64) * (n as u64 / 2) + n as u64,
            area_units: n as u64,
            redundant_symbols: n - k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_datawords(k: usize) -> impl Iterator<Item = Vec<Symbol>> {
        (0..1u32 << k).map(move |bits| (0..k).map(|i| ((bits >> i) & 1) as Symbol).collect())
    }

    #[test]
    fn rm13_corrects_every_single_error() {
        let code = ReedMuller::new(3).unwrap();
        for data in all_datawords(4) {
            let word = code.encode(&data).unwrap();
            for p in 0..8 {
                let mut corrupted = word.clone();
                corrupted[p] ^= 1;
                match code.decode(&corrupted, &[]).unwrap() {
                    DecodeOutcome::Corrected {
                        data: got,
                        codeword,
                        corrections,
                    } => {
                        assert_eq!(got, data);
                        assert_eq!(codeword, word);
                        assert_eq!(corrections.len(), 1);
                        assert_eq!(corrections[0].position, p);
                    }
                    other => panic!("expected correction, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn all_ones_is_a_codeword() {
        let code = ReedMuller::new(4).unwrap();
        let mut data = vec![0; 5];
        data[0] = 1;
        assert_eq!(code.encode(&data).unwrap(), vec![1; 16]);
    }

    #[test]
    fn stuck_at_masking_round_trips() {
        let code = ReedMuller::new(4).unwrap();
        let data = vec![1, 0, 1, 1, 0];
        for stuck_pos in 0..16 {
            for stuck_val in [0, 1] {
                let (word, complemented) =
                    code.encode_for_stuck(&data, stuck_pos, stuck_val).unwrap();
                // The stuck cell already holds its forced value: the
                // permanent fault costs nothing.
                assert_eq!(word[stuck_pos], stuck_val);
                let mut got = match code.decode(&word, &[]).unwrap() {
                    DecodeOutcome::Clean { data } => data,
                    other => panic!("masked word should be clean, got {other:?}"),
                };
                code.unmask_data(&mut got, complemented);
                assert_eq!(got, data);
            }
        }
    }

    #[test]
    fn erasures_and_errors_within_budget_correct() {
        // RM(1,4): budget 7 → 2 erasures + 2 errors (2 + 4 = 6) must
        // decode exactly.
        let code = ReedMuller::new(4).unwrap();
        let data = vec![0, 1, 1, 0, 1];
        let word = code.encode(&data).unwrap();
        let mut corrupted = word.clone();
        corrupted[3] ^= 1;
        corrupted[9] ^= 1;
        corrupted[12] ^= 1; // erased + wrong
        let outcome = code.decode(&corrupted, &[12, 14]).unwrap();
        match outcome {
            DecodeOutcome::Corrected { data: got, .. } => assert_eq!(got, data),
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn too_many_erasures_detected() {
        let code = ReedMuller::new(3).unwrap();
        let word = code.encode(&[0, 0, 0, 0]).unwrap();
        let outcome = code.decode(&word, &[0, 1, 2, 3]).unwrap();
        assert!(matches!(
            outcome,
            DecodeOutcome::Failure(DecodeFailure::TooManyErasures { .. })
        ));
    }

    #[test]
    fn malformed_input_is_an_error() {
        let code = ReedMuller::new(3).unwrap();
        assert!(code.encode(&[0, 1]).is_err());
        assert!(code.encode(&[2, 0, 0, 0]).is_err());
        assert!(code.decode(&[0; 7], &[]).is_err());
        assert!(code.decode(&[0; 8], &[8]).is_err());
        assert!(code.decode(&[0; 8], &[1, 1]).is_err());
        assert!(code.decode(&[3, 0, 0, 0, 0, 0, 0, 0], &[]).is_err());
    }

    #[test]
    fn data_of_inverts_encode() {
        let code = ReedMuller::new(4).unwrap();
        for data in all_datawords(5) {
            let word = code.encode(&data).unwrap();
            assert_eq!(code.data_of(&word).unwrap().into_owned(), data);
        }
    }
}
