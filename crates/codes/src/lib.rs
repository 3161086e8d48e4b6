//! Code-family framework: one [`MemoryCode`] trait over every code the
//! memory analyses compare.
//!
//! The paper's pipeline — CTMC models, MC simulation, the duplex
//! arbiter — was originally hard-wired to `rsmem_code::RsCode`. This
//! crate is the seam that makes every layer generic: a [`MemoryCode`]
//! trait capturing what the analyses actually need (encode, decode with
//! erasures, batch decode, symbol geometry, a correction-capability
//! predicate and a complexity-model hook), plus three implementations:
//!
//! * `rsmem_code::RsCode` — the paper's Reed–Solomon code, including
//!   its batched decode plane; the trait methods forward to the
//!   inherent ones, so results are bit-identical to calling it directly.
//! * [`ReedMuller`] — first-order RM(1,r) over GF(2) with Reed's
//!   majority-logic decoder and the stuck-at masking trick of
//!   Djurdjevic et al. (the all-ones codeword freedom absorbs one
//!   known-stuck cell at write time).
//! * [`InterleavedRs`] — a depth-d interleaved-RS burst-error variant
//!   built on `rsmem_code::Interleaver` round-robin dispersal.
//!
//! [`build`] maps a `rsmem_models::CodeParams` (which now carries a
//! [`CodeFamily`]) to the right implementation, so models, simulator,
//! stress harness and service all construct codes the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod irs;
mod metrics;
mod rm;
mod rs;

pub use irs::InterleavedRs;
pub use rm::ReedMuller;

use rsmem_code::complexity::ComplexityRow;
use rsmem_code::{BatchOutcome, CodeError, DecodeOutcome, RsCode, Symbol};
use rsmem_models::{CodeFamily, CodeParams, CorrectionCapability};
use std::borrow::Cow;

/// A block code protecting one memory word, as the reliability
/// analyses see it.
///
/// Implementations are cheap to share behind `Box<dyn MemoryCode>` or
/// `Arc`: all methods take `&self` and the trait is `Send + Sync` so
/// the threaded MC runner can fan a single instance across shards.
pub trait MemoryCode: std::fmt::Debug + Send + Sync {
    /// The counting parameters (geometry, family, capability).
    fn params(&self) -> CodeParams;

    /// Systematically encodes `k` data symbols into an `n`-symbol word.
    ///
    /// # Errors
    ///
    /// [`CodeError`] for a wrong-length dataword or out-of-range
    /// symbols.
    fn encode(&self, data: &[Symbol]) -> Result<Vec<Symbol>, CodeError>;

    /// [`MemoryCode::encode`] into a caller-owned `n`-symbol buffer.
    ///
    /// The default goes through `encode` and copies the codeword; the
    /// RS code overrides it with its table-driven encoder, which allocates
    /// nothing once its tables are built.
    ///
    /// # Errors
    ///
    /// The errors of `encode`, then [`CodeError::CodewordLength`] when
    /// `word` is not `n` symbols long. On error `word` is unchanged.
    fn encode_into(&self, data: &[Symbol], word: &mut [Symbol]) -> Result<(), CodeError> {
        let codeword = self.encode(data)?;
        if word.len() != codeword.len() {
            return Err(CodeError::CodewordLength {
                got: word.len(),
                expected: codeword.len(),
            });
        }
        word.copy_from_slice(&codeword);
        Ok(())
    }

    /// Decodes a stored word given declared erasure positions.
    ///
    /// The outcome contract matches `RsCode::decode`: `Clean` when the
    /// word is already a codeword, `Corrected` with the repaired
    /// codeword and per-position corrections, `Failure` when the
    /// corruption is detected as uncorrectable. Claims beyond
    /// [`MemoryCode::capability`] must come back as `Failure`, never as
    /// a `Corrected` outcome.
    ///
    /// # Errors
    ///
    /// [`CodeError`] for malformed input (wrong length, out-of-range
    /// symbols or erasure indices, duplicate erasures) — as opposed to
    /// a well-formed but uncorrectable word, which is `Ok(Failure)`.
    fn decode(&self, word: &[Symbol], erasures: &[usize]) -> Result<DecodeOutcome, CodeError>;

    /// Extracts the data symbols of a valid codeword.
    ///
    /// Borrowed for systematic layouts (RS), owned where the data is
    /// not stored verbatim (Reed–Muller) or not contiguous
    /// (interleaved RS).
    ///
    /// # Errors
    ///
    /// [`CodeError`] for a wrong-length word.
    fn data_of<'w>(&self, word: &'w [Symbol]) -> Result<Cow<'w, [Symbol]>, CodeError>;

    /// Decodes one stored word **in place** given declared erasure
    /// positions, returning the compact [`BatchOutcome`].
    ///
    /// Classification is that of [`MemoryCode::decode`]: a `Corrected`
    /// word is repaired where it lies, a `Clean` or `Failure` word is
    /// left untouched. The default goes through `decode` and copies the
    /// repaired codeword back; the RS code overrides it with its
    /// allocation-free decode core.
    ///
    /// # Errors
    ///
    /// As [`MemoryCode::decode`]; the word is untouched on error.
    fn decode_in_place(
        &self,
        word: &mut [Symbol],
        erasures: &[usize],
    ) -> Result<BatchOutcome, CodeError> {
        Ok(match self.decode(word, erasures)? {
            DecodeOutcome::Clean { .. } => BatchOutcome::Clean,
            DecodeOutcome::Corrected {
                codeword,
                corrections,
                ..
            } => {
                word.copy_from_slice(&codeword);
                let erased = corrections.iter().filter(|c| c.was_erasure).count() as u32;
                BatchOutcome::Corrected {
                    errors: corrections.len() as u32 - erased,
                    erasures: erased,
                }
            }
            DecodeOutcome::Failure(f) => BatchOutcome::Failure(f),
        })
    }

    /// Decodes a batch of words in place and replaces the contents of
    /// `out` with one [`BatchOutcome`] per word, in order. `words` holds
    /// the words back to back, `n` symbols each, in one buffer, and
    /// `erasures` holds one set per word.
    ///
    /// The default loops [`MemoryCode::decode_in_place`] over `n`-symbol
    /// chunks; the RS code overrides it with the SWAR batch plane.
    /// Corrected words are repaired in place, exactly like
    /// `rsmem_code::BatchDecoder::decode_batch`, which replaces its
    /// outcomes the same way.
    ///
    /// # Errors
    ///
    /// [`CodeError`] for malformed input, or a buffer that does not hold
    /// `n` symbols per erasure set.
    fn decode_batch(
        &self,
        words: &mut [Symbol],
        erasures: &[Vec<usize>],
        out: &mut Vec<BatchOutcome>,
    ) -> Result<(), CodeError> {
        let n = self.n();
        if words.len() != erasures.len() * n {
            return Err(CodeError::CodewordLength {
                got: words.len(),
                expected: erasures.len() * n,
            });
        }
        out.clear();
        out.reserve(erasures.len());
        for (word, era) in words.chunks_exact_mut(n).zip(erasures) {
            out.push(self.decode_in_place(word, era)?);
        }
        Ok(())
    }

    /// The hardware complexity model for one decoder of this code, in
    /// the Section-6 schema (latency cycles, relative area units,
    /// redundant symbols).
    fn complexity_model(&self) -> ComplexityRow;

    /// Codeword length in symbols.
    fn n(&self) -> usize {
        self.params().n()
    }

    /// Dataword length in symbols.
    fn k(&self) -> usize {
        self.params().k()
    }

    /// Symbol width in bits.
    fn symbol_bits(&self) -> u32 {
        self.params().m()
    }

    /// The family's worst-case correction guarantee.
    fn capability(&self) -> CorrectionCapability {
        self.params().capability()
    }

    /// The generalized paper boundary `er + 2·re ≤ budget` (after
    /// write-time masking).
    fn within_capability(&self, erasures: usize, random_errors: usize) -> bool {
        self.capability().admits(erasures, random_errors)
    }
}

/// Builds the [`MemoryCode`] implementation selected by `params`'s
/// family.
///
/// # Errors
///
/// [`CodeError::InvalidParameters`] when the parameters do not name a
/// constructible code (e.g. no primitive polynomial of width `m`).
///
/// # Examples
///
/// ```
/// use rsmem_codes::{build, MemoryCode};
/// use rsmem_models::CodeParams;
///
/// # fn main() -> Result<(), rsmem_code::CodeError> {
/// let code = build(CodeParams::rs18_16())?;
/// let data: Vec<u16> = (0..16).collect();
/// let word = code.encode(&data)?;
/// assert!(code.decode(&word, &[])?.is_flagged() == false);
/// # Ok(())
/// # }
/// ```
pub fn build(params: CodeParams) -> Result<Box<dyn MemoryCode>, CodeError> {
    Ok(match params.family() {
        CodeFamily::Rs => Box::new(RsCode::new(params.n(), params.k(), params.m())?),
        CodeFamily::Rm => Box::new(ReedMuller::new(params.n().trailing_zeros())?),
        CodeFamily::Irs => Box::new(InterleavedRs::new(
            params.inner_n(),
            params.inner_k(),
            params.m(),
            params.depth(),
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_family() {
        for params in [
            CodeParams::rs18_16(),
            CodeParams::rm1(4).unwrap(),
            CodeParams::interleaved(18, 16, 8, 2).unwrap(),
        ] {
            let code = build(params).unwrap();
            assert_eq!(code.params(), params);
            assert_eq!(code.n(), params.n());
            assert_eq!(code.k(), params.k());
            assert_eq!(code.capability(), params.capability());
        }
    }

    #[test]
    fn decode_in_place_matches_decode_for_every_family() {
        // RS overrides `decode_in_place` with its decode core; RM and
        // IRS take the default through `decode`. Either way the word
        // must end as the rich outcome's codeword (or untouched) and
        // the class must match.
        for params in [
            CodeParams::rs18_16(),
            CodeParams::rm1(4).unwrap(),
            CodeParams::interleaved(18, 16, 8, 2).unwrap(),
        ] {
            let code = build(params).unwrap();
            let size = 1u16 << code.symbol_bits();
            let data: Vec<Symbol> = (0..code.k()).map(|i| (i as u16 * 7 + 1) % size).collect();
            let clean = code.encode(&data).unwrap();
            let mut one = clean.clone();
            one[3] ^= 1;
            let mut two = one.clone();
            two[9] ^= 1;
            for (word, erasures) in [
                (&clean, vec![]),
                (&one, vec![]),
                (&one, vec![3]),
                (&two, vec![]),
            ] {
                let rich = code.decode(word, &erasures).unwrap();
                let mut in_place = word.clone();
                let class = code.decode_in_place(&mut in_place, &erasures).unwrap();
                match &rich {
                    DecodeOutcome::Corrected { codeword, .. } => {
                        assert!(class.is_flagged(), "{params}");
                        assert_eq!(&in_place, codeword, "{params}");
                    }
                    DecodeOutcome::Clean { .. } => {
                        assert_eq!(class, BatchOutcome::Clean, "{params}");
                        assert_eq!(&in_place, word, "{params}");
                    }
                    DecodeOutcome::Failure(f) => {
                        assert_eq!(class, BatchOutcome::Failure(*f), "{params}");
                        assert_eq!(&in_place, word, "{params}");
                    }
                }
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_for_every_family() {
        // RS overrides `encode_into` with its table-driven encoder; RM and
        // IRS take the default through `encode`.
        for params in [
            CodeParams::rs18_16(),
            CodeParams::rm1(4).unwrap(),
            CodeParams::interleaved(18, 16, 8, 2).unwrap(),
        ] {
            let code = build(params).unwrap();
            let size = 1u16 << code.symbol_bits();
            for seed in 0..4u16 {
                let data: Vec<Symbol> = (0..code.k() as u16)
                    .map(|i| (i * 7 + seed * 13 + 1) % size)
                    .collect();
                let mut word = vec![0; code.n()];
                code.encode_into(&data, &mut word).unwrap();
                assert_eq!(word, code.encode(&data).unwrap(), "{params}");
            }
            // A wrong-length buffer or dataword is rejected and the
            // buffer is left as it was.
            let data = vec![0; code.k()];
            let mut short = vec![1; code.n() - 1];
            assert!(code.encode_into(&data, &mut short).is_err(), "{params}");
            assert_eq!(short, vec![1; code.n() - 1], "{params}");
            let mut word = vec![1; code.n()];
            assert!(code.encode_into(&data[1..], &mut word).is_err(), "{params}");
            assert_eq!(word, vec![1; code.n()], "{params}");
        }
    }

    #[test]
    fn decode_batch_replaces_the_outcomes_in_every_family() {
        for params in [
            CodeParams::rs18_16(),
            CodeParams::rm1(4).unwrap(),
            CodeParams::interleaved(18, 16, 8, 2).unwrap(),
        ] {
            let code = build(params).unwrap();
            let data: Vec<Symbol> = (0..code.k()).map(|i| (i % 2) as Symbol).collect();
            let mut words = code.encode(&data).unwrap().repeat(8);
            let erasures = vec![Vec::new(); 8];
            let mut out = vec![
                BatchOutcome::Corrected {
                    errors: 1,
                    erasures: 0
                };
                3
            ];
            code.decode_batch(&mut words, &erasures, &mut out).unwrap();
            assert_eq!(out, vec![BatchOutcome::Clean; 8], "{params}");
        }
    }

    #[test]
    fn trait_default_batch_matches_scalar() {
        let code = build(CodeParams::rm1(3).unwrap()).unwrap();
        let data = vec![1, 0, 1, 1];
        let clean = code.encode(&data).unwrap();
        let mut corrupted = clean.clone();
        corrupted[2] ^= 1;
        let mut words = [clean.clone(), corrupted].concat();
        let erasures = vec![vec![], vec![]];
        let mut out = Vec::new();
        code.decode_batch(&mut words, &erasures, &mut out).unwrap();
        assert_eq!(out[0], BatchOutcome::Clean);
        assert_eq!(
            out[1],
            BatchOutcome::Corrected {
                errors: 1,
                erasures: 0
            }
        );
        assert_eq!(words[code.n()..], clean, "corrected in place");
        // A buffer that is not `n` symbols per erasure set is rejected.
        words.pop();
        assert!(code.decode_batch(&mut words, &erasures, &mut out).is_err());
    }
}
