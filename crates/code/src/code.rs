//! The [`RsCode`] type: parameters, generator polynomial, and the public
//! encode/decode entry points.

use crate::batch::{BatchDecoder, BatchOutcome, DecodeOpts};
use crate::decode::{decode_in_place, decode_word, with_workspace, DecodeOutcome, DecoderBackend};
use crate::encode::{self, LinearTables};
use crate::error::CodeError;
use crate::syndrome::MulTable;
use rsmem_gf::{GfField, Poly, Symbol};
use std::sync::OnceLock;

/// A systematic Reed–Solomon code RS(n,k) over GF(2^m).
///
/// `n` is the codeword length in symbols, `k` the dataword length; the code
/// corrects any pattern of `er` erasures and `re` random errors with
/// `er + 2·re ≤ n − k`. Codes with `n < 2^m − 1` are *shortened*: they
/// behave exactly like the parent code with the high message positions
/// pinned to zero.
///
/// Codeword layout: index `0..n−k` holds the parity symbols, `n−k..n` holds
/// the data symbols in order, i.e. `word[n−k + i] == data[i]`. Position `i`
/// of the codeword corresponds to the coefficient of `x^i` and to the
/// locator `α^i`.
///
/// # Examples
///
/// ```
/// use rsmem_code::RsCode;
///
/// # fn main() -> Result<(), rsmem_code::CodeError> {
/// let code = RsCode::new(36, 16, 8)?;
/// assert_eq!(code.parity_symbols(), 20);
/// assert_eq!(code.max_random_errors(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RsCode {
    field: GfField,
    n: usize,
    k: usize,
    fcr: u32,
    generator: Poly,
    /// One bulk multiply table per generator root `α^{b+j}`, shared by
    /// the scalar syndrome ladder and the batched syndrome plane.
    syndrome_tables: Vec<MulTable>,
    /// The encoder's per-position parity tables, built on the first
    /// encode; `None` inside when they would be too large.
    parity_tables: OnceLock<Option<LinearTables>>,
    /// The batch plane's per-position syndrome tables, built on the
    /// first batch; `None` inside when they would be too large.
    syndrome_check: OnceLock<Option<LinearTables>>,
}

impl RsCode {
    /// Constructs RS(n,k) over GF(2^m) with the conventional primitive
    /// polynomial and first consecutive root `α^0`.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameters`] when `k == 0`, `k >= n`,
    /// `n > 2^m − 1`, or `m` is unsupported.
    pub fn new(n: usize, k: usize, m: u32) -> Result<Self, CodeError> {
        Self::with_first_root(n, k, m, 0)
    }

    /// Constructs RS(n,k) with an explicit first consecutive root exponent
    /// `b`, so the generator is `∏_{j=0}^{n−k−1} (x − α^{b+j})`.
    ///
    /// Some standards (e.g. CCSDS) use `b = 1` or `b = 112`; the choice does
    /// not affect the code's distance properties.
    ///
    /// # Errors
    ///
    /// See [`RsCode::new`].
    pub fn with_first_root(n: usize, k: usize, m: u32, b: u32) -> Result<Self, CodeError> {
        let field = GfField::new(m).map_err(|_| CodeError::InvalidParameters {
            n,
            k,
            m,
            reason: "unsupported symbol width (need 2..=16)",
        })?;
        if k == 0 {
            return Err(CodeError::InvalidParameters {
                n,
                k,
                m,
                reason: "dataword length k must be positive",
            });
        }
        if k >= n {
            return Err(CodeError::InvalidParameters {
                n,
                k,
                m,
                reason: "need k < n for a nontrivial code",
            });
        }
        if n > field.order() as usize {
            return Err(CodeError::InvalidParameters {
                n,
                k,
                m,
                reason: "codeword length exceeds 2^m - 1",
            });
        }
        let roots = (0..(n - k) as u32).map(|j| field.alpha_pow(b + j));
        let generator = Poly::from_roots(roots, &field);
        let syndrome_tables = (0..(n - k) as u32)
            .map(|j| MulTable::new(&field, field.alpha_pow(b + j)))
            .collect();
        Ok(RsCode {
            field,
            n,
            k,
            fcr: b,
            generator,
            syndrome_tables,
            parity_tables: OnceLock::new(),
            syndrome_check: OnceLock::new(),
        })
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dataword length in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Symbol width in bits (the `m` of GF(2^m)).
    pub fn symbol_bits(&self) -> u32 {
        self.field.bits()
    }

    /// Number of parity (check) symbols, `n − k`.
    pub fn parity_symbols(&self) -> usize {
        self.n - self.k
    }

    /// Maximum correctable random errors with no erasures,
    /// `t = ⌊(n−k)/2⌋`.
    pub fn max_random_errors(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Exponent of the first consecutive generator root.
    pub fn first_root(&self) -> u32 {
        self.fcr
    }

    /// The underlying field.
    pub fn field(&self) -> &GfField {
        &self.field
    }

    /// The generator polynomial `g(x)`.
    pub fn generator(&self) -> &Poly {
        &self.generator
    }

    /// The precomputed multiply-by-root tables, one per syndrome
    /// `α^{b+j}`, `j = 0..n−k`.
    pub(crate) fn syndrome_tables(&self) -> &[MulTable] {
        &self.syndrome_tables
    }

    /// The encoder's parity tables, built on the first call; `None` for
    /// a code whose tables would be too large.
    pub(crate) fn parity_tables(&self) -> Option<&LinearTables> {
        self.parity_tables
            .get_or_init(|| LinearTables::parity(self))
            .as_ref()
    }

    /// The syndrome map's tables, built on the first call; `None` for a
    /// code whose tables would be too large.
    pub(crate) fn syndrome_check(&self) -> Option<&LinearTables> {
        self.syndrome_check
            .get_or_init(|| LinearTables::syndromes(self))
            .as_ref()
    }

    /// True when the pattern `(erasures, random_errors)` is within the
    /// code's guaranteed correction capability, `er + 2·re ≤ n − k`.
    ///
    /// This is the boundary condition the paper's Markov models use for
    /// both the simplex word and each duplex word.
    pub fn within_capability(&self, erasures: usize, random_errors: usize) -> bool {
        erasures + 2 * random_errors <= self.n - self.k
    }

    /// Validates a slice of symbols against the field.
    pub(crate) fn check_symbols(&self, word: &[Symbol]) -> Result<(), CodeError> {
        // Field sizes are powers of two, so "every symbol in range" is an
        // OR-fold against the out-of-range mask — branchless (and
        // vectorizable) on the overwhelmingly common all-valid path.
        let mask = !(self.field.size() - 1);
        if word.iter().fold(0u32, |acc, &s| acc | u32::from(s)) & mask == 0 {
            return Ok(());
        }
        for (i, &s) in word.iter().enumerate() {
            if !self.field.contains(s) {
                return Err(CodeError::SymbolOutOfRange {
                    index: i,
                    value: s as u32,
                });
            }
        }
        unreachable!("OR-fold flagged a symbol but none is out of range")
    }

    /// Systematically encodes `data` (exactly `k` symbols) into an
    /// `n`-symbol codeword (parity first, then data).
    ///
    /// # Errors
    ///
    /// [`CodeError::DatawordLength`] or [`CodeError::SymbolOutOfRange`] on
    /// malformed input.
    pub fn encode(&self, data: &[Symbol]) -> Result<Vec<Symbol>, CodeError> {
        let mut word = vec![0; self.n];
        self.encode_into(data, &mut word)?;
        Ok(word)
    }

    /// [`RsCode::encode`] into a caller-owned `n`-symbol buffer. The
    /// code's first encode builds its parity tables; after that an
    /// encode allocates nothing, unless the code is too large for tables
    /// (their bytes grow as `k·(n−k)·m`), when each encode allocates one
    /// row of `n − k` symbols. On error `word` is left unchanged.
    ///
    /// # Errors
    ///
    /// The errors of [`RsCode::encode`], checked first, then
    /// [`CodeError::CodewordLength`] when `word.len() != n`.
    pub fn encode_into(&self, data: &[Symbol], word: &mut [Symbol]) -> Result<(), CodeError> {
        encode::encode_into(self, data, word)
    }

    /// Extracts the data symbols from a (corrected) codeword.
    ///
    /// # Errors
    ///
    /// [`CodeError::CodewordLength`] when `word.len() != n`.
    pub fn data_of<'w>(&self, word: &'w [Symbol]) -> Result<&'w [Symbol], CodeError> {
        if word.len() != self.n {
            return Err(CodeError::CodewordLength {
                got: word.len(),
                expected: self.n,
            });
        }
        Ok(&word[self.n - self.k..])
    }

    /// True when `word` is a codeword (all syndromes zero).
    ///
    /// # Errors
    ///
    /// [`CodeError::CodewordLength`] / [`CodeError::SymbolOutOfRange`] on
    /// malformed input.
    pub fn is_codeword(&self, word: &[Symbol]) -> Result<bool, CodeError> {
        if word.len() != self.n {
            return Err(CodeError::CodewordLength {
                got: word.len(),
                expected: self.n,
            });
        }
        self.check_symbols(word)?;
        Ok(crate::syndrome::syndromes(self, word)
            .iter()
            .all(|&s| s == 0))
    }

    /// Decodes `word` given `erasures` (distinct positions in `0..n` known
    /// to be unreliable), using the default [`DecoderBackend::Sugiyama`].
    ///
    /// A detected-uncorrectable word is a *successful* call returning
    /// [`DecodeOutcome::Failure`]; see the type for the full contract.
    ///
    /// # Errors
    ///
    /// [`CodeError`] only for malformed inputs (wrong lengths, bad erasure
    /// positions, out-of-field symbols).
    pub fn decode(&self, word: &[Symbol], erasures: &[usize]) -> Result<DecodeOutcome, CodeError> {
        decode_word(self, word, erasures, DecoderBackend::Sugiyama)
    }

    /// Like [`RsCode::decode`] but with an explicit decoder back-end.
    ///
    /// # Errors
    ///
    /// See [`RsCode::decode`].
    pub fn decode_with(
        &self,
        word: &[Symbol],
        erasures: &[usize],
        backend: DecoderBackend,
    ) -> Result<DecodeOutcome, CodeError> {
        decode_word(self, word, erasures, backend)
    }

    /// Decodes `word` **in place** given `erasures`, using the default
    /// [`DecoderBackend::Sugiyama`], and returns its compact
    /// [`BatchOutcome`].
    ///
    /// The same decode as [`RsCode::decode`], without the output copies:
    /// a `Corrected` word is repaired where it lies, a `Clean` or
    /// `Failure` word is left untouched, and nothing is allocated once
    /// this thread has decoded a word of this shape.
    ///
    /// # Errors
    ///
    /// See [`RsCode::decode`]; the word is untouched on error.
    pub fn decode_in_place(
        &self,
        word: &mut [Symbol],
        erasures: &[usize],
    ) -> Result<BatchOutcome, CodeError> {
        self.decode_in_place_with(word, erasures, DecoderBackend::Sugiyama)
    }

    /// Like [`RsCode::decode_in_place`] but with an explicit decoder
    /// back-end.
    ///
    /// # Errors
    ///
    /// See [`RsCode::decode`].
    pub fn decode_in_place_with(
        &self,
        word: &mut [Symbol],
        erasures: &[usize],
        backend: DecoderBackend,
    ) -> Result<BatchOutcome, CodeError> {
        with_workspace(|ws| decode_in_place(self, word, erasures, backend, ws))
    }

    /// Decodes a batch of words through the bulk syndrome plane,
    /// correcting each word **in place** and returning one full
    /// [`DecodeOutcome`] per word, classification-identical to calling
    /// [`RsCode::decode`] on each word individually.
    ///
    /// Syndromes for the whole batch are evaluated with the bulk GF
    /// primitives; only words with non-zero syndromes (or over-budget
    /// erasure sets) escalate to the scalar key-equation back-ends.
    /// `erasures` is either empty (no erasures anywhere) or exactly one
    /// entry per word. Allocation-sensitive callers should hold a
    /// [`BatchDecoder`] and use
    /// [`BatchDecoder::decode_batch`] instead, which reuses its
    /// workspaces and reports compact per-word outcomes.
    ///
    /// # Errors
    ///
    /// [`CodeError`] on the first malformed word or erasure set; the
    /// batch is left unmodified in that case.
    pub fn decode_many(
        &self,
        words: &mut [Vec<Symbol>],
        erasures: &[Vec<usize>],
        opts: &DecodeOpts,
    ) -> Result<Vec<DecodeOutcome>, CodeError> {
        BatchDecoder::new().decode_many(self, words, erasures, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(RsCode::new(18, 16, 8).is_ok());
        assert!(RsCode::new(36, 16, 8).is_ok());
        assert!(matches!(
            RsCode::new(16, 16, 8),
            Err(CodeError::InvalidParameters { .. })
        ));
        assert!(matches!(
            RsCode::new(10, 0, 8),
            Err(CodeError::InvalidParameters { .. })
        ));
        assert!(matches!(
            RsCode::new(300, 16, 8),
            Err(CodeError::InvalidParameters { .. })
        ));
        assert!(RsCode::new(15, 11, 4).is_ok());
        assert!(RsCode::new(16, 11, 4).is_err()); // n > 2^4 - 1
    }

    #[test]
    fn generator_has_expected_degree_and_roots() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let g = code.generator();
        assert_eq!(g.degree(), Some(6));
        let f = code.field();
        for j in 0..6 {
            assert_eq!(g.eval(f, f.alpha_pow(j)), 0, "alpha^{j} must be a root");
        }
        // alpha^6 must NOT be a root (generator has exactly n-k roots).
        assert_ne!(g.eval(f, f.alpha_pow(6)), 0);
    }

    #[test]
    fn generator_respects_first_root_offset() {
        let code = RsCode::with_first_root(15, 11, 4, 1).unwrap();
        let f = code.field();
        let g = code.generator();
        assert_ne!(g.eval(f, f.alpha_pow(0)), 0);
        for j in 1..=4 {
            assert_eq!(g.eval(f, f.alpha_pow(j)), 0);
        }
    }

    #[test]
    fn capability_predicate_matches_paper() {
        let code = RsCode::new(18, 16, 8).unwrap();
        assert!(code.within_capability(0, 1)); // one SEU
        assert!(code.within_capability(2, 0)); // two erasures
        assert!(!code.within_capability(1, 1)); // 1 + 2 > 2
        assert!(!code.within_capability(0, 2)); // 4 > 2
        let wide = RsCode::new(36, 16, 8).unwrap();
        assert!(wide.within_capability(10, 5)); // 10 + 10 = 20
        assert!(!wide.within_capability(11, 5));
    }

    #[test]
    fn data_of_extracts_systematic_part() {
        let code = RsCode::new(15, 11, 4).unwrap();
        let data: Vec<Symbol> = (1..=11).collect();
        let word = code.encode(&data).unwrap();
        assert_eq!(code.data_of(&word).unwrap(), &data[..]);
        assert!(code.data_of(&word[..10]).is_err());
    }

    #[test]
    fn encoded_words_are_codewords() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let data: Vec<Symbol> = (0..16).map(|i| (i * 13 + 5) % 256).collect();
        let word = code.encode(&data).unwrap();
        assert!(code.is_codeword(&word).unwrap());
        let mut corrupted = word.clone();
        corrupted[0] ^= 1;
        assert!(!code.is_codeword(&corrupted).unwrap());
    }
}
