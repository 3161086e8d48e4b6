//! Batched decoding: a per-position table check finds the clean words
//! of a batch, and only the dirty ones escalate to the scalar decode
//! core.
//!
//! The memory-array workloads of this workspace (Monte-Carlo trials, the
//! stress lattice, whole-array scrub reads) decode thousands of words per
//! step, the overwhelming majority of which are still codewords. The
//! scalar [`crate::RsCode::decode`] runs a Horner ladder per syndrome
//! just to discover that nothing happened. This module checks each word
//! against the code's syndrome tables instead:
//!
//! 1. **Clean check**: the syndromes are linear in the word, `S_j =
//!    Σ_i r_i·α^{(b+j)·i}`, and GF(2^m) adds with XOR, which is exact in
//!    any order. So one nibble-split table per position holds every
//!    syndrome contribution of each symbol value, and a word's syndromes
//!    are the XOR of `n·⌈m/4⌉` table entries, with no dependency chain
//!    between positions. The word is clean iff that XOR is zero. Codes
//!    whose tables would be too large run the scalar ladder instead.
//! 2. **Early-out** every clean word, and **escalate** the rest one at a
//!    time to the decode core that every RS decode runs, which corrects
//!    them in place.
//!
//! [`BatchDecoder`] owns the clean flags and escalates on the thread's
//! decode-core workspace, the one the scalar entry points use, and
//! reuses both across calls: after warm-up a batch performs **zero heap
//! allocations**, whether its words are clean, corrected or beyond
//! repair (pinned by allocation-counting tests).

use crate::decode::{
    decode_in_place, record_clean_many, rich_outcome, validate_erasures_into, with_workspace,
    DecodeFailure, DecodeOutcome, DecoderBackend,
};
use crate::syndrome::syndromes_into;
use crate::{CodeError, RsCode};
use rsmem_gf::Symbol;
use rsmem_obs::metrics::{global, Counter};
use std::sync::OnceLock;

/// Counters for the bulk plane, alongside the per-decode solver metrics.
struct BulkMetrics {
    clean: Counter,
    escalated: Counter,
}

fn bulk_metrics() -> &'static BulkMetrics {
    static METRICS: OnceLock<BulkMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        let by_path = |p: &str| r.counter("rsmem_bulk_words_total", &[("path", p)]);
        BulkMetrics {
            clean: by_path("clean"),
            escalated: by_path("escalated"),
        }
    })
}

/// Eagerly registers the bulk metric families in the global registry.
pub(crate) fn register_metrics() {
    let _ = bulk_metrics();
}

/// Options for a batched decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DecodeOpts {
    /// Key-equation back-end used for escalated (non-clean) words.
    pub backend: DecoderBackend,
}

impl DecodeOpts {
    /// Options selecting an explicit back-end.
    pub fn with_backend(backend: DecoderBackend) -> Self {
        DecodeOpts { backend }
    }
}

/// Compact per-word outcome of an in-place decode
/// ([`BatchDecoder::decode_batch`], [`RsCode::decode_in_place`]).
///
/// The corrected symbols live in the caller's word (corrected **in
/// place**), so the outcome only carries the classification — which is
/// exactly what the simulator and stress consumers aggregate. Use
/// [`RsCode::decode_many`] when the full [`DecodeOutcome`] (data copy,
/// correction list) is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The word was already a codeword; untouched (flag **not** set).
    Clean,
    /// Corrections were applied in place (flag **set**).
    Corrected {
        /// Corrections at positions *not* declared as erasures.
        errors: u32,
        /// Corrections at declared erasure positions.
        erasures: u32,
    },
    /// Detected-uncorrectable word; left untouched.
    Failure(DecodeFailure),
}

impl BatchOutcome {
    /// The arbiter flag: true iff a correction was performed.
    pub fn is_flagged(&self) -> bool {
        matches!(self, BatchOutcome::Corrected { .. })
    }
}

/// Validates one word's length and symbol range (the same checks, in
/// the same order, as the scalar decode entry point).
fn check_word(code: &RsCode, word: &[Symbol]) -> Result<(), CodeError> {
    if word.len() != code.n() {
        return Err(CodeError::CodewordLength {
            got: word.len(),
            expected: code.n(),
        });
    }
    code.check_symbols(word)
}

/// The erasure set of word `w` under the "empty means none anywhere"
/// convention.
fn erasures_of(erasures: &[Vec<usize>], w: usize) -> &[usize] {
    if erasures.is_empty() {
        &[]
    } else {
        &erasures[w]
    }
}

/// A reusable batched-decode workspace.
///
/// Holds the clean flags of a batch (and the syndromes of codes too
/// large for tables); escalated words run on the thread's decode-core
/// workspace, which the scalar entry points share,
/// so that steady-state batches perform **zero** heap allocations after
/// the first call, dirty words included — the property the MC shard
/// loop relies on and the `alloc_count` tests pin. The decoder is cheap to construct but not `Sync`; give each
/// worker thread its own.
///
/// # Examples
///
/// ```
/// use rsmem_code::{BatchDecoder, BatchOutcome, DecodeOpts, RsCode};
///
/// # fn main() -> Result<(), rsmem_code::CodeError> {
/// let code = RsCode::new(18, 16, 8)?;
/// // Eight codewords back to back, 18 symbols each.
/// let mut words = code.encode(&(0..16).collect::<Vec<_>>())?.repeat(8);
/// words[5 * 18 + 2] ^= 0x11; // one SEU in word 5
/// let mut decoder = BatchDecoder::new();
/// let mut outcomes = Vec::new();
/// decoder.decode_batch(&code, &mut words, &[], &DecodeOpts::default(), &mut outcomes)?;
/// assert_eq!(outcomes[0], BatchOutcome::Clean);
/// assert_eq!(outcomes[5], BatchOutcome::Corrected { errors: 1, erasures: 0 });
/// assert!(code.is_codeword(&words[5 * 18..6 * 18])?); // corrected in place
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BatchDecoder {
    /// Per word of the current batch: true when it skips the core.
    clean: Vec<bool>,
    /// Scalar syndromes of one word, for codes without tables.
    syn: Vec<Symbol>,
}

impl BatchDecoder {
    /// A fresh workspace; buffers grow on first use and are reused
    /// thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes `words` in place, appending one compact [`BatchOutcome`]
    /// per word to `out` (which is cleared first and reuses its
    /// capacity). `words` holds the batch's words back to back, `n`
    /// symbols each, in one buffer.
    ///
    /// Classification is identical to per-word [`RsCode::decode_with`]:
    /// over-budget erasure sets and non-zero-syndrome words escalate to
    /// the same decode core (same back-end, same metrics), clean words
    /// short-circuit on the batched syndromes. `erasures` is either
    /// empty (no erasures anywhere) or one entry per word.
    ///
    /// # Errors
    ///
    /// [`CodeError`] on the first malformed word or erasure set, in
    /// which case no word has been modified. A buffer whose length is
    /// not a multiple of `n` ends in a short, malformed word.
    ///
    /// # Panics
    ///
    /// Panics when `erasures` is non-empty but its length differs from
    /// the number of words.
    pub fn decode_batch(
        &mut self,
        code: &RsCode,
        words: &mut [Symbol],
        erasures: &[Vec<usize>],
        opts: &DecodeOpts,
        out: &mut Vec<BatchOutcome>,
    ) -> Result<(), CodeError> {
        let n = code.n();
        let lanes = words.len().div_ceil(n);
        let mut span = rsmem_obs::span("code.bulk", "decode_batch");
        span.record("words", lanes as u64);
        self.validate(code, words.chunks(n), erasures)?;
        self.check_clean(code, words.chunks(n), erasures);
        out.clear();
        out.reserve(lanes);
        let mut clean = 0u64;
        let mut escalated = 0u64;
        for ((w, word), &is_clean) in words.chunks_mut(n).enumerate().zip(&self.clean) {
            if is_clean {
                clean += 1;
                out.push(BatchOutcome::Clean);
                continue;
            }
            escalated += 1;
            let era = erasures_of(erasures, w);
            out.push(with_workspace(|core| {
                decode_in_place(code, word, era, opts.backend, core)
            })?);
        }
        record_clean_many(opts.backend, clean);
        let metrics = bulk_metrics();
        metrics.clean.add(clean);
        metrics.escalated.add(escalated);
        span.record("clean", clean);
        span.record("escalated", escalated);
        Ok(())
    }

    /// Like [`BatchDecoder::decode_batch`] but returning the full
    /// per-word [`DecodeOutcome`]s of the scalar API (this is what
    /// [`RsCode::decode_many`] calls). Words are still corrected in
    /// place; the outcomes additionally carry the data/codeword copies
    /// and correction lists, so this path allocates per word and is for
    /// callers that need the rich result rather than throughput.
    ///
    /// # Errors
    ///
    /// See [`BatchDecoder::decode_batch`].
    ///
    /// # Panics
    ///
    /// See [`BatchDecoder::decode_batch`].
    pub fn decode_many(
        &mut self,
        code: &RsCode,
        words: &mut [Vec<Symbol>],
        erasures: &[Vec<usize>],
        opts: &DecodeOpts,
    ) -> Result<Vec<DecodeOutcome>, CodeError> {
        let mut span = rsmem_obs::span("code.bulk", "decode_many");
        span.record("words", words.len() as u64);
        self.validate(code, words.iter().map(Vec::as_slice), erasures)?;
        self.check_clean(code, words.iter().map(Vec::as_slice), erasures);
        let mut out = Vec::with_capacity(words.len());
        let mut clean = 0u64;
        let mut escalated = 0u64;
        for ((w, word), &is_clean) in words.iter_mut().enumerate().zip(&self.clean) {
            if is_clean {
                clean += 1;
                out.push(DecodeOutcome::Clean {
                    data: code.data_of(word)?.to_vec(),
                });
                continue;
            }
            escalated += 1;
            let era = erasures_of(erasures, w);
            out.push(with_workspace(|core| {
                let outcome = decode_in_place(code, word, era, opts.backend, core)?;
                Ok::<_, CodeError>(rich_outcome(code, word.clone(), outcome, core))
            })?);
        }
        record_clean_many(opts.backend, clean);
        let metrics = bulk_metrics();
        metrics.clean.add(clean);
        metrics.escalated.add(escalated);
        span.record("clean", clean);
        span.record("escalated", escalated);
        Ok(out)
    }

    /// Marks in `self.clean` which of `words` skip the decode core:
    /// those whose erasures fit the budget and whose syndromes are all
    /// zero, from the code's syndrome tables, or from the scalar ladder
    /// when the code has none.
    fn check_clean<'w>(
        &mut self,
        code: &RsCode,
        words: impl ExactSizeIterator<Item = &'w [Symbol]>,
        erasures: &[Vec<usize>],
    ) {
        let mut span = rsmem_obs::span("code.bulk", "syndromes");
        span.record("words", words.len() as u64);
        let tables = code.syndrome_check();
        let stride = code.parity_symbols();
        let syn = &mut self.syn;
        self.clean.clear();
        self.clean.extend(words.enumerate().map(|(w, word)| {
            erasures_of(erasures, w).len() <= stride
                && match tables {
                    Some(tables) => tables.maps_to_zero(word),
                    None => {
                        syndromes_into(code, word, syn);
                        syn.iter().all(|&s| s == 0)
                    }
                }
        }));
    }

    /// Upfront validation of the whole batch, per word in the scalar
    /// order (length → symbols → erasures), so an error leaves every
    /// word untouched.
    fn validate<'w>(
        &self,
        code: &RsCode,
        words: impl ExactSizeIterator<Item = &'w [Symbol]>,
        erasures: &[Vec<usize>],
    ) -> Result<(), CodeError> {
        assert!(
            erasures.is_empty() || erasures.len() == words.len(),
            "erasures must be empty or one set per word ({} sets, {} words)",
            erasures.len(),
            words.len()
        );
        for (w, word) in words.enumerate() {
            check_word(code, word)?;
            let era = erasures_of(erasures, w);
            if !era.is_empty() {
                with_workspace(|core| validate_erasures_into(code, era, &mut core.seen))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Correction;

    fn rs18_16() -> RsCode {
        RsCode::new(18, 16, 8).unwrap()
    }

    fn words_with_patterns(code: &RsCode) -> (Vec<Vec<Symbol>>, Vec<Vec<usize>>) {
        let k = code.k();
        let size = code.field().size();
        let mut words = Vec::new();
        let mut erasures = Vec::new();
        for seed in 0..12u32 {
            let data: Vec<Symbol> = (0..k as u32)
                .map(|i| ((i * 29 + seed * 7 + 3) % size) as Symbol)
                .collect();
            let mut word = code.encode(&data).unwrap();
            let mut era = Vec::new();
            match seed % 4 {
                0 => {} // clean
                1 => {
                    let p = (seed as usize * 5) % word.len();
                    word[p] ^= 0x21; // one error
                }
                2 => {
                    // two erasures with clobbered values
                    let p1 = (seed as usize) % word.len();
                    let p2 = (p1 + 7) % word.len();
                    word[p1] ^= 0xff;
                    word[p2] ^= 0x0f;
                    era = vec![p1, p2];
                }
                _ => {
                    // beyond capability: two random errors on a t=1 code
                    word[1] ^= 0x10;
                    word[9] ^= 0x33;
                }
            }
            words.push(word);
            erasures.push(era);
        }
        (words, erasures)
    }

    /// Codewords of `code` with 0, 1 or 2 adjacent symbols changed, in
    /// turn: never a codeword but for the unchanged ones (`d ≥ 3`).
    fn mixed_words(code: &RsCode, count: u64) -> Vec<Vec<Symbol>> {
        let size = u64::from(code.field().size());
        let mut state = 0x5EED_u64 ^ code.n() as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        (0..count)
            .map(|seed| {
                let data: Vec<Symbol> = (0..code.k()).map(|_| (next() % size) as Symbol).collect();
                let mut word = code.encode(&data).unwrap();
                let first = next() as usize;
                for e in 0..(seed % 3) as usize {
                    word[(first + e) % code.n()] ^= (1 + next() % (size - 1)) as Symbol;
                }
                word
            })
            .collect()
    }

    #[test]
    fn syndrome_batch_matches_scalar_syndromes() {
        // The syndrome tables give the scalar ladder's syndromes bit for
        // bit, and the clean check flags exactly the words whose scalar
        // syndromes are all zero, over byte, narrow and wide fields, any
        // first root, and a code too large for tables.
        for (n, k, m, b) in [
            (18usize, 16usize, 8u32, 0u32),
            (36, 16, 8, 112),
            (15, 9, 4, 1),
            (7, 3, 3, 0),
            (40, 30, 10, 3),
            (24, 16, 16, 0),
            (1000, 800, 16, 0),
        ] {
            let code = RsCode::with_first_root(n, k, m, b).unwrap();
            let words = mixed_words(&code, 30);
            let mut decoder = BatchDecoder::new();
            decoder.check_clean(&code, words.iter().map(Vec::as_slice), &[]);
            let clean = &decoder.clean;
            let tables = code.syndrome_check();
            assert_eq!(tables.is_none(), n == 1000, "RS({n},{k})");
            for (w, word) in words.iter().enumerate() {
                let scalar = crate::syndrome::syndromes(&code, word);
                if let Some(tables) = tables {
                    let mut image = vec![0; n - k];
                    tables.apply(word, &mut image);
                    assert_eq!(image, scalar, "RS({n},{k}) b={b} word {w}");
                }
                assert_eq!(clean[w], scalar.iter().all(|&s| s == 0), "word {w}");
            }
            assert_eq!(clean.iter().filter(|&&c| c).count(), 10, "RS({n},{k})");
        }
    }

    #[test]
    fn syndrome_batch_rejects_malformed_words() {
        // Malformed words fail validation before the clean check reads
        // them; an empty batch has no outcomes.
        let code = rs18_16();
        let opts = DecodeOpts::default();
        let mut decoder = BatchDecoder::new();
        let mut out = vec![BatchOutcome::Clean];
        let mut short = vec![0 as Symbol; 17];
        assert!(matches!(
            decoder.decode_batch(&code, &mut short, &[], &opts, &mut out),
            Err(CodeError::CodewordLength { got: 17, .. })
        ));
        let mut wide = vec![0x1ff as Symbol; 18];
        assert!(matches!(
            decoder.decode_batch(&code, &mut wide, &[], &opts, &mut out),
            Err(CodeError::SymbolOutOfRange { index: 0, .. })
        ));
        decoder
            .decode_batch(&code, &mut [], &[], &opts, &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn decode_many_matches_per_word_decode_exactly() {
        let code = rs18_16();
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            let (mut words, erasures) = words_with_patterns(&code);
            let originals = words.clone();
            let expected: Vec<DecodeOutcome> = originals
                .iter()
                .zip(erasures.iter())
                .map(|(w, e)| code.decode_with(w, e, backend).unwrap())
                .collect();
            let opts = DecodeOpts::with_backend(backend);
            let got = code.decode_many(&mut words, &erasures, &opts).unwrap();
            assert_eq!(got, expected, "{backend}");
            // In-place contract: corrected words hold the outcome's
            // codeword, everything else is untouched.
            for (w, outcome) in got.iter().enumerate() {
                match outcome {
                    DecodeOutcome::Corrected { codeword, .. } => {
                        assert_eq!(&words[w], codeword, "{backend} word {w}")
                    }
                    _ => assert_eq!(words[w], originals[w], "{backend} word {w}"),
                }
            }
        }
    }

    #[test]
    fn decode_batch_compact_outcomes_match_full_outcomes() {
        let code = rs18_16();
        let (mut full_words, erasures) = words_with_patterns(&code);
        let mut words = full_words.concat();
        let opts = DecodeOpts::default();
        let full = code.decode_many(&mut full_words, &erasures, &opts).unwrap();
        let mut decoder = BatchDecoder::new();
        let mut compact = Vec::new();
        decoder
            .decode_batch(&code, &mut words, &erasures, &opts, &mut compact)
            .unwrap();
        let words: Vec<&[Symbol]> = words.chunks(code.n()).collect();
        assert_eq!(compact.len(), full.len());
        for (w, (c, f)) in compact.iter().zip(full.iter()).enumerate() {
            match f {
                DecodeOutcome::Clean { .. } => assert_eq!(*c, BatchOutcome::Clean, "word {w}"),
                DecodeOutcome::Corrected { corrections, .. } => {
                    let erased = corrections.iter().filter(|x| x.was_erasure).count() as u32;
                    assert_eq!(
                        *c,
                        BatchOutcome::Corrected {
                            errors: corrections.len() as u32 - erased,
                            erasures: erased,
                        },
                        "word {w}"
                    );
                }
                DecodeOutcome::Failure(fail) => {
                    assert_eq!(*c, BatchOutcome::Failure(*fail), "word {w}")
                }
            }
            assert_eq!(words[w], full_words[w], "word {w} in-place result");
        }
    }

    #[test]
    fn too_many_erasures_escalates_even_when_syndromes_are_zero() {
        let code = rs18_16();
        let data: Vec<Symbol> = (0..16).collect();
        let mut words = code.encode(&data).unwrap();
        let erasures = vec![vec![0usize, 1, 2]]; // 3 > n−k = 2
        let mut decoder = BatchDecoder::new();
        let mut out = Vec::new();
        decoder
            .decode_batch(
                &code,
                &mut words,
                &erasures,
                &DecodeOpts::default(),
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out[0],
            BatchOutcome::Failure(DecodeFailure::TooManyErasures { .. })
        ));
    }

    #[test]
    fn malformed_batch_leaves_words_untouched() {
        let code = rs18_16();
        let data: Vec<Symbol> = (0..16).collect();
        let mut good = code.encode(&data).unwrap();
        good[0] ^= 1; // would be corrected if the batch ran
        let short = vec![0; 17]; // the second word is one symbol short
        let mut words = [good.clone(), short].concat();
        let mut decoder = BatchDecoder::new();
        let mut out = Vec::new();
        let err = decoder.decode_batch(&code, &mut words, &[], &DecodeOpts::default(), &mut out);
        assert!(err.is_err());
        assert_eq!(words[..18], good, "no word may be modified on batch error");
        // Bad erasure sets are also pre-flight errors.
        let mut words = good.clone();
        let err = decoder.decode_batch(
            &code,
            &mut words,
            &[vec![99usize]],
            &DecodeOpts::default(),
            &mut out,
        );
        assert!(err.is_err());
        assert_eq!(words, good);
    }

    #[test]
    fn corrections_report_erasure_split() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = (1..=9).collect();
        let clean = code.encode(&data).unwrap();
        let mut word = clean.clone();
        word[2] ^= 0x3; // erased position, wrong value
        word[8] ^= 0x9; // random error
        let mut words = word;
        let erasures = vec![vec![2usize, 4]]; // one real, one intact erasure
        let mut decoder = BatchDecoder::new();
        let mut out = Vec::new();
        decoder
            .decode_batch(
                &code,
                &mut words,
                &erasures,
                &DecodeOpts::default(),
                &mut out,
            )
            .unwrap();
        assert_eq!(
            out[0],
            BatchOutcome::Corrected {
                errors: 1,
                erasures: 1
            }
        );
        assert_eq!(words, clean);
        // Cross-check the split against the scalar correction list.
        let mut scalar_word = clean.clone();
        scalar_word[2] ^= 0x3;
        scalar_word[8] ^= 0x9;
        match code.decode(&scalar_word, &[2, 4]).unwrap() {
            DecodeOutcome::Corrected { corrections, .. } => {
                let expect: Vec<Correction> = corrections;
                assert_eq!(expect.iter().filter(|c| c.was_erasure).count(), 1);
                assert_eq!(expect.iter().filter(|c| !c.was_erasure).count(), 1);
            }
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn workspace_reuse_across_codes_is_safe() {
        // The same BatchDecoder may serve differently-shaped codes; the
        // buffers must resize correctly between calls.
        let mut decoder = BatchDecoder::new();
        let mut out = Vec::new();
        for (n, k, m) in [(36usize, 16usize, 8u32), (15, 9, 4), (18, 16, 8)] {
            let code = RsCode::new(n, k, m).unwrap();
            let data: Vec<Symbol> = (0..k as u32)
                .map(|i| (i % code.field().size()) as Symbol)
                .collect();
            let mut words = code.encode(&data).unwrap().repeat(5);
            words[3 * n] ^= 1;
            decoder
                .decode_batch(&code, &mut words, &[], &DecodeOpts::default(), &mut out)
                .unwrap();
            assert_eq!(out.len(), 5);
            assert!(out[3].is_flagged());
            assert_eq!(out[0], BatchOutcome::Clean);
            assert!(code.is_codeword(&words[3 * n..4 * n]).unwrap());
        }
    }
}
