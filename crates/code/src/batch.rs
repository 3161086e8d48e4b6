//! Batched decoding: structure-of-arrays syndrome evaluation over many
//! codewords with the bulk GF primitives, escalating only dirty words to
//! the scalar key-equation back-ends.
//!
//! The memory-array workloads of this workspace (Monte-Carlo trials, the
//! stress lattice, whole-array scrub reads) decode thousands of words per
//! step, the overwhelming majority of which are still codewords. The
//! scalar [`crate::RsCode::decode`] pays per-word allocation and per-symbol
//! log/exp lookups just to discover that nothing happened. This module
//! inverts the loop:
//!
//! 1. **Transpose** the batch into column-major (structure-of-arrays)
//!    layout: one contiguous lane of `batch_len` symbols per codeword
//!    position.
//! 2. **Syndromes in bulk**: for each generator root `α^{b+j}` run the
//!    Horner ladder across the whole lane with a precomputed
//!    [`rsmem_gf::bulk::MulTable`] (SWAR on byte-wide fields) — the same
//!    products, so the results are bit-identical to the scalar ladder.
//! 3. **Early-out** every word whose `n−k` syndromes are all zero
//!    (clean), and **escalate** the rest one at a time to the decode
//!    core that every RS decode runs, which corrects them in place.
//!
//! [`BatchDecoder`] owns the kernel's buffers and escalates on the
//! thread's decode-core workspace, the one the scalar entry points use,
//! and reuses both across calls: after warm-up a batch performs **zero
//! heap allocations**, whether its words are clean, corrected or beyond
//! repair (pinned by allocation-counting tests).

use crate::decode::{
    decode_in_place, record_clean_many, rich_outcome, validate_erasures_into, with_workspace,
    DecodeFailure, DecodeOutcome, DecoderBackend,
};
use crate::{CodeError, RsCode};
use rsmem_gf::bulk::BulkKind;
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

/// All `n−k` syndromes of many received words, evaluated in one
/// structure-of-arrays pass: the tests' view of [`syndromes_soa`],
/// checked against the scalar syndromes.
///
/// Layout is lane-major: syndrome `j` of word `w` lives at
/// `soa[j·words + w]`, so each syndrome index is contiguous across the
/// batch (the shape the bulk Horner ladder produces without a final
/// transpose).
#[cfg(test)]
#[derive(Debug, Clone)]
struct SyndromeBatch {
    words: usize,
    stride: usize,
    soa: Vec<Symbol>,
}

#[cfg(test)]
impl SyndromeBatch {
    /// Evaluates all `n−k` syndromes of every word in `words`.
    ///
    /// # Errors
    ///
    /// [`CodeError::CodewordLength`] / [`CodeError::SymbolOutOfRange`]
    /// on the first malformed word.
    fn compute<W: AsRef<[Symbol]>>(code: &RsCode, words: &[W]) -> Result<SyndromeBatch, CodeError> {
        for word in words {
            check_word(code, word.as_ref())?;
        }
        let mut ws = SoaBuffers::default();
        syndromes_soa(code, words.iter().map(AsRef::as_ref), &mut ws);
        Ok(SyndromeBatch {
            words: words.len(),
            stride: code.parity_symbols(),
            soa: ws.soa,
        })
    }

    /// Syndrome `j` of word `w`.
    ///
    /// # Panics
    ///
    /// Panics when `w` or `j` is out of range.
    fn get(&self, w: usize, j: usize) -> Symbol {
        assert!(w < self.words && j < self.stride, "index out of range");
        self.soa[j * self.words + w]
    }

    /// True when every syndrome of word `w` is zero (the word is a
    /// codeword).
    ///
    /// # Panics
    ///
    /// Panics when `w` is out of range.
    fn is_clean(&self, w: usize) -> bool {
        assert!(w < self.words, "index out of range");
        word_is_clean(&self.soa, self.words, self.stride, w)
    }

    /// True when the whole batch is clean.
    fn all_clean(&self) -> bool {
        self.soa.iter().all(|&s| s == 0)
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

fn word_is_clean(soa: &[Symbol], words: usize, stride: usize, w: usize) -> bool {
    (0..stride).all(|j| soa[j * words + w] == 0)
}

/// Symbols per packed `u64` on byte-wide fields.
const PACK: usize = 8;

/// Reusable buffers of the structure-of-arrays syndrome kernel. All four
/// vectors are resized in place, so a warm owner allocates nothing.
#[derive(Debug, Default)]
struct SoaBuffers {
    /// Column-major transpose (`n` lanes of `batch_len`), `m > 8` path.
    cols: Vec<Symbol>,
    /// Byte-lane packed transpose (`⌈batch_len/8⌉` word groups of `n`
    /// consecutive `u64`s), `m ≤ 8` path.
    cols_p: Vec<u64>,
    /// Structure-of-arrays syndromes (`n−k` lanes of `batch_len`).
    soa: Vec<Symbol>,
}

/// The structure-of-arrays syndrome kernel of [`BatchDecoder`] and of
/// the tests' `SyndromeBatch`: transposes the batch into position lanes
/// and runs the bulk Horner ladder per generator root into `ws.soa`.
///
/// On byte-wide fields the transpose packs eight words per `u64` and the
/// whole ladder runs on [`rsmem_gf::bulk::MulTable::horner_fold_packed`]
/// — symbols are packed once and unpacked once per root, not once per
/// Horner step. Wider fields fall back to the symbol-slice ladder. Both
/// ladders apply `acc ← root·acc ⊕ coeff` from the highest codeword
/// position down — the exact evaluation order of the scalar ladder, so
/// every syndrome is bit-identical.
fn syndromes_soa<'w>(
    code: &RsCode,
    words: impl ExactSizeIterator<Item = &'w [Symbol]>,
    ws: &mut SoaBuffers,
) {
    let mut span = rsmem_obs::span("code.bulk", "syndromes");
    let lanes = words.len();
    let n = code.n();
    let stride = code.parity_symbols();
    span.record("words", lanes as u64);
    ws.soa.clear();
    ws.soa.resize(stride * lanes, 0);
    if lanes == 0 {
        return;
    }
    if code.field().bulk_kind() == BulkKind::Swar64 {
        // Blocked layout: each group of eight words packs into `n`
        // consecutive `u64`s, so the pack writes, the ladder reads and
        // the syndrome unpack all stay inside one ~n·8-byte hot window
        // per group, and every root's accumulator lives in a register
        // for the whole ladder.
        let wu = lanes.div_ceil(PACK);
        let tables = code.syndrome_tables();
        ws.cols_p.clear();
        ws.cols_p.resize(wu * n, 0);
        for (w, word) in words.enumerate() {
            let g = w / PACK;
            let shift = 8 * (w % PACK);
            for (p, &c) in ws.cols_p[g * n..(g + 1) * n].iter_mut().zip(word) {
                *p |= u64::from(c) << shift;
            }
        }
        // Ladder four groups at a time: the Horner recurrence serializes
        // on its accumulator, so independent sibling chains hide the
        // multiply latency. Short batches fall back to narrower tiles.
        let mut g = 0;
        // The wide tile requires four *full* groups (the zero-padded
        // partial tail would unpack past the row).
        while (g + 4) * PACK <= lanes {
            let quad = &ws.cols_p[g * n..(g + 4) * n];
            let (p0, rest) = quad.split_at(n);
            let (p1, rest) = rest.split_at(n);
            let (p2, p3) = rest.split_at(n);
            for (j, table) in tables.iter().enumerate() {
                // Horner from the highest codeword position down — the
                // exact evaluation order of the scalar ladder, so every
                // syndrome is bit-identical.
                let mut acc = [0u64; 4];
                for i in (0..n).rev() {
                    acc[0] = table.horner_fold_packed(acc[0], p0[i]);
                    acc[1] = table.horner_fold_packed(acc[1], p1[i]);
                    acc[2] = table.horner_fold_packed(acc[2], p2[i]);
                    acc[3] = table.horner_fold_packed(acc[3], p3[i]);
                }
                for (q, &a) in acc.iter().enumerate() {
                    let row = j * lanes + (g + q) * PACK;
                    for (w, s) in ws.soa[row..row + PACK].iter_mut().enumerate() {
                        *s = ((a >> (8 * w)) & 0xff) as Symbol;
                    }
                }
            }
            g += 4;
        }
        while g < wu {
            // Remainder groups (including a zero-padded partial tail).
            let packed = &ws.cols_p[g * n..(g + 1) * n];
            let in_group = PACK.min(lanes - g * PACK);
            for (j, table) in tables.iter().enumerate() {
                let mut acc = 0u64;
                for &coeff in packed.iter().rev() {
                    acc = table.horner_fold_packed(acc, coeff);
                }
                let row = j * lanes + g * PACK;
                for (w, s) in ws.soa[row..row + in_group].iter_mut().enumerate() {
                    *s = ((acc >> (8 * w)) & 0xff) as Symbol;
                }
            }
            g += 1;
        }
    } else {
        ws.cols.clear();
        ws.cols.resize(n * lanes, 0);
        for (w, word) in words.enumerate() {
            for (i, &c) in word.iter().enumerate() {
                ws.cols[i * lanes + w] = c;
            }
        }
        for (j, table) in code.syndrome_tables().iter().enumerate() {
            let acc = &mut ws.soa[j * lanes..(j + 1) * lanes];
            for i in (0..n).rev() {
                table.horner_step(acc, &ws.cols[i * lanes..(i + 1) * lanes]);
            }
        }
    }
}

/// A reusable batched-decode workspace.
///
/// Holds the transpose and syndrome buffers; escalated words run on the
/// thread's decode-core workspace, which the scalar entry points share,
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
    /// Transpose/syndrome buffers of the SoA kernel.
    ws: SoaBuffers,
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
        syndromes_soa(code, words.chunks(n), &mut self.ws);
        let stride = code.parity_symbols();
        out.clear();
        out.reserve(lanes);
        let mut clean = 0u64;
        let mut escalated = 0u64;
        for (w, word) in words.chunks_mut(n).enumerate() {
            let era = erasures_of(erasures, w);
            if era.len() <= stride && word_is_clean(&self.ws.soa, lanes, stride, w) {
                clean += 1;
                out.push(BatchOutcome::Clean);
                continue;
            }
            escalated += 1;
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
        syndromes_soa(code, words.iter().map(Vec::as_slice), &mut self.ws);
        let lanes = words.len();
        let stride = code.parity_symbols();
        let mut out = Vec::with_capacity(lanes);
        let mut clean = 0u64;
        let mut escalated = 0u64;
        for (w, word) in words.iter_mut().enumerate() {
            let era = erasures_of(erasures, w);
            if era.len() <= stride && word_is_clean(&self.ws.soa, lanes, stride, w) {
                clean += 1;
                out.push(DecodeOutcome::Clean {
                    data: code.data_of(word)?.to_vec(),
                });
                continue;
            }
            escalated += 1;
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

    #[test]
    fn syndrome_batch_matches_scalar_syndromes() {
        let code = rs18_16();
        let (words, _) = words_with_patterns(&code);
        let batch = SyndromeBatch::compute(&code, &words).unwrap();
        for (w, word) in words.iter().enumerate() {
            let scalar = crate::syndrome::syndromes(&code, word);
            for (j, &s) in scalar.iter().enumerate() {
                assert_eq!(batch.get(w, j), s, "word {w} syndrome {j}");
            }
            assert_eq!(batch.is_clean(w), scalar.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn syndrome_batch_rejects_malformed_words() {
        let code = rs18_16();
        let short = vec![vec![0 as Symbol; 17]];
        assert!(SyndromeBatch::compute(&code, &short).is_err());
        let wide = vec![vec![0x1ff as Symbol; 18]];
        assert!(SyndromeBatch::compute(&code, &wide).is_err());
        assert!(SyndromeBatch::compute::<Vec<Symbol>>(&code, &[])
            .unwrap()
            .all_clean());
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
