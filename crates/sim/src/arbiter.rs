//! The duplex arbiter of the paper's Section 3, built on the real
//! Reed–Solomon decoder.
//!
//! The arbiter operates in three steps:
//!
//! 1. **Erasure recovery** — for every symbol position erased in exactly
//!    one module, the homologous symbol from the other module is
//!    substituted (masking). Positions erased in *both* modules remain
//!    erasures for both decoders.
//! 2. **Independent decoding** — each (masked) word is decoded by the
//!    word's [`MemoryCode`] (the paper's RS decoder, or any other
//!    family); a per-word *flag* is set iff a correction was performed.
//! 3. **Comparison** —
//!    * no flag set → output either word;
//!    * words equal, ≥1 flag → output (the correction was right);
//!    * words differ, exactly one flag → output the *unflagged* word
//!      (the flagged one mis-corrected);
//!    * words differ, both flags → **no output** (indistinguishable).
//!
//! A detected decode failure on one word is treated like a set flag with
//! no usable output for that word: if the other word decodes, it is
//! output; if both fail, there is no output.

use rsmem_code::{BatchOutcome, CodeError, Symbol};
use rsmem_codes::MemoryCode;
use rsmem_obs::recorder;
use std::borrow::Cow;

/// The arbiter's verdict for one read access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArbiterOutput {
    /// A dataword was produced.
    Data {
        /// The `k` decoded data symbols.
        data: Vec<Symbol>,
        /// Which decision-rule branch produced the output (for
        /// diagnostics and tests).
        branch: ArbiterBranch,
    },
    /// The arbiter refused to output (both words flagged and different,
    /// or both undecodable).
    NoOutput,
}

impl ArbiterOutput {
    /// The decoded data, if an output was produced.
    pub fn data(&self) -> Option<&[Symbol]> {
        match self {
            ArbiterOutput::Data { data, .. } => Some(data),
            ArbiterOutput::NoOutput => None,
        }
    }
}

/// Which Section-3 decision branch fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterBranch {
    /// Neither word needed correction.
    NoFlags,
    /// Words equal with at least one flag set.
    EqualFlagged,
    /// Words differed; the unflagged word won.
    UnflaggedWins,
    /// One word failed to decode; the surviving word was output.
    SingleSurvivor,
}

/// Validates one module's inputs *before* the masking step touches them:
/// the word must have exactly `n` symbols and every erasure position must
/// be in range and unique, checked against the caller's `seen` scratch.
/// (Symbol-range checks are left to the decoder, which sees every masked
/// symbol anyway.)
fn validate_module<C: MemoryCode + ?Sized>(
    code: &C,
    word: &[Symbol],
    erasures: &[usize],
    seen: &mut Vec<bool>,
) -> Result<(), CodeError> {
    let result = validate_module_inner(code, word, erasures, seen);
    if let Err(error) = &result {
        // A malformed module is a service incident, not a decode event:
        // freeze exactly what the caller handed us.
        if recorder::enabled() {
            recorder::record_exemplar_with("arbiter-reject", || recorder::Exemplar {
                code: format!(
                    "{}:{},{},{}",
                    code.params().family().name(),
                    code.n(),
                    code.k(),
                    code.symbol_bits()
                ),
                word: word.iter().map(|&s| u32::from(s)).collect(),
                erasures: erasures.iter().map(|&p| p as u32).collect(),
                detail: error.to_string(),
                ..recorder::Exemplar::default()
            });
        }
    }
    result
}

fn validate_module_inner<C: MemoryCode + ?Sized>(
    code: &C,
    word: &[Symbol],
    erasures: &[usize],
    seen: &mut Vec<bool>,
) -> Result<(), CodeError> {
    if word.len() != code.n() {
        return Err(CodeError::CodewordLength {
            got: word.len(),
            expected: code.n(),
        });
    }
    seen.clear();
    seen.resize(code.n(), false);
    for &position in erasures {
        if position >= code.n() || seen[position] {
            return Err(CodeError::BadErasure {
                position,
                n: code.n(),
            });
        }
        seen[position] = true;
    }
    Ok(())
}

/// The output buffers of arbiter step 1, reused from one masking to the
/// next: both masked module words, the positions erased in *both*
/// modules (the paper's common-erasure set X), and the validation
/// scratch.
#[derive(Debug, Default)]
pub(crate) struct MaskedPair {
    /// Module 1's masked word.
    pub(crate) w1: Vec<Symbol>,
    /// Module 2's masked word.
    pub(crate) w2: Vec<Symbol>,
    /// Positions erased in both modules (kept as erasures for both).
    pub(crate) common: Vec<usize>,
    seen: Vec<bool>,
}

/// Step 1 of the arbiter, factored out so the simulators can mask
/// word-pairs into reused buffers and decode them in place or in one
/// batch: validates both modules, substitutes every single-sided erasure
/// from the sibling module, and leaves in `out` the two masked words
/// plus the positions erased in *both* modules (which stay erasures for
/// both decoders).
///
/// # Errors
///
/// [`CodeError`] for malformed inputs, exactly like [`arbitrate`].
pub(crate) fn mask<C: MemoryCode + ?Sized>(
    code: &C,
    word1: &[Symbol],
    erasures1: &[usize],
    word2: &[Symbol],
    erasures2: &[usize],
    out: &mut MaskedPair,
) -> Result<(), CodeError> {
    // Malformed inputs must surface as typed errors before the masking
    // step indexes into the words (found by rsmem-stress: out-of-range
    // erasure positions and short words used to panic here).
    validate_module(code, word1, erasures1, &mut out.seen)?;
    validate_module(code, word2, erasures2, &mut out.seen)?;

    out.w1.clear();
    out.w1.extend_from_slice(word1);
    out.w2.clear();
    out.w2.extend_from_slice(word2);
    out.common.clear();
    for &p in erasures1 {
        if erasures2.contains(&p) {
            out.common.push(p);
        } else {
            // Module 2's symbol is trusted hardware-wise; substitute it.
            out.w1[p] = word2[p];
        }
    }
    for &p in erasures2 {
        if !erasures1.contains(&p) {
            out.w2[p] = word1[p];
        }
    }
    Ok(())
}

/// One decoded word as the comparison step sees it: either a detected
/// failure, or data with the per-word correction flag.
#[derive(Debug, Clone)]
pub(crate) enum WordVerdict<'a> {
    /// The decoder detected an uncorrectable word.
    Failed,
    /// The decoder produced data; `flagged` iff it corrected anything.
    Decoded {
        /// The `k` decoded data symbols — borrowed from the word for
        /// systematic layouts, owned where extraction rebuilds them.
        data: Cow<'a, [Symbol]>,
        /// The Section-3 flag (a correction was performed).
        flagged: bool,
    },
}

/// The comparison view of a word decoded in place: after a `Clean` or
/// `Corrected` outcome the word holds the decoder's output.
pub(crate) fn verdict_of<'a, C: MemoryCode + ?Sized>(
    code: &C,
    word: &'a [Symbol],
    outcome: &BatchOutcome,
) -> WordVerdict<'a> {
    match outcome {
        BatchOutcome::Failure(_) => WordVerdict::Failed,
        BatchOutcome::Clean => WordVerdict::Decoded {
            data: code.data_of(word).expect("word has length n"),
            flagged: false,
        },
        BatchOutcome::Corrected { .. } => WordVerdict::Decoded {
            data: code.data_of(word).expect("word has length n"),
            flagged: true,
        },
    }
}

/// Steps 2½–3 of the arbiter: the flag-based comparison over the two
/// per-word verdicts, shared verbatim by [`arbitrate`], the simulators
/// and the batched campaign paths (so the decision rule and its metrics
/// cannot drift apart). Returns the output data, borrowed from the
/// decoded words, and its branch; `None` is no output.
pub(crate) fn combine<'a>(
    v1: WordVerdict<'a>,
    v2: WordVerdict<'a>,
) -> Option<(Cow<'a, [Symbol]>, ArbiterBranch)> {
    let verdict = match (v1, v2) {
        (WordVerdict::Failed, WordVerdict::Failed) => None,
        (WordVerdict::Failed, WordVerdict::Decoded { data, .. })
        | (WordVerdict::Decoded { data, .. }, WordVerdict::Failed) => {
            Some((data, ArbiterBranch::SingleSurvivor))
        }
        (
            WordVerdict::Decoded {
                data: d1,
                flagged: f1,
            },
            WordVerdict::Decoded {
                data: d2,
                flagged: f2,
            },
        ) => {
            if !f1 && !f2 {
                Some((d1, ArbiterBranch::NoFlags))
            } else if d1 == d2 {
                Some((d1, ArbiterBranch::EqualFlagged))
            } else if f1 != f2 {
                // Exactly one flag: the unflagged word is correct.
                let winner = if f1 { d2 } else { d1 };
                Some((winner, ArbiterBranch::UnflaggedWins))
            } else {
                // Both flagged and different: cannot discriminate.
                None
            }
        }
    };
    let branch = verdict.as_ref().map(|(_, branch)| *branch);
    let metrics = crate::metrics::arbiter_metrics();
    match branch {
        None => metrics.no_output.inc(),
        Some(ArbiterBranch::NoFlags) => metrics.no_flags.inc(),
        Some(ArbiterBranch::EqualFlagged) => metrics.equal_flagged.inc(),
        Some(ArbiterBranch::UnflaggedWins) => metrics.unflagged_wins.inc(),
        Some(ArbiterBranch::SingleSurvivor) => metrics.single_survivor.inc(),
    }
    if recorder::enabled() {
        // `a` encodes the branch (0 = no output), `b` whether data came
        // out — the decisions a post-incident timeline replays.
        let (name, a) = match branch {
            None => ("no_output", 0),
            Some(ArbiterBranch::NoFlags) => ("no_flags", 1),
            Some(ArbiterBranch::EqualFlagged) => ("equal_flagged", 2),
            Some(ArbiterBranch::UnflaggedWins) => ("unflagged_wins", 3),
            Some(ArbiterBranch::SingleSurvivor) => ("single_survivor", 4),
        };
        recorder::record_event(
            recorder::RecordKind::Arbiter,
            "sim.arbiter",
            name,
            a,
            u64::from(branch.is_some()),
        );
    }
    verdict
}

/// Runs the Section-3 arbiter over the two module words.
///
/// `word1`/`word2` are the raw stored words; `erasures1`/`erasures2` the
/// located permanent-fault positions per module.
///
/// # Tie-break policy
///
/// When both words are flagged (each decoder performed a correction) and
/// the decoded datawords still differ, the arbiter emits **no output** —
/// even though one of the two words may in fact be correct. This is the
/// paper's rule, and it is the only sound one at this level: the flags
/// are symmetric and the arbiter has no third copy to break the tie with,
/// so any choice would convert a detectable event into a potential silent
/// corruption half of the time. The cost is availability (a detected,
/// uncorrected access), never integrity.
///
/// # Errors
///
/// Only [`CodeError`] for malformed inputs (wrong word length,
/// out-of-range or duplicate erasure positions) — uncorrectable
/// corruption is a [`ArbiterOutput::NoOutput`], not an error.
pub fn arbitrate<C: MemoryCode + ?Sized>(
    code: &C,
    word1: &[Symbol],
    erasures1: &[usize],
    word2: &[Symbol],
    erasures2: &[usize],
) -> Result<ArbiterOutput, CodeError> {
    // Step 1: validation + erasure recovery (masking).
    let mut pair = MaskedPair::default();
    mask(code, word1, erasures1, word2, erasures2, &mut pair)?;

    // Step 2: independent decoding with the common (unmaskable) erasures.
    let out1 = code.decode_in_place(&mut pair.w1, &pair.common)?;
    let out2 = code.decode_in_place(&mut pair.w2, &pair.common)?;

    // Step 3: flag-based comparison.
    let verdict = combine(
        verdict_of(code, &pair.w1, &out1),
        verdict_of(code, &pair.w2, &out2),
    );
    Ok(match verdict {
        None => ArbiterOutput::NoOutput,
        Some((data, branch)) => ArbiterOutput::Data {
            data: data.into_owned(),
            branch,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsmem_code::{DecodeOutcome, RsCode};

    fn code() -> RsCode {
        RsCode::new(18, 16, 8).unwrap()
    }

    fn data() -> Vec<Symbol> {
        (40..56).collect()
    }

    #[test]
    fn clean_pair_outputs_without_flags() {
        let code = code();
        let w = code.encode(&data()).unwrap();
        let out = arbitrate(&code, &w, &[], &w, &[]).unwrap();
        assert_eq!(
            out,
            ArbiterOutput::Data {
                data: data(),
                branch: ArbiterBranch::NoFlags
            }
        );
    }

    #[test]
    fn single_module_erasure_is_masked_for_free() {
        let code = code();
        let clean = code.encode(&data()).unwrap();
        let mut w1 = clean.clone();
        w1[4] = 0x00; // stuck symbol, located
                      // Masking replaces it with module 2's good symbol: no correction.
        let out = arbitrate(&code, &w1, &[4], &clean, &[]).unwrap();
        assert_eq!(out.data(), Some(&data()[..]));
        if let ArbiterOutput::Data { branch, .. } = out {
            assert_eq!(branch, ArbiterBranch::NoFlags);
        }
    }

    #[test]
    fn common_erasures_are_decoded_not_masked() {
        let code = code();
        let clean = code.encode(&data()).unwrap();
        let mut w1 = clean.clone();
        let mut w2 = clean.clone();
        w1[7] = 0x11;
        w2[7] = 0x22; // both modules stuck at position 7 (an X pair)
        let out = arbitrate(&code, &w1, &[7], &w2, &[7]).unwrap();
        assert_eq!(out.data(), Some(&data()[..]));
    }

    #[test]
    fn masked_erasure_onto_errored_symbol_still_corrects() {
        // A `b` pair: module 1 position erased, module 2 same position has
        // a random error. The mask imports the error; the decoder then
        // fixes it (1 random error ≤ t).
        let code = code();
        let clean = code.encode(&data()).unwrap();
        let mut w1 = clean.clone();
        let mut w2 = clean.clone();
        w1[3] = 0x7f; // stuck
        w2[3] ^= 0x04; // SEU on the homologous symbol
        let out = arbitrate(&code, &w1, &[3], &w2, &[]).unwrap();
        assert_eq!(out.data(), Some(&data()[..]));
    }

    #[test]
    fn unflagged_word_wins_on_disagreement() {
        // Word 1 suffers 2 SEUs (beyond t=1): it either fails (single
        // survivor) or mis-corrects (flagged, differs) — in both cases the
        // arbiter must emit word 2's data.
        let code = code();
        let clean = code.encode(&data()).unwrap();
        let mut w1 = clean.clone();
        w1[0] ^= 0x40;
        w1[9] ^= 0x02;
        let out = arbitrate(&code, &w1, &[], &clean, &[]).unwrap();
        assert_eq!(out.data(), Some(&data()[..]));
        if let ArbiterOutput::Data { branch, .. } = &out {
            assert!(
                matches!(
                    branch,
                    ArbiterBranch::UnflaggedWins | ArbiterBranch::SingleSurvivor
                ),
                "branch {branch:?}"
            );
        }
    }

    #[test]
    fn equal_corrections_are_trusted() {
        // The same single SEU position/value in both words (an `ec` pair):
        // both decoders correct identically → EqualFlagged.
        let code = code();
        let clean = code.encode(&data()).unwrap();
        let mut w1 = clean.clone();
        let mut w2 = clean.clone();
        w1[5] ^= 0x08;
        w2[5] ^= 0x08;
        let out = arbitrate(&code, &w1, &[], &w2, &[]).unwrap();
        assert_eq!(out.data(), Some(&data()[..]));
        if let ArbiterOutput::Data { branch, .. } = out {
            assert_eq!(branch, ArbiterBranch::EqualFlagged);
        }
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        // found by rsmem-stress: the masking step used to index into the
        // words before any validation, so these inputs panicked.
        let code = RsCode::new(15, 9, 4).unwrap();
        let w = code.encode(&[0; 9]).unwrap();
        // Out-of-range erasure position (either module).
        assert!(arbitrate(&code, &w, &[99], &w, &[]).is_err());
        assert!(arbitrate(&code, &w, &[], &w, &[15]).is_err());
        // Duplicate erasure position.
        assert!(arbitrate(&code, &w, &[3, 3], &w, &[]).is_err());
        // Short and long words (either module).
        assert!(arbitrate(&code, &w[..10], &[12], &w, &[]).is_err());
        let long: Vec<Symbol> = w.iter().copied().chain([0]).collect();
        assert!(arbitrate(&code, &w, &[], &long, &[]).is_err());
    }

    #[test]
    fn both_flagged_disagreeing_withholds_output_even_when_one_is_right() {
        // Word 2 has a single SEU: its decoder corrects it (flag set,
        // data RIGHT). Word 1 has 2 SEUs chosen so that its decoder
        // mis-corrects (flag set, data WRONG). Both flagged + different
        // → the paper's tie-break refuses to output although word 2 is
        // actually correct: the arbiter cannot know which flag to trust.
        let code = code(); // RS(18,16), t = 1
        let clean = code.encode(&data()).unwrap();

        // Deterministically search a small pattern space for a 2-error
        // word that mis-corrects (GF(256) shortening detects most).
        let mut miscorrecting: Option<Vec<Symbol>> = None;
        'search: for p2 in 1..code.n() {
            for magnitude in 1..=255u16 {
                let mut w = clean.clone();
                w[0] ^= 0x01;
                w[p2] ^= magnitude;
                if let DecodeOutcome::Corrected { data: d, .. } = code.decode(&w, &[]).unwrap() {
                    if d != data() {
                        miscorrecting = Some(w);
                        break 'search;
                    }
                }
            }
        }
        let w1 = miscorrecting.expect("RS(18,16) has 2-error mis-corrections");

        let mut w2 = clean.clone();
        w2[9] ^= 0x08; // single correctable SEU → flagged, correct data
        assert_eq!(
            code.decode(&w2, &[]).unwrap().data(),
            Some(&data()[..]),
            "w2 must decode correctly"
        );

        let out = arbitrate(&code, &w1, &[], &w2, &[]).unwrap();
        assert_eq!(out, ArbiterOutput::NoOutput);
    }

    #[test]
    fn hopeless_corruption_yields_no_output() {
        // Clobber both words heavily at distinct positions so both decoders
        // fail or mis-correct to different words.
        let code = code();
        let clean = code.encode(&data()).unwrap();
        let mut w1 = clean.clone();
        let mut w2 = clean.clone();
        for i in 0..8 {
            w1[i] ^= 0x31 + i as Symbol;
            w2[17 - i] ^= 0x55 + i as Symbol;
        }
        let out = arbitrate(&code, &w1, &[], &w2, &[]).unwrap();
        // With 8 errors per word the overwhelmingly likely outcome is
        // detected failure on both → NoOutput. A mis-correction would
        // surface as Data with wrong content; either way it must not be
        // the original data by luck — assert only the no-silent-success
        // property we rely on elsewhere.
        if let Some(d) = out.data() {
            assert_ne!(d, &data()[..], "8-error words cannot decode correctly");
        }
    }
}
