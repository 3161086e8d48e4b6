//! Differential stress suite for the RS decode chain.
//!
//! Sweeps erasure+error patterns across the capability lattice — strictly
//! inside, exactly on, and beyond `er + 2·re = n − k` — through
//! encode → inject → decode with **both** key-equation back-ends, and
//! checks the invariants the rest of the workspace relies on:
//!
//! * the API never panics and never returns `Err` on well-formed input;
//! * a `Clean` outcome implies the word really is a codeword, and inside
//!   the bound it implies the stored data;
//! * a `Corrected` outcome implies a valid codeword that re-encodes from
//!   its own data (systematic consistency), a claimed pattern within
//!   capability, and — inside the bound — the stored data;
//! * inside the bound a decode never reports `Failure`;
//! * **bounded-distance uniqueness**: if both back-ends return
//!   claim-valid successes for the same received word they must agree
//!   exactly, because two distinct codewords inside claimed-capability
//!   balls of one word would be closer than the minimum distance.

use crate::report::{DecodeReport, Divergence};
use crate::rng::SplitMix64;
use crate::shrink;
use rsmem_code::{syndromes, DecodeOpts, DecodeOutcome, DecoderBackend, RsCode, Symbol};
use rsmem_obs::recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases accumulated per code before a batched differential flush. Large
/// enough to exercise the batch plane's SoA path, small enough to keep
/// the corpus memory bounded regardless of the sweep budget.
const BATCH_FLUSH: usize = 256;

/// The code zoo the random sweep draws from: the paper's RS(18,16) and
/// RS(36,16), plus small/odd shapes (tiny fields, non-zero first roots,
/// rate extremes) that exercise corner paths cheaply.
pub const CODES: [(usize, usize, u32, u32); 10] = [
    (7, 3, 3, 0),
    (15, 9, 4, 0),
    (15, 11, 4, 1),
    (12, 8, 4, 1),
    (6, 2, 3, 0),
    (3, 1, 2, 0),
    (7, 6, 3, 0),
    (18, 16, 8, 0),
    (36, 16, 8, 112),
    (10, 4, 5, 1),
];

/// One self-contained injection case (everything needed to replay it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeCase {
    /// Codeword length.
    pub n: usize,
    /// Dataword length.
    pub k: usize,
    /// Symbol width in bits.
    pub m: u32,
    /// First consecutive generator root exponent.
    pub b: u32,
    /// The stored dataword.
    pub data: Vec<Symbol>,
    /// The received (corrupted) word.
    pub word: Vec<Symbol>,
    /// Declared erasure positions.
    pub erasures: Vec<usize>,
}

impl DecodeCase {
    /// Number of true random errors: corrupted positions not declared
    /// as erasures.
    pub fn true_errors(&self, clean: &[Symbol]) -> usize {
        (0..self.n)
            .filter(|p| !self.erasures.contains(p) && self.word[*p] != clean[*p])
            .count()
    }
}

/// Checks every decode-chain invariant for `case`; returns the first
/// violation as a stable `(kind, detail)` pair, or `None`.
pub fn check_case(code: &RsCode, case: &DecodeCase) -> Option<(&'static str, String)> {
    let clean = code.encode(&case.data).expect("valid dataword");
    let red = code.parity_symbols();
    let er = case.erasures.len();
    let re = case.true_errors(&clean);
    let within = er + 2 * re <= red;
    let mut successes: Vec<(DecoderBackend, Vec<Symbol>)> = Vec::new();

    for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            code.decode_with(&case.word, &case.erasures, backend)
        }));
        let outcome = match result {
            Err(_) => return Some(("panic", format!("{backend} panicked"))),
            Ok(Err(e)) => {
                return Some((
                    "api-error",
                    format!("{backend} rejected well-formed input: {e}"),
                ))
            }
            Ok(Ok(outcome)) => outcome,
        };
        match &outcome {
            DecodeOutcome::Clean { data } => {
                if !code.is_codeword(&case.word).expect("validated word") {
                    return Some((
                        "clean-noncodeword",
                        format!("{backend} accepted a non-codeword"),
                    ));
                }
                if within && data != &case.data {
                    return Some(("clean-wrong-data", format!("{backend} within bound")));
                }
                successes.push((backend, case.word.clone()));
            }
            DecodeOutcome::Corrected {
                data,
                codeword,
                corrections,
            } => {
                if !code.is_codeword(codeword).expect("validated word") {
                    return Some((
                        "invalid-codeword",
                        format!("{backend} emitted a word with non-zero syndromes"),
                    ));
                }
                if &code.encode(data).expect("valid data") != codeword {
                    return Some((
                        "reencode-mismatch",
                        format!("{backend} data does not re-encode to its codeword"),
                    ));
                }
                let claimed = corrections.iter().filter(|c| !c.was_erasure).count();
                if er + 2 * claimed > red {
                    return Some((
                        "claim-beyond-capability",
                        format!("{backend} claims {er} erasures + {claimed} errors, n−k = {red}"),
                    ));
                }
                if within && data != &case.data {
                    return Some((
                        "miscorrect-within",
                        format!("{backend} with er={er} re={re} inside the bound"),
                    ));
                }
                successes.push((backend, codeword.clone()));
            }
            DecodeOutcome::Failure(failure) => {
                if within {
                    return Some((
                        "detect-within",
                        format!("{backend} reported {failure} with er={er} re={re} ≤ bound"),
                    ));
                }
            }
        }
    }

    if successes.len() == 2 && successes[0].1 != successes[1].1 {
        return Some((
            "backend-divergence",
            format!(
                "{} and {} returned different claim-valid codewords",
                successes[0].0, successes[1].0
            ),
        ));
    }
    None
}

/// Differentially checks [`RsCode::decode_many`] against the scalar
/// per-word decode over a slice of same-code cases: the batch plane is
/// an optimization and must agree **exactly** — same outcome
/// classification, same corrected words, untouched words otherwise. Any
/// disagreement is reported as a `batch-divergence`.
fn check_batch(
    code: &RsCode,
    cases: &[DecodeCase],
    report: &mut DecodeReport,
    max_divergences: usize,
) {
    if cases.is_empty() {
        return;
    }
    let mut push = |case: &DecodeCase, detail: String| {
        if report.divergences.len() < max_divergences {
            report.divergences.push(Divergence {
                suite: "decode",
                kind: "batch-divergence",
                summary: format!(
                    "RS({},{}) m={} b={}: {detail}",
                    case.n, case.k, case.m, case.b
                ),
                repro: shrink::render_decode_repro(case, "batch-divergence", &detail),
            });
        }
    };
    let mut words: Vec<Vec<Symbol>> = cases.iter().map(|c| c.word.clone()).collect();
    let erasures: Vec<Vec<usize>> = cases.iter().map(|c| c.erasures.clone()).collect();
    let batched = match code.decode_many(&mut words, &erasures, &DecodeOpts::default()) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            push(
                &cases[0],
                format!("decode_many rejected a well-formed batch: {e}"),
            );
            return;
        }
    };
    for (i, case) in cases.iter().enumerate() {
        let scalar = code
            .decode(&case.word, &case.erasures)
            .expect("well-formed case");
        if batched[i] != scalar {
            push(
                case,
                format!(
                    "outcome mismatch: batch {:?} vs scalar {scalar:?}",
                    batched[i]
                ),
            );
            continue;
        }
        match &scalar {
            DecodeOutcome::Corrected { codeword, .. } => {
                if &words[i] != codeword {
                    push(
                        case,
                        "in-place corrected word differs from scalar codeword".to_string(),
                    );
                }
            }
            // Clean and Failure must leave the word untouched.
            _ => {
                if words[i] != case.word {
                    push(case, "batch mutated a word it did not correct".to_string());
                }
            }
        }
    }
}

/// Classification of the default back-end's outcome, for the report.
fn classify(code: &RsCode, case: &DecodeCase, report: &mut DecodeReport) {
    match code
        .decode(&case.word, &case.erasures)
        .expect("well-formed case")
    {
        DecodeOutcome::Clean { .. } => report.clean += 1,
        DecodeOutcome::Corrected { data, .. } => {
            if data == case.data {
                report.corrected += 1;
            } else {
                report.miscorrected += 1;
                record_miscorrection_exemplar(code, case);
            }
        }
        DecodeOutcome::Failure(_) => report.detected += 1,
    }
}

/// Freezes a beyond-bound miscorrection for the flight recorder: the
/// exact error/erasure pattern, the received word's syndromes, both
/// back-ends' verdicts and a ready-to-paste repro. These are *legal*
/// outcomes (the pattern exceeded the code's capability), not
/// divergences — which is exactly why they only survive here.
fn record_miscorrection_exemplar(code: &RsCode, case: &DecodeCase) {
    if !recorder::enabled() {
        return;
    }
    recorder::record_exemplar_with("miscorrection", || {
        let verdicts = [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey]
            .iter()
            .map(|&backend| {
                let verdict = match code.decode_with(&case.word, &case.erasures, backend) {
                    Ok(DecodeOutcome::Clean { .. }) => "Clean".to_owned(),
                    Ok(DecodeOutcome::Corrected { data, .. }) => {
                        if data == case.data {
                            "Corrected(original)".to_owned()
                        } else {
                            "Corrected(wrong data)".to_owned()
                        }
                    }
                    Ok(DecodeOutcome::Failure(f)) => format!("Failure({f})"),
                    Err(e) => format!("Err({e})"),
                };
                format!("{backend}: {verdict}")
            })
            .collect();
        let clean = code.encode(&case.data).expect("valid dataword");
        let detail = format!(
            "er={} re={} beyond n−k={}",
            case.erasures.len(),
            case.true_errors(&clean),
            code.parity_symbols()
        );
        recorder::Exemplar {
            code: format!("rs:{},{},{} b0={}", case.n, case.k, case.m, case.b),
            word: case.word.iter().map(|&s| u32::from(s)).collect(),
            erasures: case.erasures.iter().map(|&p| p as u32).collect(),
            syndromes: syndromes(code, &case.word)
                .iter()
                .map(|&s| u32::from(s))
                .collect(),
            verdicts,
            detail,
            repro: shrink::render_decode_repro(case, "miscorrection", "beyond-bound miscorrection"),
            ..recorder::Exemplar::default()
        }
    });
}

fn record(code: &RsCode, case: &DecodeCase, report: &mut DecodeReport, max_divergences: usize) {
    let clean = code.encode(&case.data).expect("valid dataword");
    let budget = case.erasures.len() + 2 * case.true_errors(&clean);
    let red = code.parity_symbols();
    report.cases += 1;
    if budget < red {
        report.inside += 1;
    } else if budget == red {
        report.on_bound += 1;
    } else {
        report.beyond += 1;
    }
    if let Some((kind, detail)) = check_case(code, case) {
        if report.divergences.len() < max_divergences {
            let minimized = shrink::shrink_decode(code, case.clone(), kind);
            report.divergences.push(Divergence {
                suite: "decode",
                kind,
                summary: format!(
                    "RS({},{}) m={} b={}: {detail}",
                    case.n, case.k, case.m, case.b
                ),
                repro: shrink::render_decode_repro(&minimized, kind, &detail),
            });
        }
        // A broken oracle invariant is the rarest event the recorder
        // exists for; freeze the un-shrunk case with full forensics.
        if recorder::enabled() {
            recorder::record_exemplar_with("oracle-divergence", || recorder::Exemplar {
                code: format!("rs:{},{},{} b0={}", case.n, case.k, case.m, case.b),
                word: case.word.iter().map(|&s| u32::from(s)).collect(),
                erasures: case.erasures.iter().map(|&p| p as u32).collect(),
                syndromes: syndromes(code, &case.word)
                    .iter()
                    .map(|&s| u32::from(s))
                    .collect(),
                detail: format!("{kind}: {detail}"),
                repro: shrink::render_decode_repro(case, kind, &detail),
                ..recorder::Exemplar::default()
            });
        }
        return;
    }
    classify(code, case, report);
}

/// Runs `budget` seeded-random cases across the code zoo plus (when
/// `exhaustive_budget > 0`) an exhaustive small-code sweep, and returns
/// the counters and any shrunk divergences.
pub fn run(
    seed: u64,
    budget: usize,
    exhaustive_budget: usize,
    max_divergences: usize,
) -> DecodeReport {
    let mut report = DecodeReport::default();
    let mut rng = SplitMix64::new(seed);
    let mut progress = rsmem_obs::Progress::new("stress.decode", "decode sweep");
    let codes: Vec<RsCode> = CODES
        .iter()
        .map(|&(n, k, m, b)| RsCode::with_first_root(n, k, m, b).expect("zoo codes are valid"))
        .collect();
    // Per-code corpora for the batched differential pass; flushed in
    // BATCH_FLUSH-sized blocks so memory stays bounded.
    let mut corpora: Vec<Vec<DecodeCase>> = vec![Vec::new(); CODES.len()];

    for i in 0..budget {
        if (i + 1).is_multiple_of(512) {
            progress.tick(
                (i + 1) as u64,
                budget as u64,
                &[("divergences", report.divergences.len() as u64)],
            );
            // Piggy-back the time-series sampler on the same rate-limited
            // cadence the progress reporter already uses.
            rsmem_obs::timeseries::tick();
        }
        let idx = i % CODES.len();
        let (n, k, m, b) = CODES[idx];
        let code = &codes[idx];
        let red = code.parity_symbols();
        let size = u64::from(code.field().size());

        let data: Vec<Symbol> = (0..k).map(|_| rng.below(size) as Symbol).collect();
        let clean = code.encode(&data).expect("valid dataword");

        // Lattice sweep: er ∈ 0..=red+1 (one past TooManyErasures), and a
        // random-error count pushing er + 2·re up to bound + 4.
        let er = rng.below_usize(red + 2).min(n);
        let re_cap = (red / 2 + 2).min(n.saturating_sub(er));
        let re = rng.below_usize(re_cap + 1);

        let mut positions: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut positions);
        let erasures: Vec<usize> = positions[..er].to_vec();
        let mut word = clean.clone();
        for &p in &erasures {
            // An erased cell reads an arbitrary value — possibly the
            // original one (self-checking flags the cell, not the data).
            word[p] = rng.below(size) as Symbol;
        }
        for &p in &positions[er..er + re] {
            word[p] ^= 1 + rng.below(size - 1) as Symbol;
        }

        let case = DecodeCase {
            n,
            k,
            m,
            b,
            data,
            word,
            erasures,
        };
        record(code, &case, &mut report, max_divergences);
        corpora[idx].push(case);
        if corpora[idx].len() >= BATCH_FLUSH {
            check_batch(code, &corpora[idx], &mut report, max_divergences);
            corpora[idx].clear();
        }
    }
    for (idx, corpus) in corpora.iter().enumerate() {
        check_batch(&codes[idx], corpus, &mut report, max_divergences);
    }
    progress.finish(
        budget as u64,
        budget as u64,
        &[("divergences", report.divergences.len() as u64)],
    );

    if exhaustive_budget > 0 {
        run_exhaustive(&mut report, exhaustive_budget, max_divergences);
    }
    report
}

/// Exhaustive sweep over RS(7,3) in GF(8): every erasure subset up to
/// `n − k + 1` positions crossed with every error-position subset of
/// weight ≤ 3 and every non-zero magnitude assignment (erasure fill
/// values capped at two free positions), bounded by `budget` cases.
fn run_exhaustive(report: &mut DecodeReport, budget: usize, max_divergences: usize) {
    let (n, k, m, b) = (7usize, 3usize, 3u32, 0u32);
    let code = RsCode::with_first_root(n, k, m, b).expect("valid");
    let red = code.parity_symbols();
    let size = u64::from(code.field().size());
    let data: Vec<Symbol> = vec![1, 5, 2];
    let clean = code.encode(&data).expect("valid dataword");
    let mut progress = rsmem_obs::Progress::new("stress.decode", "exhaustive sweep");
    let mut spent = 0usize;
    let mut corpus: Vec<DecodeCase> = Vec::with_capacity(BATCH_FLUSH);

    for emask in 0u32..(1 << n) {
        let erasures: Vec<usize> = (0..n).filter(|i| emask >> i & 1 == 1).collect();
        if erasures.len() > red + 1 {
            continue;
        }
        for fmask in 0u32..(1 << n) {
            if fmask & emask != 0 {
                continue;
            }
            let errpos: Vec<usize> = (0..n).filter(|i| fmask >> i & 1 == 1).collect();
            if errpos.len() > 3 || erasures.len() + 2 * errpos.len() > red + 4 {
                continue;
            }
            let combos_f = (size - 1).pow(errpos.len() as u32);
            let combos_e = size.pow(erasures.len().min(2) as u32);
            for fc in 0..combos_f {
                for ec in 0..combos_e {
                    if spent >= budget {
                        check_batch(&code, &corpus, report, max_divergences);
                        progress.finish(
                            spent as u64,
                            budget as u64,
                            &[("divergences", report.divergences.len() as u64)],
                        );
                        return;
                    }
                    spent += 1;
                    if spent.is_multiple_of(512) {
                        progress.tick(
                            spent as u64,
                            budget as u64,
                            &[("divergences", report.divergences.len() as u64)],
                        );
                        rsmem_obs::timeseries::tick();
                    }
                    let mut word = clean.clone();
                    let mut f = fc;
                    for &p in &errpos {
                        word[p] ^= 1 + (f % (size - 1)) as Symbol;
                        f /= size - 1;
                    }
                    let mut e = ec;
                    for &p in erasures.iter().take(2) {
                        word[p] = (e % size) as Symbol;
                        e /= size;
                    }
                    let case = DecodeCase {
                        n,
                        k,
                        m,
                        b,
                        data: data.clone(),
                        word,
                        erasures: erasures.clone(),
                    };
                    record(&code, &case, report, max_divergences);
                    corpus.push(case);
                    if corpus.len() >= BATCH_FLUSH {
                        check_batch(&code, &corpus, report, max_divergences);
                        corpus.clear();
                    }
                }
            }
        }
    }
    check_batch(&code, &corpus, report, max_divergences);
    // The lattice ran dry before the budget did.
    progress.finish(
        spent as u64,
        budget as u64,
        &[("divergences", report.divergences.len() as u64)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_random_sweep_is_clean_and_counts_add_up() {
        let report = run(0xDA7E, 2_000, 0, 8);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.cases, 2_000);
        assert_eq!(
            report.inside + report.on_bound + report.beyond,
            report.cases
        );
        assert_eq!(
            report.clean + report.corrected + report.detected + report.miscorrected,
            report.cases
        );
        // The lattice genuinely reaches all three regions.
        assert!(report.inside > 0 && report.on_bound > 0 && report.beyond > 0);
        // Beyond the bound the decoder sometimes miscorrects (GF(8)/GF(16)
        // members of the zoo make this frequent enough to observe).
        assert!(report.miscorrected > 0);
    }

    #[test]
    fn exhaustive_small_sweep_is_clean() {
        let report = run(1, 0, 30_000, 8);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.cases, 30_000);
    }

    #[test]
    fn batch_differential_over_pinned_corpus_is_clean() {
        // Pinned seeds exercising the random lattice (every zoo code, so
        // every bucket flush path) plus the exhaustive RS(7,3) sweep —
        // both now run decode_many differentially against the scalar
        // decode inside `run`. Divergences here mean the batch plane
        // changed decoder behavior.
        for seed in [0x5EED_CAFEu64, 42] {
            let report = run(seed, 1_500, 4_000, 8);
            assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        }
    }

    #[test]
    fn within_capability_case_passes_all_invariants() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = (0..9).collect();
        let mut word = code.encode(&data).unwrap();
        word[2] ^= 3; // one random error
        word[8] = 0; // one declared erasure
        let case = DecodeCase {
            n: 15,
            k: 9,
            m: 4,
            b: 0,
            data,
            word,
            erasures: vec![8],
        };
        assert_eq!(check_case(&code, &case), None);
    }
}
