//! Differential stress suite for the code-family framework.
//!
//! The decode suite ([`crate::decode`]) hammers `RsCode` directly; this
//! suite drives the *trait seam* — every [`rsmem_codes::MemoryCode`]
//! implementation reached through [`rsmem_codes::build`] — with the same
//! capability-lattice sweep, so the Reed–Muller and interleaved-RS
//! decoders (and the trait plumbing itself) obey the contracts the
//! simulator and arbiter rely on:
//!
//! * `decode` never panics and never returns `Err` on well-formed input;
//! * a `Clean` outcome re-encodes to the received word, and inside the
//!   raw capability bound it carries the stored data;
//! * a `Corrected` outcome re-encodes from its own data, and inside the
//!   bound it carries the stored data; for RS and RM the claimed
//!   pattern stays within the budget (interleaved RS legitimately
//!   corrects beyond its *worst-case* budget when faults spread across
//!   constituents, so the claim gate is per-constituent there);
//! * inside the bound a decode never reports `Failure`;
//! * the trait's `decode_batch` agrees exactly with the scalar decode
//!   (classification, correction counts, in-place repair);
//! * for the RS family the trait object is **bit-identical** to calling
//!   `RsCode` directly.
//!
//! "Inside the bound" uses the raw decode-time budget
//! `CodeParams::capability().budget` (`er + 2·re ≤ budget`): the suite
//! performs no write-time stuck-at masking, so the masked-erasure
//! allowance of RM(1,r) does not apply.

use crate::report::{Divergence, FamiliesReport};
use crate::rng::SplitMix64;
use crate::shrink;
use rsmem_code::{BatchOutcome, DecodeOutcome, RsCode, Symbol};
use rsmem_codes::{build, MemoryCode};
use rsmem_models::{CodeFamily, CodeParams};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases accumulated per code before a batched differential flush (same
/// bound as the decode suite's).
const BATCH_FLUSH: usize = 256;

/// The family zoo: the paper's RS(18,16) plus a mid-rate RS as trait
/// anchors, three Reed–Muller orders, and interleaved shapes covering
/// depth extremes and a tiny field.
pub fn zoo() -> Vec<CodeParams> {
    vec![
        CodeParams::rs18_16(),
        CodeParams::new(15, 9, 4).expect("valid RS"),
        CodeParams::rm1(3).expect("valid RM"),
        CodeParams::rm1(4).expect("valid RM"),
        CodeParams::rm1(5).expect("valid RM"),
        CodeParams::interleaved(15, 9, 4, 3).expect("valid IRS"),
        CodeParams::interleaved(18, 16, 8, 2).expect("valid IRS"),
        CodeParams::interleaved(7, 3, 3, 4).expect("valid IRS"),
    ]
}

/// One self-contained injection case against a family code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyCase {
    /// The code's counting parameters (family included).
    pub params: CodeParams,
    /// The stored dataword.
    pub data: Vec<Symbol>,
    /// The received (corrupted) word.
    pub word: Vec<Symbol>,
    /// Declared erasure positions.
    pub erasures: Vec<usize>,
}

impl FamilyCase {
    /// Number of true random errors: corrupted positions not declared
    /// as erasures.
    pub fn true_errors(&self, clean: &[Symbol]) -> usize {
        (0..self.params.n())
            .filter(|p| !self.erasures.contains(p) && self.word[*p] != clean[*p])
            .count()
    }
}

/// Checks every trait-level invariant for `case`; returns the first
/// violation as a stable `(kind, detail)` pair, or `None`.
pub fn check_case(code: &dyn MemoryCode, case: &FamilyCase) -> Option<(&'static str, String)> {
    let family = case.params.family();
    let clean = code.encode(&case.data).expect("valid dataword");
    let budget = case.params.capability().budget;
    let er = case.erasures.len();
    let re = case.true_errors(&clean);
    let within = er + 2 * re <= budget;

    let result = catch_unwind(AssertUnwindSafe(|| code.decode(&case.word, &case.erasures)));
    let outcome = match result {
        Err(_) => return Some(("panic", format!("{family} decode panicked"))),
        Ok(Err(e)) => {
            return Some((
                "api-error",
                format!("{family} rejected well-formed input: {e}"),
            ))
        }
        Ok(Ok(outcome)) => outcome,
    };
    match &outcome {
        DecodeOutcome::Clean { data } => {
            if code.encode(data).expect("decoded data is well-formed") != case.word {
                return Some((
                    "clean-noncodeword",
                    format!("{family} accepted a non-codeword"),
                ));
            }
            if within && data != &case.data {
                return Some(("clean-wrong-data", format!("{family} within bound")));
            }
        }
        DecodeOutcome::Corrected {
            data,
            codeword,
            corrections,
        } => {
            if &code.encode(data).expect("decoded data is well-formed") != codeword {
                return Some((
                    "reencode-mismatch",
                    format!("{family} data does not re-encode to its codeword"),
                ));
            }
            let claimed = corrections.iter().filter(|c| !c.was_erasure).count();
            if family != CodeFamily::Irs && er + 2 * claimed > budget {
                return Some((
                    "claim-beyond-capability",
                    format!("{family} claims {er} erasures + {claimed} errors, budget {budget}"),
                ));
            }
            if within && data != &case.data {
                return Some((
                    "miscorrect-within",
                    format!("{family} with er={er} re={re} inside the bound"),
                ));
            }
        }
        DecodeOutcome::Failure(failure) => {
            if within {
                return Some((
                    "detect-within",
                    format!("{family} reported {failure} with er={er} re={re} ≤ budget {budget}"),
                ));
            }
        }
    }

    // RS anchor: the trait object must be bit-identical to the concrete
    // decoder the rest of the workspace still calls directly.
    if family == CodeFamily::Rs {
        let concrete = RsCode::new(case.params.n(), case.params.k(), case.params.m())
            .expect("zoo RS is valid")
            .decode(&case.word, &case.erasures)
            .expect("well-formed case");
        if concrete != outcome {
            return Some((
                "trait-divergence",
                format!("trait object {outcome:?} vs concrete RsCode {concrete:?}"),
            ));
        }
    }
    None
}

/// Differentially checks the trait's `decode_batch` against the scalar
/// decode over a slice of same-code cases: same classification, same
/// correction counts, corrected words repaired in place, untouched
/// otherwise.
fn check_batch(
    code: &dyn MemoryCode,
    cases: &[FamilyCase],
    report: &mut FamiliesReport,
    max_divergences: usize,
) {
    if cases.is_empty() {
        return;
    }
    let mut push = |case: &FamilyCase, detail: String| {
        if report.divergences.len() < max_divergences {
            report.divergences.push(Divergence {
                suite: "families",
                kind: "batch-divergence",
                summary: format!("{}: {detail}", case.params),
                repro: render_family_repro(case, "batch-divergence", &detail),
            });
        }
    };
    let mut words: Vec<Symbol> = cases.iter().flat_map(|c| c.word.iter().copied()).collect();
    let erasures: Vec<Vec<usize>> = cases.iter().map(|c| c.erasures.clone()).collect();
    let mut outcomes = Vec::with_capacity(cases.len());
    if let Err(e) = code.decode_batch(&mut words, &erasures, &mut outcomes) {
        push(
            &cases[0],
            format!("decode_batch rejected a well-formed batch: {e}"),
        );
        return;
    }
    let n = code.n();
    for (i, case) in cases.iter().enumerate() {
        let word = &words[i * n..(i + 1) * n];
        let scalar = code
            .decode(&case.word, &case.erasures)
            .expect("well-formed case");
        let agrees = match (&outcomes[i], &scalar) {
            (BatchOutcome::Clean, DecodeOutcome::Clean { .. }) => true,
            (
                BatchOutcome::Corrected { errors, erasures },
                DecodeOutcome::Corrected { corrections, .. },
            ) => {
                let erased = corrections.iter().filter(|c| c.was_erasure).count() as u32;
                *erasures == erased && *errors == corrections.len() as u32 - erased
            }
            (BatchOutcome::Failure(bf), DecodeOutcome::Failure(sf)) => bf == sf,
            _ => false,
        };
        if !agrees {
            push(
                case,
                format!(
                    "outcome mismatch: batch {:?} vs scalar {scalar:?}",
                    outcomes[i]
                ),
            );
            continue;
        }
        match &scalar {
            DecodeOutcome::Corrected { codeword, .. } => {
                if word != codeword {
                    push(
                        case,
                        "in-place corrected word differs from scalar codeword".to_string(),
                    );
                }
            }
            // Clean and Failure must leave the word untouched.
            _ => {
                if word != case.word {
                    push(case, "batch mutated a word it did not correct".to_string());
                }
            }
        }
    }
}

/// Classification of the scalar outcome, for the report.
fn classify(code: &dyn MemoryCode, case: &FamilyCase, report: &mut FamiliesReport) {
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
            }
        }
        DecodeOutcome::Failure(_) => report.detected += 1,
    }
}

fn record(
    code: &dyn MemoryCode,
    case: &FamilyCase,
    report: &mut FamiliesReport,
    max_divergences: usize,
) {
    let clean = code.encode(&case.data).expect("valid dataword");
    let spent = case.erasures.len() + 2 * case.true_errors(&clean);
    let budget = case.params.capability().budget;
    report.cases += 1;
    if spent < budget {
        report.inside += 1;
    } else if spent == budget {
        report.on_bound += 1;
    } else {
        report.beyond += 1;
    }
    if let Some((kind, detail)) = check_case(code, case) {
        if report.divergences.len() < max_divergences {
            let minimized = shrink_family(code, case.clone(), kind);
            report.divergences.push(Divergence {
                suite: "families",
                kind,
                summary: format!("{}: {detail}", case.params),
                repro: render_family_repro(&minimized, kind, &detail),
            });
        }
        return;
    }
    classify(code, case, report);
}

/// Greedily minimizes a failing family case while the violation `kind`
/// keeps reproducing (see [`shrink_family_with`]).
pub fn shrink_family(code: &dyn MemoryCode, case: FamilyCase, kind: &'static str) -> FamilyCase {
    shrink_family_with(
        code,
        case,
        |c| matches!(check_case(code, c), Some((k, _)) if k == kind),
    )
}

/// Greedy shrink loop with an injected failure predicate: drops
/// erasures, removes or collapses corrupted symbols (working on the XOR
/// delta so data simplification re-encodes cleanly), and zeroes data
/// symbols, to a fixpoint.
pub fn shrink_family_with<F>(code: &dyn MemoryCode, case: FamilyCase, still_fails: F) -> FamilyCase
where
    F: Fn(&FamilyCase) -> bool,
{
    let mut data = case.data.clone();
    let mut delta: Vec<Symbol> = {
        let clean = code.encode(&data).expect("valid dataword");
        case.word.iter().zip(&clean).map(|(w, c)| w ^ c).collect()
    };
    let mut erasures = case.erasures.clone();

    let rebuild = |data: &[Symbol], delta: &[Symbol], erasures: &[usize]| {
        let clean = code.encode(data).expect("valid dataword");
        FamilyCase {
            word: clean.iter().zip(delta).map(|(c, d)| c ^ d).collect(),
            data: data.to_vec(),
            erasures: erasures.to_vec(),
            params: case.params,
        }
    };

    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < erasures.len() {
            let mut cand = erasures.clone();
            cand.remove(i);
            if still_fails(&rebuild(&data, &delta, &cand)) {
                erasures = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
        for p in 0..delta.len() {
            if delta[p] == 0 {
                continue;
            }
            let saved = delta[p];
            delta[p] = 0;
            if still_fails(&rebuild(&data, &delta, &erasures)) {
                changed = true;
                continue;
            }
            if saved != 1 {
                delta[p] = 1;
                if still_fails(&rebuild(&data, &delta, &erasures)) {
                    changed = true;
                    continue;
                }
            }
            delta[p] = saved;
        }
        for i in 0..data.len() {
            if data[i] == 0 {
                continue;
            }
            let saved = data[i];
            data[i] = 0;
            if still_fails(&rebuild(&data, &delta, &erasures)) {
                changed = true;
            } else {
                data[i] = saved;
            }
        }
    }
    rebuild(&data, &delta, &erasures)
}

/// The `CodeParams` constructor expression reproducing `params`.
fn params_expr(params: &CodeParams) -> String {
    match params.family() {
        CodeFamily::Rs => format!(
            "CodeParams::new({}, {}, {}).unwrap()",
            params.n(),
            params.k(),
            params.m()
        ),
        CodeFamily::Rm => format!("CodeParams::rm1({}).unwrap()", params.n().trailing_zeros()),
        CodeFamily::Irs => format!(
            "CodeParams::interleaved({}, {}, {}, {}).unwrap()",
            params.inner_n(),
            params.inner_k(),
            params.m(),
            params.depth()
        ),
    }
}

fn symbol_vec_literal(xs: &[Symbol]) -> String {
    let body: Vec<String> = xs.iter().map(ToString::to_string).collect();
    format!("vec![{}]", body.join(", "))
}

/// Renders the minimized case as a ready-to-paste unit test asserting
/// the violated invariant (paste into `crates/codes`).
pub fn render_family_repro(case: &FamilyCase, kind: &'static str, detail: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "#[test]");
    let _ = writeln!(
        out,
        "fn stress_families_regression_{}() {{",
        kind.replace('-', "_")
    );
    let _ = writeln!(
        out,
        "    // found by rsmem-stress (families): {kind} — {detail}"
    );
    let _ = writeln!(
        out,
        "    let code = build({}).unwrap();",
        params_expr(&case.params)
    );
    let _ = writeln!(
        out,
        "    let data: Vec<Symbol> = {};",
        symbol_vec_literal(&case.data)
    );
    let _ = writeln!(
        out,
        "    let word: Vec<Symbol> = {};",
        symbol_vec_literal(&case.word)
    );
    let _ = writeln!(
        out,
        "    let erasures: Vec<usize> = {};",
        shrink::usize_vec_literal(&case.erasures)
    );
    let _ = writeln!(out, "    let out = code.decode(&word, &erasures).unwrap();");
    match kind {
        "panic" | "api-error" => {
            let _ = writeln!(out, "    let _ = out; // must not panic or Err");
        }
        "clean-noncodeword" => {
            let _ = writeln!(
                out,
                "    if let DecodeOutcome::Clean {{ data: d }} = &out {{"
            );
            let _ = writeln!(out, "        assert_eq!(code.encode(d).unwrap(), word);");
            let _ = writeln!(out, "    }}");
        }
        "clean-wrong-data" | "miscorrect-within" | "detect-within" => {
            let _ = writeln!(
                out,
                "    // er + 2·re ≤ the capability budget here, so decoding must return the data."
            );
            let _ = writeln!(out, "    assert_eq!(out.data(), Some(&data[..]));");
        }
        "reencode-mismatch" | "claim-beyond-capability" => {
            let _ = writeln!(
                out,
                "    if let DecodeOutcome::Corrected {{ data: d, codeword, corrections }} = &out {{"
            );
            let _ = writeln!(
                out,
                "        assert_eq!(&code.encode(d).unwrap(), codeword);"
            );
            let _ = writeln!(
                out,
                "        let claimed = corrections.iter().filter(|c| !c.was_erasure).count();"
            );
            let _ = writeln!(
                out,
                "        assert!(erasures.len() + 2 * claimed <= code.capability().budget);"
            );
            let _ = writeln!(out, "    }}");
        }
        "trait-divergence" => {
            let _ = writeln!(
                out,
                "    // The trait object must be bit-identical to the concrete decoder."
            );
            let _ = writeln!(
                out,
                "    let concrete = RsCode::new(code.n(), code.k(), code.symbol_bits()).unwrap();"
            );
            let _ = writeln!(
                out,
                "    assert_eq!(out, concrete.decode(&word, &erasures).unwrap());"
            );
        }
        _ => {
            let _ = writeln!(out, "    let _ = &out;");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Runs `budget` seeded-random cases round-robin across the family zoo
/// and returns the counters and any shrunk divergences.
pub fn run(seed: u64, budget: usize, max_divergences: usize) -> FamiliesReport {
    let mut report = FamiliesReport::default();
    let mut rng = SplitMix64::new(seed);
    let mut progress = rsmem_obs::Progress::new("stress.families", "family sweep");
    let params = zoo();
    let codes: Vec<Box<dyn MemoryCode>> = params
        .iter()
        .map(|&p| build(p).expect("zoo params are valid"))
        .collect();
    let mut corpora: Vec<Vec<FamilyCase>> = vec![Vec::new(); params.len()];

    for i in 0..budget {
        if (i + 1).is_multiple_of(512) {
            progress.tick(
                (i + 1) as u64,
                budget as u64,
                &[("divergences", report.divergences.len() as u64)],
            );
        }
        let idx = i % params.len();
        let p = params[idx];
        let code = codes[idx].as_ref();
        let (n, k) = (p.n(), p.k());
        let budget_cap = p.capability().budget;
        let size = 1u64 << p.m();

        let data: Vec<Symbol> = (0..k).map(|_| rng.below(size) as Symbol).collect();
        let clean = code.encode(&data).expect("valid dataword");

        // Lattice sweep: er up to one past the budget, re pushing
        // er + 2·re a few steps beyond the bound.
        let er = rng.below_usize(budget_cap + 2).min(n);
        let re_cap = (budget_cap / 2 + 2).min(n.saturating_sub(er));
        let re = rng.below_usize(re_cap + 1);

        let mut positions: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut positions);
        let erasures: Vec<usize> = positions[..er].to_vec();
        let mut word = clean.clone();
        for &pos in &erasures {
            // An erased cell reads an arbitrary value — possibly the
            // original one (self-checking flags the cell, not the data).
            word[pos] = rng.below(size) as Symbol;
        }
        for &pos in &positions[er..er + re] {
            word[pos] ^= 1 + rng.below(size - 1) as Symbol;
        }

        let case = FamilyCase {
            params: p,
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
        check_batch(codes[idx].as_ref(), corpus, &mut report, max_divergences);
    }
    progress.finish(
        budget as u64,
        budget as u64,
        &[("divergences", report.divergences.len() as u64)],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_random_sweep_is_clean_and_counts_add_up() {
        let report = run(0xDA7E, 1_600, 8);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.cases, 1_600);
        assert_eq!(
            report.inside + report.on_bound + report.beyond,
            report.cases
        );
        assert_eq!(
            report.clean + report.corrected + report.detected + report.miscorrected,
            report.cases
        );
        // The lattice reaches all three regions.
        assert!(report.inside > 0 && report.on_bound > 0 && report.beyond > 0);
    }

    #[test]
    fn within_capability_case_passes_for_every_family() {
        for p in zoo() {
            let code = build(p).unwrap();
            let data: Vec<Symbol> = (0..p.k())
                .map(|j| (j as u64 % (1 << p.m())) as Symbol)
                .collect();
            let mut word = code.encode(&data).unwrap();
            word[0] ^= 1; // one random error — within every zoo budget
            let case = FamilyCase {
                params: p,
                data,
                word,
                erasures: vec![],
            };
            assert_eq!(check_case(code.as_ref(), &case), None, "{p}");
        }
    }

    #[test]
    fn shrinker_reduces_a_synthetic_rm_violation() {
        // "Position 3 is corrupted" plays the violation (a real decoder
        // divergence is — deliberately — unavailable); the kernel must
        // be a zero dataword with a single bit flip and no erasures.
        let p = CodeParams::rm1(4).unwrap();
        let code = build(p).unwrap();
        let data = vec![1, 0, 1, 1, 0];
        let clean = code.encode(&data).unwrap();
        let mut word = clean.clone();
        word[3] ^= 1; // the "violation"
        word[7] ^= 1; // noise
        let case = FamilyCase {
            params: p,
            data,
            word,
            erasures: vec![1],
        };
        let min = shrink_family_with(code.as_ref(), case, |c| {
            let clean = code.encode(&c.data).unwrap();
            c.word[3] != clean[3]
        });
        assert_eq!(min.data, vec![0; 5]);
        assert!(min.erasures.is_empty());
        let clean = code.encode(&min.data).unwrap();
        let diffs: Vec<usize> = (0..16).filter(|&pos| min.word[pos] != clean[pos]).collect();
        assert_eq!(diffs, vec![3]);
    }

    #[test]
    fn repro_renders_a_compilable_looking_test() {
        let p = CodeParams::interleaved(15, 9, 4, 3).unwrap();
        let code = build(p).unwrap();
        let data = vec![0; p.k()];
        let word = code.encode(&data).unwrap();
        let case = FamilyCase {
            params: p,
            data,
            word,
            erasures: vec![2],
        };
        let text = render_family_repro(&case, "miscorrect-within", "synthetic");
        assert!(text.contains("#[test]"));
        assert!(text.contains("fn stress_families_regression_miscorrect_within()"));
        assert!(text.contains("CodeParams::interleaved(15, 9, 4, 3).unwrap()"));
        assert!(text.contains("assert_eq!(out.data(), Some(&data[..]));"));
    }
}
