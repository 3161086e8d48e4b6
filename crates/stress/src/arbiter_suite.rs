//! Differential stress suite for the Section-3 duplex arbiter.
//!
//! Generates correlated two-module fault patterns mirroring the paper's
//! duplex state variables — `X` (common stuck pairs), `Y` (single stuck
//! symbols), `b` (stuck + homologous SEU), `e1`/`e2` (independent SEUs),
//! `ec` (common SEUs) — and checks the arbiter against a brute-force
//! oracle:
//!
//! * it never panics and never returns `Err` on well-formed modules;
//! * within the **guaranteed set** — after erasure masking, each decoder
//!   faces a pattern within its own capability (common erasures plus
//!   residual random errors) — the arbiter must output the stored data;
//! * wrong output beyond the guarantee is counted (it is the silent
//!   channel the paper accepts), never flagged;
//! * malformed inputs (out-of-range or duplicate erasure positions,
//!   short/long words) must surface as `CodeError`, never as a panic.

use crate::report::{ArbiterReport, Divergence};
use crate::rng::SplitMix64;
use crate::shrink::usize_vec_literal;
use rsmem_code::{RsCode, Symbol};
use rsmem_sim::arbiter::arbitrate;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One correlated two-module injection case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbiterCase {
    /// Code parameters (always `b = 0` codes here).
    pub n: usize,
    /// Dataword length.
    pub k: usize,
    /// Symbol width.
    pub m: u32,
    /// Stored dataword.
    pub data: Vec<Symbol>,
    /// Module-1 stored word.
    pub word1: Vec<Symbol>,
    /// Module-2 stored word.
    pub word2: Vec<Symbol>,
    /// Located permanent faults in module 1.
    pub erasures1: Vec<usize>,
    /// Located permanent faults in module 2.
    pub erasures2: Vec<usize>,
}

/// The oracle's guaranteed-recoverable predicate: simulate the masking
/// step, then require each decoder's residual pattern (common erasures +
/// imported/ surviving random errors) to be within capability.
pub fn guaranteed(code: &RsCode, case: &ArbiterCase, clean: &[Symbol]) -> bool {
    let red = code.parity_symbols();
    let mut w1 = case.word1.clone();
    let mut w2 = case.word2.clone();
    let mut common = Vec::new();
    for &p in &case.erasures1 {
        if case.erasures2.contains(&p) {
            common.push(p);
        } else {
            w1[p] = w2[p];
        }
    }
    for &p in &case.erasures2 {
        if !case.erasures1.contains(&p) {
            w2[p] = case.word1[p];
        }
    }
    let residual = |w: &[Symbol]| {
        (0..case.n)
            .filter(|&p| !common.contains(&p) && w[p] != clean[p])
            .count()
    };
    let (r1, r2) = (residual(&w1), residual(&w2));
    let t = red / 2;
    common.len() + 2 * r1 <= red && common.len() + 2 * r2 <= red && r1 <= t && r2 <= t
}

/// Checks the arbiter invariants for one well-formed case. Returns the
/// violation as `(kind, detail)`, or `None`.
pub fn check_case(code: &RsCode, case: &ArbiterCase) -> Option<(&'static str, String)> {
    let clean = code.encode(&case.data).expect("valid dataword");
    let result = catch_unwind(AssertUnwindSafe(|| {
        arbitrate(
            code,
            &case.word1,
            &case.erasures1,
            &case.word2,
            &case.erasures2,
        )
    }));
    let output = match result {
        Err(_) => return Some(("panic", "arbitrate panicked on well-formed modules".into())),
        Ok(Err(e)) => {
            return Some((
                "api-error",
                format!("arbitrate rejected well-formed modules: {e}"),
            ))
        }
        Ok(Ok(output)) => output,
    };
    if guaranteed(code, case, &clean) && output.data() != Some(&case.data[..]) {
        return Some((
            "guaranteed-recovery-failed",
            format!(
                "guaranteed pattern (erasures {:?}/{:?}) produced {:?}",
                case.erasures1,
                case.erasures2,
                output.data().map(<[Symbol]>::len)
            ),
        ));
    }
    None
}

fn shrink(code: &RsCode, case: ArbiterCase, kind: &'static str) -> ArbiterCase {
    let still_fails = |c: &ArbiterCase| matches!(check_case(code, c), Some((k, _)) if k == kind);
    let clean = code.encode(&case.data).expect("valid dataword");
    let mut cur = case;
    let mut changed = true;
    while changed {
        changed = false;
        for module in 0..2 {
            // Drop erasures.
            let mut i = 0;
            loop {
                let mut cand = cur.clone();
                let list = if module == 0 {
                    &mut cand.erasures1
                } else {
                    &mut cand.erasures2
                };
                if i >= list.len() {
                    break;
                }
                list.remove(i);
                if still_fails(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
            // Restore corrupted symbols.
            for p in 0..cur.n {
                let mut cand = cur.clone();
                let w = if module == 0 {
                    &mut cand.word1
                } else {
                    &mut cand.word2
                };
                if w[p] == clean[p] {
                    continue;
                }
                w[p] = clean[p];
                if still_fails(&cand) {
                    cur = cand;
                    changed = true;
                }
            }
        }
    }
    cur
}

fn render_repro(case: &ArbiterCase, kind: &'static str, detail: &str) -> String {
    let sym_vec = |xs: &[Symbol]| {
        let body: Vec<String> = xs.iter().map(ToString::to_string).collect();
        format!("vec![{}]", body.join(", "))
    };
    let mut out = String::new();
    let _ = writeln!(out, "#[test]");
    let _ = writeln!(
        out,
        "fn stress_regression_arbiter_{}() {{",
        kind.replace('-', "_")
    );
    let _ = writeln!(out, "    // found by rsmem-stress: {kind} — {detail}");
    let _ = writeln!(
        out,
        "    let code = RsCode::new({}, {}, {}).unwrap();",
        case.n, case.k, case.m
    );
    let _ = writeln!(out, "    let data: Vec<Symbol> = {};", sym_vec(&case.data));
    let _ = writeln!(
        out,
        "    let word1: Vec<Symbol> = {};",
        sym_vec(&case.word1)
    );
    let _ = writeln!(
        out,
        "    let word2: Vec<Symbol> = {};",
        sym_vec(&case.word2)
    );
    let _ = writeln!(
        out,
        "    let erasures1: Vec<usize> = {};",
        usize_vec_literal(&case.erasures1)
    );
    let _ = writeln!(
        out,
        "    let erasures2: Vec<usize> = {};",
        usize_vec_literal(&case.erasures2)
    );
    let _ = writeln!(
        out,
        "    let out = arbitrate(&code, &word1, &erasures1, &word2, &erasures2).unwrap();"
    );
    if kind == "guaranteed-recovery-failed" {
        let _ = writeln!(
            out,
            "    // Both masked words are within capability: recovery is guaranteed."
        );
        let _ = writeln!(out, "    assert_eq!(out.data(), Some(&data[..]));");
    } else {
        let _ = writeln!(out, "    let _ = out; // must not panic or Err");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Injects one paper-state-variable pattern into a clean duplex pair.
fn inject(
    rng: &mut SplitMix64,
    code: &RsCode,
    clean: &[Symbol],
) -> (Vec<Symbol>, Vec<Symbol>, Vec<usize>, Vec<usize>) {
    let n = code.n();
    let size = u64::from(code.field().size());
    let mut w1 = clean.to_vec();
    let mut w2 = clean.to_vec();
    let mut e1 = Vec::new();
    let mut e2 = Vec::new();

    // Counts of each correlated class, kept small enough to fit in n.
    let x = rng.below_usize(3); // common stuck pairs
    let y = rng.below_usize(3); // single-module stuck
    let b = rng.below_usize(2); // stuck + homologous SEU
    let s1 = rng.below_usize(2); // independent SEUs, module 1
    let s2 = rng.below_usize(2); // independent SEUs, module 2
    let ec = rng.below_usize(2); // common (homologous) SEUs
    let mut positions: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut positions);
    let mut it = positions.into_iter();
    let mut take = |count: usize| -> Vec<usize> { it.by_ref().take(count).collect() };

    for p in take(x.min(n)) {
        w1[p] = rng.below(size) as Symbol;
        w2[p] = rng.below(size) as Symbol;
        e1.push(p);
        e2.push(p);
    }
    for p in take(y) {
        if rng.below(2) == 0 {
            w1[p] = rng.below(size) as Symbol;
            e1.push(p);
        } else {
            w2[p] = rng.below(size) as Symbol;
            e2.push(p);
        }
    }
    for p in take(b) {
        w1[p] = rng.below(size) as Symbol;
        e1.push(p);
        w2[p] ^= 1 + rng.below(size - 1) as Symbol;
    }
    for p in take(s1) {
        w1[p] ^= 1 + rng.below(size - 1) as Symbol;
    }
    for p in take(s2) {
        w2[p] ^= 1 + rng.below(size - 1) as Symbol;
    }
    for p in take(ec) {
        let mag = 1 + rng.below(size - 1) as Symbol;
        w1[p] ^= mag;
        w2[p] ^= mag;
    }
    (w1, w2, e1, e2)
}

/// One malformed-input probe: mutate a valid call into an invalid one
/// and require a typed error (never a panic, never `Ok`).
fn malformed_probe(
    rng: &mut SplitMix64,
    code: &RsCode,
    clean: &[Symbol],
) -> Option<(&'static str, String)> {
    let n = code.n();
    let variant = rng.below(5);
    let mut word1 = clean.to_vec();
    let mut word2 = clean.to_vec();
    let mut erasures1: Vec<usize> = Vec::new();
    let mut erasures2: Vec<usize> = Vec::new();
    let what = match variant {
        0 => {
            erasures1 = vec![n + rng.below_usize(10)];
            "out-of-range erasure in module 1"
        }
        1 => {
            erasures2 = vec![n + 99];
            "out-of-range erasure in module 2"
        }
        2 => {
            let p = rng.below_usize(n);
            erasures1 = vec![p, p];
            "duplicate erasure position"
        }
        3 => {
            word1.truncate(n - 1 - rng.below_usize(n - 1));
            "short module-1 word"
        }
        _ => {
            word2.push(0);
            "long module-2 word"
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        arbitrate(code, &word1, &erasures1, &word2, &erasures2)
    }));
    match result {
        Err(_) => Some(("panic", format!("arbitrate panicked on {what}"))),
        Ok(Ok(_)) => Some((
            "malformed-accepted",
            format!("arbitrate accepted {what} without error"),
        )),
        Ok(Err(_)) => None,
    }
}

/// Runs `budget` correlated cases (one in 8 is a malformed-input probe)
/// alternating RS(15,9) and RS(18,16).
pub fn run(seed: u64, budget: usize, max_divergences: usize) -> ArbiterReport {
    let mut report = ArbiterReport::default();
    let mut rng = SplitMix64::new(seed);
    let mut progress = rsmem_obs::Progress::new("stress.arbiter", "arbiter sweep");
    let codes = [
        RsCode::new(15, 9, 4).expect("valid"),
        RsCode::new(18, 16, 8).expect("valid"),
    ];

    for i in 0..budget {
        if (i + 1).is_multiple_of(256) {
            progress.tick(
                (i + 1) as u64,
                budget as u64,
                &[("divergences", report.divergences.len() as u64)],
            );
        }
        let code = &codes[i % codes.len()];
        let size = u64::from(code.field().size());
        let data: Vec<Symbol> = (0..code.k()).map(|_| rng.below(size) as Symbol).collect();
        let clean = code.encode(&data).expect("valid dataword");

        if i % 8 == 7 {
            report.malformed_probes += 1;
            if let Some((kind, detail)) = malformed_probe(&mut rng, code, &clean) {
                if report.divergences.len() < max_divergences {
                    report.divergences.push(Divergence {
                        suite: "arbiter",
                        kind,
                        summary: format!("RS({},{}): {detail}", code.n(), code.k()),
                        repro: format!(
                            "// {detail}: call arbitrate with the malformed input and\n\
                             // assert it returns Err(CodeError), without panicking."
                        ),
                    });
                }
            }
            continue;
        }

        let (word1, word2, erasures1, erasures2) = inject(&mut rng, code, &clean);
        let case = ArbiterCase {
            n: code.n(),
            k: code.k(),
            m: code.symbol_bits(),
            data,
            word1,
            word2,
            erasures1,
            erasures2,
        };
        report.cases += 1;
        let is_guaranteed = guaranteed(code, &case, &clean);
        if is_guaranteed {
            report.guaranteed += 1;
        }
        if let Some((kind, detail)) = check_case(code, &case) {
            if report.divergences.len() < max_divergences {
                let minimized = shrink(code, case.clone(), kind);
                report.divergences.push(Divergence {
                    suite: "arbiter",
                    kind,
                    summary: format!("RS({},{}): {detail}", case.n, case.k),
                    repro: render_repro(&minimized, kind, &detail),
                });
            }
            continue;
        }
        // Oracle bookkeeping for the report.
        match arbitrate(
            code,
            &case.word1,
            &case.erasures1,
            &case.word2,
            &case.erasures2,
        )
        .expect("well-formed")
        .data()
        {
            Some(d) if d == case.data => report.recovered += 1,
            Some(_) => report.wrong_beyond += 1,
            None => report.no_output += 1,
        }
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
    fn correlated_sweep_is_clean() {
        let report = run(0xDA7E, 2_000, 8);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(report.guaranteed > 0);
        assert_eq!(
            report.recovered + report.no_output + report.wrong_beyond,
            report.cases
        );
        assert!(report.malformed_probes > 0);
        // Wrong output only ever happens beyond the guaranteed set, so
        // recovery must dominate heavily under these light patterns.
        assert!(report.recovered > report.wrong_beyond);
    }

    #[test]
    fn guaranteed_predicate_matches_hand_cases() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = (0..9).collect();
        let clean = code.encode(&data).unwrap();
        // Single stuck symbol in module 1: masked for free → guaranteed.
        let mut w1 = clean.clone();
        w1[4] = 0;
        let case = ArbiterCase {
            n: 15,
            k: 9,
            m: 4,
            data: data.clone(),
            word1: w1,
            word2: clean.clone(),
            erasures1: vec![4],
            erasures2: vec![],
        };
        assert!(guaranteed(&code, &case, &clean));
        // Heavy independent corruption in both: not guaranteed.
        let mut w1 = clean.clone();
        let mut w2 = clean.clone();
        for p in 0..5 {
            w1[p] ^= 1;
            w2[14 - p] ^= 1;
        }
        let case = ArbiterCase {
            n: 15,
            k: 9,
            m: 4,
            data,
            word1: w1,
            word2: w2,
            erasures1: vec![],
            erasures2: vec![],
        };
        assert!(!guaranteed(&code, &case, &clean));
    }
}
