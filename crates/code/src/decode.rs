//! Decode orchestration: syndromes → key equation → Chien → Forney →
//! verification, with the flag semantics the duplex arbiter relies on.

use crate::batch::BatchOutcome;
use crate::bm::{berlekamp_massey, BmScratch};
use crate::euclid::{solve_key_equation, EuclidScratch};
use crate::forney::magnitude_at;
use crate::locator::{erasure_locator_into, locator_positions_into};
use crate::polyops::{degree_or_zero, mul_mod_into};
use crate::syndrome::{syndromes, syndromes_into};
use crate::{CodeError, RsCode};
use rsmem_gf::Symbol;
use rsmem_obs::metrics::{global, Counter};
use rsmem_obs::recorder;
use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

/// Cached handles into the global metrics registry, one per label
/// variant, resolved once so a decode's bookkeeping is a few relaxed
/// atomic adds. Eager resolution also makes every label variant visible
/// (zero-valued) to a `/metrics` scrape before the first decode.
struct DecodeMetrics {
    sugiyama: Counter,
    berlekamp_massey: Counter,
    clean: Counter,
    corrected: Counter,
    failure: Counter,
}

fn decode_metrics() -> &'static DecodeMetrics {
    static METRICS: OnceLock<DecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        let by_backend = |b: &str| r.counter("rsmem_solver_decode_total", &[("backend", b)]);
        let by_outcome =
            |o: &str| r.counter("rsmem_solver_decode_outcomes_total", &[("outcome", o)]);
        DecodeMetrics {
            sugiyama: by_backend("sugiyama"),
            berlekamp_massey: by_backend("berlekamp-massey"),
            clean: by_outcome("clean"),
            corrected: by_outcome("corrected"),
            failure: by_outcome("failure"),
        }
    })
}

/// Eagerly registers the decode metric families (all label variants) in
/// the global registry, including the bulk-plane counters.
pub fn register_metrics() {
    let _ = decode_metrics();
    crate::batch::register_metrics();
}

/// Records `count` clean decodes attributed to `backend` — the batch
/// plane's zero-syndrome fast path bypasses [`decode_in_place`], so it
/// settles the same counters here to keep `/metrics` identical to the
/// per-word path.
pub(crate) fn record_clean_many(backend: DecoderBackend, count: u64) {
    if count == 0 {
        return;
    }
    let metrics = decode_metrics();
    match backend {
        DecoderBackend::Sugiyama => metrics.sugiyama.add(count),
        DecoderBackend::BerlekampMassey => metrics.berlekamp_massey.add(count),
    }
    metrics.clean.add(count);
}

/// Selects the key-equation solver.
///
/// Both back-ends implement the same contract and are cross-checked in the
/// test-suite; [`DecoderBackend::Sugiyama`] is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecoderBackend {
    /// Extended-Euclidean (Sugiyama) solver.
    #[default]
    Sugiyama,
    /// Berlekamp–Massey with erasure initialization.
    BerlekampMassey,
}

impl fmt::Display for DecoderBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderBackend::Sugiyama => write!(f, "sugiyama"),
            DecoderBackend::BerlekampMassey => write!(f, "berlekamp-massey"),
        }
    }
}

/// One applied symbol correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Correction {
    /// Codeword position that was modified.
    pub position: usize,
    /// The XOR-magnitude applied to the stored symbol.
    pub magnitude: Symbol,
    /// True when the position was declared as an erasure by the caller.
    pub was_erasure: bool,
}

/// Why a decode attempt was *detected* as uncorrectable.
///
/// Note that an RS decoder can also *mis-correct* silently (produce a
/// wrong codeword without noticing) when the corruption exceeds the code's
/// capability; the duplex arbiter of the paper exists precisely to catch a
/// subset of those cases by comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DecodeFailure {
    /// More erasures than redundancy (`ρ > n − k`).
    TooManyErasures {
        /// Number of declared erasures.
        erasures: usize,
        /// The code's redundancy `n − k`.
        redundancy: usize,
    },
    /// The key-equation solver produced no valid locator.
    KeyEquation,
    /// The claimed number of random errors exceeds the remaining
    /// capability (`ρ + 2ν > n − k`).
    CapabilityExceeded {
        /// Declared erasures.
        erasures: usize,
        /// Locator-claimed random errors.
        errors: usize,
    },
    /// The locator's root count over valid positions does not match its
    /// degree (roots are repeated or fall outside the codeword).
    RootCountMismatch,
    /// The corrected word still has non-zero syndromes.
    Unverified,
}

impl fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeFailure::TooManyErasures {
                erasures,
                redundancy,
            } => {
                write!(f, "{erasures} erasures exceed redundancy {redundancy}")
            }
            DecodeFailure::KeyEquation => write!(f, "key equation has no valid solution"),
            DecodeFailure::CapabilityExceeded { erasures, errors } => {
                write!(
                    f,
                    "pattern ({erasures} erasures, {errors} errors) beyond capability"
                )
            }
            DecodeFailure::RootCountMismatch => {
                write!(f, "locator roots inconsistent with its degree")
            }
            DecodeFailure::Unverified => write!(f, "corrected word fails re-verification"),
        }
    }
}

/// The result of a decode attempt.
///
/// The *flag* terminology follows Section 3 of the paper: the duplex
/// arbiter sets a per-word flag iff a correction was performed, which is
/// exactly the [`DecodeOutcome::Corrected`] variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The word was already a codeword; no correction performed
    /// (flag **not** set).
    Clean {
        /// The decoded data symbols (`k` of them).
        data: Vec<Symbol>,
    },
    /// Corrections were applied (flag **set**). If the corruption exceeded
    /// the code's capability this may be a silent mis-correction — the
    /// codeword is valid but not the one originally stored.
    Corrected {
        /// The decoded data symbols (`k` of them).
        data: Vec<Symbol>,
        /// The full corrected codeword (`n` symbols).
        codeword: Vec<Symbol>,
        /// The corrections applied, sorted by position.
        corrections: Vec<Correction>,
    },
    /// Detected-uncorrectable word; no output produced.
    Failure(DecodeFailure),
}

impl DecodeOutcome {
    /// The arbiter flag: true iff a correction was performed.
    pub fn is_flagged(&self) -> bool {
        matches!(self, DecodeOutcome::Corrected { .. })
    }

    /// The decoded data, if any output was produced.
    pub fn data(&self) -> Option<&[Symbol]> {
        match self {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => Some(data),
            DecodeOutcome::Failure(_) => None,
        }
    }
}

/// Checks `erasures` against a caller-owned scratch buffer (resized and
/// cleared here): every position in `0..n` and none repeated. On
/// success `seen[p]` is true exactly at the erased positions.
pub(crate) fn validate_erasures_into(
    code: &RsCode,
    erasures: &[usize],
    seen: &mut Vec<bool>,
) -> Result<(), CodeError> {
    seen.clear();
    seen.resize(code.n(), false);
    for &pos in erasures {
        if pos >= code.n() || seen[pos] {
            return Err(CodeError::BadErasure {
                position: pos,
                n: code.n(),
            });
        }
        seen[pos] = true;
    }
    Ok(())
}

/// Every buffer the decode core needs, reused across words. A warm
/// workspace decodes any word of a code shape it has already seen
/// without touching the allocator.
#[derive(Debug)]
pub(crate) struct DecodeWorkspace {
    /// Erased-position marks from validation (`seen[p]` iff `p` erased).
    pub(crate) seen: Vec<bool>,
    /// Syndromes `S_j`, then those of the corrected word.
    syn: Vec<Symbol>,
    /// Erasure locator Γ.
    gamma: Vec<Symbol>,
    /// Modified syndrome Ξ = S·Γ mod x^{2t} (Sugiyama only).
    xi: Vec<Symbol>,
    euclid: EuclidScratch,
    bm: BmScratch,
    /// Combined locator Ψ.
    psi: Vec<Symbol>,
    /// Evaluator Ω = Ψ·S mod x^{2t}.
    omega: Vec<Symbol>,
    /// Chien roots of Ψ over codeword positions.
    positions: Vec<usize>,
    /// The corrections of the last `Corrected` decode, sorted by
    /// position.
    corrections: Vec<Correction>,
}

impl DecodeWorkspace {
    pub(crate) const fn new() -> Self {
        DecodeWorkspace {
            seen: Vec::new(),
            syn: Vec::new(),
            gamma: Vec::new(),
            xi: Vec::new(),
            euclid: EuclidScratch::new(),
            bm: BmScratch::new(),
            psi: Vec::new(),
            omega: Vec::new(),
            positions: Vec::new(),
            corrections: Vec::new(),
        }
    }

    /// Empties the buffers that the key-equation steps extend piecemeal
    /// and grows them to their worst case for `code`, so no step
    /// reallocates after the first dirty decode of the code's shape.
    fn reserve(&mut self, code: &RsCode) {
        let (n, len) = (code.n(), code.parity_symbols() + 2);
        self.positions.clear();
        self.positions.reserve(n);
        self.corrections.reserve(n);
        for buf in [
            &mut self.gamma,
            &mut self.xi,
            &mut self.psi,
            &mut self.omega,
        ] {
            buf.clear();
            buf.reserve(len);
        }
        self.euclid.reserve(len);
        self.bm.reserve(len);
    }
}

impl Default for DecodeWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// The workspace of the scalar entry points on this thread.
    static WORKSPACE: RefCell<DecodeWorkspace> = const { RefCell::new(DecodeWorkspace::new()) };
}

/// Runs `f` on this thread's scalar-decode workspace.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut DecodeWorkspace) -> R) -> R {
    WORKSPACE.with_borrow_mut(f)
}

/// The correction of a single symbol error, when the syndromes `syn` of
/// a word without erasures are exactly those of one error at a codeword
/// position, and `None` otherwise.
///
/// One error of magnitude `v` at position `p` has syndromes
/// `S_j = v·X^{b+j}` with `X = α^p`. So the test is: `S_0` and `S_1` are
/// non-zero, `S_{j+1} = X·S_j` for every `j` with `X = S_1/S_0`, and
/// `p = log_α X < n`; then `v = S_0/X^b`. When it holds, the word minus
/// that error has zero syndromes and is a codeword at distance 1, the
/// unique one within `t ≥ 1` (`n − k ≥ 2`), which both back-ends return
/// with this one correction. A shortened code's word can pass the first
/// two tests with `p ≥ n`, an error at a position the code does not
/// have; the general steps report that as a failure.
fn single_error(code: &RsCode, syn: &[Symbol]) -> Option<Correction> {
    let field = code.field();
    let (&s0, &s1) = (syn.first()?, syn.get(1)?);
    if s0 == 0 || s1 == 0 {
        return None;
    }
    let x = field.div(s1, s0).ok()?;
    if syn.windows(2).any(|pair| field.mul(pair[0], x) != pair[1]) {
        return None;
    }
    let position = field.log(x).ok()? as usize;
    if position >= code.n() {
        return None;
    }
    let magnitude = field
        .div(s0, field.pow(x, u64::from(code.first_root())))
        .ok()?;
    Some(Correction {
        position,
        magnitude,
        was_erasure: false,
    })
}

#[cfg(test)]
thread_local! {
    /// When set, every dirty word on this thread takes the general
    /// decode steps: the tests' reference for [`single_error`].
    static GENERAL_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the single-error path is switched off.
#[cfg(test)]
fn general_only() -> bool {
    GENERAL_ONLY.get()
}

#[cfg(not(test))]
#[inline(always)]
fn general_only() -> bool {
    false
}

/// The one RS decode core: validation, syndromes, the single-error
/// path ([`single_error`]), then erasure locator Γ, key equation
/// (Sugiyama or Berlekamp–Massey), Ψ and Ω, Chien, Forney and
/// re-verification, all in `ws`'s buffers.
///
/// Corrects `word` **in place** and records the correction list in
/// `ws`; a `Clean` or `Failure` outcome leaves `word` untouched. The
/// failure gates run in a fixed order and every step is exact GF(2^m)
/// algebra, so the outcome is a pure function of the inputs.
fn decode_core(
    code: &RsCode,
    word: &mut [Symbol],
    erasures: &[usize],
    backend: DecoderBackend,
    ws: &mut DecodeWorkspace,
) -> Result<BatchOutcome, CodeError> {
    if word.len() != code.n() {
        return Err(CodeError::CodewordLength {
            got: word.len(),
            expected: code.n(),
        });
    }
    code.check_symbols(word)?;
    validate_erasures_into(code, erasures, &mut ws.seen)?;
    ws.corrections.clear();

    let rho = erasures.len();
    let redundancy = code.parity_symbols();
    if rho > redundancy {
        return Ok(BatchOutcome::Failure(DecodeFailure::TooManyErasures {
            erasures: rho,
            redundancy,
        }));
    }

    syndromes_into(code, word, &mut ws.syn);
    if ws.syn.iter().all(|&s| s == 0) {
        // Already a codeword; erased positions evidently held valid data.
        return Ok(BatchOutcome::Clean);
    }
    if rho == 0 && !general_only() {
        if let Some(correction) = single_error(code, &ws.syn) {
            word[correction.position] ^= correction.magnitude;
            ws.corrections.push(correction);
            return Ok(BatchOutcome::Corrected {
                errors: 1,
                erasures: 0,
            });
        }
    }

    ws.reserve(code);
    let field = code.field();
    erasure_locator_into(code, erasures, &mut ws.gamma);

    // Solve for the combined locator Ψ (errors × erasures).
    match backend {
        DecoderBackend::Sugiyama => {
            mul_mod_into(field, &ws.syn, &ws.gamma, redundancy, &mut ws.xi);
            let Some(lambda) = solve_key_equation(field, redundancy, &ws.xi, rho, &mut ws.euclid)
            else {
                return Ok(BatchOutcome::Failure(DecodeFailure::KeyEquation));
            };
            let nu = degree_or_zero(lambda);
            if rho + 2 * nu > redundancy {
                return Ok(BatchOutcome::Failure(DecodeFailure::CapabilityExceeded {
                    erasures: rho,
                    errors: nu,
                }));
            }
            mul_mod_into(field, lambda, &ws.gamma, usize::MAX, &mut ws.psi);
        }
        DecoderBackend::BerlekampMassey => {
            let l = berlekamp_massey(field, &ws.syn, &ws.gamma, rho, &mut ws.psi, &mut ws.bm);
            // Capability from the LFSR length, not deg Ψ: a degenerate
            // locator can come out *shorter* than the length BM claims,
            // which would understate ν and let a beyond-capability
            // pattern masquerade as a light one. (The Chien/Forney/
            // syndrome gates below would still catch it, but the claim
            // must be rejected here, symmetrically with Sugiyama.)
            let nu = l.saturating_sub(rho);
            if rho + 2 * nu > redundancy {
                return Ok(BatchOutcome::Failure(DecodeFailure::CapabilityExceeded {
                    erasures: rho,
                    errors: nu,
                }));
            }
            // Structural gate: a correctable pattern always satisfies
            // deg Ψ = l. Anything else is a detected failure.
            if degree_or_zero(&ws.psi) != l {
                return Ok(BatchOutcome::Failure(DecodeFailure::RootCountMismatch));
            }
        }
    }

    // Evaluator for the combined key equation Ψ·S ≡ Ω (mod x^{2t}).
    mul_mod_into(field, &ws.psi, &ws.syn, redundancy, &mut ws.omega);

    // Chien search over real codeword positions.
    locator_positions_into(code, &ws.psi, &mut ws.positions);
    if ws.positions.len() != degree_or_zero(&ws.psi) {
        return Ok(BatchOutcome::Failure(DecodeFailure::RootCountMismatch));
    }

    // Forney magnitudes, all computed before the word is touched.
    for &pos in &ws.positions {
        let Some(magnitude) = magnitude_at(code, &ws.psi, &ws.omega, pos) else {
            ws.corrections.clear();
            return Ok(BatchOutcome::Failure(DecodeFailure::RootCountMismatch));
        };
        if magnitude != 0 {
            ws.corrections.push(Correction {
                position: pos,
                magnitude,
                was_erasure: ws.seen[pos],
            });
        }
    }

    // Defensive re-verification: the corrected word must be a codeword.
    // Syndromes are linear, so the corrected word's are `S_j` plus, per
    // correction, `e·X^{b+j}` with `X = α^{pos}`: the same field values
    // a fresh Horner pass over the corrected word gives.
    let order = u64::from(field.order());
    for c in &ws.corrections {
        word[c.position] ^= c.magnitude;
        let x = field.alpha_pow(c.position as u32);
        let first = (c.position as u64 * u64::from(code.first_root())) % order;
        let mut term = field.mul(c.magnitude, field.alpha_pow(first as u32));
        for s in &mut ws.syn {
            *s ^= term;
            term = field.mul(term, x);
        }
    }
    if ws.syn.iter().any(|&s| s != 0) {
        for c in &ws.corrections {
            word[c.position] ^= c.magnitude;
        }
        ws.corrections.clear();
        return Ok(BatchOutcome::Failure(DecodeFailure::Unverified));
    }
    if ws.corrections.is_empty() {
        // Non-zero syndromes but zero net correction cannot verify; the
        // branch above catches it, so reaching here means word == codeword.
        return Ok(BatchOutcome::Clean);
    }
    let erased = ws.corrections.iter().filter(|c| c.was_erasure).count() as u32;
    Ok(BatchOutcome::Corrected {
        errors: ws.corrections.len() as u32 - erased,
        erasures: erased,
    })
}

/// Decodes `word` in place through the core and settles the solver
/// metrics and the flight-recorder tap: the one path of every RS
/// decode (scalar, batch escalation and in-place).
pub(crate) fn decode_in_place(
    code: &RsCode,
    word: &mut [Symbol],
    erasures: &[usize],
    backend: DecoderBackend,
    ws: &mut DecodeWorkspace,
) -> Result<BatchOutcome, CodeError> {
    let outcome = decode_core(code, word, erasures, backend, ws)?;
    let metrics = decode_metrics();
    match backend {
        DecoderBackend::Sugiyama => metrics.sugiyama.inc(),
        DecoderBackend::BerlekampMassey => metrics.berlekamp_massey.inc(),
    }
    match outcome {
        BatchOutcome::Clean => metrics.clean.inc(),
        BatchOutcome::Corrected { .. } => metrics.corrected.inc(),
        BatchOutcome::Failure(_) => metrics.failure.inc(),
    }
    if recorder::enabled() {
        // A failure leaves `word` untouched, so a failure exemplar
        // carries the exact stored pattern.
        record_decode_outcome(code, word, erasures, backend, &outcome);
    }
    Ok(outcome)
}

/// The rich [`DecodeOutcome`] of a core decode whose word, `codeword`,
/// has already been corrected in place, with `ws`'s correction list.
pub(crate) fn rich_outcome(
    code: &RsCode,
    codeword: Vec<Symbol>,
    outcome: BatchOutcome,
    ws: &DecodeWorkspace,
) -> DecodeOutcome {
    let data = || codeword[code.n() - code.k()..].to_vec();
    match outcome {
        BatchOutcome::Clean => DecodeOutcome::Clean { data: data() },
        BatchOutcome::Corrected { .. } => DecodeOutcome::Corrected {
            data: data(),
            codeword,
            corrections: ws.corrections.clone(),
        },
        BatchOutcome::Failure(failure) => DecodeOutcome::Failure(failure),
    }
}

/// The scalar rich-outcome decode behind [`RsCode::decode`] and
/// [`RsCode::decode_with`], on this thread's workspace.
pub(crate) fn decode_word(
    code: &RsCode,
    word: &[Symbol],
    erasures: &[usize],
    backend: DecoderBackend,
) -> Result<DecodeOutcome, CodeError> {
    let mut codeword = word.to_vec();
    with_workspace(|ws| {
        let outcome = decode_in_place(code, &mut codeword, erasures, backend, ws)?;
        Ok(rich_outcome(code, codeword, outcome, ws))
    })
}

/// A compact spec for the code, matching the stress repro convention
/// (`first_root` appended when it differs from the default 1).
pub(crate) fn code_spec(code: &RsCode) -> String {
    let base = format!("rs:{},{},{}", code.n(), code.k(), code.symbol_bits());
    if code.first_root() == 1 {
        base
    } else {
        format!("{base} b0={}", code.first_root())
    }
}

/// Outcome code carried in the flight-record `a` word.
fn outcome_code(outcome: &BatchOutcome) -> u64 {
    match outcome {
        BatchOutcome::Clean => 0,
        BatchOutcome::Corrected { .. } => 1,
        BatchOutcome::Failure(f) => {
            2 + match f {
                DecodeFailure::TooManyErasures { .. } => 0,
                DecodeFailure::KeyEquation => 1,
                DecodeFailure::CapabilityExceeded { .. } => 2,
                DecodeFailure::RootCountMismatch => 3,
                DecodeFailure::Unverified => 4,
            }
        }
    }
}

/// Flight-recorder tap on the per-word decode path (both back-ends and
/// the batch plane's escalations all funnel through [`decode_in_place`]).
/// Every outcome leaves a ring record (`a` = [`outcome_code`], `b` =
/// corrections applied); a detected failure additionally offers a
/// `decode-failure` exemplar carrying the exact word, erasure pattern
/// and recomputed syndromes — cheap because failures are the rare path.
fn record_decode_outcome(
    code: &RsCode,
    word: &[Symbol],
    erasures: &[usize],
    backend: DecoderBackend,
    outcome: &BatchOutcome,
) {
    let name = match backend {
        DecoderBackend::Sugiyama => "sugiyama",
        DecoderBackend::BerlekampMassey => "berlekamp-massey",
    };
    let corrections = match outcome {
        BatchOutcome::Corrected { errors, erasures } => u64::from(errors + erasures),
        _ => 0,
    };
    recorder::record_event(
        recorder::RecordKind::Decode,
        "code.decode",
        name,
        outcome_code(outcome),
        corrections,
    );
    if let BatchOutcome::Failure(failure) = outcome {
        recorder::record_exemplar_with("decode-failure", || recorder::Exemplar {
            code: code_spec(code),
            word: word.iter().map(|&s| u32::from(s)).collect(),
            erasures: erasures.iter().map(|&p| p as u32).collect(),
            syndromes: syndromes(code, word)
                .iter()
                .map(|&s| u32::from(s))
                .collect(),
            verdicts: vec![format!("{backend}: Failure({failure})")],
            detail: failure.to_string(),
            ..recorder::Exemplar::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_15_9() -> RsCode {
        RsCode::new(15, 9, 4).unwrap()
    }

    #[test]
    fn clean_word_is_not_flagged() {
        let code = code_15_9();
        let data: Vec<Symbol> = (0..9).collect();
        let word = code.encode(&data).unwrap();
        let out = code.decode(&word, &[]).unwrap();
        assert_eq!(out, DecodeOutcome::Clean { data });
        assert!(!out.is_flagged());
    }

    #[test]
    fn corrects_up_to_t_random_errors() {
        let code = code_15_9(); // t = 3
        let data: Vec<Symbol> = (1..=9).collect();
        let clean = code.encode(&data).unwrap();
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            let mut word = clean.clone();
            word[0] ^= 3;
            word[7] ^= 9;
            word[14] ^= 1;
            let out = code.decode_with(&word, &[], backend).unwrap();
            match out {
                DecodeOutcome::Corrected {
                    data: d,
                    corrections,
                    ..
                } => {
                    assert_eq!(d, data, "{backend}");
                    assert_eq!(corrections.len(), 3);
                }
                other => panic!("{backend}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrects_full_erasure_budget() {
        let code = code_15_9(); // n-k = 6 erasures correctable
        let data: Vec<Symbol> = (2..=10).collect();
        let clean = code.encode(&data).unwrap();
        let erased = [0usize, 2, 4, 8, 11, 13];
        let mut word = clean.clone();
        for &p in &erased {
            word[p] ^= 0xf; // clobber
        }
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            let out = code.decode_with(&word, &erased, backend).unwrap();
            assert_eq!(out.data(), Some(&data[..]), "{backend}");
        }
    }

    #[test]
    fn corrects_mixed_patterns_on_capability_boundary() {
        let code = code_15_9();
        let data: Vec<Symbol> = vec![5; 9];
        let clean = code.encode(&data).unwrap();
        // er + 2·re = 2 + 2·2 = 6 = n−k: exactly at capability.
        let erased = [1usize, 6];
        let mut word = clean.clone();
        word[1] ^= 7;
        word[6] ^= 2;
        word[3] ^= 9; // random error
        word[12] ^= 4; // random error
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            let out = code.decode_with(&word, &erased, backend).unwrap();
            assert_eq!(out.data(), Some(&data[..]), "{backend}");
            assert!(out.is_flagged());
        }
    }

    #[test]
    fn erasure_with_correct_value_costs_nothing_extra() {
        let code = code_15_9();
        let data: Vec<Symbol> = vec![1; 9];
        let word = code.encode(&data).unwrap();
        // Declare erasures but leave the symbols intact.
        let out = code.decode(&word, &[3, 10]).unwrap();
        assert_eq!(out, DecodeOutcome::Clean { data });
    }

    #[test]
    fn too_many_erasures_is_detected() {
        let code = code_15_9();
        let word = code.encode(&[0; 9]).unwrap();
        let erased: Vec<usize> = (0..7).collect(); // 7 > n−k = 6
        let out = code.decode(&word, &erased).unwrap();
        assert!(matches!(
            out,
            DecodeOutcome::Failure(DecodeFailure::TooManyErasures {
                erasures: 7,
                redundancy: 6
            })
        ));
    }

    #[test]
    fn beyond_capability_fails_or_miscorrects_but_never_passes_silently() {
        // 4 random errors on a t=3 code: the decoder must either detect
        // failure or emit a flagged (possibly wrong) codeword.
        let code = code_15_9();
        let data: Vec<Symbol> = (0..9).collect();
        let clean = code.encode(&data).unwrap();
        let mut word = clean.clone();
        for (i, p) in [0usize, 4, 9, 13].iter().enumerate() {
            word[*p] ^= (i + 1) as Symbol;
        }
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            let out = code.decode_with(&word, &[], backend).unwrap();
            match out {
                DecodeOutcome::Failure(_) => {}
                DecodeOutcome::Corrected { codeword, .. } => {
                    // Miscorrection must at least be a valid codeword.
                    assert!(code.is_codeword(&codeword).unwrap(), "{backend}");
                }
                DecodeOutcome::Clean { .. } => panic!("{backend}: corrupt word passed clean"),
            }
        }
    }

    /// Shared assertions for a pattern strictly beyond the capability
    /// bound: the decoder must never accept the word as `Clean`, never
    /// return the original data (the true codeword is out of reach of a
    /// bounded-distance decoder), and any mis-correction it does emit
    /// must be a valid codeword whose claimed pattern is *within*
    /// capability. Both back-ends must also agree whenever both succeed
    /// (bounded-distance uniqueness).
    fn assert_beyond_bound_contract(
        code: &RsCode,
        data: &[Symbol],
        word: &[Symbol],
        erasures: &[usize],
    ) {
        let mut successes = Vec::new();
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            match code.decode_with(word, erasures, backend).unwrap() {
                DecodeOutcome::Clean { .. } => panic!("{backend}: corrupt word passed clean"),
                DecodeOutcome::Corrected {
                    data: d,
                    codeword,
                    corrections,
                } => {
                    assert_ne!(d, data, "{backend}: decoded the unreachable original");
                    assert!(code.is_codeword(&codeword).unwrap(), "{backend}");
                    let claimed = corrections.iter().filter(|c| !c.was_erasure).count();
                    assert!(
                        erasures.len() + 2 * claimed <= code.parity_symbols(),
                        "{backend}: accepted a beyond-capability claim"
                    );
                    successes.push(codeword);
                }
                DecodeOutcome::Failure(_) => {}
            }
        }
        if successes.len() == 2 {
            assert_eq!(successes[0], successes[1], "back-ends disagree");
        }
    }

    #[test]
    fn one_past_the_bound_is_never_silently_wrong() {
        // er + 2·re = n − k + 1 = 7 for RS(15,9): one declared erasure
        // (with a wrong stored value) plus three random errors.
        let code = code_15_9();
        let data: Vec<Symbol> = (3..12).collect();
        let clean = code.encode(&data).unwrap();
        for seed in 0..20u32 {
            let mut word = clean.clone();
            let e = (seed as usize) % 15;
            word[e] ^= 1 + (seed % 15) as Symbol;
            let mut placed = 0;
            for off in 1..15 {
                if placed == 3 {
                    break;
                }
                let p = (e + off * 4) % 15;
                if p != e {
                    word[p] ^= 1 + ((seed + off as u32) % 15) as Symbol;
                    placed += 1;
                }
            }
            assert_beyond_bound_contract(&code, &data, &word, &[e]);
        }
    }

    #[test]
    fn two_past_the_bound_is_never_silently_wrong() {
        // er + 2·re = n − k + 2 = 8 for RS(15,9): four random errors.
        let code = code_15_9();
        let data: Vec<Symbol> = (0..9).map(|i| (i * 2 + 1) % 16).collect();
        let clean = code.encode(&data).unwrap();
        for seed in 0..20u32 {
            let mut word = clean.clone();
            for j in 0..4usize {
                let p = ((seed as usize) + j * 4) % 15;
                word[p] ^= 1 + ((seed + j as u32) % 15) as Symbol;
            }
            assert_beyond_bound_contract(&code, &data, &word, &[]);
        }
    }

    #[test]
    fn clean_fast_path_preserves_outcome_classification() {
        // Regression pin for the zero-syndrome early-out: a codeword is
        // Clean whether or not erasures are declared (the erased
        // positions evidently held valid data), the erasure budget
        // check still fires *before* the fast path, and a corrupted
        // word can never ride the fast path to Clean.
        let code = code_15_9();
        let data: Vec<Symbol> = (4..13).collect();
        let word = code.encode(&data).unwrap();
        for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
            let out = code.decode_with(&word, &[], backend).unwrap();
            assert_eq!(out, DecodeOutcome::Clean { data: data.clone() });
            let out = code.decode_with(&word, &[0, 5, 9], backend).unwrap();
            assert_eq!(out, DecodeOutcome::Clean { data: data.clone() });
            // 7 erasures > n−k = 6: rejected before the syndrome check,
            // even though every syndrome of this word is zero.
            let every: Vec<usize> = (0..7).collect();
            let out = code.decode_with(&word, &every, backend).unwrap();
            assert!(matches!(
                out,
                DecodeOutcome::Failure(DecodeFailure::TooManyErasures { .. })
            ));
            for pos in 0..code.n() {
                let mut corrupt = word.clone();
                corrupt[pos] ^= 1;
                let out = code.decode_with(&corrupt, &[], backend).unwrap();
                assert!(!matches!(out, DecodeOutcome::Clean { .. }), "pos={pos}");
            }
        }
    }

    /// Decodes `word` (no erasures) through the rich and the in-place
    /// entry points, with the single-error path on and then off, and
    /// asserts that outcomes, correction lists and words agree.
    fn assert_single_error_path_is_exact(
        code: &RsCode,
        word: &[Symbol],
        backend: DecoderBackend,
    ) -> DecodeOutcome {
        let run = |general: bool| {
            GENERAL_ONLY.set(general);
            let rich = code.decode_with(word, &[], backend).unwrap();
            let mut in_place = word.to_vec();
            let compact = code
                .decode_in_place_with(&mut in_place, &[], backend)
                .unwrap();
            GENERAL_ONLY.set(false);
            (rich, in_place, compact)
        };
        let fast = run(false);
        assert_eq!(fast, run(true), "{backend} word {word:?}");
        fast.0
    }

    /// Pseudo-random codewords of `code`, from a fixed seed.
    fn random_codewords(code: &RsCode, count: usize, seed: u64) -> Vec<Vec<Symbol>> {
        let size = u64::from(code.field().size());
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        (0..count)
            .map(|_| {
                let data: Vec<Symbol> = (0..code.k()).map(|_| (next() % size) as Symbol).collect();
                code.encode(&data).unwrap()
            })
            .collect()
    }

    #[test]
    fn single_error_path_matches_the_general_steps() {
        // Every position × every non-zero magnitude takes the
        // single-error path and gives what the general steps give; words
        // with 2..=t+1 errors agree too, whichever way they go.
        const BACKENDS: [DecoderBackend; 2] =
            [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey];
        for (n, k, m, b, codewords) in [
            (7usize, 3usize, 3u32, 0u32, 4usize),
            (15, 9, 4, 0, 4),
            (15, 9, 4, 1, 4),
            (18, 16, 8, 0, 1),
            (36, 16, 8, 112, 1),
        ] {
            let code = RsCode::with_first_root(n, k, m, b).unwrap();
            let size = code.field().size() as usize;
            let words = random_codewords(&code, codewords + 3, 0xC0DE + n as u64);
            let (clean, multi) = words.split_at(codewords);
            for codeword in clean {
                for p in 0..n {
                    for v in 1..size {
                        let mut word = codeword.clone();
                        word[p] ^= v as Symbol;
                        let fired = single_error(&code, &syndromes(&code, &word));
                        assert_eq!(
                            fired,
                            Some(Correction {
                                position: p,
                                magnitude: v as Symbol,
                                was_erasure: false
                            }),
                            "RS({n},{k}) b={b} p={p} v={v}"
                        );
                        for backend in BACKENDS {
                            let out = assert_single_error_path_is_exact(&code, &word, backend);
                            assert_eq!(out.data(), code.data_of(codeword).ok());
                        }
                    }
                }
            }
            for (i, codeword) in multi.iter().enumerate() {
                for errors in 2..=code.max_random_errors() + 1 {
                    let mut word = codeword.clone();
                    for e in 0..errors {
                        let p = (i * 7 + e * 5) % n;
                        word[p] ^= (1 + (i + 3 * e) % (size - 1)) as Symbol;
                    }
                    for backend in BACKENDS {
                        assert_single_error_path_is_exact(&code, &word, backend);
                    }
                }
            }
        }
    }

    #[test]
    fn single_error_path_declines_virtual_positions() {
        // A shortened code's word whose syndromes are those of one error
        // at a position past its end: the parent code's codeword that is
        // zero at every virtual position but one, cut to `n` symbols.
        // The single-error path must decline it and leave it to the
        // general steps.
        let mut cases = 0;
        for (n, k, m, b) in [
            (18usize, 16usize, 8u32, 0u32),
            (36, 16, 8, 112),
            (12, 8, 4, 1),
        ] {
            let code = RsCode::with_first_root(n, k, m, b).unwrap();
            let field = code.field();
            let big_n = field.order() as usize;
            let parent = RsCode::with_first_root(big_n, big_n - (n - k), m, b).unwrap();
            for q in n..big_n {
                for v in [1, 2, field.order() as Symbol] {
                    let mut data: Vec<Symbol> = (0..parent.k())
                        .map(|i| ((i * 31 + q * 7) % field.size() as usize) as Symbol)
                        .collect();
                    data[k..].fill(0);
                    data[q - (n - k)] = v;
                    let word = parent.encode(&data).unwrap()[..n].to_vec();
                    let syn = syndromes(&code, &word);
                    assert_eq!(field.div(syn[1], syn[0]), Ok(field.alpha_pow(q as u32)));
                    assert_eq!(single_error(&code, &syn), None, "RS({n},{k}) q={q}");
                    for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
                        assert_single_error_path_is_exact(&code, &word, backend);
                    }
                    cases += 1;
                }
            }
        }
        assert!(cases > 100, "{cases} virtual-position cases");
    }

    #[test]
    fn malformed_inputs_are_api_errors_not_failures() {
        let code = code_15_9();
        let word = code.encode(&[0; 9]).unwrap();
        assert!(code.decode(&word[..14], &[]).is_err());
        assert!(code.decode(&word, &[15]).is_err()); // out of range
        assert!(code.decode(&word, &[3, 3]).is_err()); // duplicate
        let mut bad = word.clone();
        bad[2] = 99; // out of GF(16)
        assert!(code.decode(&bad, &[]).is_err());
    }

    #[test]
    fn paper_rs18_16_corrects_one_error_or_two_erasures() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let data: Vec<Symbol> = (100..116).collect();
        let clean = code.encode(&data).unwrap();

        let mut one_err = clean.clone();
        one_err[9] ^= 0x55;
        assert_eq!(code.decode(&one_err, &[]).unwrap().data(), Some(&data[..]));

        let mut two_era = clean.clone();
        two_era[0] ^= 0xff;
        two_era[17] ^= 0x01;
        assert_eq!(
            code.decode(&two_era, &[0, 17]).unwrap().data(),
            Some(&data[..])
        );

        // Two random errors exceed capability (2·2 > 2).
        let mut two_err = clean.clone();
        two_err[2] ^= 0x10;
        two_err[5] ^= 0x20;
        let out = code.decode(&two_err, &[]).unwrap();
        assert!(matches!(out, DecodeOutcome::Failure(_)) || out.is_flagged());
        assert_ne!(out.data(), Some(&data[..]));
    }

    #[test]
    fn paper_rs36_16_corrects_ten_errors() {
        let code = RsCode::new(36, 16, 8).unwrap();
        let data: Vec<Symbol> = (0..16).map(|i| i * 3 + 1).collect();
        let clean = code.encode(&data).unwrap();
        let mut word = clean.clone();
        for i in 0..10 {
            word[i * 3] ^= (i + 1) as Symbol;
        }
        let out = code.decode(&word, &[]).unwrap();
        assert_eq!(out.data(), Some(&data[..]));
    }
}
