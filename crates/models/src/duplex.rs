//! The duplex-memory Markov model (paper Section 5, Figs. 3–4).

use crate::{CodeParams, FaultRates, Scrubbing};
use rsmem_ctmc::MarkovModel;

/// Joint corruption state of the two replicated, RS-coded words
/// (paper Fig. 3).
///
/// Counting the `n` homologous symbol *pairs*:
///
/// * `x`  — pairs with erasures in **both** symbols;
/// * `y`  — pairs with an erasure in one symbol, the other clean
///   (maskable by the arbiter's erasure-recovery step);
/// * `b`  — pairs with an erasure in one symbol and a random error in the
///   other (the mask substitutes an erroneous value);
/// * `e1` — pairs whose word-1 symbol has a random error, word-2 clean;
/// * `e2` — symmetric for word 2;
/// * `ec` — pairs with random errors in **both** symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DuplexState {
    /// Operational with the given pair counts.
    Up {
        /// Double-erasure pairs (X).
        x: u16,
        /// Single-erasure pairs (Y), maskable.
        y: u16,
        /// Erasure + random-error pairs (b).
        b: u16,
        /// Word-1-only random errors (e1).
        e1: u16,
        /// Word-2-only random errors (e2).
        e2: u16,
        /// Common-position random errors (ec).
        ec: u16,
    },
    /// Unrecoverable-error state (absorbing).
    Fail,
}

impl DuplexState {
    /// The fault-free state.
    pub fn good() -> Self {
        DuplexState::Up {
            x: 0,
            y: 0,
            b: 0,
            e1: 0,
            e2: 0,
            ec: 0,
        }
    }
}

/// When does the duplex system fail?
///
/// After erasure recovery (Y masked), word `i` sees `X` erasures and
/// `b + ec + e_i` random errors, so word `i` is decodable iff
/// `X + 2(b + ec + e_i) ≤ n − k`.
///
/// The paper presents the two inequalities as a brace-connected system
/// ("either of the following conditions must be satisfied", with *either*
/// in its distributive sense of *each of the two*): the system is
/// operational only while **both** words are decodable. This reading is
/// confirmed quantitatively by the paper's figures — Fig. 6's duplex BER
/// sits in the same range as Fig. 5's simplex, which only happens when a
/// single word's overload fails the system. The optimistic alternative
/// (the arbiter saves the day while at least one word decodes) is kept as
/// an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DuplexFailCriterion {
    /// Operational only while **both** words are decodable (paper).
    #[default]
    BothWords,
    /// Operational while **at least one** word is decodable (optimistic
    /// arbiter-selection ablation).
    EitherWord,
}

/// Modelling options for the duplex arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DuplexOptions {
    /// Fail criterion (default: [`DuplexFailCriterion::BothWords`]).
    pub fail_criterion: DuplexFailCriterion,
    /// The paper's Fig. 4 assigns erasure arrivals on a clean *pair* the
    /// rate `λe·(clean pairs)` — one erasure event per pair — and
    /// likewise `λe·ec` for double-error pairs (transition F). Setting
    /// this flag doubles those two rates to model independent per-module
    /// erasure exposure (both symbols of the pair are physically exposed).
    /// The Monte-Carlo simulator, which injects faults per module,
    /// empirically matches this convention — see DESIGN.md §2 note 3 and
    /// `tests/analytic_vs_simulation.rs`.
    pub erasures_per_module: bool,
}

/// Markov model of the duplex RS-coded memory (paper Figs. 3–4).
///
/// The transition structure follows the paper's states A–O exactly; see
/// the module-level docs of [`crate`] and DESIGN.md for the two
/// documented deviations (transition B's rate `λe·b`, which Fig. 4's
/// label supports over the prose's `λe·Y`; and the optional per-module
/// erasure convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplexModel {
    code: CodeParams,
    rates: FaultRates,
    scrub: Scrubbing,
    options: DuplexOptions,
}

impl DuplexModel {
    /// Builds the model with default [`DuplexOptions`].
    pub fn new(code: CodeParams, rates: FaultRates, scrub: Scrubbing) -> Self {
        Self::with_options(code, rates, scrub, DuplexOptions::default())
    }

    /// Builds the model with explicit options.
    pub fn with_options(
        code: CodeParams,
        rates: FaultRates,
        scrub: Scrubbing,
        options: DuplexOptions,
    ) -> Self {
        DuplexModel {
            code,
            rates,
            scrub,
            options,
        }
    }

    /// The code parameters.
    pub fn code(&self) -> CodeParams {
        self.code
    }

    /// The fault environment.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// The scrubbing policy.
    pub fn scrubbing(&self) -> Scrubbing {
        self.scrub
    }

    /// The modelling options.
    pub fn options(&self) -> DuplexOptions {
        self.options
    }

    /// Is a counted configuration operational under the fail criterion?
    fn is_operational(&self, x: u16, b: u16, e1: u16, e2: u16, ec: u16) -> bool {
        let cap = self.code.capability();
        let word1 = cap.admits(x as usize, b as usize + ec as usize + e1 as usize);
        let word2 = cap.admits(x as usize, b as usize + ec as usize + e2 as usize);
        match self.options.fail_criterion {
            DuplexFailCriterion::EitherWord => word1 || word2,
            DuplexFailCriterion::BothWords => word1 && word2,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn classify(&self, x: u16, y: u16, b: u16, e1: u16, e2: u16, ec: u16) -> DuplexState {
        if self.is_operational(x, b, e1, e2, ec) {
            DuplexState::Up {
                x,
                y,
                b,
                e1,
                e2,
                ec,
            }
        } else {
            DuplexState::Fail
        }
    }
}

impl MarkovModel for DuplexModel {
    type State = DuplexState;

    fn initial_state(&self) -> DuplexState {
        DuplexState::good()
    }

    fn is_absorbing(&self, state: &DuplexState) -> bool {
        matches!(state, DuplexState::Fail)
    }

    fn transitions(&self, state: &DuplexState, out: &mut Vec<(DuplexState, f64)>) {
        let DuplexState::Up {
            x,
            y,
            b,
            e1,
            e2,
            ec,
        } = *state
        else {
            return;
        };
        let n = self.code.n() as f64;
        let m_bits = self.code.m() as f64;
        let lam = self.rates.seu.as_per_bit_day();
        let lam_e = self.rates.erasure.as_per_symbol_day();
        let clean = n - x as f64 - y as f64 - b as f64 - e1 as f64 - e2 as f64 - ec as f64;
        debug_assert!(clean >= 0.0, "pair counts exceed n");
        let pair_factor = if self.options.erasures_per_module {
            2.0
        } else {
            1.0
        };

        if lam_e > 0.0 {
            // A: erasure joins an existing single erasure (rate λe·Y).
            if y > 0 {
                out.push((self.classify(x + 1, y - 1, b, e1, e2, ec), lam_e * y as f64));
            }
            // B: erasure lands on the errored half of an (erasure, error)
            // pair (rate λe·b — see DESIGN.md on the paper's B-rate typo).
            if b > 0 {
                out.push((self.classify(x + 1, y, b - 1, e1, e2, ec), lam_e * b as f64));
            }
            // C: erasure strikes a completely clean pair.
            if clean > 0.0 {
                out.push((
                    self.classify(x, y + 1, b, e1, e2, ec),
                    lam_e * clean * pair_factor,
                ));
            }
            // D/E: erasure supersedes a private random error (same symbol).
            if e1 > 0 {
                out.push((
                    self.classify(x, y + 1, b, e1 - 1, e2, ec),
                    lam_e * e1 as f64,
                ));
            }
            if e2 > 0 {
                out.push((
                    self.classify(x, y + 1, b, e1, e2 - 1, ec),
                    lam_e * e2 as f64,
                ));
            }
            // F: erasure on one half of a double-error pair (both halves
            // are exposed under the per-module convention).
            if ec > 0 {
                out.push((
                    self.classify(x, y, b + 1, e1, e2, ec - 1),
                    lam_e * ec as f64 * pair_factor,
                ));
            }
            // G/H: erasure on the clean homologous of a private error.
            if e1 > 0 {
                out.push((
                    self.classify(x, y, b + 1, e1 - 1, e2, ec),
                    lam_e * e1 as f64,
                ));
            }
            if e2 > 0 {
                out.push((
                    self.classify(x, y, b + 1, e1, e2 - 1, ec),
                    lam_e * e2 as f64,
                ));
            }
        }

        if lam > 0.0 {
            let bit_rate = m_bits * lam;
            // I: SEU on the clean homologous of a single erasure.
            if y > 0 {
                out.push((
                    self.classify(x, y - 1, b + 1, e1, e2, ec),
                    bit_rate * y as f64,
                ));
            }
            // L/M: SEU on a clean pair, in word 1 or word 2.
            if clean > 0.0 {
                out.push((self.classify(x, y, b, e1 + 1, e2, ec), bit_rate * clean));
                out.push((self.classify(x, y, b, e1, e2 + 1, ec), bit_rate * clean));
            }
            // N/O: SEU on the clean homologous of a private error.
            if e1 > 0 {
                out.push((
                    self.classify(x, y, b, e1 - 1, e2, ec + 1),
                    bit_rate * e1 as f64,
                ));
            }
            if e2 > 0 {
                out.push((
                    self.classify(x, y, b, e1, e2 - 1, ec + 1),
                    bit_rate * e2 as f64,
                ));
            }
        }

        // Scrubbing: transient errors cleared, permanent faults persist.
        // An (erasure, error) pair becomes a plain single-erasure pair.
        let scrub_rate = self.scrub.rate_per_day();
        if scrub_rate > 0.0 && (b > 0 || e1 > 0 || e2 > 0 || ec > 0) {
            out.push((self.classify(x, y + b, 0, 0, 0, 0), scrub_rate));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{ErasureRate, SeuRate};
    use rsmem_ctmc::StateSpace;

    fn rates(seu: f64, erasure: f64) -> FaultRates {
        FaultRates {
            seu: SeuRate::per_bit_day(seu),
            erasure: ErasureRate::per_symbol_day(erasure),
        }
    }

    fn model(seu: f64, erasure: f64, scrub: Scrubbing) -> DuplexModel {
        DuplexModel::new(CodeParams::rs18_16(), rates(seu, erasure), scrub)
    }

    #[test]
    fn good_state_has_symmetric_seu_transitions() {
        let m = model(1e-5, 0.0, Scrubbing::None);
        let mut out = Vec::new();
        m.transitions(&DuplexState::good(), &mut out);
        assert_eq!(out.len(), 2); // L and M
        let rate = 8.0 * 1e-5 * 18.0;
        for (s, r) in &out {
            assert!((r - rate).abs() < 1e-15);
            assert!(matches!(
                s,
                DuplexState::Up { e1: 1, e2: 0, .. } | DuplexState::Up { e1: 0, e2: 1, .. }
            ));
        }
    }

    #[test]
    fn transition_rates_match_paper_figure4() {
        // From (X,Y,b,e1,e2,ec) = (0,1,1,1,1,1) with n=18 ⇒ clean = 13.
        // Note this state is operational only under EitherWord? Check:
        // word_i load = X + 2(b+ec+e_i) = 0 + 2·3 = 6 > 2 → NOT operational.
        // Use a wider code so the state is live.
        let code = CodeParams::rs36_16();
        let m = DuplexModel::new(code, rates(1e-5, 1e-6), Scrubbing::None);
        let state = DuplexState::Up {
            x: 0,
            y: 1,
            b: 1,
            e1: 1,
            e2: 1,
            ec: 1,
        };
        let mut out = Vec::new();
        m.transitions(&state, &mut out);
        let clean = 36.0 - 5.0;
        let lam_e = 1e-6;
        let bit = 8.0 * 1e-5;
        // Expected (target, rate) multiset per Fig. 4 (A..O):
        let expect = [
            ((1u16, 0u16, 1u16, 1u16, 1u16, 1u16), lam_e * 1.0), // A
            ((1, 1, 0, 1, 1, 1), lam_e * 1.0),                   // B
            ((0, 2, 1, 1, 1, 1), lam_e * clean),                 // C
            ((0, 2, 1, 0, 1, 1), lam_e * 1.0),                   // D
            ((0, 2, 1, 1, 0, 1), lam_e * 1.0),                   // E
            ((0, 1, 2, 1, 1, 0), lam_e * 1.0),                   // F
            ((0, 1, 2, 0, 1, 1), lam_e * 1.0),                   // G
            ((0, 1, 2, 1, 0, 1), lam_e * 1.0),                   // H
            ((0, 0, 2, 1, 1, 1), bit * 1.0),                     // I
            ((0, 1, 1, 2, 1, 1), bit * clean),                   // L
            ((0, 1, 1, 1, 2, 1), bit * clean),                   // M
            ((0, 1, 1, 0, 1, 2), bit * 1.0),                     // N
            ((0, 1, 1, 1, 0, 2), bit * 1.0),                     // O
        ];
        assert_eq!(out.len(), expect.len());
        for ((x, y, b, e1, e2, ec), rate) in expect {
            let target = DuplexState::Up {
                x,
                y,
                b,
                e1,
                e2,
                ec,
            };
            let found: Vec<_> = out.iter().filter(|(s, _)| *s == target).collect();
            assert!(
                found
                    .iter()
                    .any(|(_, r)| (r - rate).abs() < 1e-18 * rate.max(1.0)),
                "missing transition to {target:?} at rate {rate}: found {found:?}"
            );
        }
    }

    #[test]
    fn scrubbing_maps_b_to_y() {
        let m = model(1e-5, 1e-6, Scrubbing::every_seconds(1800.0));
        let state = DuplexState::Up {
            x: 1,
            y: 0,
            b: 1,
            e1: 0,
            e2: 0,
            ec: 0,
        };
        // Operational? word load = 1 + 2·1 = 3 > 2 for both words →
        // under EitherWord this is Fail-territory; classify() would have
        // lumped it. Pick a state that's live: (x=0, b=1):
        let state_live = DuplexState::Up {
            x: 0,
            y: 0,
            b: 1,
            e1: 0,
            e2: 0,
            ec: 0,
        };
        let _ = state;
        let mut out = Vec::new();
        m.transitions(&state_live, &mut out);
        let scrub_target = DuplexState::Up {
            x: 0,
            y: 1,
            b: 0,
            e1: 0,
            e2: 0,
            ec: 0,
        };
        let hits: Vec<_> = out.iter().filter(|(s, _)| *s == scrub_target).collect();
        assert_eq!(hits.len(), 1);
        assert!((hits[0].1 - 48.0).abs() < 1e-9); // 1/(1800 s) = 48/day
    }

    #[test]
    fn default_criterion_fails_on_one_sided_overload() {
        let m = model(1e-5, 0.0, Scrubbing::None);
        // e1 = 5 overloads word 1 (2·5 > 2): the system fails even though
        // word 2 is clean (paper semantics, matches Fig. 6's magnitudes).
        assert!(!m.is_operational(0, 0, 5, 0, 0));
        assert!(!m.is_operational(0, 0, 0, 5, 0));
        // One private error per word: each word carries load 2 ≤ 2.
        assert!(m.is_operational(0, 0, 1, 1, 0));
        // Common errors overload both words.
        assert!(!m.is_operational(0, 0, 0, 0, 2));
        // b counts against both words too.
        assert!(!m.is_operational(0, 2, 0, 0, 0));
    }

    #[test]
    fn either_word_ablation_is_more_permissive() {
        let m = DuplexModel::with_options(
            CodeParams::rs18_16(),
            rates(1e-5, 0.0),
            Scrubbing::None,
            DuplexOptions {
                fail_criterion: DuplexFailCriterion::EitherWord,
                ..Default::default()
            },
        );
        // Word 2 overloaded, word 1 clean: the optimistic arbiter survives.
        assert!(m.is_operational(0, 0, 0, 5, 0));
        assert!(m.is_operational(0, 0, 5, 0, 0));
        assert!(!m.is_operational(0, 0, 0, 0, 2));
        assert!(!m.is_operational(0, 2, 0, 0, 0));
    }

    #[test]
    fn state_space_is_finite_and_has_single_absorber() {
        let space = StateSpace::explore(&model(1e-5, 1e-6, Scrubbing::None)).unwrap();
        assert!(space.len() > 10, "expected a nontrivial space");
        assert!(space.len() < 3000, "space blew up: {}", space.len());
        assert_eq!(space.absorbing_states().len(), 1);
        let fail = space.index_of(&DuplexState::Fail).unwrap();
        assert_eq!(space.absorbing_states()[0], fail);
    }

    #[test]
    fn pair_counts_never_exceed_n() {
        let space =
            StateSpace::explore(&model(1e-5, 1e-6, Scrubbing::every_seconds(900.0))).unwrap();
        for s in space.states() {
            if let DuplexState::Up {
                x,
                y,
                b,
                e1,
                e2,
                ec,
            } = s
            {
                let total = *x as usize
                    + *y as usize
                    + *b as usize
                    + *e1 as usize
                    + *e2 as usize
                    + *ec as usize;
                assert!(total <= 18, "state {s:?} exceeds n");
            }
        }
    }

    #[test]
    fn e1_e2_symmetry_of_the_state_space() {
        // The model is symmetric in the two words: for every reachable
        // state, its mirror (e1 ↔ e2) is reachable too.
        let space = StateSpace::explore(&model(1e-5, 1e-6, Scrubbing::None)).unwrap();
        for s in space.states() {
            if let DuplexState::Up {
                x,
                y,
                b,
                e1,
                e2,
                ec,
            } = *s
            {
                let mirror = DuplexState::Up {
                    x,
                    y,
                    b,
                    e1: e2,
                    e2: e1,
                    ec,
                };
                assert!(space.index_of(&mirror).is_some(), "mirror of {s:?} missing");
            }
        }
    }

    #[test]
    fn per_module_erasure_option_doubles_clean_pair_rate() {
        let base = model(0.0, 1e-6, Scrubbing::None);
        let doubled = DuplexModel::with_options(
            CodeParams::rs18_16(),
            rates(0.0, 1e-6),
            Scrubbing::None,
            DuplexOptions {
                erasures_per_module: true,
                ..Default::default()
            },
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        base.transitions(&DuplexState::good(), &mut a);
        doubled.transitions(&DuplexState::good(), &mut b);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!((b[0].1 - 2.0 * a[0].1).abs() < 1e-18);
    }
}
