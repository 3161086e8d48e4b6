//! Whole-memory array simulation with multi-bit upsets and interleaving.
//!
//! The paper models a single word and notes that "the extension by
//! considering the whole memory is straightforward". This module builds
//! that extension — an array of `words` simplex codewords in one physical
//! symbol sequence — and adds two effects the per-word Markov model
//! cannot see:
//!
//! * **multi-bit upsets (MBUs)**: an SEU flips `mbu_width_bits`
//!   physically adjacent bits. When the burst crosses a symbol boundary
//!   it corrupts *two* symbols of the same word — violating the model's
//!   single-symbol-per-event assumption and degrading real reliability;
//! * **interleaving** ([`rsmem_code::Interleaver`]): with depth > 1,
//!   physically adjacent symbols belong to different codewords, so an
//!   MBU splits into independent single-symbol errors and the model's
//!   assumption is restored.
//!
//! `tests/array_vs_model.rs::mbu_breaks_the_model_and_interleaving_restores_it`
//! and `examples/mbu_interleaving.rs` quantify both.
//!
//! The arrays run on the same engine as the word campaigns
//! (`system.rs`), with any code family; only their upset draw differs:
//! one physical bit, then the burst through the interleaver.

use crate::runner::{wilson_interval, OutcomeCounts};
use crate::system::{Engine, Layout};
use crate::{SimConfig, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsmem_code::Interleaver;
use rsmem_codes::build;

/// Configuration of a whole-memory array simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfig {
    /// Per-word configuration (code, rates, scrubbing, horizon).
    pub base: SimConfig,
    /// Number of codewords in the array.
    pub words: usize,
    /// Bits flipped per SEU event (1 = the paper's single-bit model;
    /// ≥ 2 = MBU). The burst is physically contiguous and clamped at the
    /// array end.
    pub mbu_width_bits: u32,
    /// Interleaving depth (1 = none). Must divide `words`.
    pub interleave_depth: usize,
}

impl ArrayConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] on zero words/width/depth or a
    /// depth that does not divide the word count; plus base-config
    /// errors.
    pub fn validate(&self) -> Result<(), SimError> {
        self.base.validate()?;
        if self.words == 0 {
            return Err(SimError::InvalidParameter {
                name: "words",
                value: 0.0,
            });
        }
        if self.mbu_width_bits == 0 {
            return Err(SimError::InvalidParameter {
                name: "mbu_width_bits",
                value: 0.0,
            });
        }
        if self.interleave_depth == 0 || !self.words.is_multiple_of(self.interleave_depth) {
            return Err(SimError::InvalidParameter {
                name: "interleave_depth",
                value: self.interleave_depth as f64,
            });
        }
        Ok(())
    }
}

/// Results of an array campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Trials run.
    pub trials: usize,
    /// Words per trial.
    pub words: usize,
    /// Words that failed to deliver correct data, summed over trials.
    pub failed_words: usize,
    /// ... of which silently corrupted (wrong data, no indication).
    pub silent_words: usize,
    /// Per-word failure fraction.
    pub word_failure_fraction: f64,
    /// 95% Wilson interval on the word failure fraction.
    pub wilson_95: (f64, f64),
    /// Eq.-(1)-style BER estimate, `m(n−k)/k ×` failure fraction.
    pub ber_estimate: f64,
}

/// Runs `trials` independent stores of a whole simplex array.
///
/// # Errors
///
/// [`SimError`] on invalid configuration or zero trials.
pub fn run_simplex_array(
    config: &ArrayConfig,
    trials: usize,
    seed: u64,
) -> Result<ArrayReport, SimError> {
    run_campaign(config, trials, seed, ("simplex_array_campaign", 1))
}

/// Runs `trials` independent stores of a whole **duplex** array: two
/// physical module arrays, each independently interleaved and fault-
/// injected, read back word-pair-by-word-pair through the Section-3
/// arbiter.
///
/// # Errors
///
/// [`SimError`] on invalid configuration or zero trials.
pub fn run_duplex_array(
    config: &ArrayConfig,
    trials: usize,
    seed: u64,
) -> Result<ArrayReport, SimError> {
    run_campaign(config, trials, seed, ("duplex_array_campaign", 2))
}

/// Runs `trials` trials of one engine of `replicas` arrays under a
/// `sim.mc` span called `name`, classifying each trial's read-back in
/// one batch, and sums the outcomes.
fn run_campaign(
    config: &ArrayConfig,
    trials: usize,
    seed: u64,
    (name, replicas): (&'static str, usize),
) -> Result<ArrayReport, SimError> {
    config.validate()?;
    if trials == 0 {
        return Err(SimError::NoTrials);
    }
    let code = build(config.base.code_params()?)?;
    let layout = Layout::Array {
        words: config.words,
        mbu_width_bits: config.mbu_width_bits,
        interleaver: Interleaver::new(config.interleave_depth)?,
    };
    let mut span = rsmem_obs::span("sim.mc", name);
    span.record("trials", trials);
    span.record("words", config.words);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::new(code.as_ref(), &config.base, replicas, layout);
    let mut counts = OutcomeCounts::default();
    for _ in 0..trials {
        engine.play(&mut rng);
        counts = counts.merge(engine.classify());
    }

    let failed_words = counts.silent + counts.detected;
    let total_words = trials * config.words;
    let word_failure_fraction = failed_words as f64 / total_words as f64;
    let prefactor =
        config.base.m as f64 * (config.base.n - config.base.k) as f64 / config.base.k as f64;
    Ok(ArrayReport {
        trials,
        words: config.words,
        failed_words,
        silent_words: counts.silent,
        word_failure_fraction,
        wilson_95: wilson_interval(failed_words, total_words),
        ber_estimate: prefactor * word_failure_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{mask, MaskedPair};
    use crate::memory::MemoryModule;
    use crate::system::{scrub_duplex, scrub_simplex, Batch, Store};
    use crate::ScrubTiming;
    use rand::Rng;
    use rsmem_code::{BatchOutcome, RsCode, Symbol};
    use rsmem_codes::MemoryCode;

    fn base(seu: f64) -> SimConfig {
        SimConfig {
            seu_per_bit_day: seu,
            ..SimConfig::rs18_16_baseline()
        }
    }

    fn config(seu: f64, mbu: u32, depth: usize) -> ArrayConfig {
        ArrayConfig {
            base: base(seu),
            words: 16,
            mbu_width_bits: mbu,
            interleave_depth: depth,
        }
    }

    /// A store of `codewords` under `config`'s code, each word with up
    /// to two permanent faults and up to three upsets. Without
    /// interleaving, word `w`'s symbol `p` is physical symbol `w·n + p`.
    fn faulty_array(rng: &mut StdRng, config: &SimConfig, codewords: &[Vec<Symbol>]) -> Store {
        let (n, m) = (config.n, config.m);
        let interleaver = Interleaver::new(1).unwrap();
        let mut store = Store::new(codewords.len(), n, m, interleaver);
        for (w, codeword) in codewords.iter().enumerate() {
            store.modules[w].reset(codeword);
            for _ in 0..rng.gen_range(0..=2) {
                store.stick(w * n + rng.gen_range(0..n), rng.gen_range(0..1 << m));
            }
            for _ in 0..rng.gen_range(0..=3) {
                let symbol = (w * n + rng.gen_range(0..n)) as u64;
                store.flip_physical_bit(symbol * u64::from(m) + u64::from(rng.gen_range(0..m)));
            }
        }
        store
    }

    /// The word `word` decodes to, or `None` if decoding fails.
    fn decoded(code: &dyn MemoryCode, word: &[Symbol], erasures: &[usize]) -> Option<Vec<Symbol>> {
        let mut out = word.to_vec();
        match code.decode_in_place(&mut out, erasures).unwrap() {
            BatchOutcome::Failure(_) => None,
            BatchOutcome::Clean | BatchOutcome::Corrected { .. } => Some(out),
        }
    }

    /// Word `w`'s modules across `stores`: stored symbols and erasures.
    fn word_state(stores: &[Store], w: usize) -> Vec<(Vec<Symbol>, Vec<usize>)> {
        stores
            .iter()
            .map(|a| (a.modules[w].read().to_vec(), a.modules[w].erased().to_vec()))
            .collect()
    }

    /// Scrubs `stores`, forces every module dirty and scrubs again: no
    /// word in `converged` may move on the repeat. Returns how many of
    /// them the first scrub changed.
    fn check_converged(
        stores: &mut [Store],
        converged: &[bool],
        mut scrub: impl FnMut(&mut [Store]),
    ) -> usize {
        let words = converged.len();
        let before: Vec<_> = (0..words).map(|w| word_state(stores, w)).collect();
        scrub(stores);
        let settled: Vec<_> = (0..words).map(|w| word_state(stores, w)).collect();
        for store in stores.iter_mut() {
            store.modules.iter_mut().for_each(MemoryModule::force_dirty);
            store.mark_all_dirty();
        }
        scrub(stores);
        let mut changed = 0;
        for w in (0..words).filter(|&w| converged[w]) {
            assert_eq!(
                word_state(stores, w),
                settled[w],
                "a repeated scrub moved converged word {w}"
            );
            changed += usize::from(settled[w] != before[w]);
        }
        changed
    }

    #[test]
    fn a_converged_array_scrub_is_a_fixed_point() {
        let mut rng = StdRng::seed_from_u64(0xA22A);
        let mut batch = Batch::default();
        let cases = if cfg!(debug_assertions) {
            1_500
        } else {
            20_000
        };
        // RS(20,16) also corrects an error next to an erasure; RM(1,5)
        // and IRS(36,32) run their own decoders.
        for config in crate::system::tests::oracle_configs() {
            let code = build(config.code_params().unwrap()).unwrap();
            let code = code.as_ref();
            let (mut duplex_changed, mut simplex_changed) = (0, 0);
            for _ in 0..cases {
                let codewords: Vec<Vec<Symbol>> = (0..16)
                    .map(|_| {
                        let data: Vec<Symbol> = (0..config.k)
                            .map(|_| rng.gen_range(0..1 << config.m))
                            .collect();
                        code.encode(&data).unwrap()
                    })
                    .collect();
                let mut replicas = [0, 1].map(|_| faulty_array(&mut rng, &config, &codewords));
                let mut simplex = [faulty_array(&mut rng, &config, &codewords)];

                // Word-pairs whose masked words both decode to the same word.
                let mut pair = MaskedPair::default();
                let converged: Vec<bool> = (0..16)
                    .map(|w| {
                        let [m1, m2] = [0, 1].map(|r| &replicas[r].modules[w]);
                        mask(
                            code,
                            m1.read(),
                            m1.erased(),
                            m2.read(),
                            m2.erased(),
                            &mut pair,
                        )
                        .unwrap();
                        let [d1, d2] = [&pair.w1, &pair.w2].map(|w| decoded(code, w, &pair.common));
                        d1.is_some() && d1 == d2
                    })
                    .collect();
                duplex_changed += check_converged(&mut replicas, &converged, |r| {
                    scrub_duplex(code, r, &mut batch);
                });

                // Simplex words that decode.
                let converged: Vec<bool> = simplex[0]
                    .modules
                    .iter()
                    .map(|m| decoded(code, m.read(), m.erased()).is_some())
                    .collect();
                simplex_changed += check_converged(&mut simplex, &converged, |a| {
                    scrub_simplex(code, &mut a[0], &mut batch);
                });
            }
            assert!(
                duplex_changed > 100 && simplex_changed > 100,
                "{config:?}: converged and changed: {duplex_changed} duplex, {simplex_changed} simplex"
            );
        }
    }

    /// Asserts that each store's worklist lists exactly its dirty
    /// modules, each once.
    fn assert_worklists_match(stores: &[Store], step: &str) {
        for (r, store) in stores.iter().enumerate() {
            let mut listed = store.dirty.clone();
            listed.sort_unstable();
            let dirty: Vec<usize> = (0..store.modules.len())
                .filter(|&i| store.modules[i].is_dirty())
                .collect();
            assert_eq!(listed, dirty, "replica {r}'s worklist after a {step}");
        }
    }

    #[test]
    fn worklists_list_exactly_the_dirty_modules() {
        let mut rng = StdRng::seed_from_u64(0x3011);
        let mut batch = Batch::default();
        for n in [18, 20] {
            let code = RsCode::new(n, 16, 8).unwrap();
            for replicas in [1, 2] {
                let mut left_dirty = 0;
                for _ in 0..20 {
                    let interleaver = Interleaver::new(4).unwrap();
                    let mut stores: Vec<Store> = (0..replicas)
                        .map(|_| Store::new(16, n, 8, interleaver))
                        .collect();
                    for w in 0..16 {
                        let data: Vec<Symbol> = (0..16).map(|_| rng.gen_range(0..=255)).collect();
                        let codeword = code.encode(&data).unwrap();
                        stores
                            .iter_mut()
                            .for_each(|a| a.modules[w].reset(&codeword));
                    }
                    // A stored codeword is a scrub fixed point: nothing is
                    // dirty and nothing is listed.
                    assert!(stores.iter().all(|a| a.dirty.is_empty()));
                    assert_worklists_match(&stores, "store");
                    // Stuck physical symbols, by replica.
                    let mut stuck: Vec<(usize, usize)> = Vec::new();
                    for _ in 0..200 {
                        let r = rng.gen_range(0..replicas);
                        let step = match rng.gen_range(0..5) {
                            0 => {
                                let bits = stores[r].bits();
                                let start = rng.gen_range(0..bits);
                                for b in (start..start + rng.gen_range(1..=4)).filter(|&b| b < bits)
                                {
                                    stores[r].flip_physical_bit(b);
                                }
                                "burst"
                            }
                            1 => {
                                let symbol = rng.gen_range(0..stores[r].symbols());
                                stores[r].stick(symbol, rng.gen_range(0..=255));
                                stuck.push((r, symbol));
                                "stick"
                            }
                            2 if !stuck.is_empty() => {
                                let (r, symbol) = stuck[rng.gen_range(0..stuck.len())];
                                stores[r].stick(symbol, rng.gen_range(0..=255));
                                "re-stick"
                            }
                            3 if !stuck.is_empty() => {
                                let (r, symbol) = stuck[rng.gen_range(0..stuck.len())];
                                let (module, _) = stores[r].locate(symbol);
                                let before = stores[r].modules[module].clone();
                                stores[r]
                                    .flip_physical_bit(symbol as u64 * 8 + rng.gen_range(0..8));
                                assert_eq!(stores[r].modules[module], before, "stuck flip moved");
                                "flip on a stuck symbol"
                            }
                            _ if replicas == 2 => {
                                left_dirty +=
                                    usize::from(!scrub_duplex(&code, &mut stores, &mut batch));
                                "duplex scrub"
                            }
                            _ => {
                                scrub_simplex(&code, &mut stores[0], &mut batch);
                                assert!(stores[0].dirty.is_empty());
                                "simplex scrub"
                            }
                        };
                        assert_worklists_match(&stores, step);
                    }
                }
                if replicas == 2 {
                    assert!(
                        left_dirty > 0,
                        "RS({n},16): no duplex scrub relisted a pair"
                    );
                }
            }
        }
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(config(0.0, 1, 1).validate().is_ok());
        assert!(config(0.0, 0, 1).validate().is_err());
        assert!(config(0.0, 1, 0).validate().is_err());
        assert!(config(0.0, 1, 5).validate().is_err()); // 5 ∤ 16
        let mut c = config(0.0, 1, 1);
        c.words = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_free_array_never_fails() {
        let report = run_simplex_array(&config(0.0, 1, 1), 5, 3).unwrap();
        assert_eq!(report.failed_words, 0);
        assert_eq!(report.word_failure_fraction, 0.0);
    }

    #[test]
    fn single_bit_array_matches_single_word_rate() {
        // With mbu = 1 and no interleaving, each word is an independent
        // copy of the single-word simulator: the per-word failure fraction
        // must agree with runner::run_simplex within CI noise, unscrubbed
        // and under exponential scrubbing, whose first tick is a draw.
        let seu = 5e-3;
        for scrub in [None, Some((0.25, ScrubTiming::Exponential))] {
            let mut array_config = config(seu, 1, 1);
            array_config.base.scrub = scrub;
            let array = run_simplex_array(&array_config, 120, 9).unwrap();
            let single = crate::runner::run_simplex(&array_config.base, 1920, 9).unwrap();
            let diff = (array.word_failure_fraction - single.failure_fraction).abs();
            assert!(
                diff < 0.02,
                "{scrub:?}: array {} vs single-word {}",
                array.word_failure_fraction,
                single.failure_fraction
            );
        }
    }

    #[test]
    fn mbu_hurts_and_interleaving_heals() {
        // Low enough rate that multi-event accumulation is secondary and
        // the boundary-crossing instant kill dominates the MBU effect.
        let seu = 1e-3;
        let trials = 200;
        let plain = run_simplex_array(&config(seu, 1, 1), trials, 21).unwrap();
        let mbu = run_simplex_array(&config(seu, 4, 1), trials, 21).unwrap();
        let healed = run_simplex_array(&config(seu, 4, 4), trials, 21).unwrap();
        // A 4-bit burst crosses a byte boundary with probability 3/8 and
        // then kills the t=1 word instantly: failures must rise clearly.
        assert!(
            mbu.word_failure_fraction > 2.0 * plain.word_failure_fraction,
            "mbu {} vs plain {}",
            mbu.word_failure_fraction,
            plain.word_failure_fraction
        );
        // Interleaving turns the burst into single-symbol errors spread
        // over different words. Those extra errors still accumulate, so
        // the fraction does not return to baseline — but the instant-kill
        // component must disappear, cutting failures substantially.
        assert!(
            healed.word_failure_fraction < 0.65 * mbu.word_failure_fraction,
            "healed {} vs mbu {}",
            healed.word_failure_fraction,
            mbu.word_failure_fraction
        );
        assert!(
            healed.word_failure_fraction >= plain.word_failure_fraction,
            "interleaving cannot beat the single-bit baseline: {} vs {}",
            healed.word_failure_fraction,
            plain.word_failure_fraction
        );
    }

    #[test]
    fn scrubbed_array_outperforms_unscrubbed() {
        let mut with = config(8e-3, 1, 1);
        with.base.scrub = Some((0.02, ScrubTiming::Periodic));
        let unscrubbed = run_simplex_array(&config(8e-3, 1, 1), 60, 31).unwrap();
        let scrubbed = run_simplex_array(&with, 60, 31).unwrap();
        assert!(scrubbed.word_failure_fraction < unscrubbed.word_failure_fraction);
    }

    #[test]
    fn reports_are_reproducible() {
        let a = run_simplex_array(&config(5e-3, 2, 2), 20, 77).unwrap();
        let b = run_simplex_array(&config(5e-3, 2, 2), 20, 77).unwrap();
        assert_eq!(a, b);
        let c = run_duplex_array(&config(5e-3, 2, 2), 10, 77).unwrap();
        let d = run_duplex_array(&config(5e-3, 2, 2), 10, 77).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn fault_free_duplex_array_never_fails() {
        let report = run_duplex_array(&config(0.0, 1, 1), 5, 3).unwrap();
        assert_eq!(report.failed_words, 0);
    }

    #[test]
    fn duplex_array_recovers_scattered_permanent_faults() {
        // Each replica accumulates stuck symbols independently; the
        // erasure-masking arbiter repairs every single-sided fault.
        let mut cfg = config(0.0, 1, 1);
        cfg.base.erasure_per_symbol_day = 5e-3; // ~0.18 faults/word/replica
        let report = run_duplex_array(&cfg, 40, 9).unwrap();
        assert_eq!(
            report.failed_words, 0,
            "single-sided permanent faults must all be masked"
        );
    }

    #[test]
    fn duplex_array_beats_simplex_array_under_mixed_faults() {
        let mut cfg = config(2e-3, 1, 1);
        cfg.base.erasure_per_symbol_day = 5e-3;
        let trials = 60;
        let s = run_simplex_array(&cfg, trials, 13).unwrap();
        let d = run_duplex_array(&cfg, trials, 13).unwrap();
        assert!(
            d.word_failure_fraction < s.word_failure_fraction,
            "duplex {} vs simplex {}",
            d.word_failure_fraction,
            s.word_failure_fraction
        );
    }

    #[test]
    fn duplex_array_scrubbing_helps() {
        let mut with = config(8e-3, 1, 1);
        with.base.scrub = Some((0.02, ScrubTiming::Periodic));
        let unscrubbed = run_duplex_array(&config(8e-3, 1, 1), 40, 17).unwrap();
        let scrubbed = run_duplex_array(&with, 40, 17).unwrap();
        assert!(scrubbed.word_failure_fraction <= unscrubbed.word_failure_fraction);
    }
}
