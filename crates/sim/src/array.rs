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
//! The arrays run on the word campaigns' engine (`system.rs`) and
//! sharded driver ([`crate::runner`]), with any code family. Only their
//! upset draw differs: one physical bit, then the burst through the
//! interleaver. Each trial is a shard of its own, so trial `t` draws
//! from the stream seeded from `(seed, t)`, whatever the workers.

use crate::runner::{run_sharded, summarize};
use crate::system::{Engine, Layout};
use crate::{SimConfig, SimError};
use rsmem_code::Interleaver;
use rsmem_codes::build;
use std::num::NonZeroUsize;

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

/// Runs `trials` independent stores of a whole simplex array, on
/// every available core.
///
/// # Errors
///
/// [`SimError`] on invalid configuration or zero trials.
pub fn run_simplex_array(
    config: &ArrayConfig,
    trials: usize,
    seed: u64,
) -> Result<ArrayReport, SimError> {
    run_array_threaded(config, false, trials, seed, all_cores())
}

/// Runs `trials` independent stores of a whole **duplex** array, on
/// every available core: two physical module arrays, each independently
/// interleaved and fault-injected, read back word-pair-by-word-pair
/// through the Section-3 arbiter.
///
/// # Errors
///
/// [`SimError`] on invalid configuration or zero trials.
pub fn run_duplex_array(
    config: &ArrayConfig,
    trials: usize,
    seed: u64,
) -> Result<ArrayReport, SimError> {
    run_array_threaded(config, true, trials, seed, all_cores())
}

/// [`std::thread::available_parallelism`], or 1 where it is unknown.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `trials` independent stores of a whole simplex or `duplex`
/// array across up to `threads` workers, one trial per shard. The
/// report depends only on `(config, duplex, trials, seed)`.
///
/// # Errors
///
/// [`SimError`] on invalid configuration or zero trials.
pub fn run_array_threaded(
    config: &ArrayConfig,
    duplex: bool,
    trials: usize,
    seed: u64,
    threads: usize,
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
    let (name, replicas) = if duplex {
        ("duplex_array_campaign", 2)
    } else {
        ("simplex_array_campaign", 1)
    };
    let mut span = rsmem_obs::span("sim.mc", name);
    span.record("trials", trials);
    span.record("words", config.words);
    span.record("threads", threads);
    let counts = run_sharded(
        trials,
        seed,
        (1, threads),
        || Engine::new(code.as_ref(), &config.base, replicas, layout),
        |engine, rng, in_shard| engine.play_shard(rng, in_shard),
    );

    // Every word of every trial is one classified read.
    let words = summarize(counts, config.base.n, config.base.k, config.base.m);
    Ok(ArrayReport {
        trials,
        words: config.words,
        failed_words: words.silent + words.detected,
        silent_words: words.silent,
        word_failure_fraction: words.failure_fraction,
        wilson_95: words.wilson_95,
        ber_estimate: words.ber_estimate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Store;
    use crate::system::{scrub_duplex, scrub_simplex, Batch};
    use crate::ScrubTiming;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use rsmem_code::{RsCode, Symbol};

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

    #[test]
    fn a_converged_array_scrub_is_a_fixed_point() {
        // Sixteen words per store: the scrubs decode their dirty words
        // or pairs in one batch.
        crate::system::tests::converged_scrubs_are_fixed_points(16, 0xA22A);
    }

    /// Asserts that each store's worklist lists exactly its dirty
    /// modules, each once.
    fn assert_worklists_match(stores: &[Store], step: &str) {
        for (r, store) in stores.iter().enumerate() {
            let mut listed = store.dirty.clone();
            listed.sort_unstable();
            let dirty: Vec<usize> = (0..store.words()).filter(|&w| store.is_dirty(w)).collect();
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
                    let codewords: Vec<Symbol> = (0..16)
                        .flat_map(|_| {
                            let data: Vec<Symbol> =
                                (0..16).map(|_| rng.gen_range(0..=255)).collect();
                            code.encode(&data).unwrap()
                        })
                        .collect();
                    stores
                        .iter_mut()
                        .for_each(|a| a.reset().copy_from_slice(&codewords));
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
                                let before = stores[r].word(module).to_vec();
                                stores[r]
                                    .flip_physical_bit(symbol as u64 * 8 + rng.gen_range(0..8));
                                assert_eq!(stores[r].word(module), before, "stuck flip moved");
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
    fn reports_do_not_depend_on_the_thread_count() {
        // Five one-trial shards do not divide evenly over 2, 3 or 8
        // workers.
        let mut cfg = config(2e-2, 2, 2);
        cfg.base.erasure_per_symbol_day = 5e-3;
        cfg.base.scrub = Some((0.25, ScrubTiming::Periodic));
        for duplex in [false, true] {
            let serial = run_array_threaded(&cfg, duplex, 5, 0x5EED, 1).unwrap();
            assert!(serial.failed_words > 0, "duplex {duplex}: {serial:?}");
            for threads in [2, 3, 8] {
                let parallel = run_array_threaded(&cfg, duplex, 5, 0x5EED, threads).unwrap();
                assert_eq!(parallel, serial, "duplex {duplex} on {threads} threads");
            }
            let all_cores = if duplex {
                run_duplex_array(&cfg, 5, 0x5EED)
            } else {
                run_simplex_array(&cfg, 5, 0x5EED)
            };
            assert_eq!(all_cores.unwrap(), serial, "duplex {duplex} on every core");
        }
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
