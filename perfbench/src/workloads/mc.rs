//! The two Monte-Carlo workloads: per-word campaigns (`mc_word`) and a
//! whole-array campaign (`mc_array`).

use super::{pin_first, Phase, Workload};
use crate::stats::{Fnv, Rng};
use rsmem::units::{ErasureRate, SeuRate, Time};
use rsmem::{CodeFamily, CodeParams, MemorySystem, Parallelism, ScrubTiming, Scrubbing, SimConfig};
use rsmem_sim::array::{run_duplex_array, ArrayConfig};
use std::time::Duration;

/// Fingerprint of the first `mc_word` campaign at [`PINNED_SEED`](super::PINNED_SEED).
pub const MC_WORD_FINGERPRINT: u64 = 0x9c2c_526c_6663_b9e0;

/// Fingerprint of the first `mc_array` campaign at [`PINNED_SEED`](super::PINNED_SEED).
pub const MC_ARRAY_FINGERPRINT: u64 = 0x8820_1fb9_60ff_6465;

/// Trials per `mc_word` operation, and in its warm-up.
const MC_WORD_TRIALS: usize = 2_500;
const MC_WORD_WARMUP_TRIALS: usize = 250;

/// Storage horizon of both campaigns, days.
const STORE_DAYS: f64 = 2.0;

/// Trials per `mc_array` operation; the warm-up runs one.
const ARRAY_TRIALS: usize = 2;

/// Seed of operation `index`; the warm-up uses `u64::MAX`.
fn op_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed, index).next_u64()
}

/// `mc_word`: duplex RS(18,16) campaigns with heavy SEU and permanent
/// faults (stress rates, about 600 times the paper's worst-case SEU, so
/// that decoding dominates) and a periodic 900 s scrub, sharded over
/// every core (or, in a traced run, on the timed thread).
pub struct McWord {
    seed: u64,
    parallelism: Parallelism,
    next: u64,
    system: MemorySystem,
    fingerprint: u64,
}

impl McWord {
    pub fn new(seed: u64, parallelism: Parallelism) -> McWord {
        McWord {
            seed,
            parallelism,
            next: 0,
            system: MemorySystem::duplex(CodeParams::rs18_16())
                .with_seu_rate(SeuRate::per_bit_day(1e-2))
                .with_erasure_rate(ErasureRate::per_symbol_day(1e-2))
                .with_scrubbing(Scrubbing::every_seconds(900.0)),
            fingerprint: 0,
        }
    }

    fn campaign(&self, trials: usize, seed: u64) -> Result<rsmem::MonteCarloReport, rsmem::Error> {
        self.system.monte_carlo_with(
            Time::from_days(STORE_DAYS),
            trials,
            seed,
            ScrubTiming::Periodic,
            &self.parallelism,
        )
    }
}

impl Workload for McWord {
    fn setup(&mut self) -> Result<(), String> {
        self.campaign(MC_WORD_WARMUP_TRIALS, op_seed(self.seed, u64::MAX))
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn run(&mut self, budget: Duration, _traced: bool) -> Phase {
        let mut phase = Phase::new(budget);
        while phase.more() {
            let seed = op_seed(self.seed, self.next);
            let report = phase.time(|| self.campaign(MC_WORD_TRIALS, seed));
            let checked = report.map_err(|e| e.to_string()).and_then(|r| {
                if r.trials != MC_WORD_TRIALS || r.correct + r.silent + r.detected != r.trials {
                    return Err(format!(
                        "mc_word: {} correct + {} silent + {} detected != {} trials",
                        r.correct, r.silent, r.detected, MC_WORD_TRIALS
                    ));
                }
                let mut hash = Fnv::default();
                for count in [r.correct, r.silent, r.detected] {
                    hash.write_u64(count as u64);
                }
                let (seed, next, fp) = (self.seed, self.next, hash.finish());
                pin_first(
                    "mc_word",
                    seed,
                    next,
                    fp,
                    MC_WORD_FINGERPRINT,
                    &mut self.fingerprint,
                )?;
                Ok(r.trials as f64)
            });
            phase.record(checked);
            self.next += 1;
        }
        phase.finish()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// `mc_array`: a 1024-word duplex RS(18,16) array with 2-bit multi-bit
/// upsets, interleave depth 4 and a scrub every 0.01 day.
pub struct McArray {
    seed: u64,
    next: u64,
    config: ArrayConfig,
    fingerprint: u64,
}

impl McArray {
    pub fn new(seed: u64) -> McArray {
        McArray {
            seed,
            next: 0,
            config: ArrayConfig {
                base: SimConfig {
                    n: 18,
                    k: 16,
                    m: 8,
                    family: CodeFamily::Rs,
                    depth: 1,
                    seu_per_bit_day: 1e-3,
                    erasure_per_symbol_day: 1e-4,
                    scrub: Some((0.01, ScrubTiming::Periodic)),
                    store_days: STORE_DAYS,
                },
                words: 1024,
                mbu_width_bits: 2,
                interleave_depth: 4,
            },
            fingerprint: 0,
        }
    }
}

impl Workload for McArray {
    fn setup(&mut self) -> Result<(), String> {
        run_duplex_array(&self.config, 1, op_seed(self.seed, u64::MAX))
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn run(&mut self, budget: Duration, _traced: bool) -> Phase {
        let mut phase = Phase::new(budget);
        let total = ARRAY_TRIALS * self.config.words;
        while phase.more() {
            let seed = op_seed(self.seed, self.next);
            let report = phase.time(|| run_duplex_array(&self.config, ARRAY_TRIALS, seed));
            let checked = report.map_err(|e| e.to_string()).and_then(|r| {
                let fraction = r.failed_words as f64 / total as f64;
                if r.trials != ARRAY_TRIALS
                    || r.words != self.config.words
                    || r.failed_words > total
                    || r.silent_words > r.failed_words
                    || r.word_failure_fraction != fraction
                {
                    return Err(format!(
                        "mc_array: {} failed ({} silent) of {} word-stores, fraction {}",
                        r.failed_words, r.silent_words, total, r.word_failure_fraction
                    ));
                }
                let mut hash = Fnv::default();
                for count in [r.failed_words, r.silent_words] {
                    hash.write_u64(count as u64);
                }
                let (seed, next, fp) = (self.seed, self.next, hash.finish());
                pin_first(
                    "mc_array",
                    seed,
                    next,
                    fp,
                    MC_ARRAY_FINGERPRINT,
                    &mut self.fingerprint,
                )?;
                Ok(total as f64)
            });
            phase.record(checked);
            self.next += 1;
        }
        phase.finish()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}
