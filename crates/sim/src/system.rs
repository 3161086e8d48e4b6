//! Event-driven simulation of the simplex and duplex memory systems.

use crate::arbiter::{combine, mask, verdict_of, MaskedPair};
use crate::config::{ScrubTiming, SimConfig};
use crate::events::{sample_exponential, schedule_scrub, skip_idle_ticks};
use crate::memory::MemoryModule;
use crate::runner::TrialOutcome;
use crate::SimError;
use rand::Rng;
use rsmem_code::{BatchOutcome, Symbol};
use rsmem_codes::{build, MemoryCode};
use std::sync::Arc;

/// Shared per-trial machinery.
#[derive(Debug)]
struct FaultClock {
    /// Next SEU time (absolute days), per module.
    next_seu: Vec<f64>,
    /// Next permanent-fault time, per module.
    next_perm: Vec<f64>,
    /// Next scrub time.
    next_scrub: f64,
}

fn random_data<R: Rng + ?Sized>(rng: &mut R, k: usize, symbol_values: usize) -> Vec<Symbol> {
    (0..k)
        .map(|_| rng.gen_range(0..symbol_values) as Symbol)
        .collect()
}

impl FaultClock {
    fn new<R: Rng + ?Sized>(rng: &mut R, config: &SimConfig, modules: usize) -> Self {
        let seu_rate = config.seu_per_bit_day * config.m as f64 * config.n as f64;
        let perm_rate = config.erasure_per_symbol_day * config.n as f64;
        FaultClock {
            next_seu: (0..modules)
                .map(|_| sample_exponential(rng, seu_rate))
                .collect(),
            next_perm: (0..modules)
                .map(|_| sample_exponential(rng, perm_rate))
                .collect(),
            next_scrub: schedule_scrub(rng, 0.0, config.scrub),
        }
    }

    /// Moves the next scrub past the idle ticks before the next fault or
    /// the horizon; see [`skip_idle_ticks`]. Only for a clock whose last
    /// scrub left every module clean.
    fn skip_idle_ticks(&mut self, scrub: Option<(f64, ScrubTiming)>, horizon: f64) {
        let until = self
            .next_seu
            .iter()
            .chain(&self.next_perm)
            .fold(horizon, |t, &f| t.min(f));
        self.next_scrub = skip_idle_ticks(self.next_scrub, scrub, until);
    }
}

/// What the per-trial event loop asks the caller to do next.
enum Step {
    Seu { module: usize, time: f64 },
    Permanent { module: usize, time: f64 },
    Scrub { time: f64 },
    Done,
}

fn next_step(clock: &FaultClock, horizon: f64) -> Step {
    let mut best = Step::Done;
    let mut best_t = horizon;
    for (i, &t) in clock.next_seu.iter().enumerate() {
        if t < best_t {
            best_t = t;
            best = Step::Seu { module: i, time: t };
        }
    }
    for (i, &t) in clock.next_perm.iter().enumerate() {
        if t < best_t {
            best_t = t;
            best = Step::Permanent { module: i, time: t };
        }
    }
    if clock.next_scrub < best_t {
        best = Step::Scrub {
            time: clock.next_scrub,
        };
    }
    best
}

fn inject_seu<R: Rng + ?Sized>(rng: &mut R, module: &mut MemoryModule, n: usize, bits: u32) {
    let pos = rng.gen_range(0..n);
    let bit = rng.gen_range(0..bits);
    module.flip_bit(pos, bit);
}

fn inject_permanent<R: Rng + ?Sized>(
    rng: &mut R,
    module: &mut MemoryModule,
    n: usize,
    symbol_values: usize,
) {
    let pos = rng.gen_range(0..n);
    let value = rng.gen_range(0..symbol_values) as Symbol;
    module.stick(pos, value);
}

/// A trial whose fault history has been played out but whose final
/// read-back has not yet been decoded. The sharded Monte-Carlo runner
/// prepares every trial of a shard, then pushes all the final decodes
/// through one [`rsmem_code::BatchDecoder`] pass.
#[derive(Debug)]
pub(crate) struct PendingTrial {
    /// The originally stored dataword.
    pub(crate) data: Vec<Symbol>,
    /// The (possibly corrupted) word read back at the stopping time.
    pub(crate) word: Vec<Symbol>,
    /// Located permanent-fault positions at the stopping time.
    pub(crate) erasures: Vec<usize>,
}

/// A duplex trial after fault injection *and* arbiter step 1 (masking):
/// both masked words are ready for independent decoding with the common
/// erasures.
#[derive(Debug)]
pub(crate) struct PendingDuplexTrial {
    /// The originally stored dataword.
    pub(crate) data: Vec<Symbol>,
    /// Module 1's masked word.
    pub(crate) w1: Vec<Symbol>,
    /// Module 2's masked word.
    pub(crate) w2: Vec<Symbol>,
    /// Positions erased in both modules (kept as erasures for both).
    pub(crate) common: Vec<usize>,
}

/// A single simulated simplex memory word.
///
/// Holds the code and configuration; [`SimplexSim::run_trial`] plays one
/// independent storage period: inject Poisson faults, scrub periodically,
/// read back at the stopping time and classify the outcome.
#[derive(Debug, Clone)]
pub struct SimplexSim {
    code: Arc<dyn MemoryCode>,
    config: SimConfig,
}

impl SimplexSim {
    /// Builds the simulator for a configuration.
    ///
    /// # Errors
    ///
    /// [`SimError`] on invalid configuration or code parameters.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        let code: Arc<dyn MemoryCode> = Arc::from(build(config.code_params()?)?);
        Ok(SimplexSim { code, config })
    }

    /// The underlying code.
    pub fn code(&self) -> &dyn MemoryCode {
        self.code.as_ref()
    }

    /// Runs one independent trial.
    pub fn run_trial<R: Rng + ?Sized>(&self, rng: &mut R) -> TrialOutcome {
        let mut trial = self.prepare_trial(rng);
        match self
            .code
            .decode_in_place(&mut trial.word, &trial.erasures)
            .expect("well-formed stored word")
        {
            BatchOutcome::Failure(_) => TrialOutcome::Detected,
            // Clean or Corrected: the word now holds the decoder's output.
            _ => {
                let data = self.code.data_of(&trial.word).expect("word has length n");
                if *data == trial.data[..] {
                    TrialOutcome::Correct
                } else {
                    TrialOutcome::SilentCorruption
                }
            }
        }
    }

    /// Plays one trial's fault history (injection + scrubbing) and stops
    /// just short of the final read-back decode, so callers can batch
    /// that decode across many trials. Consumes exactly the same RNG
    /// stream as [`SimplexSim::run_trial`] — the decode draws nothing.
    pub(crate) fn prepare_trial<R: Rng + ?Sized>(&self, rng: &mut R) -> PendingTrial {
        // `1 << m` is the symbol-value count of every family (GF(2^m)
        // size for RS, binary for RM), so the RNG stream is identical to
        // the pre-trait RS-only simulator.
        let symbol_values = 1usize << self.config.m;
        let data = random_data(rng, self.config.k, symbol_values);
        let codeword = self.code.encode(&data).expect("validated parameters");
        let mut module = MemoryModule::new(codeword, self.config.m);
        let mut clock = FaultClock::new(rng, &self.config, 1);
        let horizon = self.config.store_days;
        // The scrubs' decode buffer, then the read-back word.
        let mut word = Vec::new();

        loop {
            match next_step(&clock, horizon) {
                Step::Done => break,
                Step::Seu { module: _, time } => {
                    inject_seu(rng, &mut module, self.config.n, self.config.m);
                    let rate =
                        self.config.seu_per_bit_day * self.config.m as f64 * self.config.n as f64;
                    clock.next_seu[0] = time + sample_exponential(rng, rate);
                }
                Step::Permanent { module: _, time } => {
                    inject_permanent(rng, &mut module, self.config.n, symbol_values);
                    let rate = self.config.erasure_per_symbol_day * self.config.n as f64;
                    clock.next_perm[0] = time + sample_exponential(rng, rate);
                }
                Step::Scrub { time } => {
                    self.scrub(&mut module, &mut word);
                    clock.next_scrub = schedule_scrub(rng, time, self.config.scrub);
                    // Every scrub leaves the module clean.
                    clock.skip_idle_ticks(self.config.scrub, horizon);
                }
            }
        }

        word.clear();
        word.extend_from_slice(module.read());
        PendingTrial {
            data,
            word,
            erasures: module.erasures(),
        }
    }

    /// One scrub pass: read into `word`, decode it in place, rewrite the
    /// corrected word. An undecodable word is left untouched (the scrub
    /// simply fails). A clean module is skipped.
    ///
    /// Every scrub leaves the module clean, as a fixed point. An
    /// undecodable or clean word is not written. A word corrected to `c`
    /// is written, so the module then holds `c` except at its stuck
    /// symbols, which are exactly its erasures. Their number is the one
    /// this decode accepted, so the next decode is an erasures-only
    /// decode within the code's capability: it returns `c`, and
    /// rewriting `c` changes nothing.
    fn scrub(&self, module: &mut MemoryModule, word: &mut Vec<Symbol>) {
        if !module.is_dirty() {
            return;
        }
        word.clear();
        word.extend_from_slice(module.read());
        if let BatchOutcome::Corrected { .. } = self
            .code
            .decode_in_place(word, module.erased())
            .expect("well-formed stored word")
        {
            module.write(word);
        }
        module.mark_clean();
    }
}

/// A single simulated duplex memory word-pair with the Section-3 arbiter.
#[derive(Debug, Clone)]
pub struct DuplexSim {
    code: Arc<dyn MemoryCode>,
    config: SimConfig,
}

impl DuplexSim {
    /// Builds the simulator for a configuration.
    ///
    /// # Errors
    ///
    /// [`SimError`] on invalid configuration or code parameters.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        let code: Arc<dyn MemoryCode> = Arc::from(build(config.code_params()?)?);
        Ok(DuplexSim { code, config })
    }

    /// The underlying code.
    pub fn code(&self) -> &dyn MemoryCode {
        self.code.as_ref()
    }

    /// Runs one independent trial.
    pub fn run_trial<R: Rng + ?Sized>(&self, rng: &mut R) -> TrialOutcome {
        let mut trial = self.prepare_trial(rng);
        let code = self.code.as_ref();
        let out1 = code
            .decode_in_place(&mut trial.w1, &trial.common)
            .expect("well-formed stored word");
        let out2 = code
            .decode_in_place(&mut trial.w2, &trial.common)
            .expect("well-formed stored word");
        let verdict = combine(
            verdict_of(code, &trial.w1, &out1),
            verdict_of(code, &trial.w2, &out2),
        );
        match verdict {
            None => TrialOutcome::Detected,
            Some((d, _)) => {
                if *d == trial.data[..] {
                    TrialOutcome::Correct
                } else {
                    TrialOutcome::SilentCorruption
                }
            }
        }
    }

    /// Plays one trial's fault history and the arbiter's masking step,
    /// stopping just short of the two final decodes so callers can batch
    /// them. Consumes exactly the same RNG stream as
    /// [`DuplexSim::run_trial`] — masking and decoding draw nothing.
    pub(crate) fn prepare_trial<R: Rng + ?Sized>(&self, rng: &mut R) -> PendingDuplexTrial {
        let symbol_values = 1usize << self.config.m;
        let data = random_data(rng, self.config.k, symbol_values);
        let codeword = self.code.encode(&data).expect("validated parameters");
        let mut modules = [
            MemoryModule::new(codeword.clone(), self.config.m),
            MemoryModule::new(codeword, self.config.m),
        ];
        let mut clock = FaultClock::new(rng, &self.config, 2);
        let horizon = self.config.store_days;
        let seu_rate = self.config.seu_per_bit_day * self.config.m as f64 * self.config.n as f64;
        let perm_rate = self.config.erasure_per_symbol_day * self.config.n as f64;
        // The scrubs' masking and decode buffers, then the read-back pair.
        let mut pair = MaskedPair::default();

        loop {
            match next_step(&clock, horizon) {
                Step::Done => break,
                Step::Seu { module, time } => {
                    inject_seu(rng, &mut modules[module], self.config.n, self.config.m);
                    clock.next_seu[module] = time + sample_exponential(rng, seu_rate);
                }
                Step::Permanent { module, time } => {
                    inject_permanent(rng, &mut modules[module], self.config.n, symbol_values);
                    clock.next_perm[module] = time + sample_exponential(rng, perm_rate);
                }
                Step::Scrub { time } => {
                    let all_clean = self.scrub(&mut modules, &mut pair);
                    clock.next_scrub = schedule_scrub(rng, time, self.config.scrub);
                    if all_clean {
                        clock.skip_idle_ticks(self.config.scrub, horizon);
                    }
                }
            }
        }

        let [m1, m2] = &modules;
        mask(
            self.code.as_ref(),
            m1.read(),
            m1.erased(),
            m2.read(),
            m2.erased(),
            &mut pair,
        )
        .expect("well-formed stored words");
        PendingDuplexTrial {
            data,
            w1: pair.w1,
            w2: pair.w2,
            common: pair.common,
        }
    }

    /// Joint scrub: erasure-mask each word from its sibling into `pair`,
    /// decode each in place, rewrite every module whose word decoded.
    /// Undecodable words are left in place. The pair is skipped while
    /// both modules are clean. Returns whether it leaves both clean.
    ///
    /// The pair is left clean when it is a fixed point: when the writes
    /// changed nothing, or when both words decoded to the same word `c`.
    /// In the second case each module then holds `c` except at its own
    /// stuck symbols, so masking fills every one-sided erasure with `c`,
    /// and both masked words equal `c` off the common erasures that
    /// this decode accepted. A repeat decodes both to `c` and writes
    /// nothing new. If one word failed or the two decoded words differ,
    /// the pair stays dirty.
    fn scrub(&self, modules: &mut [MemoryModule; 2], pair: &mut MaskedPair) -> bool {
        if !modules.iter().any(MemoryModule::is_dirty) {
            return true;
        }
        let [m1, m2] = &*modules;
        mask(
            self.code.as_ref(),
            m1.read(),
            m1.erased(),
            m2.read(),
            m2.erased(),
            pair,
        )
        .expect("well-formed stored words");
        let (mut changed, mut decoded) = (false, true);
        for (module, word) in modules.iter_mut().zip([&mut pair.w1, &mut pair.w2]) {
            match self
                .code
                .decode_in_place(word, &pair.common)
                .expect("well-formed stored word")
            {
                // Clean after masking, or Corrected in place.
                BatchOutcome::Clean | BatchOutcome::Corrected { .. } => {
                    changed |= module.write(word);
                }
                BatchOutcome::Failure(_) => decoded = false,
            }
        }
        let settled = !changed || (decoded && pair.w1 == pair.w2);
        if settled {
            modules.iter_mut().for_each(MemoryModule::mark_clean);
        }
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsmem_code::DecodeOutcome;
    use rsmem_models::CodeFamily;

    #[test]
    fn fault_free_trials_always_succeed() {
        let config = SimConfig::rs18_16_baseline();
        let simplex = SimplexSim::new(config).unwrap();
        let duplex = DuplexSim::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(simplex.run_trial(&mut rng), TrialOutcome::Correct);
            assert_eq!(duplex.run_trial(&mut rng), TrialOutcome::Correct);
        }
    }

    #[test]
    fn overwhelming_seu_rate_always_fails_simplex() {
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 50.0; // ~14k flips over 2 days
        let simplex = SimplexSim::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let fails = (0..30)
            .filter(|_| simplex.run_trial(&mut rng) != TrialOutcome::Correct)
            .count();
        assert!(fails >= 29, "only {fails}/30 trials failed");
    }

    #[test]
    fn single_permanent_fault_is_always_recovered_by_duplex() {
        // λe high enough for ~one fault per trial but two same-position
        // faults vanishingly unlikely to matter across 30 trials.
        let mut config = SimConfig::rs18_16_baseline();
        config.erasure_per_symbol_day = 0.01; // ~0.36 faults/module over 2 days
        let duplex = DuplexSim::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            assert_eq!(duplex.run_trial(&mut rng), TrialOutcome::Correct);
        }
    }

    #[test]
    fn scrubbing_rescues_high_seu_simplex() {
        let mut config = SimConfig::rs18_16_baseline();
        // ~1.4 flips expected in 2 days (would often kill the t=1 code
        // without repair)...
        config.seu_per_bit_day = 5e-3;
        let no_scrub = SimplexSim::new(config).unwrap();
        // ...but with 200 scrubs/day accumulation is nearly impossible.
        config.scrub = Some((0.005, ScrubTiming::Periodic));
        let scrubbed = SimplexSim::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 120;
        let fail_no: usize = (0..trials)
            .filter(|_| no_scrub.run_trial(&mut rng) != TrialOutcome::Correct)
            .count();
        let fail_scrub: usize = (0..trials)
            .filter(|_| scrubbed.run_trial(&mut rng) != TrialOutcome::Correct)
            .count();
        assert!(
            fail_scrub < fail_no,
            "scrubbing should help: {fail_scrub} vs {fail_no}"
        );
    }

    /// Two modules holding `codeword`, each with up to two permanent
    /// faults and up to three upsets.
    fn faulty_pair(rng: &mut StdRng, config: &SimConfig, codeword: &[Symbol]) -> [MemoryModule; 2] {
        let symbol_values = 1 << config.m;
        [0, 1].map(|_| {
            let mut m = MemoryModule::new(codeword.to_vec(), config.m);
            for _ in 0..rng.gen_range(0..=2) {
                inject_permanent(rng, &mut m, config.n, symbol_values);
            }
            for _ in 0..rng.gen_range(0..=3) {
                inject_seu(rng, &mut m, config.n, config.m);
            }
            m
        })
    }

    /// The word `word` decodes to, or `None` if decoding fails.
    fn decoded(code: &dyn MemoryCode, word: &[Symbol], erasures: &[usize]) -> Option<Vec<Symbol>> {
        let mut out = word.to_vec();
        match code.decode_in_place(&mut out, erasures).unwrap() {
            BatchOutcome::Failure(_) => None,
            BatchOutcome::Clean | BatchOutcome::Corrected { .. } => Some(out),
        }
    }

    fn content(modules: &[MemoryModule]) -> Vec<(Vec<Symbol>, Vec<usize>)> {
        modules
            .iter()
            .map(|m| (m.read().to_vec(), m.erasures()))
            .collect()
    }

    /// Scrubs `modules` once and checks the elision rule: a scrub that
    /// leaves every module clean leaves a state that a forced repeat
    /// does not move; a scrub that leaves a module dirty really changed
    /// the state. Returns whether the flags were cleared.
    fn check_fixed_point(
        modules: &mut [MemoryModule],
        scrub: impl Fn(&mut [MemoryModule]),
    ) -> bool {
        let before = content(modules);
        scrub(modules);
        if modules.iter().any(MemoryModule::is_dirty) {
            assert_ne!(content(modules), before, "an idle scrub kept a flag set");
            return false;
        }
        let settled = modules.to_vec();
        modules.iter_mut().for_each(MemoryModule::force_dirty);
        scrub(modules);
        assert_eq!(
            modules,
            &settled[..],
            "a repeated scrub moved a fixed point"
        );
        true
    }

    #[test]
    fn a_scrub_that_clears_the_flags_is_a_fixed_point() {
        let config = SimConfig::rs18_16_baseline();
        let simplex = SimplexSim::new(config).unwrap();
        let duplex = DuplexSim::new(config).unwrap();
        let code = duplex.code();
        let mut rng = StdRng::seed_from_u64(0xF1ED);
        let (mut cleared, mut kept, mut one_sided_failures, mut miscorrections) = (0, 0, 0, 0);
        for _ in 0..1500 {
            let codeword = code.encode(&random_data(&mut rng, config.k, 256)).unwrap();
            let mut modules = faulty_pair(&mut rng, &config, &codeword);

            // What the duplex scrub's two decodes will see.
            let [m1, m2] = &modules;
            let mut pair = MaskedPair::default();
            mask(
                code,
                m1.read(),
                m1.erased(),
                m2.read(),
                m2.erased(),
                &mut pair,
            )
            .unwrap();
            let outcomes = [&pair.w1, &pair.w2].map(|w| code.decode(w, &pair.common).unwrap());
            let failures = outcomes
                .iter()
                .filter(|o| matches!(o, DecodeOutcome::Failure(_)))
                .count();
            one_sided_failures += usize::from(failures == 1);
            miscorrections += outcomes
                .iter()
                .filter(
                    |o| matches!(o, DecodeOutcome::Corrected { codeword: c, .. } if *c != codeword),
                )
                .count();

            let mut simplex_module = [modules[0].clone()];
            for settled in [
                check_fixed_point(&mut modules, |m| {
                    duplex.scrub(m.try_into().unwrap(), &mut MaskedPair::default());
                }),
                check_fixed_point(&mut simplex_module, |m| {
                    simplex.scrub(&mut m[0], &mut Vec::new())
                }),
            ] {
                if settled {
                    cleared += 1;
                } else {
                    kept += 1;
                }
            }
        }
        assert!(
            cleared > 100 && kept > 100,
            "{cleared} cleared, {kept} kept"
        );
        assert!(
            one_sided_failures > 50,
            "{one_sided_failures} one-sided failures"
        );
        assert!(miscorrections > 50, "{miscorrections} miscorrections");
    }

    /// Scrubs `modules` whose decodes converged, forces them dirty and
    /// scrubs again: the repeat must move nothing. Returns whether the
    /// first scrub changed the state.
    fn check_converged(modules: &mut [MemoryModule], scrub: impl Fn(&mut [MemoryModule])) -> bool {
        let before = content(modules);
        scrub(modules);
        let settled = content(modules);
        modules.iter_mut().for_each(MemoryModule::force_dirty);
        scrub(modules);
        assert_eq!(
            content(modules),
            settled,
            "a repeated scrub moved a converged state"
        );
        settled != before
    }

    #[test]
    fn a_converged_scrub_is_a_fixed_point() {
        // RS(18,16) cannot correct an error next to an erasure, so its
        // confirmation decodes are clean; the wider codes also exercise
        // erasures-only corrections, and every family's decoder.
        let rs18_16 = SimConfig::rs18_16_baseline();
        let rs20_16 = SimConfig { n: 20, ..rs18_16 };
        let rm1_5 = SimConfig {
            n: 32,
            k: 6,
            m: 1,
            family: CodeFamily::Rm,
            ..rs18_16
        };
        let irs = SimConfig {
            n: 36,
            k: 32,
            family: CodeFamily::Irs,
            depth: 2,
            ..rs18_16
        };
        let cases = if cfg!(debug_assertions) {
            1_500
        } else {
            20_000
        };
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for config in [rs18_16, rs20_16, rm1_5, irs] {
            let simplex = SimplexSim::new(config).unwrap();
            let duplex = DuplexSim::new(config).unwrap();
            let code = duplex.code();
            let (mut duplex_changed, mut simplex_changed) = (0, 0);
            for _ in 0..cases {
                let data = random_data(&mut rng, config.k, 1 << config.m);
                let codeword = code.encode(&data).unwrap();
                let mut modules = faulty_pair(&mut rng, &config, &codeword);
                let mut simplex_module = [modules[0].clone()];

                // Both masked words decode to the same word.
                let [m1, m2] = &modules;
                let mut pair = MaskedPair::default();
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
                if d1.is_some() && d1 == d2 {
                    duplex_changed += usize::from(check_converged(&mut modules, |m| {
                        duplex.scrub(m.try_into().unwrap(), &mut MaskedPair::default());
                    }));
                }

                // The simplex word decodes.
                let [m] = &simplex_module;
                if decoded(code, m.read(), m.erased()).is_some() {
                    simplex_changed += usize::from(check_converged(&mut simplex_module, |m| {
                        simplex.scrub(&mut m[0], &mut Vec::new());
                    }));
                }
            }
            assert!(
                duplex_changed > 100 && simplex_changed > 100,
                "{config:?}: converged and changed: {duplex_changed} duplex, {simplex_changed} simplex"
            );
        }
    }

    #[test]
    fn trials_are_seed_deterministic() {
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 1e-2;
        config.erasure_per_symbol_day = 1e-3;
        config.scrub = Some((0.25, ScrubTiming::Exponential));
        let sim = DuplexSim::new(config).unwrap();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| sim.run_trial(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
    }
}
