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
//! The `ablation_mbu` bench and integration tests quantify both.

use crate::arbiter::{combine, mask, verdict_of, MaskedPair};
use crate::events::{sample_exponential, schedule_scrub, skip_idle_ticks};
use crate::memory::MemoryModule;
use crate::runner::wilson_interval;
use crate::{SimConfig, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsmem_code::{BatchDecoder, BatchOutcome, DecodeOpts, Interleaver, RsCode, Symbol};

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

/// The physical memory: an interleaved array of simplex codewords.
///
/// The array keeps a worklist of its dirty modules, so a scrub visits
/// only the words a fault or a rewrite touched. Every change to a module
/// goes through a method that pushes the module when it turns from clean
/// to dirty, which keeps the worklist, taken as a set, equal to the set
/// of dirty modules, with no index listed twice.
struct Array {
    modules: Vec<MemoryModule>,
    /// The dirty modules, in the order they turned dirty.
    dirty: Vec<usize>,
    interleaver: Interleaver,
    n: usize,
    m_bits: u32,
}

impl Array {
    /// An array of `words` all-zero modules, each to be filled by
    /// [`MemoryModule::reset`].
    fn new(words: usize, n: usize, m_bits: u32, interleaver: Interleaver) -> Array {
        Array {
            modules: (0..words)
                .map(|_| MemoryModule::new(vec![0; n], m_bits))
                .collect(),
            dirty: (0..words).collect(),
            interleaver,
            n,
            m_bits,
        }
    }

    /// Lists every module, once each: after a reset of them all, every
    /// module is dirty.
    fn mark_all_dirty(&mut self) {
        self.dirty.clear();
        self.dirty.extend(0..self.modules.len());
    }

    /// Total physical symbols.
    fn symbols(&self) -> usize {
        self.modules.len() * self.n
    }

    /// Total physical bits.
    fn bits(&self) -> u64 {
        self.symbols() as u64 * self.m_bits as u64
    }

    /// Maps a physical symbol index to `(module, symbol)`.
    fn locate(&self, physical_symbol: usize) -> (usize, usize) {
        let depth = self.interleaver.depth();
        let group_len = self.n * depth;
        let group = physical_symbol / group_len;
        let within = physical_symbol % group_len;
        let (word_in_group, sym) = self.interleaver.locate(within);
        (group * depth + word_in_group, sym)
    }

    /// Applies `change` to module `module`, listing the module if the
    /// change turned it dirty.
    fn change(&mut self, module: usize, change: impl FnOnce(&mut MemoryModule)) {
        let target = &mut self.modules[module];
        let was_dirty = target.is_dirty();
        change(target);
        if !was_dirty && target.is_dirty() {
            self.dirty.push(module);
        }
    }

    /// Flips one physical bit. An upset on a stuck symbol changes
    /// nothing, so it leaves a clean module clean.
    fn flip_physical_bit(&mut self, physical_bit: u64) {
        let symbol = (physical_bit / self.m_bits as u64) as usize;
        let bit = (physical_bit % self.m_bits as u64) as u32;
        let (module, sym) = self.locate(symbol);
        self.change(module, |m| m.flip_bit(sym, bit));
    }

    /// One SEU event: flips a burst of `width` physically contiguous bits
    /// from a random start, clamped at the array end.
    fn upset<R: Rng + ?Sized>(&mut self, rng: &mut R, width: u32) {
        let start = rng.gen_range(0..self.bits());
        for b in start..(start + width as u64).min(self.bits()) {
            self.flip_physical_bit(b);
        }
    }

    /// Sticks one physical symbol at `value` (a permanent fault).
    fn stick(&mut self, physical_symbol: usize, value: Symbol) {
        let (module, sym) = self.locate(physical_symbol);
        self.change(module, |m| m.stick(sym, value));
    }

    /// Relists `module` if a scrub left it dirty.
    fn relist_if_dirty(&mut self, module: usize) {
        if self.modules[module].is_dirty() {
            self.dirty.push(module);
        }
    }
}

/// The batch decoder and the buffers of every batch an array campaign
/// decodes (its scrubs and final reads), reused from one batch to the
/// next, so a dirty word costs no allocation once the buffers are warm.
#[derive(Debug, Default)]
struct Batch {
    decoder: BatchDecoder,
    /// The words a scrub decodes (dirty words, or dirty word-pairs),
    /// ascending.
    dirty: Vec<usize>,
    /// The batch's words; the first `len` are in use.
    words: Vec<Vec<Symbol>>,
    /// The erasure list of each word in use.
    erasures: Vec<Vec<usize>>,
    len: usize,
    outcomes: Vec<BatchOutcome>,
    /// Arbiter step 1's buffers for the duplex batches.
    pair: MaskedPair,
}

impl Batch {
    /// Starts an empty batch.
    fn clear(&mut self) {
        self.len = 0;
    }

    /// Drains the worklists of `arrays` into `self.dirty`: the words
    /// with a dirty module in any array, ascending, each once. This is
    /// the order a scan of every word would visit them in. The scrub
    /// relists each module it leaves dirty.
    fn take_dirty(&mut self, arrays: &mut [Array]) {
        self.dirty.clear();
        for array in arrays {
            self.dirty.append(&mut array.dirty);
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
    }

    /// Appends one word and its erasure list.
    fn push(&mut self, word: &[Symbol], erasures: &[usize]) {
        if self.len == self.words.len() {
            self.words.push(Vec::new());
            self.erasures.push(Vec::new());
        }
        self.words[self.len].clear();
        self.words[self.len].extend_from_slice(word);
        self.erasures[self.len].clear();
        self.erasures[self.len].extend_from_slice(erasures);
        self.len += 1;
    }

    /// Appends the two masked words of a module pair (arbiter step 1),
    /// each with the pair's common erasures.
    fn push_masked(&mut self, code: &RsCode, m1: &MemoryModule, m2: &MemoryModule) {
        let mut pair = std::mem::take(&mut self.pair);
        mask(
            code,
            m1.read(),
            m1.erased(),
            m2.read(),
            m2.erased(),
            &mut pair,
        )
        .expect("well-formed stored words");
        self.push(&pair.w1, &pair.common);
        self.push(&pair.w2, &pair.common);
        self.pair = pair;
    }

    /// Decodes the batch's words in place into `self.outcomes`.
    fn decode(&mut self, code: &RsCode) {
        self.decoder
            .decode_batch(
                code,
                &mut self.words[..self.len],
                &self.erasures[..self.len],
                &DecodeOpts::default(),
                &mut self.outcomes,
            )
            .expect("well-formed stored words");
    }
}

/// Everything an array campaign reuses from one trial to the next: the
/// replica arrays (one for simplex, two for duplex), the stored
/// datawords, one codeword buffer and the batch. A trial rewrites them
/// in place, so after the first trial a campaign allocates only what
/// its faults cost.
struct Campaign {
    code: RsCode,
    config: ArrayConfig,
    arrays: Vec<Array>,
    /// The current trial's datawords, `k` symbols per word.
    originals: Vec<Symbol>,
    codeword: Vec<Symbol>,
    batch: Batch,
}

impl Campaign {
    fn new(code: RsCode, config: ArrayConfig, interleaver: Interleaver, replicas: usize) -> Self {
        let (n, k) = (code.n(), code.k());
        Campaign {
            arrays: (0..replicas)
                .map(|_| Array::new(config.words, n, config.base.m, interleaver))
                .collect(),
            originals: vec![0; config.words * k],
            codeword: vec![0; n],
            batch: Batch::default(),
            code,
            config,
        }
    }

    /// Starts a trial: draws one random dataword per word, encodes it
    /// once and stores the codeword fault-free in every replica.
    fn store(&mut self, rng: &mut StdRng) {
        let size = self.code.field().size();
        for (w, data) in self.originals.chunks_exact_mut(self.code.k()).enumerate() {
            for symbol in data.iter_mut() {
                *symbol = rng.gen_range(0..size) as Symbol;
            }
            self.code
                .encode_into(data, &mut self.codeword)
                .expect("valid");
            for array in &mut self.arrays {
                array.modules[w].reset(&self.codeword);
            }
        }
        for array in &mut self.arrays {
            array.mark_all_dirty();
        }
    }

    /// One store of a simplex array; returns its `(failed, silent)` words.
    fn simplex_trial(&mut self, rng: &mut StdRng) -> (usize, usize) {
        self.store(rng);
        let Campaign {
            code,
            config,
            arrays,
            originals,
            batch,
            ..
        } = self;
        let array = &mut arrays[0];

        let total_bits = array.bits() as f64;
        let total_symbols = array.symbols() as f64;
        let seu_rate = config.base.seu_per_bit_day * total_bits;
        let perm_rate = config.base.erasure_per_symbol_day * total_symbols;
        let horizon = config.base.store_days;

        let mut t_seu = sample_exponential(rng, seu_rate);
        let mut t_perm = sample_exponential(rng, perm_rate);
        let mut t_scrub = match config.base.scrub {
            None => f64::INFINITY,
            Some((period, _)) => period,
        };

        loop {
            let next = t_seu.min(t_perm).min(t_scrub);
            if next >= horizon {
                break;
            }
            if next == t_seu {
                array.upset(rng, config.mbu_width_bits);
                t_seu += sample_exponential(rng, seu_rate);
            } else if next == t_perm {
                let symbol = rng.gen_range(0..array.symbols());
                let value = rng.gen_range(0..code.field().size()) as Symbol;
                array.stick(symbol, value);
                t_perm += sample_exponential(rng, perm_rate);
            } else {
                scrub_simplex_array(code, array, batch);
                t_scrub = schedule_scrub(rng, t_scrub, config.base.scrub);
                // Every scrub leaves the whole array clean.
                t_scrub =
                    skip_idle_ticks(t_scrub, config.base.scrub, t_seu.min(t_perm).min(horizon));
            }
        }

        // Final read of every word, decoded in one batch.
        batch.clear();
        for module in &array.modules {
            batch.push(module.read(), module.erased());
        }
        batch.decode(code);
        let mut failed = 0usize;
        let mut silent = 0usize;
        let originals = originals.chunks_exact(code.k());
        for ((outcome, word), original) in batch.outcomes.iter().zip(&batch.words).zip(originals) {
            match outcome {
                BatchOutcome::Failure(_) => failed += 1,
                _ => {
                    if code.data_of(word).expect("word has length n") != original {
                        failed += 1;
                        silent += 1;
                    }
                }
            }
        }
        (failed, silent)
    }

    /// One store of a duplex array; returns its `(failed, silent)` words.
    fn duplex_trial(&mut self, rng: &mut StdRng) -> (usize, usize) {
        self.store(rng);
        let Campaign {
            code,
            config,
            arrays: replicas,
            originals,
            batch,
            ..
        } = self;

        let per_array_bits = replicas[0].bits() as f64;
        let per_array_symbols = replicas[0].symbols() as f64;
        let seu_rate = config.base.seu_per_bit_day * per_array_bits;
        let perm_rate = config.base.erasure_per_symbol_day * per_array_symbols;
        let horizon = config.base.store_days;

        let mut t_seu = [
            sample_exponential(rng, seu_rate),
            sample_exponential(rng, seu_rate),
        ];
        let mut t_perm = [
            sample_exponential(rng, perm_rate),
            sample_exponential(rng, perm_rate),
        ];
        let mut t_scrub = match config.base.scrub {
            None => f64::INFINITY,
            Some((period, _)) => period,
        };

        loop {
            let mut best = f64::INFINITY;
            for r in 0..2 {
                best = best.min(t_seu[r]).min(t_perm[r]);
            }
            best = best.min(t_scrub);
            if best >= horizon {
                break;
            }
            if best == t_scrub {
                let all_clean = scrub_duplex_arrays(code, replicas, batch);
                t_scrub = schedule_scrub(rng, t_scrub, config.base.scrub);
                if all_clean {
                    let until = t_seu.into_iter().chain(t_perm).fold(horizon, f64::min);
                    t_scrub = skip_idle_ticks(t_scrub, config.base.scrub, until);
                }
                continue;
            }
            for r in 0..2 {
                if best == t_seu[r] {
                    replicas[r].upset(rng, config.mbu_width_bits);
                    t_seu[r] += sample_exponential(rng, seu_rate);
                    break;
                }
                if best == t_perm[r] {
                    let symbol = rng.gen_range(0..replicas[r].symbols());
                    let value = rng.gen_range(0..code.field().size()) as Symbol;
                    replicas[r].stick(symbol, value);
                    t_perm[r] += sample_exponential(rng, perm_rate);
                    break;
                }
            }
        }

        // Final read: mask every word-pair (arbiter step 1), batch-decode
        // all 2·words masked words at once, then run the flag comparison
        // per pair — the same pipeline as the arbiter, restructured around
        // one `BatchDecoder` pass.
        batch.clear();
        for w in 0..config.words {
            batch.push_masked(code, &replicas[0].modules[w], &replicas[1].modules[w]);
        }
        batch.decode(code);
        let (words, outcomes) = (&batch.words, &batch.outcomes);
        let mut failed = 0usize;
        let mut silent = 0usize;
        for (w, original) in originals.chunks_exact(code.k()).enumerate() {
            let v1 = verdict_of(code, &words[2 * w], &outcomes[2 * w]);
            let v2 = verdict_of(code, &words[2 * w + 1], &outcomes[2 * w + 1]);
            match combine(v1, v2) {
                None => failed += 1,
                Some((data, _)) => {
                    if *data != *original {
                        failed += 1;
                        silent += 1;
                    }
                }
            }
        }
        (failed, silent)
    }
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
    run_campaign(
        config,
        trials,
        seed,
        ("simplex_array_campaign", 1),
        Campaign::simplex_trial,
    )
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
    run_campaign(
        config,
        trials,
        seed,
        ("duplex_array_campaign", 2),
        Campaign::duplex_trial,
    )
}

/// Runs `trials` of `trial` on one [`Campaign`] of `replicas` arrays,
/// under a `sim.mc` span called `name`, and sums the outcomes.
fn run_campaign(
    config: &ArrayConfig,
    trials: usize,
    seed: u64,
    (name, replicas): (&'static str, usize),
    trial: fn(&mut Campaign, &mut StdRng) -> (usize, usize),
) -> Result<ArrayReport, SimError> {
    config.validate()?;
    if trials == 0 {
        return Err(SimError::NoTrials);
    }
    let code = RsCode::new(config.base.n, config.base.k, config.base.m)?;
    let interleaver = Interleaver::new(config.interleave_depth)?;
    let mut span = rsmem_obs::span("sim.mc", name);
    span.record("trials", trials);
    span.record("words", config.words);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut campaign = Campaign::new(code, *config, interleaver, replicas);
    let mut failed_words = 0usize;
    let mut silent_words = 0usize;

    for _ in 0..trials {
        let (f, s) = trial(&mut campaign, &mut rng);
        failed_words += f;
        silent_words += s;
    }

    let total_words = trials * config.words;
    let word_failure_fraction = failed_words as f64 / total_words as f64;
    let prefactor =
        config.base.m as f64 * (config.base.n - config.base.k) as f64 / config.base.k as f64;
    Ok(ArrayReport {
        trials,
        words: config.words,
        failed_words,
        silent_words,
        word_failure_fraction,
        wilson_95: wilson_interval(failed_words, total_words),
        ber_estimate: prefactor * word_failure_fraction,
    })
}

/// Per-word-pair joint scrub across the two replica arrays (the same
/// masking + decode + rewrite the single-pair `DuplexSim` performs),
/// with the decodes of every pair that has a dirty module pushed
/// through one batch pass. Only the pairs on the two worklists are
/// visited. A scrubbed pair is left clean under `DuplexSim`'s rule:
/// when its writes changed nothing, or when both words decoded to the
/// same word. A pair left dirty is relisted. Returns whether every pair
/// is left clean.
fn scrub_duplex_arrays(code: &RsCode, replicas: &mut [Array], batch: &mut Batch) -> bool {
    batch.take_dirty(replicas);
    if batch.dirty.is_empty() {
        return true;
    }
    batch.clear();
    for j in 0..batch.dirty.len() {
        let w = batch.dirty[j];
        batch.push_masked(code, &replicas[0].modules[w], &replicas[1].modules[w]);
    }
    batch.decode(code);
    let mut all_clean = true;
    for (j, &w) in batch.dirty.iter().enumerate() {
        let (mut changed, mut decoded) = (false, true);
        for (r, replica) in replicas.iter_mut().enumerate() {
            // A decodable word (Clean after masking, or Corrected in
            // place) is rewritten; an undecodable one is left alone.
            if matches!(batch.outcomes[2 * j + r], BatchOutcome::Failure(_)) {
                decoded = false;
            } else {
                changed |= replica.modules[w].write(&batch.words[2 * j + r]);
            }
        }
        if !changed || (decoded && batch.words[2 * j] == batch.words[2 * j + 1]) {
            for replica in replicas.iter_mut() {
                replica.modules[w].mark_clean();
            }
        } else {
            all_clean = false;
            for replica in replicas.iter_mut() {
                replica.relist_if_dirty(w);
            }
        }
    }
    all_clean
}

/// Scrub of a simplex array: the words on its worklist go through one
/// batch decode, and only the words the decoder actually corrected are
/// rewritten. Every scrubbed word is left clean, as a fixed point, for
/// the reason `SimplexSim`'s scrub gives: the whole array ends the
/// scrub clean, with an empty worklist.
fn scrub_simplex_array(code: &RsCode, array: &mut Array, batch: &mut Batch) {
    batch.take_dirty(std::slice::from_mut(array));
    if batch.dirty.is_empty() {
        return;
    }
    batch.clear();
    for j in 0..batch.dirty.len() {
        let module = &array.modules[batch.dirty[j]];
        batch.push(module.read(), module.erased());
    }
    batch.decode(code);
    for ((&i, outcome), word) in batch.dirty.iter().zip(&batch.outcomes).zip(&batch.words) {
        let module = &mut array.modules[i];
        if let BatchOutcome::Corrected { .. } = outcome {
            module.write(word);
        }
        module.mark_clean();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScrubTiming;
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

    /// An array of GF(2^8) `codewords`, each word with up to two
    /// permanent faults and up to three upsets.
    fn faulty_array(rng: &mut StdRng, codewords: &[Vec<Symbol>]) -> Array {
        let n = codewords[0].len();
        let modules = codewords
            .iter()
            .map(|c| {
                let mut m = MemoryModule::new(c.clone(), 8);
                for _ in 0..rng.gen_range(0..=2) {
                    m.stick(rng.gen_range(0..n), rng.gen_range(0..=255));
                }
                for _ in 0..rng.gen_range(0..=3) {
                    m.flip_bit(rng.gen_range(0..n), rng.gen_range(0..8));
                }
                m
            })
            .collect();
        Array {
            dirty: (0..codewords.len()).collect(),
            modules,
            interleaver: Interleaver::new(1).unwrap(),
            n,
            m_bits: 8,
        }
    }

    /// The word `word` decodes to, or `None` if decoding fails.
    fn decoded(code: &RsCode, word: &[Symbol], erasures: &[usize]) -> Option<Vec<Symbol>> {
        let mut out = word.to_vec();
        match MemoryCode::decode_in_place(code, &mut out, erasures).unwrap() {
            BatchOutcome::Failure(_) => None,
            BatchOutcome::Clean | BatchOutcome::Corrected { .. } => Some(out),
        }
    }

    /// Word `w`'s modules across `arrays`: stored symbols and erasures.
    fn word_state(arrays: &[Array], w: usize) -> Vec<(Vec<Symbol>, Vec<usize>)> {
        arrays
            .iter()
            .map(|a| (a.modules[w].read().to_vec(), a.modules[w].erasures()))
            .collect()
    }

    /// Scrubs `arrays`, forces every module dirty and scrubs again: no
    /// word in `converged` may move on the repeat. Returns how many of
    /// them the first scrub changed.
    fn check_converged(
        arrays: &mut [Array],
        converged: &[bool],
        mut scrub: impl FnMut(&mut [Array]),
    ) -> usize {
        let words = converged.len();
        let before: Vec<_> = (0..words).map(|w| word_state(arrays, w)).collect();
        scrub(arrays);
        let settled: Vec<_> = (0..words).map(|w| word_state(arrays, w)).collect();
        for array in arrays.iter_mut() {
            array.modules.iter_mut().for_each(MemoryModule::force_dirty);
            array.mark_all_dirty();
        }
        scrub(arrays);
        let mut changed = 0;
        for w in (0..words).filter(|&w| converged[w]) {
            assert_eq!(
                word_state(arrays, w),
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
        // RS(20,16) also corrects an error next to an erasure.
        for n in [18, 20] {
            let code = RsCode::new(n, 16, 8).unwrap();
            let (mut duplex_changed, mut simplex_changed) = (0, 0);
            for _ in 0..cases {
                let codewords: Vec<Vec<Symbol>> = (0..16)
                    .map(|_| {
                        let data: Vec<Symbol> = (0..16).map(|_| rng.gen_range(0..=255)).collect();
                        code.encode(&data).unwrap()
                    })
                    .collect();
                let mut replicas = [0, 1].map(|_| faulty_array(&mut rng, &codewords));
                let mut simplex = [faulty_array(&mut rng, &codewords)];

                // Word-pairs whose masked words both decode to the same word.
                let mut pair = MaskedPair::default();
                let converged: Vec<bool> = (0..16)
                    .map(|w| {
                        let [m1, m2] = [0, 1].map(|r| &replicas[r].modules[w]);
                        mask(
                            &code,
                            m1.read(),
                            m1.erased(),
                            m2.read(),
                            m2.erased(),
                            &mut pair,
                        )
                        .unwrap();
                        let [d1, d2] =
                            [&pair.w1, &pair.w2].map(|w| decoded(&code, w, &pair.common));
                        d1.is_some() && d1 == d2
                    })
                    .collect();
                duplex_changed += check_converged(&mut replicas, &converged, |r| {
                    scrub_duplex_arrays(&code, r, &mut batch);
                });

                // Simplex words that decode.
                let converged: Vec<bool> = simplex[0]
                    .modules
                    .iter()
                    .map(|m| decoded(&code, m.read(), m.erased()).is_some())
                    .collect();
                simplex_changed += check_converged(&mut simplex, &converged, |a| {
                    scrub_simplex_array(&code, &mut a[0], &mut batch);
                });
            }
            assert!(
                duplex_changed > 100 && simplex_changed > 100,
                "RS({n},16): converged and changed: {duplex_changed} duplex, {simplex_changed} simplex"
            );
        }
    }

    /// Asserts that each array's worklist lists exactly its dirty
    /// modules, each once.
    fn assert_worklists_match(arrays: &[Array], step: &str) {
        for (r, array) in arrays.iter().enumerate() {
            let mut listed = array.dirty.clone();
            listed.sort_unstable();
            let dirty: Vec<usize> = (0..array.modules.len())
                .filter(|&i| array.modules[i].is_dirty())
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
                    let mut arrays: Vec<Array> = (0..replicas)
                        .map(|_| Array::new(16, n, 8, interleaver))
                        .collect();
                    for w in 0..16 {
                        let data: Vec<Symbol> = (0..16).map(|_| rng.gen_range(0..=255)).collect();
                        let codeword = code.encode(&data).unwrap();
                        arrays
                            .iter_mut()
                            .for_each(|a| a.modules[w].reset(&codeword));
                    }
                    arrays.iter_mut().for_each(Array::mark_all_dirty);
                    assert_worklists_match(&arrays, "store");
                    // Stuck physical symbols, by replica.
                    let mut stuck: Vec<(usize, usize)> = Vec::new();
                    for _ in 0..200 {
                        let r = rng.gen_range(0..replicas);
                        let step = match rng.gen_range(0..5) {
                            0 => {
                                let bits = arrays[r].bits();
                                let start = rng.gen_range(0..bits);
                                for b in (start..start + rng.gen_range(1..=4)).filter(|&b| b < bits)
                                {
                                    arrays[r].flip_physical_bit(b);
                                }
                                "burst"
                            }
                            1 => {
                                let symbol = rng.gen_range(0..arrays[r].symbols());
                                arrays[r].stick(symbol, rng.gen_range(0..=255));
                                stuck.push((r, symbol));
                                "stick"
                            }
                            2 if !stuck.is_empty() => {
                                let (r, symbol) = stuck[rng.gen_range(0..stuck.len())];
                                arrays[r].stick(symbol, rng.gen_range(0..=255));
                                "re-stick"
                            }
                            3 if !stuck.is_empty() => {
                                let (r, symbol) = stuck[rng.gen_range(0..stuck.len())];
                                let (module, _) = arrays[r].locate(symbol);
                                let before = arrays[r].modules[module].clone();
                                arrays[r]
                                    .flip_physical_bit(symbol as u64 * 8 + rng.gen_range(0..8));
                                assert_eq!(arrays[r].modules[module], before, "stuck flip moved");
                                "flip on a stuck symbol"
                            }
                            _ if replicas == 2 => {
                                left_dirty += usize::from(!scrub_duplex_arrays(
                                    &code,
                                    &mut arrays,
                                    &mut batch,
                                ));
                                "duplex scrub"
                            }
                            _ => {
                                scrub_simplex_array(&code, &mut arrays[0], &mut batch);
                                assert!(arrays[0].dirty.is_empty());
                                "simplex scrub"
                            }
                        };
                        assert_worklists_match(&arrays, step);
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
        // must agree with runner::run_simplex within CI noise.
        let seu = 5e-3;
        let array = run_simplex_array(&config(seu, 1, 1), 120, 9).unwrap();
        let single = crate::runner::run_simplex(&base(seu), 1920, 9).unwrap();
        let diff = (array.word_failure_fraction - single.failure_fraction).abs();
        assert!(
            diff < 0.02,
            "array {} vs single-word {}",
            array.word_failure_fraction,
            single.failure_fraction
        );
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
