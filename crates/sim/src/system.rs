//! The Monte-Carlo engine that both the word campaigns
//! ([`crate::runner`]) and the array campaigns ([`crate::array`]) run
//! on: one flat [`Store`] per replica, one fault-and-scrub event loop
//! for one or two replicas, the simplex and the duplex scrub, and one
//! read-back classifier for both.
//!
//! A word trial is a one-word store per replica. The two kinds of
//! campaign differ only in their [`Layout`], which fixes how an upset
//! draws the bits it flips, and in how finely they shard: both run on
//! [`crate::runner`]'s sharded driver, one engine per worker, and a
//! shard classifies the read-backs of all its trials in one batch. A
//! word shard is 256 trials, an array shard one trial.
//!
//! The memory is flat: a store keeps all its words' symbols in one
//! `words × n` buffer (see [`Store`]), a [`Batch`] keeps the words it
//! decodes back to back in one buffer, and arbiter step 1 masks a word
//! pair straight into its two batch slots. So an engine is a handful of
//! buffers whatever the number of words, and its trials reuse them.

use crate::arbiter::{combine, mask, verdict_of, MaskScratch, WordVerdict};
use crate::config::SimConfig;
use crate::events::{sample_exponential, schedule_scrub, skip_idle_ticks};
use crate::memory::Store;
use crate::runner::{OutcomeCounts, TrialOutcome};
use rand::Rng;
use rsmem_code::{BatchOutcome, Interleaver, Symbol};
use rsmem_codes::MemoryCode;
use rsmem_obs::recorder;

/// Batches shorter than this decode word by word through
/// [`MemoryCode::decode_in_place`]; longer ones go through one
/// [`MemoryCode::decode_batch`]. On RS(18,16) with 80 % clean words, the
/// mix the scrubs see, and the flat batch layout, the batch plane took
/// about 2.1–2.2 times the scalar time per word at 1 word, 1.5 times at
/// 2, 1.0–1.1 times at 4, 0.9–1.0 times at 5, 0.87–0.93 times at 6 and
/// 0.82–0.99 times from 7 words up. Word scrubs decode 1 or 2 words,
/// array scrubs a few pairs, read-backs hundreds.
const BATCH_CROSSOVER: usize = 6;

/// Queued read-backs past which an engine decodes them: a duplex word
/// shard's 2 × 256 decode in one batch, and an array trial's read-back
/// decodes in chunks of this many words. So an engine's batch holds at
/// most this many read-backs, whatever the number of words.
const READ_CHUNK: usize = 2 * crate::runner::SHARD_TRIALS;

/// A batch of words to decode, in buffers reused from one batch to the
/// next, so a word costs no allocation once they are warm.
///
/// The words lie back to back in one buffer, `n` symbols each, and each
/// has its own erasure list. A scrub decodes in the slots above the
/// first `len`, which may hold queued read-backs, and leaves `len` as it
/// found it.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The words a scrub decodes (dirty words, or dirty word-pairs),
    /// ascending.
    dirty: Vec<usize>,
    /// The batch's words, `len × n` symbols.
    words: Vec<Symbol>,
    /// The erasure list of each word; the first `len` are in use, and
    /// the lists past them keep their buffers for later words.
    erasures: Vec<Vec<usize>>,
    len: usize,
    /// The outcomes of the last decode, from its first word on.
    outcomes: Vec<BatchOutcome>,
    /// Arbiter step 1's scratch for the duplex batches.
    scratch: MaskScratch,
}

impl Batch {
    /// Drains the worklists of `stores` into `self.dirty`: the words
    /// with a dirty module in any store, ascending, each once. This is
    /// the order a scan of every word would visit them in. The scrub
    /// relists each module it leaves dirty.
    fn take_dirty(&mut self, stores: &mut [Store]) {
        self.dirty.clear();
        for store in stores {
            self.dirty.append(&mut store.dirty);
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
    }

    /// Appends one erasure list, for a word already in `words`.
    fn push_erasures(&mut self, erasures: &[usize]) {
        if self.len == self.erasures.len() {
            self.erasures.push(Vec::new());
        }
        let list = &mut self.erasures[self.len];
        list.clear();
        list.extend_from_slice(erasures);
        self.len += 1;
    }

    /// Appends word `w` of `store` and its erasure list.
    fn push(&mut self, store: &Store, w: usize) {
        self.words.extend_from_slice(store.word(w));
        self.push_erasures(store.erased(w));
    }

    /// Appends the two masked words of word pair `w` (arbiter step 1),
    /// masked straight into their slots, each with the pair's common
    /// erasures.
    fn push_masked(&mut self, code: &dyn MemoryCode, s1: &Store, s2: &Store, w: usize) {
        let at = self.words.len();
        self.words.resize(at + 2 * code.n(), 0);
        mask(
            code,
            (s1.word(w), s1.erased(w)),
            (s2.word(w), s2.erased(w)),
            &mut self.words[at..],
            &mut self.scratch,
        )
        .expect("well-formed stored words");
        let common = std::mem::take(&mut self.scratch.common);
        self.push_erasures(&common);
        self.push_erasures(&common);
        self.scratch.common = common;
    }

    /// Drops every word from the `len`-th on.
    fn truncate(&mut self, len: usize, n: usize) {
        self.words.truncate(len * n);
        self.len = len;
    }

    /// Decodes the words from `from` on in place into `self.outcomes`,
    /// word by word below [`BATCH_CROSSOVER`] words and in one batch from
    /// there on.
    fn decode(&mut self, code: &dyn MemoryCode, from: usize) {
        let n = code.n();
        let words = &mut self.words[from * n..];
        let erasures = &self.erasures[from..self.len];
        if erasures.len() < BATCH_CROSSOVER {
            self.outcomes.clear();
            for (word, erasures) in words.chunks_exact_mut(n).zip(erasures) {
                let outcome = code
                    .decode_in_place(word, erasures)
                    .expect("well-formed stored word");
                self.outcomes.push(outcome);
            }
        } else {
            code.decode_batch(words, erasures, &mut self.outcomes)
                .expect("well-formed stored words");
        }
    }
}

/// Scrub of a simplex store: the words on its worklist are decoded, and
/// only the words the decoder corrected are rewritten. An undecodable
/// word is left as it is, and a clean store is not decoded at all.
///
/// Every scrubbed word is left clean, as a fixed point, so the whole
/// store ends the scrub clean. An undecodable or clean word is not
/// written. A word corrected to `c` is written, so the module then holds
/// `c` except at its stuck symbols, which are exactly its erasures.
/// Their number is the one this decode accepted, so the next decode is
/// an erasures-only decode within the code's capability: it returns `c`,
/// and rewriting `c` changes nothing.
pub(crate) fn scrub_simplex(code: &dyn MemoryCode, store: &mut Store, batch: &mut Batch) {
    batch.take_dirty(std::slice::from_mut(store));
    if batch.dirty.is_empty() {
        return;
    }
    let (base, n) = (batch.len, code.n());
    for j in 0..batch.dirty.len() {
        batch.push(store, batch.dirty[j]);
    }
    batch.decode(code, base);
    let words = batch.words[base * n..].chunks_exact(n);
    for ((&w, outcome), word) in batch.dirty.iter().zip(&batch.outcomes).zip(words) {
        if let BatchOutcome::Corrected { .. } = outcome {
            store.write(w, word);
        }
        store.mark_clean(w);
    }
    batch.truncate(base, n);
}

/// Joint scrub of two replica stores, word-pair by word-pair: erasure-
/// mask each word from its sibling, decode both, rewrite every module
/// whose word decoded. Undecodable words are left in place. Only the
/// pairs on the two worklists are visited. Returns whether every pair is
/// left clean.
///
/// A pair is left clean when it is a fixed point: when the writes
/// changed nothing, or when both words decoded to the same word `c`. In
/// the second case each module then holds `c` except at its own stuck
/// symbols, so masking fills every one-sided erasure with `c`, and both
/// masked words equal `c` off the common erasures that this decode
/// accepted. A repeat decodes both to `c` and writes nothing new. If one
/// word failed or the two decoded words differ, the pair stays dirty and
/// is relisted.
pub(crate) fn scrub_duplex(
    code: &dyn MemoryCode,
    replicas: &mut [Store],
    batch: &mut Batch,
) -> bool {
    batch.take_dirty(replicas);
    if batch.dirty.is_empty() {
        return true;
    }
    let (base, n) = (batch.len, code.n());
    for j in 0..batch.dirty.len() {
        batch.push_masked(code, &replicas[0], &replicas[1], batch.dirty[j]);
    }
    batch.decode(code, base);
    let pairs = batch.words[base * n..].chunks_exact(2 * n);
    let mut all_clean = true;
    for ((&w, outcomes), pair) in batch
        .dirty
        .iter()
        .zip(batch.outcomes.chunks_exact(2))
        .zip(pairs)
    {
        let (mut changed, mut decoded) = (false, true);
        for ((replica, outcome), word) in replicas.iter_mut().zip(outcomes).zip(pair.chunks(n)) {
            // A decodable word (Clean after masking, or Corrected in
            // place) is rewritten; an undecodable one is left alone.
            if matches!(outcome, BatchOutcome::Failure(_)) {
                decoded = false;
            } else {
                changed |= replica.write(w, word);
            }
        }
        if !changed || (decoded && pair[..n] == pair[n..]) {
            for replica in replicas.iter_mut() {
                replica.mark_clean(w);
            }
        } else {
            all_clean = false;
            for replica in replicas.iter_mut() {
                replica.relist_if_dirty(w);
            }
        }
    }
    batch.truncate(base, n);
    all_clean
}

/// The shape of a campaign's memory, and with it how an upset draws the
/// bits it flips.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout {
    /// One word per replica. An upset draws a symbol, then one of its
    /// bits.
    Word,
    /// `words` words per replica behind `interleaver`. An upset draws one
    /// physical bit and flips the burst of `mbu_width_bits` physically
    /// contiguous bits from it, clamped at the end of the store.
    Array {
        words: usize,
        mbu_width_bits: u32,
        interleaver: Interleaver,
    },
}

/// One simplex (one replica) or duplex (two replicas) memory and
/// everything its trials reuse: the stores, the datawords, and the batch
/// that holds the queued read-backs and the scrubs' words. A trial
/// rewrites them in place, so after the first trial a campaign allocates
/// only what its faults cost, and building one costs a handful of
/// buffers whatever the number of words.
pub(crate) struct Engine<'c> {
    code: &'c dyn MemoryCode,
    config: SimConfig,
    layout: Layout,
    /// SEUs per day in one replica.
    seu_rate: f64,
    /// Permanent faults per day in one replica.
    perm_rate: f64,
    replicas: Vec<Store>,
    /// The datawords of the queued read-backs, `k` symbols per word
    /// (simplex) or pair (duplex).
    originals: Vec<Symbol>,
    /// The queued read-backs, one word (simplex) or two masked words
    /// (duplex) per entry of `originals`.
    batch: Batch,
}

impl<'c> Engine<'c> {
    /// An engine of `replicas` (1 or 2) stores laid out as `layout`,
    /// protected by `code`, under `config`'s rates, scrubbing and
    /// horizon.
    pub(crate) fn new(
        code: &'c dyn MemoryCode,
        config: &SimConfig,
        replicas: usize,
        layout: Layout,
    ) -> Engine<'c> {
        assert!(matches!(replicas, 1 | 2), "1 or 2 replicas");
        let (n, k, m) = (code.n(), code.k(), code.symbol_bits());
        let (words, interleaver) = match layout {
            Layout::Word => (1, Interleaver::new(1).expect("depth 1 is valid")),
            Layout::Array {
                words, interleaver, ..
            } => (words, interleaver),
        };
        let replicas: Vec<Store> = (0..replicas)
            .map(|_| Store::new(words, n, m, interleaver))
            .collect();
        let seu_rate = match layout {
            // The word campaigns' own product: `m·n` taken in two
            // roundings, which for a width m that is not a power of two
            // can differ from `bits` in the last place.
            Layout::Word => config.seu_per_bit_day * m as f64 * n as f64,
            Layout::Array { .. } => config.seu_per_bit_day * replicas[0].bits() as f64,
        };
        Engine {
            code,
            config: *config,
            layout,
            seu_rate,
            perm_rate: config.erasure_per_symbol_day * replicas[0].symbols() as f64,
            replicas,
            originals: Vec::with_capacity(words * k),
            batch: Batch {
                words: Vec::with_capacity(READ_CHUNK * n),
                erasures: vec![Vec::new(); READ_CHUNK],
                outcomes: Vec::with_capacity(READ_CHUNK),
                ..Batch::default()
            },
        }
    }

    /// Plays one trial and queues its read-back: draws one random
    /// dataword per word, stores its codeword fault-free in every
    /// replica, runs the faults and scrubs up to the horizon, then reads
    /// every word (simplex) or masks every pair (duplex, arbiter step 1).
    /// Returns the counts of the read-backs it decoded on the way, each
    /// time [`READ_CHUNK`] were queued.
    fn play<R: Rng + ?Sized>(&mut self, rng: &mut R) -> OutcomeCounts {
        self.store(rng);
        self.run(rng);
        let mut counts = OutcomeCounts::default();
        for w in 0..self.replicas[0].words() {
            match self.replicas.as_slice() {
                [store] => self.batch.push(store, w),
                [s1, s2] => self.batch.push_masked(self.code, s1, s2, w),
                _ => unreachable!("1 or 2 replicas"),
            }
            if self.batch.len == READ_CHUNK {
                counts = counts.merge(self.classify());
            }
        }
        counts
    }

    /// Appends the trial's datawords to `originals` and stores them: each
    /// codeword is encoded straight into the first replica's store, which
    /// the second then copies.
    ///
    /// The stores are left clean, with empty worklists: a stored codeword
    /// is a scrub fixed point in every family (it decodes `Clean` and is
    /// written back unchanged), so until a fault lists its word, every
    /// scrub would leave the trial as it is.
    fn store<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // `1 << m` is the symbol-value count of every family (GF(2^m)
        // size for RS, binary for RM).
        let values = 1usize << self.code.symbol_bits();
        let (n, k) = (self.code.n(), self.code.k());
        let start = self.originals.len();
        let (first, rest) = self.replicas.split_first_mut().expect("1 or 2 replicas");
        self.originals.resize(start + first.words() * k, 0);
        let codewords = first.reset().chunks_exact_mut(n);
        for (data, codeword) in self.originals[start..].chunks_exact_mut(k).zip(codewords) {
            for symbol in data.iter_mut() {
                *symbol = rng.gen_range(0..values) as Symbol;
            }
            self.code
                .encode_into(data, codeword)
                .expect("valid dataword");
        }
        for store in rest {
            store.reset().copy_from_slice(first.stored());
        }
    }

    /// The event loop. The fault clocks are drawn replica by replica,
    /// SEUs first, then the first scrub. The earliest event runs next;
    /// on a tie an SEU goes before a permanent fault, which goes before
    /// a scrub, and a lower replica before a higher one.
    fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let replicas = self.replicas.len();
        let (scrub, horizon) = (self.config.scrub, self.config.store_days);
        let mut next_seu = [f64::INFINITY; 2];
        let mut next_perm = [f64::INFINITY; 2];
        for t in &mut next_seu[..replicas] {
            *t = sample_exponential(rng, self.seu_rate);
        }
        for t in &mut next_perm[..replicas] {
            *t = sample_exponential(rng, self.perm_rate);
        }
        let mut next_scrub = schedule_scrub(rng, 0.0, scrub);
        loop {
            // The earliest fault before the horizon: its replica, and
            // whether it is permanent.
            let mut time = horizon;
            let mut fault = None;
            for (r, &t) in next_seu[..replicas].iter().enumerate() {
                if t < time {
                    (time, fault) = (t, Some((r, false)));
                }
            }
            for (r, &t) in next_perm[..replicas].iter().enumerate() {
                if t < time {
                    (time, fault) = (t, Some((r, true)));
                }
            }
            if next_scrub < time {
                let all_clean = match self.replicas.as_mut_slice() {
                    [store] => {
                        scrub_simplex(self.code, store, &mut self.batch);
                        true
                    }
                    stores => scrub_duplex(self.code, stores, &mut self.batch),
                };
                next_scrub = schedule_scrub(rng, next_scrub, scrub);
                if all_clean {
                    let until = next_seu
                        .iter()
                        .chain(&next_perm)
                        .fold(horizon, |t, &f| t.min(f));
                    next_scrub = skip_idle_ticks(next_scrub, scrub, until);
                }
                continue;
            }
            match fault {
                None => break,
                Some((r, false)) => {
                    self.upset(rng, r);
                    next_seu[r] = time + sample_exponential(rng, self.seu_rate);
                }
                Some((r, true)) => {
                    let store = &mut self.replicas[r];
                    let symbol = rng.gen_range(0..store.symbols());
                    let value = rng.gen_range(0..1usize << self.code.symbol_bits()) as Symbol;
                    store.stick(symbol, value);
                    next_perm[r] = time + sample_exponential(rng, self.perm_rate);
                }
            }
        }
    }

    /// One SEU in replica `r`, drawn as the layout says.
    fn upset<R: Rng + ?Sized>(&mut self, rng: &mut R, r: usize) {
        let store = &mut self.replicas[r];
        match self.layout {
            Layout::Word => {
                let symbol = rng.gen_range(0..store.symbols());
                let bit = rng.gen_range(0..self.code.symbol_bits());
                store.flip_bit(symbol, bit);
            }
            Layout::Array { mbu_width_bits, .. } => {
                let bits = store.bits();
                let start = rng.gen_range(0..bits);
                for b in start..(start + u64::from(mbu_width_bits)).min(bits) {
                    store.flip_physical_bit(b);
                }
            }
        }
    }

    /// Plays `trials` trials and classifies every read-back.
    pub(crate) fn play_shard(&mut self, rng: &mut impl Rng, trials: usize) -> OutcomeCounts {
        let counts = (0..trials).fold(OutcomeCounts::default(), |counts, _| {
            counts.merge(self.play(rng))
        });
        counts.merge(self.classify())
    }

    /// Decodes the queued read-backs in one batch, classifies them
    /// against the oldest datawords, and drops both.
    fn classify(&mut self) -> OutcomeCounts {
        // The decode repairs words in place, so keep the stored words
        // only while the flight recorder wants exemplars.
        let stored = recorder::enabled().then(|| self.batch.words.clone());
        self.batch.decode(self.code, 0);
        let counts = classify_reads(
            self.code,
            self.replicas.len(),
            &self.batch,
            &self.originals,
            stored.as_deref(),
        );
        let reads = self.batch.len / self.replicas.len();
        self.originals.drain(..reads * self.code.k());
        self.batch.truncate(0, self.code.n());
        counts
    }
}

/// Classifies each decoded read-back, one word (simplex) or one masked
/// pair (duplex, run through the arbiter's flag comparison) per
/// dataword in `originals`, against its dataword, and records a silent
/// corruption's `stored` words as an exemplar.
fn classify_reads(
    code: &dyn MemoryCode,
    replicas: usize,
    batch: &Batch,
    originals: &[Symbol],
    stored: Option<&[Symbol]>,
) -> OutcomeCounts {
    let n = code.n();
    let mut counts = OutcomeCounts::default();
    let reads = batch
        .words
        .chunks_exact(replicas * n)
        .zip(batch.outcomes.chunks_exact(replicas))
        .zip(originals.chunks_exact(code.k()));
    for (i, ((words, outcomes), original)) in reads.enumerate() {
        let mut verdicts = words
            .chunks_exact(n)
            .zip(outcomes)
            .map(|(word, outcome)| verdict_of(code, word, outcome));
        let data = match (verdicts.next(), verdicts.next()) {
            (Some(WordVerdict::Decoded { data, .. }), None) => Some(data),
            (Some(v1), Some(v2)) => combine(v1, v2).map(|(data, _)| data),
            _ => None,
        };
        let class = match data {
            None => TrialOutcome::Detected,
            Some(data) if *data == *original => TrialOutcome::Correct,
            Some(_) => TrialOutcome::SilentCorruption,
        };
        if let (TrialOutcome::SilentCorruption, Some(stored)) = (class, stored) {
            // The stored word, or both masked module words, module 2
            // after module 1, plus each decode verdict: everything the
            // read saw when it let this through.
            let verdicts = match outcomes {
                [outcome] => vec![format!("simplex: {outcome:?}")],
                _ => (1..)
                    .zip(outcomes)
                    .map(|(m, outcome)| format!("module{m}: {outcome:?}"))
                    .collect(),
            };
            record_silent_exemplar(
                code,
                &stored[i * replicas * n..(i + 1) * replicas * n],
                &batch.erasures[i * replicas],
                verdicts,
            );
        }
        counts.record(class);
    }
    counts
}

/// Freezes one MC silent-corruption exemplar: the *stored* (pre-decode)
/// word is the exact pattern that slipped through, which the in-place
/// decode would otherwise destroy.
fn record_silent_exemplar(
    code: &dyn MemoryCode,
    stored: &[Symbol],
    erasures: &[usize],
    verdicts: Vec<String>,
) {
    recorder::record_exemplar_with("mc-silent-corruption", || recorder::Exemplar {
        code: format!(
            "{}:{},{},{}",
            code.params().family().name(),
            code.n(),
            code.k(),
            code.symbol_bits()
        ),
        word: stored.iter().map(|&s| u32::from(s)).collect(),
        erasures: erasures.iter().map(|&p| p as u32).collect(),
        verdicts,
        detail: "read returned wrong data with no indication".to_owned(),
        ..recorder::Exemplar::default()
    });
}

/// The scalar oracle of the batched read-back: plays one trial of a word
/// engine and decodes its read-back with one `decode_in_place` per word
/// (simplex) or one [`crate::arbiter::arbitrate`] (duplex).
#[cfg(test)]
pub(crate) fn run_trial<R: Rng + ?Sized>(engine: &mut Engine, rng: &mut R) -> TrialOutcome {
    engine.store(rng);
    engine.run(rng);
    let original = std::mem::take(&mut engine.originals);
    let code = engine.code;
    let data = match engine.replicas.as_slice() {
        [store] => {
            let mut word = store.word(0).to_vec();
            match code.decode_in_place(&mut word, store.erased(0)).unwrap() {
                BatchOutcome::Failure(_) => None,
                _ => Some(code.data_of(&word).unwrap().into_owned()),
            }
        }
        [s1, s2] => {
            crate::arbiter::arbitrate(code, s1.word(0), s1.erased(0), s2.word(0), s2.erased(0))
                .unwrap()
                .data()
                .map(<[Symbol]>::to_vec)
        }
        _ => unreachable!("1 or 2 replicas"),
    };
    match data {
        None => TrialOutcome::Detected,
        Some(data) if data == original => TrialOutcome::Correct,
        Some(_) => TrialOutcome::SilentCorruption,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ScrubTiming;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsmem_code::DecodeOutcome;
    use rsmem_codes::build;
    use rsmem_models::CodeFamily;

    fn code_of(config: &SimConfig) -> Box<dyn MemoryCode> {
        build(config.code_params().unwrap()).unwrap()
    }

    #[test]
    fn fault_free_trials_always_succeed() {
        let config = SimConfig::rs18_16_baseline();
        let code = code_of(&config);
        let mut simplex = Engine::new(code.as_ref(), &config, 1, Layout::Word);
        let mut duplex = Engine::new(code.as_ref(), &config, 2, Layout::Word);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(run_trial(&mut simplex, &mut rng), TrialOutcome::Correct);
            assert_eq!(run_trial(&mut duplex, &mut rng), TrialOutcome::Correct);
        }
    }

    #[test]
    fn overwhelming_seu_rate_always_fails_simplex() {
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 50.0; // ~14k flips over 2 days
        let code = code_of(&config);
        let mut simplex = Engine::new(code.as_ref(), &config, 1, Layout::Word);
        let mut rng = StdRng::seed_from_u64(2);
        let fails = (0..30)
            .filter(|_| run_trial(&mut simplex, &mut rng) != TrialOutcome::Correct)
            .count();
        assert!(fails >= 29, "only {fails}/30 trials failed");
    }

    #[test]
    fn single_permanent_fault_is_always_recovered_by_duplex() {
        // λe high enough for ~one fault per trial but two same-position
        // faults vanishingly unlikely to matter across 30 trials.
        let mut config = SimConfig::rs18_16_baseline();
        config.erasure_per_symbol_day = 0.01; // ~0.36 faults/module over 2 days
        let code = code_of(&config);
        let mut duplex = Engine::new(code.as_ref(), &config, 2, Layout::Word);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            assert_eq!(run_trial(&mut duplex, &mut rng), TrialOutcome::Correct);
        }
    }

    #[test]
    fn scrubbing_rescues_high_seu_simplex() {
        let mut config = SimConfig::rs18_16_baseline();
        // ~1.4 flips expected in 2 days (would often kill the t=1 code
        // without repair)...
        config.seu_per_bit_day = 5e-3;
        let code = code_of(&config);
        let mut no_scrub = Engine::new(code.as_ref(), &config, 1, Layout::Word);
        // ...but with 200 scrubs/day accumulation is nearly impossible.
        config.scrub = Some((0.005, ScrubTiming::Periodic));
        let mut scrubbed = Engine::new(code.as_ref(), &config, 1, Layout::Word);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 120;
        let fail_no: usize = (0..trials)
            .filter(|_| run_trial(&mut no_scrub, &mut rng) != TrialOutcome::Correct)
            .count();
        let fail_scrub: usize = (0..trials)
            .filter(|_| run_trial(&mut scrubbed, &mut rng) != TrialOutcome::Correct)
            .count();
        assert!(
            fail_scrub < fail_no,
            "scrubbing should help: {fail_scrub} vs {fail_no}"
        );
    }

    fn random_data(rng: &mut StdRng, k: usize, symbol_values: usize) -> Vec<Symbol> {
        (0..k)
            .map(|_| rng.gen_range(0..symbol_values) as Symbol)
            .collect()
    }

    /// A store of `codewords` (`n` symbols each, back to back) under
    /// `config`'s code, each word with up to two permanent faults and up
    /// to three upsets. Without interleaving, word `w`'s symbol `p` is
    /// physical symbol `w·n + p`.
    fn faulty_store(rng: &mut StdRng, config: &SimConfig, codewords: &[Symbol]) -> Store {
        let (n, m) = (config.n, config.m);
        let mut store = Store::new(codewords.len() / n, n, m, Interleaver::new(1).unwrap());
        store.reset().copy_from_slice(codewords);
        for w in 0..store.words() {
            for _ in 0..rng.gen_range(0..=2) {
                store.stick(
                    w * n + rng.gen_range(0..n),
                    rng.gen_range(0..1 << m) as Symbol,
                );
            }
            for _ in 0..rng.gen_range(0..=3) {
                store.flip_bit(w * n + rng.gen_range(0..n), rng.gen_range(0..m));
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

    /// Word `w` of each store: its symbols and erasures.
    fn content(stores: &[Store], w: usize) -> Vec<(Vec<Symbol>, Vec<usize>)> {
        stores
            .iter()
            .map(|s| (s.word(w).to_vec(), s.erased(w).to_vec()))
            .collect()
    }

    /// Scrubs one-word `stores` once and checks the elision rule: a
    /// scrub that leaves every module clean leaves a state that a forced
    /// repeat does not move; a scrub that leaves a module dirty really
    /// changed the state. Returns whether the flags were cleared.
    fn check_fixed_point(stores: &mut [Store], mut scrub: impl FnMut(&mut [Store])) -> bool {
        let before = content(stores, 0);
        scrub(stores);
        if stores.iter().any(|s| s.is_dirty(0)) {
            assert_ne!(content(stores, 0), before, "an idle scrub kept a flag set");
            return false;
        }
        let settled = content(stores, 0);
        stores.iter_mut().for_each(Store::mark_all_dirty);
        scrub(stores);
        assert_eq!(
            content(stores, 0),
            settled,
            "a repeated scrub moved a fixed point"
        );
        assert!(
            stores.iter().all(|s| !s.is_dirty(0)),
            "a fixed point was flagged"
        );
        true
    }

    /// What the duplex scrub's two decodes of word `w` see: both masked
    /// words, back to back, and their common erasures.
    fn masked(code: &dyn MemoryCode, stores: &[Store], w: usize) -> (Vec<Symbol>, Vec<usize>) {
        let (s1, s2) = (&stores[0], &stores[1]);
        let mut words = vec![0; 2 * code.n()];
        let mut scratch = MaskScratch::default();
        mask(
            code,
            (s1.word(w), s1.erased(w)),
            (s2.word(w), s2.erased(w)),
            &mut words,
            &mut scratch,
        )
        .unwrap();
        (words, scratch.common)
    }

    #[test]
    fn a_scrub_that_clears_the_flags_is_a_fixed_point() {
        let config = SimConfig::rs18_16_baseline();
        let code = code_of(&config);
        let code = code.as_ref();
        let mut rng = StdRng::seed_from_u64(0xF1ED);
        let mut batch = Batch::default();
        let (mut cleared, mut kept, mut one_sided_failures, mut miscorrections) = (0, 0, 0, 0);
        for _ in 0..1500 {
            let codeword = code.encode(&random_data(&mut rng, config.k, 256)).unwrap();
            let mut stores = [0, 1].map(|_| faulty_store(&mut rng, &config, &codeword));

            let (pair, common) = masked(code, &stores, 0);
            let outcomes: Vec<_> = pair
                .chunks(config.n)
                .map(|w| code.decode(w, &common).unwrap())
                .collect();
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

            let mut simplex = [stores[0].clone()];
            for settled in [
                check_fixed_point(&mut stores, |s| {
                    scrub_duplex(code, s, &mut batch);
                }),
                check_fixed_point(&mut simplex, |s| scrub_simplex(code, &mut s[0], &mut batch)),
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

    /// Scrubs `stores`, forces every module dirty and scrubs again: no
    /// word in `converged` may move on the repeat. Returns how many of
    /// them the first scrub changed.
    fn check_converged(
        stores: &mut [Store],
        converged: &[bool],
        mut scrub: impl FnMut(&mut [Store]),
    ) -> usize {
        let words = converged.len();
        let before: Vec<_> = (0..words).map(|w| content(stores, w)).collect();
        scrub(stores);
        let settled: Vec<_> = (0..words).map(|w| content(stores, w)).collect();
        stores.iter_mut().for_each(Store::mark_all_dirty);
        scrub(stores);
        let mut changed = 0;
        for w in (0..words).filter(|&w| converged[w]) {
            assert_eq!(
                content(stores, w),
                settled[w],
                "a repeated scrub moved converged word {w}"
            );
            changed += usize::from(settled[w] != before[w]);
        }
        changed
    }

    /// The RS(18,16), RS(20,16), RM(1,5) and IRS(36,32) configurations
    /// of the fixed-point oracles. RS(18,16) cannot correct an error
    /// next to an erasure, so its confirmation decodes are clean; the
    /// wider codes also exercise erasures-only corrections, and every
    /// family's decoder.
    fn oracle_configs() -> [SimConfig; 4] {
        let rs18_16 = SimConfig::rs18_16_baseline();
        [
            rs18_16,
            SimConfig { n: 20, ..rs18_16 },
            SimConfig {
                n: 32,
                k: 6,
                m: 1,
                family: CodeFamily::Rm,
                ..rs18_16
            },
            SimConfig {
                n: 36,
                k: 32,
                family: CodeFamily::Irs,
                depth: 2,
                ..rs18_16
            },
        ]
    }

    /// The fixed-point oracle of both scrubs on stores of `words` words,
    /// 1 500 cases in debug and 20 000 in release per configuration:
    /// every word pair whose masked words both decode to the same word,
    /// and every simplex word that decodes, is left by one scrub in a
    /// state that a forced repeat does not move.
    pub(crate) fn converged_scrubs_are_fixed_points(words: usize, seed: u64) {
        let cases = if cfg!(debug_assertions) {
            1_500
        } else {
            20_000
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = Batch::default();
        for config in oracle_configs() {
            let code = code_of(&config);
            let code = code.as_ref();
            let (mut duplex_changed, mut simplex_changed) = (0, 0);
            for _ in 0..cases {
                let codewords: Vec<Symbol> = (0..words)
                    .flat_map(|_| {
                        let data = random_data(&mut rng, config.k, 1 << config.m);
                        code.encode(&data).unwrap()
                    })
                    .collect();
                let mut replicas = [0, 1].map(|_| faulty_store(&mut rng, &config, &codewords));
                let mut simplex = [replicas[0].clone()];

                let converged: Vec<bool> = (0..words)
                    .map(|w| {
                        let (pair, common) = masked(code, &replicas, w);
                        let (w1, w2) = pair.split_at(config.n);
                        let [d1, d2] = [w1, w2].map(|w| decoded(code, w, &common));
                        d1.is_some() && d1 == d2
                    })
                    .collect();
                duplex_changed += check_converged(&mut replicas, &converged, |r| {
                    scrub_duplex(code, r, &mut batch);
                });

                let s = &simplex[0];
                let converged: Vec<bool> = (0..words)
                    .map(|w| decoded(code, s.word(w), s.erased(w)).is_some())
                    .collect();
                simplex_changed += check_converged(&mut simplex, &converged, |s| {
                    scrub_simplex(code, &mut s[0], &mut batch);
                });
            }
            assert!(
                duplex_changed > 100 && simplex_changed > 100,
                "{config:?}: converged and changed: {duplex_changed} duplex, {simplex_changed} simplex"
            );
        }
    }

    #[test]
    fn a_converged_scrub_is_a_fixed_point() {
        converged_scrubs_are_fixed_points(1, 0xC0DE);
    }

    /// A freshly stored trial is a scrub fixed point in every family,
    /// simplex and duplex, for one word and for sixteen: forcing every
    /// module dirty and scrubbing moves no symbol and leaves no module
    /// dirty. So a store leaves every module clean and every worklist
    /// empty, whatever the trial before it left.
    #[test]
    fn a_fresh_store_is_a_scrub_fixed_point() {
        let mut rng = StdRng::seed_from_u64(0x5702E);
        let sixteen = Layout::Array {
            words: 16,
            mbu_width_bits: 2,
            interleaver: Interleaver::new(4).unwrap(),
        };
        for config in oracle_configs() {
            let code = code_of(&config);
            let code = code.as_ref();
            for (layout, replicas) in [
                (Layout::Word, 1),
                (Layout::Word, 2),
                (sixteen, 1),
                (sixteen, 2),
            ] {
                let mut engine = Engine::new(code, &config, replicas, layout);
                let mut batch = Batch::default();
                for _ in 0..8 {
                    engine.store(&mut rng);
                    for store in &engine.replicas {
                        assert!(store.dirty.is_empty());
                        assert!((0..store.words()).all(|w| !store.is_dirty(w)));
                    }
                    let stored: Vec<Vec<Symbol>> = engine
                        .replicas
                        .iter()
                        .map(|s| s.stored().to_vec())
                        .collect();
                    engine.replicas.iter_mut().for_each(Store::mark_all_dirty);
                    match engine.replicas.as_mut_slice() {
                        [store] => scrub_simplex(code, store, &mut batch),
                        stores => assert!(scrub_duplex(code, stores, &mut batch)),
                    }
                    for (store, stored) in engine.replicas.iter().zip(&stored) {
                        assert!(store.dirty.is_empty(), "{config:?}: a module was relisted");
                        assert_eq!(store.stored(), stored, "{config:?}: a symbol moved");
                        for w in 0..store.words() {
                            assert!(!store.is_dirty(w), "{config:?}: a module stayed dirty");
                            assert!(store.erased(w).is_empty());
                        }
                    }
                    // Leave a listed module behind: the next store must
                    // still start clean, with empty worklists.
                    engine.replicas[0].flip_physical_bit(0);
                }
            }
        }
    }

    #[test]
    fn trials_are_seed_deterministic() {
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 1e-2;
        config.erasure_per_symbol_day = 1e-3;
        config.scrub = Some((0.25, ScrubTiming::Exponential));
        let code = code_of(&config);
        let run = |seed: u64| {
            let mut engine = Engine::new(code.as_ref(), &config, 2, Layout::Word);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| run_trial(&mut engine, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
    }
}
