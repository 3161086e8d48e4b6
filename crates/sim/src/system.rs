//! The Monte-Carlo engine that both the word campaigns
//! ([`crate::runner`]) and the array campaigns ([`crate::array`]) run
//! on: one module [`Store`] per replica, one fault-and-scrub event loop
//! for one or two replicas, the simplex and the duplex scrub, and the
//! simplex and the duplex read-back classifier.
//!
//! A word trial is a one-word store per replica. The two kinds of
//! campaign differ only in their [`Layout`], which fixes how an upset
//! draws the bits it flips, and in how they drive the engine: word
//! campaigns are sharded, each shard classifying the read-backs of all
//! its trials in one batch, while an array campaign runs on one RNG and
//! classifies each trial's read-back on its own.

use crate::arbiter::{combine, mask, verdict_of, MaskedPair};
use crate::config::SimConfig;
use crate::events::{sample_exponential, schedule_scrub, skip_idle_ticks};
use crate::memory::MemoryModule;
use crate::runner::{OutcomeCounts, TrialOutcome};
use rand::Rng;
use rsmem_code::{BatchOutcome, Interleaver, Symbol};
use rsmem_codes::MemoryCode;
use rsmem_obs::recorder;

/// Batches shorter than this decode word by word through
/// [`MemoryCode::decode_in_place`]; longer ones go through one
/// [`MemoryCode::decode_batch`]. On RS(18,16) with 80 % clean words, the
/// mix the scrubs see, the batch plane took about 2 times the scalar
/// time per word at 1 word, 1.3–1.5 times at 2, 1.0–1.2 times at 4,
/// 0.91–0.94 times at 6 and 0.6–0.9 times from 8 words up. Word scrubs
/// decode 1 or 2 words, array scrubs a few pairs, read-backs hundreds.
const BATCH_CROSSOVER: usize = 6;

/// The memory of one replica: `words` modules in one physical symbol
/// sequence behind an interleaver.
///
/// The store keeps a worklist of its dirty modules, so a scrub visits
/// only the words a fault or a rewrite touched. A store starts clean with
/// an empty worklist, and every change to a module goes through a method
/// that pushes the module when it turns from clean to dirty, which keeps
/// the worklist, taken as a set, equal to the set of dirty modules, with
/// no index listed twice.
#[derive(Clone)]
pub(crate) struct Store {
    pub(crate) modules: Vec<MemoryModule>,
    /// The dirty modules, in the order they turned dirty.
    pub(crate) dirty: Vec<usize>,
    interleaver: Interleaver,
    n: usize,
    m_bits: u32,
}

impl Store {
    /// A store of `words` clean all-zero modules, each to be filled by
    /// [`MemoryModule::reset`], with an empty worklist.
    pub(crate) fn new(words: usize, n: usize, m_bits: u32, interleaver: Interleaver) -> Store {
        Store {
            modules: (0..words)
                .map(|_| MemoryModule::new(vec![0; n], m_bits))
                .collect(),
            dirty: Vec::new(),
            interleaver,
            n,
            m_bits,
        }
    }

    /// Lists every module, once each, so that after every module is
    /// forced dirty the next scrub runs in full.
    #[cfg(test)]
    pub(crate) fn mark_all_dirty(&mut self) {
        self.dirty.clear();
        self.dirty.extend(0..self.modules.len());
    }

    /// Total physical symbols.
    pub(crate) fn symbols(&self) -> usize {
        self.modules.len() * self.n
    }

    /// Total physical bits.
    pub(crate) fn bits(&self) -> u64 {
        self.symbols() as u64 * self.m_bits as u64
    }

    /// Maps a physical symbol index to `(module, symbol)`.
    pub(crate) fn locate(&self, physical_symbol: usize) -> (usize, usize) {
        // A one-word store (every word trial) has interleave depth 1, so
        // the map is the identity; skip its divisions.
        if self.modules.len() == 1 {
            return (0, physical_symbol);
        }
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

    /// Flips bit `bit` of one physical symbol. An upset on a stuck
    /// symbol changes nothing, so it leaves a clean module clean.
    fn flip_bit(&mut self, physical_symbol: usize, bit: u32) {
        let (module, sym) = self.locate(physical_symbol);
        self.change(module, |m| m.flip_bit(sym, bit));
    }

    /// Flips one physical bit.
    pub(crate) fn flip_physical_bit(&mut self, physical_bit: u64) {
        let m = u64::from(self.m_bits);
        self.flip_bit((physical_bit / m) as usize, (physical_bit % m) as u32);
    }

    /// Sticks one physical symbol at `value` (a permanent fault).
    pub(crate) fn stick(&mut self, physical_symbol: usize, value: Symbol) {
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

/// The buffers of a batch of words to decode, reused from one batch to
/// the next, so a word costs no allocation once they are warm.
///
/// A scrub decodes in the slots above the first `len`, which may hold
/// queued read-backs, and leaves `len` as it found it.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The words a scrub decodes (dirty words, or dirty word-pairs),
    /// ascending.
    dirty: Vec<usize>,
    /// The batch's words; the first `len` are in use.
    words: Vec<Vec<Symbol>>,
    /// The erasure list of each word in use.
    erasures: Vec<Vec<usize>>,
    len: usize,
    /// The outcomes of the last decode, from its first word on.
    outcomes: Vec<BatchOutcome>,
    /// Arbiter step 1's buffers for the duplex batches.
    pair: MaskedPair,
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
    fn push_masked(&mut self, code: &dyn MemoryCode, m1: &MemoryModule, m2: &MemoryModule) {
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

    /// Decodes the words from `from` on in place into `self.outcomes`,
    /// word by word below [`BATCH_CROSSOVER`] words and in one batch from
    /// there on.
    fn decode(&mut self, code: &dyn MemoryCode, from: usize) {
        let words = &mut self.words[from..self.len];
        let erasures = &self.erasures[from..self.len];
        if words.len() < BATCH_CROSSOVER {
            self.outcomes.clear();
            for (word, erasures) in words.iter_mut().zip(erasures) {
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
    let base = batch.len;
    for j in 0..batch.dirty.len() {
        let module = &store.modules[batch.dirty[j]];
        batch.push(module.read(), module.erased());
    }
    batch.decode(code, base);
    let words = &batch.words[base..];
    for ((&i, outcome), word) in batch.dirty.iter().zip(&batch.outcomes).zip(words) {
        let module = &mut store.modules[i];
        if let BatchOutcome::Corrected { .. } = outcome {
            module.write(word);
        }
        module.mark_clean();
    }
    batch.len = base;
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
    let base = batch.len;
    for j in 0..batch.dirty.len() {
        let w = batch.dirty[j];
        batch.push_masked(code, &replicas[0].modules[w], &replicas[1].modules[w]);
    }
    batch.decode(code, base);
    let words = &batch.words[base..];
    let mut all_clean = true;
    for (j, &w) in batch.dirty.iter().enumerate() {
        let (mut changed, mut decoded) = (false, true);
        for (r, replica) in replicas.iter_mut().enumerate() {
            // A decodable word (Clean after masking, or Corrected in
            // place) is rewritten; an undecodable one is left alone.
            if matches!(batch.outcomes[2 * j + r], BatchOutcome::Failure(_)) {
                decoded = false;
            } else {
                changed |= replica.modules[w].write(&words[2 * j + r]);
            }
        }
        if !changed || (decoded && words[2 * j] == words[2 * j + 1]) {
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
    batch.len = base;
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
/// everything its trials reuse: the stores, one codeword buffer, and the
/// batch that holds the queued read-backs and the scrubs' words. A trial
/// rewrites them in place, so after the first trial a campaign allocates
/// only what its faults cost.
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
    codeword: Vec<Symbol>,
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
            codeword: vec![0; n],
            batch: Batch::default(),
        }
    }

    /// Plays one trial and queues its read-back: draws one random
    /// dataword per word, stores its codeword fault-free in every
    /// replica, runs the faults and scrubs up to the horizon, then reads
    /// every word (simplex) or masks every pair (duplex, arbiter step 1).
    pub(crate) fn play<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.store(rng);
        self.run(rng);
        match self.replicas.as_slice() {
            [store] => {
                for module in &store.modules {
                    self.batch.push(module.read(), module.erased());
                }
            }
            [s1, s2] => {
                for (m1, m2) in s1.modules.iter().zip(&s2.modules) {
                    self.batch.push_masked(self.code, m1, m2);
                }
            }
            _ => unreachable!("1 or 2 replicas"),
        }
    }

    /// Appends the trial's datawords to `originals` and stores them.
    ///
    /// The stores are left clean, with empty worklists: a stored codeword
    /// is a scrub fixed point in every family (it decodes `Clean` and is
    /// written back unchanged), so until a fault lists its module through
    /// [`Store::change`], every scrub would leave the trial as it is.
    fn store<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // `1 << m` is the symbol-value count of every family (GF(2^m)
        // size for RS, binary for RM).
        let values = 1usize << self.code.symbol_bits();
        let start = self.originals.len();
        let words = self.replicas[0].modules.len();
        self.originals.resize(start + words * self.code.k(), 0);
        for (w, data) in self.originals[start..]
            .chunks_exact_mut(self.code.k())
            .enumerate()
        {
            for symbol in data.iter_mut() {
                *symbol = rng.gen_range(0..values) as Symbol;
            }
            self.code
                .encode_into(data, &mut self.codeword)
                .expect("valid dataword");
            for store in &mut self.replicas {
                store.modules[w].reset(&self.codeword);
            }
        }
        // Every module is now clean, so the last trial's entries go.
        for store in &mut self.replicas {
            store.dirty.clear();
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
                    let value = rng.gen_range(0..1usize << store.m_bits) as Symbol;
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
                let symbol = rng.gen_range(0..store.n);
                let bit = rng.gen_range(0..store.m_bits);
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

    /// Decodes every queued read-back in one batch, classifies it with
    /// the simplex or the duplex classifier, and empties the queue.
    pub(crate) fn classify(&mut self) -> OutcomeCounts {
        // The decode repairs words in place, so keep the stored words
        // only while the flight recorder wants exemplars.
        let stored = recorder::enabled().then(|| self.batch.words[..self.batch.len].to_vec());
        self.batch.decode(self.code, 0);
        let classify = match self.replicas.len() {
            1 => classify_simplex_reads,
            _ => classify_duplex_reads,
        };
        let counts = classify(self.code, &self.batch, &self.originals, stored.as_deref());
        self.batch.len = 0;
        self.originals.clear();
        counts
    }
}

/// Classifies each decoded simplex word against its dataword, and
/// records a silent corruption's `stored` word as an exemplar.
fn classify_simplex_reads(
    code: &dyn MemoryCode,
    batch: &Batch,
    originals: &[Symbol],
    stored: Option<&[Vec<Symbol>]>,
) -> OutcomeCounts {
    let originals = originals.chunks_exact(code.k());
    let mut counts = OutcomeCounts::default();
    for (i, ((outcome, word), original)) in batch
        .outcomes
        .iter()
        .zip(&batch.words)
        .zip(originals)
        .enumerate()
    {
        let class = match outcome {
            BatchOutcome::Failure(_) => TrialOutcome::Detected,
            // Clean or Corrected: the word now holds the decoder's output.
            _ if *code.data_of(word).expect("word has length n") == *original => {
                TrialOutcome::Correct
            }
            _ => TrialOutcome::SilentCorruption,
        };
        if let (TrialOutcome::SilentCorruption, Some(stored)) = (class, stored) {
            record_silent_exemplar(
                code,
                &stored[i],
                &batch.erasures[i],
                vec![format!("simplex: {outcome:?}")],
            );
        }
        counts.record(class);
    }
    counts
}

/// Runs the arbiter's flag comparison on each decoded duplex pair and
/// classifies its output against the dataword, recording a silent
/// corruption's two `stored` masked words as an exemplar.
fn classify_duplex_reads(
    code: &dyn MemoryCode,
    batch: &Batch,
    originals: &[Symbol],
    stored: Option<&[Vec<Symbol>]>,
) -> OutcomeCounts {
    let (words, outcomes) = (&batch.words, &batch.outcomes);
    let mut counts = OutcomeCounts::default();
    for (i, original) in originals.chunks_exact(code.k()).enumerate() {
        let v1 = verdict_of(code, &words[2 * i], &outcomes[2 * i]);
        let v2 = verdict_of(code, &words[2 * i + 1], &outcomes[2 * i + 1]);
        let class = match combine(v1, v2) {
            None => TrialOutcome::Detected,
            Some((data, _)) if *data == *original => TrialOutcome::Correct,
            Some(_) => TrialOutcome::SilentCorruption,
        };
        if let (TrialOutcome::SilentCorruption, Some(stored)) = (class, stored) {
            // Both masked module words, module 2 appended after module 1
            // (each n symbols), plus both decode verdicts: everything the
            // arbiter saw when it let this through.
            let pair: Vec<Symbol> = stored[2 * i]
                .iter()
                .chain(&stored[2 * i + 1])
                .copied()
                .collect();
            record_silent_exemplar(
                code,
                &pair,
                &batch.erasures[2 * i],
                vec![
                    format!("module1: {:?}", outcomes[2 * i]),
                    format!("module2: {:?}", outcomes[2 * i + 1]),
                ],
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
            let module = &store.modules[0];
            let mut word = module.read().to_vec();
            match code.decode_in_place(&mut word, module.erased()).unwrap() {
                BatchOutcome::Failure(_) => None,
                _ => Some(code.data_of(&word).unwrap().into_owned()),
            }
        }
        [s1, s2] => {
            let (m1, m2) = (&s1.modules[0], &s2.modules[0]);
            crate::arbiter::arbitrate(code, m1.read(), m1.erased(), m2.read(), m2.erased())
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

    /// Two one-word stores holding `codeword`, each with up to two
    /// permanent faults and up to three upsets.
    fn faulty_pair(rng: &mut StdRng, config: &SimConfig, codeword: &[Symbol]) -> Vec<Store> {
        let symbol_values = 1 << config.m;
        (0..2)
            .map(|_| {
                let mut store = Store::new(1, config.n, config.m, Interleaver::new(1).unwrap());
                store.modules[0].reset(codeword);
                for _ in 0..rng.gen_range(0..=2) {
                    let pos = rng.gen_range(0..config.n);
                    store.stick(pos, rng.gen_range(0..symbol_values) as Symbol);
                }
                for _ in 0..rng.gen_range(0..=3) {
                    let pos = rng.gen_range(0..config.n);
                    store.flip_bit(pos, rng.gen_range(0..config.m));
                }
                store
            })
            .collect()
    }

    /// The word `word` decodes to, or `None` if decoding fails.
    fn decoded(code: &dyn MemoryCode, word: &[Symbol], erasures: &[usize]) -> Option<Vec<Symbol>> {
        let mut out = word.to_vec();
        match code.decode_in_place(&mut out, erasures).unwrap() {
            BatchOutcome::Failure(_) => None,
            BatchOutcome::Clean | BatchOutcome::Corrected { .. } => Some(out),
        }
    }

    fn modules(stores: &[Store]) -> Vec<MemoryModule> {
        stores.iter().map(|s| s.modules[0].clone()).collect()
    }

    fn content(stores: &[Store]) -> Vec<(Vec<Symbol>, Vec<usize>)> {
        stores
            .iter()
            .map(|s| (s.modules[0].read().to_vec(), s.modules[0].erased().to_vec()))
            .collect()
    }

    fn force_dirty(stores: &mut [Store]) {
        for store in stores {
            store.modules[0].force_dirty();
            store.mark_all_dirty();
        }
    }

    /// Scrubs `stores` once and checks the elision rule: a scrub that
    /// leaves every module clean leaves a state that a forced repeat
    /// does not move; a scrub that leaves a module dirty really changed
    /// the state. Returns whether the flags were cleared.
    fn check_fixed_point(stores: &mut [Store], scrub: impl Fn(&mut [Store])) -> bool {
        let before = content(stores);
        scrub(stores);
        if stores.iter().any(|s| s.modules[0].is_dirty()) {
            assert_ne!(content(stores), before, "an idle scrub kept a flag set");
            return false;
        }
        let settled = modules(stores);
        force_dirty(stores);
        scrub(stores);
        assert_eq!(
            modules(stores),
            settled,
            "a repeated scrub moved a fixed point"
        );
        true
    }

    fn duplex_scrub(code: &dyn MemoryCode) -> impl Fn(&mut [Store]) + '_ {
        move |s| {
            scrub_duplex(code, s, &mut Batch::default());
        }
    }

    fn simplex_scrub(code: &dyn MemoryCode) -> impl Fn(&mut [Store]) + '_ {
        move |s| scrub_simplex(code, &mut s[0], &mut Batch::default())
    }

    /// What the duplex scrub's two decodes see: both masked words and
    /// their common erasures.
    fn masked(code: &dyn MemoryCode, stores: &[Store]) -> MaskedPair {
        let (m1, m2) = (&stores[0].modules[0], &stores[1].modules[0]);
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
        pair
    }

    #[test]
    fn a_scrub_that_clears_the_flags_is_a_fixed_point() {
        let config = SimConfig::rs18_16_baseline();
        let code = code_of(&config);
        let code = code.as_ref();
        let mut rng = StdRng::seed_from_u64(0xF1ED);
        let (mut cleared, mut kept, mut one_sided_failures, mut miscorrections) = (0, 0, 0, 0);
        for _ in 0..1500 {
            let codeword = code.encode(&random_data(&mut rng, config.k, 256)).unwrap();
            let mut stores = faulty_pair(&mut rng, &config, &codeword);

            let pair = masked(code, &stores);
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

            let mut simplex_store = vec![stores[0].clone()];
            for settled in [
                check_fixed_point(&mut stores, duplex_scrub(code)),
                check_fixed_point(&mut simplex_store, simplex_scrub(code)),
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
    /// Scrubs `stores` whose decodes converged, forces them dirty and
    /// scrubs again: the repeat must move nothing. Returns whether the
    /// first scrub changed the state.
    fn check_converged(stores: &mut [Store], scrub: impl Fn(&mut [Store])) -> bool {
        let before = content(stores);
        scrub(stores);
        let settled = content(stores);
        force_dirty(stores);
        scrub(stores);
        assert_eq!(
            content(stores),
            settled,
            "a repeated scrub moved a converged state"
        );
        settled != before
    }

    /// The RS(18,16), RS(20,16), RM(1,5) and IRS(36,32) configurations
    /// of the fixed-point oracles. RS(18,16) cannot correct an error
    /// next to an erasure, so its confirmation decodes are clean; the
    /// wider codes also exercise erasures-only corrections, and every
    /// family's decoder.
    pub(crate) fn oracle_configs() -> [SimConfig; 4] {
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

    #[test]
    fn a_converged_scrub_is_a_fixed_point() {
        let cases = if cfg!(debug_assertions) {
            1_500
        } else {
            20_000
        };
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for config in oracle_configs() {
            let code = code_of(&config);
            let code = code.as_ref();
            let (mut duplex_changed, mut simplex_changed) = (0, 0);
            for _ in 0..cases {
                let data = random_data(&mut rng, config.k, 1 << config.m);
                let codeword = code.encode(&data).unwrap();
                let mut stores = faulty_pair(&mut rng, &config, &codeword);
                let mut simplex_store = vec![stores[0].clone()];

                // Both masked words decode to the same word.
                let pair = masked(code, &stores);
                let [d1, d2] = [&pair.w1, &pair.w2].map(|w| decoded(code, w, &pair.common));
                if d1.is_some() && d1 == d2 {
                    duplex_changed += usize::from(check_converged(&mut stores, duplex_scrub(code)));
                }

                // The simplex word decodes.
                let m = &simplex_store[0].modules[0];
                if decoded(code, m.read(), m.erased()).is_some() {
                    simplex_changed +=
                        usize::from(check_converged(&mut simplex_store, simplex_scrub(code)));
                }
            }
            assert!(
                duplex_changed > 100 && simplex_changed > 100,
                "{config:?}: converged and changed: {duplex_changed} duplex, {simplex_changed} simplex"
            );
        }
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
                        assert!(store.modules.iter().all(|m| !m.is_dirty()));
                    }
                    let stored: Vec<_> =
                        engine.replicas.iter().map(|s| s.modules.clone()).collect();
                    for store in &mut engine.replicas {
                        store.modules.iter_mut().for_each(MemoryModule::force_dirty);
                        store.mark_all_dirty();
                    }
                    match engine.replicas.as_mut_slice() {
                        [store] => scrub_simplex(code, store, &mut batch),
                        stores => assert!(scrub_duplex(code, stores, &mut batch)),
                    }
                    for (store, stored) in engine.replicas.iter().zip(&stored) {
                        assert!(store.dirty.is_empty(), "{config:?}: a module was relisted");
                        for (module, before) in store.modules.iter().zip(stored) {
                            assert!(!module.is_dirty(), "{config:?}: a module stayed dirty");
                            assert_eq!(module.read(), before.read(), "{config:?}: a symbol moved");
                            assert!(module.erased().is_empty());
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
