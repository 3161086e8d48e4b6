//! The memory of one replica: `words` memory modules, each holding an
//! `n`-symbol codeword, in one physical symbol sequence behind an
//! interleaver, with bit-level SEU injection and symbol-level stuck-at
//! (permanent) faults.
//!
//! Permanent faults are *located*: the paper assumes self-checking
//! hardware (e.g. Iddq monitoring \[9\]) identifies the faulty symbol,
//! so [`Store::erased`] reports every stuck position of a word and the
//! decoder receives them as erasures.

use rsmem_code::{Interleaver, Symbol};

/// The memory of one replica, stored flat, so that a store of any size
/// is a handful of buffers: every word's symbols in one `words × n`
/// buffer (word `w` at `w·n..(w+1)·n`), a stuck mask indexed like them,
/// one erasure list per word, which stays empty, and so unallocated,
/// until a permanent fault lands in that word, one dirty flag per word,
/// and the worklist of the dirty words.
///
/// Each word tracks whether it is *dirty*: whether anything may
/// have changed since it last held a scrub fixed point. A scrub is a
/// pure function of the words it reads, so a scrub of words that are
/// all clean would reproduce them exactly, and the engine skips it. A
/// freshly stored codeword is such a fixed point in every code family,
/// so a word starts clean.
///
/// The store keeps a worklist of its dirty words, so a scrub visits only
/// the words a fault or a rewrite touched. A store starts clean with an
/// empty worklist. A fault lists its word when it turns the word from
/// clean to dirty; a scrub drains the worklist, clears the flags of the
/// words it leaves fixed points and relists the others. So the
/// worklist, taken as a set, equals the set of dirty words, with no word
/// listed twice.
#[derive(Debug, Clone)]
pub(crate) struct Store {
    /// Every word's symbols, back to back. A stuck symbol holds its
    /// stuck value.
    stored: Vec<Symbol>,
    /// Whether each symbol is stuck, indexed like `stored`.
    stuck: Vec<bool>,
    /// Each word's stuck positions, ascending: its erasure list.
    erased: Vec<Vec<usize>>,
    /// Each word's dirty flag.
    flags: Vec<bool>,
    /// The dirty words, in the order they turned dirty.
    pub(crate) dirty: Vec<usize>,
    interleaver: Interleaver,
    n: usize,
    m_bits: u32,
}

impl Store {
    /// A store of `words` clean all-zero words of `n` symbols of
    /// `m_bits` bits, to be filled through [`Store::reset`], with an
    /// empty worklist.
    pub(crate) fn new(words: usize, n: usize, m_bits: u32, interleaver: Interleaver) -> Store {
        Store {
            stored: vec![0; words * n],
            stuck: vec![false; words * n],
            erased: vec![Vec::new(); words],
            flags: vec![false; words],
            dirty: Vec::new(),
            interleaver,
            n,
            m_bits,
        }
    }

    /// Clears every permanent fault, flag and worklist entry, and hands
    /// back the symbol buffer for the caller to fill with codewords. The
    /// store is then as [`Store::new`] would build it, clean, without
    /// allocating: stored codewords are scrub fixed points.
    pub(crate) fn reset(&mut self) -> &mut [Symbol] {
        self.stuck.fill(false);
        self.erased.iter_mut().for_each(Vec::clear);
        self.flags.fill(false);
        self.dirty.clear();
        &mut self.stored
    }

    /// Number of words.
    pub(crate) fn words(&self) -> usize {
        self.flags.len()
    }

    /// Every word's symbols, back to back.
    pub(crate) fn stored(&self) -> &[Symbol] {
        &self.stored
    }

    /// Word `w` as stored (stuck symbols read their stuck value).
    pub(crate) fn word(&self, w: usize) -> &[Symbol] {
        &self.stored[w * self.n..(w + 1) * self.n]
    }

    /// The positions of word `w` that are known faulty (its erasure
    /// set), ascending.
    pub(crate) fn erased(&self, w: usize) -> &[usize] {
        &self.erased[w]
    }

    /// True if a fault or a rewrite may have changed word `w` since it
    /// was stored or a scrub last left it a fixed point.
    #[cfg(test)]
    pub(crate) fn is_dirty(&self, w: usize) -> bool {
        self.flags[w]
    }

    /// Total physical symbols.
    pub(crate) fn symbols(&self) -> usize {
        self.stored.len()
    }

    /// Total physical bits.
    pub(crate) fn bits(&self) -> u64 {
        self.symbols() as u64 * u64::from(self.m_bits)
    }

    /// Maps a physical symbol index to `(word, symbol)`.
    pub(crate) fn locate(&self, physical_symbol: usize) -> (usize, usize) {
        // A one-word store (every word trial) has interleave depth 1, so
        // the map is the identity; skip its divisions.
        if self.words() == 1 {
            return (0, physical_symbol);
        }
        let depth = self.interleaver.depth();
        let group_len = self.n * depth;
        let group = physical_symbol / group_len;
        let within = physical_symbol % group_len;
        let (word_in_group, sym) = self.interleaver.locate(within);
        (group * depth + word_in_group, sym)
    }

    /// Flags word `w` dirty, listing it if it was clean.
    fn mark_dirty(&mut self, w: usize) {
        if !self.flags[w] {
            self.flags[w] = true;
            self.dirty.push(w);
        }
    }

    /// Injects an SEU: flips bit `bit` of one physical symbol. A stuck
    /// symbol holds its value: the upset changes nothing there, and
    /// leaves a clean word clean.
    ///
    /// # Panics
    ///
    /// Panics if the symbol or `bit` is out of range.
    pub(crate) fn flip_bit(&mut self, physical_symbol: usize, bit: u32) {
        assert!(bit < self.m_bits, "bit index out of symbol width");
        let (w, p) = self.locate(physical_symbol);
        let i = w * self.n + p;
        if self.stuck[i] {
            return;
        }
        self.stored[i] ^= 1 << bit;
        self.mark_dirty(w);
    }

    /// Flips one physical bit.
    pub(crate) fn flip_physical_bit(&mut self, physical_bit: u64) {
        let m = u64::from(self.m_bits);
        self.flip_bit((physical_bit / m) as usize, (physical_bit % m) as u32);
    }

    /// Injects a permanent fault: one physical symbol becomes stuck at
    /// `value` and is reported as an erasure of its word from now on. A
    /// second fault on the same symbol re-sticks it at the new value.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is out of range.
    pub(crate) fn stick(&mut self, physical_symbol: usize, value: Symbol) {
        let (w, p) = self.locate(physical_symbol);
        let i = w * self.n + p;
        if !self.stuck[i] {
            self.stuck[i] = true;
            let erased = &mut self.erased[w];
            erased.insert(erased.partition_point(|&q| q < p), p);
        }
        self.stored[i] = value;
        self.mark_dirty(w);
    }

    /// Writes a full word back to word `w` (a scrub rewrite). Stuck
    /// symbols keep their stuck values; healthy symbols take the new
    /// data. Returns whether any symbol changed, and if one did, flags
    /// the word dirty without listing it: the scrub that writes decides
    /// whether to relist it.
    ///
    /// # Panics
    ///
    /// Panics if `word` is not `n` symbols long.
    pub(crate) fn write(&mut self, w: usize, word: &[Symbol]) -> bool {
        assert_eq!(word.len(), self.n);
        let range = w * self.n..(w + 1) * self.n;
        let mut changed = false;
        for ((s, &stuck), &new) in self.stored[range.clone()]
            .iter_mut()
            .zip(&self.stuck[range])
            .zip(word)
        {
            if !stuck && *s != new {
                *s = new;
                changed = true;
            }
        }
        self.flags[w] |= changed;
        changed
    }

    /// Records that a scrub left word `w` a fixed point: until the next
    /// fault, a repeat of that scrub would change nothing. The scrub may
    /// have just rewritten the word; it is the state it leaves that a
    /// repeat must not move.
    pub(crate) fn mark_clean(&mut self, w: usize) {
        self.flags[w] = false;
    }

    /// Relists word `w` if a scrub left it dirty.
    pub(crate) fn relist_if_dirty(&mut self, w: usize) {
        if self.flags[w] {
            self.dirty.push(w);
        }
    }

    /// Flags and lists every word, once each, so the next scrub runs in
    /// full.
    #[cfg(test)]
    pub(crate) fn mark_all_dirty(&mut self) {
        self.flags.fill(true);
        self.dirty.clear();
        self.dirty.extend(0..self.words());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-word store holding `[0x10, 0x20, 0x30, 0x40]`.
    fn module() -> Store {
        let mut store = Store::new(1, 4, 8, Interleaver::new(1).unwrap());
        store.reset().copy_from_slice(&[0x10, 0x20, 0x30, 0x40]);
        store
    }

    #[test]
    fn fresh_module_reads_back_clean() {
        let m = module();
        assert_eq!(m.word(0), &[0x10, 0x20, 0x30, 0x40]);
        assert!(m.erased(0).is_empty());
        assert_eq!((m.words(), m.symbols(), m.bits()), (1, 4, 32));
    }

    #[test]
    fn seu_flips_exactly_one_bit() {
        let mut m = module();
        m.flip_bit(2, 3);
        assert_eq!(m.word(0)[2], 0x30 ^ 0x08);
        m.flip_physical_bit(2 * 8 + 3); // flip back
        assert_eq!(m.word(0)[2], 0x30);
    }

    #[test]
    fn stuck_symbol_ignores_seu_and_writes() {
        let mut m = module();
        m.stick(1, 0xff);
        m.flip_bit(1, 0);
        assert_eq!(m.word(0)[1], 0xff, "SEU must not move a stuck symbol");
        m.write(0, &[0, 0, 0, 0]);
        assert_eq!(m.word(0), &[0, 0xff, 0, 0]);
    }

    #[test]
    fn erasure_set_tracks_stuck_positions() {
        let mut m = module();
        m.stick(3, 0x02);
        m.stick(0, 0x01);
        m.stick(3, 0x04); // re-stuck: still one erasure
        assert_eq!(m.erased(0), &[0, 3]);
        assert_eq!(m.word(0)[3], 0x04);
    }

    #[test]
    fn write_refreshes_healthy_symbols_only() {
        let mut m = module();
        m.stick(2, 0x77);
        m.write(0, &[1, 2, 3, 4]);
        assert_eq!(m.word(0), &[1, 2, 0x77, 4]);
    }

    #[test]
    fn upset_on_a_stuck_symbol_leaves_the_module_clean() {
        let mut m = module();
        m.stick(1, 0xff);
        m.mark_clean(0);
        m.dirty.clear();
        m.flip_bit(1, 0);
        assert!(
            !m.is_dirty(0) && m.dirty.is_empty(),
            "a no-op upset lists nothing"
        );
        m.flip_bit(0, 0);
        assert!(m.is_dirty(0), "a real flip marks the word");
        assert_eq!(m.dirty, [0]);
    }

    #[test]
    fn stick_marks_the_module_dirty() {
        let mut m = module();
        assert!(!m.is_dirty(0), "a stored codeword is a scrub fixed point");
        m.stick(2, 0x30);
        assert!(m.is_dirty(0), "a new erasure changes what a scrub sees");
        m.stick(3, 0x40);
        assert_eq!(m.dirty, [0], "a dirty word is listed once");
    }

    #[test]
    fn write_marks_dirty_only_when_a_symbol_changes() {
        let mut m = module();
        m.stick(1, 0xff);
        m.mark_clean(0);
        m.dirty.clear();
        // Identical healthy symbols; the stuck one ignores the write.
        assert!(!m.write(0, &[0x10, 0x00, 0x30, 0x40]));
        assert!(!m.is_dirty(0));
        assert!(m.write(0, &[0x10, 0x00, 0x31, 0x40]));
        assert!(m.is_dirty(0) && m.dirty.is_empty(), "the scrub relists");
    }

    #[test]
    fn reset_matches_a_fresh_module() {
        let mut store = Store::new(4, 4, 8, Interleaver::new(2).unwrap());
        let codewords: Vec<Symbol> = (0..16).collect();
        store.reset().copy_from_slice(&codewords);
        store.stick(5, 0xff);
        store.flip_bit(14, 7);
        store.reset().copy_from_slice(&codewords);
        assert!(store.dirty.is_empty(), "a reset stores a scrub fixed point");
        for w in 0..4 {
            assert!(!store.is_dirty(w) && store.erased(w).is_empty());
        }
        assert_eq!(store.stored(), codewords);
        store.flip_bit(5, 0);
        assert_ne!(
            store.stored(),
            codewords,
            "the reset cleared the stuck symbol"
        );
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn out_of_width_bit_panics() {
        module().flip_bit(0, 8);
    }
}
