//! A simulated memory module holding one RS codeword.

use rsmem_gf::Symbol;

/// One memory module storing an `n`-symbol codeword, with bit-level SEU
/// injection and symbol-level stuck-at (permanent) faults.
///
/// Permanent faults are *located* — the paper assumes self-checking
/// hardware (e.g. Iddq monitoring \[9\]) identifies the faulty symbol, so
/// [`MemoryModule::erased`] reports every stuck position and the
/// decoder receives them as erasures.
///
/// The module also tracks whether it is *dirty*: whether anything may
/// have changed since it last held a scrub fixed point. A scrub is a
/// pure function of the module states it reads, so a scrub of modules
/// that are all clean would reproduce their states exactly, and the
/// simulators skip it. A freshly stored codeword is such a fixed point
/// in every code family, so a module starts clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemoryModule {
    stored: Vec<Symbol>,
    stuck: Vec<Option<Symbol>>,
    /// The stuck positions, ascending: the erasure list, kept up to date
    /// by [`MemoryModule::stick`] so scrubs can borrow it.
    erased: Vec<usize>,
    symbol_bits: u32,
    dirty: bool,
}

impl MemoryModule {
    /// Creates a module holding `codeword`, fault-free and clean.
    pub(crate) fn new(codeword: Vec<Symbol>, symbol_bits: u32) -> Self {
        let n = codeword.len();
        MemoryModule {
            stored: codeword,
            stuck: vec![None; n],
            erased: Vec::new(),
            symbol_bits,
            dirty: false,
        }
    }

    /// Stores `codeword` in place of the module's contents and clears
    /// every permanent fault: the module is as [`MemoryModule::new`]
    /// would build it, clean, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `codeword` is not as long as the stored word.
    pub(crate) fn reset(&mut self, codeword: &[Symbol]) {
        self.stored.copy_from_slice(codeword);
        self.stuck.fill(None);
        self.erased.clear();
        self.dirty = false;
    }

    /// The currently stored word (faulty symbols read their stuck value).
    pub(crate) fn read(&self) -> &[Symbol] {
        &self.stored
    }

    /// Positions currently known-faulty (the erasure set for decoding),
    /// ascending.
    pub(crate) fn erased(&self) -> &[usize] {
        &self.erased
    }

    /// Injects an SEU: flips bit `bit` of symbol `pos`. A stuck symbol
    /// holds its value — the upset has no effect there.
    ///
    /// # Panics
    ///
    /// Panics if `pos` or `bit` is out of range.
    pub(crate) fn flip_bit(&mut self, pos: usize, bit: u32) {
        assert!(bit < self.symbol_bits, "bit index out of symbol width");
        if self.stuck[pos].is_some() {
            return;
        }
        self.stored[pos] ^= 1 << bit;
        self.dirty = true;
    }

    /// Injects a permanent fault: symbol `pos` becomes stuck at `value`
    /// and is reported as an erasure from now on. A second fault on the
    /// same symbol re-sticks it at the new value.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub(crate) fn stick(&mut self, pos: usize, value: Symbol) {
        if self.stuck[pos].is_none() {
            let at = self.erased.partition_point(|&p| p < pos);
            self.erased.insert(at, pos);
        }
        self.stuck[pos] = Some(value);
        self.stored[pos] = value;
        self.dirty = true;
    }

    /// Writes a full word back (a scrub rewrite). Stuck symbols keep
    /// their stuck values; healthy symbols take the new data. Returns
    /// whether any symbol changed (and so marked the module dirty).
    ///
    /// # Panics
    ///
    /// Panics if `word` is not as long as the stored word.
    pub(crate) fn write(&mut self, word: &[Symbol]) -> bool {
        assert_eq!(word.len(), self.stored.len());
        let mut changed = false;
        for (i, &w) in word.iter().enumerate() {
            if self.stuck[i].is_none() && self.stored[i] != w {
                self.stored[i] = w;
                changed = true;
            }
        }
        self.dirty |= changed;
        changed
    }

    /// True if a fault or a rewrite may have changed the module since it
    /// was stored or a scrub last left it a fixed point.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Records that a scrub left this module a fixed point: until the
    /// next fault, a repeat of that scrub would change nothing. The scrub
    /// may have just rewritten the module; it is the state it leaves
    /// that a repeat must not move.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Marks the module dirty without changing it, so the next scrub
    /// runs in full.
    #[cfg(test)]
    pub(crate) fn force_dirty(&mut self) {
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> MemoryModule {
        MemoryModule::new(vec![0x10, 0x20, 0x30, 0x40], 8)
    }

    #[test]
    fn fresh_module_reads_back_clean() {
        let m = module();
        assert_eq!(m.read(), &[0x10, 0x20, 0x30, 0x40]);
        assert!(m.erased().is_empty());
        assert_eq!(m.read().len(), 4);
    }

    #[test]
    fn seu_flips_exactly_one_bit() {
        let mut m = module();
        m.flip_bit(2, 3);
        assert_eq!(m.read()[2], 0x30 ^ 0x08);
        m.flip_bit(2, 3); // flip back
        assert_eq!(m.read()[2], 0x30);
    }

    #[test]
    fn stuck_symbol_ignores_seu_and_writes() {
        let mut m = module();
        m.stick(1, 0xff);
        assert_eq!(m.read()[1], 0xff);
        m.flip_bit(1, 0);
        assert_eq!(m.read()[1], 0xff, "SEU must not move a stuck symbol");
        m.write(&[0, 0, 0, 0]);
        assert_eq!(m.read(), &[0, 0xff, 0, 0]);
    }

    #[test]
    fn erasure_set_tracks_stuck_positions() {
        let mut m = module();
        m.stick(3, 0x02);
        m.stick(0, 0x01);
        m.stick(3, 0x04); // re-stuck: still one erasure
        assert_eq!(m.erased(), &[0, 3]);
    }

    #[test]
    fn write_refreshes_healthy_symbols_only() {
        let mut m = module();
        m.stick(2, 0x77);
        m.write(&[1, 2, 3, 4]);
        assert_eq!(m.read(), &[1, 2, 0x77, 4]);
    }

    #[test]
    fn upset_on_a_stuck_symbol_leaves_the_module_clean() {
        let mut m = module();
        m.stick(1, 0xff);
        m.mark_clean();
        m.flip_bit(1, 0);
        assert!(!m.is_dirty());
        m.flip_bit(0, 0);
        assert!(m.is_dirty(), "a real flip marks the module");
    }

    #[test]
    fn stick_marks_the_module_dirty() {
        let mut m = module();
        assert!(!m.is_dirty(), "a stored codeword is a scrub fixed point");
        m.stick(2, 0x30);
        assert!(m.is_dirty(), "a new erasure changes what a scrub sees");
    }

    #[test]
    fn write_marks_dirty_only_when_a_symbol_changes() {
        let mut m = module();
        m.stick(1, 0xff);
        m.mark_clean();
        // Identical healthy symbols; the stuck one ignores the write.
        assert!(!m.write(&[0x10, 0x00, 0x30, 0x40]));
        assert!(!m.is_dirty());
        assert!(m.write(&[0x10, 0x00, 0x31, 0x40]));
        assert!(m.is_dirty());
    }

    #[test]
    fn reset_matches_a_fresh_module() {
        let mut m = module();
        m.stick(1, 0xff);
        m.flip_bit(3, 2);
        assert!(m.is_dirty());
        m.reset(&[5, 6, 7, 8]);
        assert!(!m.is_dirty(), "a reset stores a scrub fixed point");
        assert_eq!(m, MemoryModule::new(vec![5, 6, 7, 8], 8));
        m.flip_bit(1, 0);
        assert_eq!(m.read()[1], 7, "the reset cleared the stuck symbol");
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn out_of_width_bit_panics() {
        module().flip_bit(0, 8);
    }
}
