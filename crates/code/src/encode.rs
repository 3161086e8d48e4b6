//! Systematic Reed–Solomon encoding, and the per-position tables of a
//! linear map that the encoder and the batch plane's clean check share.
//!
//! The codeword is `c(x) = d(x)·x^{n−k} + (d(x)·x^{n−k} mod g(x))`: the
//! data verbatim in the top `k` coefficients, and below it the remainder
//! that makes `c(x)` divisible by `g(x)`. The remainder is linear in the
//! data, so with `R_i(x) = x^{n−k+i} mod g(x)` the parity is
//! `Σ_i d_i·R_i(x)`, a sum that GF(2^m) adds with XOR, exact in any
//! order. The syndromes are linear in the received word the same way:
//! `S_j = Σ_i r_i·α^{(b+j)·i}`.
//!
//! [`LinearTables`] holds the terms of such a sum `x ↦ Σ_i x_i·row_i`,
//! split by nibble: for position `i`, nibble `j` and nibble value `v`,
//! the symbols of `(v·2^{4j})·row_i` packed into `u64` lanes, bytes for
//! `m ≤ 8` and 16-bit lanes above. Applying the map is then `⌈m/4⌉`
//! table lookups and XORs per input symbol, with no dependency between
//! positions. The encoder's rows are the `R_i` (RS(18,16): one `u64`
//! per entry, 4 KiB in all; RS(36,16): three per entry), built on a
//! code's first encode from the recursion `R_{i+1} = x·R_i mod g`. The
//! clean check's rows are `α^{(b+j)·i}` over all `n` positions
//! (RS(18,16): 4.5 KiB), built on a code's first batch. Each entry is
//! the XOR of its bit-basis rows `2^b·row_i`. The tables cost
//! `O(positions·width·m)` bytes, so a code whose tables would pass
//! [`TABLE_BUDGET_BYTES`] encodes from the recursion and checks with the
//! scalar syndrome ladder instead, one field multiply per term.
//!
//! The hardware encoder the paper's complexity model costs (Section 6)
//! is still the shift register of `n − k` stages; only this software
//! encoder is table-driven.

use crate::{CodeError, RsCode};
use rsmem_gf::{GfField, Symbol};

/// The largest tables a code builds for one map. RS(255,223)'s parity
/// takes 228 KiB and a code over GF(2^10) with a few hundred parity
/// symbols some MiB; codes far beyond that use the recursion or the
/// scalar ladder.
const TABLE_BUDGET_BYTES: usize = 16 << 20;

/// Table words an accumulator pass keeps in registers: the output
/// symbols of one pass over the input.
const PASS_WORDS: usize = 4;

/// The per-position, per-nibble terms of one linear map over a field.
#[derive(Debug, Clone)]
pub(crate) struct LinearTables {
    /// `u64` words per entry: `⌈width / lanes⌉`.
    words: usize,
    /// Output symbols per `u64`: 8 bytes, or 4 16-bit lanes.
    lanes: usize,
    /// Nibbles per input symbol, `⌈m/4⌉`.
    nibbles: usize,
    /// One block per pass over the input, [`PASS_WORDS`] words of every
    /// entry (fewer in the last), indexed `[position][nibble][value]
    /// [word]`, so a pass reads its block front to back.
    entries: Vec<u64>,
}

/// Systematically encodes `data` into `word`: parity first, then the
/// data. The dataword is validated before the buffer, and `word` is
/// untouched on error.
pub(crate) fn encode_into(
    code: &RsCode,
    data: &[Symbol],
    word: &mut [Symbol],
) -> Result<(), CodeError> {
    if data.len() != code.k() {
        return Err(CodeError::DatawordLength {
            got: data.len(),
            expected: code.k(),
        });
    }
    code.check_symbols(data)?;
    if word.len() != code.n() {
        return Err(CodeError::CodewordLength {
            got: word.len(),
            expected: code.n(),
        });
    }
    let (parity, top) = word.split_at_mut(code.parity_symbols());
    match code.parity_tables() {
        Some(tables) => tables.apply(data, parity),
        None => parity_from_rows(code.field(), code.generator().coeffs(), data, parity),
    }
    top.copy_from_slice(data);
    Ok(())
}

/// The layout of a map's tables: `(lanes, words, nibbles)`, or `None`
/// when they would pass [`TABLE_BUDGET_BYTES`].
fn table_shape(positions: usize, width: usize, m: u32) -> Option<(usize, usize, usize)> {
    let lanes = if m <= 8 { 8 } else { 4 };
    let words = width.div_ceil(lanes);
    let nibbles = (m as usize).div_ceil(4);
    let bytes = positions
        .checked_mul(nibbles * 16)?
        .checked_mul(words)?
        .checked_mul(8)?;
    (bytes <= TABLE_BUDGET_BYTES).then_some((lanes, words, nibbles))
}

/// Steps `row` from `R_i` to `R_{i+1} = x·R_i mod g`, where `taps` are
/// the coefficients of the monic `g(x)` of degree `row.len()`.
fn next_row(field: &GfField, taps: &[Symbol], row: &mut [Symbol]) {
    // x^{n−k} = Σ_{j<n−k} g_j·x^j mod g(x), since g(x) is monic.
    let top = row[row.len() - 1];
    for j in (1..row.len()).rev() {
        row[j] = row[j - 1] ^ field.mul(top, taps[j]);
    }
    row[0] = field.mul(top, taps[0]);
}

/// `R_0 = x^{n−k} mod g`: the low coefficients of the monic `g(x)`.
fn first_row(taps: &[Symbol]) -> Vec<Symbol> {
    taps[..taps.len() - 1].to_vec()
}

/// The parity of `data` as `Σ_i d_i·R_i`, each row stepped from the one
/// before, for codes too large for tables. Allocates one row.
fn parity_from_rows(field: &GfField, taps: &[Symbol], data: &[Symbol], parity: &mut [Symbol]) {
    parity.fill(0);
    let mut row = first_row(taps);
    for &d in data {
        for (p, &c) in parity.iter_mut().zip(&row) {
            *p ^= field.mul(d, c);
        }
        next_row(field, taps, &mut row);
    }
}

impl LinearTables {
    /// The encoder's tables of `code`: rows `R_i` over the `k` data
    /// positions. `None` when they would pass [`TABLE_BUDGET_BYTES`].
    pub(crate) fn parity(code: &RsCode) -> Option<LinearTables> {
        let (field, taps) = (code.field(), code.generator().coeffs());
        let mut next = first_row(taps);
        Self::new(field, code.k(), code.parity_symbols(), |_, row| {
            row.copy_from_slice(&next);
            next_row(field, taps, &mut next);
        })
    }

    /// The syndrome map of `code`: row `i` is `(α^{(b+j)·i})_j` over
    /// the `n` codeword positions, so the image of a word is its `n − k`
    /// syndromes. `None` when the tables would pass
    /// [`TABLE_BUDGET_BYTES`].
    pub(crate) fn syndromes(code: &RsCode) -> Option<LinearTables> {
        let field = code.field();
        let b = u64::from(code.first_root());
        Self::new(field, code.n(), code.parity_symbols(), |i, row| {
            let x = field.alpha_pow(i as u32);
            let mut term = field.pow(x, b);
            for r in row {
                *r = term;
                term = field.mul(term, x);
            }
        })
    }

    /// Builds the tables of `x ↦ Σ_i x_i·row_i` from `positions` input
    /// symbols to `width` output symbols, or `None` when they would
    /// pass [`TABLE_BUDGET_BYTES`]. `row_of(i, row)` writes row `i`; it
    /// is called once per position, in order.
    fn new(
        field: &GfField,
        positions: usize,
        width: usize,
        mut row_of: impl FnMut(usize, &mut [Symbol]),
    ) -> Option<LinearTables> {
        let m = field.bits();
        let (lanes, words, nibbles) = table_shape(positions, width, m)?;
        let lane_bits = 64 / lanes;
        let tables = positions * nibbles;
        // Where word `w` of entry `v` of table `t` lies.
        let at = |t: usize, v: usize, w: usize| {
            let pass = w / PASS_WORDS;
            let pass_width = PASS_WORDS.min(words - pass * PASS_WORDS);
            pass * tables * 16 * PASS_WORDS + (t * 16 + v) * pass_width + w % PASS_WORDS
        };
        let mut entries = vec![0u64; tables * 16 * words];
        // The packed rows `2^b·row_i`, one per bit `b` of a symbol.
        let mut basis = vec![0u64; m as usize * words];
        let mut row = vec![0; width];
        for i in 0..positions {
            row_of(i, &mut row);
            basis.fill(0);
            for (b, packed) in basis.chunks_exact_mut(words).enumerate() {
                for (p, &c) in row.iter().enumerate() {
                    let term = u64::from(field.mul(c, 1 << b));
                    packed[p / lanes] |= term << (p % lanes * lane_bits);
                }
            }
            // Entry `v` of nibble `j` is entry `v` without its lowest set
            // bit, XOR the basis row of that bit.
            for j in 0..nibbles {
                let t = i * nibbles + j;
                for v in 1..16usize {
                    let b = 4 * j + v.trailing_zeros() as usize;
                    let rest = v & (v - 1);
                    for w in 0..words {
                        let bit = basis.get(b * words + w).copied().unwrap_or(0);
                        entries[at(t, v, w)] = entries[at(t, rest, w)] ^ bit;
                    }
                }
            }
        }
        Some(LinearTables {
            words,
            lanes,
            nibbles,
            entries,
        })
    }

    /// Writes the image of `x` (in the field, one symbol per position)
    /// into `out` (`width` symbols), one pass over `x` per
    /// [`PASS_WORDS`] table words.
    pub(crate) fn apply(&self, x: &[Symbol], out: &mut [Symbol]) {
        let mut acc = [0u64; PASS_WORDS];
        let (mut first, mut rest) = (0, out);
        while !rest.is_empty() {
            let width = PASS_WORDS.min(self.words - first);
            let (chunk, tail) = rest.split_at_mut((width * self.lanes).min(rest.len()));
            self.pass_into(x, first, width, &mut acc);
            if self.lanes == 8 {
                let lanes = acc[..width].iter().flat_map(|w| w.to_le_bytes());
                for (symbol, lane) in chunk.iter_mut().zip(lanes) {
                    *symbol = Symbol::from(lane);
                }
            } else {
                let lanes = acc[..width]
                    .iter()
                    .flat_map(|&w| [0, 16, 32, 48].map(|s| (w >> s) as Symbol));
                for (symbol, lane) in chunk.iter_mut().zip(lanes) {
                    *symbol = lane;
                }
            }
            (first, rest) = (first + width, tail);
        }
    }

    /// True when the image of `x` is all zero; stops at the first pass
    /// whose words are not.
    pub(crate) fn maps_to_zero(&self, x: &[Symbol]) -> bool {
        let mut acc = [0u64; PASS_WORDS];
        let mut first = 0;
        while first < self.words {
            let width = PASS_WORDS.min(self.words - first);
            self.pass_into(x, first, width, &mut acc);
            if acc[..width].iter().any(|&w| w != 0) {
                return false;
            }
            first += width;
        }
        true
    }

    /// The pass over table words `first..first + width` (at most
    /// [`PASS_WORDS`]) into `acc[..width]`.
    fn pass_into(&self, x: &[Symbol], first: usize, width: usize, acc: &mut [u64; PASS_WORDS]) {
        // Offsets by multiplies only: a division by a run-time lane or
        // pass width costs as much as a pass over RS(18,16)'s data.
        let block = x.len() * self.nibbles * 16;
        debug_assert_eq!(
            block * self.words,
            self.entries.len(),
            "one symbol per position"
        );
        let entries = &self.entries[first * block..][..width * block];
        match (self.nibbles, width) {
            (1, 1) => pass::<1, 1>(x, entries, acc),
            (1, 2) => pass::<1, 2>(x, entries, acc),
            (1, 3) => pass::<1, 3>(x, entries, acc),
            (1, _) => pass::<1, PASS_WORDS>(x, entries, acc),
            (2, 1) => pass::<2, 1>(x, entries, acc),
            (2, 2) => pass::<2, 2>(x, entries, acc),
            (2, 3) => pass::<2, 3>(x, entries, acc),
            (2, _) => pass::<2, PASS_WORDS>(x, entries, acc),
            (3, 1) => pass::<3, 1>(x, entries, acc),
            (3, 2) => pass::<3, 2>(x, entries, acc),
            (3, 3) => pass::<3, 3>(x, entries, acc),
            (3, _) => pass::<3, PASS_WORDS>(x, entries, acc),
            (_, 1) => pass::<4, 1>(x, entries, acc),
            (_, 2) => pass::<4, 2>(x, entries, acc),
            (_, 3) => pass::<4, 3>(x, entries, acc),
            (_, _) => pass::<4, PASS_WORDS>(x, entries, acc),
        }
    }
}

/// One pass: the XOR over `x` of the `WIDTH`-word entries of each
/// symbol's `NIBBLES` tables in `entries`, into `acc[..WIDTH]`. The
/// shape is a constant, so no entry offset is a multiply by a run-time
/// width.
fn pass<const NIBBLES: usize, const WIDTH: usize>(
    x: &[Symbol],
    entries: &[u64],
    acc: &mut [u64; PASS_WORDS],
) {
    let mut sum = [0u64; WIDTH];
    for (&d, tables) in x.iter().zip(entries.chunks_exact(NIBBLES * 16 * WIDTH)) {
        let mut d = usize::from(d);
        for table in tables.chunks_exact(16 * WIDTH) {
            let entry = &table[(d & 0xF) * WIDTH..][..WIDTH];
            for (a, &t) in sum.iter_mut().zip(entry) {
                *a ^= t;
            }
            d >>= 4;
        }
    }
    acc[..WIDTH].copy_from_slice(&sum);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsmem_gf::{GfField, Poly};

    fn word_poly(word: &[Symbol]) -> Poly {
        Poly::from_coeffs(word.iter().copied())
    }

    #[test]
    fn codeword_polynomial_divisible_by_generator() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = vec![3, 1, 4, 1, 5, 9, 2, 6, 8];
        let word = code.encode(&data).unwrap();
        let (_, rem) = word_poly(&word)
            .div_rem(code.generator(), code.field())
            .unwrap();
        assert!(rem.is_zero());
    }

    #[test]
    fn all_generator_roots_vanish_on_codeword() {
        let code = RsCode::with_first_root(15, 11, 4, 1).unwrap();
        let data: Vec<Symbol> = (0..11).map(|i| (i * 7 + 3) % 16).collect();
        let word = code.encode(&data).unwrap();
        let f: &GfField = code.field();
        let p = word_poly(&word);
        for j in 0..code.parity_symbols() as u32 {
            assert_eq!(p.eval(f, f.alpha_pow(code.first_root() + j)), 0);
        }
    }

    #[test]
    fn zero_dataword_encodes_to_zero_codeword() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let word = code.encode(&[0; 16]).unwrap();
        assert!(word.iter().all(|&s| s == 0));
    }

    #[test]
    fn encoding_is_linear() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let a: Vec<Symbol> = (0..9).map(|i| (i * 3 + 1) % 16).collect();
        let b: Vec<Symbol> = (0..9).map(|i| (i * 5 + 2) % 16).collect();
        let sum: Vec<Symbol> = a.iter().zip(&b).map(|(&x, &y)| f.add(x, y)).collect();
        let wa = code.encode(&a).unwrap();
        let wb = code.encode(&b).unwrap();
        let wsum = code.encode(&sum).unwrap();
        let xor: Vec<Symbol> = wa.iter().zip(&wb).map(|(&x, &y)| x ^ y).collect();
        assert_eq!(wsum, xor);
    }

    #[test]
    fn rejects_wrong_length_and_bad_symbols() {
        let code = RsCode::new(15, 9, 4).unwrap();
        assert!(matches!(
            code.encode(&[1, 2, 3]),
            Err(CodeError::DatawordLength {
                got: 3,
                expected: 9
            })
        ));
        let mut data = vec![0 as Symbol; 9];
        data[4] = 16; // out of GF(16)
        assert!(matches!(
            code.encode(&data),
            Err(CodeError::SymbolOutOfRange { index: 4, .. })
        ));
    }

    #[test]
    fn tables_have_the_documented_shapes() {
        for (n, k, m, shape) in [
            (18, 16, 8, (8, 1, 2)),
            (36, 16, 8, (8, 3, 2)),
            (7, 3, 3, (8, 1, 1)),
            (40, 30, 10, (4, 3, 3)),
            (24, 16, 16, (4, 2, 4)),
        ] {
            let code = RsCode::new(n, k, m).unwrap();
            let tables = code.parity_tables().unwrap();
            assert_eq!(
                (tables.lanes, tables.words, tables.nibbles),
                shape,
                "RS({n},{k}) over GF(2^{m})"
            );
            assert_eq!(table_shape(k, n - k, m), Some(shape));
            assert_eq!(tables.entries.len(), k * shape.2 * 16 * shape.1);
        }
        let rs18_16 = RsCode::new(18, 16, 8).unwrap();
        assert_eq!(rs18_16.parity_tables().unwrap().entries.len() * 8, 4096);
        // RS(65535,32767) over GF(2^16) would need about 137 GB.
        assert_eq!(table_shape(32_767, 32_768, 16), None);
        assert!(table_shape(223, 32, 8).is_some());
    }

    #[test]
    fn rows_and_tables_give_the_same_parity() {
        for (n, k, m) in [
            (18, 16, 8),
            (36, 16, 8),
            (7, 3, 3),
            (40, 30, 10),
            (24, 16, 16),
        ] {
            let code = RsCode::new(n, k, m).unwrap();
            let tables = code.parity_tables().unwrap();
            let size = code.field().size();
            for seed in 0..50u32 {
                let data: Vec<Symbol> = (0..k as u32)
                    .map(|i| {
                        ((i.wrapping_mul(2_654_435_761) ^ seed.wrapping_mul(40_503)) % size)
                            as Symbol
                    })
                    .collect();
                let mut from_tables = vec![0; n - k];
                tables.apply(&data, &mut from_tables);
                let mut from_rows = vec![7; n - k];
                parity_from_rows(
                    code.field(),
                    code.generator().coeffs(),
                    &data,
                    &mut from_rows,
                );
                assert_eq!(from_tables, from_rows, "RS({n},{k}) over GF(2^{m})");
                assert_eq!(&code.encode(&data).unwrap()[..n - k], &from_rows[..]);
            }
        }
    }

    #[test]
    fn shortened_code_matches_parent_code_prefix() {
        // RS(12,8) over GF(16) is RS(15,11) with three top data symbols zero.
        let short = RsCode::new(12, 8, 4).unwrap();
        let parent = RsCode::new(15, 11, 4).unwrap();
        let data: Vec<Symbol> = (1..=8).collect();
        let mut padded = data.clone();
        padded.extend_from_slice(&[0, 0, 0]);
        let sw = short.encode(&data).unwrap();
        let pw = parent.encode(&padded).unwrap();
        assert_eq!(&pw[..12], &sw[..]);
        assert!(pw[12..].iter().all(|&s| s == 0));
    }
}
