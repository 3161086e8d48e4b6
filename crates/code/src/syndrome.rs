//! Syndrome computation, and the multiply-by-root tables of its Horner
//! ladder.

use crate::RsCode;
use rsmem_gf::{GfField, Symbol};

/// The map `x ↦ c·x` for one constant `c` of a field, as split-byte
/// tables: `c·x = lo[x & 0xff] ^ hi[x >> 8]`, one branchless lookup pair
/// for every supported width (for `m ≤ 8` the `hi` half is identically
/// zero). [`GfField::mul`] is three dependent lookups per product; a
/// Horner ladder multiplies by the same root at every step, so each
/// code builds one table per generator root, once.
#[derive(Clone)]
pub(crate) struct MulTable {
    /// `lo[b] = c·b` for every low-byte value `b` that is a field
    /// element; entries above the field size are zero (never indexed).
    lo: Box<[Symbol; 256]>,
    /// `hi[b] = c·(b << 8)` for every high-byte value of a field
    /// element; identically zero when `m ≤ 8`.
    hi: Box<[Symbol; 256]>,
}

impl std::fmt::Debug for MulTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulTable").finish_non_exhaustive()
    }
}

impl MulTable {
    /// Builds the multiply-by-`c` table for `field` (512 multiplies).
    pub(crate) fn new(field: &GfField, c: Symbol) -> Self {
        debug_assert!(field.contains(c));
        let size = field.size() as usize;
        let mut lo = Box::new([0 as Symbol; 256]);
        let mut hi = Box::new([0 as Symbol; 256]);
        for b in 0..256usize.min(size) {
            lo[b] = field.mul(c, b as Symbol);
        }
        // High-byte partial products only exist for fields wider than a
        // byte; `b << 8` is a valid symbol exactly when `b < 2^(m-8)`.
        for b in 0..(size >> 8) {
            hi[b] = field.mul(c, (b << 8) as Symbol);
        }
        MulTable { lo, hi }
    }

    /// The product `c·x`.
    #[inline]
    pub(crate) fn mul(&self, x: Symbol) -> Symbol {
        self.lo[(x & 0xff) as usize] ^ self.hi[(x >> 8) as usize]
    }
}

/// Computes the `n − k` syndromes `S_j = r(α^{b+j})`, `j = 0..n−k`,
/// of the received word `r`.
///
/// All syndromes are zero iff `r` is a codeword.
pub fn syndromes(code: &RsCode, word: &[Symbol]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(code.parity_symbols());
    syndromes_into(code, word, &mut out);
    out
}

/// [`syndromes`] into a caller-owned buffer (cleared first).
pub(crate) fn syndromes_into(code: &RsCode, word: &[Symbol], out: &mut Vec<Symbol>) {
    out.clear();
    for table in code.syndrome_tables() {
        // Horner evaluation of the received polynomial at α^{b+j},
        // through the precomputed multiply-by-root table (identical
        // products to `field.mul`, one lookup instead of three).
        let mut acc: Symbol = 0;
        for &c in word.iter().rev() {
            acc = table.mul(acc) ^ c;
        }
        out.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (SplitMix64-style).
    struct Stream(u64);
    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn symbol(&mut self, field: &GfField) -> Symbol {
            (self.next() % u64::from(field.size())) as Symbol
        }
    }

    /// Every constant against every element, against the carry-less
    /// reference multiply.
    fn assert_tables_match_reference(m: u32) {
        let f = GfField::new(m).unwrap();
        for c in 0..f.size() as Symbol {
            let t = MulTable::new(&f, c);
            for x in 0..f.size() as Symbol {
                assert_eq!(t.mul(x), f.mul_reference(c, x), "m={m} c={c} x={x}");
            }
        }
    }

    #[test]
    fn table_matches_reference_exhaustively_gf16() {
        assert_tables_match_reference(4);
    }

    #[test]
    fn table_matches_reference_exhaustively_gf256() {
        assert_tables_match_reference(8);
    }

    #[test]
    fn mul_slice_matches_field_mul_on_wide_fields() {
        // Above m = 8 the product needs the high-byte table as well as the
        // low one; check the split-byte product on wide fields.
        let mut rng = Stream(0xFEED);
        for m in [9u32, 10, 12, 16] {
            let f = GfField::new(m).unwrap();
            for _ in 0..32 {
                let c = rng.symbol(&f);
                let t = MulTable::new(&f, c);
                for _ in 0..17 {
                    let x = rng.symbol(&f);
                    assert_eq!(t.mul(x), f.mul(c, x), "m={m} c={c} x={x}");
                }
            }
        }
    }

    #[test]
    fn zero_and_one_constants_behave() {
        let f = GfField::new(8).unwrap();
        let zero = MulTable::new(&f, 0);
        let one = MulTable::new(&f, 1);
        for x in 0..f.size() as Symbol {
            assert_eq!(zero.mul(x), 0);
            assert_eq!(one.mul(x), x);
        }
    }

    #[test]
    fn table_syndromes_match_direct_field_horner() {
        // The cached multiply-by-root tables must reproduce the plain
        // log/exp Horner ladder bit for bit.
        for (n, k, m, b) in [
            (15usize, 9usize, 4u32, 0u32),
            (18, 16, 8, 0),
            (36, 16, 8, 112),
        ] {
            let code = RsCode::with_first_root(n, k, m, b).unwrap();
            let f = code.field();
            let mut word: Vec<Symbol> = (0..n as u32)
                .map(|i| ((i * 37 + 11) % f.size()) as Symbol)
                .collect();
            word[n / 2] ^= 1;
            let got = syndromes(&code, &word);
            for (j, &s) in got.iter().enumerate() {
                let x = f.alpha_pow(b + j as u32);
                let mut acc: Symbol = 0;
                for &c in word.iter().rev() {
                    acc = f.mul(acc, x) ^ c;
                }
                assert_eq!(s, acc, "n={n} k={k} j={j}");
            }
        }
    }

    #[test]
    fn syndromes_of_codeword_are_zero() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = (0..9).map(|i| (i + 2) % 16).collect();
        let word = code.encode(&data).unwrap();
        assert!(syndromes(&code, &word).iter().all(|&s| s == 0));
    }

    #[test]
    fn single_error_syndromes_follow_locator_law() {
        // For e at position p with magnitude v: S_j = v · α^{p(b+j)}.
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let data = vec![0 as Symbol; 9];
        let mut word = code.encode(&data).unwrap();
        let (pos, val) = (7usize, 5 as Symbol);
        word[pos] ^= val;
        let syn = syndromes(&code, &word);
        for (j, &s) in syn.iter().enumerate() {
            let expect = f.mul(val, f.pow(f.alpha_pow(pos as u32), j as u64));
            assert_eq!(s, expect, "syndrome {j}");
        }
    }

    #[test]
    fn syndromes_are_linear_in_the_error() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let data: Vec<Symbol> = (10..26).collect();
        let word = code.encode(&data).unwrap();
        let mut e1 = word.clone();
        e1[3] ^= 0x21;
        let mut e2 = word.clone();
        e2[11] ^= 0x7;
        let mut e12 = word.clone();
        e12[3] ^= 0x21;
        e12[11] ^= 0x7;
        let s1 = syndromes(&code, &e1);
        let s2 = syndromes(&code, &e2);
        let s12 = syndromes(&code, &e12);
        for j in 0..s1.len() {
            assert_eq!(s12[j], s1[j] ^ s2[j]);
        }
    }
}
