//! Bulk GF(2^m) data plane: per-constant multiply tables and the Horner
//! ladder steps of batched syndrome evaluation.
//!
//! The scalar [`GfField::mul`] is three dependent table lookups per
//! product — fine for the polynomial algebra of a single decode, but the
//! Monte-Carlo and stress hot loops evaluate the *same* constant (a
//! generator root) against long runs of symbols. A [`MulTable`] bakes a
//! constant `c` into a pair of 256-entry split-byte tables so that
//! `c·x = lo[x & 0xff] ^ hi[x >> 8]` — one branchless expression for every
//! supported width (for `m ≤ 8` the `hi` half is identically zero and the
//! expression degenerates to a single lookup).
//!
//! Two execution strategies implement the ladder, selected once at field
//! construction ([`GfField::bulk_kind`]):
//!
//! * [`BulkKind::Swar64`] (`m ≤ 8`) — eight 8-bit lanes packed into one
//!   `u64`, multiplied branchlessly: for each bit `k` of the operand,
//!   extract that bit of every lane (`(v >> k) & 0x0101…`), then
//!   broadcast the **pre-reduced** partial product `c·α^k` into exactly
//!   the lanes that had the bit set with one integer multiply. Every
//!   partial product is already `< 2^m ≤ 2^8`, so lane fields never
//!   carry into each other and no in-loop polynomial reduction is
//!   needed — `m` shift/and/mul/xor rounds multiply eight symbols.
//!   [`MulTable::horner_fold_packed`] runs it.
//! * [`BulkKind::Scalar`] (`m > 8`) — the split-byte tables, one symbol
//!   at a time ([`MulTable::horner_step`]).
//!
//! Both paths compute the *same field product* as [`GfField::mul`] (and
//! the carry-less [`GfField::mul_reference`] oracle); the exhaustive and
//! property tests at the bottom of this module pin that equivalence, which
//! is what lets `rsmem-code`'s batched syndrome plane promise bit-identical
//! decode outcomes.

use crate::{GfField, Symbol};

/// Execution strategy for the bulk Horner ladder, chosen once at field
/// construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BulkKind {
    /// Eight 8-bit lanes per `u64`, branchless partial-product broadcast.
    /// Selected for `m ≤ 8`, where a symbol always fits a byte lane.
    Swar64,
    /// Per-symbol split-byte table lookups. Selected for `m > 8`.
    Scalar,
}

/// Mask with bit 0 of every 8-bit lane set.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// A per-constant multiply table over one field: the partially evaluated
/// function `x ↦ c·x`, applied to whole slices.
///
/// Building one costs 512 scalar multiplies; using one is a single
/// branchless split-byte lookup per symbol (or an 8-lane SWAR broadcast
/// per `u64` on `m ≤ 8` fields). Callers that evaluate the same constant
/// against many symbols — Horner syndrome ladders, locator sweeps —
/// should build the table once and reuse it.
///
/// # Examples
///
/// ```
/// use rsmem_gf::{bulk::MulTable, GfField};
///
/// # fn main() -> Result<(), rsmem_gf::GfError> {
/// let f = GfField::new(8)?;
/// let t = MulTable::new(&f, 0x53);
/// assert_eq!(t.mul(0x01), 0x53);
/// assert_eq!(t.mul(0xca), f.mul(0x53, 0xca));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MulTable {
    /// Field width in bits (`m`); bounds the SWAR partial-product rounds.
    m: u32,
    /// Pre-reduced partial products `steps[k] = c · α^k` (i.e. `c · 2^k`
    /// reduced mod the primitive polynomial) for `k < m`. Populated only
    /// on `m ≤ 8` fields, where every entry fits a byte lane.
    steps: [u64; 8],
    /// Strategy inherited from the field at construction.
    kind: BulkKind,
    /// `lo[b] = c · b` for every low-byte value `b` that is a field
    /// element; entries above the field size are zero (never indexed).
    lo: Box<[Symbol; 256]>,
    /// `hi[b] = c · (b << 8)` for every high-byte value of a field
    /// element; identically zero when `m ≤ 8`.
    hi: Box<[Symbol; 256]>,
}

impl std::fmt::Debug for MulTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulTable")
            .field("m", &self.m)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl MulTable {
    /// Builds the multiply-by-`c` table for `field`.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert`) if `c` is not a symbol of `field`.
    pub fn new(field: &GfField, c: Symbol) -> Self {
        debug_assert!(field.contains(c));
        let size = field.size() as usize;
        let mut lo = Box::new([0 as Symbol; 256]);
        let mut hi = Box::new([0 as Symbol; 256]);
        for b in 0..256usize.min(size) {
            lo[b] = field.mul(c, b as Symbol);
        }
        // High-byte partial products only exist for fields wider than a
        // byte; `b << 8` is a valid symbol exactly when `b < 2^(m-8)`.
        if size > 256 {
            for b in 0..(size >> 8) {
                hi[b] = field.mul(c, (b << 8) as Symbol);
            }
        }
        let mut steps = [0u64; 8];
        if field.bulk_kind() == BulkKind::Swar64 {
            for (k, step) in steps.iter_mut().enumerate().take(field.bits() as usize) {
                *step = field.mul(c, 1 << k) as u64;
            }
        }
        MulTable {
            m: field.bits(),
            steps,
            kind: field.bulk_kind(),
            lo,
            hi,
        }
    }

    /// Single-symbol product `c·x` via the split-byte tables.
    #[inline]
    pub fn mul(&self, x: Symbol) -> Symbol {
        self.lo[(x & 0xff) as usize] ^ self.hi[(x >> 8) as usize]
    }

    /// The Horner ladder step `acc[i] ← c · acc[i] ^ coeff[i]` through the
    /// split-byte tables: the inner loop of batched syndrome evaluation
    /// on fields wider than a byte.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn horner_step(&self, acc: &mut [Symbol], coeff: &[Symbol]) {
        assert_eq!(acc.len(), coeff.len(), "horner_step length mismatch");
        for (a, c) in acc.iter_mut().zip(coeff.iter()) {
            *a = self.mul(*a) ^ c;
        }
    }

    /// The Horner ladder step on **byte-lane packed** `u64` words: returns
    /// `c · acc ⊕ coeff` on all eight byte lanes. Callers that keep eight
    /// symbols packed per `u64` across a whole Horner ladder (one root,
    /// one group of eight words) skip the per-step pack/unpack. The
    /// products are the same field products as [`MulTable::mul`], so
    /// results stay bit-identical to the scalar ladder.
    ///
    /// Only meaningful on `m ≤ 8` fields ([`BulkKind::Swar64`]);
    /// debug-asserts that the table belongs to one.
    #[inline]
    pub fn horner_fold_packed(&self, acc: u64, coeff: u64) -> u64 {
        debug_assert_eq!(
            self.kind,
            BulkKind::Swar64,
            "packed Horner requires an m ≤ 8 field"
        );
        self.swar_mul(acc) ^ coeff
    }

    /// Multiplies all eight byte lanes of `v` by the table's constant.
    ///
    /// Round `k` isolates bit `k` of every lane (`(v >> k) & LANE_LSB`
    /// leaves a 0/1 at each lane's LSB) and multiplies by the pre-reduced
    /// partial product `steps[k] = c·α^k`. The integer multiply broadcasts
    /// `steps[k]` into exactly the lanes whose bit was set; because every
    /// partial product is `< 2^8`, the per-lane products occupy disjoint
    /// byte fields and the additions inside `wrapping_mul` never carry
    /// across lanes. XOR-accumulating the rounds yields `c·x` in every
    /// lane with no branches and no in-loop reduction.
    /// The round count is a fixed 8 rather than `m` so the loop fully
    /// unrolls; rounds `k ≥ m` have `steps[k] = 0` and contribute
    /// nothing.
    #[inline(always)]
    fn swar_mul(&self, v: u64) -> u64 {
        let mut acc = 0u64;
        for (k, &step) in self.steps.iter().enumerate() {
            acc ^= ((v >> k) & LANE_LSB).wrapping_mul(step);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Symbols per SWAR word.
    const LANES: usize = 8;

    /// Packs eight symbols into the eight byte lanes of a `u64`.
    fn pack8(s: &[Symbol]) -> u64 {
        let mut v = 0u64;
        for (i, &x) in s.iter().enumerate() {
            v |= (x as u64) << (8 * i);
        }
        v
    }

    /// Unpacks the eight byte lanes of a `u64`.
    fn unpack8(r: u64) -> impl Iterator<Item = Symbol> {
        (0..LANES).map(move |i| ((r >> (8 * i)) & 0xff) as Symbol)
    }

    /// Deterministic pseudo-random symbol stream (SplitMix64-style).
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
            (self.next() % field.size() as u64) as Symbol
        }
    }

    #[test]
    fn kind_selection_matches_width() {
        for m in 2..=16u32 {
            let f = GfField::new(m).unwrap();
            let expect = if m <= 8 {
                BulkKind::Swar64
            } else {
                BulkKind::Scalar
            };
            assert_eq!(f.bulk_kind(), expect, "m={m}");
        }
    }

    #[test]
    fn table_matches_reference_exhaustively_gf16() {
        let f = GfField::new(4).unwrap();
        for c in f.elements() {
            let t = MulTable::new(&f, c);
            for x in f.elements() {
                assert_eq!(t.mul(x), f.mul_reference(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn table_matches_reference_exhaustively_gf256() {
        let f = GfField::new(8).unwrap();
        for c in f.elements() {
            let t = MulTable::new(&f, c);
            for x in f.elements() {
                assert_eq!(t.mul(x), f.mul_reference(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn swar_matches_reference_exhaustively_gf256() {
        // Every constant against the full element range through the
        // eight-lane SWAR multiply.
        let f = GfField::new(8).unwrap();
        let all: Vec<Symbol> = f.elements().collect();
        for c in f.elements() {
            let t = MulTable::new(&f, c);
            for chunk in all.chunks_exact(LANES) {
                let got = unpack8(t.swar_mul(pack8(chunk)));
                for (x, got) in chunk.iter().zip(got) {
                    assert_eq!(got, f.mul_reference(c, *x), "c={c} x={x}");
                }
            }
        }
    }

    #[test]
    fn swar_and_scalar_paths_agree_on_every_width_up_to_8() {
        // The SWAR chain must be indistinguishable from the split-byte
        // tables — same field product, any slice length (remainders!).
        let mut rng = Stream(0xB01D_FACE);
        for m in 2..=8u32 {
            let f = GfField::new(m).unwrap();
            for _ in 0..64 {
                let c = rng.symbol(&f);
                let t = MulTable::new(&f, c);
                let src: Vec<Symbol> = (0..LANES).map(|_| rng.symbol(&f)).collect();
                let via_swar: Vec<Symbol> = unpack8(t.swar_mul(pack8(&src))).collect();
                let via_tables: Vec<Symbol> = src.iter().map(|&x| t.mul(x)).collect();
                assert_eq!(via_swar, via_tables, "m={m} c={c}");
            }
        }
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
    fn horner_step_matches_scalar_ladder() {
        let mut rng = Stream(0x4042);
        for m in [4u32, 8, 10, 12, 16] {
            let f = GfField::new(m).unwrap();
            for _ in 0..32 {
                let c = rng.symbol(&f);
                let t = MulTable::new(&f, c);
                let len = 1 + (rng.next() % 13) as usize;
                let base: Vec<Symbol> = (0..len).map(|_| rng.symbol(&f)).collect();
                let coeff: Vec<Symbol> = (0..len).map(|_| rng.symbol(&f)).collect();
                let mut acc = base.clone();
                t.horner_step(&mut acc, &coeff);
                for i in 0..len {
                    assert_eq!(acc[i], f.mul(c, base[i]) ^ coeff[i], "m={m} i={i}");
                }
            }
        }
    }

    #[test]
    fn packed_horner_step_matches_symbol_horner_step() {
        let mut rng = Stream(0x9ACD);
        for m in 2..=8u32 {
            let f = GfField::new(m).unwrap();
            for _ in 0..32 {
                let c = rng.symbol(&f);
                let t = MulTable::new(&f, c);
                let words = 1 + (rng.next() % 5) as usize;
                let base: Vec<Symbol> = (0..words * LANES).map(|_| rng.symbol(&f)).collect();
                let coeff: Vec<Symbol> = (0..words * LANES).map(|_| rng.symbol(&f)).collect();
                let mut expect = base.clone();
                t.horner_step(&mut expect, &coeff);
                let mut acc_p: Vec<u64> = base.chunks_exact(LANES).map(pack8).collect();
                let coeff_p: Vec<u64> = coeff.chunks_exact(LANES).map(pack8).collect();
                for (a, &c) in acc_p.iter_mut().zip(&coeff_p) {
                    *a = t.horner_fold_packed(*a, c);
                }
                let got: Vec<Symbol> = acc_p.iter().flat_map(|&r| unpack8(r)).collect();
                assert_eq!(got, expect, "m={m} c={c} words={words}");
            }
        }
    }

    #[test]
    fn zero_and_one_constants_behave() {
        let f = GfField::new(8).unwrap();
        let zero = MulTable::new(&f, 0);
        let one = MulTable::new(&f, 1);
        for x in f.elements() {
            assert_eq!(zero.mul(x), 0);
            assert_eq!(one.mul(x), x);
        }
    }
}
