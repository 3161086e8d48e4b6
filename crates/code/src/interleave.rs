//! Symbol interleaving across codewords.
//!
//! The paper's Markov models assume SEUs corrupt a single symbol
//! ("random errors on the same symbol are not considered" — and no
//! multi-symbol events at all). Real SEUs in dense memories can flip
//! several *adjacent* bits (multi-bit upsets, MBUs); if those bits span a
//! symbol boundary they produce two erroneous symbols in one codeword and
//! break the model's single-symbol assumption.
//!
//! The standard hardware countermeasure is **interleaving**: store the
//! symbols of `depth` different codewords round-robin, so physically
//! adjacent symbols belong to different words and an MBU degrades into
//! independent single-symbol errors — restoring the model's assumption.
//! The `rsmem-sim` array simulator uses this module to quantify the
//! effect (see `tests/array_vs_model.rs` and
//! `examples/mbu_interleaving.rs`).

use crate::{CodeError, Symbol};

/// A symbol-level round-robin interleaver over `depth` codewords.
///
/// Physical position `p` holds symbol `p / depth` of word `p % depth`.
///
/// # Examples
///
/// ```
/// use rsmem_code::Interleaver;
///
/// # fn main() -> Result<(), rsmem_code::CodeError> {
/// let il = Interleaver::new(2)?;
/// let words = vec![vec![1u16, 2, 3], vec![9, 8, 7]];
/// let physical = il.interleave(&words)?;
/// assert_eq!(physical, vec![1, 9, 2, 8, 3, 7]);
/// assert_eq!(il.deinterleave(&physical, 3)?, words);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interleaver {
    depth: usize,
}

impl Interleaver {
    /// Creates an interleaver of the given depth (≥ 1; depth 1 is the
    /// identity layout).
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameters`] for `depth == 0`.
    pub fn new(depth: usize) -> Result<Self, CodeError> {
        if depth == 0 {
            return Err(CodeError::InvalidParameters {
                n: 0,
                k: 0,
                m: 0,
                reason: "interleaver depth must be at least 1",
            });
        }
        Ok(Interleaver { depth })
    }

    /// The interleaving depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Interleaves exactly `depth` equal-length words into one physical
    /// symbol sequence.
    ///
    /// # Errors
    ///
    /// [`CodeError::CodewordLength`] when the word count differs from the
    /// depth or the words have unequal lengths.
    pub fn interleave(&self, words: &[Vec<Symbol>]) -> Result<Vec<Symbol>, CodeError> {
        if words.len() != self.depth {
            return Err(CodeError::CodewordLength {
                got: words.len(),
                expected: self.depth,
            });
        }
        let len = words.first().map_or(0, Vec::len);
        for w in words {
            if w.len() != len {
                return Err(CodeError::CodewordLength {
                    got: w.len(),
                    expected: len,
                });
            }
        }
        let mut out = Vec::with_capacity(len * self.depth);
        for i in 0..len {
            for w in words {
                out.push(w[i]);
            }
        }
        Ok(out)
    }

    /// Inverse of [`Interleaver::interleave`].
    ///
    /// # Errors
    ///
    /// [`CodeError::CodewordLength`] when `physical.len()` is not
    /// `depth × word_len`.
    pub fn deinterleave(
        &self,
        physical: &[Symbol],
        word_len: usize,
    ) -> Result<Vec<Vec<Symbol>>, CodeError> {
        if physical.len() != word_len * self.depth {
            return Err(CodeError::CodewordLength {
                got: physical.len(),
                expected: word_len * self.depth,
            });
        }
        let mut words = vec![Vec::with_capacity(word_len); self.depth];
        for (p, &s) in physical.iter().enumerate() {
            words[p % self.depth].push(s);
        }
        Ok(words)
    }

    /// Maps a physical symbol index to `(word, symbol)` coordinates.
    pub fn locate(&self, physical_index: usize) -> (usize, usize) {
        (physical_index % self.depth, physical_index / self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_zero_rejected() {
        assert!(Interleaver::new(0).is_err());
    }

    #[test]
    fn identity_at_depth_one() {
        let il = Interleaver::new(1).unwrap();
        let w = vec![vec![5u16, 6, 7]];
        assert_eq!(il.interleave(&w).unwrap(), vec![5, 6, 7]);
        assert_eq!(il.deinterleave(&[5, 6, 7], 3).unwrap(), w);
    }

    #[test]
    fn roundtrip_depth_four() {
        let il = Interleaver::new(4).unwrap();
        let words: Vec<Vec<Symbol>> = (0..4)
            .map(|w| (0..6).map(|i| (w * 10 + i) as Symbol).collect())
            .collect();
        let phys = il.interleave(&words).unwrap();
        assert_eq!(phys.len(), 24);
        assert_eq!(il.deinterleave(&phys, 6).unwrap(), words);
    }

    #[test]
    fn adjacent_physical_symbols_hit_distinct_words() {
        let il = Interleaver::new(3).unwrap();
        for p in 0..30 {
            let (w1, _) = il.locate(p);
            let (w2, _) = il.locate(p + 1);
            assert_ne!(w1, w2, "adjacent physical symbols share word at {p}");
        }
    }

    #[test]
    fn locate_matches_interleave_layout() {
        let il = Interleaver::new(2).unwrap();
        let words = vec![vec![10u16, 11], vec![20, 21]];
        let phys = il.interleave(&words).unwrap();
        for (p, &s) in phys.iter().enumerate() {
            let (w, i) = il.locate(p);
            assert_eq!(words[w][i], s);
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let il = Interleaver::new(2).unwrap();
        assert!(il.interleave(&[vec![1]]).is_err());
        assert!(il.interleave(&[vec![1], vec![2, 3]]).is_err());
        assert!(il.deinterleave(&[1, 2, 3], 2).is_err());
    }
}
