//! Whole-memory composition of the per-word models.
//!
//! The paper analyses a single word and notes "the extension by
//! considering the whole memory is straightforward and does not affect
//! the ultimate correctness of the proposed models": with SEUs and
//! permanent faults striking words independently, a `W`-word memory
//! composes binomially from the per-word failure probability. This
//! module performs that composition with numerically careful tail
//! handling (per-word probabilities routinely sit at 1e-60 in the
//! paper's sweeps, where naive `(1−p)^W` evaluates to exactly 1).

use crate::ber::MemoryModel;
use crate::units::Time;
use crate::ModelError;
use rsmem_ctmc::uniformization::{transient, UniformizationOptions};
use rsmem_ctmc::StateSpace;

/// A memory of `words` independent, identically-protected words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryArray {
    words: u64,
}

impl MemoryArray {
    /// A memory of `words` codewords; `None` for an (ill-posed)
    /// zero-word memory.
    pub fn new(words: u64) -> Option<Self> {
        if words == 0 {
            None
        } else {
            Some(MemoryArray { words })
        }
    }

    /// Number of words.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Probability that *at least one* word of the array is failed at
    /// `t`, computed as `1 − (1−p)^W = −expm1(W·ln1p(−p))` for numerical
    /// stability at tiny `p`.
    ///
    /// # Errors
    ///
    /// Propagates model/solver errors.
    #[cfg(test)]
    pub fn any_word_fail_probability<M>(&self, model: &M, t: Time) -> Result<f64, ModelError>
    where
        M: MemoryModel,
    {
        let p = word_fail_probability(model, t)?;
        Ok(-f64::exp_m1(self.words as f64 * f64::ln_1p(-p)))
    }

    /// Expected number of failed words at `t` (`W·p`).
    ///
    /// # Errors
    ///
    /// Propagates model/solver errors.
    pub fn expected_failed_words<M>(&self, model: &M, t: Time) -> Result<f64, ModelError>
    where
        M: MemoryModel,
    {
        Ok(self.words as f64 * word_fail_probability(model, t)?)
    }

    /// The array-level BER equals the per-word Eq.-(1) BER (failures are
    /// i.i.d. across words, so the expected fraction of erroneous bits is
    /// unchanged); provided for API symmetry.
    ///
    /// # Errors
    ///
    /// Propagates model/solver errors.
    pub fn ber<M>(&self, model: &M, t: Time) -> Result<f64, ModelError>
    where
        M: MemoryModel,
    {
        let p = word_fail_probability(model, t)?;
        Ok(model.code_params().ber_prefactor() * p)
    }
}

/// Per-word fail probability at `t` — the quantity everything above
/// composes from.
///
/// # Errors
///
/// [`ModelError::InvalidTime`] or wrapped solver errors.
pub fn word_fail_probability<M>(model: &M, t: Time) -> Result<f64, ModelError>
where
    M: MemoryModel,
{
    if !t.is_valid() {
        return Err(ModelError::InvalidTime);
    }
    let space = StateSpace::explore(model)?;
    let p = transient(&space, t.as_days(), &UniformizationOptions::default())?;
    Ok(space.index_of(&model.fail_state()).map_or(0.0, |f| p[f]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{ErasureRate, SeuRate};
    use crate::{CodeParams, FaultRates, Scrubbing, SimplexModel};

    fn model(seu: f64, erasure: f64) -> SimplexModel {
        SimplexModel::new(
            CodeParams::rs18_16(),
            FaultRates {
                seu: SeuRate::per_bit_day(seu),
                erasure: ErasureRate::per_symbol_day(erasure),
            },
            Scrubbing::None,
        )
    }

    #[test]
    fn zero_words_rejected() {
        assert!(MemoryArray::new(0).is_none());
        assert_eq!(MemoryArray::new(1024).unwrap().words(), 1024);
    }

    #[test]
    fn single_word_array_matches_word_probability() {
        let m = model(1e-3, 0.0);
        let t = Time::from_days(2.0);
        let arr = MemoryArray::new(1).unwrap();
        let p_word = word_fail_probability(&m, t).unwrap();
        let p_any = arr.any_word_fail_probability(&m, t).unwrap();
        assert!((p_word - p_any).abs() < 1e-15);
    }

    #[test]
    fn small_p_composition_is_linear() {
        // With p·W ≪ 1, P(any) ≈ W·p; naive (1−p)^W would flush to 0
        // difference entirely at p ~ 1e-60.
        let m = model(0.0, 1e-9);
        let t = Time::from_days(2.0);
        let p = word_fail_probability(&m, t).unwrap();
        assert!(p > 0.0 && p < 1e-18, "p = {p:e}");
        let arr = MemoryArray::new(1 << 30).unwrap(); // a gigaword memory
        let any = arr.any_word_fail_probability(&m, t).unwrap();
        let expect = p * (1u64 << 30) as f64;
        assert!(
            ((any - expect) / expect).abs() < 1e-6,
            "any = {any:e}, W·p = {expect:e}"
        );
    }

    #[test]
    fn large_p_saturates_at_one() {
        let m = model(1.0, 0.0); // absurdly hostile environment
        let t = Time::from_days(2.0);
        let arr = MemoryArray::new(1000).unwrap();
        let any = arr.any_word_fail_probability(&m, t).unwrap();
        assert!(any > 0.999999);
        assert!(any <= 1.0);
    }

    #[test]
    fn expected_failures_scale_linearly_in_words() {
        let m = model(5e-3, 0.0);
        let t = Time::from_days(2.0);
        let e1 = MemoryArray::new(100)
            .unwrap()
            .expected_failed_words(&m, t)
            .unwrap();
        let e2 = MemoryArray::new(200)
            .unwrap()
            .expected_failed_words(&m, t)
            .unwrap();
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn array_ber_equals_word_ber() {
        let m = model(1e-3, 1e-5);
        let t = Time::from_days(2.0);
        let arr = MemoryArray::new(4096).unwrap();
        let word_curve = crate::ber::ber_curve(&m, &[t]).unwrap();
        assert!((arr.ber(&m, t).unwrap() - word_curve.ber[0]).abs() < 1e-18);
    }
}
