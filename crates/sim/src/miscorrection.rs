//! Decoder mis-correction statistics.
//!
//! When the corruption exceeds the code's capability, an RS decoder
//! either *detects* the failure or silently "corrects" to a wrong
//! codeword. The paper's duplex arbiter is motivated precisely by
//! mis-correction ("correcting the erroneous word with yet another
//! erroneous codeword may occur"), yet its models treat the split between
//! detection and mis-correction implicitly. This module measures it:
//! inject `e` random symbol errors, decode, classify.
//!
//! For large fields the classical estimate is
//! `P(mis-correction | e > t errors) ≈ 1/t!` (Q_e ≈ fraction of syndrome
//! space covered by decoding spheres); the tests check the measured rates
//! against that order of magnitude.

use crate::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsmem_code::{DecodeOutcome, RsCode, Symbol};

/// Outcome counts for one `(code, error_weight)` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiscorrectionStats {
    /// Injected random symbol errors per trial.
    pub error_weight: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials decoded back to the original data (only possible while the
    /// weight is within capability).
    pub corrected: usize,
    /// Trials with a *detected* decoding failure.
    pub detected: usize,
    /// Trials that silently decoded to a *wrong* codeword.
    pub miscorrected: usize,
}

impl MiscorrectionStats {
    /// Fraction of trials that mis-corrected.
    pub fn miscorrection_rate(&self) -> f64 {
        self.miscorrected as f64 / self.trials as f64
    }
}

/// Measures decode outcomes under exactly `error_weight` random symbol
/// errors (distinct positions, uniform non-zero magnitudes), over
/// `trials` random datawords.
///
/// # Errors
///
/// [`SimError::NoTrials`] for zero trials, or
/// [`SimError::InvalidParameter`] when `error_weight > n`.
pub fn measure(
    code: &RsCode,
    error_weight: usize,
    trials: usize,
    seed: u64,
) -> Result<MiscorrectionStats, SimError> {
    if trials == 0 {
        return Err(SimError::NoTrials);
    }
    if error_weight > code.n() {
        return Err(SimError::InvalidParameter {
            name: "error_weight",
            value: error_weight as f64,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let size = code.field().size();
    let mut corrected = 0usize;
    let mut detected = 0usize;
    let mut miscorrected = 0usize;

    for _ in 0..trials {
        let data: Vec<Symbol> = (0..code.k())
            .map(|_| rng.gen_range(0..size) as Symbol)
            .collect();
        let mut word = code.encode(&data).expect("validated code");
        // Choose `error_weight` distinct positions.
        let mut positions: Vec<usize> = Vec::with_capacity(error_weight);
        while positions.len() < error_weight {
            let p = rng.gen_range(0..code.n());
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        for &p in &positions {
            let magnitude = rng.gen_range(1..size) as Symbol;
            word[p] ^= magnitude;
        }
        match code.decode(&word, &[]).expect("well-formed word") {
            DecodeOutcome::Failure(_) => detected += 1,
            out => {
                if out.data() == Some(&data[..]) {
                    corrected += 1;
                } else {
                    miscorrected += 1;
                }
            }
        }
    }
    Ok(MiscorrectionStats {
        error_weight,
        trials,
        corrected,
        detected,
        miscorrected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_capability_always_corrects() {
        let code = RsCode::new(15, 9, 4).unwrap(); // t = 3
        for e in 0..=3usize {
            let stats = measure(&code, e, 200, 1).unwrap();
            assert_eq!(stats.corrected, 200, "weight {e}");
            assert_eq!(stats.miscorrected, 0);
            assert_eq!(stats.detected, 0);
        }
    }

    #[test]
    fn beyond_capability_never_returns_the_original() {
        // With e = t + 1 errors the original codeword is at distance
        // t + 1 > t from the received word, so "corrected" is impossible.
        let code = RsCode::new(15, 9, 4).unwrap();
        let stats = measure(&code, 4, 300, 2).unwrap();
        assert_eq!(stats.corrected, 0);
        assert_eq!(stats.detected + stats.miscorrected, 300);
        // Most beyond-capability patterns are detected...
        assert!(stats.detected > stats.miscorrected);
        // ...but mis-correction genuinely occurs for this small field.
        assert!(
            stats.miscorrected > 0,
            "expected some mis-corrections in 300 trials of GF(16)"
        );
    }

    #[test]
    fn miscorrection_rate_tracks_inverse_t_factorial() {
        // Classical estimate: P(miscorrect) ≈ 1/t!. For RS(15,9), t = 3:
        // ≈ 1/6 ≈ 0.17. Accept a factor-of-2.5 band.
        let code = RsCode::new(15, 9, 4).unwrap();
        let stats = measure(&code, 5, 2000, 3).unwrap();
        let rate = stats.miscorrection_rate();
        assert!(
            (0.06..0.4).contains(&rate),
            "rate {rate} far from the 1/t! ≈ 0.17 estimate"
        );
    }

    #[test]
    fn narrow_paper_code_is_mostly_detecting() {
        // RS(18,16), t = 1: 1/t! = 1 would suggest frequent mis-correction
        // — but the estimate ignores the dominant shortening: only 18 of
        // 255 locator values are valid positions, so most 2-error
        // syndromes point outside the word and are detected. Measure it.
        let code = RsCode::new(18, 16, 8).unwrap();
        let stats = measure(&code, 2, 2000, 4).unwrap();
        let rate = stats.miscorrection_rate();
        assert!(rate > 0.0, "mis-correction must occur sometimes");
        assert!(
            rate < 0.25,
            "shortening keeps the RS(18,16) mis-correction rate low, got {rate}"
        );
    }

    #[test]
    fn input_validation() {
        let code = RsCode::new(15, 9, 4).unwrap();
        assert!(matches!(measure(&code, 2, 0, 0), Err(SimError::NoTrials)));
        assert!(measure(&code, 16, 10, 0).is_err());
    }
}
