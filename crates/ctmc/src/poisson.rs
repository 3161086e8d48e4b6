//! Poisson probabilities and log-Gamma, in log space.
//!
//! Uniformization weights terms by `Poisson(n; Λt)`; for large `Λt` the
//! early weights underflow f64, so everything is carried as logarithms
//! until the final exponentiation (an underflowing term contributes less
//! than ~1e-323 to a probability and may safely flush to zero).

/// Natural log of the Gamma function via the Lanczos approximation
/// (g = 7, n = 9), accurate to ~1e-13 over the positive reals.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    debug_assert!(x > 0.0, "ln_gamma domain");
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(n!)` computed through [`ln_gamma`].
pub(crate) fn ln_factorial(n: u64) -> f64 {
    // Small values exactly, via a compact table filled on first principles.
    const TABLE: [f64; 16] = [
        0.0,
        0.0,
        std::f64::consts::LN_2, // ln 2! = ln 2
        1.791_759_469_228_055,
        3.178_053_830_347_945_8,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_89,
    ];
    if (n as usize) < TABLE.len() {
        TABLE[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// `ln P[N = n]` for `N ~ Poisson(mean)`.
///
/// Returns `-inf` for `mean == 0, n > 0`; `0.0` for `mean == 0, n == 0`.
pub fn poisson_ln_pmf(n: u64, mean: f64) -> f64 {
    debug_assert!(mean >= 0.0);
    if mean == 0.0 {
        return if n == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    n as f64 * mean.ln() - mean - ln_factorial(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-11);
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((ln_gamma(0.5) - sqrt_pi.ln()).abs() < 1e-11);
    }

    #[test]
    fn ln_factorial_consistent_with_recurrence() {
        for n in 1..60u64 {
            let expect = ln_factorial(n - 1) + (n as f64).ln();
            assert!(
                (ln_factorial(n) - expect).abs() < 1e-9,
                "n={n}: {} vs {}",
                ln_factorial(n),
                expect
            );
        }
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        for &mean in &[0.1f64, 1.0, 7.3, 42.0] {
            let total: f64 = (0u64..)
                .take_while(|&n| (n as f64) < mean + 40.0 * (mean.sqrt() + 1.0))
                .map(|n| poisson_ln_pmf(n, mean).exp())
                .sum();
            assert!((total - 1.0).abs() < 1e-10, "mean={mean} total={total}");
        }
    }

    #[test]
    fn poisson_zero_mean_degenerates() {
        assert_eq!(poisson_ln_pmf(0, 0.0), 0.0);
        assert_eq!(poisson_ln_pmf(3, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn large_mean_weights_are_finite_and_peak_near_mean() {
        let mean = 900.0;
        let w_peak = poisson_ln_pmf(900, mean).exp();
        // exp(−900) is beyond the f64 floor (~exp(−745)): flushes to zero.
        let w_early = poisson_ln_pmf(0, mean).exp();
        assert!(w_peak > 0.0 && w_peak < 1.0);
        assert_eq!(w_early, 0.0); // underflows, by design
                                  // ...but its logarithm is exact.
        assert_eq!(poisson_ln_pmf(0, mean), -900.0);
    }
}
