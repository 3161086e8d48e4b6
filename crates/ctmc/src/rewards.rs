//! Cumulative (reward) measures: expected time spent in each state.
//!
//! For a CTMC with distribution `p(s)`, the expected total time spent in
//! state `j` during `[0, t]` is `L_j(t) = ∫₀ᵗ p_j(s) ds`. Uniformization
//! gives the classical series
//!
//! ```text
//! L(t) = (1/Λ) Σ_{n≥0} P[N > n] · v_n,      N ~ Poisson(Λt),
//! ```
//!
//! again with all-non-negative terms. These measures feed availability
//! analysis (expected operational time of a memory arrangement) and
//! scrubbing-overhead economics in the layers above.

use crate::model::StateSpace;
use crate::poisson::poisson_ln_pmf;
use crate::CtmcError;
use std::fmt::Debug;
use std::hash::Hash;

/// Options for the cumulative-time solver.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardOptions {
    /// Per-component relative truncation tolerance (default `1e-12`).
    pub rel_tol: f64,
    /// Hard cap on series terms (default `5_000_000`).
    pub max_terms: usize,
}

impl Default for RewardOptions {
    fn default() -> Self {
        RewardOptions {
            rel_tol: 1e-12,
            max_terms: 5_000_000,
        }
    }
}

/// Expected time spent in each state over `[0, t]`, starting from the
/// initial point mass. The entries sum to `t`.
///
/// # Errors
///
/// [`CtmcError::InvalidTime`] for bad `t`;
/// [`CtmcError::NotConverged`] if the term cap is exhausted.
pub fn expected_time_in_states<S>(
    space: &StateSpace<S>,
    t: f64,
    opts: &RewardOptions,
) -> Result<Vec<f64>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    if !(t.is_finite() && t >= 0.0) {
        return Err(CtmcError::InvalidTime { time: t });
    }
    let n_states = space.len();
    let mut acc = vec![0.0; n_states];
    if t == 0.0 {
        return Ok(acc);
    }
    let lambda = space.max_exit_rate();
    if lambda == 0.0 {
        acc[space.initial_index()] = t;
        return Ok(acc);
    }
    let mean = lambda * t;
    let step = space.uniformized_step();
    let mut v = space.initial_distribution();
    let mut v_next = vec![0.0; n_states];

    // Tail probabilities P[N > n]. The subtractive recurrence
    // P[N > n] = P[N > n−1] − pmf(n) is exact to rounding but bottoms out
    // at ~1e-16 absolute error, which would stall convergence; past the
    // mode we therefore cap it with the geometric tail bound
    // P[N > n] ≤ pmf(n+1)·(n+2)/(n+2−mean), which decays to true zero.
    let mut tail = 1.0f64;
    let n_min = (mean.ceil() as usize).max(n_states.min(10_000));
    let mut streak = 0u32;

    for n in 0..opts.max_terms {
        let pmf = poisson_ln_pmf(n as u64, mean).exp();
        tail = (tail - pmf).max(0.0);
        let next = (n + 2) as f64;
        if next > mean {
            let pmf_next = poisson_ln_pmf(n as u64 + 1, mean).exp();
            let geometric = pmf_next * next / (next - mean);
            tail = tail.min(geometric);
        }
        let w = tail / lambda;
        let mut small = true;
        if w > 0.0 {
            for j in 0..n_states {
                let delta = w * v[j];
                acc[j] += delta;
                if delta > opts.rel_tol * acc[j] {
                    small = false;
                }
            }
        }
        if n >= n_min && (n as f64) > mean {
            if small {
                streak += 1;
                if streak >= 3 {
                    return Ok(acc);
                }
            } else {
                streak = 0;
            }
        }
        // v ← v·P (the transient solver's step).
        step.apply(&v, &mut v_next);
        std::mem::swap(&mut v, &mut v_next);
    }
    Err(CtmcError::NotConverged {
        iterations: opts.max_terms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarkovModel;

    struct TwoState {
        lambda: f64,
    }
    impl MarkovModel for TwoState {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            if *s == 0 {
                out.push((1, self.lambda));
            }
        }
    }

    #[test]
    fn two_state_expected_times_match_closed_form() {
        // L_good(t) = (1 − e^{−λt})/λ; L_fail(t) = t − L_good(t).
        let lam = 0.4;
        let space = StateSpace::explore(&TwoState { lambda: lam }).unwrap();
        for &t in &[0.5, 2.0, 10.0] {
            let l = expected_time_in_states(&space, t, &RewardOptions::default()).unwrap();
            let lg = (1.0 - (-lam * t).exp()) / lam;
            assert!((l[0] - lg).abs() < 1e-9, "t={t}: {} vs {lg}", l[0]);
            assert!((l[1] - (t - lg)).abs() < 1e-9);
        }
    }

    #[test]
    fn times_sum_to_horizon() {
        let space = StateSpace::explore(&TwoState { lambda: 3.0 }).unwrap();
        let t = 7.0;
        let l = expected_time_in_states(&space, t, &RewardOptions::default()).unwrap();
        let total: f64 = l.iter().sum();
        assert!((total - t).abs() < 1e-8, "{total}");
    }

    #[test]
    fn zero_horizon_gives_zero_times() {
        let space = StateSpace::explore(&TwoState { lambda: 1.0 }).unwrap();
        let l = expected_time_in_states(&space, 0.0, &RewardOptions::default()).unwrap();
        assert_eq!(l, vec![0.0, 0.0]);
    }

    #[test]
    fn no_dynamics_accumulates_in_initial_state() {
        let space = StateSpace::explore(&TwoState { lambda: 0.0 }).unwrap();
        let l = expected_time_in_states(&space, 5.0, &RewardOptions::default()).unwrap();
        assert_eq!(l[0], 5.0);
    }

    #[test]
    fn invalid_time_rejected() {
        let space = StateSpace::explore(&TwoState { lambda: 1.0 }).unwrap();
        assert!(expected_time_in_states(&space, -1.0, &RewardOptions::default()).is_err());
    }

    /// Numerical cross-check against the trapezoid rule on the transient
    /// distribution.
    #[test]
    fn matches_quadrature_of_transient() {
        use crate::uniformization::{transient, UniformizationOptions};
        struct Cycle;
        impl MarkovModel for Cycle {
            type State = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
                match s {
                    0 => out.push((1, 2.0)),
                    1 => {
                        out.push((0, 1.0));
                        out.push((2, 0.3))
                    }
                    _ => {}
                }
            }
        }
        let space = StateSpace::explore(&Cycle).unwrap();
        let t = 4.0;
        let l = expected_time_in_states(&space, t, &RewardOptions::default()).unwrap();
        // Trapezoid over a fine grid.
        let steps = 4000;
        let h = t / steps as f64;
        let mut quad = vec![0.0; space.len()];
        let opts = UniformizationOptions::default();
        let times: Vec<f64> = (0..=steps).map(|i| i as f64 * h).collect();
        let grid = crate::uniformization::transient_grid(&space, &times, &opts).unwrap();
        for i in 0..steps {
            for j in 0..space.len() {
                quad[j] += 0.5 * h * (grid[i][j] + grid[i + 1][j]);
            }
        }
        let _ = transient(&space, t, &opts).unwrap();
        for j in 0..space.len() {
            assert!(
                (l[j] - quad[j]).abs() < 1e-5,
                "state {j}: {} vs {}",
                l[j],
                quad[j]
            );
        }
    }
}
