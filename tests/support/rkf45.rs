//! An ODE integrator for the Kolmogorov forward equations `p'(t) = p(t)·Q`,
//! shared by the solver tests.
//!
//! This is a *cross-check* solver: it trades the non-negativity
//! guarantee of `rsmem_ctmc::uniformization` for genericity, and the
//! tests use it as an independent oracle for that primary solver.
//! Absolute accuracy is limited to roughly the integrator tolerance, so
//! it is not suitable for the 1e-200-probability regime.
//!
//! A test includes this file as a module,
//! `#[path = "<relative path>/tests/support/rkf45.rs"] mod rkf45;`.

use rsmem_ctmc::{CtmcError, StateSpace};
use std::fmt::Debug;
use std::hash::Hash;

/// Options for the adaptive RKF45 integrator.
#[derive(Debug, Clone, PartialEq)]
pub struct Rkf45Options {
    /// Local truncation error tolerance per unit step (default `1e-10`).
    pub tol: f64,
    /// Initial step size as a fraction of `t` (default `1e-3`).
    pub initial_step_fraction: f64,
    /// Hard cap on accepted+rejected steps (default `10_000_000`).
    pub max_steps: usize,
}

impl Default for Rkf45Options {
    fn default() -> Self {
        Rkf45Options {
            tol: 1e-10,
            initial_step_fraction: 1e-3,
            max_steps: 10_000_000,
        }
    }
}

fn check_time(t: f64) -> Result<(), CtmcError> {
    if !(t.is_finite() && t >= 0.0) {
        return Err(CtmcError::InvalidTime { time: t });
    }
    Ok(())
}

/// Integrates `p' = p·Q` with the adaptive Runge–Kutta–Fehlberg 4(5) pair.
///
/// # Errors
///
/// [`CtmcError::InvalidTime`] for bad `t`;
/// [`CtmcError::NotConverged`] if the step budget is exhausted.
pub fn rkf45<S>(space: &StateSpace<S>, t: f64, opts: &Rkf45Options) -> Result<Vec<f64>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    check_time(t)?;
    let mut p = space.initial_distribution();
    if t == 0.0 || space.max_exit_rate() == 0.0 {
        return Ok(p);
    }

    // Fehlberg coefficients.
    const A: [[f64; 5]; 5] = [
        [1.0 / 4.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
        [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
        [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
        [
            -8.0 / 27.0,
            2.0,
            -3544.0 / 2565.0,
            1859.0 / 4104.0,
            -11.0 / 40.0,
        ],
    ];
    const B4: [f64; 6] = [
        25.0 / 216.0,
        0.0,
        1408.0 / 2565.0,
        2197.0 / 4104.0,
        -1.0 / 5.0,
        0.0,
    ];
    const B5: [f64; 6] = [
        16.0 / 135.0,
        0.0,
        6656.0 / 12825.0,
        28561.0 / 56430.0,
        -9.0 / 50.0,
        2.0 / 55.0,
    ];

    let n = p.len();
    let mut time = 0.0;
    let mut h = (t * opts.initial_step_fraction).max(t * 1e-12);
    let mut steps_used = 0usize;

    while time < t {
        if steps_used >= opts.max_steps {
            return Err(CtmcError::NotConverged {
                iterations: steps_used,
            });
        }
        steps_used += 1;
        if time + h > t {
            h = t - time;
        }
        let mut k: Vec<Vec<f64>> = Vec::with_capacity(6);
        k.push(space.apply_generator(&p)?);
        for a_row in A.iter().take(5) {
            let mut y = p.clone();
            for (s, krow) in k.iter().enumerate() {
                let a = a_row[s];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    y[j] += h * a * krow[j];
                }
            }
            k.push(space.apply_generator(&y)?);
        }
        // 4th- and 5th-order estimates.
        let mut y4 = p.clone();
        let mut y5 = p.clone();
        for (s, krow) in k.iter().enumerate() {
            for j in 0..n {
                y4[j] += h * B4[s] * krow[j];
                y5[j] += h * B5[s] * krow[j];
            }
        }
        let err: f64 = y4
            .iter()
            .zip(&y5)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        let tol_h = opts.tol * h.max(f64::MIN_POSITIVE);
        if err <= tol_h || h <= t * 1e-14 {
            time += h;
            p = y5;
        }
        // Step-size controller.
        let factor = if err == 0.0 {
            4.0
        } else {
            0.84 * (tol_h / err).powf(0.25)
        };
        h *= factor.clamp(0.1, 4.0);
    }
    Ok(p)
}
