//! Transient CTMC solution by uniformization (Jensen's method).
//!
//! The transient distribution is expanded as
//!
//! ```text
//! p(t) = Σ_n Poisson(n; Λt) · p(0)·Pⁿ,      P = I + Q/Λ,  Λ ≥ max exit rate
//! ```
//!
//! Every quantity in the iteration is **non-negative**, so there is no
//! cancellation and each component of `p(t)` is computed with full
//! floating-point *relative* accuracy down to the denormal floor. This is
//! the property that lets the paper's Figures 8–10 (fail probabilities of
//! 1e-30 … 1e-200) come out of a plain f64 solver.
//!
//! The power sequence `p(0)·Pⁿ` does not depend on `t`, so a whole time
//! grid is evaluated in one pass ([`transient_grid`]).
//!
//! # Performance
//!
//! The solver is engineered around four hot-path properties:
//!
//! 1. **Allocation-free iteration.** All per-term scratch lives in a
//!    reusable [`UniformizationWorkspace`]; a grid solve's heap traffic
//!    is independent of the number of Poisson terms (only the returned
//!    distributions are allocated). Sweeps solving many grids pass one
//!    workspace to [`transient_grid_with`] and reuse its buffers.
//! 2. **Recurrent Poisson weights.** Weights advance by
//!    `ln w_{n+1} = ln w_n + ln(Λt) − ln(n+1)` — one `exp` per active
//!    term instead of a full log-gamma evaluation — and are resynced
//!    against [`poisson_ln_pmf`] every 64 terms so rounding
//!    drift stays far below the truncation tolerance.
//! 3. **Row-grouped gather mat-vec.** `v·P` gathers each output
//!    component's inflow from a row of the state space's transposed
//!    rates ([`StateSpace::rates_transposed`]), fused with the diagonal
//!    term (no scattered writes, no inflow buffer). The rows are planned
//!    once per space: stable-sorted by length, and each run of
//!    equal-length rows cut into groups of eight stored lane-interleaved,
//!    so a group runs eight independent add chains with one fixed trip
//!    count instead of one short serial chain per row. Rows that fill no
//!    whole group run one at a time. Each row still adds its terms in
//!    the same order with nothing padded, and `1 − exit_j/Λ` is the same
//!    expression evaluated once per space, so the step is bit-identical
//!    to a plain per-row gather.
//! 4. **Projected output.** A caller that reads only some components of
//!    `p(t)` (a BER curve reads `P_Fail`) asks
//!    [`transient_grid_projected`] for just those. A time point whose
//!    Poisson weight has underflowed to exactly zero by the first
//!    convergence test accumulates only the requested components; every
//!    other point still accumulates the whole vector (its convergence
//!    test reads every component) and is projected on return. Results
//!    are bit-identical to projecting the full solve: the cut-off is a
//!    log-weight of −800, 54 nats below where `exp` underflows to zero.
//!
//! The per-term scalar work is shared across the grid: `ln n` is taken
//! once per term, `exp` is skipped where it would return zero anyway,
//! and the convergence flag folds without a branch so the full-vector
//! accumulation vectorises. None of this changes an arithmetic
//! operation, so every result is bit-identical to the plain series.

use crate::model::StateSpace;
use crate::poisson::poisson_ln_pmf;
use crate::step::UniformizedStep;
use crate::CtmcError;
use rsmem_obs::metrics::{global, Counter, Histogram};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::OnceLock;

/// Terms between exact recomputations of the recurrent log-weights.
const LN_W_RESYNC: usize = 64;

/// Below this log-weight `exp` returns exactly zero: the smallest
/// subnormal is `e^−744.44`, and anything under half of it (`e^−745.13`)
/// rounds to zero. The solver skips the `exp` call there.
const LN_W_UNDERFLOW: f64 = -746.0;

/// A time point with `ln Poisson(n_min; Λt) <` this bound has weight
/// exactly zero at every term that runs a convergence test: the bound
/// sits 54 nats below [`LN_W_UNDERFLOW`], far beyond the recurrence's
/// rounding drift, and past the Poisson mode (`n_min ≥ Λt`) the weights
/// only decrease. Such a point's test always sees "small", so it
/// converges at `n_min + 2` whatever its accumulated components hold
/// and needs only the components the caller asked for.
const LN_W_PROJECT: f64 = -800.0;
const _: () = assert!(LN_W_PROJECT < LN_W_UNDERFLOW);

/// Bucket bounds for the per-time-point series-length histogram: the
/// truncation point grows with Λt, so powers of four cover everything
/// from a trivial two-state solve to a 1M-term deep-grid run.
const TERMS_BUCKETS: &[u64] = &[16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1_048_576];

/// Cached handles into the global metrics registry, resolved once so
/// the solver's bookkeeping is plain atomic adds (no registry lock and
/// no allocation on the hot path — the crate's `alloc_count` test
/// covers an instrumented solve).
struct SolverMetrics {
    solves: Counter,
    terms: Histogram,
}

fn solver_metrics() -> &'static SolverMetrics {
    static METRICS: OnceLock<SolverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = global();
        SolverMetrics {
            solves: registry.counter("rsmem_solver_uniformization_solves_total", &[]),
            terms: registry.histogram("rsmem_solver_uniformization_terms", &[], TERMS_BUCKETS),
        }
    })
}

/// Eagerly registers the uniformization metric families in the global
/// registry so a `/metrics` scrape sees them (zero-valued) before the
/// first solve runs.
pub fn register_metrics() {
    let _ = solver_metrics();
}

/// Options for the uniformization solver.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformizationOptions {
    /// Target per-component relative truncation error (default `1e-12`).
    pub rel_tol: f64,
    /// Hard cap on the number of series terms (default `5_000_000`).
    pub max_terms: usize,
}

impl Default for UniformizationOptions {
    fn default() -> Self {
        UniformizationOptions {
            rel_tol: 1e-12,
            max_terms: 5_000_000,
        }
    }
}

/// Reusable scratch for the uniformization iteration: the double-buffered
/// power-sequence vectors plus per-time-point bookkeeping.
///
/// A workspace may be reused across solves of *different* chains and
/// grids; buffers are resized (never shrunk) on entry. Reuse makes a
/// sweep's allocation count independent of both the term count and the
/// number of grids solved.
#[derive(Debug, Clone, Default)]
pub struct UniformizationWorkspace {
    /// Current power-sequence vector `p(0)·Pⁿ`.
    v: Vec<f64>,
    /// Write buffer for `v·P`, swapped with `v` each term.
    next: Vec<f64>,
    /// Poisson mean `Λ·t` per time point.
    means: Vec<f64>,
    /// `ln(Λ·t)` per time point (the recurrence increment numerator).
    ln_mean: Vec<f64>,
    /// Recurrent `ln w_n` per time point.
    ln_w: Vec<f64>,
    /// Time points whose series has converged.
    converged: Vec<bool>,
    /// Consecutive below-tolerance terms per time point.
    streak: Vec<u32>,
    /// Where each time point accumulates its terms.
    acc: Vec<Accumulator>,
    /// Full-length accumulators of the points a projected solve must
    /// still sum in full, `n_states` each.
    scratch: Vec<f64>,
}

/// Where a time point's series accumulates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Accumulator {
    /// Every component, straight into the returned row (full solve).
    Output,
    /// Every component, into `scratch[offset..offset + n_states]`; the
    /// requested components are copied out on return.
    Scratch(usize),
    /// Only the requested components, into the returned row.
    Selected,
}

impl UniformizationWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes and resets every buffer for a solve of `n_states` states
    /// over `n_times` time points.
    fn prepare(&mut self, p0: &[f64], n_times: usize) {
        self.v.clear();
        self.v.extend_from_slice(p0);
        self.next.clear();
        self.next.resize(p0.len(), 0.0);
        self.means.clear();
        self.means.resize(n_times, 0.0);
        self.ln_mean.clear();
        self.ln_mean.resize(n_times, 0.0);
        self.ln_w.clear();
        self.ln_w.resize(n_times, 0.0);
        self.converged.clear();
        self.converged.resize(n_times, false);
        self.streak.clear();
        self.streak.resize(n_times, 0);
        self.acc.clear();
        self.acc.resize(n_times, Accumulator::Output);
        self.scratch.clear();
    }
}

/// Computes `p(t)` from the point-mass initial distribution.
///
/// # Errors
///
/// [`CtmcError::InvalidTime`] for negative/non-finite `t`;
/// [`CtmcError::NotConverged`] if `max_terms` is exhausted.
pub fn transient<S>(
    space: &StateSpace<S>,
    t: f64,
    opts: &UniformizationOptions,
) -> Result<Vec<f64>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    let p0 = space.initial_distribution();
    let mut grid = transient_grid_from(space, &p0, &[t], opts)?;
    Ok(grid.pop().expect("one time point"))
}

/// Computes `p(t)` for every `t` in `times` in a single pass over the
/// uniformized power sequence (one sparse mat-vec per term, shared across
/// the whole grid).
///
/// # Errors
///
/// See [`transient`].
pub fn transient_grid<S>(
    space: &StateSpace<S>,
    times: &[f64],
    opts: &UniformizationOptions,
) -> Result<Vec<Vec<f64>>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    let p0 = space.initial_distribution();
    transient_grid_from(space, &p0, times, opts)
}

/// [`transient_grid`] from an arbitrary initial distribution.
///
/// # Errors
///
/// See [`transient`].
pub fn transient_grid_from<S>(
    space: &StateSpace<S>,
    p0: &[f64],
    times: &[f64],
    opts: &UniformizationOptions,
) -> Result<Vec<Vec<f64>>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    transient_grid_with(space, p0, times, opts, &mut UniformizationWorkspace::new())
}

/// [`transient_grid_from`] with caller-owned scratch: sweeps that solve
/// many grids reuse one [`UniformizationWorkspace`] so their allocation
/// count stays constant across solves.
///
/// # Errors
///
/// See [`transient`].
pub fn transient_grid_with<S>(
    space: &StateSpace<S>,
    p0: &[f64],
    times: &[f64],
    opts: &UniformizationOptions,
    ws: &mut UniformizationWorkspace,
) -> Result<Vec<Vec<f64>>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    solve(space.uniformized_step(), p0, times, None, opts, ws)
}

/// The components `states` of `p(t)` from the point-mass initial
/// distribution, for every `t` in `times`: row `k` holds
/// `[p(times[k])[states[0]], p(times[k])[states[1]], …]`.
///
/// Bit-identical to picking those components out of
/// [`transient_grid`], but time points whose series is still summing
/// when the others converge skip the unrequested components (see the
/// module docs). A BER curve asks for the Fail state alone.
///
/// # Errors
///
/// As [`transient`], plus [`CtmcError::StateOutOfRange`].
pub fn transient_grid_projected<S>(
    space: &StateSpace<S>,
    times: &[f64],
    states: &[usize],
    opts: &UniformizationOptions,
) -> Result<Vec<Vec<f64>>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    let p0 = space.initial_distribution();
    transient_grid_projected_with(
        space,
        &p0,
        times,
        states,
        opts,
        &mut UniformizationWorkspace::new(),
    )
}

/// [`transient_grid_projected`] from an arbitrary initial distribution,
/// with caller-owned scratch. A warm workspace allocates only the
/// returned rows.
///
/// # Errors
///
/// As [`transient_grid_projected`], plus [`CtmcError::DimensionMismatch`].
pub fn transient_grid_projected_with<S>(
    space: &StateSpace<S>,
    p0: &[f64],
    times: &[f64],
    states: &[usize],
    opts: &UniformizationOptions,
    ws: &mut UniformizationWorkspace,
) -> Result<Vec<Vec<f64>>, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    solve(space.uniformized_step(), p0, times, Some(states), opts, ws)
}

/// The series loop behind every solver entry point: `select` lists the
/// returned components, `None` meaning all of them. It reads the chain
/// only through its [`UniformizedStep`], so it is compiled once, in this
/// crate, whatever the state type.
fn solve(
    step: &UniformizedStep,
    p0: &[f64],
    times: &[f64],
    select: Option<&[usize]>,
    opts: &UniformizationOptions,
    ws: &mut UniformizationWorkspace,
) -> Result<Vec<Vec<f64>>, CtmcError> {
    let n_states = step.len();
    if p0.len() != n_states {
        return Err(CtmcError::DimensionMismatch {
            got: p0.len(),
            expected: n_states,
        });
    }
    for &t in times {
        if !(t.is_finite() && t >= 0.0) {
            return Err(CtmcError::InvalidTime { time: t });
        }
    }
    if let Some(&index) = select.into_iter().flatten().find(|&&j| j >= n_states) {
        return Err(CtmcError::StateOutOfRange {
            index,
            states: n_states,
        });
    }
    let project = |p: &[f64]| match select {
        None => p.to_vec(),
        Some(states) => states.iter().map(|&j| p[j]).collect(),
    };

    let metrics = solver_metrics();
    let mut obs_span = rsmem_obs::span("ctmc.uniformization", "transient_grid");
    obs_span.record("states", n_states);
    obs_span.record("time_points", times.len());

    let lambda = step.lambda();
    if lambda == 0.0 || times.iter().all(|&t| t == 0.0) {
        // No dynamics: p(t) = p(0) at every requested time.
        metrics.solves.inc();
        for _ in times {
            metrics.terms.observe(0.0);
        }
        obs_span.record("terms", 0u64);
        return Ok(times.iter().map(|_| project(p0)).collect());
    }
    obs_span.record("lambda", lambda);

    metrics.solves.inc();
    ws.prepare(p0, times.len());
    let mut max_mean = 0.0f64;
    for (k, &t) in times.iter().enumerate() {
        let m = lambda * t;
        ws.means[k] = m;
        max_mean = max_mean.max(m);
        if m == 0.0 {
            // The t == 0 answer is p0 itself, exactly.
            ws.converged[k] = true;
            metrics.terms.observe(0.0);
        } else {
            ws.ln_mean[k] = m.ln();
            // ln Poisson(0; m) = −m, the recurrence's exact anchor.
            ws.ln_w[k] = -m;
        }
    }

    // Minimum terms before convergence tests: past the Poisson mode and
    // past the state count (so reachability has settled).
    let n_min = (max_mean.ceil() as usize).max(n_states.min(10_000));

    let selected = select.unwrap_or_default();
    let width = select.map_or(n_states, <[usize]>::len);
    if select.is_some() {
        let mut scratch_len = 0;
        for k in 0..times.len() {
            if ws.converged[k] {
                continue;
            }
            ws.acc[k] = if poisson_ln_pmf(n_min as u64, ws.means[k]) < LN_W_PROJECT {
                Accumulator::Selected
            } else {
                scratch_len += n_states;
                Accumulator::Scratch(scratch_len - n_states)
            };
        }
        ws.scratch.resize(scratch_len, 0.0);
    }
    let mut out: Vec<Vec<f64>> = ws
        .converged
        .iter()
        .map(|&done| if done { project(p0) } else { vec![0.0; width] })
        .collect();
    let tol = opts.rel_tol;

    // Per-point series lengths plus the terms saved by per-point
    // convergence skips (accumulated locally for the span).
    let mut skipped: u64 = 0;
    for n in 0..opts.max_terms {
        let ln_n = (n as f64).ln();
        let resync = n > 0 && n % LN_W_RESYNC == 0;
        let mut all_done = true;
        for (k, row) in out.iter_mut().enumerate() {
            if ws.converged[k] {
                skipped += 1;
                continue;
            }
            all_done = false;
            if resync {
                // Cancel the recurrence's accumulated rounding.
                ws.ln_w[k] = poisson_ln_pmf(n as u64, ws.means[k]);
            } else if n > 0 {
                ws.ln_w[k] += ws.ln_mean[k] - ln_n;
            }
            let ln_w = ws.ln_w[k];
            let w = if ln_w < LN_W_UNDERFLOW {
                0.0
            } else {
                ln_w.exp()
            };
            let big = w > 0.0
                && match ws.acc[k] {
                    Accumulator::Output => accumulate(row, &ws.v, w, tol),
                    Accumulator::Scratch(at) => {
                        accumulate(&mut ws.scratch[at..at + n_states], &ws.v, w, tol)
                    }
                    Accumulator::Selected => {
                        debug_assert!(n < n_min, "projected point weighted at term {n}");
                        for (slot, &j) in row.iter_mut().zip(selected) {
                            *slot += w * ws.v[j];
                        }
                        false
                    }
                };
            if n >= n_min && (n as f64) > ws.means[k] {
                if big {
                    ws.streak[k] = 0;
                } else {
                    ws.streak[k] += 1;
                    if ws.streak[k] >= 3 {
                        ws.converged[k] = true;
                        metrics.terms.observe((n + 1) as f64);
                    }
                }
            }
        }
        if all_done {
            for (row, acc) in out.iter_mut().zip(&ws.acc) {
                if let Accumulator::Scratch(at) = *acc {
                    let full = &ws.scratch[at..at + n_states];
                    for (slot, &j) in row.iter_mut().zip(selected) {
                        *slot = full[j];
                    }
                }
            }
            obs_span.record("terms", n);
            obs_span.record("skipped_terms", skipped);
            return Ok(out);
        }
        // v ← v·P = v + (v·R − v∘exit)/Λ, computed without cancellation:
        // v_next[j] = v[j]·(1 − exit_j/Λ) + Σ_i v[i]·r_ij/Λ.
        step.apply(&ws.v, &mut ws.next);
        std::mem::swap(&mut ws.v, &mut ws.next);
    }
    obs_span.record("converged", false);
    obs_span.record("terms", opts.max_terms);
    Err(CtmcError::NotConverged {
        iterations: opts.max_terms,
    })
}

/// Adds `w·v` into `acc` and reports whether any term was still large
/// relative to its running sum. The flag folds without a branch so the
/// loop vectorises.
#[inline]
fn accumulate(acc: &mut [f64], v: &[f64], w: f64, tol: f64) -> bool {
    let mut big = false;
    for (slot, &vj) in acc.iter_mut().zip(v) {
        let delta = w * vj;
        *slot += delta;
        big |= delta > tol * *slot;
    }
    big
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarkovModel;

    /// Good --λ--> Fail.
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

    /// 0 --a--> 1 --b--> 2 (pure death chain).
    struct ThreeChain {
        a: f64,
        b: f64,
    }
    impl MarkovModel for ThreeChain {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            match s {
                0 => out.push((1, self.a)),
                1 => out.push((2, self.b)),
                _ => {}
            }
        }
    }

    #[test]
    fn two_state_matches_closed_form() {
        let space = StateSpace::explore(&TwoState { lambda: 0.3 }).unwrap();
        let opts = UniformizationOptions::default();
        for &t in &[0.0, 0.1, 1.0, 10.0, 100.0] {
            let p = transient(&space, t, &opts).unwrap();
            let expect = 1.0 - (-0.3 * t).exp();
            assert!(
                (p[1] - expect).abs() <= 1e-12 * expect.max(1e-300) + 1e-15,
                "t={t}: {} vs {expect}",
                p[1]
            );
        }
    }

    #[test]
    fn tiny_rates_retain_relative_accuracy() {
        // λ = 1e-30, t = 1: P_fail ≈ 1e-30 with relative error ~1e-12.
        let space = StateSpace::explore(&TwoState { lambda: 1e-30 }).unwrap();
        let p = transient(&space, 1.0, &UniformizationOptions::default()).unwrap();
        let expect = 1e-30; // 1 − e^{−x} ≈ x
        let rel = (p[1] - expect).abs() / expect;
        assert!(rel < 1e-9, "relative error {rel}");
    }

    #[test]
    fn extremely_small_probabilities_do_not_flush_to_zero() {
        // Two sequential rare events: P(state 2 at t) ≈ (λt)²/2 = 5e-101.
        let space = StateSpace::explore(&ThreeChain { a: 1e-50, b: 1e-50 }).unwrap();
        let p = transient(&space, 1.0, &UniformizationOptions::default()).unwrap();
        let expect = 0.5e-100;
        assert!(p[2] > 0.0);
        let rel = (p[2] - expect).abs() / expect;
        assert!(rel < 1e-6, "p={} expect={expect} rel={rel}", p[2]);
    }

    #[test]
    fn three_chain_matches_bateman_solution() {
        // Bateman: P2(t) = 1 − (b·e^{−at} − a·e^{−bt})/(b − a).
        let (a, b) = (0.7, 0.2);
        let space = StateSpace::explore(&ThreeChain { a, b }).unwrap();
        let p = transient(&space, 3.0, &UniformizationOptions::default()).unwrap();
        let t = 3.0;
        let p1 = a / (a - b) * ((-b * t).exp() - (-a * t).exp());
        let p2 = 1.0 - ((b * (-a * t).exp() - a * (-b * t).exp()) / (b - a));
        assert!((p[1] - p1).abs() < 1e-10, "{} vs {p1}", p[1]);
        assert!((p[2] - p2).abs() < 1e-10, "{} vs {p2}", p[2]);
    }

    #[test]
    fn distribution_stays_normalized() {
        let space = StateSpace::explore(&ThreeChain { a: 2.0, b: 5.0 }).unwrap();
        for &t in &[0.01, 0.5, 2.0, 20.0] {
            let p = transient(&space, t, &UniformizationOptions::default()).unwrap();
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "t={t} total={total}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn grid_matches_pointwise_solves() {
        let space = StateSpace::explore(&ThreeChain { a: 1.0, b: 0.5 }).unwrap();
        let opts = UniformizationOptions::default();
        let times = [0.0, 0.3, 1.7, 6.0];
        let grid = transient_grid(&space, &times, &opts).unwrap();
        for (k, &t) in times.iter().enumerate() {
            let single = transient(&space, t, &opts).unwrap();
            for j in 0..space.len() {
                assert!(
                    (grid[k][j] - single[j]).abs() < 1e-12,
                    "t={t} j={j}: {} vs {}",
                    grid[k][j],
                    single[j]
                );
            }
        }
    }

    #[test]
    fn zero_time_returns_initial_distribution() {
        let space = StateSpace::explore(&TwoState { lambda: 1.0 }).unwrap();
        let p = transient(&space, 0.0, &UniformizationOptions::default()).unwrap();
        assert_eq!(p, vec![1.0, 0.0]);
    }

    #[test]
    fn invalid_time_rejected() {
        let space = StateSpace::explore(&TwoState { lambda: 1.0 }).unwrap();
        let opts = UniformizationOptions::default();
        assert!(matches!(
            transient(&space, -1.0, &opts),
            Err(CtmcError::InvalidTime { .. })
        ));
        assert!(matches!(
            transient(&space, f64::NAN, &opts),
            Err(CtmcError::InvalidTime { .. })
        ));
    }

    /// Good --a--> Degraded --a--> Fail, Degraded --s--> Good: cyclic, so
    /// every grid point runs a long series.
    struct Scrubbed {
        a: f64,
        s: f64,
    }
    impl MarkovModel for Scrubbed {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            match s {
                0 => out.push((1, self.a)),
                1 => {
                    out.push((2, self.a));
                    out.push((0, self.s));
                }
                _ => {}
            }
        }
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn exp_underflows_to_zero_below_the_skip_bound() {
        // The solver skips `exp` below LN_W_UNDERFLOW because it would
        // return exactly zero there.
        for i in 0..200_000 {
            let x = LN_W_UNDERFLOW - f64::from(i) * 0.005;
            assert_eq!(x.exp().to_bits(), 0, "exp({x}) is not +0");
        }
    }

    #[test]
    fn projection_is_exact_either_side_of_the_classification_bound() {
        let space = StateSpace::explore(&Scrubbed { a: 0.02, s: 4.0 }).unwrap();
        let lambda = space.max_exit_rate();
        let opts = UniformizationOptions::default();
        // n_min = ⌈Λ·t_max⌉ = 2000 (three states).
        let t_max = 2000.0 / lambda;
        let n_min = 2000u64;
        // ln Poisson(n_min; m) rises with m below n_min: bisect for the
        // mean where it crosses the bound.
        let (mut lo, mut hi) = (1.0, n_min as f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if poisson_ln_pmf(n_min, mid) < LN_W_PROJECT {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let below = lo * (1.0 - 1e-9);
        let above = hi * (1.0 + 1e-9);
        assert!(poisson_ln_pmf(n_min, below) < LN_W_PROJECT);
        assert!(poisson_ln_pmf(n_min, above) >= LN_W_PROJECT);
        let times = [0.0, 1.0 / lambda, below / lambda, above / lambda, t_max];
        let p0 = space.initial_distribution();

        let mut ws = UniformizationWorkspace::new();
        let full = transient_grid_with(&space, &p0, &times, &opts, &mut ws).unwrap();
        assert!(ws.acc.iter().all(|&a| a == Accumulator::Output));
        for states in [vec![2], vec![0], vec![2, 0, 1, 2]] {
            let projected =
                transient_grid_projected_with(&space, &p0, &times, &states, &opts, &mut ws)
                    .unwrap();
            assert_eq!(ws.acc[1], Accumulator::Selected);
            assert_eq!(ws.acc[2], Accumulator::Selected, "just below the bound");
            assert!(matches!(ws.acc[3], Accumulator::Scratch(_)), "just above");
            assert!(matches!(ws.acc[4], Accumulator::Scratch(_)));
            let expect: Vec<Vec<f64>> = full
                .iter()
                .map(|p| states.iter().map(|&j| p[j]).collect())
                .collect();
            assert_eq!(bits(&projected), bits(&expect), "states {states:?}");
        }
        // The classified-away points still carry real probability.
        assert!(full[2][2] > 0.0 && full[2][2] < full[3][2]);
    }

    #[test]
    fn projected_solve_matches_full_solve_bit_for_bit() {
        let opts = UniformizationOptions::default();
        let times = [0.0, 0.3, 1.7, 6.0, 60.0, 600.0];
        let space = StateSpace::explore(&Scrubbed { a: 0.5, s: 30.0 }).unwrap();
        let full = transient_grid(&space, &times, &opts).unwrap();
        for j in 0..space.len() {
            let projected = transient_grid_projected(&space, &times, &[j], &opts).unwrap();
            let expect: Vec<Vec<f64>> = full.iter().map(|p| vec![p[j]]).collect();
            assert_eq!(bits(&projected), bits(&expect), "state {j}");
        }
    }

    #[test]
    fn projection_edge_cases() {
        let space = StateSpace::explore(&TwoState { lambda: 1.0 }).unwrap();
        let opts = UniformizationOptions::default();
        let times = [0.0, 2.0];
        let empty = transient_grid_projected(&space, &times, &[], &opts).unwrap();
        assert_eq!(empty, vec![Vec::<f64>::new(); 2]);
        let at_zero = transient_grid_projected(&space, &[0.0], &[1, 0], &opts).unwrap();
        assert_eq!(at_zero, vec![vec![0.0, 1.0]]);
        assert_eq!(
            transient_grid_projected(&space, &times, &[2], &opts),
            Err(CtmcError::StateOutOfRange {
                index: 2,
                states: 2
            })
        );
    }

    #[test]
    fn large_uniformization_mean_is_handled() {
        // Λt = 1000: early Poisson weights underflow; result stays exact.
        let space = StateSpace::explore(&TwoState { lambda: 10.0 }).unwrap();
        let p = transient(&space, 100.0, &UniformizationOptions::default()).unwrap();
        // ~1200 Poisson terms each carrying ~1e-11 relative log-gamma
        // rounding: expect ~1e-10 absolute accuracy here.
        assert!((p[1] - 1.0).abs() < 1e-9, "p1={}", p[1]);
        assert!(p[0] >= 0.0);
    }
}
