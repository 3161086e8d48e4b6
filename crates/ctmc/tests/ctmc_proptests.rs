//! Property-based tests of the CTMC engine on randomly generated chains:
//! solver agreement, normalization, monotonicity of absorption, and
//! bit-for-bit agreement of the solvers with plain reference loops.

#[path = "../../../tests/support/rkf45.rs"]
mod rkf45;

use proptest::prelude::*;
use rkf45::{rkf45, Rkf45Options};
use rsmem_ctmc::poisson::poisson_ln_pmf;
use rsmem_ctmc::rewards::{expected_time_in_states, RewardOptions};
use rsmem_ctmc::uniformization::{
    transient, transient_grid, transient_grid_with, UniformizationOptions, UniformizationWorkspace,
};
use rsmem_ctmc::{MarkovModel, StateSpace};

/// A random chain described by an explicit rate table.
#[derive(Debug, Clone)]
struct TableChain {
    /// rates[i] = outgoing (target, rate) list of state i.
    rates: Vec<Vec<(usize, f64)>>,
}

impl MarkovModel for TableChain {
    type State = usize;
    fn initial_state(&self) -> usize {
        0
    }
    fn transitions(&self, s: &usize, out: &mut Vec<(usize, f64)>) {
        if let Some(row) = self.rates.get(*s) {
            out.extend(row.iter().copied());
        }
    }
}

/// Strategy: a random chain of 2..=8 states with up to 3 outgoing edges
/// per state and rates in (0.01, 5.0). Self-loops are redirected by
/// [`sanitize`] (a CTMC self-loop is a no-op anyway).
fn chain_strategy() -> impl Strategy<Value = TableChain> {
    (2usize..=8).prop_flat_map(|n| {
        let row = prop::collection::vec((0..n, 0.01f64..5.0), 0..=3);
        prop::collection::vec(row, n).prop_map(|rates| TableChain { rates })
    })
}

fn sanitize(mut chain: TableChain) -> TableChain {
    let n = chain.rates.len();
    for i in 0..n {
        for (t, _) in chain.rates[i].iter_mut() {
            if *t == i {
                *t = (i + 1) % n; // never equals i again for n ≥ 2
            }
        }
    }
    chain
}

/// Strategy: a chain of 9..=60 states, all reachable along the path
/// `0 → 1 → … → n−1`, plus up to two random extra edges per state. The
/// in-degrees (the lengths of the transposed rate rows) then form
/// equal-length runs whose sizes the solver's 8-row groups rarely
/// divide. With `sink`, every state also feeds the last state, which
/// is absorbing: its transposed row is far longer than all the others.
fn wide_chain_strategy(sink: bool) -> impl Strategy<Value = TableChain> {
    (9usize..=60).prop_flat_map(move |n| {
        let extra = prop::collection::vec((0..n, 0.01f64..5.0), 0..=2);
        (
            prop::collection::vec(extra, n),
            prop::collection::vec(0.01f64..5.0, n),
        )
            .prop_map(move |(extras, path)| {
                let rates = (0..n)
                    .map(|i| {
                        let mut row = extras[i].clone();
                        if i + 1 < n {
                            row.push((i + 1, path[i]));
                            if sink {
                                row.push((n - 1, path[i]));
                            }
                        } else if sink {
                            row.clear();
                        }
                        row
                    })
                    .collect();
                TableChain { rates }
            })
    })
}

/// The uniformization series exactly as the production solver sums it
/// (recurrent Poisson log-weights resynced every 64 terms, `exp` skipped
/// below −746, the same convergence test), with `v·P` as a plain
/// per-row gather over the transposed CSR rates. The production solver
/// must match it bit for bit.
fn reference_transient_grid<S>(
    space: &StateSpace<S>,
    times: &[f64],
    opts: &UniformizationOptions,
) -> Vec<Vec<f64>>
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let p0 = space.initial_distribution();
    let n_states = space.len();
    let lambda = space.max_exit_rate();
    if lambda == 0.0 || times.iter().all(|&t| t == 0.0) {
        return times.iter().map(|_| p0.clone()).collect();
    }
    let means: Vec<f64> = times.iter().map(|&t| lambda * t).collect();
    let ln_mean: Vec<f64> = means.iter().map(|m| m.ln()).collect();
    let mut ln_w: Vec<f64> = means.iter().map(|&m| -m).collect();
    let mut converged: Vec<bool> = means.iter().map(|&m| m == 0.0).collect();
    let mut streak = vec![0u32; times.len()];
    let max_mean = means.iter().fold(0.0f64, |a, &m| a.max(m));
    let n_min = (max_mean.ceil() as usize).max(n_states.min(10_000));
    let mut out: Vec<Vec<f64>> = converged
        .iter()
        .map(|&done| {
            if done {
                p0.clone()
            } else {
                vec![0.0; n_states]
            }
        })
        .collect();
    let rates_t = space.rates_transposed();
    let mut v = p0;
    for n in 0..opts.max_terms {
        let mut all_done = true;
        for k in 0..times.len() {
            if converged[k] {
                continue;
            }
            all_done = false;
            if n > 0 && n % 64 == 0 {
                ln_w[k] = poisson_ln_pmf(n as u64, means[k]);
            } else if n > 0 {
                ln_w[k] += ln_mean[k] - (n as f64).ln();
            }
            let w = if ln_w[k] < -746.0 { 0.0 } else { ln_w[k].exp() };
            let mut big = false;
            if w > 0.0 {
                for (slot, &vj) in out[k].iter_mut().zip(&v) {
                    let delta = w * vj;
                    *slot += delta;
                    big |= delta > opts.rel_tol * *slot;
                }
            }
            if n >= n_min && (n as f64) > means[k] {
                if big {
                    streak[k] = 0;
                } else {
                    streak[k] += 1;
                    converged[k] = streak[k] >= 3;
                }
            }
        }
        if all_done {
            return out;
        }
        let mut next = vec![0.0; n_states];
        for (j, slot) in next.iter_mut().enumerate() {
            let mut inflow = 0.0;
            for (i, r) in rates_t.row(j) {
                inflow += v[i] * r;
            }
            *slot = v[j] * (1.0 - space.exit_rate(j) / lambda) + inflow / lambda;
        }
        v = next;
    }
    panic!("reference series did not converge");
}

/// The cumulative-time series exactly as `expected_time_in_states` sums
/// it, with `v·P` in scatter form (`CsrMatrix::acc_left_mul` into a
/// fresh inflow buffer). The production solver must match it bit for bit.
fn reference_expected_times<S>(space: &StateSpace<S>, t: f64, opts: &RewardOptions) -> Vec<f64>
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let n_states = space.len();
    let mut acc = vec![0.0; n_states];
    if t == 0.0 {
        return acc;
    }
    let lambda = space.max_exit_rate();
    if lambda == 0.0 {
        acc[space.initial_index()] = t;
        return acc;
    }
    let mean = lambda * t;
    let mut v = space.initial_distribution();
    let mut tail = 1.0f64;
    let n_min = (mean.ceil() as usize).max(n_states.min(10_000));
    let mut streak = 0u32;
    for n in 0..opts.max_terms {
        let pmf = poisson_ln_pmf(n as u64, mean).exp();
        tail = (tail - pmf).max(0.0);
        let next = (n + 2) as f64;
        if next > mean {
            let pmf_next = poisson_ln_pmf(n as u64 + 1, mean).exp();
            tail = tail.min(pmf_next * next / (next - mean));
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
                    return acc;
                }
            } else {
                streak = 0;
            }
        }
        let mut next = vec![0.0; n_states];
        for j in 0..n_states {
            next[j] = v[j] * (1.0 - space.exit_rate(j) / lambda);
        }
        let mut inflow = vec![0.0; n_states];
        space.rates().acc_left_mul(&v, &mut inflow);
        for j in 0..n_states {
            next[j] += inflow[j] / lambda;
        }
        v = next;
    }
    panic!("reference rewards series did not converge");
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uniformization_agrees_with_rkf45(raw in chain_strategy(), t in 0.0f64..5.0) {
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let a = transient(&space, t, &UniformizationOptions::default()).expect("uni");
        let b = rkf45(&space, t, &Rkf45Options::default()).expect("ode");
        for j in 0..space.len() {
            prop_assert!((a[j] - b[j]).abs() < 1e-6, "state {j}: {} vs {}", a[j], b[j]);
        }
    }

    #[test]
    fn transient_is_a_distribution(raw in chain_strategy(), t in 0.0f64..20.0) {
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let p = transient(&space, t, &UniformizationOptions::default()).expect("uni");
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "sum {total}");
        prop_assert!(p.iter().all(|&x| (-1e-15..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn grid_solve_matches_pointwise(raw in chain_strategy(), t1 in 0.1f64..3.0, t2 in 3.0f64..9.0) {
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let opts = UniformizationOptions::default();
        let grid = transient_grid(&space, &[t1, t2], &opts).expect("grid");
        let p1 = transient(&space, t1, &opts).expect("p1");
        let p2 = transient(&space, t2, &opts).expect("p2");
        for j in 0..space.len() {
            prop_assert!((grid[0][j] - p1[j]).abs() < 1e-10);
            prop_assert!((grid[1][j] - p2[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn rewards_sum_to_horizon(raw in chain_strategy(), t in 0.0f64..10.0) {
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let l = expected_time_in_states(&space, t, &RewardOptions::default()).expect("rewards");
        let total: f64 = l.iter().sum();
        prop_assert!((total - t).abs() < 1e-7 * t.max(1.0), "sum {total} vs {t}");
        prop_assert!(l.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn transient_grid_matches_the_per_row_gather_bit_for_bit(
        small in chain_strategy(),
        runs in wide_chain_strategy(false),
        sink in wide_chain_strategy(true),
        t1 in 0.1f64..3.0,
        t2 in 3.0f64..9.0,
    ) {
        // Fewer states than one row group, equal-length runs with
        // remainders, and one row far longer than the rest.
        let opts = UniformizationOptions::default();
        let times = [0.0, t1, t2];
        for (chain, long_row) in [(sanitize(small), false), (runs, false), (sink, true)] {
            let space = StateSpace::explore(&chain).expect("explore");
            let rt = space.rates_transposed();
            let longest = (0..rt.nrows()).map(|j| rt.row(j).count()).max();
            prop_assert!(!long_row || longest == Some(space.len() - 1));
            let fast = transient_grid(&space, &times, &opts).expect("grid");
            let reference = reference_transient_grid(&space, &times, &opts);
            prop_assert_eq!(bits(&fast), bits(&reference));
        }
    }

    #[test]
    fn rewards_match_the_scatter_step_bit_for_bit(raw in chain_strategy(), t in 0.0f64..10.0) {
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let opts = RewardOptions::default();
        let l = expected_time_in_states(&space, t, &opts).expect("rewards");
        let reference = reference_expected_times(&space, t, &opts);
        prop_assert_eq!(bits(&[l]), bits(&[reference]));
    }

    #[test]
    fn workspace_reuse_never_changes_the_answer(
        raw_a in chain_strategy(),
        raw_b in chain_strategy(),
        t1 in 0.1f64..3.0,
        t2 in 3.0f64..9.0,
    ) {
        // One workspace reused across two *different* random chains (and
        // grids of different sizes) must reproduce the fresh-workspace
        // solution exactly — stale buffer contents may not leak through.
        let opts = UniformizationOptions::default();
        let mut ws = UniformizationWorkspace::new();
        for chain in [sanitize(raw_a), sanitize(raw_b)] {
            let space = StateSpace::explore(&chain).expect("explore");
            let p0 = space.initial_distribution();
            let times = [0.0, t1, t2];
            let fresh = transient_grid(&space, &times, &opts).expect("fresh");
            let reused = transient_grid_with(&space, &p0, &times, &opts, &mut ws)
                .expect("reused");
            prop_assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn transposed_rates_stay_in_sync(raw in chain_strategy()) {
        // The cached transpose must hold exactly the rate entries, with
        // rows and columns swapped, for every random chain shape.
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let rates = space.rates();
        let rt = space.rates_transposed();
        prop_assert_eq!(rates.nrows(), rt.ncols());
        prop_assert_eq!(rates.ncols(), rt.nrows());
        prop_assert_eq!(rates.nnz(), rt.nnz());
        let mut forward: Vec<(usize, usize, f64)> = (0..rates.nrows())
            .flat_map(|i| rates.row(i).map(move |(j, r)| (i, j, r)))
            .collect();
        let mut swapped: Vec<(usize, usize, f64)> = (0..rt.nrows())
            .flat_map(|j| rt.row(j).map(move |(i, r)| (i, j, r)))
            .collect();
        forward.sort_by(|a, b| a.partial_cmp(b).unwrap());
        swapped.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(forward, swapped);
    }

    #[test]
    fn absorption_is_monotone_in_time(raw in chain_strategy(), t in 0.1f64..5.0) {
        let chain = sanitize(raw);
        let space = StateSpace::explore(&chain).expect("explore");
        let absorbing = space.absorbing_states();
        prop_assume!(!absorbing.is_empty());
        let opts = UniformizationOptions::default();
        let early = transient(&space, t, &opts).expect("early");
        let late = transient(&space, 2.0 * t, &opts).expect("late");
        for &a in &absorbing {
            prop_assert!(late[a] >= early[a] - 1e-10);
        }
    }
}

/// Cyclic repairable system: Good <-> Degraded -> Failed(absorbing).
struct Repairable;

impl MarkovModel for Repairable {
    type State = u8;
    fn initial_state(&self) -> u8 {
        0
    }
    fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
        match s {
            0 => out.push((1, 1.0)),
            1 => {
                out.push((0, 5.0)); // repair (cycle!)
                out.push((2, 0.2));
            }
            _ => {}
        }
    }
}

#[test]
fn rkf45_agrees_with_uniformization() {
    let space = StateSpace::explore(&Repairable).unwrap();
    let t = 4.0;
    let a = rkf45(&space, t, &Rkf45Options::default()).unwrap();
    let b = transient(&space, t, &UniformizationOptions::default()).unwrap();
    for j in 0..space.len() {
        assert!((a[j] - b[j]).abs() < 1e-7, "j={j}: {} vs {}", a[j], b[j]);
    }
}

#[test]
fn rkf45_conserves_probability() {
    let space = StateSpace::explore(&Repairable).unwrap();
    for t in [0.5, 2.0, 10.0] {
        let p = rkf45(&space, t, &Rkf45Options::default()).unwrap();
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-7, "t={t}: {total}");
    }
}

#[test]
fn rkf45_at_zero_time_is_identity() {
    let space = StateSpace::explore(&Repairable).unwrap();
    assert_eq!(
        rkf45(&space, 0.0, &Rkf45Options::default()).unwrap()[0],
        1.0
    );
}

#[test]
fn rkf45_rejects_bad_times() {
    let space = StateSpace::explore(&Repairable).unwrap();
    assert!(rkf45(&space, f64::INFINITY, &Rkf45Options::default()).is_err());
    assert!(rkf45(&space, -0.5, &Rkf45Options::default()).is_err());
}
