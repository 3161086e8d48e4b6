//! The optimized uniformization solver (workspace reuse, recurrent
//! Poisson log-weights, gather-form mat-vec over the cached transpose)
//! must agree with a line-by-line naive reference implementation —
//! per-term `poisson_ln_pmf`, fresh allocations, scatter-form `v·P` —
//! to within 1e-12 relative on the paper's actual figure grids.
//!
//! The projected solve that `ber_curve` runs (Fail state only) must
//! equal the Fail component of the full solve *bit for bit*, on every
//! figure system and on the corners of a 24-month scrubbed design sweep.
//! The corners' `P_Fail` bits are also pinned by hash, so a change to
//! the solver's arithmetic fails here even when it moves the projected
//! and the full solve alike.

use rsmem::units::{ErasureRate, SeuRate, Time, TimeGrid};
use rsmem::{CodeParams, DuplexModel, FaultRates, MemoryModel, Scrubbing, SimplexModel};
use rsmem_ctmc::poisson::poisson_ln_pmf;
use rsmem_ctmc::uniformization::{transient_grid, UniformizationOptions};
use rsmem_ctmc::{MarkovModel, StateSpace};
use rsmem_models::ber::ber_curve;

/// Direct transcription of the uniformization series with none of the
/// production solver's optimizations: every term re-evaluates the Poisson
/// weight through the log-gamma pmf, allocates its work vectors fresh,
/// and applies `v·P` in scatter (left-multiply) form on the untransposed
/// rate matrix.
fn naive_transient_grid<S>(
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
    let max_mean = means.iter().cloned().fold(0.0f64, f64::max);
    let n_min = (max_mean.ceil() as usize).max(n_states.min(10_000));

    let mut v = p0.clone();
    let mut acc: Vec<Vec<f64>> = means
        .iter()
        .map(|&m| {
            if m == 0.0 {
                p0.clone()
            } else {
                vec![0.0; n_states]
            }
        })
        .collect();
    let mut converged: Vec<bool> = means.iter().map(|&m| m == 0.0).collect();
    let mut streak = vec![0u32; times.len()];

    for n in 0..opts.max_terms {
        let mut all_done = true;
        for k in 0..times.len() {
            if converged[k] {
                continue;
            }
            all_done = false;
            let w = poisson_ln_pmf(n as u64, means[k]).exp();
            let mut small = true;
            if w > 0.0 {
                for j in 0..n_states {
                    let delta = w * v[j];
                    acc[k][j] += delta;
                    if delta > opts.rel_tol * acc[k][j] {
                        small = false;
                    }
                }
            }
            if n >= n_min && (n as f64) > means[k] {
                if small {
                    streak[k] += 1;
                    if streak[k] >= 3 {
                        converged[k] = true;
                    }
                } else {
                    streak[k] = 0;
                }
            }
        }
        if all_done {
            return acc;
        }
        // v ← v·P, scatter form: fresh buffer, row-wise left multiply.
        let mut next = vec![0.0; n_states];
        for (j, slot) in next.iter_mut().enumerate() {
            *slot = v[j] * (1.0 - space.exit_rate(j) / lambda);
        }
        for (i, &vi) in v.iter().enumerate() {
            for (j, r) in space.rates().row(i) {
                next[j] += vi * r / lambda;
            }
        }
        v = next;
    }
    panic!("naive reference solver did not converge");
}

fn assert_grids_match(fast: &[Vec<f64>], reference: &[Vec<f64>], label: &str) {
    assert_eq!(fast.len(), reference.len());
    for (k, (f, r)) in fast.iter().zip(reference).enumerate() {
        assert_eq!(f.len(), r.len());
        for (j, (&a, &b)) in f.iter().zip(r).enumerate() {
            let scale = a.abs().max(b.abs());
            let tol = 1e-12 * scale.max(f64::MIN_POSITIVE);
            assert!(
                (a - b).abs() <= tol,
                "{label}: t[{k}] state {j}: optimized {a:e} vs naive {b:e}"
            );
        }
    }
}

fn check_model<M: MarkovModel>(model: &M, times_days: &[f64], label: &str)
where
    M::State: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let space = StateSpace::explore(model).unwrap();
    let opts = UniformizationOptions::default();
    let fast = transient_grid(&space, times_days, &opts).unwrap();
    let reference = naive_transient_grid(&space, times_days, &opts);
    assert_grids_match(&fast, &reference, label);
}

fn grid_days(hours: f64, points: usize) -> Vec<f64> {
    TimeGrid::linspace(Time::zero(), Time::from_hours(hours), points)
        .points()
        .iter()
        .map(|t| t.as_days())
        .collect()
}

#[test]
fn fig5_simplex_grids_match_naive_reference() {
    // Fig. 5: simplex RS(18,16), the paper's three SEU rates, 48 h grid.
    let times = grid_days(48.0, 25);
    for &rate in &[7.3e-7, 3.6e-6, 1.7e-5] {
        let rates = FaultRates {
            seu: SeuRate::per_bit_day(rate),
            ..FaultRates::default()
        };
        let model = SimplexModel::new(CodeParams::rs18_16(), rates, Scrubbing::None);
        check_model(&model, &times, &format!("fig5 λ={rate:e}"));
    }
}

#[test]
fn fig7_duplex_scrubbed_grids_match_naive_reference() {
    // Fig. 7: duplex RS(18,16), worst-case SEU rate, four scrub periods.
    // Scrubbing makes the chain cyclic — the hardest case for the
    // convergence bookkeeping.
    let times = grid_days(48.0, 25);
    let rates = FaultRates {
        seu: SeuRate::per_bit_day(1.7e-5),
        ..FaultRates::default()
    };
    for &period_s in &[900.0, 1200.0, 1800.0, 3600.0] {
        let model = DuplexModel::new(
            CodeParams::rs18_16(),
            rates,
            Scrubbing::every_seconds(period_s),
        );
        check_model(&model, &times, &format!("fig7 Tsc={period_s}"));
    }
}

/// `ber_curve`'s `P_Fail` — a solve projected onto the Fail state —
/// must equal the full solve's Fail component under `to_bits()` at every
/// grid point. Returns the projected curve.
fn check_projection<M: MemoryModel>(model: &M, times: &[Time], label: &str) -> Vec<f64>
where
    M::State: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let space = StateSpace::explore(model).unwrap();
    let fail = space
        .index_of(&model.fail_state())
        .expect("Fail is reachable");
    let days: Vec<f64> = times.iter().map(|t| t.as_days()).collect();
    let full = transient_grid(&space, &days, &UniformizationOptions::default()).unwrap();
    let curve = ber_curve(model, times).unwrap();
    for (k, (p, &projected)) in full.iter().zip(&curve.fail_probability).enumerate() {
        assert_eq!(
            projected.to_bits(),
            p[fail].to_bits(),
            "{label}: t[{k}] projected {projected:e} vs full {:e}",
            p[fail]
        );
    }
    curve.fail_probability
}

fn rates(seu: f64, erasure: f64) -> FaultRates {
    FaultRates {
        seu: SeuRate::per_bit_day(seu),
        erasure: ErasureRate::per_symbol_day(erasure),
    }
}

#[test]
fn projected_solve_is_bit_identical_on_every_figure_system() {
    let hours = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 25);
    let months = TimeGrid::linspace(Time::zero(), Time::from_months(24.0), 25);
    let rs18 = CodeParams::rs18_16();
    for &seu in &[7.3e-7, 3.6e-6, 1.7e-5] {
        let r = rates(seu, 0.0);
        let label = format!("λ={seu:e}");
        let fig5 = SimplexModel::new(rs18, r, Scrubbing::None);
        check_projection(&fig5, hours.points(), &format!("fig5 {label}"));
        let fig6 = DuplexModel::new(rs18, r, Scrubbing::None);
        check_projection(&fig6, hours.points(), &format!("fig6 {label}"));
    }
    for &period_s in &[900.0, 1200.0, 1800.0, 3600.0] {
        let scrub = Scrubbing::every_seconds(period_s);
        let fig7 = DuplexModel::new(rs18, rates(1.7e-5, 0.0), scrub);
        check_projection(&fig7, hours.points(), &format!("fig7 Tsc={period_s}"));
    }
    for &erasure in &[1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10] {
        let r = rates(0.0, erasure);
        let label = format!("λe={erasure:e}");
        let fig8 = SimplexModel::new(rs18, r, Scrubbing::None);
        check_projection(&fig8, months.points(), &format!("fig8 {label}"));
        let fig9 = DuplexModel::new(rs18, r, Scrubbing::None);
        check_projection(&fig9, months.points(), &format!("fig9 {label}"));
        let fig10 = SimplexModel::new(CodeParams::rs36_16(), r, Scrubbing::None);
        check_projection(&fig10, months.points(), &format!("fig10 {label}"));
    }
}

/// FNV-1a (64-bit) over the bit patterns of `P_Fail` values.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_f64(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every `P_Fail` bit pattern the mission-corner test computes,
/// in its loop order.
const MISSION_CORNERS_HASH: u64 = 0xe6a6_ebef_967f_b6cb;

#[test]
fn projected_solve_is_bit_identical_on_mission_sweep_corners() {
    // 24-month sweeps with scrubbing: Λt reaches ~70 000, and the early
    // grid points are the ones the projected solve sums for Fail alone.
    let mut hash = Fnv::new();
    let months = TimeGrid::linspace(Time::zero(), Time::from_months(24.0), 25);
    for (n, k) in [(18, 16), (20, 16)] {
        let code = CodeParams::new(n, k, 8).unwrap();
        for &period_s in &[900.0, 3600.0] {
            let scrub = Scrubbing::every_seconds(period_s);
            for &seu in &[1e-5, 3e-5] {
                for &erasure in &[3e-7, 3e-6] {
                    let r = rates(seu, erasure);
                    let label = format!("RS({n},{k}) Tsc={period_s} λ={seu:e} λe={erasure:e}");
                    let simplex = SimplexModel::new(code, r, scrub);
                    let duplex = DuplexModel::new(code, r, scrub);
                    let curves = [
                        check_projection(&simplex, months.points(), &format!("simplex {label}")),
                        check_projection(&duplex, months.points(), &format!("duplex {label}")),
                    ];
                    for &p in curves.iter().flatten() {
                        hash.write_f64(p);
                    }
                }
            }
        }
    }
    assert_eq!(
        hash.0, MISSION_CORNERS_HASH,
        "mission-corner P_Fail bits moved: hash {:#018x}",
        hash.0
    );
}
