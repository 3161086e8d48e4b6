//! Cross-checks the three transient solvers (uniformization, adaptive
//! ODE, SURE-style path bounds) on the *paper's* Markov models — not toy
//! chains — so a regression in any solver or model shows up here.

#[path = "support/rkf45.rs"]
mod rkf45;

use rkf45::{rkf45, Rkf45Options};
use rsmem::units::{ErasureRate, SeuRate, Time};
use rsmem::{CodeParams, DuplexModel, FaultRates, MemoryModel, Scrubbing, SimplexModel};
use rsmem_ctmc::paths::{absorption_bounds, PathOptions};
use rsmem_ctmc::uniformization::{transient, UniformizationOptions};
use rsmem_ctmc::StateSpace;

fn rates(seu: f64, erasure: f64) -> FaultRates {
    FaultRates {
        seu: SeuRate::per_bit_day(seu),
        erasure: ErasureRate::per_symbol_day(erasure),
    }
}

#[test]
fn simplex_uniformization_vs_rkf45() {
    // Accelerated rates so the ODE solver's absolute tolerance is not the
    // limiting factor.
    let model = SimplexModel::new(CodeParams::rs18_16(), rates(1e-3, 1e-4), Scrubbing::None);
    let space = StateSpace::explore(&model).expect("explore");
    let t = 2.0;
    let a = transient(&space, t, &UniformizationOptions::default()).expect("uniformization");
    let b = rkf45(&space, t, &Rkf45Options::default()).expect("rkf45");
    for j in 0..space.len() {
        assert!(
            (a[j] - b[j]).abs() < 1e-8,
            "state {j}: {} vs {}",
            a[j],
            b[j]
        );
    }
}

#[test]
fn duplex_uniformization_vs_rkf45_with_scrubbing() {
    let model = DuplexModel::new(
        CodeParams::rs18_16(),
        rates(5e-3, 1e-4),
        Scrubbing::Periodic {
            period: Time::from_days(0.2),
        },
    );
    let space = StateSpace::explore(&model).expect("explore");
    let t = 2.0;
    let a = transient(&space, t, &UniformizationOptions::default()).expect("uniformization");
    let b = rkf45(&space, t, &Rkf45Options::default()).expect("rkf45");
    let fail = space.index_of(&model.fail_state()).expect("fail reachable");
    assert!(
        (a[fail] - b[fail]).abs() < 1e-7,
        "fail prob: {} vs {}",
        a[fail],
        b[fail]
    );
}

#[test]
fn path_bounds_bracket_uniformization_on_paper_models() {
    for (label, seu, erasure) in [
        ("transient", 1e-6, 0.0),
        ("permanent", 0.0, 1e-7),
        ("mixed", 1e-6, 1e-7),
    ] {
        let model = SimplexModel::new(CodeParams::rs18_16(), rates(seu, erasure), Scrubbing::None);
        let space = StateSpace::explore(&model).expect("explore");
        let Some(fail) = space.index_of(&model.fail_state()) else {
            continue;
        };
        let t = 2.0;
        let p = transient(&space, t, &UniformizationOptions::default()).expect("solve")[fail];
        let b = absorption_bounds(&space, fail, t, &PathOptions::default()).expect("bounds");
        assert!(p > 0.0, "{label}");
        assert!(
            b.contains_ln(p.ln(), 1e-6),
            "{label}: p = {p:e} outside [{:e}, {:e}]",
            b.lower(),
            b.upper()
        );
        // Highly-reliable regime ⇒ bounds within a fraction of a percent.
        assert!(b.ln_width() < 0.01, "{label}: width {}", b.ln_width());
    }
}

#[test]
fn duplex_path_bounds_track_the_tiny_tail() {
    // The Fig. 9 low-rate regime: probabilities around 1e-60.
    let model = DuplexModel::new(CodeParams::rs18_16(), rates(0.0, 1e-9), Scrubbing::None);
    let space = StateSpace::explore(&model).expect("explore");
    let fail = space.index_of(&model.fail_state()).expect("reachable");
    let t = 730.0; // 24 months in days
    let p = transient(&space, t, &UniformizationOptions::default()).expect("solve")[fail];
    let b = absorption_bounds(&space, fail, t, &PathOptions::default()).expect("bounds");
    assert!(p > 0.0 && p < 1e-30, "p = {p:e}");
    assert!(
        b.contains_ln(p.ln(), 1e-3),
        "p = {p:e}, ln p = {}, bounds [{}, {}]",
        p.ln(),
        b.ln_lower,
        b.ln_upper
    );
}

#[test]
fn steady_state_of_scrubbed_chain_is_all_fail() {
    // With an absorbing Fail state, the long-run distribution must be a
    // point mass on Fail regardless of scrubbing.
    let model = SimplexModel::new(
        CodeParams::rs18_16(),
        rates(1e-3, 1e-4),
        Scrubbing::Periodic {
            period: Time::from_days(0.1),
        },
    );
    let space = StateSpace::explore(&model).expect("explore");
    let pi = rsmem_ctmc::steady::steady_state(&space).expect("steady state");
    let fail = space.index_of(&model.fail_state()).expect("reachable");
    assert!((pi[fail] - 1.0).abs() < 1e-8);
}

#[test]
fn mean_time_to_failure_scales_with_scrubbing() {
    // MTTF (an extension beyond the paper) must increase monotonically as
    // scrubbing gets faster.
    let mut last = 0.0;
    for period_days in [1.0, 0.5, 0.1, 0.02] {
        let model = SimplexModel::new(
            CodeParams::rs18_16(),
            rates(1e-3, 0.0),
            Scrubbing::Periodic {
                period: Time::from_days(period_days),
            },
        );
        let space = StateSpace::explore(&model).expect("explore");
        let mttf = rsmem_ctmc::steady::mean_time_to_absorption(&space).expect("mttf");
        assert!(
            mttf > last,
            "period {period_days}: MTTF {mttf} not increasing past {last}"
        );
        last = mttf;
    }
}
