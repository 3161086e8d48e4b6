//! End-to-end assertions on the regenerated figures: the qualitative
//! claims of the paper's Section 6 must hold in our reproduction —
//! who wins, by roughly what factor, and where the knees sit.

use rsmem::experiments::{
    run, ExperimentId, Figure, GRID_POINTS, PERMANENT_RATES_PER_SYMBOL_DAY, SCRUB_PERIODS_S,
    SEU_RATES_PER_BIT_DAY,
};

fn figure(id: ExperimentId) -> Figure {
    run(id)
        .expect("experiment runs")
        .figure()
        .expect("figure output")
        .clone()
}

fn final_value(fig: &Figure, series: usize) -> f64 {
    fig.series[series].points.last().expect("points").1
}

#[test]
fn all_figures_have_paper_shape() {
    for id in [
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
    ] {
        let fig = figure(id);
        let expected_series = match id {
            ExperimentId::Fig5 | ExperimentId::Fig6 => SEU_RATES_PER_BIT_DAY.len(),
            ExperimentId::Fig7 => SCRUB_PERIODS_S.len(),
            _ => PERMANENT_RATES_PER_SYMBOL_DAY.len(),
        };
        assert_eq!(fig.series.len(), expected_series, "{id}");
        for s in &fig.series {
            assert_eq!(s.points.len(), GRID_POINTS, "{id}/{}", s.label);
            assert_eq!(s.points[0].1, 0.0, "{id}: BER(0) must be 0");
            // Without repair the fail state is absorbing → monotone BER.
            if id != ExperimentId::Fig7 {
                for w in s.points.windows(2) {
                    assert!(w[1].1 >= w[0].1, "{id}/{}: BER not monotone", s.label);
                }
            }
        }
    }
}

#[test]
fn fig5_vs_fig6_same_range_claim() {
    // Paper: simplex and duplex BERs are "in the same range" under
    // transient faults.
    let s = figure(ExperimentId::Fig5);
    let d = figure(ExperimentId::Fig6);
    for i in 0..SEU_RATES_PER_BIT_DAY.len() {
        let ratio = final_value(&d, i) / final_value(&s, i);
        assert!(
            (0.3..=3.4).contains(&ratio),
            "series {i}: duplex/simplex = {ratio}"
        );
    }
}

#[test]
fn fig5_scales_quadratically_with_seu_rate() {
    // Two SEUs kill the t=1 code, so BER ∝ λ² at fixed t.
    let s = figure(ExperimentId::Fig5);
    let r01 = SEU_RATES_PER_BIT_DAY[1] / SEU_RATES_PER_BIT_DAY[0];
    let b01 = final_value(&s, 1) / final_value(&s, 0);
    let predicted = r01 * r01;
    assert!(
        (b01 / predicted - 1.0).abs() < 0.15,
        "BER ratio {b01:.2} vs λ² prediction {predicted:.2}"
    );
}

#[test]
fn fig7_hourly_scrubbing_meets_1e6_target() {
    let fig = figure(ExperimentId::Fig7);
    for s in &fig.series {
        let max = s.points.iter().map(|&(_, b)| b).fold(0.0, f64::max);
        assert!(max < 1e-6, "Tsc = {}: max BER {max:e}", s.label);
    }
}

#[test]
fn fig7_curves_reach_constant_hazard() {
    // With scrubbing the chain reaches quasi-equilibrium within a few
    // scrub periods; after that the absorbing Fail state accumulates at a
    // constant hazard, i.e. BER grows linearly: consecutive late slopes
    // agree to a fraction of a percent.
    let fig = figure(ExperimentId::Fig7);
    for s in &fig.series {
        let s1 = s.points[GRID_POINTS - 2].1 - s.points[GRID_POINTS - 3].1;
        let s2 = s.points[GRID_POINTS - 1].1 - s.points[GRID_POINTS - 2].1;
        assert!(s1 > 0.0 && s2 > 0.0, "Tsc = {}: hazard vanished", s.label);
        let rel = (s2 - s1).abs() / s1;
        assert!(
            rel < 5e-3,
            "Tsc = {}: hazard not constant (slopes {s1:e} vs {s2:e})",
            s.label
        );
    }
}

#[test]
fn permanent_fault_hierarchy_simplex18_duplex_simplex36() {
    // The paper's headline permanent-fault result, Figs. 8–10:
    //   simplex RS(18,16)  ≪  duplex RS(18,16)  ≪  simplex RS(36,16)
    // (in reliability; reversed in BER). Check at the top rate where all
    // three values are comfortably representable.
    let s18 = figure(ExperimentId::Fig8);
    let dup = figure(ExperimentId::Fig9);
    let s36 = figure(ExperimentId::Fig10);
    let (a, b, c) = (
        final_value(&s18, 0),
        final_value(&dup, 0),
        final_value(&s36, 0),
    );
    assert!(a > b, "simplex RS(18,16) {a:e} must be worst, duplex {b:e}");
    assert!(b > c, "duplex {b:e} must lose to simplex RS(36,16) {c:e}");
}

#[test]
fn fig8_low_rate_curves_are_tiny_but_nonzero() {
    let fig = figure(ExperimentId::Fig8);
    let lowest = final_value(&fig, PERMANENT_RATES_PER_SYMBOL_DAY.len() - 1);
    assert!(lowest > 0.0);
    assert!(
        lowest < 1e-15,
        "λe = 1e-10 should give a tiny BER, got {lowest:e}"
    );
}

#[test]
fn fig9_exponent_roughly_doubles_fig8() {
    // Duplex failure needs double-erasure pairs: at a fixed small rate the
    // failure probability exponent is about twice the simplex one
    // (paper: 1e-30 → 1e-60 territory at the low-rate end).
    let s = figure(ExperimentId::Fig8);
    let d = figure(ExperimentId::Fig9);
    for i in 3..PERMANENT_RATES_PER_SYMBOL_DAY.len() {
        let (ls, ld) = (final_value(&s, i).log10(), final_value(&d, i).log10());
        assert!(
            ld / ls > 1.4 && ld / ls < 2.6,
            "series {i}: simplex 1e{ls:.1}, duplex 1e{ld:.1} (ratio {:.2})",
            ld / ls
        );
    }
}

#[test]
fn fig10_reaches_far_below_fig8() {
    // Paper Fig. 10's y-axis reaches 1e-200 where Fig. 8 stops at 1e-30.
    let s18 = figure(ExperimentId::Fig8);
    let s36 = figure(ExperimentId::Fig10);
    let i = PERMANENT_RATES_PER_SYMBOL_DAY.len() - 1;
    let (b18, b36) = (final_value(&s18, i), final_value(&s36, i));
    assert!(b18 > 1e-25, "RS(18,16) low-rate BER {b18:e}");
    assert!(
        b36 < 1e-100,
        "RS(36,16) must be vanishingly small, got {b36:e}"
    );
}

#[test]
fn complexity_table_matches_figure_economics() {
    // Decode latency: duplex wins >4x; area: the wide decoder pays more
    // than two narrow ones; redundancy: duplex == wide simplex.
    let rows = run(ExperimentId::Complexity)
        .expect("runs")
        .table()
        .expect("table")
        .to_vec();
    assert_eq!(rows[1].redundant_symbols, rows[2].redundant_symbols);
    assert!(rows[2].decode_cycles as f64 / rows[1].decode_cycles as f64 > 4.0);
    assert!(rows[2].area_units > rows[1].area_units / 2 * 2);
}

/// Duplex RS(18,16) BER at `t` under the given fail criterion.
fn duplex_ber(
    criterion: rsmem::DuplexFailCriterion,
    seu_per_bit_day: f64,
    erasure_per_symbol_day: f64,
    t: rsmem::units::Time,
) -> f64 {
    use rsmem::units::{ErasureRate, SeuRate};
    use rsmem::{CodeParams, DuplexOptions, MemorySystem};
    MemorySystem::duplex(CodeParams::rs18_16())
        .with_seu_rate(SeuRate::per_bit_day(seu_per_bit_day))
        .with_erasure_rate(ErasureRate::per_symbol_day(erasure_per_symbol_day))
        .with_duplex_options(DuplexOptions {
            fail_criterion: criterion,
            ..Default::default()
        })
        .ber_curve(&[t])
        .expect("duplex model solves")
        .ber[0]
}

#[test]
fn duplex_fail_criterion_ablation() {
    // DESIGN.md note 2: Fig. 6 sits "in the same range" as Fig. 5 only
    // under the BothWords reading. The optimistic EitherWord reading
    // would put the 48 h transient BER five orders of magnitude lower
    // (measured 2.2567e-5 vs 1.2732e-10, ratio 1.77e5), with or without
    // an added permanent-fault rate.
    use rsmem::units::Time;
    use rsmem::DuplexFailCriterion::{BothWords, EitherWord};
    let h48 = Time::from_hours(48.0);
    for (seu, erasure) in [(1.7e-5, 0.0), (1.7e-5, 1e-6)] {
        let both = duplex_ber(BothWords, seu, erasure, h48);
        let either = duplex_ber(EitherWord, seu, erasure, h48);
        let ratio = both / either;
        assert!(
            (1e5..=1e6).contains(&ratio),
            "λ = {seu:e}, λe = {erasure:e}: BothWords {both:e} / EitherWord {either:e} = {ratio:e}"
        );
    }

    // Under pure permanent faults there are no random errors, so both
    // words see the same erasure count and the two criteria classify
    // every state alike: the BER is bit-identical.
    let months24 = Time::from_months(24.0);
    for erasure in [1e-6, 1e-4] {
        let both = duplex_ber(BothWords, 0.0, erasure, months24);
        let either = duplex_ber(EitherWord, 0.0, erasure, months24);
        assert!(both > 0.0, "λe = {erasure:e}: BER must be nonzero");
        assert_eq!(
            both.to_bits(),
            either.to_bits(),
            "λe = {erasure:e}: BothWords {both:e} vs EitherWord {either:e}"
        );
    }
}
