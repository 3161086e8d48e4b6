//! Bit Error Rate evaluation — paper Eq. (1).
//!
//! The paper's figure of merit is
//! `BER(t) = m · (n−k)/k · P_Fail(t)`,
//! where `P_Fail(t)` is the transient probability of the lumped
//! unrecoverable-error state. This module evaluates it over time grids
//! with the uniformization solver (and, for acyclic no-scrubbing models,
//! cross-checks against the SURE-style path bounds).

use crate::duplex::{DuplexModel, DuplexState};
use crate::simplex::{SimplexModel, SimplexState};
use crate::units::Time;
use crate::{CodeParams, ModelError};
use rsmem_ctmc::paths::{absorption_bounds, PathBound, PathOptions};
use rsmem_ctmc::uniformization::{transient_grid_projected, UniformizationOptions};
use rsmem_ctmc::{MarkovModel, StateSpace};

/// A memory-system Markov model with a distinguished Fail state —
/// everything [`ber_curve`] needs, implemented by [`SimplexModel`] and
/// [`DuplexModel`].
pub trait MemoryModel: MarkovModel {
    /// The code parameters (for Eq. (1)'s prefactor).
    fn code_params(&self) -> CodeParams;
    /// The lumped unrecoverable-error state.
    fn fail_state(&self) -> Self::State;
}

impl MemoryModel for SimplexModel {
    fn code_params(&self) -> CodeParams {
        self.code()
    }
    fn fail_state(&self) -> SimplexState {
        SimplexState::Fail
    }
}

impl MemoryModel for DuplexModel {
    fn code_params(&self) -> CodeParams {
        self.code()
    }
    fn fail_state(&self) -> DuplexState {
        DuplexState::Fail
    }
}

/// A BER-versus-time series, the payload of every figure in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct BerCurve {
    /// The evaluation times.
    pub times: Vec<Time>,
    /// `P_Fail(t)` at each time.
    pub fail_probability: Vec<f64>,
    /// `BER(t) = m·(n−k)/k · P_Fail(t)` at each time.
    pub ber: Vec<f64>,
}

impl BerCurve {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// `(hours, BER)` pairs — the axes of paper Figs. 5–7.
    pub fn as_hours_series(&self) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .zip(&self.ber)
            .map(|(t, &b)| (t.as_hours(), b))
            .collect()
    }

    /// `(months, BER)` pairs — the axes of paper Figs. 8–10.
    pub fn as_months_series(&self) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .zip(&self.ber)
            .map(|(t, &b)| (t.as_months(), b))
            .collect()
    }
}

/// Evaluates the BER curve of a memory model over the given times with
/// default solver options.
///
/// # Errors
///
/// [`ModelError::InvalidTime`] on bad grid points, or a wrapped
/// [`ModelError::Ctmc`] from exploration/solving.
pub fn ber_curve<M>(model: &M, times: &[Time]) -> Result<BerCurve, ModelError>
where
    M: MemoryModel,
{
    for t in times {
        if !t.is_valid() {
            return Err(ModelError::InvalidTime);
        }
    }
    let space = StateSpace::explore(model)?;
    let days: Vec<f64> = times.iter().map(|t| t.as_days()).collect();
    // Eq. (1) reads one component: solve for P_Fail alone. A model whose
    // Fail state is unreachable still runs the (empty) projected solve,
    // so solver errors surface as they would for any other model.
    let fail = space.index_of(&model.fail_state());
    let grid = transient_grid_projected(
        &space,
        &days,
        fail.as_slice(),
        &UniformizationOptions::default(),
    )?;
    let prefactor = model.code_params().ber_prefactor();
    let fail_probability: Vec<f64> = grid
        .iter()
        .map(|p| p.first().copied().unwrap_or(0.0))
        .collect();
    let ber = fail_probability.iter().map(|&p| prefactor * p).collect();
    Ok(BerCurve {
        times: times.to_vec(),
        fail_probability,
        ber,
    })
}

/// SURE-style two-sided bounds on `P_Fail(t)` for **acyclic** models
/// (no scrubbing). Returns unreachable-as-zero bounds when the Fail state
/// was never generated (e.g. all rates zero).
///
/// # Errors
///
/// [`ModelError::Ctmc`] wrapping [`rsmem_ctmc::CtmcError::NotAcyclic`]
/// when scrubbing (or any cycle) is present.
pub fn fail_probability_bounds<M>(model: &M, t: Time) -> Result<PathBound, ModelError>
where
    M: MemoryModel,
{
    let space = StateSpace::explore(model)?;
    let Some(fail) = space.index_of(&model.fail_state()) else {
        return Ok(PathBound {
            ln_lower: f64::NEG_INFINITY,
            ln_upper: f64::NEG_INFINITY,
        });
    };
    Ok(absorption_bounds(
        &space,
        fail,
        t.as_days(),
        &PathOptions::default(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{ErasureRate, SeuRate, TimeGrid};
    use crate::{FaultRates, Scrubbing};

    fn simplex(seu: f64, erasure: f64, scrub: Scrubbing) -> SimplexModel {
        SimplexModel::new(
            CodeParams::rs18_16(),
            FaultRates {
                seu: SeuRate::per_bit_day(seu),
                erasure: ErasureRate::per_symbol_day(erasure),
            },
            scrub,
        )
    }

    fn duplex(seu: f64, erasure: f64, scrub: Scrubbing) -> DuplexModel {
        DuplexModel::new(
            CodeParams::rs18_16(),
            FaultRates {
                seu: SeuRate::per_bit_day(seu),
                erasure: ErasureRate::per_symbol_day(erasure),
            },
            scrub,
        )
    }

    #[test]
    fn ber_is_zero_at_time_zero_and_monotone_without_scrubbing() {
        let model = simplex(1.7e-5, 0.0, Scrubbing::None);
        let grid = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 13);
        let curve = ber_curve(&model, grid.points()).unwrap();
        assert_eq!(curve.ber[0], 0.0);
        for w in curve.ber.windows(2) {
            assert!(w[1] >= w[0], "absorbing fail ⇒ monotone BER");
        }
        assert!(curve.ber[12] > 0.0);
    }

    #[test]
    fn eq1_prefactor_applied() {
        let model = simplex(1.7e-5, 0.0, Scrubbing::None);
        let curve = ber_curve(&model, &[Time::from_hours(48.0)]).unwrap();
        // RS(18,16), m=8 → prefactor exactly 1.
        assert_eq!(curve.ber[0], curve.fail_probability[0]);

        let wide = SimplexModel::new(
            CodeParams::rs36_16(),
            FaultRates::transient_only(SeuRate::per_bit_day(1.7e-5)),
            Scrubbing::None,
        );
        let wide_curve = ber_curve(&wide, &[Time::from_hours(48.0)]).unwrap();
        assert!((wide_curve.ber[0] - 10.0 * wide_curve.fail_probability[0]).abs() < 1e-25);
    }

    #[test]
    fn simplex_two_seu_failure_matches_hand_rate_analysis() {
        // For small λt, P_fail(t) ≈ (first path rates product)·t²/2:
        // G →(mλn) (0,1) →(mλ(n−1)) Fail ⇒ P ≈ m²λ²n(n−1)·t²/2.
        let lam = 1e-6;
        let model = simplex(lam, 0.0, Scrubbing::None);
        let t = Time::from_hours(1.0);
        let curve = ber_curve(&model, &[t]).unwrap();
        let td = t.as_days();
        let expect = (8.0 * lam).powi(2) * 18.0 * 17.0 * td * td / 2.0;
        let rel = (curve.fail_probability[0] - expect).abs() / expect;
        assert!(
            rel < 1e-3,
            "got {} expect {expect}",
            curve.fail_probability[0]
        );
    }

    #[test]
    fn duplex_beats_simplex_under_permanent_faults() {
        let t = Time::from_months(24.0);
        let s = ber_curve(&simplex(0.0, 1e-6, Scrubbing::None), &[t]).unwrap();
        let d = ber_curve(&duplex(0.0, 1e-6, Scrubbing::None), &[t]).unwrap();
        assert!(
            d.ber[0] < s.ber[0] / 1e3,
            "duplex {} should be orders below simplex {}",
            d.ber[0],
            s.ber[0]
        );
    }

    #[test]
    fn scrubbing_improves_duplex_ber() {
        let t = Time::from_hours(48.0);
        let no = ber_curve(&duplex(1.7e-5, 0.0, Scrubbing::None), &[t]).unwrap();
        let with = ber_curve(&duplex(1.7e-5, 0.0, Scrubbing::every_seconds(900.0)), &[t]).unwrap();
        assert!(with.ber[0] < no.ber[0]);
    }

    #[test]
    fn faster_scrubbing_is_better() {
        // Paper Fig. 7: BER at fixed t grows with the scrub period, and
        // any Tsc ≤ 1 h keeps BER(48 h) below 1e-6 at the worst-case SEU
        // rate.
        let t = Time::from_hours(48.0);
        let bers: Vec<f64> = [900.0, 1200.0, 1800.0, 3600.0]
            .iter()
            .map(|&secs| {
                ber_curve(&duplex(1.7e-5, 0.0, Scrubbing::every_seconds(secs)), &[t])
                    .unwrap()
                    .ber[0]
            })
            .collect();
        for w in bers.windows(2) {
            assert!(w[0] < w[1], "longer period ⇒ worse BER: {bers:?}");
        }
        assert!(bers.iter().all(|&b| b > 0.0 && b < 1e-6), "{bers:?}");
    }

    #[test]
    fn path_bounds_bracket_uniformization_for_acyclic_models() {
        let model = simplex(1e-6, 1e-7, Scrubbing::None);
        let t = Time::from_hours(48.0);
        let curve = ber_curve(&model, &[t]).unwrap();
        let bounds = fail_probability_bounds(&model, t).unwrap();
        let p = curve.fail_probability[0];
        assert!(p > 0.0);
        assert!(
            bounds.contains_ln(p.ln(), 1e-6),
            "p={p:e} not in [{:e}, {:e}]",
            bounds.lower(),
            bounds.upper()
        );
        assert!(bounds.ln_width() < 0.01, "bounds should be tight here");
    }

    #[test]
    fn path_bounds_reject_scrubbing_models() {
        let model = simplex(1e-6, 1e-7, Scrubbing::every_seconds(900.0));
        assert!(matches!(
            fail_probability_bounds(&model, Time::from_hours(1.0)),
            Err(ModelError::Ctmc(rsmem_ctmc::CtmcError::NotAcyclic))
        ));
    }

    #[test]
    fn zero_rates_give_zero_ber() {
        let model = simplex(0.0, 0.0, Scrubbing::None);
        let curve = ber_curve(&model, &[Time::from_hours(48.0)]).unwrap();
        assert_eq!(curve.ber[0], 0.0);
        let b = fail_probability_bounds(&model, Time::from_hours(48.0)).unwrap();
        assert_eq!(b.upper(), 0.0);
    }

    #[test]
    fn series_conversions() {
        let model = simplex(1e-5, 0.0, Scrubbing::None);
        let grid = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 3);
        let curve = ber_curve(&model, grid.points()).unwrap();
        let hours = curve.as_hours_series();
        assert_eq!(hours.len(), 3);
        assert!((hours[2].0 - 48.0).abs() < 1e-9);
        let months = curve.as_months_series();
        assert!((months[2].0 - 2.0 / 30.4375).abs() < 1e-9);
    }

    #[test]
    fn invalid_time_rejected() {
        let model = simplex(1e-5, 0.0, Scrubbing::None);
        let bad = [Time::from_days(f64::NAN)];
        assert!(matches!(
            ber_curve(&model, &bad),
            Err(ModelError::InvalidTime)
        ));
    }
}
