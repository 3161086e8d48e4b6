//! Mission profiles: piecewise-constant fault environments.
//!
//! Space missions do not see a constant SEU rate — solar flares raise the
//! particle flux by orders of magnitude for hours to days. The paper
//! sweeps constant rates; this module composes its models over a sequence
//! of *phases*, each with its own [`FaultRates`], by carrying the full
//! transient state distribution across phase boundaries (the chain's
//! state indexing is shared across phases, so no probability mass is
//! lost or misattributed).

use crate::ber::MemoryModel;
use crate::units::{SeuRate, Time};
use crate::{CodeParams, FaultRates, ModelError, Scrubbing, SimplexModel};
use rsmem_ctmc::uniformization::{transient_grid_from, UniformizationOptions};
use rsmem_ctmc::StateSpace;

/// One phase of a mission: a duration spent in a fault environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionPhase {
    /// How long the phase lasts.
    pub duration: Time,
    /// The environment during the phase.
    pub rates: FaultRates,
}

/// Shared phase-composition engine: explore once under a superset
/// environment, then solve each phase over the shared state indexing,
/// carrying the full distribution across boundaries.
fn phase_fail_probabilities<M>(probe: &M, phases: &[(M, Time)]) -> Result<Vec<f64>, ModelError>
where
    M: MemoryModel,
{
    let space = StateSpace::explore(probe)?;
    let fail = space.index_of(&probe.fail_state());
    let opts = UniformizationOptions::default();
    let mut p = space.initial_distribution();
    let mut out = Vec::with_capacity(phases.len());
    for (model, duration) in phases {
        let phase_space = space.with_model_rates(model)?;
        let mut grid = transient_grid_from(&phase_space, &p, &[duration.as_days()], &opts)?;
        p = grid.pop().expect("one time point");
        out.push(fail.map_or(0.0, |f| p[f]));
    }
    Ok(out)
}

fn superset_rates() -> FaultRates {
    FaultRates {
        seu: SeuRate::per_bit_day(1.0),
        erasure: crate::units::ErasureRate::per_symbol_day(1.0),
    }
}

/// A piecewise-constant mission profile for a **simplex** memory word.
///
/// # Examples
///
/// ```
/// use rsmem_models::mission::{MissionPhase, SimplexMission};
/// use rsmem_models::units::{SeuRate, Time};
/// use rsmem_models::{CodeParams, FaultRates, Scrubbing};
///
/// # fn main() -> Result<(), rsmem_models::ModelError> {
/// let quiet = FaultRates::transient_only(SeuRate::per_bit_day(7.3e-7));
/// let flare = FaultRates::transient_only(SeuRate::per_bit_day(1.7e-5));
/// let mission = SimplexMission::new(
///     CodeParams::rs18_16(),
///     Scrubbing::None,
///     vec![
///         MissionPhase { duration: Time::from_hours(24.0), rates: quiet },
///         MissionPhase { duration: Time::from_hours(6.0), rates: flare },
///         MissionPhase { duration: Time::from_hours(18.0), rates: quiet },
///     ],
/// )?;
/// let p_fail = mission.fail_probability_at_end()?;
/// assert!(p_fail > 0.0 && p_fail < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexMission {
    code: CodeParams,
    scrub: Scrubbing,
    phases: Vec<MissionPhase>,
}

impl SimplexMission {
    /// Builds a mission profile.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRate`] / [`ModelError::InvalidTime`] /
    /// [`ModelError::InvalidScrubPeriod`] on malformed phases; a mission
    /// needs at least one phase.
    pub fn new(
        code: CodeParams,
        scrub: Scrubbing,
        phases: Vec<MissionPhase>,
    ) -> Result<Self, ModelError> {
        if phases.is_empty() {
            return Err(ModelError::InvalidTime);
        }
        scrub.validate()?;
        for phase in &phases {
            phase.rates.validate()?;
            if !phase.duration.is_valid() {
                return Err(ModelError::InvalidTime);
            }
        }
        Ok(SimplexMission {
            code,
            scrub,
            phases,
        })
    }

    /// The fail-state probability at the end of the last phase.
    ///
    /// # Errors
    ///
    /// Wrapped solver errors.
    pub fn fail_probability_at_end(&self) -> Result<f64, ModelError> {
        Ok(*self
            .fail_probability_after_each_phase()?
            .last()
            .expect("at least one phase"))
    }

    /// `BER` (paper Eq. 1) at mission end.
    ///
    /// # Errors
    ///
    /// Wrapped solver errors.
    pub fn ber_at_end(&self) -> Result<f64, ModelError> {
        Ok(self.code.ber_prefactor() * self.fail_probability_at_end()?)
    }

    /// The fail probability after each phase boundary, in order.
    ///
    /// # Errors
    ///
    /// Wrapped solver errors.
    pub fn fail_probability_after_each_phase(&self) -> Result<Vec<f64>, ModelError> {
        let probe = SimplexModel::new(self.code, superset_rates(), self.scrub);
        let phases: Vec<(SimplexModel, Time)> = self
            .phases
            .iter()
            .map(|ph| {
                (
                    SimplexModel::new(self.code, ph.rates, self.scrub),
                    ph.duration,
                )
            })
            .collect();
        phase_fail_probabilities(&probe, &phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber;
    use crate::units::ErasureRate;

    fn quiet() -> FaultRates {
        FaultRates::transient_only(SeuRate::per_bit_day(7.3e-7))
    }

    fn flare() -> FaultRates {
        FaultRates::transient_only(SeuRate::per_bit_day(1.7e-5))
    }

    #[test]
    fn empty_mission_rejected() {
        assert!(SimplexMission::new(CodeParams::rs18_16(), Scrubbing::None, vec![]).is_err());
    }

    #[test]
    fn single_phase_matches_constant_rate_model() {
        let phase = MissionPhase {
            duration: Time::from_hours(48.0),
            rates: flare(),
        };
        let mission =
            SimplexMission::new(CodeParams::rs18_16(), Scrubbing::None, vec![phase]).unwrap();
        let model = SimplexModel::new(CodeParams::rs18_16(), flare(), Scrubbing::None);
        let constant = ber::ber_curve(&model, &[Time::from_hours(48.0)]).unwrap();
        let p_mission = mission.fail_probability_at_end().unwrap();
        let rel = (p_mission - constant.fail_probability[0]).abs() / constant.fail_probability[0];
        assert!(
            rel < 1e-9,
            "mission {p_mission} vs constant {}",
            constant.fail_probability[0]
        );
    }

    #[test]
    fn splitting_a_phase_changes_nothing() {
        // Markov property: solving 48 h in one phase or as 2×24 h with the
        // same rates must agree exactly.
        let whole = SimplexMission::new(
            CodeParams::rs18_16(),
            Scrubbing::None,
            vec![MissionPhase {
                duration: Time::from_hours(48.0),
                rates: flare(),
            }],
        )
        .unwrap();
        let split = SimplexMission::new(
            CodeParams::rs18_16(),
            Scrubbing::None,
            vec![
                MissionPhase {
                    duration: Time::from_hours(24.0),
                    rates: flare(),
                },
                MissionPhase {
                    duration: Time::from_hours(24.0),
                    rates: flare(),
                },
            ],
        )
        .unwrap();
        let (a, b) = (
            whole.fail_probability_at_end().unwrap(),
            split.fail_probability_at_end().unwrap(),
        );
        assert!(((a - b) / a).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn flare_phase_dominates_the_mission_ber() {
        // 47 h quiet + 1 h flare ≫ 48 h quiet.
        let calm = SimplexMission::new(
            CodeParams::rs18_16(),
            Scrubbing::None,
            vec![MissionPhase {
                duration: Time::from_hours(48.0),
                rates: quiet(),
            }],
        )
        .unwrap();
        let stormy = SimplexMission::new(
            CodeParams::rs18_16(),
            Scrubbing::None,
            vec![
                MissionPhase {
                    duration: Time::from_hours(47.0),
                    rates: quiet(),
                },
                MissionPhase {
                    duration: Time::from_hours(1.0),
                    rates: flare(),
                },
            ],
        )
        .unwrap();
        let (c, s) = (
            calm.fail_probability_at_end().unwrap(),
            stormy.fail_probability_at_end().unwrap(),
        );
        assert!(s > 2.0 * c, "stormy {s} vs calm {c}");
    }

    #[test]
    fn phase_order_matters_with_scrubbing_but_probabilities_accumulate() {
        // Without repair the fail state is absorbing, so probabilities
        // after each phase are non-decreasing.
        let mission = SimplexMission::new(
            CodeParams::rs18_16(),
            Scrubbing::None,
            vec![
                MissionPhase {
                    duration: Time::from_hours(10.0),
                    rates: flare(),
                },
                MissionPhase {
                    duration: Time::from_hours(10.0),
                    rates: quiet(),
                },
                MissionPhase {
                    duration: Time::from_hours(10.0),
                    rates: flare(),
                },
            ],
        )
        .unwrap();
        let steps = mission.fail_probability_after_each_phase().unwrap();
        assert_eq!(steps.len(), 3);
        assert!(steps[0] < steps[1] && steps[1] < steps[2]);
    }

    #[test]
    fn mixed_mechanisms_supported() {
        let mission = SimplexMission::new(
            CodeParams::rs18_16(),
            Scrubbing::every_seconds(1800.0),
            vec![
                MissionPhase {
                    duration: Time::from_days(5.0),
                    rates: FaultRates {
                        seu: SeuRate::per_bit_day(1e-5),
                        erasure: ErasureRate::per_symbol_day(1e-6),
                    },
                },
                MissionPhase {
                    duration: Time::from_days(5.0),
                    rates: FaultRates {
                        seu: SeuRate::per_bit_day(1e-4),
                        erasure: ErasureRate::per_symbol_day(0.0),
                    },
                },
            ],
        )
        .unwrap();
        let ber = mission.ber_at_end().unwrap();
        assert!(ber > 0.0 && ber < 1.0);
    }
}
