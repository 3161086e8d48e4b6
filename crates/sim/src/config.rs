//! Simulation configuration.

use crate::SimError;
use rsmem_code::CodeError;
use rsmem_models::{CodeFamily, CodeParams};

/// How scrub instants are placed in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScrubTiming {
    /// Deterministic period — every `Tsc`, as a real memory controller
    /// schedules it.
    #[default]
    Periodic,
    /// Exponentially distributed gaps with mean `Tsc` — the memoryless
    /// approximation the paper's Markov models make. Selecting this mode
    /// lets the simulator validate the models on exactly their own terms.
    Exponential,
}

/// Full configuration of one simulated memory word (simplex) or word pair
/// (duplex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Codeword length in symbols.
    pub n: usize,
    /// Dataword length in symbols.
    pub k: usize,
    /// Symbol width in bits.
    pub m: u32,
    /// Code family protecting the word (RS, Reed–Muller or
    /// interleaved RS).
    pub family: CodeFamily,
    /// Interleave depth — meaningful only for [`CodeFamily::Irs`];
    /// use `1` for the other families.
    pub depth: u8,
    /// SEU rate per bit per day (the paper's `λ`).
    pub seu_per_bit_day: f64,
    /// Permanent-fault rate per symbol per day (the paper's `λe`).
    pub erasure_per_symbol_day: f64,
    /// Scrubbing: `(period in days, timing mode)`, or `None` to disable.
    pub scrub: Option<(f64, ScrubTiming)>,
    /// Storage horizon in days (the "stopping time" at which the word is
    /// read back).
    pub store_days: f64,
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for negative/non-finite rates,
    /// period or horizon. Code parameters are validated later by the
    /// codec itself.
    pub fn validate(&self) -> Result<(), SimError> {
        let checks: [(&'static str, f64, bool); 4] = [
            ("seu_per_bit_day", self.seu_per_bit_day, false),
            ("erasure_per_symbol_day", self.erasure_per_symbol_day, false),
            ("store_days", self.store_days, false),
            ("scrub period", self.scrub.map_or(1.0, |(p, _)| p), true),
        ];
        for (name, value, must_be_positive) in checks {
            let ok = value.is_finite() && (value > 0.0 || (!must_be_positive && value >= 0.0));
            if !ok {
                return Err(SimError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }

    /// Reconstructs the model-layer [`CodeParams`] this configuration
    /// describes, validating that `n`/`k`/`m` are consistent with the
    /// selected family (e.g. `n = 2^r`, `k = r + 1`, `m = 1` for
    /// RM(1,r); `depth | n` and `depth | k` for interleaved RS).
    ///
    /// # Errors
    ///
    /// [`SimError::Code`] when the geometry does not name a
    /// constructible code of the selected family.
    pub fn code_params(&self) -> Result<CodeParams, SimError> {
        let invalid = |reason: &'static str| {
            SimError::Code(CodeError::InvalidParameters {
                n: self.n,
                k: self.k,
                m: self.m,
                reason,
            })
        };
        let params = match self.family {
            CodeFamily::Rs => CodeParams::new(self.n, self.k, self.m)
                .map_err(|_| invalid("invalid RS geometry"))?,
            CodeFamily::Rm => CodeParams::rm1(self.n.trailing_zeros())
                .map_err(|_| invalid("invalid RM(1,r) geometry (n must be 2^r, r in 3..=12)"))?,
            CodeFamily::Irs => {
                let depth = usize::from(self.depth);
                if depth < 2 || !self.n.is_multiple_of(depth) || !self.k.is_multiple_of(depth) {
                    return Err(invalid(
                        "interleaved n and k must be multiples of depth 2..=64",
                    ));
                }
                CodeParams::interleaved(self.n / depth, self.k / depth, self.m, self.depth)
                    .map_err(|_| invalid("invalid interleaved-RS geometry"))?
            }
        };
        if (params.n(), params.k(), params.m()) != (self.n, self.k, self.m) {
            return Err(invalid("n/k/m do not match the selected code family"));
        }
        Ok(params)
    }

    /// The paper's RS(18,16) byte-symbol configuration with no faults —
    /// a baseline to customize.
    pub fn rs18_16_baseline() -> Self {
        SimConfig {
            n: 18,
            k: 16,
            m: 8,
            family: CodeFamily::Rs,
            depth: 1,
            seu_per_bit_day: 0.0,
            erasure_per_symbol_day: 0.0,
            scrub: None,
            store_days: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        assert!(SimConfig::rs18_16_baseline().validate().is_ok());
    }

    #[test]
    fn negative_rate_rejected() {
        let mut c = SimConfig::rs18_16_baseline();
        c.seu_per_bit_day = -1.0;
        assert!(matches!(
            c.validate(),
            Err(SimError::InvalidParameter {
                name: "seu_per_bit_day",
                ..
            })
        ));
    }

    #[test]
    fn zero_scrub_period_rejected() {
        let mut c = SimConfig::rs18_16_baseline();
        c.scrub = Some((0.0, ScrubTiming::Periodic));
        assert!(c.validate().is_err());
    }

    #[test]
    fn nan_horizon_rejected() {
        let mut c = SimConfig::rs18_16_baseline();
        c.store_days = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn code_params_round_trips_every_family() {
        let rs = SimConfig::rs18_16_baseline();
        assert_eq!(rs.code_params().unwrap(), CodeParams::rs18_16());

        let mut rm = SimConfig::rs18_16_baseline();
        (rm.n, rm.k, rm.m, rm.family) = (32, 6, 1, CodeFamily::Rm);
        assert_eq!(rm.code_params().unwrap(), CodeParams::rm1(5).unwrap());

        let mut irs = SimConfig::rs18_16_baseline();
        (irs.n, irs.k, irs.family, irs.depth) = (36, 32, CodeFamily::Irs, 2);
        assert_eq!(
            irs.code_params().unwrap(),
            CodeParams::interleaved(18, 16, 8, 2).unwrap()
        );
    }

    #[test]
    fn inconsistent_family_geometry_rejected() {
        // k does not match r + 1 for n = 2^r.
        let mut rm = SimConfig::rs18_16_baseline();
        (rm.n, rm.k, rm.m, rm.family) = (32, 7, 1, CodeFamily::Rm);
        assert!(rm.code_params().is_err());
        // depth does not divide n.
        let mut irs = SimConfig::rs18_16_baseline();
        (irs.n, irs.k, irs.family, irs.depth) = (36, 32, CodeFamily::Irs, 5);
        assert!(irs.code_params().is_err());
        // depth 1 is not an interleave.
        irs.depth = 1;
        assert!(irs.code_params().is_err());
    }
}
