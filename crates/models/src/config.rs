//! Shared model configuration: code parameters, fault environment,
//! scrubbing policy.

use crate::units::{ErasureRate, SeuRate, Time};
use crate::ModelError;
use std::fmt;

/// The code family a [`CodeParams`] describes.
///
/// The Markov models and the simulator only ever consult the family
/// through [`CodeParams::capability`], so adding a family here is all
/// the analysis layers need; the actual encoder/decoder lives in
/// `rsmem-codes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeFamily {
    /// Reed–Solomon over GF(2^m) — the paper's code.
    #[default]
    Rs,
    /// First-order Reed–Muller RM(1,r) over GF(2), majority-logic
    /// decoded with the stuck-at masking trick (Djurdjevic et al.).
    Rm,
    /// Depth-d interleaved Reed–Solomon — the burst-error variant.
    Irs,
}

impl CodeFamily {
    /// The short lowercase name used by the CLI and the service JSON
    /// (`rs`, `rm`, `irs`).
    pub fn name(&self) -> &'static str {
        match self {
            CodeFamily::Rs => "rs",
            CodeFamily::Rm => "rm",
            CodeFamily::Irs => "irs",
        }
    }
}

impl fmt::Display for CodeFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CodeFamily {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "rs" => Ok(CodeFamily::Rs),
            "rm" => Ok(CodeFamily::Rm),
            "irs" => Ok(CodeFamily::Irs),
            _ => Err(ModelError::InvalidCode {
                n: 0,
                k: 0,
                m: 0,
                reason: "unknown code family (expected rs, rm or irs)",
            }),
        }
    }
}

/// What a decoder guarantees to correct, as pure data.
///
/// Every family's guarantee fits one shape: after up to
/// `masked_erasures` erasures are absorbed for free (stuck-at masking),
/// the remaining erasures cost 1 and random symbol errors cost 2
/// against `budget`. For RS this is exactly the paper's
/// `er + 2·re ≤ n − k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorrectionCapability {
    /// The weighted error/erasure budget (`n − k` for RS).
    pub budget: usize,
    /// Erasures absorbed before counting against the budget (stuck-at
    /// masking: RM(1,r) absorbs one known-stuck cell at write time).
    pub masked_erasures: usize,
}

impl CorrectionCapability {
    /// Does the guarantee cover `erasures` known-position faults plus
    /// `random_errors` unknown-position symbol errors?
    pub fn admits(&self, erasures: usize, random_errors: usize) -> bool {
        erasures.saturating_sub(self.masked_erasures) + 2 * random_errors <= self.budget
    }

    /// Maximum random symbol errors correctable with no erasures
    /// present (`t` in classical notation).
    pub fn max_random_errors(&self) -> usize {
        self.budget / 2
    }
}

/// The code parameters a memory model is built around.
///
/// This mirrors the `rsmem-codes` constructions but carries no field
/// tables — the Markov models only need the counting parameters and
/// the [`CorrectionCapability`] they imply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    n: usize,
    k: usize,
    m: u32,
    family: CodeFamily,
    depth: u8,
}

impl CodeParams {
    /// Validates and builds code parameters.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCode`] for `k == 0`, `k >= n`, `m ∉ 2..=16`
    /// or `n > 2^m − 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsmem_models::CodeParams;
    /// # fn main() -> Result<(), rsmem_models::ModelError> {
    /// let code = CodeParams::new(18, 16, 8)?;
    /// assert_eq!(code.redundancy(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(n: usize, k: usize, m: u32) -> Result<Self, ModelError> {
        if !(2..=16).contains(&m) {
            return Err(ModelError::InvalidCode {
                n,
                k,
                m,
                reason: "symbol width must be 2..=16",
            });
        }
        if k == 0 || k >= n {
            return Err(ModelError::InvalidCode {
                n,
                k,
                m,
                reason: "need 0 < k < n",
            });
        }
        if n > (1usize << m) - 1 {
            return Err(ModelError::InvalidCode {
                n,
                k,
                m,
                reason: "codeword length exceeds 2^m - 1",
            });
        }
        Ok(CodeParams {
            n,
            k,
            m,
            family: CodeFamily::Rs,
            depth: 1,
        })
    }

    /// First-order Reed–Muller RM(1,r): `n = 2^r` bit symbols,
    /// `k = r + 1`, minimum distance `2^(r−1)`, majority-logic decoded.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCode`] for `r ∉ 3..=12` (below r = 3 the
    /// bounded-distance budget is too small to correct even one error).
    pub fn rm1(r: u32) -> Result<Self, ModelError> {
        if !(3..=12).contains(&r) {
            return Err(ModelError::InvalidCode {
                n: 1usize << r.min(32),
                k: r as usize + 1,
                m: 1,
                reason: "RM(1,r) order must be 3..=12",
            });
        }
        Ok(CodeParams {
            n: 1 << r,
            k: r as usize + 1,
            m: 1,
            family: CodeFamily::Rm,
            depth: 1,
        })
    }

    /// Depth-`depth` interleaved RS built from `depth` copies of an
    /// inner RS(`inner_n`,`inner_k`) code over GF(2^m), round-robin
    /// dispersed: `n = depth·inner_n`, `k = depth·inner_k`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCode`] for an invalid inner code or
    /// `depth ∉ 2..=64`.
    pub fn interleaved(
        inner_n: usize,
        inner_k: usize,
        m: u32,
        depth: u8,
    ) -> Result<Self, ModelError> {
        let inner = CodeParams::new(inner_n, inner_k, m)?;
        if !(2..=64).contains(&depth) {
            return Err(ModelError::InvalidCode {
                n: inner_n,
                k: inner_k,
                m,
                reason: "interleave depth must be 2..=64",
            });
        }
        Ok(CodeParams {
            n: inner.n * depth as usize,
            k: inner.k * depth as usize,
            m,
            family: CodeFamily::Irs,
            depth,
        })
    }

    /// The paper's narrow code, RS(18,16) with byte symbols.
    pub fn rs18_16() -> Self {
        CodeParams {
            n: 18,
            k: 16,
            m: 8,
            family: CodeFamily::Rs,
            depth: 1,
        }
    }

    /// The paper's wide code, RS(36,16) with byte symbols.
    pub fn rs36_16() -> Self {
        CodeParams {
            n: 36,
            k: 16,
            m: 8,
            family: CodeFamily::Rs,
            depth: 1,
        }
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dataword length in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Symbol width in bits.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Redundancy `n − k`.
    pub fn redundancy(&self) -> usize {
        self.n - self.k
    }

    /// The code family.
    pub fn family(&self) -> CodeFamily {
        self.family
    }

    /// Interleave depth (1 for non-interleaved families).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Constituent codeword length: `n/depth` for interleaved RS,
    /// otherwise `n`.
    pub fn inner_n(&self) -> usize {
        self.n / self.depth as usize
    }

    /// Constituent dataword length: `k/depth` for interleaved RS,
    /// otherwise `k`.
    pub fn inner_k(&self) -> usize {
        self.k / self.depth as usize
    }

    /// The family's worst-case correction guarantee.
    ///
    /// - RS: the paper's budget `n − k` (erasure 1, error 2).
    /// - RM(1,r): bounded-distance budget `d − 1 = n/2 − 1`, plus one
    ///   masked erasure from the stuck-at write trick.
    /// - Interleaved RS: the inner budget `n/depth − k/depth` — the
    ///   worst case puts every random fault in one constituent word
    ///   (bursts do much better; see [`CodeParams::max_burst`]).
    pub fn capability(&self) -> CorrectionCapability {
        match self.family {
            CodeFamily::Rs => CorrectionCapability {
                budget: self.redundancy(),
                masked_erasures: 0,
            },
            CodeFamily::Rm => CorrectionCapability {
                budget: self.n / 2 - 1,
                masked_erasures: 1,
            },
            CodeFamily::Irs => CorrectionCapability {
                budget: self.inner_n() - self.inner_k(),
                masked_erasures: 0,
            },
        }
    }

    /// Longest contiguous symbol burst guaranteed correctable with no
    /// other faults present. Interleaving spreads a length-b burst over
    /// the constituents, `≤ ⌈b/depth⌉` errors each, so the guarantee is
    /// `depth · t_inner`; for the other families it is plain `t`.
    pub fn max_burst(&self) -> usize {
        self.depth as usize * self.capability().max_random_errors()
    }

    /// The boundary condition generalizing the paper's
    /// `er + 2·re ≤ n − k` to every family (see
    /// [`CodeParams::capability`]).
    pub fn within_capability(&self, erasures: usize, random_errors: usize) -> bool {
        self.capability().admits(erasures, random_errors)
    }

    /// Paper Eq. (1) prefactor, `m·(n−k)/k`.
    pub(crate) fn ber_prefactor(&self) -> f64 {
        self.m as f64 * self.redundancy() as f64 / self.k as f64
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family {
            CodeFamily::Rs => write!(f, "RS({},{}) over GF(2^{})", self.n, self.k, self.m),
            CodeFamily::Rm => write!(f, "RM(1,{}) over GF(2)", self.n.trailing_zeros()),
            CodeFamily::Irs => write!(
                f,
                "IRS({},{})x{} over GF(2^{})",
                self.inner_n(),
                self.inner_k(),
                self.depth,
                self.m
            ),
        }
    }
}

impl std::str::FromStr for CodeParams {
    type Err = ModelError;

    /// Parses the forms used by the CLI `--code` flag and the service
    /// JSON string form. A plain `N,K,M` triple (e.g. `"18,16,8"`)
    /// stays Reed–Solomon for backward compatibility; prefixed forms
    /// select the other families:
    ///
    /// - `rs:N,K,M` — explicit RS
    /// - `rm:R` — Reed–Muller RM(1,R)
    /// - `irs:N,K,M,D` — depth-D interleaved RS over inner RS(N,K)
    ///
    /// Whitespace around each component is ignored; results are
    /// validated by the corresponding constructor.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = |reason: &'static str| ModelError::InvalidCode {
            n: 0,
            k: 0,
            m: 0,
            reason,
        };
        let (family, rest) = match s.split_once(':') {
            Some((prefix, rest)) => (prefix.trim().parse::<CodeFamily>()?, rest),
            None => (CodeFamily::Rs, s),
        };
        let parts: Vec<usize> = rest
            .split(',')
            .map(|p| p.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| invalid("expected comma-separated integers"))?;
        match (family, parts.as_slice()) {
            (CodeFamily::Rs, &[n, k, m]) => CodeParams::new(n, k, m as u32),
            (CodeFamily::Rs, _) => Err(invalid("expected an N,K,M triple")),
            (CodeFamily::Rm, &[r]) => CodeParams::rm1(r as u32),
            (CodeFamily::Rm, _) => Err(invalid("expected rm:R")),
            (CodeFamily::Irs, &[n, k, m, d]) if d <= u8::MAX as usize => {
                CodeParams::interleaved(n, k, m as u32, d as u8)
            }
            (CodeFamily::Irs, _) => Err(invalid("expected irs:N,K,M,D")),
        }
    }
}

/// The fault environment: SEU and permanent-fault exposure rates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Transient (SEU) rate per bit per day — the paper's `λ`.
    pub seu: SeuRate,
    /// Permanent-fault (erasure) rate per symbol per day — the paper's `λe`.
    pub erasure: ErasureRate,
}

impl FaultRates {
    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRate`] if either rate is negative or NaN.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.seu.is_valid() && self.erasure.is_valid() {
            Ok(())
        } else {
            Err(ModelError::InvalidRate)
        }
    }

    /// Transient-only environment (paper Figs. 5–7).
    pub fn transient_only(seu: SeuRate) -> Self {
        FaultRates {
            seu,
            erasure: ErasureRate::default(),
        }
    }

    /// Validates and canonicalizes the rates for use as part of a cache
    /// key: `-0.0` is normalized to `+0.0` so that configurations that
    /// solve identically hash identically.
    ///
    /// # Errors
    ///
    /// See [`FaultRates::validate`].
    pub fn canonicalized(self) -> Result<Self, ModelError> {
        self.validate()?;
        fn unsign_zero(x: f64) -> f64 {
            if x == 0.0 {
                0.0
            } else {
                x
            }
        }
        Ok(FaultRates {
            seu: SeuRate::per_bit_day(unsign_zero(self.seu.as_per_bit_day())),
            erasure: ErasureRate::per_symbol_day(unsign_zero(self.erasure.as_per_symbol_day())),
        })
    }
}

/// The scrubbing policy.
///
/// Scrubbing is modelled as a memoryless repair event at rate `1/Tsc`
/// (the paper: "executed at a prescribed frequency characterized by a
/// rate 1/Tsc"); it rewrites corrected data, clearing accumulated
/// transient errors but leaving permanent faults in place.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Scrubbing {
    /// No scrubbing.
    #[default]
    None,
    /// Periodic scrubbing with the given period `Tsc`.
    Periodic {
        /// The scrub period.
        period: Time,
    },
}

impl Scrubbing {
    /// Convenience constructor from a period in seconds (the unit the
    /// paper's Fig. 7 legend uses).
    pub fn every_seconds(seconds: f64) -> Self {
        Scrubbing::Periodic {
            period: Time::from_seconds(seconds),
        }
    }

    /// The Markov repair rate in events per day (0 when disabled).
    pub fn rate_per_day(&self) -> f64 {
        match self {
            Scrubbing::None => 0.0,
            Scrubbing::Periodic { period } => 1.0 / period.as_days(),
        }
    }

    /// Validates and canonicalizes the policy for use as part of a cache
    /// key: the period is re-expressed in whole days (the internal unit
    /// every solver sees), so `Periodic { 900 s }` and
    /// `Periodic { 0.25 h }` produce the same canonical value.
    ///
    /// # Errors
    ///
    /// See [`Scrubbing::validate`].
    pub fn canonicalized(self) -> Result<Self, ModelError> {
        self.validate()?;
        Ok(match self {
            Scrubbing::None => Scrubbing::None,
            Scrubbing::Periodic { period } => Scrubbing::Periodic {
                period: Time::from_days(period.as_days()),
            },
        })
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidScrubPeriod`] for a non-positive period.
    pub fn validate(&self) -> Result<(), ModelError> {
        match self {
            Scrubbing::None => Ok(()),
            Scrubbing::Periodic { period } => {
                if period.is_valid() && period.as_days() > 0.0 {
                    Ok(())
                } else {
                    Err(ModelError::InvalidScrubPeriod)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_codes_validate() {
        assert_eq!(CodeParams::rs18_16(), CodeParams::new(18, 16, 8).unwrap());
        assert_eq!(CodeParams::rs36_16(), CodeParams::new(36, 16, 8).unwrap());
    }

    #[test]
    fn invalid_codes_rejected() {
        assert!(CodeParams::new(18, 18, 8).is_err());
        assert!(CodeParams::new(18, 0, 8).is_err());
        assert!(CodeParams::new(300, 16, 8).is_err());
        assert!(CodeParams::new(18, 16, 1).is_err());
        assert!(CodeParams::new(18, 16, 17).is_err());
        assert!(CodeParams::new(16, 8, 4).is_err()); // n > 15
    }

    #[test]
    fn ber_prefactor_matches_paper_examples() {
        // RS(18,16), m=8: 8·2/16 = 1. RS(36,16), m=8: 8·20/16 = 10.
        assert_eq!(CodeParams::rs18_16().ber_prefactor(), 1.0);
        assert_eq!(CodeParams::rs36_16().ber_prefactor(), 10.0);
    }

    #[test]
    fn capability_boundary() {
        let c = CodeParams::rs18_16();
        assert!(c.within_capability(2, 0));
        assert!(c.within_capability(0, 1));
        assert!(!c.within_capability(1, 1));
        assert!(!c.within_capability(3, 0));
    }

    #[test]
    fn rm_geometry_and_capability() {
        // RM(1,4): n = 16 bits, k = 5, d = 8 → budget 7, one masked
        // erasure from the stuck-at write trick.
        let c = CodeParams::rm1(4).unwrap();
        assert_eq!((c.n(), c.k(), c.m()), (16, 5, 1));
        assert_eq!(c.family(), CodeFamily::Rm);
        let cap = c.capability();
        assert_eq!(cap.budget, 7);
        assert_eq!(cap.masked_erasures, 1);
        assert_eq!(cap.max_random_errors(), 3);
        assert!(c.within_capability(8, 0)); // one erasure is free
        assert!(!c.within_capability(9, 0));
        assert!(c.within_capability(1, 3)); // masked erasure + t errors
        assert!(c.within_capability(2, 3)); // (2−1) + 2·3 = 7 ≤ 7
        assert!(!c.within_capability(3, 3));
        assert!(CodeParams::rm1(2).is_err());
        assert!(CodeParams::rm1(13).is_err());
    }

    #[test]
    fn irs_geometry_and_capability() {
        let c = CodeParams::interleaved(18, 16, 8, 4).unwrap();
        assert_eq!((c.n(), c.k(), c.m()), (72, 64, 8));
        assert_eq!(c.family(), CodeFamily::Irs);
        assert_eq!((c.inner_n(), c.inner_k(), c.depth()), (18, 16, 4));
        // Worst case: every fault in one constituent → inner budget.
        assert_eq!(c.capability().budget, 2);
        assert!(c.within_capability(0, 1));
        assert!(!c.within_capability(0, 2));
        // Bursts spread across the constituents: depth · t_inner.
        assert_eq!(c.max_burst(), 4);
        assert!(CodeParams::interleaved(18, 16, 8, 1).is_err());
        assert!(CodeParams::interleaved(18, 18, 8, 4).is_err());
    }

    #[test]
    fn family_names_round_trip() {
        for family in [CodeFamily::Rs, CodeFamily::Rm, CodeFamily::Irs] {
            assert_eq!(family.name().parse::<CodeFamily>().unwrap(), family);
        }
        assert!("bch".parse::<CodeFamily>().is_err());
    }

    #[test]
    fn family_display_forms() {
        assert_eq!(CodeParams::rs18_16().to_string(), "RS(18,16) over GF(2^8)");
        assert_eq!(
            CodeParams::rm1(3).unwrap().to_string(),
            "RM(1,3) over GF(2)"
        );
        assert_eq!(
            CodeParams::interleaved(18, 16, 8, 2).unwrap().to_string(),
            "IRS(18,16)x2 over GF(2^8)"
        );
    }

    #[test]
    fn prefixed_code_forms_parse() {
        assert_eq!(
            "rs:18,16,8".parse::<CodeParams>().unwrap(),
            CodeParams::rs18_16()
        );
        assert_eq!(
            "rm:4".parse::<CodeParams>().unwrap(),
            CodeParams::rm1(4).unwrap()
        );
        assert_eq!(
            "irs: 18, 16, 8, 2".parse::<CodeParams>().unwrap(),
            CodeParams::interleaved(18, 16, 8, 2).unwrap()
        );
        assert!("bch:18,16,8".parse::<CodeParams>().is_err());
        assert!("rm:4,5".parse::<CodeParams>().is_err());
        assert!("irs:18,16,8".parse::<CodeParams>().is_err());
    }

    #[test]
    fn scrub_rate_conversion() {
        let s = Scrubbing::every_seconds(3600.0);
        assert!((s.rate_per_day() - 24.0).abs() < 1e-9);
        assert_eq!(Scrubbing::None.rate_per_day(), 0.0);
    }

    #[test]
    fn scrub_validation() {
        assert!(Scrubbing::None.validate().is_ok());
        assert!(Scrubbing::every_seconds(900.0).validate().is_ok());
        assert!(Scrubbing::every_seconds(0.0).validate().is_err());
        assert!(Scrubbing::every_seconds(-5.0).validate().is_err());
        assert!(Scrubbing::every_seconds(f64::NAN).validate().is_err());
    }

    #[test]
    fn code_params_parse_from_triple() {
        let code: CodeParams = "18,16,8".parse().unwrap();
        assert_eq!(code, CodeParams::rs18_16());
        let spaced: CodeParams = " 36 , 16 , 8 ".parse().unwrap();
        assert_eq!(spaced, CodeParams::rs36_16());
        assert!("18,16".parse::<CodeParams>().is_err());
        assert!("18,16,8,9".parse::<CodeParams>().is_err());
        assert!("a,b,c".parse::<CodeParams>().is_err());
        assert!("16,18,8".parse::<CodeParams>().is_err()); // k > n
    }

    #[test]
    fn canonicalization_normalizes_negative_zero() {
        let rates = FaultRates {
            seu: SeuRate::per_bit_day(-0.0),
            erasure: ErasureRate::per_symbol_day(1e-6),
        };
        let canon = rates.canonicalized().unwrap();
        assert!(canon.seu.as_per_bit_day().is_sign_positive());
        assert_eq!(canon.erasure.as_per_symbol_day(), 1e-6);
        let bad = FaultRates {
            seu: SeuRate::per_bit_day(f64::NAN),
            erasure: ErasureRate::default(),
        };
        assert!(bad.canonicalized().is_err());
    }

    #[test]
    fn scrub_canonicalization_validates() {
        assert_eq!(
            Scrubbing::every_seconds(900.0).canonicalized().unwrap(),
            Scrubbing::every_seconds(900.0)
        );
        assert!(Scrubbing::every_seconds(-1.0).canonicalized().is_err());
    }

    #[test]
    fn rate_validation() {
        assert!(FaultRates::default().validate().is_ok());
        let bad = FaultRates {
            seu: SeuRate::per_bit_day(-1.0),
            erasure: ErasureRate::default(),
        };
        assert!(bad.validate().is_err());
    }
}
