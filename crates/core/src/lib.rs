//! # rsmem — Reed–Solomon coded memory reliability analysis
//!
//! A from-scratch reproduction of *"On the Analysis of Reed Solomon
//! Coding for Resilience to Transient/Permanent Faults in Highly Reliable
//! Memories"* (Schiano, Ottavi, Lombardi, Pontarelli, Salsano —
//! DATE 2005), packaged as a reusable library.
//!
//! The paper studies two arrangements of an RS-coded memory for space
//! Solid State Mass Memories — a **simplex** (one module) and a **duplex**
//! (two modules behind a flag-comparing arbiter) — under transient faults
//! (SEUs → random errors, rate `λ`/bit/day), permanent faults (located
//! stuck-ats → erasures, rate `λe`/symbol/day) and periodic **scrubbing**.
//! It evaluates the Bit Error Rate `BER(t) = m·(n−k)/k·P_Fail(t)` with
//! continuous-time Markov models.
//!
//! ## What lives where
//!
//! | layer | crate |
//! |---|---|
//! | GF(2^m) arithmetic | `rsmem-gf` |
//! | RS(n,k) errors-and-erasures codec + complexity model | `rsmem-code` |
//! | CTMC engine (uniformization, ODE, SURE-style path bounds) | `rsmem-ctmc` |
//! | the paper's simplex/duplex Markov models + Eq. (1) | `rsmem-models` |
//! | Monte-Carlo fault-injection simulator + Section-3 arbiter | `rsmem-sim` |
//! | this façade + figure-reproduction experiments | `rsmem` |
//!
//! ## Quickstart
//!
//! ```
//! use rsmem::{MemorySystem, CodeParams, Scrubbing};
//! use rsmem::units::{SeuRate, Time, TimeGrid};
//!
//! # fn main() -> Result<(), rsmem::Error> {
//! // The paper's duplex RS(18,16) under the worst-case SEU rate,
//! // scrubbed every 15 minutes.
//! let system = MemorySystem::duplex(CodeParams::rs18_16())
//!     .with_seu_rate(SeuRate::per_bit_day(1.7e-5))
//!     .with_scrubbing(Scrubbing::every_seconds(900.0));
//!
//! let grid = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 9);
//! let curve = system.ber_curve(grid.points())?;
//! assert!(curve.ber.iter().all(|&b| b < 1e-6)); // paper Fig. 7
//! # Ok(())
//! # }
//! ```
//!
//! ## Reproducing the paper
//!
//! Every figure and the Section-6 complexity table is an entry of
//! [`experiments::ExperimentId`]; [`experiments::run`] returns the series
//! data, and `rsmem experiment <id>` prints it (see EXPERIMENTS.md in
//! the repository root for paper-vs-measured values).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod experiments;
pub mod parallel;
pub mod plot;
pub mod report;
pub mod scrub;
mod system;

pub use error::Error;
pub use parallel::Parallelism;
pub use system::{Arrangement, MemorySystem};

// Curated re-exports so downstream users need only this crate.
pub use rsmem_code::{complexity, DecodeOutcome, DecoderBackend, RsCode};
pub use rsmem_codes::MemoryCode;
pub use rsmem_models::ber::{BerCurve, MemoryModel};
pub use rsmem_models::{
    CodeFamily, CodeParams, CorrectionCapability, DuplexFailCriterion, DuplexModel, DuplexOptions,
    FaultRates, ModelError, Scrubbing, SimplexModel,
};
pub use rsmem_sim::{MonteCarloReport, ScrubTiming, SimConfig, TrialOutcome};

/// Unit-safe time and rate types (re-export of `rsmem_models::units`).
pub mod units {
    pub use rsmem_models::units::*;
}

/// The code-family framework: the [`MemoryCode`] trait, its RS /
/// Reed–Muller / interleaved-RS implementations and the
/// [`codes::build`] factory (re-export of `rsmem_codes`).
pub mod codes {
    pub use rsmem_codes::*;
}

/// Whole-memory Monte-Carlo simulation with multi-bit upsets and
/// interleaving (re-export of `rsmem_sim::array`).
pub mod array {
    pub use rsmem_sim::array::*;
}

/// Analytic whole-memory composition of the per-word models
/// (re-export of `rsmem_models::memory_array`).
pub mod memory_array {
    pub use rsmem_models::memory_array::*;
}

/// Reliability metrics beyond BER (re-export of
/// `rsmem_models::metrics`).
pub mod metrics {
    pub use rsmem_models::metrics::*;
}

/// Piecewise-constant mission profiles, e.g. solar-flare phases
/// (re-export of `rsmem_models::mission`).
pub mod mission {
    pub use rsmem_models::mission::*;
}

/// Eagerly registers every solver-level metric family (uniformization,
/// decode back-ends, Monte-Carlo shards, arbiter decisions) in the
/// global `rsmem-obs` registry, so a metrics scrape sees the complete
/// zero-valued set before any solve has run. The service calls this at
/// bind time; long-running CLI commands call it at startup.
pub fn register_solver_metrics() {
    rsmem_obs::register_build_info(rsmem_obs::global());
    rsmem_ctmc::uniformization::register_metrics();
    rsmem_code::register_metrics();
    rsmem_sim::metrics::register_metrics();
}
